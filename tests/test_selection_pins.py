"""Selections that changes to the solver's hot path must not move.

Engine ``mcd``, and engine ``lshaped`` in rows of their own, under the
default stop rule on the first 32 2-D and all 8 3-D boxes of the
benchmark's ``select`` corpus.  The ``mcd`` rows were recorded before the
branch-and-bound node work was made cheaper, the ``lshaped`` rows before
resumed masters got an objective cutoff.  Each row holds: dims, instance
seed, action, objective and upper bound (``float.hex``, compared exactly),
iterations, B&B nodes, LP pivots and bound flips.  One sha256 per engine
over the 40 traces' bytes, in row order, pins every bound of every
iteration as well; it is the same with one BLAS thread and with two.  A
change meant to leave every pivot alone must leave every row and the
digest alone; one that moves them on purpose says which and why, and
records the new values.

Moved on purpose: box 2022's upper bound, by one ulp (it was
``-0x1.1beabf8baf83dp+6``), when each expanded node began to be rebuilt
from the base instead of some 0-children working in the tableau kept from
the node pushed last; that tableau rounded differently from a rebuild.
"""

import hashlib

import pytest

from nnfvi.cli import make_bench_instance
from nnfvi.mcd import McdConfig, select_action

PINNED = [
    (2, 2000, (3, 3), '0x1.545b7b208de11p+7', '0x1.545b7b208de11p+7', 2, 9, 19, 3),
    (2, 2001, (1, 0), '0x1.206bc00169fdep+4', '0x1.206bc00169fdep+4', 6, 22, 53, 0),
    (2, 2002, (3, 3), '0x1.2e0dff3d4d9ddp+5', '0x1.2e0dff3d4d9ddp+5', 8, 29, 61, 4),
    (2, 2003, (0, 3), '0x1.0708bc7be5194p+6', '0x1.0708bc7be5194p+6', 9, 37, 63, 2),
    (2, 2004, (0, 0), '-0x1.e604cb09bcd13p+4', '-0x1.e604cb09bcd13p+4', 5, 22, 48, 2),
    (2, 2005, (3, 3), '0x1.49147060c43bcp+6', '0x1.49147060c43bcp+6', 14, 44, 73, 2),
    (2, 2006, (3, 3), '0x1.161bac6dd1d0dp+8', '0x1.161bac6dd1d0dp+8', 2, 9, 19, 3),
    (2, 2007, (0, 3), '-0x1.867d58ce2c2c0p+3', '-0x1.867d58ce2c2c0p+3', 6, 18, 45, 2),
    (2, 2008, (0, 3), '0x1.49fcad7302465p+5', '0x1.49fcad7302465p+5', 3, 11, 24, 1),
    (2, 2009, (3, 3), '0x1.7f98be028ce7fp+5', '0x1.7f98be028ce7fp+5', 4, 17, 32, 2),
    (2, 2010, (1, 0), '-0x1.228eeb6376a67p+6', '-0x1.228eeb6376a67p+6', 9, 37, 67, 3),
    (2, 2011, (0, 0), '-0x1.d9537e043eea5p+5', '-0x1.d9537e043eea5p+5', 3, 16, 30, 0),
    (2, 2012, (1, 3), '0x1.44d53f0cedcafp+4', '0x1.44d53f0cedcafp+4', 4, 13, 35, 2),
    (2, 2013, (0, 0), '-0x1.8f68afb7cde1ap+3', '-0x1.8f68afb7cde1ap+3', 8, 38, 66, 0),
    (2, 2014, (0, 3), '0x1.0c08e3be5626bp+7', '0x1.0c08e3be5626bp+7', 5, 22, 37, 1),
    (2, 2015, (3, 0), '0x1.1f974eab26ce4p+6', '0x1.1f974eab26ce4p+6', 11, 39, 70, 3),
    (2, 2016, (3, 3), '0x1.d715867d1954dp+6', '0x1.d715867d1954dp+6', 3, 14, 27, 2),
    (2, 2017, (0, 0), '-0x1.973f1408754d0p+5', '-0x1.973f1408754d0p+5', 4, 15, 34, 3),
    (2, 2018, (0, 3), '0x1.7c76792b19f71p+4', '0x1.7c76792b19f71p+4', 4, 13, 35, 2),
    (2, 2019, (0, 3), '0x1.002577a029f15p+6', '0x1.002577a029f15p+6', 2, 9, 18, 0),
    (2, 2020, (3, 0), '-0x1.542fafbef24fdp+3', '-0x1.542fafbef24fdp+3', 5, 16, 37, 0),
    (2, 2021, (0, 0), '0x1.5d0aa96eb722ep+2', '0x1.5d0aa96eb722ep+2', 4, 15, 36, 1),
    (2, 2022, (0, 3), '-0x1.1ce8b47e2ec19p+6', '-0x1.1beabf8baf83ep+6', 9, 35, 67, 1),
    (2, 2023, (3, 2), '0x1.d81028fb78110p+6', '0x1.d81028fb78110p+6', 4, 22, 42, 3),
    (2, 2024, (1, 3), '0x1.8994ab4ef663dp+4', '0x1.8994ab4ef663dp+4', 4, 11, 35, 3),
    (2, 2025, (0, 0), '-0x1.cfaf66e5166b4p+4', '-0x1.cfaf66e5166b4p+4', 2, 16, 24, 0),
    (2, 2026, (3, 3), '0x1.952dc33fd0263p+7', '0x1.952dc33fd0263p+7', 4, 22, 34, 3),
    (2, 2027, (1, 2), '0x1.1a68f4790c09ep+4', '0x1.1a68f4790c09ep+4', 7, 25, 51, 0),
    (2, 2028, (3, 0), '0x1.c66e82072d1c8p+5', '0x1.c66e82072d1c8p+5', 7, 29, 56, 1),
    (2, 2029, (3, 0), '0x1.11d630b52be8cp+3', '0x1.11d630b52be8cp+3', 4, 23, 43, 1),
    (2, 2030, (0, 0), '-0x1.27feb32d4e268p+1', '-0x1.27feb32d4e268p+1', 6, 23, 53, 1),
    (2, 2031, (0, 0), '-0x1.abfcddb8c2ad8p+5', '-0x1.abfcddb8c2ad8p+5', 6, 26, 49, 3),
    (3, 3000, (0, 0, 0), '0x1.efa3d424b7724p+1', '0x1.efa3d424b7724p+1', 12, 84, 147, 0),
    (3, 3001, (0, 0, 0), '-0x1.c9c5bee1624f9p+5', '-0x1.c9c5bee1624f9p+5', 7, 38, 82, 1),
    (3, 3002, (0, 0, 3), '0x1.2b1ad7d936740p-1', '0x1.2b1ad7d936740p-1', 21, 119, 199, 0),
    (3, 3003, (0, 0, 0), '-0x1.b2b9fd8a0a0aap+5', '-0x1.b2b9fd8a0a0aap+5', 7, 32, 80, 3),
    (3, 3004, (0, 3, 3), '0x1.3ad953606f819p+8', '0x1.3ae6b7b8d7537p+8', 8, 49, 66, 3),
    (3, 3005, (1, 0, 0), '-0x1.9814f48e82256p+5', '-0x1.9814f48e82256p+5', 28, 129, 230, 2),
    (3, 3006, (3, 0, 0), '0x1.c339142c00fe3p+6', '0x1.c339142c00fe3p+6', 62, 230, 371, 5),
    (3, 3007, (0, 0, 0), '-0x1.93d7699f9181ap+3', '-0x1.93d7699f9181ap+3', 5, 25, 65, 5),
]


# sha256 over the 40 selections' ``trace.tobytes()``, in PINNED order
TRACES_SHA256 = "e5bac762b51104c8135fdd935474ac5f136fda7a97e8f9c1c44746be3d9eac36"

# the same boxes with engine lshaped, which stops only when a master
# revisits an anchor, so every selection here visits the whole box
LSHAPED_PINNED = [
    (2, 2000, (3, 3), '0x1.545b7b208de11p+7', '0x1.545b7b208de11p+7', 16, 31, 40, 3),
    (2, 2001, (1, 0), '0x1.206bc00169fdep+4', '0x1.206bc00169fdep+4', 16, 45, 54, 2),
    (2, 2002, (3, 3), '0x1.2e0dff3d4d9ddp+5', '0x1.2e0dff3d4d9ddp+5', 16, 45, 59, 2),
    (2, 2003, (0, 3), '0x1.0708bc7be5194p+6', '0x1.0708bc7be5194p+6', 16, 45, 53, 0),
    (2, 2004, (0, 0), '-0x1.e604cb09bcd13p+4', '-0x1.e604cb09bcd13p+4', 16, 45, 59, 6),
    (2, 2005, (3, 3), '0x1.49147060c43bcp+6', '0x1.49147060c43bcp+6', 16, 45, 54, 3),
    (2, 2006, (3, 3), '0x1.161bac6dd1d0dp+8', '0x1.161bac6dd1d0dp+8', 16, 43, 54, 5),
    (2, 2007, (0, 3), '-0x1.867d58ce2c2c0p+3', '-0x1.867d58ce2c2c0p+3', 16, 45, 54, 2),
    (2, 2008, (0, 3), '0x1.49fcad7302465p+5', '0x1.49fcad7302465p+5', 16, 41, 51, 2),
    (2, 2009, (3, 3), '0x1.7f98be028ce7fp+5', '0x1.7f98be028ce7fp+5', 16, 45, 53, 0),
    (2, 2010, (1, 0), '-0x1.228eeb6376a67p+6', '-0x1.228eeb6376a67p+6', 16, 45, 54, 2),
    (2, 2011, (0, 0), '-0x1.d9537e043eea5p+5', '-0x1.d9537e043eea5p+5', 16, 45, 54, 2),
    (2, 2012, (1, 3), '0x1.44d53f0cedcafp+4', '0x1.44d53f0cedcafp+4', 16, 45, 51, 0),
    (2, 2013, (0, 0), '-0x1.8f68afb7cde1ap+3', '-0x1.8f68afb7cde1ap+3', 16, 45, 51, 0),
    (2, 2014, (0, 3), '0x1.0c08e3be5626bp+7', '0x1.0c08e3be5626bp+7', 16, 45, 55, 3),
    (2, 2015, (3, 0), '0x1.1f974eab26ce4p+6', '0x1.1f974eab26ce4p+6', 16, 45, 54, 3),
    (2, 2016, (3, 3), '0x1.d715867d1954dp+6', '0x1.d715867d1954dp+6', 16, 45, 54, 3),
    (2, 2017, (0, 0), '-0x1.973f1408754d0p+5', '-0x1.973f1408754d0p+5', 16, 45, 56, 2),
    (2, 2018, (0, 3), '0x1.7c76792b19f71p+4', '0x1.7c76792b19f71p+4', 16, 45, 56, 5),
    (2, 2019, (0, 3), '0x1.002577a029f15p+6', '0x1.002577a029f15p+6', 16, 41, 47, 0),
    (2, 2020, (3, 0), '-0x1.542fafbef24fdp+3', '-0x1.542fafbef24fdp+3', 16, 45, 54, 2),
    (2, 2021, (0, 0), '0x1.5d0aa96eb722ep+2', '0x1.5d0aa96eb722ep+2', 16, 45, 53, 0),
    (2, 2022, (0, 3), '-0x1.1ce8b47e2ec19p+6', '-0x1.1ce8b47e2ec19p+6', 16, 45, 54, 2),
    (2, 2023, (3, 2), '0x1.d81028fb78110p+6', '0x1.d81028fb78110p+6', 16, 45, 55, 3),
    (2, 2024, (1, 3), '0x1.8994ab4ef663dp+4', '0x1.8994ab4ef663dp+4', 16, 45, 54, 2),
    (2, 2025, (0, 0), '-0x1.cfaf66e5166b4p+4', '-0x1.cfaf66e5166b4p+4', 16, 45, 55, 2),
    (2, 2026, (3, 3), '0x1.952dc33fd0263p+7', '0x1.952dc33fd0263p+7', 16, 45, 54, 3),
    (2, 2027, (1, 2), '0x1.1a68f4790c09ep+4', '0x1.1a68f4790c09ep+4', 16, 45, 54, 3),
    (2, 2028, (3, 0), '0x1.c66e82072d1c8p+5', '0x1.c66e82072d1c8p+5', 16, 45, 56, 4),
    (2, 2029, (3, 0), '0x1.11d630b52be8cp+3', '0x1.11d630b52be8cp+3', 16, 45, 52, 1),
    (2, 2030, (0, 0), '-0x1.27feb32d4e268p+1', '-0x1.27feb32d4e268p+1', 16, 45, 52, 1),
    (2, 2031, (0, 0), '-0x1.abfcddb8c2ad8p+5', '-0x1.abfcddb8c2ad8p+5', 16, 45, 55, 2),
    (3, 3000, (0, 0, 0), '0x1.efa3d424b7724p+1', '0x1.efa3d424b7724p+1', 64, 189, 198, 1),
    (3, 3001, (0, 0, 0), '-0x1.c9c5bee1624f9p+5', '-0x1.c9c5bee1624f9p+5', 64, 161, 170, 0),
    (3, 3002, (0, 0, 3), '0x1.2b1ad7d936740p-1', '0x1.2b1ad7d936740p-1', 64, 189, 205, 6),
    (3, 3003, (0, 0, 0), '-0x1.b2b9fd8a0a0aap+5', '-0x1.b2b9fd8a0a0aap+5', 64, 189, 197, 0),
    (3, 3004, (0, 3, 3), '0x1.3ad953606f819p+8', '0x1.3ad953606f819p+8', 64, 171, 184, 5),
    (3, 3005, (1, 0, 0), '-0x1.9814f48e82256p+5', '-0x1.9814f48e82256p+5', 64, 189, 201, 4),
    (3, 3006, (3, 0, 0), '0x1.c339142c00fe3p+6', '0x1.c339142c00fe3p+6', 64, 189, 201, 3),
    (3, 3007, (0, 0, 0), '-0x1.93d7699f9181ap+3', '-0x1.93d7699f9181ap+3', 64, 169, 180, 1),
]

# sha256 over the 40 lshaped selections' ``trace.tobytes()``, in LSHAPED_PINNED order
LSHAPED_TRACES_SHA256 = "df5a901d7364b5a65fa0bfcf1e8f8f3b98bbc907f25fd3bc931d9d12602f0078"


def select(dims, seed, engine="mcd"):
    ctx, reward = make_bench_instance(seed, dims, neurons=10, transition_samples=4,
                                      capacity_levels=3)
    return select_action(ctx, reward, McdConfig(engine=engine))


@pytest.mark.parametrize(
    "dims, seed, action, objective, upper, iterations, nodes, pivots, flips",
    PINNED, ids=[f"{row[0]}d-{row[1]}" for row in PINNED])
def test_selection_is_pinned(dims, seed, action, objective, upper, iterations, nodes,
                             pivots, flips):
    res = select(dims, seed)
    assert not res.fell_back
    assert (tuple(res.action.tolist()), res.objective.hex(), res.upper_bound.hex(),
            res.iterations, res.milp_nodes, res.lp_pivots, res.bound_flips) == (
        action, objective, upper, iterations, nodes, pivots, flips)


def test_traces_are_pinned():
    digest = hashlib.sha256()
    for dims, seed, *_ in PINNED:
        digest.update(select(dims, seed).trace.tobytes())
    assert digest.hexdigest() == TRACES_SHA256


@pytest.mark.parametrize(
    "dims, seed, action, objective, upper, iterations, nodes, pivots, flips",
    LSHAPED_PINNED, ids=[f"{row[0]}d-{row[1]}" for row in LSHAPED_PINNED])
def test_lshaped_selection_is_pinned(dims, seed, action, objective, upper, iterations,
                                     nodes, pivots, flips):
    res = select(dims, seed, engine="lshaped")
    assert not res.fell_back
    assert (tuple(res.action.tolist()), res.objective.hex(), res.upper_bound.hex(),
            res.iterations, res.milp_nodes, res.lp_pivots, res.bound_flips) == (
        action, objective, upper, iterations, nodes, pivots, flips)


def test_lshaped_traces_are_pinned():
    digest = hashlib.sha256()
    for dims, seed, *_ in LSHAPED_PINNED:
        digest.update(select(dims, seed, engine="lshaped").trace.tobytes())
    assert digest.hexdigest() == LSHAPED_TRACES_SHA256
