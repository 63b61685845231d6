"""Shared synthetic-instance helpers for the test suite."""

import numpy as np

from nnfvi.cuts import RecourseContext
from nnfvi.mcd import linear_stage_reward
from nnfvi.mdp import ActionBox, MdpSpec
from nnfvi.neural import ReluNet


def uniform_box_sampler(lo, hi):
    """State sampler drawing uniformly from the box ``[lo, hi]``."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lambda rng, count: rng.uniform(size=(count, lo.size)) * (hi - lo) + lo


def random_affine_spec(rng, n1, n2, a_bar, horizon=3, discount=0.9):
    """Affine MDP whose noise row holds the offset ``A`` and then the linear
    part ``B`` row by row, with standard normal states."""
    return MdpSpec(
        horizon=horizon,
        discount=discount,
        state_dim=n1,
        action_box=ActionBox(np.asarray(a_bar, dtype=np.int64)),
        draw_noises=lambda r, count: r.normal(size=(count, n1 + n1 * n2)),
        transition=lambda x, xi: (xi[:, :n1], xi[:, n1:].reshape(-1, n1, n2)),
        stage_reward=lambda t, x: linear_stage_reward(np.zeros(n2)),
        state_sampler=lambda r, count: r.normal(size=(count, n1)),
    )


def random_context(seed, j=6, n1=3, n2=2, s2=4, a_bar=None, weight_scale=1.0):
    """Random ReLU net + random affine transitions around a random state."""
    rng = np.random.default_rng(seed)
    if a_bar is None:
        a_bar = rng.integers(1, 6, size=n2)
    spec = random_affine_spec(rng, n1, n2, a_bar)
    net = ReluNet(
        input_weights=rng.normal(size=(j, n1)),
        input_biases=rng.normal(size=j),
        output_weights=rng.normal(size=j) * weight_scale,
        output_bias=float(rng.normal()),
    )
    x = rng.normal(size=n1)
    return RecourseContext(net, spec, x, spec.draw_noises(rng, s2))


def affine_noise(A, B):
    """A one-draw batch of ``random_affine_spec`` noise with offset ``A`` and
    linear part ``B``."""
    return np.concatenate([A, np.ravel(B)])[None, :]


def partial_recourse(ctx, a, neurons):
    """Scenario-averaged output of the hidden neurons ``neurons`` at ``a``."""
    if not neurons:
        return 0.0
    pre = (ctx.gamma1 @ np.asarray(a, dtype=float) + ctx.gamma2)[:, neurons]
    return float(np.mean(np.maximum(pre, 0.0) @ ctx.net.output_weights[neurons]))


def negative_part_value(ctx, a):
    """Recourse contribution of the non-positive-weight neurons."""
    return partial_recourse(ctx, a, ctx.rest_neurons)


def positive_part_value(ctx, a):
    """Recourse contribution of the positive-weight neurons."""
    return partial_recourse(ctx, a, ctx.positive_neurons)


def zeta_value(enc, anchor, a):
    """Hamming distance between canonical encodings: 0 at the anchor, else >= 1."""
    return int(np.sum(enc.encode(anchor) != enc.encode(a)))


def integer_cut_rhs(cut, enc, anchor, a):
    """The integer optimality cut's bound on the recourse at ``a``:
    ``v + zeta(a) * (eta_bar - v)`` for the cut's anchor value ``v``."""
    z = zeta_value(enc, anchor, a)
    return cut.anchor_value + z * (cut.eta_bar - cut.anchor_value)


def assert_no_entering_column(tab):
    """Re-pricing a copy of the re-optimized tableau ``tab`` with its own
    costs finds no column to enter: the dual simplex stopped at an optimal
    basis, not merely a primal feasible one."""
    dup = tab.copy()
    assert dup.solve(dup._costs, dup.n) == "optimal"
    assert not dup.pivots, "the dual simplex stopped short of optimal"
