"""Action-selection engines over a ReLU recourse: multi-cut decomposition,
integer L-shaped, and brute-force enumeration.

All three maximize ``reward(a) + discount * recourse(a) + discount * w0``
over the integer action box.  The decomposition engines iterate a first-stage
MILP over the binary expansion of the action, accumulating integer optimality
cuts (both engines) and combined gradient/positive-neuron cuts (multi-cut
only), and maintain certified lower/upper bounds on the optimum.  At every
anchor the exact objective is also evaluated at the anchor's unit neighbours
inside the box (one coordinate moved by one); neighbours carry no cuts, but
being feasible they raise the lower bound and may become the incumbent.
The neighbour step is not part of the MCD as the paper states it; it borrows
the distance-1 solutions of Laporte & Louveaux's (1993) integer L-shaped
method, which evaluate the recourse one step from the current first-stage
solution to strengthen its cuts, and uses them here as incumbents only.

The stage reward has one representation, :class:`StageReward`: separable
concave pieces per action dimension.  Brute force and the exact anchor
evaluations compute it with :meth:`StageReward.values`, and the first-stage
MILP encodes the same pieces as rows.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bnb import MilpProblem, NodeLimitError, solve_milp
from .cuts import (
    BinaryEncoding,
    IntegerOptimalityCut,
    LinearCut,
    RecourseContext,
    binary_encoding,
    combined_cut,
    integer_optimality_cut,
    recourse_upper_bound,
    recourse_value,  # unused here; kept at this name, which perfbench traces
    recourse_values,
)
from .mdp import ActionBox, as_integers, enumerate_actions
from .simplex import LEQ, LpNumericalError, LpProblem

ENGINES = ("mcd", "brute", "lshaped")
MILP_TOLERANCE = 1e-9  # integrality and optimality tolerance of the first stage


@dataclass(frozen=True)
class McdConfig:
    """Decomposition controls; the default stop rule is 0.35% gap or 100 steps."""

    max_iterations: int = 100
    gap_tolerance: float = 0.0035
    engine: str = "mcd"
    gap_floor: float = 1e-6  # denominator floor for the relative gap

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           int(as_integers(self.max_iterations, "max_iterations")))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (np.isfinite(self.gap_tolerance) and self.gap_tolerance >= 0):
            raise ValueError(f"gap_tolerance must be finite and >= 0, got "
                             f"{self.gap_tolerance}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")

    def stop_criterion_label(self) -> str:
        return f"{self.gap_tolerance * 100:g}%/{self.max_iterations} steps"


@dataclass
class StageReward:
    """Stage reward ``r(a) = constant + sum_n min_k (slope_k a_n + icept_k)``.

    ``pieces[n]`` lists the ``(slope, intercept)`` pairs whose pointwise
    minimum gives dimension ``n``'s concave contribution; an empty list
    contributes zero.  Brute force and the exact anchor evaluations use
    :meth:`values`; the first-stage MILP encodes the same pieces as rows.
    """

    constant: float
    pieces: list

    def values(self, actions: np.ndarray) -> np.ndarray:
        """Reward at every row of the ``(count, dims)`` array ``actions``."""
        actions = np.asarray(actions, dtype=float)
        total = np.full(len(actions), float(self.constant))
        for n, dim_pieces in enumerate(self.pieces):
            if dim_pieces:
                slopes, icepts = np.asarray(dim_pieces, dtype=float).T
                total += (np.multiply.outer(actions[:, n], slopes)
                          + icepts).min(axis=1)
        return total


def linear_stage_reward(gain: np.ndarray, constant: float = 0.0) -> StageReward:
    """Purely linear reward ``constant + gain @ a`` as a one-piece StageReward."""
    gain = np.asarray(gain, dtype=float)
    return StageReward(constant=constant, pieces=[[(float(g), 0.0)] for g in gain])


@functools.cache
def trace_dtype(dims: int) -> np.dtype:
    """Record type of a selection trace over a ``dims``-dimensional box."""
    return np.dtype([("iteration", np.int64), ("lower", float), ("upper", float),
                     ("action", np.int64, (dims,))])


@dataclass(slots=True)
class SelectionResult:
    action: np.ndarray
    objective: float          # exact value of ``action``, best over anchors
                              # and their unit neighbours (lower bound)
    upper_bound: float
    iterations: int
    trace: np.ndarray         # one trace_dtype record per iteration:
                              # iteration, lower, upper, anchor action
    fell_back: bool = False   # a decomposition engine's MILP failed, so this
                              # is the brute-force result
    milp_nodes: int = 0       # B&B nodes and LP pivots summed over the
    lp_pivots: int = 0        # selection's first-stage MILPs (0 for brute)

    def trace_rows(self) -> list:
        """CSV-ready rows: iteration, lower bound, upper bound, action string,
        the numbers as Python ``int`` and ``float``."""
        return [(it, lo, hi, " ".join(str(v) for v in act.tolist()))
                for it, lo, hi, act in self.trace.tolist()]


@dataclass
class FirstStage:
    """Assembled first-stage MILP plus the bookkeeping to decode its solution."""

    milp: MilpProblem
    encoding: BinaryEncoding
    constant_offset: float

    def decode_action(self, x: np.ndarray) -> np.ndarray:
        bits = np.round(x[: self.encoding.total_bits])
        return self.encoding.decode(bits)

    def with_cuts(self, integer_cut: IntegerOptimalityCut,
                  combined_cut: Optional[LinearCut] = None) -> "FirstStage":
        """This first stage with one iteration's cut rows appended: the
        integer optimality cut's, then the combined cut's if one is given."""
        n_bits, bits = self.encoding.total_bits, integer_cut.bits
        rows = np.zeros((1 + (combined_cut is not None), self.milp.lp.n_vars))
        # eta + (eta_bar - v) * (sum_ones alpha - sum_zeros alpha) <= v + (eta_bar - v)|ones|
        spread = integer_cut.eta_bar - integer_cut.anchor_value
        rows[0, :n_bits] = spread * (2 * bits - 1)
        rhs = [integer_cut.anchor_value + spread * bits.sum()]
        if combined_cut is not None:
            # eta <= coef @ a + const with a_n = sum_l 2^l alpha_{n,l}
            rows[1, :n_bits] = self.encoding.expand(-combined_cut.coef)
            rhs.append(combined_cut.const)
        rows[:, n_bits] = 1.0  # eta
        return replace(self, milp=self.milp.with_rows(rows, rhs))


def build_first_stage(ctx: RecourseContext, enc: BinaryEncoding,
                      reward: StageReward, eta_bar: float) -> FirstStage:
    """First-stage MILP: bits, the recourse variable, and reward auxiliaries.

    Rows: per-dimension bound on the bit expansion, the recourse upper bound,
    and one row per reward piece.  A decomposition builds its first stage
    once, and each iteration appends its own cut rows with
    :meth:`FirstStage.with_cuts`, so that each master resumes the previous
    one's search.  The objective is the discounted recourse variable plus the
    reward auxiliaries; objective constants (reward constant and the
    network's output bias) are carried in ``constant_offset``.
    """
    n2 = ctx.spec.action_box.dims
    gamma = ctx.spec.discount
    n_bits = enc.total_bits

    piece_dims = [n for n in range(n2) if reward.pieces[n]]
    rho_of_dim = {n: n_bits + 1 + k for k, n in enumerate(piece_dims)}
    n_vars = n_bits + 1 + len(piece_dims)
    eta = n_bits

    rows, rhs = [], []

    def add_row(bit_coef: np.ndarray, b: float, eta_coef: float = 0.0,
                rho: Optional[int] = None) -> None:
        row = np.zeros(n_vars)
        row[:n_bits] = bit_coef
        row[eta] = eta_coef
        if rho is not None:
            row[rho] = 1.0
        rows.append(row)
        rhs.append(b)

    for bit_coef, b in zip(*enc.bound_rows()):
        add_row(bit_coef, b)

    add_row(np.zeros(n_bits), eta_bar, eta_coef=1.0)

    for n in piece_dims:
        for slope, icept in reward.pieces[n]:
            # rho_n <= slope * a_n + icept
            add_row(enc.expand(np.where(np.arange(n2) == n, -slope, 0.0)), icept,
                    rho=rho_of_dim[n])

    c = np.zeros(n_vars)
    c[eta] = gamma
    for n in piece_dims:
        c[rho_of_dim[n]] = 1.0

    lower = np.concatenate([np.zeros(n_bits), np.full(1 + len(piece_dims), -np.inf)])
    upper = np.concatenate([np.ones(n_bits), np.full(1 + len(piece_dims), np.inf)])
    lp = LpProblem(
        c=c,
        A=np.vstack(rows),
        b=np.asarray(rhs),
        senses=[LEQ] * len(rows),
        lower=lower,
        upper=upper,
        maximize=True,
    )
    milp = MilpProblem(lp=lp, binary_indices=list(range(n_bits)))
    offset = reward.constant + gamma * ctx.net.output_bias
    return FirstStage(milp=milp, encoding=enc, constant_offset=offset)


def _objectives(ctx: RecourseContext, reward: StageReward,
                actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact objective and recourse value at every row of ``actions``."""
    gamma = ctx.spec.discount
    recourse = recourse_values(ctx, actions)
    return reward.values(actions) + gamma * recourse + gamma * ctx.net.output_bias, \
        recourse


def select_action_bruteforce(ctx: RecourseContext,
                             reward: StageReward) -> SelectionResult:
    """Exact enumeration; ties resolve to the lexicographically smallest action."""
    box = ctx.spec.action_box
    actions = enumerate_actions(box)
    values, _ = _objectives(ctx, reward, actions)
    best = int(np.argmax(values))  # first maximum = lexicographically smallest
    top = float(values[best])
    return SelectionResult(
        action=actions[best].copy(),
        objective=top,
        upper_bound=top,
        iterations=len(actions),
        trace=np.array([(1, top, top, actions[best])], dtype=trace_dtype(box.dims)),
    )


def _neighbours(box: ActionBox, a: np.ndarray) -> np.ndarray:
    """Actions one unit away from ``a`` in one coordinate, inside the box."""
    steps = np.vstack([np.eye(box.dims, dtype=np.int64),
                       -np.eye(box.dims, dtype=np.int64)])
    cand = a + steps
    return cand[((cand >= 0) & (cand <= box.upper_bounds)).all(axis=1)]


def _fall_back(ctx: RecourseContext, reward: StageReward, reason: str,
               milp_nodes: int, lp_pivots: int) -> SelectionResult:
    """Brute-force result marked ``fell_back``, with a RuntimeWarning; it
    keeps the counters of the MILPs solved before the failure."""
    warnings.warn(f"{reason}; falling back to brute force", RuntimeWarning)
    return replace(select_action_bruteforce(ctx, reward), fell_back=True,
                   milp_nodes=milp_nodes, lp_pivots=lp_pivots)


def _decompose(ctx: RecourseContext, reward: StageReward, config: McdConfig,
               use_combined: bool) -> SelectionResult:
    """Multi-cut decomposition (integer optimality plus combined cuts) or,
    without ``use_combined``, the integer L-shaped method; both start from
    the zero action.  The first stage is built once, without cuts; each
    iteration appends its own cut rows and resumes the previous iteration's
    branch-and-bound search."""
    box = ctx.spec.action_box
    a_m = np.zeros(box.dims, dtype=np.int64)
    enc = binary_encoding(box)
    eta_bar = recourse_upper_bound(ctx)
    fp = build_first_stage(ctx, enc, reward, eta_bar)

    # anchors only: each carries an integer cut, which the revisit rule needs
    visited: set[tuple] = set()
    incumbent: tuple = ()
    lower, upper = -np.inf, np.inf
    trace: list = []
    m = 0
    sol = None  # the last first-stage solution, whose search the next resumes
    nodes = pivots = 0

    while True:
        m += 1
        # the anchor's unit neighbours are evaluated exactly but get no cuts;
        # every evaluated action is feasible, so the best value is a lower bound
        cands = np.vstack([a_m, _neighbours(box, a_m)])
        values, recourse = _objectives(ctx, reward, cands)
        visited.add(tuple(int(v) for v in a_m))
        best = int(np.argmax(values))  # first maximum: ties keep the anchor
        if values[best] > lower:
            lower = float(values[best])
            incumbent = tuple(int(v) for v in cands[best])

        if m >= config.max_iterations:
            trace.append((m, lower, upper, a_m))
            break

        fp = fp.with_cuts(
            integer_optimality_cut(ctx, enc, a_m, eta_bar, float(recourse[0])),
            combined_cut(ctx, a_m) if use_combined else None)
        try:
            sol = solve_milp(fp.milp, tol=MILP_TOLERANCE, resume=sol)
        except (LpNumericalError, NodeLimitError) as err:
            return _fall_back(ctx, reward, f"first-stage MILP failed ({err})",
                              nodes, pivots)
        nodes += sol.node_count
        pivots += sol.lp_pivots
        if sol.status != "optimal":
            return _fall_back(ctx, reward, f"first-stage MILP status {sol.status}",
                              nodes, pivots)

        a_next = fp.decode_action(sol.x)
        key = tuple(int(v) for v in a_next)
        if key in visited:
            # the revisited anchor's integer cut makes its first-stage value
            # exact, so the incumbent is certified optimal
            upper = lower
            trace.append((m, lower, upper, a_m))
            break

        upper = min(upper, sol.bound + fp.constant_offset)
        trace.append((m, lower, upper, a_m))

        gap = upper - lower
        if gap <= config.gap_tolerance * max(abs(upper), config.gap_floor):
            break
        a_m = np.asarray(key, dtype=np.int64)

    return SelectionResult(
        action=np.asarray(incumbent, dtype=np.int64),
        objective=lower,
        upper_bound=upper,
        iterations=m,
        trace=np.array(trace, dtype=trace_dtype(box.dims)),
        milp_nodes=nodes,
        lp_pivots=pivots,
    )


def select_action(ctx: RecourseContext, reward: StageReward,
                  config: McdConfig) -> SelectionResult:
    """Select an action with the engine ``config.engine`` names."""
    if config.engine == "brute":
        return select_action_bruteforce(ctx, reward)
    return _decompose(ctx, reward, config, use_combined=config.engine == "mcd")
