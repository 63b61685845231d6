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

The upper bound starts at the box bound before any cut: the stage reward's
maximum over the integer box plus the discounted recourse bound and output
bias (:meth:`StageReward.box_bound`), the first-stage bound that Laporte
& Louveaux's method starts from.  The stop rule is tested whenever a bound
moves: after each anchor's exact evaluation (the lower bound) and after each
master (the upper bound).  The multi-cut engine also tests it, before each
master, on the same kind of bound for the iteration's combined cut: the
reward plus the discounted cut is separable and concave per dimension, so
its maximum over the integer box (``box_bound`` with the cut's coefficients
as the gain) bounds the optimum with no LP.  When that bound closes the gap
it becomes the upper bound and no master is solved; the master, which holds
the cut over the same box, would have closed the gap too, with the same
incumbent.  Like the neighbour step, this test is not part of the paper's
MCD.  The first-stage MILP is built only when the first master is needed,
so a selection that the box bound already certifies at the zero action,
such as a terminal period's with its zero continuation, solves no MILP.

Both decomposition engines pass each master an objective cutoff: the
incumbent's exact value (the lower bound) less the first stage's constant
offset and a round-off margin of ``CUTOFF_MARGIN`` times ``max(1,
|lower|)``.  Every master over-estimates the objective over the same box,
so no master's optimum falls below it, and the branch-and-bound leaves
bounded below it, which best-first search would never expand, are dropped
instead of being carried from master to master.  Every selection, node and
pivot count is the same as without the cutoff; a master that found no
solution above it would be a solver fault and falls back to brute force.

A context can carry a memo that it shares with its siblings, the contexts
of other states with the same transition rows
(:meth:`~nnfvi.cuts.RecourseContext.sibling`); the FVI driver and the
greedy policy build them, one group per period and multiset of transition
rows.  Through it the recourse bound, the recourse values at each array of
candidates (an anchor with its neighbours, or brute force's enumeration)
and the combined cut at each anchor are computed once per group, and the
group's first root LP of a first master is kept.  Every first master's
cuts sit at the zero anchor and depend on the recourse alone, and the
reward pieces' slopes hold no state, so a sibling's first master differs
from the group's first one in the reward pieces' right-hand sides alone:
when ``c``, ``A``, the senses and the bounds are equal, its root LP is that
one's :meth:`~nnfvi.simplex.LpProblem.with_rhs`, re-optimized from its
optimal basis by the dual simplex, and otherwise solved cold.  A warm root
may end at another optimal basis, so a sibling's node and pivot counts and,
by round-off, its upper bound may differ from a fresh context's.  A context
without a memo, as every context built any other way, computes everything
itself.

The stage reward has one representation, :class:`StageReward`: separable
concave pieces per action dimension.  Brute force and the exact anchor
evaluations compute it with :meth:`StageReward.values`, and the first-stage
MILP encodes the same pieces as rows.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Optional

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
from .mdp import ENUMERATION_CAP, ActionBox, as_integers, enumerate_actions
from .simplex import LEQ, LpNumericalError, LpProblem, LpSolution

ENGINES = ("mcd", "brute", "lshaped")
MILP_TOLERANCE = 1e-9  # the first stage's pruning and stopping tolerance; its
                       # integrality tolerance is bnb.INTEGRALITY_TOL
CUTOFF_MARGIN = 1e-6   # the masters' objective cutoff lies this far, relative to
                       # the lower bound, below it, for round-off; well above
                       # MILP_TOLERANCE, so the search it cuts off is never run


@dataclass(frozen=True)
class McdConfig:
    """Decomposition controls; the default stop rule is 0.35% gap or 100 steps."""

    max_iterations: int = 100
    gap_tolerance: float = 0.0035
    engine: str = "mcd"
    gap_floor: ClassVar[float] = 1e-6  # denominator floor for the relative gap

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

    def gap_closed(self, lower: float, upper: float) -> bool:
        """The stop rule: the relative gap between the bounds is within
        ``gap_tolerance``."""
        return upper - lower <= self.gap_tolerance * max(abs(upper), self.gap_floor)

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

    @functools.cached_property
    def _arrays(self) -> list:
        """``(n, slopes, intercepts)`` for each dimension ``n`` with pieces,
        built on first use; a cached attribute, so equality and ``repr``
        leave it out."""
        return [(n, *np.asarray(dim_pieces, dtype=float).T)
                for n, dim_pieces in enumerate(self.pieces) if dim_pieces]

    def values(self, actions: np.ndarray) -> np.ndarray:
        """Reward at every row of the ``(count, dims)`` array ``actions``."""
        actions = np.asarray(actions, dtype=float)
        total = np.full(len(actions), float(self.constant))
        for n, slopes, icepts in self._arrays:
            total += (np.multiply.outer(actions[:, n], slopes) + icepts).min(axis=1)
        return total

    def box_bound(self, upper_bounds: np.ndarray) -> Callable[..., float]:
        """The function ``gain=None -> max over the integer box [0,
        upper_bounds] of values(a) + gain @ a``, computed without
        enumerating the box.

        A dimension's concave contribution plus a linear term peaks over
        its integers at an end or at a floor or ceiling of a point where two
        pieces cross: its candidate levels.  A dimension without pieces has
        ``0`` and its upper bound, each contributing ``-0.0``, which leaves
        any sum unchanged.  The levels and the reward at each are computed
        once, here, so that a selection bounds every cut it builds with one
        array pass.  The bound adds each dimension's maximum to the constant
        in dimension order; rounding is monotone, so without a gain it is the
        maximum of :meth:`values` over the box bit for bit.
        """
        pieces = {n: (slopes, icepts) for n, slopes, icepts in self._arrays}
        levels, contributions = [], []
        for n, top in enumerate(np.asarray(upper_bounds, dtype=float)):
            if n not in pieces:
                levels.append(np.array([0.0, top]))
                contributions.append(np.array([-0.0, -0.0]))
                continue
            slopes, icepts = pieces[n]
            with np.errstate(divide="ignore", invalid="ignore"):
                # pieces i and j cross at (icept_j - icept_i) / (slope_i - slope_j)
                cross = ((icepts - icepts[:, None])
                         / (slopes[:, None] - slopes)).ravel()
            cross = cross[(cross > 0) & (cross < top)]
            levels.append(np.concatenate([[0.0, top], np.floor(cross), np.ceil(cross)]))
            contributions.append(
                (np.multiply.outer(levels[-1], slopes) + icepts).min(axis=1))
        sizes = [len(points) for points in levels]
        dims = np.repeat(np.arange(len(sizes)), sizes)
        starts = np.cumsum([0] + sizes[:-1])
        levels, contributions = np.concatenate(levels), np.concatenate(contributions)
        constant = float(self.constant)

        def bound(gain: Optional[np.ndarray] = None) -> float:
            values = contributions if gain is None else \
                contributions + np.asarray(gain, dtype=float)[dims] * levels
            total = constant
            for peak in np.maximum.reduceat(values, starts).tolist():
                total += peak  # in dimension order
            return total

        return bound


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
    upper_bound: float        # bound on the optimum: the box bound (reward's
                              # integer-box maximum, box_bound, plus the
                              # discounted recourse bound and output bias),
                              # tightened by each master solved, or by the
                              # combined cut's box bound when that closes
                              # the gap (mcd only); brute's is its objective
    iterations: int
    trace: np.ndarray         # one trace_dtype record per iteration:
                              # iteration, lower, upper, anchor action
    fell_back: bool = False   # a decomposition engine's MILP failed, so this
                              # is the brute-force result
    milp_nodes: int = 0       # B&B nodes, LP pivots and the bound flips
    lp_pivots: int = 0        # among those pivots, summed over the
    bound_flips: int = 0      # selection's first-stage MILPs (0 for brute)

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
        return self.encoding.decode(x[: self.encoding.total_bits])

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


def _memoized(ctx: RecourseContext, key: tuple, compute: Callable):
    """``compute()``, which must depend on ``ctx``'s recourse alone: kept
    in ``ctx.memo`` under ``key`` and read back from it, so that a group of
    sibling contexts computes it once, or computed on every call when the
    context has no memo."""
    memo = ctx.memo
    if memo is None:
        return compute()
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _objectives(ctx: RecourseContext, reward: StageReward,
                actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact objective and recourse value at every row of the integer array
    ``actions``; the recourse values are memoized on the rows' bytes."""
    gamma = ctx.spec.discount
    recourse = _memoized(ctx, ("values", actions.tobytes()),
                         lambda: recourse_values(ctx, actions))
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


@functools.cache
def _unit_steps(dims: int) -> np.ndarray:
    """The ``+e_n`` steps, then the ``-e_n`` steps, as read-only rows."""
    eye = np.eye(dims, dtype=np.int64)
    steps = np.vstack([eye, -eye])
    steps.flags.writeable = False
    return steps


def _neighbours(box: ActionBox, a: np.ndarray) -> np.ndarray:
    """Actions one unit away from ``a`` in one coordinate, inside the box."""
    cand = a + _unit_steps(box.dims)
    return cand[((cand >= 0) & (cand <= box.upper_bounds)).all(axis=1)]


def _fall_back(ctx: RecourseContext, reward: StageReward, failure: Exception,
               milp_nodes: int, lp_pivots: int, bound_flips: int) -> SelectionResult:
    """Brute-force result marked ``fell_back``, with a RuntimeWarning naming
    ``failure``, the first-stage MILP's error; it keeps the counters of the
    MILPs solved before the failure.  A box above ``ENUMERATION_CAP``
    actions leaves no brute force to fall back on, so ``failure`` itself is
    raised there, with no warning."""
    if ctx.spec.action_box.count() > ENUMERATION_CAP:
        raise failure
    warnings.warn(f"first-stage MILP failed ({failure}); falling back to brute force",
                  RuntimeWarning)
    return replace(select_action_bruteforce(ctx, reward), fell_back=True,
                   milp_nodes=milp_nodes, lp_pivots=lp_pivots, bound_flips=bound_flips)


_FIRST_ROOT = ("first root",)  # memo key: a group's first root LP and its solution


def _sibling_start(ctx: RecourseContext,
                   fp: FirstStage) -> tuple[FirstStage, Optional[LpSolution]]:
    """``fp``, a first master, and the optimal root to start its root LP
    from: the group's first root, kept in ``ctx.memo``, when its LP differs
    from ``fp``'s in the right-hand side alone, with ``fp`` rebuilt on that
    LP by :meth:`LpProblem.with_rhs`; else ``fp`` and None, a cold root.

    A sibling's first master holds the same rows as the group's first one
    but for the reward pieces' right-hand sides, which hold the state, so
    the dual simplex re-optimizes it from that root's optimal basis."""
    first = None if ctx.memo is None else ctx.memo.get(_FIRST_ROOT)
    if first is None:
        return fp, None
    lp, root = first
    own = fp.milp.lp
    if not (np.array_equal(lp.A, own.A) and np.array_equal(lp.c, own.c)
            and lp.senses == own.senses and np.array_equal(lp.lower, own.lower)
            and np.array_equal(lp.upper, own.upper)):
        return fp, None
    milp = MilpProblem(lp=lp.with_rhs(own.b), binary_indices=fp.milp.binary_indices)
    return replace(fp, milp=milp), root


def _decompose(ctx: RecourseContext, reward: StageReward, config: McdConfig,
               use_combined: bool) -> SelectionResult:
    """Multi-cut decomposition (integer optimality plus combined cuts) or,
    without ``use_combined``, the integer L-shaped method; both start from
    the zero action and from the box bound as the upper bound.  The stop
    rule is tested after each anchor, on the combined cut's box bound
    before each master (multi-cut only), and after each master.  The first
    stage is built, without cuts, when the first master is needed; each
    iteration appends its own cut rows and resumes the previous iteration's
    branch-and-bound search."""
    box = ctx.spec.action_box
    gamma = ctx.spec.discount
    a_m = np.zeros(box.dims, dtype=np.int64)
    eta_bar = _memoized(ctx, ("bound",), lambda: recourse_upper_bound(ctx))
    fp = None  # the first stage, built when the first master is needed

    # anchors only: each carries an integer cut, which the revisit rule needs
    visited: set[tuple] = set()
    incumbent: tuple = ()
    lower = -np.inf
    box_bound = reward.box_bound(box.upper_bounds)
    upper = box_bound() + gamma * eta_bar + gamma * ctx.net.output_bias
    trace: list = []
    m = 0
    sol = None  # the last first-stage solution, whose search the next resumes
    nodes = pivots = flips = 0

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

        if config.gap_closed(lower, upper) or m >= config.max_iterations:
            trace.append((m, lower, upper, a_m))
            break

        cut = _memoized(ctx, ("cut", a_m.tobytes()),
                        lambda: combined_cut(ctx, a_m)) if use_combined else None
        if cut is not None:
            # reward + gamma * cut is separable, so its integer-box maximum
            # bounds the optimum with no LP; when that closes the gap, so
            # would the master, which holds the cut over the same box
            cut_bound = (box_bound(gamma * cut.coef) + gamma * cut.const
                         + gamma * ctx.net.output_bias)
            if config.gap_closed(lower, min(upper, cut_bound)):
                upper = min(upper, cut_bound)
                trace.append((m, lower, upper, a_m))
                break

        if fp is None:
            fp = build_first_stage(ctx, binary_encoding(box), reward, eta_bar)
        fp = fp.with_cuts(
            integer_optimality_cut(ctx, fp.encoding, a_m, eta_bar, float(recourse[0])),
            cut)
        start = None
        if m == 1:  # the first master: a sibling's starts from its group's first
            fp, start = _sibling_start(ctx, fp)
        # every master over-estimates the objective, so none has its optimum
        # below the incumbent's exact value: a leaf bounded below that, less
        # the constant offset and a round-off margin, is never expanded again
        cutoff = lower - fp.constant_offset - CUTOFF_MARGIN * max(1.0, abs(lower))
        try:
            sol = solve_milp(fp.milp, tol=MILP_TOLERANCE, resume=sol, cutoff=cutoff,
                             start=start)
        except (LpNumericalError, NodeLimitError) as err:
            return _fall_back(ctx, reward, err, nodes, pivots, flips)
        nodes += sol.node_count
        pivots += sol.lp_pivots
        flips += sol.bound_flips
        if sol.status != "optimal":
            return _fall_back(ctx, reward,
                              RuntimeError(f"first-stage MILP status {sol.status}"),
                              nodes, pivots, flips)
        if m == 1 and ctx.memo is not None:  # the group's first root is kept
            ctx.memo.setdefault(_FIRST_ROOT, (fp.milp.lp, sol.root))

        a_next = fp.decode_action(sol.x)
        key = tuple(int(v) for v in a_next)
        if key in visited:
            # the revisited anchor's integer cut makes its first-stage value
            # exact, so the incumbent is certified optimal
            upper = lower
            trace.append((m, lower, upper, a_m))
            break

        # the first master's bound replaces the box bound, which it can
        # exceed only by round-off and the pruning tolerance: the master
        # is solved over the same integer box
        bound = sol.bound + fp.constant_offset
        upper = bound if m == 1 else min(upper, bound)
        trace.append((m, lower, upper, a_m))
        if config.gap_closed(lower, upper):
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
        bound_flips=flips,
    )


def select_action(ctx: RecourseContext, reward: StageReward,
                  config: McdConfig) -> SelectionResult:
    """Select an action with the engine ``config.engine`` names."""
    if config.engine == "brute":
        return select_action_bruteforce(ctx, reward)
    return _decompose(ctx, reward, config, use_combined=config.engine == "mcd")
