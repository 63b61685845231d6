"""Branch-and-bound over binary variables with simplex LP relaxations.

Best-first node order on the relaxation bound, most-fractional branching
with lowest-index tie-breaks, and a defensive node cap.  Only the root LP
is solved cold, by :func:`solve_lp`.  A child fixes its parent's fractional,
hence basic, binary to 0 or 1; the parent's optimal basis stays dual
feasible, so the child re-optimizes from it with the dual simplex
(``_Tableau.reoptimize``), and a child whose dual simplex finds no entering
column is infeasible.  A node is its bound, basis, column values and binary
fixings, O(rows + columns) numbers.  Its children are solved one after the
other in one working tableau, each rebuilt from the root's optimal tableau
(the base) by pivoting in the columns the base basis lacks; only the
1-child's tableau is kept, so that it is reused when that child is the next
node expanded.  One working tableau besides the base holds a MILP's memory
at what a single cold solve needs.

A search is resumable, the branch-and-cut form of a cutting-plane method
such as Laporte & Louveaux's (1993) integer L-shaped method.  Every solution
carries its frontier: the base and every leaf, that is every node left
open, pruned by bound, found integral, or dropped because it could not beat
the incumbent (infeasible nodes are gone for good).  Given that solution,
:func:`solve_milp` solves the same problem or one grown from it by
:meth:`MilpProblem.with_rows`, which refers weakly to the problem it grew
from: the new rows are appended to the base (``_Tableau.with_rows``), each
leaf gains the new slacks' values, and every leaf is pushed with its old
bound, which stays valid because rows only tighten the problem.  A popped
leaf whose old bound still beats the incumbent and whose basic values, the
new slacks included, all lie within their bounds is primal and dual
feasible, so still optimal: it is filed from its stored basis and values as
it stands, with no rebuild, no pivot and no node counted.  Any other popped
leaf is rebuilt and re-optimized by the dual simplex, then filed like a new
child.  A cold solve is the same loop started from the root alone.

Incumbents come only from integral relaxations: best-first order expands a
node only while its bound beats the optimum (up to the tolerance), so
seeding the optimum as the incumbent would save no expansion.  The solver
proves optimality to an absolute tolerance; the global bound after the root
and after each processed node is recorded so callers can audit monotone
convergence.
"""

from __future__ import annotations

import copy
import heapq
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simplex import FEASIBILITY_TOL, LEQ, LpProblem, _Tableau, solve_lp

DEFAULT_TOL = 1e-6
NODE_CAP = 100_000
INTEGRALITY_TOL = 1e-6


class NodeLimitError(RuntimeError):
    """Search exceeded the defensive node cap without proving optimality."""


@dataclass
class MilpProblem:
    """LP core plus the indices of variables restricted to {0, 1}."""

    lp: LpProblem
    binary_indices: Sequence[int]
    # the problem this one was grown from by with_rows, if any
    _parent: Optional[weakref.ref] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        idx = sorted(int(i) for i in self.binary_indices)
        n = self.lp.n_vars
        for i in idx:
            if not 0 <= i < n:
                raise ValueError(f"binary index {i} outside variable range 0..{n - 1}")
            if self.lp.lower[i] < -1e-12 or self.lp.upper[i] > 1.0 + 1e-12:
                raise ValueError(
                    f"binary variable {i} must have bounds within [0, 1], got "
                    f"[{self.lp.lower[i]}, {self.lp.upper[i]}]"
                )
        self.binary_indices = idx

    def with_rows(self, A: np.ndarray, b: np.ndarray) -> "MilpProblem":
        """This problem with the rows ``A @ x <= b`` appended; only the new
        rows are validated.  The result refers to this problem weakly, so it
        does not keep it alive, and :func:`solve_milp` may resume on it."""
        lp = self.lp
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        if b.ndim != 1 or A.shape != (b.size, lp.n_vars):
            raise ValueError(f"rows {A.shape} and right-hand sides {b.shape} do not "
                             f"fit {lp.n_vars} columns")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("appended rows must be finite")
        grown = copy.copy(self)
        grown.lp = copy.copy(lp)  # shares c and the bounds, validated once
        grown.lp.A, grown.lp.b = np.vstack([lp.A, A]), np.concatenate([lp.b, b])
        grown.lp.senses = lp.senses + [LEQ] * b.size
        grown._parent = weakref.ref(self)
        return grown


@dataclass
class _Frontier:
    """Where a search stopped: the problem it solved, the root's optimal
    tableau as a base (None when the root LP was not optimal), and the
    leaves as (bound, basis, column values, binary fixings) tuples, the
    fixings a tuple of (variable, value) pairs."""

    problem: MilpProblem
    base: Optional[_Tableau]
    leaves: list


@dataclass
class MilpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: Optional[float] = None
    x: Optional[np.ndarray] = None
    bound: Optional[float] = None
    node_count: int = 0  # node LPs solved in this call, not leaves carried over unchanged
    bound_trace: list = field(default_factory=list)
    lp_pivots: int = 0  # root and node simplex pivots, bound flips included
    # the search's frontier, from which a solve with appended rows resumes
    _frontier: Optional[_Frontier] = field(default=None, repr=False, compare=False)


def _most_fractional(x: np.ndarray, binaries: Sequence[int]) -> Optional[int]:
    best_idx, best_frac = None, INTEGRALITY_TOL
    for i in binaries:  # ascending order makes the tie-break lowest-index
        frac = min(x[i] - np.floor(x[i]), np.ceil(x[i]) - x[i])
        if frac > best_frac + 1e-15:
            best_idx, best_frac = i, frac
    return best_idx


def _extended(frontier: _Frontier, p: MilpProblem) -> tuple[Optional[_Tableau], list]:
    """The frontier's base and leaves with the rows ``p`` has beyond the
    frontier's problem appended."""
    if frontier.base is None:
        return None, []
    m, n = frontier.problem.lp.n_rows, p.lp.n_vars
    A, b = p.lp.A[m:], p.lp.b[m:]
    base = frontier.base.with_rows(A, b)
    slacks = np.arange(frontier.base.n, base.n)
    return base, [(bound, np.concatenate([basis, slacks]),
                   np.concatenate([x, b - A @ x[:n]]), fixings)
                  for bound, basis, x, fixings in frontier.leaves]


def _bounds(base: _Tableau, fixings: tuple) -> tuple[np.ndarray, np.ndarray]:
    lower, upper = base.lower.copy(), base.upper.copy()
    for var, value in fixings:
        lower[var] = upper[var] = value
    return lower, upper


def solve_milp(p: MilpProblem, tol: float = DEFAULT_TOL,
               resume: Optional[MilpSolution] = None) -> MilpSolution:
    """Globally solve the binary MILP within absolute tolerance ``tol``.

    With ``resume``, a solution this function returned, ``p`` must be the
    problem ``resume`` solved or one grown from it by one
    :meth:`MilpProblem.with_rows` (else ValueError), and the search
    continues from ``resume``'s leaves instead of the root.
    The frontier moves on to the new solution, so that the old one's memory
    is freed before the search runs: a solution resumes once.
    """
    sense = 1.0 if p.lp.maximize else -1.0
    n = p.lp.n_vars
    binaries = p.binary_indices

    def better(a: float, b: float) -> bool:
        return sense * a > sense * b

    base, stale = None, []
    if resume is not None:
        frontier = resume._frontier
        if frontier is None:
            raise ValueError("the solution to resume from carries no search; "
                             "a solution resumes once")
        parent = p._parent and p._parent()
        if frontier.problem is not p and frontier.problem is not parent:
            raise ValueError("a resumed problem must be the solved one or grown from "
                             "it by with_rows, which appends trailing '<=' rows")
        base, stale = _extended(frontier, p)
        resume._frontier = None
    pivots = 0
    root = None
    if base is None:
        root = solve_lp(p.lp)
        pivots = len(root.pivots)
        if root.status != "optimal":
            return MilpSolution(status=root.status, lp_pivots=pivots,
                                _frontier=_Frontier(p, None, []))
        base = root._tableau.as_base()

    incumbent_x: Optional[np.ndarray] = None
    incumbent_val = -sense * np.inf
    node_count = 0
    bound_trace: list[float] = []
    leaves: list[tuple] = []  # the frontier this call leaves behind
    # heap orders by worst-case-first on the relaxation bound (max: largest
    # first); an entry is (priority, key, bound, branch variable, basis,
    # values, fixings), the branch variable None for a stale leaf, one whose
    # LP has not been re-optimized since rows were appended
    heap = [(-sense * bound, key, bound, None, basis, x, fixings)
            for key, (bound, basis, x, fixings) in enumerate(stale)]
    heapq.heapify(heap)
    counter = len(heap)

    def settle(basis: np.ndarray, x: np.ndarray, fixings: tuple) -> bool:
        """File a node whose LP is optimal at ``basis`` with column values
        ``x``, both kept as given; True if it was pushed to be branched on."""
        nonlocal incumbent_x, incumbent_val, counter
        sol_x = x[:n].copy()
        objective = float(p.lp.c @ sol_x)
        var = _most_fractional(sol_x, binaries)
        beats = incumbent_x is None or better(objective, incumbent_val)
        if beats and var is not None:
            counter += 1
            heapq.heappush(heap, (-sense * objective, counter, objective, var,
                                  basis, x, fixings))
            return True
        if beats:  # integral
            incumbent_x, incumbent_val = sol_x, objective
        leaves.append((objective, basis, x, fixings))
        return False

    def global_bound() -> float:
        best_open = heap[0][2] if heap else None
        if best_open is None:
            return incumbent_val
        if incumbent_x is None:
            return best_open
        return best_open if better(best_open, incumbent_val) else incumbent_val

    def count_node() -> None:
        nonlocal node_count
        node_count += 1
        if node_count > NODE_CAP:
            raise NodeLimitError(
                f"exceeded {NODE_CAP} nodes; increase the cap or tighten the model"
            )

    if root is not None:
        settle(root._tableau.basis.copy(), root._tableau.x.copy(), ())
        bound_trace.append(global_bound())
    kept_key, kept = None, None  # the last pushed node and its tableau
    while heap:
        _, key, bound, var, basis, x, fixings = heapq.heappop(heap)
        if incumbent_x is not None and not better(bound, incumbent_val + sense * tol):
            leaves.append((bound, basis, x, fixings))
            bound_trace.append(global_bound())
            continue  # pruned by bound
        # a node works in the kept tableau when it is the node pushed last;
        # every other one starts from a rebuild at its basis
        tab = kept if key == kept_key else None
        kept_key = kept = None
        if var is None:  # a stale leaf: check it under the appended rows
            lower, upper = _bounds(base, fixings)
            xb = x[basis]
            if np.all((xb >= lower[basis] - FEASIBILITY_TOL)
                      & (xb <= upper[basis] + FEASIBILITY_TOL)):
                settle(basis, x, fixings)  # still optimal: carried over as it is
            else:
                tab = base.rebased(basis, x, lower, upper)  # never the kept one
                count_node()
                status = tab.reoptimize()
                pivots += len(tab.pivots)
                if status == "optimal" and settle(tab.basis.copy(), tab.x.copy(), fixings):
                    kept_key, kept = counter, tab
        else:
            for value in (0.0, 1.0):
                if tab is None:
                    tab = base.rebased(basis, x, *_bounds(base, fixings))
                tab.lower[var] = tab.upper[var] = value
                count_node()
                status = tab.reoptimize()
                pivots += len(tab.pivots)
                if (status == "optimal"
                        and settle(tab.basis.copy(), tab.x.copy(), fixings + ((var, value),))
                        and value == 1.0):
                    kept_key, kept = counter, tab
                tab = None  # released before the 1-child's tableau is rebuilt
        # the node is accounted for: the open cover shrank, record the bound
        bound_trace.append(global_bound())
        if incumbent_x is not None and heap and not better(heap[0][2], incumbent_val + sense * tol):
            break

    final_bound = global_bound()
    leaves.extend((entry[2], *entry[4:]) for entry in heap)
    frontier = _Frontier(p, base, leaves)
    if incumbent_x is None:
        return MilpSolution(status="infeasible", node_count=node_count,
                            bound_trace=bound_trace, lp_pivots=pivots,
                            _frontier=frontier)
    return MilpSolution(
        status="optimal",
        objective=incumbent_val,
        x=incumbent_x,
        bound=final_bound,
        node_count=node_count,
        bound_trace=bound_trace,
        lp_pivots=pivots,
        _frontier=frontier,
    )
