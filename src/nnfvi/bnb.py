"""Branch-and-bound over binary variables with simplex LP relaxations.

The search maximizes only: a minimization is posed by negating ``c``.
Best-first node order on the relaxation bound, most-fractional branching
with lowest-index tie-breaks, and a defensive node cap.  Only the root LP
is solved by :func:`solve_lp`: cold, or re-optimized from the optimal root
of an LP that differs from it in the right-hand side alone (the ``start``
of :func:`solve_milp`).  A child fixes its parent's fractional,
hence basic, binary to 0 or 1; the parent's optimal basis stays dual
feasible, so the child re-optimizes from it with the dual simplex
(``_Tableau.reoptimize``), and a child whose dual simplex finds no entering
column is infeasible.  A node is its bound, basis, column values and binary
fixings, O(rows + columns) numbers.  A node's tableau is rebuilt from the
root's optimal tableau (the base) by pivoting in the columns the base basis
lacks: each expanded node is rebuilt once; its 1-child starts from a copy.
No working tableau outlives its node, so at most two besides the base hold a
MILP's memory at about what two cold solves need.  The base shares the
root's optimal tableau, which the solution keeps, unchanged, as ``root``.

A search is resumable, the branch-and-cut form of a cutting-plane method
such as Laporte & Louveaux's (1993) integer L-shaped method.  Every solution
carries its frontier: the base and every leaf, that is every node left
open, pruned by bound, found integral, or dropped because it could not beat
the incumbent (infeasible nodes, and nodes below the cutoff described
below, are gone for good).  Given that solution,
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
child.  A cold solve is the same loop started from the root as its one
stale leaf, filed as it stands unless a phase-1 artificial left basic sits
above its zero bound by more than the feasibility tolerance (phase 1 accepts
up to about 1e-7); such a root is re-optimized and counted as a node.

A caller may pass an objective cutoff, a value it has proved the optimum
reaches with room for round-off: a stale leaf, child or frontier leaf whose
bound lies below the cutoff is dropped wherever it appears, and the status
is 'infeasible' when no integral solution reaches it, so an optimum below
the cutoff shows as a failure, not as a wrong optimum.  Dropping such a
leaf is exact: until the optimum is the incumbent, some open node's bound
is at least the optimum, and after, a node is expanded only while its bound
beats the optimum, so best-first order never pops a leaf below the cutoff.
A dropped leaf is gone for good, so a chain of resumed searches stays
exact while each one's optimum reaches every cutoff passed before it.

Incumbents come only from integral relaxations: best-first order expands a
node only while its bound beats the optimum (up to the tolerance), so
seeding the optimum as the incumbent would save no expansion.  The solver
proves optimality to an absolute tolerance; the global bound after the root
and after each processed node is recorded so callers can audit monotone
convergence.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simplex import FEASIBILITY_TOL, LEQ, LpProblem, LpSolution, _Tableau, _unchecked, \
    solve_lp

DEFAULT_TOL = 1e-6
NODE_CAP = 100_000
INTEGRALITY_TOL = 1e-6


class NodeLimitError(RuntimeError):
    """Search exceeded the defensive node cap without proving optimality."""


@dataclass
class MilpProblem:
    """LP core, to be maximized, plus the indices of its {0, 1} variables."""

    lp: LpProblem
    binary_indices: Sequence[int]
    # the problem this one was grown from by with_rows, if any
    _parent: Optional[weakref.ref] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if not self.lp.maximize:
            raise ValueError("branch-and-bound maximizes only; pose a minimization "
                             "as the maximization of -c")
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
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("appended rows must be finite")
        # built field by field, not through the constructors, so that c,
        # the bounds and the binary indices are shared and validated once;
        # the rows differ, so no with_rhs origin carries over
        grown_lp = _unchecked(LpProblem, c=lp.c, A=np.vstack([lp.A, A]),
                              b=np.concatenate([lp.b, b]),
                              senses=lp.senses + [LEQ] * b.size, lower=lp.lower,
                              upper=lp.upper, maximize=lp.maximize)
        return _unchecked(MilpProblem, lp=grown_lp, binary_indices=self.binary_indices,
                          _parent=weakref.ref(self))


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
    bound_flips: int = 0  # the root's (j, j) pivots; a node's dual simplex flips none
    # the root LP's optimal solution when this call solved it, left as
    # solved, so that it may start another problem's root (solve_milp's start)
    root: Optional[LpSolution] = field(default=None, repr=False, compare=False)
    # the search's frontier, from which a solve with appended rows resumes
    _frontier: Optional[_Frontier] = field(default=None, repr=False, compare=False)


def _most_fractional(x: np.ndarray, binaries: Sequence[int]) -> Optional[int]:
    """The binary, among ``binaries`` in ascending order, farthest from an
    integer; ``solve_milp`` passes them as an index array made once."""
    values = x[binaries]
    fracs = np.minimum(values - np.floor(values), np.ceil(values) - values)
    best, best_frac = None, INTEGRALITY_TOL
    # ascending order makes the tie-break lowest-index
    for k, frac in enumerate(fracs.tolist()):
        if frac > best_frac + 1e-15:
            best, best_frac = k, frac
    return None if best is None else int(binaries[best])


def _flips(pivots: list) -> int:
    """How many of the ``(entering, leaving)`` pivots are bound flips."""
    return sum(enter == leave for enter, leave in pivots)


def _extended(frontier: _Frontier, p: MilpProblem,
              cutoff: float) -> tuple[Optional[_Tableau], list]:
    """The frontier's base and its leaves whose bound reaches ``cutoff``,
    with the rows ``p`` has beyond the frontier's problem appended."""
    if frontier.base is None:
        return None, []
    m, n = frontier.problem.lp.n_rows, p.lp.n_vars
    A, b = p.lp.A[m:], p.lp.b[m:]
    base = frontier.base.with_rows(A, b)
    slacks = np.arange(frontier.base.n, base.n)
    return base, [(bound, np.concatenate([basis, slacks]),
                   np.concatenate([x, b - A @ x[:n]]), fixings)
                  for bound, basis, x, fixings in frontier.leaves if bound >= cutoff]


def _bounds(base: _Tableau, fixings: tuple) -> tuple[np.ndarray, np.ndarray]:
    lower, upper = base.lower.copy(), base.upper.copy()
    for var, value in fixings:
        lower[var] = upper[var] = value
    return lower, upper


def solve_milp(p: MilpProblem, tol: float = DEFAULT_TOL,
               resume: Optional[MilpSolution] = None,
               cutoff: float = -np.inf,
               start: Optional[LpSolution] = None) -> MilpSolution:
    """Globally maximize the binary MILP within absolute tolerance ``tol``
    over the solutions whose objective reaches ``cutoff``.

    With ``resume``, a solution this function returned, ``p`` must be the
    problem ``resume`` solved or one grown from it by one
    :meth:`MilpProblem.with_rows` (else ValueError), and the search starts
    from ``resume``'s leaves.  Without ``resume``, or when ``resume``'s root
    LP was not optimal, the root LP is solved cold and its basis and values
    are the one leaf the search starts from.  Either way one loop files
    them.  The frontier moves on to the new solution, so that the old one's
    memory is freed before the search runs: a solution resumes once.

    A stale leaf, child or frontier leaf whose bound is below ``cutoff`` is
    dropped, and the status is 'infeasible' when no integral solution
    reaches it; see the module docstring for when that is exact.

    With ``start``, an optimal root LP solution of another problem whose LP
    ``p.lp`` was made from by :meth:`LpProblem.with_rhs` (else ValueError),
    such as another solution's ``root``, the root LP is re-optimized from it
    by the dual simplex (``solve_lp(p.lp, start)``) instead of being solved
    cold; ``start`` itself is left as it is, so it may start another
    problem.  A resumed search has its root already, so ``start`` and
    ``resume`` together raise ValueError.  The solution's ``root`` is the
    root LP's optimal solution whenever this call solved it.
    """
    n = p.lp.n_vars
    binaries = np.array(p.binary_indices, dtype=np.intp)
    base, stale = None, []
    if resume is not None and start is not None:
        raise ValueError("a resumed search has its root; it takes no start")
    if resume is not None:
        frontier = resume._frontier
        if frontier is None:
            raise ValueError("the solution to resume from carries no search; "
                             "a solution resumes once")
        parent = p._parent and p._parent()
        if frontier.problem is not p and frontier.problem is not parent:
            raise ValueError("a resumed problem must be the solved one or grown from "
                             "it by with_rows, which appends trailing '<=' rows")
        base, stale = _extended(frontier, p, cutoff)
        resume._frontier = None
    pivots = flips = 0
    root = None
    if base is None:  # nothing to resume: the root, solved cold or from
                      # start, is the one leaf
        root = solve_lp(p.lp, start)
        pivots, flips = len(root.pivots), _flips(root.pivots)
        if root.status != "optimal":
            return MilpSolution(status=root.status, lp_pivots=pivots,
                                bound_flips=flips, _frontier=_Frontier(p, None, []))
        # copies: the root's tableau lives on in the base
        tab = root._tableau
        if root.objective >= cutoff:
            stale = [(root.objective, tab.basis.copy(), tab.x.copy(), ())]
        base = tab.as_base()

    incumbent_x: Optional[np.ndarray] = None
    incumbent_val = -np.inf
    node_count = 0
    bound_trace: list[float] = []
    leaves: list[tuple] = []  # the frontier this call leaves behind
    # heap pops the largest relaxation bound first; an entry is (-bound, key,
    # bound, branch variable, basis, values, fixings), the branch variable
    # None for a stale leaf, one whose LP has not been re-optimized since
    # rows were appended (or, in a cold solve, the root)
    heap = [(-bound, key, bound, None, basis, x, fixings)
            for key, (bound, basis, x, fixings) in enumerate(stale)]
    heapq.heapify(heap)
    counter = len(heap)

    def settle(basis: np.ndarray, x: np.ndarray, fixings: tuple) -> None:
        """File a node whose LP is optimal at ``basis`` with column values
        ``x``, both kept as given, so the caller hands over arrays nothing
        else changes: drop it if its bound is below the cutoff, else push it
        to be branched on, or record it as a leaf (integral, and the
        incumbent if it beats it, or dominated)."""
        nonlocal incumbent_x, incumbent_val, counter
        sol_x = x[:n].copy()
        objective = float(p.lp.c @ sol_x)
        if objective < cutoff:
            return
        var = _most_fractional(sol_x, binaries)
        beats = objective > incumbent_val
        if beats and var is not None:
            counter += 1
            heapq.heappush(heap, (-objective, counter, objective, var, basis, x, fixings))
            return
        if beats:  # integral
            incumbent_x, incumbent_val = sol_x, objective
        leaves.append((objective, basis, x, fixings))

    def global_bound() -> float:
        return max(incumbent_val, heap[0][2]) if heap else incumbent_val

    def count_node() -> None:
        nonlocal node_count
        node_count += 1
        if node_count > NODE_CAP:
            raise NodeLimitError(
                f"exceeded {NODE_CAP} nodes; increase the cap or tighten the model"
            )

    while heap:
        _, _, bound, var, basis, x, fixings = heapq.heappop(heap)
        if bound <= incumbent_val + tol:
            leaves.append((bound, basis, x, fixings))
            bound_trace.append(global_bound())
            continue  # pruned by bound
        lower, upper = _bounds(base, fixings)
        if var is not None:
            children = (((var, 0.0),), ((var, 1.0),))
        else:  # a stale leaf: check it under the appended rows
            xb = x[basis]
            if ((xb >= lower[basis] - FEASIBILITY_TOL)
                    & (xb <= upper[basis] + FEASIBILITY_TOL)).all():
                settle(basis, x, fixings)  # still optimal: carried over as it is
                children = ()
            else:
                children = ((),)  # re-optimized under its own fixings
        if children:
            tab = base.rebased(basis, x, lower, upper)
            spare = tab.copy() if var is not None else None  # the 1-child's start
            for fixed in children:
                for v, value in fixed:
                    tab.lower[v] = tab.upper[v] = value
                count_node()
                status = tab.reoptimize()
                pivots += len(tab.pivots)
                if status == "optimal":  # the child's tableau is dropped next
                    settle(tab.basis, tab.x, fixings + fixed)
                tab = spare
        # the node is accounted for: the open cover shrank, record the bound
        bound_trace.append(global_bound())
        if heap and heap[0][2] <= incumbent_val + tol:
            break

    final_bound = global_bound()
    leaves.extend((entry[2], *entry[4:]) for entry in heap)
    frontier = _Frontier(p, base, leaves)
    if incumbent_x is None:
        return MilpSolution(status="infeasible", node_count=node_count,
                            bound_trace=bound_trace, lp_pivots=pivots,
                            bound_flips=flips, root=root, _frontier=frontier)
    return MilpSolution(
        status="optimal",
        objective=incumbent_val,
        x=incumbent_x,
        bound=final_bound,
        node_count=node_count,
        bound_trace=bound_trace,
        lp_pivots=pivots,
        bound_flips=flips,
        root=root,
        _frontier=frontier,
    )
