"""Branch-and-bound over binary variables with simplex LP relaxations.

Best-first node order on the relaxation bound, most-fractional branching
with lowest-index tie-breaks, and a defensive node cap.  Only the root LP
is solved cold, by :func:`solve_lp`.  A child fixes its parent's fractional,
hence basic, binary to 0 or 1; the parent's optimal basis stays dual
feasible, so the child re-optimizes from it with the dual simplex
(``_Tableau.reoptimize``), and a child whose dual simplex finds no entering
column is infeasible.  An open node is its basis, column values and bounds,
O(rows + columns) numbers.  Its children are solved one after the other in
one working tableau, each rebuilt from the root's optimal tableau by
pivoting in the columns the root basis lacks; only the 1-child's tableau is
kept, so that it is reused when that child is the next node expanded.  One
working tableau besides the root's holds a MILP's memory at what a single
cold solve needs.

Incumbents come only from integral relaxations: best-first order expands a
node only while its bound beats the optimum (up to the tolerance), so
seeding the optimum as the incumbent would save no expansion.  The solver
proves optimality to an absolute tolerance; the global bound after each
processed node is recorded so callers can audit monotone convergence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simplex import LpProblem, solve_lp

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


@dataclass
class MilpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: Optional[float] = None
    x: Optional[np.ndarray] = None
    bound: Optional[float] = None
    node_count: int = 0
    bound_trace: list = field(default_factory=list)
    lp_pivots: int = 0  # root and child simplex pivots, bound flips included


def _most_fractional(x: np.ndarray, binaries: Sequence[int]) -> Optional[int]:
    best_idx, best_frac = None, INTEGRALITY_TOL
    for i in binaries:  # ascending order makes the tie-break lowest-index
        frac = min(x[i] - np.floor(x[i]), np.ceil(x[i]) - x[i])
        if frac > best_frac + 1e-15:
            best_idx, best_frac = i, frac
    return best_idx


def solve_milp(p: MilpProblem, tol: float = DEFAULT_TOL) -> MilpSolution:
    """Globally solve the binary MILP within absolute tolerance ``tol``."""
    sense = 1.0 if p.lp.maximize else -1.0

    def better(a: float, b: float) -> bool:
        return sense * a > sense * b

    root = solve_lp(p.lp)
    pivots = len(root.pivots)
    if root.status == "infeasible":
        return MilpSolution(status="infeasible", lp_pivots=pivots)
    if root.status == "unbounded":
        return MilpSolution(status="unbounded", lp_pivots=pivots)

    branch_var = _most_fractional(root.x, p.binary_indices)
    if branch_var is None:
        return MilpSolution(
            status="optimal", objective=root.objective, x=root.x,
            bound=root.objective, node_count=0, bound_trace=[root.objective],
            lp_pivots=pivots,
        )

    incumbent_x: Optional[np.ndarray] = None
    incumbent_val = -sense * np.inf
    node_count = 0
    bound_trace: list[float] = []
    n = p.lp.n_vars
    root_tab = root._tableau.as_base()

    # heap orders by worst-case-first on the relaxation bound (max: largest
    # first); each entry carries its node's basis, column values and bounds
    counter = 0
    heap: list[tuple] = [(-sense * root.objective, counter, root.objective, branch_var,
                          root_tab.basis, root_tab.x, root_tab.lower, root_tab.upper)]
    kept_key, kept = None, None  # the last expansion's pushed 1-child and its tableau

    def global_bound() -> float:
        best_open = heap[0][2] if heap else None
        if best_open is None:
            return incumbent_val
        if incumbent_x is None:
            return best_open
        return best_open if better(best_open, incumbent_val) else incumbent_val

    while heap:
        _, key, parent_bound, var, basis, x, lower, upper = heapq.heappop(heap)
        if incumbent_x is not None and not better(parent_bound, incumbent_val + sense * tol):
            bound_trace.append(global_bound())
            continue  # pruned by bound
        # the 0-child works in the kept tableau when this node is the 1-child
        # pushed last; every other child starts from a rebuild at the parent
        tab = kept if key == kept_key else None
        kept_key = kept = None
        for value in (0.0, 1.0):
            if tab is None:
                tab = root_tab.rebased(basis, x, lower, upper)
            tab.lower[var] = tab.upper[var] = value
            node_count += 1
            if node_count > NODE_CAP:
                raise NodeLimitError(
                    f"exceeded {NODE_CAP} nodes; increase the cap or tighten the model"
                )
            status = tab.reoptimize()
            pivots += len(tab.pivots)
            if status == "optimal":
                sol_x = tab.x[:n].copy()
                objective = float(p.lp.c @ sol_x)
                if incumbent_x is None or better(objective, incumbent_val):
                    nxt = _most_fractional(sol_x, p.binary_indices)
                    if nxt is None:
                        incumbent_x = sol_x
                        incumbent_val = objective
                    else:
                        counter += 1
                        heapq.heappush(heap, (-sense * objective, counter, objective, nxt,
                                              tab.basis.copy(), tab.x.copy(),
                                              tab.lower.copy(), tab.upper.copy()))
                        if value == 1.0:
                            kept_key, kept = counter, tab
            tab = None  # released before the 1-child's tableau is rebuilt
        # both children accounted for: the open cover shrank, record the bound
        bound_trace.append(global_bound())
        if incumbent_x is not None and heap and not better(heap[0][2], incumbent_val + sense * tol):
            break

    final_bound = global_bound()
    if incumbent_x is None:
        return MilpSolution(status="infeasible", node_count=node_count,
                            bound_trace=bound_trace, lp_pivots=pivots)
    return MilpSolution(
        status="optimal",
        objective=incumbent_val,
        x=incumbent_x,
        bound=final_bound,
        node_count=node_count,
        bound_trace=bound_trace,
        lp_pivots=pivots,
    )
