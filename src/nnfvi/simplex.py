"""Dense two-phase bounded-variable primal simplex for small linear programs.

Supports max/min objectives, row senses <=, =, >=, and general variable
bounds (free, one-sided, boxed and fixed).  Bounds stay implicit: no
variable is shifted, reflected or split and no bound becomes a row.  Each
row ``a_i @ x + s_i = b_i`` gets one slack whose bounds encode its sense
(``<=``: ``s_i >= 0``, ``>=``: ``s_i <= 0``, ``=``: ``s_i = 0``), and every
non-basic variable sits at one of its finite bounds (a free one at zero).

The start basis is the slacks, except on rows whose slack cannot absorb
the starting residual; those get an artificial with coefficient +-1, so the
start basis is a signed identity and needs no inversion.  Phase 1 drives
the artificials to zero and then fixes them there, so an artificial left
basic on a redundant row stays at zero and the row needs no deletion.

Pivoting follows Bland's smallest-index rule in both phases, so the pivot
sequence is deterministic for a given problem.  An entering variable that
reaches its opposite bound before any basic variable blocks it flips bound
without a basis change, recorded in ``pivots`` as ``(j, j)``.  The tableau
is rebuilt from the basis every ``REFACTOR_EVERY`` pivots to cap
accumulated round-off.

An optimal tableau also re-optimizes after its bounds tighten, which is how
branch-and-bound solves its children (Koberstein 2005, *The dual simplex
method, techniques for a fast and stable implementation*).  Tightening the
bounds of a basic variable keeps the basis dual feasible, so a bounded
dual simplex restores primal feasibility: the basic variable with the
smallest index among those outside their bounds leaves at the bound it
breaks, and the column entering is the one with the smallest ratio
``|d_j / alpha_rj|`` among the columns that can move the right way, ties to
the lowest index.  No column able to enter proves the tightened problem
infeasible.  A tableau can also be moved to another basis by pivoting in
the columns it lacks, so a caller may keep a node as its basis, values and
bounds instead of the whole tableau.  Appending ``<=`` rows to such a base,
each with a new basic slack, keeps every stored basis dual feasible, so
the same dual simplex re-optimizes a node after cuts are added.  The dual
simplex stops as soon as every basic value is within its bounds: its ratio
test keeps every reduced cost of the right sign, so the basis is optimal
there with no re-price, and the tests check that a re-price would take no
pivot.

The same dual simplex re-optimizes an LP for a new right-hand side
(Koberstein 2005, again): ``c``, ``A``, the senses and the bounds are kept,
so every reduced cost is kept and an optimal basis stays dual feasible.
:meth:`LpProblem.with_rhs` makes such a problem, and :func:`solve_lp` given
an optimal solution of the problem it came from copies that solution's
tableau, keeps the non-basic columns at their bounds, sets the basic values
to ``B^-1 (b - N x_N)`` with ``B^-1`` read off the tableau's slack columns,
and runs the dual simplex from there.  No column enters unless a basic value
breaks its bounds, and a problem without a solution shows as a row that no
column can repair, so the status is 'optimal' or 'infeasible', never
'unbounded'.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
REFACTOR_EVERY = 100
MAX_PIVOTS = 50_000

LEQ, EQ, GEQ = "<=", "=", ">="


class LpNumericalError(RuntimeError):
    """Basis became numerically singular and refactorization failed."""


@dataclass
class LpProblem:
    """``max/min c @ x`` subject to row constraints and variable bounds."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: Sequence[str]
    lower: np.ndarray
    upper: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.A = np.asarray(self.A, dtype=float).reshape(-1, n) if n else np.zeros((0, 0))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.senses = list(self.senses)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        m = self.A.shape[0]
        if self.b.shape != (m,) or len(self.senses) != m:
            raise ValueError("row data (A, b, senses) disagree in length")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must match the variable count")
        if not np.all((self.lower <= self.upper) & (self.lower < np.inf)
                      & (self.upper > -np.inf)):
            raise ValueError("every variable needs lower <= upper, lower < +inf "
                             "and upper > -inf")
        bad = [s for s in self.senses if s not in (LEQ, EQ, GEQ)]
        if bad:
            raise ValueError(f"unknown row senses: {bad}")
        finite = [self.c, self.b, self.A]
        if any(not np.all(np.isfinite(arr)) for arr in finite):
            raise ValueError("objective and constraint data must be finite")

    # the problem this one was made from by with_rhs, if any: a class
    # default, not a field, so that a constructed problem's vars() are its
    # fields alone
    _origin = None

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def with_rhs(self, b: np.ndarray) -> "LpProblem":
        """This LP with the right-hand side ``b``; only ``b`` is validated.
        Every other field is shared with this problem, and the result refers
        to it weakly, so it does not keep it alive, and :func:`solve_lp` may
        start it from this problem's optimal solution."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n_rows,):
            raise ValueError(f"right-hand side {b.shape} does not fit {self.n_rows} rows")
        if not np.isfinite(b).all():
            raise ValueError("the right-hand side must be finite")
        return _unchecked(LpProblem, **(vars(self) | dict(b=b, _origin=weakref.ref(self))))


def _unchecked(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, made without
    calling its ``__init__`` and so without its ``__post_init__`` checks."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: Optional[float] = None
    x: Optional[np.ndarray] = None
    pivots: list = field(default_factory=list)  # (entering, leaving); (j, j) is a bound flip
    # the optimal tableau, from which branch-and-bound re-optimizes its nodes,
    # and the problem it solves, from which solve_lp re-optimizes another
    # right-hand side
    _tableau: Optional["_Tableau"] = field(default=None, repr=False, compare=False)
    _problem: Optional[LpProblem] = field(default=None, repr=False, compare=False)


class _Tableau:
    """Tableau ``B^-1 K`` over bounded columns with Bland pivoting.

    ``K`` holds every column (structurals, slacks, artificials) and ``x``
    every column's current value: basic values move with each step and
    non-basic ones sit at a bound.  One extra row holds the reduced costs of
    the objective being minimized, updated by the same rank-one pivot as the
    body; refactorization rebuilds both from the basis to cap round-off.
    """

    def __init__(self, K: np.ndarray, b: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, x: np.ndarray, basis: np.ndarray,
                 signs: np.ndarray):
        self.K, self.b = K, b
        self.lower, self.upper, self.x = lower, upper, x
        self.basis = basis
        self.m, self.n = K.shape
        self.T = np.zeros((self.m + 1, self.n))
        # the start basis diag(signs) is its own inverse
        self.T[: self.m] = signs[:, None] * K
        self.pivots: list[tuple[int, int]] = []
        self._since_refactor = 0
        self._costs: Optional[np.ndarray] = None
        self._work = np.empty_like(self.T)

    def _refactor(self):
        try:
            inv = np.linalg.inv(self.K[:, self.basis])
        except np.linalg.LinAlgError as err:
            raise LpNumericalError(
                f"basis {self.basis.tolist()} is numerically singular: {err}"
            ) from err
        self.T[: self.m] = inv @ self.K
        nonbasic = self.x.copy()
        nonbasic[self.basis] = 0.0
        self.x[self.basis] = inv @ (self.b - self.K @ nonbasic)
        self._since_refactor = 0
        if self._costs is not None:
            self._reprice()

    def _reprice(self):
        costs = self._costs
        self.T[self.m] = costs - costs[self.basis] @ self.T[: self.m]
        self.T[self.m, self.basis] = 0.0

    def solve(self, costs: np.ndarray, n_enter: int) -> str:
        """Minimize ``costs @ x`` with Bland's rule, letting only the first
        ``n_enter`` columns enter; returns 'optimal' or 'unbounded'."""
        self._costs = costs
        self._reprice()
        if not n_enter:  # no column at all: an LP without variables
            return "optimal"
        d = self.T[self.m, :n_enter]
        x, lower, upper = self.x[:n_enter], self.lower[:n_enter], self.upper[:n_enter]
        for _ in range(MAX_PIVOTS):
            eligible = (((d < -OPTIMALITY_TOL) & (x < upper))
                        | ((d > OPTIMALITY_TOL) & (x > lower)))
            enter = int(eligible.argmax())  # Bland: first eligible index
            if not eligible[enter]:
                return "optimal"
            direction = 1.0 if d[enter] < 0.0 else -1.0
            alpha = direction * self.T[: self.m, enter]  # basic values fall by alpha * step
            xb = self.x[self.basis]
            ratios = np.full(self.m, np.inf)
            falling, rising = alpha > FEASIBILITY_TOL, alpha < -FEASIBILITY_TOL
            ratios[falling] = (xb[falling] - self.lower[self.basis[falling]]) / alpha[falling]
            ratios[rising] = (self.upper[self.basis[rising]] - xb[rising]) / -alpha[rising]
            np.maximum(ratios, 0.0, out=ratios)
            best = ratios.min(initial=np.inf)
            span = self.upper[enter] - self.lower[enter]
            if span <= best:
                if span == np.inf:
                    return "unbounded"
                self.x[self.basis] -= span * alpha
                self.x[enter] = self.upper[enter] if direction > 0 else self.lower[enter]
                self.pivots.append((enter, enter))
                continue
            tied = (ratios <= best + FEASIBILITY_TOL).nonzero()[0]
            # Bland: among ties, leave the basic variable with the smallest index
            row = int(tied[self.basis[tied].argmin()])
            leave = int(self.basis[row])
            self.x[self.basis] -= best * alpha
            self.x[enter] += direction * best
            self.x[leave] = self.lower[leave] if alpha[row] > 0 else self.upper[leave]
            self._pivot(row, enter)
        raise LpNumericalError("pivot limit exceeded; possible numerical cycling")

    def as_base(self) -> "_Tableau":
        """The base that nodes are rebuilt from, made from this optimal
        tableau, which is left as it is.

        The base shares this tableau's arrays, and neither changes them
        again.  Its own rows ``B0^-1 K`` and ``B0^-1 b`` stand in for ``K``
        and ``b`` (refactoring against them gives the same tableau), and it
        has no pivot work buffer: the base itself must not pivot.
        """
        nonbasic = self.x.copy()
        nonbasic[self.basis] = 0.0
        base = copy.copy(self)
        base.b = self.x[self.basis] + self.T[: self.m] @ nonbasic
        base.K = self.T[: self.m]
        base._work = None
        return base

    def _derived(self, T: np.ndarray, basis: np.ndarray, x: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray) -> "_Tableau":
        """A tableau over the given arrays, taken as they are, that shares
        this one's ``K``, ``b``, costs and refactorization count, with no
        pivots recorded and a pivot work buffer of its own."""
        tab = object.__new__(_Tableau)
        tab.K, tab.b, tab._costs = self.K, self.b, self._costs
        tab.T, tab.basis, tab.x, tab.lower, tab.upper = T, basis, x, lower, upper
        tab.m, tab.n = basis.size, T.shape[1]
        tab.pivots = []
        tab._since_refactor = self._since_refactor
        tab._work = np.empty_like(T)
        return tab

    def copy(self) -> "_Tableau":
        """A copy that this tableau's pivots and bound changes leave alone,
        and the reverse; ``K``, ``b`` and the costs are shared."""
        return self._derived(self.T.copy(), self.basis.copy(), self.x.copy(),
                             self.lower.copy(), self.upper.copy())

    def rebased(self, basis: np.ndarray, x: np.ndarray, lower: np.ndarray,
                upper: np.ndarray) -> "_Tableau":
        """Copy moved to the basis ``basis`` (as a set of columns), with
        copies of the column values ``x`` and bounds ``lower`` and ``upper``.

        Each missing column, in index order, is pivoted in on the row of
        largest magnitude among the rows whose basic column is not wanted,
        so no inverse is formed and the pivot sequence is deterministic.
        ``K``, ``b`` and the costs are shared.
        """
        tab = self._derived(self.T.copy(), self.basis.copy(), x.copy(), lower.copy(),
                            upper.copy())
        wanted = np.zeros(self.n, dtype=bool)
        wanted[basis] = True
        missing = wanted.copy()
        missing[self.basis] = False
        for col in missing.nonzero()[0]:
            rows = (~wanted[tab.basis]).nonzero()[0]
            tab._pivot(int(rows[np.abs(tab.T[rows, col]).argmax()]), int(col))
        tab.x[:] = x  # a refactorization on the way sets basic values of its own basis
        return tab

    def with_rows(self, A: np.ndarray, b: np.ndarray) -> "_Tableau":
        """This base with the rows ``A @ x[:k] <= b`` appended, ``k`` being
        ``A``'s column count; this base is left unchanged.

        Each row gets a slack with bounds ``[0, inf)``, appended as the last
        column and basic on its row, and is reduced against the base's basic
        columns, so the result is a base again.  The slacks cost nothing, so
        no reduced cost changes: any dual feasible basis of this base stays
        dual feasible with the new slacks added to it.  ``x`` gains the
        slacks' values at this base's ``x``.
        """
        r, k = A.shape
        m, n = self.m, self.n
        rows = np.zeros((r, n + r))
        rows[:, :k] = A
        rows[:, n:] = np.eye(r)
        on_basis = rows[:, self.basis]
        rows[:, :n] -= on_basis @ self.T[:m]
        rows[:, self.basis] = 0.0
        T = np.zeros((m + r + 1, n + r))
        T[:m, :n] = self.T[:m]
        T[m: m + r] = rows
        T[m + r, :n] = self.T[m]
        ext = self._derived(T, np.concatenate([self.basis, n + np.arange(r)]),
                            np.concatenate([self.x, b - A @ self.x[:k]]),
                            np.concatenate([self.lower, np.zeros(r)]),
                            np.concatenate([self.upper, np.full(r, np.inf)]))
        ext.K, ext.b = T[: m + r], np.concatenate([self.b, b - on_basis @ self.b])
        ext._costs = np.concatenate([self._costs, np.zeros(r)])
        ext._work = None  # a base does not pivot
        return ext

    def reoptimize(self) -> str:
        """Re-optimize a dual feasible basis after bound changes.

        Runs the dual simplex until every basic value is within its bounds
        and returns 'optimal' there: the dual ratio test keeps the basis
        dual feasible, so no reduced cost has the wrong sign, and the tests
        check that a re-price at that point would not pivot.  Returns
        'infeasible' when no column can enter; ``pivots`` holds this call's
        pivots only.  None of them is a bound flip ``(j, j)``: the leaving
        column lies outside its bounds, so it is never eligible to enter.
        """
        self.pivots = []
        T, m, x, basis = self.T, self.m, self.x, self.basis
        lower, upper = self.lower, self.upper
        floor, ceiling = lower - FEASIBILITY_TOL, upper + FEASIBILITY_TOL
        for _ in range(MAX_PIVOTS):
            xb = x[basis]
            below, above = xb < floor[basis], xb > ceiling[basis]
            out = (below | above).nonzero()[0]
            if not out.size:
                return "optimal"
            # the smallest basic index leaves
            row = int(out[0] if out.size == 1 else out[basis[out].argmin()])
            leave, value = int(basis[row]), xb[row]
            # x_leave falls by T[row, j] per unit rise of x_j.  Below its
            # bound it must rise, so a column helps by moving against the
            # sign of its entry; above, by moving with it.  Fixed columns,
            # artificials among them, can move neither way
            alpha = T[row]
            falls, rises = alpha < -FEASIBILITY_TOL, alpha > FEASIBILITY_TOL
            if below[row]:
                target = lower[leave]
                eligible = (falls & (x < upper)) | (rises & (x > lower))
            else:
                target = upper[leave]
                eligible = (rises & (x < upper)) | (falls & (x > lower))
            cand = eligible.nonzero()[0]
            if not cand.size:
                return "infeasible"
            if cand.size == 1:
                enter = int(cand[0])
            else:
                ratios = np.abs(T[m, cand] / alpha[cand])
                # smallest dual ratio; ties go to the lowest column index
                enter = int(cand[(ratios <= ratios.min() + OPTIMALITY_TOL).argmax()])
            step = (value - target) / alpha[enter]
            x[basis] = xb - step * T[:m, enter]
            x[enter] += step
            x[leave] = target
            self._pivot(row, enter)
        raise LpNumericalError("pivot limit exceeded; possible numerical cycling")

    def _pivot(self, row: int, col: int):
        T, basis = self.T, self.basis
        self.pivots.append((col, int(basis[row])))
        piv = T[row, col]
        if abs(piv) < 1e-12:
            self._refactor()
            piv = T[row, col]
            if abs(piv) < 1e-12:
                raise LpNumericalError(
                    f"pivot element {piv:.3e} too small at row {row}, column {col}"
                )
        keep = T[row]
        keep /= piv
        factors = T[:, col].copy()
        factors[row] = 0.0
        np.multiply.outer(factors, keep, out=self._work)
        np.subtract(T, self._work, out=T)
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_EVERY:
            self._refactor()


def solve_lp(p: LpProblem, start: Optional[LpSolution] = None) -> LpSolution:
    """Solve ``p``; statuses are 'optimal', 'infeasible', or 'unbounded'.

    With ``start``, an optimal solution of ``p`` or of the problem ``p`` was
    made from by :meth:`LpProblem.with_rhs` (checked by that reference
    alone; anything else raises ValueError), ``p`` is re-optimized from
    ``start``'s basis by the dual simplex, whose status ('optimal' or
    'infeasible') and pivots the solution reports.  Without it, ``p`` is
    solved cold by the two-phase primal simplex.
    """
    if start is not None:
        return _restarted(p, start)
    m, n = p.n_rows, p.n_vars
    senses = np.asarray(p.senses, dtype=object)
    slack_lower = np.where(senses == GEQ, -np.inf, 0.0)
    slack_upper = np.where(senses == LEQ, np.inf, 0.0)
    # non-basic start: the lower bound, else the upper bound, else zero
    start = np.where(np.isfinite(p.lower), p.lower,
                     np.where(np.isfinite(p.upper), p.upper, 0.0))
    residual = p.b - p.A @ start
    fits = (residual >= slack_lower) & (residual <= slack_upper)
    art_rows = np.flatnonzero(~fits)
    k = art_rows.size
    signs = np.ones(m)
    signs[art_rows] = np.sign(residual[art_rows])

    K = np.zeros((m, n + m + k))
    K[:, :n] = p.A
    K[:, n: n + m] = np.eye(m)
    K[art_rows, n + m + np.arange(k)] = signs[art_rows]
    lower = np.concatenate([p.lower, slack_lower, np.zeros(k)])
    upper = np.concatenate([p.upper, slack_upper, np.full(k, np.inf)])
    x = np.concatenate([start, np.where(fits, residual, 0.0),
                        np.abs(residual[art_rows])])
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(k)
    tab = _Tableau(K, p.b, lower, upper, x, basis, signs)

    if k:
        phase1 = np.zeros(n + m + k)
        phase1[n + m:] = 1.0
        if tab.solve(phase1, n + m) != "optimal":
            raise LpNumericalError("phase 1 reported unbounded; data inconsistent")
        if tab.x[n + m:].sum() > max(1e-7, 1e-9 * (1.0 + np.abs(residual).sum())):
            return LpSolution(status="infeasible", pivots=tab.pivots)
        tab.upper[n + m:] = 0.0  # artificials stay at zero from here on

    costs = np.zeros(n + m + k)
    costs[:n] = -p.c if p.maximize else p.c
    if tab.solve(costs, n + m) == "unbounded":
        return LpSolution(status="unbounded", pivots=tab.pivots)
    return _optimal(p, tab)


def _restarted(p: LpProblem, start: LpSolution) -> LpSolution:
    """``p`` re-optimized by the dual simplex from ``start``'s optimal tableau,
    with the right-hand side ``p.b``; see :func:`solve_lp`."""
    if start.status != "optimal":
        raise ValueError(f"a start must be an optimal solution, not {start.status!r}")
    origin = p._origin and p._origin()
    if start._problem is not p and start._problem is not origin:
        raise ValueError("a started problem must be the start's own or made from it "
                         "by with_rhs")
    tab = start._tableau.copy()
    m, n = p.n_rows, p.n_vars
    # the slack columns of K are the identity, so the tableau's are B^-1
    nonbasic = tab.x.copy()
    nonbasic[tab.basis] = 0.0
    tab.b = p.b
    tab.x[tab.basis] = tab.T[:m, n: n + m] @ (p.b - tab.K @ nonbasic)
    if tab.reoptimize() != "optimal":
        return LpSolution(status="infeasible", pivots=tab.pivots)
    return _optimal(p, tab)


def _optimal(p: LpProblem, tab: _Tableau) -> LpSolution:
    """The solution of ``p`` at its optimal tableau ``tab``."""
    x_opt = tab.x[: p.n_vars].copy()
    return LpSolution(status="optimal", objective=float(p.c @ x_opt), x=x_opt,
                      pivots=tab.pivots, _tableau=tab, _problem=p)
