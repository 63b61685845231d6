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
"""

from __future__ import annotations

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

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: Optional[float] = None
    x: Optional[np.ndarray] = None
    pivots: list = field(default_factory=list)  # (entering, leaving); (j, j) is a bound flip


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
        d = self.T[self.m, :n_enter]
        x, lower, upper = self.x[:n_enter], self.lower[:n_enter], self.upper[:n_enter]
        for _ in range(MAX_PIVOTS):
            eligible = (((d < -OPTIMALITY_TOL) & (x < upper))
                        | ((d > OPTIMALITY_TOL) & (x > lower)))
            enter = int(np.argmax(eligible))  # Bland: first eligible index
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
            tied = np.flatnonzero(ratios <= best + FEASIBILITY_TOL)
            # Bland: among ties, leave the basic variable with the smallest index
            row = int(tied[np.argmin(self.basis[tied])])
            leave = int(self.basis[row])
            self.x[self.basis] -= best * alpha
            self.x[enter] += direction * best
            self.x[leave] = self.lower[leave] if alpha[row] > 0 else self.upper[leave]
            self._pivot(row, enter)
        raise LpNumericalError("pivot limit exceeded; possible numerical cycling")

    def _pivot(self, row: int, col: int):
        self.pivots.append((col, int(self.basis[row])))
        piv = self.T[row, col]
        if abs(piv) < 1e-12:
            self._refactor()
            piv = self.T[row, col]
            if abs(piv) < 1e-12:
                raise LpNumericalError(
                    f"pivot element {piv:.3e} too small at row {row}, column {col}"
                )
        self.T[row] /= piv
        keep = self.T[row]
        factors = self.T[:, col].copy()
        factors[row] = 0.0
        np.multiply(factors[:, None], keep[None, :], out=self._work)
        np.subtract(self.T, self._work, out=self.T)
        self.T[:, col] = 0.0
        self.T[row, col] = 1.0
        self.basis[row] = col
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_EVERY:
            self._refactor()


def solve_lp(p: LpProblem) -> LpSolution:
    """Solve ``p``; statuses are 'optimal', 'infeasible', or 'unbounded'."""
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
    x_opt = tab.x[:n].copy()
    return LpSolution(status="optimal", objective=float(p.c @ x_opt), x=x_opt,
                      pivots=tab.pivots)
