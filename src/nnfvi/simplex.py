"""Dense two-phase primal simplex for small linear programs.

Supports max/min objectives, row senses <=, =, >=, and general variable
bounds (including free and one-sided).  Pivoting follows Bland's smallest-
index anti-cycling rule throughout, so the pivot sequence is deterministic
for a given problem.  Row duals and the dual objective are reported in the
orientation of the original problem.

Internally the problem is rewritten as ``min c z, A z = b, z >= 0``:
finite lower bounds are shifted out, upper-bounded-only variables are
reflected, free variables are split, and finite upper bounds become extra
rows.  The tableau is rebuilt from the basis every ``REFACTOR_EVERY``
pivots to cap accumulated round-off.
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
        if np.any(self.lower > self.upper):
            raise ValueError("some lower bound exceeds its upper bound")
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
    duals: Optional[np.ndarray] = None          # one per original row
    dual_objective: Optional[float] = None
    pivots: list = field(default_factory=list)  # (entering, leaving) basis indices


@dataclass
class _Standardized:
    """min cs @ z, As z = bs, z >= 0, plus bookkeeping to undo the rewrite."""

    cs: np.ndarray
    As: np.ndarray
    bs: np.ndarray
    const: float                 # objective constant from bound shifting
    row_sign: np.ndarray         # +-1 applied to each row to make b >= 0
    col_of_var: list             # per original var: ('direct', j) | ('reflected', j) | ('split', j+, j-)
    shift: np.ndarray            # per original var, the subtracted lower bound (0 if none)
    n_structural: int            # columns before slacks
    slack_col_of_row: np.ndarray  # slack/surplus column per row, -1 for equalities
    n_orig_rows: int


def _standardize(p: LpProblem) -> _Standardized:
    n = p.n_vars
    sign_obj = -1.0 if p.maximize else 1.0
    c = sign_obj * p.c.copy()

    cols: list[np.ndarray] = []
    costs: list[float] = []
    col_of_var: list = []
    shift = np.zeros(n)
    upper_rows: list[tuple[int, float]] = []  # (column, rhs) rows z_col <= rhs
    const = 0.0
    b = p.b.copy()

    for j in range(n):
        lo, hi = p.lower[j], p.upper[j]
        col = p.A[:, j].copy() if p.n_rows else np.zeros(0)
        if np.isfinite(lo) and np.isfinite(hi) and hi - lo < 1e-12:
            # fixed variable: substitute it out entirely
            if lo != 0.0:
                b = b - col * lo
                const += c[j] * lo
            col_of_var.append(("fixed",))
            shift[j] = lo
            continue
        if np.isfinite(lo):
            # x = lo + z
            if lo != 0.0:
                b = b - col * lo
                const += c[j] * lo
            cols.append(col)
            costs.append(c[j])
            col_of_var.append(("direct", len(cols) - 1))
            shift[j] = lo
            if np.isfinite(hi):
                upper_rows.append((len(cols) - 1, hi - lo))
        elif np.isfinite(hi):
            # x = hi - z
            b = b - col * hi
            const += c[j] * hi
            cols.append(-col)
            costs.append(-c[j])
            col_of_var.append(("reflected", len(cols) - 1))
            shift[j] = hi
        else:
            cols.append(col)
            costs.append(c[j])
            cols.append(-col)
            costs.append(-c[j])
            col_of_var.append(("split", len(cols) - 2, len(cols) - 1))

    m_orig = p.n_rows
    m = m_orig + len(upper_rows)
    n_structural = len(cols)
    A = np.zeros((m, n_structural))
    if m_orig:
        for k, col in enumerate(cols):
            A[:m_orig, k] = col
    bs = np.concatenate([b, [rhs for _, rhs in upper_rows]])
    for i, (k, _) in enumerate(upper_rows):
        A[m_orig + i, k] = 1.0
    senses = list(p.senses) + [LEQ] * len(upper_rows)

    # slack/surplus columns turn every row into an equality
    slack_cols = np.full(m, -1, dtype=int)
    extra = []
    for i, sense in enumerate(senses):
        if sense == LEQ:
            e = np.zeros(m)
            e[i] = 1.0
            extra.append(e)
            slack_cols[i] = n_structural + len(extra) - 1
        elif sense == GEQ:
            e = np.zeros(m)
            e[i] = -1.0
            extra.append(e)
            slack_cols[i] = n_structural + len(extra) - 1
    if extra:
        A = np.hstack([A, np.stack(extra, axis=1)])
    cs = np.concatenate([costs, np.zeros(len(extra))])

    row_sign = np.ones(m)
    neg = bs < 0
    row_sign[neg] = -1.0
    A[neg] *= -1.0
    bs = bs * row_sign

    return _Standardized(
        cs=cs, As=A, bs=bs, const=const, row_sign=row_sign,
        col_of_var=col_of_var, shift=shift, n_structural=n_structural,
        slack_col_of_row=slack_cols, n_orig_rows=m_orig,
    )


class _Tableau:
    """Simplex tableau over ``min c z, A z = b, z >= 0`` with Bland pivoting.

    The tableau carries one extra row holding the reduced costs of the
    objective currently being optimized, updated by the same rank-one pivot
    operation as the body; refactorization rebuilds everything from the
    basis to cap round-off drift.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, tol: float = FEASIBILITY_TOL):
        self.A = A
        self.b = b
        self.tol = tol
        self.m, self.n = A.shape
        self.basis: list[int] = []
        self.T = np.zeros((self.m + 1, self.n + 1))
        self.pivots: list[tuple[int, int]] = []
        self.row_ids = list(range(self.m))  # original row positions still present
        self._since_refactor = 0
        self._costs: Optional[np.ndarray] = None
        self._work = np.empty_like(self.T)

    def install_basis(self, basis: list[int], is_identity: bool = False):
        self.basis = list(basis)
        if is_identity:
            self.T[: self.m, : self.n] = self.A
            self.T[: self.m, self.n] = self.b
            self._since_refactor = 0
        else:
            self._refactor()

    def _refactor(self):
        B = self.A[:, self.basis]
        try:
            inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as err:
            raise LpNumericalError(
                f"basis {self.basis} is numerically singular: {err}"
            ) from err
        self.T[: self.m, : self.n] = inv @ self.A
        self.T[: self.m, self.n] = inv @ self.b
        self._since_refactor = 0
        if self._costs is not None:
            self._reprice()

    def _reprice(self):
        costs = self._costs
        self.T[self.m, : self.n] = costs - costs[self.basis] @ self.T[: self.m, : self.n]
        self.T[self.m, self.basis] = 0.0
        self.T[self.m, self.n] = 0.0

    def solve(self, costs: np.ndarray, allowed: np.ndarray) -> str:
        """Run Bland-rule simplex; returns 'optimal' or 'unbounded'."""
        if self.n == 0:
            return "optimal"
        self._costs = costs
        self._reprice()
        obj_row = self.T[self.m]
        for _ in range(MAX_PIVOTS):
            eligible = allowed & (obj_row[: self.n] < -OPTIMALITY_TOL)
            enter = int(np.argmax(eligible))  # Bland: first eligible index
            if not eligible[enter]:
                return "optimal"
            col = self.T[: self.m, enter]
            positive = col > self.tol
            if not positive.any():
                return "unbounded"
            rows = np.flatnonzero(positive)
            ratios = self.T[rows, self.n] / col[rows]
            best = ratios.min()
            tied = rows[ratios <= best + self.tol]
            # Bland: among ties, leave the basic variable with the smallest index
            leave_row = int(tied[np.argmin([self.basis[r] for r in tied])])
            self._pivot(leave_row, enter)
        raise LpNumericalError("pivot limit exceeded; possible numerical cycling")

    def _pivot(self, row: int, col: int):
        self.pivots.append((col, self.basis[row]))
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

    def values(self) -> np.ndarray:
        z = np.zeros(self.n)
        z[self.basis] = self.T[: self.m, self.n]
        return z


def solve_lp(p: LpProblem) -> LpSolution:
    """Solve ``p``; statuses are 'optimal', 'infeasible', or 'unbounded'."""
    std = _standardize(p)
    A, b, cs = std.As, std.bs, std.cs
    m, n = A.shape

    if m == 0:
        return _solve_unconstrained(p, std)

    # initial basis from usable slack columns; artificials elsewhere
    basis = [-1] * m
    art_cols = []
    for i in range(m):
        sc = std.slack_col_of_row[i]
        if sc >= 0 and A[i, sc] > 0.5:  # +1 after row normalization
            basis[i] = sc
    n_art = sum(1 for v in basis if v < 0)
    if n_art:
        A = np.hstack([A, np.zeros((m, n_art))])
        cs = np.concatenate([cs, np.zeros(n_art)])
        k = n
        for i in range(m):
            if basis[i] < 0:
                A[i, k] = 1.0
                basis[i] = k
                art_cols.append(k)
                k += 1

    # every initial basis column is a unit vector (slack or artificial)
    tab = _Tableau(A, b)
    tab.install_basis(basis, is_identity=True)
    is_art = np.zeros(A.shape[1], dtype=bool)
    is_art[art_cols] = True

    if art_cols:
        phase1_costs = is_art.astype(float)
        status = tab.solve(phase1_costs, allowed=~is_art)
        if status != "optimal":
            raise LpNumericalError("phase 1 reported unbounded; data inconsistent")
        infeas = phase1_costs[tab.basis] @ tab.T[: tab.m, tab.n]
        if infeas > max(1e-7, 1e-9 * (1.0 + np.abs(b).sum())):
            return LpSolution(status="infeasible", pivots=list(tab.pivots))
        _drive_out_artificials(tab, is_art)

    status = tab.solve(cs, allowed=~is_art)
    if status == "unbounded":
        return LpSolution(status="unbounded", pivots=list(tab.pivots))

    return _extract_solution(p, std, tab, cs)


def _drive_out_artificials(tab: _Tableau, is_art: np.ndarray):
    """Pivot basic artificials out at level zero; drop redundant rows."""
    redundant = []
    for row in range(tab.m):
        if not is_art[tab.basis[row]]:
            continue
        eligible = np.flatnonzero(
            (~is_art[: tab.n]) & (np.abs(tab.T[row, : tab.n]) > 1e-9)
        )
        if eligible.size:
            tab._pivot(row, int(eligible[0]))
        else:
            redundant.append(row)
    if redundant:
        keep = [i for i in range(tab.m) if i not in redundant]
        tab.A = tab.A[keep]
        tab.b = tab.b[keep]
        tab.basis = [tab.basis[i] for i in keep]
        tab.row_ids = [tab.row_ids[i] for i in keep]
        tab.m = len(keep)
        tab.T = np.zeros((tab.m + 1, tab.n + 1))
        tab._work = np.empty_like(tab.T)
        tab._refactor()


def _solve_unconstrained(p: LpProblem, std: _Standardized) -> LpSolution:
    # no rows at all: optimum sits at a bound or the problem is unbounded
    x = np.zeros(p.n_vars)
    sign = -1.0 if p.maximize else 1.0
    for j in range(p.n_vars):
        want_small = sign * p.c[j] > 0  # minimizing sign*c
        target = p.lower[j] if want_small else p.upper[j]
        if sign * p.c[j] == 0.0:
            target = p.lower[j] if np.isfinite(p.lower[j]) else p.upper[j]
            if not np.isfinite(target):
                target = 0.0
        if not np.isfinite(target):
            return LpSolution(status="unbounded")
        x[j] = target
    obj = float(p.c @ x)
    return LpSolution(status="optimal", objective=obj, x=x,
                      duals=np.zeros(0), dual_objective=obj)


def _extract_solution(p: LpProblem, std: _Standardized, tab: _Tableau,
                      cs: np.ndarray) -> LpSolution:
    z = tab.values()
    x = np.empty(p.n_vars)
    for j, entry in enumerate(std.col_of_var):
        if entry[0] == "fixed":
            x[j] = std.shift[j]
        elif entry[0] == "direct":
            x[j] = std.shift[j] + z[entry[1]]
        elif entry[0] == "reflected":
            x[j] = std.shift[j] - z[entry[1]]
        else:
            x[j] = z[entry[1]] - z[entry[2]]
    sign = -1.0 if p.maximize else 1.0
    objective = float(p.c @ x)

    # duals from B' y = c_B, mapped back through row negation and orientation
    try:
        B = tab.A[:, tab.basis]
        y = np.linalg.solve(B.T, cs[tab.basis])
    except np.linalg.LinAlgError as err:
        raise LpNumericalError(f"singular basis at dual extraction: {err}") from err

    duals = np.zeros(p.n_rows)
    dual_obj_std = float(y @ tab.b)
    # some rows may have been dropped as redundant; map via surviving positions
    for pos, i in enumerate(tab.row_ids):
        if i < std.n_orig_rows:
            duals[i] = sign * std.row_sign[i] * y[pos]

    dual_objective = sign * (dual_obj_std + std.const)
    return LpSolution(
        status="optimal",
        objective=objective,
        x=x,
        duals=duals,
        dual_objective=dual_objective,
        pivots=list(tab.pivots),
    )
