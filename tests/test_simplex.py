import gc
import itertools
from dataclasses import replace

import numpy as np
import pytest

from nnfvi import simplex
from nnfvi.bnb import MilpProblem
from nnfvi.simplex import LEQ, GEQ, EQ, LpProblem, solve_lp

from conftest import assert_no_entering_column


def box_lp(c, A, b, upper, maximize=True):
    n = len(c)
    return LpProblem(
        c=np.asarray(c, dtype=float),
        A=np.asarray(A, dtype=float).reshape(-1, n),
        b=np.asarray(b, dtype=float),
        senses=[LEQ] * len(b),
        lower=np.zeros(n),
        upper=np.asarray(upper, dtype=float),
        maximize=maximize,
    )


def enumerate_vertex_optimum(c, A, b, upper, maximize=True):
    """Active-set enumeration oracle for max/min c@x, Ax<=b, 0<=x<=upper.

    Walks every (free-set, active-row-set, bound-assignment) combination; a
    bounded LP attains its optimum at one of these candidate points.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = c.size
    m = b.size
    best = None
    tol = 1e-7
    for k in range(0, min(n, m) + 1):
        for free in itertools.combinations(range(n), k):
            fixed = [j for j in range(n) if j not in free]
            for rows in itertools.combinations(range(m), k):
                Asub = A[np.ix_(rows, free)] if k else None
                for levels in itertools.product(*[(0.0, upper[j]) for j in fixed]):
                    x = np.zeros(n)
                    for j, v in zip(fixed, levels):
                        x[j] = v
                    if k:
                        rhs = b[list(rows)] - A[np.ix_(rows, fixed)] @ np.asarray(levels)
                        try:
                            sol = np.linalg.solve(Asub, rhs)
                        except np.linalg.LinAlgError:
                            continue
                        x[list(free)] = sol
                    if np.any(x < -tol) or np.any(x > upper + tol):
                        continue
                    if np.any(A @ x > b + tol):
                        continue
                    val = float(c @ x)
                    if best is None or (val > best if maximize else val < best):
                        best = val
    return best


class TestBasics:
    def test_single_variable_box(self):
        p = box_lp([1.0], [[1.0]], [3.0], [np.inf])
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0)
        np.testing.assert_allclose(sol.x, [3.0])

    def test_infeasible_pair(self):
        # x <= -1 with x >= 0
        p = box_lp([1.0], [[1.0]], [-1.0], [np.inf])
        assert solve_lp(p).status == "infeasible"

    def test_unbounded(self):
        p = LpProblem(c=[1.0], A=np.zeros((0, 1)), b=[], senses=[],
                      lower=[0.0], upper=[np.inf], maximize=True)
        assert solve_lp(p).status == "unbounded"

    def test_equality_row(self):
        p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[2.0], senses=[EQ],
                      lower=[0.0, 0.0], upper=[np.inf, np.inf], maximize=True)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)

    def test_geq_row_minimization(self):
        p = LpProblem(c=[2.0, 3.0], A=[[1.0, 1.0]], b=[4.0], senses=[GEQ],
                      lower=[0.0, 0.0], upper=[np.inf, np.inf], maximize=False)
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(8.0)
        np.testing.assert_allclose(sol.x, [4.0, 0.0], atol=1e-9)

    def test_free_variable(self):
        # min x subject to x >= -5 expressed as a row over a free variable
        p = LpProblem(c=[1.0], A=[[1.0]], b=[-5.0], senses=[GEQ],
                      lower=[-np.inf], upper=[np.inf], maximize=False)
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(-5.0)

    @pytest.mark.parametrize("lower, upper", [
        (2.0, 1.0), (np.inf, np.inf), (-np.inf, -np.inf), (np.nan, 1.0)])
    def test_unusable_bounds_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="lower <= upper"):
            LpProblem(c=[1.0], A=[[1.0]], b=[1.0], senses=[LEQ],
                      lower=[lower], upper=[upper])

    def test_shifted_lower_bound(self):
        p = LpProblem(c=[1.0], A=[[1.0]], b=[10.0], senses=[LEQ],
                      lower=[2.0], upper=[7.0], maximize=False)
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(2.0)
        np.testing.assert_allclose(sol.x, [2.0])


class TestRandomVsVertexOracle:
    def _random_instance(self, rng, n, m):
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)  # origin feasible
        upper = rng.uniform(0.5, 4.0, size=n)  # box keeps it bounded
        return c, A, b, upper

    def test_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            c, A, b, upper = self._random_instance(rng, n, m)
            maximize = bool(rng.integers(0, 2))
            expected = enumerate_vertex_optimum(c, A, b, upper, maximize)
            sol = solve_lp(box_lp(c, A, b, upper, maximize))
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-8)

    def test_five_by_eight(self):
        rng = np.random.default_rng(22)
        for trial in range(3):
            c, A, b, upper = self._random_instance(rng, 8, 5)
            expected = enumerate_vertex_optimum(c, A, b, upper, True)
            sol = solve_lp(box_lp(c, A, b, upper, True))
            assert sol.objective == pytest.approx(expected, abs=1e-8)


class TestDualsAndDeterminism:
    def test_strong_duality_and_feasibility(self):
        # the solver reports no duals, so only primal feasibility is checked
        rng = np.random.default_rng(23)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            c = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 3.0, size=m)
            upper = rng.uniform(0.5, 4.0, size=n)
            p = box_lp(c, A, b, upper)
            sol = solve_lp(p)
            assert sol.status == "optimal"
            # primal feasibility residual
            assert np.all(A @ sol.x <= b + 1e-8)
            assert np.all(sol.x >= -1e-8)
            assert np.all(sol.x <= upper + 1e-8)

    def test_bland_pivot_sequence_repeats(self):
        rng = np.random.default_rng(24)
        c = rng.normal(size=5)
        A = rng.normal(size=(4, 5))
        b = rng.uniform(0.5, 2.0, size=4)
        upper = rng.uniform(1.0, 3.0, size=5)
        p1 = solve_lp(box_lp(c, A, b, upper))
        p2 = solve_lp(box_lp(c, A, b, upper))
        assert p1.pivots == p2.pivots
        assert len(p1.pivots) > 0

    def test_degenerate_lp_terminates(self):
        # classic cycling-prone construction; Bland must terminate
        c = np.array([0.75, -150.0, 0.02, -6.0])
        A = np.array([
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        p = LpProblem(c=c, A=A, b=b, senses=[LEQ] * 3,
                      lower=np.zeros(4), upper=np.full(4, np.inf), maximize=True)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-9)


class TestBoundKinds:
    """Bound kinds that share the one bounded-variable code path."""

    def test_upper_only_variables(self):
        # x0 <= 3 and x1 <= 1 with no lower bounds; the row caps x0 + 2 x1
        p = LpProblem(c=[1.0, 1.0], A=[[1.0, 2.0]], b=[4.0], senses=[LEQ],
                      lower=[-np.inf, -np.inf], upper=[3.0, 1.0], maximize=True)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.5)
        np.testing.assert_allclose(sol.x, [3.0, 0.5], atol=1e-12)

    def test_upper_only_variable_minimized_against_a_row(self):
        p = LpProblem(c=[1.0], A=[[1.0]], b=[-1.0], senses=[GEQ],
                      lower=[-np.inf], upper=[2.0], maximize=False)
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(-1.0)
        np.testing.assert_allclose(sol.x, [-1.0], atol=1e-12)

    def test_variable_fixed_at_nonzero_value(self):
        p = LpProblem(c=[1.0, 1.0, -1.0], A=[[1.0, 1.0, 1.0]], b=[4.0],
                      senses=[LEQ], lower=[2.5, 0.0, -3.0], upper=[2.5, np.inf, -3.0],
                      maximize=True)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == 2.5 and sol.x[2] == -3.0  # fixed values are exact
        assert sol.x[1] == pytest.approx(4.5)
        assert sol.objective == pytest.approx(10.0)

    def test_fixed_variable_makes_rows_infeasible(self):
        p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], senses=[LEQ],
                      lower=[2.0, 0.0], upper=[2.0, 1.0], maximize=True)
        assert solve_lp(p).status == "infeasible"

    def test_duplicate_and_redundant_equality_rows(self):
        # rows 2 and 3 repeat row 1 (once scaled); an artificial stays basic
        # at zero on a redundant row and must not disturb the optimum
        A = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]]
        p = LpProblem(c=[1.0, 2.0, 1.0], A=A, b=[2.0, 2.0, 4.0, 3.0],
                      senses=[EQ] * 4, lower=np.zeros(3), upper=np.full(3, np.inf),
                      maximize=True)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(np.asarray(A) @ sol.x, [2.0, 2.0, 4.0, 3.0], atol=1e-9)
        assert sol.objective == pytest.approx(5.0)  # any x0 + x1 = 2 with x2 = 3 - x1
        assert solve_lp(p).pivots == sol.pivots

    def test_artificial_left_basic_at_zero_stays_at_zero(self):
        # phase 1 ends with row 2's artificial basic at level zero (x0 ties
        # both rows); raising x1 would raise that artificial, so phase 2 must
        # keep it at zero instead of reporting an unbounded ray
        p = LpProblem(c=[0.0, 1.0], A=[[1.0, 0.0], [1.0, -1.0]], b=[1.0, 1.0],
                      senses=[EQ, EQ], lower=np.zeros(2), upper=np.full(2, np.inf))
        sol = solve_lp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)

    def test_inconsistent_duplicate_equality_rows(self):
        p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[2.0, 3.0],
                      senses=[EQ, EQ], lower=np.zeros(2), upper=np.full(2, np.inf))
        assert solve_lp(p).status == "infeasible"

    def test_no_rows_with_finite_bounds(self):
        lower = np.array([0.0, -1.0, -np.inf, 1.0, -np.inf])
        upper = np.array([2.0, 4.0, np.inf, 5.0, 7.0])
        c = np.array([1.0, -2.0, 0.0, 3.0, 0.0])
        for maximize, expected in ((True, [2.0, -1.0, 0.0, 5.0, 7.0]),
                                   (False, [0.0, 4.0, 0.0, 1.0, 7.0])):
            p = LpProblem(c=c, A=np.zeros((0, 5)), b=[], senses=[], lower=lower,
                          upper=upper, maximize=maximize)
            sol = solve_lp(p)
            assert sol.status == "optimal"
            np.testing.assert_array_equal(sol.x, expected)
            assert sol.objective == pytest.approx(float(c @ np.asarray(expected)))

    @pytest.mark.parametrize("maximize", [True, False])
    def test_no_variables(self, maximize):
        sol = solve_lp(LpProblem(c=[], A=[], b=[], senses=[], lower=[], upper=[],
                                 maximize=maximize))
        assert sol.status == "optimal" and sol.objective == 0.0
        assert sol.x.shape == (0,) and sol.pivots == []

    def test_no_rows_unbounded_through_one_sided_bound(self):
        p = LpProblem(c=[1.0, -1.0], A=np.zeros((0, 2)), b=[], senses=[],
                      lower=[0.0, -np.inf], upper=[1.0, 3.0], maximize=False)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        np.testing.assert_array_equal(sol.x, [0.0, 3.0])
        p.maximize = True  # x1 falls without bound
        assert solve_lp(p).status == "unbounded"

    def test_mixed_geq_and_eq_rows_with_negative_rhs(self):
        # y = -1 - x from the equality; x - y >= -3 gives x >= -2; -x >= -4
        p = LpProblem(c=[2.0, 1.0], A=[[1.0, -1.0], [1.0, 1.0], [-1.0, 0.0]],
                      b=[-3.0, -1.0, -4.0], senses=[GEQ, EQ, GEQ],
                      lower=[-5.0, -5.0], upper=[5.0, 5.0], maximize=False)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-3.0)
        np.testing.assert_allclose(sol.x, [-2.0, 1.0], atol=1e-12)
        p.maximize = True  # x <= 4 binds, then y = -5 sits at its bound
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(3.0)
        np.testing.assert_allclose(sol.x, [4.0, -5.0], atol=1e-12)

    def test_bound_flips_in_repeatable_pivot_sequence(self):
        # the row never binds, so each variable flips to its upper bound
        p = LpProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[10.0], senses=[LEQ],
                      lower=[0.0, -1.0], upper=[1.0, 3.0], maximize=True)
        sol = solve_lp(p)
        assert sol.pivots == [(0, 0), (1, 1)]
        np.testing.assert_array_equal(sol.x, [1.0, 3.0])
        assert solve_lp(p).pivots == sol.pivots

    def test_general_bounds_match_enumeration(self):
        # the oracle takes A z <= b, 0 <= z <= upper: shift x = lower + z and
        # negate >= rows on the test side
        rng = np.random.default_rng(25)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            lower = rng.uniform(-3.0, 1.0, size=n)
            upper = lower + rng.uniform(0.5, 3.0, size=n)
            fixed = rng.random(n) < 0.2
            upper[fixed] = lower[fixed]
            A = rng.normal(size=(m, n))
            interior = rng.uniform(lower, upper)
            senses = [LEQ if s else GEQ for s in rng.integers(0, 2, size=m)]
            geq = np.array([s == GEQ for s in senses])
            b = A @ interior + np.where(geq, -1.0, 1.0) * rng.uniform(0.0, 2.0, size=m)
            c = rng.normal(size=n)
            maximize = bool(rng.integers(0, 2))

            flip = np.where(geq, -1.0, 1.0)
            A_z = flip[:, None] * A
            b_z = flip * (b - A @ lower)
            expected = enumerate_vertex_optimum(c, A_z, b_z, upper - lower, maximize)
            expected += float(c @ lower)
            sol = solve_lp(LpProblem(c=c, A=A, b=b, senses=senses, lower=lower,
                                     upper=upper, maximize=maximize))
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(expected, abs=1e-8)
            assert np.all(sol.x >= lower - 1e-9) and np.all(sol.x <= upper + 1e-9)
            assert np.all(flip * (A @ sol.x) <= flip * b + 1e-8)


def warm_tree(p, binaries, depth):
    """Branch ``p`` on its most fractional binary for ``depth`` levels and
    check every child's warm-started dual simplex against a cold solve_lp
    with the same bounds; returns (children, infeasible children).

    Every node is rebuilt from the root's optimal tableau from its basis,
    values and bounds, as branch-and-bound does.  A re-price after each
    optimal re-optimization must find no column to enter."""
    root = solve_lp(p)
    assert root.status == "optimal"
    n = p.n_vars
    base = root._tableau.as_base()
    open_nodes = [(base.basis, base.x, base.lower, base.upper, 0)]
    children = infeasible = 0
    while open_nodes:
        basis, x, lower, upper, level = open_nodes.pop()
        frac = [(min(x[i] - np.floor(x[i]), np.ceil(x[i]) - x[i]), -i) for i in binaries]
        gap, neg_var = max(frac)
        if gap <= 1e-6 or level == depth:
            continue
        var = -neg_var
        for value in (0.0, 1.0):
            tab = base.rebased(basis, x, lower, upper)
            tab.lower[var] = tab.upper[var] = value
            status = tab.reoptimize()
            cold = solve_lp(replace(p, lower=tab.lower[:n].copy(),
                                    upper=tab.upper[:n].copy()))
            children += 1
            assert status == cold.status
            if status != "optimal":
                infeasible += 1
                continue
            assert_no_entering_column(tab)
            warm_x = tab.x[:n]
            assert float(p.c @ warm_x) == pytest.approx(cold.objective, abs=1e-9)
            assert np.all(warm_x >= tab.lower[:n] - 1e-9)
            assert np.all(warm_x <= tab.upper[:n] + 1e-9)
            rows = p.A @ warm_x
            senses = np.asarray(p.senses)
            assert np.all(rows[senses == LEQ] <= p.b[senses == LEQ] + 1e-8)
            assert np.all(rows[senses == GEQ] >= p.b[senses == GEQ] - 1e-8)
            np.testing.assert_allclose(rows[senses == EQ], p.b[senses == EQ], atol=1e-8)
            open_nodes.append((tab.basis.copy(), tab.x.copy(), tab.lower.copy(),
                               tab.upper.copy(), level + 1))
    return children, infeasible


class TestWarmStartedChildren:
    """A child's dual simplex from its parent's basis agrees with a cold solve."""

    def test_random_binary_problems(self):
        rng = np.random.default_rng(41)
        children = infeasible = 0
        for _ in range(30):
            k, m = int(rng.integers(4, 9)), int(rng.integers(2, 5))
            A = rng.normal(size=(m, k))
            b = rng.uniform(-0.5, k * 0.4, size=m)
            p = LpProblem(c=rng.normal(size=k), A=A, b=b, senses=[LEQ] * m,
                          lower=np.zeros(k), upper=np.ones(k),
                          maximize=bool(rng.integers(0, 2)))
            if solve_lp(p).status != "optimal":
                continue
            got = warm_tree(p, range(k), depth=4)
            children += got[0]
            infeasible += got[1]
        assert children > 100 and infeasible > 0

    def test_random_mixed_problems_with_a_free_column(self):
        # binaries, one boxed continuous column and one free column that
        # only the rows bound, as the first-stage recourse variable is
        rng = np.random.default_rng(42)
        children = 0
        for _ in range(60):
            k, m = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            A = np.hstack([rng.normal(size=(m, k + 1)), np.ones((m, 1))])
            b = rng.uniform(0.0, 2.0, size=m)
            senses = [LEQ if s else GEQ for s in rng.integers(0, 3, size=m) > 0]
            senses[0] = LEQ  # the free column's coefficient caps it from above
            lower = np.concatenate([np.zeros(k), [-1.0, -np.inf]])
            upper = np.concatenate([np.ones(k), [2.0, np.inf]])
            c = np.concatenate([rng.normal(size=k + 1), [1.0]])
            p = LpProblem(c=c, A=A, b=b, senses=senses, lower=lower, upper=upper,
                          maximize=True)
            if solve_lp(p).status != "optimal":
                continue
            children += warm_tree(p, range(k), depth=4)[0]
        assert children > 50

    def test_infeasible_child(self):
        # x0 >= 0.5 and x0 <= 0.7 leave no binary value for x0
        p = LpProblem(c=[1.0, 1.0], A=[[1.0, 0.0], [1.0, 1.0]], b=[0.5, 1.2],
                      senses=[GEQ, LEQ], lower=np.zeros(2), upper=np.ones(2),
                      maximize=False)
        assert warm_tree(p, [0, 1], depth=1) == (2, 1)

    def test_equality_rows_with_an_artificial_basic_at_zero(self):
        # the second row repeats the first, so phase 1 leaves an artificial
        # basic at zero; x1 is fractional at the root
        p = LpProblem(c=[2.0, 1.0, 0.5], A=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                      b=[1.5, 3.0], senses=[EQ, EQ], lower=np.zeros(3),
                      upper=[1.0, 1.0, np.inf], maximize=True)
        root = solve_lp(p)
        assert root.x[1] == pytest.approx(0.5)
        assert np.any(root._tableau.basis >= p.n_vars + p.n_rows)
        children, infeasible = warm_tree(p, [0, 1], depth=2)
        assert (children, infeasible) == (4, 1)  # x1 = 1 leaves no room for x0 = 1


class TestAppendedRows:
    """``_Tableau.with_rows`` keeps every node's basis dual feasible: a node
    rebased on the extended base re-optimizes to a cold solve's optimum."""

    def test_nodes_rebased_on_the_extended_base_match_cold_solves(self):
        rng = np.random.default_rng(43)
        checked = infeasible = 0
        for _ in range(40):
            k, m, r = int(rng.integers(4, 8)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            A = rng.normal(size=(m + r, k))
            b = rng.uniform(-0.3, k * 0.4, size=m + r)
            p = box_lp(rng.normal(size=k), A[:m], b[:m], np.ones(k),
                       maximize=bool(rng.integers(0, 2)))
            root = solve_lp(p)
            if root.status != "optimal":
                continue
            base = root._tableau.as_base()
            before = base.T.copy()
            ext = base.with_rows(A[m:], b[m:])
            np.testing.assert_array_equal(base.T, before)
            assert ext.m == base.m + r and ext.n == base.n + r
            np.testing.assert_allclose(ext.T[: ext.m, ext.basis], np.eye(ext.m), atol=1e-12)
            # up to 15 nodes of a breadth-first tree that branches on
            # fractional, hence basic, binaries, taken as a search's leaves
            nodes, level = [(base.basis, base.x, base.lower, base.upper)], 0
            while level < len(nodes) and len(nodes) < 15:
                basis, x, lower, upper = nodes[level]
                level += 1
                fractional = np.flatnonzero(np.abs(x[:k] - np.round(x[:k])) > 1e-6)
                for value in (0.0, 1.0) if fractional.size else ():
                    tab = base.rebased(basis, x, lower, upper)
                    tab.lower[fractional[0]] = tab.upper[fractional[0]] = value
                    if tab.reoptimize() == "optimal":
                        nodes.append((tab.basis, tab.x, tab.lower, tab.upper))
            for basis, x, lower, upper in nodes:
                tab = ext.rebased(np.concatenate([basis, np.arange(base.n, ext.n)]),
                                  np.concatenate([x, b[m:] - A[m:] @ x[:k]]),
                                  np.concatenate([lower, np.zeros(r)]),
                                  np.concatenate([upper, np.full(r, np.inf)]))
                status = tab.reoptimize()
                cold = solve_lp(replace(p, A=A, b=b, senses=[LEQ] * (m + r),
                                        lower=lower[:k].copy(), upper=upper[:k].copy()))
                assert status == cold.status
                checked += 1
                if status != "optimal":
                    infeasible += 1
                    continue
                assert_no_entering_column(tab)
                got = tab.x[:k]
                assert float(p.c @ got) == pytest.approx(cold.objective, abs=1e-9)
                assert np.all(A @ got <= b + 1e-8)
                assert np.all((got >= lower[:k] - 1e-9) & (got <= upper[:k] + 1e-9))
        assert checked > 100 and infeasible > 0


def assert_feasible(p, x):
    """``x`` satisfies ``p``'s bounds and rows up to round-off."""
    assert np.all(x >= p.lower - 1e-9) and np.all(x <= p.upper + 1e-9)
    rows, senses = p.A @ x, np.asarray(p.senses)
    assert np.all(rows[senses == LEQ] <= p.b[senses == LEQ] + 1e-8)
    assert np.all(rows[senses == GEQ] >= p.b[senses == GEQ] - 1e-8)
    np.testing.assert_allclose(rows[senses == EQ], p.b[senses == EQ], atol=1e-8)


def assert_matches_a_cold_solve(q, start):
    """``solve_lp(q, start)`` agrees with a cold ``solve_lp(q)``: the same
    status, the objective within 1e-9 relative, a feasible ``x`` and an
    optimal basis; returns the status."""
    warm, cold = solve_lp(q, start=start), solve_lp(q)
    assert warm.status == cold.status
    assert not any(enter == leave for enter, leave in warm.pivots)  # no bound flip
    if warm.status == "optimal":
        assert warm.objective == pytest.approx(
            cold.objective, abs=1e-9 * max(1.0, abs(cold.objective)))
        assert_feasible(q, warm.x)
        assert_no_entering_column(warm._tableau)
    else:
        assert warm.x is None and warm._tableau is None
    return warm.status


def random_mixed_lp(rng):
    """A random LP over boxed, lower-only, upper-only, free and fixed columns
    with '<=', '=' and '>=' rows, and a point ``x0`` within its bounds."""
    n, m = int(rng.integers(3, 8)), int(rng.integers(2, 6))
    kinds = rng.integers(0, 5, size=n)  # boxed, lower-only, upper-only, free, fixed
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 3.0, size=n)
    lower[kinds == 2] = lower[kinds == 3] = -np.inf
    upper[(kinds == 1) | (kinds == 3)] = np.inf
    upper[kinds == 4] = lower[kinds == 4]
    x0 = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    x0 += np.where(kinds == 4, 0.0, rng.uniform(0.0, 0.5, size=n)
                   * np.where(kinds == 2, -1.0, 1.0))
    A = rng.normal(size=(m, n))
    senses = [(LEQ, EQ, GEQ)[k] for k in rng.integers(0, 3, size=m)]
    return (LpProblem(c=rng.normal(size=n), A=A, b=A @ x0, senses=senses,
                      lower=lower, upper=upper, maximize=bool(rng.integers(0, 2))),
            x0)


class TestNewRightHandSides:
    """``solve_lp(p.with_rhs(b), start)`` re-optimizes ``start``'s optimal
    basis by the dual simplex and agrees with a cold solve of the same LP."""

    @staticmethod
    def check_random_problems(seed, count):
        """Give each of ``count`` random LPs with an optimal reference 15 new
        right-hand sides; returns how many ended in each status."""
        rng = np.random.default_rng(seed)
        statuses = {"optimal": 0, "infeasible": 0}
        references = 0
        while references < count:
            p, x0 = random_mixed_lp(rng)
            reference = solve_lp(p)
            if reference.status != "optimal":
                continue
            references += 1
            tableau = reference._tableau.T.copy(), reference._tableau.x.copy()
            senses = np.asarray(p.senses)
            for _ in range(15):
                # half the right-hand sides hold a point near x0 with room on
                # the inequality rows, the others are drawn blind
                if rng.integers(0, 2):
                    x = np.clip(x0 + rng.normal(scale=0.3, size=p.n_vars), p.lower, p.upper)
                    room = rng.uniform(0.0, 1.0, size=p.n_rows)
                    b = p.A @ x + np.select([senses == LEQ, senses == GEQ], [room, -room])
                else:
                    b = rng.normal(scale=2.0, size=p.n_rows)
                statuses[assert_matches_a_cold_solve(p.with_rhs(b), reference)] += 1
            # the reference's own tableau is left as it was
            np.testing.assert_array_equal(reference._tableau.T, tableau[0])
            np.testing.assert_array_equal(reference._tableau.x, tableau[1])
        return statuses

    def test_random_mixed_problems_match_cold_solves(self):
        statuses = self.check_random_problems(44, 40)
        assert statuses["optimal"] > 250 and statuses["infeasible"] > 50

    def test_refactoring_at_every_pivot_uses_the_new_right_hand_side(self, monkeypatch):
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
        statuses = self.check_random_problems(45, 10)
        assert statuses["optimal"] > 50 and statuses["infeasible"] > 10

    def test_redundant_equality_rows_with_an_artificial_basic_at_zero(self):
        # rows 1 and 2 are one row, so the reference keeps an artificial
        # basic at zero; a new right-hand side either keeps them consistent
        # or makes the LP infeasible through that artificial
        A = [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]]
        p = LpProblem(c=[1.0, 2.0, 1.0], A=A, b=[2.0, 4.0, 3.0], senses=[EQ] * 3,
                      lower=np.zeros(3), upper=np.full(3, np.inf), maximize=True)
        reference = solve_lp(p)
        assert np.any(reference._tableau.basis >= p.n_vars + p.n_rows)
        for b, status in (([3.0, 6.0, 1.0], "optimal"), ([1.0, 2.0, 5.0], "optimal"),
                          ([3.0, 5.0, 1.0], "infeasible"), ([-1.0, -2.0, 1.0], "infeasible")):
            assert assert_matches_a_cold_solve(p.with_rhs(b), reference) == status

    def test_a_chain_of_right_hand_sides_and_the_same_problem(self):
        p = box_lp([3.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [4.0, 3.0], [np.inf, np.inf])
        reference = solve_lp(p)
        again = solve_lp(p, start=reference)  # the start's own problem
        assert again.pivots == [] and again.objective == reference.objective
        q = p.with_rhs([2.0, 1.0])
        first = solve_lp(q, start=reference)
        assert first.objective == pytest.approx(5.0)
        r = q.with_rhs([5.0, 5.0])  # started from the solution of q
        assert solve_lp(r, start=first).objective == pytest.approx(15.0)
        with pytest.raises(ValueError, match="made from it"):
            solve_lp(r, start=reference)  # r was made from q, not from p

    def test_with_rhs_shares_the_other_fields_and_refers_weakly(self):
        p = box_lp([1.0, 1.0], [[1.0, 2.0]], [4.0], [1.0, np.inf])
        q = p.with_rhs(np.array([5.0]))
        assert q.b.tolist() == [5.0] and p.b.tolist() == [4.0]
        for name in ("c", "A", "senses", "lower", "upper", "maximize"):
            assert getattr(q, name) is getattr(p, name)
        assert q._origin() is p
        assert set(vars(p)) == set(vars(replace(q))) == {
            "c", "A", "b", "senses", "lower", "upper", "maximize"}
        del p
        gc.collect()
        assert q._origin() is None

    def test_refusals(self):
        p = box_lp([1.0, 1.0], [[1.0, 2.0]], [4.0], [1.0, np.inf])
        reference = solve_lp(p)
        for b, match in (([np.nan], "finite"), ([np.inf], "finite"),
                         ([1.0, 2.0], "does not fit"), ([[1.0]], "does not fit")):
            with pytest.raises(ValueError, match=match):
                p.with_rhs(b)
        infeasible = solve_lp(box_lp([1.0], [[1.0]], [-1.0], [np.inf]))
        unbounded = solve_lp(LpProblem(c=[1.0], A=np.zeros((0, 1)), b=[], senses=[],
                                       lower=[0.0], upper=[np.inf]))
        for start in (infeasible, unbounded):
            with pytest.raises(ValueError, match="optimal solution"):
                solve_lp(box_lp([1.0], [[1.0]], [1.0], [np.inf]), start=start)
        twin = LpProblem(c=p.c, A=p.A, b=p.b, senses=p.senses, lower=p.lower,
                         upper=p.upper)
        # the same arrays, but neither the start's problem nor made from it
        for q in (twin, twin.with_rhs([2.0]), replace(p.with_rhs([2.0])),
                  MilpProblem(p.with_rhs([2.0]), []).with_rows(np.zeros((1, 2)),
                                                               [1.0]).lp):
            with pytest.raises(ValueError, match="made from it"):
                solve_lp(q, start=reference)
