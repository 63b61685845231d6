import itertools

import numpy as np
import pytest

from nnfvi.simplex import LEQ, GEQ, EQ, LpProblem, solve_lp


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
