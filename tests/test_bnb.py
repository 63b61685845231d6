import itertools

import numpy as np
import pytest

from nnfvi.bnb import MilpProblem, MilpSolution, solve_milp
from nnfvi.simplex import LEQ, LpProblem


def binary_milp(c, A, b, maximize=True, extra_continuous=0, cont_upper=None):
    """All-binary MILP, optionally with trailing continuous variables in [0, u]."""
    k = len(c) - extra_continuous
    n = len(c)
    lower = np.zeros(n)
    upper = np.ones(n)
    if extra_continuous:
        upper[k:] = cont_upper
    lp = LpProblem(c=c, A=A, b=b, senses=[LEQ] * len(b),
                   lower=lower, upper=upper, maximize=maximize)
    return MilpProblem(lp=lp, binary_indices=list(range(k)))


def enumerate_binary_optimum(c, A, b, maximize=True):
    """2^k oracle over all binary assignments (no continuous part)."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k = c.size
    codes = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    feasible = np.all(codes @ A.T <= b + 1e-9, axis=1)
    if not feasible.any():
        return None
    vals = codes[feasible] @ c
    return float(vals.max() if maximize else vals.min())


class TestExamples:
    def test_integral_relaxation_takes_zero_nodes(self):
        # box optimum already integral: maximize x1 + x2 with x <= 1 bounds only
        p = binary_milp([1.0, 1.0], np.zeros((1, 2)), [5.0])
        sol = solve_milp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)
        assert sol.node_count == 0

    def test_knapsack_kink(self):
        p = binary_milp([1.0, 1.0], [[1.0, 1.0]], [1.5])
        sol = solve_milp(p)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.node_count > 0

    def test_infeasible(self):
        p = binary_milp([1.0], [[1.0]], [-0.5])
        assert solve_milp(p).status == "infeasible"

    def test_unbounded_relaxation(self):
        lp = LpProblem(c=[1.0, 1.0], A=[[1.0, 0.0]], b=[1.0], senses=[LEQ],
                       lower=[0.0, 0.0], upper=[1.0, np.inf], maximize=True)
        sol = solve_milp(MilpProblem(lp=lp, binary_indices=[0]))
        assert sol.status == "unbounded"

    def test_binary_bound_validation(self):
        lp = LpProblem(c=[1.0], A=np.zeros((0, 1)), b=[], senses=[],
                       lower=[0.0], upper=[2.0], maximize=True)
        with pytest.raises(ValueError, match="bounds within"):
            MilpProblem(lp=lp, binary_indices=[0])


class TestRandomVsEnumeration:
    def _instance(self, rng, k, m):
        c = rng.normal(size=k)
        A = rng.normal(size=(m, k))
        b = rng.uniform(-0.5, k * 0.5, size=m)
        return c, A, b

    def test_ten_binaries(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            c, A, b = self._instance(rng, 10, m)
            maximize = bool(rng.integers(0, 2))
            expected = enumerate_binary_optimum(c, A, b, maximize)
            sol = solve_milp(binary_milp(c, A, b, maximize))
            if expected is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(expected, abs=1e-8)
                frac = np.abs(sol.x[:10] - np.round(sol.x[:10]))
                assert np.all(frac <= 1e-6)
                assert abs(sol.objective - sol.bound) <= 1e-6 + 1e-9

    def test_twelve_binaries(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            c, A, b = self._instance(rng, 12, 3)
            expected = enumerate_binary_optimum(c, A, b, True)
            sol = solve_milp(binary_milp(c, A, b, True))
            assert sol.objective == pytest.approx(expected, abs=1e-8)

    def test_caller_bounds_untouched(self):
        # nodes carry their own bound vectors; the caller's LP keeps its own
        rng = np.random.default_rng(35)
        searched = 0
        for _ in range(10):
            c, A, b = self._instance(rng, 8, 3)
            p = binary_milp(c, A, b, True)
            lower, upper = p.lp.lower, p.lp.upper
            sol = solve_milp(p)
            searched += sol.node_count > 2
            assert p.lp.lower is lower and p.lp.upper is upper
            np.testing.assert_array_equal(lower, np.zeros(8))
            np.testing.assert_array_equal(upper, np.ones(8))
        assert searched

    def test_bound_trace_monotone(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            c, A, b = self._instance(rng, 8, 3)
            sol = solve_milp(binary_milp(c, A, b, True))
            if sol.status != "optimal" or len(sol.bound_trace) < 2:
                continue
            trace = np.asarray(sol.bound_trace)
            assert np.all(np.diff(trace) <= 1e-7)

    def test_mixed_continuous(self):
        # binaries plus one continuous variable; oracle optimizes the
        # continuous part exactly for each binary assignment
        rng = np.random.default_rng(34)
        for _ in range(10):
            k = 6
            c = rng.normal(size=k + 1)
            A = rng.normal(size=(2, k + 1))
            b = rng.uniform(1.0, 3.0, size=2)
            u_cont = 2.0
            best = None
            for code in itertools.product((0.0, 1.0), repeat=k):
                # remaining 1-d LP in the continuous variable
                lo_feas, hi_feas = 0.0, u_cont
                rhs = b - A[:, :k] @ np.asarray(code)
                for row in range(2):
                    a = A[row, k]
                    if abs(a) < 1e-12:
                        if rhs[row] < -1e-9:
                            lo_feas, hi_feas = 1.0, 0.0  # infeasible
                        continue
                    bound = rhs[row] / a
                    if a > 0:
                        hi_feas = min(hi_feas, bound)
                    else:
                        lo_feas = max(lo_feas, bound)
                if lo_feas > hi_feas + 1e-12:
                    continue
                xc = hi_feas if c[k] > 0 else lo_feas
                val = float(np.asarray(code) @ c[:k] + c[k] * xc)
                if best is None or val > best:
                    best = val
            sol = solve_milp(binary_milp(c, A, b, True, extra_continuous=1,
                                         cont_upper=u_cont))
            if best is None:
                assert sol.status == "infeasible"
            else:
                assert sol.objective == pytest.approx(best, abs=1e-8)
