import collections
import dataclasses
import itertools
import weakref

import numpy as np
import pytest

from nnfvi import bnb
from nnfvi.bnb import MilpProblem, MilpSolution, solve_milp
from nnfvi.simplex import LEQ, LpProblem, _Tableau, solve_lp

from conftest import assert_no_entering_column


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

    def test_no_variables(self):
        lp = LpProblem(c=[], A=[], b=[], senses=[], lower=[], upper=[])
        sol = solve_milp(MilpProblem(lp=lp, binary_indices=[]))
        assert sol.status == "optimal" and sol.objective == 0.0 and sol.bound == 0.0
        assert sol.x.shape == (0,) and sol.node_count == 0

    def test_refuses_a_minimization(self):
        lp = LpProblem(c=[1.0], A=np.zeros((0, 1)), b=[], senses=[],
                       lower=[0.0], upper=[1.0], maximize=False)
        with pytest.raises(ValueError, match="maximizes only.*-c"):
            MilpProblem(lp=lp, binary_indices=[0])
        with pytest.raises(ValueError, match="maximizes only"):
            binary_milp([1.0], [[1.0]], [1.0], maximize=False)

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
            # a minimization is solved as the maximization of -c
            sign = 1.0 if maximize else -1.0
            sol = solve_milp(binary_milp(sign * c, A, b))
            if expected is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sign * sol.objective == pytest.approx(expected, abs=1e-8)
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


class TestWarmStartedSearch:
    """Children re-optimize from their parent's basis; reruns repeat."""

    def test_rerun_repeats_solution_nodes_trace_and_pivots(self):
        rng = np.random.default_rng(36)
        searched = 0
        for _ in range(15):
            c, A = rng.normal(size=9), rng.normal(size=(3, 9))
            b = rng.uniform(-0.5, 4.5, size=3)
            sign = 1.0 if rng.integers(0, 2) else -1.0  # a minimization negates c
            first = solve_milp(binary_milp(sign * c, A, b))
            again = solve_milp(binary_milp(sign * c, A, b))
            assert first.status == again.status
            if first.status == "optimal":
                np.testing.assert_array_equal(first.x, again.x)
                assert first.objective == again.objective
            assert first.node_count == again.node_count
            assert first.bound_trace == again.bound_trace
            assert first.lp_pivots == again.lp_pivots
            searched += first.node_count > 0
        assert searched

    def test_lp_pivots_count_root_and_children(self):
        p = binary_milp([1.0, 1.0], [[1.0, 1.0]], [1.5])
        root_pivots = len(solve_lp(p.lp).pivots)
        sol = solve_milp(p)
        assert sol.node_count > 0 and sol.lp_pivots > root_pivots
        integral = binary_milp([1.0, 1.0], np.zeros((1, 2)), [5.0])
        assert solve_milp(integral).lp_pivots == len(solve_lp(integral.lp).pivots) == 2


class TestBoundFlips:
    """``bound_flips`` counts the ``(j, j)`` pivots among ``lp_pivots``."""

    def test_an_optimum_reached_by_flips_alone(self):
        # each binary enters and meets its upper bound before any row blocks it
        integral = binary_milp([1.0, 1.0], np.zeros((1, 2)), [5.0])
        sol = solve_milp(integral)
        assert sol.node_count == 0
        assert sol.bound_flips == sol.lp_pivots == 2
        assert solve_lp(integral.lp).pivots == [(0, 0), (1, 1)]

    def test_root_and_node_flips_are_counted_apart_from_basis_changes(self, monkeypatch):
        # the oracle: the (j, j) entries of the root's and every node's pivots
        recorded = []
        reoptimize, lp = _Tableau.reoptimize, bnb.solve_lp

        def recording_reoptimize(self):
            status = reoptimize(self)
            recorded.extend(self.pivots)
            return status

        def recording_solve_lp(p, start=None):
            root = lp(p, start)
            recorded.extend(root.pivots)
            return root

        monkeypatch.setattr(_Tableau, "reoptimize", recording_reoptimize)
        monkeypatch.setattr(bnb, "solve_lp", recording_solve_lp)
        rng = np.random.default_rng(74)
        flipped = 0
        for _ in range(10):
            recorded.clear()
            sol = solve_milp(mixed_milp(rng, 8, 4))
            assert sol.lp_pivots == len(recorded)
            assert sol.bound_flips == sum(enter == leave for enter, leave in recorded)
            flipped += 0 < sol.bound_flips < sol.lp_pivots
        assert flipped

    def test_node_reoptimizations_never_flip_a_bound(self, monkeypatch):
        # the dual simplex enters a nonbasic column and removes a basic one,
        # so every flip solve_milp counts is one of the cold root's pivots
        recorded = []
        reoptimize = _Tableau.reoptimize

        def recording_reoptimize(self):
            status = reoptimize(self)
            recorded.extend(self.pivots)
            return status

        monkeypatch.setattr(_Tableau, "reoptimize", recording_reoptimize)
        rng = np.random.default_rng(74)
        for _ in range(10):
            solve_milp(mixed_milp(rng, 8, 4))
        assert recorded
        assert all(enter != leave for enter, leave in recorded)


class TestChildrenHandOverTheirArrays:
    def test_a_childs_basis_and_values_are_its_tableaus_and_stay_as_solved(
            self, monkeypatch):
        # a solved child's basis and column values go to the frontier without
        # a copy, and nothing in the rest of the search changes them
        solved = {}
        reoptimize = _Tableau.reoptimize

        def recording_reoptimize(self):
            status = reoptimize(self)
            if status == "optimal":
                solved[id(self.basis)] = (self.basis, self.basis.copy(), self.x,
                                          self.x.copy())
            return status

        monkeypatch.setattr(_Tableau, "reoptimize", recording_reoptimize)
        rng = np.random.default_rng(75)
        handed = 0
        for _ in range(10):
            solved.clear()
            sol = solve_milp(mixed_milp(rng, 8, 4))
            for _, basis, x, _ in sol._frontier.leaves:
                if id(basis) in solved:
                    own_basis, basis_then, own_x, x_then = solved[id(basis)]
                    assert basis is own_basis and x is own_x
                    assert bitwise_equal(basis, basis_then) and bitwise_equal(x, x_then)
                    handed += 1
        assert handed


def most_fractional_reference(x, binaries):
    """The per-element form of the branching rule: the first binary, in
    ascending order, whose distance to the nearest integer beats the best so
    far by more than 1e-15, starting from the integrality tolerance."""
    best_idx, best_frac = None, bnb.INTEGRALITY_TOL
    for i in binaries:
        frac = min(x[i] - np.floor(x[i]), np.ceil(x[i]) - x[i])
        if frac > best_frac + 1e-15:
            best_idx, best_frac = i, frac
    return best_idx


class TestMostFractional:
    TOL = bnb.INTEGRALITY_TOL
    SPECIAL = [0.0, 1.0, -0.0, 0.5, 0.25, 0.75, 0.3, 0.7, 0.4, 0.4 + 4e-16,
               0.4 - 4e-16, 0.6, 0.6 + 1e-15, TOL, 1.0 - TOL, TOL * (1 + 1e-12),
               1.0 - TOL * (1 + 1e-12), TOL + 1e-15, TOL + 2e-15, -1e-12,
               1.0 + 1e-12, 1.0 + 2 * TOL, -2 * TOL]

    def test_agrees_with_the_per_element_form(self):
        rng = np.random.default_rng(71)
        special = np.array(self.SPECIAL)
        for trial in range(400):
            size = int(rng.integers(1, 30))
            if trial % 2:  # drawn from values with exact and near ties
                x = rng.choice(special, size=size)
            else:
                x = rng.uniform(-0.2, 1.2, size=size)
                x[rng.random(size) < 0.3] = rng.choice(special)
            binaries = sorted(rng.choice(size, size=int(rng.integers(0, size + 1)),
                                         replace=False).tolist())
            assert bnb._most_fractional(x, binaries) == \
                most_fractional_reference(x, binaries)

    def test_ties_go_to_the_lowest_index(self):
        x = np.array([0.5, 0.25, 0.5, 0.5 + 4e-16, 0.5])
        assert bnb._most_fractional(x, [1, 2, 3, 4]) == 2
        assert bnb._most_fractional(x, [0, 1, 2, 3, 4]) == 0

    def test_within_the_integrality_tolerance_is_integral(self):
        x = np.array([self.TOL, 1.0 - self.TOL, 0.0, 1.0, self.TOL + 1e-15])
        assert bnb._most_fractional(x, [0, 1, 2, 3, 4]) is None
        assert bnb._most_fractional(x, []) is None


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOneRebuildPerExpansion:
    """A rebuilt node's tableau is copied for its 1-child instead of being
    rebuilt a second time; the copy must be exactly that second rebuild."""

    def test_the_1_childs_copy_is_a_fresh_rebuild_that_the_0_child_leaves_alone(
            self, monkeypatch):
        rebased, copy, reoptimize = _Tableau.rebased, _Tableau.copy, _Tableau.reoptimize
        last = {"rebuild": None, "inside": False}
        pending = {}  # id -> (copy, its arrays when made), kept alive until used
        checked = []

        def arrays(tab):
            return [a.copy() for a in (tab.T, tab.x, tab.basis, tab.lower, tab.upper)]

        def unrecorded_rebased(self, *node):
            last["inside"] = True
            try:
                return rebased(self, *node)
            finally:
                last["inside"] = False

        def recording_rebased(self, basis, x, lower, upper):
            last["rebuild"] = (self, basis.copy(), x.copy(), lower.copy(), upper.copy())
            return unrecorded_rebased(self, basis, x, lower, upper)

        def checking_copy(self):
            dup = copy(self)
            if not last["inside"]:  # a copy that search makes, not rebased's own
                base, *node = last["rebuild"]
                fresh = unrecorded_rebased(base, *node)
                assert all(bitwise_equal(a, b) for a, b in zip(arrays(dup), arrays(fresh)))
                pending[id(dup)] = dup, arrays(dup)
            return dup

        def checking_reoptimize(self):
            if id(self) in pending:  # the 1-child: only its branch bound moved
                _, (T, x, basis, lower, upper) = pending.pop(id(self))
                assert bitwise_equal(self.T, T) and bitwise_equal(self.x, x)
                assert bitwise_equal(self.basis, basis)
                moved = np.flatnonzero((self.lower != lower) | (self.upper != upper))
                assert moved.size == 1
                assert self.lower[moved[0]] == self.upper[moved[0]] == 1.0
                checked.append(int(moved[0]))
            return reoptimize(self)

        monkeypatch.setattr(_Tableau, "rebased", recording_rebased)
        monkeypatch.setattr(_Tableau, "copy", checking_copy)
        monkeypatch.setattr(_Tableau, "reoptimize", checking_reoptimize)
        rng = np.random.default_rng(72)
        for _ in range(10):
            solve_milp(mixed_milp(rng, 8, 4))
        assert checked and not pending

    def test_no_tableau_is_reoptimized_twice_in_one_search(self, monkeypatch):
        # every child starts from a rebuild or its copy; none works in a
        # tableau that an earlier child has already re-optimized
        reoptimize = _Tableau.reoptimize
        seen = []

        def recording_reoptimize(self):
            assert not any(tab is self for tab in seen)
            seen.append(self)
            return reoptimize(self)

        monkeypatch.setattr(_Tableau, "reoptimize", recording_reoptimize)
        rng = np.random.default_rng(72)
        children = 0
        for _ in range(10):
            solve_milp(mixed_milp(rng, 8, 4))
            children += len(seen)
            seen.clear()
        assert children

    def test_at_most_one_rebuild_per_expanded_node(self, monkeypatch):
        rebuilds = []
        rebased = _Tableau.rebased

        def counting_rebased(self, *args):
            rebuilds.append(1)
            return rebased(self, *args)

        monkeypatch.setattr(_Tableau, "rebased", counting_rebased)
        rng = np.random.default_rng(73)
        for _ in range(10):
            sol = solve_milp(mixed_milp(rng, 8, 4))
            # each expansion solves two children, so node_count is twice the
            # expansions, and each rebuilds at most once
            assert len(rebuilds) <= sol.node_count // 2
            rebuilds.clear()


def mixed_milp(rng, k, m):
    """``k`` binaries plus a free column capped only by the rows, as the
    first-stage recourse variable is."""
    A = np.hstack([rng.normal(size=(m, k)), np.ones((m, 1))])
    lp = LpProblem(c=np.concatenate([rng.normal(size=k), [1.0]]), A=A,
                   b=rng.uniform(0.0, 2.0, size=m), senses=[LEQ] * m,
                   lower=np.concatenate([np.zeros(k), [-np.inf]]),
                   upper=np.concatenate([np.ones(k), [np.inf]]), maximize=True)
    return MilpProblem(lp=lp, binary_indices=list(range(k)))


def signed_binary_milp(rng, k, m):
    """``k`` binaries under ``m`` rows, an objective to maximize or, on the
    draw's other side, to minimize, posed as the maximization of ``-c``."""
    c, A = rng.normal(size=k), rng.normal(size=(m, k))
    b = rng.uniform(0.5, k * 0.5, size=m)
    return binary_milp(c if rng.integers(0, 2) else -c, A, b)


class TestResumedSearch:
    """A search resumed after appending rows agrees with a cold solve."""

    @staticmethod
    def _cuts(rng, p, x, count):
        # rows that cut off the current optimum ``x``
        A = rng.normal(size=(count, p.lp.n_vars))
        if p.lp.upper[-1] == np.inf:
            A[:, -1] = np.abs(A[:, -1]) + 0.5  # keep the free column capped
        return A, A @ x - rng.uniform(0.05, 0.5, size=count)

    @staticmethod
    def _infeasible_row(p):
        # the binaries must sum past their count
        a = np.zeros(p.lp.n_vars)
        a[p.binary_indices] = -1.0
        return a[None, :], np.array([-len(p.binary_indices) - 1.0])

    def _rounds(self, rng, p, rounds):
        """Solve ``p`` cold, then resume it through ``rounds`` rounds of
        appended rows, the last one infeasible; yields (problem, resumed)."""
        sol = solve_milp(p, tol=1e-9)
        for round_ in range(rounds):
            if sol.status == "optimal" and round_ < rounds - 1:
                A, b = self._cuts(rng, p, sol.x, int(rng.integers(1, 4)))
            else:
                A, b = self._infeasible_row(p)
            p = p.with_rows(A, b)
            sol = solve_milp(p, tol=1e-9, resume=sol)
            yield p, sol

    @pytest.mark.parametrize("mixed", [False, True])
    def test_rounds_match_cold_solves(self, mixed):
        rng = np.random.default_rng(37 + mixed)
        resumed_nodes = infeasible_rounds = 0
        for _ in range(15):
            k, m = int(rng.integers(5, 9)), int(rng.integers(1, 4))
            p = mixed_milp(rng, k, m) if mixed else signed_binary_milp(rng, k, m)
            for q, sol in self._rounds(rng, p, rounds=5):
                cold = solve_milp(q, tol=1e-9)
                assert sol.status == cold.status
                resumed_nodes += sol.node_count
                if sol.status != "optimal":
                    infeasible_rounds += 1
                    continue
                assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
                x = sol.x
                assert np.all(np.abs(x[:k] - np.round(x[:k])) <= 1e-6)
                assert np.all(q.lp.A @ x <= q.lp.b + 1e-8)
                assert np.all((x >= q.lp.lower - 1e-9) & (x <= q.lp.upper + 1e-9))
                assert q.lp.c @ x == pytest.approx(sol.objective, abs=1e-12)
                assert sol.bound - sol.objective <= 1e-9 + 1e-12
                assert np.all(np.diff(sol.bound_trace) <= 1e-7)
        assert resumed_nodes > 100 and infeasible_rounds >= 15

    def test_rerun_repeats_nodes_trace_and_pivots(self):
        rng = np.random.default_rng(38)
        searched = 0
        for trial in range(10):
            p = mixed_milp(rng, 7, 3)
            one, two = ([(q, sol) for q, sol in self._rounds(np.random.default_rng(trial), p, 4)]
                        for _ in range(2))
            for (q, a), (_, b) in zip(one, two):
                assert a.status == b.status
                if a.status == "optimal":
                    np.testing.assert_array_equal(a.x, b.x)
                    assert a.objective == b.objective and a.bound == b.bound
                assert a.node_count == b.node_count
                assert a.bound_trace == b.bound_trace
                assert a.lp_pivots == b.lp_pivots
                searched += a.node_count > 0
        assert searched

    def test_a_solution_resumes_once(self):
        rng = np.random.default_rng(44)
        p = mixed_milp(rng, 6, 3)
        sol = solve_milp(p, tol=1e-9)
        q = p.with_rows(*self._cuts(rng, p, sol.x, 1))
        solve_milp(q, tol=1e-9, resume=sol)
        with pytest.raises(ValueError, match="resumes once"):
            solve_milp(q, tol=1e-9, resume=sol)

    def test_no_new_rows_carries_every_leaf_over_without_a_node_or_pivot(self):
        # with no rows appended every leaf is still optimal, so none is re-solved
        rng = np.random.default_rng(39)
        p = mixed_milp(rng, 7, 3)
        sol = solve_milp(p, tol=1e-9)
        x, objective, bound = sol.x.copy(), sol.objective, sol.bound
        assert sol.node_count > 0
        again = solve_milp(p, tol=1e-9, resume=sol)
        assert again.status == "optimal"
        assert again.node_count == 0 and again.lp_pivots == 0
        np.testing.assert_array_equal(again.x, x)
        assert again.objective == objective and again.bound == bound

    def test_leaves_the_new_rows_leave_feasible_are_carried_over(self, monkeypatch):
        # each appended row cuts off the optimum, and on some instances some
        # other leaves but not all.  A re-solve counts one node and files at
        # most one leaf (filing calls _most_fractional once), so more leaves
        # filed than nodes counted means some leaf was carried over as it stood
        real = bnb._most_fractional
        filed = []
        monkeypatch.setattr(bnb, "_most_fractional",
                            lambda x, binaries: filed.append(1) or real(x, binaries))
        rng = np.random.default_rng(41)
        mixed_cut = surplus = 0
        for _ in range(10):
            p = mixed_milp(rng, 8, 3)
            sol = solve_milp(p, tol=1e-9)
            A, b = self._cuts(rng, p, sol.x, 1)
            room = [(b - A @ x[:p.lp.n_vars]).min() for _, _, x, _ in sol._frontier.leaves]
            mixed_cut += min(room) < 0 <= max(room)
            q = p.with_rows(A, b)
            filed.clear()
            resumed = solve_milp(q, tol=1e-9, resume=sol)
            surplus += len(filed) - resumed.node_count
            cold = solve_milp(q, tol=1e-9)
            assert resumed.status == cold.status == "optimal"
            assert resumed.objective == pytest.approx(cold.objective, abs=1e-9)
            assert np.all(q.lp.A @ resumed.x <= q.lp.b + 1e-8)
        assert mixed_cut and surplus > 0

    def test_refuses_a_problem_that_is_not_the_old_one_plus_leq_rows(self):
        rng = np.random.default_rng(40)
        p = mixed_milp(rng, 6, 3)
        sol = solve_milp(p, tol=1e-9)
        lp = p.lp
        changed_row = lp.A.copy()
        changed_row[1, 0] += 1.0
        variants = [
            MilpProblem(lp=LpProblem(c=lp.c, A=changed_row, b=lp.b, senses=lp.senses,
                                     lower=lp.lower, upper=lp.upper), binary_indices=range(6)),
            MilpProblem(lp=LpProblem(c=lp.c, A=lp.A[:2], b=lp.b[:2], senses=lp.senses[:2],
                                     lower=lp.lower, upper=lp.upper), binary_indices=range(6)),
            MilpProblem(lp=LpProblem(c=-lp.c, A=lp.A, b=lp.b, senses=lp.senses,
                                     lower=lp.lower, upper=lp.upper), binary_indices=range(6)),
            MilpProblem(lp=lp, binary_indices=range(5)),
            MilpProblem(lp=LpProblem(c=lp.c, A=np.vstack([lp.A, lp.A[:1]]),
                                     b=np.append(lp.b, 1.0), senses=lp.senses + [">="],
                                     lower=lp.lower, upper=lp.upper),
                        binary_indices=range(6)),
        ]
        for q in variants:
            with pytest.raises(ValueError, match="trailing '<=' rows"):
                solve_milp(q, tol=1e-9, resume=sol)
        with pytest.raises(ValueError, match="carries no search"):
            solve_milp(p, resume=MilpSolution(status="optimal"))

    def test_refuses_an_equal_copy_and_a_sibling_of_the_solved_problem(self):
        # the check is by ancestry: a copy equal to the grown problem row for
        # row was not grown by with_rows, and a problem grown from the solved
        # problem's parent is its sibling, not its child
        rng = np.random.default_rng(45)
        p = mixed_milp(rng, 6, 3)
        first = solve_milp(p, tol=1e-9)
        A, b = self._cuts(rng, p, first.x, 1)
        q = p.with_rows(A, b)
        sol = solve_milp(q, tol=1e-9, resume=first)
        A2, b2 = self._cuts(rng, q, sol.x, 1)
        grown = q.with_rows(A2, b2)
        lp = grown.lp
        twin = MilpProblem(lp=LpProblem(c=lp.c, A=lp.A, b=lp.b, senses=lp.senses,
                                        lower=lp.lower, upper=lp.upper),
                           binary_indices=grown.binary_indices)
        for r in (twin, p.with_rows(A2, b2)):
            with pytest.raises(ValueError, match="trailing '<=' rows"):
                solve_milp(r, tol=1e-9, resume=sol)
        assert solve_milp(grown, tol=1e-9, resume=sol).status == "optimal"

    def test_with_rows_validates_only_the_new_rows_and_leaves_the_problem_as_is(self):
        p = mixed_milp(np.random.default_rng(46), 4, 2)
        n = p.lp.n_vars
        for A, b in ((np.array([[1.0, np.inf] + [0.0] * (n - 2)]), [1.0]),
                     (np.ones((1, n)), [np.nan])):
            with pytest.raises(ValueError, match="finite"):
                p.with_rows(A, b)
        for A, b in ((np.ones((1, n - 1)), [1.0]), (np.ones((1, n + 1)), [1.0]),
                     (np.ones((2, n)), [1.0]), (np.ones(n), [1.0])):
            with pytest.raises(ValueError, match="do not fit"):
                p.with_rows(A, b)
        A = np.arange(2.0 * n).reshape(2, n)
        q = p.with_rows(A, [3.0, 4.0])
        assert p.lp.n_rows == 2 and len(p.lp.senses) == 2
        np.testing.assert_array_equal(q.lp.A, np.vstack([p.lp.A, A]))
        np.testing.assert_array_equal(q.lp.b, np.append(p.lp.b, [3.0, 4.0]))
        assert q.lp.senses == ["<="] * 4 and q.binary_indices is p.binary_indices
        assert q.lp.c is p.lp.c and q.lp.maximize == p.lp.maximize
        assert q.lp.lower is p.lp.lower and q.lp.upper is p.lp.upper

    def test_a_long_grow_and_resume_chain_frees_the_first_problem(self):
        # a grown problem refers to its parent weakly and a solution's
        # frontier holds only its own problem, so a chain of resumed masters
        # keeps none of the earlier ones alive
        p = mixed_milp(np.random.default_rng(47), 6, 3)
        first = weakref.ref(p)
        rounds = self._rounds(np.random.default_rng(48), p, rounds=20)
        del p
        solved = 0
        for last, sol in rounds:  # only the last problem stays alive
            solved += 1
        assert solved == 20 and first() is None
        assert sol._frontier.problem is last and last._parent() is None

    def test_resuming_an_infeasible_root_stays_infeasible(self):
        p = binary_milp([1.0, 1.0], [[1.0, 1.0]], [-0.5])
        sol = solve_milp(p)
        assert sol.status == "infeasible"
        again = solve_milp(p.with_rows(np.array([[1.0, 0.0]]), np.array([0.5])), resume=sol)
        assert again.status == "infeasible"


class TestCutoff:
    """An objective cutoff drops only leaves best-first search never pops,
    and reports an optimum below it as infeasible."""

    @staticmethod
    def _chain(seed, cutoffs):
        """Solve a random MILP cold with ``cutoffs[0]``, then resume it
        through rounds of rows cutting off each optimum, round ``r`` with
        ``cutoffs[r]``, until the cutoffs run out or a round is infeasible;
        returns (solution, cutoff, carried leaves) per round."""
        rng = np.random.default_rng(seed)
        k, m = int(rng.integers(5, 9)), int(rng.integers(1, 4))
        p = mixed_milp(rng, k, m) if seed % 2 else signed_binary_milp(rng, k, m)
        rounds, sol = [], None
        for cutoff in cutoffs:
            if sol is not None:
                p = p.with_rows(*TestResumedSearch._cuts(rng, p, sol.x,
                                                         int(rng.integers(1, 4))))
            sol = solve_milp(p, tol=1e-9, resume=sol, cutoff=cutoff)
            rounds.append((sol, cutoff, list(sol._frontier.leaves)))
            if sol.status != "optimal":
                break
        return rounds

    def test_a_cutoff_at_or_below_every_later_optimum_changes_nothing(self):
        # a resumed round's cutoff must not exceed any later round's optimum,
        # since the leaves it drops are gone for good; the optima only fall
        # as rows are appended, so round r's cutoff is the smallest optimum
        # from r on, the round's own optimum in the last feasible round
        dropped = 0
        for seed in range(30):
            plain = self._chain(seed, [-np.inf] * 6)
            optima = [sol.objective for sol, _, _ in plain if sol.status == "optimal"]
            margin = [0.0, 1e-6, 0.5][seed % 3]
            cutoffs = [min(optima[r:]) - margin for r in range(len(optima))]
            cut = self._chain(seed, cutoffs)
            assert len(cut) == len(optima) == len(plain) - (plain[-1][0].status != "optimal")
            for (a, _, plain_leaves), (b, cutoff, leaves) in zip(plain, cut):
                assert (a.status, a.objective, a.bound, a.node_count, a.lp_pivots,
                        a.bound_flips, a.bound_trace) == (
                    b.status, b.objective, b.bound, b.node_count, b.lp_pivots,
                    b.bound_flips, b.bound_trace)
                np.testing.assert_array_equal(a.x, b.x)
                assert all(bound >= cutoff for bound, *_ in leaves)
                assert len(leaves) <= len(plain_leaves)
                dropped += len(plain_leaves) - len(leaves)
        assert dropped > 0

    def test_a_cutoff_above_the_optimum_is_infeasible_cold_and_resumed(self):
        checked = 0
        for seed in range(12):
            plain = self._chain(seed, [-np.inf] * 2)
            if len(plain) < 2 or plain[1][0].status != "optimal":
                continue  # the first round of rows left nothing feasible
            (cold, _, _), (resumed, _, _) = plain
            ((above, _, leaves),) = self._chain(seed, [cold.objective + 1e-3])
            assert above.status == "infeasible" and above.x is None and not leaves
            _, (again, _, leaves) = self._chain(seed, [-np.inf, resumed.objective + 1e-3])
            assert again.status == "infeasible" and again.x is None and not leaves
            checked += 1
        assert checked >= 8


class TestStartedRoot:
    """``solve_milp(p, start=root)`` re-optimizes the root LP from the
    optimal root of the problem ``p.lp`` was made from by ``with_rhs``,
    agrees with a cold solve, and leaves the start as it was."""

    def test_problems_that_differ_in_b_alone_match_cold_solves(self):
        statuses = collections.Counter()
        for seed in range(30):
            rng = np.random.default_rng(seed + 700)
            k, m = int(rng.integers(5, 9)), int(rng.integers(1, 4))
            first = mixed_milp(rng, k, m) if seed % 2 else signed_binary_milp(rng, k, m)
            root = solve_milp(first, tol=1e-9).root
            assert root.status == "optimal" and root._problem is first.lp
            tab = root._tableau
            kept = [a.copy() for a in (tab.T, tab.K, tab.b, tab.x, tab.basis, tab.lower,
                                       tab.upper)]
            for _ in range(8):
                b = first.lp.b + rng.normal(scale=2.0, size=m)
                lp = first.lp.with_rhs(b)
                started = solve_milp(MilpProblem(lp, first.binary_indices), tol=1e-9,
                                     start=root)
                cold = solve_milp(MilpProblem(dataclasses.replace(first.lp, b=b),
                                              first.binary_indices), tol=1e-9)
                assert started.status == cold.status
                statuses[cold.status] += 1
                if cold.status == "optimal":
                    assert abs(started.objective - cold.objective) <= 1e-9
                    assert started.root._problem is lp
                    assert (lp.A @ started.x <= b + 1e-9).all()
                    x = started.x[first.binary_indices]
                    assert np.allclose(x, np.round(x), atol=1e-6)
            # the start's own tableau is left as it was, for the next problem
            for array, copy in zip((tab.T, tab.K, tab.b, tab.x, tab.basis, tab.lower,
                                    tab.upper), kept):
                np.testing.assert_array_equal(array, copy)
        assert statuses["optimal"] > 200 and statuses["infeasible"] > 5

    def test_a_start_that_is_not_the_problems_origin_is_refused(self):
        rng = np.random.default_rng(3)
        p, q = mixed_milp(rng, 6, 3), mixed_milp(rng, 6, 3)
        root = solve_milp(p).root
        with pytest.raises(ValueError, match="with_rhs"):
            solve_milp(q, start=root)
        # an equal copy of the problem is not made from it either
        with pytest.raises(ValueError, match="with_rhs"):
            solve_milp(MilpProblem(dataclasses.replace(p.lp), p.binary_indices),
                       start=root)

    def test_a_resumed_search_takes_no_start_and_reports_no_root(self):
        rng = np.random.default_rng(4)
        p = mixed_milp(rng, 6, 3)
        sol = solve_milp(p)
        with pytest.raises(ValueError, match="resumed"):
            solve_milp(p, resume=sol, start=sol.root)
        assert solve_milp(p, resume=sol).root is None


class TestNodesStopAtOptimality:
    """A node's dual simplex stops once its basic values are within their
    bounds; a re-price there must find no column to enter."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_no_reprice_would_pivot_in_cold_and_resumed_searches(self, monkeypatch,
                                                                    mixed):
        reoptimize, checked = _Tableau.reoptimize, []

        def checking_reoptimize(self):
            status = reoptimize(self)
            if status == "optimal":
                assert_no_entering_column(self)
                checked.append(bool(self.pivots))  # a node that moved at all
            return status

        monkeypatch.setattr(_Tableau, "reoptimize", checking_reoptimize)
        rng = np.random.default_rng(81 + mixed)
        resumed = 0
        for _ in range(10):
            k, m = int(rng.integers(5, 9)), int(rng.integers(1, 4))
            p = mixed_milp(rng, k, m) if mixed else signed_binary_milp(rng, k, m)
            for _, sol in TestResumedSearch()._rounds(rng, p, rounds=4):
                resumed += sol.node_count
        assert sum(checked) > 50 and resumed > 50
