import dataclasses
import functools
import itertools

import numpy as np
import pytest

from nnfvi.cuts import (
    RecourseContext,
    binary_encoding,
    combined_cut,
    integer_optimality_cut,
    recourse_upper_bound,
)
from nnfvi.mcd import (
    McdConfig,
    StageReward,
    build_first_stage,
    linear_stage_reward,
    select_action,
    select_action_bruteforce,
    trace_dtype,
)
from nnfvi import cuts, fvi, mcd
from nnfvi.bnb import MilpSolution, NodeLimitError, solve_milp
from nnfvi.cli import make_bench_instance
from nnfvi.mcip import build_mcip_mdp, synthetic_instance
from nnfvi.mdp import ENUMERATION_CAP, ActionBox, enumerate_actions, sample_states
from nnfvi.neural import ReluNet, TrainConfig
from nnfvi.simplex import LpNumericalError, LpProblem

from conftest import integer_cut_rhs, random_affine_spec, random_context
from test_cuts import forward_oracle_recourse


def exhaustive_optimum(ctx, reward_of):
    """Two-loop enumeration oracle, independent of the vectorized paths;
    ``reward_of(a)`` is the test's own formula for the stage reward."""
    best_val, best_a = -np.inf, None
    gamma = ctx.spec.discount
    for a in enumerate_actions(ctx.spec.action_box):
        val = reward_of(a) + gamma * forward_oracle_recourse(ctx, a) \
            + gamma * ctx.net.output_bias
        if val > best_val + 1e-15:
            best_val, best_a = val, a
    return best_val, best_a


def with_all_cuts(ctx, enc, reward, eta_bar, int_cuts, comb_cuts):
    """``build_first_stage`` plus one ``with_cuts`` per integer cut, the
    ``k``-th given the ``k``-th combined cut too when there is one."""
    fp = build_first_stage(ctx, enc, reward, eta_bar)
    for int_cut, comb_cut in itertools.zip_longest(int_cuts, comb_cuts):
        fp = fp.with_cuts(int_cut, comb_cut)
    return fp


def reward_terms(ctx, seed=0, scale=1.0):
    """Gain vector and constant of a random linear stage reward."""
    rng = np.random.default_rng(seed)
    gain = rng.normal(size=ctx.spec.action_box.dims) * scale
    return gain, float(rng.normal())


def make_reward(ctx, seed=0, scale=1.0):
    gain, constant = reward_terms(ctx, seed, scale)
    return linear_stage_reward(gain, constant=constant)


def adjustment_reward():
    """Two-piece MCIP-shaped reward on a 3-D box, the middle dimension
    without pieces, and its per-action formula written out directly."""
    capacity = np.array([1.0, 2.0, 2.0])
    q_minus = np.array([0.5, 0.0, 1.0])
    q_plus = np.array([3.0, 0.0, 2.5])
    reward = StageReward(constant=4.25, pieces=[
        [(-q_minus[n], q_minus[n] * capacity[n]),
         (-q_plus[n], q_plus[n] * capacity[n])] if n != 1 else []
        for n in range(3)])

    def reward_of(a):
        delta = np.asarray(a, dtype=float) - capacity
        return 4.25 - sum(max(q_minus[n] * delta[n], q_plus[n] * delta[n])
                          for n in (0, 2))

    return reward, reward_of


class TestStageReward:
    def test_linear_pieces_match_callback(self):
        ctx = random_context(0, n2=3, a_bar=[2, 2, 2])
        gain, constant = reward_terms(ctx, seed=1)
        reward = linear_stage_reward(gain, constant=constant)
        actions = enumerate_actions(ctx.spec.action_box)
        expected = [constant + sum(g * v for g, v in zip(gain, a)) for a in actions]
        np.testing.assert_allclose(reward.values(actions), expected,
                                   rtol=1e-14, atol=1e-14)

    def test_symmetric_adjustment_collapses_to_one_line(self):
        # equal up/down slopes make max{q(a-k), q(a-k)} a single affine piece
        q = 2.0
        k_prev = 1.0
        reward = StageReward(constant=0.0, pieces=[[(-q, q * k_prev)]])
        actions = np.arange(4).reshape(-1, 1)
        expected = [-max(q * (a[0] - k_prev), q * (a[0] - k_prev)) for a in actions]
        np.testing.assert_array_equal(reward.values(actions), expected)

    def test_two_piece_values_match_per_action_loop(self):
        reward, reward_of = adjustment_reward()
        actions = enumerate_actions(ActionBox(np.array([3, 2, 4])))
        expected = [reward_of(a) for a in actions]
        np.testing.assert_allclose(reward.values(actions), expected,
                                   rtol=1e-14, atol=1e-14)


class TestBoxMaximum:
    """The box maximum ``StageReward.box_bound`` computes against
    enumeration of the integer box: without a gain bit for bit, with one to
    round-off."""

    @staticmethod
    def enumerated_max(reward, upper_bounds, gain=None):
        actions = enumerate_actions(ActionBox(np.asarray(upper_bounds, dtype=np.int64)))
        values = reward.values(actions)
        return float((values if gain is None else values + actions @ gain).max())

    @classmethod
    def check(cls, reward, upper_bounds, gain):
        bound = reward.box_bound(upper_bounds)
        assert bound().hex() == cls.enumerated_max(reward, upper_bounds).hex()
        # the bound adds gain_n a_n per dimension, the enumeration adds
        # gain @ a to the whole reward: the sums differ by round-off
        assert abs(bound(gain) - cls.enumerated_max(reward, upper_bounds, gain)) <= 1e-12

    @staticmethod
    def random_reward(rng):
        dims = int(rng.integers(1, 4))
        upper_bounds = rng.integers(0, 6, size=dims)
        pieces = [[(float(rng.normal()), float(rng.normal() * 3))
                   for _ in range(int(rng.integers(0, 5)))] for _ in range(dims)]
        return StageReward(constant=float(rng.normal()), pieces=pieces), upper_bounds

    def test_random_concave_pieces_bound_the_integer_maximum(self):
        rng = np.random.default_rng(91)
        for _ in range(500):
            reward, upper_bounds = self.random_reward(rng)
            self.check(reward, upper_bounds, rng.normal(size=len(upper_bounds)) * 2)

    def test_random_gains_bound_the_integer_maximum(self):
        rng = np.random.default_rng(94)
        for _ in range(200):
            reward, upper_bounds = self.random_reward(rng)
            gain = rng.normal(size=len(upper_bounds)) * 2
            self.check(reward, upper_bounds, gain)
            # one box_bound serves every gain, and a gain leaves it as it was
            fresh, reused = reward.box_bound(upper_bounds), reward.box_bound(upper_bounds)
            reused(gain)
            assert (reused(), reused(np.zeros_like(gain)), reused(gain)) == \
                (fresh(), fresh(), fresh(gain))

    @pytest.mark.parametrize("capacity", [0.5, 1.5, 2.25, 2.0])
    def test_mcip_two_piece_shape(self, capacity):
        # -max(q_minus (a - K), q_plus (a - K)) with the pieces crossing at K,
        # a fractional K between levels or an integral one on a level
        upper_bounds = np.array([3, 0, 4])
        for q_minus, q_plus in ((0.5, 3.0), (-1.0, 2.0), (-2.0, -0.5)):
            reward = StageReward(constant=1.5, pieces=[
                [(-q_minus, q_minus * capacity), (-q_plus, q_plus * capacity)]] * 3)
            self.check(reward, upper_bounds, np.array([0.7, -1.3, 2.1]))

    def test_pieces_crossing_on_a_level_are_not_undercut_by_round_off(self):
        # a rising and a falling piece peak where they cross, on a level;
        # the crossing, computed off the level by round-off, often evaluates
        # a few ulps below the level's value as values() computes it
        rng = np.random.default_rng(93)
        for _ in range(500):
            level = float(rng.integers(1, 5))
            rise, fall = abs(rng.normal()), -abs(rng.normal())
            top = rng.normal()
            reward = StageReward(constant=float(rng.normal()), pieces=[
                [(rise, top - rise * level), (fall, top - fall * level)], []])
            self.check(reward, [6, 2], rng.normal(size=2))

    def test_one_piece_and_piece_free_rewards_are_exact(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            upper_bounds = rng.integers(0, 5, size=3)
            gain = rng.normal(size=3)
            linear = linear_stage_reward(rng.normal(size=3), constant=float(rng.normal()))
            self.check(linear, upper_bounds, gain)
            flat = StageReward(constant=float(rng.normal()), pieces=[[], [], []])
            self.check(flat, upper_bounds, gain)
            assert flat.box_bound(upper_bounds)() == flat.constant

    def test_zero_bounds_evaluate_the_zero_action(self):
        reward, _ = adjustment_reward()
        zero = np.zeros(3, dtype=np.int64)
        assert reward.box_bound(zero)(np.ones(3)).hex() == \
            reward.values(zero[None, :])[0].hex()


class TestIntegerMaximum:
    """``StageReward.box_bound`` without a gain against the enumerated
    maximum of ``values``, bit for bit."""

    @staticmethod
    def integer_maximum(reward, upper_bounds):
        return reward.box_bound(upper_bounds)()

    def test_random_rewards(self):
        # dimensions without pieces and zero upper bounds included
        rng = np.random.default_rng(95)
        for _ in range(500):
            reward, upper_bounds = TestBoxMaximum.random_reward(rng)
            assert self.integer_maximum(reward, upper_bounds).hex() == \
                TestBoxMaximum.enumerated_max(reward, upper_bounds).hex()

    @pytest.mark.parametrize("capacity", [0.5, 1.5, 2.25, 2.0])
    def test_mcip_two_piece_shape(self, capacity):
        upper_bounds = np.array([3, 0, 4])
        for q_minus, q_plus in ((0.5, 3.0), (-1.0, 2.0), (-2.0, -0.5)):
            reward = StageReward(constant=1.5, pieces=[
                [(-q_minus, q_minus * capacity), (-q_plus, q_plus * capacity)]] * 3)
            assert self.integer_maximum(reward, upper_bounds).hex() == \
                TestBoxMaximum.enumerated_max(reward, upper_bounds).hex()

    def test_pieces_crossing_on_a_level(self):
        rng = np.random.default_rng(96)
        for _ in range(500):
            level = float(rng.integers(1, 5))
            rise, fall = abs(rng.normal()), -abs(rng.normal())
            top = rng.normal()
            reward = StageReward(constant=float(rng.normal()), pieces=[
                [(rise, top - rise * level), (fall, top - fall * level)], []])
            assert self.integer_maximum(reward, [6, 2]).hex() == \
                TestBoxMaximum.enumerated_max(reward, [6, 2]).hex()


class TestBuildFirstStage:
    def test_zero_cuts_maximizes_reward_alone(self):
        # with eta capped by its bound row, the bit variables decouple and
        # the MILP just maximizes the linear reward
        ctx = random_context(2, n2=2, a_bar=[3, 3])
        gain = np.array([1.0, -2.0])
        reward = linear_stage_reward(gain)
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        fp = build_first_stage(ctx, enc, reward, eta_bar)
        sol = solve_milp(fp.milp, tol=1e-9)
        assert sol.status == "optimal"
        action = fp.decode_action(sol.x)
        np.testing.assert_array_equal(action, [3, 0])
        # objective includes gamma * eta at its cap plus the reward part
        assert sol.objective + fp.constant_offset == pytest.approx(
            float(gain @ action) + ctx.spec.discount * eta_bar
            + reward.constant + ctx.spec.discount * ctx.net.output_bias,
            abs=1e-7,
        )

    def test_single_integer_cut_two_action_box(self):
        # one-dimensional box {0, 1}: anchoring the integer cut at the true
        # optimum lets the first stage reproduce the enumeration result
        ctx = random_context(3, n2=1, a_bar=[1])
        reward = linear_stage_reward(np.array([0.0]))
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        best_val, best_a = exhaustive_optimum(ctx, lambda a: 0.0)
        cut = integer_optimality_cut(ctx, enc, best_a, eta_bar)
        fp = build_first_stage(ctx, enc, reward, eta_bar).with_cuts(cut)
        sol = solve_milp(fp.milp, tol=1e-9)
        gamma = ctx.spec.discount
        # at the anchor the cut pins eta to the true recourse
        fp_value_at_anchor = gamma * forward_oracle_recourse(ctx, best_a) \
            + gamma * ctx.net.output_bias
        assert sol.objective + fp.constant_offset >= fp_value_at_anchor - 1e-9

    def test_rows_reproduce_cuts_and_reward(self):
        # rows in build order: bit bounds, eta <= eta_bar, the reward pieces
        # of dimensions 0 and 2, then the cuts in creation order (integer,
        # combined, integer, combined, integer).  At the bits of every
        # action, each bit-bound row must bound its dimension, each cut
        # row's bound on eta must be the cut's own value there, and the
        # tightest piece rows of each dimension must add up, with the
        # constant, to the reward.
        ctx = random_context(15, n1=3, n2=3, a_bar=[3, 2, 4])
        reward, _ = adjustment_reward()
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        int_anchors = [np.array(a) for a in ([1, 2, 0], [0, 0, 3], [3, 1, 1])]
        int_cuts = [integer_optimality_cut(ctx, enc, a, eta_bar) for a in int_anchors]
        lin_cuts = [combined_cut(ctx, np.array(a)) for a in ([3, 0, 4], [2, 2, 2])]
        fp = with_all_cuts(ctx, enc, reward, eta_bar, int_cuts, lin_cuts)
        lp = fp.milp.lp
        n_bits, n_dims = enc.total_bits, len(enc.bound_rows()[1])
        pieces_at, cuts_at = n_dims + 1, n_dims + 1 + 4
        bits_part, b = lp.A[:, :n_bits], lp.b
        assert len(b) == cuts_at + 5
        np.testing.assert_array_equal(lp.A[:pieces_at, n_bits], [0.0] * n_dims + [1.0])
        np.testing.assert_array_equal(lp.A[:pieces_at, n_bits + 1:], 0.0)
        assert b[n_dims] == eta_bar
        rho = lp.A[pieces_at:cuts_at, n_bits + 1:]
        np.testing.assert_array_equal(rho, [[1, 0]] * 2 + [[0, 1]] * 2)
        np.testing.assert_array_equal(lp.A[pieces_at:cuts_at, n_bits], 0.0)
        np.testing.assert_array_equal(lp.A[cuts_at:, n_bits], 1.0)
        np.testing.assert_array_equal(lp.A[cuts_at:, n_bits + 1:], 0.0)
        actions = enumerate_actions(ctx.spec.action_box)
        for a in actions:
            room = b - bits_part @ enc.encode(a)
            np.testing.assert_allclose(room[:n_dims], ctx.spec.action_box.upper_bounds - a,
                                       atol=1e-12)
            int_values = [integer_cut_rhs(cut, enc, anchor, a)
                          for cut, anchor in zip(int_cuts, int_anchors)]
            cut_values = [int_values[0], lin_cuts[0].values(a),
                          int_values[1], lin_cuts[1].values(a), int_values[2]]
            np.testing.assert_allclose(room[cuts_at:], cut_values, atol=1e-9)
            pieces = room[pieces_at:cuts_at]
            assert reward.constant + pieces[:2].min() + pieces[2:].min() \
                == pytest.approx(reward.values(a[None, :])[0], abs=1e-12)

    @pytest.mark.parametrize("combined", [
        pytest.param((True, True, False), id="3-2"),
        pytest.param((True, True), id="2-2"),
        pytest.param((False, True, True), id="3-2-late"),
        pytest.param((False, False), id="2-0"),
    ])
    def test_cut_rows_equal_a_per_cut_loop(self, combined):
        # the cut rows, made by one array per with_cuts call, against a
        # row-at-a-time loop: same arithmetic, so equal to the last bit;
        # ``combined`` says which iterations add a combined cut, and the id
        # counts the integer and the combined cuts
        ctx = random_context(15, n1=3, n2=3, a_bar=[3, 2, 4])
        reward, _ = adjustment_reward()
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        anchors = ([1, 2, 0], [0, 0, 3], [3, 1, 1])
        int_cuts = [integer_optimality_cut(ctx, enc, np.array(a), eta_bar)
                    for a in anchors[:len(combined)]]
        lin_cuts = [combined_cut(ctx, np.array(a)) if made else None
                    for a, made in zip(anchors[::-1], combined)]
        lp = with_all_cuts(ctx, enc, reward, eta_bar, int_cuts, lin_cuts).milp.lp
        n_bits = enc.total_bits
        rows, rhs = [], []
        for cut, lin_cut in zip(int_cuts, lin_cuts):
            spread = cut.eta_bar - cut.anchor_value
            rows.append(spread * (2 * cut.bits - 1))
            rhs.append(cut.anchor_value + spread * int(cut.bits.sum()))
            if lin_cut is not None:
                rows.append(enc.expand(-lin_cut.coef))
                rhs.append(lin_cut.const)
        first = lp.n_rows - len(rows)
        np.testing.assert_array_equal(lp.A[first:, :n_bits], np.array(rows))
        np.testing.assert_array_equal(lp.A[first:, n_bits], 1.0)
        np.testing.assert_array_equal(lp.A[first:, n_bits + 1:], 0.0)
        np.testing.assert_array_equal(lp.b[first:], rhs)

    def test_three_by_three_box_has_four_binaries(self):
        # bound 3 needs two bits per dimension
        ctx = random_context(2, n2=2, a_bar=[3, 3])
        enc = binary_encoding(ctx.spec.action_box)
        fp = build_first_stage(ctx, enc, linear_stage_reward(np.ones(2)),
                               recourse_upper_bound(ctx))
        assert fp.milp.binary_indices == [0, 1, 2, 3]

    def test_bit_bound_rows_enforced(self):
        # bound 5 needs bits {0,1,2} able to express up to 7: the explicit
        # row must keep decoded actions inside the box
        ctx = random_context(4, n2=1, a_bar=[5])
        reward = linear_stage_reward(np.array([1.0]))
        enc = binary_encoding(ctx.spec.action_box)
        fp = build_first_stage(ctx, enc, reward, recourse_upper_bound(ctx))
        sol = solve_milp(fp.milp, tol=1e-9)
        action = fp.decode_action(sol.x)
        assert action[0] == 5


class TestBruteForce:
    def test_constant_recourse_maximizes_reward(self):
        ctx = random_context(5, n2=2, a_bar=[3, 3])
        dead = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                       np.zeros(ctx.net.neuron_count), ctx.net.output_bias)
        ctx2 = RecourseContext(dead, ctx.spec, ctx.x, ctx.noises)
        reward = linear_stage_reward(np.array([2.0, -1.0]))
        res = select_action_bruteforce(ctx2, reward)
        np.testing.assert_array_equal(res.action, [3, 0])

    def test_matches_two_loop_oracle(self):
        for seed in range(10):
            ctx = random_context(seed + 600, n2=2, a_bar=[4, 3])
            gain, constant = reward_terms(ctx, seed=seed)
            res = select_action_bruteforce(
                ctx, linear_stage_reward(gain, constant=constant))
            best_val, best_a = exhaustive_optimum(
                ctx, lambda a: constant + float(gain @ a))
            assert res.objective == pytest.approx(best_val, abs=1e-10)
            np.testing.assert_array_equal(res.action, best_a)

    def test_lexicographic_tie_break(self):
        ctx = random_context(6, n2=2, a_bar=[2, 2])
        dead = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                       np.zeros(ctx.net.neuron_count), 0.0)
        ctx2 = RecourseContext(dead, ctx.spec, ctx.x, ctx.noises)
        reward = StageReward(constant=0.0, pieces=[[], []])
        res = select_action_bruteforce(ctx2, reward)
        np.testing.assert_array_equal(res.action, [0, 0])

    def test_full_five_dim_count(self):
        ctx = random_context(7, n1=2, n2=5, s2=1, a_bar=[9, 9, 9, 9, 9], j=2)
        reward = make_reward(ctx, seed=3, scale=0.1)
        res = select_action_bruteforce(ctx, reward)
        assert res.iterations == 10**5


class TestMcdEngine:
    def test_singleton_box(self):
        ctx = random_context(8, n2=2, a_bar=[0, 0])
        reward = make_reward(ctx, seed=4)
        res = select_action(ctx, reward, McdConfig())
        np.testing.assert_array_equal(res.action, [0, 0])
        assert res.iterations == 1
        assert res.upper_bound == pytest.approx(res.objective, abs=1e-9)

    def test_exact_mode_matches_brute_force(self):
        # zero tolerance with an iteration budget above the action count
        for seed in range(15):
            ctx = random_context(seed + 700, j=5, n2=2, s2=3, a_bar=[3, 3])
            reward = make_reward(ctx, seed=seed, scale=0.5)
            n_actions = ctx.spec.action_box.count()
            cfg = McdConfig(max_iterations=n_actions + 1, gap_tolerance=0.0)
            res = select_action(ctx, reward, cfg)
            ref = select_action_bruteforce(ctx, reward)
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_bounds_sandwich_and_monotone(self):
        for seed in range(10):
            ctx = random_context(seed + 800, j=6, n2=2, s2=3, a_bar=[3, 3])
            reward = make_reward(ctx, seed=seed)
            cfg = McdConfig(max_iterations=17, gap_tolerance=0.0)
            res = select_action(ctx, reward, cfg)
            ref = select_action_bruteforce(ctx, reward)
            lowers = [row[1] for row in res.trace]
            uppers = [row[2] for row in res.trace]
            assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
            assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))
            for lo, hi in zip(lowers, uppers):
                assert lo - 1e-7 <= ref.objective <= hi + 1e-7

    def test_deterministic_trace(self):
        ctx = random_context(9, n2=2, a_bar=[3, 3])
        reward = make_reward(ctx, seed=5)
        cfg = McdConfig(max_iterations=20, gap_tolerance=0.0)
        r1 = select_action(ctx, reward, cfg)
        r2 = select_action(ctx, reward, cfg)
        assert len(r1.trace) == len(r2.trace)
        for a, b in zip(r1.trace, r2.trace):
            assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
            np.testing.assert_array_equal(a[3], b[3])

    def test_relative_gap_termination(self):
        ctx = random_context(10, n2=2, a_bar=[4, 4])
        reward = make_reward(ctx, seed=6)
        cfg = McdConfig(max_iterations=100, gap_tolerance=0.05)
        res = select_action(ctx, reward, cfg)
        gap = res.upper_bound - res.objective
        assert gap <= 0.05 * max(abs(res.upper_bound), 1e-6) + 1e-9

    def test_capped_four_dim_box_reaches_optimum(self):
        # a capped 4-D benchmark box whose anchors stop one unit short of the
        # optimum in one coordinate; the exact values at each anchor's
        # neighbours must still deliver the brute-force optimum
        ctx, reward = make_bench_instance(3022, facilities=4, neurons=10,
                                          transition_samples=4,
                                          capacity_levels=3)
        cfg = McdConfig(max_iterations=40, gap_tolerance=0.0)
        res = select_action(ctx, reward, cfg)
        ref = select_action_bruteforce(ctx, reward)
        assert res.objective == pytest.approx(ref.objective, abs=1e-6)
        np.testing.assert_array_equal(res.action, ref.action)
        for _, lo, hi, _ in res.trace:
            assert lo - 1e-7 <= ref.objective <= hi + 1e-7

    @pytest.mark.parametrize("engine", ["mcd", "lshaped"])
    @pytest.mark.parametrize("a_bar", [[0, 4, 1], [5, 0, 2]])
    def test_exact_mode_matches_brute_force_on_mixed_bounds(self, engine, a_bar):
        # a zero bound gets no bits, and bound 4 or 5 gets bits reaching 7,
        # so the bound rows must cut the decoded actions back into the box
        for seed in range(8):
            ctx = random_context(seed + 1200, j=6, n1=3, n2=3, s2=3, a_bar=a_bar)
            reward = make_reward(ctx, seed=seed, scale=0.5)
            n_actions = ctx.spec.action_box.count()
            cfg = McdConfig(engine=engine, max_iterations=n_actions + 1,
                            gap_tolerance=0.0)
            res = select_action(ctx, reward, cfg)
            ref = select_action_bruteforce(ctx, reward)
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)
            ctx.spec.action_box.check(res.action)

    def test_engine_dispatch(self):
        ctx = random_context(11, n2=2, a_bar=[2, 2])
        reward = make_reward(ctx, seed=7)
        cfg_b = McdConfig(engine="brute")
        cfg_m = McdConfig(engine="mcd", gap_tolerance=0.0,
                          max_iterations=10)
        rb = select_action(ctx, reward, cfg_b)
        rm = select_action(ctx, reward, cfg_m)
        assert rb.iterations == 9
        assert rm.objective <= rb.objective + 1e-9


class TestCutReuse:
    def test_positive_cut_computed_once_per_context(self, monkeypatch):
        # a 3-D benchmark box that runs the full 40 iterations: one combined
        # cut per iteration but one positive-neuron cut per context
        ctx, reward = make_bench_instance(3006, facilities=3, neurons=10,
                                          transition_samples=4,
                                          capacity_levels=3)
        reference = select_action(ctx, reward, McdConfig(engine="brute"))
        calls = []
        positive_cut = cuts.positive_cut

        def counting_positive_cut(c):
            calls.append(c)
            return positive_cut(c)

        monkeypatch.setattr(cuts, "positive_cut", counting_positive_cut)
        res = select_action(ctx, reward, McdConfig(max_iterations=40, gap_tolerance=0.0))
        assert res.iterations == 40
        assert calls == [ctx]
        assert res.objective <= reference.objective + 1e-9

    def test_anchor_encoded_once_per_integer_cut(self, monkeypatch):
        # the first-stage rows read each cut's stored bits instead of
        # re-encoding every earlier anchor at every iteration
        ctx, reward = make_bench_instance(3006, facilities=3, neurons=10,
                                          transition_samples=4,
                                          capacity_levels=3)
        encoded, made = [], []
        encode = cuts.BinaryEncoding.encode
        make_cut = mcd.integer_optimality_cut

        def counting_encode(enc, a):
            encoded.append(a)
            return encode(enc, a)

        def counting_cut(*args):
            made.append(make_cut(*args))
            return made[-1]

        monkeypatch.setattr(cuts.BinaryEncoding, "encode", counting_encode)
        monkeypatch.setattr(mcd, "integer_optimality_cut", counting_cut)
        res = select_action(ctx, reward, McdConfig(max_iterations=10, gap_tolerance=0.0))
        assert res.iterations == 10
        assert len(made) == 9
        assert len(encoded) == len(made)

    def test_anchor_checked_once_per_integer_cut(self, monkeypatch):
        # the encoding's check is the cut's only one; the box is not asked
        # twice about the same anchor
        ctx, reward = make_bench_instance(3006, facilities=3, neurons=10,
                                          transition_samples=4,
                                          capacity_levels=3)
        checks, per_cut = [0], []
        check = ActionBox.check
        make_cut = mcd.integer_optimality_cut

        def counting_check(box, a):
            checks[0] += 1
            return check(box, a)

        def counting_cut(*args):
            before = checks[0]
            cut = make_cut(*args)
            per_cut.append(checks[0] - before)
            return cut

        monkeypatch.setattr(ActionBox, "check", counting_check)
        monkeypatch.setattr(mcd, "integer_optimality_cut", counting_cut)
        res = select_action(ctx, reward, McdConfig(max_iterations=10, gap_tolerance=0.0))
        assert res.iterations == 10
        assert per_cut == [1] * 9

    def test_combined_cut_bit_identical_to_fresh_sum(self):
        ctx = random_context(13, j=8, n2=3, a_bar=[3, 2, 4])
        for anchor in enumerate_actions(ctx.spec.action_box)[::5]:
            cut = combined_cut(ctx, anchor)
            fresh = cuts.gradient_cut(ctx, anchor) + cuts.positive_cut(ctx)
            np.testing.assert_array_equal(cut.coef, fresh.coef)
            assert cut.const == fresh.const


class TestBruteForceFallback:
    @pytest.mark.parametrize("failure", ["raise", "status"])
    def test_milp_failure_is_recorded(self, monkeypatch, failure):
        ctx = random_context(14, n2=2, a_bar=[3, 2])
        reward = make_reward(ctx, seed=9)

        def failing_milp(*args, **kwargs):
            if failure == "raise":
                raise LpNumericalError("singular basis")
            return MilpSolution(status="infeasible")

        monkeypatch.setattr(mcd, "solve_milp", failing_milp)
        with pytest.warns(RuntimeWarning, match="falling back to brute force"):
            res = select_action(ctx, reward, McdConfig(engine="mcd"))
        ref = select_action_bruteforce(ctx, reward)
        assert res.fell_back and not ref.fell_back
        np.testing.assert_array_equal(res.action, ref.action)
        assert res.objective == ref.objective

    def test_an_unexpected_fallback_fails_the_suite(self, monkeypatch):
        # the test configuration turns mcd's fallback warning into an error,
        # so that a fallback no test expects cannot pass unnoticed
        def failing_milp(*args, **kwargs):
            raise NodeLimitError("node cap")

        monkeypatch.setattr(mcd, "solve_milp", failing_milp)
        ctx = random_context(14, n2=2, a_bar=[3, 2])
        with pytest.raises(RuntimeWarning, match="falling back to brute force"):
            select_action(ctx, make_reward(ctx, seed=9), McdConfig(engine="mcd"))

    @pytest.mark.parametrize("failure", ["raise", "status"])
    def test_a_box_too_large_to_enumerate_raises_the_masters_error(self, monkeypatch,
                                                                   failure):
        # 16^7 actions: brute force would refuse the box, so the solver's own
        # failure is reported, with no fallback warning
        ctx, reward = make_bench_instance(1, 7, neurons=10, transition_samples=4,
                                          capacity_levels=15)
        assert ctx.spec.action_box.count() > ENUMERATION_CAP

        def failing_milp(*args, **kwargs):
            if failure == "raise":
                raise NodeLimitError("node cap")
            return MilpSolution(status="infeasible")

        monkeypatch.setattr(mcd, "solve_milp", failing_milp)
        expected = (NodeLimitError, "node cap") if failure == "raise" else \
            (RuntimeError, "first-stage MILP status infeasible")
        with pytest.raises(expected[0], match=expected[1]):
            select_action(ctx, reward, McdConfig(engine="mcd"))

    def test_no_fallback_by_default(self):
        ctx = random_context(14, n2=2, a_bar=[3, 2])
        res = select_action(ctx, make_reward(ctx, seed=9), McdConfig(engine="lshaped"))
        assert not res.fell_back


class TestLShapedEngine:
    def test_two_action_box_exact_with_two_iterations(self):
        for seed in range(5):
            ctx = random_context(seed + 900, n2=1, a_bar=[1])
            reward = make_reward(ctx, seed=seed)
            cfg = McdConfig(engine="lshaped", max_iterations=2, gap_tolerance=0.0)
            res = select_action(ctx, reward, cfg)
            ref = select_action_bruteforce(ctx, reward)
            assert res.objective == pytest.approx(ref.objective, abs=1e-8)

    def test_singleton_single_iteration(self):
        ctx = random_context(12, n2=1, a_bar=[0])
        reward = make_reward(ctx, seed=8)
        res = select_action(ctx, reward, McdConfig(engine="lshaped"))
        assert res.iterations == 1

    def test_never_better_than_mcd_at_matched_caps(self):
        wins = 0
        n = 15
        for seed in range(n):
            ctx = random_context(seed + 1000, j=6, n2=2, s2=3, a_bar=[3, 3])
            reward = make_reward(ctx, seed=seed)
            cfg = McdConfig(max_iterations=6, gap_tolerance=0.0)
            r_mcd = select_action(ctx, reward, cfg)
            r_lsh = select_action(ctx, reward,
                                  dataclasses.replace(cfg, engine="lshaped"))
            if r_mcd.objective >= r_lsh.objective - 1e-9:
                wins += 1
        assert wins >= int(0.8 * n)

    def test_lshaped_bounds_still_valid(self):
        ctx = random_context(13, n2=2, a_bar=[3, 3])
        reward = make_reward(ctx, seed=9)
        cfg = McdConfig(engine="lshaped", max_iterations=10, gap_tolerance=0.0)
        res = select_action(ctx, reward, cfg)
        ref = select_action_bruteforce(ctx, reward)
        assert res.objective <= ref.objective + 1e-9
        assert res.upper_bound >= ref.objective - 1e-9


class TestTraceExport:
    def test_trace_rows_shape(self):
        ctx = random_context(14, n2=2, a_bar=[2, 2])
        reward = make_reward(ctx, seed=10)
        res = select_action(ctx, reward,
                            McdConfig(max_iterations=5, gap_tolerance=0.0))
        rows = res.trace_rows()
        assert len(rows) == len(res.trace)
        for it, lo, hi, action in rows:
            assert isinstance(it, int)
            assert isinstance(action, str)
            assert lo <= hi + 1e-9

    def test_trace_is_one_record_array_of_a_shared_dtype(self):
        # one array per selection with the dimension's dtype, built once;
        # the CSV rows hold Python numbers, so repr prints them as before
        ctx = random_context(14, n2=2, a_bar=[2, 2])
        reward = make_reward(ctx, seed=10)
        res = select_action(ctx, reward, McdConfig(max_iterations=5, gap_tolerance=0.0))
        brute = select_action_bruteforce(ctx, reward)
        assert res.trace.dtype is brute.trace.dtype is trace_dtype(2)
        assert res.trace.shape == (res.iterations,)
        np.testing.assert_array_equal(res.trace["iteration"], np.arange(1, res.iterations + 1))
        for row in res.trace_rows() + brute.trace_rows():
            assert [type(v) for v in row] == [int, float, float, str]
        assert brute.trace_rows() == [(1, brute.objective, brute.objective,
                                       " ".join(str(v) for v in brute.action))]

    def test_stop_criterion_label(self):
        assert McdConfig().stop_criterion_label() == "0.35%/100 steps"


class TestMcdConfig:
    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_non_finite_gap_tolerance_is_refused(self, gap):
        # a NaN gap would never pass the stop test, and label as nan%
        with pytest.raises(ValueError, match="gap_tolerance must be finite"):
            McdConfig(gap_tolerance=gap)

    def test_fractional_max_iterations_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match=r"max_iterations must be integral.*2\.5"):
            McdConfig(max_iterations=2.5)
        config = McdConfig(max_iterations=2.0)  # an integral float is accepted
        assert config.max_iterations == 2 and type(config.max_iterations) is int
        assert config.stop_criterion_label() == "0.35%/2 steps"

    def test_gap_floor_is_a_constant_not_a_setting(self):
        with pytest.raises(TypeError, match="gap_floor"):
            McdConfig(gap_floor=1e-3)
        assert [f.name for f in dataclasses.fields(McdConfig)] == [
            "max_iterations", "gap_tolerance", "engine"]
        assert McdConfig().gap_floor == McdConfig.gap_floor == 1e-6


class TestResumedMasters:
    @pytest.mark.parametrize("engine", ["mcd", "lshaped"])
    def test_each_master_resumes_the_last_and_counters_sum_them(self, monkeypatch, engine):
        ctx, reward = make_bench_instance(3006, facilities=3, neurons=10,
                                          transition_samples=4, capacity_levels=3)
        solved, resumed = [], []
        solve = mcd.solve_milp

        def recording(p, tol, resume=None, **kwargs):
            resumed.append(resume)
            solved.append(solve(p, tol, resume, **kwargs))
            return solved[-1]

        monkeypatch.setattr(mcd, "solve_milp", recording)
        res = select_action(ctx, reward, McdConfig(engine=engine, max_iterations=10,
                                                   gap_tolerance=0.0))
        assert len(solved) == res.iterations - 1 == 9
        assert resumed == [None] + solved[:-1]
        assert res.milp_nodes == sum(s.node_count for s in solved) > 0
        assert res.lp_pivots == sum(s.lp_pivots for s in solved) > 0
        assert res.bound_flips == sum(s.bound_flips for s in solved)
        brute = select_action_bruteforce(ctx, reward)
        assert (brute.milp_nodes, brute.lp_pivots, brute.bound_flips) == (0, 0, 0)

    def test_fallback_keeps_the_counters_of_the_masters_solved(self, monkeypatch):
        ctx, reward = make_bench_instance(3006, facilities=3, neurons=10,
                                          transition_samples=4, capacity_levels=3)
        solved, solve = [], mcd.solve_milp

        def failing_after_three(p, tol, resume=None, **kwargs):
            if len(solved) == 3:
                raise LpNumericalError("singular basis")
            solved.append(solve(p, tol, resume, **kwargs))
            return solved[-1]

        monkeypatch.setattr(mcd, "solve_milp", failing_after_three)
        with pytest.warns(RuntimeWarning, match="falling back to brute force"):
            res = select_action(ctx, reward, McdConfig(engine="mcd", max_iterations=10,
                                                       gap_tolerance=0.0))
        assert res.fell_back and len(solved) == 3
        assert (res.milp_nodes, res.lp_pivots, res.bound_flips) == (
            sum(s.node_count for s in solved), sum(s.lp_pivots for s in solved),
            sum(s.bound_flips for s in solved))

    @pytest.mark.parametrize("engine", ["mcd", "lshaped"])
    @pytest.mark.parametrize("seed, dims", [(2003, 2), (3006, 3)])
    def test_each_appended_master_equals_one_built_from_all_its_cuts(
            self, monkeypatch, engine, seed, dims):
        # a selection builds its first stage once and appends each
        # iteration's cut rows; each master must be the one that
        # with_cuts makes from every cut so far, applied in creation order
        # to a fresh build_first_stage, row for row, and must pass the
        # validation that with_rows skips for the rows it carries over
        ctx, reward = make_bench_instance(seed, facilities=dims, neurons=10,
                                          transition_samples=4, capacity_levels=3)
        int_cuts, comb_cuts, masters = [], [], []
        make_int, make_comb, solve = (mcd.integer_optimality_cut, mcd.combined_cut,
                                      mcd.solve_milp)

        def recording_int(*args):
            int_cuts.append(make_int(*args))
            return int_cuts[-1]

        def recording_comb(*args):
            comb_cuts.append(make_comb(*args))
            return comb_cuts[-1]

        def recording_solve(p, tol, resume=None, **kwargs):
            masters.append((p, list(int_cuts), list(comb_cuts)))
            return solve(p, tol, resume, **kwargs)

        monkeypatch.setattr(mcd, "integer_optimality_cut", recording_int)
        monkeypatch.setattr(mcd, "combined_cut", recording_comb)
        monkeypatch.setattr(mcd, "solve_milp", recording_solve)
        res = select_action(ctx, reward, McdConfig(engine=engine, max_iterations=12,
                                                   gap_tolerance=0.0))
        assert res.iterations - 1 <= len(masters) <= res.iterations and len(masters) >= 3
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        for k, (p, ints, combs) in enumerate(masters, start=1):
            assert len(ints) == k and len(combs) == (k if engine == "mcd" else 0)
            q = with_all_cuts(ctx, enc, reward, eta_bar, ints, combs).milp
            LpProblem(**vars(p.lp))
            for field in ("A", "b", "c", "lower", "upper"):
                np.testing.assert_array_equal(getattr(p.lp, field), getattr(q.lp, field))
            assert p.lp.senses == q.lp.senses and p.lp.maximize == q.lp.maximize
            assert p.binary_indices == q.binary_indices

    def test_resumed_masters_select_as_cold_ones(self, monkeypatch):
        # the same decomposition with every master solved from its root
        ctx, reward = make_bench_instance(3022, facilities=4, neurons=10,
                                          transition_samples=4, capacity_levels=3)
        cfg = McdConfig(max_iterations=25, gap_tolerance=0.0)
        warm = select_action(ctx, reward, cfg)
        solve = mcd.solve_milp
        monkeypatch.setattr(mcd, "solve_milp",
                            lambda p, tol, resume=None, **kwargs: solve(p, tol, **kwargs))
        cold = select_action(ctx, reward, cfg)
        np.testing.assert_array_equal(warm.trace["action"], cold.trace["action"])
        assert warm.objective == cold.objective
        assert warm.upper_bound == pytest.approx(cold.upper_bound, rel=1e-12)
        assert warm.milp_nodes < cold.milp_nodes

    @pytest.mark.parametrize("engine", ["mcd", "lshaped"])
    @pytest.mark.parametrize("seed, dims", [(2003, 2), (2022, 2), (3006, 3), (5000, 6)])
    def test_the_cutoff_moves_no_selection_and_carries_no_more_leaves(
            self, monkeypatch, engine, seed, dims):
        # the masters' cutoff drops only leaves best-first search never pops,
        # so the selection is the one made with the cutoff dropped, bit for
        # bit, and the last master carries no more leaves; 5000 is the 6x3
        # probe box, whose masters drop the most
        ctx, reward = make_bench_instance(seed, facilities=dims, neurons=10,
                                          transition_samples=4, capacity_levels=3)
        solve, cutoffs = mcd.solve_milp, []

        def run(keep_cutoff):
            last = []

            def recording(p, tol, resume=None, cutoff=-np.inf, start=None):
                cutoffs.append(cutoff)
                last[:] = [solve(p, tol, resume, cutoff if keep_cutoff else -np.inf,
                                 start)]
                return last[0]

            monkeypatch.setattr(mcd, "solve_milp", recording)
            res = select_action(ctx, reward, McdConfig(engine=engine))
            return res, len(last[0]._frontier.leaves)

        (cut, cut_leaves), (plain, plain_leaves) = run(True), run(False)
        assert np.isfinite(cutoffs).all()
        assert not cut.fell_back and not plain.fell_back
        np.testing.assert_array_equal(cut.action, plain.action)
        assert cut.trace.tobytes() == plain.trace.tobytes()
        assert (cut.objective.hex(), cut.upper_bound.hex(), cut.iterations,
                cut.milp_nodes, cut.lp_pivots, cut.bound_flips) == (
            plain.objective.hex(), plain.upper_bound.hex(), plain.iterations,
            plain.milp_nodes, plain.lp_pivots, plain.bound_flips)
        assert cut_leaves <= plain_leaves


def criterion_4_spec():
    return build_mcip_mdp(synthetic_instance(seed=42, customers=2, facilities=2,
                                             horizon=3, capacity_max=3,
                                             demand_points=3))


def forbid(monkeypatch, *names):
    """Make each named ``mcd`` function fail the test if it is called."""
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(mcd, name, refuse)


@functools.cache
def period_2_early_stops(engine):
    """``(continuation net, state, canonical noise batch, result)`` of each
    period-2 selection in criterion 4's run with ``engine`` that solves one
    master fewer than it has iterations; lshaped's run may not call
    ``combined_cut``."""
    spec = criterion_4_spec()
    config = fvi.FviConfig(state_samples=200, transition_samples=20, neurons=20,
                           train=TrainConfig(restarts=5, max_epochs=200),
                           mcd=McdConfig(engine=engine), seed=0)
    masters, stopped = [0], []
    solve, decide = mcd.solve_milp, fvi._decide

    def counting_solve(*args, **kwargs):
        masters[0] += 1
        return solve(*args, **kwargs)

    def recording_decide(spec, nets, t, x, batch, reward, cfg, groups=None):
        before = masters[0]
        res = decide(spec, nets, t, x, batch, reward, cfg, groups)
        if t == 2 and masters[0] - before == res.iterations - 1:
            stopped.append((nets[3], x, batch, res))
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcd, "solve_milp", counting_solve)
        patch.setattr(fvi, "_decide", recording_decide)
        if engine == "lshaped":
            forbid(patch, "combined_cut")
        fvi.run_nnfvi(spec, config)
    return stopped


class TestCertifiedBeforeSolving:
    """The upper bound starts at the box bound and the stop rule is tested
    after each anchor, so a selection whose gap the box bound already closes
    builds and solves no master; mcd also tests it on each combined cut's
    box bound, before that iteration's master."""

    @pytest.mark.parametrize("engine", ["mcd", "lshaped"])
    def test_terminal_selection_solves_no_master(self, monkeypatch, engine):
        # at the horizon the continuation is zero and the reward piece-free,
        # so the box bound is the zero action's value
        spec = criterion_4_spec()
        T, nets = spec.horizon, fvi._with_terminal(spec, {})
        rng = np.random.default_rng(5)
        cases = [(x, spec.draw_noises(rng, 20)) for x in sample_states(spec, 6, rng)]
        brute = [fvi._decide(spec, nets, T, x, noises, spec.stage_reward(T, x),
                             McdConfig(engine="brute"))
                 for x, noises in cases]
        forbid(monkeypatch, "solve_milp", "build_first_stage")
        for (x, noises), ref in zip(cases, brute):
            res = fvi._decide(spec, nets, T, x, noises, spec.stage_reward(T, x),
                              McdConfig(engine=engine))
            assert res.iterations == 1 and not res.fell_back
            assert res.upper_bound == res.objective == ref.objective
            assert res.milp_nodes == res.lp_pivots == 0
            np.testing.assert_array_equal(res.action, np.zeros(spec.action_box.dims))

    @staticmethod
    def check_brute_force_action(spec, net, x, batch, res):
        # the driver selects on the batch in canonical order
        ctx = RecourseContext(net, spec, x, batch.noises)
        ref = select_action_bruteforce(ctx, spec.stage_reward(2, x))
        np.testing.assert_array_equal(res.action, ref.action)
        assert res.objective == ref.objective

    def test_period_2_selections_that_stop_at_an_anchor(self):
        # an anchor that raises the lower bound enough stops the selection
        # and leaves the upper bound as it was
        spec = criterion_4_spec()
        stops = [(net, x, batch, res) for net, x, batch, res in period_2_early_stops("mcd")
                 if res.trace["upper"][-1] == res.trace["upper"][-2]]
        assert len(stops) == 5  # of the 48 period-2 selections
        for net, x, batch, res in stops:
            assert 1 < res.iterations < McdConfig().max_iterations
            assert res.trace["upper"][-1] == res.upper_bound == res.trace["upper"][-2]
            assert McdConfig().gap_closed(res.objective, res.upper_bound)
            self.check_brute_force_action(spec, net, x, batch, res)

    def test_period_2_selections_that_stop_at_the_cut_bound(self):
        # the integer-box maximum of reward + discount * combined cut closes
        # the gap before the iteration's master, and becomes the upper bound
        spec = criterion_4_spec()
        gamma = spec.discount
        stops = [(net, x, batch, res) for net, x, batch, res in period_2_early_stops("mcd")
                 if res.trace["upper"][-1] < res.trace["upper"][-2]]
        assert len(stops) == 39  # of the 48 period-2 selections
        for net, x, batch, res in stops:
            assert 1 < res.iterations < McdConfig().max_iterations
            ctx = RecourseContext(net, spec, x, batch.noises)
            cut = combined_cut(ctx, res.trace["action"][-1])
            assert res.upper_bound == res.trace["upper"][-1] == (
                spec.stage_reward(2, x).box_bound(spec.action_box.upper_bounds)(
                    gamma * cut.coef)
                + gamma * cut.const + gamma * net.output_bias)
            assert McdConfig().gap_closed(res.objective, res.upper_bound)
            self.check_brute_force_action(spec, net, x, batch, res)

    def test_lshaped_never_stops_at_the_cut_bound(self):
        # lshaped has no combined cut (period_2_early_stops forbids it), and
        # on this run no anchor stops a selection before its last master
        assert period_2_early_stops("lshaped") == []

    @pytest.mark.parametrize("engine", ["mcd", "lshaped"])
    def test_one_iteration_reports_the_box_bound(self, monkeypatch, engine):
        forbid(monkeypatch, "solve_milp", "build_first_stage")
        for seed in range(5):
            ctx = random_context(seed + 1300, n2=3, a_bar=[3, 2, 4])
            reward, _ = adjustment_reward()
            res = select_action(ctx, reward, McdConfig(engine=engine, max_iterations=1))
            gamma = ctx.spec.discount
            box_bound = (reward.box_bound(ctx.spec.action_box.upper_bounds)()
                         + gamma * recourse_upper_bound(ctx)
                         + gamma * ctx.net.output_bias)
            assert res.upper_bound == box_bound < np.inf
            assert res.upper_bound >= select_action_bruteforce(ctx, reward).objective
            assert (res.iterations, res.milp_nodes, res.lp_pivots) == (1, 0, 0)


def capacity_reward(capacity, q_minus=(0.5, 0.0, 1.0), q_plus=(3.0, 0.0, 2.5)):
    """:func:`adjustment_reward`'s shape at another capacity: the pieces'
    slopes hold the prices alone, their right-hand sides the capacity."""
    return StageReward(constant=4.25, pieces=[
        [(-q_minus[n], q_minus[n] * capacity[n]), (-q_plus[n], q_plus[n] * capacity[n])]
        if n != 1 else [] for n in range(3)])


class TestSiblingContexts:
    """Siblings of a context share its forms, cut forms and memo and keep
    their own state; a sibling selects as a fresh context does, its first
    master's root started from the group's first root when the two differ
    in the right-hand side alone."""

    def test_a_sibling_keeps_its_own_state_and_shares_the_rest(self):
        base = random_context(5, n2=3, a_bar=[3, 2, 4])
        first = RecourseContext(base.net, base.spec, base.x, base.noises, memo={})
        twin = first.sibling(base.x + 1.0, base.noises.copy())
        np.testing.assert_array_equal(twin.x, base.x + 1.0)
        np.testing.assert_array_equal(first.x, base.x)
        assert twin.noises is not first.noises
        assert twin.memo is first.memo and twin.gamma1 is first.gamma1
        assert twin.positive_part_cut is first.positive_part_cut  # built once
        # every attribute is made in __init__, so all contexts share one key
        # table whatever they cache, and a sibling has the same keys
        assert list(vars(twin)) == list(vars(base))

    @pytest.mark.parametrize("engine", ["mcd", "lshaped", "brute"])
    def test_siblings_select_as_fresh_contexts(self, monkeypatch, engine):
        base = random_context(31, n2=3, a_bar=[3, 2, 4])
        first = RecourseContext(base.net, base.spec, base.x, base.noises, memo={})
        capacities = ([1, 2, 2], [0, 2, 3], [3, 2, 0], [2, 2, 4])
        rewards = [capacity_reward(c) for c in capacities]
        rewards.append(capacity_reward([1, 2, 2], q_plus=(2.0, 0.0, 2.5)))  # other slopes
        config = McdConfig(engine=engine, gap_tolerance=0.0)
        roots, solve = [], mcd.solve_milp

        def recording(*args, start=None, resume=None, **kwargs):
            if resume is None:
                roots.append(start is not None)
            return solve(*args, start=start, resume=resume, **kwargs)

        monkeypatch.setattr(mcd, "solve_milp", recording)
        for k, reward in enumerate(rewards):
            ctx = first if k == 0 else first.sibling(base.x, base.noises)
            res = select_action(ctx, reward, config)
            fresh = select_action(
                RecourseContext(base.net, base.spec, base.x, base.noises), reward, config)
            assert (res.objective, res.iterations) == (fresh.objective, fresh.iterations)
            np.testing.assert_array_equal(res.action, fresh.action)
            assert res.trace["lower"].tobytes() == fresh.trace["lower"].tobytes()
            assert abs(res.upper_bound - fresh.upper_bound) <= (
                1e-12 * abs(fresh.upper_bound))
        if engine == "brute":
            assert roots == []
        else:
            # one first master per selection, the fresh ones cold; the group's
            # first cold, its siblings with equal slopes warm, the last cold
            assert roots == [False, False, True, False, True, False, True, False,
                             False, False]


class TestNeighbours:
    def test_plus_steps_then_minus_steps_inside_the_box(self):
        box = ActionBox(np.array([2, 0, 3]))
        np.testing.assert_array_equal(mcd._neighbours(box, np.array([2, 0, 1])),
                                      [[2, 0, 2], [1, 0, 1], [2, 0, 0]])

    def test_steps_are_made_once_per_dimension_count_and_read_only(self):
        steps = mcd._unit_steps(3)
        assert mcd._unit_steps(3) is steps and not steps.flags.writeable
        np.testing.assert_array_equal(steps, np.vstack([np.eye(3), -np.eye(3)]))
