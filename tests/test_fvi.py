import dataclasses
import itertools

import numpy as np
import pytest

from nnfvi.fvi import (
    DpSizeError,
    DpTables,
    FittedValueSet,
    FviConfig,
    TabularMdp,
    bellman_target,
    exact_dp,
    greedy_policy,
    run_nnfvi,
)
from nnfvi.mcd import McdConfig, StageReward, linear_stage_reward
from nnfvi.mdp import ActionBox, MdpSpec, enumerate_actions
from nnfvi.neural import ReluNet, TrainConfig

from conftest import random_affine_spec, uniform_box_sampler

STATE_BOX = (-2.0, 2.0)  # every coordinate of small_spec's sampled states


def small_spec(seed=0, n1=2, n2=2, a_bar=(2, 2), horizon=3, discount=0.9,
               reward_scale=1.0, constant_reward=None):
    """Small affine MDP and, for the oracles, its stage reward ``reward(t, x,
    a)`` written out directly rather than read back from the spec."""
    rng = np.random.default_rng(seed)
    spec = random_affine_spec(rng, n1, n2, list(a_bar), horizon=horizon,
                              discount=discount)
    spec.state_sampler = uniform_box_sampler(np.full(n1, STATE_BOX[0]),
                                             np.full(n1, STATE_BOX[1]))
    gain = rng.normal(size=n2) * reward_scale

    if constant_reward is not None:
        def reward(t, x, a):
            return float(constant_reward)

        spec.stage_reward = lambda t, x: StageReward(
            constant=float(constant_reward), pieces=[[] for _ in range(n2)])
    else:
        def reward(t, x, a):
            return float(np.sum(x) + gain @ np.asarray(a, dtype=float))

        spec.stage_reward = lambda t, x: linear_stage_reward(
            gain, constant=float(np.sum(x)))
    # contract the state and damp the noise, so next states stay near the
    # modest sampling box the networks are fitted on
    draws = spec.transition

    def transition(x, xi):
        offsets, linears = draws(x, xi)
        return 0.2 * x + 0.05 * offsets, 0.05 * linears

    spec.transition = transition
    spec.initial_state = np.zeros(n1)
    return spec, reward


def quick_config(seed=0, engine="brute", s1=30, s2=5, neurons=5, restarts=1,
                 epochs=300, mcd_iters=50, mcd_gap=0.0):
    return FviConfig(
        state_samples=s1,
        transition_samples=s2,
        neurons=neurons,
        train=TrainConfig(restarts=restarts, max_epochs=epochs),
        mcd=McdConfig(engine=engine, max_iterations=mcd_iters,
                      gap_tolerance=mcd_gap),
        seed=seed,
    )


class TestFviConfig:
    @pytest.mark.parametrize("neurons", [0, -3])
    def test_neurons_below_one_are_refused(self, neurons):
        with pytest.raises(ValueError, match="neurons must be >= 1"):
            FviConfig(neurons=neurons)


class TestBellmanTarget:
    def test_terminal_reward_independent_of_action(self):
        spec, _ = small_spec(constant_reward=3.5)
        rng = np.random.default_rng(0)
        noises = spec.draw_noises(rng, 1)
        x = np.array([0.1, -0.2])
        got = bellman_target(spec, {}, spec.horizon, x, noises,
                             McdConfig(engine="brute"))
        assert got == pytest.approx(3.5)

    def test_discount_zero_limit(self):
        # a dead continuation network reduces the target to the terminal case
        spec, reward = small_spec(seed=1)
        dead = ReluNet(np.zeros((1, 2)), np.zeros(1), np.zeros(1), 0.0)
        rng = np.random.default_rng(1)
        noises = spec.draw_noises(rng, 3)
        x = np.array([0.3, 0.4])
        got = bellman_target(spec, {2: dead}, 1, x, noises,
                             McdConfig(engine="brute"))
        best = max(reward(1, x, a) for a in enumerate_actions(spec.action_box))
        assert got == pytest.approx(best)

    def test_engines_agree_on_small_instance(self):
        spec, _ = small_spec(seed=2)
        rng = np.random.default_rng(2)
        net = ReluNet(rng.normal(size=(4, 2)), rng.normal(size=4),
                      rng.normal(size=4), float(rng.normal()))
        noises = spec.draw_noises(rng, 4)
        x = np.array([0.2, -0.1])
        n_actions = spec.action_box.count()
        res_brute = bellman_target(spec, {3: net}, 2, x, noises,
                                   McdConfig(engine="brute"))
        res_mcd = bellman_target(
            spec, {3: net}, 2, x, noises,
            McdConfig(engine="mcd", max_iterations=n_actions + 1,
                      gap_tolerance=0.0))
        assert res_mcd == pytest.approx(res_brute, abs=1e-6)

    def test_missing_network_raises(self):
        spec, _ = small_spec(seed=3)
        with pytest.raises(ValueError, match="no fitted network"):
            bellman_target(spec, {}, 1, np.zeros(2), [None],
                           McdConfig(engine="brute"))


class TestRunNnfvi:
    def test_degenerate_horizon(self):
        spec, reward = small_spec(seed=4, horizon=1)
        fitted, v_hat = run_nnfvi(spec, quick_config())
        assert fitted.nets == {}
        best = max(reward(1, spec.initial_state, a)
                   for a in enumerate_actions(spec.action_box))
        assert v_hat == pytest.approx(best)

    def test_constant_reward_geometric_sum(self):
        c = 2.0
        spec, _ = small_spec(seed=5, constant_reward=c, horizon=4, discount=0.8)
        fitted, v_hat = run_nnfvi(spec, quick_config(s1=25, s2=3, neurons=3))
        expected = sum(c * 0.8 ** (t - 1) for t in range(1, 5))
        assert v_hat == pytest.approx(expected, rel=0.01)

    def test_reproducible_bitwise(self):
        spec, _ = small_spec(seed=6)
        cfg = quick_config(seed=77, s1=15, s2=3, neurons=3, epochs=150)
        _, v1 = run_nnfvi(spec, cfg)
        spec2, _ = small_spec(seed=6)
        _, v2 = run_nnfvi(spec2, cfg)
        assert v1 == v2

    def test_targets_respect_reward_bound(self):
        spec, reward = small_spec(seed=7, horizon=3, discount=0.9)
        fitted, v_hat = run_nnfvi(spec, quick_config(s1=20, s2=3))
        # the reward is affine in x, so over the state box |reward| peaks
        # at one of its corners
        corners = itertools.product(STATE_BOX, repeat=spec.state_dim)
        r_max = max(abs(reward(1, np.array(x), a)) for x in corners
                    for a in enumerate_actions(spec.action_box))
        horizon_bound = r_max * sum(0.9 ** (tau - 1) for tau in range(1, 4))
        assert abs(v_hat) <= horizon_bound

    def test_nets_cover_periods_two_to_horizon(self):
        spec, _ = small_spec(seed=8, horizon=4)
        fitted, _ = run_nnfvi(spec, quick_config(s1=15, s2=3, neurons=3,
                                                 epochs=100))
        assert sorted(fitted.nets) == [2, 3, 4]
        assert sorted(fitted.training_losses) == [2, 3, 4]

    def test_train_regularization_is_used_and_reported(self):
        # the one regularization knob lives on TrainConfig: it must reach
        # the fit and the config snapshot, not be overwritten with 0
        spec, _ = small_spec(seed=10)
        base = quick_config(seed=3, s1=15, s2=3, neurons=3, epochs=80)
        reg = dataclasses.replace(
            base, train=dataclasses.replace(base.train, regularization=0.5))
        plain, _ = run_nnfvi(spec, base)
        fitted, _ = run_nnfvi(spec, reg)
        assert plain.config["regularization"] == 0.0
        assert fitted.config["regularization"] == 0.5
        assert not np.array_equal(fitted.nets[2].output_weights,
                                  plain.nets[2].output_weights)

    def test_serialization_round_trip(self):
        spec, _ = small_spec(seed=9)
        fitted, v_hat = run_nnfvi(spec, quick_config(s1=10, s2=2, neurons=2,
                                                     epochs=80))
        clone = FittedValueSet.loads(fitted.dumps())
        assert clone.value_estimate == fitted.value_estimate
        assert sorted(clone.nets) == sorted(fitted.nets)
        for t in fitted.nets:
            np.testing.assert_array_equal(
                clone.nets[t].input_weights, fitted.nets[t].input_weights)


class TestGreedyPolicy:
    def test_terminal_period_maximizes_terminal_reward(self):
        spec, reward = small_spec(seed=10)
        policy = greedy_policy(spec, {}, McdConfig(engine="brute"),
                               transition_samples=3, seed=1)
        x = np.array([0.5, 0.5])
        action = policy(spec.horizon, x)
        best = max(enumerate_actions(spec.action_box),
                   key=lambda a: reward(spec.horizon, x, a))
        assert reward(spec.horizon, x, action) == pytest.approx(
            reward(spec.horizon, x, best))

    def test_engine_equivalence_in_objective(self):
        spec, reward = small_spec(seed=11)
        rng = np.random.default_rng(11)
        net = ReluNet(rng.normal(size=(4, 2)), rng.normal(size=4),
                      rng.normal(size=4), 0.0)
        nets = {2: net, 3: net}
        n_actions = spec.action_box.count()
        pol_b = greedy_policy(spec, nets, McdConfig(engine="brute"),
                              transition_samples=4, seed=3)
        pol_m = greedy_policy(
            spec, nets,
            McdConfig(engine="mcd", max_iterations=n_actions + 1,
                      gap_tolerance=0.0),
            transition_samples=4, seed=3)
        x = np.array([0.1, 0.9])
        a_b, a_m = pol_b(2, x), pol_m(2, x)
        # objective agreement; the argmax itself may differ on ties
        from nnfvi.cuts import RecourseContext, recourse_value
        rng2 = np.random.default_rng(0)

        def objective(a):
            cache_rng = np.random.default_rng(
                np.random.SeedSequence((3, 2, 0, 1)))
            noises = spec.draw_noises(cache_rng, 4)
            ctx = RecourseContext(net, spec, x, noises)
            return (reward(2, x, a)
                    + spec.discount * recourse_value(ctx, a)
                    + spec.discount * net.output_bias)

        assert objective(a_m) == pytest.approx(objective(a_b), abs=1e-6)

    def test_singleton_box(self):
        spec, _ = small_spec(seed=12, a_bar=(0, 0))
        policy = greedy_policy(spec, {}, McdConfig(engine="brute"),
                               transition_samples=2, seed=5)
        np.testing.assert_array_equal(policy(spec.horizon, np.zeros(2)), [0, 0])

    def test_deterministic_given_seed(self):
        spec, _ = small_spec(seed=13)
        rng = np.random.default_rng(13)
        net = ReluNet(rng.normal(size=(3, 2)), rng.normal(size=3),
                      rng.normal(size=3), 0.0)
        p1 = greedy_policy(spec, {2: net, 3: net}, McdConfig(engine="brute"),
                           transition_samples=3, seed=9)
        p2 = greedy_policy(spec, {2: net, 3: net}, McdConfig(engine="brute"),
                           transition_samples=3, seed=9)
        x = np.array([0.4, -0.4])
        np.testing.assert_array_equal(p1(2, x), p2(2, x))


def two_level_model(horizon=2, discount=0.9, deterministic=True, seed=0):
    """Tiny endogenous lattice {0,1}^1 with a 2-point exogenous chain."""
    endo = np.array([[0], [1]])
    exo = np.array([[0.0], [1.0]])
    if deterministic:
        kernel = np.array([[1.0, 0.0], [0.0, 1.0]])
    else:
        kernel = np.array([[0.7, 0.3], [0.4, 0.6]])
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(horizon + 1, 2, 2, 2))  # [t, e, x, a]
    return TabularMdp(horizon=horizon, discount=discount, endo_levels=endo,
                      exo_levels=exo, exo_kernel=kernel,
                      reward=lambda t: table[t]), table


class TestExactDp:
    def test_single_period_equals_pointwise_max(self):
        model, table = two_level_model(horizon=1)
        tables = exact_dp(model)
        for e in range(2):
            for x in range(2):
                assert tables.value(1, e, x) == pytest.approx(
                    max(table[1, e, x, a] for a in range(2)))

    def test_deterministic_chain_matches_rollout_oracle(self):
        # point-mass kernel: DP equals the best open-loop action sequence
        model, table = two_level_model(horizon=2, deterministic=True, seed=3)
        tables = exact_dp(model)
        for e in range(2):
            for x in range(2):
                best = -np.inf
                for a1, a2 in itertools.product(range(2), repeat=2):
                    val = table[1, e, x, a1] + model.discount * table[2, a1, x, a2]
                    best = max(best, val)
                assert tables.value(1, e, x) == pytest.approx(best)

    def test_stochastic_chain_matches_enumeration(self):
        # exhaustive policy enumeration over the tiny closed-loop policy space
        model, table = two_level_model(horizon=2, deterministic=False, seed=4)
        tables = exact_dp(model)
        kernel = model.exo_kernel
        for e in range(2):
            for x in range(2):
                best = -np.inf
                # period-2 decision may depend on the realized exogenous state
                for a1 in range(2):
                    val = table[1, e, x, a1]
                    cont = 0.0
                    for x2 in range(2):
                        cont += kernel[x, x2] * max(
                            table[2, a1, x2, a2] for a2 in range(2))
                    best = max(best, val + model.discount * cont)
                assert tables.value(1, e, x) == pytest.approx(best)

    def test_greedy_table_consistent(self):
        model, table = two_level_model(horizon=2, deterministic=False, seed=5)
        tables = exact_dp(model)
        for e in range(2):
            for x in range(2):
                a = tables.greedy[0, e, x]
                cont = tables.values[1] @ model.exo_kernel.T
                vals = [table[1, e, x, k] + model.discount * cont[k, x]
                        for k in range(2)]
                assert tables.value(1, e, x) == pytest.approx(vals[a])
                assert vals[a] == pytest.approx(max(vals))

    def test_size_refusal(self):
        endo = np.arange(2000).reshape(-1, 1)
        exo = np.arange(600).reshape(-1, 1)
        kernel = np.full((600, 600), 1.0 / 600)

        def reward(t):
            pytest.fail("the size check must refuse before any reward table")

        model = TabularMdp(horizon=2, discount=0.9, endo_levels=endo,
                           exo_levels=exo, exo_kernel=kernel, reward=reward)
        with pytest.raises(DpSizeError, match="1200000"):
            exact_dp(model)

    def test_wrong_reward_table_shape_refused(self):
        model, table = two_level_model(horizon=1)
        model = dataclasses.replace(model, reward=lambda t: table[t, :, :, :1])
        with pytest.raises(ValueError, match=r"shape \(2, 2, 1\)"):
            exact_dp(model)

    def test_csv_rows_shape(self):
        model, _ = two_level_model(horizon=2)
        tables = exact_dp(model)
        rows = tables.to_csv_rows()
        assert rows[0][0] == "period"
        assert len(rows) == 1 + 2 * 2 * 2
