import dataclasses

import numpy as np
import pytest

from nnfvi.fvi import FviConfig, exact_dp, greedy_policy, run_nnfvi
from nnfvi.mcd import McdConfig
from nnfvi.mcip import (
    CapacityState,
    DemandModel,
    McipInstance,
    adjustment_cost,
    build_mcip_mdp,
    constant_capacity_policy,
    dp_model,
    draw_demand_paths,
    iid_uniform_demand,
    inflexible_two_stage,
    mcip_reward,
    operating_profit,
    random_walk_demand,
    sensitivity_sweep,
    simulate_policy_on_paths,
    synthetic_instance,
    with_parameters,
)
from nnfvi.mdp import ActionBox, enumerate_actions
from nnfvi.neural import ReluNet, TrainConfig

from test_simplex import enumerate_vertex_optimum


def reward_tables(model):
    """Period t's reward table at index t - 1."""
    return [model.reward(t) for t in range(1, model.horizon + 1)]


def exact_plan_value(model, rewards, e0, x0, plan):
    """Exact expected discounted value of the constant plan ``plan``.

    ``plan`` is an endogenous-level row index: it is installed at the end of
    period 1 and held until the final period salvages it.  The expectation
    propagates the demand distribution through the kernel, without sampling.
    ``rewards`` are the model's :func:`reward_tables`.
    """
    probs = np.zeros(len(model.exo_levels))
    probs[x0] = 1.0
    total, e = 0.0, e0
    for t in range(1, model.horizon + 1):
        stage = sum(p * rewards[t - 1][e, x, plan]
                    for x, p in enumerate(probs) if p > 0)
        total += model.discount ** (t - 1) * stage
        probs = probs @ model.exo_kernel
        e = plan
    return total


def lattice_row(model, capacity):
    """Row of ``capacity`` among the DP model's capacity levels, matched
    exactly as ``dp-oracle`` does; an off-lattice capacity fails."""
    (row,) = np.flatnonzero((model.endo_levels == capacity).all(axis=1))
    return int(row)


def exact_value_of_flexibility(instance):
    """Exact DP value at the initial state minus the best constant plan's."""
    model = dp_model(instance)
    tables = exact_dp(model)
    e0 = lattice_row(model, instance.initial_capacity)
    x0 = instance.demand.index_of(instance.initial_demand)
    rewards = reward_tables(model)
    best_plan = max(exact_plan_value(model, rewards, e0, x0, a)
                    for a in range(len(model.endo_levels)))
    return tables.value(1, e0, x0) - best_plan


def tiny_fvi_config(seed=0, s1=40, s2=6, neurons=6):
    return FviConfig(
        state_samples=s1, transition_samples=s2, neurons=neurons,
        train=TrainConfig(restarts=2, max_epochs=400),
        mcd=McdConfig(engine="brute"),
        seed=seed,
    )


class TestDemandModels:
    def test_iid_kernel_rows_uniform(self):
        support = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        model = iid_uniform_demand(support)
        np.testing.assert_allclose(model.kernel, 1.0 / 3)

    def test_random_walk_reflects_at_borders(self):
        model = random_walk_demand(np.arange(4).reshape(-1, 1), 0.3, 0.3)
        np.testing.assert_allclose(model.kernel.sum(axis=1), 1.0)
        assert model.kernel[0, 0] == pytest.approx(0.7)  # reflected down-step
        assert model.kernel[3, 3] == pytest.approx(0.7)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError, match="sum to one"):
            DemandModel(support=np.ones((2, 1)), kernel=np.array([[0.5, 0.4],
                                                                  [0.5, 0.5]]))

    def test_index_and_transition(self):
        model = random_walk_demand(np.array([[1.0], [2.0], [3.0]]))
        assert model.index_of(np.array([2.0])) == 1
        assert model.next_index(1, 0.0) == 0
        assert model.next_index(1, 0.999) == 2

    def test_short_kernel_row_steps_to_last_row(self):
        # a row summing to 1 - 1e-13 passes validation; a draw above its
        # last cumulative value must land on the last row, not past it
        support = np.array([[1.0, 1.0], [2.0, 2.0]])
        kernel = np.array([[0.5, 0.5 - 1e-13], [0.5, 0.5]])
        model = DemandModel(support=support, kernel=kernel)
        u = 1.0 - 1e-14
        assert model.next_index(0, u) == 1
        assert model.next_index(0, 0.25) == 0
        inst = dataclasses.replace(synthetic_instance(seed=17), demand=model,
                                   initial_demand=support[0])
        offsets, _ = build_mcip_mdp(inst).transition(
            np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.25, u]))
        np.testing.assert_array_equal(offsets[:, 2:], support)

    def test_array_of_rows_steps_each_row(self):
        model = synthetic_instance(seed=3, demand_points=5).demand
        rng = np.random.default_rng(4)
        rows = rng.integers(0, model.size, size=50)
        u = rng.uniform(size=50)
        np.testing.assert_array_equal(
            model.next_index(rows, u),
            [model.next_index(int(r), float(v)) for r, v in zip(rows, u)])

    @pytest.mark.parametrize("markov", [True, False])
    def test_paths_match_sampling_one_path_at_a_time(self, markov):
        # the oracle draws one uniform per step, path after path
        inst = synthetic_instance(seed=9, horizon=4, demand_points=5, markov=markov)
        rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
        paths = draw_demand_paths(inst, 30, rng)
        expected = np.empty((30, inst.horizon), dtype=np.int64)
        for p in range(30):
            expected[p, 0] = inst.demand.index_of(inst.initial_demand)
            for t in range(1, inst.horizon):
                expected[p, t] = inst.demand.next_index(expected[p, t - 1],
                                                        oracle_rng.uniform())
        np.testing.assert_array_equal(paths, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestOperatingProfit:
    def test_zero_capacity_full_penalty(self):
        inst = synthetic_instance(seed=0)
        d = inst.demand.support[2]
        value, z = operating_profit(inst, 1, np.zeros(2), d)
        np.testing.assert_allclose(z, 0.0, atol=1e-9)
        assert value == pytest.approx(-float(inst.penalties[0] @ d))

    def test_nonbinding_capacity_best_facility(self):
        inst = synthetic_instance(seed=1)
        d = inst.demand.support[0]
        huge = np.full(2, float(d.sum()) + 1.0)
        value, _ = operating_profit(inst, 2, huge, d)
        expected = float(np.sum(inst.revenues[1].max(axis=1) * d))
        assert value == pytest.approx(expected, abs=1e-8)

    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(2)
        inst = synthetic_instance(seed=3, customers=3, facilities=2)
        I, N = 3, 2
        for trial in range(10):
            K = rng.uniform(0.0, 3.0, size=N)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            t = int(rng.integers(1, inst.horizon + 1))
            margin = (inst.revenues[t - 1] + inst.penalties[t - 1][:, None]).ravel()
            rows = []
            rhs = []
            for n in range(N):
                row = np.zeros(I * N)
                row[n::N] = 1.0
                rows.append(row)
                rhs.append(K[n])
            for i in range(I):
                row = np.zeros(I * N)
                row[i * N:(i + 1) * N] = 1.0
                rows.append(row)
                rhs.append(d[i])
            box = np.repeat(np.minimum.outer(d, K).reshape(-1), 1)
            expected_alloc = enumerate_vertex_optimum(
                margin, np.vstack(rows), np.asarray(rhs), box, True)
            got, _ = operating_profit(inst, t, K, d)
            assert got == pytest.approx(
                expected_alloc - float(inst.penalties[t - 1] @ d), abs=1e-8)

    def test_complete_recourse_never_infeasible(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            inst = synthetic_instance(seed=seed)
            for _ in range(200):
                K = rng.uniform(0, inst.capacity_max.astype(float))
                d = inst.demand.support[rng.integers(0, inst.demand.size)]
                t = int(rng.integers(1, inst.horizon + 1))
                operating_profit(inst, t, K, d)  # raises on any failure

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(5)
        inst = synthetic_instance(seed=6)
        for _ in range(30):
            K = rng.uniform(0, 2.5, size=2)
            bump = rng.uniform(0, 0.5, size=2)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            lo, _ = operating_profit(inst, 1, K, d)
            hi, _ = operating_profit(inst, 1, K + bump, d)
            assert hi >= lo - 1e-8

    def test_midpoint_concavity_in_capacity(self):
        rng = np.random.default_rng(6)
        inst = synthetic_instance(seed=7)
        for _ in range(30):
            K1 = rng.uniform(0, 3, size=2)
            K2 = rng.uniform(0, 3, size=2)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            mid, _ = operating_profit(inst, 2, 0.5 * (K1 + K2), d)
            v1, _ = operating_profit(inst, 2, K1, d)
            v2, _ = operating_profit(inst, 2, K2, d)
            assert mid >= 0.5 * v1 + 0.5 * v2 - 1e-8


class TestReward:
    def test_no_change_no_adjustment(self):
        inst = synthetic_instance(seed=8)
        K = np.array([2.0, 1.0])
        d = inst.demand.support[1]
        state = CapacityState(capacity=K, demand=d)
        q, _ = operating_profit(inst, 1, K, d)
        assert mcip_reward(inst, 1, state, K) == pytest.approx(q)

    def test_pure_expansion_charges_expansion_price(self):
        inst = synthetic_instance(seed=9)
        state = CapacityState(capacity=np.zeros(2), demand=inst.demand.support[0])
        target = np.array([2.0, 1.0])
        q, _ = operating_profit(inst, 1, np.zeros(2), state.demand)
        expected = q - float(inst.expansion_costs[0] @ target)
        assert mcip_reward(inst, 1, state, target) == pytest.approx(expected)

    def test_pure_contraction_earns_salvage(self):
        inst = synthetic_instance(seed=10)
        K = np.array([3.0, 2.0])
        state = CapacityState(capacity=K, demand=inst.demand.support[0])
        q, _ = operating_profit(inst, 2, K, state.demand)
        expected = q + float(inst.salvage_values[1] @ K)
        assert mcip_reward(inst, 2, state, np.zeros(2)) == pytest.approx(expected)

    def test_terminal_action_forced_to_zero(self):
        inst = synthetic_instance(seed=11)
        K = np.array([1.0, 2.0])
        state = CapacityState(capacity=K, demand=inst.demand.support[2])
        T = inst.horizon
        a = np.array([3.0, 3.0])  # ignored at the terminal period
        assert mcip_reward(inst, T, state, a) == pytest.approx(
            mcip_reward(inst, T, state, np.zeros(2)))

    def test_reward_bound_holds_on_samples(self):
        rng = np.random.default_rng(12)
        inst = synthetic_instance(seed=13)
        bound = inst.reward_bound()
        for _ in range(300):
            K = rng.uniform(0, inst.capacity_max.astype(float))
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            a = rng.integers(0, inst.capacity_max + 1).astype(float)
            t = int(rng.integers(1, inst.horizon + 1))
            r = mcip_reward(inst, t, CapacityState(K, d), a)
            assert abs(r) <= bound + 1e-9


class TestMdpConstruction:
    def test_linear_part_structure(self):
        inst = synthetic_instance(seed=14)
        spec = build_mcip_mdp(inst)
        _, linears = spec.transition(spec.initial_state, np.array([0.5, 0.2]))
        assert linears.shape == (2, 4, 2)
        for B in linears:
            np.testing.assert_array_equal(B[:2], np.eye(2))
            np.testing.assert_array_equal(B[2:], np.zeros((2, 2)))

    def test_action_writes_capacity_block(self):
        inst = synthetic_instance(seed=15)
        spec = build_mcip_mdp(inst)
        x = spec.initial_state
        a = np.array([2, 1])
        offsets, linears = spec.transition(x, np.array([0.3]))
        nxt = offsets[0] + linears[0] @ a
        np.testing.assert_allclose(nxt[:2], [2.0, 1.0])

    def test_demand_transition_matches_model_sampling(self):
        # oracle: the first row whose cumulative probability exceeds the
        # draw, one uniform at a time, including 0 and the uniforms in
        # [0, 1) on the kernel row's cumulative sums
        inst = synthetic_instance(seed=16)
        spec = build_mcip_mdp(inst)
        model = inst.demand
        rng = np.random.default_rng(0)
        for idx in range(model.size):
            x = np.concatenate([[1.0, 2.0], model.support[idx]])
            cdf = np.cumsum(model.kernel[idx])
            us = np.concatenate([[0.0, 0.05, 0.4, 0.95], cdf[cdf < 1.0],
                                 rng.uniform(size=200)])
            offsets, _ = spec.transition(x, us)
            assert offsets.shape == (us.size, 4)
            np.testing.assert_array_equal(offsets[:, :2], 0.0)
            for u, row in zip(us, offsets):
                step = next(k for k in range(model.size) if cdf[k] > u)
                assert model.next_index(idx, float(u)) == step
                np.testing.assert_array_equal(row[2:], model.support[step])

    def test_noise_batch_is_stratified(self):
        spec = build_mcip_mdp(synthetic_instance(seed=16))
        us = spec.draw_noises(np.random.default_rng(4), 8)
        assert us.shape == (8,)
        np.testing.assert_array_equal(np.sort(np.floor(us * 8)), np.arange(8))

    def test_state_sampler_demand_on_lattice(self):
        inst = synthetic_instance(seed=17)
        spec = build_mcip_mdp(inst)
        states = spec.state_sampler(np.random.default_rng(0), 50)
        for row in states:
            d = row[2:]
            dists = np.abs(inst.demand.support - d).sum(axis=1)
            assert dists.min() < 1e-12
            assert np.all(row[:2] >= 0) and np.all(row[:2] <= inst.capacity_max)

    def test_stage_reward_matches_callback(self):
        inst = synthetic_instance(seed=18)
        spec = build_mcip_mdp(inst)
        rng = np.random.default_rng(1)
        for t in (1, 2, inst.horizon):
            x = spec.state_sampler(rng, 1)[0]
            sr = spec.stage_reward(t, x)
            actions = enumerate_actions(spec.action_box)
            state = CapacityState(capacity=x[:2], demand=x[2:])
            expected = [mcip_reward(inst, t, state, a) for a in actions]
            np.testing.assert_allclose(sr.values(actions), expected,
                                       rtol=1e-12, atol=1e-12)


class TestExtendedValueEquivalence:
    def _extended_recursion(self, inst):
        """Independent backward recursion over lattice points (Eq.-17 style)."""
        levels = enumerate_actions(ActionBox(inst.capacity_max))
        support = inst.demand.support
        kernel = inst.demand.kernel
        T = inst.horizon
        tables = {}
        for t in range(T, 0, -1):
            V = np.empty((len(levels), len(support)))
            for e, K in enumerate(levels):
                for x in range(len(support)):
                    state = CapacityState(K.astype(float), support[x])
                    best = -np.inf
                    for a, Ka in enumerate(levels):
                        val = mcip_reward(inst, t, state, Ka.astype(float))
                        if t < T:
                            cont = sum(kernel[x, x2] * tables[t + 1][a, x2]
                                       for x2 in range(len(support)))
                            val += inst.discount * cont
                        best = max(best, val)
                    V[e, x] = best
            tables[t] = V
        return tables

    def test_reward_tables_equal_mcip_reward_bit_for_bit(self):
        inst = synthetic_instance(seed=19, capacity_max=2, demand_points=2,
                                  horizon=2)
        model = dp_model(inst)
        levels = model.endo_levels.astype(float)
        for t in range(1, inst.horizon + 1):
            table = model.reward(t)
            for e, x, a in np.ndindex(table.shape):
                state = CapacityState(levels[e], inst.demand.support[x])
                assert table[e, x, a] == mcip_reward(inst, t, state, levels[a])

    def test_dp_equals_extended_recursion_on_lattice(self):
        inst = synthetic_instance(seed=19, capacity_max=2, demand_points=2,
                                  horizon=2)
        dp = exact_dp(dp_model(inst))
        reference = self._extended_recursion(inst)
        for t in range(1, inst.horizon + 1):
            np.testing.assert_allclose(dp.values[t - 1], reference[t],
                                       rtol=0, atol=1e-9)

    def test_terminal_midpoint_concavity(self):
        inst = synthetic_instance(seed=20)
        T = inst.horizon
        rng = np.random.default_rng(2)
        for _ in range(20):
            K1 = rng.uniform(0, 3, size=2)
            K2 = rng.uniform(0, 3, size=2)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]

            def terminal_value(K):
                return mcip_reward(inst, T, CapacityState(K, d), np.zeros(2))

            mid = terminal_value(0.5 * (K1 + K2))
            assert mid >= 0.5 * terminal_value(K1) + 0.5 * terminal_value(K2) - 1e-8


def rollout_per_path(instance, policy, paths):
    """Reference rollout: one path at a time, the policy called at every
    step before the horizon; returns the NPVs and the states visited."""
    N, T = instance.facilities, instance.horizon
    npvs = np.empty(len(paths))
    visited = set()
    for p in range(len(paths)):
        capacity = instance.initial_capacity.astype(float).copy()
        total = 0.0
        for t in range(1, T + 1):
            demand = instance.demand.support[paths[p, t - 1]]
            x = np.concatenate([capacity, demand])
            if t < T:
                visited.add((t, tuple(x)))
            action = np.zeros(N) if t == T else np.asarray(
                policy(t, x), dtype=float)
            state = CapacityState(capacity=capacity, demand=demand)
            total += instance.discount ** (t - 1) * mcip_reward(
                instance, t, state, action)
            capacity = action
        npvs[p] = total
    return npvs, visited


def random_greedy_policy(instance, seed):
    """Greedy policy over random networks; its decisions vary with demand."""
    spec = build_mcip_mdp(instance)
    rng = np.random.default_rng(seed)
    nets = {t: ReluNet(rng.normal(size=(6, spec.state_dim)), rng.normal(size=6),
                       rng.normal(size=6) * 5.0, 0.0)
            for t in range(2, instance.horizon + 1)}
    return greedy_policy(spec, nets, McdConfig(engine="brute"),
                         transition_samples=4, seed=seed)


class TestSimulation:
    def test_matches_per_path_rollout_bit_for_bit(self):
        inst = synthetic_instance(seed=35, horizon=4)
        paths = draw_demand_paths(inst, 200, np.random.default_rng(8))
        greedy = random_greedy_policy(inst, seed=3)
        plan = constant_capacity_policy(inst, np.array([2, 1]))
        for policy in (greedy, plan):
            expected, visited = rollout_per_path(inst, policy, paths)
            result = simulate_policy_on_paths(inst, policy, paths)
            np.testing.assert_array_equal(result.npvs, expected)
            assert result.mean == float(expected.mean())
            assert result.std_error == float(
                expected.std(ddof=1) / np.sqrt(len(expected)))
            if policy is greedy:
                # the greedy paths branch: period-3 states hold several capacities
                assert len({x[:2] for t, x in visited if t == 3}) > 1

    def test_policy_called_once_per_distinct_state(self):
        inst = synthetic_instance(seed=35, horizon=4)
        paths = draw_demand_paths(inst, 200, np.random.default_rng(8))
        greedy = random_greedy_policy(inst, seed=3)
        calls = []

        def counted(t, x):
            calls.append((t, tuple(x)))
            return greedy(t, x)

        simulate_policy_on_paths(inst, counted, paths)
        _, visited = rollout_per_path(inst, greedy, paths)
        assert len(calls) == len(set(calls))
        assert set(calls) == visited

    def test_zero_capacity_matches_analytic_expectation(self):
        inst = synthetic_instance(seed=21, markov=False)  # iid demand
        policy = constant_capacity_policy(inst, np.zeros(2))
        result = simulate_policy_on_paths(
            inst, policy, draw_demand_paths(inst, 4000, np.random.default_rng(3)))
        # reward with zero capacity is minus the penalty bill; demand is iid
        expected = -float(inst.penalties[0] @ inst.initial_demand)
        for t in range(2, inst.horizon + 1):
            mean_bill = np.mean(inst.demand.support @ inst.penalties[t - 1])
            expected -= inst.discount ** (t - 1) * mean_bill
        assert result.mean == pytest.approx(expected, abs=4 * result.std_error)

    def test_deterministic_demand_hand_rollout(self):
        inst = synthetic_instance(seed=22, horizon=2, demand_points=1)
        # single support point: path is deterministic
        plan = np.array([1, 1])
        policy = constant_capacity_policy(inst, plan)
        result = simulate_policy_on_paths(
            inst, policy, draw_demand_paths(inst, 3, np.random.default_rng(0)))
        d = inst.demand.support[0]
        r1 = mcip_reward(inst, 1, CapacityState(np.zeros(2), d), plan.astype(float))
        r2 = mcip_reward(inst, 2, CapacityState(plan.astype(float), d), np.zeros(2))
        expected = r1 + inst.discount * r2
        assert result.mean == pytest.approx(expected, abs=1e-9)
        assert result.std_error == pytest.approx(0.0, abs=1e-12)

    def test_standard_error_scaling(self):
        inst = synthetic_instance(seed=23, horizon=2)
        policy = constant_capacity_policy(inst, np.array([1, 1]))
        small = simulate_policy_on_paths(
            inst, policy, draw_demand_paths(inst, 100, np.random.default_rng(5)))
        large = simulate_policy_on_paths(
            inst, policy, draw_demand_paths(inst, 10_000, np.random.default_rng(6)))
        ratio = small.std_error / large.std_error
        assert 10.0 * 0.7 <= ratio <= 10.0 * 1.3

    def test_common_paths_reused_across_policies(self):
        inst = synthetic_instance(seed=24)
        paths = draw_demand_paths(inst, 50, np.random.default_rng(7))
        a = simulate_policy_on_paths(inst, constant_capacity_policy(inst, np.zeros(2)), paths)
        b = simulate_policy_on_paths(inst, constant_capacity_policy(inst, np.zeros(2)), paths)
        np.testing.assert_array_equal(a.npvs, b.npvs)


class TestInflexibleDesign:
    def test_degenerate_single_period_matches_dp(self):
        inst = synthetic_instance(seed=25, horizon=1)
        paths = draw_demand_paths(inst, 1, np.random.default_rng(0))
        plan, value = inflexible_two_stage(inst, paths)
        np.testing.assert_array_equal(plan, [0, 0])
        dp = exact_dp(dp_model(inst))
        e = lattice_row(dp.model, inst.initial_capacity)
        x = inst.demand.index_of(inst.initial_demand)
        assert value == pytest.approx(dp.value(1, e, x), abs=1e-7)

    def test_prohibitive_expansion_keeps_initial_capacity(self):
        inst = synthetic_instance(seed=26)
        inst = McipInstance(
            customers=inst.customers, facilities=inst.facilities,
            horizon=inst.horizon, discount=inst.discount,
            revenues=inst.revenues, penalties=inst.penalties,
            expansion_costs=inst.expansion_costs * 1e5,
            salvage_values=inst.salvage_values,
            initial_capacity=inst.initial_capacity,
            capacity_max=inst.capacity_max,
            demand=inst.demand, initial_demand=inst.initial_demand,
        )
        paths = draw_demand_paths(inst, 10, np.random.default_rng(1))
        plan, _ = inflexible_two_stage(inst, paths)
        np.testing.assert_array_equal(plan, inst.initial_capacity.astype(int))

    def test_in_sample_objective_matches_rollout(self):
        # the in-sample value scored on the scenario set equals the simulated
        # value of the returned plan on those same scenarios
        inst = synthetic_instance(seed=27)
        paths = draw_demand_paths(inst, 8, np.random.default_rng(2))
        plan, value = inflexible_two_stage(inst, paths)
        rolled = simulate_policy_on_paths(
            inst, constant_capacity_policy(inst, plan), paths)
        assert value == pytest.approx(rolled.mean, abs=1e-6)

    def test_plan_beats_arbitrary_constant_plans_in_sample(self):
        inst = synthetic_instance(seed=28)
        paths = draw_demand_paths(inst, 12, np.random.default_rng(3))
        plan, value = inflexible_two_stage(inst, paths)
        for other in ([0, 0], [3, 3], [1, 2]):
            rolled = simulate_policy_on_paths(
                inst, constant_capacity_policy(inst, np.asarray(other)), paths)
            assert value >= rolled.mean - 1e-6

    @pytest.mark.parametrize("instance", [
        # limits 0 and 4 beside 1: the plan must stay inside the box
        dataclasses.replace(synthetic_instance(seed=29, facilities=3),
                            capacity_max=np.array([0, 1, 4])),
        synthetic_instance(seed=30, horizon=2, capacity_max=6),
        synthetic_instance(seed=30, horizon=4, capacity_max=6),
        synthetic_instance(seed=30, markov=False, capacity_max=6),
        # period 1 is scored at the off-lattice start, not on the lattice
        dataclasses.replace(synthetic_instance(seed=30, capacity_max=6),
                            initial_capacity=np.array([1.5, 0.0])),
    ], ids=["mixed", "T2", "T4", "iid", "K0-1.5"])
    def test_mixed_capacity_limits_give_best_constant_plan(self, instance):
        # the plan and its value match exhaustive rollout of every constant
        # plan on the scenario paths it was chosen on
        paths = draw_demand_paths(instance, 6, np.random.default_rng(4))
        plan, value = inflexible_two_stage(instance, paths)
        box = ActionBox(instance.capacity_max)
        box.check(plan)
        means = [simulate_policy_on_paths(
            instance, constant_capacity_policy(instance, other), paths).mean
            for other in enumerate_actions(box)]
        assert value == pytest.approx(max(means), abs=1e-6)
        rolled = simulate_policy_on_paths(
            instance, constant_capacity_policy(instance, plan), paths)
        assert rolled.mean == pytest.approx(max(means), abs=1e-6)


class TestValueOfFlexibilityOracle:
    def test_non_negative_on_instance_family(self):
        # the DP optimum is never below the best constant plan; seed 9 with
        # the two cells criterion 9 compares is where the value is exactly 0
        for seed in (0, 7, 8, 9):
            inst = synthetic_instance(seed=seed)
            for gamma, ratio in ((0.6, 0.0), (0.95, 0.99)):
                cell = with_parameters(inst, gamma=gamma, salvage_ratio=ratio)
                assert exact_value_of_flexibility(cell) >= -1e-9

    def test_detects_positive_value(self):
        inst = with_parameters(synthetic_instance(seed=7), gamma=0.6,
                               salvage_ratio=0.0)
        assert exact_value_of_flexibility(inst) > 0.1

    def test_plan_value_equals_deterministic_rollout(self):
        inst = synthetic_instance(seed=33, demand_points=1)
        model = dp_model(inst)
        rewards = reward_tables(model)
        paths = draw_demand_paths(inst, 1, np.random.default_rng(0))
        for e, plan in enumerate(model.endo_levels):
            rolled = simulate_policy_on_paths(
                inst, constant_capacity_policy(inst, plan), paths)
            assert exact_plan_value(model, rewards, 0, 0, e) == pytest.approx(
                rolled.mean, abs=1e-9)

    def test_plan_value_equals_probability_weighted_rollouts(self):
        # every demand path from the initial row, weighted by its kernel
        # probability, gives the exact expectation by a second route
        inst = synthetic_instance(seed=34)
        model = dp_model(inst)
        rewards = reward_tables(model)
        x0 = inst.demand.index_of(inst.initial_demand)
        M, T = inst.demand.size, inst.horizon
        tails = np.array(np.meshgrid(*[np.arange(M)] * (T - 1),
                                     indexing="ij")).reshape(T - 1, -1).T
        paths = np.column_stack([np.full(len(tails), x0), tails])
        weights = np.ones(len(paths))
        for t in range(1, T):
            weights *= inst.demand.kernel[paths[:, t - 1], paths[:, t]]
        for e in (0, 5, len(model.endo_levels) - 1):
            plan = model.endo_levels[e]
            rolled = simulate_policy_on_paths(
                inst, constant_capacity_policy(inst, plan), paths)
            assert exact_plan_value(model, rewards, 0, x0, e) == pytest.approx(
                float(weights @ rolled.npvs), abs=1e-9)


class TestSweep:
    def test_single_cell_equals_direct_calls(self):
        inst = synthetic_instance(seed=29)
        cfg = tiny_fvi_config(seed=5, s1=25, s2=4, neurons=4)
        cells = sensitivity_sweep(inst, [0.85], [0.5], cfg,
                                  n_paths=60, n_scenarios=6, seed=11)
        assert len(cells) == 1
        cell = cells[0]

        inst2 = with_parameters(inst, gamma=0.85, salvage_ratio=0.5)
        spec = build_mcip_mdp(inst2)
        fitted, _ = run_nnfvi(spec, cfg)
        policy = greedy_policy(spec, fitted.nets, cfg.mcd,
                               cfg.transition_samples, seed=cfg.seed + 1)
        paths = draw_demand_paths(inst2, 60, np.random.default_rng(11))
        flex = simulate_policy_on_paths(inst2, policy, paths)
        assert cell.flexible_enpv == pytest.approx(flex.mean, abs=1e-9)
        assert cell.gamma == 0.85 and cell.ratio == 0.5

    def test_salvage_ratio_rewrite(self):
        inst = synthetic_instance(seed=30)
        inst2 = with_parameters(inst, salvage_ratio=0.25)
        np.testing.assert_allclose(inst2.salvage_values,
                                   0.25 * inst.expansion_costs)
        with pytest.raises(ValueError):
            with_parameters(inst, salvage_ratio=1.5)


class TestInstanceSerialization:
    def test_json_round_trip(self):
        inst = synthetic_instance(seed=31)
        clone = McipInstance.loads(inst.dumps())
        np.testing.assert_allclose(clone.revenues, inst.revenues)
        np.testing.assert_allclose(clone.demand.kernel, inst.demand.kernel)
        assert clone.horizon == inst.horizon

    @pytest.mark.parametrize("key, value", [("horizon", 2.5), ("customers", 1.5),
                                            ("capacity_max", [2.7, 3])])
    def test_fractional_integer_field_is_refused_not_truncated(self, key, value):
        data = synthetic_instance(seed=31).to_json_dict()
        with pytest.raises(ValueError, match=f"{key} must be integral"):
            McipInstance.from_json_dict({**data, key: value})
        clone = McipInstance.from_json_dict({**data, "horizon": 3.0,
                                             "capacity_max": [3.0, 2]})
        assert type(clone.horizon) is int and clone.horizon == 3
        np.testing.assert_array_equal(clone.capacity_max, [3, 2])

    def test_synthetic_fractional_capacity_limit_is_refused(self):
        with pytest.raises(ValueError, match="capacity_max must be integral"):
            synthetic_instance(seed=31, capacity_max=2.5)
        np.testing.assert_array_equal(
            synthetic_instance(seed=31, capacity_max=2.0).capacity_max,
            synthetic_instance(seed=31, capacity_max=2).capacity_max)

    def test_salvage_above_expansion_rejected(self):
        inst = synthetic_instance(seed=32)
        with pytest.raises(ValueError, match="salvage"):
            McipInstance(
                customers=inst.customers, facilities=inst.facilities,
                horizon=inst.horizon, discount=inst.discount,
                revenues=inst.revenues, penalties=inst.penalties,
                expansion_costs=inst.expansion_costs,
                salvage_values=inst.expansion_costs * 2.0,
                initial_capacity=inst.initial_capacity,
                capacity_max=inst.capacity_max,
                demand=inst.demand, initial_demand=inst.initial_demand,
            )
