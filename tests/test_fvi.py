import collections
import dataclasses
import itertools

import numpy as np
import pytest

from nnfvi import fvi, mcd, mcip, neural
from nnfvi.bnb import MilpSolution
from nnfvi.fvi import (
    DpSizeError,
    DpTables,
    FittedValueSet,
    FviConfig,
    PeriodTime,
    PeriodWork,
    TabularMdp,
    bellman_target,
    exact_dp,
    greedy_policy,
    run_nnfvi,
)
from nnfvi.mcd import McdConfig, StageReward, linear_stage_reward
from nnfvi.mdp import ActionBox, MdpSpec, enumerate_actions, sample_states
from nnfvi.neural import RegressionSet, ReluNet, TrainConfig, fit, loss

from conftest import random_affine_spec, uniform_box_sampler
from test_mcd import criterion_4_spec

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

    @pytest.mark.parametrize("field", ["state_samples", "transition_samples", "neurons"])
    def test_non_integral_counts_are_refused(self, field):
        with pytest.raises(ValueError, match=f"{field} must be integral"):
            FviConfig(**{field: 2.5})

    @pytest.mark.parametrize("field", ["state_samples", "transition_samples", "neurons"])
    @pytest.mark.parametrize("value", [3.0, np.int64(3)])
    def test_integral_counts_are_accepted_as_int(self, field, value):
        got = getattr(FviConfig(**{field: value}), field)
        assert got == 3 and type(got) is int


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

    @pytest.mark.parametrize("engine", ["brute", "mcd"])
    @pytest.mark.parametrize("spec_of", [
        lambda: small_spec(seed=5)[0],
        lambda: criterion_4_spec(),
    ], ids=["small", "criterion-4"])
    def test_a_permuted_batch_selects_the_same_bit_for_bit(self, engine, spec_of):
        # the selection runs on the batch in canonical order, so it depends
        # on the multiset of transitions, not on the order of the draws
        spec = spec_of()
        rng = np.random.default_rng(6)
        n1 = spec.state_dim
        nets = fvi._with_terminal(spec, {3: ReluNet(
            rng.normal(size=(8, n1)), rng.normal(size=8), rng.normal(size=8), 0.5)})
        config = McdConfig(engine=engine)
        for x in sample_states(spec, 6, rng):
            noises = spec.draw_noises(rng, 12)
            permuted = noises[rng.permutation(12)]
            reward = spec.stage_reward(2, x)
            ref = fvi._decide(spec, nets, 2, x, noises, reward, config)
            res = fvi._decide(spec, nets, 2, x, permuted, reward, config)
            np.testing.assert_array_equal(res.action, ref.action)
            assert res.objective == ref.objective
            assert bellman_target(spec, nets, 2, x, permuted, config) == ref.objective

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


def concave_reward_spec():
    """``small_spec`` with a state-dependent stage reward whose first
    dimension peaks inside its range and whose second has no pieces."""
    spec, _ = small_spec(seed=21)
    spec.stage_reward = lambda t, x: StageReward(
        constant=float(np.sum(x)),
        pieces=[[(1.0, 0.0), (-2.0, 3.0 + float(x[0]))], []])
    return spec


def per_sample_oracle(spec, config):
    """``run_nnfvi`` as one ``bellman_target`` per sampled state, each
    building its own stage reward, with the driver's substreams."""
    T, s1, s2 = spec.horizon, config.state_samples, config.transition_samples

    def noises(t, sample):
        rng = fvi._substream(config.seed, t, sample, fvi._NOISE)
        return spec.draw_noises(rng, s2)

    nets, losses = {}, {}
    for t in range(T, 1, -1):
        states = sample_states(spec, s1, fvi._substream(config.seed, t, 0, fvi._STATES))
        targets = np.array([bellman_target(spec, nets, t, x, noises(t, s + 1), config.mcd)
                            for s, x in enumerate(states)])
        data = RegressionSet(states, targets)
        nets[t] = fit(data, config.neurons, config.train,
                      fvi._substream(config.seed, t, 0, fvi._FIT))
        losses[t] = loss(nets[t], data, config.train.regularization)
    v_hat = bellman_target(spec, nets, 1, spec.initial_state, noises(1, 0), config.mcd)
    return FittedValueSet(nets, v_hat, losses, config.to_json_dict()), v_hat


def criterion_4_config(restarts=5, max_epochs=200):
    return FviConfig(state_samples=200, transition_samples=20, neurons=20,
                     train=TrainConfig(restarts=restarts, max_epochs=max_epochs),
                     mcd=McdConfig(engine="brute"), seed=0)


def record_selections(monkeypatch):
    """The state of every selection ``run_nnfvi`` makes, in order."""
    states, select = [], fvi.select_action

    def recording_select(ctx, reward, config):
        states.append(tuple(ctx.x))
        return select(ctx, reward, config)

    monkeypatch.setattr(fvi, "select_action", recording_select)
    return states


def record_results(monkeypatch):
    """The result of every selection ``run_nnfvi`` makes, in order."""
    results, select = [], fvi.select_action

    def recording_select(ctx, reward, config):
        results.append(select(ctx, reward, config))
        return results[-1]

    monkeypatch.setattr(fvi, "select_action", recording_select)
    return results


def recount(results) -> tuple:
    """Totals of iterations, B&B nodes, LP pivots and fallbacks."""
    return (sum(r.iterations for r in results), sum(r.milp_nodes for r in results),
            sum(r.lp_pivots for r in results), sum(r.fell_back for r in results))


class TestPerStateWork:
    """The driver builds one stage reward per distinct sampled state, takes
    the horizon's targets from the rewards' integer maxima with no
    selection, selects once per distinct decision problem (state and
    multiset of transitions) before it, and still returns what a selection
    per sample returns."""

    @pytest.mark.parametrize("config", [
        criterion_4_config(),
        FviConfig(state_samples=60, transition_samples=6, neurons=6,
                  train=TrainConfig(restarts=1, max_epochs=60),
                  mcd=McdConfig(engine="mcd"), seed=3),
    ], ids=["criterion-4-brute", "small-mcd"])
    def test_matches_a_selection_per_sample(self, config):
        spec = criterion_4_spec()
        fitted, v_hat = run_nnfvi(spec, config)
        ref, ref_v = per_sample_oracle(spec, config)
        assert v_hat == ref_v
        assert fitted.dumps() == ref.dumps()

    def test_counts_on_criterion_4(self, monkeypatch):
        # 48 lattice states, each sampled about 4 times per period
        spec = criterion_4_spec()
        periods, stage_reward = [], spec.stage_reward

        def counting_reward(t, x):
            periods.append(t)
            return stage_reward(t, x)

        spec.stage_reward = counting_reward
        selections = record_selections(monkeypatch)
        fitted, _ = run_nnfvi(spec, criterion_4_config(restarts=1, max_epochs=20))
        assert len(periods) == 97
        assert collections.Counter(periods) == {3: 48, 2: 48, 1: 1}
        # the 20 stratified draws give every sample of a state the same
        # multiset of next states, so each state is one decision problem
        assert len(selections) == 48 + 1
        # brute force: 16 actions, so 16 iterations, per selection
        assert fitted.work == {
            3: PeriodWork(sampled=200, distinct=48, rewards=48, selections=0,
                          recourses=0, iterations=0, milp_nodes=0, lp_pivots=0,
                          fallbacks=0, restarts_discarded=0),
            2: PeriodWork(sampled=200, distinct=48, rewards=48, selections=48,
                          recourses=3, iterations=48 * 16, milp_nodes=0, lp_pivots=0,
                          fallbacks=0, restarts_discarded=0),
            1: PeriodWork(sampled=1, distinct=1, rewards=1, selections=1,
                          recourses=1, iterations=16, milp_nodes=0, lp_pivots=0,
                          fallbacks=0, restarts_discarded=0),
        }
        assert "work" not in fitted.to_json_dict()

    def test_selection_totals_on_criterion_4_match_a_recount(self, monkeypatch):
        results = record_results(monkeypatch)
        config = dataclasses.replace(criterion_4_config(restarts=1, max_epochs=20),
                                     mcd=McdConfig(engine="mcd"))
        fitted, _ = run_nnfvi(criterion_4_spec(), config)
        # the periods select in the order T, ..., 1
        counts = [fitted.work[t].selections for t in (3, 2, 1)]
        assert counts == [0, 48, 1] and sum(counts) == len(results)
        chunks = np.split(np.arange(len(results)), np.cumsum(counts)[:-1])
        for t, chunk in zip((3, 2, 1), chunks):
            work = fitted.work[t]
            assert (work.iterations, work.milp_nodes, work.lp_pivots,
                    work.fallbacks) == recount([results[k] for k in chunk])
        assert fitted.work[2].milp_nodes > 0 and fitted.work[2].lp_pivots > 0

    def test_sweep_samples_of_a_state_select_once_per_transition_multiset(
            self, monkeypatch):
        # the criterion-9 sweep cell's config: with 12 draws, two samples of
        # one state can meet different multisets of next states, and each
        # multiset is a decision problem of its own
        inst = mcip.with_parameters(
            mcip.synthetic_instance(seed=9, customers=2, facilities=2, horizon=3,
                                    capacity_max=3, demand_points=3),
            gamma=0.6, salvage_ratio=0.0)
        spec = mcip.build_mcip_mdp(inst)
        config = FviConfig(state_samples=96, transition_samples=12, neurons=12,
                           train=TrainConfig(restarts=2, max_epochs=120),
                           mcd=McdConfig(engine="brute"), seed=0)
        selections = record_selections(monkeypatch)
        fitted, _ = run_nnfvi(spec, config)
        # brute recount: the sorted transition rows of each period-2 sample
        problems = collections.defaultdict(set)
        states = sample_states(spec, 96, fvi._substream(0, 2, 0, fvi._STATES))
        for s, x in enumerate(states):
            noises = spec.draw_noises(fvi._substream(0, 2, s + 1, fvi._NOISE), 12)
            offsets, linears = spec.transition(x, noises)
            problems[tuple(x)].add(tuple(sorted(
                (*o, *b.ravel()) for o, b in zip(offsets, linears))))
        assert fitted.work[2].selections == sum(map(len, problems.values()))
        assert max(map(len, problems.values())) > 1
        # period 2 selects before period 1, which makes the last selection
        assert collections.Counter(selections[:-1]) == {
            x: len(multisets) for x, multisets in problems.items()}

    def test_fallbacks_are_counted(self, monkeypatch):
        monkeypatch.setattr(mcd, "solve_milp",
                            lambda *args, **kwargs: MilpSolution(status="infeasible"))
        spec, _ = small_spec(seed=14)
        results = record_results(monkeypatch)
        config = quick_config(engine="mcd", s1=6, s2=3, neurons=3, epochs=40)
        with pytest.warns(RuntimeWarning, match="falling back to brute force"):
            fitted, _ = run_nnfvi(spec, config)
        fallbacks = sum(work.fallbacks for work in fitted.work.values())
        assert fallbacks == recount(results)[3] > 0

    def test_states_that_never_repeat_get_a_selection_each(self, monkeypatch):
        spec, _ = small_spec(seed=14)
        selections = record_selections(monkeypatch)
        fitted, _ = run_nnfvi(spec, quick_config(s1=12, s2=3, neurons=3, epochs=40))
        assert len(selections) == 12 + 1
        assert fitted.work[2] == PeriodWork(
            sampled=12, distinct=12, rewards=12, selections=12, recourses=12,
            iterations=12 * 9, milp_nodes=0, lp_pivots=0, fallbacks=0,
            restarts_discarded=0)
        assert fitted.work[3] == PeriodWork(
            sampled=12, distinct=12, rewards=12, selections=0, recourses=0,
            iterations=0, milp_nodes=0, lp_pivots=0, fallbacks=0,
            restarts_discarded=0)


    def test_discarded_restarts_are_counted_per_period(self, monkeypatch):
        # every other descent fails: with three restarts per fit, calls 1 and
        # 3 of period 3's fit and call 5 of period 2's
        descend, calls = neural._descend, []

        def every_other_diverges(*args):
            calls.append(args)
            if len(calls) % 2:
                raise FloatingPointError("non-finite residuals during training")
            return descend(*args)

        monkeypatch.setattr(neural, "_descend", every_other_diverges)
        spec, _ = small_spec(seed=14)
        with pytest.warns(RuntimeWarning, match="discarded"):
            fitted, _ = run_nnfvi(spec, quick_config(s1=12, s2=3, neurons=3,
                                                     restarts=3, epochs=40))
        assert len(calls) == 6
        assert {t: w.restarts_discarded for t, w in fitted.work.items()} == \
            {3: 2, 2: 1, 1: 0}

    @pytest.mark.parametrize("engine", ["brute", "mcd"])
    @pytest.mark.parametrize("spec_of", [
        lambda: concave_reward_spec(),
        lambda: criterion_4_spec(),
    ], ids=["concave-pieces", "criterion-4"])
    def test_horizon_targets_are_brute_bellman_targets(self, monkeypatch, engine,
                                                       spec_of):
        spec = spec_of()
        datasets, fit_ = [], fvi.fit

        def recording_fit(data, *args, **kwargs):
            datasets.append(data)
            return fit_(data, *args, **kwargs)

        monkeypatch.setattr(fvi, "fit", recording_fit)
        config = dataclasses.replace(quick_config(s1=40, s2=2, neurons=3, epochs=20),
                                     mcd=McdConfig(engine=engine))
        run_nnfvi(spec, config)
        horizon = datasets[0]
        noises = spec.draw_noises(np.random.default_rng(0), 2)
        want = [bellman_target(spec, {}, spec.horizon, x, noises, McdConfig(engine="brute"))
                for x in horizon.inputs]
        assert horizon.targets.tolist() == want

    def test_period_times_are_recorded_and_left_out_of_json_and_equality(self):
        spec, _ = small_spec(seed=14)
        config = quick_config(s1=12, s2=3, neurons=3, epochs=40)
        fitted, _ = run_nnfvi(spec, config)
        assert sorted(fitted.timings) == [1, 2, 3]
        for t, spent in fitted.timings.items():
            assert isinstance(spent, PeriodTime)
            assert spent.targets > 0.0 and spent.fit >= 0.0
            assert (spent.fit == 0.0) == (t == 1)  # period 1 fits no network
        assert "timings" not in fitted.to_json_dict()
        compared = {f.name: f.compare for f in dataclasses.fields(FittedValueSet)}
        assert compared["timings"] is False
        again, _ = run_nnfvi(spec, config)
        assert again.dumps() == fitted.dumps()


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


def without_sharing(patch):
    """Give every decision problem of ``run_nnfvi`` and ``greedy_policy`` a
    fresh context without a memo, as a ``_decide`` call outside a group."""
    decide = fvi._decide

    def ungrouped(spec, nets, t, x, noises, reward, config, groups=None):
        return decide(spec, nets, t, x, noises, reward, config)

    patch.setattr(fvi, "_decide", ungrouped)


def lattice_states(instance):
    """Every MCIP state: each capacity level times each demand row."""
    levels = enumerate_actions(ActionBox(instance.capacity_max))
    return [np.concatenate([k, d]) for k in levels for d in instance.demand.support]


class TestSharedRecourse:
    """Decision problems of one period with one multiset of transition rows
    share one recourse: its forms, the engines' memo and, for mcd, a warm
    first-master root.  The selections stay those of a fresh context each."""

    @staticmethod
    def run(spec, config, shared):
        with pytest.MonkeyPatch.context() as patch:
            if not shared:
                without_sharing(patch)
            results = record_results(patch)
            fitted, v_hat = run_nnfvi(spec, config)
        return fitted, v_hat, results

    @pytest.mark.parametrize("engine", ["mcd", "brute"])
    @pytest.mark.parametrize("case", [
        *((f"small-{seed}", seed) for seed in range(3)),
        *((f"criterion-4-{seed}", seed) for seed in range(3)),
    ], ids=lambda case: case[0])
    def test_matches_a_run_without_sharing(self, engine, case):
        name, seed = case
        if name.startswith("small"):
            spec, _ = small_spec(seed=seed)
            config = quick_config(seed=seed, engine=engine, s1=12, s2=3, neurons=3,
                                  epochs=40)
        else:
            spec = criterion_4_spec()
            config = dataclasses.replace(criterion_4_config(), seed=seed,
                                         mcd=McdConfig(engine=engine))
        fitted, v_hat, results = self.run(spec, config, shared=True)
        ref, ref_v, ref_results = self.run(spec, config, shared=False)
        assert v_hat.hex() == ref_v.hex()
        assert fitted.dumps() == ref.dumps()  # nets, losses and v_hat
        assert len(results) == len(ref_results)
        for res, want in zip(results, ref_results):
            assert (res.objective.hex(), res.iterations) == (
                want.objective.hex(), want.iterations)
            np.testing.assert_array_equal(res.action, want.action)
            assert res.trace["lower"].tobytes() == want.trace["lower"].tobytes()
            # a warm root may end at another optimal basis, a few ulps away
            assert abs(res.upper_bound - want.upper_bound) <= (
                1e-12 * abs(want.upper_bound))
        if name.startswith("criterion-4"):
            # 48 states but three multisets of next demand rows
            assert (fitted.work[2].selections, fitted.work[2].recourses) == (48, 3)
            assert ref.work[2].recourses == 0

    @pytest.mark.parametrize("engine", ["mcd", "brute"])
    def test_each_group_computes_its_recourse_work_once(self, monkeypatch, engine):
        calls, memos, first_masters = collections.Counter(), [], []
        for name in ("recourse_upper_bound", "combined_cut", "recourse_values"):
            def counting(ctx, *args, name=name, original=getattr(mcd, name)):
                memos.append(ctx.memo)  # kept alive, so no two share an id
                key = tuple(np.asarray(a).tobytes() for a in args)
                calls[name, id(ctx.memo), key] += 1
                return original(ctx, *args)
            monkeypatch.setattr(mcd, name, counting)
        solve = mcd.solve_milp

        def recording_solve(*args, start=None, resume=None, **kwargs):
            if resume is None:
                first_masters.append(start is not None)
            return solve(*args, start=start, resume=resume, **kwargs)

        monkeypatch.setattr(mcd, "solve_milp", recording_solve)
        config = dataclasses.replace(criterion_4_config(restarts=1, max_epochs=20),
                                     mcd=McdConfig(engine=engine))
        fitted, _ = run_nnfvi(criterion_4_spec(), config)
        # every call went through one of the four groups' memos, once per key
        assert calls and max(calls.values()) == 1
        assert all(memo is not None for memo in memos)
        groups = sum(work.recourses for work in fitted.work.values())
        assert len({key[1] for key in calls}) == groups == 4
        if engine == "brute":  # one call per group: its enumeration
            assert len(calls) == groups and not first_masters
        else:
            # a group's first first master is cold, its siblings' are warm
            cold = first_masters.count(False)
            assert 1 <= cold <= groups and first_masters.count(True) > 0

    @pytest.mark.parametrize("engine", ["mcd", "brute"])
    def test_greedy_policy_shares_per_period_and_transition_rows(self, monkeypatch,
                                                                 engine):
        instance = mcip.synthetic_instance(seed=9, customers=2, facilities=2, horizon=3,
                                           capacity_max=3, demand_points=3)
        spec = mcip.build_mcip_mdp(instance)
        fitted, _ = run_nnfvi(spec, criterion_4_config(restarts=1, max_epochs=20))
        config = McdConfig(engine=engine)
        built, context = [], fvi.RecourseContext

        def counting_context(*args, **kwargs):
            built.append(kwargs.get("memo") is not None)
            return context(*args, **kwargs)

        monkeypatch.setattr(fvi, "RecourseContext", counting_context)
        cases = [(t, x) for t in (1, 2) for x in lattice_states(instance)]
        policy = greedy_policy(spec, fitted.nets, config, transition_samples=12, seed=2)
        actions = np.array([policy(t, x) for t, x in cases])
        # one context per period and multiset of next demand rows, with a memo
        assert built == [True] * 6
        # a second pass over the states builds none and decides the same
        np.testing.assert_array_equal([policy(t, x) for t, x in cases], actions)
        assert len(built) == 6
        with pytest.MonkeyPatch.context() as patch:
            without_sharing(patch)
            fresh = greedy_policy(spec, fitted.nets, config, transition_samples=12,
                                  seed=2)
            np.testing.assert_array_equal([fresh(t, x) for t, x in cases], actions)
        assert len(built) == 6 + len(cases)


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
