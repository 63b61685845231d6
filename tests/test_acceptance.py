"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance.  The decomposition-engine campaign is run
once in a session fixture and shared by the optimality, benchmark, and
bound-monotonicity criteria.
"""

import itertools

import numpy as np
import pytest

from nnfvi.cli import make_bench_instance
from nnfvi.cuts import (
    binary_encoding,
    combined_cut,
    gradient_cut,
    integer_optimality_cut,
    positive_cut,
    recourse_upper_bound,
)
from nnfvi.fvi import FviConfig, exact_dp, greedy_policy, run_nnfvi
from nnfvi.mcd import McdConfig, select_action, select_action_bruteforce
from nnfvi.mcip import (
    CapacityState,
    build_mcip_mdp,
    constant_capacity_policy,
    dp_model,
    draw_demand_paths,
    inflexible_two_stage,
    mcip_reward,
    operating_profit,
    sensitivity_sweep,
    simulate_policy_on_paths,
    synthetic_instance,
)
from nnfvi.mdp import ActionBox, enumerate_actions
from nnfvi.neural import RegressionSet, ReluNet, TrainConfig, fit, gradient, loss
from nnfvi.simplex import LEQ, LpProblem, solve_lp
from nnfvi.bnb import MilpProblem, solve_milp

from conftest import random_context
from test_simplex import enumerate_vertex_optimum
from test_bnb import binary_milp, enumerate_binary_optimum


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({label}): {status}"
          f"{' - ' + detail if detail else ''}")
    return ok


def per_neuron_values(ctx, actions):
    """Per-neuron recourse contributions at every action, shape (J, nA)."""
    pre = np.einsum("sjk,ak->sja", ctx.gamma1, actions.astype(float)) \
        + ctx.gamma2[:, :, None]
    return np.maximum(pre, 0.0).mean(axis=0) * ctx.net.output_weights[:, None]


def test_criterion_1_cut_validity():
    # 200 random contexts; every cut family dominates its target recourse
    # part at every feasible action with slack >= -1e-9
    rng = np.random.default_rng(20240101)
    worst = np.inf
    for trial in range(200):
        j = int(rng.integers(1, 17))
        n2 = int(rng.integers(1, 5))
        s2 = int(rng.integers(1, 9))
        a_bar = rng.integers(0, 6, size=n2)
        if a_bar.max() == 0:
            a_bar[int(rng.integers(n2))] = 1
        ctx = random_context(int(rng.integers(2**31)), j=j, n1=3, n2=n2,
                             s2=s2, a_bar=a_bar)
        actions = enumerate_actions(ctx.spec.action_box)
        contrib = per_neuron_values(ctx, actions)
        neg_part = contrib[ctx.rest_neurons].sum(axis=0) \
            if ctx.rest_neurons else np.zeros(len(actions))
        pos_part = contrib[ctx.positive_neurons].sum(axis=0) \
            if ctx.positive_neurons else np.zeros(len(actions))
        full = neg_part + pos_part

        anchor = actions[int(rng.integers(len(actions)))]
        grad = gradient_cut(ctx, anchor)
        pos = positive_cut(ctx)
        combo = combined_cut(ctx, anchor)
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        int_cut = integer_optimality_cut(ctx, enc, anchor, eta_bar)

        worst = min(worst, float(np.min(grad.values(actions) - neg_part)))
        worst = min(worst, float(np.min(pos.values(actions) - pos_part)))
        worst = min(worst, float(np.min(combo.values(actions) - full)))

        bits = np.stack([enc.encode(a) for a in actions]) \
            if enc.total_bits else np.zeros((len(actions), 0))
        zeta = (bits != enc.encode(anchor)).sum(axis=1) \
            if enc.total_bits else np.zeros(len(actions))
        int_rhs = int_cut.anchor_value + zeta * (eta_bar - int_cut.anchor_value)
        worst = min(worst, float(np.min(int_rhs - full)))

    ok = worst >= -1e-9
    assert report(1, "cut validity", ok, f"worst slack {worst:.2e}")


@pytest.fixture(scope="session")
def mcd_campaign():
    """Shared engine runs for criteria 2, 3, and 8."""
    # exact-mode runs: zero tolerance, iteration budget above the action count
    exact_runs = []
    for k in range(50):
        ctx, reward = make_bench_instance(900 + k, facilities=2, neurons=8,
                                          transition_samples=4,
                                          capacity_levels=3)
        n_actions = ctx.spec.action_box.count()
        cfg = McdConfig(engine="mcd", max_iterations=n_actions + 1,
                        gap_tolerance=0.0)
        res = select_action(ctx, reward, cfg)
        ref = select_action_bruteforce(ctx, reward)
        exact_runs.append((res, ref))

    # matched-cap comparison on 3-5 dimensional boxes
    capped_runs = []
    capped_boxes = []  # (instance seed, dimensions) per capped run
    case = 0
    for n2, count in ((3, 17), (4, 17), (5, 16)):
        for _ in range(count):
            case += 1
            capped_boxes.append((3000 + case, n2))
            ctx, reward = make_bench_instance(3000 + case, facilities=n2,
                                              neurons=10,
                                              transition_samples=4,
                                              capacity_levels=3)
            r_mcd = select_action(ctx, reward, McdConfig(
                engine="mcd", max_iterations=40, gap_tolerance=0.0))
            r_lsh = select_action(ctx, reward, McdConfig(
                engine="lshaped", max_iterations=40, gap_tolerance=0.0))
            ref = select_action_bruteforce(ctx, reward)
            capped_runs.append((r_mcd, r_lsh, ref))
    return {"exact": exact_runs, "capped": capped_runs,
            "capped_boxes": capped_boxes}


def test_criterion_2_mcd_global_optimality(mcd_campaign):
    failures = [
        abs(res.objective - ref.objective)
        for res, ref in mcd_campaign["exact"]
        if abs(res.objective - ref.objective) > 1e-6
    ]
    ok = not failures
    assert report(2, "finite convergence to brute force", ok,
                  f"{50 - len(failures)}/50 exact")


def test_criterion_3_mcd_vs_lshaped(mcd_campaign):
    wins = 0
    gaps = []
    for r_mcd, r_lsh, ref in mcd_campaign["capped"]:
        if r_mcd.objective >= r_lsh.objective - 1e-9:
            wins += 1
        gaps.append(100.0 * (ref.objective - r_mcd.objective)
                    / max(abs(ref.objective), 1e-9))
    mean_gap = float(np.mean(gaps))
    ok = wins >= 40 and mean_gap <= 0.5
    gapped = [f"seed {seed} ({dims}-D) {gap:.3f}%"
              for (seed, dims), gap in zip(mcd_campaign["capped_boxes"], gaps)
              if gap > 1e-9]
    assert report(3, "multi-cut vs integer L-shaped", ok,
                  f"wins {wins}/50, mean gap {mean_gap:.3f}%; non-zero gaps: "
                  + (", ".join(gapped) or "none"))


def test_criterion_4_fvi_vs_dp():
    instance = synthetic_instance(seed=42, customers=2, facilities=2,
                                  horizon=3, capacity_max=3, demand_points=3)
    tables = exact_dp(dp_model(instance))
    e0 = int(np.flatnonzero(
        (tables.model.endo_levels == instance.initial_capacity.astype(int))
        .all(axis=1))[0])
    x0 = instance.demand.index_of(instance.initial_demand)
    v_dp = tables.value(1, e0, x0)

    config = FviConfig(state_samples=200, transition_samples=20, neurons=20,
                       train=TrainConfig(restarts=5, max_epochs=200),
                       mcd=McdConfig(engine="brute"), seed=0)
    _, v_hat = run_nnfvi(build_mcip_mdp(instance), config)
    gap = abs(v_hat - v_dp) / abs(v_dp)
    ok = gap <= 0.05
    assert report(4, "fitted value vs exact DP", ok,
                  f"gap {100 * gap:.3f}% (fvi {v_hat:.3f}, dp {v_dp:.3f})")


def test_criterion_5_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 100:
        J, n1, S = 4, 3, 5
        net = ReluNet(rng.normal(size=(J, n1)), rng.normal(size=J),
                      rng.normal(size=J), float(rng.normal()))
        X = rng.normal(size=(S, n1))
        pre = X @ net.input_weights.T + net.input_biases
        if np.min(np.abs(pre)) < 1e-3:
            continue
        data = RegressionSet(X, rng.normal(size=S))
        beta = float(rng.uniform(0, 0.2))
        flat = np.concatenate([net.input_weights.ravel(), net.input_biases,
                               net.output_weights, [net.output_bias]])
        fd = np.empty_like(flat)
        for k in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (_loss_flat(up, data, beta, J, n1)
                     - _loss_flat(dn, data, beta, J, n1)) / (2 * h)
        g = gradient(net, data, beta)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
        checked += 1
    ok = worst <= 1e-5
    assert report(5, "backprop vs central differences", ok,
                  f"worst relative error {worst:.2e}")


def _loss_flat(flat, data, beta, J, n1):
    net = ReluNet(flat[: J * n1].reshape(J, n1),
                  flat[J * n1: J * n1 + J],
                  flat[J * n1 + J: J * n1 + 2 * J],
                  float(flat[-1]))
    return loss(net, data, beta)


def test_criterion_6_solver_oracles():
    rng = np.random.default_rng(66)
    lp_worst = 0.0
    for trial in range(100):
        if trial < 85:
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 6))
        else:
            n = int(rng.integers(7, 9))
            m = int(rng.integers(1, 4))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)
        upper = rng.uniform(0.5, 4.0, size=n)
        maximize = bool(rng.integers(0, 2))
        expected = enumerate_vertex_optimum(c, A, b, upper, maximize)
        sol = solve_lp(LpProblem(c=c, A=A, b=b, senses=[LEQ] * m,
                                 lower=np.zeros(n), upper=upper,
                                 maximize=maximize))
        lp_worst = max(lp_worst, abs(sol.objective - expected))

    milp_worst = 0.0
    for trial in range(100):
        k = int(rng.integers(8, 13))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=k)
        A = rng.normal(size=(m, k))
        b = rng.uniform(-0.5, k * 0.5, size=m)
        expected = enumerate_binary_optimum(c, A, b, True)
        sol = solve_milp(binary_milp(c, A, b, True))
        if expected is None:
            assert sol.status == "infeasible"
        else:
            milp_worst = max(milp_worst, abs(sol.objective - expected))

    ok = lp_worst <= 1e-8 and milp_worst <= 1e-8
    assert report(6, "solver enumeration oracles", ok,
                  f"lp dev {lp_worst:.2e}, milp dev {milp_worst:.2e}")


def test_criterion_7_mcip_structure():
    rng = np.random.default_rng(77)
    recourse_calls = 0
    ok = True
    notes = []
    for seed in range(20):
        inst = synthetic_instance(seed=seed)
        cap = inst.capacity_max.astype(float)
        # complete recourse: the allocation LP never reports infeasible
        for _ in range(500):
            K = rng.uniform(0, cap)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            t = int(rng.integers(1, inst.horizon + 1))
            operating_profit(inst, t, K, d)
            recourse_calls += 1
        # concavity and monotonicity of the allocation profit in capacity
        for _ in range(10):
            K1 = rng.uniform(0, cap)
            K2 = rng.uniform(0, cap)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            v1, _ = operating_profit(inst, 2, K1, d)
            v2, _ = operating_profit(inst, 2, K2, d)
            mid, _ = operating_profit(inst, 2, 0.5 * (K1 + K2), d)
            if mid < 0.5 * v1 + 0.5 * v2 - 1e-8:
                ok = False
                notes.append(f"concavity failed on instance {seed}")
            hi, _ = operating_profit(inst, 2, np.maximum(K1, K2), d)
            if hi < max(v1, v2) - 1e-8:
                ok = False
                notes.append(f"monotonicity failed on instance {seed}")
        # terminal value midpoint concavity in capacity
        T = inst.horizon
        for _ in range(10):
            K1 = rng.uniform(0, cap)
            K2 = rng.uniform(0, cap)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]

            def vt(K):
                return mcip_reward(inst, T, CapacityState(K, d),
                                   np.zeros(inst.facilities))

            if vt(0.5 * (K1 + K2)) < 0.5 * vt(K1) + 0.5 * vt(K2) - 1e-8:
                ok = False
                notes.append(f"terminal concavity failed on instance {seed}")
        # uniform reward bound
        bound = inst.reward_bound()
        for _ in range(50):
            K = rng.uniform(0, cap)
            d = inst.demand.support[rng.integers(0, inst.demand.size)]
            a = rng.integers(0, inst.capacity_max + 1).astype(float)
            t = int(rng.integers(1, inst.horizon + 1))
            if abs(mcip_reward(inst, t, CapacityState(K, d), a)) > bound + 1e-9:
                ok = False
                notes.append(f"reward bound failed on instance {seed}")

    # lattice equivalence: DP tables equal an independent recursion exactly
    for seed in (0, 7, 13):
        inst = synthetic_instance(seed=seed, capacity_max=2, demand_points=2,
                                  horizon=2)
        dp = exact_dp(dp_model(inst))
        ref = _extended_recursion(inst)
        for t in range(1, inst.horizon + 1):
            if not np.allclose(dp.values[t - 1], ref[t], rtol=0, atol=1e-9):
                ok = False
                notes.append(f"lattice equivalence failed on instance {seed}")

    assert report(7, "benchmark structure suite", ok,
                  f"{recourse_calls} recourse calls"
                  + ("; " + "; ".join(notes) if notes else ""))


def _extended_recursion(inst):
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
                        val += inst.discount * sum(
                            kernel[x, x2] * tables[t + 1][a, x2]
                            for x2 in range(len(support)))
                    best = max(best, val)
                V[e, x] = best
        tables[t] = V
    return tables


def test_criterion_8_bound_monotonicity(mcd_campaign):
    ok = True
    checked = 0
    for group, runs in (("exact", mcd_campaign["exact"]),
                        ("capped", mcd_campaign["capped"])):
        for row in runs:
            res = row[0]
            ref = row[-1]
            lowers = [r[1] for r in res.trace]
            uppers = [r[2] for r in res.trace]
            if any(b < a - 1e-9 for a, b in zip(lowers, lowers[1:])):
                ok = False
            if any(b > a + 1e-9 for a, b in zip(uppers, uppers[1:])):
                ok = False
            for lo, hi in zip(lowers, uppers):
                if not (lo - 1e-7 <= ref.objective <= hi + 1e-7):
                    ok = False
            checked += 1
            if group == "capped":
                # L-shaped traces obey the same bound discipline
                lsh = row[1]
                l_low = [r[1] for r in lsh.trace]
                l_up = [r[2] for r in lsh.trace]
                if any(b < a - 1e-9 for a, b in zip(l_low, l_low[1:])):
                    ok = False
                if any(b > a + 1e-9 for a, b in zip(l_up, l_up[1:])):
                    ok = False
    assert report(8, "bound monotonicity and sandwich", ok,
                  f"{checked} traces checked")


def test_criterion_9_value_of_flexibility():
    instance = synthetic_instance(seed=9, customers=2, facilities=2,
                                  horizon=3, capacity_max=3, demand_points=3)
    config = FviConfig(state_samples=96, transition_samples=12, neurons=12,
                       train=TrainConfig(restarts=2, max_epochs=120),
                       mcd=McdConfig(engine="brute"), seed=4)
    gammas = [0.6, 0.95]
    ratios = [0.0, 0.99]
    cells = sensitivity_sweep(instance, gammas, ratios, config,
                              n_paths=1000, n_scenarios=25, seed=17)
    ok = True
    details = []
    for cell in cells:
        se = float(np.hypot(cell.flexible_se, cell.inflexible_se))
        if cell.flexible_enpv < cell.inflexible_enpv - 2.0 * se:
            ok = False
        details.append(f"g={cell.gamma} r={cell.ratio} "
                       f"imp={cell.improvement_pct:.1f}%")
    by_key = {(c.gamma, c.ratio): c for c in cells}
    low_flex = by_key[(0.95, 0.99)].improvement_pct
    high_flex = by_key[(0.6, 0.0)].improvement_pct
    if not low_flex < high_flex:
        ok = False
    assert report(9, "value of flexibility direction", ok, "; ".join(details))


def test_criterion_10_width_trend():
    rng = np.random.default_rng(1010)
    X = rng.uniform(-1, 1, size=(500, 2))
    y = np.abs(X[:, 0]) + np.sin(2.0 * X[:, 1])
    X_test = rng.uniform(-1, 1, size=(300, 2))
    y_test = np.abs(X_test[:, 0]) + np.sin(2.0 * X_test[:, 1])
    data = RegressionSet(X, y)
    best = []
    for J in (2, 8, 32):
        trials = []
        for rep in range(3):
            net = fit(data, J=J, config=TrainConfig(restarts=1, max_epochs=120),
                      rng=np.random.default_rng(2000 + 10 * J + rep))
            trials.append(float(np.mean((net.forward_many(X_test) - y_test) ** 2)))
        best.append(min(trials))
    ok = best[1] <= best[0] + 1e-12 and best[2] <= best[1] + 1e-12
    assert report(10, "approximation width trend", ok,
                  f"best test MSE {['%.4g' % b for b in best]}")
