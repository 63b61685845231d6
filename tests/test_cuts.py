import numpy as np
import pytest

from nnfvi.cuts import (
    BinaryEncoding,
    LinearCut,
    RecourseContext,
    binary_encoding,
    combined_cut,
    gradient_cut,
    integer_optimality_cut,
    positive_cut,
    recourse_upper_bound,
    recourse_value,
    recourse_values,
)
from nnfvi import cuts
from nnfvi.mcip import build_mcip_mdp, synthetic_instance
from nnfvi.mdp import ActionBox, InfeasibleActionError, enumerate_actions
from nnfvi.neural import ReluNet

from conftest import (
    affine_noise,
    integer_cut_rhs,
    negative_part_value,
    positive_part_value,
    random_affine_spec,
    random_context,
    zeta_value,
)


def forward_oracle_recourse(ctx, a):
    """Recourse via the network's forward pass on the transitioned states,
    without the cached preactivation forms."""
    nxt = ctx.offsets + ctx.linears @ np.asarray(a, dtype=float)
    return float(np.mean(ctx.net.forward_many(nxt) - ctx.net.output_bias))


def assert_cache_matches_per_neuron(ctx):
    """``gamma1``/``gamma2`` against each neuron's weights applied to each
    scenario's transition, one neuron and scenario at a time."""
    u, u0 = ctx.net.input_weights, ctx.net.input_biases
    for s in range(ctx.s2):
        for j in range(ctx.net.neuron_count):
            np.testing.assert_allclose(ctx.gamma1[s, j], u[j] @ ctx.linears[s],
                                       rtol=1e-10, atol=1e-10)
            assert ctx.gamma2[s, j] == pytest.approx(
                float(u[j] @ ctx.offsets[s] + u0[j]), rel=1e-10, abs=1e-10)


def loop_positive_cut(ctx):
    """The per-(neuron, scenario) loop that built the positive-neuron cut
    before the array form, kept as its oracle."""
    n2 = ctx.spec.action_box.dims
    a_bar = ctx.spec.action_box.upper_bounds.astype(float)
    coef = np.zeros(n2)
    const = 0.0
    for j in ctx.positive_neurons:
        wj = ctx.net.output_weights[j]
        for s in range(ctx.s2):
            g1 = ctx.gamma1[s, j]
            g2 = ctx.gamma2[s, j]
            neg_mask = g1 < 0.0
            min_pre = g1[neg_mask] @ a_bar[neg_mask] + g2
            max_pre = g1[~neg_mask] @ a_bar[~neg_mask] + g2
            if min_pre > 0.0:
                coef += wj * g1
                const += wj * g2
            elif max_pre < 0.0:
                continue
            else:
                denom = float(np.abs(g1) @ a_bar)
                if denom <= 0.0:
                    # preactivation is action-independent: exact constant line
                    const += wj * max(g2, 0.0)
                    continue
                ratio = max_pre / denom
                coef += wj * ratio * g1
                const += -wj * ratio * float(g1[neg_mask] @ a_bar[neg_mask])
    return LinearCut(coef / ctx.s2, const / ctx.s2)


def loop_recourse_upper_bound(ctx):
    """The per-neuron loop that charged each positive neuron its box-maximal
    activation before the array form, kept as its oracle."""
    a_bar = ctx.spec.action_box.upper_bounds.astype(float)
    total = 0.0
    for j in ctx.positive_neurons:
        wj = ctx.net.output_weights[j]
        g1 = ctx.gamma1[:, j, :]  # (S2, N2)
        max_pre = np.where(g1 > 0.0, g1, 0.0) @ a_bar + ctx.gamma2[:, j]
        total += wj * float(np.sum(np.maximum(max_pre, 0.0)))
    return total / ctx.s2


def integer_context(seed, j=6, n1=2, n2=3, s2=4):
    """Context with small-integer weights, biases and transitions, so that
    preactivations with a box minimum or maximum of exactly 0 occur, and a
    box with zero bounds.  Neuron 0 has zero input weights and bias and a
    positive output weight: gamma1 = gamma2 = 0, a constant mixed term."""
    rng = np.random.default_rng(seed)
    spec = random_affine_spec(rng, n1, n2, rng.integers(0, 4, size=n2))
    u = rng.integers(-1, 2, size=(j, n1)).astype(float)
    u0 = rng.integers(-2, 3, size=j).astype(float)
    w = rng.normal(size=j)
    u[0], u0[0], w[0] = 0.0, 0.0, abs(w[0]) + 0.1
    noises = rng.integers(-2, 3, size=(s2, n1 + n1 * n2)).astype(float)
    return RecourseContext(ReluNet(u, u0, w, 0.0), spec, np.zeros(n1), noises)


def positive_term_cases(ctx):
    """Which cases the positive-weight (scenario, neuron) terms of ``ctx`` hit,
    computed one term at a time."""
    a_bar = ctx.spec.action_box.upper_bounds.astype(float)
    cases = {"zero-bound dimension"} if np.any(a_bar == 0) else set()
    for j in ctx.positive_neurons:
        for s in range(ctx.s2):
            g1, g2 = ctx.gamma1[s, j], ctx.gamma2[s, j]
            lo = sum(min(g, 0.0) * b for g, b in zip(g1, a_bar)) + g2
            hi = sum(max(g, 0.0) * b for g, b in zip(g1, a_bar)) + g2
            if lo > 0:
                cases.add("always active")
            elif hi < 0:
                cases.add("never active")
            elif np.abs(g1) @ a_bar == 0:
                cases.add("constant mixed term")
            else:
                cases.add("mixed")
            if lo == 0 or hi == 0:
                cases.add("box extreme 0")
    return cases


class TestRecourseContext:
    def test_cache_matches_per_neuron_on_random_contexts(self):
        for seed in range(10):
            assert_cache_matches_per_neuron(
                random_context(seed + 1100, j=7, n1=4, n2=3, s2=5))

    def test_cache_matches_per_neuron_on_mcip_context(self):
        inst = synthetic_instance(seed=42, customers=2, facilities=2, horizon=3)
        spec = build_mcip_mdp(inst)
        rng = np.random.default_rng(0)
        net = ReluNet(rng.normal(size=(6, spec.state_dim)), rng.normal(size=6),
                      rng.normal(size=6), 0.0)
        x = spec.state_sampler(rng, 1)[0]
        ctx = RecourseContext(net, spec, x, spec.draw_noises(rng, 8))
        assert_cache_matches_per_neuron(ctx)

    def test_wrong_transition_shape_is_refused(self):
        # offsets of shape (n1,) for a batch of 4 would otherwise broadcast
        rng = np.random.default_rng(3)
        spec = random_affine_spec(rng, n1=3, n2=2, a_bar=[2, 2])
        draws = spec.transition

        def transition(x, xi):
            offsets, linears = draws(x, xi)
            return offsets[0], linears

        spec.transition = transition
        net = ReluNet(rng.normal(size=(4, 3)), rng.normal(size=4),
                      rng.normal(size=4), 0.0)
        with pytest.raises(ValueError, match=r"expected \(4, 3\) and \(4, 3, 2\)"):
            RecourseContext(net, spec, np.zeros(3), spec.draw_noises(rng, 4))


class TestRecourseValue:
    def test_dead_neurons_give_zero(self):
        ctx = random_context(0)
        dead = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                       np.zeros(ctx.net.neuron_count), ctx.net.output_bias)
        ctx_dead = RecourseContext(dead, ctx.spec, ctx.x, ctx.noises)
        for a in enumerate_actions(ctx.spec.action_box):
            assert recourse_value(ctx_dead, a) == 0.0

    def test_single_neuron_hand_expansion(self):
        rng = np.random.default_rng(1)
        spec = random_affine_spec(rng, n1=2, n2=2, a_bar=[3, 3])
        net = ReluNet(np.array([[1.0, -1.0]]), np.array([0.5]), np.array([2.0]), 0.0)
        xi = affine_noise([1.0, 0.25], [[1.0, 0.0], [0.0, 2.0]])
        ctx = RecourseContext(net, spec, np.zeros(2), xi)
        # gamma1 = u @ B = (1, -2); gamma2 = u @ A + u0 = 0.75 + 0.5 = 1.25
        a = np.array([2, 1])
        assert recourse_value(ctx, a) == pytest.approx(2.0 * max(2.0 - 2.0 + 1.25, 0.0))

    def test_matches_forward_oracle(self):
        for seed in range(10):
            ctx = random_context(seed, j=5, n1=3, n2=3, s2=3)
            rng = np.random.default_rng(100 + seed)
            for _ in range(10):
                a = rng.integers(0, ctx.spec.action_box.upper_bounds + 1)
                assert recourse_value(ctx, a) == pytest.approx(
                    forward_oracle_recourse(ctx, a), abs=1e-10)

    def test_vectorized_matches_scalar(self):
        ctx = random_context(3, n2=2, a_bar=[4, 4])
        actions = enumerate_actions(ctx.spec.action_box)
        vec = recourse_values(ctx, actions)
        for i, a in enumerate(actions):
            assert vec[i] == pytest.approx(forward_oracle_recourse(ctx, a), abs=1e-12)

    def test_values_across_chunk_boundaries(self, monkeypatch):
        # 30 actions in blocks of 7: four full blocks and a partial one
        monkeypatch.setattr(cuts, "_CHUNK", 7)
        ctx = random_context(17, n2=2, a_bar=[4, 5])
        actions = enumerate_actions(ctx.spec.action_box)
        assert len(actions) == 30
        np.testing.assert_allclose(
            recourse_values(ctx, actions),
            [forward_oracle_recourse(ctx, a) for a in actions], rtol=0, atol=1e-12)


class TestGradientCut:
    def test_no_nonpositive_neurons_zero_cut(self):
        ctx = random_context(4, weight_scale=1.0)
        all_pos = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                          np.abs(ctx.net.output_weights) + 0.1, 0.0)
        ctx2 = RecourseContext(all_pos, ctx.spec, ctx.x, ctx.noises)
        cut = gradient_cut(ctx2, np.zeros(ctx.spec.action_box.dims, dtype=int))
        np.testing.assert_array_equal(cut.coef, 0.0)
        assert cut.const == 0.0

    def test_all_inactive_anchor_zero_cut(self):
        # large negative biases keep every neuron off at the anchor
        ctx = random_context(5)
        net = ReluNet(ctx.net.input_weights,
                      ctx.net.input_biases - 1e6,
                      -np.abs(ctx.net.output_weights) - 0.1, 0.0)
        ctx2 = RecourseContext(net, ctx.spec, ctx.x, ctx.noises)
        anchor = np.zeros(ctx.spec.action_box.dims, dtype=int)
        cut = gradient_cut(ctx2, anchor)
        np.testing.assert_array_equal(cut.coef, 0.0)
        assert cut.const == 0.0
        assert negative_part_value(ctx2, anchor) == 0.0

    def test_validity_and_anchor_tightness(self):
        for seed in range(20):
            ctx = random_context(seed + 50, j=6, n2=2, s2=3, a_bar=[4, 4])
            actions = enumerate_actions(ctx.spec.action_box)
            rng = np.random.default_rng(seed)
            anchor = actions[rng.integers(len(actions))]
            cut = gradient_cut(ctx, anchor)
            assert cut.values([anchor])[0] == pytest.approx(
                negative_part_value(ctx, anchor), abs=1e-10)
            for a, value in zip(actions, cut.values(actions)):
                assert value >= negative_part_value(ctx, a) - 1e-9


class TestPositiveCut:
    def test_always_active_neuron_exact(self):
        rng = np.random.default_rng(7)
        spec = random_affine_spec(rng, n1=2, n2=2, a_bar=[3, 3])
        net = ReluNet(np.array([[1.0, 0.0]]), np.array([0.0]), np.array([1.5]), 0.0)
        # positive coefficients and a large positive constant: min over box > 0
        xi = affine_noise([10.0, 0.0], [[1.0, 1.0], [0.0, 0.0]])
        ctx = RecourseContext(net, spec, np.zeros(2), xi)
        cut = positive_cut(ctx)
        np.testing.assert_allclose(cut.coef, 1.5 * np.array([1.0, 1.0]))
        assert cut.const == pytest.approx(1.5 * 10.0)
        actions = enumerate_actions(spec.action_box)
        for a, value in zip(actions, cut.values(actions)):
            assert value == pytest.approx(positive_part_value(ctx, a), abs=1e-12)

    def test_never_active_neuron_vanishes(self):
        rng = np.random.default_rng(8)
        spec = random_affine_spec(rng, n1=2, n2=2, a_bar=[3, 3])
        net = ReluNet(np.array([[1.0, 0.0]]), np.array([0.0]), np.array([1.5]), 0.0)
        xi = affine_noise([-100.0, 0.0], [[1.0, 1.0], [0.0, 0.0]])
        ctx = RecourseContext(net, spec, np.zeros(2), xi)
        cut = positive_cut(ctx)
        np.testing.assert_array_equal(cut.coef, 0.0)
        assert cut.const == 0.0

    def test_validity_on_mixed_instances(self):
        for seed in range(20):
            ctx = random_context(seed + 80, j=6, n2=2, s2=3, a_bar=[4, 4])
            cut = positive_cut(ctx)
            actions = enumerate_actions(ctx.spec.action_box)
            for a, value in zip(actions, cut.values(actions)):
                assert value >= positive_part_value(ctx, a) - 1e-9

    def test_anchor_independence(self):
        ctx = random_context(9)
        c1 = positive_cut(ctx)
        c2 = positive_cut(ctx)
        np.testing.assert_array_equal(c1.coef, c2.coef)
        assert c1.const == c2.const

    def test_ratio_at_most_one_and_line_nonnegative(self):
        # in the mixed case the scaling ratio cannot exceed 1, and the
        # per-neuron line stays non-negative over the whole box
        for seed in range(30):
            ctx = random_context(seed + 200, j=1, n2=2, s2=1, a_bar=[4, 4],
                                 weight_scale=1.0)
            net = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                          np.abs(ctx.net.output_weights) + 0.05, 0.0)
            ctx = RecourseContext(net, ctx.spec, ctx.x, ctx.noises)
            a_bar = ctx.spec.action_box.upper_bounds.astype(float)
            g1 = ctx.gamma1[0, 0]
            g2 = ctx.gamma2[0, 0]
            min_pre = g1[g1 < 0] @ a_bar[g1 < 0] + g2
            max_pre = g1[g1 >= 0] @ a_bar[g1 >= 0] + g2
            if not (min_pre <= 0.0 <= max_pre):
                continue
            denom = np.abs(g1) @ a_bar
            if denom > 0:
                assert max_pre / denom <= 1.0 + 1e-12
            cut = positive_cut(ctx)
            assert np.all(cut.values(enumerate_actions(ctx.spec.action_box)) >= -1e-12)


class TestLoopOracle:
    """The array forms of positive_cut and recourse_upper_bound against the
    per-term loops they replaced."""

    def contexts(self):
        for seed in range(50):
            a_bar = [0, 3, 4] if seed % 5 == 0 else None
            yield random_context(seed + 1300, j=7, n1=3, n2=3, s2=4, a_bar=a_bar)
        for seed in range(30):
            yield integer_context(seed + 1400)

    def test_matches_loop_on_random_and_integer_contexts(self):
        seen = set()
        for ctx in self.contexts():
            seen |= positive_term_cases(ctx)
            cut, oracle = positive_cut(ctx), loop_positive_cut(ctx)
            np.testing.assert_allclose(cut.coef, oracle.coef, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(cut.const, oracle.const, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(recourse_upper_bound(ctx),
                                       loop_recourse_upper_bound(ctx),
                                       rtol=1e-12, atol=1e-12)
        assert seen == {"zero-bound dimension", "always active", "never active",
                        "constant mixed term", "mixed", "box extreme 0"}


class TestCombinedCut:
    def test_reduces_to_gradient_when_no_positive(self):
        ctx = random_context(10)
        net = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                      -np.abs(ctx.net.output_weights), 0.0)
        ctx2 = RecourseContext(net, ctx.spec, ctx.x, ctx.noises)
        anchor = np.zeros(ctx.spec.action_box.dims, dtype=int)
        combo = combined_cut(ctx2, anchor)
        grad = gradient_cut(ctx2, anchor)
        np.testing.assert_array_equal(combo.coef, grad.coef)
        assert combo.const == grad.const

    def test_reduces_to_positive_when_no_negative(self):
        ctx = random_context(11)
        net = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                      np.abs(ctx.net.output_weights) + 0.1, 0.0)
        ctx2 = RecourseContext(net, ctx.spec, ctx.x, ctx.noises)
        anchor = np.zeros(ctx.spec.action_box.dims, dtype=int)
        combo = combined_cut(ctx2, anchor)
        pos = positive_cut(ctx2)
        np.testing.assert_array_equal(combo.coef, pos.coef)
        assert combo.const == pos.const

    def test_validity_over_small_boxes(self):
        for seed in range(20):
            ctx = random_context(seed + 300, j=8, n2=2, s2=4, a_bar=[3, 3])
            actions = enumerate_actions(ctx.spec.action_box)
            anchor = actions[seed % len(actions)]
            cut = combined_cut(ctx, anchor)
            for a, value in zip(actions, cut.values(actions)):
                assert value >= recourse_value(ctx, a) - 1e-9


class TestBinaryEncoding:
    def test_nine_needs_bits_zero_through_three(self):
        enc = binary_encoding(ActionBox(np.array([9])))
        assert enc.bit_counts == (4,)
        assert enc.bit_positions() == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_one_needs_single_bit(self):
        enc = binary_encoding(ActionBox(np.array([1])))
        assert enc.bit_counts == (1,)

    def test_zero_bound_dimension_gets_no_bits(self):
        enc = binary_encoding(ActionBox(np.array([0, 3])))
        assert enc.bit_counts == (0, 2)

    def test_bit_count_is_bit_length(self):
        for ub in range(0, 41):
            enc = binary_encoding(ActionBox(np.array([ub])))
            assert enc.bit_counts == (ub.bit_length(),)

    def test_round_trip_exhaustive(self):
        box = ActionBox(np.array([5, 3]))
        enc = binary_encoding(box)
        for a in enumerate_actions(box):
            np.testing.assert_array_equal(enc.decode(enc.encode(a)), a)

    def test_encode_matches_bitwise_loop(self):
        box = ActionBox(np.array([6, 0, 2]))
        enc = binary_encoding(box)
        for a in enumerate_actions(box):
            expected = [(int(a[n]) >> l) & 1 for n, l in enc.bit_positions()]
            np.testing.assert_array_equal(enc.encode(a), expected)

    def test_expand_reproduces_linear_forms(self):
        box = ActionBox(np.array([5, 0, 3]))
        enc = binary_encoding(box)
        coef = np.array([[1.5, -2.0, 0.25], [0.0, 7.0, -1.0]])
        per_bit = enc.expand(coef)
        assert per_bit.shape == (2, enc.total_bits)
        for a in enumerate_actions(box):
            np.testing.assert_allclose(per_bit @ enc.encode(a), coef @ a, atol=0)

    def test_bound_rows_skip_zero_bit_dimensions(self):
        box = ActionBox(np.array([0, 4, 1]))
        enc = binary_encoding(box)
        A, b = enc.bound_rows()
        # bits (1,0..2) for bound 4 and (2,0) for bound 1; none for bound 0
        np.testing.assert_array_equal(A, [[1, 2, 4, 0], [0, 0, 0, 1]])
        np.testing.assert_array_equal(b, [4.0, 1.0])
        # with ub 4 the bits reach 7, so the row must cut every bit pattern
        # that decodes above the box and no pattern that stays inside it
        for k in range(2 ** enc.total_bits):
            bits = np.array([(k >> i) & 1 for i in range(enc.total_bits)])
            inside = np.all(enc.decode(bits) <= box.upper_bounds)
            assert bool(np.all(A @ bits <= b)) == inside


class TestZeta:
    def test_anchor_gives_zero(self):
        box = ActionBox(np.array([3, 3]))
        enc = binary_encoding(box)
        a = np.array([2, 1])
        assert zeta_value(enc, a, a) == 0

    def test_hamming_one_gives_one(self):
        box = ActionBox(np.array([3, 3]))
        enc = binary_encoding(box)
        anchor = np.array([2, 1])
        neighbour = np.array([3, 1])  # flips exactly bit (0, 0)
        assert zeta_value(enc, anchor, neighbour) == 1

    def test_positive_off_anchor_everywhere(self):
        box = ActionBox(np.array([3, 3]))
        enc = binary_encoding(box)
        anchor = np.array([1, 2])
        for a in enumerate_actions(box):
            z = zeta_value(enc, anchor, a)
            if np.array_equal(a, anchor):
                assert z == 0
            else:
                assert z >= 1


class TestRecourseUpperBound:
    def test_all_nonpositive_weights(self):
        ctx = random_context(12)
        net = ReluNet(ctx.net.input_weights, ctx.net.input_biases,
                      -np.abs(ctx.net.output_weights), 0.0)
        ctx2 = RecourseContext(net, ctx.spec, ctx.x, ctx.noises)
        assert recourse_upper_bound(ctx2) == 0.0
        for a in enumerate_actions(ctx.spec.action_box):
            assert recourse_value(ctx2, a) <= 1e-12

    def test_inactive_positive_neuron(self):
        rng = np.random.default_rng(13)
        spec = random_affine_spec(rng, n1=2, n2=2, a_bar=[3, 3])
        net = ReluNet(np.array([[1.0, 0.0]]), np.array([0.0]), np.array([2.0]), 0.0)
        xi = affine_noise([-50.0, 0.0], [[1.0, 1.0], [0.0, 0.0]])
        ctx = RecourseContext(net, spec, np.zeros(2), xi)
        assert recourse_upper_bound(ctx) == 0.0

    def test_dominates_enumerated_maximum(self):
        for seed in range(20):
            ctx = random_context(seed + 400, j=6, n2=2, s2=3, a_bar=[4, 4])
            actions = enumerate_actions(ctx.spec.action_box)
            values = recourse_values(ctx, actions)
            assert recourse_upper_bound(ctx) >= values.max() - 1e-9


class TestIntegerOptimalityCut:
    def test_exact_at_anchor(self):
        ctx = random_context(14, n2=2, a_bar=[3, 3])
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        anchor = np.array([2, 1])
        cut = integer_optimality_cut(ctx, enc, anchor, eta_bar)
        assert integer_cut_rhs(cut, enc, anchor, anchor) == pytest.approx(
            forward_oracle_recourse(ctx, anchor), abs=1e-12)

    def test_hamming_one_relaxes_to_bound(self):
        ctx = random_context(15, n2=2, a_bar=[3, 3])
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        anchor = np.array([2, 1])
        cut = integer_optimality_cut(ctx, enc, anchor, eta_bar)
        assert integer_cut_rhs(cut, enc, anchor, np.array([3, 1])) == pytest.approx(
            eta_bar, abs=1e-12)

    def test_validity_by_enumeration(self):
        for seed in range(20):
            ctx = random_context(seed + 500, j=6, n2=2, s2=3, a_bar=[3, 3])
            enc = binary_encoding(ctx.spec.action_box)
            eta_bar = recourse_upper_bound(ctx)
            actions = enumerate_actions(ctx.spec.action_box)
            anchor = actions[seed % len(actions)]
            cut = integer_optimality_cut(ctx, enc, anchor, eta_bar)
            for a in actions:
                assert integer_cut_rhs(cut, enc, anchor, a) \
                    >= forward_oracle_recourse(ctx, a) - 1e-9

    def test_anchor_checked_once_and_refused_outside_the_box(self, monkeypatch):
        ctx = random_context(17, n2=2, a_bar=[3, 3])
        enc = binary_encoding(ctx.spec.action_box)
        eta_bar = recourse_upper_bound(ctx)
        anchor = np.array([2, 1])
        expected = integer_optimality_cut(ctx, enc, anchor, eta_bar)
        checks = []
        check = ActionBox.check

        def counting_check(box, a):
            checks.append(a)
            return check(box, a)

        monkeypatch.setattr(ActionBox, "check", counting_check)
        cut = integer_optimality_cut(ctx, enc, anchor, eta_bar)
        assert len(checks) == 1
        np.testing.assert_array_equal(cut.bits, expected.bits)
        assert cut.anchor_value == recourse_value(ctx, anchor)
        with pytest.raises(InfeasibleActionError, match="above upper bound 3"):
            integer_optimality_cut(ctx, enc, np.array([4, 1]), eta_bar)

    def test_rejects_bound_below_anchor_value(self):
        ctx = random_context(16, n2=2, a_bar=[3, 3])
        enc = binary_encoding(ctx.spec.action_box)
        anchor = np.array([1, 1])
        bad = recourse_value(ctx, anchor) - 1.0
        with pytest.raises(ValueError, match="below the anchor value"):
            integer_optimality_cut(ctx, enc, anchor, bad)
