import json

import numpy as np
import pytest

from nnfvi import neural
from nnfvi.neural import (
    RegressionSet,
    ReluNet,
    TrainConfig,
    fit,
    gradient,
    loss,
    split_neurons,
)


def random_net(rng, J=4, n1=3):
    return ReluNet(
        input_weights=rng.normal(size=(J, n1)),
        input_biases=rng.normal(size=J),
        output_weights=rng.normal(size=J),
        output_bias=float(rng.normal()),
    )


def naive_forward(net, x):
    # independent scalar-loop re-evaluation
    total = net.output_bias
    for j in range(net.neuron_count):
        pre = net.input_biases[j]
        for i in range(net.input_dim):
            pre += net.input_weights[j, i] * x[i]
        total += net.output_weights[j] * max(pre, 0.0)
    return total


class TestForward:
    def test_single_neuron_hand_value(self):
        net = ReluNet(np.array([[1.0, 0.0]]), np.array([-1.0]), np.array([2.0]), 3.0)
        assert net.forward_many(np.array([[2.0, 5.0]]))[0] == pytest.approx(5.0)

    def test_dead_output_layer(self):
        rng = np.random.default_rng(0)
        net = ReluNet(rng.normal(size=(3, 2)), rng.normal(size=3), np.zeros(3), 1.25)
        np.testing.assert_allclose(net.forward_many(rng.normal(size=(5, 2))), 1.25)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            net = random_net(rng)
            x = rng.normal(size=3)
            assert net.forward_many(x[None, :])[0] == pytest.approx(
                naive_forward(net, x), rel=1e-12)

    def test_dimension_mismatch(self):
        net = random_net(np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward_many(np.zeros((1, 5)))

    def test_piecewise_linear_along_segments(self):
        # restricted to a line, the net has at most J kinks; a kink between
        # grid points perturbs up to two adjacent second differences, so count
        # runs of consecutive nonzero entries
        rng = np.random.default_rng(2)
        for _ in range(10):
            J = int(rng.integers(1, 8))
            net = random_net(rng, J=J, n1=3)
            x1, x2 = rng.normal(size=3), rng.normal(size=3)
            ts = np.linspace(0.0, 1.0, 1000)
            vals = net.forward_many(x1[None, :] + ts[:, None] * (x2 - x1)[None, :])
            nonzero = np.abs(np.diff(vals, n=2)) > 1e-8
            runs = int(np.sum(nonzero[1:] & ~nonzero[:-1]) + int(nonzero[0]))
            assert runs <= J


class TestLoss:
    def test_interpolating_net_zero_loss(self):
        net = ReluNet(np.array([[1.0]]), np.array([0.0]), np.array([1.0]), 0.0)
        X = np.array([[1.0], [2.0], [3.0]])
        data = RegressionSet(X, net.forward_many(X))
        assert loss(net, data, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_net_constant_targets(self):
        net = ReluNet(np.zeros((2, 1)), np.zeros(2), np.zeros(2), 0.0)
        data = RegressionSet(np.array([[0.5], [1.5]]), np.array([4.0, 4.0]))
        assert loss(net, data, 0.0) == pytest.approx(16.0)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_net(rng)
            X = rng.normal(size=(6, 3))
            y = rng.normal(size=6)
            data = RegressionSet(X, y)
            beta = float(rng.uniform(0, 0.5))
            acc = 0.0
            for s in range(6):
                acc += (naive_forward(net, X[s]) - y[s]) ** 2
            acc /= 6
            stack = np.concatenate([
                net.input_weights.ravel(), net.input_biases,
                net.output_weights, [net.output_bias],
            ])
            acc += 0.5 * beta * float(stack @ stack)
            assert loss(net, data, beta) == pytest.approx(acc, rel=1e-12)


class TestGradient:
    def test_regularizer_only_when_residuals_vanish(self):
        net = ReluNet(np.array([[1.0]]), np.array([0.0]), np.array([1.0]), 0.0)
        X = np.array([[1.0], [2.0]])
        data = RegressionSet(X, net.forward_many(X))
        beta = 0.3
        stack = np.concatenate([
            net.input_weights.ravel(), net.input_biases,
            net.output_weights, [net.output_bias],
        ])
        np.testing.assert_allclose(gradient(net, data, beta), beta * stack, atol=1e-12)

    def test_inactive_neuron_frozen_input_block(self):
        # single sample, single neuron with negative preactivation: no input-layer signal
        net = ReluNet(np.array([[1.0, 0.0]]), np.array([-10.0]), np.array([2.0]), 0.0)
        data = RegressionSet(np.array([[1.0, 1.0]]), np.array([5.0]))
        g = gradient(net, data, 0.0)
        np.testing.assert_allclose(g[:3], 0.0)  # u (2 entries) and u0

    def test_matches_central_differences_at_smooth_points(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        checked = 0
        while checked < 30:
            net = random_net(rng)
            X = rng.normal(size=(5, 3))
            pre = X @ net.input_weights.T + net.input_biases
            if np.min(np.abs(pre)) < 1e-3:
                continue  # keep away from kinks so the FD quotient is clean
            data = RegressionSet(X, rng.normal(size=5))
            beta = float(rng.uniform(0, 0.2))
            y0 = np.concatenate([
                net.input_weights.ravel(), net.input_biases,
                net.output_weights, [net.output_bias],
            ])
            fd = np.empty_like(y0)
            for k in range(y0.size):
                up, dn = y0.copy(), y0.copy()
                up[k] += h
                dn[k] -= h
                fd[k] = (
                    _loss_from_flat(up, data, beta) - _loss_from_flat(dn, data, beta)
                ) / (2 * h)
            g = gradient(net, data, beta)
            scale = np.maximum(np.abs(fd), 1.0)
            np.testing.assert_allclose(g / scale, fd / scale, atol=1e-5)
            checked += 1


def _loss_from_flat(y, data, beta):
    J = (y.size - 1) // (data.inputs.shape[1] + 2)
    n1 = data.inputs.shape[1]
    net = ReluNet(
        y[: J * n1].reshape(J, n1),
        y[J * n1: J * n1 + J],
        y[J * n1 + J: J * n1 + 2 * J],
        float(y[-1]),
    )
    return loss(net, data, beta)


class TestFit:
    def test_planted_single_neuron_recovery(self):
        rng = np.random.default_rng(5)
        target = ReluNet(np.array([[1.5, -0.5]]), np.array([0.2]), np.array([1.0]), 0.3)
        X = rng.uniform(-2, 2, size=(80, 2))
        data = RegressionSet(X, target.forward_many(X))
        net = fit(data, J=3, config=TrainConfig(restarts=5), rng=np.random.default_rng(6))
        assert loss(net, data, 0.0) <= 1e-4

    def test_constant_targets(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(40, 2))
        data = RegressionSet(X, np.full(40, 2.5))
        net = fit(data, J=2, config=TrainConfig(restarts=2, max_epochs=500),
                  rng=np.random.default_rng(8))
        np.testing.assert_allclose(net.forward_many(X), 2.5, atol=1e-3)

    def test_never_worse_than_constant_baseline(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        beta = 0.1
        data = RegressionSet(X, y)
        net = fit(data, J=4, config=TrainConfig(regularization=beta, restarts=1,
                                                max_epochs=20),
                  rng=np.random.default_rng(10))
        w0 = 2.0 * y.mean() / (2.0 + beta)
        baseline = np.mean((w0 - y) ** 2) + 0.5 * beta * w0**2
        assert loss(net, data, beta) <= baseline + 1e-12

    def test_seeded_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 2))
        data = RegressionSet(X, rng.normal(size=25))
        cfg = TrainConfig(restarts=2, max_epochs=200)
        a = fit(data, J=3, config=cfg, rng=np.random.default_rng(12))
        b = fit(data, J=3, config=cfg, rng=np.random.default_rng(12))
        np.testing.assert_array_equal(a.input_weights, b.input_weights)
        np.testing.assert_array_equal(a.input_biases, b.input_biases)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)
        assert a.output_bias == b.output_bias

    def test_monotone_in_restarts(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 2))
        data = RegressionSet(X, np.sin(X[:, 0]) + X[:, 1] ** 2)
        losses = []
        for k in (1, 2, 3, 4):
            net = fit(data, J=4, config=TrainConfig(restarts=k, max_epochs=300),
                      rng=np.random.default_rng(14))
            losses.append(loss(net, data, 0.0))
        assert all(l2 <= l1 + 1e-15 for l1, l2 in zip(losses, losses[1:]))

    def test_diverged_restart_is_discarded_with_a_warning(self, monkeypatch):
        # the first of three descents fails: fit warns and returns the best
        # of the other two, which a two-restart fit reproduces from the
        # generator state after the discarded restart's starting draws
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 2))
        data = RegressionSet(X, np.sin(X[:, 0]) + X[:, 1] ** 2)
        descend, calls = neural._descend, []

        def first_diverges(*args):
            calls.append(args)
            if len(calls) == 1:
                raise FloatingPointError("non-finite residuals during training")
            return descend(*args)

        monkeypatch.setattr(neural, "_descend", first_diverges)
        with pytest.warns(RuntimeWarning, match="restart 0 discarded"):
            net = fit(data, J=4, config=TrainConfig(restarts=3, max_epochs=100),
                      rng=np.random.default_rng(14))
        monkeypatch.undo()
        assert len(calls) == 3
        rest = np.random.default_rng(14)
        neural._initial_net(data, 4, rest)  # draws as many numbers as restart 0's start
        expected = fit(data, J=4, config=TrainConfig(restarts=2, max_epochs=100),
                       rng=rest)
        for field in ("input_weights", "input_biases", "output_weights", "output_bias"):
            np.testing.assert_array_equal(getattr(net, field), getattr(expected, field))
        assert loss(net, data, 0.0) < np.var(data.targets)  # not the constant fit

    def test_non_integral_neuron_count_is_refused(self):
        # it used to reach rng.normal as a size and raise TypeError there
        data = RegressionSet(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        with pytest.raises(ValueError, match="neurons must be integral"):
            fit(data, 2.5, TrainConfig(restarts=1), np.random.default_rng(0))

    @pytest.mark.parametrize("J", [3.0, np.int64(3)])
    def test_integral_neuron_count_fits_as_int(self, J):
        rng = np.random.default_rng(16)
        data = RegressionSet(rng.normal(size=(20, 2)), rng.normal(size=20))
        cfg = TrainConfig(restarts=2, max_epochs=50)
        got = fit(data, J, cfg, np.random.default_rng(17))
        want = fit(data, 3, cfg, np.random.default_rng(17))
        assert got.to_json_dict() == want.to_json_dict()

    def test_approximation_improves_with_width(self):
        # fixed Lipschitz target; best-of-3 held-out MSE should not increase
        # as the hidden layer widens
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, size=(500, 2))
        target = np.abs(X[:, 0]) + np.sin(2.0 * X[:, 1])
        X_test = rng.uniform(-1, 1, size=(300, 2))
        y_test = np.abs(X_test[:, 0]) + np.sin(2.0 * X_test[:, 1])
        data = RegressionSet(X, target)
        best_mse = []
        for J in (2, 8, 32):
            trials = []
            for rep in range(3):
                net = fit(data, J=J,
                          config=TrainConfig(restarts=1, max_epochs=800),
                          rng=np.random.default_rng(100 + 10 * J + rep))
                trials.append(float(np.mean((net.forward_many(X_test) - y_test) ** 2)))
            best_mse.append(min(trials))
        assert best_mse[1] <= best_mse[0] + 1e-12
        assert best_mse[2] <= best_mse[1] + 1e-12


def descend_reference(data, start, config):
    """The trainer's loop before its candidates were scored on the flat
    parameters: each candidate is built as a ``ReluNet`` and scored by
    ``loss``, and each epoch recomputes its forward pass for the Jacobian."""
    beta = config.regularization
    J, n1 = start.neuron_count, start.input_dim
    S = len(data)
    y = neural._flatten(start)
    cur = loss(start, data, beta)
    lam = neural._DAMPING_INIT
    eye = np.eye(y.size)
    for _ in range(config.max_epochs):
        pre, act, resid = neural._forward(y, data, J, n1)
        jac = neural._jacobian(y, data, J, n1, pre, act)
        if not (np.all(np.isfinite(resid)) and np.all(np.isfinite(jac))):
            raise FloatingPointError("non-finite residuals during training")
        g = (2.0 / S) * (jac.T @ resid) + beta * y
        H = (2.0 / S) * (jac.T @ jac) + beta * eye
        accepted = False
        while lam <= neural._DAMPING_MAX:
            try:
                step = np.linalg.solve(H + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= neural._DAMPING_GROW
                continue
            cand = y + step
            cand_loss = loss(neural._unflatten(cand, J, n1), data, beta)
            if np.isfinite(cand_loss) and cand_loss < cur:
                improvement = cur - cand_loss
                y, cur = cand, cand_loss
                lam = max(lam * neural._DAMPING_SHRINK, 1e-12)
                accepted = True
                break
            lam *= neural._DAMPING_GROW
        if not accepted:
            break
        if improvement < neural._LOSS_TOLERANCE:
            break
    return neural._unflatten(y, J, n1), cur


def repeated_rows(rng, S, n1, distinct):
    """``S`` shuffled rows of noisy targets on ``distinct`` inputs, each
    input used at least once."""
    X = rng.normal(size=(distinct, n1))
    use = np.concatenate([np.arange(distinct), rng.integers(0, distinct, S - distinct)])
    X = X[rng.permutation(use)]
    return RegressionSet(X, np.sin(X @ rng.normal(size=n1)) + 0.1 * rng.normal(size=S))


def expanded(rows):
    """The regression set of each distinct input repeated by its count, with
    its mean target: its descent steps are those of the rows it groups."""
    counts = rows.counts.astype(int)
    return RegressionSet(np.repeat(rows.inputs, counts, axis=0),
                         np.repeat(rows.targets, counts))


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestDistinctRows:
    def test_groups_equal_rows_with_counts_means_and_spread(self):
        X = np.array([[1.0, 2.0], [0.0, 5.0], [1.0, 2.0], [1.0, 2.0]])
        rows = neural._DistinctRows.of(RegressionSet(X, np.array([1.0, 7.0, 2.0, 6.0])))
        np.testing.assert_array_equal(rows.inputs, [[0.0, 5.0], [1.0, 2.0]])
        np.testing.assert_array_equal(rows.counts, [1.0, 3.0])
        np.testing.assert_array_equal(rows.targets, [7.0, 3.0])
        assert rows.spread == 4.0 + 1.0 + 9.0

    def test_squared_error_over_all_rows(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            S = int(rng.integers(1, 30))
            data = repeated_rows(rng, S, 2, int(rng.integers(1, S + 1)))
            rows = neural._DistinctRows.of(data)
            net = random_net(rng, J=3, n1=2)
            resid = net.forward_many(rows.inputs) - rows.targets
            grouped = (rows.counts @ resid**2 + rows.spread) / len(data)
            assert grouped == pytest.approx(loss(net, data, 0.0), rel=1e-12, abs=1e-14)


class TestDescendAgainstReference:
    """The trainer's grouped descent against the reference loop on the
    expanded rows.  The two round differently, the grouped one solving the
    smaller of two equivalent Gram systems, so they agree to tolerances,
    not bit for bit."""

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("wide", [False, True], ids=["params-gram", "rows-gram"])
    def test_one_step(self, beta, wide):
        # a single epoch: each side returns its start plus its first accepted step
        rng = np.random.default_rng(90 + int(wide))
        for trial in range(12):
            J, n1 = (int(rng.integers(3, 7)), 3) if wide else (1, int(rng.integers(1, 3)))
            p = J * (n1 + 2) + 1
            S = int(rng.integers(2 * p, 4 * p))
            distinct = int(rng.integers(2, p) if wide else rng.integers(p, S + 1))
            data = repeated_rows(rng, S, n1, distinct)
            rows = neural._DistinctRows.of(data)
            assert (rows.counts.size < p) == wide
            start = neural._initial_net(data, J, rng)
            config = TrainConfig(regularization=beta, max_epochs=1)
            got, _ = neural._descend(rows, start, config)
            want, _ = descend_reference(data, start, config)
            y0 = neural._flatten(start)
            assert relative_error(neural._flatten(got) - y0,
                                  neural._flatten(want) - y0) <= 1e-12

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.5])
    def test_nets_and_losses(self, beta):
        rng = np.random.default_rng(91)
        epochs = repeats = 0
        for trial in range(32):
            J, n1, S = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(5, 40))
            distinct = S if trial % 2 else int(rng.integers(1, S))
            data = repeated_rows(rng, S, n1, distinct)
            rows = neural._DistinctRows.of(data)
            start = neural._initial_net(data, J, rng)
            config = TrainConfig(regularization=beta, max_epochs=int(rng.integers(1, 80)))
            got, got_loss = neural._descend(rows, start, config)
            want, want_loss = descend_reference(data, start, config)
            assert abs(got_loss - want_loss) <= 1e-12
            assert relative_error(neural._flatten(got), neural._flatten(want)) <= 1e-9
            epochs += config.max_epochs
            repeats += rows.counts.size < S
        assert epochs > 300 and repeats == 16

    def test_fit_matches_a_fit_on_the_reference_loop(self, monkeypatch):
        rng = np.random.default_rng(92)
        X = rng.integers(-2, 3, size=(60, 3)).astype(float)  # repeated rows
        data = RegressionSet(X, np.abs(X[:, 0]) - X[:, 1] * X[:, 2] + rng.normal(size=60))
        config = TrainConfig(regularization=1e-2, restarts=3, max_epochs=150)
        got = fit(data, J=5, config=config, rng=np.random.default_rng(93))
        monkeypatch.setattr(neural, "_descend", lambda rows, start, config:
                            descend_reference(expanded(rows), start, config))
        want = fit(data, J=5, config=config, rng=np.random.default_rng(93))
        assert relative_error(neural._flatten(got), neural._flatten(want)) <= 1e-9


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["restarts", "max_epochs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["restarts", "max_epochs"])
    def test_non_integral_counts_are_refused(self, field):
        with pytest.raises(ValueError, match=f"{field} must be integral"):
            TrainConfig(**{field: 2.5})

    @pytest.mark.parametrize("field", ["restarts", "max_epochs"])
    @pytest.mark.parametrize("value", [3.0, np.int64(3)])
    def test_integral_counts_are_accepted_as_int(self, field, value):
        got = getattr(TrainConfig(**{field: value}), field)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [-1e-12, float("nan"), float("inf")])
    def test_negative_or_non_finite_regularization_is_refused(self, value):
        # NaN slipped past the old check `regularization < 0`
        with pytest.raises(ValueError, match="regularization must be finite"):
            TrainConfig(regularization=value)


class TestRegressionSet:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["inputs", "targets"])
    def test_non_finite_values_are_refused(self, field, bad):
        X, y = np.zeros((3, 2)), np.zeros(3)
        (X if field == "inputs" else y)[1] = bad
        with pytest.raises(ValueError, match=f"regression {field} must be finite"):
            RegressionSet(X, y)


class TestSplitNeurons:
    def test_sign_rule_zero_goes_negative(self):
        net = ReluNet(np.zeros((3, 1)), np.zeros(3), np.array([1.0, -1.0, 0.0]), 0.0)
        pos, rest = split_neurons(net)
        assert pos == [0]
        assert rest == [1, 2]

    def test_all_positive(self):
        net = ReluNet(np.zeros((2, 1)), np.zeros(2), np.array([0.5, 2.0]), 0.0)
        pos, rest = split_neurons(net)
        assert pos == [0, 1]
        assert rest == []

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            net = random_net(rng, J=int(rng.integers(1, 10)))
            pos, rest = split_neurons(net)
            assert sorted(pos + rest) == list(range(net.neuron_count))
            assert not set(pos) & set(rest)


class TestSerialization:
    def test_round_trip(self):
        net = random_net(np.random.default_rng(17))
        clone = ReluNet.from_json_dict(json.loads(json.dumps(net.to_json_dict())))
        np.testing.assert_array_equal(net.input_weights, clone.input_weights)
        np.testing.assert_array_equal(net.input_biases, clone.input_biases)
        np.testing.assert_array_equal(net.output_weights, clone.output_weights)
        assert net.output_bias == clone.output_bias
