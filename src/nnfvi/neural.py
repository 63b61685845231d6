"""Two-layer ReLU network: evaluation, exact gradients, and regularized
least-squares training by damped Gauss-Newton (Levenberg-Marquardt) with
restarts.

The network computes ``sum_j w[j] * max(u[j] @ x + u0[j], 0) + w0``.  The
flat parameter vector stacks ``[u (row-major), u0, w, w0]``; the training
loss is mean squared error plus ``beta/2 * y @ y`` over that full stack.

Training runs on the distinct inputs of the training set, each weighted by
its count: with ``t_g`` the mean target of input ``x_g`` and ``C`` the
targets' sum of squared deviations from their input's mean, the squared
error over all ``S`` rows is ``sum_g n_g (f(x_g) - t_g)^2 + C``.  Each damped
step solves the smaller of two equivalent Gram systems (Nocedal & Wright
2006, ch. 10), so a step costs what the distinct inputs need, not the rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mdp import as_integers


@dataclass(frozen=True)
class ReluNet:
    """Immutable two-layer ReLU network."""

    input_weights: np.ndarray  # (J, N1)
    input_biases: np.ndarray   # (J,)
    output_weights: np.ndarray  # (J,)
    output_bias: float

    def __post_init__(self):
        u = np.asarray(self.input_weights, dtype=float)
        if u.ndim != 2 or u.shape[0] < 1:
            raise ValueError("input_weights must be a (J, N1) matrix with J >= 1")
        u0 = np.asarray(self.input_biases, dtype=float)
        w = np.asarray(self.output_weights, dtype=float)
        if u0.shape != (u.shape[0],) or w.shape != (u.shape[0],):
            raise ValueError("bias/output-weight shapes must match the neuron count")
        for arr in (u, u0, w):
            if not np.all(np.isfinite(arr)):
                raise ValueError("network weights must be finite")
        if not np.isfinite(self.output_bias):
            raise ValueError("output bias must be finite")
        object.__setattr__(self, "input_weights", u)
        object.__setattr__(self, "input_biases", u0)
        object.__setattr__(self, "output_weights", w)
        object.__setattr__(self, "output_bias", float(self.output_bias))

    @property
    def neuron_count(self) -> int:
        return self.input_weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]

    def forward_many(self, X: np.ndarray) -> np.ndarray:
        """Vectorized forward pass over rows of ``X`` (shape ``(m, N1)``)."""
        X = np.asarray(X, dtype=float)
        pre = X @ self.input_weights.T + self.input_biases
        return np.maximum(pre, 0.0) @ self.output_weights + self.output_bias

    def to_json_dict(self) -> dict:
        return {
            "neurons": self.neuron_count,
            "input_dim": self.input_dim,
            "input_weights": self.input_weights.tolist(),
            "input_biases": self.input_biases.tolist(),
            "output_weights": self.output_weights.tolist(),
            "output_bias": self.output_bias,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ReluNet":
        net = ReluNet(
            input_weights=np.asarray(data["input_weights"], dtype=float),
            input_biases=np.asarray(data["input_biases"], dtype=float),
            output_weights=np.asarray(data["output_weights"], dtype=float),
            output_bias=float(data["output_bias"]),
        )
        if net.neuron_count != data["neurons"] or net.input_dim != data["input_dim"]:
            raise ValueError("serialized dimensions disagree with weight shapes")
        return net


# Levenberg-Marquardt damping schedule and stopping tolerance of the
# trainer; implementation defaults, not values from the source problem
_DAMPING_INIT = 1e-2
_DAMPING_SHRINK = 0.5
_DAMPING_GROW = 4.0
_DAMPING_MAX = 1e10
_LOSS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the damped Gauss-Newton trainer.

    None of these values come from the source problem setting; they are
    implementation defaults, exposed because the fit quality depends on them.
    ``max_epochs`` budgets outer Gauss-Newton iterations per restart.
    """

    regularization: float = 0.0
    restarts: int = 5
    max_epochs: int = 200

    def __post_init__(self):
        if not (np.isfinite(self.regularization) and self.regularization >= 0):
            raise ValueError(f"regularization must be finite and >= 0, got "
                             f"{self.regularization!r}")
        for name in ("restarts", "max_epochs"):
            object.__setattr__(self, name, int(as_integers(getattr(self, name), name)))
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class RegressionSet:
    """Training pairs (state, target value)."""

    inputs: np.ndarray   # (S1, N1)
    targets: np.ndarray  # (S1,)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.asarray(self.targets, dtype=float).ravel()
        if X.shape[0] == 0:
            raise ValueError("regression set must be non-empty")
        if y.shape != (X.shape[0],):
            raise ValueError("inputs and targets disagree in length")
        for name, values in (("inputs", X), ("targets", y)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"regression {name} must be finite (no NaN or inf)")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class _DistinctRows:
    """A regression set's distinct inputs, each with its count and the mean
    of its targets, plus ``spread``, the targets' sum of squared deviations
    from their input's mean.  The set's squared error under a network ``f``
    is ``counts @ (f(inputs) - targets)**2 + spread``."""

    inputs: np.ndarray   # (m, N1)
    targets: np.ndarray  # (m,)
    counts: np.ndarray   # (m,), as floats
    spread: float

    @staticmethod
    def of(data: RegressionSet) -> "_DistinctRows":
        inputs, group, counts = np.unique(data.inputs, axis=0, return_inverse=True,
                                          return_counts=True)
        group = group.reshape(-1)  # numpy 2.0.0 returns the inverse 2-D
        counts = counts.astype(float)
        means = np.bincount(group, weights=data.targets) / counts
        deviations = data.targets - means[group]
        return _DistinctRows(inputs, means, counts, float(deviations @ deviations))


def _flatten(net: ReluNet) -> np.ndarray:
    return np.concatenate([
        net.input_weights.ravel(),
        net.input_biases,
        net.output_weights,
        [net.output_bias],
    ])


def _unflatten(y: np.ndarray, J: int, n1: int) -> ReluNet:
    u = y[: J * n1].reshape(J, n1)
    u0 = y[J * n1: J * n1 + J]
    w = y[J * n1 + J: J * n1 + 2 * J]
    return ReluNet(u, u0, w, float(y[-1]))


def loss(net: ReluNet, data: RegressionSet, beta: float) -> float:
    """Mean squared error plus ``beta/2`` times the squared weight norm."""
    resid = net.forward_many(data.inputs) - data.targets
    y = _flatten(net)
    return float(np.mean(resid**2) + 0.5 * beta * y @ y)


def gradient(net: ReluNet, data: RegressionSet, beta: float) -> np.ndarray:
    """Exact gradient of :func:`loss` in the flat parameter layout.

    Built from the Jacobian the trainer uses.  The ReLU subgradient at a
    kink is taken as 0, matching the strict activation indicator used by
    the cut construction.
    """
    y = _flatten(net)
    J, n1 = net.neuron_count, net.input_dim
    pre, act, resid = _forward(y, data, J, n1)
    jac = _jacobian(y, data, J, n1, pre, act)
    return (2.0 / len(data)) * (jac.T @ resid) + beta * y


def split_neurons(net: ReluNet) -> tuple[list[int], list[int]]:
    """Partition neuron indices by output-weight sign: positives and the rest."""
    positive = [j for j in range(net.neuron_count) if net.output_weights[j] > 0]
    rest = [j for j in range(net.neuron_count) if net.output_weights[j] <= 0]
    return positive, rest


def _constant_fit(data: RegressionSet, beta: float, J: int) -> ReluNet:
    # all-zero weights; the bias minimizing mean((w0-y)^2) + beta/2 w0^2
    w0 = 2.0 * float(np.mean(data.targets)) / (2.0 + beta)
    n1 = data.inputs.shape[1]
    return ReluNet(np.zeros((J, n1)), np.zeros(J), np.zeros(J), w0)


def _initial_net(data: RegressionSet, J: int, rng: np.random.Generator) -> ReluNet:
    # keep neurons initially active: kinks land inside the data's preactivation range
    n1 = data.inputs.shape[1]
    u = rng.normal(size=(J, n1)) / np.sqrt(n1)
    pre = data.inputs @ u.T  # (S, J)
    lo = pre.min(axis=0)
    hi = pre.max(axis=0)
    u0 = rng.uniform(-hi, -lo + 1e-12)
    w = rng.normal(size=J) * 0.5
    w0 = float(np.mean(data.targets))
    return ReluNet(u, u0, w, w0)


def _forward(y: np.ndarray, data: RegressionSet | _DistinctRows, J: int,
             n1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preactivations, activations and residuals of the flat parameters
    ``y`` on the rows of ``data``, with the arithmetic of
    :meth:`ReluNet.forward_many`."""
    u = y[: J * n1].reshape(J, n1)
    u0 = y[J * n1: J * n1 + J]
    w = y[J * n1 + J: J * n1 + 2 * J]
    pre = data.inputs @ u.T + u0
    act = np.maximum(pre, 0.0)
    return pre, act, act @ w + y[-1] - data.targets


def _jacobian(y: np.ndarray, data: RegressionSet | _DistinctRows, J: int, n1: int,
              pre: np.ndarray, act: np.ndarray) -> np.ndarray:
    """Jacobian of the residuals w.r.t. the flat parameters ``y``, from the
    preactivations and activations of :func:`_forward`."""
    X = data.inputs
    S = X.shape[0]
    w = y[J * n1 + J: J * n1 + 2 * J]
    on = (pre > 0.0).astype(float)
    jac = np.empty((S, y.size))
    back = on * w  # (S, J)
    jac[:, : J * n1] = (back[:, :, None] * X[:, None, :]).reshape(S, J * n1)
    jac[:, J * n1: J * n1 + J] = back
    jac[:, J * n1 + J: J * n1 + 2 * J] = act
    jac[:, -1] = 1.0
    return jac


def _descend(rows: _DistinctRows, start: ReluNet,
             config: TrainConfig) -> tuple[ReluNet, float]:
    """Levenberg-Marquardt style damped Gauss-Newton on the regression loss
    of the distinct rows ``rows``.

    Let ``A`` be the residuals' Jacobian and ``r`` the residuals, each row
    scaled by ``sqrt(2 n_g / S)``, and ``mu = beta + lam``.  The step is
    ``-(A'A + mu I)^-1 (A'r + beta y)``.  With fewer rows than parameters it
    is solved in the rows' Gram system instead: ``(AA' + mu I) [z0 z1] =
    [r, Ay]`` gives ``step = -A'z0 - (beta/mu) (y - A'z1)``.  Only the
    ``beta y`` part is divided by ``mu``, by a factor ``beta/mu <= 1``, so
    the round-off of ``A'r`` is not magnified at small damping.

    A candidate step's loss is computed on the flat parameters, and an
    accepted candidate's forward pass is reused for the next epoch's
    Jacobian.  A candidate with non-finite parameters or loss is rejected
    like one that does not improve.
    """
    beta = config.regularization
    J, n1 = start.neuron_count, start.input_dim
    total = rows.counts.sum()
    scale = np.sqrt(2.0 * rows.counts / total)

    def objective(resid: np.ndarray, y: np.ndarray) -> float:
        return float((rows.counts @ resid**2 + rows.spread) / total + 0.5 * beta * y @ y)

    y = _flatten(start)
    pre, act, resid = _forward(y, rows, J, n1)
    cur = objective(resid, y)
    lam = _DAMPING_INIT
    wide = scale.size < y.size  # fewer rows than parameters
    eye = np.eye(min(scale.size, y.size))
    for _ in range(config.max_epochs):
        jac = _jacobian(y, rows, J, n1, pre, act)
        if not (np.all(np.isfinite(resid)) and np.all(np.isfinite(jac))):
            raise FloatingPointError("non-finite residuals during training")
        A = scale[:, None] * jac
        if wide:
            gram, rhs = A @ A.T, np.column_stack([scale * resid, A @ y])
        else:
            gram, rhs = A.T @ A, -(A.T @ (scale * resid) + beta * y)
        accepted = False
        while lam <= _DAMPING_MAX:
            mu = beta + lam
            try:
                z = np.linalg.solve(gram + mu * eye, rhs)
            except np.linalg.LinAlgError:
                lam *= _DAMPING_GROW
                continue
            if wide:
                back = A.T @ z
                step = -back[:, 0] - (beta / mu) * (y - back[:, 1])
            else:
                step = z
            cand = y + step
            if not np.isfinite(cand).all():
                lam *= _DAMPING_GROW
                continue
            cand_pre, cand_act, cand_resid = _forward(cand, rows, J, n1)
            cand_loss = objective(cand_resid, cand)
            if np.isfinite(cand_loss) and cand_loss < cur:
                improvement = cur - cand_loss
                y, cur = cand, cand_loss
                pre, act, resid = cand_pre, cand_act, cand_resid
                lam = max(lam * _DAMPING_SHRINK, 1e-12)
                accepted = True
                break
            lam *= _DAMPING_GROW
        if not accepted:
            break
        if improvement < _LOSS_TOLERANCE:
            break
    return _unflatten(y, J, n1), cur


def _destandardize(net: ReluNet, x_mean: np.ndarray, x_scale: np.ndarray,
                   y_mean: float, y_scale: float) -> ReluNet:
    # a net trained on (x - m) / s with scaled targets folds exactly back
    # into original coordinates: ReLU commutes with the affine input map
    u = net.input_weights / x_scale
    u0 = net.input_biases - net.input_weights @ (x_mean / x_scale)
    w = net.output_weights * y_scale
    w0 = net.output_bias * y_scale + y_mean
    return ReluNet(u, u0, w, w0)


def fit(data: RegressionSet, J: int, config: TrainConfig,
        rng: np.random.Generator, *, discarded: Optional[list] = None) -> ReluNet:
    """Train a ``J``-neuron network on ``data``; best of ``config.restarts`` runs.

    Descent runs on internally standardized inputs and targets (better
    conditioned), grouped once into their distinct inputs, on which every
    forward pass and Jacobian of the descent is computed.  Candidates are
    compared on the original-coordinates loss over all rows, and the
    returned loss never exceeds that of the all-zero network with the
    optimal constant output bias, which is always a candidate.  Restarts
    whose training diverges are discarded with a warning, and their indices
    are appended to ``discarded`` when it is given.
    """
    J = int(as_integers(J, "neurons"))
    if J < 1:
        raise ValueError("neuron count must be >= 1")
    beta = config.regularization
    best = _constant_fit(data, beta, J)
    best_loss = loss(best, data, beta)

    x_mean = data.inputs.mean(axis=0)
    x_scale = data.inputs.std(axis=0)
    x_scale[x_scale < 1e-12] = 1.0
    y_mean = float(data.targets.mean())
    y_scale = float(data.targets.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    scaled = RegressionSet((data.inputs - x_mean) / x_scale,
                           (data.targets - y_mean) / y_scale)
    rows = _DistinctRows.of(scaled)

    for r in range(config.restarts):
        start = _initial_net(scaled, J, rng)
        try:
            net, _ = _descend(rows, start, config)
        except FloatingPointError as err:
            if discarded is not None:
                discarded.append(r)
            warnings.warn(f"restart {r} discarded: {err}", RuntimeWarning)
            continue
        candidate = _destandardize(net, x_mean, x_scale, y_mean, y_scale)
        net_loss = loss(candidate, data, beta)
        if net_loss < best_loss:
            best, best_loss = candidate, net_loss
    return best
