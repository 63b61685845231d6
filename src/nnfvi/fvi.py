"""Fitted value iteration driver and the exact tabular-DP oracle.

The driver sweeps backward over periods: sample states, compute one-step
lookahead targets through the previously fitted network, regress a fresh
network on the targets, and finally evaluate the known initial state.  All
randomness is derived from one master seed through named substreams, so a
run is bit-for-bit reproducible for a fixed BLAS thread count.  Another
thread count may round numpy's BLAS calls differently and so move the
result: perfbench's criterion-4 run returns 27.721914566172384 with one
OpenBLAS thread and 27.721914566172316 with two, and ``perfbench/run.py``
pins one thread.

The DP oracle performs exact backward induction for problems whose state
splits into an endogenous lattice (written directly by the action) and an
exogenous finite Markov chain, which covers the capacity-investment
benchmark and any synthetic instance shaped the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cuts import RecourseContext
from .mcd import McdConfig, SelectionResult, select_action
from .mdp import MdpSpec, sample_states
from .neural import RegressionSet, ReluNet, TrainConfig, fit, loss

# substream tags for SeedSequence-derived generators
_STATES, _NOISE, _FIT = 0, 1, 2


class DpSizeError(ValueError):
    """State lattice too large for exact backward induction."""


@dataclass(frozen=True)
class FviConfig:
    state_samples: int = 100       # per-period regression sample size
    transition_samples: int = 20   # Monte-Carlo draws per lookahead
    neurons: int = 20
    train: TrainConfig = field(default_factory=TrainConfig)
    mcd: McdConfig = field(default_factory=lambda: McdConfig(engine="brute"))
    seed: int = 0

    def __post_init__(self):
        if self.state_samples < 1 or self.transition_samples < 1:
            raise ValueError("sample counts must be >= 1")
        if self.neurons < 1:
            raise ValueError("neurons must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "state_samples": self.state_samples,
            "transition_samples": self.transition_samples,
            "neurons": self.neurons,
            "regularization": self.train.regularization,
            "seed": self.seed,
            "engine": self.mcd.engine,
            "mcd_max_iterations": self.mcd.max_iterations,
            "mcd_gap_tolerance": self.mcd.gap_tolerance,
            "train_restarts": self.train.restarts,
            "train_max_epochs": self.train.max_epochs,
        }


@dataclass
class FittedValueSet:
    """Fitted networks for periods 2..T plus the returned initial value."""

    nets: dict                    # period -> ReluNet
    value_estimate: float
    training_losses: dict         # period -> final regression loss
    config: dict                  # config snapshot for provenance

    def to_json_dict(self) -> dict:
        return {
            "value_estimate": self.value_estimate,
            "config": self.config,
            "training_losses": {str(t): v for t, v in self.training_losses.items()},
            "nets": {str(t): net.to_json_dict() for t, net in self.nets.items()},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "FittedValueSet":
        return FittedValueSet(
            nets={int(t): ReluNet.from_json_dict(d) for t, d in data["nets"].items()},
            value_estimate=float(data["value_estimate"]),
            training_losses={int(t): float(v)
                             for t, v in data["training_losses"].items()},
            config=dict(data["config"]),
        )

    @staticmethod
    def loads(text: str) -> "FittedValueSet":
        return FittedValueSet.from_json_dict(json.loads(text))


def _substream(seed: int, period: int, sample: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, period, sample, tag)))


def _zero_net(state_dim: int) -> ReluNet:
    return ReluNet(np.zeros((1, state_dim)), np.zeros(1), np.zeros(1), 0.0)


def _decide(spec: MdpSpec, nets: dict, t: int, x: np.ndarray,
            noises: np.ndarray, config: McdConfig) -> SelectionResult:
    """Best action at ``(t, x)`` against the period ``t+1`` network.

    At the terminal period the continuation is zero; otherwise the fitted
    period ``t+1`` network is averaged over the supplied noise draws, which
    are shared across candidate actions.
    """
    if t < spec.horizon:
        if (t + 1) not in nets:
            raise ValueError(f"no fitted network for period {t + 1}")
        net = nets[t + 1]
    else:
        net = _zero_net(spec.state_dim)
    ctx = RecourseContext(net, spec, x, noises)
    return select_action(ctx, spec.stage_reward(t, x), config)


def bellman_target(spec: MdpSpec, nets: dict, t: int, x: np.ndarray,
                   noises: np.ndarray, config: McdConfig) -> float:
    """One-step lookahead value at ``(t, x)`` under the chosen engine."""
    return _decide(spec, nets, t, x, noises, config).objective


def run_nnfvi(spec: MdpSpec, config: FviConfig) -> tuple[FittedValueSet, float]:
    """Backward fitted value iteration; returns the fits and the initial value.

    Periods T down to 2 each get a fresh state sample, Monte-Carlo lookahead
    targets, and a network fit; period 1 is evaluated directly at the known
    initial state with its own noise draws.
    """
    if spec.initial_state is None:
        raise ValueError("the MDP needs an initial_state for the final evaluation")
    T = spec.horizon
    s1, s2 = config.state_samples, config.transition_samples
    nets: dict = {}
    losses: dict = {}

    for t in range(T, 1, -1):
        state_rng = _substream(config.seed, t, 0, _STATES)
        states = sample_states(spec, s1, state_rng)
        targets = np.empty(s1)
        for s in range(s1):
            noise_rng = _substream(config.seed, t, s + 1, _NOISE)
            noises = spec.draw_noises(noise_rng, s2)
            targets[s] = bellman_target(spec, nets, t, states[s], noises,
                                        config.mcd)
        data = RegressionSet(states, targets)
        try:
            net = fit(data, config.neurons, config.train,
                      _substream(config.seed, t, 0, _FIT))
        except Exception as err:
            raise RuntimeError(f"network training failed at period {t}") from err
        nets[t] = net
        losses[t] = loss(net, data, config.train.regularization)

    noise_rng = _substream(config.seed, 1, 0, _NOISE)
    noises = spec.draw_noises(noise_rng, s2)
    v_hat = bellman_target(spec, nets, 1, spec.initial_state, noises, config.mcd)

    fitted = FittedValueSet(
        nets=nets,
        value_estimate=v_hat,
        training_losses=losses,
        config=config.to_json_dict(),
    )
    return fitted, v_hat


def greedy_policy(spec: MdpSpec, nets: dict, config: McdConfig,
                  transition_samples: int, seed: int) -> Callable:
    """One-step greedy policy induced by the fitted networks.

    The lookahead noise for each period is drawn up front from the policy's
    own seed, so a decision is a function of ``(t, x)`` alone and
    alternatives at the same period share draws.  Decisions are made by the
    same code as :func:`bellman_target`.
    """
    noises = {t: spec.draw_noises(_substream(seed, t, 0, _NOISE), transition_samples)
              for t in range(1, spec.horizon + 1)}

    def policy(t: int, x: np.ndarray) -> np.ndarray:
        return _decide(spec, nets, t, x, noises[t], config).action

    return policy


@dataclass(frozen=True)
class TabularMdp:
    """Finite problem whose action rewrites the endogenous state block.

    ``endo_levels`` doubles as the action set: choosing action ``a`` moves the
    endogenous block to ``endo_levels[a]``; the exogenous block evolves by
    ``exo_kernel`` regardless of the action.  ``reward(t)`` is period
    ``t``'s reward table of shape ``(nE, nX, nE)``, indexed ``[e, x, a]`` by
    row indices.
    """

    horizon: int
    discount: float
    endo_levels: np.ndarray   # (nE, dim_endo)
    exo_levels: np.ndarray    # (nX, dim_exo)
    exo_kernel: np.ndarray    # (nX, nX), rows sum to one
    reward: Callable[[int], np.ndarray]

    def __post_init__(self):
        kernel = np.asarray(self.exo_kernel, dtype=float)
        if kernel.shape != (len(self.exo_levels), len(self.exo_levels)):
            raise ValueError("kernel shape must match the exogenous support")
        if np.any(np.abs(kernel.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("kernel rows must sum to one")
        if np.any(kernel < -1e-15):
            raise ValueError("kernel entries must be non-negative")
        object.__setattr__(self, "exo_kernel", kernel)


@dataclass
class DpTables:
    """Exact value and greedy-action tables, indexed [period-1, endo, exo]."""

    model: TabularMdp
    values: np.ndarray   # (T, nE, nX)
    greedy: np.ndarray   # (T, nE, nX) action row index

    def value(self, t: int, endo_idx: int, exo_idx: int) -> float:
        return float(self.values[t - 1, endo_idx, exo_idx])

    def to_csv_rows(self) -> list:
        header = ["period", "endo_index", "exo_index", "value", "greedy_action"]
        rows = [header]
        T, nE, nX = self.values.shape
        for t in range(T):
            for e in range(nE):
                for x in range(nX):
                    act = self.model.endo_levels[self.greedy[t, e, x]]
                    rows.append([
                        t + 1, e, x, repr(float(self.values[t, e, x])),
                        " ".join(str(int(v)) for v in np.atleast_1d(act)),
                    ])
        return rows


def exact_dp(model: TabularMdp, max_states: int = 1_000_000) -> DpTables:
    """Exact backward induction over the finite lattice.

    Expectations are finite sums over the exogenous kernel; the terminal
    table is the pointwise reward maximum.  Refuses lattices with more than
    ``max_states`` states per period.
    """
    nE = len(model.endo_levels)
    nX = len(model.exo_levels)
    if nE * nX > max_states:
        raise DpSizeError(
            f"lattice has {nE * nX} states per period, above the limit "
            f"{max_states}; backward induction cost grows as "
            "O(|states|^2 x |actions| x horizon)"
        )
    T = model.horizon
    values = np.empty((T, nE, nX))
    greedy = np.empty((T, nE, nX), dtype=np.int64)

    for t in range(T, 0, -1):
        reward_t = np.asarray(model.reward(t), dtype=float)
        if reward_t.shape != (nE, nX, nE):
            raise ValueError(f"period-{t} reward table has shape {reward_t.shape}, "
                             f"expected {(nE, nX, nE)}")
        if t == T:
            q = reward_t
        else:
            # continuation[a, x] = sum_x' kernel[x, x'] * V_{t+1}[a, x']
            continuation = values[t] @ model.exo_kernel.T
            # broadcast as q[e, x, a] += discount * continuation[a, x]
            q = reward_t + model.discount * continuation.T[None, :, :]
        greedy[t - 1] = np.argmax(q, axis=2)
        values[t - 1] = np.take_along_axis(
            q, greedy[t - 1][:, :, None], axis=2
        )[:, :, 0]
    return DpTables(model=model, values=values, greedy=greedy)
