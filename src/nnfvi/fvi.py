"""Fitted value iteration driver and the exact tabular-DP oracle.

The driver sweeps backward over periods: sample states, compute one-step
lookahead targets through the previously fitted network, regress a fresh
network on the targets, and finally evaluate the known initial state.  All
randomness is derived from one master seed through named substreams, so a
run is bit-for-bit reproducible for a fixed BLAS thread count.  Another
thread count may round numpy's BLAS calls differently and so move the
result, so ``perfbench/run.py`` pins one thread.  (On a 2-core host,
perfbench's criterion-4 run returns 27.721914566172394 with one OpenBLAS
thread and with two.)

The DP oracle performs exact backward induction for problems whose state
splits into an endogenous lattice (written directly by the action) and an
exogenous finite Markov chain, which covers the capacity-investment
benchmark and any synthetic instance shaped the same way.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .cuts import RecourseContext, transition_data
from .mcd import McdConfig, SelectionResult, StageReward, select_action
from .mdp import MdpSpec, as_integers, sample_states
from .neural import RegressionSet, ReluNet, TrainConfig, fit, loss

# substream tags for SeedSequence-derived generators
_STATES, _NOISE, _FIT = 0, 1, 2

DP_MAX_STATES = 1_000_000  # states per period that exact_dp solves before refusing


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
        for name in ("state_samples", "transition_samples", "neurons"):
            object.__setattr__(self, name, int(as_integers(getattr(self, name), name)))
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


@dataclass(frozen=True)
class PeriodWork:
    """What :func:`run_nnfvi` did in one period: the states it sampled, how
    many of them are distinct, the stage rewards it built, the selections it
    made (one per distinct decision problem, a state and a multiset of
    transitions; none at the horizon), the recourses those problems shared
    (one per distinct multiset of transitions, :func:`_decide`), the
    selections' totals of iterations, B&B nodes, LP pivots and fallbacks to
    brute force, and the training restarts its fit discarded (none in period
    1, which fits no network)."""

    sampled: int
    distinct: int
    rewards: int
    selections: int
    recourses: int
    iterations: int
    milp_nodes: int
    lp_pivots: int
    fallbacks: int
    restarts_discarded: int

    @staticmethod
    def of(sampled: int, distinct: int, rewards: int, results: list,
           recourses: int, restarts_discarded: int) -> "PeriodWork":
        """The work of a period whose selections returned ``results``."""
        return PeriodWork(sampled=sampled, distinct=distinct, rewards=rewards,
                          selections=len(results), recourses=recourses,
                          iterations=sum(r.iterations for r in results),
                          milp_nodes=sum(r.milp_nodes for r in results),
                          lp_pivots=sum(r.lp_pivots for r in results),
                          fallbacks=sum(r.fell_back for r in results),
                          restarts_discarded=restarts_discarded)


@dataclass(frozen=True)
class PeriodTime:
    """Wall-clock seconds :func:`run_nnfvi` spent in one period on the
    Bellman targets (the state sample, stage rewards and selections) and on
    the network fit, which period 1 does not make (0.0)."""

    targets: float
    fit: float


@dataclass
class FittedValueSet:
    """Fitted networks for periods 2..T plus the returned initial value.

    ``work`` holds each period's :class:`PeriodWork` and ``timings`` its
    :class:`PeriodTime`; both are left out of the JSON form and of
    comparisons.
    """

    nets: dict                    # period -> ReluNet
    value_estimate: float
    training_losses: dict         # period -> final regression loss
    config: dict                  # config snapshot for provenance
    work: dict = field(default_factory=dict, compare=False)  # period -> PeriodWork
    timings: dict = field(default_factory=dict, compare=False)  # period -> PeriodTime

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


def _with_terminal(spec: MdpSpec, nets: dict) -> dict:
    """``nets`` plus the zero network at period ``T+1``, the continuation at
    the horizon."""
    zero = ReluNet(np.zeros((1, spec.state_dim)), np.zeros(1), np.zeros(1), 0.0)
    return {**nets, spec.horizon + 1: zero}


class _Batch(NamedTuple):
    """A noise batch at one state in canonical order (:func:`_canonical`)."""

    noises: np.ndarray
    transitions: tuple  # (offsets, linears) of the noises, in their order
    key: bytes          # the sorted transition rows: the key of their multiset


def _canonical(spec: MdpSpec, x: np.ndarray, noises: np.ndarray) -> _Batch:
    """``noises`` at ``x`` in canonical order: the order that sorts each
    draw's transition row, offsets first, then linears.

    Row ``s`` of the transition depends on draw ``s`` alone (:class:`MdpSpec`),
    so two batches with one multiset of transition rows have the same sorted
    rows, and a selection on them is the same bit for bit.  The recourse is
    a batch average, so the order changes nothing mathematically.
    """
    noises = np.asarray(noises)
    offsets, linears = transition_data(spec, np.asarray(x, dtype=float), noises)
    rows = np.concatenate([offsets, linears.reshape(len(noises), -1)], axis=1)
    order = np.lexsort(rows.T[::-1])  # lexsort's last key is the primary one
    return _Batch(noises[order], (offsets[order], linears[order]),
                  rows[order].tobytes())


def _decide(spec: MdpSpec, nets: dict, t: int, x: np.ndarray,
            noises: np.ndarray | _Batch, reward: StageReward,
            config: McdConfig, groups: Optional[dict] = None) -> SelectionResult:
    """Best action at ``(t, x)``, whose stage reward is ``reward``, against
    the period ``t+1`` network.

    ``nets`` holds the zero network at ``T+1`` (:func:`_with_terminal`).
    The continuation network is averaged over the noise batch ``noises`` in
    canonical order, whose draws are shared across candidate actions.
    ``noises`` is a batch of draws, or a :class:`_Batch` that
    :func:`_canonical` has put in that order already.

    The recourse depends on ``x`` only through the sorted transition rows.
    With ``groups``, a dict the caller keeps, the decision problems with one
    ``t`` and one multiset of transition rows form a group: the first builds
    a context with a memo, kept in ``groups``, and each later one gets its
    own sibling of it (:meth:`RecourseContext.sibling`), which shares its
    forms and memo, so the engines compute what depends on the recourse
    alone once per group (:mod:`nnfvi.mcd`).  Without ``groups`` the
    context has no memo.
    """
    if (t + 1) not in nets:
        raise ValueError(f"no fitted network for period {t + 1}")
    batch = noises if isinstance(noises, _Batch) else _canonical(spec, x, noises)
    first = None if groups is None else groups.get((t, batch.key))
    if first is not None:
        ctx = first.sibling(x, batch.noises)
    else:
        ctx = RecourseContext(nets[t + 1], spec, x, batch.noises,
                              transitions=batch.transitions,
                              memo=None if groups is None else {})
        if groups is not None:
            groups[t, batch.key] = ctx
    return select_action(ctx, reward, config)


def bellman_target(spec: MdpSpec, nets: dict, t: int, x: np.ndarray,
                   noises: np.ndarray, config: McdConfig) -> float:
    """One-step lookahead value at ``(t, x)`` under the chosen engine."""
    return _decide(spec, _with_terminal(spec, nets), t, x, noises,
                   spec.stage_reward(t, x), config).objective


def run_nnfvi(spec: MdpSpec, config: FviConfig) -> tuple[FittedValueSet, float]:
    """Backward fitted value iteration; returns the fits and the initial value.

    Periods T down to 2 each get a fresh state sample, Monte-Carlo lookahead
    targets, and a network fit; period 1 is evaluated directly at the known
    initial state with its own noise draws.

    Sampled states repeat on a finite state space.  The stage reward depends
    on ``(t, x)`` alone, so it is built once per distinct state, from the
    state's first sample.  Before the horizon each sample draws its own
    noises, and a selection on them in canonical order (:func:`_canonical`)
    is a function of the state and the multiset of transition rows alone.
    So the driver selects once per distinct decision problem, keyed on the
    distinct state and the sorted rows: the first sample with a key makes
    the selection and every sample with that key takes its objective, which
    is what a selection per sample returns.  The problems of a period with
    one multiset of transition rows share one recourse (:func:`_decide`'s
    groups), whose count the period's :class:`PeriodWork` holds as
    ``recourses``.  At the horizon the continuation
    is zero, so a state's target is its stage reward's maximum over the
    integer action box (:meth:`StageReward.box_bound` with no gain), which
    is ``brute``'s objective bit for bit, taken once per distinct state with
    no selection and no noise drawn.  Each sample's noises come from its own
    substream, so a draw skipped moves no other draw.  The fit (:func:`fit`)
    groups equal states itself; the restarts it discards are counted in the
    period's :class:`PeriodWork`, whose ``selections`` counts distinct
    decision problems.
    """
    if spec.initial_state is None:
        raise ValueError("the MDP needs an initial_state for the final evaluation")
    T = spec.horizon
    s1, s2 = config.state_samples, config.transition_samples
    nets = _with_terminal(spec, {})
    losses: dict = {}
    work: dict = {}
    timings: dict = {}

    def draw(t, sample):
        return spec.draw_noises(_substream(config.seed, t, sample, _NOISE), s2)

    for t in range(T, 1, -1):
        start = time.perf_counter()
        state_rng = _substream(config.seed, t, 0, _STATES)
        states = sample_states(spec, s1, state_rng)
        _, first, group = np.unique(states, axis=0, return_index=True,
                                    return_inverse=True)
        group = group.reshape(-1)  # numpy 2.0.0 returns the inverse 2-D
        rewards = [spec.stage_reward(t, states[s]) for s in first]
        groups: dict = {}  # (t, transition rows) -> the group's first context
        if t == T:
            results = []
            top = spec.action_box.upper_bounds
            targets = np.array([r.box_bound(top)() for r in rewards])[group]
        else:
            chosen: dict = {}  # (distinct state, transition rows) -> selection
            targets = np.empty(s1)
            for s, x in enumerate(states):
                batch = _canonical(spec, x, draw(t, s + 1))
                key = (group[s], batch.key)
                if key not in chosen:
                    chosen[key] = _decide(spec, nets, t, x, batch, rewards[group[s]],
                                          config.mcd, groups)
                targets[s] = chosen[key].objective
            results = list(chosen.values())
        data = RegressionSet(states, targets)
        fit_start = time.perf_counter()
        discarded: list = []
        try:
            net = fit(data, config.neurons, config.train,
                      _substream(config.seed, t, 0, _FIT), discarded=discarded)
        except Exception as err:
            raise RuntimeError(f"network training failed at period {t}") from err
        work[t] = PeriodWork.of(s1, len(first), len(rewards), results, len(groups),
                                len(discarded))
        timings[t] = PeriodTime(targets=fit_start - start,
                                fit=time.perf_counter() - fit_start)
        nets[t] = net
        losses[t] = loss(net, data, config.train.regularization)

    x1 = spec.initial_state
    start = time.perf_counter()
    groups = {}
    initial = _decide(spec, nets, 1, x1, draw(1, 0), spec.stage_reward(1, x1),
                      config.mcd, groups)
    timings[1] = PeriodTime(targets=time.perf_counter() - start, fit=0.0)
    v_hat = initial.objective
    work[1] = PeriodWork.of(1, 1, 1, [initial], len(groups), 0)
    del nets[T + 1]  # the zero network is no fit

    fitted = FittedValueSet(
        nets=nets,
        value_estimate=v_hat,
        training_losses=losses,
        config=config.to_json_dict(),
        work=work,
        timings=timings,
    )
    return fitted, v_hat


def greedy_policy(spec: MdpSpec, nets: dict, config: McdConfig,
                  transition_samples: int, seed: int) -> Callable:
    """One-step greedy policy induced by the fitted networks.

    The lookahead noise for each period is drawn up front from the policy's
    own seed, so a decision is a function of ``(t, x)`` alone and
    alternatives at the same period share draws.  Decisions are made by the
    same code as :func:`bellman_target`, grouped for the life of the policy
    on ``t`` and the transition rows (:func:`_decide`), so states whose
    draws lead to one multiset of next states share one recourse.
    """
    noises = {t: spec.draw_noises(_substream(seed, t, 0, _NOISE), transition_samples)
              for t in range(1, spec.horizon + 1)}
    nets = _with_terminal(spec, nets)
    groups: dict = {}

    def policy(t: int, x: np.ndarray) -> np.ndarray:
        return _decide(spec, nets, t, x, noises[t], spec.stage_reward(t, x),
                       config, groups).action

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


def exact_dp(model: TabularMdp) -> DpTables:
    """Exact backward induction over the finite lattice.

    Expectations are finite sums over the exogenous kernel; the terminal
    table is the pointwise reward maximum.  Refuses lattices with more than
    ``DP_MAX_STATES`` states per period.
    """
    nE = len(model.endo_levels)
    nX = len(model.exo_levels)
    if nE * nX > DP_MAX_STATES:
        raise DpSizeError(
            f"lattice has {nE * nX} states per period, above the limit "
            f"{DP_MAX_STATES}; backward induction cost grows as "
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
