"""Multi-facility capacity investment benchmark.

Facilities serve customer demand through a per-period allocation LP; at the
end of each period the installed capacity can be expanded or contracted at
linear cost, with unit salvage value never above unit expansion cost.  The
problem is exposed three ways: as an affine-transition MDP for the fitted
value iteration driver, as a finite tabular model for the exact DP oracle,
and as Monte-Carlo rollouts for out-of-sample policy evaluation.  A
two-stage "inflexible" baseline fixes one capacity plan for the whole
horizon and is chosen by scoring every plan on the capacity lattice.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bnb import solve_milp  # unused here; kept at this name, which perfbench traces
from .fvi import FviConfig, TabularMdp, greedy_policy, run_nnfvi
from .mcd import StageReward
from .mdp import ActionBox, MdpSpec, as_integers, enumerate_actions
from .simplex import LEQ, LpProblem, solve_lp


@dataclass(frozen=True)
class DemandModel:
    """Finite Markov demand: joint support rows and a row-stochastic kernel."""

    support: np.ndarray  # (M, I) demand vectors
    kernel: np.ndarray   # (M, M)
    kind: str = "markov-lattice"

    def __post_init__(self):
        support = np.atleast_2d(np.asarray(self.support, dtype=float))
        kernel = np.asarray(self.kernel, dtype=float)
        if np.any(support < 0):
            raise ValueError("demand support must be non-negative")
        if not np.all(np.isfinite(support)):
            raise ValueError("demand support must be bounded")
        m = support.shape[0]
        if kernel.shape != (m, m):
            raise ValueError("kernel shape must match the support size")
        if np.any(kernel < -1e-15):
            raise ValueError("kernel entries must be non-negative")
        if np.any(np.abs(kernel.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("kernel rows must sum to one")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "kernel", kernel)

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def max_demand(self) -> np.ndarray:
        return self.support.max(axis=0)

    def index_of(self, d: np.ndarray) -> int:
        """Index of the first support row equal to ``d``; refuses any other."""
        d = np.asarray(d, dtype=float)
        rows = np.flatnonzero((self.support == d).all(axis=1))
        if rows.size == 0:
            raise ValueError(f"demand {d.tolist()} is not a row of the demand support")
        return int(rows[0])

    def next_index(self, idx: int | np.ndarray,
                   u: float | np.ndarray) -> int | np.ndarray:
        """Inverse-CDF transition from row ``idx``, per uniform draw in ``u``.

        ``idx`` is one row for every draw, or an array of rows paired with
        the draws of ``u`` elementwise.  The next row is the first whose
        cumulative probability exceeds the draw.  A row may sum to slightly
        less than one; draws above its last cumulative value land on the
        last row.
        """
        cdf = np.cumsum(self.kernel[idx], axis=-1)
        steps = np.sum(cdf <= np.asarray(u)[..., None], axis=-1)
        return np.minimum(steps, self.size - 1)


def iid_uniform_demand(support: np.ndarray) -> DemandModel:
    """Each period's demand is an independent uniform draw over the rows."""
    support = np.atleast_2d(np.asarray(support, dtype=float))
    m = support.shape[0]
    return DemandModel(support=support, kernel=np.full((m, m), 1.0 / m),
                       kind="iid-discrete")


def random_walk_demand(support: np.ndarray, p_down: float = 0.3,
                       p_up: float = 0.3) -> DemandModel:
    """Reflected random walk over the ordered support rows."""
    support = np.atleast_2d(np.asarray(support, dtype=float))
    m = support.shape[0]
    if not 0 <= p_down + p_up <= 1:
        raise ValueError("step probabilities must sum to at most one")
    kernel = np.zeros((m, m))
    p_stay = 1.0 - p_down - p_up
    for i in range(m):
        down = max(i - 1, 0)
        up = min(i + 1, m - 1)
        kernel[i, down] += p_down
        kernel[i, up] += p_up
        kernel[i, i] += p_stay
    return DemandModel(support=support, kernel=kernel, kind="markov-lattice")


@dataclass(frozen=True)
class CapacityState:
    """Installed capacity carried into the period plus the realized demand."""

    capacity: np.ndarray
    demand: np.ndarray


@dataclass
class McipInstance:
    """Problem data; arrays are period-major with period index ``t - 1``.

    ``_profits`` memoises the allocation profit per ``(t, capacity,
    demand)`` for :func:`_profit`.  It lives as long as the instance; every
    copy (``with_parameters``, ``dataclasses.replace``, ``from_json_dict``)
    starts empty, and equality, ``repr`` and the JSON form leave it out.
    Change the data by making such a copy, never in place, or the memo
    goes stale.
    """

    customers: int
    facilities: int
    horizon: int
    discount: float
    revenues: np.ndarray          # (T, I, N) unit revenue
    penalties: np.ndarray         # (T, I) unit shortfall penalty
    expansion_costs: np.ndarray   # (T, N) unit expansion cost
    salvage_values: np.ndarray    # (T, N) unit salvage value
    initial_capacity: np.ndarray  # (N,)
    capacity_max: np.ndarray      # (N,) integer limits
    demand: DemandModel
    initial_demand: np.ndarray    # (I,)
    _profits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("customers", "facilities", "horizon"):
            setattr(self, name, int(as_integers(getattr(self, name), name)))
        I, N, T = self.customers, self.facilities, self.horizon
        self.revenues = np.asarray(self.revenues, dtype=float).reshape(T, I, N)
        self.penalties = np.asarray(self.penalties, dtype=float).reshape(T, I)
        self.expansion_costs = np.asarray(self.expansion_costs, dtype=float).reshape(T, N)
        self.salvage_values = np.asarray(self.salvage_values, dtype=float).reshape(T, N)
        self.initial_capacity = np.asarray(self.initial_capacity, dtype=float).ravel()
        self.capacity_max = as_integers(self.capacity_max, "capacity_max").ravel()
        self.initial_demand = np.asarray(self.initial_demand, dtype=float).ravel()
        if np.any(self.salvage_values > self.expansion_costs + 1e-12):
            raise ValueError("unit salvage value may not exceed unit expansion cost")
        if self.initial_capacity.shape != (N,) or self.capacity_max.shape != (N,):
            raise ValueError("capacity vectors must have one entry per facility")
        if np.any(self.initial_capacity < 0) or np.any(
                self.initial_capacity > self.capacity_max):
            raise ValueError("initial capacity must lie inside [0, capacity_max]")
        if self.demand.support.shape[1] != I:
            raise ValueError("demand support dimension must match the customer count")
        if self.initial_demand.shape != (I,):
            raise ValueError("initial demand must have one entry per customer")
        self.demand.index_of(self.initial_demand)  # refuses a vector off the support
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")

    def reward_bound(self) -> float:
        """Coarse uniform bound on |reward| from the cost and revenue limits."""
        d_max = self.demand.max_demand
        adj = float(np.sum(self.expansion_costs.max(axis=0) * self.capacity_max))
        margin = (self.revenues.max(axis=(0, 2)) + self.penalties.max(axis=0))
        return adj + float(margin @ d_max)

    def to_json_dict(self) -> dict:
        return {
            "customers": self.customers,
            "facilities": self.facilities,
            "horizon": self.horizon,
            "discount": self.discount,
            "revenues": self.revenues.tolist(),
            "penalties": self.penalties.tolist(),
            "expansion_costs": self.expansion_costs.tolist(),
            "salvage_values": self.salvage_values.tolist(),
            "initial_capacity": self.initial_capacity.tolist(),
            "capacity_max": self.capacity_max.tolist(),
            "initial_demand": self.initial_demand.tolist(),
            "demand": {
                "kind": self.demand.kind,
                "support": self.demand.support.tolist(),
                "kernel": self.demand.kernel.tolist(),
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(data: dict) -> "McipInstance":
        demand = DemandModel(
            support=np.asarray(data["demand"]["support"], dtype=float),
            kernel=np.asarray(data["demand"]["kernel"], dtype=float),
            kind=data["demand"].get("kind", "markov-lattice"),
        )
        return McipInstance(
            customers=data["customers"],
            facilities=data["facilities"],
            horizon=data["horizon"],
            discount=float(data["discount"]),
            revenues=np.asarray(data["revenues"], dtype=float),
            penalties=np.asarray(data["penalties"], dtype=float),
            expansion_costs=np.asarray(data["expansion_costs"], dtype=float),
            salvage_values=np.asarray(data["salvage_values"], dtype=float),
            initial_capacity=np.asarray(data["initial_capacity"], dtype=float),
            capacity_max=data["capacity_max"],
            demand=demand,
            initial_demand=np.asarray(data["initial_demand"], dtype=float),
        )

    @staticmethod
    def loads(text: str) -> "McipInstance":
        return McipInstance.from_json_dict(json.loads(text))


def synthetic_instance(customers: int = 2, facilities: int = 2, horizon: int = 3,
                       seed: int = 0, capacity_max: int = 3,
                       demand_points: int = 3, markov: bool = True,
                       salvage_ratio: float = 0.5) -> McipInstance:
    """Seeded synthetic instance family used by tests and benchmarks."""
    rng = np.random.default_rng(seed)
    I, N, T = customers, facilities, horizon
    revenues = rng.uniform(4.0, 8.0, size=(T, I, N))
    penalties = rng.uniform(1.0, 3.0, size=(T, I))
    expansion = rng.uniform(2.0, 5.0, size=(T, N))
    salvage = salvage_ratio * expansion
    cap_max = np.full(N, capacity_max)  # McipInstance refuses a fractional limit

    # increasing joint demand levels so the walk ordering is meaningful
    base = rng.uniform(1.0, 2.0, size=I)
    levels = np.stack([
        np.round(base * (k + 1), 1) for k in range(demand_points)
    ])
    demand = (random_walk_demand(levels) if markov else iid_uniform_demand(levels))
    return McipInstance(
        customers=I, facilities=N, horizon=T,
        discount=0.9,
        revenues=revenues, penalties=penalties,
        expansion_costs=expansion, salvage_values=salvage,
        initial_capacity=np.zeros(N), capacity_max=cap_max,
        demand=demand,
        initial_demand=levels[demand_points // 2],
    )


def operating_profit(instance: McipInstance, t: int, capacity: np.ndarray,
                     demand: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal one-period allocation profit and the allocation itself.

    Solves the revenue-minus-penalty LP given installed capacity and realized
    demand; capacity may be fractional (the extended-value domain).  The LP
    always admits the zero allocation, so a non-optimal status is a solver
    defect rather than a model state.
    """
    I, N = instance.customers, instance.facilities
    capacity = np.asarray(capacity, dtype=float)
    demand = np.asarray(demand, dtype=float)
    margin = (instance.revenues[t - 1] + instance.penalties[t - 1][:, None]).ravel()

    # z is laid out customer-major: one capacity row per facility, then one
    # demand row per customer
    A = np.vstack([np.tile(np.eye(N), I), np.kron(np.eye(I), np.ones(N))])

    lp = LpProblem(
        c=margin, A=A, b=np.concatenate([capacity, demand]),
        senses=[LEQ] * (I + N),
        lower=np.zeros(I * N), upper=np.full(I * N, np.inf),
        maximize=True,
    )
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(
            f"allocation LP reported {sol.status}; it must always be feasible"
        )
    value = sol.objective - float(instance.penalties[t - 1] @ demand)
    return value, sol.x.reshape(I, N)


def _profit(instance: McipInstance, t: int, capacity: np.ndarray,
            demand: np.ndarray) -> float:
    """``operating_profit(instance, t, capacity, demand)[0]``, solved once
    per instance and exact key: the key holds the arrays' bytes, so a value
    read back is the value solved, bit for bit."""
    capacity = np.asarray(capacity, dtype=float)
    demand = np.asarray(demand, dtype=float)
    key = (t, capacity.tobytes(), demand.tobytes())
    value = instance._profits.get(key)
    if value is None:
        value = instance._profits[key] = operating_profit(instance, t, capacity,
                                                          demand)[0]
    return value


def adjustment_cost(instance: McipInstance, t: int, capacity_from: np.ndarray,
                    capacity_to: np.ndarray) -> float | np.ndarray:
    """Cost of moving capacity: expansion paid, contraction recovered.  Leading
    axes broadcast to one cost per pair; two vectors give a Python float."""
    delta = np.asarray(capacity_to, dtype=float) - np.asarray(capacity_from, dtype=float)
    q_minus = instance.salvage_values[t - 1]
    q_plus = instance.expansion_costs[t - 1]
    cost = np.maximum(q_minus * delta, q_plus * delta).sum(axis=-1)
    return cost if cost.ndim else float(cost)


def mcip_reward(instance: McipInstance, t: int, state: CapacityState,
                action: np.ndarray) -> float:
    """Stage reward: allocation profit minus the capacity-adjustment charge.

    In the final period all capacity is salvaged, so the nominal action is
    overridden by the zero vector.
    """
    target = np.zeros(instance.facilities) if t == instance.horizon \
        else np.asarray(action, dtype=float)
    profit = _profit(instance, t, state.capacity, state.demand)
    return profit - adjustment_cost(instance, t, state.capacity, target)


def build_mcip_mdp(instance: McipInstance) -> MdpSpec:
    """Affine-transition MDP view: the action overwrites the capacity block.

    The state is ``(capacity, demand)``.  A noise is one uniform, stratified
    across the batch; the affine offset carries the demand row it selects
    from the current row's kernel, and the linear part is the identity on
    capacity rows and zero on demand rows.  State sampling is uniform over
    the actual finite state space (integer capacity lattice times demand
    rows): transitions only ever land on integer capacities, so that is
    where the fit has to be good.  It decodes flat indices in C order
    (``enumerate_actions``' order, demand row last) and builds no lattice.
    The stage reward is the allocation profit as a constant plus the
    capacity-adjustment charge as two pieces per facility.
    """
    I, N = instance.customers, instance.facilities
    n1 = N + I
    demand = instance.demand
    linear = np.vstack([np.eye(N), np.zeros((I, N))])

    def transition(x, us):
        offsets = np.zeros((len(us), n1))
        offsets[:, N:] = demand.support[demand.next_index(demand.index_of(x[N:]), us)]
        return offsets, np.broadcast_to(linear, (len(us), n1, N))

    box = ActionBox(instance.capacity_max)
    shape = (*(box.upper_bounds + 1), demand.size)
    L = box.count() * demand.size

    def state_sampler(rng, count):
        # covering design over the finite state space: full sweeps plus a
        # uniformly chosen remainder; unsampled states would otherwise leave
        # the regression free to extrapolate arbitrarily there
        full, rem = divmod(count, L)
        rows = np.concatenate([np.arange(full * L) % L,
                               rng.choice(L, size=rem, replace=False)])
        rng.shuffle(rows)
        *capacity, row = np.unravel_index(rows, shape)
        return np.column_stack([*capacity, demand.support[row]])

    def stage_reward(t, x):
        capacity = np.asarray(x[:N], dtype=float)
        profit = _profit(instance, t, capacity, x[N:])
        if t == instance.horizon:
            # all capacity is salvaged, whatever the action
            constant = profit - adjustment_cost(instance, t, capacity, np.zeros(N))
            return StageReward(constant=constant, pieces=[[] for _ in range(N)])
        # -max(q_minus (a - K), q_plus (a - K)) is the minimum of two pieces
        q_minus = instance.salvage_values[t - 1]
        q_plus = instance.expansion_costs[t - 1]
        pieces = [[(-q_minus[n], q_minus[n] * capacity[n]),
                   (-q_plus[n], q_plus[n] * capacity[n])] for n in range(N)]
        return StageReward(constant=profit, pieces=pieces)

    def draw_noises(rng, count):
        # stratified uniforms: the batch average is still unbiased, but the
        # realized demand-row frequencies track the kernel row much closer
        us = (np.arange(count) + rng.uniform(size=count)) / count
        return rng.permutation(us)

    return MdpSpec(
        horizon=instance.horizon,
        discount=instance.discount,
        state_dim=n1,
        action_box=box,
        draw_noises=draw_noises,
        transition=transition,
        stage_reward=stage_reward,
        state_sampler=state_sampler,
        initial_state=np.concatenate([instance.initial_capacity,
                                      instance.initial_demand]),
    )


def _profit_table(instance: McipInstance, t: int) -> np.ndarray:
    """Period ``t``'s allocation profit, one row per capacity level in
    ``enumerate_actions`` order and one column per demand support row."""
    levels = enumerate_actions(ActionBox(instance.capacity_max)).astype(float)
    return np.array([[_profit(instance, t, cap, d)
                      for d in instance.demand.support] for cap in levels])


def dp_model(instance: McipInstance) -> TabularMdp:
    """Finite tabular view for the exact-DP oracle.

    A period's table reads one allocation profit per (capacity, demand)
    pair from the instance's memo and subtracts the adjustment costs of all
    (capacity, target) pairs, one broadcast call, broadcast over demand.
    """
    capacity_levels = enumerate_actions(ActionBox(instance.capacity_max))
    levels = capacity_levels.astype(float)

    def reward(t: int) -> np.ndarray:
        profit = _profit_table(instance, t)
        targets = np.zeros_like(levels) if t == instance.horizon else levels
        cost = adjustment_cost(instance, t, levels[:, None], targets[None])
        return profit[:, :, None] - cost[:, None, :]

    return TabularMdp(
        horizon=instance.horizon,
        discount=instance.discount,
        endo_levels=capacity_levels,
        exo_levels=instance.demand.support,
        exo_kernel=instance.demand.kernel,
        reward=reward,
    )


@dataclass
class SimulationResult:
    mean: float
    std_error: float
    npvs: np.ndarray


def draw_demand_paths(instance: McipInstance, n_paths: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Demand index paths of length ``horizon`` starting at the known demand.

    One call draws every uniform, path after path, and all paths step
    together; path ``p`` gets the same draws as sampling the paths one at a
    time would give it.
    """
    u = rng.uniform(size=(n_paths, instance.horizon - 1))
    paths = np.empty((n_paths, instance.horizon), dtype=np.int64)
    paths[:, 0] = instance.demand.index_of(instance.initial_demand)
    for t in range(1, instance.horizon):
        paths[:, t] = instance.demand.next_index(paths[:, t - 1], u[:, t - 1])
    return paths


def simulate_policy_on_paths(instance: McipInstance, policy: Callable,
                             paths: np.ndarray) -> SimulationResult:
    """Discounted rollout of ``policy`` along pre-drawn demand paths.

    All paths advance together, one period at a time.  The policy's action
    must be a function of ``(t, x)`` alone: it is called once per distinct
    state per period (never at the horizon, where everything is salvaged),
    and paths sharing a state share its action and stage reward.  Reusing
    one path set across policies gives common-random-number comparisons.
    """
    n_paths, T = paths.shape
    if T != instance.horizon:
        raise ValueError("path length must equal the horizon")
    N = instance.facilities
    npvs = np.zeros(n_paths)
    capacity = np.tile(instance.initial_capacity.astype(float), (n_paths, 1))
    for t in range(1, T + 1):
        keys = np.column_stack([capacity, paths[:, t - 1]])
        states, rows = np.unique(keys, axis=0, return_inverse=True)
        rows = rows.reshape(-1)  # numpy 2.0.0 returns the inverse 2-D
        actions = np.zeros((len(states), N))
        rewards = np.empty(len(states))
        for k, key in enumerate(states):
            demand = instance.demand.support[int(key[N])]
            if t < T:
                actions[k] = policy(t, np.concatenate([key[:N], demand]))
            rewards[k] = mcip_reward(instance, t, CapacityState(key[:N], demand),
                                     actions[k])
        npvs += instance.discount ** (t - 1) * rewards[rows]
        capacity = actions[rows]
    se = float(npvs.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return SimulationResult(mean=float(npvs.mean()), std_error=se, npvs=npvs)


def constant_capacity_policy(instance: McipInstance,
                             plan: np.ndarray) -> Callable:
    """Hold ``plan`` every period; the terminal period salvages everything."""
    plan = np.asarray(plan, dtype=float)

    def policy(t: int, x: np.ndarray) -> np.ndarray:
        if t == instance.horizon:
            return np.zeros(instance.facilities)
        return plan.copy()

    return policy


def inflexible_two_stage(instance: McipInstance,
                         scenario_paths: np.ndarray) -> tuple[np.ndarray, float]:
    """Single capacity plan maximizing the scenario-averaged discounted value.

    The plan is installed at the end of period 1, held through period T-1,
    and salvaged at T; allocations keep full recourse.  Every plan on the
    capacity lattice is scored from one allocation-profit table per later
    period, (T-1)·|lattice|·M lookups in the instance's memo for M demand
    rows, which solve only the LPs that the instance has not solved yet
    (after ``run_nnfvi`` on it, often none), less one broadcast call's
    adjustment costs.  A deterministic-equivalent MILP scales no better,
    its columns growing with scenarios × periods × I × N.  Returns the
    first best plan in ``enumerate_actions`` order and its in-sample value.
    """
    T, K0 = instance.horizon, instance.initial_capacity
    plans = enumerate_actions(ActionBox(instance.capacity_max))
    # capacity after each period's adjustment: the plan, all salvaged at T
    held = [plans] * (T - 1) + [np.zeros_like(plans)]
    # period 1 is read at K0 itself, which may lie off the lattice
    values = (_profit(instance, 1, K0, instance.initial_demand)
              - adjustment_cost(instance, 1, K0, held[0]))
    for t in range(2, T + 1):
        profit = _profit_table(instance, t)[:, scenario_paths[:, t - 1]].mean(axis=1)
        cost = adjustment_cost(instance, t, plans, held[t - 1])
        values += instance.discount ** (t - 1) * (profit - cost)
    best = int(np.argmax(values))
    return plans[best], float(values[best])


@dataclass
class SweepCell:
    gamma: float
    ratio: float
    inflexible_enpv: float
    inflexible_se: float
    flexible_enpv: float
    flexible_se: float

    @property
    def value_of_flexibility(self) -> float:
        return self.flexible_enpv - self.inflexible_enpv

    @property
    def improvement_pct(self) -> float:
        denom = max(abs(self.inflexible_enpv), 1e-9)
        return 100.0 * self.value_of_flexibility / denom


def with_parameters(instance: McipInstance, gamma: Optional[float] = None,
                    salvage_ratio: Optional[float] = None) -> McipInstance:
    """Copy of the instance with a new discount and/or salvage-to-cost ratio."""
    updates: dict = {}
    if gamma is not None:
        updates["discount"] = gamma
    if salvage_ratio is not None:
        if not 0.0 <= salvage_ratio <= 1.0:
            raise ValueError("salvage ratio must lie in [0, 1]")
        updates["salvage_values"] = salvage_ratio * instance.expansion_costs
    return dataclasses.replace(instance, **updates)


def sensitivity_sweep(instance: McipInstance, gammas: Sequence[float],
                      ratios: Sequence[float], fvi_config: FviConfig,
                      n_paths: int = 1000, n_scenarios: int = 30,
                      seed: int = 0) -> list[SweepCell]:
    """Flexible-vs-inflexible comparison over a (discount, ratio) grid.

    Within each cell the two designs are evaluated on one shared set of
    out-of-sample demand paths; the in-sample scenario set for the
    inflexible design is drawn separately.
    """
    cells = []
    for gamma in gammas:
        for ratio in ratios:
            inst = with_parameters(instance, gamma=gamma, salvage_ratio=ratio)
            spec = build_mcip_mdp(inst)
            fitted, _ = run_nnfvi(spec, fvi_config)
            policy = greedy_policy(spec, fitted.nets, fvi_config.mcd,
                                   fvi_config.transition_samples,
                                   seed=fvi_config.seed + 1)
            eval_paths = draw_demand_paths(
                inst, n_paths, np.random.default_rng(seed))
            flexible = simulate_policy_on_paths(inst, policy, eval_paths)

            scen = draw_demand_paths(
                inst, n_scenarios, np.random.default_rng(seed + 10_000))
            plan, _ = inflexible_two_stage(inst, scen)
            inflexible = simulate_policy_on_paths(
                inst, constant_capacity_policy(inst, plan), eval_paths)

            cells.append(SweepCell(
                gamma=float(gamma), ratio=float(ratio),
                inflexible_enpv=inflexible.mean,
                inflexible_se=inflexible.std_error,
                flexible_enpv=flexible.mean,
                flexible_se=flexible.std_error,
            ))
    return cells
