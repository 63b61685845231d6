"""Finite-horizon MDP with affine-in-action transitions and an integer action box.

State transitions have the form ``f(x, a, xi) = A(x, xi) + B(x, xi) @ a`` with
the action ``a`` ranging over a box of non-negative integer vectors.  Every
other module consumes this abstraction: the cut machinery exploits the affine
structure, the fitted-value-iteration driver samples states from it, and the
capacity-investment benchmark instantiates it.  An MDP supplies its stage
reward once, as separable concave pieces (``MdpSpec.stage_reward``); brute
force and the first-stage MILPs evaluate the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from .mcd import StageReward

DEFAULT_ENUMERATION_CAP = 10_000_000


class InfeasibleActionError(ValueError):
    """Action outside the integer box; the message names the violated bound."""


class ActionSpaceTooLargeError(ValueError):
    """Exhaustive enumeration refused; use the decomposition engine instead."""


@dataclass(frozen=True)
class ActionBox:
    """Integer action box ``{a : 0 <= a_n <= upper_bounds[n], a integer}``."""

    upper_bounds: np.ndarray

    def __post_init__(self):
        ub = np.asarray(self.upper_bounds, dtype=np.int64)
        if ub.ndim != 1 or ub.size == 0:
            raise ValueError("upper_bounds must be a non-empty vector")
        if np.any(ub < 0):
            raise ValueError("upper_bounds must be non-negative")
        object.__setattr__(self, "upper_bounds", ub)

    @property
    def dims(self) -> int:
        return int(self.upper_bounds.size)

    def count(self) -> int:
        """Number of feasible actions, prod(upper_bounds + 1)."""
        return int(np.prod(self.upper_bounds.astype(object) + 1))

    def check(self, a: np.ndarray) -> np.ndarray:
        """Validate and return ``a`` as an int vector, raising a diagnostic otherwise."""
        a = np.asarray(a)
        if a.shape != (self.dims,):
            raise InfeasibleActionError(
                f"action has shape {a.shape}, expected ({self.dims},)"
            )
        if not np.allclose(a, np.round(a), atol=1e-9):
            raise InfeasibleActionError(f"action {a} is not integer-valued")
        a = np.round(a).astype(np.int64)
        for n in range(self.dims):
            if a[n] < 0:
                raise InfeasibleActionError(
                    f"action component {n} is {a[n]}, below lower bound 0"
                )
            if a[n] > self.upper_bounds[n]:
                raise InfeasibleActionError(
                    f"action component {n} is {a[n]}, above upper bound "
                    f"{self.upper_bounds[n]}"
                )
        return a


@dataclass
class MdpSpec:
    """Problem data for a discounted finite-horizon MDP.

    ``transition_A(x, xi)`` returns the affine offset (length ``state_dim``) and
    ``transition_B(x, xi)`` the ``state_dim x action_box.dims`` linear part.
    ``stage_reward(t, x)`` returns the period-``t`` reward at state ``x`` as a
    piecewise-linear :class:`nnfvi.mcd.StageReward`, the one representation
    every action-selection engine reads.  ``noise_sampler(rng)`` draws one
    exogenous disturbance.

    ``state_sampler`` overrides the default uniform sampling distribution over
    ``state_bounds``.  ``initial_state`` is the known period-1 state used by
    the value-iteration driver's final evaluation.  ``noise_batch_sampler``
    (optional) draws a whole batch of disturbances at once so problems with
    low-dimensional noise can stratify the inner Monte-Carlo draws; the
    average over the batch must stay an unbiased estimator of the
    single-draw expectation.
    """

    horizon: int
    discount: float
    state_dim: int
    state_bounds: np.ndarray  # (state_dim, 2) closed intervals
    action_box: ActionBox
    noise_sampler: Callable[[np.random.Generator], Any]
    transition_A: Callable[[np.ndarray, Any], np.ndarray]
    transition_B: Callable[[np.ndarray, Any], np.ndarray]
    stage_reward: Callable[[int, np.ndarray], StageReward]
    initial_state: Optional[np.ndarray] = None
    state_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    noise_batch_sampler: Optional[Callable[[np.random.Generator, int], list]] = None

    def draw_noises(self, rng: np.random.Generator, count: int) -> list:
        """Batch of disturbances, stratified when the problem provides it."""
        if self.noise_batch_sampler is not None:
            return list(self.noise_batch_sampler(rng, count))
        return [self.noise_sampler(rng) for _ in range(count)]

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        bounds = np.asarray(self.state_bounds, dtype=float)
        if bounds.shape != (self.state_dim, 2):
            raise ValueError(
                f"state_bounds must have shape ({self.state_dim}, 2), got {bounds.shape}"
            )
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise ValueError("state_bounds lower limits exceed upper limits")
        self.state_bounds = bounds
        if self.initial_state is not None:
            self.initial_state = np.asarray(self.initial_state, dtype=float)


def affine_transition(spec: MdpSpec, x: np.ndarray, a: np.ndarray, xi: Any) -> np.ndarray:
    """Next state ``A(x, xi) + B(x, xi) @ a``, clamped into ``state_bounds``.

    Raises :class:`InfeasibleActionError` for actions outside the box.
    """
    a = spec.action_box.check(a)
    x = np.asarray(x, dtype=float)
    offset = np.asarray(spec.transition_A(x, xi), dtype=float)
    linear = np.asarray(spec.transition_B(x, xi), dtype=float)
    nxt = offset + linear @ a
    return np.clip(nxt, spec.state_bounds[:, 0], spec.state_bounds[:, 1])


def enumerate_actions(box: ActionBox, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """All feasible actions in lexicographic order as an ``(count, dims)`` int array."""
    total = box.count()
    if total > cap:
        raise ActionSpaceTooLargeError(
            f"action box holds {total} actions, above the enumeration cap {cap}; "
            "use the multi-cut decomposition engine instead of brute force"
        )
    grids = np.meshgrid(
        *[np.arange(ub + 1, dtype=np.int64) for ub in box.upper_bounds],
        indexing="ij",
    )
    return np.stack([g.ravel() for g in grids], axis=1)


def sample_states(spec: MdpSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. states as a ``(count, state_dim)`` array; uniform
    over ``state_bounds`` unless the spec overrides the sampler."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if spec.state_sampler is not None:
        states = np.asarray(spec.state_sampler(rng, count), dtype=float)
        if states.shape != (count, spec.state_dim):
            raise ValueError(
                f"state_sampler returned shape {states.shape}, expected "
                f"({count}, {spec.state_dim})"
            )
    else:
        lo = spec.state_bounds[:, 0]
        hi = spec.state_bounds[:, 1]
        states = rng.uniform(size=(count, spec.state_dim)) * (hi - lo) + lo
    return states
