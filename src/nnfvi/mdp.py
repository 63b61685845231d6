"""Finite-horizon MDP with affine-in-action transitions and an integer action box.

State transitions have the form ``f(x, a, xi) = A(x, xi) + B(x, xi) @ a`` with
the action ``a`` ranging over a box of non-negative integer vectors.  Every
other module consumes this abstraction: the cut machinery exploits the affine
structure, the fitted-value-iteration driver samples states from it, and the
capacity-investment benchmark instantiates it.  Disturbances are handled a
batch at a time: ``MdpSpec.draw_noises`` draws a batch and
``MdpSpec.transition`` returns ``A`` and ``B`` for every draw in it at once,
which is the unit the recourse averages over.  An MDP supplies its stage
reward once, as separable concave pieces (``MdpSpec.stage_reward``); brute
force and the first-stage MILPs evaluate the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from .mcd import StageReward

DEFAULT_ENUMERATION_CAP = 10_000_000


class InfeasibleActionError(ValueError):
    """Action outside the integer box; the message names the violated bound."""


class ActionSpaceTooLargeError(ValueError):
    """Exhaustive enumeration refused; use the decomposition engine instead."""


def as_integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; an integral float such as ``3.0`` is
    accepted, a non-integral one refused with ValueError, not truncated."""
    raw = np.asarray(values)
    ints = raw.astype(np.int64)
    if raw.dtype.kind == "f" and not np.array_equal(ints, raw):
        raise ValueError(f"{what} must be integral, got {raw.tolist()}")
    return ints


@dataclass(frozen=True)
class ActionBox:
    """Integer action box ``{a : 0 <= a_n <= upper_bounds[n], a integer}``."""

    upper_bounds: np.ndarray

    def __post_init__(self):
        ub = as_integers(self.upper_bounds, "upper_bounds")
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
        rounded = np.round(a)
        if not np.all(np.abs(a - rounded) <= 1e-9):
            raise InfeasibleActionError(f"action {a} is not integer-valued")
        a = rounded.astype(np.int64)
        outside = np.flatnonzero((a < 0) | (a > self.upper_bounds))
        if outside.size:
            n = outside[0]
            bound = ("below lower bound 0" if a[n] < 0
                     else f"above upper bound {self.upper_bounds[n]}")
            raise InfeasibleActionError(f"action component {n} is {a[n]}, {bound}")
        return a


@dataclass
class MdpSpec:
    """Problem data for a discounted finite-horizon MDP.

    Disturbances come in batches.  ``draw_noises(rng, count)`` returns an
    array whose first axis has length ``count``; a problem may stratify the
    batch, as long as the batch average stays an unbiased estimator of the
    single-draw expectation.  ``transition(x, noises)`` maps a state and a
    batch of ``S`` draws to the next-state data ``(offsets, linears)`` of
    shapes ``(S, state_dim)`` and ``(S, state_dim, action_box.dims)``: under
    draw ``s`` action ``a`` leads to ``offsets[s] + linears[s] @ a``, with no
    clamping.  ``stage_reward(t, x)`` returns the period-``t`` reward at
    state ``x`` as a piecewise-linear :class:`nnfvi.mcd.StageReward`, the one
    representation every action-selection engine reads.

    ``state_sampler(rng, count)`` returns ``count`` states as a ``(count,
    state_dim)`` array: the law :func:`sample_states` draws the
    value-iteration driver's regression states from.  ``initial_state`` is
    the known period-1 state used by the driver's final evaluation.
    """

    horizon: int
    discount: float
    state_dim: int
    action_box: ActionBox
    draw_noises: Callable[[np.random.Generator, int], np.ndarray]
    transition: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    stage_reward: Callable[[int, np.ndarray], StageReward]
    state_sampler: Callable[[np.random.Generator, int], np.ndarray]
    initial_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if self.initial_state is not None:
            self.initial_state = np.asarray(self.initial_state, dtype=float)


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
    """Draw ``count`` states from ``spec.state_sampler`` as a ``(count,
    state_dim)`` float array; a sampler returning another shape is refused."""
    if count < 1:
        raise ValueError("count must be >= 1")
    states = np.asarray(spec.state_sampler(rng, count), dtype=float)
    if states.shape != (count, spec.state_dim):
        raise ValueError(
            f"state_sampler returned shape {states.shape}, expected "
            f"({count}, {spec.state_dim})"
        )
    return states
