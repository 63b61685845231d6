"""Linear over-estimators of the scenario-averaged ReLU recourse function.

For a fixed state and a batch of noise draws, each neuron's preactivation is
affine in the action: ``pre[s, j](a) = gamma1[s, j] @ a + gamma2[s, j]``.
All cut families are built from these cached affine forms:

* gradient cuts support the concave part (non-positive output weights) at an
  anchor action and stay above it everywhere;
* the positive-neuron cut bounds the convex part from above using the box
  extremes of each preactivation, independently of any anchor;
* integer optimality cuts are exact at their anchor and relax to a recourse
  upper bound elsewhere, expressed over a binary expansion of the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .mdp import ActionBox, MdpSpec
from .neural import ReluNet, split_neurons

_CHUNK = 20_000  # actions per block in recourse_values, bounding peak memory


@dataclass(frozen=True)
class LinearCut:
    """Inequality ``eta <= coef @ a + const`` over the action box."""

    coef: np.ndarray
    const: float

    def value(self, a: np.ndarray) -> float:
        return float(self.coef @ np.asarray(a, dtype=float) + self.const)

    def values(self, actions: np.ndarray) -> np.ndarray:
        return np.asarray(actions, dtype=float) @ self.coef + self.const

    def __add__(self, other: "LinearCut") -> "LinearCut":
        return LinearCut(self.coef + other.coef, self.const + other.const)


class RecourseContext:
    """Cached affine preactivation forms for one (state, noise batch) pair.

    ``gamma1[s, j]`` is the action-coefficient vector of neuron ``j`` under
    scenario ``s`` and ``gamma2[s, j]`` the constant part.
    """

    def __init__(self, net: ReluNet, spec: MdpSpec, x: np.ndarray,
                 noises: Sequence):
        if net.input_dim != spec.state_dim:
            raise ValueError(
                f"network expects {net.input_dim} inputs, state dimension is "
                f"{spec.state_dim}"
            )
        self.net = net
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.noises = list(noises)
        s2 = len(self.noises)
        if s2 == 0:
            raise ValueError("at least one noise draw is required")
        J = net.neuron_count
        n2 = spec.action_box.dims

        self.offsets = np.empty((s2, spec.state_dim))
        self.linears = np.empty((s2, spec.state_dim, n2))
        for s, xi in enumerate(self.noises):
            self.offsets[s] = np.asarray(spec.transition_A(self.x, xi), dtype=float)
            self.linears[s] = np.asarray(spec.transition_B(self.x, xi), dtype=float)

        u, u0 = net.input_weights, net.input_biases
        self.gamma1 = np.einsum("ji,sik->sjk", u, self.linears)  # (S2, J, N2)
        self.gamma2 = self.offsets @ u.T + u0                    # (S2, J)

        self.positive_neurons, self.rest_neurons = split_neurons(net)

    @property
    def s2(self) -> int:
        return len(self.noises)

    def preactivations(self, a: np.ndarray) -> np.ndarray:
        """Per-scenario, per-neuron preactivations at one action, shape (S2, J)."""
        return self.gamma1 @ np.asarray(a, dtype=float) + self.gamma2


def recourse_value(ctx: RecourseContext, a: np.ndarray) -> float:
    """Scenario-averaged hidden-layer output at action ``a`` (output bias excluded)."""
    a = ctx.spec.action_box.check(a)
    pre = ctx.preactivations(a)
    return float(np.mean(np.maximum(pre, 0.0) @ ctx.net.output_weights))


def recourse_values(ctx: RecourseContext, actions: np.ndarray) -> np.ndarray:
    """Vectorized :func:`recourse_value` over rows of ``actions``."""
    actions = np.asarray(actions, dtype=float)
    out = np.empty(actions.shape[0])
    w = ctx.net.output_weights
    for start in range(0, actions.shape[0], _CHUNK):
        block = actions[start:start + _CHUNK]
        pre = np.einsum("sjk,ak->sja", ctx.gamma1, block) + ctx.gamma2[:, :, None]
        out[start:start + _CHUNK] = np.einsum("sja,j->a", np.maximum(pre, 0.0), w) / ctx.s2
    return out


def gradient_cut(ctx: RecourseContext, anchor: np.ndarray) -> LinearCut:
    """Supporting hyperplane of the concave recourse part at ``anchor``.

    Coefficients follow the activation pattern at the anchor with a strict
    indicator (a preactivation of exactly zero counts as inactive), so the
    cut equals the concave part at the anchor and dominates it elsewhere.
    """
    anchor = ctx.spec.action_box.check(anchor)
    neurons = ctx.rest_neurons
    n2 = ctx.spec.action_box.dims
    if not neurons:
        return LinearCut(np.zeros(n2), 0.0)
    w = ctx.net.output_weights[neurons]
    g1 = ctx.gamma1[:, neurons, :]  # (S2, Jn, N2)
    g2 = ctx.gamma2[:, neurons]     # (S2, Jn)
    active = (g1 @ anchor.astype(float) + g2) > 0.0
    coef = np.einsum("sj,sjk->k", active * w, g1) / ctx.s2
    const = float(np.sum((active * w) * g2) / ctx.s2)
    return LinearCut(coef, const)


def positive_cut(ctx: RecourseContext) -> LinearCut:
    """Anchor-free linear over-estimator of the convex recourse part.

    Per neuron and scenario, the preactivation's minimum and maximum over the
    action box decide the case: always-active neurons contribute their exact
    affine form, never-active neurons vanish, and mixed neurons contribute a
    scaled line through the box corner where the preactivation peaks.
    """
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


def combined_cut(ctx: RecourseContext, anchor: np.ndarray) -> LinearCut:
    """Valid cut for the full recourse: gradient cut plus positive-neuron cut."""
    return gradient_cut(ctx, anchor) + positive_cut(ctx)


@dataclass(frozen=True)
class BinaryEncoding:
    """Binary expansion ``a_n = sum_l 2^l alpha_{n,l}`` of the action box.

    The one owner of the bit layout: MILPs over the bits take their
    coefficients from ``expand`` and their box rows from ``bound_rows``.
    ``bit_counts[n]`` is the number of bits for dimension ``n``; the bit
    range can represent values above the box bound, so consumers must add
    the rows ``bound_rows`` gives.
    """

    box: ActionBox
    bit_counts: tuple

    @property
    def total_bits(self) -> int:
        return sum(self.bit_counts)

    def bit_positions(self) -> list[tuple[int, int]]:
        """Flat list of (dimension, bit level) in variable order."""
        return [(n, l) for n in range(self.box.dims)
                for l in range(self.bit_counts[n])]

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Dimension and bit level of every bit, in variable order."""
        positions = self.bit_positions()
        return (np.asarray([n for n, _ in positions], dtype=np.int64),
                np.asarray([l for _, l in positions], dtype=np.int64))

    def encode(self, a: np.ndarray) -> np.ndarray:
        dims, levels = self._layout
        return (self.box.check(a)[dims] >> levels) & 1

    def decode(self, bits: np.ndarray) -> np.ndarray:
        dims, levels = self._layout
        a = np.zeros(self.box.dims, dtype=np.int64)
        np.add.at(a, dims, np.round(np.asarray(bits, dtype=float)).astype(np.int64)
                  << levels)
        return a

    def expand(self, coef: np.ndarray) -> np.ndarray:
        """Per-bit coefficients ``coef[..., n] * 2^l`` of the forms ``coef @ a``."""
        dims, levels = self._layout
        return np.asarray(coef, dtype=float)[..., dims] * 2.0 ** levels

    def bound_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``sum_l 2^l alpha_{n,l} <= upper_bounds[n]`` with their
        right-hand sides, one per dimension that has bits."""
        has_bits = np.asarray(self.bit_counts, dtype=np.int64) > 0
        return (self.expand(np.eye(self.box.dims)[has_bits]),
                self.box.upper_bounds[has_bits].astype(float))


def binary_encoding(box: ActionBox) -> BinaryEncoding:
    """Minimal bit layout with ``2**(L-1) <= bound <= 2**L`` per dimension.

    Bit levels run 0..L inclusive; dimensions with a zero bound get no bits.
    """
    counts = []
    for ub in box.upper_bounds:
        if ub == 0:
            counts.append(0)
        else:
            L = max(0, int(np.ceil(np.log2(float(ub)))))
            counts.append(L + 1)
    return BinaryEncoding(box=box, bit_counts=tuple(counts))


def zeta_value(enc: BinaryEncoding, anchor: np.ndarray, a: np.ndarray) -> int:
    """Hamming distance between canonical encodings: 0 at the anchor, else >= 1."""
    ab = enc.encode(anchor)
    if ab.size == 0:
        return 0
    return int(np.sum(ab != enc.encode(a)))


def recourse_upper_bound(ctx: RecourseContext) -> float:
    """Bound ``eta_bar >= recourse_value(a)`` for every feasible action.

    Each positive-weight neuron is charged its box-maximal activation; the
    non-positive part contributes at most zero.
    """
    a_bar = ctx.spec.action_box.upper_bounds.astype(float)
    total = 0.0
    for j in ctx.positive_neurons:
        wj = ctx.net.output_weights[j]
        g1 = ctx.gamma1[:, j, :]  # (S2, N2)
        max_pre = np.where(g1 > 0.0, g1, 0.0) @ a_bar + ctx.gamma2[:, j]
        total += wj * float(np.sum(np.maximum(max_pre, 0.0)))
    return total / ctx.s2


@dataclass(frozen=True)
class IntegerOptimalityCut:
    """Cut exact at one anchor action and loose (at the bound) elsewhere.

    Evaluates to ``anchor_value + zeta(a) * (eta_bar - anchor_value)`` where
    ``zeta`` counts bit flips from the anchor's canonical encoding.
    """

    anchor: np.ndarray
    anchor_value: float
    eta_bar: float

    def rhs(self, enc: BinaryEncoding, a: np.ndarray) -> float:
        z = zeta_value(enc, self.anchor, a)
        return self.anchor_value + z * (self.eta_bar - self.anchor_value)


def integer_optimality_cut(ctx: RecourseContext, enc: BinaryEncoding,
                           anchor: np.ndarray, eta_bar: float) -> IntegerOptimalityCut:
    anchor = ctx.spec.action_box.check(anchor)
    value = recourse_value(ctx, anchor)
    if eta_bar < value - 1e-9:
        raise ValueError(
            f"recourse bound {eta_bar} is below the anchor value {value}; "
            "the cut would exclude feasible points"
        )
    return IntegerOptimalityCut(anchor=anchor, anchor_value=value, eta_bar=eta_bar)
