"""Linear over-estimators of the scenario-averaged ReLU recourse function.

For a fixed state and a batch of noise draws, each neuron's preactivation is
affine in the action: ``pre[s, j](a) = gamma1[s, j] @ a + gamma2[s, j]``.
All cut families are built from these cached affine forms, one line per
(scenario, neuron) term:

* gradient cuts support the concave part (non-positive output weights) at an
  anchor action and stay above it everywhere;
* the positive-neuron cut bounds the convex part from above, independently
  of any anchor, by each term's ReLU chord between the box extremes;
* integer optimality cuts are exact at their anchor and relax to a recourse
  upper bound elsewhere, expressed over a binary expansion of the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .mdp import ActionBox, MdpSpec
from .neural import ReluNet, split_neurons

_CHUNK = 20_000  # actions per block in recourse_values, bounding peak memory


@dataclass(frozen=True)
class LinearCut:
    """Inequality ``eta <= coef @ a + const`` over the action box."""

    coef: np.ndarray
    const: float

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
                 noises: np.ndarray):
        if net.input_dim != spec.state_dim:
            raise ValueError(
                f"network expects {net.input_dim} inputs, state dimension is "
                f"{spec.state_dim}"
            )
        self.net = net
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.noises = np.asarray(noises)
        s2 = len(self.noises)
        if s2 == 0:
            raise ValueError("at least one noise draw is required")
        n1, n2 = spec.state_dim, spec.action_box.dims

        offsets, linears = spec.transition(self.x, self.noises)
        self.offsets = np.asarray(offsets, dtype=float)  # (S2, N1)
        self.linears = np.asarray(linears, dtype=float)  # (S2, N1, N2)
        if self.offsets.shape != (s2, n1) or self.linears.shape != (s2, n1, n2):
            raise ValueError(
                f"transition returned offsets of shape {self.offsets.shape} and "
                f"linears of shape {self.linears.shape}, expected ({s2}, {n1}) "
                f"and ({s2}, {n1}, {n2})"
            )

        u, u0 = net.input_weights, net.input_biases
        self.gamma1 = np.einsum("ji,sik->sjk", u, self.linears)  # (S2, J, N2)
        self.gamma2 = self.offsets @ u.T + u0                    # (S2, J)

        self.positive_neurons, self.rest_neurons = split_neurons(net)

    @property
    def s2(self) -> int:
        return len(self.noises)

    @cached_property
    def positive_part_cut(self) -> LinearCut:
        """:func:`positive_cut` of this context, computed on first use only:
        it does not depend on the anchor."""
        return positive_cut(self)


def recourse_value(ctx: RecourseContext, a: np.ndarray) -> float:
    """:func:`recourse_values` at the one action ``a``, checked against the box."""
    return float(recourse_values(ctx, ctx.spec.action_box.check(a)[None, :])[0])


def recourse_values(ctx: RecourseContext, actions: np.ndarray) -> np.ndarray:
    """Scenario-averaged hidden-layer output (output bias excluded) at every
    row of ``actions``."""
    actions = np.asarray(actions, dtype=float)
    out = np.empty(actions.shape[0])
    w = ctx.net.output_weights
    for start in range(0, actions.shape[0], _CHUNK):
        block = actions[start:start + _CHUNK]
        pre = np.einsum("sjk,ak->sja", ctx.gamma1, block) + ctx.gamma2[:, :, None]
        out[start:start + _CHUNK] = np.einsum("sja,j->a", np.maximum(pre, 0.0), w) / ctx.s2
    return out


def _box_range(ctx: RecourseContext,
               neurons: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Box minimum ``lo`` and maximum ``hi`` of each (scenario, neuron)
    preactivation of ``neurons``, both of shape (S2, Jn)."""
    a_bar = ctx.spec.action_box.upper_bounds.astype(float)
    g1 = ctx.gamma1[:, neurons, :]
    g2 = ctx.gamma2[:, neurons]
    return np.minimum(g1, 0.0) @ a_bar + g2, np.maximum(g1, 0.0) @ a_bar + g2


def _linear_form(ctx: RecourseContext, neurons: list[int], slope: np.ndarray,
                 intercept: np.ndarray) -> LinearCut:
    """Scenario average of ``w_j * (slope * gamma1 @ a + intercept)`` summed
    over ``neurons``; ``slope`` and ``intercept`` have shape (S2, Jn)."""
    w = ctx.net.output_weights[neurons]
    coef = np.einsum("sj,sjk->k", slope * w, ctx.gamma1[:, neurons, :]) / ctx.s2
    return LinearCut(coef, float(np.sum(w * intercept) / ctx.s2))


def gradient_cut(ctx: RecourseContext, anchor: np.ndarray) -> LinearCut:
    """Supporting hyperplane of the concave recourse part at ``anchor``.

    Coefficients follow the activation pattern at the anchor with a strict
    indicator (a preactivation of exactly zero counts as inactive), so the
    cut equals the concave part at the anchor and dominates it elsewhere.
    """
    anchor = ctx.spec.action_box.check(anchor)
    neurons = ctx.rest_neurons
    g2 = ctx.gamma2[:, neurons]
    active = (ctx.gamma1[:, neurons, :] @ anchor.astype(float) + g2) > 0.0
    return _linear_form(ctx, neurons, active, active * g2)


def positive_cut(ctx: RecourseContext) -> LinearCut:
    """Anchor-free linear over-estimator of the convex recourse part.

    Per neuron and scenario, the preactivation's box minimum ``lo`` and
    maximum ``hi`` decide the term: always-active terms (``lo > 0``) give
    their exact affine form, never-active ones vanish, and mixed ones give
    the ReLU's chord ``hi / (hi - lo) * (pre - lo)``, 0 at the minimum and
    ``hi`` at the peak.
    """
    neurons = ctx.positive_neurons
    lo, hi = _box_range(ctx, neurons)
    g2 = ctx.gamma2[:, neurons]
    active = lo > 0.0
    # where hi > 0, hi - lo >= hi > 0; a never-active term, or a mixed one
    # with hi == 0 (so also one with lo == hi), adds 0
    chord = np.divide(hi, hi - lo, out=np.zeros_like(hi), where=~active & (hi > 0.0))
    return _linear_form(ctx, neurons, np.where(active, 1.0, chord),
                        np.where(active, g2, chord * (g2 - lo)))


def combined_cut(ctx: RecourseContext, anchor: np.ndarray) -> LinearCut:
    """Valid cut for the full recourse: gradient cut plus positive-neuron cut."""
    return gradient_cut(ctx, anchor) + ctx.positive_part_cut


@dataclass(frozen=True)
class BinaryEncoding:
    """Binary expansion ``a_n = sum_l 2^l alpha_{n,l}`` of the action box.

    The one owner of the bit layout: MILPs over the bits take their
    coefficients from ``expand`` and their box rows from ``bound_rows``.
    ``bit_counts[n]`` is the number of bits for dimension ``n``, levels
    ``0..bit_counts[n] - 1``; unless the bound is one less than a power of
    two the bit range also represents values above it, so consumers must
    add the rows ``bound_rows`` gives.
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
    """Minimal bit layout: ``L = int(bound).bit_length()`` bits per dimension,
    the fewest whose range ``0..2**L - 1`` covers ``0..bound`` (none for a
    zero bound).  This is the usual floor(log2 bound) + 1 expansion, as in
    Zou, Ahmed & Sun's (2019) SDDiP."""
    return BinaryEncoding(box=box, bit_counts=tuple(
        int(ub).bit_length() for ub in box.upper_bounds))


def recourse_upper_bound(ctx: RecourseContext) -> float:
    """Bound ``eta_bar >= recourse_value(a)`` for every feasible action.

    Each positive-weight neuron is charged its box-maximal activation; the
    non-positive part contributes at most zero.
    """
    neurons = ctx.positive_neurons
    _, hi = _box_range(ctx, neurons)
    return float(np.mean(np.maximum(hi, 0.0) @ ctx.net.output_weights[neurons]))


@dataclass(frozen=True)
class IntegerOptimalityCut:
    """Cut exact at one anchor action and loose (at the bound) elsewhere.

    Bounds the recourse by ``anchor_value + zeta(a) * (eta_bar -
    anchor_value)``, where ``zeta`` counts bit flips from ``bits``, the
    anchor's canonical encoding; :meth:`nnfvi.mcd.FirstStage.with_cuts`
    writes it as a row over the bits.
    """

    bits: np.ndarray
    anchor_value: float
    eta_bar: float


def integer_optimality_cut(ctx: RecourseContext, enc: BinaryEncoding,
                           anchor: np.ndarray, eta_bar: float,
                           value: Optional[float] = None) -> IntegerOptimalityCut:
    """The cut at ``anchor``; ``value``, the recourse there, is evaluated
    unless the caller has it already."""
    anchor = ctx.spec.action_box.check(anchor)
    if value is None:
        value = recourse_value(ctx, anchor)
    if eta_bar < value - 1e-9:
        raise ValueError(
            f"recourse bound {eta_bar} is below the anchor value {value}; "
            "the cut would exclude feasible points"
        )
    return IntegerOptimalityCut(bits=enc.encode(anchor), anchor_value=value,
                                eta_bar=eta_bar)
