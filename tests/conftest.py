"""Shared synthetic-instance helpers for the test suite."""

import numpy as np

from nnfvi.cuts import RecourseContext
from nnfvi.mcd import linear_stage_reward
from nnfvi.mdp import ActionBox, MdpSpec
from nnfvi.neural import ReluNet


def random_affine_spec(rng, n1, n2, a_bar, horizon=3, discount=0.9):
    """Affine MDP with bounds wide enough that transitions never clamp."""
    bounds = np.column_stack([np.full(n1, -1e9), np.full(n1, 1e9)])

    def noise_sampler(r):
        return {"A": r.normal(size=n1), "B": r.normal(size=(n1, n2))}

    return MdpSpec(
        horizon=horizon,
        discount=discount,
        state_dim=n1,
        state_bounds=bounds,
        action_box=ActionBox(np.asarray(a_bar, dtype=np.int64)),
        noise_sampler=noise_sampler,
        transition_A=lambda x, xi: xi["A"],
        transition_B=lambda x, xi: xi["B"],
        stage_reward=lambda t, x: linear_stage_reward(np.zeros(n2)),
    )


def random_context(seed, j=6, n1=3, n2=2, s2=4, a_bar=None, weight_scale=1.0):
    """Random ReLU net + random affine transitions around a random state."""
    rng = np.random.default_rng(seed)
    if a_bar is None:
        a_bar = rng.integers(1, 6, size=n2)
    spec = random_affine_spec(rng, n1, n2, a_bar)
    net = ReluNet(
        input_weights=rng.normal(size=(j, n1)),
        input_biases=rng.normal(size=j),
        output_weights=rng.normal(size=j) * weight_scale,
        output_bias=float(rng.normal()),
    )
    x = rng.normal(size=n1)
    noises = [spec.noise_sampler(rng) for _ in range(s2)]
    return RecourseContext(net, spec, x, noises)


def partial_recourse(ctx, a, neurons):
    """Scenario-averaged output of the hidden neurons ``neurons`` at ``a``."""
    if not neurons:
        return 0.0
    pre = ctx.preactivations(np.asarray(a, dtype=float))[:, neurons]
    return float(np.mean(np.maximum(pre, 0.0) @ ctx.net.output_weights[neurons]))


def negative_part_value(ctx, a):
    """Recourse contribution of the non-positive-weight neurons."""
    return partial_recourse(ctx, a, ctx.rest_neurons)


def positive_part_value(ctx, a):
    """Recourse contribution of the positive-weight neurons."""
    return partial_recourse(ctx, a, ctx.positive_neurons)
