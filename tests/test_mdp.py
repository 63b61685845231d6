import numpy as np
import pytest

from nnfvi.mcd import linear_stage_reward
from nnfvi.mdp import (
    ActionBox,
    ActionSpaceTooLargeError,
    InfeasibleActionError,
    MdpSpec,
    affine_transition,
    enumerate_actions,
    sample_states,
)


def make_spec(n1=2, n2=2, bounds_half_width=1e6, horizon=3, seed=0):
    """Synthetic affine MDP whose transition data is drawn once per noise draw."""
    bounds = np.column_stack([
        np.full(n1, -bounds_half_width),
        np.full(n1, bounds_half_width),
    ])

    def noise_sampler(rng):
        return {
            "A": rng.normal(size=n1),
            "B": rng.normal(size=(n1, n2)),
        }

    return MdpSpec(
        horizon=horizon,
        discount=0.9,
        state_dim=n1,
        state_bounds=bounds,
        action_box=ActionBox(np.full(n2, 3)),
        noise_sampler=noise_sampler,
        transition_A=lambda x, xi: xi["A"] + 0.5 * x,
        transition_B=lambda x, xi: xi["B"],
        stage_reward=lambda t, x: linear_stage_reward(-np.ones(n2),
                                                      constant=float(np.sum(x))),
    )


class TestAffineTransition:
    def test_zero_linear_part(self):
        spec = make_spec()
        xi = {"A": np.array([1.0, -2.0]), "B": np.zeros((2, 2))}
        x = np.array([0.5, 0.25])
        for a in ([0, 0], [1, 2], [3, 3]):
            nxt = affine_transition(spec, x, np.array(a), xi)
            np.testing.assert_allclose(nxt, xi["A"] + 0.5 * x)

    def test_zero_action_gives_offset(self):
        spec = make_spec()
        rng = np.random.default_rng(1)
        xi = spec.noise_sampler(rng)
        x = np.array([1.0, 2.0])
        nxt = affine_transition(spec, x, np.zeros(2, dtype=int), xi)
        np.testing.assert_allclose(nxt, spec.transition_A(x, xi))

    def test_matches_elementwise_hand_expansion(self):
        # oracle: expand A + B a component by component in explicit loops
        spec = make_spec()
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi = spec.noise_sampler(rng)
            x = rng.normal(size=2)
            a = rng.integers(0, 4, size=2)
            A = spec.transition_A(x, xi)
            B = spec.transition_B(x, xi)
            expected = np.array([
                A[i] + sum(B[i, n] * a[n] for n in range(2)) for i in range(2)
            ])
            got = affine_transition(spec, x, a, xi)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_infeasible_action_names_bound(self):
        spec = make_spec()
        xi = spec.noise_sampler(np.random.default_rng(0))
        with pytest.raises(InfeasibleActionError, match="above upper bound 3"):
            affine_transition(spec, np.zeros(2), np.array([0, 4]), xi)
        with pytest.raises(InfeasibleActionError, match="below lower bound 0"):
            affine_transition(spec, np.zeros(2), np.array([-1, 0]), xi)

    def test_clamped_to_state_bounds(self):
        spec = make_spec(bounds_half_width=1.0)
        xi = {"A": np.array([50.0, -50.0]), "B": np.zeros((2, 2))}
        nxt = affine_transition(spec, np.zeros(2), np.zeros(2, dtype=int), xi)
        np.testing.assert_allclose(nxt, [1.0, -1.0])

    def test_affinity_property(self):
        # f(x, lam*a1 + (1-lam)*a2, xi) interpolates exactly, pre-clamp
        spec = make_spec()
        rng = np.random.default_rng(11)
        for _ in range(50):
            xi = spec.noise_sampler(rng)
            x = rng.normal(size=2)
            a1 = rng.integers(0, 4, size=2).astype(float)
            a2 = rng.integers(0, 4, size=2).astype(float)
            lam = rng.uniform()
            A = spec.transition_A(x, xi)
            B = spec.transition_B(x, xi)
            mix = A + B @ (lam * a1 + (1 - lam) * a2)
            combo = lam * (A + B @ a1) + (1 - lam) * (A + B @ a2)
            np.testing.assert_allclose(mix, combo, rtol=1e-12, atol=1e-12)


class TestEnumerateActions:
    def test_two_by_two_box(self):
        got = enumerate_actions(ActionBox(np.array([1, 1])))
        np.testing.assert_array_equal(got, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_singleton(self):
        got = enumerate_actions(ActionBox(np.array([0, 0, 0])))
        np.testing.assert_array_equal(got, [[0, 0, 0]])

    def test_five_dim_count_is_1e5(self):
        got = enumerate_actions(ActionBox(np.full(5, 9)))
        assert got.shape == (10**5, 5)

    def test_completeness_and_uniqueness(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ub = rng.integers(0, 5, size=rng.integers(1, 4))
            box = ActionBox(ub)
            acts = enumerate_actions(box)
            assert acts.shape[0] == box.count()
            assert len({tuple(a) for a in acts}) == box.count()

    def test_lexicographic_order(self):
        acts = enumerate_actions(ActionBox(np.array([2, 1])))
        as_tuples = [tuple(a) for a in acts]
        assert as_tuples == sorted(as_tuples)

    def test_cap_refusal_mentions_decomposition(self):
        with pytest.raises(ActionSpaceTooLargeError, match="decomposition"):
            enumerate_actions(ActionBox(np.full(9, 9)))


class TestSampleStates:
    def test_degenerate_bounds(self):
        spec = make_spec()
        spec.state_bounds = np.array([[2.5, 2.5], [2.5, 2.5]])
        states = sample_states(spec, 1, np.random.default_rng(0))
        assert states.shape == (1, 2)
        np.testing.assert_allclose(states[0], [2.5, 2.5])

    def test_seeded_determinism(self):
        spec = make_spec()
        a = sample_states(spec, 5, np.random.default_rng(42))
        b = sample_states(spec, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_uniform_mean_on_unit_square(self):
        spec = make_spec()
        spec.state_bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        states = sample_states(spec, 10_000, np.random.default_rng(9))
        np.testing.assert_allclose(states.mean(axis=0), [0.5, 0.5], atol=0.02)
