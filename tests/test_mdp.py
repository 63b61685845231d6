import numpy as np
import pytest

from nnfvi.mcd import linear_stage_reward
from nnfvi.mdp import (
    ActionBox,
    ActionSpaceTooLargeError,
    InfeasibleActionError,
    MdpSpec,
    enumerate_actions,
    sample_states,
)


def make_spec(n1=2, n2=2, horizon=3, seed=0):
    """Synthetic affine MDP: each noise row holds ``A`` and then ``B`` row by
    row, and the next state is ``A + 0.5 x + B a``."""

    def transition(x, xi):
        return xi[:, :n1] + 0.5 * x, xi[:, n1:].reshape(-1, n1, n2)

    return MdpSpec(
        horizon=horizon,
        discount=0.9,
        state_dim=n1,
        action_box=ActionBox(np.full(n2, 3)),
        draw_noises=lambda rng, count: rng.normal(size=(count, n1 + n1 * n2)),
        transition=transition,
        stage_reward=lambda t, x: linear_stage_reward(-np.ones(n2),
                                                      constant=float(np.sum(x))),
        state_sampler=lambda rng, count: rng.normal(size=(count, n1)),
    )


def next_state(spec, x, a, xi):
    """``offsets + linears @ a`` for the one-draw batch ``xi``."""
    offsets, linears = spec.transition(x, xi)
    return offsets[0] + linears[0] @ np.asarray(a, dtype=float)


class TestAffineTransition:
    def test_zero_linear_part(self):
        spec = make_spec()
        xi = np.array([[1.0, -2.0, 0.0, 0.0, 0.0, 0.0]])
        x = np.array([0.5, 0.25])
        for a in ([0, 0], [1, 2], [3, 3]):
            nxt = next_state(spec, x, a, xi)
            np.testing.assert_allclose(nxt, [1.0, -2.0] + 0.5 * x)

    def test_zero_action_gives_offset(self):
        spec = make_spec()
        rng = np.random.default_rng(1)
        xi = spec.draw_noises(rng, 1)
        x = np.array([1.0, 2.0])
        nxt = next_state(spec, x, np.zeros(2, dtype=int), xi)
        np.testing.assert_allclose(nxt, xi[0, :2] + 0.5 * x)

    def test_matches_elementwise_hand_expansion(self):
        # oracle: read A and B off the noise row and expand A + 0.5 x + B a
        # component by component in explicit loops
        spec = make_spec()
        rng = np.random.default_rng(7)
        for _ in range(20):
            xi = spec.draw_noises(rng, 1)
            x = rng.normal(size=2)
            a = rng.integers(0, 4, size=2)
            row = xi[0]
            expected = np.array([
                row[i] + 0.5 * x[i] + sum(row[2 + 2 * i + n] * a[n] for n in range(2))
                for i in range(2)
            ])
            got = next_state(spec, x, a, xi)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_infeasible_action_names_bound(self):
        box = make_spec().action_box
        with pytest.raises(InfeasibleActionError, match="above upper bound 3"):
            box.check(np.array([0, 4]))
        with pytest.raises(InfeasibleActionError, match="below lower bound 0"):
            box.check(np.array([-1, 0]))

    def test_check_reports_first_violating_component(self):
        box = make_spec().action_box
        with pytest.raises(InfeasibleActionError,
                           match="component 0 is 5, above upper bound 3"):
            box.check(np.array([5, -1]))
        with pytest.raises(InfeasibleActionError,
                           match="component 1 is -2, below lower bound 0"):
            box.check(np.array([1, -2]))
        np.testing.assert_array_equal(box.check(np.array([3.0, 1e-10])), [3, 0])

    def test_check_rejects_near_integers(self):
        # 3.00002 is within np.allclose's default relative tolerance of 3
        box = make_spec().action_box
        with pytest.raises(InfeasibleActionError, match="not integer-valued"):
            box.check(np.array([3.00002, 1.0]))

    def test_affinity_property(self):
        # f(x, lam*a1 + (1-lam)*a2, xi) interpolates exactly
        spec = make_spec()
        rng = np.random.default_rng(11)
        for _ in range(50):
            xi = spec.draw_noises(rng, 1)
            x = rng.normal(size=2)
            a1 = rng.integers(0, 4, size=2).astype(float)
            a2 = rng.integers(0, 4, size=2).astype(float)
            lam = rng.uniform()
            mix = next_state(spec, x, lam * a1 + (1 - lam) * a2, xi)
            combo = (lam * next_state(spec, x, a1, xi)
                     + (1 - lam) * next_state(spec, x, a2, xi))
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

    def test_fractional_bound_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match=r"upper_bounds must be integral.*2\.5"):
            ActionBox(np.array([2.5, 3.0]))
        box = ActionBox(np.array([2.0, 3.0]))  # integral floats are accepted
        assert box.upper_bounds.dtype == np.int64
        np.testing.assert_array_equal(box.upper_bounds, [2, 3])

    def test_cap_refusal_mentions_decomposition(self):
        with pytest.raises(ActionSpaceTooLargeError, match="decomposition"):
            enumerate_actions(ActionBox(np.full(9, 9)))


class TestSampleStates:
    def test_seeded_determinism(self):
        spec = make_spec()
        a = sample_states(spec, 5, np.random.default_rng(42))
        b = sample_states(spec, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (3, 2)])
    def test_wrong_sampler_shape_is_refused(self, shape):
        spec = make_spec()
        spec.state_sampler = lambda rng, count: np.zeros(shape)
        with pytest.raises(ValueError, match=r"returned shape .*expected \(4, 2\)"):
            sample_states(spec, 4, np.random.default_rng(0))
