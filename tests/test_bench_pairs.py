"""The verdicts ``scripts/bench_pairs.py`` records for each metric."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "ratio", "better": "higher", "bound": 0.05}


def test_a_clear_gain_meets_the_rule(compare):
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    verdict = compare(LOWER, parent, [p - 0.2 for p in parent])
    assert verdict["change_won"] == 10 and verdict["parent_won"] == 0
    assert verdict["gain_rule_met"] and verdict["within_bound"]


def test_eight_wins_in_ten_do_not_meet_the_rule(compare):
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.5]
    verdict = compare(LOWER, parent, change)
    assert (verdict["change_won"], verdict["parent_won"]) == (8, 1)
    assert not verdict["gain_rule_met"]


def test_a_gain_inside_the_parents_spread_does_not_meet_the_rule(compare):
    parent = [0.8, 1.2, 0.8, 1.2]   # quartiles 0.8 and 1.2
    verdict = compare(LOWER, parent, [p - 0.1 for p in parent])
    assert verdict["change_won"] == 4 and not verdict["gain_rule_met"]


def test_bound_is_a_fraction_of_the_parents_median(compare):
    parent = [10.0, 10.0, 10.0]
    assert compare(LOWER, parent, [12.5] * 3)["within_bound"]
    assert not compare(LOWER, parent, [12.6] * 3)["within_bound"]
    # higher is better: a fall is the regression
    assert compare(HIGHER, parent, [9.5] * 3)["within_bound"]
    assert not compare(HIGHER, parent, [9.4] * 3)["within_bound"]
    assert compare(HIGHER, parent, [11.0] * 3)["gain_rule_met"]
