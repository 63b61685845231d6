"""The verdicts ``scripts/bench_pairs.py`` records for each metric, and the
gate it applies to its record."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(bench_pairs):
    return bench_pairs.compare


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


def record(compare, correct=(True, True), failed=(0, 0), change_s=1.0):
    """A two-pair record on one workload: ``correct`` and ``failed`` hold the
    parent's and the change's values for both their runs."""
    sides = ("parent", "change")
    return {"workloads": {"sweep": {
        "correct": {side: [ok, ok] for side, ok in zip(sides, correct)},
        "attempted": {side: [100, 100] for side in sides},
        "failed": {side: [n, 0] for side, n in zip(sides, failed)},
        "metrics": {"pass_s": compare(LOWER, [1.0, 1.0], [change_s] * 2)},
    }}}


def test_a_clean_record_passes_the_gate(bench_pairs, compare):
    assert bench_pairs.gate(record(compare)) == []
    # fewer failures on the change, or a metric inside its bound, pass too
    assert bench_pairs.gate(record(compare, failed=(3, 1), change_s=1.25)) == []


@pytest.mark.parametrize("fields, reason", [
    ({"correct": (True, False)}, "sweep: 2 change run(s) failed their check"),
    ({"correct": (False, True)}, "sweep: 2 parent run(s) failed their check"),
    ({"failed": (1, 2)}, "sweep: 2 of 200 operations failed on the change, 1 of 200"),
    ({"change_s": 1.3}, "sweep pass_s: change median 1.3 is beyond bound 0.25"),
])
def test_each_fault_fails_the_gate_with_its_reason(bench_pairs, compare, fields, reason):
    (got,) = bench_pairs.gate(record(compare, **fields))
    assert got.startswith(reason)


def test_a_memory_reason_names_each_sides_pass_count(bench_pairs, compare):
    # perfbench keeps every pass's outputs, so peak_rss_mb rises with the
    # passes a run fits in its time; its reason says how many each side ran
    rec = record(compare)
    workload = rec["workloads"]["sweep"]
    workload["metrics"]["peak_rss_mb"] = compare(
        {"unit": "MiB", "better": "lower", "bound": 0.05}, [40.0, 40.0], [43.0, 43.0])
    workload["passes"] = {"parent": {"runs": [2, 2], "median": 2},
                          "change": {"runs": [14, 16], "median": 15}}
    assert bench_pairs.gate(rec) == [
        "sweep peak_rss_mb: change median 43 is beyond bound 0.05 of the parent "
        "median 40 (median untraced passes 2 -> 15)"]
