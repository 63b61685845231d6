import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from nnfvi import mcd, mcip
from nnfvi.bnb import MilpSolution
from nnfvi.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
    make_bench_instance,
)
from nnfvi.mcip import synthetic_instance
from nnfvi.mdp import ActionBox, enumerate_actions


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    reader = csv.reader(lines[1:])
    rows = list(reader)
    return rows[0], rows[1:]


def tiny_fvi_payload(seed=3, engine="brute"):
    return {
        "seed": seed,
        "engine": engine,
        "instance": {"synthetic": {"seed": 42, "horizon": 3}},
        "fvi": {"state_samples": 30, "transition_samples": 5, "neurons": 5,
                "restarts": 1, "max_epochs": 60},
        "mcd": {"max_iterations": 40, "gap_tolerance": 0.0},
    }


class TestFviRun:
    def test_output_shape(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", tiny_fvi_payload())
        out = tmp_path / "out"
        assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "fvi_results.csv")
        assert header == ["record", "period", "value_currency_or_loss"]
        net_rows = [r for r in rows if r[0] == "net"]
        assert [r[1] for r in net_rows] == ["2", "3"]  # horizon 3: two nets
        assert rows[-1][0] == "value_estimate"
        assert (out / "fitted_nets.json").exists()
        assert (out / "fvi_timings.csv").exists()

    def test_work_file_counts_each_period(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", tiny_fvi_payload(engine="mcd"))
        out = tmp_path / "out"
        assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "fvi_work.csv")
        assert header == ["period", "sampled", "distinct", "rewards", "selections",
                          "iterations", "milp_nodes", "lp_pivots", "fallbacks",
                          "restarts_discarded"]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        counts = {int(r[0]): dict(zip(header[1:], map(int, r[1:]))) for r in rows}
        assert counts[1]["sampled"] == counts[1]["selections"] == 1
        # before the horizon every sample is selected, and mcd solves masters
        assert counts[2]["selections"] == counts[2]["sampled"] == 30
        assert counts[2]["milp_nodes"] > 0 and counts[2]["lp_pivots"] > 0
        # the horizon's targets are the stage rewards' maxima: no selection
        assert counts[3]["selections"] == counts[3]["iterations"] == 0
        assert counts[3]["rewards"] == counts[3]["distinct"] <= 30
        assert all(c["restarts_discarded"] == 0 for c in counts.values())

    def test_timings_file_has_the_run_and_each_periods_target_and_fit_times(
            self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", tiny_fvi_payload())
        out = tmp_path / "out"
        assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "fvi_timings.csv")
        assert header == ["record", "period", "wall_time_s"]
        assert [r[:2] for r in rows] == [["run_nnfvi", "all"]] + [
            [record, str(t)] for t in (1, 2, 3) for record in ("targets", "fit")]
        seconds = {(r[0], r[1]): float(r[2]) for r in rows}
        assert seconds["fit", "1"] == 0.0  # period 1 fits no network
        periods = [v for key, v in seconds.items() if key[0] != "run_nnfvi"]
        assert all(v >= 0.0 for v in periods)
        assert seconds["targets", "3"] > 0.0 and seconds["fit", "2"] > 0.0
        assert sum(periods) <= seconds["run_nnfvi", "all"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", tiny_fvi_payload())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["fvi-run", "--config", cfg, "--out", str(out1)])
        main(["fvi-run", "--config", cfg, "--out", str(out2)])
        for name in ("fvi_results.csv", "fvi_work.csv", "fitted_nets.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_engines_agree_on_tiny_instance(self, tmp_path):
        vals = {}
        for engine in ("brute", "mcd"):
            cfg = write_config(tmp_path, f"cfg_{engine}.json",
                               tiny_fvi_payload(engine=engine))
            out = tmp_path / engine
            assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_OK
            _, rows = read_csv(out / "fvi_results.csv")
            vals[engine] = float(rows[-1][2])
        assert vals["mcd"] == pytest.approx(vals["brute"], abs=1e-6)

    def test_another_config_seed_changes_the_hash_line(self, tmp_path):
        heads = []
        for seed in (3, 99):
            cfg = write_config(tmp_path, f"cfg{seed}.json", tiny_fvi_payload(seed=seed))
            out = tmp_path / str(seed)
            assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_OK
            heads.append((out / "fvi_results.csv").read_text().splitlines()[0])
        assert heads[0] != heads[1]

    @pytest.mark.parametrize("flag, value", [("--seed", "99"), ("--engine", "mcd")])
    def test_a_flag_that_would_override_the_config_is_a_usage_error(self, tmp_path,
                                                                     flag, value):
        # the config file is the one source of a run's values
        cfg = write_config(tmp_path, "cfg.json", tiny_fvi_payload())
        out = tmp_path / "out"
        assert main(["fvi-run", "--config", cfg, "--out", str(out), flag, value]) \
            == EXIT_USAGE
        assert not out.exists()


class TestMcdBench:
    def test_two_facility_suite_mcd_exact(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "seed": 11,
            "suite": {"instances": 3, "facilities": [2], "neurons": 5,
                      "transition_samples": 3, "capacity_levels": 3},
            "engines": ["brute", "lshaped", "mcd"],
            "mcd": {"max_iterations": 100, "gap_tolerance": 0.0},
        })
        out = tmp_path / "out"
        assert main(["mcd-bench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "mcd_bench.csv")
        assert header[0] == "instance"
        gap_col = header.index("relative_gap_pct")
        mcd_rows = [r for r in rows if r[2] == "mcd"]
        assert len(mcd_rows) == 3
        for r in mcd_rows:
            assert abs(float(r[gap_col])) <= 1e-6  # relative gap vs brute force
        # stop criterion renders in the benchmark table style
        assert all(r[3] == "0%/100 steps" for r in mcd_rows)
        assert {r[header.index("fell_back")] for r in rows} == {"0"}
        trace_header, trace_rows = read_csv(out / "mcd_bench_traces.csv")
        assert trace_header[2] == "iteration"
        assert trace_rows

    def test_stop_criterion_default_label(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "seed": 1,
            "suite": {"instances": 1, "facilities": [2], "neurons": 4,
                      "transition_samples": 2, "capacity_levels": 1},
            "engines": ["brute", "mcd"],
        })
        out = tmp_path / "out"
        main(["mcd-bench", "--config", cfg, "--out", str(out)])
        _, rows = read_csv(out / "mcd_bench.csv")
        labels = {r[3] for r in rows if r[2] == "mcd"}
        assert labels == {"0.35%/100 steps"}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "seed": 3,
            "suite": {"instances": 2, "facilities": [2], "neurons": 5,
                      "transition_samples": 3, "capacity_levels": 2},
            "engines": ["brute", "lshaped", "mcd"],
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mcd-bench", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["mcd-bench", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("mcd_bench.csv", "mcd_bench_traces.csv", "mcd_bench_counters.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header, rows = read_csv(out1 / "mcd_bench_timings.csv")
        assert header == ["instance", "algorithm", "wall_time_s"]
        assert len(rows) == 6

    def test_counters_file_sums_the_selections_solver_work(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "seed": 4,
            "suite": {"instances": 2, "facilities": [3], "neurons": 6,
                      "transition_samples": 3, "capacity_levels": 3},
            "engines": ["brute", "lshaped", "mcd"],
            "mcd": {"max_iterations": 12, "gap_tolerance": 0.0},
        })
        out = tmp_path / "out"
        assert main(["mcd-bench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "mcd_bench_counters.csv")
        assert header == ["instance", "algorithm", "milp_nodes", "lp_pivots",
                          "bound_flips"]
        assert [r[:2] for r in rows] == [[str(case), engine] for case in (1, 2)
                                         for engine in ("brute", "lshaped", "mcd")]
        for instance, engine, nodes, pivots, flips in rows:
            if engine == "brute":
                assert (nodes, pivots, flips) == ("0", "0", "0")
            else:
                assert int(pivots) > 0 and int(nodes) >= 0
                assert 0 <= int(flips) <= int(pivots)
        assert sum(int(r[2]) for r in rows) > 0

    def test_fallback_column_marks_brute_force_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mcd, "solve_milp",
                            lambda *args, **kwargs: MilpSolution(status="infeasible"))
        cfg = write_config(tmp_path, "bench.json", {
            "seed": 1,
            "suite": {"instances": 1, "facilities": [2], "neurons": 4,
                      "transition_samples": 2, "capacity_levels": 1},
            "engines": ["brute", "mcd"],
        })
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="falling back to brute force"):
            assert main(["mcd-bench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "mcd_bench.csv")
        column = header.index("fell_back")
        assert {r[2]: r[column] for r in rows} == {"brute": "0", "mcd": "1"}

    def test_empty_suite_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "seed": 1, "suite": {"instances": 0, "facilities": []},
        })
        out = tmp_path / "out"
        assert main(["mcd-bench", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "mcd_bench.csv")
        assert rows == []
        assert header[0] == "instance"


class TestCaseStudy:
    def _payload(self, gammas, ratios):
        return {
            "seed": 7,
            "instance": {"synthetic": {"seed": 13, "horizon": 3}},
            "gammas": gammas,
            "ratios": ratios,
            "fvi": {"state_samples": 25, "transition_samples": 4,
                    "neurons": 4, "restarts": 1, "max_epochs": 50},
            "n_paths": 40,
            "n_scenarios": 5,
        }

    def test_single_cell_single_row(self, tmp_path):
        cfg = write_config(tmp_path, "cs.json", self._payload([0.9], [0.5]))
        out = tmp_path / "out"
        assert main(["case-study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "case_study.csv")
        assert len(rows) == 1
        assert header[0] == "gamma"
        assert header[-1] == "improvement_pct"

    def test_grid_row_count(self, tmp_path):
        cfg = write_config(tmp_path, "cs.json",
                           self._payload([0.8, 0.9], [0.0, 0.5, 0.9]))
        out = tmp_path / "out"
        main(["case-study", "--config", cfg, "--out", str(out)])
        _, rows = read_csv(out / "case_study.csv")
        assert len(rows) == 6

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "cs.json", self._payload([0.9], [0.25]))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["case-study", "--config", cfg, "--out", str(out1)])
        main(["case-study", "--config", cfg, "--out", str(out2)])
        assert (out1 / "case_study.csv").read_bytes() == \
            (out2 / "case_study.csv").read_bytes()

    def test_missing_grid_is_usage_error(self, tmp_path):
        payload = self._payload([], [0.5])
        cfg = write_config(tmp_path, "cs.json", payload)
        out = tmp_path / "out"
        assert main(["case-study", "--config", cfg, "--out", str(out)]) == EXIT_USAGE

    def test_bad_grid_cell_is_usage_error_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch):
        def no_fvi(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(mcip, "run_nnfvi", no_fvi)
        cfg = write_config(tmp_path, "cs.json", self._payload([0.9], [0.5, 1.5]))
        out = tmp_path / "out"
        assert main(["case-study", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "salvage ratio" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("key", ["n_paths", "n_scenarios"])
    def test_path_count_below_one_is_usage_error_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch, key):
        def no_fvi(*args, **kwargs):
            raise AssertionError("a cell ran before the path counts were checked")

        monkeypatch.setattr(mcip, "run_nnfvi", no_fvi)
        cfg = write_config(tmp_path, "cs.json", {**self._payload([0.9], [0.5]), key: 0})
        out = tmp_path / "out"
        assert main(["case-study", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert key in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "case_study.csv").exists()


    @pytest.mark.parametrize("key", ["n_paths", "n_scenarios"])
    def test_fractional_path_count_is_usage_error_before_any_cell_runs(
            self, tmp_path, capsys, monkeypatch, key):
        def no_fvi(*args, **kwargs):
            raise AssertionError("a cell ran before the path counts were checked")

        monkeypatch.setattr(mcip, "run_nnfvi", no_fvi)
        cfg = write_config(tmp_path, "cs.json", {**self._payload([0.9], [0.5]), key: 2.5})
        out = tmp_path / "out"
        assert main(["case-study", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "2.5" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "case_study.csv").exists()


class TestDpOracle:
    def test_single_period_table(self, tmp_path):
        cfg = write_config(tmp_path, "dp.json", {
            "instance": {"synthetic": {"seed": 21, "horizon": 1}},
        })
        out = tmp_path / "out"
        assert main(["dp-oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "dp_values.csv")
        assert header[0] == "period"
        inst = synthetic_instance(seed=21, horizon=1)
        n_states = (inst.capacity_max + 1).prod() * inst.demand.size
        assert len(rows) == n_states

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "dp.json", {
            "instance": {"synthetic": {"seed": 21, "horizon": 2}},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["dp-oracle", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["dp-oracle", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("dp_values.csv", "dp_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gap_against_fitted_run(self, tmp_path):
        payload = tiny_fvi_payload(seed=5)
        payload["fvi"] = {"state_samples": 150, "transition_samples": 20,
                          "neurons": 16, "restarts": 3, "max_epochs": 150}
        cfg = write_config(tmp_path, "fvi.json", payload)
        out = tmp_path / "fvi"
        assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        dp_cfg = write_config(tmp_path, "dp.json", {
            "instance": {"synthetic": {"seed": 42, "horizon": 3}},
            "fitted_path": str(out / "fitted_nets.json"),
        })
        dp_out = tmp_path / "dp"
        assert main(["dp-oracle", "--config", dp_cfg, "--out", str(dp_out)]) == EXIT_OK
        _, rows = read_csv(dp_out / "dp_summary.csv")
        records = {r[0]: float(r[1]) for r in rows}
        assert records["relative_gap_pct"] <= 5.0

    def _instance_file(self, tmp_path, capacity):
        inst = dataclasses.replace(synthetic_instance(seed=21, horizon=2),
                                   initial_capacity=np.array(capacity))
        path = tmp_path / "instance.json"
        path.write_text(inst.dumps())
        return write_config(tmp_path, "dp.json", {"instance": {"path": str(path)}})

    def test_value_read_at_the_initial_capacity(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._instance_file(tmp_path, [1.0, 0.0])
        assert main(["dp-oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, summary = read_csv(out / "dp_summary.csv")
        _, values = read_csv(out / "dp_values.csv")
        inst = synthetic_instance(seed=21, horizon=2)
        levels = enumerate_actions(ActionBox(inst.capacity_max)).tolist()
        e0 = levels.index([1, 0])
        x0 = inst.demand.index_of(inst.initial_demand)
        (row,) = [r for r in values if r[:3] == ["1", str(e0), str(x0)]]
        assert summary[0] == ["dp_value_currency", row[3]]

    def test_off_lattice_initial_capacity_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._instance_file(tmp_path, [1.5, 0.0])
        assert main(["dp-oracle", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert "[1.5, 0.0]" in err["message"]
        assert "lattice" in err["message"]
        assert not (out / "dp_summary.csv").exists()

    def test_fractional_synthetic_capacity_limit_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dp.json", {
            "instance": {"synthetic": {"seed": 21, "horizon": 1, "capacity_max": 2.5}},
        })
        out = tmp_path / "out"
        assert main(["dp-oracle", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "capacity_max" in err["message"]
        assert not (out / "dp_values.csv").exists()

    def test_fractional_horizon_in_instance_file_is_domain_error(self, tmp_path, capsys):
        data = synthetic_instance(seed=21, horizon=2).to_json_dict()
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**data, "horizon": 2.5}))
        cfg = write_config(tmp_path, "dp.json", {"instance": {"path": str(path)}})
        out = tmp_path / "out"
        assert main(["dp-oracle", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "horizon" in err["message"]
        assert not (out / "dp_values.csv").exists()

    def test_off_support_initial_demand_in_instance_file_is_domain_error(self, tmp_path,
                                                                         capsys):
        data = synthetic_instance(seed=21, horizon=2).to_json_dict()
        off = [v + 0.3 for v in data["demand"]["support"][1]]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**data, "initial_demand": off}))
        cfg = write_config(tmp_path, "dp.json", {"instance": {"path": str(path)}})
        out = tmp_path / "out"
        assert main(["dp-oracle", "--config", cfg, "--out", str(out)]) == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and str(off) in err["message"]
        assert not (out / "dp_values.csv").exists()

    def test_oversized_instance_refused_with_size(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dp.json", {
            "instance": {"synthetic": {
                "seed": 1, "facilities": 6, "capacity_max": 9,
                "demand_points": 3,
            }},
        })
        out = tmp_path / "out"
        code = main(["dp-oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_DOMAIN
        err = json.loads(capsys.readouterr().err)
        assert "3000000" in err["message"]
        assert err["message"].count("O(|states|^2") == 1


class TestErrors:
    def test_missing_config_is_usage(self, tmp_path, capsys):
        code = main(["fvi-run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"

    def test_missing_seed_is_usage(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "instance": {"synthetic": {"seed": 1}}})
        assert main(["fvi-run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("change", [
        {"engine": "bogus"},
        {"fvi": {"state_samples": 0}},
        {"instance": {"synthetic": {"seed": 1, "facilties": 2}}},
        {"instance": {"synthetic": {"seed": 1, "capacity_max": -1}}},
        {"seed": "x"},
        # a fractional integer is refused, not truncated
        {"seed": 1.7},
        {"fvi": {**tiny_fvi_payload()["fvi"], "state_samples": 30.5}},
        {"fvi": {**tiny_fvi_payload()["fvi"], "restarts": 1.5}},
        {"mcd": {"max_iterations": 40.5, "gap_tolerance": 0.0}},
        # refused before the first period's targets are computed
        {"fvi": {**tiny_fvi_payload()["fvi"], "neurons": 0}},
        {"fvi": {**tiny_fvi_payload()["fvi"], "max_epochs": -1}},
        {"mcd": {"max_iterations": 40, "gap_tolerance": float("nan")}},
        {"fvi": {**tiny_fvi_payload()["fvi"], "regularization": float("nan")}},
        {"fvi": {**tiny_fvi_payload()["fvi"], "regularization": float("inf")}},
    ])
    def test_refused_fvi_config_is_usage(self, tmp_path, capsys, monkeypatch, change):
        def no_selection(*args, **kwargs):
            raise AssertionError("a selection ran before the config was checked")

        monkeypatch.setattr("nnfvi.fvi.select_action", no_selection)
        cfg = write_config(tmp_path, "cfg.json", {**tiny_fvi_payload(), **change})
        out = tmp_path / "out"
        assert main(["fvi-run", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert not (out / "fvi_results.csv").exists()

    def test_refused_mcd_bench_config_is_usage(self, tmp_path, capsys):
        for mcd_block, word in (({"max_iterations": 0}, "max_iterations"),
                                ({"gap_tolerance": float("nan")}, "gap_tolerance")):
            cfg = write_config(tmp_path, "bench.json", {
                "seed": 1, "suite": {"instances": 1, "facilities": [2]},
                "mcd": mcd_block,
            })
            out = tmp_path / "out"
            assert main(["mcd-bench", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
            assert word in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("suite, word", [
        ({"instances": "two", "facilities": [2]}, "two"),
        ({"instances": 1, "facilities": [2], "capacity_levels": -1}, "non-negative"),
        ({"instances": 1.5, "facilities": [2]}, "1.5"),
        ({"instances": 1, "facilities": [2.5]}, "2.5"),
        ({"instances": 1, "facilities": [2], "neurons": 4.5}, "4.5"),
        ({"instances": -2, "facilities": [2]}, "instances must be non-negative"),
    ])
    def test_refused_mcd_bench_suite_is_usage_before_any_selection(
            self, tmp_path, capsys, monkeypatch, suite, word):
        def no_selection(*args, **kwargs):
            raise AssertionError("a selection ran before the suite was checked")

        monkeypatch.setattr("nnfvi.cli.select_action", no_selection)
        cfg = write_config(tmp_path, "bench.json", {"seed": 1, "suite": suite})
        out = tmp_path / "out"
        assert main(["mcd-bench", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert word in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "mcd_bench.csv").exists()

    def test_bad_flag_is_usage(self, tmp_path):
        assert main(["fvi-run", "--nonsense"]) == EXIT_USAGE


class TestBenchInstanceFactory:
    def test_deterministic(self):
        a_ctx, a_reward = make_bench_instance(5, 3)
        b_ctx, b_reward = make_bench_instance(5, 3)
        np.testing.assert_array_equal(a_ctx.gamma1, b_ctx.gamma1)
        assert a_reward.constant == b_reward.constant

    def test_noise_batch_keeps_per_noise_rng_order(self):
        # oracle: the generator stream as drawn one noise at a time, offset A
        # then linear part B, between the network and state draws and the
        # reward drawn last; the benchmark corpora depend on this order
        for seed, n2, neurons, count in ((2000, 2, 10, 4), (3000, 3, 10, 4),
                                         (7, 5, 6, 20)):
            n1 = n2 + 1
            ctx, reward = make_bench_instance(seed, n2, neurons=neurons,
                                              transition_samples=count)
            rng = np.random.default_rng(seed)
            weights = rng.normal(size=(neurons, n1))
            rng.normal(size=neurons)
            rng.normal(size=neurons)
            rng.normal()
            x = rng.normal(size=n1)
            draws = [(rng.normal(size=n1), rng.normal(size=(n1, n2)))
                     for _ in range(count)]
            gain = rng.normal(size=n2) * 5.0
            np.testing.assert_array_equal(ctx.net.input_weights, weights)
            np.testing.assert_array_equal(ctx.x, x)
            np.testing.assert_array_equal(ctx.offsets, [A for A, _ in draws])
            np.testing.assert_array_equal(ctx.linears, [B for _, B in draws])
            assert [p[0][0] for p in reward.pieces] == list(gain)
            assert reward.constant == float(rng.normal() * 10.0)

    def test_dimensions(self):
        ctx, reward = make_bench_instance(2, 4, neurons=6,
                                          transition_samples=3,
                                          capacity_levels=2)
        assert ctx.gamma1.shape == (3, 6, 4)
        np.testing.assert_array_equal(ctx.spec.action_box.upper_bounds,
                                      [2, 2, 2, 2])
