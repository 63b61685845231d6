"""Batch experiment harness.

Subcommands: ``fvi-run`` (train and evaluate on an instance), ``mcd-bench``
(action-selection engine comparison on seeded random networks),
``case-study`` (flexible vs inflexible sensitivity sweep), and ``dp-oracle``
(exact value tables and the gap against a fitted run).

The JSON config is the one source of a run's values: the command line names
only the subcommand, the config and the output directory.  All randomness
flows from explicit seeds in the config; outputs are CSV files written
atomically, each carrying the config hash in a leading comment and
unit-suffixed column names.  Wall-clock measurements go to separate files
so the result CSVs are byte-identical across reruns.  Exit codes: 0
success, 1 domain error, 2 usage error; failures emit a JSON error object
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .cuts import RecourseContext
from .fvi import FittedValueSet, FviConfig, PeriodTime, PeriodWork, exact_dp, \
    run_nnfvi
from .mcd import McdConfig, StageReward, linear_stage_reward, select_action
from .mcip import McipInstance, build_mcip_mdp, dp_model, sensitivity_sweep, \
    synthetic_instance, with_parameters
from .mdp import ActionBox, MdpSpec
from .neural import ReluNet, TrainConfig

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad invocation or malformed configuration."""


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_csv(path: Path, header: list, rows: list, config_hash: str):
    """Atomic CSV write with the config hash on a comment line."""
    buf = io.StringIO()
    buf.write(f"# config_sha256={config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(buf.getvalue())
    os.replace(tmp, path)


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file {path} does not exist")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise UsageError(f"config file {path} is not valid JSON: {err}") from err


def _integer(value) -> int:
    """``value`` as an int; a number with a fractional part is refused, not
    truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _require_seed(config: dict) -> int:
    if "seed" not in config:
        raise UsageError("config must set an explicit seed")
    with _usage_errors():
        return _integer(config["seed"])


def _instance_from_config(config: dict) -> McipInstance:
    block = config.get("instance")
    if block is None:
        raise UsageError("config must carry an 'instance' block")
    if "path" in block:
        path = Path(block["path"])
        if not path.exists():
            raise UsageError(f"instance file {path} does not exist")
        return McipInstance.loads(path.read_text())
    if "synthetic" in block:
        params = dict(block["synthetic"])
        if "seed" not in params:
            raise UsageError("synthetic instance block must set a seed")
        with _usage_errors():  # an unknown key or a refused value
            return synthetic_instance(**params)
    raise UsageError("instance block needs either 'path' or 'synthetic'")


@contextmanager
def _usage_errors():
    """Report a config value that the config classes refuse as a usage error."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise UsageError(str(err)) from err


def _present(block: dict, casts: dict) -> dict:
    """The keys of ``casts`` that ``block`` sets, cast; the classes own the defaults."""
    return {key: cast(block[key]) for key, cast in casts.items() if key in block}


@_usage_errors()
def _mcd_config_from(config: dict, engine: str) -> McdConfig:
    return McdConfig(engine=engine, **_present(
        config.get("mcd", {}), {"max_iterations": _integer, "gap_tolerance": float}))


@_usage_errors()
def _fvi_config_from(config: dict, seed: int) -> FviConfig:
    fvi = config.get("fvi", {})
    train = TrainConfig(**_present(
        fvi, {"regularization": float, "restarts": _integer, "max_epochs": _integer}))
    return FviConfig(
        **_present(fvi, {"state_samples": _integer, "transition_samples": _integer,
                         "neurons": _integer}),
        train=train, mcd=_mcd_config_from(config, config.get("engine", "brute")),
        seed=seed)


def cmd_fvi_run(config: dict, out_dir: Path) -> int:
    """Train the fitted value iteration and record losses, value, nets,
    each period's work counts and, with the run's wall time, each period's
    target and fit times."""
    seed = _require_seed(config)
    instance = _instance_from_config(config)
    spec = build_mcip_mdp(instance)
    fvi_config = _fvi_config_from(config, seed)
    chash = _config_hash(config)

    start = time.perf_counter()
    fitted, v_hat = run_nnfvi(spec, fvi_config)
    elapsed = time.perf_counter() - start

    rows = [["net", str(t), repr(fitted.training_losses[t])]
            for t in sorted(fitted.training_losses)]
    rows.append(["value_estimate", "1", repr(v_hat)])
    _write_csv(out_dir / "fvi_results.csv",
               ["record", "period", "value_currency_or_loss"], rows, chash)
    periods = [[f.name, t, repr(getattr(fitted.timings[t], f.name))]
               for t in sorted(fitted.timings)
               for f in dataclasses.fields(PeriodTime)]
    _write_csv(out_dir / "fvi_timings.csv",
               ["record", "period", "wall_time_s"],
               [["run_nnfvi", "all", repr(elapsed)], *periods], chash)
    _write_csv(out_dir / "fvi_work.csv",
               ["period", *(f.name for f in dataclasses.fields(PeriodWork))],
               [[t, *dataclasses.astuple(fitted.work[t])] for t in sorted(fitted.work)],
               chash)
    (out_dir / "fitted_nets.json").write_text(fitted.dumps())
    return EXIT_OK


def make_bench_instance(seed: int, facilities: int, neurons: int = 8,
                        transition_samples: int = 4,
                        capacity_levels: int = 3) -> tuple[RecourseContext, StageReward]:
    """Seeded random action-selection instance shaped like the benchmark:
    a random network over a random affine transition with a linear reward."""
    rng = np.random.default_rng(seed)
    n2 = facilities
    n1 = n2 + 1

    def draw_noises(r, count):
        # one row per draw: the offset A, then the linear part B row by row
        return r.normal(size=(count, n1 + n1 * n2))

    spec = MdpSpec(
        horizon=2, discount=0.9, state_dim=n1,
        action_box=ActionBox(np.full(n2, capacity_levels)),
        draw_noises=draw_noises,
        transition=lambda x, xi: (xi[:, :n1], xi[:, n1:].reshape(-1, n1, n2)),
        stage_reward=lambda t, x: reward,  # drawn last, below, to keep the rng order
        state_sampler=lambda r, count: r.normal(size=(count, n1)),  # the law of x
    )
    net = ReluNet(
        input_weights=rng.normal(size=(neurons, n1)),
        input_biases=rng.normal(size=neurons),
        output_weights=rng.normal(size=neurons) * 10.0,
        output_bias=float(rng.normal() * 10.0),
    )
    x = rng.normal(size=n1)
    ctx = RecourseContext(net, spec, x, spec.draw_noises(rng, transition_samples))
    reward = linear_stage_reward(rng.normal(size=n2) * 5.0,
                                 constant=float(rng.normal() * 10.0))
    return ctx, reward


def cmd_mcd_bench(config: dict, out_dir: Path) -> int:
    """Engine comparison on seeded random instances; emits results, traces
    and, in separate files, solver counters and wall-clock timings."""
    seed = _require_seed(config)
    suite = config.get("suite", {})
    with _usage_errors():  # refuse a bad suite block before the first selection
        n_instances = _integer(suite.get("instances", 0))
        if n_instances < 0:
            raise ValueError(f"instances must be non-negative, got {n_instances}")
        shape = _present(suite, {"neurons": _integer, "transition_samples": _integer,
                                 "capacity_levels": _integer})
        dims = [_integer(n2) for n2 in suite.get("facilities", [3])
                for _ in range(n_instances)]
        instances = [make_bench_instance(seed + 1000 * case, n2, **shape)
                     for case, n2 in enumerate(dims, start=1)]
    engines = config.get("engines", ["brute", "lshaped", "mcd"])
    configs = {engine: _mcd_config_from(config, engine) for engine in engines}
    chash = _config_hash(config)

    header = ["instance", "facilities", "algorithm", "stop_criterion",
              "iterations", "objective_currency", "relative_gap_pct",
              "fell_back"]
    rows = []
    trace_rows = []
    counter_rows = []
    timing_rows = []
    for case, (n2, (ctx, reward)) in enumerate(zip(dims, instances), start=1):
        results = {}
        for engine in engines:
            start = time.perf_counter()
            res = select_action(ctx, reward, configs[engine])
            elapsed = time.perf_counter() - start
            results[engine] = (res, elapsed)
            for it, lo, hi, action in res.trace_rows():
                trace_rows.append([case, engine, it, repr(lo), repr(hi),
                                   action])
        reference = results.get("brute")
        for engine in engines:
            res, elapsed = results[engine]
            if engine == "brute":
                stop, gap = "-", "-"
            else:
                stop = configs[engine].stop_criterion_label()
                if reference is not None:
                    ref_obj = reference[0].objective
                    gap = repr(100.0 * (ref_obj - res.objective)
                               / max(abs(ref_obj), 1e-9))
                else:
                    gap = "-"
            rows.append([case, n2, engine, stop, res.iterations,
                         repr(res.objective), gap, int(res.fell_back)])
            counter_rows.append([case, engine, res.milp_nodes, res.lp_pivots,
                                 res.bound_flips])
            timing_rows.append([case, engine, repr(elapsed)])

    _write_csv(out_dir / "mcd_bench.csv", header, rows, chash)
    _write_csv(out_dir / "mcd_bench_traces.csv",
               ["instance", "algorithm", "iteration",
                "lower_bound_currency", "upper_bound_currency", "action"],
               trace_rows, chash)
    _write_csv(out_dir / "mcd_bench_counters.csv",
               ["instance", "algorithm", "milp_nodes", "lp_pivots", "bound_flips"],
               counter_rows, chash)
    _write_csv(out_dir / "mcd_bench_timings.csv",
               ["instance", "algorithm", "wall_time_s"], timing_rows, chash)
    return EXIT_OK


def cmd_case_study(config: dict, out_dir: Path) -> int:
    """Sensitivity sweep over discount factors and salvage-to-expansion ratios."""
    seed = _require_seed(config)
    instance = _instance_from_config(config)
    gammas = config.get("gammas")
    ratios = config.get("ratios")
    if not gammas or not ratios:
        raise UsageError("case-study config needs non-empty 'gammas' and 'ratios'")
    fvi_config = _fvi_config_from(config, seed)
    with _usage_errors():  # refuse a bad grid or path count before the first cell's FVI
        for gamma in gammas:
            for ratio in ratios:
                with_parameters(instance, gamma=gamma, salvage_ratio=ratio)
        counts = _present(config, {"n_paths": _integer, "n_scenarios": _integer})
    for key, count in counts.items():
        if count < 1:
            raise UsageError(f"{key} must be at least 1, got {count}")
    chash = _config_hash(config)

    cells = sensitivity_sweep(instance, gammas, ratios, fvi_config, seed=seed, **counts)
    header = ["gamma", "salvage_expansion_ratio",
              "inflexible_enpv_currency", "inflexible_se_currency",
              "flexible_enpv_currency", "flexible_se_currency",
              "value_of_flexibility_currency", "improvement_pct"]
    rows = [[repr(c.gamma), repr(c.ratio),
             repr(c.inflexible_enpv), repr(c.inflexible_se),
             repr(c.flexible_enpv), repr(c.flexible_se),
             repr(c.value_of_flexibility), repr(c.improvement_pct)]
            for c in cells]
    _write_csv(out_dir / "case_study.csv", header, rows, chash)
    return EXIT_OK


def cmd_dp_oracle(config: dict, out_dir: Path) -> int:
    """Exact value tables, plus the gap against a fitted run when supplied."""
    instance = _instance_from_config(config)
    chash = _config_hash(config)
    model = dp_model(instance)
    start = np.flatnonzero(
        (model.endo_levels == instance.initial_capacity).all(axis=1))
    if start.size == 0:
        raise ValueError(
            f"initial capacity {instance.initial_capacity.tolist()} is not on "
            "the integer capacity lattice that exact DP solves")
    tables = exact_dp(model)

    value_rows = tables.to_csv_rows()
    _write_csv(out_dir / "dp_values.csv", value_rows[0], value_rows[1:], chash)

    e0 = int(start[0])
    x0 = instance.demand.index_of(instance.initial_demand)
    v_dp = tables.value(1, e0, x0)
    summary = [["dp_value_currency", repr(v_dp)]]
    fitted_path = config.get("fitted_path")
    if fitted_path:
        path = Path(fitted_path)
        if not path.exists():
            raise UsageError(f"fitted-run file {path} does not exist")
        fitted = FittedValueSet.loads(path.read_text())
        gap = abs(fitted.value_estimate - v_dp) / max(abs(v_dp), 1e-12)
        summary.append(["fitted_value_currency", repr(fitted.value_estimate)])
        summary.append(["relative_gap_pct", repr(100.0 * gap)])
    _write_csv(out_dir / "dp_summary.csv", ["record", "value"], summary, chash)
    return EXIT_OK


COMMANDS = {
    "fvi-run": cmd_fvi_run,
    "mcd-bench": cmd_mcd_bench,
    "case-study": cmd_case_study,
    "dp-oracle": cmd_dp_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnfvi",
        description="Fitted value iteration with multi-cut action selection",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        config = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out_dir)
    except UsageError as err:
        json.dump({"error": "usage", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_USAGE
    except Exception as err:  # domain failures: solver errors, bad data
        json.dump({"error": type(err).__name__, "message": str(err)},
                  sys.stderr)
        sys.stderr.write("\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
