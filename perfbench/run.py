"""nnfvi benchmark: three workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload select --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root; nnfvi is imported from ``src/``.  Each
workload runs single-threaded in its own process (``--workload all`` starts
one per workload).  Untraced timings are CPU seconds scaled to a reference
host speed (see hostspeed.py).  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the human-readable report.  The exit code is non-zero
when a check fails or the package cannot be imported.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: with default threading the
# Gauss-Newton fit runs 4x slower after idle periods on a 2-core machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPAN_DIR = HERE / "out"
WORKLOAD_NAMES = ("select", "fvi", "sweep")
SETUP_REPEATS = 9    # timed set-ups per run, after one untimed warm-up
TAIL_BEYOND = 10     # samples the tail percentile must leave beyond it
CHILD_TIMEOUT_S = 170
FALLBACK_WARNING = "falling back to brute force"
DISCARD_WARNING = "discarded"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "select_tail_ms": "ms",
                    "peak_rss_mb": "MiB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # internal: time one set-up
    return p.parse_args(argv)


def nearest_rank(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile leaving at least TAIL_BEYOND samples beyond it."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            return pct
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


def per_call(latencies: list) -> list:
    """Per-call latency: the median over passes of each call's time when every
    pass made the same calls, else all calls pooled."""
    if len({len(x) for x in latencies}) == 1:
        return [statistics.median(calls) for calls in zip(*latencies)]
    return [v for x in latencies for v in x]


def platform_line() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS[:3])
    return (f"# platform: nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
            f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')}, {threads}")


def setup_seconds(args) -> list:
    """CPU seconds of fresh processes from start to the first timed call, as
    (at reference speed, raw).  The host's speed is sampled in this process
    just before and after each; the first, which warms the file cache, is
    not kept."""
    hostspeed.kernel()
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        kernels = [hostspeed.kernel_seconds() for _ in range(hostspeed.SETUP_SAMPLES)]
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        kernels += [hostspeed.kernel_seconds() for _ in range(hostspeed.SETUP_SAMPLES)]
        cpu = float(done.stdout.split()[-1])
        samples.append((cpu * hostspeed.speed_factor(kernels), cpu))
    return samples[1:]


def run_pass(workload, tracer_names, clock) -> dict:
    """One pass under a fresh tracer wrapping ``tracer_names``; ``start``
    and ``end`` are read on ``clock``."""
    tracer = spans.Tracer(clock)
    tracer.install(tracer_names)
    # every pass starts with the collector's state of a fresh process: what
    # earlier passes left behind is neither collected nor scanned
    gc.collect()
    gc.freeze()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wall = time.perf_counter()
            start = clock()
            output = workload.run_pass()
            end = clock()
            wall = time.perf_counter() - wall
    finally:
        tracer.uninstall()
    messages = [str(w.message) for w in caught]
    return {"wall": wall, "start": start, "end": end, "output": output,
            "spans": tracer.spans,
            "fallbacks": sum(FALLBACK_WARNING in m for m in messages),
            "discarded": sum(DISCARD_WARNING in m for m in messages)}


def timed_passes(workload, seconds: float, sampler) -> list:
    """Passes until the next would end after ``seconds``; at least one.
    Without a host-speed ``sampler`` (a traced run) the passes alternate
    untraced and traced, starting untraced, on the wall clock."""
    probe = (workload.latency_name,)
    passes = []
    rounds = 0
    clock = sampler.clock if sampler else time.perf_counter
    if sampler:
        sampler.start()
    try:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, probe, clock) | {"traced": False})
            if not sampler:
                passes.append(run_pass(workload, spans.INSTALLED, clock) | {"traced": True})
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                return passes
    finally:
        if sampler:
            sampler.stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "nnfvi" / "__init__.py").is_file():
        print(f"error: no nnfvi package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(repr(time.process_time()))
        return 0

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(platform_line())
    setups = [] if args.trace else setup_seconds(args)
    sampler = None if args.trace else hostspeed.Sampler()
    passes = timed_passes(workload, args.seconds, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = spans.Tracer()
    if args.trace and workload.brute_reference:
        reference.install(spans.INSTALLED)
    try:
        check = workload.check([p["output"] for p in passes])
    finally:
        reference.uninstall()

    # operations: selections (each select_action call) and training restarts
    attempted = failed = 0
    latencies = []
    for p in passes:
        done, raised = spans.call_latencies_ms(p["spans"], workload.latency_name,
                                               sampler.factor if sampler else None)
        if not p["traced"]:
            latencies.append(done)
        attempted += len(done) + raised + workload.restarts_per_pass
        failed += raised + p["fallbacks"] + p["discarded"] + check.failed_ops
    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["wall"] for p in untraced)
    print(f"# passes: {len(untraced)} untraced"
          + (f", {len(passes) - len(untraced)} traced" if args.trace else "")
          + f"; {attempted} operations attempted, {failed} failed")

    if args.trace:
        metrics = report_layers(args, passes, reference.spans, wall_s)
        regions = {f"pass{i}": p["spans"] for i, p in enumerate(passes) if p["traced"]}
        if reference.spans:
            regions["reference"] = reference.spans
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_spans(path, regions)
        print(f"# spans written to {path.relative_to(HERE.parent)}")
    else:
        calls = per_call(latencies)
        pct = tail_percentile(len(calls))
        factors = [sampler.factor(p["start"], p["end"]) for p in untraced]
        cpu_s = [p["end"] - p["start"] for p in untraced]
        values = {
            "setup_s": (statistics.median(s for s, _ in setups),
                        f"median of {len(setups)} fresh processes, start to first timed "
                        f"call: {', '.join(f'{s:.3f}' for s, _ in setups)}; raw CPU "
                        f"{statistics.median(c for _, c in setups):.4f} s"),
            "pass_s": (statistics.median(c * f for c, f in zip(cpu_s, factors)),
                       f"median of {len(untraced)} passes; raw CPU "
                       f"{statistics.median(cpu_s):.4f} s"),
            "select_tail_ms": (nearest_rank(calls, pct),
                               f"p{pct} of per-call medians over passes, n={len(calls)}, "
                               f"{len(calls) - math.ceil(pct / 100 * len(calls))} beyond"),
            "peak_rss_mb": (peak_rss_mb, "ru_maxrss at the end of the timed region"),
        }
        for name, (value, note) in values.items():
            print(f"{name:16s} {value:12.4f} {END_TO_END_UNITS[name]:4s}  {note}")
        # unbounded: on fvi half the calls are one-step terminal-period
        # selections, so the median falls between two modes and jumps
        print(f"{'select_p50_ms':16s} {statistics.median(calls):12.4f} ms    "
              f"per-call median over passes, n={len(calls)}")
        # unbounded: the host's speed moves them (see hostspeed.py)
        print(f"{'wall_s':16s} {wall_s:12.4f} s     median wall time of a pass, "
              f"not scaled")
        print(f"{'host_speed':16s} {statistics.median(factors):12.4f} x     "
              f"median over passes of the mean over {len(sampler.kernels)} kernel "
              f"samples of {hostspeed.REFERENCE_KERNEL_S * 1e3:g} ms / kernel time "
              f"(range {min(factors):.3f}-{max(factors):.3f})")
        print(f"{'failed_pct':16s} {100.0 * failed / attempted:12.4f} %     "
              f"{failed} of {attempted} operations")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in values.items()}
    for name, (value, unit, note) in check.report.items():
        print(f"{name:16s} {value:12.4f} {unit:4s}  {note}")
    print("checks: " + ("passed" if not check.problems else
                        "FAILED: " + "; ".join(check.problems)))
    print(json.dumps({"correct": not check.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not check.problems else 1


def layer_unit(name: str) -> str:
    if "_per_call" in name:
        return "1/call"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def report_layers(args, passes: list, reference: list, untraced_wall: float) -> dict:
    traced = [p for p in passes if p["traced"]]
    per_pass = [spans.layer_metrics(p["spans"], p["wall"], p["fallbacks"], p["discarded"],
                                    reference)
                for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(p["wall"] for p in traced)
    print(f"per-layer metrics, median of {len(traced)} traced passes:")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {layer_unit(name)}")
    shares = spans.self_shares(metrics, traced_wall)
    print("self-time share of traced wall_s: "
          + ", ".join(f"{k} {v:.1f}%" for k, v in shares.items()))
    overhead = traced_wall - untraced_wall
    print(f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced {untraced_wall:.4f} s"
          f" = {overhead:+.4f} s ({100.0 * overhead / untraced_wall:+.1f}%)")
    print("waiting time: 0 by construction (one thread, no queues)")
    if args.workload == "select":
        faster = []
        for dims in (2, 3):
            mcd_s, brute_s = metrics[f"mcd.busy_s.d{dims}"], metrics[f"mcd.brute_s.d{dims}"]
            if mcd_s < brute_s:
                faster.append(f"{dims}-D")
            winner = "mcd" if mcd_s < brute_s else "brute"
            print(f"engine crossover d{dims}: mcd {mcd_s:.4f} s vs brute {brute_s:.4f} s"
                  f" on the same boxes: {winner} faster by "
                  f"{max(mcd_s, brute_s) / min(mcd_s, brute_s):.0f}x")
        print("mcd beats brute at: " + (", ".join(faster) or "no tested size (2-D, 3-D)"))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}


def run_all(args) -> int:
    """Each workload in its own process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {done.returncode})")
            return done.returncode or 1
        status = status or done.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
