"""Paired benchmark runs of this checkout against a parent checkout, folded
into ``BENCH_<label>.json`` at the root of this checkout.

    python3 scripts/bench_pairs.py PARENT_DIR LABEL select=10 fvi=3 sweep=3 [--seed 0]

``PARENT_DIR`` is a checkout of the commit to compare against, made with
``git clone`` or ``git archive``.  Each ``WORKLOAD=N`` asks for N pairs on
that workload.  A pair runs

    python3 perfbench/run.py --workload W --seed S --seconds R --trace 0

once in each checkout, one after the other, from that checkout's root; R is
``run_seconds`` from ``BENCHMARK.json``.  The side that runs first alternates
from pair to pair, the change first in the first pair.  Run nothing else on
the machine meanwhile: both sides share its cores.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the JSON
holds each side's runs, median and quartiles (``statistics.quantiles``,
inclusive method), and the pairs the change won, ties counting for neither
side.  It also holds two verdicts: ``gain_rule_met``, that the change won at
least nine in ten pairs and its median beats the parent's by more than the
parent's interquartile range; and ``within_bound``, that the change's median
is worse than the parent's by no more than the metric's ``bound`` (a
fraction of the parent's median).  Each workload and metric also gets one
summary line on stderr.  The JSON also holds every run's check result, its
operations attempted and failed, and its untraced pass count with each
side's median: perfbench keeps every pass's outputs and latency spans, so a
side that runs more passes in the same time ends with a higher
``peak_rss_mb`` (about +0.25 MiB a pass on ``select``).  The
``peak_rss_mb`` summary line and gate reason name both medians.
Last come the core count, the Python and numpy versions and both commit
ids (with a ``dirty`` flag when the working tree differs from the commit).

Once the JSON is written the record gates itself: the script prints each
reason to stderr and exits 1 when a workload has a run whose check failed,
a larger share of failed operations on the change than on the parent, or
an end-to-end metric beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PASSES = re.compile(r"^# passes: (\d+) untraced", re.MULTILINE)
GROWS_WITH_PASSES = "peak_rss_mb"  # rises with the passes a run fits in its time


def _commit(checkout: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its report's last line, parsed, with the
    report's untraced pass count as ``passes``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no report from {checkout} on {workload}:\n{done.stderr}")
    passes = PASSES.search(done.stdout)
    if passes is None:
        raise RuntimeError(f"no pass count in the report from {checkout} on {workload}")
    return json.loads(lines[-1]) | {"passes": int(passes.group(1))}


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(spec: dict, parent_values: list, change_values: list) -> dict:
    """One end-to-end metric's summaries, pair wins and verdicts; ``spec`` is
    the metric's entry in ``BENCHMARK.json`` and the runs are paired by
    index."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    parent, change = _summary(parent_values), _summary(change_values)
    won = sum(sign * (c - q) < 0 for c, q in zip(change_values, parent_values))
    gain = sign * (parent["median"] - change["median"])  # > 0: the change is better
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_won": won,
        "parent_won": sum(sign * (c - q) > 0 for c, q in zip(change_values, parent_values)),
        "gain_rule_met": won >= 0.9 * len(parent_values)
                         and gain > parent["q3"] - parent["q1"],
        "within_bound": -gain <= spec["bound"] * abs(parent["median"]),
    }


def _passes_note(passes: dict) -> str:
    """Each side's median untraced pass count, from a workload's
    ``passes`` entry."""
    return (f"median untraced passes {passes['parent']['median']:g} -> "
            f"{passes['change']['median']:g}")


def gate(record: dict) -> list[str]:
    """Why the record fails its gate, one reason per line; empty when it
    passes.  ``record`` is the JSON this script writes."""
    reasons = []
    for workload, w in record["workloads"].items():
        for side in ("parent", "change"):
            bad = w["correct"][side].count(False)
            if bad:
                reasons.append(f"{workload}: {bad} {side} run(s) failed their check")
        failed = {side: sum(w["failed"][side]) for side in w["failed"]}
        attempted = {side: sum(w["attempted"][side]) for side in w["attempted"]}
        # failed/attempted compared without dividing
        if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]:
            reasons.append(
                f"{workload}: {failed['change']} of {attempted['change']} operations "
                f"failed on the change, {failed['parent']} of {attempted['parent']} "
                "on the parent")
        for name, verdict in w["metrics"].items():
            if not verdict["within_bound"]:
                reasons.append(
                    f"{workload} {name}: change median {verdict['change']['median']:.6g} "
                    f"is beyond bound {verdict['bound']:g} of the parent median "
                    f"{verdict['parent']['median']:.6g}"
                    + (f" ({_passes_note(w['passes'])})" if name == GROWS_WITH_PASSES
                       else ""))
    return reasons


def _parse_pairs(spec: str) -> tuple[str, int]:
    workload, _, count = spec.partition("=")
    if not workload or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {spec!r}")
    return workload, int(count)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the commit to compare against")
    p.add_argument("label", help="the output is BENCH_<label>.json")
    p.add_argument("pairs", nargs="+", type=_parse_pairs, metavar="WORKLOAD=PAIRS")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    unknown = [w for w, _ in args.pairs if w not in known]
    if unknown:
        p.error(f"unknown workloads {unknown}; BENCHMARK.json lists {sorted(known)}")
    if not (args.parent / "perfbench" / "run.py").is_file():
        p.error(f"{args.parent} holds no perfbench/run.py")
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    out = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parent": _commit(sides["parent"]),
        "change": _commit(ROOT),
        "workloads": {},
    }
    for workload, count in args.pairs:
        runs = {"parent": [], "change": []}
        for pair in range(count):
            order = ("change", "parent") if pair % 2 == 0 else ("parent", "change")
            for side in order:
                runs[side].append(_run(sides[side], workload, args.seed, seconds))
                print(f"{workload} pair {pair + 1}/{count} {side}: "
                      f"pass_s {runs[side][-1]['metrics']['pass_s']['value']:.4f}",
                      file=sys.stderr)
        passes = {side: {"runs": [r["passes"] for r in runs[side]],
                         "median": statistics.median(r["passes"] for r in runs[side])}
                  for side in runs}
        metrics = {}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            verdict = metrics[name] = compare(
                spec, *([r["metrics"][name]["value"] for r in runs[side]]
                        for side in ("parent", "change")))
            print(f"{workload} {name}: median {verdict['parent']['median']:.6g} -> "
                  f"{verdict['change']['median']:.6g} {spec['unit']}, change won "
                  f"{verdict['change_won']}/{count}, gain rule "
                  f"{'met' if verdict['gain_rule_met'] else 'not met'}, "
                  f"{'within' if verdict['within_bound'] else 'beyond'} bound "
                  f"{spec['bound']:g}"
                  + (f", {_passes_note(passes)}" if name == GROWS_WITH_PASSES else ""),
                  file=sys.stderr)
        out["workloads"][workload] = {
            "pairs": count,
            "first": ["change" if pair % 2 == 0 else "parent" for pair in range(count)],
            "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "passes": passes,
            "metrics": metrics,
        }
        # written after each workload, so that a later failure keeps the rest
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path.name}", file=sys.stderr)
    reasons = gate(out)
    for reason in reasons:
        print(f"gate: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
