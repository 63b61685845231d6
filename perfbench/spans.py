"""In-memory spans around nnfvi's public functions, and the per-layer
metrics derived from them.

A span is wrapped around a public function at the name its caller imported
(``nnfvi.bnb.solve_lp`` is the simplex as branch-and-bound calls it,
``nnfvi.mcip.solve_lp`` the simplex as the allocation LP calls it), so
nothing under ``src/`` changes and each caller gets its own split.  A span's
layer is the module that defines the wrapped function.  Spans are kept in a
list and written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

LAYERS = ("simplex", "bnb", "cuts", "mcd", "neural", "fvi", "mcip")
ROOT_LAYER = "bench"  # the benchmark's own code plus untraced helpers (mdp)

# cut and recourse functions as nnfvi.mcd imported them
_MCD_CUTS = ("binary_encoding", "combined_cut", "integer_optimality_cut",
             "recourse_upper_bound", "recourse_value", "recourse_values")


def _pivots(args, kwargs, result):
    return len(result.pivots)


def _nodes(args, kwargs, result):
    return result.node_count


def _selection(args, kwargs, result):
    """(box dimension, engine, iterations, gap closed) of one selection."""
    ctx = args[0] if args else kwargs["ctx"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    upper, lower = result.upper_bound, result.objective
    closed = upper - lower <= config.gap_tolerance * max(abs(upper), config.gap_floor)
    return (ctx.spec.action_box.dims, config.engine, result.iterations, bool(closed))


def _paths(args, kwargs, result):
    paths = args[2] if len(args) > 2 else kwargs["paths"]
    return int(paths.shape[0])


# qualified name -> (layer, info extractor or None, span name for a returned callable)
TARGETS = {
    "nnfvi.bnb.solve_lp": ("simplex", _pivots, None),
    "nnfvi.mcip.solve_lp": ("simplex", _pivots, None),
    "nnfvi.mcd.solve_milp": ("bnb", _nodes, None),
    "nnfvi.mcip.solve_milp": ("bnb", _nodes, None),
    **{f"nnfvi.mcd.{name}": ("cuts", None, None) for name in _MCD_CUTS},
    "nnfvi.fvi.RecourseContext": ("cuts", None, None),
    "nnfvi.mcd.build_first_stage": ("mcd", None, None),
    "nnfvi.mcd.select_action_bruteforce": ("mcd", None, None),
    "nnfvi.mcd.select_action": ("mcd", _selection, None),
    "nnfvi.fvi.select_action": ("mcd", _selection, None),
    "nnfvi.fvi.fit": ("neural", None, None),
    "nnfvi.fvi.loss": ("neural", None, None),
    "nnfvi.neural.loss": ("neural", None, None),
    "nnfvi.fvi.bellman_target": ("fvi", None, None),
    "nnfvi.fvi.run_nnfvi": ("fvi", None, None),
    "nnfvi.mcip.run_nnfvi": ("fvi", None, None),
    "nnfvi.mcip.greedy_policy": ("fvi", None, "nnfvi.mcip.policy"),
    "nnfvi.mcip.policy": ("fvi", None, None),  # decisions of a greedy policy
    "nnfvi.mcip.operating_profit": ("mcip", None, None),
    "nnfvi.mcip.simulate_policy_on_paths": ("mcip", _paths, None),
    "nnfvi.mcip.inflexible_two_stage": ("mcip", None, None),
    "nnfvi.mcip.sensitivity_sweep": ("mcip", None, None),
}

# span fields
NAME, START, END, PARENT, INFO, FAILED = range(6)


class Tracer:
    """Records spans ``[name, start, end, parent, info, failed]`` in a list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, names) -> None:
        """Wrap each qualified name in ``names`` until ``uninstall``."""
        for qualname in names:
            module_name, attr = qualname.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(qualname, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, qualname: str, func):
        _, info_of, returns = TARGETS[qualname]
        spans, stack = self.spans, self._stack
        clock = self.clock
        wrap = self._wrap

        def traced(*args, **kwargs):
            index = len(spans)
            span = [qualname, clock(), 0.0, stack[-1] if stack else -1, None, False]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if info_of is not None:
                span[INFO] = info_of(args, kwargs, result)
            if returns is not None:
                result = wrap(returns, result)
            return result

        return traced


def write_spans(path: Path, regions: dict) -> None:
    """Write ``{region: spans}`` as JSON; each region's parents index its own list."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "info", "failed"],
                   "regions": regions}, fh)


# every target but the greedy policies, which are wrapped when greedy_policy returns them
INSTALLED = tuple(name for name in TARGETS if name != "nnfvi.mcip.policy")


def call_latencies_ms(spans: list, name: str, factor=None) -> tuple[list, int]:
    """Durations, in call order, of the spans named ``name`` that returned,
    each scaled by ``factor(start, end)`` where given, and the number that
    raised."""
    done = [1e3 * (s[END] - s[START]) * (factor(s[START], s[END]) if factor else 1.0)
            for s in spans if s[NAME] == name and not s[FAILED]]
    raised = sum(1 for s in spans if s[NAME] == name and s[FAILED])
    return done, raised


def layer_metrics(spans: list, wall_s: float, fallbacks: int, discarded: int,
                  reference: list = ()) -> dict:
    """Per-layer metrics of one traced pass lasting ``wall_s``.

    ``fallbacks`` and ``discarded`` are the brute-force fallbacks and
    discarded training restarts whose warnings the pass raised.
    ``reference`` holds the spans of brute-force selections on the same
    boxes made after the timed region (select only); where given, they
    feed ``mcd.brute_s.d*`` in place of the pass's own brute-force time.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    layer = [TARGETS[s[NAME]][0] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    own = [dur[i] - child[i] for i in range(n)]
    self_s = {name: 0.0 for name in LAYERS}
    for i in range(n):
        self_s[layer[i]] += own[i]
    root_s = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    self_s[ROOT_LAYER] = wall_s - root_s

    def pick(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def busy(idx):
        return sum(dur[i] for i in idx)

    m: dict = {}
    for caller in ("bnb", "mcip"):
        idx = pick(f"nnfvi.{caller}.solve_lp")
        m[f"simplex.calls.{caller}"] = len(idx)
        m[f"simplex.pivots.{caller}"] = sum(spans[i][INFO] for i in idx if not spans[i][FAILED])
        m[f"simplex.busy_s.{caller}"] = busy(idx)
        m[f"simplex.failed.{caller}"] = sum(1 for i in idx if spans[i][FAILED])
        m[f"simplex.pivots_per_call.{caller}"] = (
            m[f"simplex.pivots.{caller}"] / len(idx) if idx else 0.0)
    for key in ("calls", "pivots", "busy_s", "failed"):
        m[f"simplex.{key}"] = m[f"simplex.{key}.bnb"] + m[f"simplex.{key}.mcip"]
    m["simplex.pivots_per_call"] = (m["simplex.pivots"] / m["simplex.calls"]
                                    if m["simplex.calls"] else 0.0)
    m["simplex.self_s"] = self_s["simplex"]

    idx = pick("nnfvi.mcd.solve_milp", "nnfvi.mcip.solve_milp")
    m["bnb.calls"] = len(idx)
    m["bnb.nodes"] = sum(spans[i][INFO] for i in idx if not spans[i][FAILED])
    m["bnb.nodes_per_call"] = m["bnb.nodes"] / len(idx) if idx else 0.0
    m["bnb.busy_s"] = busy(idx)
    m["bnb.self_s"] = self_s["bnb"]

    idx = pick(*(f"nnfvi.mcd.{name}" for name in _MCD_CUTS))
    m["cuts.calls"] = len(idx)
    m["cuts.busy_s"] = busy(idx)
    idx = pick("nnfvi.fvi.RecourseContext")
    m["cuts.context_calls"] = len(idx)
    m["cuts.context_s"] = busy(idx)
    m["cuts.self_s"] = self_s["cuts"]

    sel = pick("nnfvi.mcd.select_action", "nnfvi.fvi.select_action")
    brute = pick("nnfvi.mcd.select_action_bruteforce")
    fell_back = {spans[i][PARENT] for i in brute}
    by_decomposition = [i for i in sel if spans[i][INFO] is not None
                        and spans[i][INFO][1] != "brute" and i not in fell_back]
    m["mcd.selections"] = len(sel)
    m["mcd.iterations"] = sum(spans[i][INFO][2] for i in by_decomposition)
    m["mcd.busy_s"] = busy(sel)
    m["mcd.self_s"] = self_s["mcd"]
    m["mcd.first_stage_s"] = busy(pick("nnfvi.mcd.build_first_stage"))
    m["mcd.fallbacks"] = fallbacks
    certified = sum(1 for i in sel if spans[i][INFO] is not None
                    and spans[i][INFO][3] and i not in fell_back)
    m["mcd.certified_ratio"] = certified / len(sel) if sel else 0.0
    m["mcd.brute_s"] = sum(dur[i] for i in brute)
    ref_spans = reference if reference else spans
    ref_brute = [s for s in ref_spans if s[NAME] == "nnfvi.mcd.select_action_bruteforce"]
    for dims in (2, 3):
        m[f"mcd.busy_s.d{dims}"] = sum(dur[i] for i in sel if spans[i][INFO] is not None
                                       and spans[i][INFO][0] == dims)
        m[f"mcd.brute_s.d{dims}"] = sum(
            s[END] - s[START] for s in ref_brute
            if ref_spans[s[PARENT]][INFO] is not None and ref_spans[s[PARENT]][INFO][0] == dims)

    idx = pick("nnfvi.fvi.fit")
    m["neural.fit_calls"] = len(idx)
    m["neural.fit_s"] = busy(idx)
    m["neural.loss_evals"] = len(pick("nnfvi.neural.loss"))
    m["neural.restarts_discarded"] = discarded
    m["neural.self_s"] = self_s["neural"]

    idx = pick("nnfvi.fvi.bellman_target")
    m["fvi.targets"] = len(idx)
    m["fvi.targets_s"] = busy(idx)
    m["fvi.target_p50_ms"] = 1e3 * statistics.median(dur[i] for i in idx) if idx else 0.0
    m["fvi.self_s"] = self_s["fvi"]

    idx = pick("nnfvi.mcip.operating_profit")
    m["mcip.profit_calls"] = len(idx)
    m["mcip.profit_s"] = busy(idx)
    idx = pick("nnfvi.mcip.policy")
    m["mcip.policy_calls"] = len(idx)
    m["mcip.policy_s"] = busy(idx)
    idx = pick("nnfvi.mcip.simulate_policy_on_paths")
    m["mcip.sim_paths"] = sum(spans[i][INFO] for i in idx if not spans[i][FAILED])
    m["mcip.sim_s"] = busy(idx)
    m["mcip.sim_self_s"] = sum(own[i] for i in idx)
    m["mcip.inflexible_s"] = busy(pick("nnfvi.mcip.inflexible_two_stage"))
    m["mcip.self_s"] = self_s["mcip"]
    m["bench.self_s"] = self_s[ROOT_LAYER]
    return m


def self_shares(metrics: dict, wall_s: float) -> dict:
    """Each layer's self time as a percentage of the pass's wall time."""
    return {name: 100.0 * metrics[f"{name}.self_s"] / wall_s
            for name in LAYERS + (ROOT_LAYER,)}
