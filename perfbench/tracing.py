"""Outside-in tracing of the s3harm layers for the benchmark's traced run.

`install` wraps public functions of each layer by replacing the module
attribute and every name another s3harm module bound to the same object
with `from ... import`.  Coarse calls become spans (name, start, end,
parent, run id); high-frequency calls only bump a count and, where timed,
a busy time.  Everything stays in memory until `Tracer.document` is
written out at the end of the process.

`layer_metrics` turns the documents of one pass into the per-layer
metrics listed in BENCHMARK.json.  It and `self_times` need no numpy and
no s3harm, so the benchmark parent and the self-test import them freely.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "groupcore", "su2", "deck", "wigner", "bases", "induced")
# Busy time of these layers is also tracked as one union, to show how much
# of a pass the numeric harmonic work covers.
NUMERIC_UNION = "wigner+bases"

# (module, attribute, layer); attribute may be Class.method.
SPANS = (
    ("s3harm.cli", "main", "cli"),
    ("s3harm.cli", "cmd_group", "cli"),
    ("s3harm.cli", "cmd_multiplicity", "cli"),
    ("s3harm.cli", "cmd_basis", "cli"),
    ("s3harm.cli", "cmd_induced", "cli"),
    ("s3harm.cli", "cmd_verify", "cli"),
    ("s3harm.groupcore", "closure", "groupcore"),
    ("s3harm.deck", "build_cyclic8", "deck"),
    ("s3harm.deck", "build_quaternion", "deck"),
    ("s3harm.deck", "verify_deck_group", "deck"),
    ("s3harm.wigner", "euler_quadrature", "wigner"),
    ("s3harm.bases", "gram_matrix", "bases"),
    ("s3harm.bases", "projector_c8", "bases"),
    ("s3harm.bases", "projector_q", "bases"),
    ("s3harm.bases", "verify_basis", "bases"),
    ("s3harm.induced", "irrep_census", "induced"),
)

# (module, attribute, layer, timed)
COUNTERS = (
    ("s3harm.groupcore", "multiply", "groupcore", False),
    ("s3harm.groupcore", "apply", "groupcore", False),
    ("s3harm.su2", "lift_even_word", "su2", True),
    ("s3harm.su2", "matrix_from_point", "su2", True),
    ("s3harm.su2", "point_from_matrix", "su2", True),
    ("s3harm.wigner", "wigner_entry", "wigner", True),
    ("s3harm.wigner", "EulerAngles.matrix_entries", "wigner", True),
    ("s3harm.wigner", "wigner_d", "wigner", True),
    ("s3harm.bases", "BasisFunction.evaluate", "bases", True),
    ("s3harm.induced", "induced_character", "induced", False),
)

# lru caches whose cache_info() feeds a hit ratio: metric -> (module, attributes)
CACHES = {
    "deck.build": ("s3harm.deck", ("build_cyclic8", "build_quaternion")),
    "wigner.terms": ("s3harm.wigner", ("_entry_terms",)),
}

COMPLEX_BYTES = 16


class Tracer:
    """In-memory spans, counters and per-layer busy time for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.import_s = 0.0
        self._stack: list[int] = []
        self._depth: dict[str, list] = {}
        self._caches: dict[str, list] = {}

    def _enter(self, keys, now):
        for key in keys:
            slot = self._depth.get(key)
            if slot is None or slot[0] == 0:
                self._depth[key] = [1, now]
            else:
                slot[0] += 1

    def _exit(self, keys, now):
        for key in keys:
            slot = self._depth[key]
            slot[0] -= 1
            if slot[0] == 0:
                self.busy[key] += now - slot[1]

    def span_wrapper(self, name, layer, fn, hook):
        keys = _busy_keys(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "attrs": {},
            }
            self.spans.append(record)
            self._stack.append(record["id"])
            start = time.perf_counter()
            self._enter(keys, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._exit(keys, end)
                self._stack.pop()
                record["start"], record["end"] = start, end
            if hook is not None:
                hook(self, args, kwargs, result, record["attrs"])
            return result

        return wrapper

    def counter_wrapper(self, name, layer, fn, timed, hook):
        slot = self.counters[name]
        keys = _busy_keys(layer)

        if not timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            self._enter(keys, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._exit(keys, end)
                slot[0] += 1
                slot[1] += end - start
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return wrapper

    def document(self) -> dict:
        """Everything recorded so far, as one JSON-able dict."""
        caches = {}
        for metric, infos in self._caches.items():
            hits = sum(fn.cache_info().hits for fn in infos)
            misses = sum(fn.cache_info().misses for fn in infos)
            caches[metric] = {"hits": hits, "calls": hits + misses}
        return {
            "run_id": self.run_id,
            "import_s": self.import_s,
            "spans": self.spans,
            "counters": {k: {"calls": v[0], "busy_s": v[1]} for k, v in self.counters.items()},
            "sums": dict(self.sums),
            "maxima": dict(self.maxima),
            "busy": dict(self.busy),
            "caches": caches,
        }


def _busy_keys(layer: str) -> tuple[str, ...]:
    return (layer, NUMERIC_UNION) if layer in ("wigner", "bases") else (layer,)


# ---------------------------------------------------------------- hooks
# Hooks run after the wrapped call returns and record sizes.  They read
# arguments the way every call site in s3harm passes them.


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _closure_hook(tr, args, kwargs, result, attrs):
    tr.sums["groupcore.closure_elements"] += len(result)


def _deck_verify_hook(tr, args, kwargs, result, attrs):
    tr.sums["deck.pair_checks"] += result["order"] * result["n_points"]


def _quadrature_hook(tr, args, kwargs, result, attrs):
    attrs["nodes"] = result.node_count
    tr.sums["wigner.quadrature_nodes"] += result.node_count


def _gram_hook(tr, args, kwargs, result, attrs):
    attrs["functions"] = len(_arg(args, kwargs, 0, "functions"))
    rule = _arg(args, kwargs, 1, "rule")
    if rule is not None:
        attrs["nodes"] = rule.node_count


def _projector_hook(tr, args, kwargs, result, attrs):
    attrs["j"] = int(_arg(args, kwargs, 0, "j"))


def _verify_basis_hook(tr, args, kwargs, result, attrs):
    key = "bases.gram_err"
    tr.maxima[key] = max(tr.maxima[key], float(result.get("gram_max_error", 0.0)))


def _entry_hook(tr, args, kwargs, result, attrs):
    j, m1, m2 = (_arg(args, kwargs, i, n) for i, n in enumerate(("j", "m1", "m2")))
    two_j, two_m1, two_m2 = (int(round(2 * float(v))) for v in (j, m1, m2))
    jm1, jm2, m1m2 = (two_j + two_m1) // 2, (two_j + two_m2) // 2, (two_m1 + two_m2) // 2
    terms = max(0, min(jm1, jm2) - max(0, m1m2) + 1)
    points = _size(result)
    tr.sums["wigner.entry_points"] += points
    tr.sums["wigner.monomial_terms"] += terms * points


def _wigner_d_hook(tr, args, kwargs, result, attrs):
    import numpy as np

    err = float(np.max(np.abs(result @ result.conj().T - np.eye(result.shape[0]))))
    tr.maxima["wigner.unitarity_err"] = max(tr.maxima["wigner.unitarity_err"], err)


def _size(value) -> int:
    shape = getattr(value, "shape", ())
    count = 1
    for n in shape:
        count *= n
    return count


HOOKS = {
    "closure": _closure_hook,
    "verify_deck_group": _deck_verify_hook,
    "euler_quadrature": _quadrature_hook,
    "gram_matrix": _gram_hook,
    "projector_c8": _projector_hook,
    "projector_q": _projector_hook,
    "verify_basis": _verify_basis_hook,
    "wigner_entry": _entry_hook,
    "wigner_d": _wigner_d_hook,
}


# ---------------------------------------------------------------- install


def _rebind(original, replacement) -> int:
    """Point every s3harm module global that is `original` at `replacement`."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "s3harm" or mod_name.startswith("s3harm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call after `import s3harm.cli`."""
    for metric, (module_name, attrs) in CACHES.items():
        module = importlib.import_module(module_name)
        tracer._caches[metric] = [getattr(module, a) for a in attrs]
    for module_name, attr, layer in SPANS:
        _wrap(tracer, module_name, attr, layer, span=True, timed=True)
    for module_name, attr, layer, timed in COUNTERS:
        _wrap(tracer, module_name, attr, layer, span=False, timed=timed)


def _wrap(tracer, module_name, attr, layer, span, timed):
    module = importlib.import_module(module_name)
    name = f"{module_name.split('.')[-1]}.{attr}"
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else None
    original = inspect.getattr_static(owner, method) if owner else getattr(module, attr)
    hook = HOOKS.get(method)
    if span:
        wrapper = tracer.span_wrapper(name, layer, original, hook)
    else:
        wrapper = tracer.counter_wrapper(name, layer, original, timed, hook)
    if owner is not None:
        setattr(owner, method, wrapper)
    elif _rebind(original, wrapper) == 0:
        raise RuntimeError(f"could not trace {name}: not found in any s3harm module")


# ---------------------------------------------------------------- analysis


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered_length(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


# Per-layer metric names, units and how each is read from the trace
# documents of one pass.  "computed" marks sizes derived by formula rather
# than measured.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.calls": "count",
    "cli.main_self_s": "s",
    "groupcore.closure_s": "s",
    "groupcore.closure_calls": "count",
    "groupcore.closure_elements": "count",
    "groupcore.multiply_calls": "count",
    "groupcore.apply_calls": "count",
    "su2.lift_s": "s",
    "su2.lift_calls": "count",
    "su2.point_map_calls": "count",
    "su2.point_map_s": "s",
    "deck.build_s": "s",
    "deck.build_calls": "count",
    "deck.build_cache_hit_ratio": "ratio",
    "deck.verify_s": "s",
    "deck.pair_checks": "count",
    "wigner.entry_calls": "count",
    "wigner.entry_s": "s",
    "wigner.entry_points": "count",
    "wigner.monomial_terms": "count",
    "wigner.terms_cache_hit_ratio": "ratio",
    "wigner.matrix_entries_calls": "count",
    "wigner.matrix_entries_s": "s",
    "wigner.quadrature_s": "s",
    "wigner.quadrature_nodes": "count",
    "wigner.d_calls": "count",
    "wigner.d_s": "s",
    "wigner.unitarity_err": "abs",
    "bases.gram_s": "s",
    "bases.gram_calls": "count",
    "bases.gram_functions": "count",
    "bases.gram_nodes": "count",
    "bases.gram_bytes": "B",
    "bases.evaluate_calls": "count",
    "bases.evaluate_s": "s",
    "bases.projector_s": "s",
    "bases.projector_calls": "count",
    "bases.projector_bytes": "B",
    "bases.verify_s": "s",
    "bases.verify_self_s": "s",
    "bases.gram_err": "abs",
    "induced.census_s": "s",
    "induced.census_calls": "count",
    "induced.character_calls": "count",
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    "trace.wigner_bases_busy_s": "s",
    "trace.wigner_bases_share": "ratio",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}

COMPUTED = ("wigner.monomial_terms", "bases.gram_bytes", "bases.projector_bytes")

# span name -> (duration metric, call-count metric); None where not reported
SPAN_METRICS = {
    "cli.main": (None, "cli.calls"),
    "groupcore.closure": ("groupcore.closure_s", "groupcore.closure_calls"),
    "deck.build_cyclic8": ("deck.build_s", "deck.build_calls"),
    "deck.build_quaternion": ("deck.build_s", "deck.build_calls"),
    "deck.verify_deck_group": ("deck.verify_s", None),
    "wigner.euler_quadrature": ("wigner.quadrature_s", None),
    "bases.gram_matrix": ("bases.gram_s", "bases.gram_calls"),
    "bases.projector_c8": ("bases.projector_s", "bases.projector_calls"),
    "bases.projector_q": ("bases.projector_s", "bases.projector_calls"),
    "bases.verify_basis": ("bases.verify_s", None),
    "induced.irrep_census": ("induced.census_s", "induced.census_calls"),
}
# spans whose self time is a metric
SELF_METRICS = {"cli.main": "cli.main_self_s", "bases.verify_basis": "bases.verify_self_s"}
# counter name -> (call-count metric, busy metric or None for untimed counters)
COUNTER_METRICS = {
    "groupcore.multiply": ("groupcore.multiply_calls", None),
    "groupcore.apply": ("groupcore.apply_calls", None),
    "su2.lift_even_word": ("su2.lift_calls", "su2.lift_s"),
    "su2.matrix_from_point": ("su2.point_map_calls", "su2.point_map_s"),
    "su2.point_from_matrix": ("su2.point_map_calls", "su2.point_map_s"),
    "wigner.wigner_entry": ("wigner.entry_calls", "wigner.entry_s"),
    "wigner.EulerAngles.matrix_entries": ("wigner.matrix_entries_calls", "wigner.matrix_entries_s"),
    "wigner.wigner_d": ("wigner.d_calls", "wigner.d_s"),
    "bases.BasisFunction.evaluate": ("bases.evaluate_calls", "bases.evaluate_s"),
    "induced.induced_character": ("induced.character_calls", None),
}
CACHE_RATIOS = {"deck.build_cache_hit_ratio": "deck.build", "wigner.terms_cache_hit_ratio": "wigner.terms"}


def _gram_sizes(span, spans) -> tuple[int, int]:
    """(functions, nodes) of one gram_matrix span; without a rule argument
    the nodes are those of the quadrature it built."""
    nodes = span["attrs"].get("nodes")
    if nodes is None:
        nodes = sum(
            c["attrs"].get("nodes", 0)
            for c in spans
            if c["parent"] == span["id"] and c["name"] == "wigner.euler_quadrature"
        )
    return span["attrs"].get("functions", 0), nodes


def layer_metrics(docs: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass from its process documents.

    Returns (metrics, bases) where bases gives the denominator of each
    ratio.  The trace.* run-time entries are filled in by the caller.
    """
    m = defaultdict(float)
    hits = defaultdict(int)
    calls = defaultdict(int)
    for doc in docs:
        spans = doc["spans"]
        selfs = self_times(spans)
        for s in spans:
            dur_metric, count_metric = SPAN_METRICS.get(s["name"], (None, None))
            if dur_metric:
                m[dur_metric] += s["end"] - s["start"]
            if count_metric:
                m[count_metric] += 1
            if s["name"] in SELF_METRICS:
                m[SELF_METRICS[s["name"]]] += selfs[s["id"]]
            if s["name"] == "bases.gram_matrix":
                functions, nodes = _gram_sizes(s, spans)
                m["bases.gram_functions"] += functions
                m["bases.gram_nodes"] += nodes
                m["bases.gram_bytes"] = max(m["bases.gram_bytes"], functions * nodes * COMPLEX_BYTES * 2)
            elif s["name"] in ("bases.projector_c8", "bases.projector_q"):
                dim = 2 * s["attrs"].get("j", 0) + 1
                m["bases.projector_bytes"] = max(m["bases.projector_bytes"], dim**4 * COMPLEX_BYTES)
        for name, counter in doc["counters"].items():
            count_metric, busy_metric = COUNTER_METRICS[name]
            m[count_metric] += counter["calls"]
            if busy_metric:
                m[busy_metric] += counter["busy_s"]
        for key, value in doc["sums"].items():
            m[key] += value
        for key, value in doc["maxima"].items():
            m[key] = max(m[key], value)
        for layer in LAYERS:
            m[f"{layer}.busy_s"] += doc["busy"].get(layer, 0.0)
        m["trace.wigner_bases_busy_s"] += doc["busy"].get(NUMERIC_UNION, 0.0)
        for key, info in doc["caches"].items():
            hits[key] += info["hits"]
            calls[key] += info["calls"]
    m["cli.import_s"] = statistics.median(doc["import_s"] for doc in docs) if docs else 0.0
    bases = {}
    for metric, key in CACHE_RATIOS.items():
        m[metric] = hits[key] / calls[key] if calls[key] else 0.0
        bases[metric] = calls[key]
    return dict(m), bases
