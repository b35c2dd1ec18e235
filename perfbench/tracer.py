"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each ``cfbench`` layer at the
attribute the pipeline looks them up through (``cfgen.gower_cross`` rather
than ``distance.gower_cross``, the ``RandomForestModel.predict_proba_batch``
method that ``predict_proba`` calls, ``forest.fit_forest`` that ``tune`` calls
by module global). Each call becomes a span: name, start, end, parent span,
request id and a few counts. Spans stay in memory and ``dump`` writes them
out once, at the end. An attribute a later version no longer has is recorded
as missing, and ``summarize`` reports the metrics that need it as absent.

``summarize`` turns a dumped trace into the per-layer metrics of
``METRICS``; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

# (metric name, unit) in the order they are reported
METRICS = (
    ("forest.fit_calls", "count"), ("forest.trees", "count"), ("forest.nodes", "count"),
    ("forest.fit_s", "s"), ("forest.ms_per_tree", "ms"), ("forest.tune_s", "s"),
    ("forest.evaluate_s", "s"),
    ("forest.predict_calls", "count"), ("forest.predict_rows", "count"),
    ("forest.predict_s", "s"), ("forest.predict_rows_per_s", "1/s"),
    ("forest.predict_calls_1", "count"), ("forest.predict_s_1", "s"),
    ("forest.predict_calls_le100", "count"), ("forest.predict_s_le100", "s"),
    ("forest.predict_calls_gt100", "count"), ("forest.predict_s_gt100", "s"),
    ("forest.predict_calls_pool", "count"),
    ("forest.save_s", "s"), ("forest.save_bytes", "bytes"),
    ("distance.cross_calls", "count"), ("distance.cross_pairs", "count"),
    ("distance.cross_s", "s"), ("distance.many_calls", "count"),
    ("distance.many_rows", "count"), ("distance.many_s", "s"),
    ("cfgen.whatif_s", "s"), ("cfgen.whatif_self_s", "s"), ("cfgen.whatif_ms_p50", "ms"),
    ("cfgen.nice_s", "s"), ("cfgen.nice_self_s", "s"), ("cfgen.nice_ms_p50", "ms"),
    ("cfgen.nice_ms_p90", "ms"), ("cfgen.moc_s", "s"), ("cfgen.moc_self_s", "s"),
    ("cfgen.moc_ms_p50", "ms"),
    ("cfgen.whatif_requests", "count"), ("cfgen.nice_requests", "count"),
    ("cfgen.nice_iterations", "count"), ("cfgen.moc_requests", "count"),
    ("cfgen.moc_archive", "count"), ("cfgen.moc_front", "count"), ("cfgen.cfs", "count"),
    ("cfgen.moc_yield", "ratio"), ("cfgen.requests_out_of_range", "count"),
    ("cfeval.score_calls", "count"), ("cfeval.score_s", "s"), ("cfeval.score_self_s", "s"),
    ("cfeval.valid_ratio", "ratio"),
    ("dataset.ingest_s", "s"), ("dataset.load_s", "s"), ("dataset.split_s", "s"),
    ("balance.resample_s", "s"), ("balance.rows_out", "count"),
    ("bench.block_s", "s"), ("bench.cell_s", "s"), ("bench.write_s", "s"),
    ("bench.write_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _forest_info(result):
    info = {"trees": result.n_trees}
    trees = getattr(result, "trees", None)
    if trees is not None and all(hasattr(t, "feature") for t in trees):
        info["nodes"] = sum(int(t.feature.size) for t in trees)
    return info


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request_id, info]
        self.installed: set[str] = set()
        self.missing: dict[str, list[str]] = {}  # span name -> attributes not found
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pool_rows = -1

    def install(self) -> None:
        from cfbench import bench, cfeval, cfgen, dataset, forest

        def request_of_req(args, kwargs):
            return getattr(args[0], "request_id", None)

        def set_pool(args, kwargs, result):
            self._pool_rows = _rows(result[0].features)
            return {"rows_out": self._pool_rows}

        def predict_info(args, kwargs, result):
            rows = _rows(args[1])
            return {"rows": rows, "pool": rows == self._pool_rows}

        def out_of_range(req) -> bool:
            lo, hi = req.bounds[:, 0], req.bounds[:, 1]
            return bool(((req.x < lo) | (req.x > hi)).any())

        def gen_info(args, kwargs, result):
            return {"cfs": len(result), "oor": out_of_range(args[0])}

        def nice_info(args, kwargs, result):
            return {"cfs": 1, "iterations": result.generation_meta.get("iterations", 0),
                    "oor": out_of_range(args[0])}

        def moc_info(args, kwargs, result):
            cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            meta = result[0].generation_meta if result else {}
            return {"cfs": len(result), "archive": meta.get("archive_size", 0),
                    "front": meta.get("front_size", 0),
                    "candidates": cfg.population * (cfg.generations + 1),
                    "oor": out_of_range(args[0])}

        wraps = [
            ("bench", "run", "bench.run", None, None),
            ("dataset", "ingest_oulad", "dataset.ingest", None, None),
            ("bench", "load_data", "dataset.load", None, None),
            ("bench", "stratified_split", "dataset.split", None, None),
            ("bench", "prepare_training", "balance.resample", None, set_pool),
            ("bench", "fit_block", "bench.block", None, None),
            ("bench", "generate_for_cell", "bench.cell", None, None),
            ("bench", "_atomic_write", "bench.write", None,
             lambda a, k, r: {"bytes": _file_bytes(a[0])}),
            ("bench", "_atomic_json", "bench.write", None,
             lambda a, k, r: {"bytes": _file_bytes(a[0])}),
            ("bench.RunManifest", "save", "bench.write", None,
             lambda a, k, r: {"bytes": _file_bytes(a[1])}),
            ("forest", "tune", "forest.tune", None, None),
            ("forest", "fit_forest", "forest.fit", None, lambda a, k, r: _forest_info(r)),
            ("forest", "evaluate", "forest.evaluate", None, None),
            ("forest.RandomForestModel", "predict_proba_batch", "forest.predict", None,
             predict_info),
            ("forest", "save_model", "forest.save", None,
             lambda a, k, r: {"bytes": _file_bytes(a[1])}),
            ("cfgen", "gower_cross", "distance.cross", None,
             lambda a, k, r: {"pairs": _rows(a[0]) * _rows(a[1])}),
            ("cfgen", "gower_many", "distance.many", None, lambda a, k, r: {"rows": _rows(a[0])}),
            ("cfgen", "heom_many", "distance.many", None, lambda a, k, r: {"rows": _rows(a[0])}),
            ("cfeval", "gower_many", "distance.many", None, lambda a, k, r: {"rows": _rows(a[0])}),
            ("cfgen", "whatif", "cfgen.whatif", request_of_req, gen_info),
            ("cfgen", "nice", "cfgen.nice", request_of_req, nice_info),
            ("cfgen", "moc", "cfgen.moc", request_of_req, moc_info),
            ("cfeval", "score", "cfeval.score", lambda a, k: k.get("request_id"),
             lambda a, k, r: {"valid": int(r.validity == 1)}),
        ]
        modules = {"bench": bench, "cfeval": cfeval, "cfgen": cfgen, "dataset": dataset,
                   "forest": forest}
        for path, attr, name, request_of, info_of in wraps:
            head, *rest = path.split(".")
            owner = modules[head]
            for part in rest:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if callable(original):
                self._wrap(owner, attr, original, name, request_of, info_of)
                self.installed.add(name)
            else:
                self.missing.setdefault(name, []).append(f"cfbench.{path}.{attr} not found")

    def _wrap(self, owner, attr, original, name, request_of, info_of) -> None:
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            request_id = request_of(args, kwargs) if request_of else None
            if request_id is None and parent >= 0:
                request_id = spans[parent][4]
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, request_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info_of is not None:
                span[5] = info_of(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path, grid_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"grid_s": grid_s, "installed": sorted(self.installed),
                       "missing": self.missing, "spans": self.spans}, fh)


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_self_seconds(trace: dict) -> dict:
    """Self time per layer (the span-name prefix) inside the grid run, largest first."""
    spans = trace["spans"]
    in_run = [False] * len(spans)
    layers: dict[str, float] = {}
    for i, (span, own) in enumerate(zip(spans, _self_times(spans))):
        in_run[i] = span[0] == "bench.run" or (span[3] >= 0 and in_run[span[3]])
        if in_run[i]:
            layer = span[0].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def summarize(trace: dict, untraced_grid_s: float) -> dict:
    """Per-layer metrics from a dumped trace: name -> {"value", "unit"}.

    A metric whose span was not installed reads ``None`` with an ``absent``
    reason; a percentile over no calls reads 0.
    """
    spans = trace["spans"]
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in idx(name))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def info_sum(name, key, where=None):
        return sum((spans[i][5] or {}).get(key, 0) for i in idx(name)
                   if where is None or where(spans[i][5] or {}))

    def pct_ms(name, q):
        ms = sorted(1000.0 * (spans[i][2] - spans[i][1]) for i in idx(name))
        if not ms:
            return 0.0
        if len(ms) == 1 or q == 50:
            return statistics.median(ms)
        return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]

    def predict(where):
        calls = [i for i in idx("forest.predict") if where((spans[i][5] or {}).get("rows", 0))]
        return len(calls), sum(spans[i][2] - spans[i][1] for i in calls)

    trees = info_sum("forest.fit", "trees")
    fit_s = total("forest.fit")
    predict_rows = info_sum("forest.predict", "rows")
    predict_s = total("forest.predict")
    calls_1, s_1 = predict(lambda r: r == 1)
    calls_le100, s_le100 = predict(lambda r: 1 < r <= 100)
    calls_gt100, s_gt100 = predict(lambda r: r > 100)
    score_calls = len(idx("cfeval.score"))
    gen = ("cfgen.whatif", "cfgen.nice", "cfgen.moc")
    moc_candidates = info_sum("cfgen.moc", "candidates")

    values = {
        "forest.fit_calls": len(idx("forest.fit")),
        "forest.trees": trees,
        "forest.nodes": info_sum("forest.fit", "nodes"),
        "forest.fit_s": fit_s,
        "forest.ms_per_tree": 1000.0 * fit_s / trees if trees else 0.0,
        "forest.tune_s": total("forest.tune"),
        "forest.evaluate_s": total("forest.evaluate"),
        "forest.predict_calls": len(idx("forest.predict")),
        "forest.predict_rows": predict_rows,
        "forest.predict_s": predict_s,
        "forest.predict_rows_per_s": predict_rows / predict_s if predict_s else 0.0,
        "forest.predict_calls_1": calls_1, "forest.predict_s_1": s_1,
        "forest.predict_calls_le100": calls_le100, "forest.predict_s_le100": s_le100,
        "forest.predict_calls_gt100": calls_gt100, "forest.predict_s_gt100": s_gt100,
        "forest.predict_calls_pool": info_sum("forest.predict", "pool"),
        "forest.save_s": total("forest.save"),
        "forest.save_bytes": info_sum("forest.save", "bytes"),
        "distance.cross_calls": len(idx("distance.cross")),
        "distance.cross_pairs": info_sum("distance.cross", "pairs"),
        "distance.cross_s": total("distance.cross"),
        "distance.many_calls": len(idx("distance.many")),
        "distance.many_rows": info_sum("distance.many", "rows"),
        "distance.many_s": total("distance.many"),
        "cfgen.whatif_s": total("cfgen.whatif"),
        "cfgen.whatif_self_s": self_total("cfgen.whatif"),
        "cfgen.whatif_ms_p50": pct_ms("cfgen.whatif", 50),
        "cfgen.nice_s": total("cfgen.nice"),
        "cfgen.nice_self_s": self_total("cfgen.nice"),
        "cfgen.nice_ms_p50": pct_ms("cfgen.nice", 50),
        "cfgen.nice_ms_p90": pct_ms("cfgen.nice", 90),
        "cfgen.moc_s": total("cfgen.moc"),
        "cfgen.moc_self_s": self_total("cfgen.moc"),
        "cfgen.moc_ms_p50": pct_ms("cfgen.moc", 50),
        "cfgen.whatif_requests": len(idx("cfgen.whatif")),
        "cfgen.nice_requests": len(idx("cfgen.nice")),
        "cfgen.nice_iterations": info_sum("cfgen.nice", "iterations"),
        "cfgen.moc_requests": len(idx("cfgen.moc")),
        "cfgen.moc_archive": info_sum("cfgen.moc", "archive"),
        "cfgen.moc_front": info_sum("cfgen.moc", "front"),
        "cfgen.cfs": sum(info_sum(name, "cfs") for name in gen),
        "cfgen.moc_yield": (info_sum("cfgen.moc", "archive") / moc_candidates
                            if moc_candidates else 0.0),
        "cfgen.requests_out_of_range": sum(info_sum(name, "oor") for name in gen),
        "cfeval.score_calls": score_calls,
        "cfeval.score_s": total("cfeval.score"),
        "cfeval.score_self_s": self_total("cfeval.score"),
        "cfeval.valid_ratio": (info_sum("cfeval.score", "valid") / score_calls
                               if score_calls else 0.0),
        "dataset.ingest_s": total("dataset.ingest"),
        "dataset.load_s": total("dataset.load"),
        "dataset.split_s": total("dataset.split"),
        "balance.resample_s": total("balance.resample"),
        "balance.rows_out": info_sum("balance.resample", "rows_out"),
        "bench.block_s": total("bench.block"),
        "bench.cell_s": total("bench.cell"),
        "bench.write_s": total("bench.write"),
        "bench.write_bytes": info_sum("bench.write", "bytes"),
        "trace.overhead_s": trace["grid_s"] - untraced_grid_s,
    }
    absent = _absent(trace, spans)
    out = {}
    for name, unit in METRICS:
        if name in absent:
            out[name] = {"value": None, "unit": unit, "absent": absent[name]}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


def _absent(trace: dict, spans) -> dict:
    """Metric name -> reason, for metrics whose spans could not be installed."""
    needs = {
        "forest.fit": [m for m, _ in METRICS if m.startswith("forest.") and
                       m.split(".")[1] in ("fit_calls", "trees", "nodes", "fit_s", "ms_per_tree")],
        "forest.tune": ["forest.tune_s"],
        "forest.evaluate": ["forest.evaluate_s"],
        "forest.predict": [m for m, _ in METRICS if m.startswith("forest.predict")],
        "forest.save": ["forest.save_s", "forest.save_bytes"],
        "distance.cross": [m for m, _ in METRICS if m.startswith("distance.cross")],
        "distance.many": [m for m, _ in METRICS if m.startswith("distance.many")],
        "cfgen.whatif": [m for m, _ in METRICS if m.startswith("cfgen.whatif")],
        "cfgen.nice": [m for m, _ in METRICS if m.startswith("cfgen.nice")],
        "cfgen.moc": [m for m, _ in METRICS if m.startswith("cfgen.moc")],
        "cfeval.score": [m for m, _ in METRICS if m.startswith("cfeval.")],
        "dataset.ingest": ["dataset.ingest_s"],
        "dataset.load": ["dataset.load_s"],
        "dataset.split": ["dataset.split_s"],
        "balance.resample": ["balance.resample_s", "balance.rows_out"],
        "bench.block": ["bench.block_s"],
        "bench.cell": ["bench.cell_s"],
        "bench.write": ["bench.write_s", "bench.write_bytes"],
    }
    absent = {}
    installed = set(trace["installed"])
    for span_name, metrics in needs.items():
        if span_name not in installed:
            reason = "; ".join(trace["missing"].get(span_name, ["not installed"]))
            absent.update((metric, reason) for metric in metrics)
    if "forest.fit" in installed and any(
            s[0] == "forest.fit" and "nodes" not in (s[5] or {}) for s in spans):
        absent["forest.nodes"] = "fitted model has no per-tree node arrays"
    return absent
