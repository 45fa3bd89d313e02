"""Outside-in tracing of sgdetect for the benchmark's per-layer metrics.

The tracer patches public functions and methods of the package where their
callers look them up (``sgdetect.engine.similar_grid``, ``sgdetect.detectors.
z_detector``, class attributes such as ``GILayer.forward``), and proxies the
target ``g`` and cut callables that the benchmark passes in.  Nothing inside
``src/`` is changed.

Every patched call records a span ``[name, start, end, parent, iteration,
child_s]`` in memory; ``child_s`` accumulates the time of the spans and leaf
calls directly below it, so a span's self time is its duration minus
``child_s``.  The hottest calls (``Box.contains``, the target ``g``, the cut
and its ``segment_roots``) are leaf calls: they add to per-name call, point
and time totals and to their parent's ``child_s`` but store no span, which
keeps memory bounded on runs with millions of them.  Iteration ``-1`` is
set-up.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import TAU

#: module of each leaf call, for the self-time table; g is the caller's
#: target function, not package code, so it gets a row of its own
LEAF_MODULES = {
    "sparse_grid.Box.contains": "sparse_grid",
    "engine.g": "target_g",
    "synth_data.g": "target_g",
    "detectors.cut": "detectors",
    "detectors.segment_roots": "detectors",
    "evaluation.cut": "detectors",
    "evaluation.segment_roots": "detectors",
}

#: per-layer metrics: name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "sparse_grid.build_sparse_grid.s": "s",
    "sparse_grid.similar_grid.calls": "count",
    "sparse_grid.similar_grid.s": "s",
    "sparse_grid.Box.contains.calls": "count",
    "sparse_grid.Box.contains.s": "s",
    "grid_graph.build_grid_graph.s": "s",
    "grid_graph.diameter.s": "s",
    "engine.run.s": "s",
    "engine.self_s": "s",
    "engine.grids_visited": "count",
    "engine.generations": "count",
    "engine.detector_calls": "count",
    "engine.evaluations": "count",
    "engine.cache_hits": "count",
    "engine.cache_hit_ratio": "ratio",
    "engine.troubled": "count",
    "engine.new_point_ratio": "ratio",
    "engine.g.calls": "count",
    "engine.g.points": "count",
    "engine.g.s": "s",
    "detectors.detect_batch.exact.calls": "count",
    "detectors.detect_batch.exact.s": "s",
    "detectors.detect_batch.zlevel.calls": "count",
    "detectors.detect_batch.zlevel.s": "s",
    "detectors.detect_batch.nn.calls": "count",
    "detectors.detect_batch.nn.s": "s",
    "detectors.z_detector.calls": "count",
    "detectors.z_detector.s": "s",
    "detectors.exact_troubled_oracle.calls": "count",
    "detectors.exact_troubled_oracle.s": "s",
    "detectors.cut.points": "count",
    "detectors.cut.s": "s",
    "detectors.troubled_ratio": "ratio",
    "synth_data.generate_dataset.s": "s",
    "synth_data.samples": "count",
    "synth_data.g.points": "count",
    "synth_data.balance_dataset.s": "s",
    "synth_data.split_dataset.s": "s",
    "synth_data.save_dataset.s": "s",
    "synth_data.load_dataset.s": "s",
    "synth_data.dataset_bytes": "bytes",
    "synth_data.preprocess_gamma_batch.s": "s",
    "neural.GILayer.forward.s": "s",
    "neural.GILayer.backward.s": "s",
    "neural.BatchNorm.forward.s": "s",
    "neural.BatchNorm.backward.s": "s",
    "neural.DenseLayer.forward.s": "s",
    "neural.DenseLayer.backward.s": "s",
    "neural.ArchetypeModel.forward.s": "s",
    "neural.ArchetypeModel.backward.s": "s",
    "neural.ArchetypeModel.predict.s": "s",
    "neural.Adam.step.calls": "count",
    "neural.Adam.step.s": "s",
    "neural.weighted_bce.s": "s",
    "neural.train.s": "s",
    "neural.epochs": "count",
    "neural.load_model.s": "s",
    "evaluation.tpr.s": "s",
    "evaluation.tpr.points": "count",
    "evaluation.segment_roots.calls": "count",
    "evaluation.cut.points": "count",
    "evaluation.edges_per_point": "ratio",
    "self.sparse_grid.s": "s",
    "self.grid_graph.s": "s",
    "self.engine.s": "s",
    "self.detectors.s": "s",
    "self.synth_data.s": "s",
    "self.neural.s": "s",
    "self.evaluation.s": "s",
    "self.target_g.s": "s",
    "self.harness.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

MODULES = ("sparse_grid", "grid_graph", "engine", "detectors", "synth_data", "neural",
           "evaluation", "target_g", "harness")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        # (name, iteration) -> [calls, points, seconds]
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0, 0.0])
        # (name, iteration) -> value
        self.counters: dict[tuple, float] = defaultdict(float)
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def inside(self, name: str) -> bool:
        return self._open_names[name] > 0

    def count(self, name: str, value: float) -> None:
        self.counters[(name, self.iteration)] += value

    def leaf(self, name: str, seconds: float, points: int = 0) -> None:
        rec = self.leaves[(name, self.iteration)]
        rec[0] += 1
        rec[1] += points
        rec[2] += seconds
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.iteration, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open_names[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = end = perf_counter()
            self._stack.pop()
            self._open_names[name] -= 1
            if parent >= 0:
                self.spans[parent][5] += end - span[1]

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def patch_leaf(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.leaf(name, perf_counter() - t0)

        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics name."""
        from sgdetect import detectors, engine, evaluation, grid_graph, sparse_grid, synth_data
        from sgdetect.neural import layers, model, training

        self.patch(sparse_grid, "build_sparse_grid", "sparse_grid.build_sparse_grid")
        self.patch(engine, "similar_grid", "sparse_grid.similar_grid")
        self.patch_leaf(sparse_grid.Box, "contains", "sparse_grid.Box.contains")
        self.patch(grid_graph, "build_grid_graph", "grid_graph.build_grid_graph")
        self.patch(grid_graph.GridGraph, "diameter", "grid_graph.diameter")

        def engine_counts(args, kwargs, run):
            grid = kwargs["grid"] if "grid" in kwargs else args[1]
            self.count("engine.grids_visited", run.grids_visited)
            self.count("engine.generations", len(run.generation_sizes))
            self.count("engine.detector_calls", run.detector_calls)
            self.count("engine.evaluations", run.evaluations)
            self.count("engine.cache_hits", run.cache_hits)
            self.count("engine.troubled", len(run.troubled))
            self.count("engine.visited_points", run.visited_points)
            self.count("engine.placed_points", run.grids_visited * grid.n_points)

        for attr in ("run_batched", "run_basic"):
            self.patch(engine, attr, "engine.run", on_result=engine_counts)

        def ratio(args, kwargs, p):
            p = np.asarray(p)
            self.count("detectors.flagged", int(np.count_nonzero(p >= TAU)))
            self.count("detectors.classified", p.size)

        for cls, tag in ((detectors.ExactOracleDetector, "exact"),
                         (detectors.ZLevelDetector, "zlevel"),
                         (detectors.NeuralDetector, "nn")):
            self.patch(cls, "detect_batch", f"detectors.detect_batch.{tag}",
                       on_result=ratio if tag == "nn" else None)
        self.patch(detectors, "z_detector", "detectors.z_detector", on_result=ratio)
        self.patch(detectors, "exact_troubled_oracle", "detectors.exact_troubled_oracle",
                   on_result=ratio)

        self.patch(synth_data, "generate_dataset", "synth_data.generate_dataset",
                   on_result=lambda a, kw, res: self.count("synth_data.samples", len(res[0])))
        for attr in ("balance_dataset", "split_dataset", "save_dataset", "load_dataset"):
            self.patch(synth_data, attr, f"synth_data.{attr}")
        # NeuralDetector imports it from synth_data at call time, training at import time
        self.patch(synth_data, "preprocess_gamma_batch", "synth_data.preprocess_gamma_batch")
        self.patch(training, "preprocess_gamma_batch", "synth_data.preprocess_gamma_batch")

        for cls in (layers.GILayer, layers.BatchNorm, layers.DenseLayer):
            for attr in ("forward", "backward"):
                self.patch(cls, attr, f"neural.{cls.__name__}.{attr}")
        for attr in ("forward", "backward", "predict"):
            self.patch(model.ArchetypeModel, attr, f"neural.ArchetypeModel.{attr}")
        self.patch(training.Adam, "step", "neural.Adam.step")
        self.patch(training, "weighted_bce", "neural.weighted_bce")
        self.patch(training, "train", "neural.train",
                   on_result=lambda a, kw, hist: self.count("neural.epochs", hist.epochs))
        self.patch(model, "load_model", "neural.load_model")
        self.patch(evaluation, "tpr", "evaluation.tpr",
                   on_result=lambda a, kw, rep: self.count("evaluation.tpr.points",
                                                           rep.troubled_count))

    # -- proxies for the callables the benchmark passes in ---------------------

    def target(self, fn, cut=None):
        return TracedTarget(self, fn, cut)

    def cut(self, cut):
        return None if cut is None else TracedCut(self, cut)

    # -- reduction ---------------------------------------------------------------

    def per_layer(self, setups: int, iterations: int, mean_wall: float) -> dict[str, float]:
        """Per-layer values for one pass: one set-up plus one traced iteration.

        ``mean_wall`` is the mean wall time of the traced iterations; the part
        of it that no top-level span covers is the harness's self time.
        """
        # [setup total, iteration total] per name, divided once at the end
        def sums():
            return defaultdict(lambda: [0.0, 0.0])

        calls, total, points = sums(), sums(), sums()
        count = sums()
        self_s: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for name, start, end, parent, it, child in self.spans:
            phase = int(it >= 0)
            calls[name][phase] += 1
            total[name][phase] += end - start
            if phase:
                self_s[name.split(".")[0]] += end - start - child
                if parent < 0:
                    top_level += end - start
        for (name, it), (n, pts, secs) in self.leaves.items():
            phase = int(it >= 0)
            calls[name][phase] += n
            points[name][phase] += pts
            total[name][phase] += secs
            if phase:
                self_s[LEAF_MODULES[name]] += secs
        for (name, it), value in self.counters.items():
            count[name][int(it >= 0)] += value

        def per_pass(table):
            return defaultdict(float, {k: s / setups + i / iterations
                                       for k, (s, i) in table.items()})

        calls, total, points, count = (per_pass(t) for t in (calls, total, points, count))
        self_s = {k: v / iterations for k, v in self_s.items()}
        self_s["harness"] = mean_wall - top_level / iterations

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {
            "sparse_grid.build_sparse_grid.s": total["sparse_grid.build_sparse_grid"],
            "sparse_grid.similar_grid.calls": calls["sparse_grid.similar_grid"],
            "sparse_grid.similar_grid.s": total["sparse_grid.similar_grid"],
            "sparse_grid.Box.contains.calls": calls["sparse_grid.Box.contains"],
            "sparse_grid.Box.contains.s": total["sparse_grid.Box.contains"],
            "grid_graph.build_grid_graph.s": total["grid_graph.build_grid_graph"],
            "grid_graph.diameter.s": total["grid_graph.diameter"],
            "engine.run.s": total["engine.run"],
            "engine.self_s": self_s["engine"],
            "engine.grids_visited": count["engine.grids_visited"],
            "engine.generations": count["engine.generations"],
            "engine.detector_calls": count["engine.detector_calls"],
            "engine.evaluations": count["engine.evaluations"],
            "engine.cache_hits": count["engine.cache_hits"],
            "engine.cache_hit_ratio": ratio(count["engine.cache_hits"],
                                            count["engine.cache_hits"]
                                            + count["engine.evaluations"]),
            "engine.troubled": count["engine.troubled"],
            "engine.new_point_ratio": ratio(count["engine.visited_points"],
                                            count["engine.placed_points"]),
            "engine.g.calls": calls["engine.g"],
            "engine.g.points": points["engine.g"],
            "engine.g.s": total["engine.g"],
        }
        for tag in ("exact", "zlevel", "nn"):
            m[f"detectors.detect_batch.{tag}.calls"] = calls[f"detectors.detect_batch.{tag}"]
            m[f"detectors.detect_batch.{tag}.s"] = total[f"detectors.detect_batch.{tag}"]
        for name in ("z_detector", "exact_troubled_oracle"):
            m[f"detectors.{name}.calls"] = calls[f"detectors.{name}"]
            m[f"detectors.{name}.s"] = total[f"detectors.{name}"]
        m["detectors.cut.points"] = points["detectors.cut"]
        m["detectors.cut.s"] = total["detectors.cut"] + total["detectors.segment_roots"]
        m["detectors.troubled_ratio"] = ratio(count["detectors.flagged"],
                                              count["detectors.classified"])
        m["synth_data.generate_dataset.s"] = total["synth_data.generate_dataset"]
        m["synth_data.samples"] = count["synth_data.samples"]
        m["synth_data.g.points"] = points["synth_data.g"]
        for name in ("balance_dataset", "split_dataset", "save_dataset", "load_dataset"):
            m[f"synth_data.{name}.s"] = total[f"synth_data.{name}"]
        m["synth_data.dataset_bytes"] = count["synth_data.dataset_bytes"]
        m["synth_data.preprocess_gamma_batch.s"] = total["synth_data.preprocess_gamma_batch"]
        for name in ("GILayer.forward", "GILayer.backward", "BatchNorm.forward",
                     "BatchNorm.backward", "DenseLayer.forward", "DenseLayer.backward",
                     "ArchetypeModel.forward", "ArchetypeModel.backward",
                     "ArchetypeModel.predict"):
            m[f"neural.{name}.s"] = total[f"neural.{name}"]
        m["neural.Adam.step.calls"] = calls["neural.Adam.step"]
        m["neural.Adam.step.s"] = total["neural.Adam.step"]
        m["neural.weighted_bce.s"] = total["neural.weighted_bce"]
        m["neural.train.s"] = total["neural.train"]
        m["neural.epochs"] = count["neural.epochs"]
        m["neural.load_model.s"] = total["neural.load_model"]
        m["evaluation.tpr.s"] = total["evaluation.tpr"]
        m["evaluation.tpr.points"] = count["evaluation.tpr.points"]
        m["evaluation.segment_roots.calls"] = calls["evaluation.segment_roots"]
        m["evaluation.cut.points"] = points["evaluation.cut"]
        m["evaluation.edges_per_point"] = ratio(calls["evaluation.segment_roots"],
                                                count["evaluation.tpr.points"])
        for module in MODULES:
            m[f"self.{module}.s"] = self_s.get(module, 0.0)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "iteration", "child_s"],
                       "spans": self.spans,
                       "leaves": [[n, it, *rec] for (n, it), rec in self.leaves.items()]},
                      fh)
            fh.write("\n")


def _rows(x) -> int:
    """Points in a (..., dim) coordinate array."""
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else int(np.prod(shape[:-1]))


class TracedTarget:
    """Proxy for a target g: counts calls and points, times each call."""

    def __init__(self, tracer: Tracer, fn, cut=None):
        self._tracer = tracer
        self._fn = fn
        if cut is not None:
            self.cut = cut

    def __getattr__(self, attr):
        return getattr(self._fn, attr)

    def __call__(self, x):
        t0 = perf_counter()
        out = self._fn(x)
        seconds = perf_counter() - t0
        where = "synth_data.g" if self._tracer.inside("synth_data.generate_dataset") else "engine.g"
        self._tracer.leaf(where, seconds, points=_rows(x))
        return out


class TracedCut:
    """Proxy for a cut function: times ``__call__`` and ``segment_roots``."""

    def __init__(self, tracer: Tracer, cut):
        self._tracer = tracer
        self._cut = cut
        self.dim = cut.dim

    def _where(self) -> str:
        return "evaluation" if self._tracer.inside("evaluation.tpr") else "detectors"

    def __call__(self, x):
        t0 = perf_counter()
        out = self._cut(x)
        seconds = perf_counter() - t0
        self._tracer.leaf(f"{self._where()}.cut", seconds, points=_rows(x))
        return out

    def segment_roots(self, a, b):
        t0 = perf_counter()
        out = self._cut.segment_roots(a, b)
        self._tracer.leaf(f"{self._where()}.segment_roots", perf_counter() - t0)
        return out

    def distance(self, x):
        return self._cut.distance(x)


def self_time_table(metrics: dict[str, float]) -> str:
    """Text table of per-module self time for one traced pass."""
    wall = metrics["trace.wall_s"]
    rows = [f"{'module':<12} {'self_s':>9} {'share':>7}"]
    for module in MODULES:
        s = metrics[f"self.{module}.s"]
        rows.append(f"{module:<12} {s:9.4f} {s / wall if wall else 0.0:7.1%}")
    return "\n".join(rows)
