"""Recursive sparse-grid detection engine.

The engine processes a FIFO queue of box tasks (center, edge length):
place a similar grid on the box, obtain per-point troubled likelihoods from
the detector, and for each point at or above the threshold either enqueue a
new box (edge = length of the longest graph edge at that point) or, when
that length drops below the minimum, record the point as a final troubled
point.  :func:`run_basic` hands ``detect_batch`` one grid per call and
:func:`run_batched` a whole generation (fewer grids when an evaluation
budget is set); both run the same loop, so they visit the same grids in the
same order and find the same troubled set.  The loop visits a chunk of G
grids at once: one ``(G, N, n)`` placement, one pass over the evaluation
cache and, when the detector or a visit hook needs g, one call to g on the
chunk's distinct new points.  g is evaluated nowhere else.

Every point the engine can reach lies on one lattice ``origin + k * unit``
with integer ``k``: a new box is centered on a grid point and its edge is
the parent edge over a power of two.  With ``J`` the number of halvings an
initial edge allows before dropping below ``lambda_min``, ``unit`` is the
rational gcd of every initial ``edge / (M 2^J)`` and of every initial
center's offset from the first one, which keeps off-lattice initial boxes
and non-dyadic domains exact.  Grid points, the visited set, the evaluation
cache and the troubled set use the int64 numerators ``k`` as keys (the
visited set and the cache as the packed bytes of ``k``, which a chunk
builds in one call), and the domain test is one integer comparison per
chunk.  Exact ``Fraction`` values
are built only for the :class:`BoxTask` of an enqueued box; a
:class:`TroubledPoint` builds its own when they are first read.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from sgdetect.detectors import Detector, GridSample, OUT_OF_DOMAIN
from sgdetect.errors import DegenerateGraphError, DimensionMismatchError, EngineError
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import Box, SparseGrid, similar_grid, _as_fraction

BOUNDARY_POLICIES = ("clip-stop", "ignore")
LAMBDA_RULES = ("incident", "global")

#: lattice numerators must stay below 2^62 so int64 products cannot overflow
_LATTICE_LIMIT = 1 << 62


@dataclass(frozen=True)
class BoxTask:
    """One box to check: exact center and edge length, plus its generation."""

    center: tuple[Fraction, ...]
    edge: Fraction
    depth: int = field(default=0, compare=False)


@dataclass
class EngineConfig:
    """Stopping rule, threshold, domain handling, refinement rule and budget."""

    lambda_min: Fraction
    tau: float = 0.5
    domain: Box | None = None
    boundary_policy: str = "clip-stop"
    lambda_rule: str = "incident"
    max_evaluations: int | None = None

    def __post_init__(self):
        self.lambda_min = _as_fraction(self.lambda_min)
        if self.lambda_min <= 0:
            raise EngineError("lambda_min must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise EngineError(f"tau must be in (0, 1], got {self.tau}")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise EngineError(f"boundary_policy must be one of {BOUNDARY_POLICIES}")
        if self.lambda_rule not in LAMBDA_RULES:
            raise EngineError(f"lambda_rule must be one of {LAMBDA_RULES}")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise EngineError(f"max_evaluations must be >= 1, got {self.max_evaluations}")


@dataclass(frozen=True)
class _Lattice:
    """Points ``(origin_num + k * unit_num) / den`` for integer numerators ``k``."""

    origin_num: tuple[int, ...]
    unit_num: int
    den: int

    def point(self, key: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(o + k * self.unit_num, self.den)
                     for o, k in zip(self.origin_num, key))

    def coords(self, key: tuple[int, ...]) -> tuple[float, ...]:
        # int true division rounds correctly, like float(Fraction)
        return tuple((o + k * self.unit_num) / self.den
                     for o, k in zip(self.origin_num, key))

    def length(self, steps: int) -> Fraction:
        return Fraction(steps * self.unit_num, self.den)


@dataclass
class TroubledPoint:
    """A final troubled point; its exact coordinates and trigger length are
    built from the lattice numerators on first read."""

    coords: tuple[float, ...]
    key: tuple[int, ...]
    lam: int
    lattice: _Lattice = field(repr=False, compare=False)
    boundary_stopped: bool = False

    @cached_property
    def exact(self) -> tuple[Fraction, ...]:
        return self.lattice.point(self.key)

    @cached_property
    def trigger_lambda(self) -> Fraction:
        return self.lattice.length(self.lam)


@dataclass
class DetectionRun:
    """Result of one engine execution: troubled set plus bookkeeping."""

    troubled: list[TroubledPoint]
    generation_sizes: list[int]
    visited_points: int
    evaluations: int
    cache_hits: int
    detector_calls: int
    grids_visited: int
    truncated: bool
    config: EngineConfig

    def troubled_coords(self) -> np.ndarray:
        if not self.troubled:
            return np.zeros((0, 0))
        return np.array([t.coords for t in self.troubled], dtype=np.float64)

    def troubled_keys(self) -> set:
        return {t.exact for t in self.troubled}


def _require_refined(grid: SparseGrid) -> None:
    """Refinement needs at least one subdivision per axis (level >= 2),
    otherwise the shrink-by-half argument behind termination has no grip."""
    from sgdetect.sparse_grid import multi_index_set

    spec = grid.spec
    indices = multi_index_set(spec.rule, spec.level, spec.dim)
    for axis in range(spec.dim):
        if max(h[axis] for h in indices) < 2:
            raise EngineError(
                f"reference grid has no refinement along axis {axis}; the engine "
                "needs minimum per-axis refinement level 2"
            )


class _EngineState:
    """Point lattice, queue, visited set, cache, and counters for one run.

    Queue entries are ``(task, center, edge)`` with ``center`` and ``edge``
    the task's lattice numerators.  The queue, ``seen`` and the troubled set
    key points by numerator tuples, the visited set and the cache by the
    bytes of the int64 numerators.
    """

    def __init__(self, grid: SparseGrid, graph: GridGraph, detector: Detector,
                 g: Callable, config: EngineConfig, initial: Sequence, evaluates: bool):
        _require_refined(grid)
        if config.max_evaluations is not None and not evaluates:
            raise EngineError(
                f"max_evaluations={config.max_evaluations} can never bind: detector "
                f"{detector.name!r} does not evaluate g"
            )
        self.evaluates = evaluates
        self.grid = grid
        self.graph = graph
        self.g = g
        self.config = config
        m = self.m = grid.resolution
        lat = grid.lattice_array()
        # per-point offsets from the box center, in units of edge / M
        self.offsets = lat - m // 2
        self.offsets_float = (lat.astype(np.float64) - m / 2.0) / m
        spans = graph.incident_max_span()
        if graph.edges and int(spans.min()) == 0:
            raise DegenerateGraphError("reference graph has an isolated node")
        if config.lambda_rule == "global":
            spans[:] = max((e.span for e in graph.edges), default=0)
        self.spans = spans
        tasks = _initial_tasks(initial, config, grid)
        self._set_lattice(tasks)
        self.pending: deque = deque()
        self.seen: set = set()
        self.troubled: dict = {}
        self.cache: dict = {}
        self.visited: set = set()
        self.depth_sizes: Counter = Counter()
        self.evaluations = 0
        self.cache_hits = 0
        self.detector_calls = 0
        self.truncated = False
        for t in tasks:
            self.enqueue(self.numerators(t.center), int(t.edge / self.unit), depth=0)

    # -- the lattice -----------------------------------------------------------

    def _set_lattice(self, tasks: list[BoxTask]) -> None:
        lam_min = self.config.lambda_min
        self.origin = tasks[0].center
        steps = []
        for t in tasks:
            halvings = max(int(t.edge / lam_min).bit_length() - 1, 0)
            steps.append(t.edge / (self.m << halvings))
            steps.extend(c - o for c, o in zip(t.center, self.origin))
        self.unit = Fraction(math.gcd(*(s.numerator for s in steps)),
                             math.lcm(*(s.denominator for s in steps)))
        den = math.lcm(self.unit.denominator, *(o.denominator for o in self.origin))
        self.lattice = _Lattice(tuple(int(o * den) for o in self.origin),
                                int(self.unit * den), den)
        # a box's points stay within 1.5 initial edges of its initial center
        reach = max(max(map(abs, self.numerators(t.center))) + 2 * t.edge / self.unit
                    for t in tasks)
        if reach >= _LATTICE_LIMIT:
            raise EngineError(
                f"lambda_min={lam_min} needs a point lattice wider than 62 bits "
                "for these initial boxes"
            )
        self.min_edge = math.ceil(lam_min / self.unit)
        # domain bounds, clamped to the limit that no point reaches
        lo, hi = [-_LATTICE_LIMIT] * len(self.origin), [_LATTICE_LIMIT] * len(self.origin)
        domain = self.config.domain
        if domain is not None:
            lo = [max(math.ceil((x - o) / self.unit), -_LATTICE_LIMIT)
                  for x, o in zip(domain.lower, self.origin)]
            hi = [min(math.floor((x - o) / self.unit), _LATTICE_LIMIT)
                  for x, o in zip(domain.upper, self.origin)]
        self.lo, self.hi = np.array(lo), np.array(hi)

    def numerators(self, point: Sequence[Fraction]) -> tuple[int, ...]:
        return tuple(int((x - o) / self.unit) for x, o in zip(point, self.origin))

    # -- per-chunk work --------------------------------------------------------

    def enqueue(self, center: tuple[int, ...], edge: int, depth: int) -> None:
        if (center, edge) in self.seen:
            return
        self.seen.add((center, edge))
        task = BoxTask(center=self.lattice.point(center), edge=edge * self.unit, depth=depth)
        self.pending.append((task, center, edge))

    def visit(self, chunk: list) -> tuple[list[GridSample], np.ndarray, np.ndarray]:
        """Place the chunk's G grids as one ``(G, N, n)`` numerator array,
        evaluate g on them when needed, and return their samples, the
        numerators and the ``(G, N)`` domain mask."""
        lat = self.lattice
        centers = np.array([center for _, center, _ in chunk], dtype=np.int64)
        steps = np.array([edge // self.m for _, _, edge in chunk], dtype=np.int64)
        pts = centers[:, None, :] + self.offsets * steps[:, None, None]
        # each point's numerators as one bytes key of the visited set and the cache
        n = pts.shape[2]
        keys = pts.reshape(-1, n).view(np.dtype((np.void, 8 * n))).ravel().tolist()
        in_domain = np.all((pts >= self.lo) & (pts <= self.hi), axis=2)
        # both correctly rounded, like float(Fraction) of the exact center and edge
        center_f = np.array([lat.coords(center) for _, center, _ in chunk])
        edge_f = np.array([(edge * lat.unit_num) / lat.den for _, _, edge in chunk])
        coords = center_f[:, None, :] + self.offsets_float * edge_f[:, None, None]
        self.visited.update(keys)
        values = None
        if self.evaluates:
            values = self.evaluate(keys, in_domain, coords).reshape(in_domain.shape)
        samples = []
        for j, (task, _, _) in enumerate(chunk):
            placed = similar_grid(self.grid, task.center, task.edge)
            samples.append(GridSample(grid=placed, graph=self.graph, coords=coords[j],
                                      in_domain=in_domain[j],
                                      evaluations=None if values is None else values[j]))
            self.depth_sizes[task.depth] += 1
        return samples, pts, in_domain

    def evaluate(self, keys: list[bytes], in_domain: np.ndarray,
                 coords: np.ndarray) -> np.ndarray:
        """g at every in-domain point of the chunk, out-of-domain sentinel
        elsewhere: one cache pass, then one g call on the distinct misses in
        first-seen order.  A point seen again in the chunk counts as a hit."""
        slots = np.flatnonzero(in_domain)
        in_keys = [keys[i] for i in slots.tolist()]  # shares key objects with visited
        found = list(map(self.cache.get, in_keys))
        missed = [j for j, v in enumerate(found) if v is None]
        first: dict = {}  # each missed key's first slot, in first-seen order
        for j in missed:
            first.setdefault(in_keys[j], j)
        if first:
            points = coords.reshape(-1, coords.shape[-1])[slots[list(first.values())]]
            got = np.asarray(self.g(points), dtype=np.float64)
            if got.shape != (len(first),):
                raise EngineError(
                    f"g returned shape {got.shape} for {len(first)} points; "
                    f"expected ({len(first)},)"
                )
            self.cache.update(zip(first, got.tolist()))
            for j in missed:
                found[j] = self.cache[in_keys[j]]
        self.evaluations += len(first)
        self.cache_hits += len(in_keys) - len(first)
        values = np.full(len(keys), OUT_OF_DOMAIN, dtype=np.float64)
        values[slots] = found
        return values

    # -- the refinement rule ---------------------------------------------------

    def process(self, chunk: list, pts: np.ndarray, in_domain: np.ndarray,
                p: np.ndarray) -> None:
        """Refine or record every flagged point of the chunk, in grid then
        point order.  ``lam = edge * span // M`` is split as below so int64
        cannot overflow: ``span <= M`` and ``edge < 2^62``."""
        grid_i, point_i = np.nonzero(p >= self.config.tau)
        edges = np.array([edge for _, _, edge in chunk], dtype=np.int64)
        spans = self.spans[point_i]
        lam = (edges // self.m)[grid_i] * spans + (edges % self.m)[grid_i] * spans // self.m
        inside = in_domain[grid_i, point_i]
        refine = inside & (lam >= self.min_edge)
        final = inside & ~refine
        if self.config.boundary_policy == "clip-stop":
            final |= ~inside
        flagged = pts[grid_i, point_i]
        for key, lam_i, stopped in zip(map(tuple, flagged[final].tolist()), lam[final].tolist(),
                                       (~inside[final]).tolist()):
            self.record(key, lam_i, boundary_stopped=stopped)
        for key, lam_i, g in zip(map(tuple, flagged[refine].tolist()), lam[refine].tolist(),
                                 grid_i[refine].tolist()):
            self.enqueue(key, lam_i, chunk[g][0].depth + 1)

    def record(self, key: tuple[int, ...], lam: int, boundary_stopped: bool = False) -> None:
        if key not in self.troubled:
            self.troubled[key] = TroubledPoint(self.lattice.coords(key), key, lam,
                                               self.lattice, boundary_stopped)

    def result(self) -> DetectionRun:
        return DetectionRun(
            troubled=list(self.troubled.values()),
            generation_sizes=[self.depth_sizes[d] for d in sorted(self.depth_sizes)],
            visited_points=len(self.visited),
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            detector_calls=self.detector_calls,
            grids_visited=sum(self.depth_sizes.values()),
            truncated=self.truncated,
            config=self.config,
        )


def _initial_tasks(initial: Sequence, config: EngineConfig, grid: SparseGrid) -> list[BoxTask]:
    tasks = [BoxTask(center=tuple(_as_fraction(c) for c in center), edge=_as_fraction(edge))
             for center, edge in initial]
    if not tasks:
        raise EngineError("need at least one initial box")
    for t in tasks:
        if len(t.center) != grid.dim:
            raise DimensionMismatchError(
                f"initial center has dim {len(t.center)}, grid has dim {grid.dim}"
            )
        if config.domain is not None:
            box = Box(t.center, t.edge)
            if not (config.domain.contains(box.lower) and config.domain.contains(box.upper)):
                raise EngineError(
                    f"initial box centered at {tuple(map(float, t.center))} with edge "
                    f"{float(t.edge)} is not inside the domain"
                )
    _warn_off_lattice(tasks, grid.resolution)
    return tasks


def _warn_off_lattice(tasks: list[BoxTask], m: int) -> None:
    """Initial grids placed off each other's lattice lose point sharing."""
    if len(tasks) < 2:
        return
    ref = tasks[0]
    step = ref.edge / m
    for t in tasks[1:]:
        if t.edge != ref.edge:
            continue
        for a, b in zip(t.center, ref.center):
            if (a - b) % step != 0:
                warnings.warn(
                    "initial grid centers are off-lattice relative to each other; "
                    "evaluation sharing between grids will be reduced",
                    stacklevel=6,
                )
                return


def _run(g: Callable, grid: SparseGrid, graph: GridGraph, detector: Detector,
         initial: Sequence, config: EngineConfig, visit_hook: Callable | None,
         batched: bool) -> DetectionRun:
    """The engine loop: one queued task, or the whole generation, per chunk.

    Under ``max_evaluations`` a chunk takes at most ``(budget - evaluations)
    // N`` grids, and at least one, so a batched run overshoots its budget by
    fewer than N evaluations, as a basic run does.
    """
    evaluates = detector.requires_evaluations or visit_hook is not None
    state = _EngineState(grid, graph, detector, g, config, initial, evaluates)
    budget = config.max_evaluations
    while state.pending:
        size = len(state.pending) if batched else 1
        if budget is not None:
            if state.evaluations >= budget:
                state.truncated = True
                break
            size = min(size, max(1, (budget - state.evaluations) // grid.n_points))
        chunk = [state.pending.popleft() for _ in range(size)]
        samples, pts, in_domain = state.visit(chunk)
        ps = detector.detect_batch(samples)
        state.detector_calls += 1
        if visit_hook is not None:
            for (task, _, _), sample, p in zip(chunk, samples, ps):
                visit_hook(task, sample, p)
        state.process(chunk, pts, in_domain, ps)
    return state.result()


def run_basic(g: Callable, grid: SparseGrid, graph: GridGraph, detector: Detector,
              initial: Sequence, config: EngineConfig,
              visit_hook: Callable | None = None) -> DetectionRun:
    """Sequential engine: one grid classified per detector call (FIFO queue);
    ``visit_hook(task, sample, p)`` sees each grid with g evaluated on it."""
    return _run(g, grid, graph, detector, initial, config, visit_hook, batched=False)


def run_batched(g: Callable, grid: SparseGrid, graph: GridGraph, detector: Detector,
                initial: Sequence, config: EngineConfig,
                visit_hook: Callable | None = None) -> DetectionRun:
    """Batched engine: every pending grid of a generation in one detector call
    and one g call (a budget caps the chunk, see :func:`_run`).

    Semantics, ``visit_hook`` included, are identical to :func:`run_basic`
    for deterministic detectors; only the number of detector and g calls differs.
    """
    return _run(g, grid, graph, detector, initial, config, visit_hook, batched=True)


# ---------------------------------------------------------------------------
# reports


def run_report(run: DetectionRun, extra: dict | None = None) -> dict:
    cfg = run.config
    doc = {
        "kind": "detection-run",
        "version": 1,
        "config": {
            "lambda_min": str(cfg.lambda_min),
            "tau": cfg.tau,
            "domain": None if cfg.domain is None else {
                "center": [str(c) for c in cfg.domain.center],
                "edge": str(cfg.domain.edge),
            },
            "boundary_policy": cfg.boundary_policy,
            "lambda_rule": cfg.lambda_rule,
            "max_evaluations": cfg.max_evaluations,
        },
        "counters": {
            "troubled": len(run.troubled),
            "visited_points": run.visited_points,
            "evaluations": run.evaluations,
            "cache_hits": run.cache_hits,
            "detector_calls": run.detector_calls,
            "grids_visited": run.grids_visited,
        },
        "generation_sizes": run.generation_sizes,
        "truncated": run.truncated,
        "troubled_points": [
            {
                "coords": [float(x) for x in t.coords],
                "exact": [str(x) for x in t.exact],
                "lambda": str(t.trigger_lambda),
                "boundary_stopped": t.boundary_stopped,
            }
            for t in run.troubled
        ],
    }
    if extra:
        doc.update(extra)
    return doc


def write_run_report(run: DetectionRun, path, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(run_report(run, extra), fh, indent=1)
        fh.write("\n")


def write_troubled_csv(run: DetectionRun, path) -> None:
    dim = len(run.troubled[0].coords) if run.troubled else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d}" for d in range(dim)] + ["lambda", "boundary_stopped"])
        for t in run.troubled:
            writer.writerow([repr(float(x)) for x in t.coords]
                            + [float(t.trigger_lambda), int(t.boundary_stopped)])
