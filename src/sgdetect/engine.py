"""Recursive sparse-grid detection engine.

The engine processes a FIFO queue of boxes (center, edge length): place a
similar grid on the box, obtain per-point troubled likelihoods from the
detector, and for each point at or above the threshold either enqueue a
new box (edge = length of the longest graph edge at that point) or, when
that length drops below the minimum, record the point as a final troubled
point.  :func:`run_basic` hands ``detect_batch`` one grid per call and
:func:`run_batched` a whole generation (fewer grids when it passes the
chunk cap or an evaluation budget is set); both run the same loop, so
they visit the same grids in the same order and find the same troubled
set.  The loop visits a chunk of G grids at once: one ``(G, N, n)``
placement, one pass over the evaluation cache and, when the detector or a
visit hook needs g, one call to g on the chunk's distinct new points.  g
is evaluated nowhere else.  The detector sees the shared graph, the
chunk's ``(G, N, n)`` coordinates and its ``(G, N)`` evaluations.  The
float coordinates come from :meth:`~sgdetect.sparse_grid.SparseGrid.place`
on each box's correctly rounded center and edge, so a grid's ``coords``
are its placed grid's ``coords()`` to the bit.

Every point the engine can reach lies on one lattice ``origin + k * unit``
with integer ``k``: a new box is centered on a grid point and its edge is
the parent edge over a power of two.  With ``J`` the number of halvings an
initial edge allows before dropping below ``lambda_min``, ``unit`` is the
rational gcd of every initial ``edge / (M 2^J)`` and of every initial
center's offset from the first one, which keeps off-lattice initial boxes
and non-dyadic domains exact.  Grid points, the visited set, the evaluation
cache and the troubled set key a point by its int64 numerators ``k``,
packed into one int64 when the run's lattice fits in 63 bits and kept as
their ``8 n`` bytes otherwise; both kinds of key go through the same
sorts and searches.  The visited set with the cache (a float64 value per
key) and the troubled set are :class:`_SortedKeys`, which fold the keys
parked in them only when they are read or too many are parked: a run that
evaluates g looks each chunk's distinct points up in the cache and
inserts the new ones at once, a run that does not parks each chunk's raw
keys, and every run parks its final troubled points.  A chunk takes at
most ``SAMPLE_BUDGET // N`` grids, so its arrays stay bounded, and the
domain test is one integer comparison pair per axis and chunk.  Exact
``Fraction`` values are built only for a visit hook: each grid's
:class:`BoxTask` and the placed grid of its :class:`GridSample`.  A run
keeps its troubled points as arrays and builds its :class:`TroubledPoint`
objects when ``troubled`` is first read; each of those builds its exact
values when they are first read.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from sgdetect.detectors import Detector, OUT_OF_DOMAIN, SAMPLE_BUDGET
from sgdetect.errors import (
    DegenerateGraphError,
    DimensionMismatchError,
    EngineError,
    MalformedFileError,
    read_document,
)
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import Box, SparseGrid, similar_grid, _as_fraction

BOUNDARY_POLICIES = ("clip-stop", "ignore")
LAMBDA_RULES = ("incident", "global")
RUN_REPORT_VERSION = 1

#: lattice numerators must stay below 2^62 so int64 products cannot overflow
_LATTICE_LIMIT = 1 << 62
#: a point's numerators are packed into one int64 key when they fit in this many bits
_KEY_BITS = 63

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoxTask:
    """One box to check: exact center and edge length, plus its generation."""

    center: tuple[Fraction, ...]
    edge: Fraction
    depth: int = field(default=0, compare=False)


@dataclass
class GridSample:
    """One visited grid as a visit hook sees it; ``evaluations`` holds g at
    its points with the out-of-domain sentinel (inf) at masked slots."""

    grid: SparseGrid
    coords: np.ndarray
    in_domain: np.ndarray
    evaluations: np.ndarray


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

    def floats(self, keys: np.ndarray) -> np.ndarray:
        """The points of an ``(F, n)`` numerator array, correctly rounded like
        ``float(Fraction)``: one float64 division while every numerator and
        ``den`` stay below 2^53 (exact doubles), Python's int division above."""
        top = max(map(abs, self.origin_num)) + int(np.abs(keys).max(initial=0)) * self.unit_num
        if max(top, self.unit_num, self.den) < 1 << 53:
            return (np.array(self.origin_num) + keys * self.unit_num) / self.den
        return np.array([[(o + k * self.unit_num) / self.den for o, k in zip(self.origin_num, row)]
                         for row in keys.tolist()], dtype=np.float64).reshape(keys.shape)

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

    generation_sizes: list[int]
    visited_points: int
    evaluations: int
    cache_hits: int
    detector_calls: int
    grids_visited: int
    truncated: bool
    config: EngineConfig
    #: evaluations for which g returned NaN (cached, and so read by every later visit)
    nan_evaluations: int
    #: the troubled points as columns, one row each in visit order: lattice
    #: numerators, trigger lengths in lattice units, boundary flags and
    #: read-only float coordinates
    _columns: tuple = field(repr=False, compare=False)
    _lattice: _Lattice = field(repr=False, compare=False)

    @cached_property
    def troubled(self) -> list[TroubledPoint]:
        """The final troubled points in visit order, built on first read."""
        keys, lam, stopped, coords = self._columns
        return [TroubledPoint(x, k, l, self._lattice, b) for x, k, l, b in zip(
            map(tuple, coords.tolist()), map(tuple, keys.tolist()), lam.tolist(),
            stopped.tolist())]

    def troubled_coords(self) -> np.ndarray:
        return self._columns[3]


def _require_refined(lat: np.ndarray) -> None:
    """Refinement needs at least one subdivision per axis (level >= 2),
    otherwise the shrink-by-half argument behind termination has no grip.

    Level-1 knots are the midpoint alone, so an axis is unrefined exactly
    when every point of the ``(N, n)`` lattice array has the same numerator
    on it."""
    unrefined = np.flatnonzero((lat == lat[0]).all(axis=0))
    if len(unrefined):
        raise EngineError(
            f"reference grid has no refinement along axis {unrefined[0]}; the engine "
            "needs minimum per-axis refinement level 2"
        )


def _distinct(keys: np.ndarray, inverse: bool = False) -> tuple[np.ndarray, ...]:
    """The distinct ``keys`` in sorted order, the index of each one's first
    occurrence and, if ``inverse``, the index into the distinct keys of
    every entry: one sort and a neighbour mask (``np.unique`` is far slower
    on int64)."""
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    distinct = ordered[starts], np.minimum.reduceat(order, starts)
    if not inverse:
        return distinct
    where = np.empty(len(keys), dtype=np.intp)
    where[order] = np.cumsum(head) - 1
    return *distinct, where


class _SortedKeys:
    """A set of distinct keys, each with a value of dtype ``values`` unless
    that is None.

    The keys are held in two sorted levels, each with its values: new keys
    are merged into the recent level, and the recent level into the main
    one once it holds more than an eighth of it, so inserting one grid's
    keys costs about the recent level's size, not the whole set's.
    :meth:`add` only parks keys, unsorted, repeated or in the set already;
    they are folded in when the set is read (:meth:`find`, ``len``,
    :meth:`values`) or when more than ``max(SAMPLE_BUDGET, size // 8)`` are
    parked.  A key keeps the first value added for it.
    """

    def __init__(self, dtype: np.dtype, values: type | None):
        self.empty = (np.empty(0, dtype), None if values is None else np.empty(0, values))
        self.main = self.recent = self.empty
        self.parked: list = []
        self.n_parked = 0

    def __len__(self) -> int:
        self.fold()
        return len(self.main[0]) + len(self.recent[0])

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Which of ``keys`` are in the set, their values where they are, and
        their insertion positions in the recent level (for :meth:`insert`)."""
        self.fold()
        found = np.zeros(len(keys), dtype=bool)
        values = None if self.empty[1] is None else np.empty(len(keys), self.empty[1].dtype)
        for level, level_values in (self.main, self.recent):
            at = np.searchsorted(level, keys)
            if len(level):
                hit = level[np.minimum(at, len(level) - 1)] == keys
                found |= hit
                if values is not None:
                    values[hit] = level_values[at[hit]]
        return found, values, at

    def values(self) -> np.ndarray:
        """Every key's value, level by level."""
        self.fold()
        return np.concatenate([self.main[1], self.recent[1]])

    def add(self, keys: np.ndarray, values: np.ndarray | None = None) -> None:
        """Park keys, in any order, with their values."""
        self.parked.append((keys, values))
        self.n_parked += len(keys)
        if self.n_parked > max(SAMPLE_BUDGET, (len(self.main[0]) + len(self.recent[0])) // 8):
            self.fold()

    def fold(self) -> None:
        """Insert the distinct parked keys not in the set yet, each with the
        value of its first parked occurrence."""
        if self.parked:
            self.insert(*self._unparked())

    def _unparked(self) -> tuple:
        """The distinct parked keys not in the set, sorted, with their values."""
        keys = np.concatenate([keys for keys, _ in self.parked])
        values = None if self.empty[1] is None else np.concatenate(
            [values for _, values in self.parked])
        self.parked, self.n_parked = [], 0
        keys, first = _distinct(keys)
        found, _, at = self.find(keys)
        new = np.flatnonzero(~found)
        return keys[new], None if values is None else values[first[new]], at[new]

    def insert(self, keys: np.ndarray, values: np.ndarray | None, at: np.ndarray) -> None:
        """Merge sorted keys, none of them in the set or parked, given their
        positions in the recent level (:meth:`find`)."""
        self.recent = _merge(self.recent, (keys, values), at)
        if len(self.recent[0]) > len(self.main[0]) // 8:
            at = np.searchsorted(self.main[0], self.recent[0])
            self.main, self.recent = _merge(self.main, self.recent, at), self.empty


def _merge(level: tuple, new: tuple, at: np.ndarray) -> tuple:
    """Both levels' entries in key order: the new sorted keys, none of them
    in ``level``, go from their ``np.searchsorted`` positions ``at`` in
    ``level`` to ``at + arange(m)``, and the old entries fill the rest, in
    order, as ``np.insert`` would place them."""
    at = at + np.arange(len(at))
    old_slots = np.ones(len(level[0]) + len(at), dtype=bool)
    old_slots[at] = False
    merged = []
    for old, add in zip(level, new):
        if old is None:
            merged.append(None)
            continue
        out = np.empty(len(old_slots), dtype=old.dtype)
        out[at] = add
        out[old_slots] = old
        merged.append(out)
    return tuple(merged)


class _EngineState:
    """Point lattice, queue, visited set, cache, and counters for one run.

    Queue entries are ``(center, edge, depth)``: the box's lattice
    numerators and its generation.  The queue and ``seen`` key points by
    numerator tuples; the visited set with the cache (``points``) and the
    troubled set (``recorded``, valued by the row of each point's first
    record) are :class:`_SortedKeys` of the keys that :meth:`keys` packs.
    Every recorded row is kept per chunk as arrays until :meth:`result`.
    """

    def __init__(self, grid: SparseGrid, graph: GridGraph, detector: Detector,
                 g: Callable, config: EngineConfig, initial: Sequence, evaluates: bool):
        _require_refined(grid.lattice)
        if config.max_evaluations is not None and not evaluates:
            raise EngineError(
                f"max_evaluations={config.max_evaluations} can never bind: detector "
                f"{detector.name!r} does not evaluate g"
            )
        self.evaluates = evaluates
        self.grid = grid
        self.g = g
        self.config = config
        m = self.m = grid.resolution
        # per-point offsets from the box center, in units of edge / M
        self.offsets = grid.lattice - m // 2
        spans = graph.incident_max_span()
        if graph.n_points > 1 and int(spans.min()) == 0:
            raise DegenerateGraphError("reference graph has an isolated node")
        if config.lambda_rule == "global":
            spans[:] = graph.edges[:, 3].max(initial=0)
        self.spans = spans
        boxes = _initial_boxes(initial, config, grid)
        self._set_lattice(boxes)
        self.pending: deque = deque()
        self.seen: set = set()
        # the visited points, with g's value at each when the run evaluates it
        self.points = _SortedKeys(self.key_dtype, np.float64 if evaluates else None)
        self.recorded = _SortedKeys(self.key_dtype, np.int64)
        self.finals: list = []  # per chunk: (numerators, lam, boundary stopped)
        self.n_finals = 0
        self.depth_sizes: Counter = Counter()
        self.evaluations = 0
        self.nan_evaluations = 0
        self.cache_hits = 0
        self.detector_calls = 0
        self.truncated = False
        for center, edge in boxes:
            self.enqueue(self.numerators(center), int(edge / self.unit), depth=0)

    # -- the lattice -----------------------------------------------------------

    def _set_lattice(self, boxes: list) -> None:
        lam_min = self.config.lambda_min
        self.origin = boxes[0][0]
        steps = []
        for center, edge in boxes:
            halvings = max(int(edge / lam_min).bit_length() - 1, 0)
            steps.append(edge / (self.m << halvings))
            steps.extend(c - o for c, o in zip(center, self.origin))
        self.unit = Fraction(math.gcd(*(s.numerator for s in steps)),
                             math.lcm(*(s.denominator for s in steps)))
        den = math.lcm(self.unit.denominator, *(o.denominator for o in self.origin))
        self.lattice = _Lattice(tuple(int(o * den) for o in self.origin),
                                int(self.unit * den), den)
        # a box's points stay within 1.5 initial edges of its initial center
        reach = self.reach = math.ceil(max(
            max(map(abs, self.numerators(c))) + 2 * e / self.unit for c, e in boxes))
        if reach >= _LATTICE_LIMIT:
            raise EngineError(
                f"lambda_min={lam_min} needs a point lattice wider than 62 bits "
                "for these initial boxes"
            )
        n, bits = len(self.origin), (2 * reach + 1).bit_length()
        self.key_weights = 1 << np.arange(n) * bits if n * bits <= _KEY_BITS else None
        self.key_dtype = np.dtype(np.int64 if self.key_weights is not None
                                  else (np.void, 8 * n))
        self.min_edge = math.ceil(lam_min / self.unit)
        # domain bounds, clamped to the limit that no point reaches
        lo, hi = [-_LATTICE_LIMIT] * len(self.origin), [_LATTICE_LIMIT] * len(self.origin)
        domain = self.config.domain
        if domain is not None:
            lo = [max(math.ceil((x - o) / self.unit), -_LATTICE_LIMIT)
                  for x, o in zip(domain.lower, self.origin)]
            hi = [min(math.floor((x - o) / self.unit), _LATTICE_LIMIT)
                  for x, o in zip(domain.upper, self.origin)]
        self.bounds = list(zip(lo, hi))

    def numerators(self, point: Sequence[Fraction]) -> tuple[int, ...]:
        return tuple(int((x - o) / self.unit) for x, o in zip(point, self.origin))

    def keys(self, pts: np.ndarray) -> np.ndarray:
        """One key per row of an ``(..., n)`` numerator array: each axis's
        ``k + reach`` in its own bits of one int64 when the lattice fits,
        the row's ``8 n`` bytes otherwise."""
        if self.key_weights is not None:
            return ((pts + self.reach) @ self.key_weights).ravel()
        n = pts.shape[-1]
        return np.ascontiguousarray(pts).reshape(-1, n).view(self.key_dtype).ravel()

    # -- per-chunk work --------------------------------------------------------

    def enqueue(self, center: tuple[int, ...], edge: int, depth: int) -> None:
        if (center, edge) in self.seen:
            return
        self.seen.add((center, edge))
        self.pending.append((center, edge, depth))

    def visit(self, chunk: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Place the chunk's G grids as one ``(G, N, n)`` numerator array,
        add its points to the visited set, evaluate g on the new ones when
        needed (each distinct point looked up in the cache), and return the
        numerators, the ``(G, N, n)`` float coordinates, the ``(G, N)``
        domain mask and the ``(G, N)`` values (None when the run does not
        evaluate g)."""
        lat = self.lattice
        centers = np.array([center for center, _, _ in chunk], dtype=np.int64)
        steps = np.array([edge // self.m for _, edge, _ in chunk], dtype=np.int64)
        pts = centers[:, None, :] + self.offsets * steps[:, None, None]
        in_domain = np.ones(pts.shape[:2], dtype=bool)
        for k, (lo, hi) in enumerate(self.bounds):
            in_domain &= (pts[..., k] >= lo) & (pts[..., k] <= hi)
        # both correctly rounded, like float(Fraction) of the exact center and
        # edge, so each grid gets the floats of its placed grid's coords()
        coords = self.grid.place(lat.floats(centers),
                                 [(edge * lat.unit_num) / lat.den for _, edge, _ in chunk])
        if self.evaluates:
            keys, first, where = _distinct(self.keys(pts), inverse=True)
            found, values, at = self.points.find(keys)
            new = np.flatnonzero(~found)
            values[new] = self.evaluate(first[new], in_domain.ravel(), coords)
            self.points.insert(keys[new], values[new], at[new])
            values = values[where].reshape(in_domain.shape)
        else:
            self.points.add(self.keys(pts))
            values = None
        self.depth_sizes.update(depth for _, _, depth in chunk)
        return pts, coords, in_domain, values

    def evaluate(self, first: np.ndarray, in_domain: np.ndarray,
                 coords: np.ndarray) -> np.ndarray:
        """The values of the chunk's new points, given each one's first slot:
        g at the in-domain ones, in one call in first-seen order, and the
        out-of-domain sentinel at the others.  Every other in-domain slot of
        the chunk counts as a cache hit."""
        inside = np.flatnonzero(in_domain[first])
        inside = inside[np.argsort(first[inside])]  # first-seen order
        values = np.full(len(first), OUT_OF_DOMAIN, dtype=np.float64)
        if len(inside):
            got = np.asarray(self.g(coords.reshape(-1, coords.shape[-1])[first[inside]]),
                             dtype=np.float64)
            if got.shape != (len(inside),):
                raise EngineError(
                    f"g returned shape {got.shape} for {len(inside)} points; "
                    f"expected ({len(inside)},)"
                )
            values[inside] = got
            self.nan_evaluations += int(np.count_nonzero(np.isnan(got)))
        self.evaluations += len(inside)
        self.cache_hits += int(np.count_nonzero(in_domain)) - len(inside)
        return values

    # -- the refinement rule ---------------------------------------------------

    def process(self, chunk: list, pts: np.ndarray, in_domain: np.ndarray,
                p: np.ndarray) -> None:
        """Refine or record every flagged point of the chunk, in grid then
        point order.  Each queued edge is ``M 2^j c`` units (:meth:`_set_lattice`
        starts at j = J, and ``lam >= min_edge`` allows at most J halvings), so
        ``lam = (edge // M) * span`` is exact and at most ``edge``."""
        grid_i, point_i = np.nonzero(p >= self.config.tau)
        edges = np.array([edge for _, edge, _ in chunk], dtype=np.int64)
        lam = (edges // self.m)[grid_i] * self.spans[point_i]
        inside = in_domain[grid_i, point_i]
        refine = inside & (lam >= self.min_edge)
        final = inside & ~refine
        if self.config.boundary_policy == "clip-stop":
            final |= ~inside
        flagged = pts[grid_i, point_i]
        if final.any():
            self.record(flagged[final], lam[final], ~inside[final])
        for key, lam_i, g in zip(map(tuple, flagged[refine].tolist()), lam[refine].tolist(),
                                 grid_i[refine].tolist()):
            self.enqueue(key, lam_i, chunk[g][2] + 1)

    def record(self, points: np.ndarray, lam: np.ndarray, boundary_stopped: np.ndarray) -> None:
        """Record final troubled points, given as ``(F, n)`` numerators in
        visit order; the run keeps the first occurrence of each point."""
        rows = np.arange(self.n_finals, self.n_finals + len(points))
        self.recorded.add(self.keys(points), rows)
        self.finals.append((points, lam, boundary_stopped))
        self.n_finals += len(points)

    def result(self) -> DetectionRun:
        n = len(self.origin)
        rows = np.sort(self.recorded.values())
        empty = (np.empty((0, n), np.int64), np.empty(0, np.int64), np.empty(0, bool))
        points, lam, stopped = (np.concatenate(part)[rows] for part in zip(empty, *self.finals))
        coords = self.lattice.floats(points)
        coords.flags.writeable = False
        return DetectionRun(
            generation_sizes=[self.depth_sizes[d] for d in sorted(self.depth_sizes)],
            visited_points=len(self.points),
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            detector_calls=self.detector_calls,
            grids_visited=sum(self.depth_sizes.values()),
            truncated=self.truncated,
            config=self.config,
            nan_evaluations=self.nan_evaluations,
            _columns=(points, lam, stopped, coords),
            _lattice=self.lattice,
        )


def _initial_boxes(initial: Sequence, config: EngineConfig, grid: SparseGrid) -> list:
    """The initial ``(center, edge)`` boxes as exact ``Fraction`` values."""
    boxes = [(tuple(_as_fraction(c) for c in center), _as_fraction(edge))
             for center, edge in initial]
    if not boxes:
        raise EngineError("need at least one initial box")
    for center, edge in boxes:
        if len(center) != grid.dim:
            raise DimensionMismatchError(
                f"initial center has dim {len(center)}, grid has dim {grid.dim}"
            )
        if config.domain is not None:
            box = Box(center, edge)
            if not (config.domain.contains(box.lower) and config.domain.contains(box.upper)):
                raise EngineError(
                    f"initial box centered at {tuple(map(float, center))} with edge "
                    f"{float(edge)} is not inside the domain"
                )
    _warn_off_lattice(boxes, grid.resolution)
    return boxes


def _warn_off_lattice(boxes: list, m: int) -> None:
    """Initial grids placed off each other's lattice lose point sharing."""
    if len(boxes) < 2:
        return
    ref_center, ref_edge = boxes[0]
    step = ref_edge / m
    for center, edge in boxes[1:]:
        if edge != ref_edge:
            continue
        for a, b in zip(center, ref_center):
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
    """The engine loop: one queued box, or the whole queue up to the cap, per chunk.

    A batched chunk takes at most ``SAMPLE_BUDGET // N`` grids, and under
    ``max_evaluations`` at most ``(budget - evaluations) // N``; always at
    least one.  So a chunk's ``(G, N, n)`` arrays stay bounded, and a
    batched run overshoots its budget by fewer than N evaluations, as a
    basic run does.  Each chunk logs one DEBUG record: the depth of its
    first grid, its grid count, and the evaluations (of them NaN), cache
    hits and troubled points so far.  Counting the troubled points folds
    the troubled set, so the record is built only when DEBUG is enabled.
    """
    evaluates = detector.requires_evaluations or visit_hook is not None
    state = _EngineState(grid, graph, detector, g, config, initial, evaluates)
    budget = config.max_evaluations
    while state.pending:
        size = min(len(state.pending), max(1, SAMPLE_BUDGET // grid.n_points)) if batched else 1
        if budget is not None:
            if state.evaluations >= budget:
                state.truncated = True
                break
            size = min(size, max(1, (budget - state.evaluations) // grid.n_points))
        chunk = [state.pending.popleft() for _ in range(size)]
        pts, coords, in_domain, values = state.visit(chunk)
        ps = detector.detect_batch(graph, coords, values)
        state.detector_calls += 1
        if visit_hook is not None:
            for j, (center, edge, depth) in enumerate(chunk):
                task = BoxTask(state.lattice.point(center), state.lattice.length(edge), depth)
                visit_hook(task, GridSample(similar_grid(grid, task.center, task.edge),
                                            coords[j], in_domain[j], values[j]), ps[j])
        state.process(chunk, pts, in_domain, ps)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("chunk at depth %d: %d grids; %d evaluations (%d NaN), %d cache "
                         "hits, %d troubled so far", chunk[0][2], len(chunk), state.evaluations,
                         state.nan_evaluations, state.cache_hits, len(state.recorded))
    return state.result()


def run_basic(g: Callable, grid: SparseGrid, graph: GridGraph, detector: Detector,
              initial: Sequence, config: EngineConfig,
              visit_hook: Callable | None = None) -> DetectionRun:
    """Sequential engine: one grid classified per detector call (FIFO queue);
    ``visit_hook(task, sample, p)`` sees each grid's :class:`BoxTask`, its
    :class:`GridSample` (g evaluated on it) and its likelihoods."""
    return _run(g, grid, graph, detector, initial, config, visit_hook, batched=False)


def run_batched(g: Callable, grid: SparseGrid, graph: GridGraph, detector: Detector,
                initial: Sequence, config: EngineConfig,
                visit_hook: Callable | None = None) -> DetectionRun:
    """Batched engine: every pending grid of a generation in one detector call
    and one g call (the chunk cap and a budget bound the chunk, see :func:`_run`).

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
        "version": RUN_REPORT_VERSION,
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


def read_run_report(path) -> tuple[np.ndarray, Fraction, int]:
    """A run report's troubled-point coordinates (an array of their rows), its
    positive ``lambda_min`` and its visited-point count; a missing entry or a
    value of another type raises MalformedFileError."""
    report = read_document(path, "detection-run", RUN_REPORT_VERSION)
    try:
        coords = [t["coords"] for t in report["troubled_points"]]
        lam_min = report["config"]["lambda_min"]
        visited = report["counters"]["visited_points"]
    except KeyError as exc:
        raise MalformedFileError(f"{path} has no {exc.args[0]!r} entry") from exc
    except TypeError as exc:
        raise MalformedFileError(f"{path} is not a valid run report: {exc}") from exc
    try:
        lam_min = Fraction(lam_min)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedFileError(f"{path}: lambda_min {lam_min!r} is not a number") from exc
    if lam_min <= 0:
        raise MalformedFileError(f"{path}: lambda_min {str(lam_min)!r} is not positive")
    if type(visited) is not int or visited < 0:
        raise MalformedFileError(f"{path}: visited_points {visited!r} is not a "
                                 "non-negative integer")
    try:
        points = np.array(coords, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"{path}: troubled point coords are not "
                                 "equal-length lists of numbers") from exc
    return points, lam_min, visited


def write_troubled_csv(run: DetectionRun, path) -> None:
    """One row per troubled point from the run's columns; the trigger length
    is divided in Python ints, so it is ``float`` of the exact ``Fraction``."""
    _, lam, stopped, coords = run._columns
    lat = run._lattice
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d}" for d in range(coords.shape[1])] + ["lambda", "boundary_stopped"])
        writer.writerows([*map(repr, x), steps * lat.unit_num / lat.den, int(b)]
                         for x, steps, b in zip(coords.tolist(), lam.tolist(), stopped.tolist()))
