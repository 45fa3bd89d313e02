"""Built-in test functions, the TPR procedure, and image edge-detection targets.

The true-positive rate of a detection run is measured geometrically: for
each final troubled point, center a small check grid (box edge equal to
the stopping threshold) on it and accept the point when the interface
crosses at least one edge of the check grid's graph.

Images are piecewise-constant 2D targets: a grayscale matrix indexed by
nearest-integer rounding of the coordinates, zero outside the pixel
range.  The Shepp-Logan phantom is generated analytically from the
classic ten-ellipse table (original low-contrast intensities, first
ellipse at 1.0 so values stay in [0, 1]).
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from sgdetect.detectors import (
    SAMPLE_BUDGET,
    CallableCut,
    CutFunction,
    ProductCut,
    SinusoidalCut,
    SphericalCut,
    PolynomialCut,
    TorusCut,
    _certificate,
    _cleared,
    _search_ranges,
    has_closed_form,
    knot_values,
)
from sgdetect.errors import DimensionMismatchError, MalformedFileError, SgdetectError
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import Box, SparseGrid
from sgdetect.synth_data import LegendrePiece, PiecewiseFunction

TPR_REPORT_VERSION = 1


@dataclass(frozen=True)
class TestFunction:
    """A registered piecewise target with its cut and natural domain."""

    name: str
    dim: int
    fn: object  # callable (..., dim) -> (...)
    cut: CutFunction | None
    domain: Box
    description: str = ""

    def __call__(self, x):
        return self.fn(x)


def _piece(dim: int, coeffs: dict[tuple[int, ...], float]) -> LegendrePiece:
    indices = tuple(sorted(coeffs))
    return LegendrePiece(dim=dim, indices=indices,
                         coeffs=tuple(float(coeffs[h]) for h in indices))


def builtin_test_functions() -> dict[str, TestFunction]:
    """The evaluation targets: four 2D functions and the 4D growing torus.

    The 2D cut shapes are representative parameterizations (circular,
    polynomial-graph, sinusoidal, ellipse plus two bow-shaped arcs); the
    4D cut is the exact torus formula
    (|x4| - sqrt(x1^2+x2^2))^2 + x3^2 - (|x4|/4)^2.
    """
    square = Box.cube((0, 0), 2)
    registry: dict[str, TestFunction] = {}

    # (i) circular cut; pieces keep an order-one jump along the whole circle
    g1 = _piece(2, {(1, 1): 3.0, (2, 1): -0.4, (1, 2): 0.3, (3, 1): 0.2})
    g2 = _piece(2, {(1, 1): -2.5, (2, 1): 0.1, (1, 2): -0.2, (2, 2): 0.3})
    circle = SphericalCut(center=(0.2, 0.1), radius=0.65)
    registry["circle"] = TestFunction(
        name="circle", dim=2, fn=PiecewiseFunction(g1, g2, circle), cut=circle,
        domain=square, description="circular cut, radius 0.65 at (0.2, 0.1)")

    # (ii) polynomial-graph cut x2 = C * Pi(x1) / max|Pi|
    poly = _piece(1, {(1,): 1.0, (2,): -2.2, (3,): 1.4})
    grid1d = np.linspace(-1.0, 1.0, 100_001)[:, None]
    max_abs = float(np.max(np.abs(poly(grid1d))))
    poly_cut = PolynomialCut(poly=poly, scale=0.95, axis=1, max_abs=max_abs, dim=2)
    g1 = _piece(2, {(1, 1): 2.4, (1, 2): -0.6, (2, 2): 0.4})
    g2 = _piece(2, {(1, 1): -1.8, (2, 1): 0.8, (1, 3): -0.3})
    registry["poly"] = TestFunction(
        name="poly", dim=2, fn=PiecewiseFunction(g1, g2, poly_cut), cut=poly_cut,
        domain=square, description="polynomial-graph cut (degree 3)")

    # (iii) sinusoidal cut x2 = 0.4 sin(2 pi x1)
    sine = SinusoidalCut(amplitude=0.4, freq=2.0)
    g1 = _piece(2, {(1, 1): 2.8, (2, 1): 0.5, (1, 3): -0.4})
    g2 = _piece(2, {(1, 1): -2.2, (1, 2): 0.7, (3, 1): 0.2})
    registry["sine"] = TestFunction(
        name="sine", dim=2, fn=PiecewiseFunction(g1, g2, sine), cut=sine,
        domain=square, description="sinusoidal cut, amplitude 0.4, two periods")

    # (iv) one elliptic cut plus two bow-shaped cuts, combined as a product
    ellipse = CallableCut(
        lambda x: ((x[..., 0] - 0.05) / 0.75) ** 2 + (x[..., 1] / 0.5) ** 2 - 1.0, dim=2)
    bow_up = CallableCut(lambda x: x[..., 1] - (1.4 * x[..., 0] ** 2 - 0.85), dim=2)
    bow_down = CallableCut(lambda x: -x[..., 1] - (1.4 * x[..., 0] ** 2 - 0.85), dim=2)
    bows = ProductCut([ellipse, bow_up, bow_down])
    g1 = _piece(2, {(1, 1): 2.6, (2, 1): -0.5, (2, 2): 0.3})
    g2 = _piece(2, {(1, 1): -2.4, (1, 2): 0.6, (3, 1): -0.2})
    registry["bows"] = TestFunction(
        name="bows", dim=2, fn=PiecewiseFunction(g1, g2, bows), cut=bows,
        domain=square, description="ellipse plus two bow-shaped cuts (product form)")

    # 4D: growing torus
    torus = TorusCut()
    g1 = _piece(4, {(1, 1, 1, 1): 3.0})
    g2 = _piece(4, {(1, 1, 1, 1): -2.0})
    registry["torus4d"] = TestFunction(
        name="torus4d", dim=4, fn=PiecewiseFunction(g1, g2, torus), cut=torus,
        domain=Box.cube((0, 0, 0, 0), 2),
        description="torus with tube radius growing with |x4|")

    return registry


# ---------------------------------------------------------------------------
# TPR


@dataclass
class TprReport:
    """Per-point verdicts and the resulting true-positive rate."""

    tpr: float | None
    true_count: int
    troubled_count: int
    verdicts: list[bool]
    visited_count: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def undefined(self) -> bool:
        return self.tpr is None


def tpr(points: np.ndarray, cut: CutFunction, lambda_min, check_graph: GridGraph,
        subdivisions: int = 1000, visited_count: int | None = None) -> TprReport:
    """Fraction of troubled points whose check grid touches the interface.

    For each point, the check graph's grid is placed
    (:meth:`~sgdetect.sparse_grid.SparseGrid.place`) on the box centered
    there with edge ``lambda_min``; the point is a true troubled point
    iff the cut's zero-level set intersects at least one graph edge.  A
    check graph without edges (a one-point grid) or a ``lambda_min`` that is not
    positive raises :class:`SgdetectError`, points of another dimension
    :class:`DimensionMismatchError`, and a point with a NaN or infinite
    coordinate :class:`SgdetectError` naming its row.
    An edge is tested with the cut's closed form when available
    (``segment_roots``), otherwise by sign sampling with ``subdivisions``
    intervals.  Each point is decided on nested parts of its check grid,
    each pass taking only the points the one before leaves open:

    1. *Star.*  The centre and its graph neighbours, one lattice step
       away on each axis, with the edges joining them
       (``_axis_cross(check_graph, reach=1)``: 9 nodes and 8 edges in 4D).
    2. *Axis cross.*  The nodes whose lattice row differs from the centre
       ``M/2`` on at most one axis, and the edges joining two of them
       (:func:`_axis_cross`: 65 of the paper's 401 4D nodes).
    3. *Whole grid.*  Every node and edge.

    A sub-grid's placed rows are the whole placement's rows to the bit,
    so a crossing found on it is one the whole grid's test finds on the
    same floats.  A closed-form cut has every edge of the pass solved.  A
    sampled one goes through :func:`_confirmed`; in the last pass,
    :func:`_walked` then walks the edges of the points still open with the
    z-detector's certified sign search, fed the node values that
    :func:`_confirmed` computed.

    In :func:`_confirmed` the node signs only choose which edge to confirm,
    and in the walk the slope bound only which knots to evaluate, so the
    verdicts are those of walking every edge at every knot, provided the
    cut returns the same value for a point whatever batch it is evaluated
    in, as every cut in this package does.  Each pass scores its points in
    chunks whose node and edge arrays stay within
    :data:`~sgdetect.detectors.SAMPLE_BUDGET` entries, and the walk's
    search samples ``SAMPLE_BUDGET // (subdivisions - 1)`` pairs at a time,
    so no cut call evaluates more than that many points (nor
    ``segment_roots`` call solves more segments).  The budget is sized to
    one core's L2 cache; by the property above, no chunk or block size
    changes a verdict.
    """
    if subdivisions < 1:
        raise SgdetectError(f"subdivisions must be >= 1, got {subdivisions}")
    if not lambda_min > 0:
        raise SgdetectError(f"lambda_min must be > 0, got {lambda_min}")
    if not len(check_graph.edges):
        raise SgdetectError(f"check grid {check_graph.grid.spec.key()} is a single point: "
                            "it has no edge for the interface to cross")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.size == 0:
        return TprReport(tpr=None, true_count=0, troubled_count=0, verdicts=[],
                         visited_count=visited_count,
                         detail={"reason": "empty troubled set"})
    grid = check_graph.grid
    if points.shape[1] != grid.dim:
        raise DimensionMismatchError(f"{points.shape[1]}D points cannot be scored with a "
                                     f"{grid.dim}D check grid")
    if not np.isfinite(points).all():
        bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))[0]
        raise SgdetectError(f"troubled point {bad} has a non-finite coordinate: "
                            f"{points[bad].tolist()}")
    lam = float(lambda_min)
    knots = np.linspace(0.0, 1.0, subdivisions + 1)
    closed_form = has_closed_form(cut, grid.dim)
    passes = (_axis_cross(check_graph, reach=1), _axis_cross(check_graph),
              (grid, *check_graph.edge_ends))
    hit = np.zeros(len(points), dtype=bool)
    left = np.arange(len(points))
    for k, (sub, si, sj) in enumerate(passes, start=1):
        hit[left] = _crossed(cut, sub, si, sj, points[left], lam, closed_form, knots,
                             walk=k == len(passes))
        left = left[~hit[left]]
    verdicts = hit.tolist()
    true_count = int(hit.sum())
    return TprReport(
        tpr=true_count / len(verdicts),
        true_count=true_count,
        troubled_count=len(verdicts),
        verdicts=verdicts,
        visited_count=visited_count,
        detail={"subdivisions": subdivisions, "lambda_min": lam,
                "check_grid": grid.spec.key()},
    )


@functools.lru_cache(maxsize=8)
def _axis_cross(graph: GridGraph, reach: int | None = None
                ) -> tuple[SparseGrid, np.ndarray, np.ndarray]:
    """The check grid's axis cross, or with ``reach`` its nodes at most
    ``reach`` lattice steps from the centre: those nodes as a grid of the
    same spec and box, whose :meth:`~sgdetect.sparse_grid.SparseGrid.place`
    gives the whole grid's rows of them to the bit, and the end indices
    into those nodes of each edge joining two of them, in graph order.

    Every rule's multi-index set is downward closed, so the finest knots of
    each axis lie on the axis line through the centre, one lattice step
    apart: the centre's edges to its nearest neighbours are never pruned,
    the cross of a grid with edges has edges, and ``reach=1`` gives the
    centre and its graph neighbours.  Cached per graph and reach: ``tpr``
    asks for two of them on every call."""
    grid = graph.grid
    offset = np.abs(grid.lattice - grid.resolution // 2)
    on = np.count_nonzero(offset, axis=1) <= 1
    if reach is not None:
        on &= offset.max(axis=1) <= reach
    at = np.cumsum(on) - 1
    ei, ej = graph.edge_ends
    both = on[ei] & on[ej]
    lattice, ci, cj = grid.lattice[on], at[ei[both]], at[ej[both]]
    for cached in (lattice, ci, cj):
        cached.flags.writeable = False
    return replace(grid, lattice=lattice), ci, cj


def _crossed(cut: CutFunction, grid: SparseGrid, ei: np.ndarray, ej: np.ndarray,
             points: np.ndarray, lam: float, closed_form: bool, knots: np.ndarray,
             walk: bool = False) -> np.ndarray:
    """Whether the interface crosses an edge ``(ei, ej)`` of ``grid`` placed
    at each point with edge ``lam``: the closed form, else the sampled
    confirmation, and with ``walk`` the walk of what it leaves open.
    Points go in chunks whose node and edge arrays stay within
    :data:`~sgdetect.detectors.SAMPLE_BUDGET` entries."""
    hit = np.zeros(len(points), dtype=bool)
    chunk = max(1, SAMPLE_BUDGET // max(grid.n_points, len(ei)))
    for start in range(0, len(points), chunk):
        x = grid.place(points[start : start + chunk], lam)
        if closed_form:
            # np.take, not x[:, ei]: several times faster on this layout
            lo, _ = cut.segment_roots(np.take(x, ei, axis=1), np.take(x, ej, axis=1))
            found = np.any(~np.isnan(lo), axis=1)
        else:
            found, values = _confirmed(cut, x, ei, ej, knots)
            if walk:
                _walked(cut, x, values, ei, ej, knots, found)
        hit[start : start + len(x)] = found
    return hit


def _confirmed(cut: CutFunction, x: np.ndarray, ei: np.ndarray, ej: np.ndarray,
               knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled crossings that one edge per placed grid confirms, and the
    cut's values at the grids' nodes.

    The cut is evaluated once at every node; a grid's candidate edge is its
    first edge whose first node's sign is zero or whose two node signs
    differ.  The candidate is sampled at the walk's first and last knot
    only.  Those are the same floats as the full walk's (the last one is
    ``a + (b - a)``, which may differ from the node ``b`` in the last bit),
    so a zero or a sign change there is a crossing the walk also reports.
    """
    hit = np.zeros(len(x), dtype=bool)
    v = cut(x.reshape(-1, x.shape[-1])).reshape(x.shape[:-1])
    # comparisons, not np.sign: a NaN value becomes 0 without a cast warning
    s = (v > 0).astype(np.int8) - (v < 0)
    candidate = (s[:, ei] == 0) | (s[:, ei] != s[:, ej])
    rows = np.flatnonzero(candidate.any(axis=1))
    first = candidate[rows].argmax(axis=1)
    ends = np.sign(knot_values(cut, x[rows, ei[first]], x[rows, ej[first]], knots[[0, -1], None]))
    hit[rows] = np.any(ends == 0, axis=0) | (ends[0] != ends[1])
    return hit, v


def _walked(cut: CutFunction, x: np.ndarray, values: np.ndarray, ei: np.ndarray,
            ej: np.ndarray, knots: np.ndarray, hit: np.ndarray) -> None:
    """Set ``hit`` where an edge of a grid it leaves False has a zero or a
    sign change among its knots.  ``values`` holds the cut at the grids'
    nodes: knot 0 of each (point, edge) pair the certificate keeps (all,
    without a bound), so its last knot is evaluated next, and what that
    leaves open is searched as one range of all its knots."""
    rest = np.flatnonzero(~hit)
    certificate = _certificate(cut, (ei, ej), x[rest], values[rest])
    if certificate is None:
        kept = np.arange(len(rest) * len(ei))
        reach, slack = np.full(len(kept), np.inf), np.zeros(len(rest))
    else:
        kept, _, reach, slack = certificate
    grid, e = np.divmod(kept, len(ei))
    p, slack = rest[grid], slack[grid]
    a, b = x[p, ei[e]], x[p, ej[e]]
    v0, v_end = values[p, ei[e]], knot_values(cut, a, b, knots[-1:, None])[0]
    ref = np.sign(v0)
    hit[p[(ref == 0) | (np.sign(v_end) != ref)]] = True
    go = np.flatnonzero(~(hit[p] | _cleared(v0, v_end, reach + slack)))
    if len(go) and len(knots) > 2:
        ranges = (go, np.zeros_like(go), np.full_like(go, len(knots) - 1), v0[go], v_end[go],
                  ref[go], p[go])
        _search_ranges(cut, a, b, knots, reach, slack, ranges, hit)


def tpr_report_doc(report: TprReport) -> dict:
    return {
        "kind": "tpr-report",
        "version": TPR_REPORT_VERSION,
        "tpr": report.tpr,
        "true_count": report.true_count,
        "troubled_count": report.troubled_count,
        "visited_count": report.visited_count,
        "undefined": report.undefined,
        "detail": report.detail,
    }


def write_verdicts_csv(report: TprReport, points: np.ndarray, path) -> None:
    """One ``x0..x{n-1},true_troubled`` row per point; ``points`` is ``(K, n)``,
    so an empty troubled set still names its n coordinate columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d}" for d in range(points.shape[1])] + ["true_troubled"])
        writer.writerows([*row, int(verdict)]
                         for row, verdict in zip(points.tolist(), report.verdicts))


# ---------------------------------------------------------------------------
# image targets


#: classic ten-ellipse table (intensity, semi-axis a, semi-axis b, x0, y0,
#: rotation degrees); original low-contrast intensities with the outer
#: ellipse at 1.0, keeping the summed image inside [0, 1]
SHEPP_LOGAN_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


def shepp_logan(r: int) -> np.ndarray:
    """Analytic r-by-r phantom: ellipse intensities summed per containment.

    Axis 0 of the matrix is the first coordinate; pixel centers sit on
    linspace(-1, 1, r) along both axes.
    """
    if r < 16:
        raise ValueError(f"phantom resolution must be >= 16, got {r}")
    ticks = np.linspace(-1.0, 1.0, r)
    img = np.zeros((r, r), dtype=np.float64)
    for a_val, sa, sb, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
        phi = np.radians(phi_deg)
        cos, sin = np.cos(phi), np.sin(phi)
        # the ellipse's bounding box, widened so that every pixel outside it
        # has a quadratic form well above 1 despite rounding
        half_x = np.hypot(sa * cos, sb * sin) + 1e-6
        half_y = np.hypot(sa * sin, sb * cos) + 1e-6
        rows = slice(*np.searchsorted(ticks, (x0 - half_x, x0 + half_x)))
        cols = slice(*np.searchsorted(ticks, (y0 - half_y, y0 + half_y)))
        # per-axis terms of the rotated coordinates: each pixel gets the
        # same float operations as on full (x, y) meshgrids
        x, y = ticks[rows, None], ticks[None, cols]
        xr = (x - x0) * cos + (y - y0) * sin
        yr = -(x - x0) * sin + (y - y0) * cos
        img[rows, cols][(xr / sa) ** 2 + (yr / sb) ** 2 <= 1.0] += a_val
    return np.clip(img, 0.0, 1.0)


class ImageFunction:
    """g_r(x): nearest-pixel lookup into a grayscale matrix, 0 outside.

    Piecewise constant with jumps only on half-integer pixel-boundary
    lines; the natural domain is the index square [0, r-1]^2.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("image matrix must be 2D")
        self.matrix = matrix
        self.shape = matrix.shape

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        i = np.rint(x[..., 0]).astype(np.int64)
        j = np.rint(x[..., 1]).astype(np.int64)
        inside = (i >= 0) & (i <= self.shape[0] - 1) & (j >= 0) & (j <= self.shape[1] - 1)
        out = np.zeros(x.shape[:-1], dtype=np.float64)
        if np.any(inside):
            out[inside] = self.matrix[i[inside], j[inside]]
        return out

    def domain(self) -> Box:
        r0, r1 = self.shape
        if r0 != r1:
            raise SgdetectError("image engine targets must be square")
        half = Fraction(r0 - 1, 2)
        return Box(center=(half, half), edge=Fraction(r0 - 1))


#: magic, width, height and maxval, separated by whitespace or '#' comments,
#: then the single whitespace byte before the pixels
_PGM_HEADER = re.compile(rb"(P[25])" + rb"(?:\s|#[^\n]*\n)+([1-9]\d*)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a portable graymap (plain P2 or raw P5) into [0, 1]."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise MalformedFileError(f"not a PGM file, or a malformed PGM header: {path}")
    width, height, maxval = (int(v) for v in header.groups()[1:])
    n, pos = width * height, header.end()
    if header[1] == b"P5":
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        count = min(n, (len(data) - pos) // dtype.itemsize)
        pixels = np.frombuffer(data, dtype=dtype, offset=pos, count=count)
    else:
        pixels = np.array(data[pos:].split()[:n], dtype=np.int64)
    if pixels.size != n:
        raise MalformedFileError(f"{path} holds fewer than {width}x{height} pixels")
    if pixels.max() > maxval:
        raise MalformedFileError(f"{path} holds a pixel above its maxval {maxval}")
    return pixels.reshape(height, width).astype(np.float64) / maxval

