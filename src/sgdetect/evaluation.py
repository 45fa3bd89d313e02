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
import json
from dataclasses import dataclass, field
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
    sample_signs,
)
from sgdetect.errors import SgdetectError
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import Box
from sgdetect.synth_data import LegendrePiece


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


def _piecewise(g1, g2, cut):
    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(cut(x) >= 0.0, g1(x), g2(x))

    return fn


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
        name="circle", dim=2, fn=_piecewise(g1, g2, circle), cut=circle,
        domain=square, description="circular cut, radius 0.65 at (0.2, 0.1)")

    # (ii) polynomial-graph cut x2 = C * Pi(x1) / max|Pi|
    poly = _piece(1, {(1,): 1.0, (2,): -2.2, (3,): 1.4})
    grid1d = np.linspace(-1.0, 1.0, 100_001)[:, None]
    max_abs = float(np.max(np.abs(poly(grid1d))))
    poly_cut = PolynomialCut(poly=poly, scale=0.95, axis=1, max_abs=max_abs, dim=2)
    g1 = _piece(2, {(1, 1): 2.4, (1, 2): -0.6, (2, 2): 0.4})
    g2 = _piece(2, {(1, 1): -1.8, (2, 1): 0.8, (1, 3): -0.3})
    registry["poly"] = TestFunction(
        name="poly", dim=2, fn=_piecewise(g1, g2, poly_cut), cut=poly_cut,
        domain=square, description="polynomial-graph cut (degree 3)")

    # (iii) sinusoidal cut x2 = 0.4 sin(2 pi x1)
    sine = SinusoidalCut(amplitude=0.4, freq=2.0)
    g1 = _piece(2, {(1, 1): 2.8, (2, 1): 0.5, (1, 3): -0.4})
    g2 = _piece(2, {(1, 1): -2.2, (1, 2): 0.7, (3, 1): 0.2})
    registry["sine"] = TestFunction(
        name="sine", dim=2, fn=_piecewise(g1, g2, sine), cut=sine,
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
        name="bows", dim=2, fn=_piecewise(g1, g2, bows), cut=bows,
        domain=square, description="ellipse plus two bow-shaped cuts (product form)")

    # 4D: growing torus
    torus = TorusCut()
    g1 = _piece(4, {(1, 1, 1, 1): 3.0})
    g2 = _piece(4, {(1, 1, 1, 1): -2.0})
    registry["torus4d"] = TestFunction(
        name="torus4d", dim=4, fn=_piecewise(g1, g2, torus), cut=torus,
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

    For each point, a grid similar to the check graph's grid is centered
    there with box edge ``lambda_min``; the point is a true troubled point
    iff the cut's zero-level set intersects at least one graph edge.
    Intersections use the cut's closed form when available, otherwise sign
    sampling with ``subdivisions`` intervals per edge.  Points are scored
    in chunks whose sampled segments stay within
    :data:`~sgdetect.detectors.SAMPLE_BUDGET` cut samples; within a chunk
    the edges are tested in order over the points not yet hit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.size == 0:
        return TprReport(tpr=None, true_count=0, troubled_count=0, verdicts=[],
                         visited_count=visited_count,
                         detail={"reason": "empty troubled set"})
    lam = float(lambda_min)
    grid = check_graph.grid
    m = grid.resolution
    offsets = (grid.lattice_array().astype(np.float64) - m / 2.0) / m * lam
    knots = np.linspace(0.0, 1.0, subdivisions + 1)
    chunk = max(1, SAMPLE_BUDGET // (subdivisions + 1))
    hit = np.zeros(len(points), dtype=bool)
    for start in range(0, len(points), chunk):
        live = np.arange(start, min(start + chunk, len(points)))
        for e in check_graph.edges:
            centres = points[live]
            a = centres + offsets[e.i]
            b = centres + offsets[e.j]
            roots = cut.segment_roots(a, b)
            if roots is None:
                s = sample_signs(cut, a, b, knots)
                crosses = np.any(s == 0, axis=1) | np.any(s[:, :-1] != s[:, 1:], axis=1)
            else:
                crosses = ~np.isnan(roots[0])
            hit[live[crosses]] = True
            live = live[~crosses]
            if not live.size:
                break
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


def tpr_report_doc(report: TprReport) -> dict:
    return {
        "kind": "tpr-report",
        "version": 1,
        "tpr": report.tpr,
        "true_count": report.true_count,
        "troubled_count": report.troubled_count,
        "visited_count": report.visited_count,
        "undefined": report.undefined,
        "detail": report.detail,
    }


def write_tpr_report(report: TprReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(tpr_report_doc(report), fh, indent=1)
        fh.write("\n")


def write_verdicts_csv(report: TprReport, points: np.ndarray, path) -> None:
    points = np.atleast_2d(points)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = points.shape[1] if points.size else 0
        writer.writerow([f"x{d}" for d in range(dim)] + ["true_troubled"])
        for row, verdict in zip(points, report.verdicts):
            writer.writerow([repr(float(v)) for v in row] + [int(verdict)])


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
    x, y = np.meshgrid(ticks, ticks, indexing="ij")
    img = np.zeros((r, r), dtype=np.float64)
    for a_val, sa, sb, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
        phi = np.radians(phi_deg)
        xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
        yr = -(x - x0) * np.sin(phi) + (y - y0) * np.cos(phi)
        img[(xr / sa) ** 2 + (yr / sb) ** 2 <= 1.0] += a_val
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


def read_pgm(path) -> np.ndarray:
    """Read a portable graymap (plain P2 or raw P5) into [0, 1]."""
    data = Path(path).read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise SgdetectError(f"not a PGM file: {path}")
    raw = data[:2] == b"P5"
    # header: magic, width, height, maxval, with '#' comments allowed
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    width, height, maxval = (int(t) for t in tokens)
    if raw:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.uint8
        pixels = np.frombuffer(data, dtype=dtype, offset=pos, count=width * height)
    else:
        pixels = np.array(data[pos:].split()[: width * height], dtype=np.int64)
    img = pixels.reshape(height, width).astype(np.float64) / maxval
    return img


def write_pgm(matrix: np.ndarray, path, maxval: int = 255) -> None:
    """Write a raw (P5) graymap from a [0, 1] matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    scaled = np.rint(np.clip(matrix, 0.0, 1.0) * maxval).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n{maxval}\n".encode())
        fh.write(scaled.tobytes())
