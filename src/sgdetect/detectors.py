"""Discontinuity detectors and the cut functions they classify against.

A detector maps G placed grids of N points to troubled likelihoods p in
[0,1]^(G,N) in one ``detect_batch`` call.  A grid point is troubled when
some incident edge crosses the interface on the point's half of the
segment (intersection nearest to the point no farther from it than from
the other endpoint).

Deterministic detectors provided here:

* ``exact_troubled_oracle`` -- closed-form segment intersections (linear,
  spherical, or any cut exposing ``segment_roots``) over all edges of a
  stack of grids in one call; the ground truth for convergence checks.
* ``z_detector`` -- the sign-sampling approximation with t+1 equispaced
  knots per edge (``sample_signs``); converges to the oracle as t grows.
* ``NeuralDetector`` -- adapter running a trained model on preprocessed
  evaluation vectors, batched across grids.

Both edge-crossing tests (``CutFunction.segment_roots`` and
``sample_signs``) take stacked segments, so the TPR check in
``sgdetect.evaluation`` uses the same two functions.

Convention: a grid point outside the target domain carries an infinite
sentinel in its evaluation slot and its output likelihood is forced to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from sgdetect.errors import DetectorError
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import SparseGrid

#: sentinel marking an out-of-domain evaluation slot
OUT_OF_DOMAIN = np.inf

#: most cut samples one sign-sampling call evaluates (bounds the
#: (segments, knots, n) point tensor of the z-detector and of TPR)
SAMPLE_BUDGET = 4_000_000


# ---------------------------------------------------------------------------
# cut functions (scalar fields whose zero-level set carries the interface)


class CutFunction:
    """Scalar field f: R^n -> R; the interface lives in {f = 0}.

    Subclasses may expose ``segment_roots`` (exact parametric intersections
    with a segment, required by the exact oracle) and ``distance`` (exact
    distance to the zero-level set, used by convergence checks).
    """

    dim: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment_roots(self, a: np.ndarray, b: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray] | None:
        """Extreme roots in [0, 1] of t -> f(a + t(b-a)) per segment, or None.

        ``a`` and ``b`` are stacked endpoints of shape ``(..., n)``.  The
        result is ``(lo, hi)``, each of shape ``(...)``: the smallest and
        the largest root t in [0, 1] of each segment, both NaN where the
        segment has none.  A segment lying inside the zero-level set gives
        ``(0, 1)``.  ``None`` means the cut has no closed form.
        """
        return None

    def distance(self, x: np.ndarray) -> np.ndarray | None:
        """Exact distance from x to the zero-level set, where available."""
        return None


class LinearCut(CutFunction):
    """Hyperplane cut eta(x) = x . (w/|w|) + b."""

    def __init__(self, w: Sequence[float], b: float):
        w = np.asarray(w, dtype=np.float64)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ValueError("linear cut needs a nonzero normal vector")
        self.w = w / norm
        self.b = float(b)
        self.dim = w.shape[0]

    def __call__(self, x):
        return np.asarray(x, dtype=np.float64) @ self.w + self.b

    def segment_roots(self, a, b):
        va = np.vecdot(np.asarray(a, dtype=np.float64), self.w) + self.b
        vb = np.vecdot(np.asarray(b, dtype=np.float64), self.w) + self.b
        # va == vb gives an infinite or NaN t, which lies outside [0, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -va / (vb - va)
        inside = (va == 0.0) & (vb == 0.0)
        return _roots_in_unit(np.where(inside, 0.0, t), np.where(inside, 1.0, t))

    def distance(self, x):
        return np.abs(self(x))


class SphericalCut(CutFunction):
    """Sphere cut sigma(x) = |x - c| - r."""

    def __init__(self, center: Sequence[float], radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def __call__(self, x):
        d = np.asarray(x, dtype=np.float64) - self.center
        return np.linalg.norm(d, axis=-1) - self.radius

    def segment_roots(self, a, b):
        a = np.asarray(a, dtype=np.float64)
        d = np.asarray(b, dtype=np.float64) - a
        u = a - self.center
        qa = np.vecdot(d, d)
        qb = 2.0 * np.vecdot(d, u)
        qc = np.vecdot(u, u) - self.radius**2
        # a negative discriminant gives NaN roots; qa == 0 is replaced below
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(qb * qb - 4.0 * qa * qc)
            r1 = (-qb - sq) / (2 * qa)
            r2 = (-qb + sq) / (2 * qa)
        # a zero-length segment has the root 0 iff its one point is on the sphere
        point = np.where(qc == 0.0, 0.0, np.nan)
        zero = qa == 0.0
        return _roots_in_unit(np.where(zero, point, r1), np.where(zero, point, r2))

    def distance(self, x):
        return np.abs(self(x))


def _roots_in_unit(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the candidate roots r1 <= r2 (NaN: none) that lie in [0, 1]."""
    in1 = (r1 >= 0.0) & (r1 <= 1.0)
    in2 = (r2 >= 0.0) & (r2 <= 1.0)
    lo = np.where(in1, r1, np.where(in2, r2, np.nan))
    hi = np.where(in2, r2, np.where(in1, r1, np.nan))
    return lo, hi


class PolynomialCut(CutFunction):
    """Graph-of-a-polynomial cut pi(x) = C * poly(xi)/max|poly| - x_axis.

    ``poly`` maps the remaining n-1 coordinates (axis removed) to values;
    ``max_abs`` is its estimated maximum absolute value on [-1,1]^(n-1).
    """

    def __init__(self, poly: Callable[[np.ndarray], np.ndarray], scale: float,
                 axis: int, max_abs: float, dim: int):
        if max_abs <= 0:
            raise ValueError("max_abs must be positive")
        self.poly = poly
        self.scale = float(scale)
        self.axis = int(axis)
        self.max_abs = float(max_abs)
        self.dim = dim

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        xi = np.delete(x, self.axis, axis=-1)
        return self.scale * self.poly(xi) / self.max_abs - x[..., self.axis]


class TorusCut(CutFunction):
    """4D torus with tube radius growing with |x4|:

    (|x4| - sqrt(x1^2 + x2^2))^2 + x3^2 - (|x4|/4)^2.
    """

    dim = 4

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        ring = np.abs(x[..., 3]) - np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        return ring**2 + x[..., 2] ** 2 - (np.abs(x[..., 3]) / 4.0) ** 2


class SinusoidalCut(CutFunction):
    """x2 - amplitude * sin(freq * pi * x1), a 2D wavy interface."""

    dim = 2

    def __init__(self, amplitude: float, freq: float):
        self.amplitude = float(amplitude)
        self.freq = float(freq)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return x[..., 1] - self.amplitude * np.sin(self.freq * np.pi * x[..., 0])


class ProductCut(CutFunction):
    """Product of cuts: the zero-level set is the union of the factors'."""

    def __init__(self, factors: Sequence[CutFunction]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.dim = factors[0].dim

    def __call__(self, x):
        out = self.factors[0](x)
        for f in self.factors[1:]:
            out = out * f(x)
        return out


class CallableCut(CutFunction):
    """Wrap an arbitrary vectorized scalar field as a cut."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int):
        self.fn = fn
        self.dim = dim

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# deterministic detectors


def sample_signs(f: CutFunction, a: np.ndarray, b: np.ndarray,
                 knots: np.ndarray) -> np.ndarray:
    """Signs of f at a + tau (b - a) for each knot tau of each segment.

    ``a`` and ``b`` are stacked endpoints of shape ``(..., n)``; the result
    has shape ``(..., len(knots))``.  The cut sees one ``(m, n)`` array.
    """
    pts = a[..., None, :] + knots[:, None] * (b - a)[..., None, :]
    return np.sign(f(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1]))


def z_detector(f: CutFunction, graph: GridGraph, t: int,
               coords: np.ndarray | None = None) -> np.ndarray:
    """Sign-sampling zero-level-set detector with t+1 knots per edge.

    For each edge {x_i, x_j} sample x_ij(tau) = x_i + (tau/t)(x_j - x_i),
    tau = 0..t, and compare signs: x_i is troubled if f(x_i) is exactly
    zero or some tau in {1..ceil(t/2)} changes sign against it; x_j is
    troubled if f(x_j) is zero or some tau in {floor(t/2)..t-1} changes
    sign against it.  Sign zero means exact floating-point zero; no
    tolerance is applied.  ``coords`` defaults to the graph's own grid.
    """
    if t < 2:
        raise DetectorError(f"z-detector needs t >= 2, got {t}")
    if coords is None:
        coords = graph.grid.coords()
    p = np.zeros(coords.shape[0], dtype=np.float64)
    ei, ej = graph.edge_ends
    taus = np.arange(t + 1, dtype=np.float64) / t
    head_hi = math.ceil(t / 2)  # tau range {1..ceil(t/2)} for x_i
    tail_lo = math.floor(t / 2)  # tau range {floor(t/2)..t-1} for x_j
    chunk = max(1, SAMPLE_BUDGET // (t + 1))
    for lo in range(0, len(ei), chunk):
        i, j = ei[lo : lo + chunk], ej[lo : lo + chunk]
        s = sample_signs(f, coords[i], coords[j], taus)
        trb_i = (s[:, 0] == 0) | np.any(s[:, 1 : head_hi + 1] != s[:, :1], axis=1)
        trb_j = (s[:, t] == 0) | np.any(s[:, tail_lo:t] != s[:, t:], axis=1)
        p[i[trb_i]] = 1.0
        p[j[trb_j]] = 1.0
    return p


def exact_troubled_oracle(f: CutFunction, graph: GridGraph,
                          coords: np.ndarray | None = None) -> np.ndarray:
    """Exact troubled-point indicator from closed-form edge intersections.

    An endpoint is troubled iff the intersection nearest to it sits on its
    half of the segment (parameter <= 1/2 from that endpoint, ties marking
    both ends).  All edges go to the cut's ``segment_roots`` in one call;
    a cut without it raises a :class:`DetectorError` directing the caller
    to the z-detector.  ``coords`` (default: the graph's grid) may stack
    placed grids as ``(..., N, n)``; the result is then ``(..., N)``.
    """
    if coords is None:
        coords = graph.grid.coords()
    ei, ej = graph.edge_ends
    roots = f.segment_roots(coords[..., ei, :], coords[..., ej, :])
    if roots is None:
        raise DetectorError(
            f"cut {type(f).__name__} has no closed-form segment intersection; "
            "use the z-detector instead"
        )
    lo, hi = roots
    p = np.zeros(coords.shape[:-1], dtype=np.float64)
    for ends, hit in ((ei, lo <= 0.5), (ej, hi >= 0.5)):
        *lead, e = np.nonzero(hit)
        p[(*lead, ends[e])] = 1.0
    return p


# ---------------------------------------------------------------------------
# detector objects consumed by the engine


@dataclass
class GridSample:
    """One placed grid as seen by a detector and by an engine visit hook.

    ``evaluations`` holds g at the grid points with the out-of-domain
    sentinel (inf) at masked slots, taken from the engine's evaluation
    cache; it is None when neither the detector nor a visit hook needs
    them.  ``in_domain`` marks points inside the target domain.
    """

    grid: SparseGrid
    graph: GridGraph
    coords: np.ndarray
    in_domain: np.ndarray
    evaluations: np.ndarray | None = None


class Detector:
    """Contract: ``detect_batch`` maps G grids to likelihoods in [0,1]^(G,N).

    ``requires_evaluations`` tells the engine whether to evaluate the
    target on the grids before calling the detector.
    """

    requires_evaluations = False
    name = "detector"

    def detect_batch(self, samples: list[GridSample]) -> np.ndarray:
        raise NotImplementedError


class ZLevelDetector(Detector):
    """Deterministic Z detector bound to one cut function."""

    def __init__(self, cut: CutFunction, t: int):
        if t < 2:
            raise DetectorError(f"z-detector needs t >= 2, got {t}")
        self.cut = cut
        self.t = t
        self.name = f"zlevel:{t}"

    def detect_batch(self, samples: list[GridSample]) -> np.ndarray:
        # one call per grid: a generation-wide sample tensor outgrows the cache
        return np.stack([z_detector(self.cut, s.graph, self.t, s.coords) for s in samples])


class ExactOracleDetector(Detector):
    """Exact detector bound to a cut with closed-form intersections."""

    def __init__(self, cut: CutFunction):
        self.cut = cut
        self.name = "exact"

    def detect_batch(self, samples: list[GridSample]) -> np.ndarray:
        return exact_troubled_oracle(self.cut, samples[0].graph,
                                     np.stack([s.coords for s in samples]))


class NeuralDetector(Detector):
    """Adapter putting a trained model behind the detector contract.

    Applies the abs-max preprocessing to the finite evaluations, zeroes
    the sentinel slots in the model input, and forces the output to 0 at
    those slots.  Rows with no finite entry never reach the model.
    """

    requires_evaluations = True

    def __init__(self, model):
        self.model = model
        self.name = f"nn:{model.config.kind}"

    def detect_batch(self, samples: list[GridSample]) -> np.ndarray:
        from sgdetect.synth_data import preprocess_gamma_batch

        raw = np.stack([s.evaluations for s in samples])
        if raw.shape[1] != self.model.n_points:
            raise DetectorError(
                f"model expects {self.model.n_points} grid points, got {raw.shape[1]}"
            )
        finite = np.isfinite(raw)
        p = np.zeros(raw.shape, dtype=np.float64)
        live = np.where(finite.any(axis=1))[0]
        if live.size:
            x = preprocess_gamma_batch(raw[live])
            p[live] = self.model.predict(x)
        p[~finite] = 0.0
        return p


def parse_cut_spec(spec: str) -> CutFunction:
    """Explicit cut specs: ``linear:<w1,..,wn>:<b>`` or ``sphere:<c1,..,cn>:<r>``."""
    parts = spec.split(":")
    try:
        if parts[0] == "linear":
            return LinearCut([float(v) for v in parts[1].split(",")], float(parts[2]))
        if parts[0] == "sphere":
            return SphericalCut([float(v) for v in parts[1].split(",")], float(parts[2]))
    except (IndexError, ValueError) as exc:
        raise DetectorError(f"malformed cut spec {spec!r}: {exc}") from exc
    raise DetectorError(f"unknown cut family {parts[0]!r}; expected linear or sphere")


def make_detector(name: str, cut: CutFunction | None = None) -> Detector:
    """Build a detector from its config name.

    Names: ``exact`` (exact oracle on the target's cut),
    ``exact:<cut-spec>`` (oracle on an explicit linear/sphere cut),
    ``zlevel:<t>`` (sign-sampling detector on the target's cut),
    ``nn:<model-file>``.
    """
    if name == "exact":
        if cut is None:
            raise DetectorError("exact detector needs the target's cut function")
        return ExactOracleDetector(cut)
    if name.startswith("exact:"):
        return ExactOracleDetector(parse_cut_spec(name.split(":", 1)[1]))
    if name.startswith("zlevel:"):
        if cut is None:
            raise DetectorError("z-detector needs the target's cut function")
        try:
            t = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise DetectorError(f"malformed z-detector spec {name!r}") from exc
        return ZLevelDetector(cut, t)
    if name.startswith("nn:"):
        from sgdetect.neural.model import load_model

        return NeuralDetector(load_model(name.split(":", 1)[1]))
    raise DetectorError(f"unknown detector spec {name!r}")
