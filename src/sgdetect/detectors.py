"""Discontinuity detectors and the cut functions they classify against.

A detector maps G placed grids of N points to troubled likelihoods p in
[0,1]^(G,N) in one ``detect_batch(graph, coords, evaluations)`` call.  The
grids are all similar to the one reference grid of ``graph``, so the
detector needs only that graph, their stacked ``(G, N, n)`` coordinates
and, when it reads g, their ``(G, N)`` evaluations.  A grid point is
troubled when some incident edge crosses the interface on the point's
half of the segment (intersection nearest to the point no farther from
it than from the other endpoint).

Deterministic detectors provided here:

* ``exact_troubled_oracle`` -- closed-form segment intersections (linear,
  spherical, or any cut exposing ``segment_roots``) over all edges of a
  stack of grids; the ground truth for convergence checks.
* ``z_detector`` -- the sign-sampling approximation with t+1 equispaced
  knots per edge (``sample_signs``) over all edges of a stack of grids;
  converges to the oracle as t grows.  From t = :data:`CERTIFY_MIN_T` on,
  a cut with a ``slope_bound`` first certifies the segments whose
  endpoint values prove one sign along the whole segment and samples only
  the rest, with the same result to the bit.
* ``NeuralDetector`` -- adapter running a trained model on preprocessed
  evaluation vectors, batched across grids.

Both edge-crossing tests (``CutFunction.segment_roots`` and
``sample_signs``) take stacked segments, so the TPR check in
``sgdetect.evaluation`` uses the same two functions.  Both deterministic
detectors walk the flattened (grid, edge) segments of their stack in
blocks, and no cut call here or in the TPR check evaluates more than
:data:`SAMPLE_BUDGET` points (``segment_roots`` sees at most that many
segments); the certificate evaluates the stack's grid points in blocks of
the same size.  Every cut returns the same value for a point in any batch,
so the block size never changes a result.

Convention: a grid point outside the target domain carries an infinite
sentinel in its evaluation slot and its output likelihood is forced to 0.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from sgdetect.errors import DetectorError
from sgdetect.grid_graph import GridGraph

#: sentinel marking an out-of-domain evaluation slot
OUT_OF_DOMAIN = np.inf

#: most points one cut call evaluates (or segments one ``segment_roots``
#: call solves), in the detectors and in TPR alike.  2^15 points keep a
#: call's float64 point tensor at 1 MB for n = 4, so it and the cut's
#: temporaries stay in one core's 2 MB L2 cache; it was the fastest of
#: 2^13..2^17 on both benchmark workloads.  A call exceeds it only when one
#: segment's knots alone do (t + 1 > 2^15).
SAMPLE_BUDGET = 1 << 15

#: smallest t at which ``z_detector`` certifies segments before it samples.
#: The certificate costs one cut call per grid point and a few array passes
#: per segment, and saves t + 1 cut evaluations per cleared segment.  On the
#: z-detector stacks of four dataset runs (both benchmark workloads, 2D at
#: Lambda_min 1/128, 4D at 1/4; one core of a 2-vCPU Xeon VM) it broke even
#: between t = 10 and t = 13; below the threshold every segment is sampled.
CERTIFY_MIN_T = 12

#: rounding allowance of the certificate, relative to the stack's magnitudes
#: (``_uncertified_segments``); on the stacks of those four dataset runs it
#: keeps one segment more than a zero allowance would
CERTIFY_ROUNDING = 2.0**-30


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

    def slope_bound(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
        """Upper bound on |grad f| over each box [lo, hi], or None.

        ``lo`` and ``hi`` are ``(G, n)`` corners; the result has shape
        ``(G,)`` (inf where no bound is known).  ``None`` means the cut has
        no bound, and ``z_detector`` samples all its segments.
        """
        return None


class LinearCut(CutFunction):
    """Hyperplane cut eta(x) = x . (w/|w|) + b."""

    def __init__(self, w: Sequence[float], b: float):
        w = np.asarray(w, dtype=np.float64)
        b = float(b)
        if not (np.all(np.isfinite(w)) and math.isfinite(b)):
            raise ValueError("linear cut needs a finite normal vector and offset")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(w))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("linear cut needs a nonzero normal vector of finite length")
        self.w = w / norm
        self.b = b
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

    def slope_bound(self, lo, hi):
        return np.ones(len(lo))


class SphericalCut(CutFunction):
    """Sphere cut sigma(x) = |x - c| - r."""

    def __init__(self, center: Sequence[float], radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        if not (np.all(np.isfinite(self.center)) and math.isfinite(self.radius)):
            raise ValueError("spherical cut needs a finite center and radius")
        if self.radius < 0.0:
            raise ValueError(f"spherical cut needs a radius >= 0, got {self.radius}")
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

    def slope_bound(self, lo, hi):
        # sigma rounds to within about (n + 4) u (|sigma| + r), which past
        # r = 2^16 outgrows the certificate's rounding allowance
        return np.ones(len(lo)) if self.radius <= 2.0**16 else None


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

    def slope_bound(self, lo, hi):
        """|C|/max|poly| * |g| + 1 for a Legendre ``poly``, inf off [-1,1]^(n-1).

        With u = (xi + 1)/2, |P_k(u)| <= 1 and |P_k'(u)| <= k(k+1)/2 on the
        free coordinates' [-1, 1], so |d poly / d xi_i| <= g_i =
        sum_h |c_h| h_i (h_i + 1) / 4; the axis coordinate adds slope 1.
        """
        if self._legendre_slope is None:
            return None
        free = np.arange(self.dim) != self.axis
        inside = np.all(lo[:, free] >= -1.0, axis=1) & np.all(hi[:, free] <= 1.0, axis=1)
        return np.where(inside, self._legendre_slope, np.inf)

    @functools.cached_property
    def _legendre_slope(self) -> float | None:
        from sgdetect.synth_data import LegendrePiece

        if not isinstance(self.poly, LegendrePiece):
            return None
        h = np.asarray(self.poly.indices, dtype=np.float64)
        g = np.abs(np.asarray(self.poly.coeffs)) @ (h * (h + 1.0)) / 4.0
        return abs(self.scale) / self.max_abs * float(np.linalg.norm(g)) + 1.0


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
    has shape ``(..., len(knots))``.  The cut sees one ``(m, n)`` array,
    knot-major: building it as ``(len(knots), ..., n)`` gives NumPy long
    inner loops, while a trailing axis of n gives it loops of n floats.
    Each point is still ``a + tau (b - a)`` to the bit.
    """
    pts = knots.reshape(-1, *(1,) * a.ndim) * (b - a)
    pts += a
    signs = np.sign(f(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1]))
    return np.moveaxis(signs, 0, -1)


def _segment_blocks(graph: GridGraph, coords: np.ndarray, per_segment: int,
                    segments: np.ndarray | None = None):
    """Walk the (grid, edge) segments of a ``(..., N, n)`` stack in blocks
    of at most ``SAMPLE_BUDGET // per_segment`` segments (at least one).

    Segments run grid by grid, edges in graph order, and a block may split
    a grid.  ``segments`` (default: all) picks some by their ascending flat
    index ``grid * E + edge``.  Yields each block's endpoint indices into
    the flattened ``(G*N,)`` points and the endpoint coordinates ``(B, n)``.
    """
    ei, ej = graph.edge_ends
    flat = coords.reshape(-1, coords.shape[-1])
    n_points, n_edges = coords.shape[-2], len(ei)
    total = flat.shape[0] // max(n_points, 1) * n_edges
    count = total if segments is None else len(segments)
    size = max(1, SAMPLE_BUDGET // per_segment)
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        index = np.arange(lo, hi) if segments is None else segments[lo:hi]
        grid, edge = np.divmod(index, n_edges)
        ia, ja = grid * n_points + ei[edge], grid * n_points + ej[edge]
        yield ia, ja, flat[ia], flat[ja]


def _uncertified_segments(f: CutFunction, graph: GridGraph,
                          coords: np.ndarray) -> np.ndarray | None:
    """Flat indices of the (grid, edge) segments that f's slope bound does
    not prove one-signed, or None when f has no bound.

    f is evaluated once at every grid point of the stack, in blocks of
    :data:`SAMPLE_BUDGET` points.  With L the bound over the segment's grid
    box, a segment [a, b] with values va, vb of one nonzero sign has
    |f| >= (|va| + |vb| - L |b - a|) / 2 at every point between them, so
    it is cleared when ``|va| + |vb| > L |b - a| + 2 delta``: every knot
    then carries va's sign, and ``z_detector`` would flag neither end.
    delta = CERTIFY_ROUNDING n (1 + X + V)(1 + L), with X and V the largest
    |coordinate| and |f| over the certified grids, covers the floating-point
    slack: the rounding of f at a grid point and at a computed knot
    fl(a + tau (b - a)) (knot t need not be b to the bit), L times that
    knot's offset from the exact point, and the rounding of |b - a| and of
    a unit normal's length.  To first order these sum to under delta / 30
    for every cut of this module (a sphere offers its bound only up to
    radius 2^16, past which its rounding outgrows delta).  A NaN or inf
    value or coordinate makes delta non-finite and clears nothing.
    """
    bound = getattr(f, "slope_bound", None)
    if bound is None:
        return None
    grids = coords.reshape(-1, *coords.shape[-2:])
    n_grids = len(grids)
    # per-grid boxes; reducing a contiguous (G, n, N) copy is ~10x faster than axis 1
    axes = np.ascontiguousarray(grids.transpose(0, 2, 1))
    lipschitz = bound(axes.min(axis=2), axes.max(axis=2))
    if lipschitz is None:
        return None
    # only grids with a finite bound are certified; the rest keep every segment
    bounded = np.flatnonzero(np.isfinite(lipschitz))
    if not bounded.size:
        return None
    if bounded.size < n_grids:
        grids, lipschitz = grids[bounded], lipschitz[bounded]
    flat = grids.reshape(-1, grids.shape[-1])
    values = np.concatenate([f(flat[lo : lo + SAMPLE_BUDGET])
                             for lo in range(0, len(flat), SAMPLE_BUDGET)])
    values = values.reshape(grids.shape[:-1])
    scale = 1.0 + np.abs(flat).max() + np.abs(values).max()
    slack = 2.0 * CERTIFY_ROUNDING * flat.shape[-1] * scale * (1.0 + lipschitz)
    ei, ej = graph.edge_ends
    keep = np.ones((n_grids, len(ei)), dtype=bool)
    # grid blocks whose (grids, E, n) edge vectors hold at most SAMPLE_BUDGET rows
    size = max(1, SAMPLE_BUDGET // max(len(ei), 1))
    for lo in range(0, len(grids), size):
        block = slice(lo, lo + size)
        va, vb = values[block, ei], values[block, ej]
        d = grids[block, ej] - grids[block, ei]
        reach = lipschitz[block, None] * np.sqrt(np.vecdot(d, d)) + slack[block, None]
        keep[bounded[block]] = ~((va * vb > 0.0) & (np.abs(va) + np.abs(vb) > reach))
    return np.flatnonzero(keep)


def z_detector(f: CutFunction, graph: GridGraph, t: int,
               coords: np.ndarray | None = None) -> np.ndarray:
    """Sign-sampling zero-level-set detector with t+1 knots per edge.

    For each edge {x_i, x_j} sample x_ij(tau) = x_i + (tau/t)(x_j - x_i),
    tau = 0..t, and compare signs: x_i is troubled if f(x_i) is exactly
    zero or some tau in {1..ceil(t/2)} changes sign against it; x_j is
    troubled if f(x_j) is zero or some tau in {floor(t/2)..t-1} changes
    sign against it.  Sign zero means exact floating-point zero; no
    tolerance is applied.  ``coords`` (default: the graph's grid) may stack
    placed grids as ``(..., N, n)``; the result is then ``(..., N)``.  The
    segments are sampled in blocks of ``SAMPLE_BUDGET // (t+1)``.

    From t = :data:`CERTIFY_MIN_T` on, a cut with a ``slope_bound`` skips
    every segment that its endpoint values and the bound prove one-signed
    (``_uncertified_segments``): all its knots share a nonzero sign, so
    sampling it would flag neither end, and the result is the same to the
    bit.
    """
    if t < 2:
        raise DetectorError(f"z-detector needs t >= 2, got {t}")
    if coords is None:
        coords = graph.grid.coords()
    p = np.zeros(coords.shape[:-1], dtype=np.float64)
    flags = p.reshape(-1)
    taus = np.arange(t + 1, dtype=np.float64) / t
    head_hi = math.ceil(t / 2)  # tau range {1..ceil(t/2)} for x_i
    tail_lo = math.floor(t / 2)  # tau range {floor(t/2)..t-1} for x_j
    segments = _uncertified_segments(f, graph, coords) if t >= CERTIFY_MIN_T else None
    for ia, ja, a, b in _segment_blocks(graph, coords, t + 1, segments):
        s = sample_signs(f, a, b, taus)
        trb_i = (s[:, 0] == 0) | np.any(s[:, 1 : head_hi + 1] != s[:, :1], axis=1)
        trb_j = (s[:, t] == 0) | np.any(s[:, tail_lo:t] != s[:, t:], axis=1)
        for ends, hit in ((ia, trb_i), (ja, trb_j)):
            flags[ends[np.nonzero(hit)]] = 1.0
    return p


def has_closed_form(cut: CutFunction, dim: int) -> bool:
    """Whether ``cut.segment_roots`` has a closed form: it answers a probe of no segments."""
    no_segments = np.empty((0, dim))
    return cut.segment_roots(no_segments, no_segments) is not None


def exact_troubled_oracle(f: CutFunction, graph: GridGraph,
                          coords: np.ndarray | None = None) -> np.ndarray:
    """Exact troubled-point indicator from closed-form edge intersections.

    An endpoint is troubled iff the intersection nearest to it sits on its
    half of the segment (parameter <= 1/2 from that endpoint, ties marking
    both ends).  The edges go to the cut's ``segment_roots`` in blocks of
    at most :data:`SAMPLE_BUDGET` segments; a cut without it raises a
    :class:`DetectorError` directing the caller to the z-detector.
    ``coords`` (default: the graph's grid) may stack placed grids as
    ``(..., N, n)``; the result is then ``(..., N)``.
    """
    if coords is None:
        coords = graph.grid.coords()
    if not has_closed_form(f, coords.shape[-1]):
        raise DetectorError(
            f"cut {type(f).__name__} has no closed-form segment intersection; "
            "use the z-detector instead"
        )
    p = np.zeros(coords.shape[:-1], dtype=np.float64)
    flags = p.reshape(-1)
    for ia, ja, a, b in _segment_blocks(graph, coords, 1):
        lo, hi = f.segment_roots(a, b)
        for ends, hit in ((ia, lo <= 0.5), (ja, hi >= 0.5)):
            flags[ends[np.nonzero(hit)]] = 1.0
    return p


# ---------------------------------------------------------------------------
# detector objects consumed by the engine


class Detector:
    """Contract: ``detect_batch`` maps G grids to likelihoods in [0,1]^(G,N).

    ``coords`` stacks the grids' points as ``(G, N, n)``, each grid similar
    to the reference grid of ``graph``.  ``evaluations`` is ``(G, N)``: g
    at the points with the out-of-domain sentinel (inf) at masked slots,
    or None when the run does not evaluate g.  ``requires_evaluations``
    tells the engine whether to evaluate the target before calling the
    detector.
    """

    requires_evaluations = False
    name = "detector"

    def detect_batch(self, graph: GridGraph, coords: np.ndarray,
                     evaluations: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError


class ZLevelDetector(Detector):
    """Deterministic Z detector bound to one cut function."""

    def __init__(self, cut: CutFunction, t: int):
        if t < 2:
            raise DetectorError(f"z-detector needs t >= 2, got {t}")
        self.cut = cut
        self.t = t
        self.name = f"zlevel:{t}"

    def detect_batch(self, graph, coords, evaluations):
        return z_detector(self.cut, graph, self.t, coords)


class ExactOracleDetector(Detector):
    """Exact detector bound to a cut with closed-form intersections."""

    def __init__(self, cut: CutFunction):
        self.cut = cut
        self.name = "exact"

    def detect_batch(self, graph, coords, evaluations):
        return exact_troubled_oracle(self.cut, graph, coords)


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

    def detect_batch(self, graph, coords, evaluations):
        from sgdetect.synth_data import preprocess_gamma_batch

        if evaluations.shape[1] != self.model.n_points:
            raise DetectorError(f"model expects {self.model.n_points} grid points, "
                                f"got {evaluations.shape[1]}")
        finite = np.isfinite(evaluations)
        p = np.zeros(evaluations.shape, dtype=np.float64)
        live = np.where(finite.any(axis=1))[0]
        if live.size:
            x = preprocess_gamma_batch(evaluations[live])
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
