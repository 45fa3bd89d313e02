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
  knots per edge (``knot_values``) over all edges of a stack of grids;
  converges to the oracle as t grows.  From t = :data:`CERTIFY_MIN_T` on,
  a cut with a ``slope_bound`` first certifies the segments whose
  endpoint values and the bound along the segment's axis prove one sign
  along the whole segment; of the rest it evaluates a few boundary knots,
  certifies the knot ranges between them the same way and samples only
  the ranges left open, with the same result to the bit.
* ``NeuralDetector`` -- adapter running a trained model on preprocessed
  evaluation vectors, batched across grids.

Both edge-crossing tests (``CutFunction.segment_roots`` and the signs of
``knot_values``) take stacked segments, so the TPR check in
``sgdetect.evaluation`` uses the same two, and its walk is the
z-detector's certified sign search.  Both deterministic
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
#: (``_certificate``); on the stacks of those four dataset runs it
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
        """Upper bounds on |df/dx_k| over each box [lo, hi], per axis k, or None.

        ``lo`` and ``hi`` are ``(G, n)`` corners; the result has shape
        ``(G, n)``: entry (g, k) bounds the partial derivative along axis k
        at every point of box g (inf where no bound is known), so f changes
        by at most sum_k L_k |b_k - a_k| along a segment [a, b] of the box.
        ``None`` means the cut has no bound, and ``z_detector`` samples all
        its segments.
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
        return np.broadcast_to(np.abs(self.w), lo.shape)


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
        # each partial derivative is a component of a unit vector; sigma
        # rounds to within about (n + 4) u (|sigma| + r), which past r = 2^16
        # outgrows the certificate's rounding allowance
        return np.ones(lo.shape) if self.radius <= 2.0**16 else None


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
        return self.scale * self.poly(x[..., self._free]) / self.max_abs - x[..., self.axis]

    def slope_bound(self, lo, hi):
        """1 along the axis coordinate and |C|/max|poly| * g_k along free
        coordinate k, for a Legendre ``poly``.

        With u = (xi + 1)/2 and U_i = max(1, max |u_i| over the box), the
        parity of P_h and its growth past |u| = 1 give |P_h(u_i)| <= P_h(U_i)
        and |P_h'(u_i)| <= P_h'(U_i), so |d poly / d xi_k| <= g_k =
        sum_h |c_h| P_{h_k}'(U_k) / 2 prod_{i != k} P_{h_i}(U_i).  While
        xi_k stays in [-3, 1], U_k = 1 and that is sum_h |c_h| h_k (h_k + 1) / 4.
        """
        if not self._legendre:
            return None
        u = np.maximum(np.abs(lo[:, self._free] + 1.0), np.abs(hi[:, self._free] + 1.0))
        u = np.maximum(u.T / 2.0, 1.0)
        value, slope = [np.ones_like(u), u], [np.zeros_like(u), np.ones_like(u)]
        for k in range(1, max(map(max, self.poly.indices))):
            value.append(((2 * k + 1) * u * value[k] - k * value[k - 1]) / (k + 1))
            slope.append(slope[k - 1] + (2 * k + 1) * value[k])
        # (terms, n - 1, G): P_{h_i}(U_i) and P_{h_i}'(U_i) of every term h
        h, rows = np.asarray(self.poly.indices), np.arange(len(self._free))
        value, slope = np.stack(value)[h, rows], np.stack(slope)[h, rows]
        weight = np.abs(self.poly.coeffs) * (abs(self.scale) / self.max_abs / 2.0)
        out = np.ones(lo.shape)
        for k, axis in enumerate(self._free):
            out[:, axis] = weight @ (slope[:, k] * np.prod(np.delete(value, k, axis=1), axis=1))
        return out

    @functools.cached_property
    def _free(self) -> np.ndarray:
        """Indices of the free coordinates xi."""
        return np.delete(np.arange(self.dim), self.axis)

    @functools.cached_property
    def _legendre(self) -> bool:
        from sgdetect.synth_data import LegendrePiece

        return isinstance(self.poly, LegendrePiece)


class TorusCut(CutFunction):
    """4D torus with tube radius growing with |x4|:

    (|x4| - sqrt(x1^2 + x2^2))^2 + x3^2 - (|x4|/4)^2.
    """

    dim = 4

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        ring = np.abs(x[..., 3]) - np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        return ring**2 + x[..., 2] ** 2 - (np.abs(x[..., 3]) / 4.0) ** 2

    def slope_bound(self, lo, hi):
        """(2 Q, 2 Q, 2 X3, 2 Q + X4/8) per box, with Xk = max |xk|,
        rho = sqrt(x1^2 + x2^2) and Q = max(X4, max rho) over the box.

        With r = |x4| - rho, |r| <= Q, the gradient is -2r x_{1,2}/rho along
        x1 and x2 (each at most 2|r|), 2 x3 along x3 and 2r sign(x4) - x4/8
        along x4.  f is Lipschitz across its kinks, the plane x4 = 0 and
        the axis rho = 0, so the bounds hold on every segment of the box.
        """
        top = np.maximum(np.abs(lo), np.abs(hi))
        q = np.maximum(top[:, 3], np.hypot(top[:, 0], top[:, 1]))
        return np.stack([2.0 * q, 2.0 * q, 2.0 * top[:, 2], 2.0 * q + top[:, 3] / 8.0], axis=1)


class SinusoidalCut(CutFunction):
    """x2 - amplitude * sin(freq * pi * x1), a 2D wavy interface."""

    dim = 2

    def __init__(self, amplitude: float, freq: float):
        self.amplitude = float(amplitude)
        self.freq = float(freq)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return x[..., 1] - self.amplitude * np.sin(self.freq * np.pi * x[..., 0])

    def slope_bound(self, lo, hi):
        # df/dx1 = -A f pi cos(f pi x1) and df/dx2 = 1 everywhere
        slopes = np.array([abs(self.amplitude * self.freq * math.pi), 1.0])
        return np.broadcast_to(slopes, lo.shape)


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


def knot_values(f: CutFunction, a: np.ndarray, b: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """f at the knots a + tau (b - a) of stacked segments, knot-major.

    ``a`` and ``b`` are ``(..., n)`` endpoints; ``knots`` has K rows and
    broadcasts against their leading shape: ``(K, 1)`` shared by ``(B, n)``
    segments, ``(K, B)`` each one's own.  The result is ``(K, ...)``.  The
    cut sees one ``(m, n)`` array, knot-major: building it as ``(K, ...,
    n)`` gives NumPy long inner loops, where a trailing axis of n gives it
    loops of n floats.  Each point is still ``a + tau (b - a)`` to the bit.
    """
    pts = knots[..., None] * (b - a)
    pts += a
    return f(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1])


def _segment_blocks(graph: GridGraph, coords: np.ndarray, per_segment: int):
    """Walk the (grid, edge) segments of a ``(..., N, n)`` stack in blocks
    of at most ``SAMPLE_BUDGET // per_segment`` segments (at least one).

    Segments run grid by grid, edges in graph order, and a block may split
    a grid.  Yields each block's endpoint indices into the flattened
    ``(G*N,)`` points and the endpoint coordinates ``(B, n)``.
    """
    ei, ej = graph.edge_ends
    flat = coords.reshape(-1, coords.shape[-1])
    n_points, n_edges = coords.shape[-2], len(ei)
    total = flat.shape[0] // max(n_points, 1) * n_edges
    size = max(1, SAMPLE_BUDGET // per_segment)
    for lo in range(0, total, size):
        grid, edge = np.divmod(np.arange(lo, min(lo + size, total)), n_edges)
        ia, ja = grid * n_points + ei[edge], grid * n_points + ej[edge]
        yield ia, ja, flat[ia], flat[ja]


def _certificate(f: CutFunction, ends: tuple[np.ndarray, np.ndarray], coords: np.ndarray,
                 values: np.ndarray | None = None) -> tuple | None:
    """The segments f's per-axis slope bounds leave open, or None.

    ``ends`` are the E edges' end indices into each grid's N points, and
    ``coords`` stacks the grids as ``(..., N, n)``.  f is evaluated once at
    every grid point of the stack, in blocks of :data:`SAMPLE_BUDGET`
    points, unless ``values`` (shaped like ``coords[..., 0]``) already
    holds f there.  With L_k the bound along axis k over the segment's grid
    box (``CutFunction.slope_bound``), f moves by at most
    ``reach = sum_k L_k |b_k - a_k|`` along a segment [a, b]; every graph
    edge runs along one axis, so only that axis's bound counts.  If va and
    vb have one nonzero sign, |f| >= (|va| + |vb| - reach) / 2 at every
    point between them, so the segment is cleared when
    ``|va| + |vb| > reach + 2 delta``: every knot of a walk from a to b
    then carries va's sign, so neither ``z_detector`` nor the TPR walk
    finds a crossing on it.  The same test, with reach scaled by the
    share of the segment it spans, clears a range of knots between two
    knots of known value (:func:`_search_ranges`); both callers read the
    kept segments, their reach and the slack from the result directly.

    delta = CERTIFY_ROUNDING n (1 + X + V)(1 + L), with X and V the largest
    |coordinate| and |f| over the stack and L = sum_k L_k for the grid,
    covers the floating-point slack: the rounding of f at a grid point and
    at a computed knot fl(a + tau (b - a)) for tau in [0, 1] (the last knot
    need not be b to the bit), L times that knot's offset from the exact
    point, and the rounding of reach and of the bound.  L is never below
    the grid's Lipschitz constant |grad f|.  To first order these sum to under
    delta / 30 for every cut of this module: the torus rounds to within
    about 20 u (Q^2 + X3^2) <= 20 u X L, since its L is at least 4 Q and
    2 X3 while X is at least Q / sqrt(2) and X3; the sine's argument
    f pi x1 rounds to within a few u |f pi x1|, which moves f by at most a
    few u L X; a Legendre polynomial's terms sum to at most 2 (1 + X) times
    its slope bound, so it rounds to within a few dozen u L (1 + X) (a
    sphere offers its bound only up to radius 2^16, past which its rounding
    outgrows delta).  A NaN or inf value or coordinate, or coordinates
    whose differences could overflow, clear nothing: the result is None.

    Returns ``(kept, values, reach, slack)``: the kept segments' flat
    indices ``grid * E + edge`` in ascending order, f at the stack's points
    flattened to ``(G*N,)``, each kept segment's reach, and each grid's
    2 delta.
    """
    bound = getattr(f, "slope_bound", None)
    if bound is None or not coords.size:
        return None
    grids = coords.reshape(-1, *coords.shape[-2:])
    # per-grid boxes; reducing a contiguous (G, n, N) copy is ~10x faster than axis 1
    axes = np.ascontiguousarray(grids.transpose(0, 2, 1))
    slopes = bound(axes.min(axis=2), axes.max(axis=2))
    if slopes is None:
        return None
    if values is None:
        flat = grids.reshape(-1, grids.shape[-1])
        values = np.concatenate([f(flat[lo : lo + SAMPLE_BUDGET])
                                 for lo in range(0, len(flat), SAMPLE_BUDGET)])
    values = values.reshape(grids.shape[:-1])
    top = np.abs(axes).max()
    scale = 1.0 + top + np.abs(values).max()
    if not np.isfinite(scale + top):
        return None
    slack = 2.0 * CERTIFY_ROUNDING * axes.shape[1] * scale * (1.0 + slopes.sum(axis=1))
    ei, ej = ends
    kept, reach = [], []
    # grid blocks whose (grids, E) segment arrays hold at most SAMPLE_BUDGET entries
    size = max(1, SAMPLE_BUDGET // max(len(ei), 1))
    for lo in range(0, len(grids), size):
        block = slice(lo, lo + size)
        va, vb = values[block, ei], values[block, ej]
        # one axis at a time: np.take on the (grids, N) rows of the transposed
        # copy is several times faster than gathering (E, n) rows; an infinite
        # bound times an offset of 0 is NaN, which keeps the segment
        with np.errstate(invalid="ignore"):
            moved = sum(slope[:, None] * np.abs(np.take(x, ej, axis=1) - np.take(x, ei, axis=1))
                        for x, slope in zip(axes[block].transpose(1, 0, 2), slopes[block].T))
        index = np.flatnonzero(~_cleared(va, vb, moved + slack[block, None]))
        kept.append(index + lo * len(ei))
        reach.append(moved.reshape(-1)[index])
    return np.concatenate(kept), values.reshape(-1), np.concatenate(reach), slack


def _z_ranges(f: CutFunction, graph: GridGraph, coords: np.ndarray, t: int,
              certificate: tuple, flags: np.ndarray) -> None:
    """Set ``flags`` (flat over the stack's points) as ``z_detector`` does,
    for the segments the certificate keeps.

    Knot 0 is the grid point a itself, whose value the certificate holds.
    The boundary knots T = floor(t/2), H = ceil(t/2) and t of every kept
    segment are evaluated first; a zero at knot 0 or t, or a sign change
    against it at T or H, decides that end's flag.  The rest of the head
    rule's knots, 1..T-1, lie between knots 0 and T, and the rest of the
    tail rule's, H+1..t-1, between knots H and t; each range spans T/t of
    the segment and is cleared by the certificate's test on its two end
    knots.  Only the ranges it keeps are sampled, and only while their end
    point is not flagged yet.  No cut call evaluates more than
    :data:`SAMPLE_BUDGET` points.
    """
    kept, values, reach, slack = certificate
    n_points, (ei, ej) = coords.shape[-2], graph.edge_ends
    flat = coords.reshape(-1, coords.shape[-1])
    grid, edge = np.divmod(kept, len(ei))
    ia, ja = grid * n_points + ei[edge], grid * n_points + ej[edge]
    taus = np.arange(t + 1, dtype=np.float64) / t
    tail, head = t // 2, (t + 1) // 2
    ends = taus[sorted({tail, head, t}), None]
    slack = slack[grid]
    size = max(1, SAMPLE_BUDGET // len(ends))
    for lo in range(0, len(kept), size):
        block = slice(lo, lo + size)
        a_at, b_at = ia[block], ja[block]
        a, b = flat[a_at], flat[b_at]
        v_tail, v_head, v_end = knot_values(f, a, b, ends)[[0, -2, -1]]
        v0 = values[a_at]
        s0, s_end, s_tail, s_head = np.sign(v0), np.sign(v_end), np.sign(v_tail), np.sign(v_head)
        hit_a = (s0 == 0) | (s_tail != s0) | (s_head != s0)
        hit_b = (s_end == 0) | (s_tail != s_end) | (s_head != s_end)
        flags[a_at[hit_a]] = 1.0
        flags[b_at[hit_b]] = 1.0
        if tail < 2:
            continue
        # the open ranges: (segment, first knot, last knot, their values, the
        # sign every knot between them must carry, the end it flags)
        room = reach[block] * (tail / t) + slack[block]
        open_a = ~(hit_a | _cleared(v0, v_tail, room)) & (flags[a_at] == 0.0)
        open_b = ~(hit_b | _cleared(v_head, v_end, room)) & (flags[b_at] == 0.0)
        if not (open_a.any() or open_b.any()):
            continue
        rows = np.concatenate([np.flatnonzero(open_a), np.flatnonzero(open_b)])
        first = np.repeat([0, head], [np.count_nonzero(open_a), np.count_nonzero(open_b)])
        ranges = (rows, first, first + tail,
                  np.concatenate([v0[open_a], v_head[open_b]]),
                  np.concatenate([v_tail[open_a], v_end[open_b]]),
                  np.concatenate([s0[open_a], s_end[open_b]]),
                  np.concatenate([a_at[open_a], b_at[open_b]]))
        _search_ranges(f, a, b, taus, reach[block], slack[block], ranges, flags)


def _cleared(va: np.ndarray, vb: np.ndarray, room: np.ndarray) -> np.ndarray:
    """The certificate's test: va and vb share a nonzero sign and
    |va| + |vb| > room, the bound's reach plus 2 delta."""
    return (va * vb > 0.0) & (np.abs(va) + np.abs(vb) > room)


#: ``z_detector`` bisects its open knot ranges while the widest spans more
#: than BISECT_ABOVE knot steps and they hold BISECT_MIN_KNOTS inner knots
#: or more in all, then samples every inner knot: a bisection step costs a
#: cut call and a few dozen array passes however few ranges it splits.
#: On the z-detector stacks of the 2D benchmark dataset (t = 49) and of a
#: 4D one (level 8, Lambda_min 1/4, t = 149), bisecting every long range
#: took 20 % longer than sampling in 2D, and sampling without bisection
#: 5x as long in 4D.  Three open TPR ranges (1000 steps by default) are
#: bisected, unless none has a finite reach, as without a bound: none clears.
BISECT_ABOVE = 8
BISECT_MIN_KNOTS = 2048


def _search_ranges(f: CutFunction, a: np.ndarray, b: np.ndarray, taus: np.ndarray,
                   reach: np.ndarray, slack: np.ndarray, ranges: tuple,
                   flags: np.ndarray) -> None:
    """Set the flag of every knot range in which some knot's sign differs
    from the range's sign, which its two end knots carry: the z-detector's
    head and tail ranges, or TPR's one range per (point, edge) pair.

    ``ranges`` are ``(row, p, q, vp, vq, ref, target)``: a range's row in
    ``a``, ``b``, ``reach`` and ``slack``, its end knots in ``taus`` and
    their values, its sign and its flag's index.  They come open: the
    certificate's test (:func:`_cleared`) did not clear them and their flag
    is not set.  While they are long and many (:data:`BISECT_ABOVE`) and
    some reach is finite, the middle knot sets the flag if its sign differs
    and otherwise splits the range in two halves, which stay open only if
    they fail the same test.  Then every inner knot of those left is sampled.
    """
    t = len(taus) - 1
    row, p, q, vp, vq, ref, target = ranges
    finite = np.isfinite(reach[row]).any()
    while True:
        widest = int((q - p).max())
        if not finite or widest <= BISECT_ABOVE or len(row) * (widest - 1) < BISECT_MIN_KNOTS:
            break
        mid = (p + q) // 2
        # halves may outnumber a block's segments: at most SAMPLE_BUDGET a call
        vm = np.concatenate([knot_values(f, a[r], b[r], taus[m][None])[0] for r, m in
                             zip(np.split(row, range(SAMPLE_BUDGET, len(row), SAMPLE_BUDGET)),
                                 np.split(mid, range(SAMPLE_BUDGET, len(mid), SAMPLE_BUDGET)))])
        hit = np.sign(vm) != ref
        flags[target[hit]] = 1.0
        go = ~hit
        row, p, q, vp, vq, ref, target = (np.concatenate([x[go], y[go]]) for x, y in (
            (row, row), (p, mid), (mid, q), (vp, vm), (vm, vq), (ref, ref), (target, target)))
        room = reach[row] * ((q - p) / t) + slack[row]
        keep = np.flatnonzero(~_cleared(vp, vq, room) & (flags[target] == 0.0) & (q - p > 1))
        if not len(keep):
            return
        row, p, q, vp, vq, ref, target = (x[keep] for x in (row, p, q, vp, vq, ref, target))
    # every inner knot; a range narrower than the widest repeats its last one,
    # and ranges that all span the same knots share them
    steps = np.arange(1, widest)[:, None]
    shared = np.all(p == p[0]) and np.all(q == q[0])
    chunk = max(1, SAMPLE_BUDGET // len(steps))
    for lo in range(0, len(row), chunk):
        w = slice(lo, lo + chunk)
        knots = taus[p[0] + steps] if shared else taus[np.minimum(p[w] + steps, q[w] - 1)]
        s = knot_values(f, a[row[w]], b[row[w]], knots)
        # in place: with one more (K, B) array a chunk, glibc gave back and
        # refaulted the heap top every other chunk of a paper-scale TPR walk
        np.sign(s, out=s)
        flags[target[w][np.any(s != ref[w], axis=0)]] = 1.0


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
    every segment that its endpoint values and the bounds prove one-signed
    (:func:`_certificate`): all its knots share a nonzero sign, so sampling
    it would flag neither end.  Of the segments kept, only the boundary
    knots of the two rules and the knot ranges the same test cannot clear
    are sampled (:func:`_z_ranges`).  The result is the same to the bit.
    """
    if t < 2:
        raise DetectorError(f"z-detector needs t >= 2, got {t}")
    if coords is None:
        coords = graph.grid.coords()
    p = np.zeros(coords.shape[:-1], dtype=np.float64)
    flags = p.reshape(-1)
    certificate = (_certificate(f, graph.edge_ends, coords) if t >= CERTIFY_MIN_T
                   else None)
    if certificate is not None:
        _z_ranges(f, graph, coords, t, certificate, flags)
        return p
    taus = np.arange(t + 1, dtype=np.float64) / t
    head_hi = math.ceil(t / 2)  # tau range {1..ceil(t/2)} for x_i
    tail_lo = math.floor(t / 2)  # tau range {floor(t/2)..t-1} for x_j
    for ia, ja, a, b in _segment_blocks(graph, coords, t + 1):
        s = np.sign(knot_values(f, a, b, taus[:, None]))
        trb_i = (s[0] == 0) | np.any(s[1 : head_hi + 1] != s[0], axis=0)
        trb_j = (s[t] == 0) | np.any(s[tail_lo:t] != s[t], axis=0)
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
