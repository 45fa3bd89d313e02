import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect import detectors
from sgdetect.detectors import (
    CallableCut,
    CutFunction,
    ExactOracleDetector,
    LinearCut,
    NeuralDetector,
    PolynomialCut,
    ProductCut,
    SinusoidalCut,
    SphericalCut,
    TorusCut,
    ZLevelDetector,
    exact_troubled_oracle,
    has_closed_form,
    knot_values,
    make_detector,
    z_detector,
)
from sgdetect.errors import DetectorError
from sgdetect.grid_graph import build_grid_graph
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid, similar_grid
from sgdetect.synth_data import LegendrePiece, sample_cut


def random_cut(rng, kind=None):
    kind = kind or rng.choice(["linear", "spherical"])
    if kind == "linear":
        return LinearCut(rng.normal(size=2), float(rng.uniform(-1, 1)))
    return SphericalCut(rng.uniform(-1, 1, size=2), float(min(0.2, rng.uniform(0, np.sqrt(2)))))


# scalar per-segment closed forms: the reference for the stacked segment_roots


def linear_roots_ref(cut, a, b):
    va = float(np.asarray(a, dtype=np.float64) @ cut.w + cut.b)
    vb = float(np.asarray(b, dtype=np.float64) @ cut.w + cut.b)
    if va == 0.0 and vb == 0.0:
        return [0.0, 1.0]
    if va == vb:
        return []
    t = -va / (vb - va)
    return [t] if 0.0 <= t <= 1.0 else []


def spherical_roots_ref(cut, a, b):
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(b, dtype=np.float64) - a
    u = a - cut.center
    qa = float(d @ d)
    qb = 2.0 * float(d @ u)
    qc = float(u @ u) - cut.radius**2
    if qa == 0.0:
        return [0.0] if qc == 0.0 else []
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    roots = sorted(((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)))
    return [t for t in roots if 0.0 <= t <= 1.0]


def roots_ref(cut, a, b):
    """(lo, hi) per segment from the scalar formulas, NaN where no root."""
    ref = linear_roots_ref if isinstance(cut, LinearCut) else spherical_roots_ref
    out = np.full((len(a), 2), np.nan)
    for k, (ak, bk) in enumerate(zip(a, b)):
        roots = ref(cut, ak, bk)
        if roots:
            out[k] = min(roots), max(roots)
    return out[:, 0], out[:, 1]


def oracle_ref(cut, graph, coords):
    p = np.zeros(len(coords))
    for i, j, _, _ in graph.edges.tolist():
        (lo,), (hi,) = roots_ref(cut, coords[[i]], coords[[j]])
        if lo <= 0.5:
            p[i] = 1.0
        if hi >= 0.5:
            p[j] = 1.0
    return p


def assert_same_bits(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    assert x.shape == y.shape
    np.testing.assert_array_equal(np.isnan(x), np.isnan(y))
    known = ~np.isnan(x)
    np.testing.assert_array_equal(x[known].view(np.int64), y[known].view(np.int64))


class TestSegmentRoots:
    CASES = {
        # segment lying inside the plane: every parameter is a root
        "in-plane": (LinearCut([1.0, 0.0], 0.0), (0.0, -0.5), (0.0, 0.75), (0.0, 1.0)),
        "linear-root-0": (LinearCut([1.0, 0.0], 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0)),
        "linear-root-1": (LinearCut([1.0, 0.0], -1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
        "linear-root-half": (LinearCut([1.0, 0.0], -0.5), (0.0, 0.0), (1.0, 0.0),
                             (0.5, 0.5)),
        "linear-parallel": (LinearCut([1.0, 0.0], -0.5), (0.0, 0.0), (0.0, 1.0),
                            (np.nan, np.nan)),
        "linear-beyond": (LinearCut([1.0, 0.0], -2.0), (0.0, 0.0), (1.0, 0.0),
                          (np.nan, np.nan)),
        "linear-zero-length-on": (LinearCut([1.0, 1.0], 0.0), (0.5, -0.5), (0.5, -0.5),
                                  (0.0, 1.0)),
        "linear-zero-length-off": (LinearCut([1.0, 1.0], 0.0), (0.5, 0.5), (0.5, 0.5),
                                   (np.nan, np.nan)),
        "sphere-root-0": (SphericalCut((0.0, 0.0), 1.0), (1.0, 0.0), (3.0, 0.0), (0.0, 0.0)),
        "sphere-root-1": (SphericalCut((0.0, 0.0), 1.0), (-3.0, 0.0), (-1.0, 0.0),
                          (1.0, 1.0)),
        "sphere-root-half": (SphericalCut((0.0, 0.0), 1.0), (0.0, 0.0), (2.0, 0.0),
                             (0.5, 0.5)),
        "sphere-two-roots": (SphericalCut((0.0, 0.0), 1.0), (-2.0, 0.0), (2.0, 0.0),
                             (0.25, 0.75)),
        "sphere-tangent": (SphericalCut((0.0, 1.0), 1.0), (-1.0, 0.0), (1.0, 0.0),
                           (0.5, 0.5)),
        "sphere-miss": (SphericalCut((0.0, 2.0), 1.0), (-1.0, 0.0), (1.0, 0.0),
                        (np.nan, np.nan)),
        "sphere-zero-length-on": (SphericalCut((0.0, 0.0), 1.0), (0.0, 1.0), (0.0, 1.0),
                                  (0.0, 0.0)),
        "sphere-zero-length-off": (SphericalCut((0.0, 0.0), 1.0), (0.5, 0.0), (0.5, 0.0),
                                   (np.nan, np.nan)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_special_segments(self, name):
        cut, a, b, expected = self.CASES[name]
        a, b = np.array([a]), np.array([b])
        lo, hi = cut.segment_roots(a, b)
        ref_lo, ref_hi = roots_ref(cut, a, b)
        assert_same_bits(lo, ref_lo)
        assert_same_bits(hi, ref_hi)
        np.testing.assert_array_equal(np.concatenate([lo, hi]), expected)

    def test_single_segment_gives_scalars(self):
        lo, hi = SphericalCut((0.0, 0.0), 1.0).segment_roots(np.zeros(2), np.array([2.0, 0.0]))
        assert np.shape(lo) == () and np.shape(hi) == ()
        assert lo == hi == 0.5

    def test_in_plane_edges_flag_both_ends(self, grid2d, graph2d):
        coords = grid2d.coords()
        p = exact_troubled_oracle(LinearCut([1.0, 0.0], 0.0), graph2d)
        in_plane = [(i, j) for i, j, _, _ in graph2d.edges.tolist()
                    if coords[i, 0] == 0.0 and coords[j, 0] == 0.0]
        assert in_plane
        for i, j in in_plane:
            assert p[i] == 1.0 and p[j] == 1.0

    def test_no_closed_form_is_none(self):
        from sgdetect.detectors import TorusCut

        assert TorusCut().segment_roots(np.zeros((3, 4)), np.ones((3, 4))) is None

    @pytest.mark.parametrize("dim,level", [(2, 6), (3, 6), (4, 7)])
    def test_random_placed_grids_match_scalar_formulas(self, dim, level):
        rng = np.random.default_rng(dim)
        reference = build_sparse_grid(GridSpec(dim=dim, rule="sum", level=level),
                                      Box.cube((0,) * dim, 2))
        graph = build_grid_graph(reference)
        flagged = 0
        for _ in range(8):
            edge = 2.0 ** -int(rng.integers(0, 4))
            placed = similar_grid(reference, tuple(rng.uniform(-0.5, 0.5, dim)), edge)
            coords = placed.coords()
            a = coords[graph.edges[:, 0]]
            b = coords[graph.edges[:, 1]]
            # cuts through the placed box, so that many edges cross
            center = coords[rng.integers(len(coords))]
            cuts = [LinearCut(rng.normal(size=dim), -float(rng.normal(size=dim) @ center)),
                    SphericalCut(center + rng.uniform(-edge, edge, dim),
                                 float(rng.uniform(0.1, 1.0) * edge))]
            for cut in cuts:
                lo, hi = cut.segment_roots(a, b)
                ref_lo, ref_hi = roots_ref(cut, a, b)
                assert_same_bits(lo, ref_lo)
                assert_same_bits(hi, ref_hi)
                # any leading shape: one more stacking axis changes nothing
                lo2, hi2 = cut.segment_roots(np.stack([a, b]), np.stack([b, a]))
                assert_same_bits(lo2[0], lo)
                assert_same_bits(hi2[0], hi)
                p = exact_troubled_oracle(cut, graph, coords=coords)
                np.testing.assert_array_equal(p, oracle_ref(cut, graph, coords))
                flagged += int(p.sum())
        assert flagged > 0

    @pytest.mark.parametrize("grids", [1, 6])
    @pytest.mark.parametrize("dim,level", [(2, 6), (3, 6), (4, 7)])
    def test_stacked_oracle_matches_per_grid_calls(self, dim, level, grids):
        rng = np.random.default_rng(10 * dim + grids)
        reference = build_sparse_grid(GridSpec(dim=dim, rule="sum", level=level),
                                      Box.cube((0,) * dim, 2))
        graph = build_grid_graph(reference)
        edges = 2.0 ** -rng.integers(0, 4, size=grids)
        stack = np.stack([similar_grid(reference, tuple(rng.uniform(-0.5, 0.5, dim)),
                                       float(edge)).coords() for edge in edges])
        # cuts through the first placed grid, so that many edges cross
        center = stack[0, rng.integers(stack.shape[1])]
        normal = rng.normal(size=dim)
        normal /= np.linalg.norm(normal)
        cuts = [LinearCut(normal, -float(normal @ center) + 0.01 * edges[0]),
                SphericalCut(center, float(rng.uniform(0.1, 0.5) * edges[0]))]
        for cut in cuts:
            p = exact_troubled_oracle(cut, graph, coords=stack)
            assert p.shape == stack.shape[:-1]
            singles = np.stack([exact_troubled_oracle(cut, graph, coords=c) for c in stack])
            assert singles.shape == p.shape
            np.testing.assert_array_equal(p, singles)
            assert p[0].sum() > 0
            np.testing.assert_array_equal(
                ExactOracleDetector(cut).detect_batch(graph, stack, None), p)


class TestZDetector:
    def test_requires_t_at_least_two(self, grid2d, graph2d):
        with pytest.raises(DetectorError):
            z_detector(LinearCut([1, 0], 0.0), graph2d, 1)

    def test_no_sign_change_all_zero(self, grid2d, graph2d):
        cut = LinearCut([1.0, 0.0], 10.0)  # zero set far outside the box
        p = z_detector(cut, graph2d, 50)
        assert np.all(p == 0.0)

    def test_crossing_left_of_midpoint(self, grid2d, graph2d):
        # a vertical line just left of an edge midpoint marks the left
        # endpoint, not the right one, once t resolves the offset
        coords = grid2d.coords()
        i, j, _, _ = next(e for e in graph2d.edges.tolist()
                          if e[2] == 0 and e[3] == grid2d.resolution // 4)
        a, b = coords[i], coords[j]
        mid = (a[0] + b[0]) / 2
        cut = LinearCut([1.0, 0.0], -(mid - 0.01 * (b[0] - a[0])))
        p = z_detector(cut, graph2d, 1000)
        left, right = (i, j) if a[0] < b[0] else (j, i)
        assert p[left] == 1.0
        # the right endpoint may be marked through a different incident edge,
        # so check the oracle agrees overall instead
        np.testing.assert_array_equal(p, exact_troubled_oracle(cut, graph2d))

    def test_on_interface_point_is_troubled(self, grid2d, graph2d):
        cut = LinearCut([1.0, 0.0], 0.0)  # passes exactly through grid points
        p = z_detector(cut, graph2d, 10)
        coords = grid2d.coords()
        on_cut = np.isclose(coords[:, 0], 0.0)
        connected = np.zeros(len(coords), dtype=bool)
        connected[graph2d.edges[:, :2]] = True
        assert np.all(p[on_cut & connected] == 1.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), t_pow=st.integers(1, 5))
    def test_doubling_t_never_loses_detections(self, grid2d, graph2d, seed, t_pow):
        # nested dyadic samples: everything caught at even t is caught at 2t
        t = 2**t_pow
        cut = random_cut(np.random.default_rng(seed))
        p_t = z_detector(cut, graph2d, t)
        p_2t = z_detector(cut, graph2d, 2 * t)
        assert np.all(p_2t >= p_t)


def sample_signs_ref(f, a, b, knots):
    """The sampled signs as first written: segment-major points, one cut call."""
    pts = a[..., None, :] + knots[:, None] * (b - a)[..., None, :]
    return np.sign(f(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1]))


def z_detector_per_grid(f, graph, t, stack):
    """The per-grid loop the stacked z-detector replaced: one call per grid,
    every edge of the grid sampled in one segment-major cut call."""
    ei, ej = graph.edge_ends
    taus = np.arange(t + 1, dtype=np.float64) / t
    head_hi, tail_lo = math.ceil(t / 2), math.floor(t / 2)
    out = np.zeros(stack.shape[:-1])
    for p, coords in zip(out, stack):
        s = sample_signs_ref(f, coords[ei], coords[ej], taus)
        trb_i = (s[:, 0] == 0) | np.any(s[:, 1 : head_hi + 1] != s[:, :1], axis=1)
        trb_j = (s[:, t] == 0) | np.any(s[:, tail_lo:t] != s[:, t:], axis=1)
        p[ei[trb_i]] = 1.0
        p[ej[trb_j]] = 1.0
    return out


def cut_through(kind, dim, rng):
    """A cut of the given family and a point on its zero-level set."""
    anchor = rng.uniform(-0.5, 0.5, dim)
    if kind == "linear":
        w = rng.normal(size=dim)
        cut = LinearCut(w, 0.0)
        return LinearCut(w, -float(cut.w @ anchor)), anchor
    if kind == "sphere":
        radius = float(rng.uniform(0.1, 0.6))
        return SphericalCut(anchor - radius * np.eye(dim)[0], radius), anchor
    if kind == "polynomial":
        cut = PolynomialCut(lambda xi: xi.sum(axis=-1) ** 3 - xi[..., 0], scale=0.6,
                            axis=dim - 1, max_abs=float((dim - 1) ** 3 + 1), dim=dim)
        anchor[-1] = 0.0
        anchor[-1] = cut(anchor)
        return cut, anchor
    if kind == "legendre":
        # a training cut: a Legendre expansion, so it has a slope bound
        cut = sample_cut("polynomial", dim, rng)
        anchor[cut.axis] = 0.0
        anchor[cut.axis] = cut(anchor)
        return cut, anchor
    if kind == "sinusoidal":
        cut = SinusoidalCut(amplitude=0.4, freq=2.0)
        anchor[1] = 0.4 * np.sin(2.0 * np.pi * anchor[0])
        return cut, anchor
    if kind == "torus":
        # |x4| = 0.5, x3 = 0 and sqrt(x1^2 + x2^2) = 0.5 + 0.5 / 4
        return TorusCut(), np.array([0.625, 0.0, 0.0, 0.5])
    assert kind == "product"
    linear, anchor = cut_through("linear", dim, rng)
    sphere, _ = cut_through("sphere", dim, rng)
    return ProductCut([sphere, linear]), anchor


@functools.cache
def reference_graph(dim):
    """The level-6 sum-rule graph: 65, 69 or 41 points in 2D, 3D or 4D."""
    return build_grid_graph(build_sparse_grid(GridSpec(dim=dim, rule="sum", level=6),
                                              Box.cube((0,) * dim, 2)))


def placed_stack(graph, anchor, grids, rng):
    """``grids`` placed copies of the graph's grid around ``anchor``, the
    first centred on it: ``(G, N, n)``."""
    reference = graph.grid
    dim = len(anchor)
    edges = 2.0 ** -rng.integers(0, 4, size=grids)
    centers = [anchor] + [anchor + rng.uniform(-e, e, dim) for e in edges[1:]]
    return np.stack([similar_grid(reference, tuple(c), float(e)).coords()
                     for c, e in zip(centers, edges)])


STACKED_CUTS = [(kind, dim) for dim in (2, 3, 4)
                for kind in ("linear", "sphere", "polynomial", "legendre", "product")]
STACKED_CUTS += [("sinusoidal", 2), ("torus", 4)]


class TestStackedZDetector:
    """The stacked z-detector equals the per-grid loop, bit for bit."""

    @pytest.mark.parametrize("t", [2, 3, 9, 49])
    @pytest.mark.parametrize("kind,dim", STACKED_CUTS)
    def test_matches_per_grid_loop(self, kind, dim, t):
        rng = np.random.default_rng(100 * dim + t + len(kind))
        graph = reference_graph(dim)
        cut, anchor = cut_through(kind, dim, rng)
        for grids in (1, 6, 40):
            stack = placed_stack(graph, anchor, grids, rng)
            p = z_detector(cut, graph, t, stack)
            ref = z_detector_per_grid(cut, graph, t, stack)
            assert p.shape == stack.shape[:-1]
            np.testing.assert_array_equal(p, ref)
            assert p[0].sum() > 0

    @pytest.mark.parametrize("t", [2, 3, 9, 49])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_nodes_on_the_interface(self, dim, t):
        # dyadic centres and edges put whole planes of nodes on x0 = 1/8 and
        # nodes at distance exactly 1/4 from a dyadic sphere centre
        rng = np.random.default_rng(dim + t)
        graph = reference_graph(dim)
        centers = rng.integers(-4, 5, size=(40, dim)) / 16
        edges = 2.0 ** -rng.integers(1, 3, size=40)
        stack = np.stack([similar_grid(graph.grid, tuple(c), float(e)).coords()
                          for c, e in zip(centers, edges)])
        axis = np.eye(dim)[0]
        for cut in (LinearCut(axis, -0.125), SphericalCut(centers[0] + 0.25 * axis, 0.25),
                    ProductCut([LinearCut(axis, -0.125), SphericalCut(centers[0], 0.25)])):
            assert np.any(cut(stack) == 0.0)
            for grids in (1, 6, 40):
                np.testing.assert_array_equal(z_detector(cut, graph, t, stack[:grids]),
                                              z_detector_per_grid(cut, graph, t,
                                                                  stack[:grids]))

    def test_leading_axes_and_default_coords(self, grid2d, graph2d):
        cut = SphericalCut((0.1, -0.2), 0.45)
        single = z_detector(cut, graph2d, 9)
        np.testing.assert_array_equal(single, z_detector(cut, graph2d, 9, grid2d.coords()))
        stack = np.broadcast_to(grid2d.coords(), (2, 3, *grid2d.coords().shape))
        p = z_detector(cut, graph2d, 9, stack)
        assert p.shape == (2, 3, grid2d.n_points)
        np.testing.assert_array_equal(p, np.broadcast_to(single, p.shape))

    def test_detect_batch_is_one_stacked_call(self, monkeypatch):
        rng = np.random.default_rng(7)
        graph = reference_graph(2)
        cut, anchor = cut_through("sphere", 2, rng)
        stack = placed_stack(graph, anchor, 6, rng)
        calls = []

        def counted(*args):
            calls.append(args[3].shape)
            return z_detector(*args)

        monkeypatch.setattr(detectors, "z_detector", counted)
        p = ZLevelDetector(cut, 9).detect_batch(graph, stack, None)
        assert calls == [stack.shape]
        np.testing.assert_array_equal(p, z_detector_per_grid(cut, graph, 9, stack))


class TestCutParameters:
    """Cut parameters the certificate and the closed forms rely on."""

    @pytest.mark.parametrize("w,b", [((np.inf, 0.0), 0.0), ((np.nan, 1.0), 0.0),
                                     ((1.0, 0.0), np.nan), ((1.0, 0.0), -np.inf),
                                     ((1e200, 1e200), 0.0)])
    def test_linear_rejects_non_finite(self, w, b):
        with pytest.raises(ValueError):
            LinearCut(w, b)

    @pytest.mark.parametrize("center,radius", [((np.nan, 0.0), 0.5), ((0.0, np.inf), 0.5),
                                               ((0.0, 0.0), np.inf), ((0.0, 0.0), np.nan),
                                               ((0.0, 0.0), -1.0)])
    def test_sphere_rejects_non_finite_or_negative(self, center, radius):
        with pytest.raises(ValueError):
            SphericalCut(center, radius)

    @pytest.mark.parametrize("spec", ["linear:inf,0:0", "linear:1,0:nan", "sphere:nan,0:0.5",
                                      "sphere:0,0:inf", "sphere:0,0:-1"])
    def test_parse_cut_spec_rejects(self, spec):
        with pytest.raises(DetectorError, match="malformed cut spec"):
            detectors.parse_cut_spec(spec)

    def test_zero_radius_is_a_point(self):
        cut = SphericalCut((0.0, 0.0), 0.0)
        assert cut(np.zeros(2)) == 0.0


def legendre_scalar_bound(cut):
    """The whole-gradient bound |C|/max|poly| |g| + 1 that a Legendre cut
    offered before its bounds went per axis, valid on [-1, 1]^n."""
    h = np.asarray(cut.poly.indices, dtype=np.float64)
    g = np.abs(np.asarray(cut.poly.coeffs)) @ (h * (h + 1.0)) / 4.0
    return abs(cut.scale) / cut.max_abs * float(np.linalg.norm(g)) + 1.0


def torus_scalar_bound(lo, hi):
    """The whole-gradient torus bound sqrt(4 Q^2 + 4 X3^2 + (2 Q + X4/8)^2)."""
    top = np.maximum(np.abs(lo), np.abs(hi))
    q = np.maximum(top[:, 3], np.hypot(top[:, 0], top[:, 1]))
    return np.sqrt(4.0 * q**2 + 4.0 * top[:, 2] ** 2 + (2.0 * q + top[:, 3] / 8.0) ** 2)


def axis_slopes(cut, x, step):
    """Finite-difference |df/dx_k| at the rows of x, one column per axis,
    over the step that x + step e_k actually takes."""
    slopes = []
    for k in range(x.shape[-1]):
        y = x.copy()
        y[..., k] += step
        slopes.append(np.abs(cut(y) - cut(x)) / (y[..., k] - x[..., k]))
    return np.stack(slopes, axis=-1)


class TestSlopeBound:
    """``slope_bound`` gives a (G, n) array of per-axis bounds, each no
    larger than the whole-gradient bound the cut offered before."""

    BOXES = (np.array([[-1.0, -1.0], [0.0, 0.5]]), np.array([[1.0, 1.0], [0.25, 0.75]]))

    @pytest.mark.parametrize("cut", [LinearCut([3.0, -4.0], 0.2), SphericalCut((0.1, 0.2), 0.3)])
    def test_unit_slope(self, cut):
        # |w_k| for the unit normal w, 1 on every axis for the sphere; the
        # whole-gradient bound was 1 for both
        want = np.abs(cut.w) if isinstance(cut, LinearCut) else np.ones(2)
        bound = cut.slope_bound(*self.BOXES)
        np.testing.assert_array_equal(bound, [want, want])
        assert np.all(bound <= 1.0)

    @pytest.mark.parametrize("cut", [
        ProductCut([TorusCut()]), CallableCut(SinusoidalCut(0.4, 2.0), 2),
        CallableCut(lambda x: x[..., 0], 2),
        ProductCut([LinearCut([1.0, 0.0], 0.0)]),
        PolynomialCut(lambda xi: xi[..., 0] ** 2, scale=1.0, axis=1, max_abs=1.0, dim=2),
        SphericalCut((0.0, 0.0), 2.0**17),
    ])
    def test_no_bound(self, cut):
        lo, hi = (np.zeros((1, cut.dim)), np.ones((1, cut.dim)))
        assert cut.slope_bound(lo, hi) is None

    def test_legendre_bound_formula(self):
        # P_1 and P_3 at u = (x + 1)/2: g = 2 * 1*2/4 + 1 * 3*4/4 = 4 while
        # |u| <= 1, and C/max|poly| g = 0.5 / 2 * 4 = 1 along the free axis 1;
        # the whole-gradient bound was C/max|poly| g + 1 = 2.  At |u| = 2
        # (x1 = 3 or x1 = -5), P_1'(2) = 1 and P_3'(2) = (15 * 4 - 3)/2 = 28.5,
        # so g = 2 * 1/2 + 1 * 28.5/2 = 15.25 and the bound is 3.8125
        piece = LegendrePiece(dim=1, indices=((1,), (3,)), coeffs=(2.0, -1.0))
        cut = PolynomialCut(piece, scale=0.5, axis=0, max_abs=2.0, dim=2)
        lo = np.array([[-5.0, -1.0], [0.0, -1.0], [0.0, -1.0 - 2.0**-52], [0.0, -3.0],
                       [0.0, 2.0], [0.0, -5.0]])
        hi = np.array([[5.0, 1.0], [0.0, 1.0 + 2.0**-52], [0.0, 0.0], [0.0, 1.0],
                       [0.0, 3.0], [0.0, -4.0]])
        # the axis coordinate is free to leave [-1, 1]; a free one raises the
        # bound once |u| passes 1
        np.testing.assert_array_equal(cut.slope_bound(lo, hi),
                                      [[1.0, 1.0]] * 4 + [[1.0, 3.8125]] * 2)
        assert legendre_scalar_bound(cut) == 2.0

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_legendre_bound_holds(self, dim):
        # finite-difference slopes along each axis, inside the unit box and
        # in boxes reaching past it, where P_k(|u|) and P_k'(|u|) grow
        rng = np.random.default_rng(dim)
        for _ in range(5):
            cut = sample_cut("polynomial", dim, rng)
            unit = cut.slope_bound(-np.ones((1, dim)), np.ones((1, dim)))
            assert unit.shape == (1, dim) and unit[0, cut.axis] == 1.0
            assert np.all(unit <= legendre_scalar_bound(cut))
            for half in (1.0, 2.5):
                lo = rng.uniform(-half, half, (20, dim)) - 0.5
                hi = lo + rng.uniform(0.1, 1.5, (20, dim))
                bound = cut.slope_bound(lo, hi)
                assert bound.shape == (20, dim) and np.all(np.isfinite(bound))
                x = rng.uniform(lo[:, None], hi[:, None] - 1e-6, (20, 100, dim))
                slope = axis_slopes(cut, x, 1e-6)
                # the rounding of f(y) - f(x), over the step of 1e-6
                slack = 1e-9 * (1.0 + np.abs(cut(x)))[..., None]
                assert np.all(slope <= bound[:, None] + slack)
                if half > 1.0:
                    assert np.any(bound > unit)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(["torus", "sine"]))
    def test_torus_and_sine_bounds_hold(self, seed, name):
        # random segments in random boxes, a third of the boxes straddling
        # x4 = 0 and a third the axis rho = 0, where the torus has its kinks
        rng = np.random.default_rng(seed)
        if name == "torus":
            cut = TorusCut()
        else:
            cut = SinusoidalCut(*rng.uniform(-3.0, 3.0, 2))
        boxes, dim = 30, cut.dim
        centre = rng.uniform(-1.5, 1.5, (boxes, dim))
        half = 10.0 ** rng.uniform(-3.0, 0.0, (boxes, dim))
        centre[:10, -1] = rng.uniform(-0.5, 0.5, 10) * half[:10, -1]
        centre[10:20, :2] = rng.uniform(-0.5, 0.5, (10, 2)) * half[10:20, :2]
        lo, hi = centre - half, centre + half
        bound = cut.slope_bound(lo, hi)
        assert bound.shape == (boxes, dim) and np.all(np.isfinite(bound))
        scalar = (torus_scalar_bound(lo, hi) if name == "torus"
                  else np.full(boxes, math.hypot(1.0, cut.amplitude * cut.freq * math.pi)))
        assert np.all(bound <= scalar[:, None])
        a = rng.uniform(lo[:, None], hi[:, None], (boxes, 200, dim))
        b = rng.uniform(lo[:, None], hi[:, None], (boxes, 200, dim))
        # along each axis alone, and along any segment by sum_k L_k |b_k - a_k|;
        # 1e-12 covers the rounding of f(a) - f(b), whose terms stay below 20
        along = np.where(np.eye(dim, dtype=bool)[rng.integers(dim, size=200)], b, a)
        for c in (b, along):
            gap = np.abs(cut(a) - cut(c))
            assert np.all(gap <= (np.abs(a - c) * bound[:, None]).sum(axis=-1) + 1e-12)

    def test_sine_bound_formula(self):
        cut = SinusoidalCut(0.4, 2.0)
        np.testing.assert_array_equal(cut.slope_bound(*self.BOXES), [[0.8 * math.pi, 1.0]] * 2)

    def test_torus_bound_formula(self):
        # Q = max(X4, max rho) = max(0.5, hypot(3, 4)) = 5, X3 = 2, X4 = 0.5
        lo = np.array([[-3.0, 0.0, -2.0, -0.5]])
        hi = np.array([[1.0, 4.0, 1.0, 0.25]])
        np.testing.assert_array_equal(TorusCut().slope_bound(lo, hi),
                                      [[10.0, 10.0, 4.0, 10.0 + 0.5 / 8]])
        assert TorusCut().slope_bound(lo, hi).max() <= torus_scalar_bound(lo, hi)[0]


def z_both_paths(cut, graph, t, stack):
    """``z_detector`` with every segment certified first, and sampled alone."""
    with mock.patch.object(detectors, "CERTIFY_MIN_T", 2):
        certified = z_detector(cut, graph, t, stack)
    with mock.patch.object(detectors, "CERTIFY_MIN_T", t + 1):
        sampled = z_detector(cut, graph, t, stack)
    return certified, sampled


def dyadic_stack(graph, rng, grids):
    """Grids on dyadic centres and edges: the first is the root box
    [-1, 1]^n, the last the root box moved 2^-50 along one axis, so that
    its points lie just outside [-1, 1]^n."""
    dim = graph.grid.dim
    nudged = np.zeros(dim)
    nudged[rng.integers(dim)] = rng.choice([-1.0, 1.0]) * 2.0**-50
    centers = np.vstack([np.zeros(dim), rng.integers(-8, 9, size=(grids - 2, dim)) / 16,
                         nudged])
    edges = np.concatenate([[2.0], 2.0 ** -rng.integers(0, 4, size=grids - 2), [2.0]])
    return np.stack([similar_grid(graph.grid, tuple(c), float(e)).coords()
                     for c, e in zip(centers, edges)])


def adversarial_cut(kind, stack, graph, t, rng):
    """A cut whose zero set sits on the stack's points, knots or edges."""
    dim = stack.shape[-1]
    taus = np.arange(t + 1, dtype=np.float64) / t
    axis = np.eye(dim)[0]
    point = stack[rng.integers(len(stack)), rng.integers(stack.shape[1])]
    # a segment of the stack along axis 0 and one of its knots, built as
    # knot_values builds it
    along = np.flatnonzero(graph.edges[:, 2] == 0)
    i, j = graph.edge_ends[0][along], graph.edge_ends[1][along]
    e, g = rng.integers(len(along)), rng.integers(len(stack))
    a, b = stack[g, i[e]], stack[g, j[e]]
    knot = taus[rng.integers(t + 1)] * (b - a) + a
    if kind == "plane-ulp":
        # endpoints one ulp either side of an axis plane
        side = rng.choice([-np.inf, np.inf])
        return LinearCut(axis, -np.nextafter(point[0], side))
    if kind == "oblique-ulp":
        w = rng.normal(size=dim)
        b0 = -float(LinearCut(w, 0.0)(point))
        return LinearCut(w, np.nextafter(b0, rng.choice([-np.inf, np.inf])))
    if kind == "plane-point":
        return LinearCut(axis, -point[0])
    if kind == "plane-knot":
        return LinearCut(axis, -knot[0])
    if kind == "plane-end-knot":
        # a zero at one of the knots the ranged z-detector evaluates first
        end = taus[rng.choice([t // 2, (t + 1) // 2, t, 1, t - 1])] * (b - a) + a
        return LinearCut(axis, -end[0])
    if kind == "sphere-point":
        return SphericalCut(point + 0.25 * axis, 0.25)
    if kind == "sphere-tangent":
        # tangent to the segment's line at the knot, from another axis
        radius = float(2.0 ** -rng.integers(1, 6))
        return SphericalCut(knot + radius * np.eye(dim)[1], radius)
    if kind == "sphere-near-tangent":
        # an ulp short of, or past, touching the line at the knot
        radius = float(2.0 ** -rng.integers(1, 6))
        return SphericalCut(knot + radius * np.eye(dim)[1],
                            np.nextafter(radius, rng.choice([-np.inf, np.inf])))
    assert kind == "legendre"
    # a training cut, whose bound holds on the root box's faces xi = +-1
    # and is infinite on the nudged grid
    return sample_cut("polynomial", dim, rng)


class TestCertifiedZDetector:
    """The certified path gives the sampled path's result to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 149), dim=st.sampled_from([2, 4]),
           kind=st.sampled_from(["plane-ulp", "oblique-ulp", "plane-point", "plane-knot",
                                 "sphere-point", "sphere-tangent", "legendre"]))
    def test_adversarial_segments(self, seed, t, dim, kind):
        rng = np.random.default_rng(seed)
        graph = reference_graph(dim)
        stack = dyadic_stack(graph, rng, 5)
        cut = adversarial_cut(kind, stack, graph, t, rng)
        certified, sampled = z_both_paths(cut, graph, t, stack)
        np.testing.assert_array_equal(certified, sampled)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 149),
           name=st.sampled_from(["torus", "sine"]), dyadic=st.booleans())
    def test_torus_and_sine(self, seed, t, name, dyadic):
        # grids on the interface, or dyadic grids whose nodes lie on the
        # torus's kinks x4 = 0 and rho = 0 and on the sine's zeros
        rng = np.random.default_rng(seed)
        dim = 4 if name == "torus" else 2
        cut, anchor = cut_through("torus" if name == "torus" else "sinusoidal", dim, rng)
        if name == "torus":
            anchor = (anchor, np.zeros(4), np.array([0.3, -0.2, 0.1, 0.0]),
                      np.array([0.0, 0.0, 0.2, -0.4]))[rng.integers(4)]
        graph = reference_graph(dim)
        if dyadic:
            stack = dyadic_stack(graph, rng, 5)
        else:
            stack = placed_stack(graph, anchor, 5, rng)
        certified, sampled = z_both_paths(cut, graph, t, stack)
        np.testing.assert_array_equal(certified, sampled)

    @pytest.mark.parametrize("bisect", [False, True])
    @pytest.mark.parametrize("t", [12, 13, 49, 149])
    @pytest.mark.parametrize("kind", ["plane-ulp", "oblique-ulp", "plane-point", "plane-knot",
                                      "plane-end-knot", "sphere-point", "sphere-tangent",
                                      "sphere-near-tangent", "legendre"])
    def test_adversarial_knot_ranges(self, monkeypatch, kind, t, bisect):
        # zeros on boundary and inner knots, tangent and near-tangent spheres;
        # ``bisect`` splits every open range down to two knot steps
        if bisect:
            monkeypatch.setattr(detectors, "BISECT_ABOVE", 2)
            monkeypatch.setattr(detectors, "BISECT_MIN_KNOTS", 0)
        for seed in range(6):
            rng = np.random.default_rng([seed, t, len(kind)])
            dim = (2, 3, 4)[seed % 3]
            graph = reference_graph(dim)
            stack = dyadic_stack(graph, rng, 4)
            cut = adversarial_cut(kind, stack, graph, t, rng)
            certified, sampled = z_both_paths(cut, graph, t, stack)
            np.testing.assert_array_equal(certified, sampled)

    @pytest.mark.parametrize("bisect", [False, True])
    @pytest.mark.parametrize("t", [12, 13, 49, 149])
    @pytest.mark.parametrize("kind,dim", [("linear", 2), ("linear", 4), ("sphere", 3),
                                          ("legendre", 2), ("legendre", 3), ("legendre", 4),
                                          ("sinusoidal", 2), ("torus", 4)])
    def test_knot_ranges_every_bounded_cut(self, monkeypatch, kind, dim, t, bisect):
        # grids on the interface, and wide grids reaching past [-1, 1]^n,
        # where a Legendre cut's bounds grow
        if bisect:
            monkeypatch.setattr(detectors, "BISECT_ABOVE", 2)
            monkeypatch.setattr(detectors, "BISECT_MIN_KNOTS", 0)
        rng = np.random.default_rng([dim, t, len(kind)])
        graph = reference_graph(dim)
        cut, anchor = cut_through(kind, dim, rng)
        wide = [similar_grid(graph.grid, tuple(rng.uniform(-1.5, 1.5, dim)), 2.0).coords()
                for _ in range(2)]
        stack = np.concatenate([placed_stack(graph, anchor, 5, rng), np.stack(wide)])
        calls = []
        with mock.patch.object(detectors, "_search_ranges",
                               side_effect=lambda *a: calls.append(a[-2]) or
                               self.open_ranges(*a)):
            certified, sampled = z_both_paths(cut, graph, t, stack)
        np.testing.assert_array_equal(certified, sampled)
        np.testing.assert_array_equal(sampled, z_detector_per_grid(cut, graph, t, stack))
        if kind in ("legendre", "sinusoidal", "torus"):
            # some segment is kept and has a range that its end knots leave open
            assert calls

    open_ranges = staticmethod(detectors._search_ranges)

    @pytest.mark.parametrize("t", [12, 49, 149])
    def test_steep_axis_keeps_its_bound(self, t):
        # a sine with slope 10 pi along x1 and 1 along x2: edges along x1
        # whose ends share a sign cross the wave twice in between, and only
        # x1's own bound keeps them
        cut = SinusoidalCut(0.4, 8.0)
        graph = reference_graph(2)
        rng = np.random.default_rng(t)
        stack = np.stack([similar_grid(graph.grid, (x, rng.uniform(-0.5, 0.5)), 0.5).coords()
                          for x in rng.uniform(-1.0, 1.0, 12)])
        certified, sampled = z_both_paths(cut, graph, t, stack)
        np.testing.assert_array_equal(certified, sampled)
        along_x1 = np.flatnonzero(graph.edges[:, 2] == 0)
        kept = detectors._certificate(cut, graph.edge_ends, stack)[0] % len(graph.edges)
        assert np.isin(kept, along_x1).any()

    @pytest.mark.parametrize("kind,dim", [("linear", 2), ("sphere", 3), ("legendre", 2),
                                          ("legendre", 4), ("sinusoidal", 2), ("torus", 4)])
    def test_clears_segments(self, kind, dim):
        rng = np.random.default_rng(dim)
        graph = reference_graph(dim)
        cut, anchor = cut_through(kind, dim, rng)
        stack = placed_stack(graph, anchor, 6, rng)
        kept = detectors._certificate(cut, graph.edge_ends, stack)[0]
        assert 0 < len(kept) < len(stack) * len(graph.edges)
        np.testing.assert_array_equal(*z_both_paths(cut, graph, 49, stack))

    def test_cut_without_the_method_samples_every_segment(self):
        rng = np.random.default_rng(5)
        graph = reference_graph(2)
        cut, anchor = cut_through("sphere", 2, rng)
        stack = placed_stack(graph, anchor, 6, rng)

        class Proxy:
            """Forwards only the call, as a timing wrapper might."""

            dim = 2

            def __call__(self, x):
                return cut(x)

        assert detectors._certificate(Proxy(), graph.edge_ends, stack) is None
        np.testing.assert_array_equal(z_detector(Proxy(), graph, 49, stack),
                                      z_detector(cut, graph, 49, stack))

class TestPointBuilders:
    """The knot-major ``knot_values`` builds the segment-major walk's floats."""

    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("dim,knots", [(2, 10), (4, 3), (3, 201)])
    def test_sample_signs_matches_segment_major(self, lead, dim, knots):
        rng = np.random.default_rng(dim * knots + len(lead))
        a = rng.uniform(-1, 1, (*lead, dim))
        b = np.where(rng.random((*lead, dim)) < 0.3, a, rng.uniform(-1, 1, (*lead, dim)))
        taus = np.linspace(0.0, 1.0, knots)
        seen = []
        cut = CallableCut(lambda x: seen.append(x.copy()) or x.sum(axis=-1) - 0.1, dim)
        v = knot_values(cut, a, b, taus.reshape(-1, *(1,) * len(lead)))
        (x,) = seen
        assert v.shape == (knots, *lead)
        np.testing.assert_array_equal(np.moveaxis(np.sign(v), 0, -1),
                                      sample_signs_ref(cut.fn, a, b, taus))
        # the cut saw exactly the points a + tau (b - a), bit for bit
        ref = a[..., None, :] + taus[:, None] * (b - a)[..., None, :]
        got = np.moveaxis(x.reshape(knots, *lead, dim), 0, -2)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


class CountingCut(CutFunction):
    """Delegating cut that records the size of every call it sees."""

    def __init__(self, cut):
        self.cut = cut
        self.dim = cut.dim
        self.points: list[int] = []
        self.segments: list[int] = []

    def __call__(self, x):
        self.points.append(int(np.prod(np.shape(x)[:-1])))
        return self.cut(x)

    def segment_roots(self, a, b):
        self.segments.append(int(np.prod(np.shape(a)[:-1])))
        return self.cut.segment_roots(a, b)


class BoundedCountingCut(CountingCut):
    """``CountingCut`` that forwards the slope bound, so the z-detector
    certifies segments through it."""

    def __init__(self, cut):
        super().__init__(cut)
        self.bounds = 0

    def slope_bound(self, lo, hi):
        self.bounds += 1
        return self.cut.slope_bound(lo, hi)


class TestSampleBudget:
    """Blocks smaller than one grid change no result, and no cut call
    evaluates more than ``SAMPLE_BUDGET`` points or segments."""

    @pytest.mark.parametrize("budget", [50, 61])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_blocks_below_one_grid(self, monkeypatch, dim, budget):
        rng = np.random.default_rng(dim)
        graph = reference_graph(dim)
        assert budget < len(graph.edges)
        cut, anchor = cut_through("sphere", dim, rng)
        stack = placed_stack(graph, anchor, 6, rng)
        z = {t: z_detector(cut, graph, t, stack) for t in (2, 9, 49)}
        oracle = exact_troubled_oracle(cut, graph, stack)
        batch = ExactOracleDetector(cut).detect_batch(graph, stack, None)
        assert oracle.sum() > 0

        monkeypatch.setattr(detectors, "SAMPLE_BUDGET", budget)
        counting = CountingCut(cut)
        for t, p in z.items():
            np.testing.assert_array_equal(z_detector(counting, graph, t, stack), p)
        np.testing.assert_array_equal(exact_troubled_oracle(counting, graph, stack), oracle)
        np.testing.assert_array_equal(
            ExactOracleDetector(counting).detect_batch(graph, stack, None), batch)
        assert max(counting.points) <= budget
        assert max(counting.segments) <= budget
        # the blocks split grids: more calls than grids
        assert len(counting.points) > 3 * len(stack)

    @pytest.mark.parametrize("budget", [50, 61])
    @pytest.mark.parametrize("kind,dim", [("linear", 2), ("sphere", 4), ("legendre", 2),
                                          ("legendre", 4)])
    def test_certificate_keeps_the_budget(self, monkeypatch, kind, dim, budget):
        rng = np.random.default_rng(10 * dim + budget)
        graph = reference_graph(dim)
        cut, anchor = cut_through(kind, dim, rng)
        stack = placed_stack(graph, anchor, 6, rng)
        monkeypatch.setattr(detectors, "SAMPLE_BUDGET", budget)
        monkeypatch.setattr(detectors, "CERTIFY_MIN_T", 2)
        # every grid has finite per-axis bounds, so every point is evaluated
        assert np.all(np.isfinite(cut.slope_bound(stack.min(axis=1), stack.max(axis=1))))
        points = stack.shape[0] * stack.shape[1]
        for t in (2, 9, 49):
            counting = BoundedCountingCut(cut)
            np.testing.assert_array_equal(z_detector(counting, graph, t, stack),
                                          z_detector_per_grid(cut, graph, t, stack))
            assert counting.bounds == 1
            # the grid-point pass comes first and evaluates each point once
            passes = np.cumsum(counting.points)
            assert points in passes
            grid_pass = counting.points[: int(np.searchsorted(passes, points)) + 1]
            assert max(grid_pass) <= budget
            sampled = counting.points[len(grid_pass):]
            assert sampled and max(sampled) <= budget
            # the certificate cleared segments: fewer samples than every knot
            assert sum(sampled) < len(stack) * len(graph.edges) * (t + 1)

    def test_default_budget_binds_a_large_stack(self):
        rng = np.random.default_rng(3)
        graph = reference_graph(4)
        cut, anchor = cut_through("sphere", 4, rng)
        stack = placed_stack(graph, anchor, 40, rng)
        counting = CountingCut(cut)
        np.testing.assert_array_equal(z_detector(counting, graph, 49, stack),
                                      z_detector_per_grid(cut, graph, 49, stack))
        exact_troubled_oracle(counting, graph, stack)
        assert max(counting.points) <= detectors.SAMPLE_BUDGET
        assert max(counting.segments) <= detectors.SAMPLE_BUDGET
        assert len(counting.points) > 1
        # t = 49 takes the certified path when the bound is forwarded
        bounded = BoundedCountingCut(cut)
        np.testing.assert_array_equal(z_detector(bounded, graph, 49, stack),
                                      z_detector_per_grid(cut, graph, 49, stack))
        assert bounded.bounds == 1
        assert max(bounded.points) <= detectors.SAMPLE_BUDGET
        assert sum(bounded.points) < sum(counting.points)


class TestExactOracle:
    def test_cut_far_away_all_zero(self, grid2d, graph2d):
        p = exact_troubled_oracle(SphericalCut((10.0, 10.0), 0.5), graph2d)
        assert np.all(p == 0.0)

    def test_midpoint_tie_marks_both_ends(self, grid2d, graph2d):
        coords = grid2d.coords()
        i, j, _, _ = next(e for e in graph2d.edges.tolist() if e[2] == 0)
        mid = (coords[i, 0] + coords[j, 0]) / 2
        p = exact_troubled_oracle(LinearCut([1.0, 0.0], -mid), graph2d)
        assert p[i] == 1.0 and p[j] == 1.0

    def test_matches_z_detector_at_large_t(self, grid2d, graph2d):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cut = random_cut(rng)
            p_oracle = exact_troubled_oracle(cut, graph2d)
            p_z = z_detector(cut, graph2d, 10_000)
            np.testing.assert_array_equal(p_oracle, p_z)

    @pytest.mark.parametrize("cut,closed", [
        (LinearCut([1.0, 0.0], 0.0), True),
        (SphericalCut((0.0, 0.0), 0.5), True),
        (TorusCut(), False),
    ])
    def test_has_closed_form(self, cut, closed):
        assert has_closed_form(cut, cut.dim) is closed

    def test_unsupported_cut_family(self, grid2d, graph2d):
        from sgdetect.detectors import TorusCut

        with pytest.raises(DetectorError, match="z-detector"):
            exact_troubled_oracle(TorusCut(), graph2d)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale_pow=st.integers(-3, 3),
        bx=st.fractions(min_value=-2, max_value=2),
        by=st.fractions(min_value=-2, max_value=2),
    )
    def test_scale_equivariance(self, grid2d, graph2d, seed, scale_pow, bx, by):
        # applying the same positive affine map to grid and cut leaves the
        # troubled set unchanged
        rng = np.random.default_rng(seed)
        a = 2.0**scale_pow
        b = np.array([float(bx), float(by)])
        if rng.random() < 0.5:
            cut = LinearCut(rng.normal(size=2), float(rng.uniform(-1, 1)))
            # zero set of w.x + c maps to zero set of w.y + (a c - w.b)
            mapped = LinearCut(cut.w, a * cut.b - float(cut.w @ b))
        else:
            cut = SphericalCut(rng.uniform(-1, 1, size=2), float(rng.uniform(0.05, 0.8)))
            mapped = SphericalCut(a * cut.center + b, a * cut.radius)
        placed = similar_grid(grid2d, tuple(b), a * float(grid2d.box.edge))
        placed_graph = build_grid_graph(placed)
        p_ref = exact_troubled_oracle(cut, graph2d)
        p_new = exact_troubled_oracle(mapped, placed_graph)
        np.testing.assert_array_equal(p_ref, p_new)


class _ConstantModel:
    """Stand-in model emitting a constant likelihood everywhere."""

    def __init__(self, n_points, value=0.7):
        self.n_points = n_points
        self.value = value
        self.calls = 0

        class _Cfg:
            kind = "stub"

        self.config = _Cfg()

    def frozen(self):
        return self

    def predict(self, x):
        self.calls += 1
        return np.full(x.shape, self.value)


class TestNeuralAdapter:
    @staticmethod
    def _detect(det, graph, evaluations):
        """One grid's likelihoods: the detector reads only the evaluations."""
        coords = graph.grid.coords()[None]
        return det.detect_batch(graph, coords, evaluations[None])[0]

    def test_all_sentinel_skips_model(self, grid2d, graph2d):
        model = _ConstantModel(grid2d.n_points)
        det = NeuralDetector(model)
        p = self._detect(det, graph2d, np.full(65, np.inf))
        assert np.all(p == 0.0)
        assert model.calls == 0

    def test_sentinel_positions_forced_zero(self, grid2d, graph2d):
        model = _ConstantModel(grid2d.n_points)
        det = NeuralDetector(model)
        g = np.arange(65, dtype=float)
        g[[3, 10]] = np.inf
        p = self._detect(det, graph2d, g)
        assert p[3] == 0.0 and p[10] == 0.0
        assert np.all(p[np.isfinite(g)] == 0.7)

    def test_output_in_unit_interval_for_constant_input(self, grid2d, graph2d):
        model = _ConstantModel(grid2d.n_points, value=0.3)
        det = NeuralDetector(model)
        p = self._detect(det, graph2d, np.full(65, 5.0))
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_batch_matches_single_rows(self, grid2d, graph2d, tiny_graph):
        from sgdetect.neural.model import ModelConfig, build_archetype

        model = build_archetype(ModelConfig(kind="ginn", features=3), tiny_graph, seed=0)
        det = NeuralDetector(model)
        tiny = tiny_graph.grid
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(4, tiny.n_points))
        rows[2, 1] = np.inf
        coords = np.broadcast_to(tiny.coords(), (len(rows), *tiny.coords().shape))
        batch = det.detect_batch(tiny_graph, coords, rows)
        singles = np.stack([self._detect(det, tiny_graph, r) for r in rows])
        np.testing.assert_array_equal(batch, singles)

    def test_length_mismatch_raises(self, grid2d, graph2d):
        model = _ConstantModel(n_points=10)
        det = NeuralDetector(model)
        with pytest.raises(DetectorError):
            self._detect(det, graph2d, np.zeros(65))


class TestMakeDetector:
    def test_exact_needs_cut(self):
        with pytest.raises(DetectorError):
            make_detector("exact")

    def test_exact_with_explicit_cut_spec(self, grid2d, graph2d):
        det = make_detector("exact:sphere:0.2,0.1:0.65")
        expected = exact_troubled_oracle(SphericalCut((0.2, 0.1), 0.65), graph2d)
        np.testing.assert_array_equal(
            det.detect_batch(graph2d, grid2d.coords()[None], None)[0], expected)
        linear = make_detector("exact:linear:1,0:-0.25")
        assert np.isclose(linear.cut.b, -0.25)

    def test_malformed_cut_spec(self):
        with pytest.raises(DetectorError):
            make_detector("exact:sphere:0.2,0.1")
        with pytest.raises(DetectorError):
            make_detector("exact:banana:1:2")

    def test_zlevel_parse(self):
        det = make_detector("zlevel:149", cut=LinearCut([1, 0], 0))
        assert det.t == 149

    def test_unknown_name(self):
        with pytest.raises(DetectorError):
            make_detector("sorcery:3")
