import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect.detectors import (
    ExactOracleDetector,
    GridSample,
    LinearCut,
    NeuralDetector,
    SphericalCut,
    exact_troubled_oracle,
    make_detector,
    z_detector,
)
from sgdetect.errors import DetectorError
from sgdetect.grid_graph import build_grid_graph
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid, similar_grid


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
    for e in graph.edges:
        (lo,), (hi,) = roots_ref(cut, coords[[e.i]], coords[[e.j]])
        if lo <= 0.5:
            p[e.i] = 1.0
        if hi >= 0.5:
            p[e.j] = 1.0
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
        in_plane = [e for e in graph2d.edges
                    if coords[e.i, 0] == 0.0 and coords[e.j, 0] == 0.0]
        assert in_plane
        for e in in_plane:
            assert p[e.i] == 1.0 and p[e.j] == 1.0

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
            a = coords[[e.i for e in graph.edges]]
            b = coords[[e.j for e in graph.edges]]
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
            samples = [GridSample(grid=reference, graph=graph, coords=c,
                                  in_domain=np.ones(len(c), dtype=bool)) for c in stack]
            np.testing.assert_array_equal(ExactOracleDetector(cut).detect_batch(samples), p)


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
        edge = next(e for e in graph2d.edges if e.axis == 0 and e.span == grid2d.resolution // 4)
        a, b = coords[edge.i], coords[edge.j]
        mid = (a[0] + b[0]) / 2
        cut = LinearCut([1.0, 0.0], -(mid - 0.01 * (b[0] - a[0])))
        p = z_detector(cut, graph2d, 1000)
        left, right = (edge.i, edge.j) if a[0] < b[0] else (edge.j, edge.i)
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
        for e in graph2d.edges:
            connected[e.i] = connected[e.j] = True
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


class TestExactOracle:
    def test_cut_far_away_all_zero(self, grid2d, graph2d):
        p = exact_troubled_oracle(SphericalCut((10.0, 10.0), 0.5), graph2d)
        assert np.all(p == 0.0)

    def test_midpoint_tie_marks_both_ends(self, grid2d, graph2d):
        coords = grid2d.coords()
        edge = next(e for e in graph2d.edges if e.axis == 0)
        mid = (coords[edge.i, 0] + coords[edge.j, 0]) / 2
        p = exact_troubled_oracle(LinearCut([1.0, 0.0], -mid), graph2d)
        assert p[edge.i] == 1.0 and p[edge.j] == 1.0

    def test_matches_z_detector_at_large_t(self, grid2d, graph2d):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cut = random_cut(rng)
            p_oracle = exact_troubled_oracle(cut, graph2d)
            p_z = z_detector(cut, graph2d, 10_000)
            np.testing.assert_array_equal(p_oracle, p_z)

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

    def predict(self, x):
        self.calls += 1
        return np.full(x.shape, self.value)


class TestNeuralAdapter:
    def _sample(self, grid2d, graph2d, evaluations, in_domain=None):
        n = grid2d.n_points
        if in_domain is None:
            in_domain = np.isfinite(evaluations)
        return GridSample(grid=grid2d, graph=graph2d, coords=grid2d.coords(),
                          in_domain=in_domain, evaluations=evaluations)

    def test_all_sentinel_skips_model(self, grid2d, graph2d):
        model = _ConstantModel(grid2d.n_points)
        det = NeuralDetector(model)
        p = det.detect_batch([self._sample(grid2d, graph2d, np.full(65, np.inf))])[0]
        assert np.all(p == 0.0)
        assert model.calls == 0

    def test_sentinel_positions_forced_zero(self, grid2d, graph2d):
        model = _ConstantModel(grid2d.n_points)
        det = NeuralDetector(model)
        g = np.arange(65, dtype=float)
        g[[3, 10]] = np.inf
        p = det.detect_batch([self._sample(grid2d, graph2d, g)])[0]
        assert p[3] == 0.0 and p[10] == 0.0
        assert np.all(p[np.isfinite(g)] == 0.7)

    def test_output_in_unit_interval_for_constant_input(self, grid2d, graph2d):
        model = _ConstantModel(grid2d.n_points, value=0.3)
        det = NeuralDetector(model)
        p = det.detect_batch([self._sample(grid2d, graph2d, np.full(65, 5.0))])[0]
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_batch_matches_single_rows(self, grid2d, graph2d, tiny_graph):
        from sgdetect.neural.model import ModelConfig, build_archetype

        model = build_archetype(ModelConfig(kind="ginn", features=3), tiny_graph, seed=0)
        det = NeuralDetector(model)
        tiny = tiny_graph.grid
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(4, tiny.n_points))
        rows[2, 1] = np.inf
        samples = [
            GridSample(grid=tiny, graph=tiny_graph, coords=tiny.coords(),
                       in_domain=np.isfinite(r), evaluations=r)
            for r in rows
        ]
        batch = det.detect_batch(samples)
        singles = np.stack([det.detect_batch([s])[0] for s in samples])
        np.testing.assert_array_equal(batch, singles)

    def test_length_mismatch_raises(self, grid2d, graph2d):
        model = _ConstantModel(n_points=10)
        det = NeuralDetector(model)
        with pytest.raises(DetectorError):
            det.detect_batch([self._sample(grid2d, graph2d, np.zeros(65))])


class TestMakeDetector:
    def test_exact_needs_cut(self):
        with pytest.raises(DetectorError):
            make_detector("exact")

    def test_exact_with_explicit_cut_spec(self, grid2d, graph2d):
        det = make_detector("exact:sphere:0.2,0.1:0.65")
        expected = exact_troubled_oracle(SphericalCut((0.2, 0.1), 0.65), graph2d)
        sample = GridSample(grid=grid2d, graph=graph2d, coords=grid2d.coords(),
                            in_domain=np.ones(65, dtype=bool))
        np.testing.assert_array_equal(det.detect_batch([sample])[0], expected)
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
