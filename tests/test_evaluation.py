import functools
from fractions import Fraction

import numpy as np
import pytest

from sgdetect import detectors, evaluation
from sgdetect.detectors import (
    CallableCut,
    CutFunction,
    LinearCut,
    ProductCut,
    SinusoidalCut,
    SphericalCut,
    TorusCut,
    knot_values,
)
from sgdetect.errors import MalformedFileError, SgdetectError
from sgdetect.grid_graph import build_grid_graph
from sgdetect.evaluation import (
    SHEPP_LOGAN_ELLIPSES,
    ImageFunction,
    _axis_cross,
    builtin_test_functions,
    read_pgm,
    shepp_logan,
    tpr,
)
from sgdetect.sparse_grid import Box, GridSpec, SparseGrid, build_sparse_grid
from sgdetect.synth_data import sample_cut


class TestBuiltins:
    def test_registry_contents(self):
        names = set(builtin_test_functions())
        assert {"circle", "poly", "sine", "bows", "torus4d"} <= names

    def test_all_evaluable_on_their_domain(self, rng):
        for tf in builtin_test_functions().values():
            x = rng.uniform(-1, 1, size=(40, tf.dim))
            vals = tf(x)
            assert np.all(np.isfinite(vals))
            if tf.cut is not None:
                assert np.all(np.isfinite(tf.cut(x)))

    def test_torus_hand_value(self):
        torus = builtin_test_functions()["torus4d"].cut
        assert torus(np.array([0.5, 0.0, 0.0, 1.0])) == pytest.approx(0.1875)

    def test_torus_collapses_at_x4_zero(self, rng):
        torus = builtin_test_functions()["torus4d"].cut
        x = rng.uniform(-1, 1, size=(100, 4))
        x[:, 3] = 0.0
        assert np.all(torus(x) >= 0.0)

    def test_circle_jump_bounded_away_from_zero(self):
        # the registered pieces keep an order-one discontinuity jump on the cut
        tf = builtin_test_functions()["circle"]
        theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        on_cut = np.stack([0.2 + 0.65 * np.cos(theta), 0.1 + 0.65 * np.sin(theta)], axis=1)
        eps = 1e-6
        outward = on_cut + eps * (on_cut - [0.2, 0.1])
        inward = on_cut - eps * (on_cut - [0.2, 0.1])
        jump = np.abs(tf(outward) - tf(inward))
        assert jump.min() > 0.5


class TestTpr:
    def test_points_on_interface_full_score(self, graph2d):
        cut = SphericalCut((0.0, 0.0), 0.5)
        theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        pts = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        report = tpr(pts, cut, Fraction(1, 32), graph2d)
        assert report.tpr == 1.0

    def test_faraway_points_zero_score(self, graph2d):
        cut = SphericalCut((0.0, 0.0), 0.1)
        pts = np.array([[0.9, 0.9], [-0.8, 0.7]])
        report = tpr(pts, cut, Fraction(1, 32), graph2d)
        assert report.tpr == 0.0

    def test_empty_troubled_set_undefined(self, graph2d):
        report = tpr(np.zeros((0, 2)), SphericalCut((0, 0), 0.5), Fraction(1, 32), graph2d)
        assert report.undefined
        assert report.troubled_count == 0

    def test_sampling_fallback_matches_closed_form(self, graph2d, rng):
        # wrap the circle as a cut without closed-form roots, compare verdicts
        from sgdetect.detectors import CallableCut

        cut = SphericalCut((0.1, -0.2), 0.4)
        sampled = CallableCut(cut, dim=2)
        pts = rng.uniform(-0.8, 0.8, size=(25, 2))
        a = tpr(pts, cut, Fraction(1, 16), graph2d)
        b = tpr(pts, sampled, Fraction(1, 16), graph2d, subdivisions=2000)
        assert a.verdicts == b.verdicts

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_chunked_verdicts_equal_single_point_verdicts(self, graph2d, rng,
                                                          monkeypatch, closed_form):
        circle = SphericalCut((0.1, -0.2), 0.4)
        largest = []

        def sampled(x):
            largest.append(len(x))
            return circle(x)

        cut = circle if closed_form else CallableCut(sampled, dim=2)
        # points near and far from the circle, so chunks hold both verdicts
        theta = rng.uniform(0, 2 * np.pi, 23)
        radius = 0.4 + rng.choice([0.0, 0.3], 23) * rng.uniform(0.5, 1.0, 23)
        pts = np.stack([0.1 + radius * np.cos(theta), -0.2 + radius * np.sin(theta)], axis=1)
        singles = [tpr(x, cut, Fraction(1, 16), graph2d, subdivisions=40).verdicts[0]
                   for x in pts]
        budget = 5 * 41  # five points per chunk
        # the chunks and the walk read it in evaluation, the shared search in detectors
        monkeypatch.setattr(evaluation, "SAMPLE_BUDGET", budget)
        monkeypatch.setattr(detectors, "SAMPLE_BUDGET", budget)
        largest.clear()
        chunked = tpr(pts, cut, Fraction(1, 16), graph2d, subdivisions=40)
        assert chunked.verdicts == singles
        assert 0 < sum(singles) < len(singles)
        if not closed_form:
            assert 0 < max(largest) <= budget

    def test_verdicts_deterministic(self, graph2d, rng):
        cut = SphericalCut((0.0, 0.0), 0.3)
        pts = rng.uniform(-0.5, 0.5, size=(10, 2))
        a = tpr(pts, cut, Fraction(1, 16), graph2d)
        b = tpr(pts, cut, Fraction(1, 16), graph2d)
        assert a.verdicts == b.verdicts


def check_offsets(lambda_min, graph):
    """Node offsets of a check grid with box edge ``lambda_min``, as ``tpr`` computes them."""
    grid = graph.grid
    m = grid.resolution
    return (grid.lattice - m / 2.0) / m * float(lambda_min)


def placed_nodes(points, lambda_min, graph):
    """The check-grid nodes of each point: (P, N, n)."""
    return points[:, None] + check_offsets(lambda_min, graph)


def edge_walk_verdicts(points, cut, lambda_min, graph, subdivisions):
    """Reference verdicts: every edge of every check grid, one edge at a time.

    This is ``tpr`` without its node-sign prefilter: each edge goes to the
    cut's closed form, or is walked at all ``subdivisions + 1`` knots.
    """
    offsets = check_offsets(lambda_min, graph)
    knots = np.linspace(0.0, 1.0, subdivisions + 1)
    hit = np.zeros(len(points), dtype=bool)
    for i, j, _, _ in graph.edges.tolist():
        a = points + offsets[i]
        b = points + offsets[j]
        roots = cut.segment_roots(a, b)
        if roots is None:
            s = np.sign(knot_values(cut, a, b, knots[:, None]))
            hit |= np.any(s == 0, axis=0) | np.any(s[:-1] != s[1:], axis=0)
        else:
            hit |= ~np.isnan(roots[0])
    return hit.tolist()


@functools.cache
def check_graph(dim, rule="sum", level=6):
    """A check graph; by default the level-6 sum-rule one: 65, 69 or 41
    points in 2D, 3D or 4D."""
    grid = build_sparse_grid(GridSpec(dim=dim, rule=rule, level=level), Box.cube((0,) * dim, 2))
    return build_grid_graph(grid)


def cross_nodes(graph, reach=None):
    """Nodes on the axis cross: lattice rows off the centre M/2 on at most one
    axis, and with ``reach`` at most that many lattice steps from it."""
    grid = graph.grid
    offset = np.abs(grid.lattice - grid.resolution // 2)
    on = np.count_nonzero(offset, axis=1) <= 1
    return on if reach is None else on & (offset.max(axis=1) <= reach)


def cross_edges(graph, reach=None):
    """Edges whose two ends are both on the axis cross (within ``reach``)."""
    on = cross_nodes(graph, reach)
    ei, ej = graph.edge_ends
    return on[ei] & on[ej]


def star_nodes(graph):
    """The centre and its graph neighbours."""
    grid = graph.grid
    middle = np.all(grid.lattice == grid.resolution // 2, axis=1)
    ei, ej = graph.edge_ends
    star = middle.copy()
    star[ej[middle[ei]]] = star[ei[middle[ej]]] = True
    return star


def node_sphere(graph, node, centre, lambda_min):
    """A sphere around check-grid node ``node`` at ``centre`` ``(1, n)``,
    0.3 lattice steps in radius: it crosses the node's edges and no other."""
    nodes = placed_nodes(centre, lambda_min, graph)[0]
    step = float(lambda_min) / graph.grid.resolution
    return SphericalCut(nodes[node], 0.3 * step)


def incident_edges(graph, node):
    ei, ej = graph.edge_ends
    return np.flatnonzero((ei == node) | (ej == node))


def crossed_edges(sphere, centre, lambda_min, graph):
    """Indices of the check-grid edges at ``centre`` ``(1, n)`` that the
    sphere's closed form crosses."""
    nodes = placed_nodes(centre, lambda_min, graph)[0]
    ei, ej = graph.edge_ends
    return np.flatnonzero(~np.isnan(sphere.segment_roots(nodes[ei], nodes[ej])[0]))


@pytest.fixture()
def placed_sizes(monkeypatch):
    """The node count of every grid placed from here on: ``tpr`` places the
    axis cross for pass 1 and the whole check grid for pass 2."""
    sizes = []
    place = SparseGrid.place

    def spy(self, centers, edge):
        sizes.append(self.n_points)
        return place(self, centers, edge)

    monkeypatch.setattr(SparseGrid, "place", spy)
    return sizes


class SampledSphere(SphericalCut):
    """A sphere without its closed form: ``tpr`` samples it, and its walk
    skips the edges the sphere's slope bound certifies."""

    def segment_roots(self, a, b):
        return None


class CountingCut(CutFunction):
    """Delegating cut, slope bound included, that records the points of
    every call it sees."""

    def __init__(self, cut):
        self.cut, self.dim, self.points = cut, cut.dim, []

    def __call__(self, x):
        self.points.append(len(x))
        return self.cut(x)

    def slope_bound(self, lo, hi):
        return self.cut.slope_bound(lo, hi)


class Proxy:
    """Forwards the call and the closed form only, as a timing wrapper
    might: no slope bound."""

    def __init__(self, cut):
        self.cut, self.dim = cut, cut.dim

    def __call__(self, x):
        return self.cut(x)

    def segment_roots(self, a, b):
        return self.cut.segment_roots(a, b)


class HoledSphere(SampledSphere):
    """A sampled sphere with its slope bound whose value is NaN within
    ``hole`` of ``at``."""

    def __init__(self, center, radius, at, hole):
        super().__init__(center, radius)
        self.at, self.hole = np.asarray(at), hole

    def __call__(self, x):
        near = np.linalg.norm(np.asarray(x) - self.at, axis=-1) < self.hole
        return np.where(near, np.nan, super().__call__(x))


CUTS = {
    "callable": lambda d: CallableCut(SphericalCut(np.full(d, 0.1), 0.5), dim=d),
    "product": lambda d: ProductCut([LinearCut(np.arange(1.0, d + 1), 0.2),
                                     SphericalCut(np.zeros(d), 0.6)]),
    "linear": lambda d: LinearCut(np.arange(1.0, d + 1), 0.2),
    "spherical": lambda d: SphericalCut(np.full(d, -0.1), 0.55),
}


class TestTprMatchesEdgeWalk:
    """``tpr``'s verdicts equal the plain edge walk's, bit for bit."""

    @pytest.mark.parametrize("lambda_min", [Fraction(1, 4), Fraction(1, 3)])
    @pytest.mark.parametrize("cut_name", sorted(CUTS))
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_check_grids(self, dim, cut_name, lambda_min, rng):
        graph = check_graph(dim)
        cut = CUTS[cut_name](dim)
        pts = rng.uniform(-0.8, 0.8, size=(60, dim))
        expected = edge_walk_verdicts(pts, cut, lambda_min, graph, 50)
        assert tpr(pts, cut, lambda_min, graph, subdivisions=50).verdicts == expected
        assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize("lambda_min", [Fraction(1, 2), Fraction(1, 3)])
    def test_torus(self, lambda_min, rng):
        graph = check_graph(4)
        pts = rng.uniform(-0.9, 0.9, size=(60, 4))
        expected = edge_walk_verdicts(pts, TorusCut(), lambda_min, graph, 50)
        assert tpr(pts, TorusCut(), lambda_min, graph, subdivisions=50).verdicts == expected
        assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_nodes_on_the_interface(self, dim, sampled, rng):
        # dyadic centres and box edge: the plane x0 = 1/8 passes through lattice nodes
        graph = check_graph(dim)
        plane = LinearCut(np.eye(dim)[0], -0.125)
        cut = CallableCut(plane, dim=dim) if sampled else plane
        pts = rng.integers(-48, 48, size=(60, dim)) / 64.0
        nodes = placed_nodes(pts, Fraction(1, 4), graph)
        assert np.any(plane(nodes) == 0.0)
        expected = edge_walk_verdicts(pts, cut, Fraction(1, 4), graph, 50)
        assert tpr(pts, cut, Fraction(1, 4), graph, subdivisions=50).verdicts == expected
        assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize("sampled", [False, True, "bounded"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_edge_crossed_twice(self, dim, sampled, placed_sizes):
        # a small sphere around the middle of one edge: every node lies
        # outside it, and no other edge meets it.  The edge is off the axis
        # cross, so only the whole grid's walk can find it; with the
        # sphere's slope bound, its end values do not certify it
        graph = check_graph(dim)
        lam = Fraction(1, 3)
        centre = np.full((1, dim), 0.05)
        nodes = placed_nodes(centre, lam, graph)[0]
        i, j = graph.edge_ends[0][0], graph.edge_ends[1][0]
        length = np.linalg.norm(nodes[j] - nodes[i])
        sphere = SphericalCut((nodes[i] + nodes[j]) / 2, 0.3 * length)
        assert np.all(sphere(nodes) > 0.0)
        assert not cross_edges(graph)[0]
        assert crossed_edges(sphere, centre, lam, graph).tolist() == [0]
        if sampled == "bounded":
            cut = SampledSphere(sphere.center, sphere.radius)
        else:
            cut = CallableCut(sphere, dim=dim) if sampled else sphere
        expected = edge_walk_verdicts(centre, cut, lam, graph, 50)
        assert expected == [True]
        assert tpr(centre, cut, lam, graph, subdivisions=50).verdicts == expected
        assert placed_sizes == [star_nodes(graph).sum(), cross_nodes(graph).sum(),
                                graph.n_points]

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_crossing_on_the_star_alone(self, dim, sampled, placed_sizes):
        # a small sphere around the centre node crosses the centre's edges
        # and no other: the star decides, no larger part is placed
        graph = check_graph(dim)
        lam = Fraction(1, 3)
        centre = np.full((1, dim), 0.05)
        middle = np.flatnonzero(np.all(graph.grid.lattice == graph.grid.resolution // 2, axis=1))
        sphere = node_sphere(graph, middle[0], centre, lam)
        crossed = crossed_edges(sphere, centre, lam, graph)
        assert crossed.tolist() == incident_edges(graph, middle[0]).tolist()
        assert np.all(cross_edges(graph, reach=1)[crossed])
        assert cross_edges(graph, reach=1).sum() == 2 * dim
        cut = CallableCut(sphere, dim=dim) if sampled else sphere
        expected = edge_walk_verdicts(centre, cut, lam, graph, 50)
        assert expected == [True]
        assert tpr(centre, cut, lam, graph, subdivisions=50).verdicts == expected
        assert placed_sizes == [star_nodes(graph).sum()] == [2 * dim + 1]

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_crossing_on_the_cross_alone(self, dim, sampled, placed_sizes):
        # a small sphere around a cross node outside the star, all of whose
        # edges lie on the cross (the level-6 4D grid has none such): the
        # star misses it and the cross decides, the whole grid is never placed
        graph = check_graph(dim, level=8)
        lam = Fraction(1, 3)
        centre = np.full((1, dim), 0.05)
        on, star = cross_edges(graph), cross_edges(graph, reach=1)
        node = next(k for k in np.flatnonzero(cross_nodes(graph) & ~star_nodes(graph))
                    if np.all(on[incident_edges(graph, k)]))
        sphere = node_sphere(graph, node, centre, lam)
        crossed = crossed_edges(sphere, centre, lam, graph)
        assert crossed.tolist() == incident_edges(graph, node).tolist()
        assert np.all(on[crossed]) and not np.any(star[crossed])
        cut = CallableCut(sphere, dim=dim) if sampled else sphere
        expected = edge_walk_verdicts(centre, cut, lam, graph, 50)
        assert expected == [True]
        assert tpr(centre, cut, lam, graph, subdivisions=50).verdicts == expected
        assert placed_sizes == [star_nodes(graph).sum(), cross_nodes(graph).sum()]

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_crossing_off_the_cross(self, dim, sampled, placed_sizes):
        # a small sphere around a node off the cross: every crossed edge has
        # an end off the cross, so only the whole grid finds it, by its node
        # signs and without a walk for a sampled cut
        graph = check_graph(dim)
        lam = Fraction(1, 3)
        centre = np.full((1, dim), 0.05)
        node = np.flatnonzero(~cross_nodes(graph))[0]
        sphere = node_sphere(graph, node, centre, lam)
        crossed = crossed_edges(sphere, centre, lam, graph)
        assert crossed.tolist() == incident_edges(graph, node).tolist()
        assert not np.any(cross_edges(graph)[crossed])
        cut = CallableCut(sphere, dim=dim) if sampled else sphere
        expected = edge_walk_verdicts(centre, cut, lam, graph, 50)
        assert expected == [True]
        assert tpr(centre, cut, lam, graph, subdivisions=50).verdicts == expected
        assert placed_sizes == [star_nodes(graph).sum(), cross_nodes(graph).sum(),
                                graph.n_points]

    @pytest.mark.parametrize("name,dim", [("torus", 4), ("sine", 2)])
    def test_false_heavy_sampled_cuts(self, name, dim, monkeypatch):
        # uniform points, most of whose check grids miss the interface: the
        # walk evaluates the cut at a small share of the knots of the edges
        # it is handed, since the slope bound clears most pairs and ranges
        cut = TorusCut() if name == "torus" else SinusoidalCut(0.4, 2.0)
        counting = CountingCut(cut)
        graph = check_graph(dim, level=8)
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(150, dim))
        walked = []
        walk = evaluation._walked

        def spy(f, *args):
            before = len(f.points)
            walk(f, *args)
            walked.append(sum(f.points[before:]))

        monkeypatch.setattr(evaluation, "_walked", spy)
        got = tpr(pts, counting, Fraction(1, 8), graph, subdivisions=50).verdicts
        expected = edge_walk_verdicts(pts, cut, Fraction(1, 8), graph, 50)
        assert got == expected
        assert 0 < sum(expected) < len(expected) / 4
        false = len(expected) - sum(expected)
        # the points reach the walk, which evaluates under 1 % of their knots
        assert walked and sum(walked) < false * len(graph.edges) * 51 / 100

    @pytest.mark.parametrize("bad", [[np.nan, 0.3], [np.inf, 0.0], [0.1, -np.inf]])
    @pytest.mark.parametrize("name", ["circle", "sine"])
    def test_non_finite_points(self, name, bad):
        # a NaN or inf coordinate is not a troubled point: it would score
        # True on a sampled cut (a NaN sample counts as a crossing) and
        # False on a closed-form one
        cut = builtin_test_functions()[name].cut
        pts = np.array([[0.2, 0.75], [0.0, 0.0], bad, [np.nan, np.nan]])
        with pytest.raises(SgdetectError, match=r"troubled point 2 has a non-finite"):
            tpr(pts, cut, Fraction(1, 8), check_graph(2), subdivisions=50)

    @pytest.mark.parametrize("rule,level", [("prod", 6), ("max", 3)])
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_other_rules(self, dim, sampled, rule, level, rng):
        graph = check_graph(dim, rule, level)
        sphere = SphericalCut(np.full(dim, -0.1), 0.55)
        cut = CallableCut(sphere, dim=dim) if sampled else sphere
        pts = rng.uniform(-0.8, 0.8, size=(60, dim))
        expected = edge_walk_verdicts(pts, cut, Fraction(1, 3), graph, 50)
        assert tpr(pts, cut, Fraction(1, 3), graph, subdivisions=50).verdicts == expected
        assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_cross_is_the_whole_grid(self, dim, sampled, rng):
        # the level-3 product-rule grid is the centre and its axis lines
        # alone: pass 2 repeats pass 1 on the same grid
        graph = check_graph(dim, "prod", 3)
        assert np.all(cross_edges(graph)) and np.all(cross_nodes(graph))
        sphere = SphericalCut(np.full(dim, 0.1), 0.5)
        cut = CallableCut(sphere, dim=dim) if sampled else sphere
        pts = rng.uniform(-0.8, 0.8, size=(60, dim))
        expected = edge_walk_verdicts(pts, cut, Fraction(1, 4), graph, 50)
        assert tpr(pts, cut, Fraction(1, 4), graph, subdivisions=50).verdicts == expected
        assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_nan_on_the_cross(self, dim, rng):
        # the cut is NaN on the axis cross of the first 30 check grids (all
        # but one coordinate equal to the centre's) and a sphere elsewhere;
        # a NaN sample counts as a sign change in the walk
        graph = check_graph(dim)
        pts = rng.uniform(-0.8, 0.8, size=(60, dim))
        sphere = SphericalCut(np.full(dim, -0.1), 0.55)

        def cut(x):
            matches = sum(np.isin(x[..., d], pts[:30, d]) for d in range(dim))
            return np.where(matches >= dim - 1, np.nan, sphere(x))

        nodes = placed_nodes(pts, Fraction(1, 3), graph)
        assert np.all(np.isnan(cut(nodes[:30, cross_nodes(graph)])))
        assert not np.any(np.isnan(cut(nodes[30:])))
        sampled = CallableCut(cut, dim=dim)
        expected = edge_walk_verdicts(pts, sampled, Fraction(1, 3), graph, 50)
        assert tpr(pts, sampled, Fraction(1, 3), graph, subdivisions=50).verdicts == expected
        assert all(expected[:30]) and 0 < sum(expected[30:]) < 30

    @pytest.mark.parametrize("rule,level", [("sum", 6), ("prod", 6), ("max", 3)])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_axis_cross_rows(self, dim, rule, level, rng):
        # the cross's placed rows are the whole placement's rows to the bit
        graph = check_graph(dim, rule, level)
        cross, ci, cj = _axis_cross(graph)
        on = np.flatnonzero(cross_nodes(graph))
        ei, ej = graph.edge_ends
        both = cross_edges(graph)
        assert on[ci].tolist() == ei[both].tolist() and on[cj].tolist() == ej[both].tolist()
        pts = rng.uniform(-0.8, 0.8, size=(7, dim))
        for lam in (1 / 3, 0.1, 2.0):
            whole = graph.grid.place(pts, lam)[:, on]
            assert cross.place(pts, lam).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("sampled", [False, True])
    def test_one_point_check_grid(self, sampled):
        # the level-2 sum grid is its centre alone: no edge to cross, so a
        # point on the interface would score False; tpr refuses the grid
        grid = build_sparse_grid(GridSpec(dim=2, rule="sum", level=2), Box.cube((0, 0), 2))
        graph = build_grid_graph(grid)
        circle = SphericalCut((0.0, 0.0), 0.5)
        cut = CallableCut(circle, dim=2) if sampled else circle
        pts = np.array([[0.5, 0.0], [0.1, 0.1]])
        assert edge_walk_verdicts(pts, cut, Fraction(1, 4), graph, 50) == [False, False]
        with pytest.raises(SgdetectError, match="is a single point"):
            tpr(pts, cut, Fraction(1, 4), graph, subdivisions=50)

    @pytest.mark.parametrize("lam", [0, Fraction(-1, 16), -0.0, float("nan")])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_non_positive_lambda_min(self, lam, sampled):
        # a check grid of edge 0 has no edge to cross and one of a negative
        # edge is the mirrored grid: neither scores a point
        circle = SphericalCut((0.2, 0.1), 0.65)
        cut = CallableCut(circle, dim=2) if sampled else circle
        for pts in (np.array([[0.85, 0.1]]), np.empty((0, 2))):
            with pytest.raises(SgdetectError, match="lambda_min must be > 0"):
                tpr(pts, cut, lam, check_graph(2), subdivisions=50)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_last_knot_differs_from_its_node(self, dim, rng):
        # a centre coordinate p near 0 makes each edge from x0 < 0 into the
        # row x0 = p end its walk at a + (b - a) != b.  A plane between p
        # and all those last knots splits the node signs, yet no sampled
        # point crosses it: the verdict is the walk's False, not the nodes'
        graph = check_graph(dim)
        lam = Fraction(1, 3)
        ei, ej = graph.edge_ends
        offsets = check_offsets(lam, graph)[:, 0]
        into_row = (offsets[ei] < 0) & (offsets[ej] == 0)
        for p in rng.uniform(-0.01, 0.01, 200):
            pts = np.full((1, dim), 0.05)
            pts[0, 0] = p
            nodes = placed_nodes(pts, lam, graph)[0]
            a, b = nodes[ei[into_row], 0], nodes[ej[into_row], 0]
            level = np.nextafter(p, -np.inf)
            if np.all(a + (b - a) < level):
                break
        else:
            pytest.fail("no centre puts every last knot below the row")
        plane = CallableCut(lambda x: x[..., 0] - level, dim=dim)
        assert np.any(np.sign(plane(nodes[ei])) != np.sign(plane(nodes[ej])))
        assert edge_walk_verdicts(pts, plane, lam, graph, 50) == [False]
        assert tpr(pts, plane, lam, graph, subdivisions=50).verdicts == [False]


def walk_cut(name, dim):
    """The cuts whose walk ``TestWalk`` checks on uniform points."""
    if name == "torus":
        return TorusCut()
    if name == "sine":
        # steep along x1, so that the bound keeps pairs of points the walk decides
        return SinusoidalCut(0.4, 8.0)
    if name == "poly":
        return builtin_test_functions()["poly"].cut if dim == 2 else sample_cut(
            "polynomial", dim, np.random.default_rng(3))
    if name == "proxy":
        return Proxy(TorusCut() if dim == 4 else SinusoidalCut(0.4, 8.0))
    # NaN in a ball around the origin, with and without a slope bound
    sphere = SphericalCut(np.full(dim, 0.2), 0.5)
    if name == "nan":
        return CallableCut(lambda x: np.where(np.linalg.norm(x, axis=-1) < 0.3, np.nan,
                                              sphere(x)), dim=dim)
    assert name == "nan-bounded"
    return HoledSphere(sphere.center, sphere.radius, np.zeros(dim), 0.3)


class TestWalk:
    """The whole grid's walk, which hands each kept (point, edge) pair to the
    z-detector's range search as one range of all its knots, gives the
    verdicts of walking every edge at every knot."""

    @pytest.fixture(params=[False, True], ids=["sampled", "bisected"])
    def searched(self, request, monkeypatch):
        """The ranges handed to the search; ``bisected`` splits every open
        range down to two knot steps."""
        if request.param:
            monkeypatch.setattr(detectors, "BISECT_ABOVE", 2)
            monkeypatch.setattr(detectors, "BISECT_MIN_KNOTS", 0)
        calls = []
        search = detectors._search_ranges

        def spy(*args):
            calls.append(len(args[6][0]))
            return search(*args)

        monkeypatch.setattr(evaluation, "_search_ranges", spy)
        return calls

    @pytest.mark.parametrize("subdivisions", [1, 2, 49, 50])
    @pytest.mark.parametrize("name,dim", [("torus", 4), ("sine", 2), ("poly", 2), ("poly", 4),
                                          ("proxy", 2), ("proxy", 4), ("nan", 2),
                                          ("nan-bounded", 3)])
    def test_uniform_points(self, name, dim, subdivisions, searched):
        cut = walk_cut(name, dim)
        graph = check_graph(dim, level=8 if dim == 2 else 6)
        pts = np.random.default_rng([dim, subdivisions]).uniform(-1.0, 1.0, size=(60, dim))
        expected = edge_walk_verdicts(pts, cut, Fraction(1, 4), graph, subdivisions)
        got = tpr(pts, cut, Fraction(1, 4), graph, subdivisions=subdivisions).verdicts
        assert got == expected
        assert 0 < sum(expected) < len(expected)
        if subdivisions > 1:
            assert sum(searched) > 0

    @pytest.mark.parametrize("at", ["first", "middle"])
    @pytest.mark.parametrize("subdivisions", [2, 7, 49, 50])
    @pytest.mark.parametrize("kind", ["zero", "tangent", "near-tangent", "near-secant", "nan"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_one_knot_of_one_edge(self, dim, kind, subdivisions, at, searched):
        # a sphere touching, or an ulp short of or past touching, the first
        # check-grid edge, which is off the axis cross, at an inner knot;
        # one of radius 0 on that knot (a zero there and nowhere else); or
        # the one an ulp short with a NaN at that knot alone.  Every node is
        # outside the sphere, so only the walk of that edge can find it
        graph = check_graph(dim)
        lam = Fraction(1, 3)
        centre = np.full((1, dim), 0.05)
        nodes = placed_nodes(centre, lam, graph)[0]
        i, j = graph.edge_ends[0][0], graph.edge_ends[1][0]
        assert not cross_edges(graph)[0]
        knots = np.linspace(0.0, 1.0, subdivisions + 1)
        k = 1 if at == "first" else subdivisions // 2
        knot = knots[k] * (nodes[j] - nodes[i]) + nodes[i]
        other = np.eye(dim)[(graph.edges[0, 2] + 1) % dim]
        radius = 0.25 * float(lam) / graph.grid.resolution
        side = {"tangent": None, "near-tangent": -np.inf, "near-secant": np.inf, "nan": -np.inf}
        if kind == "zero":
            cut = SampledSphere(knot, 0.0)
        else:
            shrink = radius if side[kind] is None else np.nextafter(radius, side[kind])
            cut = SampledSphere(knot + radius * other, shrink)
        if kind == "nan":
            cut = HoledSphere(cut.center, cut.radius, knot, 1e-9)
        assert np.all(cut(nodes) > 0.0)
        expected = edge_walk_verdicts(centre, cut, lam, graph, subdivisions)
        if kind in ("zero", "nan"):
            assert expected == [True]
        for f in (cut, CallableCut(cut, dim=dim)):
            searched.clear()
            assert tpr(centre, f, lam, graph, subdivisions=subdivisions).verdicts == expected
            assert searched


class TestSheppLogan:
    def test_range_and_shape(self):
        img = shepp_logan(64)
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            shepp_logan(8)

    def test_head_brighter_than_background(self):
        img = shepp_logan(128)
        assert img[64, 64] > 0.0  # inside the head
        assert img[0, 0] == 0.0  # corner background

    def test_resolutions_sample_same_phantom(self):
        a = shepp_logan(64)
        b = shepp_logan(128)
        # nested sampling positions: linspace(-1,1,128)[::2] is not aligned,
        # so compare block means instead
        coarse = b.reshape(64, 2, 64, 2).mean(axis=(1, 3))
        assert np.mean(np.abs(coarse - a)) < 0.02

    @staticmethod
    def meshgrid_phantom(r):
        """Reference: every ellipse's quadratic form on full (x, y) meshgrids."""
        ticks = np.linspace(-1.0, 1.0, r)
        x, y = np.meshgrid(ticks, ticks, indexing="ij")
        img = np.zeros((r, r), dtype=np.float64)
        for a_val, sa, sb, x0, y0, phi_deg in SHEPP_LOGAN_ELLIPSES:
            phi = np.radians(phi_deg)
            xr = (x - x0) * np.cos(phi) + (y - y0) * np.sin(phi)
            yr = -(x - x0) * np.sin(phi) + (y - y0) * np.cos(phi)
            img[(xr / sa) ** 2 + (yr / sb) ** 2 <= 1.0] += a_val
        return np.clip(img, 0.0, 1.0)

    @pytest.mark.parametrize("r", [16, 17, 63, 64, 255, 256, 512, 1001])
    def test_bit_equal_to_the_meshgrid_form(self, r):
        got, want = shepp_logan(r), self.meshgrid_phantom(r)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestImageFunction:
    def test_outside_pixel_range_is_zero(self):
        g = ImageFunction(np.ones((16, 16)))
        assert g(np.array([-1.0, 5.0])) == 0.0
        assert g(np.array([5.0, 16.2])) == 0.0

    def test_piecewise_constant_inside_pixel(self):
        mat = np.arange(256, dtype=float).reshape(16, 16) / 255.0
        g = ImageFunction(mat)
        base = g(np.array([3.0, 7.0]))
        for dx, dy in ((0.2, 0.3), (-0.4, 0.1), (0.45, -0.45)):
            assert g(np.array([3.0 + dx, 7.0 + dy])) == base

    def test_domain_box(self):
        g = ImageFunction(np.zeros((17, 17)))
        dom = g.domain()
        assert dom.edge == 16
        assert dom.center == (Fraction(8), Fraction(8))


class TestPgm:
    def test_raw_round_trip(self, tmp_path, write_pgm):
        rng = np.random.default_rng(0)
        mat = rng.random((9, 13))
        write_pgm(mat, tmp_path / "img.pgm")
        back = read_pgm(tmp_path / "img.pgm")
        assert back.shape == (9, 13)
        assert np.max(np.abs(back - mat)) <= 0.5 / 255 + 1e-12

    def test_plain_text_variant(self, tmp_path):
        content = "P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n"
        (tmp_path / "img.pgm").write_text(content)
        img = read_pgm(tmp_path / "img.pgm")
        assert img.shape == (2, 3)
        assert img[0, 1] == pytest.approx(128 / 255)

    @pytest.mark.parametrize("content", [b"P5\n3 x\n255\n", b"P5\n3 2\n", b"P5\n3 0\n255\n",
                                         b"P5\n3 2\n255\n\x00\x00", b"P2\n3 2\n255\n0 1\n"])
    def test_rejects_malformed_header_or_short_body(self, tmp_path, content):
        (tmp_path / "img.pgm").write_bytes(content)
        with pytest.raises(MalformedFileError):
            read_pgm(tmp_path / "img.pgm")

    @pytest.mark.parametrize("content", [b"P2\n1 1\n255\n300\n", b"P5\n2 1\n200\n\x00\xc9"])
    def test_rejects_pixels_above_maxval(self, tmp_path, content):
        (tmp_path / "img.pgm").write_bytes(content)
        with pytest.raises(MalformedFileError, match="above its maxval"):
            read_pgm(tmp_path / "img.pgm")

    def test_rejects_other_formats(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(Exception):
            read_pgm(tmp_path / "img.ppm")
