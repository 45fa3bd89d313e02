import hashlib
import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect import engine
from sgdetect.detectors import make_detector
from sgdetect.errors import DegenerateGraphError, write_document
from sgdetect.evaluation import builtin_test_functions, tpr, tpr_report_doc
from sgdetect.grid_graph import (
    GridGraph,
    build_grid_graph,
    build_raw_edges,
    graph_record,
    prune_edges,
)
from sgdetect.neural.model import ModelConfig, build_archetype, save_model
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid, similar_grid


def lattice_rows(grid) -> list[tuple[int, ...]]:
    """The grid's lattice rows as integer tuples, for the set-based oracles."""
    return list(map(tuple, grid.lattice.tolist()))


def brute_force_raw_edges(grid):
    """Oracle for rule (i)-(ii): aligned pairs with no grid point between."""
    lattice = lattice_rows(grid)
    points = set(lattice)
    edges = set()
    for i, j in itertools.combinations(range(len(lattice)), 2):
        a, b = lattice[i], lattice[j]
        diff_axes = [d for d in range(len(a)) if a[d] != b[d]]
        if len(diff_axes) != 1:
            continue
        axis = diff_axes[0]
        lo, hi = sorted((a[axis], b[axis]))
        blocked = any(
            a[:axis] + (k,) + a[axis + 1 :] in points for k in range(lo + 1, hi)
        )
        if not blocked:
            edges.add((i, j, axis, hi - lo))
    return edges


def brute_force_prune(raw, grid):
    """Oracle for rule (iii): literal all-pairs crossing comparison.

    Takes and returns ``(i, j, axis, span)`` tuples.
    """
    lattice = lattice_rows(grid)
    kept = []
    for e_i, e_j, e_axis, e_span in raw:
        a_lo = lattice[e_i]
        ok = True
        for o_i, _, o_axis, o_span in raw:
            if o_axis == e_axis:
                continue
            b_lo = lattice[o_i]
            shared = all(
                a_lo[d] == b_lo[d]
                for d in range(len(a_lo))
                if d not in (e_axis, o_axis)
            )
            if not shared:
                continue
            cross_on_e = a_lo[e_axis] < b_lo[e_axis] < a_lo[e_axis] + e_span
            cross_on_other = b_lo[o_axis] < a_lo[o_axis] < b_lo[o_axis] + o_span
            if cross_on_e and cross_on_other and o_span <= e_span:
                ok = False
                break
        if ok:
            kept.append((e_i, e_j, e_axis, e_span))
    return kept


def rows(edges):
    return [tuple(e) for e in edges.tolist()]


def depths(graph):
    """d with span = M / 2^d, per edge."""
    return [(graph.grid.resolution // span).bit_length() - 1
            for span in graph.edges[:, 3].tolist()]


#: every rule in dims 1-4, at each level whose graph the oracles finish in seconds
SPECS = [(rule, dim, level)
         for rule, dim, levels in [
             ("sum", 1, range(1, 9)), ("sum", 2, range(2, 9)), ("sum", 3, range(3, 8)),
             ("sum", 4, range(4, 9)),
             ("max", 1, range(1, 9)), ("max", 2, range(1, 6)), ("max", 3, range(1, 4)),
             ("max", 4, range(1, 3)),
             ("prod", 1, range(1, 7)), ("prod", 2, range(1, 9)), ("prod", 3, range(1, 7)),
             ("prod", 4, range(1, 7)),
         ]
         for level in levels]


class TestPinnedGraph:
    @pytest.mark.parametrize("rule,dim,level", SPECS)
    def test_matches_brute_force(self, rule, dim, level):
        grid = build_sparse_grid(GridSpec(dim=dim, rule=rule, level=level), Box.cube((0,) * dim, 2))
        graph = build_grid_graph(grid)
        raw = sorted(brute_force_raw_edges(grid))
        assert graph.edges.dtype == np.int64 and graph.edges.shape == (len(graph.edges), 4)
        assert not graph.edges.flags.writeable
        assert rows(graph.edges) == sorted(brute_force_prune(raw, grid))

    @pytest.mark.parametrize("dim,level,points,edges,diameter",
                             [(2, 6, 65, 80, 10), (4, 8, 401, 608, 12)])
    def test_paper_graphs(self, dim, level, points, edges, diameter):
        grid = build_sparse_grid(GridSpec(dim=dim, rule="sum", level=level), Box.cube((0,) * dim, 2))
        graph = build_grid_graph(grid)
        assert (graph.n_points, len(graph.edges), graph.diameter()) == (points, edges, diameter)

    @pytest.mark.parametrize("dim,level,digest", [
        (2, 6, "39f093720243054fedbe30d0dd9a53c40f7ff67b6732a6ffc28b580cb1c8b565"),
        (4, 8, "8af680483e49275434502f2f3703e051a37ce9a1bf9ed302fe8977c7e2eb0672"),
    ], ids=["2d", "4d"])
    def test_graph_record_bytes(self, dim, level, digest, tmp_path):
        # pinned bytes: the graph file and model files below must not change
        grid = build_sparse_grid(GridSpec(dim=dim, rule="sum", level=level), Box.cube((0,) * dim, 2))
        write_document(tmp_path / "graph.json", graph_record(build_grid_graph(grid)))
        assert hashlib.sha256((tmp_path / "graph.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("target,detector,digest", [
        ("circle", "exact", "de9057c627615ad43293816097eb06ad3bb54685f0e84049f038d84dc36e6b47"),
        ("bows", "zlevel:9", "9e91053f2fb216d0de290268d7b4f1411b83630611dc9fa71bf7aba201449ba4"),
    ], ids=["closed-form", "sampled"])
    def test_tpr_report_bytes(self, graph2d, target, detector, digest, tmp_path):
        # the report `sgdetect eval` writes for `detect --lambda-min 1/64` of the target
        tf = builtin_test_functions()[target]
        lam = Fraction(1, 64)
        run = engine.run_batched(g=tf, grid=graph2d.grid, graph=graph2d,
                                 detector=make_detector(detector, cut=tf.cut),
                                 initial=[(tf.domain.center, tf.domain.edge)],
                                 config=engine.EngineConfig(lambda_min=lam, domain=tf.domain))
        report = tpr(run.troubled_coords(), tf.cut, lam, graph2d, visited_count=run.visited_points)
        write_document(tmp_path / "tpr.json", tpr_report_doc(report))
        assert hashlib.sha256((tmp_path / "tpr.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind,digest", [
        ("ginn", "082322c5469264e8d68ffdbafbd54e26d2edab1efd9116f06d8cbcbdf7fafbb0"),
        ("mlp", "2c3b03d9bb899d873ab9b7b2724cb71fd04c9d76df4927dc65a3ceba24fdc633"),
    ], ids=["ginn", "mlp"])
    def test_model_file_bytes(self, graph2d, kind, digest, tmp_path):
        path = save_model(build_archetype(ModelConfig(kind=kind), graph2d, seed=0),
                          tmp_path / "model.json")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRawEdges:
    def test_single_point_grid(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=1), Box.cube((0, 0), 2))
        graph = build_grid_graph(g)
        assert graph.edges.shape == (0, 4)

    def test_full_3x3_tensor(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=2), Box.cube((0, 0), 2))
        assert g.n_points == 9
        raw = build_raw_edges(g)
        assert len(raw) == 12
        assert all(raw[:, 3] == g.resolution // 2)

    def test_matches_brute_force_2d(self, grid2d):
        assert set(rows(build_raw_edges(grid2d))) == brute_force_raw_edges(grid2d)

    def test_matches_brute_force_small_4d(self):
        g = build_sparse_grid(GridSpec(dim=4, rule="sum", level=6), Box.cube((0,) * 4, 2))
        assert set(rows(build_raw_edges(g))) == brute_force_raw_edges(g)

    def test_rule_ii_no_interior_grid_point(self, graph2d, grid2d):
        lattice = lattice_rows(grid2d)
        points = set(lattice)
        for i, _, axis, span in graph2d.edges.tolist():
            a = lattice[i]
            for k in range(a[axis] + 1, a[axis] + span):
                assert a[:axis] + (k,) + a[axis + 1 :] not in points


class TestPruneEdges:
    def test_matches_brute_force(self, grid2d):
        raw = build_raw_edges(grid2d)
        got = {(i, j) for i, j, _, _ in rows(prune_edges(raw, grid2d))}
        expected = {(i, j) for i, j, _, _ in brute_force_prune(rows(raw), grid2d)}
        assert got == expected

    def test_equal_length_crossings_removed(self, grid2d):
        # the 2D reference grid has equal-length perpendicular crossings
        # (e.g. span-8 edges in row and column 1/8 of the way in); both sides
        # must disappear
        raw = build_raw_edges(grid2d)
        pruned = prune_edges(raw, grid2d)
        assert len(pruned) < len(raw)
        # verify at least one removed pair crossed with equal spans
        removed = set(rows(raw)) - set(rows(pruned))
        assert any(span > 1 for _, _, _, span in removed)

    def test_shorter_edge_survives_crossing(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="sum", level=6), Box.cube((0, 0), 2))
        raw = build_raw_edges(g)
        pruned = {(i, j) for i, j, _, _ in rows(prune_edges(raw, g))}
        lattice = {k: i for i, k in enumerate(lattice_rows(g))}
        m = g.resolution
        # horizontal span-4 edge in row y=M/4 from x=0: crossed only by longer
        # vertical edges, survives
        i = lattice[(0, m // 4)]
        j = lattice[(m // 4, m // 4)]
        assert (min(i, j), max(i, j)) in pruned
        # vertical span-8 edge at x=M/8 crosses the horizontal span-4 edge: gone
        i = lattice[(m // 8, 0)]
        j = lattice[(m // 8, m // 2)]
        assert (min(i, j), max(i, j)) not in pruned

    def test_edges_sharing_endpoint_kept(self, tiny_grid):
        # plus-shaped grid: arms meet at the center point only; no interior
        # crossings, so pruning keeps everything
        raw = build_raw_edges(tiny_grid)
        np.testing.assert_array_equal(prune_edges(raw, tiny_grid), raw)


class TestEdgeWeights:
    def test_all_equal_lengths_weight_one(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=2), Box.cube((0, 0), 2))
        graph = build_grid_graph(g)
        assert all(graph.weights == 1.0)

    def test_hypercubic_weight_formula_2d(self, graph2d, grid2d):
        h_max = grid2d.spec.h_max
        for weight, depth in zip(graph2d.weights.tolist(), depths(graph2d)):
            assert weight == 2.0 ** (depth - (h_max - 1))

    def test_hypercubic_weight_formula_4d(self, graph4d, grid4d):
        h_max = grid4d.spec.h_max
        for weight, depth in zip(graph4d.weights.tolist(), depths(graph4d)):
            assert weight == 2.0 ** (depth - (h_max - 1))

    def test_shortest_segment_is_edge_over_m(self, graph2d, grid2d):
        assert graph2d.shortest_segment == grid2d.box.edge / grid2d.resolution

    def test_weight_range_and_attained_one(self, graph2d):
        weights = graph2d.weights.tolist()
        assert all(0.0 < w <= 1.0 for w in weights)
        assert 1.0 in weights


class TestAdjacency:
    def test_symmetric_zero_diagonal(self, graph2d):
        a = graph2d.adjacency_matrix().toarray()
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)

    def test_single_edge_graph(self):
        g = build_sparse_grid(GridSpec(dim=1, rule="sum", level=2), Box.cube((0,), 2))
        graph = build_grid_graph(g)
        a = graph.adjacency_matrix().toarray()
        assert a.shape == (3, 3)
        assert a[0, 1] == a[1, 0] == 1.0

    def test_nonzeros_are_powers_of_two(self, graph2d):
        data = graph2d.adjacency_matrix().tocoo().data
        assert all(np.log2(w).is_integer() for w in data)

    @settings(max_examples=30, deadline=None)
    @given(
        cx=st.fractions(min_value=-10, max_value=10),
        cy=st.fractions(min_value=-10, max_value=10),
        scale_pow=st.integers(min_value=-8, max_value=4),
    )
    def test_similar_grids_share_adjacency(self, grid2d, graph2d, cx, cy, scale_pow):
        edge = Fraction(3) * Fraction(2) ** scale_pow
        placed = similar_grid(grid2d, (cx, cy), edge)
        placed_graph = build_grid_graph(placed)
        a_ref = graph2d.adjacency_matrix().toarray()
        a_new = placed_graph.adjacency_matrix().toarray()
        np.testing.assert_array_equal(a_ref, a_new)


class TestDiameter:
    def test_path_of_three(self):
        g = build_sparse_grid(GridSpec(dim=1, rule="sum", level=2), Box.cube((0,), 2))
        assert build_grid_graph(g).diameter() == 2

    def test_single_node(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=1), Box.cube((0, 0), 2))
        assert build_grid_graph(g).diameter() == 0

    def test_against_scipy_oracle(self, graph2d):
        pattern = (graph2d.adjacency_matrix() != 0).astype(np.int8)
        dists = csgraph.shortest_path(pattern, method="D", unweighted=True)
        assert graph2d.diameter() == int(dists.max())

    def test_against_scipy_oracle_4d(self, graph4d):
        pattern = (graph4d.adjacency_matrix() != 0).astype(np.int8)
        dists = csgraph.shortest_path(pattern, method="D", unweighted=True)
        assert graph4d.diameter() == int(dists.max())

    def test_disconnected_raises(self, grid2d):
        lonely = GridGraph(grid=grid2d, edges=np.empty((0, 4), dtype=np.int64))
        with pytest.raises(DegenerateGraphError):
            lonely.diameter()

    def test_one_cut_off_node_raises(self, grid2d, graph2d):
        edges = graph2d.edges[(graph2d.edges[:, :2] != 0).all(axis=1)]
        split = GridGraph(grid=grid2d, edges=edges)
        with pytest.raises(DegenerateGraphError, match="disconnected"):
            split.diameter()

    def test_two_archetypes_search_once(self, grid2d, monkeypatch):
        from sgdetect.neural.model import ModelConfig, build_archetype

        searches = []
        search = GridGraph.__dict__["_diameter"]
        monkeypatch.setattr(search, "func",
                            lambda self, func=search.func: searches.append(1) or func(self))
        graph = build_grid_graph(grid2d)
        first = build_archetype(ModelConfig(kind="mlp"), graph, seed=0)
        second = build_archetype(ModelConfig(kind="mlp"), graph, seed=1)
        assert first.diameter == second.diameter == 10
        assert len(searches) == 1

    @pytest.mark.parametrize("rule,dim,level", [("sum", 3, 6), ("prod", 2, 7), ("prod", 3, 5),
                                                ("prod", 4, 4), ("max", 2, 5), ("max", 3, 3)])
    def test_against_scipy_oracle_rules(self, rule, dim, level):
        grid = build_sparse_grid(GridSpec(dim=dim, rule=rule, level=level),
                                 Box.cube((0,) * dim, 2))
        graph = build_grid_graph(grid)
        pattern = (graph.adjacency_matrix() != 0).astype(np.int8)
        dists = csgraph.shortest_path(pattern, method="D", unweighted=True)
        assert graph.diameter() == int(dists.max())


def chain_graph(n, links, seed=0):
    """A graph of ``n`` nodes over custom edges: each ``(a, b)`` link joins the
    a-th and b-th node of a fixed random relabelling, so that paths cross
    64-node word boundaries in both directions."""
    label = np.random.default_rng(seed).permutation(n)
    ends = np.sort(label[np.asarray(links, dtype=np.int64).reshape(-1, 2)], axis=1)
    edges = np.column_stack([ends, np.zeros((len(ends), 1), dtype=np.int64),
                             np.ones((len(ends), 1), dtype=np.int64)])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return GridGraph(grid=SimpleNamespace(n_points=n), edges=edges)


class TestDiameterWordBoundaries:
    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_chain(self, n):
        links = [(k, k + 1) for k in range(n - 1)]
        assert chain_graph(n, links).diameter() == n - 1

    @pytest.mark.parametrize("n", [64, 65, 128, 129])
    def test_ring(self, n):
        links = [(k, (k + 1) % n) for k in range(n)]
        assert chain_graph(n, links).diameter() == n // 2

    def test_one_node(self):
        graph = GridGraph(grid=SimpleNamespace(n_points=1),
                          edges=np.empty((0, 4), dtype=np.int64))
        assert graph.diameter() == 0

    @pytest.mark.parametrize("n", [128, 129])
    def test_split_at_a_word_boundary_raises(self, n):
        # two chains, nodes 0-63 and 64 onwards, in node order
        links = [(k, k + 1) for k in range(n - 1) if k != 63]
        edges = np.array([(a, b, 0, 1) for a, b in links], dtype=np.int64)
        graph = GridGraph(grid=SimpleNamespace(n_points=n), edges=edges)
        with pytest.raises(DegenerateGraphError, match="disconnected"):
            graph.diameter()


class TestIncidentMaxEdge:
    def test_max_of_incident_lengths(self, graph2d):
        spans = graph2d.incident_max_span()
        for node in (0, 10, 32):
            incident = [span for i, j, _, span in graph2d.edges.tolist() if node in (i, j)]
            assert spans[node] == max(incident)

    def test_bounded_by_half_edge(self, graph2d, grid2d):
        spans = graph2d.incident_max_span()
        assert np.all((spans >= 1) & (2 * spans <= grid2d.resolution))
