import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect.errors import DegenerateGraphError
from sgdetect.grid_graph import (
    GridGraph,
    build_grid_graph,
    build_raw_edges,
    edge_weights,
    prune_edges,
)
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid, similar_grid


def brute_force_raw_edges(grid):
    """Oracle for rule (i)-(ii): aligned pairs with no grid point between."""
    lattice = grid.lattice
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
    """Oracle for rule (iii): literal all-pairs crossing comparison."""
    kept = []
    for e in raw:
        a_lo = grid.lattice[e.i]
        ok = True
        for other in raw:
            if other is e or other.axis == e.axis:
                continue
            b_lo = grid.lattice[other.i]
            shared = all(
                a_lo[d] == b_lo[d]
                for d in range(len(a_lo))
                if d not in (e.axis, other.axis)
            )
            if not shared:
                continue
            cross_on_e = a_lo[e.axis] < b_lo[e.axis] < a_lo[e.axis] + e.span
            cross_on_other = b_lo[other.axis] < a_lo[other.axis] < b_lo[other.axis] + other.span
            if cross_on_e and cross_on_other and other.span <= e.span:
                ok = False
                break
        if ok:
            kept.append(e)
    return kept


class TestRawEdges:
    def test_single_point_grid(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=1), Box.cube((0, 0), 2))
        graph = build_grid_graph(g)
        assert graph.edges == ()

    def test_full_3x3_tensor(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=2), Box.cube((0, 0), 2))
        assert g.n_points == 9
        raw = build_raw_edges(g)
        assert len(raw) == 12
        assert all(e.span == g.resolution // 2 for e in raw)

    def test_matches_brute_force_2d(self, grid2d):
        raw = build_raw_edges(grid2d)
        got = {(e.i, e.j, e.axis, e.span) for e in raw}
        assert got == brute_force_raw_edges(grid2d)

    def test_matches_brute_force_small_4d(self):
        g = build_sparse_grid(GridSpec(dim=4, rule="sum", level=6), Box.cube((0,) * 4, 2))
        raw = build_raw_edges(g)
        got = {(e.i, e.j, e.axis, e.span) for e in raw}
        assert got == brute_force_raw_edges(g)

    def test_rule_ii_no_interior_grid_point(self, graph2d, grid2d):
        points = set(grid2d.lattice)
        for e in graph2d.edges:
            a = grid2d.lattice[e.i]
            for k in range(a[e.axis] + 1, a[e.axis] + e.span):
                assert a[: e.axis] + (k,) + a[e.axis + 1 :] not in points


class TestPruneEdges:
    def test_matches_brute_force(self, grid2d):
        raw = build_raw_edges(grid2d)
        got = {(e.i, e.j) for e in prune_edges(raw, grid2d)}
        expected = {(e.i, e.j) for e in brute_force_prune(raw, grid2d)}
        assert got == expected

    def test_equal_length_crossings_removed(self, grid2d):
        # the 2D reference grid has equal-length perpendicular crossings
        # (e.g. span-8 edges in row and column 1/8 of the way in); both sides
        # must disappear
        raw = build_raw_edges(grid2d)
        pruned = prune_edges(raw, grid2d)
        assert len(pruned) < len(raw)
        # verify at least one removed pair crossed with equal spans
        removed = set(raw) - set(pruned)
        assert any(e.span > 1 for e in removed)

    def test_shorter_edge_survives_crossing(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="sum", level=6), Box.cube((0, 0), 2))
        raw = build_raw_edges(g)
        pruned = {(e.i, e.j) for e in prune_edges(raw, g)}
        lattice = {k: i for i, k in enumerate(g.lattice)}
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
        assert prune_edges(raw, tiny_grid) == raw


class TestEdgeWeights:
    def test_all_equal_lengths_weight_one(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=2), Box.cube((0, 0), 2))
        graph = build_grid_graph(g)
        assert all(e.weight == 1.0 for e in graph.edges)

    def test_hypercubic_weight_formula_2d(self, graph2d, grid2d):
        h_max = grid2d.spec.h_max
        for e in graph2d.edges:
            assert e.weight == 2.0 ** (e.depth - (h_max - 1))

    def test_hypercubic_weight_formula_4d(self, graph4d, grid4d):
        h_max = grid4d.spec.h_max
        for e in graph4d.edges:
            assert e.weight == 2.0 ** (e.depth - (h_max - 1))

    def test_shortest_segment_is_edge_over_m(self, graph2d, grid2d):
        assert graph2d.shortest_segment == grid2d.box.edge / grid2d.resolution

    def test_weight_range_and_attained_one(self, graph2d):
        weights = [e.weight for e in graph2d.edges]
        assert all(0.0 < w <= 1.0 for w in weights)
        assert 1.0 in weights

    def test_empty_edge_list_raises(self, tiny_grid):
        with pytest.raises(DegenerateGraphError):
            edge_weights([], tiny_grid)


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
        lonely = GridGraph(grid=grid2d, edges=(), min_span=0)
        with pytest.raises(DegenerateGraphError):
            lonely.diameter()

    def test_one_cut_off_node_raises(self, grid2d, graph2d):
        edges = tuple(e for e in graph2d.edges if 0 not in (e.i, e.j))
        split = GridGraph(grid=grid2d, edges=edges, min_span=graph2d.min_span)
        with pytest.raises(DegenerateGraphError, match="disconnected"):
            split.diameter()

    def test_two_archetypes_search_once(self, grid2d, monkeypatch):
        from sgdetect.neural.model import ModelConfig, build_archetype

        builds = []
        adjacency = GridGraph.adjacency_matrix
        monkeypatch.setattr(GridGraph, "adjacency_matrix",
                            lambda self: builds.append(1) or adjacency(self))
        graph = build_grid_graph(grid2d)
        # the MLP archetype reads no adjacency matrix: every build is the search's
        first = build_archetype(ModelConfig(kind="mlp"), graph, seed=0)
        second = build_archetype(ModelConfig(kind="mlp"), graph, seed=1)
        assert first.diameter == second.diameter == 10
        assert len(builds) == 1


class TestIncidentMaxEdge:
    def test_max_of_incident_lengths(self, graph2d):
        spans = graph2d.incident_max_span()
        for node in (0, 10, 32):
            incident = [e.span for e in graph2d.edges if node in (e.i, e.j)]
            assert spans[node] == max(incident)

    def test_bounded_by_half_edge(self, graph2d, grid2d):
        spans = graph2d.incident_max_span()
        assert np.all((spans >= 1) & (2 * spans <= grid2d.resolution))
