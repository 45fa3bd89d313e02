"""Sparse grid graphs: axis-aligned edges, pruning, inverse-distance weights.

Two grid points are connected when they are consecutive along one axis
(same lattice coordinates elsewhere); an edge is then removed when some
edge along a different axis crosses it at a point interior to both
segments and is not strictly longer.  Two equal-length crossing edges
eliminate each other.  All geometry runs on integer lattice numerators,
never on floating-point coordinates.

For hypercubic equispaced grids every segment length is edge/2^d and the
weights are exactly omega = 2^(d - (h_max - 1)), with the shortest segment
ell = edge/M.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from sgdetect.errors import DegenerateGraphError
from sgdetect.sparse_grid import SparseGrid


@dataclass(frozen=True)
class GridEdge:
    """Edge between points ``i < j`` of a grid, aligned with ``axis``.

    ``span`` is the segment length in lattice units; the real length is
    ``edge * span / M = edge / 2^depth`` and the weight is
    ``omega = min_span / span`` (a power of two in (0, 1]).
    """

    i: int
    j: int
    axis: int
    span: int
    depth: int
    weight: float = field(default=0.0, compare=False)


def build_raw_edges(grid: SparseGrid) -> list[GridEdge]:
    """Connect consecutive points along each axis (no point in between).

    Consecutiveness on the exact lattice guarantees that no third grid
    point lies on the open segment.
    """
    if grid.n_points == 0:
        raise DegenerateGraphError("empty grid")
    lattice = grid.lattice
    m = grid.resolution
    n = grid.dim
    index_of = {k: i for i, k in enumerate(lattice)}
    edges: list[GridEdge] = []
    for axis in range(n):
        rows: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for k in lattice:
            rows[k[:axis] + k[axis + 1 :]].append(k[axis])
        for key, cols in sorted(rows.items()):
            cols.sort()
            for a, b in zip(cols, cols[1:]):
                ka = key[:axis] + (a,) + key[axis:]
                kb = key[:axis] + (b,) + key[axis:]
                i, j = index_of[ka], index_of[kb]
                if i > j:
                    i, j = j, i
                span = b - a
                edges.append(GridEdge(i=i, j=j, axis=axis, span=span, depth=_depth(span, m)))
    edges.sort(key=lambda e: (e.i, e.j, e.axis))
    return edges


def _depth(span: int, m: int) -> int:
    """d such that span = M / 2^d; spans of nested equispaced grids are powers of two."""
    d = (m // span).bit_length() - 1
    if span << d != m:
        raise DegenerateGraphError(f"edge span {span} is not a power-of-two fraction of M={m}")
    return d


def prune_edges(raw: list[GridEdge], grid: SparseGrid) -> list[GridEdge]:
    """Drop every edge crossed by a not-strictly-longer edge of another axis.

    A crossing is a lattice point interior to both segments (a crossing at
    a segment endpoint would put a grid point inside the other segment,
    which the raw construction already excludes).  The filter is a single
    pass against the raw set: when two crossing edges have equal length,
    both are removed.
    """
    lattice = grid.lattice
    # interior lattice points of each segment -> edges passing through
    through: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for e_idx, e in enumerate(raw):
        base = list(lattice[e.i])
        lo = base[e.axis]
        for k in range(lo + 1, lo + e.span):
            base[e.axis] = k
            through[tuple(base)].append(e_idx)
    keep = [True] * len(raw)
    for point_edges in through.values():
        if len(point_edges) < 2:
            continue
        for a_pos, ei in enumerate(point_edges):
            for ej in point_edges[a_pos + 1 :]:
                ea, eb = raw[ei], raw[ej]
                if ea.axis == eb.axis:
                    continue
                if ea.span >= eb.span:
                    keep[ei] = False
                if eb.span >= ea.span:
                    keep[ej] = False
    return [e for e_idx, e in enumerate(raw) if keep[e_idx]]


def edge_weights(edges: list[GridEdge], grid: SparseGrid) -> list[GridEdge]:
    """Assign omega = ell / length with ell the minimum segment length.

    Lengths are proportional to lattice spans, so the ratio is computed in
    exact integer arithmetic; for power-of-two spans it is a power of two
    and therefore an exact float.
    """
    if not edges:
        raise DegenerateGraphError("cannot weight an empty edge list")
    min_span = min(e.span for e in edges)
    return [
        GridEdge(
            i=e.i,
            j=e.j,
            axis=e.axis,
            span=e.span,
            depth=e.depth,
            weight=float(Fraction(min_span, e.span)),
        )
        for e in edges
    ]


@dataclass(frozen=True)
class GridGraph:
    """Weighted sparse grid graph of a grid plus derived structure.

    The adjacency matrix (weights on edges, zero diagonal) depends only on
    the grid's similarity class: similar grids share it entrywise.
    """

    grid: SparseGrid
    edges: tuple[GridEdge, ...]
    min_span: int

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint indices (i, j) of the edges, in edge order."""
        ends = (np.array([e.i for e in self.edges], dtype=np.intp),
                np.array([e.j for e in self.edges], dtype=np.intp))
        for a in ends:
            a.flags.writeable = False
        return ends

    def adjacency_matrix(self) -> sp.csr_matrix:
        n = self.n_points
        ii = [e.i for e in self.edges] + [e.j for e in self.edges]
        jj = [e.j for e in self.edges] + [e.i for e in self.edges]
        ww = [e.weight for e in self.edges] * 2
        return sp.csr_matrix((ww, (ii, jj)), shape=(n, n))

    def neighbor_lists(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.n_points)]
        for e in self.edges:
            nbrs[e.i].append(e.j)
            nbrs[e.j].append(e.i)
        return nbrs

    def incident_max_span(self) -> np.ndarray:
        """Largest incident segment span per node, 0 for isolated nodes."""
        spans = np.zeros(self.n_points, dtype=np.int64)
        for e in self.edges:
            spans[e.i] = max(spans[e.i], e.span)
            spans[e.j] = max(spans[e.j], e.span)
        return spans

    def incident_max_edge_length(self, node: int) -> Fraction:
        """Length of the longest edge with the node as a vertex."""
        span = int(self.incident_max_span()[node])
        if span == 0:
            raise DegenerateGraphError(f"node {node} has no incident edge")
        return self.grid.box.edge * Fraction(span, self.grid.resolution)

    @property
    def shortest_segment(self) -> Fraction:
        """ell, the global minimum segment length."""
        return self.grid.box.edge * Fraction(self.min_span, self.grid.resolution)

    def diameter(self) -> int:
        """Unweighted shortest-path diameter by BFS from every node."""
        return graph_diameter(self)


def build_grid_graph(grid: SparseGrid) -> GridGraph:
    """Raw construction, perpendicular pruning, then inverse-distance weights."""
    if grid.n_points == 1:
        return GridGraph(grid=grid, edges=(), min_span=0)
    pruned = prune_edges(build_raw_edges(grid), grid)
    weighted = edge_weights(pruned, grid)
    return GridGraph(grid=grid, edges=tuple(weighted), min_span=min(e.span for e in weighted))


def graph_diameter(graph: GridGraph) -> int:
    """Max over node pairs of the unweighted shortest-path length.

    Raises :class:`DegenerateGraphError` if the graph is disconnected
    (infinite diameter): the architecture builder must reject it.
    """
    n = graph.n_points
    if n == 1:
        return 0
    nbrs = graph.neighbor_lists()
    diam = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        seen = 1
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    seen += 1
                    queue.append(v)
        if seen != n:
            raise DegenerateGraphError("graph is disconnected: diameter is infinite")
        diam = max(diam, max(dist))
    return diam


# ---------------------------------------------------------------------------
# export


def graph_record(graph: GridGraph) -> dict:
    """Edge list plus adjacency triples in the grid-export text format."""
    adj = graph.adjacency_matrix().tocoo()
    return {
        "kind": "sparse-grid-graph",
        "version": 1,
        "n_points": graph.n_points,
        "n_edges": len(graph.edges),
        "diameter": graph.diameter(),
        "shortest_segment": str(graph.shortest_segment),
        "edges": [[e.i, e.j, e.axis, e.depth, e.weight] for e in graph.edges],
        "adjacency": [[int(i), int(j), float(w)] for i, j, w in zip(adj.row, adj.col, adj.data)],
    }


def write_graph_record(graph: GridGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_record(graph), fh, indent=1)
        fh.write("\n")


def adjacency_triples(graph: GridGraph) -> list[tuple[int, int, float]]:
    """Symmetric (i, j, omega) triples, i < j, as baked into model files."""
    return [(e.i, e.j, e.weight) for e in graph.edges]
