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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from sgdetect.errors import DegenerateGraphError
from sgdetect.sparse_grid import SparseGrid


def build_raw_edges(grid: SparseGrid) -> np.ndarray:
    """Connect consecutive points along each axis (no point in between).

    Returns ``(E, 4)`` int64 rows ``(i, j, axis, span)`` with ``i < j``,
    sorted by ``(i, j, axis)``; ``span`` is the segment length in lattice
    units.  Consecutiveness on the exact lattice guarantees that no third
    grid point lies on the open segment.
    """
    if grid.n_points == 0:
        raise DegenerateGraphError("empty grid")
    lattice = grid.lattice
    parts = []
    for axis in range(grid.dim):
        rest = np.delete(lattice, axis, axis=1)
        # rows of equal other coordinates, each ordered along the axis; the
        # lattice is sorted lexicographically, so the lower point has i < j
        order = np.lexsort((lattice[:, axis], *rest.T))
        i, j = order[:-1], order[1:]
        same_row = (rest[i] == rest[j]).all(axis=1)
        i, j = i[same_row], j[same_row]
        parts.append(np.stack([i, j, np.full_like(i, axis),
                               lattice[j, axis] - lattice[i, axis]], axis=1))
    edges = np.concatenate(parts).astype(np.int64, copy=False)
    steps = grid.resolution // edges[:, 3]
    if np.any(steps * edges[:, 3] != grid.resolution) or np.any(steps & (steps - 1)):
        raise DegenerateGraphError(f"edge spans are not all power-of-two fractions of "
                                   f"M={grid.resolution}")
    return edges[np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0]))]


def prune_edges(raw: np.ndarray, grid: SparseGrid) -> np.ndarray:
    """Drop every edge crossed by a not-strictly-longer edge of another axis.

    A crossing is a lattice point interior to both segments (a crossing at
    a segment endpoint would put a grid point inside the other segment,
    which the raw construction already excludes).  The filter is a single
    pass against the raw set: when two crossing edges have equal length,
    both are removed.
    """
    axis, span = raw[:, 2], raw[:, 3]
    # one row per (edge, interior lattice point of that edge)
    inner = span - 1
    owner = np.repeat(np.arange(len(raw)), inner)
    rows = np.arange(len(owner))
    step = rows - np.repeat(np.cumsum(inner) - inner, inner) + 1
    points = grid.lattice[raw[owner, 0]]
    points[rows, axis[owner]] += step
    unique, point = np.unique(points, axis=0, return_inverse=True)
    point = point.reshape(-1)
    # raw edges of one axis never overlap, so at most one passes through a
    # point per axis; ``through`` holds its span, or more than any span
    through = np.full((len(unique), grid.dim), np.iinfo(np.int64).max)
    through[point, axis[owner]] = span[owner]
    crossing = through[point] <= span[owner, None]
    crossing[rows, axis[owner]] = False
    keep = np.ones(len(raw), dtype=bool)
    keep[owner[crossing.any(axis=1)]] = False
    return raw[keep]


@dataclass(frozen=True, eq=False)
class GridGraph:
    """Weighted sparse grid graph of a grid plus derived structure.

    ``edges`` holds read-only ``(E, 4)`` int64 rows ``(i, j, axis, span)``
    with ``i < j``, sorted by ``(i, j, axis)``.  The real length of an edge
    is ``edge * span / M = edge / 2^depth`` and its weight is
    ``omega = min_span / span``, a power of two in (0, 1].  The adjacency
    matrix (weights on edges, zero diagonal) depends only on the grid's
    similarity class: similar grids share it entrywise.
    """

    grid: SparseGrid
    edges: np.ndarray

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def min_span(self) -> int:
        """Shortest edge span, 0 for a graph with no edges."""
        return int(self.edges[:, 3].min()) if len(self.edges) else 0

    @property
    def weights(self) -> np.ndarray:
        """omega = ell / length per edge; exact, as each ratio is a power of two."""
        return self.min_span / self.edges[:, 3]

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint indices (i, j) of the edges, in edge order."""
        ends = (self.edges[:, 0].copy(), self.edges[:, 1].copy())
        for a in ends:
            a.flags.writeable = False
        return ends

    def adjacency_matrix(self) -> sp.csr_matrix:
        i, j = self.edge_ends
        w = self.weights
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        return sp.csr_matrix((np.concatenate([w, w]), (rows, cols)),
                             shape=(self.n_points, self.n_points))

    def incident_max_span(self) -> np.ndarray:
        """Largest incident segment span per node, 0 for isolated nodes."""
        spans = np.zeros(self.n_points, dtype=np.int64)
        for ends in self.edge_ends:
            np.maximum.at(spans, ends, self.edges[:, 3])
        return spans

    @property
    def shortest_segment(self) -> Fraction:
        """ell, the global minimum segment length."""
        return self.grid.box.edge * Fraction(self.min_span, self.grid.resolution)

    def diameter(self) -> int:
        """Unweighted shortest-path diameter, computed once per graph."""
        return self._diameter

    @cached_property
    def _diameter(self) -> int:
        """Breadth-first search from every node at once, on bit sets.

        Row ``v`` of ``frontier`` is a bit set of ceil(N/64) uint64 words that
        marks the sources whose search found node ``v`` in the last hop;
        ``unreached`` marks those that have not found it yet.  One hop ORs
        each node's neighbours' frontier rows (one gather over the edge ends
        sorted by node, then one ``bitwise_or.reduceat``) and keeps the bits
        still unreached.  The diameter is the number of hops that add a bit.
        A row of ``unreached`` that never empties (a disconnected graph)
        raises :class:`DegenerateGraphError`, so the architecture builder
        rejects it.
        """
        n = self.n_points
        i, j = self.edge_ends
        ends = np.concatenate([i, j])
        # every edge in both directions, grouped by the node it leads into
        order = np.argsort(ends)
        neighbours = np.concatenate([j, i])[order]
        degree = np.bincount(ends, minlength=n)
        # reduceat cannot reduce an empty segment, and a node with no edge is cut off
        if n > 1 and not degree.all():
            raise DegenerateGraphError("graph is disconnected: diameter is infinite")
        starts = np.cumsum(degree) - degree
        node = np.arange(n, dtype=np.uint64)
        frontier = np.zeros((n, -(-n // 64)), dtype=np.uint64)
        frontier[node, node >> 6] = np.uint64(1) << (node & 63)
        # per node, the sources whose search has not found it yet
        unreached = np.bitwise_or.reduce(frontier, axis=0) ^ frontier
        hops = 0
        while len(neighbours):
            frontier = np.bitwise_or.reduceat(frontier[neighbours], starts, axis=0)
            frontier &= unreached
            if not frontier.any():
                break
            unreached ^= frontier
            hops += 1
        if unreached.any():
            raise DegenerateGraphError("graph is disconnected: diameter is infinite")
        return hops


def build_grid_graph(grid: SparseGrid) -> GridGraph:
    """Raw construction, then perpendicular pruning."""
    edges = prune_edges(build_raw_edges(grid), grid)
    edges.flags.writeable = False
    return GridGraph(grid=grid, edges=edges)


# ---------------------------------------------------------------------------
# export


def graph_record(graph: GridGraph) -> dict:
    """Edge list plus adjacency triples in the grid-export text format."""
    adj = graph.adjacency_matrix().tocoo()
    m = graph.grid.resolution
    return {
        "kind": "sparse-grid-graph",
        "version": 1,
        "n_points": graph.n_points,
        "n_edges": len(graph.edges),
        "diameter": graph.diameter(),
        "shortest_segment": str(graph.shortest_segment),
        "edges": [[i, j, axis, (m // span).bit_length() - 1, w]
                  for (i, j, axis, span), w in zip(graph.edges.tolist(), graph.weights.tolist())],
        "adjacency": [[int(i), int(j), float(w)] for i, j, w in zip(adj.row, adj.col, adj.data)],
    }

