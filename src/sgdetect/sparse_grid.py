"""Equispaced nested sparse grids on hypercubic boxes.

A sparse grid is the union of tensor-product grids selected by a
multi-index rule.  Univariate knots follow the doubling rule

    m(1) = 1,   m(h) = 2^(h-1) + 1  for h >= 2,

which yields nested equispaced knot sets on [0, 1].  A grid's points are
one read-only ``(N, n)`` int64 array of lattice numerators over a common
power-of-two resolution M, so that point identity, deduplication, and
cross-grid comparisons are exact (no floating-point tolerance anywhere).

Similar grids (same lattice, different box) share all combinatorial
structure.  :meth:`SparseGrid.place` maps the one lattice onto any number
of boxes, and it is the only place where grid points become floats: the
detection engine, the TPR check grids and :meth:`SparseGrid.coords` all
call it, so the same box always gives the same coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from sgdetect.errors import EmptyGridError, InvalidLevelError, MalformedFileError

#: multi-index rules r(h) as a ufunc folded over the axes from its start
#: value; a tensor grid enters the union iff r(h) <= level
_RULES = {"prod": (np.multiply, 1), "sum": (np.add, 0), "max": (np.maximum, 1)}
RULES = tuple(_RULES)


def _admissible(rule: str, level: int, dim: int, weights: np.ndarray) -> np.ndarray:
    """Every row ``k`` of indices into ``weights`` whose weights
    ``(weights[k_1], .., weights[k_dim])`` have rule value <= level, as a
    lexicographically sorted ``(R, dim)`` int64 array.

    Rows grow one axis at a time, in increasing order, so they come out
    sorted.  Weights are >= 1 and every rule is monotone in each axis, so a
    prefix whose value with ones in the remaining axes passes the level has
    no admissible extension and is dropped at once.
    """
    combine, start = _RULES[rule]
    rows = np.zeros((1, 0), dtype=np.int64)
    value = np.array([start])
    for axis in range(dim):
        grown = combine.outer(value, weights)
        # the rule's value over ones in the remaining axes
        rest = combine.reduce(np.ones(dim - axis - 1, dtype=np.int64), initial=start)
        row, k = np.nonzero(combine(grown, rest) <= level)
        rows = np.column_stack([rows[row], k])
        value = grown[row, k]
    return rows


def multi_index_set(rule: str, level: int, dim: int) -> list[tuple[int, ...]]:
    """All multi-indices h in N_+^dim with r(h) <= level, sorted.

    r is one of the product, sum (Total Degree), or max rules.  Raises
    :class:`EmptyGridError` when no multi-index qualifies (e.g. sum rule
    with level < dim).
    """
    if rule not in RULES:
        raise ValueError(f"unknown multi-index rule {rule!r}; expected one of {RULES}")
    if level < 1:
        raise InvalidLevelError(f"level must be >= 1, got {level}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    # per-axis levels never exceed the level: each h_i >= 1, so r(h) >= h_i
    out = _admissible(rule, level, dim, np.arange(1, level + 1)) + 1
    if not len(out):
        raise EmptyGridError(f"rule {rule!r} at level {level} admits no multi-index in dim {dim}")
    return list(map(tuple, out.tolist()))


def _as_fraction(x) -> Fraction:
    """Exact conversion; floats convert via their binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction exactly")


@dataclass(frozen=True)
class Box:
    """Hypercubic box: center in R^n and one edge length for all sides.

    Coordinates are exact rationals so that recentered/rescaled boxes keep
    exact arithmetic through arbitrarily many refinements.
    """

    center: tuple[Fraction, ...]
    edge: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_as_fraction(c) for c in self.center))
        object.__setattr__(self, "edge", _as_fraction(self.edge))
        if self.edge <= 0:
            raise ValueError(f"box edge length must be positive, got {self.edge}")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def lower(self) -> tuple[Fraction, ...]:
        half = self.edge / 2
        return tuple(c - half for c in self.center)

    @property
    def upper(self) -> tuple[Fraction, ...]:
        half = self.edge / 2
        return tuple(c + half for c in self.center)

    def contains(self, point: Sequence) -> bool:
        """Closed-box membership, exact when given rationals."""
        lo, hi = self.lower, self.upper
        return all(lo[i] <= point[i] <= hi[i] for i in range(self.dim))

    @staticmethod
    def cube(center: Sequence, edge) -> "Box":
        return Box(tuple(_as_fraction(c) for c in center), _as_fraction(edge))


@dataclass(frozen=True)
class GridSpec:
    """Construction recipe: dimension, multi-index rule, approximation level."""

    dim: int
    rule: str
    level: int

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown multi-index rule {self.rule!r}")
        if self.dim < 1 or self.level < 1:
            raise InvalidLevelError(f"dim and level must be >= 1, got {self.dim}, {self.level}")

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """The multi-index set, sorted; enumerated once per spec."""
        return tuple(multi_index_set(self.rule, self.level, self.dim))

    @property
    def h_max(self) -> int:
        """Maximum per-axis refinement level over the multi-index set."""
        return max(max(h) for h in self.indices)

    @property
    def resolution(self) -> int:
        """Lattice denominator M; knots live at k/M, k = 0..M.

        M = 2^(h_max - 1), floored at 2 so the level-1 midpoint 1/2 stays
        on the integer lattice when h_max = 1 (single-point grids).
        """
        return max(2 ** (self.h_max - 1), 2)

    def key(self) -> str:
        return f"{self.rule}:{self.level}:d{self.dim}"

    @staticmethod
    def from_key(key) -> "GridSpec":
        """Inverse of :meth:`key`, for keys read from dataset and model files."""
        match = re.fullmatch(r"(\w+):(\d+):d(\d+)", str(key))
        if match is None or match[1] not in RULES:
            raise MalformedFileError(f"grid key {key!r} is not rule:level:dN")
        return GridSpec(dim=int(match[3]), rule=match[1], level=int(match[2]))


@dataclass(frozen=True, eq=False)
class SparseGrid:
    """A sparse grid: lattice points plus the box mapping them into R^n.

    ``lattice`` is a read-only ``(N, n)`` int64 array of numerators in
    {0, .., M}, its rows sorted lexicographically; numerator k on axis i
    lies at ``center_i + (k / M - 1/2) * edge``.  Grids that share a
    lattice are similar in the recentering/rescaling sense.
    """

    spec: GridSpec
    box: Box
    lattice: np.ndarray

    def __post_init__(self):
        if self.box.dim != self.spec.dim:
            raise ValueError(f"box dim {self.box.dim} != spec dim {self.spec.dim}")

    @property
    def n_points(self) -> int:
        return len(self.lattice)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def resolution(self) -> int:
        return self.spec.resolution

    @cached_property
    def _unit_offsets(self) -> np.ndarray:
        """Each point's offset from the box center for a unit edge,
        ``k / M - 1/2`` as ``(k - M/2) / M``; exact in float64."""
        m = self.resolution
        offsets = (self.lattice - m / 2.0) / m
        offsets.flags.writeable = False
        return offsets

    def place(self, centers, edge) -> np.ndarray:
        """The grid placed on P boxes: ``center + unit_offset * edge`` as a
        ``(P, N, n)`` float array.

        ``centers`` is ``(P, n)``.  ``edge`` is one edge per box, ``(P,)``,
        or one shared edge, which scales the offsets once.  Either way each
        coordinate is one rounded product and one rounded sum, so the same
        box gives the same floats.  The work goes one axis at a time, so
        NumPy loops over the points instead of over n coordinates per point.
        """
        centers = np.asarray(centers, dtype=np.float64)
        edge = np.asarray(edge, dtype=np.float64)
        out = np.empty((len(centers), self.n_points, self.dim))
        if edge.ndim == 0:
            scaled = self._unit_offsets * edge
            for d in range(self.dim):
                np.add(centers[:, None, d], scaled[:, d], out=out[..., d])
        else:
            for d in range(self.dim):
                np.multiply(self._unit_offsets[:, d], edge[:, None], out=out[..., d])
                out[..., d] += centers[:, None, d]
        return out

    def coords(self) -> np.ndarray:
        """Real coordinates as an (N, n) float array: :meth:`place` on the
        box's correctly rounded center and edge."""
        center = [float(c) for c in self.box.center]
        return self.place([center], float(self.box.edge))[0]


def build_sparse_grid(spec: GridSpec, box: Box) -> SparseGrid:
    """Union of the tensor grids selected by the multi-index rule.

    Over denominator M, the level-1 knot is the midpoint M/2 and the
    level-h >= 2 knots are every (M / 2^(h-1))-th numerator of 0..M.  Each
    point appears once and the rows are ordered lexicographically, so
    detector input/output slots map to fixed grid positions across runs
    and across similar grids.
    """
    if box.dim != spec.dim:
        raise ValueError(f"box dim {box.dim} != spec dim {spec.dim}")
    m = spec.resolution
    # the first level whose knots hold each numerator
    first_level = np.empty(m + 1, dtype=np.int64)
    for h in range(m.bit_length(), 1, -1):
        first_level[:: m >> (h - 1)] = h
    first_level[m // 2] = 1
    # the knot sets are nested and the rules monotone, so a point lies in the
    # union iff the first levels of its numerators form an admissible index
    lattice = _admissible(spec.rule, spec.level, spec.dim, first_level)
    lattice.flags.writeable = False
    return SparseGrid(spec=spec, box=box, lattice=lattice)


def similar_grid(reference: SparseGrid, center: Sequence, edge) -> SparseGrid:
    """Place the reference grid on a new hypercubic box.

    The lattice (and therefore point ordering, edges, and adjacency) is
    shared with the reference; only the affine map to real coordinates
    changes: scale a = edge / edge_ref plus the induced translation.
    """
    box = Box.cube(center, edge)
    if box.dim != reference.dim:
        raise ValueError(f"center dim {box.dim} != grid dim {reference.dim}")
    return SparseGrid(spec=reference.spec, box=box, lattice=reference.lattice)


# ---------------------------------------------------------------------------
# export


def grid_record(grid: SparseGrid) -> dict:
    """Machine-readable grid record (consumed by the CLI ``grid`` command)."""
    return {
        "kind": "sparse-grid",
        "version": 1,
        "dim": grid.spec.dim,
        "rule": grid.spec.rule,
        "level": grid.spec.level,
        "h_max": grid.spec.h_max,
        "resolution": grid.resolution,
        "center": [str(c) for c in grid.box.center],
        "edge": str(grid.box.edge),
        "n_points": grid.n_points,
        "lattice": grid.lattice.tolist(),
        "coords": [[float(x) for x in row] for row in grid.coords()],
    }

