"""Equispaced nested sparse grids on hypercubic boxes.

A sparse grid is the union of tensor-product grids selected by a
multi-index rule.  Univariate knots follow the doubling rule

    m(1) = 1,   m(h) = 2^(h-1) + 1  for h >= 2,

which yields nested equispaced knot sets on [0, 1].  Every grid point is
stored as a tuple of integer lattice numerators over a common power-of-two
resolution M, so that point identity, deduplication, and cross-grid
comparisons are exact (no floating-point tolerance anywhere).

Similar grids (same lattice, different box) share all combinatorial
structure; the detection engine exploits this by building the reference
grid once and re-placing it with new centers and edge lengths.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from sgdetect.errors import EmptyGridError, InvalidLevelError, MalformedFileError

RULES = ("prod", "sum", "max")

#: multi-index rules r(h); a tensor grid enters the union iff r(h) <= level
_RULE_FUNCS = {
    "prod": lambda h: int(np.prod(h)),
    "sum": lambda h: int(sum(h)),
    "max": lambda h: int(max(h)),
}


def level_to_knots(h: int) -> int:
    """Number of univariate knots m(h) at refinement level h.

    m(1) = 1 (single midpoint), m(h) = 2^(h-1) + 1 otherwise, so each
    refinement essentially doubles the knot count and the sets are nested
    for h >= 2.
    """
    if h < 1:
        raise InvalidLevelError(f"refinement level must be >= 1, got {h}")
    return 1 if h == 1 else 2 ** (h - 1) + 1


def univariate_knots(h: int) -> list[Fraction]:
    """Equispaced knots on [0, 1] at refinement level h, as exact fractions.

    Level 1 is the midpoint {1/2}; level h >= 2 is {k / 2^(h-1), k = 0..2^(h-1)}.
    The level-h set is contained in the level-(h+1) set for every h >= 2.
    """
    if h < 1:
        raise InvalidLevelError(f"refinement level must be >= 1, got {h}")
    if h == 1:
        return [Fraction(1, 2)]
    denom = 2 ** (h - 1)
    return [Fraction(k, denom) for k in range(denom + 1)]


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
    r = _RULE_FUNCS[rule]
    # Per-axis levels never exceed the level of the rule itself: each h_i >= 1,
    # so r(h) >= h_i for all three rules.
    out = [
        h
        for h in itertools.product(range(1, level + 1), repeat=dim)
        if r(h) <= level
    ]
    if not out:
        raise EmptyGridError(f"rule {rule!r} at level {level} admits no multi-index in dim {dim}")
    return sorted(out)


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

    @property
    def h_max(self) -> int:
        """Maximum per-axis refinement level over the multi-index set."""
        return max(max(h) for h in multi_index_set(self.rule, self.level, self.dim))

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


@dataclass(frozen=True)
class SparseGrid:
    """A sparse grid: lattice points plus the box mapping them into R^n.

    ``lattice`` holds one integer tuple per point, lexicographically
    sorted, with entries in {0, .., M}; the real coordinate of numerator k
    on axis i is ``lower_i + (k / M) * edge``.  Grids that share a lattice
    are similar in the recentering/rescaling sense.
    """

    spec: GridSpec
    box: Box
    lattice: tuple[tuple[int, ...], ...]
    resolution: int

    def __post_init__(self):
        if self.box.dim != self.spec.dim:
            raise ValueError(f"box dim {self.box.dim} != spec dim {self.spec.dim}")

    @property
    def n_points(self) -> int:
        return len(self.lattice)

    @property
    def dim(self) -> int:
        return self.spec.dim

    def lattice_array(self) -> np.ndarray:
        return np.asarray(self.lattice, dtype=np.int64)

    def coords(self) -> np.ndarray:
        """Real coordinates as an (N, n) float array.

        For dyadic boxes the float arithmetic is exact.
        """
        lat = self.lattice_array().astype(np.float64)
        lo = np.array([float(x) for x in self.box.lower])
        return lo + lat * (float(self.box.edge) / self.resolution)


def build_sparse_grid(spec: GridSpec, box: Box) -> SparseGrid:
    """Union of the tensor grids selected by the multi-index rule.

    Points are deduplicated on exact lattice numerators and ordered
    lexicographically, so detector input/output slots map to fixed grid
    positions across runs and across similar grids.
    """
    if box.dim != spec.dim:
        raise ValueError(f"box dim {box.dim} != spec dim {spec.dim}")
    indices = multi_index_set(spec.rule, spec.level, spec.dim)
    m = spec.resolution
    # Univariate knot numerators at level h over denominator M: the level-1
    # midpoint is M/2; level h >= 2 is every (M / 2^(h-1))-th numerator.
    numerators: dict[int, list[int]] = {}
    for h in {h_i for idx in indices for h_i in idx}:
        if h == 1:
            numerators[h] = [m // 2]
        else:
            step = m // 2 ** (h - 1)
            numerators[h] = list(range(0, m + 1, step))
    points: set[tuple[int, ...]] = set()
    for idx in indices:
        points.update(itertools.product(*(numerators[h] for h in idx)))
    return SparseGrid(spec=spec, box=box, lattice=tuple(sorted(points)), resolution=m)


def similar_grid(reference: SparseGrid, center: Sequence, edge) -> SparseGrid:
    """Place the reference grid on a new hypercubic box.

    The lattice (and therefore point ordering, edges, and adjacency) is
    shared with the reference; only the affine map to real coordinates
    changes: scale a = edge / edge_ref plus the induced translation.
    """
    box = Box.cube(center, edge)
    if box.dim != reference.dim:
        raise ValueError(f"center dim {box.dim} != grid dim {reference.dim}")
    return SparseGrid(
        spec=reference.spec,
        box=box,
        lattice=reference.lattice,
        resolution=reference.resolution,
    )


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
        "lattice": [list(k) for k in grid.lattice],
        "coords": [[float(x) for x in row] for row in grid.coords()],
    }


def write_grid_record(grid: SparseGrid, path) -> None:
    with open(path, "w") as fh:
        json.dump(grid_record(grid), fh, indent=1)
        fh.write("\n")
