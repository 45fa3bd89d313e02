import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect.errors import EmptyGridError, InvalidLevelError
from sgdetect.sparse_grid import (
    Box,
    GridSpec,
    build_sparse_grid,
    grid_record,
    multi_index_set,
    similar_grid,
)


def line(h: int):
    """The 1D max-rule grid at level h on [0, 1]: the union of the knot sets
    of levels 1..h, which are nested for h >= 2 and all hold the midpoint,
    so its points are the level-h univariate knots."""
    return build_sparse_grid(GridSpec(dim=1, rule="max", level=h),
                             Box.cube((Fraction(1, 2),), 1))


def knots(h: int) -> list[Fraction]:
    grid = line(h)
    return [Fraction(k, grid.resolution) for k in grid.lattice[:, 0].tolist()]


class TestLevelToKnots:
    """The knot count m(1) = 1, m(h) = 2^(h-1) + 1."""

    def test_paper_values(self):
        assert line(1).n_points == 1
        assert line(2).n_points == 3

    def test_doubling(self):
        assert line(5).n_points == 17

    def test_invalid_level(self):
        with pytest.raises(InvalidLevelError):
            GridSpec(dim=1, rule="max", level=0)

    @given(st.integers(min_value=1, max_value=20))
    def test_monotone(self, h):
        assert line(h + 1).n_points >= line(h).n_points


class TestUnivariateKnots:
    def test_level_one_is_midpoint(self):
        assert knots(1) == [Fraction(1, 2)]

    def test_level_two(self):
        assert knots(2) == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_level_three(self):
        assert knots(3) == [Fraction(k, 4) for k in range(5)]

    @given(st.integers(min_value=2, max_value=10))
    def test_nested(self, h):
        assert set(knots(h)) <= set(knots(h + 1))

    @given(st.integers(min_value=1, max_value=10))
    def test_cardinality_matches_level_to_knots(self, h):
        assert len(knots(h)) == (1 if h == 1 else 2 ** (h - 1) + 1)


class TestMultiIndexSet:
    def test_sum_rule(self):
        assert multi_index_set("sum", 3, 2) == [(1, 1), (1, 2), (2, 1)]

    def test_max_rule_full_tensor(self):
        assert multi_index_set("max", 2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_prod_rule(self):
        assert multi_index_set("prod", 1, 3) == [(1, 1, 1)]

    def test_empty_set_raises(self):
        with pytest.raises(EmptyGridError):
            multi_index_set("sum", 1, 2)

    @given(st.sampled_from(["prod", "sum", "max"]), st.integers(1, 6), st.integers(1, 3))
    def test_brute_force_agreement(self, rule, level, dim):
        funcs = {"prod": np.prod, "sum": np.sum, "max": np.max}
        expected = sorted(
            h for h in itertools.product(range(1, level + 1), repeat=dim)
            if funcs[rule](h) <= level
        )
        if not expected:
            with pytest.raises(EmptyGridError):
                multi_index_set(rule, level, dim)
        else:
            assert multi_index_set(rule, level, dim) == expected

    def test_prunes_inadmissible_prefixes(self):
        # brute force would walk 13^12 tuples; only the all-ones index and
        # one 2 per axis are admissible
        spec = GridSpec(dim=12, rule="sum", level=13)
        assert len(spec.indices) == 13
        grid = build_sparse_grid(spec, Box.cube((0,) * 12, 2))
        assert grid.n_points == 1 + 2 * 12


class TestBuildSparseGrid:
    def test_2d_reference_cardinality(self, grid2d):
        assert grid2d.n_points == 65

    def test_4d_reference_cardinality(self, grid4d):
        assert grid4d.n_points == 401

    def test_single_point_grid(self):
        g = build_sparse_grid(GridSpec(dim=2, rule="max", level=1), Box.cube((0, 0), 2))
        assert g.n_points == 1
        np.testing.assert_array_equal(g.coords(), [[0.0, 0.0]])

    def test_lattice_is_a_read_only_int64_array(self, grid4d):
        lat = grid4d.lattice
        assert lat.shape == (401, 4) and lat.dtype == np.int64
        with pytest.raises(ValueError):
            lat[0, 0] = 1

    def test_no_duplicate_lattice_points(self, grid2d):
        assert len(np.unique(grid2d.lattice, axis=0)) == grid2d.n_points

    def test_points_inside_box(self, grid4d):
        lat = grid4d.lattice
        assert lat.min() >= 0 and lat.max() <= grid4d.resolution

    def test_lexicographic_ordering(self, grid2d):
        rows = grid2d.lattice.tolist()
        assert rows == sorted(rows)

    def test_union_of_tensor_grids(self):
        # independent reconstruction: union over multi-indices of knot products
        spec = GridSpec(dim=2, rule="sum", level=4)
        grid = build_sparse_grid(spec, Box.cube((0, 0), 2))
        expected = set()
        for h in multi_index_set("sum", 4, 2):
            axes = [knots(h_i) for h_i in h]
            expected.update(itertools.product(*axes))
        got = {
            tuple(Fraction(k, grid.resolution) for k in point)
            for point in grid.lattice.tolist()
        }
        assert got == expected


class TestBox:
    def test_bounds(self):
        box = Box.cube((1, -1), 4)
        assert box.lower == (Fraction(-1), Fraction(-3))
        assert box.upper == (Fraction(3), Fraction(1))

    def test_positive_edge_required(self):
        with pytest.raises(ValueError):
            Box.cube((0, 0), 0)

    def test_contains_is_exact(self):
        box = Box.cube((0, 0), 1)
        assert box.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not box.contains((Fraction(1, 2) + Fraction(1, 10**12), 0))


class TestSimilarGrid:
    def test_identity_placement(self, grid2d):
        g = similar_grid(grid2d, grid2d.box.center, grid2d.box.edge)
        assert g.lattice is grid2d.lattice
        np.testing.assert_array_equal(g.coords(), grid2d.coords())

    def test_ordering_preserved(self, grid2d):
        g = similar_grid(grid2d, (0.5, 0.5), 0.5)
        assert g.lattice is grid2d.lattice

    @settings(max_examples=25, deadline=None)
    @given(
        cx=st.fractions(min_value=-2, max_value=2),
        cy=st.fractions(min_value=-2, max_value=2),
        scale_pow=st.integers(min_value=-6, max_value=2),
    )
    def test_distance_ratios_preserved(self, grid2d, cx, cy, scale_pow):
        edge = Fraction(2) * Fraction(2) ** scale_pow
        placed = similar_grid(grid2d, (cx, cy), edge)
        ref = grid2d.coords()
        new = placed.coords()
        pairs = [(0, 1), (2, 40), (10, 30), (5, 64)]
        base_ref = np.linalg.norm(ref[0] - ref[64])
        base_new = np.linalg.norm(new[0] - new[64])
        for i, j in pairs:
            r_ref = np.linalg.norm(ref[i] - ref[j]) / base_ref
            r_new = np.linalg.norm(new[i] - new[j]) / base_new
            assert r_new == pytest.approx(r_ref, rel=1e-12)

    def test_similarity_is_transitive_on_lattice(self, grid2d):
        g1 = similar_grid(grid2d, (0.5, 0.5), 0.5)
        g2 = similar_grid(g1, (-0.25, 0.75), 0.125)
        assert g2.lattice is grid2d.lattice

    def test_affine_map_of_all_points(self, grid2d):
        # point i of the placed grid = a * point i of the reference + b
        placed = similar_grid(grid2d, (0.5, 0.5), 0.5)
        a = 0.5 / 2.0
        b = np.array([0.5, 0.5]) - a * np.array([0.0, 0.0])
        np.testing.assert_allclose(placed.coords(), a * grid2d.coords() + b, atol=0)


class TestGridRecord:
    def test_record_holds_lattice_and_box(self, grid2d):
        rec = grid_record(grid2d)
        assert rec["n_points"] == 65
        assert rec["lattice"] == grid2d.lattice.tolist()
        assert Box(tuple(Fraction(c) for c in rec["center"]), Fraction(rec["edge"])) == grid2d.box


class TestPlace:
    """``place`` is ``center + unit_offset * edge`` to the bit, signed zeros
    included, whether each box has its own edge or all share one."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_center_plus_scaled_offset(self, grid4d, shared):
        rng = np.random.default_rng(3)
        centers = rng.uniform(-1, 1, size=(5, 4))
        centers[0, 0] = -0.0
        edges = np.full(5, 1 / 3)
        m = grid4d.resolution
        offsets = (grid4d.lattice - m / 2.0) / m
        expected = centers[:, None, :] + offsets[None] * edges[:, None, None]
        got = grid4d.place(centers, 1 / 3 if shared else edges)
        assert got.shape == (5, 401, 4)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_coords_place_the_box(self):
        spec = GridSpec(dim=2, rule="sum", level=6)
        box = Box.cube((Fraction(1, 3), Fraction(-1, 3)), Fraction(3, 4))
        grid = build_sparse_grid(spec, box)
        placed = grid.place([[1 / 3, -1 / 3]], 0.75)[0]
        np.testing.assert_array_equal(grid.coords().view(np.int64), placed.view(np.int64))
