import json
import logging
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgdetect import synth_data
from sgdetect.detectors import PolynomialCut, SphericalCut, ZLevelDetector
from sgdetect.engine import EngineConfig, run_basic
from sgdetect.evaluation import builtin_test_functions
from sgdetect.errors import DegenerateDatasetError, MalformedFileError
from sgdetect.sparse_grid import Box
from sgdetect.synth_data import (
    Dataset,
    LegendrePiece,
    PiecewiseFunction,
    Samples,
    balance_dataset,
    estimate_max_abs,
    generate_dataset,
    legendre_table,
    preprocess_gamma_batch,
    sample_cut,
    sample_legendre_piece,
    sample_piecewise_function,
    split_dataset,
)


def reference_legendre_value(degree: int, u: np.ndarray) -> np.ndarray:
    """P_degree(u), the recurrence rerun from P_0 for each degree."""
    if degree == 0:
        return np.ones_like(u)
    if degree == 1:
        return u.copy()
    p_prev = np.ones_like(u)
    p_cur = u.copy()
    for k in range(1, degree):
        p_next = ((2 * k + 1) * u * p_cur - k * p_prev) / (k + 1)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def reference_piece(piece: LegendrePiece, x: np.ndarray) -> np.ndarray:
    """A piece evaluated one degree at a time from strided columns of (x + 1) / 2."""
    u = (np.asarray(x, dtype=np.float64) + 1.0) / 2.0
    table = {d: reference_legendre_value(d, u) for d in {d for h in piece.indices for d in h}}
    out = np.zeros(u.shape[:-1], dtype=np.float64)
    for h, c in zip(piece.indices, piece.coeffs):
        term = np.full(u.shape[:-1], c, dtype=np.float64)
        for i, d in enumerate(h):
            term = term * table[d][..., i]
        out += term
    return out


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def legval_oracle(piece: LegendrePiece, x: np.ndarray) -> np.ndarray:
    """sum of c_h * prod_i P_{h_i}(u_i) with each factor from numpy's legval."""
    u = (x + 1.0) / 2.0
    total = np.zeros(len(x))
    for h, c in zip(piece.indices, piece.coeffs):
        term = np.full(len(x), c)
        for i, d in enumerate(h):
            term *= np.polynomial.legendre.legval(u[:, i], np.eye(d + 1)[d])
        total += term
    return total


class TestLegendre:
    # x in [-3, 1] puts u = (x + 1) / 2 anywhere in [-1, 1]
    @given(st.integers(0, 6), st.floats(-3, 1, allow_nan=False))
    def test_against_scipy(self, top, x):
        table = legendre_table(np.array([[x]]), top)
        u = (x + 1.0) / 2.0
        for degree in range(top + 1):
            theirs = scipy.special.eval_legendre(degree, u)
            assert table[degree][0, 0] == pytest.approx(theirs, rel=1e-12, abs=1e-12)

    def test_table_is_axis_major(self, rng):
        x = rng.uniform(-1, 1, size=(4, 5, 3))
        table = legendre_table(x, 3)
        assert len(table) == 4
        assert all(row.shape == (3, 4, 5) and row.flags.c_contiguous for row in table)
        assert_same_bits(table[0], np.ones((3, 4, 5)))
        assert_same_bits(table[1], np.moveaxis((x + 1.0) / 2.0, -1, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(37,), (5, 11), ()])
    def test_bits_match_reference(self, n, shape):
        rng = np.random.default_rng(100 * n + len(shape))
        for _ in range(5):
            piece = sample_legendre_piece(n, rng)
            x = rng.uniform(-1, 1, size=(*shape, n))
            assert_same_bits(piece(x), reference_piece(piece, x))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polynomial_cut_bits_match_reference(self, n):
        rng = np.random.default_rng(n)
        cut = sample_cut("polynomial", n, rng)
        reference = PolynomialCut(poly=lambda xi: reference_piece(cut.poly, xi),
                                  scale=cut.scale, axis=cut.axis, max_abs=cut.max_abs, dim=n)
        for shape in [(200, n), (6, 13, n)]:
            x = rng.uniform(-1, 1, size=shape)
            assert_same_bits(cut(x), reference(x))

    def test_piecewise_bits_match_reference_with_unequal_top_degrees(self, rng):
        g1 = LegendrePiece(dim=2, indices=((1, 1), (1, 3), (2, 1)), coeffs=(2.0, -0.7, 0.4))
        g2 = LegendrePiece(dim=2, indices=((1, 1), (1, 2)), coeffs=(-1.5, 0.9))
        # top degrees 3 and 2: the shared table is one row deeper than g2 needs
        for first, second in [(g1, g2), (g2, g1)]:
            fn = PiecewiseFunction(first, second, SphericalCut(center=(0.1, -0.2), radius=0.6))
            for shape in [(300, 2), (7, 9, 2)]:
                x = rng.uniform(-1, 1, size=shape)
                expected = np.where(fn.cut(x) >= 0.0, reference_piece(first, x),
                                    reference_piece(second, x))
                assert_same_bits(fn(x), expected)
                assert_same_bits(first(x), reference_piece(first, x))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_whole_expansion_against_legval(self, n):
        rng = np.random.default_rng(20 + n)
        piece = sample_legendre_piece(n, rng)
        x = rng.uniform(-1, 1, size=(300, n))
        np.testing.assert_allclose(piece(x), legval_oracle(piece, x), rtol=1e-12, atol=1e-12)

    def test_degree_zero_index_against_legval(self, rng):
        piece = LegendrePiece(dim=3, indices=((0, 0, 0), (0, 2, 1), (3, 0, 0), (1, 1, 2)),
                              coeffs=(1.5, -0.8, 2.2, 0.6))
        x = rng.uniform(-1, 1, size=(300, 3))
        np.testing.assert_allclose(piece(x), legval_oracle(piece, x), rtol=1e-12, atol=1e-12)
        constant = LegendrePiece(dim=2, indices=((0, 0),), coeffs=(-2.5,))
        assert_same_bits(constant(x[:, :2]), np.full(300, -2.5))

    def test_zero_coefficients_zero_function(self, rng):
        piece = sample_legendre_piece(2, rng)
        zeroed = LegendrePiece(dim=2, indices=piece.indices,
                               coeffs=(0.0,) * len(piece.coeffs))
        x = rng.uniform(-1, 1, size=(50, 2))
        assert np.all(zeroed(x) == 0.0)

    def test_single_coefficient_is_product(self, rng):
        piece = LegendrePiece(dim=2, indices=((1, 1),), coeffs=(1.0,))
        x = rng.uniform(-1, 1, size=(100, 2))
        u = (x + 1) / 2
        np.testing.assert_allclose(piece(x), u[:, 0] * u[:, 1], rtol=1e-14)

    def test_index_set_is_total_degree_four(self, rng):
        piece = sample_legendre_piece(3, rng)
        assert set(piece.indices) == {
            h for h in np.ndindex(5, 5, 5)
            if all(hi >= 1 for hi in h) and sum(h) <= 4
        }

    def test_coefficient_variance_convention(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(0.0, synth_data.COEFF_STD_VARIANCE, size=10_000)
        assert np.var(draws) == pytest.approx(10.0, rel=0.05)


class TestSampleCut:
    def test_linear_forced_axis(self):
        cut = sample_cut("linear", 2, np.random.default_rng(3))
        assert np.isclose(np.linalg.norm(cut.w), 1.0)
        assert -1.0 <= cut.b <= 1.0

    def test_spherical_radius_capped(self):
        radii = [
            sample_cut("spherical", 2, np.random.default_rng(seed)).radius
            for seed in range(200)
        ]
        assert max(radii) <= 0.2
        assert min(radii) > 0.0

    def test_spherical_radius_mode_max(self):
        radii = [
            sample_cut("spherical", 2, np.random.default_rng(seed),
                       spherical_radius_mode="max").radius
            for seed in range(50)
        ]
        assert min(radii) >= 0.2

    def test_polynomial_constant_part_gives_line(self):
        # a constant polynomial part collapses the cut to x_axis = C*sign(k)
        for k in (2.5, -0.7):
            cut = PolynomialCut(poly=lambda xi, k=k: np.full(xi.shape[:-1], k),
                                scale=0.9, axis=1, max_abs=abs(k), dim=2)
            x = np.random.default_rng(0).uniform(-1, 1, size=(100, 2))
            np.testing.assert_allclose(cut(x), 0.9 * np.sign(k) - x[:, 1], rtol=1e-14)

    def test_polynomial_scale_range(self):
        for seed in range(20):
            cut = sample_cut("polynomial", 2, np.random.default_rng(seed))
            assert 0.75 <= cut.scale <= 1.15
            assert cut.max_abs > 0

    def test_builtin_poly_max_abs(self):
        assert builtin_test_functions()["poly"].cut.max_abs == 1.1

    @pytest.mark.parametrize("n,expected", [
        (2, 8.256855706176822), (3, 5.1479303122669435), (4, 8.256855706176822)])
    def test_polynomial_max_abs_pinned(self, n, expected):
        # no BLAS in these values: the same bits on every platform
        assert sample_cut("polynomial", n, np.random.default_rng(7)).max_abs == expected

    @pytest.mark.parametrize("n_free", [1, 2, 3])
    def test_estimate_max_abs_covers_the_corner_tensor(self, n_free):
        poly = sample_legendre_piece(n_free, np.random.default_rng(n_free))
        best = estimate_max_abs(poly, n_free, np.random.default_rng(0))
        corners = np.array(list(np.ndindex(*(3,) * n_free)), dtype=np.float64) - 1.0
        assert len(corners) == 3 ** n_free
        assert np.all(best >= np.abs(poly(corners)))

    def test_estimate_max_abs_repeats_for_a_seed(self):
        poly = sample_legendre_piece(2, np.random.default_rng(5))
        first = estimate_max_abs(poly, 2, np.random.default_rng(11))
        assert estimate_max_abs(poly, 2, np.random.default_rng(11)) == first

    def test_polynomial_needs_two_dims(self):
        with pytest.raises(ValueError):
            sample_cut("polynomial", 1, np.random.default_rng(0))


class TestPiecewiseFunction:
    def test_continuous_away_from_cut(self, rng):
        fn = sample_piecewise_function("spherical", 2, rng)
        x = rng.uniform(-1, 1, size=(200, 2))
        vals = fn.cut(x)
        away = np.abs(vals) > 0.05
        # finite difference across a tiny step stays small away from the cut
        step = 1e-7
        shifted = fn(x[away] + step) - fn(x[away])
        assert np.max(np.abs(shifted)) < 1e-4

    def test_pieces_switch_at_cut_sign(self, rng):
        fn = sample_piecewise_function("linear", 2, rng)
        x = rng.uniform(-1, 1, size=(500, 2))
        pos = fn.cut(x) >= 0
        np.testing.assert_array_equal(fn(x)[pos], fn.g1(x)[pos])
        np.testing.assert_array_equal(fn(x)[~pos], fn.g2(x)[~pos])


def gamma(g: np.ndarray) -> np.ndarray:
    """One evaluation vector through the batch preprocessing."""
    return preprocess_gamma_batch(g[None])[0]


class TestGamma:
    def test_zero_vector_maps_to_zero(self):
        assert np.all(gamma(np.zeros(7)) == 0.0)

    def test_hand_example(self):
        np.testing.assert_array_equal(
            gamma(np.array([2.0, -4.0, 1.0])), [0.5, -1.0, 0.25])

    def test_sentinels_excluded_and_zeroed(self):
        g = np.array([np.inf, 2.0, -1.0])
        out = gamma(g)
        np.testing.assert_array_equal(out, [0.0, 1.0, -0.5])

    @given(arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_range(self, g):
        out = gamma(g)
        assert np.all(np.abs(out) <= 1.0)

    @given(
        arrays(np.float64, st.integers(1, 30),
               elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_positive_scale_invariance(self, g, c):
        # an entry that underflows to 0 can turn a row all-zero, which gamma maps to 0
        assume(not np.any((c * g == 0) & (g != 0)))
        np.testing.assert_allclose(gamma(c * g), gamma(g),
                                   atol=1e-12)

    def test_sup_norm_one_when_nonzero(self, rng):
        g = rng.normal(size=20)
        assert np.max(np.abs(gamma(g))) == pytest.approx(1.0)

    def test_batch_matches_rows(self, rng):
        g = rng.normal(size=(6, 9))
        g[2, 3] = np.inf
        batch = preprocess_gamma_batch(g)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], gamma(g[i]))

    @staticmethod
    def reference(g):
        """The earlier formula: a masked copy, the row max and min over the
        finite entries, and the larger magnitude of the two as the scale."""
        finite = np.isfinite(g)
        masked = np.where(finite, g, 0.0)
        hi = np.where(finite.any(axis=1), np.max(np.where(finite, g, -np.inf), axis=1), 0.0)
        lo = np.where(finite.any(axis=1), np.min(np.where(finite, g, np.inf), axis=1), 0.0)
        scale = np.maximum(np.abs(hi), np.abs(lo))
        out = masked / np.where(scale > 0.0, scale, 1.0)[:, None]
        out[~finite] = 0.0
        return out

    def test_bits_match_reference_on_special_values(self, rng):
        g = rng.normal(size=(9, 11)) * 10.0 ** rng.integers(-300, 300, size=(9, 1))
        g[0] = np.inf  # all sentinel
        g[1] = [np.nan, -np.inf] * 5 + [np.inf]
        g[2] = [0.0, -0.0] * 5 + [np.inf]
        g[3, ::2] = -np.inf
        g[4, 1::3] = np.nan
        g[5] = -0.0
        g[6, :4] = [5e-324, -5e-324, np.inf, 0.0]  # subnormals
        out = preprocess_gamma_batch(g)
        assert out.tobytes() == self.reference(g).tobytes()

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 12))))
    def test_bits_match_reference(self, g):
        assert preprocess_gamma_batch(g).tobytes() == self.reference(g).tobytes()


def _mk(label_rows):
    """Samples with the given label rows; every input entry is distinct, so a
    row can be told by its inputs."""
    labels = np.asarray(label_rows, dtype=np.uint8)
    return Samples(np.arange(labels.size, dtype=float).reshape(labels.shape), labels)


def _troubled(samples):
    return samples.labels.sum(axis=1)


class TestBalance:
    def test_keeps_max_count_of_zeros(self, rng):
        ones = [[1] * i + [0] * (5 - i) for i in (1, 1, 1, 2, 2, 3)]
        # D_1 counts: {1: 3, 2: 2, 3: 1} -> D_0' = 3
        zeros = [[0] * 5] * 50
        out = balance_dataset(_mk(ones + zeros), rng)
        assert np.count_nonzero(_troubled(out) == 0) == 3
        assert np.count_nonzero(_troubled(out) > 0) == 6

    def test_no_zero_samples_identity(self, rng):
        ones = _mk([[1, 0], [1, 1]])
        out = balance_dataset(ones, rng)
        np.testing.assert_array_equal(out.inputs, ones.inputs)
        np.testing.assert_array_equal(out.labels, ones.labels)

    def test_all_zero_degenerate(self, rng):
        with pytest.raises(DegenerateDatasetError):
            balance_dataset(_mk([[0, 0]] * 4), rng)

    def test_never_drops_labeled_samples(self, rng):
        out = balance_dataset(_mk([[1, 0]] * 7 + [[0, 0]] * 100), rng)
        assert np.count_nonzero(_troubled(out) > 0) == 7


class TestSplit:
    def test_counts_100(self, rng):
        split = split_dataset(_mk([[1, 0]] * 100), rng)
        assert (len(split.test), len(split.train), len(split.validation)) == (30, 56, 14)

    def test_counts_10(self, rng):
        split = split_dataset(_mk([[1, 0]] * 10), rng)
        assert (len(split.test), len(split.train), len(split.validation)) == (3, 5, 2)

    def test_too_few_samples(self, rng):
        with pytest.raises(DegenerateDatasetError):
            split_dataset(_mk([[1, 0]] * 9), rng)

    def test_deterministic_given_seed(self):
        samples = _mk([[i % 2, 0] for i in range(40)])
        a = split_dataset(samples, np.random.default_rng(9))
        b = split_dataset(samples, np.random.default_rng(9))
        for part in ("train", "validation", "test"):
            np.testing.assert_array_equal(getattr(a, part).inputs, getattr(b, part).inputs)
            np.testing.assert_array_equal(getattr(a, part).labels, getattr(b, part).labels)

    def test_parts_disjoint_and_complete(self, rng):
        samples = _mk([[i % 2, 1] for i in range(25)])
        split = split_dataset(samples, rng)
        seen = np.concatenate([part.inputs[:, 0]
                               for part in (split.test, split.train, split.validation)])
        np.testing.assert_array_equal(np.sort(seen), samples.inputs[:, 0])


def _balance_reference(rows, rng):
    """The per-sample algorithm: ``rows`` is a list of (inputs, labels) pairs."""
    nonzero = [r for r in rows if r[1].sum() > 0]
    zeros = [r for r in rows if r[1].sum() == 0]
    counts: dict[int, int] = {}
    for r in nonzero:
        counts[int(r[1].sum())] = counts.get(int(r[1].sum()), 0) + 1
    keep_zero = max(counts.values())
    if keep_zero < len(zeros):
        chosen = rng.choice(len(zeros), size=keep_zero, replace=False)
        zeros = [zeros[i] for i in sorted(chosen)]
    return nonzero + zeros


def _split_reference(rows, rng):
    order = rng.permutation(len(rows))
    shuffled = [rows[i] for i in order]
    n_test = int(0.3 * len(rows))
    n_train = int(0.8 * (len(rows) - n_test))
    return (shuffled[:n_test], shuffled[n_test : n_test + n_train],
            shuffled[n_test + n_train :])


class TestAgainstPerSampleReference:
    @pytest.mark.parametrize("seed,rates,dropped", [
        (0, (0.0, 0.1, 0.3), True),
        (1, (0.0, 0.1, 0.3), True),
        (2, (0.0, 0.1, 0.3), True),
        # few all-zero rows: all kept, moved behind the troubled ones
        (3, (0.3, 0.6, 0.9), False),
    ])
    def test_balance_then_split_rows_and_draws(self, seed, rates, dropped):
        # rows with 0..6 troubled labels in a shuffled order
        rng = np.random.default_rng(seed)
        labels = rng.random((300, 6)) < rng.choice(rates, size=(300, 1))
        samples = Samples(rng.normal(size=(300, 6)), labels.astype(np.uint8))
        rows = [(samples.inputs[i], samples.labels[i]) for i in range(len(samples))]
        rng_ours, rng_ref = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)

        balanced = balance_dataset(samples, rng_ours)
        reference = _balance_reference(rows, rng_ref)
        assert (len(balanced) < len(samples)) == dropped
        np.testing.assert_array_equal(balanced.inputs, np.array([r[0] for r in reference]))
        np.testing.assert_array_equal(balanced.labels, np.array([r[1] for r in reference]))

        split = split_dataset(balanced, rng_ours)
        parts = _split_reference(reference, rng_ref)
        for ours, ref in zip((split.test, split.train, split.validation), parts):
            np.testing.assert_array_equal(ours.inputs, np.array([r[0] for r in ref]))
            np.testing.assert_array_equal(ours.labels, np.array([r[1] for r in ref]))
        # both consumed the same draws
        assert rng_ours.random() == rng_ref.random()


class TestSampleFunctions:
    def test_round_robin_kinds_and_child_seeds(self):
        fns = synth_data.sample_functions(4, 2, 5)
        seeds = np.random.SeedSequence(5).spawn(4)
        for i, (fn, s) in enumerate(zip(fns, seeds)):
            want = sample_piecewise_function(synth_data.CUT_KINDS[i % 3], 2,
                                             np.random.default_rng(s))
            x = np.random.default_rng(i).uniform(-1, 1, size=(50, 2))
            assert type(fn.cut) is type(want.cut)
            assert fn(x).tobytes() == want(x).tobytes()


class TestGenerateDataset:
    def test_continuous_function_terminates_with_zero_labels(self, grid2d, graph2d):
        smooth = sample_legendre_piece(2, np.random.default_rng(0))
        fn = synth_data.PiecewiseFunction(
            g1=smooth, g2=smooth,
            cut=synth_data.SphericalCut((10.0, 10.0), 0.1))
        samples, stats = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 8))
        assert len(samples) == 1  # only the initial grid is ever visited
        assert samples.labels.sum() == 0

    def test_samples_per_visit(self, grid2d, graph2d, rng):
        fn = sample_piecewise_function("linear", 2, np.random.default_rng(11))
        samples, stats = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 4))
        assert len(samples) > 1
        assert stats["samples"] == len(samples)
        assert samples.inputs.shape == samples.labels.shape == (len(samples), 65)
        assert (samples.inputs.dtype, samples.labels.dtype) == (np.float64, np.uint8)

    def test_parallel_generation_deterministic(self, grid2d, graph2d):
        fns = [sample_piecewise_function("spherical", 2, np.random.default_rng(s))
               for s in (1, 2)]
        seq, _ = generate_dataset(grid2d, graph2d, 4, fns, Fraction(1, 4), n_jobs=1)
        par, _ = generate_dataset(grid2d, graph2d, 4, fns, Fraction(1, 4), n_jobs=2)
        assert len(seq) == len(par)
        assert seq.inputs.tobytes() == par.inputs.tobytes()
        assert seq.labels.tobytes() == par.labels.tobytes()


class NanBeyond:
    """A piecewise function that returns NaN right of ``x0 = 0.5``."""

    def __init__(self, fn):
        self.fn, self.cut = fn, fn.cut

    def __call__(self, x):
        x = np.asarray(x)
        return np.where(x[..., 0] > 0.5, np.nan, self.fn(x))


class TestGenerateDatasetLog:
    def test_one_info_record_per_function(self, grid2d, graph2d, caplog):
        fns = [sample_piecewise_function(kind, 2, np.random.default_rng(s))
               for s, kind in enumerate(["linear", "spherical"])]
        fns.append(NanBeyond(fns[0]))
        with caplog.at_level(logging.INFO, logger="sgdetect.synth_data"):
            samples, stats = generate_dataset(grid2d, graph2d, 9, fns, Fraction(1, 4))
        records = [r for r in caplog.records if r.name == "sgdetect.synth_data"]
        assert len(records) == len(fns)
        assert all(r.levelno == logging.INFO for r in records)
        index, total, counts, skipped = zip(*(r.args for r in records))
        assert index == (1, 2, 3) and total == (3, 3, 3)
        assert sum(counts) == len(samples) == stats["samples"]
        assert sum(skipped) == stats["skipped_nan_visits"] == skipped[2] > 0
        assert records[2].getMessage() == (
            f"function 3/3: {counts[2]} samples, {skipped[2]} skipped NaN visits")


class CountingFunction:
    """A piecewise function that records every point g is evaluated at."""

    def __init__(self, fn):
        self.fn, self.cut, self.points = fn, fn.cut, []

    def __call__(self, x):
        self.points.extend(map(tuple, np.asarray(x).tolist()))
        return self.fn(x)


class TestEngineEvaluations:
    @pytest.mark.parametrize("kind", ["linear", "spherical", "polynomial"])
    def test_samples_match_direct_evaluation(self, grid2d, graph2d, kind):
        fn = sample_piecewise_function(kind, 2, np.random.default_rng(21))
        domain = Box.cube((0, 0), 2)
        reference = []

        # the reference hook evaluates fn on every point of every grid
        def hook(task, sample, p):
            inputs = np.where(sample.in_domain, fn(sample.coords), np.inf)
            labels = ((p >= 0.5) & sample.in_domain).astype(np.uint8)
            reference.append((inputs, labels))

        run_basic(g=fn, grid=grid2d, graph=graph2d, detector=ZLevelDetector(fn.cut, 9),
                  initial=[(domain.center, domain.edge)],
                  config=EngineConfig(lambda_min=Fraction(1, 8), domain=domain),
                  visit_hook=hook)
        samples, _ = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 8))
        assert len(samples) == len(reference) > 1
        assert np.isinf(samples.inputs).any()
        assert samples.inputs.tobytes() == np.array([x for x, _ in reference]).tobytes()
        np.testing.assert_array_equal(samples.labels, [y for _, y in reference])

    @pytest.mark.parametrize("kind", ["linear", "spherical", "polynomial"])
    def test_batched_labelling_matches_a_basic_reference(self, grid2d, graph2d, kind):
        # the reference labels every visit of a one-grid-per-chunk run
        fn = sample_piecewise_function(kind, 2, np.random.default_rng(31))
        domain = Box.cube((0, 0), 2)
        reference = []

        def hook(task, sample, p):
            labels = ((p >= 0.5) & sample.in_domain).astype(np.uint8)
            reference.append((sample.evaluations.copy(), labels))

        run_basic(g=fn, grid=grid2d, graph=graph2d, detector=ZLevelDetector(fn.cut, 9),
                  initial=[(domain.center, domain.edge)],
                  config=EngineConfig(lambda_min=Fraction(1, 16), domain=domain),
                  visit_hook=hook)
        samples, stats = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 16))
        assert stats["skipped_nan_visits"] == 0
        assert len(samples) == len(reference) > 10
        assert samples.inputs.tobytes() == np.array([x for x, _ in reference]).tobytes()
        assert samples.labels.tobytes() == np.array([y for _, y in reference]).tobytes()

    def test_g_sees_each_point_once(self, grid2d, graph2d):
        fns = [CountingFunction(sample_piecewise_function(kind, 2, np.random.default_rng(4)))
               for kind in ("spherical", "polynomial")]
        samples, _ = generate_dataset(grid2d, graph2d, 9, fns, Fraction(1, 8))
        for fn in fns:
            assert len(fn.points) == len(set(fn.points))
            assert np.all(np.abs(fn.points) <= 1.0)
        # neighbouring grids share points, so g sees fewer than the grids hold
        finite = int(np.isfinite(samples.inputs).sum())
        assert sum(len(fn.points) for fn in fns) < finite


class TestDatasetFiles:
    def _dataset(self, seed=0):
        rng = np.random.default_rng(seed)
        samples = Samples(rng.normal(size=(12, 5)),
                          (rng.random((12, 5)) < 0.4).astype(np.uint8))
        samples.inputs[3, 2] = np.inf
        return Dataset.from_samples(samples, grid_key="sum:3:d2",
                                    detector="zlevel:9", seed=seed)

    def test_round_trip(self, tmp_path):
        ds = self._dataset()
        synth_data.save_dataset(ds, tmp_path / "data.bin")
        back = synth_data.load_dataset(tmp_path / "data.bin")
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.grid_key == ds.grid_key
        assert back.detector == ds.detector

    @pytest.mark.parametrize("resize", [lambda raw: raw[:-1], lambda raw: raw + b"\0"],
                             ids=["one byte short", "one byte long"])
    def test_refuses_a_bin_of_another_size(self, tmp_path, resize):
        bin_path, _ = synth_data.save_dataset(self._dataset(), tmp_path / "data.bin")
        bin_path.write_bytes(resize(bin_path.read_bytes()))
        with pytest.raises(MalformedFileError, match="its header needs 540"):
            synth_data.load_dataset(bin_path)

    def test_refuses_another_version(self, tmp_path):
        _, hdr_path = synth_data.save_dataset(self._dataset(), tmp_path / "data.bin")
        header = json.loads(hdr_path.read_text())
        header["version"] = 2
        hdr_path.write_text(json.dumps(header))
        with pytest.raises(MalformedFileError, match="detector-dataset file of version 2"):
            synth_data.load_dataset(tmp_path / "data.bin")

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            synth_data.save_dataset(self._dataset(7), tmp_path / f"{name}.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_export(self, tmp_path):
        ds = self._dataset()
        synth_data.export_dataset_csv(ds, tmp_path / "data.csv")
        lines = (tmp_path / "data.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + ds.n_samples
        assert lines[0].startswith("g0,")
