from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgdetect import synth_data
from sgdetect.detectors import PolynomialCut, ZLevelDetector
from sgdetect.engine import EngineConfig, run_basic
from sgdetect.errors import DegenerateDatasetError
from sgdetect.sparse_grid import Box
from sgdetect.synth_data import (
    Dataset,
    LegendrePiece,
    Sample,
    balance_dataset,
    generate_dataset,
    legendre_value,
    preprocess_gamma,
    preprocess_gamma_batch,
    sample_cut,
    sample_legendre_piece,
    sample_piecewise_function,
    split_dataset,
)


class TestLegendre:
    @given(st.integers(0, 6), st.floats(-1, 1, allow_nan=False))
    def test_against_scipy(self, degree, u):
        ours = legendre_value(degree, np.array([u]))[0]
        theirs = scipy.special.eval_legendre(degree, u)
        assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)

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


class TestGamma:
    def test_zero_vector_maps_to_zero(self):
        assert np.all(preprocess_gamma(np.zeros(7)) == 0.0)

    def test_hand_example(self):
        np.testing.assert_array_equal(
            preprocess_gamma(np.array([2.0, -4.0, 1.0])), [0.5, -1.0, 0.25])

    def test_sentinels_excluded_and_zeroed(self):
        g = np.array([np.inf, 2.0, -1.0])
        out = preprocess_gamma(g)
        np.testing.assert_array_equal(out, [0.0, 1.0, -0.5])

    @given(arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_range(self, g):
        out = preprocess_gamma(g)
        assert np.all(np.abs(out) <= 1.0)

    @given(
        arrays(np.float64, st.integers(1, 30),
               elements=st.floats(-1e3, 1e3, allow_nan=False)),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_positive_scale_invariance(self, g, c):
        np.testing.assert_allclose(preprocess_gamma(c * g), preprocess_gamma(g),
                                   atol=1e-12)

    def test_sup_norm_one_when_nonzero(self, rng):
        g = rng.normal(size=20)
        assert np.max(np.abs(preprocess_gamma(g))) == pytest.approx(1.0)

    def test_batch_matches_rows(self, rng):
        g = rng.normal(size=(6, 9))
        g[2, 3] = np.inf
        batch = preprocess_gamma_batch(g)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], preprocess_gamma(g[i]))


def _mk(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return Sample(inputs=np.arange(labels.size, dtype=float), labels=labels)


class TestBalance:
    def test_keeps_max_count_of_zeros(self, rng):
        ones = [_mk([1] * i + [0] * (5 - i)) for i in (1, 1, 1, 2, 2, 3)]
        # D_1 counts: {1: 3, 2: 2, 3: 1} -> D_0' = 3
        zeros = [_mk([0] * 5) for _ in range(50)]
        out = balance_dataset(ones + zeros, rng)
        kept_zero = sum(1 for s in out if s.n_troubled == 0)
        assert kept_zero == 3
        assert sum(1 for s in out if s.n_troubled > 0) == 6

    def test_no_zero_samples_identity(self, rng):
        ones = [_mk([1, 0]), _mk([1, 1])]
        assert balance_dataset(ones, rng) == ones

    def test_all_zero_degenerate(self, rng):
        with pytest.raises(DegenerateDatasetError):
            balance_dataset([_mk([0, 0])] * 4, rng)

    def test_never_drops_labeled_samples(self, rng):
        samples = [_mk([1, 0])] * 7 + [_mk([0, 0])] * 100
        out = balance_dataset(samples, rng)
        assert sum(1 for s in out if s.n_troubled > 0) == 7


class TestSplit:
    def test_counts_100(self, rng):
        split = split_dataset([_mk([1, 0]) for _ in range(100)], rng)
        assert (len(split.test), len(split.train), len(split.validation)) == (30, 56, 14)

    def test_counts_10(self, rng):
        split = split_dataset([_mk([1, 0]) for _ in range(10)], rng)
        assert (len(split.test), len(split.train), len(split.validation)) == (3, 5, 2)

    def test_too_few_samples(self, rng):
        with pytest.raises(DegenerateDatasetError):
            split_dataset([_mk([1, 0])] * 9, rng)

    def test_deterministic_given_seed(self):
        samples = [_mk([i % 2, 0]) for i in range(40)]
        a = split_dataset(samples, np.random.default_rng(9))
        b = split_dataset(samples, np.random.default_rng(9))
        for part in ("train", "validation", "test"):
            xa, ya = a.arrays(part)
            xb, yb = b.arrays(part)
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_parts_disjoint_and_complete(self, rng):
        samples = [_mk([i % 2, 1]) for i in range(25)]
        split = split_dataset(samples, rng)
        seen = [s.inputs[0] for part in (split.test, split.train, split.validation)
                for s in part]
        assert len(seen) == 25


class TestGenerateDataset:
    def test_continuous_function_terminates_with_zero_labels(self, grid2d, graph2d):
        smooth = sample_legendre_piece(2, np.random.default_rng(0))
        fn = synth_data.PiecewiseFunction(
            g1=smooth, g2=smooth,
            cut=synth_data.SphericalCut((10.0, 10.0), 0.1))
        samples, stats = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 8))
        assert len(samples) == 1  # only the initial grid is ever visited
        assert samples[0].n_troubled == 0

    def test_samples_per_visit(self, grid2d, graph2d, rng):
        fn = sample_piecewise_function("linear", 2, np.random.default_rng(11))
        samples, stats = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 4))
        assert len(samples) > 1
        assert stats["samples"] == len(samples)
        assert all(s.inputs.shape == (65,) for s in samples)

    def test_parallel_generation_deterministic(self, grid2d, graph2d):
        fns = [sample_piecewise_function("spherical", 2, np.random.default_rng(s))
               for s in (1, 2)]
        seq, _ = generate_dataset(grid2d, graph2d, 4, fns, Fraction(1, 4), n_jobs=1)
        par, _ = generate_dataset(grid2d, graph2d, 4, fns, Fraction(1, 4), n_jobs=2)
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.inputs, b.inputs)
            np.testing.assert_array_equal(a.labels, b.labels)


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
            reference.append(Sample(inputs=inputs, labels=labels))

        run_basic(g=fn, grid=grid2d, graph=graph2d, detector=ZLevelDetector(fn.cut, 9),
                  initial=[(domain.center, domain.edge)],
                  config=EngineConfig(lambda_min=Fraction(1, 8), domain=domain),
                  visit_hook=hook)
        samples, _ = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 8))
        assert len(samples) == len(reference) > 1
        assert any(np.isinf(s.inputs).any() for s in samples)
        for a, b in zip(samples, reference):
            assert a.inputs.tobytes() == b.inputs.tobytes()
            np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kind", ["linear", "spherical", "polynomial"])
    def test_batched_labelling_matches_a_basic_reference(self, grid2d, graph2d, kind):
        # the reference labels every visit of a one-grid-per-chunk run
        fn = sample_piecewise_function(kind, 2, np.random.default_rng(31))
        domain = Box.cube((0, 0), 2)
        reference = []

        def hook(task, sample, p):
            labels = ((p >= 0.5) & sample.in_domain).astype(np.uint8)
            reference.append(Sample(inputs=sample.evaluations.copy(), labels=labels))

        run_basic(g=fn, grid=grid2d, graph=graph2d, detector=ZLevelDetector(fn.cut, 9),
                  initial=[(domain.center, domain.edge)],
                  config=EngineConfig(lambda_min=Fraction(1, 16), domain=domain),
                  visit_hook=hook)
        samples, stats = generate_dataset(grid2d, graph2d, 9, [fn], Fraction(1, 16))
        assert stats["skipped_nan_visits"] == 0
        assert len(samples) == len(reference) > 10
        got = Dataset.from_samples(samples, "g", "zlevel:9", 0)
        want = Dataset.from_samples(reference, "g", "zlevel:9", 0)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_g_sees_each_point_once(self, grid2d, graph2d):
        fns = [CountingFunction(sample_piecewise_function(kind, 2, np.random.default_rng(4)))
               for kind in ("spherical", "polynomial")]
        samples, _ = generate_dataset(grid2d, graph2d, 9, fns, Fraction(1, 8))
        for fn in fns:
            assert len(fn.points) == len(set(fn.points))
            assert np.all(np.abs(fn.points) <= 1.0)
        # neighbouring grids share points, so g sees fewer than the grids hold
        finite = sum(int(np.isfinite(s.inputs).sum()) for s in samples)
        assert sum(len(fn.points) for fn in fns) < finite


class TestDatasetFiles:
    def _dataset(self, seed=0):
        rng = np.random.default_rng(seed)
        samples = [Sample(inputs=rng.normal(size=5),
                          labels=(rng.random(5) < 0.4).astype(np.uint8))
                   for _ in range(12)]
        samples[3].inputs[2] = np.inf
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
