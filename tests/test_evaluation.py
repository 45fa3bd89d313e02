from fractions import Fraction

import numpy as np
import pytest

from sgdetect.detectors import SphericalCut
from sgdetect.evaluation import (
    ImageFunction,
    builtin_test_functions,
    read_pgm,
    shepp_logan,
    tpr,
    write_pgm,
)


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
        from sgdetect import evaluation
        from sgdetect.detectors import CallableCut

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
        monkeypatch.setattr(evaluation, "SAMPLE_BUDGET", budget)
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
    def test_raw_round_trip(self, tmp_path):
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

    def test_rejects_other_formats(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(Exception):
            read_pgm(tmp_path / "img.ppm")
