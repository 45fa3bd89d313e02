import math
from fractions import Fraction

import numpy as np
import pytest

from sgdetect.detectors import (
    Detector,
    ExactOracleDetector,
    LinearCut,
    SphericalCut,
    ZLevelDetector,
)
from sgdetect.engine import (
    EngineConfig,
    _EngineState,
    run_basic,
    run_batched,
    run_report,
    write_troubled_csv,
)
from sgdetect.errors import DimensionMismatchError, EngineError
from sgdetect.sparse_grid import Box
from sgdetect.synth_data import sample_piecewise_function

SQUARE = Box.cube((0, 0), 2)


def constant_g(x):
    return np.ones(np.asarray(x).shape[0])


class CountingDetector(Detector):
    """Wrap a detector and record every grid it classifies."""

    def __init__(self, inner):
        self.inner = inner
        self.requires_evaluations = inner.requires_evaluations
        self.seen_keys = []

    def detect_batch(self, samples):
        self.seen_keys.extend((s.grid.box.center, s.grid.box.edge) for s in samples)
        return self.inner.detect_batch(samples)


class EvalOracle(ExactOracleDetector):
    requires_evaluations = True  # force evaluation path


class TestConfig:
    def test_validation(self):
        with pytest.raises(EngineError):
            EngineConfig(lambda_min=0)
        with pytest.raises(EngineError):
            EngineConfig(lambda_min=Fraction(1, 4), tau=0.0)
        with pytest.raises(EngineError):
            EngineConfig(lambda_min=Fraction(1, 4), boundary_policy="bounce")


class TestBasicRun:
    def test_continuous_function_one_call_per_initial_task(self, grid2d, graph2d):
        cut = SphericalCut((50.0, 50.0), 0.5)  # never intersects the domain
        det = CountingDetector(ExactOracleDetector(cut))
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        initial = [((-0.5, -0.5), 1), ((0.5, 0.5), 1)]
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=det,
                        initial=initial, config=config)
        assert run.troubled == []
        assert len(det.seen_keys) == len(initial)
        assert run.generation_sizes == [2]

    def test_circle_troubled_points_near_interface(self, grid2d, graph2d):
        cut = SphericalCut((0.2, 0.1), 0.65)
        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE,
                              boundary_policy="ignore")
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut),
                        initial=[((0, 0), 2)], config=config)
        assert len(run.troubled) > 0
        dists = np.abs(np.linalg.norm(run.troubled_coords() - [0.2, 0.1], axis=1) - 0.65)
        assert dists.max() < float(Fraction(1, 64))

    def test_generation_bound(self, grid2d, graph2d):
        cut = LinearCut([1.0, 0.3], 0.05)
        lam_min = Fraction(1, 32)
        config = EngineConfig(lambda_min=lam_min, domain=SQUARE, boundary_policy="ignore")
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut),
                        initial=[((0, 0), 2)], config=config)
        bound = math.ceil(math.log2(2 / lam_min)) + 1
        assert len(run.generation_sizes) <= bound

    def test_no_task_processed_twice(self, grid2d, graph2d):
        cut = SphericalCut((0.0, 0.0), 0.5)
        det = CountingDetector(ExactOracleDetector(cut))
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
        run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=det,
                  initial=[((0, 0), 2)], config=config)
        assert len(det.seen_keys) == len(set(det.seen_keys))

    def test_exact_dyadic_task_keys(self, grid2d, graph2d):
        # centers accumulate denominators but stay exact fractions
        cut = SphericalCut((0.11, -0.07), 0.42)
        config = EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE,
                              boundary_policy="ignore")
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut),
                        initial=[((0, 0), 2)], config=config)
        for t in run.troubled:
            for c in t.exact:
                assert isinstance(c, Fraction)
                assert (c.denominator & (c.denominator - 1)) == 0  # power of two

    def test_refinement_uses_incident_not_global_max(self, grid2d, graph2d):
        # a corner point's spawned box takes its own longest incident edge,
        # which is shorter than the longest edge in the grid
        corner = grid2d.lattice.index((0, 0))
        spans = graph2d.incident_max_span()
        global_span = max(e.span for e in graph2d.edges)
        assert spans[corner] < global_span

        class CornerOnly(Detector):
            def detect_batch(self, samples):
                p = np.zeros((len(samples), samples[0].grid.n_points))
                p[:, corner] = 1.0
                return p

        det = CountingDetector(CornerOnly())
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE,
                              boundary_policy="ignore")
        run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=det,
                  initial=[((0, 0), 2)], config=config)
        m = grid2d.resolution
        first_child_edge = det.seen_keys[1][1]
        assert first_child_edge == Fraction(2) * Fraction(int(spans[corner]), m)
        # the literal-global reading is available behind the config flag
        config_global = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE,
                                     boundary_policy="ignore", lambda_rule="global")
        det2 = CountingDetector(CornerOnly())
        run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=det2,
                  initial=[((0, 0), 2)], config=config_global)
        assert det2.seen_keys[1][1] == Fraction(2) * Fraction(global_span, m)

    def test_lambda_ge_min_refines_lambda_lt_min_finalizes(self, grid2d, graph2d):
        # lambda == lambda_min exactly must refine (rule is >=)
        cut = LinearCut([1.0, 0.0], -0.015625)
        lam_min = Fraction(1, 4)  # spans 4 -> first children get lambda = 1/2 >= 1/4
        config = EngineConfig(lambda_min=lam_min, domain=SQUARE, boundary_policy="ignore")
        det = CountingDetector(ExactOracleDetector(cut))
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=det,
                        initial=[((0, 0), 2)], config=config)
        child_edges = {edge for _, edge in det.seen_keys[1:]}
        assert Fraction(1, 4) in child_edges  # a lambda == lambda_min box was processed
        assert all(t.trigger_lambda < lam_min for t in run.troubled)


class TestDomainHandling:
    def test_unrefined_reference_grid_rejected(self):
        from sgdetect.grid_graph import build_grid_graph
        from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid

        grid = build_sparse_grid(GridSpec(dim=2, rule="max", level=1), Box.cube((0, 0), 2))
        graph = build_grid_graph(grid)
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        with pytest.raises(EngineError, match="refinement"):
            run_basic(g=constant_g, grid=grid, graph=graph,
                      detector=ExactOracleDetector(SphericalCut((0, 0), 0.5)),
                      initial=[((0, 0), 2)], config=config)

    def test_initial_box_must_be_inside_domain(self, grid2d, graph2d):
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        with pytest.raises(EngineError):
            run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                      detector=ExactOracleDetector(SphericalCut((0, 0), 0.5)),
                      initial=[((0.9, 0.9), 1)], config=config)

    def test_dimension_mismatch(self, grid2d, graph2d):
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        with pytest.raises(DimensionMismatchError):
            run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                      detector=ExactOracleDetector(SphericalCut((0, 0), 0.5)),
                      initial=[((0, 0, 0), 1)], config=config)

    def test_clip_stop_records_boundary_point(self, grid2d, graph2d):
        # a cut crossing the domain boundary: refinement walks outside and
        # the outside troubled points stop their branch, flagged
        cut = SphericalCut((1.0, 0.0), 0.3)
        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE,
                              boundary_policy="clip-stop")
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut),
                        initial=[((0, 0), 2)], config=config)
        flagged = [t for t in run.troubled if t.boundary_stopped]
        assert flagged
        assert all(max(abs(c) for c in t.exact) > 1 for t in flagged)

    def test_ignore_policy_drops_outside_points(self, grid2d, graph2d):
        cut = SphericalCut((1.0, 0.0), 0.3)
        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE,
                              boundary_policy="ignore")
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut),
                        initial=[((0, 0), 2)], config=config)
        assert all(not t.boundary_stopped for t in run.troubled)
        assert all(SQUARE.contains(t.exact) for t in run.troubled)

    def test_sentinel_mask_matches_domain(self, grid2d, graph2d):
        # grid straddling the boundary: sentinel exactly where a coordinate
        # leaves the domain
        seen = {}

        class Probe(Detector):
            requires_evaluations = True

            def detect_batch(self, samples):
                sample, = samples
                seen["evals"] = sample.evaluations.copy()
                seen["mask"] = sample.in_domain.copy()
                seen["coords"] = sample.coords.copy()
                return np.zeros((1, sample.grid.n_points))

        config = EngineConfig(lambda_min=Fraction(1, 8),
                              domain=Box.cube((0, 0), 2), boundary_policy="ignore")
        run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=Probe(),
                  initial=[((0, 0), 2)], config=config)
        # place a grid straddling the right edge manually via a second run
        config2 = EngineConfig(lambda_min=Fraction(1, 8), domain=Box.cube((0, 0), 1),
                               boundary_policy="ignore")
        run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=Probe(),
                  initial=[((0, 0), 1)], config=config2)
        inside = np.all(np.abs(seen["coords"]) <= 0.5 + 1e-15, axis=1)
        np.testing.assert_array_equal(seen["mask"], inside)
        assert np.all(np.isinf(seen["evals"][~seen["mask"]]))
        assert np.all(np.isfinite(seen["evals"][seen["mask"]]))


class TestCache:
    def _run(self, grid2d, graph2d, cache):
        cut = SphericalCut((0.2, 0.1), 0.65)
        calls = {"n": 0}

        def g(x):
            calls["n"] += len(x)
            return np.where(cut(x) >= 0, 2.0, -1.0)

        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE,
                              boundary_policy="ignore", cache_evaluations=cache)
        run = run_basic(g=g, grid=grid2d, graph=graph2d, detector=EvalOracle(cut),
                        initial=[((0, 0), 2)], config=config)
        return run, calls["n"]

    def test_cache_identical_results_and_hits(self, grid2d, graph2d):
        run_on, calls_on = self._run(grid2d, graph2d, cache=True)
        run_off, calls_off = self._run(grid2d, graph2d, cache=False)
        assert run_on.troubled_keys() == run_off.troubled_keys()
        assert run_on.cache_hits > 0
        assert run_off.cache_hits == 0
        assert calls_on < calls_off
        assert run_on.visited_points == run_off.visited_points
        assert calls_on == run_on.visited_points  # each distinct point once


class TestBudget:
    def test_truncation_flag(self, grid2d, graph2d):
        cut = SphericalCut((0.2, 0.1), 0.65)

        config = EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE,
                              boundary_policy="ignore", max_evaluations=200)
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=EvalOracle(cut), initial=[((0, 0), 2)], config=config)
        assert run.truncated
        full = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                         detector=EvalOracle(cut), initial=[((0, 0), 2)],
                         config=EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE,
                                             boundary_policy="ignore"))
        assert not full.truncated
        assert len(run.troubled) <= len(full.troubled)

    def test_budget_that_cannot_bind_is_rejected(self, grid2d, graph2d):
        # the exact oracle never evaluates g, so a budget would silently not apply
        config = EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE, max_evaluations=10)
        for runner in (run_basic, run_batched):
            with pytest.raises(EngineError, match="max_evaluations"):
                runner(g=constant_g, grid=grid2d, graph=graph2d,
                       detector=ExactOracleDetector(SphericalCut((0.2, 0.1), 0.65)),
                       initial=[((0, 0), 2)], config=config)


class TestEvaluationShape:
    @pytest.mark.parametrize("bad_g", [
        lambda x: np.ones(len(x) - 1),
        lambda x: np.ones(len(x) + 1),
        lambda x: np.ones((len(x), 1)),
        lambda x: 1.0,
    ])
    def test_wrong_shape_from_g_raises(self, grid2d, graph2d, bad_g):
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        with pytest.raises(EngineError, match="shape"):
            run_basic(g=bad_g, grid=grid2d, graph=graph2d,
                      detector=EvalOracle(SphericalCut((0.2, 0.1), 0.65)),
                      initial=[((0, 0), 2)], config=config)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_piecewise_functions_z_detector(self, grid2d, graph2d, seed):
        kind = ["linear", "spherical", "polynomial"][seed % 3]
        fn = sample_piecewise_function(kind, 2, np.random.default_rng(seed))
        det = ZLevelDetector(fn.cut, 49)
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
        a = run_basic(g=fn, grid=grid2d, graph=graph2d, detector=det,
                      initial=[((0, 0), 2)], config=config)
        b = run_batched(g=fn, grid=grid2d, graph=graph2d, detector=det,
                        initial=[((0, 0), 2)], config=config)
        assert a.troubled_keys() == b.troubled_keys()
        assert a.visited_points == b.visited_points
        assert a.grids_visited == b.grids_visited
        assert a.generation_sizes == b.generation_sizes
        assert sum(a.generation_sizes) == a.grids_visited
        assert sum(b.generation_sizes) == b.grids_visited

    def test_single_task_batch_of_one(self, grid2d, graph2d):
        cut = SphericalCut((0.2, 0.1), 0.65)
        config = EngineConfig(lambda_min=Fraction(1, 2), domain=SQUARE)
        a = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                      detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                      config=config)
        b = run_batched(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                        config=config)
        assert a.troubled_keys() == b.troubled_keys()
        assert sum(a.generation_sizes) == a.grids_visited
        assert sum(b.generation_sizes) == b.grids_visited


class TestWarningsAndReports:
    def test_off_lattice_warning(self, grid2d, graph2d):
        # the circle crosses both boxes; their point lattices never meet
        cut = SphericalCut((0.2, 0.0), 0.3)
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=Box.cube((0, 0), 4))
        boxes = [((0, 0), 1), ((Fraction(1, 3), 0), 1)]

        def run(initial):
            return run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                             detector=ExactOracleDetector(cut), initial=initial, config=config)

        with pytest.warns(UserWarning, match="off-lattice"):
            both = run(boxes)
        first, second = run(boxes[:1]), run(boxes[1:])
        assert first.troubled and second.troubled
        assert both.troubled_keys() == first.troubled_keys() | second.troubled_keys()
        assert both.visited_points == first.visited_points + second.visited_points

    @pytest.mark.filterwarnings("ignore:initial grid centers are off-lattice")
    @pytest.mark.parametrize("initial,domain", [
        # the 512-pixel phantom: edge 511 and center 511/2 are not dyadic
        ([((Fraction(511, 2),) * 2, 511)], Box.cube((Fraction(511, 2),) * 2, 511)),
        # two boxes off each other's lattice
        ([((0, 0), 1), ((Fraction(1, 3), Fraction(-1, 5)), 1)], Box.cube((0, 0), 4)),
        # a center whose denominator the lattice unit does not share
        ([((Fraction(1, 3), Fraction(-2, 7)), 1)], Box.cube((0, 0), 4)),
    ])
    def test_exact_points_match_fraction_formula(self, grid2d, graph2d, initial, domain):
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=domain)
        state = _EngineState(grid2d, graph2d, ExactOracleDetector(SphericalCut((0, 0), 1)),
                             constant_g, config, initial, evaluates=False)
        rng = np.random.default_rng(7)
        keys = rng.integers(-2 ** 40, 2 ** 40, size=(2000, 2)).tolist()
        keys += rng.integers(-3, 4, size=(50, 2)).tolist()
        for key in map(tuple, keys):
            exact = tuple(o + k * state.unit for o, k in zip(state.origin, key))
            assert state.point(key) == exact
            state.record(key, 3)
            point = state.troubled[key]
            assert point.exact == exact
            assert [x.hex() for x in point.coords] == [float(x).hex() for x in exact]
            assert point.trigger_lambda == 3 * state.unit

    def test_lattice_wider_than_62_bits_is_rejected(self, grid2d, graph2d):
        config = EngineConfig(lambda_min=Fraction(1, 2 ** 70), domain=SQUARE)
        with pytest.raises(EngineError, match="62 bits"):
            run_batched(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(SphericalCut((0.2, 0.1), 0.65)),
                        initial=[((0, 0), 2)], config=config)

    def test_report_and_csv(self, grid2d, graph2d, tmp_path):
        cut = SphericalCut((0.2, 0.1), 0.65)
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE,
                              boundary_policy="ignore")
        run = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                        config=config)
        doc = run_report(run)
        assert doc["counters"]["troubled"] == len(run.troubled)
        assert doc["config"]["lambda_min"] == "1/16"
        write_troubled_csv(run, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(run.troubled)
