import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect.detectors import (
    Detector,
    ExactOracleDetector,
    LinearCut,
    SphericalCut,
    ZLevelDetector,
)
from sgdetect.engine import (
    BOUNDARY_POLICIES,
    EngineConfig,
    _EngineState,
    run_basic,
    run_batched,
    run_report,
    write_troubled_csv,
)
from sgdetect.errors import DegenerateGraphError, DimensionMismatchError, EngineError
from sgdetect.grid_graph import GridGraph
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
        for budget in (0, -5):
            with pytest.raises(EngineError, match="max_evaluations must be >= 1"):
                EngineConfig(lambda_min=Fraction(1, 4), max_evaluations=budget)


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

    def test_exact_values_are_built_on_first_read(self, grid2d, graph2d):
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
        run = run_batched(g=constant_g, grid=grid2d, graph=graph2d,
                          detector=ExactOracleDetector(SphericalCut((0.2, 0.1), 0.65)),
                          initial=[((0, 0), 2)], config=config)
        assert run.troubled
        for t in run.troubled:
            assert "exact" not in vars(t) and "trigger_lambda" not in vars(t)
            assert t.coords == tuple(float(c) for c in t.exact)
            assert t.trigger_lambda < config.lambda_min
            assert vars(t)["exact"] is t.exact  # built once, then kept

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

    def test_isolated_node_rejected(self, grid2d, graph2d):
        # node 0 loses its edges: it has no incident span to refine by
        edges = tuple(e for e in graph2d.edges if 0 not in (e.i, e.j))
        graph = GridGraph(grid=grid2d, edges=edges, min_span=graph2d.min_span)
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        for runner in (run_basic, run_batched):
            with pytest.raises(DegenerateGraphError, match="isolated node"):
                runner(g=constant_g, grid=grid2d, graph=graph,
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
    def _run(self, grid2d, graph2d, runner=run_basic, visit_hook=None):
        cut = SphericalCut((0.2, 0.1), 0.65)
        calls = {"n": 0}

        def g(x):
            calls["n"] += len(x)
            return np.where(cut(x) >= 0, 2.0, -1.0)

        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE,
                              boundary_policy="ignore")
        run = runner(g=g, grid=grid2d, graph=graph2d, detector=EvalOracle(cut),
                     initial=[((0, 0), 2)], config=config, visit_hook=visit_hook)
        return run, calls["n"]

    def test_cache_identical_results_and_hits(self, grid2d, graph2d):
        # the oracle never reads g, so the same run without it evaluates nothing
        run, calls = self._run(grid2d, graph2d)
        plain = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                          detector=ExactOracleDetector(SphericalCut((0.2, 0.1), 0.65)),
                          initial=[((0, 0), 2)], config=run.config)
        assert run.troubled_keys() == plain.troubled_keys()
        assert plain.evaluations == plain.cache_hits == 0
        assert run.cache_hits > 0
        assert run.visited_points == plain.visited_points
        assert calls == run.evaluations == run.visited_points  # each distinct point once

    @pytest.mark.parametrize("runner", [run_basic, run_batched])
    def test_every_in_domain_visit_is_an_evaluation_or_a_hit(self, grid2d, graph2d,
                                                             runner):
        in_domain = []
        run, _ = self._run(grid2d, graph2d, runner,
                           visit_hook=lambda task, sample, p: in_domain.append(
                               int(sample.in_domain.sum())))
        assert len(in_domain) == run.grids_visited
        assert run.evaluations + run.cache_hits == sum(in_domain)


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

    @pytest.mark.parametrize("budget", [1, 64, 65, 100, 300, 1000])
    def test_budget_binds_per_grid_in_batched_runs(self, grid2d, graph2d, budget):
        cut = SphericalCut((0.2, 0.1), 0.65)
        config = EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE,
                              max_evaluations=budget)
        n = grid2d.n_points
        full = run_batched(g=constant_g, grid=grid2d, graph=graph2d, detector=EvalOracle(cut),
                           initial=[((0, 0), 2)], config=replace(config, max_evaluations=None))
        assert full.evaluations > 1000
        for runner in (run_basic, run_batched):
            run = runner(g=constant_g, grid=grid2d, graph=graph2d, detector=EvalOracle(cut),
                         initial=[((0, 0), 2)], config=config)
            assert run.truncated
            assert budget <= run.evaluations < budget + n
            assert run.troubled_keys() <= full.troubled_keys()


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


def _hooked(runner, g, grid, graph, detector, initial, config):
    """Run with a visit hook, which makes the engine evaluate g on every grid;
    returns the run and each visit's (center, edge, evaluation bytes)."""
    visits = []

    def hook(task, sample, p):
        visits.append((task.center, task.edge, sample.evaluations.tobytes()))

    run = runner(g=g, grid=grid, graph=graph, detector=detector, initial=initial,
                 config=config, visit_hook=hook)
    return run, visits


def _assert_same_run(a, b):
    assert a.troubled_keys() == b.troubled_keys()
    assert [t.key for t in a.troubled] == [t.key for t in b.troubled]
    assert a.evaluations == b.evaluations
    assert a.cache_hits == b.cache_hits
    assert a.visited_points == b.visited_points
    assert a.generation_sizes == b.generation_sizes
    assert a.grids_visited == b.grids_visited


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_piecewise_functions_z_detector(self, grid2d, graph2d, seed):
        kind = ["linear", "spherical", "polynomial"][seed % 3]
        fn = sample_piecewise_function(kind, 2, np.random.default_rng(seed))
        det = ZLevelDetector(fn.cut, 49)
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
        a, visits_a = _hooked(run_basic, fn, grid2d, graph2d, det, [((0, 0), 2)], config)
        b, visits_b = _hooked(run_batched, fn, grid2d, graph2d, det, [((0, 0), 2)], config)
        _assert_same_run(a, b)
        assert visits_a == visits_b  # same grids, same order, same g bytes
        assert sum(a.generation_sizes) == a.grids_visited
        assert sum(b.generation_sizes) == b.grids_visited

    @pytest.mark.parametrize("name,detector_spec,lambda_min", [
        ("circle", "exact", Fraction(1, 32)),
        ("torus4d", "zlevel:9", Fraction(1, 2)),
    ])
    def test_builtin_targets(self, grid2d, graph2d, grid4d, graph4d,
                             name, detector_spec, lambda_min):
        from sgdetect.detectors import make_detector
        from sgdetect.evaluation import builtin_test_functions

        target = builtin_test_functions()[name]
        grid, graph = (grid2d, graph2d) if target.dim == 2 else (grid4d, graph4d)
        det = make_detector(detector_spec, target.cut)
        config = EngineConfig(lambda_min=lambda_min, domain=target.domain)
        initial = [(target.domain.center, target.domain.edge)]
        a, visits_a = _hooked(run_basic, target.fn, grid, graph, det, initial, config)
        b, visits_b = _hooked(run_batched, target.fn, grid, graph, det, initial, config)
        _assert_same_run(a, b)
        assert visits_a == visits_b
        assert a.troubled and a.cache_hits > 0
        assert b.detector_calls == len(b.generation_sizes) < a.detector_calls

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


class TestChunkVisit:
    def test_point_shared_within_a_chunk_is_evaluated_once(self, grid2d, graph2d):
        # two side-by-side boxes of one generation share their common edge
        points = []

        def g(x):
            points.append(np.asarray(x).copy())
            return np.ones(len(x))

        grids = []

        def hook(task, sample, p):
            grids.append(set(map(tuple, sample.coords.tolist())))

        config = EngineConfig(lambda_min=Fraction(1, 2), domain=SQUARE)
        run = run_batched(g=g, grid=grid2d, graph=graph2d,
                          detector=ExactOracleDetector(SphericalCut((50.0, 50.0), 0.5)),
                          initial=[((-0.5, 0), 1), ((0.5, 0), 1)], config=config,
                          visit_hook=hook)
        shared = grids[0] & grids[1]
        assert shared  # the points on x = 0
        assert len(points) == 1  # one chunk, one g call
        evaluated = list(map(tuple, points[0].tolist()))
        assert len(evaluated) == len(set(evaluated)) == len(grids[0] | grids[1])
        assert run.evaluations == len(evaluated)
        assert run.cache_hits == len(shared)

    def test_g_called_at_most_once_per_chunk(self, grid2d, graph2d):
        cut = SphericalCut((0.2, 0.1), 0.65)
        calls = []

        def g(x):
            calls.append(len(x))
            return np.where(cut(x) >= 0, 2.0, -1.0)

        config = EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE)
        run = run_batched(g=g, grid=grid2d, graph=graph2d, detector=EvalOracle(cut),
                          initial=[((0, 0), 2)], config=config)
        assert len(run.generation_sizes) > 3
        assert run.detector_calls == len(run.generation_sizes)
        assert 0 < len(calls) <= run.detector_calls
        assert sum(calls) == run.evaluations


@st.composite
def engine_cases(draw):
    """Random initial boxes inside the square [-1, 1]^2, lambda_min, and a
    linear or spherical cut."""
    boxes = []
    for _ in range(draw(st.integers(1, 2))):
        edge = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4)]))
        den = draw(st.sampled_from([3, 4, 8]))
        reach = math.floor((1 - edge / 2) * den)
        center = tuple(Fraction(draw(st.integers(-reach, reach)), den) for _ in range(2))
        boxes.append((center, edge))
    lambda_min = Fraction(1, draw(st.sampled_from([8, 16, 24, 32, 64])))
    if draw(st.booleans()):
        angle = draw(st.floats(0, 2 * math.pi))
        cut = LinearCut([math.cos(angle), math.sin(angle)], draw(st.floats(-1, 1)))
    else:
        center = [draw(st.floats(-1.5, 1.5)) for _ in range(2)]
        cut = SphericalCut(center, draw(st.floats(0.05, 1.0)))
    policy = draw(st.sampled_from(BOUNDARY_POLICIES))
    config = EngineConfig(lambda_min=lambda_min, domain=SQUARE, boundary_policy=policy)
    return boxes, cut, config


@pytest.mark.filterwarnings("ignore:initial grid centers are off-lattice")
class TestEngineProperties:
    @staticmethod
    def _g(cut):
        return lambda x: np.where(cut(x) >= 0, 2.0, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(engine_cases())
    def test_basic_equals_batched(self, grid2d, graph2d, case):
        boxes, cut, config = case
        a, visits_a = _hooked(run_basic, self._g(cut), grid2d, graph2d, EvalOracle(cut),
                              boxes, config)
        b, visits_b = _hooked(run_batched, self._g(cut), grid2d, graph2d, EvalOracle(cut),
                              boxes, config)
        _assert_same_run(a, b)
        assert visits_a == visits_b
        assert sum(a.generation_sizes) == a.grids_visited
        assert sum(b.generation_sizes) == b.grids_visited

    @settings(max_examples=25, deadline=None)
    @given(engine_cases())
    def test_troubled_points_lie_on_their_trigger_grid(self, grid2d, graph2d, case):
        boxes, cut, config = case
        m = grid2d.resolution
        lattice = grid2d.lattice_array().tolist()
        spans = graph2d.incident_max_span().tolist()
        triggers = set()

        def hook(task, sample, p):
            for i in np.flatnonzero(p >= config.tau).tolist():
                point = tuple(c + Fraction(2 * l - m, 2 * m) * task.edge
                              for c, l in zip(task.center, lattice[i]))
                triggers.add((point, task.edge * Fraction(spans[i], m)))

        run = run_batched(g=self._g(cut), grid=grid2d, graph=graph2d,
                          detector=ExactOracleDetector(cut), initial=boxes, config=config,
                          visit_hook=hook)
        assert {(t.exact, t.trigger_lambda) for t in run.troubled} <= triggers
        assert all(t.trigger_lambda < config.lambda_min
                   for t in run.troubled if not t.boundary_stopped)

    @settings(max_examples=25, deadline=None)
    @given(engine_cases(), st.integers(1, 3000))
    def test_budgeted_troubled_set_is_a_subset(self, grid2d, graph2d, case, budget):
        boxes, cut, config = case
        full = run_batched(g=self._g(cut), grid=grid2d, graph=graph2d,
                           detector=EvalOracle(cut), initial=boxes, config=config)
        capped = run_batched(g=self._g(cut), grid=grid2d, graph=graph2d,
                             detector=EvalOracle(cut), initial=boxes,
                             config=replace(config, max_evaluations=budget))
        assert capped.troubled_keys() <= full.troubled_keys()
        assert capped.evaluations < budget + grid2d.n_points
        assert capped.truncated == (capped.grids_visited < full.grids_visited)


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
            assert state.lattice.point(key) == exact
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
