import csv
import logging
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect import engine
from sgdetect.cli import resolve_target
from sgdetect.detectors import (
    Detector,
    ExactOracleDetector,
    LinearCut,
    NeuralDetector,
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
from sgdetect.grid_graph import GridGraph, build_grid_graph
from sgdetect.neural.model import ModelConfig, build_archetype, load_model
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid
from sgdetect.synth_data import sample_piecewise_function

SQUARE = Box.cube((0, 0), 2)
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def constant_g(x):
    return np.ones(np.asarray(x).shape[0])


def exact_points(run) -> set:
    return {t.exact for t in run.troubled}


def box_keys(runner, **kwargs):
    """Run with a visit hook; returns the run and the exact (center, edge) of
    every grid it visited, in visit order."""
    keys = []
    run = runner(visit_hook=lambda task, sample, p: keys.append((task.center, task.edge)),
                 **kwargs)
    return run, keys


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
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE)
        initial = [((-0.5, -0.5), 1), ((0.5, 0.5), 1)]
        run, keys = box_keys(run_basic, g=constant_g, grid=grid2d, graph=graph2d,
                             detector=ExactOracleDetector(cut), initial=initial,
                             config=config)
        assert run.troubled == []
        assert len(keys) == run.detector_calls == len(initial)
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
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
        run, keys = box_keys(run_basic, g=constant_g, grid=grid2d, graph=graph2d,
                             detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                             config=config)
        assert len(keys) == len(set(keys)) == run.grids_visited

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
        assert "troubled" not in vars(run)  # the points are arrays until read
        assert run.troubled and vars(run)["troubled"] is run.troubled
        for t in run.troubled:
            assert "exact" not in vars(t) and "trigger_lambda" not in vars(t)
            assert t.coords == tuple(float(c) for c in t.exact)
            assert t.trigger_lambda < config.lambda_min
            assert vars(t)["exact"] is t.exact  # built once, then kept

    def test_refinement_uses_incident_not_global_max(self, grid2d, graph2d):
        # a corner point's spawned box takes its own longest incident edge,
        # which is shorter than the longest edge in the grid
        corner = grid2d.lattice.tolist().index([0, 0])
        spans = graph2d.incident_max_span()
        global_span = graph2d.edges[:, 3].max()
        assert spans[corner] < global_span

        class CornerOnly(Detector):
            def detect_batch(self, graph, coords, evaluations):
                p = np.zeros(coords.shape[:-1])
                p[:, corner] = 1.0
                return p

        config = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE,
                              boundary_policy="ignore")
        _, keys = box_keys(run_basic, g=constant_g, grid=grid2d, graph=graph2d,
                           detector=CornerOnly(), initial=[((0, 0), 2)], config=config)
        m = grid2d.resolution
        first_child_edge = keys[1][1]
        assert first_child_edge == Fraction(2) * Fraction(int(spans[corner]), m)
        # the literal-global reading is available behind the config flag
        config_global = EngineConfig(lambda_min=Fraction(1, 8), domain=SQUARE,
                                     boundary_policy="ignore", lambda_rule="global")
        _, keys = box_keys(run_basic, g=constant_g, grid=grid2d, graph=graph2d,
                           detector=CornerOnly(), initial=[((0, 0), 2)], config=config_global)
        assert keys[1][1] == Fraction(2) * Fraction(global_span, m)

    def test_lambda_ge_min_refines_lambda_lt_min_finalizes(self, grid2d, graph2d):
        # lambda == lambda_min exactly must refine (rule is >=)
        cut = LinearCut([1.0, 0.0], -0.015625)
        lam_min = Fraction(1, 4)  # spans 4 -> first children get lambda = 1/2 >= 1/4
        config = EngineConfig(lambda_min=lam_min, domain=SQUARE, boundary_policy="ignore")
        run, keys = box_keys(run_basic, g=constant_g, grid=grid2d, graph=graph2d,
                             detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                             config=config)
        child_edges = {edge for _, edge in keys[1:]}
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

    @pytest.mark.parametrize("rule,dim,level", [("sum", 2, 2), ("sum", 3, 3), ("sum", 4, 4),
                                                ("max", 2, 1), ("max", 4, 1),
                                                ("prod", 2, 1), ("prod", 3, 1)])
    @pytest.mark.parametrize("runner", [run_basic, run_batched])
    def test_unrefined_grid_raises_before_any_evaluation(self, rule, dim, level, runner):
        from sgdetect.grid_graph import build_grid_graph
        from sgdetect.sparse_grid import GridSpec, build_sparse_grid

        grid = build_sparse_grid(GridSpec(dim=dim, rule=rule, level=level),
                                 Box.cube((0,) * dim, 2))
        calls = []

        def counting_g(x):
            calls.append(len(x))
            return constant_g(x)

        config = EngineConfig(lambda_min=Fraction(1, 8), domain=Box.cube((0,) * dim, 2))
        with pytest.raises(EngineError, match="no refinement along axis 0;"):
            runner(g=counting_g, grid=grid, graph=build_grid_graph(grid),
                   detector=EvalOracle(SphericalCut((0,) * dim, 0.5)),
                   initial=[((0,) * dim, 2)], config=config)
        assert calls == []

    def test_isolated_node_rejected(self, grid2d, graph2d):
        # node 0 loses its edges: it has no incident span to refine by
        edges = graph2d.edges[(graph2d.edges[:, :2] != 0).all(axis=1)]
        graph = GridGraph(grid=grid2d, edges=edges)
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
        # a corner point spawns a grid straddling the domain boundary: the
        # detector's evaluations carry the sentinel exactly where the hook's
        # mask leaves the domain
        corner = grid2d.lattice.tolist().index([grid2d.resolution] * 2)
        detected, masks = [], []

        class Probe(Detector):
            requires_evaluations = True

            def detect_batch(self, graph, coords, evaluations):
                detected.append((coords.copy(), evaluations.copy()))
                p = np.zeros(coords.shape[:-1])
                p[:, corner] = 1.0
                return p

        config = EngineConfig(lambda_min=Fraction(1, 8), domain=Box.cube((0, 0), 1),
                              boundary_policy="ignore")
        run_basic(g=constant_g, grid=grid2d, graph=graph2d, detector=Probe(),
                  initial=[((0, 0), 1)], config=config,
                  visit_hook=lambda task, sample, p: masks.append(sample.in_domain.copy()))
        assert len(detected) == len(masks) > 1
        for ((coords,), (evals,)), mask in zip(detected, masks):
            np.testing.assert_array_equal(mask, np.all(np.abs(coords) <= 0.5, axis=1))
            assert np.all(np.isinf(evals[~mask])) and np.all(np.isfinite(evals[mask]))
        assert masks[0].all() and not masks[1].all()


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
        assert exact_points(run) == exact_points(plain)
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
            assert exact_points(run) <= exact_points(full)


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
    returns the run and each visit's (center, edge, evaluation bytes,
    coordinate bytes)."""
    visits = []

    def hook(task, sample, p):
        visits.append((task.center, task.edge, sample.evaluations.tobytes(),
                       sample.coords.tobytes()))

    run = runner(g=g, grid=grid, graph=graph, detector=detector, initial=initial,
                 config=config, visit_hook=hook)
    return run, visits


def _assert_same_run(a, b):
    assert exact_points(a) == exact_points(b)
    assert [t.key for t in a.troubled] == [t.key for t in b.troubled]
    assert a.evaluations == b.evaluations
    assert a.cache_hits == b.cache_hits
    assert a.visited_points == b.visited_points
    assert a.generation_sizes == b.generation_sizes
    assert a.grids_visited == b.grids_visited


class TestPlacement:
    def test_sample_coords_are_the_placed_grids_coords(self, grid2d, graph2d):
        # a box whose center and edge are not dyadic, so that two placement
        # formulas can round differently
        from sgdetect.evaluation import builtin_test_functions

        target = builtin_test_functions()["circle"]
        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE)
        initial = [((Fraction(1, 3), Fraction(-1, 3)), Fraction(3, 4))]
        same = []

        def hook(task, sample, p):
            same.append(sample.coords.tobytes() == sample.grid.coords().tobytes())

        run_batched(g=target.fn, grid=grid2d, graph=graph2d,
                    detector=ExactOracleDetector(target.cut), initial=initial,
                    config=config, visit_hook=hook)
        assert len(same) == 16 and all(same)

    @pytest.mark.parametrize("runner", [run_basic, run_batched])
    def test_exact_boxes_and_placed_grids_only_for_a_hook(self, grid2d, graph2d,
                                                          monkeypatch, runner):
        # without a hook a run builds no Fraction task and no placed grid;
        # with one it builds one of each per visited grid
        from sgdetect.evaluation import builtin_test_functions

        made = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                made[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine, "similar_grid", counted("similar_grid", engine.similar_grid))
        monkeypatch.setattr(engine, "BoxTask", counted("BoxTask", engine.BoxTask))
        target = builtin_test_functions()["circle"]
        config = EngineConfig(lambda_min=Fraction(1, 32), domain=target.domain)
        initial = [(target.domain.center, target.domain.edge)]
        plain = runner(g=target.fn, grid=grid2d, graph=graph2d,
                       detector=ExactOracleDetector(target.cut), initial=initial, config=config)
        assert made == Counter()
        hooked = runner(g=target.fn, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(target.cut), initial=initial,
                        config=config, visit_hook=lambda task, sample, p: None)
        assert made == {"similar_grid": hooked.grids_visited, "BoxTask": hooked.grids_visited}
        assert plain.troubled and _outcome(plain)[0] == _outcome(hooked)[0]
        assert plain.generation_sizes == hooked.generation_sizes


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
        # each grid's float coordinates are the broadcast formula's, to the bit
        m = grid.resolution
        offsets = (grid.lattice - m / 2.0) / m
        for center, edge, _, coords in visits_b:
            expected = np.array([float(c) for c in center]) + offsets * float(edge)
            assert coords == expected.tobytes()

    @pytest.mark.parametrize("trained", [True, False], ids=["fixture", "untrained-mlp"])
    @pytest.mark.parametrize("fixture,target,lambda_min", [
        ("ginn2d.json", "builtin:circle", Fraction(1, 32)),
        ("ginn2d.json", "builtin:bows", Fraction(1, 32)),
        ("ginn2d.json", "phantom:256", Fraction(1)),
        ("ginn4d.json", "builtin:torus4d", Fraction(1, 4)),
    ])
    def test_neural_detector(self, fixture, target, lambda_min, trained):
        # the NN sees its grids in chunks of 1 (basic) or a generation
        # (batched); its troubled list must not depend on the chunking
        model = load_model(FIXTURES / fixture)
        spec = GridSpec.from_key(model.grid_key)
        graph = build_grid_graph(build_sparse_grid(spec, Box.cube((0,) * spec.dim, 2)))
        if not trained:
            model = build_archetype(ModelConfig(kind="mlp"), graph, seed=5)
        g, _, domain, _ = resolve_target(target)
        config = EngineConfig(lambda_min=lambda_min, domain=domain)
        runs = [runner(g=g, grid=graph.grid, graph=graph, detector=NeuralDetector(model),
                       initial=[(domain.center, domain.edge)], config=config)
                for runner in (run_basic, run_batched)]
        a, b = ([(t.key, t.lam, t.boundary_stopped) for t in run.troubled] for run in runs)
        assert a and a == b

    def test_single_task_batch_of_one(self, grid2d, graph2d):
        cut = SphericalCut((0.2, 0.1), 0.65)
        config = EngineConfig(lambda_min=Fraction(1, 2), domain=SQUARE)
        a = run_basic(g=constant_g, grid=grid2d, graph=graph2d,
                      detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                      config=config)
        b = run_batched(g=constant_g, grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                        config=config)
        assert exact_points(a) == exact_points(b)
        assert sum(a.generation_sizes) == a.grids_visited
        assert sum(b.generation_sizes) == b.grids_visited


class TestProgressLog:
    @pytest.mark.parametrize("runner", [run_basic, run_batched])
    def test_one_debug_record_per_chunk(self, grid2d, graph2d, caplog, runner):
        config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
        with caplog.at_level(logging.DEBUG, logger="sgdetect.engine"):
            run = runner(g=constant_g, grid=grid2d, graph=graph2d,
                         detector=EvalOracle(SphericalCut((0.2, 0.1), 0.65)),
                         initial=[((0, 0), 2)], config=config)
        records = [r for r in caplog.records if r.name == "sgdetect.engine"]
        assert len(records) == run.detector_calls > 1
        assert all(r.levelno == logging.DEBUG for r in records)
        depths, grids, evaluations, nans, hits, troubled = zip(*(r.args for r in records))
        assert sum(grids) == run.grids_visited
        assert (evaluations[-1], nans[-1], hits[-1], troubled[-1]) == (
            run.evaluations, run.nan_evaluations, run.cache_hits, len(run.troubled))
        assert list(evaluations) == sorted(evaluations) and list(troubled) == sorted(troubled)
        if runner is run_batched:
            assert list(grids) == run.generation_sizes
            assert list(depths) == list(range(len(run.generation_sizes)))
        assert records[0].getMessage().startswith("chunk at depth 0: 1 grids; ")


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
        lattice = grid2d.lattice.tolist()
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
        assert exact_points(capped) <= exact_points(full)
        assert capped.evaluations < budget + grid2d.n_points
        assert capped.truncated == (capped.grids_visited < full.grids_visited)


def _outcome(run):
    """Everything a run reports that must not depend on its keys or chunking."""
    return ([(t.key, [x.hex() for x in t.coords], t.lam, t.boundary_stopped)
             for t in run.troubled],
            run.visited_points, run.evaluations, run.cache_hits, run.nan_evaluations,
            run.generation_sizes, run.grids_visited, run.truncated)


class TestKeysAndChunks:
    @pytest.mark.parametrize("case", ["exact", "hooked", "ginn2d"])
    def test_bytes_keys_match_packed_keys(self, grid2d, graph2d, monkeypatch, case):
        # the same run with one int64 per point and with each point's 8n bytes
        from sgdetect.evaluation import builtin_test_functions

        target = builtin_test_functions()["circle"]
        grid, graph, detector = grid2d, graph2d, ExactOracleDetector(target.cut)
        hook = (lambda task, sample, p: None) if case == "hooked" else None
        if case == "ginn2d":
            detector = NeuralDetector(load_model(FIXTURES / "ginn2d.json"))
        config = EngineConfig(lambda_min=Fraction(1, 64), domain=target.domain)
        initial = [(target.domain.center, target.domain.edge)]

        def run():
            key_dtype = _EngineState(grid, graph, detector, target.fn, config, initial,
                                     evaluates=False).key_dtype
            return key_dtype, run_batched(g=target.fn, grid=grid, graph=graph,
                                          detector=detector, initial=initial,
                                          config=config, visit_hook=hook)

        packed_dtype, packed = run()
        monkeypatch.setattr(engine, "_KEY_BITS", 0)
        bytes_dtype, wide = run()
        assert packed_dtype == np.int64 and bytes_dtype == np.dtype((np.void, 16))
        assert packed.troubled and (packed.evaluations > 0) == (case != "exact")
        assert _outcome(packed) == _outcome(wide)

    def test_chunk_cap(self, grid2d, graph2d, monkeypatch):
        # a cap of three grids per chunk splits every generation past the first
        cut = SphericalCut((0.2, 0.1), 0.65)
        sizes = []

        class Sizes(EvalOracle):
            def detect_batch(self, graph, coords, evaluations):
                sizes.append(len(coords))
                return super().detect_batch(graph, coords, evaluations)

        config = EngineConfig(lambda_min=Fraction(1, 64), domain=SQUARE)

        def run():
            sizes.clear()
            return run_batched(g=lambda x: np.where(cut(x) >= 0, 2.0, -1.0), grid=grid2d,
                               graph=graph2d, detector=Sizes(cut), initial=[((0, 0), 2)],
                               config=config), list(sizes)

        full, full_sizes = run()
        monkeypatch.setattr(engine, "SAMPLE_BUDGET", 3 * grid2d.n_points + 1)
        capped, capped_sizes = run()
        assert max(full_sizes) > 3 and max(capped_sizes) == 3
        assert capped.detector_calls == len(capped_sizes) > full.detector_calls
        assert _outcome(capped) == _outcome(full)

    @pytest.mark.parametrize("key_bits", [engine._KEY_BITS, 0])
    @pytest.mark.parametrize("case", ["exact", "zlevel", "hooked"])
    def test_folds_in_mid_run_change_nothing(self, grid2d, graph2d, monkeypatch, case,
                                             key_bits):
        # a tiny SAMPLE_BUDGET folds the parked keys every few chunks instead
        # of only when the run reads its sets
        from sgdetect.evaluation import builtin_test_functions

        monkeypatch.setattr(engine, "_KEY_BITS", key_bits)
        target = builtin_test_functions()["circle"]
        detector = (ZLevelDetector(target.cut, 9) if case == "zlevel"
                    else ExactOracleDetector(target.cut))
        hook = (lambda task, sample, p: None) if case == "hooked" else None
        config = EngineConfig(lambda_min=Fraction(1, 64), domain=target.domain)
        folds = []
        unparked = engine._SortedKeys._unparked

        def counted(store):
            folds.append(store.n_parked)
            return unparked(store)

        def run():
            folds.clear()
            return run_batched(g=target.fn, grid=grid2d, graph=graph2d, detector=detector,
                               initial=[(target.domain.center, target.domain.edge)],
                               config=config, visit_hook=hook), len(folds)

        monkeypatch.setattr(engine._SortedKeys, "_unparked", counted)
        whole, whole_folds = run()
        monkeypatch.setattr(engine, "SAMPLE_BUDGET", 50)
        folded, mid_run_folds = run()
        # reading the sets in result() folds each of them at most once
        assert whole_folds <= 2 < mid_run_folds
        assert whole.troubled and (whole.evaluations > 0) == (case == "hooked")
        for a, b in zip(whole._columns, folded._columns):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (whole.visited_points, whole.generation_sizes) == (
            folded.visited_points, folded.generation_sizes)
        assert _outcome(whole) == _outcome(folded)

    def test_nan_from_g_is_counted(self, grid2d, graph2d):
        # g is NaN on the half-plane x < 0; the oracle reads the cut, not g
        cut = SphericalCut((0.2, 0.1), 0.65)
        left = []

        def g(x):
            left.append(int(np.count_nonzero(x[:, 0] < 0)))
            return np.where(x[:, 0] < 0, np.nan, 1.0)

        config = EngineConfig(lambda_min=Fraction(1, 32), domain=SQUARE)
        runs = [run_batched(g=fn, grid=grid2d, graph=graph2d, detector=EvalOracle(cut),
                            initial=[((0, 0), 2)], config=config)
                for fn in (g, constant_g)]
        assert runs[0].nan_evaluations == sum(left) > 0
        assert runs[1].nan_evaluations == 0
        assert _outcome(runs[0])[0] == _outcome(runs[1])[0]


class TestSortedKeys:
    @staticmethod
    def _contents(store):
        values = store.values()  # folds first
        keys = np.concatenate([store.main[0], store.recent[0]])
        return dict(zip(keys.tolist(), values.tolist()))

    @pytest.mark.parametrize("dtype", [np.dtype(np.int64), np.dtype((np.void, 16))])
    def test_unsorted_repeated_and_present_keys(self, dtype, monkeypatch):
        monkeypatch.setattr(engine, "SAMPLE_BUDGET", 8)
        rng = np.random.default_rng(5)
        store = engine._SortedKeys(dtype, None)
        seen = set()
        for size in (0, 3, 40, 1, 200, 17):
            raw = rng.integers(0, 60, size=(size, 2))
            keys = (raw[:, 0] * 64 + raw[:, 1] if dtype == np.int64
                    else np.ascontiguousarray(raw).view(dtype).ravel())
            store.add(keys)
            seen |= set(keys.tolist())
            assert store.n_parked <= max(8, (len(store.main[0]) + len(store.recent[0])) // 8)
            found, values, _ = store.find(keys)
            assert found.all() and values is None
            assert len(store) == len(seen)
            assert store.n_parked == 0
        for level in (store.main[0], store.recent[0]):
            assert np.all(level[1:] > level[:-1]) if dtype == np.int64 else len(
                set(level.tolist())) == len(level)
        absent = (np.array([-1, 64 * 60]) if dtype == np.int64
                  else np.array([[-1, 0], [0, 60]]).view(dtype).ravel())
        assert not store.find(absent)[0].any()

    def test_first_value_added_wins(self):
        store = engine._SortedKeys(np.dtype(np.int64), np.int64)
        store.add(np.array([5, 3, 5]), np.array([1, 2, 3]))
        store.add(np.array([3, 7]), np.array([9, 4]))
        assert self._contents(store) == {3: 2, 5: 1, 7: 4}
        # once folded, a key added again keeps its value too
        store.add(np.array([7, 1, 5]), np.array([8, 6, 8]))
        found, values, _ = store.find(np.array([1, 2, 5, 7]))
        assert found.tolist() == [True, False, True, True]
        assert values[found].tolist() == [6, 1, 4]
        assert self._contents(store) == {1: 6, 3: 2, 5: 1, 7: 4}

    def test_valued_store_against_a_dict(self, monkeypatch):
        monkeypatch.setattr(engine, "SAMPLE_BUDGET", 16)
        rng = np.random.default_rng(11)
        store = engine._SortedKeys(np.dtype(np.int64), np.float64)
        reference = {}
        for _ in range(60):
            keys = rng.integers(0, 500, size=int(rng.integers(0, 40)))
            values = rng.normal(size=len(keys))
            store.add(keys, values)
            for k, v in zip(keys.tolist(), values.tolist()):
                reference.setdefault(k, v)
        assert len(store) == len(reference)
        assert self._contents(store) == reference


    def test_one_search_per_level_and_insert(self, monkeypatch):
        # the recent level is searched once per insert: find's positions
        # there feed the merge, which searches only when the recent level
        # moves into the main one
        store = engine._SortedKeys(np.dtype(np.int64), np.int64)
        store.add(np.arange(0, 400, 2), np.arange(200))
        assert len(store) == len(store.main[0]) == 200
        store.add(np.array([7, 3, 401, 3]), np.array([1, 2, 3, 4]))
        assert len(store) == 203 and len(store.recent[0]) == 3
        searches = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *a, **k: searches.append(1) or search(*a, **k))
        store.add(np.array([9, 3, 5]), np.array([5, 6, 7]))
        found, values, at = store.find(np.array([3, 5, 9, 11]))
        assert len(searches) == 4  # the fold's find and this find, two levels each
        assert found.tolist() == [True, True, True, False]
        assert values[found].tolist() == [2, 7, 5]
        assert at.tolist() == np.searchsorted(store.recent[0], [3, 5, 9, 11]).tolist()
        assert self._contents(store) == {**dict(zip(range(0, 400, 2), range(200))),
                                         7: 1, 3: 2, 401: 3, 9: 5, 5: 7}

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
        assert exact_points(both) == exact_points(first) | exact_points(second)
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
    def test_exact_points_match_fraction_formula(self, grid2d, graph2d, initial, domain,
                                                 monkeypatch):
        # bytes keys, so that numerators far outside the run's reach are keys too
        monkeypatch.setattr(engine, "_KEY_BITS", 0)
        config = EngineConfig(lambda_min=Fraction(1, 8), domain=domain)
        state = _EngineState(grid2d, graph2d, ExactOracleDetector(SphericalCut((0, 0), 1)),
                             constant_g, config, initial, evaluates=False)
        rng = np.random.default_rng(7)
        # one chunk below 2^53 (float64 division), one above (Python division),
        # and one of repeats, some of them recorded by the earlier chunks
        chunks = [rng.integers(-2 ** 40, 2 ** 40, size=(2000, 2)),
                  rng.integers(-2 ** 60, 2 ** 60, size=(200, 2)),
                  rng.integers(-3, 4, size=(50, 2))]
        chunks[2][:5] = chunks[0][:5]
        for keys in chunks:
            state.record(keys, np.full(len(keys), 3), np.zeros(len(keys), dtype=bool))
        run = state.result()
        first_seen = list(dict.fromkeys(map(tuple, np.concatenate(chunks).tolist())))
        assert [point.key for point in run.troubled] == first_seen
        for point in run.troubled:
            exact = tuple(o + k * state.unit for o, k in zip(state.origin, point.key))
            assert state.lattice.point(point.key) == exact
            assert point.exact == exact
            assert [x.hex() for x in point.coords] == [float(x).hex() for x in exact]
            assert point.trigger_lambda == 3 * state.unit
        assert run.troubled_coords().tobytes() == np.array(
            [point.coords for point in run.troubled]).tobytes()

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

    def test_csv_rows_are_the_troubled_points(self, grid2d, graph2d, tmp_path):
        # the 512-pixel phantom's box: a non-dyadic lattice, so that each
        # trigger length is a rounded division
        domain = Box.cube((Fraction(511, 2),) * 2, 511)
        config = EngineConfig(lambda_min=Fraction(4), domain=domain)
        run = run_batched(g=constant_g, grid=grid2d, graph=graph2d,
                          detector=ExactOracleDetector(SphericalCut((200.0, 300.0), 120.0)),
                          initial=[(domain.center, domain.edge)], config=config)
        write_troubled_csv(run, tmp_path / "t.csv")
        with open(tmp_path / "t.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["x0", "x1", "lambda", "boundary_stopped"]
        assert run.troubled and rows == [
            [repr(x) for x in t.coords] + [repr(float(t.trigger_lambda)),
                                           str(int(t.boundary_stopped))]
            for t in run.troubled]
        assert any(t.trigger_lambda.denominator > 1 for t in run.troubled)

    def test_csv_of_a_run_without_troubled_points(self, grid4d, graph4d, tmp_path):
        # the header still names every coordinate
        config = EngineConfig(lambda_min=Fraction(1, 2), domain=Box.cube((0,) * 4, 2))
        run = run_batched(g=constant_g, grid=grid4d, graph=graph4d,
                          detector=ExactOracleDetector(SphericalCut((50.0,) * 4, 0.5)),
                          initial=[((0,) * 4, 2)], config=config)
        write_troubled_csv(run, tmp_path / "t.csv")
        assert not run.troubled
        assert (tmp_path / "t.csv").read_bytes() == b"x0,x1,x2,x3,lambda,boundary_stopped\r\n"
