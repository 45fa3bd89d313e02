"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The desk-scale training fixtures (criteria 9-11)
are shared and dominate the runtime (several minutes on a laptop CPU).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sgdetect import synth_data
from sgdetect.detectors import (
    ExactOracleDetector,
    LinearCut,
    NeuralDetector,
    SphericalCut,
    ZLevelDetector,
    exact_troubled_oracle,
    z_detector,
)
from sgdetect.engine import EngineConfig, run_basic, run_batched
from sgdetect.evaluation import ImageFunction, builtin_test_functions, shepp_logan, tpr
from sgdetect.grid_graph import build_grid_graph
from sgdetect.neural.layers import BatchNorm, DenseLayer, GILayer
from sgdetect.neural.model import ModelConfig, build_archetype, count_parameters
from sgdetect.neural.training import TrainConfig, evaluate_metrics, train, weighted_bce
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid, similar_grid

SQUARE = Box.cube((0, 0), 2)
LAMBDA_MIN_2D = Fraction(1, 32)  # 2^-5


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def theorem_cuts(n_each=20):
    """The 40 random cuts shared by criteria 4 and 5: 20 lines, 20 circles."""
    rng = np.random.default_rng(20240)
    cuts = []
    for _ in range(n_each):
        w = rng.normal(size=2)
        while not np.any(w):
            w = rng.normal(size=2)
        cuts.append(LinearCut(w, float(rng.uniform(-1, 1))))
    for _ in range(n_each):
        # centers and radii keeping the interface inside the domain
        cuts.append(SphericalCut(rng.uniform(-0.5, 0.5, size=2),
                                 float(rng.uniform(0.25, 0.8))))
    return cuts


def test_criterion_1_grid_cardinalities():
    start = time.perf_counter()
    g2 = build_sparse_grid(GridSpec(dim=2, rule="sum", level=6), SQUARE)
    g4 = build_sparse_grid(GridSpec(dim=4, rule="sum", level=8), Box.cube((0,) * 4, 2))
    elapsed = time.perf_counter() - start
    ok = g2.n_points == 65 and g4.n_points == 401 and elapsed < 1.0
    report(1, ok, f"N2={g2.n_points}, N4={g4.n_points}, {elapsed:.3f}s")


def test_criterion_2_adjacency_invariance(grid2d, graph2d):
    start = time.perf_counter()
    reference = graph2d.adjacency_matrix().toarray()
    rng = np.random.default_rng(99)
    for _ in range(100):
        center = tuple(Fraction(int(n), 64) for n in rng.integers(-256, 256, size=2))
        edge = Fraction(int(rng.integers(1, 2000)), 512)
        placed = similar_grid(grid2d, center, edge)
        a = build_grid_graph(placed).adjacency_matrix().toarray()
        if not np.array_equal(a, reference):
            report(2, False, f"adjacency differs for center={center}, edge={edge}")
    elapsed = time.perf_counter() - start
    report(2, elapsed < 10.0, f"100 placements entrywise identical, {elapsed:.2f}s")


def test_criterion_3_hypercubic_weight_formula(graph2d, graph4d):
    for graph in (graph2d, graph4d):
        grid = graph.grid
        h_max = grid.spec.h_max
        m = grid.resolution
        if m != 2 ** (h_max - 1):
            report(3, False, f"resolution {m} != 2^(h_max-1)")
        if graph.shortest_segment != grid.box.edge / m:
            report(3, False, "ell != edge/M")
        for span, weight in zip(graph.edges[:, 3].tolist(), graph.weights.tolist()):
            depth = (m // span).bit_length() - 1
            if weight != 2.0 ** (depth - (h_max - 1)):
                report(3, False, f"weight {weight} != 2^(d-(h_max-1)) for d={depth}")
    report(3, True, "omega = 2^(d-(h_max-1)) and ell = edge/M on 2D and 4D graphs")


def test_criterion_4_theorem_1_convergence(grid2d, graph2d):
    start = time.perf_counter()
    bound = math.ceil(math.log2(2 / LAMBDA_MIN_2D)) + 1
    config = EngineConfig(lambda_min=LAMBDA_MIN_2D, domain=SQUARE,
                          boundary_policy="ignore")
    checked = 0
    for cut in theorem_cuts():
        run = run_basic(g=lambda x: np.ones(len(x)), grid=grid2d, graph=graph2d,
                        detector=ExactOracleDetector(cut), initial=[((0, 0), 2)],
                        config=config)
        if len(run.generation_sizes) > bound:
            report(4, False, f"{len(run.generation_sizes)} generations > bound {bound}")
        if run.troubled:
            dists = cut.distance(run.troubled_coords())
            checked += len(run.troubled)
            if float(np.max(dists)) >= float(LAMBDA_MIN_2D) / 2:
                report(4, False, f"distance {np.max(dists)} >= lambda_min/2")
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and checked > 0
    report(4, ok, f"{checked} troubled points within lambda_min/2, "
                  f"<= {bound} generations, {elapsed:.1f}s")


def test_criterion_5_z_detector_matches_oracle(grid2d, graph2d):
    start = time.perf_counter()
    for i, cut in enumerate(theorem_cuts()):
        p_oracle = exact_troubled_oracle(cut, graph2d)
        p_z = z_detector(cut, graph2d, 10_000)
        if not np.array_equal(p_oracle, p_z):
            report(5, False, f"mismatch on cut {i}")
    report(5, True, f"Z^(10001) == exact oracle on 40 cuts, "
                    f"{time.perf_counter() - start:.1f}s")


def test_criterion_6_basic_batched_equivalence(grid2d, graph2d):
    start = time.perf_counter()
    config = EngineConfig(lambda_min=Fraction(1, 16), domain=SQUARE)
    for seed in range(10):
        kind = synth_data.CUT_KINDS[seed % 3]
        fn = synth_data.sample_piecewise_function(kind, 2, np.random.default_rng(seed))
        det = ZLevelDetector(fn.cut, 149)
        a = run_basic(g=fn, grid=grid2d, graph=graph2d, detector=det,
                      initial=[((0, 0), 2)], config=config)
        b = run_batched(g=fn, grid=grid2d, graph=graph2d, detector=det,
                        initial=[((0, 0), 2)], config=config)
        if {t.exact for t in a.troubled} != {t.exact for t in b.troubled}:
            report(6, False, f"troubled sets differ for function {seed}")
        if (a.visited_points, a.grids_visited) != (b.visited_points, b.grids_visited):
            report(6, False, f"visit counts differ for function {seed}")
    report(6, True, f"identical troubled sets and visit counts on 10 functions "
                    f"with Z^(150), {time.perf_counter() - start:.1f}s")


def test_criterion_7_gradient_checks(tiny_graph):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n = tiny_graph.n_points
    a_hat = tiny_graph.adjacency_matrix().toarray() + np.eye(n)
    worst = 0.0

    def fd_check(loss_fn, params, grads, probes=3):
        # relative error with a 1e-3 denominator floor: central differences
        # on losses of order 10 carry ~1e-9 absolute roundoff, so demanding
        # 1e-5 relative agreement below that scale would measure noise, not
        # gradients; absolute deviations >= 1e-8 still register as failures
        nonlocal worst
        for arr, gar in zip(params, grads):
            for idx in rng.choice(arr.size, size=min(probes, arr.size), replace=False):
                old = arr.flat[idx]
                h = 1e-6
                arr.flat[idx] = old + h
                up = loss_fn()
                arr.flat[idx] = old - h
                down = loss_fn()
                arr.flat[idx] = old
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(gar.flat[idx]), 1e-3)
                worst = max(worst, abs(fd - gar.flat[idx]) / denom)

    instances = 0
    # 15 GI-layer, 10 dense, 10 batch-norm instances
    for _ in range(15):
        layer = GILayer(a_hat, k=int(rng.integers(1, 4)), f=int(rng.integers(1, 4)), rng=rng)
        x = rng.normal(size=(3, n, layer.k))
        probe = rng.normal(size=(3, n, layer.f))
        out = layer.forward(x)
        layer.backward(probe * out)
        fd_check(lambda: 0.5 * float(np.sum(probe * layer.forward(x) ** 2)),
                 layer.params(), layer.grads())
        instances += 1
    for _ in range(10):
        layer = DenseLayer(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
        x = rng.normal(size=(4, layer.w.shape[0]))
        probe = rng.normal(size=(4, layer.w.shape[1]))
        out = layer.forward(x)
        layer.backward(probe * out)
        fd_check(lambda: 0.5 * float(np.sum(probe * layer.forward(x) ** 2)),
                 layer.params(), layer.grads())
        instances += 1
    for _ in range(10):
        feats = int(rng.integers(2, 6))
        bn = BatchNorm(feats)
        bn.gamma[...] = rng.normal(size=feats)
        bn.beta[...] = rng.normal(size=feats)
        x = rng.normal(size=(6, feats))
        probe = rng.normal(size=(6, feats))
        out = bn.forward(x)
        bn.backward(probe * out)
        fd_check(lambda: 0.5 * float(np.sum(probe * bn.forward(x) ** 2)),
                 bn.params(), bn.grads())
        instances += 1
    # 5 loss instances
    for _ in range(5):
        p_hat = rng.uniform(0.05, 0.95, size=(4, 6))
        labels = (rng.random((4, 6)) < 0.4).astype(float)
        _, grad = weighted_bce(p_hat, labels, 0.5, 1.5, with_grad=True)
        fd_check(lambda: weighted_bce(p_hat, labels, 0.5, 1.5), [p_hat], [grad])
        instances += 1
    # 10 full archetypes (residual sum, sigmoid, pooling paths included)
    for i in range(10):
        kind = "ginn" if i % 2 == 0 else "mlp"
        model = build_archetype(ModelConfig(kind=kind, features=2), tiny_graph, seed=i)
        x = rng.normal(size=(3, n))
        labels = (rng.random((3, n)) < 0.3).astype(float)

        def model_loss():
            return weighted_bce(model.forward(x), labels, 0.5, 1.5)

        p_hat = model.forward(x)
        _, dp = weighted_bce(p_hat, labels, 0.5, 1.5, with_grad=True)
        model.backward(dp)
        fd_check(model_loss, model.parameters(), model.gradients(), probes=2)
        instances += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and instances == 50 and elapsed < 60.0
    report(7, ok, f"{instances} instances, max relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_parameter_counts(graph2d, graph4d):
    mlp2 = count_parameters(build_archetype(ModelConfig(kind="mlp"), graph2d, seed=0))
    ginn2 = count_parameters(build_archetype(ModelConfig(kind="ginn", features=15),
                                             graph2d, seed=0))
    ginn4 = count_parameters(build_archetype(ModelConfig(kind="ginn", features=15),
                                             graph4d, seed=0))
    ok = (mlp2, ginn2, ginn4) == (52_910, 173_880, 1_263_540)
    report(8, ok, f"mlp2d={mlp2}, ginn2d={ginn2}, ginn4d={ginn4} under the "
                  "trainable-including-batchnorm-scale/shift convention")


# ---------------------------------------------------------------------------
# desk-scale training (shared by criteria 9-11)

DESK_EPOCH_CAP = 60  # early stopping and the plateau schedule stay active
# within this cap; all three seeds converge well before it


@pytest.fixture(scope="module")
def desk_split(grid2d, graph2d):
    fns = synth_data.sample_functions(60, 2, 0)
    samples, _ = synth_data.generate_dataset(grid2d, graph2d, 49, fns,
                                             LAMBDA_MIN_2D, tau=0.5)
    balanced = synth_data.balance_dataset(samples, np.random.default_rng(1))
    return synth_data.split_dataset(balanced, np.random.default_rng(2))


@pytest.fixture(scope="module")
def desk_models(graph2d, desk_split):
    results = {}
    start = time.perf_counter()
    for seed in (0, 1, 2):
        per_seed = {}
        for kind in ("ginn", "mlp"):
            model = build_archetype(ModelConfig(kind=kind, features=15),
                                    graph2d, seed=seed)
            train(model, desk_split, TrainConfig(max_epochs=DESK_EPOCH_CAP, seed=seed))
            per_seed[kind] = (model, evaluate_metrics(model, desk_split.test))
        results[seed] = per_seed
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_9_desk_scale_training(desk_models):
    good_seeds = 0
    details = []
    for seed in (0, 1, 2):
        ginn_metrics = desk_models[seed]["ginn"][1]
        mlp_metrics = desk_models[seed]["mlp"][1]
        good = (ginn_metrics["mae"] <= 0.10
                and ginn_metrics["loss"] <= mlp_metrics["loss"])
        good_seeds += good
        details.append(f"seed{seed}: ginn mae={ginn_metrics['mae']:.4f} "
                       f"loss={ginn_metrics['loss']:.2f} vs mlp {mlp_metrics['loss']:.2f}")
    elapsed = desk_models["elapsed"]
    report(9, good_seeds >= 2,
           f"{good_seeds}/3 seeds good; {'; '.join(details)}; {elapsed:.0f}s "
           f"(target < 30 min)")


def best_ginn(desk_models):
    seed = min((0, 1, 2), key=lambda s: desk_models[s]["ginn"][1]["loss"])
    return desk_models[seed]["ginn"][0]


def test_criterion_10_end_to_end_2d_detection(desk_models, grid2d, graph2d):
    tf = builtin_test_functions()["circle"]
    config = EngineConfig(lambda_min=LAMBDA_MIN_2D, tau=0.5, domain=tf.domain,
                          boundary_policy="clip-stop")
    model = best_ginn(desk_models)
    run_nn = run_batched(g=tf, grid=grid2d, graph=graph2d,
                         detector=NeuralDetector(model),
                         initial=[(tf.domain.center, tf.domain.edge)], config=config)
    rep_nn = tpr(run_nn.troubled_coords(), tf.cut, LAMBDA_MIN_2D, graph2d)
    run_oracle = run_batched(g=tf, grid=grid2d, graph=graph2d,
                             detector=ExactOracleDetector(tf.cut),
                             initial=[(tf.domain.center, tf.domain.edge)], config=config)
    rep_oracle = tpr(run_oracle.troubled_coords(), tf.cut, LAMBDA_MIN_2D, graph2d)
    ok = (rep_nn.tpr is not None and rep_nn.tpr >= 0.95 and rep_oracle.tpr == 1.0)
    report(10, ok, f"GINN TPR={rep_nn.tpr} ({rep_nn.true_count}/{rep_nn.troubled_count}), "
                   f"oracle TPR={rep_oracle.tpr}")


def test_criterion_11_phantom_resolution_insensitivity(desk_models, grid2d, graph2d):
    model = best_ginn(desk_models)
    detector = NeuralDetector(model)
    visited = {}
    for r in (512, 1024):
        img = ImageFunction(shepp_logan(r))
        domain = img.domain()
        config = EngineConfig(lambda_min=domain.edge / 2**9, tau=0.5, domain=domain,
                              boundary_policy="clip-stop")
        run = run_batched(g=img, grid=grid2d, graph=graph2d, detector=detector,
                          initial=[(domain.center, domain.edge)], config=config)
        visited[r] = run.visited_points
    rel = abs(visited[512] - visited[1024]) / visited[512]
    report(11, rel < 0.05,
           f"visited {visited[512]} at 512 vs {visited[1024]} at 1024, "
           f"relative difference {rel:.4f}")


def test_criterion_12_preprocessing_properties():
    rng = np.random.default_rng(12)
    one_ulp = np.spacing(1.0)  # outputs live in [-1, 1]
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=(100, 30)) * 10 ** rng.uniform(-3, 3)
        out = synth_data.preprocess_gamma_batch(g)
        if not np.all(np.abs(out) <= 1.0):
            report(12, False, "gamma output escaped [-1, 1]")
        c = float(10 ** rng.uniform(-6, 6))
        diff = np.abs(synth_data.preprocess_gamma_batch(c * g) - out)
        worst = max(worst, float(diff.max()))
    zeros_ok = np.all(synth_data.preprocess_gamma_batch(np.zeros((1, 17))) == 0.0)
    ok = zeros_ok and worst <= one_ulp
    report(12, ok, f"range ok, gamma(0)=0, scale-invariance within {worst:.2e} "
                   f"<= one ulp of the unit range ({one_ulp:.2e}) on 10^4 vectors")
