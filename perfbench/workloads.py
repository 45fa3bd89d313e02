"""Benchmark workloads: inputs from the seed, the timed pipeline stages, checks.

Each workload is the paper's whole pipeline in one dimension, run as a
closed loop (a stage starts only after the previous one returns):

1. dataset: ``generate_dataset`` (engine + Z-detector labels), then
   ``balance_dataset``, ``split_dataset`` and a ``save_dataset`` /
   ``load_dataset`` round trip;
2. GINN and MLP training for a fixed number of epochs;
3. deterministic detection (``run_batched`` with the exact or Z-level
   detector) on the paper's fixed test functions;
4. TPR scoring of every troubled point of step 3;
5. NN detection with a committed fixture GINN.

The package is driven only through its public functions, always looked up
on their modules (``engine.run_batched``, ``training.train``) so that the
tracer's patches and the self-test's fault injection take effect.

Inputs from the seed: the training functions keep fixed cuts (from
``CUT_SEED``) and take their two Legendre pieces from variant
``seed % VARIANTS``.  The cuts alone decide which grids the engine visits and
what the labels are, so every seed does the same amount of work while the
dataset bytes and the trained weights differ.  ``refs.json`` holds the
expected output of every variant.
"""

from __future__ import annotations

import hashlib
import tempfile
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from sgdetect import engine, evaluation, grid_graph, sparse_grid, synth_data
from sgdetect.detectors import NeuralDetector, make_detector
from sgdetect.neural import model as nn_model
from sgdetect.neural import training

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

VARIANTS = 16
CUT_SEED = 2401_13652
TAU = 0.5


@dataclass(frozen=True)
class Workload:
    dim: int
    level: int
    # dataset + training
    functions: int
    detector_t: int
    learn_lambda: Fraction
    ginn_epochs: int
    mlp_epochs: int
    # deterministic detection + TPR: (builtin target, detector spec)
    detect_targets: tuple
    detect_lambda: Fraction
    tpr_subdivisions: int
    # NN detection: fixture file, its grid level, (target, lambda_min) pairs
    nn_fixture: str
    nn_level: int
    nn_targets: tuple


# Why each workload exists is in BENCHMARK.json and README.md.  The sizes keep
# one iteration near 4 s, so that a 45-second run has about ten samples.
WORKLOADS = {
    "pipeline2d": Workload(
        dim=2, level=6,
        functions=4, detector_t=49, learn_lambda=Fraction(1, 32),
        ginn_epochs=2, mlp_epochs=10,
        detect_targets=(("circle", "exact"), ("poly", "zlevel:9"),
                        ("sine", "zlevel:9"), ("bows", "zlevel:9")),
        detect_lambda=Fraction(1, 32), tpr_subdivisions=200,
        nn_fixture="ginn2d.json", nn_level=6,
        nn_targets=(("circle", Fraction(1, 32)), ("poly", Fraction(1, 32)),
                    ("sine", Fraction(1, 32)), ("bows", Fraction(1, 32)),
                    ("phantom:512", Fraction(1))),
    ),
    "pipeline4d": Workload(
        dim=4, level=8,
        functions=3, detector_t=2, learn_lambda=Fraction(1),
        ginn_epochs=2, mlp_epochs=5,
        detect_targets=(("torus4d", "zlevel:9"),),
        detect_lambda=Fraction(1, 2), tpr_subdivisions=200,
        nn_fixture="ginn4d.json", nn_level=6,
        nn_targets=(("torus4d", Fraction(1, 4)),),
    ),
}


def reduced(w: Workload) -> Workload:
    """The same workload at a size the self-test can afford."""
    return replace(w, functions=3, ginn_epochs=1, mlp_epochs=1,
                   detect_lambda=w.detect_lambda * 4,
                   nn_targets=tuple((t, lam * 4) for t, lam in w.nn_targets))


def get_workload(name: str, profile: str = "full") -> Workload:
    w = WORKLOADS[name]
    return reduced(w) if profile == "small" else w


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Stage operations attempted and failed; a mismatch is a failure, not a crash.

    ``expect`` compares an observation with ``refs`` at a key path, or with
    an explicit expected value.
    """

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, path: tuple, observed, expected=None) -> None:
        if expected is None:
            expected = self.refs
            for key in path:
                expected = expected.get(key, {}) if isinstance(expected, dict) else None
        self.attempted += 1
        if observed != expected:
            self.failed += 1
            self.failures.append(f"{'/'.join(path)}: observed {observed!r}, "
                                 f"expected {expected!r}")

    def crashed(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


class Recorder(Checks):
    """Stores every observation that has no explicit expected value as the reference."""

    def expect(self, path: tuple, observed, expected=None) -> None:
        if expected is not None:
            return super().expect(path, observed, expected)
        node = self.refs
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = observed


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def troubled_digest(run) -> str:
    keys = sorted(",".join(str(x) for x in t.exact) for t in run.troubled)
    return sha256_bytes("\n".join(keys).encode())


def run_observation(run) -> dict:
    return {
        "troubled_sha256": troubled_digest(run),
        "troubled": len(run.troubled),
        "generation_sizes": list(run.generation_sizes),
        "grids_visited": run.grids_visited,
        "truncated": run.truncated,
    }


# ---------------------------------------------------------------------------
# set-up


class NullTracer:
    """Stands in for the tracer in untraced runs: no proxies, no counts."""

    iteration = -1

    def target(self, fn, cut=None):
        return fn

    def cut(self, cut):
        return cut

    def count(self, name, value):
        pass


@dataclass
class Context:
    workload: Workload
    variant: int
    grid: object
    graph: object
    nn_grid: object
    nn_graph: object
    registry: dict
    model: object
    functions: list


def sample_functions(w: Workload, variant: int) -> list:
    """Training functions: fixed cuts, Legendre pieces from the variant."""
    kinds = [synth_data.CUT_KINDS[i % 3] for i in range(w.functions)]
    cut_seeds = np.random.SeedSequence(CUT_SEED).spawn(w.functions)
    piece_seeds = np.random.SeedSequence([CUT_SEED, variant]).spawn(w.functions)
    fns = []
    for kind, cs, ps in zip(kinds, cut_seeds, piece_seeds):
        cut = synth_data.sample_cut(kind, w.dim, np.random.default_rng(cs))
        rng = np.random.default_rng(ps)
        g1 = synth_data.sample_legendre_piece(w.dim, rng)
        g2 = synth_data.sample_legendre_piece(w.dim, rng)
        fns.append(synth_data.PiecewiseFunction(g1=g1, g2=g2, cut=cut))
    return fns


def _reference(dim: int, level: int):
    box = sparse_grid.Box.cube((0,) * dim, 2)
    grid = sparse_grid.build_sparse_grid(sparse_grid.GridSpec(dim=dim, rule="sum",
                                                              level=level), box)
    graph = grid_graph.build_grid_graph(grid)
    graph.diameter()
    return grid, graph


def setup(w: Workload, variant: int) -> Context:
    """Reference grids, graphs and diameters, target registry, fixture load, functions."""
    grid, graph = _reference(w.dim, w.level)
    nn_grid, nn_graph = (grid, graph) if w.nn_level == w.level else _reference(w.dim, w.nn_level)
    registry = evaluation.builtin_test_functions()
    for target, _lam in w.nn_targets:
        if target.startswith("phantom:"):
            registry[target] = evaluation.ImageFunction(
                evaluation.shepp_logan(int(target.split(":", 1)[1])))
    model = nn_model.load_model(FIXTURES / w.nn_fixture)
    return Context(workload=w, variant=variant, grid=grid, graph=graph, nn_grid=nn_grid,
                   nn_graph=nn_graph, registry=registry, model=model,
                   functions=sample_functions(w, variant))


def check_setup(ctx: Context, checks: Checks) -> None:
    w = ctx.workload
    data = (FIXTURES / w.nn_fixture).read_bytes()
    checks.expect(("fixtures", w.nn_fixture), sha256_bytes(data))
    checks.expect(("fixture grid", w.nn_fixture), ctx.model.grid_hash,
                  nn_model.grid_fingerprint(ctx.nn_graph))


# ---------------------------------------------------------------------------
# one iteration


def _target(ctx: Context, name: str):
    """(g, cut, domain) for a registry entry."""
    entry = ctx.registry[name]
    if isinstance(entry, evaluation.ImageFunction):
        return entry, None, entry.domain()
    return entry, entry.cut, entry.domain


def _stage(checks: Checks, what: str, fn):
    try:
        return fn()
    except Exception as exc:  # a crashed stage counts as a failed operation
        traceback.print_exc()
        checks.crashed(what, exc)
        return None


def iteration(ctx: Context, tracer, checks: Checks, workdir: Path) -> dict:
    """One closed-loop pass over every stage; returns the stage timings."""
    w = ctx.workload
    times: dict[str, float] = {}
    t_start = perf_counter()

    split = _stage(checks, "dataset", lambda: dataset_stage(ctx, tracer, checks,
                                                            workdir, times))
    if split is not None:
        for kind, epochs in (("ginn", w.ginn_epochs), ("mlp", w.mlp_epochs)):
            _stage(checks, f"train {kind}",
                   lambda: train_stage(ctx, split, kind, epochs, checks, times))

    runs = _stage(checks, "detect", lambda: detect_stage(ctx, tracer, checks, times))
    if runs is not None:
        _stage(checks, "tpr", lambda: tpr_stage(ctx, runs, checks, times))
    _stage(checks, "nn_detect", lambda: nn_stage(ctx, tracer, checks, times))

    times["wall_s"] = perf_counter() - t_start
    return times


def dataset_stage(ctx, tracer, checks, workdir, times):
    w = ctx.workload
    fns = [tracer.target(fn, tracer.cut(fn.cut)) for fn in ctx.functions]
    t0 = perf_counter()
    samples, stats = synth_data.generate_dataset(ctx.grid, ctx.graph, w.detector_t, fns,
                                                 w.learn_lambda, tau=TAU,
                                                 domain=sparse_grid.Box.cube((0,) * w.dim, 2))
    balanced = synth_data.balance_dataset(samples, np.random.default_rng([ctx.variant, 1]))
    split = synth_data.split_dataset(balanced, np.random.default_rng([ctx.variant, 2]))
    ds = synth_data.Dataset.from_samples(balanced, grid_key=ctx.grid.spec.key(),
                                         detector=f"zlevel:{w.detector_t}",
                                         seed=ctx.variant, meta=stats)
    bin_path, hdr_path = synth_data.save_dataset(ds, workdir / "dataset")
    loaded = synth_data.load_dataset(bin_path)
    times["dataset_s"] = perf_counter() - t0

    data = bin_path.read_bytes()
    tracer.count("synth_data.dataset_bytes", len(data) + hdr_path.stat().st_size)
    observed = {
        "samples": len(samples),
        "balanced": len(balanced),
        "bin_sha256": sha256_bytes(data),
        "round_trip": bool(np.array_equal(loaded.inputs, ds.inputs)
                           and np.array_equal(loaded.labels, ds.labels)),
    }
    checks.expect(("dataset", str(ctx.variant)), observed)
    return split


def train_stage(ctx, split, kind, epochs, checks, times):
    model = nn_model.build_archetype(nn_model.ModelConfig(kind=kind), ctx.graph,
                                     seed=ctx.variant)
    config = training.TrainConfig(max_epochs=epochs, early_stop_patience=epochs + 1,
                                  seed=ctx.variant)
    t0 = perf_counter()
    history = training.train(model, split, config)
    times[f"{kind}_epoch_s"] = (perf_counter() - t0) / history.epochs
    losses = history.train_loss + history.val_loss
    checks.expect(("train", kind), {"epochs": history.epochs,
                                    "finite_loss": bool(np.all(np.isfinite(losses)))},
                  {"epochs": epochs, "finite_loss": True})


def detect_stage(ctx, tracer, checks, times):
    w = ctx.workload
    runs = []
    total = 0.0
    for name, spec in w.detect_targets:
        tf, cut, domain = _target(ctx, name)
        cut = tracer.cut(cut)
        detector = make_detector(spec, cut=cut)
        config = engine.EngineConfig(lambda_min=w.detect_lambda, tau=TAU, domain=domain)
        t0 = perf_counter()
        run = engine.run_batched(g=tracer.target(tf), grid=ctx.grid, graph=ctx.graph,
                                 detector=detector, initial=[(domain.center, domain.edge)],
                                 config=config)
        total += perf_counter() - t0
        checks.expect(("detect", name), run_observation(run))
        runs.append((name, run, cut))
    times["detect_s"] = total
    return runs


def tpr_stage(ctx, runs, checks, times):
    w = ctx.workload
    total = 0.0
    true_count = points = 0
    for name, run, cut in runs:
        t0 = perf_counter()
        report = evaluation.tpr(run.troubled_coords(), cut, w.detect_lambda, ctx.graph,
                                subdivisions=w.tpr_subdivisions)
        total += perf_counter() - t0
        checks.expect(("tpr", name), [report.true_count, report.troubled_count])
        true_count += report.true_count
        points += report.troubled_count
    times["tpr_s"] = total
    times["tpr"] = true_count / points


def nn_stage(ctx, tracer, checks, times):
    detector = NeuralDetector(ctx.model)
    total = 0.0
    for name, lam in ctx.workload.nn_targets:
        g, _cut, domain = _target(ctx, name)
        config = engine.EngineConfig(lambda_min=lam, tau=TAU, domain=domain)
        t0 = perf_counter()
        run = engine.run_batched(g=tracer.target(g), grid=ctx.nn_grid, graph=ctx.nn_graph,
                                 detector=detector, initial=[(domain.center, domain.edge)],
                                 config=config)
        total += perf_counter() - t0
        checks.expect(("nn", name), run_observation(run))
    times["nn_detect_s"] = total


def new_workdir(root: Path) -> tempfile.TemporaryDirectory:
    root.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root, prefix="work-")
