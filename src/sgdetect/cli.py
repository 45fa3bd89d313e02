"""Command-line pipeline: grid, dataset, train, detect, eval.

:func:`build_parser` is the one list of each subcommand's options.  Every
subcommand echoes the options it ran with (YAML, resolved values written
back), so the echo's ``options`` mapping is a config file that reproduces
the run.  ``--config run.yaml`` (or ``--config=run.yaml``) supplies option
defaults, each read as if its text were typed after its flag, ``null`` only
where the default is None; flags take precedence.

The package's INFO records go to stderr, one ``logger: message`` line each:
``dataset`` logs one per training function, ``train`` one per epoch.
Stdout and the output files do not carry them.

Exit codes: 0 success, 2 configuration error or unreadable input file,
3 dimension or grid mismatch, 4 degenerate dataset, 5 non-finite loss.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from sgdetect import engine as engine_mod
from sgdetect import evaluation as eval_mod
from sgdetect import synth_data
from sgdetect.detectors import Detector, NeuralDetector, make_detector
from sgdetect.errors import (
    ConfigError,
    DegenerateDatasetError,
    DimensionMismatchError,
    SgdetectError,
    TrainingDivergedError,
    write_document,
)
from sgdetect.grid_graph import build_grid_graph, graph_record
from sgdetect.neural.model import (
    MODEL_KINDS,
    ModelConfig,
    build_archetype,
    count_parameters,
    grid_fingerprint,
    save_model,
)
from sgdetect.neural.training import TrainConfig, evaluate_metrics, train
from sgdetect.sparse_grid import RULES, Box, GridSpec, build_sparse_grid, grid_record

EXIT_CONFIG = 2
EXIT_DIMENSION = 3
EXIT_DEGENERATE = 4
EXIT_DIVERGED = 5


def _worker_count(value, source: str) -> int:
    try:
        jobs = int(str(value))
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {value}")
    return jobs


def _resolve_jobs(args) -> None:
    """Check ``SGDETECT_THREADS`` for every subcommand and resolve ``--jobs``
    (flag or config file) against it: both must be integers >= 1."""
    env = os.environ.get("SGDETECT_THREADS")
    default = 1 if env is None else _worker_count(env, "SGDETECT_THREADS")
    if hasattr(args, "jobs"):
        args.jobs = default if args.jobs is None else _worker_count(args.jobs, "--jobs")


def _echo_config(args) -> None:
    """Print the options the run used; each command first writes back the
    values it resolved, so the ``options`` mapping is a config file."""
    options = {k: v for k, v in sorted(vars(args).items())
               if k not in ("command", "config", "func")}
    doc = {"command": args.command, "options": options}
    sys.stdout.write(yaml.safe_dump({"resolved-config": doc}, sort_keys=False))


def _reference_box(dim: int) -> Box:
    return Box.cube((0,) * dim, 2)


def _build_reference(rule: str, level: int, dim: int):
    spec = GridSpec(dim=dim, rule=rule, level=level)
    grid = build_sparse_grid(spec, _reference_box(dim))
    return grid, build_grid_graph(grid)


def _make_parents(*paths) -> None:
    """Create output directories up front: an unwritable path exits 2 before any work."""
    for path in filter(None, paths):
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _stored_grid(spec: GridSpec, stored_hash: str | None, owner: str):
    """Rebuild the grid a dataset or model was made on; a stored grid hash must match it."""
    grid, graph = _build_reference(spec.rule, spec.level, spec.dim)
    if stored_hash and stored_hash != grid_fingerprint(graph):
        raise DimensionMismatchError(
            f"{owner} grid hash {stored_hash} does not match the rebuilt grid")
    return grid, graph


def _resolve_lambda_min(args, domain: Box, h_max: int) -> Fraction:
    """``--lambda-min`` as a fraction, ``auto`` being domain edge / 2^(h_max+1);
    the value is written back to ``args`` for the echo."""
    try:
        lam_min = (domain.edge / 2 ** (h_max + 1) if args.lambda_min == "auto"
                   else Fraction(args.lambda_min))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed --lambda-min {args.lambda_min!r}: {exc}") from exc
    args.lambda_min = str(lam_min)
    return lam_min


# ---------------------------------------------------------------------------
# targets


def resolve_target(spec: str):
    """Target spec -> (callable g, cut or None, domain Box, dim).

    Forms: ``builtin:<name>``, ``phantom:<resolution>``, ``image:<pgm>``,
    ``synthetic:<cut-kind>:<seed>[:dim]``.
    """
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        registry = eval_mod.builtin_test_functions()
        if name not in registry:
            raise ConfigError(f"unknown builtin target {name!r}; have {sorted(registry)}")
        tf = registry[name]
        return tf, tf.cut, tf.domain, tf.dim
    if spec.startswith("image:"):
        img = eval_mod.ImageFunction(eval_mod.read_pgm(spec.split(":", 1)[1]))
        return img, None, img.domain(), 2
    # a missing field, a non-integer, a too-small phantom or an unknown cut kind
    try:
        if spec.startswith("phantom:"):
            r = int(spec.split(":", 1)[1])
            img = eval_mod.ImageFunction(eval_mod.shepp_logan(r))
            return img, None, img.domain(), 2
        if spec.startswith("synthetic:"):
            parts = spec.split(":")
            kind, seed = parts[1], int(parts[2])
            dim = int(parts[3]) if len(parts) > 3 else 2
            rng = np.random.default_rng(seed)
            fn = synth_data.sample_piecewise_function(kind, dim, rng)
            return fn, fn.cut, _reference_box(dim), dim
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed target spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown target spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_grid(args) -> int:
    grid, graph = _build_reference(args.rule, args.level, args.dim)
    _echo_config(args)
    print(f"points: {grid.n_points}")
    print(f"edges: {len(graph.edges)}")
    print(f"diameter: {graph.diameter()}")
    print(f"resolution: {grid.resolution}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_document(out / "grid.json", grid_record(grid))
        write_document(out / "graph.json", graph_record(graph))
        print(f"wrote {out / 'grid.json'} and {out / 'graph.json'}")
    return 0


def cmd_dataset(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    _make_parents(args.out, args.csv)
    grid, graph = _build_reference(args.rule, args.level, args.dim)
    domain = _reference_box(args.dim)
    lam_min = _resolve_lambda_min(args, domain, grid.spec.h_max)
    _echo_config(args)
    functions = synth_data.sample_functions(
        args.count, args.dim, args.seed, coeff_std=synth_data.COEFF_STD[args.coeff_convention])
    samples, stats = synth_data.generate_dataset(
        grid, graph, args.detector_t, functions, lam_min, tau=args.tau,
        domain=domain, n_jobs=args.jobs)
    balance_rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(args.count + 1)[-1])
    balanced = synth_data.balance_dataset(samples, balance_rng)
    stats["balanced_samples"] = len(balanced)
    stats["cut_kinds"] = {k: len(range(i, args.count, 3))
                          for i, k in enumerate(synth_data.CUT_KINDS)}
    stats["grid_hash"] = grid_fingerprint(graph)
    ds = synth_data.Dataset.from_samples(
        balanced, grid_key=grid.spec.key(), detector=f"zlevel:{args.detector_t}",
        seed=args.seed, meta=stats,
        coeff_convention=f"normal(0, {args.coeff_convention}=10)")
    bin_path, hdr_path = synth_data.save_dataset(ds, args.out)
    print(f"generated {stats['samples']} samples, kept {len(balanced)} after balancing")
    print(f"wrote {bin_path} and {hdr_path}")
    if args.csv:
        synth_data.export_dataset_csv(ds, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_train(args) -> int:
    try:
        model_cfg = ModelConfig(kind=args.kind, features=args.features,
                                leaky_slope=args.leaky_slope)
        train_cfg = TrainConfig(max_epochs=args.epochs, seed=args.seed,
                                batch_size=args.batch_size,
                                learning_rate=args.learning_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _make_parents(args.out)
    ds = synth_data.load_dataset(args.dataset)
    grid, graph = _stored_grid(GridSpec.from_key(ds.grid_key), ds.meta.get("grid_hash"),
                               "dataset")
    if ds.n_points != grid.n_points:
        raise DimensionMismatchError(
            f"dataset has {ds.n_points} points per sample; its grid {ds.grid_key} has "
            f"{grid.n_points}")
    _echo_config(args)
    split = synth_data.split_dataset(synth_data.Samples(ds.inputs, ds.labels),
                                     np.random.default_rng(args.seed))
    model = build_archetype(model_cfg, graph, seed=args.seed)
    print(f"model: {args.kind}, {count_parameters(model)} trainable parameters "
          f"({model.n_blocks} residual blocks)")
    history = train(model, split, train_cfg)
    metrics = evaluate_metrics(model, split.test)
    save_model(model, args.out)
    print(f"epochs: {history.epochs} (early stop: {history.stopped_early})")
    print(f"test loss: {metrics['loss']:.4f}  test MAE: {metrics['mae']:.4f}")
    print(f"wrote {args.out}")
    return 0


def _detector_for(args, cut, dim) -> tuple[Detector, object, object]:
    """Build (detector, grid, graph) for a detect run; a model brings its own
    grid, which must match the grid hash stored with the model."""
    detector = make_detector(args.detector, cut=cut)
    if not isinstance(detector, NeuralDetector):
        return detector, *_build_reference(args.rule, args.level, dim)
    model = detector.model
    spec = GridSpec.from_key(model.grid_key)
    if spec.dim != dim:
        raise DimensionMismatchError(
            f"model is {spec.dim}-dimensional, target is {dim}-dimensional")
    return detector, *_stored_grid(spec, model.grid_hash, "model")


def cmd_detect(args) -> int:
    target, cut, domain, dim = resolve_target(args.target)
    detector, grid, graph = _detector_for(args, cut, dim)
    args.rule, args.level = grid.spec.rule, grid.spec.level
    lam_min = _resolve_lambda_min(args, domain, grid.spec.h_max)
    config = engine_mod.EngineConfig(
        lambda_min=lam_min, tau=args.tau, domain=domain,
        boundary_policy=args.boundary_policy,
        lambda_rule=args.lambda_rule,
        max_evaluations=args.budget,
    )
    _echo_config(args)
    _make_parents(args.out, args.csv)
    initial = [(domain.center, domain.edge)]
    run = engine_mod.run_batched(g=target, grid=grid, graph=graph, detector=detector,
                 initial=initial, config=config)
    print(f"troubled points: {len(run.troubled_coords())}")
    print(f"visited points: {run.visited_points}")
    print(f"NaN evaluations: {run.nan_evaluations}")
    print(f"generations: {len(run.generation_sizes)} {run.generation_sizes}")
    if args.out:
        write_document(args.out, engine_mod.run_report(run, extra={
            "target": args.target, "detector": detector.name}))
        print(f"wrote {args.out}")
    if args.csv:
        engine_mod.write_troubled_csv(run, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_eval(args) -> int:
    target, cut, domain, dim = resolve_target(args.target)
    if cut is None:
        raise ConfigError(f"target {args.target} has no analytic cut to evaluate against")
    points, lam_min, visited = engine_mod.read_run_report(args.report)
    grid, graph = _build_reference(args.check_rule, args.check_level, dim)
    _echo_config(args)
    _make_parents(args.out, args.csv)
    result = eval_mod.tpr(points, cut, lam_min, graph, subdivisions=args.subdivisions,
                          visited_count=visited)
    if result.undefined:
        print("tpr: undefined (empty troubled set)")
    else:
        print(f"tpr: {result.tpr:.4f} ({result.true_count}/{result.troubled_count})")
    if args.out:
        write_document(args.out, eval_mod.tpr_report_doc(result))
        print(f"wrote {args.out}")
    if args.csv:
        # tpr refused points of another dimension; an empty set gets (0, dim)
        eval_mod.write_verdicts_csv(result, points.reshape(-1, dim), args.csv)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that lists its options' dests, its parents' included."""

    def __init__(self, *args, parents=(), **kwargs):
        self.dests = set().union(*(parent.dests for parent in parents))
        super().__init__(*args, parents=parents, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgdetect", description="sparse-grid discontinuity detection pipeline")
    parser.add_argument("--config", help="YAML option defaults, such as an echo's options")
    sub = parser.add_subparsers(dest="command", required=True)

    grid_options = _Parser(add_help=False)
    grid_options.add_argument("--rule", default="sum", choices=RULES,
                              help="reference grid rule (detect: an nn: model brings its own)")
    grid_options.add_argument("--level", type=int, default=6)
    engine_options = _Parser(add_help=False)
    engine_options.add_argument("--lambda-min", default="auto",
                                help="fraction, or auto = domain edge / 2^(h_max+1)")
    engine_options.add_argument("--tau", type=float, default=0.5)

    p = sub.add_parser("grid", parents=[grid_options],
                       help="build and export a reference grid and its graph")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("dataset", parents=[grid_options, engine_options],
                       help="generate a labeled synthetic dataset")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=600, help="number of random functions")
    p.add_argument("--detector-t", type=int, default=149,
                   help="t of the z-detector used for labeling (149 -> Z^(150))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", help="worker processes (default: SGDETECT_THREADS, else 1)")
    p.add_argument("--coeff-convention", default="variance", choices=synth_data.COEFF_STD,
                   help="reading of the normal(0, 10) coefficient distribution")
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train a detector model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", default="ginn", choices=MODEL_KINDS)
    p.add_argument("--features", type=int, default=15)
    p.add_argument("--leaky-slope", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", parents=[grid_options, engine_options],
                       help="run the detection engine on a target")
    p.add_argument("--target", required=True)
    p.add_argument("--detector", default="exact",
                   help="exact | exact:<cut-spec> | zlevel:<t> | nn:<model-file>")
    p.add_argument("--boundary-policy", default="clip-stop",
                   choices=engine_mod.BOUNDARY_POLICIES)
    p.add_argument("--lambda-rule", default="incident", choices=engine_mod.LAMBDA_RULES)
    p.add_argument("--budget", type=int, default=None,
                   help="optional cap on function evaluations; the run stops at the "
                        "first grid that reaches it, so it ends fewer than one grid's "
                        "point count above it")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a detection run against an analytic cut")
    p.add_argument("--report", required=True, help="detection run report (JSON)")
    p.add_argument("--target", required=True)
    p.add_argument("--check-rule", default="sum", choices=RULES)
    p.add_argument("--check-level", type=int, default=6)
    p.add_argument("--subdivisions", type=int, default=1000)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval)

    parser.subcommand_parsers = sub.choices
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, args, argv: list[str]) -> None:
    """Make the values in ``args.config`` the defaults of the subcommand that
    runs, each read by its flag as if its text followed ``argv``."""
    path = args.config
    with open(path) as fh:
        try:
            values = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    values = {str(k).replace("-", "_"): v for k, v in values.items()}
    unknown = sorted(set(values).difference(
        *(p.dests for p in (parser, *parser.subcommand_parsers.values()))))
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    chosen = parser.subcommand_parsers[args.command]
    nulls = [k for k, v in values.items() if v is None and chosen.get_default(k) is not None]
    if nulls:
        raise ConfigError(f"config file {path}: {', '.join(nulls)} cannot be null")
    given = {k: v for k, v in values.items() if k in chosen.dests and v is not None}
    # a value its flag rejects exits 2 here, with argparse's message
    checked = parser.parse_args([*argv, *(f"--{k.replace('_', '-')}={v}"
                                          for k, v in given.items())])
    chosen.set_defaults(**{k: getattr(checked, k) for k in given})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    log = logging.getLogger("sgdetect")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _run(argv)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(parser, args, argv)
            args = parser.parse_args(argv)
        _resolve_jobs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionMismatchError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except DegenerateDatasetError as exc:
        print(f"degenerate dataset: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}\n{exc.diagnostics}", file=sys.stderr)
        return EXIT_DIVERGED
    except (SgdetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
