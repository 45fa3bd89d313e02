"""Command-line pipeline: grid, dataset, train, detect, eval.

Every subcommand prints a resolved-configuration echo (YAML) so a run can
be reproduced exactly from its output.  Options may come from a config
file (``--config run.yaml``) with command-line flags taking precedence.

Exit codes: 0 success, 2 configuration error or unreadable input file,
3 dimension or grid mismatch, 4 degenerate dataset, 5 non-finite loss.
"""

from __future__ import annotations

import argparse
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
    MalformedFileError,
    SgdetectError,
    TrainingDivergedError,
    read_document,
)
from sgdetect.grid_graph import build_grid_graph, write_graph_record
from sgdetect.neural.model import (
    ModelConfig,
    build_archetype,
    count_parameters,
    grid_fingerprint,
    save_model,
)
from sgdetect.neural.training import TrainConfig, evaluate_metrics, train
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid, write_grid_record

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
        raise ConfigError(f"{source} must be an integer >= 1, got {value!r}")
    return jobs


def _resolve_jobs(args) -> None:
    """Check ``SGDETECT_THREADS`` for every subcommand and resolve ``--jobs``
    (flag or config file) against it: both must be integers >= 1."""
    env = os.environ.get("SGDETECT_THREADS")
    default = 1 if env is None else _worker_count(env, "SGDETECT_THREADS")
    if hasattr(args, "jobs"):
        args.jobs = default if args.jobs is None else _worker_count(args.jobs, "--jobs")


def _echo_config(command: str, options: dict) -> None:
    doc = {"command": command, "options": {k: _plain(v) for k, v in sorted(options.items())}}
    sys.stdout.write(yaml.safe_dump({"resolved-config": doc}, sort_keys=False))


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Path):
        return str(v)
    return v


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


def _parse_lambda_min(text: str, domain: Box, h_max: int) -> Fraction:
    if text == "auto":
        return domain.edge / 2 ** (h_max + 1)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed --lambda-min {text!r}: {exc}") from exc


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
    _echo_config("grid", {"rule": args.rule, "level": args.level, "dim": args.dim,
                          "out": args.out})
    print(f"points: {grid.n_points}")
    print(f"edges: {len(graph.edges)}")
    print(f"diameter: {graph.diameter()}")
    print(f"resolution: {grid.resolution}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_grid_record(grid, out / "grid.json")
        write_graph_record(graph, out / "graph.json")
        print(f"wrote {out / 'grid.json'} and {out / 'graph.json'}")
    return 0


def cmd_dataset(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    grid, graph = _build_reference(args.rule, args.level, args.dim)
    domain = _reference_box(args.dim)
    lam_min = _parse_lambda_min(args.lambda_min, domain, grid.spec.h_max)
    _echo_config("dataset", {
        "rule": args.rule, "level": args.level, "dim": args.dim, "count": args.count,
        "detector_t": args.detector_t, "lambda_min": lam_min, "tau": args.tau,
        "seed": args.seed, "jobs": args.jobs, "out": args.out,
        "coeff_convention": args.coeff_convention,
    })
    # "N(0, 10)" read as variance by default; the stddev reading is the flip
    coeff_std = np.sqrt(10.0) if args.coeff_convention == "variance" else 10.0
    functions = synth_data.sample_functions(args.count, args.dim, args.seed, coeff_std=coeff_std)
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
    ds = synth_data.load_dataset(args.dataset)
    spec = GridSpec.from_key(ds.grid_key)
    grid, graph = _build_reference(spec.rule, spec.level, spec.dim)
    ds_hash = ds.meta.get("grid_hash")
    if ds_hash and ds_hash != grid_fingerprint(graph):
        raise DimensionMismatchError(
            f"dataset grid hash {ds_hash} does not match the rebuilt grid")
    if ds.n_points != grid.n_points:
        raise DimensionMismatchError(
            f"dataset has {ds.n_points} points per sample; its grid {ds.grid_key} has "
            f"{grid.n_points}")
    _echo_config("train", {
        "dataset": args.dataset, "kind": args.kind, "features": args.features,
        "epochs": args.epochs, "seed": args.seed, "batch_size": args.batch_size,
        "learning_rate": args.learning_rate, "out": args.out,
    })
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
    grid, graph = _build_reference(spec.rule, spec.level, spec.dim)
    if model.grid_hash and model.grid_hash != grid_fingerprint(graph):
        raise DimensionMismatchError(
            f"model grid hash {model.grid_hash} does not match the rebuilt grid")
    return detector, grid, graph


def cmd_detect(args) -> int:
    target, cut, domain, dim = resolve_target(args.target)
    detector, grid, graph = _detector_for(args, cut, dim)
    lam_min = _parse_lambda_min(args.lambda_min, domain, grid.spec.h_max)
    config = engine_mod.EngineConfig(
        lambda_min=lam_min, tau=args.tau, domain=domain,
        boundary_policy=args.boundary_policy,
        lambda_rule=args.lambda_rule,
        max_evaluations=args.budget,
    )
    _echo_config("detect", {
        "target": args.target, "detector": args.detector, "lambda_min": lam_min,
        "tau": args.tau, "boundary_policy": args.boundary_policy,
        "lambda_rule": args.lambda_rule, "budget": args.budget,
        "out": args.out, "csv": args.csv,
    })
    _make_parents(args.out, args.csv)
    initial = [(domain.center, domain.edge)]
    run = engine_mod.run_batched(g=target, grid=grid, graph=graph, detector=detector,
                 initial=initial, config=config)
    print(f"troubled points: {len(run.troubled_coords())}")
    print(f"visited points: {run.visited_points}")
    print(f"NaN evaluations: {run.nan_evaluations}")
    print(f"generations: {len(run.generation_sizes)} {run.generation_sizes}")
    if args.out:
        engine_mod.write_run_report(run, args.out, extra={
            "target": args.target, "detector": detector.name})
        print(f"wrote {args.out}")
    if args.csv:
        engine_mod.write_troubled_csv(run, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_eval(args) -> int:
    target, cut, domain, dim = resolve_target(args.target)
    if cut is None:
        raise ConfigError(f"target {args.target} has no analytic cut to evaluate against")
    report = read_document(args.report, "detection-run")
    try:
        coords = [t["coords"] for t in report["troubled_points"]]
        lam_min = report["config"]["lambda_min"]
        visited = report["counters"]["visited_points"]
    except KeyError as exc:
        raise MalformedFileError(f"{args.report} has no {exc.args[0]!r} entry") from exc
    try:
        lam_min = Fraction(lam_min)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedFileError(f"{args.report}: lambda_min {lam_min!r} is not a number") from exc
    if lam_min <= 0:
        raise MalformedFileError(f"{args.report}: lambda_min {str(lam_min)!r} is not positive")
    if type(visited) is not int or visited < 0:
        raise MalformedFileError(f"{args.report}: visited_points {visited!r} is not a "
                                 "non-negative integer")
    try:
        points = np.array(coords, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"{args.report}: troubled point coords are not "
                                 "equal-length lists of numbers") from exc
    grid, graph = _build_reference(args.check_rule, args.check_level, dim)
    _echo_config("eval", {
        "report": args.report, "target": args.target, "check_rule": args.check_rule,
        "check_level": args.check_level, "subdivisions": args.subdivisions,
        "out": args.out,
    })
    _make_parents(args.out, args.csv)
    result = eval_mod.tpr(points, cut, lam_min, graph, subdivisions=args.subdivisions,
                          visited_count=visited)
    if result.undefined:
        print("tpr: undefined (empty troubled set)")
    else:
        print(f"tpr: {result.tpr:.4f} ({result.true_count}/{result.troubled_count})")
    if args.out:
        eval_mod.write_tpr_report(result, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        # tpr refused points of another dimension; an empty set gets (0, dim)
        eval_mod.write_verdicts_csv(result, points.reshape(-1, dim), args.csv)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdetect",
        description="sparse-grid discontinuity detection pipeline")
    parser.add_argument("--config", help="YAML config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommand_parsers = {}

    p = sub.add_parser("grid", help="build and export a reference grid and its graph")
    p.add_argument("--rule", default="sum", choices=["prod", "sum", "max"])
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("dataset", help="generate a labeled synthetic dataset")
    p.add_argument("--rule", default="sum", choices=["prod", "sum", "max"])
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=600, help="number of random functions")
    p.add_argument("--detector-t", type=int, default=149,
                   help="t of the z-detector used for labeling (149 -> Z^(150))")
    p.add_argument("--lambda-min", default="auto",
                   help="fraction, or auto = domain edge / 2^(h_max+1)")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", help="worker processes (default: SGDETECT_THREADS, else 1)")
    p.add_argument("--coeff-convention", default="variance",
                   choices=["variance", "stddev"],
                   help="reading of the normal(0, 10) coefficient distribution")
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train a detector model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", default="ginn", choices=["ginn", "mlp"])
    p.add_argument("--features", type=int, default=15)
    p.add_argument("--leaky-slope", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run the detection engine on a target")
    p.add_argument("--target", required=True)
    p.add_argument("--detector", default="exact",
                   help="exact | exact:<cut-spec> | zlevel:<t> | nn:<model-file>")
    p.add_argument("--rule", default="sum", choices=["prod", "sum", "max"],
                   help="reference grid rule for non-NN detectors")
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--lambda-min", default="auto",
                   help="fraction, or auto = domain edge / 2^(h_max+1)")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--boundary-policy", default="clip-stop",
                   choices=["clip-stop", "ignore"])
    p.add_argument("--lambda-rule", default="incident", choices=["incident", "global"])
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
    p.add_argument("--check-rule", default="sum", choices=["prod", "sum", "max"])
    p.add_argument("--check-level", type=int, default=6)
    p.add_argument("--subdivisions", type=int, default=1000)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval)

    for action in parser._subparsers._group_actions:
        parser.subcommand_parsers.update(action.choices)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull defaults from --config <file> before the real parse."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise ConfigError("--config needs a file path")
    with open(path) as fh:
        try:
            values = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    defaults = {str(k).replace("-", "_"): v for k, v in values.items()}
    known = {sub: {a.dest for a in sub._actions}
             for sub in (parser, *parser.subcommand_parsers.values())}
    unknown = sorted(set(defaults).difference(*known.values()))
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    for sub, dests in known.items():
        sub.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
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
