#!/usr/bin/env python3
"""End-to-end 2D pipeline at a configurable scale.

Generates a labeled dataset from random piecewise functions on the 65-point
reference grid, trains a GINN and an MLP detector, runs both on the four
built-in 2D test functions, and scores every run with the geometric TPR
check.  The full-scale recipe (600 functions, Z^(150)) takes hours on a
laptop; the default here is a reduced corpus that finishes in minutes.

    python scripts/reproduce_2d.py --out runs/2d --functions 60 --detector-t 49
    python scripts/reproduce_2d.py --out runs/2d --functions 600 --detector-t 149  # full scale
"""

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from sgdetect import synth_data
from sgdetect.detectors import ExactOracleDetector, NeuralDetector
from sgdetect.engine import EngineConfig, run_batched, write_run_report, write_troubled_csv
from sgdetect.evaluation import builtin_test_functions, tpr, write_tpr_report
from sgdetect.grid_graph import build_grid_graph
from sgdetect.neural.model import ModelConfig, build_archetype, count_parameters, save_model
from sgdetect.neural.training import TrainConfig, evaluate_metrics, train
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/2d")
    ap.add_argument("--functions", type=int, default=60,
                    help="random training functions (full scale: 600)")
    ap.add_argument("--detector-t", type=int, default=49,
                    help="t of the labeling z-detector (full scale: 149)")
    ap.add_argument("--epochs", type=int, default=120)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domain = Box.cube((0, 0), 2)
    lambda_min = Fraction(1, 32)  # 2 / 2^(h_max + 1) with h_max = 5

    grid = build_sparse_grid(GridSpec(dim=2, rule="sum", level=6), domain)
    graph = build_grid_graph(grid)
    print(f"reference grid: {grid.n_points} points, {len(graph.edges)} edges, "
          f"diameter {graph.diameter()}")

    t0 = time.perf_counter()
    functions = synth_data.sample_functions(args.functions, 2, args.seed)
    samples, stats = synth_data.generate_dataset(
        grid, graph, args.detector_t, functions, lambda_min, domain=domain,
        n_jobs=args.jobs)
    balanced = synth_data.balance_dataset(samples, np.random.default_rng(args.seed + 1))
    split = synth_data.split_dataset(balanced, np.random.default_rng(args.seed + 2))
    print(f"dataset: {stats['samples']} samples -> {len(balanced)} balanced "
          f"({time.perf_counter() - t0:.0f}s)")
    ds = synth_data.Dataset.from_samples(
        balanced, grid_key=grid.spec.key(), detector=f"zlevel:{args.detector_t}",
        seed=args.seed, meta=stats)
    synth_data.save_dataset(ds, out / "dataset.bin")

    models = {}
    for kind in ("ginn", "mlp"):
        t0 = time.perf_counter()
        model = build_archetype(ModelConfig(kind=kind, features=15), graph,
                                seed=args.seed)
        history = train(model, split, TrainConfig(max_epochs=args.epochs,
                                                  seed=args.seed))
        metrics = evaluate_metrics(model, split.test)
        save_model(model, out / f"{kind}.json")
        models[kind] = model
        print(f"{kind}: {count_parameters(model)} params, {history.epochs} epochs, "
              f"test loss {metrics['loss']:.4f}, MAE {metrics['mae']:.4f} "
              f"({time.perf_counter() - t0:.0f}s)")

    results = {}
    for name, tf in builtin_test_functions().items():
        if tf.dim != 2:
            continue
        config = EngineConfig(lambda_min=lambda_min, tau=0.5, domain=tf.domain,
                              boundary_policy="clip-stop")
        for kind, model in models.items():
            run = run_batched(g=tf, grid=grid, graph=graph,
                              detector=NeuralDetector(model),
                              initial=[(tf.domain.center, tf.domain.edge)],
                              config=config)
            score = tpr(run.troubled_coords(), tf.cut, lambda_min, graph)
            tag = f"{kind}-{name}"
            results[tag] = {"tpr": score.tpr, "troubled": len(run.troubled),
                            "visited": run.visited_points}
            write_run_report(run, out / f"run-{tag}.json",
                             extra={"target": name, "detector": kind})
            write_troubled_csv(run, out / f"troubled-{tag}.csv")
            write_tpr_report(score, out / f"tpr-{tag}.json")
            print(f"{tag}: TPR={score.tpr if score.tpr is None else round(score.tpr, 4)} "
                  f"troubled={len(run.troubled)} visited={run.visited_points}")
        # oracle baseline for reference
        if tf.cut is not None and tf.cut.segment_roots(np.zeros(2), np.ones(2)) is not None:
            run = run_batched(g=tf, grid=grid, graph=graph,
                              detector=ExactOracleDetector(tf.cut),
                              initial=[(tf.domain.center, tf.domain.edge)],
                              config=config)
            score = tpr(run.troubled_coords(), tf.cut, lambda_min, graph)
            print(f"oracle-{name}: TPR={score.tpr} troubled={len(run.troubled)}")

    with open(out / "summary.json", "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {out}/summary.json")


if __name__ == "__main__":
    main()
