#!/usr/bin/env python3
"""4D detection on the growing-torus target with the 401-point grid.

Trains a 4D GINN on a reduced corpus (the full-scale recipe uses 750
functions with Z^(3); hours of labeling even with parallel generation),
then localizes the torus interface.  Budget-limited by default so a first
run finishes quickly; raise --budget and --functions for better coverage.

    python scripts/torus_4d.py --out runs/4d --functions 30 --budget 2000000
"""

import argparse
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from sgdetect import synth_data
from sgdetect.detectors import NeuralDetector
from sgdetect.engine import EngineConfig, run_batched, write_run_report, write_troubled_csv
from sgdetect.evaluation import builtin_test_functions, tpr
from sgdetect.grid_graph import build_grid_graph
from sgdetect.neural.model import ModelConfig, build_archetype, count_parameters, save_model
from sgdetect.neural.training import TrainConfig, evaluate_metrics, train
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/4d")
    ap.add_argument("--functions", type=int, default=30,
                    help="random training functions (full scale: 750)")
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--budget", type=int, default=2_000_000,
                    help="cap on function evaluations in the final detection run")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domain = Box.cube((0, 0, 0, 0), 2)
    lambda_min = Fraction(1, 16)  # 2 / 2^h_max with h_max = 5

    grid = build_sparse_grid(GridSpec(dim=4, rule="sum", level=8), domain)
    graph = build_grid_graph(grid)
    print(f"reference grid: {grid.n_points} points, diameter {graph.diameter()}")

    t0 = time.perf_counter()
    functions = synth_data.sample_functions(args.functions, 4, args.seed)
    samples, stats = synth_data.generate_dataset(
        grid, graph, 2, functions, lambda_min, domain=domain, n_jobs=args.jobs)
    balanced = synth_data.balance_dataset(samples, np.random.default_rng(args.seed + 1))
    split = synth_data.split_dataset(balanced, np.random.default_rng(args.seed + 2))
    print(f"dataset: {stats['samples']} samples -> {len(balanced)} balanced "
          f"({time.perf_counter() - t0:.0f}s)")

    t0 = time.perf_counter()
    model = build_archetype(ModelConfig(kind="ginn", features=15), graph, seed=args.seed)
    history = train(model, split, TrainConfig(max_epochs=args.epochs, seed=args.seed))
    metrics = evaluate_metrics(model, split.test)
    save_model(model, out / "ginn4d.json")
    print(f"ginn4d: {count_parameters(model)} params, {history.epochs} epochs, "
          f"test loss {metrics['loss']:.4f}, MAE {metrics['mae']:.4f} "
          f"({time.perf_counter() - t0:.0f}s)")

    tf = builtin_test_functions()["torus4d"]
    config = EngineConfig(lambda_min=lambda_min, tau=0.5, domain=tf.domain,
                          boundary_policy="clip-stop", max_evaluations=args.budget)
    t0 = time.perf_counter()
    run = run_batched(g=tf, grid=grid, graph=graph, detector=NeuralDetector(model),
                      initial=[(tf.domain.center, tf.domain.edge)], config=config)
    print(f"torus: troubled={len(run.troubled)} visited={run.visited_points} "
          f"truncated={run.truncated} ({time.perf_counter() - t0:.0f}s)")
    write_run_report(run, out / "torus-run.json", extra={"target": "torus4d"})
    write_troubled_csv(run, out / "torus-troubled.csv")
    if run.troubled:
        score = tpr(run.troubled_coords(), tf.cut, lambda_min, graph,
                    subdivisions=200)
        print(f"TPR={score.tpr:.4f} ({score.true_count}/{score.troubled_count})")


if __name__ == "__main__":
    main()
