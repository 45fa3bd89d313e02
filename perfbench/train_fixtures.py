#!/usr/bin/env python3
"""Train the fixed GINN models that the benchmark's NN-detection stage loads.

The models are trained once, from fixed seeds, and committed under
``perfbench/fixtures/``; ``refs.json`` records their SHA-256 and every
benchmark set-up checks it.  Because the benchmark never retrains them,
``nn_detect_s`` moves only when the engine or inference changes, not when
training does.  After retraining, regenerate the references with
``python3 perfbench/make_refs.py``.

Recipes (the reduced ``scripts/reproduce_2d.py`` and ``scripts/torus_4d.py``
recipes, seed 0):

* ``ginn2d.json``: 2D level-6 grid (65 points), 30 functions, Z^(50)
  labels at lambda_min = 1/32, up to 60 epochs.
* ``ginn4d.json``: 4D level-6 grid (41 points), 30 functions, Z^(3) labels
  at lambda_min = 1/8, 40 epochs.  The 401-point 4D model would be about
  25 MB of JSON, too large to commit; the 41-point one is about 1 MB.

    python3 perfbench/train_fixtures.py
"""

import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

RECIPES = {
    "ginn2d.json": dict(dim=2, level=6, functions=30, detector_t=49,
                        lambda_min=Fraction(1, 32), epochs=60),
    "ginn4d.json": dict(dim=4, level=6, functions=30, detector_t=2,
                        lambda_min=Fraction(1, 8), epochs=40),
}


def train_fixture(dim, level, functions, detector_t, lambda_min, epochs, seed=0):
    import numpy as np

    from sgdetect import synth_data
    from sgdetect.grid_graph import build_grid_graph
    from sgdetect.neural.model import ModelConfig, build_archetype
    from sgdetect.neural.training import TrainConfig, train
    from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid

    domain = Box.cube((0,) * dim, 2)
    grid = build_sparse_grid(GridSpec(dim=dim, rule="sum", level=level), domain)
    graph = build_grid_graph(grid)
    kinds = [synth_data.CUT_KINDS[i % 3] for i in range(functions)]
    child_seeds = np.random.SeedSequence(seed).spawn(functions)
    fns = [synth_data.sample_piecewise_function(k, dim, np.random.default_rng(s))
           for k, s in zip(kinds, child_seeds)]
    samples, _ = synth_data.generate_dataset(grid, graph, detector_t, fns, lambda_min,
                                             domain=domain)
    balanced = synth_data.balance_dataset(samples, np.random.default_rng(seed + 1))
    split = synth_data.split_dataset(balanced, np.random.default_rng(seed + 2))
    model = build_archetype(ModelConfig(kind="ginn", features=15), graph, seed=seed)
    history = train(model, split, TrainConfig(max_epochs=epochs, seed=seed))
    print(f"{dim}D level {level}: {len(samples)} samples, {history.epochs} epochs, "
          f"val loss {history.val_loss[-1]:.4f}")
    return model


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(HERE.parent / "src"))
    from sgdetect.neural.model import save_model

    out = HERE / "fixtures"
    names = sys.argv[1:] or list(RECIPES)
    for name in names:
        save_model(train_fixture(**RECIPES[name]), out / name)
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()
