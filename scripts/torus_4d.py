#!/usr/bin/env python3
"""4D detection of the growing-torus interface through ``sgdetect``.

Labels a reduced corpus with Z^(3) on the 401-point grid (full scale: 750
functions, hours), trains a GINN, detects the torus under an evaluation budget
and scores the run on 401-point check grids.  The dataset it writes takes tens
of MB even for a few functions.

    python scripts/torus_4d.py --out runs/4d --functions 30 --budget 2000000
"""

import argparse
import sys
from pathlib import Path

from sgdetect.cli import main as sgdetect_main


def sgdetect(*argv) -> None:
    print("$ sgdetect", *argv, flush=True)
    if code := sgdetect_main([str(a) for a in argv]):
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/4d")
    ap.add_argument("--functions", type=int, default=30, help="random training functions")
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--budget", type=int, default=2_000_000, help="detect's evaluation cap")
    args = ap.parse_args()
    out, lam = Path(args.out), "1/16"  # Λ_min = 2 / 2^h_max, h_max = 5

    sgdetect("dataset", "--dim", 4, "--level", 8, "--count", args.functions,
             "--detector-t", 2, "--lambda-min", lam, "--seed", args.seed,
             "--jobs", args.jobs, "--out", out / "dataset.bin")
    sgdetect("train", "--dataset", out / "dataset.bin", "--epochs", args.epochs,
             "--seed", args.seed, "--out", out / "ginn4d.json")
    sgdetect("detect", "--target", "builtin:torus4d", "--detector", f"nn:{out}/ginn4d.json",
             "--lambda-min", lam, "--budget", args.budget,
             "--out", out / "torus-run.json", "--csv", out / "torus-troubled.csv")
    sgdetect("eval", "--report", out / "torus-run.json", "--target", "builtin:torus4d",
             "--check-level", 8, "--subdivisions", 200, "--out", out / "torus-tpr.json")


if __name__ == "__main__":
    main()
