#!/usr/bin/env python3
"""End-to-end 2D pipeline through ``sgdetect``: dataset → train → detect → eval.

Trains a GINN and an MLP on the 65-point grid, then runs and scores each (and
the exact oracle where the cut has a closed form) on every built-in 2D target,
writing ``{run,troubled,tpr}-<detector>-<target>`` files and ``summary.json``.
Full scale (hours): ``--functions 600 --detector-t 149 --epochs 500``.

    python scripts/reproduce_2d.py --out runs/2d --functions 60 --detector-t 49
"""

import argparse
import sys
from pathlib import Path

from sgdetect.cli import main as sgdetect_main
from sgdetect.detectors import has_closed_form
from sgdetect.errors import read_document, write_document
from sgdetect.evaluation import TPR_REPORT_VERSION, builtin_test_functions


def sgdetect(*argv) -> None:
    print("$ sgdetect", *argv, flush=True)
    if code := sgdetect_main([str(a) for a in argv]):
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/2d")
    ap.add_argument("--functions", type=int, default=60, help="random training functions")
    ap.add_argument("--detector-t", type=int, default=49, help="t of the labeling Z-detector")
    ap.add_argument("--epochs", type=int, default=120)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    out, lam = Path(args.out), "1/32"  # Λ_min = 2 / 2^(h_max + 1), h_max = 5

    sgdetect("dataset", "--count", args.functions, "--detector-t", args.detector_t,
             "--lambda-min", lam, "--seed", args.seed, "--jobs", args.jobs,
             "--out", out / "dataset.bin")
    for kind in ("ginn", "mlp"):
        sgdetect("train", "--dataset", out / "dataset.bin", "--kind", kind,
                 "--epochs", args.epochs, "--seed", args.seed, "--out", out / f"{kind}.json")
    summary = {}
    targets = {name: tf for name, tf in builtin_test_functions().items() if tf.dim == 2}
    for name, tf in targets.items():
        runs = {kind: f"nn:{out / kind}.json" for kind in ("ginn", "mlp")}
        if tf.cut is not None and has_closed_form(tf.cut, 2):
            runs["oracle"] = "exact"
        for kind, detector in runs.items():
            run, score = out / f"run-{kind}-{name}.json", out / f"tpr-{kind}-{name}.json"
            sgdetect("detect", "--target", f"builtin:{name}", "--detector", detector,
                     "--lambda-min", lam, "--out", run,
                     "--csv", out / f"troubled-{kind}-{name}.csv")
            sgdetect("eval", "--report", run, "--target", f"builtin:{name}", "--out", score)
            doc = read_document(score, "tpr-report", TPR_REPORT_VERSION)
            summary[f"{kind}-{name}"] = {"tpr": doc["tpr"], "troubled": doc["troubled_count"],
                                         "visited": doc["visited_count"]}
    write_document(out / "summary.json", summary)
    print(f"wrote {out / 'summary.json'}")


if __name__ == "__main__":
    main()
