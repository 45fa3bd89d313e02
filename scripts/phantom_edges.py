#!/usr/bin/env python3
"""Edge detection on the analytic head phantom through ``sgdetect detect``.

Runs a trained 2D detector on ``phantom:<r>`` at Λ_min = (r − 1) / 2^depth for
each r.  The visited-point count stays nearly constant as r grows: the engine
samples the image adaptively instead of scanning pixels.

    python scripts/phantom_edges.py --model runs/2d/ginn.json --resolutions 512 1024
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from sgdetect.cli import main as sgdetect_main
from sgdetect.engine import read_run_report


def sgdetect(*argv) -> None:
    print("$ sgdetect", *argv, flush=True)
    if code := sgdetect_main([str(a) for a in argv]):
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", required=True)
    ap.add_argument("--resolutions", type=int, nargs="+", default=[512, 1024])
    ap.add_argument("--depth", type=int, default=9, help="lambda_min = image edge / 2^depth")
    ap.add_argument("--out", default="runs/phantom")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for r in args.resolutions:
        sgdetect("detect", "--target", f"phantom:{r}", "--detector", f"nn:{args.model}",
                 "--lambda-min", Fraction(r - 1, 2**args.depth),
                 "--out", out / f"run-{r}.json", "--csv", out / f"troubled-{r}.csv")
        _, _, visited = read_run_report(out / f"run-{r}.json")
        print(f"r={r}: visited={visited} ({visited / r**2:.2%} of pixels)")


if __name__ == "__main__":
    main()
