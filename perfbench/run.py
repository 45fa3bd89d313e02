#!/usr/bin/env python3
"""sgdetect benchmark: the whole pipeline per workload, timed from outside.

One workload, one process (the form of the command in BENCHMARK.json):

    python3 perfbench/run.py --workload pipeline2d --seed 1 --seconds 45 --trace 0

prints a report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

Every workload, untraced then traced, each in its own process:

    python3 perfbench/run.py --all --seed 1 --seconds 45 --label baseline

prints every metric by name with its unit, the self-time table of each
module and the tracing overhead, and writes ``perfbench/results/BENCH_baseline.json``.

BLAS runs on one thread (``THREADS``), set before NumPy is imported and
recorded in the run manifest.  The package is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFS = HERE / "refs.json"

THREADS = 1
SETUPS = 11
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
#: calibration samples taken before the set-ups and after them and each iteration
CAL_SAMPLES = 5
#: calibration times, interpreter and BLAS kernel, that define one reference second
CAL_REF_S = (0.010, 0.012)
#: timings scaled by the BLAS kernel
BLAS_BOUND = {"ginn_epoch_s", "mlp_epoch_s"}

#: end-to-end metrics: name -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "dataset_s": "s",
    "ginn_epoch_s": "s/epoch",
    "mlp_epoch_s": "s/epoch",
    "detect_s": "s",
    "tpr_s": "s",
    "nn_detect_s": "s",
    "peak_rss_mb": "MB",
    "tpr": "ratio",
}


def bootstrap() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    if not (SRC / "sgdetect" / "__init__.py").is_file():
        sys.stderr.write(f"error: {SRC / 'sgdetect'} not found; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# statistics and manifest


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count.

    Percentiles use the nearest rank: the q-th is the ceil(q n / 100)-th
    smallest sample.
    """
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for q in PERCENTILES:
        k = math.ceil(q * n / 100) - 1
        if n - 1 - k >= 10:
            tail = {"percentile": q, "value": ordered[k]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def calibration_sample() -> tuple[float, float]:
    """Seconds for two fixed kernels: interpreter-bound and BLAS-bound.

    On a shared host the CPU speed drifts by 15 to 30% over tens of seconds,
    and interpreted code and BLAS code drift by different amounts.  Every
    timing is therefore reported in reference seconds: multiplied by
    ``CAL_REF_S / median`` of the kernel of its kind, over the calibration
    blocks taken just before and after it.  Training timings (``BLAS_BOUND``)
    use the BLAS kernel, the rest the interpreter kernel (Python ``Fraction``
    arithmetic and small NumPy calls, like the engine).  Neither kernel uses
    sgdetect code, so a change to the package cannot move them.
    """
    import numpy as np

    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
    a = np.random.default_rng(0).normal(size=(64, 64))
    for _ in range(20):
        a = np.tanh(a @ a.T / 64)
    t1 = perf_counter()
    rng = np.random.default_rng(0)
    m = rng.normal(size=(300, 300))
    x = rng.normal(size=(32, 401, 15))
    m = m @ m
    x = (x - x.mean(axis=(0, 1))) / np.sqrt(x.var(axis=(0, 1)) + 1e-3)
    return t1 - t0, perf_counter() - t1


def calibration_block() -> list[tuple[float, float]]:
    return [calibration_sample() for _ in range(CAL_SAMPLES)]


def is_blas_bound(metric: str) -> bool:
    return metric in BLAS_BOUND or metric.startswith("neural.")


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(seed: int) -> dict:
    import numpy as np
    import scipy

    from workloads import VARIANTS

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "variant": seed % VARIANTS,
    }


def load_refs(workload: str, profile: str) -> dict:
    with open(REFS) as fh:
        refs = json.load(fh)
    return {"fixtures": refs["fixtures"], **refs["workloads"][workload][profile]}


# ---------------------------------------------------------------------------
# one workload in this process


def measure(name: str, seed: int, seconds: float, trace: bool, profile: str = "full",
            setups: int = SETUPS) -> dict:
    """Run one workload for ``seconds`` (at least one iteration) and reduce it."""
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer

    w = workloads.get_workload(name, profile)
    variant = seed % workloads.VARIANTS
    checks = workloads.Checks(load_refs(name, profile))
    result = {"workload": name, "profile": profile, "seed": seed, "variant": variant,
              "trace": trace}
    null = workloads.NullTracer()
    tracer = Tracer() if trace else None
    # a traced run alternates traced and untraced iterations, so the tracing
    # overhead is measured under the same machine drift as the traced ones
    traced: list[bool] = []
    with workloads.new_workdir(RESULTS / "work") as workdir:
        workdir = Path(workdir)
        try:
            if tracer:
                tracer.install()
            # calibration blocks bracket the set-ups and every iteration
            blocks = [calibration_block()]
            setup_s = []
            for _ in range(setups):
                t0 = perf_counter()
                ctx = workloads.setup(w, variant)
                setup_s.append(perf_counter() - t0)
            blocks.append(calibration_block())
            workloads.check_setup(ctx, checks)
            raw: list[dict] = []
            start = perf_counter()
            while True:
                on = bool(tracer) and len(raw) % 2 == 0
                if tracer:
                    if on != tracer.installed:
                        tracer.install() if on else tracer.uninstall()
                    tracer.iteration = sum(traced)
                raw.append(workloads.iteration(ctx, tracer if on else null, checks, workdir))
                traced.append(on)
                blocks.append(calibration_block())
                if perf_counter() - start >= seconds and (not tracer or len(raw) >= 2):
                    break
        finally:
            if tracer:
                tracer.uninstall()

    def scale(samples: list[tuple[float, float]]) -> tuple[float, float]:
        return tuple(ref / statistics.median(s[k] for s in samples)
                     for k, ref in enumerate(CAL_REF_S))

    scales = [scale(a + b) for a, b in zip(blocks, blocks[1:])]
    samples: dict[str, list[float]] = {"setup_s": [t * scales[0][0] for t in setup_s]}
    traced_wall = []
    for times, (py, blas), on in zip(raw, scales[1:], traced):
        if on:
            traced_wall.append(times["wall_s"] * py)
            continue
        for key, value in times.items():
            factor = 1.0 if key == "tpr" else blas if is_blas_bound(key) else py
            samples.setdefault(key, []).append(value * factor)
    stats = {key: summarize(values) for key, values in samples.items()}
    result.update(iterations=len(raw), setups=setups, stats=stats, raw=raw, traced=traced,
                  raw_setup_s=setup_s, calibration={"blocks": blocks, "scales": scales},
                  attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
    if tracer:
        run_scale = scale(sum(blocks, []))
        mean_wall = statistics.mean(t["wall_s"] for t, on in zip(raw, traced) if on)
        per_layer = tracer.per_layer(setups, len(traced_wall), mean_wall)
        per_layer = {k: v * (run_scale[is_blas_bound(k)] if PER_LAYER_UNITS[k] == "s" else 1.0)
                     for k, v in per_layer.items()}
        per_layer["trace.wall_s"] = statistics.median(traced_wall)
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - stats["wall_s"]["median"])
        result["metrics"] = {k: {"value": per_layer[k], "unit": u}
                             for k, u in PER_LAYER_UNITS.items()}
        result["tracer"] = tracer
    else:
        values = {k: s["median"] for k, s in stats.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {k: {"value": values.get(k), "unit": u}
                             for k, u in END_TO_END_UNITS.items()}
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} (variant "
          f"{result['variant']}) trace {int(result['trace'])}: {result['iterations']} "
          f"iteration(s), {result['setups']} set-ups")
    py, blas = zip(*result["calibration"]["scales"])
    print(f"  times in reference seconds: raw x {min(py):.3f}-{max(py):.3f} (interpreter), "
          f"x {min(blas):.3f}-{max(blas):.3f} (BLAS)")
    for name, metric in result["metrics"].items():
        stat = result["stats"].get(name)
        extra = ""
        if stat is not None and not result["trace"]:
            tail = stat["tail"]
            tail_text = (f"p{tail['percentile']:g} {tail['value']:.4f}" if tail
                         else "no percentile has 10 samples beyond it")
            extra = f"  (median of n={stat['n']}; {tail_text})"
        value = metric["value"]
        text = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {text:>12} {metric['unit']}{extra}")
    if result["trace"]:
        from tracing import self_time_table

        flat = {k: m["value"] for k, m in result["metrics"].items()}
        print(self_time_table(flat))
        print(f"  tracing overhead: {flat['trace.overhead_s']:.4f} s per iteration "
              f"(traced wall {flat['trace.wall_s']:.4f} s)")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def write_result(result: dict, label: str) -> Path:
    out = RESULTS / label
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    doc = {k: v for k, v in result.items() if k != "tracer"}
    doc["manifest"] = manifest(result["seed"])
    if "tracer" in result:
        result["tracer"].write_spans(out / f"{stem}-spans.json")
    path = out / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(seed: int, seconds: float, label: str) -> int:
    from workloads import WORKLOADS

    bench = {"label": label, "manifest": manifest(seed), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        bench["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--label", label]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            path = RESULTS / label / f"{name}-seed{seed}-trace{trace}.json"
            doc = json.loads(path.read_text())
            ok = ok and doc["failed"] == 0
            bench["workloads"][name]["traced" if trace else "untraced"] = doc
    path = RESULTS / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"\nend-to-end metrics (median per run), seed {seed}:")
    names = list(bench["workloads"])
    print(f"  {'metric':<14} {'unit':<8}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in END_TO_END_UNITS.items():
        cells = []
        for n in names:
            doc = bench["workloads"][n].get("untraced")
            value = doc["metrics"][metric]["value"] if doc else None
            cells.append(f"{value:14.5g}" if value is not None else f"{'-':>14}")
        print(f"  {metric:<14} {unit:<8}" + "".join(cells))
    for n in names:
        doc = bench["workloads"][n].get("untraced")
        if doc:
            print(f"  {n}: {doc['attempted']} operations attempted, {doc['failed']} failed")
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="local", help="names the results directory and BENCH file")
    args = ap.parse_args(argv)
    bootstrap()
    if args.all:
        return run_all(args.seed, args.seconds, args.label)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    print(f"wrote {write_result(result, args.label)}")
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
