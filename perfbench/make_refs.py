#!/usr/bin/env python3
"""Record the benchmark's reference outputs into ``perfbench/refs.json``.

Runs every workload once per profile (``full`` for the benchmark, ``small``
for the self-test) at variant 0, and the dataset stage for every variant,
and stores what the checks compare against: the fixture hashes, troubled
digests, generation sizes, grid counts, TPR counts and dataset bytes.  Run
it only when an output is meant to change, and say why in the change.

    python3 perfbench/make_refs.py
"""

import json
import sys
from pathlib import Path

import run


def record(name: str, profile: str, workdir: Path) -> tuple[dict, dict]:
    import workloads

    w = workloads.get_workload(name, profile)
    rec = workloads.Recorder({})
    ctx = workloads.setup(w, 0)
    workloads.check_setup(ctx, rec)
    workloads.iteration(ctx, workloads.NullTracer(), rec, workdir)
    for variant in range(1, workloads.VARIANTS):
        ctx.variant = variant
        ctx.functions = workloads.sample_functions(w, variant)
        workloads.dataset_stage(ctx, workloads.NullTracer(), rec, workdir, {})
    if rec.failed:
        raise SystemExit("\n".join(rec.failures))
    return rec.refs.pop("fixtures"), rec.refs


def main() -> int:
    run.bootstrap()
    import workloads

    refs = {"variants": workloads.VARIANTS, "fixtures": {}, "workloads": {}}
    with workloads.new_workdir(run.RESULTS / "work") as workdir:
        for name in workloads.WORKLOADS:
            for profile in ("full", "small"):
                fixtures, data = record(name, profile, Path(workdir))
                refs["fixtures"].update(fixtures)
                refs["workloads"].setdefault(name, {})[profile] = data
                print(f"recorded {name}/{profile}")
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
