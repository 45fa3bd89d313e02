"""Self-test of the benchmark harness: every workload at reduced size.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402
from sgdetect import engine, sparse_grid  # noqa: E402


def small(name, trace, seed=3):
    return run.measure(name, seed=seed, seconds=0, trace=trace, profile="small", setups=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = small(name, trace=False)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == run.END_TO_END_UNITS
    for key, metric in result["metrics"].items():
        assert metric["value"] > 0 and math.isfinite(metric["value"]), key
    line = json.loads(run.final_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    original = engine.run_batched
    result = small(name, trace=True)
    assert result["failed"] == 0, result["failures"]
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == tracing.PER_LAYER_UNITS
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    # every layer the workload runs shows up
    for key in ("engine.run.s", "engine.grids_visited", "sparse_grid.similar_grid.calls",
                "detectors.z_detector.calls", "detectors.detect_batch.nn.calls",
                "synth_data.samples", "neural.GILayer.forward.s", "neural.DenseLayer.forward.s",
                "neural.epochs", "evaluation.tpr.points", "engine.cache_hits"):
        assert values[key] > 0, key
    # the patches are gone after the run
    assert engine.run_batched is original
    assert engine.similar_grid is sparse_grid.similar_grid
    assert "contains" in vars(sparse_grid.Box)


def test_dropped_troubled_point_is_a_failed_operation(monkeypatch):
    original = engine.run_batched

    def drop_one(*args, **kwargs):
        run_ = original(*args, **kwargs)
        run_.troubled = run_.troubled[1:]
        return run_

    monkeypatch.setattr(engine, "run_batched", drop_one)
    result = small("pipeline2d", trace=False)
    assert result["failed"] >= 1
    assert json.loads(run.final_line(result))["correct"] is False


def test_percentile_needs_ten_samples_beyond_it():
    assert run.summarize([1.0, 2.0, 3.0])["tail"] is None
    assert run.summarize([float(i) for i in range(19)])["tail"] is None
    assert run.summarize([float(i) for i in range(20)])["tail"] == {"percentile": 50,
                                                                    "value": 9.0}
    stat = run.summarize([float(i) for i in range(100)])
    assert stat["tail"] == {"percentile": 90, "value": 89.0}
    assert stat["n"] == 100


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS
