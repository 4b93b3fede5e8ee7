"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a bad program output is counted as a failed operation rather than
crashing the run, that a missing trace target only drops its layer, and
that the command refuses to run without the gbmixed sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipeline  # noqa: E402
import tracing  # noqa: E402
from workloads import Clusters, Pairs  # noqa: E402

TINY = {
    "pairs": Pairs(n_obs=120, n_iterations=3, n_predict_groups=6),
    "clusters": Clusters(n_clusters=8, min_size=20, max_size=30, n_iterations=3),
}


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_tiny(workload, trace, tmp_path, seed=3):
    return pipeline.run(TINY[workload], seed, 0.0, trace, tmp_path)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = run_tiny(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    json.dumps(result, allow_nan=False)


def test_quality_repeats_at_a_fixed_seed(tmp_path):
    a = run_tiny("clusters", False, tmp_path, seed=5)["metrics"]
    b = run_tiny("clusters", False, tmp_path, seed=5)["metrics"]
    c = run_tiny("clusters", False, tmp_path, seed=6)["metrics"]
    for name in pipeline.QUALITY:
        assert a[name] == b[name]
    assert any(a[name] != c[name] for name in pipeline.QUALITY)


def test_nan_prediction_counts_as_failure(tmp_path, monkeypatch):
    from gbmixed import prediction

    real = prediction.predict_dataset

    def poisoned(*args, **kwargs):
        table = real(*args, **kwargs)
        table.mu_conditional[0] = np.nan
        return table

    monkeypatch.setattr(prediction, "predict_dataset", poisoned)
    result = run_tiny("pairs", False, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_missing_trace_target_drops_only_its_layer(tmp_path, monkeypatch):
    renamed = tuple(
        (path, "batched_quantities_v2" if attr == "batched_quantities" else attr, name, count)
        for path, attr, name, count in tracing.TARGETS
    )
    monkeypatch.setattr(tracing, "TARGETS", renamed)
    result = run_tiny("clusters", True, tmp_path)
    assert result["correct"]
    kernel = {n for n, (_, needs) in tracing.LAYER_METRICS.items() if "likelihood.kernel" in needs}
    assert kernel and not kernel & set(result["metrics"])
    assert set(result["metrics"]) == set(declared("per_layer")) - kernel


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
