"""Tests of the benchmark itself, on a tiny grid (one ratio, two folds, few epochs).

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py so that the package's own test run does not
collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "ratios": [10],
    "fold_count": 2,
    "source_epochs": 2,
    "prt_epochs": 1,
    "tl_epochs": 1,
    "synth": {"samples_per_class": 20, "unlabeled_size": 300, "positives": 40, "negatives": 40},
}
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(tmp_path, workload, trace):
    return run.run_workload(workload, seed=3, seconds=0, trace=trace, overrides=TINY, out_root=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    record = tiny_run(tmp_path, workload, trace)
    line = run.result_line(record, SPEC)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_REPS
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace and workload in ("grid", "grid-par"):
        # one PRT session per (ratio, fold) cell, pool workers included
        assert line["metrics"]["pipeline.prt_train.calls"]["value"] == 2
        assert line["metrics"]["pipeline.tl_train.calls"]["value"] == 4
    if trace and workload == "pseudo-label":
        assert line["metrics"]["clustering.kmeans_fit.iters"]["value"] >= 1


def test_tampered_report_is_a_failed_operation(tmp_path, monkeypatch):
    original = run.read_output

    def tamper(path):
        if path.name == "report.csv" and path.parent.name == "grid1":
            path.write_bytes(path.read_bytes() + b"\n")
        return original(path)

    monkeypatch.setattr(run, "read_output", tamper)
    record = tiny_run(tmp_path, "grid", False)
    line = run.result_line(record, SPEC)
    assert line["attempted"] == run.MIN_REPS + run.SETUP_ONLY
    assert line["failed"] == 1 and not line["correct"]
    assert "grid1" in record["failures"][0]


def test_traced_and_untraced_runs_write_identical_reports(tmp_path):
    record = tiny_run(tmp_path, "grid", True)
    assert record["failed"] == 0
    run_dir = tmp_path / "grid-seed3-trace1"
    untraced = (run_dir / "grid0" / "report.csv").read_bytes()
    traced = (run_dir / "grid1" / "report.csv").read_bytes()
    assert traced == untraced
    assert len(record["samples"]["traced_run_s"]) == 1
