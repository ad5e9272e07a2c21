"""The names the committed benchmark (``perfbench/``) drives the package by.

The benchmark calls ``harness.run_*`` stages by name, builds
``ExperimentConfig``/``SynthConfig`` from keyword fields, and wraps the
functions in ``perfbench/tracing.py::TRACED`` by name in the modules that
importing ``harness`` loads. Renaming or deleting any of them would break the
benchmark without failing any other test. The benchmark's files are read here,
never imported or changed.
"""

import ast
import csv
import functools
import importlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from pretext_transfer import harness
from pretext_transfer.clustering import ClusterModel, load_cluster_model
from pretext_transfer.data import SynthConfig
from pretext_transfer.harness import ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def module_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def assigned_literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no top-level assignment to {name}")


def stage_names() -> set[str]:
    """Every stage run.py passes to child.py: STAGED plus the literal setup=/timed= lists."""
    tree = module_tree("run.py")
    names = set(assigned_literal(tree, "STAGED"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg in ("setup", "timed"):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(ast.literal_eval(node.value))
    return names


TRACED = assigned_literal(module_tree("tracing.py"), "TRACED")


@pytest.mark.parametrize(
    "module,function",
    [(module, function) for module, functions in TRACED.items() for function in functions],
)
def test_traced_function_exists(module, function):
    defining = importlib.import_module(f"pretext_transfer.{module}")
    assert callable(getattr(defining, function, None)), f"{module}.{function}"


def test_benchmark_import_path_loads_every_traced_module():
    """child.py imports the package, then ``harness``; tracing.install wraps
    only loaded modules, so that import must load every traced one."""
    code = ("import json, sys; import pretext_transfer; from pretext_transfer import harness; "
            "print(json.dumps(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(child.stdout))
    assert {f"pretext_transfer.{module}" for module in TRACED} <= loaded


def test_benchmark_stages_exist():
    names = stage_names()
    assert {"run_experiment", "run_evaluate", "run_cluster"} <= names
    for name in names:
        assert callable(getattr(harness, name, None)), name


def test_benchmark_config_fields_exist(tmp_path):
    tuple_fields = assigned_literal(module_tree("child.py"), "TUPLE_FIELDS")
    experiment_fields = {f.name for f in fields(ExperimentConfig)}
    # `methods` is gone from ExperimentConfig. child.py converts a tuple field
    # only when a job sets it, and no workload sets `methods`; the benchmark
    # change of ROADMAP item 8 drops it from TUPLE_FIELDS.
    assert set(tuple_fields) - {"methods"} <= experiment_fields
    cfg = ExperimentConfig(
        out_dir=str(tmp_path),
        master_seed=3,
        workers=2,
        kmeans_max_iters=60,
        kmeans_tol=0.0,
        synth=SynthConfig(unlabeled_size=200),
    )
    assert (cfg.out_dir, cfg.master_seed, cfg.workers) == (tmp_path, 3, 2)
    assert (cfg.kmeans_max_iters, cfg.kmeans_tol, cfg.synth.unlabeled_size) == (60, 0.0, 200)


def test_traced_work_counts_read_existing_fields():
    # tracing.py records kmeans iterations from ClusterModel.inertia_history
    assert "inertia_history" in {f.name for f in fields(ClusterModel)}


def traced_calls(monkeypatch, cfg: ExperimentConfig) -> Counter:
    """Run ``cfg``'s grid and count the calls of every traced function. Each
    one is wrapped wherever a loaded package module binds it, as
    tracing.install wraps it."""
    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pretext_transfer"]
    for module, functions in TRACED.items():
        defining = importlib.import_module(f"pretext_transfer.{module}")
        for function in functions:
            original = getattr(defining, function)
            counted = counting(f"{module}.{function}", original)
            for loaded in modules:
                for attr in [a for a, value in vars(loaded).items() if value is original]:
                    monkeypatch.setattr(loaded, attr, counted)
    run_experiment(cfg)
    return calls


def small_grid(out_dir: Path) -> ExperimentConfig:
    return ExperimentConfig(
        out_dir=out_dir, master_seed=1, hidden=(8,), projection_dim=6, source_epochs=1, prt_epochs=1,
        tl_epochs=1, ratios=(10, 100), fold_count=2,
        synth=SynthConfig(source_class_count=4, dim=6, samples_per_class=12, unlabeled_size=80,
                          positives=20, negatives=20),
    )


def test_every_traced_function_runs_in_a_grid(tmp_path, monkeypatch):
    """A traced name that no stage calls reads zero in every benchmark record;
    a small grid must call each one."""
    calls = traced_calls(monkeypatch, small_grid(tmp_path))
    traced = [f"{module}.{function}" for module, functions in TRACED.items() for function in functions]
    assert [name for name in traced if calls[name] == 0] == []


def test_default_grid_makes_the_counts_ci_checks(tmp_path, monkeypatch):
    """The traced counts that CI's `grid` step checks, from the default grid at
    the seed that step runs; the script is read here, never imported or changed."""
    script = ast.parse((PERFBENCH.parent / ".github" / "scripts" / "check_grid_trace.py").read_text())
    expected = {name: value for name, value in assigned_literal(script, "EQUAL").items()
                if name.endswith(".calls")}
    calls = traced_calls(monkeypatch, ExperimentConfig(out_dir=tmp_path, master_seed=11))
    assert {name: calls[name.removesuffix(".calls")] for name in expected} == expected


@pytest.fixture(scope="module")
def grid_outputs(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("grid")
    run_experiment(small_grid(out_dir))
    return out_dir


def test_clusters_file_keeps_the_inertia_line_the_benchmark_reads(grid_outputs):
    # perfbench/run.py::cluster_inertia reads `inertia = …` from the header,
    # though the package derives the inertia from its history
    path = grid_outputs / "clusters.ckpt"
    header = path.read_bytes().split(b"\n\n", 1)[0].decode()
    values = [line.removeprefix("inertia = ") for line in header.splitlines() if line.startswith("inertia = ")]
    assert values == [repr(load_cluster_model(path).inertia_history[-1])]


def test_report_keeps_the_columns_the_benchmark_reads(grid_outputs):
    # perfbench/run.py::report_quality averages each method's `acc` means and
    # reads All's `sen` mean at ratio 10
    rows = list(csv.DictReader(io.StringIO((grid_outputs / "report.csv").read_text())))
    assert {"ratio", "method", "metric", "mean"} <= set(rows[0])
    means = {(int(r["ratio"]), r["method"], r["metric"]): float(r["mean"]) for r in rows}
    for method in ("TL", "PRT+TL", "All"):
        assert {ratio for ratio, m, metric in means if (m, metric) == (method, "acc")} == {10, 100}
    assert 0 <= means[10, "All", "sen"] <= 100
