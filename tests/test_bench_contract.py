"""The names the committed benchmark (``perfbench/``) drives the package by.

The benchmark calls ``harness.run_*`` stages by name, builds
``ExperimentConfig``/``SynthConfig`` from keyword fields, and wraps the
functions in ``perfbench/tracing.py::TRACED`` by name in the modules that
importing ``harness`` loads. Renaming or deleting any of them would break the
benchmark without failing any other test. The benchmark's files are read here,
never imported or changed.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from pretext_transfer import harness
from pretext_transfer.clustering import ClusterModel
from pretext_transfer.data import SynthConfig
from pretext_transfer.harness import ExperimentConfig

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
