"""Per-layer spans recorded from outside the package.

Each traced function is replaced, in every loaded ``pretext_transfer`` module
that binds it, by a wrapper that counts calls and accumulates self time: the
span's duration minus the part covered by traced spans it caused. Replacing the
binding in every module matters because ``harness`` imports ``forward`` and
``extract_projection`` by name, and ``network``, ``clustering``, ``dictionary``
and ``data`` import ``read_artifact``/``write_artifact`` the same way; patching
only the defining module would miss those calls.

Aggregates stay in memory. Pool workers forked by ``harness`` inherit the
wrappers; each one writes its own aggregate to ``spans-<pid>.json`` whenever
its outermost span closes, and the owning process merges those files.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> traced public functions; the span name is "<module>.<function>",
# except for harness stages, which are named after the stage ("harness.prt")
TRACED = {
    "harness": (
        "run_generate", "run_pretrain", "run_cluster", "run_prt", "run_tl",
        "run_dict", "run_evaluate",
    ),
    "pipeline": ("pretrain_source", "prt_train", "tl_train"),
    "network": ("loss_and_grad", "sgd_update", "forward", "save_checkpoint", "load_checkpoint"),
    "clustering": ("extract_projection", "kmeans_fit"),
    "dictionary": ("build_dictionary", "class_probabilities", "load_dictionary"),
    "metrics": ("fuse_predict", "compute_metrics"),
    "data": ("load_dataset", "make_folds"),
    "manifest": ("read_artifact", "write_artifact"),
}

PACKAGE = "pretext_transfer"


def span_name(module: str, function: str) -> str:
    if module == "harness":
        return f"harness.{function.removeprefix('run_')}"
    return f"{module}.{function}"


def process_cpu_s() -> float:
    """CPU seconds of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _extra(name: str, args, result) -> dict[str, float]:
    """Work counts recorded alongside a span, keyed by metric suffix."""
    if name in ("manifest.read_artifact", "manifest.write_artifact"):
        return {"bytes": os.path.getsize(args[0])}
    if name == "dictionary.class_probabilities":
        return {"columns": args[0].columns.shape[1]}
    if name == "clustering.kmeans_fit":
        return {"iters": len(result.inertia_history) - 1}
    return {}


class Recorder:
    """Call counts, self times and work counts per span name."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.owner = os.getpid()
        self.enabled = False
        self.values: dict[str, float] = defaultdict(float)
        self.stack: list[float] = []  # time covered by child spans, per open span
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # a forked pool worker starts empty; the parent keeps its own figures
        self.values = defaultdict(float)
        self.stack = []

    def wrap(self, name: str, fn):
        cpu = name.startswith("harness.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.stack.append(0.0)
            cpu_start = process_cpu_s() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
                self.values[f"{name}.calls"] += 1
                self.values[f"{name}.s"] += elapsed - covered
                if cpu:
                    self.values[f"{name}.cpu_s"] += process_cpu_s() - cpu_start
            for suffix, amount in _extra(name, args, result).items():
                self.values[f"{name}.{suffix}"] += amount
            if not self.stack and os.getpid() != self.owner:
                self._spill()
            return result

        return traced

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.values))
        os.replace(tmp, path)

    def collect(self) -> dict[str, float]:
        """This process's figures plus those spilled by pool workers."""
        totals = defaultdict(float, self.values)
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            for key, value in json.loads(path.read_text()).items():
                totals[key] += value
            path.unlink()
        return dict(totals)


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever a package module binds it."""
    modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module_name, functions in TRACED.items():
        defining = sys.modules[f"{PACKAGE}.{module_name}"]
        for function in functions:
            original = getattr(defining, function)
            wrapper = recorder.wrap(span_name(module_name, function), original)
            for module in modules:
                for attr in [a for a, value in vars(module).items() if value is original]:
                    setattr(module, attr, wrapper)
