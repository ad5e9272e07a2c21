"""One measured operation in a fresh interpreter.

Reads a job as JSON on stdin, imports ``pretext_transfer`` from the checkout's
``src/``, builds the ``ExperimentConfig``, runs the job's set-up stages and then
its timed stages (``harness.run_*`` by name), and prints one JSON line: when
set-up ended, the timed wall and CPU seconds, the peak resident memory and the
environment, plus the per-layer figures when the job is traced.

A fresh interpreter per operation gives each its own memory high-water mark
and makes interpreter start and package import part of the set-up it measures.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import tracing

TUPLE_FIELDS = ("hidden", "ratios", "methods")


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import pretext_transfer

    expected = (root / "src" / "pretext_transfer").resolve()
    if Path(pretext_transfer.__file__).resolve().parent != expected:
        raise ImportError(f"pretext_transfer was imported from {pretext_transfer.__file__}, not {expected}")
    from pretext_transfer import harness

    return harness


def make_config(spec: dict):
    from pretext_transfer.data import SynthConfig
    from pretext_transfer.harness import ExperimentConfig

    fields = dict(spec)
    fields["synth"] = SynthConfig(**fields.get("synth", {}))
    for key in TUPLE_FIELDS:
        if key in fields:
            fields[key] = tuple(fields[key])
    return ExperimentConfig(**fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """NumPy's bundled OpenBLAS and the thread count it runs with right now."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return {"blas": "not the bundled scipy-openblas", "blas_threads": None}
    lib = ctypes.CDLL(str(libs[0]))
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return {"blas": get_config().decode(), "blas_threads": get_threads()}


def environment(cfg) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": cfg.workers,
        "seed": cfg.master_seed,
    }


def main() -> None:
    job = json.loads(sys.stdin.read())
    harness = _import_package(Path(job["root"]))
    recorder = None
    if job["trace_dir"]:
        recorder = tracing.Recorder(Path(job["trace_dir"]))
        tracing.install(recorder)
    cfg = make_config(job["config"])
    for stage in job["setup"]:
        getattr(harness, stage)(cfg)
    ready_at = time.perf_counter()

    cpu_start = tracing.process_cpu_s()
    start = time.perf_counter()
    if recorder:
        recorder.enabled = True
    for stage in job["timed"]:
        getattr(harness, stage)(cfg)
    run_s = time.perf_counter() - start
    cpu_s = tracing.process_cpu_s() - cpu_start
    if recorder:
        recorder.enabled = False

    # Linux reports kilobytes: this process's high-water mark plus that of its
    # largest reaped pool worker
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready_at": ready_at,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "env": environment(cfg),
        "layers": recorder.collect() if recorder else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
