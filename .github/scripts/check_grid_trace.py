"""Check the record of a traced `perfbench/run.py --workload grid --trace 1` run.

Usage: python .github/scripts/check_grid_trace.py BENCH_OUTPUT

Reads the output's last line, the JSON record, once, and checks the run's
outcome and the default grid's traced counts; the workflow step that runs it
says where each count comes from. Prints every mismatch and exits 1 if there
is one.
"""

import json
import sys

EQUAL = {
    "pipeline.prt_train.calls": 1,
    "pipeline.tl_train.calls": 5,
    "network.loss_and_grad.calls": 3530,
    "network.sgd_update.calls": 3530,
    "clustering.extract_projection.calls": 3,
    "metrics.compute_metrics.calls": 75,
    "metrics.fuse_predict.calls": 25,
    "dictionary.class_probabilities.calls": 25,
    "data.make_folds.calls": 3,
    "data.load_dataset.calls": 6,
}
POSITIVE = ("network.step_us", "clustering.kmeans_fit.iters")


def mismatches(record: dict) -> list[str]:
    found = []
    if record["correct"] is not True:
        found.append(f"correct = {record['correct']!r}, expected True")
    if record["failed"] != 0:
        found.append(f"failed = {record['failed']!r}, expected 0")
    values = {name: metric["value"] for name, metric in record["metrics"].items()}
    for name, expected in EQUAL.items():
        if values.get(name) != expected:
            found.append(f"{name} = {values.get(name)!r}, expected {expected}")
    for name in POSITIVE:
        if not (values.get(name) or 0) > 0:
            found.append(f"{name} = {values.get(name)!r}, expected > 0")
    return found


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        found = mismatches(json.loads(f.read().splitlines()[-1]))
    print("\n".join(found) or "traced grid record: every check holds")
    sys.exit(1 if found else 0)
