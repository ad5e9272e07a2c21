"""Claims mode: the paper's method comparison over several seeds. A report, never a gate.

    python3 perfbench/claims.py [--seeds 1 2 3]

Runs the default grid once per seed, then prints and writes the mean accuracy
per imbalance ratio of TL, PRT+TL and All, the PRT+TL-TL and All-TL gaps, and
the mean All-TL gap. The paper claims All > TL; rows where the claim fails
are flagged, and the exit code is 0 either way. Output goes to
``perfbench/out/claims/`` (one grid directory per seed, ``claims.txt`` and
``claims.json``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
from collections import defaultdict

from run import OUT, ROOT

METHODS = ("TL", "PRT+TL", "All")


def accuracy_by_ratio(report: bytes) -> dict[tuple[int, str], float]:
    return {
        (int(row["ratio"]), row["method"]): float(row["mean"])
        for row in csv.DictReader(io.StringIO(report.decode()))
        if row["metric"] == "acc"
    }


def claims_table(per_seed: dict[int, dict[tuple[int, str], float]]) -> tuple[str, dict]:
    acc = defaultdict(list)
    for table in per_seed.values():
        for key, value in table.items():
            acc[key].append(value)
    ratios = sorted({ratio for ratio, _ in acc})
    lines = [f"{'ratio':>6} {'TL':>8} {'PRT+TL':>8} {'All':>8}   {'P-T':>6} {'A-T':>6}"]
    rows = []
    for ratio in ratios:
        tl, pt, al = (statistics.fmean(acc[(ratio, m)]) for m in METHODS)
        flag = (" ALL<TL" if al < tl else "") + (" PRT+TL<TL-1" if pt < tl - 1.0 else "")
        lines.append(f"{ratio:>6} {tl:8.2f} {pt:8.2f} {al:8.2f}   {pt - tl:6.2f} {al - tl:6.2f}{flag}")
        rows.append({"ratio": ratio, "TL": tl, "PRT+TL": pt, "All": al,
                     "PRT+TL-TL": pt - tl, "All-TL": al - tl})
    mean_gap = statistics.fmean(row["All-TL"] for row in rows)
    holds = mean_gap > 0 and all(row["All-TL"] >= 0 for row in rows)
    lines.append(f"mean All-TL gap: {mean_gap:.2f}  claim All > TL {'holds' if holds else 'does not hold'}")
    return "\n".join(lines) + "\n", {"seeds": sorted(per_seed), "rows": rows,
                                     "mean_all_minus_tl": mean_gap, "claim_holds": holds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from pretext_transfer.harness import ExperimentConfig, run_experiment

    out = OUT / "claims"
    per_seed = {}
    start = time.perf_counter()
    for seed in args.seeds:
        cfg = ExperimentConfig(out_dir=out / str(seed), master_seed=seed)
        run_experiment(cfg)
        per_seed[seed] = accuracy_by_ratio((cfg.out_dir / "report.csv").read_bytes())
    text, record = claims_table(per_seed)
    header = f"claims over seeds {args.seeds} ({time.perf_counter() - start:.1f} s)\n"
    print(header + text, end="")
    (out / "claims.txt").write_text(header + text)
    (out / "claims.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
