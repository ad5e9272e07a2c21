"""Command-line interface for the experiment pipeline."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import build_experiment_config, int_list
from .errors import ValidationError
from .harness import (
    run_cluster,
    run_dict,
    run_evaluate,
    run_experiment,
    run_generate,
    run_prt,
    run_pretrain,
    run_tl,
)
from .metrics import render_report_text

_STAGES = {
    "generate": (run_generate, "generate the synthetic source/unlabeled/target datasets"),
    "pretrain": (run_pretrain, "train the source model on the source dataset"),
    "cluster": (run_cluster, "cluster unlabeled projections into pseudo-classes"),
    "prt": (run_prt, "representation-only transfer, once per master seed (classifier frozen)"),
    "tl": (run_tl, "conventional transfer, every session of a ratio in lockstep"),
    "dict": (run_dict, "build per-cell feature dictionaries for the fused method"),
    "evaluate": (run_evaluate, "score every configured cell and write the reports"),
    "run-all": (run_experiment, "run the whole pipeline end to end"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretext-transfer",
        description="Representation transfer experiments on synthetic two-domain data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _STAGES.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", type=Path, default=None, help="experiment config file (key = value lines)")
        sub.add_argument("--seed", type=int, default=None, help="master seed override")
        sub.add_argument("--out", type=Path, default=None, help="output directory override")
        sub.add_argument("--ratios", type=int_list, default=None, help="comma-separated imbalance ratios override")
        sub.add_argument("--folds", type=int, default=None, help="fold count override")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = build_experiment_config(
            config_path=args.config, seed=args.seed, out=args.out,
            ratios=args.ratios, folds=args.folds,
        )
        result = _STAGES[args.command][0](cfg)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command in ("evaluate", "run-all"):
        print(render_report_text(result), end="")
        print(f"report written to {cfg.out_dir / 'report.csv'} and {cfg.out_dir / 'report.txt'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
