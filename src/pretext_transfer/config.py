"""Plain key=value experiment config files, with '#' comments."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .harness import ExperimentConfig


def int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated integers, blanks dropped; raises ValueError on a bad item."""
    return tuple(int(part) for part in raw.split(",") if part.strip())


# file key -> (ExperimentConfig field, or "<nested config>.<field>", parser).
# Every default comes from the dataclasses; only the output directory has a
# default here, because ExperimentConfig requires one.
FIELDS = {
    "out": ("out_dir", Path),
    "seed": ("master_seed", int),
    "folds": ("fold_count", int),
    "source_classes": ("synth.source_class_count", int),
    "dim": ("synth.dim", int),
    "samples_per_class": ("synth.samples_per_class", int),
    "unlabeled_size": ("synth.unlabeled_size", int),
    "positives": ("synth.positives", int),
    "negatives": ("synth.negatives", int),
    "shift": ("synth.shift", float),
    "noise": ("synth.noise", float),
    "hidden": ("hidden", int_list),
    "projection_dim": ("projection_dim", int),
    "source_epochs": ("source_epochs", int),
    "source_lr": ("source_lr", float),
    "prt_epochs": ("prt_epochs", int),
    "tl_epochs": ("tl_epochs", int),
    "lr": ("base_lr", float),
    "batch": ("batch_size", int),
    "momentum": ("momentum", float),
    "ridge": ("ridge", float),
    "ratios": ("ratios", int_list),
}


def parse_config_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Return {key: (raw value, line number)}; raises ConfigError with the line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key '{key}' repeats line {values[key][1]}")
        values[key] = (value, lineno)
    return values


def build_experiment_config(
    config_path: str | Path | None = None,
    seed: int | None = None,
    out: str | Path | None = None,
    ratios: tuple[int, ...] | None = None,
    folds: int | None = None,
) -> ExperimentConfig:
    """Merge config-file values and flag overrides over the package defaults."""
    values: dict[str, object] = {"out_dir": Path("out")}
    if config_path is not None:
        for key, (raw, lineno) in parse_config_file(config_path).items():
            field, parse = FIELDS[key]
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{config_path}:{lineno}: bad value for '{key}': {raw!r}") from exc
    overrides = {
        "master_seed": seed,
        "out_dir": out,
        "ratios": None if ratios is None else tuple(ratios),
        "fold_count": folds,
    }
    values.update((field, value) for field, value in overrides.items() if value is not None)

    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for field, value in values.items():
        group, _, leaf = field.partition(".")
        if leaf:
            nested.setdefault(group, {})[leaf] = value
        else:
            top[field] = value
    for group, group_values in nested.items():
        top[group] = replace(getattr(ExperimentConfig, group), **group_values)
    return ExperimentConfig(**top)
