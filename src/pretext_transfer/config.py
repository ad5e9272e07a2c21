"""The experiment's settings, ``ExperimentConfig``, and plain key=value
config files, with '#' comments."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import ALLOWED_RATIOS, SynthConfig
from .errors import ValidationError, convert_fields
from .network import TrainConfig, validate_widths


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: Path
    master_seed: int = 0
    synth: SynthConfig = SynthConfig()
    hidden: tuple[int, ...] = (32,)
    projection_dim: int = 16
    source_epochs: int = 30
    source_lr: float = 1e-2
    prt_epochs: int = 15
    tl_epochs: int = 7
    base_lr: float = TrainConfig.base_lr
    batch_size: int = TrainConfig.batch_size
    momentum: float = TrainConfig.momentum
    ridge: float = 1e-3
    ratios: tuple[int, ...] = ALLOWED_RATIOS
    fold_count: int = 5
    # Read by no stage: every stage runs in the calling process. `perfbench`
    # still sets it, and it goes with that benchmark's `grid-par` workload.
    workers: int = 1
    kmeans_max_iters: int = 200
    kmeans_tol: float = 1e-7

    def __post_init__(self):
        convert_fields(self)
        if not self.ratios:
            raise ValidationError("ratios must not be empty")
        bad_ratios = set(self.ratios) - set(ALLOWED_RATIOS)
        if bad_ratios:
            raise ValidationError(f"ratios must be a subset of {ALLOWED_RATIOS}, got {sorted(bad_ratios)}")
        if len(set(self.ratios)) != len(self.ratios):
            raise ValidationError(f"ratios must not repeat, got {list(self.ratios)}")
        if self.fold_count < 2:
            raise ValidationError("fold_count must be >= 2: with one fold every training split is empty")
        if min(self.synth.positives, self.synth.negatives) < self.fold_count:
            raise ValidationError(f"positives and negatives must each be >= fold_count ({self.fold_count}): "
                                  "every test fold holds both classes")
        if self.synth.unlabeled_size < self.synth.source_class_count:
            raise ValidationError(f"unlabeled_size must be >= source_class_count ({self.synth.source_class_count}): "
                                  "k-means makes one pseudo-class per source class")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not self.hidden:
            raise ValidationError("need at least one hidden representation layer")
        try:
            validate_widths((self.synth.dim, *self.hidden, self.projection_dim, self.synth.source_class_count))
        except ValidationError as exc:
            raise ValidationError(f"hidden/projection_dim: {exc}") from exc
        for stage, epochs, lr in [("source", self.source_epochs, self.source_lr),
                                  ("prt", self.prt_epochs, None), ("tl", self.tl_epochs, None)]:
            try:
                _train_config(self, epochs, base_lr=lr)
            except ValidationError as exc:
                raise ValidationError(f"{stage} stage: {exc}") from exc
        if self.kmeans_max_iters < 1:
            raise ValidationError("cluster stage: kmeans_max_iters must be >= 1")
        if not (math.isfinite(self.kmeans_tol) and self.kmeans_tol >= 0):
            raise ValidationError("cluster stage: kmeans_tol must be >= 0 and finite")
        if not (math.isfinite(self.ridge) and self.ridge > 0):
            raise ValidationError("ridge must be > 0 and finite")


def _train_config(cfg: ExperimentConfig, epochs: int, base_lr: float | None = None) -> TrainConfig:
    """The hyperparameters of one stage's training call; the stage brings its
    own seeds and head learning-rate multiplier."""
    return TrainConfig(
        epochs=epochs,
        batch_size=cfg.batch_size,
        base_lr=cfg.base_lr if base_lr is None else base_lr,
        momentum=cfg.momentum,
    )


def int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated integers, blanks dropped; raises ValueError on a bad item."""
    return tuple(int(part) for part in raw.split(",") if part.strip())


# file key -> ExperimentConfig field, or "synth.<SynthConfig field>". Every
# default comes from the dataclasses; only the output directory has a default
# here, because ExperimentConfig requires one.
FIELDS = {
    "out": "out_dir",
    "seed": "master_seed",
    "folds": "fold_count",
    "source_classes": "synth.source_class_count",
    "dim": "synth.dim",
    "samples_per_class": "synth.samples_per_class",
    "unlabeled_size": "synth.unlabeled_size",
    "positives": "synth.positives",
    "negatives": "synth.negatives",
    "shift": "synth.shift",
    "noise": "synth.noise",
    "hidden": "hidden",
    "projection_dim": "projection_dim",
    "source_epochs": "source_epochs",
    "source_lr": "source_lr",
    "prt_epochs": "prt_epochs",
    "tl_epochs": "tl_epochs",
    "lr": "base_lr",
    "batch": "batch_size",
    "momentum": "momentum",
    "ridge": "ridge",
    "ratios": "ratios",
}
# a file value's parser, by its field's annotation
_PARSERS = {"int": int, "float": float, "tuple[int, ...]": int_list, "Path": Path}
_TYPES = {field.name: field.type for field in fields(ExperimentConfig)} | {
    f"synth.{field.name}": field.type for field in fields(SynthConfig)}


def parse_config_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Return {key: (raw value, line number)}; raises ValidationError with the line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in FIELDS:
            raise ValidationError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ValidationError(f"{path}:{lineno}: key '{key}' repeats line {values[key][1]}")
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
            field = FIELDS[key]
            try:
                values[field] = _PARSERS[_TYPES[field]](raw)
            except ValueError as exc:
                raise ValidationError(f"{config_path}:{lineno}: bad value for '{key}': {raw!r}") from exc
    overrides = {
        "master_seed": seed,
        "out_dir": out,
        "ratios": ratios,
        "fold_count": folds,
    }
    values.update((field, value) for field, value in overrides.items() if value is not None)

    synth_values = {field.removeprefix("synth."): values.pop(field)
                    for field in list(values) if field.startswith("synth.")}
    return ExperimentConfig(synth=SynthConfig(**synth_values), **values)
