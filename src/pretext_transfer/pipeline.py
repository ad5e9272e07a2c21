"""Training stages: source pretraining, representation-only transfer, and
conventional transfer with an aggressive classifier learning rate."""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, TrainingDiverged, ValidationError
from .manifest import write_text_file
from .network import (
    CLASSIFICATION,
    EpochStats,
    LayerSpec,
    NetworkState,
    TrainConfig,
    accuracy,
    init_network,
    replace_head,
    train,
)

logger = logging.getLogger(__name__)

TL_HEAD_MULTIPLIER = 10.0
SOURCE_ACCURACY_GATE = 0.9


def write_run_log(path, history: list[EpochStats], warnings: tuple[str, ...] = ()) -> None:
    """One line per epoch: epoch index, mean loss, elapsed ms."""
    if path is None:
        return
    lines = list(warnings)
    lines.extend(f"{s.epoch} {s.mean_loss:.12g} {s.elapsed_ms:.3f}" for s in history)
    write_text_file(path, "\n".join(lines) + "\n")


def _train_stage(
    stage: str, state: NetworkState, features, labels, cfg: TrainConfig
) -> tuple[NetworkState, list[EpochStats]]:
    try:
        return train(state, features, labels, cfg)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"{stage} stage: {exc}") from exc


def pretrain_source(
    specs: list[LayerSpec], source_data: LabeledSet, cfg: TrainConfig, log_path=None
) -> NetworkState:
    """Supervised training of a fresh network, the stand-in for an off-the-shelf source model.

    Every group trains at the base learning rate, whatever ``cfg`` says.
    """
    cfg = replace(cfg, frozen_groups=frozenset(), classifier_lr_multiplier=1.0)
    state = init_network(specs, cfg.seed)
    if source_data.class_count != state.label_count:
        raise ValidationError(
            f"source data has {source_data.class_count} classes but the network "
            f"outputs {state.label_count}"
        )
    state, history = _train_stage("source", state, source_data.features, source_data.labels, cfg)
    train_accuracy = accuracy(state, source_data.features, source_data.labels)
    if train_accuracy < SOURCE_ACCURACY_GATE:
        logger.warning(
            "source pretraining accuracy %.3f is below the %.1f sanity gate",
            train_accuracy,
            SOURCE_ACCURACY_GATE,
        )
    write_run_log(log_path, history)
    return state


def prt_train(
    source_model: NetworkState, pseudo: LabeledSet, cfg: TrainConfig, log_path=None
) -> NetworkState:
    """Train the representation on pseudo-labels with the classifier frozen.

    The classification group is frozen and the rest trains at the base
    learning rate, whatever ``cfg`` says. The pseudo-label cluster count must
    equal the source model's label count so the fixed classifier head can be
    reused as-is.
    """
    cfg = replace(cfg, frozen_groups=frozenset({CLASSIFICATION}), classifier_lr_multiplier=1.0)
    if pseudo.class_count != source_model.label_count:
        raise ConfigError(
            f"pseudo-label cluster count {pseudo.class_count} must equal the "
            f"source model label count {source_model.label_count}"
        )
    state, history = _train_stage("prt", source_model, pseudo.features, pseudo.labels, cfg)
    write_run_log(log_path, history)
    return state


def _group_displacement(before: NetworkState, after: NetworkState) -> dict[str, float]:
    totals: dict[str, list[float]] = {}
    for old, new in zip(before.layers, after.layers):
        deltas = totals.setdefault(old.group, [])
        deltas.append(np.abs(new.weights - old.weights).sum() + np.abs(new.bias - old.bias).sum())
    sizes = {
        group: sum(l.weights.size + l.bias.size for l in before.layers if l.group == group)
        for group in totals
    }
    return {group: sum(deltas) / sizes[group] for group, deltas in totals.items()}


def tl_train(
    m1: NetworkState,
    target_train: LabeledSet,
    cfg: TrainConfig,
    head_seed: int | None = None,
    log_path=None,
) -> NetworkState:
    """Replace the head for the target label set and fine-tune everything.

    No group is frozen, and the new head trains at ``TL_HEAD_MULTIPLIER``
    times the base learning rate, whatever ``cfg`` says.
    """
    cfg = replace(cfg, frozen_groups=frozenset(), classifier_lr_multiplier=TL_HEAD_MULTIPLIER)
    if len(target_train) < 1:
        raise ValidationError("target training set is empty")
    warnings = []
    counts = np.bincount(target_train.labels, minlength=target_train.class_count)
    for c in np.flatnonzero(counts == 0):
        message = f"warning: class {c} has no training samples"
        warnings.append(message)
        logger.warning("tl stage: class %d has no training samples", c)
    if head_seed is None:
        head_seed = cfg.seed + 1
    state = replace_head(m1, target_train.class_count, head_seed)
    started = state
    state, history = _train_stage("tl", state, target_train.features, target_train.labels, cfg)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("tl stage mean per-parameter displacement: %s", _group_displacement(started, state))
    write_run_log(log_path, history, tuple(warnings))
    return state
