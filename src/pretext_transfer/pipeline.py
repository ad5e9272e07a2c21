"""Training stages: source pretraining, representation-only transfer, and
conventional transfer with an aggressive classifier learning rate."""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, TrainingDiverged, ValidationError
from .manifest import write_text_file
from .network import (
    CLASSIFICATION,
    LayerSpec,
    NetworkState,
    Session,
    TrainConfig,
    accuracy,
    init_network,
    replace_head,
    train,
)

logger = logging.getLogger(__name__)

TL_HEAD_MULTIPLIER = 10.0
SOURCE_ACCURACY_GATE = 0.9


def write_run_log(path, losses: list[float], warnings: tuple[str, ...] = ()) -> None:
    """The warnings, then one ``epoch loss`` line per epoch: the epoch index
    and its mean training loss. Nothing in it depends on timing, so a rerun
    writes the same bytes."""
    if path is None:
        return
    lines = list(warnings)
    lines.extend(f"{epoch} {loss:.12g}" for epoch, loss in enumerate(losses))
    write_text_file(path, "\n".join(lines) + "\n")


def _train_stage(stage: str, sessions: list[Session]) -> list[tuple[NetworkState, list[float]]]:
    try:
        return train(sessions)
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
    [(state, losses)] = _train_stage(
        "source", [Session(state, source_data.features, source_data.labels, cfg)]
    )
    train_accuracy = accuracy(state, source_data.features, source_data.labels)
    if train_accuracy < SOURCE_ACCURACY_GATE:
        logger.warning(
            "source pretraining accuracy %.3f is below the %.1f sanity gate",
            train_accuracy,
            SOURCE_ACCURACY_GATE,
        )
    write_run_log(log_path, losses)
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
    [(state, losses)] = _train_stage("prt", [Session(source_model, pseudo.features, pseudo.labels, cfg)])
    write_run_log(log_path, losses)
    return state


@dataclass(frozen=True)
class TlSession:
    """One conventional-transfer session: the model it starts from, its target
    training set and config, the seed of its new head (default: the config
    seed + 1) and its run log."""

    m1: NetworkState
    target_train: LabeledSet
    cfg: TrainConfig
    head_seed: int | None = None
    log_path: str | Path | None = None


def tl_train(sessions: Sequence[TlSession]) -> list[NetworkState]:
    """Replace each session's head for its target label set and fine-tune
    everything, all sessions in one lockstep ``train`` call.

    No group is frozen, and the new head trains at ``TL_HEAD_MULTIPLIER``
    times the base learning rate, whatever a session's ``cfg`` says. The
    sessions must share every config field but the seed.
    """
    runs, warnings = [], []
    for session in sessions:
        cfg = replace(session.cfg, frozen_groups=frozenset(), classifier_lr_multiplier=TL_HEAD_MULTIPLIER)
        target_train = session.target_train
        empty = np.flatnonzero(np.bincount(target_train.labels, minlength=target_train.class_count) == 0)
        for c in empty:
            logger.warning("tl stage: class %d has no training samples", c)
        warnings.append(tuple(f"warning: class {c} has no training samples" for c in empty))
        head_seed = cfg.seed + 1 if session.head_seed is None else session.head_seed
        start = replace_head(session.m1, target_train.class_count, head_seed)
        runs.append(Session(start, target_train.features, target_train.labels, cfg))
    results = _train_stage("tl", runs)
    for session, (_, losses), notes in zip(sessions, results, warnings):
        write_run_log(session.log_path, losses, notes)
    return [state for state, _ in results]
