"""Training stages: source pretraining, representation-only transfer, and
conventional transfer with an aggressive classifier learning rate. A stage
is given one ``TrainConfig`` and its seeds, builds its sessions and passes
``_train_stage`` its own head multiplier: 1 for source, 0 for PRT and
``TL_HEAD_MULTIPLIER`` for TL."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .data import LabeledSet
from .errors import TrainingDiverged
from .manifest import write_text_file
from .network import (
    NetworkState,
    Session,
    TrainConfig,
    accuracy,
    init_network,
    replace_head,
    train,
)

TL_HEAD_MULTIPLIER = 10.0
SOURCE_ACCURACY_GATE = 0.9


def _train_stage(
    stage: str, sessions: list[Session], cfg: TrainConfig, head_multiplier: float, log_paths: Sequence
) -> list[NetworkState]:
    """Every training stage's one path: one lockstep ``train`` call, whose
    divergence error names the stage, then the run log of each session whose
    path is not ``None``: one ``epoch loss`` line per epoch, the epoch index and
    its mean training loss, so a rerun writes the same bytes."""
    try:
        results = train(sessions, cfg, head_multiplier)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"{stage} stage: {exc}") from exc
    for path, (_, losses) in zip(log_paths, results):
        if path is not None:
            write_text_file(path, "\n".join(f"{epoch} {loss:.12g}" for epoch, loss in enumerate(losses)) + "\n")
    return [state for state, _ in results]


def pretrain_source(
    widths: tuple[int, ...], source_data: LabeledSet, cfg: TrainConfig, seed: int, log_path=None
) -> NetworkState:
    """Supervised training of a fresh network, the stand-in for an off-the-shelf source model.

    The stage's rule is a head multiplier of 1: every layer trains at the base
    learning rate. ``seed`` seeds both the initialisation and the shuffle.
    """
    [state] = _train_stage("source", [Session(init_network(widths, seed), source_data, seed)], cfg, 1.0, [log_path])
    train_accuracy = accuracy(state, source_data.features, source_data.labels)
    if train_accuracy < SOURCE_ACCURACY_GATE:
        import logging  # only here: a module-level import maps logging on every run, for one warning

        logging.getLogger(__name__).warning(
            "source pretraining accuracy %.3f is below the %.1f sanity gate",
            train_accuracy,
            SOURCE_ACCURACY_GATE,
        )
    return state


def prt_train(
    source_model: NetworkState, pseudo: LabeledSet, cfg: TrainConfig, seed: int, log_path=None
) -> NetworkState:
    """Train the representation on pseudo-labels with the classifier frozen.

    The stage's rule is a head multiplier of 0: the head (the last layer)
    stays bit-identical and every other layer trains at the base learning
    rate. The pseudo-label cluster count must equal the source model's label
    count so the fixed head can be reused as-is; ``train`` refuses any other.
    """
    [state] = _train_stage("prt", [Session(source_model, pseudo, seed)], cfg, 0.0, [log_path])
    return state


@dataclass(frozen=True)
class TlSession:
    """One conventional-transfer session: the model it starts from, its target
    training set, the seeds of its shuffle and of its new head, and its run log."""

    start: NetworkState
    target_train: LabeledSet
    seed: int
    head_seed: int
    log_path: str | Path | None = None


def tl_train(sessions: Sequence[TlSession], cfg: TrainConfig) -> list[NetworkState]:
    """Replace each session's head for its target label set and fine-tune
    everything, all sessions in one lockstep ``train`` call under ``cfg``.

    The stage's rule is a head multiplier of ``TL_HEAD_MULTIPLIER``.
    """
    runs = [Session(replace_head(s.start, s.target_train.class_count, s.head_seed), s.target_train, s.seed)
            for s in sessions]
    return _train_stage("tl", runs, cfg, TL_HEAD_MULTIPLIER, [s.log_path for s in sessions])
