"""Experiment grid orchestration: data generation, one pre-text representation
transfer (PRT) per master seed, conventional transfer (TL) with every session
of a ratio (each fold, both routes) trained in lockstep, per-cell dictionaries,
evaluation of the TL / PRT+TL / All methods with each cell scored in one pass,
and report writing. Every random stream derives from the master seed, so a
rerun with the same seed reproduces the report byte for byte."""

from __future__ import annotations

import ctypes
import hashlib
import logging
from dataclasses import dataclass, fields, replace
from functools import cache, wraps
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterModel,
    extract_projection,
    load_cluster_model,
    pseudo_label,
    save_cluster_model,
)
from .data import (
    ALLOWED_RATIOS,
    POSITIVE_CLASS,
    FoldPlan,
    LabeledSet,
    SynthConfig,
    UnlabeledSet,
    apply_imbalance,
    generate_domains,
    load_dataset,
    make_folds,
    save_dataset,
    subset,
)
from .dictionary import (
    CRCConfig,
    build_dictionary,
    class_probabilities,
    load_dictionary,
    save_dictionary,
)
from .errors import ConfigError
from .manifest import write_text_file
from .metrics import (
    METHOD_ORDER,
    FoldMetrics,
    MetricsReport,
    aggregate_folds,
    compute_metrics,
    confusion_counts,
    fuse_predict,
    render_folds_csv,
    render_report_csv,
    render_report_text,
)
from .network import (
    CLASSIFICATION,
    REPRESENTATION,
    LayerSpec,
    NetworkState,
    TrainConfig,
    forward,
    load_checkpoint,
    save_checkpoint,
    validate_layer_specs,
)
from .pipeline import TlSession, pretrain_source, prt_train, tl_train

logger = logging.getLogger(__name__)

METHOD_TL, METHOD_PRT_TL, METHOD_ALL = METHOD_ORDER


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
    crc: CRCConfig = CRCConfig()
    ratios: tuple[int, ...] = ALLOWED_RATIOS
    fold_count: int = 5
    methods: tuple[str, ...] = METHOD_ORDER
    # Read by no stage: every stage runs in the calling process. `perfbench`
    # still sets it, and it goes with that benchmark's `grid-par` workload.
    workers: int = 1
    kmeans_max_iters: int = 200
    kmeans_tol: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if not self.ratios:
            raise ConfigError("ratios must not be empty")
        bad_ratios = set(self.ratios) - set(ALLOWED_RATIOS)
        if bad_ratios:
            raise ConfigError(f"ratios must be a subset of {ALLOWED_RATIOS}, got {sorted(bad_ratios)}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        bad_methods = set(self.methods) - set(METHOD_ORDER)
        if bad_methods:
            raise ConfigError(f"methods must be a subset of {METHOD_ORDER}, got {sorted(bad_methods)}")
        if self.fold_count < 2:
            raise ConfigError("fold_count must be >= 2: with one fold every training split is empty")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.hidden:
            raise ConfigError("need at least one hidden representation layer")
        try:
            validate_layer_specs(build_layer_specs(self.synth.dim, self.synth.source_class_count,
                                                   self.hidden, self.projection_dim))
        except ConfigError as exc:
            raise ConfigError(f"hidden/projection_dim: {exc}") from exc
        for stage, epochs, lr in [("source", self.source_epochs, self.source_lr),
                                  ("prt", self.prt_epochs, None), ("tl", self.tl_epochs, None)]:
            try:
                _train_config(self, epochs, seed=0, base_lr=lr)
            except ConfigError as exc:
                raise ConfigError(f"{stage} stage: {exc}") from exc


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-stage/per-cell seed from the master seed and a label path."""
    text = ":".join([str(master_seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def build_layer_specs(
    input_dim: int, label_count: int, hidden: tuple[int, ...], projection_dim: int
) -> list[LayerSpec]:
    specs = []
    prev = input_dim
    for width in hidden:
        specs.append(LayerSpec(prev, width, "relu", REPRESENTATION))
        prev = width
    specs.append(LayerSpec(prev, projection_dim, "identity", REPRESENTATION))
    specs.append(LayerSpec(projection_dim, label_count, "identity", CLASSIFICATION))
    return specs


def _train_config(
    cfg: ExperimentConfig, epochs: int, seed: int, base_lr: float | None = None
) -> TrainConfig:
    """The hyperparameters every training stage shares; each stage sets its
    own head learning-rate multiplier."""
    return TrainConfig(
        epochs=epochs,
        batch_size=cfg.batch_size,
        base_lr=cfg.base_lr if base_lr is None else base_lr,
        momentum=cfg.momentum,
        seed=seed,
    )


def _needs_prt_route(cfg: ExperimentConfig) -> bool:
    return METHOD_PRT_TL in cfg.methods or METHOD_ALL in cfg.methods


# ---- output layout ----------------------------------------------------------

def data_path(cfg: ExperimentConfig, name: str) -> Path:
    return cfg.out_dir / f"{name}.bin"


def source_ckpt_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "source.ckpt"


def clusters_ckpt_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "clusters.ckpt"


def prt_ckpt_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "prt.ckpt"


def cell_dir(cfg: ExperimentConfig, ratio: int, fold: int) -> Path:
    return cfg.out_dir / str(ratio) / str(fold)


def cell_path(cfg: ExperimentConfig, ratio: int, fold: int, stage: str) -> Path:
    return cell_dir(cfg, ratio, fold) / f"{stage}.ckpt"


def cell_log(cfg: ExperimentConfig, ratio: int, fold: int, stage: str) -> Path:
    return cell_dir(cfg, ratio, fold) / f"{stage}.log"


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing checkpoint or data file: {path}")
    return path


def _cells(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    return [(ratio, fold) for ratio in cfg.ratios for fold in range(cfg.fold_count)]


@cache
def _openblas() -> ctypes.CDLL | None:
    """NumPy's bundled scipy-openblas, or None when NumPy does not bundle it or
    it cannot be loaded."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return lib


def _set_blas_threads(count: int) -> int | None:
    """Set the thread count of NumPy's bundled OpenBLAS; return the count it
    had, or None (and change nothing) when there is no such library."""
    lib = _openblas()
    if lib is None:
        return None
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    return before


def _one_blas_thread(stage):
    """Run the stage with OpenBLAS on one thread and restore the caller's count
    when it returns or raises.

    Every product of a stage is small (p = 16, at most a few hundred
    dictionary columns), so a second BLAS thread only adds wake-up and spin
    time; the thread count does not change OpenBLAS's results here.
    """
    @wraps(stage)
    def limited(*args, **kwargs):
        before = _set_blas_threads(1)
        try:
            return stage(*args, **kwargs)
        finally:
            if before is not None:
                _set_blas_threads(before)

    return limited


# ---- stages -----------------------------------------------------------------

@_one_blas_thread
def run_generate(cfg: ExperimentConfig) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Generate the two-domain data and persist it with a provenance manifest."""
    synth = replace(cfg.synth, seed=derive_seed(cfg.master_seed, "data"))
    source, unlabeled, target = generate_domains(synth)
    save_dataset(source, data_path(cfg, "source"))
    save_dataset(unlabeled, data_path(cfg, "unlabeled"))
    save_dataset(target, data_path(cfg, "target"))
    manifest_lines = [f"master_seed = {cfg.master_seed}"]
    for field in fields(synth):
        manifest_lines.append(f"{field.name} = {getattr(synth, field.name)}")
    write_text_file(cfg.out_dir / "manifest.txt", "\n".join(manifest_lines) + "\n")
    return source, unlabeled, target


@_one_blas_thread
def run_pretrain(cfg: ExperimentConfig) -> NetworkState:
    source = load_dataset(_require(data_path(cfg, "source")))
    specs = build_layer_specs(
        source.features.shape[1], source.class_count, cfg.hidden, cfg.projection_dim
    )
    train_cfg = _train_config(
        cfg, cfg.source_epochs, derive_seed(cfg.master_seed, "source"), base_lr=cfg.source_lr
    )
    model = pretrain_source(specs, source, train_cfg, log_path=cfg.out_dir / "logs" / "source.log")
    save_checkpoint(model, source_ckpt_path(cfg))
    return model


@_one_blas_thread
def run_cluster(cfg: ExperimentConfig) -> ClusterModel | None:
    if not _needs_prt_route(cfg):
        logger.info("cluster stage skipped: no configured method needs it")
        return
    source_model = load_checkpoint(_require(source_ckpt_path(cfg)))
    unlabeled = load_dataset(_require(data_path(cfg, "unlabeled")))
    model, _ = pseudo_label(
        source_model,
        unlabeled.features,
        source_model.label_count,
        seed=derive_seed(cfg.master_seed, "cluster"),
        max_iters=cfg.kmeans_max_iters,
        tol=cfg.kmeans_tol,
    )
    save_cluster_model(model, clusters_ckpt_path(cfg))
    return model


def _load_pseudo(cfg: ExperimentConfig) -> LabeledSet:
    cluster_model = load_cluster_model(_require(clusters_ckpt_path(cfg)))
    unlabeled = load_dataset(_require(data_path(cfg, "unlabeled")))
    return LabeledSet(unlabeled.features, cluster_model.labels, cluster_model.k)


@_one_blas_thread
def run_prt(cfg: ExperimentConfig) -> None:
    """Representation-only transfer, one session per master seed.

    PRT reads only the source model and the pseudo-labelled unlabeled set, no
    fold or target data, so every grid cell starts its PRT+TL route and its
    dictionary from the same ``prt.ckpt``.
    """
    if not _needs_prt_route(cfg):
        logger.info("prt stage skipped: no configured method needs it")
        return
    source_model = load_checkpoint(_require(source_ckpt_path(cfg)))
    pseudo = _load_pseudo(cfg)
    train_cfg = _train_config(cfg, cfg.prt_epochs, derive_seed(cfg.master_seed, "prt"))
    model = prt_train(source_model, pseudo, train_cfg, log_path=cfg.out_dir / "logs" / "prt.log")
    save_checkpoint(model, prt_ckpt_path(cfg))


def _load_target(cfg: ExperimentConfig) -> tuple[LabeledSet, FoldPlan]:
    target = load_dataset(_require(data_path(cfg, "target")))
    return target, make_folds(target, cfg.fold_count)


def _cell_train_set(target: LabeledSet, folds: FoldPlan, ratio: int, fold: int) -> LabeledSet:
    train_set = subset(target, folds.train_indices[fold])
    return apply_imbalance(train_set, POSITIVE_CLASS, ratio)


@_one_blas_thread
def run_tl(cfg: ExperimentConfig) -> None:
    """Conventional transfer per cell: from the source model for the TL
    baseline, and from the representation-transferred model otherwise. Every
    session of one ratio (each fold, both routes) trains in one lockstep call."""
    target, folds = _load_target(cfg)
    source_ckpt = _require(source_ckpt_path(cfg))
    routes = []  # (method, starting model, output name)
    if METHOD_TL in cfg.methods:
        routes.append((METHOD_TL, load_checkpoint(source_ckpt), "tl"))
    if _needs_prt_route(cfg):
        routes.append((METHOD_PRT_TL, load_checkpoint(_require(prt_ckpt_path(cfg))), "prt_tl"))
    for ratio in cfg.ratios:
        sessions, paths = [], []
        for fold in range(cfg.fold_count):
            imbalanced = _cell_train_set(target, folds, ratio, fold)
            for method, start, name in routes:
                sessions.append(TlSession(
                    start,
                    imbalanced,
                    _train_config(cfg, cfg.tl_epochs, derive_seed(cfg.master_seed, ratio, fold, method, "tl")),
                    head_seed=derive_seed(cfg.master_seed, ratio, fold, method, "head"),
                    log_path=cell_log(cfg, ratio, fold, name),
                ))
                paths.append(cell_path(cfg, ratio, fold, name))
        for model, path in zip(tl_train(sessions), paths):
            save_checkpoint(model, path)


@_one_blas_thread
def run_dict(cfg: ExperimentConfig) -> None:
    """Feature dictionaries from the same imbalanced train fold used for TL."""
    if METHOD_ALL not in cfg.methods:
        logger.info("dict stage skipped: method 'All' not configured")
        return
    target, folds = _load_target(cfg)
    m1 = load_checkpoint(_require(prt_ckpt_path(cfg)))
    for ratio, fold in _cells(cfg):
        fdict = build_dictionary(m1, _cell_train_set(target, folds, ratio, fold))
        save_dictionary(fdict, cell_path(cfg, ratio, fold, "dict"))


def _evaluate_cell(cfg: ExperimentConfig, test: LabeledSet, m1: NetworkState | None,
                   ratio: int, fold: int) -> list[FoldMetrics]:
    rows = []

    def row(method: str, predictions: np.ndarray) -> FoldMetrics:
        counts = confusion_counts(predictions, test.labels, POSITIVE_CLASS)
        values = compute_metrics(counts)
        return FoldMetrics(fold, ratio, method, values.sen, values.spe, values.f1, values.acc)

    if METHOD_TL in cfg.methods:
        model = load_checkpoint(_require(cell_path(cfg, ratio, fold, "tl")))
        rows.append(row(METHOD_TL, forward(model, test.features).argmax(axis=1)))
    if _needs_prt_route(cfg):
        m2 = load_checkpoint(_require(cell_path(cfg, ratio, fold, "prt_tl")))
        rho = forward(m2, test.features)
        if METHOD_PRT_TL in cfg.methods:
            rows.append(row(METHOD_PRT_TL, rho.argmax(axis=1)))
        if METHOD_ALL in cfg.methods:
            fdict = load_dictionary(_require(cell_path(cfg, ratio, fold, "dict")))
            q = class_probabilities(fdict, extract_projection(m1, test.features), cfg.crc)
            rows.append(row(METHOD_ALL, fuse_predict(rho, q)[0]))
    return rows


@_one_blas_thread
def run_evaluate(cfg: ExperimentConfig) -> MetricsReport:
    """Score every configured (method, ratio, fold) cell and write the reports."""
    target, folds = _load_target(cfg)
    if METHOD_TL in cfg.methods:  # a missing TL stage is named before the shared PRT model
        for ratio, fold in _cells(cfg):
            _require(cell_path(cfg, ratio, fold, "tl"))
    m1 = load_checkpoint(_require(prt_ckpt_path(cfg))) if METHOD_ALL in cfg.methods else None
    rows = [row for ratio, fold in _cells(cfg)
            for row in _evaluate_cell(cfg, subset(target, folds.test_indices[fold]), m1, ratio, fold)]
    report = aggregate_folds(rows)
    write_text_file(cfg.out_dir / "report.csv", render_report_csv(report))
    write_text_file(cfg.out_dir / "folds.csv", render_folds_csv(report))
    write_text_file(cfg.out_dir / "report.txt", render_report_text(report))
    return report


@_one_blas_thread
def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """The full grid: generate, pretrain, cluster, PRT, per-cell training, evaluate."""
    run_generate(cfg)
    run_pretrain(cfg)
    run_cluster(cfg)
    run_prt(cfg)
    run_tl(cfg)
    run_dict(cfg)
    return run_evaluate(cfg)
