"""Experiment grid orchestration: data generation, staged training over every
(fold, ratio) cell, evaluation of the TL / PRT+TL / All methods, and report
writing. Every random stream derives from the master seed, so a rerun with the
same seed reproduces the report byte for byte."""

from __future__ import annotations

import ctypes
import hashlib
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterModel,
    PseudoLabeledSet,
    extract_projection,
    kmeans_fit,
    load_cluster_model,
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
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .pipeline import (
    STAGE_PRT,
    STAGE_SOURCE,
    STAGE_TL,
    default_stage_config,
    pretrain_source,
    prt_train,
    tl_train,
)

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
    base_lr: float = 3e-4
    batch_size: int = 16
    momentum: float = 0.9
    crc: CRCConfig = CRCConfig()
    ratios: tuple[int, ...] = ALLOWED_RATIOS
    fold_count: int = 5
    methods: tuple[str, ...] = METHOD_ORDER
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
        if self.fold_count < 1:
            raise ConfigError("fold_count must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.hidden:
            raise ConfigError("need at least one hidden representation layer")


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


def _needs_prt_route(cfg: ExperimentConfig) -> bool:
    return METHOD_PRT_TL in cfg.methods or METHOD_ALL in cfg.methods


# ---- output layout ----------------------------------------------------------

def data_path(cfg: ExperimentConfig, name: str) -> Path:
    return cfg.out_dir / f"{name}.bin"


def source_ckpt_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "source.ckpt"


def clusters_ckpt_path(cfg: ExperimentConfig) -> Path:
    return cfg.out_dir / "clusters.ckpt"


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


def _single_blas_thread() -> None:
    """Pool-worker initializer: pin NumPy's bundled OpenBLAS to one thread.

    Each worker otherwise starts a full OpenBLAS thread set, and with several
    workers those threads compete for the same cores. Does nothing when NumPy
    does not bundle scipy-openblas.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return
    ctypes.CDLL(str(libs[0])).scipy_openblas_set_num_threads64_(1)


def _map_cells(cfg: ExperimentConfig, fn, cells):
    """Run fn over cells, optionally on a process pool; order of results is fixed."""
    if cfg.workers <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    try:
        context = get_context("fork")
    except ValueError:
        context = None
    with ProcessPoolExecutor(
        max_workers=cfg.workers, mp_context=context, initializer=_single_blas_thread
    ) as pool:
        return list(pool.map(fn, cells))


class _CellTask:
    """Picklable wrapper so pool workers can run a stage step for one cell."""

    def __init__(self, fn, cfg: ExperimentConfig):
        self.fn = fn
        self.cfg = cfg

    def __call__(self, cell):
        ratio, fold = cell
        return self.fn(self.cfg, ratio, fold)


# ---- stages -----------------------------------------------------------------

def run_generate(cfg: ExperimentConfig) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Generate the two-domain data and persist it with a provenance manifest."""
    synth = replace(cfg.synth, seed=derive_seed(cfg.master_seed, "data"))
    source, unlabeled, target = generate_domains(synth)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(source, data_path(cfg, "source"))
    save_dataset(unlabeled, data_path(cfg, "unlabeled"))
    save_dataset(target, data_path(cfg, "target"))
    manifest_lines = [f"master_seed = {cfg.master_seed}"]
    for name in (
        "source_class_count", "dim", "samples_per_class", "unlabeled_size",
        "positives", "negatives", "shift", "noise", "seed",
    ):
        manifest_lines.append(f"{name} = {getattr(synth, name)}")
    (cfg.out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    return source, unlabeled, target


def run_pretrain(cfg: ExperimentConfig) -> NetworkState:
    source = load_dataset(_require(data_path(cfg, "source")))
    specs = build_layer_specs(
        source.features.shape[1], source.class_count, cfg.hidden, cfg.projection_dim
    )
    stage = default_stage_config(
        STAGE_SOURCE,
        seed=derive_seed(cfg.master_seed, "source"),
        epochs=cfg.source_epochs,
        base_lr=cfg.source_lr,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
    )
    model = pretrain_source(specs, source, stage, log_path=cfg.out_dir / "logs" / "source.log")
    save_checkpoint(model, source_ckpt_path(cfg))
    return model


def run_cluster(cfg: ExperimentConfig) -> ClusterModel:
    source_model = load_checkpoint(_require(source_ckpt_path(cfg)))
    unlabeled = load_dataset(_require(data_path(cfg, "unlabeled")))
    projections = extract_projection(source_model, unlabeled.features)
    model = kmeans_fit(
        projections,
        source_model.label_count,
        seed=derive_seed(cfg.master_seed, "cluster"),
        max_iters=cfg.kmeans_max_iters,
        tol=cfg.kmeans_tol,
    )
    save_cluster_model(model, clusters_ckpt_path(cfg))
    return model


def _load_pseudo(cfg: ExperimentConfig) -> PseudoLabeledSet:
    cluster_model = load_cluster_model(_require(clusters_ckpt_path(cfg)))
    unlabeled = load_dataset(_require(data_path(cfg, "unlabeled")))
    return PseudoLabeledSet(unlabeled.features, cluster_model.labels, cluster_model.k)


def _prt_cell(cfg: ExperimentConfig, ratio: int, fold: int) -> None:
    source_model = load_checkpoint(_require(source_ckpt_path(cfg)))
    pseudo = _load_pseudo(cfg)
    stage = default_stage_config(
        STAGE_PRT,
        seed=derive_seed(cfg.master_seed, ratio, fold, METHOD_PRT_TL, "prt"),
        epochs=cfg.prt_epochs,
        base_lr=cfg.base_lr,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
    )
    model = prt_train(source_model, pseudo, stage, log_path=cell_log(cfg, ratio, fold, "prt"))
    save_checkpoint(model, cell_path(cfg, ratio, fold, "prt"))


def run_prt(cfg: ExperimentConfig) -> None:
    """Representation-only transfer, one independent session per grid cell."""
    if not _needs_prt_route(cfg):
        logger.info("prt stage skipped: no configured method needs it")
        return
    _require(source_ckpt_path(cfg))
    _require(clusters_ckpt_path(cfg))
    _map_cells(cfg, _CellTask(_prt_cell, cfg), _cells(cfg))


def _cell_train_set(cfg: ExperimentConfig, target: LabeledSet, folds: FoldPlan,
                    ratio: int, fold: int) -> LabeledSet:
    train_set = subset(target, folds.train_indices[fold])
    return apply_imbalance(train_set, POSITIVE_CLASS, ratio)


def _tl_stage(cfg: ExperimentConfig, seed: int) -> object:
    return default_stage_config(
        STAGE_TL,
        seed=seed,
        epochs=cfg.tl_epochs,
        base_lr=cfg.base_lr,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
    )


def _tl_cell(cfg: ExperimentConfig, ratio: int, fold: int) -> None:
    target = load_dataset(_require(data_path(cfg, "target")))
    folds = make_folds(target, cfg.fold_count)
    imbalanced = _cell_train_set(cfg, target, folds, ratio, fold)
    if METHOD_TL in cfg.methods:
        stage = _tl_stage(cfg, derive_seed(cfg.master_seed, ratio, fold, METHOD_TL, "tl"))
        model = tl_train(
            load_checkpoint(_require(source_ckpt_path(cfg))),
            imbalanced,
            stage,
            head_seed=derive_seed(cfg.master_seed, ratio, fold, METHOD_TL, "head"),
            log_path=cell_log(cfg, ratio, fold, "tl"),
        )
        save_checkpoint(model, cell_path(cfg, ratio, fold, "tl"))
    if _needs_prt_route(cfg):
        m1 = load_checkpoint(_require(cell_path(cfg, ratio, fold, "prt")))
        stage = _tl_stage(cfg, derive_seed(cfg.master_seed, ratio, fold, METHOD_PRT_TL, "tl"))
        model = tl_train(
            m1,
            imbalanced,
            stage,
            head_seed=derive_seed(cfg.master_seed, ratio, fold, METHOD_PRT_TL, "head"),
            log_path=cell_log(cfg, ratio, fold, "prt_tl"),
        )
        save_checkpoint(model, cell_path(cfg, ratio, fold, "prt_tl"))


def run_tl(cfg: ExperimentConfig) -> None:
    """Conventional transfer per cell: from the source model for the TL
    baseline, and from the cell's representation-transferred model otherwise."""
    _require(data_path(cfg, "target"))
    _require(source_ckpt_path(cfg))
    _map_cells(cfg, _CellTask(_tl_cell, cfg), _cells(cfg))


def _dict_cell(cfg: ExperimentConfig, ratio: int, fold: int) -> None:
    target = load_dataset(_require(data_path(cfg, "target")))
    folds = make_folds(target, cfg.fold_count)
    imbalanced = _cell_train_set(cfg, target, folds, ratio, fold)
    m1 = load_checkpoint(_require(cell_path(cfg, ratio, fold, "prt")))
    fdict = build_dictionary(m1, imbalanced)
    save_dictionary(fdict, cell_path(cfg, ratio, fold, "dict"))


def run_dict(cfg: ExperimentConfig) -> None:
    """Feature dictionaries from the same imbalanced train fold used for TL."""
    if METHOD_ALL not in cfg.methods:
        logger.info("dict stage skipped: method 'All' not configured")
        return
    _require(data_path(cfg, "target"))
    _map_cells(cfg, _CellTask(_dict_cell, cfg), _cells(cfg))


def _evaluate_cell(cfg: ExperimentConfig, ratio: int, fold: int) -> list[FoldMetrics]:
    target = load_dataset(_require(data_path(cfg, "target")))
    folds = make_folds(target, cfg.fold_count)
    test = subset(target, folds.test_indices[fold])
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
            m1 = load_checkpoint(_require(cell_path(cfg, ratio, fold, "prt")))
            fdict = load_dictionary(_require(cell_path(cfg, ratio, fold, "dict")))
            q = class_probabilities(fdict, extract_projection(m1, test.features), cfg.crc)
            fused = np.array([fuse_predict(rho[i], q[i])[0] for i in range(len(test))])
            rows.append(row(METHOD_ALL, fused))
    return rows


def run_evaluate(cfg: ExperimentConfig) -> MetricsReport:
    """Score every configured (method, ratio, fold) cell and write the reports."""
    _require(data_path(cfg, "target"))
    per_cell = _map_cells(cfg, _CellTask(_evaluate_cell, cfg), _cells(cfg))
    rows = [row for cell_rows in per_cell for row in cell_rows]
    report = aggregate_folds(rows)
    (cfg.out_dir / "report.csv").write_text(render_report_csv(report))
    (cfg.out_dir / "folds.csv").write_text(render_folds_csv(report))
    (cfg.out_dir / "report.txt").write_text(render_report_text(report))
    return report


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """The full grid: generate, pretrain, cluster, per-cell training, evaluate."""
    run_generate(cfg)
    run_pretrain(cfg)
    if _needs_prt_route(cfg):
        run_cluster(cfg)
        run_prt(cfg)
    run_tl(cfg)
    run_dict(cfg)
    return run_evaluate(cfg)
