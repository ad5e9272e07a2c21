"""Experiment grid orchestration: data generation, one pre-text representation
transfer (PRT) per master seed, conventional transfer (TL) with every session
of a ratio (each fold, both routes) trained in lockstep, per-cell dictionaries,
evaluation of the TL / PRT+TL / All methods with each test fold projected and
normalized once for all its ratios, and report writing. Every random stream
derives from the master seed, so a rerun with the same seed reproduces the
report byte for byte."""

from __future__ import annotations

import ctypes
import hashlib
import math
from dataclasses import dataclass
from functools import cache, wraps
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterModel,
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
    build_dictionary,
    load_dictionary,
    save_dictionary,
    unit_class_probabilities,
    unit_columns,
)
from .errors import ConfigError, ValidationError
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
    LayerSpec,
    NetworkState,
    TrainConfig,
    forward,
    load_checkpoint,
    save_checkpoint,
    validate_layer_specs,
)
from .pipeline import TlSession, pretrain_source, prt_train, tl_train

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
    ridge: float = 1e-3
    ratios: tuple[int, ...] = ALLOWED_RATIOS
    fold_count: int = 5
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
        if len(set(self.ratios)) != len(self.ratios):
            raise ConfigError(f"ratios must not repeat, got {list(self.ratios)}")
        if self.fold_count < 2:
            raise ConfigError("fold_count must be >= 2: with one fold every training split is empty")
        if min(self.synth.positives, self.synth.negatives) < self.fold_count:
            raise ConfigError(f"positives and negatives must each be >= fold_count ({self.fold_count}): "
                              "every test fold holds both classes")
        if self.synth.unlabeled_size < self.synth.source_class_count:
            raise ConfigError(f"unlabeled_size must be >= source_class_count ({self.synth.source_class_count}): "
                              "k-means makes one pseudo-class per source class")
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
                _train_config(self, epochs, base_lr=lr)
            except ConfigError as exc:
                raise ConfigError(f"{stage} stage: {exc}") from exc
        if self.kmeans_max_iters < 1:
            raise ConfigError("cluster stage: kmeans_max_iters must be >= 1")
        if not (math.isfinite(self.kmeans_tol) and self.kmeans_tol >= 0):
            raise ConfigError("cluster stage: kmeans_tol must be >= 0 and finite")
        if not (math.isfinite(self.ridge) and self.ridge > 0):
            raise ConfigError("ridge must be > 0 and finite")


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
        specs.append(LayerSpec(prev, width, "relu"))
        prev = width
    specs.append(LayerSpec(prev, projection_dim, "identity"))
    specs.append(LayerSpec(projection_dim, label_count, "identity"))
    return specs


def _train_config(cfg: ExperimentConfig, epochs: int, base_lr: float | None = None) -> TrainConfig:
    """The hyperparameters of one stage's training call; the stage brings its
    own seeds and head learning-rate multiplier."""
    return TrainConfig(
        epochs=epochs,
        batch_size=cfg.batch_size,
        base_lr=cfg.base_lr if base_lr is None else base_lr,
        momentum=cfg.momentum,
    )


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


# ---- stages -----------------------------------------------------------------

# stage -> (help line, the output named while it has not finished, the stages
# whose outputs it reads, the config fields it reads), in run order. No key
# holds `out_dir`, `workers` or `ratios` (a cell does not depend on the others).
STAGES = {
    "generate": ("generate the synthetic source/unlabeled/target datasets", "source.bin",
                 (), ("master_seed", "synth")),
    "pretrain": ("train the source model on the source dataset", "source.ckpt", ("generate",),
                 ("hidden", "projection_dim", "source_epochs", "source_lr", "batch_size", "momentum")),
    "cluster": ("cluster unlabeled projections into pseudo-classes", "clusters.ckpt",
                ("generate", "pretrain"), ("kmeans_max_iters", "kmeans_tol")),
    "prt": ("representation-only transfer, once per master seed (classifier frozen)", "prt.ckpt",
            ("generate", "pretrain", "cluster"), ("prt_epochs", "base_lr", "batch_size", "momentum")),
    "tl": ("conventional transfer, every session of a ratio in lockstep", "tl.ckpt",
           ("generate", "pretrain", "prt"), ("tl_epochs", "base_lr", "batch_size", "momentum", "fold_count")),
    "dict": ("build per-cell feature dictionaries for the fused method", "dict.ckpt",
             ("generate", "prt"), ("fold_count",)),
    "evaluate": ("score every configured cell and write the reports", "report.csv",
                 ("generate", "tl", "dict", "prt"), ("ridge",)),
}


def stage_key(cfg: ExperimentConfig, name: str) -> str:
    """SHA-256 of the stage's name, the settings it reads and its inputs' keys."""
    _, _, inputs, keyed = STAGES[name]
    text = repr((name, [getattr(cfg, field) for field in keyed], [stage_key(cfg, dep) for dep in inputs]))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_keys(manifest: Path) -> dict[str, str]:
    """The ``stage = key`` lines of ``manifest.txt``, one per finished stage."""
    if not manifest.exists():
        return {}
    try:
        pairs = [line.split(" = ") for line in manifest.read_bytes().decode("utf-8").splitlines()]
    except UnicodeDecodeError:
        pairs = [[]]  # not UTF-8: refused below
    if any(len(pair) != 2 or pair[0] not in STAGES for pair in pairs):
        raise ValidationError(f"{manifest}: not one 'stage = key' line per finished stage; rerun generate")
    return dict(pairs)


def _write_keys(manifest: Path, keys: dict[str, str]) -> None:
    write_text_file(manifest, "".join(f"{name} = {keys[name]}\n" for name in STAGES if name in keys))


def _stage(run):
    """Run a stage on one OpenBLAS thread, restoring the caller's count after:
    its products are small (p = 16, at most a few hundred dictionary columns),
    so a second thread only adds wake-up and spin time and changes no result.
    The stage runs once every stage whose outputs it reads has finished under
    ``cfg``'s settings; its key leaves ``manifest.txt`` while it runs, so one
    that raises or is killed leaves none. ``generate`` starts a new manifest."""
    name = run.__name__.removeprefix("run_")

    @wraps(run)
    def checked(cfg: ExperimentConfig):
        before = _set_blas_threads(1)
        try:
            manifest, inputs = cfg.out_dir / "manifest.txt", STAGES[name][2]
            keys = _read_keys(manifest) if inputs else {}
            for dep in inputs:
                if dep not in keys:
                    raise FileNotFoundError(f"{manifest}: {dep} has not finished, so its {STAGES[dep][1]} "
                                            "is missing or out of date")
                if keys[dep] != stage_key(cfg, dep):
                    raise ValidationError(f"{manifest}: {dep} ran with another seed or other data settings "
                                          "or stage settings")
            _write_keys(manifest, {stage: key for stage, key in keys.items() if stage != name})
            result = run(cfg)
            _write_keys(manifest, keys | {name: stage_key(cfg, name)})
            return result
        finally:
            if before is not None:
                _set_blas_threads(before)

    return checked


@_stage
def run_generate(cfg: ExperimentConfig) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Generate the two-domain data, seeded from the master seed, and persist it."""
    source, unlabeled, target = generate_domains(cfg.synth, derive_seed(cfg.master_seed, "data"))
    save_dataset(source, data_path(cfg, "source"))
    save_dataset(unlabeled, data_path(cfg, "unlabeled"))
    save_dataset(target, data_path(cfg, "target"))
    return source, unlabeled, target


@_stage
def run_pretrain(cfg: ExperimentConfig) -> NetworkState:
    source = load_dataset(data_path(cfg, "source"))
    specs = build_layer_specs(
        source.features.shape[1], source.class_count, cfg.hidden, cfg.projection_dim
    )
    train_cfg = _train_config(cfg, cfg.source_epochs, base_lr=cfg.source_lr)
    model = pretrain_source(specs, source, train_cfg, derive_seed(cfg.master_seed, "source"),
                            log_path=cfg.out_dir / "logs" / "source.log")
    save_checkpoint(model, source_ckpt_path(cfg))
    return model


@_stage
def run_cluster(cfg: ExperimentConfig) -> ClusterModel:
    source_model = load_checkpoint(source_ckpt_path(cfg))
    # the pool goes straight into the projection, so nothing holds it during the fit
    model = kmeans_fit(
        extract_projection(source_model, load_dataset(data_path(cfg, "unlabeled")).features),
        source_model.label_count,
        seed=derive_seed(cfg.master_seed, "cluster"),
        max_iters=cfg.kmeans_max_iters,
        tol=cfg.kmeans_tol,
    )
    save_cluster_model(model, clusters_ckpt_path(cfg))
    return model


def _load_pseudo(cfg: ExperimentConfig) -> LabeledSet:
    cluster_model = load_cluster_model(clusters_ckpt_path(cfg))
    unlabeled = load_dataset(data_path(cfg, "unlabeled"))
    return LabeledSet(unlabeled.features, cluster_model.labels, cluster_model.k)


@_stage
def run_prt(cfg: ExperimentConfig) -> None:
    """Representation-only transfer, one session per master seed.

    PRT reads only the source model and the pseudo-labelled unlabeled set, no
    fold or target data, so every grid cell starts its PRT+TL route and its
    dictionary from the same ``prt.ckpt``.
    """
    source_model = load_checkpoint(source_ckpt_path(cfg))
    pseudo = _load_pseudo(cfg)
    model = prt_train(source_model, pseudo, _train_config(cfg, cfg.prt_epochs),
                      derive_seed(cfg.master_seed, "prt"), log_path=cfg.out_dir / "logs" / "prt.log")
    save_checkpoint(model, prt_ckpt_path(cfg))


def _load_target(cfg: ExperimentConfig) -> tuple[LabeledSet, FoldPlan]:
    target = load_dataset(data_path(cfg, "target"))
    return target, make_folds(target, cfg.fold_count)


def _cell_train_set(target: LabeledSet, folds: FoldPlan, ratio: int, fold: int) -> LabeledSet:
    train_set = subset(target, folds.train_indices[fold])
    return apply_imbalance(train_set, POSITIVE_CLASS, ratio)


@_stage
def run_tl(cfg: ExperimentConfig) -> None:
    """Conventional transfer per cell: from the source model for the TL
    baseline, and from the representation-transferred model otherwise. Every
    session of one ratio (each fold, both routes) trains in one lockstep call."""
    target, folds = _load_target(cfg)
    train_cfg = _train_config(cfg, cfg.tl_epochs)
    # (method, starting model, output name)
    routes = [(METHOD_TL, load_checkpoint(source_ckpt_path(cfg)), "tl"),
              (METHOD_PRT_TL, load_checkpoint(prt_ckpt_path(cfg)), "prt_tl")]
    for ratio in cfg.ratios:
        sessions, paths = [], []
        for fold in range(cfg.fold_count):
            imbalanced = _cell_train_set(target, folds, ratio, fold)
            for method, start, name in routes:
                sessions.append(TlSession(
                    start,
                    imbalanced,
                    derive_seed(cfg.master_seed, ratio, fold, method, "tl"),
                    head_seed=derive_seed(cfg.master_seed, ratio, fold, method, "head"),
                    log_path=cell_log(cfg, ratio, fold, name),
                ))
                paths.append(cell_path(cfg, ratio, fold, name))
        for model, path in zip(tl_train(sessions, train_cfg), paths):
            save_checkpoint(model, path)


@_stage
def run_dict(cfg: ExperimentConfig) -> None:
    """Feature dictionaries from the same imbalanced train fold used for TL."""
    target, folds = _load_target(cfg)
    m1 = load_checkpoint(prt_ckpt_path(cfg))
    for ratio, fold in _cells(cfg):
        fdict = build_dictionary(m1, _cell_train_set(target, folds, ratio, fold))
        save_dictionary(fdict, cell_path(cfg, ratio, fold, "dict"))


def _evaluate_cell(cfg: ExperimentConfig, test: LabeledSet, test_unit: np.ndarray,
                   ratio: int, fold: int) -> list[FoldMetrics]:
    """The cell's TL, PRT+TL and All rows; ``test_unit`` is the fold's test
    projection as CRC's unit columns."""
    def row(method: str, predictions: np.ndarray) -> FoldMetrics:
        counts = confusion_counts(predictions, test.labels, POSITIVE_CLASS)
        values = compute_metrics(counts)
        return FoldMetrics(fold, ratio, method, values.sen, values.spe, values.f1, values.acc)

    tl = load_checkpoint(cell_path(cfg, ratio, fold, "tl"))
    m2 = load_checkpoint(cell_path(cfg, ratio, fold, "prt_tl"))
    rho = forward(m2, test.features)
    fdict = load_dictionary(cell_path(cfg, ratio, fold, "dict"))
    q = unit_class_probabilities(fdict, test_unit, cfg.ridge)
    return [row(METHOD_TL, forward(tl, test.features).argmax(axis=1)),
            row(METHOD_PRT_TL, rho.argmax(axis=1)),
            row(METHOD_ALL, fuse_predict(rho, q)[0])]


@_stage
def run_evaluate(cfg: ExperimentConfig) -> MetricsReport:
    """Score every (method, ratio, fold) cell and write the reports."""
    target, folds = _load_target(cfg)
    m1 = load_checkpoint(prt_ckpt_path(cfg))
    rows = []
    for fold in range(cfg.fold_count):  # every ratio of a fold shares its test set
        test = subset(target, folds.test_indices[fold])
        test_unit = unit_columns(extract_projection(m1, test.features))
        for ratio in cfg.ratios:
            rows.extend(_evaluate_cell(cfg, test, test_unit, ratio, fold))
    report = aggregate_folds(rows)  # groups keep fold order, so the bytes do not change
    write_text_file(cfg.out_dir / "report.csv", render_report_csv(report))
    write_text_file(cfg.out_dir / "folds.csv", render_folds_csv(report))
    write_text_file(cfg.out_dir / "report.txt", render_report_text(report))
    return report


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """The full grid: each stage of ``STAGES``, looked up when it runs, in order."""
    for name in STAGES:
        result = globals()[f"run_{name}"](cfg)
    return result
