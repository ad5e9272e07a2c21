"""Experiment grid orchestration: data generation, one pre-text representation
transfer (PRT) per master seed, conventional transfer (TL) with every session
of a ratio (each fold, both routes) trained in lockstep, per-cell dictionaries
and test folds each cut from one PRT projection of the target, evaluation of
TL / PRT+TL / All, and report writing. Every random stream derives from the
master seed, so a rerun with the same seed reproduces the report byte for byte."""

from __future__ import annotations

import ctypes
from dataclasses import replace
from functools import cache, wraps
from pathlib import Path

import numpy as np

# CPython's builtin SHA-256, the one hashlib falls back to: importing hashlib
# maps OpenSSL's libcrypto, which a stage that draws no random number never needs
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .clustering import (
    ClusterModel,
    extract_projection,
    kmeans_fit,
    load_cluster_model,
    save_cluster_model,
)
from .config import ExperimentConfig, _train_config
from .data import (
    POSITIVE_CLASS,
    LabeledSet,
    UnlabeledSet,
    generate_domains,
    load_dataset,
    make_folds,
    save_dataset,
    subset,
    train_rows,
)
from .dictionary import (
    build_dictionary,
    class_probabilities,
    load_dictionary,
    save_dictionary,
    unit_columns,
)
from .errors import ValidationError
from .manifest import write_text_file
from .metrics import (
    METHOD_ORDER,
    FoldMetrics,
    MetricsReport,
    aggregate_folds,
    compute_metrics,
    fuse_predict,
    render_folds_csv,
    render_report_csv,
    render_report_text,
)
from .network import NetworkState, forward, load_checkpoint, save_checkpoint
from .pipeline import TlSession, pretrain_source, prt_train, tl_train

METHOD_TL, METHOD_PRT_TL, METHOD_ALL = METHOD_ORDER


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-stage/per-cell seed from the master seed and a label path."""
    text = ":".join([str(master_seed), *map(str, parts)])
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


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
# holds `out_dir` or `workers`, which change no output.
STAGES = {
    "generate": ("generate the synthetic source/unlabeled/target datasets", "source.bin",
                 (), ("master_seed", "synth")),
    "pretrain": ("train the source model on the source dataset", "source.ckpt", ("generate",),
                 ("hidden", "projection_dim", "source_epochs", "source_lr", "batch_size", "momentum")),
    "cluster": ("cluster unlabeled projections into pseudo-classes", "clusters.ckpt",
                ("generate", "pretrain"), ("kmeans_max_iters", "kmeans_tol")),
    "prt": ("representation-only transfer, once per master seed (classifier frozen)", "prt.ckpt",
            ("generate", "pretrain", "cluster"), ("prt_epochs", "base_lr", "batch_size", "momentum")),
    "tl": ("conventional transfer, every session of a ratio in lockstep", "tl.ckpt", ("generate", "pretrain", "prt"),
           ("tl_epochs", "base_lr", "batch_size", "momentum", "fold_count", "ratios")),
    "dict": ("build per-cell feature dictionaries for the fused method", "dict.ckpt",
             ("generate", "prt"), ("fold_count", "ratios")),
    "evaluate": ("score every configured cell and write the reports", "report.csv",
                 ("generate", "tl", "dict", "prt"), ("ridge",)),
}


def stage_key(cfg: ExperimentConfig, name: str) -> str:
    """SHA-256 of the stage's name, the settings it reads and its inputs' keys."""
    _, _, inputs, keyed = STAGES[name]
    text = repr((name, [getattr(cfg, field) for field in keyed], [stage_key(cfg, dep) for dep in inputs]))
    return sha256(text.encode("utf-8")).hexdigest()


def _read_keys(manifest: Path) -> dict[str, str]:
    """The ``stage = key`` lines of ``manifest.txt``, one per finished stage."""
    if not manifest.exists():
        return {}
    try:
        pairs = [line.split(" = ") for line in manifest.read_bytes().decode("utf-8").splitlines()]
    except UnicodeDecodeError:
        pairs = [[]]  # not UTF-8: refused below
    if any(len(pair) != 2 or pair[0] not in STAGES for pair in pairs) or len(dict(pairs)) < len(pairs):
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


def _check_fit(path: Path, got: tuple[int, int], fits: tuple[int, int], rows: str) -> None:
    """Refuse the file at ``path`` unless its (features, classes) are ``fits``, those of ``rows``."""
    if got != fits:
        raise ValidationError(f"{path}: {got[0]} features and {got[1]} classes, "
                              f"against {fits[0]} and {fits[1]} in the {rows}")


def _load_network(path: Path, fits: tuple[int, int], rows: str) -> NetworkState:
    """The checkpoint at ``path``, refused by ``_check_fit`` unless its inputs and outputs fit ``rows``."""
    model = load_checkpoint(path)
    _check_fit(path, (model.input_dim, model.label_count), fits, rows)
    return model


def _load_source_network(cfg: ExperimentConfig, path: Path) -> NetworkState:
    """``source.ckpt`` or ``prt.ckpt``: both take the generated features and
    give one output per source class, as the pseudo-classes are as many."""
    return _load_network(path, (cfg.synth.dim, cfg.synth.source_class_count), "source rows")


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
    widths = (source.features.shape[1], *cfg.hidden, cfg.projection_dim, source.class_count)
    train_cfg = _train_config(cfg, cfg.source_epochs, base_lr=cfg.source_lr)
    model = pretrain_source(widths, source, train_cfg, derive_seed(cfg.master_seed, "source"),
                            log_path=cfg.out_dir / "logs" / "source.log")
    save_checkpoint(model, source_ckpt_path(cfg))
    return model


@_stage
def run_cluster(cfg: ExperimentConfig) -> ClusterModel:
    source_model = _load_source_network(cfg, source_ckpt_path(cfg))
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


def _load_pseudo(cfg: ExperimentConfig, source_model: NetworkState) -> LabeledSet:
    """The unlabeled set under its pseudo-labels, one per row and one class per source class."""
    path = clusters_ckpt_path(cfg)
    cluster_model = load_cluster_model(path)
    if cluster_model.k != source_model.label_count:
        raise ValidationError(f"{path}: k = {cluster_model.k} pseudo-classes, against "
                              f"{source_model.label_count} source classes in {source_ckpt_path(cfg)}")
    unlabeled = load_dataset(data_path(cfg, "unlabeled"))
    if len(cluster_model.labels) != len(unlabeled):
        raise ValidationError(f"{path} holds {len(cluster_model.labels)} pseudo-labels, "
                              f"but {data_path(cfg, 'unlabeled')} holds {len(unlabeled)} rows")
    return LabeledSet(unlabeled.features, cluster_model.labels, cluster_model.k)


@_stage
def run_prt(cfg: ExperimentConfig) -> None:
    """Representation-only transfer, one session per master seed.

    PRT reads only the source model and the pseudo-labelled unlabeled set, no
    fold or target data, so every grid cell starts its PRT+TL route and its
    dictionary from the same ``prt.ckpt``.
    """
    source_model = _load_source_network(cfg, source_ckpt_path(cfg))
    pseudo = _load_pseudo(cfg, source_model)
    model = prt_train(source_model, pseudo, _train_config(cfg, cfg.prt_epochs),
                      derive_seed(cfg.master_seed, "prt"), log_path=cfg.out_dir / "logs" / "prt.log")
    save_checkpoint(model, prt_ckpt_path(cfg))


def _load_target(cfg: ExperimentConfig) -> tuple[LabeledSet, tuple[np.ndarray, ...]]:
    target = load_dataset(data_path(cfg, "target"))
    return target, make_folds(target, cfg.fold_count)


def _cell_train_set(target: LabeledSet, folds: tuple[np.ndarray, ...], ratio: int, fold: int) -> LabeledSet:
    return subset(target, train_rows(target, folds[fold], ratio))


@_stage
def run_tl(cfg: ExperimentConfig) -> None:
    """Conventional transfer per cell: from the source model for the TL
    baseline, and from the representation-transferred model otherwise. Every
    session of one ratio (each fold, both routes) trains in one lockstep call."""
    target, folds = _load_target(cfg)
    train_cfg = _train_config(cfg, cfg.tl_epochs)
    # (method, starting model, output name)
    routes = [(METHOD_TL, _load_source_network(cfg, source_ckpt_path(cfg)), "tl"),
              (METHOD_PRT_TL, _load_source_network(cfg, prt_ckpt_path(cfg)), "prt_tl")]
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
    """Each cell's dictionary over its TL training rows, cut from one PRT projection of the target."""
    target, folds = _load_target(cfg)
    m1 = _load_source_network(cfg, prt_ckpt_path(cfg))
    projected = replace(target, features=extract_projection(m1, target.features))
    for ratio, fold in _cells(cfg):
        fdict = build_dictionary(_cell_train_set(projected, folds, ratio, fold))
        save_dictionary(fdict, cell_path(cfg, ratio, fold, "dict"))


def _evaluate_cell(cfg: ExperimentConfig, test: LabeledSet, test_unit: np.ndarray,
                   ratio: int, fold: int) -> list[FoldMetrics]:
    """The cell's TL, PRT+TL and All rows; ``test_unit`` is the fold's test
    projection as CRC's unit columns."""
    def row(method: str, predictions: np.ndarray) -> FoldMetrics:
        return FoldMetrics(fold, ratio, method, compute_metrics(predictions, test.labels, POSITIVE_CLASS))

    widths = (test.features.shape[1], test.class_count)
    tl, m2 = (_load_network(cell_path(cfg, ratio, fold, name), widths, "test rows") for name in ("tl", "prt_tl"))
    path = cell_path(cfg, ratio, fold, "dict")
    fdict = load_dictionary(path)
    _check_fit(path, (fdict.feature_dim, fdict.class_count), (test_unit.shape[0], test.class_count),
               "test rows' PRT projection")
    rho = forward(m2, test.features)
    q = class_probabilities(fdict, test_unit, cfg.ridge)
    return [row(METHOD_TL, forward(tl, test.features).argmax(axis=1)),
            row(METHOD_PRT_TL, rho.argmax(axis=1)),
            row(METHOD_ALL, fuse_predict(rho, q)[0])]


@_stage
def run_evaluate(cfg: ExperimentConfig) -> MetricsReport:
    """Score every (method, ratio, fold) cell and write the reports."""
    target, folds = _load_target(cfg)
    m1 = _load_source_network(cfg, prt_ckpt_path(cfg))
    unit = unit_columns(extract_projection(m1, target.features))
    rows = []
    for fold in range(cfg.fold_count):  # every ratio of a fold shares its test set
        test, test_unit = subset(target, folds[fold]), unit[:, folds[fold]]
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
