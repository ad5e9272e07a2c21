import ctypes
import dataclasses
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pretext_transfer.config as config
import pretext_transfer.harness as harness
from pretext_transfer.clustering import extract_projection, kmeans_fit, save_cluster_model
from pretext_transfer.data import SynthConfig
from pretext_transfer.dictionary import FeatureDictionary, load_dictionary, save_dictionary, unit_columns
from pretext_transfer.errors import ValidationError
from pretext_transfer.harness import (
    STAGES,
    ExperimentConfig,
    cell_path,
    clusters_ckpt_path,
    derive_seed,
    prt_ckpt_path,
    run_cluster,
    run_dict,
    run_evaluate,
    run_experiment,
    run_generate,
    run_pretrain,
    run_prt,
    run_tl,
    stage_key,
)
from pretext_transfer.metrics import METHOD_ORDER
from pretext_transfer.network import NetworkState, flat_views, load_checkpoint, save_checkpoint

MINI_SYNTH = SynthConfig(
    source_class_count=4,
    dim=6,
    samples_per_class=12,
    unlabeled_size=80,
    positives=20,
    negatives=20,
    shift=1.5,
    noise=1.0,
)


def mini_config(out_dir, **overrides):
    values = dict(
        out_dir=out_dir,
        master_seed=5,
        synth=MINI_SYNTH,
        hidden=(8,),
        projection_dim=6,
        source_epochs=4,
        prt_epochs=2,
        tl_epochs=2,
        ratios=(10, 100),
        fold_count=2,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    cfg = mini_config(tmp_path_factory.mktemp("mini"))
    report = run_experiment(cfg)
    return cfg, report


# every integer setting, as "<ExperimentConfig field>" or "synth.<SynthConfig field>"
INT_FIELDS = [f"{prefix}{field.name}" for prefix, settings in [("", ExperimentConfig), ("synth.", SynthConfig)]
              for field in dataclasses.fields(settings) if field.type == "int"]


class TestConfigValidation:
    def test_bad_ratio_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="subset"):
            mini_config(tmp_path, ratios=(10, 33))
        # a repeated ratio would train and score every cell of it twice
        with pytest.raises(ValidationError, match="ratios must not repeat"):
            mini_config(tmp_path, ratios=(10, 10))

    def test_single_fold_rejected(self, tmp_path):
        # one fold leaves every training split empty
        with pytest.raises(ValidationError, match="fold_count must be >= 2"):
            mini_config(tmp_path, fold_count=1)

    @pytest.mark.parametrize("field, value", [
        ("hidden", (8.9, 7)), ("hidden", (np.float64(8.0),)), ("ratios", (10.5,)), ("ratios", (np.float64(10.0),)),
        *[(field, value) for field in INT_FIELDS for value in (5.0, np.float64(5.0))],
    ], ids=["hidden-float", "hidden-numpy-float", "ratios-float", "ratios-numpy-float",
            *[f"{field}-{kind}" for field in INT_FIELDS for kind in ("float", "numpy-float")]])
    def test_non_integral_widths_and_ratios_refused(self, tmp_path, field, value):
        # int() would truncate 8.9 to 8 and key the stages as a genuine 8-wide run;
        # every integer setting, of either dataclass, refuses a float alike
        owner, _, name = field.rpartition(".")
        must = "hold integers" if name in ("hidden", "ratios") else "be an integer"
        with pytest.raises(ValidationError, match=f"^{name} must {must}: "):
            if owner:
                dataclasses.replace(MINI_SYNTH, **{name: value})
            else:
                mini_config(tmp_path, **{name: value})

    @pytest.mark.parametrize("setting, message", [
        (dict(kmeans_max_iters=0), "cluster stage: kmeans_max_iters must be >= 1"),
        (dict(kmeans_tol=-1.0), "cluster stage: kmeans_tol must be >= 0 and finite"),
        (dict(kmeans_tol=float("nan")), "cluster stage: kmeans_tol must be >= 0 and finite"),
        (dict(kmeans_tol=float("inf")), "cluster stage: kmeans_tol must be >= 0 and finite"),
        (dict(tl_epochs=7.0), "^tl_epochs must be an integer: "),
        # SynthConfig's own fields, built in the test, since SynthConfig refuses the float itself
        (dict(synth=dict(unlabeled_size=1500.5)), "^unlabeled_size must be an integer: "),
    ], ids=["max_iters-0", "tol-negative", "tol-nan", "tol-inf", "tl_epochs-float", "unlabeled_size-float"])
    def test_bad_kmeans_setting_rejected_before_any_write(self, tmp_path, setting, message):
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=message):
            if "synth" in setting:
                setting = {**setting, "synth": SynthConfig(**setting["synth"])}
            run_experiment(mini_config(out, **setting))
        assert not out.exists()


# another valid value of every ExperimentConfig field that goes into an output
KEYED_CHANGES = {
    "master_seed": 1,
    "synth": dataclasses.replace(MINI_SYNTH, shift=2.0),
    "hidden": (5,),
    "projection_dim": 4,
    "source_epochs": 3,
    "source_lr": 0.02,
    "prt_epochs": 3,
    "tl_epochs": 3,
    "base_lr": 1e-3,
    "batch_size": 8,
    "momentum": 0.5,
    "ridge": 0.01,
    "fold_count": 3,
    "kmeans_max_iters": 50,
    "kmeans_tol": 1e-5,
}
# fields that change no output, or (ratios) only which cells run
UNKEYED_CHANGES = {"out_dir": Path("elsewhere"), "workers": 2, "ratios": (10,)}
# another valid value of every SynthConfig field
SYNTH_CHANGES = {
    "source_class_count": 5,
    "dim": 7,
    "samples_per_class": 13,
    "unlabeled_size": 81,
    "positives": 21,
    "negatives": 19,
    "shift": 2.0,
    "noise": 0.5,
}


# (a setting as a NumPy scalar, or as an int for a float field; the equal Python value)
EQUAL_SETTINGS = [
    (dict(master_seed=np.int64(0)), dict(master_seed=0)),
    (dict(ridge=np.float64(1e-3)), dict(ridge=1e-3)),
    (dict(ridge=1), dict(ridge=1.0)),
    (dict(synth=dataclasses.replace(MINI_SYNTH, shift=2)), dict(synth=dataclasses.replace(MINI_SYNTH, shift=2.0))),
]


def stage_keys(cfg: ExperimentConfig) -> dict[str, str]:
    return {name: stage_key(cfg, name) for name in STAGES}


class TestStageTable:
    @pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(ExperimentConfig)])
    def test_every_field_is_keyed_or_named_unkeyed(self, tmp_path, field):
        """A field added without a table entry (or a listed reason) fails here."""
        base = mini_config(tmp_path)
        changed = dataclasses.replace(base, **{field: {**KEYED_CHANGES, **UNKEYED_CHANGES}[field]})
        assert (stage_keys(changed) != stage_keys(base)) == (field in KEYED_CHANGES)

    @pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(SynthConfig)])
    def test_every_data_setting_changes_the_data(self, tmp_path, field):
        """A data setting in generate's key that the data ignore would make
        later stages refuse data equal to their own."""
        base = mini_config(tmp_path / "base")
        changed = mini_config(tmp_path / "changed",
                              synth=dataclasses.replace(MINI_SYNTH, **{field: SYNTH_CHANGES[field]}))
        assert stage_key(changed, "generate") != stage_key(base, "generate")
        run_generate(base)
        run_generate(changed)
        names = ["source.bin", "unlabeled.bin", "target.bin"]
        assert any((base.out_dir / name).read_bytes() != (changed.out_dir / name).read_bytes() for name in names)

    def test_a_setting_changes_its_stage_and_the_stages_after_it(self, tmp_path):
        base = mini_config(tmp_path)
        before, after = stage_keys(base), stage_keys(dataclasses.replace(base, prt_epochs=3))
        assert [name for name in STAGES if before[name] != after[name]] == ["prt", "tl", "dict", "evaluate"]

    def test_table_lists_earlier_stages_only(self):
        for position, (name, (_, _, inputs, _)) in enumerate(STAGES.items()):
            assert set(inputs) <= set(list(STAGES)[:position]), name

    def test_equal_widths_and_ratios_give_equal_keys(self, tmp_path):
        # keys hash repr(): a list, or NumPy ints, must key as the tuple of ints does
        configs = [mini_config(tmp_path, hidden=hidden, ratios=ratios) for hidden, ratios in [
            ((8, 7), (10, 100)), ([8, 7], [10, 100]), (tuple(np.array([8, 7])), tuple(np.array([10, 100])))]]
        for cfg in configs:
            assert (cfg.hidden, cfg.ratios) == ((8, 7), (10, 100))
            assert {type(value) for value in (*cfg.hidden, *cfg.ratios)} == {int}
        assert [stage_keys(cfg) for cfg in configs[1:]] == [stage_keys(configs[0])] * 2

    @pytest.mark.parametrize("name", list(STAGES))
    def test_numpy_scalars_and_ints_for_floats_key_as_the_python_value(self, tmp_path, name):
        for given, python in EQUAL_SETTINGS:
            assert stage_key(mini_config(tmp_path, **given), name) == stage_key(mini_config(tmp_path, **python), name)

    def test_keys_are_hashlibs_digests(self, tmp_path):
        cfg = ExperimentConfig(out_dir=tmp_path)
        for name, (_, _, inputs, keyed) in STAGES.items():
            text = repr((name, [getattr(cfg, field) for field in keyed], [stage_key(cfg, dep) for dep in inputs]))
            assert stage_key(cfg, name) == hashlib.sha256(text.encode("utf-8")).hexdigest(), name


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(5, 10, 0, "TL") == derive_seed(5, 10, 0, "TL")
        assert derive_seed(5, 10, 0, "TL") != derive_seed(5, 10, 1, "TL")
        assert derive_seed(5, 10, 0, "TL") != derive_seed(6, 10, 0, "TL")
        assert derive_seed(5, 10, 0, "TL") != derive_seed(5, 10, 0, "PRT+TL")

    @pytest.mark.parametrize("master_seed, parts", [
        (0, ()),
        (5, (10, 0, "TL")),
        (2**40, ("prt",)),
        (-3, ("généré", 1.5)),
    ])
    def test_digest_is_hashlibs(self, master_seed, parts):
        text = ":".join([str(master_seed), *map(str, parts)]).encode("utf-8")
        assert derive_seed(master_seed, *parts) == int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


# Run in a fresh interpreter, since pytest and hypothesis import hashlib and
# logging themselves: the modules the package adds after NumPy is loaded.
LEAN_IMPORT = """
import sys
import numpy
before = set(sys.modules)
from pretext_transfer.harness import STAGES, ExperimentConfig, derive_seed, stage_key
cfg = ExperimentConfig(out_dir="unused")
[stage_key(cfg, name) for name in STAGES]
derive_seed(0, "generate")
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="module")
def modules_the_package_adds():
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", LEAN_IMPORT], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("module", ["_hashlib", "logging"])
def test_fresh_interpreter_maps_no_openssl_or_logging(modules_the_package_adds, module):
    if module == "_hashlib" and not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this Python has neither _sha2 nor _sha256, so stage keys take SHA-256 from hashlib")
    assert module not in modules_the_package_adds


def test_settings_module_does_not_import_the_stages():
    """``config`` holds the settings and ``harness`` imports them, never the
    other way; the benchmark reaches the settings through ``harness``."""
    code = "import sys, pretext_transfer.config; print('pretext_transfer.harness' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]
    assert harness.ExperimentConfig is config.ExperimentConfig
    assert harness._train_config is config._train_config


class TestNetworkWidths:
    def test_pretrain_builds_input_hidden_projection_labels(self, tmp_path):
        # three representation layers (two hidden and the projection), then the head
        cfg = mini_config(tmp_path, hidden=(8, 7), projection_dim=5)
        run_generate(cfg)
        assert run_pretrain(cfg).widths == (6, 8, 7, 5, 4)
        header = (cfg.out_dir / "source.ckpt").read_bytes().split(b"\n\n")[0]
        assert header == b"checkpoint v1\nwidths = 6 8 7 5 4"


class TestGridRun:
    def test_row_cardinality(self, mini_run):
        cfg, report = mini_run
        assert len(report.per_fold) == len(METHOD_ORDER) * len(cfg.ratios) * cfg.fold_count
        for row in report.per_fold:
            for metric in ("sen", "spe", "f1", "acc"):
                assert np.isfinite(getattr(row.values, metric))

    def test_artifacts_persisted(self, mini_run):
        cfg, _ = mini_run
        assert (cfg.out_dir / "source.ckpt").exists()
        assert (cfg.out_dir / "clusters.ckpt").exists()
        assert (cfg.out_dir / "report.csv").exists()
        assert (cfg.out_dir / "report.txt").exists()
        assert (cfg.out_dir / "folds.csv").exists()
        assert (cfg.out_dir / "manifest.txt").exists()
        assert prt_ckpt_path(cfg) == cfg.out_dir / "prt.ckpt"
        assert prt_ckpt_path(cfg).exists()
        assert (cfg.out_dir / "logs" / "prt.log").exists()
        for ratio in cfg.ratios:
            for fold in range(cfg.fold_count):
                for stage in ("tl", "prt_tl", "dict"):
                    assert cell_path(cfg, ratio, fold, stage).exists()
                assert not cell_path(cfg, ratio, fold, "prt").exists()
                assert not (cfg.out_dir / str(ratio) / str(fold) / "prt.log").exists()

    def test_rerun_is_byte_identical(self, mini_run, tmp_path):
        cfg, _ = mini_run
        rerun_cfg = dataclasses.replace(cfg, out_dir=tmp_path / "rerun")
        run_experiment(rerun_cfg)
        assert tree_bytes(rerun_cfg.out_dir) == tree_bytes(cfg.out_dir)

    def test_results_independent_of_worker_count(self, mini_run, tmp_path):
        cfg, _ = mini_run
        parallel_cfg = dataclasses.replace(cfg, out_dir=tmp_path / "parallel", workers=3)
        run_experiment(parallel_cfg)
        assert tree_bytes(parallel_cfg.out_dir) == tree_bytes(cfg.out_dir)

    def test_no_stage_starts_a_process(self, mini_run, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("a stage forked a process")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg, _ = mini_run
        forkless_cfg = dataclasses.replace(cfg, out_dir=tmp_path / "forkless", workers=3)
        run_experiment(forkless_cfg)
        assert tree_bytes(forkless_cfg.out_dir) == tree_bytes(cfg.out_dir)

    def test_stagewise_commands_match_run_all(self, mini_run, tmp_path):
        cfg, _ = mini_run
        staged = dataclasses.replace(cfg, out_dir=tmp_path / "staged")
        run_generate(staged)
        run_pretrain(staged)
        run_cluster(staged)
        run_prt(staged)
        run_tl(staged)
        run_dict(staged)
        run_evaluate(staged)
        assert tree_bytes(staged.out_dir) == tree_bytes(cfg.out_dir)


class TestPrtOncePerSeed:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("ratios, fold_count", [((10,), 2), ((10, 25, 100), 3)])
    def test_prt_runs_once(self, tmp_path, monkeypatch, workers, ratios, fold_count):
        # each call appends a line to a file, so a call made in any process
        # would be counted
        calls = tmp_path / "prt_calls"
        real_prt_train = harness.prt_train

        def counting_prt_train(*args, **kwargs):
            with open(calls, "a") as fh:
                fh.write("call\n")
            return real_prt_train(*args, **kwargs)

        monkeypatch.setattr(harness, "prt_train", counting_prt_train)
        cfg = mini_config(tmp_path / "run", ratios=ratios, fold_count=fold_count, workers=workers)
        run_experiment(cfg)
        assert calls.read_text().splitlines() == ["call"]

    def test_prt_artifact_ignores_grid_shape(self, tmp_path):
        small = mini_config(tmp_path / "small", ratios=(10,), fold_count=2)
        large = mini_config(tmp_path / "large", ratios=(10, 100), fold_count=2)
        run_experiment(small)
        run_experiment(large)
        assert prt_ckpt_path(small).read_bytes() == prt_ckpt_path(large).read_bytes()


class TestTlOncePerRatio:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_lockstep_call_per_ratio(self, tmp_path, monkeypatch, workers):
        # each call appends a line to a file, so a call made in any process
        # would be counted
        calls = tmp_path / "tl_calls"
        real_tl_train = harness.tl_train

        def counting_tl_train(sessions, cfg):
            with open(calls, "a") as fh:
                fh.write(f"{len(sessions)}\n")
            return real_tl_train(sessions, cfg)

        monkeypatch.setattr(harness, "tl_train", counting_tl_train)
        cfg = mini_config(tmp_path / "run", ratios=(10, 25, 100), fold_count=3, workers=workers)
        run_experiment(cfg)
        # every fold of the ratio, on both routes
        assert calls.read_text().splitlines() == ["6", "6", "6"]


class TestEachStageLoadsOnce:
    def test_each_stage_loads_its_data_and_cuts_its_folds_once(self, tmp_path, monkeypatch):
        # every stage hands the data and folds it loaded, and the projection it
        # made, to all of its cells
        stage, calls = [None], {"load_dataset": [], "make_folds": [], "extract_projection": []}

        def recording_stage(name, run):
            def recorded(cfg):
                stage[0] = name
                return run(cfg)
            return recorded

        def recording_call(name, call):
            def recorded(*args):
                calls[name].append(stage[0])
                return call(*args)
            return recorded

        for name in STAGES:
            monkeypatch.setattr(harness, f"run_{name}", recording_stage(name, getattr(harness, f"run_{name}")))
        for name in calls:
            monkeypatch.setattr(harness, name, recording_call(name, getattr(harness, name)))
        run_experiment(mini_config(tmp_path / "run", ratios=(10, 25, 100), fold_count=3))
        assert calls == {"load_dataset": ["pretrain", "cluster", "prt", "tl", "dict", "evaluate"],
                         "make_folds": ["tl", "dict", "evaluate"],
                         "extract_projection": ["cluster", "dict", "evaluate"]}


class TestEvaluateProjectsOnce:
    def test_target_projected_and_normalized_once_for_all_cells(self, mini_run, tmp_path, monkeypatch):
        # every cell's test fold is cut from one PRT projection of the whole
        # target, normalized once, as run_dict cuts every cell's training rows
        base, report = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run")
        shutil.copytree(base.out_dir, cfg.out_dir)
        projected, normalized = [], []
        real_projection, real_columns = harness.extract_projection, harness.unit_columns

        def projection(model, samples):
            projected.append(len(samples))
            return real_projection(model, samples)

        def columns(features):
            normalized.append(len(features))
            return real_columns(features)

        monkeypatch.setattr(harness, "extract_projection", projection)
        monkeypatch.setattr(harness, "unit_columns", columns)
        assert run_evaluate(cfg) == report
        assert len(cfg.ratios) > 1 and cfg.fold_count > 1
        assert projected == normalized == [MINI_SYNTH.positives + MINI_SYNTH.negatives]

    @pytest.mark.parametrize("hidden", [(32,), (64, 32)], ids=["32", "64,32"])
    def test_fold_slices_are_the_per_fold_projections(self, tmp_path, hidden):
        # at the default sizes, each test fold's columns of the whole target's
        # unit projection are the bytes, and the layout, that projecting and
        # normalizing the fold alone gives
        cfg = ExperimentConfig(out_dir=tmp_path, hidden=hidden)
        for run in (run_generate, run_pretrain, run_cluster, run_prt):
            run(cfg)
        target, folds = harness._load_target(cfg)
        m1 = load_checkpoint(prt_ckpt_path(cfg))
        unit = unit_columns(extract_projection(m1, target.features))
        for rows in folds:
            alone = unit_columns(extract_projection(m1, target.features[rows]))
            sliced = unit[:, rows]
            assert sliced.strides == alone.strides
            assert sliced.tobytes() == alone.tobytes()


class TestBaselineIsolation:
    def test_pseudo_label_and_prt_settings_leave_tl_unchanged(self, mini_run, tmp_path):
        # the TL baseline starts from the source model: the cluster and PRT
        # settings change their own artifacts and never a TL byte
        base, base_report = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run", prt_epochs=3, kmeans_max_iters=3)
        report = run_experiment(cfg)
        new, old = tree_bytes(cfg.out_dir), tree_bytes(base.out_dir)
        for name in ("clusters.ckpt", "prt.ckpt"):
            assert new[name] != old[name], name
        tl_files = [name for name in old if Path(name).name in ("tl.ckpt", "tl.log")]
        assert len(tl_files) == 2 * len(cfg.ratios) * cfg.fold_count
        for name in tl_files:
            assert new[name] == old[name], name
        assert ([r for r in report.per_fold if r.method == "TL"]
                == [r for r in base_report.per_fold if r.method == "TL"])


def add_third_output(path):
    state = load_checkpoint(path)
    weights, biases = flat_views(state.params, state.widths)
    head, bias = weights[-1], biases[-1]
    params = np.concatenate([state.params[:-head.size - bias.size], head.ravel(), head[0], bias, [0.0]])
    save_checkpoint(NetworkState((*state.widths[:-1], 3), params), path)


def split_off_third_class(path):
    fdict = load_dictionary(path)
    negatives, positives = fdict.class_counts
    save_dictionary(FeatureDictionary(fdict.columns, (negatives, positives - 1, 1)), path)


def drop_last_feature(path):
    fdict = load_dictionary(path)
    save_dictionary(FeatureDictionary(fdict.columns[:-1], fdict.class_counts), path)


def take_eight_inputs(path):
    state = load_checkpoint(path)
    first = flat_views(state.params, state.widths)[0][0]
    wider = np.hstack([first, np.zeros((first.shape[0], 8 - first.shape[1]))])
    params = np.concatenate([wider.ravel(), state.params[first.size:]])
    save_checkpoint(NetworkState((8, *state.widths[1:]), params), path)


class TestEvaluateRefusesCellsThatDoNotFit:
    # mini_config's target has 6 features and 2 classes, and PRT projects it to 6
    @pytest.mark.parametrize("name,tamper,message", [
        ("tl", add_third_output, "6 features and 3 classes, against 6 and 2 in the test rows"),
        ("prt_tl", add_third_output, "6 features and 3 classes, against 6 and 2 in the test rows"),
        ("dict", split_off_third_class, "6 features and 3 classes, against 6 and 2 in the test rows' PRT projection"),
        ("dict", drop_last_feature, "5 features and 2 classes, against 6 and 2 in the test rows' PRT projection"),
    ], ids=["tl-outputs", "prt_tl-outputs", "dict-classes", "dict-width"])
    def test_the_file_is_named_and_report_kept(self, mini_run, tmp_path, name, tamper, message):
        base, _ = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run")
        shutil.copytree(base.out_dir, cfg.out_dir)
        path = cell_path(cfg, cfg.ratios[-1], cfg.fold_count - 1, name)
        tamper(path)
        report = (cfg.out_dir / "report.csv").read_bytes()
        with pytest.raises(ValidationError) as err:
            run_evaluate(cfg)
        assert str(err.value) == f"{path}: {message}"
        assert (cfg.out_dir / "report.csv").read_bytes() == report

    # every stage that reads prt.ckpt or source.ckpt names it; mini_config's
    # source rows have 6 features and 4 classes
    @pytest.mark.parametrize("stage,name", [(run_tl, "prt"), (run_dict, "prt"), (run_evaluate, "prt"),
                                            (run_tl, "source")],
                             ids=["tl-prt", "dict-prt", "evaluate-prt", "tl-source"])
    def test_a_network_of_other_width_is_named(self, mini_run, tmp_path, stage, name):
        base, _ = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run")
        shutil.copytree(base.out_dir, cfg.out_dir)
        path = cfg.out_dir / f"{name}.ckpt"
        take_eight_inputs(path)
        before = tree_bytes(cfg.out_dir)
        with pytest.raises(ValidationError) as err:
            stage(cfg)
        assert str(err.value) == f"{path}: 8 features and 4 classes, against 6 and 4 in the source rows"
        after = tree_bytes(cfg.out_dir)
        del before["manifest.txt"], after["manifest.txt"]  # the stage's key leaves it while it runs
        assert after == before


class TestPrtRefusesClustersThatDoNotFit:
    def test_a_cluster_model_of_other_k_is_named(self, mini_run, tmp_path):
        # mini_config's source model outputs 4 classes, and its pool holds 80 rows
        base, _ = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run")
        shutil.copytree(base.out_dir, cfg.out_dir)
        path = clusters_ckpt_path(cfg)
        save_cluster_model(kmeans_fit(np.random.default_rng(0).normal(size=(80, 6)), k=3, seed=0), path)
        before = tree_bytes(cfg.out_dir)
        with pytest.raises(ValidationError) as err:
            run_prt(cfg)
        source = cfg.out_dir / "source.ckpt"
        assert str(err.value) == f"{path}: k = 3 pseudo-classes, against 4 source classes in {source}"
        after = tree_bytes(cfg.out_dir)
        del before["manifest.txt"], after["manifest.txt"]  # the stage's key leaves it while it runs
        assert after == before


class TestMissingPrerequisites:
    def test_evaluate_names_missing_checkpoint(self, tmp_path):
        cfg = mini_config(tmp_path)
        run_generate(cfg)
        with pytest.raises(FileNotFoundError) as err:
            run_evaluate(cfg)
        assert "tl.ckpt" in str(err.value)

    def test_missing_tl_is_named_and_report_kept(self, mini_run, tmp_path):
        base, _ = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run")
        shutil.copytree(base.out_dir, cfg.out_dir)
        missing = cell_path(cfg, cfg.ratios[-1], cfg.fold_count - 1, "tl")
        missing.unlink()
        report = (cfg.out_dir / "report.csv").read_bytes()
        with pytest.raises(FileNotFoundError, match=str(missing)):
            run_evaluate(cfg)
        assert (cfg.out_dir / "report.csv").read_bytes() == report

    @pytest.mark.parametrize("stage", [run_pretrain, run_cluster, run_prt, run_tl, run_dict, run_evaluate],
                             ids=lambda stage: stage.__name__)
    def test_stage_refuses_data_of_another_seed(self, mini_run, tmp_path, stage):
        base, _ = mini_run
        shutil.copytree(base.out_dir, tmp_path / "run")
        before = tree_bytes(tmp_path / "run")
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run", master_seed=base.master_seed + 1)
        with pytest.raises(ValidationError, match="manifest.txt"):
            stage(cfg)
        assert tree_bytes(cfg.out_dir) == before

    def test_pretrain_requires_generated_data(self, tmp_path):
        cfg = mini_config(tmp_path)
        with pytest.raises(FileNotFoundError) as err:
            run_pretrain(cfg)
        assert "source.bin" in str(err.value)

    def test_prt_requires_cluster_model(self, tmp_path):
        cfg = mini_config(tmp_path)
        run_generate(cfg)
        run_pretrain(cfg)
        with pytest.raises(FileNotFoundError) as err:
            run_prt(cfg)
        assert "clusters.ckpt" in str(err.value)


class TestCrashSafeOutputs:
    @pytest.mark.parametrize("stage,name", [
        (run_generate, "manifest.txt"),
        (run_pretrain, "logs/source.log"),
        (run_evaluate, "report.csv"),
        (run_evaluate, "folds.csv"),
        (run_evaluate, "report.txt"),
    ])
    def test_crash_before_rename_keeps_previous_output(self, mini_run, tmp_path, monkeypatch, stage, name):
        base, _ = mini_run
        cfg = dataclasses.replace(base, out_dir=tmp_path / "run")
        shutil.copytree(base.out_dir, cfg.out_dir)
        target = cfg.out_dir / name
        target.write_bytes(b"previous\n")
        real_replace = os.replace

        def crash_on_target(src, dst):
            if Path(dst) == target:
                raise OSError("simulated crash before the rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_target)
        with pytest.raises(OSError, match="simulated crash"):
            stage(cfg)
        assert target.read_bytes() == b"previous\n"
        assert list(cfg.out_dir.rglob(".*.tmp")) == []


def _bundled_blas():
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def bundled_blas_threads():
    """Live thread count of NumPy's bundled OpenBLAS, or None when it is not bundled."""
    lib = _bundled_blas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


@pytest.fixture()
def two_blas_threads():
    """The caller runs OpenBLAS on two threads, so that a stage's limit shows
    on any host; its own count comes back afterwards."""
    before = bundled_blas_threads()
    if before is None:
        pytest.skip("NumPy does not bundle scipy-openblas")
    _bundled_blas().scipy_openblas_set_num_threads64_(2)
    yield
    _bundled_blas().scipy_openblas_set_num_threads64_(before)


def record_blas_threads(monkeypatch, name: str) -> list[int]:
    """Wrap harness.<name> so that each call records the live BLAS thread count."""
    seen = []
    inner = getattr(harness, name)

    def recording(*args, **kwargs):
        seen.append(bundled_blas_threads())
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, name, recording)
    return seen


class TestOneBlasThread:
    def test_each_stage_runs_on_one_thread_and_restores_the_count(self, two_blas_threads, tmp_path,
                                                                   monkeypatch):
        pretrain = record_blas_threads(monkeypatch, "pretrain_source")
        crc = record_blas_threads(monkeypatch, "class_probabilities")
        cfg = mini_config(tmp_path)
        for stage in (run_generate, run_pretrain, run_cluster, run_prt, run_tl, run_dict, run_evaluate):
            stage(cfg)
            assert bundled_blas_threads() == 2, stage.__name__
        assert pretrain == [1]
        assert crc and set(crc) == {1}

    def test_nested_stages_keep_the_limit(self, two_blas_threads, tmp_path, monkeypatch):
        pretrain = record_blas_threads(monkeypatch, "pretrain_source")
        crc = record_blas_threads(monkeypatch, "class_probabilities")
        run_experiment(mini_config(tmp_path))
        assert pretrain == [1]
        assert crc and set(crc) == {1}
        assert bundled_blas_threads() == 2

    def test_caller_count_restored_after_a_stage_raises(self, two_blas_threads, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_pretrain(mini_config(tmp_path))
        assert bundled_blas_threads() == 2

    def test_bytes_do_not_depend_on_the_limit(self, two_blas_threads, tmp_path, monkeypatch):
        # the default data sizes: at the mini_config sizes no product reaches
        # OpenBLAS's threading threshold, so the comparison would prove nothing
        cfg = ExperimentConfig(out_dir=tmp_path / "limited", ratios=(100,), fold_count=2)
        run_experiment(cfg)
        monkeypatch.setattr(harness, "_set_blas_threads", lambda count: None)
        pretrain = record_blas_threads(monkeypatch, "pretrain_source")
        run_experiment(dataclasses.replace(cfg, out_dir=tmp_path / "unlimited"))
        assert pretrain == [2]
        assert tree_bytes(tmp_path / "limited") == tree_bytes(tmp_path / "unlimited")


def test_limit_does_nothing_without_bundled_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_openblas", lambda: None)
    assert harness._set_blas_threads(1) is None
    run_generate(mini_config(tmp_path))
    assert (tmp_path / "manifest.txt").exists()
