import ctypes
import dataclasses
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import pretext_transfer.harness as harness
from pretext_transfer.data import SynthConfig
from pretext_transfer.errors import ConfigError, ValidationError
from pretext_transfer.harness import (
    STAGES,
    ExperimentConfig,
    build_layer_specs,
    cell_path,
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


class TestConfigValidation:
    def test_bad_ratio_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="subset"):
            mini_config(tmp_path, ratios=(10, 33))
        # a repeated ratio would train and score every cell of it twice
        with pytest.raises(ConfigError, match="ratios must not repeat"):
            mini_config(tmp_path, ratios=(10, 10))

    def test_single_fold_rejected(self, tmp_path):
        # one fold leaves every training split empty
        with pytest.raises(ConfigError, match="fold_count must be >= 2"):
            mini_config(tmp_path, fold_count=1)

    @pytest.mark.parametrize("setting, message", [
        (dict(kmeans_max_iters=0), "cluster stage: kmeans_max_iters must be >= 1"),
        (dict(kmeans_tol=-1.0), "cluster stage: kmeans_tol must be >= 0 and finite"),
        (dict(kmeans_tol=float("nan")), "cluster stage: kmeans_tol must be >= 0 and finite"),
        (dict(kmeans_tol=float("inf")), "cluster stage: kmeans_tol must be >= 0 and finite"),
    ], ids=["max_iters-0", "tol-negative", "tol-nan", "tol-inf"])
    def test_bad_kmeans_setting_rejected_before_any_write(self, tmp_path, setting, message):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=message):
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


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(5, 10, 0, "TL") == derive_seed(5, 10, 0, "TL")
        assert derive_seed(5, 10, 0, "TL") != derive_seed(5, 10, 1, "TL")
        assert derive_seed(5, 10, 0, "TL") != derive_seed(6, 10, 0, "TL")
        assert derive_seed(5, 10, 0, "TL") != derive_seed(5, 10, 0, "PRT+TL")


class TestLayerSpecsBuilder:
    def test_shapes_and_groups(self):
        specs = build_layer_specs(6, 4, hidden=(8, 7), projection_dim=5)
        assert [(s.input_dim, s.output_dim) for s in specs] == [(6, 8), (8, 7), (7, 5), (5, 4)]
        # three representation layers (two hidden and the projection), then the head
        assert [s.activation for s in specs] == ["relu", "relu", "identity", "identity"]


class TestGridRun:
    def test_row_cardinality(self, mini_run):
        cfg, report = mini_run
        assert len(report.per_fold) == len(METHOD_ORDER) * len(cfg.ratios) * cfg.fold_count
        for row in report.per_fold:
            for metric in ("sen", "spe", "f1", "acc"):
                assert np.isfinite(getattr(row, metric))

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


class TestEvaluateOncePerFold:
    def test_each_fold_projected_once_for_all_ratios(self, mini_run, tmp_path, monkeypatch):
        # every ratio's cell of a fold shares its test set, so the fold's PRT
        # projection and CRC normalization are computed once, not once per cell
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
        assert len(cfg.ratios) > 1
        assert len(projected) == len(normalized) == cfg.fold_count


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
        crc = record_blas_threads(monkeypatch, "unit_class_probabilities")
        cfg = mini_config(tmp_path)
        for stage in (run_generate, run_pretrain, run_cluster, run_prt, run_tl, run_dict, run_evaluate):
            stage(cfg)
            assert bundled_blas_threads() == 2, stage.__name__
        assert pretrain == [1]
        assert crc and set(crc) == {1}

    def test_nested_stages_keep_the_limit(self, two_blas_threads, tmp_path, monkeypatch):
        pretrain = record_blas_threads(monkeypatch, "pretrain_source")
        crc = record_blas_threads(monkeypatch, "unit_class_probabilities")
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
