import ctypes
import dataclasses
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import pretext_transfer.harness as harness
from pretext_transfer.data import SynthConfig
from pretext_transfer.errors import ConfigError
from pretext_transfer.harness import (
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
)
from pretext_transfer.network import CLASSIFICATION, REPRESENTATION

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
        with pytest.raises(ConfigError):
            mini_config(tmp_path, ratios=(10, 33))

    def test_bad_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            mini_config(tmp_path, methods=("TL", "CRC"))

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            mini_config(tmp_path, methods=())

    def test_single_fold_rejected(self, tmp_path):
        # one fold leaves every training split empty
        with pytest.raises(ConfigError, match="fold_count must be >= 2"):
            mini_config(tmp_path, fold_count=1)


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
        assert [s.group for s in specs] == [REPRESENTATION] * 3 + [CLASSIFICATION]
        assert specs[-1].activation == "identity"


class TestGridRun:
    def test_row_cardinality(self, mini_run):
        cfg, report = mini_run
        assert len(report.per_fold) == len(cfg.methods) * len(cfg.ratios) * cfg.fold_count
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

    def test_adding_methods_does_not_perturb_tl_rows(self, mini_run, tmp_path):
        cfg, full_report = mini_run
        tl_cfg = mini_config(tmp_path / "tl_only", methods=("TL",), master_seed=cfg.master_seed)
        tl_report = run_experiment(tl_cfg)
        tl_rows_full = [r for r in full_report.per_fold if r.method == "TL"]
        assert tl_report.per_fold == tl_rows_full

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
        assert (staged.out_dir / "report.csv").read_bytes() == (
            cfg.out_dir / "report.csv"
        ).read_bytes()

    def test_tl_only_stages_write_what_run_all_writes(self, tmp_path):
        run_all = mini_config(tmp_path / "run_all", methods=("TL",))
        staged = mini_config(tmp_path / "staged", methods=("TL",))
        run_experiment(run_all)
        for stage in (run_generate, run_pretrain, run_cluster, run_prt, run_tl, run_dict, run_evaluate):
            stage(staged)
        assert tree_bytes(staged.out_dir) == tree_bytes(run_all.out_dir)


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

        def counting_tl_train(sessions):
            with open(calls, "a") as fh:
                fh.write(f"{len(sessions)}\n")
            return real_tl_train(sessions)

        monkeypatch.setattr(harness, "tl_train", counting_tl_train)
        cfg = mini_config(tmp_path / "run", ratios=(10, 25, 100), fold_count=3, workers=workers)
        run_experiment(cfg)
        # every fold of the ratio, on both routes
        assert calls.read_text().splitlines() == ["6", "6", "6"]


class TestBaselineIsolation:
    def test_tl_only_run_creates_no_prt_artifacts(self, tmp_path):
        cfg = mini_config(tmp_path, methods=("TL",))
        run_experiment(cfg)
        assert not (cfg.out_dir / "clusters.ckpt").exists()
        assert not prt_ckpt_path(cfg).exists()
        for ratio in cfg.ratios:
            for fold in range(cfg.fold_count):
                assert not cell_path(cfg, ratio, fold, "prt").exists()
                assert not cell_path(cfg, ratio, fold, "prt_tl").exists()
                assert not cell_path(cfg, ratio, fold, "dict").exists()
                assert cell_path(cfg, ratio, fold, "tl").exists()

    def test_tl_evaluation_never_reads_prt_files(self, mini_run, tmp_path, monkeypatch):
        # evaluate TL rows from a copy of a directory that does contain PRT
        # artifacts and log every checkpoint read: none may be a PRT product
        base, _ = mini_run
        tl_cfg = dataclasses.replace(base, out_dir=tmp_path / "run", methods=("TL",))
        shutil.copytree(base.out_dir, tl_cfg.out_dir)
        opened = []
        real_load = harness.load_checkpoint

        def recording_load(path):
            opened.append(str(path))
            return real_load(path)

        monkeypatch.setattr(harness, "load_checkpoint", recording_load)
        monkeypatch.setattr(
            harness, "load_dictionary", lambda path: pytest.fail("dictionary loaded")
        )
        run_evaluate(tl_cfg)
        assert opened, "evaluation must load the TL checkpoints"
        assert not [p for p in opened if "prt" in Path(p).name]


class TestMissingPrerequisites:
    def test_evaluate_names_missing_checkpoint(self, tmp_path):
        cfg = mini_config(tmp_path)
        run_generate(cfg)
        with pytest.raises(FileNotFoundError) as err:
            run_evaluate(cfg)
        assert "tl.ckpt" in str(err.value)

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
