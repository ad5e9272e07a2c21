import argparse
import functools
from pathlib import Path

import numpy as np
import pytest

import pretext_transfer.harness as harness
from pretext_transfer.cli import build_parser, main
from pretext_transfer.config import FIELDS, build_experiment_config, parse_config_file
from pretext_transfer.errors import ConfigError
from pretext_transfer.harness import STAGES, ExperimentConfig

MINI_CFG = """
# mini experiment
source_classes = 4
dim = 6
samples_per_class = 12
unlabeled_size = 80
positives = 20
negatives = 20
shift = 1.5
noise = 1.0
hidden = 8
projection_dim = 6
source_epochs = 4
prt_epochs = 2
tl_epochs = 2
ratios = 10,100
folds = 2
"""


# every config-file key: (file value, the field it sets, the parsed value); no
# value is a default, so a key that lands on the wrong field or is dropped shows
EVERY_KEY = {
    "out": ("elsewhere", "out_dir", Path("elsewhere")),
    "seed": ("4", "master_seed", 4),
    "folds": ("3", "fold_count", 3),
    "source_classes": ("5", "synth.source_class_count", 5),
    "dim": ("9", "synth.dim", 9),
    "samples_per_class": ("11", "synth.samples_per_class", 11),
    "unlabeled_size": ("77", "synth.unlabeled_size", 77),
    "positives": ("21", "synth.positives", 21),
    "negatives": ("22", "synth.negatives", 22),
    "shift": ("1.25", "synth.shift", 1.25),
    "noise": ("0.5", "synth.noise", 0.5),
    "hidden": ("8, 4", "hidden", (8, 4)),
    "projection_dim": ("5", "projection_dim", 5),
    "source_epochs": ("3", "source_epochs", 3),
    "source_lr": ("0.02", "source_lr", 0.02),
    "prt_epochs": ("4", "prt_epochs", 4),
    "tl_epochs": ("2", "tl_epochs", 2),
    "lr": ("0.001", "base_lr", 0.001),
    "batch": ("8", "batch_size", 8),
    "momentum": ("0.5", "momentum", 0.5),
    "ridge": ("0.01", "ridge", 0.01),
    "ratios": ("25,75", "ratios", (25, 75)),
}


# every float setting, by config-file key: NaN passes any `<` or `<=` test, so
# each one must also be finite
NON_FINITE = ("nan", "inf", "-inf")
NON_FINITE_MESSAGES = {
    "lr": "stage: base_lr must be positive and finite",
    "source_lr": "source stage: base_lr must be positive and finite",
    "shift": "shift must be >= 0 and finite",
    "noise": "noise must be > 0 and finite",
    "ridge": "ridge must be > 0 and finite",
}


def field_value(cfg, path):
    return functools.reduce(getattr, path.split("."), cfg)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINI_CFG)
    return path


class TestConfigParsing:
    def test_comments_and_values(self, config_file):
        values = parse_config_file(config_file)
        assert values["dim"] == ("6", 4)
        assert "comment" not in values

    def test_parse_failure_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dim = 6\nnot a pair\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            parse_config_file(path)

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# fine\nmystery = 3\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*mystery"):
            parse_config_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tl_epochs = 7\n# later\ntl_epochs = 2\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3: key 'tl_epochs' repeats line 1"):
            parse_config_file(path)

    def test_overrides_beat_file_values(self, config_file, tmp_path):
        cfg = build_experiment_config(
            config_file, seed=9, out=tmp_path / "o", ratios=(100,), folds=2
        )
        assert cfg.master_seed == 9
        assert cfg.ratios == (100,)
        assert cfg.synth.positives == 20
        assert cfg.hidden == (8,)

    def test_defaults_without_file(self):
        cfg = build_experiment_config()
        assert cfg == ExperimentConfig(out_dir=Path("out"))
        assert cfg.ratios == (10, 25, 50, 75, 100)
        assert cfg.fold_count == 5
        assert cfg.synth.positives == 349

    def test_every_key_lands_on_its_field(self, tmp_path):
        assert set(EVERY_KEY) == set(FIELDS)
        path = tmp_path / "every.cfg"
        path.write_text("".join(f"{key} = {raw}\n" for key, (raw, _, _) in EVERY_KEY.items()))
        cfg = build_experiment_config(path)
        defaults = ExperimentConfig(out_dir=Path("out"))
        for key, (_, field, expected) in EVERY_KEY.items():
            assert field_value(defaults, field) != expected, key
            assert field_value(cfg, field) == expected, key


class TestCliDispatch:
    def test_run_all_happy_path(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run-all", "--config", str(config_file), "--seed", "7", "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()
        captured = capsys.readouterr()
        assert "Accuracy" in captured.out

    def test_subcommands_are_the_stage_table(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert list(subparsers.choices) == [*STAGES, "run-all"]

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["explode"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["generate", "--frobnicate"]) == 2

    @pytest.mark.parametrize("flag", [["--folds", "abc"], ["--ratios", "10,x"]])
    def test_malformed_flag_value_exits_2(self, flag, tmp_path, capsys):
        assert main(["generate", *flag, "--out", str(tmp_path / "o")]) == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run-all", "--help"]) == 0

    def test_config_parse_failure_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("???\n")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "bad.cfg:1" in capsys.readouterr().err

    def test_single_fold_exits_1_before_writing(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), "--folds", "1", "--out", str(out)]) == 1
        assert "fold_count must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("tl_epochs = 0", "tl stage: epochs must be >= 1"),
        ("prt_epochs = 0", "prt stage: epochs must be >= 1"),
        ("source_lr = 0", "source stage: base_lr must be positive"),
        ("batch = 0", "stage: batch_size must be >= 1"),
        ("momentum = 1", "stage: momentum must lie in [0, 1)"),
        ("hidden = 0", "hidden/projection_dim: layer 0: dimensions must be positive"),
        ("projection_dim = 0", "hidden/projection_dim: layer 1: dimensions must be positive"),
        *((f"{key} = {value}", message) for key, message in NON_FINITE_MESSAGES.items() for value in NON_FINITE),
    ], ids=["tl_epochs", "prt_epochs", "source_lr", "batch", "momentum", "hidden", "projection_dim",
            *(f"{key}-{value}" for key in NON_FINITE_MESSAGES for value in NON_FINITE)])
    def test_bad_stage_setting_exits_1_before_writing(self, config_file, tmp_path, capsys, line, message):
        key = line.split("=")[0]
        kept = [entry for entry in MINI_CFG.splitlines() if not entry.startswith(key)]
        config_file.write_text("\n".join([*kept, line]) + "\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, flags, message", [
        # make_folds cuts each class into fold_count test blocks
        (["positives = 3", "negatives = 3"], ["--folds", "5"],
         "positives and negatives must each be >= fold_count (5)"),
        # k-means makes one pseudo-class per source class
        (["source_classes = 10", "unlabeled_size = 5"], [],
         "unlabeled_size must be >= source_class_count (10)"),
    ], ids=["folds-exceed-class-size", "unlabeled-below-class-count"])
    def test_data_too_small_for_a_later_stage_exits_1_before_writing(self, config_file, tmp_path, capsys,
                                                                   lines, flags, message):
        keys = {line.split("=")[0] for line in lines}
        kept = [entry for entry in MINI_CFG.splitlines() if entry.split("=")[0] not in keys]
        config_file.write_text("\n".join([*kept, *lines]) + "\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_exits_1_before_writing(self, config_file, tmp_path, capsys):
        config_file.write_text(MINI_CFG + "tl_epochs = 7\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 1
        assert "key 'tl_epochs' repeats line" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_key_exits_1_before_writing(self, config_file, tmp_path, capsys):
        # every stage runs in one process, so a worker count would do nothing;
        # every run scores all three methods, so there is nothing to select;
        # CRC adds a fixed 1e-12 to its residuals, so ridge is its one setting
        for key, line in [("workers", "workers = 2"), ("methods", "methods = TL"), ("epsilon", "epsilon = 1e-9")]:
            config_file.write_text(MINI_CFG + line + "\n")
            out = tmp_path / key
            assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 1
            assert f"unknown key '{key}'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_repeated_ratio_exits_1_before_writing(self, config_file, tmp_path, capsys, source):
        out = tmp_path / "out"
        if source == "flag":
            args = ["--ratios", "100,100"]
        else:
            config_file.write_text(MINI_CFG.replace("ratios = 10,100", "ratios = 100,100"))
            args = []
        assert main(["run-all", "--config", str(config_file), *args, "--out", str(out)]) == 1
        assert "ratios must not repeat, got [100, 100]" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main(["generate", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == "not a directory\n"

    def test_evaluate_without_checkpoints_exits_1(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 0
        code = main(["evaluate", "--config", str(config_file), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "tl.ckpt" in err

    def test_non_utf8_artifact_exits_1(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 0
        source = out / "source.bin"
        source.write_bytes(b"\xff" + source.read_bytes()[1:])
        assert main(["pretrain", "--config", str(config_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {source}: manifest is not UTF-8")

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n\xff\xfe\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {bad}")
        assert not out.exists()

    def test_failed_crc_solve_exits_1(self, config_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        base = ["--config", str(config_file), "--out", str(out)]
        for command in ("generate", "pretrain", "cluster", "prt", "tl", "dict"):
            assert main([command, *base]) == 0, command
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: real_solve(a, b) + 1e-6)
        assert main(["evaluate", *base]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: push-through solve exceeded the residual tolerance")
        assert "raise the ridge setting" in err
        assert not (out / "report.csv").exists()

    def test_diverging_run_exits_1_with_one_error_line(self, tmp_path, capsys):
        # the default network at this rate overflows in TL's first epoch; the
        # suite turns any NumPy warning that escapes the step into a failure
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("lr = 1e6\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg), "--ratios", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: tl stage: "), err
        assert list(out.rglob("tl.ckpt")) == []

    def test_mixed_seed_sequence_exits_1_at_pretrain(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--config", str(config_file), "--out", str(out)]
        assert main(["generate", *base, "--seed", "1"]) == 0
        assert main(["pretrain", *base, "--seed", "2"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'manifest.txt'}: ")
        assert not (out / "source.ckpt").exists()

    def test_data_setting_change_exits_1_at_pretrain(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--config", str(config_file), "--out", str(out)]
        assert main(["generate", *base]) == 0
        config_file.write_text(MINI_CFG.replace("shift = 1.5", "shift = 2.0"))
        assert main(["pretrain", *base]) == 1
        assert "another seed or other data settings" in capsys.readouterr().err
        assert not (out / "source.ckpt").exists()

    def test_checkpoint_with_group_tags_exits_1(self, config_file, tmp_path, capsys):
        # checkpoints once tagged every layer "representation" or "classification"
        out = tmp_path / "out"
        base = ["--config", str(config_file), "--out", str(out)]
        for command in ("generate", "pretrain", "cluster", "prt"):
            assert main([command, *base]) == 0, command
        source = out / "source.ckpt"
        header, blob = source.read_bytes().split(b"\n\n", 1)
        lines = header.decode().splitlines()
        layers = [i for i, line in enumerate(lines) if line.startswith("layer = ")]
        for i in layers:
            lines[i] += " classification" if i == layers[-1] else " representation"
        source.write_bytes("\n".join(lines).encode() + b"\n\n" + blob)
        capsys.readouterr()
        assert main(["tl", *base]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {source}: bad value for 'layer'")
        assert "Traceback" not in err
        assert list(out.rglob("tl.ckpt")) == []

    def test_checkpoint_with_a_relu_head_exits_1(self, config_file, tmp_path, capsys):
        # the layer lines parse, but the network they describe breaks the head rule
        out = tmp_path / "out"
        base = ["--config", str(config_file), "--out", str(out)]
        for command in ("generate", "pretrain", "cluster", "prt"):
            assert main([command, *base]) == 0, command
        source = out / "source.ckpt"
        header, blob = source.read_bytes().split(b"\n\n", 1)
        lines = header.decode().splitlines()
        head = max(i for i, line in enumerate(lines) if line.startswith("layer = "))
        assert lines[head].endswith(" identity")
        lines[head] = lines[head].removesuffix(" identity") + " relu"
        source.write_bytes("\n".join(lines).encode() + b"\n\n" + blob)
        capsys.readouterr()
        assert main(["tl", *base]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: {source}: the head (final layer) must have identity activation"]
        assert "Traceback" not in err
        assert list(out.rglob("tl.ckpt")) == []

    def test_staged_subcommands_produce_report(self, config_file, tmp_path):
        out = tmp_path / "staged"
        base = ["--config", str(config_file), "--seed", "3", "--out", str(out)]
        for command in ("generate", "pretrain", "cluster", "prt", "tl", "dict", "evaluate"):
            assert main([command, *base]) == 0, command
        report = (out / "report.csv").read_text()
        assert report.startswith("ratio,method,metric,mean,std")

    def test_determinism_across_processes(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run-all", "--config", str(config_file), "--seed", "11", "--out", str(out_a)]) == 0
        assert main(["run-all", "--config", str(config_file), "--seed", "11", "--out", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


# the data-only manifest of the format before stage keys, as written for MINI_CFG
OLD_MANIFEST = (b"master_seed = 0\nsource_class_count = 4\ndim = 6\nsamples_per_class = 12\n"
                b"unlabeled_size = 80\npositives = 20\nnegatives = 20\nshift = 1.5\nnoise = 1.0\n"
                b"seed = 5645879620718662389\n")


class TestProvenance:
    """Every stage refuses outputs of earlier stages made under other settings
    than its own config's, through `manifest.txt`'s one key per finished stage."""

    @pytest.fixture()
    def base(self, config_file, tmp_path):
        return ["--config", str(config_file), "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("old,new", [("prt_epochs = 2", "prt_epochs = 3"), ("hidden = 8", "hidden = 5")],
                             ids=["prt_epochs", "hidden"])
    def test_tl_refuses_a_prt_model_of_other_settings(self, config_file, base, tmp_path, capsys, old, new):
        out = tmp_path / "out"
        for command in ("generate", "pretrain", "cluster", "prt"):
            assert main([command, *base]) == 0, command
        config_file.write_text(MINI_CFG.replace(old, new))
        assert main(["tl", *base]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'manifest.txt'}: ")
        assert list(out.rglob("tl.ckpt")) == []

    def test_a_rerun_stage_invalidates_the_stages_after_it(self, config_file, base, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run-all", *base]) == 0
        report = (out / "report.csv").read_bytes()
        config_file.write_text(MINI_CFG.replace("prt_epochs = 2", "prt_epochs = 3"))
        assert main(["prt", *base]) == 0
        config_file.write_text(MINI_CFG)
        capsys.readouterr()
        assert main(["evaluate", *base]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'manifest.txt'}: prt ran with another seed")
        assert (out / "report.csv").read_bytes() == report

    def test_a_failed_stage_leaves_no_key(self, base, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert main(["run-all", *base]) == 0

        def crash(*args, **kwargs):
            raise OSError("simulated crash in PRT training")

        monkeypatch.setattr(harness, "prt_train", crash)
        assert main(["prt", *base]) == 1
        lines = (out / "manifest.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["generate", "pretrain", "cluster", "tl", "dict",
                                                            "evaluate"]
        capsys.readouterr()
        assert main(["tl", *base]) == 1
        assert "prt.ckpt" in capsys.readouterr().err

    def test_evaluate_of_a_ratio_subset_keeps_its_rows(self, base, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run-all", *base]) == 0
        rows = [line for line in (out / "report.csv").read_text().splitlines() if line.startswith("10,")]
        assert main(["evaluate", *base, "--ratios", "10"]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[1:] == rows
        capsys.readouterr()
        assert main(["evaluate", *base, "--folds", "3"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'manifest.txt'}: tl ran with another seed")

    @pytest.mark.parametrize("content", [OLD_MANIFEST, b"generate 0123abcd\n", b"generate = \xff\xfe\n"],
                             ids=["before-stage-keys", "no-separator", "not-utf8"])
    def test_old_or_garbled_manifest_is_refused(self, base, tmp_path, capsys, content):
        out = tmp_path / "out"
        assert main(["generate", *base]) == 0
        (out / "manifest.txt").write_bytes(content)
        capsys.readouterr()
        assert main(["pretrain", *base]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'manifest.txt'}: ")
        assert "rerun generate" in err and "Traceback" not in err
        assert not (out / "source.ckpt").exists()
        assert main(["generate", *base]) == 0
        assert main(["pretrain", *base]) == 0
