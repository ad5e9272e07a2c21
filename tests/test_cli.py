import functools
from pathlib import Path

import numpy as np
import pytest

from pretext_transfer.cli import main
from pretext_transfer.config import FIELDS, build_experiment_config, parse_config_file
from pretext_transfer.errors import ConfigError
from pretext_transfer.harness import ExperimentConfig

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
methods = TL,PRT+TL,All
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
    "ridge": ("0.01", "crc.ridge", 0.01),
    "epsilon": ("1e-9", "crc.epsilon", 1e-9),
    "ratios": ("25,75", "ratios", (25, 75)),
    "methods": ("TL, All", "methods", ("TL", "All")),
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
        assert cfg.methods == ("TL", "PRT+TL", "All")
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
    ], ids=["tl_epochs", "prt_epochs", "source_lr", "batch", "momentum", "hidden", "projection_dim"])
    def test_bad_stage_setting_exits_1_before_writing(self, config_file, tmp_path, capsys, line, message):
        key = line.split("=")[0]
        kept = [entry for entry in MINI_CFG.splitlines() if not entry.startswith(key)]
        config_file.write_text("\n".join([*kept, line]) + "\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_exits_1_before_writing(self, config_file, tmp_path, capsys):
        config_file.write_text(MINI_CFG + "tl_epochs = 7\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 1
        assert "key 'tl_epochs' repeats line" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_key_exits_1_before_writing(self, config_file, tmp_path, capsys):
        # every stage runs in one process, so a worker count would do nothing
        config_file.write_text(MINI_CFG + "workers = 2\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 1
        assert "unknown key 'workers'" in capsys.readouterr().err
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
