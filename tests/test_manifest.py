import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest

import pretext_transfer
from pretext_transfer.clustering import ClusterModel, kmeans_fit, load_cluster_model, save_cluster_model
from pretext_transfer.data import LabeledSet, UnlabeledSet, load_dataset, save_dataset
from pretext_transfer.dictionary import FeatureDictionary, load_dictionary, save_dictionary
from pretext_transfer.errors import ValidationError
from pretext_transfer.manifest import read_artifact, unpack_blob, write_artifact, write_text_file
from pretext_transfer.network import init_network, load_checkpoint, save_checkpoint


class TestWriteArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        write_artifact(path, "thing", [("n", 2)], [np.array([1.5, -2.0])], [np.array([3, 4])])
        values, blob = read_artifact(path, "thing", {"n": int})
        assert values == [2]
        assert isinstance(blob, memoryview)  # a view of the bytes read, not a copy
        assert blob == np.array([1.5, -2.0], dtype="<f8").tobytes() + np.array([3, 4], dtype="<i4").tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.bin"
        write_artifact(path, "thing", [("n", 1)], [np.ones(3)])
        before = path.read_bytes()
        # the header is written before the array fails to convert to <f8
        with pytest.raises(ValueError):
            write_artifact(path, "thing", [("n", 2)], [np.zeros(3), np.array(["not a float"])])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            write_artifact(tmp_path / "a.bin", "thing", [], [np.array(["x"])])
        assert list(tmp_path.iterdir()) == []


def fail_rename(monkeypatch):
    """Make the final rename of every crash-safe write raise, as a crash there would."""
    def replace(src, dst):
        raise OSError("simulated crash before the rename")
    monkeypatch.setattr(os, "replace", replace)


class TestWriteTextFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "logs" / "report.txt"
        write_text_file(path, "a = 1\nµ\n")
        assert path.read_bytes() == "a = 1\nµ\n".encode("utf-8")
        assert [p.name for p in path.parent.iterdir()] == ["report.txt"]

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.csv"
        write_text_file(path, "previous\n")
        fail_rename(monkeypatch)
        with pytest.raises(OSError):
            write_text_file(path, "next\n")
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        fail_rename(monkeypatch)
        with pytest.raises(OSError):
            write_text_file(tmp_path / "report.csv", "next\n")
        assert list(tmp_path.iterdir()) == []


_RNG = np.random.default_rng(0)

# codec -> (artifact, save, load, byte width of the blob's last element)
CODECS = {
    "labeled-dataset": (
        LabeledSet(_RNG.normal(size=(5, 3)), [0, 1, 0, 1, 1], 2), save_dataset, load_dataset, 4
    ),
    "unlabeled-dataset": (UnlabeledSet(_RNG.normal(size=(5, 3))), save_dataset, load_dataset, 8),
    "checkpoint": (
        init_network((3, 4, 2)),
        save_checkpoint,
        load_checkpoint,
        8,
    ),
    "clusters": (kmeans_fit(_RNG.normal(size=(10, 2)), k=2), save_cluster_model, load_cluster_model, 4),
    "dictionary": (
        FeatureDictionary(_RNG.normal(size=(3, 4)), (2, 2)), save_dictionary, load_dictionary, 8
    ),
}


class TestBlobLayout:
    @pytest.mark.parametrize("damage", ["short", "long"])
    @pytest.mark.parametrize("codec", CODECS)
    def test_corrupt_blob_rejected(self, tmp_path, codec, damage):
        """A blob one element short or one byte too long does not match its manifest."""
        artifact, save, load, last_width = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        load(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-last_width] if damage == "short" else raw + b"\0")
        with pytest.raises(ValidationError, match="blob size"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_unparsable_value_rejected(self, tmp_path, codec):
        """The first digit of the manifest, after its kind line, turned into a letter."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        kind, newline, rest = path.read_bytes().partition(b"\n")
        path.write_bytes(kind + newline + re.sub(rb"\d", b"O", rest, count=1))
        with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: bad value for"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_repeated_key_rejected(self, tmp_path, codec):
        """A second line for the manifest's first key, with another value, is
        refused at its line rather than read under either value."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        kind, first, rest = path.read_bytes().split(b"\n", 2)
        key = first.partition(b" = ")[0]
        path.write_bytes(b"\n".join([kind, first, key + b" = 9", rest]))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: manifest key '{key.decode()}' repeats$"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_repeat_is_named_at_its_last_line(self, tmp_path, codec):
        """The manifest's first key on three lines is refused at the third."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        kind, first, rest = path.read_bytes().split(b"\n", 2)
        key = first.partition(b" = ")[0]
        path.write_bytes(b"\n".join([kind, first, first, first, rest]))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:4: manifest key '{key.decode()}' repeats$"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_malformed_line_rejected(self, tmp_path, codec):
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        kind, newline, rest = path.read_bytes().partition(b"\n")
        path.write_bytes(kind + newline + b"no separator\n" + rest)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: malformed manifest line 'no separator'$"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_other_kind_rejected(self, tmp_path, codec):
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        kind, newline, rest = path.read_bytes().partition(b"\n")
        path.write_bytes(b"other v1" + newline + rest)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: expected a '{kind.decode()}' manifest$"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_missing_separator_rejected(self, tmp_path, codec):
        """The manifest lines alone, without the blank line and blob after them."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.index(b"\n\n") + 1])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: missing manifest/blob separator$"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_missing_key_rejected(self, tmp_path, codec):
        """The manifest's first key line deleted."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        kind, first, rest = path.read_bytes().split(b"\n", 2)
        key = first.partition(b" = ")[0]
        path.write_bytes(kind + b"\n" + rest)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: manifest is missing key '{key.decode()}'$"):
            load(path)

    @pytest.mark.parametrize("codec", CODECS)
    def test_unread_key_may_repeat(self, tmp_path, codec):
        """A key that the loader does not read, on two lines, changes nothing
        that it loads: saved again, the artifact has its first bytes."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        raw = path.read_bytes()
        kind, newline, rest = raw.partition(b"\n")
        path.write_bytes(kind + newline + b"note = a\nnote = b\n" + rest)
        save(load(path), tmp_path / "again")
        assert (tmp_path / "again").read_bytes() == raw

    @pytest.mark.parametrize("codec", CODECS)
    def test_non_utf8_header_rejected(self, tmp_path, codec):
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        path.write_bytes(b"\xff" + path.read_bytes()[1:])
        with pytest.raises(ValidationError, match=f"{path}: manifest is not UTF-8"):
            load(path)

    @pytest.mark.parametrize("codec, value, tail, error", [
        ("labeled-dataset", np.array(2, "<i4"), 0, r"labels must lie in \[0, 2\)"),
        ("unlabeled-dataset", np.array(np.nan, "<f8"), 0, "blob holds non-finite values"),
        ("clusters", np.array(2, "<i4"), 0, r"labels must lie in \[0, 2\)"),
        ("clusters", np.array(-1, "<i4"), 0, r"labels must lie in \[0, 2\)"),
        ("clusters", np.array(np.nan, "<f8"), 10 * 4, "blob holds non-finite values"),
        ("checkpoint", np.array(np.nan, "<f8"), 0, "blob holds non-finite values"),
        ("dictionary", np.array(np.nan, "<f8"), 0, "blob holds non-finite values"),
    ], ids=["label-over-class-count", "nan-feature", "label-over-k", "negative-label", "nan-centroid",
            "nan-parameter", "nan-column"])
    def test_invalid_contents_name_the_file(self, tmp_path, codec, value, tail, error):
        """The blob element that ends ``tail`` bytes before its end overwritten
        with an invalid value: the last one, or for ``nan-centroid`` the last
        centroid value, which the 10 int32 pseudo-labels follow."""
        artifact, save, load, _ = CODECS[codec]
        path = tmp_path / "artifact"
        save(artifact, path)
        raw = path.read_bytes()
        end = len(raw) - tail
        path.write_bytes(raw[:end - value.nbytes] + value.tobytes() + raw[end:])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {error}"):
            load(path)

    def test_fewer_samples_than_clusters_rejected(self, tmp_path):
        path = tmp_path / "clusters.ckpt"
        save_cluster_model(ClusterModel(np.zeros((3, 2)), 0, [1.0], np.array([0, 1])), path)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: m = 2 samples cannot fill k = 3"):
            load_cluster_model(path)

    def test_negative_dimension_rejected(self):
        # (-2, -3) and (-1, 0) multiply out to sizes a blob could match
        for shape, blob in [((-2, -3), bytes(48)), ((-1, 0), b"")]:
            with pytest.raises(ValidationError, match="blob size"):
                unpack_blob(blob, "a.bin", [shape])


_WRITE_MODE = set("wax+")


def writes_file(call: ast.Call) -> bool:
    """Whether a call writes a file: Path.write_text/write_bytes, or an open() whose
    mode is not a constant read-only mode."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else None
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode = call.args[0] if call.args else None
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not _WRITE_MODE & set(mode.value))


def file_writes(source: str) -> list[int]:
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and writes_file(node)
    ]


def test_write_detector():
    assert file_writes(
        "p.write_text('x')\np.write_bytes(b'')\nopen(p, 'w')\np.open('ab')\n"
        "open(p, mode='x')\nopen(p, 'r+')\nopen(p, m)\n"
    ) == [1, 2, 3, 4, 5, 6, 7]
    assert file_writes("open(p)\nopen(p, 'rb')\np.open()\np.read_text()\np.open(mode='r')\n") == []


def test_only_manifest_writes_files():
    """Every file the package writes lands through manifest.py's crash-safe writer."""
    package = Path(pretext_transfer.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "manifest.py"
        for lineno in file_writes(path.read_text())
    ]
    assert offenders == []
