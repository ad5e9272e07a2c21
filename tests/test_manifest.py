import numpy as np
import pytest

from pretext_transfer.manifest import read_artifact, write_artifact


class TestWriteArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        write_artifact(path, "thing", [("n", 2)], [np.array([1.5, -2.0])], [np.array([3, 4])])
        pairs, blob = read_artifact(path, "thing")
        assert pairs == [("n", "2")]
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
