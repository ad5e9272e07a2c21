"""Every file the package writes, and the layout of every artifact blob.

An artifact (checkpoint, cluster model, dictionary, dataset) is UTF-8
``key = value`` manifest lines, key order kept and repeats allowed, ended by a
blank line, then a blob of little-endian float64 blocks followed by int32
blocks; ``unpack_blob`` is the blob's only reader. Artifacts and text outputs
(reports, the run manifest, logs) land through a sibling temp file and a
rename, so a crash mid-write leaves any previous file intact.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError

_SEPARATOR = b"\n\n"
_FLOAT = np.dtype("<f8")
_INT = np.dtype("<i4")


def _write_atomic(path: str | Path, chunks) -> None:
    """Write the byte chunks to a sibling temp file, then rename it over ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_file(path: str | Path, text: str) -> None:
    """Write a UTF-8 text file crash-safely."""
    _write_atomic(path, [text.encode("utf-8")])


def write_artifact(
    path: str | Path,
    kind: str,
    fields: list[tuple[str, object]],
    float_arrays: list[np.ndarray] = (),
    int_arrays: list[np.ndarray] = (),
) -> None:
    """Write a manifest+blob file crash-safely; floats first, int32 blocks after."""
    lines = [f"{kind} v1"]
    lines.extend(f"{key} = {value}" for key, value in fields)

    def chunks():
        yield "\n".join(lines).encode("utf-8") + _SEPARATOR
        for arr in float_arrays:
            yield np.ascontiguousarray(arr, dtype=_FLOAT).tobytes()
        for arr in int_arrays:
            yield np.ascontiguousarray(arr, dtype=_INT).tobytes()

    _write_atomic(path, chunks())


def read_artifact(path: str | Path, kind: str) -> tuple[list[tuple[str, str]], bytes]:
    """Return the manifest as ordered (key, value) pairs plus the raw blob."""
    path = Path(path)
    raw = path.read_bytes()
    split = raw.find(_SEPARATOR)
    if split < 0:
        raise ValidationError(f"{path}: missing manifest/blob separator")
    try:
        header = raw[:split].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: manifest is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not header or header[0] != f"{kind} v1":
        raise ValidationError(f"{path}: expected a '{kind} v1' manifest")
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(header[1:], start=2):
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: malformed manifest line {line!r}")
        pairs.append((key, value))
    return pairs, raw[split + len(_SEPARATOR):]


def unpack_blob(
    blob: bytes, path, float_shapes: list[tuple[int, ...]], int_lengths: list[int] = ()
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a blob into copied float64 arrays and int64 vectors, in the order
    written; their shapes and lengths must account for every byte."""
    blocks = [(_FLOAT, np.float64, tuple(shape)) for shape in float_shapes]
    blocks += [(_INT, np.int64, (length,)) for length in int_lengths]
    if any(dim < 0 for *_, shape in blocks for dim in shape) or len(blob) != sum(
        dtype.itemsize * math.prod(shape) for dtype, _, shape in blocks
    ):
        raise ValidationError(f"{path}: blob size does not match the manifest")
    arrays, offset = [], 0
    for dtype, kind, shape in blocks:
        count = math.prod(shape)
        arrays.append(np.frombuffer(blob, dtype, count, offset).reshape(shape).astype(kind))
        offset += count * dtype.itemsize
    return arrays[:len(float_shapes)], arrays[len(float_shapes):]


def manifest_values(pairs: list[tuple[str, str]], key: str, path: str | Path, parse) -> list:
    """``parse`` of every value of ``key``, in file order; a ValueError from
    ``parse`` becomes a ValidationError that names the file and the key."""
    try:
        return [parse(value) for k, value in pairs if k == key]
    except ValueError as exc:
        raise ValidationError(f"{path}: bad value for '{key}': {exc}") from None


def manifest_value(pairs: list[tuple[str, str]], key: str, path: str | Path, parse):
    """``parse`` of the first value of ``key``, which must be present."""
    values = manifest_values(pairs, key, path, parse)
    if not values:
        raise ValidationError(f"{path}: manifest is missing key '{key}'")
    return values[0]
