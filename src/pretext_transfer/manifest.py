"""Single-file artifact format: a text manifest followed by a binary blob.

All persisted artifacts (checkpoints, cluster models, dictionaries, datasets)
share this layout. The manifest is UTF-8 ``key = value`` lines, key order
preserved and repeated keys allowed; a blank line terminates it. The blob is
raw little-endian data, float64 unless the owning format says otherwise.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import ValidationError

_SEPARATOR = b"\n\n"


def write_artifact(
    path: str | Path,
    kind: str,
    fields: list[tuple[str, object]],
    float_arrays: list[np.ndarray] = (),
    int_arrays: list[np.ndarray] = (),
) -> None:
    """Write a manifest+blob file; floats first, int32 blocks after.

    The bytes go to a sibling temp file that is renamed over ``path`` only once
    complete, so a crash mid-write leaves any previous file intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{kind} v1"]
    lines.extend(f"{key} = {value}" for key, value in fields)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write("\n".join(lines).encode("utf-8") + _SEPARATOR)
            for arr in float_arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            for arr in int_arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<i4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_artifact(path: str | Path, kind: str) -> tuple[list[tuple[str, str]], bytes]:
    """Return the manifest as ordered (key, value) pairs plus the raw blob."""
    path = Path(path)
    raw = path.read_bytes()
    split = raw.find(_SEPARATOR)
    if split < 0:
        raise ValidationError(f"{path}: missing manifest/blob separator")
    header = raw[:split].decode("utf-8").splitlines()
    if not header or header[0] != f"{kind} v1":
        raise ValidationError(f"{path}: expected a '{kind} v1' manifest")
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(header[1:], start=2):
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: malformed manifest line {line!r}")
        pairs.append((key, value))
    return pairs, raw[split + len(_SEPARATOR):]


def manifest_value(pairs: list[tuple[str, str]], key: str, path: str | Path) -> str:
    for k, value in pairs:
        if k == key:
            return value
    raise ValidationError(f"{path}: manifest is missing key '{key}'")


def manifest_values(pairs: list[tuple[str, str]], key: str) -> list[str]:
    return [value for k, value in pairs if k == key]
