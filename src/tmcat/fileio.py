"""Deterministic file formats for run artifacts.

CSV uses '.' decimals and 17 significant digits (round-trip exact for
doubles), PGM is binary P5 with big-endian 16-bit samples above 8 bits,
JSON is sorted-key with no timestamps, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError


_CELL = "%.17g"


def _unsigned_zero(values):
    """Cell values as written: adding 0.0 turns -0.0 into 0.0, shown as 0."""
    return values + 0.0


def format_number(value) -> str:
    """Locale-independent cell formatting; floats keep full precision."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _CELL % _unsigned_zero(float(value))


def write_csv(path, headers: list[str], rows) -> None:
    """Write rows of numbers (or strings) under frozen column headers."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(
            ",".join(v if isinstance(v, str) else format_number(v) for v in row)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_csv(path, headers: list[str], xs, ps, values) -> None:
    """Write the rows (xs[i], ps[j], values[i, j]), i-major, as write_csv would.

    The file is streamed one block of len(ps) lines per x.  The p column and
    the value slots form one template, so each block is a single %-format.
    """
    values = np.asarray(values, dtype=float)
    # xs[i] is joined in front of every line; a formatted number holds no '%'
    tails = [""] + [f",{format_number(p)},{_CELL}\n" for p in ps]
    with Path(path).open("w") as fh:
        fh.write(",".join(headers) + "\n")
        for x, row in zip(xs, values):
            fh.write(format_number(x).join(tails) % tuple(_unsigned_zero(row).tolist()))


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_pgm(path, counts: np.ndarray, max_value: int) -> None:
    """Binary P5 image; 2-byte big-endian samples when max_value > 255."""
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValidationError("PGM needs a 2-D array")
    if counts.min() < 0 or counts.max() > max_value:
        raise ValidationError("PGM samples fall outside [0, max_value]")
    if not 0 < max_value < 65536:
        raise ValidationError(f"PGM max value must be in [1, 65535], got {max_value}")
    header = f"P5\n{counts.shape[1]} {counts.shape[0]}\n{max_value}\n".encode("ascii")
    payload = np.ascontiguousarray(counts, dtype=">u2" if max_value > 255 else "u1")
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary P5 image back to (counts, max_value).

    The file is mapped, not read, and its payload converted straight into
    the uint16 result, the one frame-sized allocation.  Raises
    ValidationError on a truncated header or payload.
    """
    with Path(path).open("rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # an empty file cannot be mapped
            raise ValidationError("PGM header is truncated after 0 fields")
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            fields: list[bytes] = []
            pos = 0
            while len(fields) < 4:
                while pos < len(data) and data[pos : pos + 1].isspace():
                    pos += 1
                if pos >= len(data):
                    raise ValidationError(f"PGM header is truncated after {len(fields)} fields")
                if data[pos : pos + 1] == b"#":
                    while pos < len(data) and data[pos] != 0x0A:
                        pos += 1
                    continue
                start = pos
                while pos < len(data) and not data[pos : pos + 1].isspace():
                    pos += 1
                fields.append(data[start:pos])
            if fields[0] != b"P5":
                raise ValidationError(f"not a binary PGM file: magic {fields[0]!r}")
            try:
                width, height, max_value = (int(f) for f in fields[1:4])
            except ValueError:
                raise ValidationError(f"PGM header fields {fields[1:4]!r} are not integers")
            if width < 1 or height < 1 or not 0 < max_value < 65536:
                raise ValidationError(f"PGM header {width}x{height}, max {max_value} invalid")
            pos += 1  # single whitespace byte after maxval
            dtype = ">u2" if max_value > 255 else "u1"
            need = width * height * np.dtype(dtype).itemsize
            if len(data) - pos < need:
                raise ValidationError(
                    f"PGM payload holds {max(len(data) - pos, 0)} bytes, {need} expected"
                )
            # the temporary view is released before the map closes
            counts = np.frombuffer(data, dtype, width * height, pos).astype(np.uint16)
    return counts.reshape(height, width), max_value


def _sidecar_path(path) -> Path:
    """Where the JSON sidecar of the PGM at path lives: <path>.json."""
    return Path(f"{path}.json")


def write_scaled_pgm(path, values: np.ndarray, **fields) -> dict:
    """Affine-map real values onto 16-bit gray and write the scaling sidecar.

    The sidecar holds value_min/value_max, which recover the data via
    value = value_min + code / 65535 * (value_max - value_min), plus the
    caller's fields; it is written to <path>.json and returned.
    """
    values = np.asarray(values, dtype=float)
    vmin = float(values.min())
    vmax = float(values.max())
    span = vmax - vmin
    if span <= 0.0:
        codes = np.zeros(values.shape, dtype=np.uint16)
    else:
        codes = np.floor((values - vmin) / span * 65535.0 + 0.5).astype(np.uint16)
    write_pgm(path, codes, 65535)
    sidecar = {"value_min": vmin, "value_max": vmax, "levels": 65535, **fields}
    write_json(_sidecar_path(path), sidecar)
    return sidecar
