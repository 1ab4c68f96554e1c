"""Deterministic file formats for run artifacts.

CSV uses '.' decimals and 17 significant digits (round-trip exact for
doubles), and every table and grid goes through the one write_csv.  PGM is
binary P5 with big-endian 16-bit samples above 8 bits, JSON is sorted-key
with no timestamps, so identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
import os
import re
from pathlib import Path

import numpy as np

from .errors import ValidationError


_CELL = "%.17g"
# write_csv formats at least 16 first-axis rows and about 4096 cells at a
# time.  A call's temporaries take ~250 B a cell, and larger chunks of a
# narrow grid (64 rows of 256) had them page-faulted afresh in every chunk.
_CHUNK_ROWS, _CHUNK_CELLS = 16, 4096
# write_scaled_pgm forms its codes in float64 scratch blocks of this many cells
_PGM_BLOCK_CELLS = 2**16
# a PGM header field: whitespace and comments to the end of their line, then the field
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def format_number(value) -> str:
    """Locale-independent cell text: '%.17g', with -0.0 written as 0."""
    return _CELL % (float(value) + 0.0)


def write_csv(path, headers: list[str], columns) -> None:
    """Write one line per cell of the columns broadcast together, in C order.

    A table passes equal-length columns, a grid xs[:, None], ps[None, :] and
    values.  Each cell is written as '%.17g' % (v + 0.0) by _format_cells: a
    column that does not vary along the first axis once, a grid column that
    varies along it alone (xs[:, None]) once per file, 24 B a row, and the
    others one chunk of first-axis rows at a time, so memory does not grow
    with the number of cells.  Each line is laid out in fixed-width cell
    slots padded with NUL bytes, which are dropped before the chunk is
    written.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns)) or (1,)
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    rows = max(_CHUNK_ROWS, _CHUNK_CELLS // math.prod(shape[1:]))
    # line[..., i, :] is column i's slot and the ',' (last, '\n') after it
    line = np.zeros((min(rows, shape[0]), *shape[1:], len(columns), _CELL_WIDTH + 1), np.uint8)
    line[..., -1] = ord(",")
    line[..., -1, -1] = ord("\n")
    # formatted once: (1, ...) cells written into every chunk, (n, 1, ...) cells sliced
    whole = {}
    for i, c in enumerate(columns):
        if len(c) == 1:
            line[..., i, :-1] = _format_cells(c[0])
        elif c.size == len(c) < math.prod(shape):
            whole[i] = _format_cells(c)
    with Path(path).open("wb") as fh:
        fh.write((",".join(headers) + "\n").encode())
        for start in range(0, shape[0], rows):
            buf = line[: shape[0] - start]
            for i, c in enumerate(columns):
                if i in whole:
                    buf[..., i, :-1] = whole[i][start : start + rows]
                elif len(c) > 1:
                    buf[..., i, :-1] = _format_cells(c[start : start + rows])
            fh.write(buf.tobytes().translate(None, b"\0"))


# Byte-exact '%.17g' for arrays.  A finite double v with 1e-280 < |v| < 1e290
# is scaled by 10^(16 - e), e = floor(log10|v|), in double-double arithmetic
# (Dekker's product against a (hi, lo) table of powers of ten), which leaves
# its 17 significant digits as an int64 mantissa m and a remainder accurate
# to about 1e-14.  A cell whose remainder lies near a tie, or whose m falls
# on or outside (10^16, 10^17) because log10 or the rounding moved e, is
# formatted by format_number instead, as are zeros, non-finite values and
# magnitudes outside that range (Loitsch 2010; Adams 2018).
_CELL_WIDTH = 24  # the longest cell: -1.2345678901234567e-308
_K_MIN = -280  # the power table holds 10^k for k in [_K_MIN, 300)
# Columns of the per-cell source bytes that the templates index: 0 NUL,
# 1 sign, 2-18 the 17 digits, 19 '.', 20 '0', 21-25 'e' and the exponent.
_SIGN, _DIGITS, _DOT, _ZERO, _EXP = 1, 2, 19, 20, 21


def _split(a):
    """Veltkamp's split of a into halves of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _cell_tables():
    """Powers of ten, ASCII digit groups and exponents, and cell templates.

    Built on the first CSV write.  The powers 10^k are (hi, lo) pairs from
    Python ints: hi is 10^k rounded, lo the rounded remainder 10^k - hi.
    Template [t, s] lays out a cell of layout t (%g's fixed notation for
    exponents -4..16, then the d.ddd form) with its last s digits, and a
    '.' left bare, dropped.
    """
    hi, lo = [], []
    for k in range(_K_MIN, 300):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi.append(num / den)  # int / int rounds correctly
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    quads = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    quads = quads.astype(np.uint8).view(np.uint32)[:, 0]  # "0000" .. "9999"
    exps = np.array([b"e%+03d" % e for e in range(-300, 300)], dtype="S5").view("V5")
    digits = list(range(_DIGITS, _DIGITS + 17))
    layouts = [
        [_SIGN, *digits[: e + 1], _DOT, *digits[e + 1 :]] if e >= 0
        else [_SIGN, _ZERO, _DOT, *[_ZERO] * (-e - 1), *digits]
        for e in range(-4, 17)
    ]
    layouts.append([_SIGN, digits[0], _DOT, *digits[1:], *range(_EXP, _EXP + 5)])
    fraction = [16 - e for e in range(-4, 17)] + [16]  # digits after the '.'
    templates = np.zeros((len(layouts), 17, _CELL_WIDTH), dtype=np.intp)
    for t, layout in enumerate(layouts):
        for s in range(17):
            dropped = set(digits[17 - s :]) | ({_DOT} if s == fraction[t] else set())
            kept = [c for c in layout if c not in dropped]
            templates[t, s, : len(kept)] = kept
    return hi, *_split(hi), lo, quads, exps, np.array(fraction), templates


def _format_cells(values: np.ndarray) -> np.ndarray:
    """'%.17g' % (v + 0.0) of each value as NUL-padded bytes, one row per value.

    The result has the shape of values plus a last axis of _CELL_WIDTH bytes.
    """
    hi, hi_hi, hi_lo, lo, quads, exps, fraction, templates = _cell_tables()
    v = values.ravel()
    a = np.abs(v)
    fast = (a > 1e-280) & (a < 1e290)
    a[~fast] = 1.0  # no arithmetic on zeros, subnormals, inf or NaN
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e - _K_MIN
    # a * 10^(16 - e) = p + rest, with the product's error exact (Dekker)
    p = a * hi[k]
    a_hi, a_lo = _split(a)
    rest = ((a_hi * hi_hi[k] - p) + a_hi * hi_lo[k] + a_lo * hi_hi[k]) + a_lo * hi_lo[k]
    rest += a * lo[k]
    whole = np.floor(rest)
    frac = rest - whole
    m = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (m > 10**16) & (m < 10**17)

    src = np.zeros((len(v), _EXP + 5), dtype=np.uint8)
    src[:, _SIGN] = (v < 0) * np.uint8(ord("-"))
    lead, m = np.divmod(m, 10**16)
    halves = np.stack(np.divmod(m, 10**8), 1).astype(np.int32)  # below 10^8
    groups = np.stack(np.divmod(halves, 10**4), 2).reshape(-1, 4)
    digits = src[:, _DIGITS : _DIGITS + 17]
    digits[:, 0] = ord("0") + lead
    digits[:, 1:] = quads[groups].view(np.uint8)
    src[:, _DOT], src[:, _ZERO] = ord("."), ord("0")
    src[:, _EXP:].view("V5")[:, 0] = exps[e + 300]
    # group the cells by template, each group gathered with one index row
    layout = np.where((e >= -4) & (e <= 16), e + 4, len(fraction) - 1)
    trailing = (digits[:, ::-1] != ord("0")).argmax(1)
    key = layout * 17 + np.minimum(trailing, fraction[layout])
    order = np.argsort(key.astype(np.uint16), kind="stable")  # a radix sort
    key, src = key[order], src[order]
    cells = np.empty((len(v), _CELL_WIDTH), dtype=np.uint8)
    bounds = np.flatnonzero(np.diff(key)) + 1
    for first, last in zip([0, *bounds], [*bounds, len(v)]):
        t, s = divmod(key[first], 17)
        np.take(src[first:last], templates[t, s], axis=1, out=cells[first:last])
    out = np.empty_like(cells)
    whole_cells = f"V{_CELL_WIDTH}"  # moved as one item each, not byte by byte
    out.view(whole_cells)[order] = cells.view(whole_cells)
    for i in np.flatnonzero(~fast):
        text = format_number(v[i]).encode()
        out[i] = np.frombuffer(text.ljust(_CELL_WIDTH, b"\0"), dtype=np.uint8)
    return out.reshape(*values.shape, _CELL_WIDTH)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _check_image(a: np.ndarray) -> None:
    """Refuse an array that is not 2-D or holds no sample."""
    if a.ndim != 2 or a.size == 0:
        raise ValidationError(f"PGM needs a 2-D array of samples, got shape {a.shape}")


def write_pgm(path, counts: np.ndarray, max_value: int) -> None:
    """Binary P5 image; 2-byte big-endian samples when max_value > 255.

    Refuses, before any cast, an empty array, samples that are not real
    numbers, samples outside [0, max_value], NaN among them, and float
    samples that are not whole numbers.
    """
    counts = np.asarray(counts)
    _check_image(counts)
    if counts.dtype.kind not in "biuf":
        raise ValidationError(f"PGM samples must be real numbers, got dtype {counts.dtype}")
    lo, hi = counts.min(), counts.max()
    if not (lo >= 0 and hi <= max_value):
        raise ValidationError(f"PGM samples span [{lo}, {hi}], outside [0, {max_value}]")
    if counts.dtype.kind == "f" and (frac := counts[counts != np.floor(counts)]).size:
        raise ValidationError(f"PGM samples must be whole numbers, got {float(frac[0])!r}")
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
                found = _PGM_FIELD.match(data, pos)
                if found is None:
                    raise ValidationError(f"PGM header is truncated after {len(fields)} fields")
                fields.append(found[1])
                pos = found.end()
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
    caller's fields; it is written to <path>.json and returned.  The codes
    floor((value - value_min) / span * 65535 + 0.5) are formed step by step
    in that order, in a float64 scratch block of at most _PGM_BLOCK_CELLS
    cells per row block, and go straight into the big-endian code array.
    Refuses an empty array, complex values, NaN or infinite ones, which have
    no code and no JSON sidecar value, and a span that overflows.
    """
    if np.iscomplexobj(values):
        raise ValidationError("scaled PGM values must be real numbers, got complex values")
    values = np.asarray(values, dtype=float)
    _check_image(values)
    vmin = float(values.min())
    vmax = float(values.max())
    span = vmax - vmin
    if not math.isfinite(span):  # also when vmin or vmax is NaN or infinite
        raise ValidationError(
            f"scaled PGM values must be finite with a finite span, got min {vmin!r} "
            f"and max {vmax!r}"
        )
    codes = np.zeros(values.shape, dtype=">u2")
    if span > 0.0:
        rows = max(1, _PGM_BLOCK_CELLS // values[0].size)
        for start in range(0, len(values), rows):
            scratch = np.subtract(values[start : start + rows], vmin)
            scratch /= span
            scratch *= 65535.0
            scratch += 0.5
            codes[start : start + rows] = np.floor(scratch, out=scratch)
    write_pgm(path, codes, 65535)
    sidecar = {"value_min": vmin, "value_max": vmax, "levels": 65535, **fields}
    write_json(_sidecar_path(path), sidecar)
    return sidecar
