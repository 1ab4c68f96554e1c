"""Artifact writers: deterministic CSV/JSON/PGM round trips."""

import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from tmcat import ValidationError, make_typical_state, wigner_map
from tmcat.fileio import (
    format_number,
    read_json,
    read_pgm,
    write_csv,
    write_json,
    write_pgm,
    write_scaled_pgm,
)


def test_format_number():
    assert format_number(3) == "3"
    assert format_number(np.int64(-7)) == "-7"
    assert format_number(0.1) == "0.10000000000000001"
    assert format_number(-0.0) == "0"
    assert format_number(float("inf")) == "inf"
    # 17 significant digits survive a parse round trip
    value = 0.12345678901234567
    assert float(format_number(value)) == value


def test_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 3), (2.5, -0.0)])
    assert path.read_text() == "a,b\n1,2.5\n3,0\n"


# Cells the CSV writer must render exactly as format_number does: signed
# zeros, infinities, NaN, subnormals and magnitudes near the double range.
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     1e300, -1e-300, 0.1]),
)


def grid_case(n_x, n_p):
    return st.tuples(
        hnp.arrays(float, n_x, elements=CELLS),
        hnp.arrays(float, n_p, elements=CELLS),
        hnp.arrays(float, (n_x, n_p), elements=CELLS),
        st.booleans(),
    )


SHAPES = st.sampled_from([(1, 1), (1, 5), (5, 1), (3, 4)]).flatmap(lambda s: grid_case(*s))


def table_case(n_columns):
    return st.integers(1, 20).flatmap(
        lambda n_rows: st.lists(
            hnp.arrays(float, n_rows, elements=CELLS), min_size=n_columns, max_size=n_columns
        )
    )


# A table's lines, chunked by the writer, are byte-equal to the row oracle.
# The example spans ten chunks, the last one short.
@given(st.integers(1, 4).flatmap(table_case))
@example([np.linspace(-3.0, 3.0, 40_000), -np.geomspace(1e-300, 1e300, 40_000)])
def test_csv_table_matches_row_oracle(tmp_path_factory, columns):
    folder = tmp_path_factory.mktemp("table")
    headers = [f"c{i}" for i in range(len(columns))]
    write_csv(folder / "new.csv", headers, columns)
    oracles.write_csv(folder / "old.csv", headers, zip(*columns))
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@given(SHAPES)
@example((np.array([-0.0]), np.array([-0.0, 1.0]), np.array([[-0.0, -1e-320]]), False))
def test_grid_csv_matches_per_cell_rows(tmp_path_factory, case):
    xs, ps, values, transposed = case
    if transposed:
        values = values.T.copy().T  # the same table, rows no longer contiguous
    path = tmp_path_factory.mktemp("grid") / "g.csv"
    write_csv(path, ["X", "P", "W"], [xs[:, None], ps[None, :], values])
    rows = [
        ",".join(format_number(v) for v in (xs[i], ps[j], values[i, j]))
        for i in range(xs.size)
        for j in range(ps.size)
    ]
    text = path.read_text()
    assert text == "X,P,W\n" + "".join(row + "\n" for row in rows)
    cells = text.replace("\n", ",").split(",")
    assert "-0" not in cells  # signed zeros are written as 0


def test_grid_csv_matches_oracle(tmp_path, frame, angle_w0):
    # a real map, written in chunks with a short last one, and its rows strided;
    # at 150 x 300 the x column, formatted once, spans ten chunks of 16 rows
    _, state = make_typical_state("cat_minus", angle_w0, frame)
    m = wigner_map(state, n=40)
    wide = np.random.default_rng(3).normal(size=(150, 300))
    wide_xs = np.concatenate([[-0.0, 1e-300], np.geomspace(1e-5, 1e5, 148)])
    cases = [(m.grid.x_axis(), m.grid.p_axis(), v)
             for v in (m.values, m.values[::-1].T, -1e-300 * m.values)]
    cases.append((-wide_xs, np.linspace(-4.0, 4.0, 300), wide))
    for xs, ps, values in cases:
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(new, ["X", "P", "W"], [xs[:, None], ps[None, :], values])
        oracles.write_grid_csv(old, ["X", "P", "W"], xs, ps, values)
        assert new.read_bytes() == old.read_bytes()


def _bits(*values):
    return np.array(values, dtype=float).view(np.uint64)


_POWERS = 10.0 ** np.arange(-307, 309)
_EDGES = np.array([1e-280, 1e290])


# Each cell of any double, from its raw bits, must be written as '%.17g' of
# v + 0.0, with no floating-point flag raised on the way.  The examples pin
# every power of ten and both its neighbours, the edges of the fast path, a value
# whose 17 digits round up to the next power (9.9999999999999995e-07), a
# dyadic tie (the 18th digit an exact 5) and the specials.
@given(hnp.arrays(np.uint64, st.integers(1, 200)))
@example(_bits(*_POWERS, *np.nextafter(_POWERS, 0.0), *-np.nextafter(_POWERS, math.inf)))
@example(_bits(*-np.nextafter(_POWERS, 0.0), *np.nextafter(_POWERS, math.inf)))
@example(_bits(9.9999999999999995e-07, 2251799813685247.75, -0.125, 1e16, 1e17, 1e-5, 9.9999e-5))
@example(_bits(*_EDGES, *np.nextafter(_EDGES, 0.0), *np.nextafter(_EDGES, math.inf)))
@example(_bits(5e-324, -sys.float_info.max, 0.0, -0.0, math.inf, -math.inf, math.nan))
def test_grid_cells_match_percent_format(tmp_path_factory, bits):
    values = bits.view(np.float64)
    path = tmp_path_factory.mktemp("cells") / "c.csv"
    with np.errstate(all="raise"):
        xs, ps = np.array([0.0]), np.zeros(values.size)
        write_csv(path, ["X", "P", "W"], [xs[:, None], ps[None, :], values[None, :]])
    cells = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert cells == ["%.17g" % (v + 0.0) for v in values.tolist()]


def test_json_round_trip(tmp_path):
    path = tmp_path / "t.json"
    payload = {"z": 1, "a": [1.5, None], "m": {"k": "v"}}
    write_json(path, payload)
    assert read_json(path) == payload
    # keys are sorted for byte stability
    text = path.read_text()
    assert text.index('"a"') < text.index('"m"') < text.index('"z"')


@pytest.mark.parametrize("maxval", [255, 4095, 65535])
def test_pgm_round_trip(tmp_path, maxval):
    rng = np.random.default_rng(1)
    counts = rng.integers(0, maxval + 1, size=(12, 17)).astype(np.uint16)
    path = tmp_path / "t.pgm"
    write_pgm(path, counts, maxval)
    back, got_max = read_pgm(path)
    assert got_max == maxval
    assert np.array_equal(back, counts)
    # '#' comments after the magic and between header fields are skipped
    payload = path.read_bytes()[len(f"P5\n17 12\n{maxval}\n"):]
    path.write_bytes(
        b"P5\n# made by hand\n17 # width\n# height:\n12\n#max\n"
        + f"{maxval}\n".encode() + payload
    )
    back, got_max = read_pgm(path)
    assert got_max == maxval
    assert np.array_equal(back, counts)


def pgm_case(maxval):
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 700))
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.uint16, shape, elements=st.integers(0, maxval))
    ).map(lambda counts: (counts, maxval))


@given(st.sampled_from([1, 255, 256, 65535]).flatmap(pgm_case))
@example((np.array([[1]], dtype=np.uint16), 1))
@example((np.arange(700, dtype=np.uint16).reshape(1, 700) % 256, 255))
def test_pgm_round_trip_property(tmp_path_factory, case):
    counts, maxval = case
    path = tmp_path_factory.mktemp("pgm") / "t.pgm"
    write_pgm(path, counts, maxval)
    back, got_max = read_pgm(path)
    assert got_max == maxval
    assert back.shape == counts.shape
    assert np.array_equal(back, counts)


def test_pgm_bytes_and_copy_budget(tmp_path):
    # header, then the big-endian payload in row order, with a single copy
    counts = (np.arange(480 * 720) % 4096).astype(np.uint16).reshape(480, 720)
    path = tmp_path / "t.pgm"
    write_pgm(path, counts, 4095)
    tracemalloc.start()
    try:
        write_pgm(path, counts, 4095)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counts.nbytes + 2**16
    assert path.read_bytes() == b"P5\n720 480\n4095\n" + counts.astype(">u2").tobytes()
    write_pgm(path, counts.T, 4095)
    assert path.read_bytes() == b"P5\n480 720\n4095\n" + counts.T.astype(">u2").tobytes()
    strided = counts[::2, ::3] % 256
    write_pgm(path, strided, 255)
    assert path.read_bytes() == b"P5\n240 240\n255\n" + strided.astype("u1").tobytes()


def test_grid_csv_budget():
    # cells are formatted 16 rows at a time, so the writer's memory does not
    # grow with the grid: a 1024^2 map (8 MB of values) stays under 16 MB
    values = np.random.default_rng(2).normal(size=(1024, 1024))
    axis = np.linspace(-4.0, 4.0, 1024)
    tracemalloc.start()
    try:
        write_csv(os.devnull, ["X", "P", "W"], [axis[:, None], axis[None, :], values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("maxval", [255, 4095])
def test_pgm_read_budget(tmp_path, maxval):
    # the payload is converted straight into the uint16 result
    counts = (np.arange(480 * 720) % (maxval + 1)).astype(np.uint16).reshape(480, 720)
    path = tmp_path / "t.pgm"
    write_pgm(path, counts, maxval)
    tracemalloc.start()
    try:
        back, _ = read_pgm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, counts) and back.dtype == np.uint16
    assert peak <= back.nbytes + 2**16


_PGM_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f"])
_PGM_COMMENT = st.builds(b"#%s%s".__mod__, st.tuples(
    st.binary(max_size=5).map(lambda body: body.replace(b"\n", b"")), st.sampled_from([b"\n", b""])))
_PGM_FIELD = st.sampled_from([b"P5", b"P2", b"1", b"2", b"3", b"255", b"256", b"65535",
                              b"0", b"-1", b"x", b"2#3", b"P5#"]) | st.binary(min_size=1, max_size=3)


@st.composite
def pgm_files(draw):
    """Header fields with whitespace and comments before each, cut after any
    field or ending in a comment, then a short payload."""
    gaps = st.lists(_PGM_SPACE | _PGM_COMMENT, max_size=3).map(b"".join)
    head = b"".join(draw(gaps) + draw(_PGM_FIELD) for _ in range(draw(st.integers(0, 4))))
    return head + draw(gaps) + draw(st.sampled_from([b"", b"\n", b"#"])) + draw(st.binary(max_size=40))


@given(pgm_files())
@example(b"P5\v2\f3 255\n" + bytes(6))  # vertical tab and form feed separate fields
@example(b"P5 2#3 1 255\n" + bytes(2))  # '#' inside a field belongs to it
@example(b"P5 2 3 # a comment at the end")
@example(b"P5 2 3\n#\n255 " + bytes(6))
@example(b"")  # cut before the magic, and after each field in turn
@example(b"P5")
@example(b"P5 2")
@example(b"P5 2 3")
@example(b"P5 2 3 255")
def test_pgm_header_reads_as_the_byte_scan(tmp_path_factory, data):
    # the compiled field pattern reads every header as the byte-by-byte scan
    # did: the same counts, or the same refusal
    path = tmp_path_factory.mktemp("pgm") / "t.pgm"
    path.write_bytes(data)
    try:
        want, want_max = oracles.read_pgm_byte_scan(path)
    except ValidationError as err:
        with pytest.raises(ValidationError) as info:
            read_pgm(path)
        assert str(info.value) == str(err)
        return
    got, got_max = read_pgm(path)
    assert got_max == want_max
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pgm_validation(tmp_path):
    path = tmp_path / "t.pgm"
    with pytest.raises(ValidationError):
        write_pgm(path, np.zeros((2, 2), dtype=np.uint16) + 300, 255)
    with pytest.raises(ValidationError):
        write_pgm(path, np.zeros(4, dtype=np.uint16), 255)
    # truncated or malformed files read back as validation errors
    for data in (
        b"",
        b"P5\n3 2",
        b"P5\n3 2\n255\n",
        b"P5\n3 2\n255\n" + bytes(5),
        b"P5\n3 2\n4095\n" + bytes(11),
        b"P5\nx 2\n255\n" + bytes(6),
        b"P5\n0 2\n255\n",
        b"P2\n3 2\n255\n" + bytes(6),
    ):
        path.write_bytes(data)
        with pytest.raises(ValidationError):
            read_pgm(path)


def test_pgm_writers_refuse_samples_without_a_code(tmp_path):
    """NaN, infinite, complex and non-whole float samples and empty arrays
    are refused before any cast, and no file is written; real samples of
    every kind still write."""
    path = tmp_path / "t.pgm"
    nan_pixel = np.zeros((3, 4))
    nan_pixel[1, 2] = np.nan
    for counts in (nan_pixel, np.full((3, 4), np.nan), np.full((3, 4), -np.inf),
                   np.full((3, 4), np.inf), np.zeros((3, 4), complex)):
        with pytest.raises(ValidationError, match="PGM samples"):
            write_pgm(path, counts, 255)
    # a float sample between two codes would be floored by the cast
    for counts, named in ((np.array([[1.5, 2.9]]), "1.5"), (np.array([[2.0, 254.75]]), "254.75")):
        with pytest.raises(ValidationError, match=f"whole numbers, got {named}$"):
            write_pgm(path, counts, 255)
    for shape in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
            write_pgm(path, np.zeros(shape), 255)
    assert not path.exists()
    for dtype in (np.uint8, np.uint16, np.int64, bool, float):
        write_pgm(path, np.ones((3, 4), dtype), 255)
        assert read_pgm(path)[0].tobytes() == np.ones((3, 4), np.uint16).tobytes()
    path = tmp_path / "map.pgm"
    for bad in (np.nan, np.inf, -np.inf, -1e308):  # -1e308 to 1e308 overflows the span
        values = np.linspace(-1.0, 1e308, 12).reshape(3, 4)
        values[2, 1] = bad
        with pytest.raises(ValidationError, match="with a finite span, got min") as info:
            write_scaled_pgm(path, values)
        assert repr(bad) in str(info.value)
    with pytest.raises(ValidationError, match="real numbers"):
        write_scaled_pgm(path, np.ones((3, 4), complex))
    with pytest.raises(ValidationError, match=re.escape("got shape (0, 3)")):
        write_scaled_pgm(path, np.zeros((0, 3)))
    assert not path.exists() and not (tmp_path / "map.pgm.json").exists()


def test_scaled_pgm_sidecar(tmp_path):
    values = np.linspace(-2.0, 3.0, 24).reshape(4, 6)
    path = tmp_path / "map.pgm"
    sidecar = write_scaled_pgm(path, values, state="demo", n=4)
    assert sidecar["value_min"] == pytest.approx(-2.0)
    assert sidecar["value_max"] == pytest.approx(3.0)
    assert sidecar["levels"] == 65535
    # the sidecar sits at <path>.json and carries the caller's fields
    assert read_json(tmp_path / "map.pgm.json") == sidecar
    assert set(sidecar) == {"value_min", "value_max", "levels", "state", "n"}
    counts, maxval = read_pgm(path)
    assert maxval == 65535
    assert counts.min() == 0 and counts.max() == 65535
    # affine decode recovers the field to half a level
    decoded = sidecar["value_min"] + counts / 65535.0 * (
        sidecar["value_max"] - sidecar["value_min"]
    )
    assert np.max(np.abs(decoded - values)) < 0.5 * 5.0 / 65535.0


def test_scaled_pgm_bytes_and_scratch_budget(tmp_path):
    # the codes are formed in float64 scratch row blocks straight into the
    # 2 MB code array; the file keeps the bytes of the expression evaluated
    # step by step
    values = np.random.default_rng(4).normal(size=(1024, 1024))
    values[0, :4] = (-0.0, 1e-300, -5e-324, 3.0)
    path = tmp_path / "map.pgm"
    write_scaled_pgm(path, values)
    tracemalloc.start()
    try:
        write_scaled_pgm(path, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * values.nbytes
    want = oracles.scaled_pgm_codes(values).astype(">u2").tobytes()
    assert path.read_bytes() == b"P5\n1024 1024\n65535\n" + want


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(-1e300, 1e300),
    )
)
def test_scaled_pgm_codes_match_the_stepwise_expression(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("scaled") / "map.pgm"
    write_scaled_pgm(path, values)
    counts, _ = read_pgm(path)
    assert counts.tobytes() == oracles.scaled_pgm_codes(values).tobytes()


def test_scaled_pgm_flat_field(tmp_path):
    path = tmp_path / "flat.pgm"
    sidecar = write_scaled_pgm(path, np.full((3, 3), 7.0))
    counts, _ = read_pgm(path)
    assert counts.max() == 0
    assert sidecar["value_min"] == sidecar["value_max"] == pytest.approx(7.0)
