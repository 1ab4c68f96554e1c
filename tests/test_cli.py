"""Command-line front end: parsing, exit codes, artifacts, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tmcat
from tmcat.cli import (
    _point_count,
    _UsageError,
    build_parser,
    main,
    parse_angle,
    parse_length,
)
from tmcat.fileio import read_json, read_pgm
from tmcat.states import TYPICAL_KINDS


def run(*argv):
    return main(list(argv))


def test_parse_angle():
    assert parse_angle("0.98pi") == pytest.approx(0.98 * math.pi)
    assert parse_angle("-0.72pi") == pytest.approx(-0.72 * math.pi)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("1.5") == pytest.approx(1.5)
    assert parse_angle(" 0.5PI ") == pytest.approx(0.5 * math.pi)
    for bad in ("inf", "-inf", "nan", "infpi", "nanpi", "1e400"):
        with pytest.raises(_UsageError):
            parse_angle(bad)


def test_parse_length():
    assert parse_length("780nm") == pytest.approx(780e-9)
    assert parse_length("6.5um") == pytest.approx(6.5e-6)
    assert parse_length("0.12mm") == pytest.approx(0.12e-3)
    assert parse_length("14.5cm") == pytest.approx(0.145)
    assert parse_length("2m") == pytest.approx(2.0)
    assert parse_length("0.001") == pytest.approx(0.001)
    for bad in ("inf", "nan", "-inf", "infmm", "nanum", "1e400m"):
        with pytest.raises(_UsageError):
            parse_length(bad)


def test_state_bloch_example(tmp_path, capsys):
    code = run(
        "state", "--bloch", "0,-1,0", "--alpha", "1.1", "--outdir", str(tmp_path)
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "T = 0.5" in out
    assert "phi = -0.5964pi" in out
    manifest = read_json(tmp_path / "state_manifest.json")
    assert manifest["tool"] == "tmcat"
    assert manifest["command"] == "state"
    assert manifest["config"]["alpha"] == 1.1


# The CLI's flag inventory, a documented interface: per subcommand and dest,
# the option strings, default, type name, choices, required and action kind
# (with $TMCAT_OUTDIR held at "inv-outdir"); then the members of each
# "exactly one of" rule.
def _store(option, default=None, type_name=None, choices=None, required=False):
    return ((option,), default, type_name, choices, required, "_StoreAction")


_COMMON_FLAGS = {
    "help": (("-h", "--help"), argparse.SUPPRESS, None, None, False, "_HelpAction"),
    "outdir": _store("--outdir", Path("inv-outdir"), "Path"),
    "config": _store("--config"),
    "w0": _store("--w0", 0.12e-3, "parse_length"),
    "wavelength": _store("--wavelength", 780e-9, "parse_length"),
}
_ANGLE_FLAGS = {
    "theta_d": _store("--theta-d", None, "parse_angle"),
    "alpha": _store("--alpha", None, "float"),
    "d_over_w0": _store("--d-over-w0", None, "float"),
}
_STATE_FLAGS = {
    "T": _store("--T", None, "float"),
    "phi": _store("--phi", None, "parse_angle"),
    "state": _store("--state", None, None, ("vac", "coh", "cat_plus", "cat_minus",
                                            "x_minus", "x_plus", "p_minus", "p_plus")),
    "bloch": _store("--bloch"),
}
_QUBIT_FLAGS = {**_COMMON_FLAGS, **_ANGLE_FLAGS, **_STATE_FLAGS}

_FLAGS = {
    "state": _QUBIT_FLAGS,
    "wigner": {
        **_QUBIT_FLAGS,
        "grid": _store("--grid", 256, "int"),
        "si": (("--si",), False, None, None, False, "_StoreTrueAction"),
        "pgm": (("--pgm",), False, None, None, False, "_StoreTrueAction"),
        "out": _store("--out", "wigner.csv"),
    },
    "marginals": {
        **_QUBIT_FLAGS,
        "points": _store("--points", 481, "_point_count"),
        "prefix": _store("--prefix", "marginal"),
    },
    "beam": {
        **_COMMON_FLAGS,
        "z_max": _store("--z-max", None, "parse_length"),
        "points": _store("--points", 61, "_point_count"),
        "out": _store("--out", "beam.csv"),
    },
    "ccd": {
        **_QUBIT_FLAGS,
        "plane": _store("--plane", "position", None, ("position", "momentum")),
        "f": _store("--f", 0.145, "parse_length"),
        "nx": _store("--nx", 720, "int"),
        "ny": _store("--ny", 480, "int"),
        "pitch": _store("--pitch", 6.5e-6, "parse_length"),
        "bits": _store("--bits", 8, "int", (8, 12, 16)),
        "background": _store("--background", 0, "int"),
        "exposure": _store("--exposure", None, "float"),
        "visibility": _store("--visibility", 1.0, "float"),
        "seed": _store("--seed", None, "int"),
        "tilt_alpha": _store("--tilt-alpha", 0.0, "float"),
        "out": _store("--out", "ccd.pgm"),
    },
    "fit": {
        **_COMMON_FLAGS,
        "image": _store("--image", required=True),
        "mode": _store("--mode", "gaussian", None, ("gaussian", "phase")),
        "T": _store("--T", None, "float"),
        "d": _store("--d", None, "parse_length"),
        "out": _store("--out", "fit.json"),
    },
    "sweep": {
        **_COMMON_FLAGS,
        **_ANGLE_FLAGS,
        "path": _store("--path", required=True),
        "out": _store("--out", "sweep.csv"),
    },
    "mdm": {
        **_COMMON_FLAGS,
        **_ANGLE_FLAGS,
        "scheme": _store("--scheme", "four_cat", None,
                         ("four_cat", "twelve_state", "four_hg_reference")),
        "n": _store("--n", 100000, "int"),
        "sigma_theta": _store("--sigma-theta", 0.0, "parse_angle"),
        "sigma_add": _store("--sigma-add", 0.0, "float"),
        "seed": _store("--seed", 0, "int"),
        "out": _store("--out", "mdm.json"),
    },
    "qkd": {
        **_COMMON_FLAGS,
        **_ANGLE_FLAGS,
        "n": _store("--n", 100000, "int"),
        "sigma_z": _store("--sigma-z", 0.0, "parse_length"),
        "period": _store("--period", 1e-3, "parse_length"),
        "seed": _store("--seed", 0, "int"),
        "out": _store("--out", "qkd.json"),
    },
    "reproduce": {
        **_COMMON_FLAGS,
        "figure": ((), None, None, ("fig2", "fig4", "fig5"), True, "_StoreAction"),
        "f": _store("--f", 0.145, "parse_length"),
    },
}
_SEPARATION = ("--theta-d", "--alpha", "--d-over-w0")
_STATE_SOURCE = ("--T", "--state", "--bloch")  # --phi goes with --T
_ONE_OF = {
    "state": [_SEPARATION, _STATE_SOURCE],
    "wigner": [_SEPARATION, _STATE_SOURCE],
    "marginals": [_SEPARATION, _STATE_SOURCE],
    "ccd": [_SEPARATION, _STATE_SOURCE],
    "sweep": [_SEPARATION],
    "mdm": [_SEPARATION],
    "qkd": [_SEPARATION],
}


def test_flag_inventory(monkeypatch):
    monkeypatch.setenv("TMCAT_OUTDIR", "inv-outdir")
    parser = build_parser()
    assert [a.option_strings for a in parser._actions][:2] == [["-h", "--help"], ["--version"]]
    subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
    assert list(subparsers.choices) == list(_FLAGS)
    for command, sub in subparsers.choices.items():
        flags = {
            a.dest: (
                tuple(a.option_strings),
                a.default,
                getattr(a.type, "__name__", None),
                None if a.choices is None else tuple(a.choices),
                a.required,
                type(a).__name__,
            )
            for a in sub._actions
        }
        assert flags == _FLAGS[command], command
        one_of = [
            (group.required, tuple(a.option_strings[0] for a in group._group_actions))
            for group in sub._mutually_exclusive_groups
        ]
        assert one_of == [(True, members) for members in _ONE_OF.get(command, [])], command


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("nonsense") == 1
    assert "E_USAGE:" in capsys.readouterr().err
    out = str(tmp_path)
    # none or two of a one-of rule's flags; refused before an invalid waist
    # or period is read
    for argv, message in (
        (("state", "--T", "0.5", "--phi", "0"),
         "one of the arguments --theta-d --alpha --d-over-w0 is required"),
        (("state", "--T", "0.5", "--phi", "0", "--alpha", "1", "--d-over-w0", "2"),
         "argument --d-over-w0: not allowed with argument --alpha"),
        (("ccd", "--alpha", "1"), "one of the arguments --T --state --bloch is required"),
        (("wigner", "--alpha", "1", "--phi", "0", "--state", "vac", "--bloch", "1,0,0"),
         "argument --bloch: not allowed with argument --state"),
        (("marginals", "--alpha", "1", "--T", "0.5"),
         "give --T and --phi (or --state, or --bloch)"),
        (("state", "--w0", "0", "--T", "0.5", "--phi", "0"),
         "one of the arguments --theta-d --alpha --d-over-w0 is required"),
        (("qkd", "--period", "-1m", "--n", "10"),
         "one of the arguments --theta-d --alpha --d-over-w0 is required"),
    ):
        assert run(*argv, "--outdir", out) == 1, argv
        assert capsys.readouterr().err == f"E_USAGE: {message}\n", argv
    # --phi beside --state is read by neither rule and refused by neither
    assert run("state", "--alpha", "1", "--state", "vac", "--phi", "0.3", "--outdir", out) == 0
    capsys.readouterr()
    for argv in (
        # non-finite angles and lengths
        ("state", "--alpha", "1", "--T", "0.5", "--phi", "inf"),
        ("state", "--alpha", "1", "--T", "0.5", "--phi", "-inf"),
        ("state", "--alpha", "1", "--T", "0.5", "--phi", "-nan"),
        ("sweep", "--alpha", "1", "--path", "0.5:nan"),
        ("beam", "--z-max", "inf"),
        # degenerate sample counts
        ("marginals", "--state", "vac", "--alpha", "1", "--points", "1"),
        ("beam", "--points", "0"),
        ("beam", "--points", "many"),
        # missing image, missing sidecar
        ("fit", "--image", str(tmp_path / "absent.pgm")),
    ):
        assert run(*argv, "--outdir", out) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("E_USAGE:") and err.count("\n") == 1, argv
        if argv[-2] == "--phi":
            # separate '-inf' and '-nan' tokens reach the angle parser, not argparse
            assert err == f"E_USAGE: angle {argv[-1]!r} is not a finite number\n", argv
    assert not list(tmp_path.glob("*.csv"))
    # unwritable outputs: an outdir under a regular file, a missing directory
    (tmp_path / "afile").write_text("")
    for argv in (
        ("ccd", "--state", "vac", "--alpha", "1",
         "--outdir", str(tmp_path / "afile" / "sub")),
        ("wigner", "--state", "vac", "--alpha", "1",
         "--outdir", out, "--out", str(tmp_path / "nodir" / "w.csv")),
    ):
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("E_USAGE: cannot write") and err.count("\n") == 1, argv


def test_negative_values_as_separate_tokens(tmp_path, capsys):
    # values that start with '-' but are not plain numbers reach their parser
    for given, shown in (
        ("-0.72pi", "-0.72pi"),
        ("-pi", "1pi"),
        ("-.5pi", "-0.5pi"),
        ("-2.5e-3", "-0.0008pi"),
    ):
        code = run(
            "state", "--alpha", "1", "--T", "0.5", "--phi", given,
            "--outdir", str(tmp_path),
        )
        assert code == 0, given
        assert f"phi = {shown}\n" in capsys.readouterr().out, given
    # a negative separation reaches OverlapAngle and is refused there, not by
    # argparse (which would exit 1 with E_USAGE)
    assert run(
        "state", "--alpha", "-1e-1", "--T", "0.5", "--phi", "0", "--outdir", str(tmp_path)
    ) == 2
    assert capsys.readouterr().err.startswith("E_VALIDATION: alpha must be non-negative")
    assert run("beam", "--z-max", "-1mm", "--points", "3", "--outdir", str(tmp_path)) == 0
    z = np.loadtxt(tmp_path / "beam.csv", delimiter=",", skiprows=1)[:, 0]
    assert z.tolist() == [0.0, -0.0005, -0.001]


def test_validation_errors_exit_2(tmp_path, capsys):
    code = run(
        "state", "--T", "1.5", "--phi", "0", "--d-over-w0", "1",
        "--outdir", str(tmp_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("E_VALIDATION:")
    assert err.count("\n") == 1  # single-line message
    for grid in ("0", "-3"):
        assert run(
            "wigner", "--T", "0.5", "--phi", "pi", "--d-over-w0", "1",
            "--grid", grid, "--outdir", str(tmp_path),
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION:") and err.count("\n") == 1
    assert run(
        "mdm", "--alpha", "1", "--n", "1000", "--sigma-add", "nan",
        "--outdir", str(tmp_path),
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_VALIDATION:") and err.count("\n") == 1
    assert not (tmp_path / "mdm.json").exists()
    for argv in (
        # negative seeds
        ("ccd", "--state", "vac", "--alpha", "1", "--seed", "-1"),
        ("mdm", "--alpha", "1", "--n", "1000", "--seed", "-3"),
        ("qkd", "--alpha", "1", "--n", "1000", "--seed", "-2"),
        # a waist whose mode scales leave the float range, as mdm refuses it
        ("qkd", "--alpha", "1", "--n", "1000", "--w0", "1e-300"),
        # a non-finite tilt
        ("ccd", "--T", "0.5", "--phi", "0", "--alpha", "1", "--tilt-alpha", "nan"),
        # an infinite exposure scale
        ("ccd", "--state", "vac", "--alpha", "1", "--exposure", "inf"),
        # negative, out-of-range and overflowing separations
        ("state", "--theta-d", "-0.4pi", "--state", "p_plus"),
        ("state", "--theta-d", "1.6pi", "--state", "p_plus"),
        ("state", "--alpha", "-0.1", "--T", "0.5", "--phi", "0"),
        ("state", "--d-over-w0", "-2", "--state", "vac"),
        ("state", "--alpha", "1e200", "--state", "vac"),
        ("state", "--d-over-w0", "1e300", "--state", "vac"),
    ):
        assert run(*argv, "--outdir", str(tmp_path)) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION:") and err.count("\n") == 1, argv
    assert not list(tmp_path.glob("*.json"))


_STATE = ("--state", "vac", "--alpha", "1")
_SWEEP = ("--alpha", "1", "--path", "1:0,0.5:pi")


@pytest.mark.parametrize("argv", [
    ("beam", "--w0", "1e-300"),
    ("marginals", *_STATE, "--w0", "1e-200"),
    ("ccd", *_STATE, "--w0", "1e-200"),
    ("sweep", *_SWEEP, "--w0", "1e-200"),
    ("reproduce", "fig5", "--w0", "1e-200"),
    ("beam", "--w0", "1e200"),
    ("wigner", *_STATE, "--w0", "1e200"),
    ("ccd", *_STATE, "--w0", "1e200"),
    ("ccd", *_STATE, "--w0", "1e100", "--plane", "momentum"),
    ("reproduce", "fig5", "--wavelength", "1e300"),
    ("reproduce", "fig2", "--w0", "1e-200"),
    ("marginals", *_STATE, "--w0", "1e-160"),
    ("sweep", *_SWEEP, "--w0", "1e-160"),
    ("reproduce", "fig5", "--w0", "1e-160"),
    ("marginals", *_STATE, "--w0", "1e150"),
    ("reproduce", "fig5", "--wavelength", "1e-200"),
    ("ccd", "--alpha", "1", "--T", "0.5", "--phi", "0", "--plane", "momentum",
     "--w0", "1e100"),
    ("ccd", "--alpha", "1", "--T", "0.5", "--phi", "0", "--plane", "momentum",
     "--wavelength", "1e-200"),
], ids=" ".join)
def test_extreme_frames_give_one_line_errors(argv, tmp_path, capsys):
    # waists and wavelengths whose scales leave the normal float range are
    # refused, and an overflow no check foresees is E_NUMERIC, never a traceback
    assert run(*argv, "--outdir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(("E_VALIDATION:", "E_NUMERIC:")) and err.count("\n") == 1
    if "momentum" in argv:
        # the focal scale is squared in the momentum plane: refused up front
        assert err.startswith("E_VALIDATION: focal scale"), err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    # a mean beyond the shot-noise sampler (was a ValueError traceback)
    ("ccd", "--alpha", "1", "--T", "0.5", "--phi", "0.3", "--nx", "32", "--ny", "24",
     "--seed", "3", "--exposure", "1e300"),
    # backgrounds past uint64, with and without shot noise
    ("ccd", *_STATE, "--nx", "32", "--ny", "24", "--background", "18446744073709551616"),
    ("ccd", *_STATE, "--nx", "32", "--ny", "24", "--seed", "1",
     "--background", "99999999999999999999"),
    ("ccd", *_STATE, "--nx", "32", "--ny", "24", "--seed", "1",
     "--background", "9223372036854775000"),
    # jitter widths whose rotations overflow (were NaN counts and exit 0)
    ("qkd", "--alpha", "1", "--n", "1000", "--sigma-z", "1e306"),
    ("mdm", "--alpha", "1", "--n", "1000", "--sigma-add", "1e308"),
    ("mdm", "--alpha", "1", "--n", "1000", "--sigma-theta", "1e308"),
    # non-finite values that reached a manifest as NaN (exit 0), or a later
    # check with a misleading message
    ("ccd", *_STATE, "--nx", "32", "--ny", "24", "--tilt-alpha", "nan"),
    ("ccd", *_STATE, "--nx", "32", "--ny", "24", "--tilt-alpha", "inf"),
    ("fit", "--T", "nan"),
    ("fit", "--mode", "phase", "--T", "inf", "--d", "0.17mm"),
    ("state", "--bloch", "nan,0,0", "--alpha", "1"),
    # a pitch that puts the outer pixels at infinity (was E_NUMERIC overflow)
    ("ccd", "--state", "vac", "--alpha", "1", "--nx", "32", "--ny", "24", "--pitch", "1e308"),
    # finite outer pixels whose squares, in waist units, overflow (were E_NUMERIC
    # overflow in square, or in divide at 1e150)
    *(("ccd", *_STATE, "--nx", "32", "--ny", "24", "--pitch", pitch, "--plane", plane)
      for pitch in ("1e150", "1e160", "1e300", "1e307") for plane in ("position", "momentum")),
    # a valid map on too coarse a grid: the message names the grid
    ("wigner", "--state", "cat_minus", "--alpha", "1", "--grid", "16"),
    # a distance whose (z/z_R)^2 overflows (was E_NUMERIC naming no input)
    ("beam", "--z-max", "1e200m"),
    # rotation jitters 2 pi sigma_z / period that overflow (were E_NUMERIC from cos)
    ("qkd", "--alpha", "1", "--n", "1000", "--sigma-z", "20um", "--period", "1e-320m"),
    ("qkd", "--alpha", "1", "--n", "1000", "--sigma-z", "1e305m", "--period", "1e-5m"),
], ids=" ".join)
def test_numeric_extremes_give_one_line_errors(argv, tmp_path, capsys):
    if argv[0] == "fit":
        frame_dir = tmp_path / "frame"
        assert run("ccd", *_STATE, "--nx", "32", "--ny", "24", "--outdir", str(frame_dir)) == 0
        argv = (*argv, "--image", str(frame_dir / "ccd.pgm"))
    assert run(*argv, "--outdir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(("E_VALIDATION:", "E_NUMERIC:")) and err.count("\n") == 1, err
    if "--tilt-alpha" in argv:
        assert err.startswith("E_VALIDATION: tilt_alpha must be finite"), err
    if argv[0] == "fit":
        assert err.startswith("E_VALIDATION: T must be finite"), err
    if "--bloch" in argv:
        assert err.startswith("E_VALIDATION: Bloch vector must be unit length"), err
    if "--exposure" in argv:
        assert err.startswith("E_VALIDATION: exposure scale 1e+300"), err
    if "--background" in argv:
        assert err == "E_VALIDATION: every pixel saturated; exposure misconfigured\n"
    if "--pitch" in argv:
        assert err.startswith("E_VALIDATION: pixel pitch "), err
    if "--grid" in argv:
        assert err.startswith("E_NUMERIC: Wigner map on the 16x16 grid integrates to "), err
        assert err.endswith("not 1; a finer grid may pass\n"), err
    if "--z-max" in argv:
        assert err.startswith("E_VALIDATION: distance z = "), err
    if argv[0] == "qkd":
        assert err.startswith("E_VALIDATION: path jitter sigma_z = "), err
        assert "m over the self-image period " in err, err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("argv, cause", [
    # the pair sums round to eps * sum |c|^2 = 2e-4 of the norm at alpha 1e-6
    (("--alpha", "1e-6", "--grid", "128"),
     "its terms cancel (sum |c|^2 = 1e+12), so rounding, not the grid, sets the error"),
    (("--alpha", "1", "--grid", "6"), "a finer grid may pass"),
], ids=["cancellation", "grid"])
def test_wigner_integral_error_names_its_cause(argv, cause, tmp_path, capsys):
    assert run("wigner", "--state", "cat_minus", *argv, "--outdir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_NUMERIC: Wigner map on the ") and err.count("\n") == 1, err
    assert err.endswith(f" not 1; {cause}\n"), err


def test_wigner_artifacts(tmp_path):
    code = run(
        "wigner", "--T", "0.5", "--phi", "pi", "--d-over-w0", "1",
        "--grid", "32", "--pgm", "--outdir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "wigner.csv").read_text().splitlines()
    assert lines[0] == "X,P,W"
    assert len(lines) == 32 * 32 + 1
    counts, maxval = read_pgm(tmp_path / "wigner.pgm")
    assert counts.shape == (32, 32)
    assert maxval == 65535
    sidecar = read_json(tmp_path / "wigner.pgm.json")
    assert sidecar["levels"] == 65535
    assert set(sidecar) == {
        "value_min", "value_max", "levels", "x_min", "x_max", "p_min", "p_max", "si_units",
    }
    assert sidecar["si_units"] is False


def test_wigner_is_deterministic(tmp_path):
    args = (
        "wigner", "--T", "0.3", "--phi", "0.7pi", "--d-over-w0", "1",
        "--grid", "24", "--pgm", "--outdir", str(tmp_path),
    )
    names = ("wigner.csv", "wigner.pgm", "wigner.pgm.json", "wigner_manifest.json")
    assert run(*args) == 0
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert run(*args) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == first[name], name


def test_marginals_and_beam(tmp_path):
    assert run(
        "marginals", "--state", "cat_plus", "--d-over-w0", "1",
        "--points", "101", "--outdir", str(tmp_path),
    ) == 0
    pos = (tmp_path / "marginal_position.csv").read_text().splitlines()
    mom = (tmp_path / "marginal_momentum.csv").read_text().splitlines()
    assert pos[0] == "x,density" and mom[0] == "p,density"
    assert len(pos) == 102

    assert run("beam", "--points", "11", "--outdir", str(tmp_path)) == 0
    rows = (tmp_path / "beam.csv").read_text().splitlines()
    assert rows[0] == "z,w,R,gouy"
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(0.12e-3)
    assert first[2] == "inf"


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the bench\n"
        "grid = 16\n"
        "d_over_w0 = 1\n"
        "pgm = false\n"
    )
    # argparse also accepts --config=FILE and an abbreviated flag
    for given in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        code = run(
            "wigner", *given, "--T", "0.5", "--phi", "pi",
            "--grid", "48", "--outdir", str(tmp_path),
        )
        assert code == 0, given
        lines = (tmp_path / "wigner.csv").read_text().splitlines()
        assert len(lines) == 48 * 48 + 1  # explicit flag beat the file value
        assert not (tmp_path / "wigner.pgm").exists()
        manifest = read_json(tmp_path / "wigner_manifest.json")
        assert manifest["config"]["config"] is None
        assert manifest["config"]["d_over_w0"] == 1.0  # read from the file
    # a boolean flag is set by true, yes or on, and left unset by off
    for value, pgm in (("true", True), ("yes", True), ("on", True), ("off", False)):
        cfg.write_text(f"grid = 16\nd_over_w0 = 1\npgm = {value}\n")
        (tmp_path / "wigner.pgm").unlink(missing_ok=True)
        code = run(
            "wigner", "--config", str(cfg), "--T", "0.5", "--phi", "pi",
            "--outdir", str(tmp_path),
        )
        assert code == 0, value
        assert (tmp_path / "wigner.pgm").exists() is pgm, value
        assert read_json(tmp_path / "wigner_manifest.json")["config"]["pgm"] is pgm, value
    # a file flag yields to another flag of its one-of rule on the command line
    cfg.write_text("d_over_w0 = 1\n")
    code = run("state", "--config", str(cfg), "--alpha", "1.1", "--state", "vac",
               "--outdir", str(tmp_path))
    assert code == 0
    config = read_json(tmp_path / "state_manifest.json")["config"]
    assert config["alpha"] == 1.1 and config["d_over_w0"] is None
    cfg.write_text("T = 0.5\n")
    code = run("state", "--config", str(cfg), "--alpha", "1", "--state", "vac",
               "--outdir", str(tmp_path))
    assert code == 0


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # an oversized request (marginals --points 1e11) must end in one E_NUMERIC
    # line; the allocation failure is simulated, never made
    for exc in (MemoryError("Unable to allocate 745. GiB for an array"), MemoryError()):

        def exhausted(args, exc=exc):
            raise exc

        monkeypatch.setattr(tmcat.cli, "_cmd_marginals", exhausted)
        code = run(
            "marginals", "--alpha", "1", "--T", "0.5", "--phi", "0.3",
            "--points", "100000000000", "--outdir", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC: ") and err.count("\n") == 1
        assert len(err) > len("E_NUMERIC: \n")


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_knob = 3\n")
    assert run(
        "wigner", "--config", str(bad), "--T", "0.5", "--phi", "pi",
        "--d-over-w0", "1", "--outdir", str(tmp_path),
    ) == 1
    assert "E_USAGE:" in capsys.readouterr().err

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just words\n")
    assert run("wigner", "--config", str(malformed)) == 1
    assert run("wigner", "--config", str(tmp_path / "absent.cfg")) == 1
    assert run("--config") == 1

    # a second --config is refused, not silently dropped
    good = tmp_path / "good.cfg"
    good.write_text("d_over_w0 = 1\n")
    capsys.readouterr()
    assert run(
        "wigner", "--config", str(good), "--config", str(good),
        "--T", "0.5", "--phi", "pi", "--outdir", str(tmp_path),
    ) == 1
    assert capsys.readouterr().err.startswith("E_USAGE: ")


def test_outdir_environment_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TMCAT_OUTDIR", str(tmp_path / "envout"))
    assert run("state", "--state", "vac", "--d-over-w0", "1") == 0
    assert (tmp_path / "envout" / "state_manifest.json").exists()


def test_ccd_fit_gaussian_round_trip(tmp_path):
    assert run(
        "ccd", "--state", "vac", "--theta-d", "0.4pi", "--plane", "momentum",
        "--outdir", str(tmp_path), "--out", "vac.pgm",
    ) == 0
    sidecar = read_json(tmp_path / "vac.pgm.json")
    assert sidecar["plane"] == "momentum"
    assert not sidecar["saturated"]
    assert run(
        "fit", "--image", str(tmp_path / "vac.pgm"), "--outdir", str(tmp_path),
    ) == 0
    fit = read_json(tmp_path / "fit.json")
    assert fit["radius_1e2_px"] == pytest.approx(46.155, abs=1.0)


def test_ccd_fit_phase_round_trip(tmp_path, capsys):
    d_over_w0 = math.sqrt(2.0) * 1.1  # alpha = 1.1
    assert run(
        "ccd", "--T", "0.5", "--phi", "0.57pi", "--alpha", "1.1",
        "--plane", "momentum", "--visibility", "0.97",
        "--outdir", str(tmp_path), "--out", "fringe.pgm",
    ) == 0
    d = d_over_w0 * 0.12e-3
    assert run(
        "fit", "--image", str(tmp_path / "fringe.pgm"), "--mode", "phase",
        "--T", "0.5", "--d", str(d), "--outdir", str(tmp_path),
        "--out", "phase.json",
    ) == 0
    result = read_json(tmp_path / "phase.json")
    assert result["phi_hat_over_pi"] == pytest.approx(0.57, abs=0.03)
    # a sidecar waist of 0 is refused by the mode frame, not divided by
    sidecar = tmp_path / "fringe.pgm.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "w0": 0.0}))
    assert run(
        "fit", "--image", str(tmp_path / "fringe.pgm"), "--mode", "phase",
        "--T", "0.5", "--d", str(d), "--outdir", str(tmp_path),
    ) == 2
    assert capsys.readouterr().err == "E_VALIDATION: w0 must be positive, got 0.0\n"
    # a sidecar without its waist is malformed, as for any other field
    fields = json.loads(sidecar.read_text())
    del fields["w0"]
    sidecar.write_text(json.dumps(fields))
    assert run(
        "fit", "--image", str(tmp_path / "fringe.pgm"), "--mode", "phase",
        "--T", "0.5", "--d", str(d), "--outdir", str(tmp_path),
    ) == 2
    assert capsys.readouterr().err.startswith("E_VALIDATION: image sidecar ")


def test_fit_mode_requirements(tmp_path, capsys):
    assert run(
        "ccd", "--state", "vac", "--d-over-w0", "1",
        "--outdir", str(tmp_path), "--out", "pos.pgm",
    ) == 0
    # phase fitting on a position-plane image is a usage error
    assert run(
        "fit", "--image", str(tmp_path / "pos.pgm"), "--mode", "phase",
        "--T", "0.5", "--d", "0.12mm", "--outdir", str(tmp_path),
    ) == 1
    assert "E_USAGE:" in capsys.readouterr().err
    image = tmp_path / "pos.pgm"
    whole = image.read_bytes()
    # an image without its sidecar is a usage error
    lone = tmp_path / "lone.pgm"
    lone.write_bytes(whole)
    assert run("fit", "--image", str(lone), "--outdir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("E_USAGE:") and err.count("\n") == 1
    # a truncated image is a validation error
    header = b"P5\n720 480\n255\n"
    assert whole.startswith(header)
    for cut in (header, whole[:-1], b"P5\n720", b""):
        image.write_bytes(cut)
        assert run("fit", "--image", str(image), "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION:") and err.count("\n") == 1
    # a corrupt sidecar is a validation error: malformed JSON, a missing field,
    # a bit depth that the frame's max value disagrees with, an unknown plane
    image.write_bytes(whole)
    sidecar = tmp_path / "pos.pgm.json"
    fields = json.loads(sidecar.read_text())
    missing = {key: value for key, value in fields.items() if key != "ny"}
    for text in (
        '{"nx": 720,',
        json.dumps(missing),
        json.dumps({**fields, "bit_depth": 12}),
        json.dumps({**fields, "plane": "sideways", "f": 0.145}),
    ):
        sidecar.write_text(text)
        assert run("fit", "--image", str(image), "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION:") and err.count("\n") == 1


def test_sweep_command(tmp_path, capsys):
    assert run(
        "sweep", "--path", "1:0,0.5:pi", "--d-over-w0", "1",
        "--outdir", str(tmp_path),
    ) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "T,phi,delta_x,mean_vx,center_intensity"
    assert len(rows) == 3
    assert float(rows[1].split(",")[2]) == pytest.approx(0.12e-3 / 2.0, rel=1e-9)
    assert run("sweep", "--path", "1;0", "--d-over-w0", "1") == 1
    assert "E_USAGE:" in capsys.readouterr().err
    # a trace that drifts from 1 is named by its real part, a plain float
    assert run("sweep", "--d-over-w0", "3.437964925654582e-07",
               "--path", "0.5000000007522438:pi", "--outdir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "E_NUMERIC: state norm drifted to 0.9990234375 in moment evaluation\n"


def test_mdm_command(tmp_path):
    assert run(
        "mdm", "--scheme", "four_cat", "--d-over-w0", "12", "--n", "5000",
        "--sigma-theta", "0.5pi", "--seed", "4", "--outdir", str(tmp_path),
    ) == 0
    result = read_json(tmp_path / "mdm.json")
    assert result["ber"] == 0.0  # rotation-immune alphabet
    assert result["n"] == 5000


def test_qkd_command(tmp_path):
    assert run(
        "qkd", "--theta-d", "0.4pi", "--n", "20000", "--sigma-z", "780nm",
        "--period", "1mm", "--seed", "0", "--outdir", str(tmp_path),
    ) == 0
    result = read_json(tmp_path / "qkd.json")
    assert result["qber"] < 0.001
    assert 0.45 < result["sift_rate"] < 0.55
    # one round at seed 0 is not sifted: the error rate is null, not NaN
    assert run("qkd", "--alpha", "1", "--n", "1", "--outdir", str(tmp_path)) == 0
    text = (tmp_path / "qkd.json").read_text()
    assert '"qber": null' in text and '"sifted": 0' in text


def test_reproduce_fig4(tmp_path):
    assert run("reproduce", "fig4", "--outdir", str(tmp_path)) == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == [
        "fig4_coherent_momentum.csv",
        "fig4_coherent_position.csv",
        "fig4_vacuum_momentum.csv",
        "fig4_vacuum_position.csv",
    ]
    rows = (tmp_path / "fig4_vacuum_position.csv").read_text().splitlines()
    assert rows[0] == "axis,density,sql"
    body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    # the vacuum beam sits exactly at the quantum limit
    assert np.max(np.abs(body[:, 1] - body[:, 2])) < 1e-9 * body[:, 1].max()
    rows = (tmp_path / "fig4_coherent_position.csv").read_text().splitlines()
    body = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    # reference curve tracks the displaced beam center
    assert np.argmax(body[:, 2]) == np.argmax(body[:, 1])


def test_reproduce_fig2_inventory(tmp_path):
    assert run("reproduce", "fig2", "--outdir", str(tmp_path)) == 0
    csvs = sorted(p.name for p in tmp_path.glob("fig2_*.csv"))
    assert len(csvs) == 8
    pgms = sorted(p.name for p in tmp_path.glob("fig2_*.pgm"))
    assert len(pgms) == 8
    counts, maxval = read_pgm(tmp_path / "fig2_cat_minus.pgm")
    assert counts.shape == (256, 256)
    assert maxval == 65535
    sidecar = read_json(tmp_path / "fig2_cat_minus.pgm.json")
    assert set(sidecar) == {"value_min", "value_max", "levels", "state", "half_range", "n"}
    assert (sidecar["state"], sidecar["half_range"], sidecar["n"]) == ("cat_minus", 4.0, 256)
    # odd cat approaches the -1/pi negativity floor; the even-sized grid
    # straddles the exact minimum point, so allow a half-cell of slack
    assert sidecar["value_min"] == pytest.approx(-1.0 / math.pi, abs=1e-3)


def test_compute_before_write(tmp_path, capsys, monkeypatch):
    # a failure in the third of eight fig2 maps leaves no file behind: every
    # artifact is computed before the first is written
    calls = []

    def third_fails(*args, real=tmcat.cli.wigner_of_state):
        calls.append(1)
        if len(calls) == 3:
            raise tmcat.ValidationError("third map refused")
        return real(*args)

    monkeypatch.setattr(tmcat.cli, "wigner_of_state", third_fails)
    assert run("reproduce", "fig2", "--outdir", str(tmp_path)) == 2
    assert capsys.readouterr().err == "E_VALIDATION: third map refused\n"
    assert not list(tmp_path.iterdir())


def test_absolute_out_keeps_its_path(tmp_path):
    # an absolute --out is written where it names; the manifest goes under --outdir
    outdir = tmp_path / "D"
    assert run(
        "wigner", *_STATE, "--grid", "32", "--pgm", "--out", str(tmp_path / "w.csv"),
        "--outdir", str(outdir),
    ) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "w.csv", "w.pgm", "w.pgm.json"]
    assert [p.name for p in outdir.iterdir()] == ["wigner_manifest.json"]
    assert read_json(tmp_path / "w.pgm.json")["levels"] == 65535


def _readme_examples() -> list[list[str]]:
    """The argv of each ``tmcat ...`` line of README's "More examples" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("More examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tmcat ")]


# the files each README example adds, in the block's order
_README_INVENTORY = [
    ["out/wigner.csv", "out/wigner.pgm", "out/wigner.pgm.json", "out/wigner_manifest.json"],
    ["out/marginal_position.csv", "out/marginal_momentum.csv", "out/marginals_manifest.json"],
    ["out/ccd.pgm", "out/ccd.pgm.json", "out/ccd_manifest.json"],
    ["out/fit.json", "out/fit_manifest.json"],
    ["out/sweep.csv", "out/sweep_manifest.json"],
    ["out/mdm.json", "out/mdm_manifest.json"],
    ["out/qkd.json", "out/qkd_manifest.json"],
    [*(f"out/fig2/fig2_{kind}{ext}" for kind in TYPICAL_KINDS
       for ext in (".csv", ".pgm", ".pgm.json")), "out/fig2/reproduce_fig2_manifest.json"],
]


def test_readme_examples_run(tmp_path, monkeypatch):
    # in order, in one directory: fit reads the frame ccd wrote
    examples = _readme_examples()
    assert len(examples) == len(_README_INVENTORY)
    monkeypatch.chdir(tmp_path)
    before = set()
    for argv, expected in zip(examples, _README_INVENTORY):
        assert main(argv) == 0, argv
        after = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert after - before == set(expected), argv
        before = after


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
    assert "tmcat" in capsys.readouterr().out


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the phase fit needs scipy.optimize, whose import costs more than
    # the rest of the package; every other command starts without it
    code = "import sys, tmcat.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(tmcat.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_gaussian_fits_leave_scipy_optimize_unloaded(tmp_path):
    # the Gaussian fit is numpy only, and its solver is compiled on first use;
    # the phase fit is the one caller of scipy
    assert run(
        "ccd", "--T", "0.5", "--phi", "0.3", "--alpha", "1.1", "--plane", "momentum",
        "--outdir", str(tmp_path), "--out", "fringe.pgm",
    ) == 0
    fit = ["fit", "--image", str(tmp_path / "fringe.pgm"), "--outdir", str(tmp_path)]
    phase = fit + ["--mode", "phase", "--T", "0.5", "--d", "0.187mm"]
    code = (
        "import sys, numpy as np, tmcat, tmcat.cli\n"
        "print('tmcat.gaussfit' in sys.modules)\n"
        "x = np.arange(64) - 31.5\n"
        "tmcat.fit_gaussian_profile(np.exp(-2.0 * (x / 8.0) ** 2), 6.5e-6)\n"
        f"assert tmcat.cli.main({fit + ['--mode', 'gaussian']!r}) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
        f"assert tmcat.cli.main({phase!r}) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tmcat.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "True"]


def test_cli_import_builds_no_cell_tables():
    # the grid-CSV formatter's tables are built on the first grid write, and
    # from Python ints, so a command that writes no grid pays for neither
    code = (
        "import sys, tmcat.cli, tmcat.fileio as f; "
        "print('fractions' in sys.modules, f._cell_tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tmcat.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "0"]


# Small fixed runs per subcommand: every drawn option is appended, so it
# overrides the base value of the same flag.  Each base run succeeds (at
# --grid 16 the auto-sized map misses its integral check by 6e-6).
_QUBIT = ("--alpha", "1", "--T", "0.5", "--phi", "0.3")
_FUZZ_BASE = {
    "state": _QUBIT,
    "wigner": (*_QUBIT, "--grid", "20"),
    "marginals": (*_QUBIT, "--points", "16"),
    "beam": ("--points", "16"),
    "ccd": (*_QUBIT, "--nx", "32", "--ny", "24"),
    "fit": (),  # plus --image, a frame rendered once below
    "sweep": ("--alpha", "1", "--path", "1:0,0.5:pi"),
    "mdm": ("--alpha", "1", "--n", "50"),
    "qkd": ("--alpha", "1", "--n", "50"),
    "reproduce": ("fig5",),
}
# values of each type, with the suffixes its parser reads
_SUFFIXES = {float: ("",), parse_length: ("", "mm", "nm"), parse_angle: ("", "pi")}
_INT_TYPES = (int, _point_count)
_FLOAT_VALUES = ("0", "-0", "1e-320", "-1e-320", "1e-308", "1e308", "-1e308",
                 "nan", "inf", "-inf", "3", "-3")
# no large integers: a drawn grid, frame or round count stays small
_INT_VALUES = ("-1", "0", "1", "2", "3", "1e308", "nan")


_SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
_NUMERIC_ACTIONS = {
    command: [
        a for a in parser._actions
        if a.option_strings and (a.type in _SUFFIXES or a.type in _INT_TYPES)
    ]
    for command, parser in _SUBPARSERS.choices.items()
}


def _option_tokens(data, action):
    flag = data.draw(st.sampled_from(action.option_strings))
    if action.type in _INT_TYPES:
        value = data.draw(st.sampled_from(_INT_VALUES))
    else:
        value = data.draw(st.sampled_from(_FLOAT_VALUES)) + data.draw(
            st.sampled_from(_SUFFIXES[action.type])
        )
    return data.draw(st.sampled_from(([flag, value], [f"{flag}={value}"])))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def fuzz_frame(tmp_path_factory):
    """The 32x24 frame that fit reads, after every base run has succeeded."""
    outdir = tmp_path_factory.mktemp("frame")
    assert main(["ccd", *_FUZZ_BASE["ccd"], "--outdir", str(outdir)]) == 0
    frame = outdir / "ccd.pgm"
    for command, base in _FUZZ_BASE.items():
        image = ("--image", str(frame)) if command == "fit" else ()
        assert main([command, *base, *image, "--outdir", str(outdir)]) == 0, command
    return frame


@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
@given(data=st.data())
def test_fuzzed_numeric_options_end_cleanly(command, fuzz_frame, data):
    # any value of one or two numeric options gives the documented result or
    # one E_* line, and every file written holds only finite JSON numbers and
    # no nan cell (R = inf at the waist in beam.csv is documented)
    chosen = data.draw(
        st.lists(st.sampled_from(_NUMERIC_ACTIONS[command]), min_size=1, max_size=2)
    )
    argv = [command, *_FUZZ_BASE[command]]
    if command == "fit":
        argv += ["--image", str(fuzz_frame)]
    for action in chosen:
        argv += _option_tokens(data, action)
    with tempfile.TemporaryDirectory() as outdir:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--outdir", outdir])
        assert code in (0, 1, 2), argv
        message = err.getvalue()
        assert message.count("\n") <= 1 and "Traceback" not in message, (argv, message)
        for path in Path(outdir).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        for path in Path(outdir).glob("*.csv"):
            cells = path.read_text().replace("\n", ",").split(",")
            assert "nan" not in cells, (argv, path.name)
