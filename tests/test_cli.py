"""Command-line front end: parsing, exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmcat
from tmcat.cli import _UsageError, main, parse_angle, parse_length
from tmcat.fileio import read_json, read_pgm


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


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("nonsense") == 1
    assert "E_USAGE:" in capsys.readouterr().err
    # missing separation specification
    assert run("state", "--T", "0.5", "--phi", "0") == 1
    assert "E_USAGE:" in capsys.readouterr().err
    # conflicting separation flags
    assert run("state", "--T", "0.5", "--phi", "0", "--alpha", "1", "--d-over-w0", "2") == 1
    assert "E_USAGE:" in capsys.readouterr().err
    out = str(tmp_path)
    for argv in (
        # non-finite angles and lengths
        ("state", "--alpha", "1", "--T", "0.5", "--phi", "inf"),
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
        # a non-finite tilt
        ("ccd", "--T", "0.5", "--phi", "0", "--alpha", "1", "--tilt-alpha", "nan"),
    ):
        assert run(*argv, "--outdir", str(tmp_path)) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION:") and err.count("\n") == 1, argv
    assert not list(tmp_path.glob("*.json"))


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
    assert "x_min" in sidecar


def test_wigner_is_deterministic(tmp_path):
    args = (
        "wigner", "--T", "0.3", "--phi", "0.7pi", "--d-over-w0", "1",
        "--grid", "24", "--outdir", str(tmp_path),
    )
    assert run(*args) == 0
    first = (tmp_path / "wigner.csv").read_bytes()
    first_manifest = (tmp_path / "wigner_manifest.json").read_bytes()
    assert run(*args) == 0
    assert (tmp_path / "wigner.csv").read_bytes() == first
    assert (tmp_path / "wigner_manifest.json").read_bytes() == first_manifest


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
    code = run(
        "wigner", "--config", str(cfg), "--T", "0.5", "--phi", "pi",
        "--grid", "48", "--outdir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "wigner.csv").read_text().splitlines()
    assert len(lines) == 48 * 48 + 1  # explicit flag beat the file value
    assert not (tmp_path / "wigner.pgm").exists()


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


def test_ccd_fit_phase_round_trip(tmp_path):
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
    # a corrupt sidecar is a validation error: malformed JSON, a missing field
    image.write_bytes(whole)
    sidecar = tmp_path / "pos.pgm.json"
    fields = json.loads(sidecar.read_text())
    del fields["ny"]
    for text in ('{"nx": 720,', json.dumps(fields)):
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
    # odd cat approaches the -1/pi negativity floor; the even-sized grid
    # straddles the exact minimum point, so allow a half-cell of slack
    assert sidecar["value_min"] == pytest.approx(-1.0 / math.pi, abs=1e-3)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
    assert "tmcat" in capsys.readouterr().out


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the fits need scipy.optimize, whose import costs more than the
    # rest of the package; every other command starts without it
    code = "import sys, tmcat.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(tmcat.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
