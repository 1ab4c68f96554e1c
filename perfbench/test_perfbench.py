"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that every declared metric is reported with its unit, that the
traced layers account for the traced wall time, and that a corrupted
artifact or a changed protocol count is caught and counted as a failure.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import clirun  # noqa: E402
import measure  # noqa: E402
import record_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Sizes(lab_jobs=2, ccd_nx=240, ccd_ny=160, kernel_points=600, scan_jobs=2,
                scan_grid=32, moment_angles=4, sweep_points=2, scan_rounds=500,
                wigner_grid=48, cli_rounds=2000, figures=("fig5",))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
REQUIRED_END_TO_END = {"setup_s", "wall_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"}
REQUIRED_PER_LAYER = {f"{layer}.{key}" for layer in spans.LAYERS for key in ("self_s", "errors")} | {
    "setup.import_tmcat_s", "setup.import_scipy_optimize_s", "fileio.bytes_written",
    "fileio.files", "fileio.mb_per_s", "wigner.maps", "wigner.evals",
    "wigner.evals_per_map", "wigner.cells_per_s", "states.calls", "applications.rounds",
    "applications.rounds_per_s", "virtual_lab.render_mpix_per_s", "virtual_lab.fit_s",
    "virtual_lab.fits", "propagation.kernel_macs", "propagation.kernel_gmac_per_s",
    "trace.overhead_s"}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)


@pytest.fixture(scope="module")
def tiny_reference():
    return record_reference.record(0, TINY, ROOT / ".perfbench" / "work" / "selftest-ref")


def test_declared_metrics_cover_the_required_set():
    assert {m["name"] for m in DECLARED["end_to_end"]} == REQUIRED_END_TO_END
    assert REQUIRED_PER_LAYER <= {m["name"] for m in DECLARED["per_layer"]}
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", measure.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tiny_reference):
    result = measure.run_workload(workload, 0, 0, False, TINY, tiny_reference)
    lines, final = run.report(result, DECLARED["end_to_end"])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    for m in DECLARED["end_to_end"]:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        assert final["metrics"][m["name"]]["value"] > 0.0
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                   for line in lines)
    assert any(line.startswith("failed_ratio = 0 ") for line in lines)
    if workload == "cli":
        for name in ("state", "wigner", "ccd", "fit", "mdm", "qkd"):
            assert any(line.startswith(f"command {name}_s = ") for line in lines)


def assert_layers_add_up(workload, metrics):
    in_pass = [layer for layer in spans.LAYERS if workload == "cli" or layer != "setup"]
    accounted = sum(metrics[f"{layer}.self_s"] for layer in in_pass)
    assert math.isclose(accounted + metrics["trace.unattributed_s"], metrics["trace.wall_s"],
                        rel_tol=1e-9)


@pytest.mark.parametrize("workload", measure.WORKLOADS)
def test_traced_run_reports_layers_that_add_up(workload, tiny_reference):
    result = measure.run_workload(workload, 0, 0, True, TINY, tiny_reference)
    lines, final = run.report(result, DECLARED["per_layer"])
    assert final["correct"]
    assert set(final["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    metrics = result["metrics"]
    assert_layers_add_up(workload, metrics)
    busy = {"cli": ("cli", "fileio", "applications", "wigner"),
            "lab": ("virtual_lab", "propagation", "fileio"),
            "scan": ("states", "wigner", "applications")}[workload]
    assert all(metrics[f"{layer}.self_s"] > 0.0 for layer in busy)
    assert metrics["wigner.evals"] >= metrics["wigner.maps"]
    assert (metrics["fileio.files"] == 0) == (workload == "scan")


def test_layers_add_up_over_several_traced_passes(tiny_reference, monkeypatch):
    # three passes, so that a median of pass times would differ from the mean
    monkeypatch.setattr(measure, "MIN_TRACED_PASSES", 3)
    result = measure.run_workload("scan", 0, 0, True, TINY, tiny_reference)
    traced = result["passes"]["traced_s"]
    assert len(traced) == 3
    assert math.isclose(result["metrics"]["trace.wall_s"], sum(traced) / 3, rel_tol=1e-12)
    assert_layers_add_up("scan", result["metrics"])


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    outer = tracer.open("wigner", "outer", start=0.0)
    inner = tracer.open("states", "inner", start=1.0)
    tracer.close(inner, end=3.0)
    tracer.close(outer, end=10.0)
    assert spans.self_times(tracer.spans) == {0: 8.0, 1: 2.0}


def _tiny_cli_files(tiny_reference, tmp_path):
    """Artifacts of one tiny cli pass at seed 0, copied for corruption."""
    src = ROOT / ".perfbench" / "work" / "selftest-ref"
    shutil.copytree(src, tmp_path / "pass")
    cmds = {c.name: c for c in wl.cli_commands(0, TINY)}
    return cmds, tmp_path / "pass"


def test_corrupted_artifact_turns_reference_check_red(tiny_reference, tmp_path):
    cmds, pass_dir = _tiny_cli_files(tiny_reference, tmp_path)
    run_out = {"dir": pass_dir / "wigner", "log": pass_dir / "wigner"}
    files = clirun.artifact_files(run_out)
    assert clirun.reference_problems(cmds["wigner"], files, tiny_reference) == []
    csv = files["wigner.csv"]
    lines = csv.read_text().splitlines()
    x, p, w = lines[1].split(",")
    lines[1] = ",".join([x, p, repr(float(w) + 1e-3)])
    csv.write_text("\n".join(lines) + "\n")
    assert clirun.reference_problems(cmds["wigner"], files, tiny_reference)


def test_last_bit_change_passes_the_numeric_fallback(tiny_reference, tmp_path):
    cmds, pass_dir = _tiny_cli_files(tiny_reference, tmp_path)
    files = clirun.artifact_files({"dir": pass_dir / "wigner", "log": pass_dir / "wigner"})
    table = clirun.read_csv(files["wigner.csv"])[1]
    table[:, 2] *= 1.0 + 1e-15
    header = files["wigner.csv"].read_text().splitlines()[0]
    rows = [",".join(format(float(v) + 0.0, ".17g") for v in row) for row in table]
    files["wigner.csv"].write_text("\n".join([header, *rows]) + "\n")
    entry = tiny_reference["commands"]["wigner"]["artifacts"]["wigner.csv"]
    assert clirun.sha256(files["wigner.csv"]) != entry["sha256"]
    assert clirun.reference_problems(cmds["wigner"], files, tiny_reference) == []


def test_changed_protocol_count_is_counted_as_failure(tiny_reference):
    reference = copy.deepcopy(tiny_reference)
    reference["commands"]["mdm"]["artifacts"]["mdm.json"]["json"]["errors"] += 1
    reference["commands"]["mdm"]["artifacts"]["mdm.json"]["sha256"] = "0" * 64
    result = measure.run_workload("cli", 0, 0, False, TINY, reference)
    assert result["failed"] == measure.MIN_PASSES  # one per pass
    assert {p["job"] for p in result["problems"]} == {"mdm"}
    lines, final = run.report(result, DECLARED["end_to_end"])
    assert not final["correct"] and any(line.startswith("FAILED mdm") for line in lines)

    reference = copy.deepcopy(tiny_reference)
    reference["scan"][0][1][0] += 1
    result = measure.run_workload("scan", 0, 0, False, TINY, reference)
    assert result["failed"] == measure.MIN_PASSES
    assert {p["job"] for p in result["problems"]} == {"scan[0]"}


def test_output_that_changes_between_passes_is_a_failure():
    class Drifting:
        inputs = [0]
        labels = ["drift"]
        scaled = False

        def __init__(self):
            self.calls = 0

        def run(self, i, tracer):
            self.calls += 1
            return self.calls

        def check(self, i, out):
            return [], (out,)

        def tracing(self, tracer):
            return contextlib.nullcontext()

    rec = measure.run_passes(Drifting(), 0.0, trace=True, probe=lambda: (0.8, 0.5))
    assert rec["attempted"] == 2 and rec["failed"] == 1
    assert rec["probes"] == [(0.8, 0.5, 1.0)]  # unscaled jobs, unscaled set-up


def test_job_times_scale_with_the_speed_probe(monkeypatch):
    class Steady:
        inputs = [0, 1]
        labels = ["a", "b"]
        scaled = True

        def run(self, i, tracer):
            return i

        def check(self, i, out):
            return [], (out,)

        def tracing(self, tracer):
            return contextlib.nullcontext()

    # a host at half the reference speed halves every scaled time
    monkeypatch.setattr(measure, "speed_probe", lambda: 2.0 * measure.PROBE_REF_S)
    rec = measure.run_passes(Steady(), 0.0, trace=False, probe=lambda: (0.8, 0.5))
    assert rec["failed"] == 0 and len(rec["job_s"][0]) == measure.MIN_PASSES
    assert rec["probes"] == [(0.8, 0.5, 0.5)]
    for raw, scaled in zip(rec["job_s"], rec["job_scaled_s"]):
        assert scaled == pytest.approx([t / 2.0 for t in raw], rel=1e-12)


def test_inputs_come_from_the_seed_only(tiny_reference):
    assert wl.draws("lab", 3, 4) == wl.draws("lab", 3, 4)
    assert wl.draws("lab", 3, 4) != wl.draws("lab", 4, 4)
    reference = clirun.load_reference()
    for cmd in wl.cli_commands(reference["seed"], wl.FULL):
        assert tuple(reference["commands"][cmd.name]["argv"]) == cmd.argv
    for cmd in wl.cli_commands(7, wl.FULL):
        if cmd.name in ("fig2", "fig5"):
            assert tuple(reference["commands"][cmd.name]["argv"]) == cmd.argv
    scan = measure.InProcessJobs("scan", reference["seed"], wl.FULL, ROOT, reference)
    assert all(scan.key(i) in scan.expected for i in range(len(scan.inputs)))


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
