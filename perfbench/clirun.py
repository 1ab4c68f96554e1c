"""Cold ``python -m tmcat`` commands: spawning, artifact checks, reference.

Each command runs in its own empty directory with the default ``--outdir``
(``.``), so manifests do not depend on where the checkout lives.  The
child's peak RSS comes from ``os.wait4``.  In a traced pass the child is
``launcher.py``, which records the child's spans and writes them to a file
that the parent adopts under the command's span.

Checks, in order of strength:
  * the command exits 0 and its artifacts pass semantic checks (Wigner
    integral and floor, PGM geometry, recovered phase, protocol counts equal
    to a library call on the same inputs);
  * artifacts are byte-identical between the passes of one run;
  * when the command's argv equals the one in ``reference.json`` (always
    for the figures, at seed 0 for the rest), artifacts match the recorded
    SHA-256 or, failing that, the recorded numeric subsample: each value
    within 1e-14 of its column's largest magnitude, integers exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import PHASE_GATE, WIGNER_FLOOR, Command

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 150.0
SAMPLE_ROWS = 64
RELATIVE_GATE = 1e-14


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("TMCAT_OUTDIR", None)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log_stem: Path) -> tuple[int, float]:
    """Run argv to completion: (exit code, peak RSS in MB)."""
    with open(f"{log_stem}.stdout", "wb") as out, open(f"{log_stem}.stderr", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_command(cmd: Command, pass_dir: Path, env: dict, tracer) -> dict:
    """One cold command; with a tracer its spans join the current span."""
    cwd = pass_dir / cmd.name
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    log = pass_dir / cmd.name
    if tracer is None:
        code, rss = spawn([sys.executable, "-m", "tmcat", *cmd.argv], cwd, env, log)
    else:
        spans_file = pass_dir / f"{cmd.name}.spans.json"
        argv = [sys.executable, str(HERE / "launcher.py"), str(spans_file),
                repr(time.perf_counter()), *cmd.argv]
        code, rss = spawn(argv, cwd, env, log)
        if spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text()))
            spans_file.unlink()
    return {"code": code, "rss_mb": rss, "dir": cwd, "log": log}


# ------------------------------------------------------------ artifacts --

def artifact_files(run: dict) -> dict[str, Path]:
    files = {p.name: p for p in sorted(run["dir"].iterdir()) if p.is_file()}
    files["stdout"] = Path(f"{run['log']}.stdout")
    return files


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(files: dict[str, Path]) -> dict[str, str]:
    return {name: sha256(p) for name, p in files.items()}


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_pgm(path: Path) -> tuple[list[bytes], np.ndarray, int]:
    """Header fields, samples and file size of a binary PGM, read without tmcat."""
    data = path.read_bytes()
    fields = data.split(maxsplit=4)[:4]
    wide = int(fields[3]) > 255
    count = int(fields[1]) * int(fields[2])
    payload = data[len(data) - count * (2 if wide else 1):]
    return fields, np.frombuffer(payload, ">u2" if wide else "u1").astype(np.int64), len(data)


def _grid_integral(table: np.ndarray) -> tuple[float, float]:
    n = int(round(math.sqrt(table.shape[0])))
    values = table[:, 2].reshape(n, n)
    x, p = table[::n, 0], table[:n, 1]
    return float(np.trapezoid(np.trapezoid(values, p, axis=1), x)), float(values.min())


def _argv_value(cmd: Command, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def library_counts(commands: list[Command]) -> dict[str, dict]:
    """Protocol counts from the library for the run's mdm and qkd inputs."""
    import tmcat as tm

    counts = {}
    for cmd in commands:
        if cmd.name not in ("mdm", "qkd"):
            continue
        n = int(_argv_value(cmd, "--n"))
        seed = int(_argv_value(cmd, "--seed"))
        angle = tm.OverlapAngle.from_alpha(float(_argv_value(cmd, "--alpha")))
        if cmd.name == "mdm":
            basis = tm.build_basis("twelve_state", angle, tm.ModeFrame(0.12e-3, 780e-9))
            channel = tm.ChannelModel(rotation_jitter_sigma=0.05 * math.pi,
                                      additive_overlap_noise_sigma=0.1, seed=seed)
            stats = tm.psk_link_simulate(n, basis, channel, seed=seed)
        else:
            stats = tm.qkd_simulate(n, angle, 20e-6, tm.FiberSpec(period_length=1e-3), seed=seed)
        counts[cmd.name] = {"n": stats.rounds, "sifted": stats.sifted, "errors": stats.errors}
    return counts


def semantic_problems(cmd: Command, files: dict[str, Path], expected: dict) -> list[str]:
    """Checks that hold at any seed; run once per distinct artifact set."""
    problems = []
    name = cmd.name
    manifest = "reproduce_" + name if name in ("fig2", "fig4", "fig5") else name
    if f"{manifest}_manifest.json" not in files:
        problems.append("no manifest written")
    if name == "state":
        text = files["stdout"].read_text()
        fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        t_in = float(_argv_value(cmd, "--T"))
        if not math.isclose(float(fields.get("T", "nan")), t_in, rel_tol=1e-5):
            problems.append(f"state echoed T = {fields.get('T')}")
        bloch = [float(v) for v in re.findall(r"[-+0-9.e]+", fields.get("bloch", ""))]
        if len(bloch) != 3 or not math.isclose(math.hypot(*bloch), 1.0, rel_tol=1e-5):
            problems.append(f"Bloch vector {bloch} is not a unit vector")
    elif name == "wigner":
        integral, w_min = _grid_integral(read_csv(files["wigner.csv"])[1])
        if not abs(integral - 1.0) <= 1e-6:
            problems.append(f"Wigner map integrates to {integral!r}")
        if not w_min >= WIGNER_FLOOR:
            problems.append(f"Wigner minimum {w_min!r} below -1/pi")
        grid = _argv_value(cmd, "--grid").encode()
        if read_pgm(files["wigner.pgm"])[0] != [b"P5", grid, grid, b"65535"]:
            problems.append("wigner.pgm has the wrong geometry")
    elif name == "fig2":
        csvs = [p for n, p in files.items() if n.endswith(".csv")]
        if len(csvs) != 8:
            problems.append(f"fig2 wrote {len(csvs)} CSV files, expected 8")
        for path in csvs:
            _, w_min = _grid_integral(read_csv(path)[1])
            if not w_min >= WIGNER_FLOOR:
                problems.append(f"{path.name}: Wigner minimum {w_min!r} below -1/pi")
    elif name in ("fig4", "fig5"):
        csvs = [p for n, p in files.items() if n.endswith(".csv")]
        if not csvs or not all(np.isfinite(read_csv(p)[1]).all() for p in csvs):
            problems.append(f"{name} panels missing or not finite")
    elif name == "ccd":
        nx, ny = _argv_value(cmd, "--nx").encode(), _argv_value(cmd, "--ny").encode()
        max_value = str((1 << int(_argv_value(cmd, "--bits"))) - 1).encode()
        if read_pgm(files["ccd.pgm"])[0] != [b"P5", nx, ny, max_value]:
            problems.append("ccd.pgm has the wrong geometry")
        if "ccd.pgm.json" not in files:
            problems.append("ccd.pgm.json sidecar missing")
    elif name == "fit":
        fit = json.loads(files["fit.json"].read_text())
        err = abs(math.remainder(fit["phi_hat_rad"] - cmd.phi, 2.0 * math.pi))
        if not err <= PHASE_GATE:
            problems.append(f"recovered phase off by {err / math.pi:.4f} pi (gate 0.03 pi)")
    elif name in ("mdm", "qkd"):
        got = json.loads(files[f"{name}.json"].read_text())
        want = expected[name]
        if {k: got.get(k) for k in want} != want:
            problems.append(f"{name} counts {got} differ from the library's {want}")
    return problems


# ------------------------------------------------------------ reference --

def _sample_rows(nrows: int) -> list[int]:
    return list(range(0, nrows, max(1, nrows // SAMPLE_ROWS)))


def describe(name: str, path: Path) -> dict:
    """Digest plus the numeric subsample the fallback comparison uses."""
    entry = {"sha256": sha256(path)}
    if name.endswith(".csv"):
        header, table = read_csv(path)
        rows = _sample_rows(table.shape[0])
        entry["csv"] = {"header": header, "rows": table.shape[0],
                        "scale": np.max(np.abs(table), axis=0).tolist(),
                        "index": rows, "sample": table[rows].tolist()}
    elif name.endswith(".json"):
        entry["json"] = json.loads(path.read_text())
    elif name.endswith(".pgm"):
        fields, codes, size = read_pgm(path)
        rows = _sample_rows(codes.size)
        entry["pgm"] = {"header": [f.decode() for f in fields], "bytes": size,
                        "index": rows, "sample": codes[rows].tolist()}
    else:
        entry["text"] = path.read_text()
    return entry


def _json_close(got, want, path="") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"]
        return [p for k in want for p in _json_close(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= RELATIVE_GATE * abs(want) or got == want:
            return []
        return [f"{path}: {got!r} vs {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} vs {want!r}"]


def compare_to_reference(name: str, path: Path, entry: dict) -> list[str]:
    """Empty when the artifact matches the recorded digest or subsample."""
    if sha256(path) == entry["sha256"]:
        return []
    if "csv" in entry:
        ref = entry["csv"]
        header, table = read_csv(path)
        if header != ref["header"] or table.shape[0] != ref["rows"]:
            return [f"{name}: header or row count changed"]
        gap = np.abs(table[ref["index"]] - np.array(ref["sample"]))
        limit = RELATIVE_GATE * np.array(ref["scale"])
        bad = int(np.count_nonzero(gap > limit))
        return [f"{name}: {bad} sampled values beyond 1e-14 of the column scale"] if bad else []
    if "json" in entry:
        return [f"{name}{p}" for p in _json_close(json.loads(path.read_text()), entry["json"])]
    if "pgm" in entry:
        ref = entry["pgm"]
        fields, codes, size = read_pgm(path)
        if [f.decode() for f in fields] != ref["header"] or size != ref["bytes"]:
            return [f"{name}: PGM header or size changed"]
        codes = codes[ref["index"]]
        # 16-bit codes are quantised: a last-bit change may move one code by 1
        if np.max(np.abs(codes - np.array(ref["sample"]))) > 1:
            return [f"{name}: sampled gray codes moved by more than 1"]
        return []
    got = [float(v) for v in re.findall(r"-?\d+\.?\d*(?:e[-+]?\d+)?", path.read_text())]
    want = [float(v) for v in re.findall(r"-?\d+\.?\d*(?:e[-+]?\d+)?", entry["text"])]
    # printed with 6 significant digits
    if len(got) != len(want) or not all(math.isclose(g, w, rel_tol=1e-5, abs_tol=1e-12)
                                        for g, w in zip(got, want)):
        return [f"{name}: printed values changed"]
    return []


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_problems(cmd: Command, files: dict[str, Path], reference: dict) -> list[str] | None:
    """None when the reference does not cover this command's argv."""
    entry = reference["commands"].get(cmd.name)
    if entry is None or tuple(entry["argv"]) != cmd.argv:
        return None
    problems = []
    if set(files) != set(entry["artifacts"]):
        problems.append(f"artifact set {sorted(files)} differs from the reference")
    for name, art in entry["artifacts"].items():
        if name in files:
            problems += compare_to_reference(name, files[name], art)
    return problems
