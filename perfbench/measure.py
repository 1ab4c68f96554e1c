"""Runs one workload for a fixed time and turns the run into metrics.

The load is a closed loop with one client: the next job starts only when
the previous one has finished.  A pass runs the workload's fixed job list
once, in order; passes repeat until the time is up.  Only jobs are timed:
output checks run between jobs, outside the timed region.  In a traced run
untraced and traced passes alternate, so that ``trace.overhead_s`` compares
passes taken under the same host conditions.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import clirun
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "lab", "scan")
SETUP_REPEATS = 5
MIN_PASSES = 3  # untraced; cli's 8 commands take about 17 s a pass
MIN_TRACED_PASSES = 1
PROBE_REF_S = 2.5e-3  # speed_probe() on the baseline host in a quiet spell
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


# ---------------------------------------------------------- environment --

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Machine and library versions, so two results can be compared."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var, "unset (library default)") for var in THREAD_VARS},
        "load": "closed loop, one client",
    }


_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((64, 64))
_PROBE_V = _PROBE_RNG.standard_normal(2048)


def speed_probe() -> float:
    """Time of a fixed mix of numpy and interpreter work, about 3 ms.

    It tracks the host's speed: on the shared 2-CPU host the baseline was
    taken on, pass times of lab and scan follow it with correlation 0.95
    to 0.98.  Arrays stay below the allocator's mmap threshold, so the
    figure does not depend on what the process allocated before.
    """
    t0 = time.perf_counter()
    for _ in range(40):
        float((_PROBE_A @ _PROBE_A).sum() + np.exp(np.sort(_PROBE_V)).sum())
    s = 0
    for k in range(20_000):
        s += k * k % 7
    return time.perf_counter() - t0


def calibration_s(repeats: int = 7) -> float:
    """Median speed probe after one warm-up; recorded before and after a run."""
    times = [speed_probe() for _ in range(repeats + 1)]
    return statistics.median(times[1:])


# ---------------------------------------------------------------- setup --

def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Cold interpreter to tmcat imported and inputs built: (wall, import) s."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          cwd=ROOT, env=clirun.child_env(ROOT), capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return wall, float(proc.stdout.split()[-1])


def scipy_optimize_import_s() -> float:
    """Cumulative ``scipy.optimize`` import time inside ``import tmcat``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tmcat"],
                          cwd=ROOT, env=clirun.child_env(ROOT), capture_output=True, text=True,
                          timeout=120)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "scipy.optimize":
            return int(fields[1]) / 1e6
    return 0.0


# ----------------------------------------------------------------- jobs --

class InProcessJobs:
    """lab or scan: job bodies called in this process."""

    scaled = True

    def __init__(self, workload: str, seed: int, sizes: wl.Sizes, workdir: Path,
                 reference: dict):
        import tmcat
        import tmcat.fileio  # noqa: F401  (lab calls tmcat.fileio.*)

        self.tm = tmcat
        self.sizes = sizes
        self.workdir = workdir
        self.inputs = wl.inputs(workload, seed, sizes)
        self.labels = [f"{workload}[{i}]" for i in range(len(self.inputs))]
        if workload == "lab":
            self.body, self.checker = wl.lab_job, wl.check_lab
        else:
            self.body, self.checker = wl.scan_job, wl.check_scan
        # recorded protocol counts, keyed by the job's exact inputs
        self.expected = {tuple(k): tuple(v) for k, v in reference.get(workload, [])}

    def key(self, i: int) -> tuple:
        d = self.inputs[i]
        return (d.T, d.phi, d.alpha, d.seed, self.sizes.scan_rounds)

    def run(self, i: int, tracer):
        return self.body(self.tm, self.inputs[i], self.sizes, self.workdir, i)

    def check(self, i: int, out) -> tuple[list[str], tuple]:
        problems, fingerprint = self.checker(self.inputs[i], out)
        want = self.expected.get(self.key(i))
        if want is not None and tuple(out["counts"]) != want:
            problems.append(f"protocol counts {out['counts']} differ from recorded {want}")
        return problems, fingerprint

    def tracing(self, tracer):
        return spans.installed(tracer)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliJobs:
    """cli: one cold subprocess per command."""

    # A probe in this process does not track the child's speed: over one
    # run, wigner's time and the probe after it correlated at -0.95,
    # likely through what the child leaves behind (writeback of 100 MB of
    # CSV).  So cli times, set-up included, stay unscaled.
    scaled = False

    def __init__(self, seed: int, sizes: wl.Sizes, workdir: Path, reference: dict):
        self.inputs = wl.inputs("cli", seed, sizes)
        self.labels = [c.name for c in self.inputs]
        self.workdir = workdir
        self.reference = reference
        self.env = clirun.child_env(ROOT)
        self.rss: list[float] = []
        self._expected = None
        self._checked: dict[tuple, list[str]] = {}

    def run(self, i: int, tracer):
        return clirun.run_command(self.inputs[i], self.workdir, self.env, tracer)

    def check(self, i: int, out) -> tuple[list[str], tuple]:
        cmd = self.inputs[i]
        if out["code"] != 0:
            tail = Path(f"{out['log']}.stderr").read_text()[-300:].strip()
            return [f"exit code {out['code']}: {tail}"], ()
        self.rss.append(out["rss_mb"])
        files = clirun.artifact_files(out)
        digests = clirun.digests(files)
        fingerprint = tuple(sorted(digests.items()))
        if (i, fingerprint) not in self._checked:
            if self._expected is None:
                self._expected = clirun.library_counts(self.inputs)
            problems = clirun.semantic_problems(cmd, files, self._expected)
            problems += clirun.reference_problems(cmd, files, self.reference) or []
            self._checked[(i, fingerprint)] = problems
        return list(self._checked[(i, fingerprint)]), fingerprint

    def tracing(self, tracer):
        return contextlib.nullcontext()

    def peak_rss_mb(self) -> float:
        return max(self.rss, default=0.0)


def make_jobs(workload: str, seed: int, sizes: wl.Sizes, workdir: Path, reference: dict):
    if workload == "cli":
        return CliJobs(seed, sizes, workdir, reference)
    return InProcessJobs(workload, seed, sizes, workdir, reference)


# --------------------------------------------------------------- passes --

def run_passes(jobs, seconds: float, trace: bool, probe) -> dict:
    """Closed-loop passes over the job list until ``seconds`` have elapsed.

    An untraced run makes at least MIN_PASSES passes, so that every job's
    median time has repeats behind it and its outputs are compared between
    passes; a traced run makes at least MIN_TRACED_PASSES traced passes,
    each after an untraced one.

    When ``jobs.scaled``, each untraced job also gets a time scaled to the
    reference host speed: its time times PROBE_REF_S over the mean of the
    speed probes just before and just after it.  The probes run outside
    the timed region.  ``probe()`` runs SETUP_REPEATS times, spread evenly
    over the run between jobs, so that set-up is sampled under the same host
    conditions as jobs; when ``jobs.scaled``, set-up samples are scaled the
    same way.
    """
    start = time.perf_counter()
    deadline = start + seconds
    rec = {"plain": [], "traced": [], "job_s": [[] for _ in jobs.inputs],
           "job_scaled_s": [[] for _ in jobs.inputs], "probes": [],
           "problems": [], "attempted": 0, "failed": 0, "spans": []}
    first: dict[int, tuple] = {}
    run_tracer = spans.Tracer() if trace else None

    def sample_setup(before):
        if not jobs.scaled:
            rec["probes"].append((*probe(), 1.0))
            return None
        before = speed_probe() if before is None else before
        wall, imported = probe()
        after = speed_probe()
        rec["probes"].append((wall, imported, 2.0 * PROBE_REF_S / (before + after)))
        return after

    while True:
        traced = trace and len(rec["traced"]) < len(rec["plain"])
        tracer = run_tracer if traced else None
        wall = 0.0
        before = None  # speed probe that ended just before the next job
        with jobs.tracing(tracer) if traced else contextlib.nullcontext():
            for i in range(len(jobs.inputs)):
                due = start + seconds * len(rec["probes"]) / SETUP_REPEATS
                if len(rec["probes"]) < SETUP_REPEATS and time.perf_counter() >= due:
                    before = sample_setup(before)
                if jobs.scaled and not traced and before is None:
                    before = speed_probe()
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.job = len(rec["traced"]) * len(jobs.inputs) + i
                    root = tracer.open("bench", jobs.labels[i], start=t0)
                error = None
                try:
                    out = jobs.run(i, tracer)
                except Exception as exc:  # a failed job is counted, the run goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.close(root, error=error is not None, end=t1)
                wall += t1 - t0
                if not traced:
                    rec["job_s"][i].append(t1 - t0)
                if jobs.scaled and not traced:
                    after = speed_probe()
                    rec["job_scaled_s"][i].append(
                        (t1 - t0) * 2.0 * PROBE_REF_S / (before + after))
                    before = after
                else:
                    before = None
                if error is None:
                    try:
                        problems, fingerprint = jobs.check(i, out)
                    except Exception as exc:
                        problems, fingerprint = [f"check raised {type(exc).__name__}: {exc}"], ()
                    if i in first and fingerprint != first[i]:
                        problems.append("output differs from the first pass of this run")
                    first.setdefault(i, fingerprint)
                else:
                    problems = [error]
                rec["attempted"] += 1
                if problems:
                    rec["failed"] += 1
                    rec["problems"].append({"job": jobs.labels[i], "traced": traced,
                                            "problems": problems})
        (rec["traced"] if traced else rec["plain"]).append(wall)
        enough = (len(rec["traced"]) >= MIN_TRACED_PASSES if trace
                  else len(rec["plain"]) >= MIN_PASSES)
        if time.perf_counter() >= deadline and enough:
            while len(rec["probes"]) < SETUP_REPEATS:
                sample_setup(None)
            rec["spans"] = run_tracer.spans if trace else []
            return rec


def _decile(values: list[float], q: int) -> float:
    """q-th decile (q=5 is the median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: wl.Sizes = wl.FULL, reference: dict | None = None) -> dict:
    """Measure one workload; returns metrics plus everything behind them.

    A job's time in the run is its median over the run's untraced passes,
    scaled to the reference host speed where the jobs allow it; wall_s sums
    these over the job list and the job percentiles are taken across them.
    Set-up time is the median probe.
    """
    if reference is None:
        reference = clirun.load_reference()
    workdir = ROOT / ".perfbench" / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    calibration_before = calibration_s()
    jobs = make_jobs(workload, seed, sizes, workdir, reference)
    rec = run_passes(jobs, seconds, trace, lambda: setup_probe(workload, seed))
    calibration_after = calibration_s()
    setup = [w * scale for w, _, scale in rec["probes"]]
    unscaled = [statistics.median(times) for times in rec["job_s"]]
    typical = ([statistics.median(times) for times in rec["job_scaled_s"]] if jobs.scaled
               else unscaled)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "setup_probes": [{"wall_s": w, "import_tmcat_s": i, "scale": f}
                         for w, i, f in rec["probes"]],
        "passes": {"untraced_s": rec["plain"], "traced_s": rec["traced"]},
        "job_s": dict(zip(jobs.labels, rec["job_s"])),
        "job_scaled_s": dict(zip(jobs.labels, rec["job_scaled_s"])) if jobs.scaled else None,
        "unscaled_wall_s": sum(unscaled),
        "attempted": rec["attempted"], "failed": rec["failed"], "problems": rec["problems"],
        "job_samples": len(typical),
    }
    if workload == "cli":
        result["command_median_s"] = dict(zip(jobs.labels, typical))
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(typical),
            "job_p50_ms": 1e3 * _decile(typical, 5),
            "job_p90_ms": 1e3 * _decile(typical, 9),
            "peak_rss_mb": jobs.peak_rss_mb(),
        }
        return result
    layers = spans.layer_metrics(rec["spans"], len(rec["traced"]))
    own = spans.self_times(rec["spans"])
    # Layer figures are means over the traced passes, so wall and overhead
    # are means too.  The first untraced pass pays first-call costs (lazy
    # imports, caches) that the traced passes after it do not; it is left
    # out of the overhead when there are others.
    traced_wall = statistics.fmean(rec["traced"])
    warm = rec["plain"][1:] or rec["plain"]
    if workload != "cli":
        # in-process workloads set up once per process, outside the pass
        layers["setup.self_s"] = statistics.median(setup)
    layers.update({
        "setup.import_tmcat_s": statistics.median(i for _, i, _ in rec["probes"]),
        "setup.import_scipy_optimize_s": scipy_optimize_import_s(),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(warm),
        "trace.unattributed_s": sum(own[s[spans.ID]] for s in rec["spans"]
                                    if s[spans.LAYER] == "bench") / len(rec["traced"]),
    })
    result["metrics"] = layers
    result["spans"] = rec["spans"]
    return result
