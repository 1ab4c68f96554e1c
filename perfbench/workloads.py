"""Seeded inputs for the three workloads and the job bodies of lab and scan.

Inputs are drawn from the workload seed with ``random.Random`` only, so the
program under test receives nothing but the generated parameters.  A job
body calls tmcat through module attributes (``tm.render_ccd``), which is
where the tracer's wrappers sit during a traced pass.  Each body returns
its outputs; the matching ``check_*`` function inspects them outside the
timed region and returns (problems, fingerprint).  The fingerprint must be
identical on every pass of a run.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHASE_GATE = 0.03 * math.pi  # acceptance criterion c10
KERNEL_GATE = 1e-9  # relative kernel-vs-analytic disagreement
WIGNER_FLOOR = -1.0 / math.pi
W0 = 0.12e-3  # the CLI's default beam waist (m)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, the self-tests shrink it."""

    lab_jobs: int = 16
    ccd_nx: int = 720
    ccd_ny: int = 480
    ccd_bits: int = 12
    kernel_points: int = 1000
    scan_jobs: int = 40
    scan_grid: int = 128
    moment_angles: int = 8
    sweep_points: int = 8
    scan_rounds: int = 10_000
    wigner_grid: int = 1024
    cli_rounds: int = 1_000_000
    figures: tuple[str, ...] = ("fig2", "fig5")


FULL = Sizes()


@dataclass(frozen=True)
class Draw:
    """One seeded qubit: vacuum weight, relative phase, amplitude, RNG seed."""

    T: float
    phi: float
    alpha: float
    seed: int

    @property
    def d(self) -> float:
        return self.alpha * math.sqrt(2.0) * W0


def draws(workload: str, seed: int, count: int) -> list[Draw]:
    rng = random.Random(f"tmcat-perfbench:{workload}:{seed}")
    return [
        Draw(T=rng.uniform(0.2, 0.8), phi=rng.uniform(-math.pi, math.pi),
             alpha=rng.uniform(0.6, 2.0), seed=rng.randrange(2**31))
        for _ in range(count)
    ]


def _phase_error(estimate: float, truth: float) -> float:
    return abs(math.remainder(estimate - truth, 2.0 * math.pi))


# ---------------------------------------------------------------- lab --

def lab_job(tm, draw: Draw, sizes: Sizes, workdir: Path, index: int) -> dict:
    """Render, store, reload, fit and propagate one seeded state."""
    frame = tm.LAB_FRAME
    params = tm.QubitParams(T=draw.T, phi=draw.phi, d=draw.d)
    state = tm.make_qubit_state(params, frame)
    config = tm.CcdConfig(nx=sizes.ccd_nx, ny=sizes.ccd_ny, bit_depth=sizes.ccd_bits,
                          seed=draw.seed)
    out = {"files": [], "roundtrip_ok": True}
    profiles = {}
    for plane in (tm.position_plane(), tm.momentum_plane()):
        image = tm.render_ccd(state, plane, config, frame)
        path = workdir / f"lab{index}_{plane.kind}.pgm"
        tm.fileio.write_pgm(path, image.counts, config.max_count)
        counts, max_value = tm.fileio.read_pgm(path)
        out["roundtrip_ok"] &= max_value == config.max_count and np.array_equal(
            counts, image.counts)
        loaded = tm.CcdImage(config=config, plane=plane, counts=counts,
                             exposure_scale=image.exposure_scale, saturated=image.saturated)
        profiles[plane.kind] = tm.profile_from_image(loaded)
        out["files"].append(path)
    out["fit"] = tm.fit_gaussian_profile(profiles["position"], config.pitch)
    out["phi_hat"] = tm.estimate_relative_phase(
        profiles["momentum"], d=draw.d, w0=frame.w0, T=draw.T, f=tm.LAB_FOCAL_LENGTH,
        wavelength=frame.wavelength, pitch=config.pitch)
    z = frame.z_r / 2.0
    width = tm.beam_params_at(frame, z).width
    x_in = np.linspace(-7.0 * frame.w0, draw.d + 7.0 * frame.w0, sizes.kernel_points)
    x_out = np.linspace(-6.0 * width, draw.d + 6.0 * width, sizes.kernel_points)
    kernel = tm.propagate_kernel(state.x_wavefunction(x_in), x_in, x_out, z, frame)
    analytic = tm.propagate_analytic(state, z).field(x_out)
    out["kernel_error"] = float(np.max(np.abs(kernel - analytic)) / np.max(np.abs(analytic)))
    return out


def check_lab(draw: Draw, out: dict) -> tuple[list[str], tuple]:
    problems = []
    if not out["roundtrip_ok"]:
        problems.append("PGM read back differs from the rendered counts")
    err = _phase_error(out["phi_hat"], draw.phi)
    if not err <= PHASE_GATE:
        problems.append(f"recovered phase off by {err / math.pi:.4f} pi (gate 0.03 pi)")
    if not out["fit"].radius_1e2 > 0.0:
        problems.append(f"Gaussian fit radius {out['fit'].radius_1e2!r}")
    if not out["kernel_error"] <= KERNEL_GATE:
        problems.append(f"kernel vs analytic propagation differ by {out['kernel_error']:.3e}")
    digests = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in out["files"])
    fit = out["fit"]
    fingerprint = digests + (out["phi_hat"], fit.center, fit.radius_1e2, out["kernel_error"])
    return problems, fingerprint


# --------------------------------------------------------------- scan --

def scan_job(tm, draw: Draw, sizes: Sizes, workdir: Path, index: int) -> dict:
    """One point of a library parameter scan; writes no files."""
    frame = tm.ModeFrame(w0=W0, wavelength=780e-9)
    angle = tm.OverlapAngle.from_alpha(draw.alpha)
    params = tm.QubitParams(T=draw.T, phi=draw.phi, d=draw.d)
    state = tm.make_qubit_state(params, frame)
    back = tm.bloch_to_params(tm.params_to_bloch(params, angle), angle, frame)
    thetas = [k * math.pi / sizes.moment_angles for k in range(sizes.moment_angles)]
    moments = [tm.quadrature_moments(state, t) for t in thetas]
    wmap = tm.wigner_map(state, n=sizes.scan_grid)
    negativity = tm.negativity_scan(state, n=sizes.scan_grid)
    path = [(draw.T, draw.phi + 2.0 * math.pi * k / sizes.sweep_points)
            for k in range(sizes.sweep_points)]
    sweep = tm.profile_sweep(path, draw.d, frame)
    bases = [tm.build_basis(s, angle, frame) for s in ("four_cat", "twelve_state")]
    channel = tm.ChannelModel(rotation_jitter_sigma=0.05 * math.pi,
                              additive_overlap_noise_sigma=0.1, seed=draw.seed)
    psk = tm.psk_link_simulate(sizes.scan_rounds, bases[1], channel, seed=draw.seed)
    qkd = tm.qkd_simulate(sizes.scan_rounds, angle, 20e-6, tm.FiberSpec(period_length=1e-3),
                          seed=draw.seed)
    return {"back": back, "moments": moments, "integral": wmap.integral(),
            "w_min": wmap.min_value(), "negativity": negativity, "sweep": sweep,
            "grams": [b.gram for b in bases], "counts": (psk.errors, qkd.sifted, qkd.errors)}


def check_scan(draw: Draw, out: dict) -> tuple[list[str], tuple]:
    problems = []
    back = out["back"]
    if abs(back.T - draw.T) > 1e-9 or _phase_error(back.phi, draw.phi) > 1e-9:
        problems.append(f"Bloch round trip gave T={back.T!r}, phi={back.phi!r}")
    half = len(out["moments"]) // 2
    for (_, v1), (_, v2) in zip(out["moments"][:half], out["moments"][half:]):
        if not v1 * v2 >= 0.25 * (1.0 - 1e-9):
            problems.append(f"quadrature variances {v1!r} x {v2!r} break Heisenberg")
    if not abs(out["integral"] - 1.0) <= 1e-6:
        problems.append(f"Wigner map integrates to {out['integral']!r}")
    w_min, _, neg = out["negativity"]
    if not (out["w_min"] >= WIGNER_FLOOR and w_min >= WIGNER_FLOOR and neg >= 0.0):
        problems.append(f"Wigner minimum {min(w_min, out['w_min'])!r} below -1/pi")
    if not all(math.isfinite(p.delta_x) and p.delta_x > 0.0 for p in out["sweep"]):
        problems.append("profile sweep gave a non-positive width")
    for gram in out["grams"]:
        if np.max(np.abs(gram - gram.conj().T)) > 1e-12 or \
                np.max(np.abs(np.diag(gram) - 1.0)) > 1e-12:
            problems.append("Gram matrix is not Hermitian with unit diagonal")
    fingerprint = (out["integral"], out["w_min"], w_min, neg, out["counts"],
                   tuple(m for pair in out["moments"] for m in pair),
                   tuple(p.center_intensity for p in out["sweep"]))
    return problems, fingerprint


# ---------------------------------------------------------------- cli --

@dataclass(frozen=True)
class Command:
    """One cold CLI invocation, run in the directory named after it."""

    name: str
    argv: tuple[str, ...]
    phi: float | None = None  # the true phase behind a phase fit


def cli_commands(seed: int, sizes: Sizes) -> list[Command]:
    """The headline commands; state-dependent ones take seeded parameters."""
    qubit, protocol = draws("cli", seed, 2)
    state = ("--alpha", repr(qubit.alpha), "--T", repr(qubit.T), "--phi", repr(qubit.phi))
    commands = [
        Command("state", ("state",) + state),
        Command("wigner", ("wigner",) + state + ("--grid", str(sizes.wigner_grid), "--pgm")),
        *(Command(fig, ("reproduce", fig)) for fig in sizes.figures),
        Command("ccd", ("ccd",) + state + (
            "--plane", "momentum", "--nx", str(sizes.ccd_nx), "--ny", str(sizes.ccd_ny),
            "--bits", str(sizes.ccd_bits), "--seed", str(qubit.seed))),
        Command("fit", ("fit", "--image", "../ccd/ccd.pgm", "--mode", "phase",
                        "--T", repr(qubit.T), "--d", repr(qubit.d)), qubit.phi),
        Command("mdm", ("mdm", "--alpha", repr(protocol.alpha), "--n", str(sizes.cli_rounds),
                        "--scheme", "twelve_state", "--sigma-theta", "0.05pi",
                        "--sigma-add", "0.1", "--seed", str(protocol.seed))),
        Command("qkd", ("qkd", "--alpha", repr(protocol.alpha), "--n", str(sizes.cli_rounds),
                        "--sigma-z", "20um", "--seed", str(protocol.seed))),
    ]
    return commands


def inputs(workload: str, seed: int, sizes: Sizes) -> list:
    """The job list of one workload: cli commands or seeded states."""
    if workload == "cli":
        return cli_commands(seed, sizes)
    return draws(workload, seed, sizes.lab_jobs if workload == "lab" else sizes.scan_jobs)
