"""Release acceptance gate: thirteen end-to-end criteria.

Each test prints one verdict line, `[criterion NN] name: PASS/FAIL | ...`,
carrying the measured values and the wall time against its budget; run
pytest with -s (or read the captured output of failures) to see them all.

Criterion 07 checks the squeezing suite at d = w0 and at theta_d = 0.4 pi.
Only the even cat squeezes: its Var(P) lies below the vacuum variance 1/2
and equals the closed form 1/2 - (alpha^2/2)(1 - tanh(alpha^2/2)).  The
Bloch poles |x+-> and the equator pair |p+-> are equal-weight superpositions
of the normalized even and odd cats, with a real or an imaginary relative
amplitude.  For them the cat second moments and the squared cross term
<e|X|o>^2 cancel exactly, so the probed variance (X for the poles, P for the
pair) is 1/2 and the smallest eigenvalue of the quadrature covariance is
1/2: their distributions are reshaped, not narrowed.  These equalities are
asserted to 1e-12, far from both the ~1e-15 rounding of the moment oracle
and any change to the states themselves.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tmcat
from tmcat import (
    HBAR,
    LAB_FOCAL_LENGTH,
    TYPICAL_KINDS,
    BlochVector,
    CcdConfig,
    FiberSpec,
    LensSystem,
    OverlapAngle,
    PhaseSpaceGrid,
    QubitParams,
    beam_params_at,
    bloch_to_params,
    build_basis,
    estimate_relative_phase,
    fit_gaussian_profile,
    focal_waist,
    inner_product,
    kernel_step,
    make_qubit_state,
    make_typical_state,
    momentum_plane,
    params_to_bloch,
    profile_from_image,
    propagate_kernel,
    qkd_simulate,
    quadrature_moments,
    render_ccd,
    signed_phase,
    wigner_map,
    wigner_of_state,
)

from oracles import marginal_momentum, marginal_position, wigner_chord_quadrature


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def test_c01_rayleigh_range(frame):
    beam_params_at(frame, 0.0)  # warm up
    t0 = time.perf_counter()
    z_r = frame.z_r
    dt = time.perf_counter() - t0
    dev = abs(z_r - 0.060) / 0.060
    ok = abs(z_r * 1e3 - 58.0) < 0.05 and dev <= 0.05 and dt < 1e-3
    _verdict(
        1,
        "rayleigh_range",
        ok,
        f"z_R = {z_r * 1e3:.4f} mm, {dev * 100:.2f}% from the rounded 60 mm, "
        f"{dt * 1e6:.1f} us (budget 1 ms)",
    )


def test_c02_overlap_angle():
    OverlapAngle.from_alpha(1.1)  # warm up
    t0 = time.perf_counter()
    theta = OverlapAngle.from_alpha(1.1).theta_d
    dt = time.perf_counter() - t0
    frac = theta / math.pi
    ok = abs(frac - 0.4036) < 5e-5 and abs(frac - 0.40) <= 0.01 and dt < 1e-3
    _verdict(
        2,
        "overlap_angle",
        ok,
        f"theta_d = {frac:.6f} pi at alpha = 1.1 (within 0.01 pi of 0.40 pi), "
        f"{dt * 1e6:.1f} us (budget 1 ms)",
    )


def test_c03_focal_spot_width(frame, angle_bench):
    t0 = time.perf_counter()
    params, _ = make_typical_state("vac", angle_bench, frame)
    config = CcdConfig(nx=720, ny=480, pitch=6.5e-6, bit_depth=8)
    image = render_ccd(params, momentum_plane(), config, frame)
    fit = fit_gaussian_profile(profile_from_image(image), config.pitch)
    px = fit.radius_1e2 / config.pitch
    dt = time.perf_counter() - t0
    predicted = focal_waist(frame, LAB_FOCAL_LENGTH) / config.pitch
    ok = abs(px - 46.0) <= 1.0 and dt < 1.0
    _verdict(
        3,
        "focal_spot_width",
        ok,
        f"fitted 1/e^2 half-width {px:.2f} px at f = 145 mm "
        f"(closed form {predicted:.3f} px), {dt:.2f} s (budget 1 s)",
    )


def test_c04_wigner_normalization(frame, angle_w0):
    t0 = time.perf_counter()
    worst = 0.0
    for kind in TYPICAL_KINDS:
        _, state = make_typical_state(kind, angle_w0, frame)
        integral = wigner_map(state, n=256).integral()
        worst = max(worst, abs(integral - 1.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 30.0
    _verdict(
        4,
        "wigner_normalization",
        ok,
        f"eight auto-sized 256x256 maps at d = w0, max |integral - 1| = "
        f"{worst:.2e}, {dt:.2f} s (budget 30 s)",
    )


def test_c05_odd_cat_negativity(frame, angle_w0):
    t0 = time.perf_counter()
    params, state = make_typical_state("cat_minus", angle_w0, frame)
    floor = -1.0 / (math.pi * HBAR)
    mid = params.d / 2.0
    closed = float(wigner_of_state(state, np.array([mid]), np.array([0.0]))[0, 0])
    h = 0.05 * frame.w0
    hp = 0.05 * HBAR / frame.w0
    grid = PhaseSpaceGrid(
        x_min=mid - h, x_max=mid + h, nx=3, p_min=-hp, p_max=hp, np_=3, si_units=True
    )
    numeric = float(wigner_chord_quadrature(state, grid)[1, 1])
    dt = time.perf_counter() - t0
    rel_closed = abs(closed - floor) / abs(floor)
    rel_numeric = abs(numeric - floor) / abs(floor)
    ok = rel_closed <= 1e-6 and rel_numeric <= 1e-6 and dt < 10.0
    _verdict(
        5,
        "odd_cat_negativity",
        ok,
        f"W(d/2, 0) vs -1/(pi hbar): closed form off by {rel_closed:.2e}, "
        f"chord quadrature off by {rel_numeric:.2e}, {dt:.2f} s (budget 10 s)",
    )


def test_c06_marginal_consistency(frame):
    t0 = time.perf_counter()
    xs = np.linspace(-7.0, 8.5, 801)
    ps = np.linspace(-8.0, 8.0, 801)
    x_si = frame.x_scale * xs
    p_si = frame.p_scale * ps
    points = [
        (t, phi)
        for t in (0.15, 0.3, 0.5, 0.7, 0.85)
        for phi in (0.98 * math.pi, -0.72 * math.pi, 0.25 * math.pi)
    ]
    points.append((0.5, math.pi))
    worst = 0.0
    for t, phi in points:
        params = QubitParams(T=t, phi=phi, d=frame.w0)
        state = make_qubit_state(params, frame)
        w_nd = HBAR * wigner_of_state(state, x_si, p_si)
        pos_gap = np.abs(
            np.trapezoid(w_nd, ps, axis=1)
            - frame.x_scale * marginal_position(params, frame, x_si)
        )
        mom_gap = np.abs(
            np.trapezoid(w_nd, xs, axis=0)
            - frame.p_scale * marginal_momentum(params, frame, p_si)
        )
        worst = max(worst, float(pos_gap.max()), float(mom_gap.max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 60.0
    _verdict(
        6,
        "marginal_consistency",
        ok,
        f"{len(points)} (T, phi) points, worst pointwise gap between "
        f"integrated map and closed-form marginals = {worst:.2e}, "
        f"{dt:.2f} s (budget 60 s)",
    )


SQL = 0.5  # vacuum variance in either quadrature: the standard quantum limit
# equalities at the SQL hold exactly; 1e-12 is far above the ~1e-15 rounding of
# the moment oracle and far below any change to a state's parameters
SQL_TOL = 1e-12

# quadrature-oracle variances per separation; the probed axis is X for the pole
# states and P for the others
GOLDEN_VARIANCES = {
    "d = w0": {
        "x_minus": ("X", 0.5),
        "x_plus": ("X", 0.5),
        "cat_plus": ("P", 0.31122966560092735),
        "p_minus": ("P", 0.5),
        "p_plus": ("P", 0.5),
    },
    "theta_d = 0.4pi": {
        "x_minus": ("X", 0.5),
        "x_plus": ("X", 0.5),
        "cat_plus": ("P", 0.22277144468472893),
        "p_minus": ("P", 0.5),
        "p_plus": ("P", 0.5),
    },
}


def _even_cat_var_p(angle: OverlapAngle) -> float:
    """Closed-form Var(P) of the even cat: 1/2 - (alpha^2/2)(1 - tanh(alpha^2/2))."""
    a2 = angle.alpha**2
    return SQL - 0.5 * a2 * (1.0 - math.tanh(0.5 * a2))


def _min_covariance_eigenvalue(state) -> float:
    """Smallest eigenvalue of the (X, P) covariance, from Var at 0, pi/4, pi/2."""
    var_x, var_d, var_p = (
        quadrature_moments(state, theta)[1] for theta in (0.0, math.pi / 4.0, math.pi / 2.0)
    )
    cov = var_d - 0.5 * (var_x + var_p)
    return float(np.linalg.eigvalsh([[var_x, cov], [cov, var_p]])[0])


def test_c07_squeezing_suite(frame, angle_w0, angle_bench):
    t0 = time.perf_counter()
    ok = True
    parts = []
    for label, angle in (("d = w0", angle_w0), ("theta_d = 0.4pi", angle_bench)):
        for kind, (axis, golden) in GOLDEN_VARIANCES[label].items():
            _, state = make_typical_state(kind, angle, frame)
            theta_l = 0.0 if axis == "X" else math.pi / 2.0
            var = quadrature_moments(state, theta_l)[1]
            ok = ok and var == pytest.approx(golden, rel=1e-12)
            if kind == "cat_plus":
                closed = _even_cat_var_p(angle)
                ok = ok and var < SQL and var == pytest.approx(closed, rel=1e-12)
                parts.append(
                    f"{label} {kind} Var(P) = {var:.17g} "
                    f"({'<' if var < SQL else 'not <'} 1/2, closed form {closed:.17g})"
                )
            else:
                lam = _min_covariance_eigenvalue(state)
                ok = ok and abs(var - SQL) <= SQL_TOL and lam >= SQL - SQL_TOL
                parts.append(
                    f"{label} {kind} Var({axis}) = {var:.17g} "
                    f"(|Var - 1/2| = {abs(var - SQL):.1e}), min eigenvalue {lam:.17g}"
                )
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _verdict(7, "squeezing_suite", ok, "; ".join(parts) + f", {dt:.2f} s (budget 5 s)")


def _sphere_points(n: int) -> np.ndarray:
    """Fibonacci lattice on the unit sphere; avoids the exact poles."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def test_c08_bloch_round_trip(frame):
    t0 = time.perf_counter()
    pts = _sphere_points(800)
    worst = 0.0
    for theta_frac in (0.25, 0.40, 0.45):
        angle = OverlapAngle.from_theta(theta_frac * math.pi)
        for v in pts:
            params = bloch_to_params(
                BlochVector(xq=v[0], yq=v[1], zq=v[2]), angle, frame
            )
            back = params_to_bloch(params, angle).as_array()
            worst = max(worst, float(np.max(np.abs(back - v))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _verdict(
        8,
        "bloch_round_trip",
        ok,
        f"800-point sphere at theta_d/pi in (0.25, 0.40, 0.45), worst "
        f"component gap = {worst:.2e}, {dt:.2f} s (budget 5 s)",
    )


def test_c09_propagation_oracle(frame, angle_w0):
    t0 = time.perf_counter()
    _, vac = make_typical_state("vac", angle_w0, frame)
    worst_width = 0.0
    for zf in (0.5, 1.0, 3.0):
        z = zf * frame.z_r
        span = 14.0 * frame.w0
        x_in = np.arange(-span / 2.0, span / 2.0, kernel_step(frame, z, span))
        width = beam_params_at(frame, z).width
        x_out = np.linspace(-5.0 * width, 5.0 * width, 2001)
        psi = propagate_kernel(vac.x_wavefunction(x_in), x_in, x_out, z, frame)
        weight = np.abs(psi) ** 2
        norm = np.trapezoid(weight, x_out)
        mean = np.trapezoid(x_out * weight, x_out) / norm
        var = np.trapezoid((x_out - mean) ** 2 * weight, x_out) / norm
        # 1/e^2 intensity radius of a Gaussian is twice its RMS width
        worst_width = max(worst_width, abs(2.0 * math.sqrt(var) - width) / width)
    worst_lens = 0.0
    for theta_frac in (1.0 / 6.0, 1.0 / 3.0, 0.5):
        theta = theta_frac * math.pi
        r = LensSystem(f=0.145, theta_l=theta).rotation_matrix()
        expect = np.array(
            [
                [math.cos(theta), math.sin(theta)],
                [-math.sin(theta), math.cos(theta)],
            ]
        )
        got = np.array([[r.a, r.b], [r.c, r.d]])
        worst_lens = max(worst_lens, float(np.max(np.abs(got - expect))))
    dt = time.perf_counter() - t0
    ok = worst_width <= 1e-3 and worst_lens <= 1e-12 and dt < 60.0
    _verdict(
        9,
        "propagation_oracle",
        ok,
        f"kernel vacuum width off by <= {worst_width:.2e} at z/z_R in "
        f"(0.5, 1, 3), lens relay vs rotation matrix <= {worst_lens:.2e}, "
        f"{dt:.2f} s (budget 60 s)",
    )


def test_c10_phase_recovery(frame, angle_bench):
    t0 = time.perf_counter()
    d = angle_bench.displacement(frame.w0)
    errors = {}
    for phi in (0.98 * math.pi, -0.18 * math.pi, -0.72 * math.pi, 0.57 * math.pi):
        params = QubitParams(T=0.5, phi=phi, d=d)
        config = CcdConfig(nx=720, ny=480, pitch=6.5e-6, bit_depth=8, visibility=0.97)
        image = render_ccd(params, momentum_plane(), config, frame)
        est = estimate_relative_phase(
            profile_from_image(image), d=d, w0=frame.w0, T=0.5, f=LAB_FOCAL_LENGTH
        )
        errors[phi] = abs(signed_phase(est - phi))
    dt = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst <= 0.03 * math.pi and dt < 30.0
    detail = ", ".join(
        f"{phi / math.pi:+.2f} pi off by {err / math.pi:.4f} pi"
        for phi, err in errors.items()
    )
    _verdict(10, "phase_recovery", ok, detail + f", {dt:.2f} s (budget 30 s)")


def test_c11_orthogonality(frame, angle_bench, angle_far):
    t0 = time.perf_counter()
    states = {
        kind: make_typical_state(kind, angle_bench, frame)[1]
        for kind in ("x_minus", "x_plus", "p_minus", "p_plus")
    }
    xx = abs(inner_product(states["x_minus"], states["x_plus"]))
    pp = abs(inner_product(states["p_minus"], states["p_plus"]))
    xp = abs(
        abs(inner_product(states["x_minus"], states["p_minus"]))
        - 1.0 / math.sqrt(2.0)
    )
    gram = build_basis("four_cat", angle_far, frame).gram
    gram_gap = float(np.max(np.abs(gram - np.eye(4))))
    dt = time.perf_counter() - t0
    ok = xx <= 1e-12 and pp <= 1e-12 and xp <= 1e-12 and gram_gap <= 1e-12 and dt < 1.0
    _verdict(
        11,
        "orthogonality",
        ok,
        f"|<x-|x+>| = {xx:.1e}, |<p-|p+>| = {pp:.1e}, "
        f"||<x-|p->| - 1/sqrt(2)| = {xp:.1e}, four-cat Gram vs identity = "
        f"{gram_gap:.1e} at d = 12 w0, {dt:.3f} s (budget 1 s)",
    )


def test_c12_qkd_suite(angle_bench):
    t0 = time.perf_counter()
    fiber = FiberSpec(period_length=1e-3)
    clean = qkd_simulate(100000, angle_bench, 0.0, fiber, seed=42)
    small = qkd_simulate(100000, angle_bench, 780e-9, fiber, seed=42)
    heavy = qkd_simulate(100000, angle_bench, 10.0 * fiber.period_length, fiber, seed=42)
    spread = 3.0 * math.sqrt(0.25 / heavy.sifted)
    dt = time.perf_counter() - t0
    ok = (
        clean.qber == 0.0
        and small.qber < 0.001
        and abs(heavy.qber - 0.5) <= spread
        and dt < 60.0
    )
    _verdict(
        12,
        "qkd_suite",
        ok,
        f"QBER {clean.qber:.6f} at sigma_z = 0, {small.qber:.6f} at 780 nm, "
        f"{heavy.qber:.4f} at 10x the period (window 0.5 +/- {spread:.4f}), "
        f"{dt:.2f} s (budget 60 s)",
    )


def test_c13_reproduce_determinism(tmp_path):
    t0 = time.perf_counter()
    total = 0
    mismatched = []
    # the children import the package under test, wherever pytest found it
    env = dict(os.environ, PYTHONPATH=str(Path(tmcat.__file__).parents[1]))
    for fig in ("fig2", "fig4", "fig5"):
        outdir = tmp_path / fig
        cmd = [sys.executable, "-m", "tmcat", "reproduce", fig, "--outdir", str(outdir)]
        first = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        snapshot = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert snapshot, f"reproduce {fig} wrote nothing"
        second = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert second.returncode == 0, second.stderr
        again = {p.name: p.read_bytes() for p in outdir.iterdir()}
        total += len(snapshot)
        if snapshot != again:
            mismatched.append(fig)
    dt = time.perf_counter() - t0
    ok = not mismatched and dt < 120.0
    _verdict(
        13,
        "reproduce_determinism",
        ok,
        f"fig2/fig4/fig5 re-runs byte-identical across {total} artifacts"
        + (f" (mismatch in {', '.join(mismatched)})" if mismatched else "")
        + f", {dt:.2f} s (budget 120 s)",
    )
