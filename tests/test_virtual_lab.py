"""Sensor bench: rendering, profile analysis, phase recovery, figure panels."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmcat import (
    CcdConfig,
    CcdImage,
    CoherentTerm,
    FitError,
    LAB_FOCAL_LENGTH,
    LAB_FRAME,
    OverlapAngle,
    QubitParams,
    SuperpositionState,
    ValidationError,
    estimate_relative_phase,
    fit_gaussian_profile,
    focal_waist,
    make_qubit_state,
    make_typical_state,
    momentum_plane,
    position_plane,
    profile_from_image,
    render_ccd,
    rotate_phase_space,
    scenario_reports,
)
from tmcat.states import gaussian_mode_1d
from tmcat.virtual_lab import _POISSON_MEAN_MAX, _intensity_2d, _shot_noise

import dispatch
from oracles import (
    gaussian_fit_trf,
    marginal_position,
    profile_float_sums,
    render_ccd_float_tail,
    render_ccd_strided,
)
from strategies import BENCH_FRAME, superpositions

PITCH = 6.5e-6
EPS = float(np.finfo(float).eps)


def small_config(**overrides) -> CcdConfig:
    base = dict(nx=240, ny=160, pitch=PITCH, bit_depth=8)
    base.update(overrides)
    return CcdConfig(**base)


def profile_centroid_px(profile: np.ndarray) -> float:
    idx = np.arange(profile.size, dtype=float)
    return float(np.sum(idx * profile))


def test_focal_waist_value(frame):
    # w_f = 2 f / (k w0) = 300.01 um = 46.155 px at 6.5 um pitch
    w_f = focal_waist(frame, LAB_FOCAL_LENGTH)
    assert w_f == pytest.approx(3.00008e-4, abs=1e-8)
    assert w_f / PITCH == pytest.approx(46.155, abs=1e-2)
    with pytest.raises(ValidationError):
        focal_waist(frame, 0.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(bit_depth=10)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"pixel pitch must be positive and finite, got {bad}"):
            small_config(pitch=bad)
    # the outermost pixel centre, (max(nx, ny) - 1) / 2 * pitch, must be finite
    with pytest.raises(ValidationError, match="pixel pitch 1e[+]308 puts the outer pixels"):
        CcdConfig(nx=32, ny=24, pitch=1e308)
    assert CcdConfig(nx=3, ny=2, pitch=1e308).column_positions()[-1] == 1e308
    with pytest.raises(ValidationError):
        small_config(visibility=1.2)
    with pytest.raises(ValidationError):
        small_config(background=-3)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            small_config(exposure_scale=bad)
    with pytest.raises(ValidationError):
        CcdConfig(nx=1, ny=8, pitch=PITCH, bit_depth=8)


def test_plane_tags():
    assert position_plane().kind == "position"
    assert momentum_plane().f == LAB_FOCAL_LENGTH
    with pytest.raises(ValidationError):
        momentum_plane(f=-0.1)


class TestRendering:
    def test_vacuum_momentum_width(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        config = CcdConfig(nx=720, ny=480, pitch=PITCH, bit_depth=8)
        image = render_ccd(params, momentum_plane(), config, frame)
        fit = fit_gaussian_profile(profile_from_image(image), PITCH)
        assert fit.radius_1e2 / PITCH == pytest.approx(46.155, abs=1.0)

    def test_vacuum_position_width(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        config = CcdConfig(nx=720, ny=480, pitch=PITCH, bit_depth=8)
        image = render_ccd(params, position_plane(), config, frame)
        fit = fit_gaussian_profile(profile_from_image(image), PITCH)
        # 1/e^2 radius w0 = 0.12 mm = 18.46 px
        assert fit.radius_1e2 / PITCH == pytest.approx(frame.w0 / PITCH, abs=0.5)

    def test_odd_cat_trough(self, frame, angle_bench):
        params, _ = make_typical_state("cat_minus", angle_bench, frame)
        config = CcdConfig(nx=720, ny=480, pitch=PITCH, bit_depth=8)
        image = render_ccd(params, position_plane(), config, frame)
        profile = profile_from_image(image)
        cols = config.column_positions()
        mid = int(np.argmin(np.abs(cols - params.d / 2.0)))
        # destructive node between the two lobes
        assert profile[mid] < 0.02 * profile.max()
        assert profile[mid - 30] > 0.2 * profile.max()

    def test_render_matches_marginal(self, frame, angle_bench):
        # quantization is the only distortion: profile vs theory within
        # 2/255 of the peak after normalizing both
        config = CcdConfig(nx=720, ny=480, pitch=PITCH, bit_depth=8)
        cols = config.column_positions()
        for kind in ("vac", "cat_plus", "cat_minus", "p_minus"):
            params, _ = make_typical_state(kind, angle_bench, frame)
            image = render_ccd(params, position_plane(), config, frame)
            profile = profile_from_image(image)
            theory = marginal_position(params, frame, cols)
            theory = theory / theory.sum()
            rms = math.sqrt(float(np.mean((profile - theory) ** 2)))
            assert rms <= 2.0 / 255.0 * float(theory.max()), kind

    def test_exposure_modes(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        auto = render_ccd(params, position_plane(), small_config(), frame)
        assert auto.counts.max() == 230  # 0.9 * 255 rounded
        assert not auto.saturated
        hot = render_ccd(
            params, position_plane(), small_config(exposure_scale=1e9), frame
        )
        assert hot.saturated
        assert hot.counts.max() == 255

    def test_all_saturated_rejected(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        with pytest.raises(ValidationError):
            render_ccd(
                params,
                position_plane(),
                small_config(background=255, exposure_scale=1e9),
                frame,
            )

    def test_shot_noise_is_seeded(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        a = render_ccd(params, position_plane(), small_config(seed=5), frame)
        b = render_ccd(params, position_plane(), small_config(seed=5), frame)
        c = render_ccd(params, position_plane(), small_config(seed=6), frame)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)
        clean = render_ccd(params, position_plane(), small_config(), frame)
        assert not np.array_equal(a.counts, clean.counts)

    def test_shot_noise_mean_limit(self, frame, angle_bench):
        # the refusal threshold is the sampler's own: its largest mean draws,
        # the next double up does not
        rng = np.random.Generator(np.random.Philox(0))
        assert rng.poisson(_POISSON_MEAN_MAX) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(_POISSON_MEAN_MAX, math.inf))
        params, _ = make_typical_state("vac", angle_bench, frame)
        for scale in (1e300, 1e12):
            config = small_config(nx=32, ny=24, seed=3, exposure_scale=scale)
            with pytest.raises(ValidationError, match="exposure scale"):
                render_ccd(params, position_plane(), config, frame)

    def test_partial_saturation_matches_float_tail(self, frame, angle_bench):
        _, state = make_typical_state("p_plus", angle_bench, frame)
        for seed in (None, 4):
            config = small_config(bit_depth=12, exposure_scale=8e-4, background=9, seed=seed)
            for plane in (position_plane(), momentum_plane()):
                image = render_ccd(state, plane, config, frame)
                counts, scale, saturated = render_ccd_float_tail(state, plane, config)
                full = np.mean(image.counts == config.max_count)
                assert image.saturated and saturated and 0.0 < full < 0.5
                assert np.array_equal(image.counts, counts) and image.exposure_scale == scale

    def test_counts_range_enforced(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        image = render_ccd(params, position_plane(), small_config(), frame)
        with pytest.raises(ValidationError):
            CcdImage(
                config=image.config,
                plane=image.plane,
                counts=image.counts.astype(np.uint16) + 300,
                exposure_scale=image.exposure_scale,
                saturated=False,
            )

    def test_counts_must_be_real_numbers(self):
        config = CcdConfig(nx=32, ny=8)
        nan_pixel = np.zeros((8, 32))
        nan_pixel[3, 4] = np.nan
        for counts in (nan_pixel, np.full((8, 32), np.nan), np.zeros((8, 32), complex)):
            with pytest.raises(ValidationError, match="counts"):
                CcdImage(config, position_plane(), counts, 1.0, False)
        for dtype in (np.uint16, np.int64, bool, float):
            CcdImage(config, position_plane(), np.ones((8, 32), dtype), 1.0, False)

    def test_sidecar_round_trip(self, frame, angle_bench):
        # the sidecar survives JSON and rebuilds the image, with the scale used
        params, _ = make_typical_state("p_plus", angle_bench, frame)
        for seed in (None, 7):
            config = small_config(nx=32, ny=24, bit_depth=12, background=3, seed=seed)
            for plane in (position_plane(), momentum_plane()):
                image = render_ccd(params, plane, config, frame)
                sidecar = json.loads(json.dumps(image.sidecar(frame)))
                assert set(sidecar) == {
                    "nx", "ny", "pitch", "bit_depth", "background", "exposure_scale",
                    "visibility", "seed", "saturated", "plane", "f", "w0", "wavelength",
                }
                assert (sidecar["w0"], sidecar["wavelength"]) == (frame.w0, frame.wavelength)
                back = CcdImage.from_sidecar(image.counts, config.max_count, sidecar)
                assert back.config == replace(config, exposure_scale=image.exposure_scale)
                assert back.plane == plane and back.counts is image.counts
                assert (back.exposure_scale, back.saturated) == (
                    image.exposure_scale, image.saturated
                )
                assert back.sidecar(frame) == sidecar


class TestProfiles:
    def test_background_subtraction(self, frame, angle_bench):
        params, _ = make_typical_state("vac", angle_bench, frame)
        plain = profile_from_image(
            render_ccd(params, position_plane(), small_config(), frame)
        )
        lifted = profile_from_image(
            render_ccd(params, position_plane(), small_config(background=17), frame)
        )
        assert lifted == pytest.approx(plain, abs=2e-3)
        assert plain.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fit_needs_signal(self):
        with pytest.raises(ValidationError):
            fit_gaussian_profile(np.zeros(64), PITCH)
        with pytest.raises(ValidationError):
            fit_gaussian_profile(np.array([0.0, 1.0, 0.0]), PITCH)
        beam = np.exp(-2.0 * ((np.arange(64) - 31.5) / 8.0) ** 2)
        refused = [(np.full(64, np.nan), PITCH), (-beam, PITCH), (np.outer(beam, beam), PITCH)]
        refused += [(beam, pitch) for pitch in (math.inf, math.nan, 0.0, -PITCH)]
        for profile, pitch in refused:
            with pytest.raises(ValidationError):
                fit_gaussian_profile(profile, pitch)
        # the best Gaussian for a flat profile has an infinite radius
        with pytest.raises(FitError, match="runs off to infinity"):
            fit_gaussian_profile(np.ones(64), PITCH)

    def test_gaussian_fit_roundtrip(self):
        # the fitter frames pixel i at (i - (n-1)/2) * pitch
        x = (np.arange(400) - 199.5) * PITCH
        center, radius = 3.2e-5, 2.9e-4
        profile = np.exp(-2.0 * (x - center) ** 2 / radius**2)
        profile /= profile.sum()
        fit = fit_gaussian_profile(profile, PITCH)
        assert fit.center == pytest.approx(center, abs=1e-7)
        assert fit.radius_1e2 == pytest.approx(radius, rel=1e-6)
        assert fit.rss < 1e-12


class TestPhaseEstimation:
    def render_profile(self, frame, angle, phi, visibility=0.97, bits=8):
        d = angle.displacement(frame.w0)
        params = QubitParams(T=0.5, phi=phi, d=d)
        config = CcdConfig(
            nx=720, ny=480, pitch=PITCH, bit_depth=bits, visibility=visibility
        )
        image = render_ccd(params, momentum_plane(), config, frame)
        return profile_from_image(image), d

    def estimate(self, frame, profile, d):
        return estimate_relative_phase(
            profile, d=d, w0=frame.w0, T=0.5, f=LAB_FOCAL_LENGTH
        )

    def test_calibration_sweep(self, frame, angle_bench):
        # injected phases on the pi/8 comb recovered within 0.03 pi
        errors = []
        for k in range(-7, 9):
            phi = k * math.pi / 8.0
            profile, d = self.render_profile(frame, angle_bench, phi)
            phi_hat = self.estimate(frame, profile, d)
            err = abs(
                math.remainder(phi_hat - phi, 2.0 * math.pi)
            )
            errors.append(err)
        assert max(errors) < 0.03 * math.pi
        assert float(np.mean(errors)) < 0.01 * math.pi

    def test_visibility_monotonicity(self, frame, angle_bench):
        # fringe contrast between the central peak and the first trough
        # grows with interferometer visibility (12-bit keeps the troughs
        # above the quantization floor)
        contrasts = []
        for vis in (0.8, 0.9, 0.97, 1.0):
            profile, d = self.render_profile(
                frame, angle_bench, 0.0, visibility=vis, bits=12
            )
            # trough at x' = pi f / (k d) right of the center pixel 359.5
            trough_px = math.pi * LAB_FOCAL_LENGTH / (frame.k * d) / PITCH
            lo = int(359.5 + trough_px) - 8
            peak = profile[348:372].max()
            trough = profile[lo : lo + 17].min()
            contrasts.append((peak - trough) / (peak + trough))
        assert all(b > a for a, b in zip(contrasts, contrasts[1:]))

    def test_flat_fringe_unidentifiable(self, frame, angle_bench):
        profile, d = self.render_profile(frame, angle_bench, 0.4, visibility=0.0)
        with pytest.raises(FitError):
            self.estimate(frame, profile, d)

    def test_argument_validation(self, frame):
        profile = np.full(64, 1.0 / 64.0)
        with pytest.raises(ValidationError):
            estimate_relative_phase(profile, d=1e-4, w0=frame.w0, T=1.0, f=0.145)
        with pytest.raises(ValidationError):
            estimate_relative_phase(profile, d=-1e-4, w0=frame.w0, T=0.5, f=0.145)
        with pytest.raises(ValidationError):
            estimate_relative_phase(profile, d=1e-4, w0=frame.w0, T=0.5, f=0.0)

    def test_fit_needs_signal(self, frame):
        fringe = np.exp(-2.0 * ((np.arange(720) - 359.5) / 46.0) ** 2)
        refused = [(np.zeros(720), PITCH), (np.full(720, np.nan), PITCH),
                   (-fringe, PITCH), (fringe, math.inf), (fringe, 0.0)]
        for profile, pitch in refused:
            with pytest.raises(ValidationError):
                estimate_relative_phase(
                    profile, d=1e-4, w0=frame.w0, T=0.5, f=0.145, pitch=pitch
                )


def _beam_profile(n, w, d, T, phi, place, offset, counts, seed):
    """(profile, truth) of one beam of 1/e^2 radius w pixels, or two at d.

    The profile is |sqrt(T) g(t - c) + e^{i phi} sqrt(1 - T) g(t - c - d)|^2
    for Gaussian fields g of waist w, peak 1, with both beams 2w inside the
    sensor (place in [0, 1] sets c), plus a flat offset, then Poisson counts
    at `counts` for the peak when counts is not None.  truth is (x0, r) in
    meters for a clean single beam, else None.
    """
    t = np.arange(n) - (n - 1) / 2.0
    span = n / 2.0 - 2.0 * w
    c = -span + place * (2.0 * span - d)
    g0, g1 = np.exp(-(((t - c) / w) ** 2)), np.exp(-(((t - c - d) / w) ** 2))
    root = math.sqrt(T * (1.0 - T))
    profile = T * g0**2 + (1.0 - T) * g1**2 + 2.0 * root * math.cos(phi) * g0 * g1
    profile = profile / profile.max() + offset
    if counts is not None:
        profile = np.random.default_rng(seed).poisson(profile * counts) / counts
    clean = d == 0.0 and offset == 0.0 and counts is None
    return profile, ((c * PITCH, w * PITCH) if clean else None)


@st.composite
def beam_profiles(draw):
    n = draw(st.integers(64, 720))
    w = draw(st.floats(4.0, n / 10.0))
    d = draw(st.one_of(st.just(0.0), st.floats(0.5 * w, 3.0 * w)))
    T = draw(st.floats(0.05, 0.95)) if d else 1.0
    return _beam_profile(
        n, w, d, T, draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, 1.0)),
        draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2))),
        draw(st.one_of(st.none(), st.floats(200.0, 4000.0))),
        draw(st.integers(0, 2**32 - 1)),
    )


@given(beam_profiles())
# a beam near the edge on an offset: the best fit puts x0 on the sensor
# edge, where the exact Hessian in r alone is indefinite
@example(_beam_profile(192, 8.0, 0.0, 1.0, 0.0, 0.0, 0.1875, None, 0))
# a narrow beam on an offset: the descent from the moments of the whole
# profile ends in a broad fit of five times the cost
@example(_beam_profile(268, 7.4, 0.0, 1.0, 0.0, 0.84, 0.07, None, 0))
def test_gaussian_fit_against_trf(case):
    """The fit costs no more than scipy's trust-region fit, ends at a
    stationary point, and returns a clean single beam."""
    profile, truth = case
    fit = fit_gaussian_profile(profile, PITCH)
    n = profile.size
    peak = float(profile.max())
    delta = 16.0 * EPS * peak  # the rounding of one residual
    x = (np.arange(n) - (n - 1) / 2.0) * PITCH
    u = (x - fit.center) / fit.radius_1e2
    e = np.exp(-2.0 * u**2)
    residual = fit.amplitude * e - profile
    floor = delta * (n * delta + 2.0 * float(np.abs(residual).sum()))  # ... of the cost
    assert fit.rss == pytest.approx(float(residual @ residual), rel=1e-9, abs=floor)
    try:
        reference = gaussian_fit_trf(profile, PITCH)
    except FitError:
        reference = None
    if reference is not None:
        assert fit.rss <= reference.rss * (1.0 + 1e-9) + floor
    if fit.amplitude > 0.0 and x[0] < fit.center < x[-1] and fit.radius_1e2 > PITCH / 4.0:
        # d rss / d(A, x0, r), scaled by (A, pitch, r)
        w = 2.0 * residual * e
        scaled = (
            fit.amplitude * w.sum(),
            4.0 * fit.amplitude * PITCH / fit.radius_1e2 * float(w @ u),
            4.0 * fit.amplitude * float(w @ u**2),
        )
        assert max(map(abs, scaled)) <= 1e-8 * fit.rss + 4.0 * n * delta * peak
    if truth is not None:
        assert fit.center == pytest.approx(truth[0], abs=1e-7)
        assert fit.radius_1e2 == pytest.approx(truth[1], rel=1e-6)
        assert fit.rss < 1e-12


_DISPATCH_CHILD = """
import json, sys
import numpy as np
from tmcat import fit_gaussian_profile
fits = [fit_gaussian_profile(p, float(sys.argv[2])) for p in np.load(sys.argv[1])]
print(json.dumps({"features": features, "fits": [[f.center, f.radius_1e2] for f in fits]}))
"""


def test_gaussian_fit_agrees_across_dispatch(tmp_path, frame):
    """The fit ends at a stationary point to rounding, so numpy's SIMD level
    and the BLAS kernel move x0 and r by no more than 1e-13 of r."""
    if not dispatch.switchable():
        pytest.skip(dispatch.SKIP_REASON)
    profiles = []
    for T, phi, alpha, seed in ((0.3, 2.2, 0.8, 11), (0.6, -0.9, 1.4, 12), (0.5, 0.4, 1.9, 13)):
        d = math.sqrt(2.0) * alpha * frame.w0
        state = make_qubit_state(QubitParams(T=T, phi=phi, d=d), frame)
        config = CcdConfig(nx=720, ny=480, pitch=PITCH, bit_depth=12, seed=seed)
        profiles.append(profile_from_image(render_ccd(state, position_plane(), config, frame)))
    np.save(tmp_path / "profiles.npy", np.stack(profiles))
    args = (str(tmp_path / "profiles.npy"), repr(PITCH))

    base = dispatch.run_child(_DISPATCH_CHILD, *args)
    assert base["features"] == [True, True]
    for settings, features in dispatch.REDUCED:
        result = dispatch.run_child(_DISPATCH_CHILD, *args, **settings)
        assert result["features"] == features
        for (x0, r), (x0_ref, r_ref) in zip(result["fits"], base["fits"]):
            assert abs(x0 - x0_ref) <= 1e-13 * r_ref
            assert abs(r - r_ref) <= 1e-13 * r_ref


def test_pzt_tilt_shifts_focal_spot(frame, angle_bench):
    # Im(alpha) = 0.0766 walks the focal centroid by sqrt(2) * 0.0766 *
    # 46.155 px = 5.0 px
    tilt = 0.0766
    params = QubitParams(T=0.0, phi=0.0, d=frame.w0)
    config = CcdConfig(nx=720, ny=480, pitch=PITCH, bit_depth=12)
    base = profile_from_image(
        render_ccd(make_qubit_state(params, frame), momentum_plane(), config, frame)
    )
    moved = profile_from_image(
        render_ccd(
            make_qubit_state(params, frame, tilt_alpha=tilt),
            momentum_plane(),
            config,
            frame,
        )
    )
    shift = profile_centroid_px(moved) - profile_centroid_px(base)
    assert shift == pytest.approx(5.0, abs=0.2)


class TestScenarioReports:
    def test_panel_inventory(self, frame):
        report = scenario_reports(frame=frame)
        assert [p.name for p in report["fig4"]] == [
            "fig4_vacuum_position",
            "fig4_vacuum_momentum",
            "fig4_coherent_position",
            "fig4_coherent_momentum",
        ]
        assert [p.name for p in report["fig5"]] == [
            "fig5_a1",
            "fig5_a2",
            "fig5_b1",
            "fig5_b2",
            "fig5_c1",
            "fig5_c2",
            "fig5_d1",
            "fig5_d2",
        ]
        kinds = [p.state_kind for p in report["fig5"][::2]]
        assert kinds == ["cat_minus", "cat_plus", "p_minus", "p_plus"]

    def test_densities_normalized(self, frame):
        report = scenario_reports(frame=frame)
        for panels in report.values():
            for panel in panels:
                total = float(np.trapezoid(panel.density, panel.axis))
                sql_total = float(np.trapezoid(panel.sql, panel.axis))
                assert total == pytest.approx(1.0, abs=1e-6), panel.name
                assert sql_total == pytest.approx(1.0, abs=1e-6), panel.name

    def test_odd_cat_panel_beats_sql_at_center(self, frame):
        # panel a1: odd cat position density dips below the SQL reference
        # at the midpoint (the metrological feature of the figure)
        report = scenario_reports(frame=frame)
        a1 = report["fig5"][0]
        mid = int(np.argmin(np.abs(a1.axis - a1.axis.mean())))
        assert a1.density[mid] < 0.02 * a1.sql[mid]


def term_stack_intensity(state, x, y, visibility):
    """Reference: |sum_j c_j fy_j fx_j|^2 over an (n, ny, nx) term stack,
    the part beyond the diagonal sum_j |c_j fy_j fx_j|^2 scaled by visibility."""
    w0 = state.frame.w0
    fx = gaussian_mode_1d(state.alphas_x()[:, None], w0, x)
    fy = gaussian_mode_1d(state.alphas_y()[:, None], w0, y)
    stack = state.coeffs()[:, None, None] * (fy[:, :, None] * fx[:, None, :])
    full = np.abs(np.sum(stack, axis=0)) ** 2
    diag = np.sum(np.abs(stack) ** 2, axis=0)
    return diag + visibility * (full - diag)


@given(superpositions(), st.floats(0.0, 1.0))
def test_ccd_frame_matches_term_stack(state, visibility):
    config = small_config()
    x, y = config.column_positions(), config.row_positions()
    frame = state.frame
    s = frame.k * frame.w0**2 / (2.0 * LAB_FOCAL_LENGTH)
    turned = rotate_phase_space(state, math.pi / 2.0)
    # the waist plane, then the focal plane as render_ccd samples it
    for planar, xs, ys in ((state, x, y), (turned, s * x, s * y)):
        got = _intensity_2d(planar, xs, ys, visibility)
        ref = term_stack_intensity(planar, xs, ys, visibility)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


@st.composite
def ccd_configs(draw):
    """Small sensors at every bit depth, with backgrounds up to past uint64."""
    bits = draw(st.sampled_from((8, 12, 16)))
    full = (1 << bits) - 1
    background = draw(st.one_of(
        st.just(0), st.integers(1, 20), st.integers(full, 2**63 - 1),
        st.sampled_from((2**63, 2**64)),
    ))
    return dict(
        nx=draw(st.integers(2, 48)),
        ny=draw(st.integers(2, 48)),
        pitch=PITCH,
        bit_depth=bits,
        background=background,
        visibility=draw(st.floats(0.0, 1.0)),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**32))),
    )


def _outcome(render):
    try:
        return render()
    except ValidationError as exc:
        return str(exc)


_P_PLUS = make_typical_state("p_plus", OverlapAngle.from_theta(0.4 * math.pi), BENCH_FRAME)[1]


def _seeded(background, bits=8):
    return dict(nx=20, ny=12, pitch=PITCH, bit_depth=bits, background=background,
                visibility=1.0, seed=5)


@given(
    superpositions(),
    ccd_configs(),
    st.one_of(st.none(), st.floats(0.05, 10.0)),
    st.booleans(),
)
# shot noise under backgrounds that overflow or wrap an int64 count
@example(_P_PLUS, _seeded(2**63), None, False)
@example(_P_PLUS, _seeded(2**64, bits=16), 3.0, True)
@example(_P_PLUS, _seeded(2**63 - 800), 0.5, False)
@example(_P_PLUS, _seeded(9), 3.0, False)
def test_digitization_matches_float_tail(state, fields, gain, momentum):
    """In-place digitization equals the float chain bit for bit, errors too."""
    plane = momentum_plane() if momentum else position_plane()
    if gain is not None:
        # relative to the scale that puts the peak at 90%: > 1.1 saturates a part
        auto = dict(fields, background=0, seed=None)
        _, scale, _ = render_ccd_float_tail(state, plane, CcdConfig(**auto))
        fields = dict(fields, exposure_scale=gain * scale)
    config = CcdConfig(**fields)
    got = _outcome(lambda: render_ccd(state, plane, config, state.frame))
    want = _outcome(lambda: render_ccd_float_tail(state, plane, config))
    if isinstance(want, str):
        assert got == want == "every pixel saturated; exposure misconfigured"
        return
    counts, scale, saturated = want
    assert got.counts.dtype == counts.dtype and np.array_equal(got.counts, counts)
    assert got.exposure_scale == scale and got.saturated == saturated


@given(
    superpositions(),
    ccd_configs(),
    st.one_of(st.none(), st.floats(0.05, 10.0)),
    st.booleans(),
)
@example(_P_PLUS, _seeded(9), 3.0, True)
def test_contiguous_frame_keeps_the_strided_bits(state, fields, gain, momentum):
    """Digitizing the owned float64 frame gives the counts, exposure scale and
    saturation flag of the strided real view of the complex product, errors too."""
    plane = momentum_plane() if momentum else position_plane()
    if gain is not None:
        auto = dict(fields, background=0, seed=None)
        _, scale, _ = render_ccd_strided(state, plane, CcdConfig(**auto))
        fields = dict(fields, exposure_scale=gain * scale)
    config = CcdConfig(**fields)
    got = _outcome(lambda: render_ccd(state, plane, config, state.frame))
    want = _outcome(lambda: render_ccd_strided(state, plane, config))
    if isinstance(want, str):
        assert got == want
        return
    counts, scale, saturated = want
    assert got.counts.dtype == counts.dtype and got.counts.tobytes() == counts.tobytes()
    assert got.exposure_scale == scale and got.saturated == saturated


@given(st.integers(16, 64), st.integers(2, 600), st.sampled_from((8, 12, 16)), st.integers(0, 2**32))
def test_profile_keeps_the_float_column_sum(nx, ny, bits, seed):
    # integer column sums of at most 600 rows of 2^16 - 1 stay far below 2^53
    config = CcdConfig(nx=nx, ny=ny, pitch=PITCH, bit_depth=bits)
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, config.max_count // 2, (ny, nx), endpoint=True).astype(np.uint16)
    counts[:, nx // 2] = config.max_count  # one full column stands above the border
    image = CcdImage(config, position_plane(), counts, 1.0, True)
    assert profile_from_image(image).tobytes() == profile_float_sums(counts).tobytes()


_DARK = (0.0, -0.0, 1e-300, math.nextafter(2.0**-54, 0.0))
_MEANS = st.one_of(
    st.sampled_from(_DARK + (2.0**-54, math.nextafter(2.0**-54, 1.0), 10.0)),
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.floats(10.0, 1e6),
)


@st.composite
def mean_frames(draw):
    """Rows of Poisson means, each row dark (every mean below 2^-54) or drawn
    from every kind of mean, in any order."""
    nx = draw(st.integers(1, 6))
    dark_rows = draw(st.lists(st.booleans(), min_size=1, max_size=12))
    return np.array([
        draw(st.lists(st.sampled_from(_DARK) if dark else _MEANS, min_size=nx, max_size=nx))
        for dark in dark_rows
    ])


def _state_json(rng) -> str:
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _lit_then_dark(lit):
    """One row with lit means of 2^-54 (each draws 0 from one raw word)
    ahead of 300x720 dark tails, so the jump over the dark block starts at
    every buffer offset as lit runs over 1-4."""
    means = np.full((301, 720), 1e-300)
    means[0] = 0.0
    means[0, :lit] = 2.0**-54
    return means


@given(mean_frames(), st.integers(0, 2**32))
@example(_lit_then_dark(1), 3)
@example(_lit_then_dark(2), 3)
@example(_lit_then_dark(3), 3)
@example(_lit_then_dark(4), 3)
@example(np.full((3, 4), 1e-300), 1)  # all dark
@example(np.full((3, 4), 2.5), 1)  # no dark
@example(np.array([[0.0, 1e-300], [3.0, 0.0], [-0.0, 2.0**-55], [1e6, 2.0**-54]]), 7)
def test_shot_noise_keeps_the_poisson_stream(means, seed):
    """Skipping dark rows gives the counts and end state of one poisson call."""
    rng, one_call = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    want = one_call.poisson(means)
    got = _shot_noise(rng, means.copy())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert _state_json(rng) == _state_json(one_call)


@pytest.mark.parametrize("bits", (12, 16))
def test_full_frames_keep_the_one_call_bytes(frame, bits):
    # lab operating points (T, phi, alpha, seed), alpha = d / (sqrt(2) w0)
    for T, phi, alpha, seed in ((0.5, 0.3, 1.2, 11), (0.2, -2.9, 0.6, 2**31 - 1),
                                (0.8, 1.7, 2.0, 9201)):
        params = QubitParams(T=T, phi=phi, d=alpha * math.sqrt(2.0) * frame.w0)
        config = CcdConfig(bit_depth=bits, seed=seed)
        for plane in (position_plane(), momentum_plane()):
            image = render_ccd(params, plane, config, frame)
            counts, scale, saturated = render_ccd_strided(
                make_qubit_state(params, frame), plane, config)
            assert image.counts.tobytes() == counts.tobytes()
            assert image.exposure_scale == scale and image.saturated == saturated


@pytest.mark.parametrize("flip", (1, -1))
def test_negative_residues_digitize_as_zero_means(flip):
    """Far-tail pair sums of this three-term state round a few subnormals
    below 0, in one row below the beam (flip = -1 mirrors it above); they
    digitize as means of 0 instead of reaching the sampler."""
    state = SuperpositionState.from_terms(LAB_FRAME, [
        CoherentTerm(c, ax, flip * ay) for c, ax, ay in (
            (-0.67 + 0.77j, 1.74 + 0.34j, -0.56 + 0.12j),
            (-0.98 + 0.43j, 1.3 + 0.88j, 0.22 - 0.85j),
            (-0.51 + 0.15j, -0.63 + 2.95j, 0.85 - 0.7j),
        )
    ])
    config = CcdConfig(nx=720, ny=480, bit_depth=16, seed=1, exposure_scale=1.0)
    x, y = config.column_positions(), config.row_positions()
    assert _intensity_2d(state, x, y, config.visibility).min() < 0.0
    for config in (config, replace(config, seed=None)):
        image = render_ccd(state, position_plane(), config)
        counts, _, saturated = render_ccd_float_tail(state, position_plane(), config)
        assert image.counts.tobytes() == counts.tobytes() and image.saturated == saturated


def test_frame_allocation_budget(frame, angle_bench):
    """A 720x480 frame's only frame-sized arrays are its float64 means and
    its uint16 counts: the pair product and the Poisson draws run in row
    blocks, and the counts clamp straight into uint16; the profile stays
    small."""
    _, state = make_typical_state("p_plus", angle_bench, frame)
    mib = 2**20
    for seed in (7, None):
        config = CcdConfig(bit_depth=12, seed=seed)
        for plane in (position_plane(), momentum_plane()):
            image = render_ccd(state, plane, config, frame)  # warm
            profile_from_image(image)
            tracemalloc.start()
            try:
                render_ccd(state, plane, config, frame)
                render_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                profile_from_image(image)
                profile_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert render_peak <= 4 * mib, (seed, plane.kind, render_peak / mib)
            assert profile_peak <= 0.5 * mib, (seed, plane.kind, profile_peak / mib)
