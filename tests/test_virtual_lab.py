"""Sensor bench: rendering, profile analysis, phase recovery, figure panels."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcat import (
    CcdConfig,
    CcdImage,
    FitError,
    LAB_FOCAL_LENGTH,
    QubitParams,
    ValidationError,
    estimate_relative_phase,
    fit_gaussian_profile,
    focal_waist,
    make_qubit_state,
    make_typical_state,
    marginal_position,
    momentum_plane,
    position_plane,
    profile_from_image,
    render_ccd,
    rotate_phase_space,
    scenario_reports,
)
from tmcat.states import gaussian_mode_1d
from tmcat.virtual_lab import _intensity_2d

from strategies import superpositions

PITCH = 6.5e-6


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
    with pytest.raises(ValidationError):
        small_config(pitch=-1.0)
    with pytest.raises(ValidationError):
        small_config(visibility=1.2)
    with pytest.raises(ValidationError):
        small_config(background=-3)
    with pytest.raises(ValidationError):
        small_config(exposure_scale=-0.1)
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
