"""Propagation layer: Gaussian beam laws, ray matrices, Fresnel kernel.

The quadrature kernel is the independent oracle for the analytic
propagator; ray-matrix identities are checked against literal numpy
matrix products.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcat import (
    FiberSpec,
    LensSystem,
    NumericsError,
    OverlapAngle,
    QubitParams,
    RayMatrix,
    TYPICAL_KINDS,
    ValidationError,
    beam_params_at,
    compose,
    gi_fiber_evolve,
    inner_product,
    kernel_step,
    make_qubit_state,
    make_typical_state,
    propagate_analytic,
    propagate_kernel,
    quadrature_moments,
    ray_free,
    ray_lens,
    rotate_phase_space,
)

from strategies import superpositions


class TestBeamParams:
    def test_rayleigh_range(self, frame):
        # z_R = pi w0^2 / lambda = 58.0 mm for the bench beam
        assert frame.z_r == pytest.approx(0.0579986, abs=1e-6)
        b = beam_params_at(frame, 0.0)
        assert b.rayleigh == pytest.approx(frame.z_r, rel=1e-15)

    def test_waist_evolution(self, frame):
        for zf in (0.0, 0.5, 1.0, 3.0):
            z = zf * frame.z_r
            b = beam_params_at(frame, z)
            assert b.width == pytest.approx(
                frame.w0 * math.hypot(1.0, zf), rel=1e-13
            )
            assert b.gouy == pytest.approx(-math.atan(zf), abs=1e-13)

    def test_curvature(self, frame):
        b0 = beam_params_at(frame, 0.0)
        assert math.isinf(b0.curvature_radius)
        z = 0.7 * frame.z_r
        b = beam_params_at(frame, z)
        assert b.curvature_radius == pytest.approx(
            z * (1.0 + (frame.z_r / z) ** 2), rel=1e-13
        )

    def test_complex_parameter_identity(self, frame):
        # with q = z - i z_R: 1/q = 1/R + i lambda / (pi w^2)
        z = 1.3 * frame.z_r
        b = beam_params_at(frame, z)
        inv_q = 1.0 / b.q
        assert inv_q.real == pytest.approx(1.0 / b.curvature_radius, rel=1e-12)
        assert inv_q.imag == pytest.approx(
            780e-9 / (math.pi * b.width**2), rel=1e-12
        )


class TestRayMatrices:
    def test_determinant_enforced(self):
        with pytest.raises(ValidationError):
            RayMatrix(1.0, 0.5, 0.0, 2.0)
        m = RayMatrix(1.0, 0.25, 0.0, 1.0)
        assert m.determinant() == pytest.approx(1.0, abs=1e-15)

    def test_compose_order(self):
        # compose(first, second) applies left to right
        free = ray_free(0.3)
        lens = ray_lens(0.15)
        both = compose(free, lens)
        oracle = np.array([[1.0, 0.0], [-1.0 / 0.15, 1.0]]) @ np.array(
            [[1.0, 0.3], [0.0, 1.0]]
        )
        got = np.array([[both.a, both.b], [both.c, both.d]])
        assert got == pytest.approx(oracle, abs=1e-15)

    def test_imaging_2f(self):
        # 2f - lens - 2f: A = -1, B = 0 (inverted unit-magnification image)
        f = 0.145
        m = compose(ray_free(2.0 * f), ray_lens(f), ray_free(2.0 * f))
        assert m.a == pytest.approx(-1.0, abs=1e-12)
        assert m.b == pytest.approx(0.0, abs=1e-12)

    def test_apply(self):
        m = ray_free(0.4)
        x1, v1 = m.apply(1e-3, 2e-3)
        assert x1 == pytest.approx(1e-3 + 0.4 * 2e-3, rel=1e-15)
        assert v1 == pytest.approx(2e-3, rel=1e-15)

    def test_lens_validation(self):
        with pytest.raises(ValidationError):
            ray_lens(0.0)


class TestLensSystem:
    @pytest.mark.parametrize("theta_frac", [1.0 / 6.0, 1.0 / 3.0, 0.5])
    def test_rotation_form(self, theta_frac):
        # arms of length f (1 - cos theta) turn lens + free flight into a
        # pure phase-space rotation in (x / f0, f0 v) coordinates
        theta = theta_frac * math.pi
        system = LensSystem(f=0.145, theta_l=theta)
        r = system.rotation_matrix()
        expect = np.array(
            [
                [math.cos(theta), math.sin(theta)],
                [-math.sin(theta), math.cos(theta)],
            ]
        )
        got = np.array([[r.a, r.b], [r.c, r.d]])
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_quarter_period_is_fourier(self):
        system = LensSystem(f=0.145, theta_l=math.pi / 2.0)
        m = system.matrix()
        assert m.a == pytest.approx(0.0, abs=1e-12)
        assert m.d == pytest.approx(0.0, abs=1e-12)
        assert m.b == pytest.approx(0.145, rel=1e-12)
        assert m.c == pytest.approx(-1.0 / 0.145, rel=1e-12)
        assert system.arm_length == pytest.approx(0.145, rel=1e-12)
        assert system.f0 == pytest.approx(0.145, rel=1e-12)

    def test_composition_against_oracle(self):
        theta = 0.3 * math.pi
        f = 0.2
        system = LensSystem(f=f, theta_l=theta)
        arm = np.array([[1.0, f * (1.0 - math.cos(theta))], [0.0, 1.0]])
        lens = np.array([[1.0, 0.0], [-1.0 / f, 1.0]])
        oracle = arm @ lens @ arm
        m = system.matrix()
        got = np.array([[m.a, m.b], [m.c, m.d]])
        assert np.max(np.abs(got - oracle)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValidationError):
            LensSystem(f=-0.1, theta_l=math.pi / 3.0)
        with pytest.raises(ValidationError):
            LensSystem(f=0.1, theta_l=0.0)


class TestAnalyticPropagation:
    def test_power_conserved(self, frame, angle_w0):
        for kind in ("vac", "cat_minus", "p_plus"):
            _, state = make_typical_state(kind, angle_w0, frame)
            for zf in (0.0, 0.4, 1.7):
                field = propagate_analytic(state, zf * frame.z_r)
                assert field.power() == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_width_follows_beam_law(self, frame, angle_w0):
        _, vac = make_typical_state("vac", angle_w0, frame)
        for zf in (0.0, 0.5, 1.0, 3.0):
            z = zf * frame.z_r
            field = propagate_analytic(vac, z)
            # 1/e^2 intensity radius of a Gaussian is twice the rms width
            assert field.rms_width() == pytest.approx(
                beam_params_at(frame, z).width, rel=1e-12
            )

    def test_centroid_stays_without_tilt(self, frame, angle_w0):
        params = QubitParams(T=0.0, phi=0.0, d=frame.w0)
        state = make_qubit_state(params, frame)
        for zf in (0.0, 0.8, 2.0):
            field = propagate_analytic(state, zf * frame.z_r)
            assert field.centroid() == pytest.approx(frame.w0, rel=1e-12)

    def test_tilt_drifts_linearly(self, frame):
        # transverse tilt kappa = 2 sqrt(2) Im(alpha) / w0 walks the
        # centroid by (kappa / k) z
        tilt = 0.3
        params = QubitParams(T=0.0, phi=0.0, d=frame.w0)
        state = make_qubit_state(params, frame, tilt_alpha=tilt)
        kappa = 2.0 * math.sqrt(2.0) * tilt / frame.w0
        z = 1.2 * frame.z_r
        field = propagate_analytic(state, z)
        assert field.centroid() == pytest.approx(
            frame.w0 + kappa * z / frame.k, rel=1e-10
        )

    def test_negative_distance_rejected(self, frame, angle_w0):
        _, vac = make_typical_state("vac", angle_w0, frame)
        with pytest.raises(ValidationError):
            propagate_analytic(vac, -0.01)


class TestKernelPropagation:
    @pytest.mark.parametrize("kind", TYPICAL_KINDS)
    def test_matches_analytic(self, frame, angle_w0, kind):
        _, state = make_typical_state(kind, angle_w0, frame)
        d = angle_w0.displacement(frame.w0)
        for zf in (0.3, 1.0, 2.0):
            z = zf * frame.z_r
            span = d + 12.0 * frame.w0
            step = kernel_step(frame, z, span)
            x_in = np.arange(-span / 2.0, d / 2.0 + span / 2.0, step)
            width = beam_params_at(frame, z).width
            x_out = np.linspace(-5.0 * width, d + 5.0 * width, 501)
            out = propagate_kernel(state.x_wavefunction(x_in), x_in, x_out, z, frame)
            ref = propagate_analytic(state, z).field(x_out)
            # align the irrelevant global phase at the intensity peak
            pivot = int(np.argmax(np.abs(ref)))
            ref = ref * (out[pivot] / ref[pivot])
            rms = math.sqrt(float(np.mean(np.abs(out - ref) ** 2)))
            assert rms < 1e-6, (kind, zf)

    def test_linearity(self, frame, angle_w0):
        _, a = make_typical_state("vac", angle_w0, frame)
        _, b = make_typical_state("coh", angle_w0, frame)
        z = 0.9 * frame.z_r
        span = 18.0 * frame.w0
        x_in = np.arange(-span / 2.0, span / 2.0, kernel_step(frame, z, span))
        x_out = np.linspace(-7e-4, 8e-4, 301)
        ca, cb = 0.8, -0.6j
        combined = propagate_kernel(
            ca * a.x_wavefunction(x_in) + cb * b.x_wavefunction(x_in),
            x_in,
            x_out,
            z,
            frame,
        )
        separate = ca * propagate_kernel(
            a.x_wavefunction(x_in), x_in, x_out, z, frame
        ) + cb * propagate_kernel(b.x_wavefunction(x_in), x_in, x_out, z, frame)
        assert np.max(np.abs(combined - separate)) < 1e-10

    def test_identity_at_zero(self, frame, angle_w0):
        _, state = make_typical_state("cat_plus", angle_w0, frame)
        x = np.linspace(-5e-4, 6e-4, 1001)
        psi = state.x_wavefunction(x)
        assert propagate_kernel(psi, x, x, 0.0, frame) == pytest.approx(psi)
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, x + 1e-6, 0.0, frame)

    def test_nyquist_guard(self, frame, angle_w0):
        # a grid too coarse for the chirp at short z must refuse loudly
        _, state = make_typical_state("vac", angle_w0, frame)
        x = np.linspace(-20.0 * frame.w0, 20.0 * frame.w0, 64)
        psi = state.x_wavefunction(x)
        with pytest.raises(NumericsError):
            propagate_kernel(psi, x, x, 0.001 * frame.z_r, frame)

    def test_input_validation(self, frame, angle_w0):
        _, state = make_typical_state("vac", angle_w0, frame)
        x = np.linspace(-5e-4, 5e-4, 257)
        psi = state.x_wavefunction(x)
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, x, -0.1, frame)
        with pytest.raises(ValidationError):
            propagate_kernel(psi[:-1], x, x, 0.1, frame)
        crooked = x.copy()
        crooked[3] += 1e-6
        with pytest.raises(ValidationError):
            propagate_kernel(psi, crooked, x, 0.1, frame)
        # both grids need at least 2 finite, increasing, evenly spaced points
        for n in (0, 1):
            with pytest.raises(ValidationError):
                propagate_kernel(psi[:n], x[:n], x, 0.1, frame)
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, x[:0], 0.1, frame)
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, x[:1], 0.1, frame)
        holed = x.copy()
        holed[5] = np.nan
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, holed, 0.1, frame)
        with pytest.raises(ValidationError):
            propagate_kernel(psi[::-1], x[::-1], x, 0.1, frame)
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, x[::-1], 0.1, frame)
        with pytest.raises(ValidationError):
            propagate_kernel(psi, x, crooked, 0.1, frame)

    def test_kernel_step_passes_the_aliasing_guard(self, frame, angle_w0):
        # a grid stepped by kernel_step over the span it was given is accepted
        _, vac = make_typical_state("vac", angle_w0, frame)
        w0 = frame.w0
        for zf in np.linspace(0.05, 3.0, 60):
            z = zf * frame.z_r
            width = beam_params_at(frame, z).width
            span = 7.0 * w0 + 6.0 * width
            x_in = np.arange(-7.0 * w0, 7.0 * w0, kernel_step(frame, z, span))
            x_out = np.linspace(-6.0 * width, 6.0 * width, 401)
            propagate_kernel(vac.x_wavefunction(x_in), x_in, x_out, z, frame)

    def test_diffraction_limit(self, frame, angle_w0):
        # sigma_x sigma_v = 1 / (2k) at the waist
        _, vac = make_typical_state("vac", angle_w0, frame)
        _, var_x = quadrature_moments(vac, 0.0)
        _, var_p = quadrature_moments(vac, math.pi / 2.0)
        sigma_x = math.sqrt(var_x) * frame.x_scale
        sigma_v = math.sqrt(var_p) * frame.p_scale / (1.054571817e-34 * frame.k)
        assert sigma_x * sigma_v == pytest.approx(1.0 / (2.0 * frame.k), rel=1e-12)


class TestPhaseSpaceRotation:
    def test_two_pi_identity(self, frame, angle_w0):
        _, state = make_typical_state("cat_minus", angle_w0, frame)
        back = rotate_phase_space(state, 2.0 * math.pi)
        assert abs(inner_product(state, back)) == pytest.approx(1.0, abs=1e-12)

    def test_composition(self, frame, angle_w0):
        _, state = make_typical_state("p_minus", angle_w0, frame)
        once = rotate_phase_space(rotate_phase_space(state, 0.4), 0.9)
        both = rotate_phase_space(state, 1.3)
        assert abs(inner_product(once, both)) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_angle_shift(self, frame, angle_w0):
        # measuring X_phi after a rotation by theta equals measuring
        # X_{phi + theta} before it
        _, state = make_typical_state("cat_minus", angle_w0, frame)
        rotated = rotate_phase_space(state, math.pi / 2.0)
        for phi_q in (0.0, 0.3, math.pi / 2.0):
            m1, v1 = quadrature_moments(rotated, phi_q)
            m2, v2 = quadrature_moments(state, phi_q + math.pi / 2.0)
            assert m1 == pytest.approx(m2, abs=1e-9)
            assert v1 == pytest.approx(v2, abs=1e-9)


class TestFiber:
    def test_period_from_omega(self):
        fiber = FiberSpec.from_omega(2.0 * math.pi * 299792458.0 / 1e-3)
        assert fiber.period_length == pytest.approx(1e-3, rel=1e-12)

    def test_rotation_angle(self):
        fiber = FiberSpec(period_length=1e-3)
        assert fiber.rotation_angle(0.25e-3) == pytest.approx(math.pi / 2.0)

    def test_small_jitter_keeps_fidelity(self, frame, angle_bench):
        # 780 nm path error on a 1 mm period is a 4.9 mrad rotation; the
        # cat it carries barely moves
        _, state = make_typical_state("cat_minus", angle_bench, frame)
        fiber = FiberSpec(period_length=1e-3)
        angle = fiber.rotation_angle(780e-9)
        assert angle == pytest.approx(4.9009e-3, abs=1e-6)
        evolved = gi_fiber_evolve(state, 780e-9, fiber)
        assert abs(inner_product(state, evolved)) ** 2 > 0.9999

    def test_full_period_identity(self, frame, angle_w0):
        _, state = make_typical_state("x_minus", angle_w0, frame)
        fiber = FiberSpec(period_length=1e-3)
        evolved = gi_fiber_evolve(state, 1e-3, fiber)
        assert abs(inner_product(state, evolved)) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FiberSpec(period_length=0.0)
        with pytest.raises(ValidationError):
            FiberSpec.from_omega(-1.0)
        fiber = FiberSpec(period_length=1e-3)
        with pytest.raises(ValidationError):
            gi_fiber_evolve(None, -1e-6, fiber)


# ----------------------------------------------------------------------
# Properties on random 1-3 term states

def dense_fresnel(psi, x_in, x_out, z, k):
    """Reference: the trapezoid Fresnel sum over the full N_out x N_in chirp."""
    chirp = np.exp(1j * k * (x_out[:, None] - x_in[None, :]) ** 2 / (2.0 * z))
    return np.sqrt(k / (2.0j * math.pi * z)) * np.trapezoid(chirp * psi, x_in, axis=1)


@given(
    superpositions(max_terms=3, shared_y=True),
    st.floats(0.05, 3.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
    st.integers(200, 1500),
)
def test_kernel_matches_dense_fresnel_sum(state, zf, pad_lo, pad_hi, n_out):
    frame = state.frame
    w0, z = frame.w0, zf * frame.z_r
    alphas = state.alphas_x()
    # waist centres sqrt(2) w0 Re(alpha); a tilt Im(alpha) walks the centre
    # by sqrt(2) w0 Im(alpha) z / z_R
    at_waist = math.sqrt(2.0) * w0 * alphas.real
    at_z = at_waist + math.sqrt(2.0) * w0 * alphas.imag * zf
    width = beam_params_at(frame, z).width
    in_lo, in_hi = at_waist.min() - 7.0 * w0, at_waist.max() + 7.0 * w0
    # the output window is shifted and scaled at random around the beam
    out_lo = at_z.min() - (6.0 + pad_lo) * width
    out_hi = at_z.max() + (6.0 + pad_hi) * width
    span = max(out_hi - in_lo, in_hi - out_lo)
    x_in = np.arange(in_lo, in_hi, kernel_step(frame, z, span))
    x_out = np.linspace(out_lo, out_hi, n_out)
    psi = state.x_wavefunction(x_in)
    got = propagate_kernel(psi, x_in, x_out, z, frame)
    ref = dense_fresnel(psi, x_in, x_out, z, frame.k)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(superpositions(max_terms=3), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))
def test_rotations_compose(state, theta1, theta2):
    once = rotate_phase_space(rotate_phase_space(state, theta1), theta2)
    both = rotate_phase_space(state, theta1 + theta2)
    assert abs(abs(inner_product(once, both)) - 1.0) <= 1e-12
    w0 = state.frame.w0
    x = np.linspace(-8.0 * w0, 8.0 * w0, 401)
    i_once, i_both = once.position_intensity(x), both.position_intensity(x)
    assert np.max(np.abs(i_once - i_both)) <= 1e-12 * np.max(i_both)
