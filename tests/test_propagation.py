"""Propagation layer: Gaussian beam laws, ray matrices, Fresnel kernel.

The quadrature kernel is the independent oracle for the analytic
propagator; ray-matrix identities are checked against literal numpy
matrix products.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmcat import (
    CoherentTerm,
    FiberSpec,
    LensSystem,
    NumericsError,
    OverlapAngle,
    QubitParams,
    RayMatrix,
    TYPICAL_KINDS,
    ValidationError,
    beam_params_at,
    build_basis,
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
    SuperpositionState,
)

from oracles import field_unbounded_chirp, fresnel_exponent_form
from strategies import BENCH_FRAME, superpositions


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
        # a NaN entry fails every ordered comparison, so the check fails closed
        for entries in ((math.nan, 0.0, 0.0, 1.0), (1.0, math.inf, 0.0, 1.0)):
            with pytest.raises(ValidationError, match="unimodular"):
                RayMatrix(*entries)
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
        # a power 1/f that overflows was refused only as det = nan
        for f in (0.0, -0.0, 1e-320, -5e-324, math.nan):
            with pytest.raises(ValidationError, match=re.escape(f"focal length f = {f!r} m")):
                ray_lens(f)
        # the smallest focal lengths with a finite power keep their matrix
        for f in (1e-300, -3e-308):
            assert ray_lens(f).c == -1.0 / f
        # a relay refuses an infinite or NaN focal length by name, not in
        # matrix() as det = nan
        for f in (math.inf, math.nan, -math.inf, 0.0, -0.1):
            with pytest.raises(ValidationError, match=re.escape(f"focal length f = {f!r} m")):
                LensSystem(f=f, theta_l=1.0)


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

    @given(superpositions(coherence=st.floats(0.0, 1.0)),
           st.just(0.0) | st.floats(1e-150, 1e150))
    @example(make_typical_state("cat_minus", OverlapAngle.from_alpha(1.0), BENCH_FRAME)[1], 1e150)
    def test_far_field_centroid_is_held_to_ulps_of_the_width(self, state, zr):
        # w(z) <X_theta> = w0 (<X> + <P> z / z_R): past z_R the rounding of the
        # state's own <P> grows with z, so the centroid is held to a few ulp of
        # w(z), not of itself (at most 5.1 eps w(z) in 60,000 scratch draws)
        field = propagate_analytic(state, zr * state.frame.z_r)
        mean_x, _ = quadrature_moments(state, 0.0)
        mean_p, _ = quadrature_moments(state, math.pi / 2.0)
        want = state.frame.x_scale * (mean_x + zr * mean_p)
        assert abs(field.centroid() - want) <= 16.0 * np.finfo(float).eps * field.beam.width

    def test_z_scan_keeps_only_the_x_and_p_moments(self, frame, angle_w0):
        # the moments of each Gouy angle are computed, not kept: a long scan
        # leaves the state's memo as small as the X and P moments of its map
        _, state = make_typical_state("cat_minus", angle_w0, frame)
        first = [propagate_analytic(state, z).centroid() for z in (0.5 * frame.z_r, 0.0)]
        for z in np.linspace(1e-3, 40.0, 5000) * frame.z_r:
            propagate_analytic(state, z).centroid()
        assert len(state._memo["moments"]) <= 2
        again = [propagate_analytic(state, z).centroid() for z in (0.5 * frame.z_r, 0.0)]
        assert again == first
        quadrature_moments(state, math.pi / 2.0)
        kept = state._memo["moments"][math.pi / 2.0]
        assert quadrature_moments(state, math.pi / 2.0) is kept
        assert set(state._memo["moments"]) == {0.0, math.pi / 2.0}

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

    def test_cancelled_term_propagates_as_absent(self, frame, angle_w0):
        # the weights on alpha = 1 cancel exactly; the state is the vacuum
        state = SuperpositionState.from_terms(
            frame,
            [
                CoherentTerm(coeff=1.0, alpha_x=0.0),
                CoherentTerm(coeff=1.0, alpha_x=1.0),
                CoherentTerm(coeff=-1.0, alpha_x=1.0),
            ],
        )
        _, vac = make_typical_state("vac", angle_w0, frame)
        x = np.linspace(-4.0, 4.0, 81) * frame.w0
        z = 0.7 * frame.z_r
        field = propagate_analytic(state, z)
        assert field.power() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(field.intensity(x), propagate_analytic(vac, z).intensity(x))

    def test_negative_distance_rejected(self, frame, angle_w0):
        _, vac = make_typical_state("vac", angle_w0, frame)
        with pytest.raises(ValidationError):
            propagate_analytic(vac, -0.01)

    def test_non_finite_distance_rejected(self, frame, angle_w0):
        # a NaN passes every ordered comparison as False, so each guard must
        # be written to fail closed
        _, vac = make_typical_state("vac", angle_w0, frame)
        for z in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                propagate_analytic(vac, z)
            with pytest.raises(ValidationError):
                beam_params_at(frame, z)
        # finite distances whose (z/z_R)^2 or (z_R/z)^2 leaves the float range
        # (were a divide-by-zero warning, a bare OverflowError from z**2, or a
        # wrong field from a subnormal z^2)
        for z in (5e-324, 1e-300, 1e-160, 1e200, 1e300, 1.7e308):
            with pytest.raises(ValidationError, match=re.escape(f"distance z = {z!r} m")):
                propagate_analytic(vac, z)
        # far field: the rotation by the Gouy angle keeps the field finite
        field = propagate_analytic(vac, 1e150)
        assert np.all(np.isfinite(field.field(np.linspace(-3.0, 3.0, 13) * field.beam.width)))
        assert field.power() == pytest.approx(1.0, abs=1e-12)
        # finite distances whose (z/z_R)^2 or (z_R/z)^2 overflows (were an
        # OverflowError, or width = inf at 1e308)
        for z in (1e200, -1e200, 1e-160, 5e-324, 1e308):
            with pytest.raises(ValidationError, match=re.escape(f"distance z = {z!r} m")):
                beam_params_at(frame, z)

    # beam_params_at refuses 0 < |z| below about 1e-155 by design, where
    # (z_R/z)^2 overflows (see test_non_finite_distance_rejected)
    @given(st.just(0.0) | st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150))
    def test_valid_distances_keep_their_bits(self, frame, z):
        b = beam_params_at(frame, z)
        z_r = frame.z_r
        assert b.width == frame.w0 * math.sqrt(1.0 + (z / z_r) ** 2)
        if z != 0.0:
            assert b.curvature_radius == z * (1.0 + (z_r / z) ** 2)

    @given(superpositions(), st.floats(1e-4, 3.0))
    def test_rotation_matches_the_fresnel_exponent_form(self, state, zf):
        # the Gouy-angle rotation and the closed-form Fresnel map of each
        # term's Gaussian exponents are the same field; terms on different y
        # modes have no x field, and the field is refused, as the wavefunction is
        z = zf * state.frame.z_r
        field = propagate_analytic(state, z)
        x = np.linspace(-9.0, 9.0, 401) * field.beam.width
        want_field, want_intensity = fresnel_exponent_form(state, z, x)
        if np.all(state.alphas_y() == state.alphas_y()[0]):
            got = field.field(x)
            assert np.max(np.abs(got - want_field)) <= 1e-13 * np.max(np.abs(want_field))
        else:
            with pytest.raises(ValidationError, match="not separable in x and y"):
                field.field(x)
        got = field.intensity(x)
        assert np.max(np.abs(got - want_intensity)) <= 1e-13 * np.max(want_intensity)

    @given(
        superpositions(shared_y=True),
        st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40),
        st.integers(0, 3),
        st.floats(1e-3, 3.0),
    )
    def test_field_keeps_its_bits_near_and_vanishes_far_out(self, state, offsets, term, zf):
        # within 40 w0 of a turned term center, scaled by m, the field keeps the
        # bits of the chirp taken at every position as given; far out it is
        # exactly 0, with no overflow or invalid operation in the chirp
        field = propagate_analytic(state, zf * state.frame.z_r)
        turned, m = field._turned()
        center = math.sqrt(2.0) * state.frame.w0 * turned.real[term % turned.size]
        x = m * (center + state.frame.w0 * np.array(offsets))
        assert field.field(x).tobytes() == field_unbounded_chirp(field, x).tobytes()
        far = np.array([1e200, -1e200, np.inf, -np.inf])
        with np.errstate(all="raise", under="ignore"):
            assert np.all(field.field(far) == 0.0)

    @given(superpositions(), superpositions(shared_y=True))
    def test_waist_field_is_the_state_own(self, state, separable):
        x = np.linspace(-40.0, 40.0, 801) * state.frame.w0
        got = propagate_analytic(state, 0.0).intensity(x)
        assert got.tobytes() == state.position_intensity(x).tobytes()
        got = propagate_analytic(separable, 0.0).field(x)
        assert got.tobytes() == separable.x_wavefunction(x).tobytes()

    def test_a_state_on_two_y_modes_has_no_field(self, frame):
        # the four_cat y-axis even cat at alpha = 1 read |field|^2 = 3576 at
        # x = 0, where its density is 2446: its terms carry different y modes,
        # and the field is refused as the wavefunction is
        cat = build_basis("four_cat", OverlapAngle.from_alpha(1.0), frame).states[2]
        assert cat.position_intensity(np.zeros(1))[0] == pytest.approx(2446.04438623)
        for call in (cat.x_wavefunction, propagate_analytic(cat, 0.0).field):
            with pytest.raises(ValidationError, match="^state is not separable in x and y"):
                call(np.zeros(1))


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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                propagate_kernel(psi, x, x, bad, frame)
            with pytest.raises(ValidationError):
                kernel_step(frame, bad, 1e-3)
            with pytest.raises(ValidationError):
                kernel_step(frame, 0.1, bad)

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

    def test_non_finite_angle_is_named(self, frame, angle_w0):
        # the angle is named, not left to the NaN amplitudes it would build
        _, state = make_typical_state("cat_minus", angle_w0, frame)
        for theta in (math.nan, math.inf, -math.inf):
            match = re.escape(f"theta must be finite, got {theta!r}")
            with pytest.raises(ValidationError, match=match):
                rotate_phase_space(state, theta)


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

    def test_validation(self, frame, angle_w0):
        for period in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="self-image period"):
                FiberSpec(period_length=period)
        # a frequency whose period 2 pi c / omega overflows or vanishes (a
        # period of inf made a fiber that never rotates)
        for omega in (-1.0, 0.0, 1e-320, math.inf, math.nan):
            with pytest.raises(ValidationError, match=re.escape(f"omega_GI = {omega!r} rad/s")):
                FiberSpec.from_omega(omega)
        # a length is named, not left to the NaN amplitudes an infinite one
        # would build; `length < 0` let NaN through
        _, state = make_typical_state("cat_minus", angle_w0, frame)
        fiber = FiberSpec(period_length=1e-3)
        for length in (-1e-6, -math.inf, math.inf, math.nan):
            match = re.escape(f"fiber length must be finite and >= 0, got {length!r}")
            with pytest.raises(ValidationError, match=match):
                gi_fiber_evolve(state, length, fiber)
        # a finite length whose rotation angle 2 pi L / period overflows
        match = re.escape("fiber length 1e+308 m over the self-image period 0.001 m")
        with pytest.raises(ValidationError, match=match):
            gi_fiber_evolve(state, 1e308, fiber)
        assert gi_fiber_evolve(state, 1e300, fiber).terms


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
