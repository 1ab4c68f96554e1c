"""State-space layer: overlaps, moments, typical states, Bloch maps.

Frozen reference values come from an independent numeric oracle: the
superposition wavefunction built from first principles on a dense grid,
position moments by trapezoid quadrature and momentum moments through an
explicit Fourier integral (no library formulas involved).
"""

import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tmcat import (
    HBAR,
    BlochVector,
    CoherentTerm,
    ModeFrame,
    PhaseSpaceGrid,
    OverlapAngle,
    QubitParams,
    SuperpositionState,
    TYPICAL_KINDS,
    ValidationError,
    bloch_to_params,
    cat_coefficients,
    coherent_overlap,
    dephased_mixture,
    inner_product,
    make_qubit_state,
    make_typical_state,
    normalization_factor,
    params_to_bloch,
    profile_sweep,
    propagate_analytic,
    quadrature_moments,
    rotate_cat_phase,
    signed_phase,
    wigner_map,
    wigner_of_state,
    wrap_phase,
)
import tmcat.states
from tmcat.applications import BasisSet
from tmcat.states import (
    _moments,
    _pair_contract,
    _pairs,
    _skip_draws,
    _weighted,
    gaussian_mode_1d,
)
from tmcat.virtual_lab import _intensity_2d

import dispatch
from oracles import (
    density_unbounded,
    full_pair_sum,
    intensity_2d_pair_product,
    pair_algebra,
    two_step_state,
    wigner_chord_quadrature,
    wigner_pair_product,
)
from strategies import BENCH_FRAME, superpositions


def test_frame_derived_quantities(frame):
    # z_R = pi w0^2 / lambda; k = 2 pi / lambda
    assert frame.z_r == pytest.approx(math.pi * 0.12e-3**2 / 780e-9, rel=1e-12)
    assert frame.k == pytest.approx(2.0 * math.pi / 780e-9, rel=1e-12)
    assert frame.x_scale == pytest.approx(0.12e-3 / math.sqrt(2.0), rel=1e-12)


def test_frame_validation():
    with pytest.raises(ValidationError):
        ModeFrame(w0=0.0, wavelength=780e-9)
    with pytest.raises(ValidationError):
        ModeFrame(w0=0.12e-3, wavelength=-1.0)
    # w0^2, k, z_R, w0^2/hbar and hbar k must all be normal floats
    for w0, wavelength in (
        (1e-300, 780e-9),  # w0^2 underflows to zero
        (1e-160, 780e-9),  # w0^2 is subnormal
        (1e150, 780e-9),  # w0^2 / hbar overflows
        (1e200, 780e-9),  # w0^2 overflows
        (0.12e-3, 1e300),  # hbar k underflows
        (0.12e-3, 1e-310),  # k overflows
        (0.12e-3, math.inf),
        (math.nan, 780e-9),
    ):
        with pytest.raises(ValidationError):
            ModeFrame(w0=w0, wavelength=wavelength)
    wide = ModeFrame(w0=1e-20, wavelength=1e-20)
    assert wide.z_r == pytest.approx(math.pi * 1e-20, rel=1e-15)


def test_phase_helpers():
    assert wrap_phase(2.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert signed_phase(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert signed_phase(math.pi) == pytest.approx(math.pi)


class TestOverlapAngle:
    def test_d_equals_w0(self, angle_w0):
        # alpha is the one stored number; every other form derives from it
        assert [f.name for f in dataclasses.fields(OverlapAngle)] == ["alpha"]
        # alpha = d / (sqrt(2) w0); cos(theta_d) = exp(-alpha^2)
        assert angle_w0.alpha == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert angle_w0.cos_theta_d == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert angle_w0.n_plus == pytest.approx(1.0 + math.exp(-0.5), rel=1e-15)
        assert angle_w0.n_minus == pytest.approx(1.0 - math.exp(-0.5), rel=1e-15)
        assert angle_w0.displacement(0.12e-3) == pytest.approx(0.12e-3, rel=1e-15)

    def test_alpha_1p1_angle(self):
        # arccos(exp(-1.21)) = 0.403614...pi
        angle = OverlapAngle.from_alpha(1.1)
        assert angle.theta_d / math.pi == pytest.approx(0.4036146685, abs=1e-9)

    def test_round_trips(self):
        angle = OverlapAngle.from_theta(0.37 * math.pi)
        again = OverlapAngle.from_alpha(angle.alpha)
        assert again.cos_theta_d == pytest.approx(angle.cos_theta_d, rel=1e-14)
        # near pi/2, ln cos(theta_d) must come from cos itself, not 1 - 2 sin^2
        for theta in (0.499 * math.pi, 0.49999 * math.pi):
            near = OverlapAngle.from_theta(theta)
            assert math.isclose(near.cos_theta_d, math.cos(theta), rel_tol=1e-14)

    def test_degenerate_angles_rejected(self):
        with pytest.raises(ValidationError):
            OverlapAngle.from_theta(0.0)
        with pytest.raises(ValidationError):
            OverlapAngle.from_theta(1e-8)  # cos rounds to 1.0
        with pytest.raises(ValidationError):
            OverlapAngle.from_alpha(0.0)
        # theta_d outside (0, pi/2] would build a mirrored or wrong state
        for bad in (-0.4 * math.pi, 1.6 * math.pi, math.nan):
            with pytest.raises(ValidationError):
                OverlapAngle.from_theta(bad)
        # a negative separation is not mirrored; alpha^2 overflowing is refused
        for bad in (-0.1, math.nan, 1e200):
            with pytest.raises(ValidationError):
                OverlapAngle.from_alpha(bad)
        assert OverlapAngle.from_theta(0.5 * math.pi).cos_theta_d < 1e-16


@given(
    st.floats(math.log(2e-8), math.log(25.0)),
    st.floats(math.log(2e-8), math.log(math.pi / 2.0)),
)
def test_overlap_angle_keeps_its_digits(log_alpha, log_theta):
    # every form of the overlap comes from alpha without cancellation
    alpha = math.exp(log_alpha)
    theta = min(math.exp(log_theta), math.pi / 2.0)
    angle = OverlapAngle.from_alpha(alpha)
    assert angle.alpha == alpha
    if alpha < 1e-4:
        a2 = alpha * alpha
        n_minus = a2 * (1.0 - a2 / 2.0 + a2 * a2 / 6.0)
        assert math.isclose(angle.n_minus, n_minus, rel_tol=2e-15)
        theta_d = math.sqrt(2.0) * alpha * (1.0 - a2 / 6.0)
        assert math.isclose(angle.theta_d, theta_d, rel_tol=2e-15)
    assert abs(angle.n_minus + angle.cos_theta_d - 1.0) <= 5e-16
    assert math.isclose(OverlapAngle.from_theta(theta).theta_d, theta, rel_tol=2e-15)


def test_coherent_overlap_against_quadrature(frame):
    # <beta|alpha> = exp(-|a|^2 - |b|^2 + 2 conj(b) a) in the w0-width
    # convention; cross-check against a trapezoid integral of the two
    # tilted Gaussians.
    x = np.linspace(-10.0, 10.0, 6001)

    def mode(alpha):
        a, b = alpha.real, alpha.imag
        return np.pi**-0.25 * np.exp(-0.5 * (x - 2 * a) ** 2 + 2j * b * (x - a))

    rng = np.random.default_rng(7)
    for _ in range(4):
        al = complex(*rng.uniform(-1.2, 1.2, 2))
        be = complex(*rng.uniform(-1.2, 1.2, 2))
        numeric = np.trapezoid(np.conj(mode(be)) * mode(al), x)
        assert coherent_overlap(al, be) == pytest.approx(numeric, abs=1e-10)


def test_coherent_overlap_special_values(angle_w0):
    assert coherent_overlap(0j, 0j) == pytest.approx(1.0)
    # real displaced pair: cos(theta_d) = exp(-alpha^2)
    al = angle_w0.alpha
    assert coherent_overlap(complex(al), 0j) == pytest.approx(
        math.exp(-0.5), rel=1e-14
    )


def _closed_form_overlap(alpha, beta):
    a, b = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    with np.errstate(all="ignore"):
        return np.exp(-np.abs(a) ** 2 - np.abs(b) ** 2 + 2.0 * np.conj(b) * a)


_in_range = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)


@given(_in_range, _in_range)
@example(1.5 - 0.5j, 0.25j)
@example(1e150, -1e150j)
@example(5e-324, 5e-324j)
def test_coherent_overlap_keeps_its_bits_and_flags(alpha, beta):
    """Amplitudes whose squares stay finite take the closed form's bits and
    raise no floating-point flag."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = coherent_overlap(alpha, beta)
    assert got.tobytes() == _closed_form_overlap(alpha, beta).tobytes()


def test_coherent_overlap_far_out():
    # the exact overlap is 0 once |alpha - beta|^2 overflows; amplitudes whose
    # squares overflow and cancel (exactly 1 at alpha = beta) are refused
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in ((1e200, 0.0), (0.0, -1e200j), (1e200, 1e200j), (1e200, -1e200)):
            assert coherent_overlap(alpha, beta) == 0.0
        grid = coherent_overlap(np.array([0.3, 1e200]), np.array([[0.3], [-0.2j]]))
        assert grid[:, 0].tobytes() == _closed_form_overlap(0.3, [0.3, -0.2j]).tobytes()
        assert not grid[:, 1].any()
        for alpha, beta in ((1e200, 1e200), (1e200 + 1e200j, 1e200), (math.nan, 0.0)):
            with pytest.raises(ValidationError, match=r"alpha = .* and beta = "):
                coherent_overlap(alpha, beta)
        with pytest.raises(ValidationError, match=r"alpha = \(1e\+200\+0j\) and beta = \(1e\+200\+0j\)"):
            coherent_overlap(np.array([0.0, 1e200]), 1e200)


# (mean_X, var_X, mean_P, var_P) at d = w0 from the Fourier oracle
TYPICAL_MOMENTS = {
    "vac": (0.0, 0.5, 0.0, 0.5),
    "coh": (1.414213562373, 0.5, 0.0, 0.5),
    "cat_plus": (0.707106781187, 0.811229665601, 0.0, 0.311229665601),
    "cat_minus": (0.707106781187, 1.770747041268, 0.0, 1.270747041268),
    "x_minus": (-0.182268479002, 0.5, 0.0, 0.790988353435),
    "x_plus": (1.596482041375, 0.5, 0.0, 0.790988353435),
    "p_minus": (0.707106781187, 1.290988353435, -0.539433363294, 0.5),
    "p_plus": (0.707106781187, 1.290988353435, 0.539433363294, 0.5),
}


@pytest.mark.parametrize("kind", TYPICAL_KINDS)
def test_typical_state_moments(frame, angle_w0, kind):
    _, state = make_typical_state(kind, angle_w0, frame)
    mean_x, var_x = quadrature_moments(state, 0.0)
    mean_p, var_p = quadrature_moments(state, math.pi / 2.0)
    ref = TYPICAL_MOMENTS[kind]
    assert mean_x == pytest.approx(ref[0], abs=1e-9)
    assert var_x == pytest.approx(ref[1], abs=1e-9)
    assert mean_p == pytest.approx(ref[2], abs=1e-9)
    assert var_p == pytest.approx(ref[3], abs=1e-9)


def test_typical_state_parameters(frame, angle_w0):
    shat = angle_w0.sin_theta_d
    table = {
        "vac": (1.0, 0.0),
        "coh": (0.0, 0.0),
        "cat_plus": (0.5, 0.0),
        "cat_minus": (0.5, math.pi),
        "x_minus": ((1.0 + shat) / 2.0, math.pi),
        "x_plus": ((1.0 - shat) / 2.0, math.pi),
        "p_minus": (0.5, -(math.pi - angle_w0.theta_d)),
        "p_plus": (0.5, math.pi - angle_w0.theta_d),
    }
    for kind, (t_ref, phi_ref) in table.items():
        params, _ = make_typical_state(kind, angle_w0, frame)
        assert params.T == pytest.approx(t_ref, abs=1e-12)
        assert params.phi_signed == pytest.approx(phi_ref, abs=1e-12)
    # the published table value, quoted to six digits
    params, _ = make_typical_state("x_minus", angle_w0, frame)
    assert params.T == pytest.approx(0.897530, abs=5e-6)
    with pytest.raises(ValidationError):
        make_typical_state("nonsense", angle_w0, frame)


def test_complex_tilt_moments(frame):
    # three-term state with transverse tilts; oracle values from the
    # numeric Fourier quadrature
    terms = [
        CoherentTerm(coeff=0.6, alpha_x=0.25 + 0.35j),
        CoherentTerm(coeff=0.5 * np.exp(0.8j), alpha_x=-0.3 + 0.55j),
        CoherentTerm(coeff=0.4 * np.exp(-2.1j), alpha_x=0.9 - 0.2j),
    ]
    state = SuperpositionState.from_terms(frame, terms)
    mean_x, var_x = quadrature_moments(state, 0.0)
    mean_p, var_p = quadrature_moments(state, math.pi / 2.0)
    assert mean_x == pytest.approx(-0.105294421403, abs=5e-9)
    assert var_x == pytest.approx(1.166562240013, abs=5e-9)
    assert mean_p == pytest.approx(0.463226957086, abs=5e-9)
    assert var_p == pytest.approx(0.796755539754, abs=5e-9)


def test_rotated_quadrature_of_vacuum_is_flat(frame, angle_w0):
    _, vac = make_typical_state("vac", angle_w0, frame)
    for theta in np.linspace(0.0, math.pi, 7):
        mean, var = quadrature_moments(vac, float(theta))
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)


# One coherent term as far out as 1e150: real, imaginary, or complex along a
# 3-4-5 direction scaled by a power of two.  Such an amplitude has an exact
# modulus, so its Gram diagonal is exactly 1; a general complex amplitude this
# far out loses its norm in the Gram's exponent -|a|^2 - |b|^2 + 2 conj(b) a.
_far_alphas = st.one_of(
    st.builds(lambda r, unit: r * unit, st.floats(0.0, 1e150), st.sampled_from([1, -1, 1j, -1j])),
    st.builds(lambda k, unit: math.ldexp(1.0, k) * unit, st.integers(-60, 495),
              st.sampled_from([3 + 4j, -3 + 4j, 4 - 3j, -4 - 3j])),
)


@given(_far_alphas, st.sampled_from([0.0, math.pi / 2.0]) | st.floats(-10.0, 10.0))
@example(1.23456789e8, 0.0)
def test_one_term_keeps_its_variance_far_from_the_origin(alpha, theta):
    # the moments are taken about the first term's centre, so its mean does
    # not cancel the variance away
    state = SuperpositionState.from_terms(BENCH_FRAME, [CoherentTerm(1.0, alpha)])
    assert quadrature_moments(state, theta)[1] == 0.5


def test_a_far_coherent_state_keeps_its_map_and_width():
    state = SuperpositionState.from_terms(BENCH_FRAME, [CoherentTerm(1.0, 1.23456789e8)])
    assert quadrature_moments(state, 0.0) == (246913578.0, 0.5)
    # 1 - 2.8e-10 measured; the mean's 2.5e8 costs the grid its low digits
    assert abs(wigner_map(state, 64).integral() - 1.0) <= 1e-9
    field = propagate_analytic(state, 0.01)
    assert abs(field.rms_width() - field.beam.width) <= 2.0 * np.finfo(float).eps * field.beam.width


def test_normalization_factor_values(angle_w0):
    # quadrature-verified norms of sqrt(T)|0> + e^{i phi} sqrt(1-T)|d>
    assert normalization_factor(1.0, 0.3, angle_w0) == pytest.approx(1.0, abs=1e-15)
    assert normalization_factor(0.5, 0.0, angle_w0) == pytest.approx(
        1.606530659713, abs=1e-12
    )
    assert normalization_factor(0.5, math.pi, angle_w0) == pytest.approx(
        0.393469340287, abs=1e-12
    )
    assert normalization_factor(0.3, 0.7 * math.pi, angle_w0) == pytest.approx(
        0.673253392326, abs=1e-12
    )
    assert normalization_factor(0.85, -0.4 * math.pi, angle_w0) == pytest.approx(
        1.133850565754, abs=1e-12
    )
    with pytest.raises(ValidationError):
        normalization_factor(1.5, 0.0, angle_w0)


def test_state_is_normalized(frame, angle_w0):
    for kind in TYPICAL_KINDS:
        _, state = make_typical_state(kind, angle_w0, frame)
        assert abs(inner_product(state, state) - 1.0) < 1e-13

    x = np.linspace(-8.0, 8.0, 4001) * frame.x_scale
    _, cat = make_typical_state("cat_minus", angle_w0, frame)
    total = np.trapezoid(cat.position_intensity(x), x)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_duplicate_terms_merge(frame):
    state = SuperpositionState.from_terms(
        frame,
        [
            CoherentTerm(coeff=0.5, alpha_x=0.3),
            CoherentTerm(coeff=0.25, alpha_x=0.3),
        ],
    )
    assert state.degenerate
    assert len(state.terms) == 1
    assert abs(inner_product(state, state) - 1.0) < 1e-13
    # a term whose weights cancel exactly is dropped, not kept at weight 0
    state = SuperpositionState.from_terms(
        frame,
        [
            CoherentTerm(coeff=1.0, alpha_x=0.0),
            CoherentTerm(coeff=1.0, alpha_x=1.0),
            CoherentTerm(coeff=-1.0, alpha_x=1.0),
        ],
    )
    assert state.degenerate
    assert [(t.coeff, t.alpha_x) for t in state.terms] == [(1.0, 0.0)]
    with pytest.raises(ValidationError):
        SuperpositionState.from_terms(
            frame,
            [
                CoherentTerm(coeff=1.0, alpha_x=0.3),
                CoherentTerm(coeff=-1.0, alpha_x=0.3),
            ],
        )
    with pytest.raises(ValidationError):
        SuperpositionState.from_terms(frame, [])
    # non-finite coefficients and amplitudes are refused before any arithmetic
    for bad in (
        {"coeff": math.nan},
        {"coeff": complex(1.0, math.inf)},
        {"alpha_x": math.nan},
        {"alpha_x": -math.inf},
        {"alpha_y": complex(0.0, math.nan)},
    ):
        with pytest.raises(ValidationError):
            bad_term = CoherentTerm(**{"coeff": 1.0, "alpha_x": 0.3, **bad})
            SuperpositionState.from_terms(
                frame, [CoherentTerm(coeff=0.5, alpha_x=0.0), bad_term]
            )


def test_cat_coefficients_enumeration(angle_w0):
    # projection of (T, phi) = (0.3, 0.7 pi) onto the cat dyad; values
    # from the 2x2 Gram enumeration oracle
    params = QubitParams(T=0.3, phi=0.7 * math.pi, d=0.12e-3)
    g_even, g_odd = cat_coefficients(params, angle_w0)
    assert g_even == pytest.approx(0.061109721912 + 0.739344592258j, abs=1e-11)
    assert g_odd == pytest.approx(0.561920975758 - 0.365896150280j, abs=1e-11)
    assert abs(g_even) ** 2 + abs(g_odd) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cat_coefficients_poles(frame, angle_w0):
    for kind, which in (("cat_plus", 0), ("cat_minus", 1)):
        params, _ = make_typical_state(kind, angle_w0, frame)
        coeffs = cat_coefficients(params, angle_w0)
        assert abs(coeffs[which]) == pytest.approx(1.0, abs=1e-12)
        assert abs(coeffs[1 - which]) == pytest.approx(0.0, abs=1e-12)


class TestBlochMap:
    def test_anchor_states(self, frame, angle_w0):
        chat, shat = angle_w0.cos_theta_d, angle_w0.sin_theta_d
        anchors = {
            "vac": (chat, 0.0, shat),
            "coh": (chat, 0.0, -shat),
            "cat_plus": (1.0, 0.0, 0.0),
            "cat_minus": (-1.0, 0.0, 0.0),
            "x_minus": (0.0, 0.0, 1.0),
            "x_plus": (0.0, 0.0, -1.0),
            "p_minus": (0.0, -1.0, 0.0),
            "p_plus": (0.0, 1.0, 0.0),
        }
        for kind, ref in anchors.items():
            params, _ = make_typical_state(kind, angle_w0, frame)
            b = params_to_bloch(params, angle_w0)
            assert (b.xq, b.yq, b.zq) == pytest.approx(ref, abs=1e-12), kind

    def test_vacuum_approaches_north_pole(self, frame):
        # d = 6 w0: cos(theta_d) = exp(-18) ~ 1.5e-8
        angle = OverlapAngle.from_displacement(6.0 * 0.12e-3, 0.12e-3)
        params, _ = make_typical_state("vac", angle, frame)
        b = params_to_bloch(params, angle)
        assert (b.xq, b.yq, b.zq) == pytest.approx((0.0, 0.0, 1.0), abs=1e-6)

    def test_round_trip_sphere(self, frame):
        rng = np.random.default_rng(0)
        for theta_frac in (0.25, 0.40, 0.45):
            angle = OverlapAngle.from_theta(theta_frac * math.pi)
            for _ in range(120):
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                b = BlochVector(*v)
                params = bloch_to_params(b, angle, frame)
                back = params_to_bloch(params, angle)
                assert back.as_array() == pytest.approx(b.as_array(), abs=1e-10)

    def test_unit_length_enforced(self):
        nan = math.nan
        for v in ((0.5, 0.5, 0.5), (nan, 0.0, 0.0), (0.0, nan, 1.0), (nan, nan, nan)):
            with pytest.raises(ValidationError):
                BlochVector(*v)

    def test_bloch_example(self, frame):
        # (0, -1, 0) at alpha = 1.1 resolves to the odd momentum state
        angle = OverlapAngle.from_alpha(1.1)
        params = bloch_to_params(BlochVector(0.0, -1.0, 0.0), angle, frame)
        assert params.T == pytest.approx(0.5, abs=1e-12)
        assert params.phi_signed / math.pi == pytest.approx(-0.5964, abs=1e-4)


def test_qubit_params_validation():
    with pytest.raises(ValidationError):
        QubitParams(T=-0.1, phi=0.0, d=1e-4)
    with pytest.raises(ValidationError):
        QubitParams(T=0.5, phi=0.0, d=-1e-4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            QubitParams(T=0.5, phi=bad, d=1e-4)


def test_tilt_knob_adds_momentum(frame, angle_w0):
    # tilt_alpha shifts the moving arm in Im(alpha): coherent arm alone
    # picks up mean_P = 2 tilt
    params = QubitParams(T=0.0, phi=0.0, d=frame.w0)
    state = make_qubit_state(params, frame, tilt_alpha=0.21)
    mean_p, _ = quadrature_moments(state, math.pi / 2.0)
    assert mean_p == pytest.approx(0.42, abs=1e-12)


# ----------------------------------------------------------------------
# Properties of the pair-array core on random 1-4 term states

@given(superpositions(), superpositions())
def test_inner_product_is_hermitian_and_normalized(a, b):
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12
    assert abs(inner_product(a, a) - 1.0) < 1e-12
    assert abs(inner_product(b, b) - 1.0) < 1e-12


@given(st.lists(superpositions(), min_size=1, max_size=4))
def test_basis_gram_is_hermitian_with_unit_diagonal(states):
    gram = BasisSet(name="random", states=tuple(states)).gram
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-12
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-12
    # entry (i, j) is <b_i|b_j>, not its transpose
    direct = np.array([[inner_product(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - direct)) < 1e-12


@given(superpositions())
def test_pair_algebra_is_cached_read_only(state):
    # the same fields with nothing cached, and two builds from the same terms
    bare = SuperpositionState(state.frame, state.terms, state.norm, state.degenerate)
    twin, again = (SuperpositionState.from_terms(state.frame, state.terms) for _ in range(2))
    assert bare == state and hash(bare) == hash(state)
    for s in (state, bare, twin):
        for got, want in zip((s.gram, s.pair_overlaps, s.pair_weights), pair_algebra(s)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        arrays = (s.coeffs(), s.alphas_x(), s.alphas_y(), s.gram, s.pair_overlaps, s.pair_weights)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0
    # filled caches or not, equality and hashing see the fields alone
    assert bare == state and hash(bare) == hash(state)
    assert twin == again and hash(twin) == hash(again)
    assert "pair_overlaps" in vars(twin) and "pair_overlaps" not in vars(again)


def _count_overlaps(monkeypatch) -> list:
    """Count the library's coherent_overlap calls, with no Gram cached yet."""
    overlap = tmcat.states.coherent_overlap
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return overlap(a, b)

    tmcat.states._beam_grams.cache_clear()
    monkeypatch.setattr(tmcat.states, "coherent_overlap", counted)
    return calls


def test_moments_reuse_the_pair_algebra(frame, angle_w0, monkeypatch):
    calls = _count_overlaps(monkeypatch)
    _, state = make_typical_state("p_plus", angle_w0, frame)
    # the x and y overlaps behind the norm, kept for every later pair sum
    assert len(calls) == 2
    # a state on the same beams shares them
    _, other = make_typical_state("p_minus", angle_w0, frame)
    assert len(calls) == 2
    assert quadrature_moments(state, 0.3) == quadrature_moments(state, 0.3)
    assert quadrature_moments(other, 0.3) == quadrature_moments(other, 0.3)
    assert len(calls) == 2


def test_profile_sweep_evaluates_one_gram(frame, monkeypatch):
    # every point of a (T, phi) sweep is a state on the same two beams
    calls = _count_overlaps(monkeypatch)
    path = [(0.2 + 0.07 * k, 0.8 * k) for k in range(8)]
    assert len(profile_sweep(path, 0.9 * frame.w0, frame)) == 8
    assert len(calls) <= 2


def _assert_two_step_bits(state, terms):
    want = two_step_state(terms)
    got = {"gram": state.gram, "gram_y": state._gram_y, "norm": np.array(state.norm),
           "coeffs": state.coeffs(), "pair_overlaps": state.pair_overlaps,
           "pair_weights": state.pair_weights}
    for name, array in got.items():
        assert array.tobytes() == np.asarray(want[name]).tobytes(), name


@given(superpositions(), st.data())
def test_states_on_the_same_beams_share_their_grams(state, data):
    # two weightings of one set of beams: one pair of Gram objects, and every
    # matrix, the norm and the coefficients bit-equal to the two-step build,
    # whether the cache starts empty or already holds the beams
    weights = data.draw(st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False),
        min_size=len(state.terms), max_size=len(state.terms)))
    reweighted = [CoherentTerm(w, t.alpha_x, t.alpha_y) for w, t in zip(weights, state.terms)]
    for cold in (True, False):
        if cold:
            tmcat.states._beam_grams.cache_clear()
        first = SuperpositionState.from_terms(state.frame, state.terms)
        try:
            second = SuperpositionState.from_terms(state.frame, reweighted)
        except ValidationError:
            continue  # the new weights cancel; nothing to share
        assert second.gram is first.gram and second._gram_y is first._gram_y
        _assert_two_step_bits(first, state.terms)
        _assert_two_step_bits(second, reweighted)
    assert tmcat.states._beam_grams.cache_info().maxsize <= 16


def test_signed_zero_beams_get_their_own_grams(frame):
    # complex keys would take -0.0 for 0.0; the exact bytes keep them apart
    grams = tmcat.states._beam_grams
    grams.cache_clear()
    states = []
    for zero in (0.0, -0.0):
        terms = [CoherentTerm(0.6, complex(zero, zero), complex(0.0, zero)),
                 CoherentTerm(0.8j, 0.7 + 0.2j, complex(0.0, zero))]
        states.append(SuperpositionState.from_terms(frame, terms))
        _assert_two_step_bits(states[-1], terms)
    assert grams.cache_info().currsize == 2
    assert states[0].gram is not states[1].gram
    assert np.signbit(states[1].alphas_x()[0].real)


@given(superpositions(), st.integers(-600, 600))
def test_weights_normalize_at_any_scale(state, k):
    # scaling every weight by 2^k is exact, so the normalized terms keep every
    # bit, the norm scales by 4^k (inf past the float range), and nothing warns;
    # a part that 2^k would carry below the normal range has no exact scaling
    parts = [x for t in state.terms for x in (t.coeff.real, t.coeff.imag)]
    assume(all(x == 0.0 or abs(x) > 2.0**-400 for x in parts))
    base = SuperpositionState.from_terms(state.frame, state.terms)
    _assert_two_step_bits(base, state.terms)
    scaled = [CoherentTerm(2.0**k * t.coeff, t.alpha_x, t.alpha_y) for t in state.terms]
    other = SuperpositionState.from_terms(state.frame, scaled)
    assert other.coeffs().tobytes() == base.coeffs().tobytes()
    assert other.norm == base.norm * 2.0**k * 2.0**k


def test_weights_far_from_one_normalize(frame):
    # 1e200 overflowed the pair sum to a zero coefficient, and two beams
    # weighted 1e-8 each were refused as cancelling; weights from 2^1023 up
    # take the largest power-of-two shift
    big = (1e200, 1e300, 1e308, 1.7976931348623157e308)
    for weights in ((1e200,), (1e-8, 1e-8), (1e300, -1e300j), (5e-324, 5e-324j),
                    (1e308,), (1e308, -1e308j), (1.7976931348623157e308, -1.7976931348623157e308j)):
        terms = [CoherentTerm(w, a) for w, a in zip(weights, (0.3, -0.5))]
        state = SuperpositionState.from_terms(frame, terms)
        assert abs(inner_product(state, state) - 1.0) < 1e-15
        assert all(abs(t.coeff) > 0.5 for t in state.terms)
        assert (state.norm == math.inf) == (abs(weights[0]) in big)


def test_cancellation_is_judged_against_the_weights(frame):
    # the pair sum of an odd cat, weights +-s on beams +-a, falls as 8 s^2 a^2;
    # it cancels when that is within a few roundings of 2 s^2, at every scale s
    for s in (1e-8, 1.0, 1e8):
        cat = [CoherentTerm(s, 2.5e-8), CoherentTerm(-s, -2.5e-8)]
        assert SuperpositionState.from_terms(frame, cat).norm > 4e-15 * s * s
        with pytest.raises(ValidationError, match="superposition cancels"):
            SuperpositionState.from_terms(frame, [CoherentTerm(s, 1e-8), CoherentTerm(-s, -1e-8)])
    # the bound is 1e-15 of the sum of |c|^2: a pair sum of 1.8e-15 from
    # weights +-1 is refused, while weights that sum to 1 keep it
    with pytest.raises(ValidationError, match="^state norm 1.7763568394002505e-15 vanishes"):
        SuperpositionState.from_terms(frame, [CoherentTerm(1.0, 1.5e-8), CoherentTerm(-1.0, -1.5e-8)])


@pytest.mark.parametrize("spec, norm", [
    (((1.0, 0.3), (-1.0, 0.3)), 0.0),
    (((1.0, 0.0), (-1.0, 1e-8)), 2.220446049250313e-16),
    (((0.6, 0.0), (-0.6, 2e-8)), 3.3306690738754696e-16),
    (((1.5j, 0.2), (-1.5j, 0.2 + 1e-8j)), 8.881784197001252e-16),
    (((0.3, 0.0), (0.4, 1.0), (-0.3, 1e-9), (-0.4, 1.0 + 1e-9)), -1.3877787807814457e-17),
])
def test_cancelling_weights_are_refused(frame, spec, norm):
    # weights of order 1 whose sum cancels, with the norm the message has named
    terms = [CoherentTerm(c, alpha) for c, alpha in spec]
    with pytest.raises(ValidationError) as info:
        SuperpositionState.from_terms(frame, terms)
    assert str(info.value) == f"state norm {norm!r} vanishes; the requested superposition cancels"


@pytest.mark.parametrize("scale, ratio", [
    (1e200, 5.027924183890532e-29),  # the norm overflowed, and read "state norm inf"
    (1e-200, 5.007885650240038e-29),  # the norm underflowed, and read "state norm 0.0"
])
def test_a_shifted_norm_is_named_against_the_given_weights(frame, scale, ratio):
    # weights beyond 2^+-256 are shifted before the pair sum, and their norm
    # can leave the float range: a refusal names it as a fraction of the given
    # terms' sum |c|^2, here that of a merged weight 1e-14 of the given ones
    terms = [CoherentTerm(scale, 0.3), CoherentTerm(-scale * (1 + 1e-14), 0.3)]
    with pytest.raises(ValidationError) as info:
        SuperpositionState.from_terms(frame, terms)
    assert str(info.value) == (f"state norm {ratio!r} of the given terms' sum |c|^2 "
                               "vanishes; the requested superposition cancels")


def test_a_merge_that_leaves_a_rounding_residue_is_refused(frame):
    # e^{i pi} sqrt(1/2) leaves 1.2e-16 sqrt(1/2) i of the merged weight at
    # d = 0; cancellation is judged against the given terms' sum |c|^2, so
    # that residue is refused as the two beams at d = 1e-300 are
    for d in (0.0, 1e-300):
        with pytest.raises(ValidationError, match="superposition cancels"):
            make_qubit_state(QubitParams(T=0.5, phi=math.pi, d=d), frame)
    with pytest.raises(ValidationError, match=re.escape("state norm 9.999999999999999e-33 ")):
        SuperpositionState.from_terms(frame, [CoherentTerm(1, 0), CoherentTerm(-1 + 1e-16j, 0)])
    # a merge that keeps its weight is a single degenerate term, as before
    state = make_qubit_state(QubitParams(T=0.5, phi=0.0, d=0.0), frame)
    assert state.degenerate and state.terms == (CoherentTerm(1.0, 0.0),)


@given(superpositions())
def test_intensities_integrate_to_one(state):
    w0 = state.frame.w0
    x = np.linspace(-9.0 * w0, 9.0 * w0, 2001)
    p = np.linspace(-16.0 * HBAR / w0, 16.0 * HBAR / w0, 2001)
    assert np.trapezoid(state.position_intensity(x), x) == pytest.approx(1.0, abs=1e-9)
    assert np.trapezoid(state.momentum_intensity(p), p) == pytest.approx(1.0, abs=1e-9)


@given(superpositions(), st.floats(0.0, 1.0))
def test_maps_and_frames_keep_the_bits_of_the_pair_product(state, visibility):
    # the pair contraction multiplies the factors in the order of the one
    # BLAS product it replaced, so maps and frames, and with them the counts
    # of seeded CCD frames, keep every bit
    w0 = state.frame.w0
    x = np.linspace(-5.0 * w0, 5.0 * w0, 37)
    p = np.linspace(-6.0 * HBAR / w0, 6.0 * HBAR / w0, 29)
    y = np.linspace(-3.0 * w0, 3.0 * w0, 23)
    assert wigner_of_state(state, x, p).tobytes() == wigner_pair_product(state, x, p).tobytes()
    frame = _intensity_2d(state, x, y, visibility)
    assert frame.tobytes() == intensity_2d_pair_product(state, x, y, visibility).tobytes()


@given(superpositions(), st.floats(0.0, 1.0))
def test_pair_contractions_return_owned_contiguous_floats(state, visibility):
    # both branches hand back the real part as an array of its own, which
    # callers scale in place; no view keeps the complex sum alive
    w0 = state.frame.w0
    x = np.linspace(-5.0 * w0, 5.0 * w0, 37)
    y = np.linspace(-3.0 * w0, 3.0 * w0, 23)
    fx = gaussian_mode_1d(state.alphas_x()[:, None], w0, x)
    fy = gaussian_mode_1d(state.alphas_y()[:, None], w0, y)
    j, k, _ = _pairs(fx.shape[0])
    rows = np.ascontiguousarray((fy[j] * np.conj(fy[k])).T)
    p = np.linspace(-6.0 * HBAR / w0, 6.0 * HBAR / w0, 29)
    for got in (
        _pair_contract(state.pair_weights, None, fx[j], np.conj(fx[k])),
        _pair_contract(state.pair_weights, rows, fx[j], np.conj(fx[k])),
        _intensity_2d(state, x, y, visibility),
        wigner_of_state(state, x, p),
    ):
        assert got.dtype == np.float64 and got.flags.owndata
        assert got.flags.c_contiguous and got.flags.writeable


# row scales of the pair-product factors: zero, subnormal, tiny, unit and huge
_ROW_SCALES = (0.0, 5e-324, 2.0**-1070, 1e-300, 1.0, 1.0, 1.0, 1e300)


@pytest.mark.skipif(
    not dispatch.switchable() or "OPENBLAS_CORETYPE" in os.environ,
    reason="the blocks equal one product bit for bit on OpenBLAS's AVX-512 kernels; "
    "the Haswell-class kernels round some edge tiles differently",
)
@given(st.integers(1, 4), st.integers(1, 1100), st.integers(0, 9), st.integers(0, 2**32 - 1))
@example(2, 256, 5, 1)  # the last of 86 rows would be a block of its own
@example(4, 101, 7, 1)
@example(2, 720, 8, 1)  # a lab frame
def test_blocked_pair_product_keeps_the_bits_of_one_product(terms, n, edge, seed):
    """_pair_contract's row blocks equal the one product left @ pair bit for
    bit.  1-4 terms give 1, 3, 6 or 10 pairs; the row count lies at and
    around the block edges, where a last block of one row would go to gemv."""
    pairs = terms * (terms + 1) // 2
    b = max(3, tmcat.states._BLOCK_MACS // (pairs * n))
    m = (1, 2, 3, b - 1, b, b + 1, b + 2, 2 * b + 1, 480, 1024)[edge]
    rng = np.random.default_rng(seed)

    def factor(rows, cols, scales):
        z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        return z * rng.choice(scales, size=(rows, 1))

    weights = factor(terms, terms, (1.0,))
    # huge rows only on the left, so that no product overflows
    left, right = factor(m, pairs, _ROW_SCALES), factor(pairs, n, _ROW_SCALES[:-1])
    j, k, count = _pairs(terms)
    want = (left @ ((weights[j, k] * count)[:, None] * right)).real
    assert _pair_contract(weights, left, right).tobytes() == want.tobytes()


def _centers(ax, w0):
    return math.sqrt(2.0) * w0 * ax.real


@given(
    superpositions(),
    st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40),
    st.integers(0, 3),
    st.floats(1e-3, 3.0),
)
def test_densities_keep_their_bits_near_and_vanish_far_out(state, offsets, term, z_over_zr):
    # within 40 w0 of a term center each density keeps the bits of the form
    # that squares every position as given; far out it is exactly 0, with no
    # overflow, invalid operation or division by zero on the way
    w0 = state.frame.w0
    s = w0**2 / (2.0 * HBAR)
    off = w0 * np.array(offsets)
    ax = state.alphas_x()
    field = propagate_analytic(state, z_over_zr * state.frame.z_r)
    turned, m = field._turned()
    x = _centers(ax, w0)[term % ax.size] + off
    p = (_centers(-1j * ax, w0)[term % ax.size] + off) / s
    u = _centers(turned, w0)[term % ax.size] + off
    cases = (
        (state.position_intensity(x), density_unbounded(state, ax, x)),
        (state.momentum_intensity(p), s * density_unbounded(state, -1j * ax, s * p)),
        (field.intensity(m * u), density_unbounded(state, turned, m * u / m) / m),
    )
    for got, want in cases:
        assert got.tobytes() == want.tobytes()
    far = np.array([1e200, -1e200, 1e300, -1e308, np.inf, -np.inf])
    with np.errstate(all="raise", under="ignore"):
        for density in (state.position_intensity, state.momentum_intensity, field.intensity):
            assert np.all(density(far) == 0.0)


@given(superpositions())
def test_densities_match_the_full_pair_sum(state):
    # densities sum the pairs j <= k without BLAS; the n^2 BLAS pair sum they
    # replaced agrees to rounding
    w0 = state.frame.w0
    x = np.linspace(-9.0 * w0, 9.0 * w0, 401)
    s = w0**2 / (2.0 * HBAR)
    p = np.linspace(-16.0 * HBAR / w0, 16.0 * HBAR / w0, 401)
    cases = (
        (state.position_intensity(x), state.alphas_x(), x, 1.0),
        (state.momentum_intensity(p), -1j * state.alphas_x(), s * p, s),
    )
    for got, ax, at, scale in cases:
        want = scale * full_pair_sum(state.pair_weights, gaussian_mode_1d(ax[:, None], w0, at))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


@given(superpositions())
def test_wigner_matches_chord_quadrature(state):
    grid = PhaseSpaceGrid(x_min=-4.5, x_max=4.5, nx=30, p_min=-4.0, p_max=4.0, np_=30)
    frame = state.frame
    closed = HBAR * wigner_of_state(
        state, frame.x_scale * grid.x_axis(), frame.p_scale * grid.p_axis()
    )
    assert np.max(np.abs(closed - wigner_chord_quadrature(state, grid))) < 1e-8


def momentum_mode(alpha, w0, p):
    """Reference: the momentum-space wavefunction of ``gaussian_mode_1d``,
    (w0^2/(2 pi hbar^2))^{1/4} exp(-w0^2 (p/hbar - kappa)^2 / 4)
    exp(-i (p d / hbar - kappa d / 2))."""
    d = math.sqrt(2.0) * w0 * alpha.real
    kappa = 2.0 * math.sqrt(2.0) * alpha.imag / w0
    norm = (w0**2 / (2.0 * math.pi * HBAR**2)) ** 0.25
    envelope = norm * np.exp(-(w0**2) * (p / HBAR - kappa) ** 2 / 4.0)
    return envelope * np.exp(-1j * (p * d / HBAR - kappa * d / 2.0))


@given(superpositions())
def test_momentum_intensity_matches_momentum_mode_sum(state):
    w0 = state.frame.w0
    p = np.linspace(-16.0 * HBAR / w0, 16.0 * HBAR / w0, 801)
    c, ay = state.coeffs(), state.alphas_y()
    weights = c[:, None] * np.conj(c)[None, :] * coherent_overlap(ay[:, None], ay[None, :])
    f = momentum_mode(state.alphas_x()[:, None], w0, p)
    ref = np.einsum("jk,jp,kp->p", weights, f, np.conj(f)).real
    got = state.momentum_intensity(p)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


def _philox_after(counter, used, via_poisson, halves):
    """A Philox stream from counter that has spent used raw words, drawn raw
    or as Poisson zeros (one word each), then 0-2 32-bit halves: one leaves
    the other half pending, two leave has_uint32 = 0 beside a spent half."""
    rng = np.random.Generator(np.random.Philox(7, counter=counter))
    if via_poisson:
        rng.poisson(np.full(used, 1e-300))
    else:
        rng.bit_generator.random_raw(used, output=False)
    rng.integers(0, 2**32, dtype=np.uint32, size=halves)
    assert rng.bit_generator.state["has_uint32"] == halves % 2
    return rng


def _state_json(rng) -> str:
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


_SKIPS = st.integers(0, 10**6)


# words left in the buffer after (used, halves): (0, 0) 0, (3, 0) 1, (2, 1) 1,
# (1, 1) 2, (1, 0) 3, (4, 1) 3, (1, 2) 2; the examples skip 0, 1, that count, + 1,
# + 4 and + 5 of them, and 4k +- 1, across counter carries and the 2^256 wrap
@given(
    st.sampled_from((0, 2**64 - 2, 2**256 - 3)),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 2),
    st.one_of(_SKIPS, _SKIPS.map(np.int64)),
)
@example(0, 0, False, 0, 0)
@example(0, 0, False, 0, np.int64(1))
@example(0, 3, False, 0, 1)
@example(0, 3, False, 0, 2)
@example(2**64 - 2, 2, True, 1, 1)
@example(2**64 - 2, 2, True, 1, np.int64(2))
@example(0, 1, True, 1, 6)
@example(0, 1, False, 1, 7)
@example(0, 1, False, 0, 3)
@example(0, 1, False, 0, np.int64(4))
@example(2**256 - 3, 4, True, 1, 7)
@example(2**256 - 3, 4, False, 1, 8)
@example(0, 1, False, 0, 4095)
@example(0, 1, True, 2, 6)
@example(0, 1, True, 1, np.int64(4097))
@example(0, 0, False, 0, 2**18 - 1)
@example(0, 0, True, 0, 2**18 + 1)
def test_skip_draws_leaves_the_random_raw_state(counter, used, via_poisson, halves, n):
    """Jumping the counter leaves the state, buffer and pending half that
    drawing n raw words leaves, for n as int or np.int64."""
    rng, twin = (_philox_after(counter, used, via_poisson, halves) for _ in range(2))
    _skip_draws(rng, n)
    twin.bit_generator.random_raw(n, output=False)
    assert _state_json(rng) == _state_json(twin)
    assert rng.bit_generator.random_raw(16).tobytes() == twin.bit_generator.random_raw(16).tobytes()


@pytest.mark.parametrize("coherence", [math.nan, -0.25, 1.5, math.inf, -math.inf])
def test_from_terms_refuses_a_coherence_outside_the_unit_interval(frame, coherence):
    with pytest.raises(ValidationError, match=re.escape(f"[0, 1], got {coherence!r}")):
        SuperpositionState.from_terms(frame, [CoherentTerm(1.0, 0.0)], coherence)


@pytest.mark.parametrize("coherence", [0.0, 0.5, 1.0 - 2.0**-53])
def test_pure_only_operations_refuse_a_mixed_state(frame, coherence):
    beams = [CoherentTerm(1.0, -0.5), CoherentTerm(1.0, 0.5)]  # a displacement-symmetric pair
    mixed = SuperpositionState.from_terms(frame, beams, coherence)
    pure = SuperpositionState.from_terms(frame, beams)
    x = np.linspace(-3.0, 3.0, 7) * frame.w0
    calls = {
        "the x wavefunction": lambda: mixed.x_wavefunction(x),
        "the propagated field": lambda: propagate_analytic(mixed, 0.1).field(x),
        "an inner product": lambda: inner_product(pure, mixed),
        "cat-phase rotation": lambda: rotate_cat_phase(mixed, 0.1),
        "a signal basis": lambda: BasisSet("mixed", (pure, mixed)),
    }
    for what, call in calls.items():
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"{what} needs a pure state, got coherence {coherence!r}"
    with pytest.raises(ValidationError, match="an inner product needs a pure state"):
        inner_product(mixed, pure)
    # the pure state on the same beams passes each of them
    pure.x_wavefunction(x)
    propagate_analytic(pure, 0.1).field(x)
    rotate_cat_phase(pure, 0.1)
    assert inner_product(pure, pure) == pytest.approx(1.0, abs=1e-14)
    assert len(BasisSet("pure", (pure,))) == 1


def test_dephased_mixture_is_the_qubit_at_coherence_zero(frame, angle_w0):
    mix = dephased_mixture(frame.w0, frame)
    assert type(mix) is SuperpositionState and mix.coherence == 0.0
    qubit = make_qubit_state(QubitParams(T=0.5, phi=0.0, d=frame.w0), frame)
    assert [(t.alpha_x, t.alpha_y) for t in mix.terms] == [
        (t.alpha_x, t.alpha_y) for t in qubit.terms
    ]
    assert mix.purity == pytest.approx((1.0 + angle_w0.cos_theta_d**2) / 2.0, rel=1e-14)
    assert np.all(mix.pair_overlaps[~np.eye(2, dtype=bool)] == 0.0)


@given(superpositions())
def test_pure_states_keep_the_bits_of_their_pair_matrices(state):
    """At coherence 1 the pair matrices and the trace are the unmasked
    c_j conj(c_k) g[j, k] products and their raw sum, byte for byte."""
    c = state.coeffs()
    cc = c[:, None] * np.conj(c)[None, :]
    gram, gram_y = state._grams
    assert state.coherence == 1.0
    assert state.pair_weights.tobytes() == (cc * gram_y).tobytes()
    assert state.pair_overlaps.tobytes() == (cc * gram).tobytes()
    again = SuperpositionState.from_terms(state.frame, state.terms)
    assert again.norm == float((cc * gram).real.sum())
    scale = 1.0 / math.sqrt(again.norm)
    assert again.terms == tuple(
        CoherentTerm(t.coeff * scale, t.alpha_x, t.alpha_y) for t in state.terms
    )
    assert 0.0 < state.purity and state.purity == pytest.approx(1.0, abs=1e-12)


_WEIGHTINGS = st.lists(
    st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False),
             min_size=4, max_size=4),
    min_size=1, max_size=9,
)


def _beams(*beams):
    return SuperpositionState.from_terms(BENCH_FRAME, [CoherentTerm(1.0, *b) for b in beams])


@given(superpositions(), _WEIGHTINGS,
       st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_max=True)),
       st.floats(-7.0, 7.0), st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6))
# a stack of one one-term state, where numpy rounds operands of unequal rank apart
@example(_beams((-0.83 + 0.21j, 0.34j)), [[0.01 - 0.64j] * 4], 1.0, 0.3, [0.4])
# four beams at one point: the pair sums, and one mean squared apart by the array square
@example(_beams((-0.21 - 0.66j, 0j), (0.96 + 0.54j, 0.08j), (0.72 - 0.54j, 0.03j),
                (0.9 + 0.16j, -0.08j)),
         [[-0.46 + 0.1j, 0.91 - 0.99j, 0.57 + 0.64j, 0.77 + 0.48j],
          [0.62 + 0.04j, 0.12 - 0.15j, -0.89 + 0.74j, 0.14 - 0.6j],
          [0.01 - 0.03j, -0.29 - 0.31j, 0.08 + 0.25j, 0.22 - 0.08j]], 1.0, -2.8, [-1.1])
@example(_beams((0.07 - 0.59j, 0.52j), (0.26 - 0.02j, -0.07j), (0.81 - 0.96j, -0.7j),
                (0.12 - 0.38j, -0.62j)),
         [[0.99 - 0.27j, -0.42 - 0.47j, -0.67 + 0.53j, 0.22 + 0.04j],
          [-0.19 + 0.85j, -0.63 - 0.16j, -0.35 + 0.59j, -0.84 + 0.84j],
          [0.6 + 0.86j, -0.35 - 0.06j, -0.08 + 0.58j, 0.03 - 0.45j]], 1.0, 1.9, [-0.9])
def test_stacks_keep_the_bits_of_single_states(state, weightings, coherence, theta, xs):
    """1-9 states on one set of 1-4 beams, stacked: their pair arrays, the
    moment core at 0, pi/2 and theta and the BLAS-free pair contraction
    equal each state's own calls bit for bit."""
    states = []
    for weights in weightings:
        terms = [CoherentTerm(w, t.alpha_x, t.alpha_y) for w, t in zip(weights, state.terms)]
        try:
            states.append(SuperpositionState.from_terms(BENCH_FRAME, terms, coherence))
        except ValidationError:
            pass
    assume(states)
    c = np.array([s.coeffs() for s in states])
    gram, gram_y = states[0]._grams
    overlaps, weights = _weighted(c, gram, coherence), _weighted(c, gram_y, coherence)
    ax = state.alphas_x()
    moments = [_moments(overlaps, ax, t) for t in (0.0, math.pi / 2.0, theta)]
    x = np.array(xs) * BENCH_FRAME.w0
    fields = gaussian_mode_1d(ax[:, None], BENCH_FRAME.w0, x)
    j, k, _ = _pairs(ax.size)
    densities = _pair_contract(weights, None, fields[j], np.conj(fields[k]))
    for i, one in enumerate(states):
        assert overlaps[i].tobytes() == one.pair_overlaps.tobytes()
        assert weights[i].tobytes() == one.pair_weights.tobytes()
        for t, stacked in zip((0.0, math.pi / 2.0, theta), moments):
            single = _moments(one.pair_overlaps, ax, t)
            assert [np.asarray(v[i]).tobytes() for v in stacked] == \
                [np.asarray(v).tobytes() for v in single]
            assert (stacked[1][i], stacked[2][i]) == quadrature_moments(one, t)
        single = _pair_contract(one.pair_weights, None, fields[j], np.conj(fields[k]))
        assert densities[i].tobytes() == single.tobytes()
