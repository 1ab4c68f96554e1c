"""State-space layer: overlaps, moments, typical states, Bloch maps.

Frozen reference values come from an independent numeric oracle: the
superposition wavefunction built from first principles on a dense grid,
position moments by trapezoid quadrature and momentum moments through an
explicit Fourier integral (no library formulas involved).
"""

import math

import numpy as np
import pytest
from hypothesis import given
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
    inner_product,
    make_qubit_state,
    make_typical_state,
    normalization_factor,
    params_to_bloch,
    quadrature_moments,
    signed_phase,
    wigner_numeric,
    wigner_of_state,
    wrap_phase,
)
from tmcat.applications import BasisSet

from strategies import superpositions


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


def test_phase_helpers():
    assert wrap_phase(2.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert signed_phase(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert signed_phase(math.pi) == pytest.approx(math.pi)


class TestOverlapAngle:
    def test_d_equals_w0(self, angle_w0):
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

    def test_degenerate_angles_rejected(self):
        with pytest.raises(ValidationError):
            OverlapAngle.from_theta(0.0)
        with pytest.raises(ValidationError):
            OverlapAngle.from_theta(1e-8)  # cos rounds to 1.0
        with pytest.raises(ValidationError):
            OverlapAngle.from_alpha(0.0)


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
        with pytest.raises(ValidationError):
            BlochVector(0.5, 0.5, 0.5)

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
def test_intensities_integrate_to_one(state):
    w0 = state.frame.w0
    x = np.linspace(-9.0 * w0, 9.0 * w0, 2001)
    p = np.linspace(-16.0 * HBAR / w0, 16.0 * HBAR / w0, 2001)
    assert np.trapezoid(state.position_intensity(x), x) == pytest.approx(1.0, abs=1e-9)
    assert np.trapezoid(state.momentum_intensity(p), p) == pytest.approx(1.0, abs=1e-9)


@given(superpositions())
def test_wigner_matches_chord_quadrature(state):
    grid = PhaseSpaceGrid(x_min=-4.5, x_max=4.5, nx=30, p_min=-4.0, p_max=4.0, np_=30)
    frame = state.frame
    closed = HBAR * wigner_of_state(
        state, frame.x_scale * grid.x_axis(), frame.p_scale * grid.p_axis()
    )
    assert np.max(np.abs(closed - wigner_numeric(state, grid).values)) < 1e-8


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
