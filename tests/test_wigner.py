"""Phase-space layer: closed-form maps vs chord quadrature, marginals.

The chord-transform integrator is the independent oracle for the closed
form: it never sees the pair-sum formula, only wavefunction products.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tmcat.wigner
from tmcat import (
    CoherentTerm,
    HBAR,
    LAB_FOCAL_LENGTH,
    NumericsError,
    PhaseSpaceGrid,
    QubitParams,
    SuperpositionState,
    TYPICAL_KINDS,
    ValidationError,
    WignerMap,
    make_qubit_state,
    make_typical_state,
    negativity_scan,
    normalization_factor,
    quadrature_moments,
    wigner_map,
    wigner_of_state,
)
from tmcat.virtual_lab import _momentum_panel
from tmcat.wigner import _validate_map

from oracles import (
    marginal_momentum,
    marginal_position,
    wigner_chord_quadrature,
    wigner_closed_form,
)


@pytest.fixture(scope="module")
def cat_minus(frame, angle_w0):
    return make_typical_state("cat_minus", angle_w0, frame)


def nondim_axes(frame, grid):
    return grid.x_axis() * frame.x_scale, grid.p_axis() * frame.p_scale


class TestClosedVsNumeric:
    GRID = PhaseSpaceGrid(x_min=-2.0, x_max=3.5, nx=40, p_min=-3.0, p_max=3.0, np_=40)

    def test_cat_minus(self, frame, cat_minus):
        _, state = cat_minus
        x, p = nondim_axes(frame, self.GRID)
        closed = wigner_of_state(state, x, p) * HBAR
        numeric = wigner_chord_quadrature(state, self.GRID)
        assert np.max(np.abs(closed - numeric)) < 1e-8

    def test_three_term_tilted_state(self, frame):
        terms = [
            CoherentTerm(coeff=0.6, alpha_x=0.25 + 0.35j),
            CoherentTerm(coeff=0.5 * np.exp(0.8j), alpha_x=-0.3 + 0.55j),
            CoherentTerm(coeff=0.4 * np.exp(-2.1j), alpha_x=0.9 - 0.2j),
        ]
        state = SuperpositionState.from_terms(frame, terms)
        x, p = nondim_axes(frame, self.GRID)
        closed = wigner_of_state(state, x, p) * HBAR
        numeric = wigner_chord_quadrature(state, self.GRID)
        assert np.max(np.abs(closed - numeric)) < 1e-8

    def test_closed_form_params_route(self, frame):
        # pointwise closed form on a mesh must agree with the state route
        params = QubitParams(T=0.3, phi=0.7 * math.pi, d=frame.w0)
        state = make_qubit_state(params, frame)
        x, p = nondim_axes(frame, self.GRID)
        via_params = wigner_closed_form(params, frame, x[:, None], p[None, :])
        via_state = wigner_of_state(state, x, p)
        assert np.max(np.abs(via_params - via_state)) * HBAR < 1e-13


def test_exact_midpoint_values(frame, angle_w0):
    # at (d/2, 0) the direct terms contribute cos(theta_d)/N and the
    # interference term +-1/N, so pi hbar W = +-1 exactly for the cats
    d = angle_w0.displacement(frame.w0)
    for kind, ref in (("cat_plus", 1.0), ("cat_minus", -1.0)):
        _, state = make_typical_state(kind, angle_w0, frame)
        w = wigner_of_state(state, np.array([d / 2.0]), np.array([0.0]))[0, 0]
        assert w * math.pi * HBAR == pytest.approx(ref, abs=1e-12)


def test_vacuum_peak(frame, angle_w0):
    _, vac = make_typical_state("vac", angle_w0, frame)
    w = wigner_of_state(vac, np.array([0.0]), np.array([0.0]))[0, 0]
    assert w * math.pi * HBAR == pytest.approx(1.0, abs=1e-12)


def test_cat_plus_reflection_symmetry(frame, angle_w0):
    # even cat is symmetric under reflection about the midpoint x = d/2
    _, state = make_typical_state("cat_plus", angle_w0, frame)
    d = angle_w0.displacement(frame.w0)
    x = np.linspace(-2.0, 2.0, 41) * frame.x_scale
    p = np.linspace(-2.5, 2.5, 31) * frame.p_scale
    left = wigner_of_state(state, d / 2.0 - x, p)
    right = wigner_of_state(state, d / 2.0 + x, p)
    assert np.max(np.abs(left - right)) * HBAR < 1e-10


@pytest.mark.parametrize("kind", TYPICAL_KINDS)
def test_auto_map_normalized(frame, angle_w0, kind):
    _, state = make_typical_state(kind, angle_w0, frame)
    result = wigner_map(state, n=128)
    assert result.integral() == pytest.approx(1.0, abs=1e-6)
    # pointwise floor: W >= -1/(pi hbar), nondim -1/pi
    assert result.min_value() >= -(1.0 / math.pi) * (1.0 + 1e-9)


def test_min_location_of_cat_minus(frame, angle_w0):
    _, state = make_typical_state("cat_minus", angle_w0, frame)
    result = wigner_map(state, n=192)
    x_min, p_min = result.min_location()
    # nondim minimum sits at the midpoint (alpha, 0)
    assert x_min == pytest.approx(angle_w0.alpha, abs=0.05)
    assert p_min == pytest.approx(0.0, abs=0.05)
    assert result.min_value() * math.pi == pytest.approx(-1.0, abs=5e-3)


def test_si_map_matches_nondim(frame, angle_w0):
    _, state = make_typical_state("cat_plus", angle_w0, frame)
    nd = wigner_map(state, n=96)
    si = wigner_map(state, n=96, si_units=True)
    assert si.integral() == pytest.approx(1.0, abs=1e-6)
    # same grid in scaled coordinates; values differ by the hbar Jacobian
    assert np.max(np.abs(si.values * HBAR - nd.values)) < 1e-12
    assert si.grid.x_axis()[0] == pytest.approx(
        nd.grid.x_axis()[0] * frame.x_scale, rel=1e-12
    )


class TestMarginals:
    def test_position_matches_intensity(self, frame, angle_w0):
        params = QubitParams(T=0.3, phi=0.7 * math.pi, d=frame.w0)
        state = make_qubit_state(params, frame)
        x = np.linspace(-5.0, 7.0, 601) * frame.x_scale
        direct = state.position_intensity(x)
        from_wigner = marginal_position(params, frame, x)
        assert np.max(np.abs(direct - from_wigner)) * frame.x_scale < 1e-12

    def test_momentum_matches_intensity(self, frame, angle_w0):
        params = QubitParams(T=0.3, phi=0.7 * math.pi, d=frame.w0)
        state = make_qubit_state(params, frame)
        p = np.linspace(-6.0, 6.0, 601) * frame.p_scale
        direct = state.momentum_intensity(p)
        from_wigner = marginal_momentum(params, frame, p)
        assert np.max(np.abs(direct - from_wigner)) * frame.p_scale < 1e-12

    def test_both_normalized(self, frame, angle_w0):
        params = QubitParams(T=0.42, phi=-0.3 * math.pi, d=frame.w0)
        state = make_qubit_state(params, frame)
        x = np.linspace(-8.0, 10.0, 4001) * frame.x_scale
        p = np.linspace(-9.0, 9.0, 4001) * frame.p_scale
        assert np.trapezoid(state.position_intensity(x), x) == pytest.approx(
            1.0, abs=1e-10
        )
        assert np.trapezoid(state.momentum_intensity(p), p) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_cat_nodes(self, frame, angle_w0):
        # odd cat: position node at the midpoint; even cat: momentum node
        # at half the fringe period pi hbar / d
        d = angle_w0.displacement(frame.w0)
        cm = make_qubit_state(QubitParams(T=0.5, phi=math.pi, d=d), frame)
        cp = make_qubit_state(QubitParams(T=0.5, phi=0.0, d=d), frame)
        peak = cm.position_intensity(np.array([0.0]))[0]
        node = cm.position_intensity(np.array([d / 2.0]))[0]
        assert node < 1e-9 * peak
        p_node = math.pi * HBAR / d
        peak_p = cp.momentum_intensity(np.array([0.0]))[0]
        node_p = cp.momentum_intensity(np.array([p_node]))[0]
        assert node_p < 1e-9 * peak_p

    def test_momentum_fringe_period(self, frame):
        # interference comb in the momentum density repeats at 2 pi hbar/d
        d = 2.5 * frame.w0
        state = make_qubit_state(QubitParams(T=0.5, phi=0.0, d=d), frame)
        period = 2.0 * math.pi * HBAR / d
        p = np.linspace(0.0, period, 201)
        envelope = np.exp(-frame.w0**2 * p**2 / (2.0 * HBAR**2))
        fringe = state.momentum_intensity(p) / envelope
        # strip the envelope: the remaining ratio is periodic
        assert fringe[0] == pytest.approx(fringe[-1], rel=1e-9)

    @given(
        t=st.floats(0.0, 1.0),
        phi=st.floats(-math.pi, math.pi, exclude_min=True),
        alpha=st.floats(0.2, 3.0),
    )
    def test_pair_core_matches_closed_forms(self, frame, t, phi, alpha):
        # every production density reads the pair core; the three-Gaussian
        # closed forms are its independent reference on the qubit family
        params = QubitParams(T=t, phi=phi, d=math.sqrt(2.0) * frame.w0 * alpha)
        state = make_qubit_state(params, frame)
        x = np.linspace(-5.0, 2.0 * alpha + 5.0, 301) * frame.x_scale
        p = np.linspace(-6.0, 6.0, 301) * frame.p_scale

        def assert_close(got, expect):
            peak = np.max(np.abs(expect))
            assert np.max(np.abs(got - expect)) <= 1e-13 * peak

        assert_close(state.position_intensity(x), marginal_position(params, frame, x))
        assert_close(state.momentum_intensity(p), marginal_momentum(params, frame, p))
        panel = _momentum_panel("panel", "qubit", state, frame, LAB_FOCAL_LENGTH)
        scale = HBAR * frame.k / LAB_FOCAL_LENGTH
        assert_close(
            panel.density, scale * marginal_momentum(params, frame, scale * panel.axis)
        )
        assert_close(
            wigner_of_state(state, x, p),
            wigner_closed_form(params, frame, x[:, None], p[None, :]),
        )


def test_heisenberg_floor(frame, angle_w0):
    rng = np.random.default_rng(3)
    for _ in range(15):
        t = float(rng.uniform(0.05, 0.95))
        phi = float(rng.uniform(-math.pi, math.pi))
        params = QubitParams(T=t, phi=phi, d=frame.w0)
        state = make_qubit_state(params, frame)
        _, var_x = quadrature_moments(state, 0.0)
        _, var_p = quadrature_moments(state, math.pi / 2.0)
        assert var_x * var_p >= 0.25 - 1e-12
        # each state keeps its moments: a repeat call returns them as they are
        assert quadrature_moments(state, math.pi / 2.0) is quadrature_moments(
            state, math.pi / 2.0
        )


@pytest.mark.parametrize("theta_l", [math.nan, math.inf, -math.inf])
def test_moments_refuse_non_finite_angles(frame, angle_w0, theta_l):
    _, state = make_typical_state("cat_plus", angle_w0, frame)
    with pytest.raises(ValidationError, match="theta_l must be finite"):
        quadrature_moments(state, theta_l)


@pytest.fixture
def counted_evals(monkeypatch):
    """Grid sizes of every wigner_of_state call the maps make."""
    calls = []

    def counted(state, x, p):
        calls.append((np.size(x), np.size(p)))
        return wigner_of_state(state, x, p)

    monkeypatch.setattr(tmcat.wigner, "wigner_of_state", counted)
    return calls


@pytest.mark.parametrize("kind", ["cat_minus", "p_plus"])
def test_each_state_keeps_its_latest_map(frame, angle_w0, counted_evals, kind):
    _, state = make_typical_state(kind, angle_w0, frame)
    m = wigner_map(state, 128)
    evals = len(counted_evals)
    assert evals >= 1
    # the scan and a repeat call read the kept map: no evaluation, same object
    assert negativity_scan(state, 128)[:2] == (m.min_value(), m.min_location())
    assert wigner_map(state, n=128) is m
    assert len(counted_evals) == evals
    assert not m.values.flags.writeable
    # an equal state keeps nothing yet, and its map has the same bits
    _, fresh = make_typical_state(kind, angle_w0, frame)
    assert fresh == state and hash(fresh) == hash(state)
    assert wigner_map(fresh, 128).values.tobytes() == m.values.tobytes()
    # another grid, or SI units, evaluates again
    for kwargs in ({"n": 96}, {"n": 128, "si_units": True}):
        evals = len(counted_evals)
        assert wigner_map(state, **kwargs) is not m
        assert len(counted_evals) > evals


def test_failed_map_is_not_kept(frame, counted_evals):
    # cat_minus at alpha = 1 on a grid too coarse for its integral
    params = QubitParams(T=0.5, phi=math.pi, d=math.sqrt(2.0) * frame.w0)
    state = make_qubit_state(params, frame)
    for _ in range(2):
        evals = len(counted_evals)
        with pytest.raises(NumericsError, match="16x16 grid integrates to"):
            wigner_map(state, n=16)
        assert len(counted_evals) > evals


def test_large_map_memory(frame, angle_w0):
    # the 8 MB map and row-block scratch: the complex pair product and the
    # trapezoid integral run in row blocks; no full-size magnitude, scaled
    # copy or previous window besides
    _, state = make_typical_state("cat_minus", angle_w0, frame)
    tracemalloc.start()
    try:
        wigner_map(state, n=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_map_functions_stay_plain_module_functions():
    # perfbench's tracer counts calls only of the module's plain functions
    for fn in (wigner_map, negativity_scan, quadrature_moments):
        assert isinstance(fn, types.FunctionType) and fn.__module__ == "tmcat.wigner"


def test_negativity_scan(frame, angle_w0):
    _, cat = make_typical_state("cat_minus", angle_w0, frame)
    _, vac = make_typical_state("vac", angle_w0, frame)
    w_min, (x0, p0), volume = negativity_scan(cat, n=128)
    assert w_min < -0.25 / math.pi
    assert volume > 1e-3
    w_min_vac, _, volume_vac = negativity_scan(vac, n=128)
    assert w_min_vac >= -1e-12
    assert volume_vac < 1e-9


def test_grid_validation():
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(x_min=1.0, x_max=-1.0, nx=10, p_min=-1.0, p_max=1.0, np_=10)
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(x_min=-1.0, x_max=1.0, nx=1, p_min=-1.0, p_max=1.0, np_=10)
    # an infinite bound would give an all-NaN map
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(x_min=0.0, x_max=math.inf, nx=4, p_min=0.0, p_max=1.0, np_=4)
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(x_min=0.0, x_max=1.0, nx=4, p_min=-math.inf, p_max=1.0, np_=4)
    # and a NaN map must never pass as healthy
    grid = PhaseSpaceGrid(x_min=0.0, x_max=1.0, nx=4, p_min=0.0, p_max=1.0, np_=4)
    with pytest.raises(NumericsError):
        _validate_map(WignerMap(grid=grid, values=np.full((4, 4), math.nan)), 1.0)


def test_degenerate_params_rejected(frame):
    # N_arb -> 0: a destructive superposition with near-total overlap
    from tmcat import OverlapAngle

    tiny = OverlapAngle.from_alpha(2e-8)
    d = tiny.displacement(frame.w0)
    params = QubitParams(T=0.5, phi=math.pi, d=d)
    with pytest.raises(ValidationError):
        make_qubit_state(params, frame)
