"""Protocol layer: cat-phase rotations, keying bases, QKD, sweeps, mixtures."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tmcat import (
    BASIS_SCHEMES,
    CcdConfig,
    ChannelModel,
    CoherentTerm,
    FiberSpec,
    HBAR,
    OverlapAngle,
    QubitParams,
    SuperpositionState,
    ValidationError,
    build_basis,
    dephased_mixture,
    expected_qber,
    inner_product,
    make_qubit_state,
    make_typical_state,
    momentum_plane,
    negativity_scan,
    position_plane,
    profile_sweep,
    propagate_analytic,
    psk_link_simulate,
    qkd_simulate,
    quadrature_moments,
    render_ccd,
    rotate_cat_phase,
    rotate_phase_space,
    wigner_map,
    wigner_of_state,
)
from tmcat.applications import _BLOCK, BasisSet
from tmcat.virtual_lab import _intensity_2d

import dispatch
from oracles import (
    cat_overlap_matrices,
    marginal_position,
    psk_block_decoder_errors,
    qkd_rotation_counts,
)
from strategies import BENCH_FRAME, superpositions

FOUR_CAT_KINDS = ("cat_plus", "cat_minus")
TWELVE_STATE_KINDS = ("cat_plus", "cat_minus", "x_minus", "x_plus", "p_minus", "p_plus")


class TestCatPhaseRotation:
    def test_quarter_turn_maps_equator(self, frame, angle_w0):
        # R(pi/2)|x-> = |p+>, R(pi)|x-> = |x+>
        _, xm = make_typical_state("x_minus", angle_w0, frame)
        _, xp = make_typical_state("x_plus", angle_w0, frame)
        _, pp = make_typical_state("p_plus", angle_w0, frame)
        quarter = rotate_cat_phase(xm, math.pi / 2.0)
        assert abs(inner_product(pp, quarter)) == pytest.approx(1.0, abs=1e-12)
        half = rotate_cat_phase(xm, math.pi)
        assert abs(inner_product(xp, half)) == pytest.approx(1.0, abs=1e-12)

    def test_full_turn_identity(self, frame, angle_w0):
        _, state = make_typical_state("p_minus", angle_w0, frame)
        back = rotate_cat_phase(state, 2.0 * math.pi)
        assert abs(inner_product(state, back)) == pytest.approx(1.0, abs=1e-12)

    def test_cats_are_fixed_points(self, frame, angle_w0):
        for kind in ("cat_plus", "cat_minus"):
            _, cat = make_typical_state(kind, angle_w0, frame)
            turned = rotate_cat_phase(cat, 1.234)
            assert abs(inner_product(cat, turned)) == pytest.approx(1.0, abs=1e-12)

    def test_composition(self, frame, angle_w0):
        _, state = make_typical_state("x_minus", angle_w0, frame)
        a = rotate_cat_phase(rotate_cat_phase(state, 0.7), 0.5)
        b = rotate_cat_phase(state, 1.2)
        assert abs(inner_product(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_terms(self, frame, angle_w0):
        _, vac = make_typical_state("vac", angle_w0, frame)
        with pytest.raises(ValidationError):
            rotate_cat_phase(vac, 0.3)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_non_finite_offset_named(self, frame, angle_w0, delta):
        _, cat = make_typical_state("cat_plus", angle_w0, frame)
        with pytest.raises(ValidationError, match="phase offset delta must be finite"):
            rotate_cat_phase(cat, delta)


_unit = st.floats(-1.0, 1.0)


@st.composite
def one_pair_bases(draw):
    """Two random states on one displacement-symmetric beam pair, plus one
    random single beam.

    Per axis the beams sit at e^{i t} (c +- h) with real c, h, so their
    overlap exp(-|a|^2 - |b|^2 + 2 conj(b) a) is real and in (0, 1).
    """
    ends = []
    for _ in range(2):
        phase = np.exp(1j * math.pi * draw(_unit))
        center, half = 1.5 * draw(_unit), draw(_unit)
        ends.append((phase * (center + half), phase * (center - half)))
    (ax, bx), (ay, by) = ends
    assume(abs(ax - bx) ** 2 + abs(ay - by) ** 2 >= 0.2)
    pair_states = []
    for _ in range(2):
        coeffs = [
            draw(st.floats(0.1, 1.0)) * np.exp(1j * math.pi * draw(_unit)) for _ in range(2)
        ]
        state = SuperpositionState.from_terms(
            BENCH_FRAME,
            [
                CoherentTerm(coeff=coeffs[0], alpha_x=ax, alpha_y=ay),
                CoherentTerm(coeff=coeffs[1], alpha_x=bx, alpha_y=by),
            ],
        )
        # keep to well-conditioned sums, as the shared strategy does
        assume(state.norm >= 0.05 * sum(abs(c) ** 2 for c in coeffs))
        pair_states.append(state)
    return BasisSet("one_pair", (*pair_states, draw(superpositions(max_terms=1))))


@given(one_pair_bases(), st.floats(-2.0 * math.pi, 2.0 * math.pi))
def test_overlap_matrices_give_rotated_overlaps(basis, delta):
    # <b_k| R(delta) b_j> = U[k, j] + V[k, j] e^{-i delta} for every bra k
    u, v = basis.overlap_matrices()
    for j in (0, 1):
        turned = rotate_cat_phase(basis.states[j], delta)
        for k, bra in enumerate(basis.states):
            want = u[k, j] + v[k, j] * complex(math.cos(delta), -math.sin(delta))
            assert abs(inner_product(bra, turned) - want) < 1e-12, (k, j)


class TestBases:
    def test_schemes_inventory(self):
        assert set(BASIS_SCHEMES) == {
            "four_cat",
            "twelve_state",
            "four_hg_reference",
        }
        with pytest.raises(ValidationError):
            build_basis("nonsense", 0.4 * math.pi, None)

    def test_four_cat_gram_identity(self, frame, angle_far):
        basis = build_basis("four_cat", angle_far, frame)
        gram = basis.gram
        assert gram.shape == (4, 4)
        off = gram - np.eye(4)
        assert np.max(np.abs(off)) < 1e-12
        # the only nonzero cross talk is the even-even pair, 2e^{-a^2/2}/N+
        alpha = angle_far.alpha
        expect = 2.0 * math.exp(-(alpha**2) / 2.0) / angle_far.n_plus
        assert basis.overlap_matrices()[0][0, 2] == pytest.approx(expect, rel=1e-12)
        assert abs(gram[0, 2]) == pytest.approx(expect, abs=1e-15)

    def test_twelve_state_structure(self, frame, angle_far):
        basis = build_basis("twelve_state", angle_far, frame)
        gram = basis.gram
        assert gram.shape == (12, 12)
        # x-axis block: <x-|x+> = <p-|p+> = 0, |<x-|p->| = 1/sqrt(2)
        assert abs(gram[2, 3]) < 1e-12
        assert abs(gram[4, 5]) < 1e-12
        assert abs(gram[2, 4]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert abs(gram[2, 5]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("scheme, kinds", [
        ("four_cat", FOUR_CAT_KINDS), ("twelve_state", TWELVE_STATE_KINDS),
    ])
    def test_each_state_is_built_once(self, scheme, kinds, frame, angle_bench, monkeypatch):
        # the x family, then its y-axis twins: the same two beam weights on
        # beams at (alpha/2, -alpha/2) and (alpha/2, alpha/2)
        half = angle_bench.alpha / 2.0
        expected = [make_typical_state(kind, angle_bench, frame)[1] for kind in kinds]
        for kind in kinds:
            params, _ = make_typical_state(kind, angle_bench, frame)
            beam = complex(math.cos(params.phi), math.sin(params.phi))
            expected.append(SuperpositionState.from_terms(frame, [
                CoherentTerm(math.sqrt(params.T), half, -half),
                CoherentTerm(beam * math.sqrt(1.0 - params.T), half, half),
            ]))
        built = SuperpositionState.from_terms.__func__
        calls = []

        def counted(cls, *args):
            calls.append(args)
            return built(cls, *args)

        monkeypatch.setattr(SuperpositionState, "from_terms", classmethod(counted))
        basis = build_basis(scheme, angle_bench, frame)
        assert len(calls) == len(kinds) * 2
        assert basis.states == tuple(expected)

    def test_hg_reference_gram_pattern(self, frame, angle_bench):
        # bare Gaussians: overlap cos(theta_d) per displaced axis
        basis = build_basis("four_hg_reference", angle_bench, frame)
        gram = basis.gram
        chat = angle_bench.cos_theta_d
        assert abs(gram[0, 1]) == pytest.approx(chat, rel=1e-12)
        assert abs(gram[0, 2]) == pytest.approx(chat, rel=1e-12)
        assert abs(gram[0, 3]) == pytest.approx(chat**2, rel=1e-12)
        assert abs(gram[1, 2]) == pytest.approx(chat**2, rel=1e-12)

    def test_overlap_matrices_reassemble_gram(self, frame, angle_far):
        for scheme in ("four_cat", "twelve_state"):
            basis = build_basis(scheme, angle_far, frame)
            u, v = basis.overlap_matrices()
            assert np.max(np.abs((u + v) - basis.gram)) < 1e-12

    def test_overlap_matrices_match_cat_closed_form(
        self, frame, angle_w0, angle_bench, angle_far
    ):
        for angle in (angle_w0, angle_bench, angle_far):
            for scheme, kinds in (
                ("four_cat", FOUR_CAT_KINDS),
                ("twelve_state", TWELVE_STATE_KINDS),
            ):
                u, v = build_basis(scheme, angle, frame).overlap_matrices()
                u_want, v_want = cat_overlap_matrices(kinds, angle, frame)
                assert np.max(np.abs(u - u_want)) < 1e-14, (scheme, angle)
                assert np.max(np.abs(v - v_want)) < 1e-14, (scheme, angle)
                # the x/y even-even cross overlap, relative even at 1e-16
                cross = (0, len(kinds))
                assert u[cross] == pytest.approx(u_want[cross], rel=1e-12, abs=0.0)

    def test_overlap_matrices_need_orthogonal_beam_pairs(self, frame, angle_bench):
        with pytest.raises(ValidationError, match="without cat decomposition"):
            build_basis("four_hg_reference", angle_bench, frame).overlap_matrices()
        # the pairs (0, alpha) and (0, 2 alpha) share a beam: odd cats overlap
        alpha = angle_bench.alpha
        states = tuple(
            SuperpositionState.from_terms(
                frame,
                [CoherentTerm(coeff=1.0, alpha_x=0.0), CoherentTerm(coeff=-1.0, alpha_x=x)],
            )
            for x in (alpha, 2.0 * alpha)
        )
        with pytest.raises(ValidationError, match="orthogonal"):
            BasisSet("shared_beam", states).overlap_matrices()

    def test_large_alpha_precision_survives(self, frame, angle_far):
        # the radian value of theta_d rounds to pi/2 here; the angle object
        # must carry the exact exponential overlap through
        assert angle_far.theta_d == math.pi / 2.0  # the rounding in question
        basis = build_basis("four_cat", angle_far, frame)
        cross = basis.overlap_matrices()[0][0, 2]
        assert cross.imag == 0.0 and 0.0 < cross.real < 1e-12


class TestKeying:
    def test_noiseless_is_exact(self, frame, angle_far):
        for scheme in BASIS_SCHEMES:
            basis = build_basis(scheme, angle_far, frame)
            stats = psk_link_simulate(4000, basis, ChannelModel(seed=9))
            assert stats.errors == 0, scheme
            assert stats.sifted == 4000

    @staticmethod
    def full_matrix_errors(n, basis, channel, seed):
        """Reference decoder: every (m, n) draw and score held at once."""
        rng = np.random.Generator(np.random.Philox(seed))
        m = len(basis)
        sent = rng.integers(0, m, size=n)
        sigma_theta = channel.rotation_jitter_sigma
        deltas = rng.normal(0.0, sigma_theta, size=n) if sigma_theta > 0.0 else np.zeros(n)
        sigma = channel.additive_overlap_noise_sigma
        if sigma > 0.0:
            noise = sigma * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        else:
            noise = 0.0
        u, v = basis.overlap_matrices()
        magnitudes = np.abs(u[:, sent] + v[:, sent] * np.exp(-1j * deltas)[None, :])
        decoded = np.argmax(np.abs(magnitudes + noise) ** 2, axis=0)
        return int(np.count_nonzero(decoded != sent))

    def test_streamed_decoder_matches_full_matrix(self, frame, angle_bench):
        basis = build_basis("twelve_state", angle_bench, frame)
        channels = (
            ChannelModel(rotation_jitter_sigma=0.05 * math.pi, additive_overlap_noise_sigma=0.1),
            ChannelModel(additive_overlap_noise_sigma=0.3),  # sigma_theta == 0
            ChannelModel(rotation_jitter_sigma=0.3 * math.pi),  # sigma_add == 0
        )
        # one round, one block and the edges of the first two blocks
        for n in (1, 3000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
            for channel in channels:
                for seed in (0, 5, 123):
                    stats = psk_link_simulate(n, basis, channel, seed=seed)
                    want = self.full_matrix_errors(n, basis, channel, seed)
                    assert stats.errors == want, (n, channel, seed)
                    assert want > 0 or n == 1, (n, channel, seed)

    @given(
        st.sampled_from(("four_cat", "twelve_state", "four_hg_reference")),
        st.floats(0.5, 2.5),
        # one round, a few, and rounds on either side of the first block edges
        st.builds(
            lambda edge, offset: max(1, edge + offset),
            st.sampled_from((0, _BLOCK, 2 * _BLOCK)),
            st.integers(-3, 40),
        ),
        st.one_of(st.just(0.0), st.floats(1e-3, 2.0 * math.pi)),
        st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        st.integers(0, 2**63),
    )
    @example("twelve_state", 1.2, _BLOCK + 1, 0.3, 0.2, 5)
    @example("four_cat", 0.8, 2 * _BLOCK - 1, 1.0, 0.5, 7)
    def test_counts_match_the_block_decoder(
        self, frame, scheme, alpha, n, sigma_theta, sigma_add, seed
    ):
        if scheme == "four_hg_reference":
            sigma_theta = 0.0  # no cat decomposition to rotate
        basis = build_basis(scheme, OverlapAngle.from_alpha(alpha), frame)
        channel = ChannelModel(
            rotation_jitter_sigma=sigma_theta, additive_overlap_noise_sigma=sigma_add
        )
        stats = psk_link_simulate(n, basis, channel, seed=seed)
        assert stats.errors == psk_block_decoder_errors(n, basis, channel, seed)

    def test_ties_decode_to_the_lowest_index(self, frame, angle_far):
        # a repeated state ties two rows of every round, and noise that
        # overflows makes every score inf: the lowest index wins either way;
        # jitter that overflows gives NaN scores, which decode to 0
        cats = build_basis("four_cat", angle_far, frame).states
        basis = BasisSet("repeated", (cats[1], cats[1], cats[0]))
        n = _BLOCK + 5
        sent = np.random.Generator(np.random.Philox(3)).integers(0, 3, size=n)
        quiet = ChannelModel(seed=3)
        stats = psk_link_simulate(n, basis, quiet)
        assert stats.errors == psk_block_decoder_errors(n, basis, quiet)
        assert stats.errors == np.count_nonzero(sent == 1)
        loud = ChannelModel(additive_overlap_noise_sigma=1e308, seed=3)
        with np.errstate(over="ignore"):
            stats = psk_link_simulate(n, basis, loud)
        assert stats.errors == np.count_nonzero(sent != 0)
        wild = ChannelModel(rotation_jitter_sigma=1e308, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            stats = psk_link_simulate(n, basis, wild)
            assert stats.errors == psk_block_decoder_errors(n, basis, wild)

    def test_memory_stays_within_the_draws(self, frame, angle_bench):
        # the (m, n) score array is the decoder's only n-scaled allocation
        # besides the one-byte sent indices; every other temporary is one
        # block long
        n = 200_000
        basis = build_basis("twelve_state", angle_bench, frame)
        channel = ChannelModel(
            rotation_jitter_sigma=0.05 * math.pi, additive_overlap_noise_sigma=0.1, seed=4
        )
        basis.overlap_matrices()
        tracemalloc.start()
        try:
            psk_link_simulate(n, basis, channel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (len(basis) + 2)

    def test_four_cat_rotation_immunity(self, frame, angle_far):
        # the headline property: cat encodings ignore the common-mode
        # phase-space rotation entirely, even at full-turn jitter
        basis = build_basis("four_cat", angle_far, frame)
        channel = ChannelModel(rotation_jitter_sigma=2.0 * math.pi, seed=11)
        stats = psk_link_simulate(40000, basis, channel)
        assert stats.errors == 0

    def equator_basis(self, frame, angle):
        twelve = build_basis("twelve_state", angle, frame)
        pick = (2, 3, 4, 5)
        return BasisSet("equator4", states=tuple(twelve.states[i] for i in pick))

    def test_equator_states_saturate_under_jitter(self, frame, angle_far):
        # rotation-sensitive four-state alphabet degrades to the random
        # guessing floor (M-1)/M = 3/4
        basis = self.equator_basis(frame, angle_far)
        channel = ChannelModel(rotation_jitter_sigma=2.0 * math.pi, seed=3)
        stats = psk_link_simulate(60000, basis, channel)
        sigma = math.sqrt(0.75 * 0.25 / 60000.0)
        assert stats.ber == pytest.approx(0.75, abs=4.0 * sigma)

    def test_additive_noise_saturates_any_basis(self, frame, angle_far):
        basis = build_basis("four_cat", angle_far, frame)
        channel = ChannelModel(additive_overlap_noise_sigma=50.0, seed=5)
        stats = psk_link_simulate(60000, basis, channel)
        assert stats.ber == pytest.approx(0.75, abs=0.02)

    def test_jitter_ladder_monotone(self, frame, angle_far):
        basis = self.equator_basis(frame, angle_far)
        bers = []
        for sigma in (0.0, 0.1 * math.pi, 0.25 * math.pi, 0.5 * math.pi, math.pi):
            channel = ChannelModel(rotation_jitter_sigma=sigma, seed=21)
            bers.append(psk_link_simulate(30000, basis, channel).ber)
        assert bers[0] == 0.0
        for a, b in zip(bers, bers[1:]):
            assert b >= a - 0.003
        assert bers[-1] > 0.5

    def test_channel_validation(self):
        with pytest.raises(ValidationError):
            ChannelModel(rotation_jitter_sigma=-0.1)
        for field in ("rotation_jitter_sigma", "additive_overlap_noise_sigma"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValidationError):
                    ChannelModel(**{field: bad})

    def test_path_jitter_equals_rotation_jitter(self, frame, angle_far):
        # sigma_theta = 2 pi sigma_z / (c T'): same seed, same answers
        basis = self.equator_basis(frame, angle_far)
        fiber = FiberSpec(period_length=1e-3)
        via_path = ChannelModel(rotation_jitter_sigma=fiber.rotation_angle(0.05e-3), seed=8)
        via_angle = ChannelModel(
            rotation_jitter_sigma=2.0 * math.pi * 0.05e-3 / 1e-3, seed=8
        )
        a = psk_link_simulate(20000, basis, via_path)
        b = psk_link_simulate(20000, basis, via_angle)
        assert a.errors == b.errors

    def test_rotation_needs_cat_basis(self, frame, angle_far):
        hg = build_basis("four_hg_reference", angle_far, frame)
        with pytest.raises(ValidationError):
            psk_link_simulate(100, hg, ChannelModel(rotation_jitter_sigma=0.1, seed=1))

    def test_round_count_validation(self, frame, angle_far):
        basis = build_basis("four_cat", angle_far, frame)
        with pytest.raises(ValidationError):
            psk_link_simulate(0, basis, ChannelModel(seed=1))


_PAIR_CORE_CHILD = """
import json, math, sys
import numpy as np
import tmcat as tm
from tmcat.virtual_lab import _intensity_2d
from oracles import intensity_2d_pair_product, wigner_pair_product
frame = tm.ModeFrame(w0=0.12e-3, wavelength=780e-9)
angle = tm.OverlapAngle.from_alpha(1.1)
qubit = tm.make_qubit_state(tm.QubitParams(T=0.35, phi=2.1, d=angle.displacement(frame.w0)), frame)
mixed = tm.SuperpositionState.from_terms(frame, [
    tm.CoherentTerm(0.8, 0.0, 0.0), tm.CoherentTerm(-0.5j, 1.2 + 0.3j, 0.4),
    tm.CoherentTerm(0.3 + 0.4j, -0.7 - 0.5j, -0.2j), tm.CoherentTerm(0.6, 0.5, 0.1 + 0.3j)])
rng = np.random.default_rng(7)
randoms = [tm.SuperpositionState.from_terms(frame, [
    tm.CoherentTerm(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1.5, 1.5, 2)),
                    complex(*rng.uniform(-0.5, 0.5, 2))) for _ in range(rng.integers(2, 5))])
    for _ in range(8)]
x = np.linspace(-5.0 * frame.w0, 5.0 * frame.w0, 2001)
p = np.linspace(-5.0 * tm.HBAR / frame.w0, 5.0 * tm.HBAR / frame.w0, 2001)
config = tm.CcdConfig()
cols, rows = config.column_positions(), config.row_positions()
maps, one_product = {}, {}  # each map and frame, and the same as one BLAS product
for i, state in enumerate([qubit, mixed] + randoms):
    if i < 2:
        m = tm.wigner_map(state, n=256)
        maps[f"{i}_wigner"] = m.values
        one_product[f"{i}_wigner"] = tm.HBAR * wigner_pair_product(
            state, frame.x_scale * m.grid.x_axis(), frame.p_scale * m.grid.p_axis())
        for name, fx, fy in (("frame", x[::20], x[::30]), ("lab_frame", cols, rows)):
            maps[f"{i}_{name}"] = _intensity_2d(state, fx, fy, 0.9)
            one_product[f"{i}_{name}"] = intensity_2d_pair_product(state, fx, fy, 0.9)
    maps[f"{i}_density"] = state.position_intensity(x)
    maps[f"{i}_momentum"] = state.momentum_intensity(p)
    maps[f"{i}_propagated"] = tm.propagate_analytic(state, 0.03).intensity(x)
np.savez(sys.argv[1], **maps)
channel = tm.ChannelModel(rotation_jitter_sigma=0.05 * math.pi, additive_overlap_noise_sigma=0.1)
psk = tm.psk_link_simulate(100_000, tm.build_basis("twelve_state", angle, frame), channel, seed=5)
qkd = tm.qkd_simulate(100_000, angle, 20e-6, tm.FiberSpec(period_length=1e-3), seed=5)
print(json.dumps({
    "features": features, "counts": [psk.errors, qkd.sifted, qkd.errors],
    "one_product_differs": [k for k, v in one_product.items() if v.tobytes() != maps[k].tobytes()],
}))
"""


def test_pair_core_agrees_across_dispatch(tmp_path):
    """Protocol counts are equal at every SIMD level and BLAS kernel, and
    Wigner maps, CCD frames and densities agree to 1e-14 of their peak.  The
    largest moves measured for the two fixed states were 1.4e-15 of the peak
    (the qubit's map with X86_V4 and X86_V3 off); random 2-4 term states
    moved by up to 1.1e-14.  Densities sum their pairs without BLAS, so a
    change of the BLAS kernel alone leaves every bit of them.

    Maps and frames take their pair product in row blocks small enough for
    OpenBLAS to run on the calling thread.  On the default kernel they equal
    one product bit for bit, with X86_V4 on or off, and pinning OpenBLAS to one
    thread changes no bit at all.  On the Sandybridge kernel a row's bits can
    depend on where its block starts, and on Sandybridge and Prescott those
    of the threaded one product on how it splits its rows among threads, so
    there the blocks are compared only with themselves on one thread: they
    do not depend on the thread count."""
    if not dispatch.switchable():
        pytest.skip(dispatch.SKIP_REASON)
    base = dispatch.run_child(_PAIR_CORE_CHILD, str(tmp_path / "base.npz"))
    assert base["features"] == [True, True]
    assert base["one_product_differs"] == []
    ref = np.load(tmp_path / "base.npz")
    children = {}
    for i, (settings, features) in enumerate(dispatch.REDUCED + dispatch.BLAS_ONLY):
        path = tmp_path / f"reduced{i}.npz"
        result = dispatch.run_child(_PAIR_CORE_CHILD, str(path), **settings)
        assert result["features"] == features
        assert result["counts"] == base["counts"]
        if "OPENBLAS_CORETYPE" not in settings:
            assert result["one_product_differs"] == [], settings
        values = np.load(path)
        for name in ref.files:
            peak = np.max(np.abs(ref[name]))
            assert np.max(np.abs(values[name] - ref[name])) <= 1e-14 * peak, name
            if settings.keys() == {"OPENBLAS_CORETYPE"} and name.endswith(
                ("density", "momentum", "propagated")
            ):
                assert values[name].tobytes() == ref[name].tobytes(), (settings, name)
            if settings.keys() == {"OPENBLAS_NUM_THREADS"}:
                assert values[name].tobytes() == ref[name].tobytes(), (settings, name)
        children[tuple(settings.items())] = values
    threaded = children[(("OPENBLAS_CORETYPE", "Sandybridge"),)]
    dispatch.run_child(
        _PAIR_CORE_CHILD, str(tmp_path / "pinned.npz"),
        OPENBLAS_CORETYPE="Sandybridge", OPENBLAS_NUM_THREADS="1",
    )
    pinned = np.load(tmp_path / "pinned.npz")
    for name in ref.files:
        assert pinned[name].tobytes() == threaded[name].tobytes(), name


class TestQkd:
    FIBER = FiberSpec(period_length=1e-3)

    def test_clean_link_is_error_free(self, angle_bench):
        stats = qkd_simulate(20000, angle_bench, 0.0, self.FIBER, seed=42)
        assert stats.qber == 0.0
        assert 0.45 < stats.sift_rate < 0.55

    def test_wavelength_scale_jitter_is_negligible(self, angle_bench):
        # sigma_z = 780 nm against a 1 mm period: ~6e-6 predicted QBER
        stats = qkd_simulate(100000, angle_bench, 780e-9, self.FIBER, seed=42)
        assert stats.qber < 0.001

    def test_ladder_follows_gaussian_dephasing(self, angle_bench):
        # QBER(sigma) = (1 - exp(-sigma_theta^2 / 2)) / 2, checked within
        # binomial range at each rung, monotone along the ladder
        prev = -1.0
        for sig_frac in (0.0, 0.01, 0.05, 0.1, 0.5, 2.0):
            sigma_z = sig_frac * 1e-3
            stats = qkd_simulate(100000, angle_bench, sigma_z, self.FIBER, seed=42)
            predicted = expected_qber(self.FIBER.rotation_angle(sigma_z))
            band = 3.0 * math.sqrt(max(predicted * (1.0 - predicted), 2.5e-7) / stats.sifted)
            assert stats.qber == pytest.approx(predicted, abs=band + 0.001)
            assert stats.qber >= prev - 0.004
            prev = stats.qber

    @given(
        st.floats(0.2, 4.0),
        st.integers(0, 2**32 - 1),
    )
    def test_qber_lies_in_the_binomial_band(self, angle_bench, sigma_theta, seed):
        # the sifted error count is binomial around the exact rate
        sigma_z = sigma_theta * self.FIBER.period_length / (2.0 * math.pi)
        stats = qkd_simulate(20000, angle_bench, sigma_z, self.FIBER, seed=seed)
        rate = expected_qber(self.FIBER.rotation_angle(sigma_z))
        spread = math.sqrt(stats.sifted * rate * (1.0 - rate))
        assert abs(stats.errors - stats.sifted * rate) <= 5.0 * spread

    def test_expected_qber_keeps_small_sigma_digits(self):
        assert expected_qber(0.0) == 0.0
        assert expected_qber(1e-9) == pytest.approx(2.5e-19, rel=1e-14)
        assert expected_qber(math.inf) == 0.5
        assert expected_qber(1.0) == pytest.approx((1.0 - math.exp(-0.5)) / 2.0, rel=1e-14)
        for sigma in (math.nan, -1e-9, -math.inf):
            with pytest.raises(ValidationError, match="sigma_theta must be >= 0"):
                expected_qber(sigma)

    @given(
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.one_of(st.just(0.0), st.floats(1e-9, 5e-3)),
    )
    def test_counts_match_the_bloch_rotation(self, angle_bench, n, seed, sigma_z):
        stats = qkd_simulate(n, angle_bench, sigma_z, self.FIBER, seed=seed)
        assert (stats.sifted, stats.errors) == qkd_rotation_counts(
            n, sigma_z, self.FIBER, seed
        )

    def test_memory_stays_within_the_draws(self, angle_bench):
        n = 200_000
        tracemalloc.start()
        try:
            qkd_simulate(n, angle_bench, 20e-6, self.FIBER, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * n

    def test_heavy_jitter_approaches_half(self, angle_bench):
        stats = qkd_simulate(100000, angle_bench, 10e-3, self.FIBER, seed=42)
        sigma = math.sqrt(0.25 / stats.sifted)
        assert stats.qber == pytest.approx(0.5, abs=3.0 * sigma)

    def test_seeding(self, angle_bench):
        a = qkd_simulate(5000, angle_bench, 0.2e-3, self.FIBER, seed=1)
        b = qkd_simulate(5000, angle_bench, 0.2e-3, self.FIBER, seed=1)
        c = qkd_simulate(5000, angle_bench, 0.2e-3, self.FIBER, seed=2)
        assert (a.sifted, a.errors) == (b.sifted, b.errors)
        assert (a.sifted, a.errors) != (c.sifted, c.errors)

    def test_validation(self, angle_bench):
        with pytest.raises(ValidationError):
            qkd_simulate(0, angle_bench, 0.0, self.FIBER)
        with pytest.raises(ValidationError):
            qkd_simulate(100, angle_bench, -1.0, self.FIBER)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                qkd_simulate(100, angle_bench, bad, self.FIBER)
        # finite jitters whose rotation angle 2 pi sigma_z / period overflows
        # (were a FloatingPointError or NaN counts from cos(inf))
        for sigma_z, period in ((20e-6, 1e-320), (1e305, 1e-5), (1e306, 1e-3)):
            fiber = FiberSpec(period_length=period)
            with pytest.raises(ValidationError, match=re.escape(
                f"sigma_z = {sigma_z!r} m over the self-image period {period!r} m"
            )):
                qkd_simulate(100, angle_bench, sigma_z, fiber)


class TestSweep:
    def test_vacuum_point(self, frame, angle_w0):
        d = angle_w0.displacement(frame.w0)
        (pt,) = profile_sweep([(1.0, 0.0)], d, frame)
        # sigma_x of the waist Gaussian: w0/2 = 60 um
        assert pt.delta_x == pytest.approx(frame.w0 / 2.0, rel=1e-12)
        assert pt.mean_vx == pytest.approx(0.0, abs=1e-15)
        # midpoint intensity of the vacuum beam (oracle: Gauss at d/2)
        expect = math.sqrt(2.0 / math.pi) / frame.w0 * math.exp(-0.5)
        assert pt.center_intensity == pytest.approx(expect, rel=1e-12)

    def test_x_minus_matches_vacuum_width(self, frame, angle_w0):
        # the projective equator state pins Var(X) exactly at the vacuum
        # value (not below it): delta_x(x-) = delta_x(vac)
        d = angle_w0.displacement(frame.w0)
        params, _ = make_typical_state("x_minus", angle_w0, frame)
        (vac_pt, xm_pt) = profile_sweep(
            [(1.0, 0.0), (params.T, params.phi)], d, frame
        )
        assert xm_pt.delta_x == pytest.approx(vac_pt.delta_x, rel=1e-12)

    def test_odd_cat_center_is_dark(self, frame, angle_w0):
        d = angle_w0.displacement(frame.w0)
        (pt,) = profile_sweep([(0.5, math.pi)], d, frame)
        assert abs(pt.center_intensity) < 1e-6

    def test_p_states_carry_velocity(self, frame, angle_w0):
        d = angle_w0.displacement(frame.w0)
        pm, _ = make_typical_state("p_minus", angle_w0, frame)
        pp, _ = make_typical_state("p_plus", angle_w0, frame)
        points = profile_sweep([(pm.T, pm.phi), (pp.T, pp.phi)], d, frame)
        # mean transverse velocity v_x = p_scale <P> / (hbar k); frozen
        # <P> = -+0.539433363294 at d = w0
        expect = 0.539433363294 * frame.p_scale / (HBAR * frame.k)
        assert points[0].mean_vx == pytest.approx(-expect, rel=1e-9)
        assert points[1].mean_vx == pytest.approx(expect, rel=1e-9)

    def test_path_continuity(self, frame, angle_w0):
        d = angle_w0.displacement(frame.w0)
        phis = np.linspace(0.0, math.pi, 41)
        points = profile_sweep([(0.5, float(p)) for p in phis], d, frame)
        widths = np.array([pt.delta_x for pt in points])
        # smooth interpolation from the even to the odd cat
        assert np.all(np.abs(np.diff(widths)) < 0.08 * frame.w0)
        assert widths[0] < widths[-1]

    def test_empty_path_rejected(self, frame):
        with pytest.raises(ValidationError):
            profile_sweep([], 1e-4, frame)


class TestDephasedMixture:
    def test_purity(self, frame):
        mix = dephased_mixture(frame.w0, frame)
        assert mix.purity == pytest.approx((1.0 + math.exp(-1.0)) / 2.0, rel=1e-12)

    def test_wigner_is_positive_classical_mixture(self, frame):
        mix = dephased_mixture(frame.w0, frame)
        result = wigner_map(mix, n=128)
        assert result.integral() == pytest.approx(1.0, abs=1e-6)
        assert result.min_value() >= -1e-15

    def test_wigner_is_average_of_components(self, frame, angle_w0):
        mix = dephased_mixture(frame.w0, frame)
        x = np.linspace(-1.0, 2.5, 31) * frame.x_scale
        p = np.linspace(-2.0, 2.0, 29) * frame.p_scale
        _, vac = make_typical_state("vac", angle_w0, frame)
        _, coh = make_typical_state("coh", angle_w0, frame)
        expect = 0.5 * (wigner_of_state(vac, x, p) + wigner_of_state(coh, x, p))
        got = wigner_of_state(mix, x, p)
        assert np.max(np.abs(got - expect)) * HBAR < 1e-14

    def test_position_density(self, frame, angle_w0):
        mix = dephased_mixture(frame.w0, frame)
        x = np.linspace(-8.0, 10.0, 4001) * frame.x_scale
        dens = mix.position_intensity(x)
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-10)
        vac = QubitParams(T=1.0, phi=0.0, d=frame.w0)
        coh = QubitParams(T=0.0, phi=0.0, d=frame.w0)
        expect = 0.5 * (
            marginal_position(vac, frame, x) + marginal_position(coh, frame, x)
        )
        assert np.max(np.abs(dens - expect)) * frame.x_scale < 1e-12

    def test_validation(self, frame):
        with pytest.raises(ValidationError):
            dephased_mixture(-1e-4, frame)

    def test_every_reader_takes_the_mixture(self, frame, angle_w0):
        # the mixture is a state like any other: each linear reading is the
        # mean of its two components' readings
        mix = dephased_mixture(frame.w0, frame)
        _, vac = make_typical_state("vac", angle_w0, frame)
        _, coh = make_typical_state("coh", angle_w0, frame)
        w0, alpha = frame.w0, angle_w0.alpha
        x = np.linspace(-4.0, 6.0, 41) * w0
        y = np.linspace(-2.0, 2.0, 9) * w0
        p = np.linspace(-5.0, 5.0, 41) * HBAR / w0
        readers = (
            lambda s: s.position_intensity(x),
            lambda s: s.momentum_intensity(p),
            lambda s: propagate_analytic(s, 0.3).intensity(x),
            lambda s: _intensity_2d(s, x, y, 1.0),
            lambda s: _intensity_2d(s, x, y, 0.3),
            lambda s: _intensity_2d(rotate_phase_space(s, 1.1), x, y, 1.0),
        )
        for read in readers:
            expect = 0.5 * (read(vac) + read(coh))
            assert np.max(np.abs(read(mix) - expect)) <= 1e-13 * np.max(expect)
        assert quadrature_moments(mix, 0.0) == pytest.approx((alpha, 0.5 + alpha**2), rel=1e-14)
        assert quadrature_moments(mix, math.pi / 2.0) == pytest.approx((0.0, 0.5), abs=1e-15)
        field = propagate_analytic(mix, 0.3)
        assert field.power() == pytest.approx(1.0, abs=1e-15)
        xs = np.linspace(-30.0, 30.0, 20001) * w0
        dens = field.intensity(xs)
        center = np.trapezoid(xs * dens, xs)
        assert field.centroid() == pytest.approx(center, rel=1e-9)
        spread = np.trapezoid((xs - center) ** 2 * dens, xs)
        assert field.rms_width() == pytest.approx(2.0 * math.sqrt(spread), rel=1e-9)
        w_min, _, negative = negativity_scan(mix, n=128)
        assert w_min >= -1e-15 and negative <= 1e-15
        # a CCD frame of the mixture is the qubit's frame at visibility 0
        qubit = make_qubit_state(QubitParams(T=0.5, phi=0.0, d=w0), frame)
        config = CcdConfig(nx=160, ny=120)
        for plane in (position_plane(), momentum_plane()):
            got = render_ccd(mix, plane, config).counts.astype(int)
            faded = render_ccd(qubit, plane, CcdConfig(nx=160, ny=120, visibility=0.0))
            assert np.max(np.abs(got - faded.counts)) <= 1 and got.max() > 200
