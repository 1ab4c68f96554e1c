"""Three-Gaussian closed forms of the (T, phi, d) qubit, kept as test oracles.

The library evaluates every density and Wigner map through its one pair
core over term pairs.  These formulas are the qubit-only special case
written out by hand; they share no arithmetic with the library (N_arb is
spelled out here too), so a fault in the core cannot also hide in its
reference.  The cat-basis overlap matrices of the keying bases are kept
here the same way, built from the closed-form ``cat_coefficients``, which
shares only the two beam weights with the library's basis states, and so
is the key-exchange round as a rotation of the signal's (y, z) Bloch
vector over every round.  The keying decoder is kept as the running
maximum over basis rows it was first written as, and the CCD digitization
as its float chain, with a full-frame temporary at every step, and as the
in-place chain on the strided real view of the complex frame it first ran
on.  Column profiles sum in float64 and scaled PGM codes take a new array
at every step, as first written, and PGM headers are scanned byte by byte; densities are also kept without the bound
that now moves far positions in before their squares.  The Wigner
map of any superposition is also evaluated by quadrature of its defining
chord integral, over mode fields and y-overlap weights written out here,
not the library's, and a state's cached Gram and pair matrices are
written out from its terms.  The Wigner map and the CCD frame are kept as
the j <= k matrix products they were first written as, which the library's
pair contraction must match byte for byte, and the densities as the sum
over all n^2 pairs.  CSVs are written by the per-row and per-cell '%.17g'
loops the library's one vectorized writer replaced, and Gaussian profiles
are fitted by the bounded trust-region least squares of scipy that the
library's own descent replaced.  The propagated field is kept as the
closed-form Fresnel map of each term's Gaussian exponents it was first
written as, beside the Gouy-angle rotation of the state that replaced it,
and with its wavefront chirp taken at every position as given.  A state is
also built in the two steps it first took: an unnormalized state whose
Grams are evaluated afresh, then its normalized copy.  A profile sweep is
kept as the loop over its points it was first written as, one state's
moments and density at a time, beside the stacks the library evaluates.
"""

import cmath
import math
from pathlib import Path

import numpy as np

from tmcat import (
    HBAR,
    CoherentTerm,
    FiberSpec,
    FitError,
    GaussianFit,
    ModeFrame,
    OverlapAngle,
    QubitParams,
    SweepPoint,
    ValidationError,
    cat_coefficients,
    coherent_overlap,
    make_qubit_state,
    make_typical_state,
    quadrature_moments,
    rotate_phase_space,
)
from tmcat.states import gaussian_mode_1d
from tmcat.virtual_lab import _intensity_2d


def wigner_closed_form(
    params: QubitParams, frame: ModeFrame, x: np.ndarray, p_x: np.ndarray
) -> np.ndarray:
    """Three-Gaussian closed form of the (T, phi, d) qubit Wigner function.

    W = [T W_vac(x, p) + (1-T) W_vac(x - d, p)
         + 2 sqrt(T(1-T)) W_vac(x - d/2, p) cos(phi - d p / hbar)] / N_arb

    with W_vac(x, p) = exp(-2 x^2 / w0^2 - w0^2 p^2 / (2 hbar^2)) / (pi hbar).
    Broadcasts over x and p arrays of a common shape.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p_x, dtype=float)
    w0 = frame.w0
    d = params.d
    root = math.sqrt(params.T * (1.0 - params.T))
    cos_theta = math.exp(-(params.alpha(w0) ** 2))
    n_arb = 1.0 + 2.0 * root * cos_theta * math.cos(params.phi)

    def w_vac(xc):
        return np.exp(-2.0 * (x - xc) ** 2 / w0**2 - w0**2 * p**2 / (2.0 * HBAR**2)) / (
            math.pi * HBAR
        )

    cross = 2.0 * root * w_vac(d / 2.0) * np.cos(params.phi - d * p / HBAR)
    return (params.T * w_vac(0.0) + (1.0 - params.T) * w_vac(d) + cross) / n_arb


def pair_algebra(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram G[j, k] = <t_k|t_j>, the pair overlaps c_j conj(c_k) G[j, k]
    and the y-reduced pair weights c_j conj(c_k) <y_k|y_j>, from state.terms.

    Each is the library's numpy expression spelled out, so the cached
    matrices of a state must equal them bit for bit.
    """
    c = np.array([complex(t.coeff) for t in state.terms])
    ax = np.array([complex(t.alpha_x) for t in state.terms])
    ay = np.array([complex(t.alpha_y) for t in state.terms])

    def overlap(a):
        # <a_k|a_j> = exp(-|a_j|^2 - |a_k|^2 + 2 conj(a_k) a_j)
        return np.exp(
            -np.abs(a[:, None]) ** 2 - np.abs(a[None, :]) ** 2
            + 2.0 * np.conj(a[None, :]) * a[:, None]
        )

    y_overlap = overlap(ay)
    gram = overlap(ax) * y_overlap
    pairs = c[:, None] * np.conj(c)[None, :]
    return gram, pairs * gram, pairs * y_overlap


def two_step_state(terms) -> dict:
    """The Grams, norm and pair matrices of ``from_terms`` in its first two steps.

    Equal amplitudes are merged and zero weights dropped; the kept terms'
    Grams are evaluated afresh on their (coeff, alpha_x, alpha_y) rows, the
    norm is Re sum c_j conj(c_k) G[j, k], and the normalized coefficients
    c_j / sqrt(norm) give the pair matrices.  No cache is read.
    """
    merged = {}
    for t in terms:
        key = (complex(t.alpha_x), complex(t.alpha_y))
        merged[key] = merged.get(key, 0.0 + 0.0j) + complex(t.coeff)
    kept = tuple(CoherentTerm(c, *key) for key, c in merged.items() if c != 0.0)

    def rows(ts):
        values = [(t.coeff, t.alpha_x, t.alpha_y) for t in ts]
        return np.array(values, dtype=complex).reshape(-1, 3).T.copy()

    c, ax, ay = rows(kept)
    gram_y = coherent_overlap(ay[:, None], ay[None, :])
    gram = coherent_overlap(ax[:, None], ax[None, :]) * gram_y
    norm = float((c[:, None] * np.conj(c)[None, :] * gram).real.sum())
    scale = 1.0 / math.sqrt(norm)
    c = rows([CoherentTerm(t.coeff * scale, t.alpha_x, t.alpha_y) for t in kept])[0]
    pairs = c[:, None] * np.conj(c)[None, :]
    return {"gram": gram, "gram_y": gram_y, "norm": norm, "coeffs": c,
            "pair_overlaps": pairs * gram, "pair_weights": pairs * gram_y}


def profile_sweep_per_state(path, d: float, frame: ModeFrame) -> list:
    """``profile_sweep`` point by point: each state's X and P moments and its
    position density at d/2, through the single-state calls."""
    out = []
    for t, phi in path:
        state = make_qubit_state(QubitParams(T=t, phi=phi, d=d), frame)
        _, var_x = quadrature_moments(state, 0.0)
        mean_p, _ = quadrature_moments(state, math.pi / 2.0)
        center = float(state.position_intensity(np.array([d / 2.0]))[0])
        out.append(SweepPoint(
            T=t, phi=phi, delta_x=frame.x_scale * math.sqrt(var_x),
            mean_vx=frame.p_scale * mean_p / (HBAR * frame.k), center_intensity=center,
        ))
    return out


def wigner_pair_product(state, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """wigner_of_state as one BLAS product over the pairs j <= k, as first written.

    x_part @ (weight[:, None] * p_part) with the pair weight
    W[j, k] (2 - delta_jk) e^{i (kappa_k d_j - kappa_j d_k) / 2}.
    """
    x = np.asarray(x, dtype=float).ravel()[:, None]
    p = np.asarray(p, dtype=float).ravel()[None, :]
    w0 = state.frame.w0
    ax = state.alphas_x()
    d = math.sqrt(2.0) * w0 * ax.real
    kappa = 2.0 * math.sqrt(2.0) * ax.imag / w0
    j, k = np.triu_indices(d.size)
    weight = state.pair_weights[j, k] * np.where(j == k, 1.0, 2.0)
    weight = weight * np.exp(1j * (kappa[k] * d[j] - kappa[j] * d[k]) / 2.0)
    x_part = np.exp(
        -2.0 * (x - 0.5 * (d[j] + d[k])) ** 2 / w0**2 + 1j * (kappa[j] - kappa[k]) * x
    )
    p_part = np.exp(
        -(w0**2) * (p / HBAR - 0.5 * (kappa[j] + kappa[k])[:, None]) ** 2 / 2.0
        - 1j * (d[j] - d[k])[:, None] * p / HBAR
    )
    return (x_part @ (weight[:, None] * p_part)).real / (math.pi * HBAR)


def intensity_2d_pair_product(state, x, y, visibility: float) -> np.ndarray:
    """The CCD frame as one BLAS product over the pairs j <= k, as first written.

    rows @ (weight[:, None] * fx[j] * conj(fx[k])) with rows fy[j] conj(fy[k])
    and weight c_j conj(c_k) times 1 on the diagonal, 2 visibility off it.
    """
    w0 = state.frame.w0
    c = state.coeffs()
    fx = gaussian_mode_1d(state.alphas_x()[:, None], w0, x)
    fy = gaussian_mode_1d(state.alphas_y()[:, None], w0, y)
    j, k = np.triu_indices(c.size)
    weight = c[j] * np.conj(c[k]) * np.where(j == k, 1.0, 2.0 * visibility)
    rows = np.ascontiguousarray((fy[j] * np.conj(fy[k])).T)
    return (rows @ (weight[:, None] * fx[j] * np.conj(fx[k]))).real


def density_unbounded(state, ax: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The y-reduced density of the x-mode fields of the amplitudes ax at x,
    summed over the pairs j <= k in the library's order, with every position
    taken as given: no far position is moved onto a bound first."""
    fields = gaussian_mode_1d(ax[:, None], state.frame.w0, np.asarray(x, dtype=float))
    j, k = np.triu_indices(ax.size)
    pair = (state.pair_weights[j, k] * np.where(j == k, 1.0, 2.0))[:, None]
    return (pair * fields[j] * np.conj(fields[k])).sum(axis=0).real


def field_unbounded_chirp(field, x: np.ndarray) -> np.ndarray:
    """PropagatedField.field with the wavefront chirp e^{i k x^2 / (2 R)} taken at
    every position as given, as first written; the mode sum is the turned
    state's x-mode fields at x / m, with no position moved onto a bound."""
    x = np.asarray(x, dtype=float)
    state, beam = field.state, field.beam
    m = beam.width / state.frame.w0
    ax = state.alphas_x() * cmath.exp(1j * beam.gouy)
    scale = cmath.exp(0.5j * beam.gouy) / math.sqrt(m)
    fields = gaussian_mode_1d(ax[:, None], state.frame.w0, x / m)
    psi = np.tensordot(state.coeffs() * scale, fields, axes=1)
    return psi * np.exp(0.5j * state.frame.k / beam.curvature_radius * x**2)


def full_pair_sum(weights: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Re sum_jk weights[j, k] f_j conj(f_k) over all n^2 pairs (term axis 0)."""
    return (fields * np.tensordot(weights, np.conj(fields), axes=1)).sum(axis=0).real


def fresnel_exponent_form(state, z: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field and y-reduced intensity at z > 0 from each term's Gaussian exponents.

    The waist x-mode of a term is exp(-a x^2 + b x + c), and the Fresnel
    integral maps its exponents in closed form: with a' = a - i k/(2 z),

        a -> k^2 / (4 a' z^2) - i k / (2 z) = -i a k / (2 a' z)
        b -> -i b k / (2 a' z)
        c -> c + b^2 / (4 a') + ln( sqrt(k / (2 pi i z)) sqrt(pi / a') ).

    The field is sum_j c_j E_j and the intensity sum_jk W[j, k] E_j conj(E_k),
    over the pair weights of ``pair_algebra``.
    """
    frame = state.frame
    w0, k = frame.w0, frame.k
    ax = np.array([complex(t.alpha_x) for t in state.terms])
    coeffs = np.array([complex(t.coeff) for t in state.terms])
    d = math.sqrt(2.0) * w0 * ax.real
    kappa = 2.0 * math.sqrt(2.0) * ax.imag / w0
    a = np.full(d.shape, 1.0 / w0**2, dtype=complex)
    b = 2.0 * d / w0**2 + 1j * kappa
    c = -(d**2) / w0**2 - 1j * kappa * d / 2.0 + math.log((2.0 / (math.pi * w0**2)) ** 0.25)
    ap = a - 1j * k / (2.0 * z)
    a_z = -1j * a * k / (2.0 * ap * z)
    b_z = -1j * b * k / (2.0 * ap * z)
    c_z = c + b**2 / (4.0 * ap) + np.log(np.sqrt(k / (2.0j * math.pi * z)) * np.sqrt(math.pi / ap))
    xcol = np.asarray(x, dtype=float)[None, :]
    fields = np.exp(-a_z[:, None] * xcol**2 + b_z[:, None] * xcol + c_z[:, None])
    return coeffs @ fields, full_pair_sum(pair_algebra(state)[2], fields)


def wigner_chord_quadrature(state, grid) -> np.ndarray:
    """Wigner values on a PhaseSpaceGrid by quadrature of the chord integral.

    W(x, p) = (1/(2 pi hbar)) Int psi(x + u/2) psi*(x - u/2) e^{-i u p / hbar} du
    in w0 / (hbar / w0) units, with the unit-waist mode
    (2/pi)^{1/4} exp(-(x - d)^2 + i kappa (x - d/2)), d = sqrt(2) Re(alpha),
    kappa = 2 sqrt(2) Im(alpha).  The y dependence is reduced term by term
    through the pair weights c_j conj(c_k) <y_k|y_j>.  The chord window
    covers every term-pair separation plus 8 w0 of Gaussian tails, at step
    w0/64 halved until two levels agree to 1e-9 (nondimensional).  Returns
    values in the grid's units, checked against the -1/pi floor.
    """
    frame = state.frame
    w0 = frame.w0
    sx, sp = (1.0, 1.0) if grid.si_units else (frame.x_scale, frame.p_scale)
    xs = sx * grid.x_axis() / w0
    ps = sp * grid.p_axis() * w0 / HBAR

    c = state.coeffs()
    ay = state.alphas_y()
    # <y_k|y_j> = exp(-|a_j|^2 - |a_k|^2 + 2 conj(a_k) a_j)
    y_overlap = np.exp(
        -np.abs(ay[:, None]) ** 2 - np.abs(ay[None, :]) ** 2
        + 2.0 * np.conj(ay[None, :]) * ay[:, None]
    )
    weights = c[:, None] * np.conj(c)[None, :] * y_overlap
    ax = state.alphas_x()[:, None, None]
    d = math.sqrt(2.0) * ax.real
    kappa = 2.0 * math.sqrt(2.0) * ax.imag
    # the chord correlation of term pair (j, k) is a Gaussian in u centered
    # at d_j - d_k, so the window must cover every pairwise separation
    half_window = float(np.ptp(d)) + 8.0

    def mode(x):
        return (2.0 / math.pi) ** 0.25 * np.exp(-((x - d) ** 2) + 1j * kappa * (x - d / 2.0))

    def evaluate(n_u: int) -> np.ndarray:
        u = np.linspace(-half_window, half_window, n_u)
        du = u[1] - u[0]
        ahead = mode(xs[:, None] + u[None, :] / 2.0)
        behind = mode(xs[:, None] - u[None, :] / 2.0)
        corr = (ahead * np.tensordot(weights, np.conj(behind), axes=1)).sum(axis=0)
        kernel = np.exp(-1j * np.outer(u, ps))
        vals = (corr @ kernel).real * du / (2.0 * math.pi)
        # endpoint halving completes the trapezoid rule
        edge = (
            corr[:, :1] * kernel[:1, :] + corr[:, -1:] * kernel[-1:, :]
        ).real * du / (4.0 * math.pi)
        return vals - edge

    n_u = max(int(round(2.0 * half_window * 64)) + 1, 129)
    prev = evaluate(n_u)
    for _ in range(3):
        n_u = 2 * n_u - 1
        cur = evaluate(n_u)
        if np.max(np.abs(cur - prev)) <= 1e-9:
            # an internal (x/w0, p w0/hbar) cell equals an (X, P) cell, so the
            # nondimensional value carries over; SI needs the 1/hbar Jacobian
            values = cur / HBAR if grid.si_units else cur
            floor = -1.0 / (math.pi * HBAR) if grid.si_units else -1.0 / math.pi
            assert values.min() >= floor * (1.0 + 1e-9), values.min()
            return values
        prev = cur
    raise AssertionError("chord quadrature did not converge after 3 refinements")


def marginal_position(params: QubitParams, frame: ModeFrame, x: np.ndarray) -> np.ndarray:
    """Closed-form position density of the qubit state (integrates to 1).

    I(x) = [T I_vac(x) + (1-T) I_vac(x-d)
            + 2 sqrt(T(1-T)) I_vac(x-d/2) cos(theta_d) cos(phi)] / N_arb
    """
    x = np.asarray(x, dtype=float)
    w0 = frame.w0
    d = params.d
    cos_theta = math.exp(-(params.alpha(w0) ** 2))
    root = math.sqrt(params.T * (1.0 - params.T))
    n_arb = 1.0 + 2.0 * root * cos_theta * math.cos(params.phi)
    norm = math.sqrt(2.0 / math.pi) / w0

    def i_vac(xc):
        return norm * np.exp(-2.0 * (x - xc) ** 2 / w0**2)

    cross = 2.0 * root * cos_theta * math.cos(params.phi) * i_vac(d / 2.0)
    return (params.T * i_vac(0.0) + (1.0 - params.T) * i_vac(d) + cross) / n_arb


def marginal_momentum(params: QubitParams, frame: ModeFrame, p_x: np.ndarray) -> np.ndarray:
    """Closed-form momentum density of the qubit state (integrates to 1).

    I~(p) = I~_vac(p) [1 + 2 sqrt(T(1-T)) cos(phi - d p / hbar)] / N_arb,
    a Gaussian envelope of 1/e^2 half-width 2 hbar / w0 carrying a fringe of
    period 2 pi hbar / d.
    """
    p = np.asarray(p_x, dtype=float)
    w0 = frame.w0
    d = params.d
    root = math.sqrt(params.T * (1.0 - params.T))
    cos_theta = math.exp(-(params.alpha(w0) ** 2))
    n_arb = 1.0 + 2.0 * root * cos_theta * math.cos(params.phi)
    envelope = w0 / (HBAR * math.sqrt(2.0 * math.pi)) * np.exp(
        -(w0**2) * p**2 / (2.0 * HBAR**2)
    )
    return envelope * (1.0 + 2.0 * root * np.cos(params.phi - d * p / HBAR)) / n_arb


def cat_overlap_matrices(
    kinds: tuple[str, ...], angle: OverlapAngle, frame: ModeFrame
) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) of a two-axis cat basis from the closed-form cat coefficients.

    The basis holds each kind on the x axis, then each kind on the y axis.
    With (g_e, g_o) = cat_coefficients, <b_i|R(delta)|b_j> within one axis is
    conj(g_e,i) g_e,j + conj(g_o,i) g_o,j e^{-i delta}.  Across the axes only
    the even cats overlap, by <e_x|e_y> = 2 e^{-alpha^2/2} / N+.
    """
    coeffs = [
        cat_coefficients(make_typical_state(kind, angle, frame)[0], angle)
        for kind in kinds
    ]
    g_even, g_odd = np.array(coeffs * 2, dtype=complex).T
    axes = np.repeat([0, 1], len(kinds))
    same = np.equal.outer(axes, axes)
    cross = 2.0 * math.exp(-(angle.alpha**2) / 2.0) / angle.n_plus
    u = np.conj(g_even)[:, None] * g_even[None, :] * np.where(same, 1.0, cross)
    v = np.conj(g_odd)[:, None] * g_odd[None, :] * same
    return u, v


# Rounds per block of the reference decoder.
_PSK_BLOCK = 8192


def psk_block_decoder_errors(n: int, basis, channel, seed: int | None = None) -> int:
    """Error count of psk_link_simulate's rounds, decoded by a running maximum.

    The same draws in the same order: ``sent``, the n jitter angles, one
    (m, n) real noise draw, then the imaginary parts row by row and block by
    block.  Each basis row is scored one block at a time and a round keeps
    the first row of the strictly largest |overlap|^2.  This is the keying
    simulator's decoder as it was before it moved to one (m, n) score array.
    """
    sigma_theta = channel.rotation_jitter_sigma
    if sigma_theta > 0.0:
        u, v = basis.overlap_matrices()
    else:
        u, v = basis.gram, np.zeros_like(basis.gram)
    if seed is None:
        seed = channel.seed if channel.seed is not None else 0
    rng = np.random.Generator(np.random.Philox(seed))
    m = len(basis)
    sent = rng.integers(0, m, size=n)
    deltas = rng.normal(0.0, sigma_theta, size=n) if sigma_theta > 0.0 else np.zeros(n)
    rotation = np.exp(-1j * deltas)
    del deltas  # the rotation is all the decoder reads of the jitter
    noise_sigma = channel.additive_overlap_noise_sigma
    # One (m, n) real draw, then the imaginary parts one row and block at a
    # time: the block draws continue the stream exactly as a second (m, n)
    # draw would.
    noise_re = rng.standard_normal((m, n)) if noise_sigma > 0.0 else None
    best = np.full(n, -np.inf)
    decoded = np.zeros(n, dtype=np.intp)
    width = min(n, _PSK_BLOCK)
    stat_buf, term_buf = np.empty((2, width), dtype=complex)
    score_buf, noise_buf = np.empty((2, width))
    higher_buf = np.empty(width, dtype=bool)
    for k in range(m):
        for start in range(0, n, _PSK_BLOCK):
            block = slice(start, start + _PSK_BLOCK)
            sent_b = sent[block]
            w = sent_b.size
            stat, term = stat_buf[:w], term_buf[:w]
            score, higher = score_buf[:w], higher_buf[:w]
            # |overlap| is invariant under the per-round global phase, so the
            # statistic can be taken real before the additive perturbation;
            # the indices are in range, and "clip" skips the copy of out that
            # the default mode makes
            np.take(u[k], sent_b, out=stat, mode="clip")
            np.take(v[k], sent_b, out=term, mode="clip")
            np.multiply(term, rotation[block], out=term)
            np.add(stat, term, out=stat)
            np.abs(stat, out=score)
            if noise_re is not None:
                # the complex sum score + sigma (re + i im), part by part
                np.multiply(noise_re[k, block], noise_sigma, out=stat.real)
                np.add(stat.real, score, out=stat.real)
                noise_im = rng.standard_normal(out=noise_buf[:w])
                np.multiply(noise_im, noise_sigma, out=stat.imag)
                np.abs(stat, out=score)
            np.square(score, out=score)
            # strict > keeps ties at the lowest index, as argmax does
            np.greater(score, best[block], out=higher)
            decoded[block][higher] = k
            np.maximum(best[block], score, out=best[block])
    errors = int(np.count_nonzero(decoded != sent))
    return errors


def qkd_rotation_counts(
    n: int, path_jitter_sigma: float, fiber: FiberSpec, seed: int
) -> tuple[int, int]:
    """(sifted, errors) of qkd_simulate's rounds, by rotating the Bloch vector.

    The same draws in the same order; the signal (y0, z0) = (0, sgn) in the
    x basis or (-sgn, 0) in the p basis is rotated by delta in the (y, z)
    plane, and the receiver's outcome 0 has probability (1 + z1) / 2 in the
    x basis and (1 - y1) / 2 in the p basis, on every round.
    """
    sigma_theta = fiber.rotation_angle(path_jitter_sigma)
    rng = np.random.Generator(np.random.Philox(seed))
    basis_s = rng.integers(0, 2, size=n)  # 0: x basis, 1: p basis
    bits = rng.integers(0, 2, size=n)
    basis_r = rng.integers(0, 2, size=n)
    deltas = rng.normal(0.0, sigma_theta, size=n) if sigma_theta > 0.0 else np.zeros(n)
    born = rng.random(n)
    sgn = 1.0 - 2.0 * bits
    y0 = np.where(basis_s == 1, -sgn, 0.0)
    z0 = np.where(basis_s == 0, sgn, 0.0)
    cos_d = np.cos(deltas)
    sin_d = np.sin(deltas)
    y1 = y0 * cos_d + z0 * sin_d
    z1 = z0 * cos_d - y0 * sin_d
    p_minus_outcome = np.where(basis_r == 0, (1.0 + z1) / 2.0, (1.0 - y1) / 2.0)
    outcome = np.where(born < p_minus_outcome, 0, 1)
    matched = basis_s == basis_r
    sifted = int(np.count_nonzero(matched))
    errors = int(np.count_nonzero(matched & (outcome != bits)))
    return sifted, errors


def render_ccd_float_tail(state, plane, config) -> tuple[np.ndarray, float, bool]:
    """(counts, exposure_scale, saturated) of a frame digitized in floats.

    The intensity is sampled as render_ccd samples it and scaled; the counts
    are then max(0) -> poisson -> float64 -> floor(+ background + 0.5) ->
    clip -> uint16, each step a new array.  Raises ValidationError when every
    pixel saturates.
    """
    x = config.column_positions()
    y = config.row_positions()
    if plane.kind == "position":
        intensity = _intensity_2d(state, x, y, config.visibility)
    else:
        s = state.frame.k * state.frame.w0**2 / (2.0 * plane.f)
        rotated = rotate_phase_space(state, math.pi / 2.0)
        intensity = s**2 * _intensity_2d(rotated, s * x, s * y, config.visibility)
    scale = config.exposure_scale
    if scale is None:
        scale = 0.9 * config.max_count / float(intensity.max())
    signal = np.maximum(scale * intensity, 0.0)
    if config.seed is not None:
        rng = np.random.Generator(np.random.Philox(config.seed))
        signal = rng.poisson(signal).astype(np.float64)
    counts = np.floor(signal + config.background + 0.5)
    saturated = bool(counts.max() >= config.max_count)
    counts = np.clip(counts, 0, config.max_count).astype(np.uint16)
    if counts.min() >= config.max_count:
        raise ValidationError("every pixel saturated; exposure misconfigured")
    return counts, scale, saturated


def render_ccd_strided(state, plane, config) -> tuple[np.ndarray, float, bool]:
    """(counts, exposure_scale, saturated) of a frame digitized in place on the
    strided real view of its complex j <= k pair product, as first written.

    Every step runs on that view: the focal-plane scale, the peak, the
    exposure, the clamp at 0, one Poisson draw over the frame or the
    rounding.  Raises ValidationError when every pixel saturates.
    """
    x = config.column_positions()
    y = config.row_positions()
    s = 1.0
    if plane.kind == "momentum":
        s = state.frame.k * state.frame.w0**2 / (2.0 * plane.f)
        state = rotate_phase_space(state, math.pi / 2.0)
    signal = intensity_2d_pair_product(state, s * x, s * y, config.visibility)
    if plane.kind == "momentum":
        np.multiply(s**2, signal, out=signal)
    scale = config.exposure_scale
    if scale is None:
        scale = 0.9 * config.max_count / float(signal.max())
    np.multiply(signal, scale, out=signal)
    np.maximum(signal, 0.0, out=signal)
    if config.seed is not None:
        counts = np.random.Generator(np.random.Philox(config.seed)).poisson(signal)
        counts += min(config.background, config.max_count)
    else:
        signal += config.background
        signal += 0.5
        counts = np.floor(signal, out=signal)
    saturated = bool(counts.max() >= config.max_count)
    counts = np.clip(counts, 0, config.max_count, out=counts).astype(np.uint16)
    if counts.min() >= config.max_count:
        raise ValidationError("every pixel saturated; exposure misconfigured")
    return counts, scale, saturated


def profile_float_sums(counts: np.ndarray) -> np.ndarray:
    """The unit-sum column profile of a frame, its columns summed in float64."""
    sums = counts.sum(axis=0, dtype=np.float64)
    border = np.concatenate([sums[:8], sums[-8:]])
    cleaned = np.clip(sums - np.median(border), 0.0, None)
    return cleaned / cleaned.sum()


def scaled_pgm_codes(values: np.ndarray) -> np.ndarray:
    """16-bit gray codes of real values, floor((v - min) / span * 65535 + 0.5),
    each step a new array."""
    vmin, vmax = float(values.min()), float(values.max())
    if vmax - vmin <= 0.0:
        return np.zeros(values.shape, dtype=np.uint16)
    return np.floor((values - vmin) / (vmax - vmin) * 65535.0 + 0.5).astype(np.uint16)


def read_pgm_byte_scan(path) -> tuple[np.ndarray, int]:
    """``read_pgm`` with the header scanned byte by byte, as first written: spaces
    are skipped, a '#' outside a field skips to the end of its line, and a field
    runs to the next whitespace byte."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise ValidationError(f"PGM header is truncated after {len(fields)} fields")
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValidationError(f"not a binary PGM file: magic {fields[0]!r}")
    try:
        width, height, max_value = (int(f) for f in fields[1:4])
    except ValueError:
        raise ValidationError(f"PGM header fields {fields[1:4]!r} are not integers")
    if width < 1 or height < 1 or not 0 < max_value < 65536:
        raise ValidationError(f"PGM header {width}x{height}, max {max_value} invalid")
    pos += 1  # single whitespace byte after maxval
    dtype = ">u2" if max_value > 255 else "u1"
    need = width * height * np.dtype(dtype).itemsize
    if len(data) - pos < need:
        raise ValidationError(
            f"PGM payload holds {max(len(data) - pos, 0)} bytes, {need} expected"
        )
    counts = np.frombuffer(data, dtype, width * height, pos).astype(np.uint16)
    return counts.reshape(height, width), max_value


# every cell is written as '%.17g' of v + 0.0, which turns -0.0 into 0.0
_CELL = "%.17g"


def _cell(v) -> str:
    return _CELL % (v + 0.0)


def write_csv(path, headers: list[str], rows) -> None:
    """Write rows of numbers (or strings) under frozen column headers."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(
            ",".join(v if isinstance(v, str) else _cell(v) for v in row)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_csv(path, headers: list[str], xs, ps, values) -> None:
    """Write the rows (xs[i], ps[j], values[i, j]), i-major, as write_csv would.

    The file is streamed one block of len(ps) lines per x.  The p column and
    the value slots form one template, so each block is a single %-format.
    """
    values = np.asarray(values, dtype=float)
    # xs[i] is joined in front of every line; a formatted number holds no '%'
    tails = [""] + [f",{_cell(p)},{_CELL}\n" for p in ps]
    with Path(path).open("w") as fh:
        fh.write(",".join(headers) + "\n")
        for x, row in zip(xs, values):
            fh.write(_cell(x).join(tails) % tuple((row + 0.0).tolist()))


def gaussian_fit_trf(profile: np.ndarray, pitch: float) -> GaussianFit:
    """Fit A exp(-2 (x - x0)^2 / r^2) to a column profile.

    Initialization is moment-based (r0 = twice the RMS width); the solver is
    bounded nonlinear least squares.  Needs at least 8 nonzero samples.
    """
    # scipy.optimize costs more to import than every other module of the
    # package together; only the two fits need it.
    from scipy.optimize import least_squares

    profile = np.asarray(profile, dtype=float)
    if not (pitch > 0.0):
        raise ValidationError(f"pixel pitch must be positive, got {pitch}")
    if np.count_nonzero(profile) < 8:
        raise ValidationError("profile needs at least 8 nonzero samples to fit")
    x = (np.arange(profile.size) - (profile.size - 1) / 2.0) * pitch
    total = profile.sum()
    mean = float((x * profile).sum() / total)
    var = float(((x - mean) ** 2 * profile).sum() / total)
    r0 = max(2.0 * math.sqrt(var), pitch)
    a0 = max(float(profile.max()), 1e-12)

    def residual(p):
        a, x0, r = p
        return a * np.exp(-2.0 * (x - x0) ** 2 / r**2) - profile

    res = least_squares(
        residual,
        x0=[a0, mean, r0],
        bounds=([0.0, x.min(), pitch / 4.0], [np.inf, x.max(), np.inf]),
        max_nfev=400,
    )
    if not res.success:
        raise FitError(f"Gaussian fit did not converge; last iterate {res.x.tolist()}")
    a, x0, r = res.x
    return GaussianFit(
        center=float(x0),
        radius_1e2=float(r),
        rss=float(np.sum(res.fun**2)),
        amplitude=float(a),
    )
