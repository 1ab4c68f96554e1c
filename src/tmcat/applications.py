"""Protocol-level applications: beam-profile sweeps, multimode keying, QKD.

The qubit lives in the two-dimensional span of the even and odd cat states
of one transverse axis.  Propagation-phase disturbances act on that span as
a relative phase between the even and odd components, so channels here are
modeled as a rotation of the odd cat of each beam pair; phase-space pictures
stay available through the states and Wigner modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .states import (
    HBAR,
    ModeFrame,
    OverlapAngle,
    QubitParams,
    SuperpositionState,
    _check_seed,
    _check_trace,
    _generator,
    _inner_products,
    _moments,
    _two_beam,
    _typical_params,
    _weighted,
    make_qubit_state,
    make_typical_state,
)

if TYPE_CHECKING:
    from .propagation import FiberSpec

BASIS_SCHEMES = ("four_cat", "twelve_state", "four_hg_reference")


def _pair_overlap(state: SuperpositionState) -> float:
    """Overlap <t_a|t_b> = G[1, 0] of a two-beam state's terms, checked real and in (0, 1).

    A real overlap (a displacement-symmetric pair) makes the even and odd
    cats t_a +- t_b orthogonal, so the cat-phase rotation is defined.
    """
    state._require_pure("cat-phase rotation")
    if len(state.terms) != 2:
        raise ValidationError("cat-phase rotation needs exactly two beams")
    mu = state.gram[1, 0]
    if abs(mu.imag) > 1e-12 * max(abs(mu), 1.0) or not (0.0 < mu.real < 1.0):
        raise ValidationError("cat-phase rotation needs a displacement-symmetric pair")
    return float(mu.real)


def rotate_cat_phase(state: SuperpositionState, delta: float) -> SuperpositionState:
    """Advance the odd-cat component of a two-beam state by e^{-i delta}.

    This is the action of a small propagation-phase offset on the qubit
    span: the even and odd cats are the stationary states, and delta is the
    phase walked between them.  Requires a two-term state whose term overlap
    is real and positive (a displacement-symmetric pair).  The new weights
    are (c_a + c_b)/2 +- e^{-i delta} (c_a - c_b)/2.
    """
    if not math.isfinite(delta):
        raise ValidationError(f"phase offset delta must be finite, got {delta!r}")
    _pair_overlap(state)
    ta, tb = state.terms
    even = (ta.coeff + tb.coeff) / 2.0
    odd = (ta.coeff - tb.coeff) / 2.0 * complex(math.cos(delta), -math.sin(delta))
    return SuperpositionState.from_terms(
        state.frame, [replace(ta, coeff=even + odd), replace(tb, coeff=even - odd)]
    )


@dataclass(frozen=True)
class BasisSet:
    """Named list of signal states."""

    name: str
    states: tuple[SuperpositionState, ...]

    def __post_init__(self):
        if not self.states:
            raise ValidationError("a basis needs at least one state")
        for state in self.states:
            state._require_pure("a signal basis")

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def gram(self) -> np.ndarray:
        """Hermitian matrix of pairwise inner products <b_i|b_j>."""
        parts = [s._arrays for s in self.states]
        return _inner_products(parts, parts)

    def overlap_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, V) with <b_i| R(delta) |b_j> = U[i,j] + V[i,j] e^{-i delta}.

        R(delta) advances the normalized odd cat o_a of every distinct beam
        pair among the two-beam states by e^{-i delta}, so
        V = sum_a <b_i|o_a><o_a|b_j> and U = gram - V.  States with one beam
        or more than two enter through their projections only.  Raises when
        no beam pair exists or when odd cats of distinct pairs overlap.
        """
        odd_cats = {}
        for state in self.states:
            if len(state.terms) != 2:
                continue
            ta, tb = state.terms
            key = frozenset({(ta.alpha_x, ta.alpha_y), (tb.alpha_x, tb.alpha_y)})
            if key not in odd_cats:
                scale = 1.0 / math.sqrt(2.0 * (1.0 - _pair_overlap(state)))
                _, ax, ay = state._arrays
                odd_cats[key] = (np.array([scale, -scale], dtype=complex), ax, ay)
        if not odd_cats:
            raise ValidationError(
                "phase jitter is undefined for a basis without cat decomposition"
            )
        cats = list(odd_cats.values())
        cross = _inner_products(cats, cats)[~np.eye(len(cats), dtype=bool)]
        if np.any(np.abs(cross) > 1e-12):
            raise ValidationError("odd cats of distinct beam pairs must be orthogonal")
        projections = _inner_products(cats, [s._arrays for s in self.states])
        v = np.conj(projections).T @ projections
        return self.gram - v, v


def _y_axis_state(
    params: QubitParams, angle: OverlapAngle, frame: ModeFrame
) -> SuperpositionState:
    """Two-beam superposition along y, sharing the x center of the x states.

    Both beams sit at the common x center d/2; the y displacements are the
    symmetric pair -alpha/2 and +alpha/2, so the beam separation (and hence
    theta_d) matches the x-axis construction exactly.
    """
    half = angle.alpha / 2.0
    return _two_beam(frame, params.T, params.phi, (half, -half), (half, half))


def build_basis(scheme: str, angle: OverlapAngle, frame: ModeFrame) -> BasisSet:
    """Construct one of the multimode signal sets.

    four_cat: even/odd cats on the x axis plus even/odd cats on the y axis;
    orthogonal up to the exponentially small even-even cross overlap.
    twelve_state: the two six-state equator families {cat+, cat-, x-, x+,
    p-, p+} on both axes.
    four_hg_reference: the bare Gaussian modes {vac, coh_x, coh_y, coh_xy}
    (non-orthogonal reference for comparison).
    """
    if scheme == "four_cat":
        kinds = ("cat_plus", "cat_minus")
    elif scheme == "twelve_state":
        kinds = ("cat_plus", "cat_minus", "x_minus", "x_plus", "p_minus", "p_plus")
    elif scheme == "four_hg_reference":
        alpha = angle.alpha
        centers = ((0.0, 0.0), (alpha, 0.0), (0.0, alpha), (alpha, alpha))
        # T = 1 keeps the first beam alone
        states = tuple(_two_beam(frame, 1.0, 0.0, c, c) for c in centers)
        return BasisSet(name=scheme, states=states)
    else:
        raise ValidationError(
            f"unknown basis scheme {scheme!r}; expected one of {BASIS_SCHEMES}"
        )
    x_family = [make_typical_state(kind, angle, frame)[1] for kind in kinds]
    y_family = [
        _y_axis_state(_typical_params(kind, angle, frame), angle, frame) for kind in kinds
    ]
    return BasisSet(name=scheme, states=tuple(x_family + y_family))


@dataclass(frozen=True)
class ChannelModel:
    """Disturbances applied per protocol round.

    rotation_jitter_sigma is the width (radians) of the per-round cat-phase
    jitter; a path jitter sigma_z through a fiber gives
    fiber.rotation_angle(sigma_z).  additive_overlap_noise_sigma perturbs
    each decision statistic with circular complex Gaussian noise.
    """

    rotation_jitter_sigma: float = 0.0
    additive_overlap_noise_sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for name in ("rotation_jitter_sigma", "additive_overlap_noise_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0")
        _check_seed(self.seed)


@dataclass(frozen=True)
class ProtocolStats:
    """Outcome counters of a Monte-Carlo protocol run."""

    rounds: int
    sifted: int
    errors: int

    def __post_init__(self):
        if not 0 <= self.errors <= self.sifted <= self.rounds:
            raise ValidationError(
                f"inconsistent counters: {self.errors} errors, "
                f"{self.sifted} sifted, {self.rounds} rounds"
            )

    @property
    def qber(self) -> float:
        """Error fraction among sifted rounds (nan when nothing sifted)."""
        return self.errors / self.sifted if self.sifted else math.nan

    @property
    def ber(self) -> float:
        """Alias used for keying runs, where every round counts."""
        return self.qber

    @property
    def sift_rate(self) -> float:
        return self.sifted / self.rounds if self.rounds else math.nan


# Rounds per decoder block: every decoder temporary but the score is this long.
_BLOCK = 8192


def psk_link_simulate(
    n: int,
    basis: BasisSet,
    channel: ChannelModel,
    seed: int | None = None,
) -> ProtocolStats:
    """Classical keying over the multimode link with max-overlap decoding.

    Each round sends a uniformly chosen basis state through the channel
    (phase jitter rotating the cat span, then additive circular noise on
    every decision statistic) and decodes by the largest |overlap|^2, ties
    to the lowest index.  All rounds enter the error count (no sifting).
    """
    if n < 1:
        raise ValidationError(f"need at least one round, got {n}")
    sigma_theta = channel.rotation_jitter_sigma
    if sigma_theta > 0.0:
        u, v = basis.overlap_matrices()
    else:
        u, v = basis.gram, np.zeros_like(basis.gram)
    rng = _generator(channel.seed if seed is None else seed)
    m = len(basis)
    # The draws keep their order: sent (one call, as bounded integers cannot
    # be split without moving the stream), the jitter, every real part of
    # the additive noise, then every imaginary part.  Drawn a block at a
    # time, each continues the stream exactly as one n- or (m, n)-sized draw
    # would, so score[k, i], the statistic of state k in round i, is the one
    # array n rounds long; every other temporary is one block long.
    sent = rng.integers(0, m, size=n).astype(np.min_scalar_type(m))
    score = np.empty((m, n))
    blocks = [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]
    rows = [score[k, block] for k in range(m) for block in blocks]
    width = min(n, _BLOCK)
    stat_buf, term_buf = np.empty((2, width), dtype=complex)
    noise_buf = np.empty(width)
    for block in blocks:
        index = sent[block].astype(np.intp)
        w = index.size
        stat, term = stat_buf[:w], term_buf[:w]
        deltas = rng.normal(0.0, sigma_theta, size=w) if sigma_theta > 0.0 else np.zeros(w)
        rotation = np.exp(-1j * deltas)
        for k in range(m):
            # |overlap| is invariant under the per-round global phase, so the
            # statistic can be taken real before the additive perturbation;
            # the indices are in range, and "clip" skips the copy of out that
            # the default mode makes
            np.take(u[k], index, out=stat, mode="clip")
            np.take(v[k], index, out=term, mode="clip")
            np.multiply(term, rotation, out=term)
            np.add(stat, term, out=stat)
            np.abs(stat, out=score[k, block])
    noise_sigma = channel.additive_overlap_noise_sigma
    if noise_sigma > 0.0:
        # the complex sum score + sigma (re + i im), part by part
        for row in rows:
            noise = rng.standard_normal(out=noise_buf[: row.size])
            np.multiply(noise, noise_sigma, out=noise)
            np.add(noise, row, out=row)
        for row in rows:
            stat = stat_buf[: row.size]
            stat.real = row
            noise = rng.standard_normal(out=noise_buf[: row.size])
            np.multiply(noise, noise_sigma, out=stat.imag)
            np.abs(stat, out=row)
    errors = 0
    for block in blocks:
        scores = score[:, block]
        np.square(scores, out=scores)
        best = scores.max(axis=0)
        # the lowest index of the largest score wins, as with argmax: rows
        # compared in descending order cost less than argmax's transposed
        # copy; a round of NaN scores (jitter overflow) decodes to 0
        decoded = np.zeros(best.size, dtype=sent.dtype)
        for k in range(m - 1, -1, -1):
            decoded[scores[k] == best] = k
        errors += int(np.count_nonzero(decoded != sent[block]))
    return ProtocolStats(rounds=n, sifted=n, errors=errors)


def qkd_simulate(
    n: int,
    angle: OverlapAngle,
    path_jitter_sigma: float,
    fiber: FiberSpec,
    seed: int | None = 0,
) -> ProtocolStats:
    """Two-basis key exchange over a path-jittered rotator link.

    The sender draws a basis (x or p) and a bit, sending |x-|/|x+| or
    |p-|/|p+|; the link rotates the cat span by 2 pi dz / (c T') with
    dz ~ N(0, sigma_z); the receiver projects in a uniformly chosen basis
    with Born-rule sampling.  Only matched-basis rounds are sifted.

    On the qubit sphere (even/odd cat poles on +-x) the four signals sit at
    z = +-1 (x basis) and y = -+1 (p basis); the link rotation advances
    (y, z) by the jitter angle, so a matched round errs with probability
    (1 - cos delta) / 2, and theta_d drops out of the error model:
    ``angle`` names the signal states and is not read.
    """
    if n < 1:
        raise ValidationError(f"need at least one round, got {n}")
    if not (0.0 <= path_jitter_sigma < math.inf):
        raise ValidationError(
            f"path jitter must be finite and >= 0, got {path_jitter_sigma}"
        )
    rng = _generator(seed)
    sigma_theta = fiber.rotation_angle(path_jitter_sigma)
    if not math.isfinite(sigma_theta):
        raise ValidationError(
            f"path jitter sigma_z = {path_jitter_sigma!r} m over the self-image period "
            f"{fiber.period_length!r} m gives a rotation jitter that is not finite"
        )
    basis_s = rng.integers(0, 2, size=n)  # 0: x basis, 1: p basis
    bits = rng.integers(0, 2, size=n)
    matched = basis_s == rng.integers(0, 2, size=n)  # the receiver's basis
    del basis_s
    deltas = (
        rng.normal(0.0, sigma_theta, size=n) if sigma_theta > 0.0 else np.zeros(n)
    )
    born = rng.random(n)
    bits = bits[matched]
    # a matched round measures the rotated signal's own axis: P(outcome 0)
    # is (1 + sgn cos delta) / 2 in either basis, with sgn = 1 - 2 bit
    p_zero = (1.0 + (1.0 - 2.0 * bits) * np.cos(deltas[matched])) / 2.0
    errors = int(np.count_nonzero((born[matched] < p_zero) == (bits == 1)))
    return ProtocolStats(rounds=n, sifted=bits.size, errors=errors)


def expected_qber(sigma_theta: float) -> float:
    """Exact mean QBER of qkd_simulate at rotation jitter sigma_theta (radians).

    E[(1 - cos delta) / 2] over delta ~ N(0, sigma_theta^2) is
    (1 - e^{-sigma_theta^2 / 2}) / 2, written with expm1 to keep small-sigma
    digits; a path jitter sigma_z enters as fiber.rotation_angle(sigma_z).
    sigma_theta = inf gives the fully dephased limit 1/2.
    """
    if not (sigma_theta >= 0.0):
        raise ValidationError(
            f"rotation jitter sigma_theta must be >= 0 and not NaN, got {sigma_theta!r}"
        )
    return -math.expm1(-sigma_theta * sigma_theta / 2.0) / 2.0


@dataclass(frozen=True)
class SweepPoint:
    """Focal-plane beam statistics at one (T, phi) setting."""

    T: float
    phi: float
    delta_x: float
    mean_vx: float
    center_intensity: float


def profile_sweep(
    path: list[tuple[float, float]], d: float, frame: ModeFrame
) -> list[SweepPoint]:
    """Beam-profile statistics along a path of (T, phi) settings.

    delta_x is the RMS position spread in meters, mean_vx the mean paraxial
    velocity <p_x>/(hbar k) (units of c), center_intensity the position
    density at the pattern midpoint d/2.  The states on one beam set, keyed
    on its exact bytes, are evaluated as one stack, each with its own bits.
    """
    if not path:
        raise ValidationError("sweep path must be non-empty")
    states, refused = [], None
    try:
        for t, phi in path:
            states.append(make_qubit_state(QubitParams(T=t, phi=phi, d=d), frame))
    except Exception as err:  # raised once the points before it pass, as point by point
        refused = err
    groups: dict[bytes, list[int]] = {}
    for i, state in enumerate(states):
        groups.setdefault(state._arrays.ax.tobytes() + state._arrays.ay.tobytes(), []).append(i)
    moments = np.empty((4, len(states)), complex)  # trace, Var X, <P>, density of each point
    for members in groups.values():
        first, c = states[members[0]], np.array([states[i]._arrays.c for i in members])
        ax, overlaps = first._arrays.ax, _weighted(c, first._grams[0])
        total, _, var_x = _moments(overlaps, ax, 0.0)
        center = first._density(ax, np.array([d / 2.0]), weights=_weighted(c, first._grams[1]))
        moments[:, members] = total, var_x, _moments(overlaps, ax, math.pi / 2)[1], center[:, 0]
    for total in moments[0]:  # in path order; the trace at pi/2 is this same sum
        _check_trace(total)
    if refused:
        raise refused
    return [SweepPoint(t, phi, frame.x_scale * math.sqrt(var.real),
                       frame.p_scale * mean.real / (HBAR * frame.k), float(dens.real))
            for (t, phi), (_, var, mean, dens) in zip(path, moments.T)]


def dephased_mixture(d: float, frame: ModeFrame) -> SuperpositionState:
    """The T = 1/2, phi-averaged ensemble (|vac><vac| + |coh><coh|) / 2.

    It is the two-beam qubit at coherence 0: its Wigner map is
    (W_vac + W_coh) / 2 and its purity (1 + cos^2 theta_d) / 2.
    """
    if not (d > 0.0):
        raise ValidationError(f"mixture displacement must be positive, got {d}")
    alpha = OverlapAngle.from_displacement(d, frame.w0).alpha
    return _two_beam(frame, 0.5, 0.0, (0.0, 0.0), (alpha, 0.0), coherence=0.0)
