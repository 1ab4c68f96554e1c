"""Protocol-level applications: beam-profile sweeps, multimode keying, QKD.

The qubit lives in the two-dimensional span of the even and odd cat states
of one transverse axis.  Propagation-phase disturbances act on that span as
a relative phase between the even and odd components, so channels here are
modeled directly on the (g_even, g_odd) coordinates; phase-space pictures
stay available through the states and Wigner modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .propagation import FiberSpec
from .states import (
    HBAR,
    CoherentTerm,
    ModeFrame,
    OverlapAngle,
    QubitParams,
    SuperpositionState,
    _check_seed,
    _gram,
    cat_coefficients,
    coherent_overlap,
    make_qubit_state,
    make_typical_state,
)
from .wigner import (
    WignerMap,
    _auto_window,
    _validate_map,
    marginal_position,
    quadrature_moments,
    wigner_of_state,
)

BASIS_SCHEMES = ("four_cat", "twelve_state", "four_hg_reference")


def rotate_cat_phase(state: SuperpositionState, delta: float) -> SuperpositionState:
    """Advance the odd-cat component of a two-beam state by e^{-i delta}.

    This is the action of a small propagation-phase offset on the qubit
    span: the even and odd cats are the stationary states, and delta is the
    phase walked between them.  Requires a two-term state whose term overlap
    is real and positive (a displacement-symmetric pair).
    """
    if len(state.terms) != 2:
        raise ValidationError("cat-phase rotation needs exactly two beams")
    ta, tb = state.terms
    mu = coherent_overlap(tb.alpha_x, ta.alpha_x) * coherent_overlap(
        tb.alpha_y, ta.alpha_y
    )
    if abs(mu.imag) > 1e-12 * max(abs(mu), 1.0) or not (0.0 < mu.real < 1.0):
        raise ValidationError("cat-phase rotation needs a displacement-symmetric pair")
    n_plus = 1.0 + mu.real
    n_minus = 1.0 - mu.real
    g_even = (ta.coeff + tb.coeff) * math.sqrt(n_plus / 2.0)
    g_odd = (ta.coeff - tb.coeff) * math.sqrt(n_minus / 2.0)
    g_odd = g_odd * complex(math.cos(delta), -math.sin(delta))
    ca = g_even / math.sqrt(2.0 * n_plus) + g_odd / math.sqrt(2.0 * n_minus)
    cb = g_even / math.sqrt(2.0 * n_plus) - g_odd / math.sqrt(2.0 * n_minus)
    return SuperpositionState.from_terms(
        state.frame,
        [
            CoherentTerm(coeff=ca, alpha_x=ta.alpha_x, alpha_y=ta.alpha_y),
            CoherentTerm(coeff=cb, alpha_x=tb.alpha_x, alpha_y=tb.alpha_y),
        ],
    )


@dataclass(frozen=True)
class BasisSet:
    """Named list of signal states with their qubit-span coordinates.

    axes / g_even / g_odd hold the per-state cat decomposition when every
    state is a two-beam superposition along a single transverse axis; they
    are None for reference sets of bare Gaussian modes.  cross_even_overlap
    is the only nonzero inner product between the x-axis and y-axis cat
    spans (even with even).
    """

    name: str
    states: tuple[SuperpositionState, ...]
    axes: tuple[str, ...] | None = None
    g_even: tuple[complex, ...] | None = None
    g_odd: tuple[complex, ...] | None = None
    cross_even_overlap: float = 0.0

    def __post_init__(self):
        if not self.states:
            raise ValidationError("a basis needs at least one state")
        if self.axes is not None:
            if not (
                len(self.axes) == len(self.g_even) == len(self.g_odd) == len(self.states)
            ):
                raise ValidationError("cat metadata must cover every basis state")

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def gram(self) -> np.ndarray:
        """Hermitian matrix of pairwise inner products <b_i|b_j>."""
        # one overlap matrix over every term of the basis, summed per state:
        # blocks[i, t] is the coefficient of term t in b_i, 0 for other states
        terms = [(i, t) for i, s in enumerate(self.states) for t in s.terms]
        blocks = np.zeros((len(self.states), len(terms)), dtype=complex)
        blocks[[i for i, _ in terms], range(len(terms))] = [t.coeff for _, t in terms]
        ax = np.array([t.alpha_x for _, t in terms])
        ay = np.array([t.alpha_y for _, t in terms])
        # _gram[p, q] = <t_q|t_p>, so <b_i|b_j> = sum_pq conj(B[i, q]) G[p, q] B[j, p]
        return np.conj(blocks) @ _gram(ax, ay, ax, ay).T @ blocks.T

    def overlap_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, V) with <b_i| R(delta) |b_j> = U[i,j] + V[i,j] e^{-i delta}.

        R(delta) is the cat-phase rotation; cross-axis entries carry only
        the even-even component, which the rotation leaves fixed.
        """
        if self.axes is None:
            return self.gram.copy(), np.zeros_like(self.gram)
        m = len(self.states)
        ge = np.asarray(self.g_even, dtype=complex)
        go = np.asarray(self.g_odd, dtype=complex)
        same = np.equal.outer(self.axes, self.axes)
        u = np.conj(ge)[:, None] * ge[None, :] * np.where(
            same, 1.0, self.cross_even_overlap
        )
        v = np.conj(go)[:, None] * go[None, :] * same
        return u, v


def _y_axis_state(
    params: QubitParams, angle: OverlapAngle, frame: ModeFrame
) -> SuperpositionState:
    """Two-beam superposition along y, sharing the x center of the x states.

    Both beams sit at the common x center d/2; the y displacements are the
    symmetric pair -alpha/2 and +alpha/2, so the beam separation (and hence
    theta_d) matches the x-axis construction exactly.
    """
    alpha = angle.alpha
    u = math.sqrt(params.T)
    v = complex(math.cos(params.phi), math.sin(params.phi)) * math.sqrt(1.0 - params.T)
    return SuperpositionState.from_terms(
        frame,
        [
            CoherentTerm(coeff=u, alpha_x=alpha / 2.0, alpha_y=-alpha / 2.0),
            CoherentTerm(coeff=v, alpha_x=alpha / 2.0, alpha_y=+alpha / 2.0),
        ],
    )


def _as_overlap_angle(theta_d) -> OverlapAngle:
    """Accept a precise OverlapAngle or a plain angle in radians.

    Passing the angle object keeps exponentially small overlaps exact at
    large separations, where the radian value alone rounds to pi/2.
    """
    if isinstance(theta_d, OverlapAngle):
        return theta_d
    if not (0.0 < theta_d < math.pi / 2.0):
        raise ValidationError(f"theta_d must lie in (0, pi/2), got {theta_d}")
    return OverlapAngle.from_theta(theta_d)


def build_basis(
    scheme: str, theta_d: float | OverlapAngle, frame: ModeFrame
) -> BasisSet:
    """Construct one of the multimode signal sets.

    four_cat: even/odd cats on the x axis plus even/odd cats on the y axis;
    orthogonal up to the exponentially small even-even cross overlap.
    twelve_state: the two six-state equator families {cat+, cat-, x-, x+,
    p-, p+} on both axes.
    four_hg_reference: the bare Gaussian modes {vac, coh_x, coh_y, coh_xy}
    (non-orthogonal reference for comparison).
    """
    angle = _as_overlap_angle(theta_d)
    alpha = angle.alpha
    if scheme == "four_cat":
        kinds = ("cat_plus", "cat_minus")
    elif scheme == "twelve_state":
        kinds = ("cat_plus", "cat_minus", "x_minus", "x_plus", "p_minus", "p_plus")
    elif scheme == "four_hg_reference":
        centers = ((0.0, 0.0), (alpha, 0.0), (0.0, alpha), (alpha, alpha))
        states = tuple(
            SuperpositionState.from_terms(
                frame, [CoherentTerm(coeff=1.0, alpha_x=ax, alpha_y=ay)]
            )
            for ax, ay in centers
        )
        return BasisSet(name=scheme, states=states)
    else:
        raise ValidationError(
            f"unknown basis scheme {scheme!r}; expected one of {BASIS_SCHEMES}"
        )
    states = []
    axes = []
    g_even = []
    g_odd = []
    for axis in ("x", "y"):
        for kind in kinds:
            params, x_state = make_typical_state(kind, angle, frame)
            ge, go = cat_coefficients(params, angle)
            states.append(x_state if axis == "x" else _y_axis_state(params, angle, frame))
            axes.append(axis)
            g_even.append(ge)
            g_odd.append(go)
    cross = 2.0 * math.exp(-(alpha**2) / 2.0) / angle.n_plus
    return BasisSet(
        name=scheme,
        states=tuple(states),
        axes=tuple(axes),
        g_even=tuple(g_even),
        g_odd=tuple(g_odd),
        cross_even_overlap=cross,
    )


@dataclass(frozen=True)
class ChannelModel:
    """Disturbances applied per protocol round.

    Exactly one of rotation_jitter_sigma (radians, direct phase jitter) or
    path_jitter_sigma (meters, converted through the fiber's self-image
    period) may be nonzero; additive_overlap_noise_sigma perturbs each
    decision statistic with circular complex Gaussian noise.
    """

    rotation_jitter_sigma: float = 0.0
    path_jitter_sigma: float = 0.0
    fiber: FiberSpec | None = None
    additive_overlap_noise_sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for name in (
            "rotation_jitter_sigma",
            "path_jitter_sigma",
            "additive_overlap_noise_sigma",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0")
        if self.rotation_jitter_sigma > 0.0 and self.path_jitter_sigma > 0.0:
            raise ValidationError("give rotation jitter or path jitter, not both")
        if self.path_jitter_sigma > 0.0 and self.fiber is None:
            raise ValidationError("path jitter needs a FiberSpec to set the scale")
        _check_seed(self.seed)

    @property
    def theta_sigma(self) -> float:
        """Effective phase-jitter width in radians."""
        if self.path_jitter_sigma > 0.0:
            return 2.0 * math.pi * self.path_jitter_sigma / self.fiber.period_length
        return self.rotation_jitter_sigma


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
    sigma_theta = channel.theta_sigma
    if sigma_theta > 0.0 and basis.axes is None:
        raise ValidationError(
            "phase jitter is undefined for a basis without cat decomposition"
        )
    if seed is None:
        seed = channel.seed if channel.seed is not None else 0
    _check_seed(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    m = len(basis)
    sent = rng.integers(0, m, size=n)
    deltas = rng.normal(0.0, sigma_theta, size=n) if sigma_theta > 0.0 else np.zeros(n)
    noise_sigma = channel.additive_overlap_noise_sigma
    # One (m, n) real draw, then the imaginary parts one row at a time: the
    # row draws continue the stream exactly as a second (m, n) draw would.
    noise_re = rng.standard_normal((m, n)) if noise_sigma > 0.0 else None
    u, v = basis.overlap_matrices()
    rotation = np.exp(-1j * deltas)
    best = np.full(n, -np.inf)
    decoded = np.zeros(n, dtype=np.intp)
    for k in range(m):
        # |overlap| is invariant under the per-round global phase, so the
        # statistic can be taken real before the additive perturbation
        statistic = np.abs(u[k, sent] + v[k, sent] * rotation)
        if noise_re is not None:
            statistic = statistic + noise_sigma * (noise_re[k] + 1j * rng.standard_normal(n))
        score = np.abs(statistic) ** 2
        # strict > keeps ties at the lowest index, as argmax does
        decoded[score > best] = k
        np.maximum(best, score, out=best)
    errors = int(np.count_nonzero(decoded != sent))
    return ProtocolStats(rounds=n, sifted=n, errors=errors)


def qkd_simulate(
    n: int,
    theta_d: float | OverlapAngle,
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
    (y, z) by the jitter angle, and theta_d drops out of the error model.
    """
    if n < 1:
        raise ValidationError(f"need at least one round, got {n}")
    if path_jitter_sigma < 0.0:
        raise ValidationError(f"path jitter must be >= 0, got {path_jitter_sigma}")
    _as_overlap_angle(theta_d)  # theta_d drops out; still validate the range
    _check_seed(seed)
    sigma_theta = 2.0 * math.pi * path_jitter_sigma / fiber.period_length
    rng = np.random.Generator(np.random.Philox(0 if seed is None else seed))
    basis_s = rng.integers(0, 2, size=n)  # 0: x basis, 1: p basis
    bits = rng.integers(0, 2, size=n)
    basis_r = rng.integers(0, 2, size=n)
    deltas = (
        rng.normal(0.0, sigma_theta, size=n) if sigma_theta > 0.0 else np.zeros(n)
    )
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
    return ProtocolStats(rounds=n, sifted=sifted, errors=errors)


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
    density at the pattern midpoint d/2.
    """
    if not path:
        raise ValidationError("sweep path must be non-empty")
    out = []
    for t, phi in path:
        params = QubitParams(T=t, phi=phi, d=d)
        state = make_qubit_state(params, frame)
        _, var_x = quadrature_moments(state, 0.0)
        mean_p, _ = quadrature_moments(state, math.pi / 2.0)
        delta_x = frame.x_scale * math.sqrt(var_x)
        mean_vx = frame.p_scale * mean_p / (HBAR * frame.k)
        center = float(marginal_position(params, frame, np.array([d / 2.0]))[0])
        out.append(
            SweepPoint(
                T=t, phi=phi, delta_x=delta_x, mean_vx=mean_vx, center_intensity=center
            )
        )
    return out


@dataclass(frozen=True)
class DephasedMixture:
    """Equal vacuum/coherent mixture left after uniform phi averaging."""

    frame: ModeFrame
    d: float

    def __post_init__(self):
        if not (self.d > 0.0):
            raise ValidationError(f"mixture displacement must be positive, got {self.d}")

    @property
    def angle(self) -> OverlapAngle:
        return OverlapAngle.from_displacement(self.d, self.frame.w0)

    @property
    def components(self) -> tuple[tuple[float, SuperpositionState], ...]:
        vac = SuperpositionState.from_terms(
            self.frame, [CoherentTerm(coeff=1.0, alpha_x=0.0)]
        )
        coh = SuperpositionState.from_terms(
            self.frame, [CoherentTerm(coeff=1.0, alpha_x=self.angle.alpha)]
        )
        return ((0.5, vac), (0.5, coh))

    @property
    def purity(self) -> float:
        """Tr rho^2 = (1 + cos^2 theta_d) / 2."""
        return (1.0 + self.angle.cos_theta_d**2) / 2.0

    def wigner_values(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """SI-unit Wigner values (weighted component sum, no cross term)."""
        return sum(w * wigner_of_state(state, x, p) for w, state in self.components)

    def position_intensity(self, x: np.ndarray) -> np.ndarray:
        return sum(w * state.position_intensity(x) for w, state in self.components)

    def wigner_map(self, n: int = 256) -> WignerMap:
        """Auto-sized nondimensional map of the mixture (integrates to 1)."""
        alpha = self.angle.alpha
        # components centered at X = 0 and 2 alpha: mean alpha, variance 1/2 + alpha^2
        moments = ((alpha, 0.5 + alpha**2), (0.0, 0.5))
        grid, values = _auto_window(self.frame, self.wigner_values, moments, n, False)
        out = WignerMap(grid=grid, values=values)
        _validate_map(out, auto=True)
        return out


def dephased_mixture(d: float, frame: ModeFrame) -> DephasedMixture:
    """The T = 1/2, phi-averaged ensemble: (W_vac + W_coh) / 2."""
    return DephasedMixture(frame=frame, d=d)
