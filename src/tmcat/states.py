"""Mode conventions, displaced-Gaussian states, and the qubit parametrization.

A transverse beam mode with waist ``w0`` behaves like a quantum particle:
the fundamental Gaussian plays the role of the vacuum and a displaced
Gaussian plays the role of a coherent state.  The dimensionless amplitude

    alpha = d / (sqrt(2) * w0)          (real part: position offset d)

labels each displaced term; an imaginary part of alpha encodes a transverse
tilt (momentum offset).  Nondimensional quadratures are

    X = sqrt(2) * x / w0,   P = w0 * p_x / (sqrt(2) * hbar),

so [X, P] = i, the vacuum has Var(X) = Var(P) = 1/2, and a coherent term
sits at (<X>, <P>) = (2 Re alpha, 2 Im alpha).

A qubit state is the normalized two-beam superposition

    |arb> = (sqrt(T) |vac> + e^{i phi} sqrt(1-T) |coh>) / sqrt(N_arb),
    N_arb = 1 + 2 sqrt(T (1-T)) cos(theta_d) cos(phi),

where cos(theta_d) = <vac|coh> = exp(-|alpha|^2) measures the
non-orthogonality of the two beams.  The orthonormal even/odd cat pair
diagonalizes the geometry; Bloch coordinates are taken in the basis of the
Bloch poles |x-> (north) and |x+> (south), the equal-weight superpositions
of the normalized even and odd cats with a real relative amplitude.  The
poles sit exactly at the vacuum variance Var(X) = 1/2 (their position
distributions are reshaped, not narrowed); only the even cat, at
(+1, 0, 0), squeezes below it, in P.  The odd cat sits at (-1, 0, 0).

Every quantity bilinear in a state is a sum over term pairs, evaluated here
as numpy pair arrays, never as Python loops.  The convention: the first
index is the ket and the second the bra.  The y-reduced pair weight is
W[j, k] = c_j conj(c_k) <y_k|y_j> (ket term j, bra term k), and the two-axis
Gram of term arrays a and b is G[j, k] = <b_k|a_j> (ket a_j, bra b_k), so
<psi|psi> = sum_jk W[j, k] <x_k|x_j>.  ``coherent_overlap`` broadcasts:
``coherent_overlap(a[:, None], b[None, :])`` is the matrix <b_k|a_j>.
A momentum density is the position density of the quarter-turned state
(alpha -> -i alpha), so one mode formula serves both pictures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s

TYPICAL_KINDS = (
    "vac",
    "coh",
    "cat_plus",
    "cat_minus",
    "x_minus",
    "x_plus",
    "p_minus",
    "p_plus",
)


def wrap_phase(phi: float) -> float:
    """Wrap an angle to the storage interval [0, 2*pi)."""
    out = math.fmod(phi, 2.0 * math.pi)
    if out < 0.0:
        out += 2.0 * math.pi
    # fmod can return exactly 2*pi after the correction when phi ~ -1e-17
    if out >= 2.0 * math.pi:
        out = 0.0
    return out


def signed_phase(phi: float) -> float:
    """Return the (-pi, pi] representative of an angle."""
    out = wrap_phase(phi)
    if out > math.pi:
        out -= 2.0 * math.pi
    return out


def _check_seed(seed: int | None) -> None:
    """Reject a PRNG seed that is neither None nor a non-negative integer."""
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ModeFrame:
    """Beam waist and wavelength; fixes the unit system for everything else.

    Attributes
    ----------
    w0 : float
        Intensity 1/e^2 radius of the fundamental mode at the waist (m).
    wavelength : float
        Optical wavelength (m).
    """

    w0: float
    wavelength: float

    def __post_init__(self):
        if not (self.w0 > 0.0):
            raise ValidationError(f"w0 must be positive, got {self.w0}")
        if not (self.wavelength > 0.0):
            raise ValidationError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def k(self) -> float:
        """Wavenumber 2*pi/lambda (rad/m)."""
        return 2.0 * math.pi / self.wavelength

    @property
    def z_r(self) -> float:
        """Rayleigh range k*w0^2/2 (m)."""
        return self.k * self.w0**2 / 2.0

    @property
    def m_prime(self) -> float:
        """Mass-equivalent hbar*k/c of the paraxial analogy (kg)."""
        return HBAR * self.k / C_LIGHT

    @property
    def x_scale(self) -> float:
        """Meters per unit of nondimensional X: x = x_scale * X."""
        return self.w0 / math.sqrt(2.0)

    @property
    def p_scale(self) -> float:
        """Momentum units (kg m/s) per unit of nondimensional P."""
        return math.sqrt(2.0) * HBAR / self.w0


@dataclass(frozen=True)
class OverlapAngle:
    """Non-orthogonality angle of the two interferometer beams.

    cos(theta_d) = <vac|coh> = exp(-|alpha|^2) = exp(-d^2 / (2 w0^2)).

    The angle is kept strictly inside (0, pi/2); validation is done on
    cos(theta_d) in (0, 1) because theta_d itself rounds to pi/2 in floating
    point long before the overlap underflows.
    """

    theta_d: float
    cos_theta_d: float

    def __post_init__(self):
        if not (0.0 < self.cos_theta_d < 1.0):
            raise ValidationError(
                f"cos(theta_d) must lie in (0, 1), got {self.cos_theta_d}"
            )
        if not math.isclose(
            math.cos(self.theta_d), self.cos_theta_d, rel_tol=0.0, abs_tol=1e-12
        ):
            raise ValidationError("theta_d and cos_theta_d are inconsistent")

    @classmethod
    def from_theta(cls, theta_d: float) -> "OverlapAngle":
        return cls(theta_d=theta_d, cos_theta_d=math.cos(theta_d))

    @classmethod
    def from_alpha(cls, alpha: float) -> "OverlapAngle":
        c = math.exp(-abs(alpha) ** 2)
        return cls(theta_d=math.acos(c), cos_theta_d=c)

    @classmethod
    def from_displacement(cls, d: float, w0: float) -> "OverlapAngle":
        return cls.from_alpha(d / (math.sqrt(2.0) * w0))

    @property
    def sin_theta_d(self) -> float:
        return math.sqrt(1.0 - self.cos_theta_d**2)

    @property
    def alpha(self) -> float:
        """Real displacement amplitude reproducing this overlap."""
        return math.sqrt(-math.log(self.cos_theta_d))

    def displacement(self, w0: float) -> float:
        """Beam separation d (m) reproducing this overlap at waist w0."""
        return math.sqrt(2.0) * w0 * self.alpha

    @property
    def n_plus(self) -> float:
        """Even-cat normalization 1 + cos(theta_d)."""
        return 1.0 + self.cos_theta_d

    @property
    def n_minus(self) -> float:
        """Odd-cat normalization 1 - cos(theta_d)."""
        return 1.0 - self.cos_theta_d


@dataclass(frozen=True)
class QubitParams:
    """Interferometer parameters (T, phi) plus the beam separation d.

    phi is stored wrapped to [0, 2*pi); ``phi_signed`` gives the (-pi, pi]
    representative used for reporting.
    """

    T: float
    phi: float
    d: float

    def __post_init__(self):
        if not (0.0 <= self.T <= 1.0):
            raise ValidationError(f"T must lie in [0, 1], got {self.T}")
        if not (self.d >= 0.0):
            raise ValidationError(f"d must be non-negative, got {self.d}")
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    @property
    def phi_signed(self) -> float:
        return signed_phase(self.phi)

    def alpha(self, w0: float) -> float:
        """Dimensionless displacement amplitude d / (sqrt(2) w0)."""
        return self.d / (math.sqrt(2.0) * w0)


@dataclass(frozen=True)
class BlochVector:
    """Unit vector on the qubit sphere in the {|x->, |x+>} basis."""

    xq: float
    yq: float
    zq: float

    def __post_init__(self):
        r2 = self.xq**2 + self.yq**2 + self.zq**2
        if abs(r2 - 1.0) > 1e-12:
            raise ValidationError(f"Bloch vector must be unit length, |b|^2 = {r2!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.xq, self.yq, self.zq])


@dataclass(frozen=True)
class CoherentTerm:
    """One complex-weighted displaced-Gaussian (coherent) term.

    Re(alpha) is a position offset, Im(alpha) a transverse tilt; both axes
    carry their own amplitude.  The term wavefunction itself is normalized;
    ``coeff`` is the superposition weight.
    """

    coeff: complex
    alpha_x: complex
    alpha_y: complex = 0.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "alpha_x", complex(self.alpha_x))
        object.__setattr__(self, "alpha_y", complex(self.alpha_y))
        # a NaN or an infinity in any of the three makes their sum non-finite
        if not cmath.isfinite(self.coeff + self.alpha_x + self.alpha_y):
            raise ValidationError(f"term values must be finite, got {self!r}")


def coherent_overlap(alpha: complex | np.ndarray, beta: complex | np.ndarray):
    """Overlap <beta|alpha> of two normalized displaced-Gaussian modes.

    <beta|alpha> = exp(-|alpha|^2 - |beta|^2 + 2 conj(beta) alpha), so
    <0|alpha> = exp(-|alpha|^2) and |<beta|alpha>| = exp(-|alpha - beta|^2).
    The complex-argument phase matches explicit wavefunction quadrature
    (checked by the test-suite oracle).  Broadcasts over array arguments.
    """
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    return np.exp(-np.abs(a) ** 2 - np.abs(b) ** 2 + 2.0 * np.conj(b) * a)


def _d_kappa(alpha, w0: float):
    """Center d = sqrt(2) w0 Re(alpha) and tilt kappa = 2 sqrt(2) Im(alpha) / w0."""
    a = np.asarray(alpha, dtype=complex)
    return math.sqrt(2.0) * w0 * a.real, 2.0 * math.sqrt(2.0) * a.imag / w0


def _gram(ax, ay, bx, by) -> np.ndarray:
    """Two-axis term overlaps G[j, k] = <b_k|a_j> (coefficients not included)."""
    return coherent_overlap(ax[:, None], bx[None, :]) * coherent_overlap(
        ay[:, None], by[None, :]
    )


def _pair_overlaps(c, ax, ay) -> np.ndarray:
    """Two-axis pair weights c_j conj(c_k) <t_k|t_j>; they sum to <psi|psi>."""
    return c[:, None] * np.conj(c)[None, :] * _gram(ax, ay, ax, ay)


def _pair_sum(weights: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_jk weights[j, k] f_j conj(g_k) over term-stacked arrays (term axis 0)."""
    return (f * np.tensordot(weights, np.conj(g), axes=1)).sum(axis=0)


def gaussian_mode_1d(alpha: complex, w0: float, x: np.ndarray) -> np.ndarray:
    """Normalized displaced-tilted Gaussian wavefunction along one axis.

    psi(x) = (2/(pi w0^2))^{1/4} exp(-(x-d)^2/w0^2) exp(i kappa x - i kappa d / 2)
    with d = sqrt(2) w0 Re(alpha) and kappa = 2 sqrt(2) Im(alpha) / w0.  The
    half-displacement phase convention makes the overlap integral reproduce
    ``coherent_overlap`` including its complex phase.
    """
    x = np.asarray(x, dtype=float)
    d, kappa = _d_kappa(alpha, w0)
    norm = (2.0 / (math.pi * w0**2)) ** 0.25
    return norm * np.exp(-((x - d) ** 2) / w0**2 + 1j * (kappa * x - kappa * d / 2.0))


@dataclass(frozen=True)
class SuperpositionState:
    """Finite complex-weighted sum of displaced-Gaussian terms.

    Use :meth:`from_terms`, which normalizes the sum and caches the
    pre-normalization <psi|psi> in ``norm``.  ``degenerate`` flags inputs
    whose terms coincided and were merged into a single Gaussian.
    """

    frame: ModeFrame
    terms: tuple[CoherentTerm, ...]
    norm: float
    degenerate: bool = False

    @classmethod
    def from_terms(
        cls, frame: ModeFrame, terms: Iterable[CoherentTerm]
    ) -> "SuperpositionState":
        given = list(terms)
        if not given:
            raise ValidationError("state must contain at least one term")
        merged: dict[tuple[complex, complex], complex] = {}
        for t in given:
            key = (complex(t.alpha_x), complex(t.alpha_y))
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(t.coeff)
        degenerate = len(merged) < len(given)
        ax, ay = np.array(list(merged), dtype=complex).T
        raw = float(_pair_overlaps(np.array(list(merged.values())), ax, ay).real.sum())
        if raw <= 1e-15:
            raise ValidationError(
                f"state norm {raw!r} vanishes; the requested superposition cancels"
            )
        scale = 1.0 / math.sqrt(raw)
        normalized = tuple(
            CoherentTerm(coeff=c * scale, alpha_x=a_x, alpha_y=a_y)
            for (a_x, a_y), c in merged.items()
        )
        return cls(frame=frame, terms=normalized, norm=raw, degenerate=degenerate)

    def coeffs(self) -> np.ndarray:
        return np.array([t.coeff for t in self.terms])

    def alphas_x(self) -> np.ndarray:
        return np.array([t.alpha_x for t in self.terms])

    def alphas_y(self) -> np.ndarray:
        return np.array([t.alpha_y for t in self.terms])

    def x_wavefunction(self, x: np.ndarray) -> np.ndarray:
        """1D wavefunction along x when every term shares one y mode."""
        ay = self.alphas_y()
        if not np.all(ay == ay[0]):
            raise ValidationError(
                "state is not separable in x and y; terms carry different alpha_y"
            )
        return np.tensordot(self.coeffs(), self._fields(self.alphas_x(), x), axes=1)

    def position_intensity(self, x: np.ndarray) -> np.ndarray:
        """y-reduced position density: integrates to 1 over x."""
        return self._density(self.alphas_x(), x)

    def momentum_intensity(self, p: np.ndarray) -> np.ndarray:
        """y-reduced momentum density along p_x: integrates to 1 over p.

        The quarter turn alpha -> -i alpha maps P onto X and leaves W unchanged,
        so this is the turned position density at x = s p, s = w0^2 / (2 hbar).
        """
        s = self.frame.w0**2 / (2.0 * HBAR)
        return s * self._density(-1j * self.alphas_x(), s * np.asarray(p, dtype=float))

    def _fields(self, ax: np.ndarray, x) -> np.ndarray:
        """x-mode fields of the amplitudes ax at x, stacked on axis 0."""
        x = np.asarray(x, dtype=float)
        return gaussian_mode_1d(ax.reshape(ax.shape + (1,) * x.ndim), self.frame.w0, x)

    def _density(self, ax: np.ndarray, x) -> np.ndarray:
        """y-reduced density sum_jk W[j, k] f_j conj(f_k) of the x-mode fields."""
        fields = self._fields(ax, x)
        return _pair_sum(_pair_weights(self), fields, fields).real


def _pair_weights(state: SuperpositionState) -> np.ndarray:
    """y-reduced pair weights W[j, k] = c_j conj(c_k) <y_k|y_j>."""
    c = state.coeffs()
    ay = state.alphas_y()
    return c[:, None] * np.conj(c)[None, :] * coherent_overlap(ay[:, None], ay[None, :])


def inner_product(a: SuperpositionState, b: SuperpositionState) -> complex:
    """Sesquilinear <a|b> over the shared mode frame."""
    if a.frame != b.frame:
        raise ValidationError("states live in different mode frames")
    gram = _gram(b.alphas_x(), b.alphas_y(), a.alphas_x(), a.alphas_y())
    return complex(b.coeffs() @ gram @ np.conj(a.coeffs()))


def _n_arb(T: float, phi: float, cos_theta_d: float) -> float:
    """N_arb = 1 + 2 sqrt(T (1-T)) cos(theta_d) cos(phi), rejected when not positive."""
    n = 1.0 + 2.0 * math.sqrt(T * (1.0 - T)) * cos_theta_d * math.cos(phi)
    if n <= 1e-15:
        raise ValidationError(
            f"normalization factor {n!r} vanishes; the superposition is degenerate"
        )
    return n


def normalization_factor(T: float, phi: float, angle: OverlapAngle) -> float:
    """N_arb = 1 + 2 sqrt(T (1-T)) cos(theta_d) cos(phi).

    Raises when the result is not positive (possible only for degenerate
    overlaps where cos(theta_d) has rounded to 1).
    """
    if not (0.0 <= T <= 1.0):
        raise ValidationError(f"T must lie in [0, 1], got {T}")
    return _n_arb(T, phi, angle.cos_theta_d)


def make_qubit_state(
    params: QubitParams, frame: ModeFrame, tilt_alpha: float = 0.0
) -> SuperpositionState:
    """Build the normalized two-beam qubit state for (T, phi, d).

    T = 1 or T = 0 yields the single vacuum/coherent term.  d = 0 with
    T in (0, 1) is legal: the two terms coincide and are merged into a
    single Gaussian flagged ``degenerate`` (an error if the merge cancels).
    tilt_alpha adds an imaginary displacement i*tilt_alpha to the displaced
    beam, modeling a mirror-tilt momentum kick on that arm.
    """
    sqrt_t = math.sqrt(params.T)
    sqrt_r = math.sqrt(1.0 - params.T)
    alpha = params.alpha(frame.w0) + 1j * tilt_alpha
    terms = []
    if sqrt_t > 0.0:
        terms.append(CoherentTerm(coeff=sqrt_t, alpha_x=0.0))
    if sqrt_r > 0.0:
        phase = complex(math.cos(params.phi), math.sin(params.phi))
        terms.append(CoherentTerm(coeff=phase * sqrt_r, alpha_x=alpha))
    return SuperpositionState.from_terms(frame, terms)


_TYPICAL_TABLE = {
    "vac": lambda a: (1.0, 0.0),
    "coh": lambda a: (0.0, 0.0),
    "cat_plus": lambda a: (0.5, 0.0),
    "cat_minus": lambda a: (0.5, math.pi),
    "x_minus": lambda a: ((1.0 + a.sin_theta_d) / 2.0, math.pi),
    "x_plus": lambda a: ((1.0 - a.sin_theta_d) / 2.0, math.pi),
    "p_minus": lambda a: (0.5, -(math.pi - a.theta_d)),
    "p_plus": lambda a: (0.5, math.pi - a.theta_d),
}


def make_typical_state(
    kind: str, angle: OverlapAngle, frame: ModeFrame
) -> tuple[QubitParams, SuperpositionState]:
    """Return the generating (T, phi, d) and state for a named special point.

    Kinds: vac, coh, cat_plus (even), cat_minus (odd), x_minus/x_plus
    (poles of the Bloch sphere, phi = pi), p_minus/p_plus (equator points
    (0, -1, 0)/(0, +1, 0), phi = -(pi - theta_d)/+(pi - theta_d)).
    """
    if kind not in _TYPICAL_TABLE:
        raise ValidationError(
            f"unknown state kind {kind!r}; expected one of {TYPICAL_KINDS}"
        )
    t, phi = _TYPICAL_TABLE[kind](angle)
    params = QubitParams(T=t, phi=phi, d=angle.displacement(frame.w0))
    return params, make_qubit_state(params, frame)


def cat_coefficients(params: QubitParams, angle: OverlapAngle) -> tuple[complex, complex]:
    """Expansion (g_even, g_odd) of the normalized qubit in the cat basis.

    With c = cos(theta_d/2), s = sin(theta_d/2), u = sqrt(T) and
    v = e^{i phi} sqrt(1-T), the unnormalized coefficients are
    (u+v) c on the even cat and (u-v) s on the odd cat; dividing by
    sqrt(N_arb) makes |g_e|^2 + |g_o|^2 = 1.
    """
    half = angle.theta_d / 2.0
    c = math.cos(half)
    s = math.sin(half)
    u = math.sqrt(params.T)
    v = complex(math.cos(params.phi), math.sin(params.phi)) * math.sqrt(1.0 - params.T)
    g_even = (u + v) * c
    g_odd = (u - v) * s
    nrm = math.sqrt(abs(g_even) ** 2 + abs(g_odd) ** 2)
    if nrm <= 1e-15:
        raise ValidationError("qubit coefficients vanish; degenerate parameters")
    return g_even / nrm, g_odd / nrm


def params_to_bloch(params: QubitParams, angle: OverlapAngle) -> BlochVector:
    """Map (T, phi) to the unit Bloch vector in the {|x->, |x+>} basis.

    x_q N = cos(theta_d) + 2 sqrt(T(1-T)) cos(phi)
    y_q N = 2 sin(theta_d) sqrt(T(1-T)) sin(phi)
    z_q N = sin(theta_d) (2T - 1)

    The vacuum maps to (cos(theta_d), 0, sin(theta_d)) and approaches the
    north pole (0, 0, 1) as the overlap closes.
    """
    chat = angle.cos_theta_d
    shat = angle.sin_theta_d
    root = math.sqrt(params.T * (1.0 - params.T))
    n = _n_arb(params.T, params.phi, chat)
    x = chat + 2.0 * root * math.cos(params.phi)
    y = 2.0 * shat * root * math.sin(params.phi)
    z = shat * (2.0 * params.T - 1.0)
    r = math.sqrt(x * x + y * y + z * z)
    if not math.isclose(r, n, rel_tol=1e-9):
        raise ValidationError("Bloch components are inconsistent with N_arb")
    return BlochVector(xq=x / r, yq=y / r, zq=z / r)


def bloch_to_params(
    b: BlochVector, angle: OverlapAngle, frame: ModeFrame
) -> QubitParams:
    """Invert the Bloch map back to (T, phi, d) for a unit vector.

    T = (1 + z_q sin(theta_d) / (1 - x_q cos(theta_d))) / 2
    phi = atan2(y_q sin(theta_d), x_q - cos(theta_d))

    At the removable singularity (x_q = cos(theta_d), y_q = 0) the arctangent
    degenerates and phi := 0, which selects T = 1 or 0 correctly.
    """
    chat = angle.cos_theta_d
    shat = angle.sin_theta_d
    denom = 1.0 - b.xq * chat
    if denom <= 0.0:
        raise ValidationError(
            f"1 - x_q cos(theta_d) = {denom!r} is not positive; invalid Bloch input"
        )
    t = 0.5 * (1.0 + b.zq * shat / denom)
    t = min(1.0, max(0.0, t))
    phi = math.atan2(b.yq * shat, b.xq - chat)
    return QubitParams(T=t, phi=phi, d=angle.displacement(frame.w0))
