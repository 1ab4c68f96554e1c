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
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s


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


def _generator(seed: int | None) -> np.random.Generator:
    """The Philox generator behind every sampled result; seed None draws as seed 0."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(0 if seed is None else seed))


def _skip_draws(rng: np.random.Generator, n: int) -> None:
    """Move rng's Philox stream past n raw draws, to the state that
    rng.bit_generator.random_raw(n, output=False) leaves.

    Philox is counter-based: after the buffered words, whole 4-word blocks
    are a counter step (advance), and the last block is drawn so that the
    buffer holds its words.  advance drops a pending 32-bit half, which is
    put back.
    """
    n = int(n)  # advance refuses np.int64, which np.count_nonzero returns
    bits = rng.bit_generator
    state = bits.state
    blocks, rest = divmod(n - (4 - state["buffer_pos"]) - 1, 4)
    if blocks <= 0:
        bits.random_raw(n, output=False)
        return
    bits.advance(blocks)
    bits.random_raw(rest + 1, output=False)
    if state["has_uint32"] or state["uinteger"]:
        skipped = bits.state
        skipped["has_uint32"], skipped["uinteger"] = state["has_uint32"], state["uinteger"]
        bits.state = skipped


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
        w0_sq = self.w0 * self.w0
        scales = (w0_sq, self.k, self.z_r, w0_sq / HBAR, HBAR * self.k)
        if not all(sys.float_info.min <= s < math.inf for s in scales):
            raise ValidationError(
                f"w0 = {self.w0} m and wavelength = {self.wavelength} m put the "
                "mode scales outside the normal floating-point range"
            )

    @property
    def k(self) -> float:
        """Wavenumber 2*pi/lambda (rad/m)."""
        return 2.0 * math.pi / self.wavelength

    @property
    def z_r(self) -> float:
        """Rayleigh range k*w0^2/2 (m)."""
        return self.k * (self.w0 * self.w0) / 2.0

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

    cos(theta_d) = <vac|coh> = exp(-alpha^2) = exp(-d^2 / (2 w0^2)).

    Only the real displacement amplitude alpha >= 0 is stored; theta_d, its
    cosine and sine and the cat normalizations are derived from it without
    cancellation, so they keep their digits at small alpha, and the overlap
    stays exact at large alpha, where theta_d alone rounds to pi/2.
    cos(theta_d) must lie in (0, 1), which holds for about
    7.45e-9 < alpha < 27.297; outside it exp(-alpha^2) rounds to 1 or to 0.
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0):
            raise ValidationError(f"alpha must be non-negative, got {self.alpha}")
        if not (0.0 < self.cos_theta_d < 1.0):
            raise ValidationError(
                f"cos(theta_d) must lie in (0, 1), got {self.cos_theta_d}"
            )

    @classmethod
    def from_theta(cls, theta_d: float) -> "OverlapAngle":
        if not (0.0 < theta_d <= math.pi / 2.0):
            raise ValidationError(f"theta_d must lie in (0, pi/2], got {theta_d}")
        c = math.cos(theta_d)
        # ln cos: 1 - 2 sin^2(theta/2) keeps small angles, cos itself keeps pi/2
        log_c = math.log1p(-2.0 * math.sin(theta_d / 2.0) ** 2) if c >= 0.5 else math.log(c)
        return cls(alpha=math.sqrt(-log_c))

    @classmethod
    def from_alpha(cls, alpha: float) -> "OverlapAngle":
        return cls(alpha=alpha)

    @classmethod
    def from_displacement(cls, d: float, w0: float) -> "OverlapAngle":
        return cls.from_alpha(d / (math.sqrt(2.0) * w0))

    @property
    def cos_theta_d(self) -> float:
        return math.exp(-(self.alpha * self.alpha))

    @property
    def sin_theta_d(self) -> float:
        return math.sqrt(-math.expm1(-2.0 * self.alpha * self.alpha))

    @property
    def theta_d(self) -> float:
        return math.atan2(self.sin_theta_d, self.cos_theta_d)

    def displacement(self, w0: float) -> float:
        """Beam separation d (m) reproducing this overlap at waist w0."""
        return math.sqrt(2.0) * w0 * self.alpha

    @property
    def n_plus(self) -> float:
        """Even-cat normalization 1 + cos(theta_d)."""
        return 1.0 + self.cos_theta_d

    @property
    def n_minus(self) -> float:
        """Odd-cat normalization 1 - cos(theta_d), as -expm1(-alpha^2)."""
        return -math.expm1(-(self.alpha * self.alpha))


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
        if not math.isfinite(self.phi):
            raise ValidationError(f"phi must be finite, got {self.phi}")
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
        if not (abs(r2 - 1.0) <= 1e-12):
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
    No floating-point flag is raised: an exponent whose real part overflows
    to -inf gives exactly 0, and one whose real part is NaN (inf - inf, as at
    alpha = beta = 1e200, or a NaN input) raises ValidationError.
    """
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        exponent = -np.abs(a) ** 2 - np.abs(b) ** 2 + 2.0 * np.conj(b) * a
        undefined = np.isnan(exponent.real)
        if undefined.any():
            x, y = (complex(np.broadcast_to(v, undefined.shape)[undefined][0]) for v in (a, b))
            raise ValidationError(
                f"coherent overlap of alpha = {x} and beta = {y} has no floating-point "
                "exponent: -|alpha|^2 - |beta|^2 + 2 conj(beta) alpha is NaN"
            )
        return np.exp(exponent)


def _d_kappa(alpha, w0: float):
    """Center d = sqrt(2) w0 Re(alpha) and tilt kappa = 2 sqrt(2) Im(alpha) / w0."""
    a = np.asarray(alpha, dtype=complex)
    return math.sqrt(2.0) * w0 * a.real, 2.0 * math.sqrt(2.0) * a.imag / w0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _term_rows(terms: list[tuple]) -> np.ndarray:
    """Read-only (3, n) rows of the terms' (coeff, alpha_x, alpha_y), each row contiguous."""
    return _read_only(np.array(terms, dtype=complex).reshape(-1, 3).T.copy())


@lru_cache(maxsize=8)
def _beam_grams(beams: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (gram, gram_y) of beams packed as their alpha_x row, then alpha_y row.

    Keyed on the exact bytes, so -0.0 and 0.0 are separate beams.  The cache
    holds the latest few beam sets: the states of one sweep, basis family or
    figure share their Grams, and a later scan point computes its own.
    """
    ax, ay = np.frombuffer(beams, dtype=complex).reshape(2, -1).copy()
    gram_y = _read_only(coherent_overlap(ay[:, None], ay[None, :]))
    return _read_only(coherent_overlap(ax[:, None], ax[None, :]) * gram_y), gram_y


# complex multiply-adds per row block of a pair product: OpenBLAS 0.3.31 runs
# a zgemm of m*n*k <= 2^16 on the calling thread
_BLOCK_MACS = 2**16


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only term pairs j <= k of n terms, and their counts: 1 if j == k, else 2."""
    j, k = np.triu_indices(n)
    return _read_only(j), _read_only(k), _read_only(np.where(j == k, 1.0, 2.0))


def _pair_contract(weights: np.ndarray, left: np.ndarray | None, *right: np.ndarray):
    """Re sum_jk W[j, k] L_jk R_jk, the one pair sum beneath every map and density.

    Pair (k, j) is the conjugate of pair (j, k), so the sum runs over the pairs
    j <= k of ``_pairs``, cross pairs counted twice, on axis 0 of each factor
    (the last axis of ``left``).  The right factors multiply the pair weights
    in the order given; with ``left`` None the pairs are summed without BLAS,
    and ``weights`` may be a stack (..., m, m), one sum per state.  Returns
    the real part as an owned C-contiguous float64 array, so callers scale it
    in place.

    ``left @ pair`` runs in row blocks of at most _BLOCK_MACS complex
    multiply-adds, each into one reused complex buffer whose real part goes
    straight into the result, so no full-size complex array exists.  Blocks
    this small run on the calling thread, never waiting on OpenBLAS's worker,
    so their bits do not depend on the thread count.  OpenBLAS's SkylakeX
    kernel sends every element through the same micro-kernel whatever the
    block, so there the blocks equal the one product bit for bit.  numpy
    sends a 1-row product to gemv, which rounds differently, so a lone last
    row borrows one from the block before it (hence at least 3 rows a block).
    """
    j, k, count = _pairs(weights.shape[-1])
    lead = weights.shape[:-2]
    pair = (weights[..., j, k] * count).reshape(lead + (-1,) + (1,) * (right[0].ndim - 1))
    for factor in right:  # at the stack's rank, as _weighted's g
        pair = pair * factor[(None,) * len(lead)]
    if left is None:  # in C order a stack's sums run over the pairs as one state's do
        return np.ascontiguousarray(pair).sum(axis=len(lead)).real.copy()
    m = len(left)
    rows = max(3, _BLOCK_MACS // pair.size)
    out = np.empty((m, pair.shape[1]))
    buf = np.empty((min(rows, m), pair.shape[1]), complex)
    start = 0
    while start < m:
        stop = min(start + rows, m)
        if m - stop == 1:
            stop -= 1
        block = np.matmul(left[start:stop], pair, out=buf[: stop - start])
        out[start:stop] = block.real
        start = stop
    return out


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


class _TermArrays(NamedTuple):
    """Read-only coefficients and x and y amplitudes of a state's terms."""

    c: np.ndarray
    ax: np.ndarray
    ay: np.ndarray


def _weighted(c: np.ndarray, g, coherence: float = 1.0) -> np.ndarray:
    """Pair arrays c_j conj(c_k) g[j, k] of coefficients c (..., m) over a term-pair matrix
    g, the cross pairs times ``coherence`` (no mask at 1, so pure states keep their bits)."""
    if coherence != 1.0:
        g = g * np.where(np.eye(c.shape[-1], dtype=bool), 1.0, coherence)
    # g at the stack's rank: numpy rounds unequal-rank complex products without its FMA loop
    return c[..., :, None] * np.conj(c)[..., None, :] * np.asarray(g)[(None,) * (c.ndim - 1)]


@dataclass(frozen=True)
class SuperpositionState:
    """Finite complex-weighted sum of displaced-Gaussian terms, pure or mixed.

    Use :meth:`from_terms`, which normalizes the sum at any weight scale and
    caches the pre-normalization trace sum_jk rho_jk G_jk in ``norm`` (inf
    beyond the float range).  A sum whose norm is below 1e-15 of the given
    terms' sum |c|^2 cancels and is refused, a merge of coinciding terms too.
    ``degenerate`` flags inputs whose terms coincided and were merged.

    ``coherence`` V in [0, 1] scales the interference of distinct beams
    (terms on one beam merge first, coherently): rho_jk = c_j conj(c_k) on
    the diagonal and V c_j conj(c_k) off it.  V = 1 is the pure state
    sum_j c_j |t_j>; V = 0 the incoherent mixture of the terms with weights
    |c_j|^2.  Maps, densities, moments and frames read every V; the
    wavefunction, the field, inner products, the cat-phase rotation and
    signal bases need V = 1 and refuse a mixed state.

    The term arrays and the pair matrices ``pair_overlaps`` and
    ``pair_weights`` are computed once, on first use, and are read-only.
    ``gram`` is shared by the states on the same beams, through a small
    cache of the latest beam sets.
    ``_memo`` keeps what other modules derive from the state (its latest
    Wigner map, its X and P moments) for the state's lifetime.  None of
    these are fields, so equality and hashing see the terms and coherence.
    """

    frame: ModeFrame
    terms: tuple[CoherentTerm, ...]
    norm: float
    degenerate: bool = False
    coherence: float = 1.0

    @classmethod
    def from_terms(
        cls, frame: ModeFrame, terms: Iterable[CoherentTerm], coherence: float = 1.0
    ) -> "SuperpositionState":
        if not 0.0 <= coherence <= 1.0:
            raise ValidationError(f"coherence must lie in [0, 1], got {coherence!r}")
        given = list(terms)
        if not given:
            raise ValidationError("state must contain at least one term")
        merged: dict[tuple[complex, complex], complex] = {}
        for t in given:
            key = (complex(t.alpha_x), complex(t.alpha_y))
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(t.coeff)
        degenerate = len(merged) < len(given)
        # a term whose weights cancel exactly carries nothing; drop it
        kept = [(c, *beam) for beam, c in merged.items() if c != 0.0]
        rows = _term_rows(kept)
        weights = rows[0]
        # weights beyond 2^+-256 first go over the power of two of their largest
        # part: exact, so the normalized terms keep their bits at any scale and
        # the pair sum cannot overflow
        top, shift = max(map(abs, weights.view(float).tolist()), default=0.0), 0
        if not 2.0**-256 < top < 2.0**256:
            for c, *beam in kept:
                if not cmath.isfinite(c):
                    CoherentTerm(c, *beam)  # a merged weight that overflowed: refused as a term
            shift = math.frexp(top)[1]
            weights = np.ldexp(rows[0].view(float), -shift).view(complex)
            kept = [(c, *beam) for c, (_, *beam) in zip(weights.tolist(), kept)]
        grams = _beam_grams(rows[1:].tobytes())
        raw = float(_weighted(weights, grams[0], coherence).real.sum())
        try:
            norm = math.ldexp(raw, 2 * shift)
        except OverflowError:  # weights beyond about 1e154
            norm = math.inf
        try:  # cancellation is judged against the given terms' sum |c|^2, at raw's scale
            given_sq = sum([math.ldexp(x, -shift) ** 2
                            for t in given for x in (t.coeff.real, t.coeff.imag)])
        except OverflowError:  # given weights 2^512 beyond the merged ones cancel
            given_sq = math.inf
        if raw <= 1e-15 * given_sq:  # a shifted norm can over- or underflow: named relative
            size = f"{raw / given_sq!r} of the given terms' sum |c|^2" if shift else repr(norm)
            raise ValidationError(
                f"state norm {size} vanishes; the requested superposition cancels"
            )
        scale = 1.0 / math.sqrt(raw)
        normalized = tuple(CoherentTerm(c * scale, *beam) for c, *beam in kept)
        state = cls(frame=frame, terms=normalized, norm=norm, degenerate=degenerate,
                    coherence=float(coherence))
        # normalizing leaves the amplitudes, so the states on these beams share their Grams
        vars(state)["_grams"] = grams
        return state

    @cached_property
    def _arrays(self) -> _TermArrays:
        return _TermArrays(*_term_rows([(t.coeff, t.alpha_x, t.alpha_y) for t in self.terms]))

    @cached_property
    def _memo(self) -> dict:
        return {}

    @cached_property
    def _grams(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gram and y-mode Gram of the state's beams, shared by every state on them."""
        return _beam_grams(self._arrays.ax.tobytes() + self._arrays.ay.tobytes())

    @property
    def _gram_y(self) -> np.ndarray:
        """y-mode term overlaps <y_k|y_j>."""
        return self._grams[1]

    @property
    def gram(self) -> np.ndarray:
        """Two-axis term overlaps G[j, k] = <t_k|t_j> (coefficients not included)."""
        return self._grams[0]

    @cached_property
    def pair_overlaps(self) -> np.ndarray:
        """Two-axis pair weights rho_jk <t_k|t_j>; they sum to the trace, 1."""
        return _read_only(_weighted(self._arrays.c, self.gram, self.coherence))

    @cached_property
    def pair_weights(self) -> np.ndarray:
        """y-reduced pair weights W[j, k] = rho_jk <y_k|y_j>."""
        return _read_only(_weighted(self._arrays.c, self._gram_y, self.coherence))

    @property
    def purity(self) -> float:
        """Tr rho^2 = Tr(rho G^T rho G^T): 1 for a pure state, below 1 for a mixed one."""
        a = _weighted(self._arrays.c, 1.0, self.coherence) @ self.gram.T
        return float(np.sum(a * a.T).real)

    def _require_pure(self, what: str) -> None:
        """Refuse a mixed state in an operation defined on pure states only."""
        if self.coherence != 1.0:
            raise ValidationError(f"{what} needs a pure state, got coherence {self.coherence!r}")

    def coeffs(self) -> np.ndarray:
        return self._arrays.c

    def alphas_x(self) -> np.ndarray:
        return self._arrays.ax

    def alphas_y(self) -> np.ndarray:
        return self._arrays.ay

    def _require_separable(self) -> None:
        """Refuse a state whose terms carry different y modes: it has no x field."""
        ay = self._arrays.ay
        if not np.all(ay == ay[0]):
            raise ValidationError(
                "state is not separable in x and y; terms carry different alpha_y"
            )

    def x_wavefunction(self, x: np.ndarray) -> np.ndarray:
        """1D wavefunction along x when every term shares one y mode."""
        self._require_pure("the x wavefunction")
        self._require_separable()
        return np.tensordot(self._arrays.c, self._fields(self._arrays.ax, x), axes=1)

    def position_intensity(self, x: np.ndarray) -> np.ndarray:
        """y-reduced position density: integrates to 1 over x."""
        return self._density(self._arrays.ax, x)

    def momentum_intensity(self, p: np.ndarray) -> np.ndarray:
        """y-reduced momentum density along p_x: integrates to 1 over p.

        The quarter turn alpha -> -i alpha maps P onto X and leaves W unchanged,
        so this is the turned position density at x = s p, s = w0^2 / (2 hbar).
        """
        s = self.frame.w0**2 / (2.0 * HBAR)
        return s * self._density(-1j * self._arrays.ax, p, s)

    def _fields(self, ax: np.ndarray, x, scale: float = 1.0) -> np.ndarray:
        """x-mode fields of the amplitudes ax at x * scale, stacked on axis 0.

        A position more than 40 w0 beyond every term center is first moved onto
        that bound.  Each field is exactly 0 from 28 w0 off its center (e^-784
        underflows), so the fields keep their values, and no square or product
        of a far position overflows.
        """
        lo, hi = self._reach(ax)
        x = np.clip(np.asarray(x, dtype=float), lo / scale, hi / scale)
        return gaussian_mode_1d(ax.reshape(ax.shape + (1,) * x.ndim), self.frame.w0, x * scale)

    def _reach(self, ax: np.ndarray) -> tuple[float, float]:
        """The positions 40 w0 below and above every center of the amplitudes ax."""
        d, _ = _d_kappa(ax, self.frame.w0)
        reach = 40.0 * self.frame.w0
        return d.min() - reach, d.max() + reach

    def _density(self, ax: np.ndarray, x, scale: float = 1.0, weights=None) -> np.ndarray:
        """y-reduced density sum_jk W[j, k] f_j conj(f_k) of fields at x * scale; W may stack."""
        fields = self._fields(ax, x, scale)
        j, k, _ = _pairs(ax.size)
        weights = self.pair_weights if weights is None else weights
        return _pair_contract(weights, None, fields[j], np.conj(fields[k]))


def _term_blocks(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient blocks of (coeffs, alphas_x, alphas_y) parts over all their terms.

    blocks[i, t] is the coefficient of term t in part i, 0 for other parts;
    the amplitudes are those of every part in turn.
    """
    c, ax, ay = (np.concatenate(arrays) for arrays in zip(*parts))
    owner = np.repeat(np.arange(len(parts)), [part[0].size for part in parts])
    blocks = np.zeros((len(parts), c.size), dtype=complex)
    blocks[owner, np.arange(c.size)] = c
    return blocks, ax, ay


def _inner_products(bras, kets) -> np.ndarray:
    """Matrix M[i, j] = <bra_i|ket_j> of two lists of term-array parts."""
    b, bx, by = _term_blocks(bras)
    k, kx, ky = _term_blocks(kets)
    # gram[p, q] = <bra term q|ket term p>, so M = conj(B) G^T K^T
    gram = coherent_overlap(kx[:, None], bx[None, :]) * coherent_overlap(ky[:, None], by[None, :])
    return np.conj(b) @ gram.T @ k.T


def inner_product(a: SuperpositionState, b: SuperpositionState) -> complex:
    """Sesquilinear <a|b> over the shared mode frame."""
    if a.frame != b.frame:
        raise ValidationError("states live in different mode frames")
    a._require_pure("an inner product")
    b._require_pure("an inner product")
    return complex(_inner_products([a._arrays], [b._arrays])[0, 0])


def normalization_factor(T: float, phi: float, angle: OverlapAngle) -> float:
    """N_arb = 1 + 2 sqrt(T (1-T)) cos(theta_d) cos(phi).

    Raises when the result is not positive (possible only for degenerate
    overlaps where cos(theta_d) has rounded to 1).
    """
    if not (0.0 <= T <= 1.0):
        raise ValidationError(f"T must lie in [0, 1], got {T}")
    n = 1.0 + 2.0 * math.sqrt(T * (1.0 - T)) * angle.cos_theta_d * math.cos(phi)
    if n <= 1e-15:
        raise ValidationError(
            f"normalization factor {n!r} vanishes; the superposition is degenerate"
        )
    return n


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
    if not math.isfinite(tilt_alpha):
        raise ValidationError(f"tilt_alpha must be finite, got {tilt_alpha}")
    alpha = params.alpha(frame.w0) + 1j * tilt_alpha
    return _two_beam(frame, params.T, params.phi, (0.0, 0.0), (alpha, 0.0))


def _two_beam_weights(T: float, phi: float) -> tuple[float, complex]:
    """The beam weights (sqrt(T), e^{i phi} sqrt(1-T)) of every two-beam state."""
    return math.sqrt(T), complex(math.cos(phi), math.sin(phi)) * math.sqrt(1.0 - T)


def _two_beam(
    frame: ModeFrame, T: float, phi: float, a: tuple, b: tuple, coherence: float = 1.0
) -> SuperpositionState:
    """Normalized sqrt(T) |a> + e^{i phi} sqrt(1-T) |b>; beams are (alpha_x, alpha_y).

    A beam of zero weight is left out, so T = 1 or 0 gives one term.
    """
    weights = _two_beam_weights(T, phi)
    terms = [CoherentTerm(c, *beam) for c, beam in zip(weights, (a, b)) if c != 0.0]
    return SuperpositionState.from_terms(frame, terms, coherence)


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
TYPICAL_KINDS = tuple(_TYPICAL_TABLE)


def _typical_params(kind: str, angle: OverlapAngle, frame: ModeFrame) -> QubitParams:
    """The generating (T, phi, d) of a named special point (see make_typical_state)."""
    if kind not in _TYPICAL_TABLE:
        raise ValidationError(
            f"unknown state kind {kind!r}; expected one of {TYPICAL_KINDS}"
        )
    t, phi = _TYPICAL_TABLE[kind](angle)
    return QubitParams(T=t, phi=phi, d=angle.displacement(frame.w0))


def make_typical_state(
    kind: str, angle: OverlapAngle, frame: ModeFrame
) -> tuple[QubitParams, SuperpositionState]:
    """Return the generating (T, phi, d) and state for a named special point.

    Kinds: vac, coh, cat_plus (even), cat_minus (odd), x_minus/x_plus
    (poles of the Bloch sphere, phi = pi), p_minus/p_plus (equator points
    (0, -1, 0)/(0, +1, 0), phi = -(pi - theta_d)/+(pi - theta_d)).
    """
    params = _typical_params(kind, angle, frame)
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
    u, v = _two_beam_weights(params.T, params.phi)
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
    n = normalization_factor(params.T, params.phi, angle)
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
