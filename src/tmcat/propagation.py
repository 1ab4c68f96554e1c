"""Free-space propagation, lens relays, and phase-space rotations.

Three complementary views of the same paraxial optics:

* Gaussian-beam parameters q(z) = z - i z_R for widths, curvatures, and the
  accumulated longitudinal phase.
* ABCD ray matrices, including the symmetric lens relay that realizes a
  clean phase-space rotation by an adjustable angle.
* Field propagation, either analytically (free flight turns a state in
  phase space by the Gouy angle, magnified by w(z)/w0, under the wavefront
  chirp) or by kernel quadrature for arbitrary sampled fields, evaluated
  as a chirp-z FFT convolution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .states import C_LIGHT, CoherentTerm, ModeFrame, SuperpositionState
from .wigner import quadrature_moments


@dataclass(frozen=True)
class BeamParams:
    """Gaussian beam descriptors at a plane a distance z from the waist."""

    z: float
    width: float
    curvature_radius: float
    gouy: float
    rayleigh: float

    @property
    def q(self) -> complex:
        """Complex beam parameter z - i z_R (waist convention)."""
        return complex(self.z, -self.rayleigh)


def beam_params_at(frame: ModeFrame, z: float) -> BeamParams:
    """Width, wavefront curvature, and Gouy phase at distance z from the waist.

    w(z) = w0 sqrt(1 + (z/z_R)^2), R(z) = z (1 + (z_R/z)^2) (infinite at the
    waist), Gouy phase -arctan(z/z_R).
    """
    if not math.isfinite(z):
        raise ValidationError(f"distance must be finite, got {z}")
    z_r = frame.z_r
    ratio = z / z_r
    try:
        ratio_sq = ratio**2
        inverse_sq = 0.0 if z == 0.0 else (z_r / z) ** 2
    except OverflowError:
        ratio_sq = inverse_sq = math.inf
    if not (math.isfinite(ratio_sq) and math.isfinite(inverse_sq)):
        raise ValidationError(
            f"distance z = {z!r} m is out of range: (z/z_R)^2 or (z_R/z)^2 "
            f"overflows at z_R = {z_r!r} m"
        )
    width = frame.w0 * math.sqrt(1.0 + ratio_sq)
    curvature = math.inf if z == 0.0 else z * (1.0 + inverse_sq)
    return BeamParams(
        z=z,
        width=width,
        curvature_radius=curvature,
        gouy=-math.atan(ratio),
        rayleigh=z_r,
    )


@dataclass(frozen=True)
class RayMatrix:
    """Paraxial ABCD matrix acting on (x, v_x) rays, v_x = p_x / (hbar k).

    Passive paraxial elements conserve phase-space area, so construction
    rejects matrices whose determinant strays from 1.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not (abs(det - 1.0) <= 1e-12):
            raise ValidationError(f"ray matrix must be unimodular, det = {det!r}")

    def compose(self, other: "RayMatrix") -> "RayMatrix":
        """This matrix applied after ``other`` (matrix product self @ other)."""
        return RayMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

    def apply(self, x: float, angle: float) -> tuple[float, float]:
        return self.a * x + self.b * angle, self.c * x + self.d * angle

    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c


def ray_free(z: float) -> RayMatrix:
    """Free flight over a distance z."""
    return RayMatrix(1.0, z, 0.0, 1.0)


def ray_lens(f: float) -> RayMatrix:
    """Thin lens of focal length f."""
    if f == 0.0 or not math.isfinite(1.0 / f):
        raise ValidationError(f"lens focal length f = {f!r} m needs a finite power 1/f")
    return RayMatrix(1.0, 0.0, -1.0 / f, 1.0)


def compose(*matrices: RayMatrix) -> RayMatrix:
    """Product of elements listed in propagation order (first acts first)."""
    if not matrices:
        raise ValidationError("compose needs at least one matrix")
    acc = matrices[0]
    for m in matrices[1:]:
        acc = m.compose(acc)
    return acc


@dataclass(frozen=True)
class LensSystem:
    """Symmetric relay free(L) -> lens(f) -> free(L) with L = f (1 - cos(theta_l)).

    In coordinates (x, x') with x' = f0 * angle and f0 = f sin(theta_l), the
    relay acts as a rotation by theta_l, so theta_l = pi/2 (L = f, i.e. the
    classic 2f line) swaps the position and angle quadratures.
    """

    f: float
    theta_l: float

    def __post_init__(self):
        if not (0.0 < self.f < math.inf):
            raise ValidationError(f"focal length f = {self.f!r} m must be positive and finite")
        if not (0.0 < self.theta_l <= math.pi):
            raise ValidationError(
                f"rotation angle must lie in (0, pi], got {self.theta_l}"
            )

    @property
    def arm_length(self) -> float:
        return self.f * (1.0 - math.cos(self.theta_l))

    @property
    def f0(self) -> float:
        """Scale length turning angles into the rotated coordinate."""
        return self.f * math.sin(self.theta_l)

    def matrix(self) -> RayMatrix:
        arm = ray_free(self.arm_length)
        return arm.compose(ray_lens(self.f).compose(arm))

    def rotation_matrix(self) -> RayMatrix:
        """The same relay expressed in (x, f0 * angle) coordinates."""
        m = self.matrix()
        return RayMatrix(m.a, m.b / self.f0, m.c * self.f0, m.d)


@dataclass(frozen=True)
class PropagatedField:
    """The state's x-field at the plane ``beam`` lies in, a distance z past the waist.

    Free flight over z is the phase-space rotation by the Gouy angle
    theta = arctan(z/z_R), alpha -> alpha e^{-i theta}, magnified by
    m = w(z)/w0 and times the wavefront chirp e^{i k x^2 / (2 R)}: the
    fractional-Fourier form of the Fresnel integral.  So the field, the
    density and the moments are those of the turned state, read at x / m.
    The y mode does not move; free flight is unitary on it.
    """

    state: SuperpositionState
    beam: BeamParams

    @property
    def z(self) -> float:
        return self.beam.z

    def _turned(self) -> tuple[np.ndarray, float]:
        """The turned amplitudes alpha e^{i gouy} and the magnification w(z)/w0."""
        turn = cmath.exp(1j * self.beam.gouy)
        return self.state._arrays.ax * turn, self.beam.width / self.state.frame.w0

    def field(self, x: np.ndarray) -> np.ndarray:
        """Complex x-field; a state whose terms carry different y modes has none.

        The chirp reads the position bound of the turned state's fields, scaled
        by m, so far out it multiplies an exact 0 and its x^2 cannot overflow.
        """
        self.state._require_pure("the propagated field")
        self.state._require_separable()
        x = np.asarray(x, dtype=float)
        ax, m = self._turned()
        scale = cmath.exp(0.5j * self.beam.gouy) / math.sqrt(m)
        psi = np.tensordot(self.state._arrays.c * scale, self.state._fields(ax, x / m), axes=1)
        if self.beam.z == 0.0:  # a flat wavefront; a unit chirp could flip signed zeros
            return psi
        lo, hi = self.state._reach(ax)
        x = np.clip(x, m * lo, m * hi)
        return psi * np.exp(0.5j * self.state.frame.k / self.beam.curvature_radius * x**2)

    def intensity(self, x: np.ndarray) -> np.ndarray:
        """y-reduced intensity: the turned state's position density at x / m, over m."""
        ax, m = self._turned()
        return self.state._density(ax, np.asarray(x, dtype=float) / m) / m

    def power(self) -> float:
        """Integral of the intensity over the whole axis; free flight keeps the norm."""
        return float(self.state.pair_overlaps.sum().real)

    def centroid(self) -> float:
        """Intensity-weighted mean position, (w(z) / sqrt(2)) <X_theta>.

        It is held to a few ulp of w(z), not of itself: w(z) magnifies the
        rounding of the state's own <P> by z / z_R, and that of cos(atan(z /
        z_R)), about 1e-16, by w(z) / w0.  So a far-field centroid small
        against w(z) keeps no digits of its own, even where <P> is exactly 0.
        """
        mean, _ = quadrature_moments(self.state, -self.beam.gouy)
        return self.beam.width / math.sqrt(2.0) * mean

    def rms_width(self) -> float:
        """Twice the RMS spread of the intensity: equals w(z) for one Gaussian."""
        _, var = quadrature_moments(self.state, -self.beam.gouy)
        return math.sqrt(2.0) * self.beam.width * math.sqrt(var)


def propagate_analytic(state: SuperpositionState, z: float) -> PropagatedField:
    """Fresnel-propagate a displaced-Gaussian superposition a distance z >= 0.

    z = 0 returns the waist field; a z that ``beam_params_at`` refuses is
    refused here too.
    """
    if not z >= 0.0:
        raise ValidationError(f"propagation distance must be >= 0, got {z}")
    return PropagatedField(state, beam_params_at(state.frame, z))


def _chirp_step(k: float, z: float, span: float) -> float:
    """Step at which the kernel chirp e^{i k (x - x')^2 / (2 z)} advances by pi."""
    return math.pi * z / (k * span)


def kernel_step(frame: ModeFrame, z: float, span: float) -> float:
    """Largest safe input-grid step for the direct Fresnel kernel.

    The chirp e^{i k (x - x')^2 / (2 z)} must advance by less than pi between
    adjacent samples over the full window, and the mode itself needs w0/64.
    The chirp bound is shaded by 1e-9, the spacing tolerance of the grid
    check, so a grid stepped by it passes the aliasing guard.
    """
    if not (0.0 < z < math.inf):
        raise ValidationError(f"kernel step needs a finite z > 0, got {z}")
    if not (0.0 < span < math.inf):
        raise ValidationError(f"window span must be finite and positive, got {span}")
    return min(frame.w0 / 64.0, _chirp_step(frame.k, z, span) * (1.0 - 1e-9))


def _uniform_step(x: np.ndarray, name: str) -> float:
    """Step of a 1-D grid of at least 2 finite, increasing, evenly spaced points."""
    if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} grid needs at least 2 finite points")
    step = float(x[-1] - x[0]) / (x.size - 1)
    if not (0.0 < step < math.inf) or not np.allclose(
        np.diff(x), step, rtol=1e-9, atol=0.0
    ):
        raise ValidationError(f"{name} grid must be strictly increasing and uniform")
    return step


def propagate_kernel(
    psi: np.ndarray,
    x_in: np.ndarray,
    x_out: np.ndarray,
    z: float,
    frame: ModeFrame,
) -> np.ndarray:
    """Trapezoid quadrature of the Fresnel integral for a sampled field.

    psi holds the complex field on x_in; the result is the field on x_out
    after a free flight z.  Both grids must hold at least 2 finite, strictly
    increasing, uniformly spaced points (spacing to rtol 1e-9); a
    non-uniform x_out is not accepted.  Rejects a negative or non-finite z;
    z = 0 requires matching grids and returns the input.  Raises on chirp
    aliasing (grid too coarse for the quadratic phase) and on power loss
    beyond 1e-6 (window too small).

    The sum over x_j = x_c + j dx is evaluated at y_m = y_c + m dy, with m
    and j counted from the grid centres, as a chirp-z transform (Rabiner,
    Schafer & Rader 1969): 2 m j = m^2 + j^2 - (m - j)^2 splits the chirp
    e^{i a (y_m - x_j)^2}, a = k / (2 z), into a pre-chirp on the input, one
    FFT convolution with e^{i a dx dy t^2} and a post-chirp on the output.
    The cost is O((N_in + N_out) log(N_in + N_out)), not O(N_in N_out).
    """
    psi = np.asarray(psi, dtype=complex)
    x_in = np.asarray(x_in, dtype=float)
    x_out = np.asarray(x_out, dtype=float)
    if psi.shape != x_in.shape:
        raise ValidationError("field samples and input grid differ in shape")
    if not (0.0 <= z < math.inf):
        raise ValidationError(f"propagation distance must be finite and >= 0, got {z}")
    dx = _uniform_step(x_in, "input")
    dy = _uniform_step(x_out, "output")
    if z == 0.0:
        if x_out.shape != x_in.shape or not np.allclose(x_out, x_in, atol=0.0):
            raise ValidationError("z = 0 propagation requires identical grids")
        return psi.copy()
    k = frame.k
    span = max(
        abs(float(x_out.max()) - float(x_in.min())),
        abs(float(x_in.max()) - float(x_out.min())),
    )
    if dx > _chirp_step(k, z, span):
        raise NumericsError(
            "kernel chirp aliases on this grid; shrink the step below "
            f"{_chirp_step(k, z, span):.3e} m"
        )
    n_in, n_out = x_in.size, x_out.size
    weights = np.full(x_in.shape, dx)
    weights[0] = weights[-1] = dx / 2.0
    a = k / (2.0 * z)
    shift = 0.5 * (x_out[0] + x_out[-1]) - 0.5 * (x_in[0] + x_in[-1])
    j = np.arange(n_in) - (n_in - 1) / 2.0
    m = np.arange(n_out) - (n_out - 1) / 2.0
    # with shift = y_c - x_c, (y_m - x_j)^2 = (shift + m dy)^2 - m^2 dx dy
    #     + j dx (j (dx - dy) - 2 shift) + dx dy (m - j)^2
    pre = weights * psi * np.exp(1j * a * j * dx * (j * (dx - dy) - 2.0 * shift))
    t = np.arange(1 - n_in, n_out) - (n_out - n_in) / 2.0  # every m - j
    size = 1 << (n_in + n_out - 2).bit_length()
    conv = np.fft.ifft(
        np.fft.fft(pre, size) * np.fft.fft(np.exp(1j * a * dx * dy * t**2), size)
    )[n_in - 1 : n_in - 1 + n_out]
    post = np.exp(1j * a * ((shift + m * dy) ** 2 - m**2 * dx * dy))
    psi_out = np.sqrt(k / (2.0j * math.pi * z)) * post * conv
    p_in = float(np.trapezoid(np.abs(psi) ** 2, x_in))
    p_out = float(np.trapezoid(np.abs(psi_out) ** 2, x_out))
    if not (abs(p_out - p_in) <= 1e-6 * p_in):
        raise NumericsError(
            f"kernel propagation lost power: {p_in!r} -> {p_out!r}; widen the window"
        )
    return psi_out


def rotate_phase_space(state: SuperpositionState, theta: float) -> SuperpositionState:
    """Rotate the state in phase space: every alpha -> alpha e^{-i theta}.

    This is the harmonic evolution the graded-index relay realizes; theta =
    pi/2 maps the position distribution onto the momentum distribution.  Both
    transverse axes rotate together, and the coherence is kept.  A global
    phase is dropped.
    """
    if not math.isfinite(theta):
        raise ValidationError(f"rotation angle theta must be finite, got {theta!r}")
    phase = cmath.exp(-1j * theta)
    terms = [
        CoherentTerm(coeff=t.coeff, alpha_x=t.alpha_x * phase, alpha_y=t.alpha_y * phase)
        for t in state.terms
    ]
    return SuperpositionState.from_terms(state.frame, terms, state.coherence)


@dataclass(frozen=True)
class FiberSpec:
    """Graded-index fiber as a phase-space rotator.

    period_length is c T', the zigzag self-imaging distance over which the
    transverse state completes one full 2 pi rotation.
    """

    period_length: float

    def __post_init__(self):
        if not (0.0 < self.period_length < math.inf):
            raise ValidationError(
                f"self-image period must be positive and finite, got {self.period_length}"
            )

    @classmethod
    def from_omega(cls, omega_gi: float) -> "FiberSpec":
        """Build from the transverse oscillation frequency (rad/s)."""
        period = 2.0 * math.pi * C_LIGHT / omega_gi if omega_gi > 0.0 else math.nan
        if not (0.0 < period < math.inf):
            raise ValidationError(
                f"omega_GI = {omega_gi!r} rad/s must be positive and give a finite, "
                "nonzero self-image period 2 pi c / omega_GI"
            )
        return cls(period_length=period)

    def rotation_angle(self, length: float) -> float:
        return 2.0 * math.pi * length / self.period_length


def gi_fiber_evolve(
    state: SuperpositionState, length: float, fiber: FiberSpec
) -> SuperpositionState:
    """Evolve through a graded-index segment: rotation by 2 pi L / (c T')."""
    if not (0.0 <= length < math.inf):
        raise ValidationError(f"fiber length must be finite and >= 0, got {length!r}")
    theta = fiber.rotation_angle(length)
    if not math.isfinite(theta):
        raise ValidationError(
            f"fiber length {length!r} m over the self-image period "
            f"{fiber.period_length!r} m gives a rotation angle that is not finite"
        )
    return rotate_phase_space(state, theta)
