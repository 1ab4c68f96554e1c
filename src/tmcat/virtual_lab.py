"""Synthetic CCD acquisition and the profile analysis chain.

Renders position-plane and momentum-plane (single-lens focal plane) images
of transverse-mode states onto a model CCD, then provides the reduction
pipeline used on real frames: column collapse, border-median background
removal, normalization, Gaussian fitting, and fringe-phase estimation.

The laboratory scenario behind the defaults: w0 = 0.12 mm waist, 780 nm
light, f = 145 mm transform lens, 720x480 sensor with 6.5 um pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .propagation import rotate_phase_space
from .states import (
    HBAR,
    ModeFrame,
    OverlapAngle,
    QubitParams,
    SuperpositionState,
    _check_seed,
    gaussian_mode_1d,
    make_qubit_state,
    make_typical_state,
    signed_phase,
)
from .wigner import marginal_momentum, marginal_position, quadrature_moments

LAB_FRAME = ModeFrame(w0=0.12e-3, wavelength=780e-9)
LAB_FOCAL_LENGTH = 0.145
LAB_THETA_D = 0.40 * math.pi


def focal_waist(frame: ModeFrame, f: float) -> float:
    """1/e^2 intensity radius of the vacuum mode at the transform-lens focus."""
    if not (f > 0.0):
        raise ValidationError(f"focal length must be positive, got {f}")
    return 2.0 * f / (frame.k * frame.w0)


@dataclass(frozen=True)
class CcdConfig:
    """Sensor geometry, digitization, and acquisition knobs.

    exposure_scale is in counts per unit intensity; None picks the scale
    that puts the frame peak at 90% of full range (deterministic).  seed
    turns on Poisson shot noise; None leaves the render noiseless.
    """

    nx: int = 720
    ny: int = 480
    pitch: float = 6.5e-6
    bit_depth: int = 8
    background: int = 0
    exposure_scale: float | None = None
    visibility: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValidationError("sensor needs at least 2 pixels per axis")
        if not (self.pitch > 0.0):
            raise ValidationError(f"pixel pitch must be positive, got {self.pitch}")
        if self.bit_depth not in (8, 12, 16):
            raise ValidationError(f"bit depth must be 8, 12 or 16, got {self.bit_depth}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValidationError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.background < 0:
            raise ValidationError(f"background counts must be >= 0, got {self.background}")
        if self.exposure_scale is not None and not (self.exposure_scale > 0.0):
            raise ValidationError(
                f"exposure scale must be positive, got {self.exposure_scale}"
            )
        _check_seed(self.seed)

    @property
    def max_count(self) -> int:
        return (1 << self.bit_depth) - 1

    def column_positions(self) -> np.ndarray:
        """Physical x of each pixel-column center, origin at sensor center."""
        return (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.pitch

    def row_positions(self) -> np.ndarray:
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.pitch


@dataclass(frozen=True)
class PlaneTag:
    """Which plane the sensor sits in: the waist or a transform-lens focus."""

    kind: str
    f: float | None = None

    def __post_init__(self):
        if self.kind not in ("position", "momentum"):
            raise ValidationError(f"plane kind must be position or momentum, got {self.kind!r}")
        if self.kind == "momentum":
            if self.f is None or not (self.f > 0.0):
                raise ValidationError("momentum plane needs a positive focal length")


def position_plane() -> PlaneTag:
    return PlaneTag(kind="position")


def momentum_plane(f: float = LAB_FOCAL_LENGTH) -> PlaneTag:
    return PlaneTag(kind="momentum", f=f)


@dataclass(frozen=True)
class CcdImage:
    """One digitized frame plus everything needed to interpret it."""

    config: CcdConfig
    plane: PlaneTag
    counts: np.ndarray
    exposure_scale: float
    saturated: bool

    def __post_init__(self):
        if self.counts.shape != (self.config.ny, self.config.nx):
            raise ValidationError(
                f"counts shape {self.counts.shape} does not match sensor "
                f"{(self.config.ny, self.config.nx)}"
            )
        if self.counts.min() < 0 or self.counts.max() > self.config.max_count:
            raise ValidationError("counts fall outside the digitizer range")


def _intensity_2d(
    state: SuperpositionState, x: np.ndarray, y: np.ndarray, visibility: float
) -> np.ndarray:
    """|Psi(x, y)|^2 with the interference (cross) part scaled by visibility.

    Pair (k, j) is the conjugate of pair (j, k), so the frame is the real part
    of one product over the pairs j <= k, the cross pairs doubled.
    """
    w0 = state.frame.w0
    fx = gaussian_mode_1d(state.alphas_x()[:, None], w0, x)
    fy = gaussian_mode_1d(state.alphas_y()[:, None], w0, y)
    c = state.coeffs()
    j, k = np.triu_indices(c.size)
    weight = c[j] * np.conj(c[k]) * np.where(j == k, 1.0, 2.0 * visibility)
    rows = np.ascontiguousarray((fy[j] * np.conj(fy[k])).T)
    return (rows @ (weight[:, None] * fx[j] * np.conj(fx[k]))).real


def render_ccd(
    state: SuperpositionState | QubitParams,
    plane: PlaneTag,
    config: CcdConfig,
    frame: ModeFrame = LAB_FRAME,
) -> CcdImage:
    """Expose the sensor to a state in the chosen plane and digitize.

    Momentum-plane imaging maps the focal coordinate onto momentum through
    x' = p_x f / (hbar k); internally the state is rotated a quarter turn in
    phase space and sampled at the correspondingly scaled positions.
    Raises when every pixel saturates (exposure misconfigured).
    """
    if isinstance(state, QubitParams):
        state = make_qubit_state(state, frame)
    x = config.column_positions()
    y = config.row_positions()
    if plane.kind == "position":
        intensity = _intensity_2d(state, x, y, config.visibility)
    else:
        rotated = rotate_phase_space(state, math.pi / 2.0)
        s = state.frame.k * state.frame.w0**2 / (2.0 * plane.f)
        intensity = s**2 * _intensity_2d(rotated, s * x, s * y, config.visibility)
    peak = float(intensity.max())
    if not (peak > 0.0):
        raise ValidationError("state renders to zero intensity on the sensor")
    scale = config.exposure_scale
    if scale is None:
        scale = 0.9 * config.max_count / peak
    signal = scale * intensity
    if config.seed is not None:
        rng = np.random.Generator(np.random.Philox(config.seed))
        signal = rng.poisson(signal).astype(np.float64)
    counts = np.floor(signal + config.background + 0.5)
    saturated = bool(counts.max() >= config.max_count)
    counts = np.clip(counts, 0, config.max_count).astype(np.uint16)
    if counts.min() >= config.max_count:
        raise ValidationError("every pixel saturated; exposure misconfigured")
    return CcdImage(
        config=config, plane=plane, counts=counts, exposure_scale=scale, saturated=saturated
    )


def profile_from_image(image: CcdImage) -> np.ndarray:
    """Collapse a frame to a background-free, unit-sum column profile.

    Columns are summed over rows; the background level is the median of the
    16 border column sums (8 on each side), subtracted and clipped at zero.
    """
    if int(image.counts.min()) >= image.config.max_count:
        raise ValidationError("image is fully saturated")
    sums = image.counts.astype(np.float64).sum(axis=0)
    border = np.concatenate([sums[:8], sums[-8:]])
    cleaned = np.clip(sums - np.median(border), 0.0, None)
    total = cleaned.sum()
    if not (total > 0.0):
        raise ValidationError("profile vanished after background removal")
    return cleaned / total


@dataclass(frozen=True)
class GaussianFit:
    """Least-squares Gaussian profile parameters, lengths in meters."""

    center: float
    radius_1e2: float
    rss: float
    amplitude: float


def fit_gaussian_profile(profile: np.ndarray, pitch: float) -> GaussianFit:
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


def estimate_relative_phase(
    momentum_profile: np.ndarray,
    d: float,
    w0: float,
    T: float,
    f: float,
    wavelength: float = LAB_FRAME.wavelength,
    pitch: float = 6.5e-6,
) -> float:
    """Recover the superposition phase from a momentum-plane fringe profile.

    Fits the focal-plane pattern

        A exp(-2 x'^2 / w_f^2) [1 + 2 sqrt(T(1-T)) cos(phi - k d x' / f)]

    with amplitude as the only nuisance parameter, scanning 16 starting
    phases before polishing.  Returns phi_hat in (-pi, pi].
    """
    from scipy.optimize import least_squares

    if not 0.0 < T < 1.0:
        raise ValidationError(f"phase estimation needs T in (0, 1), got {T}")
    if not (d > 0.0):
        raise ValidationError(f"phase estimation needs d > 0, got {d}")
    if not (f > 0.0):
        raise ValidationError(f"focal length must be positive, got {f}")
    profile = np.asarray(momentum_profile, dtype=float)
    k = 2.0 * math.pi / wavelength
    x = (np.arange(profile.size) - (profile.size - 1) / 2.0) * pitch
    w_f = 2.0 * f / (k * w0)
    kappa = k * d / f
    depth = 2.0 * math.sqrt(T * (1.0 - T))
    envelope = np.exp(-2.0 * x**2 / w_f**2)

    def shape(phi):
        return envelope * (1.0 + depth * np.cos(phi - kappa * x))

    best = None
    for phi0 in np.linspace(-math.pi, math.pi, 16, endpoint=False):
        g = shape(phi0)
        denom = float(g @ g)
        a = float(g @ profile) / denom if denom > 0.0 else 0.0
        cost = float(np.sum((profile - a * g) ** 2))
        if best is None or cost < best[0]:
            best = (cost, a, phi0)
    _, a0, phi0 = best

    def residual(p):
        a, phi = p
        return a * shape(phi) - profile

    res = least_squares(residual, x0=[a0, phi0], max_nfev=400)
    if not res.success:
        raise FitError(f"phase fit did not converge; last iterate {res.x.tolist()}")
    a_hat, phi_hat = res.x
    fringe = a_hat * envelope * depth * np.cos(phi_hat - kappa * x)
    fringe_rms = float(np.sqrt(np.mean(fringe**2)))
    resid_rms = float(np.sqrt(np.mean(res.fun**2)))
    if fringe_rms < 3.0 * resid_rms:
        raise FitError("phase unidentifiable: fringe contrast below 3x the noise floor")
    return signed_phase(float(phi_hat))


@dataclass(frozen=True)
class ScenarioPanel:
    """One theoretical curve of the demonstration figures.

    axis holds waist-plane x (position panels) or focal-plane x' (momentum
    panels), in meters; density integrates to 1 over the axis; sql is the
    matching vacuum-limited reference curve.
    """

    name: str
    state_kind: str
    plane: str
    axis: np.ndarray
    density: np.ndarray
    sql: np.ndarray


def _position_panel(
    name: str,
    kind: str,
    params: QubitParams,
    state: SuperpositionState,
    frame: ModeFrame,
    n: int = 481,
) -> ScenarioPanel:
    w0 = frame.w0
    x = np.linspace(-4.5 * w0, params.d + 4.5 * w0, n)
    density = marginal_position(params, frame, x)
    # vacuum-width reference centered on the beam: d/2 for the equator
    # states, 0 and d for the vacuum and coherent beams
    center = frame.x_scale * quadrature_moments(state)[0]
    sql = math.sqrt(2.0 / math.pi) / w0 * np.exp(-2.0 * (x - center) ** 2 / w0**2)
    return ScenarioPanel(
        name=name, state_kind=kind, plane="position", axis=x, density=density, sql=sql
    )


def _momentum_panel(
    name: str,
    kind: str,
    params: QubitParams,
    frame: ModeFrame,
    f: float,
    n: int = 481,
) -> ScenarioPanel:
    w_f = focal_waist(frame, f)
    x = np.linspace(-3.0 * w_f, 3.0 * w_f, n)
    # focal coordinate maps to momentum via p = hbar k x' / f
    scale = HBAR * frame.k / f
    density = scale * marginal_momentum(params, frame, scale * x)
    sql = math.sqrt(2.0 / math.pi) / w_f * np.exp(-2.0 * x**2 / w_f**2)
    return ScenarioPanel(
        name=name, state_kind=kind, plane="momentum", axis=x, density=density, sql=sql
    )


def scenario_reports(
    frame: ModeFrame = LAB_FRAME,
    f: float = LAB_FOCAL_LENGTH,
    theta_d: float = LAB_THETA_D,
) -> dict[str, list[ScenarioPanel]]:
    """Theoretical curves behind the demonstration figures.

    fig4: vacuum and coherent beams, position and momentum planes.
    fig5: the four equator states (odd cat, even cat, p-minus, p-plus) with
    the SQL reference on every panel.
    """
    angle = OverlapAngle.from_theta(theta_d)
    fig4 = []
    for kind, label in (("vac", "vacuum"), ("coh", "coherent")):
        params, state = make_typical_state(kind, angle, frame)
        fig4.append(
            _position_panel(f"fig4_{label}_position", kind, params, state, frame)
        )
        fig4.append(_momentum_panel(f"fig4_{label}_momentum", kind, params, frame, f))
    fig5 = []
    letters = {
        "a": "cat_minus",
        "b": "cat_plus",
        "c": "p_minus",
        "d": "p_plus",
    }
    for letter, kind in letters.items():
        params, state = make_typical_state(kind, angle, frame)
        fig5.append(_position_panel(f"fig5_{letter}1", kind, params, state, frame))
        fig5.append(_momentum_panel(f"fig5_{letter}2", kind, params, frame, f))
    return {"fig4": fig4, "fig5": fig5}
