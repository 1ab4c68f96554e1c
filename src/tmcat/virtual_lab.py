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
import sys
from dataclasses import asdict, dataclass
from itertools import pairwise

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
    _generator,
    _pair_contract,
    _pairs,
    _skip_draws,
    _weighted,
    make_qubit_state,
    make_typical_state,
    signed_phase,
)
from .wigner import quadrature_moments

LAB_FRAME = ModeFrame(w0=0.12e-3, wavelength=780e-9)
LAB_FOCAL_LENGTH = 0.145
LAB_THETA_D = 0.40 * math.pi

# the largest Poisson mean numpy's sampler accepts (numpy.random POISSON_LAM_MAX)
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# below this mean numpy's sampler draws 0 from its first uniform, which is at
# most 1 - 2^-53 and so never exceeds exp(-mean)
_DARK_MEAN = 2.0**-54
# lit rows per Generator.poisson call in seeded frames
_SHOT_ROWS = 64


def focal_waist(frame: ModeFrame, f: float) -> float:
    """1/e^2 intensity radius of the vacuum mode at the transform-lens focus."""
    if not (f > 0.0):
        raise ValidationError(f"focal length must be positive, got {f}")
    w_f = 2.0 * f / (frame.k * frame.w0)
    if not (sys.float_info.min <= w_f * w_f < math.inf):
        raise ValidationError(
            f"focal waist {w_f} m (f = {f} m) is outside the normal floating-point range"
        )
    return w_f


@dataclass(frozen=True)
class CcdConfig:
    """Sensor geometry, digitization, and acquisition knobs.

    exposure_scale is in counts per unit intensity; None picks the scale
    that puts the frame peak at 90% of full range (deterministic).
    visibility scales the interference (cross) pairs of the frame, times the
    state's own coherence.  seed turns on Poisson shot noise; None leaves the
    render noiseless.
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
        if not (0.0 < self.pitch < math.inf):
            raise ValidationError(f"pixel pitch must be positive and finite, got {self.pitch}")
        if not math.isfinite((max(self.nx, self.ny) - 1) / 2.0 * self.pitch):
            raise ValidationError(
                f"pixel pitch {self.pitch} puts the outer pixels of a "
                f"{self.nx}x{self.ny} sensor beyond the floating-point range"
            )
        if self.bit_depth not in (8, 12, 16):
            raise ValidationError(f"bit depth must be 8, 12 or 16, got {self.bit_depth}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValidationError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.background < 0:
            raise ValidationError(f"background counts must be >= 0, got {self.background}")
        if self.exposure_scale is not None and not (0.0 < self.exposure_scale < math.inf):
            raise ValidationError(
                f"exposure scale must be positive and finite, got {self.exposure_scale}"
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
        if self.counts.dtype.kind not in "buif":
            raise ValidationError(f"counts must be real numbers, got dtype {self.counts.dtype}")
        lo, hi = self.counts.min(), self.counts.max()
        # NaN-safe: a NaN count fails both comparisons
        if not (lo >= 0 and hi <= self.config.max_count):
            raise ValidationError(
                f"counts span [{lo}, {hi}], outside the digitizer range "
                f"[0, {self.config.max_count}]"
            )

    def sidecar(self, frame: ModeFrame) -> dict:
        """The JSON sidecar of the frame: sensor, exposure used, plane, beam."""
        return {
            **asdict(self.config),
            "exposure_scale": self.exposure_scale,
            "saturated": self.saturated,
            "plane": self.plane.kind,
            "f": self.plane.f,
            "w0": frame.w0,
            "wavelength": frame.wavelength,
        }

    @classmethod
    def from_sidecar(cls, counts: np.ndarray, max_value: int, sidecar: dict) -> CcdImage:
        """Rebuild the image from its PGM samples and sidecar.

        The beam's w0 and wavelength are left in the sidecar for the caller.
        A missing field raises KeyError, a mistyped one TypeError or
        ValueError.
        """
        fields = {name: read(sidecar[name]) for name, read in _SIDECAR_FIELDS.items()}
        plane = PlaneTag(fields.pop("plane"), fields.pop("f"))
        saturated = fields.pop("saturated")
        config = CcdConfig(**fields)
        if max_value != config.max_count:
            raise ValidationError(
                f"PGM max value {max_value} disagrees with sidecar bit depth {config.bit_depth}"
            )
        return cls(config, plane, counts, config.exposure_scale, saturated)


def _or_none(read):
    return lambda value: None if value is None else read(value)


# How each field of a CCD sidecar is read back, w0 and wavelength aside
_SIDECAR_FIELDS = {
    "nx": int, "ny": int, "pitch": float, "bit_depth": int, "background": int,
    "exposure_scale": float, "visibility": float, "seed": _or_none(int),
    "saturated": bool, "plane": str, "f": _or_none(float),
}


def _intensity_2d(
    state: SuperpositionState, x: np.ndarray, y: np.ndarray, visibility: float
) -> np.ndarray:
    """The state's density at (x, y), its cross pairs scaled by visibility x coherence."""
    c, ax, ay = state._arrays
    fx, fy = state._fields(ax, x), state._fields(ay, y)
    j, k, _ = _pairs(c.size)
    weights = _weighted(c, 1.0, visibility * state.coherence)
    rows = np.ascontiguousarray((fy[j] * np.conj(fy[k])).T)
    return _pair_contract(weights, rows, fx[j], np.conj(fx[k]))


def _shot_noise(rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    """rng.poisson(means) for C-contiguous float64 rows of means >= 0, drawn
    into their own buffer as int64 (means is overwritten).

    Counts and the generator's end state equal those of the one call.  A run
    of rows whose means all lie below _DARK_MEAN is not sampled: its counts
    are 0, and the Philox counter jumps past one raw draw per nonzero mean,
    the one draw the sampler spends on each, without drawing them.  A run of
    lit rows is drawn _SHOT_ROWS rows per call, each call continuing the
    stream where the last one left it, so no frame-sized draw is allocated.
    """
    counts = means.view(np.int64)
    dark = means.max(axis=1) < _DARK_MEAN
    edges = [0, *(np.flatnonzero(np.diff(dark)) + 1), len(dark)]
    for start, stop in pairwise(edges):
        if dark[start]:
            # counting a bool mask beats counting float64 directly
            _skip_draws(rng, np.count_nonzero(means[start:stop] != 0.0))
            counts[start:stop] = 0
        else:
            for row in range(start, stop, _SHOT_ROWS):
                block = slice(row, min(row + _SHOT_ROWS, stop))
                counts[block] = rng.poisson(means[block])
    return counts


def render_ccd(
    state: SuperpositionState | QubitParams,
    plane: PlaneTag,
    config: CcdConfig,
    frame: ModeFrame = LAB_FRAME,
) -> CcdImage:
    """Expose the sensor to a state in the chosen plane and digitize.

    Momentum-plane imaging maps the focal coordinate onto momentum through
    x' = p_x f / (hbar k); internally the state is rotated a quarter turn in
    phase space and sampled at the correspondingly scaled positions.  The
    frame's cross pairs are scaled by config.visibility x state.coherence.

    Digitization runs in this order: the intensity is scaled to counts and
    clamped at 0, since the pair sum can leave far-tail residues a few
    subnormals below it; with a seed each pixel takes a Poisson draw of that
    mean, without one it is rounded half up; the background is added; the
    counts, never negative, are clamped at max_count straight into the
    uint16 frame, which is flagged saturated when any pixel reaches full
    range.  Raises when every pixel saturates (exposure misconfigured) or
    when a mean exceeds what the Poisson sampler accepts.

    The draws are numpy's Generator.poisson over the frame in row-major
    order, count for count.  Rows whose means all lie below 2^-54, where
    every draw is 0, are not sampled; the Philox counter jumps past the
    draws the sampler would have used on them.  The float64 means and the
    uint16 counts are the only frame-sized arrays: the pair product and the
    draws run in row blocks.
    """
    if isinstance(state, QubitParams):
        state = make_qubit_state(state, frame)
    w0 = state.frame.w0
    s = 1.0  # meters in the sampled plane per meter on the sensor
    if plane.kind == "momentum":
        s = state.frame.k * w0**2 / (2.0 * plane.f)
        if not (sys.float_info.min <= s * s < math.inf):
            raise ValidationError(
                f"focal scale k w0^2 / (2 f) = {s} (f = {plane.f} m) is outside "
                "the normal floating-point range"
            )
        state = rotate_phase_space(state, math.pi / 2.0)
    # the modes square each sample's position, in meters and in waist units
    reach = s * (max(config.nx, config.ny) - 1) / 2.0 * config.pitch * max(1.0, 1.0 / w0)
    if not math.isfinite(reach * reach):
        raise ValidationError(
            f"pixel pitch {config.pitch} puts the outer pixels of a {config.nx}x{config.ny} "
            f"sensor beyond the floating-point range of their squares in the {plane.kind} plane"
        )
    x = config.column_positions()
    y = config.row_positions()
    signal = _intensity_2d(state, s * x, s * y, config.visibility)
    if plane.kind == "momentum":
        np.multiply(s**2, signal, out=signal)
    peak = float(signal.max())
    if not (peak > 0.0):
        raise ValidationError("state renders to zero intensity on the sensor")
    scale = config.exposure_scale
    if scale is None:
        scale = 0.9 * config.max_count / peak
    if config.seed is not None and peak * scale > _POISSON_MEAN_MAX:
        raise ValidationError(
            f"exposure scale {scale:g} puts a mean of {peak * scale:g} counts on the "
            f"brightest pixel; shot noise is sampled up to {_POISSON_MEAN_MAX:g}"
        )
    np.multiply(signal, scale, out=signal)
    np.maximum(signal, 0.0, out=signal)
    background = 0
    if config.seed is not None:
        counts = _shot_noise(_generator(config.seed), signal)
        # k >= 0 is an integer, so floor(k + b + 0.5) is k + b, and min(k + b,
        # max_count) is min(k, max_count - b) + b; a background at or above
        # full range saturates every pixel either way
        background = min(config.background, config.max_count)
    else:
        signal += config.background
        signal += 0.5
        counts = np.floor(signal, out=signal)
    digits = np.empty(counts.shape, np.uint16)
    np.minimum(counts, config.max_count - background, out=digits, casting="unsafe")
    digits += background
    saturated = bool(digits.max() >= config.max_count)
    if digits.min() >= config.max_count:
        raise ValidationError("every pixel saturated; exposure misconfigured")
    return CcdImage(
        config=config, plane=plane, counts=digits, exposure_scale=scale, saturated=saturated
    )


def profile_from_image(image: CcdImage) -> np.ndarray:
    """Collapse a frame to a background-free, unit-sum column profile.

    Columns are summed over rows; the background level is the median of the
    16 border column sums (8 on each side), subtracted and clipped at zero.
    """
    if int(image.counts.min()) >= image.config.max_count:
        raise ValidationError("image is fully saturated")
    # integer partial sums stay below 2^53, so converting after summing is exact
    sums = image.counts.sum(axis=0, dtype=np.int64).astype(np.float64)
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


def _moment_start(t, weights):
    """(center, radius) of a start: the mean and twice the RMS width, in pixels."""
    total = weights.sum()
    mean = float((t * weights).sum() / total)
    var = float(((t - mean) ** 2 * weights).sum() / total)
    return min(max(mean, float(t[0])), float(t[-1])), max(2.0 * math.sqrt(max(var, 0.0)), 1.0)


def _fit_samples(profile, pitch: float) -> np.ndarray:
    """A profile as the float array both fits take, after their common checks."""
    if not (0.0 < pitch < math.inf):
        raise ValidationError(f"pixel pitch must be positive and finite, got {pitch}")
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1 or not np.isfinite(profile).all():
        raise ValidationError("profile must be a 1-D array of finite samples")
    if not profile.sum() > 0.0:
        raise ValidationError("profile needs a positive sum to fit")
    return profile


def fit_gaussian_profile(profile: np.ndarray, pitch: float) -> GaussianFit:
    """Fit A exp(-2 (x - x0)^2 / r^2) to a column profile.

    Least squares under A >= 0, x0 within the sensor and r >= pitch / 4.  A is
    projected out: each trial (x0, r) takes its best A.  The descent starts
    from the profile's moments (r0 = twice the RMS width) and again from the
    moments of its part above half maximum, which finds a narrow peak on a
    broad offset; the lower cost wins.  Needs at least 8 nonzero samples and
    a positive sum; raises FitError when no start converges, as on a flat
    profile, whose best radius is infinite.
    """
    # compiled on the first fit, so that import tmcat does no new work
    from .gaussfit import descend

    profile = _fit_samples(profile, pitch)
    if np.count_nonzero(profile) < 8:
        raise ValidationError("profile needs at least 8 nonzero samples to fit")
    t = np.arange(profile.size) - (profile.size - 1) / 2.0  # sample i sits at t_i * pitch
    fits, failure = [], None
    for weights in (profile, np.clip(profile - 0.5 * profile.max(), 0.0, None)):
        try:
            fits.append(descend(t, profile, *_moment_start(t, weights)))
        except FitError as exc:
            failure = exc
    if not fits:
        raise failure
    a, c, s, cost = min(fits, key=lambda fit: fit[3])
    return GaussianFit(center=c * pitch, radius_1e2=s * pitch, rss=cost, amplitude=a)


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
    # scipy.optimize costs more to import than the rest of the package
    # together, and only this fit needs it
    from scipy.optimize import least_squares

    if not 0.0 < T < 1.0:
        raise ValidationError(f"phase estimation needs T in (0, 1), got {T}")
    if not (d > 0.0):
        raise ValidationError(f"phase estimation needs d > 0, got {d}")
    frame = ModeFrame(w0=w0, wavelength=wavelength)
    w_f = focal_waist(frame, f)
    profile = _fit_samples(momentum_profile, pitch)
    x = (np.arange(profile.size) - (profile.size - 1) / 2.0) * pitch
    kappa = frame.k * d / f
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


_PANEL_POINTS = 481


def _position_panel(
    name: str,
    kind: str,
    params: QubitParams,
    state: SuperpositionState,
    frame: ModeFrame,
) -> ScenarioPanel:
    w0 = frame.w0
    x = np.linspace(-4.5 * w0, params.d + 4.5 * w0, _PANEL_POINTS)
    density = state.position_intensity(x)
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
    state: SuperpositionState,
    frame: ModeFrame,
    f: float,
) -> ScenarioPanel:
    w_f = focal_waist(frame, f)
    x = np.linspace(-3.0 * w_f, 3.0 * w_f, _PANEL_POINTS)
    # focal coordinate maps to momentum via p = hbar k x' / f
    scale = HBAR * frame.k / f
    density = scale * state.momentum_intensity(scale * x)
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
        fig4.append(_momentum_panel(f"fig4_{label}_momentum", kind, state, frame, f))
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
        fig5.append(_momentum_panel(f"fig5_{letter}2", kind, state, frame, f))
    return {"fig4": fig4, "fig5": fig5}
