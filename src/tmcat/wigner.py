"""Wigner functions, quadrature moments, and negativity scans.

The x-mode Wigner function of a state with y dependence traced out is

    W(x, p) = (1/(2 pi hbar)) Int psi(x + u/2) psi*(x - u/2) e^{-i u p / hbar} du.

For superpositions of displaced Gaussians the map is analytic, one pair sum
over terms.  The position and momentum densities (the map's marginals) are
``SuperpositionState.position_intensity`` and ``momentum_intensity``.

Nondimensional maps use X = sqrt(2) x / w0 and P = w0 p / (sqrt(2) hbar)
with W~ = hbar * W, so the vacuum reads W~ = exp(-X^2 - P^2) / pi and the
global minimum allowed for any state is -1/pi (-1/(pi hbar) in SI units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .states import (
    HBAR,
    SuperpositionState,
    _d_kappa,
    _pair_contract,
    _pairs,
)

# map cells per block of the trapezoid integral's temporaries
_BLOCK_CELLS = 2**16


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular phase-space window; SI units or nondimensional (X, P)."""

    x_min: float
    x_max: float
    nx: int
    p_min: float
    p_max: float
    np_: int
    si_units: bool = False

    def __post_init__(self):
        if self.nx < 2 or self.np_ < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.p_min, self.p_max))):
            raise ValidationError("grid bounds must be finite")
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValidationError("grid maxima must exceed minima")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np_)


@dataclass(frozen=True)
class WignerMap:
    """Wigner values (shape nx x np) over a grid, plus integral bookkeeping."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def integral(self) -> float:
        """Trapezoid rule over p, row block by row block, then over x.

        Each row's integral is the one a single call over the map gives, so
        only block-sized temporaries are made.
        """
        x = self.grid.x_axis()
        p = self.grid.p_axis()
        rows = max(1, _BLOCK_CELLS // len(p))
        inner = np.concatenate([
            np.trapezoid(self.values[start : start + rows], p, axis=1)
            for start in range(0, len(x), rows)
        ])
        return float(np.trapezoid(inner, x))

    def min_value(self) -> float:
        return float(self.values.min())

    def min_location(self) -> tuple[float, float]:
        idx = np.unravel_index(np.argmin(self.values), self.values.shape)
        return float(self.grid.x_axis()[idx[0]]), float(self.grid.p_axis()[idx[1]])


def wigner_of_state(
    state: SuperpositionState, x: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Closed-form x-mode Wigner function on the meshgrid of (x, p) in SI.

    Each term pair (j, k) contributes a Gaussian centered at the midpoint of
    the two term centers in x and at hbar times the mean tilt in p, carrying
    the interference phase (kappa_j - kappa_k) x - (d_j - d_k) p / hbar +
    (kappa_k d_j - kappa_j d_k)/2, all weighted by the y-mode overlap.  The
    pair term factors into an x vector times a p vector, so the map is the
    pair contraction of the x parts with the weighted p parts.  Returns
    shape (len(x), len(p)).
    """
    x = np.asarray(x, dtype=float).ravel()[:, None]
    p = np.asarray(p, dtype=float).ravel()[None, :]
    w0 = state.frame.w0
    d, kappa = _d_kappa(state._arrays.ax, w0)
    j, k, _ = _pairs(d.size)
    phase = np.exp(1j * (kappa[k] * d[j] - kappa[j] * d[k]) / 2.0)
    x_part = np.exp(
        -2.0 * (x - 0.5 * (d[j] + d[k])) ** 2 / w0**2 + 1j * (kappa[j] - kappa[k]) * x
    )
    p_part = np.exp(
        -(w0**2) * (p / HBAR - 0.5 * (kappa[j] + kappa[k])[:, None]) ** 2 / 2.0
        - 1j * (d[j] - d[k])[:, None] * p / HBAR
    )
    w = _pair_contract(state.pair_weights, x_part, phase[:, None], p_part)
    return np.divide(w, math.pi * HBAR, out=w)


# the quadrature angles whose moments a state keeps: X and P
_KEPT_ANGLES = (0.0, math.pi / 2.0)


def quadrature_moments(
    state: SuperpositionState, theta_l: float = 0.0
) -> tuple[float, float]:
    """Mean and variance of the rotated quadrature X_theta = X cos + P sin.

    Nondimensional units: the vacuum gives (0, 1/2) for every theta_l.
    Uses the bilinear matrix elements between displaced-Gaussian terms,
    <beta| X_theta |alpha> = (alpha e^{-i theta} + conj(beta) e^{i theta}) <beta|alpha>,
    <beta| X_theta^2 |alpha> = [( . )^2 + 1/2] <beta|alpha>.
    Each state keeps its moments at theta_l = 0 and pi/2, the angles that
    maps and sweeps ask again; any other angle is computed on every call.
    """
    if not math.isfinite(theta_l):
        raise ValidationError(f"quadrature angle theta_l must be finite, got {theta_l!r}")
    kept = state._memo.setdefault("moments", {})
    if theta_l in kept:
        return kept[theta_l]
    total, mean, var = _moments(state.pair_overlaps, state._arrays.ax, theta_l)
    _check_trace(total)
    if theta_l in _KEPT_ANGLES:
        kept[theta_l] = mean, var
    return mean, var


def _check_trace(total) -> None:
    """Refuse a state's trace, its pair sum, that drifted more than 1e-9 from 1."""
    if abs(total - 1.0) > 1e-9:
        raise NumericsError(f"state norm drifted to {float(total.real)!r} in moment evaluation")


def _moments(w: np.ndarray, ax: np.ndarray, theta_l: float):
    """Trace, mean and variance of X_theta from pair overlaps w, (m, m) or a stack
    (S, m, m) of states on the term amplitudes ax: one value per state."""
    e_m = complex(math.cos(theta_l), -math.sin(theta_l))
    e_p = np.conj(e_m)
    amp = ax[:, None] * e_m + np.conj(ax)[None, :] * e_p
    total = w.sum(axis=(-2, -1))
    first = (w * amp).sum(axis=(-2, -1))
    second = (w * (amp * amp + 0.5)).sum(axis=(-2, -1))
    mean = first.real
    # each mean squared by C pow, as one numpy float is; the array square rounds apart
    square = mean**2 if mean.ndim == 0 else np.array([m**2 for m in mean.tolist()])
    return total, mean, second.real - square


def _validate_map(m: WignerMap, weight: float) -> None:
    """Refuse a map below -1/pi (-1/(pi hbar) in SI) or not integrating to 1.

    The pair sums of a state whose normalized terms carry sum |c|^2 = weight
    round to about eps * weight, so once that nears the 1e-6 gate a failed
    integral names the cancellation rather than the grid.
    """
    floor = -1.0 / (math.pi * HBAR) if m.grid.si_units else -1.0 / math.pi
    if not (m.values.min() >= floor * (1.0 + 1e-9)):
        raise NumericsError(
            f"Wigner map dips below the physical floor: {m.values.min()!r} < {floor!r}"
        )
    total = m.integral()
    if not (abs(total - 1.0) <= 1e-6):
        if np.finfo(float).eps * weight >= 1e-7:
            cause = (
                f"its terms cancel (sum |c|^2 = {weight:.3g}), "
                "so rounding, not the grid, sets the error"
            )
        else:
            cause = "a finer grid may pass"
        raise NumericsError(
            f"Wigner map on the {m.grid.nx}x{m.grid.np_} grid integrates to {total!r}, "
            f"not 1; {cause}"
        )


def wigner_map(
    state: SuperpositionState, n: int = 256, si_units: bool = False
) -> WignerMap:
    """Closed-form Wigner map on an auto-sized, validated n x n grid.

    The window is centered on the X and P centroid.  It starts at
    +-4 sqrt(Var) (at least 4 vacuum widths) and grows by x1.5 while any
    boundary cell exceeds 1e-8 of the map peak.  Each state keeps its latest
    map, with read-only values, so a long-lived state holds one map.  A
    repeat call with the same n and si_units returns that map without
    evaluating again; a map that fails validation is not kept.
    """
    key = (n, si_units)
    kept_key, kept = state._memo.get("wigner_map", (None, None))
    if kept_key == key:
        return kept
    (mean_x, var_x), (mean_p, var_p) = (quadrature_moments(state, t) for t in _KEPT_ANGLES)
    half_x = 4.0 * max(math.sqrt(var_x), math.sqrt(0.5))
    half_p = 4.0 * max(math.sqrt(var_p), math.sqrt(0.5))
    sx, sp = state.frame.x_scale, state.frame.p_scale
    if si_units:  # SI bounds, evaluated as they are
        bx, bp, ex, ep, scale = sx, sp, 1.0, 1.0, 1.0
    else:  # evaluated at SI points; W~ = hbar W, as dx dp = hbar dX dP
        bx, bp, ex, ep, scale = 1.0, 1.0, sx, sp, HBAR
    for _ in range(12):
        grid = PhaseSpaceGrid(
            x_min=bx * (mean_x - half_x),
            x_max=bx * (mean_x + half_x),
            nx=n,
            p_min=bp * (mean_p - half_p),
            p_max=bp * (mean_p + half_p),
            np_=n,
            si_units=si_units,
        )
        vals = wigner_of_state(state, ex * grid.x_axis(), ep * grid.p_axis())
        edge = max(np.abs(vals[[0, -1], :]).max(), np.abs(vals[:, [0, -1]]).max())
        if edge <= 1e-8 * max(vals.max(), -vals.min()):
            vals *= scale
            out = WignerMap(grid=grid, values=vals)
            _validate_map(out, float(np.sum(np.abs(state._arrays.c) ** 2)))
            vals.flags.writeable = False
            state._memo["wigner_map"] = key, out
            return out
        del vals  # free this window before the next one is evaluated
        half_x *= 1.5
        half_p *= 1.5
    raise NumericsError("auto grid did not localize the state after 12 expansions")


def negativity_scan(
    state: SuperpositionState, n: int = 256
) -> tuple[float, tuple[float, float], float]:
    """Grid minimum, its location, and the magnitude of the negative volume.

    Reads wigner_map(state, n), the latest map each state keeps (read-only),
    so a scan right after that call evaluates no Wigner values.
    """
    m = wigner_map(state, n=n)
    x = m.grid.x_axis()
    p = m.grid.p_axis()
    cell = (x[1] - x[0]) * (p[1] - p[0])
    neg = -float(m.values[m.values < 0.0].sum() * cell)
    return m.min_value(), m.min_location(), max(neg, 0.0)
