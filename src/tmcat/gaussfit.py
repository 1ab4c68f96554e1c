"""Bounded least squares of one Gaussian, A exp(-2 (t - c)^2 / s^2), to a profile.

Lengths are in pixels.  A is projected out: each trial (c, s) takes the
best A >= 0, and the descent keeps c within the profile and s >= 1/4.
Every derivative is analytic, and a fit ends at a stationary point to
rounding rather than at a solver tolerance.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import FitError

_EPS = sys.float_info.epsilon
_ITERATIONS = 200  # per start


def _residual(t, y, c, s):
    """(z, e, A, residual, cost) of the best amplitude A >= 0 at center c, radius s.

    z = (t - c) / s, e = exp(-2 z^2), and the cost is the residual sum of
    squares of A e - y.
    """
    z = (t - c) / s
    e = np.exp(-2.0 * z * z)
    a = max(float(e @ y) / float(e @ e), 0.0)
    residual = a * e - y
    return z, e, a, residual, float(residual @ residual)


def _derivatives(z, e, a, residual, s, y_abs):
    """Half-cost derivatives in (A, c, s) and their rounding scales.

    The Jacobian is [e, k z e, k z^2 e] with k = 4A/s, so every entry is a
    moment sum of e^2 z^j or r e z^j.  Returns the gradient J^T r, the upper
    triangle (aa, ac, as, cc, cs, ss) of J^T J and of the second-order part
    sum r_i Hess(f_i) of the exact Hessian, the rounding scale of each
    gradient entry, and the rounding scale of the cost.
    """
    powers = np.empty((5, z.size))
    powers[0] = e
    for j in range(1, 5):
        np.multiply(powers[j - 1], z, out=powers[j])
    p = (powers @ e).tolist()
    r = (powers @ residual).tolist()
    size = a * e + y_abs  # the magnitude each residual is rounded against
    g = (np.abs(powers[:3]) @ size).tolist()
    k = 4.0 * a / s
    kk = k * k
    b = a / (s * s)
    gradient = (r[0], k * r[1], k * r[2])
    gauss_newton = (p[0], k * p[1], k * p[2], kk * p[2], kk * p[3], kk * p[4])
    second = (0.0, 4.0 / s * r[1], 4.0 / s * r[2], b * (16.0 * r[2] - 4.0 * r[0]),
              b * (16.0 * r[3] - 8.0 * r[1]), b * (16.0 * r[4] - 12.0 * r[2]))
    rounding = (g[0], k * g[1], k * g[2])
    return gradient, gauss_newton, second, rounding, 2.0 * _EPS * float(np.abs(residual) @ size)


def _step(matrix, gradient, free):
    """(dc, ds) of matrix (dA, dc, ds) = -gradient, with dA eliminated.

    A coordinate that is not free stays put.  None unless the reduced (c, s)
    matrix is positive definite.
    """
    aa, ac, a_s, cc, cs, ss = matrix
    ga, gc, gs = gradient
    mcc, mcs, mss = cc - ac * ac / aa, cs - ac * a_s / aa, ss - a_s * a_s / aa
    rc, rs = ac * ga / aa - gc, a_s * ga / aa - gs
    if not free[0]:
        mcc, mcs, rc = 1.0, 0.0, 0.0
    if not free[1]:
        mss, mcs, rs = 1.0, 0.0, 0.0
    det = mcc * mss - mcs * mcs
    if not (mcc > 0.0 and det > 0.0):
        return None
    return (rc * mss - rs * mcs) / det, (rs * mcc - rc * mcs) / det


def descend(t, y, c, s):
    """Least-squares (A, c, s, cost) of samples y at pixels t, from the start (c, s).

    Levenberg-Marquardt steps on J^T J while a step lowers the cost by 1% or
    more, then damped Newton steps on the exact Hessian, which may also raise
    the cost by its rounding.  Ends where the gradient or the Newton step is
    at rounding.
    """
    lo, hi, s_min = float(t[0]), float(t[-1]), 0.25
    # past this radius the model departs from a flat line by less than
    # sqrt(eps) across the sensor, so the cost cannot find a peak
    s_flat = hi * math.sqrt(2.0) / _EPS**0.25
    y_abs = np.abs(y)
    z, e, a, residual, cost = _residual(t, y, c, s)
    gradient, gauss_newton, second, rounding, cost_rounding = _derivatives(
        z, e, a, residual, s, y_abs)
    damping, newton = 1e-3, False
    for _ in range(_ITERATIONS):
        free = (not ((c <= lo and gradient[1] > 0.0) or (c >= hi and gradient[1] < 0.0)),
                not (s <= s_min and gradient[2] > 0.0))
        if all(abs(g) <= 2.0 * _EPS * r
               for g, r, f in zip(gradient, rounding, (True, *free)) if f):
            return a, c, s, cost
        # J^T J with its diagonal scaled by 1 + damping, plus the second-order part
        matrix = [m * (1.0 + damping) if j in (0, 3, 5) else m for j, m in enumerate(gauss_newton)]
        if newton:
            matrix = [m + h for m, h in zip(matrix, second)]
        step = _step(matrix, gradient, free)
        if step is None:
            damping *= 4.0
            continue
        c_new = min(max(c + step[0], lo), hi)
        s_new = max(s + step[1], s_min)
        if (newton and abs(c_new - c) <= 8.0 * _EPS * (abs(c) + s)
                and abs(s_new - s) <= 8.0 * _EPS * s):
            return a, c, s, cost
        trial = _residual(t, y, c_new, s_new)
        if not trial[4] <= cost + (cost_rounding if newton else 0.0):
            damping *= 4.0
            continue
        newton = newton or not trial[4] < 0.99 * cost
        z, e, a, residual, cost = trial
        c, s = c_new, s_new
        if s > s_flat:
            raise FitError(
                "Gaussian fit does not converge: its radius runs off to infinity, "
                "as it does on a flat profile")
        gradient, gauss_newton, second, rounding, cost_rounding = _derivatives(
            z, e, a, residual, s, y_abs)
        damping /= 3.0
    raise FitError(
        f"Gaussian fit did not converge in {_ITERATIONS} iterations; last iterate "
        f"A = {a!r}, x0 = {c!r} px, r = {s!r} px")
