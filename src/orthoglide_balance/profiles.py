"""Rest-to-rest motion profile laws.

Both laws are normalized: sigma(0) = 0, sigma(t_f) = 1, zero end velocities.
The bang-bang law has piecewise-constant acceleration +-4/t_f^2 (the lower
peak); the quintic polynomial law additionally has zero end accelerations and
peak |sigma''| = 10/(sqrt(3)*t_f^2).
"""

import numpy as np


def _check_time(t, t_f):
    if not (np.isfinite(t_f) and t_f > 0):
        raise ValueError(f"duration t_f must be > 0, got {t_f}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > t_f):
        raise ValueError(f"time must lie in [0, {t_f}]")
    return t


def bang_bang_scalar(t, t_f):
    """Normalized bang-bang position and its first two time derivatives.

    Accelerates at +4/t_f^2 on [0, t_f/2], decelerates at -4/t_f^2 on
    [t_f/2, t_f].  At exactly t = t_f/2 the acceleration is discontinuous;
    the left limit +4/t_f^2 is returned.

    Returns (sigma, dsigma_dt, d2sigma_dt2), arrays shaped like ``t``.
    """
    t = _check_time(t, t_f)
    tau = t / t_f
    first = tau < 0.5
    sigma = np.where(first, 2.0 * tau**2, -1.0 + 4.0 * tau - 2.0 * tau**2)
    dsigma = np.where(first, 4.0 * tau, 4.0 - 4.0 * tau) / t_f
    ddsigma = np.where(tau <= 0.5, 4.0, -4.0) / t_f**2
    return sigma, dsigma, ddsigma


def quintic_scalar(t, t_f):
    """Normalized fifth-order polynomial law 10*tau^3 - 15*tau^4 + 6*tau^5.

    Zero velocity and acceleration at both ends; peak |sigma''| is
    10/(sqrt(3)*t_f^2).

    Returns (sigma, dsigma_dt, d2sigma_dt2), arrays shaped like ``t``.
    """
    t = _check_time(t, t_f)
    tau = t / t_f
    sigma = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    dsigma = 30.0 * tau**2 * (1.0 - 2.0 * tau + tau**2) / t_f
    ddsigma = 60.0 * tau * (1.0 - 3.0 * tau + 2.0 * tau**2) / t_f**2
    return sigma, dsigma, ddsigma
