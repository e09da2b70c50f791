"""Rest-to-rest motion profile laws and their peak accelerations.

Both laws are normalized: sigma(0) = 0, sigma(t_f) = 1, zero end velocities.
The bang-bang law has piecewise-constant acceleration +-4/t_f^2 (the lower
peak); the quintic polynomial law additionally has zero end accelerations and
peak |sigma''| = 10/(sqrt(3)*t_f^2).
"""

import math
from dataclasses import dataclass

import numpy as np

BANG_BANG = "bang_bang"
QUINTIC = "quintic"
PROFILE_KINDS = (BANG_BANG, QUINTIC)


@dataclass(frozen=True)
class ProfileSpec:
    """A motion law: profile kind plus total duration t_f > 0 in seconds."""

    kind: str
    t_f: float

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if not (np.isfinite(self.t_f) and self.t_f > 0):
            raise ValueError(f"duration t_f must be > 0, got {self.t_f}")


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
    the left limit +4/t_f^2 is returned.  Accepts scalar or array ``t``.

    Returns (sigma, dsigma_dt, d2sigma_dt2).
    """
    t = _check_time(t, t_f)
    tau = t / t_f
    first = tau < 0.5
    sigma = np.where(first, 2.0 * tau**2, -1.0 + 4.0 * tau - 2.0 * tau**2)
    dsigma = np.where(first, 4.0 * tau, 4.0 - 4.0 * tau) / t_f
    ddsigma = np.where(tau <= 0.5, 4.0, -4.0) / t_f**2
    if np.ndim(t) == 0:
        return float(sigma), float(dsigma), float(ddsigma)
    return sigma, dsigma, ddsigma


def quintic_scalar(t, t_f):
    """Normalized fifth-order polynomial law 10*tau^3 - 15*tau^4 + 6*tau^5.

    Zero velocity and acceleration at both ends; peak |sigma''| is
    10/(sqrt(3)*t_f^2).  Accepts scalar or array ``t``.

    Returns (sigma, dsigma_dt, d2sigma_dt2).
    """
    t = _check_time(t, t_f)
    tau = t / t_f
    sigma = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    dsigma = 30.0 * tau**2 * (1.0 - 2.0 * tau + tau**2) / t_f
    ddsigma = 60.0 * tau * (1.0 - 3.0 * tau + 2.0 * tau**2) / t_f**2
    if np.ndim(t) == 0:
        return float(sigma), float(dsigma), float(ddsigma)
    return sigma, dsigma, ddsigma


def peak_acceleration(spec: ProfileSpec, path_length: float) -> float:
    """Closed-form peak acceleration magnitude for a path of given length.

    bang-bang: 4*S/t_f^2; quintic: 10*S/(sqrt(3)*t_f^2).
    """
    if not (np.isfinite(path_length) and path_length >= 0):
        raise ValueError(f"path length must be >= 0, got {path_length}")
    if spec.kind == BANG_BANG:
        return 4.0 * path_length / spec.t_f**2
    return 10.0 * path_length / (math.sqrt(3.0) * spec.t_f**2)
