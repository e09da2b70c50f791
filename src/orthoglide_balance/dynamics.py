"""Inertial loads transmitted to the frame along a sampled trajectory.

The shaking force is the total moving mass times the COM acceleration.  The
shaking moment is modeled from the same seven lumped point masses as the COM:
the sum of m_k * (r_k x a_k) about the fixed-frame origin (the intersection
of the prismatic axes).  Rotational link inertia is deliberately omitted.
Accelerations come from second-order finite differences of the sampled
positions: central stencils inside, one-sided stencils at the two boundary
samples.  Each series carries the roundoff floor of those differences, below
which a peak is noise.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryParams
from .mass_model import MassParams, lumped_points
from .planner import Trajectory

# Roundoff gain of a finite-difference load: the stencil's coefficient sum
# (4 inside, 12 at the ends) times a few ulps of error in each position.
_ROUNDOFF_GAIN = 64.0


@dataclass(frozen=True)
class ShakingForceSeries:
    """Per-sample shaking force (N), with the roundoff floor of |force| (N)."""

    force: np.ndarray  # (n, 3)
    noise_floor: float


@dataclass(frozen=True)
class ShakingMomentSeries:
    """Per-sample shaking moment (N*m) about the fixed-frame origin, with the
    roundoff floor of |moment| (N*m)."""

    moment: np.ndarray  # (n, 3)
    noise_floor: float


@dataclass(frozen=True)
class ShakingSummary:
    """Peak and RMS load magnitudes with the times of the peaks, and the
    roundoff floors of the two series."""

    peak_force: float
    t_peak_force: float
    rms_force: float
    peak_moment: float
    t_peak_moment: float
    rms_moment: float
    force_floor: float
    moment_floor: float


@dataclass(frozen=True)
class ComparisonReport:
    """Reduction percentages from an unbalanced to a balanced plan, computed
    as (1 - balanced/unbalanced) * 100 on the peak magnitudes (None where the
    unbalanced peak is roundoff noise, see ``reduction_pct``)."""

    force_reduction_pct: float | None
    moment_reduction_pct: float | None


def second_time_derivative(y: np.ndarray, dt: float) -> np.ndarray:
    """Second derivative of a uniformly sampled series along its first axis.

    Central differences on interior samples; second-order one-sided stencils
    (2, -5, 4, -1)/dt^2 at the first and last sample.  Needs >= 5 samples.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        raise ValueError(f"need at least 5 samples for acceleration estimates, got {n}")
    # Grouped as differences of first differences so that constant (and
    # linear) series cancel exactly instead of leaving stencil roundoff.
    d = np.diff(y, axis=0)
    acc = np.empty_like(y)
    acc[1:-1] = (d[1:] - d[:-1]) / dt**2
    acc[0] = (-2.0 * d[0] + 3.0 * d[1] - d[2]) / dt**2
    acc[-1] = (2.0 * d[-1] - 3.0 * d[-2] + d[-3]) / dt**2
    return acc


def _roundoff_floor(scale, dt) -> float:
    # error of a second difference of positions of magnitude up to `scale`
    return float(_ROUNDOFF_GAIN * np.finfo(float).eps * scale / dt**2)


def shaking_force_series(traj: Trajectory, mp: MassParams) -> ShakingForceSeries:
    """Shaking force along a trajectory: total mass times COM acceleration.

    Its roundoff floor is c*eps*M*max|S|/dt^2 (c = ``_ROUNDOFF_GAIN``) with
    M the total mass and S the COM.
    """
    accel = second_time_derivative(traj.com, traj.dt)
    floor = _roundoff_floor(mp.total * np.max(np.linalg.norm(traj.com, axis=1)), traj.dt)
    return ShakingForceSeries(force=mp.total * accel, noise_floor=floor)


def shaking_moment_series(traj: Trajectory, g: GeometryParams,
                          mp: MassParams) -> ShakingMomentSeries:
    """Lumped-point shaking moment about the fixed-frame origin.

    Each of the seven lumped masses contributes m_k * (r_k x a_k), with a_k
    finite-differenced from that point's own position series.  Its roundoff
    floor is c*eps*M*R^2/dt^2 (c = ``_ROUNDOFF_GAIN``) with R the largest
    lumped-point distance from the origin.
    """
    pts = lumped_points(traj.platform, traj.joints, g, mp)
    accels = second_time_derivative(pts.positions, traj.dt)
    moment = np.einsum("k,nkj->nj", pts.masses, np.cross(pts.positions, accels))
    reach = np.max(np.linalg.norm(pts.positions, axis=-1))
    return ShakingMomentSeries(moment=moment,
                               noise_floor=_roundoff_floor(mp.total * reach**2, traj.dt))


def summarize(t, force: ShakingForceSeries, moment: ShakingMomentSeries) -> ShakingSummary:
    """Peak/RMS magnitudes of a force and moment series pair sampled at ``t``."""
    fmag = np.linalg.norm(force.force, axis=1)
    mmag = np.linalg.norm(moment.moment, axis=1)
    kf = int(np.argmax(fmag))
    km = int(np.argmax(mmag))
    return ShakingSummary(
        peak_force=float(fmag[kf]),
        t_peak_force=float(t[kf]),
        rms_force=float(np.sqrt(np.mean(fmag**2))),
        peak_moment=float(mmag[km]),
        t_peak_moment=float(t[km]),
        rms_moment=float(np.sqrt(np.mean(mmag**2))),
        force_floor=force.noise_floor,
        moment_floor=moment.noise_floor,
    )


def evaluate(traj: Trajectory, g: GeometryParams, mp: MassParams):
    """Convenience: force series, moment series and their summary."""
    force = shaking_force_series(traj, mp)
    moment = shaking_moment_series(traj, g, mp)
    return force, moment, summarize(traj.t, force, moment)


def reduction_pct(unbalanced: float, balanced: float, floor: float) -> float | None:
    """Percentage reduction (1 - balanced/unbalanced)*100 of two peaks.

    0 when both vanish; None (undefined) when the unbalanced peak is not
    above ``floor``, the roundoff floor of its finite differences, so the
    ratio would be one of noise.
    """
    if unbalanced == balanced == 0.0:
        return 0.0
    if unbalanced <= floor:
        return None
    return (1.0 - balanced / unbalanced) * 100.0


def compare(unbalanced: ShakingSummary, balanced: ShakingSummary) -> ComparisonReport:
    """Reduction of the peak loads from the unbalanced to the balanced plan."""
    return ComparisonReport(
        force_reduction_pct=reduction_pct(unbalanced.peak_force, balanced.peak_force,
                                          unbalanced.force_floor),
        moment_reduction_pct=reduction_pct(unbalanced.peak_moment, balanced.peak_moment,
                                           unbalanced.moment_floor),
    )
