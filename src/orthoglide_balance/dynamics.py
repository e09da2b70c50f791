"""Inertial loads transmitted to the frame along a sampled trajectory.

The shaking force is the total moving mass times the COM acceleration.  The
shaking moment is modeled from the same seven lumped point masses as the COM:
the sum of m_k * (r_k x a_k) about the fixed-frame origin (the intersection
of the prismatic axes).  Rotational link inertia is deliberately omitted.
Accelerations come from second-order finite differences of the sampled
positions: central stencils inside, one-sided stencils at the two boundary
samples.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryParams
from .mass_model import MassParams, lumped_points
from .planner import Trajectory, uniform_dt


@dataclass(frozen=True)
class ShakingForceSeries:
    """Per-sample COM acceleration (m/s^2) and shaking force (N)."""

    t: np.ndarray          # (n,)
    com_accel: np.ndarray  # (n, 3)
    force: np.ndarray      # (n, 3)


@dataclass(frozen=True)
class ShakingMomentSeries:
    """Per-sample shaking moment (N*m) about the fixed-frame origin."""

    t: np.ndarray       # (n,)
    moment: np.ndarray  # (n, 3)


@dataclass(frozen=True)
class ShakingSummary:
    """Peak and RMS load magnitudes with the times of the peaks."""

    peak_force: float
    t_peak_force: float
    rms_force: float
    peak_moment: float
    t_peak_moment: float
    rms_moment: float


@dataclass(frozen=True)
class ComparisonReport:
    """Summaries for an unbalanced/balanced pair plus reduction percentages,
    computed as (1 - balanced/unbalanced) * 100 on the peak magnitudes."""

    unbalanced: ShakingSummary
    balanced: ShakingSummary
    force_reduction_pct: float
    moment_reduction_pct: float


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


def shaking_force_series(traj: Trajectory, mp: MassParams) -> ShakingForceSeries:
    """Shaking force along a trajectory: total mass times COM acceleration."""
    dt = uniform_dt(traj.t)
    accel = second_time_derivative(traj.com, dt)
    return ShakingForceSeries(t=traj.t, com_accel=accel, force=mp.total * accel)


def shaking_moment_series(traj: Trajectory, g: GeometryParams,
                          mp: MassParams) -> ShakingMomentSeries:
    """Lumped-point shaking moment about the fixed-frame origin.

    Each of the seven lumped masses contributes m_k * (r_k x a_k), with a_k
    finite-differenced from that point's own position series.
    """
    dt = uniform_dt(traj.t)
    pts = lumped_points(traj.platform, traj.joints, g, mp)
    accels = second_time_derivative(pts.positions, dt)
    moment = np.einsum("k,nkj->nj", pts.masses, np.cross(pts.positions, accels))
    return ShakingMomentSeries(t=traj.t, moment=moment)


def summarize(force: ShakingForceSeries, moment: ShakingMomentSeries) -> ShakingSummary:
    """Peak/RMS magnitudes of a force and moment series pair."""
    fmag = np.linalg.norm(force.force, axis=1)
    mmag = np.linalg.norm(moment.moment, axis=1)
    kf = int(np.argmax(fmag))
    km = int(np.argmax(mmag))
    return ShakingSummary(
        peak_force=float(fmag[kf]),
        t_peak_force=float(force.t[kf]),
        rms_force=float(np.sqrt(np.mean(fmag**2))),
        peak_moment=float(mmag[km]),
        t_peak_moment=float(moment.t[km]),
        rms_moment=float(np.sqrt(np.mean(mmag**2))),
    )


def evaluate(traj: Trajectory, g: GeometryParams, mp: MassParams):
    """Convenience: force series, moment series and their summary."""
    force = shaking_force_series(traj, mp)
    moment = shaking_moment_series(traj, g, mp)
    return force, moment, summarize(force, moment)


def reduction_pct(unbalanced: float, balanced: float) -> float:
    """Percentage reduction (1 - balanced/unbalanced)*100; 0 when both vanish."""
    if unbalanced == 0.0:
        return 0.0
    return (1.0 - balanced / unbalanced) * 100.0


def compare(unbalanced: ShakingSummary, balanced: ShakingSummary) -> ComparisonReport:
    """Reduction of the peak loads from the unbalanced to the balanced plan."""
    return ComparisonReport(
        unbalanced=unbalanced,
        balanced=balanced,
        force_reduction_pct=reduction_pct(unbalanced.peak_force, balanced.peak_force),
        moment_reduction_pct=reduction_pct(unbalanced.peak_moment, balanced.peak_moment),
    )
