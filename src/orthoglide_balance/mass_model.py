"""Lumped-mass model of the Orthoglide's moving links.

Each parallelogram is lumped as a point mass m1 at the midpoint of its
B_i-C_i leg, each input link (slider body A_i B_i) as a point mass m2 at its
midpoint, and the platform as m3 at the tool point.  The common center of
mass (COM) of the seven points is affine in (p, rho), which makes the COM a
closed-form function of the platform pose once the joint displacements are
eliminated through the inverse kinematics.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import GeometryParams, joint_points, sqrt_radicands

# Largest link mass, in kilograms.  The loads are proportional to it; with
# geometry._MAX_LENGTH and planner._MIN_DT this bound keeps them finite.
_MAX_MASS = 1e30


@dataclass(frozen=True)
class MassParams:
    """Link masses in kilograms.

    m1: one parallelogram assembly, m2: one input link (slider body A-B),
    m3: the platform.  The total moving mass is derived, never stored, so the
    bookkeeping cannot drift: total = 3*(m1 + m2) + m3.

    Raises ConfigError listing every violated rule, each prefixed by its
    field name.
    """

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        v = []
        for name in ("m1", "m2", "m3"):
            m = getattr(self, name)
            if not 0 <= m <= _MAX_MASS:
                v.append(f"{name} must be >= 0 and at most {_MAX_MASS:g} kg, got {m}")
        if not v and not self.total > 0:
            v.append("total moving mass must be > 0")
        if v:
            raise ConfigError(v)

    @property
    def total(self) -> float:
        return 3.0 * (self.m1 + self.m2) + self.m3


@dataclass(frozen=True)
class LumpedPointSet:
    """Seven (position, mass) pairs: 3 parallelogram midpoints with mass m1,
    3 input-link midpoints with mass m2, the platform point with mass m3."""

    positions: np.ndarray  # (..., 7, 3)
    masses: np.ndarray     # (7,)


def lumped_points(p, rho, g: GeometryParams, mp: MassParams) -> LumpedPointSet:
    """Lumped point masses for kinematically consistent (p, rho) of shape (..., 3).

    Propagates the leg-length consistency error from the joint-point table.
    """
    pts = joint_points(p, rho, g)
    positions = np.concatenate([
        0.5 * (pts.B + pts.C),     # parallelogram midpoints, chains 1..3
        0.5 * (pts.A + pts.B),     # input-link midpoints, chains 1..3
        np.asarray(p, dtype=float)[..., None, :],
    ], axis=-2)
    masses = np.array([mp.m1] * 3 + [mp.m2] * 3 + [mp.m3])
    return LumpedPointSet(positions=positions, masses=masses)


def com_of_pose(p, g: GeometryParams, mp: MassParams) -> np.ndarray:
    """COM as a function of the platform pose alone, for poses of shape (..., 3).

    The joint displacements are eliminated through the inverse kinematics:
    S = [s*(m1/2 + m2)*sqrt(radicands) + (2m1 + m2 + m3)*p + m2*l] / total.
    Algebraically equal to the mass-weighted mean of the seven lumped points
    of (p, inverse_kinematics(p)).

    Raises
    ------
    InfeasiblePoseError
        If any pose is outside the workspace.
    """
    p = np.asarray(p, dtype=float)
    sq = sqrt_radicands(p, g)
    s = np.asarray(g.s, dtype=float)
    return ((mp.m1 / 2.0 + mp.m2) * s * sq
            + (2.0 * mp.m1 + mp.m2 + mp.m3) * p
            + mp.m2 * g.l) / mp.total


def com_pose_jacobian(p, g: GeometryParams, mp: MassParams) -> np.ndarray:
    """Analytic 3x3 Jacobian dS/dp of com_of_pose; shape (..., 3, 3) for
    poses of shape (..., 3).

    Diagonal entries are (2m1 + m2 + m3)/total; off-diagonal entries are
    -s_i*(m1/2 + m2)*p_j / (total*sqrt(radicand_i)).  Singular on the
    workspace boundary where a radicand vanishes.
    """
    p = np.asarray(p, dtype=float)
    sq = sqrt_radicands(p, g)
    s = np.asarray(g.s, dtype=float)
    a = (2.0 * mp.m1 + mp.m2 + mp.m3) / mp.total
    b = (mp.m1 / 2.0 + mp.m2) / mp.total
    with np.errstate(divide="ignore", invalid="ignore"):
        off = -b * s[:, None] * p[..., None, :] / sq[..., :, None]
    J = np.where(np.eye(3, dtype=bool), a, off)
    return J
