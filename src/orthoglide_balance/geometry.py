"""Geometric model of the Orthoglide.

The Orthoglide is a 3-DOF translational parallel manipulator whose three
actuated prismatic joints slide along the axes of a Cartesian frame.  Chain i
connects a slider point B_i on axis i to the platform point C_i through a
parallelogram of fixed length L, so the platform translates without rotating
and C_1 = C_2 = C_3 = p.  The frame origin sits at the intersection of the
three prismatic axes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasiblePoseError, KinematicsError

AXIS_NAMES = ("x", "y", "z")
# Largest leg-length error |B_i C_i| - L accepted by joint_points, in meters.
_LEG_TOL = 1e-8
# Longest L and l, in meters.  _LEG_TOL and planner.COM_SOLVE_TOL are absolute,
# so lengths must stay far above their roundoff: an ulp of 1e3 m is 1.1e-13 m,
# while from about 1e8 m on the leg check fails on roundoff alone.
_MAX_LENGTH = 1e3


@dataclass(frozen=True)
class GeometryParams:
    """Mechanism geometry.

    Parameters
    ----------
    L : float
        Parallelogram leg length |B_i C_i| in meters, identical for the three
        chains.
    l : float
        Offset of the slider attachment point A_i from its prismatic axis, in
        meters.  Enters only the mass model (positions of the A_i points),
        never the kinematic constraint.
    s : tuple of int
        Configuration indices (s_x, s_y, s_z), each -1 or +1, selecting which
        of the two inverse-kinematics branches each chain uses.

    Raises
    ------
    ConfigError
        Listing every violated rule, each prefixed by its field name.
    """

    L: float
    l: float = 0.0
    s: tuple = (1, 1, 1)

    def __post_init__(self):
        v = []
        if not 0 < self.L <= _MAX_LENGTH:
            v.append(f"L must be > 0 and at most {_MAX_LENGTH:g} m, got {self.L}")
        if not 0 <= self.l <= _MAX_LENGTH:
            v.append(f"l must be >= 0 and at most {_MAX_LENGTH:g} m, got {self.l}")
        if len(self.s) != 3:
            v.append(f"s must hold three configuration indices, got {self.s!r}")
        else:
            for axis, value in zip(AXIS_NAMES, self.s):
                if isinstance(value, (bool, np.bool_)) or value not in (-1, 1):
                    v.append(f"s_{axis} must be ±1, got {value}")
        if v:
            raise ConfigError(v)
        object.__setattr__(self, "s", tuple(int(value) for value in self.s))


@dataclass(frozen=True)
class JointPointSet:
    """Joint point coordinates for the three chains.

    For poses of shape (..., 3) each array has shape (..., 3, 3), and row i
    of the last two axes is chain i+1: ``A`` holds the slider attachment
    points, ``B`` the points on the prismatic axes, ``C`` the distal joints
    (all equal to the platform point).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


# A_i = B_i + l * _SLIDER_OFFSET[i]: the attachment point sits l off the axis.
_SLIDER_OFFSET = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
_DIAG = np.arange(3)


def radicands(p, g: GeometryParams) -> np.ndarray:
    """Per-axis radicands L^2 - (off-axis distance)^2 guarding the IK roots.

    For poses p of shape (..., 3), component i is L^2 minus the squared
    distance of the platform point from prismatic axis i; a pose is
    reachable iff all three are >= 0.
    """
    p = np.asarray(p, dtype=float)
    return g.L**2 - np.sum(p**2, axis=-1, keepdims=True) + p**2


def sqrt_radicands(p, g: GeometryParams) -> np.ndarray:
    """Square roots of the radicands, i.e. |rho_i - p_i| for each chain.

    Raises
    ------
    InfeasiblePoseError
        If any radicand of any pose is negative, naming the first offending
        pose and its axes.
    """
    rad = radicands(p, g)
    if np.any(rad < 0.0):
        rows = rad.reshape(-1, 3)
        k = int(np.argmax(np.any(rows < 0.0, axis=1)))
        row = rows[k]
        worst = int(np.argmin(row))
        bad = ", ".join(
            f"{AXIS_NAMES[i]}-axis radicand = {row[i]:.6g}" for i in range(3) if row[i] < 0.0
        )
        pose = np.asarray(p, float).reshape(-1, 3)[k]
        raise InfeasiblePoseError(
            f"pose {pose.tolist()} outside workspace: {bad}",
            axis=AXIS_NAMES[worst],
            radicand=float(row[worst]),
            index=k if rad.ndim > 1 else None,
        )
    return np.sqrt(rad)


def is_feasible(p, g: GeometryParams) -> bool:
    """Whether every platform pose in p is inside the reachable workspace.

    Poses on the boundary (a vanishing radicand) are feasible: the inverse
    kinematics is still defined there while its derivative (and the
    COM-inversion Jacobian) blows up.
    """
    return bool(np.all(radicands(p, g) >= 0.0))


def inverse_kinematics(p, g: GeometryParams) -> np.ndarray:
    """Prismatic joint displacements rho for platform poses p of shape (..., 3).

    rho_i = p_i + s_i * sqrt(L^2 - (off-axis distance)^2); single-valued once
    the configuration indices are fixed.

    Raises
    ------
    InfeasiblePoseError
        If any pose is outside the workspace.
    """
    p = np.asarray(p, dtype=float)
    return p + np.asarray(g.s, dtype=float) * sqrt_radicands(p, g)


def joint_points(p, rho, g: GeometryParams) -> JointPointSet:
    """Coordinates of the joint points A_i, B_i, C_i for consistent (p, rho).

    p and rho have shape (..., 3).  B_i sits on prismatic axis i at
    displacement rho_i; A_i is the slider attachment offset by l from the
    axis; every C_i coincides with the platform point.

    Raises
    ------
    KinematicsError
        If any leg length |B_i - C_i| of any pose deviates from L by more
        than ``_LEG_TOL``.
    """
    p = np.asarray(p, dtype=float)
    rho = np.asarray(rho, dtype=float)
    B = np.zeros(rho.shape + (3,))
    B[..., _DIAG, _DIAG] = rho
    A = B + g.l * _SLIDER_OFFSET
    C = np.broadcast_to(p[..., None, :], B.shape)
    leg = np.linalg.norm(B - C, axis=-1)
    err = np.abs(leg - g.L)
    if np.any(err > _LEG_TOL):
        rows, legs = err.reshape(-1, 3), leg.reshape(-1, 3)
        k = int(np.argmax(np.any(rows > _LEG_TOL, axis=1)))
        i = int(np.argmax(rows[k]))
        where = f"pose {k}: " if err.ndim > 1 else ""
        raise KinematicsError(
            f"{where}chain {i + 1} leg length {legs[k, i]:.12g} m deviates from "
            f"L = {g.L:.12g} m by {rows[k, i]:.3g} m (tolerance {_LEG_TOL:.1g}); "
            "(p, rho) inconsistent"
        )
    return JointPointSet(A=A, B=B, C=C)
