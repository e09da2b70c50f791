"""Geometric model of the Orthoglide.

The Orthoglide is a 3-DOF translational parallel manipulator whose three
actuated prismatic joints slide along the axes of a Cartesian frame.  Chain i
connects a slider point B_i on axis i to the platform point C_i through a
parallelogram of fixed length L, so the platform translates without rotating
and C_1 = C_2 = C_3 = p.  The frame origin sits at the intersection of the
three prismatic axes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasiblePoseError, KinematicsError, SolverError

AXIS_NAMES = ("x", "y", "z")
# Largest leg-length error |B_i C_i| - L accepted by joint_points, in meters.
_LEG_TOL = 1e-8
# forward_kinematics stops once an accepted Newton step is at most _FK_TOL
# meters, and gives up after _FK_MAX_ITER steps.
_FK_TOL = 1e-10
_FK_MAX_ITER = 50


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
        if not (np.isfinite(self.L) and self.L > 0):
            v.append(f"L must be > 0, got {self.L}")
        if not (np.isfinite(self.l) and self.l >= 0):
            v.append(f"l must be >= 0, got {self.l}")
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


def _sphere_residuals(p, rho, L):
    # f_i = |p - B_i|^2 - L^2 with B_i on axis i at rho_i
    d = p - np.diag(rho)
    return np.sum(d * d, axis=1) - L**2


def forward_kinematics(rho, g: GeometryParams, guess) -> np.ndarray:
    """Platform pose for given joint displacements, near a supplied guess.

    Solves the three sphere constraints |p - B_i| = L by damped Newton
    iteration with the analytic 3x3 Jacobian.  The guess selects the branch;
    after convergence the solution is checked against the configuration
    indices.  Converged once an accepted step is at most ``_FK_TOL`` meters.

    Parameters
    ----------
    rho : array_like
        Joint displacements (rho_x, rho_y, rho_z) in meters.
    guess : array_like
        Starting pose; must be in the basin of the intended solution.

    Raises
    ------
    KinematicsError
        If the sphere system is clearly inconsistent (two slider points
        farther apart than 2L cannot be bridged by equal legs).
    SolverError
        On iteration exhaustion, a singular Jacobian, a stalled damped step,
        or convergence onto the branch not selected by ``g.s``.
    """
    rho = np.asarray(rho, dtype=float)
    p = np.array(guess, dtype=float)
    for i in range(3):
        j = (i + 1) % 3
        gap = math.hypot(rho[i], rho[j])
        if gap > 2.0 * g.L:
            raise KinematicsError(
                f"sphere constraints inconsistent: slider points of chains {i + 1} "
                f"and {j + 1} are {gap:.6g} m apart, more than 2L = {2 * g.L:.6g} m")
    # Convergence is judged on the Newton step (a position-space quantity);
    # the residual floor only short-circuits guesses that already solve the
    # sphere system to better than any tolerance-sized step could.
    f_floor = 0.02 * g.L * _FK_TOL
    f = _sphere_residuals(p, rho, g.L)
    res = float(np.max(np.abs(f)))
    iters = 0
    converged = res <= f_floor
    while not converged:
        if iters >= _FK_MAX_ITER:
            raise SolverError(
                f"forward kinematics did not converge in {_FK_MAX_ITER} iterations "
                f"(residual {res:.3g} m^2)", residual=res, iterations=iters)
        J = 2.0 * (p - np.diag(rho))
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular sphere-constraint Jacobian at p = {p.tolist()}",
                residual=res, iterations=iters) from exc
        scale = 1.0
        accepted = False
        for _ in range(9):  # full step plus up to 8 halvings
            cand = p + scale * step
            fc = _sphere_residuals(cand, rho, g.L)
            rc = float(np.max(np.abs(fc)))
            if rc < res or rc <= f_floor:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise SolverError(
                f"forward kinematics stalled at residual {res:.3g} m^2",
                residual=res, iterations=iters)
        p, f, res = cand, fc, rc
        iters += 1
        converged = res <= f_floor or float(np.max(np.abs(scale * step))) <= _FK_TOL

    rad = radicands(p, g)
    for i in range(3):
        # Branch is only identifiable away from the workspace boundary.
        if rad[i] > 1e-12 and np.sign(rho[i] - p[i]) != g.s[i]:
            raise SolverError(
                f"forward kinematics converged on the wrong {AXIS_NAMES[i]}-branch "
                f"for configuration index s_{AXIS_NAMES[i]} = {g.s[i]:+d}",
                residual=res, iterations=iters)
    return p
