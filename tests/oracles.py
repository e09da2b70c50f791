"""Alternate formulations that the program does not use, kept as test
oracles: forward kinematics for the kinematic round trip (c02), and the
lumped-point and (p, rho) closed-form COM routes for the COM model
equivalence (c03)."""

import math

import numpy as np

from orthoglide_balance.errors import KinematicsError, SolverError
from orthoglide_balance.geometry import AXIS_NAMES, GeometryParams, radicands
from orthoglide_balance.mass_model import LumpedPointSet, MassParams

# forward_kinematics stops once an accepted Newton step is at most _FK_TOL
# meters, and gives up after _FK_MAX_ITER steps.
_FK_TOL = 1e-10
_FK_MAX_ITER = 50


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


def com_from_points(pts: LumpedPointSet) -> np.ndarray:
    """Mass-weighted mean position of a lumped point set."""
    total = float(np.sum(pts.masses))
    if total <= 0.0:
        raise ValueError("total mass must be > 0 to define a center of mass")
    return pts.masses @ pts.positions / total


def com_closed_form(p, rho, g: GeometryParams, mp: MassParams) -> np.ndarray:
    """COM of the moving links as an affine function of (p, rho).

    Componentwise: S = [m1*(rho + 3p)/2 + m2*(rho + l) + m3*p] / total.
    Identical to the mass-weighted mean of the seven lumped points.
    """
    p = np.asarray(p, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return (mp.m1 * (rho + 3.0 * p) / 2.0 + mp.m2 * (rho + g.l) + mp.m3 * p) / mp.total
