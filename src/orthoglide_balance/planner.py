"""Discrete-time trajectory planning for the two motion strategies.

Strategy 1 drives the platform along a straight line under a quintic profile
(the conventional, unbalanced motion).  Strategy 2 drives the common center
of mass along a straight line under a bang-bang profile; each commanded COM
waypoint is mapped back to a platform pose by Newton inversion of the
closed-form COM model, so the platform path comes out implicitly curved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasiblePoseError, PlanningError, SolverError
from .geometry import GeometryParams, inverse_kinematics, is_feasible, radicands
from .mass_model import MassParams, com_of_pose, com_pose_jacobian
from .profiles import bang_bang_scalar, quintic_scalar

MODE_PLATFORM_LINE = "platform_line_quintic"
MODE_COM_LINE = "com_line_bangbang"
PLAN_MODES = (MODE_PLATFORM_LINE, MODE_COM_LINE)

# Newton tolerance on the COM residual, in meters.
COM_SOLVE_TOL = 1e-10
_MAX_ITER = 50
_MAX_CONDITION = 1e12
# Per-row outcome of solve_com_waypoint.
_CONVERGED, _NOT_CONVERGED, _BOUNDARY, _STALLED = range(4)


@dataclass(frozen=True)
class PlanRequest:
    """A full planning problem: endpoints, timing, mode and mechanism data.

    Raises ConfigError listing every violated rule (see ``violations``) plus
    an unknown ``mode``.
    """

    p_i: np.ndarray
    p_f: np.ndarray
    t_f: float
    dt: float
    mode: str
    geometry: GeometryParams
    masses: MassParams

    def __post_init__(self):
        v = self.violations(self.p_i, self.p_f, self.t_f, self.dt, self.geometry)
        if self.mode not in PLAN_MODES:
            v.append(f"unknown planning mode {self.mode!r}; expected one of {PLAN_MODES}")
        if v:
            raise ConfigError(v)
        object.__setattr__(self, "p_i", np.asarray(self.p_i, dtype=float))
        object.__setattr__(self, "p_f", np.asarray(self.p_f, dtype=float))

    @staticmethod
    def violations(p_i, p_f, t_f, dt, geometry) -> list:
        """Violated rules of the endpoint and timing fields, each prefixed by
        its field name.

        Endpoints must be finite 3-vectors inside the workspace of
        ``geometry`` (not judged when ``geometry`` is None).  t_f and dt must
        be > 0, dt at most t_f/100 (at least 100 samples), and the steps of
        ``time_grid(t_f, dt)`` must be equal as ``uniform_dt`` requires.
        """
        v = []
        for name, p in (("p_i", p_i), ("p_f", p_f)):
            try:
                arr = np.asarray(p, dtype=float)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.shape != (3,) or not np.all(np.isfinite(arr)):
                v.append(f"{name} must be a finite 3-vector, got {p!r}")
            elif geometry is not None and not is_feasible(arr, geometry):
                v.append(f"{name} = {arr.tolist()} is outside the workspace "
                         f"(min radicand {np.min(radicands(arr, geometry)):.6g} m²)")
        t_ok = bool(np.isfinite(t_f) and t_f > 0)
        if not t_ok:
            v.append(f"t_f must be > 0, got {t_f}")
        if not (np.isfinite(dt) and dt > 0):
            v.append(f"dt must be > 0, got {dt}")
        elif t_ok and dt > t_f / 100.0 * (1.0 + 1e-12):
            v.append(f"dt too large: need ≥ 100 samples, got dt = {dt} for t_f = {t_f}")
        elif t_ok:
            # time_grid's first step is dt and its last is t_f - (n-1)*dt; the
            # steps between equal dt to rounding.
            n = round(t_f / dt)
            if not _equal_steps([dt, t_f - (n - 1) * dt], t_f / n):
                v.append(f"dt = {dt} does not split t_f = {t_f} into equal steps")
        return v


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory on a uniform grid covering [0, t_f] inclusive.

    Every sample keeps the platform pose, the joint displacements recomputed
    from it, and the COM recomputed from it, so the rows are self-consistent
    by construction.
    """

    mode: str
    t: np.ndarray         # (n,)
    platform: np.ndarray  # (n, 3)
    joints: np.ndarray    # (n, 3)
    com: np.ndarray       # (n, 3)

    def __post_init__(self):
        n = len(self.t)
        if n < 2:
            raise ValueError("a trajectory needs at least two samples")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for name in ("platform", "joints", "com"):
            if getattr(self, name).shape != (n, 3):
                raise ValueError(f"{name} must have shape ({n}, 3)")

    def __len__(self):
        return len(self.t)


def time_grid(t_f: float, dt: float) -> np.ndarray:
    """Grid of round(t_f/dt) steps of dt over [0, t_f], both endpoints included.

    The last sample is pinned to t_f; PlanRequest only accepts (t_f, dt)
    whose grid ``uniform_dt`` accepts.
    """
    n = round(t_f / dt)
    t = dt * np.arange(n + 1)
    t[-1] = t_f
    return t


def _equal_steps(steps, dt) -> bool:
    return bool(np.allclose(steps, dt, rtol=1e-6, atol=1e-12))


def uniform_dt(t: np.ndarray) -> float:
    """Return the grid step, rejecting non-uniform time grids."""
    t = np.asarray(t, dtype=float)
    if len(t) < 2:
        raise ValueError("need at least two samples")
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if not _equal_steps(np.diff(t), dt):
        raise ValueError("non-uniform time grid; dynamics needs equally spaced samples")
    return float(dt)


def solve_com_waypoint(S_target, guess, g: GeometryParams, mp: MassParams):
    """Platform poses whose moving-link COM equals ``S_target``.

    Damped Newton iteration on the closed-form COM model with its analytic
    Jacobian, run on every row of a batch in lockstep.  Each row starts from
    its ``guess``; a step is halved (up to 8 times) whenever the row's
    residual would not decrease or its iterate would leave the feasible
    workspace.  A row stops one step after its max-norm residual first drops
    to ``COM_SOLVE_TOL``, so it ends at roundoff (it stops where it is if the
    Jacobian guard or the damped test rejects that step); a row whose guess
    is exact takes no step.  A batch gives bit-for-bit the rows of per-row
    calls.

    Parameters
    ----------
    S_target : array_like, shape (..., 3)
        Commanded COM positions in meters.
    guess : array_like, shape (..., 3)
        Feasible starting poses, each selecting its solution branch.

    Returns
    -------
    (pose, iterations, residual)
        Per row: the pose (..., 3), the Newton steps taken and the final
        max-norm COM residual in meters (scalars for one pose).

    Raises
    ------
    InfeasiblePoseError
        If a guess is outside the workspace.
    SolverError
        On iteration exhaustion, an ill-conditioned Jacobian (workspace
        boundary), or a stalled damped step; unreachable targets surface as
        one of these rather than silent extrapolation.  Failed rows drop out
        while the others finish, then the lowest failing row is reported
        (``index``; None for one pose).
    """
    S_target, guess = np.broadcast_arrays(np.asarray(S_target, dtype=float),
                                          np.asarray(guess, dtype=float))
    shape = guess.shape
    f = (com_of_pose(guess, g, mp) - S_target).reshape(-1, 3)
    S = S_target.reshape(-1, 3)
    p = guess.reshape(-1, 3).copy()
    res = np.max(np.abs(f), axis=-1)
    iters = np.zeros(len(p), dtype=int)
    failure = np.full(len(p), _CONVERGED)
    active = res > 0.0
    while active.any():
        k = np.flatnonzero(active)
        active[k] = False
        polish = res[k] <= COM_SOLVE_TOL  # converged rows take one last step
        spent = ~polish & (iters[k] >= _MAX_ITER)
        failure[k[spent]] = _NOT_CONVERGED
        k, polish = k[~spent], polish[~spent]
        J = com_pose_jacobian(p[k], g, mp)
        ok = np.all(np.isfinite(J), axis=(-2, -1))
        ok[ok] = np.linalg.cond(J[ok]) <= _MAX_CONDITION
        failure[k[~ok & ~polish]] = _BOUNDARY
        k, polish = k[ok], polish[ok]
        step = np.linalg.solve(J[ok], -f[k, :, None])[..., 0]
        pending = np.ones(len(k), dtype=bool)
        scale = 1.0
        for _ in range(9):  # full step plus up to 8 halvings
            j = np.flatnonzero(pending)
            cand = p[k[j]] + scale * step[j]
            inside = np.all(radicands(cand, g) >= 0.0, axis=-1)
            j, cand = j[inside], cand[inside]
            fc = com_of_pose(cand, g, mp) - S[k[j]]
            rc = np.max(np.abs(fc), axis=-1)
            take = (rc < res[k[j]]) | (rc <= COM_SOLVE_TOL)
            rows = k[j[take]]
            p[rows], f[rows], res[rows] = cand[take], fc[take], rc[take]
            pending[j[take]] = False
            if not pending.any():
                break
            scale *= 0.5
        iters[k[~pending]] += 1
        failure[k[pending & ~polish]] = _STALLED
        active[k[~pending & ~polish]] = True
    failed = np.flatnonzero(failure != _CONVERGED)
    if len(failed):
        i = failed[0]
        message = {
            _NOT_CONVERGED: f"COM inversion did not converge in {_MAX_ITER} iterations "
                            f"(residual {res[i]:.3g} m)",
            _BOUNDARY: f"COM Jacobian ill-conditioned at p = {p[i].tolist()} "
                       "(workspace boundary)",
            _STALLED: f"COM inversion stalled at residual {res[i]:.3g} m "
                      f"(target {S[i].tolist()} may be unreachable)",
        }[failure[i]]
        raise SolverError(message, residual=float(res[i]), iterations=int(iters[i]),
                          index=int(i) if len(shape) > 1 else None)
    return p.reshape(shape), iters.reshape(shape[:-1])[()], res.reshape(shape[:-1])[()]


def plan_platform_line(req: PlanRequest) -> Trajectory:
    """Strategy 1: platform on a straight line under the quintic profile.

    Raises PlanningError at the first infeasible intermediate pose.
    """
    if req.mode != MODE_PLATFORM_LINE:
        raise ValueError(f"plan_platform_line requires mode {MODE_PLATFORM_LINE!r}, got {req.mode!r}")
    t = time_grid(req.t_f, req.dt)
    sigma, _, _ = quintic_scalar(t, req.t_f)
    platform = req.p_i[None, :] + np.multiply.outer(sigma, req.p_f - req.p_i)
    platform[0] = req.p_i
    platform[-1] = req.p_f
    try:
        joints = inverse_kinematics(platform, req.geometry)
    except InfeasiblePoseError as exc:
        k = exc.index
        raise PlanningError(
            f"platform-line plan hit an infeasible pose at t = {t[k]:.6g} s: {exc}",
            mode=req.mode, t=float(t[k])) from exc
    com = com_of_pose(platform, req.geometry, req.masses)
    return Trajectory(mode=req.mode, t=t, platform=platform, joints=joints, com=com)


def plan_com_line(req: PlanRequest) -> Trajectory:
    """Strategy 2: COM on a straight line under the bang-bang profile.

    Every interior COM waypoint is inverted to a platform pose in one
    batched Newton solve, each starting from the platform line under the
    same bang-bang law.  The workspace is an intersection of three cylinders,
    hence convex, so every such guess is feasible.  The endpoint samples are
    pinned to the requested poses (the solve is a fixed point there).

    Raises PlanningError with the earliest failing time if any waypoint
    cannot be inverted (non-convergence or workspace-boundary singularity).
    """
    if req.mode != MODE_COM_LINE:
        raise ValueError(f"plan_com_line requires mode {MODE_COM_LINE!r}, got {req.mode!r}")
    g, mp = req.geometry, req.masses
    S_i = com_of_pose(req.p_i, g, mp)
    S_f = com_of_pose(req.p_f, g, mp)
    t = time_grid(req.t_f, req.dt)
    sigma = bang_bang_scalar(t[1:-1], req.t_f)[0]
    guess = req.p_i + np.multiply.outer(sigma, req.p_f - req.p_i)
    platform = np.empty((len(t), 3))
    platform[0] = req.p_i
    platform[-1] = req.p_f
    try:
        platform[1:-1] = solve_com_waypoint(S_i + np.multiply.outer(sigma, S_f - S_i),
                                            guess, g, mp)[0]
    except (SolverError, InfeasiblePoseError) as exc:
        k = exc.index + 1
        raise PlanningError(
            f"COM-line plan failed at t = {t[k]:.6g} s: {exc}",
            mode=req.mode, t=float(t[k])) from exc
    return Trajectory(mode=req.mode, t=t, platform=platform,
                      joints=inverse_kinematics(platform, g), com=com_of_pose(platform, g, mp))
