"""The prototype mechanism and its closed-form COM model, for inputs and checks.

Geometry and masses equal the program's shipped default scenario.  They are
fixed here so that a change to the program's defaults cannot change the
benchmark's inputs.  The COM model is written out again, independently of
the program, so that the scenario screen and the output checks do not lean
on the code under test.
"""

import numpy as np

L = 0.31
SLIDER_OFFSET = 0.1
MASSES = {"m1": 0.396, "m2": 0.248, "m3": 0.905}

_M1, _M2, _M3 = MASSES["m1"], MASSES["m2"], MASSES["m3"]
TOTAL_MASS = 3.0 * (_M1 + _M2) + _M3
ROOT_GAIN = (_M1 / 2.0 + _M2) / TOTAL_MASS
POSE_GAIN = (2.0 * _M1 + _M2 + _M3) / TOTAL_MASS
OFFSET = _M2 * SLIDER_OFFSET / TOTAL_MASS


def radicands(p):
    """L^2 minus the squared distance from each prismatic axis; (..., 3)."""
    p = np.asarray(p, dtype=float)
    return L**2 - np.sum(p**2, axis=-1, keepdims=True) + p**2


def com(p, s):
    """COM of the seven lumped masses for platform pose(s) p on branch s."""
    p = np.asarray(p, dtype=float)
    return ROOT_GAIN * np.asarray(s) * np.sqrt(radicands(p)) + POSE_GAIN * p + OFFSET


def com_jacobian(p, s):
    """dS/dp for poses p of shape (m, 3) on branches s of shape (m, 3)."""
    q = np.sqrt(radicands(p))
    jac = -ROOT_GAIN * (s / q)[:, :, None] * p[:, None, :]
    idx = np.arange(3)
    jac[:, idx, idx] = POSE_GAIN
    return jac


def com_line_reachable(s, p_i, p_f, steps=100, max_iter=10, tol=1e-10):
    """Which straight COM lines can be followed by feasible poses.

    Arrays have shape (m, 3).  Each line is traced in ``steps`` equal steps
    with warm-started Newton iteration, all lines at once.  A line fails
    when an iterate leaves the workspace or a waypoint does not converge:
    the COM image of the workspace is not convex, so near the boundary the
    straight line between two reachable COMs can leave it.
    """
    s, p_i, p_f = (np.asarray(a, dtype=float) for a in (s, p_i, p_f))
    s_i, s_f = com(p_i, s), com(p_f, s)
    p = p_i.copy()
    ok = np.ones(len(p), dtype=bool)
    for k in range(1, steps + 1):
        target = s_i + (k / steps) * (s_f - s_i)
        for it in range(max_iter + 1):
            f = com(p, s) - target
            pending = ok & (np.max(np.abs(f), axis=1) > tol)
            if not pending.any() or it == max_iter:
                break
            step = np.linalg.solve(com_jacobian(p[pending], s[pending]), f[pending][:, :, None])
            p[pending] -= step[:, :, 0]
            ok &= np.all(radicands(p) > 0.0, axis=1)
            p[~ok] = p_i[~ok]
        ok &= ~pending
    return ok
