import numpy as np
import pytest

from orthoglide_balance import (
    GeometryParams,
    MassParams,
    PlanRequest,
    plan_com_line,
    plan_platform_line,
)

# Reference scenario: the benchmark prototype geometry/masses and the
# point-to-point motion used throughout the tests.
SCENARIO_L = 0.31
SCENARIO_OFFSET = 0.1
SCENARIO_MASSES = (0.396, 0.248, 0.905)
P_I = (0.0, 0.0, 0.0)
P_F = (-0.1, 0.07, -0.11)
T_F = 1.0
DT = 0.001
# Valid endpoints on branch s = (1, 1, -1) whose straight COM line leaves
# the reachable set between t = 0.625 s and 0.63 s (t_f = 1 s).
UNREACHABLE_P_I = (-0.1935, -0.1671, -0.0182)
UNREACHABLE_P_F = (-0.2173, -0.2106, 0.216)


def make_geometry(**kw):
    args = dict(L=SCENARIO_L, l=SCENARIO_OFFSET, s=(1, 1, 1))
    args.update(kw)
    return GeometryParams(**args)


def make_masses(scale=1.0):
    m1, m2, m3 = SCENARIO_MASSES
    return MassParams(m1=scale * m1, m2=scale * m2, m3=scale * m3)


def make_request(dt=DT, t_f=T_F, p_i=P_I, p_f=P_F, geometry=None, masses=None):
    return PlanRequest(p_i=p_i, p_f=p_f, t_f=t_f, dt=dt,
                       geometry=geometry or make_geometry(),
                       masses=masses or make_masses())


def random_feasible_poses(n, seed, box=0.45, geometry=None):
    # Every pose with |p_i| <= box*L per axis has all radicands
    # >= L^2*(1 - 2*box^2) > 0 for box < 1/sqrt(2), so rejection sampling is
    # not needed and a 1 mm perturbation cannot cross the boundary.
    g = geometry or make_geometry()
    rng = np.random.default_rng(seed)
    return rng.uniform(-box * g.L, box * g.L, size=(n, 3))


@pytest.fixture(scope="session")
def geometry():
    return make_geometry()


@pytest.fixture(scope="session")
def masses():
    return make_masses()


@pytest.fixture(scope="session")
def platform_plan():
    return plan_platform_line(make_request())


@pytest.fixture(scope="session")
def com_plan():
    return plan_com_line(make_request())


@pytest.fixture(scope="session")
def platform_plan_half_dt():
    return plan_platform_line(make_request(dt=DT / 2))


@pytest.fixture(scope="session")
def com_plan_half_dt():
    return plan_com_line(make_request(dt=DT / 2))
