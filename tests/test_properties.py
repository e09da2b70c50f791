"""Property tests over random scenarios: all eight branches, endpoints up to
the workspace boundary, zero-length moves, zero link masses and grids of
100 to 1000 steps; and of the CSV formatter against ``'%.14e' %``.  Example
generation is derandomized, so every run of the suite checks the same
scenarios."""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orthoglide_balance import (
    PLAN_MODES,
    PlanningError,
    ScenarioConfig,
    evaluate,
    plan_com_line,
)
from orthoglide_balance.cli import _format_rows, main
from orthoglide_balance.config import save_config
from orthoglide_balance.mass_model import com_of_pose

from conftest import SCENARIO_L, SCENARIO_MASSES, SCENARIO_OFFSET

BRANCHES = tuple(itertools.product((1, -1), repeat=3))
# Roundoff of a peak force computed from second differences of the COM, in
# units of eps * M * max|S| / dt^2 (measured at most 13 on near-zero moves).
FORCE_ROUNDOFF = 64.0


@st.composite
def poses(draw):
    """A pose at a drawn fraction (0 to 1, 1 on the boundary) of the
    distance from the origin to the workspace boundary along a drawn
    direction."""
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = float(np.linalg.norm(u))
    u = u / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0])
    # the cylinder about axis i is left at distance L/sqrt(1 - u_i^2); the
    # workspace ends at the nearest of the three
    reach = SCENARIO_L / math.sqrt(1.0 - float(np.min(u**2)))
    fraction = 1.0 if draw(st.integers(0, 3)) == 0 else draw(st.floats(0.0, 1.0))
    return tuple(float(v) for v in fraction * reach * u)


@st.composite
def scenarios(draw):
    s = draw(st.sampled_from(BRANCHES))
    p_i = draw(poses())
    p_f = p_i if draw(st.integers(0, 9)) == 0 else draw(poses())
    m1, m2, m3 = (draw(st.sampled_from((m, 0.0))) for m in SCENARIO_MASSES)
    t_f = draw(st.floats(0.2, 2.0))
    dt = t_f / draw(st.integers(100, 1000))
    return ScenarioConfig(L=SCENARIO_L, l=SCENARIO_OFFSET, s_x=s[0], s_y=s[1], s_z=s[2],
                          m1=m1, m2=m2, m3=m3, p_i=p_i, p_f=p_f, t_f=t_f, dt=dt,
                          modes=PLAN_MODES)


def _run(cfg_path, out):
    return main(["run", "--config", str(cfg_path), "--out", str(out)])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_run_exits_with_documented_code_and_reruns_identically(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_config(cfg, tmp / "cfg.json")
        code = _run(tmp / "cfg.json", tmp / "a")
        assert code in (0, 1, 2)
        if code == 0:
            assert _run(tmp / "cfg.json", tmp / "b") == 0
            names = sorted(p.name for p in (tmp / "a").iterdir())
            assert names == sorted(p.name for p in (tmp / "b").iterdir())
            for name in names:
                assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_com_line_is_straight_with_analytic_peak_force(cfg):
    assume(cfg.m1 + cfg.m2 + cfg.m3 > 0.0)
    g, mp = cfg.geometry_params(), cfg.mass_params()
    try:
        req = cfg.plan_request()
        traj = plan_com_line(req)
    except (ValueError, PlanningError):
        assume(False)  # an endpoint rounded outside the workspace, or unreachable
    S_i, S_f = com_of_pose(req.p_i, g, mp), com_of_pose(req.p_f, g, mp)
    D = S_f - S_i
    rel = traj.com - S_i
    length = float(np.linalg.norm(D))
    if length > 0.0:
        rel = rel - np.outer(rel @ D / length**2, D)
    assert float(np.max(np.linalg.norm(rel, axis=1))) <= 1e-8

    force = evaluate(traj, g, mp)[2].peak_force
    exact = mp.total * 4.0 * length / cfg.t_f**2
    roundoff = (FORCE_ROUNDOFF * np.finfo(float).eps * mp.total
                * float(np.max(np.linalg.norm(traj.com, axis=1))) / cfg.dt**2)
    assert abs(force - exact) <= 1e-7 * exact + roundoff


def _edge_values():
    """Values where a '%.14e' formatter can go wrong."""
    rng = np.random.default_rng(5)
    powers = [float(f"1e{k}") for k in range(-12, 17)]
    values = [0.0, math.nan, math.inf, 5e-324, 2.225073858507201e-308,
              2.2250738585072014e-308, 1e100, 1.5e-100, 1.7976931348623157e308, 1e-300]
    values += [v for p in powers for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))]
    # just below a power of ten: rounds up to it, or only nearly
    values += [9.999999999999995 * p for p in powers] + [9.9999999999999996 * p for p in powers]
    for n in rng.integers(10**14, 10**15, 20).tolist():
        values += [n + 0.5]                                       # exact ties
        values += [n // 10 + 0.25, n // 10 + 0.75]                # exact ties
        values += [(10 * n + 5) / 10**j for j in range(1, 23)]    # nearest to ties
    return values + [-v for v in values]


EDGE_VALUES = _edge_values()


def _percent_rows(table):
    row = ",".join(["%.14e"] * table.shape[1]) + "\n"
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode("ascii")


def test_formatter_matches_percent_on_edge_values():
    table = np.array(EDGE_VALUES + [0.0] * (-len(EDGE_VALUES) % 18)).reshape(-1, 18)
    assert _format_rows(table) == _percent_rows(table)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 18)),
              elements=st.one_of(st.floats(), st.floats(-1e15, 1e15),
                                 st.sampled_from(EDGE_VALUES))))
def test_formatter_matches_percent(table):
    assert _format_rows(table) == _percent_rows(table)
