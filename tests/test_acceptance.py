"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured value (run with -s or -v to see them)."""

import math

import numpy as np
import pytest

from orthoglide_balance import (
    compare,
    default_config,
    evaluate,
    plan_com_line,
    run_scenario,
)
from orthoglide_balance.dynamics import second_time_derivative, shaking_force_series
from orthoglide_balance.geometry import inverse_kinematics
from orthoglide_balance.mass_model import com_of_pose, lumped_points
from orthoglide_balance.planner import solve_com_waypoint
from orthoglide_balance.profiles import bang_bang_scalar, quintic_scalar

from conftest import P_F, P_I, make_request, random_feasible_poses
from oracles import com_closed_form, com_from_points, forward_kinematics


def _report(number, name, detail=""):
    print(f"criterion {number:02d} ({name}): PASS {detail}")


def test_c01_ik_regression(geometry):
    rho = inverse_kinematics([-0.1, 0.07, -0.11], geometry)
    np.testing.assert_allclose(rho, [0.1812472, 0.3420294, 0.1749561],
                               rtol=0.0, atol=1e-6)
    home = inverse_kinematics([0.0, 0.0, 0.0], geometry)
    assert np.array_equal(home, np.array([0.31, 0.31, 0.31]))
    _report(1, "ik regression", f"rho_f = {rho}")


def test_c02_kinematic_round_trip(geometry):
    rng = np.random.default_rng(101)
    worst = 0.0
    for p in random_feasible_poses(1000, seed=101):
        rho = inverse_kinematics(p, geometry)
        p_back = forward_kinematics(rho, geometry, guess=p + rng.normal(0.0, 1e-3, 3))
        worst = max(worst, float(np.abs(p_back - p).max()))
    assert worst <= 1e-9
    _report(2, "kinematic round trip", f"worst error = {worst:.3e} m over 1000 poses")


def test_c03_com_model_equivalence(geometry, masses):
    worst = 0.0
    for p in random_feasible_poses(1000, seed=102):
        rho = inverse_kinematics(p, geometry)
        via_points = com_from_points(lumped_points(p, rho, geometry, masses))
        via_closed_form = com_closed_form(p, rho, geometry, masses)
        via_pose = com_of_pose(p, geometry, masses)
        worst = max(worst,
                    float(np.abs(via_points - via_closed_form).max()),
                    float(np.abs(via_closed_form - via_pose).max()))
    assert worst <= 1e-12
    _report(3, "com model equivalence", f"worst route mismatch = {worst:.3e} m")


def _peak_law_accelerations(t_f):
    # grid maxima of |sigma''| of the bang-bang and the quintic law
    t = np.linspace(0.0, t_f, 100_000)
    return (float(np.abs(bang_bang_scalar(t, t_f)[2]).max()),
            float(np.abs(quintic_scalar(t, t_f)[2]).max()))


def test_c04_profile_constants():
    t_f = 0.7
    bb, qu = _peak_law_accelerations(t_f)
    assert bb == 4.0 / t_f**2
    assert qu == pytest.approx(10.0 / (math.sqrt(3.0) * t_f**2), rel=1e-4)
    _report(4, "profile constants",
            f"grid peaks {bb:.6f} / {qu:.6f} 1/s^2: 4/t_f^2 exactly, "
            "10/(sqrt(3)*t_f^2) within 0.01%")


def test_c05_analytic_reduction():
    bb, qu = _peak_law_accelerations(1.0)
    reduction = (1.0 - bb / qu) * 100.0
    assert reduction == pytest.approx(30.72, abs=0.05)
    _report(5, "analytic bang-bang vs quintic reduction", f"{reduction:.4f} %")


def test_c06_com_plan_fidelity(com_plan, geometry, masses):
    S_i = com_of_pose(P_I, geometry, masses)
    S_f = com_of_pose(P_F, geometry, masses)
    disp = float(np.linalg.norm(S_f - S_i))
    assert disp == pytest.approx(0.115771, abs=1e-6)

    rel = com_plan.com - S_i
    u = (S_f - S_i) / disp
    transverse = float(np.linalg.norm(rel - np.outer(rel @ u, u), axis=1).max())
    assert transverse <= 1e-8

    dt = float(com_plan.t[1] - com_plan.t[0])
    accel = second_time_derivative(com_plan.com, dt)
    mags = np.linalg.norm(accel, axis=1)
    away = np.abs(com_plan.t - 0.5) > 2 * dt
    np.testing.assert_allclose(mags[away], 4.0 * disp, rtol=0.01)

    peak_force = float(np.linalg.norm(
        shaking_force_series(com_plan, masses).force, axis=1).max())
    assert peak_force == pytest.approx(1.314, rel=0.01)
    _report(6, "com-line planning fidelity",
            f"|D| = {disp:.6f} m, transverse = {transverse:.2e} m, "
            f"peak |Fsh| = {peak_force:.4f} N")


def test_c07_end_to_end_comparison(platform_plan, com_plan, geometry, masses):
    report = compare(evaluate(platform_plan, geometry, masses)[2],
                     evaluate(com_plan, geometry, masses)[2])
    assert 25.0 <= report.force_reduction_pct <= 40.0
    assert report.moment_reduction_pct > 0.0
    _report(7, "end-to-end comparison",
            f"force reduction = {report.force_reduction_pct:.2f} %, "
            f"moment reduction = {report.moment_reduction_pct:.2f} % "
            "(moment figure reported, not asserted against a target)")


def test_c08_solver_robustness(geometry, masses):
    rng = np.random.default_rng(103)
    worst_iters, worst_res = 0, 0.0
    for p in random_feasible_poses(1000, seed=103):
        target = com_of_pose(p, geometry, masses)
        guess = p + rng.uniform(-1.0, 1.0, 3) * 1e-3
        _, iters, res = solve_com_waypoint(target, guess, geometry, masses)
        worst_iters = max(worst_iters, iters)
        worst_res = max(worst_res, res)
    assert worst_res <= 1e-10
    assert worst_iters <= 10
    _report(8, "solver robustness",
            f"max iterations = {worst_iters}, max residual = {worst_res:.2e} m")


def test_c09_grid_convergence(com_plan, com_plan_half_dt, masses):
    peak = float(np.linalg.norm(
        shaking_force_series(com_plan, masses).force, axis=1).max())
    peak_half = float(np.linalg.norm(
        shaking_force_series(com_plan_half_dt, masses).force, axis=1).max())
    change = abs(peak_half - peak) / peak
    assert change < 0.005
    _report(9, "grid convergence", f"peak change on dt/2 = {change:.2e}")


def test_c10_determinism(tmp_path):
    cfg = default_config()
    summary = run_scenario(cfg, out_dir=tmp_path / "run1")
    run_scenario(cfg, out_dir=tmp_path / "run2")
    for name in ("platform_line_quintic.csv", "com_line_bangbang.csv"):
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second
    # the shipped default, run end to end, also lands in the reduction band
    assert 25.0 <= summary["force_reduction_pct"] <= 40.0
    _report(10, "determinism", "both mode CSVs byte-identical across runs")


def test_planning_runtime_budget():
    # criterion 6 carries a < 5 s budget for the benchmark com-line plan
    import time

    start = time.perf_counter()
    plan_com_line(make_request())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, "runtime budget", f"com-line plan in {elapsed:.2f} s")
