import numpy as np
import pytest

from orthoglide_balance import (
    MODE_COM_LINE,
    MODE_PLATFORM_LINE,
    ConfigError,
    InfeasiblePoseError,
    PlanningError,
    PlanRequest,
    SolverError,
    plan_com_line,
    plan_platform_line,
)
from orthoglide_balance.geometry import inverse_kinematics, radicands
from orthoglide_balance.mass_model import com_of_pose
from orthoglide_balance.planner import Trajectory, solve_com_waypoint, time_grid
from orthoglide_balance.profiles import quintic_scalar

from conftest import (
    P_F,
    P_I,
    UNREACHABLE_P_F,
    UNREACHABLE_P_I,
    make_geometry,
    make_request,
    random_feasible_poses,
)

RHO_F = np.array([0.1812472, 0.3420294, 0.1749561])


class TestPlanRequest:
    def test_valid(self):
        req = make_request()
        np.testing.assert_array_equal(req.p_f, P_F)
        assert req.p_f.dtype == float

    def test_dt_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            make_request(dt=0.5)

    def test_dt_boundary_accepted(self):
        make_request(dt=0.01)  # exactly 100 samples

    def test_step_count_bound(self):
        # checked from t_f/dt alone: no grid is allocated
        assert PlanRequest.violations(P_I, P_F, 1.0, 1e-6, make_geometry()) == []
        v = PlanRequest.violations(P_I, P_F, 1.0, 1.0 / (1e6 + 1), make_geometry())
        assert v == [f"dt must be at least t_f/1e+06 (at most 1e+06 steps), "
                     f"got dt = {1.0 / (1e6 + 1)} for t_f = 1.0"]

    @pytest.mark.parametrize("dt", [0.0, -0.001, np.nan])
    def test_bad_dt(self, dt):
        with pytest.raises(ValueError):
            make_request(dt=dt)

    def test_infeasible_endpoint(self):
        with pytest.raises(ConfigError, match="p_f = .* outside the workspace"):
            make_request(p_f=(0.0, 0.4, 0.0))

    @pytest.mark.parametrize("t_f,dt", [(1.0, 0.0015), (1.0, 0.003), (0.7, 0.0015),
                                        (1e-9, 1.5e-12)])
    def test_off_grid_dt_rejected(self, t_f, dt):
        with pytest.raises(ConfigError, match="equal steps"):
            make_request(t_f=t_f, dt=dt)

    def test_violations_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            make_request(p_i=(0.0, 0.0), p_f=(0.0, 0.4, 0.0), dt=0.5)
        assert len(exc.value.violations) == 3


class TestTimeGrid:
    def test_integer_ratio(self):
        t = time_grid(1.0, 0.001)
        assert len(t) == 1001
        assert t[0] == 0.0 and t[-1] == 1.0
        np.testing.assert_allclose(np.diff(t), 0.001, rtol=1e-9)

    def test_grid_rule_matches_trajectory(self):
        # PlanRequest accepts (t_f, dt) exactly when a Trajectory accepts the
        # full grid, whose samples are then k*dt up to the pinned t_f
        rng = np.random.default_rng(41)
        for t_f in rng.uniform(0.5, 2.0, 100):
            n = rng.integers(100, 2000)
            for dt in (1e-3, 1.5e-3, t_f / n, t_f / n * (1 + 1e-9), t_f / n * (1 - 1e-7),
                       t_f / n * (1 + 1e-5), t_f / (n + 0.5)):
                t = time_grid(t_f, dt)
                arr = np.zeros((len(t), 3))
                try:
                    Trajectory(t=t, platform=arr, joints=arr, com=arr)
                    grid_ok = True
                except ValueError:
                    grid_ok = False
                v = PlanRequest.violations(P_I, P_F, t_f, dt, make_geometry())
                assert (v == []) == grid_ok, (t_f, dt, v)
                assert t[-1] == t_f
                np.testing.assert_array_equal(t[:-1], dt * np.arange(len(t) - 1))

    def test_exact_two_samples_not_duplicated(self):
        t = time_grid(1.0, 0.01)
        assert len(t) == 101
        assert len(np.unique(t)) == len(t)


class TestPlanPlatformLine:
    def test_first_sample(self, platform_plan, geometry):
        assert platform_plan.t[0] == 0.0
        np.testing.assert_array_equal(platform_plan.platform[0], P_I)
        np.testing.assert_array_equal(platform_plan.joints[0],
                                      inverse_kinematics(P_I, geometry))

    def test_final_joint_displacements(self, platform_plan):
        assert platform_plan.t[-1] == 1.0
        np.testing.assert_array_equal(platform_plan.platform[-1], P_F)
        np.testing.assert_allclose(platform_plan.joints[-1], RHO_F, atol=1e-6)

    def test_platform_path_is_straight(self, platform_plan):
        rel = platform_plan.platform - np.asarray(P_I)
        d = np.asarray(P_F) - np.asarray(P_I)
        u = d / np.linalg.norm(d)
        transverse = rel - np.outer(rel @ u, u)
        assert np.linalg.norm(transverse, axis=1).max() < 1e-12

    def test_constant_when_endpoints_coincide(self):
        req = make_request(p_f=P_I, dt=0.01)
        traj = plan_platform_line(req)
        np.testing.assert_array_equal(traj.platform, np.tile(P_I, (len(traj), 1)))
        assert np.abs(np.diff(traj.com, axis=0)).max() == 0.0

    def test_infeasible_sample_names_time(self):
        # an endpoint outside the workspace, past PlanRequest's check: the
        # error names the first sample whose pose is infeasible
        req = make_request(dt=0.01)
        object.__setattr__(req, "p_f", np.array([0.0, 0.62, 0.0]))
        with pytest.raises(PlanningError) as exc:
            plan_platform_line(req)
        t = time_grid(req.t_f, req.dt)
        platform = np.multiply.outer(quintic_scalar(t, req.t_f)[0], req.p_f)
        first = t[np.argmax(np.any(radicands(platform, req.geometry) < 0, axis=1))]
        assert exc.value.mode == MODE_PLATFORM_LINE
        assert exc.value.t == first
        assert f"t = {first:.6g} s" in str(exc.value)

    def test_per_sample_consistency(self, platform_plan, geometry, masses):
        for k in range(0, len(platform_plan), 97):
            np.testing.assert_allclose(
                platform_plan.joints[k],
                inverse_kinematics(platform_plan.platform[k], geometry), atol=1e-9)
            np.testing.assert_allclose(
                platform_plan.com[k],
                com_of_pose(platform_plan.platform[k], geometry, masses), atol=1e-9)


class TestSolveComWaypoint:
    def test_home_fixed_point(self, geometry, masses):
        S = com_of_pose([0.0, 0.0, 0.0], geometry, masses)
        p, _, _ = solve_com_waypoint(S, [0.003, -0.002, 0.001], geometry, masses)
        np.testing.assert_allclose(p, [0.0, 0.0, 0.0], atol=1e-9)

    def test_self_inversion(self, geometry, masses):
        rng = np.random.default_rng(31)
        for p in random_feasible_poses(200, seed=31):
            S = com_of_pose(p, geometry, masses)
            guess = p + rng.uniform(-1e-3, 1e-3, 3)
            sol, iters, res = solve_com_waypoint(S, guess, geometry, masses)
            assert res <= 1e-10
            assert iters <= 10
            np.testing.assert_allclose(sol, p, atol=1e-9)

    def test_exact_guess_is_fixed_point(self, geometry, masses):
        p = np.array([0.02, 0.05, -0.04])
        S = com_of_pose(p, geometry, masses)
        sol, iters, res = solve_com_waypoint(S, p, geometry, masses)
        assert iters == 0
        np.testing.assert_array_equal(sol, p)

    def test_unreachable_target_errors(self, geometry, masses):
        with pytest.raises(SolverError):
            solve_com_waypoint([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], geometry, masses)

    def test_boundary_guess_errors(self, geometry, masses):
        S = com_of_pose([0.0, 0.2, 0.0], geometry, masses)
        with pytest.raises(SolverError, match="boundary"):
            solve_com_waypoint(S, [0.0, 0.31, 0.0], geometry, masses)

    def test_infeasible_guess_rejected(self, geometry, masses):
        with pytest.raises(InfeasiblePoseError):
            solve_com_waypoint([0.05, 0.05, 0.05], [0.0, 0.35, 0.0], geometry, masses)


class TestPlanComLine:
    def test_endpoints_exact(self, com_plan):
        np.testing.assert_array_equal(com_plan.platform[0], P_I)
        np.testing.assert_array_equal(com_plan.platform[-1], P_F)
        assert com_plan.t[0] == 0.0 and com_plan.t[-1] == 1.0

    def test_midpoint_commands_average_com(self, com_plan, geometry, masses):
        S_i = com_of_pose(P_I, geometry, masses)
        S_f = com_of_pose(P_F, geometry, masses)
        k = np.searchsorted(com_plan.t, 0.5)
        assert com_plan.t[k] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(com_plan.com[k], 0.5 * (S_i + S_f), atol=1e-10)

    def test_com_path_is_straight(self, com_plan, geometry, masses):
        S_i = com_of_pose(P_I, geometry, masses)
        S_f = com_of_pose(P_F, geometry, masses)
        rel = com_plan.com - S_i
        u = (S_f - S_i) / np.linalg.norm(S_f - S_i)
        transverse = rel - np.outer(rel @ u, u)
        assert np.linalg.norm(transverse, axis=1).max() < 1e-8

    def test_per_sample_consistency(self, com_plan, geometry, masses):
        for k in range(0, len(com_plan), 89):
            np.testing.assert_allclose(
                com_plan.joints[k],
                inverse_kinematics(com_plan.platform[k], geometry), atol=1e-9)
            np.testing.assert_allclose(
                com_plan.com[k],
                com_of_pose(com_plan.platform[k], geometry, masses), atol=1e-9)

    def test_com_acceleration_law(self, com_plan, geometry, masses):
        # second differences of the COM must sit on the bang-bang plateau
        # away from the switch instant
        S_i = com_of_pose(P_I, geometry, masses)
        S_f = com_of_pose(P_F, geometry, masses)
        target = 4.0 * np.linalg.norm(S_f - S_i)
        dt = com_plan.t[1] - com_plan.t[0]
        acc = (com_plan.com[2:] - 2 * com_plan.com[1:-1] + com_plan.com[:-2]) / dt**2
        t_mid = com_plan.t[1:-1]
        mask = np.abs(t_mid - 0.5) > 2 * dt
        mags = np.linalg.norm(acc, axis=1)[mask]
        np.testing.assert_allclose(mags, target, rtol=0.01)

    def test_endpoint_rest(self, com_plan, platform_plan):
        for traj in (com_plan, platform_plan):
            dt = traj.t[1] - traj.t[0]
            for idx, sgn in ((slice(0, 3), 1.0), (slice(-3, None), -1.0)):
                y = traj.com[idx]
                v = sgn * (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2 * dt)
                assert np.linalg.norm(v) < 1e-3

    @pytest.mark.parametrize("dt", [0.01, 0.001])  # coarsest allowed and default
    def test_warm_start_iteration_budget(self, dt, geometry, masses):
        traj = plan_com_line(make_request(dt=dt))
        S_i = com_of_pose(P_I, geometry, masses)
        S_f = com_of_pose(P_F, geometry, masses)
        D = S_f - S_i
        worst = 0
        for k in range(1, len(traj) - 1, 7 if dt == 0.001 else 1):
            tau = traj.t[k]
            sigma = 2 * tau**2 if tau < 0.5 else -1 + 4 * tau - 2 * tau**2
            _, iters, _ = solve_com_waypoint(S_i + sigma * D, traj.platform[k - 1],
                                             geometry, masses)
            worst = max(worst, iters)
        assert worst <= 10

    def test_boundary_endpoint_plans_both_ways(self):
        # an endpoint on the workspace boundary plans in either direction,
        # and the two platform paths are one another reversed
        edge, home = (0.0, 0.31, 0.0), (0.0, 0.0, 0.0)
        out = plan_com_line(make_request(p_i=edge, p_f=home))
        back = plan_com_line(make_request(p_i=home, p_f=edge))
        assert np.abs(out.platform - back.platform[::-1]).max() <= 1e-12

    def test_unreachable_line_names_first_failing_time(self):
        # a straight COM line that leaves the reachable set part way: the
        # error names the earliest sample that cannot be inverted
        req = make_request(p_i=UNREACHABLE_P_I, p_f=UNREACHABLE_P_F,
                           geometry=make_geometry(s=(1, 1, -1)))
        with pytest.raises(PlanningError) as exc:
            plan_com_line(req)
        assert exc.value.mode == MODE_COM_LINE
        assert exc.value.t == pytest.approx(0.626)


class TestTrajectoryType:
    def test_needs_increasing_time(self):
        t = np.array([0.0, 0.1, 0.1])
        arr = np.zeros((3, 3))
        with pytest.raises(ValueError):
            Trajectory(t=t, platform=arr, joints=arr, com=arr)

    def test_decreasing_grid_rejected(self):
        t = np.linspace(1.0, 0.0, 5)
        arr = np.zeros((5, 3))
        with pytest.raises(ValueError, match="equal steps"):
            Trajectory(t=t, platform=arr, joints=arr, com=arr)

    def test_dt_is_grid_span_over_steps(self, com_plan):
        assert com_plan.dt == (com_plan.t[-1] - com_plan.t[0]) / (len(com_plan) - 1)

    def test_shape_checked(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            Trajectory(t=t, platform=np.zeros((4, 3)),
                       joints=np.zeros((5, 3)), com=np.zeros((5, 3)))

    def test_len(self, com_plan):
        assert len(com_plan) == 1001
