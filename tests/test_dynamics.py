import numpy as np
import pytest

from orthoglide_balance import (
    MassParams,
    compare,
    evaluate,
    plan_com_line,
    plan_platform_line,
)
from orthoglide_balance.dynamics import (
    second_time_derivative,
    shaking_force_series,
    shaking_moment_series,
)
from orthoglide_balance.mass_model import com_of_pose
from orthoglide_balance.planner import Trajectory

from conftest import P_F, P_I, T_F, make_geometry, make_masses, make_request

BENCH_D = 0.115771          # COM displacement magnitude of the benchmark motion
BENCH_PEAK_FORCE = 1.314    # N, total mass * 4*|D|/t_f^2


class TestSecondTimeDerivative:
    def test_quadratic_is_exact(self):
        t = np.linspace(0.0, 1.0, 11)
        y = 3.0 * t**2 - 2.0 * t + 0.5
        acc = second_time_derivative(y, t[1] - t[0])
        np.testing.assert_allclose(acc, 6.0, rtol=1e-10)

    def test_vector_series(self):
        t = np.linspace(0.0, 2.0, 21)[:, None]
        y = np.hstack([t**2, -t**2, 0 * t])
        acc = second_time_derivative(y, 0.1)
        np.testing.assert_allclose(acc, np.tile([2.0, -2.0, 0.0], (21, 1)), atol=1e-9)

    def test_needs_five_samples(self):
        with pytest.raises(ValueError):
            second_time_derivative(np.zeros(4), 0.1)


class TestShakingForce:
    def test_constant_trajectory_zero_force(self, masses):
        req = make_request(p_f=P_I, dt=0.01)
        traj = plan_platform_line(req)
        series = shaking_force_series(traj, masses)
        assert np.abs(series.force).max() == 0.0

    def test_benchmark_peak(self, com_plan, masses):
        series = shaking_force_series(com_plan, masses)
        peak = np.linalg.norm(series.force, axis=1).max()
        assert peak == pytest.approx(BENCH_PEAK_FORCE, rel=0.01)

    def test_mass_scaling_on_fixed_path(self):
        # platform-line kinematics do not depend on the masses, so scaling
        # all masses exactly scales the force series
        req1 = make_request(dt=0.01)
        req2 = make_request(dt=0.01, masses=make_masses(scale=2.0))
        f1 = shaking_force_series(plan_platform_line(req1), make_masses())
        f2 = shaking_force_series(plan_platform_line(req2), make_masses(scale=2.0))
        np.testing.assert_array_equal(f2.force, 2.0 * f1.force)

    def test_nonuniform_grid_rejected(self):
        # the finite differences need equal steps; a Trajectory cannot hold
        # any other grid
        t = np.array([0.0, 0.1, 0.2, 0.25, 0.3, 0.4])
        arr = np.zeros((6, 3))
        with pytest.raises(ValueError, match="equal steps"):
            Trajectory(t=t, platform=arr, joints=arr, com=arr)

    def test_fd_matches_bangbang_plateau(self, com_plan, masses):
        series = shaking_force_series(com_plan, masses)
        mags = np.linalg.norm(series.force, axis=1) / masses.total
        dt = com_plan.t[1] - com_plan.t[0]
        mask = np.abs(com_plan.t - 0.5) > 2 * dt
        np.testing.assert_allclose(mags[mask], 4.0 * BENCH_D, rtol=0.01)


class TestShakingMoment:
    def test_constant_trajectory_zero_moment(self, geometry, masses):
        req = make_request(p_f=P_I, dt=0.01)
        series = shaking_moment_series(plan_platform_line(req), geometry, masses)
        assert np.abs(series.moment).max() == 0.0

    def test_single_mass_through_origin_zero_moment(self):
        # only the platform mass, moving on a line through the origin:
        # r and a stay parallel so every moment contribution vanishes
        g = make_geometry()
        mp = MassParams(m1=0.0, m2=0.0, m3=1.1)
        req = make_request(p_i=(0, 0, 0), p_f=(-0.05, 0.04, 0.06),
                           dt=0.01, masses=mp)
        series = shaking_moment_series(plan_platform_line(req), g, mp)
        assert np.abs(series.moment).max() < 1e-12

    def test_lumped_force_sum_matches_com_force(self, com_plan, geometry, masses):
        # the moment model and the force model share the mass bookkeeping
        from orthoglide_balance.mass_model import lumped_points

        dt = com_plan.dt
        n = len(com_plan)
        positions = np.empty((n, 7, 3))
        for k in range(n):
            positions[k] = lumped_points(com_plan.platform[k], com_plan.joints[k],
                                         geometry, masses).positions
        m = lumped_points(com_plan.platform[0], com_plan.joints[0],
                          geometry, masses).masses
        accels = second_time_derivative(positions, dt)
        total = np.einsum("k,nkj->nj", m, accels)
        com_force = shaking_force_series(com_plan, masses).force
        np.testing.assert_allclose(total, com_force, rtol=0.0, atol=1e-8)

    def test_balanced_moment_lower_on_benchmark(self, platform_plan, com_plan,
                                                geometry, masses):
        m_u = shaking_moment_series(platform_plan, geometry, masses)
        m_b = shaking_moment_series(com_plan, geometry, masses)
        peak_u = np.linalg.norm(m_u.moment, axis=1).max()
        peak_b = np.linalg.norm(m_b.moment, axis=1).max()
        assert peak_b < peak_u


class TestGridConvergence:
    def test_com_mode(self, com_plan, com_plan_half_dt, masses):
        p1 = np.linalg.norm(shaking_force_series(com_plan, masses).force, axis=1).max()
        p2 = np.linalg.norm(shaking_force_series(com_plan_half_dt, masses).force, axis=1).max()
        assert abs(p2 - p1) / p1 < 0.005

    @pytest.mark.parametrize("dt", [1e-3, 1e-4, 1e-5])
    def test_com_peak_force_refines_to_analytic(self, dt, geometry, masses):
        # the FD peak force of the COM line stays on M*4|D|/t_f^2 as the
        # grid is refined, rather than drifting with the solver residual
        traj = plan_com_line(make_request(dt=dt))
        peak = np.linalg.norm(shaking_force_series(traj, masses).force, axis=1).max()
        D = com_of_pose(P_F, geometry, masses) - com_of_pose(P_I, geometry, masses)
        assert peak == pytest.approx(masses.total * 4.0 * np.linalg.norm(D) / T_F**2, rel=1e-5)

    def test_platform_mode(self, platform_plan, platform_plan_half_dt, masses):
        p1 = np.linalg.norm(shaking_force_series(platform_plan, masses).force, axis=1).max()
        p2 = np.linalg.norm(shaking_force_series(platform_plan_half_dt, masses).force, axis=1).max()
        assert abs(p2 - p1) / p1 < 0.005


class TestAnalyticCrossCheck:
    def test_com_accel_decomposition(self, platform_plan, masses):
        # total_mass * S'' = (m1/2 + m2) * rho'' + (3*m1/2 + m3) * p''
        dt = platform_plan.t[1] - platform_plan.t[0]
        acc_com = second_time_derivative(platform_plan.com, dt)
        acc_rho = second_time_derivative(platform_plan.joints, dt)
        acc_p = second_time_derivative(platform_plan.platform, dt)
        lhs = masses.total * acc_com
        rhs = (masses.m1 / 2 + masses.m2) * acc_rho + (3 * masses.m1 / 2 + masses.m3) * acc_p
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-8)


class TestSummaries:
    def test_peaks_dominate_rms(self, com_plan, geometry, masses):
        _, _, summary = evaluate(com_plan, geometry, masses)
        assert summary.peak_force >= summary.rms_force >= 0.0
        assert summary.peak_moment >= summary.rms_moment >= 0.0

    def test_peak_times_on_grid(self, com_plan, geometry, masses):
        _, _, summary = evaluate(com_plan, geometry, masses)
        assert summary.t_peak_force in com_plan.t
        assert summary.t_peak_moment in com_plan.t


class TestCompare:
    def test_identical_trajectories(self, com_plan, geometry, masses):
        _, _, summary = evaluate(com_plan, geometry, masses)
        report = compare(summary, summary)
        assert report.force_reduction_pct == 0.0
        assert report.moment_reduction_pct == 0.0

    def test_benchmark_reduction_band(self, platform_plan, com_plan, geometry, masses):
        report = compare(evaluate(platform_plan, geometry, masses)[2],
                         evaluate(com_plan, geometry, masses)[2])
        assert 25.0 <= report.force_reduction_pct <= 40.0
        assert report.moment_reduction_pct > 0.0

    @pytest.mark.parametrize("dt", [1e-3, 1e-4])
    def test_noise_floor_reduction_undefined(self, geometry, dt):
        # m1 = m2 = 0 on a line through the origin: r x a vanishes, so both
        # moment peaks are roundoff below the unbalanced plan's floor.
        mp = MassParams(m1=0.0, m2=0.0, m3=0.905)
        unbalanced = evaluate(plan_platform_line(
            make_request(dt=dt, masses=mp)), geometry, mp)[2]
        balanced = evaluate(plan_com_line(
            make_request(dt=dt, masses=mp)), geometry, mp)[2]
        assert 0.0 < unbalanced.peak_moment < unbalanced.moment_floor
        report = compare(unbalanced, balanced)
        assert report.moment_reduction_pct is None
        assert report.force_reduction_pct == pytest.approx(30.72, abs=0.05)

    def test_floors_far_below_benchmark_peaks(self, platform_plan, geometry, masses):
        summary = evaluate(platform_plan, geometry, masses)[2]
        assert summary.force_floor < 1e-6 * summary.peak_force
        assert summary.moment_floor < 1e-6 * summary.peak_moment

    def test_zero_motion_zero_reduction(self, geometry, masses):
        req = make_request(p_f=P_I, dt=0.01)
        req2 = make_request(p_f=P_I, dt=0.01)
        report = compare(evaluate(plan_platform_line(req), geometry, masses)[2],
                         evaluate(plan_com_line(req2), geometry, masses)[2])
        assert report.force_reduction_pct == 0.0
        assert report.moment_reduction_pct == 0.0
