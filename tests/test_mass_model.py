import itertools

import numpy as np
import pytest

from orthoglide_balance import InfeasiblePoseError, KinematicsError, MassParams, SolverError
from orthoglide_balance.geometry import inverse_kinematics
from orthoglide_balance.mass_model import (
    LumpedPointSet,
    com_of_pose,
    com_pose_jacobian,
    lumped_points,
)
from orthoglide_balance.planner import solve_com_waypoint

from conftest import make_geometry, make_masses, random_feasible_poses
from oracles import com_closed_form, com_from_points

HOME_RHO = np.array([0.31, 0.31, 0.31])
# Hand arithmetic for the home configuration with the reference masses:
# per axis (m1*0.155 + m2*0.41) / 2.837.
HOME_COM = (0.396 * 0.155 + 0.248 * 0.41) / 2.837
# Final benchmark pose evaluated by hand from the closed form (6 decimals).
P_F = np.array([-0.1, 0.07, -0.11])
COM_F = np.array([-0.015602, 0.099498, -0.021875])


class TestMassParams:
    def test_total_is_derived(self):
        mp = make_masses()
        assert mp.total == pytest.approx(2.837, abs=1e-12)

    def test_scaling(self):
        assert make_masses(scale=2.0).total == pytest.approx(2 * 2.837, abs=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(m1=-0.1, m2=0.2, m3=0.3),
        dict(m1=np.nan, m2=0.2, m3=0.3),
        dict(m1=0.0, m2=0.0, m3=0.0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            MassParams(**kw)


class TestLumpedPoints:
    def test_home_midpoints(self, geometry, masses):
        pts = lumped_points([0, 0, 0], HOME_RHO, geometry, masses)
        np.testing.assert_allclose(pts.positions[0], [0.155, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(pts.positions[3], [0.36, 0.0, 0.05], atol=1e-15)
        np.testing.assert_array_equal(pts.positions[6], [0.0, 0.0, 0.0])

    def test_masses_sum_to_total(self, geometry, masses):
        pts = lumped_points([0, 0, 0], HOME_RHO, geometry, masses)
        assert pts.masses.sum() == pytest.approx(2.837, abs=1e-12)
        np.testing.assert_array_equal(pts.masses,
                                      [0.396] * 3 + [0.248] * 3 + [0.905])

    def test_propagates_consistency_error(self, geometry, masses):
        with pytest.raises(ValueError):
            lumped_points([0, 0, 0], [0.5, 0.31, 0.31], geometry, masses)


class TestComFromPoints:
    def test_single_mass(self):
        pts = LumpedPointSet(
            positions=np.array([[1.0, 2.0, 3.0]] + [[9.0, 9.0, 9.0]] * 6),
            masses=np.array([2.5] + [0.0] * 6))
        np.testing.assert_array_equal(com_from_points(pts), [1.0, 2.0, 3.0])

    def test_symmetric_pair(self):
        r = np.array([0.3, -0.2, 0.1])
        pts = LumpedPointSet(
            positions=np.vstack([r, -r, np.zeros((5, 3))]),
            masses=np.array([1.0, 1.0, 0, 0, 0, 0, 0]))
        np.testing.assert_allclose(com_from_points(pts), [0, 0, 0], atol=1e-16)

    def test_zero_mass_rejected(self):
        pts = LumpedPointSet(positions=np.zeros((7, 3)), masses=np.zeros(7))
        with pytest.raises(ValueError):
            com_from_points(pts)

    def test_home_configuration(self, geometry, masses):
        pts = lumped_points([0, 0, 0], HOME_RHO, geometry, masses)
        np.testing.assert_allclose(com_from_points(pts), [HOME_COM] * 3, atol=1e-15)


class TestComClosedForm:
    def test_home(self, geometry, masses):
        S = com_closed_form([0, 0, 0], HOME_RHO, geometry, masses)
        np.testing.assert_allclose(S, [HOME_COM] * 3, atol=1e-15)

    def test_platform_only_limit(self):
        g = make_geometry(l=0.0)
        mp = MassParams(m1=0.0, m2=0.0, m3=1.3)
        p = np.array([0.02, -0.05, 0.1])
        S = com_closed_form(p, inverse_kinematics(p, g), g, mp)
        np.testing.assert_allclose(S, p, atol=1e-16)

    def test_input_links_only_limit(self):
        g = make_geometry(l=0.0)
        mp = MassParams(m1=0.0, m2=0.7, m3=0.0)
        p = np.array([0.02, -0.05, 0.1])
        rho = inverse_kinematics(p, g)
        S = com_closed_form(p, rho, g, mp)
        np.testing.assert_allclose(S, rho / 3.0, atol=1e-16)

    def test_matches_lumped_points(self, geometry, masses):
        for p in random_feasible_poses(200, seed=21):
            rho = inverse_kinematics(p, geometry)
            a = com_from_points(lumped_points(p, rho, geometry, masses))
            b = com_closed_form(p, rho, geometry, masses)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_affine_derivatives(self, geometry, masses):
        # The closed form is affine in (p, rho); central differences must
        # match the analytic coefficients essentially exactly.
        p = np.array([0.03, -0.06, 0.05])
        rho = inverse_kinematics(p, geometry)
        h = 1e-4
        e_x = np.array([h, 0.0, 0.0])
        d_rho = (com_closed_form(p, rho + e_x, geometry, masses)
                 - com_closed_form(p, rho - e_x, geometry, masses))[0] / (2 * h)
        d_p = (com_closed_form(p + e_x, rho, geometry, masses)
               - com_closed_form(p - e_x, rho, geometry, masses))[0] / (2 * h)
        assert d_rho == pytest.approx((0.396 / 2 + 0.248) / 2.837, abs=1e-10)
        assert d_p == pytest.approx((3 * 0.396 / 2 + 0.905) / 2.837, abs=1e-10)


class TestComOfPose:
    def test_home(self, geometry, masses):
        S = com_of_pose([0, 0, 0], geometry, masses)
        np.testing.assert_allclose(S, [HOME_COM] * 3, atol=1e-15)

    def test_reference_final_pose(self, geometry, masses):
        S = com_of_pose(P_F, geometry, masses)
        np.testing.assert_allclose(S, COM_F, rtol=0.0, atol=1e-6)

    def test_platform_only_limit(self):
        g = make_geometry(l=0.0)
        mp = MassParams(m1=0.0, m2=0.0, m3=2.0)
        p = np.array([0.02, -0.05, 0.1])
        np.testing.assert_allclose(com_of_pose(p, g, mp), p, atol=1e-16)

    def test_substitution_identity(self, geometry, masses):
        for p in random_feasible_poses(200, seed=22):
            a = com_of_pose(p, geometry, masses)
            b = com_closed_form(p, inverse_kinematics(p, geometry), geometry, masses)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_infeasible_pose_rejected(self, geometry, masses):
        with pytest.raises(InfeasiblePoseError):
            com_of_pose([0.0, 0.31, 0.01], geometry, masses)

    def test_com_inside_lumped_bounding_box(self, geometry, masses):
        for p in random_feasible_poses(100, seed=23):
            rho = inverse_kinematics(p, geometry)
            pts = lumped_points(p, rho, geometry, masses)
            S = com_of_pose(p, geometry, masses)
            assert np.all(S >= pts.positions.min(axis=0) - 1e-12)
            assert np.all(S <= pts.positions.max(axis=0) + 1e-12)


class TestComPoseJacobian:
    def test_matches_finite_differences(self, geometry, masses):
        h = 1e-6
        for p in random_feasible_poses(30, seed=24, box=0.4):
            J = com_pose_jacobian(p, geometry, masses)
            J_fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                J_fd[:, j] = (com_of_pose(p + e, geometry, masses)
                              - com_of_pose(p - e, geometry, masses)) / (2 * h)
            np.testing.assert_allclose(J, J_fd, rtol=0.0, atol=1e-7)

    def test_diagonal_value(self, geometry, masses):
        J = com_pose_jacobian([0.0, 0.0, 0.0], geometry, masses)
        expected = (2 * 0.396 + 0.248 + 0.905) / 2.837
        np.testing.assert_allclose(np.diag(J), expected, rtol=1e-14)
        # at the home pose the off-diagonal terms vanish (p = 0)
        np.testing.assert_allclose(J - np.diag(np.diag(J)), 0.0, atol=1e-16)


@pytest.mark.parametrize("s", list(itertools.product((-1, 1), repeat=3)))
def test_batched_kernels_equal_per_row_calls(s):
    g = make_geometry(s=s)
    mp = make_masses()
    seed = 50 + (s[0] + 1) * 2 + (s[1] + 1) + (s[2] + 1) // 2
    P = random_feasible_poses(40, seed=seed, box=0.6)
    rho = inverse_kinematics(P, g)
    pts = lumped_points(P, rho, g, mp)
    batched = {
        "inverse_kinematics": rho,
        "com_of_pose": com_of_pose(P, g, mp),
        "com_pose_jacobian": com_pose_jacobian(P, g, mp),
        "lumped_points": pts.positions,
    }
    per_row = {
        "inverse_kinematics": [inverse_kinematics(p, g) for p in P],
        "com_of_pose": [com_of_pose(p, g, mp) for p in P],
        "com_pose_jacobian": [com_pose_jacobian(p, g, mp) for p in P],
        "lumped_points": [lumped_points(p, r, g, mp).positions for p, r in zip(P, rho)],
    }
    for name, value in batched.items():
        assert np.array_equal(value, np.array(per_row[name])), name
    np.testing.assert_array_equal(pts.masses, lumped_points(P[0], rho[0], g, mp).masses)
    # the Newton solve: (pose, iterations, residual) per row
    S = batched["com_of_pose"]
    guess = P + np.random.default_rng(seed).uniform(-1e-3, 1e-3, P.shape)
    rows = [solve_com_waypoint(target, q, g, mp) for target, q in zip(S, guess)]
    for got, want in zip(solve_com_waypoint(S, guess, g, mp), zip(*rows)):
        assert np.array_equal(got, np.array(want))
    # leading dimensions beyond one batch axis
    assert np.array_equal(com_of_pose(P.reshape(4, 10, 3), g, mp),
                          batched["com_of_pose"].reshape(4, 10, 3))

    # one infeasible row raises, naming that row and its axis
    bad = P.copy()
    bad[17] = [0.0, 0.31, 0.01]
    for kernel in (lambda q: inverse_kinematics(q, g), lambda q: com_of_pose(q, g, mp),
                   lambda q: com_pose_jacobian(q, g, mp)):
        with pytest.raises(InfeasiblePoseError) as exc:
            kernel(bad)
        assert (exc.value.index, exc.value.axis) == (17, "x")
    with pytest.raises(InfeasiblePoseError) as exc:
        solve_com_waypoint(S, bad, g, mp)
    assert exc.value.index == 17
    # unreachable targets fail on their own rows; the lowest one is named
    far = S.copy()
    far[[29, 11]] = [1.0, 0.0, 0.0]
    with pytest.raises(SolverError) as exc:
        solve_com_waypoint(far, guess, g, mp)
    assert exc.value.index == 11
    # one inconsistent (p, rho) row raises
    rho_bad = rho.copy()
    rho_bad[23, 1] += 1e-3
    with pytest.raises(KinematicsError, match="pose 23: chain 2"):
        lumped_points(P, rho_bad, g, mp)
