import numpy as np
import pytest

from orthoglide_balance import (
    GeometryParams,
    InfeasiblePoseError,
    KinematicsError,
    SolverError,
)
from orthoglide_balance.geometry import inverse_kinematics, is_feasible, joint_points, radicands

from conftest import make_geometry, random_feasible_poses
from oracles import forward_kinematics

# Benchmark final pose and its joint displacements (hand arithmetic:
# rho = p + sqrt of L^2 minus the squared off-axis distances).
P_F = np.array([-0.1, 0.07, -0.11])
RHO_F = np.array([0.1812472, 0.3420294, 0.1749561])


class TestGeometryParams:
    def test_valid(self):
        g = GeometryParams(L=0.31, l=0.1, s=(1, -1, 1))
        assert g.s == (1, -1, 1)

    @pytest.mark.parametrize("kw", [
        dict(L=0.0), dict(L=-1.0), dict(L=np.nan),
        dict(L=0.31, l=-0.01),
        dict(L=0.31, s=(0, 1, 1)),
        dict(L=0.31, s=(1, 1)),
        dict(L=0.31, s=(2, 1, 1)),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            GeometryParams(**kw)


class TestInverseKinematics:
    def test_home_pose_exact(self, geometry):
        rho = inverse_kinematics([0.0, 0.0, 0.0], geometry)
        assert np.array_equal(rho, [0.31, 0.31, 0.31])

    def test_reference_final_pose(self, geometry):
        rho = inverse_kinematics(P_F, geometry)
        np.testing.assert_allclose(rho, RHO_F, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("L", [0.2, 0.31, 1.0, 2.5])
    def test_home_is_symmetric(self, L):
        g = make_geometry(L=L)
        rho = inverse_kinematics([0.0, 0.0, 0.0], g)
        np.testing.assert_array_equal(rho, [L, L, L])

    def test_negative_branch(self):
        g = make_geometry(s=(-1, -1, -1))
        rho = inverse_kinematics([0.0, 0.0, 0.0], g)
        np.testing.assert_array_equal(rho, [-0.31, -0.31, -0.31])

    def test_infeasible_pose_names_axis(self, geometry):
        with pytest.raises(InfeasiblePoseError) as exc:
            inverse_kinematics([0.0, 0.31, 0.01], geometry)
        assert exc.value.axis == "x"
        assert "x-axis" in str(exc.value)

    def test_branch_consistency(self):
        g = make_geometry(s=(1, -1, 1))
        for p in random_feasible_poses(100, seed=7):
            rho = inverse_kinematics(p, g)
            assert np.all(np.sign(rho - p) == np.asarray(g.s))

    def test_continuity(self, geometry):
        # Lipschitz-style bound well inside the workspace.
        rng = np.random.default_rng(3)
        for p in random_feasible_poses(50, seed=11, box=0.4):
            d = rng.normal(0.0, 1e-7, 3)
            step = np.abs(inverse_kinematics(p + d, geometry) - inverse_kinematics(p, geometry))
            assert np.all(step < 100 * np.abs(d).sum() + 1e-12)


class TestFeasibility:
    def test_home(self, geometry):
        assert is_feasible([0, 0, 0], geometry) is True
        assert radicands([0, 0, 0], geometry).min() > 0

    def test_outside(self, geometry):
        assert is_feasible([0.0, 0.31, 0.01], geometry) is False
        assert radicands([0.0, 0.31, 0.01], geometry)[0] < 0

    def test_reference_pose_radicands(self, geometry):
        assert is_feasible(P_F, geometry)
        np.testing.assert_allclose(radicands(P_F, geometry), [0.0791, 0.074, 0.0812],
                                   rtol=0.0, atol=1e-15)

    def test_boundary_flag(self, geometry):
        # a vanishing radicand is feasible, and IK is still defined there
        assert is_feasible([0.0, 0.31, 0.0], geometry)
        assert radicands([0.0, 0.31, 0.0], geometry).min() == 0.0
        rho = inverse_kinematics([0.0, 0.31, 0.0], geometry)
        np.testing.assert_allclose(rho, [0.0, 0.62, 0.0], atol=1e-15)

    def test_radicands_formula(self, geometry):
        p = np.array([0.05, -0.1, 0.02])
        expected = [
            0.31**2 - p[1]**2 - p[2]**2,
            0.31**2 - p[0]**2 - p[2]**2,
            0.31**2 - p[0]**2 - p[1]**2,
        ]
        np.testing.assert_allclose(radicands(p, geometry), expected, rtol=1e-15)


class TestForwardKinematics:
    def test_home(self, geometry):
        p = forward_kinematics([0.31, 0.31, 0.31], geometry, guess=[0.01, -0.01, 0.02])
        np.testing.assert_allclose(p, [0.0, 0.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("L", [0.2, 0.31, 1.7])
    def test_symmetric_home_any_length(self, L):
        g = make_geometry(L=L)
        p = forward_kinematics([L, L, L], g, guess=[0.01, 0.0, -0.01])
        np.testing.assert_allclose(p, [0.0, 0.0, 0.0], atol=1e-10)

    def test_reference_pose_round_trip(self, geometry):
        p = forward_kinematics(RHO_F, geometry, guess=[-0.09, 0.06, -0.1])
        np.testing.assert_allclose(p, P_F, atol=1e-6)
        rho_back = inverse_kinematics(p, geometry)
        np.testing.assert_allclose(rho_back, RHO_F, atol=1e-10)

    def test_round_trip_property(self, geometry):
        rng = np.random.default_rng(5)
        for p in random_feasible_poses(300, seed=5):
            rho = inverse_kinematics(p, geometry)
            p_back = forward_kinematics(rho, geometry, guess=p + rng.normal(0, 1e-3, 3))
            np.testing.assert_allclose(p_back, p, rtol=0.0, atol=1e-9)

    def test_exact_guess_returns_immediately(self, geometry):
        rho = inverse_kinematics(P_F, geometry)
        p = forward_kinematics(rho, geometry, guess=P_F)
        np.testing.assert_array_equal(p, P_F)

    def test_wrong_branch_rejected(self):
        g_pos = make_geometry(s=(1, 1, 1))
        g_neg = make_geometry(s=(-1, -1, -1))
        rho = inverse_kinematics([0.05, -0.02, 0.04], g_pos)
        with pytest.raises(SolverError):
            forward_kinematics(rho, g_neg, guess=[0.05, -0.02, 0.04])

    def test_clearly_inconsistent_spheres_rejected(self, geometry):
        # Slider points farther apart than 2L cannot intersect.
        with pytest.raises(KinematicsError):
            forward_kinematics([1.0, -1.0, 0.5], geometry, guess=[0.0, 0.0, 0.0])

    def test_subtly_unsolvable_spheres_fail_in_newton(self, geometry):
        # Pairwise reachable, but the three spheres share no common point.
        with pytest.raises(SolverError) as exc:
            forward_kinematics([0.42, 0.42, 0.42], geometry, guess=[0.05, 0.05, 0.05])
        assert exc.value.residual is not None


class TestJointPoints:
    def test_reference_table(self, geometry):
        pts = joint_points([0.0, 0.0, 0.0], [0.31, 0.31, 0.31], geometry)
        np.testing.assert_allclose(pts.A[0], [0.41, 0.0, 0.1], atol=1e-15)
        np.testing.assert_allclose(pts.A[1], [0.1, 0.41, 0.0], atol=1e-15)
        np.testing.assert_allclose(pts.A[2], [0.0, 0.1, 0.41], atol=1e-15)
        np.testing.assert_allclose(pts.B[0], [0.31, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(pts.B[1], [0.0, 0.31, 0.0], atol=1e-15)
        np.testing.assert_allclose(pts.B[2], [0.0, 0.0, 0.31], atol=1e-15)
        np.testing.assert_array_equal(pts.C, np.zeros((3, 3)))

    def test_platform_points_coincide(self, geometry):
        p = np.array([-0.05, 0.08, 0.02])
        pts = joint_points(p, inverse_kinematics(p, geometry), geometry)
        for i in range(3):
            np.testing.assert_array_equal(pts.C[i], p)

    def test_zero_offset_collapses_a_onto_b(self):
        g = make_geometry(l=0.0)
        pts = joint_points([0.0, 0.0, 0.0], [g.L, g.L, g.L], g)
        np.testing.assert_array_equal(pts.A, pts.B)

    def test_leg_length_invariant(self, geometry):
        for p in random_feasible_poses(200, seed=13):
            pts = joint_points(p, inverse_kinematics(p, geometry), geometry)
            legs = np.linalg.norm(pts.B - pts.C, axis=1)
            np.testing.assert_allclose(legs, geometry.L, rtol=0.0, atol=1e-12)

    def test_inconsistent_pair_rejected(self, geometry):
        with pytest.raises(KinematicsError):
            joint_points([0.0, 0.0, 0.0], [0.4, 0.31, 0.31], geometry)
