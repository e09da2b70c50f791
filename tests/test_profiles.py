import math

import numpy as np
import pytest

from orthoglide_balance.profiles import bang_bang_scalar, quintic_scalar


class TestBangBang:
    def test_start(self):
        s, v, a = bang_bang_scalar(0.0, 2.0)
        assert (s, v) == (0.0, 0.0)
        assert a == 4.0 / 4.0

    def test_midpoint(self):
        s, v, a = bang_bang_scalar(1.0, 2.0)
        assert s == 0.5
        assert v == 2.0 / 2.0
        assert a == 1.0  # left limit of the accelerating phase

    def test_end(self):
        s, v, a = bang_bang_scalar(2.0, 2.0)
        assert (s, v) == (1.0, 0.0)
        assert a == -1.0

    def test_c1_continuity_at_switch(self):
        t_f = 1.0
        left = math.nextafter(0.5, 0.0)
        right = math.nextafter(0.5, 1.0)
        s_l, v_l, a_l = bang_bang_scalar(left, t_f)
        s_r, v_r, a_r = bang_bang_scalar(right, t_f)
        assert s_l == pytest.approx(s_r, abs=1e-15)
        assert v_l == pytest.approx(v_r, abs=1e-14)
        assert a_r - a_l == pytest.approx(-8.0 / t_f**2, rel=1e-15)

    def test_acceleration_magnitude_everywhere(self):
        t = np.linspace(0.0, 3.0, 1001)
        _, _, a = bang_bang_scalar(t, 3.0)
        np.testing.assert_allclose(np.abs(a), 4.0 / 9.0, rtol=1e-15)

    @pytest.mark.parametrize("t", [-0.1, 1.0001, 5.0])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            bang_bang_scalar(t, 1.0)


class TestQuintic:
    def test_rest_to_rest_boundary_conditions(self):
        for t, (s_exp, v_exp, a_exp) in [(0.0, (0, 0, 0)), (1.5, (1, 0, 0))]:
            s, v, a = quintic_scalar(t, 1.5)
            assert s == pytest.approx(s_exp, abs=1e-15)
            assert v == pytest.approx(v_exp, abs=1e-15)
            assert a == pytest.approx(a_exp, abs=1e-15)

    def test_midpoint(self):
        s, v, a = quintic_scalar(0.5, 1.0)
        assert s == pytest.approx(0.5, abs=1e-15)
        assert v == pytest.approx(15.0 / 8.0, rel=1e-15)  # velocity peak
        assert a == pytest.approx(0.0, abs=1e-15)

    def test_peak_acceleration_location_and_value(self):
        # stationary points of sigma'' at tau = 1/2 -+ 1/(2*sqrt(3))
        t_f = 1.0
        tau = 0.5 - 0.5 / math.sqrt(3.0)
        _, _, a = quintic_scalar(tau * t_f, t_f)
        assert a == pytest.approx(10.0 / math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("t", [-1e-9, 1.0 + 1e-9])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            quintic_scalar(t, 1.0)


# Each law with its paper peak |sigma''| * t_f^2.
@pytest.mark.parametrize("law,peak", [
    pytest.param(bang_bang_scalar, 4.0, id="bang_bang-bang_bang_scalar"),
    pytest.param(quintic_scalar, 10.0 / math.sqrt(3.0), id="quintic-quintic_scalar"),
])
class TestProfileLawProperties:
    def test_grid_max_matches_closed_form(self, law, peak):
        t_f = 0.8
        t = np.linspace(0.0, t_f, 100_000)
        _, _, a = law(t, t_f)
        assert np.abs(a).max() == pytest.approx(peak / t_f**2, rel=1e-4)

    def test_velocity_integrates_to_unit_displacement(self, law, peak):
        t_f = 1.3
        t = np.linspace(0.0, t_f, 10_001)
        _, v, _ = law(t, t_f)
        assert np.trapezoid(v, t) == pytest.approx(1.0, abs=1e-6)

    def test_finite_differences_reproduce_derivatives(self, law, peak):
        t_f = 1.0
        h = 1e-4
        # interior points away from the bang-bang switch instant
        ts = [0.1, 0.31, 0.47, 0.52, 0.73, 0.9]
        for t in ts:
            s_m, _, _ = law(t - h, t_f)
            s_0, v_0, a_0 = law(t, t_f)
            s_p, _, _ = law(t + h, t_f)
            assert (s_p - s_m) / (2 * h) == pytest.approx(v_0, abs=1e-6)
            assert (s_p - 2 * s_0 + s_m) / h**2 == pytest.approx(a_0, abs=1e-6)

    def test_monotone_position(self, law, peak):
        t = np.linspace(0.0, 2.0, 5001)
        s, _, _ = law(t, 2.0)
        assert np.all(np.diff(s) >= 0.0)
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_bad_duration_rejected(self, law, peak):
        for t_f in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="duration t_f must be > 0"):
                law(0.0, t_f)


class TestLineTrajectory:
    """Straight lines start + sigma(t)*D under a profile law."""

    def test_benchmark_peak_acceleration(self):
        # displacement magnitude of the benchmark COM motion
        d = 0.115771
        t = np.linspace(0.0, 1.0, 20001)
        _, _, a = bang_bang_scalar(t, 1.0)
        assert np.abs(a * d).max() == pytest.approx(0.463084, abs=1e-6)
