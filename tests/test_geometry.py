import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmodes import (NearSingularMatrixError, cart_sph_linear,
                      cart_sph_linear_at, cart_to_sph, eval_at_theta,
                      g_cartesian, g_inverse, g_spherical, geo_map,
                      make_chief, sph_to_cart)

from conftest import batch_grid, batch_vs_scalar_error, random_chief

TWO_PI = 2.0 * math.pi


class TestCartesianMap:
    def test_leading_entry_is_radius_ratio(self, generic_chief, rng):
        for _ in range(5):
            th = rng.uniform(0.0, TWO_PI)
            g = g_cartesian(generic_chief, th)
            assert g[0, 0] == pytest.approx(
                eval_at_theta(generic_chief, th).r / generic_chief.a)

    def test_circular_leading_entry(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        for th in (0.0, 1.0, 4.0):
            assert g_cartesian(chief, th)[0, 0] == pytest.approx(1.0)

    def test_molniya_radial_coupling(self, molniya):
        st0 = eval_at_theta(molniya, 0.0)
        g = g_cartesian(molniya, 0.0)
        # (vr/vt) r = -Aq r^2/p with Aq = -0.74 at this epoch
        assert g[0, 1] == pytest.approx(0.74 * st0.r**2 / molniya.p,
                                        rel=1e-12)

    def test_semimajor_difference_column(self, generic_chief):
        th = generic_chief.theta0
        st0 = eval_at_theta(generic_chief, th)
        col = g_cartesian(generic_chief, th)[:, 0]
        a = generic_chief.a
        expect = np.array([st0.r / a, 0.0, 0.0, -st0.vr / (2 * a),
                           -1.5 * st0.vt / a, 0.0])
        assert np.allclose(col, expect, rtol=1e-14)

    def test_periodicity(self, generic_chief):
        th = 0.9
        assert np.allclose(g_cartesian(generic_chief, th),
                           g_cartesian(generic_chief, th + TWO_PI),
                           rtol=1e-12, atol=1e-12)


class TestSphericalMap:
    def test_shared_rows(self, generic_chief, rng):
        for _ in range(5):
            th = rng.uniform(0.0, TWO_PI)
            gc = g_cartesian(generic_chief, th)
            gs = g_spherical(generic_chief, th)
            assert np.array_equal(gc[0], gs[0])
            assert np.array_equal(gc[3], gs[3])

    def test_angle_row_is_scaled_position_row(self, generic_chief):
        th = 2.7
        gc = g_cartesian(generic_chief, th)
        gs = g_spherical(generic_chief, th)
        r = eval_at_theta(generic_chief, th).r
        assert np.allclose(gs[1], gc[1] / r, rtol=1e-14)

    def test_circular_rate_entry(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        g = g_spherical(chief, 1.2)
        assert g[4, 0] == pytest.approx(-1.5 * chief.n / chief.a, rel=1e-13)

    def test_equals_linearized_conversion_of_cartesian_map(self, rng):
        # G_sph = L(theta) G_cart with L the linearized conversion
        for _ in range(20):
            chief = random_chief(rng, avoid_singular=False)
            th = rng.uniform(0.0, TWO_PI)
            st_ = eval_at_theta(chief, th)
            fwd, _ = cart_sph_linear(st_.r, st_.vr)
            gc = g_cartesian(chief, th)
            gs = g_spherical(chief, th)
            scale = np.max(np.abs(gs))
            assert np.max(np.abs(fwd @ gc - gs)) < 1e-10 * scale


@pytest.mark.parametrize("shift", [0.0, 0.01j], ids=["real", "complex"])
@pytest.mark.parametrize("target", ["cartesian", "spherical"])
def test_array_matches_scalar(generic_chief, target, shift):
    grid = batch_grid(generic_chief, shift)
    g = geo_map(generic_chief, grid, target)
    assert g.shape == (721, 6, 6)
    assert batch_vs_scalar_error(
        lambda th: geo_map(generic_chief, th, target), grid) <= 1e-15


class TestInverse:
    def test_round_trip(self, rng):
        for _ in range(100):
            chief = random_chief(rng, avoid_singular=False)
            th = rng.uniform(0.0, TWO_PI)
            g = g_cartesian(chief, th)
            gi = g_inverse(g)
            assert np.max(np.abs(g @ gi - np.eye(6))) < 1e-10

    def test_state_round_trip(self, generic_chief, rng):
        g = g_cartesian(generic_chief, 1.0)
        doe = rng.standard_normal(6) * 1e-4
        x = g @ doe
        assert np.allclose(g_inverse(g) @ x, doe, rtol=1e-10, atol=1e-16)

    def test_near_singular_rejected(self, rng):
        bad = rng.standard_normal((6, 6))
        bad[5] = bad[4] * (1.0 + 1e-14)  # dependence survives equilibration
        with pytest.raises(NearSingularMatrixError):
            g_inverse(bad)

    def test_conditioning_reported_for_reference_orbit(self, molniya):
        # no ground truth; record that the map stays comfortably regular
        from relmodes.geometry import equilibrated_cond
        cond = equilibrated_cond(g_cartesian(molniya, molniya.theta0))
        print(f"reference-orbit map equilibrated cond: {cond:.3e}")
        assert np.isfinite(cond) and cond < 1e6


class TestSphericalConversion:
    def test_origin_maps_to_origin(self):
        s = cart_to_sph(10000.0, 0.5, np.zeros(6))
        assert np.all(s.as_array() == 0.0)

    def test_quarter_angle(self):
        rc = 8000.0
        s = cart_to_sph(rc, 0.0, [0.0, rc, 0.0, 0.0, 0.0, 0.0])
        assert s.theta_r == pytest.approx(math.pi / 4.0)

    def test_round_trip(self, rng):
        rc, rcd = 9500.0, 1.3
        for _ in range(1000):
            state = rng.standard_normal(6) * np.array(
                [300.0, 300.0, 300.0, 0.3, 0.3, 0.3])
            sph = cart_to_sph(rc, rcd, state)
            back = sph_to_cart(rc, rcd, sph)
            assert np.allclose(back, state, rtol=1e-12, atol=1e-12)

    def test_polar_limit_rejected(self):
        with pytest.raises(ValueError):
            sph_to_cart(9000.0, 0.0, [0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            cart_to_sph(1.0, 0.0, [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_second_order_agreement_with_linear_map(self, rng):
        # Richardson check: the nonlinear-minus-linear gap drops 4x when
        # the state is halved
        rc, rcd = 9500.0, 1.3
        fwd, _ = cart_sph_linear(rc, rcd)
        state = rng.standard_normal(6) * np.array(
            [50.0, 50.0, 50.0, 0.05, 0.05, 0.05])
        gap1 = np.linalg.norm(cart_to_sph(rc, rcd, state).as_array()
                              - fwd @ state)
        gap2 = np.linalg.norm(cart_to_sph(rc, rcd, 0.5 * state).as_array()
                              - fwd @ (0.5 * state))
        assert gap1 == pytest.approx(4.0 * gap2, rel=0.05)
        assert gap1 < 10.0 * np.linalg.norm(state) ** 2 / rc


class TestLinearConversion:
    def test_sparse_entries(self):
        rc, rcd = 7000.0, -2.0
        fwd, _ = cart_sph_linear(rc, rcd)
        assert fwd[4, 1] == pytest.approx(-rcd / rc**2)
        assert fwd[4, 4] == pytest.approx(1.0 / rc)

    def test_circular_is_diagonal(self):
        fwd, _ = cart_sph_linear(7000.0, 0.0)
        assert np.allclose(fwd, np.diag([1, 1 / 7000, 1 / 7000,
                                         1, 1 / 7000, 1 / 7000]))

    def test_inverse_pair(self, rng):
        for _ in range(10):
            rc, rcd = rng.uniform(6500, 50000), rng.standard_normal()
            fwd, inv = cart_sph_linear(rc, rcd)
            assert np.allclose(fwd @ inv, np.eye(6), atol=1e-15)
            assert np.allclose(inv @ fwd, np.eye(6), atol=1e-15)

    def test_on_orbit_wrapper(self, generic_chief):
        th = 1.1
        st_ = eval_at_theta(generic_chief, th)
        fwd, _ = cart_sph_linear_at(generic_chief, th)
        expect, _ = cart_sph_linear(st_.r, st_.vr)
        assert np.array_equal(fwd, expect)


@given(x=st.floats(-100, 100), y=st.floats(-100, 100), z=st.floats(-100, 100),
       xd=st.floats(-0.1, 0.1), yd=st.floats(-0.1, 0.1),
       zd=st.floats(-0.1, 0.1))
@settings(max_examples=80, deadline=None)
def test_spherical_round_trip_property(x, y, z, xd, yd, zd):
    rc, rcd = 12000.0, 0.7
    state = np.array([x, y, z, xd, yd, zd])
    back = sph_to_cart(rc, rcd, cart_to_sph(rc, rcd, state))
    assert np.allclose(back, state, rtol=1e-11, atol=1e-11)
