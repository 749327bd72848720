import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from relmodes import (MU_EARTH, ChiefOrbit, OrbitDefinitionError,
                      eval_at_theta, make_chief, theta_to_time,
                      time_to_theta)
from relmodes.floquet import qns_r21

from conftest import batch_grid, batch_vs_scalar_error, random_chief

TWO_PI = 2.0 * math.pi


class TestMakeChief:
    def test_molniya_elements(self, molniya):
        assert molniya.q1 == pytest.approx(0.0, abs=1e-12)
        assert molniya.q2 == pytest.approx(-0.74, rel=1e-14)
        assert math.remainder(molniya.theta0, TWO_PI) == pytest.approx(0.0, abs=1e-12)

    def test_circular(self):
        chief = make_chief(10000.0, 0.0, 1.0, 2.0, 3.0, 4.0)
        assert chief.q1 == 0.0 and chief.q2 == 0.0
        assert chief.eta == 1.0
        assert chief.p == chief.a

    def test_eta_at_half_eccentricity(self):
        chief = make_chief(26600.0, 0.5, 1.0, 0.0, 0.0, 0.0)
        assert chief.eta == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_rejects_open_orbits(self):
        with pytest.raises(OrbitDefinitionError):
            make_chief(26600.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(OrbitDefinitionError):
            make_chief(26600.0, 1.3, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(OrbitDefinitionError):
            make_chief(-26600.0, 0.1, 1.0, 0.0, 0.0, 0.0)

    def test_one_minus_e2_has_one_formula(self):
        # q1 = 0.7, q2 = 0: a (1 - q1^2 - q2^2) is 13566 exactly, while
        # a*eta*eta rounds to 13565.999999999998
        chief = make_chief(26600.0, 0.7, 1.0, 0.0, 0.0, 0.5)
        direct = chief.a * (1.0 - chief.q1**2 - chief.q2**2)
        assert chief.a * chief.eta * chief.eta != direct
        assert chief.p == direct == 13566.0
        assert -chief.gamma * chief.a == direct

    def test_replace_recomputes_derived_scalars(self, generic_chief):
        attrs = ("p", "h", "f0", "gamma", "epoch", "Aq", "Bq", "Cq")
        for attr in attrs:
            getattr(generic_chief, attr)  # fill the source's cache
        other = dataclasses.replace(generic_chief, a=9000.0, q1=0.01,
                                    theta0=generic_chief.theta0 + 1.0)
        fresh = ChiefOrbit(a=9000.0, q1=0.01, q2=generic_chief.q2,
                           inc=generic_chief.inc, raan=generic_chief.raan,
                           theta0=generic_chief.theta0 + 1.0)
        for attr in attrs:
            assert getattr(other, attr) == getattr(fresh, attr)
            assert getattr(other, attr) != getattr(generic_chief, attr)


class TestEvalAtTheta:
    @pytest.mark.parametrize("shift", [0.0, 0.01j], ids=["real", "complex"])
    def test_array_matches_scalar(self, generic_chief, shift):
        def fields(theta):
            st = eval_at_theta(generic_chief, theta)
            return np.stack([st.kappa, st.r, st.vr, st.vt, st.thetadot],
                            axis=-1)

        grid = batch_grid(generic_chief, shift)
        assert batch_vs_scalar_error(fields, grid) <= 1e-15

    def test_periapsis_line_values(self, molniya):
        st0 = eval_at_theta(molniya, 0.0)
        assert st0.kappa == pytest.approx(1.0, abs=1e-15)
        assert st0.r == pytest.approx(molniya.p, rel=1e-15)

    def test_radius_at_half_revolution(self, molniya):
        # q1 = 0 so kappa(pi) = 1 and r = p = a(1 - e^2)
        st_pi = eval_at_theta(molniya, math.pi)
        assert st_pi.kappa == pytest.approx(1.0, abs=1e-12)
        assert st_pi.r == pytest.approx(12033.84, abs=1e-8)

    def test_periodicity_and_momentum(self, rng):
        for _ in range(20):
            chief = random_chief(rng, avoid_singular=False)
            th = rng.uniform(0.0, 20.0)
            a = eval_at_theta(chief, th)
            b = eval_at_theta(chief, th + TWO_PI)
            assert a.r == pytest.approx(b.r, rel=1e-12)
            assert a.r * a.vt == pytest.approx(chief.h, rel=1e-13)

    def test_radial_velocity_against_finite_difference(self, generic_chief):
        # vr = dr/dt = (dr/dtheta) * thetadot
        h = 1e-6
        for th in np.linspace(0.0, TWO_PI, 11):
            s = eval_at_theta(generic_chief, th)
            drdth = (eval_at_theta(generic_chief, th + h).r
                     - eval_at_theta(generic_chief, th - h).r) / (2.0 * h)
            assert s.vr == pytest.approx(drdth * s.thetadot, rel=1e-7, abs=1e-12)


class TestShorthands:
    def test_molniya_values(self, molniya):
        assert molniya.Aq == pytest.approx(-0.74, rel=1e-13)
        assert molniya.Bq == pytest.approx(0.0, abs=1e-13)
        assert molniya.gamma == pytest.approx(-0.4524, rel=1e-13)

    def test_circular_values(self):
        chief = make_chief(9000.0, 0.0, 1.0, 0.5, 1.5, 2.5)
        assert chief.Aq == 0.0 and chief.Bq == 0.0
        assert chief.gamma == -1.0

    def test_aq_matches_velocity_ratio(self, generic_chief):
        st0 = eval_at_theta(generic_chief, generic_chief.theta0)
        assert generic_chief.Aq == pytest.approx(
            -st0.vr * generic_chief.p / (st0.vt * st0.r), rel=1e-12)

    def test_identities_over_random_chiefs(self, rng):
        # gamma, Cq and scale identities on 1000 random closed orbits
        for _ in range(1000):
            chief = random_chief(rng, e_lo=0.001, e_hi=0.95,
                                 avoid_singular=False)
            assert chief.gamma == pytest.approx(
                chief.Aq**2 + chief.Bq**2 - 1.0, rel=1e-12, abs=1e-12)
            c_expect = (-(1.0 - chief.Aq**2 - chief.Bq**2) ** 1.5
                        / ((chief.Bq + 1.0) ** 2 * chief.n))
            assert chief.Cq == pytest.approx(c_expect, rel=1e-12)
            scale = 2.0 * qns_r21(chief) * chief.a / chief.gamma
            s_expect = (3.0 * (chief.Bq + 1.0) ** 2
                        / (1.0 - chief.Aq**2 - chief.Bq**2) ** 2.5)
            assert scale == pytest.approx(s_expect, rel=1e-12)


class TestTimeOfLatitude:
    def test_epoch_zero(self, generic_chief):
        assert theta_to_time(generic_chief, generic_chief.theta0) == 0.0

    def test_one_period(self, generic_chief):
        t = theta_to_time(generic_chief, generic_chief.theta0 + TWO_PI)
        assert t == pytest.approx(generic_chief.period, rel=1e-13)

    def test_half_period_from_periapsis(self):
        # starting at periapsis, half a revolution is half a period
        chief = make_chief(26600.0, 0.74, 1.0, 0.0, 0.0, 0.0)
        t = theta_to_time(chief, chief.theta0 + math.pi)
        assert t == pytest.approx(chief.period / 2.0, rel=1e-12)
        oracle, _ = quad(lambda th: eval_at_theta(chief, th).r ** 2 / chief.h,
                         chief.theta0, chief.theta0 + math.pi, limit=200)
        assert t == pytest.approx(oracle, rel=1e-10)

    def test_round_trip(self, rng):
        for _ in range(30):
            chief = random_chief(rng, e_hi=0.95, avoid_singular=False)
            th = chief.theta0 + rng.uniform(-15.0, 15.0)
            t = theta_to_time(chief, th)
            assert time_to_theta(chief, t) == pytest.approx(th, abs=1e-10)

    def test_array_matches_scalar(self, generic_chief):
        # periapsis and apoapsis on both sides of the wrap at f = +-pi
        chief = generic_chief
        f = np.array([0.0, math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi,
                      TWO_PI, 0.4, 11.0])
        ths = chief.argp + f
        ts = theta_to_time(chief, ths)
        assert ts.shape == ths.shape
        np.testing.assert_allclose(
            ts, [theta_to_time(chief, th) for th in ths],
            rtol=0.0, atol=1e-14 * chief.period)
        half = 0.5 * chief.period
        assert ts[1] - ts[0] == pytest.approx(half, rel=1e-12)
        assert ts[0] - ts[2] == pytest.approx(half, rel=1e-12)
        assert ts[3] - ts[1] == pytest.approx(chief.period, rel=1e-12)
        assert ts[2] - ts[4] == pytest.approx(chief.period, rel=1e-12)

    @pytest.mark.parametrize("e", [0.0, 0.05, 0.74, 0.95, 0.98])
    def test_time_to_theta_array_matches_scalar(self, e):
        """One vectorised Kepler solve on an array gives the stack of the
        float calls to 4 ulp of the largest |theta|, over three periods
        either side of the epoch."""
        chief = make_chief(26600.0, e, math.radians(63.4), 0.3,
                           math.radians(215.0), math.radians(40.0))
        ts = chief.period * np.linspace(-3.0, 3.0, 1200)
        ths = time_to_theta(chief, ts)
        stack = np.array([time_to_theta(chief, t) for t in ts.tolist()])
        assert ths.shape == ts.shape
        ulp = np.spacing(np.max(np.abs(stack)))
        assert np.max(np.abs(ths - stack)) <= 4.0 * ulp
        assert time_to_theta(chief, ts.reshape(3, -1)).shape == (3, 400)

    def test_monotone(self, molniya):
        ths = molniya.theta0 + np.linspace(-2.0, 8.0, 200)
        ts = [theta_to_time(molniya, th) for th in ths]
        assert np.all(np.diff(ts) > 0.0)

    def test_quadrature_period_oracle(self, rng):
        for _ in range(5):
            chief = random_chief(rng, avoid_singular=False)
            val, _ = quad(lambda th: eval_at_theta(chief, th).r ** 2 / chief.h,
                          chief.theta0, chief.theta0 + TWO_PI, limit=200)
            assert val == pytest.approx(chief.period, rel=1e-9)


@given(e=st.floats(0.0, 0.95), argp=st.floats(0.0, TWO_PI),
       f0=st.floats(0.0, TWO_PI), frac=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_kappa_periodic_and_positive(e, argp, f0, frac):
    chief = make_chief(15000.0, e, 1.0, 0.0, argp, f0)
    th = chief.theta0 + frac * TWO_PI
    k = eval_at_theta(chief, th).kappa
    assert k > 0.0
    assert k == pytest.approx(eval_at_theta(chief, th + TWO_PI).kappa,
                              rel=1e-12)


@given(e=st.floats(0.0, 0.9), argp=st.floats(0.0, TWO_PI),
       f0=st.floats(0.0, TWO_PI))
@settings(max_examples=60, deadline=None)
def test_time_round_trip_property(e, argp, f0):
    chief = make_chief(20000.0, e, 1.0, 0.0, argp, f0)
    th = chief.theta0 + 1.7
    assert time_to_theta(chief, theta_to_time(chief, th)) == pytest.approx(
        th, abs=1e-10)


def test_default_mu_is_earth():
    assert make_chief(10000.0, 0.1, 1.0, 0.0, 0.0, 0.0).mu == MU_EARTH
