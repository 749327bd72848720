import math

import numpy as np
import pytest

from relmodes import (InclinationSingularityError, cartesian_plant_keplerian,
                      cw_planar_plant, cw_plant_full, cw_stm_planar,
                      eval_at_theta, gauss_rates, make_chief, propagate_linear,
                      qns_plant_theta, qns_plant_time, time_to_theta)
from relmodes.geometry import g_cartesian, g_inverse
from relmodes.twobody import (nonlinear_relative_rate,
                              nonlinear_relative_trajectory,
                              propagate_twobody, chief_inertial_state,
                              deputy_from_relative, qns_elements_from_rv)

from conftest import batch_grid, batch_vs_scalar_error, random_chief

TWO_PI = 2.0 * math.pi


class TestCwPlanarPlant:
    def test_unit_mean_motion(self):
        expect = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                           [3, 0, 0, 2], [0, 0, -2, 0]], dtype=float)
        assert np.array_equal(cw_planar_plant(1.0), expect)

    def test_eigenvalues(self):
        n = 1.1e-3
        ev = np.sort_complex(np.linalg.eigvals(cw_planar_plant(n)))
        expect = np.sort_complex(np.array([0.0, 0.0, 1j * n, -1j * n]))
        assert np.allclose(ev, expect, atol=1e-12 * n)

    def test_zero_mean_motion_is_nilpotent(self):
        a = cw_planar_plant(0.0)
        assert np.allclose(np.linalg.matrix_power(a, 2), 0.0)


class TestCwStm:
    def test_identity_at_zero(self):
        assert np.allclose(cw_stm_planar(1e-3, 0.0), np.eye(4))

    def test_one_period_closed_form(self):
        n = 1.45e-4
        t = TWO_PI / n
        expect = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [-12.0 * math.pi, 1.0, 0.0, -6.0 * math.pi / n],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        assert np.allclose(cw_stm_planar(n, t), expect, rtol=1e-10, atol=1e-10)

    def test_unit_determinant(self):
        n = 1.45e-4
        for t in np.linspace(0.0, 3.0 * TWO_PI / n, 17):
            assert np.linalg.det(cw_stm_planar(n, t)) == pytest.approx(
                1.0, rel=1e-10)

    def test_satisfies_variational_equation(self):
        # finite-difference residual of Phi' = A Phi; at n = 1 the bound
        # 1e-8*n is absolute, at realistic n the STM magnitude (~40 at
        # one period) sets the floating-point floor, so scale by it
        for n, h in ((1.0, 1e-5), (1.45e-4, 1e-2)):
            a = cw_planar_plant(n)
            for t in np.linspace(0.1 / n, TWO_PI / n, 9):
                phi = cw_stm_planar(n, t)
                dphi = (cw_stm_planar(n, t + h)
                        - cw_stm_planar(n, t - h)) / (2 * h)
                resid = np.max(np.abs(dphi - a @ phi))
                assert resid < 1e-8 * n * max(1.0, np.max(np.abs(phi)))


class TestQnsPlant:
    def test_circular_row(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        for th in (0.3, 2.0, 5.5):
            a = qns_plant_theta(chief, th)
            assert a[1, 0] == pytest.approx(-1.5 / chief.a)
            assert a[1, 1] == 0.0
            assert a[1, 3] == pytest.approx(2.0 * math.cos(th))
            assert a[1, 4] == pytest.approx(2.0 * math.sin(th))

    def test_molniya_entry(self, molniya):
        a = qns_plant_theta(molniya, 0.0)
        assert a[1, 1] == pytest.approx(-1.48, rel=1e-12)

    def test_sparsity(self, rng):
        for _ in range(10):
            chief = random_chief(rng, avoid_singular=False)
            a = qns_plant_theta(chief, rng.uniform(0, 10.0))
            mask = np.ones((6, 6), dtype=bool)
            mask[1, :] = False
            assert np.all(a[mask] == 0.0)
            assert a[1, 2] == 0.0 and a[1, 5] == 0.0

    def test_periodicity(self, generic_chief):
        th = 1.234
        assert np.allclose(qns_plant_theta(generic_chief, th),
                           qns_plant_theta(generic_chief, th + TWO_PI),
                           rtol=1e-12, atol=1e-15)

    def test_row_is_latitude_rate_jacobian(self, generic_chief):
        # independent oracle: differentiate thetadot(a, theta, q1, q2)
        # numerically and divide by thetadot
        chief = generic_chief
        th = 2.1

        def thetadot(a, theta, q1, q2):
            p = a * (1.0 - q1**2 - q2**2)
            kappa = 1.0 + q1 * math.cos(theta) + q2 * math.sin(theta)
            return math.sqrt(chief.mu) * p**-1.5 * kappa**2

        td0 = thetadot(chief.a, th, chief.q1, chief.q2)
        base = (chief.a, th, chief.q1, chief.q2)
        steps = (1e-2, 1e-7, 1e-8, 1e-8)
        cols = (0, 1, 3, 4)
        a_row = qns_plant_theta(chief, th)[1]
        for arg, h, col in zip(range(4), steps, cols):
            hi = list(base)
            lo = list(base)
            hi[arg] += h
            lo[arg] -= h
            deriv = (thetadot(*hi) - thetadot(*lo)) / (2.0 * h)
            assert a_row[col] == pytest.approx(deriv / td0, rel=1e-5)


@pytest.mark.parametrize("plant", [qns_plant_theta, qns_plant_time,
                                   cartesian_plant_keplerian])
def test_array_matches_scalar(generic_chief, plant):
    grid = batch_grid(generic_chief)
    assert plant(generic_chief, grid).shape == (721, 6, 6)
    assert batch_vs_scalar_error(lambda th: plant(generic_chief, th),
                                 grid) <= 1e-15


class TestGaussRates:
    def test_unforced(self, generic_chief):
        th = 1.9
        rates = gauss_rates(generic_chief, th, (0.0, 0.0, 0.0))
        st = eval_at_theta(generic_chief, th)
        assert rates[1] == pytest.approx(st.thetadot, rel=1e-14)
        assert np.all(rates[[0, 2, 3, 4, 5]] == 0.0)

    def test_normal_accel_at_quarter(self, generic_chief):
        rates = gauss_rates(generic_chief, math.pi / 2.0, (0.0, 0.0, 1e-6))
        assert rates[2] == pytest.approx(0.0, abs=1e-22)  # di/dt ~ cos(theta)

    def test_tangential_semimajor_rate(self, molniya):
        a_t = 1e-6
        rates = gauss_rates(molniya, 0.0, (0.0, a_t, 0.0))
        st = eval_at_theta(molniya, 0.0)
        expect = 2.0 * molniya.a**2 / molniya.h * (molniya.p / st.r) * a_t
        assert rates[0] == pytest.approx(expect, rel=1e-14)

    def test_equatorial_singularity(self):
        chief = make_chief(12000.0, 0.2, 0.0, 0.0, 1.0, 2.0)
        with pytest.raises(InclinationSingularityError):
            gauss_rates(chief, 1.0, (0.0, 0.0, 1e-6))
        # in-plane accelerations stay fine
        gauss_rates(chief, 1.0, (1e-6, 1e-6, 0.0))

    def test_against_osculating_element_oracle(self, generic_chief):
        # propagate the nonlinear dynamics with the acceleration for 1 s
        # and difference the osculating elements
        chief = generic_chief
        th = 0.8
        accel_lvlh = np.array([3e-7, 1e-6, -5e-7])
        rates = gauss_rates(chief, th, accel_lvlh)
        rv = chief_inertial_state(chief, th)
        from relmodes.twobody import lvlh_triad
        dt = 1.0

        def accel_fn(t, r, v):
            return lvlh_triad(r, v).T @ accel_lvlh

        traj = propagate_twobody(rv, chief.mu, np.array([0.0, dt]),
                                 accel_fn=accel_fn)
        e0 = qns_elements_from_rv(traj[0, :3], traj[0, 3:], chief.mu)
        e1 = qns_elements_from_rv(traj[1, :3], traj[1, 3:], chief.mu)
        fd = (e1 - e0) / dt
        scale = np.max(np.abs(rates))
        assert np.allclose(rates, fd, atol=2e-6 * scale)


class TestCartesianPlant:
    def test_circular_limit_is_cw(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.2, 0.4, 0.6)
        a = cartesian_plant_keplerian(chief, 1.0)
        assert np.allclose(a, cw_plant_full(chief.n), rtol=1e-12, atol=1e-18)

    def test_periodicity(self, generic_chief):
        th = 0.7
        assert np.allclose(
            cartesian_plant_keplerian(generic_chief, th),
            cartesian_plant_keplerian(generic_chief, th + TWO_PI),
            rtol=1e-12, atol=1e-16)

    def test_radial_gravity_entry(self, molniya):
        st0 = eval_at_theta(molniya, 0.0)
        a = cartesian_plant_keplerian(molniya, 0.0)
        assert st0.r == pytest.approx(molniya.p)
        assert a[3, 0] == pytest.approx(
            2.0 * molniya.mu / st0.r**3 + st0.thetadot**2, rel=1e-14)

    def test_block_structure(self, generic_chief):
        a = cartesian_plant_keplerian(generic_chief, 2.2)
        assert np.allclose(a[0:3, 0:3], 0.0)
        assert np.allclose(a[0:3, 3:6], np.eye(3))

    def test_matches_nonlinear_jacobian(self, molniya):
        # central differences of the exact nonlinear relative rate
        h = 1e-6
        for th in np.linspace(0.0, TWO_PI, 7):
            a = cartesian_plant_keplerian(molniya, th)
            jac = np.zeros((6, 6))
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                jac[:, j] = (nonlinear_relative_rate(molniya, th, e)
                             - nonlinear_relative_rate(molniya, th, -e)) / (2 * h)
            assert np.max(np.abs(a - jac)) / np.max(np.abs(a)) < 1e-6


class TestPropagateLinear:
    def test_zero_state(self, molniya):
        _, ys = propagate_linear(
            lambda t: cartesian_plant_keplerian(molniya,
                                                time_to_theta(molniya, t)),
            np.zeros(6), (0.0, molniya.period / 4.0), 20)
        assert np.all(ys == 0.0)

    def test_cw_along_track_offset_is_stationary(self):
        n = 1.45e-4
        _, ys = propagate_linear(lambda t: cw_plant_full(n),
                                 [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                                 (0.0, TWO_PI / n), 50)
        assert np.allclose(ys, ys[0], atol=1e-9)

    def test_superposition(self, generic_chief, rng):
        plant = lambda th: qns_plant_theta(generic_chief, th)
        span = (generic_chief.theta0, generic_chief.theta0 + 3.0)
        x = rng.standard_normal(6) * 1e-4
        y = rng.standard_normal(6) * 1e-4
        _, sx = propagate_linear(plant, x, span, 15)
        _, sy = propagate_linear(plant, y, span, 15)
        _, sxy = propagate_linear(plant, x + y, span, 15)
        scale = np.max(np.abs(sxy))
        assert np.allclose(sxy, sx + sy, atol=1e-10 * scale)

    def test_rejects_bad_span(self, molniya):
        with pytest.raises(ValueError):
            propagate_linear(lambda t: np.eye(6), np.zeros(6),
                             (0.0, math.inf), 10)
        with pytest.raises(ValueError):
            propagate_linear(lambda t: np.eye(6), np.zeros(6), (0.0, 1.0), 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_failure_raised(self):
        from relmodes import IntegrationError

        def exploding(t):
            return np.eye(2) / (1.0 - t) ** 3  # finite-time blowup at t = 1

        with pytest.raises(IntegrationError):
            propagate_linear(exploding, np.ones(2), (0.0, 1.0), 10,
                             rtol=1e-6, atol=1e-6)


class TestPlantConsistency:
    def test_cartesian_from_qns_through_map(self, generic_chief, rng):
        # A_x(t) = G A G^-1 + Gdot G^-1 with Gdot by central differences
        chief = generic_chief
        h = 1e-6
        for _ in range(50):
            th = chief.theta0 + rng.uniform(0.0, TWO_PI)
            td = eval_at_theta(chief, th).thetadot
            g = g_cartesian(chief, th)
            gdot = td * (g_cartesian(chief, th + h)
                         - g_cartesian(chief, th - h)) / (2.0 * h)
            a_qns = qns_plant_time(chief, th)
            mapped = g @ a_qns @ g_inverse(g) + gdot @ g_inverse(g)
            a_x = cartesian_plant_keplerian(chief, th)
            assert np.max(np.abs(mapped - a_x)) / np.max(np.abs(a_x)) < 1e-6


class TestNonlinearOracleAgreement:
    def test_linear_propagation_tracks_nonlinear_difference(self, molniya,
                                                            rng):
        # trajectories kept at a 0.25 km scale: the residual is pure
        # second-order linearization remainder and must scale linearly
        # with amplitude (machinery errors would not)
        chief = molniya
        g0 = g_cartesian(chief, chief.theta0)
        t_grid = np.linspace(0.0, chief.period, 60)
        plant = lambda t: cartesian_plant_keplerian(chief,
                                                    time_to_theta(chief, t))
        for _ in range(3):
            doe = np.concatenate([[0.0], rng.standard_normal(5) * 1e-5])
            x0 = g0 @ doe
            _, lin = propagate_linear(plant, x0, (0.0, chief.period), 60)
            scale = 0.25 / np.max(np.linalg.norm(lin[:, :3], axis=1))
            x0 = x0 * scale
            _, lin = propagate_linear(plant, x0, (0.0, chief.period), 60)
            nl = nonlinear_relative_trajectory(chief, x0, t_grid)
            ps = np.max(np.linalg.norm(nl[:, :3], axis=1))
            vs = np.max(np.linalg.norm(nl[:, 3:], axis=1))
            perr = np.max(np.linalg.norm(lin[:, :3] - nl[:, :3], axis=1)) / ps
            verr = np.max(np.linalg.norm(lin[:, 3:] - nl[:, 3:], axis=1)) / vs
            assert max(perr, verr) < 1e-3

            # halving the amplitude halves the relative error
            nl2 = nonlinear_relative_trajectory(chief, 0.5 * x0, t_grid)
            _, lin2 = propagate_linear(plant, 0.5 * x0, (0.0, chief.period), 60)
            perr2 = np.max(np.linalg.norm(lin2[:, :3] - nl2[:, :3], axis=1)) / (0.5 * ps)
            assert perr2 == pytest.approx(0.5 * perr, rel=0.15)


class TestTwoBodyOracle:
    def test_chief_state_consistency(self, generic_chief, rng):
        for _ in range(5):
            th = rng.uniform(0.0, TWO_PI)
            r_vec, v_vec = chief_inertial_state(generic_chief, th)
            st = eval_at_theta(generic_chief, th)
            assert np.linalg.norm(r_vec) == pytest.approx(st.r, rel=1e-13)
            energy = 0.5 * np.dot(v_vec, v_vec) - generic_chief.mu / st.r
            assert energy == pytest.approx(
                -generic_chief.mu / (2.0 * generic_chief.a), rel=1e-13)

    def test_elements_round_trip(self, generic_chief, rng):
        for _ in range(5):
            th = rng.uniform(0.0, TWO_PI)
            rv = chief_inertial_state(generic_chief, th)
            el = qns_elements_from_rv(rv[0], rv[1], generic_chief.mu)
            assert el[0] == pytest.approx(generic_chief.a, rel=1e-12)
            assert math.remainder(el[1] - th, TWO_PI) == pytest.approx(
                0.0, abs=1e-10)
            assert el[2] == pytest.approx(generic_chief.inc, rel=1e-10)
            assert el[3] == pytest.approx(generic_chief.q1, abs=1e-12)
            assert el[4] == pytest.approx(generic_chief.q2, abs=1e-12)
            assert el[5] == pytest.approx(generic_chief.raan, abs=1e-12)

    def test_relative_state_round_trip(self, generic_chief, rng):
        rv = chief_inertial_state(generic_chief, 1.3)
        rel = rng.standard_normal(6) * np.array([1, 1, 1, 1e-3, 1e-3, 1e-3])
        dep = deputy_from_relative(rv, rel)
        from relmodes.twobody import relative_state_lvlh
        back = relative_state_lvlh(rv, dep)
        # the trip through ~1e4 km inertial coordinates leaves eps*r noise
        assert np.allclose(back, rel, rtol=1e-12, atol=1e-11)

    def test_period_return(self, generic_chief):
        rv0 = chief_inertial_state(generic_chief, generic_chief.theta0)
        traj = propagate_twobody(rv0, generic_chief.mu,
                                 np.array([0.0, generic_chief.period]))
        assert np.allclose(traj[-1, :3], rv0[0], atol=1e-6)
        assert np.allclose(traj[-1, 3:], rv0[1], atol=1e-9)
