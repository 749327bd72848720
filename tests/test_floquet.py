import math

import numpy as np
import pytest

from relmodes import (NearSingularMatrixError, cw_modal_decomp,
                      cw_planar_eigvecs, cw_planar_plant, cw_stm_planar,
                      delta_theta_solution, drift_constant, eigvecs_closed,
                      eval_at_theta, lf_defining_residual, lf_qns,
                      lf_transform, lti_closed, lti_qns, make_chief, map_lti,
                      modal_constants, modal_state_matrix, propagate_linear,
                      qns_plant_theta, qns_r21,
                      state_transition, theta_to_time)
from relmodes.floquet import balanced_solve, lf_qns_components
from relmodes.geometry import geo_map
from relmodes.plants import cartesian_plant_keplerian, qns_plant_time

from conftest import (batch_grid, batch_vs_scalar_error, integrate_cartesian,
                      random_chief, scaled_error)

TWO_PI = 2.0 * math.pi


class TestQnsTransform:
    def test_identity_at_epoch(self, generic_chief):
        assert np.array_equal(lf_qns(generic_chief, generic_chief.theta0),
                              np.eye(6))

    def test_p22_form(self, generic_chief, rng):
        for _ in range(10):
            th = rng.uniform(0.0, 4.0 * math.pi)
            _, p22, _, _ = lf_qns_components(generic_chief, th)
            expect = (eval_at_theta(generic_chief, th).kappa
                      / generic_chief.epoch.kappa) ** 2
            assert p22 == pytest.approx(expect, rel=1e-14)

    def test_periodicity(self, generic_chief, rng):
        for _ in range(10):
            th = rng.uniform(0.0, 4.0 * math.pi)
            assert np.allclose(lf_qns(generic_chief, th),
                               lf_qns(generic_chief, th + TWO_PI),
                               rtol=1e-10, atol=1e-12)

    def test_circular_row(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.5)
        ths = np.linspace(chief.theta0, chief.theta0 + TWO_PI, 40)
        p22s = [lf_qns_components(chief, th)[1] for th in ths]
        assert np.allclose(p22s, 1.0, atol=1e-7)
        row_start = lf_qns(chief, chief.theta0)[1]
        row_end = lf_qns(chief, chief.theta0 + TWO_PI)[1]
        assert np.allclose(row_start, row_end, atol=1e-9)

    def test_defining_ode_residual(self, rng):
        for e in (0.01, 0.1, 0.5, 0.74, 0.9, 0.95):
            chief = random_chief(rng, e_lo=e, e_hi=e)
            r = lti_qns(chief).R
            ths = chief.theta0 + np.linspace(0.05, TWO_PI - 0.05, 25)
            resid = lf_defining_residual(
                lambda th: lf_qns(chief, th),
                lambda th: qns_plant_theta(chief, th), r, ths)
            assert resid < 1e-9

    def test_time_domain_identity_and_ode(self, generic_chief):
        chief = generic_chief
        p_t = lambda th: lf_qns(chief, th, indep="time")
        # the time-domain transform is still identity at the epoch
        assert np.array_equal(p_t(chief.theta0), np.eye(6))
        for th in (1.0, 2.5, 5.0):
            assert lf_qns(chief, th, indep="time")[1, 0] == 0.0
        # defining ODE with time derivatives: P^-1 (A P - dP/dt) = Lambda
        lam = lti_qns(chief, indep="time").R
        h = 1e-6
        worst = 0.0
        for th in chief.theta0 + np.linspace(0.1, TWO_PI, 20):
            td = eval_at_theta(chief, th).thetadot
            p = p_t(th)
            dp_dt = td * (p_t(th + h) - p_t(th - h)) / (2.0 * h)
            a = qns_plant_time(chief, th)
            worst = max(worst, np.max(np.abs(
                np.linalg.solve(p, a @ p - dp_dt) - lam)))
        assert worst < 1e-10

    def test_p21_against_kepler_identity(self, rng):
        # independent oracle: the theta-domain P21 must equal
        # P22 R21 (n dt - dtheta), which follows from comparing the
        # theta- and time-domain reductions of the same dynamics
        for _ in range(10):
            chief = random_chief(rng)
            r21 = qns_r21(chief)
            for th in chief.theta0 + np.linspace(0.2, TWO_PI, 7):
                p21, p22, _, _ = lf_qns_components(chief, th)
                dt = theta_to_time(chief, th)
                expect = p22 * r21 * (chief.n * dt - (th - chief.theta0))
                assert p21 == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_q1_zero_row(self, molniya):
        assert abs(molniya.q1) < 1e-15
        r = lti_qns(molniya).R
        ths = molniya.theta0 + np.linspace(0.05, TWO_PI - 0.05, 25)
        resid = lf_defining_residual(
            lambda th: lf_qns(molniya, th),
            lambda th: qns_plant_theta(molniya, th), r, ths)
        assert resid < 1e-7
        # the row stays continuous through the branch angle
        dense = molniya.theta0 + np.linspace(math.pi - 0.02, math.pi + 0.02, 400)
        p21s = np.array([lf_qns(molniya, th)[1, 0] for th in dense])
        assert np.max(np.abs(np.diff(p21s))) < 1e-4


class TestQnsLti:
    def test_single_entry(self, generic_chief):
        sys = lti_qns(generic_chief)
        mask = np.ones((6, 6), dtype=bool)
        mask[1, 0] = False
        assert np.all(sys.R[mask] == 0.0)
        assert sys.R[1, 0] == pytest.approx(
            -1.5 * generic_chief.a * generic_chief.eta
            / generic_chief.epoch.r**2)

    def test_molniya_time_rate(self, molniya):
        lam21 = lti_qns(molniya, indep="time").R[1, 0]
        assert lam21 == pytest.approx(-2.6969e-8, rel=1e-4)

    def test_circular_rate(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        lam21 = lti_qns(chief, indep="time").R[1, 0]
        assert lam21 == pytest.approx(-1.5 * chief.n / chief.a, rel=1e-14)

    def test_nilpotent_monodromy(self, generic_chief):
        from scipy.linalg import expm
        r = lti_qns(generic_chief).R
        assert np.allclose(r @ r, 0.0)
        assert np.allclose(expm(TWO_PI * r), np.eye(6) + TWO_PI * r,
                           rtol=1e-14, atol=1e-20)


class TestDeltaTheta:
    def test_pure_phase_offset(self, generic_chief):
        for th in (1.0, 3.3, 6.0):
            _, p22, _, _ = lf_qns_components(generic_chief, th)
            val = delta_theta_solution(generic_chief, th, 0.0, 1e-4, 0.0, 0.0)
            assert val == pytest.approx(p22 * 1e-4, rel=1e-13)

    def test_secular_growth_is_linear_in_time(self, generic_chief):
        chief = generic_chief
        vals = []
        for k in (1, 2, 4):
            th = chief.theta0 + TWO_PI * k
            vals.append(delta_theta_solution(chief, th, 1.0, 0.0, 0.0, 0.0))
        assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-10)
        assert vals[2] == pytest.approx(4.0 * vals[0], rel=1e-10)

    def test_array_matches_scalar(self, generic_chief):
        grid = batch_grid(generic_chief)
        assert batch_vs_scalar_error(
            lambda th: delta_theta_solution(generic_chief, th, 1.0, 2e-3,
                                            1e-3, -2e-3), grid) <= 1e-15

    def test_against_ode_oracle(self, generic_chief):
        chief = generic_chief
        doe0 = np.array([1.0, 2e-3, 0.0, 1e-3, -2e-3, 0.0])
        grid, states = propagate_linear(
            lambda th: qns_plant_theta(chief, th), doe0,
            (chief.theta0, chief.theta0 + TWO_PI), 60,
            rtol=1e-13, atol=1e-15)
        scale = np.max(np.abs(states[:, 1]))
        for th, row in zip(grid, states):
            val = delta_theta_solution(chief, th, doe0[0], doe0[1],
                                       doe0[3], doe0[4])
            assert abs(val - row[1]) < 1e-9 * scale


class TestMapTheorems:
    def test_identity_map(self, generic_chief):
        sys = lti_qns(generic_chief)
        assert np.array_equal(map_lti(generic_chief, "qns", sys.R), sys.R)

    def test_mapped_equals_closed(self, rng):
        for _ in range(100):
            chief = random_chief(rng)
            sys = lti_qns(chief)
            for domain in ("cartesian", "spherical"):
                mapped = map_lti(chief, domain, sys.R)
                closed = lti_closed(chief, domain).R
                scale = np.max(np.abs(closed))
                assert np.max(np.abs(mapped - closed)) < 1e-9 * scale

    def test_mapped_jordan_structure(self, generic_chief):
        mapped = map_lti(generic_chief, "cartesian", lti_qns(generic_chief).R)
        s = np.linalg.svd(mapped, compute_uv=False)
        assert np.sum(s > 1e-9 * s[0]) == 1  # geometric multiplicity 5
        assert np.allclose(mapped @ mapped, 0.0,
                           atol=1e-12 * np.max(np.abs(mapped)) ** 2)

    def test_lf_map_identity_and_periodicity(self, generic_chief):
        p = lambda th: lf_transform(generic_chief, "cartesian", th)
        th0 = generic_chief.theta0
        assert np.allclose(p(th0), np.eye(6), atol=1e-12)
        assert np.allclose(p(th0 + TWO_PI), np.eye(6), atol=1e-9)
        th = th0 + 2.0
        assert np.allclose(p(th), p(th + TWO_PI), rtol=1e-9, atol=1e-9)

    def test_lf_map_defining_ode(self, generic_chief):
        # residual of the mapped transform in its own coordinates, scaled
        # by the reduced plant's magnitude (its entries mix units)
        chief = generic_chief
        p = lambda th: lf_transform(chief, "cartesian", th)
        r_x = lti_closed(chief, "cartesian").R

        calls = []

        def plant_theta(th):
            calls.append(np.shape(th))
            td = eval_at_theta(chief, th).thetadot
            return cartesian_plant_keplerian(chief, th) / td[..., None, None]

        ths = chief.theta0 + np.linspace(0.1, TWO_PI, 25)
        resid = lf_defining_residual(p, plant_theta, r_x, ths)
        assert calls == [(25,)]  # one call on the whole batch
        assert resid < 1e-7 * max(1.0, np.max(np.abs(r_x)))


class TestClosedLti:
    def test_scale_identity(self, rng):
        for _ in range(20):
            chief = random_chief(rng, avoid_singular=False)
            scale = 2.0 * qns_r21(chief) * chief.a / chief.gamma
            expect = (3.0 * (chief.Bq + 1.0) ** 2
                      / (1.0 - chief.Aq**2 - chief.Bq**2) ** 2.5)
            assert scale == pytest.approx(expect, rel=1e-12)

    def test_sparsity_and_nilpotency(self, generic_chief):
        for sys in (lti_closed(generic_chief, "cartesian"),
                    lti_closed(generic_chief, "spherical")):
            assert np.all(sys.R[:, 2] == 0.0) and np.all(sys.R[:, 5] == 0.0)
            assert np.all(sys.R[2, :] == 0.0) and np.all(sys.R[5, :] == 0.0)
            assert np.allclose(sys.R @ sys.R, 0.0,
                               atol=1e-14 * np.max(np.abs(sys.R)) ** 2)

    def test_small_eccentricity_spectrum(self):
        chief = make_chief(12000.0, 1e-6, 1.0, 0.0, 0.0, math.pi / 2.0)
        sys = lti_closed(chief, "cartesian")
        ev = np.linalg.eigvals(sys.R / np.max(np.abs(sys.R)))
        assert np.max(np.abs(ev)) < 1e-6

    def test_spherical_column_relations(self, rng):
        for _ in range(10):
            chief = random_chief(rng)
            sys = lti_closed(chief, "spherical")
            ga = chief.gamma * chief.a
            alpha = 2.0 * qns_r21(chief) * chief.a / chief.gamma
            r_f = alpha * np.array([
                chief.Aq * chief.Cq, chief.Cq * (chief.Bq + 1.0) ** 2 / ga,
                0.0,
                chief.Bq, -2.0 * chief.Aq * (chief.Bq + 1.0) / ga, 0.0])
            scale = np.max(np.abs(sys.R))
            assert np.allclose(sys.R[:, 0], (chief.Bq + 2.0) / chief.Cq * r_f,
                               atol=1e-12 * scale)
            assert np.allclose(sys.R[:, 3], chief.Aq * r_f, atol=1e-12 * scale)
            assert np.allclose(sys.R[:, 4], ga * r_f, atol=1e-12 * scale)


class TestEigvecs:
    def test_jordan_relations(self, rng):
        for _ in range(100):
            chief = random_chief(rng)
            for domain in ("cartesian", "spherical"):
                sys = lti_closed(chief, domain)
                r, v = sys.R, sys.V
                rnorm = np.linalg.norm(r)
                for i in range(5):
                    assert (np.linalg.norm(r @ v[:, i])
                            / (rnorm * np.linalg.norm(v[:, i]))) < 1e-10
                chain = r @ v[:, 5] - v[:, 4]
                assert (np.linalg.norm(chain)
                        / np.linalg.norm(v[:, 4])) < 1e-10

    def test_unit_columns(self, generic_chief):
        v = eigvecs_closed(generic_chief, "cartesian")
        assert np.array_equal(v[:, 1], np.array([0, 0, 1, 0, 0, 0.0]))
        assert np.array_equal(v[:, 3], np.array([0, 0, 0, 0, 0, 1.0]))

    def test_molniya_epoch_is_regular(self, molniya):
        v = eigvecs_closed(molniya, "cartesian")  # |A| = 0.74
        assert np.all(np.isfinite(v))
        balanced_solve(v, np.ones(6))  # passes the conditioning gate

    def test_singular_epoch_raises(self, singular_chief):
        # the columns stay finite (modes need only those), but the
        # weights c1, c3, c5 do not exist
        x0 = np.array([0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5])
        for domain in ("cartesian", "spherical"):
            assert np.all(np.isfinite(eigvecs_closed(singular_chief, domain)))
            with pytest.raises(NearSingularMatrixError, match="near singular"):
                modal_constants(singular_chief, x0, domain)


class TestStateTransition:
    def test_matches_integration(self, generic_chief, molniya):
        x0 = np.array([0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5])
        for chief in (generic_chief, molniya):
            ths = chief.theta0 + np.linspace(0.0, TWO_PI, 121)
            err = scaled_error(state_transition(chief, "cartesian", ths) @ x0,
                               integrate_cartesian(chief, x0, ths))
            assert err < 1e-12

    @pytest.mark.parametrize("raan", [0.3, 2.1])
    @pytest.mark.parametrize("inc", [0.0, 2e-9, 1e-8, 1.107, math.pi])
    def test_local_maps_read_only_the_in_plane_orbit(self, generic_chief,
                                                     inc, raan):
        """The local reductions do not depend on i or Omega: on the generic
        in-plane orbit they are bit-identical at every inclination and
        node, equatorial chiefs included, and match the integrated plant
        there."""
        chief = make_chief(26600.0, 0.74, inc, raan, math.radians(215.0),
                           math.radians(40.0))
        ths = chief.theta0 + np.linspace(0.0, TWO_PI, 121)
        for domain in ("cartesian", "spherical"):
            for fn in (state_transition, modal_state_matrix, lf_transform):
                np.testing.assert_array_equal(
                    fn(chief, domain, ths), fn(generic_chief, domain, ths))
        if inc in (0.0, math.pi):
            x0 = np.array([0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5])
            err = scaled_error(state_transition(chief, "cartesian", ths) @ x0,
                               integrate_cartesian(chief, x0, ths))
            assert err < 1e-12

    def test_matches_modal_solution(self, rng):
        for _ in range(20):
            chief = random_chief(rng)
            ths = chief.theta0 + np.linspace(0.0, 2.0 * TWO_PI, 50)
            for domain in ("cartesian", "spherical"):
                x0 = geo_map(chief, chief.theta0, domain) @ (
                    rng.standard_normal(6) * 1e-4)
                c = modal_constants(chief, x0, domain).c
                err = scaled_error(state_transition(chief, domain, ths) @ x0,
                                   modal_state_matrix(chief, domain, ths) @ c)
                assert err < 1e-9


class TestModalConstants:
    def test_closed_matches_numeric_solve(self, rng):
        for _ in range(50):
            chief = random_chief(rng)
            for domain in ("cartesian", "spherical"):
                sys = lti_closed(chief, domain)
                x0 = rng.standard_normal(6) * np.array(
                    [1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3])
                c = modal_constants(chief, x0, domain).c
                c_num = balanced_solve(sys.V, x0)
                denom = np.max(np.abs(c_num))
                assert np.allclose(c, c_num, atol=1e-9 * denom)

    def test_reproduces_state_at_epoch(self, generic_chief, rng):
        for domain in ("cartesian", "spherical"):
            sys = lti_closed(generic_chief, domain)
            x0 = rng.standard_normal(6) * np.array(
                [1.0, 1e-3, 1e-3, 1e-3, 1e-6, 1e-6])
            c = modal_constants(generic_chief, x0, domain).c
            back = sys.V @ c
            assert np.allclose(back, x0, atol=1e-10 * np.max(np.abs(x0)))

    def test_qns_weights_invert_v(self, rng):
        # V_qns is a scaled permutation, regular at every epoch: the
        # weights are the state's entries, delta-theta over R21
        for _ in range(20):
            chief = random_chief(rng, avoid_singular=False)
            v = eigvecs_closed(chief, "qns")
            doe = rng.standard_normal(6) * 1e-4
            c = modal_constants(chief, doe, "qns").c
            assert np.allclose(c, balanced_solve(v, doe), rtol=1e-14, atol=0)
            assert np.allclose(v @ c, doe, rtol=1e-15, atol=0)

    def test_circular_limit_no_drift_constant(self):
        # at e = 0 the drift weight reduces to the circular-chief
        # no-drift combination 2 n x0 + ydot0 exactly
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        x0 = np.array([0.4, -0.2, 0.1, 3e-4, -5e-4, 2e-4])
        expect = 2.0 * chief.n * x0[0] + x0[4]
        assert drift_constant(chief, x0, "cartesian") == pytest.approx(
            expect, rel=1e-12, abs=1e-15)

    def test_drift_constant_is_c6(self, generic_chief, rng):
        for domain in ("cartesian", "spherical"):
            x0 = rng.standard_normal(6) * np.array(
                [1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3])
            c = modal_constants(generic_chief, x0, domain).c
            assert drift_constant(generic_chief, x0, domain) == c[5]

    def test_spherical_no_drift_iff_same_energy(self, generic_chief):
        doe = np.array([0.0, 2e-4, 1e-4, 1e-4, -2e-4, 1e-4])  # da = 0
        xs0 = geo_map(generic_chief, generic_chief.theta0,
                      "spherical") @ doe
        c = modal_constants(generic_chief, xs0, "spherical")
        assert abs(c.c[5]) < 1e-12 * np.max(np.abs(c.c))

    def test_linearity(self, generic_chief, rng):
        a = rng.standard_normal(6) * 1e-2
        b = rng.standard_normal(6) * 1e-2
        ca = modal_constants(generic_chief, a, "cartesian").c
        cb = modal_constants(generic_chief, b, "cartesian").c
        cab = modal_constants(generic_chief, a + 2.0 * b, "cartesian").c
        assert np.allclose(cab, ca + 2.0 * cb,
                           atol=1e-12 * np.max(np.abs(cab)))


class TestCwDecomposition:
    def test_along_track_offset_mode(self):
        n = 1.45e-4
        d = cw_modal_decomp(n, [0.0, 1.0, 0.0, 0.0])
        assert np.allclose(d.constants, [1.0, 0.0, 0.0, 0.0])
        traj = d.reconstruct(np.linspace(0.0, TWO_PI / n, 7))
        assert np.allclose(traj, traj[0], atol=1e-12)

    def test_radial_offset_constants(self):
        n = 1.45e-4
        d = cw_modal_decomp(n, [1.0, 0.0, 0.0, 0.0])
        assert d.c1 == pytest.approx(0.0, abs=1e-18)
        assert d.c2 == pytest.approx(-6.0 * n)
        assert d.c_re == pytest.approx(3.0 * n)
        assert d.c_im == pytest.approx(0.0, abs=1e-18)

    def test_bounded_iff_no_drift_weight(self, rng):
        n = 1.45e-4
        x0 = rng.standard_normal(4) * np.array([1.0, 1.0, 1e-4, 1e-4])
        x0[3] = -2.0 * n * x0[0]
        assert cw_modal_decomp(n, x0).c2 == pytest.approx(0.0, abs=1e-18)
        x0[3] += 1e-5
        assert cw_modal_decomp(n, x0).c2 != 0.0

    def test_constants_match_eigenvector_solve(self, rng):
        # printed formulas vs V^-1 x0 on 1000 random states
        n = 1.45e-4
        v, j = cw_planar_eigvecs(n)
        a = cw_planar_plant(n)
        assert np.allclose(a @ v, v @ j, atol=1e-18)
        states = rng.standard_normal((1000, 4)) * np.array(
            [1.0, 1.0, 1e-4, 1e-4])
        vinv = np.linalg.inv(v)
        for x0 in states:
            c = vinv @ x0
            d = cw_modal_decomp(n, x0)
            scale = max(np.max(np.abs(c)), 1e-30)
            assert abs(np.real(c[0]) - d.c1) < 1e-12 * scale
            assert abs(np.real(c[1]) - d.c2) < 1e-12 * scale
            assert abs(np.real(c[2]) - d.c_re) < 1e-12 * scale
            assert abs(np.imag(c[2]) - d.c_im) < 1e-12 * scale

    def test_reconstruction_matches_stm(self, rng):
        n = 1.45e-4
        for _ in range(20):
            x0 = rng.standard_normal(4) * np.array([1.0, 1.0, 1e-4, 1e-4])
            d = cw_modal_decomp(n, x0)
            for t in np.linspace(0.0, 2.5 * TWO_PI / n, 9):
                expect = cw_stm_planar(n, t) @ x0
                got = d.reconstruct(np.array([t]))[0]
                assert np.allclose(got, expect,
                                   atol=1e-10 * max(1.0, np.max(np.abs(expect))))

    def test_rejects_zero_mean_motion(self):
        with pytest.raises(ValueError):
            cw_modal_decomp(0.0, [1.0, 0.0, 0.0, 0.0])
