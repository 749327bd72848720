import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relmodes import (NearSingularMatrixError, cart_sph_linear_at,
                      constants_dynamics, eval_at_theta, extract_constants,
                      geo_map, integrate_constants, lti_closed, make_chief,
                      modal_constants, modal_state_matrix, mode_trajectory,
                      no_drift_maneuver_line,
                      propagate_linear, psi_time_factory, rebase_chief,
                      reconstruct, remap_epoch, shorthand_abc,
                      stationary_plane, sweep_bounded_family, time_to_theta)
from relmodes.plants import cartesian_plant_keplerian

from conftest import batch_grid, batch_vs_scalar_error, random_chief

TWO_PI = 2.0 * math.pi


def bounded_state(chief, rng, scale=1e-5, domain="cartesian"):
    doe = np.concatenate([[0.0], scale * rng.standard_normal(5)])
    return geo_map(chief, chief.theta0, domain) @ doe


class TestReconstruct:
    def test_zero_constants(self, generic_chief):
        c = modal_constants(generic_chief, np.zeros(6), "cartesian")
        out = reconstruct(generic_chief, c,
                          generic_chief.theta0 + np.linspace(0, 7, 9),
                          "cartesian")
        assert np.all(out == 0.0)

    def test_bounded_trajectories_return(self, generic_chief, rng):
        for _ in range(5):
            x0 = bounded_state(generic_chief, rng)
            c = modal_constants(generic_chief, x0, "cartesian")
            assert abs(c.c[5]) < 1e-14 * np.max(np.abs(c.c))
            end = reconstruct(generic_chief, c,
                              generic_chief.theta0 + TWO_PI, "cartesian")
            assert (np.linalg.norm(end - x0)
                    < 1e-9 * np.linalg.norm(x0))

    def test_matches_linear_propagation(self, molniya, rng):
        chief = molniya
        plant = lambda t: cartesian_plant_keplerian(chief,
                                                    time_to_theta(chief, t))
        for _ in range(3):
            x0 = bounded_state(chief, rng, scale=2e-5)
            c = modal_constants(chief, x0, "cartesian")
            grid_t, states = propagate_linear(plant, x0, (0.0, chief.period),
                                              80)
            thetas = np.array([time_to_theta(chief, t) for t in grid_t])
            rec = reconstruct(chief, c, thetas, "cartesian")
            ps = np.max(np.linalg.norm(states[:, :3], axis=1))
            vs = np.max(np.linalg.norm(states[:, 3:], axis=1))
            assert np.max(np.linalg.norm(rec[:, :3] - states[:, :3],
                                         axis=1)) < 1e-6 * ps
            assert np.max(np.linalg.norm(rec[:, 3:] - states[:, 3:],
                                         axis=1)) < 1e-6 * vs

    def test_flagship_element_difference_case(self, molniya):
        # de = 0.002, di = 0.2 deg, df0 = 0: bounded, out-of-plane motion
        # carried entirely by the zdot mode since z0 = 0 at this epoch
        chief = molniya
        de, di = 0.002, math.radians(0.2)
        w_d = chief.argp
        doe = np.array([0.0, 0.0, di,
                        (chief.e + de) * math.cos(w_d) - chief.q1,
                        (chief.e + de) * math.sin(w_d) - chief.q2, 0.0])
        x0 = geo_map(chief, chief.theta0, "cartesian") @ doe
        assert abs(x0[2]) < 1e-12
        c = modal_constants(chief, x0, "cartesian")
        assert abs(c.c[5]) < 1e-10 * np.max(np.abs(c.c))  # bounded
        assert abs(c.c[1]) < 1e-12  # no z-offset mode content
        assert abs(c.c[3]) > 0.0    # zdot mode carries the tilt
        plant = lambda t: cartesian_plant_keplerian(chief,
                                                    time_to_theta(chief, t))
        grid_t, states = propagate_linear(plant, x0, (0.0, chief.period), 60)
        thetas = np.array([time_to_theta(chief, t) for t in grid_t])
        rec = reconstruct(chief, c, thetas, "cartesian")
        scale = np.max(np.linalg.norm(states[:, :3], axis=1))
        assert np.max(np.linalg.norm(rec[:, :3] - states[:, :3],
                                     axis=1)) < 1e-6 * scale

    @pytest.mark.parametrize("domain", ["qns", "cartesian", "spherical"])
    def test_state_matrix_batch_matches_scalar(self, generic_chief, domain):
        chief = generic_chief
        grid = batch_grid(chief)
        assert modal_state_matrix(chief, domain, grid).shape == (721, 6, 6)
        assert batch_vs_scalar_error(
            lambda th: modal_state_matrix(chief, domain, th), grid) < 1e-15

    def test_output_shapes(self, generic_chief, rng):
        chief = generic_chief
        c = modal_constants(chief, rng.standard_normal(6), "cartesian")
        assert reconstruct(chief, c, chief.theta0 + 1.0).shape == (6,)
        grid = chief.theta0 + np.linspace(0.0, TWO_PI, 11)
        assert reconstruct(chief, c, grid).shape == (11, 6)
        assert mode_trajectory(chief, 6, grid, "cartesian").shape == (11, 6)

    def test_superposition(self, generic_chief, rng):
        ca = modal_constants(generic_chief, rng.standard_normal(6) * 1e-3,
                             "cartesian")
        cb = modal_constants(generic_chief, rng.standard_normal(6) * 1e-3,
                             "cartesian")
        th = generic_chief.theta0 + 2.4
        xa = reconstruct(generic_chief, ca, th, "cartesian")
        xb = reconstruct(generic_chief, cb, th, "cartesian")
        csum = modal_constants(generic_chief, np.zeros(6), "cartesian")
        csum = type(ca)(c=ca.c + cb.c, domain="cartesian",
                        theta0=ca.theta0)
        xab = reconstruct(generic_chief, csum, th, "cartesian")
        assert np.allclose(xab, xa + xb, rtol=1e-12, atol=1e-15)

    def test_spherical_cartesian_equivalence(self, generic_chief, rng):
        chief = generic_chief
        doe = np.concatenate([[0.0], 1e-5 * rng.standard_normal(5)])
        xc0 = geo_map(chief, chief.theta0, "cartesian") @ doe
        xs0 = geo_map(chief, chief.theta0, "spherical") @ doe
        cc = modal_constants(chief, xc0, "cartesian")
        cs = modal_constants(chief, xs0, "spherical")
        for th in chief.theta0 + np.linspace(0.0, TWO_PI, 15):
            xc = reconstruct(chief, cc, th, "cartesian")
            xs = reconstruct(chief, cs, th, "spherical")
            fwd, _ = cart_sph_linear_at(chief, th)
            assert (np.linalg.norm(fwd @ xc - xs)
                    < 1e-9 * np.linalg.norm(xs))


class TestModeGeometry:
    def test_out_of_plane_partition(self, generic_chief):
        grid = generic_chief.theta0 + np.linspace(0.0, TWO_PI, 121)
        for k in (2, 4):
            m = mode_trajectory(generic_chief, k, grid, "cartesian",
                                normalize=True)
            assert np.max(np.abs(m[:, [0, 1, 3, 4]])) < 1e-10
        for k in (1, 3, 5, 6):
            m = mode_trajectory(generic_chief, k, grid, "cartesian",
                                normalize=True)
            assert np.max(np.abs(m[:, [2, 5]])) == 0.0

    def test_only_drift_mode_is_secular(self, generic_chief):
        th0 = generic_chief.theta0
        start, end = modal_state_matrix(generic_chief, "cartesian",
                                        [th0, th0 + TWO_PI])
        for k in range(6):
            gap = np.linalg.norm(end[:, k] - start[:, k])
            scale = np.linalg.norm(start[:, k])
            if k == 5:
                assert gap > 1e-6 * scale
            else:
                assert gap < 1e-9 * max(scale, 1e-12)

    def test_drift_direction_near_circular(self):
        chief = make_chief(12000.0, 1e-4, 1.0, 0.0, math.radians(270.0),
                           math.radians(90.0))
        start, end = modal_state_matrix(chief, "cartesian",
                                        [chief.theta0, chief.theta0 + TWO_PI])
        gap = end[:, 5] - start[:, 5]
        # secular advance per orbit is along-track
        assert abs(gap[1]) > 50.0 * np.linalg.norm(gap[[0, 2, 3, 5]])

    def test_mode5_offset_circle_extent(self):
        # e = 0.5: the drift-root mode is a circle centered on the
        # along-track axis; normalized extents |y| in [1/3, 1]
        chief = make_chief(26600.0, 0.5, math.radians(63.4), 0.0,
                           math.radians(270.0), math.radians(90.0))
        grid = chief.theta0 + np.linspace(0.0, TWO_PI, 2401)
        m5 = mode_trajectory(chief, 5, grid, "cartesian", normalize=True)
        along = np.abs(m5[:, 1])
        assert np.min(along) == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert np.max(along) == pytest.approx(1.0, abs=1e-3)
        center = 0.5 * (np.min(along) + np.max(along))
        assert center == pytest.approx(2.0 / 3.0, abs=1e-3)
        # radius-to-center ratio equals the eccentricity
        radius = 0.5 * (np.max(along) - np.min(along))
        assert radius / center == pytest.approx(chief.e, abs=1e-3)

    def test_mode5_small_eccentricity_circle(self):
        chief = make_chief(26600.0, 0.01, math.radians(63.4), 0.0,
                           math.radians(270.0), math.radians(90.0))
        grid = chief.theta0 + np.linspace(0.0, TWO_PI, 1201)
        m5 = mode_trajectory(chief, 5, grid, "cartesian", normalize=True)
        # small circle: radius/|center| ~ e, center along-track
        radius = 0.5 * (np.max(np.abs(m5[:, 1])) - np.min(np.abs(m5[:, 1])))
        center = 0.5 * (np.max(np.abs(m5[:, 1])) + np.min(np.abs(m5[:, 1])))
        assert radius / center == pytest.approx(0.01, abs=2e-3)

    @pytest.mark.parametrize("argp_deg,tol", [(215.0, 1e-12), (270.0, 1e-12)])
    def test_spherical_mode1_stationary_point(self, argp_deg, tol):
        # the first spherical mode collapses to a point in the
        # (dr/r, theta_r) plane; exact for generic epochs and for q1 = 0
        # chiefs (argp = 270 deg) alike
        chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                           math.radians(argp_deg), math.radians(145.0))
        grid = chief.theta0 + np.linspace(0.0, TWO_PI, 200)
        m1 = mode_trajectory(chief, 1, grid, "spherical", normalize=False)
        rr = np.array([eval_at_theta(chief, th).r for th in grid])
        dr_over_r = m1[:, 0] / rr
        th_r = m1[:, 1]
        spread = max(np.ptp(dr_over_r), np.ptp(th_r))
        scale = max(np.max(np.abs(dr_over_r)), np.max(np.abs(th_r)))
        assert spread < tol * scale

    def test_mode_index_validation(self, generic_chief):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            mode_trajectory(generic_chief, 0, grid, "cartesian")
        with pytest.raises(ValueError):
            mode_trajectory(generic_chief, 7, grid, "cartesian")


class TestEpochRemap:
    def test_identity_remap(self, generic_chief, rng):
        c = modal_constants(generic_chief, rng.standard_normal(6) * 1e-3,
                            "cartesian")
        c2 = remap_epoch(generic_chief, c, generic_chief.theta0)
        assert np.allclose(c2.c, c.c, rtol=1e-12, atol=1e-14)

    def test_round_trip(self, generic_chief, rng):
        c = modal_constants(generic_chief, rng.standard_normal(6) * 1e-3,
                            "cartesian")
        th1 = generic_chief.theta0 + 2.0
        c1 = remap_epoch(generic_chief, c, th1)
        back = remap_epoch(rebase_chief(generic_chief, th1), c1,
                           generic_chief.theta0)
        assert np.allclose(back.c, c.c,
                           atol=1e-10 * np.max(np.abs(c.c)))

    def test_same_physical_trajectory(self, generic_chief, rng):
        chief = generic_chief
        c = modal_constants(chief, bounded_state(chief, rng, 2e-5),
                            "cartesian")
        th_new = chief.theta0 + 2.4
        c2 = remap_epoch(chief, c, th_new)
        chief2 = rebase_chief(chief, th_new)
        for th in chief.theta0 + np.linspace(0.0, TWO_PI, 50):
            xa = reconstruct(chief, c, th, "cartesian")
            xb = reconstruct(chief2, c2, th, "cartesian")
            assert np.linalg.norm(xa - xb) < 1e-8 * np.linalg.norm(xa)

    def test_boundedness_is_epoch_invariant(self, generic_chief, rng):
        chief = generic_chief
        c = modal_constants(chief, bounded_state(chief, rng), "cartesian")
        assert abs(c.c[5]) < 1e-14 * np.max(np.abs(c.c))
        c2 = remap_epoch(chief, c, chief.theta0 + 1.3)
        assert abs(c2.c[5]) < 1e-10 * np.max(np.abs(c2.c))


    def test_singular_epoch_raises(self, singular_chief):
        # at e*sin(f0) = 0 no local-coordinate weights exist, whether
        # solved there or remapped onto that epoch
        chief = singular_chief
        x0 = np.array([0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5])
        for domain in ("cartesian", "spherical"):
            with pytest.raises(NearSingularMatrixError):
                extract_constants(chief, x0, chief.theta0, domain)
            if chief.e > 0.0:
                regular = rebase_chief(chief, chief.theta0 + 1.0)
                c = modal_constants(regular, x0, domain)
                with pytest.raises(NearSingularMatrixError):
                    remap_epoch(regular, c, chief.theta0)
        # the element-difference basis is regular at every epoch
        assert np.all(np.isfinite(
            extract_constants(chief, x0, chief.theta0, "qns").c))


class TestManeuverLine:
    def test_circular_line_is_radial(self):
        chief = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        d = no_drift_maneuver_line(chief, chief.theta0 + 1.1)
        assert abs(d[1]) < 1e-12

    def test_epoch_slope(self, molniya):
        d = no_drift_maneuver_line(molniya)
        st0 = eval_at_theta(molniya, molniya.theta0)
        assert d[1] / d[0] == pytest.approx(-st0.vr / st0.vt, rel=1e-12)
        assert d[1] / d[0] == pytest.approx(
            shorthand_abc(molniya).Aq * st0.r / molniya.p, rel=1e-12)

    def test_on_line_impulse_preserves_boundedness(self, generic_chief, rng):
        chief = generic_chief
        c = modal_constants(chief, bounded_state(chief, rng), "cartesian")
        th_m = chief.theta0 + 1.7
        x_m = reconstruct(chief, c, th_m, "cartesian")
        d = no_drift_maneuver_line(chief, th_m)
        chief_m = rebase_chief(chief, th_m)
        for mag in (1e-6, 1e-5):
            dv = np.array([0, 0, 0, d[0] * mag, d[1] * mag, 0.0])
            c_new = modal_constants(chief_m, x_m + dv, "cartesian")
            assert abs(c_new.c[5]) < 1e-12 * mag
        # off-line impulses change the drift weight linearly
        off = np.array([0, 0, 0, -d[1], d[0], 0.0])
        d1 = modal_constants(chief_m, x_m + 1e-6 * off, "cartesian").c[5]
        d2 = modal_constants(chief_m, x_m + 2e-6 * off, "cartesian").c[5]
        assert abs(d1) > 0.0
        assert d2 == pytest.approx(2.0 * d1, rel=1e-9)


class TestStationaryPlane:
    def test_orthogonality(self, rng):
        for _ in range(20):
            chief = random_chief(rng)
            plane = stationary_plane(chief)
            num = abs(np.dot(plane.zeta, plane.n_vec))
            den = (np.linalg.norm(plane.zeta)
                   * np.linalg.norm(plane.n_vec))
            assert num / den < 1e-14

    def test_rf_matches_lti_columns(self, generic_chief):
        plane = stationary_plane(generic_chief)
        sh = shorthand_abc(generic_chief)
        sys = lti_closed(generic_chief, "spherical")
        scale = np.max(np.abs(sys.R))
        assert np.allclose(sys.R[:, 3], sh.Aq * plane.R_f,
                           atol=1e-12 * scale)

    def test_invariant_along_natural_flow(self, generic_chief, rng):
        chief = generic_chief
        plane = stationary_plane(chief)
        sys = lti_closed(chief, "spherical")
        chi0 = rng.standard_normal(6) * np.array([0.3, 1.0, 0.5, 1e-3,
                                                  1e-5, 1e-4])
        rho_n0 = np.dot(chi0[[0, 3, 4]], plane.n_vec)
        for dth in np.linspace(0.0, TWO_PI, 25):
            chi = (np.eye(6) + sys.R * dth) @ chi0
            # chi3 and chi6 stationary, rho.n conserved
            assert chi[2] == chi0[2] and chi[5] == chi0[5]
            rho_n = np.dot(chi[[0, 3, 4]], plane.n_vec)
            assert abs(rho_n - rho_n0) < 1e-9 * abs(rho_n0)

    def test_on_plane_is_stationary(self, generic_chief, rng):
        chief = generic_chief
        plane = stationary_plane(chief)
        sys = lti_closed(chief, "spherical")
        # build rho orthogonal to n, embed, and check the flow freezes
        n_hat = plane.n_vec / np.linalg.norm(plane.n_vec)
        v = rng.standard_normal(3)
        rho = v - np.dot(v, n_hat) * n_hat
        chi0 = np.zeros(6)
        chi0[[0, 3, 4]] = rho
        chi0[1] = 0.7
        drift = sys.R @ chi0
        assert np.linalg.norm(drift) < 1e-12 * np.linalg.norm(sys.R)

    def test_off_plane_steers_chi2(self, generic_chief):
        chief = generic_chief
        plane = stationary_plane(chief)
        sys = lti_closed(chief, "spherical")
        chi0 = np.zeros(6)
        chi0[[0, 3, 4]] = plane.n_vec / np.linalg.norm(plane.n_vec)
        rate = (sys.R @ chi0)[1]
        expect = plane.chi2_rate(chi0[[0, 3, 4]])
        assert rate == pytest.approx(expect, rel=1e-12)
        chi_1 = (np.eye(6) + sys.R * 1.0) @ chi0
        chi_2 = (np.eye(6) + sys.R * 2.0) @ chi0
        assert (chi_2[1] - chi0[1]) == pytest.approx(
            2.0 * (chi_1[1] - chi0[1]), rel=1e-12)


class TestBoundedFamily:
    def test_anchor_and_drift_constraint(self, molniya):
        members = sweep_bounded_family(molniya, 0.08, 0.09,
                                       [-2e-5, 0.0, 2e-5, 4e-5])
        c1s = np.array([m.constants.c[0] for m in members])
        c5s = np.array([m.constants.c[4] for m in members])
        c3s = np.array([m.constants.c[2] for m in members])
        for m in members:
            assert m.state0[0] == 0.08 and m.state0[1] == 0.09
            assert abs(m.constants.c[5]) < 1e-12
            x0 = reconstruct(molniya, m.constants, molniya.theta0,
                             "cartesian")
            assert x0[0] == pytest.approx(0.08, abs=1e-9)
            assert x0[1] == pytest.approx(0.09, abs=1e-9)
        assert np.ptp(c1s) <= 1e-12 * max(1.0, np.max(np.abs(c1s)))
        assert np.ptp(c5s) <= 1e-12 * max(1.0, np.max(np.abs(c5s)))
        assert np.ptp(c3s) > 0.0

    def test_family_through_origin(self, generic_chief):
        members = sweep_bounded_family(generic_chief, 0.0, 0.0,
                                       [1e-5, 2e-5])
        for m in members:
            assert m.constants.c[0] == pytest.approx(0.0, abs=1e-18)
            assert m.constants.c[4] == pytest.approx(0.0, abs=1e-18)


class TestConstantsDynamics:
    def test_unforced_constants_are_stationary(self, generic_chief, rng):
        chief = generic_chief
        c0 = modal_constants(chief, bounded_state(chief, rng), "cartesian")
        t_grid = np.linspace(0.0, chief.period, 25)
        cs = integrate_constants(chief, "cartesian", c0.c, t_grid)
        drift = np.max(np.linalg.norm(cs - c0.c, axis=1))
        assert drift < 1e-8 * np.linalg.norm(c0.c)

    def test_forced_dual_path(self, generic_chief, rng):
        chief = generic_chief
        x0 = bounded_state(chief, rng, 2e-5)
        c0 = modal_constants(chief, x0, "cartesian")
        u = np.array([2e-9, 1e-8, -4e-9])
        t_arc = np.linspace(0.0, chief.period / 15.0, 9)
        cs = integrate_constants(chief, "cartesian", c0.c, t_arc,
                                 control_fn=lambda t, x: u)
        b = np.vstack([np.zeros((3, 3)), np.eye(3)])

        def rhs(t, x):
            th = time_to_theta(chief, t)
            return cartesian_plant_keplerian(chief, th) @ x + b @ u

        sol = solve_ivp(rhs, (0.0, t_arc[-1]), x0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        psi = psi_time_factory(chief, "cartesian")
        c_end = np.linalg.solve(psi(t_arc[-1]), sol.y[:, -1])
        dc_modal = cs[-1] - c0.c
        dc_state = c_end - c0.c
        assert (np.linalg.norm(dc_modal - dc_state)
                < 1e-6 * np.linalg.norm(dc_state))

    def test_artificial_plant_deviation(self, generic_chief, rng):
        chief = generic_chief
        psi = psi_time_factory(chief, "cartesian")
        x = bounded_state(chief, rng)
        delta_a = np.zeros((6, 6))
        delta_a[3, 0] = 1e-9
        rate = constants_dynamics(psi(10.0), x,
                                  extra_fn=lambda s: delta_a @ s)
        assert np.linalg.norm(rate) > 0.0
        expect = np.linalg.solve(psi(10.0), delta_a @ x)
        assert np.allclose(rate, expect, rtol=1e-12)

    def test_extraction_inverts_reconstruction(self, generic_chief, rng):
        chief = generic_chief
        c0 = modal_constants(chief, bounded_state(chief, rng), "cartesian")
        th = chief.theta0 + 3.1
        x = reconstruct(chief, c0, th, "cartesian")
        back = extract_constants(chief, x, th, "cartesian")
        assert np.allclose(back.c, c0.c, atol=1e-10 * np.max(np.abs(c0.c)))


class TestCircularLimit:
    def test_two_to_one_ellipse(self):
        chief = make_chief(26600.0, 1e-4, math.radians(63.4), 0.0,
                           math.radians(270.0), math.radians(90.0))
        st0 = eval_at_theta(chief, chief.theta0)
        sh = shorthand_abc(chief)
        x0 = np.array([0.05, 0.12, 0.0, 0.0, 0.0, 0.0])
        x0[4] = -(((chief.p / st0.r + 1.0) * (chief.p / st0.r)
                   * chief.n / chief.eta**3) * x0[0]
                  + st0.vr / (st0.vt * sh.Cq) * x0[1]
                  + st0.vr / st0.vt * x0[3])
        c = modal_constants(chief, x0, "cartesian")
        grid = chief.theta0 + np.linspace(0.0, TWO_PI, 720)
        traj = reconstruct(chief, c, grid, "cartesian")
        ax = 0.5 * (traj[:, 0].max() - traj[:, 0].min())
        ay = 0.5 * (traj[:, 1].max() - traj[:, 1].min())
        assert ay / ax == pytest.approx(2.0, rel=0.01)
