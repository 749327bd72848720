import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from relmodes import (IntegrationError, MatrixLogError, PeriodicityError,
                      cw_modal_decomp,
                      cw_plant_full, cw_stm_planar, detect_eigenstructure,
                      fourier_periodic_fit, integrate_stm, lf_from_monodromy,
                      lf_qns, lf_transform, lti_closed, make_chief,
                      numeric_modal_decomp, qns_plant_theta, qns_r21,
                      real_matrix_log, state_transition, time_to_theta)
from relmodes.numeric import _step_exponentials
from relmodes.plants import (cartesian_plant_keplerian, cartesian_plant_theta,
                             cw_planar_plant)

from conftest import scaled_error

TWO_PI = 2.0 * math.pi


def keplerian_cartesian_plant(chief):
    return lambda t: cartesian_plant_keplerian(chief, time_to_theta(chief, t))


class TestIntegrateStm:
    def test_identity_at_start(self, molniya):
        """The dense output is I at t0 and the monodromy at t0 + period,
        bit for bit, so the pipeline takes both ends from it."""
        mono, stm_at = integrate_stm(keplerian_cartesian_plant(molniya), 0.0,
                                     100.0)
        ends = stm_at(np.array([0.0, 100.0]))
        assert np.array_equal(stm_at(0.0), np.eye(6))
        assert np.array_equal(ends[0], np.eye(6))
        assert np.array_equal(ends[1], mono)

    def test_constant_plant_matches_expm(self, rng):
        a = rng.standard_normal((6, 6)) * 0.01
        t_end = 7.0
        mono, _ = integrate_stm(lambda t: a, 0.0, t_end)
        ref = expm(a * t_end)
        assert np.max(np.abs(mono - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_cw_matches_closed_form(self):
        n = 1.45e-4
        t_end = 0.7 * TWO_PI / n
        mono, _ = integrate_stm(lambda t: cw_planar_plant(n), 0.0, t_end)
        ref = cw_stm_planar(n, t_end)
        assert np.max(np.abs(mono - ref)) < 1e-9 * np.max(np.abs(ref))

    def test_qns_monodromy_is_identity_plus_nilpotent(self, generic_chief):
        chief = generic_chief
        mono, _ = integrate_stm(lambda th: qns_plant_theta(chief, th),
                                chief.theta0, TWO_PI)
        n_mat = mono - np.eye(6)
        assert n_mat[1, 0] == pytest.approx(TWO_PI * qns_r21(chief),
                                            rel=1e-9)
        off = n_mat.copy()
        off[1, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-9

    def test_magnus_step_is_sixth_order(self):
        """One step's error falls as h^7 (2^7 = 128 per halving) on a
        plant whose values do not commute."""
        rng = np.random.default_rng(2)
        a0, a1, a2 = rng.standard_normal((3, 4, 4))

        def plant(t):
            t = np.asarray(t)[..., None, None]
            return a0 + t * a1 + np.sin(t) * a2

        errors = []
        for h in (0.2, 0.1, 0.05):
            ref = solve_ivp(lambda t, y: (plant(t) @ y.reshape(4, 4)).ravel(),
                            (0.0, h), np.eye(4).ravel(), method="DOP853",
                            rtol=1e-13, atol=1e-16).y[:, -1].reshape(4, 4)
            step = _step_exponentials(plant, np.array([0.0]), np.array([h]),
                                      np.ones((4, 4)))[0]
            errors.append(np.max(np.abs(step - ref)))
        assert errors[0] / errors[1] > 100.0
        assert errors[1] / errors[2] > 100.0

    def test_tol_bounds_the_monodromy_error(self, generic_chief):
        """tol is the summed local error of the Magnus steps: the
        monodromy misses the closed form by less than tol (max-scaled) and
        tightens with it."""
        chief = generic_chief
        plant = partial(cartesian_plant_theta, chief)
        ref = state_transition(chief, "cartesian", chief.theta0 + TWO_PI)
        errors = []
        for tol in (1e-6, 1e-8, 1e-10):
            mono, _ = integrate_stm(plant, chief.theta0, TWO_PI, tol)
            errors.append(np.max(np.abs(mono - ref)) / np.max(np.abs(ref)))
            assert errors[-1] < tol
        assert errors[1] < errors[0] / 30.0 and errors[2] < errors[1] / 30.0

    def test_plant_called_in_batches(self, generic_chief):
        """The plant is called on arrays of nodes, a block of steps at a
        time: DOP853 called it 1,292 times, one stage at a time."""
        chief = generic_chief
        calls = []

        def plant(theta):
            calls.append(np.shape(theta))
            return cartesian_plant_theta(chief, theta)

        numeric_modal_decomp(plant, chief.theta0, TWO_PI)
        assert len(calls) <= 30

    def test_traced_peak_memory(self, generic_chief):
        """The blocks bound the working set: the pipeline and 1,025 dense
        samples stay under 3 MB traced (one stack for the whole grid read
        5.9 MB)."""
        chief = generic_chief
        plant = partial(cartesian_plant_theta, chief)
        thetas = chief.theta0 + np.linspace(0.0, TWO_PI, 1025)
        numeric_modal_decomp(plant, chief.theta0, TWO_PI)  # warm caches
        tracemalloc.start()
        try:
            res = numeric_modal_decomp(plant, chief.theta0, TWO_PI)
            res.stm_at(thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_non_finite_plant_raises(self):
        def plant(t):
            a = np.zeros(np.shape(t) + (6, 6))
            a[..., 0, 3] = np.where(np.asarray(t) > 0.5, np.nan, 1.0)
            return a

        with pytest.raises(IntegrationError, match="finite"):
            integrate_stm(plant, 0.0, 1.0)

    def test_bad_period_or_tol_rejected(self, generic_chief):
        plant = partial(cartesian_plant_theta, generic_chief)
        for period, tol in ((0.0, 1e-12), (-1.0, 1e-12), (math.inf, 1e-12),
                            (TWO_PI, 0.0), (TWO_PI, math.nan)):
            with pytest.raises(ValueError, match="positive"):
                integrate_stm(plant, 0.0, period, tol)
        # a tol far under rounding asks for more steps than the cap, and
        # raises before allocating them
        with pytest.raises(IntegrationError, match="Magnus steps"):
            integrate_stm(plant, 0.0, TWO_PI, 1e-300)


class TestRealMatrixLog:
    def test_identity(self):
        lam, k = real_matrix_log(np.eye(6), 5.0)
        assert np.allclose(lam, 0.0)
        assert k == 1

    def test_unipotent_truncated_series(self, rng):
        n_mat = np.zeros((6, 6))
        n_mat[1, 0] = 37.5
        n_mat[1, 4] = -4.0
        m = np.eye(6) + n_mat
        t_ref = 3.0
        lam, k = real_matrix_log(m, t_ref)
        assert np.allclose(lam, n_mat / t_ref, rtol=1e-14)
        assert k == 2

    def test_log_exp_round_trip(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 6)) * 0.2
            m = expm(a)
            lam, _ = real_matrix_log(m, 1.0)
            assert np.max(np.abs(expm(lam) - m)) < 1e-9 * np.max(np.abs(m))

    def test_keplerian_monodromy_rate(self, generic_chief):
        chief = generic_chief
        mono, _ = integrate_stm(lambda th: qns_plant_theta(chief, th),
                                chief.theta0, TWO_PI)
        lam, _ = real_matrix_log(mono, TWO_PI)
        assert lam[1, 0] == pytest.approx(qns_r21(chief), rel=1e-6)

    def test_negative_axis_rejected(self):
        m = np.diag([1.0, 1.0, -0.5, 1.0, 1.0, 1.0])
        with pytest.raises(MatrixLogError, match="period"):
            real_matrix_log(m, 1.0)

    def test_singular_rejected(self):
        m = np.diag([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(MatrixLogError):
            real_matrix_log(m, 1.0)


class TestLfFromMonodromy:
    def test_lti_plant_gives_identity_transform(self):
        n = 1.45e-4
        t_end = TWO_PI / (3.0 * n)  # non-resonant span
        mono, stm_at = integrate_stm(lambda t: cw_plant_full(n), 0.0, t_end)
        ts = np.linspace(0.0, t_end, 40)
        stm = stm_at(ts)
        lam, k = real_matrix_log(mono, t_end)
        assert k is None
        samples, defect = lf_from_monodromy(ts, stm, lam)
        assert defect < 1e-7
        assert np.max(np.abs(samples - np.eye(6))) < 1e-7

    def test_batched_matches_per_sample_expm(self):
        """Off the unipotent branch (the CW pair at exp(+-i n T)) the
        stacked expm equals one expm per sample."""
        n = 1.45e-4
        t_end = TWO_PI / (3.0 * n)
        mono, stm_at = integrate_stm(lambda t: cw_plant_full(n), 0.0, t_end)
        ts = np.linspace(0.0, t_end, 129)
        stm = stm_at(ts)
        lam, k = real_matrix_log(mono, t_end)
        assert k is None
        samples, defect = lf_from_monodromy(ts, stm, lam, nilpotent_index=k)
        loop = np.array([phi @ expm(-lam * (t - ts[0]))
                         for t, phi in zip(ts, stm)])
        scale = np.max(np.abs(loop))
        assert np.max(np.abs(samples - loop)) <= 1e-15 * scale
        assert abs(defect - np.max(np.abs(loop[-1] - np.eye(6)))) <= 1e-15 * scale

    @pytest.mark.parametrize("orbit", ["generic_chief", "molniya"])
    def test_unipotent_series_matches_closed_form(self, orbit, request):
        """On the unipotent branch exp(-Lambda t) is the finite series
        I - Lambda t, and the samples meet the closed-form time-domain
        transform (the stacked expm of a norm-2e6 Lambda T missed it by
        6.5e-9 on the generic chief)."""
        chief = request.getfixturevalue(orbit)
        plant = keplerian_cartesian_plant(chief)
        mono, stm_at = integrate_stm(plant, 0.0, chief.period)
        ts = np.linspace(0.0, chief.period, 129)
        stm = stm_at(ts)
        lam, k = real_matrix_log(mono, chief.period)
        assert k == 2
        samples, defect = lf_from_monodromy(ts, stm, lam, nilpotent_index=k)
        pa = lf_transform(chief, "cartesian", time_to_theta(chief, ts),
                          indep="time")
        scale = np.max(np.abs(pa))
        series = stm @ (np.eye(6) - lam * ts[:, None, None])
        assert np.max(np.abs(samples - series)) <= 1e-15 * scale
        assert np.max(np.abs(samples - pa)) < 1e-9 * scale
        # each entry of P(T) - I over the size of the products forming it
        entry = np.maximum(1.0, np.abs(stm[-1])
                           @ np.abs(np.eye(6) - lam * ts[-1]))
        assert defect == pytest.approx(
            np.max(np.abs(samples[-1] - np.eye(6)) / entry), rel=1e-12)

    def test_matches_closed_form_qns_transform(self, generic_chief):
        chief = generic_chief
        mono, stm_at = integrate_stm(lambda th: qns_plant_theta(chief, th),
                                     chief.theta0, TWO_PI)
        ts = np.linspace(chief.theta0, chief.theta0 + TWO_PI, 33)
        stm = stm_at(ts)
        lam, k = real_matrix_log(mono, TWO_PI)
        samples, defect = lf_from_monodromy(ts, stm, lam, nilpotent_index=k)
        assert defect < 1e-7
        for th, p_num in zip(ts, samples):
            p_ana = lf_qns(chief, th)
            assert np.max(np.abs(p_num - p_ana)) < 1e-6


class TestFourierFit:
    def test_exact_trigonometric_polynomial(self):
        t0, period = 2.0, 11.0
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((3, 2, 6, 6))

        def signal(t):
            ph = TWO_PI * (t - t0) / period
            out = np.zeros((6, 6))
            for k in range(3):
                out += (coeffs[k, 0] * math.cos((k + 1) * ph)
                        + coeffs[k, 1] * math.sin((k + 1) * ph))
            return out

        grid = t0 + period * np.arange(64) / 64
        values = np.array([signal(t) for t in grid])
        fit, residual = fourier_periodic_fit(values, t0, period, 5)
        assert residual < 1e-12
        assert np.max(np.abs(fit(t0 + 3.917) - signal(t0 + 3.917))) < 1e-12
        assert np.max(np.abs(fit(t0) - fit(t0 + period))) < 1e-12

    def test_constant_input(self):
        values = np.tile(np.eye(6), (32, 1, 1))
        fit, residual = fourier_periodic_fit(values, 0.0, 4.0, 8)
        assert residual < 1e-14
        assert np.allclose(fit(1.2345), np.eye(6), atol=1e-14)

    def test_keplerian_plant_with_sufficient_harmonics(self, molniya):
        chief = molniya
        plant = keplerian_cartesian_plant(chief)
        n_samples = 1024
        grid = chief.period * np.arange(n_samples) / n_samples
        values = np.array([plant(t) for t in grid])
        _, residual = fourier_periodic_fit(values, 0.0, chief.period, 160)
        assert residual < 1e-10

    @pytest.mark.parametrize("n_harmonics", [4, 32, 200])
    def test_residual_matches_sample_loop(self, generic_chief, n_harmonics):
        chief = generic_chief
        plant = keplerian_cartesian_plant(chief)
        n_samples = 1024
        grid = chief.period * np.arange(n_samples) / n_samples
        values = np.array([plant(t) for t in grid])
        fit, residual = fourier_periodic_fit(values, 0.0, chief.period,
                                             n_harmonics)
        loop = max(np.max(np.abs(v - fit(t))) for v, t in zip(values, grid))
        assert abs(residual - loop) <= 1e-14 * np.max(np.abs(values))

    def test_fit_takes_any_shape(self, generic_chief):
        chief = generic_chief
        grid = chief.theta0 + TWO_PI * np.arange(256) / 256
        values = cartesian_plant_theta(chief, grid)
        fit, _ = fourier_periodic_fit(values, chief.theta0, TWO_PI, 16)
        t = chief.theta0 + np.linspace(0.0, TWO_PI, 12).reshape(4, 3)
        got = fit(t)
        assert got.shape == (4, 3, 6, 6)
        loop = np.array([[fit(x) for x in row] for row in t])
        assert np.max(np.abs(got - loop)) <= 1e-14 * np.max(np.abs(loop))

    def test_underdetermined_rejected(self):
        values = np.zeros((8, 6, 6))
        with pytest.raises(ValueError):
            fourier_periodic_fit(values, 0.0, 1.0, 4)


class TestEigenstructure:
    def test_diagonalizable(self, rng):
        d = np.diag([1.0, 2.0, 3.0, -1.0, 0.5, 0.1])
        s = rng.standard_normal((6, 6))
        a = s @ d @ np.linalg.inv(s)
        eig = detect_eigenstructure(a)
        assert sorted(len(c) for c in eig.chains) == [1] * 6
        assert np.allclose(np.sort(np.real(eig.eigenvalues)),
                           np.sort(np.diag(d)), atol=1e-8)

    def test_defective_chains_recovered(self, rng):
        # J = two 2-chains at 0 and 0.7, plus simple eigenvalues
        j = np.zeros((6, 6))
        j[0, 1] = 1.0
        j[2, 2] = j[3, 3] = 0.7
        j[2, 3] = 1.0
        j[4, 4] = -0.3
        j[5, 5] = 2.0
        s = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        a = s @ j @ np.linalg.inv(s)
        eig = detect_eigenstructure(a)
        assert sorted(len(c) for c in eig.chains) == [1, 1, 2, 2]
        for chain in eig.chains:
            ev = eig.eigenvalues[chain[0]]
            v = eig.V[:, chain[0]]
            assert np.linalg.norm(a @ v - ev * v) < 1e-6
            if len(chain) == 2:
                w = eig.V[:, chain[1]]
                assert np.linalg.norm(a @ w - ev * w - v) < 1e-6

    def test_complex_pairs(self):
        n = 1.45e-4
        eig = detect_eigenstructure(cw_plant_full(n))
        evs = np.sort_complex(eig.eigenvalues)
        expect = np.sort_complex(np.array(
            [0.0, 0.0, 1j * n, 1j * n, -1j * n, -1j * n]))
        assert np.allclose(evs, expect, atol=1e-10 * n)
        assert sorted(len(c) for c in eig.chains) == [1, 1, 1, 1, 2]


class TestPipeline:
    def test_cw_nonresonant_span_recovers_plant(self, molniya):
        n = molniya.n
        res = numeric_modal_decomp(lambda t: cw_plant_full(n), 0.0,
                                   molniya.period / 3.0, n_harmonics=4,
                                   n_samples=128)
        a = cw_plant_full(n)
        assert np.max(np.abs(res.Lambda - a)) < 1e-9 * np.max(np.abs(a))
        evs = res.eigenstructure.eigenvalues
        evs = evs[np.lexsort((np.real(evs), np.imag(evs)))]
        expect = np.array([-1j * n, -1j * n, 0.0, 0.0, 1j * n, 1j * n])
        assert np.allclose(evs, expect, atol=1e-8 * n)
        # the reduced modes and the planar closed-form decomposition
        # reconstruct the same trajectories
        x0 = np.array([0.3, -0.5, 0.0, 2e-5, 1e-5, 0.0])
        d = cw_modal_decomp(n, x0[[0, 1, 3, 4]])
        for t in np.linspace(0.0, molniya.period / 3.0, 7):
            got = res.reconstruct(x0, t)
            expect_planar = d.reconstruct(np.array([t]))[0]
            assert np.allclose(got[[0, 1, 3, 4]], expect_planar,
                               atol=1e-7 * max(1.0, np.linalg.norm(expect_planar)))

    def test_qns_theta_domain(self, generic_chief):
        chief = generic_chief
        res = numeric_modal_decomp(lambda th: qns_plant_theta(chief, th),
                                   chief.theta0, TWO_PI, n_harmonics=24,
                                   n_samples=256)
        n_mat = res.monodromy - np.eye(6)
        assert n_mat[1, 0] == pytest.approx(TWO_PI * qns_r21(chief),
                                            rel=1e-8)
        assert res.Lambda[1, 0] == pytest.approx(qns_r21(chief), rel=1e-8)
        assert sorted(len(c) for c in res.eigenstructure.chains) == \
            [1, 1, 1, 1, 2]

    def test_keplerian_cartesian_reproduces_analytic(self, molniya):
        chief = molniya
        res = numeric_modal_decomp(keplerian_cartesian_plant(chief), 0.0,
                                   chief.period, n_harmonics=32,
                                   n_samples=512)
        lam_ana = lti_closed(chief, "cartesian", indep="time").R
        scale = np.max(np.abs(lam_ana))
        assert np.max(np.abs(res.Lambda - lam_ana)) < 1e-6 * scale
        assert np.max(np.abs(res.eigenstructure.eigenvalues)) \
            * chief.period < 1e-5
        # transform samples against the analytically mapped transform
        worst = 0.0
        pscale = 0.0
        for j in range(0, 513, 64):
            t = res.t_samples[j]
            pa = lf_transform(chief, "cartesian", time_to_theta(chief, t),
                              indep="time")
            worst = max(worst, np.max(np.abs(res.lf_samples[j] - pa)))
            pscale = max(pscale, np.max(np.abs(pa)))
        assert worst < 1e-5 * pscale

    def test_lf_at_midpoints(self, generic_chief):
        """Between the samples the dense STM output keeps the transform at
        its on-sample accuracy (linear interpolation was 9e-5 off)."""
        chief = generic_chief
        res = numeric_modal_decomp(keplerian_cartesian_plant(chief), 0.0,
                                   chief.period)
        ts = res.t_samples
        assert np.array_equal(res.lf_at(ts), res.lf_samples)
        mids = 0.5 * (ts[:-1] + ts[1:])
        thetas = time_to_theta(chief, mids)
        pa = lf_transform(chief, "cartesian", thetas, indep="time")
        got = res.lf_at(mids)
        assert np.max(np.abs(got - pa)) < 1e-7 * np.max(np.abs(pa))
        assert np.array_equal(res.lf_at(mids[7]), got[7])

    def test_reconstruct_beyond_one_period(self, generic_chief):
        """P is periodic, so times outside the integrated period fold back
        into it (extrapolating the dense output missed by up to 4e20)."""
        chief = generic_chief
        res = numeric_modal_decomp(keplerian_cartesian_plant(chief), 0.0,
                                   chief.period)
        x0 = np.array([0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5])
        for frac in (1.2, 1.5, -0.3, 2.7):
            t = frac * chief.period
            got = res.reconstruct(x0, t)
            expect = state_transition(chief, "cartesian",
                                      time_to_theta(chief, t)) @ x0
            assert scaled_error(got, expect) < 1e-7, frac

    def test_aperiodic_content_reported_and_bounded(self, molniya):
        n = molniya.n
        span = molniya.period / 3.0  # off-resonance for the oscillators
        drift = 1e-3

        def plant(t):
            a = np.array(np.broadcast_to(cw_plant_full(n),
                                         np.shape(t) + (6, 6)))
            a[..., 3, 0] *= 1.0 + drift * np.asarray(t) / span
            return a

        res = numeric_modal_decomp(plant, 0.0, span, n_harmonics=8,
                                   n_samples=128)
        assert res.periodic_fit_residual > 0.0
        # consecutive intervals see slightly different eigenvalues
        res2 = numeric_modal_decomp(plant, span, span, n_harmonics=8,
                                    n_samples=128)
        ev1 = np.sort_complex(res.eigenstructure.eigenvalues)
        ev2 = np.sort_complex(res2.eigenstructure.eigenvalues)
        assert np.max(np.abs(ev1 - ev2)) > 0.0

        def too_aperiodic(t):
            a = np.array(np.broadcast_to(cw_plant_full(n),
                                         np.shape(t) + (6, 6)))
            a[..., 0, 3] += 0.5 * np.asarray(t) / span  # ramp on an O(1) entry
            return a

        with pytest.raises(PeriodicityError):
            numeric_modal_decomp(too_aperiodic, 0.0, span, n_harmonics=8,
                                 n_samples=128, max_fit_residual=1e-4)

    def test_near_periodic_plant_integrates_its_fit(self, molniya):
        """A plant that does not return to its start after the period is
        replaced by its periodic fit, which the integrator calls on arrays
        of nodes."""
        n = molniya.n
        span = molniya.period / 3.0

        def plant(t):
            a = np.array(np.broadcast_to(cw_plant_full(n),
                                         np.shape(t) + (6, 6)))
            a[..., 0, 3] += 1e-6 * np.asarray(t) / span
            return a

        res = numeric_modal_decomp(plant, 0.0, span, n_harmonics=8,
                                   n_samples=128)
        assert res.periodic_fit_residual > 0.0
        a = cw_plant_full(n)
        assert np.max(np.abs(res.Lambda - a)) < 1e-5 * np.max(np.abs(a))

    def test_liouville_determinant(self, molniya):
        res = numeric_modal_decomp(keplerian_cartesian_plant(molniya), 0.0,
                                   molniya.period, n_harmonics=16,
                                   n_samples=256)
        assert res.liouville_mismatch < 1e-12

    def test_liouville_with_nonzero_trace_integral(self):
        """Every Keplerian plant has a zero trace integral; this one has
        T sum(c_k), so a quadrature that drops the period or misses the
        mean trace shows (dropping the period reads 0.045)."""
        period = 3.0
        c = np.array([0.1, -0.2, 0.05, 0.3, -0.15, 0.02])
        upper = np.triu(np.random.default_rng(3).standard_normal((6, 6)), 1)

        def plant(t):
            wave = 0.3 * np.sin(TWO_PI * np.asarray(t) / period)
            return upper + (c + wave[..., None])[..., None] * np.eye(6)

        res = numeric_modal_decomp(plant, 0.0, period, n_harmonics=8,
                                   n_samples=64)
        assert np.linalg.det(res.monodromy) == pytest.approx(
            math.exp(period * c.sum()), rel=1e-10)
        assert res.liouville_mismatch < 1e-12


@given(a=st.floats(7000.0, 45000.0), e=st.floats(0.01, 0.95),
       inc=st.floats(math.radians(10.0), math.radians(170.0)),
       raan=st.floats(0.0, TWO_PI), argp=st.floats(0.0, TWO_PI),
       f0=st.floats(0.0, TWO_PI))
@settings(max_examples=25, deadline=None)
def test_numeric_lambda_matches_closed_form(a, e, inc, raan, argp, f0):
    assume(abs(math.sin(f0)) >= 0.2)
    chief = make_chief(a, e, inc, raan, argp, f0)
    res = numeric_modal_decomp(keplerian_cartesian_plant(chief), 0.0,
                               chief.period)
    lam_ana = lti_closed(chief, "cartesian", indep="time").R
    assert np.max(np.abs(res.Lambda - lam_ana)) \
        < 1e-9 * np.max(np.abs(lam_ana))


def test_numeric_lambda_at_high_eccentricity():
    """The generic orbit at e = 0.9, 0.95 and 0.98: the unipotent branch
    checks its log by the finite series, where expm of N (norm 2e6 to 4e6)
    lost 6e-8 to 6e-6 to rounding and failed the round trip."""
    for e in (0.9, 0.95, 0.98):
        chief = make_chief(26600.0, e, math.radians(63.4), 0.3,
                           math.radians(215.0), math.radians(40.0))
        res = numeric_modal_decomp(keplerian_cartesian_plant(chief), 0.0,
                                   chief.period)
        lam_ana = lti_closed(chief, "cartesian", indep="time").R
        assert res.nilpotent_index == 2
        assert np.max(np.abs(res.Lambda - lam_ana)) \
            < 1e-11 * np.max(np.abs(lam_ana)), e
        assert res.eigenstructure.chains == ((0, 1), (2,), (3,), (4,), (5,))


@pytest.mark.parametrize("orbit", [
    # exponents up to 1.1e-5/T and six 1-chains before the chains came
    # from the ranks of the powers of the nilpotent Lambda
    (55624.0, 0.789, 156.696, 140.281, 206.63, 158.595),
    # the e = 0.55 chief of the benchmark survey set
    (16995.722350953165, 0.5520731328016755, 166.05540792720578,
     131.8020618665221, 10.727145202524895, 192.34186478808908),
], ids=["e=0.789", "survey-e=0.552"])
def test_drift_chain_on_theta_domain_reduction(orbit):
    a, e, *angles = orbit
    chief = make_chief(a, e, *np.radians(angles))
    res = numeric_modal_decomp(lambda th: cartesian_plant_theta(chief, th),
                               chief.theta0, TWO_PI)
    assert res.nilpotent_index == 2
    assert res.eigenstructure.chains == ((0, 1), (2,), (3,), (4,), (5,))
    assert np.all(res.eigenstructure.eigenvalues == 0.0)
    lam_ana = lti_closed(chief, "cartesian").R
    assert np.max(np.abs(res.Lambda - lam_ana)) \
        < 1e-9 * np.max(np.abs(lam_ana))
