"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them inline).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from relmodes import (cw_modal_decomp, cw_planar_eigvecs, cw_planar_plant,
                      cw_stm_planar, drift_constant, geo_map,
                      integrate_constants, lf_defining_residual, lf_qns,
                      lf_transform, lti_closed, lti_qns, make_chief,
                      map_lti, modal_constants, modal_state_matrix,
                      mode_trajectory, numeric_modal_decomp, propagate_linear,
                      qns_plant_theta, rebase_chief,
                      reconstruct, remap_epoch, stationary_plane,
                      state_transition, time_to_theta)
from relmodes.io import chief_from_config
from relmodes.plants import cartesian_plant_keplerian
from relmodes.twobody import nonlinear_relative_trajectory

from conftest import SINGULAR_ORBITS, integrate_cartesian, scaled_error

TWO_PI = 2.0 * math.pi
MU = 398600.4418


def molniya_chief():
    return make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                      math.radians(270.0), math.radians(90.0))


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def bounded_cartesian_state(chief, rng, scale=1e-5):
    doe = np.concatenate([[0.0], scale * rng.standard_normal(5)])
    return geo_map(chief, chief.theta0, "cartesian") @ doe


def test_criterion_01_cw_closed_form_suite():
    t_start = time.time()
    # variational equation by finite differences, bound scaled with the
    # STM magnitude (entries reach ~40 at one period)
    worst_var = 0.0
    for n, h in ((1.0, 1e-5), (1.45e-4, 1e-2)):
        a = cw_planar_plant(n)
        for t in np.linspace(0.05 / n, TWO_PI / n, 16):
            phi = cw_stm_planar(n, t)
            dphi = (cw_stm_planar(n, t + h) - cw_stm_planar(n, t - h)) / (2 * h)
            resid = np.max(np.abs(dphi - a @ phi))
            worst_var = max(worst_var,
                            resid / (n * max(1.0, np.max(np.abs(phi)))))
    # printed constants against the eigenvector solve, 1000 random states
    n = 1.45e-4
    v, j = cw_planar_eigvecs(n)
    vinv = np.linalg.inv(v)
    rng = np.random.default_rng(11)
    states = rng.standard_normal((1000, 4)) * np.array([1, 1, 1e-4, 1e-4])
    worst_c = 0.0
    for x0 in states:
        c_eig = vinv @ x0
        d = cw_modal_decomp(n, x0)
        scale = max(np.max(np.abs(c_eig)), 1e-30)
        worst_c = max(worst_c,
                      abs(np.real(c_eig[0]) - d.c1) / scale,
                      abs(np.real(c_eig[1]) - d.c2) / scale,
                      abs(np.real(c_eig[2]) - d.c_re) / scale,
                      abs(np.imag(c_eig[2]) - d.c_im) / scale)
    evs = np.sort_complex(np.linalg.eigvals(cw_planar_plant(n)))
    ev_ok = np.allclose(evs, np.sort_complex(
        np.array([0, 0, 1j * n, -1j * n])), atol=1e-12 * n)
    elapsed = time.time() - t_start
    ok = worst_var < 1e-8 and worst_c < 1e-12 and ev_ok and elapsed < 1.0
    report(1, ok, f"variational {worst_var:.2e} (<1e-8 scaled), constants "
                  f"{worst_c:.2e} (<1e-12), eigvals {{0,0,+-ni}}: {ev_ok}, "
                  f"{elapsed:.2f}s (<1s)")


def test_criterion_02_qns_defining_ode():
    t_start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for e in (0.01, 0.1, 0.5, 0.74, 0.9):
        for _ in range(8):
            chief = make_chief(rng.uniform(8000.0, 45000.0), e, 1.1, 0.0,
                               rng.uniform(0.0, TWO_PI),
                               rng.uniform(0.0, TWO_PI))
            r = lti_qns(chief).R
            ths = chief.theta0 + np.linspace(0.05, TWO_PI - 0.05, 25)
            worst = max(worst, lf_defining_residual(
                lambda th, c=chief: lf_qns(c, th),
                lambda th, c=chief: qns_plant_theta(c, th), r, ths))
    elapsed = time.time() - t_start
    ok = worst < 1e-7 and elapsed < 5.0
    report(2, ok, f"residual {worst:.2e} (<1e-7) over 5 eccentricities x 8 "
                  f"epochs, {elapsed:.2f}s (<5s)")


def test_criterion_03_cross_coordinate_mapping():
    t_start = time.time()
    rng = np.random.default_rng(314)
    worst = 0.0
    jordan_ok = True
    count = 0
    while count < 100:
        e = rng.uniform(0.01, 0.92)
        f0 = rng.uniform(0.0, TWO_PI)
        if abs(e * math.sin(f0)) < 1e-3:
            continue
        count += 1
        chief = make_chief(rng.uniform(7000.0, 45000.0), e,
                           rng.uniform(0.1, 3.0), rng.uniform(0.0, TWO_PI),
                           rng.uniform(0.0, TWO_PI), f0)
        sys_qns = lti_qns(chief)
        for domain in ("cartesian", "spherical"):
            mapped = map_lti(chief, domain, sys_qns.R)
            closed = lti_closed(chief, domain).R
            scale = np.max(np.abs(closed))
            worst = max(worst, np.max(np.abs(mapped - closed)) / scale)
            s = np.linalg.svd(closed, compute_uv=False)
            rank_one = np.sum(s > 1e-9 * s[0]) == 1
            nil = np.max(np.abs(closed @ closed)) < 1e-12 * scale**2
            jordan_ok = jordan_ok and rank_one and nil
    elapsed = time.time() - t_start
    ok = worst < 1e-9 and jordan_ok and elapsed < 10.0
    report(3, ok, f"mapped vs closed {worst:.2e} (<1e-9), Jordan "
                  f"{{0x6, one 2-chain}}: {jordan_ok}, {elapsed:.2f}s (<10s)")


def test_criterion_04_oracle_propagation():
    t_start = time.time()
    chief = molniya_chief()
    rng = np.random.default_rng(4)
    plant = lambda t: cartesian_plant_keplerian(chief, time_to_theta(chief, t))
    worst_lin = 0.0
    worst_nl = 0.0
    t_grid = np.linspace(0.0, chief.period, 60)
    thetas = time_to_theta(chief, t_grid)
    for k in range(20):
        x0 = bounded_cartesian_state(chief, rng, 2e-5)
        c = modal_constants(chief, x0, "cartesian")
        rec = reconstruct(chief, c, thetas, "cartesian")
        # scale so the trajectory separation stays within the stated 1 km
        s = 0.25 / np.max(np.linalg.norm(rec[:, :3], axis=1))
        x0 = s * x0
        rec = s * rec
        c = modal_constants(chief, x0, "cartesian")
        _, lin = propagate_linear(plant, x0, (0.0, chief.period), 60)
        ps = np.max(np.linalg.norm(lin[:, :3], axis=1))
        vs = np.max(np.linalg.norm(lin[:, 3:], axis=1))
        worst_lin = max(
            worst_lin,
            np.max(np.linalg.norm(rec[:, :3] - lin[:, :3], axis=1)) / ps,
            np.max(np.linalg.norm(rec[:, 3:] - lin[:, 3:], axis=1)) / vs)
        if k < 6:  # the nonlinear oracle is the expensive half
            nl = nonlinear_relative_trajectory(chief, x0, t_grid)
            worst_nl = max(
                worst_nl,
                np.max(np.linalg.norm(rec[:, :3] - nl[:, :3], axis=1)) / ps,
                np.max(np.linalg.norm(rec[:, 3:] - nl[:, 3:], axis=1)) / vs)
    elapsed = time.time() - t_start
    ok = worst_lin < 1e-6 and worst_nl < 1e-3 and elapsed < 30.0
    report(4, ok, f"linear oracle {worst_lin:.2e} (<1e-6), nonlinear oracle "
                  f"{worst_nl:.2e} (<1e-3 at 0.25 km), {elapsed:.1f}s (<30s)")


def test_criterion_05_boundedness_drift_dichotomy():
    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.3,
                       math.radians(215.0), math.radians(40.0))
    rng = np.random.default_rng(5)
    # bounded side
    worst_return = 0.0
    for _ in range(5):
        x0 = bounded_cartesian_state(chief, rng)
        c = modal_constants(chief, x0, "cartesian")
        end = reconstruct(chief, c, chief.theta0 + TWO_PI, "cartesian")
        worst_return = max(worst_return,
                           np.linalg.norm(end - x0) / np.linalg.norm(x0))
    # drifting side: secular growth proportional to the drift weight
    g0 = geo_map(chief, chief.theta0, "cartesian")
    xa = g0 @ np.array([0.4, 1e-5, 0, 0, 0, 0])
    xb = g0 @ np.array([1.3, 1e-5, 0, 0, 0, 0])
    ca = modal_constants(chief, xa, "cartesian")
    cb = modal_constants(chief, xb, "cartesian")
    da = np.linalg.norm(reconstruct(chief, ca, chief.theta0 + TWO_PI,
                                    "cartesian") - xa)
    db = np.linalg.norm(reconstruct(chief, cb, chief.theta0 + TWO_PI,
                                    "cartesian") - xb)
    ratio_err = abs((db / da) / (cb.c[5] / ca.c[5]) - 1.0)
    ok = worst_return < 1e-9 and ratio_err < 0.01
    report(5, ok, f"bounded return {worst_return:.2e} (<1e-9), drift/weight "
                  f"ratio error {ratio_err:.2e} (<1%)")


def test_criterion_06_printed_numbers():
    # stationary-plane orthogonality: exact algebraic cancellation
    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.3,
                       math.radians(215.0), math.radians(40.0))
    plane = stationary_plane(chief)
    zn = abs(np.dot(plane.zeta, plane.n_vec)) / (
        np.linalg.norm(plane.zeta) * np.linalg.norm(plane.n_vec))
    # normalized along-track extent of the drift-root mode at e = 0.5
    chief5 = make_chief(26600.0, 0.5, math.radians(63.4), 0.0,
                        math.radians(270.0), math.radians(90.0))
    grid = chief5.theta0 + np.linspace(0.0, TWO_PI, 2401)
    m5 = mode_trajectory(chief5, 5, grid, "cartesian", normalize=True)
    along = np.abs(m5[:, 1])
    extent_err = max(abs(np.min(along) - 1.0 / 3.0),
                     abs(np.max(along) - 1.0))
    # circular-limit drift weight
    chief0 = make_chief(12000.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    x0 = np.array([0.4, -0.2, 0.1, 3e-4, -5e-4, 2e-4])
    c6 = drift_constant(chief0, x0, "cartesian")
    c6_expect = 2.0 * chief0.n * x0[0] + x0[4]
    c6_err = abs(c6 - c6_expect) / abs(c6_expect)
    ok = zn < 1e-14 and extent_err < 1e-3 and c6_err < 1e-12
    report(6, ok, f"zeta.n {zn:.1e} (<1e-14), mode-5 extent err "
                  f"{extent_err:.1e} (<1e-3), circular c6 err {c6_err:.1e} "
                  f"(<1e-12)")


def test_criterion_07_numeric_vs_analytic():
    t_start = time.time()
    chief = molniya_chief()
    plant = lambda t: cartesian_plant_keplerian(chief, time_to_theta(chief, t))
    res = numeric_modal_decomp(plant, 0.0, chief.period, n_harmonics=32,
                               n_samples=1024)
    lam_ana = lti_closed(chief, "cartesian", indep="time").R
    scale = np.max(np.abs(lam_ana))
    lam_err = np.max(np.abs(res.Lambda - lam_ana)) / scale
    ev_spread = np.max(np.abs(res.eigenstructure.eigenvalues)) * chief.period
    lf_err = 0.0
    p_scale = 0.0
    for j in range(0, 1025, 32):
        t = res.t_samples[j]
        pa = lf_transform(chief, "cartesian", time_to_theta(chief, t),
                          indep="time")
        lf_err = max(lf_err, np.max(np.abs(res.lf_samples[j] - pa)))
        p_scale = max(p_scale, np.max(np.abs(pa)))
    lf_err /= p_scale  # entries mix units; max-norm scaled by magnitude
    elapsed = time.time() - t_start
    ok = (lam_err < 1e-6 and ev_spread < 1e-5 and lf_err < 1e-5
          and elapsed < 60.0)
    report(7, ok, f"Lambda {lam_err:.2e} (<1e-6), |ev|T {ev_spread:.2e} "
                  f"(<1e-5), LF samples {lf_err:.2e} (<1e-5 scaled), "
                  f"{elapsed:.1f}s (<60s)")


def test_criterion_08_epoch_remap():
    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.3,
                       math.radians(215.0), math.radians(40.0))
    rng = np.random.default_rng(8)
    worst = 0.0
    for th_shift in (0.9, 2.6, 4.8):
        x0 = rng.standard_normal(6) * np.array([1, 1, 1, 1e-3, 1e-3, 1e-3])
        c = modal_constants(chief, x0, "cartesian")
        th_new = chief.theta0 + th_shift
        c2 = remap_epoch(chief, c, th_new)
        chief2 = rebase_chief(chief, th_new)
        for th in chief.theta0 + np.linspace(0.0, TWO_PI, 50):
            xa = reconstruct(chief, c, th, "cartesian")
            xb = reconstruct(chief2, c2, th, "cartesian")
            worst = max(worst, np.linalg.norm(xa - xb) / np.linalg.norm(xa))
    ok = worst < 1e-8
    report(8, ok, f"remapped-trajectory mismatch {worst:.2e} (<1e-8) at 50 "
                  f"sampled thetas")


def test_criterion_09_variation_of_constants():
    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.3,
                       math.radians(215.0), math.radians(40.0))
    rng = np.random.default_rng(9)
    x0 = bounded_cartesian_state(chief, rng, 2e-5)
    c0 = modal_constants(chief, x0, "cartesian")
    t_grid = np.linspace(0.0, chief.period, 25)
    cs = integrate_constants(chief, "cartesian", c0.c, t_grid)
    unforced = np.max(np.linalg.norm(cs - c0.c, axis=1)) / np.linalg.norm(c0.c)
    # forced short arc, dual-path
    u = np.array([2e-9, 1e-8, -4e-9])
    t_arc = np.linspace(0.0, chief.period / 15.0, 9)
    cs_f = integrate_constants(chief, "cartesian", c0.c, t_arc,
                               control_fn=lambda t, x: u)
    from scipy.integrate import solve_ivp
    b = np.vstack([np.zeros((3, 3)), np.eye(3)])

    def rhs(t, x):
        return (cartesian_plant_keplerian(chief, time_to_theta(chief, t))
                @ x + b @ u)

    sol = solve_ivp(rhs, (0.0, t_arc[-1]), x0, method="DOP853", rtol=1e-12,
                    atol=1e-14)
    psi_end = modal_state_matrix(chief, "cartesian",
                                 time_to_theta(chief, t_arc[-1]))
    dc_state = np.linalg.solve(psi_end, sol.y[:, -1]) - c0.c
    dc_modal = cs_f[-1] - c0.c
    forced = np.linalg.norm(dc_modal - dc_state) / np.linalg.norm(dc_state)
    ok = unforced < 1e-8 and forced < 1e-6
    report(9, ok, f"unforced drift {unforced:.2e} (<1e-8), forced dual-path "
                  f"{forced:.2e} (<1e-6)")


def test_criterion_10_singularity_handling():
    # epoch singularity e sin f0 = 0 (f0 = 0, f0 = pi, e = 0): the state
    # transition never inverts the eigenvector matrix, so it follows an
    # integration of the plant over one period to rounding
    x0 = np.array([0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5])
    err_a = 0.0
    for orbit in SINGULAR_ORBITS.values():
        chief_s = chief_from_config(orbit)
        ths_s = chief_s.theta0 + np.linspace(0.0, TWO_PI, 121)
        err_a = max(err_a, scaled_error(
            state_transition(chief_s, "cartesian", ths_s) @ x0,
            integrate_cartesian(chief_s, x0, ths_s)))
    chief_a = make_chief(20000.0, 0.5, 1.0, 0.0, 1.0, 0.0)
    ths_a = chief_a.theta0 + np.linspace(0.05, TWO_PI - 0.05, 25)
    resid_a = lf_defining_residual(
        lambda th: lf_qns(chief_a, th),
        lambda th: qns_plant_theta(chief_a, th),
        lti_qns(chief_a).R, ths_a)

    # q1 = 0: the reference orbit itself; the delta-theta row is regular
    # there, so it is continuous through the sign of q1
    chief_b = molniya_chief()
    assert abs(chief_b.q1) < 1e-15  # cos(270 deg) rounds to -1.4e-16
    ths_b = chief_b.theta0 + np.linspace(0.05, TWO_PI - 0.05, 25)
    rows = [[lf_qns(dataclasses.replace(chief_b, q1=q1), th)[1]
             for th in ths_b] for q1 in (-1e-12, 0.0, 1e-12)]
    jump_b = np.max(np.abs(np.diff(rows, axis=0)))
    resid_b = lf_defining_residual(
        lambda th: lf_qns(chief_b, th),
        lambda th: qns_plant_theta(chief_b, th),
        lti_qns(chief_b).R, ths_b)
    ok = (err_a < 1e-12 and resid_a < 1e-7
          and jump_b < 1e-10 and resid_b < 1e-7)
    report(10, ok, f"e*sin(f0)=0 state transition vs integration "
                   f"{err_a:.2e} (<1e-12 scaled), residual {resid_a:.2e} "
                   f"(<1e-7); q1=0 row jump across q1=+-1e-12 {jump_b:.2e} "
                   f"(<1e-10), residual {resid_b:.2e} (<1e-7)")
