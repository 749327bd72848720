"""Command-line front end.

Subcommands: modes, decompose, reconstruct, sweep, floquet-num, validate.
Orbit configs are JSON ({"a_km", "e", "i_deg", "raan_deg", "argp_deg",
"f0_deg", "mu_km3_s2"?}); trajectories and modes are emitted as CSV,
scalars and matrices as JSON. Set RELMODES_LOG=DEBUG|INFO|WARNING for
verbosity.
"""

import argparse
import logging
import math
import os
import sys
from functools import partial

import numpy as np

from . import io as rio
from .errors import RelMotionError
from .floquet import (ModalConstants, drift_constant, lf_defining_residual,
                      lf_qns, lti_closed, lti_qns, map_lti, modal_constants,
                      qns_r21, state_transition)
from .geometry import geo_map
from .modal import (extract_constants, modal_state_matrix, normalize_mode,
                    reconstruct, stationary_plane, sweep_bounded_family)
from .numeric import liouville_determinant_check, numeric_modal_decomp
from .orbit import eval_at_theta, shorthand_abc, theta_to_time, time_to_theta
from .plants import cartesian_plant_keplerian, cw_plant_full, qns_plant_theta

log = logging.getLogger("relmodes")


_SAMPLES_PER_PERIOD = 240
_QUAD_POINTS = 512


def _theta_grid(chief, periods):
    n = max(int(periods * _SAMPLES_PER_PERIOD), 2) + 1
    return np.linspace(chief.theta0, chief.theta0 + 2.0 * math.pi * periods, n)


def cmd_modes(args):
    cfg = rio.load_config(args.config)
    chief = rio.chief_from_config(cfg.get("orbit", cfg))
    rep = rio.REP_ALIASES[args.rep]
    os.makedirs(args.out, exist_ok=True)
    sys_ = lti_closed(chief, rep)
    sh = shorthand_abc(chief)
    # modes 1-5 are sampled over one period from one Psi stack; the drift
    # mode spans --periods on its own grid
    for grid, modes in ((_theta_grid(chief, 1.0), range(1, 6)),
                        (_theta_grid(chief, args.periods), (6,))):
        psi = modal_state_matrix(chief, rep, grid)
        times = theta_to_time(chief, grid)
        for k in modes:
            rio.write_trajectory_csv(
                os.path.join(args.out, f"mode_{k}.csv"), rep, grid, times,
                normalize_mode(psi[..., k - 1]), extra_col=k)
    meta = {
        "representation": rep,
        "eigenvalues": rio.matrix_to_json(sys_.eigenvalues),
        "jordan_chains": [list(c) for c in sys_.chains],
        "shorthands": {"gamma": sh.gamma, "Aq": sh.Aq, "Bq": sh.Bq,
                       "Cq": sh.Cq},
        "R21": qns_r21(chief), "Lambda21": qns_r21(chief) * chief.n,
        "drift_mode_periods": args.periods,
    }
    rio.write_json(os.path.join(args.out, "modes_metadata.json"), meta)
    log.info("wrote 6 mode files to %s", args.out)
    return 0


def _initial_state(cfg, chief, rep):
    if "state0" in cfg:
        return np.asarray(cfg["state0"], dtype=float)
    delta = cfg.get("delta_elements") or cfg.get("delta_qns")
    if delta is None:
        raise RelMotionError(
            "config needs either state0 or delta_elements/delta_qns")
    if "delta_elements" in cfg:
        doe = rio.qns_diff_from_classical(chief, delta)
    else:
        doe = np.array([float(delta.get(k, 0.0)) for k in
                        ("da_km", "dtheta_rad", "di_rad", "dq1", "dq2",
                         "draan_rad")])
    if rep == "qns":
        return doe
    return geo_map(chief, chief.theta0, rep) @ doe


def cmd_decompose(args):
    cfg = rio.load_config(args.config)
    chief = rio.chief_from_config(cfg.get("orbit", cfg))
    rep = rio.REP_ALIASES[args.rep]
    os.makedirs(args.out, exist_ok=True)
    state0 = _initial_state(cfg, chief, rep)
    if rep == "qns":
        constants = extract_constants(chief, state0, chief.theta0, rep)
    else:
        constants = modal_constants(chief, state0, rep)
    grid = _theta_grid(chief, args.periods)
    times = theta_to_time(chief, grid)
    total = state_transition(chief, rep, grid) @ state0
    rio.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                             rep, grid, times, total, extra_col="sum")
    # contrib[:, :, k] is the contribution of mode k+1; their sum misses
    # the state-transition trajectory by the rounding of the weights
    contrib = modal_state_matrix(chief, rep, grid) * constants.c
    for k in range(1, 7):
        rio.write_trajectory_csv(
            os.path.join(args.out, f"contribution_mode_{k}.csv"), rep,
            grid, times, contrib[:, :, k - 1], extra_col=k)
    sum_err = float(np.max(np.abs(contrib.sum(axis=-1) - total)))
    payload = {
        "constants": constants.c.tolist(),
        "representation": rep,
        "theta0": constants.theta0,
        "drifting": bool(abs(constants.c[5]) > args.tol),
        "c6": constants.c[5],
        "sum_of_modes_max_error": sum_err,
    }
    rio.write_json(os.path.join(args.out, "constants.json"), payload)
    log.info("c = %s (drifting=%s)", constants.c, payload["drifting"])
    return 0


def cmd_reconstruct(args):
    cfg = rio.load_config(args.config)
    chief = rio.chief_from_config(cfg.get("orbit", cfg))
    rep = rio.REP_ALIASES[args.rep]
    os.makedirs(args.out, exist_ok=True)
    constants = ModalConstants(c=np.asarray(cfg["constants"], dtype=float),
                               domain=rep, theta0=chief.theta0)
    grid = _theta_grid(chief, args.periods)
    states = reconstruct(chief, constants, grid, rep)
    rio.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                             rep, grid, theta_to_time(chief, grid), states,
                             extra_col="sum")
    return 0


def cmd_sweep(args):
    cfg = rio.load_config(args.config)
    chief = rio.chief_from_config(cfg.get("orbit", cfg))
    os.makedirs(args.out, exist_ok=True)
    x0 = float(cfg["x0_km"])
    y0 = float(cfg["y0_km"])
    xdot0_list = [float(v) for v in cfg["xdot0_list_kmps"]]
    members = sweep_bounded_family(chief, x0, y0, xdot0_list)
    grid = _theta_grid(chief, args.periods)
    times = theta_to_time(chief, grid)
    phi = state_transition(chief, "cartesian", grid)
    summary = []
    for k, mem in enumerate(members):
        states = phi @ mem.state0
        rio.write_trajectory_csv(os.path.join(args.out, f"family_{k}.csv"),
                                 "cartesian", grid, times, states,
                                 extra_col=k)
        summary.append({"xdot0_kmps": mem.xdot0, "ydot0_kmps": mem.ydot0,
                        "constants": mem.constants.c.tolist()})
    rio.write_json(os.path.join(args.out, "family.json"),
                   {"anchor_km": [x0, y0], "members": summary})
    log.info("wrote %d family members", len(members))
    return 0


def _write_lf_csv(path, t_samples, lf_samples):
    header = ["t"] + [f"P{i+1}{j+1}" for i in range(6) for j in range(6)]
    rio.write_csv_table(path, header, np.column_stack(
        [t_samples, np.reshape(lf_samples, (len(t_samples), -1))]))


def cmd_floquet_numeric(args):
    cfg = rio.load_config(args.config)
    chief = rio.chief_from_config(cfg.get("orbit", cfg))
    os.makedirs(args.out, exist_ok=True)
    analytic = None
    if args.plant == "cw":
        plant = lambda t: cw_plant_full(chief.n)
        # the oscillatory pair sits at exp(+-i n T); a non-resonant span
        # keeps it off 1 so the principal log recovers the plant exactly
        t0, period = 0.0, chief.period / 3.0
        analytic = {"eigenvalues_expected": rio.matrix_to_json(
            np.array([0.0, 0.0, 1j * chief.n, -1j * chief.n,
                      1j * chief.n, -1j * chief.n]))}
    elif args.plant == "cartesian-keplerian":
        plant = lambda t: cartesian_plant_keplerian(
            chief, time_to_theta(chief, t))
        t0, period = 0.0, chief.period
        lam_ana = lti_closed(chief, "cartesian", indep="time").R
        analytic = {"Lambda_analytic": rio.matrix_to_json(lam_ana)}
    elif args.plant == "qns":
        plant = lambda th: qns_plant_theta(chief, th)
        t0, period = chief.theta0, 2.0 * math.pi
        analytic = {"R21_analytic": qns_r21(chief)}
    else:
        raise RelMotionError(f"unknown plant {args.plant!r}")

    result = numeric_modal_decomp(plant, t0, period,
                                  n_harmonics=args.harmonics,
                                  n_samples=args.samples, tol=args.tol)
    payload = {
        "plant": args.plant,
        "t0": t0,
        "period": period,
        "eigenvalues": rio.matrix_to_json(result.eigenstructure.eigenvalues),
        "jordan_chains": [list(c) for c in result.eigenstructure.chains],
        "Lambda": rio.matrix_to_json(result.Lambda),
        "monodromy": rio.matrix_to_json(result.monodromy),
        "periodic_fit_residual": result.periodic_fit_residual,
        "periodicity_defect": result.periodicity_defect,
        "liouville_mismatch": liouville_determinant_check(
            plant, t0, period, result.monodromy),
    }
    if analytic is not None:
        if "Lambda_analytic" in analytic:
            lam_ana = np.array(analytic["Lambda_analytic"])
            scale = np.max(np.abs(lam_ana))
            analytic["Lambda_max_rel_error"] = float(
                np.max(np.abs(result.Lambda - lam_ana)) / scale)
        payload["analytic_comparison"] = analytic
    rio.write_json(os.path.join(args.out, "floquet_numeric.json"), payload)
    _write_lf_csv(os.path.join(args.out, "lf_samples.csv"),
                  result.t_samples, result.lf_samples)
    log.info("numeric pipeline complete; defect %.3e",
             result.periodicity_defect)
    return 0


def _suite_quadrature(chief):
    # T = integral of r^2/h over one revolution; the integrand is periodic
    # and analytic in theta, so the trapezoid rule on a uniform grid
    # converges geometrically
    step = 2.0 * math.pi / _QUAD_POINTS
    r = eval_at_theta(chief, chief.theta0 + step * np.arange(_QUAD_POINTS)).r
    val = step * np.sum(r**2) / chief.h
    resid = abs(val - chief.period) / chief.period
    return {"residual": resid, "passed": bool(resid < 1e-9)}


def _suite_shorthands(chief):
    sh = shorthand_abc(chief)
    r1 = abs(sh.gamma - (sh.Aq**2 + sh.Bq**2 - 1.0))
    c_expect = -(1.0 - sh.Aq**2 - sh.Bq**2) ** 1.5 / ((sh.Bq + 1.0) ** 2 * chief.n)
    r2 = abs(sh.Cq - c_expect) / abs(c_expect)
    scale = 2.0 * qns_r21(chief) * chief.a / sh.gamma
    s_expect = 3.0 * (sh.Bq + 1.0) ** 2 / (1.0 - sh.Aq**2 - sh.Bq**2) ** 2.5
    r3 = abs(scale - s_expect) / abs(s_expect)
    resid = max(r1, r2, r3)
    return {"residual": resid, "passed": bool(resid < 1e-12)}


def _suite_defining_ode(chief):
    r_mat = lti_qns(chief).R
    thetas = chief.theta0 + np.linspace(0.1, 2.0 * math.pi - 0.1, 20)
    resid = lf_defining_residual(partial(lf_qns, chief),
                                 partial(qns_plant_theta, chief), r_mat, thetas)
    tol = 1e-7
    return {"residual": resid, "tolerance": tol, "passed": bool(resid < tol)}


def _suite_lti_mapping(chief):
    g0 = geo_map(chief, chief.theta0, "cartesian")
    mapped = map_lti(g0, lti_qns(chief).R)
    closed = lti_closed(chief, "cartesian").R
    scale = np.max(np.abs(closed))
    resid = float(np.max(np.abs(mapped - closed)) / scale)
    g0s = geo_map(chief, chief.theta0, "spherical")
    mapped_s = map_lti(g0s, lti_qns(chief).R)
    closed_s = lti_closed(chief, "spherical").R
    resid_s = float(np.max(np.abs(mapped_s - closed_s)) / np.max(np.abs(closed_s)))
    resid = max(resid, resid_s)
    return {"residual": resid, "passed": bool(resid < 1e-9)}


def _suite_boundedness(chief):
    rng = np.random.default_rng(7)
    doe = np.array([0.0, 1e-4, 1e-4, 5e-5, -4e-5, 8e-5]) \
        + 1e-5 * rng.standard_normal(6)
    doe[0] = 0.0  # da = 0: bounded
    x0 = geo_map(chief, chief.theta0, "cartesian") @ doe
    phi = state_transition(chief, "cartesian", chief.theta0 + 2.0 * math.pi)
    resid = float(np.linalg.norm(phi @ x0 - x0) / np.linalg.norm(x0))
    tol = 1e-9
    return {"residual": resid, "c6": drift_constant(chief, x0, "cartesian"),
            "tolerance": tol, "passed": bool(resid < tol)}


def _suite_stationary_plane(chief):
    plane = stationary_plane(chief)
    if not np.any(plane.zeta):
        # A = B = 0 (e = 0): the rate direction vanishes, so every point
        # is stationary and the plane is not defined
        return {"degenerate": "zeta = 0 at e = 0: every point is "
                              "stationary", "passed": True}
    num = abs(float(np.dot(plane.zeta, plane.n_vec)))
    den = float(np.linalg.norm(plane.zeta) * np.linalg.norm(plane.n_vec))
    resid = num / den
    return {"residual": resid, "passed": bool(resid < 1e-14)}


def _suite_cw_limit(chief):
    if chief.e > 0.005:
        return {"skipped": "chief eccentricity too large for the "
                           "circular-limit check", "passed": True}
    # bounded state: ydot0 enters c6 with unit weight, so cancelling the
    # c6 of ydot0 = 0 gives the chief's own no-drift condition (the
    # circular-chief -2 n x0 drifts on an eccentric chief)
    x0 = np.array([0.05, 0.12, 0.0, 0.0, 0.0, 0.0])
    x0[4] = -drift_constant(chief, x0, "cartesian")
    grid = np.linspace(chief.theta0, chief.theta0 + 2.0 * math.pi, 720)
    traj = state_transition(chief, "cartesian", grid) @ x0
    ax = 0.5 * (traj[:, 0].max() - traj[:, 0].min())
    ay = 0.5 * (traj[:, 1].max() - traj[:, 1].min())
    ratio = ay / ax
    # the 2:1 ellipse carries an O(e) eccentric correction (~1.2 e)
    resid = abs(ratio - 2.0) / 2.0
    return {"axis_ratio": ratio, "residual": resid,
            "passed": bool(resid < 0.01)}


def cmd_validate(args):
    cfg = rio.load_config(args.config)
    chief = rio.chief_from_config(cfg.get("orbit", cfg))
    os.makedirs(args.out, exist_ok=True)
    suites = {
        "latitude_time_quadrature": _suite_quadrature,
        "shorthand_identities": _suite_shorthands,
        "defining_ode_residual": _suite_defining_ode,
        "lti_mapping_theorem": _suite_lti_mapping,
        "boundedness_dichotomy": _suite_boundedness,
        "stationary_plane_orthogonality": _suite_stationary_plane,
        "circular_limit_axis_ratio": _suite_cw_limit,
    }
    report = {"suites": {}}
    failed = 0
    for name, fn in suites.items():
        try:
            result = fn(chief)
        except RelMotionError as exc:
            result = {"passed": False, "error": str(exc)}
        report["suites"][name] = result
        if not result.get("passed", False):
            failed += 1
        status = "pass" if result.get("passed") else "FAIL"
        log.info("%-34s %s", name, status)
    report["failed"] = failed
    rio.write_json(os.path.join(args.out, "validate_report.json"), report)
    print(f"validate: {len(suites) - failed}/{len(suites)} suites passed")
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relmodes",
        description="modal decompositions of linearized satellite relative "
                    "motion about closed orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--rep": {"default": "cart", "choices": sorted(rio.REP_ALIASES),
                  "help": "state representation"},
        "--periods": {"type": float, "default": 3.0,
                      "help": "chief periods to span (drift/trajectory plots)"},
    }

    def common(p, *flags):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_modes = sub.add_parser("modes", help="emit the six fundamental modes")
    common(p_modes, "--rep", "--periods")
    p_modes.set_defaults(func=cmd_modes)

    p_dec = sub.add_parser("decompose",
                           help="modal constants and per-mode contributions")
    common(p_dec, "--rep", "--periods")
    p_dec.add_argument("--tol", type=float, default=1e-12,
                       help="|c6| above which the state counts as drifting")
    p_dec.set_defaults(func=cmd_decompose)

    p_rec = sub.add_parser("reconstruct",
                           help="trajectory from modal constants")
    common(p_rec, "--rep", "--periods")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_sweep = sub.add_parser("sweep",
                             help="bounded family through a fixed position")
    common(p_sweep, "--periods")
    p_sweep.set_defaults(func=cmd_sweep)

    p_num = sub.add_parser("floquet-num", help="numeric reduction pipeline")
    common(p_num)
    p_num.add_argument("--tol", type=float, default=1e-12,
                       help="relative tolerance of the STM integration")
    p_num.add_argument("--plant", default="cartesian-keplerian",
                       choices=["cw", "cartesian-keplerian", "qns"])
    p_num.add_argument("--samples", type=int, default=1024)
    p_num.add_argument("--harmonics", type=int, default=32)
    p_num.set_defaults(func=cmd_floquet_numeric)

    p_val = sub.add_parser("validate", help="run the invariant suites")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("RELMODES_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RelMotionError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
