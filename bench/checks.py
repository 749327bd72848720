"""Output checks, run outside the timed region.

Every check compares a command's files against the independent
references in oracle.py or against properties the method must have; none
compares against stored output. Each check returns a list of failure
messages, empty when the output is correct.
"""

import json
import os

import numpy as np

from oracle import nondimensional, relative_error
from workloads import SAMPLES_PER_PERIOD, SWEEP_MEMBERS

TRAJ_TOL = 1e-6        # linear-oracle bound of acceptance criterion 04
EPOCH_TOL = 1e-9       # state at theta0 against the initial state
THETA_TOL = 1e-9       # rad, emitted theta against the integrated chief
SUM_TOL = 1e-11        # contributions against the trajectory they sum to
NORM_TOL = 1e-12       # largest position norm of a normalised mode
RETURN_TOL = 1e-9      # period return and linear drift of the modes
C6_TOL = 1e-12         # drift weight of a bounded member, relative to |c|
EXPONENT_TOL = 1e-5    # |lambda| T of every Floquet exponent
NILPOTENT_TOL = 1e-6   # |(Lambda T)^2| relative to |Lambda T|^2
DET_TOL = 1e-9         # |det M - 1|
MONODROMY_TOL = 1e-6   # monodromy against the reference STM


def read_csv(path):
    """(theta, t_s, states) from a trajectory or mode CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(8),
                      ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2:8]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _time_axis(name, theta, t_s, ref, n_expected):
    errs = []
    if len(t_s) != n_expected:
        errs.append(f"{name}: {len(t_s)} rows, expected {n_expected}")
    if t_s[0] != 0.0 or np.any(np.diff(t_s) <= 0.0):
        errs.append(f"{name}: t_s does not start at 0 and increase")
    elif ref is not None:
        dev = float(np.max(np.abs(theta - ref.theta(t_s))))
        if dev > THETA_TOL:
            errs.append(f"{name}: theta off the integrated chief by {dev:.2e} rad")
    return errs


def _epoch(name, states, state0):
    errs = []
    err = relative_error(states[:1], np.asarray(state0)[None, :])
    if not err <= EPOCH_TOL:
        errs.append(f"{name}: state at theta0 off the initial state by {err:.2e}")
    return errs


def _oracle(name, states, t_s, state0, ref):
    err = relative_error(states, ref.propagate(state0, t_s))
    if not err <= TRAJ_TOL:
        return [f"{name}: off the linearised LVLH integration by {err:.2e}"]
    return []


def _deviation(diff, states, n=0.0):
    """Largest position and velocity deviation in diff (one state or many),
    each against the largest position or velocity norm in states. A
    motion with no rates of its own (a constant offset) is measured
    against n times its size, n the chief mean motion."""
    diff = np.atleast_2d(diff)
    pos = np.max(np.linalg.norm(states[:, :3], axis=1))
    vel = max(np.max(np.linalg.norm(states[:, 3:], axis=1)), n * pos)
    return max(np.max(np.linalg.norm(diff[:, :3], axis=1)) / pos,
               np.max(np.linalg.norm(diff[:, 3:], axis=1)) / vel)


def check_decompose(out, state0, ref, n_rows):
    errs = []
    theta, t_s, traj = read_csv(os.path.join(out, "trajectory.csv"))
    errs += _time_axis("decompose", theta, t_s, ref, n_rows)
    errs += _epoch("decompose", traj, state0)
    errs += _oracle("decompose", traj, t_s, state0, ref)
    total = np.zeros_like(traj)
    contribs = []
    for k in range(1, 7):
        theta_k, t_k, contrib = read_csv(
            os.path.join(out, f"contribution_mode_{k}.csv"))
        if not (np.array_equal(theta_k, theta) and np.array_equal(t_k, t_s)):
            errs.append(f"decompose: contribution {k} on another grid")
        total += contrib
        contribs.append(contrib)
    # the printed digits are relative to each contribution, which can
    # dwarf the trajectory they sum to
    dev = _deviation(total - traj, np.concatenate(contribs))
    if not dev <= SUM_TOL:
        errs.append(f"decompose: contributions miss the trajectory by {dev:.2e}")
    payload = _read_json(os.path.join(out, "constants.json"))
    if len(payload["constants"]) != 6:
        errs.append("decompose: constants.json does not hold six weights")
    return errs


def check_reconstruct(states, state0, t, ref):
    return (_epoch("reconstruct", states, state0)
            + _oracle("reconstruct", states, t, state0, ref))


def check_modes(out, drift_periods, n):
    errs = []
    per_period = SAMPLES_PER_PERIOD
    for k in range(1, 7):
        periods = drift_periods if k == 6 else 1.0
        theta, t_s, states = read_csv(os.path.join(out, f"mode_{k}.csv"))
        errs += _time_axis(f"mode {k}", theta, t_s, None,
                           int(periods * per_period) + 1)
        peak = float(np.max(np.linalg.norm(states[:, :3], axis=1)))
        if not abs(peak - 1.0) <= NORM_TOL:
            errs.append(f"mode {k}: largest position norm {peak!r}, not 1")
        if k < 6:
            dev = _deviation(states[per_period] - states[0], states, n)
            if not dev <= RETURN_TOL:
                errs.append(f"mode {k}: misses its start after one period by {dev:.2e}")
            continue
        step = states[per_period] - states[0]
        if not _deviation(step, states, n) > 1e-6:
            errs.append("mode 6: no drift over one period")
        for j in range(2, int(periods) + 1):
            dev = _deviation(states[j * per_period] - states[0] - j * step,
                             states, n)
            if not dev <= RETURN_TOL * j:
                errs.append(f"mode 6: displacement after {j} periods off "
                            f"linear growth by {dev:.2e}")
    meta = _read_json(os.path.join(out, "modes_metadata.json"))
    if meta["representation"] != "spherical":
        errs.append("modes: metadata names another representation")
    return errs


def check_sweep(out, anchor, xdot0_list, ref, n_rows):
    errs = []
    family = _read_json(os.path.join(out, "family.json"))
    members = family["members"]
    if len(members) != SWEEP_MEMBERS:
        return [f"sweep: {len(members)} members, expected {SWEEP_MEMBERS}"]
    period = np.array([ref.orbit.period])
    for k, (mem, xd0) in enumerate(zip(members, xdot0_list)):
        name = f"sweep member {k}"
        c = np.asarray(mem["constants"])
        if not abs(c[5]) <= C6_TOL * np.linalg.norm(c):
            errs.append(f"{name}: drift weight {c[5]:.2e} against |c| {np.linalg.norm(c):.2e}")
        if mem["xdot0_kmps"] != xd0:
            errs.append(f"{name}: radial rate {mem['xdot0_kmps']!r}, asked {xd0!r}")
        state0 = np.array([anchor[0], anchor[1], 0.0, xd0, mem["ydot0_kmps"], 0.0])
        theta, t_s, traj = read_csv(os.path.join(out, f"family_{k}.csv"))
        errs += _time_axis(name, theta, t_s, ref, n_rows)
        dev = float(np.max(np.abs(traj[0, :3] - state0[:3])))
        if not dev <= EPOCH_TOL * np.linalg.norm(anchor):
            errs.append(f"{name}: starts {dev:.2e} km off the anchor")
        errs += _epoch(name, traj, state0)
        errs += _oracle(name, traj, t_s, state0, ref)
        drift = relative_error(ref.propagate(state0, period), state0[None, :])
        if not drift <= TRAJ_TOL:
            errs.append(f"{name}: not bounded, misses its start after one "
                        f"period by {drift:.2e}")
    return errs


def check_validate(out, code):
    report = _read_json(os.path.join(out, "validate_report.json"))
    failed = [name for name, suite in report["suites"].items()
              if not suite.get("passed")]
    if code != 0 or report["failed"] != 0 or failed:
        return [f"validate: exit {code}, failed suites {failed}"]
    return []


def _complex(payload):
    if isinstance(payload, dict):
        return np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    return np.asarray(payload, dtype=float)


def check_floquet(out, ref):
    errs = []
    result = _read_json(os.path.join(out, "floquet_numeric.json"))
    if not os.path.isfile(os.path.join(out, "lf_samples.csv")):
        errs.append("floquet-num: no transform samples")
    orbit = ref.orbit
    period = orbit.period
    if not abs(result["period"] - period) <= 1e-12 * period:
        errs.append(f"floquet-num: period {result['period']!r}, expected {period!r}")
    exponents = np.abs(_complex(result["eigenvalues"])) * period
    if not np.max(exponents) < EXPONENT_TOL:
        errs.append(f"floquet-num: exponent |lambda| T = {np.max(exponents):.2e}")
    lam_t = nondimensional(np.asarray(result["Lambda"]), orbit.n) * period
    square = float(np.max(np.abs(lam_t @ lam_t)))
    if not square <= NILPOTENT_TOL * max(1.0, float(np.max(np.abs(lam_t)))) ** 2:
        errs.append(f"floquet-num: (Lambda T)^2 = {square:.2e}, not nilpotent")
    monodromy = np.asarray(result["monodromy"])
    det = float(np.linalg.det(monodromy))
    if not abs(det - 1.0) <= DET_TOL:
        errs.append(f"floquet-num: det M = {det!r}, Liouville requires 1")
    expected = nondimensional(ref.stm(np.array([period]))[0], orbit.n)
    got = nondimensional(monodromy, orbit.n)
    dev = float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))
    if not dev <= MONODROMY_TOL:
        errs.append(f"floquet-num: monodromy off the reference STM by {dev:.2e}")
    return errs
