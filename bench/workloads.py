"""Workload definitions and seeded input generation.

A workload is a list of chiefs, the arc lengths its commands span, and a
generator of per-round deputy inputs. The chiefs do not depend on the
seed: whether a command succeeds, and how much work it does, depends on
the chief alone, so a fixed set keeps the share of failed operations and
the per-layer call counts identical from seed to seed. Every round draws
fresh deputy states, sweep anchors and reconstruction states from
(seed, round, chief), so no two requests in a run carry the same input.
"""

import math

import numpy as np

SAMPLES_PER_PERIOD = 240      # the CLI's theta-grid density
SWEEP_MEMBERS = 3
SURVEY_CHIEFS = 24
SURVEY_CHIEF_SEED = 2021

# Flagship chief: q1 = e cos(270 deg) = 0 takes the regularised
# delta-theta row in every transform evaluation.
MOLNIYA = {"a_km": 26600.0, "e": 0.74, "i_deg": 63.4, "raan_deg": 0.0,
           "argp_deg": 270.0, "f0_deg": 90.0}
# Same orbit at an epoch away from every singular configuration.
GENERIC = {"a_km": 26600.0, "e": 0.74, "i_deg": 63.4,
           "raan_deg": math.degrees(0.3), "argp_deg": 215.0, "f0_deg": 40.0}


class Workload:
    def __init__(self, name, chiefs, periods, modes_periods):
        self.name = name
        self.chiefs = chiefs
        self.periods = periods              # decompose, sweep, reconstruct
        self.modes_periods = modes_periods  # span of the drift mode


def survey_chiefs():
    """Random chiefs from a fixed seed: eccentricity in [0.05, 0.8), one
    per stratum so the set spreads evenly over it; perigee radius
    6700-12000 km; inclination 10-170 deg; |cos w| and |sin f0| >= 0.2 so
    that q1 and e sin f0 stay away from zero."""
    rng = np.random.default_rng(SURVEY_CHIEF_SEED)
    chiefs = []
    for k in range(SURVEY_CHIEFS):
        e = 0.05 + 0.75 * (k + rng.random()) / SURVEY_CHIEFS
        a = rng.uniform(6700.0, 12000.0) / (1.0 - e)
        while True:
            argp = rng.uniform(0.0, 360.0)
            if abs(math.cos(math.radians(argp))) >= 0.2:
                break
        while True:
            f0 = rng.uniform(0.0, 360.0)
            if abs(math.sin(math.radians(f0))) >= 0.2:
                break
        chiefs.append({"a_km": a, "e": e, "i_deg": rng.uniform(10.0, 170.0),
                       "raan_deg": rng.uniform(0.0, 360.0),
                       "argp_deg": argp, "f0_deg": f0})
    return chiefs


def make_workload(name):
    if name == "molniya":
        return Workload(name, [MOLNIYA], periods=3.0, modes_periods=3.0)
    if name == "generic":
        return Workload(name, [GENERIC], periods=3.0, modes_periods=3.0)
    if name == "survey":
        # One-period arcs: with quarter-period arcs the run-to-run spread
        # of decompose_s and sweep_s was 0.13-0.16 against 0.01-0.02
        # (measured), as per-call file and syscall costs vary between
        # runs. Modes 1-5 always span one period; two drift periods are
        # the fewest that show the drift mode growing linearly.
        return Workload(name, survey_chiefs(), periods=1.0,
                        modes_periods=2.0)
    raise ValueError(f"unknown workload {name!r}")


def grid_size(periods):
    """Sample count of the CLI grid spanning `periods` chief periods."""
    return max(int(periods * SAMPLES_PER_PERIOD), 2) + 1


def deputy_inputs(seed, round_index, chief_index, n):
    """LVLH Cartesian deputy states and sweep anchor for one request.

    Positions within 1 km per axis, velocities within n * 1 km/s per
    axis (n the chief mean motion), so drifting and bounded motion mix.
    """
    rng = np.random.default_rng([seed, round_index, chief_index])
    scale = np.array([1.0, 1.0, 1.0, n, n, n])
    state0 = scale * rng.uniform(-1.0, 1.0, 6)
    recon_state0 = scale * rng.uniform(-1.0, 1.0, 6)
    anchor = rng.uniform(0.05, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
    spread = rng.uniform(0.5, 2.0) * 0.3 * n
    xdot0_list = list(spread * np.linspace(-1.0, 1.0, SWEEP_MEMBERS))
    return {"state0": state0, "recon_state0": recon_state0,
            "anchor": anchor, "xdot0_list": xdot0_list}
