import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relmodes import cartesian_plant_theta, make_chief
from relmodes.io import chief_from_config


@pytest.fixture
def molniya():
    """The highly eccentric reference orbit used throughout; it has
    q1 = 0 (argp = 270 deg), where the printed P21/P25 forms are singular
    but the regular forms the library evaluates are not."""
    return make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                      math.radians(270.0), math.radians(90.0))


@pytest.fixture
def generic_chief():
    """Same size and eccentricity, epoch well away from every singular
    configuration (q1 and e*sin(f0) both O(1))."""
    return make_chief(26600.0, 0.74, math.radians(63.4), 0.3,
                      math.radians(215.0), math.radians(40.0))


# Epochs with e*sin(f0) = 0, where the eigenvector matrix is singular:
# the generic orbit at periapsis and at apoapsis, and a circular chief
SINGULAR_ORBITS = {
    "f0=0": {"a_km": 26600.0, "e": 0.74, "i_deg": 63.4,
             "raan_deg": math.degrees(0.3), "argp_deg": 215.0,
             "f0_deg": 0.0},
    "f0=pi": {"a_km": 26600.0, "e": 0.74, "i_deg": 63.4,
              "raan_deg": math.degrees(0.3), "argp_deg": 215.0,
              "f0_deg": 180.0},
    "e=0": {"a_km": 7000.0, "e": 0.0, "i_deg": 97.8, "raan_deg": 30.0,
            "argp_deg": 215.0, "f0_deg": 0.0},
}


@pytest.fixture(params=list(SINGULAR_ORBITS))
def singular_chief(request):
    return chief_from_config(SINGULAR_ORBITS[request.param])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_chief(rng, e_lo=0.01, e_hi=0.9, avoid_singular=True):
    while True:
        chief = make_chief(
            rng.uniform(7000.0, 45000.0),
            rng.uniform(e_lo, e_hi),
            rng.uniform(0.1, 3.0),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        if not avoid_singular:
            return chief
        if abs(chief.q1) > 1e-3 and abs(chief.e * math.sin(chief.f0)) > 1e-3:
            return chief


def integrate_cartesian(chief, x0, thetas):
    """Reference LVLH trajectory: the Keplerian Cartesian plant integrated
    in the argument of latitude by DOP853 at rtol 1e-13, sampled at the
    increasing thetas (thetas[0] = theta0)."""
    def rhs(th, x):
        return cartesian_plant_theta(chief, th) @ x

    sol = solve_ivp(rhs, (thetas[0], thetas[-1]), np.asarray(x0, dtype=float),
                    method="DOP853", t_eval=thetas, rtol=1e-13, atol=1e-20)
    assert sol.success, sol.message
    return sol.y.T


def scaled_error(states, ref):
    """Largest position and velocity deviation, each against the largest
    position or velocity norm of the reference."""
    states, ref = np.atleast_2d(states), np.atleast_2d(ref)
    diff = states - ref
    return max(
        np.max(np.linalg.norm(diff[:, :3], axis=1))
        / np.max(np.linalg.norm(ref[:, :3], axis=1)),
        np.max(np.linalg.norm(diff[:, 3:], axis=1))
        / np.max(np.linalg.norm(ref[:, 3:], axis=1)))


def batch_grid(chief, shift=0.0):
    """721 thetas over three revolutions from theta0; a complex shift
    moves them off the real axis."""
    return chief.theta0 + np.linspace(0.0, 6.0 * math.pi, 721) + shift


def batch_vs_scalar_error(fn, grid):
    """Largest difference between fn on the whole grid and the stack of fn
    on each of its Python scalars, each component along axis 1 (a state
    component, or a field) scaled by its largest magnitude on the grid."""
    batch = fn(grid)
    stack = np.array([fn(th) for th in grid.tolist()])
    assert batch.shape == stack.shape
    axes = (0,) + tuple(range(2, stack.ndim))
    scale = np.max(np.abs(stack), axis=axes, keepdims=True)
    return np.max(np.abs(batch - stack) / np.where(scale > 0.0, scale, 1.0))
