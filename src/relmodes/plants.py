"""Linearized relative-motion plant matrices and the LTV propagator.

Three plants are provided:

* the classical constant planar plant for a circular chief
  (state x, y, xdot, ydot in the rotating LVLH frame),
* the two-body LVLH Cartesian plant for an eccentric chief (time domain),
* the quasi-nonsingular element-difference plant with the argument of
  latitude as independent variable (only the delta-theta row is nonzero).

`propagate_linear` integrates any of them (or a user-supplied plant
callable) with an adaptive high-order Runge-Kutta scheme.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InclinationSingularityError, IntegrationError
from .orbit import eval_at_theta

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14

_SIN_I_MIN = 1e-9


def cw_planar_plant(n):
    """Constant planar plant for a circular chief, state (x, y, xdot, ydot).

    xddot = 3n^2 x + 2n ydot,  yddot = -2n xdot.
    """
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [3.0 * n * n, 0.0, 0.0, 2.0 * n],
            [0.0, 0.0, -2.0 * n, 0.0],
        ]
    )


def cw_stm_planar(n, t):
    """Closed-form planar state transition matrix for the circular-chief
    plant, epoch t0 = 0."""
    if not n > 0:
        raise ValueError("mean motion must be positive")
    nt = n * t
    s = math.sin(nt)
    c = math.cos(nt)
    return np.array(
        [
            [4.0 - 3.0 * c, 0.0, s / n, 2.0 * (1.0 - c) / n],
            [6.0 * (s - nt), 1.0, -2.0 * (1.0 - c) / n, 4.0 * s / n - 3.0 * t],
            [3.0 * n * s, 0.0, c, 2.0 * s],
            [-6.0 * n * (1.0 - c), 0.0, -2.0 * s, 4.0 * c - 3.0],
        ]
    )


def cw_plant_full(n):
    """6x6 circular-chief plant, state (x, y, z, xdot, ydot, zdot)."""
    a = np.zeros((6, 6))
    a[0:3, 3:6] = np.eye(3)
    a[3, 0] = 3.0 * n * n
    a[3, 4] = 2.0 * n
    a[4, 3] = -2.0 * n
    a[5, 2] = -n * n
    return a


def qns_plant_theta(chief, theta):
    """Element-difference plant in the theta domain, for a scalar or array
    theta; shape theta.shape + (6, 6).

    Only the delta-theta row is nonzero; it is the Jacobian of the
    latitude rate with respect to (a, theta, q1, q2), divided by thetadot.
    """
    state = eval_at_theta(chief, theta)
    kappa, ct, st = state.kappa, state.cos, state.sin
    eta2 = chief.eta**2
    a = np.zeros(kappa.shape + (6, 6))  # kappa has theta's shape
    a[..., 1, 0] = -1.5 / chief.a
    a[..., 1, 1] = 2.0 * (chief.q2 * ct - chief.q1 * st) / kappa
    a[..., 1, 3] = 3.0 * chief.q1 / eta2 + 2.0 * ct / kappa
    a[..., 1, 4] = 3.0 * chief.q2 / eta2 + 2.0 * st / kappa
    return a


def qns_plant_time(chief, theta):
    """Element-difference plant with time as independent variable:
    thetadot times the theta-domain plant, for a scalar or array theta."""
    thetadot = eval_at_theta(chief, theta).thetadot
    return thetadot[..., None, None] * qns_plant_theta(chief, theta)


def gauss_rates(chief, theta, accel):
    """Rates of the quasi-nonsingular elements (a, theta, i, q1, q2, Omega)
    under an LVLH-resolved perturbing acceleration (a_r, a_t, a_n) km/s^2.
    """
    a_r, a_t, a_n = accel
    st = math.sin(theta)
    ct = math.cos(theta)
    state = eval_at_theta(chief, theta)
    r = state.r
    h = chief.h
    p = chief.p
    q1 = chief.q1
    q2 = chief.q2
    sin_i = math.sin(chief.inc)
    if abs(sin_i) < _SIN_I_MIN and a_n != 0.0:
        raise InclinationSingularityError(
            "equatorial chief: node-relative rates undefined for out-of-plane "
            "acceleration"
        )
    cot_i = math.cos(chief.inc) / sin_i if abs(sin_i) >= _SIN_I_MIN else 0.0
    inv_sin_i = 1.0 / sin_i if abs(sin_i) >= _SIN_I_MIN else 0.0

    adot = 2.0 * chief.a**2 / h * ((q1 * st - q2 * ct) * a_r + (p / r) * a_t)
    thetadot = h / r**2 - (r * st * cot_i / h) * a_n
    idot = (r * ct / h) * a_n
    q1dot = (
        (p * st / h) * a_r
        + (((p + r) * ct + r * q1) / h) * a_t
        + (r * q2 * st * cot_i / h) * a_n
    )
    q2dot = (
        -(p * ct / h) * a_r
        + (((p + r) * st + r * q2) / h) * a_t
        - (r * q1 * st * cot_i / h) * a_n
    )
    raandot = (r * st * inv_sin_i / h) * a_n
    return np.array([adot, thetadot, idot, q1dot, q2dot, raandot])


def cartesian_plant_keplerian(chief, theta):
    """Two-body LVLH Cartesian plant at the given argument of latitude.

    State (x, y, z, xdot, ydot, zdot); time is the independent variable.
    The frame rotates at thetadot about e_n with angular acceleration
    -2 vr thetadot / r, and the gravity gradient is (mu/r^3) diag(2,-1,-1).
    theta may be a scalar or an array; shape theta.shape + (6, 6).
    """
    state = eval_at_theta(chief, theta)
    r = state.r
    td = state.thetadot
    tdd = -2.0 * state.vr * td / r
    mu_r3 = chief.mu / r**3
    a = np.zeros(r.shape + (6, 6))  # r has theta's shape
    a[..., 0, 3] = a[..., 1, 4] = a[..., 2, 5] = 1.0
    a[..., 3, 0] = td * td + 2.0 * mu_r3
    a[..., 3, 1] = tdd
    a[..., 4, 0] = -tdd
    a[..., 4, 1] = td * td - mu_r3
    a[..., 5, 2] = -mu_r3
    a[..., 3, 4] = 2.0 * td
    a[..., 4, 3] = -2.0 * td
    return a


def propagate_linear(plant_fn, state0, span, steps, rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL):
    """Propagate xdot = A(s) x over span = (s0, s1) with DOP853 and return
    the solution on a uniform grid of `steps` points (endpoints included).

    `plant_fn` maps the independent variable to the plant matrix; whether
    s is time or argument of latitude is the caller's convention.

    Returns
    -------
    grid : ndarray (steps,)
    states : ndarray (steps, len(state0))
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    s0, s1 = span
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError("span must be finite")
    x0 = np.asarray(state0, dtype=float)
    grid = np.linspace(s0, s1, steps)

    def rhs(s, x):
        return plant_fn(s) @ x

    sol = solve_ivp(rhs, (s0, s1), x0, method="DOP853", t_eval=grid,
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"linear propagation failed: {sol.message}")
    return grid, sol.y.T
