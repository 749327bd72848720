"""Nonlinear two-body machinery used as an independent propagation oracle.

Everything here works with inertial position/velocity vectors and full
nonlinear dynamics, so it shares no code path with the linearized plants
it is used to validate.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .orbit import eval_at_theta

_RTOL = _ATOL = 1e-12  # DOP853 tolerances of the two-body oracle


def chief_inertial_state(chief, theta):
    """Inertial position and velocity (km, km/s) of the chief at theta."""
    state = eval_at_theta(chief, theta)
    ci, si = math.cos(chief.inc), math.sin(chief.inc)
    co, so = math.cos(chief.raan), math.sin(chief.raan)
    ct, st = math.cos(theta), math.sin(theta)
    # columns of R3(-raan) R1(-inc) applied to in-plane radial/transverse units
    u_r = np.array([co * ct - so * ci * st, so * ct + co * ci * st, si * st])
    u_t = np.array([-co * st - so * ci * ct, -so * st + co * ci * ct, si * ct])
    r_vec = state.r * u_r
    v_vec = state.vr * u_r + state.vt * u_t
    return r_vec, v_vec


def lvlh_triad(r_vec, v_vec):
    """Rows of the inertial->LVLH rotation (e_r, e_t, e_n)."""
    e_r = r_vec / np.linalg.norm(r_vec)
    h_vec = np.cross(r_vec, v_vec)
    e_n = h_vec / np.linalg.norm(h_vec)
    e_t = np.cross(e_n, e_r)
    return np.vstack([e_r, e_t, e_n])


def relative_state_lvlh(chief_rv, deputy_rv):
    """LVLH relative state of a deputy with respect to a two-body chief.

    The relative velocity is as seen in the rotating frame; for two-body
    chief motion the frame rate is h/r^2 about e_n.
    """
    r_c, v_c = chief_rv
    r_d, v_d = deputy_rv
    dcm = lvlh_triad(r_c, v_c)
    h_vec = np.cross(r_c, v_c)
    omega = np.array([0.0, 0.0, np.linalg.norm(h_vec) / np.dot(r_c, r_c)])
    rho = dcm @ (r_d - r_c)
    rho_dot = dcm @ (v_d - v_c) - np.cross(omega, rho)
    return np.concatenate([rho, rho_dot])


def deputy_from_relative(chief_rv, rel_state):
    """Inverse of relative_state_lvlh: inertial deputy state from an LVLH
    relative state."""
    r_c, v_c = chief_rv
    dcm = lvlh_triad(r_c, v_c)
    h_vec = np.cross(r_c, v_c)
    omega = np.array([0.0, 0.0, np.linalg.norm(h_vec) / np.dot(r_c, r_c)])
    rho = np.asarray(rel_state[:3])
    rho_dot = np.asarray(rel_state[3:])
    r_d = r_c + dcm.T @ rho
    v_d = v_c + dcm.T @ (rho_dot + np.cross(omega, rho))
    return r_d, v_d


def propagate_twobody(rv0, mu, t_grid, accel_fn=None):
    """Propagate inertial two-body dynamics (optionally with an extra
    inertial acceleration accel_fn(t, r, v) km/s^2) to the given times.

    Returns an array (len(t_grid), 6) of inertial states.
    """
    r0, v0 = rv0
    y0 = np.concatenate([r0, v0])

    def rhs(t, y):
        r = y[:3]
        acc = -mu * r / np.linalg.norm(r) ** 3
        if accel_fn is not None:
            acc = acc + accel_fn(t, y[:3], y[3:])
        return np.concatenate([y[3:], acc])

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), y0, method="DOP853",
                    t_eval=t_grid, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationError(f"two-body propagation failed: {sol.message}")
    return sol.y.T


def qns_elements_from_rv(r_vec, v_vec, mu):
    """Osculating quasi-nonsingular elements (a, theta, i, q1, q2, raan)
    from an inertial state. Requires a non-equatorial, closed orbit."""
    r = np.linalg.norm(r_vec)
    v2 = float(np.dot(v_vec, v_vec))
    a = 1.0 / (2.0 / r - v2 / mu)
    h_vec = np.cross(r_vec, v_vec)
    h = np.linalg.norm(h_vec)
    inc = math.acos(np.clip(h_vec[2] / h, -1.0, 1.0))
    raan = math.atan2(h_vec[0], -h_vec[1])
    node = np.array([math.cos(raan), math.sin(raan), 0.0])
    h_hat = h_vec / h
    node_t = np.cross(h_hat, node)
    # argument of latitude from the node line
    theta = math.atan2(np.dot(r_vec, node_t), np.dot(r_vec, node))
    e_vec = np.cross(v_vec, h_vec) / mu - r_vec / r
    q1 = float(np.dot(e_vec, node))
    q2 = float(np.dot(e_vec, node_t))
    return np.array([a, theta, inc, q1, q2, raan])


def nonlinear_relative_rate(chief, theta, rel_state):
    """Exact nonlinear rate of the LVLH relative state about a two-body
    chief at the given argument of latitude.

    Textbook rotating-frame form: the acceleration difference of the two
    gravity fields plus Coriolis, Euler and centripetal terms, with the
    frame rate h/r^2 and its two-body derivative -2 vr thetadot / r.
    """
    st = eval_at_theta(chief, theta)
    rho = np.asarray(rel_state[:3], dtype=float)
    rho_dot = np.asarray(rel_state[3:], dtype=float)
    omega = np.array([0.0, 0.0, st.thetadot])
    omega_dot = np.array([0.0, 0.0, -2.0 * st.vr * st.thetadot / st.r])
    r_c = np.array([st.r, 0.0, 0.0])
    r_d = r_c + rho
    acc_diff = (-chief.mu * r_d / np.linalg.norm(r_d) ** 3
                + chief.mu * r_c / st.r**3)
    rho_ddot = (acc_diff - 2.0 * np.cross(omega, rho_dot)
                - np.cross(omega_dot, rho)
                - np.cross(omega, np.cross(omega, rho)))
    return np.concatenate([rho_dot, rho_ddot])


def nonlinear_relative_trajectory(chief, rel_state0, t_grid):
    """Difference-of-two-propagations oracle.

    Builds the deputy inertial state from an LVLH relative state at the
    chief epoch, propagates chief and deputy separately through the full
    nonlinear two-body dynamics, and returns the LVLH relative state at
    each requested time.
    """
    chief_rv0 = chief_inertial_state(chief, chief.theta0)
    dep_rv0 = deputy_from_relative(chief_rv0, rel_state0)
    chief_traj = propagate_twobody(chief_rv0, chief.mu, t_grid)
    dep_traj = propagate_twobody(dep_rv0, chief.mu, t_grid)
    out = np.empty((len(t_grid), 6))
    for j in range(len(t_grid)):
        out[j] = relative_state_lvlh(
            (chief_traj[j, :3], chief_traj[j, 3:]),
            (dep_traj[j, :3], dep_traj[j, 3:]),
        )
    return out
