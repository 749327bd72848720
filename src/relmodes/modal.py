"""Modal engine: fundamental solutions, trajectory reconstruction from
modal constants, epoch remapping, maneuver constraints, the stationary
plane of the spherical reduced coordinates, and variation of the
constants under control or extra forces.

All trajectory-level evaluations run in the theta domain
(x(theta) = sum_i c_i P(theta) v_i, plus the drift chain); the constants
dynamics integrate in the time domain.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .floquet import (ModalConstants, balanced_solve, check_regular_epoch,
                      drift_constant, eigvecs_closed, lf_qns, lf_transform,
                      lti_closed, modal_constants, qns_r21, state_transition)
from .geometry import g_inverse, geo_map
from .orbit import eval_at_theta, shorthand_abc, time_to_theta


@dataclass(frozen=True)
class StationaryPlane:
    """Geometry of the reduced spherical coordinates.

    The active block rho = (chi1, chi4, chi5) obeys
    rho' = alpha (rho . n_vec) zeta with zeta . n_vec = 0, so rho . n_vec
    is conserved and motion starting on the plane rho . n_vec = 0 stays
    fixed. chi2 integrates alpha Cq (Bq+1)^2 / (gamma a) times the same
    conserved quantity; chi3 and chi6 are constant.
    """

    n_vec: np.ndarray
    zeta: np.ndarray
    alpha: float
    R_f: np.ndarray
    chi2_coeff: float

    def rho_rate(self, rho):
        return self.alpha * float(np.dot(rho, self.n_vec)) * self.zeta

    def chi2_rate(self, rho):
        return self.chi2_coeff * float(np.dot(rho, self.n_vec))


@dataclass(frozen=True)
class FamilyMember:
    """One bounded trajectory of a position-anchored one-parameter family."""

    xdot0: float
    ydot0: float
    state0: np.ndarray
    constants: ModalConstants


def modal_state_matrix(chief, domain, theta):
    """Fundamental-solution matrix Psi(theta) = P(theta) V (I + (theta -
    theta0) E_56), shape theta.shape + (6, 6); column k is fundamental
    solution k+1, so Psi @ c is the state at theta. Built on the
    theta-domain reduction."""
    theta = np.asarray(theta, dtype=float)
    psi = lf_transform(chief, domain, theta) @ lti_closed(chief, domain).V
    psi[..., 5] += (theta - chief.theta0)[..., None] * psi[..., 4]
    return psi


def reconstruct(chief, constants, theta, domain=None):
    """State at theta from modal constants; theta may be an array, and the
    result has shape theta.shape + (6,)."""
    domain = domain or constants.domain
    c = constants.as_array() if hasattr(constants, "as_array") else np.asarray(constants)
    return modal_state_matrix(chief, domain, theta) @ c


def extract_constants(chief, state, theta, domain):
    """Constants whose modal solution passes through `state` at theta.

    At theta = theta0 this reduces to the balanced solve against V; the
    closed-form route is modal_constants. Raises NearSingularMatrixError at
    an epoch with e*sin(f0) ~ 0 (see check_regular_epoch).
    """
    check_regular_epoch(chief, domain)
    sys = lti_closed(chief, domain)
    m = sys.V.copy()
    m[:, 5] += (theta - chief.theta0) * sys.V[:, 4]
    chi = np.linalg.solve(lf_transform(chief, domain, theta),
                          np.asarray(state, dtype=float))
    c = balanced_solve(m, chi)
    return ModalConstants(c=c, domain=domain, theta0=chief.theta0)


def mode_trajectory(chief, mode_index, theta_grid, domain, normalize=False):
    """Sample one fundamental solution on a theta grid.

    With normalize=True the whole 6-vector is divided by the largest
    position norm on the grid, so the maximum relative distance is one.
    """
    if not 1 <= mode_index <= 6:
        raise ValueError("mode index must be 1..6")
    out = modal_state_matrix(chief, domain, theta_grid)[..., mode_index - 1]
    return normalize_mode(out) if normalize else out


def normalize_mode(states):
    """Sampled solution (..., 6) divided by its largest position norm on
    the grid, so the maximum relative distance is one; an identically zero
    solution is returned as is."""
    scale = np.max(np.linalg.norm(states[..., :3], axis=-1))
    return states / scale if scale > 0.0 else states


def rebase_chief(chief, theta0_new):
    """Same orbit with the epoch moved to theta0_new (t = 0 there)."""
    return dataclasses.replace(chief, theta0=theta0_new)


def remap_epoch(chief, constants, theta0_new):
    """Constants of the same physical trajectory for a new epoch angle.

    c' = V'(theta0')^-1 Phi(theta0', theta0) V(theta0) c, where Phi is the
    state transition matrix in the local coordinates and V' belongs to the
    rebased chief. Reconstructing with the rebased chief and the returned
    constants reproduces the original trajectory. Raises
    NearSingularMatrixError when the new epoch has e*sin(f0') ~ 0.
    """
    domain = constants.domain
    chief_new = rebase_chief(chief, theta0_new)
    check_regular_epoch(chief_new, domain)
    x_new = (state_transition(chief, domain, theta0_new)
             @ eigvecs_closed(chief, domain) @ constants.as_array())
    return ModalConstants(
        c=balanced_solve(eigvecs_closed(chief_new, domain), x_new),
        domain=domain, theta0=theta0_new)


def no_drift_maneuver_line(chief, theta=None):
    """Unit in-plane direction along which an impulse leaves the drift
    constant unchanged: dv_y = -(vr/vt) dv_x at the maneuver point."""
    if theta is None:
        theta = chief.theta0
    st = eval_at_theta(chief, theta)
    d = np.array([1.0, -st.vr / st.vt])
    return d / np.linalg.norm(d)


def stationary_plane(chief):
    """Stationary-plane geometry of the reduced spherical coordinates."""
    sh = shorthand_abc(chief)
    a_, b_, c_ = sh.Aq, sh.Bq, sh.Cq
    ga = sh.gamma * chief.a
    alpha = 2.0 * qns_r21(chief) * chief.a / sh.gamma
    n_vec = np.array([(b_ + 2.0) / c_, a_, ga])
    zeta = np.array([a_ * c_, b_, -2.0 * a_ * (b_ + 1.0) / ga])
    r_f = alpha * np.array([
        a_ * c_, c_ * (b_ + 1.0) ** 2 / ga, 0.0,
        b_, -2.0 * a_ * (b_ + 1.0) / ga, 0.0,
    ])
    chi2_coeff = alpha * c_ * (b_ + 1.0) ** 2 / ga
    return StationaryPlane(n_vec=n_vec, zeta=zeta, alpha=alpha, R_f=r_f,
                           chi2_coeff=chi2_coeff)


def sweep_bounded_family(chief, x0, y0, xdot0_list, domain="cartesian"):
    """Bounded planar trajectories through a fixed initial position.

    For each radial rate in xdot0_list the along-track rate is chosen to
    zero the drift constant, which is affine in ydot0 with unit
    coefficient. Only c3 varies across the family; c1 and c5 are pinned
    by the anchor position.
    """
    if domain != "cartesian":
        raise ValueError("the family sweep anchors a Cartesian position")
    members = []
    for xd0 in xdot0_list:
        yd0 = -drift_constant(chief, [x0, y0, 0.0, xd0, 0.0, 0.0], domain)
        state0 = np.array([x0, y0, 0.0, xd0, yd0, 0.0])
        constants = modal_constants(chief, state0, "cartesian")
        members.append(FamilyMember(xdot0=xd0, ydot0=yd0, state0=state0,
                                    constants=constants))
    return members


# ---------------------------------------------------------------------------
# variation of the modal constants
# ---------------------------------------------------------------------------

_B_CART = np.vstack([np.zeros((3, 3)), np.eye(3)])
_RTOL, _ATOL = 1e-12, 1e-14  # integrate_constants


def psi_time_factory(chief, domain):
    """Time-domain solution matrix Psi(t) = P_t V (I + n (t-t0) E_56).

    Psi(t) c is the modal state at time t since epoch; built on the
    time-domain reduction so the secular term advances with mean motion.
    """
    sys = lti_closed(chief, domain, indep="time")
    n = chief.n
    # psi runs inside ODE right-hand sides, so G(theta0)^-1 is taken once
    # here instead of in an lf_transform call per step
    v = sys.V
    if domain != "qns":
        v = g_inverse(geo_map(chief, chief.theta0, domain)) @ v

    def psi(t):
        theta = time_to_theta(chief, t)
        m = v.copy()
        m[:, 5] += n * t * v[:, 4]
        out = lf_qns(chief, theta, indep="time") @ m
        if domain != "qns":
            out = geo_map(chief, theta, domain) @ out
        return out

    return psi


def constants_dynamics(psi_mat, state, control=None, extra_fn=None):
    """Rate of the modal constants: Psi^-1 (f(x, u, t) - A x).

    `extra_fn(state)` supplies any deviation of the true state rate from
    the nominal linear model beyond the control input (for example
    deltaA @ x); with neither control nor deviation the constants are
    stationary.
    """
    rhs = np.zeros(6)
    if control is not None:
        rhs += _B_CART @ np.asarray(control, dtype=float)
    if extra_fn is not None:
        rhs = rhs + np.asarray(extra_fn(state), dtype=float)
    return np.linalg.solve(psi_mat, rhs)


def integrate_constants(chief, domain, c0, t_grid, control_fn=None,
                        extra_fn=None):
    """Integrate the variation of the constants over t_grid.

    control_fn(t, x) returns the LVLH control acceleration (km/s^2);
    extra_fn(t, x) returns a 6-vector deviation from the nominal linear
    state rate. Returns an array (len(t_grid), 6) of constants.
    """
    psi = psi_time_factory(chief, domain)

    def rhs(t, c):
        m = psi(t)
        x = m @ c
        vec = np.zeros(6)
        if control_fn is not None:
            vec += _B_CART @ np.asarray(control_fn(t, x), dtype=float)
        if extra_fn is not None:
            vec = vec + np.asarray(extra_fn(t, x), dtype=float)
        return np.linalg.solve(m, vec)

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), np.asarray(c0, dtype=float),
                    method="DOP853", t_eval=t_grid, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationError(f"constants integration failed: {sol.message}")
    return sol.y.T
