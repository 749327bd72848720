"""Modal engine: fundamental solutions, trajectory reconstruction from
modal constants, epoch remapping, maneuver constraints, the stationary
plane of the spherical reduced coordinates, and variation of the
constants under control or extra forces.

All trajectory-level evaluations run in the theta domain
(x(theta) = sum_i c_i P(theta) v_i, plus the drift chain); the constants
dynamics integrate in the eccentric anomaly, where theta and t are both
closed form.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .floquet import (ModalConstants, _drift_row, _lti_scale,
                      drift_constant, eigvecs_closed, lf_qns,
                      modal_constants, qns_r21, state_transition)
from .geometry import g_inverse, geo_map
from .orbit import (_eccentric_to_theta, _eccentric_to_time,
                    _time_to_eccentric, eval_at_theta)


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
    theta-domain reduction.

    It is evaluated as G(theta) P(theta) (I + (theta - theta0) R)
    G(theta0)^-1 V with G on chief.in_plane: the state transition applied
    to the eigenvector columns, with the drift taken in element
    differences and applied to column 6 alone (see _solution_stack);
    adding (theta - theta0) times column 5 to column 6 of P_x(theta) V
    lost up to 10x more digits.
    """
    return _solution_stack(chief, domain, theta, _element_basis(chief, domain))


def _element_basis(chief, domain):
    """Eigenvector columns in element differences of chief.in_plane,
    G(theta0)^-1 V."""
    v = eigvecs_closed(chief, domain)
    if domain == "qns":
        return v
    return g_inverse(chief.in_plane, chief.theta0, domain) @ v


def _solution_stack(chief, domain, theta, w):
    """G(theta) P(theta) (I + (theta - theta0) R) w: the solutions through
    the element-difference columns w (of chief.in_plane for a local
    domain, see _element_basis), in domain coordinates.

    Columns 1-5 of w are null directions of R, so R w = R21 w[0, 5] e1
    e6^T: the drift enters through column 6 alone, and the rounding in
    the delta-a entries of the others does not drift.
    """
    theta = np.asarray(theta, dtype=float)
    p = lf_qns(chief, theta)
    psi = p @ w
    psi[..., :, 5] += ((theta - chief.theta0) * qns_r21(chief)
                       * w[0, 5])[..., None] * p[..., :, 1]
    if domain == "qns":
        return psi
    return geo_map(chief.in_plane, theta, domain) @ psi


def reconstruct(chief, constants, theta, domain=None):
    """State at theta from modal constants; theta may be an array, and the
    result has shape theta.shape + (6,)."""
    domain = domain or constants.domain
    c = constants.as_array() if hasattr(constants, "as_array") else np.asarray(constants)
    return modal_state_matrix(chief, domain, theta) @ c


def extract_constants(chief, state, theta, domain):
    """Constants whose modal solution passes through `state` at theta: the
    closed-form weights (modal_constants) of the state carried back to
    theta0 by the state transition of the chief rebased at theta. Raises
    NearSingularMatrixError at an epoch with e*sin(f0) ~ 0 (see
    check_regular_epoch).
    """
    phi = state_transition(rebase_chief(chief, theta), domain, chief.theta0)
    return modal_constants(chief, phi @ np.asarray(state, dtype=float),
                           domain)


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
    """Constants of the same physical trajectory for a new epoch angle:
    the closed-form weights (modal_constants) of the rebased chief for its
    state at theta0', Psi(theta0') c = Phi(theta0', theta0) V c. Raises
    NearSingularMatrixError when the new epoch has e*sin(f0') ~ 0.
    """
    return modal_constants(rebase_chief(chief, theta0_new),
                           reconstruct(chief, constants, theta0_new),
                           constants.domain)


def no_drift_maneuver_line(chief, theta=None):
    """Unit in-plane direction along which an impulse leaves the drift
    constant unchanged: dv_y = -(vr/vt) dv_x at the maneuver point."""
    if theta is None:
        theta = chief.theta0
    st = eval_at_theta(chief, theta)
    d = np.array([1.0, -st.vr / st.vt])
    return d / np.linalg.norm(d)


def stationary_plane(chief):
    """Stationary-plane geometry of the reduced spherical coordinates.

    The spherical plant is R = v5 d^T, so the fields are read off the
    drift column v5 and the drift row d, normalised by gamma a: R_f = v5 /
    (gamma a) and n_vec = gamma a d over the active block.
    """
    ga = chief.gamma * chief.a
    alpha = _lti_scale(chief)
    v5 = eigvecs_closed(chief, "spherical")[:, 4]
    active = [0, 3, 4]
    return StationaryPlane(
        n_vec=ga * _drift_row(chief, "spherical")[active],
        zeta=v5[active] / (alpha * ga), alpha=alpha, R_f=v5 / ga,
        chi2_coeff=v5[1] / ga)


def sweep_bounded_family(chief, x0, y0, xdot0_list):
    """Bounded planar trajectories through a fixed Cartesian position.

    For each radial rate in xdot0_list the along-track rate is chosen to
    zero the drift constant, which is affine in ydot0 with unit
    coefficient. Only c3 varies across the family; c1 and c5 are pinned
    by the anchor position.
    """
    members = []
    for xd0 in xdot0_list:
        yd0 = -drift_constant(chief, [x0, y0, 0.0, xd0, 0.0, 0.0],
                              "cartesian")
        state0 = np.array([x0, y0, 0.0, xd0, yd0, 0.0])
        constants = modal_constants(chief, state0, "cartesian")
        members.append(FamilyMember(xdot0=xd0, ydot0=yd0, state0=state0,
                                    constants=constants))
    return members


# ---------------------------------------------------------------------------
# variation of the modal constants
# ---------------------------------------------------------------------------

_RTOL, _ATOL = 1e-12, 1e-14  # integrate_constants


def constants_dynamics(psi_mat, domain, control=None, deviation=None):
    """Rate of the modal constants, Psi^-1 (B u + delta), with psi_mat the
    solution matrix in `domain` coordinates.

    `control` is an LVLH acceleration u (km/s^2), which enters the
    velocity rows of the "cartesian" domain only (ValueError otherwise);
    `deviation` is the 6-vector delta of the true state rate from the
    nominal linear one beyond the control (for example deltaA @ x). With
    neither the constants are stationary.
    """
    rate = np.zeros(6)
    if control is not None:
        if domain != "cartesian":
            raise ValueError(f"the control is an LVLH acceleration, which "
                             f"enters the cartesian domain only, not "
                             f"{domain!r}")
        rate[3:] = control
    if deviation is not None:
        rate = rate + np.asarray(deviation, dtype=float)
    return np.linalg.solve(psi_mat, rate)


def integrate_constants(chief, domain, c0, t_grid, control_fn=None,
                        extra_fn=None):
    """Integrate the variation of the constants over t_grid.

    control_fn(t, x) returns the LVLH control acceleration (km/s^2), so
    it needs the "cartesian" domain (ValueError otherwise); extra_fn(t, x)
    returns a 6-vector deviation from the nominal linear state rate in
    domain coordinates. Returns an array (len(t_grid), 6) of constants;
    over a zero span (one time, or the first equal to the last) that is c0
    on every row, since the constants cannot move in zero time.

    The independent variable is the eccentric anomaly E: theta(E) and
    t(E) are closed form and dt/dE = (1 - e cos E) / n, so no Kepler
    solve runs inside the integration, and the steps gather at periapsis.
    """
    from scipy.integrate import solve_ivp

    w = _element_basis(chief, domain)
    e, n = chief.e, chief.n

    def rhs(big_e, c):
        m = _solution_stack(chief, domain, _eccentric_to_theta(chief, big_e),
                            w)
        t = _eccentric_to_time(chief, big_e)
        x = m @ c
        u = None if control_fn is None else control_fn(t, x)
        d = None if extra_fn is None else extra_fn(t, x)
        return (constants_dynamics(m, domain, u, d)
                * ((1.0 - e * math.cos(big_e)) / n))

    c0 = np.asarray(c0, dtype=float)
    e_grid = _time_to_eccentric(chief, t_grid)
    if e_grid[0] == e_grid[-1]:
        return np.tile(c0, (e_grid.size, 1))
    sol = solve_ivp(rhs, (e_grid[0], e_grid[-1]), c0,
                    method="DOP853", t_eval=e_grid, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationError(f"constants integration failed: {sol.message}")
    return sol.y.T
