"""Linear maps from element differences to local relative coordinates,
and the Cartesian <-> spherical local-coordinate conversions.

The 6x6 maps take (da, dtheta, di, dq1, dq2, dOmega) to either the LVLH
Cartesian state (x, y, z, xdot, ydot, zdot) or the local spherical state
(dr, theta_r, phi_r, drdot, theta_r_dot, phi_r_dot). Both maps are
orbit-periodic in theta, and their first and fourth rows coincide.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularMatrixError
from .orbit import eval_at_theta

_COND_MAX = 1e12


@dataclass(frozen=True)
class SphState:
    """Local spherical relative state."""

    dr: float           # km
    theta_r: float      # rad
    phi_r: float        # rad
    drdot: float        # km/s
    theta_r_dot: float  # rad/s
    phi_r_dot: float    # rad/s

    def as_array(self):
        return np.array([self.dr, self.theta_r, self.phi_r,
                         self.drdot, self.theta_r_dot, self.phi_r_dot])


def _assemble(rows, theta):
    """Stack a 6x6 nested list of entries, each a scalar or an array over
    theta, into an array of shape theta.shape + (6, 6)."""
    out = np.empty(theta.shape + (6, 6), dtype=np.result_type(theta, float))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def g_cartesian(chief, theta):
    """Map from element differences to the LVLH Cartesian state.

    theta may be a scalar or an array, real or complex; the result has
    shape theta.shape + (6, 6).
    """
    theta = np.asarray(theta)
    st = eval_at_theta(chief, theta)
    r, vr, vt, ct, s_t = st.r, st.vr, st.vt, st.cos, st.sin
    a, p, h = chief.a, chief.p, chief.h
    q1, q2 = chief.q1, chief.q2
    ci, si = math.cos(chief.inc), math.sin(chief.inc)
    return _assemble([
        [r / a, vr / vt * r, 0.0,
         -r / p * (2.0 * a * q1 + r * ct), -r / p * (2.0 * a * q2 + r * s_t), 0.0],
        [0.0, r, 0.0, 0.0, 0.0, r * ci],
        [0.0, 0.0, r * s_t, 0.0, 0.0, -r * ct * si],
        [-vr / (2.0 * a), (1.0 / r - 1.0 / p) * h, 0.0,
         (vr * a * q1 + h * s_t) / p, (vr * a * q2 - h * ct) / p, 0.0],
        [-3.0 * vt / (2.0 * a), -vr, 0.0,
         (3.0 * vt * a * q1 + 2.0 * h * ct) / p,
         (3.0 * vt * a * q2 + 2.0 * h * s_t) / p, vr * ci],
        [0.0, 0.0, vt * ct + vr * s_t, 0.0, 0.0, (vt * s_t - vr * ct) * si],
    ], theta)


def g_spherical(chief, theta):
    """Map from element differences to the local spherical state.

    Rows 1 and 4 are identical to the Cartesian map; the angular rows
    carry dimensionless angles and angle rates. theta may be a scalar or
    an array, real or complex; the result has shape theta.shape + (6, 6).
    """
    theta = np.asarray(theta)
    st = eval_at_theta(chief, theta)
    r, vr, vt, td = st.r, st.vr, st.vt, st.thetadot
    ct, s_t = st.cos, st.sin
    a, p, h = chief.a, chief.p, chief.h
    q1, q2 = chief.q1, chief.q2
    ci, si = math.cos(chief.inc), math.sin(chief.inc)
    return _assemble([
        [r / a, vr / vt * r, 0.0,
         -r / p * (2.0 * a * q1 + r * ct), -r / p * (2.0 * a * q2 + r * s_t), 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, ci],
        [0.0, 0.0, s_t, 0.0, 0.0, -ct * si],
        [-vr / (2.0 * a), (1.0 / r - 1.0 / p) * h, 0.0,
         (vr * a * q1 + h * s_t) / p, (vr * a * q2 - h * ct) / p, 0.0],
        [-3.0 * td / (2.0 * a), -2.0 * vr / r, 0.0,
         td / p * (3.0 * a * q1 + 2.0 * r * ct),
         td / p * (3.0 * a * q2 + 2.0 * r * s_t), 0.0],
        [0.0, 0.0, td * ct, 0.0, 0.0, td * s_t * si],
    ], theta)


def geo_map(chief, theta, target):
    """g_cartesian or g_spherical by target name."""
    if target == "cartesian":
        return g_cartesian(chief, theta)
    if target == "spherical":
        return g_spherical(chief, theta)
    raise ValueError(f"unknown target {target!r}")


def _equilibrate(mat):
    """Row- then column-normalized copy of mat, with the row and column
    norms that undo it (zero norms are taken as one).

    The raw maps mix km, rad and their rates, so unscaled they mostly
    measure units; equilibration leaves the geometric conditioning.
    """
    mat = np.asarray(mat, dtype=float)
    r = np.linalg.norm(mat, axis=1)
    r[r == 0.0] = 1.0
    scaled = mat / r[:, None]
    c = np.linalg.norm(scaled, axis=0)
    c[c == 0.0] = 1.0
    return scaled / c[None, :], r, c


def equilibrated_cond(mat):
    """Condition number after row/column equilibration."""
    return np.linalg.cond(_equilibrate(mat)[0])


def g_inverse(g):
    """Numeric inverse of one element-difference map, rejecting
    near-singular maps.

    Inverts the row/column-equilibrated matrix so the mixed units do not
    degrade the factorization, then undoes the scaling.
    """
    g = np.asarray(g, dtype=float)
    scaled, r, c = _equilibrate(g)
    cond = np.linalg.cond(scaled)
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise NearSingularMatrixError(
            f"element-difference map is near singular "
            f"(equilibrated cond={cond:.3e})"
        )
    inv = (np.linalg.inv(scaled) / r[None, :]) / c[:, None]
    # one step of iterative refinement: the periodic transforms built on
    # this inverse must return identity at the epoch to ~1e-12
    inv = inv + inv @ (np.eye(g.shape[0]) - g @ inv)
    return inv


def cart_to_sph(chief_radius, chief_rdot, state):
    """Exact nonlinear LVLH Cartesian -> local spherical conversion.

    `state` is (x, y, z, xdot, ydot, zdot); chief_radius and chief_rdot
    are the chief radius (km) and radial rate (km/s) at the same instant.
    """
    x, y, z, xd, yd, zd = np.asarray(state, dtype=float)
    rc, rcd = chief_radius, chief_rdot
    rho = math.sqrt((rc + x) ** 2 + y * y + z * z)
    if rho == 0.0:
        raise ValueError("total radius is zero: spherical direction undefined")
    dr = rho - rc
    theta_r = math.atan2(y, rc + x)
    phi_r = math.asin(z / rho)
    drdot = ((rc + x) * (rcd + xd) + y * yd + z * zd) / rho - rcd
    theta_r_dot = ((rc + x) * yd - y * (rcd + xd)) / ((rc + x) ** 2 + y * y)
    phi_r_dot = ((rc + dr) * zd - (rcd + drdot) * z) / (
        (rc + dr) ** 2 * math.sqrt(1.0 - z * z / (rc + dr) ** 2)
    )
    return SphState(dr, theta_r, phi_r, drdot, theta_r_dot, phi_r_dot)


def sph_to_cart(chief_radius, chief_rdot, state):
    """Exact nonlinear local spherical -> LVLH Cartesian conversion.

    Velocities come from differentiating the position formulas, so this
    inverts cart_to_sph exactly. Requires |phi_r| < pi/2.
    """
    if isinstance(state, SphState):
        dr, th, ph, drd, thd, phd = state.as_array()
    else:
        dr, th, ph, drd, thd, phd = np.asarray(state, dtype=float)
    if not abs(ph) < 0.5 * math.pi:
        raise ValueError("phi_r must satisfy |phi_r| < pi/2")
    rc, rcd = chief_radius, chief_rdot
    rho = rc + dr
    rhod = rcd + drd
    cth, sth = math.cos(th), math.sin(th)
    cph, sph = math.cos(ph), math.sin(ph)
    x = rho * cth * cph - rc
    y = rho * sth * cph
    z = rho * sph
    xd = rhod * cth * cph - rho * (sth * cph * thd + cth * sph * phd) - rcd
    yd = rhod * sth * cph + rho * (cth * cph * thd - sth * sph * phd)
    zd = rhod * sph + rho * cph * phd
    return np.array([x, y, z, xd, yd, zd])


def cart_sph_linear(chief_radius, chief_rdot):
    """Linearized Cartesian -> spherical map and its closed-form inverse."""
    rc, rcd = chief_radius, chief_rdot
    if not rc > 0:
        raise ValueError("chief radius must be positive")
    fwd = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / rc, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0 / rc, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -rcd / rc**2, 0.0, 0.0, 1.0 / rc, 0.0],
        [0.0, 0.0, -rcd / rc**2, 0.0, 0.0, 1.0 / rc],
    ])
    inv = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, rc, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, rc, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, rcd, 0.0, 0.0, rc, 0.0],
        [0.0, 0.0, rcd, 0.0, 0.0, rc],
    ])
    return fwd, inv


def cart_sph_linear_at(chief, theta):
    """Linearized Cartesian -> spherical map evaluated on the chief orbit."""
    st = eval_at_theta(chief, theta)
    return cart_sph_linear(st.r, st.vr)
