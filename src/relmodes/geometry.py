"""Linear maps from element differences to local relative coordinates,
and the Cartesian <-> spherical local-coordinate conversions.

The 6x6 maps take (da, dtheta, di, dq1, dq2, dOmega) to either the LVLH
Cartesian state (x, y, z, xdot, ydot, zdot) or the local spherical state
(dr, theta_r, phi_r, drdot, theta_r_dot, phi_r_dot). Both maps are
orbit-periodic in theta, and their first and fourth rows coincide; their
inverses (g_inverse) are closed form, singular only for equatorial chiefs.
The local reductions read the maps on chief.in_plane (i = pi/2), as
products G(theta) M G(theta0)^-1 that do not depend on i or Omega, so
only element-set results keep the equatorial singularity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InclinationSingularityError
from .orbit import _SIN_I_MIN, eval_at_theta


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


def drift_row(chief, st, target):
    """Drift-weight row d at the chief state(s) st (an OrbitStateAtTheta):
    row 6 of V^-1 for the chief rebased to st.theta, so c6 = d @ x there.
    The printed formulas, regular at every theta, e*sin(f) = 0 and e = 0
    included; shape st.theta.shape + (6,).
    """
    r, vr, vt = st.r, st.vr, st.vt
    p = chief.p
    if target == "cartesian":
        cq = chief.h * r**2 / (chief.a * chief.mu * chief.gamma)
        row = [(p / r + 1.0) * (p / r) * chief.n / chief.eta**3,
               vr / (vt * cq), 0.0, vr / vt, 1.0, 0.0]
    elif target == "spherical":
        row = [chief.mu / (chief.h * r**2) * (1.0 + p / r),
               0.0, 0.0, vr / (vt * r), 1.0, 0.0]
    else:
        raise ValueError(f"unknown target {target!r}")
    return _assemble([row], np.asarray(st.theta))[..., 0, :]


def g_inverse(chief, theta, target):
    """Inverse of geo_map(chief, theta, target) in closed form, for a
    scalar or array theta; shape theta.shape + (6, 6).

    Row k is the variation of element k with dr = (x, y, z) and the
    inertial dv = (xdot - thetadot y, ydot + thetadot x, zdot): delta-a
    (vis-viva) is s d with d the drift row; delta-i and delta-Omega turn
    the orbit normal by dr x v + r x dv; delta-theta is y/r less the node
    shift cos(i) delta-Omega; (delta-q1, delta-q2) is the eccentricity
    vector's, rotated by -theta, plus the node shift. Spherical rows read
    the Cartesian state through L^-1. Raises InclinationSingularityError
    for an equatorial chief, where delta-Omega is undefined.
    """
    si = math.sin(chief.inc)
    if abs(si) < _SIN_I_MIN:
        raise InclinationSingularityError(
            "equatorial chief: node undefined, so the element-difference "
            "map is singular")
    theta = np.asarray(theta)
    st = eval_at_theta(chief, theta)
    r, vr, vt, td, ct, s_t = (np.asarray(v)[..., None] for v in (
        st.r, st.vr, st.vt, st.thetadot, st.cos, st.sin))
    # s = 2 a^2 p / (h r), or 2 a^2 p / h for the spherical drift row
    s_da = 2.0 * chief.a**2 * chief.p / chief.h
    da = (s_da / r if target == "cartesian" else s_da) \
        * drift_row(chief, st, target)  # rejects an unknown target
    # the Cartesian state in target coordinates, one coefficient row each
    x, y, z, xd, yd, zd = e = np.eye(6)
    if target == "spherical":
        y, z, yd, zd = r * e[1], r * e[2], vr * e[1] + r * e[4], \
            vr * e[2] + r * e[5]
    h, mu, ci = chief.h, chief.mu, math.cos(chief.inc)
    dvx, dvy = xd - td * y, yd + td * x
    dh_n = vt * x - vr * y + r * dvy  # normal part of d(r x v)
    draan = (r * s_t * zd - (vt * ct + vr * s_t) * z) / (h * si)
    di = (r * ct * zd + (vt * s_t - vr * ct) * z) / h
    de_r = (h * dvy + vt * dh_n) / mu
    de_t = -(h * dvx + vr * dh_n) / mu - y / r
    return np.stack([da, y / r - ci * draan, di,
                     ct * de_r - s_t * de_t + ci * chief.q2 * draan,
                     s_t * de_r + ct * de_t - ci * chief.q1 * draan,
                     draan], axis=-2)


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
    fwd = np.diag([1.0, 1.0 / rc, 1.0 / rc, 1.0, 1.0 / rc, 1.0 / rc])
    fwd[4, 1] = fwd[5, 2] = -rcd / rc**2
    inv = np.diag([1.0, rc, rc, 1.0, rc, rc])
    inv[4, 1] = inv[5, 2] = rcd
    return fwd, inv


def cart_sph_linear_at(chief, theta):
    """Linearized Cartesian -> spherical map evaluated on the chief orbit."""
    st = eval_at_theta(chief, theta)
    return cart_sph_linear(st.r, st.vr)
