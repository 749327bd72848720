"""Closed-form periodic-to-constant reductions of the Keplerian relative
motion dynamics in three coordinate sets, and the change-of-basis theorems
that map them into one another.

The element-difference dynamics in the theta domain admit an orbit-periodic
transformation P(theta), identity at the epoch, that reduces the system to
a constant nilpotent plant R with a single nonzero entry. The local
Cartesian and spherical reductions follow by a similarity/congruence pair:

    R_x = G(theta0) R G(theta0)^-1
    P_x(theta) = G(theta) P(theta) G(theta0)^-1

These products do not depend on i or Omega, so G is taken on the chief's
in-plane orbit (chief.in_plane, i = pi/2), where no node term cancels and
an equatorial chief is as regular as any other.

All three constant plants share six zero eigenvalues with geometric
multiplicity five (one 2-chain); the generalized direction carries the
secular drift and its weight c6 is the boundedness condition. Each plant
is rank one, R = v5 d^T: the drift column of V times the drift-weight row
d of V^-1 that gives c6 = d @ x0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularMatrixError
from .geometry import drift_row, g_inverse, geo_map
from .orbit import eval_at_theta, theta_to_time

_CSTEP = 1e-30  # complex-step size of the residual diagnostics


@dataclass(frozen=True)
class LtiSystem:
    """Constant reduced plant, its (generalized) eigenvectors and the
    Jordan bookkeeping.

    `chains` holds 0-based column-index chains into V, true eigenvector
    first; the Keplerian closed forms always give five 1-chains and one
    2-chain rooted at column 4.
    """

    R: np.ndarray
    V: np.ndarray
    eigenvalues: np.ndarray
    chains: tuple


@dataclass(frozen=True)
class ModalConstants:
    """Weights of the six fundamental solutions for one initial state."""

    c: np.ndarray
    domain: str
    theta0: float

    def as_array(self):
        return np.asarray(self.c, dtype=float)

    def __getitem__(self, i):
        return self.c[i]


# ---------------------------------------------------------------------------
# element-difference (QNS) reduction
# ---------------------------------------------------------------------------

# The F-functions below are the regular parts of the printed forms: the
# 1/q1 terms of F21 and F25 (3 q2/(q1 (e^2-1)) and 4/q1) are additive
# constants, so they cancel in every F(theta0) - F(theta) difference and
# are dropped, which leaves no singularity at q1 = 0. Every function of
# theta below is analytic, so its complex-step derivative takes no
# difference and needs no precision beyond float64.
_TWO_PI = 2.0 * math.pi


def _atan_unwrapped(chief, theta):
    """Continuous branch of atan((q2 + (1-q1) tan(theta/2))/eta).

    The principal value jumps by pi at theta = pi + 2k*pi; adding k*pi per
    revolution makes the result continuous and the combination
    (atan - theta/2) 2*pi-periodic. The revolution count comes from the
    real part, so a complex-step theta stays on its branch.
    """
    k = np.rint(np.real(theta) / _TWO_PI)
    tm = theta - _TWO_PI * k
    u = (chief.q2 + (1.0 - chief.q1) * np.tan(0.5 * tm)) / chief.eta
    return np.arctan(u) + math.pi * k


def _row_terms(chief, state, indep):
    """kappa and the regular F21, F24, F25 at the chief state(s) `state`
    (an OrbitStateAtTheta).

    F21 is returned as zero for the time-domain reduction, whose P21
    vanishes identically.
    """
    q1, q2 = chief.q1, chief.q2
    st, ct, kappa = state.sin, state.cos, state.kappa
    f24 = 4.0 * (q2 + st) / kappa**2 + 4.0 * st / kappa
    f25 = 4.0 * (-q1 * (1.0 + ct * ct) - ct * (2.0 + q2 * st)) / kappa**2
    if indep == "time":
        return kappa, 0.0, f24, f25
    f21 = (6.0 / chief.eta**3
           * (_atan_unwrapped(chief, state.theta) - 0.5 * state.theta)
           + 3.0 * (q1 * st - q2 * ct) / (chief.gamma * kappa))
    return kappa, f21, f24, f25


def lf_qns_components(chief, theta, indep="theta"):
    """The four nonzero delta-theta-row components (P21, P22, P24, P25).

    theta may be a scalar or an array, real or complex. P21 is
    identically zero when the reduction is taken with time as the
    independent variable. The printed P21/P25 forms carry 1/q1 terms, but
    those are additive constants that cancel in the F(theta0) - F(theta)
    differences; the regular remainders used here are exact for every q1,
    q1 = 0 included.
    """
    kappa, f21, f24, f25 = _row_terms(chief, eval_at_theta(chief, theta),
                                      indep)
    kappa0, f21_0, f24_0, f25_0 = _row_terms(chief, chief.epoch, indep)
    p21 = kappa**2 / (2.0 * chief.a) * (f21_0 - f21)
    p22 = kappa**2 / kappa0**2
    p24 = kappa**2 / (4.0 * chief.gamma) * (f24_0 - f24)
    p25 = kappa**2 / (4.0 * chief.gamma) * (f25_0 - f25)
    return p21, p22, p24, p25


def lf_qns(chief, theta, indep="theta"):
    """Periodic reduction matrix for the element-difference dynamics.

    Identity except for the delta-theta row; equals identity at theta0.
    The row is regular for every closed chief, q1 = 0 included. Returns
    shape theta.shape + (6, 6); a complex theta gives a complex matrix.
    """
    theta = np.asarray(theta)
    p21, p22, p24, p25 = lf_qns_components(chief, theta, indep)
    p = np.zeros(theta.shape + (6, 6), dtype=np.result_type(theta, float))
    p[..., range(6), range(6)] = 1.0
    p[..., 1, 0] = p21
    p[..., 1, 1] = p22
    p[..., 1, 3] = p24
    p[..., 1, 4] = p25
    return p


def qns_r21(chief):
    """The single nonzero entry of the reduced element-difference plant."""
    return -1.5 * chief.a * chief.eta / chief.epoch.r**2


def lti_qns(chief, indep="theta"):
    """Reduced constant plant for element differences.

    Theta domain: R21 = -3 a eta / (2 r0^2); time domain scales by the
    mean motion. The matrix is nilpotent of index 2.
    """
    return lti_closed(chief, "qns", indep)


def _v_qns(chief):
    # null directions ordered so that column 4 starts the drift 2-chain
    v = np.zeros((6, 6))
    v[2, 0] = 1.0  # delta-i
    v[3, 1] = 1.0  # delta-q1
    v[4, 2] = 1.0  # delta-q2
    v[5, 3] = 1.0  # delta-Omega
    v[1, 4] = qns_r21(chief)  # R e1, the drift direction
    v[0, 5] = 1.0             # generalized vector: pure delta-a
    return v


def delta_theta_solution(chief, theta, da, dtheta0, dq1, dq2, dt=None):
    """Closed-form delta-theta history at a scalar or array theta.

    delta_theta = P22 (dtheta0 + R21 n (t - t0) da) + P24 dq1 + P25 dq2,
    with all components evaluated at theta. `dt` may be supplied to avoid
    re-solving Kepler's equation; it defaults to t(theta).
    """
    if dt is None:
        dt = theta_to_time(chief, theta)
    _, p22, p24, p25 = lf_qns_components(chief, theta, indep="time")
    drift = qns_r21(chief) * chief.n * dt
    return p22 * (dtheta0 + drift * da) + p24 * dq1 + p25 * dq2


# ---------------------------------------------------------------------------
# change-of-basis theorems
# ---------------------------------------------------------------------------

def map_lti(chief, domain, r):
    """Similarity transform G(theta0) R G(theta0)^-1 of a reduced constant
    element-difference plant into `domain` coordinates, G taken on
    chief.in_plane."""
    return _to_local(chief, domain, chief.theta0, r)


def lf_transform(chief, domain, theta, indep="theta"):
    """Periodic reduction transform in the requested coordinates at theta
    (scalar or array, real or complex).

    In local coordinates this is P_x(theta) = G(theta) P(theta)
    G(theta0)^-1, with P the element-difference transform and G taken on
    chief.in_plane. It is evaluated as I + (G(theta) P(theta) - G(theta0))
    G(theta0)^-1 so that P_x(theta0) = I exactly, as P(theta0) is. Returns
    shape theta.shape + (6, 6).
    """
    p = lf_qns(chief, theta, indep)
    if domain == "qns":
        return p
    plane = chief.in_plane
    g0 = geo_map(plane, chief.theta0, domain)
    return np.eye(6) + (geo_map(plane, theta, domain) @ p - g0) \
        @ g_inverse(plane, chief.theta0, domain)


def state_transition(chief, domain, theta):
    """State transition matrix Phi(theta, theta0) = P(theta) (I + (theta -
    theta0) R) in the requested coordinates, for a scalar or array theta;
    shape theta.shape + (6, 6).

    Phi @ x0 is the state at theta of the solution through x0 at theta0.
    R is nilpotent (R^2 = 0), so I + (theta - theta0) R is exp of the
    reduced plant exactly. Nothing here inverts the eigenvector matrix, so
    Phi is regular at every epoch, e*sin(f0) = 0 and e = 0 included.

    The drift is applied in element differences, where R is the single
    entry R21, and mapped as G(theta) Phi G(theta0)^-1 on chief.in_plane,
    so a local Phi reads no inclination or node. The local R_x is
    rank one with entries far larger than R_x @ x0, so multiplying by it
    costs digits that this order keeps.
    """
    theta = np.asarray(theta, dtype=float)
    return _to_local(chief, domain, theta, _qns_transition(chief, theta))


def _qns_transition(chief, theta):
    """P(theta) (I + (theta - theta0) R) in element differences, for a
    float array theta."""
    phi = lf_qns(chief, theta)
    # I + dtheta R adds dtheta R21 times column 1 to column 0
    phi[..., :, 0] += ((theta - chief.theta0) * qns_r21(chief))[..., None] \
        * phi[..., :, 1]
    return phi


def _to_local(chief, domain, theta, m):
    """G(theta) m G(theta0)^-1 on chief.in_plane: a stack of
    element-difference matrices in the requested coordinates."""
    if domain == "qns":
        return m
    plane = chief.in_plane
    return (geo_map(plane, theta, domain) @ m
            @ g_inverse(plane, chief.theta0, domain))


# ---------------------------------------------------------------------------
# closed-form local-coordinate reductions
# ---------------------------------------------------------------------------

def _lti_scale(chief):
    """2 R21 a / gamma, equal to 3 (B+1)^2 / (1 - A^2 - B^2)^(5/2)."""
    return 2.0 * qns_r21(chief) * chief.a / chief.gamma


def _v_cartesian(chief):
    a_, b_, c_ = chief.Aq, chief.Bq, chief.Cq
    s = _lti_scale(chief)
    return np.array([
        [0.0, 0.0, 0.0, 0.0, -s * a_ * (b_ + 1.0) * c_, 0.0],
        [1.0, 0.0, 0.0, 0.0, s * (b_ + 1.0) ** 2 * c_, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0 / c_, 0.0, 1.0, 0.0, -s * b_ * (b_ + 1.0), 0.0],
        [0.0, 0.0, a_ / (b_ + 1.0), 0.0, -s * a_ * (b_ + 1.0), 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    ])


def _v_spherical(chief):
    a_, b_, c_ = chief.Aq, chief.Bq, chief.Cq
    ga = chief.gamma * chief.a
    s = _lti_scale(chief)
    return np.array([
        [0.0, 0.0, 0.0, 0.0, s * a_ * c_ * ga, 0.0],
        [1.0, 0.0, 0.0, 0.0, s * (b_ + 1.0) ** 2 * c_, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, s * b_ * ga, 0.0],
        [0.0, 0.0, -a_ / ga, 0.0, -2.0 * s * a_ * (b_ + 1.0), 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    ])


_V_FORMS = {"qns": _v_qns, "cartesian": _v_cartesian,
            "spherical": _v_spherical}


def eigvecs_closed(chief, domain):
    """Closed-form true/generalized eigenvector matrix of the theta-domain
    reduced plant in the element-difference ("qns"), LVLH Cartesian or
    local spherical state. Columns 1..4 (0-based 0..3) are null
    directions, column 4 heads the drift 2-chain and column 5 closes it.

    The columns are finite for every closed chief. The element-difference
    matrix is invertible at every epoch, the local ones iff
    e*sin(f0) != 0.
    """
    if domain not in _V_FORMS:
        raise ValueError(f"unknown domain {domain!r}")
    return _V_FORMS[domain](chief)


def lti_closed(chief, domain, indep="theta"):
    """Closed-form reduced constant plant and its eigenvectors in the
    element-difference ("qns"), LVLH Cartesian or local spherical state.

    R = G0 (R21 e1 e0^T) G0^-1 has rank one: it is the drift column v5
    times the drift row d (_drift_row), so R v6 = v5 and R vi = 0
    otherwise. The time-domain plant is n R; V is the theta-domain
    eigvecs_closed in both, so with time as independent variable the chain
    reads R v6 = n v5. R is regular at every epoch; the local V is
    singular where e*sin(f0) = 0.
    """
    v = eigvecs_closed(chief, domain)  # rejects an unknown domain
    r = np.outer(v[:, 4], _drift_row(chief, domain))
    if indep == "time":
        r = chief.n * r
    return LtiSystem(R=r, V=v, eigenvalues=np.zeros(6),
                     chains=((0,), (1,), (2,), (3,), (4, 5)))


def _balanced(v):
    """Column-balanced copy of V and its column norms.

    The drift column's scale typically dwarfs the others, so the raw
    matrix can be poorly scaled even when well separated; normalizing
    columns removes that artifact. Raises NearSingularMatrixError when the
    balanced condition number exceeds 1e12.
    """
    v = np.asarray(v, dtype=float)
    scale = np.linalg.norm(v, axis=0)
    scale[scale == 0.0] = 1.0
    cond = np.linalg.cond(v / scale)
    if not np.isfinite(cond) or cond > 1e12:
        raise NearSingularMatrixError(
            f"eigenvector matrix near singular (balanced cond={cond:.3e})"
        )
    return v / scale, scale


def balanced_solve(v, rhs):
    """Solve V c = rhs with column balancing (see _balanced)."""
    vb, scale = _balanced(v)
    return np.linalg.solve(vb, np.asarray(rhs, dtype=float)) / scale


def check_regular_epoch(chief, domain):
    """Raise NearSingularMatrixError where the local-coordinate eigenvector
    matrix of `domain` is numerically singular (e*sin(f0) ~ 0), so that no
    modal weights exist; the element-difference one never is.

    The singularity belongs to the epoch, so the balanced_solve gate on
    the Cartesian matrix decides for both local domains. The spherical
    matrix's mixed km/rad rows mask it: at f0 = pi on the generic orbit its
    balanced cond is 8.9e11, under the gate, while weights solved from it
    miss the state by 0.5 (relative); the Cartesian one reads 5.2e16.
    """
    if domain != "qns":
        _balanced(eigvecs_closed(chief, "cartesian"))


def _drift_row(chief, domain):
    """Drift-weight row d, row 6 of V^-1: c6 = d @ x0, and R = v5 d^T.

    In element differences it is e0 (c6 = delta-a); the local rows are
    geometry.drift_row at the epoch.
    """
    if domain == "qns":
        return np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    return drift_row(chief, chief.epoch, domain)


def drift_constant(chief, state0, domain):
    """Weight c6 of the drift solution for an initial state at theta0
    ("qns", "cartesian" or "spherical").

    It is regular at every epoch and vanishes exactly when the deputy's
    semimajor axis matches the chief's.
    """
    return float(_drift_row(chief, domain) @ np.asarray(state0, dtype=float))


def modal_constants(chief, state0, domain):
    """Fundamental-solution weights for an initial state at theta0, from
    the printed closed forms.

    In element differences V is a scaled permutation, so the weights are
    the state's entries, delta-theta over R21, at every epoch. In local
    coordinates c1, c3 and c5 carry 1/vr0, and vr0 is proportional to
    e*sin(f0), where the eigenvector matrix turns singular. There the
    weights are finite but meaningless, and NearSingularMatrixError is
    raised (see check_regular_epoch); state_transition propagates a state
    at every epoch without them.
    """
    x0 = np.asarray(state0, dtype=float)
    check_regular_epoch(chief, domain)
    c6 = drift_constant(chief, x0, domain)  # rejects an unknown domain
    r0, vr0, vt0 = chief.epoch.r, chief.epoch.vr, chief.epoch.vt
    p, a, n, cq = chief.p, chief.a, chief.n, chief.Cq
    if domain == "qns":
        _, dth, di, dq1, dq2, draan = x0
        c = np.array([di, dq1, dq2, draan, dth / qns_r21(chief), c6])
    elif domain == "cartesian":
        x, y, z, xd, yd, zd = x0
        c = np.array([
            -vt0 / vr0 * x + y,
            z,
            (-(vt0 * r0) / (vr0 * p) * x + y + cq * xd) / cq,
            zd,
            chief.gamma * vt0 / (3.0 * vr0) * n * (r0 / p) ** 2 * x,
            c6,
        ])
    else:
        dr, th_r, ph_r, drd, th_rd, ph_rd = x0
        c = np.array([
            -vt0 / (vr0 * r0) * dr + th_r,
            ph_r,
            ((1.0 - r0 / p) * vt0 / vr0 * dr + cq * drd) / cq,
            ph_rd,
            -vt0 / (3.0 * vr0 * a) * n * (r0 / p) * dr,
            c6,
        ])
    return ModalConstants(c=c, domain=domain, theta0=chief.theta0)


# ---------------------------------------------------------------------------
# circular-chief planar decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CwModalDecomp:
    """Planar modal decomposition for a circular chief.

    Constants weight: a constant along-track offset (c1), the along-track
    drift solution (c2), and the 2:1-ellipse oscillation pair
    (c_re, c_im). The full planar state order is (x, y, xdot, ydot).
    """

    n: float
    c1: float
    c2: float
    c_re: float
    c_im: float

    @property
    def constants(self):
        return np.array([self.c1, self.c2, self.c_re, self.c_im])

    def _basis(self):
        n = self.n
        v1 = np.array([0.0, 1.0, 0.0, 0.0])
        v2 = np.array([-2.0 / (3.0 * n), 0.0, 0.0, 1.0])
        v_re = np.array([-1.0 / (2.0 * n), 0.0, 0.0, 1.0])
        v_im = np.array([0.0, -1.0 / n, -0.5, 0.0])
        return v1, v2, v_re, v_im

    def mode(self, index, t):
        """Evaluate one fundamental solution (index 1..4) at time t."""
        t = np.asarray(t, dtype=float)
        v1, v2, v_re, v_im = self._basis()
        c = np.cos(self.n * t)
        s = np.sin(self.n * t)
        if index == 1:
            return np.multiply.outer(np.ones_like(t), self.c1 * v1)
        if index == 2:
            return self.c2 * (np.multiply.outer(t, v1) + np.multiply.outer(np.ones_like(t), v2))
        if index == 3:
            return 2.0 * self.c_re * (np.multiply.outer(c, v_re) - np.multiply.outer(s, v_im))
        if index == 4:
            return -2.0 * self.c_im * (np.multiply.outer(s, v_re) + np.multiply.outer(c, v_im))
        raise ValueError("mode index must be 1..4")

    def reconstruct(self, t):
        return sum(self.mode(i, t) for i in (1, 2, 3, 4))


def cw_planar_eigvecs(n):
    """Complex eigenvector matrix and Jordan blocks of the planar
    circular-chief plant: eigenvalues (0, 0, +ni, -ni) with the zero pair
    defective."""
    v = np.array([
        [0.0, -2.0 / (3.0 * n), -1.0 / (2.0 * n), -1.0 / (2.0 * n)],
        [1.0, 0.0, -1j / n, 1j / n],
        [0.0, 0.0, -0.5j, 0.5j],
        [0.0, 1.0, 1.0, 1.0],
    ], dtype=complex)
    j = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1j * n, 0.0],
        [0.0, 0.0, 0.0, -1j * n],
    ], dtype=complex)
    return v, j


def cw_modal_decomp(n, planar_state0):
    """Planar modal constants for a circular chief.

    c1 = y0 - 2 xdot0/n, c2 = -6 n x0 - 3 ydot0,
    c_re = 3 n x0 + 2 ydot0, c_im = xdot0.
    Bounded motion iff c2 = 0 (ydot0 = -2 n x0).
    """
    if not n > 0:
        raise ValueError("mean motion must be positive")
    x0, y0, xd0, yd0 = np.asarray(planar_state0, dtype=float)
    return CwModalDecomp(
        n=n,
        c1=y0 - 2.0 * xd0 / n,
        c2=-6.0 * n * x0 - 3.0 * yd0,
        c_re=3.0 * n * x0 + 2.0 * yd0,
        c_im=xd0,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def lf_defining_residual(p_fn, plant_theta_fn, r_mat, theta_samples):
    """Max-norm residual of P^-1 (A~ P - P') - R over the sampled thetas.
    A~ must be the theta-domain plant.

    p_fn must accept an array of complex thetas and plant_theta_fn an array
    of real ones; each returns the stack of matrices. P' is the complex-step
    derivative Im P(theta + ih)/h: it takes no difference, so it is exact
    to rounding in float64 for any h small enough that the O(h^2) term
    vanishes.
    """
    thetas = np.atleast_1d(np.asarray(theta_samples, dtype=float))
    pc = p_fn(thetas + _CSTEP * 1j)
    p, dp = pc.real, pc.imag / _CSTEP
    res = np.linalg.solve(p, plant_theta_fn(thetas) @ p - dp - p @ r_mat)
    return float(np.max(np.abs(res)))
