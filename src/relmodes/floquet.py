"""Closed-form periodic-to-constant reductions of the Keplerian relative
motion dynamics in three coordinate sets, and the change-of-basis theorems
that map them into one another.

The element-difference dynamics in the theta domain admit an orbit-periodic
transformation P(theta), identity at the epoch, that reduces the system to
a constant nilpotent plant R with a single nonzero entry. The local
Cartesian and spherical reductions follow by a similarity/congruence pair:

    R_x = G(theta0) R G(theta0)^-1
    P_x(theta) = G(theta) P(theta) G(theta0)^-1

All three constant plants share six zero eigenvalues with geometric
multiplicity five (one 2-chain); the generalized direction carries the
secular drift and its weight c6 is the boundedness condition.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularMatrixError
from .geometry import g_inverse, geo_map
from .orbit import eval_at_theta, shorthand_abc, theta_to_time

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
    domain: str
    indep: str        # "theta" | "time"


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


def _atan_unwrapped(q1, q2, eta, theta):
    """Continuous branch of atan((q2 + (1-q1) tan(theta/2))/eta).

    The principal value jumps by pi at theta = pi + 2k*pi; adding k*pi per
    revolution makes the result continuous and the combination
    (atan - theta/2) 2*pi-periodic. The revolution count comes from the
    real part, so a complex-step theta stays on its branch.
    """
    k = np.rint(np.real(theta) / _TWO_PI)
    tm = theta - _TWO_PI * k
    u = (q2 + (1.0 - q1) * np.tan(0.5 * tm)) / eta
    return np.arctan(u) + math.pi * k


def _row_terms(q1, q2, eta, gamma, theta, indep):
    """kappa and the regular F21, F24, F25 at the argument(s) of latitude.

    F21 is returned as zero for the time-domain reduction, whose P21
    vanishes identically.
    """
    st, ct = np.sin(theta), np.cos(theta)
    kappa = 1.0 + q1 * ct + q2 * st
    f24 = 4.0 * (q2 + st) / kappa**2 + 4.0 * st / kappa
    f25 = 4.0 * (-q1 * (1.0 + ct * ct) - ct * (2.0 + q2 * st)) / kappa**2
    if indep == "time":
        return kappa, 0.0, f24, f25
    f21 = (6.0 / eta**3 * (_atan_unwrapped(q1, q2, eta, theta) - 0.5 * theta)
           + 3.0 * (q1 * st - q2 * ct) / (gamma * kappa))
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
    q1, q2 = chief.q1, chief.q2
    gamma = q1 * q1 + q2 * q2 - 1.0
    eta = math.sqrt(-gamma)
    kappa, f21, f24, f25 = _row_terms(q1, q2, eta, gamma, theta, indep)
    kappa0, f21_0, f24_0, f25_0 = _row_terms(q1, q2, eta, gamma,
                                             chief.theta0, indep)
    p21 = kappa**2 / (2.0 * chief.a) * (f21_0 - f21)
    p22 = kappa**2 / kappa0**2
    p24 = kappa**2 / (4.0 * gamma) * (f24_0 - f24)
    p25 = kappa**2 / (4.0 * gamma) * (f25_0 - f25)
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
    return -1.5 * chief.a * chief.eta / chief.r0**2


def lti_qns(chief, indep="theta"):
    """Reduced constant plant for element differences.

    Theta domain: R21 = -3 a eta / (2 r0^2); time domain scales by the
    mean motion. The matrix is nilpotent of index 2.
    """
    r21 = qns_r21(chief)
    if indep == "time":
        r21 *= chief.n
    r = np.zeros((6, 6))
    r[1, 0] = r21
    # null directions ordered so that column 4 starts the drift 2-chain
    v = np.zeros((6, 6))
    v[2, 0] = 1.0  # delta-i
    v[3, 1] = 1.0  # delta-q1
    v[4, 2] = 1.0  # delta-q2
    v[5, 3] = 1.0  # delta-Omega
    v[1, 4] = r[1, 0]  # R e1, the drift direction
    v[0, 5] = 1.0      # generalized vector: pure delta-a
    return LtiSystem(
        R=r, V=v, eigenvalues=np.zeros(6),
        chains=((0,), (1,), (2,), (3,), (4, 5)),
        domain="qns", indep=indep,
    )


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

def map_lti(g0, r):
    """Similarity transform G(theta0) R G(theta0)^-1 of a reduced constant
    plant through the element-difference map at the epoch."""
    return g0 @ r @ g_inverse(g0)


def lf_transform(chief, domain, theta, indep="theta"):
    """Periodic reduction transform in the requested coordinates at theta
    (scalar or array, real or complex).

    In local coordinates this is P_x(theta) = G(theta) P(theta)
    G(theta0)^-1, with P the element-difference transform. Returns shape
    theta.shape + (6, 6).
    """
    return _to_local(chief, domain, theta, lf_qns(chief, theta, indep))


def state_transition(chief, domain, theta):
    """State transition matrix Phi(theta, theta0) = P(theta) (I + (theta -
    theta0) R) in the requested coordinates, for a scalar or array theta;
    shape theta.shape + (6, 6).

    Phi @ x0 is the state at theta of the solution through x0 at theta0.
    R is nilpotent (R^2 = 0), so I + (theta - theta0) R is exp of the
    reduced plant exactly. Nothing here inverts the eigenvector matrix, so
    Phi is regular at every epoch, e*sin(f0) = 0 and e = 0 included.

    The drift is applied in element differences, where R is the single
    entry R21, and mapped as G(theta) Phi G(theta0)^-1. The local R_x is
    rank one with entries far larger than R_x @ x0, so multiplying by it
    costs digits that this order keeps.
    """
    theta = np.asarray(theta, dtype=float)
    phi = lf_qns(chief, theta)
    # I + dtheta R adds dtheta R21 times column 1 to column 0
    phi[..., :, 0] += ((theta - chief.theta0) * qns_r21(chief))[..., None] \
        * phi[..., :, 1]
    return _to_local(chief, domain, theta, phi)


def _to_local(chief, domain, theta, m):
    """G(theta) m G(theta0)^-1: a stack of element-difference propagators
    in the requested coordinates."""
    if domain == "qns":
        return m
    g0_inv = g_inverse(geo_map(chief, chief.theta0, domain))
    return geo_map(chief, theta, domain) @ m @ g0_inv


# ---------------------------------------------------------------------------
# closed-form local-coordinate reductions
# ---------------------------------------------------------------------------

def _lti_scale(chief, sh):
    """2 R21 a / gamma, equal to 3 (B+1)^2 / (1 - A^2 - B^2)^(5/2)."""
    return 2.0 * qns_r21(chief) * chief.a / sh.gamma


def _r_cartesian(chief, sh):
    a_, b_, c_ = sh.Aq, sh.Bq, sh.Cq
    m = np.array([
        [a_ * (b_ + 2.0), a_**2, 0.0, a_**2 * c_, -a_ * (b_ + 1.0) * c_, 0.0],
        [-(b_ + 1.0) * (b_ + 2.0), -a_ * (b_ + 1.0), 0.0,
         -a_ * (b_ + 1.0) * c_, (b_ + 1.0) ** 2 * c_, 0.0],
        [0.0] * 6,
        [b_ * (b_ + 2.0) / c_, a_ * b_ / c_, 0.0, a_ * b_, -b_ * (b_ + 1.0), 0.0],
        [a_ * (b_ + 2.0) / c_, a_**2 / c_, 0.0, a_**2, -a_ * (b_ + 1.0), 0.0],
        [0.0] * 6,
    ])
    return _lti_scale(chief, sh) * m


def _r_spherical(chief, sh):
    a_, b_, c_ = sh.Aq, sh.Bq, sh.Cq
    ga = sh.gamma * chief.a
    m = np.array([
        [a_ * (b_ + 2.0), 0.0, 0.0, a_**2 * c_, ga * a_ * c_, 0.0],
        [(b_ + 1.0) ** 2 * (b_ + 2.0) / ga, 0.0, 0.0,
         a_ * c_ * (b_ + 1.0) ** 2 / ga, (b_ + 1.0) ** 2 * c_, 0.0],
        [0.0] * 6,
        [b_ * (b_ + 2.0) / c_, 0.0, 0.0, a_ * b_, ga * b_, 0.0],
        [-2.0 * a_ * (b_ + 1.0) * (b_ + 2.0) / (ga * c_), 0.0, 0.0,
         -2.0 * a_**2 * (b_ + 1.0) / ga, -2.0 * a_ * (b_ + 1.0), 0.0],
        [0.0] * 6,
    ])
    return _lti_scale(chief, sh) * m


def _v_cartesian(chief, sh):
    a_, b_, c_ = sh.Aq, sh.Bq, sh.Cq
    s = _lti_scale(chief, sh)
    return np.array([
        [0.0, 0.0, 0.0, 0.0, -s * a_ * (b_ + 1.0) * c_, 0.0],
        [1.0, 0.0, 0.0, 0.0, s * (b_ + 1.0) ** 2 * c_, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0 / c_, 0.0, 1.0, 0.0, -s * b_ * (b_ + 1.0), 0.0],
        [0.0, 0.0, a_ / (b_ + 1.0), 0.0, -s * a_ * (b_ + 1.0), 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    ])


def _v_spherical(chief, sh):
    a_, b_, c_ = sh.Aq, sh.Bq, sh.Cq
    ga = sh.gamma * chief.a
    s = _lti_scale(chief, sh)
    return np.array([
        [0.0, 0.0, 0.0, 0.0, s * a_ * c_ * ga, 0.0],
        [1.0, 0.0, 0.0, 0.0, s * (b_ + 1.0) ** 2 * c_, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, s * b_ * ga, 0.0],
        [0.0, 0.0, -a_ / ga, 0.0, -2.0 * s * a_ * (b_ + 1.0), 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    ])


def eigvecs_closed(chief, domain):
    """Closed-form true/generalized eigenvector matrix of the reduced
    local-coordinate plant. Columns 1..4 (0-based 0..3) are null
    directions, column 4 heads the drift 2-chain and column 5 closes it.

    The columns are finite for every closed chief, but the matrix is
    invertible iff e*sin(f0) != 0.
    """
    sh = shorthand_abc(chief)
    if domain == "cartesian":
        return _v_cartesian(chief, sh)
    if domain == "spherical":
        return _v_spherical(chief, sh)
    raise ValueError(f"unknown domain {domain!r}")


def lti_closed(chief, domain, indep="theta"):
    """Closed-form reduced constant plant and its eigenvectors in the
    element-difference ("qns"), LVLH Cartesian or local spherical state.

    R is regular at every epoch; V is singular where e*sin(f0) = 0.
    """
    if domain == "qns":
        return lti_qns(chief, indep)
    sh = shorthand_abc(chief)
    build_r = _r_cartesian if domain == "cartesian" else _r_spherical
    r = build_r(chief, sh)
    if indep == "time":
        r = chief.n * r
    return LtiSystem(
        R=r, V=eigvecs_closed(chief, domain), eigenvalues=np.zeros(6),
        chains=((0,), (1,), (2,), (3,), (4, 5)),
        domain=domain, indep=indep,
    )


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


def drift_constant(chief, state0, domain):
    """Weight c6 of the drift solution for an initial local state at
    theta0 ("cartesian" or "spherical").

    The printed formula is regular at every epoch, e*sin(f0) = 0 and e = 0
    included. It vanishes exactly when the deputy's semimajor axis matches
    the chief's, and the along-track rate (ydot, or theta_r dot) enters
    it with unit weight.
    """
    x0 = np.asarray(state0, dtype=float)
    st0 = eval_at_theta(chief, chief.theta0)
    r0, vr0, vt0 = st0.r, st0.vr, st0.vt
    p = chief.p
    if domain == "cartesian":
        return float((p / r0 + 1.0) * (p / r0) * chief.n / chief.eta**3 * x0[0]
                     + vr0 / (vt0 * shorthand_abc(chief).Cq) * x0[1]
                     + vr0 / vt0 * x0[3] + x0[4])
    if domain == "spherical":
        return float(chief.mu / (chief.h * r0**2) * (1.0 + p / r0) * x0[0]
                     + vr0 / (vt0 * r0) * x0[3] + x0[4])
    raise ValueError(f"unknown domain {domain!r}")


def modal_constants(chief, state0, domain):
    """Fundamental-solution weights for an initial local state at theta0,
    from the printed closed forms.

    c1, c3 and c5 carry 1/vr0, and vr0 is proportional to e*sin(f0), where
    the eigenvector matrix turns singular. There the weights are finite
    but meaningless, and NearSingularMatrixError is raised (see
    check_regular_epoch); state_transition propagates a state at every
    epoch without them.
    """
    x0 = np.asarray(state0, dtype=float)
    check_regular_epoch(chief, domain)
    st0 = eval_at_theta(chief, chief.theta0)
    r0, vr0, vt0 = st0.r, st0.vr, st0.vt
    p, a, n = chief.p, chief.a, chief.n
    e2 = chief.q1**2 + chief.q2**2
    cq = shorthand_abc(chief).Cq
    c6 = drift_constant(chief, x0, domain)  # rejects an unknown domain
    if domain == "cartesian":
        x, y, z, xd, yd, zd = x0
        c = np.array([
            -vt0 / vr0 * x + y,
            z,
            (-(vt0 * r0) / (vr0 * p) * x + y + cq * xd) / cq,
            zd,
            -(1.0 - e2) * vt0 / (3.0 * vr0) * n * (r0 / p) ** 2 * x,
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
