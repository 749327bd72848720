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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularMatrixError, SingularConfigError
from .geometry import g_inverse, geo_map
from .orbit import eval_at_theta, shorthand_abc, theta_to_time

A_EPS = 1e-8    # e*sin(f0) regularization for eigenvector inversion


def is_epoch_singular(chief):
    """True when e*sin(f0) ~ 0, i.e. the eigenvector matrix is singular."""
    return abs(shorthand_abc(chief).Aq) < A_EPS


def _regularized_shorthands(chief):
    sh = shorthand_abc(chief)
    if abs(sh.Aq) >= A_EPS:
        return sh, False
    aq = A_EPS if sh.Aq == 0.0 else math.copysign(A_EPS, sh.Aq)
    return dataclasses.replace(sh, Aq=aq), True


@dataclass(frozen=True)
class LfTransform:
    """Orbit-periodic transformation with identity at the epoch.

    Calling the object evaluates the 6x6 matrix at an (unwrapped)
    argument of latitude. `indep` records whether the transform reduces
    the theta-domain or the time-domain dynamics; the evaluation argument
    is theta either way.
    """

    eval_fn: object
    theta0: float
    domain: str       # "qns" | "cartesian" | "spherical"
    indep: str        # "theta" | "time"

    def __call__(self, theta):
        return self.eval_fn(theta)


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
    regularized: bool = False

    @property
    def drift_rate(self):
        """Coefficient s in R v6 = s v5 (1 in theta domain, n in time)."""
        num = self.R @ self.V[:, 5]
        den = self.V[:, 4]
        j = int(np.argmax(np.abs(den)))
        return num[j] / den[j]


@dataclass(frozen=True)
class ModalConstants:
    """Weights of the six fundamental solutions for one initial state."""

    c: np.ndarray
    domain: str
    theta0: float
    regularized: bool = False

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
# are dropped, which leaves no singularity at q1 = 0. The F-function
# scales still grow like 1/kappa^2 on eccentric orbits, so float64
# evaluation leaves ~1e-13 absolute noise in their differences, which a
# 1e-6-step derivative amplifies past the accuracy the transform can
# otherwise deliver. Extended precision for the intermediates removes
# that floor; results are returned as float64.
_LD = np.longdouble
_TWO_PI_LD = 2.0 * _LD(np.pi)


def _atan_unwrapped(q1, q2, eta, theta):
    """Continuous branch of atan((q2 + (1-q1) tan(theta/2))/eta).

    The principal value jumps by pi at theta = pi + 2k*pi; adding k*pi per
    revolution makes the result continuous and the combination
    (atan - theta/2) 2*pi-periodic.
    """
    k = np.rint(theta / _TWO_PI_LD)
    tm = theta - _TWO_PI_LD * k
    u = (q2 + (1.0 - q1) * np.tan(0.5 * tm)) / eta
    return np.arctan(u) + _LD(np.pi) * k


def _row_terms(q1, q2, eta, gamma, theta, indep):
    """kappa and the regular F21, F24, F25 at one argument of latitude.

    F21 is returned as zero for the time-domain reduction, whose P21
    vanishes identically.
    """
    st, ct = np.sin(theta), np.cos(theta)
    kappa = 1.0 + q1 * ct + q2 * st
    f24 = 4.0 * (q2 + st) / kappa**2 + 4.0 * st / kappa
    f25 = 4.0 * (-q1 * (1.0 + ct * ct) - ct * (2.0 + q2 * st)) / kappa**2
    if indep == "time":
        return kappa, _LD(0.0), f24, f25
    f21 = (6.0 / eta**3 * (_atan_unwrapped(q1, q2, eta, theta) - 0.5 * theta)
           + 3.0 * (q1 * st - q2 * ct) / (gamma * kappa))
    return kappa, f21, f24, f25


def lf_qns_components(chief, theta, indep="theta"):
    """The four nonzero delta-theta-row components (P21, P22, P24, P25).

    P21 is identically zero when the reduction is taken with time as the
    independent variable. The printed P21/P25 forms carry 1/q1 terms, but
    those are additive constants that cancel in the F(theta0) - F(theta)
    differences; the regular remainders used here are exact for every q1,
    q1 = 0 included.
    """
    q1, q2 = _LD(chief.q1), _LD(chief.q2)
    gamma = q1 * q1 + q2 * q2 - 1.0
    eta = np.sqrt(-gamma)
    kappa, f21, f24, f25 = _row_terms(q1, q2, eta, gamma, _LD(theta), indep)
    kappa0, f21_0, f24_0, f25_0 = _row_terms(q1, q2, eta, gamma,
                                             _LD(chief.theta0), indep)
    p21 = kappa**2 / (2.0 * _LD(chief.a)) * (f21_0 - f21)
    p22 = kappa**2 / kappa0**2
    p24 = kappa**2 / (4.0 * gamma) * (f24_0 - f24)
    p25 = kappa**2 / (4.0 * gamma) * (f25_0 - f25)
    return p21, p22, p24, p25


def lf_qns(chief, theta, indep="theta", dtype=float):
    """Periodic reduction matrix for the element-difference dynamics.

    Identity except for the delta-theta row; equals identity at theta0.
    The row is regular for every closed chief, q1 = 0 included.
    dtype=np.longdouble keeps the extended-precision intermediates, which
    the finite-difference residual diagnostics need on very eccentric
    chiefs.
    """
    p21, p22, p24, p25 = lf_qns_components(chief, theta, indep)
    p = np.eye(6, dtype=dtype)
    p[1, 0] = p21
    p[1, 1] = p22
    p[1, 3] = p24
    p[1, 4] = p25
    return p


def qns_lf_transform(chief, indep="theta", dtype=float):
    return LfTransform(
        eval_fn=lambda theta: lf_qns(chief, theta, indep, dtype),
        theta0=chief.theta0,
        domain="qns",
        indep=indep,
    )


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
        regularized=False,
    )


def delta_theta_solution(chief, theta, da, dtheta0, dq1, dq2, dt=None):
    """Closed-form delta-theta history.

    delta_theta = P22 (dtheta0 + R21 n (t - t0) da) + P24 dq1 + P25 dq2,
    with all components evaluated at theta. `dt` may be supplied to avoid
    re-solving Kepler's equation; it defaults to t(theta).
    """
    if dt is None:
        dt = theta_to_time(chief, theta)
    _, p22, p24, p25 = lf_qns_components(chief, theta, indep="time")
    drift = qns_r21(chief) * chief.n * dt
    return float(p22 * (dtheta0 + drift * da) + p24 * dq1 + p25 * dq2)


# ---------------------------------------------------------------------------
# change-of-basis theorems
# ---------------------------------------------------------------------------

def _entries(mat_like):
    entries = getattr(mat_like, "entries", mat_like)
    return np.asarray(entries, dtype=float)


def map_lti(g0, r_src):
    """Similarity transform of a reduced constant plant through the
    element-difference map at the epoch."""
    g = _entries(g0)
    r = r_src.R if isinstance(r_src, LtiSystem) else np.asarray(r_src)
    return g @ r @ g_inverse(g)


def map_lf(g_fn, p_src, g0):
    """Reduction transform in new coordinates from the one in element
    differences: P_x(theta) = G(theta) P(theta) G(theta0)^-1."""
    g0_inv = g_inverse(_entries(g0))
    target = getattr(g0, "target", "cartesian")

    def eval_fn(theta):
        gp = np.asarray(getattr(g_fn(theta), "entries", g_fn(theta)))
        return gp @ p_src(theta) @ g0_inv.astype(gp.dtype)

    return LfTransform(
        eval_fn=eval_fn,
        theta0=p_src.theta0,
        domain=target,
        indep=p_src.indep,
    )


def lf_transform(chief, domain, indep="theta", dtype=float):
    """Periodic reduction transform in the requested coordinates.

    dtype=np.longdouble keeps the composed products in extended
    precision; finite-difference diagnostics need that headroom, the
    modal machinery does not.
    """
    p_qns = qns_lf_transform(chief, indep, dtype)
    if domain == "qns":
        return p_qns
    g0 = geo_map(chief, chief.theta0, domain)
    return map_lf(lambda th: geo_map(chief, th, domain, dtype), p_qns, g0)


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


def eigvecs_closed(chief, domain, regularize=True):
    """Closed-form true/generalized eigenvector matrix of the reduced
    local-coordinate plant. Columns 1..4 (0-based 0..3) are null
    directions, column 4 heads the drift 2-chain and column 5 closes it.

    The matrix is invertible iff e*sin(f0) != 0. On singular epochs either
    raises (regularize=False) or substitutes |A| = 1e-8, which keeps the
    columns independent at the cost of an O(1e-8) model inconsistency.
    """
    sh, flagged = _regularized_shorthands(chief)
    if flagged and not regularize:
        raise SingularConfigError(
            "epoch has e*sin(f0) = 0: eigenvector matrix singular; "
            "shift f0 away from k*pi or enable regularization"
        )
    if domain == "cartesian":
        return _v_cartesian(chief, sh)
    if domain == "spherical":
        return _v_spherical(chief, sh)
    raise ValueError(f"unknown domain {domain!r}")


def _closed_lti(chief, domain, indep, regularize):
    sh, flagged = _regularized_shorthands(chief)
    if flagged and not regularize:
        raise SingularConfigError(
            "epoch has e*sin(f0) = 0; shift f0 away from k*pi or enable "
            "regularization"
        )
    exact_sh = shorthand_abc(chief)
    build_r = _r_cartesian if domain == "cartesian" else _r_spherical
    build_v = _v_cartesian if domain == "cartesian" else _v_spherical
    r = build_r(chief, exact_sh)  # the plant itself is regular for any A
    if indep == "time":
        r = chief.n * r
    return LtiSystem(
        R=r, V=build_v(chief, sh), eigenvalues=np.zeros(6),
        chains=((0,), (1,), (2,), (3,), (4, 5)),
        domain=domain, indep=indep, regularized=flagged,
    )


def lti_cartesian_closed(chief, indep="theta", regularize=True):
    """Closed-form reduced plant and eigenvectors, LVLH Cartesian state."""
    return _closed_lti(chief, "cartesian", indep, regularize)


def lti_spherical_closed(chief, indep="theta", regularize=True):
    """Closed-form reduced plant and eigenvectors, local spherical state."""
    return _closed_lti(chief, "spherical", indep, regularize)


def lti_closed(chief, domain, indep="theta", regularize=True):
    if domain == "qns":
        return lti_qns(chief, indep)
    return _closed_lti(chief, domain, indep, regularize)


def balanced_solve(v, rhs):
    """Solve V c = rhs with column balancing.

    The drift column's scale typically dwarfs the others, so the raw
    matrix can be poorly scaled even when well separated; normalizing
    columns before the solve removes that artifact.
    """
    v = np.asarray(v, dtype=float)
    scale = np.linalg.norm(v, axis=0)
    scale[scale == 0.0] = 1.0
    cond = np.linalg.cond(v / scale)
    if not np.isfinite(cond) or cond > 1e12:
        raise NearSingularMatrixError(
            f"eigenvector matrix near singular (balanced cond={cond:.3e})"
        )
    y = np.linalg.solve(v / scale, np.asarray(rhs, dtype=float))
    return y / scale


def modal_constants(chief, state0, domain):
    """Fundamental-solution weights for an initial local state at theta0.

    Uses the printed closed forms when the epoch radial velocity is
    usable. On singular epochs (vr0 ~ 0, equivalently e*sin(f0) ~ 0) only
    c1, c3 and c5 carry vr0 denominators; those come from a balanced
    solve against the regularized eigenvector matrix, while c2, c4 and c6
    keep their closed forms, which stay regular.
    """
    x0 = np.asarray(state0, dtype=float)
    sh = shorthand_abc(chief)
    st0 = eval_at_theta(chief, chief.theta0)
    if abs(sh.Aq) < A_EPS:
        v = eigvecs_closed(chief, domain, regularize=True)
        c = balanced_solve(v, x0)
        r0, vt0 = st0.r, st0.vt
        p, n, h, mu = chief.p, chief.n, chief.h, chief.mu
        eta3 = chief.eta**3
        if domain == "cartesian":
            c[1] = x0[2]
            c[3] = x0[5]
            c[5] = ((p / r0 + 1.0) * (p / r0) * n / eta3 * x0[0]
                    + st0.vr / (vt0 * sh.Cq) * x0[1]
                    + st0.vr / vt0 * x0[3] + x0[4])
        else:
            c[1] = x0[2]
            c[3] = x0[5]
            c[5] = (mu / (h * r0**2) * (1.0 + p / r0) * x0[0]
                    + st0.vr / (vt0 * r0) * x0[3] + x0[4])
        return ModalConstants(c=c, domain=domain, theta0=chief.theta0,
                              regularized=True)
    r0, vr0, vt0 = st0.r, st0.vr, st0.vt
    p, a, n, h, mu = chief.p, chief.a, chief.n, chief.h, chief.mu
    e2 = chief.q1**2 + chief.q2**2
    eta3 = chief.eta**3
    cq = sh.Cq
    if domain == "cartesian":
        x, y, z, xd, yd, zd = x0
        c = np.array([
            -vt0 / vr0 * x + y,
            z,
            (-(vt0 * r0) / (vr0 * p) * x + y + cq * xd) / cq,
            zd,
            -(1.0 - e2) * vt0 / (3.0 * vr0) * n * (r0 / p) ** 2 * x,
            (p / r0 + 1.0) * (p / r0) * n / eta3 * x
            + vr0 / (vt0 * cq) * y + vr0 / vt0 * xd + yd,
        ])
    elif domain == "spherical":
        dr, th_r, ph_r, drd, th_rd, ph_rd = x0
        c = np.array([
            -vt0 / (vr0 * r0) * dr + th_r,
            ph_r,
            ((1.0 - r0 / p) * vt0 / vr0 * dr + cq * drd) / cq,
            ph_rd,
            -vt0 / (3.0 * vr0 * a) * n * (r0 / p) * dr,
            mu / (h * r0**2) * (1.0 + p / r0) * dr
            + vr0 / (vt0 * r0) * drd + th_rd,
        ])
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return ModalConstants(c=c, domain=domain, theta0=chief.theta0,
                          regularized=False)


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

def lf_defining_residual(p_fn, plant_theta_fn, r_mat, theta_samples,
                         step=1e-6):
    """Max-norm residual of P^-1 (A~ P - P') - R over the sampled thetas.
    A~ must be the theta-domain plant.

    P' uses the five-point central-difference stencil at the given step;
    the third-derivative spikes of the transform near periapsis of very
    eccentric orbits would otherwise dominate the measured residual.
    """
    worst = 0.0
    step = _LD(step)
    for th in np.atleast_1d(theta_samples):
        th = _LD(th)  # float64 abscissae would perturb P by P' * eps * th
        p = p_fn(th)
        dp = (-p_fn(th + 2 * step) + 8.0 * p_fn(th + step)
              - 8.0 * p_fn(th - step) + p_fn(th - 2 * step)) / (12.0 * step)
        a = _entries(plant_theta_fn(th)).astype(p.dtype)
        # form the bracket in the evaluator's precision, downcast only
        # for the (stable) final solve
        bracket = (a @ p - dp - p @ r_mat.astype(p.dtype)).astype(float)
        res = np.linalg.solve(p.astype(float), bracket)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst
