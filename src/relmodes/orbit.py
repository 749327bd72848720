"""Chief orbit model: closed two-body reference orbit and every
orbit-dependent scalar the rest of the package needs.

The chief is parameterized by quasi-nonsingular elements
(a, q1, q2, i, Omega, theta0) with q1 = e*cos(w), q2 = e*sin(w) and
theta0 = w + f0 the epoch argument of latitude.  The argument of
latitude theta is treated as a continuously increasing real (never
wrapped mod 2*pi) so that secular terms proportional to (theta - theta0)
are well defined.  Time is anchored by t(theta0) = 0.

All angles are radians, lengths km, gravitational parameter km^3/s^2.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import KeplerConvergenceError, OrbitDefinitionError

MU_EARTH = 398600.4418  # km^3/s^2

_KEPLER_TOL = 1e-13  # rad
_KEPLER_MAX_ITER = 50
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ChiefOrbit:
    """Closed two-body chief orbit.

    Attributes
    ----------
    a : float
        Semimajor axis (km), > 0.
    q1, q2 : float
        Eccentricity-vector components e*cos(w), e*sin(w); q1^2+q2^2 < 1.
    inc : float
        Inclination (rad).
    raan : float
        Right ascension of the ascending node (rad).
    theta0 : float
        Epoch argument of latitude w + f0 (rad), stored unwrapped.
    mu : float
        Gravitational parameter (km^3/s^2).
    """

    a: float
    q1: float
    q2: float
    inc: float
    raan: float
    theta0: float
    mu: float = MU_EARTH

    def __post_init__(self):
        if not self.a > 0:
            raise OrbitDefinitionError(f"semimajor axis must be positive, got {self.a}")
        if not self.mu > 0:
            raise OrbitDefinitionError(f"mu must be positive, got {self.mu}")
        if not self.q1 * self.q1 + self.q2 * self.q2 < 1.0:
            raise OrbitDefinitionError(
                "q1^2 + q2^2 >= 1: orbit is not closed (e >= 1), "
                "periodic reduction theory does not apply"
            )

    # derived scalars are computed once per instance: the fields are
    # frozen, and dataclasses.replace builds a fresh instance
    @cached_property
    def e(self):
        return math.hypot(self.q1, self.q2)

    @cached_property
    def argp(self):
        """Argument of periapsis w = atan2(q2, q1); 0 for circular orbits."""
        if self.q1 == 0.0 and self.q2 == 0.0:
            return 0.0
        return math.atan2(self.q2, self.q1)

    @cached_property
    def f0(self):
        """Epoch true anomaly theta0 - w."""
        return self.theta0 - self.argp

    @cached_property
    def eta(self):
        return math.sqrt(1.0 - self.q1 * self.q1 - self.q2 * self.q2)

    @cached_property
    def p(self):
        """Semilatus rectum a*eta^2 (km)."""
        return self.a * self.eta * self.eta

    @cached_property
    def h(self):
        """Orbit angular momentum magnitude (km^2/s)."""
        return math.sqrt(self.mu * self.p)

    @cached_property
    def n(self):
        """Mean motion (rad/s)."""
        return math.sqrt(self.mu / self.a**3)

    @cached_property
    def period(self):
        return 2.0 * math.pi / self.n

    def kappa(self, theta):
        """p / r at theta (scalar or array, real or complex)."""
        return eval_at_theta(self, theta).kappa

    @cached_property
    def kappa0(self):
        return self.kappa(self.theta0)

    @cached_property
    def r0(self):
        """Chief radius at the epoch (km)."""
        return self.p / self.kappa0


class OrbitStateAtTheta(NamedTuple):
    """Chief scalars at the argument(s) of latitude theta; each field has
    theta's shape. It is built on every plant call inside ODE right-hand
    sides, and a named tuple builds in half the time of a frozen
    dataclass."""

    theta: object
    cos: object       # cos(theta)
    sin: object       # sin(theta)
    kappa: object     # p / r
    r: object         # km
    vr: object        # km/s, radial velocity rdot
    vt: object        # km/s, transverse velocity r*thetadot
    thetadot: object  # rad/s


@dataclass(frozen=True)
class Shorthands:
    """Epoch shorthand quantities used throughout the constant-coefficient
    reductions.

    gamma = q1^2 + q2^2 - 1 = Aq^2 + Bq^2 - 1
    Aq    = q2*cos(theta0) - q1*sin(theta0) = -vr0*p/(vt0*r0)
    Bq    = q1*cos(theta0) + q2*sin(theta0) = p/r0 - 1
    Cq    = h*r0^2 / (a*mu*gamma)
    """

    gamma: float
    Aq: float
    Bq: float
    Cq: float


def make_chief(a, e, inc, raan, argp, f0, mu=MU_EARTH):
    """Build a ChiefOrbit from classical elements.

    Parameters
    ----------
    a : float
        Semimajor axis (km), > 0.
    e : float
        Eccentricity, 0 <= e < 1.
    inc, raan, argp, f0 : float
        Inclination, RAAN, argument of periapsis, epoch true anomaly (rad).
    mu : float, optional
        Gravitational parameter (km^3/s^2). Defaults to Earth.
    """
    if not 0.0 <= e < 1.0:
        raise OrbitDefinitionError(f"eccentricity must satisfy 0 <= e < 1, got {e}")
    return ChiefOrbit(
        a=a,
        q1=e * math.cos(argp),
        q2=e * math.sin(argp),
        inc=inc,
        raan=raan,
        theta0=argp + f0,
        mu=mu,
    )


def eval_at_theta(chief, theta):
    """Evaluate chief radius, velocities and latitude rate at theta, a
    scalar or an array, real or complex."""
    ct, st = np.cos(theta), np.sin(theta)
    kappa = 1.0 + chief.q1 * ct + chief.q2 * st
    r = chief.p / kappa
    vr = (chief.h / chief.p) * (chief.q1 * st - chief.q2 * ct)
    vt = chief.h / r
    return OrbitStateAtTheta(
        theta=theta, cos=ct, sin=st, kappa=kappa, r=r, vr=vr, vt=vt,
        thetadot=chief.h / r**2,
    )


def shorthand_abc(chief):
    """Epoch shorthands (gamma, Aq, Bq, Cq) for a chief orbit."""
    c0 = math.cos(chief.theta0)
    s0 = math.sin(chief.theta0)
    gamma = chief.q1**2 + chief.q2**2 - 1.0
    aq = chief.q2 * c0 - chief.q1 * s0
    bq = chief.q1 * c0 + chief.q2 * s0
    cq = chief.h * chief.r0**2 / (chief.a * chief.mu * gamma)
    return Shorthands(gamma=gamma, Aq=aq, Bq=bq, Cq=cq)


def _true_to_mean_unwrapped(e, f):
    """Mean anomaly as a continuous (unwrapped) function of true anomaly.

    f may be an array. The half-angle atan2 form is finite on the whole
    wrapped range [-pi, pi], apoapsis included.
    """
    k = np.rint(f / _TWO_PI)
    f_mod = f - _TWO_PI * k
    big_e = 2.0 * np.arctan2(math.sqrt(1.0 - e) * np.sin(0.5 * f_mod),
                             math.sqrt(1.0 + e) * np.cos(0.5 * f_mod))
    return big_e - e * np.sin(big_e) + _TWO_PI * k


def _true_to_mean_scalar(e, f):
    """_true_to_mean_unwrapped for one Python float, in math: time_to_theta
    runs inside ODE right-hand sides, where numpy's per-call overhead on
    scalars costs several times the arithmetic."""
    f_mod = math.remainder(f, _TWO_PI)
    k = round((f - f_mod) / _TWO_PI)
    big_e = 2.0 * math.atan2(math.sqrt(1.0 - e) * math.sin(0.5 * f_mod),
                             math.sqrt(1.0 + e) * math.cos(0.5 * f_mod))
    return big_e - e * math.sin(big_e) + _TWO_PI * k


def _solve_kepler(M, e):
    """Eccentric anomaly from mean anomaly, Newton iteration with the Danby
    starter, tolerance 1e-13 rad."""
    m_mod = math.remainder(M, 2.0 * math.pi)
    k = round((M - m_mod) / (2.0 * math.pi))
    big_e = m_mod + 0.85 * e * math.copysign(1.0, math.sin(m_mod))
    for _ in range(_KEPLER_MAX_ITER):
        delta = (big_e - e * math.sin(big_e) - m_mod) / (1.0 - e * math.cos(big_e))
        big_e -= delta
        if abs(delta) < _KEPLER_TOL:
            return big_e + 2.0 * math.pi * k
    raise KeplerConvergenceError(
        f"Kepler iteration did not converge for M={M!r}, e={e!r}"
    )


def theta_to_time(chief, theta):
    """Time since epoch (s) at the unwrapped argument of latitude theta
    (scalar or array).

    t(theta0) = 0; t is monotone increasing and gains one period per
    2*pi of theta.
    """
    e = chief.e
    m = _true_to_mean_unwrapped(e, np.asarray(theta) - chief.argp)
    m0 = _true_to_mean_unwrapped(e, chief.f0)
    return (m - m0) / chief.n


def time_to_theta(chief, t):
    """Unwrapped argument of latitude at time t since epoch (s)."""
    e = chief.e
    m = _true_to_mean_scalar(e, chief.f0) + chief.n * t
    big_e = _solve_kepler(m, e)
    e_mod = math.remainder(big_e, _TWO_PI)
    k = round((big_e - e_mod) / _TWO_PI)
    f = 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(0.5 * e_mod),
                         math.sqrt(1.0 - e) * math.cos(0.5 * e_mod))
    return f + _TWO_PI * k + chief.argp
