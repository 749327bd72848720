"""Chief orbit model: closed two-body reference orbit and every
orbit-dependent scalar the rest of the package needs.

The chief is parameterized by quasi-nonsingular elements
(a, q1, q2, i, Omega, theta0) with q1 = e*cos(w), q2 = e*sin(w) and
theta0 = w + f0 the epoch argument of latitude.  The argument of
latitude theta is treated as a continuously increasing real (never
wrapped mod 2*pi) so that secular terms proportional to (theta - theta0)
are well defined.  Time is anchored by t(theta0) = 0.

Latitude and time meet in the eccentric anomaly E: theta(E) and t(E) are
closed form and continuous in E, and E(t) is one vectorised Newton solve
of Kepler's equation, so theta_to_time and time_to_theta each take a
scalar or an array through one path.

All angles are radians, lengths km, gravitational parameter km^3/s^2.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import KeplerConvergenceError, OrbitDefinitionError

MU_EARTH = 398600.4418  # km^3/s^2

_KEPLER_TOL = 1e-13  # rad
_KEPLER_MAX_ITER = 50
_TWO_PI = 2.0 * math.pi
_SIN_I_MIN = 1e-9  # below it the chief is equatorial: the node is undefined


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
        if not self.gamma < 0.0:
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
    def gamma(self):
        """-(1 - e^2), with 1 - e^2 taken as 1 - q1^2 - q2^2: the one
        formula for it that eta, p and every reduction read."""
        return -(1.0 - self.q1 * self.q1 - self.q2 * self.q2)

    @cached_property
    def eta(self):
        return math.sqrt(-self.gamma)

    @cached_property
    def p(self):
        """Semilatus rectum a*(1 - e^2) (km)."""
        return self.a * -self.gamma

    @cached_property
    def h(self):
        """Orbit angular momentum magnitude (km^2/s)."""
        return math.sqrt(self.mu * self.p)

    @cached_property
    def n(self):
        """Mean motion (rad/s)."""
        return math.sqrt(self.mu / self.a**3)

    @cached_property
    def m0(self):
        """Epoch mean anomaly, unwrapped with f0."""
        big_e = _theta_to_eccentric(self, self.theta0)
        return float(big_e - self.e * math.sin(big_e))

    @cached_property
    def period(self):
        return 2.0 * math.pi / self.n

    @cached_property
    def in_plane(self):
        """The same in-plane orbit at i = pi/2, Omega = 0: the local maps
        G(theta) M G(theta0)^-1 do not depend on i or Omega, so they are
        evaluated here, where no node term cancels."""
        return replace(self, inc=0.5 * math.pi, raan=0.0)

    @cached_property
    def epoch(self):
        """Chief state at theta0 (an OrbitStateAtTheta)."""
        return eval_at_theta(self, self.theta0)

    # epoch shorthands of the constant-coefficient reductions:
    # gamma = Aq^2 + Bq^2 - 1, Aq = -vr0 p / (vt0 r0), Bq = p / r0 - 1
    @cached_property
    def Aq(self):
        return self.q2 * self.epoch.cos - self.q1 * self.epoch.sin

    @cached_property
    def Bq(self):
        return self.q1 * self.epoch.cos + self.q2 * self.epoch.sin

    @cached_property
    def Cq(self):
        """h r0^2 / (a mu gamma)."""
        return self.h * self.epoch.r**2 / (self.a * self.mu * self.gamma)


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


def _theta_to_eccentric(chief, theta):
    """Unwrapped eccentric anomaly at the unwrapped argument of latitude
    theta (scalar or array): E = f - 2 atan2(beta sin f, 1 + beta cos f)
    with f = theta - w and beta = e / (1 + eta), continuous in f, apoapsis
    included."""
    f = np.asarray(theta) - chief.argp
    beta = chief.e / (1.0 + chief.eta)
    return f - 2.0 * np.arctan2(beta * np.sin(f), 1.0 + beta * np.cos(f))


def _eccentric_to_theta(chief, big_e):
    """Inverse of _theta_to_eccentric:
    f = E + 2 atan2(beta sin E, 1 - beta cos E)."""
    beta = chief.e / (1.0 + chief.eta)
    return (big_e + 2.0 * np.arctan2(beta * np.sin(big_e),
                                     1.0 - beta * np.cos(big_e))
            + chief.argp)


def _eccentric_to_time(chief, big_e):
    """Time since epoch at the unwrapped eccentric anomaly E, from Kepler's
    equation: t = (E - e sin E - M0) / n."""
    return (big_e - chief.e * np.sin(big_e) - chief.m0) / chief.n


def theta_to_time(chief, theta):
    """Time since epoch (s) at the unwrapped argument of latitude theta
    (scalar or array).

    t(theta0) = 0; t is monotone increasing and gains one period per
    2*pi of theta.
    """
    return _eccentric_to_time(chief, _theta_to_eccentric(chief, theta))


def _remainder_2pi(x):
    """math.remainder(x, 2*pi) and its quotient on an array: fmod is exact,
    and so is the shift of its result into [-pi, pi] (Sterbenz)."""
    r = np.fmod(x, _TWO_PI)
    r = np.where(r > math.pi, r - _TWO_PI,
                 np.where(r < -math.pi, r + _TWO_PI, r))
    return r, np.rint((x - r) / _TWO_PI)


def _time_to_eccentric(chief, t):
    """Unwrapped eccentric anomaly at time t since epoch (scalar or array):
    Kepler's equation solved by Newton iteration with the Danby starter on
    the mean anomaly reduced to [-pi, pi], to 1e-13 rad."""
    e = chief.e
    m_mod, k = _remainder_2pi(chief.m0 + chief.n * np.asarray(t, dtype=float))
    big_e = m_mod + 0.85 * e * np.copysign(1.0, np.sin(m_mod))
    for _ in range(_KEPLER_MAX_ITER):
        delta = (big_e - e * np.sin(big_e) - m_mod) / (1.0 - e * np.cos(big_e))
        big_e = big_e - delta
        if (np.abs(delta) < _KEPLER_TOL).all():
            return big_e + _TWO_PI * k
    raise KeplerConvergenceError(
        f"Kepler iteration did not converge for e={e!r}")


def time_to_theta(chief, t):
    """Unwrapped argument of latitude at time t since epoch (s); t is a
    scalar or an array, and the result has its shape."""
    return _eccentric_to_theta(chief, _time_to_eccentric(chief, t))
