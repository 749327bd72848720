"""Independent references for the benchmark's output checks.

Nothing here imports relmodes. The chief is propagated from its classical
elements through the radial two-body equation, and the deputy through the
linearised LVLH equations of relative motion about an eccentric chief
(Tschauner-Hempel form in time):

    xdd = 2 td yd + tdd y + td^2 x + 2 mu/r^3 x
    ydd = -2 td xd - tdd x + td^2 y - mu/r^3 y
    zdd = -mu/r^3 z

with td = h/r^2 and tdd = -2 rdot td / r. The state transition matrix is
integrated once per chief in units of a and 1/n, where its entries are of
order one, and evaluated from the dense output at any time.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

MU_EARTH = 398600.4418  # km^3/s^2
STM_RTOL = 1e-12
STM_ATOL = 1e-13


@dataclass(frozen=True)
class Orbit:
    """Chief orbit in the classical elements the in-plane motion depends
    on (km, radians)."""

    a: float
    e: float
    argp: float
    f0: float
    mu: float = MU_EARTH

    @classmethod
    def from_config(cls, cfg):
        return cls(a=float(cfg["a_km"]), e=float(cfg["e"]),
                   argp=math.radians(cfg["argp_deg"]),
                   f0=math.radians(cfg["f0_deg"]))

    @property
    def n(self):
        return math.sqrt(self.mu / self.a**3)

    @property
    def period(self):
        return 2.0 * math.pi / self.n

    @property
    def theta0(self):
        return self.argp + self.f0


def _true_to_mean(e, f):
    """Unwrapped mean anomaly of an unwrapped true anomaly."""
    big_e = 2.0 * np.arctan2(np.sqrt(1.0 - e) * np.sin(0.5 * f),
                             np.sqrt(1.0 + e) * np.cos(0.5 * f))
    big_e = big_e + 2.0 * np.pi * np.round((f - big_e) / (2.0 * np.pi))
    return big_e - e * np.sin(big_e)


def kepler_theta(orbit, t):
    """Unwrapped argument of latitude at times t since epoch, by Newton
    iteration on Kepler's equation."""
    t = np.asarray(t, dtype=float)
    e = orbit.e
    m = _true_to_mean(e, orbit.f0) + orbit.n * t
    big_e = m + e * np.sin(m)
    for _ in range(60):
        step = (big_e - e * np.sin(big_e) - m) / (1.0 - e * np.cos(big_e))
        big_e = big_e - step
        if np.max(np.abs(step)) < 1e-15 * max(1.0, float(np.max(np.abs(m)))):
            break
    f = 2.0 * np.arctan2(np.sqrt(1.0 + e) * np.sin(0.5 * big_e),
                         np.sqrt(1.0 - e) * np.cos(0.5 * big_e))
    f = f + 2.0 * np.pi * np.round((big_e - f) / (2.0 * np.pi))
    return orbit.argp + f


class Reference:
    """Chief and state-transition-matrix propagation for one orbit, over
    [0, span_periods * T]."""

    def __init__(self, orbit, span_periods):
        self.orbit = orbit
        e = orbit.e
        p = 1.0 - e * e                    # semilatus rectum / a
        self.h = math.sqrt(p)              # angular momentum, units a^2 n
        r0 = p / (1.0 + e * math.cos(orbit.f0))
        rd0 = e * math.sin(orbit.f0) / self.h
        y0 = np.concatenate([[r0, rd0, orbit.theta0], np.eye(6).ravel()])
        tau_end = 2.0 * math.pi * span_periods
        sol = solve_ivp(self._rhs, (0.0, tau_end), y0, method="DOP853",
                        rtol=STM_RTOL, atol=STM_ATOL, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        self._sol = sol
        self._tau_end = tau_end
        n = orbit.n
        # dimensional STM = D Phi' D^-1 with D = diag(a, a, a, a n, a n, a n)
        self._unscale = np.ones((6, 6))
        self._unscale[:3, 3:] = 1.0 / n
        self._unscale[3:, :3] = n

    def _rhs(self, tau, y):
        r, rd = y[0], y[1]
        h = self.h
        td = h / (r * r)
        tdd = -2.0 * rd * td / r
        k = 1.0 / r**3
        a = np.zeros((6, 6))
        a[0:3, 3:6] = np.eye(3)
        a[3, 0] = td * td + 2.0 * k
        a[3, 1] = tdd
        a[3, 4] = 2.0 * td
        a[4, 0] = -tdd
        a[4, 1] = td * td - k
        a[4, 3] = -2.0 * td
        a[5, 2] = -k
        phi = y[3:].reshape(6, 6)
        return np.concatenate([[rd, h * h / r**3 - 1.0 / (r * r), td],
                               (a @ phi).ravel()])

    def _eval(self, t):
        tau = self.orbit.n * np.atleast_1d(np.asarray(t, dtype=float))
        if tau.size and (tau.min() < -1e-9 or tau.max() > self._tau_end * (1 + 1e-12)):
            raise ValueError("time outside the reference span")
        return self._sol.sol(tau).T

    def theta(self, t):
        """Chief argument of latitude at times t (s)."""
        return self._eval(t)[:, 2]

    def stm(self, t):
        """State transition matrices Phi(t, 0), shape (len(t), 6, 6)."""
        phi = self._eval(t)[:, 3:].reshape(-1, 6, 6)
        return phi * self._unscale

    def propagate(self, state0, t):
        """Linearised relative states at times t from state0 at t = 0."""
        return self.stm(t) @ np.asarray(state0, dtype=float)


def relative_error(states, reference):
    """Criterion-04 measure: worst position and velocity deviation, each
    relative to the largest reference position or velocity norm."""
    pos = np.max(np.linalg.norm(reference[:, :3], axis=1))
    vel = np.max(np.linalg.norm(reference[:, 3:], axis=1))
    return max(np.max(np.linalg.norm(states[:, :3] - reference[:, :3], axis=1)) / pos,
               np.max(np.linalg.norm(states[:, 3:] - reference[:, 3:], axis=1)) / vel)


def nondimensional(mat, n):
    """Cartesian plant or STM in units of a and 1/n (mixed km, km/s
    blocks scaled to order one)."""
    out = np.array(mat, dtype=float)
    out[:3, 3:] *= n
    out[3:, :3] /= n
    return out
