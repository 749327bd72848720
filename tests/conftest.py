import math

import numpy as np
import pytest

from relmodes import make_chief


@pytest.fixture
def molniya():
    """The highly eccentric reference orbit used throughout; it has
    q1 = 0 (argp = 270 deg), where the printed P21/P25 forms are singular
    but the regular forms the library evaluates are not."""
    return make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                      math.radians(270.0), math.radians(90.0))


@pytest.fixture
def generic_chief():
    """Same size and eccentricity, epoch well away from every singular
    configuration (q1 and e*sin(f0) both O(1))."""
    return make_chief(26600.0, 0.74, math.radians(63.4), 0.3,
                      math.radians(215.0), math.radians(40.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_chief(rng, e_lo=0.01, e_hi=0.9, avoid_singular=True):
    while True:
        chief = make_chief(
            rng.uniform(7000.0, 45000.0),
            rng.uniform(e_lo, e_hi),
            rng.uniform(0.1, 3.0),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        if not avoid_singular:
            return chief
        if abs(chief.q1) > 1e-3 and abs(chief.e * math.sin(chief.f0)) > 1e-3:
            return chief
