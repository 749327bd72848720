#!/usr/bin/env python3
"""Run the generic numeric reduction pipeline on the Molniya-class chief
and compare every product against the closed forms: reduced plant,
eigenvalue spread, transform samples, and determinant consistency, all
in the argument of latitude, where `relmodes floquet-num` integrates.
"""

import math
import os
import sys
from functools import partial

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relmodes import (cartesian_plant_theta, lf_transform, lti_closed,
                      make_chief, numeric_modal_decomp)


def main():
    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                       math.radians(270.0), math.radians(90.0))
    plant = partial(cartesian_plant_theta, chief)
    span = 2.0 * math.pi
    res = numeric_modal_decomp(plant, chief.theta0, span, n_harmonics=32,
                               n_samples=1024)
    lam_ana = lti_closed(chief, "cartesian").R
    scale = np.max(np.abs(lam_ana))
    print(f"fit residual (diagnostic)      {res.periodic_fit_residual:.3e}")
    print(f"P periodicity defect           {res.periodicity_defect:.3e}")
    print(f"reduced plant vs closed form   "
          f"{np.max(np.abs(res.Lambda - lam_ana)) / scale:.3e}")
    print(f"eigenvalue spread |ev|*2pi     "
          f"{np.max(np.abs(res.eigenstructure.eigenvalues)) * span:.3e}")
    chains = sorted(len(c) for c in res.eigenstructure.chains)
    print(f"jordan chain lengths           {chains}")
    pa = lf_transform(chief, "cartesian", res.t_samples[::64])
    worst = np.max(np.abs(res.lf_samples[::64] - pa)) / np.max(np.abs(pa))
    print(f"transform samples vs analytic  {worst:.3e}")
    print(f"liouville determinant mismatch {res.liouville_mismatch:.3e}")


if __name__ == "__main__":
    main()
