#!/usr/bin/env python3
"""Run the generic numeric reduction pipeline on the Molniya-class chief
and compare every product against the closed forms: reduced plant,
eigenvalue spread, transform samples, and determinant consistency.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relmodes import (lf_transform, liouville_determinant_check, lti_closed,
                      make_chief, numeric_modal_decomp, time_to_theta)
from relmodes.plants import cartesian_plant_keplerian


def main():
    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                       math.radians(270.0), math.radians(90.0))
    plant = lambda t: cartesian_plant_keplerian(chief,
                                                time_to_theta(chief, t))
    res = numeric_modal_decomp(plant, 0.0, chief.period, n_harmonics=32,
                               n_samples=1024)
    lam_ana = lti_closed(chief, "cartesian", indep="time").R
    scale = np.max(np.abs(lam_ana))
    print(f"fit residual (diagnostic)      {res.periodic_fit_residual:.3e}")
    print(f"P periodicity defect           {res.periodicity_defect:.3e}")
    print(f"reduced plant vs closed form   "
          f"{np.max(np.abs(res.Lambda - lam_ana)) / scale:.3e}")
    print(f"eigenvalue spread |ev|*T       "
          f"{np.max(np.abs(res.eigenstructure.eigenvalues)) * chief.period:.3e}")
    chains = sorted(len(c) for c in res.eigenstructure.chains)
    print(f"jordan chain lengths           {chains}")
    worst, pscale = 0.0, 0.0
    for j in range(0, len(res.t_samples), 64):
        t = res.t_samples[j]
        pa = lf_transform(chief, "cartesian", time_to_theta(chief, t),
                          indep="time")
        worst = max(worst, np.max(np.abs(res.lf_samples[j] - pa)))
        pscale = max(pscale, np.max(np.abs(pa)))
    print(f"transform samples vs analytic  {worst / pscale:.3e}")
    print(f"liouville determinant mismatch "
          f"{liouville_determinant_check(plant, 0.0, chief.period, res.monodromy):.3e}")


if __name__ == "__main__":
    main()
