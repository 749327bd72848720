#!/usr/bin/env python3
"""Emit the normalized fundamental-mode geometry for a Molniya-class chief
across eccentricities, in Cartesian and spherical coordinates.

Writes one CSV per (eccentricity, representation, mode) under the output
directory, ready for any external plotter. The drift mode spans three
chief periods; the periodic ones span one.
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relmodes import make_chief, mode_trajectory, theta_to_time
from relmodes.io import write_trajectory_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="output/molniya_modes")
    parser.add_argument("--samples", type=int, default=721)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for e in (0.01, 0.1, 0.5, 0.74):
        chief = make_chief(26600.0, e, math.radians(63.4), 0.0,
                           math.radians(270.0), math.radians(90.0))
        for rep in ("cartesian", "spherical"):
            for k in range(1, 7):
                periods = 3.0 if k == 6 else 1.0
                grid = np.linspace(chief.theta0,
                                   chief.theta0 + 2.0 * math.pi * periods,
                                   int(args.samples * periods))
                states = mode_trajectory(chief, k, grid, rep, normalize=True)
                times = theta_to_time(chief, grid)
                name = f"e{e:0.2f}_{rep}_mode{k}.csv"
                write_trajectory_csv(os.path.join(args.out, name), rep,
                                     grid, times, states, extra_col=k)
        print(f"e = {e}: 12 mode files written")
    print(f"done -> {args.out}")


if __name__ == "__main__":
    main()
