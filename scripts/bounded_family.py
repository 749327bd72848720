#!/usr/bin/env python3
"""Sweep the one-parameter family of bounded planar relative orbits
passing through a fixed initial position (x0, y0) = (0.08, 0.09) km on
the e = 0.74 Molniya-class chief.

Every member shares c1 and c5 (pinned by the anchor position), has the
drift weight zeroed through the along-track rate, and differs only in
c3. Emits one trajectory CSV per member plus a JSON summary.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relmodes import (make_chief, reconstruct, sweep_bounded_family,
                      theta_to_time)
from relmodes.io import write_trajectory_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="output/bounded_family")
    parser.add_argument("--members", type=int, default=9)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    chief = make_chief(26600.0, 0.74, math.radians(63.4), 0.0,
                       math.radians(270.0), math.radians(90.0))
    xdot0_list = np.linspace(-4e-5, 4e-5, args.members)
    members = sweep_bounded_family(chief, 0.08, 0.09, xdot0_list)
    grid = np.linspace(chief.theta0, chief.theta0 + 2.0 * math.pi, 721)
    times = theta_to_time(chief, grid)
    summary = []
    for k, member in enumerate(members):
        states = reconstruct(chief, member.constants, grid, "cartesian")
        write_trajectory_csv(os.path.join(args.out, f"member_{k}.csv"),
                             "cartesian", grid, times, states, extra_col=k)
        summary.append({"xdot0_kmps": member.xdot0,
                        "ydot0_kmps": member.ydot0,
                        "constants": member.constants.c.tolist()})
    with open(os.path.join(args.out, "family.json"), "w") as fh:
        json.dump({"anchor_km": [0.08, 0.09], "members": summary}, fh,
                  indent=2)
    c = np.array([m["constants"] for m in summary])
    print(f"{len(members)} members; c1 spread {np.ptp(c[:, 0]):.2e}, "
          f"c5 spread {np.ptp(c[:, 4]):.2e}, c3 spread {np.ptp(c[:, 2]):.2e}")
    print(f"done -> {args.out}")


if __name__ == "__main__":
    main()
