"""Config ingestion and CSV/JSON artifact emission for the CLI.

Angles in config files are degrees (suffixed _deg); everything becomes
radians at this boundary. State vectors and emitted trajectories use the
internal units: km, rad, km/s, rad/s.
"""

import csv
import json
import math

import numpy as np

from .errors import RelMotionError
from .orbit import MU_EARTH, make_chief

STATE_COLUMNS = {
    "cartesian": ["x_km", "y_km", "z_km", "xdot_kmps", "ydot_kmps", "zdot_kmps"],
    "spherical": ["dr_km", "theta_r_rad", "phi_r_rad",
                  "drdot_kmps", "theta_r_dot_radps", "phi_r_dot_radps"],
    "qns": ["da_km", "dtheta_rad", "di_rad", "dq1", "dq2", "draan_rad"],
}

REP_ALIASES = {"cart": "cartesian", "cartesian": "cartesian",
               "sph": "spherical", "spherical": "spherical", "qns": "qns"}


def load_config(path):
    with open(path) as fh:
        return json.load(fh)


def require(cfg, key):
    """cfg[key], or a RelMotionError that names the missing key."""
    if key not in cfg:
        raise RelMotionError(f"config lacks the required key {key!r}")
    return cfg[key]


def chief_from_config(cfg):
    """Chief orbit from the JSON orbit block:
    {"a_km", "e", "i_deg", "raan_deg", "argp_deg", "f0_deg",
     "mu_km3_s2" (optional)}."""
    return make_chief(
        a=float(require(cfg, "a_km")),
        e=float(require(cfg, "e")),
        inc=math.radians(float(require(cfg, "i_deg"))),
        raan=math.radians(float(cfg.get("raan_deg", 0.0))),
        argp=math.radians(float(cfg.get("argp_deg", 0.0))),
        f0=math.radians(float(cfg.get("f0_deg", 0.0))),
        mu=float(cfg.get("mu_km3_s2", MU_EARTH)),
    )


def qns_diff_from_classical(chief, delta):
    """Quasi-nonsingular element differences from classical-element
    differences {"da_km", "de", "di_deg", "draan_deg", "dargp_deg",
    "df0_deg"}: the deputy element set is formed and differenced exactly.
    """
    da = float(delta.get("da_km", 0.0))
    de = float(delta.get("de", 0.0))
    di = math.radians(float(delta.get("di_deg", 0.0)))
    draan = math.radians(float(delta.get("draan_deg", 0.0)))
    dargp = math.radians(float(delta.get("dargp_deg", 0.0)))
    df0 = math.radians(float(delta.get("df0_deg", 0.0)))
    e_d = chief.e + de
    w_d = chief.argp + dargp
    dq1 = e_d * math.cos(w_d) - chief.q1
    dq2 = e_d * math.sin(w_d) - chief.q2
    dtheta = dargp + df0
    return np.array([da, dtheta, di, dq1, dq2, draan])


# rows per formatting call: as fast as one call for the whole file, with
# a flat peak string size
_CSV_BLOCK_ROWS = 64


def write_csv_table(path, header, table, label=None):
    """CSV of a 2-D float table: the header row, then one row per table row
    with every value as %.15g and, when label is given, a trailing constant
    label column. Line ends are CRLF, as csv.writer writes them."""
    table = np.asarray(table, dtype=float)
    template = ",".join(["%.15g"] * table.shape[1])
    if label is not None:
        template += "," + str(label).replace("%", "%%")
    template += "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write((template * block.shape[0]) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path, rep, thetas, times, states, extra_col=None):
    """Trajectory CSV: theta, t_s, then the six state components; an
    optional trailing constant column tags the mode index or "sum"."""
    rep = REP_ALIASES[rep]
    header = ["theta", "t_s"] + STATE_COLUMNS[rep]
    if extra_col is not None:
        header.append("label")
    write_csv_table(path, header, np.column_stack([thetas, times, states]),
                    label=extra_col)


def read_trajectory_csv(path):
    """Read a trajectory CSV back to (thetas, times, states); a trailing
    label column, if present, is dropped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        data = np.array([[float(v) for v in row[:8]] for row in reader])
    return data[:, 0], data[:, 1], data[:, 2:8]


def matrix_to_json(mat):
    """Row-major nested lists, complex parts split when present."""
    arr = np.asarray(mat)
    if np.iscomplexobj(arr):
        return {"re": np.real(arr).tolist(), "im": np.imag(arr).tolist()}
    return arr.tolist()


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
