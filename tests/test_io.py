"""CSV format contract: every CSV the CLI writes is what csv.writer writes
for the same values formatted as f"{v:.15g}" (CRLF line ends, no quoting
of these fields)."""

import csv
import json
import math
import os

import numpy as np
import pytest

from relmodes import (ModalConstants, cartesian_plant_theta,
                      lf_from_monodromy, modal_constants,
                      modal_state_matrix, mode_trajectory,
                      numeric_modal_decomp, reconstruct, state_transition,
                      sweep_bounded_family, theta_to_time, time_to_theta)
from relmodes.cli import main
from relmodes.io import STATE_COLUMNS, chief_from_config, write_csv_table

GENERIC_ORBIT = {"a_km": 26600.0, "e": 0.74, "i_deg": 63.4,
                 "raan_deg": math.degrees(0.3), "argp_deg": 215.0,
                 "f0_deg": 40.0}
STATE0 = [0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5]
CONSTANTS = [1e-3, 2e-3, -1e-3, 5e-4, 1e-4, 1e-6]
LF_HEADER = ["t"] + [f"P{i + 1}{j + 1}" for i in range(6) for j in range(6)]


def reference_csv(path, header, rows, label=None):
    """The row-at-a-time writer: csv.writer over f"{v:.15g}" strings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = [f"{v:.15g}" for v in row]
            if label is not None:
                out.append(str(label))
            writer.writerow(out)


def reference_trajectory(path, rep, thetas, times, states, label):
    reference_csv(path, ["theta", "t_s"] + STATE_COLUMNS[rep] + ["label"],
                  np.column_stack([thetas, times, states]), label)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("label", [None, "sum", 3])
def test_table_writer_matches_csv_writer(tmp_path, rng, label):
    # 150 rows straddle the row blocks; the specials sit in the first and
    # the last block
    table = rng.standard_normal((150, 7)) * 10.0 ** rng.integers(-20, 20,
                                                                 (150, 7))
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.0]
    table[0] = specials
    table[-1] = specials[::-1]
    header = [f"c{j}" for j in range(7)] + ([] if label is None else ["label"])
    write_csv_table(tmp_path / "got.csv", header, table, label=label)
    reference_csv(tmp_path / "ref.csv", header, table, label)
    assert read_bytes(tmp_path / "got.csv") == read_bytes(tmp_path / "ref.csv")


@pytest.fixture
def generic_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "orbit": GENERIC_ORBIT, "state0": STATE0, "constants": CONSTANTS,
        "x0_km": 0.2, "y0_km": -0.4, "xdot0_list_kmps": [0.0, 1e-5, -2e-5]}))
    return str(path)


def theta_grid(chief, periods):
    return np.linspace(chief.theta0, chief.theta0 + 2.0 * math.pi * periods,
                       int(periods * 240) + 1)


class TestCommandCsvs:
    """Each command's CSVs equal the reference writer's bytes on arrays
    computed through the library."""

    def run(self, tmp_path, config, *argv):
        out = str(tmp_path / "out")
        assert main([*argv, "--config", config, "--out", out]) == 0
        return out

    def assert_same(self, tmp_path, out, name, write_ref):
        ref = str(tmp_path / "ref.csv")
        write_ref(ref)
        assert read_bytes(os.path.join(out, name)) == read_bytes(ref), name

    def test_decompose(self, tmp_path, generic_config):
        out = self.run(tmp_path, generic_config, "decompose", "--rep", "cart")
        chief = chief_from_config(GENERIC_ORBIT)
        c = modal_constants(chief, np.array(STATE0), "cartesian").c
        grid = theta_grid(chief, 3.0)
        times = theta_to_time(chief, grid)
        psi = modal_state_matrix(chief, "cartesian", grid)
        phi = state_transition(chief, "cartesian", grid)
        self.assert_same(tmp_path, out, "trajectory.csv", lambda p:
                         reference_trajectory(p, "cartesian", grid, times,
                                              phi @ STATE0, "sum"))
        for k in range(1, 7):
            self.assert_same(tmp_path, out, f"contribution_mode_{k}.csv",
                             lambda p: reference_trajectory(
                                 p, "cartesian", grid, times,
                                 psi[..., k - 1] * c[k - 1], k))

    @pytest.mark.parametrize("rep", ["cartesian", "spherical", "qns"])
    def test_modes_match_mode_trajectory(self, tmp_path, generic_config, rep):
        out = self.run(tmp_path, generic_config, "modes", "--rep", rep)
        chief = chief_from_config(GENERIC_ORBIT)
        for k in range(1, 7):
            grid = theta_grid(chief, 3.0 if k == 6 else 1.0)
            states = mode_trajectory(chief, k, grid, rep, normalize=True)
            self.assert_same(tmp_path, out, f"mode_{k}.csv", lambda p:
                             reference_trajectory(p, rep, grid,
                                                  theta_to_time(chief, grid),
                                                  states, k))

    def test_sweep(self, tmp_path, generic_config):
        out = self.run(tmp_path, generic_config, "sweep")
        chief = chief_from_config(GENERIC_ORBIT)
        grid = theta_grid(chief, 3.0)
        members = sweep_bounded_family(chief, 0.2, -0.4, [0.0, 1e-5, -2e-5])
        phi = state_transition(chief, "cartesian", grid)
        for k, mem in enumerate(members):
            self.assert_same(tmp_path, out, f"family_{k}.csv", lambda p:
                             reference_trajectory(
                                 p, "cartesian", grid,
                                 theta_to_time(chief, grid),
                                 phi @ mem.state0, k))

    def test_reconstruct(self, tmp_path, generic_config):
        out = self.run(tmp_path, generic_config, "reconstruct", "--rep", "sph")
        chief = chief_from_config(GENERIC_ORBIT)
        grid = theta_grid(chief, 3.0)
        constants = ModalConstants(c=np.array(CONSTANTS), domain="spherical",
                                   theta0=chief.theta0)
        self.assert_same(tmp_path, out, "trajectory.csv", lambda p:
                         reference_trajectory(
                             p, "spherical", grid, theta_to_time(chief, grid),
                             reconstruct(chief, constants, grid), "sum"))

    def test_floquet_num(self, tmp_path, generic_config):
        out = self.run(tmp_path, generic_config, "floquet-num", "--plant",
                       "cartesian-keplerian", "--samples", "256")
        chief = chief_from_config(GENERIC_ORBIT)
        # integrated in theta, sampled on the uniform time grid
        res = numeric_modal_decomp(
            lambda th: cartesian_plant_theta(chief, th), chief.theta0,
            2.0 * math.pi, n_samples=256)
        times = np.linspace(0.0, chief.period, 257)
        thetas = time_to_theta(chief, times)
        thetas[0], thetas[-1] = chief.theta0, chief.theta0 + 2.0 * math.pi
        lam = res.Lambda * (2.0 * math.pi / chief.period)
        lf, _ = lf_from_monodromy(times, res.stm_at(thetas), lam, 0.0,
                                  res.nilpotent_index)
        self.assert_same(tmp_path, out, "lf_samples.csv", lambda p:
                         reference_csv(p, LF_HEADER, np.column_stack(
                             [times, lf.reshape(-1, 36)])))
