import csv
import json
import math
import os

import numpy as np
import pytest

from relmodes.cli import build_parser, main
from relmodes.io import (chief_from_config, qns_diff_from_classical,
                         read_trajectory_csv, write_trajectory_csv)
from relmodes import extract_constants

from conftest import SINGULAR_ORBITS

MOLNIYA_ORBIT = {"a_km": 26600.0, "e": 0.74, "i_deg": 63.4, "raan_deg": 0.0,
                 "argp_deg": 270.0, "f0_deg": 90.0}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row[:8]] for row in reader]
    return header, np.array(rows)


class TestIoHelpers:
    def test_chief_from_config(self):
        chief = chief_from_config(MOLNIYA_ORBIT)
        assert chief.a == 26600.0
        assert chief.e == pytest.approx(0.74)
        assert chief.inc == pytest.approx(math.radians(63.4))

    def test_classical_difference_conversion(self):
        chief = chief_from_config(MOLNIYA_ORBIT)
        doe = qns_diff_from_classical(chief, {"de": 0.002, "di_deg": 0.2})
        assert doe[0] == 0.0 and doe[1] == 0.0 and doe[5] == 0.0
        assert doe[2] == pytest.approx(math.radians(0.2))
        # pure de along the current periapsis direction
        assert doe[3] == pytest.approx(0.002 * math.cos(chief.argp))
        assert doe[4] == pytest.approx(0.002 * math.sin(chief.argp))

    def test_trajectory_csv_round_trip(self, tmp_path, rng):
        thetas = np.linspace(0.0, 2.0, 9)
        times = np.linspace(0.0, 900.0, 9)
        states = rng.standard_normal((9, 6))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, "cart", thetas, times, states)
        th2, t2, st2 = read_trajectory_csv(path)
        assert np.allclose(th2, thetas, rtol=1e-14)
        assert np.allclose(t2, times, rtol=1e-14)
        assert np.allclose(st2, states, rtol=1e-14)


class TestParser:
    # each command takes only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["validate", "--periods", "1"], ["validate", "--tol", "1e-9"],
        ["floquet-num", "--periods", "1"], ["modes", "--tol", "1e-9"],
        ["reconstruct", "--tol", "1e-9"], ["sweep", "--tol", "1e-9"],
        ["sweep", "--rep", "sph"]])
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--config", "c.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--rep", "sph", "--periods", "1", "--tol", "1e-9"],
        ["floquet-num", "--tol", "1e-9"], ["modes", "--periods", "2"],
        ["reconstruct", "--periods", "2"], ["sweep", "--periods", "2"],
        ["validate"]])
    def test_read_flag_accepted(self, argv):
        args = build_parser().parse_args(argv + ["--config", "c.json"])
        assert args.config == "c.json"


class TestModesCommand:
    def test_molniya_mode_files(self, tmp_path):
        cfg = write_config(tmp_path, {"orbit": MOLNIYA_ORBIT})
        out = str(tmp_path / "out")
        assert main(["modes", "--config", cfg, "--rep", "cart",
                     "--out", out]) == 0
        for k in range(1, 7):
            assert os.path.exists(os.path.join(out, f"mode_{k}.csv"))
        meta = json.load(open(os.path.join(out, "modes_metadata.json")))
        assert meta["eigenvalues"] == [0.0] * 6
        # out-of-plane modes carry no in-plane motion
        for k in (2, 4):
            _, rows = read_csv_rows(os.path.join(out, f"mode_{k}.csv"))
            assert np.max(np.abs(rows[:, [2, 3, 5, 6]])) < 1e-6
        # the drift mode spans three periods by default
        _, rows6 = read_csv_rows(os.path.join(out, "mode_6.csv"))
        span = rows6[-1, 0] - rows6[0, 0]
        assert span == pytest.approx(6.0 * math.pi, rel=1e-12)

    def test_mode5_extent_recoverable_from_emission(self, tmp_path):
        orbit = dict(MOLNIYA_ORBIT, e=0.5)
        cfg = write_config(tmp_path, {"orbit": orbit})
        out = str(tmp_path / "out")
        assert main(["modes", "--config", cfg, "--rep", "cart", "--out",
                     out, "--periods", "1"]) == 0
        _, rows = read_csv_rows(os.path.join(out, "mode_5.csv"))
        along = np.abs(rows[:, 3])  # y column
        assert np.min(along) == pytest.approx(1.0 / 3.0, abs=2e-3)
        assert np.max(along) == pytest.approx(1.0, abs=2e-3)


class TestDecomposeCommand:
    def test_flagship_decomposition(self, tmp_path):
        cfg = write_config(tmp_path, {
            "orbit": MOLNIYA_ORBIT,
            "delta_elements": {"de": 0.002, "di_deg": 0.2, "df0_deg": 0.0},
        })
        out = str(tmp_path / "out")
        assert main(["decompose", "--config", cfg, "--rep", "cart",
                     "--out", out, "--periods", "1"]) == 0
        payload = json.load(open(os.path.join(out, "constants.json")))
        c = np.array(payload["constants"])
        assert payload["drifting"] is False
        assert abs(c[5]) < 1e-10 * np.max(np.abs(c))
        assert abs(c[1]) < 1e-12  # out-of-plane motion is mode 4 only
        assert abs(c[3]) > 0.0
        assert payload["sum_of_modes_max_error"] < 1e-9
        # emitted contributions sum to the emitted trajectory
        _, total = read_csv_rows(os.path.join(out, "trajectory.csv"))
        acc = np.zeros_like(total[:, 2:8])
        for k in range(1, 7):
            _, contrib = read_csv_rows(
                os.path.join(out, f"contribution_mode_{k}.csv"))
            acc += contrib[:, 2:8]
        assert np.max(np.abs(acc - total[:, 2:8])) < 1e-9

    def test_drifting_input_flagged(self, tmp_path):
        cfg = write_config(tmp_path, {
            "orbit": MOLNIYA_ORBIT,
            "delta_qns": {"da_km": 0.5, "dtheta_rad": 1e-5},
        })
        out = str(tmp_path / "out")
        assert main(["decompose", "--config", cfg, "--rep", "cart",
                     "--out", out, "--periods", "1", "--tol", "1e-9"]) == 0
        payload = json.load(open(os.path.join(out, "constants.json")))
        assert payload["drifting"] is True

    def test_reingested_trajectory_recovers_constants(self, tmp_path):
        cfg = write_config(tmp_path, {
            "orbit": MOLNIYA_ORBIT,
            "delta_elements": {"de": 0.002, "di_deg": 0.2},
        })
        out = str(tmp_path / "out")
        main(["decompose", "--config", cfg, "--rep", "cart", "--out", out,
              "--periods", "1"])
        payload = json.load(open(os.path.join(out, "constants.json")))
        thetas, _, states = read_trajectory_csv(
            os.path.join(out, "trajectory.csv"))
        chief = chief_from_config(MOLNIYA_ORBIT)
        j = len(thetas) // 3
        back = extract_constants(chief, states[j], thetas[j], "cartesian")
        c_ref = np.array(payload["constants"])
        assert np.max(np.abs(back.c - c_ref)) < 1e-8 * np.max(np.abs(c_ref))


class TestReconstructCommand:
    def test_constants_round_trip_through_files(self, tmp_path):
        cfg1 = write_config(tmp_path, {
            "orbit": MOLNIYA_ORBIT,
            "delta_elements": {"de": 0.002, "di_deg": 0.2},
        }, name="dec.json")
        out1 = str(tmp_path / "dec")
        main(["decompose", "--config", cfg1, "--rep", "cart", "--out", out1,
              "--periods", "1"])
        constants = json.load(open(os.path.join(out1,
                                                "constants.json")))["constants"]
        cfg2 = write_config(tmp_path, {"orbit": MOLNIYA_ORBIT,
                                       "constants": constants},
                            name="rec.json")
        out2 = str(tmp_path / "rec")
        assert main(["reconstruct", "--config", cfg2, "--rep", "cart",
                     "--out", out2, "--periods", "1"]) == 0
        _, a = read_csv_rows(os.path.join(out1, "trajectory.csv"))
        _, b = read_csv_rows(os.path.join(out2, "trajectory.csv"))
        assert np.allclose(a[0], b[0], rtol=1e-12)


class TestSweepCommand:
    def test_anchored_family(self, tmp_path):
        cfg = write_config(tmp_path, {
            "orbit": MOLNIYA_ORBIT,
            "x0_km": 0.08, "y0_km": 0.09,
            "xdot0_list_kmps": [-2e-5, 0.0, 2e-5],
        })
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out,
                     "--periods", "1"]) == 0
        family = json.load(open(os.path.join(out, "family.json")))
        assert len(family["members"]) == 3
        for k, member in enumerate(family["members"]):
            assert abs(member["constants"][5]) < 1e-12
            _, rows = read_csv_rows(os.path.join(out, f"family_{k}.csv"))
            assert rows[0, 2] == pytest.approx(0.08, abs=1e-9)
            assert rows[0, 3] == pytest.approx(0.09, abs=1e-9)


class TestFloquetNumericCommand:
    def test_cw_plant(self, tmp_path):
        cfg = write_config(tmp_path, {"orbit": MOLNIYA_ORBIT})
        out = str(tmp_path / "out")
        assert main(["floquet-num", "--config", cfg, "--plant", "cw",
                     "--out", out, "--samples", "128",
                     "--harmonics", "4"]) == 0
        payload = json.load(open(os.path.join(out, "floquet_numeric.json")))
        chief = chief_from_config(MOLNIYA_ORBIT)
        evs = (np.array(payload["eigenvalues"]["re"])
               + 1j * np.array(payload["eigenvalues"]["im"]))
        im = np.sort(np.imag(evs)) / chief.n
        assert np.allclose(im, [-1, -1, 0, 0, 1, 1], atol=1e-6)
        assert os.path.exists(os.path.join(out, "lf_samples.csv"))

    def test_qns_plant(self, tmp_path):
        cfg = write_config(tmp_path, {"orbit": dict(MOLNIYA_ORBIT,
                                                    argp_deg=215.0,
                                                    f0_deg=40.0)})
        out = str(tmp_path / "out")
        assert main(["floquet-num", "--config", cfg, "--plant", "qns",
                     "--out", out, "--samples", "256",
                     "--harmonics", "24"]) == 0
        payload = json.load(open(os.path.join(out, "floquet_numeric.json")))
        mono = np.array(payload["monodromy"])
        chief = chief_from_config(dict(MOLNIYA_ORBIT, argp_deg=215.0,
                                       f0_deg=40.0))
        n_mat = mono - np.eye(6)
        from relmodes import qns_r21
        assert n_mat[1, 0] == pytest.approx(2 * math.pi * qns_r21(chief),
                                            rel=1e-8)
        off = n_mat.copy()
        off[1, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-8

    def test_cartesian_keplerian_matches_analytic(self, tmp_path):
        cfg = write_config(tmp_path, {"orbit": MOLNIYA_ORBIT})
        out = str(tmp_path / "out")
        assert main(["floquet-num", "--config", cfg,
                     "--plant", "cartesian-keplerian", "--out", out,
                     "--samples", "512", "--harmonics", "32"]) == 0
        payload = json.load(open(os.path.join(out, "floquet_numeric.json")))
        assert payload["analytic_comparison"]["Lambda_max_rel_error"] < 1e-6
        assert payload["liouville_mismatch"] < 1e-6


class TestValidateCommand:
    def test_molniya_all_suites_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"orbit": MOLNIYA_ORBIT})
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "validate_report.json")))
        assert report["failed"] == 0
        assert all(s.get("passed") for s in report["suites"].values())

    def test_singular_epoch_all_suites_pass(self, tmp_path, capsys):
        orbit = dict(MOLNIYA_ORBIT, e=0.5, argp_deg=30.0, f0_deg=0.0)
        cfg = write_config(tmp_path, {"orbit": orbit})
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        assert "validate: 7/7 suites passed" in capsys.readouterr().out
        report = json.load(open(os.path.join(out, "validate_report.json")))
        assert report["failed"] == 0
        assert report["suites"]["boundedness_dichotomy"]["residual"] < 1e-9

    def test_near_circular_cw_limit(self, tmp_path):
        orbit = dict(MOLNIYA_ORBIT, e=1e-4)
        cfg = write_config(tmp_path, {"orbit": orbit})
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "validate_report.json")))
        suite = report["suites"]["circular_limit_axis_ratio"]
        assert suite["passed"] and abs(suite["axis_ratio"] - 2.0) < 0.02

    @pytest.mark.parametrize("e", [0.002, 0.005])
    @pytest.mark.parametrize("f0_deg", [40.0, 120.0])
    def test_slightly_eccentric_cw_limit(self, tmp_path, e, f0_deg):
        # the bounded state must follow the eccentric chief's own c6 = 0
        orbit = {"a_km": 7000.0, "e": e, "i_deg": 97.8, "raan_deg": 30.0,
                 "argp_deg": 215.0, "f0_deg": f0_deg}
        cfg = write_config(tmp_path, {"orbit": orbit})
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "validate_report.json")))
        assert report["suites"]["circular_limit_axis_ratio"]["passed"]

    @pytest.mark.parametrize("q1", [1e-5, 1e-6, 1e-7])
    def test_near_zero_q1(self, tmp_path, capsys, q1):
        orbit = dict(MOLNIYA_ORBIT,
                     argp_deg=270.0 + math.degrees(math.asin(q1 / 0.74)))
        assert chief_from_config(orbit).q1 == pytest.approx(q1, rel=1e-6)
        cfg = write_config(tmp_path, {"orbit": orbit})
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        assert "validate: 7/7 suites passed" in capsys.readouterr().out
        report = json.load(open(os.path.join(out, "validate_report.json")))
        assert report["suites"]["defining_ode_residual"]["residual"] < 1e-7


@pytest.mark.parametrize("orbit", SINGULAR_ORBITS.values(),
                         ids=SINGULAR_ORBITS.keys())
class TestSingularEpoch:
    """At e*sin(f0) = 0 the modal weights do not exist: the commands that
    report them fail with the typed error, the others run."""

    def config(self, tmp_path, orbit):
        return write_config(tmp_path, {
            "orbit": orbit, "state0": [0.3, -0.5, 0.1, 2e-5, 1e-5, -3e-5],
            "x0_km": 0.08, "y0_km": 0.09, "xdot0_list_kmps": [0.0, 2e-5]})

    @pytest.mark.parametrize("command", [["decompose", "--rep", "cart"],
                                         ["decompose", "--rep", "sph"],
                                         ["sweep"]], ids=" ".join)
    def test_weights_raise(self, tmp_path, capsys, orbit, command):
        cfg = self.config(tmp_path, orbit)
        assert main([*command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "near singular" in capsys.readouterr().err

    @pytest.mark.parametrize("rep", ["cart", "sph"])
    def test_modes_run(self, tmp_path, orbit, rep):
        cfg = self.config(tmp_path, orbit)
        out = str(tmp_path / "out")
        assert main(["modes", "--config", cfg, "--rep", rep, "--out", out,
                     "--periods", "1"]) == 0
        for k in range(1, 7):
            _, rows = read_csv_rows(os.path.join(out, f"mode_{k}.csv"))
            assert np.all(np.isfinite(rows))

    def test_validate_passes(self, tmp_path, capsys, orbit):
        cfg = self.config(tmp_path, orbit)
        out = str(tmp_path / "out")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        assert "validate: 7/7 suites passed" in capsys.readouterr().out
        report = json.load(open(os.path.join(out, "validate_report.json")))
        assert report["suites"]["boundedness_dichotomy"]["residual"] < 1e-9
        if orbit["e"] == 0.0:
            plane = report["suites"]["stationary_plane_orthogonality"]
            assert "degenerate" in plane


def test_unknown_rep_rejected(tmp_path):
    cfg = write_config(tmp_path, {"orbit": MOLNIYA_ORBIT})
    with pytest.raises(SystemExit):
        main(["modes", "--config", cfg, "--rep", "nope", "--out",
              str(tmp_path / "o")])
