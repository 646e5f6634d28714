import argparse
import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rydpol
from rydpol import cli
from rydpol.cli import main
from rydpol.dressing import TransitionClass, eigen_spectrum


def lorentzian_spectrum(cls, phi, omega_rf=40.0, width=1.0, n=1601, span=65.0):
    x = np.linspace(-span, span, n)
    y = np.zeros_like(x)
    for lam in eigen_spectrum(cls, phi).eigenvalues:
        c = omega_rf * lam
        y += width**2 / ((x - c) ** 2 + width**2)
    return x, y


def write_spectrum(path, cls, phi, config="standard"):
    x, y = lorentzian_spectrum(cls, phi)
    doc = {
        "detuning_mhz": list(x),
        "amplitude": list(y),
        "class": {"J2": cls.J.twice, "p": cls.p},
        "config": config,
    }
    path.write_text(json.dumps(doc))


class TestSpectrogramCommand:
    def test_csv_and_manifest(self, tmp_path):
        out = tmp_path / "spg.csv"
        rc = main([
            "spectrogram", "--J2", "1", "--p", "0",
            "--phi-steps", "9", "-o", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("phi,band_index,eigenvalue")
        manifest = json.loads((tmp_path / "spg.manifest.json").read_text())
        assert manifest["command"] == "spectrogram"
        assert (manifest["J2"], manifest["p"]) == (1, 0)
        assert manifest["phi_steps"] == 9
        assert "fn" not in manifest

    def test_json_with_envelopes(self, tmp_path):
        out = tmp_path / "spg.json"
        rc = main([
            "spectrogram", "--J2", "3", "--p", "1", "--phi-steps", "5",
            "--envelopes", "exact", "--format", "json", "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["class"] == {"J2": 3, "p": 1}
        assert len(doc["eigenvalues"][0]) == 10
        assert doc["envelopes"]["kind"] == "exact"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_envelopes_of_other_class_invalid_input(self, tmp_path, capsys, fmt):
        out = tmp_path / ("spg." + fmt)
        rc = main([
            "spectrogram", "--J2", "1", "--p", "0", "--phi-steps", "5",
            "--envelopes", "exact", "--format", fmt, "-o", str(out),
        ])
        assert rc == 3
        assert "1/2^0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["spectrogram", "--J2", "1", "--p", "0", "--phi-steps", "7"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_degrees_emits_degrees(self, tmp_path, fmt):
        # the same grid given in degrees and in radians: only phi differs
        grid = ["--phi-start", "-30", "--phi-stop", "200", "--phi-steps", "7"]
        rad_grid = ["--phi-start", repr(math.radians(-30)),
                    "--phi-stop", repr(math.radians(200)), "--phi-steps", "7"]
        deg, rad = tmp_path / ("deg." + fmt), tmp_path / ("rad." + fmt)
        argv = ["spectrogram", "--J2", "3", "--p", "1", "--format", fmt]
        if fmt == "csv":
            argv += ["--envelopes", "exact"]
        assert main(argv + grid + ["--degrees", "-o", str(deg)]) == 0
        assert main(argv + rad_grid + ["-o", str(rad)]) == 0
        if fmt == "json":
            d, r = json.loads(deg.read_text()), json.loads(rad.read_text())
            assert d["phi"] == [math.degrees(v) for v in r["phi"]]
            assert d["phi"][0] == pytest.approx(-30) and d["phi"][-1] == pytest.approx(200)
            del d["phi"], r["phi"]
            assert d == r
            return
        phis = np.linspace(math.radians(-30), math.radians(200), 7)
        for a, b in ((deg, rad), (tmp_path / "deg_envelopes.csv",
                                  tmp_path / "rad_envelopes.csv")):
            rows_d = [line.split(",") for line in a.read_text().splitlines()[1:]]
            rows_r = [line.split(",") for line in b.read_text().splitlines()[1:]]
            assert [r[1:] for r in rows_d] == [r[1:] for r in rows_r]
            per_phi = len(rows_d) // len(phis)
            assert [r[0] for r in rows_d] == [
                "%.9g" % math.degrees(v) for v in np.repeat(phis, per_phi)]

    @pytest.mark.parametrize("kind", ["exact", "approx"])
    def test_envelopes_side_file_matches_envelopes_command(self, tmp_path, kind):
        grid = ["--phi-steps", "37", "--phi-stop", "3.5"]
        assert main(["spectrogram", "--J2", "3", "--p", "-1", "--envelopes", kind,
                     "-o", str(tmp_path / "spg.csv")] + grid) == 0
        assert main(["envelopes", "--kind", kind, "-o", str(tmp_path / "env.csv")]
                    + grid) == 0
        side = tmp_path / "spg_envelopes.csv"
        assert side.read_bytes() == (tmp_path / "env.csv").read_bytes()

    def test_invalid_class(self, tmp_path):
        rc = main([
            "spectrogram", "--J2", "0", "--p", "0",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("command", [
        ["spectrogram", "--J2", "1", "--p", "0"],
        ["envelopes"],
        ["roundtrip", "--J2", "1", "--p", "0"],
    ], ids=["spectrogram", "envelopes", "roundtrip"])
    @pytest.mark.parametrize("message,bound", [
        ("--phi-start must be finite", ["--phi-start", "nan"]),
        ("--phi-stop must be finite", ["--phi-stop", "inf"]),
        ("--phi-start must be finite", ["--phi-start=-inf", "--degrees"]),
        ("must be a finite span", ["--phi-start=-1e308", "--phi-stop", "1e308"]),
    ], ids=["start_nan", "stop_inf", "start_-inf_degrees", "span_overflow"])
    def test_non_finite_phi_bound_invalid_input(self, tmp_path, capsys, command, message,
                                                bound):
        out = tmp_path / "x.csv"
        rc = main(command + bound + ["--phi-steps", "3", "-o", str(out)])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_phi_steps(self, tmp_path):
        rc = main([
            "spectrogram", "--J2", "1", "--p", "0", "--phi-steps", "1",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert rc == 3


class TestEnvelopesCommand:
    def test_writes_table(self, tmp_path):
        out = tmp_path / "env.csv"
        rc = main(["envelopes", "--kind", "approx", "--phi-steps", "11",
                   "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        assert lines[1].endswith(",approx")

    def test_degrees_emits_degrees(self, tmp_path):
        deg, rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
        assert main(["envelopes", "--phi-stop", "90", "--phi-steps", "3", "--degrees",
                     "-o", str(deg)]) == 0
        assert main(["envelopes", "--phi-stop", repr(math.radians(90)),
                     "--phi-steps", "3", "-o", str(rad)]) == 0
        rows_d = [line.split(",", 1) for line in deg.read_text().splitlines()[1:]]
        rows_r = [line.split(",", 1) for line in rad.read_text().splitlines()[1:]]
        assert [r[0] for r in rows_d] == ["0", "45", "90"]
        assert [r[1] for r in rows_d] == [r[1] for r in rows_r]


class TestEitCommand:
    def scenario(self, tmp_path, **extra):
        cfg = {
            "class": {"J2": 1, "p": 0},
            "params": {
                "coupling_detuning_grid": {"start": -50, "stop": 50, "steps": 21},
            },
            "phi": [0.5, 1.5],
        }
        cfg.update(extra)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "eit.csv"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path)),
                   "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,delta_c_mhz,response"
        assert len(lines) == 1 + 2 * 21
        manifest = json.loads((tmp_path / "eit.manifest.json").read_text())
        assert manifest["command"] == "eit"

    def test_json_format(self, tmp_path):
        out = tmp_path / "eit.json"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path)),
                   "--format", "json", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["response"]) == 2

    def test_missing_scenario(self, tmp_path):
        rc = main(["eit", "--scenario", str(tmp_path / "nope.json"),
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_invalid_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"class": {"J2": 0, "p": 9}}))
        rc = main(["eit", "--scenario", str(bad), "-o", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_unknown_optics_preset(self, tmp_path):
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path)),
                   "--optics", "diagonal", "-o", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_bad_third_level(self, tmp_path):
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path)),
                   "--third-level", "-5", "-o", str(tmp_path / "x.csv")])
        assert rc == 3

    @pytest.mark.parametrize("j3_twice", [1, 4])
    def test_unbuildable_third_level_invalid_input(self, tmp_path, capsys, j3_twice):
        path = self.scenario(tmp_path, **{
            "class": {"J2": 3, "p": 1},
            "third_level": {"J2": j3_twice, "delta3_mhz": 100.0},
        })
        out = tmp_path / "x.csv"
        rc = main(["eit", "--scenario", str(path), "-o", str(out)])
        assert rc == 3
        assert "third level needs J3 = J or J+1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,third", [
        (["--third-level", "nan"], None),
        (["--third-level", "inf"], {"J2": 5, "delta3_mhz": 100.0}),
        ([], {"J2": 5, "delta3_mhz": "inf"}),
    ], ids=["flag_nan", "flag_inf_over_scenario", "scenario_inf"])
    def test_non_finite_third_level_invalid_input(self, tmp_path, capsys, flag, third):
        path = self.scenario(tmp_path, **{"class": {"J2": 3, "p": 1}, "third_level": third})
        out = tmp_path / "x.csv"
        rc = main(["eit", "--scenario", str(path), "-o", str(out)] + flag)
        assert rc == 3
        assert "delta3 must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_third_level_flag_keeps_coupling_target(self, tmp_path):
        five_r1 = {"class": {"J2": 3, "p": 1}, "coupling_target": "r1"}
        flag_out, explicit_out = tmp_path / "flag.csv", tmp_path / "explicit.csv"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path, **five_r1)),
                   "--third-level", "100", "-o", str(flag_out)])
        assert rc == 0
        explicit = self.scenario(tmp_path, third_level={"J2": 5, "delta3_mhz": 100},
                                 **five_r1)
        assert main(["eit", "--scenario", str(explicit), "-o", str(explicit_out)]) == 0
        assert flag_out.read_bytes() == explicit_out.read_bytes()

    @pytest.mark.parametrize("params", [
        {"omega_rf": "nan"},
        {"coupling_detuning_grid": []},
        {"gamma_r": 0},
        {"gamma_i": 0},
        {"omega_probe": 0},
        [1, 2],
        None,
        "x",
        {"coupling_detuning_grid": "12"},
    ])
    def test_bad_params_invalid_input(self, tmp_path, capsys, params):
        out = tmp_path / "x.csv"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path, params=params)),
                   "-o", str(out)])
        assert rc == 3
        assert "params:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("phi", [
        ["nan"], [], {"start": 0, "stop": 1, "steps": 0}, "12",
    ], ids=["nan", "empty", "zero_steps", "string"])
    def test_bad_phi_grid_invalid_input(self, tmp_path, capsys, phi):
        out = tmp_path / "x.csv"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path, phi=phi)),
                   "-o", str(out)])
        assert rc == 3
        assert "phi:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra,field", [
        ({"j_intermediate2": 0}, "j_intermediate"),
        ({"j_intermediate2": 2}, "j_intermediate"),
        ({"j_intermediate2": -1}, "j_intermediate"),
        ({"j_intermediate2": 5}, "j_intermediate"),
        ({"class": {"J2": 3, "p": 1}, "j_intermediate2": 1}, "coupling_target"),
        ({"class": {"J2": 5, "p": 1}}, "coupling_target"),
        ({"class": {"J2": 5, "p": -1}}, "coupling_target"),
        ({"class": {"J2": 7, "p": 0}}, "coupling_target"),
        ({"j_intermediate2": 1.5}, "j_intermediate2"),
        ({"class": {"J2": 1.5, "p": 0}}, "class"),
    ], ids=["ji_0", "ji_2", "ji_neg", "ji_5", "five_ji_1", "5/2^+", "5/2^-", "7/2^0",
            "ji_1.5", "class_J2_1.5"])
    def test_unbuildable_scheme_invalid_input(self, tmp_path, capsys, extra, field):
        out = tmp_path / "x.csv"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path, **extra)),
                   "-o", str(out)])
        assert rc == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_target_override_makes_scheme_buildable(self, tmp_path):
        # the 5/2^+ default (r2, J' = 7/2) is out of reach of J_i = 3/2; r1 is not
        out = tmp_path / "x.csv"
        path = self.scenario(tmp_path, **{"class": {"J2": 5, "p": 1},
                                          "coupling_target": "r1"})
        assert main(["eit", "--scenario", str(path), "-o", str(out)]) == 0
        assert out.exists()

    STANDARD_OPTICS = {"propagation_probe": [0, 1, 0], "propagation_coupling": [0, -1, 0],
                       "pol_probe": [1, 0, 0], "pol_coupling": [1, 0, 0]}

    def test_optics_object_matches_preset(self, tmp_path):
        preset, custom = tmp_path / "preset.csv", tmp_path / "custom.csv"
        assert main(["eit", "--scenario", str(self.scenario(tmp_path, optics="standard")),
                     "-o", str(preset)]) == 0
        path = self.scenario(tmp_path, optics=self.STANDARD_OPTICS)
        assert main(["eit", "--scenario", str(path), "-o", str(custom)]) == 0
        assert custom.read_bytes() == preset.read_bytes()

    @pytest.mark.parametrize("field,value", [
        ("pol_probe", [0, 0, 0]),
        ("pol_probe", [math.nan, 0, 0]),
        ("propagation_probe", [0, math.nan, 0]),
        ("pol_coupling", [2, 0, 0]),
    ], ids=["zero_pol_probe", "nan_pol_probe", "nan_propagation_probe",
            "pol_coupling_norm_2"])
    def test_bad_optics_vector_invalid_input(self, tmp_path, capsys, field, value):
        out = tmp_path / "x.csv"
        optics = dict(self.STANDARD_OPTICS, **{field: value})
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path, optics=optics)),
                   "-o", str(out)])
        assert rc == 3
        assert "optics: %s must be" % field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params,message", [
        ({"omega_coupling": 1e160}, "Schur complement is not finite"),
        ({"omega_probe": 1e-200}, "Schur complement is not finite"),
        ({"gamma_r": 1e-300, "coupling_detuning_grid": [-10, 0, 10]},
         "EIT response is not finite"),
    ], ids=["omega_coupling_1e160", "omega_probe_1e-200", "gamma_r_1e-300"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_reduction_numerical_failure(self, tmp_path, capsys, params, message):
        # finite inputs that overflow the Schur complement, or that put a
        # pole on the detuning grid, fail as a numerical error with a
        # message, not a traceback, and write no file
        scenario = self.scenario(tmp_path, params=params)
        rc = main(["eit", "--scenario", str(scenario), "-o", str(tmp_path / "x.csv")])
        assert rc == 4
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scenario]


class TestInvertCommand:
    def test_half_zero_candidates(self, tmp_path, capsys):
        phi = math.pi / 4
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(0.5, 0), phi)
        rc = main(["invert", "--input", str(spec), "--degrees"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ambiguity_class"] == "fourfold"
        assert report["angle_unit"] == "degrees"
        expect = sorted([45.0, 135.0, 225.0, 315.0])
        assert report["candidates"] == pytest.approx(expect, abs=1.0)

    def test_output_file_and_manifest(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(0.5, 0), 0.6)
        out = tmp_path / "report.json"
        rc = main(["invert", "--input", str(spec), "-o", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["candidate_stokes"]) == len(report["candidates"])
        assert (tmp_path / "report.manifest.json").exists()

    def test_manifest_records_every_flag(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(0.5, 0), 0.6)
        out = tmp_path / "report.json"
        rc = main(["invert", "--input", str(spec), "--min-prominence", "0.04",
                   "--merge-tol", "0.5", "--second-config", "rotated_circular",
                   "-o", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["command"] == "invert"
        assert manifest["input"] == str(spec.resolve())
        assert manifest["min_prominence"] == 0.04
        assert manifest["merge_tol"] == 0.5
        assert manifest["central_tol"] is None
        assert manifest["ratio_tol"] == 1e-6
        assert manifest["angle_tol"] == 1e-3
        assert manifest["second_config"] == "rotated_circular"

    @pytest.mark.parametrize("x,y,message", [
        (list(range(7)), [0.0] * 7, "at least 8 samples"),
        ([0, 1, 2, 3, 3, 4, 5, 6], [0.0] * 8, "strictly increasing"),
        (list(range(8)), [0, 1, float("nan"), 0, 1, 0, 1, 0], "finite"),
        (list(range(8)), [0, 1, "peak", 0, 1, 0, 1, 0], "must be numbers"),
        (list(range(8)), [0.0] * 7, "bad.json: detuning and amplitude must be equal-length 1-D"),
        (list(range(241)), [1e308] * 120 + [-1e308] * 121,
         "bad.json: amplitude range must be finite"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_spectrum_invalid_input(self, tmp_path, capsys, x, y, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "detuning_mhz": x, "amplitude": y, "class": {"J2": 1, "p": 0},
        }))
        rc = main(["invert", "--input", str(bad)])
        assert rc == 3
        assert message in capsys.readouterr().err

    def test_non_integral_class_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        write_spectrum(bad, TransitionClass.of(1.5, 1), 0.7)
        doc = json.loads(bad.read_text())
        doc["class"] = {"J2": 3.7, "p": 1}
        bad.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        rc = main(["invert", "--input", str(bad), "-o", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "class" in err and "J2 must be an integer" in err
        assert not out.exists()

    def test_list_config_invalid_input(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(1.5, 1), 0.7, config=["standard"])
        assert main(["invert", "--input", str(spec)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown optics configuration ['standard'] (choices: standard, "
            "rotated_circular)\n")

    def test_five_half_pruning(self, tmp_path, capsys):
        phi = 0.8  # standard optics: no central peak expected below pi/2
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(1.5, 1), phi)
        # idealized line spectrum carries a physical central line (zero
        # modes), so force the decision with a high threshold
        rc = main([
            "invert", "--input", str(spec), "--central-tol", "2.0",
            "--central-threshold", "2.0",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ambiguity_class"] == "twofold"
        assert report["pruned"] == pytest.approx(
            [phi, 2 * math.pi - phi], abs=5e-3
        )

    def test_not_invertible_class(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(1.5, 0), 1.0)
        rc = main(["invert", "--input", str(spec)])
        assert rc == 3

    def test_not_invertible_class_before_peaks(self, tmp_path, capsys):
        # a flat spectrum would fail peak extraction (exit 4); the class is
        # checked first
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "detuning_mhz": list(np.linspace(-10, 10, 64)),
            "amplitude": [1.0] * 64,
            "class": {"J2": 3, "p": 0},
        }))
        assert main(["invert", "--input", str(flat)]) == 3
        assert "class 3/2^0 is not invertible" in capsys.readouterr().err

    def test_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"amplitude": [1, 2, 3]}))
        rc = main(["invert", "--input", str(bad)])
        assert rc == 3

    @pytest.mark.parametrize("doc", [3, None, [1, 2], "x"],
                             ids=["number", "null", "list", "string"])
    def test_non_object_spectrum(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["invert", "--input", str(bad)]) == 3
        assert "%s: spectrum must be a JSON object" % bad in capsys.readouterr().err

    def test_flat_spectrum_numerical_failure(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "detuning_mhz": list(np.linspace(-10, 10, 64)),
            "amplitude": [1.0] * 64,
            "class": {"J2": 1, "p": 0},
        }))
        rc = main(["invert", "--input", str(flat)])
        assert rc == 4

    def test_combined_two_configs(self, tmp_path, capsys):
        phi = 0.8
        first = tmp_path / "std.json"
        second = tmp_path / "rot.json"
        cls = TransitionClass.of(1.5, 1)
        write_spectrum(first, cls, phi, config="standard")
        write_spectrum(second, cls, phi, config="rotated_circular")
        # idealized spectra: central line present in both; with threshold
        # above 1 the standard run reads "absent", with 0 the rotated run
        # reads "present", reproducing the two physical prominence states
        rc = main([
            "invert", "--input", str(first), "--central-tol", "2.0",
            "--central-threshold", "2.0",
            "--second-input", str(second), "--second-config", "rotated_circular",
            "--angle-tol", "0.02",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "combined" in report

    def test_mismatched_classes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_spectrum(a, TransitionClass.of(0.5, 0), 0.5)
        write_spectrum(b, TransitionClass.of(1.5, 1), 0.5)
        rc = main(["invert", "--input", str(a), "--second-input", str(b)])
        assert rc == 3


class TestConfigNames:
    """Every inversion config name goes through one check: exit 3 listing
    the valid names, before any inversion runs."""

    @pytest.mark.parametrize("case", [
        "roundtrip_bogus", "roundtrip_tilted", "invert_five", "invert_half", "file_config",
    ])
    def test_unknown_config_invalid_input(self, tmp_path, capsys, case):
        five, half = TransitionClass.of(1.5, 1), TransitionClass.of(0.5, 0)
        spec = tmp_path / "spec.json"
        if case.startswith("roundtrip"):
            name = "bogus" if case == "roundtrip_bogus" else "tilted_linear"
            argv = ["roundtrip", "--J2", "3", "--p", "1", "--phi-steps", "3",
                    "--configs", "standard," + name]
        elif case == "file_config":
            name = "bogus"
            write_spectrum(spec, five, 0.7, config=name)
            argv = ["invert", "--input", str(spec), "--central-tol", "1.0"]
        else:
            name = "bogus"
            write_spectrum(spec, five if case == "invert_five" else half, 0.7)
            argv = ["invert", "--input", str(spec), "--central-tol", "1.0",
                    "--config", name]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown optics configuration %r (choices: standard, "
            "rotated_circular)\n" % name
        )


class TestWignerCommand:
    def test_3j(self, capsys):
        rc = main(["wigner", "--symbol", "3j", "1", "1", "0", "0", "0", "0"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(-1 / math.sqrt(3))

    def test_6j_half_integer_args(self, capsys):
        rc = main(["wigner", "--symbol", "6j", "1", "3/2", "1/2", "1/2", "0", "1"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            -1 / math.sqrt(6), abs=1e-12
        )

    def test_bad_value(self):
        rc = main(["wigner", "--symbol", "3j", "1", "1", "x", "0", "0", "0"])
        assert rc == 3

    @pytest.mark.parametrize("value", ["inf", "Infinity", "1e400"])
    def test_overflowing_value_invalid_input(self, capsys, value):
        rc = main(["wigner", "--symbol", "3j", value, "1", "1", "0", "0", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %r is not an integer or half-integer\n" % value


class TestRoundtripCommand:
    def test_half_zero_sweep(self, tmp_path):
        out = tmp_path / "rt.json"
        rc = main([
            "roundtrip", "--J2", "1", "--p", "0",
            "--phi-start", "0.1", "--phi-stop", "1.4", "--phi-steps", "7",
            "-o", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["failures"] == 0
        assert report["points"] == 7

    def test_two_config_unique(self, capsys):
        rc = main([
            "roundtrip", "--J2", "3", "--p", "1",
            "--phi-start", "0.3", "--phi-stop", "1.2", "--phi-steps", "4",
            "--configs", "standard,rotated_circular",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(len(r["combined"]) == 1 for r in report["rows"])

    def test_not_invertible(self):
        rc = main(["roundtrip", "--J2", "3", "--p", "0", "--phi-steps", "3"])
        assert rc == 3

    @pytest.mark.parametrize("configs", [",", " , ", ""])
    def test_empty_configs_invalid_input(self, tmp_path, capsys, configs):
        out = tmp_path / "rt.json"
        rc = main(["roundtrip", "--J2", "3", "--p", "1", "--phi-steps", "3",
                   "--configs", configs, "-o", str(out)])
        assert rc == 3
        assert "--configs must name at least one" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_not_invertible_message_shared_with_invert(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(1.5, 0), 1.0)
        assert main(["invert", "--input", str(spec)]) == 3
        from_invert = capsys.readouterr().err
        assert main(["roundtrip", "--J2", "3", "--p", "0", "--phi-steps", "3"]) == 3
        assert capsys.readouterr().err == from_invert == (
            "error: class 3/2^0 is not invertible; supported classes are 1/2^0 "
            "and 3/2^+-\n")


class TestNumericFlags:
    """Every float flag must be finite, and the tolerances and
    --min-prominence non-negative: exit 3 naming the flag, nothing written."""

    @pytest.mark.parametrize("command,flag,value", [
        ("invert", "--min-prominence", "nan"),
        ("invert", "--min-prominence", "-1"),
        ("invert", "--merge-tol", "nan"),
        ("invert", "--merge-tol", "inf"),
        ("invert", "--merge-tol", "-0.5"),
        ("invert", "--central-tol", "nan"),
        ("invert", "--central-tol", "-1"),
        ("invert", "--ratio-tol", "nan"),
        ("invert", "--ratio-tol", "-1e-6"),
        ("invert", "--central-threshold", "nan"),
        ("invert", "--central-threshold", "-inf"),
        ("invert", "--angle-tol", "nan"),
        ("invert", "--angle-tol", "-1"),
        ("roundtrip", "--angle-tol", "nan"),
        ("roundtrip", "--angle-tol", "inf"),
        ("roundtrip", "--angle-tol", "-1"),
    ])
    def test_bad_value_invalid_input(self, tmp_path, capsys, command, flag, value):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(1.5, 1), 0.7)
        out = tmp_path / "out.json"
        if command == "invert":
            argv = ["invert", "--input", str(spec), "--second-input", str(spec),
                    "--central-tol", "1.0"]
        else:
            argv = ["roundtrip", "--J2", "3", "--p", "1", "--phi-steps", "3"]
        rc = main(argv + ["%s=%s" % (flag, value), "-o", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "must be finite" if not math.isfinite(float(value)) else "must be non-negative"
        assert captured.err == "error: %s %s\n" % (flag, message)
        assert sorted(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("flag,value", [
        ("--min-prominence", "0"), ("--merge-tol", "0"), ("--ratio-tol", "0"),
        ("--central-threshold", "-0.5"),
    ])
    def test_boundary_value_accepted(self, tmp_path, capsys, flag, value):
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(0.5, 0), 0.6)
        assert main(["invert", "--input", str(spec), flag, value]) == 0
        assert capsys.readouterr().err == ""


class TestParserReuse:
    """main builds its parser once per process and looks the command
    function up when it is called."""

    ARGVS = {
        "spectrogram": ["spectrogram", "--J2", "3", "--p", "1", "--phi-steps", "5",
                        "--envelopes", "approx", "-o", "x.csv"],
        "envelopes": ["envelopes", "--kind", "approx", "--degrees", "-o", "x.csv"],
        "eit": ["eit", "--scenario", "s.json", "--third-level", "100", "-o", "x.csv"],
        "invert": ["invert", "--input", "a.json", "--second-input", "b.json",
                   "--merge-tol", "0.5", "--degrees"],
        "wigner": ["wigner", "--symbol", "6j", "1", "3/2", "1/2", "1/2", "0", "1"],
        "roundtrip": ["roundtrip", "--J2", "1", "--p", "0", "--configs",
                      "standard,rotated_circular"],
    }

    def test_reused_parser_parses_like_a_fresh_one(self, tmp_path, capsys):
        assert main([]) == 2
        assert main(["invert", "--bogus"]) == 2
        assert main(["spectrogram", "--J2", "1", "--p", "7", "-o", "x.csv"]) == 2
        assert main(["wigner", "--symbol", "3j", "x", "1", "1", "0", "0", "0"]) == 3
        assert main(["roundtrip", "--J2", "1", "--p", "0", "--angle-tol", "nan"]) == 3
        assert main(["invert", "--input", str(tmp_path / "missing.json")]) == 3
        assert main(["wigner", "--symbol", "3j", "1", "1", "0", "0", "0", "0"]) == 0
        assert main(["--version"]) == 0
        capsys.readouterr()
        assert cli.build_parser() is cli.build_parser()
        for argv in self.ARGVS.values():
            reused = cli.build_parser().parse_args(argv)
            fresh = cli.build_parser.__wrapped__().parse_args(argv)
            assert vars(reused) == vars(fresh)
        assert sorted(self.ARGVS) == sorted(
            name[len("cmd_"):] for name in vars(cli) if name.startswith("cmd_"))

    def test_monkeypatched_command_is_called(self, monkeypatch, capsys):
        main(["wigner", "--symbol", "3j", "1", "1", "0", "0", "0", "0"])
        seen = []
        monkeypatch.setattr(cli, "cmd_invert", lambda args: seen.append(args) or 0)
        assert main(self.ARGVS["invert"]) == 0
        assert [a.merge_tol for a in seen] == [0.5]
        assert capsys.readouterr().err == ""

    def test_no_parser_built_after_first_call(self, tmp_path, monkeypatch, capsys):
        main(["wigner", "--symbol", "3j", "1", "1", "0", "0", "0", "0"])
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        spec = tmp_path / "spec.json"
        write_spectrum(spec, TransitionClass.of(0.5, 0), 0.6)
        assert main(["invert", "--input", str(spec)]) == 0
        assert main(["roundtrip", "--J2", "1", "--p", "0", "--phi-steps", "3"]) == 0
        assert main(["invert", "--bogus"]) == 2
        assert main(["wigner", "--symbol", "3j", "x", "1", "1", "0", "0", "0"]) == 3
        capsys.readouterr()
        assert built == []


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["spectrogram", "--bogus"]) == 2

    def test_version_exits_zero(self):
        assert main(["--version"]) == 0


def _fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rydpol.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


@pytest.mark.parametrize("command", ["spectrogram", "eit"])
def test_csv_cells_are_json_values(tmp_path, command):
    # both formats are written from one result: each CSV cell is "%.9g" of
    # the matching JSON value, and the envelope side file holds the JSON
    # envelope rows as its columns 2-5
    if command == "eit":
        argv = ["eit", "--scenario", str(TestEitCommand().scenario(tmp_path))]
    else:
        argv = ["spectrogram", "--J2", "3", "--p", "1", "--phi-steps", "7",
                "--envelopes", "exact"]
    table, document = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(argv + ["-o", str(table)]) == 0
    assert main(argv + ["--format", "json", "-o", str(document)]) == 0
    doc = json.loads(document.read_text())
    if command == "eit":
        rows = [(phi, dc, v) for phi, row in zip(doc["phi"], doc["response"])
                for dc, v in zip(doc["delta_c_mhz"], row)]
    else:
        rows = [(phi, k, v) for phi, row in zip(doc["phi"], doc["eigenvalues"])
                for k, v in enumerate(row)]
        side = [line.split(",") for line in
                (tmp_path / "out_envelopes.csv").read_text().splitlines()[1:]]
        assert [r[:5] for r in side] == [["%.9g" % v for v in [phi] + row] for phi, row
                                         in zip(doc["phi"], doc["envelopes"]["rows"])]
    cells = [line.split(",") for line in table.read_text().splitlines()[1:]]
    assert cells == [["%.9g" % v for v in row] for row in rows]


def test_only_cli_writes_output():
    # output formats have one home: open() and json.dump(s) are called in
    # cli alone, and in eitsim.write_spectrogram_csv, the EIT table writer
    # that the benchmark traces by name
    calls = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls += [(path.stem, getattr(top, "name", None), ast.unparse(node.func))
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and ast.unparse(node.func) in ("open", "json.dump", "json.dumps")]
    assert {(module, scope) for module, scope, _ in calls if module != "cli"} == {
        ("eitsim", "write_spectrogram_csv")}
    assert [scope for module, scope, func in calls
            if module == "cli" and func.startswith("json.")] == ["_write_json"]


def test_cli_import_leaves_out_slow_scipy_modules():
    # scipy.signal (which pulls in scipy.stats), scipy.optimize and
    # scipy.linalg cost about 0.9 s per CLI call together; a fresh
    # interpreter must not load them on import
    for module in ("rydpol", "rydpol.cli"):
        code = ("import %s, sys; print(' '.join(m for m in ('scipy.signal', "
                "'scipy.optimize', 'scipy.stats', 'scipy.linalg') if m in sys.modules))"
                % module)
        assert _fresh_interpreter(code) == [], module


def test_package_import_defines_only_version():
    # each name has one home, its module: `import rydpol` loads none of them
    code = ("import rydpol, sys; print('numpy' in sys.modules, '__version__' in vars(rydpol), "
            "*sorted(n for n in vars(rydpol) if not n.startswith('_')))")
    assert _fresh_interpreter(code) == ["False", "True"]


def test_eit_command_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a whole `rydpol eit` run, its
    # spectra and its output included, imports no scipy module at all
    code = (
        "import sys\n"
        "from rydpol.cli import main\n"
        "rc = main(['eit', '--scenario', %r, '-o', %r])\n"
        "print(rc, *(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        % (str(TestEitCommand().scenario(tmp_path)), str(tmp_path / "eit.csv"))
    )
    assert _fresh_interpreter(code) == ["0"]


def test_module_exit_status_reaches_shell(tmp_path):
    # `python -m rydpol.cli` hands main's exit code to the shell
    src = os.path.dirname(os.path.dirname(os.path.abspath(rydpol.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    overflow = TestEitCommand().scenario(tmp_path, params={"omega_coupling": 1e160})
    (tmp_path / "ok").mkdir()
    scenario = TestEitCommand().scenario(tmp_path / "ok")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"class": "\xe9"}')
    nowhere = str(tmp_path / "missing" / "x.csv")
    class_flags = ["--J2", "1", "--p", "0", "--phi-steps", "3"]
    cases = [
        (["--version"], 0, None),
        (["spectrogram", "--bogus"], 2, None),
        (["invert", "--input", str(tmp_path / "missing.json")], 3, "missing.json"),
        (["eit", "--scenario", str(overflow), "-o", str(tmp_path / "x.csv")], 4, None),
        # file-system errors are invalid input naming the path, not tracebacks
        (["invert", "--input", str(tmp_path)], 3, str(tmp_path)),
        (["eit", "--scenario", str(tmp_path), "-o", str(tmp_path / "y.csv")], 3, str(tmp_path)),
        (["invert", "--input", str(not_utf8)], 3, str(not_utf8)),
        (["spectrogram", *class_flags, "-o", nowhere], 3, nowhere),
        (["envelopes", "--phi-steps", "3", "-o", nowhere], 3, nowhere),
        (["eit", "--scenario", str(scenario), "-o", nowhere], 3, nowhere),
        (["roundtrip", *class_flags, "-o", nowhere], 3, nowhere),
    ]
    for argv, code, named in cases:
        done = subprocess.run([sys.executable, "-m", "rydpol.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, (argv, done.stderr)
        assert named is None or named in done.stderr, (argv, done.stderr)
