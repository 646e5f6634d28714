import argparse
import ast
import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydpol
from rydpol import cli
from rydpol.cli import main
from rydpol.angular import HalfInt
from rydpol.dressing import TransitionClass, eigen_spectrum
from rydpol.sop import rotated_circular_optics

HALF_ZERO = TransitionClass.of(0.5, 0)
FIVE_HALF = TransitionClass.of(1.5, 1)


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


class TestIntegral:
    @pytest.mark.parametrize("value,expect", [(3, 3), (3.0, 3), ("-2", -2)])
    def test_integral_values(self, value, expect):
        assert cli._integer(value, "n") == expect

    @pytest.mark.parametrize("value", [1.5, 3.7, "1.5", "x", None, [1], math.nan, math.inf,
                                       True, False])
    def test_rejects_non_integral(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            cli._integer(value, "n")


def read_scenario(tmp_path, cfg, *flags):
    """cli._scenario of cfg written as a scenario file, with eit flags."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return cli._scenario(cli.build_parser().parse_args(
        ["eit", "--scenario", str(path), "-o", "x.csv", *flags]))


class TestScenarioParsing:
    def test_minimal(self, tmp_path):
        scheme, params, grid = read_scenario(tmp_path, {"class": {"J2": 1, "p": 0}})
        assert scheme.cls == HALF_ZERO
        assert params.omega_rf == 40.0
        assert len(grid) == 32

    def test_full(self, tmp_path):
        cfg = {
            "class": {"J2": 3, "p": 1},
            "third_level": {"J2": 5, "delta3_mhz": 150.0},
            "optics": "rotated_circular",
            "params": {
                "omega_rf": 20.0,
                "coupling_detuning_grid": {"start": -30, "stop": 30, "steps": 61},
            },
            "phi": [0.5, 1.5],
        }
        scheme, params, grid = read_scenario(tmp_path, cfg)
        assert scheme.third.delta3_mhz == 150.0
        assert params.omega_rf == 20.0
        assert params.optics == rotated_circular_optics()
        assert len(params.coupling_detuning_grid) == 61
        assert list(grid) == [0.5, 1.5]

    def test_errors_reported_together(self, tmp_path):
        cfg = {
            "class": {"J2": 0, "p": 0},
            "third_level": {"J2": 5, "delta3_mhz": -4},
            "optics": "bogus",
            "params": {"omega_rf": "fast"},
            "phi": {"start": 0},
        }
        with pytest.raises(cli.CliError) as err:
            read_scenario(tmp_path, cfg)
        msg = str(err.value)
        for part in ("class:", "third_level:", "optics:", "params:", "phi:"):
            assert part in msg

    def test_explicit_target(self, tmp_path):
        scheme, _, _ = read_scenario(
            tmp_path, {"class": {"J2": 3, "p": 1}, "coupling_target": "r1"}
        )
        assert scheme.coupling_target == "r1"

    @pytest.mark.parametrize("extra,target,j_i2,j3_2", [
        ({"class": {"J2": 3, "p": 0}, "j_intermediate2": 1}, "r2", 1, None),
        ({"third_level": {"delta3_mhz": 100.0}}, "r2", 3, 5),
        ({"coupling_target": "r1", "third_level": {"delta3_mhz": 100.0}}, "r1", 3, 5),
    ], ids=["j_intermediate", "third_default_j3", "target_and_third"])
    def test_overrides_only_given_fields(self, tmp_path, extra, target, j_i2, j3_2):
        scheme, _, _ = read_scenario(tmp_path, dict({"class": {"J2": 3, "p": 1}}, **extra))
        assert scheme.coupling_target == target
        assert scheme.j_intermediate == HalfInt(j_i2)
        assert (scheme.third and scheme.third.j3.twice) == j3_2

    @pytest.mark.parametrize("cfg,field", [
        ({"class": {"J2": 1.5, "p": 0}}, "class: J2 must be an integer"),
        ({"class": {"J2": 1, "p": 0.5}}, "class: p must be an integer"),
        ({"class": {"J2": 1, "p": 0}, "j_intermediate2": 1.5},
         "j_intermediate2 must be an integer"),
        ({"class": {"J2": 3, "p": 1}, "third_level": {"J2": 4.5, "delta3_mhz": 100}},
         "third_level: J2 must be an integer"),
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": 0, "stop": 1, "steps": 2.5}},
         "phi: steps must be an integer"),
        ({"class": {"J2": 1, "p": 0}, "phi": [0.5, "inf"]}, "phi: grid must be"),
        ({"class": {"J2": 1, "p": 0},
          "params": {"coupling_detuning_grid": {"start": 0, "stop": 1, "steps": 0}}},
         "params: grid must be"),
        # a JSON true/false is not a number
        ({"class": {"J2": True, "p": 0}}, "class: J2 must be an integer, got True"),
        ({"class": {"J2": 1, "p": False}}, "class: p must be an integer, got False"),
        ({"class": {"J2": 1, "p": 0}, "j_intermediate2": True},
         "j_intermediate2 must be an integer, got True"),
        ({"class": {"J2": 3, "p": 1}, "third_level": {"J2": True, "delta3_mhz": 100}},
         "third_level: J2 must be an integer, got True"),
        ({"class": {"J2": 3, "p": 1}, "third_level": {"delta3_mhz": True}},
         "third_level: delta3_mhz must be a number, got True"),
        ({"class": {"J2": 1, "p": 0}, "params": {"omega_rf": True}},
         "params: omega_rf must be a number, got True"),
        ({"class": {"J2": 1, "p": 0}, "phi": [True, 2]},
         "phi: grid entry must be a number, got True"),
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": False, "stop": 1, "steps": 2}},
         "phi: start must be a number, got False"),
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": 0, "stop": 1, "steps": True}},
         "phi: steps must be an integer, got True"),
        ({"class": {"J2": 1, "p": 0}, "params": {"coupling_detuning_grid": [0, False]}},
         "params: grid entry must be a number, got False"),
        # a grid is flat, and its fields name themselves
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": [1], "stop": 1, "steps": 2}},
         r"phi: start must be a number, got \[1\]"),
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": 0, "stop": [[1]], "steps": 2}},
         r"phi: stop must be a number, got \[\[1\]\]"),
        ({"class": {"J2": 1, "p": 0}, "phi": [[1], 2]},
         r"phi: grid entry must be a number, got \[1\]"),
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": "nan", "stop": 1, "steps": 2}},
         "phi: grid must be a non-empty list of finite values"),
        ({"class": [1, 0]}, r'class: must be an object \{"J2": 2J, "p": p\}, got \[1, 0\]'),
        ({"class": {"J2": 1, "p": 0}, "optics": 5},
         "optics: must be a preset name or an object of 3-vectors, got 5"),
        ({"class": {"J2": 1, "p": 0}, "params": {"omega_rf": 10 ** 400}},
         "params: omega_rf must be a number, got 1000"),
        # the work is bounded before anything is allocated
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": 0, "stop": 1, "steps": 1e15}},
         "phi: grid must have at most 10000 points, got 1000000000000000"),
        ({"class": {"J2": 1, "p": 0},
          "params": {"coupling_detuning_grid": {"start": 0, "stop": 1, "steps": 10001}}},
         "params: grid must have at most 10000 points, got 10001"),
        ({"class": {"J2": 101, "p": 0}}, "class: J2 must be at most 100, got 101"),
        ({"class": {"J2": 1e15, "p": 1}}, "class: J2 must be at most 100, got 1000000000000000.0"),
        # an echoed value is cut short
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": 0, "stop": 1, "steps": 10 ** 400}},
         r"phi: steps must be an integer, got 1000000000\d+\.\.\.$"),
        ({"class": {"J2": 1, "p": 0}, "phi": {"start": list(range(200)), "stop": 1, "steps": 2}},
         r"phi: start must be a number, got \[0, 1, 2, \d+(, \d+)*,?\.\.\.$"),
    ], ids=["J2", "p", "j_intermediate2", "third_J2", "phi_steps", "phi_inf", "detuning_empty",
            "J2_true", "p_false", "j_intermediate2_true", "third_J2_true",
            "third_delta3_true", "omega_rf_true", "phi_entry_true", "phi_start_false",
            "phi_steps_true", "detuning_entry_false", "phi_start_list", "phi_stop_nested",
            "phi_entry_list", "phi_start_nan", "class_list", "optics_number",
            "omega_rf_overflow", "phi_steps_1e15", "detuning_steps_over_cap",
            "J2_over_cap", "J2_1e15", "phi_steps_401_digits", "phi_start_long_list"])
    def test_non_integral_or_bad_grid_rejected(self, tmp_path, cfg, field):
        with pytest.raises(cli.CliError, match=field) as info:
            read_scenario(tmp_path, cfg)
        assert len(str(info.value)) <= 100 + cli.MAX_ECHO

    def test_integral_floats_accepted(self, tmp_path):
        scheme, _, grid = read_scenario(tmp_path, {
            "class": {"J2": 3.0, "p": 1.0}, "j_intermediate2": 3.0,
            "phi": {"start": 0, "stop": 1, "steps": 4.0},
        })
        assert scheme.cls == FIVE_HALF and len(grid) == 4

    @pytest.mark.parametrize("third", [
        {"J2": 5, "delta3_mhz": "inf"},
        {"delta3_mhz": "nan"},
    ], ids=["explicit_j3_inf", "default_j3_nan"])
    def test_non_finite_delta3_rejected(self, tmp_path, third):
        with pytest.raises(cli.CliError, match="delta3 must be finite and positive"):
            read_scenario(tmp_path, {"class": {"J2": 3, "p": 1}, "third_level": third})


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

    def test_invalid_class(self, tmp_path, capsys):
        # J2 above the cap exits before any angular matrix is built
        for twice_j, message in (("0", "J must be at least 1/2"),
                                 ("101", "J2 must be at most 100, got 101"),
                                 ("9" * 300, "J2 must be at most 100, got 999")):
            rc = main([
                "spectrogram", "--J2", twice_j, "--p", "0",
                "-o", str(tmp_path / "x.csv"),
            ])
            assert rc == 3
            err = capsys.readouterr().err
            assert message in err and len(err) <= 100 + cli.MAX_ECHO
            assert list(tmp_path.iterdir()) == []

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
        ("grid must have at most 10000 points", ["--phi-steps", "1000000000000000"]),
    ], ids=["start_nan", "stop_inf", "start_-inf_degrees", "span_overflow", "steps_over_cap"])
    def test_non_finite_phi_bound_invalid_input(self, tmp_path, capsys, command, message,
                                                bound):
        out = tmp_path / "x.csv"
        rc = main(command + ["--phi-steps", "3"] + bound + ["-o", str(out)])
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

    def test_strong_probe_warning_line(self, tmp_path, capsys, recwarn):
        path = self.scenario(tmp_path, params={
            "omega_probe": 7,
            "coupling_detuning_grid": {"start": -50, "stop": 50, "steps": 21},
        })
        for _ in range(2):  # on every run of the re-entrant main
            rc = main(["eit", "--scenario", str(path), "-o", str(tmp_path / "eit.csv")])
            assert rc == 0
            assert capsys.readouterr().err == (
                "warning: omega_probe exceeds gamma_i; weak-probe response is nonlinear\n")
        # the line is the only report: no raw warning escapes main, which
        # a SimParams built again past the CLI (say, with
        # dataclasses.replace) would raise
        assert [str(w.message) for w in recwarn] == []

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
        {"omega_rf": True},
        {"coupling_detuning_grid": [[0], 1]},
        {"coupling_detuning_grid": {"start": 0, "stop": 1, "steps": 1e15}},
    ])
    def test_bad_params_invalid_input(self, tmp_path, capsys, params):
        out = tmp_path / "x.csv"
        rc = main(["eit", "--scenario", str(self.scenario(tmp_path, params=params)),
                   "-o", str(out)])
        assert rc == 3
        assert "params:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("phi", [
        ["nan"], [], {"start": 0, "stop": 1, "steps": 0}, "12", [True, 2], [[1], 2],
        {"start": [1], "stop": 1, "steps": 2}, {"start": 0, "stop": 1, "steps": 1e15},
    ], ids=["nan", "empty", "zero_steps", "string", "bool", "nested", "start_list",
            "steps_1e15"])
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
        (list(range(8)), [0, 1, True, 0, 1, 0, 1, 0],
         "bad.json: detuning and amplitude must be numbers: amplitude holds true or false"),
        ([False] + list(range(1, 8)), [0, 1, 0, 1, 0, 1, 0, 1],
         "bad.json: detuning and amplitude must be numbers: detuning_mhz holds true or false"),
        (list(range(8)), [10 ** 400] + [0] * 7, "bad.json: detuning and amplitude must be numbers"),
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

    def test_negative_half_integer_values(self, capsys):
        # -1/2 is a value here, read as it is after --
        values = ["3/2", "1", "1/2", "-1/2", "1", "-1/2"]
        assert main(["wigner", "--symbol", "3j"] + values) == 0
        out = capsys.readouterr().out
        assert main(["wigner", "--symbol", "3j", "--"] + values) == 0
        assert capsys.readouterr().out == out
        assert float(out) == pytest.approx(-1 / (2 * math.sqrt(3)), abs=1e-15)
        assert main(["wigner"] + values + ["--symbol", "3j"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("value", ["-1/x", "-1/3", "-.5x"])
    def test_malformed_negative_value_invalid_input(self, capsys, value):
        rc = main(["wigner", "--symbol", "3j", "3/2", "1", "1/2", value, "1", "-1/2"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %r is not an integer or half-integer\n" % value

    @pytest.mark.parametrize("value,message", [
        ("inf", "is not an integer or half-integer"),
        ("Infinity", "is not an integer or half-integer"),
        ("1e400", "is not an integer or half-integer"),
        # the exact sums grow with j: the cap rejects before any summation
        ("100000000", "is out of range: |2j| must be at most 1000"),
        ("1001/2", "is out of range: |2j| must be at most 1000"),
        ("-500.5", "is out of range: |2j| must be at most 1000"),
    ], ids=["inf", "Infinity", "1e400", "j_1e8", "j_1001/2", "j_-500.5"])
    def test_overflowing_value_invalid_input(self, capsys, value, message):
        rc = main(["wigner", "--symbol", "3j", value, "1", value, "0", "0", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %r %s\n" % (value, message)


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


# The exit-code contract as a property: a valid input with one field
# replaced by a wrong type, a boolean, a string, NaN/inf, a nested list, an
# empty value or a size that fails before anything is built.  The (field,
# value) pairs are few enough to run them all.
BAD_VALUES = [
    True, False, None, "", "x", "12", "nan", [], {}, [[1]], [1, [2]], {"J2": 1},
    math.nan, math.inf, -math.inf, -1, 0, 1, 1.5, 1e15, -1e15, 1e308, -1e308, 10 ** 400,
]
# the words in which a library invariant names a file's field
FIELD_WORDS = {"J2": ("2*J",), "j_intermediate2": ("j_intermediate",),
               "detuning_mhz": ("detuning",)}


def mutated(doc, path, value):
    """A copy of doc with the field at path set to value."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def run_mutated(doc, path, command, output):
    """main on command plus doc written to a file; the exit code and, for
    exit 0, the output's text.  A nonzero exit must leave only the input,
    and an exit 3 must name a field on the mutated path."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "input.json"), "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(command + [fh.name, "-o", os.path.join(tmp, output)])
        assert rc in (0, 3, 4), (rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 3:
            words = [w for key in path if isinstance(key, str)
                     for w in (key,) + FIELD_WORDS.get(key, ())]
            assert any(w in err.getvalue() for w in words), (path, err.getvalue())
        if rc != 0:
            assert os.listdir(tmp) == ["input.json"], rc
            return rc, None
        with open(os.path.join(tmp, output)) as fh:
            return rc, fh.read()


def not_finite(constant):
    # json writes a non-finite float as NaN, Infinity or -Infinity
    raise AssertionError("%s in the output" % constant)


EIT_SCENARIO = {
    "class": {"J2": 1, "p": 0}, "coupling_target": "r1", "j_intermediate2": 3,
    "third_level": {"J2": 3, "delta3_mhz": 100.0}, "optics": "standard",
    "params": {"omega_rf": 40.0, "omega_coupling": 4.0, "gamma_r": 0.1,
               "coupling_detuning_grid": {"start": -50, "stop": 50, "steps": 11}},
    "phi": [0.5, 2.0],
}
EIT_PATHS = [("class",), ("class", "J2"), ("class", "p"), ("coupling_target",),
             ("j_intermediate2",), ("third_level",), ("third_level", "J2"),
             ("third_level", "delta3_mhz"), ("optics",), ("params",),
             ("params", "omega_rf"), ("params", "omega_coupling"), ("params", "gamma_r"),
             ("params", "coupling_detuning_grid"),
             ("params", "coupling_detuning_grid", "start"),
             ("params", "coupling_detuning_grid", "steps"), ("phi",), ("phi", 1)]


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(list(itertools.product(EIT_PATHS, BAD_VALUES))))
def test_eit_exit_code_contract(case):
    path, value = case
    rc, text = run_mutated(mutated(EIT_SCENARIO, path, value), path,
                           ["eit", "--scenario"], "out.csv")
    if rc == 0:
        cells = [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
        assert np.all(np.isfinite(cells))


SPECTRUM = {"detuning_mhz": list(np.linspace(-65, 65, 131)),
            "amplitude": list(lorentzian_spectrum(HALF_ZERO, 0.6, n=131)[1]),
            "class": {"J2": 1, "p": 0}, "config": "standard"}
SPECTRUM_PATHS = [("detuning_mhz",), ("detuning_mhz", 0), ("detuning_mhz", 70),
                  ("amplitude",), ("amplitude", 0), ("amplitude", 64), ("class",),
                  ("class", "J2"), ("class", "p"), ("config",)]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(list(itertools.product(SPECTRUM_PATHS, BAD_VALUES))))
def test_invert_exit_code_contract(case):
    path, value = case
    rc, text = run_mutated(mutated(SPECTRUM, path, value), path,
                           ["invert", "--input"], "report.json")
    if rc == 0:
        json.loads(text, parse_constant=not_finite)


# The same contract for the flag-driven commands: one value of a small valid
# argv replaced by a value from a fixed pool.  The pool holds no value between
# the small valid ones and the caps, so no case computes at scale.
FLAG_ARGVS = {
    "spectrogram": ["spectrogram", "--J2", "3", "--p", "1", "--phi-start", "0",
                    "--phi-stop", "6", "--phi-steps", "5"],
    "envelopes": ["envelopes", "--kind", "exact", "--phi-steps", "5"],
    "roundtrip": ["roundtrip", "--J2", "3", "--p", "1", "--phi-steps", "5",
                  "--configs", "standard,rotated_circular", "--angle-tol", "1e-6"],
    "wigner": ["wigner", "--symbol", "3j", "1", "1", "2", "0", "0", "0"],
}
FLAG_VALUES = ["", "nan", "inf", "1e400", "true", "1.5", "3/2", "-1", "0",
               str(cli.MAX_GRID_POINTS + 1), str(cli.MAX_CLASS_J2 + 1),
               "%d/2" % (cli.MAX_TWICE_J + 1), "9" * 300]
# the words in which a reader or a library invariant names a flag; "J" is
# a positional value of `wigner`
FLAG_WORDS = {"--J2": ("J2", "J must be"), "--p": ("class",),
              "--configs": ("optics configuration",), "J": ("half-integer", "|2j|", "parity")}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from([(name, i, value) for name, argv in FLAG_ARGVS.items()
                             for i in range(2, len(argv)) if not argv[i].startswith("--")
                             for value in FLAG_VALUES]))
def test_flag_exit_code_contract(case):
    name, i, value = case
    argv = list(FLAG_ARGVS[name])
    argv[i] = value
    flag = argv[i - 1] if argv[i - 1].startswith("--") else "J"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json" if name == "roundtrip" else "out.csv")
        if name != "wigner":
            argv += ["-o", out]
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 3:
            words = (flag,) + FLAG_WORDS.get(flag, ())
            assert any(w in err.getvalue() for w in words), (argv, err.getvalue())
        if rc == 0:
            if name == "roundtrip":
                with open(out) as fh:
                    json.load(fh, parse_constant=not_finite)
                return
            if name == "wigner":
                lines = stdout.getvalue().splitlines()
            else:
                with open(out) as fh:
                    lines = fh.read().splitlines()[1:]
            cells = [float(cell) for line in lines for cell in line.split(",")
                     if cell not in ("exact", "approx")]
            assert cells and np.all(np.isfinite(cells)), argv
        elif not (name == "roundtrip" and rc == 4):  # roundtrip reports its failures
            assert os.listdir(tmp) == [], (argv, rc)
