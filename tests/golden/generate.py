"""The golden corpus of rydpol command lines, and the one way to run a case.

Each case is one `rydpol` command line run in a fresh directory that holds
only the case's input files.  Its file, cases/<name>.json, holds the argv,
the input files, the exit code, stdout, stderr and every file the run
wrote, each text as a list of lines.  The manifest's absolute input paths
are written with the run directory as "$CASE".  tests/test_golden.py
re-runs every case and compares it with its file.

Regenerate the corpus only with a change that means to change a result,
and say which files changed and why:

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

CASE_DIR = pathlib.Path(__file__).resolve().parent / "cases"
PLACEHOLDER = "$CASE"


def run_case(argv, inputs, directory) -> dict:
    """Run `rydpol argv` in `directory` after writing `inputs` (name ->
    text) there: {"exit", "stdout", "stderr", "outputs"}, where outputs
    maps each file the run wrote to its text.  The directory's path is
    replaced by PLACEHOLDER in every text."""
    from rydpol.cli import main

    directory = pathlib.Path(directory)
    for name, text in inputs.items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(directory)
        here = os.getcwd()  # resolved, as os.path.abspath sees it
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    outputs = {p.name: p.read_text() for p in sorted(directory.iterdir())
               if p.name not in inputs}
    return {"exit": code, "stdout": out.getvalue().replace(here, PLACEHOLDER),
            "stderr": err.getvalue().replace(here, PLACEHOLDER),
            "outputs": {k: v.replace(here, PLACEHOLDER) for k, v in outputs.items()}}


def _spectrum(J2, p, phi, config):
    """A spectrum file of the forward model: 131 points over +-65 MHz."""
    import numpy as np

    from rydpol import eitsim
    from rydpol.dressing import TransitionClass
    from rydpol.sop import OPTICS_PRESETS

    grid = np.linspace(-65.0, 65.0, 131)
    scheme = eitsim.scheme_for_class(TransitionClass.of(J2 / 2, p))
    params = eitsim.SimParams(omega_coupling=2.0, coupling_detuning_grid=tuple(grid),
                              optics=OPTICS_PRESETS[config]())
    response = eitsim.eit_spectrum(scheme, params, phi).response
    return json.dumps({"detuning_mhz": grid.tolist(), "amplitude": response.tolist(),
                       "class": {"J2": J2, "p": p}, "config": config})


def cases() -> dict:
    """name -> (argv, inputs)."""
    out = {}
    spectrogram = {
        "1-2_0": ["--J2", "1", "--p", "0", "--phi-steps", "4", "-o", "out.csv"],
        "1-2_plus_json": ["--J2", "1", "--p", "1", "--phi-steps", "4", "--format", "json",
                          "-o", "out.json"],
        "3-2_plus_envelopes": ["--J2", "3", "--p", "1", "--phi-steps", "4",
                               "--envelopes", "exact", "-o", "out.csv"],
        "3-2_minus_json_degrees": ["--J2", "3", "--p", "-1", "--phi-start", "10",
                                   "--phi-stop", "100", "--phi-steps", "4", "--degrees",
                                   "--envelopes", "approx", "--format", "json",
                                   "-o", "out.json"],
        "5-2_minus": ["--J2", "5", "--p", "-1", "--phi-steps", "3", "-o", "out.csv"],
    }
    for name, argv in spectrogram.items():
        out["spectrogram_" + name] = (["spectrogram"] + argv, {})
    out["envelopes_exact"] = (["envelopes", "--phi-steps", "4", "-o", "out.csv"], {})
    out["envelopes_approx_degrees"] = (
        ["envelopes", "--kind", "approx", "--degrees", "--phi-start", "0",
         "--phi-stop", "90", "--phi-steps", "4", "-o", "out.csv"], {})

    # every optics preset, with and without r3, in CSV (1/2^0, r3 from the
    # flag, optics from the file) and JSON (3/2^+, r3 from the file, optics
    # from the flag)
    params = {"omega_coupling": 2.0,
              "coupling_detuning_grid": {"start": -65, "stop": 65, "steps": 131}}
    phi = {"start": 0.3, "stop": 5.9, "steps": 3}
    for optics in ("standard", "tilted_linear", "rotated_circular"):
        for third in (False, True):
            tag = optics + ("_r3" if third else "")
            scenario = {"class": {"J2": 1, "p": 0}, "params": params, "phi": phi,
                        "optics": optics}
            argv = ["eit", "--scenario", "scenario.json", "-o", "out.csv"]
            out["eit_1-2_0_%s_csv" % tag] = (
                argv + (["--third-level", "100"] if third else []),
                {"scenario.json": json.dumps(scenario)})
            scenario = {"class": {"J2": 3, "p": 1}, "params": params, "phi": phi}
            if third:
                scenario["third_level"] = {"delta3_mhz": 80.0}
            out["eit_3-2_plus_%s_json" % tag] = (
                ["eit", "--scenario", "scenario.json", "--optics", optics,
                 "--format", "json", "-o", "out.json"],
                {"scenario.json": json.dumps(scenario)})
    explicit = {"propagation_probe": [0, 1, 0], "propagation_coupling": [0, -1, 0],
                "pol_probe": [1, 0, 0], "pol_coupling": [[0.6, 0], 0, [0, 0.8]]}
    out["eit_strong_probe_explicit_optics"] = (
        ["eit", "--scenario", "scenario.json", "-o", "out.csv"],
        {"scenario.json": json.dumps({
            "class": {"J2": 1, "p": 1}, "optics": explicit, "phi": [0.0, 2.0],
            "params": {"omega_probe": 7, "coupling_detuning_grid":
                       {"start": -50, "stop": 50, "steps": 41}}})})

    five_half = ["--min-prominence", "0.003", "--merge-tol", "1", "--central-tol", "3"]
    std, rot = _spectrum(3, 1, 0.7, "standard"), _spectrum(3, 1, 0.7, "rotated_circular")
    out["invert_1-2_0_stdout"] = (["invert", "--input", "spectrum.json"],
                                  {"spectrum.json": _spectrum(1, 0, 1.0, "standard")})
    out["invert_3-2_plus_degrees"] = (
        ["invert", "--input", "spectrum.json", "--degrees", "-o", "out.json"] + five_half,
        {"spectrum.json": std})
    out["invert_3-2_plus_second_input"] = (
        ["invert", "--input", "std.json", "--second-input", "rot.json",
         "-o", "out.json"] + five_half,
        {"std.json": std, "rot.json": rot})

    out["roundtrip_3-2_plus"] = (
        ["roundtrip", "--J2", "3", "--p", "1", "--configs", "standard,rotated_circular",
         "--phi-steps", "4", "-o", "out.json"], {})
    out["roundtrip_1-2_0_degrees_stdout"] = (
        ["roundtrip", "--J2", "1", "--p", "0", "--degrees", "--phi-start", "5",
         "--phi-stop", "300", "--phi-steps", "4"], {})
    out["wigner_3j"] = (["wigner", "--symbol", "3j", "--", "3/2", "1", "1/2", "-1/2", "1",
                         "-1/2"], {})
    out["wigner_6j"] = (["wigner", "--symbol", "6j", "1/2", "1", "3/2", "5/2", "2",
                         "3"], {})

    flat = json.dumps({"detuning_mhz": [float(x) for x in range(64)], "amplitude": [0.0] * 64,
                       "class": {"J2": 1, "p": 0}})
    out["exit4_flat_spectrum"] = (["invert", "--input", "spectrum.json"],
                                  {"spectrum.json": flat})
    # invalid input: exit 3 with one line on stderr and no output file
    half0 = json.dumps({"class": {"J2": 1, "p": 0}, "phi": [0.0, 1.0]})
    out["exit3_unknown_optics"] = (
        ["eit", "--scenario", "scenario.json", "--optics", "bogus", "-o", "out.csv"],
        {"scenario.json": half0})
    out["exit3_nan_phi"] = (["eit", "--scenario", "scenario.json", "-o", "out.csv"],
                            {"scenario.json": json.dumps({"class": {"J2": 1, "p": 0},
                                                          "phi": ["nan"]})})
    out["exit3_missing_scenario"] = (["eit", "--scenario", "missing.json", "-o", "out.csv"],
                                     {})
    out["exit3_class_too_large"] = (["spectrogram", "--J2", "201", "--p", "1",
                                     "-o", "out.csv"], {})
    out["exit3_not_invertible"] = (["invert", "--input", "spectrum.json"],
                                   {"spectrum.json": flat.replace('"J2": 1, "p": 0',
                                                                  '"J2": 3, "p": 0')})
    out["exit3_spectrum_missing_keys"] = (["invert", "--input", "spectrum.json"],
                                          {"spectrum.json": json.dumps({"amplitude": []})})
    out["exit3_one_phi_step"] = (["envelopes", "--phi-steps", "1", "-o", "out.csv"], {})
    out["exit3_wigner_not_halfint"] = (["wigner", "--symbol", "3j", "1", "x", "1", "0", "0",
                                        "0"], {})
    out["exit3_unknown_config"] = (["roundtrip", "--J2", "1", "--p", "0", "--configs",
                                    "bogus", "--phi-steps", "3"], {})
    out["exit3_nan_phi_start"] = (["spectrogram", "--J2", "1", "--p", "0", "--phi-start",
                                   "nan", "--phi-steps", "3", "-o", "out.csv"], {})
    return out


def lines(text: str) -> list:
    return text.split("\n")


def main() -> int:
    CASE_DIR.mkdir(exist_ok=True)
    for old in CASE_DIR.glob("*.json"):
        old.unlink()
    for name, (argv, inputs) in cases().items():
        with tempfile.TemporaryDirectory() as directory:
            result = run_case(argv, inputs, directory)
        doc = {"argv": argv, "inputs": {k: lines(v) for k, v in inputs.items()},
               "exit": result["exit"], "stdout": lines(result["stdout"]),
               "stderr": lines(result["stderr"]),
               "outputs": {k: lines(v) for k, v in result["outputs"].items()}}
        (CASE_DIR / (name + ".json")).write_text(json.dumps(doc, indent=1) + "\n")
        print("%-45s exit %d" % (name, result["exit"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
