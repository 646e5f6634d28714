"""Command-line front end.

Subcommands
-----------
spectrogram   eigenvalue spectrogram of a transition class over a phi grid
envelopes     exact or approximate outer/inner envelope table
eit           simulated EIT spectrogram from a scenario config
invert        recover candidate phase angles from a spectrum file
wigner        evaluate a single 3-j or 6-j symbol
roundtrip     eigenvalue-level forward-and-back consistency sweep

Every run that writes files also writes a manifest JSON next to the first
output recording every parsed argument (input paths made absolute), so a
run can be reproduced exactly.  Angles are radians unless --degrees is
given.  Exit codes: 0 success, 2 usage, 3 invalid input, 4 numerical
failure.  Float flags must be finite, tolerances and --min-prominence >= 0.
`main` is re-entrant: it reuses the one parser `build_parser` caches, and
runs `cmd_<command>` as bound when it is called.

`eit --optics` takes a key of sop.OPTICS_PRESETS; `invert --config` and
`--second-config`, a spectrum file's "config" and `roundtrip --configs`
take a key of inversion.PROMINENCE_INTERVALS.  An unknown name exits 3
and lists the valid ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .angular import HalfInt, wigner3j, wigner6j
from . import dressing
from .dressing import (
    TransitionClass,
    class_from_spec,
    envelopes_approx,
    envelopes_exact,
    spectrogram,
    write_envelopes_csv,
)
from . import eitsim
from .inversion import (
    PROMINENCE_INTERVALS,
    InversionError,
    NotInvertible,
    combine_candidates,
    config_free,
    extract_peaks,
    invert_peaks,
    prominence_interval,
    round_trip,
)
from .sop import OPTICS_PRESETS, sop_from_phi

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _parse_halfint(text: str) -> HalfInt:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError
            return HalfInt(int(num))
        return HalfInt.of(float(text))
    except (ValueError, TypeError, OverflowError):
        raise CliError("%r is not an integer or half-integer" % text)


def _transition_class(args) -> TransitionClass:
    try:
        return TransitionClass(HalfInt(args.J2), args.p)
    except ValueError as exc:
        raise CliError(str(exc))


def _phi_grid(args) -> np.ndarray:
    if args.phi_steps < 2:
        raise CliError("--phi-steps must be at least 2")
    start, stop = args.phi_start, args.phi_stop
    if args.degrees:
        start, stop = math.radians(start), math.radians(stop)
    if not math.isfinite(stop - start):
        raise CliError("--phi-start to --phi-stop must be a finite span")
    return np.linspace(start, stop, args.phi_steps)


def _check_numbers(args) -> None:
    """Every float flag finite; tolerances and --min-prominence >= 0.
    --third-level is checked with the scenario it overrides."""
    for key, value in vars(args).items():
        if not isinstance(value, float) or key == "third_level":
            continue
        flag = "--" + key.replace("_", "-")
        if not math.isfinite(value):
            raise CliError("%s must be finite" % flag)
        if value < 0 and (key.endswith("_tol") or key == "min_prominence"):
            raise CliError("%s must be non-negative" % flag)


_INPUT_PATHS = ("scenario", "input", "second_input")


def _write_manifest(args) -> None:
    manifest = {"tool": "rydpol", "version": __version__}
    for key, value in vars(args).items():
        if key in _INPUT_PATHS and value is not None:
            value = os.path.abspath(value)
        manifest[key] = value
    base, _ = os.path.splitext(args.output)
    with open(base + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(doc, path) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inversion_config(name) -> str:
    try:
        prominence_interval(name)
    except ValueError as exc:
        raise CliError(str(exc))
    return name


def _emit_angle(value: float, degrees: bool) -> float:
    return math.degrees(value) if degrees else value


def cmd_spectrogram(args) -> int:
    cls = _transition_class(args)
    if args.envelopes and (cls.J.twice, abs(cls.p)) != (3, 1):
        raise CliError("--envelopes are the 3/2^+- envelopes; class %s has none"
                       % cls.label())
    phi_grid = _phi_grid(args)
    spectra = [replace(s, phi=_emit_angle(s.phi, args.degrees))
               for s in spectrogram(cls, phi_grid)]
    if args.format == "json":
        doc = dressing.spectrogram_json_dict(spectra)
        doc["class"] = {"J2": cls.J.twice, "p": cls.p}
        if args.envelopes:
            fn = envelopes_exact if args.envelopes == "exact" else envelopes_approx
            doc["envelopes"] = {
                "kind": args.envelopes,
                "rows": [list(asdict(fn(float(p))).values()) for p in phi_grid],
            }
        _write_json(doc, args.output)
    else:
        dressing.write_spectrogram_csv(args.output, spectra)
        if args.envelopes:
            base, ext = os.path.splitext(args.output)
            write_envelopes_csv(
                base + "_envelopes" + (ext or ".csv"),
                phi_grid,
                exact=(args.envelopes == "exact"),
                degrees=args.degrees,
            )
    return EXIT_OK


def cmd_envelopes(args) -> int:
    phi_grid = _phi_grid(args)
    write_envelopes_csv(args.output, phi_grid, exact=(args.kind == "exact"),
                        degrees=args.degrees)
    return EXIT_OK


def _read_json(path, kind):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # not found, a directory, unreadable
        raise CliError("cannot read %s file %s: %s" % (kind, path, exc.strerror))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError("invalid JSON in %s: %s" % (path, exc))


def cmd_eit(args) -> int:
    cfg = _read_json(args.scenario, "scenario")
    if not isinstance(cfg, dict) or not isinstance(cfg.get("third_level") or {}, dict):
        raise CliError("%s: scenario and its third_level must be JSON objects" % args.scenario)
    if args.optics is not None:
        cfg["optics"] = args.optics
    if args.third_level is not None:
        cfg["third_level"] = dict(cfg.get("third_level") or {},
                                  delta3_mhz=args.third_level)
    try:
        scheme, params, phi_grid = eitsim.scenario_from_dict(cfg)
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        spg = eitsim.eit_spectrogram(scheme, params, phi_grid)
    except np.linalg.LinAlgError as exc:
        raise CliError("steady-state solve failed: %s" % exc, EXIT_NUMERICAL)
    if args.format == "json":
        _write_json(eitsim.spectrogram_json_dict(spg), args.output)
    else:
        eitsim.write_spectrogram_csv(args.output, spg)
    return EXIT_OK


def _load_spectrum(path: str, config):
    """(cls, x, y, config) of a spectrum file; a config not None overrides the
    file's.  The arrays are checked by extract_peaks."""
    doc = _read_json(path, "spectrum")
    if not isinstance(doc, dict):
        raise CliError("%s: spectrum must be a JSON object" % path)
    problems = ["missing key %r" % key for key in ("detuning_mhz", "amplitude", "class")
                if key not in doc]
    if problems:
        raise CliError("%s: %s" % (path, "; ".join(problems)))
    try:
        cls = class_from_spec(doc["class"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError("%s: bad class spec: %s" % (path, exc))
    config_free(cls)  # NotInvertible before any peak error
    try:
        x = np.asarray(doc["detuning_mhz"], dtype=float)
        y = np.asarray(doc["amplitude"], dtype=float)
    except (ValueError, TypeError) as exc:
        raise CliError("%s: detuning and amplitude must be numbers: %s" % (path, exc))
    if config is None:
        config = doc.get("config", "standard")
    return cls, x, y, _inversion_config(config)


def _invert_one(path, cls, x, y, config, args):
    try:
        peaks = extract_peaks(
            x, y,
            min_prominence=args.min_prominence,
            merge_tol=args.merge_tol,
            central_tol=args.central_tol,
        )
    except ValueError as exc:
        raise CliError("%s: %s" % (path, exc))
    except InversionError as exc:
        raise CliError("peak extraction failed: %s" % exc, EXIT_NUMERICAL)
    rel = peaks.central_prominence / max(peaks.prominences)
    return peaks, invert_peaks(cls, peaks, rel, args.central_threshold, config,
                               args.ratio_tol)


def cmd_invert(args) -> int:
    cls, x, y, config = _load_spectrum(args.input, args.config)
    peaks, result = _invert_one(args.input, cls, x, y, config, args)
    combined = None
    if args.second_input:
        cls2, x2, y2, config2 = _load_spectrum(args.second_input, args.second_config)
        if (cls2.J, cls2.p) != (cls.J, cls.p):
            raise CliError("both spectra must declare the same transition class")
        _, result2 = _invert_one(args.second_input, cls2, x2, y2, config2, args)
        combined = combine_candidates(result, result2, angle_tol=args.angle_tol)

    def angles(values):
        return [_emit_angle(v, args.degrees) for v in values]

    report = {
        "class": {"J2": cls.J.twice, "p": cls.p},
        "config": config,
        "ratio": result.ratio,
        "principal": _emit_angle(result.principal, args.degrees),
        "candidates": angles(result.candidates),
        "pruned": angles(result.pruned),
        "ambiguity_class": result.ambiguity_class,
        "angle_unit": "degrees" if args.degrees else "radians",
        "peak_positions_mhz": list(peaks.positions),
        "central_prominence": peaks.central_prominence,
        "candidate_stokes": [
            sop_from_phi(c).stokes().to_json_dict() for c in result.candidates
        ],
    }
    if combined is not None:
        report["combined"] = angles(combined)
        report["combined_unique"] = len(combined) == 1
    _write_json(report, args.output)
    return EXIT_OK


def cmd_wigner(args) -> int:
    vals = [_parse_halfint(v) for v in args.values]
    fn = wigner3j if args.symbol == "3j" else wigner6j
    try:
        result = fn(*vals)
    except ValueError as exc:
        raise CliError(str(exc))
    sys.stdout.write("%.15g\n" % result)
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    cls = _transition_class(args)
    phi_grid = _phi_grid(args)
    configs = tuple(_inversion_config(c.strip()) for c in args.configs.split(",") if c.strip())
    if not configs:
        raise CliError("--configs must name at least one optics configuration")
    rows = []
    failures = 0
    for phi in phi_grid:
        rep = round_trip(cls, float(phi), configs=configs, angle_tol=args.angle_tol)
        if not rep.recovered:
            failures += 1
        rows.append(
            {
                "phi": _emit_angle(rep.phi_true, args.degrees),
                "recovered": rep.recovered,
                "combined": [_emit_angle(c, args.degrees) for c in rep.combined],
            }
        )
    report = {
        "class": {"J2": cls.J.twice, "p": cls.p},
        "configs": list(configs),
        "angle_tol": args.angle_tol,
        "angle_unit": "degrees" if args.degrees else "radians",
        "points": len(rows),
        "failures": failures,
        "rows": rows,
    }
    _write_json(report, args.output)
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _add_class_flags(p):
    p.add_argument("--J2", type=int, required=True,
                   help="doubled angular momentum 2J of the lower level")
    p.add_argument("--p", type=int, required=True, choices=(-1, 0, 1),
                   help="class parity index; J' = J + |p|")


def _add_phi_flags(p, steps=181):
    p.add_argument("--phi-start", type=float, default=0.0)
    p.add_argument("--phi-stop", type=float, default=2.0 * math.pi)
    p.add_argument("--phi-steps", type=int, default=steps)
    p.add_argument("--degrees", action="store_true",
                   help="interpret and emit angles in degrees")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydpol",
        description="RF-dressed Rydberg spectrograms, EIT simulation, and "
                    "SOP inversion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    configs = ", ".join(PROMINENCE_INTERVALS)

    p = sub.add_parser("spectrogram", help="eigenvalue spectrogram over phi")
    _add_class_flags(p)
    _add_phi_flags(p)
    p.add_argument("--envelopes", choices=("exact", "approx"), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("envelopes", help="outer/inner envelope table")
    p.add_argument("--kind", choices=("exact", "approx"), default="exact")
    _add_phi_flags(p, steps=361)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("eit", help="simulated EIT spectrogram")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--optics", default=None,
                   help="optics preset override (%s)" % ", ".join(OPTICS_PRESETS))
    p.add_argument("--third-level", type=float, default=None, metavar="MHZ",
                   help="enable or override the off-resonant third manifold")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("invert", help="phase-angle candidates from a spectrum")
    p.add_argument("--input", required=True, help="spectrum JSON")
    p.add_argument("--config", default=None,
                   help="optics configuration of the measurement (%s; default: "
                        "the spectrum file's, else standard)" % configs)
    p.add_argument("--second-input", default=None,
                   help="second spectrum (other optics) for combined pruning")
    p.add_argument("--second-config", default=None,
                   help="optics configuration of the second spectrum (%s)" % configs)
    p.add_argument("--central-threshold", type=float, default=0.5,
                   help="relative central-peak prominence dividing "
                        "inside/outside of the pruning interval")
    p.add_argument("--min-prominence", type=float, default=0.05)
    p.add_argument("--merge-tol", type=float, default=0.0, metavar="MHZ")
    p.add_argument("--central-tol", type=float, default=None, metavar="MHZ")
    p.add_argument("--ratio-tol", type=float, default=1e-6)
    p.add_argument("--angle-tol", type=float, default=1e-3)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("wigner", help="evaluate a 3-j or 6-j symbol")
    p.add_argument("--symbol", choices=("3j", "6j"), required=True)
    p.add_argument("values", nargs=6, metavar="J",
                   help="six (half-)integers, e.g. 1 3/2 1/2 ...")

    p = sub.add_parser("roundtrip", help="eigenvalue-level inversion sweep")
    _add_class_flags(p)
    _add_phi_flags(p)
    p.add_argument("--configs", default="standard",
                   help="comma-separated optics configurations (%s)" % configs)
    p.add_argument("--angle-tol", type=float, default=1e-6)
    p.add_argument("-o", "--output", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_numbers(args)
        code = globals()["cmd_" + args.command](args)
        if getattr(args, "output", None):
            _write_manifest(args)
    except SystemExit as exc:  # from argparse: usage error, --help or --version
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (CliError, InversionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return getattr(exc, "code", EXIT_INVALID if isinstance(exc, NotInvertible)
                       else EXIT_NUMERICAL)
    except OSError as exc:  # _read_json turns read errors into CliError
        sys.stderr.write("error: cannot write %s: %s\n" % (exc.filename, exc.strerror))
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
