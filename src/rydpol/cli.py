"""Command-line front end.

Subcommands
-----------
spectrogram   eigenvalue spectrogram of a transition class over a phi grid
envelopes     exact or approximate outer/inner envelope table
eit           simulated EIT spectrogram from a scenario config
invert        recover candidate phase angles from a spectrum file
wigner        evaluate a single 3-j or 6-j symbol
roundtrip     eigenvalue-level forward-and-back consistency sweep

This is the one module that reads and formats outside input.  Scenario
files, spectrum files and flags pass through one set of field readers
(_number, _integer, _class, _grid, and _numbers for a spectrum's arrays)
into the typed values the library takes, each with one error wording
that names the field and echoes at most MAX_ECHO characters of the
value.  A JSON true/false is not a number, a grid is a flat list or a
range object of at most MAX_GRID_POINTS points, a class has J2 <=
MAX_CLASS_J2, and `wigner` takes |2j| <= MAX_TWICE_J.  On
the way out, the library returns arrays and dataclasses, every table goes
through _write_csv and every JSON document, the manifest included,
through _write_json.  The one exception is the EIT table, which
eitsim.write_spectrogram_csv writes.  Every run
that writes files also writes a manifest JSON next to the first output
recording every parsed argument (input paths made absolute), so a run
can be reproduced exactly.  Angles are radians unless --degrees is
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
import warnings
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from .angular import HalfInt, wigner3j, wigner6j
from .dressing import (
    TransitionClass,
    envelopes_approx,
    envelopes_exact,
    spectrogram,
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
from .sop import OPTICS_PRESETS, OpticalConfig, sop_from_phi

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4

# Work bounds at the boundary.  A grid of 10^4 points keeps the largest
# pole-sum temporary of an EIT spectrum (grid x 192 poles, complex) near
# 31 MB; the exact Wigner sums grow with j, and at |2j| = 1000 one 6-j
# symbol takes about 0.2 s.  A class's angular matrix has side about 2 J2
# and is built from exact 3-j sums, memory growing as J2^2; at J2 = 100 a
# two-angle spectrogram takes about 0.15 s in process (J2 = 801: 2 s, 148 MB).
MAX_GRID_POINTS = 10_000
MAX_TWICE_J = 1000
MAX_CLASS_J2 = 100
# an offending value is echoed in an error message up to this many characters
MAX_ECHO = 60


class CliError(Exception):
    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _echo(value) -> str:
    """repr(value), cut to MAX_ECHO characters with an ellipsis."""
    text = repr(value)
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO - 3] + "..."


def _parse_halfint(text: str) -> HalfInt:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError
            value = HalfInt(int(num))
        else:
            value = HalfInt.of(float(text))
    except (ValueError, TypeError, OverflowError):
        raise CliError("%s is not an integer or half-integer" % _echo(text))
    if abs(value.twice) > MAX_TWICE_J:
        raise CliError("%s is out of range: |2j| must be at most %d"
                       % (_echo(text), MAX_TWICE_J))
    return value


def _number(value, name: str) -> float:
    """value as a float (3, 0.5, "0.5" or "nan"); ValueError naming the
    field otherwise.  A JSON true/false is not a number."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%s must be a number, got %s" % (name, _echo(value)))


def _integer(value, name: str) -> int:
    """value as an int if it is integral (3, 3.0 or "3"); ValueError naming
    the field otherwise, where int() would truncate 1.5 to 1.  A JSON
    true/false is not an integer."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not number.is_integer():
        raise ValueError("%s must be an integer, got %s" % (name, _echo(value)))
    return int(number)


def _class(spec) -> TransitionClass:
    """Transition class of a {"J2": 2J, "p": p} mapping, as scenario and
    spectrum files write it and the --J2/--p flags give it; KeyError for a
    missing key, ValueError for a non-integral or invalid value or a J2
    above MAX_CLASS_J2."""
    if not isinstance(spec, dict):
        raise ValueError('must be an object {"J2": 2J, "p": p}, got %s' % _echo(spec))
    twice_j = _integer(spec["J2"], "J2")
    if twice_j > MAX_CLASS_J2:  # before any angular matrix is built
        raise ValueError("J2 must be at most %d, got %s" % (MAX_CLASS_J2, _echo(spec["J2"])))
    return TransitionClass(HalfInt(twice_j), _integer(spec["p"], "p"))


def _grid(spec) -> np.ndarray:
    """A {"start", "stop", "steps"} range or a flat list of numbers, of at
    most MAX_GRID_POINTS points; ValueError unless it is one of those,
    non-empty and finite.  A string is not a list: "12" would otherwise
    read as the grid [1, 2]."""
    if isinstance(spec, dict):
        start, stop = _number(spec["start"], "start"), _number(spec["stop"], "stop")
        size = _integer(spec["steps"], "steps")
    elif isinstance(spec, list):
        size = len(spec)
    else:
        raise ValueError("grid must be a {start, stop, steps} object or a list, got %s"
                         % _echo(spec))
    if size > MAX_GRID_POINTS:  # before anything is allocated
        raise ValueError("grid must have at most %d points, got %d" % (MAX_GRID_POINTS, size))
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite start or stop
        grid = (np.linspace(start, stop, size) if isinstance(spec, dict)
                else np.asarray([_number(v, "grid entry") for v in spec]))
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a non-empty list of finite values")
    return grid


def _transition_class(args) -> TransitionClass:
    try:
        return _class(vars(args))
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
    try:
        return _grid({"start": start, "stop": stop, "steps": args.phi_steps})
    except ValueError as exc:  # the cap on grid points
        raise CliError("--phi-steps: %s" % exc)


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
    _write_json(dict(sorted(manifest.items())), base + ".manifest.json")


def _write_csv(path, header, row_format, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_format % row + "\n")


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


def _envelope_rows(phi_grid, kind, degrees) -> list:
    """(phi, eo_plus, eo_minus, ei_plus, ei_minus, kind) per angle of a
    radian grid, phi emitted in degrees if asked: the rows of the
    envelopes table, of its spectrogram side file and of the spectrogram
    JSON's envelopes (columns 2-5)."""
    fn = envelopes_exact if kind == "exact" else envelopes_approx
    return [(_emit_angle(phi, degrees),) + astuple(fn(phi)) + (kind,)
            for phi in phi_grid.tolist()]


def _write_envelopes(path, phi_grid, kind, degrees) -> None:
    _write_csv(path, "phi,eo_plus,eo_minus,ei_plus,ei_minus,exact_or_approx",
               "%.9g,%.9g,%.9g,%.9g,%.9g,%s", _envelope_rows(phi_grid, kind, degrees))


def cmd_spectrogram(args) -> int:
    cls = _transition_class(args)
    if args.envelopes and (cls.J.twice, abs(cls.p)) != (3, 1):
        raise CliError("--envelopes are the 3/2^+- envelopes; class %s has none"
                       % cls.label())
    phi_grid = _phi_grid(args)
    spectra = spectrogram(cls, phi_grid)
    phis = [_emit_angle(s.phi, args.degrees) for s in spectra]
    if args.format == "json":
        doc = {"phi": phis, "eigenvalues": [s.eigenvalues.tolist() for s in spectra],
               "class": {"J2": cls.J.twice, "p": cls.p}}
        if args.envelopes:
            rows = _envelope_rows(phi_grid, args.envelopes, args.degrees)
            doc["envelopes"] = {"kind": args.envelopes, "rows": [list(r[1:5]) for r in rows]}
        _write_json(doc, args.output)
    else:
        _write_csv(args.output, "phi,band_index,eigenvalue", "%.9g,%d,%.9g",
                   ((phi, k, ev) for phi, s in zip(phis, spectra)
                    for k, ev in enumerate(s.eigenvalues.tolist())))
        if args.envelopes:
            base, ext = os.path.splitext(args.output)
            _write_envelopes(base + "_envelopes" + (ext or ".csv"), phi_grid,
                             args.envelopes, args.degrees)
    return EXIT_OK


def cmd_envelopes(args) -> int:
    _write_envelopes(args.output, _phi_grid(args), args.kind, args.degrees)
    return EXIT_OK


def _read_json(path, kind):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # not found, a directory, unreadable
        raise CliError("cannot read %s file %s: %s" % (kind, path, exc.strerror))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError("invalid JSON in %s: %s" % (path, exc))


def _optics(spec) -> OpticalConfig:
    """A key of OPTICS_PRESETS or a {"propagation_probe", "propagation_coupling",
    "pol_probe", "pol_coupling"} object of 3-vectors, a complex entry of a
    Jones vector written [re, im]."""
    if isinstance(spec, str):
        if spec not in OPTICS_PRESETS:
            raise ValueError("unknown preset %s (choices: %s)"
                             % (_echo(spec), ", ".join(OPTICS_PRESETS)))
        return OPTICS_PRESETS[spec]()
    if not isinstance(spec, dict):
        raise ValueError("must be a preset name or an object of 3-vectors, got %s"
                         % _echo(spec))

    def vector(key):  # OpticalConfig checks the length, norm and direction
        if not isinstance(spec[key], list):
            raise ValueError("%s must be a list of numbers, got %s" % (key, _echo(spec[key])))
        return tuple(complex(*(_number(x, key) for x in v)) if isinstance(v, list)
                     else _number(v, key) for v in spec[key])

    return OpticalConfig(*map(vector, ("propagation_probe", "propagation_coupling",
                                       "pol_probe", "pol_coupling")))


def _params(spec, optics) -> eitsim.SimParams:
    """SimParams of a scenario's "params" object with the scenario's optics.
    A warning it raises (a strong probe) is written "warning: ..." on
    stderr, once per run."""
    if not isinstance(spec, dict):
        raise ValueError("must be a JSON object")
    kwargs = {k: _number(v, k) for k, v in spec.items() if k != "coupling_detuning_grid"}
    if spec.get("coupling_detuning_grid") is not None:
        kwargs["coupling_detuning_grid"] = tuple(_grid(spec["coupling_detuning_grid"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        params = eitsim.SimParams(optics=optics, **kwargs)
    for w in caught:
        sys.stderr.write("warning: %s\n" % w.message)
    return params


def _scenario(args) -> tuple:
    """(scheme, params, phi_grid) of the --scenario file, with --optics and
    --third-level read as if the file gave them.

    Schema: {"class": {"J2": int, "p": int}, "coupling_target"?: str,
    "j_intermediate2"?: int, "third_level"?: {"J2"?: int, "delta3_mhz": float},
    "params"?: {...}, "optics"?: preset name or {"propagation_probe": [...], ...},
    "phi"?: {"start":., "stop":., "steps": n} or [values]}

    The scheme is eitsim.scheme_fields(cls, delta3) with only the fields
    given (coupling_target, j_intermediate2, third_level.J2) replaced; an
    override can make a scheme valid whose default is not.  The errors of
    all fields are reported in one message.
    """
    cfg = _read_json(args.scenario, "scenario")
    third_cfg = cfg.get("third_level") if isinstance(cfg, dict) else None
    if not isinstance(cfg, dict) or not isinstance(third_cfg or {}, dict):
        raise CliError("%s: scenario and its third_level must be JSON objects" % args.scenario)
    if args.third_level is not None:
        third_cfg = dict(third_cfg or {}, delta3_mhz=args.third_level)
    errors = []

    def read(field, reader):
        try:
            return reader()
        except (KeyError, ValueError, TypeError) as exc:
            errors.append("%s: %s" % (field, exc))

    cls = read("class", lambda: _class(cfg["class"]))
    delta3 = third = None
    if third_cfg:
        delta3 = read("third_level", lambda: _number(third_cfg["delta3_mhz"], "delta3_mhz"))
        if delta3 is not None and "J2" in third_cfg:
            third = read("third_level", lambda: eitsim.ThirdLevel(
                HalfInt(_integer(third_cfg["J2"], "J2")), delta3))
    optics = read("optics", lambda: _optics(
        cfg.get("optics", "standard") if args.optics is None else args.optics))
    params = read("params", lambda: _params(cfg.get("params", {}),
                                            optics or _optics("standard")))
    phi_grid = read("phi", lambda: _grid(
        cfg.get("phi", {"start": 0.0, "stop": 2 * math.pi, "steps": 32})))
    if errors:
        raise CliError("invalid scenario config: " + "; ".join(errors))

    given = {"coupling_target": cfg.get("coupling_target"), "third": third}
    try:
        if cfg.get("j_intermediate2") is not None:
            given["j_intermediate"] = HalfInt(_integer(cfg["j_intermediate2"],
                                                       "j_intermediate2"))
        fields = eitsim.scheme_fields(cls, delta3)
        fields.update((k, v) for k, v in given.items() if v is not None)
        return eitsim.LevelScheme(cls, **fields), params, phi_grid
    except (ValueError, TypeError) as exc:
        raise CliError("invalid scenario config: %s" % exc)


def cmd_eit(args) -> int:
    scheme, params, phi_grid = _scenario(args)
    try:
        spg = eitsim.eit_spectrogram(scheme, params, phi_grid)
    except np.linalg.LinAlgError as exc:
        raise CliError("steady-state solve failed: %s" % exc, EXIT_NUMERICAL)
    if args.format == "json":
        _write_json({"phi": spg.phi_grid.tolist(), "delta_c_mhz": spg.detuning_mhz.tolist(),
                     "response": spg.response.tolist()}, args.output)
    else:
        eitsim.write_spectrogram_csv(args.output, spg)
    return EXIT_OK


def _numbers(values, name: str) -> np.ndarray:
    """values as a float array; inversion.extract_peaks checks the shape and
    finiteness.  A JSON true/false is not a number: it reads as 1.0 or 0.0,
    so only the entries that read so are looked at."""
    array = np.asarray(values, dtype=float)
    if isinstance(values, list) and array.ndim == 1:
        suspects = np.flatnonzero((array == 0.0) | (array == 1.0)).tolist()
        if any(type(values[i]) is bool for i in suspects):
            raise ValueError("%s holds true or false" % name)
    return array


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
        cls = _class(doc["class"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError("%s: bad class spec: %s" % (path, exc))
    config_free(cls)  # NotInvertible before any peak error
    try:
        x, y = (_numbers(doc[key], key) for key in ("detuning_mhz", "amplitude"))
    except (ValueError, TypeError, OverflowError) as exc:
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
        combined = combine_candidates(result.pruned, result2.pruned, angle_tol=args.angle_tol)

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
        "candidate_stokes": [asdict(sop_from_phi(c).stokes()) for c in result.candidates],
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
    p.add_argument("--ratio-tol", type=float, default=1e-6,
                   help="slack on the 3/2^+- ratio range; the 1/2^0 ratio lies "
                        "in [0, 1] by construction and reads none")
    p.add_argument("--angle-tol", type=float, default=1e-3,
                   help="radians within which the two runs' candidates match; "
                        "read only with --second-input")
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
