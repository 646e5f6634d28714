"""Inputs, operations and correctness gates of the benchmark's workloads.

Every workload writes its inputs (scenario or spectrum JSON) from the
seed at set-up; the program only ever sees those files, through the
in-process CLI `rydpol.cli.main([...])`.  The gates re-check each output
outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace

import numpy as np

from rydpol import cli, eitsim
from rydpol.angular import HalfInt
from rydpol.dressing import TransitionClass, eigen_spectrum
from rydpol.inversion import (
    InversionError,
    extract_peaks,
    invert_five_half,
    invert_half,
    prominence_interval,
    ratio_five_half,
    ratio_half,
)
from rydpol.sop import OPTICS_PRESETS

PHI_TOL = math.radians(5.0)
# The dense reference and the CLI solve the same linear systems; rows may
# differ by rounding and by the CSV's nine significant digits only.
ROW_REL_TOL = 1e-6
DENSE_POINTS = 4

# Criterion-07 settings of tests/test_acceptance.py.
EIT_CASES = {
    "half0": {"J2": 1, "p": 0, "optics": "standard", "params": {}, "steps": 261,
              "third_mhz": None},
    "five_half": {"J2": 3, "p": 1, "optics": "tilted_linear",
                  "params": {"omega_coupling": 2.0}, "steps": 521, "third_mhz": None},
    "third_level": {"J2": 3, "p": 1, "optics": "tilted_linear",
                    "params": {"omega_coupling": 2.0}, "steps": 521, "third_mhz": 100.0},
}
GRID_MHZ = (-65.0, 65.0)


@dataclass
class Call:
    """One in-process `rydpol` invocation and what its gates need."""

    kind: str
    argv: list
    unit: int
    items: int  # spectra computed, spectra inverted or round-trip points
    dim: int | None = None  # Liouvillian dimension of an eit call
    meta: dict = field(default_factory=dict)
    seconds: float = 0.0
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""


def run_call(call: Call) -> None:
    """Run one CLI call; only cli.main itself is inside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            call.rc = cli.main(call.argv)
        except Exception as exc:  # counted as a failed operation
            call.rc = None
            err.write("%s: %s\n" % (type(exc).__name__, exc))
        call.seconds = time.perf_counter() - start
    call.stdout, call.stderr = out.getvalue(), err.getvalue()


def draw_phi(rng: random.Random) -> float:
    """A phase angle at least 10 degrees from the cardinal points."""
    return math.radians(90.0 * rng.randrange(4) + rng.uniform(10.0, 80.0))


def angle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def fourfold(phi: float) -> list:
    return [phi, math.pi - phi, math.pi + phi, -phi]


def wrong_phi(phi: float) -> float:
    """An angle more than 10 degrees from every candidate of phi."""
    for off in range(15, 180, 5):
        w = phi + math.radians(off)
        if min(angle_dist(w, c) for c in fourfold(phi)) > math.radians(10.0):
            return w
    raise AssertionError("no wrong angle found")


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class EitWorkload:
    """`rydpol eit` on one-angle scenarios; one unit is one angle, run
    once per case."""

    def __init__(self, seed: int, workdir: str, cases: tuple, n_phi: int):
        rng = random.Random(seed)
        self.workdir = workdir
        self.cases = cases
        self.phis = [draw_phi(rng) for _ in range(n_phi)]
        self.gate_seed = seed
        self.inputs = []
        self.dims = {}
        for case in cases:
            spec = EIT_CASES[case]
            scheme, _ = self.model(case)
            self.dims[case] = scheme.n_states ** 2
            for i, phi in enumerate(self.phis):
                self.inputs.append(self._scenario("%s_%d" % (case, i), spec, spec["steps"], phi))
            self._scenario("%s_warm" % case, spec, 9, self.phis[0])

    def _scenario(self, name: str, spec: dict, steps: int, phi: float) -> str:
        params = dict(spec["params"])
        params["coupling_detuning_grid"] = {"start": GRID_MHZ[0], "stop": GRID_MHZ[1],
                                            "steps": steps}
        doc = {"class": {"J2": spec["J2"], "p": spec["p"]}, "optics": spec["optics"],
               "params": params, "phi": [phi]}
        return _write_json(os.path.join(self.workdir, name + ".json"), doc)

    def _call(self, case: str, tag: str, unit: int, phi) -> Call:
        out = os.path.join(self.workdir, "%s_out_%s.csv" % (case, tag))
        argv = ["eit", "--scenario", os.path.join(self.workdir, "%s_%s.json" % (case, tag)),
                "-o", out]
        third = EIT_CASES[case]["third_mhz"]
        if third is not None:
            argv += ["--third-level", repr(third)]
        return Call(case, argv, unit, 1, self.dims[case], {"phi": phi, "out": out})

    def warm_up(self) -> None:
        for case in self.cases:
            run_call(self._call(case, "warm", -1, self.phis[0]))

    def unit(self, k: int) -> list:
        i = k % len(self.phis)
        return [self._call(case, str(i), k, self.phis[i]) for case in self.cases]

    def op_seconds(self, calls: list) -> list:
        per_unit = {}
        for c in calls:
            per_unit[c.unit] = per_unit.get(c.unit, 0.0) + c.seconds
        return list(per_unit.values())

    def items_per_s(self, calls: list) -> float:
        return sum(c.items for c in calls) / sum(c.seconds for c in calls)

    def info(self, calls: list) -> list:
        rows = []
        for case in self.cases:
            t = [c.seconds for c in calls if c.kind == case]
            rows.append(("eit_s_per_spectrum." + case, float(np.median(t)), "s", len(t)))
        return rows

    # ---- correctness gates -------------------------------------------
    def model(self, case: str):
        spec = EIT_CASES[case]
        cls = TransitionClass(HalfInt(spec["J2"]), spec["p"])
        scheme = eitsim.scheme_for_class(cls, third_delta3_mhz=spec["third_mhz"])
        grid = tuple(np.linspace(GRID_MHZ[0], GRID_MHZ[1], spec["steps"]))
        params = eitsim.SimParams(optics=OPTICS_PRESETS[spec["optics"]](),
                                  coupling_detuning_grid=grid, **spec["params"])
        return scheme, params

    def dense_response(self, case: str, phi: float, detunings) -> np.ndarray:
        """The dense per-point reference: a fresh Hamiltonian and a full
        steady-state solve at each detuning, minus the dark baseline."""
        scheme, params = self.model(case)
        collapse = eitsim.collapse_operators(scheme, params)
        dark = replace(params, omega_coupling=0.0)
        rho0 = eitsim.steady_state(eitsim.build_hamiltonian(scheme, dark, phi, 0.0), collapse)
        baseline = eitsim.probe_absorption(scheme, dark, rho0)
        out = []
        for dc in detunings:
            rho = eitsim.steady_state(
                eitsim.build_hamiltonian(scheme, params, phi, float(dc)), collapse)
            out.append(max(baseline - eitsim.probe_absorption(scheme, params, rho), 0.0))
        return np.array(out)

    @staticmethod
    def read_csv(path: str):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        data = np.array(rows[1:], dtype=float).reshape(-1, 3)
        return data[:, 0], data[:, 1], data[:, 2]

    def sample(self, call: Call) -> np.ndarray:
        rng = np.random.default_rng([self.gate_seed, call.unit, list(EIT_CASES).index(call.kind)])
        steps = EIT_CASES[call.kind]["steps"]
        return np.sort(rng.choice(steps, DENSE_POINTS, replace=False))

    def row_problems(self, call: Call, phi_col, x, y, phi: float) -> list:
        case = call.kind
        _, params = self.model(case)
        grid = np.asarray(params.coupling_detuning_grid)
        if y.shape != grid.shape:
            return ["%d rows, expected %d" % (y.size, grid.size)]
        if not np.all(np.isfinite(y)):
            return ["non-finite response"]
        problems = []
        if np.max(np.abs(x - grid)) > 1e-6:
            problems.append("detuning column differs from the grid")
        if np.max(np.abs(phi_col - phi)) > 1e-6:
            problems.append("phi column differs from the scenario")
        if problems:
            return problems
        idx = self.sample(call)
        ref = self.dense_response(case, phi, grid[idx])
        tol = ROW_REL_TOL * float(np.max(np.abs(y)))
        for i, r in zip(idx, ref):
            if abs(y[i] - r) > tol:
                problems.append("row %d: %.9g vs dense %.9g (tol %.3g)" % (i, y[i], r, tol))
        return problems

    @staticmethod
    def recovers(case: str, x, y, phi: float) -> bool:
        """Criterion 07: extract_peaks -> ratio -> invert within 5 degrees."""
        try:
            if case == "half0":
                peaks = extract_peaks(x, y, merge_tol=2.0)
                out = invert_half(ratio_half(peaks, tol=1e-3), tol=1e-3)
            else:
                peaks = extract_peaks(x, y, min_prominence=0.003, merge_tol=1.0,
                                      central_tol=3.0)
                out = invert_five_half(ratio_five_half(peaks), 0.0, 0.5, tol=0.3)
        except (InversionError, ValueError):
            return False
        return min(angle_dist(phi, c) for c in out.candidates) <= PHI_TOL

    def check(self, call: Call) -> list:
        if call.rc != 0:
            return ["exit code %s: %s" % (call.rc, call.stderr.strip())]
        try:
            phi_col, x, y = self.read_csv(call.meta["out"])
        except (OSError, ValueError) as exc:
            return ["unreadable CSV: %s" % exc]
        problems = self.row_problems(call, phi_col, x, y, call.meta["phi"])
        if not problems and call.kind != "third_level" and not self.recovers(
                call.kind, x, y, call.meta["phi"]):
            problems.append("phi %.2f deg not recovered" % math.degrees(call.meta["phi"]))
        return problems

    def self_check(self, good: list) -> list:
        """The gates must flag a corrupted row and a wrong angle in a call
        that passed them."""
        call = good[0] if good else None
        if call is None:
            return ["no call passed its gates, so none could be corrupted"]
        missed = []
        phi_col, x, y = self.read_csv(call.meta["out"])
        bad = y.copy()
        i = self.sample(call)[0]
        bad[i] += 10 * ROW_REL_TOL * float(np.max(np.abs(y))) + 1e-12
        if not self.row_problems(call, phi_col, x, bad, call.meta["phi"]):
            missed.append("corrupted row %d passed the dense gate" % i)
        wrong = wrong_phi(call.meta["phi"])
        if not self.row_problems(call, phi_col, x, y, wrong):
            missed.append("wrong phi passed the row gate")
        if call.kind != "third_level" and self.recovers(call.kind, x, y, wrong):
            missed.append("wrong phi passed the inversion gate")
        return missed


def _lines(cls: TransitionClass, phi: float, omega_rf: float = 40.0) -> list:
    """Distinct dressed lines (MHz) of a class at phi."""
    return [omega_rf * v for v, _ in eigen_spectrum(cls, phi, 1e-6).degeneracies]


class InvertWorkload:
    """`rydpol invert` on seeded spectrum files, then one `rydpol
    roundtrip` sweep; one unit is one pass over all files plus the sweep."""

    N_FILES = 24
    RT_POINTS = 36
    FWHM_MHZ = 0.6
    NOISE = 0.005
    INVERT_FLAGS = ["--degrees", "--central-tol", "1.0"]

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        noise = np.random.default_rng(seed)
        x = np.round(np.linspace(GRID_MHZ[0], GRID_MHZ[1], 1301), 6)
        hw = self.FWHM_MHZ / 2.0
        self.workdir = workdir
        self.files = []
        self.inputs = []
        for k in range(self.N_FILES):
            half = k % 2 == 0
            config = ("standard", "rotated_circular")[(k // 2) % 2]
            cls = TransitionClass.of(0.5, 0) if half else TransitionClass.of(1.5, 1)
            phi = draw_phi(rng)
            lo, hi = prominence_interval(config)
            central = 1.5 if lo <= phi <= hi else 0.15
            y = noise.normal(0.0, self.NOISE, x.size)
            for line in _lines(cls, phi):
                height = central if abs(line) < 1e-6 else 1.0
                y += height * hw * hw / ((x - line) ** 2 + hw * hw)
            path = _write_json(os.path.join(workdir, "spectrum_%02d.json" % k), {
                "detuning_mhz": x.tolist(),
                "amplitude": [float("%.6g" % v) for v in y],
                "class": {"J2": cls.J.twice, "p": cls.p},
                "config": config,
            })
            self.files.append((path, phi))
            self.inputs.append(path)
        start = rng.uniform(0.0, 2.0 * math.pi / self.RT_POINTS)
        self.rt_phi = ["--phi-start", repr(start), "--phi-stop", repr(start + 2.0 * math.pi)]

    def _invert(self, k: int, unit: int) -> Call:
        path, phi = self.files[k]
        return Call("invert", ["invert", "--input", path] + self.INVERT_FLAGS, unit, 1,
                    meta={"phi": phi})

    def _roundtrip(self, unit: int, points: int) -> Call:
        argv = ["roundtrip", "--J2", "3", "--p", "1", "--configs",
                "standard,rotated_circular", "--phi-steps", str(points)] + self.rt_phi
        return Call("roundtrip", argv, unit, points, meta={"points": points})

    def warm_up(self) -> None:
        for k in range(4):
            run_call(self._invert(k, -1))
        run_call(self._roundtrip(-1, 4))

    def unit(self, k: int) -> list:
        calls = [self._invert(i, k) for i in range(self.N_FILES)]
        return calls + [self._roundtrip(k, self.RT_POINTS)]

    def op_seconds(self, calls: list) -> list:
        return [c.seconds for c in calls if c.kind == "invert"]

    def items_per_s(self, calls: list) -> float:
        rt = [c for c in calls if c.kind == "roundtrip"]
        return sum(c.items for c in rt) / sum(c.seconds for c in rt)

    def info(self, calls: list) -> list:
        ms = np.array(self.op_seconds(calls)) * 1e3
        p95 = float(np.percentile(ms, 95))
        return [
            ("invert_ms.p50", float(np.median(ms)), "ms", ms.size),
            ("invert_ms.p95", p95, "ms", "%d (%d above)" % (ms.size, int(np.sum(ms > p95)))),
            ("roundtrip_points_per_s", self.items_per_s(calls), "1/s",
             sum(c.items for c in calls if c.kind == "roundtrip")),
        ]

    # ---- correctness gates -------------------------------------------
    @staticmethod
    def invert_problems(stdout: str, phi: float) -> list:
        cands = [math.radians(c) for c in json.loads(stdout)["candidates"]]
        if not cands or min(angle_dist(phi, c) for c in cands) > PHI_TOL:
            return ["phi %.2f deg not among candidates" % math.degrees(phi)]
        return []

    @staticmethod
    def roundtrip_problems(stdout: str, points: int) -> list:
        report = json.loads(stdout)
        rows = report["rows"]
        bad = [r["phi"] for r in rows if not r["recovered"]]
        if len(rows) != points or report["failures"] or bad:
            return ["%d rows, %d not recovered" % (len(rows), len(bad))]
        return []

    def check(self, call: Call) -> list:
        if call.rc != 0:
            return ["exit code %s: %s" % (call.rc, call.stderr.strip())]
        try:
            if call.kind == "invert":
                return self.invert_problems(call.stdout, call.meta["phi"])
            return self.roundtrip_problems(call.stdout, call.meta["points"])
        except (ValueError, KeyError, TypeError) as exc:
            return ["unreadable report: %s" % exc]

    def self_check(self, good: list) -> list:
        inv = next((c for c in good if c.kind == "invert"), None)
        rt = next((c for c in good if c.kind == "roundtrip"), None)
        if inv is None or rt is None:
            return ["no call passed its gates, so none could be corrupted"]
        missed = []
        if not self.invert_problems(inv.stdout, wrong_phi(inv.meta["phi"])):
            missed.append("wrong phi passed the invert gate")
        report = json.loads(rt.stdout)
        report["rows"][0]["recovered"] = False
        if not self.roundtrip_problems(json.dumps(report), rt.meta["points"]):
            missed.append("corrupted roundtrip row passed the gate")
        return missed


WORKLOADS = {
    "eit-paper": lambda seed, wd: EitWorkload(seed, wd, ("half0", "five_half"), 12),
    "eit-third-level": lambda seed, wd: EitWorkload(seed, wd, ("third_level",), 4),
    "invert-batch": InvertWorkload,
}
