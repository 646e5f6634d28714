"""rydpol benchmark: forward EIT spectra and batch inversion.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eit-paper --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md): eit-paper, eit-third-level,
invert-batch.  With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a traced run.  Lines before it give machine facts
and informational figures.  The program is imported from ./src; the
benchmark exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DIMS = (100, 256, 484)
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
# Timings are reported in reference seconds: measured seconds times
# CAL_REF_S over the median time of a fixed calibration kernel run in the
# same process, interleaved with the work.  On a shared machine whose
# speed drifts by tens of percent over minutes this cancels the drift.
# CAL_REF_S is a unit, not a tuning knob: changing it rescales every timing.
CAL_REF_S = 0.02
CAL_LOOPS = 20000
CAL_SOLVES = 8
CAL_SHARE = 0.05  # calibration time per second of measured work
SETUP_CAL_REPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("eit-paper", "eit-third-level", "invert-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up in this fresh interpreter and print it")
    return p.parse_args(argv)


def set_up(args, workdir):
    """Import rydpol (with numpy and scipy), write the seeded inputs and
    make the first calls; returns (seconds, workload)."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "rydpol", "__init__.py")):
        raise FileNotFoundError("no rydpol sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import rydpol
    if not os.path.abspath(rydpol.__file__).startswith(SRC + os.sep):
        raise ImportError("rydpol imported from %s, not from ./src" % rydpol.__file__)
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    return time.perf_counter() - start, workload


class Calibration:
    """Fixed work that touches no rydpol code, timed to track the machine's
    speed: a Python integer and dict loop, then LU solves of a fixed
    256 x 256 complex system.  The solves always run with one BLAS thread
    per usable CPU, so a program that changes its BLAS threads does not
    change the calibration."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        self.b = rng.normal(size=256) + 0j
        self.solve = np.linalg.solve  # taken before any tracing wraps it
        self.blas = blas_thread_controls()
        self.threads = len(os.sched_getaffinity(0))

    def __call__(self) -> float:
        current = [get() for get, _ in self.blas]
        for _, put in self.blas:
            put(self.threads)
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(CAL_LOOPS):
            key = i & 1023
            table[key] = table.get(key, 0) + (i * i) % 7
            acc += table[key]
        for _ in range(CAL_SOLVES):
            self.solve(self.a, self.b)
        seconds = time.perf_counter() - start
        for (_, put), n in zip(self.blas, current):
            put(n)
        return seconds


def speed_scale(cal_seconds) -> float:
    """Reference seconds per measured second."""
    return CAL_REF_S / statistics.median(cal_seconds)


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter, in reference seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip())
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds, first_unit, calibrate, tracer=None):
    """Run whole units until `seconds` have passed (at least one unit).
    Between units, outside their timing, the calibration runs whenever
    it is owed CAL_SHARE of the time spent on units.  Returns (calls,
    units, calibration seconds)."""
    from workloads import run_call
    calls, cals, unit, owed = [], [], first_unit, 0.0
    deadline = time.perf_counter() + seconds
    while unit == first_unit or time.perf_counter() < deadline:
        start = time.perf_counter()
        for call in workload.unit(unit):
            if tracer is not None:
                tracer.begin_run(call.dim)
            run_call(call)
            calls.append(call)
        owed += CAL_SHARE * (time.perf_counter() - start)
        while owed > 0:
            cals.append(calibrate())
            owed -= cals[-1]
        unit += 1
    return calls, unit - first_unit, cals


def digest(paths, base) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, base).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _openblas_libs(with_scipy=True):
    """(name, library) of each OpenBLAS build bundled with numpy (and scipy)."""
    import ctypes
    import numpy
    import scipy
    for pkg in (numpy, scipy) if with_scipy else (numpy,):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            yield os.path.basename(path), ctypes.CDLL(path)


def _symbol(lib, names):
    return next((getattr(lib, n) for n in names if hasattr(lib, n)), None)


_GET = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads")
_SET = tuple(n.replace("_get_", "_set_") for n in _GET)


def blas_thread_controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, if exposed."""
    import ctypes
    out = []
    for _, lib in _openblas_libs(with_scipy=False):
        get, put = _symbol(lib, _GET), _symbol(lib, _SET)
        if get is not None and put is not None:
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            out.append((get, put))
    return out


def blas_threads():
    """Threads in effect for each OpenBLAS build numpy or scipy loaded."""
    import ctypes
    out = {}
    for name, lib in _openblas_libs():
        get = _symbol(lib, _GET)
        if get is not None:
            get.restype = ctypes.c_int
            out[name] = get()
    return out or "unknown"


def facts(args, workload, rydpol_threads_inherited):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = blas_threads()
    blas["thread_env"] = {k: os.environ[k] for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    src_files = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    src_loc = 0
    for path in src_files:
        with open(path) as fh:
            src_loc += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "RYDPOL_THREADS": "unset by the benchmark, so the solver runs serially"
                          + (" (was %r)" % rydpol_threads_inherited
                             if rydpol_threads_inherited is not None else ""),
        "src_loc": src_loc,
        "src_sha256": digest(src_files, SRC),
        "input_sha256": digest(workload.inputs, workload.workdir),
    }


def check_calls(workload, calls):
    """Run the gates on every call; returns the calls that passed."""
    good = []
    for call in calls:
        problems = workload.check(call)
        if not problems:
            good.append(call)
        else:
            sys.stderr.write("failed %s %s: %s\n" % (call.kind, " ".join(call.argv[1:3]),
                                                     "; ".join(problems[:3])))
    return good


def per_layer(tracer, units, scale, overhead_s):
    """Per-unit call counts and self times (reference seconds)."""
    from spans import LAYERS, SOLVE, SPECTRUM
    totals = tracer.totals()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        if layer.startswith("eitsim."):
            for dim in DIMS:
                calls, self_s = totals.get((layer, dim), (0, 0.0))
                put("%s.calls.n%d" % (layer, dim), calls / units, "count")
                put("%s.self_s.n%d" % (layer, dim), self_s * scale / units, "s")
        else:
            calls, self_s = totals.get((layer, None), (0, 0.0))
            put(layer + ".calls", calls / units, "count")
            put(layer + ".self_s", self_s * scale / units, "s")
    for dim in DIMS:
        solves = totals.get((SOLVE, dim), (0, 0.0))[0]
        spectra = totals.get((SPECTRUM, dim), (0, 0.0))[0]
        put("%s.gflop.n%d" % (SOLVE, dim), solves * 8.0 / 3.0 * dim ** 3 / 1e9 / units,
            "GFLOP-computed")
        put("eitsim.solves_per_spectrum.n%d" % dim, solves / spectra if spectra else 0.0,
            "count")
    put("tracing.overhead_s", overhead_s, "s")
    return out


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cfg = json.load(fh)
    return [m["name"] for m in cfg["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited = os.environ.pop("RYDPOL_THREADS", None)
    workdir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            setup_s, workload = set_up(args, workdir)
        except (ImportError, OSError) as exc:
            sys.stderr.write("error: cannot set up rydpol: %s\n" % exc)
            return 2
        calibrate = Calibration()
        setup_s *= speed_scale([calibrate() for _ in range(SETUP_CAL_REPS)])
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            from spans import Tracer
            plain, units, cals = measure(workload, args.seconds / 2.0, 0, calibrate)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_units, traced_cals = measure(
                    workload, args.seconds / 2.0, units, calibrate, tracer)
            finally:
                tracer.remove()
            calls = plain + traced
            overhead = (statistics.median(workload.op_seconds(traced)) * speed_scale(traced_cals)
                        - statistics.median(workload.op_seconds(plain)) * speed_scale(cals))
            metrics = per_layer(tracer, traced_units, speed_scale(traced_cals), overhead)
            info = [("tracing.spans", len(tracer.spans), "count", traced_units)]
        else:
            setup_samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            calls, units, cals = measure(workload, args.seconds, 0, calibrate)
            scale = speed_scale(cals)
            op_s = statistics.median(workload.op_seconds(calls))
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "op_latency_s.p50": {"value": op_s * scale, "unit": "s"},
                "items_per_s": {"value": workload.items_per_s(calls) / scale, "unit": "1/s"},
            }
            print("# setup_s samples (reference s): "
                  + " ".join("%.4f" % t for t in setup_samples))
            info = [("calibration_s", statistics.median(cals), "s", len(cals)),
                    ("raw op_latency_s.p50", op_s, "s", len(workload.op_seconds(calls)))]
            info += workload.info(calls)

        good = check_calls(workload, calls)
        failed = len(calls) - len(good)
        missed = workload.self_check(good)
        for msg in missed:
            sys.stderr.write("self-check: %s\n" % msg)
        names_ok = list(metrics) == expected_names(args.trace)
        if not names_ok:
            sys.stderr.write("self-check: metric names differ from BENCHMARK.json\n")

        print("# facts " + json.dumps(facts(args, workload, inherited), sort_keys=True))
        info.append(("ops_failed_share", failed / len(calls), "failed/attempted",
                     "%d of %d" % (failed, len(calls))))
        for name, value, unit, n in info:
            print("# %s = %.6g %s (n=%s)" % (name, value, unit, n))
        print(json.dumps({
            "correct": failed == 0 and not missed and names_ok,
            "attempted": len(calls),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
