"""In-memory span tracer that wraps rydpol's public callables from outside.

Each wrapped call records one span: name, start, end, the index of the
span that was open when it started (its parent) and the id of the CLI
call it belongs to.  Spans stay in memory until the benchmark aggregates
them.  A span's self time is its duration minus the durations of its
child spans; the program is single-threaded here (RYDPOL_THREADS is
unset), so children never overlap.
"""

from __future__ import annotations

import sys
import time

import numpy as np

SOLVE = "eitsim.linalg_solve"
SPECTRUM = "eitsim.eit_spectrum"

# (layer name, module that defines the callable, attribute)
TARGETS = (
    ("angular.wigner3j", "rydpol.angular", "wigner3j"),
    ("sop.spherical_components", "rydpol.sop", "spherical_components"),
    ("dressing.oracle_matrix", "rydpol.dressing", "oracle_matrix"),
    ("dressing.eigen_spectrum", "rydpol.dressing", "eigen_spectrum"),
    (SPECTRUM, "rydpol.eitsim", "eit_spectrum"),
    ("eitsim.build_hamiltonian", "rydpol.eitsim", "build_hamiltonian"),
    ("eitsim.collapse_operators", "rydpol.eitsim", "collapse_operators"),
    ("eitsim.liouvillian", "rydpol.eitsim", "liouvillian"),
    ("eitsim.steady_state", "rydpol.eitsim", "steady_state"),
    ("eitsim.probe_absorption", "rydpol.eitsim", "probe_absorption"),
    ("eitsim.write_spectrogram_csv", "rydpol.eitsim", "write_spectrogram_csv"),
    ("inversion.extract_peaks", "rydpol.inversion", "extract_peaks"),
    ("inversion.invert_half", "rydpol.inversion", "invert_half"),
    ("inversion.invert_five_half", "rydpol.inversion", "invert_five_half"),
    ("inversion.round_trip", "rydpol.inversion", "round_trip"),
    ("cli.main", "rydpol.cli", "main"),
    ("cli.build_parser", "rydpol.cli", "build_parser"),
    ("cli.eit", "rydpol.cli", "cmd_eit"),
    ("cli.invert", "rydpol.cli", "cmd_invert"),
    ("cli.roundtrip", "rydpol.cli", "cmd_roundtrip"),
)

LAYERS = tuple(name for name, _, _ in TARGETS) + (SOLVE,)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.run_dims = {}  # run id -> Liouvillian dimension of that CLI call
        self._run = -1
        self._stack = []
        self._open = {}  # span name -> number of spans of that name still open
        self._restore = []

    def begin_run(self, dim) -> None:
        """Start a new CLI call; its eitsim spans are filed under dim."""
        self._run += 1
        self.run_dims[self._run] = dim

    def _wrap(self, name, fn, only_inside=None):
        spans, stack, open_ = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            if only_inside is not None and not open_.get(only_inside):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run]
            stack.append(len(spans))
            spans.append(span)
            open_[name] = open_.get(name, 0) + 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                open_[name] -= 1

        return traced

    def install(self) -> None:
        """Wrap every target, including each name a `from ... import`
        rebound in another rydpol module, and numpy.linalg.solve while
        an eit_spectrum span is open."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "rydpol" or k.startswith("rydpol."))]
        for name, module, attr in TARGETS:
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        solve = np.linalg.solve
        np.linalg.solve = self._wrap(SOLVE, solve, only_inside=SPECTRUM)
        self._restore.append((np.linalg, "solve", solve))

    def remove(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def totals(self) -> dict:
        """(layer, dim or None) -> [calls, self seconds]; only eitsim
        layers are split by Liouvillian dimension."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            dim = self.run_dims.get(run) if name.startswith("eitsim.") else None
            entry = out.setdefault((name, dim), [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[i]
        return out
