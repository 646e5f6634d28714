"""Recover candidate phase angles from dressed-state spectra.

Two inversion kernels exist, one per invertible class, and they use
*different* ratio conventions:

* (1/2, 0):   R = inner span / outer span, 0 <= R <= 1
* (3/2, +-):  R = outer span / inner span, sqrt(3/2) <= R <= sqrt(10)

Both produce a principal angle and the fourfold candidate set
{phi, pi-phi, pi+phi, 2pi-phi}.  For (3/2, +-) the prominence of the
central peak prunes the set to a twofold {phi, 2pi-phi} pair; combining
measurements in the standard and rotated_circular optical configurations
singles out a unique phi.  invert_peaks is the one map from a class and
its peaks to candidates; the CLI and round_trip both go through it, and
measured and ideal spectra get their outer, inner and central lines from
the one role assignment, _assign_roles.

Everything here is numpy and math: peaks come from a local-maximum scan
with a prominence threshold, and the (3/2, +-) principal angle from a
bracketed Newton iteration on s = |sin phi|, on which the exact envelope
ratio is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dressing import TransitionClass, eigen_spectrum, envelope_squares, envelopes_exact

_TWO_PI = 2.0 * math.pi
# candidates closer than this (radians) are one candidate, and a candidate
# this close to a prominence-interval edge counts as inside it; near the
# circular SOPs the 3/2^+- kernel resolves phi only to about sqrt(ulp)
_ANGLE_TOL = 1e-7
R_FIVE_MIN = math.sqrt(1.5)
R_FIVE_MAX = math.sqrt(10.0)


class InversionError(Exception):
    pass


class NotInvertible(InversionError):
    pass


@dataclass(frozen=True)
class PeakSet:
    positions: tuple
    prominences: tuple
    lambda_o_plus: float
    lambda_o_minus: float
    lambda_i_plus: float
    lambda_i_minus: float
    central_prominence: float = 0.0

    def __post_init__(self):
        if not (
            self.lambda_o_minus <= self.lambda_i_minus <= 0.0
            and 0.0 <= self.lambda_i_plus <= self.lambda_o_plus
        ):
            raise InversionError(
                "peak pairs must straddle zero: %r"
                % [self.lambda_o_minus, self.lambda_i_minus,
                   self.lambda_i_plus, self.lambda_o_plus]
            )


@dataclass(frozen=True)
class PhaseCandidates:
    principal: float
    candidates: tuple
    pruned: tuple
    ratio: float

    @property
    def ambiguity_class(self) -> str:
        return {1: "unique", 2: "twofold"}.get(len(self.pruned), "fourfold")


def _angle_dist(a: float, b: float) -> float:
    d = abs((a - b) % _TWO_PI)
    return min(d, _TWO_PI - d)


def _find_peaks(y: np.ndarray, thr: float) -> tuple:
    """Indices and prominences of the local maxima of y with prominence
    >= thr, bit for bit those of find_peaks(y, prominence=thr), which the
    tests compare it with.

    A run of equal samples counts once, at its middle index (rounded
    down), and a run touching either end is no peak.  A peak's prominence
    is its height minus the larger of the two side minima, each taken out
    to the nearest strictly higher sample.  It never exceeds y[k] - y.min(),
    so maxima with y[k] - y.min() < thr are dropped before the scan.
    """
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    v = y[starts]
    ends = np.append(starts[1:], y.size) - 1
    up = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    mids = (starts[1:-1][up] + ends[1:-1][up]) // 2
    idx, proms = [], []
    for k in mids[y[mids] - y.min() >= thr]:
        h = y[k]
        left = np.flatnonzero(y[:k] > h)
        right = np.flatnonzero(y[k + 1 :] > h)
        lo = left[-1] + 1 if left.size else 0
        hi = k + 1 + right[0] if right.size else y.size
        prom = h - max(y[lo : k + 1].min(), y[k:hi].min())
        if prom >= thr:
            idx.append(int(k))
            proms.append(float(prom))
    return idx, proms


def _refine_quadratic(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Sub-sample position of the peak at interior index k: the vertex of
    the parabola through the three samples around it, from divided
    differences."""
    x0, x1, x2 = x[k - 1 : k + 2].tolist()
    y0, y1, y2 = y[k - 1 : k + 2].tolist()
    d01 = (y1 - y0) / (x1 - x0)
    a = ((y2 - y1) / (x2 - x1) - d01) / (x2 - x0)
    if a < 0:
        xm = 0.5 * (x0 + x1) - d01 / (2.0 * a)
        if x0 <= xm <= x2:
            return xm
    return x1  # not locally concave, or vertex outside the bracket


def extract_peaks(
    detuning,
    amplitude,
    min_prominence: float = 0.05,
    merge_tol: float = 0.0,
    central_tol: float | None = None,
) -> PeakSet:
    """Locate spectral peaks and assign the outer/inner eigenvalue pairs.

    min_prominence is relative to the amplitude range.  merge_tol merges
    peaks closer than the given detuning distance at their
    prominence-weighted centroid.  central_tol (defaults to merge_tol)
    decides whether a peak counts as the central Delta_c = 0 feature.
    """
    x = np.asarray(detuning, dtype=float)
    y = np.asarray(amplitude, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("detuning and amplitude must be equal-length 1-D")
    if x.size < 8:
        raise ValueError("need at least 8 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("detuning and amplitude must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("detuning grid must be strictly increasing")
    if central_tol is None:
        central_tol = merge_tol

    with np.errstate(over="ignore"):
        span = float(np.ptp(y))
    if not math.isfinite(span):
        raise ValueError("amplitude range must be finite")
    if span <= 0:
        raise InversionError("flat spectrum")
    idx, proms = _find_peaks(y, min_prominence * span)
    if not idx:
        raise InversionError("no peaks above prominence threshold")
    peaks = sorted((_refine_quadratic(x, y, k), prom) for k, prom in zip(idx, proms))

    if merge_tol > 0:
        merged = []
        for pos, prom in peaks:
            if merged and pos - merged[-1][0] < merge_tol:
                p0, w0 = merged[-1]
                merged[-1] = ((p0 * w0 + pos * prom) / (w0 + prom), w0 + prom)
            else:
                merged.append((pos, prom))
        peaks = merged
    return _assign_roles(peaks, central_tol)


def _assign_roles(peaks: list, central_tol: float) -> PeakSet:
    """PeakSet of sorted (position, prominence) pairs: lines within
    central_tol of zero are the central feature, the outermost side line on
    each side is outer and the innermost is inner."""
    central = [w for p, w in peaks if abs(p) <= central_tol]
    side = [p for p, _ in peaks if abs(p) > central_tol]
    neg = [p for p in side if p < 0]
    pos = [p for p in side if p > 0]

    if len(side) >= 2 and not (neg and pos):
        raise InversionError("all side peaks on one side of zero detuning")
    if len(side) < 4 and len(side) != 2:
        raise InversionError("found %d side peaks" % len(side))
    lo_m, lo_p = min(neg), max(pos)
    if len(side) >= 4:
        li_m, li_p = max(neg), min(pos)
    elif central:
        # central feature is the coalesced inner pair
        li_m = li_p = 0.0
    else:
        # two-peak degenerate spectrum: inner and outer pairs coincide
        li_m, li_p = lo_m, lo_p
    return PeakSet(tuple(p for p, _ in peaks), tuple(w for _, w in peaks),
                   lo_p, lo_m, li_p, li_m, max(central, default=0.0))


def ratio_half(peaks: PeakSet, tol: float = 1e-9) -> float:
    """Inner span over outer span for a (1/2, 0) spectrum.  PeakSet orders
    the four lines, and rounding is monotone, so 0 <= R <= 1 exactly."""
    outer = peaks.lambda_o_plus - peaks.lambda_o_minus
    if outer <= tol:
        raise InversionError("outer span %g below tolerance" % outer)
    return (peaks.lambda_i_plus - peaks.lambda_i_minus) / outer


def invert_half(R: float, tol: float = 1e-9) -> PhaseCandidates:
    """Candidate phases for a (1/2, 0) ratio: phi~ = 2[pi/4 - arctan R]."""
    if R < -tol or R > 1.0 + tol:
        raise InversionError("ratio %g outside [0, 1]" % R)
    R = min(max(R, 0.0), 1.0)
    principal = 2.0 * (math.pi / 4.0 - math.atan(R))
    cands = _fourfold(principal)
    return PhaseCandidates(principal, cands, cands, R)


def _distinct(angles, tol: float) -> tuple:
    """Sorted angles less any within tol of the last one kept, across 2pi too."""
    out = []
    for c in sorted(angles):
        if not out or _angle_dist(c, out[-1]) > tol:
            out.append(c)
    if len(out) > 1 and _angle_dist(out[0], out[-1]) <= tol:
        out.pop()
    return tuple(out)


def _fourfold(principal: float) -> tuple:
    return _distinct([
        principal % _TWO_PI,
        (math.pi - principal) % _TWO_PI,
        (math.pi + principal) % _TWO_PI,
        (_TWO_PI - principal) % _TWO_PI,
    ], _ANGLE_TOL)


def ratio_five_half(peaks: PeakSet, tol: float = 1e-9) -> float:
    """Outer span over inner span for a (3/2, +-) spectrum."""
    inner = peaks.lambda_i_plus - peaks.lambda_i_minus
    if inner <= tol:
        raise InversionError("inner span %g below tolerance" % inner)
    return (peaks.lambda_o_plus - peaks.lambda_o_minus) / inner


def envelope_ratio_exact(phi: float) -> float:
    e = envelopes_exact(phi)
    return e.outer_plus / e.inner_plus


def phase_from_ratio_exact(R: float) -> float:
    """Principal angle in [0, pi/2] solving the exact envelope ratio.

    The ratio depends on phi only through s = |sin phi| and rises
    monotonically from sqrt(3/2) at s = 0 to sqrt(10) at s = 1; R at or
    beyond either end returns that end.  Inside, s is the root of
    f(s) = u^2 - R^2 v^2 with u = 5 outer and v = 5 inner (their squares
    and derivatives from dressing.envelope_squares), so f has the
    sign of ratio - R.  f is convex (u^2 is, v^2 is concave), so Newton
    steps from s = 1 descend onto the root within the bracket [0, s]; a
    step out of it is replaced by the midpoint, and the loop stops when
    the iterate stops moving, after 4 to 7 steps for most R.
    """
    if R <= R_FIVE_MIN:
        return 0.0
    if R >= R_FIVE_MAX:
        return math.pi / 2.0
    R2 = R * R
    s = 1.0
    while True:
        u2, v2, du2, dv2 = envelope_squares(s)
        t = s - (u2 - R2 * v2) / (du2 - R2 * dv2)
        if t <= 0.0:
            t = 0.5 * s
        if not t < s:
            return math.asin(s)
        s = t


# phi interval in which the central peak is prominent, per optics
# configuration; its keys are the configurations the inversion knows
PROMINENCE_INTERVALS = {
    "standard": (math.pi / 2.0, 3.0 * math.pi / 2.0),
    "rotated_circular": (0.0, math.pi),
}


def prominence_interval(config: str) -> tuple:
    """phi interval in which the central peak is prominent for an optics
    configuration; ValueError for any other name, unhashable ones included."""
    try:
        return PROMINENCE_INTERVALS[config]
    except (KeyError, TypeError):
        raise ValueError("unknown optics configuration %r (choices: %s)"
                         % (config, ", ".join(PROMINENCE_INTERVALS))) from None


def _in_prominence_interval(phi: float, config: str) -> bool:
    """phi in the configuration's prominence interval, widened by _ANGLE_TOL."""
    lo, hi = prominence_interval(config)
    return lo - _ANGLE_TOL <= phi <= hi + _ANGLE_TOL


def invert_five_half(
    R: float,
    central_prominence: float,
    central_threshold: float,
    config: str = "standard",
    tol: float = 1e-6,
) -> PhaseCandidates:
    """Candidate phases for a (3/2, +-) ratio, pruned by the central-peak
    prominence; the principal angle solves the exact envelope ratio.
    """
    if R < R_FIVE_MIN - tol or R > R_FIVE_MAX + tol:
        raise InversionError(
            "ratio %g outside [sqrt(3/2), sqrt(10)]" % R
        )
    R = min(max(R, R_FIVE_MIN), R_FIVE_MAX)
    principal = phase_from_ratio_exact(R)
    cands = _fourfold(principal)
    pruned = _prune(cands, central_prominence > central_threshold, config)
    return PhaseCandidates(principal, cands, pruned, R)


def _prune(cands: tuple, inside: bool, config: str) -> tuple:
    """The candidates in the configuration's prominence interval if the
    central peak is prominent, else those outside; all if none qualify."""
    return tuple(c for c in cands if _in_prominence_interval(c, config) == inside) or cands


def config_free(cls: TransitionClass) -> bool:
    """True for (1/2, 0), False for (3/2, +-), NotInvertible otherwise."""
    if cls.J.twice == 1 and cls.p == 0:
        return True
    if cls.J.twice == 3 and cls.p != 0:
        return False
    raise NotInvertible("class %s is not invertible; supported classes are 1/2^0 "
                        "and 3/2^+-" % cls.label())


def invert_peaks(cls: TransitionClass, peaks: PeakSet, central_prominence: float,
                 central_threshold: float, config: str, tol: float) -> PhaseCandidates:
    """Candidate phases of a class's peaks, the one map from a class to its
    ratio and kernel: inner/outer into invert_half for (1/2, 0), which needs
    no other argument; outer/inner into invert_five_half for (3/2, +-)."""
    if config_free(cls):
        return invert_half(ratio_half(peaks))
    return invert_five_half(ratio_five_half(peaks), central_prominence,
                            central_threshold, config=config, tol=tol)


def combine_candidates(first, second, angle_tol: float = 1e-6) -> tuple:
    """Intersection of two candidate angle sets (e.g. the pruned sets of the
    two optics runs); near phi = k pi/2 one candidate can match two, so
    matches within angle_tol of each other are one angle."""
    out = []
    for a in first:
        for b in second:
            if _angle_dist(a, b) <= angle_tol:
                out.append((a + b) / 2.0 if abs(a - b) < math.pi else a)
    return _distinct(out, angle_tol)


def peakset_from_eigenvalues(eigenvalues) -> PeakSet:
    """Idealized PeakSet taken directly from dressed eigenvalues, each a
    line of prominence 1 with no line shape; the route for eigenvalue-level
    round trips.  Eigenvalues within 1e-9 of zero count as the central line."""
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    return _assign_roles([(float(v), 1.0) for v in ev], 1e-9)


@dataclass(frozen=True)
class RoundTripReport:
    phi_true: float
    combined: tuple
    recovered: bool


def round_trip(
    cls: TransitionClass,
    phi_true: float,
    configs=("standard",),
    angle_tol: float = 1e-6,
) -> RoundTripReport:
    """Eigenvalue-level forward-and-back check: spectrum -> ratio -> phases.

    For the (3/2, +) class the central-peak prominence is modeled ideally:
    prominent exactly when phi_true falls in the configuration's
    prominence interval, widened by the pruning's _ANGLE_TOL.  (EIT-level
    round trips with simulated line shapes live in the eitsim demos/tests.)
    The spectrum is inverted once, for the first configuration; each other
    configuration prunes the same fourfold candidates.  combined intersects
    the configurations' pruned sets; it is empty, and the trip not
    recovered, when they contradict each other.
    """
    phi_true = phi_true % _TWO_PI
    free = config_free(cls)  # NotInvertible before any peak error
    peaks = peakset_from_eigenvalues(eigen_spectrum(cls, phi_true).eigenvalues)
    if free:  # the (1/2, 0) kernel reads neither the prominence nor the config
        configs = ("standard",)
    # a configuration named twice counts once
    first, *others = dict.fromkeys(configs)
    result = invert_peaks(cls, peaks, float(_in_prominence_interval(phi_true, first)),
                          0.5, first, 1e-6)
    combined = result.pruned
    for config in others:
        pruned = _prune(result.candidates, _in_prominence_interval(phi_true, config), config)
        combined = combine_candidates(combined, pruned, max(angle_tol, 1e-9))
    recovered = any(_angle_dist(phi_true, c) <= angle_tol for c in combined)
    return RoundTripReport(phi_true, combined, recovered)
