"""End-to-end acceptance checks for the polarimetry pipeline.

Each test covers one numbered acceptance criterion and emits a single
pass/fail line (written past the pytest capture so the verdicts are
always visible in the run log).
"""

import math
import sys

import numpy as np
import pytest
from scipy.signal import find_peaks

from rydpol.angular import HalfInt
from rydpol.dressing import (
    EXPERIMENTAL_CLASSES,
    TransitionClass,
    coupling_matrix,
    eigen_spectrum,
    envelopes_approx,
    envelopes_exact,
    oracle_matrix,
)
from oracles import closed_form_coupling_matrix, closed_form_eigenvalues_half, lindblad_residual
from rydpol.eitsim import (
    SimParams,
    build_hamiltonian,
    collapse_operators,
    eit_spectrum,
    scheme_for_class,
    steady_state,
    third_level_sweep,
)
from rydpol.inversion import (
    _angle_dist,
    combine_candidates,
    extract_peaks,
    invert_five_half,
    invert_half,
    peakset_from_eigenvalues,
    ratio_five_half,
    ratio_half,
)
from rydpol.sop import (
    rotated_circular_optics,
    sop_from_phi,
    standard_optics,
    tilted_linear_optics,
)

HALF_ZERO = TransitionClass.of(0.5, 0)
HALF_PLUS = TransitionClass.of(0.5, 1)
THREE_ZERO = TransitionClass.of(1.5, 0)
FIVE_HALF = TransitionClass.of(1.5, 1)


@pytest.fixture
def verdict(capfd):
    def report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = "[%s] criterion %02d %s%s\n" % (
            "PASS" if ok else "FAIL", num, name, " (%s)" % detail if detail else ""
        )
        with capfd.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
        assert ok, line.strip()

    return report


def test_criterion_01_degeneracy_counts(verdict):
    cardinal = {(1, 0): 2, (1, 1): 3, (3, 0): 4, (3, 1): 5}
    generic = {(1, 0): 4, (1, 1): 5, (3, 0): 8, (3, 1): 9}
    ok = True
    for cls in EXPERIMENTAL_CLASSES:
        key = (cls.J.twice, cls.p)
        for phi in (0.0, math.pi):
            n = eigen_spectrum(cls, phi, degeneracy_tol=1e-9).distinct_count
            ok = ok and n == cardinal[key]
        counts = [
            eigen_spectrum(cls, phi, degeneracy_tol=1e-9).distinct_count
            for phi in np.linspace(0.03, 2 * math.pi - 0.03, 97)
        ]
        ok = ok and max(counts) == generic[key]
    verdict(1, "degeneracy counts {2,3,4,5} and maxima {4,5,8,9}", ok)


def test_criterion_02_closed_form_match(verdict):
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for phi in rng.uniform(0.0, 2 * math.pi, 1000):
        ev = np.sort(np.linalg.eigvalsh(coupling_matrix(HALF_ZERO, phi)))
        ref = np.sort(closed_form_eigenvalues_half(phi))
        worst = max(worst, float(np.max(np.abs(ev - ref))))
    verdict(2, "closed-form eigenvalues, 1000 random angles",
            worst < 1e-12, "max err %.2e" % worst)


def test_criterion_03_oracle_equivalence(verdict):
    # the closed-form 3-j entry formula against the Wigner-Eckart builder
    worst = 0.0
    for cls in EXPERIMENTAL_CLASSES:
        a_all, b_all = [], []
        for phi in np.linspace(0.0, 2 * math.pi, 64):
            a_all.append(np.sort(np.linalg.eigvalsh(closed_form_coupling_matrix(cls, phi))))
            b_all.append(np.sort(np.linalg.eigvalsh(
                oracle_matrix(cls, sop_from_phi(phi)))))
        a = np.concatenate(a_all)
        b = np.concatenate(b_all)
        scale = float(np.dot(a, b) / np.dot(b, b))  # one fitted global scale
        rel = float(np.max(np.abs(a - scale * b)) / np.max(np.abs(a)))
        worst = max(worst, rel)
    verdict(3, "dipole construction matches reference matrix up to one scale",
            worst < 1e-9, "max rel err %.2e" % worst)


def test_criterion_04_envelope_fidelity(verdict):
    # exact envelopes against the eigensolve
    worst_exact = 0.0
    for phi in np.linspace(0.0, 2 * math.pi, 601):
        ev = np.sort(np.linalg.eigvalsh(coupling_matrix(FIVE_HALF, phi)))
        env = envelopes_exact(phi)
        pos = ev[ev > 1e-9]
        worst_exact = max(
            worst_exact,
            abs(ev[-1] - env.outer_plus),
            abs(ev[0] - env.outer_minus),
            abs(pos.min() - env.inner_plus),
        )
    # approximation error over a 10^4-point grid, quoted as a fraction of
    # each envelope's peak-to-peak range
    phis = np.linspace(0.0, 2 * math.pi, 10000)
    eo = np.array([envelopes_exact(p).outer_plus for p in phis])
    ei = np.array([envelopes_exact(p).inner_plus for p in phis])
    ao = np.array([envelopes_approx(p).outer_plus for p in phis])
    ai = np.array([envelopes_approx(p).inner_plus for p in phis])
    dev_o = float(np.abs(ao - eo).max() / (2 * eo.max()))
    dev_i = float(np.abs(ai - ei).max() / (2 * ei.max()))
    ok = worst_exact < 1e-9 and dev_o < 1e-3 and dev_i < 1e-2
    verdict(4, "envelopes exact to 1e-9; approximation within 0.1%/1%",
            ok, "exact %.1e, outer %.3f%%, inner %.3f%%"
            % (worst_exact, 100 * dev_o, 100 * dev_i))


def test_criterion_05_ratio_bounds(verdict):
    r_lo, r_hi = math.sqrt(1.5), math.sqrt(10.0)
    ok = True
    # (3/2, +-): R in [sqrt(3/2), sqrt(10)], extremes at the cardinal angles
    vals = []
    for phi in np.linspace(1e-4, 2 * math.pi - 1e-4, 2001):
        ps = peakset_from_eigenvalues(
            eigen_spectrum(FIVE_HALF, phi).eigenvalues)
        vals.append(ratio_five_half(ps))
    vals = np.array(vals)
    ok = ok and vals.min() > r_lo - 1e-6 and vals.max() < r_hi + 1e-6
    for phi in (0.0, math.pi):
        ps = peakset_from_eigenvalues(
            eigen_spectrum(FIVE_HALF, phi).eigenvalues)
        ok = ok and abs(ratio_five_half(ps) - r_lo) < 1e-6
    for phi in (math.pi / 2, 3 * math.pi / 2):
        ps = peakset_from_eigenvalues(
            eigen_spectrum(FIVE_HALF, phi).eigenvalues)
        ok = ok and abs(ratio_five_half(ps) - r_hi) < 1e-6
    # (1/2, 0): R in [0, 1], R = 1 at phi in {0, pi}, R = 0 at {pi/2, 3pi/2}
    for phi in np.linspace(1e-4, 2 * math.pi - 1e-4, 2001):
        ps = peakset_from_eigenvalues(
            eigen_spectrum(HALF_ZERO, phi).eigenvalues)
        r = ratio_half(ps)
        ok = ok and -1e-6 <= r <= 1.0 + 1e-6
    for phi, expect in ((0.0, 1.0), (math.pi, 1.0)):
        ps = peakset_from_eigenvalues(
            eigen_spectrum(HALF_ZERO, phi).eigenvalues)
        ok = ok and abs(ratio_half(ps) - expect) < 1e-6
    for phi in (math.pi / 2, 3 * math.pi / 2):
        ev = np.sort(np.abs(eigen_spectrum(HALF_ZERO, phi).eigenvalues))
        ok = ok and ev[1] < 1e-6  # inner pair collapses, R -> 0
    verdict(5, "ratio spans [sqrt(3/2), sqrt(10)] and [0, 1] with correct extremes", ok)


def test_criterion_06_eigenvalue_round_trip(verdict):
    phis = (np.arange(180) + 0.5) * (2 * math.pi / 180.0)
    ok = True
    worst = 0.0
    for phi in phis:
        ps = peakset_from_eigenvalues(
            eigen_spectrum(HALF_ZERO, phi).eigenvalues)
        out = invert_half(ratio_half(ps))
        ok = ok and out.ambiguity_class == "fourfold"
        worst = max(worst, min(_angle_dist(phi, c) for c in out.candidates))

        ps = peakset_from_eigenvalues(
            eigen_spectrum(FIVE_HALF, phi).eigenvalues)
        lo, hi = math.pi / 2, 3 * math.pi / 2
        prominent = 1.0 if lo <= phi <= hi else 0.0
        out = invert_five_half(ratio_five_half(ps), prominent, 0.5,
                               config="standard")
        ok = ok and out.ambiguity_class == "twofold"
        pair = sorted(out.pruned)
        ok = ok and _angle_dist(pair[0], min(phi, 2 * math.pi - phi)) < 1e-6
        ok = ok and _angle_dist(pair[-1], max(phi, 2 * math.pi - phi)) < 1e-6
        worst = max(worst, min(_angle_dist(phi, c) for c in out.pruned))
    ok = ok and worst < 1e-6
    verdict(6, "180-angle round trip, fourfold and pruned twofold sets",
            ok, "max err %.1e rad" % worst)


def _test_phi_grid():
    # 24 angles, all at least 10 degrees from the degenerate cardinal points
    quad = np.array([12.0, 25.0, 38.0, 52.0, 65.0, 78.0])
    return np.radians(np.concatenate([90.0 * q + quad for q in range(4)]))


def test_criterion_07_eit_round_trip(verdict):
    tol = math.radians(5.0)
    grid = _test_phi_grid()
    ok = True
    worst = 0.0

    scheme = scheme_for_class(HALF_ZERO)
    params = SimParams(coupling_detuning_grid=tuple(np.linspace(-65, 65, 261)))
    for phi in grid:
        spec = eit_spectrum(scheme, params, float(phi))
        ps = extract_peaks(spec.detuning_mhz, spec.response, merge_tol=2.0)
        out = invert_half(ratio_half(ps, tol=1e-3), tol=1e-3)
        err = min(_angle_dist(phi, c) for c in out.candidates)
        worst = max(worst, err)
        ok = ok and err < tol

    scheme = scheme_for_class(FIVE_HALF)
    params = SimParams(
        omega_coupling=2.0,
        optics=tilted_linear_optics(),
        coupling_detuning_grid=tuple(np.linspace(-65, 65, 521)),
    )
    for phi in grid:
        spec = eit_spectrum(scheme, params, float(phi))
        ps = extract_peaks(spec.detuning_mhz, spec.response,
                           min_prominence=0.003, merge_tol=1.0, central_tol=3.0)
        out = invert_five_half(ratio_five_half(ps), 0.0, 0.5, tol=0.3)
        err = min(_angle_dist(phi, c) for c in out.candidates)
        worst = max(worst, err)
        ok = ok and err < tol
    verdict(7, "EIT-level recovery within 5 degrees on a 24-angle grid",
            ok, "worst %.2f deg" % math.degrees(worst))


def test_criterion_08_laporte_absence(verdict):
    scheme = scheme_for_class(HALF_PLUS)
    params = SimParams(coupling_detuning_grid=tuple(np.linspace(-60, 60, 241)))
    half_linewidth = params.gamma_i / 2.0
    closest = math.inf
    for phi in np.linspace(0.0, 2 * math.pi, 9):
        spec = eit_spectrum(scheme, params, float(phi))
        span = float(np.ptp(spec.response))
        if span <= 0:
            continue
        idx, _ = find_peaks(spec.response, prominence=0.005 * span)
        if idx.size:
            closest = min(closest, float(np.abs(spec.detuning_mhz[idx]).min()))
    verdict(8, "no central line for the 1/2^+ class at any angle",
            closest > half_linewidth, "closest peak %.1f MHz" % closest)


def test_criterion_09_symmetry_breaking(verdict):
    scheme = scheme_for_class(FIVE_HALF)
    # (a) mirror symmetry under the standard optics
    full = SimParams(coupling_detuning_grid=tuple(np.linspace(-60, 60, 121)))
    rms_rel = 0.0
    for phi in (0.7, 1.6, 2.4):
        a = eit_spectrum(scheme, full, phi).response
        b = eit_spectrum(scheme, full, 2 * math.pi - phi).response
        rms_rel = max(rms_rel, float(np.sqrt(np.mean((a - b) ** 2)) / a.max()))
    ok_mirror = rms_rel < 0.01

    # (b) handedness-sensitive optics break it at the central line
    mini = tuple(np.linspace(-4, 4, 25))
    p_std = SimParams(coupling_detuning_grid=mini)
    p_rot = SimParams(coupling_detuning_grid=mini, optics=rotated_circular_optics())

    def height(params, phi):
        return float(eit_spectrum(scheme, params, phi).response.max())

    h_a = height(p_rot, math.pi / 2)
    h_b = height(p_rot, 3 * math.pi / 2)
    factor = h_a / h_b
    ok_factor = factor > 2.0

    # (c) combining both configurations singles out one phase angle
    thr_std = height(p_std, math.pi / 2)
    thr_rot = math.sqrt(h_a * h_b)
    p_full = SimParams(omega_coupling=2.0,
                       coupling_detuning_grid=tuple(np.linspace(-65, 65, 521)))
    ok_combined = True
    for phi_true in (0.7, 1.0):
        spec = eit_spectrum(scheme, p_full, phi_true)
        ps = extract_peaks(spec.detuning_mhz, spec.response,
                           min_prominence=0.003, merge_tol=1.0, central_tol=3.0)
        R = ratio_five_half(ps)
        first = invert_five_half(R, height(p_std, phi_true), thr_std,
                                 config="standard", tol=0.3)
        second = invert_five_half(R, height(p_rot, phi_true), thr_rot,
                                  config="rotated_circular", tol=0.3)
        combined = combine_candidates(first.pruned, second.pruned, angle_tol=0.08)
        ok_combined = ok_combined and len(combined) == 1
        ok_combined = ok_combined and _angle_dist(combined[0], phi_true) < 0.05

    verdict(9, "mirror symmetry, >2x prominence contrast, combined-unique angle",
            ok_mirror and ok_factor and ok_combined,
            "rms %.1e, factor %.2f" % (rms_rel, factor))


def test_criterion_10_third_level_distortion(verdict):
    scheme3 = scheme_for_class(THREE_ZERO, third_delta3_mhz=100.0)
    scheme0 = scheme_for_class(THREE_ZERO)
    params = SimParams(omega_rf=15.0, gamma_r=0.5,
                       coupling_detuning_grid=tuple(np.linspace(-24, 24, 49)))
    phis = np.linspace(0.4, 2 * math.pi - 0.4, 5)
    ref = np.vstack([eit_spectrum(scheme0, params, float(v)).response for v in phis])
    rms = []
    for spg in third_level_sweep(scheme3, params, [1e6, 350.0, 200.0, 100.0], phis):
        rms.append(float(np.sqrt(np.mean((spg.response - ref) ** 2))))
    ok = all(x < y for x, y in zip(rms, rms[1:]))
    verdict(10, "distortion grows monotonically as the third level approaches",
            ok, "rms " + ", ".join("%.2e" % v for v in rms))


def test_criterion_11_steady_state_sanity(verdict):
    rng = np.random.default_rng(7)
    optics = (standard_optics, rotated_circular_optics, tilted_linear_optics)
    worst_tr = worst_eig = worst_res = 0.0
    for _ in range(100):
        cls = EXPERIMENTAL_CLASSES[rng.integers(len(EXPERIMENTAL_CLASSES))]
        scheme = scheme_for_class(cls)
        params = SimParams(
            omega_probe=float(rng.uniform(0.1, 1.5)),
            omega_coupling=float(rng.uniform(0.5, 6.0)),
            omega_rf=float(rng.uniform(5.0, 50.0)),
            gamma_i=float(rng.uniform(2.0, 8.0)),
            gamma_r=float(rng.uniform(0.05, 1.0)),
            optics=optics[rng.integers(3)](),
        )
        phi = float(rng.uniform(0.0, 2 * math.pi))
        dc = float(rng.uniform(-30.0, 30.0))
        H = build_hamiltonian(scheme, params, phi, dc)
        ops = collapse_operators(scheme, params)
        rho = steady_state(H, ops)
        worst_tr = max(worst_tr, abs(float(np.trace(rho).real) - 1.0))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(rho).min()))
        worst_res = max(worst_res, lindblad_residual(H, ops, rho))
    ok = worst_tr < 1e-10 and worst_eig < 1e-8 and worst_res < 1e-10
    verdict(11, "100 random steady states: trace, positivity, residual",
            ok, "tr %.1e, eig %.1e, res %.1e" % (worst_tr, worst_eig, worst_res))
