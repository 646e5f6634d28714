import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.signal import find_peaks

from oracles import phase_from_ratio_approx
from rydpol.dressing import TransitionClass, eigen_spectrum, envelopes_exact
from rydpol.inversion import (
    R_FIVE_MAX,
    R_FIVE_MIN,
    DegenerateInner,
    DegenerateOuter,
    FewerThanFourPeaks,
    NonStraddling,
    NotInvertible,
    OutOfRange,
    PeakSet,
    PhaseCandidates,
    _angle_dist,
    _find_peaks,
    _refine_quadratic,
    combine_candidates,
    envelope_ratio_exact,
    extract_peaks,
    invert_five_half,
    invert_half,
    invert_peaks,
    peakset_from_eigenvalues,
    phase_from_ratio_exact,
    prominence_interval,
    ratio_five_half,
    ratio_half,
    round_trip,
)

HALF_ZERO = TransitionClass.of(0.5, 0)
FIVE_HALF = TransitionClass.of(1.5, 1)


def in_pruned(out, phi, tol):
    return any(_angle_dist(phi, c) <= tol for c in out.pruned)


def lorentzian_sum(x, centers, width=0.05, heights=None):
    if heights is None:
        heights = [1.0] * len(centers)
    y = np.zeros_like(x)
    for c, h in zip(centers, heights):
        y += h * width**2 / ((x - c) ** 2 + width**2)
    return y


class TestExtractPeaks:
    def test_four_lorentzians_recovered(self):
        x = np.linspace(-1.5, 1.5, 4001)
        y = lorentzian_sum(x, [-0.9, -0.3, 0.3, 0.9])
        ps = extract_peaks(x, y)
        assert ps.lambda_o_minus == pytest.approx(-0.9, rel=5e-3)
        assert ps.lambda_i_minus == pytest.approx(-0.3, rel=5e-3)
        assert ps.lambda_i_plus == pytest.approx(0.3, rel=5e-3)
        assert ps.lambda_o_plus == pytest.approx(0.9, rel=5e-3)

    def test_subsample_refinement(self):
        # peak centers deliberately off the grid
        x = np.linspace(-1.5, 1.5, 301)
        y = lorentzian_sum(x, [-0.923, -0.311, 0.287, 0.905], width=0.08)
        ps = extract_peaks(x, y)
        assert ps.lambda_o_plus == pytest.approx(0.905, abs=2e-3)
        assert ps.lambda_i_minus == pytest.approx(-0.311, abs=2e-3)

    def test_central_peak_classified(self):
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [-0.9, -0.3, 0.0, 0.3, 0.9])
        ps = extract_peaks(x, y, central_tol=0.05)
        assert ps.central_prominence > 0.5
        assert ps.lambda_i_plus == pytest.approx(0.3, rel=5e-3)

    def test_no_central_peak_zero_prominence(self):
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [-0.9, -0.3, 0.3, 0.9])
        ps = extract_peaks(x, y, central_tol=0.05)
        assert ps.central_prominence == 0.0

    def test_merge_close_peaks(self):
        x = np.linspace(-1.5, 1.5, 6001)
        y = lorentzian_sum(x, [-0.9, -0.32, -0.28, 0.28, 0.32, 0.9], width=0.012)
        ps = extract_peaks(x, y, merge_tol=0.1, central_tol=0.05)
        assert ps.lambda_i_plus == pytest.approx(0.3, abs=0.02)
        assert ps.lambda_i_minus == pytest.approx(-0.3, abs=0.02)

    def test_small_prominence_ignored(self):
        x = np.linspace(-1.5, 1.5, 4001)
        y = lorentzian_sum(x, [-0.9, -0.3, 0.3, 0.9, 1.2],
                           heights=[1, 1, 1, 1, 0.01])
        ps = extract_peaks(x, y, min_prominence=0.05)
        assert ps.lambda_o_plus == pytest.approx(0.9, rel=5e-3)

    def test_flat_spectrum_raises(self):
        x = np.linspace(-1, 1, 101)
        with pytest.raises(FewerThanFourPeaks):
            extract_peaks(x, np.ones_like(x))

    def test_one_sided_raises(self):
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [0.3, 0.6, 0.9, 1.2])
        with pytest.raises(NonStraddling):
            extract_peaks(x, y)

    def test_too_few_peaks_raises(self):
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [0.5])
        with pytest.raises(FewerThanFourPeaks):
            extract_peaks(x, y)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            extract_peaks([0, 1, 1, 2, 3, 4, 5, 6], np.zeros(8))

    @pytest.mark.parametrize("where", ["detuning", "amplitude"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, where, bad):
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [-0.9, -0.4, 0.4, 0.9])
        (x if where == "detuning" else y)[1000] = bad
        with pytest.raises(ValueError, match="finite"):
            extract_peaks(x, y)

    def test_length_mismatch_rejected(self):
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [-0.9, -0.4, 0.4, 0.9])
        with pytest.raises(ValueError, match="equal-length"):
            extract_peaks(x, y[:-5])

    def test_two_side_peaks_plus_central(self):
        # coalesced inner pair shows up as the central feature
        x = np.linspace(-1.5, 1.5, 2001)
        y = lorentzian_sum(x, [-0.9, 0.0, 0.9])
        ps = extract_peaks(x, y, central_tol=0.05)
        assert ps.lambda_i_plus == 0.0
        assert ps.lambda_o_plus == pytest.approx(0.9, rel=5e-3)


class TestFindPeaks:
    """The numpy peak finder against scipy.signal.find_peaks."""

    @settings(max_examples=400, deadline=None)
    @given(y=st.lists(st.integers(0, 4), min_size=1, max_size=40), pick=st.integers(0, 50))
    @example(y=[0, 2, 2, 2, 0], pick=0)  # plateau: one peak at its middle
    @example(y=[0, 2, 2, 0, 1], pick=0)  # even plateau: middle rounded down
    @example(y=[3, 3, 1, 2, 1, 3, 3], pick=0)  # edge plateaus are no peaks
    @example(y=[4, 1, 3, 1, 4], pick=0)  # edge maxima are no peaks
    @example(y=[0, 2, 0, 2, 0, 2, 0], pick=0)  # equal heights
    @example(y=[0, 3, 1, 4, 1, 3, 0], pick=3)  # threshold at a prominence (2)
    def test_matches_scipy(self, y, pick):
        y = np.asarray(y, dtype=float)
        # thresholds at every prominence scipy reports, plus ones between
        # and beyond them
        proms = find_peaks(y, prominence=0.0)[1]["prominences"]
        thresholds = sorted(set(proms.tolist()) | {0.0, 0.5, 1.5, 10.0})
        thr = thresholds[pick % len(thresholds)]
        idx, props = find_peaks(y, prominence=thr)
        mine_idx, mine_proms = _find_peaks(y, thr)
        assert mine_idx == idx.tolist()
        assert mine_proms == props["prominences"].tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        h=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        dx=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    )
    def test_refine_vertex_matches_polyfit(self, h, dx):
        x = np.array([0.0, dx[0], dx[0] + dx[1]])
        y = np.array(h)
        a, b, _ = np.polyfit(x, y, 2)
        if abs(a) <= 1e-6:  # the sign of a nearly flat fit is rounding
            return
        vertex = -b / (2.0 * a)
        xm = _refine_quadratic(x, y, 1)
        if a > 0 or not x[0] - 1e-6 <= vertex <= x[2] + 1e-6:
            assert xm == x[1]
        elif x[0] + 1e-6 <= vertex <= x[2] - 1e-6:
            assert xm == pytest.approx(vertex, abs=1e-9)


class TestPeakSet:
    def test_straddle_invariant(self):
        with pytest.raises(NonStraddling):
            PeakSet((), (), 0.9, -0.9, 0.3, 0.4)

    def test_valid(self):
        ps = PeakSet((), (), 0.9, -0.9, 0.3, -0.3)
        assert ps.lambda_o_plus == 0.9


class TestHalfKernel:
    def test_ratio(self):
        ps = PeakSet((), (), 0.9, -0.9, 0.3, -0.3)
        assert ratio_half(ps) == pytest.approx(1.0 / 3.0)

    def test_degenerate_outer(self):
        ps = PeakSet((), (), 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateOuter):
            ratio_half(ps)

    def test_invert_formula(self):
        # R = tan(pi/4 - phi/2)
        for phi in (0.1, 0.8, 1.4):
            R = math.tan(math.pi / 4 - phi / 2)
            out = invert_half(R)
            assert out.principal == pytest.approx(phi, abs=1e-12)

    def test_fourfold_set(self):
        out = invert_half(0.5)
        assert out.ambiguity_class == "fourfold"
        p = out.principal
        expect = sorted([p, math.pi - p, math.pi + p, 2 * math.pi - p])
        assert list(out.candidates) == pytest.approx(expect, abs=1e-12)

    def test_degenerate_candidates_deduplicated(self):
        out = invert_half(1.0)  # phi = 0: {0, pi}
        assert out.ambiguity_class == "twofold"

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            invert_half(1.5)

    def test_round_trip_against_eigenvalues(self):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0.05, math.pi / 2 - 0.05, 25):
            spec = eigen_spectrum(HALF_ZERO, phi)
            ps = peakset_from_eigenvalues(HALF_ZERO, spec.eigenvalues)
            out = invert_half(ratio_half(ps))
            assert in_pruned(out, phi, 1e-9)


class TestFiveHalfKernel:
    def test_ratio(self):
        ps = PeakSet((), (), 1.0, -1.0, 0.5, -0.5)
        assert ratio_five_half(ps) == pytest.approx(2.0)

    def test_degenerate_inner(self):
        ps = PeakSet((), (), 1.0, -1.0, 0.0, 0.0)
        with pytest.raises(DegenerateInner):
            ratio_five_half(ps)

    def test_exact_inversion_consistent(self):
        for phi in (0.2, 0.7, 1.2, 1.5):
            R = envelope_ratio_exact(phi)
            assert phase_from_ratio_exact(R) == pytest.approx(phi, abs=1e-10)

    def test_matches_brentq(self):
        for phi in np.linspace(0.0, math.pi / 2 - 0.01, 301):
            R = envelope_ratio_exact(phi)
            if R <= R_FIVE_MIN:
                continue
            ref = brentq(lambda f: envelope_ratio_exact(f) - R, 0.0, math.pi / 2, xtol=1e-13)
            assert abs(phase_from_ratio_exact(R) - ref) <= 1e-12

    def test_ratio_residual_over_whole_range(self):
        # near pi/2 dR/dphi -> 0 and phi is ill-conditioned, so the whole
        # range is checked through the ratio it reproduces
        for R in np.linspace(R_FIVE_MIN, R_FIVE_MAX, 1001):
            assert abs(envelope_ratio_exact(phase_from_ratio_exact(R)) - R) <= 1e-14

    def test_approx_close_to_exact(self):
        for phi in np.linspace(0.1, math.pi / 2 - 0.1, 15):
            R = envelope_ratio_exact(phi)
            assert phase_from_ratio_approx(R) == pytest.approx(phi, abs=0.02)

    def test_ratio_range_endpoints(self):
        assert phase_from_ratio_exact(math.sqrt(1.5)) == 0.0
        assert phase_from_ratio_exact(math.sqrt(10.0)) == pytest.approx(math.pi / 2)

    def test_circular_ratio_gives_two_candidates(self):
        # R a few ulp below sqrt(10) is the circular SOP: {pi/2, 3pi/2}
        R = R_FIVE_MAX
        for _ in range(17):
            assert len(invert_five_half(R, 1.0, 0.5).candidates) == 2, R
            R = math.nextafter(R, 0.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            invert_five_half(0.5, 0.0, 0.5)
        with pytest.raises(OutOfRange):
            invert_five_half(4.0, 0.0, 0.5)

    def test_prominence_prunes_to_twofold(self):
        R = envelope_ratio_exact(0.8)
        out = invert_five_half(R, central_prominence=0.0, central_threshold=0.5)
        assert out.ambiguity_class == "twofold"
        assert in_pruned(out, 0.8, 1e-9)
        assert in_pruned(out, 2 * math.pi - 0.8, 1e-9)
        assert not in_pruned(out, math.pi - 0.8, 1e-9)

    def test_prominent_central_selects_other_pair(self):
        R = envelope_ratio_exact(0.8)
        out = invert_five_half(R, central_prominence=1.0, central_threshold=0.5)
        assert in_pruned(out, math.pi - 0.8, 1e-9)
        assert in_pruned(out, math.pi + 0.8, 1e-9)
        assert not in_pruned(out, 0.8, 1e-9)

    def test_rotated_interval(self):
        assert prominence_interval("rotated_circular") == (0.0, math.pi)
        with pytest.raises(ValueError):
            prominence_interval("sideways")

    def test_unhashable_config_rejected(self):
        with pytest.raises(ValueError, match="unknown optics configuration"):
            prominence_interval(["standard"])


class TestCombine:
    def test_two_configs_give_unique(self):
        phi = 0.8  # standard: not prominent -> {phi, 2pi-phi}
        R = envelope_ratio_exact(phi)
        a = invert_five_half(R, 0.0, 0.5, config="standard")
        b = invert_five_half(R, 1.0, 0.5, config="rotated_circular")
        combined = combine_candidates(a, b, angle_tol=1e-6)
        assert len(combined) == 1
        assert combined[0] == pytest.approx(phi, abs=1e-9)

    def test_disjoint_sets_empty(self):
        a = PhaseCandidates(0.5, (0.5,), (0.5,), "unique", 2.0)
        b = PhaseCandidates(1.5, (1.5,), (1.5,), "unique", 2.0)
        assert combine_candidates(a, b) == ()


class TestRoundTrip:
    def test_half_zero_fourfold(self):
        rep = round_trip(HALF_ZERO, 0.6)
        assert rep.recovered
        assert rep.per_config["any"].ambiguity_class == "fourfold"

    def test_five_half_single_config(self):
        for phi in (0.3, 2.0, 4.0, 5.9):
            rep = round_trip(FIVE_HALF, phi, configs=("standard",))
            assert rep.recovered, phi

    def test_five_half_combined_unique(self):
        for phi in np.linspace(0.12, 2 * math.pi - 0.12, 21):
            if min(abs(phi - math.pi / 2), abs(phi - 3 * math.pi / 2),
                   abs(phi - math.pi)) < 0.1:
                continue
            rep = round_trip(
                FIVE_HALF, phi, configs=("standard", "rotated_circular"),
                angle_tol=1e-6,
            )
            assert rep.recovered
            assert len(rep.combined) == 1, phi

    @pytest.mark.parametrize("phi", [k * math.pi / 2 for k in range(5)] + [
        k * math.pi / 2 + d for k in range(4) for d in (-3e-8, -1e-8, 1e-8, 3e-8)])
    def test_five_half_cardinal_combined_unique(self, phi):
        # near the circular SOPs the kernel resolves phi only to about
        # sqrt(ulp); the candidates must still merge into one angle
        rep = round_trip(FIVE_HALF, phi, configs=("standard", "rotated_circular"))
        assert rep.recovered
        assert len(rep.combined) == 1, rep.combined

    @settings(max_examples=150, deadline=None)
    @given(phi=st.floats(0.0, 2 * math.pi))
    @example(phi=math.pi / 2 + 1e-12)
    @example(phi=math.pi - 1e-6)
    def test_half_zero_recovers_random_phi(self, phi):
        assert round_trip(HALF_ZERO, phi, angle_tol=1e-6).recovered

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from([1, -1]), phi=st.floats(0.0, 2 * math.pi))
    @example(p=1, phi=math.pi / 2 + 1e-12)
    @example(p=-1, phi=3 * math.pi / 2 - 1e-6)
    @example(p=1, phi=2 * math.pi)
    # 1e-7 to 5e-7 from a cardinal angle, phi and its mirror candidate both
    # match within 1e-6, and their matches must merge into one angle
    @example(p=1, phi=2.0 ** -23)
    @example(p=-1, phi=math.pi / 2 + 2e-7)
    @example(p=1, phi=math.pi - 4e-7)
    # just past a prominence edge, inside the pruning's edge tolerance
    @example(p=-1, phi=math.pi + 7e-8)
    def test_five_half_combined_unique_at_random_phi(self, p, phi):
        rep = round_trip(TransitionClass.of(1.5, p), phi,
                         configs=("standard", "rotated_circular"), angle_tol=1e-6)
        assert rep.recovered
        assert len(rep.combined) == 1, rep.combined

    def test_unsupported_class(self):
        with pytest.raises(NotInvertible):
            round_trip(TransitionClass.of(0.5, 1), 1.0)
        with pytest.raises(NotInvertible):
            round_trip(TransitionClass.of(1.5, 0), 1.0)

    @pytest.mark.parametrize("cls", [
        TransitionClass.of(0.5, 1), TransitionClass.of(1.5, 0),
        TransitionClass.of(2.5, 1), TransitionClass.of(1.0, 0),
    ], ids=lambda c: c.label())
    def test_not_invertible_at_every_phi(self, cls):
        for phi in np.linspace(0.0, 2 * math.pi, 13):
            with pytest.raises(NotInvertible):
                round_trip(cls, phi)


class TestInvertPeaks:
    def test_half_zero_is_inner_over_outer(self):
        ps = peakset_from_eigenvalues(HALF_ZERO, eigen_spectrum(HALF_ZERO, 0.6).eigenvalues)
        out = invert_peaks(HALF_ZERO, ps, 0.0, 0.5, "rotated_circular", 1e-6)
        assert out == invert_half(ratio_half(ps))

    @pytest.mark.parametrize("config,cp", [("standard", 0.0), ("rotated_circular", 1.0)])
    def test_five_half_is_outer_over_inner(self, config, cp):
        cls = TransitionClass.of(1.5, -1)
        ps = peakset_from_eigenvalues(cls, eigen_spectrum(cls, 0.8).eigenvalues)
        out = invert_peaks(cls, ps, cp, 0.5, config, 1e-6)
        assert out == invert_five_half(ratio_five_half(ps), cp, 0.5, config=config)
        assert in_pruned(out, 0.8, 1e-9)

    def test_not_invertible_before_ratio_errors(self):
        degenerate = PeakSet((), (), 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(NotInvertible, match="class 3/2\\^0 is not invertible"):
            invert_peaks(TransitionClass.of(1.5, 0), degenerate, 0.0, 0.5, "standard", 1e-6)


class TestPeaksetFromEigenvalues:
    def test_half_zero_inner_by_magnitude(self):
        spec = eigen_spectrum(HALF_ZERO, 1.0)
        ps = peakset_from_eigenvalues(HALF_ZERO, spec.eigenvalues)
        ev = np.sort(np.abs(spec.eigenvalues))
        assert ps.lambda_i_plus == pytest.approx(ev[1])
        assert ps.lambda_o_plus == pytest.approx(ev[-1])

    def test_five_half_central_flag(self):
        spec = eigen_spectrum(FIVE_HALF, 1.0)
        ps = peakset_from_eigenvalues(FIVE_HALF, spec.eigenvalues)
        assert ps.central_prominence == 1.0  # zero modes always present

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateOuter):
            peakset_from_eigenvalues(HALF_ZERO, [0.0, 0.0, 0.0, 0.0])
