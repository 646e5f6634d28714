import math
from dataclasses import fields, replace
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpol.angular import HalfInt
from rydpol.dressing import EXPERIMENTAL_CLASSES, TransitionClass, eigen_spectrum
from rydpol.eitsim import (
    LevelScheme,
    SimParams,
    ThirdLevel,
    build_hamiltonian,
    collapse_operators,
    eit_spectrogram,
    eit_spectrum,
    liouvillian,
    probe_absorption,
    scheme_for_class,
    steady_state,
    third_level_sweep,
)
from rydpol.eitsim import _Model, _probe_row, _real_coordinates, _reduce, _scheme_reduction
from oracles import lindblad_residual, real_coordinates_dense
from rydpol.sop import (
    OPTICS_PRESETS,
    rotated_circular_optics,
    sop_from_phi,
    standard_optics,
    tilted_linear_optics,
)

HALF_ZERO = TransitionClass.of(0.5, 0)
HALF_PLUS = TransitionClass.of(0.5, 1)
FIVE_HALF = TransitionClass.of(1.5, 1)


def small_params(**over):
    base = dict(
        omega_probe=0.5,
        omega_coupling=4.0,
        omega_rf=40.0,
        gamma_i=6.07,
        gamma_r=0.1,
        coupling_detuning_grid=tuple(np.linspace(-60, 60, 81)),
    )
    base.update(over)
    return SimParams(**base)


class TestLevelScheme:
    def test_state_count(self):
        s = scheme_for_class(HALF_ZERO)
        # 2 ground + 4 intermediate + 4 Rydberg
        assert s.n_states == 10
        s3 = scheme_for_class(FIVE_HALF, third_delta3_mhz=100.0)
        # 2 + 4 + 10 + (J3 = 5/2 -> 6)
        assert s3.n_states == 22

    def test_offsets_contiguous(self):
        s = scheme_for_class(FIVE_HALF, third_delta3_mhz=50.0)
        off = s.offsets()
        assert off["g"] == 0
        assert off["i"] == 2
        assert off["r1"] == 6
        assert off["r2"] == 10
        assert off["r3"] == 16

    def test_coupling_target_by_class(self):
        assert scheme_for_class(HALF_ZERO).coupling_target == "r1"
        assert scheme_for_class(FIVE_HALF).coupling_target == "r2"

    def test_bad_target(self):
        with pytest.raises(ValueError):
            LevelScheme(HALF_ZERO, HalfInt(3), "r5")

    def test_third_level_validation(self):
        for delta3 in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta3 must be finite and positive"):
                ThirdLevel(HalfInt(5), delta3)
        with pytest.raises(ValueError):
            LevelScheme(HALF_ZERO, HalfInt(3), "r1", ThirdLevel(HalfInt(7), 10.0))
        # within one unit of J but not J or J+1: no RF class to build it from
        for j3 in (HalfInt(1), HalfInt(4)):
            with pytest.raises(ValueError, match="J3 = J or J\\+1"):
                LevelScheme(FIVE_HALF, HalfInt(3), "r2", ThirdLevel(j3, 10.0))
        for j3 in (HalfInt(3), HalfInt(5)):
            LevelScheme(FIVE_HALF, HalfInt(3), "r2", ThirdLevel(j3, 10.0))

    @pytest.mark.parametrize("ji_twice", [-1, 0, 2, 5])
    def test_intermediate_must_reach_ground(self, ji_twice):
        with pytest.raises(ValueError, match="j_intermediate must be a dipole partner"):
            LevelScheme(HALF_ZERO, HalfInt(ji_twice), "r1")

    @pytest.mark.parametrize("cls,ji_twice,target", [
        (FIVE_HALF, 1, "r2"),
        (TransitionClass.of(2.5, 1), 3, "r2"),
        (TransitionClass.of(3.5, 0), 3, "r2"),
        (TransitionClass.of(3.5, 1), 3, "r1"),
    ], ids=["3/2^+_ji_1/2", "5/2^+", "7/2^0", "7/2^+_r1"])
    def test_coupling_target_within_reach(self, cls, ji_twice, target):
        with pytest.raises(ValueError, match="out of dipole reach"):
            LevelScheme(cls, HalfInt(ji_twice), target)

    def test_experimental_classes_build(self):
        for cls in (HALF_ZERO, TransitionClass.of(0.5, 1), TransitionClass.of(1.5, 0), FIVE_HALF):
            assert scheme_for_class(cls).j_intermediate == HalfInt(3)
        LevelScheme(FIVE_HALF, HalfInt(1), "r1")
        LevelScheme(TransitionClass.of(2.5, 1), HalfInt(3), "r1")


class TestSimParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SimParams(gamma_i=-1.0)

    @pytest.mark.parametrize("over", [
        {"omega_rf": math.nan},
        {"gamma_r": math.inf},
        {"delta_probe": math.nan},
        {"coupling_detuning_grid": ()},
        {"coupling_detuning_grid": (0.0, math.nan, 1.0)},
    ])
    def test_non_finite_or_empty_rejected(self, over):
        with pytest.raises(ValueError):
            SimParams(**over)

    @pytest.mark.parametrize("name", ["gamma_i", "gamma_r"])
    def test_zero_decay_rate_rejected(self, name):
        # a state that never decays leaves the steady state not unique
        with pytest.raises(ValueError, match="%s must be finite and positive" % name):
            SimParams(**{name: 0.0})

    def test_zero_probe_rejected(self):
        # without a probe nothing pumps the ground doublet, so the steady
        # state is not unique
        with pytest.raises(ValueError, match="omega_probe must be finite and positive"):
            SimParams(omega_probe=0.0)

    def test_strong_probe_warns(self):
        with pytest.warns(UserWarning) as record:
            SimParams(omega_probe=10.0, gamma_i=6.0)
        assert [w.filename for w in record] == [__file__]


class TestHamiltonian:
    @pytest.mark.parametrize("cls", [HALF_ZERO, FIVE_HALF])
    def test_hermitian(self, cls):
        s = scheme_for_class(cls)
        for phi in (0.0, 0.8, 2.5):
            H = build_hamiltonian(s, small_params(), phi, delta_c=3.0)
            assert np.allclose(H, H.conj().T, atol=1e-13)

    def test_hermitian_with_third_level(self):
        s = scheme_for_class(FIVE_HALF, third_delta3_mhz=120.0)
        H = build_hamiltonian(s, small_params(), 1.1, delta_c=-2.0)
        assert np.allclose(H, H.conj().T, atol=1e-13)

    def test_detuning_on_rydberg_diagonal(self):
        s = scheme_for_class(HALF_ZERO)
        H0 = build_hamiltonian(s, small_params(), 0.5, 0.0)
        H1 = build_hamiltonian(s, small_params(), 0.5, 7.0)
        d = H1 - H0
        off = s.offsets()
        expect = np.zeros(s.n_states)
        expect[off["r1"]:] = -7.0
        assert np.allclose(np.diag(d).real, expect)
        assert np.allclose(d - np.diag(np.diag(d)), 0.0)

    def test_rf_block_matches_dressing_eigenvalues(self):
        # with the coupling laser off, the Rydberg block must reproduce the
        # dressed eigenvalues scaled by omega_rf (the probe acts on g-i only)
        s = scheme_for_class(FIVE_HALF)
        p = small_params(omega_coupling=0.0)
        for phi in (0.3, 1.0, 2.2):
            H = build_hamiltonian(s, p, phi, 0.0)
            off = s.offsets()
            blk = H[off["r1"]:, off["r1"]:]
            ev = np.sort(np.linalg.eigvalsh(blk))
            ref = np.sort(p.omega_rf * eigen_spectrum(FIVE_HALF, phi).eigenvalues)
            assert np.max(np.abs(ev - ref)) < 1e-9

    def test_accepts_rfsop(self):
        s = scheme_for_class(HALF_ZERO)
        H1 = build_hamiltonian(s, small_params(), sop_from_phi(0.7), 0.0)
        H2 = build_hamiltonian(s, small_params(), 0.7, 0.0)
        assert np.allclose(H1, H2)


class TestCollapse:
    def test_intermediate_total_rate(self):
        s = scheme_for_class(HALF_ZERO)
        p = small_params()
        ops = collapse_operators(s, p)
        off = s.offsets()
        ni = s.j_intermediate.twice + 1
        total = sum(C.conj().T @ C for C in ops)
        diag = np.diag(total).real
        assert np.allclose(diag[off["i"]: off["i"] + ni], p.gamma_i, atol=1e-12)

    def test_rydberg_rate(self):
        s = scheme_for_class(HALF_ZERO)
        p = small_params()
        total = sum(C.conj().T @ C for C in collapse_operators(s, p))
        off = s.offsets()
        diag = np.diag(total).real
        assert np.allclose(diag[off["r1"]:], p.gamma_r, atol=1e-14)


def _scheme_generator(cls, third):
    s = scheme_for_class(cls, third_delta3_mhz=third)
    p = small_params()
    return build_hamiltonian(s, p, 1.3, -2.0), collapse_operators(s, p)


def _random_generator():
    """A complex non-Hermitian H and a stack of dense complex jump operators."""
    rng = np.random.default_rng(11)
    H = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    return H, rng.normal(size=(4, 7, 7)) + 1j * rng.normal(size=(4, 7, 7))


class TestSteadyState:
    def test_density_matrix_properties(self):
        s = scheme_for_class(HALF_ZERO)
        p = small_params()
        H = build_hamiltonian(s, p, 0.9, 4.0)
        ops = collapse_operators(s, p)
        rho = steady_state(H, ops)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert lindblad_residual(H, ops, rho) < 1e-10

    @settings(max_examples=5, deadline=None)
    @given(phi=st.floats(0.0, 2 * math.pi), gamma_r=st.floats(0.01, 1.0))
    def test_steady_state_unique(self, phi, gamma_r):
        # SimParams rejects every known source of a second stationary state
        # (zero gamma_i, gamma_r or omega_probe), so the Liouvillian has a
        # one-dimensional kernel: one singular value below 1e-8 of the largest
        for cls, third, optics in product(EXPERIMENTAL_CLASSES, (None, 100.0),
                                          OPTICS_PRESETS.values()):
            s = scheme_for_class(cls, third_delta3_mhz=third)
            p = small_params(gamma_r=gamma_r, optics=optics())
            L = liouvillian(build_hamiltonian(s, p, phi, 0.0), collapse_operators(s, p))
            sv = np.linalg.svd(L, compute_uv=False)
            assert np.sum(sv < 1e-8 * sv[0]) == 1, (cls, third, optics)

    def test_liouvillian_annihilates_steady_state(self):
        s = scheme_for_class(HALF_ZERO)
        p = small_params()
        H = build_hamiltonian(s, p, 2.0, -3.0)
        ops = collapse_operators(s, p)
        L = liouvillian(H, ops)
        rho = steady_state(H, ops)
        assert np.linalg.norm(L @ rho.reshape(-1)) < 1e-10

    @pytest.mark.parametrize("generator", [
        partial(_scheme_generator, HALF_ZERO, None),
        partial(_scheme_generator, FIVE_HALF, 100.0),
        partial(_scheme_generator, HALF_ZERO, 100.0),
        partial(_scheme_generator, HALF_PLUS, 100.0),
        partial(_scheme_generator, TransitionClass.of(1.5, 0), 100.0),
        _random_generator,
    ], ids=["1/2^0", "3/2^+_r3", "1/2^0_r3", "1/2^+_r3", "3/2^0_r3", "random_non_hermitian"])
    def test_liouvillian_matches_matrix_form(self, generator):
        # off the steady state as well: L vec(X) against the matrix-form
        # Lindblad right-hand side of lindblad_residual, X not Hermitian
        H, ops = generator()
        n = H.shape[0]
        rng = np.random.default_rng(7)
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ref = -1j * (H @ X - X @ H)
        for C in ops:
            CdC = C.conj().T @ C
            ref += C @ X @ C.conj().T - 0.5 * (CdC @ X + X @ CdC)
        got = (liouvillian(H, ops) @ X.reshape(-1)).reshape(n, n)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSpectrum:
    def test_peaks_at_dressed_eigenvalues(self):
        s = scheme_for_class(HALF_ZERO)
        p = small_params(coupling_detuning_grid=tuple(np.linspace(-60, 60, 241)))
        phi = 1.0
        spec = eit_spectrum(s, p, phi)
        lam = np.sort(np.unique(np.round(
            p.omega_rf * eigen_spectrum(HALF_ZERO, phi).eigenvalues, 6)))
        # every dressed line should have a local response maximum within a
        # couple of grid steps
        dx = spec.detuning_mhz[1] - spec.detuning_mhz[0]
        for lv in lam:
            k = int(np.argmin(np.abs(spec.detuning_mhz - lv)))
            w = spec.response[max(k - 3, 0): k + 4]
            assert w.max() > 0.3 * spec.response.max(), lv
            assert abs(spec.detuning_mhz[max(k - 3, 0) + np.argmax(w)] - lv) < 3 * dx

    def test_response_nonnegative(self):
        s = scheme_for_class(HALF_ZERO)
        spec = eit_spectrum(s, small_params(), 0.3)
        assert np.all(spec.response >= 0.0)

    @pytest.mark.parametrize("cls,optics,third,phi,over", [
        (HALF_ZERO, standard_optics, None, 0.9, {}),
        (FIVE_HALF, tilted_linear_optics, None, 0.9, {}),
        (FIVE_HALF, tilted_linear_optics, 100.0, 0.9, {}),
        (TransitionClass.of(1.5, -1), rotated_circular_optics, None, 0.9, {}),
        (TransitionClass.of(0.5, 1), standard_optics, 50.0, 0.9, {}),
        # criterion 10's farthest third level
        (TransitionClass.of(1.5, 0), standard_optics, 1e6, 0.9,
         {"omega_rf": 15.0, "gamma_r": 0.5}),
        (FIVE_HALF, tilted_linear_optics, None, 0.9, {"omega_rf": 0.0}),
        (FIVE_HALF, tilted_linear_optics, 100.0, 0.0, {}),
        (FIVE_HALF, tilted_linear_optics, 100.0, math.pi / 2, {}),
        (FIVE_HALF, standard_optics, None, 0.9, {"coupling_detuning_grid": tuple(np.concatenate(
            ([-1e5, -1e4, -1e3], np.linspace(-50, 50, 35), [1e3, 1e4, 1e5])))}),
        (HALF_PLUS, rotated_circular_optics, 100.0, 0.9, {}),
    ], ids=["1/2^0", "3/2^+", "3/2^+_r3", "3/2^-_rotated", "1/2^+_r3", "3/2^0_r3_1e6",
            "omega_rf_0", "phi_0", "phi_pi/2", "grid_1e5", "1/2^+_r3_rotated"])
    def test_matches_dense_reference(self, cls, optics, third, phi, over):
        # the readout row of the Schur reduction against a fresh Hamiltonian
        # and a full steady_state solve at each detuning, minus the dark
        # steady state of the full system, which the reduction never solves
        # on its own: its x0 is that dark state
        s = scheme_for_class(cls, third_delta3_mhz=third)
        p = small_params(**{"coupling_detuning_grid": tuple(np.linspace(-50, 50, 41)),
                            "optics": optics(), **over})
        spec = eit_spectrum(s, p, phi)
        collapse = collapse_operators(s, p)
        dark = replace(p, omega_coupling=0.0)
        baseline = probe_absorption(
            s, dark, steady_state(build_hamiltonian(s, dark, phi, 0.0), collapse))
        for k in (0, 13, 20, 27, 40):
            dc = spec.detuning_mhz[k]
            rho = steady_state(build_hamiltonian(s, p, phi, dc), collapse)
            ref = max(baseline - probe_absorption(s, p, rho), 0.0)
            assert abs(spec.response[k] - ref) <= 1e-9 * spec.response.max()

    def test_spectrogram_shape(self):
        s = scheme_for_class(HALF_ZERO)
        p = small_params(coupling_detuning_grid=tuple(np.linspace(-50, 50, 31)))
        spg = eit_spectrogram(s, p, [0.0, 1.0, 2.0])
        assert spg.response.shape == (3, 31)

    def test_central_peak_laporte_suppression(self):
        # (1/2, +) has no zero eigenvalue, so no central line ever appears
        s = scheme_for_class(TransitionClass.of(0.5, 1))
        p = small_params(coupling_detuning_grid=tuple(np.linspace(-4, 4, 17)))
        resp = eit_spectrum(s, p, math.pi).response
        s2 = scheme_for_class(FIVE_HALF)
        resp2 = eit_spectrum(s2, p, math.pi).response
        assert resp.max() < 1e-4
        assert resp2.max() > 1e-3

    def test_probe_absorption_sign(self):
        # with the coupling laser off, the probe is absorbed
        s = scheme_for_class(HALF_ZERO)
        p = small_params(omega_coupling=0.0)
        H = build_hamiltonian(s, p, 0.0, 0.0)
        rho = steady_state(H, collapse_operators(s, p))
        assert probe_absorption(s, p, rho) > 0


def _weak_drive_poles(cls, phi, omega_rf):
    """Poles lam and residues c of the probe readout in the weak-drive
    limit."""
    s = scheme_for_class(cls)
    p = small_params(omega_probe=0.05, omega_coupling=0.05, omega_rf=omega_rf)
    L = liouvillian(build_hamiltonian(s, p, phi, 0.0), collapse_operators(s, p))
    return _reduce(L, s.offsets()["r1"], _probe_row(s, p.optics)).poles()


def _central_source_share(lam, c):
    """Number of poles with |Re| < 1 MHz, and the share of the residues c
    that those poles carry."""
    central = np.abs(lam.real) < 1.0
    return np.count_nonzero(central), np.linalg.norm(c[central]) / np.linalg.norm(c)


def _pole_span_ratio(cls, lam):
    """Criterion 05's span ratio read from the poles' Delta_c = -Re(lam):
    inner over outer span for 1/2^0, outer over inner span for 3/2^+-,
    whose poles with |Re| < 1 MHz are the central line."""
    x = -lam.real
    outer = x.max() - x.min()
    if cls == HALF_ZERO:
        return 2.0 * np.abs(x).min() / outer
    side = x[np.abs(x) >= 1.0]
    return outer / (side[side > 0].min() - side[side < 0].max())


class TestSchurSweep:
    @settings(max_examples=30, deadline=None)
    @given(cls=st.sampled_from(EXPERIMENTAL_CLASSES), phi=st.floats(0.0, 2 * math.pi),
           omega_rf=st.floats(5.0, 50.0))
    def test_poles_locked_to_dressed_eigenvalues(self, cls, phi, omega_rf):
        # the paper's calibration-free claim at the pole level: in the weak
        # drive limit every pole sits at omega_rf times a dressed eigenvalue
        # and every dressed eigenvalue has a pole; P holds rho_rx and
        # rho_xr, so the poles come in pairs on both sides of the real axis
        lam, c = _weak_drive_poles(cls, phi, omega_rf)
        lines = omega_rf * eigen_spectrum(cls, phi).eigenvalues
        dist = np.abs(-lam.real[:, None] - lines[None, :])
        assert dist.min(axis=1).max() < 1e-3
        assert dist.min(axis=0).max() < 1e-3
        # no pole reaches the real Delta_c axis: |Im| >= gamma_r / 2, and
        # small_params has gamma_r = 0.1
        assert np.abs(lam.imag).min() >= 0.9 * 0.1 / 2
        if cls in (HALF_ZERO, FIVE_HALF):
            # criterion 05 at the pole level: the span ratio stays in its
            # range and does not depend on omega_rf, to 1e-4 (over 200
            # random draws it stayed within 3e-5 of the lines' own ratio)
            lo, hi = (0.0, 1.0) if cls == HALF_ZERO else (math.sqrt(1.5), math.sqrt(10.0))
            ratio = _pole_span_ratio(cls, lam)
            assert lo - 1e-4 <= ratio <= hi + 1e-4
            other = _pole_span_ratio(cls, _weak_drive_poles(cls, phi, 55.0 - omega_rf)[0])
            assert abs(ratio - other) <= 1e-4
        if cls == HALF_PLUS:
            # criterion 08's Laporte absence: 1/2^+ does have central poles,
            # the coherences of its two zero-eigenvalue dressed states, but
            # these lie in r2 and the coupling laser drives r1, so they carry
            # no residue and never show in the spectrum
            count, share = _central_source_share(lam, c)
            assert count > 0 and share < 1e-12

    def test_central_poles_driven_where_the_line_exists(self):
        # the contrast that makes the 1/2^+ check above live: 3/2^+ shows a
        # central line at pi/2 (criterion 09), so its central poles carry
        # residue
        count, share = _central_source_share(*_weak_drive_poles(FIVE_HALF, math.pi / 2, 40.0))
        assert count > 0 and share > 0.1

    @settings(max_examples=40, deadline=None)
    @given(cls=st.sampled_from(EXPERIMENTAL_CLASSES), phi=st.floats(0.0, 2 * math.pi),
           third=st.sampled_from([None, 100.0]), omega_coupling=st.floats(0.5, 40.0),
           gamma_r=st.floats(0.05, 1.0), omega_rf=st.floats(0.0, 50.0))
    def test_pole_properties_under_strong_drive(self, cls, phi, third, omega_coupling,
                                                gamma_r, omega_rf):
        # away from the weak-drive limit, where the poles leave the dressed
        # lines: M is real, so its eigenvalues are an exactly
        # conjugate-closed set; the drive only broadens, so no pole comes
        # closer to the real Delta_c axis than gamma_r / 2, the decay of a
        # Rydberg-ground coherence (over 500 draws weighted to the corners
        # of this box the closest read 1.0003 gamma_r / 2)
        s = scheme_for_class(cls, third_delta3_mhz=third)
        p = small_params(omega_coupling=omega_coupling, gamma_r=gamma_r, omega_rf=omega_rf)
        H = build_hamiltonian(s, p, phi, 0.0)
        ops, r1, w = collapse_operators(s, p), s.offsets()["r1"], _probe_row(s, p.optics)
        lam, c = _reduce(liouvillian(H, ops), r1, w).poles()
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))
        assert np.abs(lam.imag).min() >= (1 - 1e-9) * gamma_r / 2
        if cls == HALF_PLUS:
            # criterion 08's Laporte absence: the poles of the r2 states
            # that the RF leaves dark, central in the weak-drive limit,
            # carry no residue.  Away from it the coupling laser moves them
            # (it splits their coherences with i) and pulls driven poles
            # onto Re = 0, so they are told apart by shifting the dark
            # states alone by 1 MHz: they are the poles that were not
            # there before
            r2 = slice(s.offsets()["r2"], s.offsets()["r2"] + 4)  # J' = 3/2
            _, sv, vh = np.linalg.svd(H[r1:r2.start, r2])
            dark = vh[np.count_nonzero(sv > 1e-9):].conj()  # rows H[r1, r2] maps to 0
            H[r2, r2] += dark.T @ dark.conj()
            shifted, c = _reduce(liouvillian(H, ops), r1, w).poles()
            new = np.abs(shifted[:, None] - lam[None, :]).min(axis=1) > 1e-6
            # each dark state's coherences with the 6 g and i states, Re and Im
            assert np.count_nonzero(new) == 12 * len(dark)
            assert np.linalg.norm(c[new]) < 1e-12 * np.linalg.norm(c)

    @settings(max_examples=20, deadline=None)
    @given(cls=st.sampled_from(EXPERIMENTAL_CLASSES), phi=st.floats(0.0, 2 * math.pi),
           third=st.sampled_from([None, 40.0, 250.0]),
           optics=st.sampled_from([standard_optics, rotated_circular_optics, tilted_linear_optics]),
           omega_rf=st.floats(0.0, 50.0), omega_coupling=st.floats(0.5, 40.0),
           gamma_r=st.floats(0.05, 1.0),
           detunings=st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=4))
    def test_density_matrix_properties(self, cls, phi, third, optics, omega_rf,
                                       omega_coupling, gamma_r, detunings):
        # eit_spectrum forms no density matrix, so its response at random
        # detunings is checked against the dense reference (the dark
        # steady_state of the full system minus probe_absorption of a full
        # steady_state solve), within 1e-9 of the peak of the spectrum on
        # small_params' grid, and criterion 11's checks hold on those
        # dense density matrices; weak RF and strong coupling are where the
        # poles crowd and their eigenvectors are least well conditioned
        s = scheme_for_class(cls, third_delta3_mhz=third)
        p = small_params(omega_rf=omega_rf, omega_coupling=omega_coupling, gamma_r=gamma_r,
                         optics=optics())
        p = replace(p, coupling_detuning_grid=tuple(detunings) + p.coupling_detuning_grid)
        response = eit_spectrum(s, p, phi).response
        ops = collapse_operators(s, p)
        dark = replace(p, omega_coupling=0.0)
        baseline = probe_absorption(
            s, dark, steady_state(build_hamiltonian(s, dark, phi, 0.0), ops))
        for dc, got in zip(detunings, response):
            H = build_hamiltonian(s, p, phi, dc)
            rho = steady_state(H, ops)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.array_equal(rho, rho.conj().T)
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            scale = np.linalg.norm(liouvillian(H, ops))
            assert lindblad_residual(H, ops, rho) < 1e-12 * scale
            ref = max(baseline - probe_absorption(s, p, rho), 0.0)
            assert abs(got - ref) <= 1e-9 * response.max()


class TestThirdLevel:
    def test_sweep_lengths(self):
        s = scheme_for_class(FIVE_HALF, third_delta3_mhz=100.0)
        p = small_params(
            omega_rf=15.0,
            coupling_detuning_grid=tuple(np.linspace(-24, 24, 25)),
        )
        out = third_level_sweep(s, p, [400.0, 200.0], [0.8, 2.4])
        assert len(out) == 2
        assert out[0].response.shape == (2, 25)

    def test_requires_third(self):
        s = scheme_for_class(FIVE_HALF)
        with pytest.raises(ValueError):
            third_level_sweep(s, small_params(), [100.0], [0.5])

    def test_rejects_nonpositive_offset(self):
        s = scheme_for_class(FIVE_HALF, third_delta3_mhz=100.0)
        with pytest.raises(ValueError):
            third_level_sweep(s, small_params(), [0.0], [0.5])

    def test_large_offset_recovers_unperturbed(self):
        s0 = scheme_for_class(FIVE_HALF)
        s3 = scheme_for_class(FIVE_HALF, third_delta3_mhz=1e7)
        p = small_params(coupling_detuning_grid=tuple(np.linspace(-55, 55, 45)))
        a = eit_spectrum(s0, p, 1.2).response
        b = eit_spectrum(s3, p, 1.2).response
        assert np.max(np.abs(a - b)) < 1e-5



def _dense_response(s, p, phi, detunings):
    """The dense reference of eit_spectrum at a few detunings: the dark
    steady_state of the full system minus probe_absorption of a full
    steady_state solve at each detuning, clipped at zero."""
    collapse = collapse_operators(s, p)
    dark = replace(p, omega_coupling=0.0)
    baseline = probe_absorption(
        s, dark, steady_state(build_hamiltonian(s, dark, phi, 0.0), collapse))
    return np.array([max(baseline - probe_absorption(
        s, p, steady_state(build_hamiltonian(s, p, phi, dc), collapse)), 0.0)
        for dc in detunings])


# a new value for each field of SimParams but the grid, and for the scheme's
# third-level offset; a field added to SimParams must be added here
_NEW_VALUE = {
    "omega_probe": st.floats(0.1, 2.0),
    "omega_coupling": st.floats(0.5, 8.0),
    "omega_rf": st.floats(0.0, 50.0),
    "gamma_i": st.floats(3.0, 8.0),
    "gamma_r": st.floats(0.05, 1.0),
    "delta_probe": st.floats(-5.0, 5.0),
    "optics": st.sampled_from(list(OPTICS_PRESETS.values())).map(lambda preset: preset()),
    "delta3": st.floats(20.0, 400.0),
}


class TestSchemeReduction:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from([f.name for f in fields(SimParams)
                                 if f.name != "coupling_detuning_grid"] + ["delta3"]),
           phi=st.floats(0.0, 2 * math.pi), data=st.data())
    def test_cache_key_is_complete(self, name, phi, data):
        # a spectrum with params A puts A's reduction in the cache; one
        # with params B, which differs in a single field, must not be
        # read from it: B matches the dense reference
        s = scheme_for_class(HALF_ZERO, third_delta3_mhz=100.0)
        p = small_params(coupling_detuning_grid=tuple(np.linspace(-50, 50, 21)))
        eit_spectrum(s, p, phi)
        value = data.draw(_NEW_VALUE[name])
        if name == "delta3":
            s = replace(s, third=replace(s.third, delta3_mhz=value))
        else:
            p = replace(p, **{name: value})
        response = eit_spectrum(s, p, phi).response
        k = [0, 7, 10, 13, 20]
        ref = _dense_response(s, p, phi, np.asarray(p.coupling_detuning_grid)[k])
        assert np.max(np.abs(response[k] - ref)) <= 1e-9 * response.max()

    def test_grid_change_is_a_cache_hit(self):
        s = scheme_for_class(FIVE_HALF, third_delta3_mhz=60.0)
        p = small_params()
        eit_spectrum(s, p, 0.4)
        before = _scheme_reduction.cache_info()
        other = replace(p, coupling_detuning_grid=(-3.0, 0.0, 3.0))
        eit_spectrum(s, other, 1.1)
        after = _scheme_reduction.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert _scheme_reduction(_Model(s, other)) is _scheme_reduction(_Model(s, p))

    def test_cached_arrays_read_only_and_cache_bounded(self):
        s = scheme_for_class(HALF_ZERO)
        reduction = _scheme_reduction(_Model(s, small_params()))
        for name, x in vars(reduction).items():
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0.0
        for omega_rf in (10.0, 20.0, 30.0, 40.0, 50.0):
            eit_spectrum(s, small_params(omega_rf=omega_rf), 0.7)
        info = _scheme_reduction.cache_info()
        assert info.maxsize == 4 and info.currsize == 4


class TestRealCoordinates:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 22), channels=st.integers(0, 4), zeros=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_pass_bit_for_bit(self, n, channels, zeros, seed):
        # random complex H and jump operators, with a random share of L's
        # entries zeroed, in a random order of the real coordinates
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        C = rng.normal(size=(channels, n, n)) + 1j * rng.normal(size=(channels, n, n))
        L = liouvillian(H, C)
        L[rng.random(L.shape) < zeros] = 0.0
        pos = rng.permutation(n * n)
        re, im = _real_coordinates(L, pos)
        ref = real_coordinates_dense(L)
        assert np.array_equal(re[np.ix_(pos, pos)], ref.real)
        assert np.array_equal(im[np.ix_(pos, pos)], ref.imag)

    @pytest.mark.parametrize("cls,third", [(HALF_ZERO, None), (FIVE_HALF, None),
                                           (FIVE_HALF, 100.0)], ids=["100", "256", "484"])
    def test_scheme_generator_is_real(self, cls, third):
        # a Lindblad generator maps Hermitian rho to Hermitian rho, so it is
        # real in these coordinates: the same pass, bit for bit, and no
        # imaginary part
        s = scheme_for_class(cls, third_delta3_mhz=third)
        p = small_params(optics=tilted_linear_optics())
        L = liouvillian(build_hamiltonian(s, p, 1.0, 0.0), collapse_operators(s, p))
        re, im = _real_coordinates(L, np.arange(L.shape[0]))
        assert np.array_equal(re, real_coordinates_dense(L).real)
        assert np.max(np.abs(im)) <= 1e-13 * np.max(np.abs(re))
