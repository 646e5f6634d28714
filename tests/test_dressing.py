import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpol import dressing
from rydpol.dressing import (
    EXPERIMENTAL_CLASSES,
    TransitionClass,
    coupling_matrix,
    eigen_spectrum,
    envelopes_approx,
    envelopes_exact,
    group_degeneracies,
    oracle_matrix,
    spectrogram,
    spectrogram_json_dict,
    write_envelopes_csv,
    write_spectrogram_csv,
)
from oracles import (
    basis,
    closed_form_coupling_matrix,
    closed_form_eigenvalues_half,
    dipole_angular_factor,
)
from rydpol.angular import HalfInt
from rydpol.sop import sop_from_phi

HALF_ZERO = TransitionClass.of(0.5, 0)
FIVE_HALF = TransitionClass.of(1.5, 1)


class TestTransitionClass:
    def test_dimensions(self):
        assert HALF_ZERO.dim == 4
        assert TransitionClass.of(0.5, 1).dim == 6
        assert TransitionClass.of(1.5, 0).dim == 8
        assert FIVE_HALF.dim == 10

    def test_j_prime(self):
        assert FIVE_HALF.j_prime == HalfInt(5)
        assert HALF_ZERO.j_prime == HalfInt(1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TransitionClass.of(0, 0)
        with pytest.raises(ValueError):
            TransitionClass.of(0.5, 2)

    def test_basis_ordering(self):
        labels = basis(FIVE_HALF)
        assert labels[0] == ("r1", HalfInt(-3))
        assert labels[3] == ("r1", HalfInt(3))
        assert labels[4] == ("r2", HalfInt(-5))
        assert labels[-1] == ("r2", HalfInt(5))

    def test_labels(self):
        assert HALF_ZERO.label() == "1/2^0"
        assert TransitionClass.of(1.5, -1).label() == "3/2^-"


class TestCouplingMatrix:
    @pytest.mark.parametrize("cls", EXPERIMENTAL_CLASSES)
    def test_real_symmetric(self, cls):
        for phi in (0.0, 0.7, 2.9, 5.1):
            m = coupling_matrix(cls, phi).entries
            assert m.shape == (cls.dim, cls.dim)
            assert np.allclose(m, m.T, atol=1e-14)
            assert np.isrealobj(m)

    def test_half_zero_closed_form(self):
        rng = np.random.default_rng(11)
        for phi in rng.uniform(0, 2 * math.pi, 50):
            ev = np.sort(np.linalg.eigvalsh(coupling_matrix(HALF_ZERO, phi).entries))
            ref = np.sort(closed_form_eigenvalues_half(phi))
            assert np.max(np.abs(ev - ref)) < 1e-13

    def test_eigenvalues_bounded(self):
        for cls in EXPERIMENTAL_CLASSES:
            for phi in np.linspace(0, 2 * math.pi, 17):
                ev = np.linalg.eigvalsh(coupling_matrix(cls, phi).entries)
                assert np.all(np.abs(ev) < 1.3)

    def test_spectrum_symmetric_about_zero(self):
        # the p != 0 classes are bipartite, so eigenvalues come in +- pairs
        for cls in (TransitionClass.of(0.5, 1), FIVE_HALF):
            ev = np.sort(np.linalg.eigvalsh(coupling_matrix(cls, 1.1).entries))
            assert np.allclose(ev, -ev[::-1], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        twoJ=st.sampled_from([1, 3, 5, 7]),
        p=st.sampled_from([-1, 0, 1]),
        phi=st.floats(0.0, 2 * math.pi),
    )
    def test_chiral_and_matches_closed_form(self, twoJ, p, phi):
        cls = TransitionClass(HalfInt(twoJ), p)
        n1 = cls.dim_r1
        m = coupling_matrix(cls, phi).entries
        assert np.isrealobj(m)
        assert np.array_equal(m, m.T)
        assert not m[:n1, :n1].any() and not m[n1:, n1:].any()
        ev = np.linalg.eigvalsh(m)
        assert np.max(np.abs(ev + ev[::-1])) < 1e-12
        ref = np.linalg.eigvalsh(closed_form_coupling_matrix(cls, phi))
        assert np.max(np.abs(ev - ref)) < 1e-12

    def test_built_without_wigner3j(self, monkeypatch):
        # once the unit dipole blocks are cached, the coupling matrix is
        # assembled from them alone: no second 3-j route
        oracle_matrix(FIVE_HALF, sop_from_phi(0.3))

        def no_3j(*args):
            raise AssertionError("wigner3j called")

        monkeypatch.setattr(dressing, "wigner3j", no_3j)
        dressing._channel_matrices.cache_clear()
        assert coupling_matrix(FIVE_HALF, 0.3).entries.shape == (10, 10)


class TestOracle:
    @pytest.mark.parametrize("cls", EXPERIMENTAL_CLASSES)
    def test_eigenvalue_multisets_match(self, cls):
        # the Wigner-Eckart route against the closed-form 3-j entry formula
        for phi in np.linspace(0.0, 2 * math.pi, 9):
            a = np.sort(np.linalg.eigvalsh(coupling_matrix(cls, phi).entries))
            b = np.sort(np.linalg.eigvalsh(closed_form_coupling_matrix(cls, phi)))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_oracle_hermitian(self):
        m = oracle_matrix(FIVE_HALF, sop_from_phi(0.9)).entries
        assert np.allclose(m, m.conj().T, atol=1e-14)

    def test_oracle_block_structure(self):
        n1 = FIVE_HALF.dim_r1
        m = oracle_matrix(FIVE_HALF, sop_from_phi(0.9)).entries
        assert np.allclose(m[:n1, :n1], 0.0)
        assert np.allclose(m[n1:, n1:], 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        twoJ=st.sampled_from([1, 3, 5, 7]),
        p=st.sampled_from([-1, 0, 1]),
        phi=st.floats(0.0, 2 * math.pi),
    )
    def test_oracle_block_matches_dipole_angular_factor(self, twoJ, p, phi):
        # the shared Wigner-Eckart builder against the per-element oracle
        # reference, element by element
        cls = TransitionClass(HalfInt(twoJ), p)
        sop = sop_from_phi(phi)
        block = oracle_matrix(cls, sop).entries[cls.dim_r1 :, : cls.dim_r1]
        ref = np.zeros((cls.dim - cls.dim_r1, cls.dim_r1))
        for col, (_, m) in enumerate(basis(cls)[: cls.dim_r1]):
            for row, (_, mp) in enumerate(basis(cls)[cls.dim_r1 :]):
                ref[row, col] = sop.amp_plus * dipole_angular_factor(
                    cls.J, p, m, mp, 1
                ) + sop.amp_minus * dipole_angular_factor(cls.J, p, m, mp, -1)
        assert np.max(np.abs(block - ref)) <= 1e-14


class TestDegeneracies:
    def test_grouping(self):
        groups = group_degeneracies(np.array([-1.0, -1.0, 0.0, 2.0]), 1e-9)
        assert [g[1] for g in groups] == [2, 1, 1]

    def test_cardinal_counts(self):
        expected = {
            (1, 0): 2,
            (1, 1): 3,
            (3, 0): 4,
            (3, 1): 5,
        }
        for cls in EXPERIMENTAL_CLASSES:
            for phi in (0.0, math.pi):
                spec = eigen_spectrum(cls, phi, degeneracy_tol=1e-9)
                assert spec.distinct_count == expected[(cls.J.twice, cls.p)]

    def test_generic_counts(self):
        expected = {(1, 0): 4, (1, 1): 5, (3, 0): 8, (3, 1): 9}
        for cls in EXPERIMENTAL_CLASSES:
            counts = [
                eigen_spectrum(cls, phi).distinct_count
                for phi in np.linspace(0.05, 2 * math.pi - 0.05, 41)
            ]
            assert max(counts) == expected[(cls.J.twice, cls.p)]

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            eigen_spectrum(HALF_ZERO, 0.0, degeneracy_tol=0.0)


class TestEnvelopes:
    def test_exact_envelopes_bound_spectrum(self):
        for phi in np.linspace(0, 2 * math.pi, 61):
            ev = np.sort(np.linalg.eigvalsh(coupling_matrix(FIVE_HALF, phi).entries))
            env = envelopes_exact(phi)
            assert ev[-1] == pytest.approx(env.outer_plus, abs=1e-12)
            assert ev[0] == pytest.approx(env.outer_minus, abs=1e-12)
            pos = ev[ev > 1e-9]
            assert pos.min() == pytest.approx(env.inner_plus, abs=1e-12)

    def test_approx_envelope_error_small(self):
        # deviation as a fraction of the envelope's peak-to-peak range
        phis = np.linspace(0, 2 * math.pi, 2001)
        eo = np.array([envelopes_exact(p).outer_plus for p in phis])
        ei = np.array([envelopes_exact(p).inner_plus for p in phis])
        ao = np.array([envelopes_approx(p).outer_plus for p in phis])
        ai = np.array([envelopes_approx(p).inner_plus for p in phis])
        assert np.abs(ao - eo).max() / (2 * eo.max()) < 1e-3
        assert np.abs(ai - ei).max() / (2 * ei.max()) < 1e-2

    def test_envelope_symmetry(self):
        e = envelopes_exact(1.0)
        assert e.outer_minus == -e.outer_plus
        assert e.inner_minus == -e.inner_plus


class TestOutputs:
    def test_spectrogram_csv(self, tmp_path):
        path = tmp_path / "spg.csv"
        write_spectrogram_csv(path, spectrogram(HALF_ZERO, [0.0, 1.0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "phi,band_index,eigenvalue"
        assert len(lines) == 1 + 2 * HALF_ZERO.dim

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spectra = spectrogram(FIVE_HALF, np.linspace(0, 6.28, 11))
        write_spectrogram_csv(a, spectra)
        write_spectrogram_csv(b, spectra)
        assert a.read_bytes() == b.read_bytes()

    def test_json_dict(self):
        doc = spectrogram_json_dict(spectrogram(HALF_ZERO, [0.5]))
        assert doc["phi"] == [0.5]
        assert len(doc["eigenvalues"][0]) == 4

    def test_envelopes_csv(self, tmp_path):
        path = tmp_path / "env.csv"
        write_envelopes_csv(path, [0.0, 1.0], exact=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "phi,eo_plus,eo_minus,ei_plus,ei_minus,exact_or_approx"
        assert lines[1].endswith(",approx")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            spectrogram(HALF_ZERO, [])
