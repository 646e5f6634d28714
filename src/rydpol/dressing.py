"""RF-dressed manifold coupling matrices, eigenvalue spectra, and envelopes.

A transition class (J, p) labels a dipole-allowed pair of Rydberg levels
r1 (angular momentum J) and r2 (J' = J + |p|).  The RF field hybridizes
their Zeeman substates; the angular coupling matrix is real symmetric of
dimension (2J+1) + (2J'+1) and its eigenvalues, in units of the RF Rabi
scale, are the dressed-state energies plotted against the phase angle phi.

Basis ordering: r1 substates m = -J..J ascending, then r2 substates
m = -J'..J' ascending.

The module takes typed values and returns arrays and dataclasses only;
the command line (cli) reads a class from a file or flags, and formats and
writes the spectrogram and envelope tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import HalfInt, reduced_coupling_strength, wigner3j
from .sop import RfSop

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TransitionClass:
    """A (J, p) pair; p = 0 couples J <-> J, p = +-1 couples J <-> J+1."""

    J: HalfInt
    p: int

    def __post_init__(self):
        object.__setattr__(self, "J", HalfInt.of(self.J))
        if self.p not in (-1, 0, 1):
            raise ValueError("p must be -1, 0, or +1")
        if self.J.twice < 1:
            raise ValueError("J must be at least 1/2")

    @classmethod
    def of(cls, J, p: int) -> "TransitionClass":
        return cls(HalfInt.of(J), p)

    @property
    def j_prime(self) -> HalfInt:
        return self.J + (1 if self.p != 0 else 0)

    @property
    def dim(self) -> int:
        return (self.J.twice + 1) + (self.j_prime.twice + 1)

    @property
    def dim_r1(self) -> int:
        return self.J.twice + 1

    def label(self) -> str:
        num = "%d/2" % self.J.twice if self.J.twice % 2 else "%d" % (self.J.twice // 2)
        sign = {0: "0", 1: "+", -1: "-"}[self.p]
        return "%s^%s" % (num, sign)


EXPERIMENTAL_CLASSES = (
    TransitionClass.of(0.5, 0),
    TransitionClass.of(0.5, 1),
    TransitionClass.of(1.5, 0),
    TransitionClass.of(1.5, 1),
)

# The (1/2, 0) closed-form eigenvalues lambda_n = Re exp{i[phi/2+(2n-1)pi/4]}
# are stated in a unit where the single-channel Rabi coupling is 1; the raw
# angular matrix for that class carries an extra overall factor 2/3.  The
# matrix is rescaled here so the closed form holds verbatim.  All other
# classes keep the raw angular normalization, which is the one the (3/2,+-)
# envelope formulas are exact in.
def _class_scale(cls: TransitionClass) -> float:
    if cls.J.twice == 1 and cls.p == 0:
        return 1.5
    return 1.0


@dataclass(frozen=True)
class EigenSpectrum:
    phi: float
    eigenvalues: np.ndarray
    degeneracies: tuple

    @property
    def distinct_count(self) -> int:
        return len(self.degeneracies)


@dataclass(frozen=True)
class EnvelopePair:
    outer_plus: float
    outer_minus: float
    inner_plus: float
    inner_minus: float


@lru_cache(maxsize=None)
def _channel_matrices(cls: TransitionClass) -> tuple:
    """phi-independent coefficient matrices (C_plus, C_minus) such that the
    coupling matrix is C_plus*(cos(phi/2)+sin(phi/2)) + C_minus*(cos-sin):
    the oracle matrices of the pure e_{+1} and e_{-1} SOPs, class-scaled.
    """
    return tuple(_class_scale(cls) * oracle_matrix(cls, sop).real
                 for sop in (RfSop(1.0, 0.0), RfSop(0.0, 1.0)))


def coupling_matrix(cls: TransitionClass, phi: float) -> np.ndarray:
    """Real symmetric angular coupling matrix at phase angle phi."""
    c_plus, c_minus = _channel_matrices(cls)
    ch, sh = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return c_plus * (ch + sh) + c_minus * (ch - sh)


@lru_cache(maxsize=None)
def _unit_dipole_blocks(j_upper: HalfInt, j_lower: HalfInt) -> np.ndarray:
    """<j_upper m'| r_q |j_lower m> for q = -1, 0, +1 stacked on axis 0,
    shape (3, 2 j_upper + 1, 2 j_lower + 1), m ascending along both axes,
    Condon-Shortley phase (-1)^(j_upper - m') and reduced element 1.
    Cached per (j_upper, j_lower); the result is read-only."""
    U = np.zeros((3, j_upper.twice + 1, j_lower.twice + 1))
    for q in (-1, 0, 1):
        for col, m2 in enumerate(range(-j_lower.twice, j_lower.twice + 1, 2)):
            m2p = m2 + 2 * q
            if abs(m2p) > j_upper.twice:
                continue
            row = (m2p + j_upper.twice) // 2
            sign = -1 if ((j_upper.twice - m2p) // 2) % 2 else 1
            U[q + 1, row, col] = sign * wigner3j(
                j_upper, HalfInt.of(1), j_lower, HalfInt(-m2p), q, HalfInt(m2)
            )
    U.setflags(write=False)
    return U


def dipole_block(j_upper: HalfInt, j_lower: HalfInt, components,
                 reduced: float = 1.0) -> np.ndarray:
    """Wigner-Eckart block <j_upper m'| sum_q c_q r_q |j_lower m> (upper rows
    x lower columns) for spherical components (c_minus, c_zero, c_plus) and
    reduced element `reduced`.  Every dipole coupling in the package is
    built here."""
    U = _unit_dipole_blocks(j_upper, j_lower) * reduced
    c_minus, c_zero, c_plus = components
    return c_minus * U[0] + c_zero * U[1] + c_plus * U[2]


def rf_block(cls: TransitionClass, c_minus, c_plus) -> np.ndarray:
    """RF dipole block (r2 rows x r1 columns) of a transition class for the
    spherical components (c_minus, c_plus), radial scale 1; each entry is
    sum_q c_q times the angular part of <J' m'| r_q |J m>."""
    sign = -1.0 if ((cls.J.twice - 1) // 2) % 2 else 1.0
    return dipole_block(cls.j_prime, cls.J, (c_minus, 0.0, c_plus),
                        sign * reduced_coupling_strength(cls.J, cls.p))


def oracle_matrix(cls: TransitionClass, sop: RfSop) -> np.ndarray:
    """Brute-force dressing matrix from Wigner-Eckart dipole elements and the
    SOP's spherical amplitudes (radial scale 1), Hermitized.

    coupling_matrix is built from it (the pure e_{+-1} SOPs, cached per
    class), so its eigenvalue multiset matches coupling_matrix's up to the
    one global positive scale oracle_scale.
    """
    block = rf_block(cls, sop.amp_minus, sop.amp_plus)
    n1 = cls.dim_r1
    H = np.zeros((cls.dim, cls.dim), dtype=complex)
    H[n1:, :n1] = block
    H[:n1, n1:] = block.conj().T
    return H


def oracle_scale(cls: TransitionClass) -> float:
    """Positive scale s with eigvals(coupling_matrix) = s * eigvals(oracle).

    The oracle uses unit-normalized SOP amplitudes (1/sqrt(2) smaller per
    channel than the phase-angle form) and the raw angular normalization.
    """
    return _SQRT2 * _class_scale(cls)


def group_degeneracies(eigenvalues: np.ndarray, tol: float) -> tuple:
    """(value, multiplicity) pairs for an ascending eigenvalue array."""
    groups = []
    for ev in eigenvalues:
        if groups and ev - groups[-1][0][-1] <= tol:
            groups[-1][0].append(ev)
        else:
            groups.append([[ev]])
    return tuple((float(np.mean(g[0])), len(g[0])) for g in groups)


def eigen_spectrum(
    cls: TransitionClass, phi: float, degeneracy_tol: float = 1e-9
) -> EigenSpectrum:
    if degeneracy_tol <= 0:
        raise ValueError("degeneracy_tol must be positive")
    ev = np.linalg.eigvalsh(coupling_matrix(cls, phi))  # ascending
    return EigenSpectrum(phi, ev, group_degeneracies(ev, degeneracy_tol))


def spectrogram(cls: TransitionClass, phi_grid) -> list:
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.size == 0:
        raise ValueError("phi grid must be non-empty")
    return [eigen_spectrum(cls, float(phi)) for phi in phi_grid]


def envelope_magnitudes(s: float) -> tuple:
    """(outer, inner) exact (3/2, +-) envelope magnitudes at s = |sin phi|."""
    outer = math.sqrt(10.0 + 3.0 * s + math.sqrt(33.0 * s * s + 12.0 * s + 4.0)) / 5.0
    inner = math.sqrt(10.0 - 3.0 * s - math.sqrt(33.0 * s * s - 12.0 * s + 4.0)) / 5.0
    return outer, inner


def envelopes_exact(phi: float) -> EnvelopePair:
    """Exact outer/inner eigenvalue envelopes for the (3/2, +-) classes."""
    outer, inner = envelope_magnitudes(abs(math.sin(phi)))
    return EnvelopePair(outer, -outer, inner, -inner)


def envelopes_approx(phi: float) -> EnvelopePair:
    """Harmonic-plus-constant approximation to the (3/2, +-) envelopes."""
    s = abs(math.sin(phi))
    outer = 2.0 * math.sqrt(3.0) / 5.0 + 2.0 * (math.sqrt(5.0) - math.sqrt(3.0)) / 5.0 * s
    inner = math.sqrt(2.0) / 5.0 * (2.0 - s * s)
    return EnvelopePair(outer, -outer, inner, -inner)
