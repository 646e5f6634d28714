"""Independent reference routes that only the tests call.

Per-element dipole factors (the closed-form route and the generic 3-j/6-j
route), labelled by the substates of basis(cls), and the closed-form 3-j
entry formula of the coupling matrix cross-check dressing's one
Wigner-Eckart block builder, through which oracle_matrix and
coupling_matrix are built.  The (1/2, 0) closed-form eigenvalues check
the dressed spectrum, stokes_from_phi checks RfSop.stokes, the paper's
quadratic approximate-envelope inversion brackets the exact one,
lindblad_residual, the Lindblad equation in matrix form, checks the
steady states of eitsim's vectorized Liouvillian, and the dense
elementwise pass of real_coordinates_dense checks eitsim's pass to real
coordinates from the nonzeros.
"""

import math

import numpy as np

from rydpol.angular import HalfInt, reduced_coupling_strength, wigner3j, wigner6j
from rydpol.dressing import _class_scale
from rydpol.sop import StokesVector


def _jprime(J: HalfInt, p: int) -> HalfInt:
    return J + (1 if p != 0 else 0)


def basis(cls) -> list:
    """(manifold, m) labels of a transition class's basis: r1 substates
    m = -J..J ascending, then r2 substates m = -J'..J' ascending."""
    out = [("r1", HalfInt(m2)) for m2 in range(-cls.J.twice, cls.J.twice + 1, 2)]
    out += [("r2", HalfInt(m2)) for m2 in range(-cls.j_prime.twice, cls.j_prime.twice + 1, 2)]
    return out


def orbital_angular_momentum(J, p: int) -> int:
    """L of the lower level for a transition class (S = 1/2 throughout)."""
    J = HalfInt.of(J)
    if p in (0, 1):
        L2 = J.twice - 1  # J = L + 1/2
    else:
        L2 = J.twice + 1  # J = L - 1/2  (only reached from higher-L lower states)
    if L2 < 0 or L2 % 2 != 0:
        raise ValueError("class (J=%s, p=%d) has no valid L" % (J, p))
    return L2 // 2


def dipole_angular_factor(J, p: int, mJ, mJp, q) -> float:
    """Angular part of <J' mJ'| r_q |J mJ> for a transition class, radial
    matrix element set to 1.  Zero (not an error) when mJ' != mJ + q.
    """
    J = HalfInt.of(J)
    mJ, mJp, q = HalfInt.of(mJ), HalfInt.of(mJp), HalfInt.of(q)
    if not q.is_integer or abs(q.twice) > 2:
        raise ValueError("q must be -1, 0, or +1")
    Jp = _jprime(J, p)
    if abs(mJ.twice) > J.twice or abs(mJp.twice) > Jp.twice:
        raise ValueError("|m| exceeds j")
    if mJp.twice != mJ.twice + q.twice:
        return 0.0
    threej = wigner3j(Jp, HalfInt.of(1), J, -mJp, q, mJ)
    # phase exponent J' + J - mJ' - 1/2 is an integer for half-integer J, J'
    exp2 = Jp.twice + J.twice - mJp.twice - 1
    phase = -1 if (exp2 // 2) % 2 else 1
    return phase * threej * reduced_coupling_strength(J, p)


def dipole_angular_factor_generic(J, p: int, mJ, mJp, q) -> float:
    """Same matrix element evaluated from generic 3-j/6-j symbols without the
    per-class closed forms; independent cross-check route.
    """
    J = HalfInt.of(J)
    mJ, mJp, q = HalfInt.of(mJ), HalfInt.of(mJp), HalfInt.of(q)
    Jp = _jprime(J, p)
    if mJp.twice != mJ.twice + q.twice:
        return 0.0
    L = orbital_angular_momentum(J, p)
    Lp = L + 1
    half = HalfInt(1)
    threej = wigner3j(Jp, HalfInt.of(1), J, -mJp, q, mJ)
    sixj = wigner6j(Lp, Jp, half, J, L, HalfInt.of(1))
    # (-1)^(J'-mJ') * (-1)^(L'+S'+J+1) * (-1)^(L') with S' = 1/2
    exp2 = (Jp.twice - mJp.twice) + (2 * Lp + 1 + J.twice + 2) + 2 * Lp
    phase = -1 if (exp2 // 2) % 2 else 1
    reduced = math.sqrt((J.twice + 1) * (Jp.twice + 1) * Lp)
    return phase * threej * reduced * sixj


def closed_form_coupling_matrix(cls, phi: float) -> np.ndarray:
    """Real symmetric coupling matrix of a transition class at phase angle
    phi from the closed-form 3-j index formula: entry (i, j), 1-based in
    the r1-then-r2 basis, sums the 3-j symbols whose m labels the indices
    fix, for each RF channel q = +-1.  Same scale as coupling_matrix; its
    basis signs may differ, its eigenvalues do not.
    """
    J, ap, Jp, dim = cls.J, abs(cls.p), cls.j_prime, cls.dim
    pref = abs(reduced_coupling_strength(J, cls.p)) * _class_scale(cls)
    weight = {1: math.cos(phi / 2.0) + math.sin(phi / 2.0),
              -1: math.cos(phi / 2.0) - math.sin(phi / 2.0)}
    C = np.zeros((dim, dim))
    for q, w in weight.items():
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                for a2, b2 in (
                    (J.twice + 2 - 2 * j, -3 * J.twice - 2 * ap - 4 + 2 * i),
                    (J.twice + 2 - 2 * i, -3 * J.twice - 2 * ap - 4 + 2 * j),
                ):
                    if abs(a2) <= J.twice and abs(b2) <= Jp.twice:
                        C[i - 1, j - 1] += w * pref * wigner3j(
                            J, HalfInt.of(1), Jp, HalfInt(a2), q, HalfInt(b2))
    return C


def closed_form_eigenvalues_half(phi: float) -> np.ndarray:
    """The four (1/2, 0) eigenvalues Re exp{i[phi/2 + (2n-1)pi/4]}, n=1..4."""
    n = np.arange(1, 5)
    return np.cos(phi / 2.0 + (2 * n - 1) * np.pi / 4.0)


def stokes_from_phi(phi: float) -> StokesVector:
    """Stokes vector of the meridian SOP; s2 = 0 for all phi."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    return StokesVector(-math.cos(phi), 0.0, math.sin(phi))


def phase_from_ratio_approx(R: float) -> float:
    """Principal angle from the quadratic (approximate-envelope) inversion."""
    disc = 4.0 * R * R - 2.0 * R * math.sqrt(6.0) + 8.0 - 2.0 * math.sqrt(15.0)
    arg = (math.sqrt(max(disc, 0.0)) - math.sqrt(5.0) + math.sqrt(3.0)) / (
        math.sqrt(2.0) * R
    )
    return math.asin(min(max(arg, -1.0), 1.0))


def lindblad_residual(H: np.ndarray, collapse: np.ndarray, rho: np.ndarray) -> float:
    """Norm of the matrix-form Lindblad right-hand side, one channel at a
    time: the reference that liouvillian is tested against."""
    drho = -1j * (H @ rho - rho @ H)
    for C in collapse:
        CdC = C.conj().T @ C
        drho += C @ rho @ C.conj().T - 0.5 * (CdC @ rho + rho @ CdC)
    return float(np.linalg.norm(drho))


def real_coordinates_dense(L: np.ndarray) -> np.ndarray:
    """T^-1 L T by one elementwise pass over the dense L, columns first,
    then rows, for the real coordinates of eitsim._reduce: Re rho_ab at
    u = a n + b and Im rho_ab at l = b n + a for a < b, so T_u = e_u + e_l
    and T_l = i (e_u - e_l).  The reference for eitsim._real_coordinates."""
    n = math.isqrt(L.shape[0])
    L = L.copy()
    lo, hi = np.triu_indices(n, 1)
    u, l = lo * n + hi, hi * n + lo
    Xu, Xl = L[:, u], L[:, l]
    L[:, u], L[:, l] = Xu + Xl, 1j * (Xu - Xl)
    Ru, Rl = L[u], L[l]
    L[u], L[l] = 0.5 * (Ru + Rl), -0.5j * (Ru - Rl)
    return L
