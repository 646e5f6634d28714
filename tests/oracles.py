"""Independent reference routes that only the tests call.

Per-element dipole factors (the closed-form route and the generic 3-j/6-j
route) cross-check dressing's Wigner-Eckart block builder, and the paper's
quadratic approximate-envelope inversion brackets the exact one.
"""

import math

from rydpol.angular import HalfInt, reduced_coupling_strength, wigner3j, wigner6j


def _jprime(J: HalfInt, p: int) -> HalfInt:
    return J + (1 if p != 0 else 0)


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


def phase_from_ratio_approx(R: float) -> float:
    """Principal angle from the quadratic (approximate-envelope) inversion."""
    disc = 4.0 * R * R - 2.0 * R * math.sqrt(6.0) + 8.0 - 2.0 * math.sqrt(15.0)
    arg = (math.sqrt(max(disc, 0.0)) - math.sqrt(5.0) + math.sqrt(3.0)) / (
        math.sqrt(2.0) * R
    )
    return math.asin(min(max(arg, -1.0), 1.0))
