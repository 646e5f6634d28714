"""Exact angular-momentum algebra.

Half-integer quantum numbers are stored as doubled integers so that every
triangle and parity check is integer-exact.  Wigner 3-j and 6-j symbols are
evaluated with the Racah single-sum formula using exact rational arithmetic
(python big ints via ``fractions.Fraction``) and converted to float at the
very end.  Phase conventions follow Condon-Shortley.  The command line
(cli) reads and bounds the outside values it passes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class HalfInt:
    """A half-integer j stored as the doubled integer 2j."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError("HalfInt stores 2j as an int, got %r" % (self.twice,))

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float multiple of 1/2, or HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        doubled = 2 * value
        if doubled != round(doubled):
            raise ValueError("%r is not a half-integer" % (value,))
        return cls(int(round(doubled)))

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __eq__(self, other):
        try:
            return self.twice == HalfInt.of(other).twice
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(("HalfInt", self.twice))

    def __repr__(self):
        if self.twice % 2 == 0:
            return "HalfInt(%d)" % (self.twice // 2)
        return "HalfInt(%d/2)" % self.twice

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0


def _triangle_ok(a2: int, b2: int, c2: int) -> bool:
    # doubled-integer triangle condition with parity of the triad sum
    if (a2 + b2 + c2) % 2 != 0:
        return False
    return abs(a2 - b2) <= c2 <= a2 + b2


def _delta_sq(a2: int, b2: int, c2: int) -> Fraction:
    """Squared triangle coefficient, exact."""
    return Fraction(
        math.factorial((a2 + b2 - c2) // 2)
        * math.factorial((a2 - b2 + c2) // 2)
        * math.factorial((-a2 + b2 + c2) // 2),
        math.factorial((a2 + b2 + c2) // 2 + 1),
    )


def _sqrt_fraction(f: Fraction) -> float:
    return math.sqrt(f.numerator / f.denominator)


def wigner3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol; returns 0.0 when a selection rule fails.

    Arguments may be HalfInt, int, or float half-integers.  Raises on
    m-values whose parity is inconsistent with the corresponding j.
    """
    j1, j2, j3 = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j3)
    m1, m2, m3 = HalfInt.of(m1), HalfInt.of(m2), HalfInt.of(m3)
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if (j.twice - m.twice) % 2 != 0:
            raise ValueError("m=%s has wrong parity for j=%s" % (m, j))
        if abs(m.twice) > j.twice:
            return 0.0
    if m1.twice + m2.twice + m3.twice != 0:
        return 0.0
    if not _triangle_ok(j1.twice, j2.twice, j3.twice):
        return 0.0

    a2, b2, c2 = j1.twice, j2.twice, j3.twice
    ma2, mb2, mc2 = m1.twice, m2.twice, m3.twice

    # Racah sum over t (integer); bounds from non-negativity of factorials,
    # and |m| <= j, the m-sum and the triangle rule make t_min <= t_max
    t_min = max(0, (b2 - c2 - ma2) // 2, (a2 - c2 + mb2) // 2)
    t_max = min(
        (a2 + b2 - c2) // 2,
        (a2 - ma2) // 2,
        (b2 + mb2) // 2,
    )
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = (
            math.factorial(t)
            * math.factorial((c2 - b2 + ma2) // 2 + t)
            * math.factorial((c2 - a2 - mb2) // 2 + t)
            * math.factorial((a2 + b2 - c2) // 2 - t)
            * math.factorial((a2 - ma2) // 2 - t)
            * math.factorial((b2 + mb2) // 2 - t)
        )
        total += Fraction(-1 if t % 2 else 1, denom)
    if total == 0:
        return 0.0
    norm = _delta_sq(a2, b2, c2) * Fraction(
        math.factorial((a2 + ma2) // 2)
        * math.factorial((a2 - ma2) // 2)
        * math.factorial((b2 + mb2) // 2)
        * math.factorial((b2 - mb2) // 2)
        * math.factorial((c2 + mc2) // 2)
        * math.factorial((c2 - mc2) // 2)
    )
    phase = -1 if ((a2 - b2 - mc2) // 2) % 2 else 1
    sign = 1 if total > 0 else -1
    return phase * sign * _sqrt_fraction(norm * total * total)


def wigner6j(a, b, c, d, e, f) -> float:
    """Wigner 6-j symbol {a b c; d e f}; 0.0 when any triad is non-triangular."""
    a, b, c = HalfInt.of(a), HalfInt.of(b), HalfInt.of(c)
    d, e, f = HalfInt.of(d), HalfInt.of(e), HalfInt.of(f)
    triads = (
        (a.twice, b.twice, c.twice),
        (a.twice, e.twice, f.twice),
        (d.twice, b.twice, f.twice),
        (d.twice, e.twice, c.twice),
    )
    for t in triads:
        if not _triangle_ok(*t):
            return 0.0

    # all in doubled integers; the four triad sums and three pair sums are even
    s_abc = (a.twice + b.twice + c.twice) // 2
    s_aef = (a.twice + e.twice + f.twice) // 2
    s_dbf = (d.twice + b.twice + f.twice) // 2
    s_dec = (d.twice + e.twice + c.twice) // 2
    p_abde = (a.twice + b.twice + d.twice + e.twice) // 2
    p_bcef = (b.twice + c.twice + e.twice + f.twice) // 2
    p_acdf = (a.twice + c.twice + d.twice + f.twice) // 2

    # each triad sum <= each pair sum is a triangle rule of one triad
    t_min = max(s_abc, s_aef, s_dbf, s_dec)
    t_max = min(p_abde, p_bcef, p_acdf)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = (
            math.factorial(t - s_abc)
            * math.factorial(t - s_aef)
            * math.factorial(t - s_dbf)
            * math.factorial(t - s_dec)
            * math.factorial(p_abde - t)
            * math.factorial(p_bcef - t)
            * math.factorial(p_acdf - t)
        )
        total += Fraction((-1 if t % 2 else 1) * math.factorial(t + 1), denom)
    if total == 0:
        return 0.0
    norm = (
        _delta_sq(a.twice, b.twice, c.twice)
        * _delta_sq(a.twice, e.twice, f.twice)
        * _delta_sq(d.twice, b.twice, f.twice)
        * _delta_sq(d.twice, e.twice, c.twice)
    )
    sign = 1 if total > 0 else -1
    return sign * _sqrt_fraction(norm * total * total)


def reduced_coupling_strength(J, p: int) -> float:
    """Per-transition-class product of the simplified 6-j and the
    sqrt((2J+1)(2J'+1)(L+1)) factor, with the radial scale set to 1.

    p = +1:      -sqrt(2J+3) * sqrt((2J+1) / (2(2J+2)))
    p = -1:      +sqrt(2J+3) * sqrt((2J+1) / (2(2J+2)))
    p = 0:       (1/sqrt(J)) * sqrt((2J+1) / (2(2J+2)))

    The p=+1 six-j {L+1, L+3/2, 1/2; L+1/2, L, 1} is negative for every L,
    hence the leading minus; the magnitudes are the familiar closed forms.
    A per-class global sign has no effect on dressed eigenvalues.
    """
    J = HalfInt.of(J)
    if p not in (-1, 0, 1):
        raise ValueError("p must be -1, 0, or +1")
    twoJ = J.twice
    common = math.sqrt((twoJ + 1) / (2.0 * (twoJ + 2)))
    if p == 0:
        if twoJ == 0:
            raise ValueError("p=0 requires J >= 1/2")
        return common / math.sqrt(twoJ / 2.0)
    sign = -1.0 if p == 1 else 1.0
    return sign * common * math.sqrt(twoJ + 3)
