import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dipole_angular_factor, dipole_angular_factor_generic, orbital_angular_momentum
from rydpol.angular import (
    HalfInt,
    reduced_coupling_strength,
    wigner3j,
    wigner6j,
)

sympy_physics = pytest.importorskip("sympy.physics.wigner")


class TestHalfInt:
    def test_coercion(self):
        assert HalfInt.of(2).twice == 4
        assert HalfInt.of(1.5).twice == 3
        assert HalfInt.of(HalfInt(3)) == HalfInt(3)

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            HalfInt.of(0.3)

    def test_rejects_float_storage(self):
        with pytest.raises(TypeError):
            HalfInt(1.5)

    def test_arithmetic(self):
        a = HalfInt(3)  # 3/2
        assert a + 1 == HalfInt(5)
        assert a + -HalfInt(1) == HalfInt(2)
        assert -a == HalfInt(-3)

    def test_is_integer(self):
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer

    def test_repr(self):
        assert repr(HalfInt(3)) == "HalfInt(3/2)"
        assert repr(HalfInt(4)) == "HalfInt(2)"


class TestWigner3j:
    def test_known_value(self):
        # (1 1 0; 0 0 0) = -1/sqrt(3)
        assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)

    def test_odd_sum_zero(self):
        assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0

    def test_m_sum_rule(self):
        assert wigner3j(1, 1, 2, 1, 0, 0) == 0.0

    def test_triangle_violation(self):
        assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0

    def test_parity_mismatch_raises(self):
        with pytest.raises(ValueError):
            wigner3j(1.5, 1, 0.5, 0, 0, 0)

    def test_half_integer_value(self):
        # (1/2 1/2 1; 1/2 1/2 -1) = -1/sqrt(3)
        assert wigner3j(0.5, 0.5, 1, 0.5, 0.5, -1) == pytest.approx(
            -1 / math.sqrt(3), abs=1e-15
        )

    def test_column_swap_phase(self):
        # odd permutation multiplies by (-1)^(j1+j2+j3)
        a = wigner3j(2, 1, 1, 1, -1, 0)
        b = wigner3j(1, 2, 1, -1, 1, 0)
        assert b == pytest.approx((-1) ** 4 * a, abs=1e-15)

    def test_against_sympy_sample(self):
        from fractions import Fraction

        from sympy.physics.wigner import wigner_3j

        cases = []
        for twoj1 in range(0, 7):
            for twoj2 in range(0, 7):
                for twoj3 in range(abs(twoj1 - twoj2), twoj1 + twoj2 + 1, 2):
                    for twom1 in range(-twoj1, twoj1 + 1, 2):
                        for twom2 in range(-twoj2, twoj2 + 1, 2):
                            cases.append((twoj1, twoj2, twoj3, twom1, twom2))
        for twoj1, twoj2, twoj3, twom1, twom2 in cases[:: max(1, len(cases) // 200)]:
            twom3 = -twom1 - twom2
            if abs(twom3) > twoj3:
                continue
            mine = wigner3j(
                HalfInt(twoj1), HalfInt(twoj2), HalfInt(twoj3),
                HalfInt(twom1), HalfInt(twom2), HalfInt(twom3),
            )
            ref = float(
                wigner_3j(
                    Fraction(twoj1, 2), Fraction(twoj2, 2), Fraction(twoj3, 2),
                    Fraction(twom1, 2), Fraction(twom2, 2), Fraction(twom3, 2),
                )
            )
            assert mine == pytest.approx(ref, abs=1e-12), (
                twoj1, twoj2, twoj3, twom1, twom2,
            )


class TestWigner6j:
    def test_known_value(self):
        # {1 1 1; 1 1 1} = 1/6
        assert wigner6j(1, 1, 1, 1, 1, 1) == pytest.approx(1 / 6, abs=1e-15)

    def test_triangle_violation(self):
        assert wigner6j(1, 1, 3, 1, 1, 1) == 0.0

    def test_stretched_class_symbol_is_negative(self):
        # {L+1, L+3/2, 1/2; L+1/2, L, 1} = -1 / sqrt((2L+3)(2L+2))
        for L in range(0, 6):
            val = wigner6j(L + 1, HalfInt(2 * L + 3), 0.5, HalfInt(2 * L + 1), L, 1)
            assert val == pytest.approx(
                -1.0 / math.sqrt((2 * L + 3) * (2 * L + 2)), abs=1e-14
            )

    def test_against_sympy_sample(self):
        from fractions import Fraction

        from sympy.physics.wigner import wigner_6j

        import random

        rng = random.Random(7)
        checked = 0
        while checked < 120:
            vals = [rng.randrange(0, 8) for _ in range(6)]
            mine = wigner6j(*[HalfInt(v) for v in vals])
            try:
                ref = float(wigner_6j(*[Fraction(v, 2) for v in vals]))
            except ValueError:
                ref = 0.0  # sympy raises on non-triangular inputs
            assert mine == pytest.approx(ref, abs=1e-12), vals
            checked += 1


def _phase(*twojs) -> int:
    """(-1)^(j1 + j2 + j3) for doubled j whose sum is even."""
    return -1 if (sum(twojs) // 2) % 2 else 1


@st.composite
def three_j_args(draw):
    """Doubled (j1, j2, j3, m1, m2, m3), 2j <= 9, each m of j's parity but
    allowed past |m| <= j; the m-sum is zero in about half the draws."""
    twoj = [draw(st.integers(0, 9)) for _ in range(3)]
    twom = [2 * draw(st.integers(-5, 5)) + j % 2 for j in twoj[:2]]
    m3 = -twom[0] - twom[1]
    if (twoj[2] - m3) % 2 or draw(st.booleans()):
        m3 = 2 * draw(st.integers(-5, 5)) + twoj[2] % 2
    return tuple(twoj) + (twom[0], twom[1], m3)


class TestWignerProperties:
    """Selection rules, symmetries and orthogonality over random arguments,
    against sympy as the independent reference."""

    @settings(max_examples=100, deadline=None)
    @given(args=three_j_args())
    def test_3j_matches_sympy(self, args):
        ref = float(sympy_physics.wigner_3j(*[Fraction(v, 2) for v in args]))
        assert wigner3j(*map(HalfInt, args)) == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(args=three_j_args())
    def test_3j_odd_permutation_and_m_reversal_phase(self, args):
        j1, j2, j3, m1, m2, m3 = args
        value = wigner3j(*map(HalfInt, args))
        phased = _phase(j1, j2, j3) * value
        for perm in ((j2, j1, j3, m2, m1, m3), (j1, j3, j2, m1, m3, m2),
                     (j3, j2, j1, m3, m2, m1), (j1, j2, j3, -m1, -m2, -m3)):
            assert wigner3j(*map(HalfInt, perm)) == phased, perm

    @settings(max_examples=60, deadline=None)
    @given(j1=st.integers(0, 9), j2=st.integers(0, 9), data=st.data())
    def test_3j_orthogonality(self, j1, j2, data):
        triads = list(range(abs(j1 - j2), j1 + j2 + 1, 2))
        j3 = data.draw(st.sampled_from(triads))
        j3p = data.draw(st.sampled_from(triads))
        m3 = data.draw(st.sampled_from(range(-j3, j3 + 1, 2)))
        total = 0.0
        for m1 in range(-j1, j1 + 1, 2):
            m2 = -m3 - m1
            if abs(m2) <= j2:
                total += (j3 + 1) * (
                    wigner3j(*map(HalfInt, (j1, j2, j3, m1, m2, m3)))
                    * wigner3j(*map(HalfInt, (j1, j2, j3p, m1, m2, m3))))
        assert total == pytest.approx(1.0 if j3 == j3p else 0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(args=st.lists(st.integers(0, 9), min_size=6, max_size=6))
    def test_6j_matches_sympy(self, args):
        try:
            ref = float(sympy_physics.wigner_6j(*[Fraction(v, 2) for v in args]))
        except ValueError:
            ref = 0.0  # sympy raises on a non-triangular triad
        assert wigner6j(*map(HalfInt, args)) == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(args=st.lists(st.integers(0, 9), min_size=6, max_size=6),
           order=st.permutations(range(3)))
    def test_6j_column_permutation_invariant(self, args, order):
        top = [args[k] for k in order]
        bottom = [args[3 + k] for k in order]
        assert wigner6j(*map(HalfInt, top + bottom)) == wigner6j(*map(HalfInt, args))


class TestReducedStrength:
    def test_p_zero_half(self):
        # J = 1/2, p = 0: (1/sqrt(1/2)) * sqrt(2 / 6) = sqrt(2/3)
        assert reduced_coupling_strength(0.5, 0) == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-15
        )

    def test_p_plus_sign(self):
        assert reduced_coupling_strength(0.5, 1) < 0
        assert reduced_coupling_strength(1.5, -1) > 0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            reduced_coupling_strength(0.5, 2)

    def test_p_zero_needs_positive_j(self):
        with pytest.raises(ValueError):
            reduced_coupling_strength(0, 0)


class TestOrbital:
    def test_s_series(self):
        assert orbital_angular_momentum(0.5, 0) == 0
        assert orbital_angular_momentum(0.5, 1) == 0

    def test_d_series(self):
        assert orbital_angular_momentum(1.5, 0) == 1
        assert orbital_angular_momentum(1.5, 1) == 1
        assert orbital_angular_momentum(1.5, -1) == 2


class TestDipoleFactor:
    @pytest.mark.parametrize("twoJ,p", [(1, 0), (1, 1), (3, 0), (3, 1), (3, -1), (5, 1)])
    def test_closed_form_matches_generic(self, twoJ, p):
        J = HalfInt(twoJ)
        Jp = HalfInt(twoJ + (2 if p != 0 else 0))
        for twom in range(-J.twice, J.twice + 1, 2):
            for q in (-1, 0, 1):
                twomp = twom + 2 * q
                if abs(twomp) > Jp.twice:
                    continue
                a = dipole_angular_factor(J, p, HalfInt(twom), HalfInt(twomp), q)
                b = dipole_angular_factor_generic(J, p, HalfInt(twom), HalfInt(twomp), q)
                assert a == pytest.approx(b, abs=1e-13)

    def test_delta_m_violation_is_zero(self):
        assert dipole_angular_factor(0.5, 0, 0.5, 0.5, 1) == 0.0

    def test_bad_m_raises(self):
        with pytest.raises(ValueError):
            dipole_angular_factor(0.5, 0, 1.5, 0.5, -1)
