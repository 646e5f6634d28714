import math
from dataclasses import astuple

import numpy as np
import pytest

from rydpol.sop import (
    OpticalConfig,
    OPTICS_PRESETS,
    RfSop,
    rotated_circular_optics,
    sop_from_phi,
    spherical_components,
    standard_optics,
    tilted_linear_optics,
)
from oracles import stokes_from_phi


class TestRfSop:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            RfSop(1.0, 1.0)

    def test_meridian_amplitudes(self):
        s = sop_from_phi(math.pi / 2)
        assert s.amp_plus == pytest.approx(1.0)
        assert s.amp_minus == pytest.approx(0.0, abs=1e-15)

    def test_phi_wraps(self):
        s, ref = sop_from_phi(2 * math.pi + 0.5), sop_from_phi(0.5)
        assert (s.amp_plus, s.amp_minus) == pytest.approx((ref.amp_plus, ref.amp_minus))

    def test_non_finite_phi(self):
        with pytest.raises(ValueError):
            sop_from_phi(float("nan"))


class TestStokes:
    def test_cardinal_points(self):
        for phi, expect in [
            (0.0, (-1, 0, 0)),
            (math.pi / 2, (0, 0, 1)),
            (math.pi, (1, 0, 0)),
            (3 * math.pi / 2, (0, 0, -1)),
        ]:
            s = sop_from_phi(phi).stokes()
            assert (s.s1, s.s2, s.s3) == pytest.approx(expect, abs=1e-12)

    def test_jones_and_formula_agree(self):
        for phi in np.linspace(0, 2 * math.pi, 37):
            a = sop_from_phi(phi).stokes()
            b = stokes_from_phi(phi)
            assert (a.s1, a.s2, a.s3) == pytest.approx((b.s1, b.s2, b.s3), abs=1e-12)

    def test_fully_polarized(self):
        for phi in (0.3, 1.7, 4.4):
            s = astuple(sop_from_phi(phi).stokes())
            assert math.hypot(*s) == pytest.approx(1.0)

    def test_phi_zero_is_along_x(self):
        ex, ey = sop_from_phi(0.0).jones_xy()
        assert abs(ex) == pytest.approx(1.0)
        assert abs(ey) == pytest.approx(0.0, abs=1e-15)


class TestFrames:
    def test_spherical_components_unit(self):
        c = spherical_components((1, 0, 0))
        assert sum(abs(v) ** 2 for v in c) == pytest.approx(1.0)

    def test_linear_x_has_no_pi_component(self):
        c_minus, c_zero, c_plus = spherical_components((1, 0, 0))
        assert c_zero == pytest.approx(0.0, abs=1e-15)
        assert abs(c_plus) == pytest.approx(abs(c_minus))


class TestOpticalConfig:
    def test_standard_valid(self):
        assert standard_optics() == OpticalConfig((0, 1, 0), (0, -1, 0), (1, 0, 0), (1, 0, 0))

    def test_counter_propagation_enforced(self):
        with pytest.raises(ValueError):
            OpticalConfig((0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0))

    def test_transversality_enforced(self):
        with pytest.raises(ValueError):
            OpticalConfig((0, 1, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0))

    @pytest.mark.parametrize("field,value,message", [
        ("pol_probe", (0, 0, 0), "finite non-zero"),
        ("pol_probe", (math.nan, 0, 0), "finite non-zero"),
        ("pol_coupling", (1, math.inf, 0), "finite non-zero"),
        ("pol_coupling", (1, 0), "finite non-zero"),
        ("propagation_probe", (0, math.nan, 0), "finite non-zero"),
        ("propagation_coupling", (0, 0, 0), "finite non-zero"),
        ("pol_coupling", (2, 0, 0), "unit Jones vector"),
        ("pol_probe", (1 + 2e-6, 0, 0), "unit Jones vector"),
    ], ids=["zero_pol", "nan_pol", "inf_pol", "short_pol", "nan_k", "zero_k",
            "pol_norm_2", "pol_norm_off"])
    def test_bad_vector_rejected(self, field, value, message):
        vectors = dict(propagation_probe=(0, 1, 0), propagation_coupling=(0, -1, 0),
                       pol_probe=(1, 0, 0), pol_coupling=(1, 0, 0))
        vectors[field] = value
        with pytest.raises(ValueError, match="%s must be a %s" % (field, message)):
            OpticalConfig(**vectors)

    def test_near_unit_jones_vector_accepted(self):
        OpticalConfig((0, 1, 0), (0, -1, 0), (1 + 5e-7, 0, 0), (1, 0, 0))

    def test_rotated_circular_is_transverse(self):
        cfg = rotated_circular_optics()
        k = np.array(cfg.propagation_probe, dtype=float)
        p = np.array(cfg.pol_probe, dtype=complex)
        assert abs(np.vdot(k.astype(complex), p)) < 1e-12

    def test_tilted_linear_has_pi_component(self):
        cfg = tilted_linear_optics()
        _, c_zero, _ = cfg.coupling_components()
        assert abs(c_zero) > 0.5

    def test_presets_constructible(self):
        assert OPTICS_PRESETS == {"standard": standard_optics,
                                  "tilted_linear": tilted_linear_optics,
                                  "rotated_circular": rotated_circular_optics}
        for factory in OPTICS_PRESETS.values():
            assert isinstance(factory(), OpticalConfig)
        cfg = rotated_circular_optics()
        for pol in (cfg.pol_probe, cfg.pol_coupling):
            p = np.array(pol, dtype=complex)
            assert abs(p @ p) < 1e-12  # circular: p . p = 0 for a unit Jones vector
