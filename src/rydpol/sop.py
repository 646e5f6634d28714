"""RF-field state of polarization (SOP) and optical-beam geometry.

The RF field propagates along z (the quantization axis).  A single phase
angle phi, the relative phase between the two antenna ports, sweeps its
SOP around a Poincare-sphere meridian:

    phi = 0     linear-vertical   (LVP)  s = (-1, 0, 0)   lab x
    phi = pi/2  left-circular     (LCP)  s = (0, 0, +1)
    phi = pi    linear-horizontal (LHP)  s = (+1, 0, 0)   lab y
    phi = 3pi/2 right-circular    (RCP)  s = (0, 0, -1)

The port axes u1, u2 lie along the diagonals (x -+ y)/sqrt(2), so the
vertical direction (phi = 0) coincides with lab x, the polarization axis
of the optical beams in the reference geometry.  Stokes convention:
s1 = +1 is linear along y, s3 = +1 is LCP.  The spherical basis is
e_{+-1} = -+(x +- i y)/sqrt(2), e_0 = z.

amp_plus and amp_minus below are the real meridian amplitudes of the
e_{+1} and e_{-1} channels.  In the lab frame the e_{+1} component
carries an extra minus sign from the diagonal port orientation; use
lab_spherical() whenever interference with other lab-frame fields (the
optical beams) matters.  Dressed eigenvalues are insensitive to the
distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class StokesVector:
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True)
class RfSop:
    """Normalized spherical-basis amplitudes of the RF field.

    amp_plus and amp_minus are the coefficients of e_{+1} and e_{-1};
    |amp_plus|^2 + |amp_minus|^2 = 1.  phi is stored for meridian states
    built from a phase angle and is None for general states.
    """

    amp_plus: complex
    amp_minus: complex
    phi: float | None = None

    def __post_init__(self):
        norm = abs(self.amp_plus) ** 2 + abs(self.amp_minus) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("SOP amplitudes must be unit-norm, got %g" % norm)

    def lab_spherical(self) -> tuple[complex, complex]:
        """(c_minus, c_plus) spherical components in the lab frame."""
        return complex(self.amp_minus), complex(-self.amp_plus)

    def jones_xy(self) -> tuple[complex, complex]:
        """Lab-frame Jones components (E_x, E_y) of the analytic signal."""
        c_minus, c_plus = self.lab_spherical()
        ex = (-c_plus + c_minus) / _SQRT2
        ey = -1j * (c_plus + c_minus) / _SQRT2
        return ex, ey

    def stokes(self) -> StokesVector:
        ex, ey = self.jones_xy()
        s1 = abs(ey) ** 2 - abs(ex) ** 2
        s2 = 2.0 * (ex.conjugate() * ey).real
        s3 = 2.0 * (ex.conjugate() * ey).imag
        return StokesVector(s1, s2, s3)


def sop_from_phi(phi: float) -> RfSop:
    """Meridian SOP for a phase angle phi between the two antenna ports."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    phi = phi % (2.0 * math.pi)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return RfSop((c + s) / _SQRT2, (c - s) / _SQRT2, phi=phi)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("zero-norm vector")
    return v / n


def frame_for_axis(axis) -> np.ndarray:
    """Right-handed orthonormal frame (rows x', y', z') with z' = axis.

    x' is the projection of lab x onto the plane normal to the axis; if the
    axis is (anti)parallel to x, lab y is projected instead.  Deterministic,
    so spectra computed in rotated frames are reproducible.
    """
    z = _unit(axis)
    for seed in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        xp = seed - np.dot(seed, z) * z
        if np.linalg.norm(xp) > 1e-9:
            x = xp / np.linalg.norm(xp)
            break
    y = np.cross(z, x)
    return np.vstack([x, y, z])


def spherical_components(pol) -> tuple[complex, complex, complex]:
    """Decompose a unit lab-frame Jones vector onto (e_-1, e_0, e_+1) of the
    z quantization axis.

    Returns (c_minus, c_zero, c_plus) with |c-|^2 + |c0|^2 + |c+|^2 = 1 for
    unit input.
    """
    pol = np.asarray(pol, dtype=complex)
    if np.linalg.norm(pol) < 1e-12:
        raise ValueError("zero-norm polarization vector")
    e_plus = np.array([-1.0, -1.0j, 0.0]) / _SQRT2
    e_minus = np.array([1.0, -1.0j, 0.0]) / _SQRT2
    e_zero = np.array([0.0, 0.0, 1.0])
    return tuple(complex(np.vdot(e, pol)) for e in (e_minus, e_zero, e_plus))


@dataclass(frozen=True)
class OpticalConfig:
    """Propagation directions and unit Jones vectors of probe and coupling."""

    propagation_probe: tuple
    propagation_coupling: tuple
    pol_probe: tuple
    pol_coupling: tuple
    name: str = "custom"

    def __post_init__(self):
        for field in ("propagation_probe", "propagation_coupling", "pol_probe", "pol_coupling"):
            v = np.asarray(getattr(self, field), dtype=complex)
            norm = float(np.linalg.norm(v)) if v.shape == (3,) else 0.0
            if not (math.isfinite(norm) and norm > 0.0):
                raise ValueError("%s must be a finite non-zero 3-vector" % field)
            if field.startswith("pol") and abs(norm - 1.0) > 1e-6:
                raise ValueError("%s must be a unit Jones vector, got norm %g" % (field, norm))
        kp = _unit(self.propagation_probe)
        kc = _unit(self.propagation_coupling)
        if np.linalg.norm(kp + kc) > 1e-6:
            raise ValueError("probe and coupling must counter-propagate")
        for k, pol in ((kp, self.pol_probe), (kc, self.pol_coupling)):
            p = np.asarray(pol, dtype=complex)
            if abs(np.vdot(k.astype(complex), p)) > 1e-6:
                raise ValueError("polarization must be transverse to propagation")

    def probe_components(self):
        return spherical_components(self.pol_probe)

    def coupling_components(self):
        return spherical_components(self.pol_coupling)


def _circular_pol(k) -> tuple:
    k = _unit(k)
    frame = frame_for_axis(k)
    e1, e2 = frame[0], frame[1]
    p = (e1 + 1j * e2) / _SQRT2
    return tuple(p)


def standard_optics() -> OpticalConfig:
    """Probe along +y, coupling along -y, both linearly polarized along x."""
    return OpticalConfig(
        propagation_probe=(0.0, 1.0, 0.0),
        propagation_coupling=(0.0, -1.0, 0.0),
        pol_probe=(1.0, 0.0, 0.0),
        pol_coupling=(1.0, 0.0, 0.0),
        name="standard",
    )


def tilted_linear_optics() -> OpticalConfig:
    """Beams along +-y, linearly polarized in the x-z plane at 45 degrees
    from x.

    The z (pi) component keeps every dressed band optically visible across
    the whole phi range, which the pure-x configuration does not; useful
    when peak positions rather than prominence symmetries are the point.
    """
    angle = math.pi / 4.0
    pol = (math.cos(angle), 0.0, math.sin(angle))
    return OpticalConfig(
        propagation_probe=(0.0, 1.0, 0.0),
        propagation_coupling=(0.0, -1.0, 0.0),
        pol_probe=pol,
        pol_coupling=pol,
        name="tilted_linear",
    )


def rotated_circular_optics() -> OpticalConfig:
    """Circularly polarized beams counter-propagating along y - z.

    This geometry breaks the phi <-> 2pi - phi mirror symmetry of the EIT
    spectrogram, which is what allows RF-helicity discrimination.
    """
    kp = (0.0, 1.0, -1.0)
    kc = (0.0, -1.0, 1.0)
    return OpticalConfig(
        propagation_probe=kp,
        propagation_coupling=kc,
        pol_probe=_circular_pol(kp),
        pol_coupling=_circular_pol(kc),
        name="rotated_circular",
    )


OPTICS_PRESETS = {
    "standard": standard_optics,
    "tilted_linear": tilted_linear_optics,
    "rotated_circular": rotated_circular_optics,
}
