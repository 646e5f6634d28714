"""Optical geometry as an ambiguity breaker.

With both lasers linearly polarized the EIT response cannot tell phi from
2*pi - phi: the spectrogram is mirror symmetric.  Rotating the beams so
the coupling light carries circular polarization makes the central peak
sensitive to the handedness of the RF field, which breaks the mirror and
lets a pair of measurements pin down a single phase angle.
"""

import math
import os

import numpy as np

from rydpol.dressing import TransitionClass
from rydpol.eitsim import SimParams, eit_spectrum, scheme_for_class
from rydpol.inversion import (
    combine_candidates,
    extract_peaks,
    invert_five_half,
    ratio_five_half,
)
from rydpol.sop import rotated_circular_optics

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def central_height(scheme, params, phi):
    return float(eit_spectrum(scheme, params, phi).response.max())


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    scheme = scheme_for_class(TransitionClass.of(1.5, 1))
    mini = tuple(np.linspace(-4.0, 4.0, 25))
    p_std = SimParams(coupling_detuning_grid=mini)
    p_rot = SimParams(coupling_detuning_grid=mini, optics=rotated_circular_optics())

    print("central-peak height vs phi (narrow scan around zero detuning)")
    print("phi_deg   standard    rotated")
    path = os.path.join(OUT_DIR, "central_heights.csv")
    with open(path, "w") as fh:
        fh.write("phi,standard,rotated\n")
        for deg in range(10, 360, 20):
            phi = math.radians(deg)
            hs = central_height(scheme, p_std, phi)
            hr = central_height(scheme, p_rot, phi)
            fh.write("%.9g,%.9g,%.9g\n" % (phi, hs, hr))
            print("%7d   %.6f   %.6f" % (deg, hs, hr))
    print("table -> %s" % path)

    h_up = central_height(scheme, p_rot, math.pi / 2)
    h_dn = central_height(scheme, p_rot, 3 * math.pi / 2)
    print()
    print("rotated optics at the two circular SOPs: %.5f vs %.5f "
          "(contrast x%.2f)" % (h_up, h_dn, h_up / h_dn))
    print("the standard configuration gives identical heights there, so the")
    print("contrast is purely a handedness signature.")

    # combined inversion at a test angle in the high-contrast region
    phi_true = 1.0
    p_full = SimParams(omega_coupling=2.0,
                       coupling_detuning_grid=tuple(np.linspace(-65, 65, 521)))
    spec = eit_spectrum(scheme, p_full, phi_true)
    peaks = extract_peaks(spec.detuning_mhz, spec.response,
                          min_prominence=0.003, merge_tol=1.0, central_tol=3.0)
    R = ratio_five_half(peaks)
    thr_std = central_height(scheme, p_std, math.pi / 2)
    thr_rot = math.sqrt(h_up * h_dn)
    first = invert_five_half(R, central_height(scheme, p_std, phi_true),
                             thr_std, config="standard", tol=0.3)
    second = invert_five_half(R, central_height(scheme, p_rot, phi_true),
                              thr_rot, config="rotated_circular", tol=0.3)
    combined = combine_candidates(first.pruned, second.pruned, angle_tol=0.08)
    print()
    print("true phi  : %.3f rad" % phi_true)
    print("standard  : %s" % ", ".join("%.3f" % c for c in first.pruned))
    print("rotated   : %s" % ", ".join("%.3f" % c for c in second.pruned))
    print("combined  : %s" % ", ".join("%.3f" % c for c in combined))


if __name__ == "__main__":
    main()
