"""Rydberg-atom RF polarimetry.

Forward modeling of RF-dressed Rydberg manifolds (eigenvalue spectrograms
and simulated EIT spectra as a function of the field's state of
polarization) and the inverse problem of recovering candidate phase
angles from measured spectra.  The names imported below are the public
API.
"""

from .angular import (
    HalfInt,
    reduced_coupling_strength,
    wigner3j,
    wigner6j,
)
from .dressing import (
    EXPERIMENTAL_CLASSES,
    TransitionClass,
    closed_form_eigenvalues_half,
    coupling_matrix,
    eigen_spectrum,
    envelopes_approx,
    envelopes_exact,
    oracle_matrix,
    oracle_scale,
    spectrogram,
)
from .eitsim import (
    LevelScheme,
    SimParams,
    ThirdLevel,
    build_hamiltonian,
    eit_spectrogram,
    eit_spectrum,
    scheme_for_class,
    steady_state,
    third_level_sweep,
)
from .inversion import (
    PeakSet,
    PhaseCandidates,
    combine_candidates,
    extract_peaks,
    invert_five_half,
    invert_half,
    invert_peaks,
    ratio_five_half,
    ratio_half,
    round_trip,
)
from .sop import (
    OpticalConfig,
    OPTICS_PRESETS,
    RfSop,
    StokesVector,
    rotated_circular_optics,
    sop_from_phi,
    standard_optics,
    stokes_from_phi,
    tilted_linear_optics,
)

__version__ = "0.1.0"
