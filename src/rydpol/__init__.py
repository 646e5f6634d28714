"""Rydberg-atom RF polarimetry.

Forward modeling of RF-dressed Rydberg manifolds (eigenvalue spectrograms
and simulated EIT spectra as a function of the field's state of
polarization) and the inverse problem of recovering candidate phase
angles from measured spectra.  The public API is the modules angular,
sop, dressing, eitsim and inversion, plus the command line in cli; each
name is imported from its module, as in rydpol.dressing.eigen_spectrum.
"""

__version__ = "0.1.0"
