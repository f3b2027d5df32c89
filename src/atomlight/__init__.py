"""Truncated-Wigner simulation of atom interferometry with homodyne
read-out of the light generated by the beam-splitting step.

A Raman super-radiance pulse splits a condensate while scattering photons
into a single optical mode, entangling the transferred atoms with the
light.  The atoms run through a Mach-Zehnder interferometer; the light is
measured by homodyne detection; subtracting the scaled optical record from
the atomic number difference removes shared quantum noise and pushes the
phase sensitivity below the standard quantum limit 1/sqrt(N).
"""

__version__ = "0.1.0"

import os

# The program runs on one thread, so an idle OpenBLAS pool would only spin.
# Set before numpy loads it; a user's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .phasespace import (
    occupation,
    quadrature_x,
    sample_coherent_batch,
    sample_initial_ensemble,
)
from .dynamics import (
    build_ensembles,
    evolve_analytic,
    transferred_atoms,
)
from .interferometer import detected_photons
from .analytics import predict
from .estimator import (
    scan_over_r,
    sensitivity_curve,
    squeezed_combo_variance,
)
from .feasibility import PhysicalSetup, capture_fraction, rate_ratio, scaling_estimate
from .config import RunConfig

# The names the demos, the tests and the README import from the package
# itself; everything else is imported from its module.
__all__ = [
    "PhysicalSetup",
    "RunConfig",
    "build_ensembles",
    "capture_fraction",
    "detected_photons",
    "evolve_analytic",
    "occupation",
    "predict",
    "quadrature_x",
    "rate_ratio",
    "sample_coherent_batch",
    "sample_initial_ensemble",
    "scaling_estimate",
    "scan_over_r",
    "sensitivity_curve",
    "squeezed_combo_variance",
    "transferred_atoms",
]
