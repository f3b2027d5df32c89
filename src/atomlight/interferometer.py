"""Homodyne read-out of the t1 state: the per-trajectory fringe features
that every M is evaluated from, the LO amplitude, and the light record.

beta2 leaves the condensate at t1 and is detected apart from the atoms.
Homodyne detection against a strong local oscillator gives the port
difference S_b = |c|^2 - |d|^2 = -2 Im(beta2 conj(beta_LO)), which
signal_light returns in closed form, with beta_LO = g sqrt(<N1(t1)>) from
lo_amplitude.  The atoms' record S_a = N2 - N1 after the Mach-Zehnder
interferometer is a single fringe harmonic in its phase,

    S_a(phi) = B cos(phi) + C sin(phi),

with B = |alpha1|^2 - |alpha2|^2 and C = -2 Re(alpha1 conj(alpha2)) of the
unsplit t1 amplitudes, so no splitter is applied.  fringe_features forms the
rows (B, C, S_b / g) of one ensemble; they are the same for every correction
setting, since the correction S = S_a + w S_b / g is a weight that the
estimator applies (and, for an "auto" sign, decides) when it evaluates them.
The LO's per-trajectory vacuum noise is a Wigner input like the others: the
build draws it (dynamics.build_ensembles) and the read-out adds the
ensemble's lo_noise to beta_LO.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Ensemble
from .phasespace import occupation


def signal_light(beta2, beta_lo) -> np.ndarray | float:
    """Homodyne photon-number difference of the scattered light beta2 against
    an LO of amplitude beta_lo, -2 Im(beta2 conj(beta_LO)): the port difference
    |c|^2 - |d|^2 without the cancellation of two ports of order beta_LO^2."""
    return -2.0 * np.imag(beta2 * np.conj(beta_lo))


def lo_amplitude(ensemble: Ensemble, gain_g: float) -> float:
    """The mean LO amplitude beta_LO = g sqrt(<N1(t1)>), for a finite gain_g g > 0."""
    if not (np.isfinite(gain_g) and gain_g > 0):
        raise ValueError("gain_g must be finite and > 0")
    return gain_g * np.sqrt(max(occupation(ensemble.state.alpha1), 0.0))


def fringe_features(ensemble: Ensemble, gain_g: float) -> np.ndarray:
    """Per-trajectory features (B, C, S_b / g), an (n, 3) array.

    S_b is read against lo_amplitude(ensemble, gain_g) plus the ensemble's
    lo_noise, when it has one.
    """
    noise = 0.0 if ensemble.lo_noise is None else ensemble.lo_noise
    s_b = signal_light(ensemble.state.beta2, lo_amplitude(ensemble, gain_g) + noise)
    a1, a2 = ensemble.state.alpha1, ensemble.state.alpha2
    b = (a1.real ** 2 + a1.imag ** 2) - (a2.real ** 2 + a2.imag ** 2)  # |alpha1|^2 - |alpha2|^2
    c = -2.0 * (a1.real * a2.real + a1.imag * a2.imag)  # -2 Re(alpha1 conj(alpha2))
    return np.stack([b, c, s_b / gain_g], axis=1)


def detected_photons(ensemble: Ensemble, gain_g: float) -> float:
    """Total photons hitting the homodyne detectors: LO plus scattered light.

    The LO counts at its mean amplitude.  Used for the photon-inclusive
    sensitivity bound 1/sqrt(N_atoms + N_photons).
    """
    return float(lo_amplitude(ensemble, gain_g) ** 2 + max(occupation(ensemble.state.beta2), 0.0))
