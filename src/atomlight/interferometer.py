"""Homodyne read-out of the light from the super-radiance step: the LO
amplitude, the light record and the correction sign.

beta2 leaves the condensate at t1 and is detected apart from the atoms.
Homodyne detection against a strong local oscillator gives the port
difference S_b = |c|^2 - |d|^2 = -2 Im(beta2 conj(beta_LO)), which
signal_light returns in closed form.  The atoms' record S_a = N2 - N1 after
the Mach-Zehnder interferometer is a fringe the estimator takes in closed form
from the t1 amplitudes (estimator.fringe_features).

The combined signal S = S_a + w S_b / g removes the quantum noise the two
records share, with w from the correction sign in one place,
correction_weight.  Which sign cancels (rather than doubles) the shared
noise depends on the working phase, so it is calibrated from the ensemble.
The LO amplitude is resolved in one place, lo_amplitude: beta_LO =
g sqrt(<N1(t1)>), plus the LO's per-trajectory vacuum noise when
HomodyneSpec.lo_sampled is set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Ensemble
from .phasespace import occupation, sample_coherent_batch


@dataclass
class HomodyneSpec:
    """Local-oscillator and correction settings.

    gain_g: ratio of LO amplitude to the mean pump amplitude at t1.
    lo_sampled: include the LO's own vacuum (shot) noise.
    correction_sign: "plus", "minus", "auto" (calibrated from the ensemble
        when its features are formed), or "off" (no correction: S is the
        atomic signal alone).
    """

    gain_g: float = 100.0
    lo_sampled: bool = True
    correction_sign: str = "auto"

    def __post_init__(self):
        if not (np.isfinite(self.gain_g) and self.gain_g > 0):
            raise ValueError("gain_g must be finite and > 0")
        if self.correction_sign not in ("plus", "minus", "auto", "off"):
            raise ValueError(f"unknown correction_sign {self.correction_sign!r}")


def signal_light(beta2, beta_lo) -> np.ndarray | float:
    """Homodyne photon-number difference of the scattered light beta2 against
    an LO of amplitude beta_lo, -2 Im(beta2 conj(beta_LO)): the port difference
    |c|^2 - |d|^2 without the cancellation of two ports of order beta_LO^2."""
    return -2.0 * np.imag(beta2 * np.conj(beta_lo))


def correction_weight(correction_sign: str) -> float:
    """w in S = S_a + w S_b / g: -1 for "plus", +1 for "minus", 0 for "off"."""
    if correction_sign == "auto":
        raise ValueError("correction_sign is unresolved; calibrate or set it explicitly")
    return {"plus": -1.0, "minus": 1.0, "off": 0.0}[correction_sign]


def lo_noise_samples(ensemble: Ensemble) -> np.ndarray:
    """Per-trajectory LO vacuum noise, reused across all phases."""
    return sample_coherent_batch(0.0, ensemble.master_seed, "local_oscillator", ensemble.n_traj)


def lo_amplitude(ensemble: Ensemble, spec: HomodyneSpec, lo_noise=None):
    """beta_LO = g sqrt(<N1(t1)>), plus the LO's vacuum noise per trajectory
    when spec.lo_sampled (drawn here unless lo_noise holds the draw)."""
    beta_lo = spec.gain_g * np.sqrt(max(occupation(ensemble.state.alpha1), 0.0))
    if not spec.lo_sampled:
        return beta_lo
    return beta_lo + (lo_noise_samples(ensemble) if lo_noise is None else lo_noise)


def calibrate_correction_sign(s_a, s_b) -> str:
    """Pick the correction sign with the smaller V(S) for per-trajectory
    atomic and light records s_a and s_b taken at one reference phase.

    V(s_a - s_b/g) - V(s_a + s_b/g) = -4 cov(s_a, s_b)/g, so for any g > 0
    the choice is the sign of the centred covariance, and g does not enter:
    "plus" when it is >= 0 (ties break toward "plus").  At the working point
    phi = pi/2 (where S_a is the fringe feature C) the chosen sign subtracts
    the shared noise; a half fringe away the correlation flips and the
    opposite sign would be chosen.
    """
    if np.size(s_a) == 0:
        raise ValueError("empty ensemble")
    cov = np.dot(s_a - np.mean(s_a), s_b - np.mean(s_b))
    return "plus" if cov >= 0 else "minus"


def detected_photons(ensemble: Ensemble, spec: HomodyneSpec) -> float:
    """Total photons hitting the homodyne detectors: LO plus scattered light.

    The LO counts at its mean amplitude.  Used for the photon-inclusive
    sensitivity bound 1/sqrt(N_atoms + N_photons).
    """
    beta_lo = lo_amplitude(ensemble, replace(spec, lo_sampled=False))
    return float(beta_lo**2 + max(occupation(ensemble.state.beta2), 0.0))
