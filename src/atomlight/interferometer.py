"""Homodyne read-out of the t1 state: the per-trajectory fringe features
that every M is evaluated from, the LO amplitude and its one draw, and the
light record.

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
feature_sets yields them one ensemble at a time, as the estimator reads them
(the scatter verb's single ensemble is a run of one); it alone reads
HomodyneSpec.lo_sampled and draws the LO's per-trajectory vacuum noise, once
for all of its ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Ensemble
from .phasespace import occupation, sample_coherent_batch


@dataclass
class HomodyneSpec:
    """Local-oscillator and correction settings.

    gain_g: ratio of LO amplitude to the mean pump amplitude at t1.
    lo_sampled: include the LO's own vacuum (shot) noise.
    correction_sign: "plus", "minus", "auto" (calibrated from the ensemble
        when its features are evaluated, estimator.evaluate), or "off" (no
        correction: S is the atomic signal alone).
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


def lo_noise_samples(ensemble: Ensemble) -> np.ndarray:
    """Per-trajectory LO vacuum noise, reused across all phases."""
    return sample_coherent_batch(0.0, ensemble.master_seed, "local_oscillator", ensemble.n_traj)


def lo_amplitude(ensemble: Ensemble, spec: HomodyneSpec, lo_noise=None):
    """beta_LO = g sqrt(<N1(t1)>), plus lo_noise (the LO's vacuum noise per
    trajectory) when it is given."""
    beta_lo = spec.gain_g * np.sqrt(max(occupation(ensemble.state.alpha1), 0.0))
    return beta_lo if lo_noise is None else beta_lo + lo_noise


def fringe_features(ensemble: Ensemble, spec: HomodyneSpec, lo_noise) -> np.ndarray:
    """Per-trajectory features (B, C, S_b / g), an (n, 3) array.

    S_b is read against lo_amplitude(ensemble, spec, lo_noise), so lo_noise
    None is an LO without vacuum noise.
    """
    s_b = signal_light(ensemble.state.beta2, lo_amplitude(ensemble, spec, lo_noise))
    a1, a2 = ensemble.state.alpha1, ensemble.state.alpha2
    b = (a1.real ** 2 + a1.imag ** 2) - (a2.real ** 2 + a2.imag ** 2)  # |alpha1|^2 - |alpha2|^2
    c = -2.0 * (a1.real * a2.real + a1.imag * a2.imag)  # -2 Re(alpha1 conj(alpha2))
    return np.stack([b, c, s_b / spec.gain_g], axis=1)


def feature_sets(ensembles: list, spec: HomodyneSpec):
    """The (n, 3) features of each ensemble in turn, from one LO draw; the
    list is only read, and each set is formed only when it is asked for.

    The ensembles come from one sample (the estimator checks that they share
    master_seed and n_traj), so the noise drawn for the first is that of each.
    """
    lo_noise = lo_noise_samples(ensembles[0]) if spec.lo_sampled else None
    for ensemble in ensembles:
        yield fringe_features(ensemble, spec, lo_noise)


def detected_photons(ensemble: Ensemble, spec: HomodyneSpec) -> float:
    """Total photons hitting the homodyne detectors: LO plus scattered light.

    The LO counts at its mean amplitude.  Used for the photon-inclusive
    sensitivity bound 1/sqrt(N_atoms + N_photons).
    """
    return float(lo_amplitude(ensemble, spec) ** 2 + max(occupation(ensemble.state.beta2), 0.0))
