"""Measurement chain after the super-radiance step: the oracle of the
estimator's closed forms, the LO amplitude and the correction sign.

Atoms: two 50/50 Raman beam splitters with the phase imprinted on the
transferred mode between them give S_a = N2 - N1 at t3 (run_mzi,
signal_atoms), the independent check of the closed-form fringe
B cos(phi) + C sin(phi) that the estimator takes from the t1 amplitudes.

Light: beta2 leaves the condensate at t1 and is detected apart from the
atoms.  Homodyne detection against a strong local oscillator gives the port
difference S_b = |c|^2 - |d|^2 = -2 Im(beta2 conj(beta_LO)), which
signal_light returns in closed form for the estimator and the oracle alike.

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
from .phasespace import ModeTriple, occupation, sample_coherent_batch

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class HomodyneSpec:
    """Local-oscillator and correction settings.

    gain_g: ratio of LO amplitude to the mean pump amplitude at t1.
    lo_sampled: include the LO's own vacuum (shot) noise.
    correction_sign: "plus", "minus", "auto" (calibrate before combining),
        or "off" (no correction: S is the atomic signal alone).
    """

    gain_g: float = 100.0
    lo_sampled: bool = True
    correction_sign: str = "auto"

    def __post_init__(self):
        if not (np.isfinite(self.gain_g) and self.gain_g > 0):
            raise ValueError("gain_g must be finite and > 0")
        if self.correction_sign not in ("plus", "minus", "auto", "off"):
            raise ValueError(f"unknown correction_sign {self.correction_sign!r}")


@dataclass
class SignalSample:
    """Per-trajectory signals at one interferometer phase (array-valued)."""

    s_a: np.ndarray
    s_b: np.ndarray
    s_combined: np.ndarray
    phi: float


def beam_splitter_half(state: ModeTriple) -> ModeTriple:
    """50/50 Raman transition on the two atomic modes; the light is untouched.

    alpha1' = (alpha1 - i alpha2) / sqrt(2)
    alpha2' = (alpha2 - i alpha1) / sqrt(2)
    """
    a1 = (state.alpha1 - 1j * state.alpha2) * _INV_SQRT2
    a2 = (state.alpha2 - 1j * state.alpha1) * _INV_SQRT2
    return replace(state, alpha1=a1, alpha2=a2)


def phase_imprint(state: ModeTriple, phi: float) -> ModeTriple:
    """Multiply the transferred mode by exp(i phi)."""
    return replace(state, alpha2=state.alpha2 * np.exp(1j * phi))


def run_mzi(state: ModeTriple, phi: float) -> ModeTriple:
    """Full Mach-Zehnder: splitter, phase imprint on mode 2, splitter.

    Requires a t1 state and returns the t3 state.
    """
    if state.time_tag != "t1":
        raise ValueError(f"run_mzi needs a t1 state, got {state.time_tag}")
    out = beam_splitter_half(phase_imprint(beam_splitter_half(state), phi))
    return state.advanced(out.alpha1, out.alpha2, out.beta2, "t3")


def signal_atoms(state: ModeTriple) -> np.ndarray | float:
    """Number difference N2 - N1 at the interferometer output.

    The symmetric-ordering 1/2 offsets cancel in the difference.
    """
    if state.time_tag != "t3":
        raise ValueError(f"signal_atoms needs a t3 state, got {state.time_tag}")
    return np.abs(state.alpha2) ** 2 - np.abs(state.alpha1) ** 2


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


def combine_signals(s_a, s_b, spec: HomodyneSpec):
    """S = s_a + w * (s_b / g) with the weight of the resolved correction sign."""
    return s_a + correction_weight(spec.correction_sign) * (s_b / spec.gain_g)


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


def measure_signals(
    ensemble: Ensemble,
    phi: float,
    spec: HomodyneSpec,
    lo_noise: np.ndarray | None = None,
) -> SignalSample:
    """All three signals over the ensemble at one phase.

    The light signal is evaluated on the t1 amplitudes; only the atoms pass
    through the interferometer.  With correction_sign "auto" the combined
    signal is left as s_a (calibrate first for a corrected signal).
    """
    beta_lo = lo_amplitude(ensemble, spec, lo_noise)
    s_a = np.asarray(signal_atoms(run_mzi(ensemble.state, phi)), dtype=float)
    s_b = np.asarray(signal_light(ensemble.state.beta2, beta_lo), dtype=float)
    s = s_a.copy() if spec.correction_sign == "auto" else combine_signals(s_a, s_b, spec)
    return SignalSample(s_a=s_a, s_b=s_b, s_combined=s, phi=phi)


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
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN M follows, and its gate reports it
        cov = np.dot(s_a - np.mean(s_a), s_b - np.mean(s_b))
    return "plus" if cov >= 0 else "minus"


def detected_photons(ensemble: Ensemble, spec: HomodyneSpec) -> float:
    """Total photons hitting the homodyne detectors: LO plus scattered light.

    The LO counts at its mean amplitude.  Used for the photon-inclusive
    sensitivity bound 1/sqrt(N_atoms + N_photons).
    """
    beta_lo = lo_amplitude(ensemble, replace(spec, lo_sampled=False))
    return float(beta_lo**2 + max(occupation(ensemble.state.beta2), 0.0))
