"""Phase-space state representation and Wigner sampling of coherent states.

The simulation works with c-number amplitudes for three modes: the pump
condensate (alpha1), the transferred-atom mode (alpha2) and the scattered
light mode (beta2).  Initial states are Glauber coherent states, sampled
from the Wigner distribution: each quadrature of the added vacuum noise is
Gaussian with variance 1/4, so that mean(|alpha|^2) - 1/2 estimates the
mode occupation (symmetric ordering) and the quadrature X = a + a^dag has
vacuum variance 1.

All noise is derived from a counter-based generator keyed by
(master_seed, trajectory_index, stream_tag).  The draw is a pure function
of that tuple, so ensembles are reproducible bit-for-bit regardless of
evaluation order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream tags, one per independent noise source.  "pump_resample" feeds the
# diagnostic mode that swaps the pump for an uncorrelated coherent state.
STREAMS = {
    "atoms1": 0,
    "atoms2": 1,
    "light2": 2,
    "local_oscillator": 3,
    "pump_resample": 4,
}

TIME_TAGS = ("t0", "t1", "t3")

# Wigner width of a coherent state: each quadrature of the added noise eta
# has variance 1/4, so <|eta|^2> = 1/2.
NOISE_SIGMA = 0.5


@dataclass(frozen=True)
class SeedSpec:
    """Address of one noise draw: (master_seed, trajectory_index, stream_tag)."""

    master_seed: int
    trajectory_index: int = 0
    stream_tag: str = "atoms1"

    def __post_init__(self):
        if self.stream_tag not in STREAMS:
            raise ValueError(f"unknown stream_tag {self.stream_tag!r}")
        if self.trajectory_index < 0:
            raise ValueError("trajectory_index must be >= 0")

    def generator(self) -> np.random.Generator:
        """Counter-based generator for this tuple.

        Each (trajectory, stream) pair owns a disjoint Philox counter block,
        so distinct tuples give independent streams and the same tuple always
        reproduces the same draws.
        """
        counter = [0, 0, self.trajectory_index, STREAMS[self.stream_tag]]
        return np.random.Generator(np.random.Philox(key=self.master_seed, counter=counter))


@dataclass
class ModeTriple:
    """c-number amplitudes of the three retained modes at a named time.

    Fields may be complex scalars (one trajectory) or complex arrays of equal
    shape (a trajectory ensemble).
    """

    alpha1: complex | np.ndarray
    alpha2: complex | np.ndarray
    beta2: complex | np.ndarray
    time_tag: str = "t0"

    def __post_init__(self):
        if self.time_tag not in TIME_TAGS:
            raise ValueError(f"unknown time_tag {self.time_tag!r}")

    @property
    def n_traj(self) -> int:
        return int(np.size(self.alpha1))

    def advanced(self, alpha1, alpha2, beta2, time_tag: str) -> "ModeTriple":
        """New state at a later time tag; the tag may only move forward."""
        if TIME_TAGS.index(time_tag) < TIME_TAGS.index(self.time_tag):
            raise ValueError(f"time_tag may not go backwards: {self.time_tag} -> {time_tag}")
        return ModeTriple(alpha1, alpha2, beta2, time_tag)


def quadrature_x(amps) -> np.ndarray | float:
    """Amplitude quadrature X = a + a^dag  ->  2 Re(alpha).  Vacuum variance 1."""
    return 2.0 * np.real(amps)


def quadrature_y(amps) -> np.ndarray | float:
    """Phase quadrature Y = i (b - b^dag)  ->  -2 Im(beta).  Vacuum variance 1."""
    return -2.0 * np.imag(amps)


def occupation(amps) -> float:
    """Mode occupation from symmetrically ordered moments: mean(|a|^2) - 1/2."""
    return float(np.mean(np.abs(np.asarray(amps)) ** 2) - 0.5)


def sample_coherent(mean_amplitude: complex, seed: SeedSpec) -> complex:
    """One Wigner sample of a coherent state |mean_amplitude>.

    Returns mean_amplitude + eta with Re(eta), Im(eta) independent Gaussians
    of variance 1/4.
    """
    re, im = seed.generator().standard_normal(2)
    return complex(mean_amplitude) + NOISE_SIGMA * complex(re, im)


def sample_coherent_batch(
    mean_amplitude: complex,
    master_seed: int,
    stream_tag: str,
    n_traj: int,
    first_index: int = 0,
) -> np.ndarray:
    """Wigner samples for trajectories first_index .. first_index + n_traj - 1.

    Bit-identical to calling sample_coherent per trajectory; provided so
    ensemble construction does not build the SeedSpec objects one by one.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    out = np.empty(n_traj, dtype=np.complex128)
    for i in range(n_traj):
        spec = SeedSpec(master_seed, first_index + i, stream_tag)
        re, im = spec.generator().standard_normal(2)
        out[i] = mean_amplitude + NOISE_SIGMA * complex(re, im)
    return out


def _validate_populations(n_total: float, n_seed: float):
    if not (np.isfinite(n_total) and np.isfinite(n_seed)):
        raise ValueError("n_total and n_seed must be finite")
    if n_total <= 0:
        raise ValueError("n_total must be > 0")
    if n_seed < 0 or n_seed >= n_total:
        raise ValueError("need 0 <= n_seed < n_total")


def initial_means(n_total: float, n_seed: float) -> tuple[complex, complex, complex]:
    """Mean amplitudes at t0 for pump, seed and light.

    The pump is real and positive; the seed is imprinted a quarter cycle out
    of phase with it (mean i*sqrt(n_seed)), which is the relative phase the
    seeding Raman pulse sets when its light is phase locked to the homodyne
    local oscillator.  With this convention the mean fringe stays proportional
    to cos(phi) and the homodyne correction cancels the pump noise that beats
    against the seed amplitude; an in-phase seed would leave that noise in the
    atomic signal.  The light mode starts in vacuum.
    """
    _validate_populations(n_total, n_seed)
    return (
        complex(np.sqrt(n_total - n_seed)),
        1j * complex(np.sqrt(n_seed)),
        0.0 + 0.0j,
    )


def sample_initial_state(n_total: float, n_seed: float, seed_base: SeedSpec) -> ModeTriple:
    """Sample one trajectory of the t0 state.

    Mean occupations: n_total - n_seed in the pump, n_seed in the transferred
    mode, zero in the light mode.
    """
    m1, m2, m3 = initial_means(n_total, n_seed)
    idx = seed_base.trajectory_index
    ms = seed_base.master_seed
    return ModeTriple(
        alpha1=sample_coherent(m1, SeedSpec(ms, idx, "atoms1")),
        alpha2=sample_coherent(m2, SeedSpec(ms, idx, "atoms2")),
        beta2=sample_coherent(m3, SeedSpec(ms, idx, "light2")),
        time_tag="t0",
    )


def sample_initial_ensemble(
    n_total: float, n_seed: float, master_seed: int, n_traj: int
) -> ModeTriple:
    """Sample an ensemble of t0 states (array-valued ModeTriple)."""
    m1, m2, m3 = initial_means(n_total, n_seed)
    return ModeTriple(
        alpha1=sample_coherent_batch(m1, master_seed, "atoms1", n_traj),
        alpha2=sample_coherent_batch(m2, master_seed, "atoms2", n_traj),
        beta2=sample_coherent_batch(m3, master_seed, "light2", n_traj),
        time_tag="t0",
    )
