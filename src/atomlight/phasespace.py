"""Phase-space state representation and Wigner sampling of coherent states.

The simulation works with c-number amplitudes for three modes: the pump
condensate (alpha1), the transferred-atom mode (alpha2) and the scattered
light mode (beta2).  Initial states are Glauber coherent states, sampled
from the Wigner distribution: each quadrature of the added vacuum noise is
Gaussian with variance 1/4, so that mean(|alpha|^2) - 1/2 estimates the
mode occupation (symmetric ordering) and the quadrature X = a + a^dag has
vacuum variance 1.

All noise comes from one counter-based Philox stream per noise source
(Salmon et al., SC'11), opened by open_stream: key master_seed, counter
word 3 the stream tag, and raw block i (four 64-bit words, counted in
word 0) belongs to trajectory i.  The first two words of a block give one
complex Gaussian by Box-Muller.  A draw is therefore a pure function of
(master_seed, trajectory_index, stream_tag), so ensembles are reproducible
bit-for-bit however they are split into chunks or threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream tags, one per independent noise source.  A tag is part of every
# draw from its stream, so tags are never renumbered: 4 and 5 are retired.
STREAMS = {
    "atoms1": 0,
    "atoms2": 1,
    "light2": 2,
    "local_oscillator": 3,
}

# Wigner width of a coherent state: each quadrature of the added noise eta
# has variance 1/4, so <|eta|^2> = 1/2.
NOISE_SIGMA = 0.5

# Trajectories per raw draw: a block's words and Box-Muller temporaries take
# about 150 B per trajectory (10 MB), so sampling stays bounded at any
# ensemble size, and both benchmark workloads draw in a single block.
SAMPLE_BLOCK = 1 << 16


@dataclass
class ModeTriple:
    """c-number amplitudes of the three retained modes.

    Fields may be complex scalars (one trajectory) or complex arrays of equal
    shape (a trajectory ensemble).  A triple carries no time: the equations
    of motion are autonomous, so a propagated state is as valid a start as a
    sampled one.
    """

    alpha1: complex | np.ndarray
    alpha2: complex | np.ndarray
    beta2: complex | np.ndarray

    @property
    def n_traj(self) -> int:
        return int(np.size(self.alpha1))


def quadrature_x(amps) -> np.ndarray | float:
    """Amplitude quadrature X = a + a^dag  ->  2 Re(alpha).  Vacuum variance 1."""
    return 2.0 * np.real(amps)


def quadrature_y(amps) -> np.ndarray | float:
    """Phase quadrature Y = i (b - b^dag)  ->  -2 Im(beta).  Vacuum variance 1."""
    return -2.0 * np.imag(amps)


def occupation(amps) -> float:
    """Mode occupation from symmetrically ordered moments: mean(|a|^2) - 1/2."""
    return float(np.mean(np.abs(np.asarray(amps)) ** 2) - 0.5)


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Complex vacuum noise of variance 1/4 per quadrature from raw word pairs.

    Each word keeps its top 53 bits and maps to (0, 1] (the top word rounds
    to 1) as ((w >> 11) + 0.5) * 2**-53, so the logarithm never sees 0.
    """
    u = ((words >> np.uint64(11)) + 0.5) * 2.0**-53
    radius = NOISE_SIGMA * np.sqrt(-2.0 * np.log(u[..., 0]))
    angle = 2.0 * np.pi * u[..., 1]
    return radius * (np.cos(angle) + 1j * np.sin(angle))


def open_stream(master_seed: int, stream_tag: str, first_index: int = 0) -> np.random.Philox:
    """The Philox bit generator of stream stream_tag of master_seed, advanced
    to raw block first_index."""
    if first_index < 0:
        raise ValueError("first_index must be >= 0")
    return np.random.Philox(key=master_seed,
                            counter=[0, 0, 0, STREAMS[stream_tag]]).advance(first_index)


def sample_coherent_batch(
    mean_amplitude: complex,
    master_seed: int,
    stream_tag: str,
    n_traj: int,
    first_index: int = 0,
) -> np.ndarray:
    """Wigner samples for trajectories first_index .. first_index + n_traj - 1.

    mean_amplitude + eta, with Re(eta), Im(eta) independent Gaussians of
    variance 1/4.  Trajectory i reads raw block i of the stream, so any split
    of an index range reproduces the whole draw bit for bit; the words are
    drawn SAMPLE_BLOCK trajectories at a time into one output array.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    bits = open_stream(master_seed, stream_tag, first_index)
    out = np.empty(n_traj, dtype=np.complex128)
    for start in range(0, n_traj, SAMPLE_BLOCK):
        block = out[start:start + SAMPLE_BLOCK]
        words = bits.random_raw(4 * block.size).reshape(block.size, 4)[:, :2]
        np.add(_box_muller(words), mean_amplitude, out=block)
    return out


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
    if not (np.isfinite(n_total) and np.isfinite(n_seed)):
        raise ValueError("n_total and n_seed must be finite")
    if n_total <= 0:
        raise ValueError("n_total must be > 0")
    if n_seed < 0 or n_seed >= n_total:
        raise ValueError("need 0 <= n_seed < n_total")
    return (
        complex(np.sqrt(n_total - n_seed)),
        1j * complex(np.sqrt(n_seed)),
        0.0 + 0.0j,
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
    )
