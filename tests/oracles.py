"""Reference implementations that the package's closed forms are tested against.

textbook_integrate is a plain classical RK4 of the c-number equations, the
oracle of the closed-form three-wave propagator and of the Bogoliubov map.

run_mzi is the Mach-Zehnder interferometer taken step by step on the t1
atomic amplitudes: a 50/50 Raman beam splitter, the phase imprinted on the
transferred mode, a second splitter.  signal_atoms is the number difference
N2 - N1 at its output, so signal_atoms(*run_mzi(alpha1, alpha2, phi)) is the
atomic record that the read-out takes in closed form as B cos(phi) + C sin(phi)
(interferometer.fringe_features).
interferometer_signals pairs it with the homodyne light record at one phase.

direct_m and bootstrap_interval are M and its percentile bootstrap interval
taken on per-trajectory signal and slope matrices, with whole trajectories
gathered for each resample: the reference that the estimator's delta-method
interval is compared against for coverage.
"""

import numpy as np

from atomlight.interferometer import lo_amplitude, lo_noise_samples, signal_light

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def textbook_integrate(a1, a2, b2, stops, n_pump0, steps_per_unit_r=40, clamp=False):
    """The c-number equations by classical RK4, y + (h/6) (k1 + 2 k2 + 2 k3 + k4),
    with a fresh array per operation: (a1, a2, b2) at each stop (ascending r).

    h = 1 / steps_per_unit_r; a stop between lattice points takes one shorter
    last step, on a copy.  clamp holds the pump at its classical amplitude:
    alpha1 stays as it is and (alpha2, beta2) follow the linear pair equations.
    """
    h = 1.0 / steps_per_unit_r
    inv_sq_n1 = 1.0 / np.sqrt(n_pump0)

    def f(a1, a2, b2):
        if clamp:
            return np.zeros_like(a1), 1j * np.conj(b2), 1j * np.conj(a2)
        return (
            1j * b2 * a2 * inv_sq_n1,
            1j * a1 * np.conj(b2) * inv_sq_n1,
            1j * a1 * np.conj(a2) * inv_sq_n1,
        )

    def rk4_step(h, a1, a2, b2):
        k1 = f(a1, a2, b2)
        k2 = f(a1 + 0.5 * h * k1[0], a2 + 0.5 * h * k1[1], b2 + 0.5 * h * k1[2])
        k3 = f(a1 + 0.5 * h * k2[0], a2 + 0.5 * h * k2[1], b2 + 0.5 * h * k2[2])
        k4 = f(a1 + h * k3[0], a2 + h * k3[1], b2 + h * k3[2])
        return tuple(y + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                     for i, y in enumerate((a1, a2, b2)))

    run, out, done = (a1, a2, b2), [], 0
    for r in stops:
        n = steps_per_unit_r * r
        n_full = int(np.floor(n + 1e-9))
        for _ in range(done, n_full):
            run = rk4_step(h, *run)
        done = n_full
        out.append(rk4_step((n - n_full) * h, *run) if n - n_full > 1e-9 else run)
    return out


def beam_splitter_half(alpha1, alpha2):
    """50/50 Raman transition on the two atomic modes; the light is untouched.

    alpha1' = (alpha1 - i alpha2) / sqrt(2)
    alpha2' = (alpha2 - i alpha1) / sqrt(2)
    """
    return (alpha1 - 1j * alpha2) * _INV_SQRT2, (alpha2 - 1j * alpha1) * _INV_SQRT2


def phase_imprint(alpha2, phi):
    """Multiply the transferred mode by exp(i phi)."""
    return alpha2 * np.exp(1j * phi)


def run_mzi(alpha1, alpha2, phi):
    """Full Mach-Zehnder on t1 amplitudes: splitter, phase imprint on mode 2, splitter."""
    a1, a2 = beam_splitter_half(alpha1, alpha2)
    return beam_splitter_half(a1, phase_imprint(a2, phi))


def signal_atoms(alpha1, alpha2):
    """Number difference N2 - N1 at the interferometer output.

    The symmetric-ordering 1/2 offsets cancel in the difference.
    """
    return np.abs(alpha2) ** 2 - np.abs(alpha1) ** 2


def interferometer_signals(ensemble, phi, spec, lo_noise=None):
    """(S_a, S_b) per trajectory at phase phi: the atoms through run_mzi, the
    light by the homodyne read-out of the t1 amplitudes against an LO with the
    noise lo_noise (drawn here when spec.lo_sampled and none is given)."""
    if lo_noise is None and spec.lo_sampled:
        lo_noise = lo_noise_samples(ensemble)
    state = ensemble.state
    s_a = signal_atoms(*run_mzi(state.alpha1, state.alpha2, phi))
    return s_a, signal_light(state.beta2, lo_amplitude(ensemble, spec, lo_noise))


def direct_m(s, slope, n_total):
    """M per phase from the sample moments of a (..., trajectories, phases)
    signal matrix and its per-trajectory slope matrix."""
    ds = slope.mean(axis=-2)
    with np.errstate(divide="ignore"):
        return np.where(ds != 0.0, np.sqrt(s.var(axis=-2, ddof=1)) / np.abs(ds), np.inf) \
            * np.sqrt(n_total)


def bootstrap_interval(s, slope, n_total, seed):
    """The 95 % percentile bootstrap interval (lo, hi) of M at each phase from
    200 resamples: each gathers n trajectories (rows of s and slope) drawn
    with replacement by np.random.default_rng(seed), and np.percentile takes
    the edges of the resamples' M."""
    n = s.shape[0]
    idx = np.random.default_rng(seed).integers(0, n, size=(200, n))
    return np.percentile(direct_m(s[idx], slope[idx], n_total), [2.5, 97.5], axis=0)
