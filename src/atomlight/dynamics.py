"""Propagation through the Raman super-radiance step.

The c-number equations of motion for (alpha1, alpha2, beta2) are

    i d(alpha1)/dt = -G beta2 alpha2
    i d(alpha2)/dt = -G alpha1 conj(beta2)
    i d(beta2)/dt  = -G alpha1 conj(alpha2)

with coupling G = 1 in simulation units.  Time is rescaled so the
integration variable is s = sqrt(N1(0)) * t, which runs from 0 to the
squeezing parameter r; the physical time and coupling never appear
separately.  Three exact invariants hold per trajectory:

    |alpha1|^2 + |alpha2|^2          (atom number)
    |alpha2|^2 - |beta2|^2           (Manley-Rowe: one photon per atom)
    Re(conj(alpha1) alpha2 beta2)    (K, the Hamiltonian)

With the pump held at its classical amplitude sqrt(N1(0)) the pair
(alpha2, beta2) obeys the exact two-mode Bogoliubov map

    alpha2(r) = alpha2(0) cosh r + i conj(beta2(0)) sinh r
    beta2(r)  = beta2(0) cosh r + i conj(alpha2(0)) sinh r

which is the undepleted-pump ("analytic") propagator.

The full equations are classical three-wave mixing, which is integrable:
evolve_closed_form evaluates each trajectory at each stop from s = 0, with
|alpha2|^2 an elliptic function of s and each phase an elliptic integral of
the third kind, computed with numpy alone in threewave (descending Landen
for sn and cn, Carlson's duplication for F and the third-kind integrals).
Its report holds the drifts of the two quadratic invariants from the
returned amplitudes, and in k_drift the drift of K, which no phase imposes,
so that the K-drift gate measures the phases' error.  The equations are
autonomous, so both propagators take any amplitude triple: r1, then r2 from
the result (same n_pump0), is r1 + r2.

The pump treatment is chosen by one setting, the mode of build_ensembles
(EVOLUTION_MODES), and means the same in every use: "tw" evaluates the full
dynamics in closed form and "analytic" applies the Bogoliubov map, which is
refused at an r whose transfer the pump cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import threewave
from .phasespace import ModeTriple, occupation, sample_initial_ensemble

EVOLUTION_MODES = ("tw", "analytic")


class IntegrationError(RuntimeError):
    """Raised by the closed form at a non-finite amplitude: r is the first stop
    given whose state is not finite, snapshot the state there."""

    def __init__(self, r: float, snapshot: ModeTriple):
        self.r, self.snapshot = r, snapshot
        super().__init__(f"non-finite state at r = {r} of the closed form")


@dataclass
class ConservationReport:
    """Worst relative drift of the three invariants over a run.

    Atom-number drift is relative to the per-trajectory initial total;
    Manley-Rowe drift is relative to the largest |alpha2|^2 + |beta2|^2 at
    s = 0 and the stop (the difference itself starts near zero, so its own
    magnitude is not a usable scale).  k_drift is the largest drift of
    K = Re(conj(a1) a2 b2) relative to the trajectory's larger |a1 a2 b2| at
    s = 0 and the stop.  All three are 0 for the analytic map.
    """

    max_rel_drift_atoms: float = 0.0
    max_rel_drift_manley_rowe: float = 0.0
    k_drift: float = 0.0


def evolve_analytic(state: ModeTriple, r: float) -> ModeTriple:
    """Exact undepleted-pump (Bogoliubov) propagation of state by r."""
    if r < 0 or not np.isfinite(r):
        raise ValueError("r must be finite and >= 0")
    ch, sh = np.cosh(r), np.sinh(r)
    a2 = state.alpha2 * ch + 1j * np.conj(state.beta2) * sh
    b2 = state.beta2 * ch + 1j * np.conj(state.alpha2) * sh
    return ModeTriple(np.copy(state.alpha1), a2, b2)


def evolve_closed_form(state: ModeTriple, stops, n_pump0: float):
    """The full c-number dynamics of state to each r in stops, in closed form.

    The three-wave equations are integrable (threewave): x = |alpha2|^2 is
    an elliptic function of s and each phase an elliptic integral of the
    third kind.  state, sampled or propagated, is taken as s = 0 in the unit
    that n_pump0 sets, and each stop is one evaluation from it, so stops need
    no lattice and no order, only to be finite and >= 0; r = 0 returns the
    input amplitudes.  States and reports do not depend on
    threewave.CLOSED_FORM_BLOCK.

    Returns one (state, ConservationReport) pair per stop.  The drifts are
    taken from the returned amplitudes, each against its s = 0 value; k_drift
    holds the drift of K = Re(conj(a1) a2 b2), which the phases do not
    impose, relative to the trajectory's larger |a1 a2 b2| at s = 0 and the
    stop.  A non-finite amplitude raises IntegrationError with the first stop
    given whose state is not finite, and that state.  A trajectory with K = 0
    and a mode exactly at 0 has no phase at s = 0 for the integrals to start
    from (a Wigner sample has none); the closed form does not follow it, and
    its K drift or a non-finite state reports it.
    """
    stops = [float(r) for r in stops]
    if not all(np.isfinite(stops)) or min(stops) < 0:
        raise ValueError("stops must be finite and >= 0")
    rows = [np.ravel(np.asarray(a, dtype=np.complex128))
            for a in (state.alpha1, state.alpha2, state.beta2)]
    states, maxima, bad = threewave.evaluate(rows, stops, 1.0 / np.sqrt(n_pump0))
    if bad:
        first = min(bad)
        raise IntegrationError(stops[first], ModeTriple(*states[first]))
    return [(ModeTriple(*y), ConservationReport(atoms, dev_mr / max(1.0, scale_mr), k))
            for y, (atoms, dev_mr, scale_mr, k) in zip(states, maxima.tolist())]


@dataclass
class Ensemble:
    """A trajectory ensemble at r plus the run metadata needed downstream.

    The same ensemble is reused across every interferometer phase (common
    random numbers): the dynamics do not depend on phi, so re-evolving per
    phase would only add sampling noise to phase differences.
    """

    state: ModeTriple
    master_seed: int
    n_total: float
    n_seed: float
    r: float
    conservation: ConservationReport = field(default_factory=ConservationReport)

    @property
    def n_traj(self) -> int:
        return self.state.n_traj


def check_pump_range(n_total: float, n_seed: float, r_values, mode: str):
    """In the held-pump mode ("analytic"), raise ValueError at the smallest r
    whose transfer (n_seed + 1) sinh^2 r exceeds the pump's n_total - n_seed."""
    if mode != "analytic":
        return
    available = n_total - n_seed
    for r in sorted(set(r_values)):
        with np.errstate(over="ignore"):  # sinh overflows to inf, which is past
            atoms = (n_seed + 1.0) * np.sinh(r) ** 2
        if atoms > available:
            raise ValueError(
                f"r = {r} is past the {mode} mode's undepleted-pump range: it transfers "
                f"(n_seed + 1) sinh^2 r = {atoms:.6g} atoms, more than the "
                f"n_total - n_seed = {available:.6g} in the pump")


def build_ensembles(
    n_total: float,
    n_seed: float,
    r_values,
    n_traj: int,
    master_seed: int,
    mode: str = "tw",
) -> list[Ensemble]:
    """Sample one initial ensemble and propagate it to every r in r_values.

    The sample does not depend on r, so one sample serves the whole list,
    with one closed-form evaluation of every r (tw) or the Bogoliubov map at
    each (analytic).  Returns one Ensemble per entry of r_values, in the
    order given; repeated values share their state.

    mode: "tw" (full dynamics, evolve_closed_form) or "analytic" (pump held
    classical, the exact Bogoliubov map).  In analytic mode an r past the
    pump's range (check_pump_range) raises ValueError before any sampling.
    """
    if mode not in EVOLUTION_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    r_values = [float(r) for r in r_values]
    if not r_values:
        raise ValueError("r_values must be non-empty")
    check_pump_range(n_total, n_seed, r_values, mode)
    stops = sorted(set(r_values))
    t0 = sample_initial_ensemble(n_total, n_seed, master_seed, n_traj)
    if mode == "analytic":
        pairs = [(evolve_analytic(t0, r), ConservationReport()) for r in stops]
    else:
        pairs = evolve_closed_form(t0, stops, n_pump0=n_total - n_seed)
    at = dict(zip(stops, pairs))
    return [Ensemble(at[r][0], master_seed, n_total, n_seed, r, at[r][1]) for r in r_values]


def transferred_atoms(ensemble: Ensemble) -> float:
    """Atoms moved into the transferred mode during the super-radiance step.

    mean(|alpha2(r)|^2) - 1/2 - n_seed.
    """
    if ensemble.n_traj == 0:
        raise ValueError("empty ensemble")
    return occupation(ensemble.state.alpha2) - ensemble.n_seed
