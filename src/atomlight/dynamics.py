"""Propagation through the Raman super-radiance step.

The c-number equations of motion for (alpha1, alpha2, beta2) are

    i d(alpha1)/dt = -G beta2 alpha2
    i d(alpha2)/dt = -G alpha1 conj(beta2)
    i d(beta2)/dt  = -G alpha1 conj(alpha2)

with coupling G = 1 in simulation units.  Time is rescaled so the
integration variable is s = sqrt(N1(0)) * t, which runs from 0 to the
squeezing parameter r; the physical time and coupling never appear
separately.  Two exact invariants are tracked per trajectory:

    |alpha1|^2 + |alpha2|^2          (atom number)
    |alpha2|^2 - |beta2|^2           (Manley-Rowe: one photon per atom)

With the pump clamped to its classical amplitude sqrt(N1(0)) the pair
(alpha2, beta2) obeys the exact two-mode Bogoliubov map

    alpha2(t1) = alpha2(0) cosh r + i conj(beta2(0)) sinh r
    beta2(t1)  = beta2(0) cosh r + i conj(alpha2(0)) sinh r

which is used both as the undepleted-pump propagator and as an oracle for
the integrator.

evolve_tw steps fixed-step RK4 on the lattice h = 1/steps_per_unit_r
(default 1/40) and runs every ensemble a second time on 2h.  Step doubling
gives the RK4 error of the h pass as |y_h - y_2h| / 15 (Richardson), which
the run reports next to the drifts and the CLI gates at 1e-6 (gates.rk4);
the drifts are tracked on the h pass only.  Every bundled r value lies on
both the 1/40 and the 1/20 lattice.  A step is classical RK4 with the step
constants folded into the right-hand side: k'1 = (h/2) f(y),
k'2 = (h/2) f(y + k'1), k'3 = h f(y + k'2), k'4 = (h/2) f(y + k'3), and
y += (k'1 + 2 k'2 + k'3 + k'4) / 3, in two stage buffers per chunk.

evolve_tw steps the ensemble in chunks of RK4_CHUNK trajectories, one after
another, in one workspace as wide as a chunk: the RK4 scratch stays in a
core's L2 cache and does not grow with the ensemble.  Every operation is per
trajectory and the drift and error maxima are taken over chunks, so states
and reports are bit-identical at any chunk size.  The chunks run on the
calling thread: numpy releases the interpreter lock for each ufunc, which
takes about 7 us on a chunk, less than a hand-off of the lock between
threads, and a second worker thread made the RK4 slower at every ensemble
size timed (3e4 to 1e6 trajectories, 2 cores).

The pump treatment is chosen by one setting, the mode of build_ensembles
(EVOLUTION_MODES).  "clamped" is an integrator setting
(IntegratorSpec.clamp_pump); "decorrelated" integrates the full dynamics
and then, in build_ensembles, swaps the pump at each stop for an
independent coherent draw from the "pump_resample" stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .phasespace import (
    ModeTriple,
    occupation,
    sample_coherent_batch,
    sample_initial_ensemble,
)

EVOLUTION_MODES = ("tw", "analytic", "clamped", "decorrelated")

DEFAULT_STEPS_PER_UNIT_R = 40

# Trajectories per RK4 chunk.  A step touches about 270 B per trajectory of
# the workspace, so a chunk's working set (1.4 MB) stays in a 2 MB L2 core
# cache at any ensemble size.  Of the widths timed at 1e4 and 1e5
# trajectories (2500 to 12500, and one chunk), 5000 was fastest at 1e4 and
# within the noise of the fastest at 1e5.
RK4_CHUNK = 5000


class IntegrationError(RuntimeError):
    """Raised when the integrator produces a non-finite amplitude on the h or 2h pass."""

    def __init__(self, step_index: int, snapshot: ModeTriple, lattice: str):
        self.step_index, self.snapshot, self.lattice = step_index, snapshot, lattice
        super().__init__(f"non-finite state at step {step_index} of the {lattice} pass")


@dataclass
class IntegratorSpec:
    """Step control and pump treatment for evolve_tw.

    steps_per_unit_r: lattice h = 1 / steps_per_unit_r of the RK4 steps.
    clamp_pump:      drive the alpha2/beta2 pair with the classical pump
                     amplitude sqrt(N1(0)) and leave alpha1 untouched
                     (undepleted-pump mode).
    """

    steps_per_unit_r: int = DEFAULT_STEPS_PER_UNIT_R
    clamp_pump: bool = False

    def __post_init__(self):
        if self.steps_per_unit_r < 1:
            raise ValueError("steps_per_unit_r must be >= 1")


@dataclass
class ConservationReport:
    """Worst relative drift of the two exact invariants over a run, and the
    step-doubling estimate of the RK4 error at its end.

    Atom-number drift is relative to the per-trajectory initial total;
    Manley-Rowe drift is relative to the largest |alpha2|^2 + |beta2|^2
    reached during the run (the difference itself starts near zero, so its
    own magnitude is not a usable scale).  In clamped mode atom number is
    intentionally not conserved and its drift is reported as 0.  rk4_error
    is the largest |y_h - y_2h| / 15 over trajectories and modes, relative
    to the trajectory's largest amplitude, at the run's end (for a run with
    several stops, the largest over the stops); 0 for the analytic map.
    """

    max_rel_drift_atoms: float = 0.0
    max_rel_drift_manley_rowe: float = 0.0
    rk4_error: float = 0.0


def _require_time_tag(state: ModeTriple, tag: str):
    if state.time_tag != tag:
        raise ValueError(f"expected state at {tag}, got {state.time_tag}")


def evolve_analytic(state: ModeTriple, r: float) -> ModeTriple:
    """Exact undepleted-pump (Bogoliubov) propagation from t0 to t1."""
    _require_time_tag(state, "t0")
    if r < 0 or not np.isfinite(r):
        raise ValueError("r must be finite and >= 0")
    ch, sh = np.cosh(r), np.sinh(r)
    a2 = state.alpha2 * ch + 1j * np.conj(state.beta2) * sh
    b2 = state.beta2 * ch + 1j * np.conj(state.alpha2) * sh
    return state.advanced(np.copy(state.alpha1), a2, b2, "t1")


class _Workspace:
    """Everything the RK4 passes over a chunk (rows a1, a2, b2) write to.

    As wide as the widest chunk it will take, and reused by every chunk and
    by both passes over each.  start points the attributes at the leading
    columns, so a shorter last chunk works in views.
    """

    def __init__(self, width: int):
        self._buffers = {
            "y0": np.empty((3, width), dtype=np.complex128),  # the chunk's initial state
            "k": np.empty((2, 3, width), dtype=np.complex128),  # the stage sum, the latest stage
            "arg": np.empty((3, width), dtype=np.complex128),  # stage argument, then scratch
            "lin": np.empty(width, dtype=np.complex128),  # the folded factor times a1 or b2
            "mag": np.empty((3, width)),  # |a1|^2, |a2|^2, |b2|^2, then drift terms
            "y": np.empty((3, width), dtype=np.complex128),
            "y_stop": np.empty((3, width), dtype=np.complex128),
            "dev": np.empty((3, width)),
            "dev_stop": np.empty((3, width)),
            "initial": np.empty((3, width)),  # tot0, mr0, scale0 (the initial MR scale)
            "rel": np.empty((2, width)),  # max |y_h - y_2h| and max |y_h| over modes
        }

    def start(self, rows):
        """Take a chunk: copy in its rows (a1, a2, b2) and set its initial invariants.

        Returns the chunk's initial state, a workspace view.
        """
        width = len(rows[0])
        for name, buffer in self._buffers.items():
            setattr(self, name, buffer[..., :width])
        self.im2 = self.arg.view(np.float64)[:, :width]  # Im(y)^2, in arg's memory
        for row, source in zip(self.y0, rows):
            np.copyto(row, source)
        n1, n2, nb = self.mag  # |y|^2 as the steps take it
        np.add(np.square(self.y0.real, out=self.mag), np.square(self.y0.imag, out=self.im2),
               out=self.mag)
        self.tot0, self.mr0, self.scale0 = self.initial
        np.add(n1, n2, out=self.tot0)
        np.subtract(n2, nb, out=self.mr0)
        np.add(n2, nb, out=self.scale0)
        return self.y0


def _integrate(y0, stops, spec: IntegratorSpec, n_pump0: float, ws: _Workspace, doubled=False):
    """Yield the amplitudes (rows a1, a2, b2) and raw drift rows at each stop (ascending r).

    One pass on the lattice h = 1/steps_per_unit_r, or 2h when doubled (a
    count that need not be whole), serves every stop; a stop off the lattice
    takes its last, shorter step on a copy.  The yielded arrays are ws
    buffers, valid until the next stop.  The drift rows (atoms, Manley-Rowe,
    Manley-Rowe scale) are running per-trajectory maxima, combined into a
    report later, so chunked execution aggregates exactly like a single
    pass; the 2h pass only feeds the error estimate and yields None for them.
    Steps run in place in the folded form: f(src, out, c) writes c f(src),
    one slot sums the stages and the other holds the latest.  With the pump
    clamped the stages run on rows a2, b2 only.  A non-finite amplitude
    raises IntegrationError at the step that made it.
    """
    steps, lattice = (spec.steps_per_unit_r / 2, "2h") if doubled else (spec.steps_per_unit_r, "h")
    h, inv_sq_n1 = 1.0 / steps, 1.0 / np.sqrt(n_pump0)
    rows = slice(1 if spec.clamp_pump else 0, 3)
    acc, k, arg, lin = ws.k[0, rows], ws.k[1, rows], ws.arg[rows], ws.lin
    (n1, n2, nb), mag, im2 = ws.mag, ws.mag[rows], ws.im2[rows]  # |y|^2 rows, Im(y)^2 scratch

    def f(src, out, c):
        """c times the right-hand side at src into out (both on rows)."""
        if spec.clamp_pump:  # classical pump amplitude: the sqrt(N1(0)) factors cancel
            np.conjugate(src, out=out[::-1])
            np.multiply(1j * c, out, out=out)
            return
        np.conjugate(src[1:], out=out[:0:-1])  # out[1] = conj(b2), out[2] = conj(a2)
        w = 1j * (c * inv_sq_n1)
        np.multiply(np.multiply(w, src[2], out=lin), src[1], out=out[0])
        np.multiply(np.multiply(w, src[0], out=lin), out[1:], out=out[1:])

    def rk4_step(index, h, whole, dev):
        """One step of whole (all rows), and the running drift maxima dev after it, in place."""
        y = whole[rows]
        f(y, acc, 0.5 * h)  # k'1
        f(np.add(y, acc, out=arg), k, 0.5 * h)  # k'2
        np.add(y, k, out=arg)
        np.add(acc, np.add(k, k, out=k), out=acc)  # k'1 + 2 k'2
        f(arg, k, h)  # k'3
        np.add(acc, k, out=acc)
        f(np.add(y, k, out=arg), k, 0.5 * h)  # k'4
        np.add(y, np.multiply(np.add(acc, k, out=acc), 1.0 / 3.0, out=acc), out=y)

        if not np.isfinite(np.sum(whole)):  # NaN/Inf propagate; a sum can also just overflow
            if not np.isfinite(np.abs(whole.view(np.float64), out=ws.arg.view(np.float64)).max()):
                raise IntegrationError(index, ModeTriple(*whole.copy(), "t0"), lattice)
        if dev is not None:  # the h pass: |y|^2 as re^2 + im^2, then the drift maxima
            np.add(np.square(y.real, out=mag), np.square(y.imag, out=im2), out=mag)
            if not spec.clamp_pump:
                np.subtract(np.add(n1, n2, out=n1), ws.tot0, out=n1)
                np.maximum(dev[0], np.abs(n1, out=n1), out=dev[0])
            np.subtract(np.subtract(n2, nb, out=n1), ws.mr0, out=n1)
            np.maximum(dev[1], np.abs(n1, out=n1), out=dev[1])
            np.maximum(dev[2], np.add(n2, nb, out=n1), out=dev[2])

    y, dev, dev_stop, done = ws.y, ws.dev, ws.dev_stop, 0
    np.copyto(y, y0)
    dev[:2] = 0.0  # atoms, MR
    np.copyto(dev[2], ws.scale0)  # MR scale
    if doubled:  # nothing reads the 2h pass's drifts
        dev = dev_stop = None
    with np.errstate(invalid="ignore", over="ignore"):  # the finite check handles non-finites
        for r in stops:
            n = steps * r
            n_full = int(np.floor(n + 1e-9))  # 400 * 2.2 = 880.0000000000001 is 880 steps
            for index in range(done, n_full):
                rk4_step(index, h, y, dev)
            done = n_full
            np.copyto(ws.y_stop, y)  # the run buffers keep changing
            if dev is not None:
                np.copyto(dev_stop, dev)
            if n - n_full > 1e-9:  # off the lattice
                rk4_step(n_full, (n - n_full) * h, ws.y_stop, dev_stop)
            yield ws.y_stop, dev_stop


def _evolve_chunk(rows, ws: _Workspace, out, stops, spec: IntegratorSpec, n_pump0: float):
    """The h pass of the chunk rows (a1, a2, b2) into out (one row block per
    stop), then the 2h pass on the same stops, both in ws.

    Returns per stop the raw drift extrema and the step-doubling estimate
    max over trajectories of max(|y_h - y_2h|) / 15 / max(|y_h|), the
    Richardson error of RK4 relative to each trajectory's largest amplitude.
    """
    y0 = ws.start(rows)
    stats = []
    for s, (y, dev) in enumerate(_integrate(y0, stops, spec, n_pump0, ws)):
        out[s] = y
        rel_atoms = 0.0 if spec.clamp_pump else float(np.divide(dev[0], ws.tot0, out=dev[0]).max())
        stats.append([rel_atoms, float(np.max(dev[1])), float(np.max(dev[2]))])
    diff, big = ws.rel
    # the 2h pass; with an odd count a stop can fall off its lattice and end on a partial step
    for s, (y, _) in enumerate(_integrate(y0, stops, spec, n_pump0, ws, doubled=True)):
        np.max(np.abs(np.subtract(out[s], y, out=ws.arg), out=ws.mag), axis=0, out=diff)
        np.max(np.abs(out[s], out=ws.mag), axis=0, out=big)
        stats[s].append(float(np.max(np.divide(diff, big, out=diff))) / 15.0)
    return stats


def evolve_tw(
    state: ModeTriple,
    r: float,
    spec: IntegratorSpec | None = None,
    n_pump0: float | None = None,
    stops=None,
):
    """Integrate the full c-number equations from t0 to t1 with fixed-step RK4.

    Parameters
    ----------
    state : ModeTriple ensemble at t0
    r : squeezing parameter; the rescaled time runs from 0 to r
    spec : step control and pump treatment
    n_pump0 : nominal initial pump occupation N1(0) used for the time
        rescaling.  Defaults to the symmetric-ordering estimate from the
        state itself.
    stops : strictly increasing r values up to r itself; the evolution to a
        smaller r is a prefix, so one pass yields the state at every stop.

    Each chunk of RK4_CHUNK trajectories is integrated on h and then on 2h
    with the same stops; the 2h states only feed ConservationReport.rk4_error.
    A non-finite amplitude raises IntegrationError with its pass and the step
    index on that pass, after every chunk has run: the earliest failure, an
    h-pass one before any 2h-pass one, then the smallest step index, so the
    error does not depend on the chunking.  Its snapshot is the failing
    chunk's state.

    Returns the state at t1 and the conservation report of the run; with
    stops, the state is replaced by one (state, report) pair per stop, and
    the run's report is the last stop's with the largest rk4_error of all.
    r = 0 returns the input amplitudes unchanged (zero steps).
    """
    _require_time_tag(state, "t0")
    points = [r] if stops is None else [float(v) for v in stops]
    if not np.isfinite(r) or points[0] < 0 or points[-1] != r or sorted(set(points)) != points:
        raise ValueError("r must be finite and >= 0, and stops must rise strictly to r")
    spec = spec or IntegratorSpec()

    if n_pump0 is None:
        n_pump0 = max(occupation(state.alpha1), 1.0)

    rows = [np.ravel(np.asarray(a, dtype=np.complex128))
            for a in (state.alpha1, state.alpha2, state.beta2)]
    n = rows[0].size
    states = np.empty((len(points), 3, n), dtype=np.complex128)
    ws, parts, failures = _Workspace(min(RK4_CHUNK, n)), [], []
    for i in range(0, max(n, 1), RK4_CHUNK):
        cols = slice(i, i + RK4_CHUNK)
        try:
            parts.append(_evolve_chunk([row[cols] for row in rows], ws, states[:, :, cols],
                                       points, spec, n_pump0))
        except IntegrationError as exc:
            failures.append(exc)
    if failures:  # the failure one chunk of the whole ensemble would have raised
        raise min(failures, key=lambda exc: (exc.lattice != "h", exc.step_index))

    pairs = []
    for a1_a2_b2, pieces in zip(states, zip(*parts)):  # one stop, every chunk
        rel_atoms, dev_mr, scale_mr, rk4 = np.max(pieces, axis=0)
        report = ConservationReport(
            max_rel_drift_atoms=float(rel_atoms),
            max_rel_drift_manley_rowe=float(dev_mr / max(1.0, scale_mr)),
            rk4_error=float(rk4),
        )
        pairs.append((state.advanced(*a1_a2_b2, "t1"), report))
    if stops is None:
        return pairs[0]
    whole = replace(pairs[-1][1], rk4_error=max(report.rk4_error for _, report in pairs))
    return pairs, whole


@dataclass
class Ensemble:
    """A t1 trajectory ensemble plus the run metadata needed downstream.

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


def build_ensembles(
    n_total: float,
    n_seed: float,
    r_values,
    n_traj: int,
    master_seed: int,
    mode: str = "tw",
    steps_per_unit_r: int = DEFAULT_STEPS_PER_UNIT_R,
) -> list[Ensemble]:
    """Sample one initial ensemble and propagate it to every r in r_values.

    The t0 sample does not depend on r, and the evolution to a smaller r is
    a prefix of the evolution to a larger one, so one sample and one pass
    to max(r_values) serve the whole list.  Returns one Ensemble per entry
    of r_values, in the order given; repeated values share their state.

    mode: "tw" (full dynamics), "clamped" (pump held classical),
    "analytic" (exact Bogoliubov map), or "decorrelated" (full dynamics,
    then the pump is swapped for an uncorrelated coherent state).
    """
    if mode not in EVOLUTION_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    r_values = [float(r) for r in r_values]
    if not r_values:
        raise ValueError("r_values must be non-empty")
    stops = sorted(set(r_values))
    t0 = sample_initial_ensemble(n_total, n_seed, master_seed, n_traj)
    if mode == "analytic":
        pairs = [(evolve_analytic(t0, r), ConservationReport()) for r in stops]
    else:
        spec = IntegratorSpec(steps_per_unit_r=steps_per_unit_r, clamp_pump=(mode == "clamped"))
        pairs, _ = evolve_tw(t0, stops[-1], spec, n_pump0=n_total - n_seed, stops=stops)
    if mode == "decorrelated":  # swap the pump for an uncorrelated one of equal occupation
        for k, (t1, report) in enumerate(pairs):
            amplitude = np.sqrt(max(occupation(t1.alpha1), 0.0))
            pump = sample_coherent_batch(amplitude, master_seed, "pump_resample", n_traj)
            pairs[k] = (replace(t1, alpha1=pump), report)
    at = dict(zip(stops, pairs))
    return [Ensemble(at[r][0], master_seed, n_total, n_seed, r, at[r][1]) for r in r_values]


def transferred_atoms(ensemble: Ensemble) -> float:
    """Atoms moved into the transferred mode during the super-radiance step.

    mean(|alpha2(t1)|^2) - 1/2 - n_seed.
    """
    if ensemble.n_traj == 0:
        raise ValueError("empty ensemble")
    return occupation(ensemble.state.alpha2) - ensemble.n_seed
