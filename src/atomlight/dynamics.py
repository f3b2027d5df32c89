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

With the pump clamped to its classical amplitude sqrt(N1(0)) the pair
(alpha2, beta2) obeys the exact two-mode Bogoliubov map

    alpha2(t1) = alpha2(0) cosh r + i conj(beta2(0)) sinh r
    beta2(t1)  = beta2(0) cosh r + i conj(alpha2(0)) sinh r

which is used both as the undepleted-pump propagator and as an oracle for
the integrator.

The full equations are classical three-wave mixing, which is integrable:
evolve_closed_form evaluates each trajectory at each stop from t0, with
|alpha2|^2 an elliptic function of s and each phase an elliptic integral of
the third kind, computed with numpy alone in threewave (descending Landen
for sn and cn, Carlson's duplication for F and the third-kind integrals).
It is the "tw" propagator.  Its report holds the drifts of the two
quadratic invariants from the returned amplitudes, and in rk4_error the
drift of K, which no phase imposes, so that gates.rk4 measures the phases'
error.

evolve_tw, the integrator of the "clamped" mode and the oracle of the closed
form, steps fixed-step RK4 on the lattice h = 1/steps_per_unit_r
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
size timed (3e4 to 1e6 trajectories, 2 cores).  Each workspace buffer is
allocated on its own and each of its rows starts on a 64-byte cache line:
a three-operand ufunc (out = a + b) ran 2 to 3x slower on operands that
start 16 to 48 B past a line, where numpy's allocator put them (carving
them from one block raised peak RSS through glibc's mmap threshold).
The state is checked for finiteness once per stop, after its last whole
step and after a partial step.  NaN and inf stay non-finite under RK4's adds
and multiplies, so a failed check replays the pass from its start with a
check after every step, which raises IntegrationError at the step that made
the first non-finite amplitude, with the snapshot a per-step check gives.

The pump treatment is chosen by one setting, the mode of build_ensembles
(EVOLUTION_MODES), and means the same in every use: "tw" evaluates the full
dynamics in closed form, "clamped" holds the pump classical in the RK4
integrator (IntegratorSpec.clamp_pump), and "analytic" applies the
Bogoliubov map.  The two held-pump modes are refused at an r whose transfer
the pump cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import threewave
from .phasespace import ModeTriple, occupation, sample_initial_ensemble

EVOLUTION_MODES = ("tw", "analytic", "clamped")

DEFAULT_STEPS_PER_UNIT_R = 40

# Trajectories per RK4 chunk.  A step touches about 270 B per trajectory of
# the workspace, so a chunk's working set (1.4 MB) stays in a 2 MB L2 core
# cache at any ensemble size.  Of the widths timed at 1e4 and 1e5
# trajectories (2500 to 12500, and one chunk), 5000 was fastest at 1e4 and
# within the noise of the fastest at 1e5.
RK4_CHUNK = 5000


class IntegrationError(RuntimeError):
    """Raised at a non-finite amplitude: on the RK4 h or 2h pass (lattice "h" or
    "2h", step_index the step), or in the closed form ("closed_form", the stop)."""

    def __init__(self, step_index: int, snapshot: ModeTriple, lattice: str):
        self.step_index, self.snapshot, self.lattice = step_index, snapshot, lattice
        super().__init__(f"non-finite state at step {step_index} of the {lattice} pass")


@dataclass
class IntegratorSpec:
    """Step control and pump treatment for evolve_tw.

    steps_per_unit_r: lattice h = 1 / steps_per_unit_r of the RK4 steps (the
                     clamped mode's lattice; the tw mode takes no steps).
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
    """Worst relative drift of the two quadratic invariants over a run, and
    the propagator's error estimate.

    Atom-number drift is relative to the per-trajectory initial total;
    Manley-Rowe drift is relative to the largest |alpha2|^2 + |beta2|^2
    reached (the difference itself starts near zero, so its own magnitude
    is not a usable scale): over every RK4 step of the run, or at t0 and the
    stop for the closed form.  In clamped mode atom number is intentionally
    not conserved and its drift is reported as 0.  rk4_error is, for RK4
    (clamped), the largest |y_h - y_2h| / 15 over trajectories and modes,
    relative to the trajectory's largest amplitude, at the run's end (for a
    run with several stops, the largest over the stops); for the closed form
    (tw), the largest drift of K = Re(conj(a1) a2 b2) relative to the
    trajectory's larger |a1 a2 b2| at t0 and the stop; 0 for the analytic map.
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


def _aligned(shape, dtype=np.complex128):
    """An empty array of shape, in a buffer of its own, each row starting on a 64-byte line."""
    itemsize = np.dtype(dtype).itemsize
    padded = -(-shape[-1] * itemsize // 64) * (64 // itemsize)  # rows padded to whole lines
    size = int(np.prod(shape[:-1])) * padded * itemsize
    raw = np.empty(size + 64, dtype=np.uint8)  # 64 B of slack for the aligned start
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(*shape[:-1], padded)[..., :shape[-1]]


class _Workspace:
    """Everything the RK4 passes over a chunk (rows a1, a2, b2) write to.

    As wide as the widest chunk it will take, and reused by every chunk and
    by both passes over each.  start points the attributes at the leading
    columns, so a shorter last chunk works in views.
    """

    def __init__(self, width: int):
        self._buffers = {
            "y0": _aligned((3, width)),  # the chunk's initial state
            "k": _aligned((2, 3, width)),  # the stage sum, the latest stage
            "arg": _aligned((3, width)),  # stage argument, then scratch
            "lin": _aligned((width,)),  # the folded factor times a1 or b2
            "mag": _aligned((3, width), float),  # |a1|^2, |a2|^2, |b2|^2, then drift terms
            "y": _aligned((3, width)),
            "y_stop": _aligned((3, width)),
            "dev": _aligned((3, width), float),
            "dev_stop": _aligned((3, width), float),
            "initial": _aligned((3, width), float),  # tot0, mr0, scale0 (the initial MR scale)
            "rel": _aligned((2, width), float),  # max |y_h - y_2h| and max |y_h| over modes
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


def _integrate(y0, stops, spec: IntegratorSpec, n_pump0: float, ws: _Workspace, doubled=False,
               every_step=False):
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
    raises IntegrationError at the step that made it, found by a replay
    with every_step when a check at a stop fails (module docstring).
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

    def rk4_step(index, h, whole, dev, check):
        """One step of whole (all rows), its finiteness check if check, and the drift maxima dev."""
        y = whole[rows]
        f(y, acc, 0.5 * h)  # k'1
        f(np.add(y, acc, out=arg), k, 0.5 * h)  # k'2
        np.add(y, k, out=arg)
        np.add(acc, np.add(k, k, out=k), out=acc)  # k'1 + 2 k'2
        f(arg, k, h)  # k'3
        np.add(acc, k, out=acc)
        f(np.add(y, k, out=arg), k, 0.5 * h)  # k'4
        np.add(y, np.multiply(np.add(acc, k, out=acc), 1.0 / 3.0, out=acc), out=y)

        if check and not np.isfinite(np.sum(whole)):  # a sum can also just overflow
            if not np.isfinite(np.abs(whole.view(np.float64), out=ws.arg.view(np.float64)).max()):
                if not every_step:  # the replay raises at the step that made it
                    for _ in _integrate(y0, stops, spec, n_pump0, ws, doubled, every_step=True):
                        pass
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
                rk4_step(index, h, y, dev, every_step or index == n_full - 1)
            done = n_full
            np.copyto(ws.y_stop, y)  # the run buffers keep changing
            if dev is not None:
                np.copyto(dev_stop, dev)
            if n - n_full > 1e-9:  # off the lattice
                rk4_step(n_full, (n - n_full) * h, ws.y_stop, dev_stop, True)
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


def evolve_closed_form(state: ModeTriple, stops, n_pump0: float):
    """The full c-number dynamics from t0 to each r in stops, in closed form.

    The three-wave equations are integrable (threewave): x = |alpha2|^2 is
    an elliptic function of s and each phase an elliptic integral of the
    third kind.  Each stop is one evaluation from t0, so stops need no
    lattice and no order, only to be finite and >= 0; r = 0 returns the
    input amplitudes.  States and reports do not depend on
    threewave.CLOSED_FORM_BLOCK.

    Returns one (state, ConservationReport) pair per stop.  The drifts are
    taken from the returned amplitudes, each against its t0 value; rk4_error
    holds the drift of K = Re(conj(a1) a2 b2), which the phases do not
    impose, relative to the trajectory's larger |a1 a2 b2| at t0 and the
    stop.  A non-finite amplitude raises IntegrationError at the first such
    stop (pass "closed_form"), its snapshot the state at that stop.  A
    trajectory with K = 0 and a mode exactly at 0 has no phase at t0 for the
    integrals to start from (a Wigner sample has none); the closed form does
    not follow it, and its K drift or a non-finite state reports it.
    """
    _require_time_tag(state, "t0")
    stops = [float(r) for r in stops]
    if not all(np.isfinite(stops)) or min(stops) < 0:
        raise ValueError("stops must be finite and >= 0")
    rows = [np.ravel(np.asarray(a, dtype=np.complex128))
            for a in (state.alpha1, state.alpha2, state.beta2)]
    states, maxima, bad = threewave.evaluate(rows, stops, 1.0 / np.sqrt(n_pump0))
    if bad:
        first = min(bad)
        raise IntegrationError(first, ModeTriple(*states[first], "t1"), "closed_form")
    return [(state.advanced(*y, "t1"), ConservationReport(atoms, dev_mr / max(1.0, scale_mr), k))
            for y, (atoms, dev_mr, scale_mr, k) in zip(states, maxima.tolist())]


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


def check_pump_range(n_total: float, n_seed: float, r_values, mode: str):
    """In a held-pump mode ("analytic", "clamped"), raise ValueError at the smallest
    r whose transfer (n_seed + 1) sinh^2 r exceeds the pump's n_total - n_seed."""
    if mode not in ("analytic", "clamped"):
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
    steps_per_unit_r: int = DEFAULT_STEPS_PER_UNIT_R,
) -> list[Ensemble]:
    """Sample one initial ensemble and propagate it to every r in r_values.

    The t0 sample does not depend on r, so one sample serves the whole list,
    with one closed-form evaluation of every r (tw) or one RK4 pass to
    max(r_values), of which each smaller r is a prefix.  Returns one Ensemble per entry
    of r_values, in the order given; repeated values share their state.

    mode: "tw" (full dynamics, evolve_closed_form), "clamped" (pump held
    classical, evolve_tw on the steps_per_unit_r lattice) or "analytic"
    (exact Bogoliubov map).  In those two modes an r past the pump's range
    (check_pump_range) raises ValueError before any sampling.
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
    elif mode == "tw":
        pairs = evolve_closed_form(t0, stops, n_pump0=n_total - n_seed)
    else:
        spec = IntegratorSpec(steps_per_unit_r=steps_per_unit_r, clamp_pump=True)
        pairs, _ = evolve_tw(t0, stops[-1], spec, n_pump0=n_total - n_seed, stops=stops)
    at = dict(zip(stops, pairs))
    return [Ensemble(at[r][0], master_seed, n_total, n_seed, r, at[r][1]) for r in r_values]


def transferred_atoms(ensemble: Ensemble) -> float:
    """Atoms moved into the transferred mode during the super-radiance step.

    mean(|alpha2(t1)|^2) - 1/2 - n_seed.
    """
    if ensemble.n_traj == 0:
        raise ValueError("empty ensemble")
    return occupation(ensemble.state.alpha2) - ensemble.n_seed
