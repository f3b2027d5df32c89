"""Sensitivity estimation from trajectory ensembles.

Per trajectory the combined signal is a single fringe harmonic in the
interferometer phase plus the weighted light record,

    S(phi) = B cos(phi) + C sin(phi) + w S_b / g,

where B - iC = 2i alpha2' conj(alpha1') from the atomic amplitudes after
the first beam splitter.  The features (B, C, S_b / g) do not depend on the
correction: its sign is the weight w (interferometer.correction_weight) in
the fringe design, and the atomic record S_a is S at w = 0, read from the
same sums.  The dynamics do not depend on phi,
so one ensemble and one local-oscillator draw serve every phase (exact
common random numbers), and the per-phase mean and unbiased variance of S
follow from three feature means and a 3x3 covariance.  The slope of the
mean fringe is exact, d<S>/dphi = -<B> sin(phi) + <C> cos(phi), so any
single phase can be evaluated on its own, and

    delta_phi = sqrt( V(S) / (d<S>/dphi)^2 ),    M = delta_phi * sqrt(N_t).

Confidence intervals are trajectory-level bootstrap: whole trajectories
are resampled and V(S), d<S>/dphi and M are recomputed jointly from the
feature sums over each resample.

Every M goes through one evaluation, _curves: check that the ensembles
share one draw and have enough trajectories, draw the LO noise once, build
each ensemble's features, take the point statistics of each, and bootstrap
them all with one bootstrap_ci call.  sensitivity_curve, m_at_phi and the
sampled scan_over_r are reads of its curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import predict
from .config import CORRECTIONS, RunConfig
from .dynamics import ConservationReport, Ensemble, build_ensembles, transferred_atoms
from .interferometer import (
    HomodyneSpec,
    beam_splitter_half,
    calibrate_correction_sign,
    correction_weight,
    lo_amplitude,
    lo_noise_samples,
    signal_light,
)
from .phasespace import quadrature_x, quadrature_y

_BOOTSTRAP_STREAM_BLOCK = 5  # Philox counter block disjoint from trajectory streams
CI_LEVEL = 0.95  # coverage of every bootstrap interval
# (resample, phase) cells whose statistics bootstrap_ci evaluates at once, in
# blocks of whole resamples (at least one), so its transient arrays stay this
# size whatever the resample count.  That is 24 resamples at 201 phases (as
# fast as one evaluation of all of them) and every resample of an r-scan's
# single phase, where more blocks would only add per-call overhead.
RESAMPLE_BLOCK_CELLS = 5000


@dataclass
class SensitivityCurve:
    """Per-phase aggregates of one run."""

    phi: np.ndarray
    mean_s_a: np.ndarray
    var_s_a: np.ndarray
    mean_s_b: np.ndarray
    mean_s: np.ndarray
    var_s: np.ndarray
    ds_dphi: np.ndarray
    delta_phi: np.ndarray
    m: np.ndarray
    m_ci_lo: np.ndarray
    m_ci_hi: np.ndarray
    traj_count: int
    n_total: float
    correction_sign: str  # "plus", "minus" or "off"

    def min_m(self) -> tuple[float, float, int]:
        """(min M, argmin phi, its grid index), ignoring non-finite entries.

        With no finite M this is (inf, nan, 0).
        """
        finite = np.isfinite(self.m)
        k = int(np.argmin(np.where(finite, self.m, np.inf)))
        if not finite[k]:
            return float("inf"), float("nan"), k
        return float(self.m[k]), float(self.phi[k]), k


@dataclass
class OptimumReport:
    r_star: float
    m_star: float
    atoms_transferred_at_star: float
    equivalent_atom_gain: float  # 1 / m_star^2
    at_boundary: bool = False


@dataclass
class RScanRow:
    r: float
    m: float
    m_ci_lo: float
    m_ci_hi: float
    transferred: float
    var_squeezed_combo: float
    m_plain: float
    m_recycled: float
    correction_sign: str
    conservation: ConservationReport


@dataclass
class RScanResult:
    rows: list[RScanRow]
    report: OptimumReport
    star: int  # index of the row the report describes


def fringe_features(
    ensemble: Ensemble, spec: HomodyneSpec, lo_noise=None, out=None
) -> tuple[np.ndarray, np.ndarray, str]:
    """Per-trajectory features (B, C, S_b / g), the light record S_b, and the sign.

    The features are the same for every correction sign, and an "auto" sign
    is calibrated at pi/2, where the atomic signal is C.  The LO noise is
    drawn once (or passed in).  The (n, 3) features are written into out
    when it is given.
    """
    s_b = np.asarray(signal_light(ensemble.state.beta2, lo_amplitude(ensemble, spec, lo_noise)),
                     dtype=float)
    split = beam_splitter_half(ensemble.state)
    z = 2j * split.alpha2
    z *= np.conj(split.alpha1)  # B - iC
    del split  # free the split amplitudes before the stacked features are made
    b, c = z.real, -z.imag
    sign = spec.correction_sign
    if sign == "auto":
        sign = calibrate_correction_sign(c, s_b)
    return np.stack([b, c, s_b / spec.gain_g], axis=1, out=out), s_b, sign


def _moments(features, phi, weights, terms=None):
    """Per-trajectory terms, and the statistics that their sums determine.

    A feature row f holds (B, C, S_b / g), and for each w in weights the
    signal at phase phi_p is S_p = (cos phi_p, sin phi_p, w) @ f; the atomic
    record alone is w = 0.  statistics returns one dict per weight, each
    from that weight's own design (einsum's summation order follows its
    operands' layout, so a stacked one would round differently).  The mean
    of S_p and its exact slope need the feature means, its unbiased
    variance the feature covariance.  Both follow from the sums of the
    terms (centred features and their pairwise products) over any n-element
    index set, so a bootstrap resample costs one weighted sum.  The 9 terms
    are rows with trajectories along the contiguous axis, written into terms
    when it is given; each row is formed in place from the features or from
    two centred rows, so no other (n, 3)-sized array is made.
    """
    features = np.asarray(features, dtype=float)
    n, k = features.shape
    phi = np.asarray(phi, dtype=float)
    slope = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    center = features.mean(axis=0)
    i, j = np.triu_indices(k)
    designs = [np.stack([np.cos(phi), np.sin(phi), np.full_like(phi, w)], axis=-1)
               for w in weights]
    pairs = [d[:, i] * d[:, j] * np.where(i == j, 1.0, 2.0) for d in designs]

    def statistics(sums: np.ndarray, n_total: float) -> list[dict]:
        shift = sums[..., :k] / n
        cov = (sums[..., k:] - n * shift[..., i] * shift[..., j]) / (n - 1)
        mean = center + shift
        ds = np.einsum("...k,pk->...p", mean, slope)
        out = []
        for design, pair in zip(designs, pairs):
            mean_s = np.einsum("...k,pk->...p", mean, design)
            var_s = np.maximum(np.einsum("...q,pq->...p", cov, pair), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 and 0 / 0
                delta_phi = np.where(ds != 0.0, np.sqrt(var_s) / np.abs(ds), np.inf)
            out.append({"mean_s": mean_s, "var_s": var_s, "ds_dphi": ds,
                        "delta_phi": delta_phi, "m": delta_phi * np.sqrt(n_total)})
        return out

    if terms is None:
        terms = np.empty((k + i.size, n))
    np.subtract(features.T, center[:, None], out=terms[:k])
    for row, (a, b) in enumerate(zip(i, j), start=k):
        np.multiply(terms[a], terms[b], out=terms[row])
    return terms, statistics


def point_statistics(features, phi, weights, n_total: float) -> list[dict]:
    """Mean, variance, exact fringe slope, delta_phi and M at each phase in phi.

    features holds one (B, C, S_b / g) row per trajectory.  One dict per entry
    of weights (0 for the atomic signal alone), all from one set of term sums.
    """
    terms, statistics = _moments(features, phi, weights)
    return statistics(terms.sum(axis=1), n_total)


def _resample_sums(terms, resamples: int, master_seed: int) -> np.ndarray:
    """Sums of each row of terms over the trajectories (columns) of every resample.

    Resample t draws n trajectory indices from the Philox stream of
    master_seed, so the draws depend on (master_seed, n) only, and sums the
    terms weighted by how often it drew each trajectory.  einsum makes no
    BLAS call and sums each row in one order whatever rows are stacked with
    it; the counts are floats because integer counts are cast through
    nditer buffers, which doubles the cost at 1e4 trajectories.
    """
    n_traj = terms.shape[1]
    counter = [0, 0, 0, _BOOTSTRAP_STREAM_BLOCK]
    rng = np.random.Generator(np.random.Philox(key=master_seed, counter=counter))
    counts = np.empty(n_traj)
    sums = np.empty((resamples, terms.shape[0]))
    for t in range(resamples):
        counts[:] = np.bincount(rng.integers(0, n_traj, size=n_traj), minlength=n_traj)
        np.einsum("tn,n->t", terms, counts, out=sums[t])
    return sums


def _percentile(values, percent) -> np.ndarray:
    """np.percentile(values, percent, axis=0) with its default "linear" rule,
    bit for bit, from a sorted copy.

    np.percentile picks its partition points through np.unique, which
    imports numpy.ma (about 10 ms and 1.3-2 MB of peak memory) in a run that
    has not loaded it.  The interpolation is numpy's _lerp: a + (b - a) g,
    or b - (b - a)(1 - g) where g >= 0.5; a column whose sorted last entry
    is NaN gives that NaN.
    """
    ordered = np.sort(values, axis=0)
    n = ordered.shape[0]
    virtual = (n - 1) * np.true_divide(percent, 100)
    below = np.floor(virtual)
    gamma = (virtual - below).reshape((-1,) + (1,) * (ordered.ndim - 1))
    lo = np.clip(below.astype(np.intp), 0, n - 1)
    a, b = ordered[lo], ordered[np.minimum(lo + 1, n - 1)]
    diff = b - a
    out = np.add(a, diff * gamma)
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return np.where(np.isnan(ordered[-1]), ordered[-1], out)


def bootstrap_ci(features, phi, weights, n_total: float, resamples: int = 200,
                 master_seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Percentile bootstrap interval (coverage CI_LEVEL) for M at each phase in phi.

    Whole trajectories are resampled so the variance and the fringe slope are
    recomputed jointly.  features is a stack of shape (sets, n, 3), each set
    as in point_statistics with its own entry of weights, and the edges have
    shape (sets, len(phi)).  Every set is resampled with the same trajectory
    indices, drawn once per resample, and each set's edges are exactly those
    of a stack of that set alone.  A vanishing resampled slope gives an
    infinite M, and an edge next to one is +inf (flagged, not masked).

    The term rows of every set are one (sets * 9, n) block, and the
    statistics are evaluated in blocks of about RESAMPLE_BLOCK_CELLS
    (resample, phase) cells; every value is per cell, so the edges do not
    depend on the block.
    """
    if resamples < 100:
        raise ValueError("resamples must be >= 100")
    features = np.asarray(features, dtype=float)
    sets, n_traj, k = features.shape
    if n_traj < 2:
        raise ValueError("too few trajectories to bootstrap")
    rows = k * (k + 3) // 2
    block = np.empty((sets * rows, n_traj))
    statistics = [_moments(f, phi, [w], block[s * rows:(s + 1) * rows])[1]
                  for s, (f, w) in enumerate(zip(features, weights, strict=True))]
    sums = _resample_sums(block, resamples, master_seed)
    del block
    step = max(1, RESAMPLE_BLOCK_CELLS // np.size(phi))
    m = np.stack([np.concatenate([stats(sums[t:t + step, s * rows:(s + 1) * rows], n_total)[0]["m"]
                                  for t in range(0, resamples, step)])
                  for s, stats in enumerate(statistics)], axis=1)  # (resamples, sets, phases)
    lo_q = 100.0 * (1.0 - CI_LEVEL) / 2.0
    with np.errstate(invalid="ignore"):  # inf - inf where an edge meets an infinite M
        edges = _percentile(m, [lo_q, 100.0 - lo_q])
    edges[np.isnan(edges) & ~np.isnan(m).any(axis=0)] = np.inf
    return edges[0], edges[1]


def _curves(ensembles, phi, spec: HomodyneSpec,
            resamples: int | None) -> list[SensitivityCurve]:
    """The sensitivity curve of each ensemble at each phase in phi.

    The ensembles must come from one draw: the LO noise and the bootstrap's
    resample stream depend on (master_seed, n_traj) only, and the M scale on
    n_total.  One LO draw and one bootstrap_ci call serve every ensemble, so
    each curve equals that of its ensemble alone.  With resamples None each
    interval collapses to its point.
    """
    shared = {(e.n_traj, e.master_seed, e.n_total) for e in ensembles}
    if len(shared) > 1:
        raise ValueError("the ensembles of a scan must share n_traj, master_seed and "
                         f"n_total; got {sorted(shared)}")
    (n_traj, master_seed, n_total), = shared
    if n_traj < 100:
        raise ValueError("need at least 100 trajectories")

    phi = np.array(phi, dtype=float)
    lo_noise = lo_noise_samples(ensembles[0]) if spec.lo_sampled else None
    # each ensemble's features are written into the stack (assigning them back
    # copies nothing), and of its light record only the mean is kept
    features = np.empty((len(ensembles), n_traj, 3))
    mean_s_b, signs = [], []
    for s, e in enumerate(ensembles):
        features[s], s_b, sign = fringe_features(e, spec, lo_noise, features[s])
        mean_s_b.append(float(np.mean(s_b)))
        signs.append(sign)
    del lo_noise, s_b  # keep the noise and the light record out of the bootstrap's peak memory
    weights = [correction_weight(sign) for sign in signs]
    if resamples is not None:
        ci_lo, ci_hi = bootstrap_ci(features, phi, weights, n_total, resamples=resamples,
                                    master_seed=master_seed)
    curves = []
    for s, f in enumerate(features):
        # S at the set's weight and the atomic record S_a (weight 0), from one term block
        stats, atomic = point_statistics(f, phi, [weights[s], 0.0], n_total)
        curves.append(SensitivityCurve(
            phi=phi, mean_s_a=atomic["mean_s"], var_s_a=atomic["var_s"],
            mean_s_b=np.full(phi.size, mean_s_b[s]), **stats,
            m_ci_lo=stats["m"] if resamples is None else ci_lo[s],
            m_ci_hi=stats["m"] if resamples is None else ci_hi[s],
            traj_count=n_traj, n_total=float(n_total), correction_sign=signs[s],
        ))
    return curves


def sensitivity_curve(ensemble: Ensemble, phi, spec: HomodyneSpec,
                      resamples: int = 200) -> SensitivityCurve:
    """Full sensitivity analysis of one ensemble at each phase in phi."""
    return _curves([ensemble], phi, spec, resamples)[0]


def m_at_phi(ensemble: Ensemble, spec: HomodyneSpec, phi: float = np.pi / 2,
             resamples: int | None = None) -> tuple[float, tuple[float, float], str]:
    """M at a single working phase, from the exact fringe slope there.

    Returns (m, (ci_lo, ci_hi), correction_sign); the interval collapses to
    the point value when resamples is None.
    """
    curve = _curves([ensemble], [phi], spec, resamples)[0]
    m, lo, hi = (float(x[0]) for x in (curve.m, curve.m_ci_lo, curve.m_ci_hi))
    return m, (lo, hi), curve.correction_sign


def squeezed_combo_variance(ensemble: Ensemble) -> float:
    """Sample variance of the correlated quadrature pair X_a2 + Y_b2 at t1."""
    combo = quadrature_x(ensemble.state.alpha2) + quadrature_y(ensemble.state.beta2)
    return float(np.var(combo, ddof=1))


def prepare(config: RunConfig, r_values,
            ensembles=None) -> tuple[list[Ensemble], HomodyneSpec]:
    """The ensembles at each r (built unless given) and the homodyne settings."""
    if ensembles is None:
        ensembles = build_ensembles(
            config.n_total, config.n_seed, r_values, config.trajectories, config.master_seed,
            mode=config.mode, steps_per_unit_r=config.steps_per_unit_r,
        )
    spec = HomodyneSpec(gain_g=config.gain_g, lo_sampled=config.lo_sampled,
                        correction_sign=CORRECTIONS[config.correction])
    return ensembles, spec


def scan_over_r(r_values, config: RunConfig, ensembles=None) -> RScanResult:
    """Evaluate M at phi = pi/2 for each r and locate the optimum.

    In "analytic" mode the rows come from the closed undepleted-pump forms
    (exact, no sampling), and an r whose transfer (n_seed + 1) sinh^2 r
    exceeds the n_total - n_seed pump atoms raises ValueError before any row
    is made; otherwise one pass to the largest r gives every r its ensemble
    (or ensembles holds them, one per r, in order), and one _curves call at
    pi/2 evaluates them all, each r with its own sign calibration, so every
    row equals m_at_phi on its own ensemble.
    """
    r_values = [float(v) for v in r_values]
    if not r_values:
        raise ValueError("r_values must be non-empty")
    if any(v < 0 for v in r_values):
        raise ValueError("r_values must be >= 0")

    rows = []
    if config.mode == "analytic":
        # the undepleted pump holds only while the transfer fits in the pump
        available = config.n_total - config.n_seed
        with np.errstate(over="ignore"):
            transferred = [(config.n_seed + 1.0) * np.sinh(r) ** 2 for r in r_values]
        for r, atoms in zip(r_values, transferred):
            if atoms > available:
                raise ValueError(
                    f"r_list: r = {r} is past the analytic model's range: it transfers "
                    f"(n_seed + 1) sinh^2 r = {atoms:.6g} atoms, more than the "
                    f"n_total - n_seed = {available:.6g} in the pump")
        for r, atoms in zip(r_values, transferred):
            pred = predict(r, config.n_total)
            m = pred.m_plain if config.correction == "off" else pred.m_recycled
            rows.append(RScanRow(
                r=r, m=m, m_ci_lo=m, m_ci_hi=m,
                transferred=atoms,
                var_squeezed_combo=pred.var_squeezed_combo,
                m_plain=pred.m_plain, m_recycled=pred.m_recycled,
                correction_sign="off" if config.correction == "off" else "plus",
                conservation=ConservationReport(),
            ))
    else:
        ensembles, spec = prepare(config, r_values, ensembles)
        if len(ensembles) != len(r_values):
            raise ValueError(f"{len(ensembles)} ensembles for {len(r_values)} r values")
        for r, ensemble in zip(r_values, ensembles):
            if ensemble.r != r:
                raise ValueError(f"ensemble at r = {ensemble.r} given for r = {r}")
        curves = _curves(ensembles, [np.pi / 2], spec, config.bootstrap_resamples)
        for r, ensemble, curve in zip(r_values, ensembles, curves):
            pred = predict(r, config.n_total)
            rows.append(RScanRow(
                r=r, m=float(curve.m[0]),
                m_ci_lo=float(curve.m_ci_lo[0]), m_ci_hi=float(curve.m_ci_hi[0]),
                transferred=transferred_atoms(ensemble),
                var_squeezed_combo=squeezed_combo_variance(ensemble),
                m_plain=pred.m_plain, m_recycled=pred.m_recycled,
                correction_sign=curve.correction_sign,
                conservation=ensemble.conservation,
            ))

    k = int(np.argmin([row.m for row in rows]))
    best = rows[k]
    report = OptimumReport(
        r_star=best.r,
        m_star=best.m,
        atoms_transferred_at_star=best.transferred,
        equivalent_atom_gain=1.0 / best.m**2 if best.m > 0 else float("inf"),
        at_boundary=(k == 0 or k == len(rows) - 1) and len(rows) > 1,
    )
    return RScanResult(rows=rows, report=report, star=k)
