"""Sensitivity estimation from trajectory ensembles.

Per trajectory the combined signal is a single fringe harmonic in the
interferometer phase plus the weighted light record,

    S(phi) = B cos(phi) + C sin(phi) + w S_b / g,

with the closed forms B = |alpha1|^2 - |alpha2|^2, C = -2 Re(alpha1 conj(alpha2))
of the t1 amplitudes and S_b = -2 Im(beta2 conj(beta_LO)) (signal_light).
The features (B, C, S_b / g) do not depend on the correction: its sign is
the weight w (interferometer.correction_weight) in the fringe design, and
the atomic record S_a is S at w = 0, read from the same sums.  The dynamics
do not depend on phi, so one ensemble and one local-oscillator draw serve
every phase (exact common random numbers), and the per-phase mean and
unbiased variance of S follow from three feature means and a 3x3 covariance,
each summed in one fixed order per phase.  The slope of the mean fringe is
exact, d<S>/dphi = -<B> sin(phi) + <C> cos(phi), so any single phase can be
evaluated on its own, and

    delta_phi = sqrt( V(S) / (d<S>/dphi)^2 ),    M = delta_phi * sqrt(N_t).

Confidence intervals are trajectory-level bootstrap: whole trajectories
are resampled and V(S), d<S>/dphi and M are recomputed jointly from the
feature sums over each resample.

Every M goes through one evaluation, _curves: check that the ensembles
share one draw and have enough trajectories, draw the LO noise once, stack
the ensembles' features, and evaluate every (set, weight, phase) cell and
every interval with one evaluate call, which forms one term block of the
stack.  sensitivity_curve, m_at_phi and scan_over_r are reads of its curves,
in every evolution mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import predict
from .config import CORRECTIONS, MIN_RESAMPLES, MIN_TRAJECTORIES, RunConfig
from .dynamics import ConservationReport, Ensemble, build_ensembles, transferred_atoms
from .interferometer import (
    HomodyneSpec,
    calibrate_correction_sign,
    correction_weight,
    lo_amplitude,
    lo_noise_samples,
    signal_light,
)
from .phasespace import open_stream, quadrature_x, quadrature_y

CI_LEVEL = 0.95  # coverage of every bootstrap interval
# (resample, set, phase) cells whose statistics evaluate takes at once,
# in blocks of whole resamples (at least one), so its transient arrays stay
# this size whatever the resample count.  That is 24 resamples of one set at
# 201 phases (as fast as one evaluation of all of them) and every resample of
# a 13-r scan's single phase, where more blocks would only add per-call overhead.
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
    star: int  # index of the row with the least M, the optimum
    at_boundary: bool  # r_star is the smallest or largest of more than one distinct r


def fringe_features(
    ensemble: Ensemble, spec: HomodyneSpec, lo_noise=None, out=None
) -> tuple[np.ndarray, np.ndarray, str]:
    """Per-trajectory features (B, C, S_b / g), the light record S_b, and the sign.

    B and C, the fringe of N2 - N1, come from the unsplit t1 amplitudes
    (run_mzi is the oracle).  The features are the same for every correction
    sign, and an "auto" sign is calibrated at pi/2, where the atomic signal is
    C.  The LO noise is drawn once (or passed in), and the (n, 3) features
    are written into out when it is given.
    """
    s_b = signal_light(ensemble.state.beta2, lo_amplitude(ensemble, spec, lo_noise))
    a1, a2 = ensemble.state.alpha1, ensemble.state.alpha2
    b = (a1.real ** 2 + a1.imag ** 2) - (a2.real ** 2 + a2.imag ** 2)  # |alpha1|^2 - |alpha2|^2
    c = -2.0 * (a1.real * a2.real + a1.imag * a2.imag)  # -2 Re(alpha1 conj(alpha2))
    sign = spec.correction_sign
    if sign == "auto":
        sign = calibrate_correction_sign(c, s_b)
    return np.stack([b, c, s_b / spec.gain_g], axis=1, out=out), s_b, sign


def _moments(features):
    """Per-trajectory terms of a feature stack, and the statistics their sums determine.

    features is a (sets, n, 3) stack of rows f = (B, C, S_b / g), and for a
    weight w the signal at phase phi_p is S_p = (cos phi_p, sin phi_p, w) @ f;
    the atomic record alone is w = 0.  Its mean and exact slope need the
    feature means, its unbiased variance the feature covariance; both follow
    from the sums of the terms (centred features and their pairwise products)
    over any index set, so a bootstrap resample costs one weighted sum.
    statistics(sums, phi, weights, n_total) takes sums of shape (..., sets, 9)
    and a list of weights (or one weight) per set, and returns a dict of
    (..., sets, weights, phases) arrays; each cell adds the 3 terms of its
    mean or slope and the 6 of its variance in one fixed order, whatever else
    is evaluated with it.  The terms are a (sets, 9, n) block, trajectories
    on the contiguous axis, each row formed in place from the features or
    from two centred rows, so no other (n, 3)-sized array is made.
    """
    features = np.asarray(features, dtype=float)
    sets, n, k = features.shape
    center = features.mean(axis=1)
    i, j = np.triu_indices(k)

    def statistics(sums: np.ndarray, phi, weights, n_total: float) -> dict:
        weights = np.array(weights, dtype=float)
        if len(weights) != sets:
            raise ValueError(f"{len(weights)} weight lists for {sets} sets")
        phi = np.asarray(phi, dtype=float)
        design = np.broadcast_arrays(np.cos(phi), np.sin(phi), weights.reshape(sets, -1, 1))
        pairs = [design[a] * design[b] * (1.0 if a == b else 2.0) for a, b in zip(i, j)]
        slope = [-np.sin(phi), np.cos(phi), np.zeros_like(phi)]
        shift = sums[..., :k] / n
        cov = (sums[..., k:] - n * shift[..., i] * shift[..., j]) / (n - 1)
        mean = np.moveaxis(center + shift, -1, 0)[..., None, None]  # (term, ..., set, 1, 1)
        cov = np.moveaxis(cov, -1, 0)[..., None, None]
        ds = sum(x * y for x, y in zip(mean, slope))  # Python's sum: term by term
        mean_s = sum(x * y for x, y in zip(mean, design))
        var_s = np.maximum(sum(x * y for x, y in zip(cov, pairs)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 and 0 / 0
            delta_phi = np.where(ds != 0.0, np.sqrt(var_s) / np.abs(ds), np.inf)
        return {"mean_s": mean_s, "var_s": var_s, "ds_dphi": np.broadcast_to(ds, var_s.shape),
                "delta_phi": delta_phi, "m": delta_phi * np.sqrt(n_total)}

    terms = np.empty((sets, k + i.size, n))
    np.subtract(features.transpose(0, 2, 1), center[:, :, None], out=terms[:, :k])
    for row, (a, b) in enumerate(zip(i, j), start=k):
        np.multiply(terms[:, a], terms[:, b], out=terms[:, row])
    return terms, statistics


def _resample_sums(terms, resamples: int, master_seed: int) -> np.ndarray:
    """Sums of each row of terms over the trajectories (last axis) of every resample.

    Resample t draws n trajectory indices from the "bootstrap" stream of
    master_seed, so the draws depend on (master_seed, n) only, and sums the
    terms weighted by how often it drew each trajectory.  einsum makes no
    BLAS call and sums each row in one order whatever rows are stacked with
    it; the counts are floats because integer counts are cast through
    nditer buffers, which doubles the cost at 1e4 trajectories.
    """
    n_traj = terms.shape[-1]
    rng = open_stream(master_seed, "bootstrap")
    counts = np.empty(n_traj)
    sums = np.empty((resamples,) + terms.shape[:-1])
    for t in range(resamples):
        counts[:] = np.bincount(rng.integers(0, n_traj, size=n_traj), minlength=n_traj)
        np.einsum("...n,n->...", terms, counts, out=sums[t])
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


def evaluate(features, phi, weights, n_total: float, resamples: int | None = None,
             master_seed: int = 0) -> tuple[dict, np.ndarray, np.ndarray]:
    """Statistics of every (set, weight, phase) cell and the interval of M at
    each set's first weight, from one (sets, 9, n) term block.

    features is a (sets, n, 3) stack of (B, C, S_b / g) rows and weights one
    list per set (0 for the atomic signal alone).  The statistics (mean,
    variance, exact fringe slope, delta_phi and M) are (sets, weights, phases)
    arrays from the block's sums.  The edges, of shape (sets, phases), are a
    percentile bootstrap (coverage CI_LEVEL) from its resample sums, or M
    itself when resamples is None.  Whole trajectories are resampled, so the
    variance and the slope are recomputed jointly, with the same indices for
    every set, so each set's edges are those of that set alone.  A vanishing
    resampled slope gives an infinite M, and an edge next to one is +inf.
    The resamples' statistics are evaluated in blocks of about
    RESAMPLE_BLOCK_CELLS (resample, set, phase) cells; every value is per
    cell, so the edges do not depend on their size.
    """
    if resamples is not None and resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}")
    terms, statistics = _moments(features)
    stats = statistics(terms.sum(axis=-1), phi, weights, n_total)
    if resamples is None:
        return stats, stats["m"][:, 0], stats["m"][:, 0]
    sums = _resample_sums(terms, resamples, master_seed)  # (resamples, sets, 9)
    del terms  # keep the block out of the statistics' transient memory
    first = np.array(weights, dtype=float).reshape(len(weights), -1)[:, :1]
    m = np.empty((resamples,) + stats["m"].shape[::2])  # (resamples, sets, phases)
    step = max(1, RESAMPLE_BLOCK_CELLS // m[0].size)
    for t in range(0, resamples, step):
        m[t:t + step] = statistics(sums[t:t + step], phi, first, n_total)["m"][..., 0, :]
    lo_q = 100.0 * (1.0 - CI_LEVEL) / 2.0
    with np.errstate(invalid="ignore"):  # inf - inf where an edge meets an infinite M
        edges = _percentile(m, [lo_q, 100.0 - lo_q])
    edges[np.isnan(edges) & ~np.isnan(m).any(axis=0)] = np.inf
    return stats, edges[0], edges[1]


def _curves(ensembles, phi, spec: HomodyneSpec,
            resamples: int | None) -> list[SensitivityCurve]:
    """The sensitivity curve of each ensemble at each phase in phi, a non-empty 1-D grid.

    The ensembles must come from one draw: the LO noise and the bootstrap's
    resample stream depend on (master_seed, n_traj) only, and the M scale on
    n_total.  One LO draw and one evaluate call serve every ensemble, so
    each curve equals that of its ensemble alone.  With resamples None each
    interval collapses to its point.
    """
    shared = {(e.n_traj, e.master_seed, e.n_total) for e in ensembles}
    if len(shared) > 1:
        raise ValueError("the ensembles of a scan must share n_traj, master_seed and "
                         f"n_total; got {sorted(shared)}")
    (n_traj, master_seed, n_total), = shared
    if n_traj < MIN_TRAJECTORIES:
        raise ValueError(f"need at least {MIN_TRAJECTORIES} trajectories")

    phi = np.array(phi, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError(f"phi must be a non-empty 1-D grid of phases; got shape {phi.shape}")
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
    # S at each set's weight (with its interval) and the atomic record S_a (weight 0)
    weights = [[correction_weight(sign), 0.0] for sign in signs]
    stats, ci_lo, ci_hi = evaluate(features, phi, weights, n_total, resamples, master_seed)
    return [SensitivityCurve(
        phi=phi, mean_s_a=stats["mean_s"][s, 1], var_s_a=stats["var_s"][s, 1],
        mean_s_b=np.full(phi.size, mean_s_b[s]), **{key: x[s, 0] for key, x in stats.items()},
        m_ci_lo=ci_lo[s], m_ci_hi=ci_hi[s],
        traj_count=n_traj, n_total=float(n_total), correction_sign=signs[s],
    ) for s in range(len(ensembles))]


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

    One build gives every r its ensemble from one sample (or ensembles holds
    them, one per r, in order), in any mode, and one _curves call at pi/2
    evaluates them all, each r with its own sign calibration, so every row
    equals m_at_phi on its own ensemble.  The closed undepleted-pump forms
    ride along in m_plain and m_recycled.
    """
    r_values = [float(v) for v in r_values]
    if not r_values:
        raise ValueError("r_values must be non-empty")
    if any(v < 0 for v in r_values):
        raise ValueError("r_values must be >= 0")

    ensembles, spec = prepare(config, r_values, ensembles)
    if len(ensembles) != len(r_values):
        raise ValueError(f"{len(ensembles)} ensembles for {len(r_values)} r values")
    for r, ensemble in zip(r_values, ensembles):
        if ensemble.r != r:
            raise ValueError(f"ensemble at r = {ensemble.r} given for r = {r}")
    curves = _curves(ensembles, [np.pi / 2], spec, config.bootstrap_resamples)
    rows = []
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

    star = int(np.argmin([row.m for row in rows]))
    r_star = rows[star].r
    at_boundary = len(set(r_values)) > 1 and r_star in (min(r_values), max(r_values))
    return RScanResult(rows=rows, star=star, at_boundary=at_boundary)
