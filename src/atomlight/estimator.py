"""Sensitivity estimation from the read-out's feature stacks.

Per trajectory the combined signal is a single fringe harmonic in the
interferometer phase plus the weighted light record,

    S(phi) = B cos(phi) + C sin(phi) + w S_b / g,

from the features (B, C, S_b / g) of the read-out (interferometer).  The
correction is decided here alone: its sign is only the weight w in the fringe
design, an "auto" sign is resolved from the same sums as every statistic, and
the atomic record S_a is S at w = 0, read from those sums too.  The
dynamics do not depend on phi, so one ensemble and one local-oscillator draw
serve every phase (exact common random numbers), and the per-phase mean and
unbiased variance of S follow from three feature means and a 3x3 covariance,
each summed in one fixed order per phase.  The slope of the mean fringe is
exact, d<S>/dphi = -<B> sin(phi) + <C> cos(phi), so any single phase can be
evaluated on its own, and

    delta_phi = sqrt( V(S) / (d<S>/dphi)^2 ),    M = delta_phi * sqrt(N_t).

Confidence intervals are trajectory-level bootstrap: whole trajectories
are resampled and V(S), d<S>/dphi and M are recomputed jointly from the
feature sums over each resample.

Every M goes through one evaluation, _curves: check that the ensembles
share one draw and have enough trajectories, take their feature stack from
the read-out (one LO draw; each ensemble dropped once read), and evaluate
every (set, weight, phase) cell, every interval and each set's sign with one
evaluate call, which forms one term block of the stack and drops the stack.
sensitivity_curve (a single phase included) and scan_over_r are reads of
its curves, in every evolution mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import predict
from .config import CORRECTIONS, MIN_RESAMPLES, MIN_TRAJECTORIES, RunConfig
from .dynamics import ConservationReport, Ensemble, build_ensembles, transferred_atoms
from .interferometer import HomodyneSpec, feature_stack
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


def correction_weight(correction_sign: str) -> float:
    """w in S = S_a + w S_b / g: -1 for "plus", +1 for "minus", 0 for "off"."""
    if correction_sign == "auto":
        raise ValueError("correction_sign is unresolved; evaluate resolves it")
    return {"plus": -1.0, "minus": 1.0, "off": 0.0}[correction_sign]


def _moments(features):
    """Per-trajectory terms of a feature stack, and the statistics their sums determine.

    features is a (sets, n, 3) stack of rows f = (B, C, S_b / g), and for a
    weight w the signal at phase phi_p is S_p = (cos phi_p, sin phi_p, w) @ f;
    the atomic record alone is w = 0.  Its mean and exact slope need the
    feature means, its unbiased variance the feature covariance; both follow
    from the sums of the terms (centred features and their pairwise products)
    over any index set, so a bootstrap resample costs one weighted sum.
    moments(sums) takes sums of shape (..., sets, 9) and returns the feature
    means (..., sets, 3) and covariances (..., sets, 6) of the pairs
    (B, B), (B, C), (B, S_b / g), (C, C), (C, S_b / g), (S_b / g, S_b / g);
    statistics(mean, cov, phi, weights, n_total) takes them and a list of
    weights (or one weight) per set, and returns a dict of (..., sets,
    weights, phases) arrays; each cell adds the 3 terms of its mean or slope
    and the 6 of its variance in one fixed order, whatever else is evaluated
    with it.  The terms are a (sets, 9, n) block, trajectories on the
    contiguous axis, each row formed in place from the features or from two
    centred rows, so no other (n, 3)-sized array is made.
    """
    features = np.asarray(features, dtype=float)
    sets, n, k = features.shape
    if n < 2:
        raise ValueError(f"a variance needs at least 2 trajectories; got {n}")
    center = features.mean(axis=1)
    i, j = np.triu_indices(k)

    def moments(sums: np.ndarray):
        shift = sums[..., :k] / n
        return center + shift, (sums[..., k:] - n * shift[..., i] * shift[..., j]) / (n - 1)

    def statistics(mean, cov, phi, weights, n_total: float) -> dict:
        weights = np.array(weights, dtype=float)
        phi = np.asarray(phi, dtype=float)
        design = np.broadcast_arrays(np.cos(phi), np.sin(phi), weights.reshape(sets, -1, 1))
        pairs = [design[a] * design[b] * (1.0 if a == b else 2.0) for a, b in zip(i, j)]
        slope = [-np.sin(phi), np.cos(phi), np.zeros_like(phi)]
        mean = np.moveaxis(mean, -1, 0)[..., None, None]  # (term, ..., set, 1, 1)
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
    return terms, moments, statistics


def _resample_sums(terms, resamples: int, master_seed: int) -> np.ndarray:
    """Sums of each row of terms over the trajectories (last axis) of every resample.

    Resample t draws n trajectory indices from the "bootstrap" stream of
    master_seed, so the draws depend on (master_seed, n) only, and sums the
    terms weighted by how often it drew each trajectory.  einsum makes no
    BLAS call and sums each row in one order whatever rows are stacked with
    it; the counts are floats because integer counts are cast through
    nditer buffers, which doubles the cost at 1e4 trajectories.  No name holds
    the draw or the counts, so at most two of the three are live at once.
    """
    n_traj = terms.shape[-1]
    rng = open_stream(master_seed, "bootstrap")
    sums = np.empty((resamples,) + terms.shape[:-1])
    for t in range(resamples):
        np.einsum("...n,n->...", terms, np.bincount(
            rng.integers(0, n_traj, size=n_traj), minlength=n_traj).astype(float), out=sums[t])
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


def evaluate(features, phi, corrections, n_total: float, resamples: int | None = None,
             master_seed: int = 0) -> tuple[dict, np.ndarray, np.ndarray]:
    """Statistics of every set at its correction's weight and at weight 0, and
    the interval of M at the first, from one (sets, 9, n) term block.

    features is a (sets, n, 3) stack of (B, C, S_b / g) rows and corrections
    one name per set: "plus" (weight -1), "minus" (+1), "off" (0) or "auto".
    "auto" is resolved once, from the sums of the whole sample, and every
    resample uses its weight: "plus" where cov(C, S_b / g) >= 0 (ties too),
    "minus" otherwise.  C is the atomic record at pi/2, and for any g > 0
    V(C - S_b/g) - V(C + S_b/g) = -4 cov(C, S_b/g), so that is the sign with
    the smaller V(S) there.  The statistics (mean, variance, exact fringe
    slope, delta_phi and M) are (sets, 2, phases) arrays from the block's
    sums; beside them are each set's resolved "correction_sign" and its mean
    light record "mean_s_b_over_g", a (sets,) array.  The edges, of shape
    (sets, phases), are a percentile bootstrap (coverage CI_LEVEL) from its
    resample sums, or M itself when resamples is None.  Whole trajectories
    are resampled, so the variance and the slope are recomputed jointly,
    with the same indices for every set, so each set's edges are those of
    that set alone.  A vanishing resampled slope gives an infinite M, and an
    edge next to one is +inf.  The resamples' statistics are evaluated in
    blocks of about RESAMPLE_BLOCK_CELLS (resample, set, phase) cells; every
    value is per cell, so the edges do not depend on their size.  The stack
    is dropped once the block is formed, and the block once its resample
    sums are.
    """
    if resamples is not None and resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}")
    if len(corrections) != len(features):
        raise ValueError(f"{len(corrections)} corrections for {len(features)} sets")
    terms, moments, statistics = _moments(features)
    del features  # freed here if no caller names it (_curves does not)
    mean, cov = moments(terms.sum(axis=-1))
    signs = [("plus" if c_s >= 0 else "minus") if name == "auto" else name
             for name, c_s in zip(corrections, cov[:, 4])]  # cov(C, S_b / g)
    weights = [correction_weight(sign) for sign in signs]
    stats = statistics(mean, cov, phi, [[w, 0.0] for w in weights], n_total)
    stats.update(correction_sign=signs, mean_s_b_over_g=mean[:, 2])
    if resamples is None:
        return stats, stats["m"][:, 0], stats["m"][:, 0]
    sums = _resample_sums(terms, resamples, master_seed)  # (resamples, sets, 9)
    del terms  # keep the block out of the statistics' transient memory
    m = np.empty((resamples,) + stats["m"].shape[::2])  # (resamples, sets, phases)
    step = max(1, RESAMPLE_BLOCK_CELLS // m[0].size)
    for t in range(0, resamples, step):
        block = statistics(*moments(sums[t:t + step]), phi, weights, n_total)
        m[t:t + step] = block["m"][..., 0, :]
    lo_q = 100.0 * (1.0 - CI_LEVEL) / 2.0
    with np.errstate(invalid="ignore"):  # inf - inf where an edge meets an infinite M
        edges = _percentile(m, [lo_q, 100.0 - lo_q])
    edges[np.isnan(edges) & ~np.isnan(m).any(axis=0)] = np.inf
    return stats, edges[0], edges[1]


def _curves(ensembles: list, phi, spec: HomodyneSpec,
            resamples: int | None) -> list[SensitivityCurve]:
    """The sensitivity curve of each ensemble at each phase in phi, a non-empty 1-D grid.

    The ensembles must come from one draw: the LO noise and the bootstrap's
    resample stream depend on (master_seed, n_traj) only, and the M scale on
    n_total.  One LO draw and one evaluate call serve every ensemble, so
    each curve equals that of its ensemble alone.  With resamples None each
    interval collapses to its point.  The list is emptied as the features
    are read, so no ensemble or stack that only it held is live in the bootstrap.
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
    corrections = [spec.correction_sign] * len(ensembles)
    stats, ci_lo, ci_hi = evaluate(feature_stack(ensembles, spec), phi, corrections, n_total,
                                   resamples, master_seed)
    signs, mean_s_b_over_g = stats.pop("correction_sign"), stats.pop("mean_s_b_over_g")
    return [SensitivityCurve(
        phi=phi, mean_s_a=stats["mean_s"][s, 1], var_s_a=stats["var_s"][s, 1],
        mean_s_b=np.full(phi.size, spec.gain_g * mean_s_b_over_g[s]),
        **{key: x[s, 0] for key, x in stats.items()}, m_ci_lo=ci_lo[s], m_ci_hi=ci_hi[s],
        traj_count=n_traj, correction_sign=signs[s],
    ) for s in range(len(signs))]


def sensitivity_curve(ensemble: Ensemble, phi, spec: HomodyneSpec,
                      resamples: int | None = 200) -> SensitivityCurve:
    """Full sensitivity analysis of one ensemble at each phase in phi (one
    phase is a grid of one); with resamples None each interval is its point."""
    ensembles = [ensemble]
    del ensemble  # so that _curves frees it, unless the caller holds it
    return _curves(ensembles, phi, spec, resamples)[0]


def squeezed_combo_variance(ensemble: Ensemble) -> float:
    """Sample variance of the correlated quadrature pair X_a2 + Y_b2 at t1."""
    combo = quadrature_x(ensemble.state.alpha2) + quadrature_y(ensemble.state.beta2)
    return float(np.var(combo, ddof=1))


def prepare(config: RunConfig, r_values,
            ensembles=None) -> tuple[list[Ensemble], HomodyneSpec]:
    """The ensembles at each r (built unless given) in a new list, and the homodyne settings."""
    if ensembles is None:
        ensembles = build_ensembles(
            config.n_total, config.n_seed, r_values, config.trajectories, config.master_seed,
            mode=config.mode)
    spec = HomodyneSpec(gain_g=config.gain_g, lo_sampled=config.lo_sampled,
                        correction_sign=CORRECTIONS[config.correction])
    return list(ensembles), spec


def scan_over_r(r_values, config: RunConfig, ensembles=None) -> RScanResult:
    """Evaluate M at phi = pi/2 for each r and locate the optimum.

    One build gives every r its ensemble from one sample (or ensembles holds
    them, one per r, in order), in any mode, and one _curves call at pi/2
    evaluates them all, each r with its own sign calibration, so every row
    equals sensitivity_curve at pi/2 on its own ensemble.  The closed
    undepleted-pump forms ride along in m_plain and m_recycled.  Each row's
    other scalars are read before _curves, which frees the ensembles this
    call built.
    """
    r_values = [float(v) for v in r_values]
    if not r_values:
        raise ValueError("r_values must be non-empty")
    if any(v < 0 for v in r_values):
        raise ValueError("r_values must be >= 0")

    ensembles, spec = prepare(config, r_values, ensembles)
    if len(ensembles) != len(r_values):
        raise ValueError(f"{len(ensembles)} ensembles for {len(r_values)} r values")
    for r, ensemble_r in zip(r_values, [e.r for e in ensembles]):
        if ensemble_r != r:
            raise ValueError(f"ensemble at r = {ensemble_r} given for r = {r}")
    read = [dict(r=r, transferred=transferred_atoms(e), conservation=e.conservation,
                 var_squeezed_combo=squeezed_combo_variance(e))
            for r, e in zip(r_values, ensembles)]
    curves = _curves(ensembles, [np.pi / 2], spec, config.bootstrap_resamples)
    rows = []
    for fields, curve in zip(read, curves):
        pred = predict(fields["r"], config.n_total)
        rows.append(RScanRow(
            m=float(curve.m[0]), m_ci_lo=float(curve.m_ci_lo[0]), m_ci_hi=float(curve.m_ci_hi[0]),
            m_plain=pred.m_plain, m_recycled=pred.m_recycled,
            correction_sign=curve.correction_sign, **fields))

    star = int(np.argmin([row.m for row in rows]))
    r_star = rows[star].r
    at_boundary = len(set(r_values)) > 1 and r_star in (min(r_values), max(r_values))
    return RScanResult(rows=rows, star=star, at_boundary=at_boundary)
