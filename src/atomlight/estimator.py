"""Sensitivity estimation from the read-out's fringe features.

Per trajectory the combined signal is a single fringe harmonic in the
interferometer phase plus the weighted records of the read-out,

    S(phi) = B cos(phi) + C sin(phi) + w . x,

from the k features (B, C, x) of the read-out (interferometer), x the
columns after (B, C), the first of them the light record S_b / g.  The
correction is decided here alone: it is the weight row w of the fringe
design (a named one weights S_b / g alone; "auto" resolves its sign from the
same sums as every statistic), and the atomic record S_a is S at w = 0.  The
dynamics do not depend on phi, so one ensemble and one local-oscillator draw
serve every phase (exact common random numbers): the mean and unbiased
variance of S at a phase follow from k feature means and a k x k
covariance, and the slope of the mean fringe is exact,
d<S>/dphi = -<B> sin(phi) + <C> cos(phi), so

    delta_phi = sqrt( V(S) / (d<S>/dphi)^2 ),    M = delta_phi * sqrt(N_t),

with the delta method's interval from the centred feature moments up to
order 4.  Every M goes through one evaluation, _curves: one evaluate call
for every (set, weight, phase) cell, interval and sign, reading the
read-out's features one ensemble at a time (one LO draw).
sensitivity_curve and scan_over_r read its curves, in every evolution mode.
Ensembles are plain values: no function changes a list it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, repeat

import numpy as np

from .analytics import predict
from .config import CORRECTIONS, MIN_TRAJECTORIES, RunConfig
from .dynamics import ConservationReport, Ensemble, build_ensembles, transferred_atoms
from .interferometer import HomodyneSpec, feature_sets
from .phasespace import quadrature_x, quadrature_y

Z_CI = 1.959963984540054  # the standard normal's 0.975 quantile: 95 % intervals


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
    weights = {"plus": -1.0, "minus": 1.0, "off": 0.0}
    if correction_sign not in weights:
        raise ValueError("correction_sign must be plus, minus, off or auto; "
                         f"got {correction_sign!r}")
    return weights[correction_sign]


def _monomials(k: int, *degrees: int) -> list:
    """The monomials of k features, as tuples of feature indices, of each degree in turn."""
    return [m for d in degrees for m in combinations_with_replacement(range(k), d)]


def _coefficient(monomial, vectors):
    """The coefficient of a centred monomial's mean in the mean of the product
    of the projections v . f~ of the vectors: the sum over the monomial's
    distinct orderings of the products of the vectors' components, added in
    one fixed order."""
    return sum(math.prod(v[a] for v, a in zip(vectors, order))
               for order in sorted(set(permutations(monomial))))


def _monomial_sums(rows, monomials, scratch) -> list:
    """The sum over the trajectories of each centred monomial of the (k, n)
    rows: f_a, f_a f_b, (f_a f_b) f_c or (f_a f_b)(f_c f_d), each product
    formed in the two trajectory-sized scratch rows and summed there."""
    sums = []
    for a, *rest in monomials:
        x = rows[a] if not rest else np.multiply(rows[a], rows[rest[0]], out=scratch[0])
        if len(rest) == 2:
            x *= rows[rest[1]]
        elif len(rest) == 3:
            x *= np.multiply(rows[rest[1]], rows[rest[2]], out=scratch[1])
        sums.append(x.sum())
    return sums


def _statistics(mean, cov, higher, n, phi, weights, n_total: float) -> dict:
    """The statistics of each set's features at each of its weights and each phase.

    mean and cov are the (sets, k) means and (sets, k(k+1)/2) covariances
    (over _monomials(k, 2)) of the features f = (B, C, x) of each set's n
    trajectories (n is (sets, 1, 1)), and higher the (sets, C(k+2, 3) +
    C(k+3, 4)) sums of their centred monomials of degree 3 and 4 in the basis
    of each set's first weight.  weights is a (sets, weights, k - 2) array of
    rows w on x.  At phase phi the signal S = d @ f, with the design
    d = (cos phi, sin phi, w), has the mean and exact slope D = t @ mean(f),
    t = (-sin phi, cos phi, 0 ...), and the unbiased variance V; w = 0 is
    the atomic record.  The result is a dict of (sets, weights, phases)
    arrays: the point statistics and the edges m_ci_lo, m_ci_hi of the delta
    method's interval for log M (Efron & Tibshirani, An Introduction to the
    Bootstrap, 1993, ch. 21; van der Vaart, Asymptotic Statistics, 1998,
    ch. 3), M exp(-+Z_CI se).  se^2 = E[IF^2] / n for the influence function
    IF = ((d @ f~)^2 - V) / (2 V) - (t @ f~) / D of log M, so
    E[IF^2] = (mu4 - V^2) / (4 V^2) - mu3 / (V D) + t' Sigma t / D^2, with V
    and Sigma population (co)variances, mu4 = E[(d @ f~)^4] and
    mu3 = E[(d @ f~)^2 (t @ f~)].  The interval is taken at the weight given,
    as a fixed design row; at a weight fitted to the least V, dV/dw = 0, so
    the same formula holds.  An infinite M has +inf edges, a NaN M NaN edges
    and M = 0 (no variance) edges 0.  Each cell adds its terms in one fixed
    order, whatever else is evaluated with it.
    """
    w = np.moveaxis(weights, -1, 0)[..., None]  # (k - 2, sets, weights, 1)
    phi = np.asarray(phi, dtype=float)
    design = np.broadcast_arrays(np.cos(phi), np.sin(phi), *w)
    slope = [-np.sin(phi), np.cos(phi)] + [np.zeros_like(phi)] * len(w)
    # d and t in the basis (B, C + w . x, x) of each set's first weight w, that of its higher sums
    d_b, t_b = ([*v[:2], *(x - y[:, :1] * v[1] for x, y in zip(v[2:], w))] for v in (design, slope))
    pairs, triples, quads = (_monomials(mean.shape[1], degree) for degree in (2, 3, 4))
    first, second = (x.T[..., None, None] for x in (mean, cov))  # (term, set, 1, 1)
    third, fourth = (x.T[..., None, None] / n for x in np.split(higher, [len(triples)], -1))
    ds = sum(x * y for x, y in zip(first, slope))  # Python's sum: term by term
    mean_s = sum(x * y for x, y in zip(first, design))
    var_s = np.maximum(sum(x * _coefficient(p, [design] * 2)
                           for x, p in zip(second, pairs)), 0.0)
    var_t = sum(x * _coefficient(p, [slope] * 2) for x, p in zip(second, pairs))
    mu3 = sum(x * _coefficient(p, [d_b, d_b, t_b]) for x, p in zip(third, triples))
    mu4 = sum(x * _coefficient(p, [d_b] * 4) for x, p in zip(fourth, quads))
    # x / 0 and 0 / 0 (a zero slope: an infinite M; no variance: M = 0), and
    # an edge past the float range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta_phi = np.where(ds != 0.0, np.sqrt(var_s) / np.abs(ds), np.inf)
        m = delta_phi * np.sqrt(n_total)
        v, v_t = var_s * ((n - 1) / n), var_t * ((n - 1) / n)  # population variances
        spread = (mu4 - v * v) / (4.0 * v * v) - mu3 / (v * ds) + v_t / (ds * ds)
        se = np.sqrt(np.maximum(spread, 0.0) / n)
        held = np.isinf(m) | (m == 0.0)
        lo, hi = (np.where(held, m, m * np.exp(side * Z_CI * se)) for side in (-1.0, 1.0))
    return {"mean_s": mean_s, "var_s": var_s, "ds_dphi": np.broadcast_to(ds, var_s.shape),
            "delta_phi": delta_phi, "m": m, "m_ci_lo": lo, "m_ci_hi": hi}


def _set_sums(features, correction: str) -> tuple:
    """The means, covariances and higher sums of one (n, k) set, its resolved sign, weight
    row and n (evaluate); its rows, like the set, do not outlive the call."""
    if features.ndim != 2 or len(features) < 2 or features.shape[1] < 3:
        raise ValueError("a feature set must be (n, k): at least 2 trajectories (a variance) "
                         f"of k >= 3 features (B, C, S_b / g, ...); got shape {features.shape}")
    n, k = features.shape
    center = features.mean(axis=0)
    rows, scratch = np.subtract(features.T, center[:, None], order="C"), np.empty((2, n))
    sums = np.array(_monomial_sums(rows, _monomials(k, 1, 2), scratch))
    shift = sums[:k] / n
    i, j = np.array(_monomials(k, 2)).T
    cov = (sums[k:] - n * shift[i] * shift[j]) / (n - 1)
    if correction == "auto":  # the sign of cov(C, S_b / g)
        correction = "plus" if cov[_monomials(k, 2).index((1, 2))] >= 0 else "minus"
    weight = [correction_weight(correction)] + [0.0] * (k - 3)  # a name weights S_b / g alone
    for x, w in zip(rows[2:], weight):
        rows[1] += np.multiply(x, w, out=scratch[0])  # C + w . x
    higher = _monomial_sums(rows, _monomials(k, 3, 4), scratch)
    return center + shift, cov, higher, correction, weight, n


def evaluate(features, phi, correction: str, n_total: float) -> tuple[dict, np.ndarray, np.ndarray]:
    """Statistics of every set at the correction's weight and at weight 0, and
    the interval of M at the first, from sums over one set at a time.

    features is any iterable of (n, k) arrays of (B, C, S_b / g, ...) rows,
    one per set, k >= 3 alike in every set (a (sets, n, k) array, or the
    read-out's feature_sets); a set of another shape or of fewer than 2
    trajectories is refused by its shape before its sums.  correction is one
    name for every set, whose weight row on the columns after (B, C) weights
    S_b / g alone: "plus" (-1, 0 ...), "minus" (+1, 0 ...), "off" (0 ...) or
    "auto"; any other name is refused before any set is read.  Each set is
    centred at its feature means into k trajectory rows, whose k + k(k+1)/2
    sums of degree 1 and 2 give its means and covariances, and its "auto":
    "plus" where cov(C, S_b / g) >= 0 (ties too), "minus" otherwise, over
    the whole sample.  For any g > 0, V(C - S_b/g) - V(C + S_b/g) =
    -4 cov(C, S_b/g), so that is the sign with the smaller V(S) at pi/2,
    where C is the atomic record.  The C row then becomes C + w . x at the
    resolved weight row w, and the C(k+2, 3) + C(k+3, 4) sums of degree 3
    and 4 (9 + 25 sums in all at k = 3, 14 + 55 at k = 4) are taken in that
    basis, where the signal at pi/2 is one feature, so its moments do not
    cancel: at the unseeded optimum V(S) is 1e-7 of V(C) at N = 1e7 and
    1e-9 at N = 1e9, where moments in the features' own basis put se 2.6 %
    off (r = 4.5, 1e5 trajectories) and out by factors (r = 5.6).  A set's
    sums are formed on its rows alone, so they do not depend on the sets
    beside it, and the set and its k + 2 trajectory rows (k centred features,
    two scratch rows) are dropped before the next set is drawn.

    The statistics (mean, variance, exact fringe slope, delta_phi and M) are
    (sets, 2, phases) arrays (_statistics, one call over every set), beside
    each set's resolved "correction_sign" and mean light record
    "mean_s_b_over_g"; the edges, (sets, phases), are the interval of M at
    the resolved weight.
    """
    if correction != "auto":
        correction_weight(correction)  # refuses an unknown name
    # map drops each set once its sums are formed, before it draws the next
    mean, cov, higher, signs, w, n = map(np.array,
                                         zip(*map(_set_sums, features, repeat(correction))))
    weights = np.stack([w, np.zeros_like(w)], axis=1)
    stats = _statistics(mean, cov, higher, n[:, None, None], phi, weights, n_total)
    stats.update(correction_sign=signs.tolist(), mean_s_b_over_g=mean[:, 2])
    return stats, stats.pop("m_ci_lo")[:, 0], stats.pop("m_ci_hi")[:, 0]


def _curves(ensembles: list, phi, spec: HomodyneSpec) -> list[SensitivityCurve]:
    """The sensitivity curve of each ensemble at each phase in phi, a non-empty 1-D grid.

    The ensembles must come from one draw: the LO noise depends on
    (master_seed, n_traj) only, and the M scale on n_total.  One LO draw and
    one evaluate call serve every ensemble, so each curve equals that of its
    ensemble alone.
    """
    shared = {(e.n_traj, e.master_seed, e.n_total) for e in ensembles}
    if len(shared) > 1:
        raise ValueError("the ensembles of a scan must share n_traj, master_seed and "
                         f"n_total; got {sorted(shared)}")
    (n_traj, _, n_total), = shared
    if n_traj < MIN_TRAJECTORIES:
        raise ValueError(f"need at least {MIN_TRAJECTORIES} trajectories")

    phi = np.array(phi, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError(f"phi must be a non-empty 1-D grid of phases; got shape {phi.shape}")
    stats, ci_lo, ci_hi = evaluate(feature_sets(ensembles, spec), phi, spec.correction_sign,
                                   n_total)
    signs, mean_s_b_over_g = stats.pop("correction_sign"), stats.pop("mean_s_b_over_g")
    return [SensitivityCurve(
        phi=phi, mean_s_a=stats["mean_s"][s, 1], var_s_a=stats["var_s"][s, 1],
        mean_s_b=np.full(phi.size, spec.gain_g * mean_s_b_over_g[s]),
        **{key: x[s, 0] for key, x in stats.items()}, m_ci_lo=ci_lo[s], m_ci_hi=ci_hi[s],
        traj_count=n_traj, correction_sign=signs[s],
    ) for s in range(len(signs))]


def sensitivity_curve(ensemble: Ensemble, phi, spec: HomodyneSpec) -> SensitivityCurve:
    """Full sensitivity analysis of one ensemble at each phase in phi (one
    phase is a grid of one)."""
    return _curves([ensemble], phi, spec)[0]


def squeezed_combo_variance(ensemble: Ensemble) -> float:
    """Sample variance of the correlated quadrature pair X_a2 + Y_b2 at t1."""
    combo = quadrature_x(ensemble.state.alpha2) + quadrature_y(ensemble.state.beta2)
    return float(np.var(combo, ddof=1))


def prepare(config: RunConfig, r_values,
            ensembles=None) -> tuple[list[Ensemble], HomodyneSpec]:
    """The ensembles at each r (built unless given, else returned as they were
    given), and the homodyne settings."""
    if ensembles is None:
        ensembles = build_ensembles(
            config.n_total, config.n_seed, r_values, config.trajectories, config.master_seed,
            mode=config.mode)
    spec = HomodyneSpec(gain_g=config.gain_g, lo_sampled=config.lo_sampled,
                        correction_sign=CORRECTIONS[config.correction])
    return ensembles, spec


def scan_over_r(r_values, config: RunConfig, ensembles=None) -> RScanResult:
    """Evaluate M at phi = pi/2 for each r and locate the optimum.

    One build gives every r its ensemble from one sample (or ensembles holds
    them, one per r, in order), in any mode, and one _curves call at pi/2
    evaluates them all, each r with its own sign calibration, so every row
    equals sensitivity_curve at pi/2 on its own ensemble.  The closed
    undepleted-pump forms ride along in m_plain and m_recycled, and each row's
    other scalars are read from its ensemble beside its curve.
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
    rows = []
    for r, ensemble, curve in zip(r_values, ensembles, _curves(ensembles, [np.pi / 2], spec)):
        pred = predict(r, config.n_total)
        rows.append(RScanRow(
            r=r, m=float(curve.m[0]), m_ci_lo=float(curve.m_ci_lo[0]),
            m_ci_hi=float(curve.m_ci_hi[0]), transferred=transferred_atoms(ensemble),
            var_squeezed_combo=squeezed_combo_variance(ensemble), m_plain=pred.m_plain,
            m_recycled=pred.m_recycled, correction_sign=curve.correction_sign,
            conservation=ensemble.conservation))

    star = int(np.argmin([row.m for row in rows]))
    r_star = rows[star].r
    at_boundary = len(set(r_values)) > 1 and r_star in (min(r_values), max(r_values))
    return RScanResult(rows=rows, star=star, at_boundary=at_boundary)
