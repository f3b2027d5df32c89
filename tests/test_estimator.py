"""Sensitivity curves, their intervals and the r-scan."""

import re
import tracemalloc

import numpy as np
import pytest

from atomlight.analytics import predict

import atomlight.dynamics as dynamics
import atomlight.estimator as estimator
import atomlight.interferometer as interferometer
from atomlight.config import ConfigError, RunConfig
from atomlight.dynamics import build_ensembles
from atomlight.estimator import Z_CI, correction_weight, evaluate, scan_over_r, sensitivity_curve
from atomlight.interferometer import HomodyneSpec, feature_sets, fringe_features, lo_noise_samples
from oracles import bootstrap_interval, interferometer_signals

SEED = 555
CELLS = ("mean_s", "var_s", "ds_dphi", "delta_phi", "m")  # evaluate's (sets, 2, phases) arrays


# --- grid ----------------------------------------------------------------------

def test_phi_grid_from_range(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 201)
    curve = sensitivity_curve(working_point_ensemble, grid, HomodyneSpec())
    assert len(curve.phi) == 201
    assert curve.phi[1] - curve.phi[0] == pytest.approx(np.pi / 100)


def test_phi_grid_rejects_bad_input(working_point_ensemble, monkeypatch):
    # the grid is phi_count points from phi_start to phi_stop; the config checks it
    with pytest.raises(ConfigError):
        RunConfig(phi_count=1).validate()
    with pytest.raises(ConfigError):
        RunConfig(phi_start=2.0, phi_stop=1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(phi_start=np.nan, phi_stop=np.nan).validate()
    with pytest.raises(ConfigError):
        RunConfig(phi_stop=np.inf).validate()
    with pytest.raises(ConfigError, match="phi_stop - phi_start"):  # the width overflows
        RunConfig(phi_start=-1e308, phi_stop=1e308).validate()
    # and the estimator takes a non-empty 1-D grid, refused before any draw
    def no_draw(ensemble):
        raise AssertionError("LO noise drawn for a bad grid")

    monkeypatch.setattr(interferometer, "lo_noise_samples", no_draw)
    for grid in ([], [[0.1, 0.2]], 0.1):
        with pytest.raises(ValueError, match="non-empty 1-D grid"):
            sensitivity_curve(working_point_ensemble, grid, HomodyneSpec())


# --- common random numbers -------------------------------------------------------

def test_shared_phases_are_bit_identical(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    f1 = fringe_features(working_point_ensemble, spec, lo_noise_samples(working_point_ensemble))
    f2 = fringe_features(working_point_ensemble, spec, lo_noise_samples(working_point_ensemble))
    assert np.array_equal(f1, f2)  # same trajectories, same LO draw (S_b / g included)
    wide = [np.pi / 2 - 0.2, np.pi / 2, np.pi / 2 + 0.2]
    narrow = [np.pi / 2 - 0.1, np.pi / 2, np.pi / 2 + 0.1]
    a, _, _ = evaluate(f1[np.newaxis], wide, "auto", 1.0e7)
    b, _, _ = evaluate(f2[np.newaxis], narrow, "auto", 1.0e7)
    assert a["correction_sign"] == b["correction_sign"]
    assert a["mean_s"][0, 0, 1] == b["mean_s"][0, 0, 1]
    assert a["var_s"][0, 0, 1] == b["var_s"][0, 0, 1]


@pytest.mark.parametrize("n_seed, r", [(1.0e4, 3.0), (0.0, 4.5)])
def test_a_phase_does_not_depend_on_what_is_evaluated_with_it(n_seed, r):
    # each cell's mean, slope and variance are summed term by term in one order,
    # so the pi/2 entry of a grid is the single-phase value bit for bit, even
    # unseeded where the corrected variance nearly cancels
    ensemble = build_ensembles(1.0e7, n_seed, [r], 10_000, 12345)[0]
    spec = HomodyneSpec(gain_g=100.0)
    grid = np.linspace(0.0, np.pi, 129)  # a step of pi/128 holds pi/2 exactly
    assert grid[64] == np.pi / 2
    curve = sensitivity_curve(ensemble, grid, spec)
    single = sensitivity_curve(ensemble, [np.pi / 2], spec)
    assert single.correction_sign == curve.correction_sign
    assert np.array_equal(single.m[0], curve.m[64])
    assert np.array_equal(single.m_ci_lo[0], curve.m_ci_lo[64])
    assert np.array_equal(single.m_ci_hi[0], curve.m_ci_hi[64])
    # and weight 0's statistics do not depend on the weight beside it: evaluate
    # gives each set its correction's weight and 0, so "off" is 0 beside 0
    features = fringe_features(ensemble, spec, lo_noise_samples(ensemble))
    both, _, _ = evaluate(features[np.newaxis], grid, curve.correction_sign, 1.0e7)
    off, _, _ = evaluate(features[np.newaxis], grid, "off", 1.0e7)
    assert both.keys() == off.keys()
    for column in (0, 1):
        assert all(np.array_equal(both[key][:, 1], off[key][:, column]) for key in CELLS)


def _direct_signals(ensemble, grid, spec, sign):
    """Reference (trajectory x phi) matrices of S = S_a + w S_b / g and S_a,
    one phase at a time through the step-by-step interferometer."""
    lo_noise = lo_noise_samples(ensemble)
    pairs = [interferometer_signals(ensemble, phi, spec, lo_noise) for phi in grid]
    w = correction_weight(sign)
    return (np.column_stack([s_a + w * (s_b / spec.gain_g) for s_a, s_b in pairs]),
            np.column_stack([s_a for s_a, _ in pairs]))


def _direct_slope(ensemble, grid, spec, sign):
    """Reference per-trajectory slopes dS/dphi: for one harmonic (and a light
    record that does not depend on phi) they are S_a a quarter fringe on."""
    return _direct_signals(ensemble, grid + np.pi / 2, spec, sign)[1]


def test_features_match_direct_signals(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 201)
    spec = HomodyneSpec(gain_g=100.0)
    curve = sensitivity_curve(working_point_ensemble, grid, spec)
    s, s_a = _direct_signals(working_point_ensemble, grid, spec, curve.correction_sign)
    for mean, var, ref in ((curve.mean_s, curve.var_s, s), (curve.mean_s_a, curve.var_s_a, s_a)):
        ref_mean = ref.mean(axis=0)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-9 * np.max(np.abs(ref_mean))
        assert np.allclose(var, ref.var(axis=0, ddof=1), rtol=1e-9, atol=0.0)


def test_interval_matches_the_direct_influence_function(working_point_ensemble):
    # the edges are M exp(-+z se), se^2 the mean square of each trajectory's
    # influence on log M over n, here taken from the step-by-step signals
    grid = np.linspace(0.0, 2 * np.pi, 41)
    spec = HomodyneSpec(gain_g=100.0)
    features = fringe_features(working_point_ensemble, spec,
                               lo_noise_samples(working_point_ensemble))
    stats, (lo,), (hi,) = evaluate(features[np.newaxis], grid, "auto", 1.0e7)
    (sign,) = stats["correction_sign"]
    s, _ = _direct_signals(working_point_ensemble, grid, spec, sign)
    slope = _direct_slope(working_point_ensemble, grid, spec, sign)
    s -= s.mean(axis=0)
    v, ds = (s ** 2).mean(axis=0), slope.mean(axis=0)
    influence = 0.5 * (s ** 2 - v) / v - (slope - ds) / ds
    se = np.sqrt((influence ** 2).mean(axis=0) / len(s))
    m = stats["m"][0, 0]
    assert np.allclose(lo, m * np.exp(-Z_CI * se), rtol=1e-8, atol=0.0)
    assert np.allclose(hi, m * np.exp(Z_CI * se), rtol=1e-8, atol=0.0)


def test_z_is_the_normal_quantile():
    from scipy import stats

    assert abs(Z_CI - stats.norm.ppf(0.975)) <= 1e-15


def test_slope_is_exact(working_point_ensemble):
    # central differences miss sin(h)/h - 1 inside a grid and more at its ends
    grid = np.linspace(0.0, 2 * np.pi, 201)
    spec = HomodyneSpec(gain_g=100.0)
    curve = sensitivity_curve(working_point_ensemble, grid, spec)
    ref = _direct_slope(working_point_ensemble, grid, spec, curve.correction_sign).mean(axis=0)
    assert np.all(np.abs(curve.ds_dphi - ref) <= 1e-9 * np.abs(ref))


def test_one_lo_draw_per_ensemble(working_point_ensemble, monkeypatch):
    calls = []

    def counting(ensemble):
        calls.append(ensemble)
        return lo_noise_samples(ensemble)

    monkeypatch.setattr(interferometer, "lo_noise_samples", counting)
    grid = np.linspace(0.0, 2 * np.pi, 21)
    sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(gain_g=100.0))
    assert len(calls) == 1
    sensitivity_curve(working_point_ensemble, [np.pi / 2], HomodyneSpec(gain_g=100.0))
    assert len(calls) == 2


def test_scan_samples_integrates_and_draws_lo_noise_once(monkeypatch):
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dynamics, "sample_initial_ensemble")
    counted(dynamics, "evolve_closed_form")
    counted(interferometer, "lo_noise_samples")
    counted(estimator, "evaluate")
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED)
    r_values = [2.0, 1.0, 1.5, 1.0]
    result = scan_over_r(r_values, config)
    assert counts == {"sample_initial_ensemble": 1, "evolve_closed_form": 1,
                      "lo_noise_samples": 1, "evaluate": 1}
    assert result.rows[1] == result.rows[3]
    # the shared draw, the build of every r and the one evaluation give every row
    # what sensitivity_curve gives its ensemble alone
    for r, row in zip(r_values, result.rows):
        ens = build_ensembles(1.0e7, 1.0e4, [r], 100, SEED)[0]
        curve = sensitivity_curve(ens, [np.pi / 2], HomodyneSpec(gain_g=100.0))
        assert (row.m, row.m_ci_lo, row.m_ci_hi, row.correction_sign) == (
            curve.m[0], curve.m_ci_lo[0], curve.m_ci_hi[0], curve.correction_sign)


def test_every_set_weight_and_phase_is_one_evaluation(working_point_ensemble, monkeypatch):
    # _curves makes one evaluate call over every set for the point statistics
    # and the interval together, whatever the number of ensembles and phases
    calls = []  # the number of sets that each call draws

    def counting(features, *args, **kwargs):
        calls.append(0)

        def drawn():
            for f in features:
                calls[-1] += 1
                yield f

        return evaluate(drawn(), *args, **kwargs)

    monkeypatch.setattr(estimator, "evaluate", counting)
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED)
    result = scan_over_r([1.0 + 0.25 * k for k in range(13)], config)
    assert len(result.rows) == 13 and calls == [13]
    grid = np.linspace(0.0, 2 * np.pi, 201)
    sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(gain_g=100.0))
    assert calls == [13, 1]


def _scan_ensembles(r_values, n_traj=100, master_seed=SEED, n_total=1.0e7):
    return build_ensembles(n_total, 1.0e4, r_values, n_traj, master_seed)


def test_given_ensembles_stay_with_their_caller():
    # a caller's list keeps its ensembles, and evaluating them again gives the
    # same rows
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED)
    ensembles = _scan_ensembles([1.0, 2.0])
    held = list(ensembles)
    first = scan_over_r([1.0, 2.0], config, ensembles)
    assert len(ensembles) == 2 and all(a is b for a, b in zip(ensembles, held))
    assert scan_over_r([1.0, 2.0], config, ensembles).rows == first.rows
    list(feature_sets(ensembles, HomodyneSpec(gain_g=100.0)))  # reads the list, as given
    assert len(ensembles) == 2 and all(a is b for a, b in zip(ensembles, held))
    curve = sensitivity_curve(held[0], [np.pi / 2], HomodyneSpec(gain_g=100.0))
    assert (curve.m[0], curve.m_ci_lo[0], curve.m_ci_hi[0]) == (
        first.rows[0].m, first.rows[0].m_ci_lo, first.rows[0].m_ci_hi)


@pytest.mark.parametrize("ensembles, match", [
    (lambda: _scan_ensembles([1.0, 2.0]), "2 ensembles for 3 r values"),
    (lambda: _scan_ensembles([1.0, 2.0, 1.5]), "ensemble at r = 1.5 given for r = 3.0"),
    (lambda: _scan_ensembles([1.0, 2.0]) + _scan_ensembles([3.0], n_traj=120), "share"),
    (lambda: _scan_ensembles([1.0, 2.0]) + _scan_ensembles([3.0], master_seed=SEED + 1),
     "share"),
    (lambda: _scan_ensembles([1.0, 2.0]) + _scan_ensembles([3.0], n_total=2.0e7), "share"),
], ids=["short", "wrong-r", "n_traj", "master_seed", "n_total"])
def test_scan_rejects_ensembles_that_do_not_match(ensembles, match, monkeypatch):
    # rejected before any feature or interval work
    def unreachable(*args, **kwargs):
        raise AssertionError("features computed for mismatched ensembles")

    monkeypatch.setattr(estimator, "feature_sets", unreachable)
    monkeypatch.setattr(estimator, "evaluate", unreachable)
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED)
    with pytest.raises(ValueError, match=match):
        scan_over_r([1.0, 2.0, 3.0], config, ensembles())


# --- estimator algebra -----------------------------------------------------------

def _synthetic_features(rng, n_traj, slope=5.0, sigma=2.0):
    """(B, C, S_b / g) rows (0, slope, 0) + sigma N(0, 1): at weight 1,
    M(phi) = sqrt(2) sigma / (slope cos phi) for n_total = 1."""
    return np.array([0.0, slope, 0.0]) + sigma * rng.normal(size=(n_traj, 3))


def test_m_invariant_under_signal_rescaling():
    rng = np.random.default_rng(3)
    phi = np.linspace(0.0, 1.0, 11)
    f = _synthetic_features(rng, 400, sigma=1.0)[np.newaxis]
    m1 = evaluate(f, phi, "minus", 1.0e7)[0]["m"]
    m2 = evaluate(7.3 * f, phi, "minus", 1.0e7)[0]["m"]
    assert np.all(np.abs(m2 - m1) <= 1e-10 * np.abs(m1))


def test_zero_derivative_is_flagged():
    phi = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(4)
    f = np.column_stack([np.zeros(50), np.zeros(50), rng.normal(size=50)])  # B = C = 0
    stats, lo, hi = evaluate(f[np.newaxis], phi, "minus", 1.0)  # 0 / 0 at weight 0
    assert stats["delta_phi"].shape == (1, 2, 5)
    assert np.all(np.isposinf(stats["delta_phi"]))
    # an infinite M has infinite edges
    assert np.array_equal(lo, stats["m"][:, 0]) and np.array_equal(hi, stats["m"][:, 0])


# --- SQL recovery and the undepleted benchmark ------------------------------------

def test_sql_recovery(coherent_ensemble):
    curve = sensitivity_curve(coherent_ensemble, [np.pi / 2],
                              HomodyneSpec(gain_g=100.0, correction_sign="off"))
    assert curve.correction_sign == "off"
    m = curve.m[0]
    rel_se = np.sqrt(0.5 / (coherent_ensemble.n_traj - 1))
    assert abs(m - 1.0) < 5 * rel_se


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_uncorrected_m_matches_undepleted_prediction(r):
    ens = build_ensembles(1.0e7, 0.0, [r], 4000, SEED)[0]
    m = sensitivity_curve(ens, [np.pi / 2],
                          HomodyneSpec(gain_g=100.0, correction_sign="off")).m[0]
    expected = predict(r, 1.0e7).m_plain
    rel_se = np.sqrt(0.5 / (ens.n_traj - 1))
    assert abs(m - expected) < 5 * rel_se * expected


# --- the correction lives in per-trajectory correlations ---------------------------

def test_shuffling_light_record_destroys_gain(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    phi = [np.pi / 2]
    features = fringe_features(working_point_ensemble, spec,
                               lo_noise_samples(working_point_ensemble))
    stats = evaluate(features[np.newaxis], phi, "auto", 1.0e7)[0]
    m_corr, m_off = stats["m"][0, :, 0]

    perm = np.random.default_rng(11).permutation(len(features))
    f_shuffled = features.copy()
    f_shuffled[:, 2] = features[perm, 2]
    m_shuffled = evaluate(f_shuffled[np.newaxis], phi, stats["correction_sign"][0],
                          1.0e7)[0]["m"][0, 0, 0]

    assert m_corr < 0.5 * m_off       # the correction genuinely helps
    assert m_shuffled > m_off         # ... but only through the correlations


def test_gain_saturation(working_point_ensemble):
    at_100 = sensitivity_curve(working_point_ensemble, [np.pi / 2], HomodyneSpec(gain_g=100.0))
    at_1000 = sensitivity_curve(working_point_ensemble, [np.pi / 2], HomodyneSpec(gain_g=1000.0))
    assert abs(at_1000.m[0] - at_100.m[0]) < (at_100.m_ci_hi[0] - at_100.m_ci_lo[0])


# --- intervals -----------------------------------------------------------------

def test_delta_interval_coverage_on_synthetic_truth():
    rng = np.random.default_rng(99)
    phi = np.linspace(0.0, 1.0, 11)
    mid = len(phi) // 2
    m_true = np.sqrt(2.0) * 2.0 / (5.0 * np.cos(phi[mid]))
    hits = 0
    for rep in range(100):
        f = _synthetic_features(rng, n_traj=500)
        _, (lo,), (hi,) = evaluate(f[np.newaxis], phi, "minus", 1.0)
        hits += int(lo[mid] <= m_true <= hi[mid])
    assert hits >= 90


def test_delta_interval_width_shrinks_with_sqrt_n():
    rng = np.random.default_rng(7)
    phi = np.linspace(0.0, 1.0, 11)
    mid = len(phi) // 2
    widths = {n: [] for n in (250, 500)}
    for rep in range(30):
        for n in widths:
            f = _synthetic_features(rng, n_traj=n)
            _, (lo,), (hi,) = evaluate(f[np.newaxis], phi, "minus", 1.0)
            widths[n].append(hi[mid] - lo[mid])
    ratio = np.median(widths[500]) / np.median(widths[250])
    assert 0.8 / np.sqrt(2.0) < ratio < 1.2 / np.sqrt(2.0)


COVERAGE_CASES = {"seeded r = 3": (1.0e4, [3.0]), "unseeded r = 4.5 and 5": (0.0, [4.5, 5.0])}


def interval_coverage(n_seed, r_values, seeds):
    """How often the delta interval and the oracle bootstrap of M(pi/2), from
    an ensemble of 1e3 trajectories at each master seed in seeds, cover
    M(pi/2) of one reference ensemble of 2e5: per r, the two hit counts and
    the median ratio of the widths (delta over bootstrap).  N = 1e7 and
    g = 100, and every r of a seed is built from one sample."""
    spec, phi = HomodyneSpec(gain_g=100.0), np.pi / 2
    reference = build_ensembles(1.0e7, n_seed, r_values, 200_000, 2**32)
    truth = [c.m[0] for c in estimator._curves(reference, [phi], spec)]
    hits, ratios = np.zeros((len(r_values), 2), dtype=int), []
    for seed in seeds:
        features = list(feature_sets(build_ensembles(1.0e7, n_seed, r_values, 1000, seed), spec))
        stats, lo, hi = evaluate(features, [phi], "auto", 1.0e7)
        for k, (f, sign) in enumerate(zip(features, stats["correction_sign"])):
            s = f @ [np.cos(phi), np.sin(phi), correction_weight(sign)]
            slope = f @ [-np.sin(phi), np.cos(phi), 0.0]
            b_lo, b_hi = bootstrap_interval(s[:, None], slope[:, None], 1.0e7, seed)[:, 0]
            hits[k] += [lo[k, 0] <= truth[k] <= hi[k, 0], b_lo <= truth[k] <= b_hi]
            ratios.append((hi[k, 0] - lo[k, 0]) / (b_hi - b_lo))
    widths = np.median(np.reshape(ratios, (-1, len(r_values))), axis=0)
    return {r: (*hits[k], widths[k]) for k, r in enumerate(r_values)}


@pytest.mark.parametrize("case", sorted(COVERAGE_CASES))
def test_delta_interval_covers_as_the_bootstrap_does(case):
    # on the same 100 seeds the delta interval covers no less often than the
    # resampled bootstrap, less one binomial sd of the bootstrap's count (3 hits
    # at 90 %), the spread of a count; over 300 seeds it covered more often in
    # every case
    seeds = range(100)
    for r, (delta, boot, _) in interval_coverage(*COVERAGE_CASES[case], seeds).items():
        p = boot / len(seeds)
        assert delta >= boot - np.sqrt(len(seeds) * p * (1.0 - p)), (r, delta, boot)


def test_delta_interval_flags_constant_signal():
    # a constant signal has zero fringe slope: M is undefined and the
    # interval edges come out +inf rather than NaN or silently masked
    phi = np.linspace(0.0, 1.0, 5)
    f = np.column_stack([np.zeros(60), np.zeros(60), np.full(60, 3.7)])  # B = C = 0
    _, (lo,), (hi,) = evaluate(f[np.newaxis], phi, "minus", 1.0)
    assert np.all(np.isposinf(lo))
    assert np.all(np.isposinf(hi))


def test_delta_interval_edges_keep_nan_from_nan_signals():
    # a NaN M makes NaN edges
    phi = np.linspace(0.0, 1.0, 3)
    f = _synthetic_features(np.random.default_rng(12), 200)
    f[7, 0] = np.nan
    _, lo, hi = evaluate(f[np.newaxis], phi, "minus", 1.0)
    assert np.all(np.isnan(lo)) and np.all(np.isnan(hi))


@pytest.mark.parametrize("w, u", [(0.7, -0.4), (-1.0, 2.5),
                                  (1.0, 0.0)])  # a zero weight: the column is not there
def test_a_weight_row_weights_every_column_after_b_and_c(w, u):
    """The set (B, C, S, X) at the weight row (w, u) is the set (B, C, w S + u X)
    at weight 1: the same mean, variance, slope, M and interval edges."""
    rng = np.random.default_rng(21)
    b, c, s, x = rng.normal(size=(4, 4000)) + np.array([[1.0], [4.0], [0.0], [0.5]])
    four = np.column_stack([b, c - 0.6 * s + 0.3 * x, s, x])  # C correlated with both records
    phi = np.linspace(0.2, 2.8, 7)

    def cells(features, row):
        # the sums in the basis of "minus", (1, 0 ...), then the statistics at row
        mean, cov, higher, _, first, n = estimator._set_sums(features, "minus")
        stats = estimator._statistics(mean[None], cov[None], np.array(higher)[None],
                                      np.full((1, 1, 1), n), phi, np.array([[first, row]]), 1e7)
        return {key: value[0, 1] for key, value in stats.items()}

    at_row = cells(four, [w, u])
    at_one = cells(np.column_stack([four[:, :2], w * s + u * x]), [1.0])
    assert at_row.keys() == at_one.keys()
    for key in at_one:
        np.testing.assert_allclose(at_row[key], at_one[key], rtol=1e-12, atol=0, err_msg=key)
    if u == 0.0:  # a named correction weights S_b / g alone: X changes no bit
        for correction in ("plus", "minus", "off", "auto"):
            with_x = evaluate([four], phi, correction, 1e7)
            without = evaluate([four[:, :3]], phi, correction, 1e7)
            assert with_x[0].keys() == without[0].keys()
            assert all(np.asarray(with_x[0][key]).tobytes() == np.asarray(without[0][key]).tobytes()
                       for key in without[0])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(with_x[1:], without[1:]))


@pytest.mark.parametrize("shape", [(50, 2), (50,), (2, 50, 3)])
def test_a_malformed_set_is_refused_by_its_shape(shape, monkeypatch):
    def unsummed(*args):
        raise AssertionError("a malformed set was summed")

    monkeypatch.setattr(estimator, "_monomial_sums", unsummed)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        evaluate([np.ones(shape)], [np.pi / 2], "auto", 1e7)


@pytest.mark.parametrize("n_traj", [1000, 10000])
def test_point_statistics_of_many_sets_equal_each_set_alone(n_traj):
    rng = np.random.default_rng(8)
    features = [_synthetic_features(rng, n_traj, slope=s) for s in (5.0, 2.0, 9.0)]
    phi = np.linspace(0.0, 1.0, 4)
    for correction in ("plus", "minus", "off",  # "off": the atomic record alone
                       "auto"):  # each set resolved from its own sums
        stats, _, _ = evaluate(iter(features), phi, correction, 1.0e7)
        assert all(stats[key].shape == (3, 2, 4) for key in CELLS)
        assert stats["mean_s_b_over_g"].shape == (3,) and len(stats["correction_sign"]) == 3
        for s, f in enumerate(features):  # each set against a run of that set alone
            alone, _, _ = evaluate([f], phi, correction, 1.0e7)
            assert stats.keys() == alone.keys()
            assert all(np.array_equal(stats[key][s], alone[key][0]) for key in stats)
    # each set is read at its own number of trajectories
    shorter = features[1][1:]
    both, _, _ = evaluate([features[0], shorter], phi, "minus", 1.0e7)
    alone, _, _ = evaluate([shorter], phi, "minus", 1.0e7)
    assert all(np.array_equal(both[key][1], alone[key][0]) for key in CELLS)

    def unread():
        raise AssertionError("a set drawn for an unknown correction")
        yield

    with pytest.raises(ValueError, match="got 'bogus'"):  # named, before any set is drawn
        evaluate(unread(), phi, "bogus", 1.0e7)


@pytest.mark.parametrize("n_traj", [1000, 10000])
def test_delta_interval_of_many_sets_equals_each_set_alone(n_traj):
    rng = np.random.default_rng(8)
    features = [_synthetic_features(rng, n_traj, slope=s) for s in (5.0, 2.0, 9.0)]
    phi = np.linspace(0.0, 1.0, 4)
    for correction in ("plus", "minus", "off"):
        _, lo, hi = evaluate(np.stack(features), phi, correction, 1.0e7)  # a (sets, n, 3) array
        assert lo.shape == hi.shape == (3, 4)
        for s, f in enumerate(features):  # each set against a run of that set alone
            _, lo_s, hi_s = evaluate([f], phi, correction, 1.0e7)
            assert np.array_equal(lo[s], lo_s[0]) and np.array_equal(hi[s], hi_s[0])
    # an "auto" set is resolved once, from the whole sample, and its interval is
    # taken at the weight of the sign it resolved to
    stats, lo_a, hi_a = evaluate(features, phi, "auto", 1.0e7)
    for s, (f, sign) in enumerate(zip(features, stats["correction_sign"])):
        _, lo, hi = evaluate([f], phi, sign, 1.0e7)
        assert np.array_equal(lo_a[s], lo[0]) and np.array_equal(hi_a[s], hi[0])


def test_delta_interval_deterministic(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    grid = np.linspace(0.0, np.pi, 9)
    features = fringe_features(working_point_ensemble, spec,
                               lo_noise_samples(working_point_ensemble))
    a = evaluate(features[np.newaxis], grid, "auto", 1.0e7)
    b = evaluate(features[np.newaxis], grid, "auto", 1.0e7)
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def _traced_peak(call) -> int:
    """Peak bytes that numpy and Python allocate during call(), above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sets, n", [(1, 200_000), (13, 100_000)])
def test_estimator_transient_memory_is_five_trajectory_rows(sets, n):
    """evaluate holds five trajectory-sized rows, whatever the number of sets.

    They are a set's three centred features and the two scratch rows in
    which its monomials are formed, dropped with the set.  The measured
    tracemalloc peak of evaluate (201 phases) is 5.00 rows of n doubles at
    both sizes; with the (sets, 9, n) term block of the whole stack it was
    10.0 rows at one set and 118 at 13.
    """
    rng = np.random.default_rng(5)
    features = np.stack([_synthetic_features(rng, n) for _ in range(sets)])
    phi = np.linspace(0.0, 2 * np.pi, 201)
    peak = _traced_peak(lambda: evaluate(features, phi, "minus", 1.0e7))
    assert peak < 5.5 * n * features.itemsize


# --- full curve -----------------------------------------------------------------

def test_sensitivity_curve_fields(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 41)
    curve = sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(gain_g=100.0))
    assert curve.traj_count == working_point_ensemble.n_traj
    assert curve.correction_sign in ("plus", "minus")
    assert np.all(curve.var_s >= 0)
    finite = np.isfinite(curve.m)
    assert np.allclose(
        curve.m[finite], curve.delta_phi[finite] * np.sqrt(working_point_ensemble.n_total),
        rtol=1e-12
    )
    # the light record does not depend on phi, and its mean is that of the features' S_b
    assert np.all(curve.mean_s_b == curve.mean_s_b[0])
    features = fringe_features(working_point_ensemble, HomodyneSpec(gain_g=100.0),
                               lo_noise_samples(working_point_ensemble))
    assert curve.mean_s_b[0] == pytest.approx(100.0 * features[:, 2].mean(), rel=1e-12)
    min_m, argmin, k = curve.min_m()
    assert (curve.m[k], curve.phi[k]) == (min_m, argmin)
    assert min_m < 0.2
    assert abs(argmin - np.pi / 2) < 0.4 or abs(argmin - 3 * np.pi / 2) < 0.4
    # worst sensitivity sits at the fringe extrema where the slope vanishes
    k_pi = int(np.argmin(np.abs(grid - np.pi)))
    assert curve.m[k_pi] > 10 * min_m or np.isinf(curve.m[k_pi])


def test_sensitivity_curve_requires_enough_trajectories():
    ens = build_ensembles(1.0e6, 0.0, [0.5], 50, SEED)[0]
    with pytest.raises(ValueError, match="at least 100 trajectories"):
        sensitivity_curve(ens, np.linspace(0, 1, 5), HomodyneSpec())
    # every M goes through the same check
    with pytest.raises(ValueError, match="at least 100 trajectories"):
        scan_over_r([0.5], RunConfig(n_total=1.0e6, n_seed=0.0), [ens])


# --- r scan ---------------------------------------------------------------------

def test_analytic_scan_is_exact():
    # the closed forms ride along on every row, exactly
    config = RunConfig(mode="analytic", correction="auto_sign")
    result = scan_over_r([0.5, 1.0, 2.0, 3.0], config)
    for row in result.rows:
        assert row.m_recycled == pytest.approx(np.sqrt(2.0) * np.exp(-row.r), rel=1e-14)
        assert row.m_plain == pytest.approx(np.sqrt(np.cosh(2 * row.r)), rel=1e-14)
        assert row.m_ci_lo < row.m < row.m_ci_hi  # the sampled M has a real interval
    ms = [row.m_recycled for row in result.rows]
    assert all(a > b for a, b in zip(ms, ms[1:]))  # the closed form has no interior minimum
    # the sampled map keeps the pump noise that sets the optimum
    assert (result.rows[result.star].r, result.at_boundary) == (2.0, False)


def test_analytic_scan_without_correction():
    config = RunConfig(mode="analytic", correction="off")
    result = scan_over_r([0.0, 1.0, 2.0], config)
    for row in result.rows:
        assert row.m_plain == pytest.approx(np.sqrt(np.cosh(2 * row.r)), rel=1e-14)
        assert row.m_ci_lo <= row.m_plain <= row.m_ci_hi
        assert row.correction_sign == "off"
    assert result.rows[result.star].r == 0.0


@pytest.mark.parametrize("mode", dynamics.EVOLUTION_MODES)
def test_scan_rows_equal_every_verb_in_every_mode(mode):
    # one model per mode: an r-scan row is the mode's ensemble read at pi/2 alone,
    # and the pi/2 entry of a phase grid up to the rounding of one phase against several
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=200, master_seed=SEED, mode=mode)
    r_values = [1.0, 2.5]
    result = scan_over_r(r_values, config)
    spec = HomodyneSpec(gain_g=config.gain_g)
    grid = np.linspace(config.phi_start, config.phi_stop, 5)
    assert grid[1] == np.pi / 2
    for r, row in zip(r_values, result.rows):
        ens = build_ensembles(1.0e7, 1.0e4, [r], 200, SEED, mode=mode)[0]
        alone = sensitivity_curve(ens, [np.pi / 2], spec)
        assert (row.m, row.m_ci_lo, row.m_ci_hi, row.correction_sign) == (
            alone.m[0], alone.m_ci_lo[0], alone.m_ci_hi[0], alone.correction_sign)
        curve = sensitivity_curve(ens, grid, spec)
        got = (curve.m[1], curve.m_ci_lo[1], curve.m_ci_hi[1])
        assert got == pytest.approx((row.m, row.m_ci_lo, row.m_ci_hi), rel=1e-12)
        assert curve.correction_sign == row.correction_sign


def test_scan_does_not_depend_on_the_order_of_r_values():
    # the rows at each r, and the optimum with its boundary flag, are the same
    # in any order; the boundary is the smallest or largest r, not a list end
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=400, master_seed=12345)
    results = [scan_over_r(order, config) for order in ([1.0, 2.0, 3.0], [1.0, 3.0, 2.0],
                                                          [3.0, 1.0, 2.0])]
    first = results[0]
    assert (first.rows[first.star].r, first.at_boundary) == (3.0, True)
    for result in results:
        assert result.rows[result.star] == first.rows[first.star]
        assert result.at_boundary == first.at_boundary
        by_r = {row.r: row for row in result.rows}
        assert by_r == {row.r: row for row in first.rows}
    # with one distinct r there is no boundary to sit on
    result = scan_over_r([2.0, 2.0], config)
    assert (result.rows[result.star].r, result.at_boundary) == (2.0, False)


def test_scan_rejects_bad_r_values():
    config = RunConfig(mode="analytic")
    with pytest.raises(ValueError):
        scan_over_r([], config)
    with pytest.raises(ValueError):
        scan_over_r([-1.0], config)


def test_scan_at_r_zero_recovers_sql():
    config = RunConfig(n_total=1.0e7, n_seed=0.0, trajectories=400,
                       master_seed=SEED, correction="off")
    result = scan_over_r([0.0], config)
    row = result.rows[0]
    assert row.m_ci_lo <= 1.0 <= row.m_ci_hi
    assert abs(row.m - 1.0) < 0.2


def test_tw_scan_reports_transfer_and_optimum():
    config = RunConfig(
        n_total=1.0e7, n_seed=0.0, trajectories=300, master_seed=SEED,
    )
    result = scan_over_r([4.0, 4.5, 5.0], config)
    assert result.rows[result.star].m < 0.1
    row = result.rows[1]
    assert row.transferred == pytest.approx(np.sinh(4.5) ** 2, rel=0.25)
