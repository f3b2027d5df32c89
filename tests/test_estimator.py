"""Sensitivity curves, bootstrap intervals and the r-scan."""

import math
import tracemalloc

import numpy as np
import pytest

from atomlight.analytics import predict
from dataclasses import replace

import atomlight.dynamics as dynamics
import atomlight.estimator as estimator
import atomlight.interferometer as interferometer
from atomlight.config import ConfigError, RunConfig
from atomlight.dynamics import build_ensembles
from atomlight.estimator import (
    evaluate,
    fringe_features,
    m_at_phi,
    scan_over_r,
    sensitivity_curve,
)
from atomlight.interferometer import (
    HomodyneSpec,
    correction_weight,
    lo_noise_samples,
    measure_signals,
)
from atomlight.phasespace import STREAMS

SEED = 555


# --- grid ----------------------------------------------------------------------

def test_phi_grid_from_range(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 201)
    curve = sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(), resamples=100)
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
    # and the estimator takes a non-empty 1-D grid, refused before any draw
    def no_draw(ensemble):
        raise AssertionError("LO noise drawn for a bad grid")

    monkeypatch.setattr(estimator, "lo_noise_samples", no_draw)
    for grid in ([], [[0.1, 0.2]], 0.1):
        with pytest.raises(ValueError, match="non-empty 1-D grid"):
            sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(), resamples=100)


# --- common random numbers -------------------------------------------------------

def test_shared_phases_are_bit_identical(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    f1, sb1, sign = fringe_features(working_point_ensemble, spec)
    f2, sb2, _ = fringe_features(working_point_ensemble, spec)
    assert np.array_equal(f1, f2)  # same trajectories, same LO draw
    assert np.array_equal(sb1, sb2)
    wide = [np.pi / 2 - 0.2, np.pi / 2, np.pi / 2 + 0.2]
    narrow = [np.pi / 2 - 0.1, np.pi / 2, np.pi / 2 + 0.1]
    w = correction_weight(sign)
    a, _, _ = evaluate(f1[np.newaxis], wide, [[w]], 1.0e7)
    b, _, _ = evaluate(f2[np.newaxis], narrow, [[w]], 1.0e7)
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
    curve = sensitivity_curve(ensemble, grid, spec, resamples=200)
    m, (lo, hi), sign = m_at_phi(ensemble, spec, np.pi / 2, resamples=200)
    assert sign == curve.correction_sign
    assert np.array_equal(m, curve.m[64])
    assert np.array_equal(lo, curve.m_ci_lo[64]) and np.array_equal(hi, curve.m_ci_hi[64])
    # and one weight's statistics do not depend on the weights beside it
    features, _, _ = fringe_features(ensemble, spec)
    w = correction_weight(sign)
    both, _, _ = evaluate(features[np.newaxis], grid, [[w, 0.0]], 1.0e7)
    for column, weight in enumerate((w, 0.0)):
        single, _, _ = evaluate(features[np.newaxis], grid, [[weight]], 1.0e7)
        assert both.keys() == single.keys()
        assert all(np.array_equal(both[key][:, column], single[key][:, 0]) for key in both)


def test_features_do_not_depend_on_the_correction(working_point_ensemble):
    # the sign is a weight in the design, so every setting gives the same features
    lo_noise = lo_noise_samples(working_point_ensemble)
    spec = HomodyneSpec(gain_g=100.0)
    auto, s_b, sign = fringe_features(working_point_ensemble, spec, lo_noise)
    assert sign in ("plus", "minus")
    assert np.array_equal(auto[:, 2], s_b / spec.gain_g)
    for setting in ("plus", "minus", "off"):
        features, light, resolved = fringe_features(
            working_point_ensemble, replace(spec, correction_sign=setting), lo_noise)
        assert resolved == setting
        assert features.tobytes() == auto.tobytes() and light.tobytes() == s_b.tobytes()


@pytest.mark.parametrize("sign", ["plus", "minus", "off"])
def test_weighted_light_feature_is_the_combined_signal(working_point_ensemble, sign):
    # S = S_a + w S_b / g: the light record's part is the weighted feature, bit for bit,
    # and B cos(phi) + C sin(phi) is the interferometer's S_a
    spec = HomodyneSpec(gain_g=100.0, correction_sign=sign)
    lo_noise = lo_noise_samples(working_point_ensemble)
    features, _, _ = fringe_features(working_point_ensemble, spec, lo_noise)
    b, c, s_b_over_g = features.T
    w = correction_weight(sign)
    for phi in (0.3, np.pi / 2, 2.0, 3 * np.pi / 2):
        sample = measure_signals(working_point_ensemble, phi, spec, lo_noise)
        assert (sample.s_a + w * s_b_over_g).tobytes() == sample.s_combined.tobytes()
        s_a = b * np.cos(phi) + c * np.sin(phi)
        assert np.max(np.abs(s_a - sample.s_a)) <= 1e-9 * np.max(np.abs(sample.s_a))


def _direct_signals(ensemble, grid, spec, sign):
    """Reference (trajectory x phi) matrices of S and S_a, one phase at a time."""
    spec = replace(spec, correction_sign=sign)
    lo_noise = lo_noise_samples(ensemble)
    samples = [measure_signals(ensemble, phi, spec, lo_noise) for phi in grid]
    return (np.column_stack([x.s_combined for x in samples]),
            np.column_stack([x.s_a for x in samples]))


def _direct_slope(ensemble, grid, spec, sign):
    """Reference per-trajectory slopes dS/dphi: for one harmonic (and a light
    record that does not depend on phi) they are S_a a quarter fringe on."""
    return _direct_signals(ensemble, grid + np.pi / 2, spec, sign)[1]


def _direct_m(s, slope, n_total):
    """Reference M per phase from the sample moments of a signal matrix and
    its per-trajectory slope matrix."""
    ds = slope.mean(axis=0)
    with np.errstate(divide="ignore"):
        return np.where(ds != 0.0, np.sqrt(s.var(axis=0, ddof=1)) / np.abs(ds), np.inf) \
            * np.sqrt(n_total)


def test_features_match_direct_signals(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 201)
    spec = HomodyneSpec(gain_g=100.0)
    curve = sensitivity_curve(working_point_ensemble, grid, spec, resamples=100)
    s, s_a = _direct_signals(working_point_ensemble, grid, spec, curve.correction_sign)
    for mean, var, ref in ((curve.mean_s, curve.var_s, s), (curve.mean_s_a, curve.var_s_a, s_a)):
        ref_mean = ref.mean(axis=0)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-9 * np.max(np.abs(ref_mean))
        assert np.allclose(var, ref.var(axis=0, ddof=1), rtol=1e-9, atol=0.0)


def test_bootstrap_matches_resampled_reference(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 41)
    spec = HomodyneSpec(gain_g=100.0)
    features, _, sign = fringe_features(working_point_ensemble, spec)
    s, _ = _direct_signals(working_point_ensemble, grid, spec, sign)
    slope = _direct_slope(working_point_ensemble, grid, spec, sign)
    n = s.shape[0]
    _, (lo,), (hi,) = evaluate(features[np.newaxis], grid, [correction_weight(sign)], 1.0e7,
                               resamples=100, master_seed=9)
    rng = np.random.Generator(np.random.Philox(
        key=9, counter=[0, 0, 0, STREAMS["bootstrap"]]))
    resamples = [rng.integers(0, n, size=n) for _ in range(100)]
    ms = np.array([_direct_m(s[idx], slope[idx], 1.0e7) for idx in resamples])
    assert np.allclose(lo, np.percentile(ms, 2.5, axis=0), rtol=1e-8, atol=0.0)
    assert np.allclose(hi, np.percentile(ms, 97.5, axis=0), rtol=1e-8, atol=0.0)


def test_percentile_is_numpys_bit_for_bit():
    rng = np.random.default_rng(SEED)
    with np.errstate(invalid="ignore"):  # inf - inf, as in np.percentile
        for case in range(2000):
            n, columns = int(rng.integers(100, 1000)), int(rng.integers(1, 5))
            values = rng.standard_normal((n, columns)) * 10.0 ** rng.integers(-3, 4)
            for column in range(columns):  # some columns get inf, -inf or NaN entries
                hit = rng.integers(0, n, int(rng.integers(0, 4)))
                values[hit, column] = rng.choice([np.inf, -np.inf, np.nan, 0.0], hit.size)
            percent = [2.5, 97.5] if case % 2 else [0.0, *rng.uniform(0, 100, 3), 100.0]
            want = np.percentile(values, percent, axis=0)
            assert estimator._percentile(values, percent).tobytes() == want.tobytes(), case


def test_slope_is_exact(working_point_ensemble):
    # central differences miss sin(h)/h - 1 inside a grid and more at its ends
    grid = np.linspace(0.0, 2 * np.pi, 201)
    spec = HomodyneSpec(gain_g=100.0)
    curve = sensitivity_curve(working_point_ensemble, grid, spec, resamples=100)
    ref = _direct_slope(working_point_ensemble, grid, spec, curve.correction_sign).mean(axis=0)
    assert np.all(np.abs(curve.ds_dphi - ref) <= 1e-9 * np.abs(ref))


def test_one_lo_draw_per_ensemble(working_point_ensemble, monkeypatch):
    calls = []

    def counting(ensemble):
        calls.append(ensemble)
        return lo_noise_samples(ensemble)

    monkeypatch.setattr(estimator, "lo_noise_samples", counting)
    monkeypatch.setattr(interferometer, "lo_noise_samples", counting)
    grid = np.linspace(0.0, 2 * np.pi, 21)
    sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(gain_g=100.0), resamples=100)
    assert len(calls) == 1
    m_at_phi(working_point_ensemble, HomodyneSpec(gain_g=100.0), resamples=100)
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
    counted(estimator, "lo_noise_samples")
    counted(estimator, "evaluate")
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED,
                       steps_per_unit_r=50, bootstrap_resamples=100)
    r_values = [2.0, 1.0, 1.5, 1.0]
    result = scan_over_r(r_values, config)
    assert counts == {"sample_initial_ensemble": 1, "evolve_closed_form": 1,
                      "lo_noise_samples": 1, "evaluate": 1}
    # the shared draw and the build of every r give what a run at one r gives
    ens = build_ensembles(1.0e7, 1.0e4, [1.5], 100, SEED, steps_per_unit_r=50)[0]
    m, (lo, hi), sign = m_at_phi(ens, HomodyneSpec(gain_g=100.0), resamples=100)
    row = result.rows[2]
    assert (row.m, row.m_ci_lo, row.m_ci_hi, row.correction_sign) == (m, lo, hi, sign)
    assert result.rows[1] == result.rows[3]
    # the one evaluation gives every row what m_at_phi and sensitivity_curve
    # give its ensemble alone
    for r, row in zip(r_values, result.rows):
        ens = build_ensembles(1.0e7, 1.0e4, [r], 100, SEED, steps_per_unit_r=50)[0]
        m, (lo, hi), sign = m_at_phi(ens, HomodyneSpec(gain_g=100.0), resamples=100)
        assert (row.m, row.m_ci_lo, row.m_ci_hi, row.correction_sign) == (m, lo, hi, sign)
        curve = sensitivity_curve(ens, [np.pi / 2], HomodyneSpec(gain_g=100.0), 100)
        assert (row.m, row.m_ci_lo, row.m_ci_hi, row.correction_sign) == (
            curve.m[0], curve.m_ci_lo[0], curve.m_ci_hi[0], curve.correction_sign)


def test_every_set_weight_and_phase_is_one_evaluation(working_point_ensemble, monkeypatch):
    # _curves forms one term block of the whole stack for the point statistics
    # and the bootstrap together, whatever the number of ensembles and phases
    calls = []  # the number of sets in each call's stack

    def counting(features):
        calls.append(len(features))
        return moments(features)

    moments = estimator._moments
    monkeypatch.setattr(estimator, "_moments", counting)
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED,
                       steps_per_unit_r=50, bootstrap_resamples=100)
    result = scan_over_r([1.0 + 0.25 * k for k in range(13)], config)
    assert len(result.rows) == 13 and calls == [13]
    grid = np.linspace(0.0, 2 * np.pi, 201)
    sensitivity_curve(working_point_ensemble, grid, HomodyneSpec(gain_g=100.0), resamples=100)
    assert calls == [13, 1]
    m_at_phi(working_point_ensemble, HomodyneSpec(gain_g=100.0))  # no bootstrap
    assert calls == [13, 1, 1]


def _scan_ensembles(r_values, n_traj=100, master_seed=SEED, n_total=1.0e7):
    return build_ensembles(n_total, 1.0e4, r_values, n_traj, master_seed, steps_per_unit_r=50)


@pytest.mark.parametrize("ensembles, match", [
    (lambda: _scan_ensembles([1.0, 2.0]), "2 ensembles for 3 r values"),
    (lambda: _scan_ensembles([1.0, 2.0, 1.5]), "ensemble at r = 1.5 given for r = 3.0"),
    (lambda: _scan_ensembles([1.0, 2.0]) + _scan_ensembles([3.0], n_traj=120), "share"),
    (lambda: _scan_ensembles([1.0, 2.0]) + _scan_ensembles([3.0], master_seed=SEED + 1),
     "share"),
    (lambda: _scan_ensembles([1.0, 2.0]) + _scan_ensembles([3.0], n_total=2.0e7), "share"),
], ids=["short", "wrong-r", "n_traj", "master_seed", "n_total"])
def test_scan_rejects_ensembles_that_do_not_match(ensembles, match, monkeypatch):
    # rejected before any feature or bootstrap work
    def unreachable(*args, **kwargs):
        raise AssertionError("features computed for mismatched ensembles")

    monkeypatch.setattr(estimator, "fringe_features", unreachable)
    monkeypatch.setattr(estimator, "evaluate", unreachable)
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=100, master_seed=SEED,
                       steps_per_unit_r=50, bootstrap_resamples=100)
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
    m1 = evaluate(f, phi, [[1.0]], 1.0e7)[0]["m"]
    m2 = evaluate(7.3 * f, phi, [[1.0]], 1.0e7)[0]["m"]
    assert np.all(np.abs(m2 - m1) <= 1e-10 * np.abs(m1))


def test_zero_derivative_is_flagged():
    phi = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(4)
    f = np.column_stack([np.zeros(50), np.zeros(50), rng.normal(size=50)])  # B = C = 0
    stats, lo, hi = evaluate(f[np.newaxis], phi, [[1.0, 0.0]], 1.0)  # 0 / 0 at weight 0
    assert stats["delta_phi"].shape == (1, 2, 5)
    assert np.all(np.isposinf(stats["delta_phi"]))
    # without resamples the edges are M at the first weight
    assert np.array_equal(lo, stats["m"][:, 0]) and np.array_equal(hi, stats["m"][:, 0])


# --- SQL recovery and the undepleted benchmark ------------------------------------

def test_sql_recovery(coherent_ensemble):
    m, _, sign = m_at_phi(coherent_ensemble, HomodyneSpec(gain_g=100.0, correction_sign="off"))
    assert sign == "off"
    rel_se = np.sqrt(0.5 / (coherent_ensemble.n_traj - 1))
    assert abs(m - 1.0) < 5 * rel_se


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_uncorrected_m_matches_undepleted_prediction(r):
    ens = build_ensembles(1.0e7, 0.0, [r], 4000, SEED)[0]
    m, _, _ = m_at_phi(ens, HomodyneSpec(gain_g=100.0, correction_sign="off"))
    expected = predict(r, 1.0e7).m_plain
    rel_se = np.sqrt(0.5 / (ens.n_traj - 1))
    assert abs(m - expected) < 5 * rel_se * expected


# --- the correction lives in per-trajectory correlations ---------------------------

def test_shuffling_light_record_destroys_gain(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    phi = [np.pi / 2]
    features, _, sign = fringe_features(working_point_ensemble, spec)
    w = correction_weight(sign)
    m_corr, m_off = evaluate(features[np.newaxis], phi, [[w, 0.0]], 1.0e7)[0]["m"][0, :, 0]

    perm = np.random.default_rng(11).permutation(len(features))
    f_shuffled = features.copy()
    f_shuffled[:, 2] = features[perm, 2]
    m_shuffled = evaluate(f_shuffled[np.newaxis], phi, [[w]], 1.0e7)[0]["m"][0, 0, 0]

    assert m_corr < 0.5 * m_off       # the correction genuinely helps
    assert m_shuffled > m_off         # ... but only through the correlations


def test_gain_saturation(working_point_ensemble):
    m100, (lo, hi), _ = m_at_phi(
        working_point_ensemble, HomodyneSpec(gain_g=100.0), resamples=200
    )
    m1000, _, _ = m_at_phi(working_point_ensemble, HomodyneSpec(gain_g=1000.0))
    assert abs(m1000 - m100) < (hi - lo)


# --- bootstrap -----------------------------------------------------------------

def test_bootstrap_coverage_on_synthetic_truth():
    rng = np.random.default_rng(99)
    phi = np.linspace(0.0, 1.0, 11)
    mid = len(phi) // 2
    m_true = np.sqrt(2.0) * 2.0 / (5.0 * np.cos(phi[mid]))
    hits = 0
    for rep in range(100):
        f = _synthetic_features(rng, n_traj=500)
        _, (lo,), (hi,) = evaluate(f[np.newaxis], phi, [1.0], 1.0, resamples=200,
                                   master_seed=rep)
        hits += int(lo[mid] <= m_true <= hi[mid])
    assert hits >= 90


def test_bootstrap_width_shrinks_with_sqrt_n():
    rng = np.random.default_rng(7)
    phi = np.linspace(0.0, 1.0, 11)
    mid = len(phi) // 2
    widths = {n: [] for n in (250, 500)}
    for rep in range(30):
        for n in widths:
            f = _synthetic_features(rng, n_traj=n)
            _, (lo,), (hi,) = evaluate(f[np.newaxis], phi, [1.0], 1.0, resamples=200,
                                       master_seed=1000 + rep)
            widths[n].append(hi[mid] - lo[mid])
    ratio = np.median(widths[500]) / np.median(widths[250])
    assert 0.8 / np.sqrt(2.0) < ratio < 1.2 / np.sqrt(2.0)


def test_bootstrap_rejects_too_few_resamples():
    phi = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        evaluate(np.zeros((1, 10, 3)), phi, [1.0], 1.0, resamples=50)


def test_bootstrap_flags_constant_signal():
    # a constant signal has zero fringe slope: M is undefined and the
    # interval edges come out +inf rather than NaN or silently masked
    phi = np.linspace(0.0, 1.0, 5)
    f = np.column_stack([np.zeros(60), np.zeros(60), np.full(60, 3.7)])  # B = C = 0
    _, (lo,), (hi,) = evaluate(f[np.newaxis], phi, [1.0], 1.0, resamples=100, master_seed=1)
    assert np.all(np.isposinf(lo))
    assert np.all(np.isposinf(hi))


def test_bootstrap_edges_keep_nan_from_nan_signals():
    # only a NaN M makes a NaN edge; the inf - inf of the percentile does not
    phi = np.linspace(0.0, 1.0, 3)
    f = _synthetic_features(np.random.default_rng(12), 200)
    f[7, 0] = np.nan
    _, lo, hi = evaluate(f[np.newaxis], phi, [1.0], 1.0, resamples=100, master_seed=2)
    assert np.all(np.isnan(lo)) and np.all(np.isnan(hi))


@pytest.mark.parametrize("n_traj", [1000, 10000])
def test_resample_sums_match_exact_sums_of_gathered_terms(n_traj):
    rng = np.random.default_rng(21)
    terms = rng.normal(size=(5, n_traj)) * np.array([[1.0], [1e-3], [1e3], [1.0], [1.0]])
    terms[3] -= terms[3].mean()  # centred: the sums cancel
    terms[4] = terms[3] ** 2
    sums = estimator._resample_sums(terms, 100, master_seed=3)
    draws = np.random.Generator(np.random.Philox(
        key=3, counter=[0, 0, 0, STREAMS["bootstrap"]]))
    for row in sums:
        idx = draws.integers(0, n_traj, size=n_traj)
        ref = np.array([math.fsum(t) for t in terms[:, idx]])
        assert np.all(np.abs(row - ref) <= 1e-13 * np.abs(terms[:, idx]).sum(axis=1))


@pytest.mark.parametrize("n_traj", [1000, 10000])
def test_stacked_point_statistics_equal_each_set_alone(n_traj):
    rng = np.random.default_rng(8)
    features = np.stack([_synthetic_features(rng, n_traj, slope=s) for s in (5.0, 2.0, 9.0)])
    phi = np.linspace(0.0, 1.0, 4)
    for weights in ([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],  # a list per set
                    [[0.0]] * 3):  # the atomic record alone on every set
        stats, _, _ = evaluate(features, phi, weights, 1.0e7)
        assert all(x.shape == (3, len(weights[0]), 4) for x in stats.values())
        for s in range(len(features)):  # each set against a stack of that set alone
            alone, _, _ = evaluate(features[s:s + 1], phi, weights[s:s + 1], 1.0e7)
            assert stats.keys() == alone.keys()
            assert all(np.array_equal(stats[key][s], alone[key][0]) for key in stats)
    with pytest.raises(ValueError, match="2 weight lists for 3 sets"):  # a list for every set
        evaluate(features, phi, [[1.0], [1.0]], 1.0e7)


@pytest.mark.parametrize("n_traj", [1000, 10000])
def test_stacked_bootstrap_equals_each_set_alone(n_traj):
    rng = np.random.default_rng(8)
    features = np.stack([_synthetic_features(rng, n_traj, slope=s) for s in (5.0, 2.0, 9.0)])
    phi = np.linspace(0.0, 1.0, 4)
    weights = [-1.0, 1.0, 0.0]  # one per set
    _, lo, hi = evaluate(features, phi, weights, 1.0e7, resamples=100, master_seed=4)
    assert lo.shape == hi.shape == (3, 4)
    for s in range(len(features)):  # each set against a stack of that set alone
        _, lo_s, hi_s = evaluate(features[s:s + 1], phi, weights[s:s + 1], 1.0e7,
                                 resamples=100, master_seed=4)
        assert np.array_equal(lo[s], lo_s[0]) and np.array_equal(hi[s], hi_s[0])
    # the atomic record alone (weight 0 on every set) too
    _, lo, hi = evaluate(features, phi, [0.0] * 3, 1.0e7, resamples=100, master_seed=4)
    _, lo_s, hi_s = evaluate(features[1:2], phi, [0.0], 1.0e7, resamples=100, master_seed=4)
    assert np.array_equal(lo[1], lo_s[0]) and np.array_equal(hi[1], hi_s[0])
    # the interval is that of each set's first weight, whatever weights follow it
    _, lo_w, hi_w = evaluate(features, phi, [[w, 0.0] for w in weights], 1.0e7, resamples=100,
                             master_seed=4)
    _, lo, hi = evaluate(features, phi, weights, 1.0e7, resamples=100, master_seed=4)
    assert np.array_equal(lo_w, lo) and np.array_equal(hi_w, hi)
    with pytest.raises(ValueError, match="2 weight lists for 3 sets"):  # a weight for every set
        evaluate(features, phi, [1.0, 1.0], 1.0e7, resamples=100, master_seed=4)


def test_bootstrap_deterministic(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    grid = np.linspace(0.0, np.pi, 9)
    features, _, sign = fringe_features(working_point_ensemble, spec)
    w = [correction_weight(sign)]
    a = evaluate(features[np.newaxis], grid, w, 1.0e7, resamples=100, master_seed=5)
    b = evaluate(features[np.newaxis], grid, w, 1.0e7, resamples=100, master_seed=5)
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


@pytest.mark.parametrize("phases", [1, 201])
@pytest.mark.parametrize("resamples", [100, 257])  # 257 is no multiple of a block
@pytest.mark.parametrize("k", [2, 3])  # 2: the atomic record (weight 0); 3: with the light
@pytest.mark.parametrize("sets", [1, 3])
def test_resample_blocks_change_nothing(sets, k, resamples, phases, monkeypatch):
    rng = np.random.default_rng(17)
    features = np.stack([_synthetic_features(rng, 300, slope=s) for s in (5.0, 2.0, 9.0)])
    # C = 0: the first set's slope vanishes at phi = 0, where every resample's M
    # is inf and the percentile edges are +inf
    features[0, :, 1] = 0.0
    features = features[:sets]
    weights = [{2: 0.0, 3: 1.0}[k]] * sets
    phi = np.linspace(0.0, np.pi, phases)
    edges = {}
    for block in (1, 7, resamples + 1):  # resamples per evaluation of the statistics
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "RESAMPLE_BLOCK_CELLS", block * phases)
            edges[block] = evaluate(features, phi, weights, 1.0e7, resamples=resamples,
                                    master_seed=6)[1:]
    whole_lo, whole_hi = edges[resamples + 1]
    assert np.isposinf(whole_lo[0, 0]) and np.isposinf(whole_hi[0, 0])
    assert np.all(np.isfinite(whole_lo[1:])) and np.all(np.isfinite(whole_hi[1:]))
    for lo, hi in edges.values():
        assert lo.tobytes() == whole_lo.tobytes() and hi.tobytes() == whole_hi.tobytes()


def _traced_peak(call) -> int:
    """Peak bytes that numpy and Python allocate during call(), above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_estimator_transient_memory_is_one_term_block():
    """The 9 term rows of a (B, C, S_b / g) record are the estimator's one large array.

    On a (1, 2e5, 3) stack the measured tracemalloc peaks of evaluate are
    1.34 block sizes with resamples (the block plus the draw, bincount and
    float counts of one resample) and 1.00 without.  Before the rows were
    written in place both were 2.67: a centred copy and two gathered (n, 6)
    copies sat beside the block.
    """
    n = 200_000
    features = _synthetic_features(np.random.default_rng(5), n)[np.newaxis]
    phi = np.linspace(0.0, 2 * np.pi, 201)
    block = 9 * n * features.itemsize
    boot = _traced_peak(lambda: evaluate(features, phi, [[1.0, 0.0]], 1.0e7, resamples=100,
                                         master_seed=2))
    point = _traced_peak(lambda: evaluate(features, phi, [[1.0, 0.0]], 1.0e7))
    assert boot < 1.45 * block
    assert point < 1.1 * block


# --- full curve -----------------------------------------------------------------

def test_sensitivity_curve_fields(working_point_ensemble):
    grid = np.linspace(0.0, 2 * np.pi, 41)
    curve = sensitivity_curve(
        working_point_ensemble, grid, HomodyneSpec(gain_g=100.0), resamples=100
    )
    assert curve.traj_count == working_point_ensemble.n_traj
    assert curve.correction_sign in ("plus", "minus")
    assert np.all(curve.var_s >= 0)
    finite = np.isfinite(curve.m)
    assert np.allclose(
        curve.m[finite], curve.delta_phi[finite] * np.sqrt(curve.n_total), rtol=1e-12
    )
    # the light record does not depend on phi
    assert np.all(curve.mean_s_b == curve.mean_s_b[0])
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
        m_at_phi(ens, HomodyneSpec())
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
    # one model per mode: an r-scan row is m_at_phi on the mode's ensemble, and
    # the pi/2 entry of a phase grid up to the rounding of one phase against several
    config = RunConfig(n_total=1.0e7, n_seed=1.0e4, trajectories=200, master_seed=SEED,
                       steps_per_unit_r=50, bootstrap_resamples=100, mode=mode)
    r_values = [1.0, 2.5]
    result = scan_over_r(r_values, config)
    spec = HomodyneSpec(gain_g=config.gain_g)
    grid = np.linspace(config.phi_start, config.phi_stop, 5)
    assert grid[1] == np.pi / 2
    for r, row in zip(r_values, result.rows):
        ens = build_ensembles(1.0e7, 1.0e4, [r], 200, SEED, mode=mode, steps_per_unit_r=50)[0]
        m, (lo, hi), sign = m_at_phi(ens, spec, resamples=100)
        assert (row.m, row.m_ci_lo, row.m_ci_hi, row.correction_sign) == (m, lo, hi, sign)
        curve = sensitivity_curve(ens, grid, spec, resamples=100)
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
                       master_seed=SEED, correction="off", bootstrap_resamples=100)
    result = scan_over_r([0.0], config)
    row = result.rows[0]
    assert row.m_ci_lo <= 1.0 <= row.m_ci_hi
    assert abs(row.m - 1.0) < 0.2


def test_tw_scan_reports_transfer_and_optimum():
    config = RunConfig(
        n_total=1.0e7, n_seed=0.0, trajectories=300, master_seed=SEED,
        bootstrap_resamples=100,
    )
    result = scan_over_r([4.0, 4.5, 5.0], config)
    assert result.rows[result.star].m < 0.1
    row = result.rows[1]
    assert row.transferred == pytest.approx(np.sinh(4.5) ** 2, rel=0.25)
