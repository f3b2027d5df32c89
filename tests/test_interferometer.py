"""The step-by-step interferometer oracle, the homodyne read-out, its fringe
features and the sign calibration that the estimator makes from them."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlight import estimator
from atomlight.estimator import correction_weight, evaluate, sensitivity_curve
from atomlight.interferometer import (
    detected_photons,
    fringe_features,
    lo_amplitude,
    signal_light,
)
from atomlight.phasespace import occupation, sample_coherent_batch
from oracles import (
    beam_splitter_half,
    interferometer_signals,
    phase_imprint,
    run_mzi,
    signal_atoms,
)

SEED = 777

amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


# --- beam splitter -----------------------------------------------------------

def test_beam_splitter_known_point():
    a1, a2 = beam_splitter_half(1.0 + 0j, 0j)
    assert a1 == pytest.approx(1 / np.sqrt(2))
    assert a2 == pytest.approx(-1j / np.sqrt(2))


@given(a1=amplitudes, a2=amplitudes)
@settings(max_examples=100, deadline=None)
def test_beam_splitter_unitarity(a1, a2):
    out1, out2 = beam_splitter_half(a1, a2)
    before = abs(a1) ** 2 + abs(a2) ** 2
    after = abs(out1) ** 2 + abs(out2) ** 2
    assert after == pytest.approx(before, rel=1e-12, abs=1e-9)


def test_two_beam_splitters_swap_populations():
    a1, a2 = beam_splitter_half(*beam_splitter_half(3.0 + 1j, 0j))
    assert abs(a2) ** 2 == pytest.approx(abs(3.0 + 1j) ** 2, rel=1e-12)
    assert abs(a1) == pytest.approx(0.0, abs=1e-12)


# --- phase imprint -----------------------------------------------------------

def test_phase_imprint_zero_and_pi():
    a2 = 2.0 - 1.0j
    assert phase_imprint(a2, 0.0) == a2
    assert phase_imprint(a2, np.pi) == pytest.approx(-a2, rel=1e-12)


@given(a2=amplitudes, phi=st.floats(min_value=-10, max_value=10,
                                    allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_phase_imprint_preserves_modulus(a2, phi):
    assert abs(phase_imprint(a2, phi)) == pytest.approx(abs(a2), rel=1e-12, abs=1e-12)


# --- full interferometer ------------------------------------------------------

def _mzi_matrix(phi):
    # independent oracle: compose the three 2x2 maps on (alpha1, alpha2)
    bs = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
    ph = np.diag([1.0, np.exp(1j * phi)])
    return bs @ ph @ bs


def test_mzi_full_transfer_at_zero_phase():
    a1, a2 = run_mzi(2.0 + 0j, 0j, 0.0)
    assert a2 == pytest.approx(-2.0j, rel=1e-12)
    assert abs(a1) == pytest.approx(0.0, abs=1e-12)


def test_mzi_reflection_at_pi():
    a1, a2 = run_mzi(2.0 + 0j, 0j, np.pi)
    assert abs(a1) ** 2 == pytest.approx(4.0, rel=1e-12)
    assert abs(a2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("phi", np.linspace(0.0, 2 * np.pi, 9))
def test_mzi_matches_matrix_oracle(phi):
    a1, a2 = 1.3 - 0.4j, -0.2 + 2.1j
    out = run_mzi(a1, a2, phi)
    expect = _mzi_matrix(phi) @ np.array([a1, a2])
    assert out[0] == pytest.approx(expect[0], rel=1e-12)
    assert out[1] == pytest.approx(expect[1], rel=1e-12)


@given(a1=amplitudes, a2=amplitudes,
       phi=st.floats(min_value=0, max_value=2 * np.pi, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_mzi_conserves_atom_number(a1, a2, phi):
    out1, out2 = run_mzi(a1, a2, phi)
    before = abs(a1) ** 2 + abs(a2) ** 2
    after = abs(out1) ** 2 + abs(out2) ** 2
    assert after == pytest.approx(before, rel=1e-12, abs=1e-9)


# --- atomic signal ------------------------------------------------------------

def test_signal_atoms_all_in_pump():
    n = 1.0e4
    assert signal_atoms(np.sqrt(n), 0.0) == pytest.approx(-n)


def test_signal_atoms_after_full_transfer():
    n = 1.0e4
    assert signal_atoms(*run_mzi(np.sqrt(n), 0.0, 0.0)) == pytest.approx(n, rel=1e-12)


def test_fringe_is_cosine(coherent_ensemble):
    # uncorrelated coherent input: <S_a>(phi) = N_t cos(phi)
    n_total = coherent_ensemble.n_total
    no_lo_noise = replace(coherent_ensemble, lo_noise=None)
    for phi in np.linspace(0.0, 2 * np.pi, 9):
        s_a, _ = interferometer_signals(no_lo_noise, phi, 100.0)
        se = np.std(s_a, ddof=1) / np.sqrt(coherent_ensemble.n_traj)
        assert abs(s_a.mean() - n_total * np.cos(phi)) < 4 * se + 1e-6


def test_balanced_point_mean_zero(coherent_ensemble):
    s_a, _ = interferometer_signals(replace(coherent_ensemble, lo_noise=None), np.pi / 2, 100.0)
    se = np.std(s_a, ddof=1) / np.sqrt(coherent_ensemble.n_traj)
    assert abs(s_a.mean()) < 3 * se


# --- homodyne -----------------------------------------------------------------

def test_signal_light_zero_field():
    assert signal_light(0j, 500.0) == pytest.approx(0.0, abs=1e-9)


def test_signal_light_imaginary_field():
    # beta2 = i y with a real classical LO: S_b = -2 beta_LO y
    out = signal_light(2.5j, 300.0)
    assert out == pytest.approx(-2.0 * 300.0 * 2.5, rel=1e-10)


def test_signal_light_linear_in_lo():
    s1 = signal_light(1.0 + 0.7j, 100.0)
    s2 = signal_light(1.0 + 0.7j, 200.0)
    assert s2 == pytest.approx(2.0 * s1, rel=1e-9)


def test_signal_light_is_exact_where_the_port_intensities_cancel():
    # the ports hold about 4.5e10 photons each, and their difference (4.2e5)
    # taken from them would be off by about 4e-11 relative
    beta2, beta_lo = 0.3 + 0.7j, 3.0e5
    assert signal_light(beta2, beta_lo) == pytest.approx(-2.0 * beta2.imag * beta_lo,
                                                         rel=1e-14, abs=0.0)


def test_homodyne_shot_noise():
    # oracle: propagate vacuum covariance through the 50/50 map with a
    # sampled LO; Var(S_b) = beta_LO^2 * (V(Re b2) + V(Im b2)) * 4 ... = beta_LO^2
    n = 10_000
    beta_lo = 1.0e5
    b2 = sample_coherent_batch(0.0, SEED, "light2", n)
    lo = sample_coherent_batch(0.0, SEED, "local_oscillator", n)
    s_b = signal_light(b2, beta_lo + lo)
    rel_se = np.sqrt(2.0 / (n - 1))
    assert abs(s_b.mean()) < 5 * beta_lo / np.sqrt(n)
    assert abs(s_b.var(ddof=1) / beta_lo**2 - 1.0) < 5 * rel_se


def test_signal_light_requires_lo_amplitude():
    with pytest.raises(TypeError):
        signal_light(1j)


# --- correction weight ------------------------------------------------------------

def test_correction_weight_values():
    # S = S_a + w S_b / g: "plus" subtracts the light record, "minus" adds it
    assert [correction_weight(sign) for sign in ("plus", "minus", "off")] == [-1.0, 1.0, 0.0]


def test_correction_weight_rejects_auto():
    # "auto" is resolved by evaluate, from the sums of the features it is given
    with pytest.raises(ValueError, match="unresolved"):
        correction_weight("auto")


@pytest.mark.parametrize("gain_g", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("read", [
    fringe_features, lo_amplitude, detected_photons,
    lambda ensemble, gain_g: sensitivity_curve(ensemble, [np.pi / 2], gain_g),
], ids=["fringe_features", "lo_amplitude", "detected_photons", "sensitivity_curve"])
def test_read_out_refuses_a_bad_gain(working_point_ensemble, read, gain_g):
    # a library caller passes g directly; the CLI's keys stop earlier, in RunConfig
    with pytest.raises(ValueError, match="gain_g must be finite and > 0"):
        read(working_point_ensemble, gain_g)


def test_sensitivity_curve_refuses_an_unknown_correction_before_the_read_out(
        monkeypatch, working_point_ensemble):
    def unreachable(*_):
        raise AssertionError("the read-out ran for an unknown correction")

    monkeypatch.setattr(estimator, "fringe_features", unreachable)
    with pytest.raises(ValueError, match="got 'bogus'"):
        sensitivity_curve(working_point_ensemble, [np.pi / 2], 100.0, correction="bogus")


def test_lo_amplitude_derives_the_lo(working_point_ensemble):
    beta_lo = lo_amplitude(working_point_ensemble, 100.0)
    n1 = occupation(working_point_ensemble.state.alpha1)
    assert beta_lo == pytest.approx(100.0 * np.sqrt(n1), rel=1e-12)
    # the LO's own noise per trajectory is the ensemble's, from the build's one
    # draw of its stream (the fixture's seed), and the read-out adds it
    noise = working_point_ensemble.lo_noise
    n = working_point_ensemble.n_traj
    assert np.array_equal(noise, sample_coherent_batch(0.0, 12345, "local_oscillator", n))
    beta2 = working_point_ensemble.state.beta2
    for ensemble, lo in ((working_point_ensemble, beta_lo + noise),
                         (replace(working_point_ensemble, lo_noise=None), beta_lo)):
        s_b_over_g = fringe_features(ensemble, 100.0)[:, 2]
        assert s_b_over_g.tobytes() == (signal_light(beta2, lo) / 100.0).tobytes()


# --- fringe features ----------------------------------------------------------------

def test_features_do_not_depend_on_the_correction(working_point_ensemble):
    # the sign is a weight in the design, which the estimator applies to the one
    # set of features that the read-out gives at g
    features = fringe_features(working_point_ensemble, 100.0)
    assert _auto_sign(features) in ("plus", "minus")
    s_b = signal_light(working_point_ensemble.state.beta2,
                       lo_amplitude(working_point_ensemble, 100.0) + working_point_ensemble.lo_noise)
    assert np.array_equal(features[:, 2], s_b / 100.0)
    for setting in ("plus", "minus", "off"):
        stats = evaluate(features[np.newaxis], [np.pi / 2], setting, 1.0)[0]
        assert stats["correction_sign"] == [setting]


@pytest.mark.parametrize("sign", ["plus", "minus", "off"])
def test_weighted_light_feature_is_the_combined_signal(working_point_ensemble, sign):
    # S = S_a + w S_b / g: the light record's part is the weighted feature, bit for bit,
    # and B cos(phi) + C sin(phi) is the step-by-step interferometer's S_a
    b, c, s_b_over_g = fringe_features(working_point_ensemble, 100.0).T
    w = correction_weight(sign)
    for phi in (0.3, np.pi / 2, 2.0, 3 * np.pi / 2):
        ref_s_a, s_b = interferometer_signals(working_point_ensemble, phi, 100.0)
        assert (w * s_b_over_g).tobytes() == (w * (s_b / 100.0)).tobytes()
        s_a = b * np.cos(phi) + c * np.sin(phi)
        assert np.max(np.abs(s_a - ref_s_a)) <= 1e-9 * np.max(np.abs(ref_s_a))


# --- sign calibration and correlations ------------------------------------------

def _auto_sign(features):
    """The sign that evaluate resolves for "auto" on one set of (B, C, S_b / g) rows."""
    return evaluate(features[np.newaxis], [np.pi / 2], "auto", 1.0)[0]["correction_sign"][0]


def _calibrate_at(ensemble, gain_g, phi=np.pi / 2):
    """The sign that evaluate resolves for "auto" from the step-by-step
    interferometer's signals at phi and gain_g, its S_a in place of C (the
    atomic record at pi/2)."""
    s_a, s_b = interferometer_signals(ensemble, phi, gain_g)
    return _auto_sign(np.column_stack([np.zeros_like(s_a), s_a, s_b / gain_g]))


def test_calibration_reduces_variance(working_point_ensemble):
    sign = _auto_sign(fringe_features(working_point_ensemble, 100.0))
    assert sign == _calibrate_at(working_point_ensemble, 100.0)
    s_a, s_b = interferometer_signals(working_point_ensemble, np.pi / 2, 100.0)
    s_corr = s_a - {"plus": 1, "minus": -1}[sign] * s_b / 100.0
    assert np.var(s_corr, ddof=1) < np.var(s_a, ddof=1)


def test_calibration_flips_half_fringe_away(working_point_ensemble):
    # the atomic record at 3 pi / 2 is -C
    features = fringe_features(working_point_ensemble, 100.0)
    at_quarter = _auto_sign(features)
    features[:, 1] *= -1.0
    at_three_quarter = _auto_sign(features)
    assert {at_quarter, at_three_quarter} == {"plus", "minus"}
    assert at_three_quarter == _calibrate_at(working_point_ensemble, 100.0, 3 * np.pi / 2)


def test_calibration_runs_without_squeezing(coherent_ensemble):
    sign = _calibrate_at(coherent_ensemble, 100.0)
    assert sign in ("plus", "minus")


def _two_variance_sign(s_a, s_b, gain_g):
    """The reference: the sign whose combined signal has the smaller variance."""
    var_plus = np.var(s_a - s_b / gain_g, ddof=1)
    var_minus = np.var(s_a + s_b / gain_g, ddof=1)
    return "plus" if var_plus <= var_minus else "minus"


def test_calibration_matches_two_variance_form_on_random_records():
    # correlations from -1 to 1 at scales and gains far from the working point's
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        n = int(rng.integers(2, 3000))
        gain_g, scale = 10.0 ** rng.uniform(-1, 3), 10.0 ** rng.uniform(-3, 6)
        s_a = scale * rng.normal(size=n) + rng.normal()
        s_b = gain_g * (rng.uniform(-1, 1) * s_a + scale * rng.normal(size=n))
        features = np.column_stack([rng.normal(size=n), s_a, s_b / gain_g])  # B plays no part
        assert _auto_sign(features) == _two_variance_sign(s_a, s_b, gain_g)
    # no covariance at all is a tie, which goes to "plus" in both forms
    s_b = rng.normal(size=100)
    assert _auto_sign(np.column_stack([s_b, np.zeros(100), s_b])) == "plus"
    assert _two_variance_sign(np.zeros(100), s_b, 1.0) == "plus"


def test_calibration_rejects_empty():
    # a set too small for a variance is refused, whatever its correction
    for n in (0, 1):
        for correction in ("auto", "plus"):
            with pytest.raises(ValueError, match="at least 2 trajectories"):
                evaluate(np.zeros((1, n, 3)), [np.pi / 2], correction, 1.0)


@pytest.mark.parametrize("ensemble", ["working_point_ensemble", "coherent_ensemble"])
@pytest.mark.parametrize("phi", [np.pi / 2, 3 * np.pi / 2])
def test_feature_sign_matches_interferometer_sign(request, ensemble, phi):
    # S_a(phi) = B cos(phi) + C sin(phi), so the record at pi/2 (3pi/2) is C (-C)
    ensemble = request.getfixturevalue(ensemble)
    features = fringe_features(ensemble, 100.0)
    at_phi = features.copy()
    at_phi[:, 1] *= np.sin(phi)
    from_features = _auto_sign(at_phi)
    assert from_features == _calibrate_at(ensemble, 100.0, phi)
    assert from_features == _two_variance_sign(at_phi[:, 1], 100.0 * features[:, 2], 100.0)
    if phi == np.pi / 2:
        assert _auto_sign(features) == from_features


@pytest.mark.parametrize("phi,lo,hi", [
    (np.pi / 2, 0.9, 1.0),
    (np.pi, -0.1, 0.1),
    (3 * np.pi / 2, -1.0, -0.9),
])
def test_correlation_structure(working_point_ensemble, phi, lo, hi):
    s_a, s_b = interferometer_signals(working_point_ensemble, phi, 100.0)
    corr = np.corrcoef(s_a, s_b / 100.0)[0, 1]
    assert lo <= corr <= hi


def test_detected_photons(working_point_ensemble):
    n_p = detected_photons(working_point_ensemble, 1.0)
    n1 = occupation(working_point_ensemble.state.alpha1)
    nb = occupation(working_point_ensemble.state.beta2)
    assert n_p == pytest.approx(n1 + nb, rel=1e-12)
