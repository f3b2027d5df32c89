"""Beam-splitter algebra, homodyne read-out and sign calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlight.estimator import fringe_features
from atomlight.interferometer import (
    HomodyneSpec,
    beam_splitter_half,
    calibrate_correction_sign,
    combine_signals,
    correction_weight,
    detected_photons,
    lo_amplitude,
    lo_noise_samples,
    measure_signals,
    phase_imprint,
    run_mzi,
    signal_atoms,
    signal_light,
)
from atomlight.phasespace import ModeTriple, occupation, sample_coherent_batch

SEED = 777

amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _state(a1, a2, b2=0j, tag="t1"):
    return ModeTriple(complex(a1), complex(a2), complex(b2), tag)


# --- beam splitter -----------------------------------------------------------

def test_beam_splitter_known_point():
    out = beam_splitter_half(_state(1.0, 0.0))
    assert out.alpha1 == pytest.approx(1 / np.sqrt(2))
    assert out.alpha2 == pytest.approx(-1j / np.sqrt(2))


@given(a1=amplitudes, a2=amplitudes)
@settings(max_examples=100, deadline=None)
def test_beam_splitter_unitarity(a1, a2):
    out = beam_splitter_half(_state(a1, a2))
    before = abs(a1) ** 2 + abs(a2) ** 2
    after = abs(out.alpha1) ** 2 + abs(out.alpha2) ** 2
    assert after == pytest.approx(before, rel=1e-12, abs=1e-9)


def test_two_beam_splitters_swap_populations():
    out = beam_splitter_half(beam_splitter_half(_state(3.0 + 1j, 0.0)))
    assert abs(out.alpha2) ** 2 == pytest.approx(abs(3.0 + 1j) ** 2, rel=1e-12)
    assert abs(out.alpha1) == pytest.approx(0.0, abs=1e-12)


# --- phase imprint -----------------------------------------------------------

def test_phase_imprint_zero_and_pi():
    s = _state(1.0, 2.0 - 1.0j)
    assert phase_imprint(s, 0.0).alpha2 == s.alpha2
    assert phase_imprint(s, np.pi).alpha2 == pytest.approx(-s.alpha2, rel=1e-12)


@given(a2=amplitudes, phi=st.floats(min_value=-10, max_value=10,
                                    allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_phase_imprint_preserves_modulus(a2, phi):
    out = phase_imprint(_state(0.0, a2), phi)
    assert abs(out.alpha2) == pytest.approx(abs(a2), rel=1e-12, abs=1e-12)


# --- full interferometer ------------------------------------------------------

def _mzi_matrix(phi):
    # independent oracle: compose the three 2x2 maps on (alpha1, alpha2)
    bs = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
    ph = np.diag([1.0, np.exp(1j * phi)])
    return bs @ ph @ bs


def test_mzi_full_transfer_at_zero_phase():
    out = run_mzi(_state(2.0, 0.0), 0.0)
    assert out.alpha2 == pytest.approx(-2.0j, rel=1e-12)
    assert abs(out.alpha1) == pytest.approx(0.0, abs=1e-12)
    assert out.time_tag == "t3"


def test_mzi_reflection_at_pi():
    out = run_mzi(_state(2.0, 0.0), np.pi)
    assert abs(out.alpha1) ** 2 == pytest.approx(4.0, rel=1e-12)
    assert abs(out.alpha2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("phi", np.linspace(0.0, 2 * np.pi, 9))
def test_mzi_matches_matrix_oracle(phi):
    a1, a2 = 1.3 - 0.4j, -0.2 + 2.1j
    out = run_mzi(_state(a1, a2), phi)
    expect = _mzi_matrix(phi) @ np.array([a1, a2])
    assert out.alpha1 == pytest.approx(expect[0], rel=1e-12)
    assert out.alpha2 == pytest.approx(expect[1], rel=1e-12)


@given(a1=amplitudes, a2=amplitudes,
       phi=st.floats(min_value=0, max_value=2 * np.pi, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_mzi_conserves_atom_number(a1, a2, phi):
    out = run_mzi(_state(a1, a2), phi)
    before = abs(a1) ** 2 + abs(a2) ** 2
    after = abs(out.alpha1) ** 2 + abs(out.alpha2) ** 2
    assert after == pytest.approx(before, rel=1e-12, abs=1e-9)


def test_mzi_requires_t1():
    with pytest.raises(ValueError):
        run_mzi(ModeTriple(1.0 + 0j, 0j, 0j, "t0"), 0.0)


# --- atomic signal ------------------------------------------------------------

def test_signal_atoms_all_in_pump():
    n = 1.0e4
    assert signal_atoms(_state(np.sqrt(n), 0.0, tag="t3")) == pytest.approx(-n)


def test_signal_atoms_after_full_transfer():
    n = 1.0e4
    out = run_mzi(_state(np.sqrt(n), 0.0), 0.0)
    assert signal_atoms(out) == pytest.approx(n, rel=1e-12)


def test_fringe_is_cosine(coherent_ensemble):
    # uncorrelated coherent input: <S_a>(phi) = N_t cos(phi)
    n_total = coherent_ensemble.n_total
    spec = HomodyneSpec(lo_sampled=False)
    for phi in np.linspace(0.0, 2 * np.pi, 9):
        sample = measure_signals(coherent_ensemble, phi, spec)
        se = np.std(sample.s_a, ddof=1) / np.sqrt(coherent_ensemble.n_traj)
        assert abs(sample.s_a.mean() - n_total * np.cos(phi)) < 4 * se + 1e-6


def test_balanced_point_mean_zero(coherent_ensemble):
    sample = measure_signals(coherent_ensemble, np.pi / 2, HomodyneSpec(lo_sampled=False))
    se = np.std(sample.s_a, ddof=1) / np.sqrt(coherent_ensemble.n_traj)
    assert abs(sample.s_a.mean()) < 3 * se


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


# --- combining ------------------------------------------------------------------

def test_combine_signals_arithmetic():
    spec = HomodyneSpec(gain_g=100.0, correction_sign="plus")
    assert combine_signals(10.0, 0.0, spec) == 10.0
    assert combine_signals(10.0, 5.0, spec) == pytest.approx(9.95)
    flipped = HomodyneSpec(gain_g=100.0, correction_sign="minus")
    assert combine_signals(10.0, 5.0, flipped) == pytest.approx(10.05)
    assert combine_signals(10.0, 5.0, HomodyneSpec(correction_sign="off")) == 10.0
    assert [correction_weight(sign) for sign in ("plus", "minus", "off")] == [-1.0, 1.0, 0.0]


def test_combine_signals_rejects_auto():
    with pytest.raises(ValueError):
        combine_signals(1.0, 1.0, HomodyneSpec(correction_sign="auto"))
    with pytest.raises(ValueError, match="unresolved"):
        correction_weight("auto")


def test_resolve_homodyne_derives_lo(working_point_ensemble):
    beta_lo = lo_amplitude(working_point_ensemble, HomodyneSpec(gain_g=100.0, lo_sampled=False))
    n1 = occupation(working_point_ensemble.state.alpha1)
    assert beta_lo == pytest.approx(100.0 * np.sqrt(n1), rel=1e-12)
    # lo_sampled adds the LO's own draw per trajectory, drawn there or passed in
    noise = lo_noise_samples(working_point_ensemble)
    sampled = HomodyneSpec(gain_g=100.0)
    assert np.array_equal(lo_amplitude(working_point_ensemble, sampled), beta_lo + noise)
    assert np.array_equal(lo_amplitude(working_point_ensemble, sampled, noise), beta_lo + noise)


# --- sign calibration and correlations ------------------------------------------

def _calibrate_at(ensemble, spec, phi=np.pi / 2):
    """The sign chosen from the interferometer's own signals at phi."""
    sample = measure_signals(ensemble, phi, spec)
    return calibrate_correction_sign(sample.s_a, sample.s_b)


def test_calibration_reduces_variance(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    sign = _calibrate_at(working_point_ensemble, spec)
    sample = measure_signals(working_point_ensemble, np.pi / 2, spec)
    s_corr = sample.s_a - {"plus": 1, "minus": -1}[sign] * sample.s_b / spec.gain_g
    assert np.var(s_corr, ddof=1) < np.var(sample.s_a, ddof=1)


def test_calibration_flips_half_fringe_away(working_point_ensemble):
    spec = HomodyneSpec(gain_g=100.0)
    at_quarter = _calibrate_at(working_point_ensemble, spec, np.pi / 2)
    at_three_quarter = _calibrate_at(working_point_ensemble, spec, 3 * np.pi / 2)
    assert {at_quarter, at_three_quarter} == {"plus", "minus"}


def test_calibration_runs_without_squeezing(coherent_ensemble):
    sign = _calibrate_at(coherent_ensemble, HomodyneSpec(gain_g=100.0))
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
        assert calibrate_correction_sign(s_a, s_b) == _two_variance_sign(s_a, s_b, gain_g)


def test_calibration_rejects_empty():
    with pytest.raises(ValueError):
        calibrate_correction_sign(np.empty(0), np.empty(0))


@pytest.mark.parametrize("ensemble", ["working_point_ensemble", "coherent_ensemble"])
@pytest.mark.parametrize("phi", [np.pi / 2, 3 * np.pi / 2])
def test_feature_sign_matches_interferometer_sign(request, ensemble, phi):
    # S_a(phi) = B cos(phi) + C sin(phi), so the record at pi/2 (3pi/2) is C (-C)
    ensemble = request.getfixturevalue(ensemble)
    spec = HomodyneSpec(gain_g=100.0)
    features, s_b, sign = fringe_features(ensemble, spec)
    from_features = calibrate_correction_sign(np.sin(phi) * features[:, 1], s_b)
    assert from_features == _calibrate_at(ensemble, spec, phi)
    assert from_features == _two_variance_sign(np.sin(phi) * features[:, 1], s_b, spec.gain_g)
    if phi == np.pi / 2:
        assert sign == from_features


@pytest.mark.parametrize("phi,lo,hi", [
    (np.pi / 2, 0.9, 1.0),
    (np.pi, -0.1, 0.1),
    (3 * np.pi / 2, -1.0, -0.9),
])
def test_correlation_structure(working_point_ensemble, phi, lo, hi):
    spec = HomodyneSpec(gain_g=100.0)
    sample = measure_signals(working_point_ensemble, phi, spec)
    corr = np.corrcoef(sample.s_a, sample.s_b / spec.gain_g)[0, 1]
    assert lo <= corr <= hi


def test_detected_photons(working_point_ensemble):
    spec = HomodyneSpec(gain_g=1.0)
    n_p = detected_photons(working_point_ensemble, spec)
    n1 = occupation(working_point_ensemble.state.alpha1)
    nb = occupation(working_point_ensemble.state.beta2)
    assert n_p == pytest.approx(n1 + nb, rel=1e-12)
