"""Wigner sampling moments, stream independence and the determinism contract."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from atomlight import phasespace
from atomlight.phasespace import (
    STREAMS,
    _box_muller,
    occupation,
    open_stream,
    quadrature_x,
    quadrature_y,
    sample_coherent_batch,
    sample_initial_ensemble,
)

N_DRAWS = 10_000
# standard error of a sample variance of Gaussians with variance 1/4
VAR_SE = 0.25 * np.sqrt(2.0 / (N_DRAWS - 1))


def test_vacuum_moments():
    samples = sample_coherent_batch(0.0, master_seed=7, stream_tag="atoms1", n_traj=N_DRAWS)
    re, im = samples.real, samples.imag
    assert abs(re.mean()) < 5 * 0.5 / np.sqrt(N_DRAWS)
    assert abs(im.mean()) < 5 * 0.5 / np.sqrt(N_DRAWS)
    assert abs(re.var(ddof=1) - 0.25) < 5 * VAR_SE
    assert abs(im.var(ddof=1) - 0.25) < 5 * VAR_SE


def test_vacuum_quadrature_variance_is_one():
    # X = a + a^dag must have unit vacuum variance in this convention
    samples = sample_coherent_batch(0.0, master_seed=3, stream_tag="light2", n_traj=N_DRAWS)
    assert abs(np.var(quadrature_x(samples), ddof=1) - 1.0) < 5 * 4 * VAR_SE
    assert abs(np.var(quadrature_y(samples), ddof=1) - 1.0) < 5 * 4 * VAR_SE


def test_coherent_occupation():
    mean = np.sqrt(1.0e7)
    samples = sample_coherent_batch(mean, master_seed=11, stream_tag="atoms1", n_traj=N_DRAWS)
    est = occupation(samples)
    # fluctuation of |alpha|^2 is dominated by 2 Re(mean* eta): variance = mean^2
    se = mean / np.sqrt(N_DRAWS)
    assert abs(est - 1.0e7) < 3 * se


@pytest.mark.parametrize("n", [0.0, 1.0e4, 1.0e7])
def test_symmetric_ordering_identity(n):
    samples = sample_coherent_batch(np.sqrt(n), master_seed=5, stream_tag="atoms2",
                                    n_traj=N_DRAWS)
    se = max(np.sqrt(n), 1.0) / np.sqrt(N_DRAWS)
    assert abs(occupation(samples) - n) < 5 * se


def test_same_seed_bit_identical():
    def draw():
        return sample_coherent_batch(1 + 2j, 42, "light2", 1, first_index=17)[0]

    assert draw() == draw()


@given(master=st.integers(min_value=0, max_value=2**63 - 1),
       traj=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_draws_are_pure_functions(master, traj):
    def draw():
        return sample_coherent_batch(0.0, master, "atoms1", 1, first_index=traj)[0]

    assert draw() == draw()


def test_batch_matches_scalar_path():
    batch = sample_coherent_batch(2.0 - 1.0j, master_seed=9, stream_tag="atoms2", n_traj=32)
    singles = np.array([
        sample_coherent_batch(2.0 - 1.0j, 9, "atoms2", 1, first_index=i)[0] for i in range(32)
    ])
    assert np.array_equal(batch, singles)


def test_split_draws_equal_the_whole_draw():
    whole = sample_coherent_batch(0.5j, master_seed=17, stream_tag="light2", n_traj=1001)
    cuts = [0, 1, 8, 341, 1000, 1001]  # odd offsets and lengths
    parts = [
        sample_coherent_batch(0.5j, master_seed=17, stream_tag="light2", n_traj=j - i,
                              first_index=i)
        for i, j in zip(cuts[:-1], cuts[1:])
    ]
    assert np.array_equal(np.concatenate(parts), whole)


def test_blocked_draws_equal_the_one_shot_draw(monkeypatch):
    # 2 blocks and 3 trajectories of a third, from one bit generator into one array
    block, n = 16, 2 * 16 + 3
    bits = open_stream(23, "atoms2", first_index=5)
    one_shot = (4.0 - 1.0j) + _box_muller(bits.random_raw(4 * n).reshape(n, 4)[:, :2])
    monkeypatch.setattr(phasespace, "SAMPLE_BLOCK", block)
    blocked = sample_coherent_batch(4.0 - 1.0j, 23, "atoms2", n, first_index=5)
    assert blocked.tobytes() == one_shot.tobytes()


def test_sample_coherent_is_the_batch_row():
    batch = sample_coherent_batch(1.0 + 2.0j, master_seed=5, stream_tag="local_oscillator",
                                  n_traj=200)
    for i in (0, 1, 77, 199):
        assert sample_coherent_batch(1.0 + 2.0j, 5, "local_oscillator", 1,
                                     first_index=i)[0] == batch[i]


def test_counter_layout():
    # key master_seed, counter word 3 the stream tag, raw block i for trajectory i;
    # distinct tags, so no two streams meet
    assert len(set(STREAMS.values())) == len(STREAMS)
    bits = np.random.Philox(key=2**64 - 1, counter=[0, 0, 0, STREAMS["atoms2"]])
    words = bits.random_raw(4 * 6).reshape(6, 4)[:, :2]
    draws = sample_coherent_batch(0.0, master_seed=2**64 - 1, stream_tag="atoms2", n_traj=6)
    assert np.array_equal(draws, _box_muller(words))


def test_vacuum_quadratures_are_normal():
    samples = sample_coherent_batch(0.0, master_seed=2024, stream_tag="atoms1", n_traj=100_000)
    for part in (samples.real, samples.imag):
        assert stats.kstest(part, "norm", args=(0.0, 0.5)).pvalue > 1e-3


def test_word_map_is_finite_at_the_extremes():
    words = np.array([[0, 0], [2**64 - 1, 2**64 - 1], [0, 2**64 - 1]], dtype=np.uint64)
    noise = _box_muller(words)
    assert np.all(np.isfinite(noise))
    # word 0 maps to 2**-54, the smallest value of the map: the largest radius
    assert abs(noise[0]) == pytest.approx(0.5 * np.sqrt(2.0 * 54.0 * np.log(2.0)), rel=1e-12)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_open_stream_is_the_documented_counter_layout(name):
    # key master_seed, the stream's tag in counter word 3, advanced to raw block i
    for i in (0, 1, 77, 2**40):
        bits = np.random.Philox(key=2**64 - 1, counter=[0, 0, 0, STREAMS[name]])
        want = bits.advance(i).random_raw(8)
        got = open_stream(2**64 - 1, name, first_index=i).random_raw(8)
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="first_index must be >= 0"):
        open_stream(1, name, first_index=-1)


def test_only_phasespace_names_numpy_random():
    # every random stream is opened in one module, so the layout is stated once
    package = Path(__file__).resolve().parents[1] / "src" / "atomlight"
    modules = sorted(package.glob("*.py"))
    assert package / "phasespace.py" in modules
    named = [m.name for m in modules
             if re.search(r"\b(np|numpy)\.random\b", m.read_text(encoding="utf-8"))]
    assert named == ["phasespace.py"]


def test_distinct_streams_uncorrelated():
    draws = {
        tag: sample_coherent_batch(0.0, master_seed=13, stream_tag=tag, n_traj=N_DRAWS)
        for tag in ("atoms1", "atoms2", "light2", "local_oscillator")
    }
    tags = list(draws)
    cov_se = 0.25 / np.sqrt(N_DRAWS)
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            a, b = draws[tags[i]], draws[tags[j]]
            for x in (a.real, a.imag):
                for y in (b.real, b.imag):
                    cov = np.mean(x * y) - x.mean() * y.mean()
                    assert abs(cov) < 5 * cov_se, (tags[i], tags[j])


def test_initial_state_means():
    # one trajectory of the t0 state
    state = sample_initial_ensemble(1.0e7, 0.0, master_seed=21, n_traj=1)
    assert state.n_traj == 1
    assert abs(state.alpha1[0] - np.sqrt(1.0e7)) < 5.0  # vacuum-width fluctuation
    assert abs(state.alpha2[0]) < 5.0
    assert abs(state.beta2[0]) < 5.0


def test_initial_ensemble_occupations():
    ens = sample_initial_ensemble(1.0e7, 1.0e4, master_seed=33, n_traj=N_DRAWS)
    se2 = np.sqrt(1.0e4) / np.sqrt(N_DRAWS)
    assert abs(occupation(ens.alpha2) - 1.0e4) < 5 * se2
    assert abs(occupation(ens.beta2)) < 5 * 0.5 / np.sqrt(N_DRAWS)
    # seed sits a quarter cycle from the pump: mean amplitude along +i
    assert abs(np.mean(ens.alpha2.real)) < 5 * 0.5 / np.sqrt(N_DRAWS)
    assert np.mean(ens.alpha2.imag) > 0.99 * np.sqrt(1.0e4)
    assert np.mean(ens.alpha1.real) > 0.99 * np.sqrt(1.0e7 - 1.0e4)


@pytest.mark.parametrize("n_total,n_seed", [(1.0, 2.0), (0.0, 0.0), (-1.0, 0.0),
                                            (np.inf, 0.0), (10.0, 10.0)])
def test_initial_state_rejects_bad_populations(n_total, n_seed):
    with pytest.raises(ValueError):
        sample_initial_ensemble(n_total, n_seed, master_seed=1, n_traj=1)


def test_seed_spec_validation():
    with pytest.raises(KeyError):
        sample_coherent_batch(0.0, 1, "nope", 1)
    with pytest.raises(ValueError):
        sample_coherent_batch(0.0, 1, "atoms1", 1, first_index=-1)

