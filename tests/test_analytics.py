"""Closed-form predictions and their Monte Carlo cross-checks."""

import numpy as np
import pytest

from atomlight.analytics import heisenberg, predict, r_crit, sql
from atomlight.dynamics import build_ensembles
from atomlight.estimator import squeezed_combo_variance


def test_sql_values():
    assert sql(1.0e7) == pytest.approx(3.1623e-4, rel=1e-4)
    assert sql(1.0) == 1.0
    with pytest.raises(ValueError):
        sql(0.0)


def test_heisenberg_values():
    assert heisenberg(1.0e7) == pytest.approx(1.0e-7)
    assert heisenberg(1.0) == 1.0
    assert heisenberg(4.0) == 0.25
    with pytest.raises(ValueError):
        heisenberg(-1.0)


def test_heisenberg_below_sql():
    for n in (1.0, 2.0, 10.0, 1e6):
        assert heisenberg(n) <= sql(n)


def test_predict_at_zero():
    p = predict(0.0, 1.0e7)
    assert p.m_plain == pytest.approx(1.0, rel=1e-14)
    assert p.m_recycled == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert p.var_squeezed_combo == pytest.approx(2.0, rel=1e-14)


def test_predict_known_point():
    p = predict(3.0, 1.0e7)
    assert p.m_recycled == pytest.approx(np.sqrt(2.0) * np.exp(-3.0), rel=1e-13)
    assert p.m_recycled == pytest.approx(0.07040954731662971, rel=1e-12)
    assert p.m_plain == pytest.approx(np.sqrt(np.cosh(6.0)), rel=1e-13)
    assert p.m_plain == pytest.approx(14.20266299404643, rel=1e-12)


def test_predict_rejects_negative_r():
    with pytest.raises(ValueError):
        predict(-0.1, 10.0)
    with pytest.raises(ValueError):
        predict(1.0, 0.0)


def test_predict_warns_of_overflow():
    # the library leaves numpy's error state alone; only the CLI silences it
    with pytest.warns(RuntimeWarning, match="overflow"):
        p = predict(400.0, 1.0e7)
    assert np.isinf(p.delta_phi_plain) and np.isinf(p.var_antisqueezed_combo)


def test_crossover():
    rc = r_crit()
    assert rc == pytest.approx(np.log(np.sqrt(2.0)), rel=1e-15)
    assert rc == pytest.approx(0.34657359027997264, rel=1e-14)
    assert predict(rc, 123.0).m_recycled == pytest.approx(1.0, rel=1e-14)
    assert predict(rc * 0.99, 123.0).m_recycled > 1.0
    assert predict(rc * 1.01, 123.0).m_recycled < 1.0


def test_exactness_over_r_range():
    for r in np.linspace(0.0, 5.0, 101):
        p = predict(float(r), 1.0e7)
        assert abs(p.m_plain - np.sqrt(np.cosh(2 * r))) <= 1e-12 * p.m_plain
        assert abs(p.m_recycled - np.sqrt(2.0) * np.exp(-r)) <= 1e-12 * p.m_recycled


def test_plain_never_beats_sql():
    rs = np.linspace(0.0, 5.0, 51)
    ms = [predict(float(r), 10.0).m_plain for r in rs]
    assert all(m >= 1.0 for m in ms)
    assert ms[0] == pytest.approx(1.0, rel=1e-14)
    assert all(b > 1.0 for b in ms[1:])


def test_recycled_monotone_and_below_plain():
    rs = np.linspace(0.0, 5.0, 51)
    ms = [predict(float(r), 10.0).m_recycled for r in rs]
    assert all(a > b for a, b in zip(ms, ms[1:]))
    # below r = ln(3)/4 the optical correction only injects uncorrelated noise
    # and the corrected signal is worse than the bare one; above, it wins
    crossing = 0.25 * np.log(3.0)
    for r in rs[1:]:
        p = predict(float(r), 10.0)
        if r > crossing:
            assert p.m_recycled < p.m_plain
        elif r < crossing:
            assert p.m_recycled > p.m_plain


def test_uncertainty_product():
    for r in (0.0, 0.7, 2.0, 4.0):
        p = predict(r, 10.0)
        assert p.var_squeezed_combo * p.var_antisqueezed_combo == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_monte_carlo_agreement(r):
    # held-pump (Bogoliubov map) ensemble variance of the correlated quadrature pair
    ens = build_ensembles(1.0e7, 0.0, [r], 5000, 2024, mode="analytic")[0]
    var = squeezed_combo_variance(ens)
    expected = predict(r, 1.0e7).var_squeezed_combo
    rel_se = np.sqrt(2.0 / (ens.n_traj - 1))
    assert abs(var - expected) < 5 * rel_se * expected
