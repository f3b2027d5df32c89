"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a [PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``
to see them as they go).  The heavier criteria share session fixtures.
"""

import json

import numpy as np
import pytest

from atomlight import (
    PhysicalSetup,
    RunConfig,
    build_ensembles,
    capture_fraction,
    detected_photons,
    evolve_analytic,
    predict,
    rate_ratio,
    sample_initial_ensemble,
    scan_over_r,
    sensitivity_curve,
    squeezed_combo_variance,
    transferred_atoms,
)
from atomlight.cli import main
from atomlight.dynamics import evolve_closed_form
from atomlight.interferometer import fringe_features
from oracles import textbook_integrate

MASTER_SEED = 12345
N_TOTAL = 1.0e7


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def at_pi_2(ensemble, gain_g, correction="auto"):
    """The sensitivity curve of ensemble at the working phase pi/2 alone."""
    return sensitivity_curve(ensemble, [np.pi / 2], gain_g, correction)


@pytest.fixture(scope="module")
def fig3_ensemble():
    return build_ensembles(N_TOTAL, 1.0e4, [3.0], 1000, MASTER_SEED)[0]


@pytest.fixture(scope="module")
def seeded_scan():
    config = RunConfig(n_total=N_TOTAL, n_seed=1.0e4, trajectories=1000,
                       master_seed=MASTER_SEED)
    r_values = [round(v, 10) for v in np.arange(1.0, 4.01, 0.25)]
    return scan_over_r(r_values, config)


def test_criterion_01_analytic_exactness():
    worst = 0.0
    for r in np.linspace(0.0, 5.0, 251):
        p = predict(float(r), N_TOTAL)
        worst = max(
            worst,
            abs(p.m_plain - np.sqrt(np.cosh(2 * r))) / np.sqrt(np.cosh(2 * r)),
            abs(p.m_recycled - np.sqrt(2.0) * np.exp(-r)) / (np.sqrt(2.0) * np.exp(-r)),
        )
    crossover = abs(predict(np.log(np.sqrt(2.0)), N_TOTAL).m_recycled - 1.0)
    ok = worst < 1e-12 and crossover < 1e-12
    report(1, ok, f"closed forms exact over r in [0,5]: worst rel err {worst:.2e}, "
                  f"crossover residual {crossover:.2e}")


def test_criterion_02_oracle_equivalence_and_conservation():
    # the held-pump equations by plain RK4 (40 steps per unit r) against the
    # Bogoliubov map, and the drifts of the full dynamics in closed form
    t0 = sample_initial_ensemble(N_TOTAL, 1.0e4, MASTER_SEED, 200)
    worst = 0.0
    rs = (0.5, 1.0, 2.0, 3.0)
    held = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, rs, N_TOTAL - 1.0e4, clamp=True)
    for r, (_, *num) in zip(rs, held):
        ref = evolve_analytic(t0, r)
        for a, b in zip((ref.alpha2, ref.beta2), num):
            scale = np.abs(a).max()
            worst = max(worst,
                        np.abs(b.real - a.real).max() / scale,
                        np.abs(b.imag - a.imag).max() / scale)
    ((_, drift),) = evolve_closed_form(t0, [3.0], n_pump0=N_TOTAL - 1.0e4)
    ok = (worst < 1e-6
          and drift.max_rel_drift_atoms < 1e-8
          and drift.max_rel_drift_manley_rowe < 1e-8)
    report(2, ok, f"held-pump RK4 vs Bogoliubov map: worst rel err {worst:.2e}; "
                  f"full-dynamics drifts {drift.max_rel_drift_atoms:.2e} (atoms), "
                  f"{drift.max_rel_drift_manley_rowe:.2e} (Manley-Rowe)")


def test_criterion_03_squeezing_variance():
    n_traj = 10_000
    rel_se = np.sqrt(2.0 / (n_traj - 1))
    details = []
    ok = True
    for r in (0.0, 1.0, 2.0, 3.0):
        ens = build_ensembles(N_TOTAL, 0.0, [r], n_traj, MASTER_SEED, mode="analytic")[0]
        var = squeezed_combo_variance(ens)
        expected = 2.0 * np.exp(-2.0 * r)
        ok &= abs(var - expected) < 5 * rel_se * expected
        anti = np.var(
            2.0 * ens.state.alpha2.real + 2.0 * ens.state.beta2.imag, ddof=1
        )
        product = var * anti
        ok &= abs(product - 4.0) < 5 * np.sqrt(2.0) * rel_se * 4.0
        details.append(f"r={r}: V={var:.4f} (2e^-2r={expected:.4f}), V+V-={product:.3f}")
    report(3, ok, "; ".join(details))


def test_criterion_04_sql_recovery():
    ens = build_ensembles(N_TOTAL, 0.0, [0.0], 10_000, MASTER_SEED)[0]
    m = at_pi_2(ens, 100.0, "off").m[0]
    ok = 0.95 <= m <= 1.05
    report(4, ok, f"r=0, correction off, 1e4 trajectories: M(pi/2) = {m:.4f} in [0.95, 1.05]")


def test_criterion_05_unseeded_optimum():
    config = RunConfig(n_total=N_TOTAL, n_seed=0.0, trajectories=1000,
                       master_seed=MASTER_SEED)
    r_values = [round(v, 10) for v in np.arange(3.0, 5.51, 0.25)]
    result = scan_over_r(r_values, config)
    star = result.rows[result.star]
    ok = (0.015 <= star.m <= 0.05
          and 2000.0 / 3.0 <= star.transferred <= 2000.0 * 3.0)
    report(5, ok, f"unseeded optimum: M* = {star.m:.4f} at r = {star.r} "
                  f"with {star.transferred:.0f} atoms transferred "
                  f"(targets: M in [0.015, 0.05], transfer within 3x of 2000)")


def test_criterion_06_seeded_optimum(seeded_scan):
    rows = seeded_scan.rows
    star = rows[seeded_scan.star]
    k_corr = int(np.argmin([row.var_squeezed_combo for row in rows]))
    transfer_at_corr_opt = rows[k_corr].transferred
    ok = (0.06 <= star.m <= 0.13
          and 1.0e6 / 3.0 <= star.transferred <= 3.0e6
          and 2.3e5 / 3.0 <= transfer_at_corr_opt <= 2.3e5 * 3.0)
    report(6, ok, f"seeded optimum: M* = {star.m:.4f} at r = {star.r} with "
                  f"{star.transferred:.3g} transferred; correlation optimum at "
                  f"r = {rows[k_corr].r} with {transfer_at_corr_opt:.3g} transferred "
                  f"(targets: M in [0.06, 0.13], 1e6 and 2.3e5 within 3x)")


def test_criterion_07_working_point(fig3_ensemble):
    gain_g = 100.0
    curve = at_pi_2(fig3_ensemble, gain_g)
    m, sign = curve.m[0], curve.correction_sign
    # the correlations that scatter reports: S_a = B cos(phi) + C sin(phi) against S_b / g
    features = fringe_features(fig3_ensemble, gain_g)
    b, c, s_b_over_g = features.T
    corrs = {}
    for phi in (np.pi / 2, np.pi, 3 * np.pi / 2):
        s_a = b * np.cos(phi) + c * np.sin(phi)
        corrs[phi] = float(np.corrcoef(s_a, s_b_over_g)[0, 1])
    ok = (0.06 <= m <= 0.13
          and corrs[np.pi / 2] > 0.9
          and abs(corrs[np.pi]) < 0.1
          and corrs[3 * np.pi / 2] < -0.9)
    report(7, ok, f"working point r=3, seed 1e4, g=100: M(pi/2) = {m:.4f} (sign {sign}); "
                  f"correlations {corrs[np.pi/2]:+.3f} at pi/2, {corrs[np.pi]:+.3f} at pi, "
                  f"{corrs[3*np.pi/2]:+.3f} at 3pi/2")


def test_criterion_08_gain_saturation_and_sign(fig3_ensemble):
    at_100 = at_pi_2(fig3_ensemble, 100.0)
    m100, width = at_100.m[0], at_100.m_ci_hi[0] - at_100.m_ci_lo[0]
    m1000 = at_pi_2(fig3_ensemble, 1000.0).m[0]
    anti = "minus" if at_100.correction_sign == "plus" else "plus"
    m_anti = at_pi_2(fig3_ensemble, 100.0, anti).m[0]
    m_off = at_pi_2(fig3_ensemble, 100.0, "off").m[0]
    ok = abs(m1000 - m100) < width and m_anti > m_off
    report(8, ok, f"gain 100 -> 1000 moves M by {abs(m1000-m100):.2e} < CI width {width:.2e}; "
                  f"anti-calibrated M = {m_anti:.2f} > uncorrected M = {m_off:.2f}")


def test_criterion_09_low_gain_photon_inclusive():
    best = None
    for r in (2.0, 2.25, 2.5):
        ens = build_ensembles(N_TOTAL, 1.0e4, [r], 1000, MASTER_SEED)[0]
        gain_g = 1.0
        m = at_pi_2(ens, gain_g).m[0]
        if best is None or m < best[0]:
            best = (m, r, detected_photons(ens, gain_g))
    m, r, n_p = best
    m_inclusive = m * np.sqrt((N_TOTAL + n_p) / N_TOTAL)
    ok = 0.15 <= m <= 0.30 and m_inclusive < 1.0
    report(9, ok, f"g = 1, r = {r}: M = {m:.3f} in [0.15, 0.30]; with N_p = {n_p:.3g} photons "
                  f"counted, delta_phi * sqrt(N_t + N_p) = {m_inclusive:.3f} < 1")


def test_criterion_10_feasibility_numbers():
    setup = PhysicalSetup()  # bundled Rb-87 / 1 kHz / 780 nm
    f = capture_fraction(setup)
    ratio = rate_ratio(setup)
    ok = 0.025 <= f <= 0.035 and 250 <= ratio <= 350
    report(10, ok, f"capture fraction F = {f:.4f} in [0.025, 0.035]; "
                   f"rate ratio at seed 1e4 = {ratio:.0f} in [250, 350]")


def test_criterion_11_determinism(tmp_path):
    args = ["phi-sweep", "--set", "trajectories=200", "--set", "r=1.5",
            "--set", "phi_count=21", "--set", "bootstrap_resamples=100"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--threads", "4"]) == 0
    summary = tmp_path / "a" / "phi_sweep_summary.json"
    assert main(["phi-sweep", "--config", str(summary), "--out", str(tmp_path / "c")]) == 0
    files = ["phi_sweep.csv", "phi_sweep_summary.json"]
    same_threads = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )
    same_rerun = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "c" / f).read_bytes() for f in files
    )
    report(11, same_threads and same_rerun,
           "byte-identical outputs across thread counts and when re-run from the "
           "embedded config")
