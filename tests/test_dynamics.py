"""Integrator and closed form vs their oracles, conservation laws, growth laws."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ellipj, ellipkinc, elliprc, elliprf, elliprj

from atomlight import dynamics, threewave
from atomlight.dynamics import (
    Ensemble,
    IntegrationError,
    IntegratorSpec,
    build_ensembles,
    evolve_analytic,
    evolve_closed_form,
    evolve_tw,
    transferred_atoms,
)
from atomlight.phasespace import ModeTriple, occupation, sample_initial_ensemble

SEED = 4242


def small_vacuum_ensemble(n_traj=2000, n_total=1.0e7, n_seed=0.0):
    return sample_initial_ensemble(n_total, n_seed, SEED, n_traj)


def on_threads(n_threads, call):
    """Results of call() started at once on n_threads threads, one per thread.

    The integrator keeps no state between calls (each has its own workspace),
    so callers on several threads must each get what a lone caller gets."""
    start = threading.Barrier(n_threads)

    def run():
        start.wait()
        return call()

    with ThreadPoolExecutor(n_threads) as pool:
        return [f.result() for f in [pool.submit(run) for _ in range(n_threads)]]


# --- identity and exact-map values -----------------------------------------

def test_r_zero_is_identity():
    t0 = small_vacuum_ensemble(64)
    t1, report = evolve_tw(t0, 0.0)
    assert np.array_equal(t1.alpha2, t0.alpha2)
    assert np.array_equal(t1.beta2, t0.beta2)
    assert t1.time_tag == "t1"
    assert report.max_rel_drift_atoms == 0.0


def test_analytic_map_r_zero_identity():
    t0 = small_vacuum_ensemble(64)
    t1 = evolve_analytic(t0, 0.0)
    assert np.array_equal(t1.alpha2, t0.alpha2)
    assert np.array_equal(t1.beta2, t0.beta2)


def test_analytic_map_known_point():
    # alpha2 = 1, beta2 = 0, r = ln sqrt(2): cosh = 3/(2 sqrt 2), sinh = 1/(2 sqrt 2)
    state = ModeTriple(alpha1=100.0 + 0j, alpha2=1.0 + 0j, beta2=0j)
    r = np.log(np.sqrt(2.0))
    out = evolve_analytic(state, r)
    assert out.alpha2 == pytest.approx(1.0606601717798212, rel=1e-12)
    assert out.beta2 == pytest.approx(1j * 0.35355339059327373, rel=1e-12)
    assert out.alpha1 == state.alpha1


def test_bogoliubov_coefficients_canonical():
    # |cosh|^2 - |sinh|^2 = 1: extract the map's coefficients from basis inputs
    for r in (0.5, 1.0, 2.0, 3.0):
        e_a = evolve_analytic(ModeTriple(1.0 + 0j, 1.0 + 0j, 0j), r)
        e_b = evolve_analytic(ModeTriple(1.0 + 0j, 0j, 1.0 + 0j), r)
        c = e_a.alpha2      # coefficient of alpha2(0)
        s = e_b.alpha2      # coefficient of conj(beta2(0)), times i
        assert abs(c) ** 2 - abs(s) ** 2 == pytest.approx(1.0, abs=1e-12)


# --- oracle equivalence ------------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
def test_clamped_integrator_matches_analytic_map(r):
    t0 = small_vacuum_ensemble(200, n_seed=1.0e4)
    ref = evolve_analytic(t0, r)
    num, _ = evolve_tw(t0, r, IntegratorSpec(clamp_pump=True), n_pump0=1.0e7 - 1.0e4)
    for attr in ("alpha2", "beta2"):
        a = getattr(ref, attr)
        b = getattr(num, attr)
        scale = np.abs(a).max()
        assert np.abs(b.real - a.real).max() < 1e-6 * scale
        assert np.abs(b.imag - a.imag).max() < 1e-6 * scale
    assert np.array_equal(num.alpha1, t0.alpha1)  # pump frozen


# --- growth laws -------------------------------------------------------------

def test_vacuum_growth_follows_sinh_squared():
    t0 = small_vacuum_ensemble(4000)
    t1, _ = evolve_tw(t0, 1.0, IntegratorSpec(clamp_pump=True))
    occ = occupation(t1.alpha2)
    expected = np.sinh(1.0) ** 2  # 1.3811
    se = np.std(np.abs(t1.alpha2) ** 2, ddof=1) / np.sqrt(t0.n_traj)
    assert abs(occ - expected) < 3 * se


def test_seeded_growth_law():
    # coherent seed s: occupation -> s cosh^2 r + sinh^2 r
    s, r = 400.0, 1.5
    t0 = sample_initial_ensemble(1.0e7, s, SEED, 4000)
    t1, _ = evolve_tw(t0, r, IntegratorSpec(clamp_pump=True))
    expected = s * np.cosh(r) ** 2 + np.sinh(r) ** 2
    se = np.std(np.abs(t1.alpha2) ** 2, ddof=1) / np.sqrt(t0.n_traj)
    assert abs(occupation(t1.alpha2) - expected) < 3 * se


def test_squeezed_combination_variance_matches_covariance_oracle():
    # oracle: propagate the t0 covariance of (Re a2, Im a2, Re b2, Im b2)
    # through the linear Bogoliubov map and read off Var(X_a2 + Y_b2)
    r = 2.0
    ch, sh = np.cosh(r), np.sinh(r)
    # Re a2' = ch Re a2 + sh Im b2 ; Im a2' = ch Im a2 + sh Re b2
    # Re b2' = ch Re b2 + sh Im a2 ; Im b2' = ch Im b2 + sh Re a2
    m = np.array([
        [ch, 0, 0, sh],
        [0, ch, sh, 0],
        [0, sh, ch, 0],
        [sh, 0, 0, ch],
    ])
    cov0 = np.eye(4) * 0.25
    cov1 = m @ cov0 @ m.T
    v = np.array([2.0, 0.0, 0.0, -2.0])  # X_a2 + Y_b2
    oracle = float(v @ cov1 @ v)
    assert oracle == pytest.approx(2.0 * np.exp(-2.0 * r), rel=1e-12)  # = 0.03663

    t0 = small_vacuum_ensemble(10_000)
    t1, _ = evolve_tw(t0, r, IntegratorSpec(clamp_pump=True))
    combo = 2.0 * t1.alpha2.real - 2.0 * t1.beta2.imag
    var = np.var(combo, ddof=1)
    rel_se = np.sqrt(2.0 / (t0.n_traj - 1))
    assert abs(var - oracle) < 5 * rel_se * oracle


# --- conservation ------------------------------------------------------------

def test_conservation_default_steps():
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    _, report = evolve_tw(t0, 3.0, n_pump0=1.0e7 - 1.0e4)
    assert report.max_rel_drift_atoms < 1e-8
    assert report.max_rel_drift_manley_rowe < 1e-8


def test_fourth_order_convergence():
    # halving the step must cut the drift by at least 8x (use coarse steps so
    # truncation error sits well above roundoff)
    t0 = small_vacuum_ensemble(200, n_seed=1.0e4)
    _, coarse = evolve_tw(t0, 3.0, IntegratorSpec(steps_per_unit_r=50))
    _, fine = evolve_tw(t0, 3.0, IntegratorSpec(steps_per_unit_r=100))
    assert coarse.max_rel_drift_atoms / fine.max_rel_drift_atoms >= 8.0
    assert coarse.max_rel_drift_manley_rowe / fine.max_rel_drift_manley_rowe >= 8.0


# --- the RK4 error estimate and the depleted-pump oracle ---------------------

@pytest.mark.parametrize("n_seed,r", [(1.0e4, 3.0), (1.0e4, 4.0), (0.0, 5.5)])
def test_step_doubling_estimate_is_honest(n_seed, r):
    # the true amplitude error at the default lattice, against a 16x finer run,
    # relative to each trajectory's largest amplitude
    t0 = sample_initial_ensemble(1.0e7, n_seed, SEED, 200)
    coarse, report = evolve_tw(t0, r, n_pump0=1.0e7 - n_seed)
    fine_spec = IntegratorSpec(steps_per_unit_r=16 * dynamics.DEFAULT_STEPS_PER_UNIT_R)
    fine, _ = evolve_tw(t0, r, fine_spec, n_pump0=1.0e7 - n_seed)
    y_h = np.stack([coarse.alpha1, coarse.alpha2, coarse.beta2])
    y_ref = np.stack([fine.alpha1, fine.alpha2, fine.beta2])
    true = np.max(np.max(np.abs(y_h - y_ref), axis=0) / np.max(np.abs(y_ref), axis=0))
    assert report.rk4_error / 3 < true < 3 * report.rk4_error


def exact_n2(a1, a2, b2, kappa, s):
    """|alpha2|^2 of one trajectory of the full three-wave equations at times s.

    With P = conj(a1) a2 b2, H = Re P, T = n1 + n2 and M = n2 - nb conserved,
    (dn2/ds)^2 = 4 kappa^2 (T - n2) n2 (n2 - M) - 4 kappa^2 H^2
               = 4 kappa^2 (a - n2) (n2 - b) (n2 - c)   with roots c < b < a,
    so n2 = a - (a - b) sn^2(kappa sqrt(a - c) s + u0 | m), m = (a - b)/(a - c),
    and dn2/ds = 2 kappa Im P fixes the sign of u0 (Armstrong et al. 1962).
    """
    n1, n2, nb = abs(a1) ** 2, abs(a2) ** 2, abs(b2) ** 2
    p = np.conj(a1) * a2 * b2
    t, m_r = n1 + n2, n2 - nb
    c, b, a = np.sort(np.roots([-1.0, t + m_r, -t * m_r, -p.real ** 2]).real)
    m = (a - b) / (a - c)
    u0 = ellipkinc(np.arcsin(np.sqrt(np.clip((a - n2) / (a - b), 0.0, 1.0))), m)
    if p.imag > 0:  # n2 rising at s = 0: sn^2 falling
        u0 = -u0
    sn = ellipj(u0 + kappa * np.sqrt(a - c) * np.asarray(s), m)[0]
    return a - (a - b) * sn ** 2


def check_the_depleted_pump(propagate):
    """propagate(t0, r_values, n_pump0) -> [(state, report)] against exact_n2."""
    # 990 pump atoms, seed 10: the transferred mode takes most of the pump near
    # r = 4 and gives it back by r = 6
    n_total, n_seed = 1.0e3, 10.0
    r_values = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    t0 = sample_initial_ensemble(n_total, n_seed, SEED, 40)
    pairs = propagate(t0, r_values, n_total - n_seed)
    kappa = 1.0 / np.sqrt(n_total - n_seed)
    want = np.array([exact_n2(*y, kappa, r_values)
                     for y in zip(t0.alpha1, t0.alpha2, t0.beta2)]).T
    assert np.mean(want[4]) > 0.5 * n_total > np.mean(want[6])
    for (state, _), exact in zip(pairs, want, strict=True):
        assert np.max(np.abs(np.abs(state.alpha2) ** 2 - exact) / exact) < 1e-6


def test_depleted_pump_matches_the_elliptic_solution():
    check_the_depleted_pump(
        lambda t0, stops, n_pump0: evolve_tw(t0, stops[-1], n_pump0=n_pump0, stops=stops)[0])


def test_closed_form_matches_the_elliptic_solution():
    check_the_depleted_pump(evolve_closed_form)


# --- transferred atoms -------------------------------------------------------

def test_transferred_atoms_zero_at_r_zero():
    ens = build_ensembles(1.0e7, 0.0, [0.0], 2000, SEED)[0]
    se = 0.5 / np.sqrt(2000)  # Var(|vacuum sample|^2) = 1/4
    assert abs(transferred_atoms(ens)) < 3 * se


def test_transferred_atoms_clamped_sinh():
    ens = build_ensembles(1.0e7, 0.0, [1.0], 4000, SEED, mode="clamped")[0]
    se = np.std(np.abs(ens.state.alpha2) ** 2, ddof=1) / np.sqrt(4000)
    assert abs(transferred_atoms(ens) - np.sinh(1.0) ** 2) < 3 * se


# --- modes and diagnostics ---------------------------------------------------

def test_full_dynamics_deplete_the_pump():
    # per trajectory the pump gives up what the transferred mode gains, so
    # the full dynamics have no range to refuse
    full = build_ensembles(1.0e7, 1.0e4, [2.5], 3000, SEED, mode="tw")[0]
    n1, n2 = np.abs(full.state.alpha1) ** 2, np.abs(full.state.alpha2) ** 2
    assert np.corrcoef(n1, n2)[0, 1] < -0.5  # anti-correlated
    assert build_ensembles(1.0e7, 1.0e4, [4.25], 100, SEED, mode="tw")[0].r == 4.25


@pytest.mark.parametrize("mode", ["analytic", "clamped"])
def test_held_pump_refuses_r_past_the_pump_before_sampling(mode, monkeypatch):
    # (n_seed + 1) sinh^2 r may not exceed the n_total - n_seed pump atoms:
    # 10001 sinh^2 4 = 7.45e6 fits in 9.99e6, and 10001 sinh^2 4.25 = 1.23e7 does not
    assert build_ensembles(1.0e7, 1.0e4, [4.0], 100, SEED, mode=mode)[0].r == 4.0

    def unreachable(*args, **kwargs):
        raise AssertionError("sampled past the pump")

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", unreachable)
    with pytest.raises(ValueError, match=rf"^r = 4.25 is past the {mode} mode's "
                                         r"undepleted-pump range: it transfers .* = 1.2"):
        build_ensembles(1.0e7, 1.0e4, [1.0, 4.5, 4.25], 100, SEED, mode=mode)
    with pytest.raises(ValueError, match=r"^r = 900.0 .* = inf atoms"):  # sinh overflows
        build_ensembles(1.0e7, 1.0e4, [900.0], 100, SEED, mode=mode)


def test_nonfinite_state_aborts_with_diagnostics():
    t0 = ModeTriple(np.array([np.inf + 0j]), np.array([0j]), np.array([0j]))
    with pytest.raises(IntegrationError) as err:
        evolve_tw(t0, 1.0)
    assert err.value.step_index == 0
    assert isinstance(err.value.snapshot, ModeTriple)


def test_wrong_time_tag_rejected():
    state = ModeTriple(1.0 + 0j, 0j, 0j, "t1")
    with pytest.raises(ValueError):
        evolve_tw(state, 1.0)
    with pytest.raises(ValueError):
        evolve_analytic(state, 1.0)


def test_negative_r_rejected():
    t0 = small_vacuum_ensemble(8)
    with pytest.raises(ValueError):
        evolve_tw(t0, -0.5)
    with pytest.raises(ValueError):
        evolve_analytic(t0, -0.5)


# --- determinism -------------------------------------------------------------

def test_build_ensembles_deterministic():
    a = build_ensembles(1.0e6, 100.0, [1.5], 400, SEED)[0]
    b = build_ensembles(1.0e6, 100.0, [1.5], 400, SEED)[0]
    assert np.array_equal(a.state.alpha1, b.state.alpha1)
    assert np.array_equal(a.state.alpha2, b.state.alpha2)
    assert np.array_equal(a.state.beta2, b.state.beta2)


# --- one pass for many r -----------------------------------------------------

@pytest.mark.parametrize("mode", ["tw", "clamped", "analytic"])
@pytest.mark.parametrize("n_threads", [1, 2])
def test_build_ensembles_equals_per_r_builds(mode, n_threads):
    # unsorted, repeated lattice values: each one is a prefix of the pass to the largest
    r_values = [1.5, 0.25, 1.0, 0.25, 0.0]
    for many in on_threads(
            n_threads, lambda: build_ensembles(1.0e6, 100.0, r_values, 200, SEED, mode=mode)):
        assert [ens.r for ens in many] == r_values
        for r, ens in zip(r_values, many):
            one = build_ensembles(1.0e6, 100.0, [r], 200, SEED, mode=mode)[0]
            for attr in ("alpha1", "alpha2", "beta2"):
                assert np.array_equal(getattr(ens.state, attr), getattr(one.state, attr))
            assert ens.conservation == one.conservation
            assert ens.state.time_tag == "t1"


def test_off_lattice_r_takes_one_shorter_step():
    # r = 400/401 lies between steps of the 1/400 lattice; the uniform-step
    # result is 400 steps of 1/401, whose lattice holds r
    r = 400 / 401
    spec = IntegratorSpec(steps_per_unit_r=400)
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    shorter, _ = evolve_tw(t0, r, spec, n_pump0=1.0e7 - 1.0e4)
    uniform, _ = evolve_tw(t0, r, IntegratorSpec(steps_per_unit_r=401), n_pump0=1.0e7 - 1.0e4)
    for attr in ("alpha1", "alpha2", "beta2"):
        a, b = getattr(shorter, attr), getattr(uniform, attr)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12
    # the shorter step is taken on a copy: the pass on to a later stop is unchanged
    pairs, _ = evolve_tw(t0, 2.0, spec, n_pump0=1.0e7 - 1.0e4, stops=[r, 2.0])
    direct, report = evolve_tw(t0, 2.0, spec, n_pump0=1.0e7 - 1.0e4)
    assert np.array_equal(pairs[0][0].alpha2, shorter.alpha2)
    assert np.array_equal(pairs[1][0].alpha2, direct.alpha2)
    assert pairs[1][1] == report


@pytest.mark.parametrize("r", [2.2, np.nextafter(2.2, 3.0)])
def test_r_within_rounding_of_the_lattice_takes_whole_steps(r):
    # 400 * r = 880.0000000000001: 880 whole steps of 1/400, no extra step,
    # so the state equals 800 steps continued by 80 more
    assert 400 * r != 880
    spec = IntegratorSpec(steps_per_unit_r=400, clamp_pump=True)
    t0 = small_vacuum_ensemble(50, n_seed=1.0e4)
    whole, _ = evolve_tw(t0, r, spec)
    mid, _ = evolve_tw(t0, 2.0, spec)
    rest, _ = evolve_tw(ModeTriple(mid.alpha1, mid.alpha2, mid.beta2), 0.2, spec)
    assert np.array_equal(whole.alpha2, rest.alpha2)
    assert np.array_equal(whole.beta2, rest.beta2)


def test_stops_must_rise_to_r():
    t0 = small_vacuum_ensemble(8)
    for stops in ([0.5, 0.25, 1.0], [0.5, 0.5, 1.0], [0.5], [-0.5, 1.0], [0.5, np.nan, 1.0]):
        with pytest.raises(ValueError):
            evolve_tw(t0, 1.0, stops=stops)
    with pytest.raises(ValueError):
        build_ensembles(1.0e6, 0.0, [], 8, SEED)


# --- the in-place integrator against the allocate-per-operation forms ----------

def textbook_integrate(a1, a2, b2, stops, spec, n_pump0):
    """Classical RK4 as y + (h/6) (k1 + 2 k2 + 2 k3 + k4), with a fresh array per
    operation: the oracle the folded step must match to rounding."""
    h = 1.0 / spec.steps_per_unit_r
    inv_sq_n1 = 1.0 / np.sqrt(n_pump0)

    def f(a1, a2, b2):
        if spec.clamp_pump:
            return np.zeros_like(a1), 1j * np.conj(b2), 1j * np.conj(a2)
        return (
            1j * b2 * a2 * inv_sq_n1,
            1j * a1 * np.conj(b2) * inv_sq_n1,
            1j * a1 * np.conj(a2) * inv_sq_n1,
        )

    def rk4_step(h, a1, a2, b2):
        k1 = f(a1, a2, b2)
        k2 = f(a1 + 0.5 * h * k1[0], a2 + 0.5 * h * k1[1], b2 + 0.5 * h * k1[2])
        k3 = f(a1 + 0.5 * h * k2[0], a2 + 0.5 * h * k2[1], b2 + 0.5 * h * k2[2])
        k4 = f(a1 + h * k3[0], a2 + h * k3[1], b2 + h * k3[2])
        return tuple(y + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                     for i, y in enumerate((a1, a2, b2)))

    run, out, done = (a1, a2, b2), [], 0
    for r in stops:
        n = spec.steps_per_unit_r * r
        n_full = int(np.floor(n + 1e-9))
        for _ in range(done, n_full):
            run = rk4_step(h, *run)
        done = n_full
        out.append(rk4_step((n - n_full) * h, *run) if n - n_full > 1e-9 else run)
    return out


def reference_integrate(a1, a2, b2, stops, spec, n_pump0, steps_per_unit_r=None):
    """The folded RK4 step written with a fresh array per operation: the form the
    buffered integrator must reproduce bit for bit (on spec's lattice unless
    steps_per_unit_r is given).  k'1 = (h/2) f(y), k'2 = (h/2) f(y + k'1),
    k'3 = h f(y + k'2), k'4 = (h/2) f(y + k'3), y += (k'1 + 2 k'2 + k'3 + k'4) / 3;
    with the pump clamped the stages run on (a2, b2) alone."""
    steps_per_unit_r = steps_per_unit_r or spec.steps_per_unit_r
    h = 1.0 / steps_per_unit_r
    inv_sq_n1 = 1.0 / np.sqrt(n_pump0)

    def f(y, c):  # c times the right-hand side
        if spec.clamp_pump:
            a2, b2 = y
            return np.stack([(1j * c) * np.conj(b2), (1j * c) * np.conj(a2)])
        a1, a2, b2 = y
        w = 1j * (c * inv_sq_n1)
        return np.stack([(w * b2) * a2, (w * a1) * np.conj(b2), (w * a1) * np.conj(a2)])

    def norm2(z):
        return z.real ** 2 + z.imag ** 2

    tot0 = norm2(a1) + norm2(a2)
    mr0 = norm2(a2) - norm2(b2)

    def rk4_step(h, a1, a2, b2, dev_atoms, dev_mr, scale_mr):
        y = np.stack([a2, b2] if spec.clamp_pump else [a1, a2, b2])
        k1 = f(y, 0.5 * h)
        k2 = f(y + k1, 0.5 * h)
        k3 = f(y + k2, h)
        k4 = f(y + k3, 0.5 * h)
        y = y + (k1 + 2.0 * k2 + k3 + k4) * (1.0 / 3.0)
        a1, a2, b2 = (a1, *y) if spec.clamp_pump else y
        n2, nb = norm2(a2), norm2(b2)
        if not spec.clamp_pump:
            dev_atoms = np.maximum(dev_atoms, np.abs(norm2(a1) + n2 - tot0))
        dev_mr = np.maximum(dev_mr, np.abs(n2 - nb - mr0))
        scale_mr = np.maximum(scale_mr, n2 + nb)
        return a1, a2, b2, dev_atoms, dev_mr, scale_mr

    run = (a1, a2, b2, np.zeros_like(tot0), np.zeros_like(mr0), norm2(a2) + norm2(b2))
    out, done = [], 0
    for r in stops:
        n = steps_per_unit_r * r
        n_full = int(np.floor(n + 1e-9))
        for _ in range(done, n_full):
            run = rk4_step(h, *run)
        done = n_full
        end = rk4_step((n - n_full) * h, *run) if n - n_full > 1e-9 else run
        a1_r, a2_r, b2_r, dev_atoms, dev_mr, scale_mr = end
        rel_atoms = 0.0 if spec.clamp_pump else float(np.max(dev_atoms / tot0))
        out.append((a1_r, a2_r, b2_r, rel_atoms, float(np.max(dev_mr)), float(np.max(scale_mr))))
    return out


def step_doubling_estimate(h_pass, h2_pass):
    """Per stop, the largest |y_h - y_2h| / 15 relative to the trajectory's largest amplitude."""
    out = []
    for fine, coarse in zip(h_pass, h2_pass, strict=True):
        y_h, y_2h = np.stack(fine[:3]), np.stack(coarse[:3])
        rel = np.max(np.abs(y_h - y_2h), axis=0) / np.max(np.abs(y_h), axis=0)
        out.append(float(np.max(rel)) / 15.0)
    return out


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("stops", [[0.25, 1.2345, 2.2, 3.0], [400 / 401], [0.0, 1.0]])
def test_integrator_is_bit_identical_to_the_reference(clamp, stops):
    check_against_the_reference(IntegratorSpec(clamp_pump=clamp), stops)


@pytest.mark.parametrize("clamp", [False, True])
def test_odd_step_count_is_bit_identical_to_the_reference(clamp):
    # 41 steps per unit r: the 2h pass (20.5 per unit r) ends every stop but 2.0 off its lattice
    check_against_the_reference(IntegratorSpec(steps_per_unit_r=41, clamp_pump=clamp),
                                [0.25, 1.2345, 2.0, 2.2, 3.0])


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("steps", [40, 41])
def test_folded_step_matches_the_textbook_rk4(clamp, steps):
    # the folded stages are classical RK4 rearranged: only the roundings differ
    spec = IntegratorSpec(steps_per_unit_r=steps, clamp_pump=clamp)
    stops = [0.25, 1.2345, 2.0, 2.2, 3.0]
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    pairs, _ = evolve_tw(t0, stops[-1], spec, n_pump0=1.0e7 - 1.0e4, stops=stops)
    oracle = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, stops, spec, 1.0e7 - 1.0e4)
    for want, (state, _) in zip(oracle, pairs, strict=True):
        for x, attr in zip(want, ("alpha1", "alpha2", "beta2"), strict=True):
            assert np.max(np.abs(getattr(state, attr) - x) / np.abs(x)) <= 1e-13


@pytest.mark.parametrize("n_threads", [1, 2])
def test_clamped_pump_is_never_written(n_threads):
    # the stage slots are shared scratch; with the pump clamped alpha1 must
    # come out of every stop, on and off the lattice, bit for bit as it went in
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    for pairs, _ in on_threads(n_threads, lambda: evolve_tw(
            t0, 3.0, IntegratorSpec(clamp_pump=True), n_pump0=1.0e7 - 1.0e4,
            stops=[0.25, 1.2345, 2.0, 3.0])):
        for state, _ in pairs:
            assert state.alpha1.tobytes() == t0.alpha1.tobytes()


def check_against_the_reference(spec, stops):
    steps = spec.steps_per_unit_r
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    y0 = np.stack([t0.alpha1, t0.alpha2, t0.beta2])
    ref = reference_integrate(*y0, stops, spec, 1.0e7 - 1.0e4)
    rk4 = step_doubling_estimate(
        ref, reference_integrate(*y0, stops, spec, 1.0e7 - 1.0e4, steps_per_unit_r=steps / 2))
    states = np.empty((len(stops),) + y0.shape, dtype=np.complex128)
    got = dynamics._evolve_chunk(y0, dynamics._Workspace(y0.shape[1]), states, stops, spec,
                                 1.0e7 - 1.0e4)
    for want, state, have, err in zip(ref, states, got, rk4, strict=True):
        for x, y in zip(want[:3], state):
            assert np.array_equal(x, y)
        assert list(want[3:]) == have[:3]  # drift extrema, exactly
        assert have[3] == err
    # the input is not touched by the in-place steps
    assert np.array_equal(y0, np.stack([t0.alpha1, t0.alpha2, t0.beta2]))
    pairs, run = evolve_tw(t0, stops[-1], spec, n_pump0=1.0e7 - 1.0e4, stops=stops)
    for want, err, (state, report) in zip(ref, rk4, pairs, strict=True):
        assert np.array_equal(state.alpha1, want[0])
        assert np.array_equal(state.alpha2, want[1])
        assert np.array_equal(state.beta2, want[2])
        assert report.max_rel_drift_atoms == want[3]
        assert report.max_rel_drift_manley_rowe == want[4] / max(1.0, want[5])
        assert report.rk4_error == err
    assert run.rk4_error == max(rk4)


def test_integration_error_reports_the_failing_step():
    # with the pump clamped, a2 = 1e308 grows as cosh(r) until the state itself
    # overflows (the folded stages are scaled before they are summed); every
    # other trajectory stays finite
    spec = IntegratorSpec(steps_per_unit_r=400, clamp_pump=True)
    t0 = small_vacuum_ensemble(6)
    a1, a2, b2 = (np.array(getattr(t0, k)) for k in ("alpha1", "alpha2", "beta2"))
    a2[3] = 1.0e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            evolve_tw(ModeTriple(a1, a2, b2), 3.0, spec)
        failing = err.value.step_index
        # the reference path is finite after `failing` steps and not after one more
        before, after = reference_integrate(a1, a2, b2, [failing / 400, (failing + 1) / 400],
                                            spec, 1.0e7)
    assert 0 < failing < 1200
    assert np.all(np.isfinite(before[0] + before[1] + before[2]))
    snap = err.value.snapshot
    assert isinstance(snap, ModeTriple) and snap.n_traj == 6
    probe = snap.alpha1 + snap.alpha2 + snap.beta2
    assert not np.isfinite(probe[3]) and not np.isfinite(after[0] + after[1] + after[2])[3]
    assert np.array_equal(np.isfinite(probe), np.isfinite(after[0] + after[1] + after[2]))


def first_nonfinite_reference(y0, stops, spec, n_pump0, steps_per_unit_r):
    """The position in stops of the reference's first non-finite state, and that state."""
    states = reference_integrate(*y0, stops, spec, n_pump0, steps_per_unit_r=steps_per_unit_r)
    return next((i, s[:3]) for i, s in enumerate(states) if not np.isfinite(np.stack(s[:3])).all())


def assert_snapshot_is(err, state):
    snap = err.snapshot
    for got, want in zip((snap.alpha1, snap.alpha2, snap.beta2), state, strict=True):
        np.testing.assert_array_equal(got, want)  # NaN where the reference has NaN


def test_a_failure_first_on_the_2h_pass_replays_to_its_step():
    # with alpha2 = 100 and N1(0) = 1 the pair (alpha1, beta2) of trajectory 3
    # oscillates at 100 per unit r: RK4 is stable on h = 1/40 (100 h = 2.5 < 2.8)
    # and not on 2h, so the h pass ends finite and the 2h pass overflows
    a1, a2, b2 = np.ones(5, complex), np.ones(5, complex), np.zeros(5, complex)
    a2[3] = 100.0
    spec = IntegratorSpec()
    with np.errstate(over="ignore", invalid="ignore"):
        (h_pass,) = reference_integrate(a1, a2, b2, [3.0], spec, 1.0)
        assert np.isfinite(np.stack(h_pass[:3])).all()
        with pytest.raises(IntegrationError) as err:
            evolve_tw(ModeTriple(a1, a2, b2), 3.0, spec, n_pump0=1.0)
        # the ends of the 60 steps of the 2h pass: the k-th is step index k
        step, state = first_nonfinite_reference((a1, a2, b2), [(k + 1) / 20 for k in range(60)],
                                                spec, 1.0, 20)
    assert (err.value.lattice, err.value.step_index) == ("2h", step)
    assert_snapshot_is(err.value, state)


def test_a_failure_in_a_partial_step_replays_to_its_step():
    # a2 ~ 9.68e307 cosh r overflows between the end of step 48 (r = 49/40) and
    # the stop 1.2345, so the failing step is the partial one (index 49) to that stop
    spec = IntegratorSpec(clamp_pump=True)
    t0 = small_vacuum_ensemble(6)
    a1, a2, b2 = (np.array(getattr(t0, k)) for k in ("alpha1", "alpha2", "beta2"))
    a2[3] = 9.68e307
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            evolve_tw(ModeTriple(a1, a2, b2), 2.0, spec, n_pump0=1.0e7, stops=[0.5, 1.2345, 2.0])
        at, state = first_nonfinite_reference((a1, a2, b2), [0.5, 49 / 40, 1.2345], spec, 1.0e7, 40)
    assert at == 2
    assert (err.value.lattice, err.value.step_index) == ("h", 49)
    assert_snapshot_is(err.value, state)


def test_a_stop_at_r_zero_checks_no_step():
    # no step runs to r = 0, so its input passes unchecked; the first step fails
    t0 = ModeTriple(np.array([np.inf + 0j, 1.0 + 0j]), np.zeros(2, complex), np.zeros(2, complex))
    state, _ = evolve_tw(t0, 0.0)
    assert state.alpha1.tobytes() == t0.alpha1.tobytes()
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as err:
        evolve_tw(t0, 1.0, stops=[0.0, 1.0])
    assert (err.value.lattice, err.value.step_index) == ("h", 0)


# --- the workspace -----------------------------------------------------------------

@pytest.mark.parametrize("width", [7, 1000, 1001, 4999, 5000])
def test_every_workspace_row_starts_on_a_cache_line(width):
    # three-operand ufuncs run about 2x slower on operands that start off a 64-byte line
    ws = dynamics._Workspace(width)

    def offsets(arrays):
        return {a[row].ctypes.data % 64 for a in arrays for row in np.ndindex(a.shape[:-1])}

    assert offsets(ws._buffers.values()) == {0}
    for n in (width, width // 2 + 1):  # a whole chunk and a short last chunk
        t0 = small_vacuum_ensemble(n)
        ws.start([t0.alpha1, t0.alpha2, t0.beta2])
        views = [getattr(ws, name) for name in [*ws._buffers, "im2", "tot0", "mr0", "scale0"]]
        assert {v.shape[-1] for v in views} == {n}
        assert offsets(views) == {0}


# --- fixed-size chunks -----------------------------------------------------------

CHUNK = 7


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("n_threads", [1, 2])
def test_chunk_boundaries_change_nothing(clamp, n_threads, monkeypatch):
    # stops on (0.25, 2.2) and off (1.2345) the lattice; n around one and two chunks
    spec, stops = IntegratorSpec(clamp_pump=clamp), [0.25, 1.2345, 2.2]
    for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
        t0 = small_vacuum_ensemble(n, n_seed=1.0e4)
        assert dynamics.RK4_CHUNK > n  # one chunk
        whole, whole_run = evolve_tw(t0, 2.2, spec, n_pump0=1.0e7 - 1.0e4, stops=stops)
        widths = []

        class Counted(dynamics._Workspace):
            def __init__(self, width):
                widths.append(width)
                super().__init__(width)

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "RK4_CHUNK", CHUNK)
            patch.setattr(dynamics, "_Workspace", Counted)
            runs = on_threads(n_threads, lambda: evolve_tw(t0, 2.2, spec, n_pump0=1.0e7 - 1.0e4,
                                                           stops=stops))
        assert widths == [min(CHUNK, n)] * n_threads  # one workspace per call, one chunk wide
        for chunked, chunked_run in runs:
            for (want, want_report), (got, got_report) in zip(whole, chunked, strict=True):
                for attr in ("alpha1", "alpha2", "beta2"):
                    assert np.array_equal(getattr(got, attr), getattr(want, attr))
                assert got_report == want_report
            assert chunked_run == whole_run


@pytest.mark.parametrize("n_threads, chunk", [(1, None), (2, None), (1, 4), (2, 4)])
def test_integration_error_does_not_depend_on_chunks_or_threads(n_threads, chunk, monkeypatch):
    # trajectory 9 (a2 = 1e308) overflows first, on the h pass; trajectory 2
    # (a2 = 1e307) later, and in another chunk when chunks are 4 wide
    spec = IntegratorSpec(steps_per_unit_r=400, clamp_pump=True)
    t0 = sample_initial_ensemble(1.0e7, 0.0, 5, 12)
    a2 = np.array(t0.alpha2)
    a2[2], a2[9] = 1.0e307, 1.0e308
    state = ModeTriple(t0.alpha1, a2, t0.beta2)

    def failure():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
            evolve_tw(state, 5.0, spec, n_pump0=1.0e7)
        return err.value

    whole = failure()  # one chunk of the whole ensemble
    if chunk is not None:
        monkeypatch.setattr(dynamics, "RK4_CHUNK", chunk)
    for got in on_threads(n_threads, failure):
        assert (got.lattice, got.step_index) == (whole.lattice, whole.step_index) == ("h", 476)
        # the snapshot is the failing chunk's state: the one holding trajectory 9
        first = 0 if chunk is None else 9 // chunk * chunk
        snap = got.snapshot
        assert snap.n_traj == (12 if chunk is None else chunk)
        assert list(np.flatnonzero(~np.isfinite(snap.alpha2 + snap.beta2)) + first) == [9]


# --- the closed form: its kernels against scipy ---------------------------------------
# sn, cn and dn lie in [-1, 1], so they are compared absolutely, that is relative
# to their range: near a zero of cn no oracle is good to 1e-13 of the value.


@pytest.mark.parametrize("m1", [0.5, 1.0e-3, 2.0**-27])
def test_jacobi_functions_agree_with_ellipj(m1):
    m = 1.0 - m1  # exact, so both sides see the same parameter
    half = ellipkinc(np.pi / 2, m)
    u = np.linspace(-2.0 * half, 2.0 * half, 61)
    got = threewave._jacobi(u, m, m1)
    for x, want in zip(got, ellipj(u, m)[:3], strict=True):
        assert np.max(np.abs(x - want)) < 1e-13


@pytest.mark.parametrize("m1", [2.0**-27, 2.0**-40])
def test_jacobi_functions_invert_ellipkinc_near_m_one(m1):
    # scipy's ellipj is off by up to 1e-9 near u = K once m1 < 1e-9 (its
    # m -> 1 expansion), so here the oracle is the amplitude: sn(F(phi)) = sin phi
    m = 1.0 - m1
    phi = np.linspace(-np.pi / 2, np.pi / 2, 61)
    sn, cn, dn = threewave._jacobi(ellipkinc(phi, m), m, m1)
    assert np.max(np.abs(sn - np.sin(phi))) < 1e-13
    assert np.max(np.abs(cn - np.cos(phi))) < 1e-13
    assert np.max(np.abs(dn - np.sqrt(m1 + m * np.cos(phi) ** 2))) < 1e-13


def carlson_cells(m1):
    """(x, y, z) = (cn^2, dn^2, 1) over a quarter period, from cn = 1 to cn = 0."""
    c2 = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-8, 1e-16]])
    return c2, m1 + (1.0 - m1) * c2, 1.0


@pytest.mark.parametrize("m1", [0.5, 1.0e-3, 4.0e-9, 1.0e-12])
def test_carlson_integrals_agree_with_scipy(m1):
    x, y, z = carlson_cells(m1)
    # p = 1 - n sn^2 for negative characteristics n and for near-1 ones,
    # n = 1 - eps with 0 < eps <= m1 (p = eps + n cn^2, as the phases form it)
    ps = [1.0 + n * (1.0 - x) for n in (10.0, 1.0)]
    ps += [eps + (1.0 - eps) * x for eps in (m1, 0.5 * m1, 1.0e-3 * m1)]
    assert np.max(np.abs(threewave._carlson(x, y, z) / elliprf(x, y, z) - 1.0)) < 1e-13
    for p, rj in zip(ps, threewave._carlson(x, y, z, ps), strict=True):
        assert np.max(np.abs(rj / elliprj(x, y, z, p) - 1.0)) < 1e-13


def test_rc_agrees_with_elliprc():
    x = np.array([0.0, 1e-12, 0.3, 1.0, 7.0, 1.0, 2.0, 1e-300])
    gap = np.array([1.0, 1e-12, 0.0, 1e-9, 3.0, 1e6, 1e-300, 1.0])
    assert np.max(np.abs(threewave._rc(x, gap) / elliprc(x, x + gap) - 1.0)) < 1e-13


# --- the closed form against the fine RK4 -------------------------------------------

@pytest.mark.parametrize("n_total,n_seed,stops", [
    (1.0e7, 1.0e4, [3.0, 4.0]),  # the working point and past it, seeded
    (1.0e7, 0.0, [4.5, 5.5]),  # unseeded, about the optimum: m1 near 4e-9
    (1.0e3, 10.0, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),  # the pump empties and refills
])
def test_closed_form_matches_the_fine_rk4(n_total, n_seed, stops):
    # every amplitude within 1e-9 of its trajectory's largest amplitude, against
    # RK4 at 16x the default steps (its own error is below 1e-12 here)
    t0 = sample_initial_ensemble(n_total, n_seed, SEED, 200)
    fine = IntegratorSpec(steps_per_unit_r=16 * dynamics.DEFAULT_STEPS_PER_UNIT_R)
    oracle, _ = evolve_tw(t0, stops[-1], fine, n_pump0=n_total - n_seed, stops=stops)
    closed = evolve_closed_form(t0, stops, n_pump0=n_total - n_seed)
    for (want, _), (got, report) in zip(oracle, closed, strict=True):
        y_ref = np.stack([want.alpha1, want.alpha2, want.beta2])
        y = np.stack([got.alpha1, got.alpha2, got.beta2])
        assert np.max(np.abs(y - y_ref) / np.max(np.abs(y_ref), axis=0)) < 1e-9
        assert report.rk4_error < 1e-12  # the drift of K
        assert report.max_rel_drift_atoms < 1e-14 and report.max_rel_drift_manley_rowe < 1e-14


def test_tw_ensembles_take_no_rk4_step(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the tw mode stepped RK4")

    monkeypatch.setattr(dynamics, "evolve_tw", unreachable)
    (ens,) = build_ensembles(1.0e7, 1.0e4, [3.0], 50, SEED, mode="tw")
    assert ens.conservation.rk4_error < 1e-12


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_closed_form_blocks_change_nothing(n, monkeypatch):
    # stops in no order, r = 0 among them, and turns past the pump's refill
    t0 = sample_initial_ensemble(1.0e3, 10.0, SEED, n)
    stops = [6.0, 0.0, 2.5, 9.0]
    whole = evolve_closed_form(t0, stops, n_pump0=990.0)
    assert threewave.CLOSED_FORM_BLOCK > n
    monkeypatch.setattr(threewave, "CLOSED_FORM_BLOCK", CHUNK)
    for (want, want_report), (got, got_report) in zip(
            whole, evolve_closed_form(t0, stops, n_pump0=990.0), strict=True):
        for attr in ("alpha1", "alpha2", "beta2"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        assert got_report == want_report


def test_closed_form_reports_drifts_of_its_amplitudes():
    t0 = sample_initial_ensemble(1.0e3, 10.0, SEED, 300)
    ((state, report),) = evolve_closed_form(t0, [4.0], n_pump0=990.0)

    def invariants(s):
        n1, n2, nb = (np.abs(a) ** 2 for a in (s.alpha1, s.alpha2, s.beta2))
        p = np.conj(s.alpha1) * s.alpha2 * s.beta2
        return n1 + n2, n2 - nb, n2 + nb, p

    (a0, d0, w0, p0), (a1, d1, w1, p1) = invariants(t0), invariants(state)
    assert report.max_rel_drift_atoms == pytest.approx(np.max(np.abs(a1 - a0) / a0), rel=1e-6)
    assert report.max_rel_drift_manley_rowe == pytest.approx(
        np.max(np.abs(d1 - d0)) / max(1.0, np.max(np.maximum(w0, w1))), rel=1e-6)
    assert report.rk4_error == pytest.approx(
        np.max(np.abs(p1.real - p0.real) / np.maximum(np.abs(p0), np.abs(p1))), rel=1e-6)
    assert 0.0 < report.rk4_error < 1e-13


def test_closed_form_r_zero_and_stops():
    t0 = small_vacuum_ensemble(16)
    ((state, report),) = evolve_closed_form(t0, [0.0], n_pump0=1.0e7)
    assert state.alpha2.tobytes() == t0.alpha2.tobytes() and state.time_tag == "t1"
    assert report == dynamics.ConservationReport()
    for stops in ([-0.5], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError):
            evolve_closed_form(t0, stops, n_pump0=1.0e7)
    with pytest.raises(ValueError):
        evolve_closed_form(ModeTriple(1.0 + 0j, 0j, 0j, "t1"), [1.0], n_pump0=1.0)


def test_closed_form_raises_at_the_first_non_finite_stop():
    t0 = small_vacuum_ensemble(6)
    a1 = np.array(t0.alpha1)
    a1[2] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as err:
        evolve_closed_form(ModeTriple(a1, t0.alpha2, t0.beta2), [0.5, 1.0], n_pump0=1.0e7)
    assert (err.value.lattice, err.value.step_index) == ("closed_form", 0)
    snap = err.value.snapshot
    assert list(np.flatnonzero(~np.isfinite(snap.alpha1 + snap.alpha2 + snap.beta2))) == [2]
