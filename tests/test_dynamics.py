"""Propagators vs their oracles, conservation laws, growth laws.

The oracle of the closed form and of the Bogoliubov map is
oracles.textbook_integrate, a plain classical RK4 of the c-number equations.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ellipj, ellipkinc, elliprc, elliprf, elliprj

from atomlight import dynamics, threewave
from atomlight.dynamics import (
    IntegrationError,
    build_ensembles,
    evolve_analytic,
    evolve_closed_form,
    transferred_atoms,
)
from atomlight.phasespace import ModeTriple, occupation, sample_initial_ensemble
from oracles import textbook_integrate

SEED = 4242


def small_vacuum_ensemble(n_traj=2000, n_total=1.0e7, n_seed=0.0):
    return sample_initial_ensemble(n_total, n_seed, SEED, n_traj)


def on_threads(n_threads, call):
    """Results of call() started at once on n_threads threads, one per thread.

    The propagators keep no state between calls, so callers on several
    threads must each get what a lone caller gets."""
    start = threading.Barrier(n_threads)

    def run():
        start.wait()
        return call()

    with ThreadPoolExecutor(n_threads) as pool:
        return [f.result() for f in [pool.submit(run) for _ in range(n_threads)]]


def worst_drifts(y0, states):
    """The largest relative drifts of atom number and Manley-Rowe over states,
    scaled as ConservationReport scales them."""
    def invariants(a1, a2, b2):
        n1, n2, nb = (np.abs(a) ** 2 for a in (a1, a2, b2))
        return n1 + n2, n2 - nb, n2 + nb

    tot0, mr0, scale = invariants(*y0)
    atoms = mr = 0.0
    for y in states:
        tot, diff, width = invariants(*y)
        atoms = max(atoms, np.max(np.abs(tot - tot0) / tot0))
        mr, scale = max(mr, np.max(np.abs(diff - mr0))), np.maximum(scale, width)
    return atoms, mr / max(1.0, np.max(scale))


# --- identity and exact-map values -----------------------------------------

def test_r_zero_is_identity():
    t0 = small_vacuum_ensemble(64)
    for mode in dynamics.EVOLUTION_MODES:
        (ens,) = build_ensembles(1.0e7, 0.0, [0.0], 64, SEED, mode=mode)
        assert np.array_equal(ens.state.alpha2, t0.alpha2)
        assert np.array_equal(ens.state.beta2, t0.beta2)
        assert ens.conservation == dynamics.ConservationReport()


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
    # the held-pump RK4 at 40 steps per unit r against the Bogoliubov map
    t0 = small_vacuum_ensemble(200, n_seed=1.0e4)
    ref = evolve_analytic(t0, r)
    ((a1, *num),) = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, [r], 1.0e7 - 1.0e4,
                                       clamp=True)
    for a, b in zip((ref.alpha2, ref.beta2), num, strict=True):
        scale = np.abs(a).max()
        assert np.abs(b.real - a.real).max() < 1e-6 * scale
        assert np.abs(b.imag - a.imag).max() < 1e-6 * scale
    assert np.array_equal(a1, t0.alpha1)  # pump frozen


# --- growth laws -------------------------------------------------------------

def test_vacuum_growth_follows_sinh_squared():
    t0 = small_vacuum_ensemble(4000)
    ((_, a2, _),) = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, [1.0], 1.0e7, clamp=True)
    occ = occupation(a2)
    expected = np.sinh(1.0) ** 2  # 1.3811
    se = np.std(np.abs(a2) ** 2, ddof=1) / np.sqrt(t0.n_traj)
    assert abs(occ - expected) < 3 * se


def test_seeded_growth_law():
    # coherent seed s: occupation -> s cosh^2 r + sinh^2 r
    s, r = 400.0, 1.5
    t0 = sample_initial_ensemble(1.0e7, s, SEED, 4000)
    ((_, a2, _),) = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, [r], 1.0e7 - s,
                                       clamp=True)
    expected = s * np.cosh(r) ** 2 + np.sinh(r) ** 2
    se = np.std(np.abs(a2) ** 2, ddof=1) / np.sqrt(t0.n_traj)
    assert abs(occupation(a2) - expected) < 3 * se


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
    ((_, a2, b2),) = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, [r], 1.0e7, clamp=True)
    combo = 2.0 * a2.real - 2.0 * b2.imag
    var = np.var(combo, ddof=1)
    rel_se = np.sqrt(2.0 / (t0.n_traj - 1))
    assert abs(var - oracle) < 5 * rel_se * oracle


# --- conservation ------------------------------------------------------------

STOPS_TO_3 = [0.25 * k for k in range(1, 13)]


def test_conservation_default_steps():
    # the oracle's own drifts at 40 steps per unit r, over stops to r = 3
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    y0 = (t0.alpha1, t0.alpha2, t0.beta2)
    atoms, manley_rowe = worst_drifts(y0, textbook_integrate(*y0, STOPS_TO_3, 1.0e7 - 1.0e4))
    assert atoms < 1e-8
    assert manley_rowe < 1e-8


def test_fourth_order_convergence():
    # halving the step must cut the drift by at least 8x (use coarse steps so
    # truncation error sits well above roundoff)
    t0 = small_vacuum_ensemble(200, n_seed=1.0e4)
    y0 = (t0.alpha1, t0.alpha2, t0.beta2)
    coarse, fine = (worst_drifts(y0, textbook_integrate(*y0, STOPS_TO_3, 1.0e7, steps))
                    for steps in (50, 100))
    assert coarse[0] / fine[0] >= 8.0
    assert coarse[1] / fine[1] >= 8.0


# --- the depleted-pump oracle ------------------------------------------------

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
    check_the_depleted_pump(lambda t0, stops, n_pump0: [
        (ModeTriple(*y), None)
        for y in textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, stops, n_pump0)])


def test_closed_form_matches_the_elliptic_solution():
    check_the_depleted_pump(evolve_closed_form)


# --- composition: a propagated state is a start -------------------------------
# The equations are autonomous, so propagating by r1 and then by r2 (with the
# same n_pump0, the unit of s) is propagating by r1 + r2.

COMPOSED = [(0.5, 1.0), (1.0, 2.0), (2.0, 1.5), (3.0, 2.5), (0.1, 5.4), (2.75, 2.75), (4.0, 1.5)]
POPULATIONS = [(1.0e3, 0.0), (1.0e3, 10.0), (1.0e7, 0.0), (1.0e7, 1.0e5)]


def composition_error(propagate, n_total, n_seed):
    """The largest difference between r1 then r2 and r1 + r2 over COMPOSED,
    relative to each trajectory's largest amplitude after r1 + r2."""
    t0 = sample_initial_ensemble(n_total, n_seed, SEED, 400)
    worst = 0.0
    for r1, r2 in COMPOSED:
        two, one = propagate(propagate(t0, r1), r2), propagate(t0, r1 + r2)
        y2, y1 = (np.array([s.alpha1, s.alpha2, s.beta2]) for s in (two, one))
        worst = max(worst, np.max(np.abs(y2 - y1) / np.max(np.abs(y1), axis=0)))
    return worst


@pytest.mark.parametrize("n_total, n_seed", POPULATIONS)
def test_closed_form_steps_compose(n_total, n_seed):
    # measured at most 1.1e-14 (N = 1e3 unseeded, 3.0 then 2.5); the bound
    # leaves a margin of 9
    def propagate(state, r):
        return evolve_closed_form(state, [r], n_pump0=n_total - n_seed)[0][0]

    assert composition_error(propagate, n_total, n_seed) < 1e-13


@pytest.mark.parametrize("n_total, n_seed", POPULATIONS)
def test_bogoliubov_map_steps_compose(n_total, n_seed):
    # measured at most 8.7e-16 (N = 1e3 unseeded, 0.1 then 5.4); the bound
    # leaves a margin of 11
    assert composition_error(evolve_analytic, n_total, n_seed) < 1e-14


# --- transferred atoms -------------------------------------------------------

def test_transferred_atoms_zero_at_r_zero():
    ens = build_ensembles(1.0e7, 0.0, [0.0], 2000, SEED)[0]
    se = 0.5 / np.sqrt(2000)  # Var(|vacuum sample|^2) = 1/4
    assert abs(transferred_atoms(ens)) < 3 * se


def test_transferred_atoms_clamped_sinh():
    ens = build_ensembles(1.0e7, 0.0, [1.0], 4000, SEED, mode="analytic")[0]
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


@pytest.mark.parametrize("mode", ["analytic"])
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
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as err:
        evolve_closed_form(t0, [1.0], n_pump0=1.0e7)
    assert err.value.r == 1.0
    assert isinstance(err.value.snapshot, ModeTriple)


def test_negative_r_rejected():
    t0 = small_vacuum_ensemble(8)
    with pytest.raises(ValueError):
        evolve_closed_form(t0, [-0.5], n_pump0=1.0e7)
    with pytest.raises(ValueError):
        evolve_analytic(t0, -0.5)
    for mode in dynamics.EVOLUTION_MODES:
        with pytest.raises(ValueError):
            build_ensembles(1.0e6, 0.0, [-0.5], 8, SEED, mode=mode)
        with pytest.raises(ValueError):
            build_ensembles(1.0e6, 0.0, [], 8, SEED, mode=mode)


# --- determinism -------------------------------------------------------------

def test_build_ensembles_deterministic():
    a = build_ensembles(1.0e6, 100.0, [1.5], 400, SEED)[0]
    b = build_ensembles(1.0e6, 100.0, [1.5], 400, SEED)[0]
    assert np.array_equal(a.state.alpha1, b.state.alpha1)
    assert np.array_equal(a.state.alpha2, b.state.alpha2)
    assert np.array_equal(a.state.beta2, b.state.beta2)


# --- one build for many r ----------------------------------------------------

@pytest.mark.parametrize("mode", ["tw", "analytic"])
@pytest.mark.parametrize("n_threads", [1, 2])
def test_build_ensembles_equals_per_r_builds(mode, n_threads):
    # unsorted and repeated values: one build of them all gives each what a build of it gives
    r_values = [1.5, 0.25, 1.0, 0.25, 0.0]
    for many in on_threads(
            n_threads, lambda: build_ensembles(1.0e6, 100.0, r_values, 200, SEED, mode=mode)):
        assert [ens.r for ens in many] == r_values
        for r, ens in zip(r_values, many):
            one = build_ensembles(1.0e6, 100.0, [r], 200, SEED, mode=mode)[0]
            for attr in ("alpha1", "alpha2", "beta2"):
                assert np.array_equal(getattr(ens.state, attr), getattr(one.state, attr))
            assert ens.conservation == one.conservation


@pytest.mark.parametrize("n_threads", [1, 2])
def test_clamped_pump_is_never_written(n_threads):
    # the held pump: alpha1 comes out of every r bit for bit as it was sampled
    t0 = small_vacuum_ensemble(300, n_seed=1.0e4)
    for ensembles in on_threads(n_threads, lambda: build_ensembles(
            1.0e7, 1.0e4, [0.25, 1.2345, 2.0, 3.0], 300, SEED, mode="analytic")):
        for ens in ensembles:
            assert ens.state.alpha1.tobytes() == t0.alpha1.tobytes()


def test_integration_error_reports_the_failing_step():
    # a2 = 1e308 overflows |a2|^2 and the pump's units at once: r = 0 returns
    # the input as it is, and every r > 0 is non-finite in trajectory 3 alone
    t0 = small_vacuum_ensemble(6)
    a1, a2, b2 = (np.array(getattr(t0, k)) for k in ("alpha1", "alpha2", "beta2"))
    a2[3] = 1.0e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            evolve_closed_form(ModeTriple(a1, a2, b2), [0.0, 0.5, 3.0], n_pump0=1.0e7)
    assert err.value.r == 0.5
    snap = err.value.snapshot
    assert isinstance(snap, ModeTriple) and snap.n_traj == 6
    finite = np.isfinite(snap.alpha1 + snap.alpha2 + snap.beta2)
    assert list(np.flatnonzero(~finite)) == [3]
    keep = np.arange(6) != 3
    ((want, _),) = evolve_closed_form(ModeTriple(a1[keep], a2[keep], b2[keep]), [0.5], 1.0e7)
    assert snap.alpha2[keep].tobytes() == want.alpha2.tobytes()


CHUNK = 7


@pytest.mark.parametrize("n_threads, chunk", [(1, None), (2, None), (1, 4), (2, 4)])
def test_integration_error_does_not_depend_on_chunks_or_threads(n_threads, chunk, monkeypatch):
    # trajectory 9 (a1 = NaN) and trajectory 2 (a1 = inf) fail at every stop,
    # in two blocks when blocks are 4 wide
    t0 = sample_initial_ensemble(1.0e7, 0.0, 5, 12)
    a1 = np.array(t0.alpha1)
    a1[2], a1[9] = np.inf, np.nan
    state = ModeTriple(a1, t0.alpha2, t0.beta2)

    def failure():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
            evolve_closed_form(state, [2.0, 0.5, 5.0], n_pump0=1.0e7)
        return err.value

    whole = failure()  # one block of the whole ensemble
    if chunk is not None:
        monkeypatch.setattr(threewave, "CLOSED_FORM_BLOCK", chunk)
    for got in on_threads(n_threads, failure):
        assert got.r == whole.r == 2.0  # the first stop given
        snap = got.snapshot
        assert snap.n_traj == 12
        assert list(np.flatnonzero(~np.isfinite(snap.alpha1 + snap.alpha2 + snap.beta2))) == [2, 9]
        for attr in ("alpha1", "alpha2", "beta2"):
            np.testing.assert_array_equal(getattr(snap, attr), getattr(whole.snapshot, attr))


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
    # RK4 at 640 steps per unit r (its own error is below 1e-12 here)
    t0 = sample_initial_ensemble(n_total, n_seed, SEED, 200)
    oracle = textbook_integrate(t0.alpha1, t0.alpha2, t0.beta2, stops, n_total - n_seed, 640)
    closed = evolve_closed_form(t0, stops, n_pump0=n_total - n_seed)
    for want, (got, report) in zip(oracle, closed, strict=True):
        y_ref = np.stack(want)
        y = np.stack([got.alpha1, got.alpha2, got.beta2])
        assert np.max(np.abs(y - y_ref) / np.max(np.abs(y_ref), axis=0)) < 1e-9
        assert report.k_drift < 1e-12
        assert report.max_rel_drift_atoms < 1e-14 and report.max_rel_drift_manley_rowe < 1e-14


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
    assert report.k_drift == pytest.approx(
        np.max(np.abs(p1.real - p0.real) / np.maximum(np.abs(p0), np.abs(p1))), rel=1e-6)
    assert 0.0 < report.k_drift < 1e-13


def test_closed_form_r_zero_and_stops():
    t0 = small_vacuum_ensemble(16)
    ((state, report),) = evolve_closed_form(t0, [0.0], n_pump0=1.0e7)
    assert state.alpha2.tobytes() == t0.alpha2.tobytes()
    assert report == dynamics.ConservationReport()
    for stops in ([-0.5], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError):
            evolve_closed_form(t0, stops, n_pump0=1.0e7)


def test_closed_form_raises_at_the_first_non_finite_stop():
    t0 = small_vacuum_ensemble(6)
    a1 = np.array(t0.alpha1)
    a1[2] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as err:
        evolve_closed_form(ModeTriple(a1, t0.alpha2, t0.beta2), [0.5, 1.0], n_pump0=1.0e7)
    assert err.value.r == 0.5
    snap = err.value.snapshot
    assert list(np.flatnonzero(~np.isfinite(snap.alpha1 + snap.alpha2 + snap.beta2))) == [2]
