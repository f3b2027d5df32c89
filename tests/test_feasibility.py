"""Geometric capture fraction, rate ratio and the seed scaling law."""

import numpy as np
import pytest
from scipy.constants import hbar

from atomlight.feasibility import (
    HBAR,
    PhysicalSetup,
    capture_fraction,
    rate_ratio,
    scaling_estimate,
)


def test_reference_setup_capture_fraction():
    setup = PhysicalSetup()  # Rb-87, 1 kHz radial trap, 780 nm
    f = capture_fraction(setup)
    assert 0.025 < f < 0.035


def test_condensate_width_is_oscillator_length():
    assert HBAR == hbar  # the exact SI value, bit for bit
    setup = PhysicalSetup()
    expected = np.sqrt(hbar / (setup.atomic_mass * 2 * np.pi * 1.0e3))
    assert setup.condensate_width == pytest.approx(expected, rel=1e-12)


def test_unit_k_sigma():
    # choose the wavelength so k2 * sigma = 1: F = 3 / (4 pi)
    base = PhysicalSetup()
    setup = PhysicalSetup(wavelength=2 * np.pi * base.condensate_width)
    assert capture_fraction(setup) == pytest.approx(3.0 / (4.0 * np.pi), rel=1e-12)


def test_quartering_trap_frequency_quarters_fraction():
    # sigma ~ 1/sqrt(f): f -> f/4 doubles sigma and quarters F
    tight = PhysicalSetup(radial_trap_freq=1.0e3)
    loose = PhysicalSetup(radial_trap_freq=250.0)
    assert capture_fraction(loose) == pytest.approx(capture_fraction(tight) / 4.0, rel=1e-12)


def test_fraction_depends_only_on_k_sigma():
    a = PhysicalSetup()
    # quarter the mass: sigma doubles; double the wavelength: k2 halves -> k2 sigma equal
    b = PhysicalSetup(atomic_mass=a.atomic_mass / 4.0, wavelength=a.wavelength * 2.0)
    assert b.k2 * b.condensate_width == pytest.approx(a.k2 * a.condensate_width, rel=1e-12)
    assert capture_fraction(b) == pytest.approx(capture_fraction(a), rel=1e-12)


def test_reference_rate_ratio():
    ratio = rate_ratio(PhysicalSetup(n_seed=1.0e4))
    assert 250 < ratio < 350


def test_rate_ratio_linear_in_seed():
    r1 = rate_ratio(PhysicalSetup(n_seed=1.0e3))
    r2 = rate_ratio(PhysicalSetup(n_seed=2.0e3))
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    assert rate_ratio(PhysicalSetup(n_seed=0.0)) == 0.0


def test_setup_validation():
    with pytest.raises(ValueError):
        PhysicalSetup(atomic_mass=-1.0).validate()
    with pytest.raises(ValueError):
        PhysicalSetup(wavelength=0.0).validate()
    with pytest.raises(ValueError):
        PhysicalSetup(n_seed=2.0, n_total=1.0).validate()


def test_scaling_estimate_values():
    assert scaling_estimate(1.0, 1.0) == pytest.approx(2.0**0.75, rel=1e-12)
    # 2^(3/4) * (1e-3)^(1/4) = 0.29907...
    assert scaling_estimate(1.0e4, 1.0e7) == pytest.approx(0.29906975624424414, rel=1e-12)


def test_scaling_estimate_quarter_power():
    full = scaling_estimate(1.0e4, 1.0e7)
    half = scaling_estimate(5.0e3, 1.0e7)
    assert half == pytest.approx(full * 2.0**-0.25, rel=1e-12)


def test_scaling_estimate_rejects_zero_seed():
    with pytest.raises(ValueError):
        scaling_estimate(0.0, 1.0e7)
    with pytest.raises(ValueError):
        scaling_estimate(10.0, 1.0)
