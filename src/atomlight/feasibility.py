"""Single-mode validity estimates for a concrete experimental setup.

Purely algebraic: the geometric fraction of spontaneous emission captured
by the phase-matched optical mode, the stimulated-to-spontaneous rate
ratio it implies, and the rough seed-scaling law for the best achievable
figure of merit.  None of this feeds the dynamics; it justifies (or
flags) the single-mode model for given trap numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HBAR = 6.62607015e-34 / (2 * math.pi)  # J s, exact SI value of h over 2 pi
RB87_MASS_KG = 1.443e-25  # 87 u


@dataclass
class PhysicalSetup:
    """Trap and transition parameters; defaults are the bundled Rb-87 example."""

    atomic_mass: float = RB87_MASS_KG      # kg
    radial_trap_freq: float = 1.0e3        # Hz
    wavelength: float = 780.0e-9           # m, sets k2 = 2 pi / lambda
    n_seed: float = 1.0e4
    n_total: float = 1.0e7

    def validate(self) -> "PhysicalSetup":
        for name in ("atomic_mass", "radial_trap_freq", "wavelength", "n_total"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.n_seed < 0 or self.n_seed > self.n_total:
            raise ValueError("need 0 <= n_seed <= n_total")
        return self

    @property
    def k2(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def condensate_width(self) -> float:
        """Radial harmonic-oscillator length sqrt(hbar / (m omega_r))."""
        omega_r = 2.0 * np.pi * self.radial_trap_freq
        return float(np.sqrt(HBAR / (self.atomic_mass * omega_r)))


def capture_fraction(setup: PhysicalSetup) -> float:
    """Fraction of spontaneous emission landing in the phase-matched mode.

    3 / (4 pi (k2 sigma)^2) for a cigar-shaped condensate of width sigma
    aligned with the scattered mode and the dipole-pattern peak.
    """
    setup.validate()
    k_sigma = setup.k2 * setup.condensate_width
    return float(3.0 / (4.0 * np.pi * k_sigma**2))


def rate_ratio(setup: PhysicalSetup) -> float:
    """Stimulated over total spontaneous scattering rate: F * N_seed."""
    return capture_fraction(setup) * setup.n_seed


def scaling_estimate(n_seed: float, n_total: float) -> float:
    """Rough best figure of merit for a seeded run: 2^(3/4) (N_seed/N_t)^(1/4).

    Undefined at zero seed (the estimate assumes the seed dominates the
    spontaneous scattering).
    """
    if n_seed <= 0:
        raise ValueError("scaling_estimate needs n_seed > 0")
    if n_total < n_seed:
        raise ValueError("need n_seed <= n_total")
    return float(2.0 ** 0.75 * (n_seed / n_total) ** 0.25)
