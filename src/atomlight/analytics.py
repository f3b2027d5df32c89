"""Closed-form undepleted-pump predictions and the quantum-limit reference lines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AnalyticPrediction:
    r: float
    n_total: float
    delta_phi_plain: float        # atoms only: sqrt(cosh 2r / N)
    delta_phi_recycled: float     # with the homodyne correction: sqrt(2) e^-r / sqrt(N)
    m_plain: float                # delta_phi * sqrt(N)
    m_recycled: float
    var_squeezed_combo: float     # Var(X_a2 + Y_b2) = 2 e^-2r
    var_antisqueezed_combo: float  # Var(X_a2 - Y_b2) = 2 e^+2r


def sql(n_total: float) -> float:
    """Standard quantum limit 1/sqrt(N) for N uncorrelated atoms."""
    if n_total <= 0:
        raise ValueError("n_total must be > 0")
    return 1.0 / np.sqrt(n_total)


def heisenberg(n_total: float) -> float:
    """Heisenberg limit 1/N."""
    if n_total <= 0:
        raise ValueError("n_total must be > 0")
    return 1.0 / n_total


def r_crit() -> float:
    """Squeezing at which the corrected signal crosses the SQL: ln(sqrt 2)."""
    return float(np.log(np.sqrt(2.0)))


def predict(r: float, n_total: float) -> AnalyticPrediction:
    """Undepleted-pump sensitivities at squeezing r, with and without the correction."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if n_total <= 0:
        raise ValueError("n_total must be > 0")
    sqrt_n = np.sqrt(n_total)
    dphi_plain = np.sqrt(np.cosh(2.0 * r)) / sqrt_n
    dphi_recycled = np.sqrt(2.0) * np.exp(-r) / sqrt_n
    return AnalyticPrediction(
        r=r,
        n_total=n_total,
        delta_phi_plain=float(dphi_plain),
        delta_phi_recycled=float(dphi_recycled),
        m_plain=float(dphi_plain * sqrt_n),
        m_recycled=float(dphi_recycled * sqrt_n),
        var_squeezed_combo=float(2.0 * np.exp(-2.0 * r)),
        var_antisqueezed_combo=float(2.0 * np.exp(2.0 * r)),
    )
