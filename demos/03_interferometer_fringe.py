"""The measurement chain at the standard working point (r = 3, seeded).

Panel 1: the mean fringe <S_a>(phi) with the constant homodyne record.
Panel 2: per-trajectory S_a against S_b/g at three phases: strongly
correlated at pi/2, uncorrelated at pi, anti-correlated at 3pi/2.  Both come
from the fringe features (B, C, S_b/g) with S_a = B cos(phi) + C sin(phi),
as the scatter verb writes them.
Panel 3: log10 of the figure of merit M = delta_phi sqrt(N_t) across the
fringe; the dips below zero beat the standard quantum limit.
"""

import numpy as np

from atomlight import build_ensembles, sensitivity_curve
from atomlight.interferometer import fringe_features

N_TOTAL = 1.0e7
ensemble = build_ensembles(N_TOTAL, 1.0e4, [3.0], 1000, 12345)[0]
GAIN_G = 100.0  # the LO amplitude over the mean pump amplitude at t1

curve = sensitivity_curve(ensemble, np.linspace(0.0, 2.0 * np.pi, 201), GAIN_G)
print(f"correction sign calibrated to: {curve.correction_sign}")
min_m, argmin, _ = curve.min_m()
print(f"best sensitivity: M = {min_m:.4f} at phi = {argmin/np.pi:.3f} pi "
      f"(SQL is M = 1)")

features = fringe_features(ensemble, GAIN_G)
b, c, s_b_over_g = features.T
phases = {"pi/2": np.pi / 2, "pi": np.pi, "3pi/2": 3 * np.pi / 2}
scatter = {}
for name, phi in phases.items():
    s_a = b * np.cos(phi) + c * np.sin(phi)
    rho = np.corrcoef(s_a, s_b_over_g)[0, 1]
    scatter[name] = s_a
    print(f"corr(S_a, S_b/g) at {name:>6}: {rho:+.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, axes = plt.subplots(1, 3, figsize=(13, 3.8))
    axes[0].plot(curve.phi, curve.mean_s_a, "C0-", label=r"$\langle S_a\rangle$")
    axes[0].plot(curve.phi, curve.mean_s_b / GAIN_G, "C3-",
                 label=r"$\langle S_b\rangle/g$")
    axes[0].set_xlabel(r"$\phi$")
    axes[0].legend()

    fluct_b = s_b_over_g - s_b_over_g.mean()
    for name, s_a in scatter.items():
        fluct_a = s_a - s_a.mean()
        axes[1].plot(fluct_b[:300], fluct_a[:300], ".", ms=3, label=name)
    axes[1].set_xlabel(r"$\delta(S_b/g)$")
    axes[1].set_ylabel(r"$\delta S_a$")
    axes[1].legend()

    finite = np.isfinite(curve.m)
    axes[2].plot(curve.phi[finite], np.log10(curve.m[finite]), "C0-")
    axes[2].axhline(0.0, color="k", ls="--", lw=1, label="SQL")
    axes[2].set_xlabel(r"$\phi$")
    axes[2].set_ylabel(r"$\log_{10} M$")
    axes[2].legend()

    fig.tight_layout()
    fig.savefig("fringe_and_merit.png", dpi=150)
    print("wrote fringe_and_merit.png")
