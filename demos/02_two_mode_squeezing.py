"""Atom-light squeezing generated by the super-radiance beam splitter.

The scattered light and the transferred atoms develop correlated
quadratures: Var(X_a2 + Y_b2) = 2 exp(-2r) in the undepleted-pump limit.
This script compares that closed form with the Wigner draws carried through
the Bogoliubov map (mode "analytic": the same law, up to sampling error) and
with the full depleted dynamics (mode "tw"), where the variance
turns back up once a macroscopic fraction of the condensate has been
moved.  The full-dynamics minimum marks the point of maximum atom-light
correlation.
"""

import numpy as np

from atomlight import predict, squeezed_combo_variance, transferred_atoms
from atomlight.dynamics import build_ensembles

N_TOTAL = 1.0e7
N_SEED = 1.0e4
N_TRAJ = 800
MASTER = 99

r_values = np.arange(0.0, 4.01, 0.25)
var_closed, var_held, var_full, transfer_full = [], [], [], []

# one sample per mode, propagated to every r, gives the ensemble at every r
held_runs = build_ensembles(N_TOTAL, N_SEED, r_values, N_TRAJ, MASTER, mode="analytic")
full_runs = build_ensembles(N_TOTAL, N_SEED, r_values, N_TRAJ, MASTER, mode="tw")

print(f"{'r':>5} {'2e^-2r':>10} {'Bogoliubov':>12} {'full TW':>12} {'transferred':>12}")
for r, held, full in zip(r_values, held_runs, full_runs):
    closed = predict(float(r), N_TOTAL).var_squeezed_combo
    var_closed.append(closed)
    var_held.append(squeezed_combo_variance(held))
    var_full.append(squeezed_combo_variance(full))
    transfer_full.append(transferred_atoms(full))
    print(f"{r:5.2f} {closed:10.4f} {var_held[-1]:12.4f} {var_full[-1]:12.4f} "
          f"{transfer_full[-1]:12.3g}")

k = int(np.argmin(var_full))
print(f"\nmaximum correlation at r = {r_values[k]:.2f} "
      f"with {transfer_full[k]:.3g} atoms transferred")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(r_values, var_closed, "k:", label="undepleted closed form")
    ax.semilogy(r_values, var_held, "C0--", label="Bogoliubov map of the draws")
    ax.semilogy(r_values, var_full, "C1-", label=f"full dynamics, seed {N_SEED:.0e}")
    ax.set_xlabel("squeezing parameter r")
    ax.set_ylabel(r"Var$(X_{a_2} + Y_{b_2})$")
    ax.legend()
    fig.tight_layout()
    fig.savefig("squeezing_vs_r.png", dpi=150)
    print("wrote squeezing_vs_r.png")
