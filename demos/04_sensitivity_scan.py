"""Figure of merit against the squeezing parameter.

Scans M(pi/2) over r for an unseeded and a seeded run and overlays the
closed undepleted-pump forms.  Depletion sets a floor: the Monte Carlo
curves peel away from sqrt(2) e^-r and pass through a minimum, which is
where the scheme should be operated.  1/M^2 is the factor by which an
uncorrelated interferometer would need more atoms to match.
"""

import numpy as np

from atomlight import RunConfig, scan_over_r

N_TRAJ = 600

print("=== no seed ===")
config = RunConfig(n_seed=0.0, trajectories=N_TRAJ)
unseeded = scan_over_r(np.arange(3.0, 5.51, 0.25), config)
for row in unseeded.rows:
    print(f"r={row.r:4.2f}  M={row.m:8.4f}  closed form {row.m_recycled:7.4f}  "
          f"transferred {row.transferred:10.3g}")
best = unseeded.rows[unseeded.star]
print(f"optimum: M = {best.m:.4f} at r = {best.r} "
      f"(worth {1.0 / best.m**2:,.0f}x more atoms)")

print("\n=== seed of 1e4 atoms ===")
config = RunConfig(n_seed=1.0e4, trajectories=N_TRAJ)
seeded = scan_over_r(np.arange(1.0, 4.01, 0.25), config)
best = seeded.rows[seeded.star]
print(f"optimum: M = {best.m:.4f} at r = {best.r} with "
      f"{best.transferred:.3g} atoms transferred "
      f"({1.0 / best.m**2:,.0f}x atom equivalent)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, scan, title in ((axes[0], unseeded, "no seed"),
                            (axes[1], seeded, "seed 1e4")):
        rs = [row.r for row in scan.rows]
        ax.semilogy(rs, [row.m for row in scan.rows], "C0o-", label="trajectories")
        ax.semilogy(rs, [row.m_recycled for row in scan.rows], "k--",
                    label=r"$\sqrt{2}e^{-r}$")
        ax.axhline(1.0, color="gray", lw=1, ls=":", label="SQL")
        ax.set_xlabel("r")
        ax.set_title(title)
        ax.legend()
    axes[0].set_ylabel(r"$M = \Delta\phi\,\sqrt{N_t}$")
    fig.tight_layout()
    fig.savefig("merit_vs_r.png", dpi=150)
    print("wrote merit_vs_r.png")
