"""Coherent-state sampling in phase space.

Shows the Wigner-width convention (quadrature variance 1/4 for the
complex amplitude, so X = a + a^dag has vacuum variance 1), the
symmetric-ordering occupation estimator, and the counter-based
determinism contract: a draw is a pure function of
(master_seed, trajectory_index, stream_tag).
"""

import numpy as np

from atomlight import occupation, quadrature_x, sample_coherent_batch

N = 20_000
MASTER = 2718

print("=== vacuum mode ===")
vac = sample_coherent_batch(0.0, MASTER, "light2", N)
print(f"mean(Re)        = {vac.real.mean():+.5f}   (expect 0)")
print(f"var(Re)         = {vac.real.var(ddof=1):.5f}   (expect 0.25)")
print(f"var(X = a+a^dg) = {np.var(quadrature_x(vac), ddof=1):.5f}   (expect 1)")
print(f"occupation      = {occupation(vac):+.5f}   (expect 0)")

print("\n=== bright coherent state, |alpha|^2 = 1e6 ===")
bright = sample_coherent_batch(1000.0, MASTER, "atoms1", N)
print(f"occupation      = {occupation(bright):,.1f}   (expect 1,000,000)")
print(f"number variance = {np.var(np.abs(bright)**2, ddof=1):,.0f}   (Poissonian: ~1e6)")

print("\n=== determinism ===")
# trajectory 42 of the "atoms2" stream, alone and inside a batch of 100
a = sample_coherent_batch(3.0 + 4.0j, MASTER, "atoms2", 1, first_index=42)[0]
b = sample_coherent_batch(3.0 + 4.0j, MASTER, "atoms2", 100)[42]
print(f"same (seed, trajectory, stream) twice: {a} == {b} -> {a == b}")
other = sample_coherent_batch(3.0 + 4.0j, MASTER, "atoms2", 1, first_index=43)[0]
print(f"next trajectory gives a different draw: {other}")
