"""The closed-form solution of the three-wave equations, with numpy alone.

The c-number equations of dynamics are classical three-wave mixing, which
is integrable (Armstrong, Bloembergen, Ducuing & Pershan, Phys. Rev. 127,
1918 (1962)): with the invariants A = n1 + n2, D = n2 - nb and
K = Re(conj(a1) a2 b2), x = n2 is a Jacobi elliptic function of s, and
d arg a1/ds = kappa K / (A - x), d arg a2/ds = kappa K / x and
d arg b2/ds = kappa K / (x - D) are elliptic integrals of the third kind.
Each phase gets its own integral, so K is not imposed and its drift
measures the phases' error.  sn and cn come by descending Landen from m1,
F and the third-kind integrals from Carlson's R_F, R_J and R_C (Numer.
Algorithms 10, 13 (1995)), every root difference and orbit coordinate in a
form without cancellation; a trajectory is worked in units of sqrt(A), so
that squares of both the pump and the vacuum stay in range.

evaluate takes an ensemble in blocks of CLOSED_FORM_BLOCK trajectories and
each stop as one evaluation from t0; every operation is elementwise with
fixed iteration counts, so results do not depend on the block size.
dynamics.evolve_closed_form is the interface.  The numerics are a module of
their own because every run compiles the package when no bytecode is
cached: compiled as part of dynamics.py they raised the import's peak RSS
by 0.53 MB, and as a module of their own by 0.05 MB.
"""

from __future__ import annotations

import numpy as np

# Trajectories per closed-form block.  A block keeps its orbit (about 20
# arrays of this width) and one stop's temporaries (about 50).  A phi-sweep of
# 1e4 trajectories at r = 3 peaked at 37.58 MB of RSS with 512 or 1024, 37.56
# with 2048 and 37.87 with 4096, against 37.81 with the RK4 (medians of 8
# runs, 2-core host); 2048 is the widest of the lowest, with the least
# per-call overhead.
CLOSED_FORM_BLOCK = 2048
# Fixed counts, so that each element is rounded alike in any block.  Nine
# duplications bring R_F and R_J to rounding with arguments down to 1e-40
# against 1 and p up to 11 (5e-14 off at 1e-60, which the orbit reaches only
# where an emptied pump meets m1 < 1e-60); eleven descending Landen levels
# take k' = 1e-150 (m1 = 1e-300) to a bottom modulus below 1e-12; Newton from
# the first-order roots converges monotonically, and six steps reach rounding
# from a 10 % start.
_DUPLICATIONS, _LANDEN_LEVELS, _NEWTON_STEPS = 9, 11, 6


def _rc(x, gap):
    """Carlson's R_C(x, x + gap) for gap >= 0, from the gap so that y - x is never formed."""
    t = np.sqrt(gap) + 1e-300  # the limit R_C(x, x) = 1 / sqrt(x) at gap = 0
    return np.arctan2(t, np.sqrt(x)) / t


def _carlson(x, y, z, ps=()):
    """R_F(x, y, z), or [R_J(x, y, z, p) for p in ps] if ps are given,
    elementwise, by Carlson's duplication (Numer. Algorithms 10, 13 (1995)),
    the R_J sharing the x, y, z steps.

    A step adds lambda to every argument and leaves the quarter scale to the
    end, so after k steps they are 4^k times Carlson's.  Step k of an R_J
    adds 6 R_C(1, 1 + e_k) / (4^k d_k) in Carlson's scale, where
    e_k = delta / d_k'^2 with d_k' the product (sqrt p + sqrt x) ... of the
    grown arguments and delta = (p - x)(p - y)(p - z).  delta must be >= 0
    (Pi of a characteristic outside (0, m)); then R_C(1, 1 + e) =
    arctan(sqrt e) / sqrt e, and the term is
    2^k arctan(sqrt(delta) / d_k') / sqrt(delta).  The magnitude of delta is
    taken, since rounding can leave a product that is 0 in exact arithmetic
    just below it, and 1e-150 keeps delta = 0 at its limit.  p must be of
    order 1 or less, as it is in _integrals: the duplications do not bring
    p = 1e6 to rounding.
    """
    ps, sums = list(ps), [0.0] * len(ps)
    roots = [np.sqrt(np.abs((p - x) * (p - y) * (p - z))) + 1e-150 for p in ps]
    for step in range(_DUPLICATIONS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        for i, p in enumerate(ps):
            sp = np.sqrt(p)
            sums[i] = sums[i] + 2.0**step * np.arctan2(roots[i], (sp + sx) * (sp + sy) * (sp + sz))
            ps[i] = p + lam
        x, y, z = x + lam, y + lam, z + lam
    grown = 2.0**_DUPLICATIONS  # R_F(x / 4^n, ...) = 2^n R_F(x, ...); R_J likewise, after 4^-n
    if not ps:
        mean = (x + y + z) / 3.0
        dx, dy = 1.0 - x / mean, 1.0 - y / mean
        e2, e3 = dx * dy - (dx + dy) ** 2, -dx * dy * (dx + dy)
        series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
        return grown * series / np.sqrt(mean)
    rjs = []
    for p, total, root in zip(ps, sums, roots):
        mean = (x + y + z + 2.0 * p) / 5.0
        dx, dy, dz = 1.0 - x / mean, 1.0 - y / mean, 1.0 - z / mean
        dp = -0.5 * (dx + dy + dz)
        xyz, dp2 = dx * dy * dz, dp * dp
        e2 = dx * dy + dx * dz + dy * dz - 3.0 * dp2
        e3, e4 = xyz + 2.0 * e2 * dp + 4.0 * dp * dp2, (2.0 * xyz + e2 * dp + 3.0 * dp * dp2) * dp
        series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
                  - 9.0 * e2 * e3 / 52.0 + 3.0 * xyz * dp2 / 26.0)
        rjs.append(grown * series / (mean * np.sqrt(mean)) + 6.0 * total / root)
    return rjs


def _landen(m, m1):
    """The moduli k_1 .. k_L of descending Landen steps from k = sqrt(m), with
    k' = sqrt(m1) carried directly, and the argument scale prod(1 + k_n)."""
    k, kp, ks, scale = np.sqrt(m), np.sqrt(m1), [], 1.0
    for _ in range(_LANDEN_LEVELS):
        k = (k / (1.0 + kp)) ** 2
        kp = 2.0 * np.sqrt(kp) / (1.0 + kp)
        ks.append(k)
        scale = scale * (1.0 + k)
    return ks, scale


def _jacobi(v, m, m1):
    """sn, cn and dn of v | m: sin and cos at the bottom modulus, then the Landen
    map (DLMF 22.7.1-3) up each level in its cancellation-free rational form."""
    ks, scale = _landen(m, m1)
    z = v / scale
    s, c, d = np.sin(z), np.cos(z), 1.0
    for k in reversed(ks):
        t = k * s * s
        s, c, d = (1.0 + k) * s / (1.0 + t), c * d / (1.0 + t), (1.0 - t) / (1.0 + t)
    return s, c, d


def _orbit(a1, a2, b2):
    """Invariants, cubic roots and starting point of a block of trajectories.

    P = conj(a1) a2 b2; A = n1 + n2, D = n2 - nb and K = Re P are exact, and
    x = n2 obeys (dx/ds)^2 = 4 kappa^2 [(A - x) x (x - D) - K^2].  The cubic's
    roots e1 <= e2 <= e3 lie d1 below r1 = min(0, D), d2 = d1 + d3 above
    r2 = max(0, D) and d3 below A; d1 and d3 come from Newton on their own
    cubics, so every root difference is a sum of positive terms.  With
    m = (e3 - e2)/(e3 - e1) and m1 = (e2 - e1)/(e3 - e1), x = e2 + (e3 - e2)
    cn^2(u | m) = e2 + m (e2 - e1) sd^2(v | m) for v = u + K(m), which is 0 at
    the minimum of x and rises at kappa sqrt(e3 - e1) per unit s.  It starts
    at v0 = sgn(Im P) F(phi0 | m), with tan^2 phi0 = (x0 - e2)(e3 - e1) /
    ((e2 - e1)(e3 - x0)); the end of the orbit nearer x0 is taken from
    (Im P)^2 = (e3 - x0)(x0 - e2)(x0 - e1).
    """
    n1, n2, nb = (z.real ** 2 + z.imag ** 2 for z in (a1, a2, b2))
    p = np.conj(a1) * a2 * b2
    k, d = p.real, n2 - nb
    k2, ad = k * k, np.abs(d)
    a, b = np.maximum(n1 + n2, n1 + nb), np.minimum(n1 + n2, n1 + nb)  # A - r1, A - r2
    d3, t = k2 / (a * b), k2 / a  # d3 from below (concave), d1 from above (convex)
    d1 = 2.0 * t / (ad + np.sqrt(d * d + 4.0 * t))
    for _ in range(_NEWTON_STEPS):
        d3 = d3 - (d3 * (a - d3) * (b - d3) - k2) / ((a - d3) * (b - d3) - d3 * (a + b - 2.0 * d3))
        d1 = d1 - (d1 * (ad + d1) * (a + d1) - k2) / ((ad + d1) * (a + d1)
                                                      + d1 * (a + ad + 2.0 * d1))
    d2 = d1 + d3
    e31, e32, e21 = a - d3 + d1, b - d2 - d3, ad + d1 + d2
    hi, lo, x0e1 = n1 - d3, np.minimum(n2, nb) - d2, np.maximum(n2, nb) + d1
    near_min, near_max, im2 = lo < hi, hi < lo, p.imag ** 2
    np.divide(im2, hi * x0e1, out=lo, where=near_min)
    np.divide(im2, lo * x0e1, out=hi, where=near_max)
    sn2, cn2 = lo * e31, hi * e21
    sn2, cn2 = sn2 / (sn2 + cn2), cn2 / (sn2 + cn2)
    m, m1 = e32 / e31, e21 / e31
    o = dict(k=k, d=d, ad=ad, d1=d1, d2=d2, d3=d3, e21=e21, e32=e32, m=m, m1=m1, root=np.sqrt(e31),
             kr=np.where(k < 0.0, -1.0, 1.0) * np.sqrt((ad + d1) * (b - d3)),  # K / sqrt(d2)
             s0=np.where(0.0 < p.imag, 1.0, -1.0) * np.sqrt(sn2), c0=cn2)
    o["v0"] = o["s0"] * _carlson(cn2, m1 + m * cn2, 1.0)
    return o


def _integrals(o, v, s, c2):
    """n1, q = x - max(0, D) and K times the integrals from 0 to v of dv/(A - x),
    dv/x and dv/(x - D), at cells v with sn = s and cn^2 = c2.

    With dn^2 = m1 + m cn^2 the orbit is x - e2 = m (e2 - e1) sn^2 / dn^2 and
    e3 - x = (e3 - e2) cn^2 / dn^2.  Each integral is Pi of a characteristic
    outside (0, m): about A as v / (A - e2) plus an R_J term, about the root
    nearer e1 likewise, and about the one nearer e2 through Pi(n) + Pi(m / n)
    = F + R_C (DLMF 19.7.9), all of them sums without cancellation.
    """
    dn2, s2 = o["m1"] + o["m"] * c2, s * s
    q = o["d2"] + o["m"] * o["e21"] * s2 / dn2
    n1 = o["d3"] + o["e32"] * c2 / dn2
    ae2, e2r1, r2e1, e21 = o["d3"] + o["e32"], o["ad"] + o["d2"], o["ad"] + o["d1"], o["e21"]
    pnu = 1.0 + o["d2"] * s2 / r2e1
    j1, jlow, jhigh = _carlson(c2, dn2, 1.0, [n1 * dn2 / ae2, (q + o["ad"]) * dn2 / e2r1, pnu])
    s3 = s2 * s
    g1 = v / ae2 + o["m1"] * o["e32"] / (3.0 * ae2 * ae2) * s3 * j1
    glow = v / e2r1 - o["m"] * e21 / (3.0 * e2r1 * e2r1) * s3 * jlow
    gap = s2 * (o["d2"] * (1.0 + o["d2"] / r2e1) * dn2 + o["m"] * e21 * pnu)
    high = (o["k"] * (e21 / (3.0 * r2e1 * r2e1) * s3 * jhigh - v / r2e1)
            + o["kr"] * e21 / r2e1 * s * _rc(o["d2"] * c2 * dn2, gap))
    low = o["k"] * glow  # alpha2 is about r1 = 0 when D >= 0, beta2 about r1 = D otherwise
    down = o["d"] < 0.0
    return n1, q, np.stack([o["k"] * g1, np.where(down, high, low), np.where(down, low, high)])


def _invariants(y):
    """A = n1 + n2, D = n2 - nb, the Manley-Rowe scale n2 + nb and P = conj(a1) a2 b2."""
    n1, n2, nb = (z.real ** 2 + z.imag ** 2 for z in y)
    return n1 + n2, n2 - nb, n2 + nb, np.conj(y[0]) * y[1] * y[2]


def _block(rows, out, stops, kappa):
    """Write the state of a block (views a1, a2, b2 at t0) at each stop into out[stop].

    Returns per stop the raw maxima (relative atom drift, Manley-Rowe drift,
    Manley-Rowe scale, relative drift of K) and the set of stops whose state
    is not finite.  Only the orbit is kept across stops, and each stop is
    evaluated in a scope of its own: the t0 invariants and phases are read
    again from rows, so a block holds about one stop's temporaries at a time.
    """
    unit = np.sqrt(_invariants(rows)[0])  # sqrt(A): squares of both A and the vacuum stay in range
    o = _orbit(*(row / np.sqrt(unit) for row in rows))
    start = _integrals(o, o["v0"], o.pop("s0"), o.pop("c0"))[2]
    half = 0.5 * np.pi * _landen(o["m"], o["m1"])[1]  # K(m): x has the period 2 K(m) in v
    rate = kappa * np.sqrt(unit) * o["root"]

    def at(r, y):
        if r == 0.0:
            for row, dest in zip(rows, y):
                np.copyto(dest, row)
        else:
            v = o["v0"] + rate * r
            turns = np.floor(v / (2.0 * half) + 0.5)
            v = v - 2.0 * turns * half
            s, c, _ = _jacobi(v, o["m"], o["m1"])
            n1, q, g = _integrals(o, v, s, c * c)
            wrapped = 0.0 < turns  # v >= v0 >= -K(m)
            if np.max(turns) > 0.0:  # whole periods: twice the integrals from 0 to K(m) a turn
                sub = {name: value[wrapped] for name, value in o.items()}
                g[:, wrapped] += 2.0 * turns[wrapped] * _integrals(sub, half[wrapped], 1.0, 0.0)[2]
            norms = (n1, q + np.maximum(o["d"], 0.0), q + np.maximum(-o["d"], 0.0))
            for row, dest, norm, g_row, g_start in zip(rows, y, norms, g, start):
                mag, theta = np.sqrt(unit * norm), np.angle(row) + (g_row - g_start) / o["root"]
                dest.real, dest.imag = mag * np.cos(theta), mag * np.sin(theta)
        (a, d, w, p), (a0, d0, w0, p0) = _invariants(y), _invariants(rows)
        return [np.max(np.abs(a - a0) / a0), np.max(np.abs(d - d0)), np.max(np.maximum(w0, w)),
                np.max(np.abs(p.real - p0.real) / np.maximum(np.abs(p0), np.abs(p)))]

    stats = [at(r, y) for r, y in zip(stops, out)]
    # NaN and inf survive the largest magnitude of the real and imaginary parts
    return stats, {index for index, y in enumerate(out)
                   if not np.isfinite(np.max(np.abs(y.view(np.float64))))}


def evaluate(rows, stops, kappa):
    """The states (stop, row, trajectory) of rows (a1, a2, b2) at each stop, the
    per-stop maxima (relative atom drift, Manley-Rowe drift, Manley-Rowe scale,
    relative drift of K) and the set of stops whose state is not finite."""
    n = rows[0].size
    states = np.empty((len(stops), 3, n), dtype=np.complex128)
    parts, bad = [], set()
    for i in range(0, n, CLOSED_FORM_BLOCK):
        cols = slice(i, i + CLOSED_FORM_BLOCK)
        stats, failed = _block([row[cols] for row in rows], states[:, :, cols], stops, kappa)
        parts.append(stats)
        bad |= failed
    return states, np.max(parts, axis=0), bad
