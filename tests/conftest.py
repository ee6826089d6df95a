"""Shared oracles and generators for the test suite.

The brute-force integrators here deliberately avoid the package's own
quadrature path: they integrate in the s coordinate with scipy's QUADPACK
wrapper segment by segment, so any systematic error in the library's
log-space assembly would show up as a disagreement.  The closed-form
J oracles for the two concentration families use only Dawson's function,
which stays finite for any n.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import dawsn

from moser2d import RadialProfile


def expm1_minus_x(x: float) -> float:
    # e^x - 1 - x; below |x| = 0.5 as the Taylor sum x^2/2! + x^3/3! + ...,
    # since expm1(x) - x cancels there
    if abs(x) >= 0.5:
        return math.expm1(x) - x
    term, total, j = x * x / 2.0, 0.0, 2
    while total + term != total:
        total += term
        j += 1
        term *= x / j
    return total


def brute_j(p: RadialProfile, beta: float, kind: str = "expm1") -> float:
    g = math.expm1 if kind == "expm1" else expm1_minus_x
    s, v = p.s, p.v
    total = 0.0
    for i in range(len(s) - 1):
        sl, sr = float(s[i]), float(s[i + 1])
        if sr == sl:
            continue
        vl = float(v[i])
        slope = (float(v[i + 1]) - vl) / (sr - sl)

        def f(x, vl=vl, m=slope, sl=sl):
            u = vl + m * (x - sl)
            return g(beta * u * u) * math.exp(-x)

        val, _ = quad(f, sl, sr, epsabs=0.0, epsrel=1e-12, limit=500)
        total += val
    top = float(v[-1])
    if top > 0.0:
        total += g(beta * top * top) * math.exp(-float(s[-1]))
    return p.t_support * total


def brute_l2(p: RadialProfile) -> float:
    s, v = p.s, p.v
    total = 0.0
    for i in range(len(s) - 1):
        sl, sr = float(s[i]), float(s[i + 1])
        if sr == sl:
            continue
        vl = float(v[i])
        slope = (float(v[i + 1]) - vl) / (sr - sl)

        def f(x, vl=vl, m=slope, sl=sl):
            u = vl + m * (x - sl)
            return u * u * math.exp(-x)

        val, _ = quad(f, sl, sr, epsabs=0.0, epsrel=1e-13, limit=500)
        total += val
    total += float(v[-1]) ** 2 * math.exp(-float(s[-1]))
    return p.t_support * total


def plateau_term(p: RadialProfile, beta: float) -> float:
    # T (e^{beta v_top^2} - 1) e^{-s_top}, read off the last knot
    w = beta * float(p.v[-1]) ** 2
    return p.t_support * -math.expm1(-w) * math.exp(w - float(p.s[-1]))


def moser_j_oracle(n: int) -> float:
    # closed form of T * int_0^inf (e^{4 pi U^2} - 1) e^{-s} ds for the
    # unit-Dirichlet log cap: the -1 term cancels the plateau exactly and
    # the rise completes to a square, leaving 4 pi x D(x) with D Dawson's
    # function and x = sqrt(log n / 2); D keeps it finite for any n
    x = math.sqrt(math.log(n) / 2.0)
    return 4.0 * math.pi * x * dawsn(x)


def counterexample_j_oracle(n: int) -> float:
    # J_{4 pi} of the dilated, flattened log cap, from its definition:
    # support pi R^2 with R = sqrt(L)/log L, rise lam s/(2 sqrt(2 pi L))
    # over s in [0, 2L] with lam^2 = 1 - log L/(4L), L = log n.  With
    # a = lam^2/(2L) the rise integral int_0^{2L} e^{a s^2 - s} ds is
    # (D(p) + D(q)/sqrt(L))/sqrt(a), p = 1/(2 sqrt(a)), q = 2L sqrt(a) - p;
    # the -1 terms and the plateau add -1 + 1/sqrt(L) in closed form
    big_l = math.log(n)
    log_l = math.log(big_l)
    t_sup = math.pi * big_l / (log_l * log_l)
    ra = math.sqrt((1.0 - log_l / (4.0 * big_l)) / (2.0 * big_l))
    p = 0.5 / ra
    q = 2.0 * big_l * ra - p
    rise = (dawsn(p) + dawsn(q) / math.sqrt(big_l)) / ra
    return t_sup * (rise - 1.0 + 1.0 / math.sqrt(big_l))


def reference_knot_error(t_support, s, v):
    # RadialProfile's checks in their original order and form (np.diff, the
    # np.all/np.any wrappers, masks always built): None when the input is
    # accepted, else the message of the ValueError it must raise
    t = float(t_support)
    if not (math.isfinite(t) and t > 0.0):
        return "t_support must be positive and finite"
    s = np.array(s, dtype=float)
    v = np.array(v, dtype=float)
    if s.ndim != 1 or s.shape != v.shape or s.size == 0:
        return "knot arrays must be equal-length 1-d and nonempty"
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
        return "knots must be finite"
    if s[0] != 0.0:
        return "first knot must sit at s = 0"
    if np.any(v < 0.0):
        return "knot values must be nonnegative"
    ds = np.diff(s)
    dv = np.diff(v)
    if np.any(ds < 0.0):
        return "s must be nondecreasing"
    if np.any(dv < 0.0):
        return "v must be nondecreasing (profiles are rearrangements)"
    dup = ds == 0.0
    if np.any(dup & (dv == 0.0)):
        return "duplicate knot (zero-length segment with no jump)"
    if np.any(dup[:-1] & dup[1:]):
        return "stacked jumps: at most two knots may share one s"
    return None


def random_profile(rng, allow_jumps: bool = True, max_extra: int = 7) -> RadialProfile:
    t_sup = float(np.exp(rng.uniform(-3.0, 6.0)))
    s = [0.0]
    v = [0.0 if rng.random() < 0.7 else float(rng.uniform(0.0, 0.5))]
    was_jump = False
    for _ in range(int(rng.integers(1, max_extra + 1))):
        if allow_jumps and not was_jump and rng.random() < 0.3:
            s.append(s[-1])
            v.append(v[-1] + float(rng.uniform(1e-3, 1.0)))
            was_jump = True
        else:
            s.append(s[-1] + float(rng.uniform(0.05, 2.0)))
            v.append(v[-1] + float(rng.uniform(0.0, 0.8)))
            was_jump = False
    return RadialProfile(t_sup, s, v)


def random_smooth_profile(rng, max_dirichlet: float = 1.0) -> RadialProfile:
    # jump-free, v[0] = 0, amplitude capped so dirichlet_sq <= max_dirichlet
    n = int(rng.integers(2, 8))
    ds = rng.uniform(0.1, 2.0, size=n - 1)
    dv = rng.uniform(0.0, 0.6, size=n - 1)
    dv[rng.integers(0, n - 1)] += 0.05
    s = np.concatenate([[0.0], np.cumsum(ds)])
    v = np.concatenate([[0.0], np.cumsum(dv)])
    t_sup = float(np.exp(rng.uniform(-2.0, 5.0)))
    dir_sq = 4.0 * math.pi * float(np.sum(dv * dv / ds))
    if dir_sq > max_dirichlet:
        v = v * math.sqrt(max_dirichlet / dir_sq) * float(rng.uniform(0.5, 1.0))
    return RadialProfile(t_sup, s, v)


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)
