"""References the benchmark checks results against, independent of moser2d.

Nothing here calls the package: J is integrated segment by segment with
scipy's QUADPACK wrapper in the s coordinate, norms come from closed forms
derived for each family, and rearranged samples are checked through sums
over the cells themselves.  A wrong answer from the code under test
therefore cannot agree with its own reference by construction.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np

_4PI = 4.0 * math.pi

# relative tolerances; J and the L2 norm match the brute-force gates of
# tests/test_profile.py, the sample identities are exact up to rounding
J_RTOL = 1e-9
L2_RTOL = 1e-11
DIRICHLET_RTOL = 1e-12
SAMPLE_RTOL = 1e-10


def rel_err(got: float, want: float) -> float:
    if want == got:
        return 0.0
    if want == 0.0 or not math.isfinite(want):
        return math.inf
    return abs(got - want) / abs(want)


def _g(kind: str):
    if kind == "expm1":
        return math.expm1

    def remainder(w: float) -> float:
        # expm1(w) - w cancels for small w; the series keeps full precision
        if w < 1e-3:
            return 0.5 * w * w * (1.0 + w / 3.0 + w * w / 12.0 + w**3 / 60.0 + w**4 / 360.0)
        return math.expm1(w) - w

    return remainder


def brute_j(t_support: float, s, v, beta: float, kind: str = "expm1") -> float:
    """T int_0^inf g(beta U(s)^2) e^{-s} ds, one QUADPACK call per linear piece."""
    from scipy.integrate import quad

    g = _g(kind)
    s = [float(x) for x in s]
    v = [float(x) for x in v]
    total = 0.0
    for i in range(len(s) - 1):
        sl, sr = s[i], s[i + 1]
        if sr == sl:
            continue
        vl, vr = v[i], v[i + 1]
        if vl == vr:
            total += g(beta * vl * vl) * math.exp(-sl) * -math.expm1(sl - sr)
            continue
        m = (vr - vl) / (sr - sl)

        def f(x, vl=vl, m=m, sl=sl):
            u = vl + m * (x - sl)
            return g(beta * u * u) * math.exp(-x)

        val, _ = quad(f, sl, sr, epsabs=0.0, epsrel=1e-12, limit=500)
        total += val
    top = v[-1]
    if top > 0.0:
        total += g(beta * top * top) * math.exp(-s[-1])
    return t_support * total


def brute_l2(t_support: float, s, v) -> float:
    """T int_0^inf U(s)^2 e^{-s} ds by QUADPACK per piece."""
    from scipy.integrate import quad

    s = [float(x) for x in s]
    v = [float(x) for x in v]
    total = 0.0
    for i in range(len(s) - 1):
        sl, sr = s[i], s[i + 1]
        if sr == sl:
            continue
        vl = v[i]
        m = (v[i + 1] - vl) / (sr - sl)

        def f(x, vl=vl, m=m, sl=sl):
            u = vl + m * (x - sl)
            return u * u * math.exp(-x)

        val, _ = quad(f, sl, sr, epsabs=0.0, epsrel=1e-13, limit=500)
        total += val
    total += v[-1] ** 2 * math.exp(-s[-1])
    return t_support * total


def dirichlet_sq(s, v) -> float:
    """4 pi sum dv^2/ds; infinite for jumps and for a positive edge value."""
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    ds, dv = np.diff(s), np.diff(v)
    if v[0] > 0.0 or np.any((ds == 0.0) & (dv > 0.0)):
        return math.inf
    lin = ds > 0.0
    return _4PI * math.fsum((dv[lin] ** 2 / ds[lin]).tolist())


# closed-form norms of the named families, derived independently of
# moser2d.sequences: U rises linearly over [0, k] to sqrt(k/4pi) (times an
# amplitude) and stays flat, so int U^2 e^{-s} ds is elementary


def _ramp_l2(t_support: float, k: float, top: float) -> float:
    # T int_0^k (top s/k)^2 e^{-s} ds + T top^2 e^{-k}
    #   = T top^2 (2/k^2) (1 - e^{-k} - k e^{-k})
    ek = math.exp(-k)
    return t_support * top * top * 2.0 / (k * k) * (1.0 - ek - k * ek)


def moser_norms(n: int):
    return 1.0, _moser_l2(n)


def _moser_l2(n: int) -> float:
    ln = math.log(n)
    return _ramp_l2(math.pi, 2.0 * ln, math.sqrt(ln / (2.0 * math.pi)))


def counterexample_norms(n: int):
    ln = math.log(n)
    lln = math.log(ln)
    r_sq = ln / (lln * lln)
    lam_sq = 1.0 - lln / (4.0 * ln)
    return lam_sq, lam_sq * r_sq * _moser_l2(n)


def modified_moser_norms(n: int):
    a = math.sqrt(_moser_l2(n))
    return (1.0 - a) ** 2, (1.0 - a) ** 2 * a * a


def cap_norms(k: float, r: float):
    return 1.0, _ramp_l2(math.pi * r * r, k, math.sqrt(k / _4PI))


def alvino_norms(t_support: float, delta: float):
    k = 2.0 * math.log(delta)
    return 1.0, _ramp_l2(t_support, k, math.sqrt(k / _4PI))


def window_quasinorm_of_steps(values, areas) -> float:
    """sup_t u*(t) / sqrt(4 pi/T + log(T/t)) over windows, from the cells.

    With the window cost minimized at T = max(4 pi, t), the weight
    phi(t) = 1/sqrt(1 + log(4 pi/t)) (t <= 4 pi) or sqrt(t/4 pi) (t > 4 pi)
    increases in t, so on each level set of u* the supremum sits at its
    outer measure A_j = |{u >= v_j}|.
    """
    values = np.asarray(values, dtype=float)
    areas = np.asarray(areas, dtype=float)
    pos = values > 0.0
    order = np.argsort(values[pos], kind="stable")[::-1]
    vals = values[pos][order]
    cum = np.cumsum(areas[pos][order])
    last = np.ones(vals.size, dtype=bool)
    last[:-1] = vals[1:] != vals[:-1]
    v_j, a_j = vals[last], cum[last]
    small = a_j <= _4PI
    phi = np.empty_like(a_j)
    phi[small] = 1.0 / np.sqrt(1.0 + np.log(_4PI / a_j[small]))
    phi[~small] = np.sqrt(a_j[~small] / _4PI)
    return float(np.max(v_j * phi))


class Child:
    """brute_j and brute_l2 computed in a child interpreter.

    Importing scipy.integrate adds about 25 MB of resident memory, a
    quarter of the benchmark process's peak.  The QUADPACK references run
    here instead, so the benchmark's ``peak_rss_mb`` does not include them.
    Use as a context manager; leaving it stops the child and waits for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def _call(self, name, *args):
        self.proc.stdin.write(json.dumps([name, args]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference child exited with code %s" % self.proc.wait())
        out = json.loads(line)
        if isinstance(out, str):
            raise RuntimeError("reference child: %s" % out)
        return out

    def brute_j(self, t_support, s, v, beta, kind="expm1"):
        return self._call("brute_j", float(t_support), _floats(s), _floats(v), float(beta), kind)

    def brute_l2(self, t_support, s, v):
        return self._call("brute_l2", float(t_support), _floats(s), _floats(v))

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _floats(xs):
    return [float(x) for x in xs]


def _serve():
    """Answer one JSON request per line of standard input until it closes."""
    functions = {"brute_j": brute_j, "brute_l2": brute_l2}
    for line in sys.stdin:
        name, args = json.loads(line)
        try:
            out = functions[name](*args)
        except Exception as exc:  # reported to the parent, which raises
            out = "%s: %s" % (type(exc).__name__, exc)
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
