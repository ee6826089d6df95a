"""Piecewise-linear radial profiles in the log-measure coordinate.

A nonnegative radial nonincreasing function u on the plane is stored
through its decreasing rearrangement u*, reparametrized by s = log(T/t)
where T = |{u != 0}| and t is the measure variable (t = pi r^2 under the
radial identification u(x) = u*(pi |x|^2)).  Every extremal family of
interest here is piecewise linear in s, so the Dirichlet seminorm and the
L2 norm come out in closed form and concentration costs no resolution.

Knots are pairs (s_i, v_i) with s_0 = 0, s nondecreasing, v nondecreasing.
A repeated s value encodes a jump of u* (the flat step of an indicator
part); this keeps the JSON schema {t_support, knots: [[s, v], ...]}
lossless.  Beyond the last knot the profile continues with the constant
value v_last (terminal plateau), and u*(t) = 0 for t > T.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from .quadrature import profile_exp_integral, segment_moments

__all__ = [
    "RadialProfile",
    "FunctionalReport",
    "dirichlet_norm_sq",
    "l2_norm_sq",
    "tm_functional",
    "scale_amplitude",
    "scale_dilate",
    "insert_knot",
]

_4PI = 4.0 * math.pi


class RadialProfile:
    """Immutable piecewise-linear profile; see the module docstring.

    The constructor copies the knots into read-only float arrays and
    raises ValueError, checking in this order, unless:

    - t_support is positive and finite;
    - s and v are 1-d, of equal length and nonempty;
    - every knot is finite;
    - s_0 = 0;
    - every v_i >= 0;
    - s is nondecreasing, then v is nondecreasing;
    - a repeated s carries a jump (no duplicate knot), and no three knots
      share one s (no stacked jumps).
    """

    __slots__ = ("_t_support", "_s", "_v")

    def __init__(self, t_support, s, v):
        t = float(t_support)
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError("t_support must be positive and finite")
        s = np.array(s, dtype=float)
        v = np.array(v, dtype=float)
        if s.ndim != 1 or s.shape != v.shape or s.size == 0:
            raise ValueError("knot arrays must be equal-length 1-d and nonempty")
        if not (np.isfinite(s).all() and np.isfinite(v).all()):
            raise ValueError("knots must be finite")
        if s[0] != 0.0:
            raise ValueError("first knot must sit at s = 0")
        if (v < 0.0).any():
            raise ValueError("knot values must be nonnegative")
        ds = s[1:] - s[:-1]
        dv = v[1:] - v[:-1]
        if (ds < 0.0).any():
            raise ValueError("s must be nondecreasing")
        if (dv < 0.0).any():
            raise ValueError("v must be nondecreasing (profiles are rearrangements)")
        if not ds.all():
            dup = ds == 0.0
            if (dup & (dv == 0.0)).any():
                raise ValueError("duplicate knot (zero-length segment with no jump)")
            if (dup[:-1] & dup[1:]).any():
                raise ValueError("stacked jumps: at most two knots may share one s")
        s.setflags(write=False)
        v.setflags(write=False)
        self._t_support = t
        self._s = s
        self._v = v

    @classmethod
    def zero(cls, t_support: float = 1.0) -> "RadialProfile":
        return cls(t_support, [0.0], [0.0])

    @property
    def t_support(self) -> float:
        return self._t_support

    @property
    def s(self):
        """Knot abscissas, read-only."""
        return self._s

    @property
    def v(self):
        """Knot values, read-only."""
        return self._v

    @property
    def n_knots(self) -> int:
        return int(self._s.size)

    @property
    def is_zero(self) -> bool:
        return bool(self._v[-1] == 0.0)

    def value_at(self, t) -> float:
        """u*(t) for t > 0.

        Right-continuous at interior jumps (the lower value is returned at
        the jump measure itself) and zero beyond the support.  At exactly
        t = t_support the stored edge value v_0 is returned; inequality
        windows that need the rearrangement's right limit there (which is
        0 when v_0 > 0) handle that case explicitly.
        """
        t = float(t)
        if not (t > 0.0) or not math.isfinite(t):
            raise ValueError("t must be positive and finite")
        if t > self._t_support:
            return 0.0
        sq = math.log(self._t_support / t)
        s, v = self._s, self._v
        if sq <= 0.0:
            return float(v[0])
        if sq > s[-1]:
            return float(v[-1])
        k = int(np.searchsorted(s, sq, side="left"))
        if s[k] == sq:
            return float(v[k])
        w = (sq - s[k - 1]) / (s[k] - s[k - 1])
        return float(v[k - 1] + w * (v[k] - v[k - 1]))

    def radial_value(self, r) -> float:
        """The radial avatar evaluated at radius r >= 0."""
        r = float(r)
        if r < 0.0:
            raise ValueError("radius must be nonnegative")
        if r == 0.0:
            return float(self._v[-1])
        return self.value_at(math.pi * r * r)

    def to_dict(self) -> dict:
        return {
            "t_support": self._t_support,
            "knots": [[float(a), float(b)] for a, b in zip(self._s, self._v)],
        }

    def to_json(self, indent=None) -> str:
        # repr of binary64 floats is shortest round-trip decimal, so the
        # serialization is bit-faithful
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "RadialProfile":
        try:
            t_support = d["t_support"]
            knots = d["knots"]
            s = [k[0] for k in knots]
            v = [k[1] for k in knots]
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError("profile needs t_support and knots [[s, v], ...]") from exc
        return cls(t_support, s, v)

    @classmethod
    def from_json(cls, text: str) -> "RadialProfile":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError("invalid profile json: %s" % exc) from exc
        return cls.from_dict(d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return (
            self._t_support == other._t_support
            and self._s.shape == other._s.shape
            and bool((self._s == other._s).all())
            and bool((self._v == other._v).all())
        )

    def __repr__(self) -> str:
        k = min(self.n_knots, 4)
        head = ", ".join("(%g, %g)" % (a, b) for a, b in zip(self._s[:k], self._v[:k]))
        tail = "" if self.n_knots <= 4 else ", ... %d knots" % self.n_knots
        return "RadialProfile(t_support=%g, knots=[%s%s])" % (self._t_support, head, tail)


@dataclass(frozen=True)
class FunctionalReport:
    """J_beta plus the norms entering every constraint set.

    quad_error bounds the relative error of j_beta: the rounding of the
    closed-form linear pieces, eps times their condition number, plus the
    truncation of the pieces summed as a series.  The norms are closed-form
    exact.
    """

    j_beta: float
    dirichlet_sq: float
    l2_sq: float
    quad_error: float

    def sobolev_sq(self, tau: float = 1.0) -> float:
        return self.dirichlet_sq + tau * self.l2_sq

    def to_dict(self) -> dict:
        return {
            "j_beta": self.j_beta,
            "dirichlet_sq": self.dirichlet_sq,
            "l2_sq": self.l2_sq,
            "sobolev_sq": self.sobolev_sq(),
            "quad_error": self.quad_error,
        }


def _dirichlet_sq(v, ds, dv):
    """4 pi sum (dv)^2 / ds; inf at a jump (a zero-length piece or v_0 > 0).
    A stack of profiles gives one value per row."""
    # a zero-length piece is a jump: knots never repeat without one
    if v.ndim > 1:
        if ((v[:, 0] > 0.0) | ~ds.all(axis=1)).any():
            return np.array([_dirichlet_sq(*x) for x in zip(v, ds, dv)])
    elif v[0] > 0.0 or not ds.all():
        return math.inf
    d = _4PI * (dv * dv / ds).sum(axis=-1)
    return d if v.ndim > 1 else float(d)


def _l2_sq(t, s, v, ds, dv):
    """T int U(s)^2 e^{-s} ds from segment_moments; zero-length pieces add nothing.
    A stack of profiles with one t gives one value per row."""
    # one reduction finds both rare cases: jumps (ds = 0), and pieces with
    # ds <= 1e-154 v_end, the only ones where m = dv / ds can reach 1e154
    # and m * m overflow; a stack with either is summed row by row
    if s.ndim > 1:
        if not (ds.min(axis=1, initial=math.inf) > v[:, -1] * 1e-154).all():
            return np.array([_l2_sq(t, *x) for x in zip(s, v, ds, dv)])
        rare = False
    else:
        rare = ds.size > 0 and not ds.min() > float(v[-1]) * 1e-154
    a, p0 = s[..., :-1], v[..., :-1]
    if rare:
        lin = ds > 0.0
        a, p0, ds, dv = a[lin], p0[lin], ds[lin], dv[lin]
    p1, p2, p3 = segment_moments(ds, 2)
    if rare:
        terms = _steep_terms(p0, ds, dv, p1, p2, p3)
    else:
        m = dv / ds
        terms = p0 * p0 * p1 + 2.0 * p0 * m * p2 + m * m * p3
    acc = (np.exp(-a) * terms).sum(axis=-1)
    if s.ndim == 1:
        return t * (float(acc) + _plateau_sq(float(s[-1]), float(v[-1])))
    ends = zip(acc.tolist(), s[:, -1].tolist(), v[:, -1].tolist())
    return np.array([t * (x + _plateau_sq(s_end, v_end)) for x, s_end, v_end in ends])


def _plateau_sq(s_end, v_end):
    """v_end^2 e^-s_end, the plateau's integral over T, on floats via math."""
    try:
        return v_end ** 2 * math.exp(-s_end)
    except OverflowError:
        # v_end > 1.34e154: the square alone leaves binary64
        return v_end * (v_end * math.exp(-s_end))


def _steep_terms(p0, ds, dv, p1, p2, p3):
    """_l2_sq's terms where m = dv / ds may overflow: unchanged where finite.

    A term that is not finite is formed again without m, as dv^2 (M_2/ds^2)
    + 2 p0 dv (M_1/ds) + p0^2 M_0: M_j ~ ds^(j+1)/(j+1) may underflow where
    m * m overflows, but then its term is negligible.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = dv / ds
        terms = p0 * p0 * p1 + 2.0 * p0 * m * p2 + m * m * p3
        bad = ~np.isfinite(terms)
        if bad.any():
            p0, ds, dv, p1, p2, p3 = p0[bad], ds[bad], dv[bad], p1[bad], p2[bad], p3[bad]
            terms[bad] = p0 * p0 * p1 + 2.0 * p0 * (dv * (p2 / ds)) + dv * (dv * (p3 / ds / ds))
    return terms


def dirichlet_norm_sq(p: RadialProfile) -> float:
    """Exact Dirichlet seminorm squared, 4 pi sum (dv)^2 / ds.

    Jumps of u* (including a positive value at the support edge) are not
    H^1: the result is inf for them.
    """
    s, v = p.s, p.v
    return _dirichlet_sq(v, s[1:] - s[:-1], v[1:] - v[:-1])


def l2_norm_sq(p: RadialProfile) -> float:
    """T int U(s)^2 e^{-s} ds in closed form (no quadrature); jumps add nothing."""
    s, v = p.s, p.v
    return _l2_sq(p.t_support, s, v, s[1:] - s[:-1], v[1:] - v[:-1])


def tm_functional(p: RadialProfile, beta: float, tol: float = 1e-10) -> FunctionalReport:
    """J_beta(u) = T int (e^{beta U^2} - 1) e^{-s} ds with norms attached.

    Every piece is closed form: linear pieces through Dawson's function,
    or a positive Taylor series where that would cancel below tol (see
    quadrature).  Raises ValueOverflowError when the true value exceeds
    binary64 range.
    """
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    tol = float(tol)
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")
    s, v = p.s, p.v
    ds, dv = s[1:] - s[:-1], v[1:] - v[:-1]
    dir_sq = _dirichlet_sq(v, ds, dv)
    l2_sq = _l2_sq(p.t_support, s, v, ds, dv)
    if p.is_zero:
        return FunctionalReport(0.0, dir_sq, l2_sq, 0.0)
    value, abs_err = profile_exp_integral(p.t_support, s, v, beta, tol, kind="expm1")
    rel = abs_err / value if value > 0.0 else 0.0
    return FunctionalReport(value, dir_sq, l2_sq, rel)


def _dedupe(s, v):
    # drop knots made redundant by rounding (jump collapsed to equality)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = (s[1:] > s[:-1]) | (v[1:] > v[:-1])
    return s[keep], v[keep]


def scale_amplitude(p: RadialProfile, a: float) -> RadialProfile:
    """Pointwise scaling u -> a u; satisfies J_beta(a u) = J_{a^2 beta}(u)."""
    a = float(a)
    if not (a >= 0.0 and math.isfinite(a)):
        raise ValueError("amplitude factor must be nonnegative and finite")
    if a == 1.0:
        return p
    if a == 0.0:
        return RadialProfile.zero(p.t_support)
    s, v = _dedupe(p.s, p.v * a)
    return RadialProfile(p.t_support, s, v)


def scale_dilate(p: RadialProfile, b: float) -> RadialProfile:
    """Dilation u_b(x) = u(b x): support divides by b^2, knots unchanged."""
    b = float(b)
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError("dilation factor must be positive and finite")
    if b == 1.0:
        return p
    return RadialProfile(p.t_support / (b * b), p.s, p.v)


def insert_knot(p: RadialProfile, s_new: float) -> RadialProfile:
    """Refine by one collinear knot at s_new; values are unchanged.

    A location already carrying a knot is returned as-is.  Past the last
    knot the plateau value is materialized.
    """
    s_new = float(s_new)
    if not (s_new >= 0.0 and math.isfinite(s_new)):
        raise ValueError("knot location must be nonnegative and finite")
    s, v = p.s, p.v
    if (s == s_new).any():
        return p
    if s_new > s[-1]:
        s2 = np.append(s, s_new)
        v2 = np.append(v, v[-1])
        return RadialProfile(p.t_support, s2, v2)
    k = int(np.searchsorted(s, s_new, side="left"))
    w = (s_new - s[k - 1]) / (s[k] - s[k - 1])
    val = v[k - 1] + w * (v[k] - v[k - 1])
    return RadialProfile(p.t_support, np.insert(s, k, s_new), np.insert(v, k, val))
