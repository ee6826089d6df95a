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

import gc
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import quadrature
from .quadrature import _EPS, _SHORT_PIECES, _TERM_ULPS, profile_exp_integral, segment_moments

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
# e^-s is a normal float for s up to this
_NORMAL_MIN = sys.float_info.min
_S_NORMAL = -math.log(_NORMAL_MIN)
# profiles of at most this many knots are measured on Python floats, as
# quadrature sums them
_SHORT_KNOTS = _SHORT_PIECES + 1


# every module checks its arguments through these: one rule, one message


def _float(x) -> float:
    """float(x), but an int beyond binary64 range reads as +-inf, as the
    literal 1e400 does, so that it gets the message that inf gets."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _floats(x) -> np.ndarray:
    """np.array(x, dtype=float), with _float's reading of too large an int."""
    try:
        return np.array(x, dtype=float)
    except OverflowError:
        return np.frompyfunc(_float, 1, 1)(np.array(x, dtype=object)).astype(float)


def _positive(x, name: str) -> float:
    """x as a float; ValueError unless it is positive and finite."""
    x = _float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError("%s must be positive and finite" % name)
    return x


def _subcritical(beta) -> float:
    """b = beta/(4 pi); ValueError unless 0 < b < 1, the subcritical range."""
    b = _float(beta) / _4PI
    if not (0.0 < b < 1.0):
        raise ValueError("beta must lie in (0, 4 pi)")
    return b


def _tol(tol) -> float:
    """tol as a float; ValueError unless it lies in (0, 1e-6]."""
    tol = _float(tol)
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")
    return tol


def _check_knots(s, v):
    """RadialProfile's knot checks on the arrays s, v of equal length >= 1."""
    # knots that are nondecreasing from a finite first to a finite last
    # entry are finite throughout, so one pass over the differences
    # accepts exactly the valid inputs; a rejected input (whose
    # differences may be inf - inf or overflow) runs the checks in
    # order to pick its message
    with np.errstate(invalid="ignore", over="ignore"):
        ds = s[1:] - s[:-1]
        dv = v[1:] - v[:-1]
    ds_min = ds.min(initial=math.inf)
    if not (
        s[0] == 0.0
        and v[0] >= 0.0
        and math.isfinite(s[-1])
        and math.isfinite(v[-1])
        and ds_min >= 0.0
        and dv.min(initial=math.inf) >= 0.0
    ):
        if not (np.isfinite(s).all() and np.isfinite(v).all()):
            raise ValueError("knots must be finite")
        if s[0] != 0.0:
            raise ValueError("first knot must sit at s = 0")
        if (v < 0.0).any():
            raise ValueError("knot values must be nonnegative")
        if (ds < 0.0).any():
            raise ValueError("s must be nondecreasing")
        if (dv < 0.0).any():
            raise ValueError("v must be nondecreasing (profiles are rearrangements)")
    if ds_min == 0.0:
        dup = ds == 0.0
        if (dup & (dv == 0.0)).any():
            raise ValueError("duplicate knot (zero-length segment with no jump)")
        if (dup[:-1] & dup[1:]).any():
            raise ValueError("stacked jumps: at most two knots may share one s")


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

    Every input runs the array checks of _check_knots.  The norms of a
    plain short profile (at most _SHORT_KNOTS knots, see _short_plain) are
    summed on Python floats, bit for bit as on arrays.

    Profiles derived by scale_dilate, scale_amplitude and tau_rescale
    share their parent's read-only knot arrays, or own new ones that keep
    the invariants by construction; only their support is checked again.
    """

    __slots__ = ("_t_support", "_s", "_v")

    def __init__(self, t_support, s, v):
        t = _positive(t_support, "t_support")
        s = _floats(s)
        v = _floats(v)
        if s.ndim != 1 or s.shape != v.shape or s.size == 0:
            raise ValueError("knot arrays must be equal-length 1-d and nonempty")
        _check_knots(s, v)
        s.setflags(write=False)
        v.setflags(write=False)
        self._t_support = t
        self._s = s
        self._v = v

    @classmethod
    def _from_checked(cls, t_support, s, v) -> "RadialProfile":
        """A profile on read-only knot arrays that satisfy every knot check
        already: those of a checked profile, or knots derived from them by
        an operation that keeps the checks.  Only t_support is checked."""
        p = cls.__new__(cls)
        p._t_support = _positive(t_support, "t_support")
        p._s, p._v = s, v
        return p

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
        t = _positive(t, "t")
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
        r = _float(r)
        if r < 0.0:
            raise ValueError("radius must be nonnegative")
        if r == 0.0:
            return float(self._v[-1])
        return self.value_at(math.pi * r * r)

    def to_dict(self) -> dict:
        return {
            "t_support": self._t_support,
            "knots": np.column_stack((self._s, self._v)).tolist(),
        }

    def to_json(self) -> str:
        # repr of binary64 floats is shortest round-trip decimal, so the
        # serialization is bit-faithful
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "RadialProfile":
        try:
            t_support, knots = d["t_support"], d["knots"]
            if not set(map(len, knots)) <= {2}:
                raise TypeError("a knot is an [s, v] pair")
            # every cell is a JSON number: true, false, a string, a list, an
            # object and null are refused alike
            cells = [t_support, *chain.from_iterable(knots)]
            if not set(map(type, cells)) <= {int, float}:
                raise TypeError("a cell is no number")
        except (KeyError, TypeError) as exc:
            raise ValueError("profile needs t_support and knots [[s, v], ...]") from exc
        x = _floats(cells)
        return cls(x[0], x[1::2], x[2::2])

    @classmethod
    def from_json(cls, text: str) -> "RadialProfile":
        """The profile of a JSON document of from_dict's layout.

        json.loads makes one list per knot, and those allocations start
        collector passes that can find nothing: JSON values hold no cycle.
        The collector stays off until from_dict has returned and the parsed
        document is freed, so that no pass walks its lists on the way out,
        and is then left as the caller had it, on every path.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                d = json.loads(text)
            except (json.JSONDecodeError, RecursionError) as exc:
                # RecursionError: arrays or objects nested past the decoder's depth
                raise ValueError("invalid profile json: %s" % exc) from exc
            p = cls.from_dict(d)
            del d
            return p
        finally:
            if enabled:
                gc.enable()

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


def _plain(v, ds_min, s_end=None):
    """True when one profile, or every row of a stack, is plain: v_end is 0
    or in [1e-150, 1e153], every ds > 1e-154 v_end (so no jump), and
    e^-s_end is normal where s_end is given, as the L2 kernel gives it.
    Then no slope reaches 1e154, no sum of either array norm kernel nor 4 pi
    times the Dirichlet sum leaves binary64, and no nonzero v_end^2 falls
    below the normal range before T multiplies it.  _short_plain is this
    rule on floats, plus v_0 = 0."""
    # v.T[-1] is a float for one profile, not a 0-d array, and all(x.flat)
    # costs a fifth of x.all() on one bool
    v_end = v.T[-1]
    ok = (ds_min > v_end * 1e-154) & (v_end <= 1e153) & ((v_end >= 1e-150) | (v_end == 0.0))
    return all((ok if s_end is None else ok & (s_end <= _S_NORMAL)).flat)


def _dirichlet_sq(v, ds, dv, ds_min):
    """4 pi sum (dv)^2 / ds; inf at a jump (a zero-length piece or v_0 > 0).
    ds_min is the shortest piece, ds.min(axis=-1, initial=inf); a stack of
    profiles gives one value per row."""
    if _plain(v, ds_min) and all((v.T[0] == 0.0).flat):
        d = _4PI * (dv * dv / ds).sum(axis=-1)
    else:
        # any other input pays for silencing an overflow to inf; a row that
        # jumps is inf, and when every row does no term is formed
        jump = (v.T[0] > 0.0) | (ds_min == 0.0)
        if all(jump.flat):
            return np.full(jump.shape, math.inf) if v.ndim > 1 else math.inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sq = dv * dv
            # a term whose dv^2 falls below the normal range is dv (dv / ds):
            # there dv / ds stays finite, and normal wherever the term is
            terms = np.where(sq < _NORMAL_MIN, dv * (dv / ds), sq / ds)
            d = _4PI * terms.sum(axis=-1)
        d = np.where(jump, math.inf, d)
    return d if v.ndim > 1 else float(d)


def _l2_sq(t, s, v, ds, dv, ds_min):
    """T int U(s)^2 e^{-s} ds from segment_moments; zero-length pieces add nothing.
    ds_min is as for _dirichlet_sq; a stack of profiles with one t gives
    one value per row."""
    if not _plain(v, ds_min, s.T[-1]):
        if s.ndim == 1:
            return _l2_row(t, s, v, ds, dv)
        return np.array([_l2_row(t, *x) for x in zip(s, v, ds, dv)])
    p1, p2, p3 = segment_moments(ds, 2) if s.ndim == 1 else _stack_moments(ds)
    p0, m = v[..., :-1], dv / ds
    acc = (np.exp(-s[..., :-1]) * (p0 * p0 * p1 + 2.0 * p0 * m * p2 + m * m * p3)).sum(axis=-1)
    if s.ndim == 1:
        return t * (float(acc) + _plateau_sq(float(s[-1]), float(v[-1])))
    ends = zip(acc.tolist(), s[:, -1].tolist(), v[:, -1].tolist())
    return np.array([t * (x + _plateau_sq(s_end, v_end)) for x, s_end, v_end in ends])


def _stack_moments(ds):
    """segment_moments(ds, 2) of a stack of lengths, from one call on row 0
    and the entries of the other rows that differ from it.  The moments are
    elementwise, so every entry keeps its bits; the rows of a batch of moves
    from one incumbent share most lengths."""
    k = ds.shape[1]
    diff = ds[1:] != ds[0]
    out = []
    for x in segment_moments(np.concatenate((ds[0], ds[1:][diff])), 2):
        y = np.empty_like(ds)
        y[:] = x[:k]
        y[1:][diff] = x[k:]
        out.append(y)
    return out


def _plateau_sq(s_end, v_end):
    """v_end^2 e^-s_end, the plateau's integral over T, on floats via math."""
    if s_end > _S_NORMAL:
        # e^-s_end is not normal: e^(-s_end/2) goes into both factors
        h = v_end * math.exp(-0.5 * s_end)
        return h * h
    try:
        return v_end ** 2 * math.exp(-s_end)
    except OverflowError:
        # v_end > 1.34e154: the square alone leaves binary64
        return v_end * (v_end * math.exp(-s_end))


def _l2_row(t, s, v, ds, dv):
    """_l2_sq of one profile, unwarned, with the plain sum's bits where that
    sum is finite and e^-s normal, so it also serves plain rows.

    A term where m = dv / ds overflows is formed without m, as dv^2 (M_2/ds^2)
    + 2 p0 dv (M_1/ds) + p0^2 M_0: M_j ~ ds^(j+1)/(j+1) may underflow where
    m * m overflows, but then its term is negligible.  A term whose e^-s is
    not normal, or whose product with it is not finite, takes e^(-s/2) into
    both factors of each square, as the plateau does past s = _S_NORMAL.
    A profile with 0 < v_end < 1e-150 takes sqrt(T) into both factors of
    every square, which T would otherwise multiply after they underflow.
    """
    if 0.0 < v[-1] < 1e-150:
        h = math.sqrt(t)
        t, v, dv = 1.0, h * v, h * dv
    lin = ds > 0.0
    a, p0, ds, dv = s[:-1][lin], v[:-1][lin], ds[lin], dv[lin]
    p1, p2, p3 = segment_moments(ds, 2)

    def m_free(k, h=1.0):
        # the terms at k without m, with h^2 taken into each square
        hp, hd, d = h * p0[k], h * dv[k], ds[k]
        return hp * hp * p1[k] + 2.0 * hp * (hd * (p2[k] / d)) + hd * (hd * (p3[k] / d / d))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = dv / ds
        terms = p0 * p0 * p1 + 2.0 * p0 * m * p2 + m * m * p3
        bad = ~np.isfinite(terms)
        if bad.any():
            terms[bad] = m_free(bad)
            bad = ~np.isfinite(terms)
        # e^-a <= 1 keeps a finite term finite
        bad |= a > _S_NORMAL
        terms *= np.exp(-a)
        if bad.any():
            terms[bad] = m_free(bad, np.exp(-0.5 * a[bad]))
    return t * (float(terms.sum()) + _plateau_sq(float(s[-1]), float(v[-1])))


def _short_plain(p):
    """(s, v, ds, dv) as float lists of a short profile that is plain for
    both norm kernels: _plain on floats, plus v_0 = 0.  None for any other
    profile."""
    if p.n_knots > _SHORT_KNOTS:
        return None
    s, v = p.s.tolist(), p.v.tolist()
    v_end = v[-1]
    if v[0] > 0.0 or v_end > 1e153 or 0.0 < v_end < 1e-150 or s[-1] > _S_NORMAL:
        return None
    # the knots are checked: finite, so min sees no nan
    ds = [b - a for a, b in zip(s, s[1:])]
    if ds and not min(ds) > v_end * 1e-154:
        return None
    return s, v, ds, [b - a for a, b in zip(v, v[1:])]


def _short_dirichlet_sq(s, v, ds, dv):
    """_dirichlet_sq of a _short_plain profile on floats, bit for bit: numpy
    sums fewer than 8 terms left to right from 0."""
    acc = 0.0
    for d, e in zip(ds, dv):
        acc += e * e / d
    return _4PI * acc


def _short_l2_sq(t, s, v, ds, dv):
    """_l2_sq of a _short_plain profile on floats, bit for bit: the same
    operations in the same order, numpy's and scipy's ufuncs for every
    transcendental, and the sum left to right from 0."""
    # looked up at each call: the name is rebound on the first special-function call
    gammainc = quadrature._gammainc_float
    acc = 0.0
    for a, p0, d, e in zip(s, v, ds, dv):
        p1, p2, p3 = float(-np.expm1(-d)), gammainc(2.0, d), 2 * gammainc(3.0, d)
        m = e / d
        acc += float(np.exp(-a)) * (p0 * p0 * p1 + 2.0 * p0 * m * p2 + m * m * p3)
    return t * (acc + _plateau_sq(s[-1], v[-1]))


def dirichlet_norm_sq(p: RadialProfile) -> float:
    """Exact Dirichlet seminorm squared, 4 pi sum (dv)^2 / ds.

    Jumps of u* (including a positive value at the support edge) are not
    H^1: the result is inf for them.
    """
    short = _short_plain(p)
    if short is not None:
        return _short_dirichlet_sq(*short)
    s, v = p.s, p.v
    ds = s[1:] - s[:-1]
    return _dirichlet_sq(v, ds, v[1:] - v[:-1], ds.min(initial=math.inf))


def l2_norm_sq(p: RadialProfile) -> float:
    """T int U(s)^2 e^{-s} ds in closed form (no quadrature); jumps add nothing."""
    short = _short_plain(p)
    if short is not None:
        return _short_l2_sq(p.t_support, *short)
    s, v = p.s, p.v
    ds = s[1:] - s[:-1]
    return _l2_sq(p.t_support, s, v, ds, v[1:] - v[:-1], ds.min(initial=math.inf))


def tm_functional(p: RadialProfile, beta: float, tol: float = 1e-10) -> FunctionalReport:
    """J_beta(u) = T int (e^{beta U^2} - 1) e^{-s} ds with norms attached.

    Every piece is closed form: linear pieces through Dawson's function,
    or a positive Taylor series where that would cancel below tol (see
    quadrature).  Raises ValueOverflowError when the true value exceeds
    binary64 range.

    Where 0 < v_end < 1e-150 and beta v_end^2 <= 2^-53, J is the L2 norm
    of sqrt(beta T) u under support 1, whose squares are at J's scale: the
    quadrature squares v before T multiplies, and beta times a norm that
    underflowed, or T times squares that did, would lose J as well.  There
    J = beta ||u||_2^2 (1 + d) with 0 <= d <= beta v_end^2, and quad_error
    reports beta v_end^2 plus _TERM_ULPS eps for the norm's rounding, and a
    J below the normal range adds _TERM_ULPS least subnormals per knot,
    over J, for the rounding there.  A J that underflows to 0 keeps the
    quadrature.
    """
    beta = _positive(beta, "beta")
    tol = _tol(tol)
    s, v = p.s, p.v
    short = _short_plain(p)
    if short is not None:
        dir_sq = _short_dirichlet_sq(*short)
        l2_sq = _short_l2_sq(p.t_support, *short)
        # the short path of profile_exp_integral takes these float lists
        s, v = short[:2]
    else:
        ds, dv = s[1:] - s[:-1], v[1:] - v[:-1]
        ds_min = ds.min(initial=math.inf)
        dir_sq = _dirichlet_sq(v, ds, dv, ds_min)
        l2_sq = _l2_sq(p.t_support, s, v, ds, dv, ds_min)
    if p.is_zero:
        return FunctionalReport(0.0, dir_sq, l2_sq, 0.0)
    v_end = float(v[-1])
    # beta v_end first, as Python multiplies: v_end^2 alone may underflow
    if v_end < 1e-150 and beta * v_end * v_end <= 0.5 * _EPS:
        # h v_end <= sqrt(T) 2^-26.5, and h <= sqrt(max) sqrt(max) is finite
        h = math.sqrt(beta) * math.sqrt(p.t_support)
        j = _l2_row(1.0, s, h * v, ds, h * dv)
        if j > 0.0:
            # below the normal range each operation rounds by up to half a least subnormal
            sub = _TERM_ULPS * len(s) * math.ulp(0.0) / j if j < _NORMAL_MIN else 0.0
            return FunctionalReport(j, dir_sq, l2_sq, beta * v_end * v_end + _TERM_ULPS * _EPS + sub)
    value, abs_err = profile_exp_integral(p.t_support, s, v, beta, tol, kind="expm1")
    rel = abs_err / value if value > 0.0 else 0.0
    return FunctionalReport(value, dir_sq, l2_sq, rel)


def _dedupe(s, v):
    # drop knots made redundant by rounding (jump collapsed to equality)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = (s[1:] > s[:-1]) | (v[1:] > v[:-1])
    return s[keep], v[keep]


def scale_amplitude(p: RadialProfile, a: float) -> RadialProfile:
    """Pointwise scaling u -> a u; satisfies J_beta(a u) = J_{a^2 beta}(u).

    Only a jump, a repeated s, can collapse when v is scaled; every other
    knot is kept with its s.
    """
    a = _float(a)
    if not (a >= 0.0 and math.isfinite(a)):
        raise ValueError("amplitude factor must be nonnegative and finite")
    if a == 1.0:
        return p
    if a == 0.0:
        return RadialProfile.zero(p.t_support)
    # a > 0 keeps every v_i >= 0 and their order, and v_end bounds the
    # rest: only v_end * a can leave binary64
    if not math.isfinite(float(p.v[-1]) * a):
        raise ValueError("knots must be finite")
    s, v = _dedupe(p.s, p.v * a)
    s.setflags(write=False)
    v.setflags(write=False)
    return RadialProfile._from_checked(p.t_support, s, v)


def scale_dilate(p: RadialProfile, b: float) -> RadialProfile:
    """Dilation u_b(x) = u(b x): support divides by b^2, knots unchanged."""
    b = _positive(b, "dilation factor")
    if b == 1.0:
        return p
    # a b^2 that underflows to 0 dilates the support to inf: _from_checked refuses it
    return RadialProfile._from_checked(p.t_support / (b * b) if b * b else math.inf, p.s, p.v)


def insert_knot(p: RadialProfile, s_new: float) -> RadialProfile:
    """Refine by one collinear knot at s_new; values are unchanged.

    A location already carrying a knot is returned as-is.  Past the last
    knot the plateau value is materialized.
    """
    s_new = _float(s_new)
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
