"""Closed-form integration of exponential profile integrands.

Every integral here is T int_0^inf g(beta U(s)^2) e^-s ds, the measure
integral of g(beta u*(t)^2) over (0, T], with U piecewise linear in s and g
either expm1 or its quadratic remainder expm1(x) - x.  On a linear piece
U = v0 + m y, y in [0, L], completing the square in phi = beta U^2 - y gives

    int_0^L e^phi dy = [e^phi(L) D(z2) - e^phi(0) D(z1)] / (sqrt(beta) m)

with D Dawson's function and z = sqrt(beta) U - 1/(2 sqrt(beta) m); the -1
(and -beta U^2) of g are incomplete-gamma moments of e^-y.  The terms cancel
where w = beta U^2 stays small or phi is nearly flat: a piece whose condition
number kappa (term magnitudes over net value) makes _TERM_ULPS eps kappa
exceed tol, and whose w rises by at most _SERIES_MAX_RISE, is summed instead
as the Taylor series of e^w in y against the moments of e^-y, whose terms are
positive.  Constant pieces and the plateau are closed form.  The error bound
adds up the rounding of every piece and the series truncation.  Results
beyond binary64 range raise ValueOverflowError naming the knot.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import dawsn, gammainc

__all__ = ["ValueOverflowError", "profile_exp_integral", "segment_moments"]

_LOG_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon
# each term of a piece is good to this many ulps: scipy's dawsn errs by up
# to 46 ulps near 0.016, gammainc(3, x) by up to 41 at small x
_TERM_ULPS = 64.0
# the series stops at an even order J <= _SERIES_TERMS; for a rise of w up
# to _SERIES_MAX_RISE its terms decay at least like rise^(j/2)/(j/2)!
_SERIES_TERMS = 40
_SERIES_MAX_RISE = 1.0
_J = np.arange(_SERIES_TERMS + 3)
_LOG_FACT = np.array([math.lgamma(j + 1.0) for j in range(_SERIES_TERMS + 3)])
_INV_FACT = np.exp(-_LOG_FACT)
# coefficient j of exp(a x + c x^2) sums a^i/i! c^k/k! over i + 2k = j: the
# pairs (i, k) listed by j, and the index of the first pair of each j
_PAIR_I, _PAIR_K = np.array([(j - 2 * k, k) for j in _J for k in range(j // 2 + 1)]).T
_PAIR_START = np.array([(j // 2 + 1) * (j - j // 2) for j in range(_SERIES_TERMS + 4)])
# M_j/L^j = e^-L sum_{r=1}^{40-j} j!/(j+r)! L^r + j! P(41, L)/L^j, and
# _TAIL[r, j] holds the weight j!/(j+r)!
_TAIL = np.array([[math.exp(_LOG_FACT[j] - _LOG_FACT[j + r]) if 0 < r <= _SERIES_TERMS - j else 0.0
                   for j in range(_SERIES_TERMS + 1)] for r in range(_SERIES_TERMS + 1)])


class ValueOverflowError(OverflowError):
    """The requested integral exceeds binary64 range ("value-overflow")."""

    def __init__(self, knot_index: int, s: float, v: float):
        self.knot_index = int(knot_index)
        self.knot_s = float(s)
        self.knot_v = float(v)
        super().__init__(
            "value-overflow at knot %d (s=%.6g, v=%.6g): the functional is "
            "finite but not representable in binary64" % (knot_index, s, v)
        )


def segment_moments(length, k: int):
    """[M_0, ..., M_k], M_j = int_0^L y^j e^-y dy = j! P(j + 1, L) elementwise.

    P is the regularized lower incomplete gamma function: no moment cancels.
    """
    length = np.asarray(length, dtype=float)
    moments = [-np.expm1(-length)]
    for j in range(1, k + 1):
        p = gammainc(j + 1.0, length)
        # 1! = 1: skip a multiply the norm kernels pay on every call
        moments.append(math.factorial(j) * p if j > 1 else p)
    return moments


def _g_scaled(w, remainder):
    """g(w) e^-w for w >= 0: P(1, w) = 1 - e^-w, or P(2, w) for the remainder."""
    return gammainc(2.0, w) if remainder else -np.expm1(-w)


def _series(rw0, h, length, remainder):
    """(sum, truncation bound) of routed pieces in units of T e^-s e^w0.

    With x = y/L, e^(w - w0) = exp(a x + c x^2), a = 2 sqrt(w0) h, c = h^2, and
    the piece is sum_j e_j M_j/L^j over its Taylor coefficients e_j and the
    moments M_j.  The first e_j absorb the -1 (and -w) of g: no term is negative.
    """
    w0, a, c = rw0 * rw0, 2.0 * rw0 * h, h * h
    # the lowest order whose tail, relative to the leading term (c^2 for the
    # remainder from v0 = 0), is at most rise^(J/2-1)/(J/2+1)! < 1e-18
    rise = float(np.max(a + c))
    order = 4
    while order < _SERIES_TERMS and 1e18 * rise ** (order / 2 - 1) > math.factorial(order // 2 + 1):
        order += 2
    n_pair = _PAIR_START[order + 3]
    ea = a[:, None] ** _J[: order + 3] * _INV_FACT[: order + 3]
    ec = c[:, None] ** _J[: order // 2 + 2] * _INV_FACT[: order // 2 + 2]
    terms = ea[:, _PAIR_I[:n_pair]] * ec[:, _PAIR_K[:n_pair]]
    coef = np.add.reduceat(terms, _PAIR_START[: order + 3], axis=1)
    # past J the e_j halve every two steps (J + 1 >= 2 (a + 2c)) and M_j/L^j
    # falls with j, so 4 (e_J+1 + e_J+2) M_J/L^J bounds the tail
    tail, coef = 4.0 * (coef[:, -2] + coef[:, -1]), coef[:, :-2]
    coef[:, 0] = _g_scaled(w0, remainder)
    if remainder:
        g1 = -np.expm1(-w0)
        coef[:, 1] = g1 * a
        coef[:, 2] = 0.5 * a * a + g1 * c
    # L^r e^-L is negligible past L = 1000, where L^40 could overflow
    head = np.minimum(length, 1e3)[:, None] ** _J[:-2] * np.exp(-length)[:, None]
    top = np.log(gammainc(_SERIES_TERMS + 1.0, length))[:, None] + _LOG_FACT[: order + 1]
    top -= _J[: order + 1] * np.log(length)[:, None]
    scaled = head @ _TAIL[:, : order + 1] + np.exp(top)
    return np.sum(coef * scaled, axis=1), tail * scaled[:, -1]


def _linear(log_w, v0, m, length, beta, tol, remainder):
    """(log piece, log error bound) of linear pieces; log_w = log T - s."""
    rb = math.sqrt(beta)
    rbm, rw0 = rb * m, rb * v0
    w0, z1 = rw0 * rw0, rw0 - 0.5 / rbm
    h = rbm * length
    # phi(L) - phi(0) = z2^2 - z1^2, consistent with the arguments of D
    dphi = h * (2.0 * z1 + h)
    mom = segment_moments(length, 2 if remainder else 0)
    sub = mom[0]
    if remainder:
        sub = (1.0 + w0) * mom[0] + beta * m * (2.0 * v0 * mom[1] + m * mom[2])
    # in units of T e^-s e^(w0 + top) / (sqrt(beta) m) with top = max(dphi, 0),
    # the largest exponent on the piece; one factor scales both Dawson terms
    top = np.maximum(dphi, 0.0)
    t1 = dawsn(z1) * np.exp(-top)
    t2 = dawsn(z1 + h) * np.exp(dphi - top)
    ts = sub * rbm * np.exp(-(w0 + top))
    net = t2 - t1 - ts
    mag = np.abs(t1) + np.abs(t2) + ts
    log_rbm = np.log(rbm)
    scale = log_w + w0 + top - log_rbm
    # rounding: _TERM_ULPS ulps per term, one per unit of each exponent summand
    size = _TERM_ULPS + np.abs(log_w) + w0 + top + np.abs(log_rbm)
    with np.errstate(divide="ignore"):
        log_piece = scale + np.log(np.maximum(net, 0.0))
        log_err = scale + np.log(_EPS * mag * size)
        # _TERM_ULPS eps kappa > tol, written so that net <= 0 and nan route too
        routed = ~(_TERM_ULPS * _EPS * mag <= tol * net)
        if routed.any():
            routed &= h * (2.0 * rw0 + h) <= _SERIES_MAX_RISE
            if routed.any():
                total, trunc = _series(rw0[routed], h[routed], length[routed], remainder)
                scale = log_w[routed] + w0[routed]
                log_piece[routed] = scale + np.log(total)
                err = _EPS * total * (_TERM_ULPS + np.abs(log_w[routed]) + w0[routed]) + trunc
                log_err[routed] = scale + np.log(err)
    return log_piece, log_err


def profile_exp_integral(t_support, s, v, beta, tol, kind="expm1"):
    """Integrate g(beta * u*(t)**2) in measure over the whole support.

    s, v: the knot arrays of a profile (s nondecreasing, repeated at jumps;
    v nondecreasing).  kind selects g: "expm1" for exp(beta u^2) - 1,
    "remainder" for exp(beta u^2) - 1 - beta u^2.  A linear piece whose
    closed form cannot promise the relative accuracy tol is summed as a
    series.  Returns (value, absolute error bound); raises
    ValueOverflowError when the value exceeds binary64 range.
    """
    remainder = {"expm1": False, "remainder": True}[kind]
    log_t = math.log(t_support)
    s, v = np.asarray(s, dtype=float), np.asarray(v, dtype=float)
    ds, dv = s[1:] - s[:-1], v[1:] - v[:-1]
    total = err = 0.0

    # constant segments and the plateau are closed form; jumps have no measure
    const = (ds > 0.0) & (dv == 0.0) & (v[:-1] > 0.0)
    if const.any():
        idx = const.nonzero()[0]
        w = beta * v[idx] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log(_g_scaled(w, remainder) * -np.expm1(-ds[idx]))
            lp = log_t - s[idx] + w + lg
            if (lp >= _LOG_MAX).any():
                j = int(idx[lp.argmax()])
                raise ValueOverflowError(j, s[j], v[j])
            piece = np.exp(lp)
            # a piece whose g underflowed is 0 times inf: it adds no error
            terms = piece * (_TERM_ULPS + np.abs(log_t - s[idx]) + w - lg)
            terms[np.isnan(terms)] = 0.0
            err += _EPS * float(terms.sum())
        total += float(piece.sum())
    w = beta * float(v[-1]) ** 2
    g = float(_g_scaled(w, remainder))
    if g > 0.0:
        lg = math.log(g)
        lp = log_t - float(s[-1]) + w + lg
        if lp >= _LOG_MAX:
            raise ValueOverflowError(len(v) - 1, s[-1], v[-1])
        piece = math.exp(lp)
        total += piece
        err += _EPS * piece * (_TERM_ULPS + abs(log_t - float(s[-1])) + w - lg)

    lin = (ds > 0.0) & (dv > 0.0)
    if lin.any():
        idx = lin.nonzero()[0]
        lp, le = _linear(log_t - s[idx], v[idx], dv[idx] / ds[idx], ds[idx], beta, tol, remainder)
        if (lp >= _LOG_MAX).any():
            # the exponent is convex along a piece: its right knot is to blame
            j = int(idx[lp.argmax()]) + 1
            raise ValueOverflowError(j, s[j], v[j])
        total += float(np.exp(lp).sum())
        err += float(np.exp(np.minimum(le, _LOG_MAX)).sum())

    if math.isinf(total):
        raise ValueOverflowError(len(v) - 1, s[-1], v[-1])
    return total, err
