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
positive.  Constant pieces and the plateau are closed form.  A piece so
steep that beta m overflows is skipped, as a jump is: wherever J is finite
it is shorter than about 1e-145 and adds less than its length, relative to
J.  The error bound adds up the rounding of every piece and the series
truncation.  Results beyond binary64 range raise ValueOverflowError naming
the knot.

Profiles of up to _SHORT_PIECES pieces whose pieces are jumps or closed-form
rises, such as the one- and two-piece family members, are summed piece by
piece on Python floats: the rising pieces and the plateau.  Every other
profile, including a short one with a constant piece or a piece routed to
the series, is summed on arrays; both paths give bit-identical results.
The array path also sums a stack of profiles at once, giving each row the
bits it would get alone; the series sums the routed pieces of all rows that
share a truncation order and a routed-piece count in one pass.

Both paths can compute values only (bounds=False): no error term is formed
or summed, and routing still weighs each piece's rounding against tol, so
every value keeps its bits.  Two callers read no error bound and take it:
remainder_functional, on either path, and _stack_values, the stacked path
that maximize scores its moves with.  profile_exp_integral, and with it
tm_functional, forms the bound.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import dawsn, gammainc
# P(a, x) of one Python float, with the ufunc's bits at a third of its call cost
from scipy.special.cython_special import gammainc as _gammainc_float

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


def _least_rise(order):
    """The least float rise with 1e18 rise^(order/2-1) > (order/2+1)!."""
    f, e = math.factorial(order // 2 + 1), order / 2 - 1
    x = (f / 1e18) ** (1.0 / e)
    while 1e18 * x**e > f:
        x = math.nextafter(x, 0.0)
    while not 1e18 * x**e > f:
        x = math.nextafter(x, math.inf)
    return x


# a batch is summed to the lowest even order J >= 4 whose tail, relative to
# the leading term (c^2 for the remainder from v0 = 0), is at most
# rise^(J/2-1)/(J/2+1)! < 1e-18, or to _SERIES_TERMS: J = 4 + 2 (the number
# of these thresholds at or below its largest rise), all increasing
_ORDER_RISE = np.array([_least_rise(j) for j in range(4, _SERIES_TERMS, 2)])
# profiles of at most this many pieces take _short_pieces, longer ones
# _array_pieces, and so does a short profile for which _short_pieces
# returns None (a constant piece or a routed one).  On a 2-CPU Xeon the
# short path costs about 2.5 us a piece (4 for the remainder), the array
# path about 33 us (40) at any count up to 24: they cross near 12 pieces
# (10).  numpy sums fewer than 8 values left to right, the order the short
# path keeps, so the constant stays below 8.
# profile.py shares it: a profile of at most _SHORT_PIECES + 1 knots is also
# checked and measured on floats.
_SHORT_PIECES = 7


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


def _g_scaled_float(w, remainder):
    """_g_scaled of a Python float, bit for bit, as a float."""
    return _gammainc_float(2.0, w) if remainder else float(-np.expm1(-w))


def _series(rw0, h, length, remainder, row):
    """(sum, truncation bound) of routed pieces in units of T e^-s e^w0.

    With x = y/L, e^(w - w0) = exp(a x + c x^2), a = 2 sqrt(w0) h, c = h^2, and
    the piece is sum_j e_j M_j/L^j over its Taylor coefficients e_j and the
    moments M_j.  The first e_j absorb the -1 (and -w) of g: no term is negative.

    row numbers each piece's profile, nondecreasing.  Each profile is summed
    to the order its own largest rise asks for, and the profiles of one
    order and piece count share one pass, which gives every profile the
    bits of a call on its pieces alone.
    """
    w0, a, c = rw0 * rw0, 2.0 * rw0 * h, h * h
    rise = a + c
    if row[0] == row[-1]:
        order = np.searchsorted(_ORDER_RISE, rise.max(), side="right")
        return _series_pass(w0, a, c, length, remainder, 4 + 2 * int(order), rise.size)
    start = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
    count = np.diff(np.concatenate((start, [row.size])))
    order = np.searchsorted(_ORDER_RISE, np.maximum.reduceat(rise, start), side="right")
    # count < row.size: the key gives back both
    key = order * row.size + count
    total, trunc = np.empty(row.size), np.empty(row.size)
    for k in np.unique(key).tolist():
        at = np.repeat(key == k, count)
        total[at], trunc[at] = _series_pass(w0[at], a[at], c[at], length[at], remainder,
                                            4 + 2 * (k // row.size), k % row.size)
    return total, trunc


def _series_pass(w0, a, c, length, remainder, order, p):
    """_series to one truncation order on whole profiles of p pieces each."""
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
    # P(41, L) underflows to 0 below L ~ 2e-7: its log is -inf (callers silence it)
    top = np.log(gammainc(_SERIES_TERMS + 1.0, length))[:, None] + _LOG_FACT[: order + 1]
    top -= _J[: order + 1] * np.log(length)[:, None]
    # numpy multiplies each profile's (p, 41) slice with the BLAS call a
    # p-row product makes; one (G p, 41) product would round differently
    product = head.reshape(-1, p, _SERIES_TERMS + 1) @ _TAIL[:, : order + 1]
    scaled = product.reshape(top.shape) + np.exp(top)
    return np.sum(coef * scaled, axis=1), tail * scaled[:, -1]


def _linear(log_w, v0, m, length, beta, tol, remainder, row, bounds=True):
    """(log piece, log error bound) of linear pieces; log_w = log T - s, and row
    numbers each piece's profile, nondecreasing.  Without bounds the error
    bound is None and none of its terms is formed.  The caller silences log(0)."""
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
    log_piece = scale + np.log(np.maximum(net, 0.0))
    log_err = None
    if bounds:
        # rounding: _TERM_ULPS ulps per term, one per unit of each exponent summand
        size = _TERM_ULPS + np.abs(log_w) + w0 + top + np.abs(log_rbm)
        log_err = scale + np.log(_EPS * mag * size)
    # _TERM_ULPS eps kappa > tol, written so that net <= 0 and nan route too
    routed = ~(_TERM_ULPS * _EPS * mag <= tol * net)
    if routed.any():
        routed &= h * (2.0 * rw0 + h) <= _SERIES_MAX_RISE
        if routed.any():
            # every profile's routed pieces get the bits of their own call
            total, trunc = _series(rw0[routed], h[routed], length[routed], remainder, row[routed])
            scale = log_w[routed] + w0[routed]
            log_piece[routed] = scale + np.log(total)
            if bounds:
                err = _EPS * total * (_TERM_ULPS + np.abs(log_w[routed]) + w0[routed]) + trunc
                log_err[routed] = scale + np.log(err)
    return log_piece, log_err


def profile_exp_integral(t_support, s, v, beta, tol, kind="expm1"):
    """Integrate g(beta * u*(t)**2) in measure over the whole support.

    s, v: the knot arrays of a profile (s nondecreasing, repeated at jumps;
    v nondecreasing), or lists of their floats.  kind selects g: "expm1"
    for exp(beta u^2) - 1, "remainder" for exp(beta u^2) - 1 - beta u^2.  A
    linear piece whose closed form cannot promise the relative accuracy tol
    is summed as a series.  Returns (value, absolute error bound); raises
    ValueOverflowError when the value exceeds binary64 range.
    """
    if kind not in ("expm1", "remainder"):
        raise ValueError("kind must be 'expm1' or 'remainder', not %r" % (kind,))
    return _exp_integral(t_support, s, v, beta, tol, kind == "remainder")


def _exp_integral(t_support, s, v, beta, tol, remainder, bounds=True):
    """profile_exp_integral of g chosen by remainder; without bounds the
    error bound is None and no error term is formed."""
    log_t = math.log(t_support)
    out = _short_pieces(log_t, s, v, beta, tol, remainder, bounds) if len(s) <= _SHORT_PIECES + 1 else None
    if out is None:
        s, v = np.asarray(s, dtype=float), np.asarray(v, dtype=float)
        out = _array_pieces(log_t, s, v, beta, tol, remainder, bounds)
    total, err = out
    if math.isinf(total):
        raise ValueOverflowError(len(v) - 1, s[-1], v[-1])
    return total, err


def _plateau(log_t, s_end, v_end, beta, remainder):
    """(piece, error) of the plateau past the last knot (s_end, v_end), on
    floats via math; inf past binary64."""
    try:
        w = beta * v_end**2
    except OverflowError:
        # v_end > 1.34e154: the square alone leaves binary64, beta v_end may not
        w = beta * v_end * v_end
    g = _g_scaled_float(w, remainder)
    if g <= 0.0:
        return 0.0, 0.0
    lg = math.log(g)
    lp = log_t - s_end + w + lg
    piece = math.inf if lp >= _LOG_MAX else math.exp(lp)
    return piece, _EPS * piece * (_TERM_ULPS + abs(log_t - s_end) + w - lg)


def _array_pieces(log_t, s, v, beta, tol, remainder, bounds=True):
    """(sum, error bound) of a profile's pieces and plateau, piece kinds
    batched on arrays; without bounds the error bound is None."""
    total, err, blame = _stack_pieces(np.array([log_t]), s[None], v[None], beta, tol, remainder, bounds)
    if blame[0] is not None:
        raise ValueOverflowError(*blame[0])
    return float(total[0]), float(err[0]) if bounds else None


def _stack_pieces(log_t, s, v, beta, tol, remainder, bounds=True):
    """(total, err, blame) of each row of a stack of profiles with one knot
    count, row r with log T = log_t[r]: _array_pieces on the row, bit for bit.

    blame[r] is None or the (knot_index, s, v) of the ValueOverflowError
    that _array_pieces raises; nothing raises here.  Each row sums and
    routes its own pieces, so its bits do not depend on the other rows.
    Without bounds err is None, and no error term is formed or summed.
    """
    n, k = s.shape
    ds, dv = s[:, 1:] - s[:, :-1], v[:, 1:] - v[:, :-1]
    total, err = np.zeros(n), np.zeros(n) if bounds else None
    blame = [None] * n
    # the pieces of all rows, flat in row order: piece i of row r starts at
    # flat knot i + r
    const = ((ds > 0.0) & (dv == 0.0) & (v[:, :-1] > 0.0)).ravel()
    lin = ((ds > 0.0) & (dv > 0.0)).ravel()
    ds, dv, s_flat, v_flat = ds.ravel(), dv.ravel(), s.ravel(), v.ravel()

    # constant segments and the plateau are closed form; jumps have no measure
    # a row past binary64 is summed anyway, unwarned, and then blamed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if const.any():
            idx = const.nonzero()[0]
            row = idx // (k - 1)
            knot = idx + row
            w = beta * v_flat[knot] ** 2
            log_w = log_t[row] - s_flat[knot]
            lg = np.log(_g_scaled(w, remainder) * -np.expm1(-ds[idx]))
            lp = log_w + w + lg
            _blame(blame, lp, row, knot, s, v)
            piece = np.exp(lp)
            if bounds:
                # a piece whose g underflowed is 0 times inf: it adds no error
                # eps first, as on the plateau: a piece near the binary64 maximum
                # times its ulp count would overflow
                terms = _EPS * piece * (_TERM_ULPS + np.abs(log_w) + w - lg)
                terms[np.isnan(terms)] = 0.0
                piece, terms = _row_sums(row, n, piece, terms)
                err += terms
            else:
                (piece,) = _row_sums(row, n, piece)
            total += piece
        # the plateaus from float columns, which cost less than row views
        ends = zip(log_t.tolist(), s[:, -1].tolist(), v[:, -1].tolist())
        for r, end in enumerate(ends):
            piece, piece_err = _plateau(*end, beta, remainder)
            if piece == math.inf:
                blame[r] = blame[r] or (k - 1, s[r, -1], v[r, -1])
            total[r] += piece
            if bounds:
                err[r] += piece_err

        if lin.any():
            idx = lin.nonzero()[0]
            length = ds[idx]
            m = dv[idx] / length
            if beta * m.max() == math.inf:
                # a piece whose beta m overflows is skipped, as a jump is
                keep = beta * m < math.inf
                idx, length, m = idx[keep], length[keep], m[keep]
            row = idx // (k - 1)
            knot = idx + row
            lp, le = _linear(log_t[row] - s_flat[knot], v_flat[knot], m, length,
                             beta, tol, remainder, row, bounds)
            # the exponent is convex along a piece: its right knot is to blame
            _blame(blame, lp, row, knot + 1, s, v)
            if bounds:
                piece, terms = _row_sums(row, n, np.exp(lp), np.exp(np.minimum(le, _LOG_MAX)))
                err += terms
            else:
                (piece,) = _row_sums(row, n, np.exp(lp))
            total += piece
    return total, err, blame


def _blame(blame, lp, row, knot, s, v):
    """Blame the flat knot of the largest log piece lp in each row that overflows."""
    over = lp >= _LOG_MAX
    for r in np.unique(row[over]).tolist() if over.any() else ():
        if blame[r] is None:
            at = row == r
            j = int(knot[at][lp[at].argmax()])
            blame[r] = (j - r * s.shape[1], s.flat[j], v.flat[j])


def _row_sums(row, n, *xs):
    """The sum of each of n rows' entries of every x in xs, whose entries
    come in row order, row[i] for entry i.  Rows with one count are summed
    as the rows of a 2-d array, which numpy sums as it would each row alone.
    Ragged rows are packed to the left of a zero array and summed under the
    mask of their entries: numpy hands each row's run of held entries to
    the pairwise sum in one call, so each row keeps the bits of
    x[row == r].sum(), an empty row 0.0."""
    if n == 1:
        return [x.sum(keepdims=True) for x in xs]
    count = np.bincount(row, minlength=n)
    if (count == count[0]).all():
        return [x.reshape(n, -1).sum(axis=1) for x in xs]
    held = np.arange(count.max()) < count[:, None]
    out = []
    for x in xs:
        packed = np.zeros(held.shape)
        packed[held] = x
        out.append(packed.sum(axis=1, where=held))
    return out


def _stack_values(t_support, s, v, beta, tol):
    """profile_exp_integral(t_support[r], s[r], v[r], beta, tol)[0] of each
    row of a stack, bit for bit, or the ValueOverflowError it would raise:
    _stack_pieces without error bounds."""
    log_t = np.array([math.log(t) for t in t_support])
    total, _, blame = _stack_pieces(log_t, s, v, beta, tol, False, bounds=False)
    out = total.tolist()
    for r, b in enumerate(blame):
        if b is None and math.isinf(out[r]):
            b = (s.shape[1] - 1, s[r, -1], v[r, -1])
        if b is not None:
            out[r] = ValueOverflowError(*b)
    return out


def _log(x):
    """np.log(x) as float, with the array path's -inf at 0 and nan below, unwarned."""
    if x > 0.0:
        return float(np.log(x))
    return -math.inf if x == 0.0 else math.nan


def _short_pieces(log_t, s, v, beta, tol, remainder, bounds=True):
    """_array_pieces one piece at a time on Python floats, bit for bit, or
    None where the array path must sum: at a constant piece, or at a rising
    piece that routing sends to the series.

    Every operation is the array path's, in its order, including the
    transcendentals: numpy's scalar ufuncs, since math.exp and math.log
    round differently.  Sums run left to right, as numpy's do below 8
    terms.  s, v: float lists, or arrays that it converts to them.
    Without bounds the error bound is None and no error term is formed.
    """
    if type(s) is not list or type(v) is not list:
        s, v = np.asarray(s, dtype=float).tolist(), np.asarray(v, dtype=float).tolist()
    lin = []
    for i in range(len(s) - 1):
        ds, dv = s[i + 1] - s[i], v[i + 1] - v[i]
        if ds > 0.0 and dv == 0.0 and v[i] > 0.0:
            return None
        if ds > 0.0 and dv > 0.0 and beta * (dv / ds) < math.inf:
            lin.append(i)

    total, err = _plateau(log_t, s[-1], v[-1], beta, remainder)
    if total == math.inf:
        raise ValueOverflowError(len(v) - 1, s[-1], v[-1])
    if not lin:
        return total, err if bounds else None
    rb = math.sqrt(beta)
    lps, les = [], []
    for i in lin:
        log_w, v0, length = log_t - s[i], v[i], s[i + 1] - s[i]
        m = (v[i + 1] - v0) / length
        rbm, rw0 = rb * m, rb * v0
        # a slope that underflowed gives numpy's inf, where Python would raise
        w0, z1 = rw0 * rw0, rw0 - (0.5 / rbm if rbm > 0.0 else math.inf)
        h = rbm * length
        dphi = h * (2.0 * z1 + h)
        # segment_moments(length, 2) on a float
        sub = float(-np.expm1(-length))
        if remainder:
            p2, p3 = _gammainc_float(2.0, length), _gammainc_float(3.0, length)
            sub = (1.0 + w0) * sub + beta * m * (2.0 * v0 * p2 + m * (2 * p3))
        top = max(dphi, 0.0)
        t1 = float(dawsn(z1) * np.exp(-top))
        t2 = float(dawsn(z1 + h) * np.exp(dphi - top))
        ts = sub * rbm * float(np.exp(-(w0 + top)))
        net = t2 - t1 - ts
        mag = abs(t1) + abs(t2) + ts
        if not _TERM_ULPS * _EPS * mag <= tol * net and h * (2.0 * rw0 + h) <= _SERIES_MAX_RISE:
            return None
        log_rbm = float(np.log(rbm))
        scale = log_w + w0 + top - log_rbm
        lps.append(scale + _log(max(net, 0.0)))
        if bounds:
            size = _TERM_ULPS + abs(log_w) + w0 + top + abs(log_rbm)
            les.append(scale + _log(_EPS * mag * size))
    if any(lp >= _LOG_MAX for lp in lps):
        j = lin[int(np.argmax(lps))] + 1
        raise ValueOverflowError(j, s[j], v[j])
    piece_sum = err_sum = 0.0
    for lp in lps:
        piece_sum += float(np.exp(lp))
    for le in les:
        err_sum += float(np.exp(min(le, _LOG_MAX)))
    return total + piece_sum, err + err_sum if bounds else None
