"""The two summation paths of profile_exp_integral agree bit for bit.

profile_exp_integral sums profiles of up to _SHORT_PIECES pieces on Python
floats (_short_pieces) and longer ones on arrays (_array_pieces).  Both are
called here directly on the same short profiles, and must return the same
(value, abs_err) or raise the same ValueOverflowError.  _array_pieces is
one row of _stack_pieces, which must give every row of a stack the same.
"""

import math
import warnings

import numpy as np
import pytest

from moser2d import RadialProfile, ValueOverflowError, tm_functional
from moser2d import quadrature as q

from conftest import brute_j, rel_err

PI = math.pi


def _short_profile(rng):
    # 1 to _SHORT_PIECES pieces mixing jumps, constant pieces, rises whose w
    # spans 1e-12 to a few hundred (so some pieces route to the series), and
    # an optional positive edge value
    s, v = [0.0], [0.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-6.0, 0.0))]
    was_jump = False
    for _ in range(int(rng.integers(0, q._SHORT_PIECES + 1))):
        r = rng.random()
        if r < 0.15 and not was_jump:
            s.append(s[-1])
            v.append(v[-1] + float(rng.uniform(1e-3, 0.5)))
        else:
            s.append(s[-1] + float(10.0 ** rng.uniform(-4.0, 0.5)))
            v.append(v[-1] if r < 0.35 else v[-1] + float(10.0 ** rng.uniform(-6.0, -0.3)))
        was_jump = r < 0.15 and not was_jump
    return RadialProfile(math.exp(rng.uniform(-4.0, 4.0)), s, v)


def _outcome(pieces, p, beta, tol, remainder):
    try:
        return pieces(math.log(p.t_support), p.s, p.v, beta, tol, remainder)
    except ValueOverflowError as err:
        return "overflow", err.knot_index, err.knot_s, err.knot_v


# one knot, two pieces whose w rises by 1e-11 and 0.8, routed at tol 1e-14 (the
# batch's truncation order follows the larger), a constant piece that
# overflows, a plateau that overflows, a nearly flat rise of phi = w - s
# that overflows while the plateau fits, and a constant piece and a
# plateau that each fit but whose sum overflows
_CASES = [
    (RadialProfile(1.0, [0.0], [0.3]), 4.0 * PI),
    (RadialProfile(2.0, [0.0, 1e-3, 1.2], [0.0, 1e-6, 0.25]), 4.0 * PI),
    (RadialProfile(1.0, [0.0, 1.0, 2.0], [27.0, 27.0, 27.001]), 1.0),
    (RadialProfile(1.0, [0.0, 1.0], [0.0, 30.0]), 1.0),
    (RadialProfile(1.0, [0.0, 10.0], [math.sqrt(719.0) - 0.1867, math.sqrt(719.0)]), 1.0),
    (RadialProfile(1.0, [0.0, math.log(2.0)], [math.sqrt(710.0)] * 2), 1.0),
]


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_short_path_is_bit_identical_to_array_path(tol, remainder, monkeypatch):
    batches = []
    series = q._series

    def recording_series(rw0, h, length, remainder):
        batches.append(h * (2.0 * rw0 + h))
        return series(rw0, h, length, remainder)

    monkeypatch.setattr(q, "_series", recording_series)
    rng = np.random.default_rng(20)
    cases = _CASES + [(_short_profile(rng), float(rng.choice([2.0 * PI, 4.0 * PI, rng.uniform(0.5, 300.0)])))
                      for _ in range(300)]
    for p, beta in cases:
        short = _outcome(q._short_pieces, p, beta, tol, remainder)
        assert short == _outcome(q._array_pieces, p, beta, tol, remainder), (p.s, p.v, beta)
    # the short path batched two or more routed pieces of different rise
    assert any(len(rise) >= 2 and rise.max() > 1e3 * rise.min() for rise in batches)


@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_plateau_rounds_with_math(remainder):
    # the plateau is the one place both paths round with math.log/math.exp,
    # not numpy's ufuncs, which differ from them in the last bit
    for c in np.linspace(0.05, 4.0, 80):
        for pieces in (q._short_pieces, q._array_pieces):
            w = 4.0 * PI * float(c) ** 2
            lg = math.log(float(q._g_scaled(w, remainder)))
            want = math.exp(math.log(3.0) + w + lg)
            assert pieces(math.log(3.0), np.array([0.0]), np.array([c]), 4.0 * PI, 1e-10, remainder)[0] == want


def _knots(rng, k):
    # k knots mixing jumps, constant pieces and rises whose w spans 1e-12 to
    # a few hundred, from v_0 = 0 or a positive edge value
    s, v = [0.0], [0.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-6.0, 0.0))]
    was_jump = False
    for _ in range(k - 1):
        r = rng.random()
        jump = r < 0.15 and not was_jump
        if jump:
            s.append(s[-1])
            v.append(v[-1] + float(rng.uniform(1e-3, 0.5)))
        else:
            s.append(s[-1] + float(10.0 ** rng.uniform(-7.0, 0.5)))
            v.append(v[-1] if r < 0.35 else v[-1] + float(10.0 ** rng.uniform(-6.0, -0.3)))
        was_jump = jump
    return s, v


# rows that overflow at beta = 1, with the knot _array_pieces blames: a
# constant piece (its left knot), the plateau (the last knot, checked before
# the rising pieces that overflow too) and a linear piece whose plateau fits
# (its right knot)
_OVERFLOWS = [
    (lambda k: (list(range(k)), [27.0] * 2 + [27.001] * (k - 2)), lambda k: 0),
    (lambda k: (np.linspace(0.0, 1.0, k).tolist(), np.linspace(0.0, 30.0, k).tolist()), lambda k: k - 1),
    (lambda k: ([0.0, 10.0], [math.sqrt(719.0) - 0.1867, math.sqrt(719.0)]) if k == 2 else None, lambda k: 1),
]


@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_stack_rows_equal_one_row_calls(remainder, monkeypatch):
    # _stack_pieces on 2-40 rows gives each row what _array_pieces gives it
    # alone, bit for bit, and the same blame where it overflows
    rises = []
    series = q._series

    def recording_series(rw0, h, length, remainder):
        rises.append(float(np.max(h * (2.0 * rw0 + h))))
        return series(rw0, h, length, remainder)

    monkeypatch.setattr(q, "_series", recording_series)
    rng = np.random.default_rng(21)
    blamed, mixed = set(), 0
    for trial in range(80):
        k = int(rng.choice([2, 3, 5, 9, 33]))
        beta = 1.0 if trial % 4 == 0 else float(rng.choice([2.0 * PI, 4.0 * PI, rng.uniform(0.5, 300.0)]))
        tol = float(rng.choice([1e-6, 1e-10, 1e-14]))
        rows = [(RadialProfile(math.exp(rng.uniform(-4.0, 4.0)), *_knots(rng, k)), None)
                for _ in range(int(rng.integers(2, 41)))]
        for i, (make, knot) in enumerate(_OVERFLOWS if beta == 1.0 else ()):
            if make(k) is not None:
                rows.insert(int(rng.integers(0, len(rows) + 1)), (RadialProfile(1.0, *make(k)), (i, knot(k))))
        s, v = np.array([p.s for p, _ in rows]), np.array([p.v for p, _ in rows])
        log_t = np.array([math.log(p.t_support) for p, _ in rows])
        del rises[:]
        total, err, blame = q._stack_pieces(log_t, s, v, beta, tol, remainder)
        mixed += len(rises) >= 2 and max(rises) > 1e3 * min(rises)
        for r, (p, overflow) in enumerate(rows):
            want = _outcome(q._array_pieces, p, beta, tol, remainder)
            got = ("overflow", *blame[r]) if blame[r] else (total[r], err[r])
            assert got == want, (s[r], v[r], beta, tol)
            if overflow is not None:
                assert got[:2] == ("overflow", overflow[1])
                blamed.add(overflow[0])
    # stacks routed pieces of several rows, of different rise, one call each
    assert mixed > 0
    assert blamed == {0, 1, 2}


def test_last_knot_past_the_square_root_of_binary64_max():
    # v_end > 1.34e154 squares past binary64 as a Python float; beta v_end^2
    # = 1e100 is finite, the plateau is not, and names its knot on both paths
    for n in (2, 12):
        s, v = np.linspace(0.0, 1.0, n), np.linspace(0.0, 1e200, n)
        with pytest.raises(ValueOverflowError) as exc:
            q.profile_exp_integral(1.0, s, v, 1e-300, 1e-10)
        assert exc.value.knot_index == n - 1 and exc.value.knot_v == 1e200


def test_short_series_pieces_do_not_warn():
    # gammainc(41, L) underflows to 0 on routed pieces shorter than about
    # 2e-7; its log is -inf, which the value already handles, on both paths
    profiles = [
        RadialProfile(1.0, [0.0, 1e-7, 1.0], [0.0, 1e-4, 0.1]),
        RadialProfile(1.0, [0.0, 3e-7, *np.linspace(0.5, 1.0, 9)], [0.0, 1e-4, *np.linspace(0.02, 0.1, 9)]),
    ]
    for p in profiles:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = tm_functional(p, 4.0 * PI).j_beta
        assert rel_err(value, brute_j(p, 4.0 * PI)) <= 1e-10
