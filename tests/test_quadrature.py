"""The two summation paths of profile_exp_integral agree bit for bit.

profile_exp_integral sums profiles of up to _SHORT_PIECES pieces on Python
floats (_short_pieces) and longer ones on arrays (_array_pieces).  The
float path sums rising pieces and the plateau only: at a constant piece, a
piece routed to the series or a value past binary64 anywhere but at the
plateau it returns None, and the array path sums the profile and names the
knot.  Both are called here directly on the same short profiles; where
the float path sums, both must return the same (value, abs_err) or raise
the same ValueOverflowError.  _array_pieces is one row of _stack_pieces,
which must give every row of a stack the same.
"""

import math
import warnings

import numpy as np
import pytest

from moser2d import (RadialProfile, ValueOverflowError, alvino_extremal, cap, counterexample, modified_moser,
                     moser, remainder_functional, tm_functional)
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


def _overflow_or(f, *args):
    try:
        return f(*args)
    except ValueOverflowError as err:
        return "overflow", err.knot_index, err.knot_s, err.knot_v


def _outcome(pieces, p, beta, tol, remainder):
    return _overflow_or(pieces, math.log(p.t_support), p.s, p.v, beta, tol, remainder)


# one knot, two pieces whose w rises by 1e-11 and 0.8, routed at tol 1e-14
# (the float path hands them to the array path), a constant piece that
# overflows (handed over too), a plateau that overflows, a nearly flat rise
# of phi = w - s that overflows while the plateau fits (handed over), a
# constant piece and a plateau that each fit but whose sum overflows, and
# two pieces so steep that beta m overflows (m itself, and only beta m),
# skipped like jumps
_CASES = [
    (RadialProfile(1.0, [0.0], [0.3]), 4.0 * PI),
    (RadialProfile(2.0, [0.0, 1e-3, 1.2], [0.0, 1e-6, 0.25]), 4.0 * PI),
    (RadialProfile(1.0, [0.0, 1.0, 2.0], [27.0, 27.0, 27.001]), 1.0),
    (RadialProfile(1.0, [0.0, 1.0], [0.0, 30.0]), 1.0),
    (RadialProfile(1.0, [0.0, 10.0], [math.sqrt(719.0) - 0.1867, math.sqrt(719.0)]), 1.0),
    (RadialProfile(1.0, [0.0, math.log(2.0)], [math.sqrt(710.0)] * 2), 1.0),
    (RadialProfile(1.0, [0.0, 1e-308], [0.0, 5.0]), 4.0 * PI),
    (RadialProfile(1.0, [0.0, 1e-307], [0.0, 5.0]), 4.0 * PI),
]


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_short_path_is_bit_identical_to_array_path(tol, remainder):
    rng = np.random.default_rng(20)
    cases = _CASES + [(_short_profile(rng), float(rng.choice([2.0 * PI, 4.0 * PI, rng.uniform(0.5, 300.0)])))
                      for _ in range(300)]
    summed = 0
    for p, beta in cases:
        short = _outcome(q._short_pieces, p, beta, tol, remainder)
        if short is not None:
            summed += 1
            assert short == _outcome(q._array_pieces, p, beta, tol, remainder), (p.s, p.v, beta)
    # the float path summed a fifth of the profiles or more (62 of 308 at tol 1e-14)
    assert summed >= 50


@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_float_path_hands_constant_and_routed_pieces_to_the_array_path(remainder):
    # a short profile with a constant piece (finite, and one that overflows),
    # with a piece routed to the series, with a rising piece past binary64
    # under a plateau that fits, or with pieces that each fit but whose sum
    # does not gets None from the float path, and the public functionals
    # then give the array path's bits or its ValueOverflowError
    handed = [(RadialProfile(2.0, [0.0, 0.5, 1.0], [0.0, 0.2, 0.2]), 4.0 * PI, 1e-10),
              (_CASES[2][0], _CASES[2][1], 1e-10), (_CASES[1][0], _CASES[1][1], 1e-14),
              (_CASES[4][0], _CASES[4][1], 1e-10),
              (RadialProfile(1e307, [0.0, 1.0, 6.0], [0.0, 1.0, 2.95]), 1.0, 1e-10)]
    kind = "remainder" if remainder else "expm1"
    for p, beta, tol in handed:
        assert _outcome(q._short_pieces, p, beta, tol, remainder) is None, (p.s, p.v)
        want = _outcome(q._array_pieces, p, beta, tol, remainder)
        assert _overflow_or(q.profile_exp_integral, p.t_support, p.s, p.v, beta, tol, kind) == want, (p.s, p.v)
        if want[0] == "overflow":
            functional = remainder_functional if remainder else tm_functional
            assert _overflow_or(functional, p, beta, tol) == want, (p.s, p.v)
        elif remainder:
            assert remainder_functional(p, beta, tol) == want[0], (p.s, p.v)
        else:
            rep = tm_functional(p, beta, tol)
            assert (rep.j_beta, rep.quad_error) == (want[0], want[1] / want[0]), (p.s, p.v)
    # the float path keeps the traffic that pays for it: every family
    # member of the evaluate benchmark (moser, counterexample and
    # modified_moser at n = 10..10^6, three caps, two Alvino members), at
    # each of its exponents, is summed there
    family = [f(n) for f in (moser, counterexample, modified_moser) for n in (10**e for e in range(1, 7))]
    family += [cap(k, r) for k, r in ((1.0, 0.5), (4.0, 2.0), (16.0, 1.0))]
    family += [alvino_extremal(t, d) for t, d in ((PI, math.e), (10.0, math.exp(4.0)))]
    for p in family:
        for beta in (2.0 * PI, 4.0 * PI, 19.0):
            out = q._short_pieces(math.log(p.t_support), p.s, p.v, beta, 1e-10, remainder, not remainder)
            assert out is not None, (p.t_support, p.s, p.v, beta)


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
# the rising pieces that overflow too), a linear piece whose plateau fits
# (its right knot) and a constant piece and a plateau that each fit but
# whose sum does not (the last knot)
_OVERFLOWS = [
    (lambda k: (list(range(k)), [27.0] * 2 + [27.001] * (k - 2)), lambda k: 0),
    (lambda k: (np.linspace(0.0, 1.0, k).tolist(), np.linspace(0.0, 30.0, k).tolist()), lambda k: k - 1),
    (lambda k: ([0.0, 10.0], [math.sqrt(719.0) - 0.1867, math.sqrt(719.0)]) if k == 2 else None, lambda k: 1),
    (lambda k: ([0.0, math.log(2.0)], [math.sqrt(710.0)] * 2) if k == 2 else None, lambda k: 1),
]


@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_stack_rows_equal_one_row_calls(remainder, monkeypatch):
    # _stack_pieces on 2-40 rows gives each row what _array_pieces gives it
    # alone, bit for bit, and the same blame where it overflows
    rises, served = [], []
    series = q._series

    def recording_series(rw0, h, length, remainder, row):
        # the largest rise of each profile the call serves
        rise = h * (2.0 * rw0 + h)
        rises.extend(float(rise[row == r].max()) for r in np.unique(row))
        served.append(np.unique(row).size)
        return series(rw0, h, length, remainder, row)

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
    # stacks routed pieces of several rows, of different rise, and one
    # _series call served several profiles
    assert mixed > 0
    assert max(served) >= 2
    assert blamed == {0, 1, 2, 3}


def test_stack_values_equal_profile_exp_integral(monkeypatch):
    # _stack_values forms no error term: each row's value is
    # profile_exp_integral(...)[0] bit for bit, or the ValueOverflowError it
    # raises, on stacks with constant pieces, routed pieces, rows that
    # overflow and rows past v_end = 1.34e154, whose square alone leaves
    # binary64 (there beta = 3e-308 keeps the plateau finite)
    routed = []
    series = q._series

    def recording_series(rw0, h, length, remainder, row):
        routed.append(h.size)
        return series(rw0, h, length, remainder, row)

    monkeypatch.setattr(q, "_series", recording_series)
    rng = np.random.default_rng(26)
    const = big = overflow = 0
    for trial in range(80):
        k = int(rng.choice([2, 3, 5, 9, 33]))
        beta = [1.0, 3e-308, 4.0 * PI, float(rng.uniform(0.5, 300.0))][trial % 4]
        tol = float(rng.choice([1e-6, 1e-10, 1e-14]))
        rows = [(math.exp(rng.uniform(-4.0, 4.0)), *_knots(rng, k)) for _ in range(int(rng.integers(1, 41)))]
        if beta == 1.0:
            rows += [(1.0, *make(k)) for make, _ in _OVERFLOWS if make(k) is not None]
        if beta == 3e-308:
            # v_end from 3e153 to 3e154, on both sides of 1.34e154
            rows = [(t, s, (np.array(v) * (10.0 ** rng.uniform(153.5, 154.5) / max(v[-1], 1e-3))).tolist())
                    for t, s, v in rows]
        t = [row[0] for row in rows]
        s, v = np.array([row[1] for row in rows]), np.array([row[2] for row in rows])
        got = q._stack_values(t, s, v, beta, tol)
        for r in range(len(rows)):
            try:
                want = q.profile_exp_integral(t[r], s[r], v[r], beta, tol)[0]
            except ValueOverflowError as exc:
                assert isinstance(got[r], ValueOverflowError) and str(got[r]) == str(exc), (s[r], v[r])
                overflow += 1
            else:
                assert got[r].hex() == want.hex(), (s[r], v[r], beta, tol)
                big += v[r, -1] > 1.34e154
            const += bool(((s[r, 1:] > s[r, :-1]) & (v[r, 1:] == v[r, :-1]) & (v[r, :-1] > 0.0)).any())
    assert routed and const > 100 and big > 50 and overflow > 30


def _routing_knots(rng, routed, k, beta):
    # k knots from v_0 = 0: first `routed` pieces that the series takes at
    # tol 1e-14 (w rises by at most 1 on them), the first by 1e-12 to 0.8, so
    # that its rise sets the truncation order, the others by less than 1e-5;
    # then steep rises (h > 1, never routed), constant pieces and jumps
    s, v = [0.0], [0.0]
    for i in range(k - 1):
        if i < routed:
            h = 10.0 ** rng.uniform(-6.0, -0.05) if i == 0 else 10.0 ** rng.uniform(-9.0, -6.0)
            s.append(s[-1] + float(rng.uniform(0.1, 1.0)))
            v.append(v[-1] + h / math.sqrt(beta))
            continue
        r = rng.random()
        s.append(s[-1] if r < 0.2 and len(s) > 1 and s[-1] > s[-2] else s[-1] + float(rng.uniform(0.1, 1.0)))
        v.append(v[-1] + (0.0 if 0.2 <= r < 0.4 else float(rng.uniform(1.2, 2.0)) / math.sqrt(beta)))
    return s, v


@pytest.mark.parametrize("remainder", [False, True], ids=["expm1", "remainder"])
def test_series_groups_equal_one_row_calls(remainder, monkeypatch):
    # rows with 0, 1, 2 and 3 or more routed pieces, at several truncation
    # orders, share _series calls: each profile in a call gets the bits of a
    # call on its pieces alone, and each row the bits and blame of its
    # one-row _stack_pieces call
    groups = []
    series = q._series

    def checking_series(rw0, h, length, remainder, row):
        out = series(rw0, h, length, remainder, row)
        if row[0] != row[-1]:
            groups.append([])
            for r in np.unique(row):
                at = row == r
                alone = series(rw0[at], h[at], length[at], remainder, row[at])
                assert out[0][at].tobytes() == alone[0].tobytes() and out[1][at].tobytes() == alone[1].tobytes()
                order = np.searchsorted(q._ORDER_RISE, np.max(2.0 * rw0[at] * h[at] + h[at] ** 2), side="right")
                groups[-1].append((int(order), int(at.sum())))
        return out

    monkeypatch.setattr(q, "_series", checking_series)
    rng = np.random.default_rng(23)
    for trial in range(60):
        k = int(rng.choice([5, 9, 17]))
        beta = 1.0 if trial % 3 == 0 else 4.0 * PI
        rows = [(RadialProfile(math.exp(rng.uniform(-4.0, 4.0)), *_routing_knots(rng, routed, k, beta)), None)
                for routed in rng.integers(0, 5, int(rng.integers(2, 30))).tolist()]
        for i, (make, knot) in enumerate(_OVERFLOWS if beta == 1.0 else ()):
            if make(k) is not None:
                rows.insert(int(rng.integers(0, len(rows) + 1)), (RadialProfile(1.0, *make(k)), knot(k)))
        s, v = np.array([p.s for p, _ in rows]), np.array([p.v for p, _ in rows])
        log_t = np.array([math.log(p.t_support) for p, _ in rows])
        total, err, blame = q._stack_pieces(log_t, s, v, beta, 1e-14, remainder)
        for r, (p, knot) in enumerate(rows):
            got = ("overflow", *blame[r]) if blame[r] else (total[r], err[r])
            assert got == _outcome(q._array_pieces, p, beta, 1e-14, remainder), (s[r], v[r], beta)
            if knot is not None:
                assert got[:2] == ("overflow", knot)
    counts = {c for g in groups for _, c in g}
    assert {1, 2} <= counts and max(counts) >= 3
    # calls that mixed orders and piece counts, and groups of several profiles
    assert any(len({o for o, _ in g}) >= 2 and len({c for _, c in g}) >= 3 for g in groups)
    assert any(len(g) > len(set(g)) for g in groups)


def test_profile_slices_multiply_as_separate_products():
    # _series_pass multiplies G profiles of p routed pieces as one
    # (G, p, 41) @ _TAIL product: numpy must give every (p, 41) slice the
    # bits of a p-row product, which a flat (G p, 41) product does not
    rng = np.random.default_rng(24)
    for _ in range(400):
        p, g, order = int(rng.integers(1, 12)), int(rng.integers(1, 33)), 2 * int(rng.integers(2, 21))
        head = rng.uniform(0.0, 1.0, (g, p, q._SERIES_TERMS + 1)) ** rng.integers(0, 40, q._SERIES_TERMS + 1)
        tail = q._TAIL[:, : order + 1]
        whole = head @ tail
        for i in range(g):
            assert whole[i].tobytes() == (head[i] @ tail).tobytes(), (p, g, order)


def test_ragged_row_sums_are_each_rows_own_sum():
    # _row_sums sums rows of different lengths under one mask: numpy must
    # hand each row's entries to the pairwise sum as one run, also past its
    # 128-entry blocks, so that every row has the bits of its own sum; the
    # last 300 stacks give every row one count, which the mask sums too
    rng = np.random.default_rng(19)
    specials = [0.0, math.inf, -math.inf, math.nan]
    for trial in range(900):
        n = int(rng.integers(2, 41))
        if trial < 600:
            count = rng.integers(0, 301 if trial % 2 else 20, n)
            count[int(rng.integers(0, n))] = 0
            count[int(rng.integers(0, n))] += 1
        else:
            count = np.full(n, int(rng.integers(1, 300)))
        row = np.repeat(np.arange(n), count)
        xs = [rng.standard_normal(row.size) * 10.0 ** rng.uniform(-30.0, 30.0, row.size)
              for _ in range(1 + trial % 2)]
        for x in xs:
            at = rng.integers(0, row.size, int(rng.integers(0, 4)))
            x[at] = [specials[i] for i in rng.integers(0, 4, at.size)]
        # inf - inf is nan, as _stack_pieces silences it
        with np.errstate(invalid="ignore"):
            got = q._row_sums(row, n, *xs)
            want = [np.array([x[row == r].sum() for r in range(n)]) for x in xs]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (trial, count)


def test_truncation_order_thresholds_match_the_order_loop():
    # J = 4 + 2 (thresholds at or below the rise) is the first even J >= 4
    # with 1e18 rise^(J/2-1) <= (J/2+1)!, capped at _SERIES_TERMS
    def order_loop(rise):
        order = 4
        while order < q._SERIES_TERMS and 1e18 * rise ** (order / 2 - 1) > math.factorial(order // 2 + 1):
            order += 2
        return order

    assert (np.diff(q._ORDER_RISE) > 0.0).all()
    rng = np.random.default_rng(25)
    rises = [0.0, 5e-324, 1.0, 1.0001, *(10.0 ** rng.uniform(-20.0, 0.01, 20000)).tolist()]
    for t in q._ORDER_RISE.tolist():
        rises += [t, math.nextafter(t, 0.0), math.nextafter(t, 2.0)]
    for rise in rises:
        assert 4 + 2 * int(np.searchsorted(q._ORDER_RISE, rise, side="right")) == order_loop(rise), rise


def test_last_knot_past_the_square_root_of_binary64_max():
    # v_end > 1.34e154 squares past binary64 as a Python float; beta v_end^2
    # = 1e100 is finite, the plateau is not, and names its knot on both paths
    for n in (2, 12):
        s, v = np.linspace(0.0, 1.0, n), np.linspace(0.0, 1e200, n)
        with pytest.raises(ValueOverflowError) as exc:
            q.profile_exp_integral(1.0, s, v, 1e-300, 1e-10)
        assert exc.value.knot_index == n - 1 and exc.value.knot_v == 1e200


def test_constant_pieces_past_the_square_root_of_binary64_max():
    # v = 1e155 squares past binary64, while beta v^2 = 1e5 does not; the
    # constant pieces lie past s = 1e5, where e^-s leaves them nothing, so
    # both functionals keep the bits of the profile that ends at the rise
    rise = RadialProfile(1.0, [0.0, 1e5], [0.0, 1e155])
    want = tm_functional(rise, 1e-305), remainder_functional(rise, 1e-305)
    assert want[0].j_beta == 2.0000400023822644 and want[1] == 2.0000200023822647
    for n_const in (1, 2, 10):
        p = RadialProfile(1.0, [0.0, *(1e5 * np.arange(1, n_const + 2))], [0.0, *[1e155] * (n_const + 1)])
        got = tm_functional(p, 1e-305), remainder_functional(p, 1e-305)
        assert (got[0].j_beta, got[0].quad_error, got[1]) == (want[0].j_beta, want[0].quad_error, want[1])


def test_sum_past_binary64_names_the_last_knot():
    # beta c^2 = 700: the constant pieces and the plateau each stay below
    # the binary64 maximum, and only their sum, about 2.2e308, leaves it;
    # the last knot takes the blame on the short path (3 knots), the array
    # path (12) and a one-row stack
    beta = 4.0 * PI
    c = math.sqrt(700.0 / beta)
    t = math.exp(math.log(6.0) + 308.0 * math.log(10.0) - 700.0)
    profiles = [([0.0, 1.0, 2.0], [0.0, c, c]), (np.linspace(0.0, 1.0, 11).tolist() + [2.0], [0.0] + [c] * 11)]
    for s, v in profiles:
        p = RadialProfile(t, s, v)
        assert q._plateau(math.log(t), 2.0, c, beta, False)[0] < 1e308
        with pytest.raises(ValueOverflowError) as exc:
            q.profile_exp_integral(t, p.s, p.v, beta, 1e-10)
        assert (exc.value.knot_index, exc.value.knot_s, exc.value.knot_v) == (len(s) - 1, 2.0, c)
    [got] = q._stack_values([t], p.s[None], p.v[None], beta, 1e-10)
    assert isinstance(got, ValueOverflowError) and str(got) == str(exc.value)


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


def test_routed_pieces_bound_the_rounding_of_their_log():
    # every piece routes to the series, whose sums have logs near -340: the
    # exponent's rounding, about 540 eps in all, exceeded a bound that left
    # log(total) out.  beta U^2 < 1e-147, so J is beta T int U^2 e^-s ds to
    # far below its bound, here from the exact moments at 80 digits
    import mpmath as mp

    t, beta = 2.3455094106593155e-87, 0.25563682031475216
    s = [0.0, 2.426477929269902, 3.2976972919802328, 19.095950149031626]
    v = [0.0, 4.848819137275191e-74, 5.473213484233667e-74, 5.480036056602678e-74]
    got = tm_functional(RadialProfile(t, s, v), beta)
    with mp.workdps(80):
        ref = mp.mpf(v[-1]) ** 2 * mp.exp(-mp.mpf(s[-1]))
        for s0, s1, v0, v1 in zip(s, s[1:], map(mp.mpf, v), v[1:]):
            length = mp.mpf(s1) - s0
            m = (v1 - v0) / length
            moments = [mp.gammainc(j + 1, 0, length) for j in range(3)]
            ref += mp.exp(-mp.mpf(s0)) * (v0 * v0 * moments[0] + 2 * v0 * m * moments[1] + m * m * moments[2])
        ref *= mp.mpf(t) * beta
        err = float(abs(got.j_beta - ref) / ref)
    assert got.j_beta == 3.565030452121072e-235
    assert 6e-14 < err <= got.quad_error


def test_steep_pieces_count_as_jumps():
    # a piece whose beta m overflows adds less than its length, relative to
    # J: both functionals equal those of the jump in its place, without a
    # warning, on the short path (one piece) and the array path (ten)
    jump = RadialProfile(1.0, [0.0, 0.0], [0.0, 5.0])
    want = tm_functional(jump, 4.0 * PI)
    assert want.j_beta == 2.739273424757491e+136
    tail_s, tail_v = np.arange(1.0, 10.0).tolist(), np.linspace(5.01, 5.09, 9).tolist()
    for length in (1e-308, 1e-307):
        pairs = [
            (RadialProfile(1.0, [0.0, length], [0.0, 5.0]), jump),
            (RadialProfile(1.0, [0.0, length, *tail_s], [0.0, 5.0, *tail_v]),
             RadialProfile(1.0, [0.0, 0.0, *tail_s], [0.0, 5.0, *tail_v])),
        ]
        for p, p_jump in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, ref = tm_functional(p, 4.0 * PI), tm_functional(p_jump, 4.0 * PI)
                rem = remainder_functional(p, 4.0 * PI)
            assert (got.j_beta, got.quad_error) == (ref.j_beta, ref.quad_error)
            assert rem == remainder_functional(p_jump, 4.0 * PI)
            assert rel_err(got.j_beta, brute_j(p_jump, 4.0 * PI)) <= got.quad_error
    # ten steep pieces leave the array path no linear piece at all
    p = RadialProfile(1.0, np.arange(11) * 1e-308, np.arange(11) * 0.5)
    assert tm_functional(p, 4.0 * PI).j_beta == remainder_functional(p, 4.0 * PI) == want.j_beta


def test_remainder_functional_equals_profile_exp_integral(monkeypatch):
    # remainder_functional forms no error bound: its value is
    # profile_exp_integral(..., "remainder")[0] bit for bit, or the same
    # ValueOverflowError, on the short path (2-5 knots) and the array path
    # (9, 33), with jumps, v_0 > 0, constant pieces, routed pieces,
    # overflowing profiles and v_end past 1.34e154 (at beta = 3e-308)
    routed = []
    series = q._series

    def recording_series(rw0, h, length, remainder, row):
        routed.append(h.size)
        return series(rw0, h, length, remainder, row)

    monkeypatch.setattr(q, "_series", recording_series)
    rng = np.random.default_rng(27)
    seen = dict.fromkeys(["short", "array", "jump", "v0", "const", "big", "overflow"], 0)
    for trial in range(240):
        k = int(rng.choice([2, 3, 5, 9, 33]))
        beta = [1.0, 3e-308, 4.0 * PI, float(rng.uniform(0.5, 300.0))][trial % 4]
        tol = float(rng.choice([1e-6, 1e-10, 1e-14]))
        t, (s, v) = math.exp(rng.uniform(-4.0, 4.0)), _knots(rng, k)
        if beta == 1.0 and trial % 8 == 0:
            t, (s, v) = 1.0, _OVERFLOWS[trial // 8 % 3][0](k) or (s, v)
        if beta == 3e-308:
            # v_end from 3e153 to 3e154, on both sides of 1.34e154
            v = (np.array(v) * (10.0 ** rng.uniform(153.5, 154.5) / max(v[-1], 1e-3))).tolist()
        p = RadialProfile(t, s, v)
        try:
            want = q.profile_exp_integral(t, p.s, p.v, beta, tol, "remainder")[0]
        except ValueOverflowError as exc:
            with pytest.raises(ValueOverflowError) as got:
                remainder_functional(p, beta, tol)
            assert (got.value.knot_index, got.value.knot_s, got.value.knot_v) == (
                exc.knot_index, exc.knot_s, exc.knot_v)
            seen["overflow"] += 1
        else:
            assert remainder_functional(p, beta, tol).hex() == want.hex(), (s, v, beta, tol)
            seen["big"] += v[-1] > 1.34e154
        ds, dv = np.diff(p.s), np.diff(p.v)
        seen["short" if k <= q._SHORT_PIECES + 1 else "array"] += 1
        seen["jump"] += bool((ds == 0.0).any())
        seen["v0"] += v[0] > 0.0
        seen["const"] += bool(((ds > 0.0) & (dv == 0.0) & (p.v[:-1] > 0.0)).any())
    assert routed and min(seen.values()) >= 10, seen


def test_remainder_functional_asks_no_path_for_a_bound(monkeypatch):
    # remainder_functional reads no error bound, so neither summation path
    # is asked for one; tm_functional still is
    import inspect

    asked = []

    def spy(name):
        original = getattr(q, name)
        signature = inspect.signature(original)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            asked.append((name, bound.arguments.get("bounds", True)))
            return original(*args, **kwargs)

        monkeypatch.setattr(q, name, recording)

    for name in ("_short_pieces", "_stack_pieces", "_linear"):
        spy(name)
    short = RadialProfile(2.0, [0.0, 0.5, 1.0], [0.0, 0.2, 0.2])
    long = RadialProfile(2.0, np.linspace(0.0, 3.0, 33), np.linspace(0.0, 0.9, 33))
    for p in (short, long):
        remainder_functional(p, 4.0 * PI)
    assert {name for name, _ in asked} == {"_short_pieces", "_stack_pieces", "_linear"}
    assert not any(bounds for _, bounds in asked), asked
    del asked[:]
    for p in (short, long):
        tm_functional(p, 4.0 * PI)
    assert asked and all(bounds for _, bounds in asked)


def test_scalar_gammainc_matches_the_ufunc():
    # the float path calls P(a, x) through cython_special on one Python
    # float: it must give the ufunc's bits, for the orders the float path
    # uses (2, 3) and the series' 41, on a seeded sample spanning subnormal
    # to large arguments and on the special values
    from scipy.special import gammainc

    rng = np.random.default_rng(28)
    special = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300, math.inf, -1.0, math.nan]
    xs = np.concatenate((special, 10.0 ** rng.uniform(-323.0, 3.5, 60000), rng.uniform(0.0, 50.0, 20000)))
    for a in (2.0, 3.0, 41.0):
        got = [q._gammainc_float(a, x) for x in xs.tolist()]
        assert all(type(g) is float for g in got)
        assert [g.hex() for g in got] == [float(w).hex() for w in gammainc(a, xs)], a
    for remainder in (False, True):
        got = [q._g_scaled_float(w, remainder) for w in xs[:2000].tolist()]
        assert [g.hex() for g in got] == [float(w).hex() for w in q._g_scaled(xs[:2000], remainder)]
