"""The two summation paths of profile_exp_integral agree bit for bit.

profile_exp_integral sums profiles of up to _SHORT_PIECES pieces on Python
floats (_short_pieces) and longer ones on arrays (_array_pieces).  Both are
called here directly on the same short profiles, and must return the same
(value, abs_err) or raise the same ValueOverflowError.
"""

import math

import numpy as np
import pytest

from moser2d import RadialProfile, ValueOverflowError
from moser2d import quadrature as q

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
