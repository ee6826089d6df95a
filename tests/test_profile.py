import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moser2d import (
    RadialProfile,
    ValueOverflowError,
    counterexample,
    counterexample_scales,
    dirichlet_norm_sq,
    insert_knot,
    l2_norm_sq,
    moser,
    remainder_functional,
    scale_amplitude,
    scale_dilate,
    tau_rescale,
    tm_functional,
)
from moser2d import profile, quadrature
from moser2d.profile import _SHORT_KNOTS, _dedupe, _dirichlet_sq, _l2_sq, _short_plain
from moser2d.quadrature import profile_exp_integral
from moser2d.sequences import FAMILIES, oracle_rows

from conftest import (
    brute_j,
    brute_l2,
    counterexample_j_oracle,
    moser_j_oracle,
    random_profile,
    random_smooth_profile,
    reference_knot_error,
    rel_err,
)

PI = math.pi

# property tests draw a fixed, seed-independent sequence of examples
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
_BETAS = st.floats(0.3, 4.0 * PI)


@st.composite
def _profiles(draw):
    # nondecreasing piecewise-linear profiles with rises, constant pieces and
    # an optional positive edge value; beta U^2 stays below a few hundred,
    # and above 3e-5 at the top
    n = draw(st.integers(1, 6))
    ds = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    dv = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 0.8)), min_size=n, max_size=n))
    v0 = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3)))
    t_sup = math.exp(draw(st.floats(-3.0, 5.0)))
    return RadialProfile(t_sup, np.cumsum([0.0] + ds), v0 + np.cumsum([0.0] + dv))


def _j(p, beta, kind="expm1"):
    if kind == "expm1":
        return tm_functional(p, beta, 1e-10).j_beta
    return remainder_functional(p, beta, 1e-10)


def test_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RadialProfile(0.0, [0.0], [1.0])
    with pytest.raises(ValueError):
        RadialProfile(-2.0, [0.0], [1.0])
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.5, 1.0], [0.0, 1.0])  # s must start at 0
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.0, 1.0], [1.0, 0.5])  # v decreasing
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.0, 1.0, 0.5], [0.0, 1.0, 2.0])  # s decreasing
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.0, 1.0], [0.0, -1.0])
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.0, 1.0], [0.0, math.nan])
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.0, 1.0, 1.0], [0.0, 1.0, 1.0])  # duplicate knot
    with pytest.raises(ValueError):
        # two stacked jumps at the same abscissa
        RadialProfile(1.0, [0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        RadialProfile(1.0, [0.0, 1.0], [0.0])  # length mismatch


@st.composite
def _knot_inputs(draw):
    # knots that are mostly valid, with repeated s (jumps, duplicates,
    # stacked jumps) common; then at most one corruption: a special value
    # at one index, a reversed array, or a bad shape
    n = draw(st.integers(1, 6))
    s_step = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 2.0))
    v_step = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    s = np.cumsum([0.0] + draw(st.lists(s_step, min_size=n - 1, max_size=n - 1))).tolist()
    v0 = draw(st.sampled_from([0.0, 0.0, 0.3]))
    v = (v0 + np.cumsum([0.0] + draw(st.lists(v_step, min_size=n - 1, max_size=n - 1)))).tolist()
    bad_t = st.sampled_from([0.0, -1.0, math.inf, math.nan])
    t = draw(st.floats(1e-300, 1e300) if draw(st.integers(0, 7)) else bad_t)
    how = draw(st.sampled_from(["none", "none", "value", "value", "reverse", "shape"]))
    if how == "value":
        knots = draw(st.sampled_from([s, v]))
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0]
        knots[draw(st.integers(0, n - 1))] = draw(
            st.one_of(st.sampled_from(special), st.floats(-2.0, 4.0))
        )
    elif how == "reverse":
        draw(st.sampled_from([s, v])).reverse()
    elif how == "shape":
        shape = draw(st.sampled_from(["2d", "short", "empty"]))
        if shape == "2d":
            s, v = [s], [v]
        elif shape == "short":
            v = v[:-1]
        else:
            s, v = [], []
    return t, s, v


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_knot_inputs())
@example((1.0, [0.0, math.nan, 2.0], [0.0, 0.5, 1.0]))
@example((1.0, [0.0, 1.0, math.inf], [0.0, 0.5, 1.0]))
@example((1.0, [0.0, 1.0, 2.0], [0.0, 0.5, -math.inf]))
@example((1.0, [-0.0, 1.0], [0.0, 0.5]))
@example((1.0, [0.0, 1.0], [0.0, -0.5]))
@example((1.0, [0.0, 1.0, 1.0], [0.0, 0.5, 0.5]))
@example((1.0, [0.0, 1.0, 1.0, 1.0], [0.0, 0.5, 0.7, 0.9]))
@example((1.0, [[0.0, 1.0]], [[0.0, 0.5]]))
@example((1.0, [], []))
# a nan or inf after a valid difference, in s and in v: Python's min would
# skip the nan, the short path's all() does not
@example((1.0, [0.0, 0.5, math.nan, 2.0], [0.0, 0.5, 1.0, 1.5]))
@example((1.0, [0.0, 0.5, math.inf, 2.0], [0.0, 0.5, 1.0, 1.5]))
@example((1.0, [0.0, 0.5, 1.0, 2.0], [0.0, 0.5, math.nan, 1.5]))
@example((1.0, [0.0, 0.5, 1.0, 2.0], [0.0, 0.5, math.inf, 1.5]))
# -0.0 knots: a first s, values, and a repeated s (a jump) at -0.0
@example((1.0, [-0.0, 0.5, 1.0], [-0.0, -0.0, 0.5]))
@example((1.0, [0.0, -0.0, 1.0], [0.0, 0.5, 1.0]))
@example((1.0, [0.0, -0.0, 1.0], [0.0, -0.0, 1.0]))
def test_construction_matches_reference_checks(knots):
    # the constructor accepts exactly what the reference checks accept, keeps
    # the knots bit for bit, and otherwise raises the reference's message
    t, s, v = knots
    want = reference_knot_error(t, s, v)
    if want is None:
        p = RadialProfile(t, s, v)
        assert p.t_support == float(t)
        assert p.s.tobytes() == np.array(s, dtype=float).tobytes()
        assert p.v.tobytes() == np.array(v, dtype=float).tobytes()
    else:
        with pytest.raises(ValueError) as exc:
            RadialProfile(t, s, v)
        assert str(exc.value) == want


def test_value_at_basics():
    p = RadialProfile(4.0, [0.0, math.log(4.0)], [0.0, 2.0])
    assert p.value_at(5.0) == 0.0  # beyond support
    assert p.value_at(4.0) == 0.0  # s = 0 endpoint
    assert p.value_at(1.0) == 2.0  # knot hit
    assert p.value_at(0.5) == 2.0  # plateau
    mid = p.value_at(2.0)
    assert 0.0 < mid < 2.0
    assert p.radial_value(0.0) == 2.0
    r = math.sqrt(2.0 / PI)
    assert p.radial_value(r) == pytest.approx(p.value_at(2.0), rel=1e-13)


def test_value_at_jump_is_right_continuous():
    # u* = 2 on (0, 1], 1 on (1, 4]; the jump knot abscissa is the same
    # float expression log(T/t) used by value_at, so t = 1 hits it exactly
    s_jump = math.log(4.0 / 1.0)
    p = RadialProfile(4.0, [0.0, s_jump, s_jump], [0.0, 1.0, 2.0])
    assert p.value_at(1.0) == 1.0  # lower value at the jump measure
    assert p.value_at(1.0 - 1e-9) == 2.0
    assert p.value_at(1.0 + 1e-9) < 1.0
    assert p.value_at(4.0) == 0.0


def test_zero_profile():
    z = RadialProfile.zero(3.0)
    assert z.is_zero
    assert dirichlet_norm_sq(z) == 0.0
    assert l2_norm_sq(z) == 0.0
    rep = tm_functional(z, 4.0 * PI)
    assert rep.j_beta == 0.0 and rep.quad_error == 0.0


def test_dirichlet_exact_and_infinite_cases():
    p = RadialProfile(2.0, [0.0, 2.0], [0.0, 3.0])
    assert dirichlet_norm_sq(p) == 4.0 * PI * 9.0 / 2.0
    jump = RadialProfile(2.0, [0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    assert dirichlet_norm_sq(jump) == math.inf
    # positive value at the support edge is an implicit jump
    edge = RadialProfile(2.0, [0.0, 1.0], [0.5, 1.0])
    assert dirichlet_norm_sq(edge) == math.inf
    # where every row jumps (v_0 > 0, or a zero-length piece) the energy
    # is inf before any term is formed: the differences are not read
    assert _dirichlet_sq(edge.v, None, None, 1.0) == math.inf
    v = np.array([[0.5, 1.0, 1.5], [0.0, 1.0, 2.0]])
    assert _dirichlet_sq(v, None, None, np.array([1.0, 0.0])).tolist() == [math.inf, math.inf]


def test_tm_functional_norms_equal_the_norm_functions():
    # tm_functional takes its norms from the same knot differences as
    # dirichlet_norm_sq and l2_norm_sq: equal bit for bit, inf included
    rng = np.random.default_rng(21)
    profiles = [random_profile(rng) for _ in range(40)] + [
        RadialProfile(1.0, [0.0, 1.0, 1.0, 2.0], [0.0, 0.2, 0.5, 0.6]),
        RadialProfile(2.0, [0.0, 0.0, 1.0], [0.0, 0.4, 0.4]),
        RadialProfile(3.0, [0.0], [0.0]),
        RadialProfile(3.0, [0.0], [0.7]),
    ]
    assert any(math.isinf(dirichlet_norm_sq(p)) for p in profiles)
    for p in profiles:
        rep = tm_functional(p, PI)
        assert rep.dirichlet_sq == dirichlet_norm_sq(p)
        assert rep.l2_sq == l2_norm_sq(p)


def _short_knots(rng):
    # 1 to _SHORT_KNOTS knots: rises, constant pieces, jumps, pieces so
    # steep that m * m overflows, an optional positive edge value, a v_end
    # past 1e153, and -0.0 knots
    s, v = [-0.0 if rng.random() < 0.1 else 0.0], [0.0]
    r = rng.random()
    if r < 0.2:
        v[0] = float(10.0 ** rng.uniform(-6.0, 0.0))
    elif r < 0.3:
        v[0] = -0.0
    was_jump = False
    for _ in range(int(rng.integers(0, _SHORT_KNOTS))):
        r = rng.random()
        jump = r < 0.1 and not was_jump
        if jump:
            s.append(s[-1])
        else:
            # only a first piece can be that short
            steep = r < 0.2 and s[-1] == 0.0
            low, high = (-300.0, -150.0) if steep else (-4.0, 1.0)
            s.append(s[-1] + float(10.0 ** rng.uniform(low, high)))
        v.append(v[-1] if 0.2 <= r < 0.4 else v[-1] + float(10.0 ** rng.uniform(-6.0, 0.5)))
        was_jump = jump
    big = 10.0 ** rng.uniform(153.0, 155.0) if rng.random() < 0.1 else 1.0
    return RadialProfile(math.exp(rng.uniform(-4.0, 4.0)), s, [x * big for x in v])


def _array_norms(p):
    s, v = p.s, p.v
    ds, dv = s[1:] - s[:-1], v[1:] - v[:-1]
    ds_min = ds.min(initial=math.inf)
    return _dirichlet_sq(v, ds, dv, ds_min), _l2_sq(p.t_support, s, v, ds, dv, ds_min)


def test_short_norms_are_bit_identical_to_array_norms():
    # plain short profiles take the float norms, every other one the array
    # kernels; the float norms must give the array kernels' bits
    rng = np.random.default_rng(22)
    cases = [
        RadialProfile(1.0, [0.0], [0.0]),
        RadialProfile(2.0, [0.0], [0.7]),
        RadialProfile(1.0, [0.0, 1.0, 2.0], [0.0, 0.5, 0.5]),
        RadialProfile(1.0, [0.0, 1.0, 1.0, 2.0], [0.0, 0.2, 0.5, 0.6]),
        RadialProfile(1.0, [0.0, 1.0], [0.3, 0.9]),
        RadialProfile(1.0, [0.0, 1e-300], [0.0, 1.0]),
        RadialProfile(1.0, [0.0, 1e-154], [0.0, 1.0]),
        RadialProfile(1.0, [0.0, 2e-154], [0.0, 1.0]),
        RadialProfile(1.0, [0.0, 1e-160, 2.0], [0.0, 1.0, 3.0]),
        RadialProfile(1.0, [0.0, 1.0], [0.0, 1e153]),
        RadialProfile(1.0, [0.0, 1.0], [0.0, 1e154]),
        RadialProfile(1.0, [0.0, 400.0], [0.0, 1e155]),
        RadialProfile(1.0, [-0.0, 1.0, 2.0], [-0.0, -0.0, 0.5]),
    ]
    plain = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in cases + [_short_knots(rng) for _ in range(600)]:
            plain += _short_plain(p) is not None
            want = [x.hex() for x in _array_norms(p)]
            assert [dirichlet_norm_sq(p).hex(), l2_norm_sq(p).hex()] == want, (p.s, p.v)
            try:
                rep = tm_functional(p, 1.0)
            except ValueOverflowError:
                continue
            assert [rep.dirichlet_sq.hex(), rep.l2_sq.hex()] == want, (p.s, p.v)
    assert 200 < plain < 500


@pytest.mark.parametrize("n, short", [(_SHORT_KNOTS, True), (_SHORT_KNOTS + 1, False)])
def test_short_paths_end_at_one_knot_count(n, short, monkeypatch):
    # construction, norms and J all take the float path up to _SHORT_KNOTS
    # knots, and all take the array path past it
    calls = dict.fromkeys(["_short_knots_ok", "_check_knots", "_dedupe", "_short_dirichlet_sq",
                           "_dirichlet_sq", "_short_l2_sq", "_l2_sq", "_short_pieces", "_array_pieces"], 0)

    def record(module, name):
        f = getattr(module, name)

        def g(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(module, name, g)

    for name in calls:
        record(quadrature if name.endswith("_pieces") else profile, name)
    p = RadialProfile(1.0, np.linspace(0.0, 3.0, n), np.linspace(0.0, 1.0, n))
    u = scale_amplitude(p, 0.5)
    tm_functional(u, 4.0 * PI)
    float_path = ["_short_knots_ok", "_short_dirichlet_sq", "_short_l2_sq", "_short_pieces"]
    array_path = ["_check_knots", "_dirichlet_sq", "_l2_sq", "_array_pieces"]
    want = dict.fromkeys(calls, 0)
    want.update(dict.fromkeys(float_path if short else array_path, 1))
    # every rescale drops collapsed jumps on arrays
    want["_dedupe"] = 1
    assert calls == want


def test_l2_matches_brute_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = random_profile(rng)
        assert rel_err(l2_norm_sq(p), brute_l2(p)) < 1e-11


def _exact_l2(t, s, v):
    """T times v_end^2 e^-s_end plus the sum of e^-a int_0^ds (v_a + m y)^2
    e^-y dy over the pieces of positive length, at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        total = mp.mpf(v[-1]) ** 2 * mp.exp(-mp.mpf(s[-1]))
        for a, b, va, vb in zip(s, s[1:], map(mp.mpf, v), v[1:]):
            if b == a:
                continue
            ds, m = mp.mpf(b) - a, (vb - va) / (mp.mpf(b) - a)
            mom = [mp.factorial(j) * mp.gammainc(j + 1, 0, ds, regularized=True) for j in range(3)]
            total += mp.exp(-mp.mpf(a)) * (va * va * mom[0] + 2 * va * m * mom[1] + m * m * mom[2])
        return float(t * total)


@pytest.mark.parametrize(
    "s, v",
    [([0.0, 1e-300], [0.0, 1.0]), ([0.0, 1e-60], [0.0, 1e100]), ([0.0, 1e-160, 2.0], [0.0, 1.0, 3.0])],
    ids=["slope_1e300", "slope_1e160_rise_1e100", "steep_then_gentle"],
)
def test_l2_of_steep_pieces_is_finite(s, v):
    # m * m overflows where M_2(ds) ~ ds^3/3 has underflowed or is tiny
    p = RadialProfile(1.0, s, v)
    want = _exact_l2(1.0, s, v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rel_err(l2_norm_sq(p), want) < 1e-14


def test_l2_past_the_square_root_of_binary64_max():
    # v_end > 1.34e154 squares past binary64 as a Python float: the norm is
    # inf where it is, and finite where e^-s brings the plateau back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert l2_norm_sq(RadialProfile(1.0, [0.0, 1.0], [0.0, 1e200])) == math.inf
        # int_0^400 (m y)^2 e^-y dy = 2 m^2 P(3, 400); the plateau adds 2e136
        got = l2_norm_sq(RadialProfile(1.0, [0.0, 400.0], [0.0, 1e155]))
    assert rel_err(got, 2.0 * (1e155 / 400.0) ** 2) < 1e-14


@pytest.mark.parametrize(
    "t, s, v",
    [
        (1e300, [0.0, 800.0, 801.0], [0.0, 0.0, 1e100]),
        (1e300, [0.0, 800.0, *(800.0 + np.arange(1, 9) / 8.0)], [0.0, 0.0, *(1e100 * np.arange(1, 9) / 8.0)]),
        (1.0, [0.0, 800.0, 801.0], [0.0, 0.0, 1e160]),
        (1.0, [0.0, 800.0, 830.0, 860.0], [0.0, 0.0, 1e155, 2e155]),
    ],
    ids=["e_s_underflows_before_t", "refined_on_arrays", "square_past_binary64", "two_pieces_past_binary64"],
)
def test_l2_where_e_to_the_minus_s_is_not_normal(t, s, v):
    # e^-s underflows past s = 708.4, where the pieces and the plateau still
    # weigh: e^(-s/2) goes into both factors of each square, unwarned; J
    # itself is past binary64 and raises
    p = RadialProfile(t, s, v)
    want = _exact_l2(t, list(s), list(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rel_err(l2_norm_sq(p), want) < 1e-12
        with pytest.raises(ValueOverflowError):
            tm_functional(p, 1.0)


@pytest.mark.parametrize("n, c", [(2, 1e-170), (12, 1e-160)], ids=["short_1e-170", "array_1e-160"])
def test_l2_of_values_whose_squares_underflow(n, c):
    # v = c s on [0, 1] under T = 1e300: v^2 leaves the normal range before
    # T multiplies it, so sqrt(T) goes into both factors of each square; the
    # norm is T c^2 (2 P(3, 1) + e^-1), and a plain row stacked beside it
    # keeps its own bits
    import mpmath as mp

    s = np.linspace(0.0, 1.0, n)
    p = RadialProfile(1e300, s, c * s)
    with mp.workdps(50):
        want = float(mp.mpf(1e300) * mp.mpf(c) ** 2 * (2 * mp.gammainc(3, 0, 1, regularized=True) + mp.exp(-1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rel_err(l2_norm_sq(p), want) < 1e-14
        assert tm_functional(p, 1.0).l2_sq == l2_norm_sq(p)
        plain = RadialProfile(1e300, s, s)
        rows = np.array([s, s]), np.array([c * s, s])
        ds, dv = rows[0][:, 1:] - rows[0][:, :-1], rows[1][:, 1:] - rows[1][:, :-1]
        got = _l2_sq(1e300, *rows, ds, dv, ds.min(axis=1))
    assert got.tolist() == [l2_norm_sq(p), l2_norm_sq(plain)]


@pytest.mark.parametrize("n, c", [(2, 1e-170), (12, 1e-160)], ids=["short_1e-170", "array_1e-160"])
def test_j_of_values_whose_squares_underflow(n, c):
    # v = c s on [0, 1] under T = 1e300 with beta = 1: the quadrature would
    # square v before T multiplies, so J is beta times the L2 norm, which
    # is J to within beta c^2 = 1e-340 relative; quad_error says so.  The
    # remainder, below beta^2 T c^4 / 2 < 1e-340, is 0.0, correctly rounded
    import mpmath as mp

    s = np.linspace(0.0, 1.0, n)
    p = RadialProfile(1e300, s, c * s)
    with mp.workdps(50):
        r, x = [mp.mpf(float(a)) for a in s], [mp.mpf(float(a)) for a in c * s]
        # U rises linearly from x_i to x_i+1 over [r_i, r_i+1], then the
        # plateau; mp.quad stops on an absolute error, so it integrates
        # expm1(U^2)/c^2
        c2 = mp.mpf(c) ** 2
        pieces = [mp.quad(lambda y, i=i: mp.expm1((x[i] + (x[i + 1] - x[i]) * (y - r[i]) / (r[i + 1] - r[i])) ** 2)
                          / c2 * mp.exp(-y), [r[i], r[i + 1]]) for i in range(n - 1)]
        want = float(mp.mpf(1e300) * c2 * (mp.fsum(pieces) + mp.expm1(x[-1] ** 2) / c2 * mp.exp(-1)))
        rem = mp.mpf(1e300) * mp.mpf(c) ** 4 / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = tm_functional(p, 1.0)
        assert remainder_functional(p, 1.0) == 0.0
    # below half the least subnormal: 0.0 is the nearest float
    assert rem < mp.mpf(5e-324) / 2
    assert report.j_beta == report.l2_sq
    assert rel_err(report.j_beta, want) < 1e-14
    assert report.quad_error == 1.0 * c * c + quadrature._TERM_ULPS * quadrature._EPS
    assert rel_err(report.j_beta, want) <= report.quad_error


def _small_j_oracle(p, beta):
    """J of a profile with beta v_end^2 <= 2^-53 in 40-digit arithmetic:
    expm1(beta U^2) to its beta^2 U^4 / 2 term, whose successors are below
    (beta v_end^2)^2 relative, on each piece as binomial sums of the lower
    incomplete gamma function, whose terms are all positive."""
    import mpmath as mp

    with mp.workdps(40):
        b, total = mp.mpf(beta), mp.mpf(0)
        s, v = [mp.mpf(x) for x in p.s.tolist()], [mp.mpf(x) for x in p.v.tolist()]
        for i in range(len(s) - 1):
            length = s[i + 1] - s[i]
            if length == 0:
                continue
            p0, m = v[i], (v[i + 1] - v[i]) / length
            for n, w in ((2, b), (4, b * b / 2)):
                total += w * mp.exp(-s[i]) * mp.fsum(
                    mp.binomial(n, j) * p0 ** (n - j) * m**j * mp.gammainc(j + 1, 0, length) for j in range(n + 1))
        total += mp.expm1(b * v[-1] ** 2) * mp.exp(-s[-1])
        return mp.mpf(p.t_support) * total


def test_j_where_the_l2_norm_itself_underflows():
    # T v^2 = 6.2e-327 underflows to a zero norm, but J = beta T v^2 is
    # normal: sqrt(beta T) goes into both factors of the square
    p = RadialProfile(8048594573.065798, [0.0], [8.765829485823317e-169])
    report = tm_functional(p, 4.29408085898762e55)
    assert report.l2_sq == 0.0
    assert rel_err(report.j_beta, 2.65568344610731984e-271) < 1e-15
    assert rel_err(report.j_beta, float(_small_j_oracle(p, 4.29408085898762e55))) <= report.quad_error


def test_j_of_small_profiles_matches_mpmath():
    # 200 seeded profiles of 1-12 knots, jumps and v_0 > 0 among them, with
    # v_end in [1e-300, 1e-150.5], T up to 1e300 and beta up to where
    # beta v_end^2 = 2^-53 (or binary64 ends): beta T overflows in most, and
    # one J is subnormal
    rng = np.random.default_rng(2024)
    positive = overflowed = 0
    for _ in range(200):
        k = int(rng.integers(1, 13))
        ds = rng.uniform(0.01, 3.0, k - 1)
        ds[1::2] *= rng.random(ds[1::2].size) > 0.3
        v = np.cumsum(rng.uniform(0.01, 1.0, k))
        v[0] *= k == 1 or rng.random() > 0.3
        v_end = 10.0 ** rng.uniform(-300.0, -150.5)
        t = 10.0 ** rng.uniform(-10.0, 300.0)
        top = min(math.log10(0.5 * quadrature._EPS) - 2.0 * math.log10(v_end), 308.0)
        beta = 10.0 ** rng.uniform(top - 200.0, top)
        p = RadialProfile(t, np.concatenate(([0.0], np.cumsum(ds))), v / v[-1] * v_end)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = tm_functional(p, beta)
        want = float(_small_j_oracle(p, beta))
        if want > 0.0:
            positive += 1
            overflowed += beta * t == math.inf
            assert rel_err(report.j_beta, want) <= report.quad_error, (p, beta)
    assert positive > 180 and 20 < overflowed < positive - 20


def test_j_of_small_profiles_whose_mass_lies_far_out_matches_mpmath():
    # sqrt(beta) v_end near 1e-150 with the mass past s = 20: (sqrt(beta) v)^2
    # e^-s is subnormal before T multiplies, though J is normal.  The first
    # profile is the worked case; 40 seeded ones follow, beta T overflowing
    # in most
    cases = [(RadialProfile(1e250, [0.0, 29.0, 30.0], [0.0, 0.0, 1.5e-200]), 1e100)]
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(2, 8))
        s = np.concatenate(([0.0], rng.uniform(20.0, 35.0) + np.cumsum(rng.uniform(0.1, 3.0, k - 1))))
        v = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, k - 1))))
        v_exp = rng.uniform(-300.0, -151.0)
        # log10 of sqrt(beta) v_end in [-152, -140], beta inside binary64
        beta = 10.0 ** min(2.0 * (rng.uniform(-152.0, -140.0) - v_exp), 308.0)
        cases.append((RadialProfile(10.0 ** rng.uniform(150.0, 300.0), s, v / v[-1] * 10.0**v_exp), beta))
    checked = 0
    for p, beta in cases:
        report = tm_functional(p, beta)
        want = float(_small_j_oracle(p, beta))
        if want >= np.finfo(float).tiny:
            checked += 1
            assert rel_err(report.j_beta, want) <= report.quad_error, (p, beta)
    assert checked > 30


@pytest.mark.parametrize("n", [2, 12], ids=["one_piece", "eleven_pieces"])
def test_dirichlet_of_differences_whose_squares_underflow(n):
    # v = 1e-70 s on [0, 1e-100]: every dv^2 leaves the normal range but
    # dv^2 / ds does not, so the guarded path forms dv (dv / ds); the energy
    # is 4 pi 1e-240 (the sum over the stored knots' exact differences), and
    # a plain row stacked beside it keeps its own bits
    import mpmath as mp

    s, v = np.linspace(0.0, 1e-100, n), np.linspace(0.0, 1e-170, n)
    p = RadialProfile(1.0, s, v)
    with mp.workdps(50):
        x, y = [mp.mpf(float(a)) for a in s], [mp.mpf(float(a)) for a in v]
        want = float(4 * mp.pi * sum((y[i + 1] - y[i]) ** 2 / (x[i + 1] - x[i]) for i in range(n - 1)))
    assert rel_err(want, 4.0 * PI * 1e-240) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rel_err(dirichlet_norm_sq(p), want) < 1e-14
        assert tm_functional(p, 1.0).dirichlet_sq == dirichlet_norm_sq(p)
        plain = RadialProfile(1.0, s, s)
        vs = np.array([v, s])
        ds = np.array([s[1:] - s[:-1]] * 2)
        got = _dirichlet_sq(vs, ds, vs[:, 1:] - vs[:, :-1], ds.min(axis=1))
    assert got.tolist() == [dirichlet_norm_sq(p), dirichlet_norm_sq(plain)]


def test_dirichlet_past_the_square_root_of_binary64_max():
    # dv^2 leaves binary64 past v_end = 1.34e154: the energy is inf, unwarned,
    # one profile at a time or in a stack
    p = RadialProfile(1.0, [0.0, 1.0], [0.0, 1e200])
    v = np.array([[0.0, 1e200], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dirichlet_norm_sq(p) == math.inf
        got = _dirichlet_sq(v, np.ones((2, 1)), v[:, 1:], np.ones(2))
        assert got.tolist() == [math.inf, 4.0 * PI]
        with pytest.raises(ValueOverflowError):
            tm_functional(p, 4.0 * PI)


@pytest.mark.parametrize(
    "s, v",
    [([0.0, 1e-300], [0.0, 1e100]), ([0.0, 1.0], [0.0, 1e154])],
    ids=["quotient_overflows", "four_pi_product_overflows"],
)
def test_dirichlet_below_the_square_root_of_binary64_max_is_inf_unwarned(s, v):
    # dv^2 is finite, but dv^2 / ds or 4 pi times the sum leaves binary64:
    # the energy is inf, unwarned, one profile at a time or in a stack
    p = RadialProfile(1.0, s, v)
    vs = np.array([v, [0.0, 1.0]])
    ds = np.array([[s[1]], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dirichlet_norm_sq(p) == math.inf
        got = _dirichlet_sq(vs, ds, vs[:, 1:], ds.min(axis=1))
        assert got.tolist() == [math.inf, 4.0 * PI]
        with pytest.raises(ValueOverflowError):
            tm_functional(p, 4.0 * PI)


def test_tm_functional_reports_an_overflowed_dirichlet_energy_unwarned():
    # dv^2 / ds = 2.5e308 on a 1e-307 piece; J is the plateau's e^{100 pi} - 1
    p = RadialProfile(1.0, [0.0, 1e-307], [0.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = tm_functional(p, 4.0 * PI)
    assert rep.dirichlet_sq == math.inf
    assert rel_err(rep.j_beta, math.expm1(100.0 * PI)) < 1e-14


def test_tm_functional_matches_brute_quadrature():
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = random_profile(rng)
        beta = float(rng.uniform(0.3, 4.0 * PI))
        rep = tm_functional(p, beta, 1e-10)
        want = brute_j(p, beta)
        assert rel_err(rep.j_beta, want) < 1e-9
        assert rep.quad_error <= 1e-9


def test_tm_functional_report_fields():
    p = RadialProfile(PI, [0.0, 4.0], [0.0, 0.4])
    rep = tm_functional(p, 2.0 * PI)
    assert rep.dirichlet_sq == dirichlet_norm_sq(p)
    assert rep.l2_sq == l2_norm_sq(p)
    assert rep.sobolev_sq() == rep.dirichlet_sq + rep.l2_sq
    assert rep.sobolev_sq(tau=3.0) == rep.dirichlet_sq + 3.0 * rep.l2_sq
    d = rep.to_dict()
    assert set(d) == {"j_beta", "dirichlet_sq", "l2_sq", "sobolev_sq", "quad_error"}


def test_tm_functional_validation():
    p = RadialProfile(PI, [0.0, 1.0], [0.0, 0.5])
    with pytest.raises(ValueError):
        tm_functional(p, 0.0)
    with pytest.raises(ValueError):
        tm_functional(p, -1.0)
    with pytest.raises(ValueError):
        tm_functional(p, 2.0, tol=1e-3)  # looser than the contract allows
    with pytest.raises(ValueError):
        tm_functional(p, 2.0, tol=0.0)
    # kind is checked before either summation path is chosen
    for q in (p, RadialProfile(PI, np.linspace(0.0, 9.0, 10), np.linspace(0.0, 0.5, 10))):
        with pytest.raises(ValueError, match="'expm1' or 'remainder'"):
            profile_exp_integral(q.t_support, q.s, q.v, 2.0, 1e-10, kind="Expm1")


def test_overflow_signals_offending_knot():
    p = RadialProfile(1.0, [0.0, 1.0], [0.0, 40.0])
    with pytest.raises(ValueOverflowError) as err:
        tm_functional(p, 4.0 * PI)
    assert "value-overflow" in str(err.value)
    assert err.value.knot_index == 1
    assert err.value.knot_v == 40.0


def test_large_but_finite_exponents_do_not_overflow():
    # beta v^2 = 900 makes e^{beta u^2} unrepresentable pointwise, but the
    # integrand e^{beta u^2 - s} stays tiny once the measure weight is
    # folded in log space; the oracle needs arbitrary precision here
    import mpmath as mp

    top = math.sqrt(900.0 / (4.0 * PI))
    p = RadialProfile(1e-6, [0.0, 1200.0], [0.0, top])
    rep = tm_functional(p, 4.0 * PI, 1e-9)
    assert math.isfinite(rep.j_beta) and rep.j_beta > 0.0
    mp.mp.dps = 40
    beta = 4.0 * PI
    slope = mp.mpf(top) / 1200

    def f(x):
        return mp.expm1(beta * (slope * x) ** 2) * mp.e ** (-x)

    plateau = mp.expm1(beta * mp.mpf(top) ** 2) * mp.e ** (-1200)
    want = float(mp.mpf("1e-6") * (mp.quad(f, [0, 60, 1200]) + plateau))
    assert rel_err(rep.j_beta, want) < 1e-8


def test_constant_piece_near_double_max_has_finite_error():
    # 4 pi c^2 = 709.5 puts the constant piece within a factor of about
    # 800 of the binary64 maximum; its error bound must not overflow
    c = math.sqrt(709.5 / (4.0 * PI))
    p = RadialProfile(1.0, [0.0, 50.0], [c, c])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = tm_functional(p, 4.0 * PI)
        rem = remainder_functional(p, 4.0 * PI)
    # the piece and the plateau fill the unit support: J = e^w - 1 ~ e^w
    want = math.exp(709.5)
    assert rel_err(rep.j_beta, want) < 1e-12
    assert rel_err(rem, want) < 1e-12
    assert 0.0 < rep.quad_error < 1e-12


def test_underflowed_panels_are_not_dropped():
    # at n = 10^40000 every Kronrod node of the first panel sits more than
    # 745 e-folds below the O(1) integrand at the segment's ends, so the
    # panel estimate underflows to 0 with a zero error estimate; the rise
    # carries half of J and must not be accepted as 0
    rep = tm_functional(moser(10**40000), 4.0 * PI, tol=1e-8)
    assert rel_err(rep.j_beta, moser_j_oracle(10**40000)) < 1e-8
    j_ce = tm_functional(counterexample(10**100000), 4.0 * PI, tol=1e-8).j_beta
    assert rel_err(j_ce, counterexample_j_oracle(10**100000)) < 1e-8


@_PROPERTY
@given(_profiles(), _BETAS, st.sampled_from(["expm1", "remainder"]))
def test_property_matches_brute_quadrature(p, beta, kind):
    assert rel_err(_j(p, beta, kind), brute_j(p, beta, kind)) < 1e-9


@_PROPERTY
@given(_profiles(), _BETAS, st.floats(0.3, 1.7))
def test_property_amplitude_trades_for_beta(p, beta, a):
    # J_beta(a u) = J_{a^2 beta}(u)
    assert rel_err(_j(scale_amplitude(p, a), beta), _j(p, a * a * beta)) < 1e-9


@_PROPERTY
@given(_profiles(), _BETAS, st.floats(0.2, 5.0))
def test_property_dilation_scales_by_support(p, beta, b):
    # u(b x) has support |supp u|/b^2 and the same rearranged profile in s
    assert rel_err(_j(scale_dilate(p, b), beta), _j(p, beta) / (b * b)) < 1e-12


@_PROPERTY
@given(_profiles(), _BETAS, st.floats(0.0, 1.2), st.sampled_from(["expm1", "remainder"]))
def test_property_insert_knot_changes_nothing(p, beta, where, kind):
    q = insert_knot(p, where * float(p.s[-1]))
    assert rel_err(_j(q, beta, kind), _j(p, beta, kind)) < 1e-9


def _nearly_flat_phi():
    # phi = beta U^2 - s has slope 2 beta U m - 1 ~ 1e-5 on a piece that
    # moves z = sqrt(beta) U - 1/(2 sqrt(beta) m) from 0.5 by only 1e-5
    beta = 4.0 * PI
    m = 1.0 / (2.0 * beta)
    rb = math.sqrt(beta)
    v0 = (0.5 + 1.0 / (2.0 * rb * m)) / rb
    length = 1e-5 / (rb * m)
    return RadialProfile(2.0, [0.0, length], [v0, v0 + m * length])


@pytest.mark.parametrize(
    "p",
    [
        _nearly_flat_phi(),
        # w = beta U^2 below 2e-8: e^w - 1 cancels in closed form
        RadialProfile(3.0, [0.0, 2.0, 5.0], [0.0, 1e-5, 3e-5]),
        # slope 1e-12: z ~ -1e11, D(z) ~ 1/(2z)
        RadialProfile(1.5, [0.0, 1.0, 2.0], [0.0, 0.5, 0.5 + 1e-12]),
        # z1 < 0 < z2: the Dawson terms add
        RadialProfile(1.0, [0.0, 5.0], [0.1, 1.6]),
        # the last piece and the plateau underflow to 0
        RadialProfile(1.0, [0.0, 1.0, 800.0, 801.0], [0.0, 0.5, 0.6, 0.7]),
    ],
    ids=["nearly_flat_phi", "small_w", "tiny_slope", "z_straddles_0", "underflow"],
)
def test_closed_form_regimes_match_brute_quadrature(p):
    beta = 4.0 * PI
    assert rel_err(_j(p, beta), brute_j(p, beta)) < 1e-12
    assert rel_err(_j(p, beta, "remainder"), brute_j(p, beta, "remainder")) < 1e-12


def test_brute_j_remainder_does_not_cancel():
    # the oracle itself at w = 1e-14, where expm1(w) - w is 1% off
    import mpmath as mp

    p = RadialProfile(1.0, [0.0, 1.0], [1e-7, 1e-7])
    with mp.workdps(50):
        w = mp.mpf(1e-7) ** 2
        want = float(mp.expm1(w) - w)
    assert rel_err(brute_j(p, 1.0, "remainder"), want) < 1e-12


def test_small_w_remainder_keeps_precision():
    # the small-w profile's remainder against 40-digit quadrature, a check
    # that shares no code with brute_j
    import mpmath as mp

    p = RadialProfile(3.0, [0.0, 2.0, 5.0], [0.0, 1e-5, 3e-5])
    beta = 4.0 * PI

    def f(x, v0, m, a):
        w = beta * (v0 + m * (x - a)) ** 2
        return (mp.expm1(w) - w) * mp.e ** (-x)

    with mp.workdps(40):
        total = mp.quad(lambda x: f(x, 0, mp.mpf(1e-5) / 2, 0), [0, 2])
        total += mp.quad(lambda x: f(x, mp.mpf(1e-5), (mp.mpf(3e-5) - mp.mpf(1e-5)) / 3, 2), [2, 5])
        w_top = beta * mp.mpf(3e-5) ** 2
        total += (mp.expm1(w_top) - w_top) * mp.e ** -5
        want = float(3 * total)
    assert rel_err(_j(p, beta, "remainder"), want) < 1e-12


def test_scale_amplitude_and_dilate_norms():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_smooth_profile(rng)
        a = float(rng.uniform(0.2, 1.8))
        b = float(rng.uniform(0.3, 3.0))
        pa = scale_amplitude(p, a)
        pb = scale_dilate(p, b)
        assert rel_err(dirichlet_norm_sq(pa), a * a * dirichlet_norm_sq(p)) < 1e-12
        assert rel_err(l2_norm_sq(pa), a * a * l2_norm_sq(p)) < 1e-12
        assert dirichlet_norm_sq(pb) == dirichlet_norm_sq(p)  # 2d invariance
        assert rel_err(l2_norm_sq(pb), l2_norm_sq(p) / (b * b)) < 1e-12


def test_scale_special_cases():
    p = RadialProfile(2.0, [0.0, 1.0], [0.0, 1.0])
    assert scale_amplitude(p, 1.0) is p
    assert scale_amplitude(p, 0.0).is_zero
    with pytest.raises(ValueError):
        scale_amplitude(p, -0.5)
    with pytest.raises(ValueError):
        scale_dilate(p, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # v_end * a overflows: bad input, not a RuntimeWarning
        with pytest.raises(ValueError, match="knots must be finite"):
            scale_amplitude(RadialProfile(2.0, [0.0, 1.0], [0.0, 2.0]), 1e308)
        # b * b underflows to 0: bad input, not a ZeroDivisionError
        with pytest.raises(ValueError, match="t_support must be positive and finite"):
            scale_dilate(p, 1e-200)


def _parent_amplitude(p, a):
    # scale_amplitude as the full constructor sees it: p.v * a, then _dedupe
    if a in (0.0, 1.0) or not (a > 0.0 and math.isfinite(a)):
        return scale_amplitude(p, a)
    with np.errstate(over="ignore"):
        s, v = _dedupe(p.s, p.v * a)
    return RadialProfile(p.t_support, s, v)


def _parent_dilate(p, b):
    # scale_dilate as the full constructor sees it: t / b^2 (inf once b^2 is 0)
    if b == 1.0 or not (b > 0.0 and math.isfinite(b)):
        return scale_dilate(p, b)
    bb = b * b
    return RadialProfile(p.t_support / bb if bb > 0.0 else math.inf, p.s, p.v)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _assert_checked_and_equal(q, want):
    # q passes the full constructor, keeps read-only knots, and has the bits
    # of the parent formula
    assert RadialProfile(q.t_support, q.s, q.v) == q
    assert not (q.s.flags.writeable or q.v.flags.writeable)
    assert q.t_support == want.t_support
    assert q.s.tobytes() == want.s.tobytes() and q.v.tobytes() == want.v.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _knot_inputs().filter(lambda k: reference_knot_error(*k) is None),
    st.sampled_from(["dilate", "amplitude", "tau"]),
    st.integers(-330, 310),
    st.floats(1.0, 9.999),
)
@example((1.0, [0.0, 1.0], [0.0, 2.0]), "amplitude", 308, 1.0)  # v_end * a overflows
@example((1.0, [0.0, 1.0, 1.0], [0.0, 1.0, 1.4]), "amplitude", -324, 5.0)  # the jump collapses
@example((1.0, [0.0, 1.0], [0.0, 2.0]), "amplitude", 310, 1.0)  # a = inf
@example((1.0, [0.0, 1.0], [0.0, 2.0]), "dilate", -200, 1.0)  # b * b underflows to 0
@example((1.0, [0.0, 1.0], [0.0, 2.0]), "dilate", -160, 1.0)  # t / b^2 overflows
@example((1e306, [0.0, 1.0], [0.0, 2.0]), "tau", 0, 1.0)  # t / tau overflows at tau = 1e-3
def test_derived_profiles_pass_the_full_check(knots, op, exp10, mantissa):
    # derived profiles skip the knot checks: each must be one the full
    # constructor accepts, with the bits the full constructor would give;
    # factors run from 0 through subnormals (b^2 and v * a underflow) to inf
    p = RadialProfile(*knots)
    x = float("%re%d" % (mantissa, exp10))
    if op == "dilate":
        got, want = _outcome(scale_dilate, p, x), _outcome(_parent_dilate, p, x)
    elif op == "amplitude":
        got, want = _outcome(scale_amplitude, p, x), _outcome(_parent_amplitude, p, x)
    else:
        x = float("%re%d" % (mantissa, exp10 % 7 - 3))
        got, want = _outcome(tau_rescale, p, x), _outcome(RadialProfile, p.t_support / x, p.s, p.v)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_checked_and_equal(got, want)


_PARENT_FORMULA = {
    "counterexample": lambda n: _parent_amplitude(
        _parent_dilate(moser(n), 1.0 / counterexample_scales(n)[0]), counterexample_scales(n)[1]
    ),
    "modified-moser": lambda n: _parent_amplitude(moser(n), 1.0 - math.sqrt(l2_norm_sq(moser(n)))),
}


@pytest.mark.parametrize(
    "spec",
    oracle_rows(),
    ids=lambda spec: "-".join([spec.family] + ["%s=%g" % kv for kv in spec.params.items()]),
)
def test_family_members_pass_the_full_check(spec):
    args = spec._args()
    q = spec.build()
    want = _PARENT_FORMULA.get(spec.family, FAMILIES[spec.family].builder)(*args)
    _assert_checked_and_equal(q, want)


def test_insert_knot_changes_nothing():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_smooth_profile(rng)
        s_mid = float(rng.uniform(0.0, p.s[-1] * 1.2))
        q = insert_knot(p, s_mid)
        assert q.n_knots >= p.n_knots
        assert rel_err(dirichlet_norm_sq(q), dirichlet_norm_sq(p)) < 1e-12
        assert rel_err(l2_norm_sq(q), l2_norm_sq(p)) < 1e-12
        ja = tm_functional(p, PI).j_beta
        jb = tm_functional(q, PI).j_beta
        assert rel_err(jb, ja) < 1e-10


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(15)
    for _ in range(25):
        p = random_profile(rng)
        q = RadialProfile.from_json(p.to_json())
        assert q == p
        assert q.to_dict() == p.to_dict()


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        RadialProfile.from_json("{не json")
    with pytest.raises(ValueError):
        RadialProfile.from_json('{"t_support": 1.0}')
    with pytest.raises(ValueError):
        RadialProfile.from_json('{"t_support": 1.0, "knots": [[0.0]]}')


def test_arrays_are_immutable():
    p = RadialProfile(1.0, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        p.s[0] = 5.0
    with pytest.raises(ValueError):
        p.v[-1] = 5.0
