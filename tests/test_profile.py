import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moser2d import (
    RadialProfile,
    ValueOverflowError,
    counterexample,
    dirichlet_norm_sq,
    insert_knot,
    l2_norm_sq,
    moser,
    remainder_functional,
    scale_amplitude,
    scale_dilate,
    tm_functional,
)
from moser2d.quadrature import profile_exp_integral

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


def test_l2_matches_brute_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = random_profile(rng)
        assert rel_err(l2_norm_sq(p), brute_l2(p)) < 1e-11


@pytest.mark.parametrize(
    "s, v",
    [([0.0, 1e-300], [0.0, 1.0]), ([0.0, 1e-60], [0.0, 1e100]), ([0.0, 1e-160, 2.0], [0.0, 1.0, 3.0])],
    ids=["slope_1e300", "slope_1e160_rise_1e100", "steep_then_gentle"],
)
def test_l2_of_steep_pieces_is_finite(s, v):
    # m * m overflows where M_2(ds) ~ ds^3/3 has underflowed or is tiny;
    # the exact sum of T e^-a int_0^ds (v_a + m y)^2 e^-y dy, at 50 digits
    import mpmath as mp

    p = RadialProfile(1.0, s, v)
    with mp.workdps(50):
        total = mp.mpf(v[-1]) ** 2 * mp.exp(-mp.mpf(s[-1]))
        for a, b, va, vb in zip(s, s[1:], v, v[1:]):
            ds, m = mp.mpf(b) - a, (mp.mpf(vb) - va) / (mp.mpf(b) - a)
            mom = [mp.factorial(j) * mp.gammainc(j + 1, 0, ds, regularized=True) for j in range(3)]
            total += mp.exp(-mp.mpf(a)) * (va * va * mom[0] + 2 * va * m * mom[1] + m * m * mom[2])
        want = float(total)
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
