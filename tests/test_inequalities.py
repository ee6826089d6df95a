"""Inequality checkers: exact inner suprema against dense grid oracles."""

import math

import numpy as np
import pytest

from moser2d import (
    RadialProfile,
    WeightedSamples,
    adachi_ratio,
    alvino_extremal,
    alvino_ratio_sup,
    at_constant_eps,
    at_quadratic_bound,
    best_eps,
    cap,
    check_limine,
    counterexample,
    decreasing_rearrangement,
    dirichlet_norm_sq,
    l2_norm_sq,
    modified_moser,
    moser,
    remainder_functional,
    scale_amplitude,
    scale_dilate,
    tm_functional,
    zcharact_bound,
    zygmund_quasinorm,
)

from conftest import (
    brute_j,
    brute_l2,
    random_smooth_profile,
    rel_err,
    window_quasinorm_of_steps,
    window_ratio_of_steps,
)

_4PI = 4.0 * math.pi


def _window_ratio_grid(p, t_win, m=4000):
    u_t = 0.0 if t_win >= p.t_support else p.value_at(t_win)
    sig = np.linspace(1e-9, math.log(t_win) - math.log(1e-12 * t_win), m)
    best = 0.0
    for x in sig:
        t = t_win * math.exp(-x)
        val = (p.value_at(t) - u_t) / math.sqrt(x)
        best = max(best, val)
    return best


def test_alvino_zero_profile_holds():
    rep = alvino_ratio_sup(RadialProfile.zero(2.0), 1.0)
    assert rep.lhs == 0.0
    assert rep.holds


def test_alvino_equality_family_is_exact():
    for t in (math.pi, 10.0):
        for d in (math.e, math.exp(4.0)):
            rep = alvino_ratio_sup(alvino_extremal(t, d), t)
            target = 1.0 / math.sqrt(_4PI)
            assert abs(rep.lhs - target) < 1e-12
            assert abs(rep.rhs - target) < 1e-12
            assert rep.holds


def test_alvino_on_moser_is_tight():
    # moser(n) is itself a member of the equality family on support pi,
    # so the bound is saturated rather than strict
    rep = alvino_ratio_sup(moser(10), math.pi)
    assert rep.holds
    assert abs(rep.lhs - rep.rhs) <= 1e-12


def test_alvino_dominates_grid_scan():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = random_smooth_profile(rng)
        for t_win in (p.t_support, 0.37 * p.t_support):
            rep = alvino_ratio_sup(p, t_win)
            grid = _window_ratio_grid(p, t_win)
            assert rep.lhs >= grid - 1e-12 * max(1.0, grid)
            assert rep.holds


def _step_samples(rng, dyadic):
    m = int(rng.integers(1, 30))
    values = rng.uniform(0.0, 4.0, m)
    if rng.random() < 0.5:
        values = np.round(values, 1)  # ties merge into one step
    values[rng.random(m) < 0.1] = 0.0
    if dyadic:
        # every partial sum is exact, so a level's measure is the same
        # float to the oracle and to the rearrangement's knots
        return values, rng.integers(1, 129, m) / 8.0
    return values, np.exp(rng.uniform(-3.0, 3.0, m))


def test_alvino_jump_gives_infinite_ratio():
    w = WeightedSamples(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    p = decreasing_rearrangement(w)
    rep = alvino_ratio_sup(p, p.t_support)
    assert math.isinf(rep.lhs)
    assert math.isinf(rep.rhs)
    assert rep.holds
    with pytest.raises(ValueError):
        alvino_ratio_sup(p, 0.0)
    # jumps inside the window: strictly between two levels' measures, and
    # on exact measures, at the support and at a level's measure
    rng = np.random.default_rng(41)
    n_inf = 0
    for i in range(300):
        dyadic = i % 2 == 0
        values, areas = _step_samples(rng, dyadic)
        outer = sorted({areas[values >= x].sum() for x in values[values > 0.0]})
        if not outer:
            continue
        p = decreasing_rearrangement(WeightedSamples(values, areas))
        k = int(rng.integers(0, len(outer)))
        inside = math.sqrt(outer[k - 1] * outer[k]) if k else 0.5 * outer[0]
        for t_win in [inside, p.t_support, outer[k]] if dyadic else [inside]:
            want = window_ratio_of_steps(values, areas, t_win)
            got = alvino_ratio_sup(p, t_win).lhs
            if math.isinf(want):
                n_inf += 1
                assert math.isinf(got)
            else:
                assert rel_err(got, want) <= 1e-12
    assert n_inf > 100


def test_zygmund_constant_profile_value():
    # u = 1 on support 4 pi: the optimal window is T = 4 pi with cost 1
    p = RadialProfile(_4PI, [0.0, 1.0], [1.0, 1.0])
    val, (t_win, t_pt) = zygmund_quasinorm(p)
    assert val == pytest.approx(1.0, rel=1e-13)
    assert t_win == pytest.approx(_4PI, rel=1e-12)


def test_zygmund_cap_closed_form():
    # for cap(k, 1) the ratio rises along the slope and peaks at its top:
    # value sqrt(k / (4 pi (1 + log 4 + k)))
    for k in (1.0, 4.0, 64.0):
        p = cap(k, 1.0)
        val, (t_win, t_pt) = zygmund_quasinorm(p)
        expect = math.sqrt(k / (_4PI * (1.0 + math.log(4.0) + k)))
        assert rel_err(val, expect) < 1e-12
        assert t_win == pytest.approx(_4PI, rel=1e-12)
        assert t_pt == pytest.approx(math.pi * math.exp(-k), rel=1e-9)


def test_zygmund_dominates_window_grid():
    rng = np.random.default_rng(9)
    for _ in range(8):
        p = random_smooth_profile(rng)
        val, (t_win, t_pt) = zygmund_quasinorm(p)
        # grid over windows and points, witness pair included
        wins = np.geomspace(1e-3, 1e3, 60) * p.t_support
        wins = np.append(wins, t_win)
        best = 0.0
        for tw in wins:
            for t in np.append(np.geomspace(1e-9, 1.0, 80) * min(tw, p.t_support), t_pt):
                if t > tw:
                    continue
                best = max(best, p.value_at(t) / math.sqrt(_4PI / tw + math.log(tw / t)))
        assert val >= best - 1e-12 * max(1.0, best)
        assert rel_err(val, best) < 1e-9  # witness in the grid attains it


def test_zygmund_on_step_profiles():
    rng = np.random.default_rng(57)
    for i in range(300):
        values, areas = _step_samples(rng, dyadic=i % 2 == 0)
        p = decreasing_rearrangement(WeightedSamples(values, areas))
        val, _ = zygmund_quasinorm(p)
        assert rel_err(val, window_quasinorm_of_steps(values, areas)) <= 1e-13


def test_check_limine_on_families():
    profiles = [
        moser(10),
        moser(10**4),
        counterexample(10**3),
        cap(16.0, 2.0),
        alvino_extremal(10.0, math.exp(4.0)),
        modified_moser(100),
    ]
    for p in profiles:
        rep = check_limine(p)
        assert rep.holds
        assert rep.lhs <= rep.rhs + 1e-9 * max(1.0, rep.rhs)


def test_check_limine_on_random_profiles():
    rng = np.random.default_rng(33)
    for _ in range(200):
        rep = check_limine(random_smooth_profile(rng))
        assert rep.holds


def test_check_limine_ratio_approaches_one():
    ratios = []
    for k in (1.0, 10.0, 100.0):
        rep = check_limine(cap(k, 1.0))
        ratios.append(rep.lhs / rep.rhs)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 0.95
    assert ratios[2] <= 1.0 + 1e-12


def test_adachi_ratio_matches_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(6):
        p = random_smooth_profile(rng, max_dirichlet=1.0)
        if p.is_zero:
            continue
        beta = rng.uniform(0.5, 0.9) * _4PI
        want = brute_j(p, beta) / brute_l2(p)
        assert rel_err(adachi_ratio(p, beta), want) < 1e-9


def test_adachi_ratio_small_beta_limit():
    p = cap(4.0, 1.0)
    beta = 1e-6
    assert rel_err(adachi_ratio(p, beta) / beta, 1.0) < 1e-5


def test_adachi_ratio_dilation_invariant():
    p = cap(9.0, 1.5)
    beta = 2.0 * math.pi
    base = adachi_ratio(p, beta)
    for b in (0.25, 3.0):
        assert rel_err(adachi_ratio(scale_dilate(p, b), beta), base) < 1e-9


def test_adachi_ratio_validation():
    p = cap(4.0, 1.0)
    with pytest.raises(ValueError):
        adachi_ratio(p, _4PI)
    with pytest.raises(ValueError):
        adachi_ratio(p, 0.0)
    with pytest.raises(ValueError):
        adachi_ratio(RadialProfile.zero(1.0), math.pi)
    with pytest.raises(ValueError):
        adachi_ratio(scale_amplitude(p, 1.5), math.pi)


def test_subcritical_constants_closed_forms():
    assert best_eps(2.0 * math.pi) == 0.5
    # b = 1/2, eps = 1/2: 4 pi e^{1/2} max(1/2, e / (1/4)) = 16 pi e^{3/2}
    want = 16.0 * math.pi * math.exp(1.5)
    assert rel_err(at_constant_eps(2.0 * math.pi, 0.5), want) < 1e-15
    # quadratic bound at b = 1/2: 16 e^{4 pi} (1 + 4 pi) / (1/4)
    want = 64.0 * math.exp(_4PI) * (1.0 + _4PI)
    assert rel_err(at_quadratic_bound(2.0 * math.pi), want) < 1e-15


def test_subcritical_constants_validation():
    with pytest.raises(ValueError):
        best_eps(_4PI)
    with pytest.raises(ValueError):
        at_constant_eps(2.0 * math.pi, 0.0)
    with pytest.raises(ValueError):
        at_constant_eps(2.0 * math.pi, 1.0)  # upper endpoint excluded
    with pytest.raises(ValueError):
        at_constant_eps(5.0 * _4PI, 0.1)
    with pytest.raises(ValueError):
        at_quadratic_bound(_4PI)
    # strictly inside the admissible range everything evaluates
    for beta in (0.5, math.pi, 3.9 * math.pi):
        eps = best_eps(beta)
        assert 0.0 < eps < _4PI / beta - 1.0
        assert math.isfinite(at_constant_eps(beta, eps))


def test_remainder_functional_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_smooth_profile(rng)
        if p.is_zero:
            continue
        beta = rng.uniform(0.3, 1.0) * _4PI
        rep = tm_functional(p, beta, tol=1e-11)
        rem = remainder_functional(p, beta, tol=1e-11)
        assert rel_err(rep.j_beta, rem + beta * rep.l2_sq) < 1e-10


def test_remainder_functional_properties():
    assert remainder_functional(RadialProfile.zero(1.0), math.pi) == 0.0
    p = cap(4.0, 1.0)
    r1 = remainder_functional(p, math.pi)
    r2 = remainder_functional(p, 2.0 * math.pi)
    assert 0.0 < r1 < r2
    # quartic leading order: halving the amplitude divides it by ~16
    small = remainder_functional(scale_amplitude(p, 1e-3), math.pi, tol=1e-12)
    tiny = remainder_functional(scale_amplitude(p, 5e-4), math.pi, tol=1e-12)
    assert small / tiny == pytest.approx(16.0, rel=1e-4)
    with pytest.raises(ValueError):
        remainder_functional(p, -1.0)
    with pytest.raises(ValueError):
        remainder_functional(p, math.pi, tol=0.5)


def test_zcharact_bound_dominates_quasinorm():
    rng = np.random.default_rng(19)
    profiles = [moser(10), cap(16.0, 2.0), alvino_extremal(math.pi, math.e)]
    profiles += [random_smooth_profile(rng) for _ in range(10)]
    for p in profiles:
        if p.is_zero:
            continue
        q, _ = zygmund_quasinorm(p)
        for lam in (0.5, 1.0, 2.0):
            assert zcharact_bound(p, lam) >= q - 1e-9 * max(1.0, q)


def test_zcharact_bound_zero_profile():
    for lam in (0.25, 1.0, 4.0):
        got = zcharact_bound(RadialProfile.zero(3.0), lam)
        assert got == pytest.approx(1.0 / math.sqrt(lam), rel=1e-15)
    with pytest.raises(ValueError):
        zcharact_bound(RadialProfile.zero(1.0), 0.0)


def test_inequality_report_to_dict():
    rep = alvino_ratio_sup(moser(10), math.pi)
    d = rep.to_dict()
    assert set(d) == {"lhs", "rhs", "slack", "holds", "witness"}
    assert d["holds"] is True
