"""Distribution functions, rearrangements, and the maximal function."""

import math

import numpy as np
import pytest

from moser2d import (
    RadialProfile,
    WeightedSamples,
    alvino_extremal,
    alvino_l2_sq,
    cap,
    decreasing_rearrangement,
    distribution,
    l2_norm_sq,
    maximal_function,
    profile_distribution,
)

from conftest import rel_err


def test_distribution_step_examples():
    w = WeightedSamples(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 2.0]))
    assert distribution(w, 0.0) == 3.5
    assert distribution(w, 1.0) == 3.0
    assert distribution(w, 1.999999) == 3.0
    assert distribution(w, 2.0) == 2.0
    assert distribution(w, 3.0) == 0.0
    for level in (-0.1, math.nan):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            distribution(w, level)


def test_rearrangement_is_equimeasurable():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = rng.integers(1, 25)
        vals = np.round(rng.uniform(0.0, 5.0, m), 1)  # rounding forces ties
        areas = rng.uniform(0.1, 2.0, m)
        w = WeightedSamples(vals, areas)
        p = decreasing_rearrangement(w)
        for level in np.concatenate([rng.uniform(0.0, 5.5, 8), np.unique(vals)]):
            d0 = distribution(w, level)
            d1 = profile_distribution(p, level)
            assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)


def test_rearrangement_preserves_l2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(1, 30)
        vals = rng.uniform(0.0, 4.0, m)
        areas = rng.uniform(0.05, 1.5, m)
        w = WeightedSamples(vals, areas)
        p = decreasing_rearrangement(w)
        assert rel_err(l2_norm_sq(p), float((vals**2 * areas).sum())) < 1e-12


def test_rearrangement_zero_and_ties():
    w = WeightedSamples(np.zeros(4), np.ones(4))
    p = decreasing_rearrangement(w)
    assert p.is_zero
    assert p.t_support == 4.0
    # tie merge: two cells at the same value become one step
    w = WeightedSamples(np.array([2.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    p = decreasing_rearrangement(w)
    assert p.value_at(0.5) == 2.0
    assert p.value_at(1.5) == 2.0
    assert p.value_at(2.5) == 1.0
    assert profile_distribution(p, 1.0) == 2.0


def test_profile_distribution_linear_profile():
    p = cap(4.0, 1.0)
    vmax = p.v[-1]
    # the rise is linear in s, so {u > vmax/2} has measure T e^{-k/2}
    assert rel_err(profile_distribution(p, vmax / 2.0), math.pi * math.exp(-2.0)) < 1e-13
    assert profile_distribution(p, vmax) == 0.0
    assert profile_distribution(p, 0.0) == math.pi
    for level in (-0.1, math.nan):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            profile_distribution(p, level)


def test_radial_resample_roundtrip():
    # sampling a decreasing radial profile on equal-measure annuli and
    # rearranging reproduces the sampled values cell by cell
    p = alvino_extremal(math.pi, math.exp(4.0))
    n = 2000
    dt = p.t_support / n
    mids = (np.arange(n) + 0.5) * dt
    vals = np.array([p.value_at(t) for t in mids])
    w = WeightedSamples(vals, np.full(n, dt))
    r = decreasing_rearrangement(w)
    back = np.array([r.value_at(t) for t in mids])
    assert np.max(np.abs(back - vals)) <= 1e-12 * vals.max()
    assert rel_err(l2_norm_sq(r), alvino_l2_sq(math.pi, math.exp(4.0))) < 0.02


def test_maximal_function_step_example():
    w = WeightedSamples(np.array([2.0, 0.0]), np.array([1.0, 3.0]))
    p = decreasing_rearrangement(w)
    assert maximal_function(p, 0.5) == pytest.approx(2.0, rel=1e-13)
    assert maximal_function(p, 1.0) == pytest.approx(2.0, rel=1e-13)
    assert maximal_function(p, 2.0) == pytest.approx(1.0, rel=1e-13)
    assert maximal_function(p, 4.0) == pytest.approx(0.5, rel=1e-13)


def test_maximal_dominates_and_decreases():
    rng = np.random.default_rng(11)
    for _ in range(15):
        m = rng.integers(2, 20)
        vals = rng.uniform(0.0, 3.0, m)
        areas = rng.uniform(0.1, 1.0, m)
        p = decreasing_rearrangement(WeightedSamples(vals, areas))
        ts = np.sort(rng.uniform(1e-6, p.t_support, 12))
        prev = math.inf
        for t in ts:
            big = maximal_function(p, t)
            assert big >= p.value_at(t) - 1e-12
            assert big <= prev + 1e-12 * max(1.0, prev)
            prev = big


def test_maximal_function_of_linear_rise():
    p = alvino_extremal(10.0, math.e)
    ts = np.linspace(0.01, 9.99, 25)
    for t in ts:
        assert maximal_function(p, t) >= p.value_at(t) - 1e-12
    with pytest.raises(ValueError):
        maximal_function(p, 0.0)
    with pytest.raises(ValueError):
        maximal_function(p, math.inf)


def test_maximal_function_keeps_precision_on_a_steep_ramp():
    # u* rises from 0 to 1 over s in [0, L], L = 1e-9: the ramp's share
    # (1 - (1 + L) e^{-L})/L cancels every digit when formed directly
    import mpmath as mp

    p = RadialProfile(1.0, [0.0, 1e-9], [0.0, 1.0])
    with mp.workdps(40):
        ln = mp.mpf(1e-9)
        want = float((1 - (1 + ln) * mp.exp(-ln)) / ln + mp.exp(-ln))
    assert rel_err(maximal_function(p, 1.0), want) < 1e-15


def test_sorted_arrangement_minimizes_increment_energy():
    # discrete rearrangement principle on a uniform grid: ordering the
    # values monotonically can only lower the summed squared increments
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(3, 40)
        vals = rng.uniform(0.0, 2.0, m)
        sorted_sum = float(np.sum(np.diff(np.sort(vals)) ** 2))
        shuffled = rng.permutation(vals)
        shuffled_sum = float(np.sum(np.diff(shuffled) ** 2))
        assert sorted_sum <= shuffled_sum + 1e-12


def test_weighted_samples_validation():
    with pytest.raises(ValueError):
        WeightedSamples(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        WeightedSamples(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        WeightedSamples(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        WeightedSamples(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        WeightedSamples(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        WeightedSamples(np.array([[1.0]]), np.array([[1.0]]))
