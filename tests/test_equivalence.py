"""Constructive transforms between the constraint settings."""

import math

import numpy as np
import pytest

from moser2d import (
    RadialProfile,
    adachi_split,
    alvino_extremal,
    cap,
    cap_l2_sq,
    dirichlet_norm_sq,
    l2_norm_sq,
    moser,
    ruf_normalize,
    scale_amplitude,
    scale_dilate,
    tau_rescale,
    tm_functional,
)
from moser2d import cli

from conftest import random_smooth_profile, rel_err

_4PI = 4.0 * math.pi


def _j(p, beta, tol=1e-10):
    return tm_functional(p, beta, tol).j_beta


def test_ruf_normalize_three_way_identity():
    rng = np.random.default_rng(4)
    count = 0
    while count < 100:
        p = random_smooth_profile(rng, max_dirichlet=1.0)
        if p.is_zero:
            continue
        count += 1
        beta = rng.uniform(0.05, 0.95) * _4PI
        trace = ruf_normalize(p, beta)
        v, v_mu = trace.profiles
        j_u = _j(p, beta)
        j_v = _j(v, _4PI)
        j_mu = trace.coefficient * _j(v_mu, _4PI)
        assert rel_err(j_u, j_v) < 1e-8
        assert rel_err(j_u, j_mu) < 1e-8
        assert trace.checks["sobolev_sq"] <= 1.0 + 1e-9


def test_ruf_normalize_fields_and_unit_input():
    trace = ruf_normalize(moser(10), 2.0 * math.pi)
    assert trace.branch == "ruf_normalize"
    assert trace.tag == "d_4pi"
    assert len(trace.profiles) == 2
    # unit Dirichlet input lands exactly on the Sobolev sphere
    assert trace.checks["sobolev_sq"] == pytest.approx(1.0, rel=1e-12)
    assert trace.input_dirichlet_sq == pytest.approx(1.0, rel=1e-14)
    d = trace.to_dict()
    assert set(d) == {
        "input_dirichlet_sq",
        "input_l2_sq",
        "branch",
        "profiles",
        "coefficient",
        "tag",
        "checks",
    }


def test_ruf_normalize_validation():
    p = moser(10)
    with pytest.raises(ValueError):
        ruf_normalize(p, _4PI)
    with pytest.raises(ValueError):
        ruf_normalize(p, 0.0)
    with pytest.raises(ValueError):
        ruf_normalize(RadialProfile.zero(1.0), math.pi)
    with pytest.raises(ValueError):
        ruf_normalize(scale_amplitude(p, 1.2), math.pi)


def test_adachi_split_branches():
    base = cap(4.0, 1.0)
    low = scale_amplitude(base, math.sqrt(0.49))
    trace = adachi_split(low)
    assert trace.branch == "subcritical"
    assert trace.coefficient == 2.0
    assert trace.tag == "C_subcritical"
    assert trace.checks["residual"] == 0.0
    assert dirichlet_norm_sq(trace.profiles[0]) == pytest.approx(0.98, rel=1e-12)

    high = scale_amplitude(base, math.sqrt(0.51))
    trace = adachi_split(high)
    assert trace.branch == "gradient_normalized"
    assert trace.tag == "d_4pi"
    assert dirichlet_norm_sq(trace.profiles[0]) == pytest.approx(1.0, rel=1e-12)


def test_adachi_split_coefficient_example():
    # arrange dirichlet_sq = 3/4 and l2_sq = 1/4: coefficient (1/3)/(1/4) = 4/3
    r = math.sqrt((1.0 / 3.0) / cap_l2_sq(2.0, 1.0))
    p = scale_amplitude(cap(2.0, r), math.sqrt(0.75))
    assert dirichlet_norm_sq(p) == pytest.approx(0.75, rel=1e-13)
    assert l2_norm_sq(p) == pytest.approx(0.25, rel=1e-13)
    trace = adachi_split(p)
    assert trace.branch == "gradient_normalized"
    assert trace.coefficient == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_adachi_split_coefficient_never_exceeds_two(tmp_path):
    rng = np.random.default_rng(27)
    count = 0
    while count < 60:
        p = random_smooth_profile(rng)
        if p.is_zero:
            continue
        sob = dirichlet_norm_sq(p) + l2_norm_sq(p)
        p = scale_amplitude(p, 0.999 / math.sqrt(sob))
        count += 1
        trace = adachi_split(p)
        assert trace.coefficient <= 2.0 + 1e-12
    # unit Dirichlet energy on a tiny support: feasible only up to the
    # tolerance, with theta = 1, 1 - 2^-53 and 1 + 2^-52 for the caps
    for family, args, p in [("cap", ["--k", "2", "--R", "1e-7"], cap(2.0, 1e-7)),
                            ("cap", ["--k", "1", "--R", "1e-7"], cap(1.0, 1e-7)),
                            ("cap", ["--k", "1.0977", "--R", "1e-7"], cap(1.0977, 1e-7)),
                            ("alvino", ["--T", "1e-12", "--delta", repr(math.e)], alvino_extremal(1e-12, math.e))]:
        assert 0.0 < adachi_split(p).coefficient <= 2.0, args
        argv = ["equivalence", "--direction", "ruf-to-at", "--family", family, *args]
        assert cli.main(argv + ["--out", str(tmp_path / "split.json")]) == 0, args


def test_adachi_split_validation():
    with pytest.raises(ValueError):
        adachi_split(RadialProfile.zero(1.0))
    with pytest.raises(ValueError):
        adachi_split(scale_amplitude(cap(4.0, 1.0), 1.1))


def test_tau_rescale_knots_and_support():
    p = cap(4.0, 2.0)
    q = tau_rescale(p, 4.0)
    assert q.t_support == p.t_support / 4.0
    assert np.array_equal(q.s, p.s)
    assert np.array_equal(q.v, p.v)
    assert tau_rescale(p, 1.0) is p


def test_tau_rescale_weighted_norm_invariance():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = random_smooth_profile(rng)
        tau = math.exp(rng.uniform(-2.0, 2.0))
        q = tau_rescale(p, tau)
        before = dirichlet_norm_sq(p) + l2_norm_sq(p)
        after = dirichlet_norm_sq(q) + tau * l2_norm_sq(q)
        assert rel_err(after, before) < 1e-12


def test_tau_rescale_functional_identity():
    p = moser(10)
    tau = 4.0
    q = tau_rescale(p, tau)
    assert rel_err(_j(p, math.pi), tau * _j(q, math.pi)) < 1e-10


def test_tau_rescale_dyadic_roundtrip_is_exact():
    p = cap(7.0, 1.3)
    q = tau_rescale(tau_rescale(p, 2.0), 0.5)
    assert q.t_support == p.t_support
    assert np.array_equal(q.s, p.s)
    with pytest.raises(ValueError):
        tau_rescale(p, 0.0)
    with pytest.raises(ValueError):
        tau_rescale(p, math.inf)


def test_amplitude_and_dilation_transfer_identities():
    rng = np.random.default_rng(41)
    count = 0
    while count < 100:
        p = random_smooth_profile(rng)
        if p.is_zero:
            continue
        count += 1
        beta = rng.uniform(0.1, 1.1) * _4PI
        a = rng.uniform(0.2, 1.4)
        b = math.exp(rng.uniform(-1.5, 1.5))
        lhs = _j(scale_amplitude(p, a), beta)
        rhs = _j(p, beta * a * a)
        assert rel_err(lhs, rhs) < 1e-9
        lhs = _j(scale_dilate(p, b), beta)
        rhs = _j(p, beta) / (b * b)
        assert rel_err(lhs, rhs) < 1e-9
