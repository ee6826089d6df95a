"""Constraint sets, the deterministic maximizer, and the scan helpers."""

import math

import numpy as np
import pytest

from moser2d import (
    ConstraintSet,
    OptimizationResult,
    RadialProfile,
    blowup_scan,
    dirichlet_norm_sq,
    family_starts,
    l2_norm_sq,
    maximize,
    moser,
    ruf_normalize,
    scale_amplitude,
    tm_functional,
    vanishing_probe,
)
from moser2d.optimizer import _place

from conftest import brute_j, rel_err

_4PI = 4.0 * math.pi


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet("dirichlet")
    with pytest.raises(ValueError):
        ConstraintSet("reduced", delta=1.0)
    with pytest.raises(ValueError):
        ConstraintSet("reduced", delta=-0.1)
    with pytest.raises(ValueError):
        ConstraintSet("reduced", K=0.0)
    with pytest.raises(ValueError):
        ConstraintSet("ruf", tau=0.0)
    assert ConstraintSet("norm_sum").kind == "norm_sum"


def test_constraint_residuals_and_feasibility():
    p = moser(10)  # dirichlet_sq = 1, l2_sq ~ 0.102
    c = ConstraintSet("reduced", delta=0.0, K=1.0)
    assert c.residual(p) <= 1e-12
    assert c.feasible(p)
    assert not ConstraintSet("reduced", delta=0.5, K=1.0).feasible(p)
    assert not ConstraintSet("ruf", tau=1.0).feasible(p)
    shrunk = scale_amplitude(p, 0.5)
    assert ConstraintSet("ruf", tau=1.0).feasible(shrunk)
    assert not ConstraintSet("norm_sum").feasible(p)


def test_vanishing_level_per_kind():
    beta = 2.0 * math.pi
    assert ConstraintSet("reduced", K=2.0).vanishing_level_value(beta) == beta * 4.0
    assert ConstraintSet("ruf", tau=4.0).vanishing_level_value(beta) == beta / 4.0
    assert ConstraintSet("norm_sum").vanishing_level_value(beta) == beta


def test_family_starts_are_labeled_and_cappable():
    c = ConstraintSet("reduced", delta=0.0, K=1.0)
    starts = family_starts(c)
    labels = [label for label, _ in starts]
    assert len(labels) == len(set(labels))
    assert len(starts) >= 20
    for _, p in starts:
        # starts are placed on the budget boundary
        assert c.residual(p) <= 1e-9


def test_maximize_validation():
    c = ConstraintSet("reduced", delta=0.5)
    with pytest.raises(ValueError):
        maximize(c, beta=_4PI / 0.25)  # critical exponent for delta = 1/2
    with pytest.raises(ValueError):
        maximize(ConstraintSet("ruf"), beta=0.0)
    with pytest.raises(ValueError):
        maximize(ConstraintSet("ruf"), beta=_4PI, n_knots=1)
    with pytest.raises(ValueError):
        maximize(ConstraintSet("ruf"), beta=_4PI, budget=0)


def test_maximize_small_run_contract():
    c = ConstraintSet("reduced", delta=0.0, K=1.0)
    beta = 2.0 * math.pi
    res = maximize(c, beta, n_knots=16, budget=1500, seed=3)
    assert isinstance(res, OptimizationResult)
    # deterministic rerun, bit for bit
    res2 = maximize(c, beta, n_knots=16, budget=1500, seed=3)
    assert res2.best_value == res.best_value
    assert np.array_equal(res2.best_profile.s, res.best_profile.s)
    assert np.array_equal(res2.best_profile.v, res.best_profile.v)
    assert res2.objective_trace == res.objective_trace
    # trace is nondecreasing and ends at the reported value
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) >= 0.0)
    assert trace[-1] == res.best_value
    # feasibility at the incumbent
    assert res.feasibility_residuals["constraint"] <= 1e-9
    assert c.feasible(res.best_profile)
    # never below any family-seeded start
    floor = max(
        tm_functional(p, beta, tol=1e-8).j_beta
        for _, p in family_starts(c)
    )
    assert res.best_value >= floor * (1.0 - 1e-5)
    # the reported value re-evaluates to itself
    again = tm_functional(res.best_profile, beta, tol=1e-8).j_beta
    assert rel_err(again, res.best_value) < 1e-10
    assert res.n_evaluations <= 1500 + 64


def test_maximize_different_seeds_stay_feasible():
    c = ConstraintSet("ruf", tau=1.0)
    for seed in (0, 7):
        res = maximize(c, _4PI, n_knots=12, budget=800, seed=seed)
        assert res.feasibility_residuals["constraint"] <= 1e-9
        assert res.best_value > 0.0


@pytest.mark.parametrize(
    "kind, seed", [("reduced", 3), ("reduced", 4), ("norm_sum", 0), ("norm_sum", 6),
                   ("norm_sum", 7), ("norm_sum", 10)],
)
def test_maximize_returns_a_feasible_profile_exactly(kind, seed):
    # the rescale to energy theta can round the norms past the bound;
    # the returned profile is inside it without tolerance
    if kind == "reduced":
        c, beta = ConstraintSet("reduced", delta=0.3, K=0.05), 2.0 * math.pi
    else:
        c, beta = ConstraintSet("norm_sum"), _4PI
    res = maximize(c, beta, n_knots=12, budget=400, seed=seed)
    assert c.residual(res.best_profile) <= 0.0
    assert res.feasibility_residuals["constraint"] <= 0.0
    assert res.best_value == tm_functional(res.best_profile, beta, tol=1e-8).j_beta
    assert res.objective_trace[-1] == res.best_value
    assert all(np.diff(res.objective_trace) >= 0.0)


def test_maximize_reduced_beats_vanishing_level():
    c = ConstraintSet("reduced", delta=0.0, K=1.0)
    beta = 2.0 * math.pi
    res = maximize(c, beta, n_knots=16, budget=2000, seed=0)
    assert res.vanishing_level_value == beta
    assert res.best_value > beta + 1e-2


_NON_DEFAULT = (
    ConstraintSet("reduced", delta=0.3, K=0.05),
    ConstraintSet("ruf", tau=2.5),
    ConstraintSet("norm_sum"),
)


def test_placement_lands_on_the_budget_boundary():
    rng = np.random.default_rng(11)
    for c in _NON_DEFAULT:
        ceiling = (1.0 - c.delta) ** 2 if c.kind == "reduced" else 1.0
        for _ in range(200):
            n = int(rng.integers(2, 40))
            s = np.concatenate(([0.0], np.cumsum(rng.exponential(rng.uniform(0.01, 3.0), n - 1))))
            # unsorted values exercise the isotonic step
            v = rng.uniform(0.0, 1.0, n)
            theta = ceiling * rng.uniform(1e-4, 1.0 if c.kind == "reduced" else 0.999)
            t, w = _place(c, theta, s, v)
            p = RadialProfile(t, s, w)
            assert rel_err(dirichlet_norm_sq(p), theta) <= 1e-12
            assert rel_err(l2_norm_sq(p), c.l2_budget(theta)) <= 1e-12
            assert abs(c.residual(p)) <= 1e-12
        # a share that leaves no L2 budget places nothing
        if c.kind != "reduced":
            assert _place(c, 1.0, s, v) is None


@pytest.fixture(scope="module")
def ruf_run():
    return maximize(ConstraintSet("ruf"), _4PI, n_knots=16, budget=5000, seed=0)


def test_maximize_ruf_beats_vanishing_level(ruf_run):
    # the vanishing level is 4 pi; a maximizer exists because a direction
    # beats it
    assert ruf_run.best_value > _4PI + 0.25
    p = ruf_run.best_profile
    assert rel_err(ruf_run.best_value, brute_j(p, _4PI)) <= 1e-10


def test_ruf_result_transports_to_adachi_tanaka(ruf_run):
    # u/sqrt(theta) has unit Dirichlet energy; ruf_normalize at 4 pi theta
    # carries it back to u itself with coefficient 1: the Ruf problem is
    # the Adachi-Tanaka problem at alpha = 4 pi theta
    u = ruf_run.best_profile
    theta = ruf_run.feasibility_residuals["dirichlet_sq"]
    trace = ruf_normalize(scale_amplitude(u, theta**-0.5), _4PI * theta)
    back = trace.profiles[1]
    assert abs(trace.coefficient - 1.0) <= 1e-12
    assert rel_err(back.t_support, u.t_support) <= 1e-12
    assert np.array_equal(back.s, u.s)
    assert np.max(np.abs(back.v - u.v)) <= 1e-12 * u.v[-1]


def test_blowup_scan_rows_and_bounds():
    rows = blowup_scan(0.0, 1.0, [2.0 * math.pi, _4PI], [10**3, 10**4])
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"beta", "n", "j_beta", "lower_bound"}
        if row["beta"] == _4PI:
            # at the critical exponent the plateau bound is dominated
            assert row["j_beta"] >= row["lower_bound"]
    # strictly subcritical values stay below the critical ones
    sub = [r["j_beta"] for r in rows if r["beta"] < _4PI]
    crit = [r["j_beta"] for r in rows if r["beta"] == _4PI]
    assert max(sub) < min(crit)
    with pytest.raises(ValueError):
        blowup_scan(1.0, 1.0, [math.pi], [10])
    with pytest.raises(ValueError):
        blowup_scan(0.0, 0.0, [math.pi], [10])
    with pytest.raises(ValueError):
        blowup_scan(0.0, 1.0, [], [10])


def test_vanishing_probe_gap_decays():
    c = ConstraintSet("reduced", delta=0.0, K=1.0)
    out = vanishing_probe(c, 2.0 * math.pi, [1.0, 0.1, 1e-2, 1e-3])
    assert out["level"] == pytest.approx(2.0 * math.pi, rel=1e-15)
    gaps = [row["gap"] for row in out["rows"]]
    assert all(g > 0.0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3
    # the gap is exactly the superquadratic remainder
    for row in out["rows"]:
        assert rel_err(row["gap"], row["remainder"]) < 1e-6
    # lam = 1 evaluates the bump itself
    p_row = out["rows"][0]
    assert p_row["lam"] == 1.0
    assert p_row["j_beta"] > out["level"]


def test_vanishing_probe_validation():
    c = ConstraintSet("reduced")
    with pytest.raises(ValueError):
        vanishing_probe(ConstraintSet("ruf"), math.pi, [0.5])
    with pytest.raises(ValueError):
        vanishing_probe(c, -1.0, [0.5])
    with pytest.raises(ValueError):
        vanishing_probe(c, math.pi, [])
    with pytest.raises(ValueError):
        vanishing_probe(c, math.pi, [1.5])
