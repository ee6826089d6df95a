"""Constraint sets, the deterministic maximizer, and the scan helpers."""

import hashlib
import math

import numpy as np
import pytest

from moser2d import (
    ConstraintSet,
    OptimizationResult,
    RadialProfile,
    ValueOverflowError,
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
from moser2d import optimizer
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


def test_place_stack_rows_equal_one_row_calls():
    # a stack of 2-40 shapes places each row as _place places it alone, bit
    # for bit: unsorted rows pool, and rows that place nothing get t = inf
    rng = np.random.default_rng(12)
    pooled = empty = 0
    for c in _NON_DEFAULT + (ConstraintSet("reduced"), ConstraintSet("ruf")):
        ceiling = (1.0 - c.delta) ** 2 if c.kind == "reduced" else 1.0
        for _ in range(20):
            n, rows = int(rng.integers(2, 40)), int(rng.integers(2, 41))
            s = np.concatenate((np.zeros((rows, 1)), np.cumsum(rng.exponential(0.5, (rows, n - 1)), axis=1)), axis=1)
            v = np.sort(rng.uniform(0.0, 1.0, (rows, n)), axis=1)
            v[::3, int(rng.integers(0, n))] += rng.uniform(-1.0, 1.0)
            v[::7] = 0.0
            theta = ceiling * rng.uniform(1e-4, 1.0, rows)
            theta[::5] = ceiling
            t, w = _place(c, theta, s, v)
            for r in range(rows):
                one = _place(c, float(theta[r]), s[r], v[r])
                if one is None:
                    empty += 1
                    assert t[r] == math.inf
                else:
                    pooled += not (v[r][1:] >= v[r][:-1]).all()
                    assert t[r] == one[0] and np.array_equal(w[r], one[1])
    assert pooled > 50 and empty > 50


class _Reads(list):
    """A list that records which rows the search reads."""

    def __init__(self, values, read):
        super().__init__(values)
        self.read = read

    def __getitem__(self, r):
        self.read.add(r)
        return super().__getitem__(r)


def _batches(monkeypatch, inject=()):
    """Run a small maximize and return it with the argument t_support and
    the rows read of every batch scored; batch b's values at rows inject[b]
    become ValueOverflowError."""
    score, batches = optimizer._stack_values, []

    def recording(t_support, s, v, beta, tol):
        values = score(t_support, s, v, beta, tol)
        for r in dict(inject).get(len(batches), ()):
            values[r] = ValueOverflowError(s.shape[1] - 1, s[r, -1], v[r, -1])
        batches.append((t_support, set()))
        return _Reads(values, batches[-1][1])

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_stack_values", recording)
        res = maximize(ConstraintSet("ruf"), _4PI, n_knots=8, budget=300, seed=1)
    return res, batches


def test_maximize_discards_an_overflow_past_an_acceptance(monkeypatch):
    res, batches = _batches(monkeypatch)
    # placed rows the walk never read follow an acceptance in their batch
    discarded = {b: [r for r in range(len(t)) if r > max(read) and t[r] < math.inf]
                 for b, (t, read) in enumerate(batches) if read}
    discarded = {b: rows for b, rows in discarded.items() if rows}
    assert len(discarded) >= 3
    again, _ = _batches(monkeypatch, discarded.items())
    assert again.best_value == res.best_value
    assert again.objective_trace == res.objective_trace
    assert again.n_evaluations == res.n_evaluations
    # an overflow in a row the walk reads still raises
    b = next(iter(discarded))
    with pytest.raises(ValueOverflowError):
        _batches(monkeypatch, [(b, [max(batches[b][1])])])


def _fingerprint(res):
    p = res.best_profile
    text = " ".join([res.best_value.hex(), *(x.hex() for x in res.objective_trace), p.t_support.hex(),
                     *(float(x).hex() for x in p.s), *(float(x).hex() for x in p.v),
                     str(res.n_evaluations), res.feasibility_residuals["start"]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (kind, n_knots, seed, budget): (best_value.hex(), _fingerprint), recorded
# from the search that tries one move at a time
_PINNED = {
    ("reduced", 32, 1, 500): ("0x1.80cf7fac64554p+3", "9ae8554e8c5e571c"),
    ("reduced", 32, 2, 500): ("0x1.81f8914098ec4p+3", "82b3bef0657840eb"),
    ("reduced", 64, 1, 500): ("0x1.811d87b8a2fa0p+3", "6b306d34071fcc8e"),
    ("reduced", 64, 2, 500): ("0x1.8001bb32f864ep+3", "121ec63a65410193"),
    ("ruf", 32, 1, 500): ("0x1.921b42a490ec1p+3", "0d74c7fa080cceba"),
    ("ruf", 32, 2, 500): ("0x1.921b42a4903d8p+3", "08e32e0a5cf66b73"),
    ("ruf", 64, 1, 500): ("0x1.921b0817c5323p+3", "99d37edf4b6dd5c3"),
    ("ruf", 64, 2, 500): ("0x1.921b0817c7003p+3", "3f23f64fbf28d421"),
    ("norm_sum", 32, 1, 500): ("0x1.7ccc24179d6c2p+3", "ba0112ba8bd5a7b0"),
    ("norm_sum", 32, 2, 500): ("0x1.7ccc24179cc6ep+3", "d285af58fa4a163a"),
    ("norm_sum", 64, 1, 500): ("0x1.7ccbeca521056p+3", "6ae662e0e645da05"),
    ("norm_sum", 64, 2, 500): ("0x1.7ccbeca521e55p+3", "e10dcc17ac6f17f8"),
    ("ruf", 32, 0, 5000): ("0x1.921fb53f79c8ep+3", "e120fe3dd456220c"),
}


def test_maximize_is_pinned_bit_for_bit():
    # the hex of the value, the trace, the support and every knot, the
    # evaluation count and the start: any change to the search's arithmetic
    # shows here
    for (kind, n, seed, budget), want in _PINNED.items():
        beta = 2.0 * math.pi if kind == "reduced" else _4PI
        res = maximize(ConstraintSet(kind), beta, n_knots=n, budget=budget, seed=seed)
        assert (res.best_value.hex(), _fingerprint(res)) == want, (kind, n, seed, budget)
