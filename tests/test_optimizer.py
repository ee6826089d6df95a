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
from moser2d import optimizer, profile, quadrature
from moser2d.optimizer import _place

from conftest import brute_j, pool_adjacent_violators, rel_err

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


def test_constraint_set_rejects_budgets_outside_binary64():
    # K^2 or 1/tau that overflows or vanishes leaves no L2 budget to place
    # a start on; the constructor says so, with the old messages as prefixes
    for big_k in (1e160, math.inf, 1e-200):
        with pytest.raises(ValueError, match="^K must be positive"):
            ConstraintSet("reduced", K=big_k)
    for tau in (1e-320, math.inf):
        with pytest.raises(ValueError, match="^tau must be positive"):
            ConstraintSet("ruf", tau=tau)
    # budgets just inside binary64 still construct
    assert ConstraintSet("reduced", K=1e154).l2_budget(0.5) < math.inf
    assert ConstraintSet("reduced", K=1e-160).l2_budget(0.5) > 0.0
    assert ConstraintSet("ruf", tau=1e-300).l2_budget(0.5) < math.inf


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


@pytest.mark.parametrize("kind", ["ruf", "norm_sum"])
def test_maximize_refuses_beta_past_4pi(kind):
    # the supremum is finite at 4 pi and infinite past it
    c = ConstraintSet(kind)
    res = maximize(c, _4PI, n_knots=8, budget=30, seed=0)
    assert math.isfinite(res.best_value)
    with pytest.raises(ValueError, match="supremum is infinite"):
        maximize(c, math.nextafter(_4PI, math.inf), n_knots=8, budget=30, seed=0)
    # the reduced set's own critical exponent lies past 4 pi when delta > 0
    res = maximize(ConstraintSet("reduced", delta=0.5), math.nextafter(_4PI, math.inf), n_knots=8, budget=30)
    assert math.isfinite(res.best_value)


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
            t, w = _place(c, np.array([theta]), s[None], v[None])
            p = RadialProfile(t[0], s, w[0])
            assert rel_err(dirichlet_norm_sq(p), theta) <= 1e-12
            assert rel_err(l2_norm_sq(p), c.l2_budget(theta)) <= 1e-12
            assert abs(c.residual(p)) <= 1e-12
        # a share that leaves no L2 budget places nothing
        if c.kind != "reduced":
            assert _place(c, np.array([1.0]), s[None], v[None])[0][0] == math.inf


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


def test_single_descent_pool_matches_the_full_scan():
    # a value move leaves one descent, which _pool grows as one block by the
    # scan's own merges: up moves past 1 to n-1 knots, down moves back to
    # knot 0, ties with a neighbour, zeros and nan or inf values, all with
    # the full scan's bits.  A second move leaves two or more descents,
    # pooled one by one, left to right, as _place pools them: sorted, and
    # the full scan's values to within rounding
    rng = np.random.default_rng(19)
    specials = [0.0, math.inf, -math.inf, math.nan]
    seen = {"single": 0, "multi": 0, "to_knot_0": 0, "past_all": 0, "tie": 0, "special": 0}

    def moved(y):
        i, j = (int(x) for x in rng.integers(0, y.size, 2))
        z = y.copy()
        if rng.random() < 0.1:
            z[i] = specials[int(rng.integers(0, 4))]
            seen["special"] += 1
        else:
            # to knot j's value, or just above or below it
            z[i] = y[j] + (0.0, 1e-3, -1e-3)[int(rng.integers(0, 3))] * abs(float(rng.normal()))
            seen["tie"] += i != j and z[i] == y[j]
            seen["to_knot_0"] += j == 0 and z[i] < y[0]
            seen["past_all"] += i == 0 and j == y.size - 1 and z[i] > y[-1]
        return z

    for trial in range(3000):
        n = int(rng.integers(2, 70))
        # sorted values, with ties and zeros in every fourth array
        y = np.sort(rng.integers(0, 6, n).astype(float) if trial % 4 == 0 else rng.normal(size=n))
        z = moved(y)
        for x in (z, moved(z)):
            down = (~(x[1:] >= x[:-1])).nonzero()[0]
            out, full_scan = x.copy(), pool_adjacent_violators(x)
            for i in down.tolist():
                optimizer._pool(out, i)
            if down.size == 1:
                assert out.tobytes() == full_scan.tobytes(), x
                seen["single"] += 1
            elif down.size:
                # no order sorts a nan value
                assert np.isnan(full_scan).any() or (out[1:] >= out[:-1]).all(), x
                np.testing.assert_allclose(out, full_scan, rtol=1e-13, atol=0)
                seen["multi"] += 1
    assert min(seen.values()) >= 20, seen


def _ascent_stack(rng, c, n, rows):
    """(theta, s, v) of a stack built as ascend builds one: moves from one
    incumbent, so that the rows share s except the stretch and position
    rows, with a stretch at row 0 in every other stack; shares at the
    ceiling and zero shapes place nothing, and raised or lowered knots leave
    rows to pool."""
    ceiling = (1.0 - c.delta) ** 2 if c.kind == "reduced" else 1.0
    s0 = np.concatenate(([0.0], np.cumsum(rng.exponential(0.5, n - 1))))
    v0 = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1))))
    theta0 = ceiling * float(rng.uniform(1e-3, 0.9))
    theta, s, v = [theta0], [s0 * math.exp(rng.uniform(-0.5, 0.5)) if rng.random() < 0.5 else s0], [v0]
    for _ in range(rows - 1):
        move, h = int(rng.integers(0, 6)), float(rng.uniform(1e-7, 2.0))
        share = min(theta0 * math.exp(rng.uniform(-h, h)), ceiling) if move == 1 else theta0
        theta.append(ceiling if move == 0 else share)
        s.append(s0 * math.exp(rng.uniform(-h, h)) if move == 2 else s0.copy())
        v.append(np.zeros(n) if move == 3 else v0.copy())
        i = int(rng.integers(1, n))
        if move == 4:
            v[-1][i] = max(v0[i] + rng.uniform(-h, h), 0.0)
        if move == 5:
            s[-1][i] = rng.uniform(s0[i - 1], s0[i + 1] if i + 1 < n else s0[i] + h)
    return np.array(theta), np.array(s), np.array(v)


def test_place_stack_rows_equal_one_row_calls():
    # a stack of 2-40 shapes places each row as a one-row stack places it,
    # bit for bit: unsorted rows pool, and rows that place nothing get t = inf;
    # on stacks built as ascend builds them the rows share most lengths,
    # whose L2 moments are evaluated once.  A row with one descent places
    # as the full scan's regression of it does, bit for bit
    rng = np.random.default_rng(12)
    pooled = several = single = empty = shared = apart = 0
    for c in _NON_DEFAULT + (ConstraintSet("reduced"), ConstraintSet("ruf")):
        ceiling = (1.0 - c.delta) ** 2 if c.kind == "reduced" else 1.0
        stacks = []
        for _ in range(20):
            n, rows = int(rng.integers(2, 40)), int(rng.integers(2, 41))
            s = np.concatenate((np.zeros((rows, 1)), np.cumsum(rng.exponential(0.5, (rows, n - 1)), axis=1)), axis=1)
            v = np.sort(rng.uniform(0.0, 1.0, (rows, n)), axis=1)
            v[::3, int(rng.integers(0, n))] += rng.uniform(-1.0, 1.0)
            # rows that descend at several knots
            v[1::4] += rng.normal(0.0, 0.2, v[1::4].shape)
            v[::7] = 0.0
            theta = ceiling * rng.uniform(1e-4, 1.0, rows)
            theta[::5] = ceiling
            stacks.append((theta, s, v))
        ascent = [_ascent_stack(rng, c, int(rng.integers(2, 65)), int(rng.integers(3, 33))) for _ in range(20)]
        # stacks whose later rows share all of row 0's s, or none of it past s = 0
        shared += sum(bool((s[1:] == s[0]).all(axis=1).any()) for _, s, _ in ascent)
        apart += sum(bool((s[1:, 1:] != s[0, 1:]).all()) for _, s, _ in ascent)
        for theta, s, v in stacks + ascent:
            t, w = _place(c, theta, s, v)
            for r in range(len(theta)):
                one_t, one_w = _place(c, theta[r : r + 1], s[r : r + 1], v[r : r + 1])
                if one_t[0] == math.inf:
                    empty += 1
                    assert t[r] == math.inf
                else:
                    descents = int((~(v[r][1:] >= v[r][:-1])).sum())
                    pooled += descents > 0
                    several += descents > 1
                    assert t[r] == one_t[0] and np.array_equal(w[r], one_w[0])
                    assert (w[r][1:] >= w[r][:-1]).all()
                    if descents == 1:
                        # a row as a move leaves it places as the full scan's regression
                        sorted_v = pool_adjacent_violators(v[r])[None]
                        ref_t, ref_w = _place(c, theta[r : r + 1], s[r : r + 1], sorted_v)
                        assert t[r] == ref_t[0] and w[r].tobytes() == ref_w[0].tobytes()
                        single += 1
    assert pooled > 100 and several > 100 and single > 100 and empty > 100 and shared > 30 and apart > 30


class _Reads(list):
    """A list that records which rows the search reads."""

    def __init__(self, values, read):
        super().__init__(values)
        self.read = read

    def __getitem__(self, r):
        self.read.add(r)
        return super().__getitem__(r)


def _run(kind, n, seed, budget):
    beta = 2.0 * math.pi if kind == "reduced" else _4PI
    return maximize(ConstraintSet(kind), beta, n_knots=n, budget=budget, seed=seed)


def _batches(monkeypatch, inject=(), case=("ruf", 8, 1, 300)):
    """Run maximize on case = (kind, n_knots, seed, budget) and return it with
    the argument t_support and the rows read of every batch scored; batch
    b's values at rows inject[b] become ValueOverflowError."""
    score, batches = optimizer._stack_values, []

    def recording(t_support, s, v, beta, tol):
        values = score(t_support, s, v, beta, tol)
        for r in dict(inject).get(len(batches), ()):
            values[r] = ValueOverflowError(s.shape[1] - 1, s[r, -1], v[r, -1])
        batches.append((t_support, set()))
        return _Reads(values, batches[-1][1])

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_stack_values", recording)
        res = _run(*case)
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
    # budgets at or below the 20 starts, and one evaluation past them
    ("reduced", 32, 1, 1): ("0x1.ec70093a4ea73p+2", "bb7d31eec9f5dc54"),
    ("ruf", 32, 2, 7): ("0x1.91e51e5b15bb0p+3", "b597f85ffdb81046"),
    ("norm_sum", 64, 1, 20): ("0x1.79724fbce778bp+3", "8bbcf1cb0743006e"),
    ("reduced", 32, 2, 21): ("0x1.554c9483655f6p+3", "92dd59fa58eaf422"),
}


def test_maximize_is_pinned_bit_for_bit():
    # the hex of the value, the trace, the support and every knot, the
    # evaluation count and the start: any change to the search's arithmetic
    # shows here
    for (kind, n, seed, budget), want in _PINNED.items():
        beta = 2.0 * math.pi if kind == "reduced" else _4PI
        res = maximize(ConstraintSet(kind), beta, n_knots=n, budget=budget, seed=seed)
        assert (res.best_value.hex(), _fingerprint(res)) == want, (kind, n, seed, budget)


def test_maximize_is_the_same_at_every_batch_width(monkeypatch):
    # the walk tries one move at a time whatever width its stacks take: one
    # row per stack, or 32, give the default's fingerprints, also on a run
    # that accepts about one move in eight
    high = ("reduced", 16, 0, 3000)
    want = {case: _PINNED[case][1] for case in [("reduced", 32, 1, 500), ("ruf", 64, 2, 500),
                                                ("norm_sum", 32, 2, 500)]}
    want[high] = _fingerprint(_run(*high))
    for widths in [(1, 1), (32, 32)]:
        monkeypatch.setattr(optimizer, "_BATCH_MIN", widths[0])
        monkeypatch.setattr(optimizer, "_BATCH_MAX", widths[1])
        for case, fingerprint in want.items():
            assert _fingerprint(_run(*case)) == fingerprint, (widths, case)


# (kind, n_knots, seed, budget): (stacks, rows) scored by the search that went
# back to a batch of _BATCH_MIN after every acceptance
_WORK_AT_BATCH_MIN = {("ruf", 32, 1, 500): (58, 628), ("reduced", 32, 0, 3000): (386, 3921)}


def test_acceptance_rate_sets_fewer_stacks(monkeypatch):
    # a stack costs about twelve rows; the width that follows the acceptance
    # rate scores fewer stacks for at most 5% more rows
    for case, (stacks, rows) in _WORK_AT_BATCH_MIN.items():
        _, batches = _batches(monkeypatch, case=case)
        assert len(batches) < stacks, case
        assert sum(len(t) for t, _ in batches) <= 1.05 * rows, case


def test_an_ascent_opens_with_a_full_stack(monkeypatch):
    # before its first acceptance an ascent has no failure rate to go by: its
    # first stack holds _BATCH_MAX moves, or as many as it has evaluations left
    for kind, n, seed, budget in [("ruf", 32, 1, 500), ("reduced", 32, 0, 3000), ("norm_sum", 16, 2, 700)]:
        res, batches = _batches(monkeypatch, case=(kind, n, seed, budget))
        # each ascent's (first, stop) evaluation count, as maximize's docstring
        # schedules them: the 20 starts in turn, then the best three
        evals = g = min(20, budget)
        spans, share = [], max((budget - g) // (2 * g), 4 * n)
        for _ in range(g):
            spans.append((evals, min(evals + share, budget)))
            evals = spans[-1][1]
        while evals < budget:
            share = max((budget - evals) // 3, 1)
            for _ in range(3):
                spans.append((evals, min(evals + share, budget)))
                evals = spans[-1][1]
        spans = [(first, stop) for first, stop in spans if stop > first]
        # after the starts' stack, each placed row the walk reads spends one
        # evaluation, and an ascent stops at exactly its stop count
        spent, k, opened, widths = g, 0, False, []
        for t, read in batches[1:]:
            if not opened:
                first, stop = spans[k]
                assert spent == first, (kind, k)
                widths.append((len(t), min(optimizer._BATCH_MAX, stop - first)))
                opened = True
            spent += len(read)
            if spent == spans[k][1]:
                k, opened = k + 1, False
        assert k == len(spans) and spent == res.n_evaluations == budget
        assert all(got == want for got, want in widths), (kind, widths)


# the lengths that reached segment_moments on (ruf, 4 pi, 32 knots, budget
# 500, seed 1) when every row of a stack evaluated its own L2 moments: from
# the norm kernels, and from the linear pieces of the quadrature
_MOMENT_LENGTHS_PER_ROW = {"profile": 19933, "quadrature": 18990}


def test_stack_rows_share_their_moments(monkeypatch):
    # the rows of a batch are moves from one incumbent and share most piece
    # lengths: their L2 moments are evaluated on row 0 and on the lengths
    # of the other rows that differ from it
    lengths = dict.fromkeys(_MOMENT_LENGTHS_PER_ROW, 0)
    for name, module in [("profile", profile), ("quadrature", quadrature)]:
        def counting(length, k, name=name, moments=module.segment_moments):
            lengths[name] += np.size(length)
            return moments(length, k)

        monkeypatch.setattr(module, "segment_moments", counting)
    _run("ruf", 32, 1, 500)
    assert lengths["profile"] < 0.2 * _MOMENT_LENGTHS_PER_ROW["profile"]
    assert sum(lengths.values()) < 0.6 * sum(_MOMENT_LENGTHS_PER_ROW.values())
