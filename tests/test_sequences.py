"""Named profile families against their closed-form norm tables."""

import math

import numpy as np
import pytest

from moser2d import (
    RadialProfile,
    SequenceSpec,
    alvino_extremal,
    alvino_l2_sq,
    cap,
    cap_l2_sq,
    counterexample,
    counterexample_j_lower_bound,
    counterexample_l2_sq,
    counterexample_scales,
    dirichlet_norm_sq,
    l2_norm_sq,
    modified_moser,
    modified_moser_norms,
    moser,
    moser_l2_sq,
    oracle_rows,
    scale_amplitude,
    scale_dilate,
    tm_functional,
    zygmund_optimal,
)
from moser2d.sequences import _alvino_args, _cap_args, _moser_args

from conftest import brute_l2, plateau_term, rel_err


def test_oracle_grid_matches_computed_norms():
    specs = oracle_rows()
    assert len(specs) >= 20
    for spec in specs:
        p = spec.build()
        oracle = spec.oracle_values()
        assert rel_err(dirichlet_norm_sq(p), oracle["dirichlet_sq"]) < 1e-12
        assert rel_err(l2_norm_sq(p), oracle["l2_sq"]) < 1e-12


def test_moser_unit_dirichlet():
    for n in (2, 10, 1000, 10**6):
        assert dirichlet_norm_sq(moser(n)) == pytest.approx(1.0, rel=1e-15)


def test_moser_l2_closed_form():
    # independent value computed from the slope/plateau decomposition
    assert moser_l2_sq(10) == pytest.approx(0.10248788427105482, rel=1e-15)
    for n in (10, 100, 10**4):
        p = moser(n)
        assert rel_err(l2_norm_sq(p), moser_l2_sq(n)) < 1e-13
        assert rel_err(brute_l2(p), moser_l2_sq(n)) < 1e-10


def test_moser_shape():
    p = moser(10)
    ln = math.log(10)
    assert p.t_support == math.pi
    assert list(p.s) == [0.0, 2.0 * ln]
    assert p.v[-1] == pytest.approx(math.sqrt(ln / (2.0 * math.pi)), rel=1e-15)


def test_counterexample_scales_and_norms():
    for n in (10**3, 10**6):
        r, lam = counterexample_scales(n)
        ln = math.log(n)
        assert r == pytest.approx(math.sqrt(ln) / math.log(ln), rel=1e-15)
        assert 0.0 < lam < 1.0
        p = counterexample(n)
        assert rel_err(dirichlet_norm_sq(p), lam * lam) < 1e-12
        assert rel_err(l2_norm_sq(p), counterexample_l2_sq(n)) < 1e-12
    assert counterexample_l2_sq(10**6) == pytest.approx(
        0.03453642726089797, rel=1e-13
    )


def test_counterexample_dirichlet_strictly_below_one():
    for n in (10, 100, 10**4, 10**6):
        assert dirichlet_norm_sq(counterexample(n)) < 1.0


def test_counterexample_j_dominates_plateau_bound():
    for n in (10**3, 10**6):
        j = tm_functional(counterexample(n), 4.0 * math.pi, tol=1e-10).j_beta
        assert j >= counterexample_j_lower_bound(n)


def test_closed_forms_stay_finite_for_huge_n():
    # n^2 overflows binary64 past n ~ 1.3e154 while log n stays modest;
    # the closed forms must agree with the norms taken from the knots
    n = 10**1000
    m, c = moser(n), counterexample(n)
    assert rel_err(moser_l2_sq(n), l2_norm_sq(m)) < 1e-12
    assert rel_err(counterexample_l2_sq(n), l2_norm_sq(c)) < 1e-12
    assert rel_err(counterexample_j_lower_bound(n), plateau_term(c, 4.0 * math.pi)) < 1e-9
    table = modified_moser_norms(n)
    assert rel_err(table["l2_sq"], l2_norm_sq(modified_moser(n))) < 1e-12


def test_cap_norms():
    for k in (1.0, 4.0, 16.0, 64.0):
        for r in (0.5, 1.0, 2.0):
            p = cap(k, r)
            assert p.t_support == pytest.approx(math.pi * r * r, rel=1e-15)
            assert dirichlet_norm_sq(p) == pytest.approx(1.0, rel=1e-14)
            assert rel_err(l2_norm_sq(p), cap_l2_sq(k, r)) < 1e-13
            assert rel_err(brute_l2(p), cap_l2_sq(k, r)) < 1e-10


def test_cap_l2_closed_forms_do_not_cancel():
    # T P(2, k)/(2 pi k) against 50 digits; as delta -> 1 the truncated
    # logarithm flattens (k = 2 log delta -> 0) and 1/k - 2 e^-k - e^-k/k
    # used to cancel, to 5e-5 relative at delta = 1 + 1e-6
    import mpmath as mp

    def exact(t, k):
        return t * mp.gammainc(2, 0, k, regularized=True) / (2 * mp.pi * k)

    with mp.workdps(50):
        for d in (1.0 + 1e-6, 1.0001, 1.01):
            want = exact(10, 2 * mp.log(mp.mpf(d)))
            assert rel_err(alvino_l2_sq(10.0, d), float(want)) < 1e-14
        assert rel_err(cap_l2_sq(1.0), float(exact(mp.pi, 1))) < 1e-14


def test_zygmund_optimal_is_unit_radius_cap():
    for k in (1.0, 7.5, 64.0):
        z = zygmund_optimal(k)
        c = cap(k, 1.0)
        assert z.t_support == c.t_support
        assert np.array_equal(z.s, c.s)
        assert np.array_equal(z.v, c.v)


def test_alvino_matches_norms_and_moser_alias():
    for t in (math.pi, 10.0):
        for d in (math.e, math.exp(4.0)):
            p = alvino_extremal(t, d)
            assert dirichlet_norm_sq(p) == pytest.approx(1.0, rel=1e-14)
            assert rel_err(l2_norm_sq(p), alvino_l2_sq(t, d)) < 1e-13
    # with d = n on support pi the construction reproduces moser(n) bitwise
    m = moser(10)
    a = alvino_extremal(math.pi, 10.0)
    assert m.t_support == a.t_support
    assert np.array_equal(m.s, a.s)
    assert np.array_equal(m.v, a.v)


def test_modified_moser_norms():
    for n in (10, 10**4):
        p = modified_moser(n)
        table = modified_moser_norms(n)
        assert rel_err(dirichlet_norm_sq(p), table["dirichlet_sq"]) < 1e-12
        assert rel_err(l2_norm_sq(p), table["l2_sq"]) < 1e-12
        combined = dirichlet_norm_sq(p) + l2_norm_sq(p)
        assert rel_err(combined, table["sum_norm"] ** 2) < 1e-10 or combined <= 1.0
        assert table["sum_norm"] <= 1.0


def test_modified_moser_amplitude_transfer():
    # shrinking the amplitude by c rescales the exponent weight by c^2
    for n in (10, 1000):
        a = math.sqrt(moser_l2_sq(n))
        beta = 4.0 * math.pi
        lhs = tm_functional(modified_moser(n), beta, tol=1e-10).j_beta
        rhs = tm_functional(moser(n), beta * (1.0 - a) ** 2, tol=1e-10).j_beta
        assert rel_err(lhs, rhs) < 1e-9


def test_constructor_validation():
    with pytest.raises(ValueError):
        moser(1)
    with pytest.raises(ValueError):
        counterexample(2)
    with pytest.raises(ValueError):
        cap(0.5, 1.0)
    with pytest.raises(ValueError):
        cap(4.0, 0.0)
    with pytest.raises(ValueError):
        alvino_extremal(0.0, math.e)
    with pytest.raises(ValueError):
        alvino_extremal(math.pi, 1.0)


@pytest.mark.parametrize(
    "closed_form, builder, args",
    [
        (moser_l2_sq, moser, (1,)),
        (modified_moser_norms, modified_moser, (1,)),
        (cap_l2_sq, cap, (-1.0, 1.0)),
        (cap_l2_sq, cap, (0.5, -2.0)),
        (cap_l2_sq, cap, (4.0, -2.0)),
        (cap_l2_sq, cap, (4.0, 1e200)),
        (alvino_l2_sq, alvino_extremal, (10.0, 0.5)),
        (alvino_l2_sq, alvino_extremal, (math.pi, 1.0)),
        (alvino_l2_sq, alvino_extremal, (0.0, math.e)),
    ],
    ids=[
        "moser-n1",
        "modified_moser-n1",
        "cap-k-1",
        "cap-k0.5-r-2",
        "cap-r-2",
        "cap-r1e200",
        "alvino-delta0.5",
        "alvino-delta1",
        "alvino-T0",
    ],
)
def test_closed_forms_reject_what_the_builders_reject(closed_form, builder, args):
    # the closed forms are reached without a profile (SequenceSpec,
    # oracle_values): they raise the builder's ValueError, not nan or a
    # ZeroDivisionError
    with pytest.raises(ValueError) as want:
        builder(*args)
    with pytest.raises(ValueError) as got:
        closed_form(*args)
    assert str(got.value) == str(want.value)


def test_oracle_values_reject_bad_parameters():
    with pytest.raises(ValueError, match="delta must exceed 1"):
        SequenceSpec("alvino", {"t_support": 10.0, "delta": 0.5}).oracle_values()
    with pytest.raises(ValueError, match="k must be >= 1"):
        SequenceSpec("zygmund", {"k": -1.0}).oracle_values()


def test_sequence_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec("gaussian", {"n": 10})
    with pytest.raises(ValueError):
        SequenceSpec("cap", {"k": 4.0})
    spec = SequenceSpec("cap", {"k": 4.0, "r": 2.0})
    p = spec.build()
    assert p.t_support == pytest.approx(4.0 * math.pi, rel=1e-15)


# the families as composed before each member was built at once: a cap
# through the checking constructor, then dilated and rescaled
def _cap_ref(t_support, k):
    return RadialProfile(t_support, [0.0, k], [0.0, math.sqrt(k / (4.0 * math.pi))])


def _moser_ref(n):
    return _cap_ref(*_moser_args(n))


def _counterexample_ref(n):
    r, lam = counterexample_scales(n)
    return scale_amplitude(scale_dilate(_moser_ref(n), 1.0 / r), lam)


def _modified_moser_ref(n):
    w = _moser_ref(n)
    return scale_amplitude(w, 1.0 - math.sqrt(l2_norm_sq(w)))


_BUILDERS = [
    (moser, _moser_ref),
    (counterexample, _counterexample_ref),
    (modified_moser, _modified_moser_ref),
    (cap, lambda k, r: _cap_ref(*_cap_args(k, r))),
    (alvino_extremal, lambda t, d: _cap_ref(*_alvino_args(t, d))),
]


def _build(builder, args):
    try:
        return builder(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def test_family_members_equal_their_composition():
    # each member is built from its final knots at once, with the float
    # arithmetic of the composition: the same t_support and knot bytes,
    # read-only, and the same message for every rejected argument
    inf, nan = math.inf, math.nan
    ns = [3, 4, 10, 10**6, 10**300, 10**100000, 2.5, 1e300, 2, 1, 0, -3, inf, nan]
    args = {
        moser: [(n,) for n in ns],
        counterexample: [(n,) for n in ns],
        modified_moser: [(n,) for n in ns],
        cap: [(k, r) for k in (1.0, 4.0, 16.0, 64.0, 1e300, 0.5, -1.0, inf, nan)
              for r in (0.5, 1.0, 2.0, 1e-200, 1e200, 0.0, -2.0, inf, nan)],
        alvino_extremal: [(t, d) for t in (math.pi, 10.0, 1e-300, 0.0, inf, nan)
                          for d in (math.e, math.exp(4.0), 1.0 + 2e-16, 1e300, 1.0, 0.5, inf, nan)],
    }
    rejected = set()
    for builder, reference in _BUILDERS:
        for a in args[builder]:
            got, want = _build(builder, a), _build(reference, a)
            if isinstance(want, str):
                assert got == want, (builder.__name__, a)
                rejected.add(want)
                continue
            assert got.t_support.hex() == want.t_support.hex(), (builder.__name__, a)
            for x, y in ((got.s, want.s), (got.v, want.v)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (builder.__name__, a)
                assert not x.flags.writeable
    # the builders' own checks and the constructor's both spoke
    assert {"ValueError: knots must be finite", "ValueError: n must be >= 3 so that log log n > 0",
            "ValueError: t_support must be positive and finite"} <= rejected
