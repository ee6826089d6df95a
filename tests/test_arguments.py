"""Argument checks: one rule and one message per argument kind.

Every call site that takes a positive finite number, a subcritical beta
or a tolerance checks it through profile._positive, profile._subcritical
or profile._tol.  The table feeds each site the values those rules refuse
and asserts the exception type and the exact message; the scan asserts
that no other function raises the three shared messages itself.  Two
more scans keep the package's shape: each module's API is exported once,
and every private helper or constant is read somewhere in the package.
The number arguments with a rule of their own read an int beyond binary64
range as the float inf, through profile._float, as the shared rules do.
maximize's two counts, n_knots and budget, take integers only.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import moser2d
from moser2d import (
    ConstraintSet,
    RadialProfile,
    WeightedSamples,
    adachi_ratio,
    alvino_extremal,
    alvino_ratio_sup,
    at_constant_eps,
    at_quadratic_bound,
    best_eps,
    blowup_scan,
    cap,
    cap_l2_sq,
    distribution,
    insert_knot,
    maximal_function,
    maximize,
    moser,
    profile_distribution,
    remainder_functional,
    ruf_normalize,
    scale_amplitude,
    scale_dilate,
    tau_rescale,
    tm_functional,
    vanishing_probe,
    zcharact_bound,
)

PI = math.pi
_P = moser(10)
_BAD = (0.0, -1.0, math.nan, math.inf)

# (site, call of the checked argument x, message)
_POSITIVE = [
    ("RadialProfile", lambda x: RadialProfile(x, [0.0], [0.0]), "t_support must be positive and finite"),
    ("value_at", _P.value_at, "t must be positive and finite"),
    ("tm_functional", lambda x: tm_functional(_P, x), "beta must be positive and finite"),
    ("scale_dilate", lambda x: scale_dilate(_P, x), "dilation factor must be positive and finite"),
    ("alvino_ratio_sup", lambda x: alvino_ratio_sup(_P, x), "window measure must be positive and finite"),
    ("remainder_functional", lambda x: remainder_functional(_P, x), "beta must be positive and finite"),
    ("zcharact_bound", lambda x: zcharact_bound(_P, x), "lam must be positive and finite"),
    ("maximize", lambda x: maximize(ConstraintSet("ruf"), x, budget=1), "beta must be positive and finite"),
    ("vanishing_probe", lambda x: vanishing_probe(ConstraintSet("reduced"), x, [0.5]),
     "beta must be positive and finite"),
    ("tau_rescale", lambda x: tau_rescale(_P, x), "tau must be positive and finite"),
    ("maximal_function", lambda x: maximal_function(_P, x), "t must be positive and finite"),
    ("cap", lambda x: cap(1.0, x), "r must be positive and finite"),
    ("cap_l2_sq", lambda x: cap_l2_sq(1.0, x), "r must be positive and finite"),
    ("alvino_extremal", lambda x: alvino_extremal(x, 2.0), "t_support must be positive and finite"),
]
_SUBCRITICAL = [
    ("adachi_ratio", lambda x: adachi_ratio(_P, x)),
    ("best_eps", best_eps),
    ("at_constant_eps", lambda x: at_constant_eps(x, 0.5)),
    ("at_quadratic_bound", at_quadratic_bound),
    ("ruf_normalize", lambda x: ruf_normalize(_P, x)),
]
_TOL = [
    ("tm_functional", lambda x: tm_functional(_P, 1.0, x).j_beta),
    ("remainder_functional", lambda x: remainder_functional(_P, 1.0, x)),
]

_CASES = (
    [(site, call, x, msg) for site, call, msg in _POSITIVE for x in _BAD]
    # supports derived from valid arguments that leave binary64
    + [
        ("scale_dilate", lambda x: scale_dilate(_P, x), 1e-170, "t_support must be positive and finite"),
        ("tau_rescale", lambda x: tau_rescale(_P, x), 1e-308, "t_support must be positive and finite"),
        ("cap", lambda x: cap(1.0, x), 1e200, "t_support must be positive and finite"),
        ("cap", lambda x: cap(1.0, x), 1e-200, "t_support must be positive and finite"),
    ]
    # beta/(4 pi) underflows to 0 below 3.1e-323
    + [(site, call, x, "beta must lie in (0, 4 pi)")
       for site, call in _SUBCRITICAL for x in _BAD + (5e-324, 3e-323, 4.0 * PI)]
    + [(site, call, x, "tol must lie in (0, 1e-6]") for site, call in _TOL for x in _BAD + (2e-6,)]
)


@pytest.mark.parametrize(
    "site, call, x, msg", _CASES, ids=["%s-%r" % (c[0], c[2]) for c in _CASES]
)
def test_every_site_refuses_with_the_shared_message(site, call, x, msg):
    with pytest.raises(ValueError) as exc:
        call(x)
    assert type(exc.value) is ValueError
    assert str(exc.value) == msg


_RUF = ConstraintSet("ruf")
# maximize's counts take a Python or numpy integer: any other number, even
# an integral float, is refused as a count below the floor is
_COUNTS = [
    ("n_knots", lambda x: maximize(_RUF, 4.0 * PI, n_knots=x, budget=1), x,
     "n_knots must be >= 4 and an integer")
    for x in (8.0, 3, -1, math.nan, "8", None)
] + [
    ("budget", lambda x: maximize(_RUF, 4.0 * PI, n_knots=4, budget=x), x,
     "budget must be positive and an integer")
    for x in (50.0, math.inf, math.nan, 0, -1, 1.0, "50", None)
]


@pytest.mark.parametrize(
    "site, call, x, msg", _COUNTS, ids=["maximize_%s-%r" % (c[0], c[2]) for c in _COUNTS]
)
def test_maximize_refuses_a_count_that_is_no_integer(site, call, x, msg):
    test_every_site_refuses_with_the_shared_message(site, call, x, msg)


def test_maximize_takes_numpy_integer_counts():
    want = maximize(_RUF, 4.0 * PI, n_knots=5, budget=30)
    got = maximize(_RUF, 4.0 * PI, n_knots=np.int64(5), budget=np.int32(30))
    assert got.best_value.hex() == want.best_value.hex()
    assert got.n_evaluations == 30


# float() of an int beyond binary64 range raises OverflowError; such an int
# is refused as inf is, or as -1.0 is when it is negative
_HUGE_CASES = [c for c in _CASES if c[2] in (math.inf, -1.0)]


@pytest.mark.parametrize(
    "site, call, x, msg", _HUGE_CASES, ids=["%s-%s10**400" % (c[0], "-" * (c[2] < 0)) for c in _HUGE_CASES]
)
def test_an_int_beyond_binary64_range_is_refused_as_inf(site, call, x, msg):
    test_every_site_refuses_with_the_shared_message(site, call, 10**400 if x > 0 else -(10**400), msg)


_W = WeightedSamples([1.0, 2.0], [1.0, 1.0])
# (site, call of the argument x) for the number arguments outside the three
# shared rules, each converted as profile._float converts
_OWN_RULES = [
    ("scale_amplitude", lambda x: scale_amplitude(_P, x)),
    ("insert_knot", lambda x: insert_knot(_P, x)),
    ("radial_value", _P.radial_value),
    ("distribution", lambda x: distribution(_W, x)),
    ("profile_distribution", lambda x: profile_distribution(_P, x)),
    ("WeightedSamples_values", lambda x: WeightedSamples([1.0, x], [1.0, 1.0])),
    ("WeightedSamples_areas", lambda x: WeightedSamples([1.0, 2.0], [1.0, x])),
    ("ConstraintSet_K", lambda x: ConstraintSet("reduced", K=x)),
    ("ConstraintSet_tau", lambda x: ConstraintSet("ruf", tau=x)),
    ("blowup_scan_delta", lambda x: blowup_scan(x, 1.0, [1.0], [10])),
    ("blowup_scan_K", lambda x: blowup_scan(0.1, x, [1.0], [10])),
    ("blowup_scan_beta", lambda x: blowup_scan(0.1, 1.0, [1.0, x], [10])),
    ("vanishing_probe", lambda x: vanishing_probe(ConstraintSet("reduced"), 1.0, [0.5, x])),
    ("at_constant_eps", lambda x: at_constant_eps(1.0, x)),
    ("cap", lambda x: cap(x, 1.0)),
    ("alvino_extremal", lambda x: alvino_extremal(2.0, x)),
]


def _outcome(call, x):
    """(exception type, message) of call(x), or (None, repr of its value)."""
    try:
        return None, repr(call(x))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("site, call", _OWN_RULES, ids=[c[0] for c in _OWN_RULES])
def test_an_int_beyond_binary64_range_reads_as_inf_at_every_site(site, call):
    # the site's own message shows the converted value, or a level of inf
    # measures nothing, as the literal 1e400 does
    for huge, inf in ((10**400, math.inf), (-(10**400), -math.inf)):
        assert _outcome(call, huge) == _outcome(call, inf), (site, huge > 0)


@pytest.mark.parametrize("site, call", _TOL, ids=[c[0] for c in _TOL])
def test_tol_is_converted_as_a_float(site, call):
    assert call("1e-8") == call(1e-8)


def test_subcritical_edges_are_accepted():
    # the smallest beta whose b = beta/(4 pi) is positive, and the largest
    # below 4 pi, whose b rounds below 1
    for beta in (3.5e-323, math.nextafter(4.0 * PI, 0.0)):
        assert 0.0 < best_eps(beta) <= 1.0
        assert at_quadratic_bound(beta) > 0.0


_SHARED = ("must be positive and finite", "must lie in (0, 4 pi)", "tol must lie in (0, 1e-6]")
_HELPERS = {("profile.py", "_positive"), ("profile.py", "_subcritical"), ("profile.py", "_tol")}


def _shared_raises(path):
    """(file, function) of every raise in path whose text ends in a shared message."""
    tree = ast.parse(path.read_text())
    owner = {}
    # ast.walk goes outside in, so an inner function claims its own nodes
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for c in ast.walk(node.exc):
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value.endswith(_SHARED):
                    yield path.name, owner.get(node, "<module>")


def test_only_the_shared_helpers_raise_the_shared_messages():
    found = set()
    for path in sorted(Path(moser2d.__file__).parent.glob("*.py")):
        found.update(_shared_raises(path))
    assert found == _HELPERS


def test_package_exports_each_module_api_once():
    # moser2d's API is the union of its modules' own __all__ lists, each name
    # bound to the module's own object
    from moser2d import equivalence, inequalities, optimizer, profile, quadrature, rearrangement, sequences

    modules = (profile, quadrature, sequences, rearrangement, inequalities, equivalence, optimizer)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(moser2d.__all__) == sorted(["__version__"] + names)
    for module in modules:
        for name in module.__all__:
            assert getattr(moser2d, name) is getattr(module, name), name


def _bound_names(node):
    """The names a top-level statement binds: a function's or class's, or
    every name among an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def test_every_private_helper_has_a_caller():
    # every top-level _-prefixed function, class or assigned constant of the
    # package is read (by name or as an attribute) somewhere in the package
    # outside its own body; an import alone or a docstring naming it is no
    # reference, and dunder names such as __all__ are not helpers
    trees = [ast.parse(path.read_text()) for path in sorted(Path(moser2d.__file__).parent.glob("*.py"))]
    helpers = {name: node for tree in trees for node in tree.body for name in _bound_names(node)
               if name.startswith("_") and not name.endswith("__")}
    own = {id(n): name for name, node in helpers.items() for n in ast.walk(node)}
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                name = n.id if isinstance(n, ast.Name) else n.attr
                if name in helpers and own.get(id(n)) != name:
                    read.add(name)
    assert sorted(set(helpers) - read) == []
