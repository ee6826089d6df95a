"""Named extremal and counterexample families with closed-form oracles.

The Moser sequence, the Alvino extremals and the Zygmund-optimal caps are
one truncated logarithm: a rise in s = log(T/t) from 0 to sqrt(k/(4 pi))
over [0, k], then a plateau, with unit Dirichlet energy.  _cap builds it
and _cap_l2_sq gives its L2 norm; the counterexample and modified-Moser
families rescale it.  FAMILIES is the one table of families, naming each
one's builder, parameters and closed-form norms, so a single table drives
SequenceSpec, the test suite and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from scipy.special import gammainc

from .profile import RadialProfile, l2_norm_sq, scale_amplitude, scale_dilate

__all__ = [
    "FAMILIES",
    "SequenceSpec",
    "moser",
    "counterexample",
    "alvino_extremal",
    "cap",
    "zygmund_optimal",
    "modified_moser",
    "moser_l2_sq",
    "counterexample_scales",
    "counterexample_l2_sq",
    "counterexample_j_lower_bound",
    "alvino_l2_sq",
    "cap_l2_sq",
    "modified_moser_norms",
    "oracle_rows",
]

_2PI = 2.0 * math.pi
_4PI = 4.0 * math.pi


def _cap(t_support: float, k: float) -> RadialProfile:
    """Rise from 0 to sqrt(k/(4 pi)) over s in [0, k], then a plateau."""
    return RadialProfile(t_support, [0.0, k], [0.0, math.sqrt(k / _4PI)])


def _cap_l2_sq(t_support: float, k: float) -> float:
    """||_cap(t_support, k)||_2^2 = T P(2, k)/(2 pi k); P does not cancel as k -> 0."""
    return t_support * float(gammainc(2.0, k)) / (_2PI * k)


def _moser_args(n) -> tuple:
    """(t_support, k) of moser(n); shared by the builder and its closed form."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.pi, 2.0 * math.log(n)


def moser(n: int) -> RadialProfile:
    """Unit-ball concentration profile with unit Dirichlet energy.

    Linear rise over s in [0, 2 log n] up to sqrt(log n / (2 pi)), then a
    plateau; support measure pi.
    """
    return _cap(*_moser_args(n))


def moser_l2_sq(n) -> float:
    return _cap_l2_sq(*_moser_args(n))


def _sq(n) -> float:
    """n^2 as a float, inf where it overflows (n > ~1.3e154).

    Once n^2 overflows, 1/n^2 < 6e-309 no longer moves the terms it is
    added to.
    """
    try:
        return float(n) ** 2
    except OverflowError:
        return math.inf


def counterexample_scales(n) -> tuple:
    """(R_n, lambda_n): dilation radius and amplitude shrink factor."""
    if n < 3:
        raise ValueError("n must be >= 3 so that log log n > 0")
    ln = math.log(n)
    lln = math.log(ln)
    r = math.sqrt(ln) / lln
    lam = math.sqrt(1.0 - lln / (4.0 * ln))
    return r, lam


def counterexample(n: int) -> RadialProfile:
    """Dilated, slightly flattened concentration profile.

    Dirichlet energy lambda_n^2 < 1 strictly, yet J_{4 pi} admits the
    explicit lower bound pi R_n^2 (1/sqrt(log n) - 1/n^2) from the
    terminal plateau alone.
    """
    r, lam = counterexample_scales(n)
    return scale_amplitude(scale_dilate(moser(n), 1.0 / r), lam)


def counterexample_l2_sq(n) -> float:
    r, lam = counterexample_scales(n)
    return lam * lam * r * r * moser_l2_sq(n)


def counterexample_j_lower_bound(n) -> float:
    """Plateau contribution to J_{4 pi} of counterexample(n), exactly."""
    r, _ = counterexample_scales(n)
    ln = math.log(n)
    return math.pi * r * r * (1.0 / math.sqrt(ln) - 1.0 / _sq(n))


def _cap_args(k, r) -> tuple:
    """(t_support, k) of cap(k, r); shared by the builder and its closed form."""
    k = float(k)
    if not (k >= 1.0 and math.isfinite(k)):
        raise ValueError("k must be >= 1")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError("r must be positive")
    t = math.pi * r * r
    # pi r^2 can overflow or underflow: refuse it as RadialProfile would
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t_support must be positive and finite")
    return t, k


def cap(k: float, r: float) -> RadialProfile:
    """Normalized cap: rise s/sqrt(k) (times 1/sqrt(4 pi)) then plateau.

    k may be any real >= 1, the formulas are analytic in it.  Support is
    pi r^2 and the Dirichlet energy is 1 for every (k, r).
    """
    return _cap(*_cap_args(k, r))


def cap_l2_sq(k, r=1.0) -> float:
    return _cap_l2_sq(*_cap_args(k, r))


def zygmund_optimal(k: float) -> RadialProfile:
    """cap(k, 1): the family driving the window quasi-norm ratio to 1."""
    return cap(k, 1.0)


def _alvino_args(t_support, delta) -> tuple:
    """(t_support, k) of alvino_extremal; shared by the builder and its closed form."""
    t = float(t_support)
    d = float(delta)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("t_support must be positive")
    if not (d > 1.0 and math.isfinite(d)):
        raise ValueError("delta must exceed 1")
    return t, 2.0 * math.log(d)


def alvino_extremal(t_support: float, delta: float) -> RadialProfile:
    """Truncated-logarithm profile attaining the window ratio 1/sqrt(4 pi).

    Rises linearly over s in [0, 2 log delta] to sqrt(log delta / (2 pi))
    with unit Dirichlet energy, on prescribed support measure.
    """
    return _cap(*_alvino_args(t_support, delta))


def alvino_l2_sq(t_support, delta) -> float:
    return _cap_l2_sq(*_alvino_args(t_support, delta))


def modified_moser(n: int) -> RadialProfile:
    """moser(n) shrunk by (1 - ||w_n||_2): feasible for the sum-norm ball."""
    w = moser(n)
    a = math.sqrt(l2_norm_sq(w))
    return scale_amplitude(w, 1.0 - a)


def modified_moser_norms(n) -> dict:
    """Closed-form norms of modified_moser(n); sum_norm = 1 - a^2 <= 1."""
    a = math.sqrt(moser_l2_sq(n))
    return {
        "dirichlet_sq": (1.0 - a) ** 2,
        "l2_sq": (1.0 - a) ** 2 * a * a,
        "sum_norm": 1.0 - a * a,
    }


def _counterexample_norms(n):
    _, lam = counterexample_scales(n)
    return lam * lam, counterexample_l2_sq(n)


def _modified_moser_norms(n):
    norms = modified_moser_norms(n)
    return norms["dirichlet_sq"], norms["l2_sq"]


class Family(NamedTuple):
    # params: (name, CLI flag, CLI default or None if required) in argument
    # order; norms(*args) is (dirichlet_sq, l2_sq)
    builder: Callable
    params: tuple
    norms: Callable


_N = (("n", "n", None),)
_K = ("k", "k", None)

FAMILIES = {
    "moser": Family(moser, _N, lambda n: (1.0, moser_l2_sq(n))),
    "counterexample": Family(counterexample, _N, _counterexample_norms),
    "modified-moser": Family(modified_moser, _N, _modified_moser_norms),
    "cap": Family(cap, (_K, ("r", "R", 1.0)), lambda k, r: (1.0, cap_l2_sq(k, r))),
    "zygmund": Family(zygmund_optimal, (_K,), lambda k: (1.0, cap_l2_sq(k))),
    "alvino": Family(
        alvino_extremal,
        (("t_support", "T", None), ("delta", "delta", None)),
        lambda t, d: (1.0, alvino_l2_sq(t, d)),
    ),
}


@dataclass(frozen=True)
class SequenceSpec:
    """A family name plus parameters, with its oracle table attached."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        names = [name for name, _, _ in FAMILIES[self.family].params]
        missing = [a for a in names if a not in self.params]
        if missing:
            raise ValueError("family %s needs parameters %s" % (self.family, missing))

    def _args(self) -> list:
        return [self.params[name] for name, _, _ in FAMILIES[self.family].params]

    def build(self) -> RadialProfile:
        return FAMILIES[self.family].builder(*self._args())

    def oracle_values(self) -> dict:
        """Quantity -> exact closed-form value for this family member."""
        dirichlet_sq, l2_sq = FAMILIES[self.family].norms(*self._args())
        return {"dirichlet_sq": dirichlet_sq, "l2_sq": l2_sq}


def oracle_rows():
    """Default (spec, quantity, oracle) grid for the oracle suite."""
    specs = []
    for n in (10, 100, 10**4, 10**6):
        specs.append(SequenceSpec("moser", {"n": n}))
        specs.append(SequenceSpec("counterexample", {"n": n}))
        specs.append(SequenceSpec("modified-moser", {"n": n}))
    for k in (1.0, 4.0, 16.0, 64.0):
        specs.append(SequenceSpec("cap", {"k": k, "r": 2.0}))
        specs.append(SequenceSpec("zygmund", {"k": k}))
    for t in (math.pi, 10.0):
        for d in (math.e, math.exp(4.0)):
            specs.append(SequenceSpec("alvino", {"t_support": t, "delta": d}))
    return specs
