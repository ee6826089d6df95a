"""Distribution functions and decreasing rearrangements of sampled data.

Bridges weighted samples (cell value, cell area) to exact step profiles.
Sorting cells by value descending gives the rearrangement directly; ties
merge into a single step so the result is canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import RadialProfile, _float, _floats, _positive
from .quadrature import segment_moments

__all__ = [
    "WeightedSamples",
    "distribution",
    "decreasing_rearrangement",
    "profile_distribution",
    "maximal_function",
]


@dataclass(frozen=True)
class WeightedSamples:
    """Nonnegative cell values with positive cell areas."""

    values: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        values = _floats(self.values)
        areas = _floats(self.areas)
        if values.ndim != 1 or values.shape != areas.shape or values.size == 0:
            raise ValueError("values and areas must be equal-length 1-d and nonempty")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(areas))):
            raise ValueError("samples must be finite")
        if np.any(values < 0.0):
            raise ValueError("values must be nonnegative")
        if np.any(areas <= 0.0):
            raise ValueError("areas must be positive")
        if not math.isfinite(float(areas.sum())):
            raise ValueError("total area must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "areas", areas)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())


def distribution(w: WeightedSamples, level: float) -> float:
    """Measure of {value > level}; nonincreasing and right-continuous."""
    level = _float(level)
    if not level >= 0.0:
        raise ValueError("level must be nonnegative")
    return float(w.areas[w.values > level].sum())


def decreasing_rearrangement(w: WeightedSamples) -> RadialProfile:
    """Exact step profile equimeasurable with the samples.

    Steps are encoded as jump knots (repeated s).  The all-zero input maps
    to the zero profile on the total area.
    """
    pos = w.values > 0.0
    if not np.any(pos):
        return RadialProfile.zero(w.total_area)
    vals = w.values[pos]
    areas = w.areas[pos]
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    areas = areas[order]
    # merge ties: one step per distinct value
    first = np.ones(vals.size, dtype=bool)
    first[1:] = vals[1:] != vals[:-1]
    steps = vals[first]
    cum = np.cumsum(areas)
    bounds = np.append(cum[np.nonzero(first)[0][1:] - 1], cum[-1])
    t_sup = float(cum[-1])
    # knots from the support edge inward: jump to the smallest step, then
    # one jump per level change at sigma_j = log(T / A_j); math.log, not
    # np.log, whose last bit differs from libm on some inputs
    sig = list(map(math.log, (t_sup / bounds[-2::-1]).tolist()))
    s = np.repeat([0.0] + sig, 2)
    v = np.append(0.0, np.repeat(steps[::-1], 2)[:-1])
    return RadialProfile(t_sup, s, v)


def profile_distribution(p: RadialProfile, level: float) -> float:
    """Measure of {u* > level} for a profile, exact per segment."""
    level = _float(level)
    if not level >= 0.0:
        raise ValueError("level must be nonnegative")
    s, v = p.s, p.v
    if level >= v[-1]:
        return 0.0
    if level < v[0]:
        return p.t_support
    # first knot strictly above the level; the crossing sits on the piece
    # ending there (linear solve) or at the jump itself
    k = int(np.searchsorted(v, level, side="right"))
    if s[k] == s[k - 1]:
        cross = s[k]
    else:
        m = (v[k] - v[k - 1]) / (s[k] - s[k - 1])
        cross = s[k - 1] + (level - v[k - 1]) / m
    return p.t_support * math.exp(-cross)


def _l1_tail(p: RadialProfile, s0: float) -> float:
    # T int_{s0}^inf U(s) e^{-s} ds with s0 >= 0, exact per segment
    s, v = p.s, p.v
    ds = np.diff(s)
    seg = (s[1:] > s0) & (ds > 0.0)
    acc = 0.0
    if seg.any():
        a = np.maximum(s[:-1][seg], s0)
        m = np.diff(v)[seg] / ds[seg]
        va = v[:-1][seg] + m * (a - s[:-1][seg])
        # int_0^L (va + m x) e^{-x} dx = va M_0 + m M_1
        m0, m1 = segment_moments(s[1:][seg] - a, 1)
        acc = float(np.sum(np.exp(-a) * (va * m0 + m * m1)))
    acc += float(v[-1]) * math.exp(-max(float(s[-1]), s0))
    return p.t_support * acc


def maximal_function(p: RadialProfile, t: float) -> float:
    """u**(t) = (1/t) int_0^t u*(r) dr, exact piecewise integration."""
    t = _positive(t, "t")
    s0 = math.log(p.t_support / t) if t < p.t_support else 0.0
    return _l1_tail(p, s0) / t
