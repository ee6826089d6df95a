"""Both sides of every profile inequality, with exact inner suprema.

Window ratios like (u*(t) - u*(T)) / sqrt(log(T/t)) restrict to each
linear piece of the profile as (A + m sig)/sqrt(sig) in sig = log(T/t),
whose extrema are available in closed form, so equality cases come out
exact instead of grid-limited.  Every "holds" verdict, the CLI's
included, comes from InequalityReport.from_sides, the one place that
states how much quadrature noise it allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import (
    RadialProfile,
    dirichlet_norm_sq,
    l2_norm_sq,
    tm_functional,
)
from .quadrature import profile_exp_integral

__all__ = [
    "InequalityReport",
    "alvino_ratio_sup",
    "zygmund_quasinorm",
    "check_limine",
    "adachi_ratio",
    "at_constant_eps",
    "best_eps",
    "at_quadratic_bound",
    "remainder_functional",
    "zcharact_bound",
]

_4PI = 4.0 * math.pi
_HOLDS_TOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    slack: float
    holds: bool
    witness: object = None

    def to_dict(self) -> dict:
        w = self.witness
        if isinstance(w, tuple):
            w = list(w)
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            "witness": w,
        }

    @classmethod
    def from_sides(cls, lhs: float, rhs: float, witness=None) -> "InequalityReport":
        """Verdict on lhs <= rhs, allowing slack >= -1e-9 max(1, |rhs|)."""
        if math.isinf(rhs):
            slack, holds = (0.0 if math.isinf(lhs) else math.inf), True
        elif math.isinf(lhs):
            slack, holds = -math.inf, False
        else:
            slack = rhs - lhs
            holds = bool(slack >= -_HOLDS_TOL * max(1.0, abs(rhs)))
        return cls(lhs, rhs, slack, holds, witness)


def _window_pieces(p: RadialProfile, t_win: float):
    """Pieces of u* inside the window (0, t_win] in sig = log(t_win/t) > 0.

    Yields ("lin", sig_l, sig_r, u_l, slope) for linear or constant runs
    and ("jump", sig, upper_value) for jumps, including the materialized
    edge jump at the support boundary when the window covers it.
    """
    s, v = p.s, p.v
    c = math.log(t_win / p.t_support)
    pieces = []
    if c >= 0.0 and v[0] > 0.0:
        pieces.append(("jump", c, float(v[0])))
    for i in range(s.size - 1):
        sl, sr = float(s[i]) + c, float(s[i + 1]) + c
        if sr < 0.0:
            continue
        if s[i + 1] == s[i]:
            pieces.append(("jump", sl, float(v[i + 1])))
            continue
        m = (v[i + 1] - v[i]) / (s[i + 1] - s[i])
        ul = float(v[i])
        if sl < 0.0:
            ul += m * (0.0 - sl)
            sl = 0.0
        pieces.append(("lin", sl, sr, ul, m))
    sl = float(s[-1]) + c
    pieces.append(("lin", max(sl, 0.0), math.inf, float(v[-1]), 0.0))
    return pieces


def alvino_ratio_sup(p: RadialProfile, t_win: float) -> InequalityReport:
    """sup over (0, T] of (u*(t) - u*(T))/sqrt(log(T/t)) vs Dirichlet side.

    Exact per piece: for A + m sig over sqrt(sig) the supremum sits at an
    interval endpoint, and jumps contribute their upper value.  A jump at
    the window edge itself sends the ratio to infinity, matching the
    infinite Dirichlet seminorm of step profiles.
    """
    t_win = float(t_win)
    if not (t_win > 0.0 and math.isfinite(t_win)):
        raise ValueError("window measure must be positive and finite")
    rhs = math.sqrt(dirichlet_norm_sq(p) / _4PI)
    u_t = 0.0 if t_win >= p.t_support else p.value_at(t_win)
    best = 0.0
    best_sig = 0.0
    infinite = False

    def consider(sig, numer):
        nonlocal best, best_sig, infinite
        if numer <= 0.0:
            return
        if sig <= 0.0:
            # only jumps reach here: continuous pieces tend to ratio 0 at
            # the window edge and their sig = 0 candidates are skipped
            infinite = True
            return
        val = numer / math.sqrt(sig)
        if val > best:
            best, best_sig = val, sig

    for piece in _window_pieces(p, t_win):
        if piece[0] == "jump":
            _, sig, upper = piece
            if sig >= 0.0:
                consider(sig, upper - u_t)
        else:
            _, sl, sr, ul, m = piece
            if sl > 0.0:
                consider(sl, ul - u_t)
            if math.isfinite(sr) and sr > 0.0:
                consider(sr, ul + m * (sr - sl) - u_t)
    if infinite:
        return InequalityReport.from_sides(math.inf, rhs, t_win)
    return InequalityReport.from_sides(best, rhs, t_win * math.exp(-best_sig))


def zygmund_quasinorm(p: RadialProfile):
    """sup over windows T and t in (0, T] of u*(t)/sqrt(4 pi/T + log(T/t)).

    The outer supremum is solved first: for fixed t the window cost
    4 pi/T + log(T/t) is minimized at T = max(4 pi, t), leaving a single
    supremum over s with weight h(t) = 1 + log(4 pi/t) for t <= 4 pi and
    4 pi/t beyond.  Returns (value, (T_witness, t_witness)).
    """
    t_sup = p.t_support
    s_c = math.log(t_sup / _4PI)
    cc = 1.0 - s_c
    best = 0.0
    best_s = 0.0

    def g1(s, u):
        return u / math.sqrt(cc + s)

    def g2(s, u):
        return u * math.exp(-0.5 * s) * math.sqrt(t_sup / _4PI)

    def consider(s, u):
        nonlocal best, best_s
        val = g1(s, u) if s >= s_c else g2(s, u)
        if val > best:
            best, best_s = val, s

    s, v = p.s, p.v
    for i in range(s.size - 1):
        sl, sr = float(s[i]), float(s[i + 1])
        if sr == sl:
            consider(sl, float(v[i + 1]))
            continue
        m = (v[i + 1] - v[i]) / (sr - sl)
        a = float(v[i]) - m * sl
        consider(sl, float(v[i]))
        consider(sr, float(v[i + 1]))
        if sl < s_c < sr:
            # regime boundary splits the piece; both weights agree there
            consider(s_c, a + m * s_c)
        if m > 0.0 and s_c > sl:
            # interior maximum of (a + m s) e^{-s/2} in the small-window regime
            st = 2.0 - a / m
            if sl < st < min(sr, s_c):
                consider(st, a + m * st)
    consider(max(float(s[-1]), 0.0), float(v[-1]))
    if s_c > s[-1]:
        consider(s_c, float(v[-1]))
    t_best = t_sup * math.exp(-best_s)
    return best, (max(_4PI, t_best), t_best)


def check_limine(p: RadialProfile) -> InequalityReport:
    """Window quasi-norm against sqrt((dirichlet_sq + l2_sq)/(4 pi))."""
    lhs, witness = zygmund_quasinorm(p)
    sob = dirichlet_norm_sq(p) + l2_norm_sq(p)
    rhs = math.sqrt(sob / _4PI) if math.isfinite(sob) else math.inf
    return InequalityReport.from_sides(lhs, rhs, witness)


def adachi_ratio(p: RadialProfile, beta: float, tol: float = 1e-10) -> float:
    """J_beta(u) / ||u||_2^2 for Dirichlet-feasible nonzero profiles."""
    beta = float(beta)
    if not (0.0 < beta < _4PI):
        raise ValueError("beta must lie in (0, 4 pi)")
    if p.is_zero:
        raise ValueError("ratio undefined for the zero profile")
    if not dirichlet_norm_sq(p) <= 1.0 + 1e-12:
        raise ValueError("profile must satisfy the unit Dirichlet bound")
    return tm_functional(p, beta, tol).j_beta / l2_norm_sq(p)


def best_eps(beta: float) -> float:
    beta = float(beta)
    if not (0.0 < beta < _4PI):
        raise ValueError("beta must lie in (0, 4 pi)")
    return 1.0 - beta / _4PI


def at_constant_eps(beta: float, eps: float) -> float:
    """Explicit subcritical constant 4 pi e^b max(b, e^{b/eps}/(1-b(1+eps))).

    b = beta/(4 pi); admissible eps range is (0, (1-b)/b), and
    best_eps(beta) = 1 - b sits strictly inside it.
    """
    beta = float(beta)
    eps = float(eps)
    b = beta / _4PI
    if not (0.0 < b < 1.0):
        raise ValueError("beta must lie in (0, 4 pi)")
    if not (0.0 < eps < (1.0 - b) / b):
        raise ValueError("eps must lie in (0, 4 pi/beta - 1)")
    return _4PI * math.exp(b) * max(b, math.exp(b / eps) / (1.0 - b * (1.0 + eps)))


def at_quadratic_bound(beta: float) -> float:
    """16 e^{4 pi} (1 + 4 pi) / (1 - beta/4 pi)^2, the explicit quadratic bound."""
    beta = float(beta)
    b = beta / _4PI
    if not (0.0 < b < 1.0):
        raise ValueError("beta must lie in (0, 4 pi)")
    return 16.0 * math.exp(_4PI) * (1.0 + _4PI) / (1.0 - b) ** 2


def remainder_functional(p: RadialProfile, beta: float, tol: float = 1e-10) -> float:
    """Integral of e^{beta u^2} - 1 - beta u^2: the superquadratic part of J."""
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if not (0.0 < tol <= 1e-6):
        raise ValueError("tol must lie in (0, 1e-6]")
    if p.is_zero:
        return 0.0
    value, _ = profile_exp_integral(p.t_support, p.s, p.v, beta, tol, kind="remainder")
    return value


def zcharact_bound(p: RadialProfile, lam: float, tol: float = 1e-10) -> float:
    """(1/sqrt(lam)) max(1, sqrt(J_lam(u)/4 pi)): dominates the quasi-norm."""
    lam = float(lam)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    k_val = tm_functional(p, lam, tol).j_beta
    return max(1.0, math.sqrt(k_val / _4PI)) / math.sqrt(lam)
