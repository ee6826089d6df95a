"""Both sides of every profile inequality, with exact inner suprema.

The window suprema of alvino_ratio_sup and zygmund_quasinorm are maxima
over candidate arrays built from the knots in one pass.  On a linear piece
each ratio is a closed-form function of s with no interior maximum, or one
at a known point, so the knots and those points are all the candidates and
equality cases come out exact instead of grid-limited.  Every "holds"
verdict, the CLI's included, comes from InequalityReport.from_sides, the
one place that states how much quadrature noise it allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import (
    RadialProfile,
    _float,
    _positive,
    _subcritical,
    _tol,
    dirichlet_norm_sq,
    l2_norm_sq,
    tm_functional,
)
from .quadrature import _exp_integral

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


def alvino_ratio_sup(p: RadialProfile, t_win: float) -> InequalityReport:
    """sup over (0, T] of (u*(t) - u*(T))/sqrt(log(T/t)) vs Dirichlet side.

    In sig = log(T/t) a linear piece gives (A + m sig)/sqrt(sig), whose
    derivative (m sig - A)/(2 sig^{3/2}) changes sign only from - to +, so
    the supremum sits at a knot with sig > 0; a jump's upper value is a
    knot too.  T sits at s = log(T_sup/T), where value_at puts it.  A jump
    on the window edge (sig = 0) with a positive numerator sends the ratio
    to infinity, matching the infinite Dirichlet seminorm of step profiles.
    The witness is the measure t of the first maximizing knot, or T when
    no numerator inside the window is positive.
    """
    t_win = _positive(t_win, "window measure")
    rhs = math.sqrt(dirichlet_norm_sq(p) / _4PI)
    u_t = 0.0 if t_win >= p.t_support else p.value_at(t_win)
    s, v = p.s, p.v
    # T at s = log(T_sup/T), as value_at places it: a window ending at a
    # jump's stored measure has that jump at sig = 0 exactly
    sig = s - math.log(p.t_support / t_win)
    numer = v - u_t
    # knot 0 carries the support-edge jump when v_0 > 0
    jump = np.append(v[0] > 0.0, s[1:] == s[:-1])
    if (jump & (sig == 0.0) & (numer > 0.0)).any():
        return InequalityReport.from_sides(math.inf, rhs, t_win)
    inside = (sig > 0.0) & (numer > 0.0)
    ratio = np.where(inside, numer, 0.0) / np.sqrt(np.where(inside, sig, 1.0))
    k = int(np.argmax(ratio))
    sig_k = float(sig[k]) if ratio[k] > 0.0 else 0.0
    return InequalityReport.from_sides(float(ratio[k]), rhs, t_win * math.exp(-sig_k))


def zygmund_quasinorm(p: RadialProfile):
    """sup over windows T and t in (0, T] of u*(t)/sqrt(4 pi/T + log(T/t)).

    The outer supremum is solved first: for fixed t the window cost
    4 pi/T + log(T/t) is minimized at T = max(4 pi, t), leaving one
    supremum over s of U(s) times a weight, 1/sqrt(1 - s_c + s) for
    s >= s_c = log(T_sup/4 pi) and sqrt(T_sup/4 pi) e^{-s/2} below.  On a
    linear piece U/sqrt(1 - s_c + s) has only an interior minimum, and
    (a + m s) e^{-s/2} only an interior maximum, at s* = 2 - a/m, so the
    candidates are the knots, s_c and each rising piece's s* below s_c.
    Returns (value, (T_witness, t_witness)).
    """
    t_sup = p.t_support
    s_c = math.log(t_sup / _4PI)
    s, v = p.s, p.v
    # linear pieces, plus the terminal plateau as the piece (s_last, inf)
    lin = s[1:] > s[:-1]
    sl = np.append(s[:-1][lin], s[-1])
    sr = np.append(s[1:][lin], math.inf)
    vl = np.append(v[:-1][lin], v[-1])
    m = (np.append(v[1:][lin], v[-1]) - vl) / (sr - sl)
    a = vl - m * sl
    at_c = (sl < s_c) & (s_c < sr)
    rise = m > 0.0
    s_star = 2.0 - a[rise] / m[rise]
    peak = (sl[rise] < s_star) & (s_star < np.minimum(sr[rise], s_c))
    a_p, m_p, s_p = a[rise][peak], m[rise][peak], s_star[peak]
    cs = np.concatenate((s, np.full(np.count_nonzero(at_c), s_c), s_p))
    cu = np.concatenate((v, a[at_c] + m[at_c] * s_c, a_p + m_p * s_p))
    small = cs < s_c
    val = np.where(
        small,
        cu * np.exp(-0.5 * cs) * math.sqrt(t_sup / _4PI),
        cu / np.sqrt(np.where(small, 1.0, 1.0 - s_c + cs)),
    )
    k = int(np.argmax(val))
    t_best = t_sup * math.exp(-float(cs[k]))
    return float(val[k]), (max(_4PI, t_best), t_best)


def check_limine(p: RadialProfile) -> InequalityReport:
    """Window quasi-norm against sqrt((dirichlet_sq + l2_sq)/(4 pi))."""
    lhs, witness = zygmund_quasinorm(p)
    sob = dirichlet_norm_sq(p) + l2_norm_sq(p)
    rhs = math.sqrt(sob / _4PI) if math.isfinite(sob) else math.inf
    return InequalityReport.from_sides(lhs, rhs, witness)


def adachi_ratio(p: RadialProfile, beta: float, tol: float = 1e-10) -> float:
    """J_beta(u) / ||u||_2^2 for Dirichlet-feasible nonzero profiles."""
    _subcritical(beta)
    if p.is_zero:
        raise ValueError("ratio undefined for the zero profile")
    if not dirichlet_norm_sq(p) <= 1.0 + 1e-12:
        raise ValueError("profile must satisfy the unit Dirichlet bound")
    return tm_functional(p, beta, tol).j_beta / l2_norm_sq(p)


def best_eps(beta: float) -> float:
    return 1.0 - _subcritical(beta)


def at_constant_eps(beta: float, eps: float) -> float:
    """Explicit subcritical constant 4 pi e^b max(b, e^{b/eps}/(1-b(1+eps))).

    b = beta/(4 pi); admissible eps range is (0, (1-b)/b), and
    best_eps(beta) = 1 - b sits strictly inside it.
    """
    b = _subcritical(beta)
    eps = _float(eps)
    if not (0.0 < eps < (1.0 - b) / b):
        raise ValueError("eps must lie in (0, 4 pi/beta - 1)")
    return _4PI * math.exp(b) * max(b, math.exp(b / eps) / (1.0 - b * (1.0 + eps)))


def at_quadratic_bound(beta: float) -> float:
    """16 e^{4 pi} (1 + 4 pi) / (1 - beta/4 pi)^2, the explicit quadratic bound."""
    b = _subcritical(beta)
    return 16.0 * math.exp(_4PI) * (1.0 + _4PI) / (1.0 - b) ** 2


def remainder_functional(p: RadialProfile, beta: float, tol: float = 1e-10) -> float:
    """Integral of e^{beta u^2} - 1 - beta u^2: the superquadratic part of J.

    profile_exp_integral(..., kind="remainder")[0] bit for bit, or the
    ValueOverflowError it raises, without forming its error bound.  Where
    tm_functional takes J from the L2 norm (0 < v_end < 1e-150 and
    beta v_end^2 <= 2^-53) the remainder is at most about
    beta^2 T v_end^4 / 2.  On RadialProfile(1e300, [0, 1], [0, 1e-170]) at
    beta = 1, and on its 12-knot collinear refinement at 1e-160, that is
    below 1e-340, so the 0.0 returned there is the correctly rounded value.
    """
    beta = _positive(beta, "beta")
    tol = _tol(tol)
    if p.is_zero:
        return 0.0
    return _exp_integral(p.t_support, p.s, p.v, beta, tol, remainder=True, bounds=False)[0]


def zcharact_bound(p: RadialProfile, lam: float, tol: float = 1e-10) -> float:
    """(1/sqrt(lam)) max(1, sqrt(J_lam(u)/4 pi)): dominates the quasi-norm."""
    lam = _positive(lam, "lam")
    k_val = tm_functional(p, lam, tol).j_beta
    return max(1.0, math.sqrt(k_val / _4PI)) / math.sqrt(lam)
