"""Constrained maximization of the exponential functional over profiles.

Derivative-free projected coordinate ascent: moves perturb the support
measure, global amplitude, global s-stretch, and individual knots; after
every move the iterate is pushed back into the rearranged cone (isotonic
regression on values) and onto the active norm budget (multiplicative
amplitude rescale).  Restarts come from the named extremal families plus
near-vanishing flat profiles, so the search never reports less than the
best closed-form start.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .inequalities import remainder_functional
from .profile import (
    RadialProfile,
    _dirichlet_sq,
    _l2_sq,
    dirichlet_norm_sq,
    l2_norm_sq,
    scale_amplitude,
    scale_dilate,
    tm_functional,
)
from .quadrature import profile_exp_integral
from .sequences import alvino_extremal, cap, counterexample, counterexample_j_lower_bound

__all__ = [
    "ConstraintSet",
    "OptimizationResult",
    "family_starts",
    "maximize",
    "blowup_scan",
    "vanishing_probe",
]

_4PI = 4.0 * math.pi
_KINDS = ("reduced", "ruf", "norm_sum")


@dataclass(frozen=True)
class ConstraintSet:
    """Which norm budget applies.

    reduced: ||grad u||_2 <= 1 - delta and ||u||_2 <= K
    ruf:     ||grad u||_2^2 + tau ||u||_2^2 <= 1
    norm_sum: ||grad u||_2 + ||u||_2 <= 1
    """

    kind: str
    delta: float = 0.0
    K: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %s" % (_KINDS,))
        if self.kind == "reduced":
            if not (0.0 <= self.delta < 1.0):
                raise ValueError("delta must lie in [0, 1)")
            if not self.K > 0.0:
                raise ValueError("K must be positive")
        if self.kind == "ruf" and not self.tau > 0.0:
            raise ValueError("tau must be positive")

    def residual(self, p: RadialProfile) -> float:
        """Largest constraint violation; <= 0 means feasible."""
        d = math.sqrt(dirichlet_norm_sq(p))
        l = math.sqrt(l2_norm_sq(p))
        if self.kind == "reduced":
            return max(d - (1.0 - self.delta), l - self.K)
        if self.kind == "ruf":
            return d * d + self.tau * l * l - 1.0
        return d + l - 1.0

    def feasible(self, p: RadialProfile, tol: float = 1e-9) -> bool:
        return self.residual(p) <= tol

    def amplitude_cap(self, dir_sq: float, l2_sq: float) -> float:
        """Largest a <= 1 keeping (a^2 dir_sq, a^2 l2_sq) inside the budget."""
        a = 1.0
        if self.kind == "reduced":
            if dir_sq > 0.0:
                a = min(a, (1.0 - self.delta) / math.sqrt(dir_sq))
            if l2_sq > 0.0:
                a = min(a, self.K / math.sqrt(l2_sq))
            return a
        if self.kind == "ruf":
            q = dir_sq + self.tau * l2_sq
            return min(a, 1.0 / math.sqrt(q)) if q > 0.0 else a
        r = math.sqrt(dir_sq) + math.sqrt(l2_sq)
        return min(a, 1.0 / r) if r > 0.0 else a

    def vanishing_level_value(self, beta: float) -> float:
        """beta K_max^2 for the largest L2 mass the budget admits."""
        if self.kind == "reduced":
            return beta * self.K * self.K
        if self.kind == "ruf":
            return beta / self.tau
        return beta


@dataclass(frozen=True)
class OptimizationResult:
    best_profile: RadialProfile
    best_value: float
    vanishing_level_value: float
    feasibility_residuals: dict
    objective_trace: tuple
    seed: int
    wall_time: float
    n_evaluations: int

    def to_dict(self) -> dict:
        return {
            "best_profile": self.best_profile.to_dict(),
            "best_value": self.best_value,
            "vanishing_level_value": self.vanishing_level_value,
            "feasibility_residuals": dict(self.feasibility_residuals),
            "objective_trace": list(self.objective_trace),
            "seed": self.seed,
            "wall_time": self.wall_time,
            "n_evaluations": self.n_evaluations,
        }


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators with unit weights: nondecreasing output."""
    if (y[1:] >= y[:-1]).all():
        return y.astype(float)
    vals = []
    counts = []
    for x in y.tolist():
        vals.append(x)
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            c = counts.pop()
            t = vals.pop()
            vals[-1] = (vals[-1] * counts[-1] + t * c) / (counts[-1] + c)
            counts[-1] += c
    return np.repeat(vals, counts)


def _project(c: ConstraintSet, t: float, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    v = _isotonic(v)
    np.maximum(v, 0.0, out=v)
    v[0] = 0.0
    ds, dv = s[1:] - s[:-1], v[1:] - v[:-1]
    a = c.amplitude_cap(_dirichlet_sq(v, ds, dv), _l2_sq(t, s, v, ds, dv))
    if a < 1.0:
        v = v * a
    return v


def _resample(p: RadialProfile, n_knots: int):
    s_last = float(p.s[-1]) if p.s[-1] > 0.0 else 1.0
    grid = np.linspace(0.0, s_last, n_knots)
    vals = np.interp(grid, p.s, p.v)
    vals[0] = 0.0
    return p.t_support, grid, vals


def _plateau_start(c: ConstraintSet, h: float) -> RadialProfile:
    # near-vanishing seed: low ramp to height h, support sized so the L2
    # mass fills the budget left by the gradient term
    unit = RadialProfile(1.0, [0.0, 1.0], [0.0, h])
    dir_sq = _4PI * h * h
    if c.kind == "reduced":
        l2_target = c.K * c.K
    elif c.kind == "ruf":
        l2_target = max(1.0 - dir_sq, 0.01) / c.tau
    else:
        l2_target = max(1.0 - math.sqrt(dir_sq), 0.05) ** 2
    t = l2_target / l2_norm_sq(unit)
    return RadialProfile(t, [0.0, 1.0], [0.0, h])


def family_starts(constraint: ConstraintSet):
    """Labeled seed profiles: caps, truncated logs, near-vanishing ramps."""
    out = []
    for k in (1.0, 2.0, 4.0, 8.0, 16.0):
        for r in (0.5, 2.0, 8.0):
            out.append(("cap_k%g_r%g" % (k, r), cap(k, r)))
    for t in (1.0, math.pi, 10.0, 50.0):
        for d in (math.e, math.e**2):
            out.append(("alvino_T%.3g_d%.3g" % (t, d), alvino_extremal(t, d)))
    for h in (0.3, 0.1, 0.03, 0.01):
        out.append(("plateau_h%g" % h, _plateau_start(constraint, h)))
    return out


def maximize(
    constraint: ConstraintSet,
    beta: float,
    n_knots: int = 32,
    budget: int = 100_000,
    seed: int = 0,
) -> OptimizationResult:
    """Deterministic multi-start ascent under the given budget.

    The reported best value is a fresh evaluation of the incumbent at
    tolerance 1e-8; the search itself runs at a hotter tolerance.  For the
    reduced constraint the critical exponent 4 pi/(1-delta)^2 is rejected,
    where the supremum is infinite.
    """
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if constraint.kind == "reduced":
        crit = _4PI / (1.0 - constraint.delta) ** 2
        if beta >= crit:
            raise ValueError(
                "supremum is infinite for beta >= 4 pi/(1-delta)^2 = %.6g" % crit
            )
    if n_knots < 4:
        raise ValueError("n_knots must be >= 4")
    if budget < 1:
        raise ValueError("budget must be positive")
    t_start = time.perf_counter()
    rng = np.random.default_rng(seed)
    hot_tol = 1e-6
    evals = 0
    trace = []

    def evaluate(t, s, v, tol):
        nonlocal evals
        evals += 1
        if v[-1] <= 0.0:
            return 0.0
        value, _ = profile_exp_integral(t, s, v, beta, tol, kind="expm1")
        return value

    states = []
    for label, prof in family_starts(constraint):
        if evals >= budget:
            break
        t, s, v = _resample(prof, n_knots)
        v = _project(constraint, t, s, v)
        states.append([evaluate(t, s, v, hot_tol), t, s, v, label])
    states.sort(key=lambda st: st[0], reverse=True)
    best_j = states[0][0]
    trace.append(best_j)

    n = n_knots
    n_moves = 6 + 2 * (n - 1) + 2 * (n - 1)

    def ascend(state, stop_evals):
        nonlocal best_j
        j, t, s, v = state[0], state[1], state[2].copy(), state[3].copy()
        steps = np.full(n_moves, 0.3)
        gap_floor = 1e-9 * (1.0 + float(s[-1]))
        while evals < stop_evals and evals < budget:
            for k in rng.permutation(n_moves):
                if evals >= stop_evals or evals >= budget:
                    break
                h = steps[k]
                t2, s2, v2 = t, s, v
                if k == 0:
                    t2 = t * math.exp(h)
                elif k == 1:
                    t2 = t * math.exp(-h)
                elif k == 2:
                    v2 = v * math.exp(h)
                elif k == 3:
                    v2 = v * math.exp(-h)
                elif k == 4:
                    s2 = s * math.exp(h)
                elif k == 5:
                    s2 = s * math.exp(-h)
                elif k < 6 + 2 * (n - 1):
                    i = 1 + (k - 6) // 2
                    sign = 1.0 if (k - 6) % 2 == 0 else -1.0
                    scale = max(float(v[-1]), 1e-3)
                    v2 = v.copy()
                    v2[i] = max(v2[i] + sign * h * scale, 0.0)
                else:
                    k2 = k - 6 - 2 * (n - 1)
                    i = 1 + k2 // 2
                    sign = 1.0 if k2 % 2 == 0 else -1.0
                    width = max(float(s[-1]) / n, 1e-6)
                    cand = float(s[i]) + sign * h * width
                    lo = float(s[i - 1]) + gap_floor
                    hi = float(s[i + 1]) - gap_floor if i + 1 < n else math.inf
                    cand = min(max(cand, lo), hi)
                    if cand == s[i] or not lo <= cand <= hi:
                        steps[k] = max(steps[k] * 0.5, 1e-7)
                        continue
                    s2 = s.copy()
                    s2[i] = cand
                v2p = _project(constraint, t2, s2, v2)
                j2 = evaluate(t2, s2, v2p, hot_tol)
                if j2 > j:
                    j, t, s, v = j2, t2, s2, v2p
                    steps[k] = min(steps[k] * 2.0, 2.0)
                    if j > best_j:
                        best_j = j
                        trace.append(j)
                else:
                    steps[k] = max(steps[k] * 0.5, 1e-7)
        state[0], state[1] = j, t
        state[2], state[3] = s, v
        return state

    if states and budget > evals:
        share = max((budget - evals) // (2 * len(states)), n_moves)
        for st in states:
            if evals >= budget:
                break
            ascend(st, min(evals + share, budget))
        states.sort(key=lambda st: st[0], reverse=True)
        top = states[: min(3, len(states))]
        while evals < budget:
            before = evals
            share = max((budget - evals) // len(top), 1)
            for st in top:
                if evals >= budget:
                    break
                ascend(st, min(evals + share, budget))
            if evals == before:
                break
        states.sort(key=lambda st: st[0], reverse=True)

    _, t, s, v, label = states[0]
    best_profile = RadialProfile(t, s, v)
    report = tm_functional(best_profile, beta, 1e-8)
    result_value = report.j_beta
    trace.append(max(result_value, trace[-1]))
    residual = constraint.residual(best_profile)
    return OptimizationResult(
        best_profile=best_profile,
        best_value=result_value,
        vanishing_level_value=constraint.vanishing_level_value(beta),
        feasibility_residuals={
            "constraint": residual,
            "dirichlet_sq": report.dirichlet_sq,
            "l2_sq": report.l2_sq,
            "start": label,
        },
        objective_trace=tuple(trace),
        seed=int(seed),
        wall_time=time.perf_counter() - t_start,
        n_evaluations=evals,
    )


def blowup_scan(delta: float, big_k: float, beta_grid, n_grid, tol: float = 1e-8):
    """Functional values of the rescaled counterexample family on a grid.

    Rows carry (beta, n, j_beta, lower_bound): the amplitude shrinks by
    1 - delta, a dilation restores the L2 budget when needed, and the
    bound column is the exact plateau lower bound transported through the
    same dilation.  At the critical exponent 4 pi/(1-delta)^2 the j column
    dominates the bound and is unbounded in n, but it only grows past
    n ~ 10^23.7, where the bound pi sqrt(L)/log^2 L (L = log n) turns; on
    a grid such as 10^3..10^6 both columns decrease.  Strictly below the
    critical exponent the j column stays uniformly small.
    """
    delta = float(delta)
    big_k = float(big_k)
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if not big_k > 0.0:
        raise ValueError("K must be positive")
    beta_grid = [float(b) for b in beta_grid]
    n_grid = [int(n) for n in n_grid]
    if not beta_grid or not n_grid:
        raise ValueError("grids must be nonempty")
    rows = []
    for beta in beta_grid:
        for n in n_grid:
            u = scale_amplitude(counterexample(n), 1.0 - delta)
            dil = max(1.0, math.sqrt(l2_norm_sq(u)) / big_k)
            u = scale_dilate(u, dil)
            j = tm_functional(u, beta, tol).j_beta
            bound = counterexample_j_lower_bound(n) / (dil * dil)
            rows.append({"beta": beta, "n": n, "j_beta": j, "lower_bound": bound})
    return rows


def vanishing_probe(constraint: ConstraintSet, beta: float, lam_grid, tol: float = 1e-10):
    """J along the vanishing family u_lam(x) = lam phi(lam x), lam <= 1.

    phi is a fixed feasible bump with ||phi||_2 exactly at the L2 budget,
    so J(lam) - beta K^2 equals the superquadratic remainder, which decays
    to zero with lam.  Returns {"level": beta K^2, "rows": [...]}.
    """
    if constraint.kind != "reduced":
        raise ValueError("the vanishing probe is defined for the reduced constraint")
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    lams = [float(x) for x in lam_grid]
    if not lams or any(not (0.0 < x <= 1.0) for x in lams):
        raise ValueError("lambda grid entries must lie in (0, 1]")
    amp = 1.0 - constraint.delta
    base = cap(1.0, 1.0)
    b = amp * math.sqrt(l2_norm_sq(base)) / constraint.K
    phi = scale_dilate(scale_amplitude(base, amp), b)
    level = constraint.vanishing_level_value(beta)
    rows = []
    for lam in lams:
        u = scale_amplitude(scale_dilate(phi, lam), lam)
        j = tm_functional(u, beta, tol).j_beta
        rows.append(
            {
                "lam": lam,
                "j_beta": j,
                "gap": j - level,
                "remainder": remainder_functional(u, beta, tol),
            }
        )
    return {"level": level, "rows": rows}
