"""Constrained maximization of the exponential functional over profiles.

Every constraint set caps the Dirichlet energy theta = ||grad u||_2^2 and
leaves the L2 mass the budget l2_budget(theta).  A dilation keeps theta and
scales the L2 mass and J_beta alike, so the search runs on the budget
boundary: an iterate is a shape on a fixed knot grid plus a share theta,
placed by isotonic regression, a rescale to energy theta and a closed-form
support measure.  Derivative-free coordinate ascent moves theta, stretches
s and moves single knots, from cap shapes at shares of the ceiling; in this
gauge every truncated logarithm is a cap shape.  Deterministic given the
seed.

Most moves fail, so the ascent speculates: it builds the next few moves of
its permutation from the incumbent, places and scores them as one stack,
and walks them in order.  The first acceptance discards the rest, which
were built from the old incumbent.  A stack costs about as much as a dozen
rows, so each batch is as long as the ascent's mean run of failed moves
per acceptance so far.  Each row is computed as it would be alone, so the
search is the one-move-at-a-time search, bit for bit, at any batch width.
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
    _positive,
    dirichlet_norm_sq,
    l2_norm_sq,
    scale_amplitude,
    scale_dilate,
    tm_functional,
)
from .quadrature import ValueOverflowError, _stack_values
from .sequences import cap, counterexample, counterexample_j_lower_bound

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
# ascend places and scores the next moves of its permutation as one stack:
# _BATCH_MIN of them at first and twice as many after each batch until a
# move is accepted, then its failed moves per acceptance so far; always
# from _BATCH_MIN to _BATCH_MAX
_BATCH_MIN, _BATCH_MAX = 4, 32


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
            # the L2 budget K^2 must be a positive binary64 number
            if not 0.0 < float(self.K) * float(self.K) < math.inf:
                raise ValueError("K must be positive with K^2 in binary64 range, not %r" % (self.K,))
        if self.kind == "ruf":
            if not self.tau > 0.0:
                raise ValueError("tau must be positive")
            # the L2 budget (1 - theta)/tau must be a positive binary64 number
            if not 0.0 < 1.0 / float(self.tau) < math.inf:
                raise ValueError("tau must be positive with 1/tau in binary64 range, not %r" % (self.tau,))

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

    def l2_budget(self, theta: float) -> float:
        """Largest ||u||_2^2 admitted beside ||grad u||_2^2 = theta, for theta
        up to the ceiling: (1 - delta)^2 for reduced, 1 (budget 0) otherwise."""
        if self.kind == "reduced":
            return self.K * self.K
        if self.kind == "ruf":
            return (1.0 - theta) / self.tau
        return (1.0 - math.sqrt(theta)) ** 2

    def vanishing_level_value(self, beta: float) -> float:
        """beta times the L2 mass admitted at zero energy: the vanishing level."""
        return beta * self.l2_budget(0.0)


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


def _pool(out: np.ndarray, i: int) -> None:
    """Pool the descent at i (out[i + 1] below out[i], or nan) of out in
    place, as one block grown from out[i + 1] by the merges of the
    pool-adjacent-violators scan: it pulls back every larger value before
    it, takes the next value after it while its mean exceeds that value,
    and repeats.  Each merge is the scan's (m k + x)/(k + 1), whose x * 1
    is exact and whose sum commutes, so where i is the only descent the
    block's mean has the full scan's bits.
    """
    x = out.tolist()
    lo = hi = i + 1
    m, k = x[lo], 1
    while True:
        if lo > 0 and x[lo - 1] > m:
            lo -= 1
            m = (m * k + x[lo]) / (k + 1)
        elif hi + 1 < len(x) and m > x[hi + 1]:
            hi += 1
            m = (m * k + x[hi]) / (k + 1)
        else:
            break
        k += 1
    out[lo : hi + 1] = m


def _ceiling(c: ConstraintSet) -> float:
    """Largest Dirichlet share theta the constraint set admits."""
    return (1.0 - c.delta) ** 2 if c.kind == "reduced" else 1.0


def _place(c: ConstraintSet, theta, s: np.ndarray, v: np.ndarray):
    """(t_support, v): the shape (s, v) in the rearranged cone at Dirichlet
    energy theta, with the support that makes ||u||_2^2 = l2_budget(theta).

    Shapes come as a stack: rows of s and v, one theta per row.  t_support
    is inf in the rows that place nothing: an empty budget, a zero shape or
    a support beyond binary64.  v is sorted by _pool at each descent, one
    block each, left to right in each row: a row with one descent, as a
    move leaves one, gets the full scan's bits, and any other row the
    isotonic regression to within rounding.
    """
    v = v.astype(float)
    rows, at = (~(v[:, 1:] >= v[:, :-1])).nonzero()
    for r, i in zip(rows.tolist(), at.tolist()):
        _pool(v[r], i)
    np.maximum(v, 0.0, out=v)
    v[:, 0] = 0.0
    ds = s[:, 1:] - s[:, :-1]
    ds_min = ds.min(axis=1, initial=math.inf)
    budget = [c.l2_budget(x) for x in theta.tolist()]
    d = _dirichlet_sq(v, ds, v[:, 1:] - v[:, :-1], ds_min)
    ok = (np.array(budget) > 0.0) & (d > 0.0)
    v *= np.sqrt(theta / np.where(ok, d, 1.0))[:, None]
    l2 = _l2_sq(1.0, s, v, ds, v[:, 1:] - v[:, :-1], ds_min)
    t = [b / x if x > 0.0 else math.inf for b, x in zip(budget, l2.tolist())]
    return np.where(ok, t, math.inf), v


def _starts(c: ConstraintSet, n_knots: int, count=None):
    """(labels, thetas, t, s, v) of the first count starts, each the cap ramp
    over s in [0, k] on n_knots knots at share theta, placed as one stack."""
    starts = [("cap_k%g_share%g" % (k, f), f * _ceiling(c), k)
              for k in (1.0, 2.0, 4.0, 8.0, 16.0) for f in (0.9, 0.3, 0.03, 0.001)][:count]
    labels, thetas, ks = zip(*starts)
    s = np.array([np.linspace(0.0, k, n_knots) for k in ks])
    t, v = _place(c, np.array(thetas), s, s)
    return labels, thetas, t, s, v


def family_starts(constraint: ConstraintSet):
    """Labeled start profiles: caps of length k in {1, 2, 4, 8, 16} at
    Dirichlet shares {0.9, 0.3, 0.03, 0.001} of the ceiling, on the budget
    boundary.  A truncated logarithm of any support and height is one of
    these shapes up to its length k, which the s-stretch move changes.
    """
    labels, _, t, s, v = _starts(constraint, 2)
    return [(label, RadialProfile(t_r, s_r, v_r))
            for label, t_r, s_r, v_r in zip(labels, t.tolist(), s, v)]


def maximize(
    constraint: ConstraintSet,
    beta: float,
    n_knots: int = 32,
    budget: int = 100_000,
    seed: int = 0,
) -> OptimizationResult:
    """Deterministic multi-start ascent under the given budget.

    An iterate is a shape on n_knots knots plus a Dirichlet share theta,
    evaluated where _place puts it, on the budget boundary.  Moves scale
    theta up to the ceiling, stretch s, and move single knot values and
    positions; a step doubles on success and halves otherwise.  The first
    g = min(20, budget) starts of family_starts are scored once; each then
    ascends in turn for max((budget - g) // (2 g), 4 n_knots) evaluations
    until the budget runs out, the best three share what is left, and
    exactly `budget` evaluations are spent.  So at budget 500 and 32 knots
    four starts ascend and the best three get nothing.  The incumbent's
    amplitude is shrunk by a few ulps where rounding left it outside the
    bound, so the returned profile has residual <= 0, and the reported best
    value is a fresh evaluation of it at tolerance 1e-8; the search runs at
    1e-6.
    For the reduced constraint the critical exponent 4 pi/(1-delta)^2 is
    rejected, where the supremum is infinite.

    The starts are placed and scored as one stack, and so are the moves, in
    speculative batches of _BATCH_MIN to _BATCH_MAX: a batch doubles until
    an ascent accepts a move, and then is as long as the ascent's failed
    moves per acceptance.  The result, the trace and the evaluation count
    are those of trying one move at a time.  An overflow raises
    ValueOverflowError only at a move the walk reaches.
    """
    beta = _positive(beta, "beta")
    ceiling = _ceiling(constraint)
    if constraint.kind == "reduced" and beta >= _4PI / ceiling:
        raise ValueError(
            "supremum is infinite for beta >= 4 pi/(1-delta)^2 = %.6g" % (_4PI / ceiling)
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

    labels, thetas, t, s, v = _starts(constraint, n_knots, budget)
    values = _stack_values(t, s, v, beta, hot_tol)
    states = []
    for label, theta, j, t_r, s_r, v_r in zip(labels, thetas, values, t.tolist(), s, v):
        evals += 1
        if not t_r < math.inf:
            raise ValueError("start %s places no profile" % label)
        if isinstance(j, ValueOverflowError):
            raise j
        states.append([j, theta, t_r, s_r, v_r, label])
    states.sort(key=lambda st: st[0], reverse=True)
    best_j = states[0][0]
    trace.append(best_j)

    n = n_knots
    n_moves = 4 + 4 * (n - 1)

    def move(k, h, theta, s, v, gap_floor):
        """(moved, theta, s, v): move k with step h from the incumbent."""
        theta2, s2, v2 = theta, s, v
        moved = True
        if k < 2:
            theta2 = min(theta * math.exp(h if k == 0 else -h), ceiling)
            moved = theta2 != theta
        elif k < 4:
            s2 = s * math.exp(h if k == 2 else -h)
        elif k < 4 + 2 * (n - 1):
            i = 1 + (k - 4) // 2
            sign = 1.0 if (k - 4) % 2 == 0 else -1.0
            scale = max(float(v[-1]), 1e-3)
            v2 = v.copy()
            v2[i] = max(v2[i] + sign * h * scale, 0.0)
        else:
            k2 = k - 4 - 2 * (n - 1)
            i = 1 + k2 // 2
            sign = 1.0 if k2 % 2 == 0 else -1.0
            width = max(float(s[-1]) / n, 1e-6)
            cand = float(s[i]) + sign * h * width
            lo = float(s[i - 1]) + gap_floor
            hi = float(s[i + 1]) - gap_floor if i + 1 < n else math.inf
            cand = min(max(cand, lo), hi)
            moved = cand != s[i] and lo <= cand <= hi
            s2 = s.copy()
            s2[i] = cand
        return moved, theta2, s2, v2

    def ascend(state, stop_evals):
        nonlocal best_j, evals
        j, theta, t, s, v = state[:5]
        steps = [0.3] * n_moves
        gap_floor = 1e-9 * (1.0 + float(s[-1]))
        size = _BATCH_MIN
        fails = accepts = 0
        while evals < stop_evals:
            perm = rng.permutation(n_moves).tolist()
            pos = 0
            while pos < n_moves and evals < stop_evals:
                # the next moves from the incumbent, placed and scored as one
                # stack; a move spends at most one evaluation, so the batch
                # fits the budget
                batch = perm[pos : pos + min(size, stop_evals - evals)]
                cands = [move(k, steps[k], theta, s, v, gap_floor) for k in batch]
                moved, theta2, s2, v2 = zip(*cands)
                s2 = np.array(s2)
                t2, v2 = _place(constraint, np.array(theta2), s2, np.array(v2))
                t2 = t2.tolist()
                j2 = _stack_values(t2, s2, v2, beta, hot_tol)
                for r, k in enumerate(batch):
                    pos += 1
                    # a share at the ceiling or without L2 budget, like a
                    # bracketed knot, fails without an evaluation
                    placed = moved[r] and t2[r] < math.inf
                    if placed:
                        evals += 1
                        if isinstance(j2[r], ValueOverflowError):
                            raise j2[r]
                    if placed and j2[r] > j:
                        j, theta, t, s, v = j2[r], theta2[r], t2[r], s2[r], v2[r]
                        steps[k] = min(steps[k] * 2.0, 2.0)
                        if j > best_j:
                            best_j = j
                            trace.append(j)
                        # the rest of the batch moved from the old incumbent
                        accepts += 1
                        break
                    steps[k] = max(steps[k] * 0.5, 1e-7)
                    fails += 1
                size = min(max(fails // accepts, _BATCH_MIN) if accepts else 2 * size, _BATCH_MAX)
        state[:5] = j, theta, t, s, v

    if budget > evals:
        share = max((budget - evals) // (2 * len(states)), n_moves)
        for st in states:
            ascend(st, min(evals + share, budget))
        states.sort(key=lambda st: st[0], reverse=True)
        top = states[: min(3, len(states))]
        while evals < budget:
            before = evals
            share = max((budget - evals) // len(top), 1)
            for st in top:
                ascend(st, min(evals + share, budget))
            if evals == before:
                break
        states.sort(key=lambda st: st[0], reverse=True)

    _, _, t, s, v, label = states[0]
    best_profile = RadialProfile(t, s, v)
    # the rescale in _place can round the norms a few ulps past the bound;
    # shrink the incumbent's amplitude by 2^-52, 2^-51, ... until it is inside
    for e in range(52, 40, -1):
        if constraint.residual(best_profile) <= 0.0:
            break
        best_profile = RadialProfile(t, s, v * (1.0 - 2.0**-e))
    report = tm_functional(best_profile, beta, 1e-8)
    result_value = report.j_beta
    # the trace ends at the reported value and stays nondecreasing, also
    # where the fresh evaluation or the shrink lands below the search's value
    trace = [min(j, result_value) for j in trace] + [result_value]
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
    beta = _positive(beta, "beta")
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
