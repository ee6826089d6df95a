"""The benchmark's workloads: seeded inputs, requests, and their checks.

Each workload is a closed loop with one client.  Its inputs come in
rounds; a round holds every input class of the workload once, in a
fixed or seeded order, so a run that stops on a round boundary always
measures the same mix.  An input is never repeated: every request gets
fresh values drawn from the seed (a new optimizer seed, a new support
measure, a new grid), and the share of repeated inputs is measured and
reported.

A job is one unit of checked work: one or more requests (each timed on
its own), the number of operations it stands for, and a check that
returns a problem description or None plus a fingerprint of the result.
The runner reruns the first ``rerun_jobs`` jobs of a run and requires
the same fingerprint bit for bit.  A job's label names its input class,
which recurs once per round.

A workload's ``quad`` gives the QUADPACK references: the ``reference``
module itself, or a ``reference.Child`` that computes them in a child
interpreter.
"""

from __future__ import annotations

import array
import functools
import hashlib
import importlib
import json
import math
import os

import numpy as np

import moser2d as m2

import reference as ref

_2PI = 2.0 * math.pi
_4PI = 4.0 * math.pi
_LOG_MAX = math.log(1.7976931348623157e308)


class Job:
    """Requests plus the check of their results; see the module docstring."""

    def __init__(self, requests, ops, check, label, cleanup=None):
        self.requests = requests
        self.ops = ops
        self.check = check
        self.label = label
        self.cleanup = cleanup


def _fp_float(x) -> str:
    return float(x).hex()


# ---------------------------------------------------------------- optimize

OPT_BUDGET = 500
OPT_KNOTS = (32, 64)
OPT_CONSTRAINTS = (
    ("reduced", _2PI),  # delta = 0, K = 1
    ("ruf", _4PI),  # tau = 1
    ("norm_sum", _4PI),
)
OPT_RESIDUAL_TOL = 1e-9
# the reported best value is evaluated at tol 1e-8
OPT_J_RTOL = 1e-7


class Optimize:
    """Sequential maximize calls at a fixed evaluation budget.

    Why: the optimizer's own bookkeeping (_project, _isotonic, the moves)
    runs only here, next to quadrature at the hot tolerance 1e-6 on 31-63
    segments.  Profile construction, inequalities and the CLI are bypassed.
    """

    name = "optimize"
    modules = ("moser2d",)
    min_requests = 100
    rerun_jobs = 1
    # rounds per second when the benchmark was defined; the traced run
    # replays round(nominal * seconds / 2) rounds, so its work counts
    # depend on --seconds and the seed alone
    nominal_rounds_per_s = 1.0

    def __init__(self, seed, workdir, quad=ref):
        self.seed = seed
        self.quad = quad
        self.reset()

    def reset(self):
        """Zero the counters behind properties() and layer_extras()."""
        self.max_rel_err = 0.0
        self.first_round = []
        self.improvements = 0
        self.knot_hist = {}
        self.seen = set()
        self.repeats = 0

    def prepare(self):
        pass

    def rounds(self, stream):
        rng = np.random.default_rng([self.seed, 1, stream])
        while True:
            jobs = []
            for n_knots in OPT_KNOTS:
                for kind, beta in OPT_CONSTRAINTS:
                    call_seed = int(rng.integers(0, 2**31 - 1))
                    jobs.append(self._job(kind, beta, n_knots, call_seed))
            yield jobs

    def _job(self, kind, beta, n_knots, call_seed):
        def request():
            c = m2.ConstraintSet(kind=kind)
            return m2.maximize(c, beta, n_knots=n_knots, budget=OPT_BUDGET, seed=call_seed)

        def check(results, count):
            (res,) = results
            key = (kind, n_knots, call_seed)
            if count:
                self.repeats += key in self.seen
                self.seen.add(key)
                self.knot_hist[n_knots] = self.knot_hist.get(n_knots, 0) + 1
                self.improvements += len(res.objective_trace) - 1
            fp = (
                _fp_float(res.best_value),
                res.n_evaluations,
                tuple(_fp_float(x) for x in res.objective_trace),
                _fp_float(res.best_profile.t_support),
                tuple(_fp_float(x) for x in res.best_profile.s),
                tuple(_fp_float(x) for x in res.best_profile.v),
            )
            if res.n_evaluations != OPT_BUDGET:
                return "n_evaluations %d != budget %d" % (res.n_evaluations, OPT_BUDGET), fp
            residual = res.feasibility_residuals["constraint"]
            if not residual <= OPT_RESIDUAL_TOL:
                return "constraint residual %.3g" % residual, fp
            fresh = m2.tm_functional(res.best_profile, beta, 1e-8).j_beta
            if fresh != res.best_value:
                return "fresh J %r != best_value %r" % (fresh, res.best_value), fp
            if not (math.isfinite(res.best_value) and res.best_value > 0.0):
                return "best_value %r" % res.best_value, fp
            if count and len(self.first_round) < len(OPT_KNOTS) * len(OPT_CONSTRAINTS):
                # the first round is also checked against QUADPACK and
                # defines best_over_vanishing
                p = res.best_profile
                want = self.quad.brute_j(p.t_support, p.s, p.v, beta)
                err = ref.rel_err(res.best_value, want)
                self.max_rel_err = max(self.max_rel_err, err)
                self.first_round.append(res.best_value / res.vanishing_level_value)
                if not err <= OPT_J_RTOL:
                    return "best_value off QUADPACK by %.3g" % err, fp
            return None, fp

        return Job([request], OPT_BUDGET, check, "%s/%d" % (kind, n_knots))

    def properties(self):
        n = sum(self.knot_hist.values())
        return {
            "knots_histogram": {str(k): v for k, v in sorted(self.knot_hist.items())},
            "segments_histogram": {str(k - 1): v for k, v in sorted(self.knot_hist.items())},
            "budget": OPT_BUDGET,
            "repeated_input_share": self.repeats / n if n else 0.0,
        }

    def layer_extras(self):
        ratios = self.first_round
        gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
        return {
            "optimizer.improvements": self.improvements,
            "optimizer.best_over_vanishing": gm,
            "quadrature.max_rel_err": self.max_rel_err,
        }


# ---------------------------------------------------------------- evaluate

EVAL_TOL = 1e-10
EVAL_BETAS = (_2PI, _4PI, 19.0)
EVAL_NS = (10, 100, 10**3, 10**4, 10**5, 10**6)
EVAL_CAPS = ((1.0, 0.5), (4.0, 2.0), (16.0, 1.0))
EVAL_ALVINO = ((math.pi, math.e), (10.0, math.exp(4.0)))
# (segments, count, overflow) of the seeded random profiles per base set
EVAL_RANDOM = ((2, 12, False), (32, 12, False), (1024, 4, False), (2, 2, True), (32, 2, True))
# fresh inputs per request: the support measure is multiplied by e^x,
# x uniform in this range, which scales J and the L2 norm by the same factor
EVAL_LOG_SCALE = 0.5


def _family_knots(fam, params):
    """(t_support, s, v) of a family member, from the defining formulas."""
    if fam in ("moser", "counterexample", "modified_moser"):
        (n,) = params
        ln = math.log(n)
        t, s, v = math.pi, [0.0, 2.0 * ln], [0.0, math.sqrt(ln / _2PI)]
        if fam == "counterexample":
            lln = math.log(ln)
            t = math.pi * ln / (lln * lln)
            v = [0.0, v[1] * math.sqrt(1.0 - lln / (4.0 * ln))]
        elif fam == "modified_moser":
            a = math.sqrt(ref.moser_norms(n)[1])
            v = [0.0, v[1] * (1.0 - a)]
        return t, s, v
    if fam == "cap":
        k, r = params
        return math.pi * r * r, [0.0, k], [0.0, math.sqrt(k / _4PI)]
    t, d = params
    k = 2.0 * math.log(d)
    return t, [0.0, k], [0.0, math.sqrt(k / _4PI)]


_FAMILY_NORMS = {
    "moser": ref.moser_norms,
    "counterexample": ref.counterexample_norms,
    "modified_moser": ref.modified_moser_norms,
    "cap": ref.cap_norms,
    "alvino": ref.alvino_norms,
}
# moser2d constructor of each family; the others share the family's name
_FAMILY_BUILDERS = {"alvino": "alvino_extremal"}


def _random_knots(rng, n_seg, jumps, flats, q_top, q_span):
    """Seeded nondecreasing profile with n_seg pieces and a moderate J.

    q_top and q_span in [0, 1) place the largest beta u^2 and the extent in
    s, the two properties that set the quadrature's work; callers stratify
    them so that the cost of a base set hardly depends on the seed.
    """
    t = math.exp(rng.uniform(-3.0, 4.0))
    lo, hi = (0.5, 6.0) if n_seg <= 2 else (3.0, 30.0)
    span = lo + (hi - lo) * q_span
    ds = rng.dirichlet(np.ones(n_seg)) * span
    dv = rng.exponential(size=n_seg) + 1e-3
    if flats:
        dv[rng.random(n_seg) < 0.15] = 0.0
    if jumps:
        is_jump = rng.random(n_seg) < 0.1
        is_jump[1:] &= ~is_jump[:-1]  # no stacked jumps
        ds[is_jump] = 0.0
        dv[is_jump] = np.maximum(dv[is_jump], 1e-2)
    dv[-1] = max(dv[-1], 1e-2)
    v0 = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 0.3)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    v = v0 + np.concatenate([[0.0], np.cumsum(dv)])
    beta = float(rng.choice(EVAL_BETAS))
    # the largest beta u^2 lies in (0.5, 40): J stays finite and varied
    w_top = 0.5 + 39.5 * q_top
    v = v * math.sqrt(w_top / (beta * v[-1] ** 2))
    return t, s, v, beta


def _overflow_knots(rng, n_seg):
    """Smooth profile whose J exceeds binary64 because of its last knot only.

    beta v^2 - s + log T is pushed 5-30 past log(DBL_MAX) at the last knot
    and kept below 690 at every other knot; the exponent is convex along a
    linear piece, so no other knot can be responsible.
    """
    while True:
        t = math.exp(rng.uniform(-2.0, 3.0))
        s = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n_seg))])
        dv = rng.uniform(0.1, 1.0, n_seg)
        dv[-1] = 3.0 * dv[:-1].sum() + 1.0
        v = np.concatenate([[0.0], np.cumsum(dv)])
        beta = float(rng.choice(EVAL_BETAS))
        target = _LOG_MAX + rng.uniform(5.0, 30.0) - math.log(t) + s[-1]
        v = v * math.sqrt(target / (beta * v[-1] ** 2))
        expo = beta * v * v - s + math.log(t)
        if np.all(expo[:-1] < 690.0 - EVAL_LOG_SCALE):
            return t, s, v, beta


class _Base:
    """One input class of evaluate: a family member or a seeded profile."""

    def __init__(self, beta, t, s, v, fam=None, params=None, overflow=False):
        self.beta = beta
        self.t, self.s, self.v = t, np.asarray(s, float), np.asarray(v, float)
        self.fam, self.params = fam, params
        self.overflow = overflow
        self.segments = len(s) - 1
        self.ref = {}

    def build(self, scale):
        if self.fam is None:
            return m2.RadialProfile(self.t * scale, self.s, self.v)
        p = getattr(m2, _FAMILY_BUILDERS.get(self.fam, self.fam))(*self.params)
        return m2.scale_dilate(p, 1.0 / math.sqrt(scale))

    def prepare(self, quad):
        if self.overflow:
            return
        for kind in ("expm1", "remainder"):
            self.ref[kind] = quad.brute_j(self.t, self.s, self.v, self.beta, kind)
        if self.fam is None:
            self.ref["dirichlet_sq"] = ref.dirichlet_sq(self.s, self.v)
            self.ref["l2_sq"] = quad.brute_l2(self.t, self.s, self.v)
        else:
            d, l2 = _FAMILY_NORMS[self.fam](*self.params)
            self.ref["dirichlet_sq"], self.ref["l2_sq"] = d, l2


class Evaluate:
    """A stream of tm_functional and remainder_functional calls at tol 1e-10.

    Why: adaptive Gauss-Kronrod at a tight tolerance does most of the work,
    with norms and profile construction a visible second share; segment
    counts 1, 2, 32 and 1024 separate per-call from per-segment cost.  A
    closed-form J kernel has to show here.  The optimizer and the CLI are
    bypassed.
    """

    name = "evaluate"
    modules = ("moser2d",)
    min_requests = 100
    rerun_jobs = 64
    nominal_rounds_per_s = 7.0

    def __init__(self, seed, workdir, quad=ref):
        self.seed = seed
        self.quad = quad
        rng = np.random.default_rng([seed, 2, 0])
        bases = []
        for beta in EVAL_BETAS:
            for fam in ("moser", "counterexample", "modified_moser"):
                for n in EVAL_NS:
                    bases.append(_Base(beta, *_family_knots(fam, (n,)), fam=fam, params=(n,)))
            for params in EVAL_CAPS:
                bases.append(_Base(beta, *_family_knots("cap", params), fam="cap", params=params))
            for params in EVAL_ALVINO:
                bases.append(
                    _Base(beta, *_family_knots("alvino", params), fam="alvino", params=params)
                )
        for n_seg, count, overflow in EVAL_RANDOM:
            perm = rng.permutation(count)
            for i in range(count):
                if overflow:
                    t, s, v, beta = _overflow_knots(rng, n_seg)
                else:
                    q_top = (i + rng.random()) / count
                    q_span = (perm[i] + rng.random()) / count
                    t, s, v, beta = _random_knots(
                        rng, n_seg, i % 2 == 0, i % 3 != 2, q_top, q_span
                    )
                bases.append(_Base(beta, t, s, v, overflow=overflow))
        self.bases = bases
        self.reset()

    def reset(self):
        """Zero the counters behind properties() and layer_extras()."""
        self.max_rel_err = 0.0
        self.seg_hist = {}
        self.n_ops = 0
        self.n_overflow = 0
        self.keys = array.array("q")

    def prepare(self):
        for b in self.bases:
            b.prepare(self.quad)

    def rounds(self, stream):
        rng = np.random.default_rng([self.seed, 2, 1 + stream])
        pairs = [(i, kind) for i in range(len(self.bases)) for kind in ("expm1", "remainder")]
        while True:
            order = rng.permutation(len(pairs))
            scales = np.exp(rng.uniform(-EVAL_LOG_SCALE, EVAL_LOG_SCALE, len(pairs)))
            yield [self._job(*pairs[i], float(c)) for i, c in zip(order, scales)]

    def _job(self, index, kind, scale):
        base = self.bases[index]
        beta = base.beta

        def request():
            p = base.build(scale)
            try:
                if kind == "expm1":
                    return m2.tm_functional(p, beta, EVAL_TOL)
                return m2.remainder_functional(p, beta, EVAL_TOL)
            except m2.ValueOverflowError as exc:
                return exc

        def check(results, count):
            (out,) = results
            if count:
                # hashes in a flat array: tens of thousands of keys stay small
                self.keys.append(hash((index, kind, scale)))
                self.n_ops += 1
                self.n_overflow += base.overflow
                self.seg_hist[base.segments] = self.seg_hist.get(base.segments, 0) + 1
            if isinstance(out, m2.ValueOverflowError):
                fp = ("overflow", out.knot_index, str(out))
                if not base.overflow:
                    return "unexpected overflow: %s" % out, fp
                last = len(base.s) - 1
                if (out.knot_index, out.knot_s, out.knot_v) != (last, base.s[-1], base.v[-1]):
                    return "overflow blamed knot %d, expected %d" % (out.knot_index, last), fp
                return None, fp
            if base.overflow:
                return "expected value-overflow, got %r" % (out,), None
            if kind == "expm1":
                fp = tuple(_fp_float(x) for x in (out.j_beta, out.dirichlet_sq, out.l2_sq))
                value = out.j_beta
                e_d = ref.rel_err(out.dirichlet_sq, base.ref["dirichlet_sq"])
                e_l = ref.rel_err(out.l2_sq, base.ref["l2_sq"] * scale)
                if not (e_d <= ref.DIRICHLET_RTOL or out.dirichlet_sq == base.ref["dirichlet_sq"]):
                    return "dirichlet_sq off by %.3g" % e_d, fp
                if not e_l <= ref.L2_RTOL:
                    return "l2_sq off by %.3g" % e_l, fp
            else:
                fp = _fp_float(out)
                value = out
            err = ref.rel_err(value, base.ref[kind] * scale)
            self.max_rel_err = max(self.max_rel_err, err)
            if not err <= ref.J_RTOL:
                return "%s off QUADPACK by %.3g" % (kind, err), fp
            return None, fp

        label = "%d:%s/%s" % (index, base.fam or "random%d" % base.segments, kind)
        return Job([request], 1, check, label)

    def properties(self):
        n = self.n_ops
        repeats = n - np.unique(np.frombuffer(self.keys, dtype=np.int64)).size
        return {
            "segments_histogram": {str(k): v for k, v in sorted(self.seg_hist.items())},
            "overflow_share": self.n_overflow / n if n else 0.0,
            "repeated_input_share": repeats / n if n else 0.0,
            "base_inputs": len(self.bases),
        }

    def layer_extras(self):
        return {"quadrature.max_rel_err": self.max_rel_err}


# -------------------------------------------------------- rearrange_verify

# grid sides; each appears once symmetric (many ties) and once noisy
RV_SIDES = (32, 55, 100, 173, 316)
# knots of the collinearly refined moser profiles
RV_REFINED = (10_000, 40_000)
RV_EVAL_BETA = "0.5"
RV_EQ_BETA = "2pi"


def _radial_grid(rng, side, noisy):
    """Cell values of a sampled radial field on a side x side grid.

    u = A min(log(R/r), 3)_+ at the cell centres, with R at 0.8 of the
    half-width.  The geometry is fixed so that every grid of one size has
    the same number of positive cells and distinct values; the seed draws
    the amplitude, the domain size and the noise.  Values are computed from
    the integer squared distance, so symmetric cells tie exactly; the noisy
    variant adds distinct noise to every positive cell.
    """
    half = rng.uniform(1.0, 3.0)
    h = 2.0 * half / side
    idx = 2 * np.arange(side, dtype=np.int64) + 1 - side
    q = (idx[:, None] ** 2 + idx[None, :] ** 2).ravel()
    r = np.sqrt(q.astype(float)) * (0.5 * h)
    amp = rng.uniform(0.3, 1.0)
    with np.errstate(divide="ignore"):  # the centre cell of an odd grid has r = 0
        vals = amp * np.clip(np.log(0.8 * half / r), 0.0, 3.0)
    if noisy:
        pos = vals > 0.0
        vals[pos] += amp * 1e-3 * rng.random(int(pos.sum()))
    return vals, np.full(vals.size, h * h)


def _write_csv(path, values, areas):
    lines = ["value,area"]
    lines.extend("%r,%r" % va for va in zip(values.tolist(), areas.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


class RearrangeVerify:
    """The README flow through in-process cli.main, on fresh seeded inputs.

    Why: profile construction at 10^5 knots, the rearrangement sort, the
    inequalities' per-knot loops and the CLI's CSV/JSON I/O do the work;
    quadrature only takes its closed-form constant-segment branch, so a
    J-kernel change is predicted to leave this workload unchanged.  It is
    the only workload that writes output and reads it back.
    """

    name = "rearrange_verify"
    modules = ("moser2d", "moser2d.cli")
    min_requests = 100
    rerun_jobs = 1
    nominal_rounds_per_s = 0.25

    def __init__(self, seed, workdir, quad=ref):
        importlib.import_module("moser2d.cli")
        self.seed = seed
        self.workdir = workdir
        self._slot = 0
        self.reset()

    def reset(self):
        """Zero the counters behind properties() and layer_extras()."""
        self.positive_cells = 0
        self.tied = 0
        self.n_inputs = 0
        self.seen = set()
        self.repeats = 0
        self.knot_hist = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.cli_errors = 0
        self.max_rel_err = 0.0

    def prepare(self):
        pass

    def _paths(self, *names):
        self._slot += 1
        return [os.path.join(self.workdir, "j%d.%s" % (self._slot, n)) for n in names]

    def rounds(self, stream):
        rng = np.random.default_rng([self.seed, 3, stream])
        specs = [(side, noisy) for side in RV_SIDES for noisy in (False, True)]
        specs += [(k, None) for k in RV_REFINED]
        while True:
            jobs = []
            for size, noisy in specs:
                sub = np.random.default_rng(rng.integers(0, 2**63 - 1))
                if noisy is None:
                    jobs.append(self._refined_job(sub, size))
                else:
                    jobs.append(self._grid_job(sub, size, noisy))
            yield jobs

    def _count(self, key, n_knots, codes, reads, outs):
        self.repeats += key in self.seen
        self.seen.add(key)
        self.n_inputs += 1
        bucket = 10 ** int(math.log10(max(n_knots, 1)))
        self.knot_hist[bucket] = self.knot_hist.get(bucket, 0) + 1
        self.cli_errors += sum(1 for c in codes if c != 0)
        self.bytes_read += sum(_size(p) for p in reads)
        for o in outs:
            self.bytes_written += _size(o) + _size(o + ".manifest.json") + _size(o + ".stamp")

    def _near(self, problems, what, got, want, quadrature=False):
        err = ref.rel_err(got, want)
        if quadrature:
            self.max_rel_err = max(self.max_rel_err, err)
        if not err <= ref.SAMPLE_RTOL:
            problems.append("%s off by %.3g" % (what, err))

    def _grid_job(self, rng, side, noisy):
        values, areas = _radial_grid(rng, side, noisy)
        paths = self._paths("csv", "profile.json", "alvino.json", "limine.json", "eval.json")
        csv_path, prof, out_a, out_l, out_e = paths
        _write_csv(csv_path, values, areas)
        requests = [
            _cli(["rearrange", "--in", csv_path, "--out", prof]),
            _cli(["verify", "--inequality", "alvino", "--profile", prof, "--out", out_a]),
            _cli(["verify", "--inequality", "limine", "--profile", prof, "--out", out_l]),
            _cli(["eval", "--profile", prof, "--beta", RV_EVAL_BETA, "--out", out_e]),
        ]
        pos = values > 0.0
        a, v = areas[pos], values[pos]
        levels = np.unique(v)

        def check(codes, count):
            fp = tuple(codes) + tuple(_digest(p) for p in paths[1:] if os.path.exists(p))
            if count:
                self.positive_cells += v.size
                self.tied += v.size - levels.size
                self._count(
                    hashlib.sha256(values.tobytes()).hexdigest(), 2 * levels.size, codes,
                    [csv_path, prof, prof, prof], paths[1:],
                )
            if any(c != 0 for c in codes):
                return "exit codes %s" % (codes,), fp
            d = _read_json(prof)
            if len(d["knots"]) != 2 * levels.size:
                return "%d knots for %d distinct values" % (len(d["knots"]), levels.size), fp
            problems = []
            near = functools.partial(self._near, problems)
            # identities of the sample side: ||u*||^2 = sum v^2 a,
            # J = sum a expm1(beta v^2), |{u* > l}| = sum of a over v > l
            near("t_support", d["t_support"], math.fsum(a.tolist()))
            ev = _read_json(out_e)
            beta = float(RV_EVAL_BETA)
            near("l2_sq", ev["l2_sq"], math.fsum((v * v * a).tolist()))
            near("j_beta", ev["j_beta"], math.fsum((np.expm1(beta * v * v) * a).tolist()), True)
            if ev["dirichlet_sq"] != math.inf:
                problems.append("step profile has finite Dirichlet norm")
            al = _read_json(out_a)
            if not (al["holds"] and al["lhs"] == math.inf and al["rhs"] == math.inf):
                problems.append("alvino verdict %r" % (al,))
            li = _read_json(out_l)
            if not li["holds"]:
                problems.append("limine verdict %r" % (li,))
            near("limine lhs", li["lhs"], ref.window_quasinorm_of_steps(values, areas))
            p = m2.RadialProfile.from_dict(d)
            mids = 0.5 * (levels[:-1] + levels[1:]) if levels.size > 1 else levels * 0.5
            for lev in [0.0] + mids[:: max(1, mids.size // 4)].tolist():
                near("distribution", m2.profile_distribution(p, lev), math.fsum(a[v > lev].tolist()))
            return ("; ".join(problems) or None), fp

        label = "grid%d%s" % (side, "noisy" if noisy else "sym")
        return Job(requests, int(values.size), check, label, functools.partial(_remove, paths))

    def _refined_job(self, rng, n_knots):
        n = int(math.exp(rng.uniform(math.log(10.0), math.log(1e6))))
        ln = math.log(n)
        big_l, top = 2.0 * ln, math.sqrt(ln / _2PI)
        rise = np.sort(rng.uniform(0.0, big_l, int(0.8 * n_knots) - 2))
        flat = np.sort(rng.uniform(big_l, big_l + 5.0, n_knots - rise.size - 2))
        s = np.concatenate([[0.0], rise, [big_l], flat])
        v = np.concatenate([[0.0], top * (rise / big_l), [top], np.full(flat.size, top)])
        paths = self._paths("json", "alvino.json", "eq.json", "eqfam.json")
        prof, out_a, out_eq, out_fam = paths
        knots = ", ".join("[%r, %r]" % sv for sv in zip(s.tolist(), v.tolist()))
        with open(prof, "w") as fh:
            fh.write('{"t_support": %r, "knots": [%s]}' % (math.pi, knots))
        eq = ["equivalence", "--direction", "at-to-ruf", "--beta", RV_EQ_BETA]
        requests = [
            _cli(["verify", "--inequality", "alvino", "--profile", prof, "--out", out_a]),
            _cli(eq + ["--profile", prof, "--out", out_eq]),
            _cli(eq + ["--family", "moser", "--n", str(n), "--out", out_fam]),
        ]

        def check(codes, count):
            fp = tuple(codes) + tuple(_digest(p) for p in paths[1:] if os.path.exists(p))
            if count:
                self._count(("refined", n, float(s[1])), s.size, codes, [prof, prof], paths[1:])
            if any(c != 0 for c in codes):
                return "exit codes %s" % (codes,), fp
            problems = []
            near = functools.partial(self._near, problems)
            # a collinear refinement is the same function as moser(n): the
            # window ratio attains 1/sqrt(4 pi) on both sides, and the
            # normalizing dilation has mu^2 = b/(1-b) ||u||_2^2 = ||u||_2^2
            # at b = beta/(4 pi) = 1/2, as for the unrefined family member
            al = _read_json(out_a)
            near("alvino lhs", al["lhs"], 1.0 / math.sqrt(_4PI))
            near("alvino rhs", al["rhs"], 1.0 / math.sqrt(_4PI))
            if not al["holds"]:
                problems.append("alvino equality case reported as violated")
            got, fam = _read_json(out_eq), _read_json(out_fam)
            l2 = ref.moser_norms(n)[1]
            near("coefficient", got["coefficient"], l2)
            near("coefficient vs unrefined", got["coefficient"], fam["coefficient"])
            near("input l2", got["input_l2_sq"], l2)
            near("input dirichlet", got["input_dirichlet_sq"], 1.0)
            return ("; ".join(problems) or None), fp

        return Job(requests, int(s.size), check, "refined%d" % n_knots, functools.partial(_remove, paths))

    def properties(self):
        return {
            "knots_histogram": {str(k): v for k, v in sorted(self.knot_hist.items())},
            "tied_cell_share": self.tied / self.positive_cells if self.positive_cells else 0.0,
            "repeated_input_share": self.repeats / self.n_inputs if self.n_inputs else 0.0,
        }

    def layer_extras(self):
        return {
            "cli.bytes_written": self.bytes_written,
            "cli.bytes_read": self.bytes_read,
            "cli.errors": self.cli_errors,
            "quadrature.max_rel_err": self.max_rel_err,
        }


def _cli(argv):
    return lambda: m2.cli.main(argv)


def _remove(paths):
    for path in paths:
        for suffix in ("", ".manifest.json", ".stamp"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)


WORKLOADS = {w.name: w for w in (Optimize, Evaluate, RearrangeVerify)}

# per-layer figures that only the checks can give, zero where a workload
# does not exercise them
LAYER_EXTRAS = {
    "optimizer.improvements": 0,
    "optimizer.best_over_vanishing": 0.0,
    "quadrature.max_rel_err": 0.0,
    "cli.bytes_written": 0,
    "cli.bytes_read": 0,
    "cli.errors": 0,
}
