"""Walk through one constrained maximization run.

Starts from caps at shares of the Dirichlet ceiling, shows how the
incumbent improves, and checks the result against the two
non-compactness landmarks: the vanishing level (beta times the L2 budget
at zero energy) from below, and feasibility of the returned profile.  One
verdict line says whether the run beat that level.  Reruns with the same
seed reproduce the result bit for bit.
"""

import argparse
import math
import sys

from moser2d import ConstraintSet, maximize, tm_functional, vanishing_probe


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--constraint", choices=("reduced", "ruf", "norm-sum"), default="reduced"
    )
    ap.add_argument("--beta-over-pi", type=float, default=2.0)
    ap.add_argument("--delta", type=float, default=0.0)
    ap.add_argument("--K", type=float, default=1.0)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--budget", type=int, default=20000)
    ap.add_argument("--knots", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    kind = "norm_sum" if args.constraint == "norm-sum" else args.constraint
    c = ConstraintSet(kind=kind, delta=args.delta, K=args.K, tau=args.tau)
    beta = args.beta_over_pi * math.pi

    result = maximize(c, beta, n_knots=args.knots, budget=args.budget, seed=args.seed)
    print(
        "constraint=%s beta=%.6f budget=%d seed=%d"
        % (kind, beta, args.budget, args.seed)
    )
    print("evaluations used: %d, wall time %.2fs" % (result.n_evaluations, result.wall_time))

    trace = result.objective_trace
    marks = sorted({0, len(trace) // 4, len(trace) // 2, 3 * len(trace) // 4, len(trace) - 1})
    print("incumbent milestones:")
    for i in marks:
        print("  improvement %4d of %d: J = %.6f" % (i + 1, len(trace), trace[i]))

    print("best value: %.8f" % result.best_value)
    level = result.vanishing_level_value
    print("vanishing level, beta times the L2 budget at zero energy: %.8f" % level)
    if result.best_value > level:
        print("verdict: the maximizer beats every vanishing sequence, concentration wins")
    else:
        print("verdict: the maximizer stays at or below the vanishing level at this budget")
    res = result.feasibility_residuals
    print(
        "feasibility: residual %.2e  dirichlet^2 %.6f  l2^2 %.6f  (seeded from %s)"
        % (res["constraint"], res["dirichlet_sq"], res["l2_sq"], res["start"])
    )

    check = tm_functional(result.best_profile, beta, tol=1e-9)
    print("re-evaluated at tol 1e-9: J = %.8f" % check.j_beta)

    if kind == "reduced":
        probe = vanishing_probe(c, beta, [1.0, 1e-1, 1e-2, 1e-3])
        print("vanishing probe (gap to the level):")
        for row in probe["rows"]:
            print("  lam=%-8g J=%.8f gap=%.3e" % (row["lam"], row["j_beta"], row["gap"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
