"""Radial nonincreasing profiles on the plane, exponential functionals,
sharp-constant inequalities, and constrained maximization.

Profiles are piecewise linear in the coordinate s = log(T_sup / t) of the
measure t of superlevel sets, which makes the Dirichlet and L2 norms of
every concentrating family here exact.  On top of that sit the functional
J_beta, the window and Zygmund-type inequality checkers, constructive
norm equivalences, and a deterministic constrained maximizer.
"""

from .equivalence import EquivalenceTrace, adachi_split, ruf_normalize, tau_rescale
from .inequalities import (
    InequalityReport,
    adachi_ratio,
    alvino_ratio_sup,
    at_constant_eps,
    at_quadratic_bound,
    best_eps,
    check_limine,
    remainder_functional,
    zcharact_bound,
    zygmund_quasinorm,
)
from .optimizer import (
    ConstraintSet,
    OptimizationResult,
    blowup_scan,
    family_starts,
    maximize,
    vanishing_probe,
)
from .profile import (
    FunctionalReport,
    RadialProfile,
    dirichlet_norm_sq,
    insert_knot,
    l2_norm_sq,
    scale_amplitude,
    scale_dilate,
    tm_functional,
)
from .quadrature import ValueOverflowError
from .rearrangement import (
    WeightedSamples,
    decreasing_rearrangement,
    distribution,
    maximal_function,
    profile_distribution,
)
from .sequences import (
    SequenceSpec,
    alvino_extremal,
    alvino_l2_sq,
    cap,
    cap_l2_sq,
    counterexample,
    counterexample_j_lower_bound,
    counterexample_l2_sq,
    counterexample_scales,
    modified_moser,
    modified_moser_norms,
    moser,
    moser_l2_sq,
    oracle_rows,
    zygmund_optimal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RadialProfile",
    "FunctionalReport",
    "ValueOverflowError",
    "dirichlet_norm_sq",
    "l2_norm_sq",
    "tm_functional",
    "scale_amplitude",
    "scale_dilate",
    "insert_knot",
    "SequenceSpec",
    "moser",
    "counterexample",
    "counterexample_j_lower_bound",
    "counterexample_l2_sq",
    "counterexample_scales",
    "moser_l2_sq",
    "cap_l2_sq",
    "alvino_l2_sq",
    "modified_moser_norms",
    "oracle_rows",
    "cap",
    "zygmund_optimal",
    "alvino_extremal",
    "modified_moser",
    "WeightedSamples",
    "distribution",
    "decreasing_rearrangement",
    "profile_distribution",
    "maximal_function",
    "InequalityReport",
    "alvino_ratio_sup",
    "zygmund_quasinorm",
    "check_limine",
    "adachi_ratio",
    "best_eps",
    "at_constant_eps",
    "at_quadratic_bound",
    "remainder_functional",
    "zcharact_bound",
    "EquivalenceTrace",
    "ruf_normalize",
    "adachi_split",
    "tau_rescale",
    "ConstraintSet",
    "OptimizationResult",
    "maximize",
    "family_starts",
    "blowup_scan",
    "vanishing_probe",
]
