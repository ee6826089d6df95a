"""Radial nonincreasing profiles on the plane, exponential functionals,
sharp-constant inequalities, and constrained maximization.

Profiles are piecewise linear in the coordinate s = log(T_sup / t) of the
measure t of superlevel sets, which makes the Dirichlet and L2 norms of
every concentrating family here exact.  On top of that sit the functional
J_beta, the window and Zygmund-type inequality checkers, constructive
norm equivalences, and a deterministic constrained maximizer.

The public API is the union of the modules' own __all__ lists.
"""

from . import equivalence, inequalities, optimizer, profile, quadrature, rearrangement, sequences
from .equivalence import *
from .inequalities import *
from .optimizer import *
from .profile import *
from .quadrature import *
from .rearrangement import *
from .sequences import *

__version__ = "0.1.0"

_MODULES = (profile, quadrature, sequences, rearrangement, inequalities, equivalence, optimizer)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
