"""Constructive rescalings between the constraint settings.

Each transform returns an EquivalenceTrace: the branch taken, every
intermediate profile, and the resulting bound as a (coefficient, tag)
pair.  Tags name reference constants that have no closed form, so bounds
stay symbolic multiples instead of invented numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .profile import (
    RadialProfile,
    _positive,
    _subcritical,
    dirichlet_norm_sq,
    l2_norm_sq,
    scale_amplitude,
    scale_dilate,
)

__all__ = ["EquivalenceTrace", "ruf_normalize", "adachi_split", "tau_rescale"]

_4PI = 4.0 * math.pi
_FEAS_TOL = 1e-12


@dataclass(frozen=True)
class EquivalenceTrace:
    input_dirichlet_sq: float
    input_l2_sq: float
    branch: str
    profiles: tuple
    coefficient: float
    tag: str
    checks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "input_dirichlet_sq": self.input_dirichlet_sq,
            "input_l2_sq": self.input_l2_sq,
            "branch": self.branch,
            "profiles": [q.to_dict() for q in self.profiles],
            "coefficient": self.coefficient,
            "tag": self.tag,
            "checks": dict(self.checks),
        }


def ruf_normalize(p: RadialProfile, beta: float) -> EquivalenceTrace:
    """Dirichlet-ball profile to a unit Sobolev-ball profile.

    v = sqrt(beta/4 pi) u, then v_mu = v(mu x) with
    mu^2 = ||v||_2^2 / (1 - beta/4 pi).  The output satisfies
    ||v_mu||_S^2 = (beta/4 pi) ||grad u||_2^2 + 1 - beta/4 pi <= 1 and the
    functional transports as J_beta(u) = J_{4 pi}(v) = mu^2 J_{4 pi}(v_mu).
    """
    b = _subcritical(beta)
    if p.is_zero:
        raise ValueError("the zero profile has no normalizing dilation")
    dir_sq = dirichlet_norm_sq(p)
    l2_sq = l2_norm_sq(p)
    if not dir_sq <= 1.0 + _FEAS_TOL:
        raise ValueError("profile must satisfy the unit Dirichlet bound")
    v = scale_amplitude(p, math.sqrt(b))
    mu_sq = l2_norm_sq(v) / (1.0 - b)
    v_mu = scale_dilate(v, math.sqrt(mu_sq))
    sob = dirichlet_norm_sq(v_mu) + l2_norm_sq(v_mu)
    if not sob <= 1.0 + 1e-9:
        raise RuntimeError("normalized profile left the unit Sobolev ball")
    return EquivalenceTrace(
        input_dirichlet_sq=dir_sq,
        input_l2_sq=l2_sq,
        branch="ruf_normalize",
        profiles=(v, v_mu),
        coefficient=mu_sq,
        tag="d_4pi",
        checks={"sobolev_sq": sob, "residual": max(0.0, sob - 1.0)},
    )


def adachi_split(p: RadialProfile) -> EquivalenceTrace:
    """Unit Sobolev-ball profile to the separate-norms setting.

    theta = ||grad u||_2^2 picks the branch: theta <= 1/2 doubles the mass
    (coefficient 2 against the subcritical constant), theta > 1/2
    normalizes the gradient and lands on coefficient
    (1/(1-theta)) (||u||_2^2/theta) <= 2.
    """
    if p.is_zero:
        raise ValueError("split undefined for the zero profile")
    theta = dirichlet_norm_sq(p)
    l2_sq = l2_norm_sq(p)
    if not theta + l2_sq <= 1.0 + _FEAS_TOL:
        raise ValueError("profile must satisfy the unit Sobolev bound")
    if theta <= 0.5:
        out = scale_amplitude(p, math.sqrt(2.0))
        checks = {
            "dirichlet_sq": 2.0 * theta,
            "l2_sq": 2.0 * l2_sq,
            "residual": max(0.0, 2.0 * theta - 1.0),
        }
        return EquivalenceTrace(theta, l2_sq, "subcritical", (out,), 2.0, "C_subcritical", checks)
    out = scale_amplitude(p, 1.0 / math.sqrt(theta))
    # a profile on the Sobolev sphere up to _FEAS_TOL (1 - theta may round to
    # 0 or below) takes the boundary value l2_sq = 1 - theta
    coeff = 1.0 / theta if l2_sq >= 1.0 - theta else (l2_sq / theta) / (1.0 - theta)
    out_dir = dirichlet_norm_sq(out)
    checks = {"dirichlet_sq": out_dir, "residual": abs(out_dir - 1.0)}
    return EquivalenceTrace(theta, l2_sq, "gradient_normalized", (out,), coeff, "d_4pi", checks)


def tau_rescale(p: RadialProfile, tau: float) -> RadialProfile:
    """u_tau(x) = u(sqrt(tau) x): trades support for the tau-weighted norm.

    ||grad u_tau||_2^2 + tau ||u_tau||_2^2 equals ||grad u||_2^2 + ||u||_2^2
    and J_beta(u) = tau J_beta(u_tau).  The support is divided by tau
    directly (not via sqrt(tau) squared), so rescaling by tau and then
    1/tau restores the original knots whenever tau is a power of two.
    """
    tau = _positive(tau, "tau")
    if tau == 1.0:
        return p
    out = RadialProfile._from_checked(p.t_support / tau, p.s, p.v)
    a = dirichlet_norm_sq(p)
    if math.isfinite(a):
        before = a + l2_norm_sq(p)
        after = a + tau * l2_norm_sq(out)
        if abs(after - before) > 1e-9 * max(1.0, before):
            raise RuntimeError("tau-weighted norm failed to stay invariant")
    return out
