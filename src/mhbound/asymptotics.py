"""Asymptotic (limit) bound: tail-ratio estimation and the closed forms
for the limiting rejection and tail constants.

For a symmetric finite-range proposal with shape D on [-s, s] and a
target whose right-tail ratio tau(u) = lim_x pi(x+u)/pi(x) exists, the
limiting constants are

    r_prime_inf = 1 - int_0^s D(u) (1 + tau(u)) du          (<= 1/2)
    beta_inf    = 2 int_0^s D(u) sqrt(tau(u)) du
    gamma_inf   = 1 - int_0^s D(u) (1 - sqrt(tau(u)))^2 du

with the algebraic identity r_prime_inf + beta_inf = gamma_inf.  The
limit bound on the essential spectral radius is
alpha_inf = max(r_inf, gamma_inf), where r_inf is the global supremum of
the rejection probability.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .kernel import MhKernel
from .models import DensityModel, ModelError, ProposalModel, TailRatio
from .quad import AdaptiveSimpsonRule, adaptive_simpson

__all__ = [
    "AsymptoticReport",
    "TauNotConvergedError",
    "tau_numeric",
    "tail_ratio_for",
    "gamma_inf",
    "r_prime_inf",
    "beta_inf",
    "alpha_inf",
]

_QUAD = AdaptiveSimpsonRule(abs_tol=1e-13, rel_tol=1e-13, max_depth=48)


class TauNotConvergedError(RuntimeError):
    pass


@dataclass
class AsymptoticReport:
    tau_table: List[Tuple[float, float]]
    tau_mode: str
    r_inf: float
    r_prime_inf: float
    beta_inf: float
    gamma_inf: float
    alpha_inf: float
    degenerate: bool
    even_verified: bool
    identity_gap: float
    certified: bool
    verdict: str

    def to_dict(self):
        return {
            "tau_table": [{"u": u, "tau": t} for u, t in self.tau_table],
            "tau_mode": self.tau_mode,
            "r_inf": self.r_inf,
            "r_prime_inf": self.r_prime_inf,
            "beta_inf": self.beta_inf,
            "gamma_inf": self.gamma_inf,
            "alpha_inf": self.alpha_inf,
            "degenerate": self.degenerate,
            "even_verified": self.even_verified,
            "identity_gap": self.identity_gap,
            "certified": self.certified,
            "verdict": self.verdict,
        }


def tau_numeric(
    target: DensityModel,
    u: float,
    x0: float = 10.0,
    growth: float = 1.5,
    max_iters: int = 60,
) -> Tuple[float, bool]:
    """Numeric tail-ratio limit along x_k = x0 * growth^k.

    Converged when three successive ratios agree within 1e-6.  The last
    ratio (clamped to [0, 1]) is returned either way.
    """
    if u < 0:
        raise ValueError("tau is defined for u >= 0")
    if x0 <= 0 or growth <= 1:
        raise ValueError("need x0 > 0 and growth > 1")
    if u == 0.0:
        return 1.0, True
    history = []
    x = x0
    for _ in range(max_iters):
        ratio = math.exp(min(0.0, target.log_pdf(x + u) - target.log_pdf(x)))
        history.append(ratio)
        if len(history) >= 3 and max(history[-3:]) - min(history[-3:]) <= 1e-6:
            return min(1.0, max(0.0, history[-1])), True
        x *= growth
    return min(1.0, max(0.0, history[-1])), False


def tail_ratio_for(target: DensityModel, s: float) -> TailRatio:
    """Closed-form tau when available, otherwise the numeric limit.

    Raises TauNotConvergedError when the numeric limit does not settle;
    the windowed (finite-a) bounds are then the only valid output.
    """
    closed = target.tail_ratio(s)
    if closed is not None:
        return closed

    # memoized: beta evaluates the limit at the same u-nodes in every window
    @functools.lru_cache(maxsize=None)
    def fn(u: float) -> float:
        value, converged = tau_numeric(target, u)
        if not converged:
            raise TauNotConvergedError(f"tail ratio did not converge at u={u}")
        return value

    return TailRatio("numeric-limit", s, fn)


def _tail_integral(proposal: ProposalModel, integrand, breakpoints=()) -> float:
    res = adaptive_simpson(integrand, 0.0, proposal.s, _QUAD, breakpoints=breakpoints)
    return res.value


def gamma_inf(proposal: ProposalModel, tau: TailRatio, breakpoints=()) -> float:
    """Limit bound gamma = 1 - int_0^s D(u) (1 - sqrt(tau(u)))^2 du."""
    value = 1.0 - _tail_integral(
        proposal,
        lambda u: proposal.shape(u) * (1.0 - math.sqrt(tau(u))) ** 2,
        breakpoints,
    )
    if value >= 1.0 - 1e-9:
        warnings.warn(
            "degenerate tail ratio: gamma >= 1, the limit bound certifies nothing",
            stacklevel=2,
        )
    return value


def r_prime_inf(proposal: ProposalModel, tau: TailRatio, breakpoints=()) -> float:
    """Limiting tail rejection probability 1 - int_0^s D(u)(1 + tau(u)) du.

    At most 1/2 for every normalized symmetric shape, since then
    int_0^s D = 1/2 and tau >= 0; ModelError otherwise."""
    value = 1.0 - _tail_integral(
        proposal,
        lambda u: proposal.shape(u) * (1.0 + tau(u)),
        breakpoints,
    )
    if value > 0.5 + 1e-9:
        raise ModelError(
            f"limiting tail rejection {value} exceeds 1/2: the proposal shape is not "
            "both symmetric and normalized, as the limit bound assumes"
        )
    return value


def beta_inf(proposal: ProposalModel, tau: TailRatio, breakpoints=()) -> float:
    """Limiting tail constant 2 int_0^s D(u) sqrt(tau(u)) du."""
    return 2.0 * _tail_integral(
        proposal,
        lambda u: proposal.shape(u) * math.sqrt(tau(u)),
        breakpoints,
    )


def _even_target(target: DensityModel, x_max: float) -> bool:
    xs = np.linspace(0.0, x_max, 101)[1:]
    gap = np.max(np.abs(target.log_pdf(xs) - target.log_pdf(-xs)))
    return bool(gap <= 1e-9)


def alpha_inf(
    k: MhKernel,
    tau: Optional[TailRatio] = None,
    x_max: float = 50.0,
    tau_points: int = 33,
) -> AsymptoticReport:
    """Assemble the limit report: tau table, limiting constants, the
    identity check, and the global rejection supremum.

    r_inf is taken as the larger of a windowed scan over [-x_max, x_max]
    and the limiting tail value (valid because r is continuous and
    converges to the tail value)."""
    from .bounds import r_sup_compact  # deferred; bounds builds on this module

    proposal = k.proposal
    if tau is None:
        tau = tail_ratio_for(k.target, proposal.s)

    us = np.linspace(0.0, proposal.s, tau_points)
    tau_table = [(float(u), tau(float(u))) for u in us]

    rp = r_prime_inf(proposal, tau)
    bi = beta_inf(proposal, tau)
    gi = gamma_inf(proposal, tau)
    identity_gap = abs(rp + bi - gi)

    scan = r_sup_compact(k, x_max)
    r_inf = max(scan.value, rp)
    a_inf = max(r_inf, gi)

    degenerate = gi >= 1.0 - 1e-9
    even_verified = _even_target(k.target, x_max)
    certified = (a_inf < 1.0) and not degenerate and scan.converged
    if degenerate:
        verdict = "no certification: tail ratio is degenerate (gamma >= 1)"
    elif not even_verified:
        verdict = (
            f"alpha = {a_inf:.6g} (evenness hypothesis unverified; "
            "use the windowed bounds for asymmetric targets)"
        )
    elif certified:
        verdict = f"quasi-compact certified at level {a_inf:.6g}"
    else:
        verdict = f"no certification (alpha = {a_inf:.6g})"

    return AsymptoticReport(
        tau_table=tau_table,
        tau_mode=tau.mode,
        r_inf=r_inf,
        r_prime_inf=rp,
        beta_inf=bi,
        gamma_inf=gi,
        alpha_inf=a_inf,
        degenerate=degenerate,
        even_verified=even_verified,
        identity_gap=identity_gap,
        certified=certified,
        verdict=verdict,
    )
