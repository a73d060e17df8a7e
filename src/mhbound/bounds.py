"""Windowed (finite truncation radius) bounds on the essential spectral
radius.

For a truncation radius a > 0 the bound is

    alpha_a = max(r_a, r_prime_a + beta_a)

with r_a the rejection supremum over the core [-a, a], r_prime_a the
rejection supremum over the tails, and beta_a the integral over the
proposal range of the tail supremum of sqrt(t(x, x+u) t(x+u, x)).

The tail suprema run over unbounded sets; here they are evaluated on a
finite window (a, x_max] on each side and merged (by max) with the
known limit value whenever the tail ratio is available.  When neither
the limit is available nor the window has visibly flattened, the report
is flagged: the value is then a best-effort lower estimate of the
supremum, NOT a valid bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from . import asymptotics
from .kernel import MhKernel
from .models import TailRatio
from .quad import AdaptiveSimpsonRule, ScanResult, SupScanConfig, adaptive_simpson, sup_scan

__all__ = [
    "BoundReport",
    "BoundProfile",
    "TailSup",
    "BetaValue",
    "r_sup_compact",
    "r_sup_tail",
    "beta",
    "alpha",
    "bound_profile",
    "default_a_list",
    "default_x_max",
]

log = logging.getLogger(__name__)

_BETA_QUAD = AdaptiveSimpsonRule(abs_tol=1e-8, rel_tol=1e-8, max_depth=24)
_INNER_SCAN = SupScanConfig(coarse_steps=1024, tol_x=1e-8)


@dataclass(frozen=True)
class TailSup:
    value: float
    converged: bool
    tail_resolved: bool


@dataclass(frozen=True)
class BetaValue:
    value: float
    error: float
    converged: bool
    tail_resolved: bool


@dataclass
class BoundReport:
    a: float
    r_a: float
    r_prime_a: float
    beta_a: float
    alpha_a: float
    x_max: float
    r_a_converged: bool
    r_prime_converged: bool
    beta_converged: bool
    tail_resolved: bool
    beta_error: float
    certified: bool
    verdict: str

    @property
    def converged(self) -> bool:
        return self.r_a_converged and self.r_prime_converged and self.beta_converged

    def to_dict(self):
        return {
            "a": self.a,
            "r_a": self.r_a,
            "r_prime_a": self.r_prime_a,
            "beta_a": self.beta_a,
            "alpha_a": self.alpha_a,
            "x_max": self.x_max,
            "converged": self.converged,
            "tail_resolved": self.tail_resolved,
            "beta_error": self.beta_error,
            "certified": self.certified,
            "verdict": self.verdict,
        }


@dataclass
class BoundProfile:
    reports: List[BoundReport]
    best_index: int

    @property
    def best(self) -> BoundReport:
        return self.reports[self.best_index]


def default_x_max(a: float, s: float) -> float:
    return a + 50.0 * s


def default_a_list(s: float) -> List[float]:
    return [s, 2.0 * s, 4.0 * s, 8.0 * s, 16.0 * s]


def _auto_tau(k: MhKernel) -> Optional[TailRatio]:
    try:
        return asymptotics.tail_ratio_for(k.target, k.proposal.s)
    except asymptotics.TauNotConvergedError:
        return None


def r_sup_compact(k: MhKernel, a: float, scan: Optional[SupScanConfig] = None) -> ScanResult:
    """Supremum of the rejection probability over the core [-a, a]."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    result = sup_scan(k.rejection_grid, -a, a, scan)
    # pin the value at the scan argmax with the accurate quadrature path
    accurate = k.rejection_prob(result.argmax)
    return ScanResult(result.argmax, max(result.value, accurate), result.converged)


def r_sup_tail(
    k: MhKernel,
    a: float,
    x_max: float,
    tau: Optional[TailRatio] = None,
    scan: Optional[SupScanConfig] = None,
) -> TailSup:
    """Supremum of the rejection probability over the tails |x| > a.

    Window scans on both sides are merged with the known limit value
    when the tail ratio is available."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    if x_max <= a:
        raise ValueError("x_max must exceed a")
    if tau is None:
        tau = _auto_tau(k)

    f = k.rejection_grid
    pos = sup_scan(f, a, x_max, scan)
    neg = sup_scan(f, -x_max, -a, scan)
    value = max(pos.value, neg.value)
    converged = pos.converged and neg.converged

    if tau is not None:
        limit = asymptotics.r_prime_inf(k.proposal, tau)
        value = max(value, limit)
        return TailSup(value, converged, True)

    resolved = _window_flat(f, a, x_max, pos.value) and _window_flat(
        lambda x: f(-x), a, x_max, neg.value
    )
    if not resolved:
        log.warning(
            "tail supremum beyond |x|=%g not resolved; the reported value is a "
            "lower estimate, not a valid bound",
            x_max,
        )
    return TailSup(value, converged and resolved, resolved)


def _window_flat(f, a: float, x_max: float, window_max: float) -> bool:
    outer = sup_scan(f, x_max - 0.1 * (x_max - a), x_max, SupScanConfig(coarse_steps=256))
    return abs(window_max - outer.value) <= 1e-6 or outer.value >= window_max - 1e-6


def beta(
    k: MhKernel,
    a: float,
    x_max: Optional[float] = None,
    tau: Optional[TailRatio] = None,
) -> BetaValue:
    """Tail constant: integral over u of the tail supremum of
    sqrt(t(x, x+u) t(x+u, x)).

    For each quadrature node u a fresh supremum scan runs on both tails,
    merged with the limiting integrand when the tail ratio is known."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    s = k.proposal.s
    if x_max is None:
        x_max = default_x_max(a, s)
    if x_max <= a:
        raise ValueError("x_max must exceed a")
    if tau is None:
        tau = _auto_tau(k)

    scans_converged = True

    def integrand(u: float) -> float:
        nonlocal scans_converged
        def g(x):
            return k.sqrt_tt(x, u)

        pos = sup_scan(g, a, x_max, _INNER_SCAN)
        neg = sup_scan(g, -x_max, -a, _INNER_SCAN)
        scans_converged = scans_converged and pos.converged and neg.converged
        value = max(pos.value, neg.value)
        if tau is not None:
            t = tau(abs(u))
            limit = k.proposal.shape(abs(u)) * min(math.sqrt(t), _inv_sqrt(t))
            value = max(value, limit)
        return value

    res = adaptive_simpson(integrand, -s, s, _BETA_QUAD, breakpoints=(0.0,))
    return BetaValue(res.value, res.error, res.converged and scans_converged, tau is not None)


def _inv_sqrt(t: float) -> float:
    return math.inf if t == 0.0 else 1.0 / math.sqrt(t)


def alpha(
    k: MhKernel,
    a: float,
    x_max: Optional[float] = None,
    tau: Optional[TailRatio] = None,
    scan: Optional[SupScanConfig] = None,
) -> BoundReport:
    """Assemble the windowed bound alpha_a = max(r_a, r_prime_a + beta_a)."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    s = k.proposal.s
    if x_max is None:
        x_max = default_x_max(a, s)
    if tau is None:
        tau = _auto_tau(k)

    core = r_sup_compact(k, a, scan)
    tail = r_sup_tail(k, a, x_max, tau, scan)
    bt = beta(k, a, x_max, tau)
    alpha_a = max(core.value, tail.value + bt.value)
    converged = core.converged and tail.converged and bt.converged
    certified = alpha_a < 1.0 and converged and (tail.tail_resolved and bt.tail_resolved)
    if certified:
        verdict = f"quasi-compact certified at level {alpha_a:.6g}"
    else:
        verdict = f"no certification (alpha = {alpha_a:.6g})"
    return BoundReport(
        a=a,
        r_a=core.value,
        r_prime_a=tail.value,
        beta_a=bt.value,
        alpha_a=alpha_a,
        x_max=x_max,
        r_a_converged=core.converged,
        r_prime_converged=tail.converged,
        beta_converged=bt.converged,
        tail_resolved=tail.tail_resolved and bt.tail_resolved,
        beta_error=bt.error,
        certified=certified,
        verdict=verdict,
    )


def bound_profile(
    k: MhKernel,
    a_list: Sequence[float],
    x_max: Optional[float] = None,
    tau: Optional[TailRatio] = None,
    scan: Optional[SupScanConfig] = None,
) -> BoundProfile:
    """One report per truncation radius; the bound holds for every a, so
    the profile's minimizer is the bound to quote."""
    a_list = list(a_list)
    if not a_list:
        raise ValueError("a_list must be non-empty")
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise ValueError("a_list must be strictly increasing")
    if tau is None:
        tau = _auto_tau(k)
    if x_max is None:
        x_max = default_x_max(max(a_list), k.proposal.s)
    reports = [alpha(k, a, x_max, tau, scan) for a in a_list]
    best = min(range(len(reports)), key=lambda i: reports[i].alpha_a)
    return BoundProfile(reports, best)
