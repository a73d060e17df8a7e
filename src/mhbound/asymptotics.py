"""Asymptotic (limit) bound: the tails' slopes and the closed forms for
the limiting rejection and tail constants.

Where a tail's ratio tau(u) = lim pi(x+u)/pi(x) exists for every u, it is
multiplicative and measurable, so tau(u) = e^{cu} with one slope c in
[-inf, 0] (see the README's limit bound): c_+ for the right tail and c_-
for the left one, tau_-(u) = lim_{x -> -inf} pi(x-u)/pi(x).  For a
symmetric finite-range proposal with shape D on [-s, s], a tail of slope c
has the limiting constants

    r_prime_inf(c) = 1 - int_0^s D(u) (1 + e^{cu}) du          (<= 1/2)
    beta_inf(c)    = 2 int_0^s D(u) e^{cu/2} du
    gamma_inf(c)   = 1 - int_0^s D(u) (1 - e^{cu/2})^2 du

with the algebraic identity r_prime_inf + beta_inf = gamma_inf; gamma
rises with c.  The limit bound on the essential spectral radius is
alpha_inf = max(r_inf, gamma(c_+), gamma(c_-)), where r_inf is the global
supremum of the rejection probability.

The three integrals share one node set, the positive half of
bounds.beta's rule, so the identity holds to rounding.  No node is 0,
where c u is NaN at c = -inf.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .kernel import MhKernel, certification
from .models import DensityModel, ModelError, ProposalModel
from .quad import gauss_legendre_grid, sup_scan

__all__ = [
    "AsymptoticReport",
    "TauNotConvergedError",
    "tail_ratio_for",
    "gamma_inf",
    "r_prime_inf",
    "beta_inf",
    "alpha_inf",
]

log = logging.getLogger(__name__)

#: panels per piece of the rule in u of the limit constants and of
#: bounds.beta
TAIL_PANELS = 4
#: alpha_inf's rejection scan covers [-_X_MAX, _X_MAX]; its tau table has
#: _TAU_POINTS rows on [0, s]
_X_MAX = 50.0
_TAU_POINTS = 33
#: the slope estimator's secants sit at |x| = 10 * 1.5^k, k < 60
_SECANT_X0, _SECANT_GROWTH, _SECANT_STEPS = 10.0, 1.5, 60


class TauNotConvergedError(RuntimeError):
    pass


@dataclass
class AsymptoticReport:
    #: rows {"u": u, "tau_plus": e^{c_+ u}, "tau_minus": e^{c_- u}}
    tau_table: List[Dict[str, float]]
    tau_mode: str
    r_inf: float
    r_prime_inf: float
    beta_inf: float
    gamma_inf: float
    alpha_inf: float
    degenerate: bool
    identity_gap: float
    r_quad_error: float
    certified: bool
    verdict: str


def _tail_rule(proposal: ProposalModel):
    """Nodes on [0, s] of the limit constants' rule, TAIL_PANELS panels per
    piece split at the shape's kinks, and its weights times D(u)."""
    us, ws = gauss_legendre_grid(0.0, proposal.s, TAIL_PANELS, proposal.kinks)
    return us, proposal.shape(us) * ws


def _secant_slope(target: DensityModel, side: float, s: float, u_min: float) -> float:
    """One tail's slope, from the secants (l(x + side*s) - l(x))/s of
    l = log pi at x = side * 10 * 1.5^k, each clamped to at most 0.  A
    finite slope is accepted once two successive secants agree to within
    1e-9 max(1, |c|); -inf once e^{c u_min} underflows, since every node of
    the rule then sees the constants of c = -inf.  Both are heuristics."""
    previous, x = math.nan, _SECANT_X0
    for _ in range(_SECANT_STEPS):
        c = min(0.0, (target.log_pdf(side * (x + s)) - target.log_pdf(side * x)) / s)
        if math.exp(c * u_min) == 0.0:
            return -math.inf
        if abs(c - previous) <= 1e-9 * max(1.0, abs(c)):
            return c
        previous, x = c, x * _SECANT_GROWTH
    raise TauNotConvergedError(f"the {'right' if side > 0 else 'left'} tail's slope did not settle")


def tail_ratio_for(target: DensityModel, proposal: ProposalModel) -> Tuple[float, float]:
    """(c_+, c_-), the slopes of tau_+-(u) = e^{c_+- u}: the target's closed
    form when it has one, else the secant estimate of each tail, with the
    smallest node of ``proposal``'s limit rule as u_min.

    Raises TauNotConvergedError when either side does not settle; the
    windowed (finite-a) bounds are then the only valid output.  A
    ModelError from log pi propagates."""
    closed = target.tail_slopes()
    if closed is not None:
        return closed
    u_min = float(_tail_rule(proposal)[0].min())
    return _secant_slope(target, 1.0, proposal.s, u_min), _secant_slope(target, -1.0, proposal.s, u_min)


def _root_ratio(proposal: ProposalModel, c):
    """e^{c u/2} at the nodes of the limit rule, one row per slope in ``c``,
    and the rule's weights times D(u)."""
    us, dw = _tail_rule(proposal)
    return np.exp(np.multiply.outer(0.5 * np.asarray(c, dtype=float), us)), dw


def gamma_inf(proposal: ProposalModel, c):
    """Limit bound gamma(c) = 1 - int_0^s D(u) (1 - e^{cu/2})^2 du, for a
    slope or an array of slopes."""
    h, dw = _root_ratio(proposal, c)
    value = 1.0 - np.vecdot((1.0 - h) ** 2, dw)
    if np.any(value >= 1.0 - 1e-9):
        log.warning("degenerate tail ratio: gamma >= 1, the limit bound certifies nothing")
    return value


def r_prime_inf(proposal: ProposalModel, c):
    """Limiting tail rejection probability 1 - int_0^s D(u)(1 + e^{cu}) du,
    for a slope or an array of slopes.

    At most 1/2 for every normalized symmetric shape, since then
    int_0^s D = 1/2; ModelError otherwise."""
    h, dw = _root_ratio(proposal, c)
    value = 1.0 - np.vecdot(1.0 + h * h, dw)
    if np.any(value > 0.5 + 1e-9):
        raise ModelError(
            f"limiting tail rejection {np.max(value)} exceeds 1/2: the proposal shape is not "
            "both symmetric and normalized, as the limit bound assumes"
        )
    return value


def beta_inf(proposal: ProposalModel, c):
    """Limiting tail constant 2 int_0^s D(u) e^{cu/2} du, for a slope or an
    array of slopes."""
    h, dw = _root_ratio(proposal, c)
    return 2.0 * np.vecdot(h, dw)


def alpha_inf(k: MhKernel) -> AsymptoticReport:
    """Assemble the limit report: tau table, limiting constants, the
    identity check, and the global rejection supremum.

    alpha_inf = max(r_inf, gamma_+, gamma_-).  The reported r'_inf, beta_inf
    and gamma_inf, and the identity check, are the binding side's: the one
    with the larger slope, since gamma rises with c.  r_inf is the largest
    of a scan of r over [-_X_MAX, _X_MAX] and both sides' limiting values
    (valid because r is continuous and converges to them).
    ``r_quad_error`` is that scan's ``Estimate.error``."""
    proposal = k.proposal
    c = np.array(tail_ratio_for(k.target, proposal))

    us = np.linspace(0.0, proposal.s, _TAU_POINTS)
    # tau(0) = 1: c * 0 is NaN at c = -inf
    tau = np.ones((2, us.size))
    tau[:, 1:] = np.exp(np.multiply.outer(c, us[1:]))
    tau_table = [{"u": u, "tau_plus": p, "tau_minus": m} for u, p, m in zip(us.tolist(), *tau.tolist())]

    rp, bi, gi = r_prime_inf(proposal, c), beta_inf(proposal, c), gamma_inf(proposal, c)
    side = int(np.argmax(gi))
    identity_gap = abs(rp[side] + bi[side] - gi[side])

    scan = sup_scan(k.rejection_grid, -_X_MAX, _X_MAX)
    r_inf = max(scan.value, rp.max())
    a_inf = max(r_inf, gi[side])

    degenerate = bool(gi[side] >= 1.0 - 1e-9)
    _, certified, verdict = certification(float(a_inf), scan.error, scan.converged, True, degenerate)

    return AsymptoticReport(
        tau_table=tau_table,
        tau_mode="numeric-limit" if k.target.tail_slopes() is None else "closed-form",
        r_inf=float(r_inf),
        r_prime_inf=float(rp[side]),
        beta_inf=float(bi[side]),
        gamma_inf=float(gi[side]),
        alpha_inf=float(a_inf),
        degenerate=degenerate,
        identity_gap=float(identity_gap),
        r_quad_error=scan.error,
        certified=certified,
        verdict=verdict,
    )
