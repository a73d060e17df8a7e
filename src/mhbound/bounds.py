"""Windowed (finite truncation radius) bounds on the essential spectral
radius.

For a truncation radius a > 0 the bound is

    alpha_a = max(r_a, r_prime_a + beta_a)

with r_a the rejection supremum over the core [-a, a], r_prime_a the
rejection supremum over the tails, and beta_a the integral over the
proposal range of the tail supremum of sqrt(t(x, x+u) t(x+u, x)).

r_a and r_prime_a come from sup_scan over r(x).  beta_a is a fixed
Gauss-Legendre rule in u whose integrand is computed for all its nodes
in one array pass: per node, the minimum of |d(x, u)| over both tail
windows on a coarse x-grid, refined by a joint zoom, and exactly 0 where
d changes sign (see kernel.MhKernel.log_balance for d).

The tail suprema run over unbounded sets; here they are evaluated on a
finite window (a, x_max] on each side and merged (by max) with the
known limit value whenever the tail ratio is available.  When neither
the limit is available nor the window has visibly flattened, the report
is flagged: the value is then a best-effort lower estimate of the
supremum, NOT a valid bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import asymptotics
from .kernel import BLOCK_ELEMENTS, MhKernel
from .models import TailRatio
from .quad import (
    _MAX_LEVELS,
    _ZOOM_POINTS,
    GaussLegendreRule,
    ScanResult,
    SupScanConfig,
    composite_gauss_legendre,
    sup_scan,
)

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

#: beta's rule in u: 16 nodes on each of 4 panels per half-range, against
#: 8 panels for the error estimate; converged requires that error to be
#: at most _BETA_TOL (beta itself is at most 1)
_BETA_RULE = GaussLegendreRule(nodes_per_panel=16, panels=4)
_BETA_TOL = 1e-8
#: coarse steps of each tail window's x-grid, and the zoom's bracket width
#: at which beta's per-u minimum of |d| stops
_BETA_STEPS = 1024
_BETA_TOL_X = 1e-8


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
    sqrt(t(x, x+u) t(x+u, x)) = sqrt(q(u) q(-u)) e^{-|d(x, u)|/2}.

    A fixed Gauss-Legendre rule in u (split at 0) evaluates the integrand
    on all its nodes at once: one array pass finds, per node, the minimum
    of |d| over both tail windows (see _min_abs_balance), merged with the
    limiting integrand when the tail ratio is known.  The error is the
    difference against the rule with doubled panels."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    s = k.proposal.s
    if x_max is None:
        x_max = default_x_max(a, s)
    if x_max <= a:
        raise ValueError("x_max must exceed a")
    if tau is None:
        tau = _auto_tau(k)

    windows = []
    for lo, hi in ((a, x_max), (-x_max, -a)):
        xs = np.linspace(lo, hi, _BETA_STEPS + 1)
        windows.append((xs, k.target.log_pdf(xs)))
    zooms_closed = True

    def integrand(us: np.ndarray) -> np.ndarray:
        nonlocal zooms_closed
        lq = k.proposal.log_shape(us) + k.proposal.log_shape(-us)
        values = np.zeros(us.size)
        live = lq > -np.inf
        if np.any(live):
            min_d, closed = _min_abs_balance(k, windows, us[live])
            zooms_closed = zooms_closed and closed
            values[live] = np.exp(0.5 * (lq[live] - min_d))
        if tau is not None:
            v, inverse = np.unique(np.abs(us), return_inverse=True)
            limit = k.proposal.shape(v) * np.sqrt([tau(float(x)) for x in v])
            values = np.maximum(values, limit[inverse])
        return values

    res = composite_gauss_legendre(integrand, -s, s, _BETA_RULE, breakpoints=(0.0,))
    converged = zooms_closed and res.error <= _BETA_TOL
    return BetaValue(res.value, res.error, converged, tau is not None)


def _min_abs_balance(k: MhKernel, windows, us: np.ndarray):
    """Minimum over the tail windows of |d(x, u)| for every u in ``us``,
    and whether every zoom closed.

    ``windows`` holds each window's coarse x-grid with log pi on it.  The
    coarse pass runs in blocks of BLOCK_ELEMENTS; a zoom then refines
    every (window, u) row at once, evaluating _ZOOM_POINTS points across
    the two grid steps around the row's argmin, as sup_scan does, until
    the bracket is at most _BETA_TOL_X wide.  Where d takes both signs
    the minimum is exactly 0: log pi is continuous, so
    pi(x+u) q(-u) = pi(x) q(u) somewhere in the window.

    The arrays handed to log_pdf are slices of buffers reused across
    blocks and levels: exprlang.evaluate_array keeps its input alive until
    the cyclic garbage collector runs, so a new array per block would
    pile up."""
    shape = (len(windows), us.size)
    best, lo, hi = np.empty(shape), np.empty(shape), np.empty(shape)
    crossed = np.empty(shape, dtype=bool)
    for w, (xs, lx) in enumerate(windows):
        chunk = max(1, BLOCK_ELEMENTS // xs.size)
        y = np.empty((xs.size, min(chunk, us.size)))
        for start in range(0, us.size, chunk):
            block = slice(start, start + chunk)
            ub = us[None, block]
            d = k.log_balance(xs[:, None], ub, lx[:, None], out=y[:, : ub.size])
            crossed[w, block] = (d.min(axis=0) <= 0.0) & (d.max(axis=0) >= 0.0)
            np.abs(d, out=d)
            at = d.argmin(axis=0)
            best[w, block] = d[at, np.arange(at.size)]
            lo[w, block] = xs[np.maximum(at - 1, 0)]
            hi[w, block] = xs[np.minimum(at + 1, xs.size - 1)]
    # one row per (window, u) from here on
    best, lo, hi, crossed = best.ravel(), lo.ravel(), hi.ravel(), crossed.ravel()
    u = np.tile(us, len(windows))
    x_buf, y_buf = np.empty((2, u.size, _ZOOM_POINTS))
    for _ in range(_MAX_LEVELS - 1):
        rows = np.flatnonzero(~crossed & (hi - lo > _BETA_TOL_X))
        if rows.size == 0:
            break
        xs = x_buf[: rows.size]
        xs[...] = np.linspace(lo[rows], hi[rows], _ZOOM_POINTS, axis=1)
        d = k.log_balance(xs, u[rows, None], out=y_buf[: rows.size])
        crossed[rows] |= (d.min(axis=1) <= 0.0) & (d.max(axis=1) >= 0.0)
        np.abs(d, out=d)
        j = d.argmin(axis=1)
        r = np.arange(rows.size)
        best[rows] = np.minimum(best[rows], d[r, j])
        lo[rows] = xs[r, np.maximum(j - 1, 0)]
        hi[rows] = xs[r, np.minimum(j + 1, _ZOOM_POINTS - 1)]
    best[crossed] = 0.0
    closed = bool(np.all(crossed | (hi - lo <= _BETA_TOL_X)))
    return best.reshape(shape).min(axis=0), closed


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
