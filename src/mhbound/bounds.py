"""Windowed (finite truncation radius) bounds on the essential spectral
radius.

For a truncation radius a > 0 the bound is

    alpha_a = max(r_a, r_prime_a + beta_a)

with r_a the rejection supremum over the core [-a, a], r_prime_a the
rejection supremum over the tails, and beta_a the integral over the
proposal range of the tail supremum of sqrt(t(x, x+u) t(x+u, x)).

r_a and r_prime_a come from sup_scan over r(x), with the two tail
windows as two rows of one scan.  beta_a is a fixed Gauss-Legendre rule
in u, split at 0 and at the proposal shape's kinks, whose integrand is
computed for all its nodes in one array pass: per node, the minimum of
|d(x, u)| over both tail windows on a coarse x-grid, exactly 0 where d
changes sign and otherwise refined by quad.zoom, the refinement loop of
sup_scan (see kernel.MhKernel.log_balance for d).

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
from .kernel import BLOCK_ELEMENTS, R_QUAD_TOL, MhKernel
from .models import TailRatio
from .quad import ScanResult, SupScanConfig, bracket, composite_gauss_legendre, sup_scan, zoom

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

#: beta's rule in u has asymptotics.TAIL_PANELS panels per piece, against 8
#: for the error estimate; converged requires that error to be at most
#: _BETA_TOL (beta itself is at most 1)
_BETA_TOL = 1e-8
#: coarse steps of each tail window's x-grid, and the zoom's bracket width
#: at which beta's per-u minimum of |d| stops
_BETA_STEPS = 1024
_BETA_TOL_X = 1e-8
#: alpha_a within this of the profile's minimum tie with it; far below
#: _BETA_TOL, so only rounding separates tied windows
_TIE_TOL = 1e-12


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
    converged: bool
    tail_resolved: bool
    beta_error: float
    r_quad_error: float
    certified: bool
    verdict: str


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


def r_sup_compact(k: MhKernel, a: float) -> ScanResult:
    """Supremum of the rejection probability over the core [-a, a]."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    return sup_scan(k.rejection_grid, -a, a)


def r_sup_tail(k: MhKernel, a: float, x_max: float, tau: Optional[TailRatio] = None) -> TailSup:
    """Supremum of the rejection probability over the tails |x| > a.

    One scan takes both windows as rows, and its value is merged with the
    known limit value when the tail ratio is available.  Otherwise the
    tail counts as resolved when each window's outer tenth, scanned on 256
    steps, reaches the window's maximum to within 1e-6."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    if x_max <= a:
        raise ValueError("x_max must exceed a")
    if tau is None:
        tau = _auto_tau(k)

    f = k.rejection_grid
    window = sup_scan(f, np.array([a, -x_max]), np.array([x_max, -a]))
    value = float(window.value.max())
    converged = bool(window.converged.all())

    if tau is not None:
        limit = asymptotics.r_prime_inf(k.proposal, tau)
        value = max(value, limit)
        return TailSup(value, converged, True)

    inner = x_max - 0.1 * (x_max - a)
    outer = sup_scan(f, np.array([inner, -x_max]), np.array([x_max, -inner]), SupScanConfig(coarse_steps=256))
    resolved = bool(np.all(outer.value >= window.value - 1e-6))
    if not resolved:
        log.warning(
            "tail supremum beyond |x|=%g not resolved; the reported value is a "
            "lower estimate, not a valid bound",
            x_max,
        )
    return TailSup(value, converged and resolved, resolved)


def beta(
    k: MhKernel,
    a: float,
    x_max: Optional[float] = None,
    tau: Optional[TailRatio] = None,
) -> BetaValue:
    """Tail constant: integral over u of the tail supremum of
    sqrt(t(x, x+u) t(x+u, x)) = sqrt(q(u) q(-u)) e^{-|d(x, u)|/2}.

    A fixed Gauss-Legendre rule in u (split at 0 and at the shape's
    kinks) evaluates the integrand on all its nodes at once: one array
    pass finds, per node, the minimum of |d| over both tail windows (see
    _min_abs_balance), merged with the limiting integrand when the tail
    ratio is known.  The error is the difference against the rule with
    doubled panels."""
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

    res = composite_gauss_legendre(integrand, -s, s, asymptotics.TAIL_PANELS, (0.0, *k.proposal.kinks))
    converged = zooms_closed and res.error <= _BETA_TOL
    return BetaValue(res.value, res.error, converged, tau is not None)


def _min_abs_balance(k: MhKernel, windows, us: np.ndarray):
    """Minimum over the tail windows of |d(x, u)| for every u in ``us``,
    and whether every zoom closed.

    ``windows`` holds each window's coarse x-grid with log pi on it.  The
    coarse pass runs in blocks of BLOCK_ELEMENTS, one row per (window, u).
    Where d takes both signs on a row the minimum is exactly 0: log pi is
    continuous, so pi(x+u) q(-u) = pi(x) q(u) somewhere in the window.
    Every other row has one sign sigma on its grid, and quad.zoom refines
    the maximum of the smooth -sigma d from the row's coarse bracket, so
    the minimum is max(0, -sup(-sigma d)): a zoom that reaches a crossing
    finds -sigma d > 0 there.

    The arrays handed to log_pdf are slices of buffers reused across
    blocks and levels, so their pages are faulted in once per call."""
    n = us.size
    x, v, lo, hi, sign = np.empty((5, len(windows) * n))
    for w, (xs, lx) in enumerate(windows):
        chunk = max(1, BLOCK_ELEMENTS // xs.size)
        y = np.empty((min(chunk, n), xs.size))
        for start in range(0, n, chunk):
            ub = us[start : start + chunk, None]
            d = k.log_balance(xs, ub, lx, out=y[: ub.size])
            block = slice(w * n + start, w * n + start + ub.size)
            crossed = (d.min(axis=1) <= 0.0) & (d.max(axis=1) >= 0.0)
            sign[block] = np.where(crossed, 0.0, np.sign(d[:, 0]))
            np.negative(np.abs(d, out=d), out=d)
            x[block], v[block], lo[block], hi[block] = bracket(xs, d)
    live = np.flatnonzero(sign)
    u, sign = np.tile(us, len(windows))[live, None], sign[live, None]
    buf = None

    def minus_signed_d(xs, rows):
        nonlocal buf
        if buf is None:  # the first level has the most rows
            buf = np.empty(xs.shape)
        d = k.log_balance(xs, u[rows], out=buf[: rows.size])
        return np.multiply(d, -sign[rows], out=d)

    res = zoom(minus_signed_d, x[live], v[live], lo[live], hi[live], _BETA_TOL_X)
    best = np.zeros(len(windows) * n)
    best[live] = np.maximum(0.0, -res.value)
    return best.reshape(len(windows), n).min(axis=0), bool(res.converged.all())


def alpha(
    k: MhKernel,
    a: float,
    x_max: Optional[float] = None,
    tau: Optional[TailRatio] = None,
) -> BoundReport:
    """Assemble the windowed bound alpha_a = max(r_a, r_prime_a + beta_a).
    ``r_quad_error`` is the largest error estimate of the r(x) evaluated
    here; above R_QUAD_TOL the window is not converged."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    s = k.proposal.s
    if x_max is None:
        x_max = default_x_max(a, s)
    if tau is None:
        tau = _auto_tau(k)

    k.r_quad_error = 0.0
    core = r_sup_compact(k, a)
    tail = r_sup_tail(k, a, x_max, tau)
    bt = beta(k, a, x_max, tau)
    alpha_a = max(core.value, tail.value + bt.value)
    converged = core.converged and tail.converged and bt.converged and k.r_quad_error <= R_QUAD_TOL
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
        converged=converged,
        tail_resolved=tail.tail_resolved and bt.tail_resolved,
        beta_error=bt.error,
        r_quad_error=k.r_quad_error,
        certified=certified,
        verdict=verdict,
    )


def bound_profile(
    k: MhKernel,
    a_list: Sequence[float],
    x_max: Optional[float] = None,
    tau: Optional[TailRatio] = None,
) -> BoundProfile:
    """One report per truncation radius; the bound holds for every a, so
    the profile's minimizer is the bound to quote.  Windows whose alpha_a
    tie with the minimum to within _TIE_TOL go to the smallest a."""
    a_list = list(a_list)
    if not a_list:
        raise ValueError("a_list must be non-empty")
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise ValueError("a_list must be strictly increasing")
    if tau is None:
        tau = _auto_tau(k)
    if x_max is None:
        x_max = default_x_max(max(a_list), k.proposal.s)
    reports = [alpha(k, a, x_max, tau) for a in a_list]
    lowest = min(r.alpha_a for r in reports)
    best = next(i for i, r in enumerate(reports) if r.alpha_a <= lowest + _TIE_TOL)
    return BoundProfile(reports, best)
