"""Windowed (finite truncation radius) bounds on the essential spectral
radius.

For a truncation radius a > 0 the bound is

    alpha_a = max(r_a, r_prime_a + beta_a)

with r_a the rejection supremum over the core [-a, a], r_prime_a the
rejection supremum over the tails, and beta_a the integral over the
proposal range of the tail supremum of sqrt(t(x, x+u) t(x+u, x)).

bound_profile takes every window of a list a_1 < ... < a_n from one pass.
One sup_scan of r(x) has as its rows the 2n + 1 pieces that +-a_i cut
[-x_max, x_max] into: r_a is a running maximum over the rings outward
from [-a_1, a_1], and r_prime_a a running maximum inward from +-x_max.
beta is a fixed Gauss-Legendre rule in u, split at 0 and at the proposal
shape's kinks, whose integrand is computed for all its nodes and windows
in one array pass: per node and tail piece, the minimum of |d(x, u)| on a
coarse x-grid, exactly 0 where d changes sign and otherwise refined by
quad.zoom, the refinement loop of sup_scan (see kernel.MhKernel.log_balance
for d); a window's minimum is the running minimum over the pieces outside
it.  So r_a rises and r_prime_a and beta_a fall with a by construction.

The tail suprema run over unbounded sets; here they are evaluated on a
finite window (a, x_max] on each side and merged (by max) with the limit
values of the tails' slopes (c_+, c_-): r_prime_a with the larger of the
two sides' r_prime_inf, beta's integrand with q(|u|) e^{max(c_+, c_-)
|u|/2}.  _windows alone looks the slopes up.  When they do not settle, it
logs one warning and no window is resolved: the values are then
best-effort lower estimates of the suprema, NOT a valid bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import asymptotics
from .kernel import BLOCK_ELEMENTS, MhKernel, certification
from .models import ModelError
from .quad import Estimate, composite_gauss_legendre, sup_scan, zoom

__all__ = [
    "BoundReport",
    "BoundProfile",
    "r_sup_compact",
    "r_sup_tail",
    "beta",
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


def _windows(k: MhKernel, a_list: Sequence[float], x_max: Optional[float]):
    """a_list as a float array, checked to be positive and increasing;
    x_max, checked to exceed it or defaulted; and the tails' slopes (c_+,
    c_-), or None, with a warning, when they do not settle."""
    a = np.array(a_list, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ModelError("a_list must be a non-empty list of truncation radii")
    if a[0] <= 0:
        raise ModelError("truncation radius a must be positive")
    if np.any(a[1:] <= a[:-1]):
        raise ModelError("a_list must be strictly increasing")
    if x_max is None:
        x_max = default_x_max(float(a[-1]), k.proposal.s)
    if x_max <= a[-1]:
        raise ModelError("x_max must exceed a")
    try:
        slopes = asymptotics.tail_ratio_for(k.target, k.proposal)
    except asymptotics.TauNotConvergedError as exc:
        log.warning("%s: the tail suprema beyond |x|=%g are not resolved, so no window certifies", exc, x_max)
        slopes = None
    return a, float(x_max), slopes


def _merge_limit(k: MhKernel, tail_max, slopes):
    """The tails' maxima merged (by max) with the larger of the two sides'
    r_prime_inf, when the slopes are known."""
    if slopes is None:
        return tail_max
    return np.maximum(tail_max, np.max(asymptotics.r_prime_inf(k.proposal, slopes)))


def r_sup_compact(k: MhKernel, a: float) -> Estimate:
    """Supremum of the rejection probability over the core [-a, a]."""
    if a <= 0:
        raise ValueError("truncation radius a must be positive")
    return sup_scan(k.rejection_grid, -a, a)


def r_sup_tail(k: MhKernel, a: float, x_max: float) -> float:
    """Supremum of the rejection probability over the tails |x| > a: the
    one-window case of bound_profile's tail step."""
    _, x_max, slopes = _windows(k, [a], x_max)
    scan = sup_scan(k.rejection_grid, np.array([a, -x_max]), np.array([x_max, -a]))
    return float(_merge_limit(k, scan.value.max(), slopes))


def beta(k: MhKernel, a_list: Sequence[float], x_max: Optional[float] = None) -> List[Estimate]:
    """Tail constant of each window in ``a_list``: the integral over u of
    the tail supremum of sqrt(t(x, x+u) t(x+u, x)) = sqrt(q(u) q(-u))
    e^{-|d(x, u)|/2}.

    One array pass finds, per node of the rule in u, the minimum of |d|
    on each tail piece [a_i, a_{i+1}] and [-a_{i+1}, -a_i], a_{n+1} =
    x_max (see _min_abs_balance); a window's is the running minimum over
    the pieces outside it, merged with the limiting integrand q(|u|)
    e^{max(c_+, c_-) |u|/2} when the slopes are known.  A window's Estimate
    has the difference against the rule with doubled panels as its error."""
    return _beta(k, *_windows(k, a_list, x_max))


def _beta(k: MhKernel, a: np.ndarray, x_max: float, slopes) -> List[Estimate]:
    """beta on windows that _windows checked, with its slopes."""
    s, n = k.proposal.s, a.size
    edges = np.append(a, x_max)
    lo, hi = np.concatenate([edges[:-1], -edges[1:]]), np.concatenate([edges[1:], -edges[:-1]])
    xs = np.linspace(lo, hi, _BETA_STEPS + 1, axis=1)
    lx = k.target.log_pdf(xs)
    windows = list(zip(xs, lx))
    # the coarse blocks of every window, on the nodes of both rules in u
    coarse = np.empty(BLOCK_ELEMENTS)
    zooms_closed = True

    def integrand(us: np.ndarray) -> np.ndarray:
        nonlocal zooms_closed
        lq = k.proposal.log_shape(us) + k.proposal.log_shape(-us)
        values = np.zeros((n, us.size))
        live = lq > -np.inf
        if np.any(live):
            pieces, closed = _min_abs_balance(k, windows, us[live], coarse)
            zooms_closed = zooms_closed and closed
            min_d = np.minimum.accumulate(pieces.reshape(2, n, -1).min(axis=0)[::-1])[::-1]
            values[:, live] = np.exp(0.5 * (lq[live] - min_d))
        if slopes is not None:
            values = np.maximum(values, k.proposal.shape(np.abs(us)) * np.exp(0.5 * max(slopes) * np.abs(us)))
        return values

    res = composite_gauss_legendre(integrand, -s, s, asymptotics.TAIL_PANELS, (0.0, *k.proposal.kinks))
    return [Estimate(float(v), float(e), zooms_closed and bool(e <= _BETA_TOL)) for v, e in zip(res.value, res.error)]


def _min_abs_balance(k: MhKernel, windows, us: np.ndarray, coarse: np.ndarray):
    """Minimum over each window of |d(x, u)| for every u in ``us``, one
    row per window, and whether every zoom closed.

    ``windows`` holds each window's coarse x-grid with log pi on it.  The
    coarse pass runs in blocks of BLOCK_ELEMENTS, one row per (window, u),
    each written into the caller's buffer ``coarse``; it reads a row's
    argmin and argmax of d and nothing else.  Where d takes both signs on
    a row the minimum is exactly 0: log pi is continuous, so pi(x+u) q(-u)
    = pi(x) q(u) somewhere in the window.  Every other row has one sign
    sigma on its grid, and the argmax of -sigma d = -|d| is the argmin of
    d where d > 0 and its argmax where d < 0 (the first on ties, as in
    quad.bracket).  quad.zoom refines the maximum of the smooth -sigma d
    from the two grid steps around it, so the minimum is max(0,
    -sup(-sigma d)): a zoom that reaches a crossing finds -sigma d > 0
    there.

    x + u, log pi and d are written into slices of buffers reused across
    blocks and levels, so their pages are faulted in once per call."""
    n = us.size
    x, v, lo, hi, sign = np.empty((5, len(windows) * n))
    for w, (xs, lx) in enumerate(windows):
        chunk = BLOCK_ELEMENTS // xs.size
        for start in range(0, n, chunk):
            ub = us[start : start + chunk, None]
            d = k.log_balance(xs, ub, lx, out=coarse[: ub.size * xs.size].reshape(ub.size, xs.size))
            block = slice(w * n + start, w * n + start + ub.size)
            r, low, high = np.arange(ub.size), d.argmin(axis=1), d.argmax(axis=1)
            above, below = d[r, low] > 0.0, d[r, high] < 0.0
            sign[block] = 1.0 * above - below
            i = np.where(above, low, high)
            x[block], v[block] = xs[i], -np.abs(d[r, i])
            lo[block], hi[block] = xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, xs.size - 1)]
    live = np.flatnonzero(sign)
    u, sign = np.tile(us, len(windows))[live, None], sign[live, None]
    buf = None

    def minus_signed_d(xs, rows):
        nonlocal buf
        if buf is None:  # the first level has the most rows
            buf = np.empty(xs.shape)
        d = k.log_balance(xs, u[rows], out=buf[: rows.size])
        return np.multiply(d, -sign[rows], out=d), 0.0

    res = zoom(minus_signed_d, x[live], v[live], lo[live], hi[live], np.zeros(live.size), _BETA_TOL_X)
    best = np.zeros(len(windows) * n)
    best[live] = np.maximum(0.0, -res.value)
    return best.reshape(len(windows), n), bool(res.converged.all())


def bound_profile(k: MhKernel, a_list: Sequence[float], x_max: Optional[float] = None) -> BoundProfile:
    """One report per truncation radius; the bound holds for every a, so
    the profile's minimizer is the bound to quote.  Windows whose alpha_a
    tie with the minimum to within _TIE_TOL go to the smallest a.  All
    windows share one r(x) scan (see the module docstring), and
    ``r_quad_error``, the largest ``Estimate.error`` of that scan, which
    ``kernel.certification`` weighs.  The tails are resolved, in every
    window or in none, when the slopes are known."""
    a, x_max, slopes = _windows(k, a_list, x_max)
    n = a.size
    edges = np.concatenate([[-x_max], -a[::-1], a, [x_max]])
    scan = sup_scan(k.rejection_grid, edges[:-1], edges[1:])
    v, r_converged = scan.value, bool(scan.converged.all())
    r_a = np.maximum.accumulate(np.maximum(v[n:0:-1], v[n:-1]))
    right, left = np.maximum.accumulate(v[:n:-1])[::-1], np.maximum.accumulate(v[:n])[::-1]
    r_prime = _merge_limit(k, np.maximum(right, left), slopes)
    r_quad_error, resolved = float(scan.error.max()), slopes is not None
    reports = []
    for a_i, core, tail, bt in zip(a.tolist(), r_a.tolist(), r_prime.tolist(), _beta(k, a, x_max, slopes)):
        alpha_a = max(core, tail + bt.value)
        converged, certified, verdict = certification(alpha_a, r_quad_error, r_converged and bt.converged, resolved)
        reports.append(
            BoundReport(
                a=a_i,
                r_a=core,
                r_prime_a=tail,
                beta_a=bt.value,
                alpha_a=alpha_a,
                x_max=x_max,
                converged=converged,
                tail_resolved=resolved,
                beta_error=bt.error,
                r_quad_error=r_quad_error,
                certified=certified,
                verdict=verdict,
            )
        )
    lowest = min(r.alpha_a for r in reports)
    best = next(i for i, r in enumerate(reports) if r.alpha_a <= lowest + _TIE_TOL)
    return BoundProfile(reports, best)
