"""One-dimensional quadrature and supremum-over-interval scanning.

The package integrates with one rule, composite Gauss-Legendre split at
known kinks (``gauss_legendre_grid`` builds its nodes), so an integrand is
evaluated on one array.  ``adaptive_simpson`` is only the tests' reference.

sup_scan is a coarse-grid scan followed by a zoom: each level evaluates
the function once, on an array of evenly spaced points across the two
grid steps around the running maximum.  It is not a global optimizer:
the documented assumption is that the scanned function's oscillation on
the coarse step is below the requested tolerance.

All functions here are pure and safe to call concurrently; reductions
run in fixed index order for reproducibility.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "GaussLegendreRule",
    "AdaptiveSimpsonRule",
    "IntegrationResult",
    "SupScanConfig",
    "ScanResult",
    "gauss_legendre_nodes",
    "gauss_legendre_grid",
    "adaptive_simpson",
    "composite_gauss_legendre",
    "sup_scan",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GaussLegendreRule:
    nodes_per_panel: int = 16
    panels: int = 64


@dataclass(frozen=True)
class AdaptiveSimpsonRule:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error: float
    converged: bool


@dataclass(frozen=True)
class SupScanConfig:
    #: number of coarse subintervals; the coarse step is (hi-lo)/coarse_steps
    coarse_steps: int = 2048
    #: bracket width at which zoom refinement stops
    tol_x: float = 1e-8


@dataclass(frozen=True)
class ScanResult:
    argmax: float
    value: float
    converged: bool


@lru_cache(maxsize=64)
def gauss_legendre_nodes(k: int):
    x, w = np.polynomial.legendre.leggauss(k)
    return x, w


def _split_at_breakpoints(lo: float, hi: float, breakpoints: Iterable[float]):
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo] + cuts + [hi]
    return list(zip(edges[:-1], edges[1:]))


def gauss_legendre_grid(
    lo: float,
    hi: float,
    rule: GaussLegendreRule = GaussLegendreRule(),
    breakpoints: Sequence[float] = (),
):
    """Nodes and weights of the composite Gauss-Legendre rule on [lo, hi]:
    the interval is split at the breakpoints inside it, and each piece gets
    ``rule.panels`` equal panels of ``rule.nodes_per_panel`` nodes."""
    pieces = _split_at_breakpoints(lo, hi, breakpoints)
    edges = np.concatenate([np.linspace(a, b, rule.panels + 1)[:-1] for a, b in pieces] + [[hi]])
    x, w = gauss_legendre_nodes(rule.nodes_per_panel)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def composite_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rule: GaussLegendreRule = GaussLegendreRule(),
    breakpoints: Sequence[float] = (),
) -> IntegrationResult:
    """Composite Gauss-Legendre integration; ``f`` must accept ndarrays.

    Each pass calls ``f`` once, on the nodes of ``gauss_legendre_grid``.
    The reported error is the difference against a doubled-panel
    evaluation of the same integrand.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    if lo == hi:
        return IntegrationResult(0.0, 0.0, True)

    def one_pass(panels: int) -> float:
        xs, ws = gauss_legendre_grid(lo, hi, replace(rule, panels=panels), breakpoints)
        return float(np.asarray(f(xs), dtype=float) @ ws)

    coarse = one_pass(rule.panels)
    fine = one_pass(2 * rule.panels)
    return IntegrationResult(fine, abs(fine - coarse), True)


def adaptive_simpson(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rule: AdaptiveSimpsonRule = AdaptiveSimpsonRule(),
    breakpoints: Sequence[float] = (),
) -> IntegrationResult:
    """Adaptive Simpson integration with Richardson correction; the
    tests' reference for the Gauss-Legendre rule, not used by the package.

    Hitting max_depth is reported via converged=False, not raised: the
    result is still usable, with the accumulated error estimate.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    if lo == hi:
        return IntegrationResult(0.0, 0.0, True)

    total = 0.0
    err = 0.0
    converged = True
    for seg_lo, seg_hi in _split_at_breakpoints(lo, hi, breakpoints):
        v, e, ok = _adaptive_segment(f, seg_lo, seg_hi, rule)
        total += v
        err += e
        converged = converged and ok
    return IntegrationResult(total, err, converged)


def _adaptive_segment(f, lo, hi, rule: AdaptiveSimpsonRule):
    flo, fhi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    tol = max(rule.abs_tol, rule.rel_tol * abs(whole))

    value = 0.0
    err = 0.0
    converged = True
    # explicit stack instead of recursion; order does not matter for the sum
    stack = [(lo, flo, mid, fmid, hi, fhi, whole, tol, 0)]
    while stack:
        a, fa, m, fm, b, fb, s_whole, s_tol, depth = stack.pop()
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        s_left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = s_left + s_right - s_whole
        if abs(delta) <= 15.0 * s_tol or depth >= rule.max_depth:
            value += s_left + s_right + delta / 15.0
            err += abs(delta) / 15.0
            if abs(delta) > 15.0 * s_tol:
                converged = False
        else:
            half_tol = 0.5 * s_tol
            stack.append((a, fa, lm, flm, m, fm, s_left, half_tol, depth + 1))
            stack.append((m, fm, rm, frm, b, fb, s_right, half_tol, depth + 1))
    return value, err, converged


#: points per zoom level; 33 points make 32 steps over a two-step bracket
_ZOOM_POINTS = 33
#: cap on levels, the coarse grid included; it only binds when tol_x is
#: below the float64 spacing near the argmax
_MAX_LEVELS = 17


def _eval_grid(f, xs: np.ndarray) -> tuple[np.ndarray, bool]:
    """f on the points ``xs``, and whether f took them as one array.  A
    function that raises TypeError on the array, or returns another shape,
    is called once per point."""
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals, True
    except TypeError:
        pass
    return np.array([float(f(x)) for x in xs]), False


def sup_scan(
    f: Callable,
    lo: float,
    hi: float,
    cfg: Optional[SupScanConfig] = None,
) -> ScanResult:
    """Locate the supremum of f on [lo, hi] by coarse scan + zoom.

    Each zoom level evaluates f once on _ZOOM_POINTS evenly spaced points
    spanning the two grid steps around the current argmax, so the bracket
    shrinks at least 16-fold per level until it is <= cfg.tol_x.  The
    returned value is the maximum over every point evaluated, so it
    dominates the value at every coarse grid point by construction.
    """
    if not lo < hi:
        raise ValueError("sup_scan requires lo < hi")
    if cfg is None:
        cfg = SupScanConfig()

    xs = np.linspace(lo, hi, cfg.coarse_steps + 1)
    per_point = 0  # levels at which f did not take the array
    for level in range(_MAX_LEVELS):
        vals, whole = _eval_grid(f, xs)
        per_point += not whole
        i = int(np.argmax(vals))
        # seeding from the coarse grid keeps a NaN there in the result
        if level == 0 or vals[i] > best_v:
            best_x, best_v = float(xs[i]), float(vals[i])
        bl = float(xs[max(i - 1, 0)])
        br = float(xs[min(i + 1, len(xs) - 1)])
        if br - bl <= cfg.tol_x:
            break
        xs = np.linspace(bl, br, _ZOOM_POINTS)
    if per_point:
        log.debug("sup_scan: %r takes no array; evaluated point by point at %d of %d levels", f, per_point, level + 1)
    return ScanResult(best_x, best_v, br - bl <= cfg.tol_x)
