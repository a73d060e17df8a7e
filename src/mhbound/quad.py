"""One-dimensional quadrature and supremum-over-interval scanning.

The package integrates with one rule, composite Gauss-Legendre split at
known kinks (``gauss_legendre_grid`` builds its nodes).  An integrand is
evaluated once, on one array: the rule's nodes and those of the rule with
doubled panels, whose difference is the error estimate.
``adaptive_simpson`` is only the tests' reference.

sup_scan is a coarse-grid scan followed by a zoom: each level evaluates
the function once, on an array of evenly spaced points across the two
grid steps around the level's maximum, for every row of a batch of
intervals at once.  ``zoom`` is that refinement loop; bounds.beta and
exprlang.kinks run it on their own coarse passes.  It is not a global
optimizer: the documented assumption is that the scanned function's
oscillation on the coarse step is below the requested tolerance.
``bisect`` is the one bisection loop, and ``Estimate`` the one record of
every supremum (with its argmax) and integral, with arrays for a batch.

All functions here are pure and safe to call concurrently; reductions
run in fixed index order for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "GL_POINTS",
    "AdaptiveSimpsonRule",
    "Estimate",
    "gauss_legendre_nodes",
    "gauss_legendre_grid",
    "adaptive_simpson",
    "composite_gauss_legendre",
    "bracket",
    "zoom",
    "sup_scan",
    "bisect",
]


#: nodes per panel of every Gauss-Legendre rule in the package; one panel
#: integrates polynomials of degree 31 exactly
GL_POINTS = 16


@dataclass(frozen=True)
class AdaptiveSimpsonRule:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40


@dataclass(frozen=True)
class Estimate:
    value: float
    error: float
    converged: bool
    argmax: float | None = None


@cache
def gauss_legendre_nodes():
    """The GL_POINTS Gauss-Legendre nodes and weights on [-1, 1], read-only.
    Made on first use: importing numpy.polynomial adds 1.5 MB to the
    resident set of a process that never integrates, such as ``sample``."""
    x, w = np.polynomial.legendre.leggauss(GL_POINTS)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _split_at_breakpoints(lo: float, hi: float, breakpoints: Iterable[float]):
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    edges = [lo] + cuts + [hi]
    return list(zip(edges[:-1], edges[1:]))


def gauss_legendre_grid(lo: float, hi: float, panels: int = 64, breakpoints: Sequence[float] = ()):
    """Nodes and weights of the composite Gauss-Legendre rule on [lo, hi]:
    the interval is split at the breakpoints inside it, and each piece gets
    ``panels`` equal panels of GL_POINTS nodes."""
    pieces = _split_at_breakpoints(lo, hi, breakpoints)
    edges = np.concatenate([np.linspace(a, b, panels + 1)[:-1] for a, b in pieces] + [[hi]])
    x, w = gauss_legendre_nodes()
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def composite_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    panels: int = 64,
    breakpoints: Sequence[float] = (),
) -> Estimate:
    """Composite Gauss-Legendre integration; ``f`` must accept ndarrays.

    ``f`` is called once, on the nodes of ``gauss_legendre_grid`` with
    ``panels`` panels followed by those with ``2 * panels``.  It may return
    one row per integrand; each half of a row is contracted by ``np.vecdot``
    with its rule's weights, to the bits that rule would get alone.  The
    value is the doubled-panel sum, and the error its difference against
    the other."""
    if lo > hi:
        raise ValueError("lo must be <= hi")
    if lo == hi:
        return Estimate(0.0, 0.0, True)
    xs, ws = gauss_legendre_grid(lo, hi, panels, breakpoints)
    xs2, ws2 = gauss_legendre_grid(lo, hi, 2 * panels, breakpoints)
    vals = np.asarray(f(np.concatenate([xs, xs2])), dtype=float)
    coarse, fine = np.vecdot(vals[..., : xs.size], ws), np.vecdot(vals[..., xs.size :], ws2)
    return Estimate(fine, abs(fine - coarse), True)


def adaptive_simpson(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rule: AdaptiveSimpsonRule = AdaptiveSimpsonRule(),
    breakpoints: Sequence[float] = (),
) -> Estimate:
    """Adaptive Simpson integration with Richardson correction; the
    tests' reference for the Gauss-Legendre rule, not used by the package.

    Hitting max_depth is reported via converged=False, not raised: the
    result is still usable, with the accumulated error estimate.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    if lo == hi:
        return Estimate(0.0, 0.0, True)

    total = 0.0
    err = 0.0
    converged = True
    for seg_lo, seg_hi in _split_at_breakpoints(lo, hi, breakpoints):
        v, e, ok = _adaptive_segment(f, seg_lo, seg_hi, rule)
        total += v
        err += e
        converged = converged and ok
    return Estimate(total, err, converged)


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


def bracket(xs: np.ndarray, vals: np.ndarray, errors):
    """Per row of ``vals`` (rows, n), taken at the points ``xs`` (the same
    shape, or one row), with ``errors`` (the same shape, or 0.0): the
    argmax, the maximum, the ends of the two grid steps around the argmax,
    which the next zoom level spans, and the largest error."""
    xs = np.broadcast_to(xs, vals.shape)
    largest = errors.max(axis=1) if np.ndim(errors) else np.full(vals.shape[0], errors)
    i = vals.argmax(axis=1)
    r = np.arange(i.size)
    return xs[r, i], vals[r, i], xs[r, np.maximum(i - 1, 0)], xs[r, np.minimum(i + 1, vals.shape[1] - 1)], largest


def zoom(f: Callable, x, v, lo, hi, error, tol_x: float) -> Estimate:
    """Refine the maximum of every row, starting from a level's ``bracket``:
    each row's best point ``x``, value ``v`` and largest ``error`` so far
    and its bracket [lo, hi], arrays all updated in place.

    Each level calls ``f(xs, rows)`` once, for values and error estimates:
    ``rows`` indexes the rows whose bracket is still wider than tol_x, and
    xs holds _ZOOM_POINTS evenly spaced points across each one's bracket,
    so a bracket shrinks at least 16-fold per level.  A row's value and
    error are the maxima over every point evaluated in it (a NaN seed
    stays, as no value compares above it); its next bracket surrounds the
    level's argmax.  The Estimate holds arrays, and ``converged`` is
    whether a row's bracket reached tol_x."""
    buf = np.empty((lo.size, _ZOOM_POINTS))
    for _ in range(_MAX_LEVELS - 1):
        rows = np.flatnonzero(hi - lo > tol_x)
        if rows.size == 0:
            break
        xs = buf[: rows.size]
        xs[...] = np.linspace(lo[rows], hi[rows], _ZOOM_POINTS, axis=1)
        lx, lv, lo[rows], hi[rows], le = bracket(xs, *f(xs, rows))
        up = lv > v[rows]
        x[rows[up]], v[rows[up]], error[rows] = lx[up], lv[up], np.maximum(error[rows], le)
    return Estimate(v, error, hi - lo <= tol_x, x)


def sup_scan(f: Callable, lo, hi, *, coarse_steps: int = 2048, tol_x: float = 1e-8) -> Estimate:
    """Locate the supremum of f on [lo, hi] by coarse scan + ``zoom``.

    ``lo`` and ``hi`` are floats, or equal-length arrays with one interval
    per row.  Each row's coarse step is (hi-lo)/coarse_steps, and the zoom
    stops once a row's bracket is at most tol_x wide.  f must take arrays:
    it is called once per level, on a (rows, points) array, for values and
    error estimates (or 0.0).  The returned value and error are the maxima
    over every point evaluated, so the value dominates the value at every
    coarse grid point by construction.  For float bounds the Estimate
    holds floats and a bool, otherwise one array entry per row."""
    lo_r, hi_r = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    if not np.all(lo_r < hi_r):
        raise ValueError("sup_scan requires lo < hi")
    xs = np.linspace(lo_r, hi_r, coarse_steps + 1, axis=1)
    res = zoom(lambda z, rows: f(z), *bracket(xs, *f(xs)), tol_x)
    if np.ndim(lo) == np.ndim(hi) == 0:
        return Estimate(float(res.value[0]), float(res.error[0]), bool(res.converged[0]), float(res.argmax[0]))
    return res


def bisect(same: Callable, a, b, steps: int):
    """Halve each bracket [a, b] of arrays ``steps`` times, keeping the half
    with the sign change; ``same(m)`` is, per row, whether m is on a's side."""
    for _ in range(steps if a.size else 0):
        m = 0.5 * (a + b)
        left = same(m)
        a, b = np.where(left, m, a), np.where(left, b, m)
    return a, b
