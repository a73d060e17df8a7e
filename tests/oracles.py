"""Reference forms that only the tests use: each checks a shortcut of
``mhbound.models``, ``mhbound.kernel.MhKernel``, ``mhbound.bounds``,
``mhbound.spectra``, ``mhbound.sampler``, ``mhbound.exprlang`` or
``mhbound.quad`` against a form written out from its definition.  ``k`` is
an ``MhKernel``."""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from mhbound import asymptotics, bounds, exprlang, kernel
from mhbound.kernel import BLOCK_ELEMENTS, certification
from mhbound.quad import GL_POINTS, bracket, composite_gauss_legendre, sup_scan, zoom
from mhbound.spectra import build_p_matrix, symmetrize


def laplace_log_pdf(x, scale: float):
    """log pi of the laplace family, on a float or an array, as written out
    before the built-in families became ``exprlang`` trees."""
    log_norm = math.log(2.0) + math.log(scale)
    return -abs(x / scale) - log_norm


def gauss_log_pdf(x, scale: float):
    """log pi of the gauss family, on a float or an array, as written out
    before the built-in families became ``exprlang`` trees: the square is
    a product."""
    log_norm = 0.5 * math.log(2.0 * math.pi) + math.log(scale)
    result = x / scale
    result *= result
    result *= -0.5
    result -= log_norm
    return result


def log_t_general(k, x: float, u: float) -> float:
    """General-q form min(q(x,y), pi(y) q(y,x) / pi(x)) in log domain,
    with q(x, y) = shape(y - x); used to cross-check the symmetric
    shortcut."""
    if abs(u) > k.proposal.s:
        return -math.inf
    lq_xy = k.proposal.log_shape(u)
    lq_yx = k.proposal.log_shape(-u)
    if lq_xy == -math.inf:
        return -math.inf
    y = x + u
    ratio = k.target.log_pdf(y) + lq_yx - k.target.log_pdf(x) - lq_xy
    return lq_xy + min(0.0, ratio)


def detailed_balance_residual(k, x, y, eps: float = 1e-300):
    """Relative defect of t(x,y) pi(x) = t(y,x) pi(y), elementwise over
    x and y; 0 where both sides vanish, as for |y - x| > s."""
    a = k.log_t(x, y - x) + k.target.log_pdf(x)
    b = k.log_t(y, x - y) + k.target.log_pdf(y)
    # evaluate the difference relative to the common magnitude
    m = np.maximum(a, b)
    m = np.where(m == -np.inf, 0.0, m)
    va = np.exp(a - m)
    vb = np.exp(b - m)
    return (np.abs(va - vb) / np.maximum(np.maximum(va, vb), eps))[()]


def decomposition_residual(k, d, a: float, n_power: int, report) -> float:
    """Iterate-decomposition check on the discretization ``d``: with K_n
    the compact remainder, the n-th iterate satisfies
    ||P^n - K_n|| <= 2 alpha_a^n.  Returns the worst signed slack
    max_n (||P^n - K_n|| - 2 alpha_a^n) over n <= n_power at discrete
    scale (expected <= discretization tolerance), with P^n - K_n taken
    in the sqrt(pi) coordinates of ``spectra.symmetrize``; ``report`` is
    the window's ``BoundReport``."""
    if not 1 <= n_power <= 8:
        raise ValueError("n_power must be between 1 and 8")
    if not 0.0 < a < d.half_width:
        raise ValueError("need 0 < a < domain half-width")
    op = build_p_matrix(k, d)
    core = np.abs(d.nodes) <= a
    p_sym = symmetrize(k, op)
    r_core = np.diag(op.r_grid * core)
    tail_block = p_sym * (~core)[:, None]  # rejection + continuous part, tail rows

    worst = -math.inf
    ra_pow = r_core.copy()
    tb_pow = tail_block.copy()
    for n in range(1, n_power + 1):
        if n > 1:
            ra_pow = ra_pow @ r_core
            tb_pow = tb_pow @ tail_block
        norm = float(np.linalg.norm(ra_pow + tb_pow, 2))
        worst = max(worst, norm - 2.0 * report.alpha_a**n)
    return worst


def per_window_report(k, a: float, x_max: float, slopes) -> "bounds.BoundReport":
    """The report of one window computed on its own, as every window was
    before ``bound_profile`` took them all from one pass: r_a from
    ``r_sup_compact`` on [-a, a]; r_prime_a from a two-row scan of
    [a, x_max] and [-x_max, -a], merged with the larger of the two tails'
    r'_inf (``slopes``, (c_+, c_-), must be known); beta_a from the minimum
    of |d| over those two whole windows; r_quad_error from the errors of
    its two r(x) scans."""
    core = bounds.r_sup_compact(k, a)
    window = sup_scan(k.rejection_grid, np.array([a, -x_max]), np.array([x_max, -a]))
    r_prime = max(float(window.value.max()), float(np.max(asymptotics.r_prime_inf(k.proposal, slopes))))
    windows = [(xs, k.target.log_pdf(xs)) for xs in (np.linspace(a, x_max, 1025), np.linspace(-x_max, -a, 1025))]
    closed = []

    def integrand(us):
        lq = k.proposal.log_shape(us) + k.proposal.log_shape(-us)
        values = np.zeros(us.size)
        live = lq > -np.inf
        if np.any(live):
            min_d, ok = bounds._min_abs_balance(k, windows, us[live], np.empty(bounds.BLOCK_ELEMENTS))
            closed.append(ok)
            values[live] = np.exp(0.5 * (lq[live] - min_d.min(axis=0)))
        return np.maximum(values, k.proposal.shape(np.abs(us)) * np.exp(0.5 * max(slopes) * np.abs(us)))

    s = k.proposal.s
    bt = composite_gauss_legendre(integrand, -s, s, asymptotics.TAIL_PANELS, (0.0, *k.proposal.kinks))
    alpha_a = max(core.value, r_prime + float(bt.value))
    r_quad_error = max(core.error, float(window.error.max()))
    converged = core.converged and bool(window.converged.all()) and all(closed) and bt.error <= bounds._BETA_TOL
    converged, certified, verdict = certification(alpha_a, r_quad_error, converged, True, False)
    return bounds.BoundReport(
        a=a,
        r_a=core.value,
        r_prime_a=r_prime,
        beta_a=float(bt.value),
        alpha_a=alpha_a,
        x_max=x_max,
        converged=bool(converged),
        tail_resolved=True,
        beta_error=float(bt.error),
        r_quad_error=r_quad_error,
        certified=certified,
        verdict=verdict,
    )


def pieces_bisection(target, xr, lxr, side, a, b):
    """The sign-change refinement of ``kernel.MhKernel._pieces`` as it was
    written out before ``quad.bisect``: the cells [a, b] of the rows with
    points xr, log pi there lxr and d > 0 at a where ``side``."""
    for _ in range(kernel._ROOT_BISECTIONS if a.size else 0):
        m = 0.5 * (a + b)
        same = (target.log_pdf(xr + m) - lxr > 0.0) == side
        a, b = np.where(same, m, a), np.where(same, b, m)
    return a, b


def piece_sums_per_piece(self, x, lx, lo, hi, weight, f, buf):
    """``MhKernel._piece_sums`` as it was before it took the nodes and
    weights of a piece from a table of the distinct (lo, hi): each piece
    makes its own, block by block (``self`` is the kernel)."""
    nodes, wts = kernel._piece_rule()
    one, two = np.empty(lo.size), np.empty(lo.size)
    # a block's nodes and their weights make BLOCK_ELEMENTS elements
    rows = BLOCK_ELEMENTS // (2 * nodes.size)
    for start in range(0, lo.size, rows):
        p = slice(start, start + rows)
        n = min(rows, lo.size - start)
        half = (0.5 * (hi[p] - lo[p]))[:, None]
        u = np.multiply(half, nodes, out=buf[: n * nodes.size].reshape(n, nodes.size))
        u += (0.5 * (hi[p] + lo[p]))[:, None]
        w = weight(u)
        w *= half
        w *= wts
        y = np.add(x[p, None], u, out=u)
        g = f(np.subtract(self.target.log_pdf(y, out=y), lx[p, None], out=y))
        one[p] = np.vecdot(g[:, :GL_POINTS], w[:, :GL_POINTS])
        two[p] = np.vecdot(g[:, GL_POINTS:], w[:, GL_POINTS:])
    return one, two


def log_balance_with_gap(self, x, u, log_pi_x=None, out=None):
    """``MhKernel.log_balance`` as it was before it left out the Hastings
    term log q(-u) - log q(u) of a symmetric shape: every shape adds it
    (``self`` is the kernel)."""
    if log_pi_x is None:
        log_pi_x = self.target.log_pdf(x)
    gap = self.proposal.log_shape(-u) - self.proposal.log_shape(u)
    d = self.target.log_pdf(np.add(x, u, out=out), out=out)
    d -= log_pi_x
    d += gap
    return d


def kinks_bisection(fn, a, b, sign_a):
    """The sign-change refinement of ``exprlang.kinks`` as it was written
    out before ``quad.bisect``: the cells [a, b] of g = ``fn``, whose sign
    at a is sign_a."""
    for _ in range(exprlang._KINK_BISECTIONS if a.size else 0):
        m = 0.5 * (a + b)
        left = np.sign(fn(m)) == sign_a
        a, b = np.where(left, m, a), np.where(left, b, m)
    return a, b


def min_abs_balance_min_max(k, windows, us: np.ndarray):
    """``bounds._min_abs_balance`` with the coarse pass it had before it
    read every row from one argmin and one argmax of d: a row's min and
    max of d for the crossing test, the sign of its first point, and
    ``quad.bracket`` on -|d|."""
    n = us.size
    x, v, lo, hi, error, sign = np.empty((6, len(windows) * n))
    for w, (xs, lx) in enumerate(windows):
        chunk = BLOCK_ELEMENTS // xs.size
        for start in range(0, n, chunk):
            ub = us[start : start + chunk, None]
            d = k.log_balance(xs, ub, lx)
            block = slice(w * n + start, w * n + start + ub.size)
            crossed = (d.min(axis=1) <= 0.0) & (d.max(axis=1) >= 0.0)
            sign[block] = np.where(crossed, 0.0, np.sign(d[:, 0]))
            np.negative(np.abs(d, out=d), out=d)
            x[block], v[block], lo[block], hi[block], error[block] = bracket(xs, d, 0.0)
    live = np.flatnonzero(sign)
    u, sign = np.tile(us, len(windows))[live, None], sign[live, None]

    def minus_signed_d(xs, rows):
        return -sign[rows] * k.log_balance(xs, u[rows]), 0.0

    res = zoom(minus_signed_d, x[live], v[live], lo[live], hi[live], error[live], bounds._BETA_TOL_X)
    best = np.zeros(len(windows) * n)
    best[live] = np.maximum(0.0, -res.value)
    return best.reshape(len(windows), n), bool(res.converged.all())


def proposal_batch_one_shot(p, count: int, rng) -> np.ndarray:
    """``sampler.proposal_batch`` as it was before it drew through a fixed
    pair buffer: each pass draws every pair it expects to need at once,
    with ``uniform``, and scales them into new arrays."""
    s, sup = p.s, p.sup_shape
    out = np.empty(count)
    have = 0
    # expected acceptance fraction is 1 / (2 s sup); over-draw a little
    block = max(256, int(count * 2.0 * s * sup * 1.1) + 64)
    while have < count:
        pairs = rng.uniform(size=(block, 2))
        c = -s + 2.0 * s * pairs[:, 0]
        v = sup * pairs[:, 1]
        good = c[v <= p.shape(c)]
        take = min(good.size, count - have)
        out[have : have + take] = good[:take]
        have += take
    return out


def rejection_by_quad(k, x: float, cuts) -> float:
    """r(x) = 1 - the integral of q(u) min(1, pi(x+u)/pi(x)) over [-s, s] by
    scipy's adaptive ``quad``, on pieces split at 0 and at the u of
    ``cuts`` inside (-s, s), with the scalar log pi: apart from
    ``integrate_u``'s rule and its array evaluation."""
    s = k.proposal.s
    lx = k.target.log_pdf(float(x))

    def integrand(u):
        return float(k.proposal.shape(u)) * math.exp(min(0.0, k.target.log_pdf(x + u) - lx))

    ends = sorted({-s, 0.0, s, *(float(u) for u in cuts if -s < u < s)})
    with warnings.catch_warnings():
        # quad warns that rounding stops it short of epsabs = 1e-15
        warnings.simplefilter("ignore", IntegrationWarning)
        pieces = [quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-15, limit=200)[0] for lo, hi in zip(ends, ends[1:])]
    return 1.0 - math.fsum(pieces)
