"""The Metropolis-Hastings sub-kernel t(x, y), the rejection probability
r(x) and the u-integral loop.

All density comparisons run in the log domain; the min branch of the
accept/reject rule is selected by comparing logs, so far-tail Gaussian
targets do not underflow.

Integrals over the proposal's increment u have one loop, ``integrate_u``:
for a batch of x it integrates weight(u) f(d), d = log pi(x+u) - log pi(x),
over [-s, s] on a u-rule made for each x.  The rule is split at u = 0, at
the proposal shape's kinks (``ProposalModel.kinks``), at the target's
kinks shifted to u = kink - x (``DensityModel.kinks``) and at each sign
change of d(x, .), where min(1, e^d) and e^{-|d|} have their kink, so
every kink of the integrand sits on a piece boundary.  Each piece gets one
Gauss-Legendre panel and two half panels, whose difference estimates the
error.  The pieces of a block of x are evaluated as one array, in blocks
of BLOCK_ELEMENTS elements.  r(x) is ``rejection_grid``, one call of that
loop, and ``rejection_prob`` is the same rule at one x;
``spectra.hs_norm_T_a`` is another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .models import DensityModel, ProposalModel
from .quad import GL_POINTS, gauss_legendre_nodes

__all__ = ["MhKernel", "R_QUAD_TOL"]

#: elements of a two-dimensional grid evaluated at once, in integrate_u
#: (a block's nodes and their weights together) and in bounds.beta: 512 KB
#: of float64.  Both loops write their blocks into buffers made once per
#: call, because glibc hands freed blocks of this size back to the OS, and
#: a new block per step would fault its pages in again
BLOCK_ELEMENTS = 2**16
#: integrate_u looks for the sign changes of d on _ROOT_POINTS points per
#: half of [-s, s], from +-s to +-_ROOT_INNER s (d(x, 0) = 0 exactly), and
#: refines each with _ROOT_BISECTIONS bisection steps
_ROOT_POINTS = 33
_ROOT_INNER = 1e-13
_ROOT_BISECTIONS = 40
#: a piece of integrate_u whose one- and two-panel sums differ by more than
#: _PIECE_TOL is halved, at most _MAX_HALVINGS times: r(x) for gauss at
#: x = 66 is e^{-66u} on [0, s], where one panel is 4e-8 off
_PIECE_TOL = 1e-12
_MAX_HALVINGS = 8
#: reports count as converged only if r_quad_error is at most this
R_QUAD_TOL = 1e-8


@cache
def _piece_rule():
    """Nodes and weights on [-1, 1] of one Gauss-Legendre panel followed by
    those of its two halves, read-only; made on first use, like
    ``quad.gauss_legendre_nodes``."""
    x, w = gauss_legendre_nodes()
    nodes, weights = np.concatenate([x, 0.5 * x - 0.5, 0.5 * x + 0.5]), np.concatenate([w, 0.5 * w, 0.5 * w])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass
class MhKernel:
    target: DensityModel
    proposal: ProposalModel
    #: the largest error estimate of an r(x) that ``rejection_grid`` has
    #: returned since this was last set; bounds.alpha and
    #: asymptotics.alpha_inf set it to 0 and report it
    r_quad_error: float = 0.0

    # -- kernel evaluation --------------------------------------------
    def log_t(self, x, u):
        """log t(x, x+u); -inf where t vanishes.  Broadcasts over x and u;
        floats give a numpy scalar."""
        x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
        out = np.full(x.shape, -np.inf)
        inside = np.abs(u) <= self.proposal.s
        if np.any(inside):
            xi, ui = x[inside], u[inside]
            lq = self.proposal.log_shape(ui)
            ratio = self.target.log_pdf(xi + ui) - self.target.log_pdf(xi)
            out[inside] = lq + np.minimum(0.0, ratio)
        return out[()]

    def t_eval(self, x, u):
        """t(x, x+u); returns 0 outside the proposal range without touching
        the target."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_t(x, u))

    def log_balance(self, x, u, log_pi_x=None, out=None):
        """d(x, u) = log(pi(x+u) q(-u)) - log(pi(x) q(u)), so that
        t(x, x+u) t(x+u, x) = q(u) q(-u) e^{-|d|}; defined where q(u) and
        q(-u) are positive.  Broadcasts over x and u; ``log_pi_x`` is
        log pi(x) when the caller already has it, and ``out``, if given,
        receives x + u."""
        if log_pi_x is None:
            log_pi_x = self.target.log_pdf(x)
        gap = self.proposal.log_shape(-u) - self.proposal.log_shape(u)
        return self.target.log_pdf(np.add(x, u, out=out)) - log_pi_x + gap

    def sqrt_tt(self, x, u):
        """sqrt(t(x, x+u) * t(x+u, x)); the integrand of the tail constant.
        Broadcasts over x."""
        x = np.asarray(x, dtype=float)
        lq = self.proposal.log_shape(u) + self.proposal.log_shape(-u)
        if lq == -math.inf:
            return np.zeros_like(x)
        return np.exp(0.5 * (lq - np.abs(self.log_balance(x, u))))

    # -- u-integrals ----------------------------------------------------
    def integrate_u(self, xs: np.ndarray, weight, f):
        """For each x of the 1-D array xs, the integral over [-s, s] of
        weight(u) f(d) du, d = log pi(x+u) - log pi(x), and an estimate
        of its error.  ``weight`` maps an array of u to new weights, such
        as q(u); ``f`` maps an array of d in place and returns it.  The
        integrand may have kinks at u = 0, at the shape's kinks, at the
        target's kinks and where d changes sign, and nowhere else.

        Each x's u-rule is split at all of those points (see _pieces), and
        each piece gets one Gauss-Legendre panel and two half panels.  The
        two-panel sum is the value, and |two - one| its error estimate; a
        piece whose estimate exceeds _PIECE_TOL is halved, at most
        _MAX_HALVINGS times.  An x's estimate is the sum over its pieces.
        Each piece is summed with ``np.vecdot`` and an x's pieces in a
        fixed order, so an x's value has the same bits in any batch.

        The sign changes of d come from a coarse grid, and the documented
        assumption is that d changes sign at most once in each of its
        cells, s / 32 wide.  Two roots in one cell leave no sign change,
        so the kinks between them fall inside a piece; the estimate then
        reads large, but it may understate the error."""
        s = self.proposal.s
        value, error = np.zeros(xs.size), np.zeros(xs.size)
        if xs.size == 0:
            return value, error
        lx_all = self.target.log_pdf(xs)
        kinks = np.array(self.target.kinks(float(xs.min()) - s, float(xs.max()) + s))
        fixed = np.array([-s, 0.0, *self.proposal.kinks, s])
        half = np.linspace(_ROOT_INNER * s, s, _ROOT_POINTS)
        grid = np.concatenate([-half[::-1], half])
        # each block's x + u and then d, and a block's u-nodes and then
        # x + u and d, go into one buffer, so its pages are faulted in once
        # per call
        buf = np.empty(BLOCK_ELEMENTS)
        chunk = BLOCK_ELEMENTS // grid.size
        for start in range(0, xs.size, chunk):
            part = slice(start, start + chunk)
            x, lx = xs[part], lx_all[part]
            lo, hi, own = self._pieces(x, lx, grid, fixed, kinks, buf)
            for level in range(_MAX_HALVINGS + 1):
                one, two = self._piece_sums(x[own], lx[own], lo, hi, weight, f, buf)
                diff = np.abs(two - one)
                done = (diff <= _PIECE_TOL) | (level == _MAX_HALVINGS)
                value[part] += np.bincount(own[done], two[done], x.size)
                error[part] += np.bincount(own[done], diff[done], x.size)
                lo, hi, own = lo[~done], hi[~done], own[~done]
                if own.size == 0:
                    break
                mid = 0.5 * (lo + hi)
                lo, hi, own = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel(), own.repeat(2)
        return value, error

    def _pieces(self, x, lx, grid, fixed, kinks, buf):
        """The pieces [lo, hi] of each x's u-rule and the index of their x,
        in order of x and then of u: [-s, s] split at ``fixed``, at the
        target's ``kinks`` shifted to u = kink - x, and at each sign change
        of d(x, .) on ``grid``, refined by bisection."""
        s = self.proposal.s
        y = np.add(x[:, None], grid, out=buf[: x.size * grid.size].reshape(x.size, grid.size))
        up = np.subtract(self.target.log_pdf(y), lx[:, None], out=y) > 0.0
        change = up[:, 1:] != up[:, :-1]
        change[:, _ROOT_POINTS - 1] = False  # the cell across u = 0
        row, cell = np.nonzero(change)
        a, b, side, xr, lxr = grid[cell], grid[cell + 1], up[row, cell], x[row], lx[row]
        for _ in range(_ROOT_BISECTIONS if row.size else 0):
            m = 0.5 * (a + b)
            same = (self.target.log_pdf(xr + m) - lxr > 0.0) == side
            a, b = np.where(same, m, a), np.where(same, b, m)
        count = np.bincount(row, minlength=x.size)
        cuts = np.full((x.size, fixed.size + kinks.size + count.max()), s)
        cuts[:, : fixed.size] = fixed
        shifted = kinks - x[:, None]
        cuts[:, fixed.size : fixed.size + kinks.size] = np.where(np.abs(shifted) < s, shifted, s)
        rank = np.arange(row.size) - (np.cumsum(count) - count)[row]
        cuts[row, fixed.size + kinks.size + rank] = 0.5 * (a + b)
        cuts.sort(axis=1)
        keep = cuts[:, 1:] > cuts[:, :-1]
        return cuts[:, :-1][keep], cuts[:, 1:][keep], np.nonzero(keep)[0]

    def _piece_sums(self, x, lx, lo, hi, weight, f, buf):
        """One-panel and two-panel sums of weight(u) f(d) on each piece
        [lo, hi] of the point x (one x and log pi(x) per piece)."""
        nodes, wts = _piece_rule()
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
            g = f(np.subtract(self.target.log_pdf(y), lx[p, None], out=y))
            one[p] = np.vecdot(g[:, :GL_POINTS], w[:, :GL_POINTS])
            two[p] = np.vecdot(g[:, GL_POINTS:], w[:, GL_POINTS:])
        return one, two

    # -- rejection probability ----------------------------------------
    def rejection_prob(self, x: float) -> float:
        """r(x) at one point: ``rejection_grid`` on x."""
        return float(self.rejection_grid(x))

    def rejection_grid(self, xs) -> np.ndarray:
        """r(x) = 1 - integral of q(u) min(1, pi(x+u)/pi(x)) du over x
        values of any shape; the result has the shape of xs.  Raises
        ``r_quad_error`` to the largest error estimate among them."""
        xs = np.asarray(xs, dtype=float)
        accepted, error = self.integrate_u(
            xs.reshape(-1), self.proposal.shape, lambda d: np.exp(np.minimum(0.0, d, out=d), out=d)
        )
        self.r_quad_error = max(self.r_quad_error, float(error.max(initial=0.0)))
        return (1.0 - accepted).reshape(xs.shape)
