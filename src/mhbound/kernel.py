"""The Metropolis-Hastings sub-kernel t(x, y), rejection probability r(x),
and structural diagnostics.

All density comparisons run in the log domain; the min branch of the
accept/reject rule is selected by comparing logs, so far-tail Gaussian
targets do not underflow.

r(x) has one evaluation path: ``rejection_grid`` evaluates a whole batch
of x values against a fixed composite Gauss-Legendre grid in u, split at
u = 0 and at the proposal shape's kinks (``ProposalModel.kinks``) so that
every kink of q sits on a panel boundary.  The (x, u) grid is processed
in blocks of BLOCK_ELEMENTS points.  ``rejection_prob`` is the same rule
at one x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import DensityModel, ProposalModel
from .quad import GaussLegendreRule, gauss_legendre_grid

__all__ = ["MhKernel"]

#: elements of a two-dimensional grid evaluated at once, here, in
#: bounds.beta and in spectra.hs_norm_T_a: each float64 block is 512 KB.
#: Each of those loops writes its blocks into buffers made once per call,
#: because glibc hands freed blocks of this size back to the OS, and a new
#: block per step would fault its pages in again
BLOCK_ELEMENTS = 2**16
#: rejection_grid's rule in u: 96 panels of 16 nodes on each piece of
#: [-s, s], which is 3,072 nodes for a shape whose only kink is at 0
U_RULE = GaussLegendreRule(nodes_per_panel=16, panels=96)


@dataclass
class MhKernel:
    target: DensityModel
    proposal: ProposalModel

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

    def log_t_general(self, x: float, u: float) -> float:
        """General-q form min(q(x,y), pi(y) q(y,x) / pi(x)) in log domain,
        with q(x, y) = shape(y - x); used to cross-check the symmetric
        shortcut."""
        if abs(u) > self.proposal.s:
            return -math.inf
        lq_xy = self.proposal.log_shape(u)
        lq_yx = self.proposal.log_shape(-u)
        if lq_xy == -math.inf:
            return -math.inf
        y = x + u
        ratio = self.target.log_pdf(y) + lq_yx - self.target.log_pdf(x) - lq_xy
        return lq_xy + min(0.0, ratio)

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

    # -- rejection probability ----------------------------------------
    def rejection_prob(self, x: float) -> float:
        """r(x) at one point: ``rejection_grid`` on [x]."""
        return float(self.rejection_grid(x)[0])

    @cached_property
    def _u_nodes(self):
        """rejection_grid's u-nodes, and their weights times q(u)."""
        s = self.proposal.s
        us, ws = gauss_legendre_grid(-s, s, U_RULE, (0.0, *self.proposal.kinks))
        return us, self.proposal.shape(us) * ws

    def rejection_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized r over a batch of x values (fixed u-grid)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        us, shape_w = self._u_nodes
        out = np.empty(xs.shape[0])
        chunk = max(1, BLOCK_ELEMENTS // us.size)
        lx_all = self.target.log_pdf(xs)
        # x + u and then the acceptance ratio of each block go into one
        # buffer, so its pages are faulted in once per call
        buf = np.empty((min(chunk, xs.size), us.size))
        for start in range(0, xs.size, chunk):
            xc = xs[start : start + chunk]
            y = np.add(xc[:, None], us[None, :], out=buf[: xc.size])
            ratio = np.subtract(self.target.log_pdf(y), lx_all[start : start + chunk, None], out=y)
            np.minimum(0.0, ratio, out=ratio)
            np.exp(ratio, out=ratio)
            out[start : start + chunk] = 1.0 - ratio @ shape_w
        return out

    # -- diagnostics ---------------------------------------------------
    def detailed_balance_residual(self, x, y, eps: float = 1e-300):
        """Relative defect of t(x,y) pi(x) = t(y,x) pi(y), elementwise over
        x and y; 0 where both sides vanish, as for |y - x| > s."""
        a = self.log_t(x, y - x) + self.target.log_pdf(x)
        b = self.log_t(y, x - y) + self.target.log_pdf(y)
        # evaluate the difference relative to the common magnitude
        m = np.maximum(a, b)
        m = np.where(m == -np.inf, 0.0, m)
        va = np.exp(a - m)
        vb = np.exp(b - m)
        return (np.abs(va - vb) / np.maximum(np.maximum(va, vb), eps))[()]
