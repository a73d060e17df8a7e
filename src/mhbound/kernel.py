"""The Metropolis-Hastings sub-kernel t(x, y), rejection probability r(x),
and structural diagnostics.

All density comparisons run in the log domain; the min branch of the
accept/reject rule is selected by comparing logs, so far-tail Gaussian
targets do not underflow.

Integrals over the proposal's increment u have one loop, ``integrate_u``:
for a batch of x it sums weights * f(d), d = log pi(x+u) - log pi(x),
over a fixed composite Gauss-Legendre rule in u (the u-rule), split at
u = 0 and at the proposal shape's kinks (``ProposalModel.kinks``) so that
every kink of q sits on a panel boundary.  The (x, u) grid is processed
in blocks of BLOCK_ELEMENTS points.  r(x) is ``rejection_grid``, one call
of that loop, and ``rejection_prob`` is the same rule at one x;
``spectra.hs_norm_T_a`` is another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import DensityModel, ProposalModel
from .quad import gauss_legendre_grid

__all__ = ["MhKernel"]

#: elements of a two-dimensional grid evaluated at once, in integrate_u
#: and in bounds.beta: each float64 block is 512 KB.  Both loops write
#: their blocks into buffers made once per call, because glibc hands freed
#: blocks of this size back to the OS, and a new block per step would
#: fault its pages in again
BLOCK_ELEMENTS = 2**16
#: panels of the u-rule of integrate_u on each piece of [-s, s], 3,072
#: nodes for a shape whose only kink is at 0
U_PANELS = 96


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

    # -- u-integrals ----------------------------------------------------
    @cached_property
    def u_rule(self):
        """The u-rule: its nodes, and their weights times q(u)."""
        s = self.proposal.s
        us, ws = gauss_legendre_grid(-s, s, U_PANELS, (0.0, *self.proposal.kinks))
        return us, self.proposal.shape(us) * ws

    def integrate_u(self, xs: np.ndarray, weights: np.ndarray, f) -> np.ndarray:
        """For each x of the 1-D array xs, the sum over the u-rule of
        weights * f(d), with d = log pi(x+u) - log pi(x).  ``f`` maps a
        (rows, u) block of d in place and returns it.  ``np.vecdot`` sums
        each row on its own, so an x's sum has the same bits in any batch."""
        us = self.u_rule[0]
        out = np.empty(xs.size)
        chunk = max(1, BLOCK_ELEMENTS // us.size)
        lx_all = self.target.log_pdf(xs)
        # x + u and then d of each block go into one buffer, so its pages
        # are faulted in once per call
        buf = np.empty((min(chunk, xs.size), us.size))
        for start in range(0, xs.size, chunk):
            xc = xs[start : start + chunk]
            y = np.add(xc[:, None], us[None, :], out=buf[: xc.size])
            d = np.subtract(self.target.log_pdf(y), lx_all[start : start + chunk, None], out=y)
            out[start : start + chunk] = np.vecdot(f(d), weights)
        return out

    # -- rejection probability ----------------------------------------
    def rejection_prob(self, x: float) -> float:
        """r(x) at one point: ``rejection_grid`` on x."""
        return float(self.rejection_grid(x))

    def rejection_grid(self, xs) -> np.ndarray:
        """r(x) = 1 - integral of q(u) min(1, pi(x+u)/pi(x)) du over x
        values of any shape; the result has the shape of xs."""
        xs = np.asarray(xs, dtype=float)
        accepted = self.integrate_u(
            xs.reshape(-1), self.u_rule[1], lambda d: np.exp(np.minimum(0.0, d, out=d), out=d)
        )
        return (1.0 - accepted).reshape(xs.shape)

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
