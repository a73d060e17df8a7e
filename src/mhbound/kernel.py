"""The Metropolis-Hastings sub-kernel t(x, y), rejection probability r(x),
and structural diagnostics.

All density comparisons run in the log domain; the min branch of the
accept/reject rule is selected by comparing logs, so far-tail Gaussian
targets do not underflow.

r(x) has one evaluation path: ``rejection_grid`` evaluates a whole batch
of x values against a fixed composite Gauss-Legendre grid in u.  The
u-grid is split at u = 0 so the shape kink of the built-in proposals
sits on a panel boundary.  The (x, u) grid is processed in blocks of
BLOCK_ELEMENTS points.  ``rejection_prob`` is the same rule at one x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import DensityModel, ProposalModel
from .quad import _panel_nodes

__all__ = ["MhKernel"]

#: elements of a two-dimensional grid evaluated at once, here and in
#: spectra.hs_norm_T_a: each float64 temporary is then 512 KB instead of
#: the 32 MB of 4e6-element chunks, which set the peak memory of a run
BLOCK_ELEMENTS = 2**16


@lru_cache(maxsize=32)
def _u_grid(s: float, panels_per_side: int, nodes_per_panel: int):
    """Gauss-Legendre nodes/weights covering [-s, 0] and [0, s]."""
    us_pos, ws_pos = _panel_nodes(0.0, s, nodes_per_panel, panels_per_side)
    us = np.concatenate([-us_pos[::-1], us_pos])
    ws = np.concatenate([ws_pos[::-1], ws_pos])
    return us, ws


@dataclass
class MhKernel:
    target: DensityModel
    proposal: ProposalModel
    #: resolution of rejection_grid's u-grid (per half-range)
    fast_panels: int = 96
    fast_nodes: int = 16

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

    def rejection_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized r over a batch of x values (fixed u-grid)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        us, ws = _u_grid(self.proposal.s, self.fast_panels, self.fast_nodes)
        shape_w = self.proposal.shape(us) * ws
        out = np.empty(xs.shape[0])
        chunk = max(1, BLOCK_ELEMENTS // us.size)
        lx_all = self.target.log_pdf(xs)
        for start in range(0, xs.size, chunk):
            xc = xs[start : start + chunk]
            ratio = self.target.log_pdf(xc[:, None] + us[None, :]) - lx_all[start : start + chunk][:, None]
            acc = np.exp(np.minimum(0.0, ratio))
            out[start : start + chunk] = 1.0 - acc @ shape_w
        return out

    # -- diagnostics ---------------------------------------------------
    def detailed_balance_residual(self, x: float, y: float, eps: float = 1e-300) -> float:
        """Relative defect of t(x,y) pi(x) = t(y,x) pi(y); 0/0 guarded to 0."""
        if abs(x - y) > self.proposal.s:
            return 0.0
        u = y - x
        fwd = self.log_t(x, u)
        bwd = self.log_t(y, -u)
        lpx = self.target.log_pdf(x)
        lpy = self.target.log_pdf(y)
        a = fwd + lpx
        b = bwd + lpy
        if a == -math.inf and b == -math.inf:
            return 0.0
        m = max(a, b)
        # evaluate the difference relative to the common magnitude
        va = math.exp(a - m)
        vb = math.exp(b - m)
        return abs(va - vb) / max(va, vb, eps)
