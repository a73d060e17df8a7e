"""Reference forms of the kernel that only the tests use: each checks a
shortcut of ``mhbound.kernel.MhKernel`` against a form written out from
its definition.  ``k`` is an ``MhKernel``."""

import math

import numpy as np


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
