"""Nystrom discretization of the Metropolis-Hastings operator on a
truncated domain, with the operator-level checks that mirror the
windowed bound: the tail block norm against beta_a and the
Hilbert-Schmidt norm of the core block.  The Hilbert-Schmidt norm is
not taken from the discretization: it integrates over |x| <= a and the
whole proposal range with ``MhKernel.integrate_u``, so it does not
depend on the domain [-A, A].

Every spectral output here is heuristic: it is a discretization of a
non-compact operator on a truncated domain, and no certified relation
between the discrete eigenvalues and the true point spectrum is
claimed.

Discretization notes.  Uniform nodes with trapezoid weights are used
(the kernel has moving kinks, so high-order rules gain little, and
uniformity keeps the tail-block row masking trivial).  The diagonal
rejection term is evaluated with the same trapezoid rule on a grid
extended past the domain edge by the proposal range; this keeps
interior rows of the transition matrix stochastic to rounding, which is
what pins the unit eigenvalue.  Boundary rows (whose proposal range
reaches the edge node) lose the mass that leaves the domain and are
flagged.

Reversibility makes P self-adjoint on L^2(pi): ``symmetrize`` forms its
matrix S in the sqrt(pi) coordinates from log pi differences alone, so
no pi value, which underflows in a far Gauss tail, enters.  Eigenvalues
and the tail block's 2-norm come from LAPACK through ``eigvalsh``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bounds import beta
from .kernel import MhKernel
from .models import DensityModel, ModelError
from .quad import GL_POINTS, gauss_legendre_grid

__all__ = [
    "Discretization",
    "DiscreteOperator",
    "SpectralReport",
    "discretize",
    "build_p_matrix",
    "symmetrize",
    "norm_T_ac",
    "hs_norm_T_a",
    "hs_rule_nodes",
    "spectral_report",
]

log = logging.getLogger(__name__)

#: panels per unit of a in hs_norm_T_a's x-rule on [-a, a]: 0.125 wide
_HS_X_PANELS_PER_UNIT = 16

HEURISTIC_CAVEAT = (
    "heuristic: discretization of a non-compact operator; no certified "
    "relation to the true point spectrum is claimed"
)


@dataclass
class Discretization:
    half_width: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    #: mass truncation defect: normalized target mass outside [-A, A]
    grid_defect: float
    #: relative deviation of the trapezoid mass from the Gauss-Legendre mass
    quad_defect: float

    @property
    def step(self) -> float:
        return float(self.nodes[1] - self.nodes[0])


def discretize(target: DensityModel, half_width: float, n: int = 801) -> Discretization:
    """Uniform nodes on [-A, A] with trapezoid weights, and the target's
    truncation and quadrature defects on them."""
    if n < 3 or n % 2 == 0:
        raise ModelError("node count must be odd and at least 3 (node at zero)")
    if half_width <= 0:
        raise ModelError("half_width must be positive")
    nodes = np.linspace(-half_width, half_width, n)
    h = nodes[1] - nodes[0]
    if float(h) * float(h) == math.inf:
        raise ModelError(f"node spacing {h:g} is too wide: the products of two weights overflow")
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    total = float(target.pdf(nodes) @ weights)

    def mass(lo: float, hi: float) -> float:
        xs, ws = gauss_legendre_grid(lo, hi, breakpoints=target.kinks(lo, hi))
        return float(target.pdf(xs) @ ws)

    z = mass(-half_width, half_width)
    if not z > 0.0:
        raise ModelError(
            f"the target's mass on [-A, A], A = {half_width:g}, underflows to 0 on the Gauss-Legendre nodes, "
            "which miss the region where the density is not negligible; use a smaller A"
        )
    quad_defect = abs(1.0 - total / z)
    # far-tail mass; the integrand is exp(log pi) so underflow is benign
    outside = mass(-3.0 * half_width, -half_width) + mass(half_width, 3.0 * half_width)
    grid_defect = outside / (z + outside)
    return Discretization(float(half_width), n, nodes, weights, grid_defect, quad_defect)


@dataclass
class DiscreteOperator:
    disc: Discretization
    #: log pi at the nodes, up to its normalization
    log_pi: np.ndarray
    p_matrix: np.ndarray
    r_grid: np.ndarray
    boundary_rows: np.ndarray  # bool mask: rows whose proposal range reaches the edge node
    row_sum_defect: float  # max |row sum - 1| over interior rows


def build_p_matrix(k: MhKernel, d: Discretization) -> DiscreteOperator:
    """Discrete transition matrix M[i, j] = t(x_i, x_j) w_j with the
    rejection mass r(x_i) (grid-consistent trapezoid value) added on the
    diagonal; t(x, y) = q(y - x) e^{min(0, d)}, d = log pi(y) - log pi(x)."""
    s = k.proposal.s
    if d.half_width <= s:
        raise ModelError("domain half-width must exceed the proposal range")
    nodes = d.nodes
    h = d.step
    n = d.n
    if s < 2.0 * h:
        log.warning(
            "grid spacing does not resolve the proposal range; the discrete "
            "operator degenerates toward the identity"
        )

    # extend the grid by one proposal range so the diagonal rejection
    # term sees the full support of t(x_i, .)
    m_ext = int(math.ceil(s / h)) + 1
    ext = np.concatenate(
        [nodes[0] - h * np.arange(m_ext, 0, -1), nodes, nodes[-1] + h * np.arange(1, m_ext + 1)]
    )
    inner = slice(m_ext, m_ext + n)
    log_pi = k.target.log_pdf(ext)
    log_t = k.proposal.log_shape(ext[None, :] - nodes[:, None])
    log_t += np.minimum(0.0, log_pi[None, :] - log_pi[inner, None])
    t_full = np.exp(log_t, out=log_t)
    r_grid = np.clip(1.0 - h * t_full.sum(axis=1), 0.0, 1.0)

    p_matrix = t_full[:, inner] * d.weights[None, :]
    p_matrix[np.diag_indices(n)] += r_grid

    # rows with |x| >= A - s reach the half-weight edge node; h/2 absorbs linspace's rounding
    boundary = np.abs(nodes) > d.half_width - s - 0.5 * h
    interior_sums = p_matrix[~boundary].sum(axis=1)
    row_sum_defect = float(np.max(np.abs(interior_sums - 1.0))) if np.any(~boundary) else 0.0
    return DiscreteOperator(d, log_pi[inner], p_matrix, r_grid, boundary, row_sum_defect)


def symmetrize(k: MhKernel, op: DiscreteOperator) -> np.ndarray:
    """S, the discrete P in the sqrt(pi) coordinates:
    S_ij = sqrt(w_i w_j) sqrt(q(u) q(-u)) e^{-|d|/2} with u = x_j - x_i
    and d = log pi(x_j) - log pi(x_i), plus r(x_i) on the diagonal.
    Symmetric to the bit, as d_ji = -d_ij and u_ji = -u_ij exactly."""
    nodes, w = op.disc.nodes, op.disc.weights
    lq = k.proposal.log_shape(nodes[None, :] - nodes[:, None])
    s_mat = np.exp(0.5 * (lq + lq.T - np.abs(op.log_pi[None, :] - op.log_pi[:, None])))
    s_mat *= np.sqrt(np.outer(w, w))
    s_mat[np.diag_indices(op.disc.n)] += op.r_grid
    return s_mat


def norm_T_ac(s_mat: np.ndarray, op: DiscreteOperator, a: float) -> float:
    """Discrete 2-norm of the tail block of the continuous part: B, the
    rows of S with |x_i| > a and the rejection r taken off the diagonal,
    has norm sqrt(lambda_max(B B^T))."""
    if not 0.0 < a < op.disc.half_width:
        raise ModelError("need 0 < a < domain half-width")
    rows = np.flatnonzero(np.abs(op.disc.nodes) > a)
    b = s_mat[rows]
    b[np.arange(rows.size), rows] -= op.r_grid[rows]
    return math.sqrt(float(np.linalg.eigvalsh(b @ b.T)[-1]))


def _hs_panels(a: float) -> int:
    """Panels of ``hs_norm_T_a``'s x-rule on [-a, a]: ceil(16a), at least 4,
    in integers, so exact at every finite a (the float 16a overflows above
    about 1.1e307)."""
    num, den = float(a).as_integer_ratio()
    return max(4, -(-_HS_X_PANELS_PER_UNIT * num // den))


def hs_rule_nodes(a: float) -> int:
    """Nodes of ``hs_norm_T_a``'s x-rule on [-a, a], which it integrates
    over the proposal range in blocks."""
    return GL_POINTS * _hs_panels(a)


def hs_norm_T_a(k: MhKernel, a: float) -> float:
    """Hilbert-Schmidt norm of the core block 1_{[-a, a]} T: the square root
    of the double integral of t(x+u, x)^2 pi(x+u)/pi(x) over |x| <= a and
    |u| <= s.

    For the Metropolis kernel with a symmetric q the integrand is
    q(u)^2 e^{-|d|}, d = log pi(x+u) - log pi(x), so the norm is one
    ``MhKernel.integrate_u`` call on the x-rule's nodes; it cannot
    overflow, and the normalization of pi cancels.  The block belongs to
    P, not to the discretization, so no domain half-width enters.
    Finiteness is the point: the core block is compact."""
    if not a > 0.0:
        raise ModelError("need a > 0")

    def weight(u):
        # an inf here is inf - inf in the error estimate, so the config is refused first
        q2 = np.square(k.proposal.shape(u))
        if not np.isfinite(q2).all():
            raise ModelError(
                f"the proposal shape's square q(u)^2 is inf at proposal.s={k.proposal.s!r}: "
                "this config's scales are beyond what floats resolve"
            )
        return q2

    xs, wx = gauss_legendre_grid(-a, a, _hs_panels(a))
    rows = k.integrate_u(xs, weight, lambda d: np.exp(np.negative(np.abs(d, out=d), out=d), out=d))[0]
    return math.sqrt(float(wx @ rows))


@dataclass
class SpectralReport:
    half_width: float
    n: int
    a: float
    eigenvalues: np.ndarray
    top_eigenvalue: float
    second_modulus: float
    norm_t_ac: float
    beta_a: float
    hs_norm_t_a: float
    grid_defect: float
    quad_defect: float
    row_sum_defect: float
    unit_eigenvalue_count: int
    caveat: str = HEURISTIC_CAVEAT


def spectral_report(k: MhKernel, half_width: float, n: int, a: float) -> SpectralReport:
    """Full discrete picture: spectrum of S, the tail block norm next to
    beta_a, and the core Hilbert-Schmidt norm."""
    d = discretize(k.target, half_width, n)
    op = build_p_matrix(k, d)
    s_mat = symmetrize(k, op)
    if not np.isfinite(s_mat).all():
        # LAPACK does not converge on such a matrix
        i, j = np.argwhere(~np.isfinite(s_mat))[0]
        raise ModelError(
            f"the discretized operator S is {s_mat[i, j]} at x={float(d.nodes[i])!r}, y={float(d.nodes[j])!r}: "
            "q(y - x) or pi(y)/pi(x) overflows at this config's scales"
        )
    eigs = np.linalg.eigvalsh(s_mat)[::-1]
    moduli = np.abs(eigs)
    top = float(eigs[0])
    second = float(np.sort(moduli)[-2]) if n >= 2 else 0.0
    beta_a = beta(k, [a])[0].value
    t_ac = norm_T_ac(s_mat, op, a)
    hs = hs_norm_T_a(k, a)
    unit_count = int(np.sum(np.abs(eigs - 1.0) <= 5e-4))
    return SpectralReport(
        half_width=half_width,
        n=n,
        a=a,
        eigenvalues=eigs,
        top_eigenvalue=top,
        second_modulus=second,
        norm_t_ac=t_ac,
        beta_a=beta_a,
        hs_norm_t_a=hs,
        grid_defect=d.grid_defect,
        quad_defect=d.quad_defect,
        row_sum_defect=op.row_sum_defect,
        unit_eigenvalue_count=unit_count,
    )
