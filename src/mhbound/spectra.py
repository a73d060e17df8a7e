"""Nystrom discretization of the Metropolis-Hastings operator on a
truncated domain, with the operator-level checks that mirror the
windowed bound: the tail block norm against beta_a, the Hilbert-Schmidt
norm of the core block, and the iterate-decomposition inequality.  The
Hilbert-Schmidt norm is not taken from the discretization: it integrates
over |x| <= a and the whole proposal range with ``MhKernel.integrate_u``,
so it does not depend on the domain [-A, A].
Eigenvalues and operator 2-norms come from LAPACK through numpy
(``eigvalsh`` and ``norm(., 2)``).

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
what pins the unit eigenvalue.  Boundary rows (within one proposal
range of the edge) lose the mass that leaves the domain and are flagged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundReport, beta
from .kernel import MhKernel
from .models import DensityModel
from .quad import gauss_legendre_grid

__all__ = [
    "Discretization",
    "DiscreteOperator",
    "SpectralReport",
    "AsymmetryError",
    "discretize",
    "build_p_matrix",
    "symmetrize",
    "norm_T_ac",
    "hs_norm_T_a",
    "decomposition_residual",
    "spectral_report",
]

log = logging.getLogger(__name__)

#: panels per unit of a in hs_norm_T_a's x-rule on [-a, a]: 0.125 wide
_HS_X_PANELS_PER_UNIT = 16

HEURISTIC_CAVEAT = (
    "heuristic: discretization of a non-compact operator; no certified "
    "relation to the true point spectrum is claimed"
)


class AsymmetryError(RuntimeError):
    """Symmetrization defect beyond rounding; signals a kernel bug."""


@dataclass
class Discretization:
    half_width: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    masses: np.ndarray
    #: mass truncation defect: normalized target mass outside [-A, A]
    grid_defect: float
    #: relative deviation of the trapezoid mass from the Gauss-Legendre mass
    quad_defect: float

    @property
    def step(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def valid(self) -> bool:
        return self.grid_defect < 1e-6


def discretize(target: DensityModel, half_width: float, n: int = 801) -> Discretization:
    """Uniform nodes on [-A, A] with trapezoid weights and normalized
    target masses m_i = pi(x_i) w_i / sum."""
    if n < 3 or n % 2 == 0:
        raise ValueError("node count must be odd and at least 3 (node at zero)")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    nodes = np.linspace(-half_width, half_width, n)
    h = nodes[1] - nodes[0]
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    dens = target.pdf(nodes)
    total = float(dens @ weights)
    masses = dens * weights / total

    def mass(lo: float, hi: float) -> float:
        xs, ws = gauss_legendre_grid(lo, hi, breakpoints=target.kinks(lo, hi))
        return float(target.pdf(xs) @ ws)

    z = mass(-half_width, half_width)
    quad_defect = abs(1.0 - total / z)
    # far-tail mass; the integrand is exp(log pi) so underflow is benign
    outside = mass(-3.0 * half_width, -half_width) + mass(half_width, 3.0 * half_width)
    grid_defect = outside / (z + outside)
    return Discretization(float(half_width), n, nodes, weights, masses, grid_defect, quad_defect)


@dataclass
class DiscreteOperator:
    disc: Discretization
    p_matrix: np.ndarray
    t_matrix: np.ndarray
    r_grid: np.ndarray
    boundary_rows: np.ndarray  # bool mask: rows within one proposal range of the edge
    row_sum_defect: float  # max |row sum - 1| over interior rows


def build_p_matrix(k: MhKernel, d: Discretization) -> DiscreteOperator:
    """Discrete transition matrix M[i, j] = t(x_i, x_j) w_j with the
    rejection mass r(x_i) (grid-consistent trapezoid value) added on the
    diagonal."""
    s = k.proposal.s
    if d.half_width <= s:
        raise ValueError("domain half-width must exceed the proposal range")
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
    t_full = k.t_eval(nodes[:, None], ext[None, :] - nodes[:, None])
    r_grid = 1.0 - h * t_full.sum(axis=1)
    r_grid = np.clip(r_grid, 0.0, 1.0)

    t_matrix = t_full[:, m_ext : m_ext + n] * d.weights[None, :]
    p_matrix = t_matrix.copy()
    p_matrix[np.arange(n), np.arange(n)] += r_grid

    boundary = np.abs(nodes) > d.half_width - s
    interior_sums = p_matrix[~boundary].sum(axis=1)
    row_sum_defect = float(np.max(np.abs(interior_sums - 1.0))) if np.any(~boundary) else 0.0
    return DiscreteOperator(d, p_matrix, t_matrix, r_grid, boundary, row_sum_defect)


def _sym_coords(m: np.ndarray, d: Discretization) -> np.ndarray:
    root = np.sqrt(d.masses)
    return (root[:, None] / root[None, :]) * m


def symmetrize(m: np.ndarray, d: Discretization) -> np.ndarray:
    """Similarity transform sqrt(m_i / m_j) M[i, j]; reversibility makes
    the result symmetric up to rounding."""
    if np.any(d.masses <= 0.0):
        raise ValueError("all node masses must be positive")
    s_mat = _sym_coords(m, d)
    scale = float(np.max(np.abs(s_mat)))
    asym = float(np.max(np.abs(s_mat - s_mat.T)))
    if asym > 1e-9 * max(scale, 1e-300):
        raise AsymmetryError(
            f"symmetrization defect {asym:.3e} exceeds rounding; the kernel "
            "violates detailed balance"
        )
    return 0.5 * (s_mat + s_mat.T)


def norm_T_ac(k: MhKernel, d: Discretization, a: float, op: Optional[DiscreteOperator] = None) -> float:
    """Discrete 2-norm of the tail block of the continuous part: rows with
    |x_i| <= a zeroed, diagonal rejection removed, m-weighted coordinates."""
    if not 0.0 < a < d.half_width:
        raise ValueError("need 0 < a < domain half-width")
    if op is None:
        op = build_p_matrix(k, d)
    tail = np.abs(d.nodes) > a
    t_ac = op.t_matrix * tail[:, None]
    return float(np.linalg.norm(_sym_coords(t_ac, d), 2))


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
        raise ValueError("need a > 0")
    xs, wx = gauss_legendre_grid(-a, a, max(4, math.ceil(_HS_X_PANELS_PER_UNIT * a)))
    rows = k.integrate_u(
        xs, lambda u: np.square(k.proposal.shape(u)), lambda d: np.exp(np.negative(np.abs(d, out=d), out=d), out=d)
    )[0]
    return math.sqrt(float(wx @ rows))


def decomposition_residual(
    k: MhKernel,
    d: Discretization,
    a: float,
    n_power: int,
    report: BoundReport,
    op: Optional[DiscreteOperator] = None,
) -> float:
    """Iterate-decomposition check: with K_n the compact remainder, the
    n-th iterate satisfies ||P^n - K_n|| <= 2 alpha_a^n.  Returns the
    worst signed slack max_n (||P^n - K_n|| - 2 alpha_a^n) over
    n <= n_power at discrete scale (expected <= discretization
    tolerance)."""
    if not 1 <= n_power <= 8:
        raise ValueError("n_power must be between 1 and 8")
    if not 0.0 < a < d.half_width:
        raise ValueError("need 0 < a < domain half-width")
    if op is None:
        op = build_p_matrix(k, d)
    core = np.abs(d.nodes) <= a
    p_sym = symmetrize(op.p_matrix, d)
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
    """Full discrete picture: spectrum of the symmetrized operator, the
    tail block norm next to beta_a, and the core Hilbert-Schmidt norm."""
    d = discretize(k.target, half_width, n)
    op = build_p_matrix(k, d)
    s_mat = symmetrize(op.p_matrix, d)
    eigs = np.linalg.eigvalsh(s_mat)[::-1]
    moduli = np.abs(eigs)
    top = float(eigs[0])
    second = float(np.sort(moduli)[-2]) if n >= 2 else 0.0
    beta_a = beta(k, a).value
    t_ac = norm_T_ac(k, d, a, op)
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
