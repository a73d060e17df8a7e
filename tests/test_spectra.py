import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mhbound import bounds, spectra
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel
from mhbound.quad import gauss_legendre_grid
from mhbound.spectra import build_p_matrix, discretize, hs_norm_T_a, norm_T_ac, symmetrize

from oracles import decomposition_residual


def test_discretize_masses_and_defects(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 401)
    assert d.quad_defect < 1e-3
    assert d.grid_defect < 1e-6
    assert d.step == pytest.approx(0.1, abs=1e-14)
    assert d.nodes[200] == 0.0


def test_discretize_validation(laplace_tri):
    with pytest.raises(ValueError):
        discretize(laplace_tri.target, 20.0, 400)  # even
    with pytest.raises(ValueError):
        discretize(laplace_tri.target, 20.0, 1)
    with pytest.raises(ValueError):
        discretize(laplace_tri.target, -1.0, 401)


def test_interior_rows_stochastic(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 801)
    op = build_p_matrix(laplace_tri, d)
    assert op.row_sum_defect <= 1e-6
    # boundary rows, whose range reaches the edge node, lose mass and are flagged
    assert np.all(op.boundary_rows == (np.abs(d.nodes) >= 19.0 - 1e-9))
    assert op.p_matrix[0].sum() < 1.0


def test_build_p_matrix_domain_too_small(laplace_tri):
    d = discretize(laplace_tri.target, 0.5, 11)
    with pytest.raises(ValueError):
        build_p_matrix(laplace_tri, d)


def test_unresolved_proposal_range_degenerates(caplog):
    k = MhKernel(DensityModel("laplace"), ProposalModel("triangular", s=0.05))
    d = discretize(k.target, 10.0, 11)  # spacing 2 >> s
    with caplog.at_level(logging.WARNING, logger="mhbound.spectra"):
        op = build_p_matrix(k, d)
    assert any("resolve" in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)
    off = op.p_matrix - np.diag(np.diag(op.p_matrix))
    assert np.all(off == 0.0)


def test_boundary_rows_reach_the_edge_node():
    # with the uniform shape, the row at |x| = A - s reaches the edge
    # node, which has half weight: it is a boundary row
    k = MhKernel(DensityModel("laplace"), ProposalModel("uniform"))
    op = build_p_matrix(k, discretize(k.target, 20.0, 801))
    assert op.row_sum_defect <= 1e-12


@pytest.mark.parametrize(
    "target",
    [DensityModel("laplace"), DensityModel("gauss"), DensityModel("expr", source="exp(-abs(x))")],
    ids=["laplace", "gauss", "expr_laplace"],
)
def test_symmetrize_matches_t_eval(target):
    # S is sqrt(t(x_i, x_j) t(x_j, x_i) w_i w_j), with t from t_eval on
    # the same nodes, plus r on the diagonal; symmetric to the bit
    k = MhKernel(target, ProposalModel("triangular"))
    d = discretize(k.target, 15.0, 301)
    op = build_p_matrix(k, d)
    s_mat = symmetrize(k, op)
    x = d.nodes
    t = k.t_eval(x[:, None], x[None, :] - x[:, None])
    expect = np.sqrt(t * t.T) * np.sqrt(np.outer(d.weights, d.weights))
    expect[np.diag_indices(d.n)] += op.r_grid
    assert np.array_equal(s_mat, s_mat.T)
    np.testing.assert_allclose(s_mat, expect, rtol=1e-13, atol=0.0)


def test_invariant_eigenvector(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 401)
    op = build_p_matrix(laplace_tri, d)
    s_mat = symmetrize(laplace_tri, op)
    # oracle route: apply M to the all-ones vector (interior rows fixed)
    ones = np.ones(d.n)
    interior = ~op.boundary_rows
    np.testing.assert_allclose((op.p_matrix @ ones)[interior], 1.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(s_mat)
    assert abs(eigs[-1] - 1.0) <= 5e-4
    vec = np.linalg.eigh(s_mat)[1][:, -1]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    prof = np.sqrt(laplace_tri.target.pdf(d.nodes) * d.weights)
    prof /= np.linalg.norm(prof)
    core = np.abs(d.nodes) <= 10.0
    rel = np.abs(vec - prof)[core] / prof[core]
    assert np.max(rel) <= 1e-3


def test_norm_T_ac_bounded_by_beta(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 201)
    op = build_p_matrix(laplace_tri, d)
    value = norm_T_ac(symmetrize(laplace_tri, op), op, 5.0)
    assert value <= bounds.beta(laplace_tri, [5.0])[0].value + 0.01
    # oracle: dense SVD of the masked continuous part of P, similar to
    # the block through the node masses pi(x_i) w_i
    tail = np.abs(d.nodes) > 5.0
    root = np.sqrt(laplace_tri.target.pdf(d.nodes) * d.weights)
    t_matrix = op.p_matrix - np.diag(op.r_grid)
    block = (root[:, None] / root[None, :]) * (t_matrix * tail[:, None])
    assert value == pytest.approx(np.linalg.svd(block, compute_uv=False)[0], rel=1e-5)


def test_norm_T_ac_is_largest_singular_value(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 401)
    op = build_p_matrix(laplace_tri, d)
    tail = np.abs(d.nodes) > 5.0
    root = np.sqrt(laplace_tri.target.pdf(d.nodes) * d.weights)
    t_matrix = op.p_matrix - np.diag(op.r_grid)
    block = (root[:, None] / root[None, :]) * (t_matrix * tail[:, None])
    sigma = np.linalg.svd(block, compute_uv=False)[0]
    assert abs(norm_T_ac(symmetrize(laplace_tri, op), op, 5.0) - sigma) <= 1e-12


def test_norm_T_ac_validation(laplace_tri):
    op = build_p_matrix(laplace_tri, discretize(laplace_tri.target, 10.0, 101))
    with pytest.raises(ValueError):
        norm_T_ac(symmetrize(laplace_tri, op), op, 10.0)


def test_norm_T_ac_small_a_still_contraction(laplace_tri):
    op = build_p_matrix(laplace_tri, discretize(laplace_tri.target, 10.0, 201))
    assert norm_T_ac(symmetrize(laplace_tri, op), op, 1e-3) <= 1.0 + 1e-9


def test_hs_norm_finite_and_stable(laplace_tri):
    v1 = hs_norm_T_a(laplace_tri, 2.0)
    assert math.isfinite(v1)
    # crude 2D Riemann oracle
    xs = np.linspace(-2.0, 2.0, 400)
    ys = np.linspace(-20.0, 20.0, 2000)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    t_yx = laplace_tri.t_eval(ys[:, None], xs[None, :] - ys[:, None])
    ratio = np.exp(laplace_tri.target.log_pdf(ys)[:, None] - laplace_tri.target.log_pdf(xs)[None, :])
    riemann = math.sqrt(float((t_yx**2 * ratio).sum() * hx * hy))
    assert v1 == pytest.approx(riemann, abs=5e-3)


@pytest.mark.parametrize(
    "target, proposal",
    [
        (DensityModel("laplace"), ProposalModel("triangular")),
        (DensityModel("gauss"), ProposalModel("triangular")),
        (DensityModel("laplace"), ProposalModel("uniform")),
        (DensityModel("gauss"), ProposalModel("epanechnikov")),
        (DensityModel("expr", source="exp(-abs(x))"), ProposalModel("triangular")),
    ],
    ids=["laplace", "gauss", "laplace-uniform", "gauss-epanechnikov", "expr_laplace"],
)
def test_hs_norm_matches_scipy_reference(target, proposal):
    # nested adaptive quadrature of q(u)^2 e^{-|log pi(x+u) - log pi(x)|},
    # split where the integrand has kinks: u = 0, -x (the targets' kink at
    # x + u = 0) and -2x (where pi(x+u) = pi(x)); in x, where those cross
    # 0 and the ends +-s of the u-range
    a, s = 2.0, proposal.s

    def pieces(lo, hi, cuts):
        edges = [lo, *sorted(c for c in set(cuts) if lo < c < hi), hi]
        return zip(edges[:-1], edges[1:])

    def inner(x):
        lx = float(target.log_pdf(x))

        def f(u):
            return float(proposal.shape(u)) ** 2 * math.exp(-abs(float(target.log_pdf(x + u)) - lx))

        return sum(quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)[0] for lo, hi in pieces(-s, s, (0.0, -x, -2.0 * x)))

    cuts = (0.0, 0.5 * s, -0.5 * s, s, -s)
    expect = math.sqrt(sum(quad(inner, lo, hi, epsabs=1e-12, epsrel=1e-12)[0] for lo, hi in pieces(-a, a, cuts)))
    assert abs(hs_norm_T_a(MhKernel(target, proposal), a) - expect) <= 1e-7


def test_hs_norm_matches_t_squared_integrand(expr_laplace_tri, monkeypatch):
    # the integrand q(u)^2 e^{-|d|} is t(x+u, x)^2 pi(x+u)/pi(x) for the
    # Metropolis kernel; on the pieces of integrate_u's own u-rule, with
    # the nodes of its two half panels, and t from t_eval
    k = expr_laplace_tri
    pieces = []
    piece_sums = MhKernel._piece_sums

    def recorded(self, x, lx, lo, hi, *args):
        pieces.append((x, lo, hi))
        return piece_sums(self, x, lx, lo, hi, *args)

    monkeypatch.setattr(MhKernel, "_piece_sums", recorded)
    got = hs_norm_T_a(k, 2.0)
    xs, wx = gauss_legendre_grid(-2.0, 2.0, 32)
    x, lo, hi = (np.concatenate(parts) for parts in zip(*pieces))
    row = np.searchsorted(xs, x)
    # the pieces of each x tile [-s, s] once: no piece was halved
    np.testing.assert_allclose(np.bincount(row, hi - lo, xs.size), 2.0, rtol=0.0, atol=1e-14)
    rows = np.zeros(xs.size)
    for i, a, b in zip(row.tolist(), lo.tolist(), hi.tolist()):
        us, wu = gauss_legendre_grid(a, b, 2)
        t_yx = k.t_eval(xs[i] + us, -us)
        ratio = np.exp(k.target.log_pdf(xs[i] + us) - k.target.log_pdf(xs[i : i + 1]))
        rows[i] += (t_yx**2 * ratio) @ wu
    assert got == pytest.approx(math.sqrt(float(wx @ rows)), rel=1e-14)


def test_hs_norm_independent_of_domain(laplace_tri):
    # the core block belongs to P: a spectrum domain A below a + s does not
    # truncate it
    narrow, wide = (spectra.spectral_report(laplace_tri, A, 51, 5.0) for A in (5.5, 20.0))
    assert narrow.hs_norm_t_a == wide.hs_norm_t_a == hs_norm_T_a(laplace_tri, 5.0)


def test_hs_norm_memory_peak(expr_laplace_tri, peak_mb):
    # one integrate_u call: one reused block buffer, the block's weights
    # and the temporaries of the expression target, about 1.5 MB
    assert peak_mb(lambda: hs_norm_T_a(expr_laplace_tri, 5.0)) < 2.0


def test_hs_norm_validation(laplace_tri):
    for a in (0.0, -1.0):
        with pytest.raises(ValueError):
            hs_norm_T_a(laplace_tri, a)


def test_decomposition_residual_negative(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 201)
    rep = bounds.alpha(laplace_tri, 5.0)
    res = decomposition_residual(laplace_tri, d, 5.0, 4, rep)
    assert res <= 5e-3


def test_decomposition_residual_validation(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 101)
    rep = bounds.alpha(laplace_tri, 5.0)
    with pytest.raises(ValueError):
        decomposition_residual(laplace_tri, d, 5.0, 9, rep)
    with pytest.raises(ValueError):
        decomposition_residual(laplace_tri, d, 25.0, 2, rep)


def test_refinement_stability_of_eigenvalues(builtin_kernel):
    # heuristic stability: eigenvalues above 0.3 in modulus move < 2e-3
    # from n=401 to n=801 (symmetric-eigensolver oracle keeps this fast)
    tops = []
    for n in (401, 801):
        d = discretize(builtin_kernel.target, 20.0, n)
        op = build_p_matrix(builtin_kernel, d)
        eigs = np.linalg.eigvalsh(symmetrize(builtin_kernel, op))
        tops.append(np.sort(eigs[np.abs(eigs) > 0.3])[::-1][:20])
    assert np.max(np.abs(tops[0] - tops[1])) < 2e-3


def test_spectrum_in_unit_interval(builtin_kernel):
    d = discretize(builtin_kernel.target, 20.0, 401)
    op = build_p_matrix(builtin_kernel, d)
    eigs = np.linalg.eigvalsh(symmetrize(builtin_kernel, op))
    assert eigs[-1] <= 1.0 + 5e-3
    assert eigs[0] >= -1.0 - 5e-3
    assert int(np.sum(np.abs(eigs - 1.0) <= 5e-4)) == 1


def test_spectral_report_fields(laplace_tri):
    rep = spectra.spectral_report(laplace_tri, 15.0, 151, 5.0)
    assert "heuristic" in rep.caveat
    d = dataclasses.asdict(rep)
    assert d["caveat"] == rep.caveat
    assert len(d["eigenvalues"]) == 151
    assert rep.second_modulus <= rep.top_eigenvalue


#: log pi up to a constant, in closed form, for the mass-route reference
LOG_PI = {"laplace": lambda x: -np.abs(x), "gauss": lambda x: -0.5 * x * x}


@pytest.mark.parametrize("proposal", ["triangular", "uniform"])
@pytest.mark.parametrize("family", ["laplace", "gauss"])
def test_spectral_report_matches_mass_route(family, proposal):
    # the route S replaces: P in the Hastings coordinates, made symmetric
    # by sqrt(m_i / m_j) with closed-form node masses m = pi(x) w, then
    # LAPACK eigvalsh for the spectrum and an SVD for the tail block
    k = MhKernel(DensityModel(family), ProposalModel(proposal, 1.0))
    rep = spectra.spectral_report(k, 20.0, 801, 5.0)
    d = discretize(k.target, 20.0, 801)
    op = build_p_matrix(k, d)
    log_m = LOG_PI[family](d.nodes) + np.log(d.weights)
    root = np.exp(0.5 * (log_m - log_m.max()))
    sim = root[:, None] / root[None, :]
    sym = sim * op.p_matrix
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))[::-1]
    tail = np.abs(d.nodes) > 5.0
    block = sim * ((op.p_matrix - np.diag(op.r_grid)) * tail[:, None])
    assert np.max(np.abs(rep.eigenvalues - eigs)) <= 1e-12
    assert abs(rep.norm_t_ac - np.linalg.svd(block, compute_uv=False)[0]) <= 1e-12
