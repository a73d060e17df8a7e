import math

import numpy as np
import pytest

from mhbound import bounds, spectra
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel
from mhbound.quad import GaussLegendreRule, gauss_legendre_grid
from mhbound.spectra import (
    AsymmetryError,
    Discretization,
    build_p_matrix,
    decomposition_residual,
    discretize,
    hs_norm_T_a,
    norm_T_ac,
    symmetrize,
)


def test_discretize_masses_and_defects(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 401)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-15)
    assert d.grid_defect < 1e-6
    assert d.valid
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
    # boundary rows lose mass and are flagged
    assert np.all(op.boundary_rows == (np.abs(d.nodes) > 19.0))
    assert op.p_matrix[0].sum() < 1.0


def test_build_p_matrix_domain_too_small(laplace_tri):
    d = discretize(laplace_tri.target, 0.5, 11)
    with pytest.raises(ValueError):
        build_p_matrix(laplace_tri, d)


def test_unresolved_proposal_range_degenerates():
    k = MhKernel(DensityModel.laplace(), ProposalModel.triangular(s=0.05))
    d = discretize(k.target, 10.0, 11)  # spacing 2 >> s
    with pytest.warns(UserWarning, match="resolve"):
        op = build_p_matrix(k, d)
    off = op.t_matrix - np.diag(np.diag(op.t_matrix))
    assert np.all(off == 0.0)


def test_symmetrize_equal_masses_identity_case():
    d = Discretization(
        half_width=1.0,
        n=2,
        nodes=np.array([-0.5, 0.5]),
        weights=np.array([1.0, 1.0]),
        masses=np.array([0.5, 0.5]),
        grid_defect=0.0,
        quad_defect=0.0,
    )
    m = np.array([[0.7, 0.3], [0.3, 0.7]])
    np.testing.assert_allclose(symmetrize(m, d), m, atol=1e-15)


def test_symmetrize_laplace_asymmetry_tiny(laplace_tri):
    d = discretize(laplace_tri.target, 15.0, 301)
    op = build_p_matrix(laplace_tri, d)
    root = np.sqrt(d.masses)
    s_raw = (root[:, None] / root[None, :]) * op.p_matrix
    assert np.max(np.abs(s_raw - s_raw.T)) <= 1e-12


def test_symmetrize_detects_broken_kernel(laplace_tri):
    # dropping the min from the accept rule breaks detailed balance
    d = discretize(laplace_tri.target, 15.0, 101)
    q = laplace_tri.proposal.shape(d.nodes[None, :] - d.nodes[:, None]) * d.weights[None, :]
    with pytest.raises(AsymmetryError):
        symmetrize(q, d)


def test_symmetrize_requires_positive_masses():
    d = Discretization(1.0, 2, np.array([-1.0, 1.0]), np.ones(2), np.array([1.0, 0.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        symmetrize(np.eye(2), d)


def test_invariant_eigenvector(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 401)
    op = build_p_matrix(laplace_tri, d)
    s_mat = symmetrize(op.p_matrix, d)
    # oracle route: apply M to the all-ones vector (interior rows fixed)
    ones = np.ones(d.n)
    interior = ~op.boundary_rows
    np.testing.assert_allclose((op.p_matrix @ ones)[interior], 1.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(s_mat)
    assert abs(eigs[-1] - 1.0) <= 5e-4
    vec = np.linalg.eigh(s_mat)[1][:, -1]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    prof = np.sqrt(d.masses)
    prof /= np.linalg.norm(prof)
    core = np.abs(d.nodes) <= 10.0
    rel = np.abs(vec - prof)[core] / prof[core]
    assert np.max(rel) <= 1e-3


def test_norm_T_ac_bounded_by_beta(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 201)
    op = build_p_matrix(laplace_tri, d)
    value = norm_T_ac(laplace_tri, d, 5.0, op)
    assert value <= bounds.beta(laplace_tri, 5.0).value + 0.01
    # oracle: dense SVD of the same masked symmetrized block
    tail = np.abs(d.nodes) > 5.0
    root = np.sqrt(d.masses)
    block = (root[:, None] / root[None, :]) * (op.t_matrix * tail[:, None])
    assert value == pytest.approx(np.linalg.svd(block, compute_uv=False)[0], rel=1e-5)


def test_norm_T_ac_is_largest_singular_value(laplace_tri):
    d = discretize(laplace_tri.target, 20.0, 401)
    op = build_p_matrix(laplace_tri, d)
    tail = np.abs(d.nodes) > 5.0
    root = np.sqrt(d.masses)
    block = (root[:, None] / root[None, :]) * (op.t_matrix * tail[:, None])
    sigma = np.linalg.svd(block, compute_uv=False)[0]
    assert abs(norm_T_ac(laplace_tri, d, 5.0, op) - sigma) <= 1e-12


def test_norm_T_ac_validation(laplace_tri):
    d = discretize(laplace_tri.target, 10.0, 101)
    with pytest.raises(ValueError):
        norm_T_ac(laplace_tri, d, 10.0)


def test_norm_T_ac_small_a_still_contraction(laplace_tri):
    d = discretize(laplace_tri.target, 10.0, 201)
    assert norm_T_ac(laplace_tri, d, 1e-3) <= 1.0 + 1e-9


def test_hs_norm_finite_and_stable(laplace_tri):
    v1 = hs_norm_T_a(laplace_tri, 2.0, 20.0)
    v2 = hs_norm_T_a(laplace_tri, 2.0, 20.0, panel_width=0.0625)
    assert math.isfinite(v1)
    assert abs(v1 - v2) <= 1e-4
    # crude 2D Riemann oracle
    xs = np.linspace(-2.0, 2.0, 400)
    ys = np.linspace(-20.0, 20.0, 2000)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    t_yx = laplace_tri.t_eval(ys[:, None], xs[None, :] - ys[:, None])
    ratio = np.exp(laplace_tri.target.log_pdf(ys)[:, None] - laplace_tri.target.log_pdf(xs)[None, :])
    riemann = math.sqrt(float((t_yx**2 * ratio).sum() * hx * hy))
    assert v1 == pytest.approx(riemann, abs=5e-3)


def test_hs_norm_matches_t_squared_integrand(expr_laplace_tri):
    # the integrand q(x-y)^2 e^{-|log pi(x) - log pi(y)|} is t(y, x)^2
    # pi(y)/pi(x) for the Metropolis kernel; same nodes, t from t_eval
    k = expr_laplace_tri
    got = hs_norm_T_a(k, 2.0, 5.0)
    xs, wx = gauss_legendre_grid(-2.0, 2.0, GaussLegendreRule(panels=32))
    ys, wy = gauss_legendre_grid(-5.0, 5.0, GaussLegendreRule(panels=80))
    t_yx = k.t_eval(ys[:, None], xs[None, :] - ys[:, None])
    ratio = np.exp(k.target.log_pdf(ys)[:, None] - k.target.log_pdf(xs)[None, :])
    assert got == pytest.approx(math.sqrt(float(wy @ (t_yx**2 * ratio) @ wx)), rel=1e-14)


def test_hs_norm_memory_peak(expr_laplace_tri, peak_mb):
    # blocks of 2^16 (y, x) pairs in two reused buffers: about 2.7 MB,
    # against 7.7 MB when t_eval built each block
    assert peak_mb(lambda: hs_norm_T_a(expr_laplace_tri, 5.0, 20.0)) < 4.0


def test_hs_norm_validation(laplace_tri):
    with pytest.raises(ValueError):
        hs_norm_T_a(laplace_tri, 20.0, 20.0)


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
        eigs = np.linalg.eigvalsh(symmetrize(op.p_matrix, d))
        tops.append(np.sort(eigs[np.abs(eigs) > 0.3])[::-1][:20])
    assert np.max(np.abs(tops[0] - tops[1])) < 2e-3


def test_spectrum_in_unit_interval(builtin_kernel):
    d = discretize(builtin_kernel.target, 20.0, 401)
    op = build_p_matrix(builtin_kernel, d)
    eigs = np.linalg.eigvalsh(symmetrize(op.p_matrix, d))
    assert eigs[-1] <= 1.0 + 5e-3
    assert eigs[0] >= -1.0 - 5e-3
    assert int(np.sum(np.abs(eigs - 1.0) <= 5e-4)) == 1


def test_spectral_report_fields(laplace_tri):
    rep = spectra.spectral_report(laplace_tri, 15.0, 151, 5.0)
    assert "heuristic" in rep.caveat
    d = rep.to_dict()
    assert d["caveat"] == rep.caveat
    assert len(d["eigenvalues"]) == 151
    assert rep.second_modulus <= rep.top_eigenvalue
