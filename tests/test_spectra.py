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


def test_unresolved_proposal_range_degenerates(caplog):
    k = MhKernel(DensityModel.laplace(), ProposalModel.triangular(s=0.05))
    d = discretize(k.target, 10.0, 11)  # spacing 2 >> s
    with caplog.at_level(logging.WARNING, logger="mhbound.spectra"):
        op = build_p_matrix(k, d)
    assert any("resolve" in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)
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
        (DensityModel.laplace(), ProposalModel.triangular()),
        (DensityModel.gauss(), ProposalModel.triangular()),
        (DensityModel.laplace(), ProposalModel.uniform()),
        (DensityModel.gauss(), ProposalModel.epanechnikov()),
        (DensityModel.from_expression("exp(-abs(x))"), ProposalModel.triangular()),
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
    d = dataclasses.asdict(rep)
    assert d["caveat"] == rep.caveat
    assert len(d["eigenvalues"]) == 151
    assert rep.second_modulus <= rep.top_eigenvalue
