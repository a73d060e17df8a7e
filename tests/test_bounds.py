import logging
import math
import sys

import mpmath
import numpy as np
import pytest

from mhbound import asymptotics, bounds, quad
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel

R0 = 1.0 - 2.0 / math.e
R_TAIL = 0.5 - 1.0 / math.e
BETA_LAPLACE = 8.0 * math.exp(-0.5) - 4.0
GAMMA_LAPLACE = 8.0 * math.exp(-0.5) - math.exp(-1.0) - 3.5


def test_r_sup_compact_laplace(laplace_tri):
    res = bounds.r_sup_compact(laplace_tri, 2.0)
    assert res.value == pytest.approx(R0, abs=1e-6)
    assert abs(res.argmax) <= 1e-4
    assert res.converged


def test_r_sup_compact_degenerate_interval(laplace_tri):
    res = bounds.r_sup_compact(laplace_tri, 1e-6)
    assert res.value == pytest.approx(R0, abs=1e-6)


def test_r_sup_compact_validation(laplace_tri):
    with pytest.raises(ValueError):
        bounds.r_sup_compact(laplace_tri, 0.0)


def test_r_sup_tail_laplace(laplace_tri):
    res = bounds.r_sup_tail(laplace_tri, 3.0, 30.0)
    assert res.value == pytest.approx(R_TAIL, abs=1e-6)
    assert res.tail_resolved
    with pytest.raises(ValueError):
        bounds.r_sup_tail(laplace_tri, 30.0, 30.0)


def test_r_sup_tail_without_tail_ratio(monkeypatch, caplog):
    # with no tail ratio the window scans alone decide, through their flatness check
    def unresolved(*args, **kwargs):
        raise asymptotics.TauNotConvergedError("tail ratio not converged")

    monkeypatch.setattr(asymptotics, "tail_ratio_for", unresolved)
    tri = ProposalModel.triangular()
    res = bounds.r_sup_tail(MhKernel(DensityModel.laplace(), tri), 1.0, 66.0)
    assert res.tail_resolved and res.converged
    assert res.value == pytest.approx(R_TAIL, abs=1e-9)
    # a second mode in both tails, then in the right or the left one only
    for expr in ("exp(-abs(x-30))+exp(-abs(x+30))", "exp(-abs(x))+exp(-abs(x-30))", "exp(-abs(x))+exp(-abs(x+30))"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mhbound.bounds"):
            res = bounds.r_sup_tail(MhKernel(DensityModel.from_expression(expr), tri), 1.0, 66.0)
        assert not res.tail_resolved and not res.converged
        records = [r for r in caplog.records if r.name == "mhbound.bounds"]
        assert len(records) == 1 and records[0].levelno == logging.WARNING


def test_r_sup_tail_gauss_hits_limit(gauss_tri):
    res = bounds.r_sup_tail(gauss_tri, 5.0, 50.0)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.tail_resolved


def test_beta_laplace_closed_form(laplace_tri):
    res = bounds.beta(laplace_tri, 2.0)
    assert res.value == pytest.approx(BETA_LAPLACE, abs=1e-6)
    assert res.converged and res.tail_resolved


def test_beta_gauss_decays(gauss_tri):
    b4 = bounds.beta(gauss_tri, 4.0).value
    b16 = bounds.beta(gauss_tri, 16.0).value
    assert b16 < b4 < 1.0
    assert b16 < 0.25


PROPOSALS = {"triangular": ProposalModel.triangular, "uniform": ProposalModel.uniform}


@pytest.mark.parametrize("a", [1.0, 4.0, 16.0])
@pytest.mark.parametrize(
    "proposal, q", [("triangular", lambda u: 1 - u), ("uniform", lambda u: mpmath.mpf(1) / 2)]
)
def test_beta_gauss_closed_form(proposal, q, a):
    # on the Gauss tails min_x |d(x, u)| = |u| (2a - |u|) / 2, taken at |x| = a
    with mpmath.workdps(30):
        expect = 2 * mpmath.quad(lambda u: q(u) * mpmath.exp(-u * (2 * a - u) / 4), [0, 1])
    res = bounds.beta(MhKernel(DensityModel.gauss(), PROPOSALS[proposal]()), a)
    assert abs(res.value - float(expect)) <= 1e-10
    assert res.converged and res.tail_resolved


@pytest.mark.parametrize("a", [1.0, 4.0, 16.0])
def test_beta_laplace_closed_form_tight(laplace_tri, a):
    assert abs(bounds.beta(laplace_tri, a).value - BETA_LAPLACE) <= 1e-10


#: normalized on [-1.5, 1.5], with kinks at u = 0 and u = +-1/2
KINKED_SHAPE = "0.5*max(0, min(1, 1.5-abs(u)))"


@pytest.mark.parametrize(
    "family, level, tau, decay",
    [
        # min_x |d(x, u)| on the tail windows: |u| for Laplace,
        # |u| (2a - |u|) / 2 at a = 4 for Gauss (see above)
        ("laplace", 0.96596, lambda u: mpmath.exp(-u), lambda u: u / 2),
        ("gauss", 0.94246, lambda u: 0, lambda u: u * (8 - u) / 4),
    ],
)
def test_kinked_shape_matches_mpmath(family, level, tau, decay):
    # a rule split only at 0 read beta_error = 1.2e-5 here and certified
    # at no window
    p = ProposalModel.from_expression(KINKED_SHAPE, 1.5)
    k = MhKernel(DensityModel(family), p)
    rep = bounds.alpha(k, 4.0)
    assert rep.certified and round(rep.alpha_a, 5) == level

    def q(u):
        return min(1, mpmath.mpf(3) / 2 - u) / 2

    pieces = [0, mpmath.mpf(1) / 2, mpmath.mpf(3) / 2]
    with mpmath.workdps(30):
        beta_ref = 2 * mpmath.quad(lambda u: q(u) * mpmath.exp(-decay(u)), pieces)
        rp_ref = 1 - mpmath.quad(lambda u: q(u) * (1 + tau(u)), pieces)
        gamma_ref = 1 - mpmath.quad(lambda u: q(u) * (1 - mpmath.sqrt(tau(u))) ** 2, pieces)
    limit = asymptotics.tail_ratio_for(k.target, p.s)
    assert abs(rep.beta_a - float(beta_ref)) <= 1e-12
    assert abs(asymptotics.r_prime_inf(p, limit) - float(rp_ref)) <= 1e-12
    assert abs(asymptotics.gamma_inf(p, limit) - float(gamma_ref)) <= 1e-12


def test_beta_sign_change_is_exact():
    # between the modes pi(x+u) = pi(x) for some x in the window, for every
    # u, so the integrand is q(u) and beta is 1; a fixed rule in u that only
    # zooms on |d| reads about 8e-4 low here
    k = MhKernel(DensityModel.from_expression("exp(-abs(x-3))+exp(-abs(x+3))"), ProposalModel.triangular())
    res = bounds.beta(k, 1.0)
    assert abs(res.value - 1.0) <= 1e-9
    assert res.converged


def test_min_abs_balance_finds_crossings_between_grid_points():
    # d(x, u) = u ((x - c)^2 - eps) keeps one sign on the coarse grid and
    # changes it only between two grid points, so the zoom must find it
    xs = np.linspace(0.0, 1.0, 1025)
    c = 0.5 * (xs[500] + xs[501])

    class Stub:
        def __init__(self, eps):
            self.eps = eps

        def log_balance(self, x, u, log_pi_x=None, out=None):
            np.add(x, u, out=out)
            return u * ((x - c) ** 2 - self.eps)

    us = np.array([-1.0, 1.0, 2.0])
    eps = (0.25 * (xs[1] - xs[0])) ** 2
    min_d, closed = bounds._min_abs_balance(Stub(eps), [(xs, np.zeros(xs.size))], us)
    assert closed and np.all(min_d == 0.0)
    # the same dip kept above zero: the minimum is eps |u|
    min_d, closed = bounds._min_abs_balance(Stub(-eps), [(xs, np.zeros(xs.size))], us)
    assert closed
    np.testing.assert_allclose(min_d, eps * np.abs(us), rtol=1e-6)


#: beta from the adaptive Simpson rule over nested sup_scans that the fixed
#: Gauss-Legendre rule replaced (default x_max, automatic tail ratio)
BETA_BEFORE = {
    ("laplace", "triangular", 1): 0.8522452777016764,
    ("laplace", "triangular", 4): 0.8522452777016764,
    ("laplace", "triangular", 16): 0.8522452777016769,
    ("laplace", "uniform", 1): 0.7869386805762847,
    ("laplace", "uniform", 4): 0.7869386805762847,
    ("laplace", "uniform", 16): 0.7869386805762842,
    ("gauss", "triangular", 1): 0.8847968677202694,
    ("gauss", "triangular", 4): 0.581841917455353,
    ("gauss", "triangular", 16): 0.22000382070186444,
    ("gauss", "uniform", 1): 0.8488727670090237,
    ("gauss", "uniform", 4): 0.4538437181360593,
    ("gauss", "uniform", 16): 0.12594244036321833,
    ("exp(-abs(x))", "triangular", 1): 0.8522452777016758,
    ("exp(-abs(x))", "triangular", 4): 0.8522452777016758,
    ("exp(-abs(x))", "triangular", 16): 0.8522452777016767,
    ("exp(-abs(x))", "uniform", 1): 0.7869386805762842,
    ("exp(-abs(x))", "uniform", 4): 0.7869386805762842,
    ("exp(-abs(x))", "uniform", 16): 0.7869386805762842,
    ("exp(-abs(x)-x/2)", "triangular", 1): 0.9216250582862922,
    ("exp(-abs(x)-x/2)", "triangular", 4): 0.9216250582862922,
    ("exp(-abs(x)-x/2)", "triangular", 16): 0.9216250582862923,
    ("exp(-abs(x)-x/2)", "uniform", 1): 0.884796867716124,
    ("exp(-abs(x)-x/2)", "uniform", 4): 0.884796867716124,
    ("exp(-abs(x)-x/2)", "uniform", 16): 0.8847968677161243,
    ("1/(1+x^2)", "triangular", 1): 0.9999997218616905,
    ("1/(1+x^2)", "triangular", 4): 0.9999997218616905,
    ("1/(1+x^2)", "triangular", 16): 0.9999997218616905,
    ("1/(1+x^2)", "uniform", 1): 0.999999677436828,
    ("1/(1+x^2)", "uniform", 4): 0.999999677436828,
    ("1/(1+x^2)", "uniform", 16): 0.999999677436828,
}


def _target(name):
    if name in ("laplace", "gauss"):
        return DensityModel(name)
    return DensityModel.from_expression(name)


@pytest.mark.parametrize("target, proposal, a", sorted(BETA_BEFORE))
def test_beta_matches_adaptive_values(target, proposal, a):
    res = bounds.beta(MhKernel(_target(target), PROPOSALS[proposal]()), float(a))
    assert abs(res.value - BETA_BEFORE[target, proposal, a]) <= 1e-7
    assert res.converged and res.tail_resolved


def test_certificates_do_not_call_rejection_prob(builtin_kernel, monkeypatch):
    # r(x) comes only from rejection_grid: no scalar path pins a supremum
    def forbidden(self, x):
        raise AssertionError("rejection_prob must not be called")

    monkeypatch.setattr(MhKernel, "rejection_prob", forbidden)
    rep = bounds.alpha(builtin_kernel, 4.0)
    assert 0.0 < rep.r_a < 1.0 and rep.converged
    lim = asymptotics.alpha_inf(builtin_kernel)
    assert 0.0 < lim.r_inf < 1.0 and 0.0 < lim.alpha_inf < 1.0


def test_beta_memory_peak(expr_laplace_tri, peak_mb):
    # about 2.1 MB; 3.7 MB when expression evaluation kept its inputs alive
    assert peak_mb(lambda: bounds.beta(expr_laplace_tri, 16.0)) < 3.0


def test_beta_is_one_array_pass(gauss_tri, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("beta must not run a scalar scan or adaptive quadrature")

    for name in ("sup_scan", "adaptive_simpson"):
        original = getattr(quad, name)
        for module in [m for n, m in sys.modules.items() if n.startswith("mhbound")]:
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, forbidden)
    calls = []
    log_pdf = DensityModel.log_pdf

    def counted(self, x):
        calls.append(x)
        return log_pdf(self, x)

    monkeypatch.setattr(DensityModel, "log_pdf", counted)
    res = bounds.beta(gauss_tri, 16.0)
    assert res.converged
    assert 0 < len(calls) <= 40
    assert all(isinstance(x, np.ndarray) and x.size > 1 for x in calls)


def test_alpha_laplace(laplace_tri):
    rep = bounds.alpha(laplace_tri, 5.0)
    assert rep.alpha_a == pytest.approx(GAMMA_LAPLACE, abs=1e-6)
    assert rep.alpha_a == max(rep.r_a, rep.r_prime_a + rep.beta_a)
    assert rep.certified
    assert "certified" in rep.verdict


def test_reports_cover_their_own_r_evaluations():
    # each report starts the kernel's largest r(x) error estimate afresh, so
    # an estimate left over from an earlier call does not reach it
    k = MhKernel(DensityModel.gauss(), ProposalModel.triangular())
    k.r_quad_error = 1.0
    rep = bounds.alpha(k, 4.0)
    assert 0.0 < rep.r_quad_error <= 1e-11 and rep.converged
    k.r_quad_error = 1.0
    limit = asymptotics.alpha_inf(k)
    assert 0.0 < limit.r_quad_error <= 1e-11 and limit.certified
    assert k.r_quad_error == limit.r_quad_error


def test_alpha_flat_tail_not_certified():
    # Cauchy-like tails: tau = 1, the bound degenerates above 1
    k = MhKernel(DensityModel.from_expression("1/(1+x^2)"), ProposalModel.triangular())
    rep = bounds.alpha(k, 4.0)
    assert rep.alpha_a >= 1.0
    assert not rep.certified
    assert "no certification" in rep.verdict


def test_profile_monotonicity(builtin_kernel):
    prof = bounds.bound_profile(builtin_kernel, [0.5, 1, 2, 4, 8, 16])
    rs = [r.r_a for r in prof.reports]
    rps = [r.r_prime_a for r in prof.reports]
    bts = [r.beta_a for r in prof.reports]
    tol = 1e-6
    assert all(b >= a - tol for a, b in zip(rs, rs[1:]))
    assert all(b <= a + tol for a, b in zip(rps, rps[1:]))
    assert all(b <= a + tol for a, b in zip(bts, bts[1:]))


def test_profile_laplace_stabilizes(laplace_tri):
    prof = bounds.bound_profile(laplace_tri, [1, 2, 4, 8])
    alphas = [r.alpha_a for r in prof.reports]
    assert alphas[0] >= alphas[-1] - 1e-9
    assert alphas[-1] == pytest.approx(GAMMA_LAPLACE, abs=1e-6)
    assert prof.best.alpha_a == min(alphas)


def test_profile_validation(laplace_tri):
    with pytest.raises(ValueError):
        bounds.bound_profile(laplace_tri, [])
    with pytest.raises(ValueError):
        bounds.bound_profile(laplace_tri, [2.0, 1.0])
    single = bounds.bound_profile(laplace_tri, [2.0])
    assert len(single.reports) == 1


def test_windowed_dominates_limit(builtin_kernel):
    tau = asymptotics.tail_ratio_for(builtin_kernel.target, builtin_kernel.proposal.s)
    rp_inf = asymptotics.r_prime_inf(builtin_kernel.proposal, tau)
    b_inf = asymptotics.beta_inf(builtin_kernel.proposal, tau)
    for a in (1.0, 4.0):
        rep = bounds.alpha(builtin_kernel, a)
        assert rep.r_prime_a + rep.beta_a >= rp_inf + b_inf - 1e-6
