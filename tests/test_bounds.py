import logging
import math
import sys

import mpmath
import numpy as np
import pytest

from mhbound import asymptotics, bounds, quad
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel

from oracles import min_abs_balance_min_max, per_window_report

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
    assert bounds.r_sup_tail(laplace_tri, 3.0, 30.0) == pytest.approx(R_TAIL, abs=1e-6)
    assert bounds.bound_profile(laplace_tri, [3.0], 30.0).best.tail_resolved
    with pytest.raises(ValueError):
        bounds.r_sup_tail(laplace_tri, 30.0, 30.0)


@pytest.fixture
def no_slopes(monkeypatch):
    """Tail slopes that do not settle."""
    def unresolved(*args, **kwargs):
        raise asymptotics.TauNotConvergedError("tail ratio not converged")

    monkeypatch.setattr(asymptotics, "tail_ratio_for", unresolved)


def test_r_sup_tail_without_tail_ratio(no_slopes, caplog):
    # with no tail ratio r_sup_tail is the window scan's maximum alone, with
    # no limit merged into it, and the window's tail is not resolved
    tri = ProposalModel("triangular")
    laplace = MhKernel(DensityModel("laplace"), tri)
    with caplog.at_level(logging.WARNING, logger="mhbound.bounds"):
        assert bounds.r_sup_tail(laplace, 1.0, 66.0) == pytest.approx(R_TAIL, abs=1e-9)
    records = [r for r in caplog.records if r.name == "mhbound.bounds"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    # a second mode in both tails, then in the right or the left one only
    for expr in ("exp(-abs(x-30))+exp(-abs(x+30))", "exp(-abs(x))+exp(-abs(x-30))", "exp(-abs(x))+exp(-abs(x+30))"):
        rep = bounds.bound_profile(MhKernel(DensityModel("expr", source=expr), tri), [1.0], 66.0).best
        assert not rep.tail_resolved and not rep.certified


def test_r_sup_tail_gauss_hits_limit(gauss_tri):
    assert bounds.r_sup_tail(gauss_tri, 5.0, 50.0) == pytest.approx(0.5, abs=1e-9)
    assert bounds.bound_profile(gauss_tri, [5.0], 50.0).best.tail_resolved


def test_beta_laplace_closed_form(laplace_tri):
    res = bounds.beta(laplace_tri, [2.0])[0]
    assert res.value == pytest.approx(BETA_LAPLACE, abs=1e-6)
    assert res.converged


def test_beta_gauss_decays(gauss_tri):
    b4 = bounds.beta(gauss_tri, [4.0])[0].value
    b16 = bounds.beta(gauss_tri, [16.0])[0].value
    assert b16 < b4 < 1.0
    assert b16 < 0.25


@pytest.mark.parametrize("a", [1.0, 4.0, 16.0])
@pytest.mark.parametrize(
    "proposal, q", [("triangular", lambda u: 1 - u), ("uniform", lambda u: mpmath.mpf(1) / 2)]
)
def test_beta_gauss_closed_form(proposal, q, a):
    # on the Gauss tails min_x |d(x, u)| = |u| (2a - |u|) / 2, taken at |x| = a
    with mpmath.workdps(30):
        expect = 2 * mpmath.quad(lambda u: q(u) * mpmath.exp(-u * (2 * a - u) / 4), [0, 1])
    res = bounds.beta(MhKernel(DensityModel("gauss"), ProposalModel(proposal)), [a])[0]
    assert abs(res.value - float(expect)) <= 1e-10
    assert res.converged


@pytest.mark.parametrize("a", [1.0, 4.0, 16.0])
def test_beta_laplace_closed_form_tight(laplace_tri, a):
    assert abs(bounds.beta(laplace_tri, [a])[0].value - BETA_LAPLACE) <= 1e-10


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
    p = ProposalModel("expr", 1.5, KINKED_SHAPE)
    k = MhKernel(DensityModel(family), p)
    rep = bounds.bound_profile(k, [4.0]).best
    assert rep.certified and round(rep.alpha_a, 5) == level

    def q(u):
        return min(1, mpmath.mpf(3) / 2 - u) / 2

    pieces = [0, mpmath.mpf(1) / 2, mpmath.mpf(3) / 2]
    with mpmath.workdps(30):
        beta_ref = 2 * mpmath.quad(lambda u: q(u) * mpmath.exp(-decay(u)), pieces)
        rp_ref = 1 - mpmath.quad(lambda u: q(u) * (1 + tau(u)), pieces)
        gamma_ref = 1 - mpmath.quad(lambda u: q(u) * (1 - mpmath.sqrt(tau(u))) ** 2, pieces)
    slopes = asymptotics.tail_ratio_for(k.target, p)
    assert abs(rep.beta_a - float(beta_ref)) <= 1e-12
    assert np.abs(asymptotics.r_prime_inf(p, slopes) - float(rp_ref)).max() <= 1e-12
    assert np.abs(asymptotics.gamma_inf(p, slopes) - float(gamma_ref)).max() <= 1e-12


def test_beta_sign_change_is_exact():
    # between the modes pi(x+u) = pi(x) for some x in the window, for every
    # u, so the integrand is q(u) and beta is 1; a fixed rule in u that only
    # zooms on |d| reads about 8e-4 low here
    k = MhKernel(DensityModel("expr", source="exp(-abs(x-3))+exp(-abs(x+3))"), ProposalModel("triangular"))
    res = bounds.beta(k, [1.0])[0]
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
    coarse = np.empty(bounds.BLOCK_ELEMENTS)
    (min_d,), closed = bounds._min_abs_balance(Stub(eps), [(xs, np.zeros(xs.size))], us, coarse)
    assert closed and np.all(min_d == 0.0)
    # the same dip kept above zero: the minimum is eps |u|
    (min_d,), closed = bounds._min_abs_balance(Stub(-eps), [(xs, np.zeros(xs.size))], us, coarse)
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
    # the tails' ratio is 1 (c = 0), so the tail supremum of sqrt(t t) is
    # q(u) and beta_a = 1 exactly
    ("1/(1+x^2)", "triangular", 1): 1.0,
    ("1/(1+x^2)", "triangular", 4): 1.0,
    ("1/(1+x^2)", "triangular", 16): 1.0,
    ("1/(1+x^2)", "uniform", 1): 1.0,
    ("1/(1+x^2)", "uniform", 4): 1.0,
    ("1/(1+x^2)", "uniform", 16): 1.0,
}


def _target(name):
    if name in ("laplace", "gauss"):
        return DensityModel(name)
    return DensityModel("expr", source=name)


@pytest.mark.parametrize("target, proposal, a", sorted(BETA_BEFORE))
def test_beta_matches_adaptive_values(target, proposal, a):
    res = bounds.beta(MhKernel(_target(target), ProposalModel(proposal)), [float(a)])[0]
    assert abs(res.value - BETA_BEFORE[target, proposal, a]) <= 1e-7
    assert res.converged


def test_certificates_do_not_call_rejection_prob(builtin_kernel, monkeypatch):
    # r(x) comes only from rejection_grid: no scalar path pins a supremum
    def forbidden(self, x):
        raise AssertionError("rejection_prob must not be called")

    monkeypatch.setattr(MhKernel, "rejection_prob", forbidden)
    rep = bounds.bound_profile(builtin_kernel, [4.0]).best
    assert 0.0 < rep.r_a < 1.0 and rep.converged
    lim = asymptotics.alpha_inf(builtin_kernel)
    assert 0.0 < lim.r_inf < 1.0 and 0.0 < lim.alpha_inf < 1.0


def test_beta_memory_peak(expr_laplace_tri, peak_mb):
    # about 1.2 MB; 2.1 MB when log pi and d were new arrays on every block,
    # 3.7 MB when expression evaluation kept its inputs alive.  The first
    # call also imports the Gauss-Legendre nodes' module
    bounds.beta(expr_laplace_tri, [16.0])
    assert peak_mb(lambda: bounds.beta(expr_laplace_tri, [16.0])) < 1.5


def test_beta_memory_peak_builtin(builtin_kernel, peak_mb):
    # one coarse buffer per call holds x + u, log pi and d: about 1.2 MB,
    # against 2.1 MB with new arrays on every block
    bounds.beta(builtin_kernel, [16.0])
    assert peak_mb(lambda: bounds.beta(builtin_kernel, [16.0])) < 1.5


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

    def counted(self, x, out=None):
        calls.append(x)
        return log_pdf(self, x, out)

    monkeypatch.setattr(DensityModel, "log_pdf", counted)
    (res,) = bounds.beta(gauss_tri, [16.0])
    assert res.converged
    assert 0 < len(calls) <= 40
    assert all(isinstance(x, np.ndarray) and x.size > 1 for x in calls)


def test_alpha_laplace(laplace_tri):
    rep = bounds.bound_profile(laplace_tri, [5.0]).best
    assert rep.alpha_a == pytest.approx(GAMMA_LAPLACE, abs=1e-6)
    assert rep.alpha_a == max(rep.r_a, rep.r_prime_a + rep.beta_a)
    assert rep.certified
    assert "certified" in rep.verdict


def test_reports_cover_their_own_r_evaluations():
    # a report's r_quad_error comes from the scans it ran, so an r(x) with a
    # larger estimate evaluated earlier on the same kernel does not reach it
    fresh = MhKernel(DensityModel("gauss"), ProposalModel("triangular"))
    k = MhKernel(DensityModel("gauss"), ProposalModel("triangular"))
    k.rejection_prob(200.0)
    rep = bounds.bound_profile(k, [4.0]).best
    assert 0.0 < rep.r_quad_error <= 1e-11 and rep.converged
    assert rep.r_quad_error == bounds.bound_profile(fresh, [4.0]).best.r_quad_error
    limit = asymptotics.alpha_inf(k)
    assert 0.0 < limit.r_quad_error <= 1e-11 and limit.certified
    assert limit.r_quad_error == asymptotics.alpha_inf(fresh).r_quad_error


def test_profile_error_covers_the_tail_flatness_scan(no_slopes, monkeypatch):
    # with no slopes the tails are covered by the windows' own r(x) scan
    # alone, with no second flatness scan, so the profile's error is that
    # one scan's largest estimate
    errors, scan = [], bounds.sup_scan

    def recorded(f, lo, hi, **kwargs):
        res = scan(f, lo, hi, **kwargs)
        errors.append(float(res.error.max()))
        return res

    monkeypatch.setattr(bounds, "sup_scan", recorded)
    prof = bounds.bound_profile(MhKernel(DensityModel("laplace"), ProposalModel("triangular")), [1.0, 4.0])
    assert len(errors) == 1 and [rep.r_quad_error for rep in prof.reports] == errors * 2


def test_no_slopes_resolves_no_window(no_slopes, caplog):
    # without the tails' slopes no window's tail supremum is resolved, and
    # one warning says so
    k = MhKernel(DensityModel("laplace"), ProposalModel("triangular"))
    with caplog.at_level(logging.WARNING, logger="mhbound.bounds"):
        prof = bounds.bound_profile(k, [1.0, 4.0])
    assert all(not rep.tail_resolved and not rep.certified for rep in prof.reports)
    assert all(rep.converged for rep in prof.reports)
    assert prof.reports[1].verdict.endswith("tail supremum not resolved")
    records = [r for r in caplog.records if r.name == "mhbound.bounds"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING


def test_alpha_flat_tail_not_certified():
    # Cauchy-like tails: tau = 1, the bound degenerates above 1
    k = MhKernel(DensityModel("expr", source="1/(1+x^2)"), ProposalModel("triangular"))
    rep = bounds.bound_profile(k, [4.0]).best
    assert rep.alpha_a >= 1.0
    assert not rep.certified
    assert "no certification" in rep.verdict


@pytest.mark.parametrize("target", ["laplace", "gauss", "exp(-abs(x-3))+exp(-abs(x+3))"])
def test_profile_monotonicity(target):
    # exact: r_a is a running maximum outward, r'_a and beta_a running
    # extrema inward, over the pieces of one pass
    prof = bounds.bound_profile(MhKernel(_target(target), ProposalModel("triangular")), [0.5, 1, 2, 4, 8, 16])
    rs = [r.r_a for r in prof.reports]
    rps = [r.r_prime_a for r in prof.reports]
    bts = [r.beta_a for r in prof.reports]
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    assert all(b <= a for a, b in zip(rps, rps[1:]))
    assert all(b <= a for a, b in zip(bts, bts[1:]))


ORACLE_TARGETS = ["laplace", "gauss", "exp(-abs(x))", "exp(-abs(x-3))+exp(-abs(x+3))", "exp(-abs(x)-x/2)"]
FLAGS = ("converged", "tail_resolved", "certified")


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_profile_matches_per_window_route(target):
    # the profile's running extrema over pieces against each window scanned
    # and integrated on its own: one window is the same computation, bit
    # for bit, and the default five agree to rounding
    k = MhKernel(_target(target), ProposalModel("triangular"))
    slopes = asymptotics.tail_ratio_for(k.target, k.proposal)
    (single,) = bounds.bound_profile(k, [16.0]).reports
    assert single == per_window_report(k, 16.0, bounds.default_x_max(16.0, 1.0), slopes)
    a_list = bounds.default_a_list(1.0)
    prof = bounds.bound_profile(k, a_list)
    for rep, a in zip(prof.reports, a_list):
        old = per_window_report(k, a, bounds.default_x_max(a_list[-1], 1.0), slopes)
        for name in ("r_a", "r_prime_a", "beta_a", "alpha_a", "beta_error", "r_quad_error"):
            assert abs(getattr(rep, name) - getattr(old, name)) <= 1e-10, name
        assert [getattr(rep, f) for f in FLAGS] == [getattr(old, f) for f in FLAGS]


def test_profile_is_one_r_scan_and_one_beta_pass(gauss_tri, monkeypatch):
    rows, passes = [], []
    scan, min_abs_balance = bounds.sup_scan, bounds._min_abs_balance
    monkeypatch.setattr(bounds, "sup_scan", lambda f, lo, hi, **kw: rows.append(np.size(lo)) or scan(f, lo, hi, **kw))
    monkeypatch.setattr(bounds, "_min_abs_balance", lambda *args: passes.append(args) or min_abs_balance(*args))
    prof = bounds.bound_profile(gauss_tri, bounds.default_a_list(1.0))
    assert len(prof.reports) == 5 and prof.best.converged
    # one pass, on the nodes of the u-rule and then of its doubled-panel rule
    panels = asymptotics.TAIL_PANELS
    rules = [quad.gauss_legendre_grid(-1.0, 1.0, n, (0.0,))[0] for n in (panels, 2 * panels)]
    assert rows == [11] and len(passes) == 1
    assert np.array_equal(passes[0][2], np.concatenate(rules))


@pytest.mark.parametrize("target", ["laplace", "gauss", "exp(-abs(x-3))+exp(-abs(x+3))"])
def test_min_abs_balance_matches_the_min_max_pass(target, monkeypatch):
    # the argmin/argmax coarse pass gives the bits of the min/max/abs/argmax
    # pass, on the windows and u-nodes that beta gives it
    model = DensityModel(target) if target in ("laplace", "gauss") else DensityModel("expr", source=target)
    k = MhKernel(model, ProposalModel("triangular"))
    calls, real = [], bounds._min_abs_balance
    monkeypatch.setattr(bounds, "_min_abs_balance", lambda *args: calls.append((args, real(*args))) or calls[-1][1])
    bounds.beta(k, bounds.default_a_list(1.0))
    ((_, windows, us, _), (best, closed)), = calls
    want, want_closed = min_abs_balance_min_max(k, windows, us)
    assert best.tobytes() == want.tobytes() and closed == want_closed
    # one-signed rows of each sign, and rows that cross 0 for the bimodal
    # target, whose modes at +-3 lie in tail windows
    assert np.any(best[:, us > 0] > 0.0) and np.any(best[:, us < 0] > 0.0)
    assert np.any(best == 0.0) == target.startswith("exp")


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


@pytest.mark.parametrize("slopes", [(-math.inf, -0.5), (-0.5, -math.inf)])
def test_windowed_merge_takes_the_binding_tail(laplace_tri, slopes, monkeypatch):
    # each side's limit merges into both: r'_a with the larger r'_inf (the
    # smaller slope), beta's integrand with the larger slope's, whichever
    # side it is on
    monkeypatch.setattr(asymptotics, "tail_ratio_for", lambda target, proposal: slopes)
    p = laplace_tri.proposal
    assert bounds.r_sup_tail(laplace_tri, 4.0, 20.0) == pytest.approx(0.5, abs=1e-15)
    (bt,) = bounds.beta(laplace_tri, [4.0], 20.0)
    assert abs(bt.value - asymptotics.beta_inf(p, -0.5)) <= 1e-12
    assert bounds.bound_profile(laplace_tri, [4.0], 20.0).best.tail_resolved


def test_windowed_dominates_limit(builtin_kernel):
    c = max(asymptotics.tail_ratio_for(builtin_kernel.target, builtin_kernel.proposal))
    rp_inf = asymptotics.r_prime_inf(builtin_kernel.proposal, c)
    b_inf = asymptotics.beta_inf(builtin_kernel.proposal, c)
    for a in (1.0, 4.0):
        rep = bounds.bound_profile(builtin_kernel, [a]).best
        assert rep.r_prime_a + rep.beta_a >= rp_inf + b_inf - 1e-6
