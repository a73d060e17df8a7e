import math

import mpmath as mp
import numpy as np
import pytest

from mhbound.kernel import _ROOT_POINTS, BLOCK_ELEMENTS, R_QUAD_TOL, MhKernel
from mhbound.models import DensityModel, ProposalModel
from mhbound.quad import adaptive_simpson
from oracles import detailed_balance_residual, log_t_general

R0_LAPLACE = 1.0 - 2.0 / math.e  # closed form for the triangular proposal at the mode
R_TAIL_LAPLACE = 0.5 - 1.0 / math.e


def test_t_eval_examples(laplace_tri):
    assert laplace_tri.t_eval(0.0, 0.5) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-14)
    assert laplace_tri.t_eval(0.0, 1.5) == 0.0
    # uphill move from the left tail is accepted surely
    assert laplace_tri.t_eval(-3.0, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_t_bounded_by_proposal_and_range(laplace_tri):
    rng = np.random.default_rng(2)
    xs = rng.uniform(-10, 10, 10**4)
    us = rng.uniform(-2, 2, 10**4)
    t = laplace_tri.t_eval(xs, us)
    q = laplace_tri.proposal.shape(us)
    assert np.all(t >= 0.0)
    assert np.all(t <= q + 1e-15)
    assert np.all(t[np.abs(us) > 1.0] == 0.0)


def test_t_at_zero_displacement(laplace_tri):
    assert laplace_tri.t_eval(1.3, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_rejection_prob_closed_forms(laplace_tri):
    assert laplace_tri.rejection_prob(0.0) == pytest.approx(R0_LAPLACE, abs=1e-9)
    assert laplace_tri.rejection_prob(3.0) == pytest.approx(R_TAIL_LAPLACE, abs=1e-9)


def test_rejection_prob_flat_region():
    k = MhKernel(DensityModel.from_expression("1"), ProposalModel.triangular())
    assert k.rejection_prob(2.0) == pytest.approx(0.0, abs=1e-12)


def test_rejection_grid_within_unit_interval(laplace_tri):
    xs = np.linspace(-8.0, 8.0, 1000)[::37]
    rs = laplace_tri.rejection_grid(xs)
    assert np.all(rs >= -1e-12) and np.all(rs <= 1.0 + 1e-12)


def test_rejection_prob_is_rejection_grid(builtin_kernel):
    for x in np.linspace(-8.0, 8.0, 1000)[::37]:
        assert builtin_kernel.rejection_prob(float(x)) == builtin_kernel.rejection_grid([x])[0]


def test_rejection_grid_matches_adaptive(laplace_tri, gauss_tri):
    # independent reference: 1 - adaptive Simpson of u -> t(x, x+u), split
    # where the integrand has kinks (u = 0 and u = -2x, where |x+u| = |x|)
    for k in (laplace_tri, gauss_tri):
        s = k.proposal.s
        xs = np.linspace(-6.0, 6.0, 41)
        fast = k.rejection_grid(xs)
        slow = np.array(
            [
                1.0 - adaptive_simpson(lambda u: k.t_eval(x, u), -s, s, breakpoints=(0.0, -2.0 * x)).value
                for x in xs.tolist()
            ]
        )
        np.testing.assert_allclose(fast, slow, atol=5e-7)


def test_rejection_grid_independent_of_block_split(gauss_tri):
    xs = np.linspace(-12.0, 12.0, 4097)
    # integrate_u takes its x in blocks of this many rows of the coarse
    # grid on which it finds the sign changes of d
    rows = BLOCK_ELEMENTS // (2 * _ROOT_POINTS)
    whole = gauss_tri.rejection_grid(xs)
    # sub-batches that start and end mid-block
    cuts = [0, rows // 2, rows + 3, 3 * rows - 1, 3300, xs.size]
    split = np.concatenate([gauss_tri.rejection_grid(xs[i:j]) for i, j in zip(cuts, cuts[1:])])
    np.testing.assert_allclose(split, whole, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "target",
    [DensityModel.laplace(), DensityModel.gauss(), DensityModel.from_expression("exp(-abs(x-3))+exp(-abs(x+3))")],
    ids=["laplace", "gauss", "bimodal"],
)
def test_rejection_grid_independent_of_batch(target):
    # each x's r has the same bits wherever it sits in a batch, so a flat
    # supremum does not move with the rows scanned beside it
    k = MhKernel(target, ProposalModel.triangular())
    xs = np.linspace(-66.0, -1.0, 2049)
    alone = k.rejection_grid(xs)
    behind = k.rejection_grid(np.concatenate([np.linspace(0.0, 10.0, 1000), xs]))[1000:]
    assert np.array_equal(alone, behind)
    for i in range(0, xs.size, 97):
        assert k.rejection_prob(float(xs[i])) == alone[i]


def _bimodal_cuts(x):
    # the kinks of pi at +-3, and every y with pi(y) = pi(x): +-x, and +-y
    # on the other branch, where pi is 2 e^-3 cosh(y) for |y| < 3 and
    # 2 cosh(3) e^-|y| beyond
    if abs(x) < 3:
        other = 3 + mp.log(mp.cosh(3)) - mp.log(mp.cosh(x))
    else:
        c = mp.cosh(3) * mp.exp(3 - abs(x))
        other = mp.acosh(c) if c >= 1 else None
    ys = [3, -3, x, -x] + ([other, -other] if other is not None else [])
    return [y - x for y in ys]


# target, log pi in mpmath, and the kinks in u of r(x)'s integrand besides 0
EXACT_CUTS = {
    "laplace": (DensityModel.laplace(), lambda y: -abs(y), lambda x: [-x, -2 * x]),
    "gauss": (DensityModel.gauss(), lambda y: -y * y / 2, lambda x: [-2 * x]),
    "bimodal": (
        DensityModel.from_expression("exp(-abs(x-3))+exp(-abs(x+3))"),
        lambda y: mp.log(mp.exp(-abs(y - 3)) + mp.exp(-abs(y + 3))),
        _bimodal_cuts,
    ),
    # kinks of pi at 0 and at +-1, where its slope steepens from 1 to 3:
    # there d < 0, so r(x)'s integrand has a kink of the target's own
    "steepening": (
        DensityModel.from_expression("exp(-abs(x) - 2*max(0, abs(x)-1))"),
        lambda y: -abs(y) - 2 * max(0, abs(y) - 1),
        lambda x: [-x, -2 * x, 1 - x, -1 - x],
    ),
}


@pytest.mark.parametrize("name", list(EXACT_CUTS))
def test_rejection_grid_matches_mpmath(name):
    # 30-digit mpmath quad of q(u) min(1, pi(x+u)/pi(x)) with the exact
    # kinks as breakpoints; a fixed rule that leaves the kink where d
    # changes sign inside a panel is up to 2.2e-8 off here
    target, log_pdf, cuts = EXACT_CUTS[name]
    xs = [-5.3, -2.3, -0.41, 0.137, 0.49, 2.9, 3.2, 40.0]
    k = MhKernel(target, ProposalModel.triangular())
    got = k.rejection_grid(np.array(xs))
    with mp.workdps(30):
        for x, r in zip(xs, got.tolist()):
            x = mp.mpf(x)
            lx = log_pdf(x)
            pts = sorted({mp.mpf(-1), mp.mpf(0), mp.mpf(1), *(c for c in cuts(x) if -1 < c < 1)})
            accepted = mp.quad(lambda u: (1 - abs(u)) * min(1, mp.exp(log_pdf(x + u) - lx)), pts)
            assert abs(r - float(1 - accepted)) <= 1e-12, float(x)
    assert k.r_quad_error <= R_QUAD_TOL


def test_rejection_grid_reports_its_largest_error_estimate():
    k = MhKernel(DensityModel.gauss(), ProposalModel.triangular())
    assert k.r_quad_error == 0.0
    k.rejection_grid(np.linspace(-2.0, 2.0, 9))
    small = k.r_quad_error
    assert 0.0 < small <= 1e-14
    # e^{-200 u} on [0, 1]: one panel is 1.8e-4 off, so the piece is
    # halved until the two sums agree, and the estimate stays small
    k.rejection_prob(200.0)
    largest = k.r_quad_error
    assert small < largest <= R_QUAD_TOL
    # a later call with smaller estimates keeps the largest
    k.rejection_grid(np.linspace(-2.0, 2.0, 9))
    assert k.r_quad_error == largest


def test_two_roots_in_one_coarse_cell_flag_the_estimate():
    # a bump of width 0.005 lifts d(0.5, u) above 0 between two roots near
    # u = 0.2, 0.006 apart: one cell of the coarse grid holds both, so no
    # sign change shows them, and the kinks between them fall inside a
    # piece.  The estimate flags it; it need not bound the error
    k = MhKernel(DensityModel.from_expression("exp(-abs(x) + 0.3*exp(-((x-0.7)/0.005)^2))"), ProposalModel.triangular())
    k.rejection_prob(0.5)
    assert k.r_quad_error > R_QUAD_TOL


def test_rejection_grid_reuses_its_block_buffer(expr_laplace_tri, peak_mb):
    # one buffer per call holds x + u and the ratio; an expression target's
    # temporaries are freed with each block: about 1.5 MB, against 29 MB
    # when each block's input stayed alive until the cyclic collector ran
    xs = np.linspace(-66.0, 66.0, 2049)
    assert peak_mb(lambda: expr_laplace_tri.rejection_grid(xs)) < 8.0


def test_detailed_balance_random_pairs(builtin_kernel):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-20, 20, 10**4)
    ys = xs + rng.uniform(-1, 1, 10**4)
    worst = detailed_balance_residual(builtin_kernel, xs, ys).max()
    assert worst <= 1e-10


def test_detailed_balance_array_matches_scalars(builtin_kernel):
    # one array pass gives each pair's value, pairs beyond s included
    xs = np.array([-3.0, 0.2, 4.5, 38.0, 0.0])
    ys = np.array([-2.4, -0.7, 4.5, 38.9, 5.0])
    got = detailed_balance_residual(builtin_kernel, xs, ys)
    assert got.shape == xs.shape
    for x, y, g in zip(xs.tolist(), ys.tolist(), got):
        assert detailed_balance_residual(builtin_kernel, x, y) == g


@pytest.mark.parametrize(
    "proposal",
    [
        ProposalModel.triangular(),
        ProposalModel.uniform(),
        ProposalModel.epanechnikov(2.0),
        # pieces split at u = -0.5 and 0.5 as well
        ProposalModel.from_expression("0.5*max(0, min(1, 1.5-abs(u)))", 1.5),
    ],
    ids=["triangular", "uniform", "epanechnikov", "kinked"],
)
def test_rejection_grid_log_pdf_points_per_x(monkeypatch, proposal):
    # per x: log pi(x), 66 coarse points, 40 bisection steps per root of d,
    # and 48 nodes per piece of [-s, s]: about a tenth of the 3,072 nodes
    # of a fixed rule of 96 panels on each half
    points = []
    log_pdf = DensityModel.log_pdf

    def recorded(self, x):
        points.append(np.size(x))
        return log_pdf(self, x)

    monkeypatch.setattr(DensityModel, "log_pdf", recorded)
    xs = np.linspace(-8.0, 8.0, 101)
    MhKernel(DensityModel.gauss(), proposal).rejection_grid(xs)
    assert sum(points) / xs.size <= 300


def test_detailed_balance_far_tail_gauss(gauss_tri):
    assert detailed_balance_residual(gauss_tri, 5.0, 5.5) <= 1e-12
    assert detailed_balance_residual(gauss_tri, 38.0, 38.9) <= 1e-12


def test_detailed_balance_out_of_range_guarded(laplace_tri):
    assert detailed_balance_residual(laplace_tri, 0.0, 5.0) == 0.0


def test_general_q_agrees_with_symmetric_shortcut(laplace_tri):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = float(rng.uniform(-5, 5))
        u = float(rng.uniform(-1, 1))
        a = laplace_tri.log_t(x, u)
        b = log_t_general(laplace_tri, x, u)
        if a == -math.inf:
            assert b == -math.inf
        else:
            assert a == pytest.approx(b, abs=1e-12)


def test_sqrt_tt_symmetric_in_tail(laplace_tri):
    # for the Laplace target deep in one tail, sqrt(t t') has the closed
    # form Delta(u) e^{-|u|/2}
    for u in (0.3, -0.7):
        expect = laplace_tri.proposal.shape(u) * math.exp(-abs(u) / 2.0)
        assert laplace_tri.sqrt_tt(5.0, u) == pytest.approx(expect, rel=1e-12)


def test_sqrt_tt_broadcasts(laplace_tri):
    xs = np.array([3.0, 4.0, 5.0])
    vals = laplace_tri.sqrt_tt(xs, 0.3)
    assert vals.shape == (3,)
    assert np.allclose(vals, laplace_tri.sqrt_tt(3.0, 0.3))
    assert np.all(laplace_tri.sqrt_tt(xs, 1.5) == 0.0)
