import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from mhbound.kernel import _ROOT_INNER, _ROOT_POINTS, BLOCK_ELEMENTS, R_QUAD_TOL, MhKernel
from mhbound.models import DensityModel, ProposalModel
from mhbound.quad import adaptive_simpson
from oracles import (
    detailed_balance_residual,
    log_balance_with_gap,
    log_t_general,
    piece_sums_per_piece,
    pieces_bisection,
    rejection_by_quad,
)

R0_LAPLACE = 1.0 - 2.0 / math.e  # closed form for the triangular proposal at the mode
R_TAIL_LAPLACE = 0.5 - 1.0 / math.e

#: the symmetric shapes of the certificate commands, with kinks at u = 0
#: (triangular), at the ends only, and at u = -0.5 and 0.5 as well (kinked)
SYMMETRIC_SHAPES = [
    ProposalModel("triangular"),
    ProposalModel("uniform"),
    ProposalModel("epanechnikov", 2.0),
    ProposalModel("expr", 1.5, "0.5*max(0, min(1, 1.5-abs(u)))"),
]
SHAPE_IDS = ["triangular", "uniform", "epanechnikov", "kinked"]


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
    k = MhKernel(DensityModel("expr", source="1"), ProposalModel("triangular"))
    assert k.rejection_prob(2.0) == pytest.approx(0.0, abs=1e-12)


def test_rejection_grid_within_unit_interval(laplace_tri):
    xs = np.linspace(-8.0, 8.0, 1000)[::37]
    rs, _ = laplace_tri.rejection_grid(xs)
    assert np.all(rs >= -1e-12) and np.all(rs <= 1.0 + 1e-12)


def test_rejection_prob_is_rejection_grid(builtin_kernel):
    for x in np.linspace(-8.0, 8.0, 1000)[::37]:
        assert builtin_kernel.rejection_prob(float(x)) == builtin_kernel.rejection_grid([x])[0][0]


def test_rejection_grid_matches_adaptive(laplace_tri, gauss_tri):
    # independent reference: 1 - adaptive Simpson of u -> t(x, x+u), split
    # where the integrand has kinks (u = 0 and u = -2x, where |x+u| = |x|)
    for k in (laplace_tri, gauss_tri):
        s = k.proposal.s
        xs = np.linspace(-6.0, 6.0, 41)
        fast, _ = k.rejection_grid(xs)
        slow = np.array(
            [
                1.0 - adaptive_simpson(lambda u: k.t_eval(x, u), -s, s, breakpoints=(0.0, -2.0 * x)).value
                for x in xs.tolist()
            ]
        )
        np.testing.assert_allclose(fast, slow, atol=5e-7)


@pytest.mark.parametrize("x", [0.000994, -0.000994, 0.002, -0.002, 1e-3, -5e-4, 1e-4, 1e-6, 0.0])
def test_rejection_grid_near_the_gauss_mode_matches_quad(gauss_tri, x):
    # d(x, .) changes sign at u = -2x, where d is rounding noise on a grid
    # of s / 32: the scan that found it missed the kink at x = +-0.000994,
    # 6.5e-10 off with an estimate of 5.5e-17; the centre read from the
    # tree puts it on a piece boundary
    (r,), (error,) = gauss_tri.rejection_grid([x])
    assert abs(r - rejection_by_quad(gauss_tri, x, [-2.0 * x])) <= 1e-13
    assert error <= 1e-15


def test_rejection_grid_independent_of_block_split(gauss_tri):
    xs = np.linspace(-12.0, 12.0, 4097)
    # integrate_u takes its x in blocks of this many rows of the coarse
    # grid on which it finds the sign changes of d
    rows = BLOCK_ELEMENTS // (2 * _ROOT_POINTS)
    whole, _ = gauss_tri.rejection_grid(xs)
    # sub-batches that start and end mid-block
    cuts = [0, rows // 2, rows + 3, 3 * rows - 1, 3300, xs.size]
    split = np.concatenate([gauss_tri.rejection_grid(xs[i:j])[0] for i, j in zip(cuts, cuts[1:])])
    np.testing.assert_allclose(split, whole, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "target",
    [DensityModel("laplace"), DensityModel("gauss"), DensityModel("expr", source="exp(-abs(x-3))+exp(-abs(x+3))")],
    ids=["laplace", "gauss", "bimodal"],
)
def test_rejection_grid_independent_of_batch(target):
    # each x's r has the same bits wherever it sits in a batch, so a flat
    # supremum does not move with the rows scanned beside it
    k = MhKernel(target, ProposalModel("triangular"))
    xs = np.linspace(-66.0, -1.0, 2049)
    alone, _ = k.rejection_grid(xs)
    behind = k.rejection_grid(np.concatenate([np.linspace(0.0, 10.0, 1000), xs]))[0][1000:]
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
    "laplace": (DensityModel("laplace"), lambda y: -abs(y), lambda x: [-x, -2 * x]),
    "gauss": (DensityModel("gauss"), lambda y: -y * y / 2, lambda x: [-2 * x]),
    "bimodal": (
        DensityModel("expr", source="exp(-abs(x-3))+exp(-abs(x+3))"),
        lambda y: mp.log(mp.exp(-abs(y - 3)) + mp.exp(-abs(y + 3))),
        _bimodal_cuts,
    ),
    # kinks of pi at 0 and at +-1, where its slope steepens from 1 to 3:
    # there d < 0, so r(x)'s integrand has a kink of the target's own
    "steepening": (
        DensityModel("expr", source="exp(-abs(x) - 2*max(0, abs(x)-1))"),
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
    k = MhKernel(target, ProposalModel("triangular"))
    got, error = k.rejection_grid(np.array(xs))
    with mp.workdps(30):
        for x, r in zip(xs, got.tolist()):
            x = mp.mpf(x)
            lx = log_pdf(x)
            pts = sorted({mp.mpf(-1), mp.mpf(0), mp.mpf(1), *(c for c in cuts(x) if -1 < c < 1)})
            accepted = mp.quad(lambda u: (1 - abs(u)) * min(1, mp.exp(log_pdf(x + u) - lx)), pts)
            assert abs(r - float(1 - accepted)) <= 1e-12, float(x)
    assert error.max() <= R_QUAD_TOL


def test_rejection_grid_reports_its_largest_error_estimate():
    k = MhKernel(DensityModel("gauss"), ProposalModel("triangular"))
    xs = np.linspace(-2.0, 2.0, 9)
    r, error = k.rejection_grid(xs)
    assert r.shape == error.shape == xs.shape
    small = error.max()
    assert 0.0 < small <= 1e-14
    # e^{-200 u} on [0, 1]: one panel is 1.8e-4 off, so the piece is
    # halved until the two sums agree, and the estimate stays small
    (far,), (largest,) = k.rejection_grid([200.0])
    assert small < largest <= R_QUAD_TOL
    # an estimate has the same bits in any batch, and no call changes another's
    r_all, error_all = k.rejection_grid(np.append(xs, 200.0))
    assert np.array_equal(error_all, np.append(error, largest)) and r_all[-1] == far
    assert np.array_equal(k.rejection_grid(xs)[1], error)
    assert k.rejection_grid(np.zeros((2, 3)))[1].shape == (2, 3)


def test_pieces_split_at_the_bisected_sign_change(gauss_tri):
    # for gauss d(x, u) = -u (2x + u) / 2 changes sign at u = -2x, between
    # two grid points; the cut is the midpoint of the 40 halvings of that
    # cell, to the bit
    s, x = gauss_tri.proposal.s, np.array([0.3, -0.2])
    lx = gauss_tri.target.log_pdf(x)
    half = np.linspace(_ROOT_INNER * s, s, _ROOT_POINTS)
    grid, fixed = np.concatenate([-half[::-1], half]), np.array([-s, 0.0, *gauss_tri.proposal.kinks, s])
    lo, hi, own = gauss_tri._pieces(x, lx, grid, fixed, np.array([]), np.empty(BLOCK_ELEMENTS))
    for row in range(x.size):
        cell = np.searchsorted(grid, -2.0 * x[row])
        a, b = grid[cell - 1 : cell], grid[cell : cell + 1]
        side = gauss_tri.target.log_pdf(x[row] + a) - lx[row] > 0.0
        a, b = pieces_bisection(gauss_tri.target, x[row : row + 1], lx[row : row + 1], side, a, b)
        assert 0.5 * (a[0] + b[0]) in hi[own == row]


def test_pieces_of_a_target_with_a_centre_cut_at_the_mirror_point(monkeypatch):
    # d(x, u) changes sign where |x + u - 3| = |x - 3|: u = 2(3 - x), read
    # from the tree with no evaluation of log pi; the target's kink sits
    # at u = 3 - x
    k = MhKernel(DensityModel("expr", source="exp(-abs(x-3))"), ProposalModel("triangular"))
    s, x = k.proposal.s, np.array([2.7, 3.2, 3.0, 5.0])
    lx = k.target.log_pdf(x)
    fixed, kinks = np.array([-s, 0.0, *k.proposal.kinks, s]), np.array([3.0])
    monkeypatch.setattr(k.target, "log_pdf", None)
    lo, hi, own = k._pieces(x, lx, None, fixed, kinks, np.empty(BLOCK_ELEMENTS))
    cuts = [sorted({*lo[own == row], *hi[own == row]}) for row in range(x.size)]
    assert cuts == [
        [-s, 0.0, 3.0 - 2.7, 2.0 * (3.0 - 2.7), s],
        [-s, 2.0 * (3.0 - 3.2), 3.0 - 3.2, 0.0, s],
        [-s, 0.0, s],
        [-s, 0.0, s],
    ]


def test_kernel_is_frozen():
    # errors travel with their values: a kernel holds its target and
    # proposal and nothing that a call could change
    k = MhKernel(DensityModel("gauss"), ProposalModel("triangular"))
    assert [f.name for f in dataclasses.fields(k)] == ["target", "proposal"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.target = DensityModel("laplace")


def test_two_roots_in_one_coarse_cell_flag_the_estimate():
    # a bump of width 0.005 lifts d(0.5, u) above 0 between two roots near
    # u = 0.2, 0.006 apart: one cell of the coarse grid holds both, so no
    # sign change shows them, and the kinks between them fall inside a
    # piece.  The estimate flags it; it need not bound the error
    k = MhKernel(DensityModel("expr", source="exp(-abs(x) + 0.3*exp(-((x-0.7)/0.005)^2))"), ProposalModel("triangular"))
    (_,), (error,) = k.rejection_grid([0.5])
    assert error > R_QUAD_TOL


def test_rejection_grid_reuses_its_block_buffer(expr_laplace_tri, peak_mb):
    # one buffer per call holds x + u and the ratio; an expression target's
    # temporaries are freed with each block: about 1.5 MB, against 29 MB
    # when each block's input stayed alive until the cyclic collector ran
    xs = np.linspace(-66.0, 66.0, 2049)
    assert peak_mb(lambda: expr_laplace_tri.rejection_grid(xs)) < 8.0


@pytest.mark.parametrize(
    "proposal",
    [*SYMMETRIC_SHAPES, ProposalModel("expr", 1.0, "max(0,1-abs(u))*(1-u)")],
    ids=[*SHAPE_IDS, "asymmetric"],
)
@pytest.mark.parametrize("target", ["laplace", "gauss", "exp(-abs(x))"])
def test_log_balance_into_buffer(target, proposal):
    # out receives d, with the bits of the form that makes its own arrays
    # and of the form that adds the Hastings term log q(-u) - log q(u) for
    # every shape: a symmetric shape's is 0.0 where q > 0
    model = DensityModel(target) if target in ("laplace", "gauss") else DensityModel("expr", source=target)
    k = MhKernel(model, proposal)
    xs, us = np.linspace(-30.0, 30.0, 1025), np.linspace(-0.99, 0.99, 63)[:, None]
    buf = np.empty((us.size, xs.size))
    for log_pi_x in (None, model.log_pdf(xs)):
        fresh = k.log_balance(xs, us, log_pi_x)
        assert k.log_balance(xs, us, log_pi_x, out=buf) is buf
        assert np.array_equal(fresh.view(np.uint64), buf.view(np.uint64))
        assert np.array_equal(fresh.view(np.uint64), log_balance_with_gap(k, xs, us, log_pi_x).view(np.uint64))


def test_nan_pieces_are_done_at_their_first_level(gauss_tri):
    # at x = 66, f gives NaN on the piece [-s, 0], where d > 0, and [0, s]
    # holds e^{-66 u}, which is halved: the NaN piece is evaluated at the
    # first level alone, not halved into 2^_MAX_HALVINGS pieces
    nan_rows = []

    def f(d):
        nan_rows.append(int(np.all(d > 0.0, axis=1).sum()))
        d[d > 0.0] = math.nan
        return np.exp(np.minimum(0.0, d, out=d), out=d)

    (value,), (error,) = gauss_tri.integrate_u(np.array([66.0]), gauss_tri.proposal.shape, f)
    assert math.isnan(value) and math.isnan(error)
    assert len(nan_rows) > 1 and nan_rows[0] == 1 and not any(nan_rows[1:])


@pytest.mark.parametrize("proposal", SYMMETRIC_SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize(
    "target",
    [DensityModel("laplace"), DensityModel("gauss"), DensityModel("expr", source="exp(-abs(x-3))+exp(-abs(x+3))")],
    ids=["laplace", "gauss", "bimodal"],
)
def test_integrate_u_matches_the_rule_made_per_piece(monkeypatch, target, proposal):
    # the table of distinct pieces gives every value and error estimate the
    # bits of the rule each piece made for itself, for r(x) and for the
    # Hilbert-Schmidt integrand; gauss halves its pieces for x in [60, 66],
    # and |x| < s/2 puts a root of d inside [-s, s]
    k = MhKernel(target, proposal)
    s, rng = proposal.s, np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(60.0, 66.0, 300), rng.uniform(-0.5 * s, 0.5 * s, 300), rng.uniform(-8, 8, 400)])
    rules = [
        (proposal.shape, lambda d: np.exp(np.minimum(0.0, d, out=d), out=d)),
        (lambda u: np.square(proposal.shape(u)), lambda d: np.exp(np.negative(np.abs(d, out=d), out=d), out=d)),
    ]
    for weight, f in rules:
        got = k.integrate_u(xs, weight, f)
        with monkeypatch.context() as m:
            m.setattr(MhKernel, "_piece_sums", piece_sums_per_piece)
            want = k.integrate_u(xs, weight, f)
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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


@pytest.mark.parametrize("proposal", SYMMETRIC_SHAPES, ids=SHAPE_IDS)
def test_rejection_grid_log_pdf_points_per_x(monkeypatch, proposal):
    # per x: log pi(x), 66 coarse points, 40 bisection steps per root of d,
    # and 48 nodes per piece of [-s, s]: about a tenth of the 3,072 nodes
    # of a fixed rule of 96 panels on each half
    points = []
    log_pdf = DensityModel.log_pdf

    def recorded(self, x, out=None):
        points.append(np.size(x))
        return log_pdf(self, x, out)

    monkeypatch.setattr(DensityModel, "log_pdf", recorded)
    xs = np.linspace(-8.0, 8.0, 101)
    MhKernel(DensityModel("gauss"), proposal).rejection_grid(xs)
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
