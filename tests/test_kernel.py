import math

import numpy as np
import pytest

from mhbound.kernel import BLOCK_ELEMENTS, U_PANELS, MhKernel
from mhbound.models import DensityModel, ProposalModel
from mhbound.quad import adaptive_simpson, gauss_legendre_grid

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
    us, _ = gauss_legendre_grid(-1.0, 1.0, U_PANELS, (0.0,))
    rows = BLOCK_ELEMENTS // us.size
    whole = gauss_tri.rejection_grid(xs)
    # sub-batches that start and end mid-block
    cuts = [0, rows // 2, rows + 3, 5 * rows - 1, 2048, xs.size]
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


def test_rejection_grid_reuses_its_block_buffer(expr_laplace_tri, peak_mb):
    # one buffer per call holds x + u and the ratio; an expression target's
    # temporaries are freed with each block: about 1.1 MB, against 29 MB
    # when each block's input stayed alive until the cyclic collector ran
    xs = np.linspace(-66.0, 66.0, 2049)
    assert peak_mb(lambda: expr_laplace_tri.rejection_grid(xs)) < 8.0


def test_detailed_balance_random_pairs(builtin_kernel):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-20, 20, 10**4)
    ys = xs + rng.uniform(-1, 1, 10**4)
    worst = builtin_kernel.detailed_balance_residual(xs, ys).max()
    assert worst <= 1e-10


def test_detailed_balance_array_matches_scalars(builtin_kernel):
    # one array pass gives each pair's value, pairs beyond s included
    xs = np.array([-3.0, 0.2, 4.5, 38.0, 0.0])
    ys = np.array([-2.4, -0.7, 4.5, 38.9, 5.0])
    got = builtin_kernel.detailed_balance_residual(xs, ys)
    assert got.shape == xs.shape
    for x, y, g in zip(xs.tolist(), ys.tolist(), got):
        assert builtin_kernel.detailed_balance_residual(x, y) == g


@pytest.mark.parametrize(
    "proposal, nodes",
    [
        (ProposalModel.triangular(), 3072),
        (ProposalModel.uniform(), 3072),
        (ProposalModel.epanechnikov(2.0), 3072),
        # pieces split at u = -0.5, 0 and 0.5
        (ProposalModel.from_expression("0.5*max(0, min(1, 1.5-abs(u)))", 1.5), 6144),
    ],
)
def test_rejection_grid_u_nodes(monkeypatch, proposal, nodes):
    # 96 panels of 16 nodes on each piece of [-s, s] between 0 and the kinks
    shapes = []
    log_pdf = DensityModel.log_pdf

    def recorded(self, x):
        shapes.append(np.shape(x))
        return log_pdf(self, x)

    monkeypatch.setattr(DensityModel, "log_pdf", recorded)
    MhKernel(DensityModel.gauss(), proposal).rejection_grid(np.array([0.3, 2.0]))
    assert shapes == [(2,), (2, nodes)]


def test_detailed_balance_far_tail_gauss(gauss_tri):
    assert gauss_tri.detailed_balance_residual(5.0, 5.5) <= 1e-12
    assert gauss_tri.detailed_balance_residual(38.0, 38.9) <= 1e-12


def test_detailed_balance_out_of_range_guarded(laplace_tri):
    assert laplace_tri.detailed_balance_residual(0.0, 5.0) == 0.0


def test_general_q_agrees_with_symmetric_shortcut(laplace_tri):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = float(rng.uniform(-5, 5))
        u = float(rng.uniform(-1, 1))
        a = laplace_tri.log_t(x, u)
        b = laplace_tri.log_t_general(x, u)
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
