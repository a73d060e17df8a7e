import math

import numpy as np
import pytest

from mhbound.kernel import BLOCK_ELEMENTS, MhKernel, _u_grid
from mhbound.models import DensityModel, ProposalModel

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


def test_rejection_raw_value_near_unit_interval(laplace_tri):
    xs = np.linspace(-8.0, 8.0, 1000)
    for x in xs[::37]:
        info = laplace_tri.rejection_info(float(x))
        assert -1e-8 <= info.raw_value <= 1.0 + 1e-8
        assert info.converged


def test_rejection_grid_matches_adaptive(laplace_tri, gauss_tri):
    for k in (laplace_tri, gauss_tri):
        xs = np.linspace(-6.0, 6.0, 41)
        fast = k.rejection_grid(xs)
        slow = np.array([k.rejection_prob(float(x)) for x in xs])
        np.testing.assert_allclose(fast, slow, atol=5e-7)


def test_rejection_grid_independent_of_block_split(gauss_tri):
    xs = np.linspace(-12.0, 12.0, 4097)
    us, _ = _u_grid(gauss_tri.proposal.s, gauss_tri.fast_panels, gauss_tri.fast_nodes)
    rows = BLOCK_ELEMENTS // us.size
    whole = gauss_tri.rejection_grid(xs)
    # sub-batches that start and end mid-block
    cuts = [0, rows // 2, rows + 3, 5 * rows - 1, 2048, xs.size]
    split = np.concatenate([gauss_tri.rejection_grid(xs[i:j]) for i, j in zip(cuts, cuts[1:])])
    np.testing.assert_allclose(split, whole, rtol=0.0, atol=1e-14)


def test_detailed_balance_random_pairs(builtin_kernel):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-20, 20, 10**4)
    ys = xs + rng.uniform(-1, 1, 10**4)
    worst = max(
        builtin_kernel.detailed_balance_residual(float(x), float(y))
        for x, y in zip(xs, ys)
    )
    assert worst <= 1e-10


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
