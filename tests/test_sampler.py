import csv
import math

import numpy as np
import pytest

from mhbound import sampler
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel
from mhbound.sampler import (
    ChainConfig,
    empirical_rejection,
    proposal_batch,
    run,
    sample_proposal,
    step,
    _stream,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(steps=0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, burn_in=10)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, burn_in=-1)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, chains=0)


def test_triangular_proposal_moments():
    p = ProposalModel.triangular()
    us = proposal_batch(p, 10**5, _stream(1, 0, 0))
    assert np.all(np.abs(us) <= 1.0)
    # Var(u) = 1/6 for the unit triangle
    se = math.sqrt(1.0 / 6.0 / us.size)
    assert abs(us.mean()) <= 4.0 * se


def test_uniform_proposal_ks():
    p = ProposalModel.uniform()
    us = proposal_batch(p, 10**6, _stream(2, 0, 0))
    srt = np.sort(us)
    n = srt.size
    cdf = (srt + 1.0) / 2.0
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
    assert ks <= 0.002


def test_run_ks_distance_matches_sorted_samples(tmp_path, builtin_kernel):
    trace = tmp_path / "trace.csv"
    cfg = ChainConfig(steps=3000, burn_in=200, seed=5)
    summary = run(builtin_kernel, cfg, trace=str(trace))
    with open(trace, newline="") as fh:
        xs = [float(row["x"]) for row in csv.DictReader(fh)][cfg.burn_in :]
    srt = sorted(xs)
    n = len(srt)
    ks = 0.0
    for i, x in enumerate(srt):
        if builtin_kernel.target.family == "laplace":
            f = 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)
        else:
            f = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        ks = max(ks, (i + 1) / n - f, f - i / n)
    assert summary.ks_distance == pytest.approx(ks, rel=1e-12, abs=1e-15)
    assert summary.chains[0].ks_distance == summary.ks_distance


def test_batch_matches_scalar_draws():
    p = ProposalModel.triangular()
    batch = proposal_batch(p, 50, _stream(9, 0, 0))
    rng = _stream(9, 0, 0)
    scalars = [sample_proposal(p, rng) for _ in range(50)]
    np.testing.assert_allclose(batch, scalars, rtol=0, atol=0)


def test_step_flat_target_always_accepts():
    k = MhKernel(DensityModel.from_expression("1"), ProposalModel.triangular())
    rng = _stream(4, 0, 0)
    x = 0.0
    for _ in range(100):
        x, accepted = step(k, x, rng)
        assert accepted


def test_forced_move_acceptance_probability(laplace_tri):
    # from x=0 with u=+0.5 the acceptance probability is e^{-1/2}
    rng = _stream(6, 0, 1)
    unifs = rng.uniform(size=10**5)
    accepted = sum(
        sampler._accept(laplace_tri, 0.0, 0.5, float(v))[1] for v in unifs
    )
    p = math.exp(-0.5)
    se = math.sqrt(p * (1 - p) / unifs.size)
    assert abs(accepted / unifs.size - p) <= 3.0 * se


def test_fixed_seed_reproducible(laplace_tri):
    cfg = ChainConfig(steps=500, burn_in=50, seed=123, chains=2)
    a = run(laplace_tri, cfg)
    b = run(laplace_tri, cfg)
    assert a.to_dict() == b.to_dict()


def test_run_matches_manual_loop(laplace_tri):
    cfg = ChainConfig(steps=200, seed=77)
    summary = run(laplace_tri, cfg)
    rng_u = _stream(77, 0, 0)
    rng_a = _stream(77, 0, 1)
    x = 0.0
    accepted = 0
    xs = []
    for _ in range(200):
        u = sample_proposal(laplace_tri.proposal, rng_u)
        x, a = sampler._accept(laplace_tri, x, u, float(rng_a.uniform()))
        accepted += a
        xs.append(x)
    assert summary.chains[0].accepted == accepted
    assert summary.mean == pytest.approx(np.mean(xs), abs=1e-15)


def test_acceptance_rate_exact_ratio(laplace_tri):
    cfg = ChainConfig(steps=1000, burn_in=100, seed=5)
    summary = run(laplace_tri, cfg)
    c = summary.chains[0]
    assert c.acceptance_rate == c.accepted / 900


def test_autocorrelations_shape_and_range(laplace_tri):
    cfg = ChainConfig(steps=2000, seed=1)
    summary = run(laplace_tri, cfg)
    acs = summary.chains[0].autocorrelations
    assert len(acs) == 100
    assert all(-1.0 <= a <= 1.0 for a in acs)
    assert acs[0] > 0.5  # identity functional is strongly correlated at lag 1


def test_trace_csv(tmp_path, laplace_tri):
    path = tmp_path / "trace.csv"
    cfg = ChainConfig(steps=50, seed=2, chains=2)
    run(laplace_tri, cfg, trace=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "x", "accepted"]
    assert len(rows) == 1 + 100
    assert rows[1][0] == "0" and rows[1][2] in ("0", "1")


def test_ks_distance_none_for_expression_targets():
    k = MhKernel(DensityModel.from_expression("exp(-abs(x))/2"), ProposalModel.triangular())
    summary = run(k, ChainConfig(steps=300, seed=8))
    assert summary.ks_distance is None


@pytest.mark.parametrize("x", [-3.0, 0.0, 1.7])
def test_empirical_rejection_matches_quadrature(builtin_kernel, x):
    trials = 2 * 10**5
    est = empirical_rejection(builtin_kernel, x, trials, seed=31)
    r = builtin_kernel.rejection_prob(x)
    se = math.sqrt(max(r * (1 - r), 1e-12) / trials)
    assert abs(est - r) <= 4.0 * se


def test_empirical_rejection_edge_cases(laplace_tri):
    with pytest.raises(ValueError):
        empirical_rejection(laplace_tri, 0.0, 0)
    flat = MhKernel(DensityModel.from_expression("1"), ProposalModel.triangular())
    assert empirical_rejection(flat, 10.0, 1000, seed=1) == 0.0
    assert empirical_rejection(laplace_tri, 0.0, 1, seed=1) in (0.0, 1.0)
