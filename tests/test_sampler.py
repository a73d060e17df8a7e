import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from mhbound import sampler
from mhbound.kernel import BLOCK_ELEMENTS, MhKernel
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


def _ks_by_hand(family, xs):
    """KS distance of the samples ``xs`` from the unit laplace or gauss
    target, from the closed-form cdf one sample at a time."""
    srt = sorted(xs)
    n = len(srt)
    ks = 0.0
    for i, x in enumerate(srt):
        if family == "laplace":
            f = 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)
        else:
            f = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        ks = max(ks, (i + 1) / n - f, f - i / n)
    return ks


def test_run_ks_distance_matches_sorted_samples(tmp_path, builtin_kernel):
    trace = tmp_path / "trace.csv"
    cfg = ChainConfig(steps=3000, burn_in=200, seed=5)
    summary = run(builtin_kernel, cfg, trace=str(trace))
    with open(trace, newline="") as fh:
        xs = [float(row["x"]) for row in csv.DictReader(fh)][cfg.burn_in :]
    ks = _ks_by_hand(builtin_kernel.target.family, xs)
    assert summary.ks_distance == pytest.approx(ks, rel=1e-12, abs=1e-15)
    assert summary.chains[0].ks_distance == summary.ks_distance


def test_ks_statistic_blocks_match_whole_array():
    # several blocks, with each one-sided maximum moved into a later block
    n = 3 * BLOCK_ELEMENTS + 5
    base = np.sort(np.random.default_rng(4).uniform(size=n))
    grid = np.arange(1, n + 1) / n
    for i, shift in ((0, 0.0), (n - 70000, -0.3), (n - 3, 0.2), (2 * BLOCK_ELEMENTS, 0.4)):
        cdf = base.copy()
        cdf[i] += shift
        whole = float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))
        assert sampler._ks_statistic(cdf) == whole


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
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_expression_target_run_pinned():
    # the summary of this run as computed by the tree-walking evaluator that
    # compiled expressions replaced: a change that moves any accept/reject
    # decision, the proposal stream or the summary shows here
    k = MhKernel(DensityModel.from_expression("exp(-abs(x))"), ProposalModel.triangular())
    d = dataclasses.asdict(run(k, ChainConfig(steps=5000, burn_in=500, seed=7, chains=2)))
    assert [c["accepted"] for c in d["chains"]] == [3808, 3782]
    assert [c["mean"] for c in d["chains"]] == [-0.075191508014188, 0.03333201926989609]
    assert [c["variance"] for c in d["chains"]] == [1.60190315166999, 1.427462937992206]
    assert (d["acceptance_rate"], d["mean"], d["variance"], d["ks_distance"]) == (
        0.8433333333333334,
        -0.02092974437214596,
        1.5176273838246428,
        None,
    )
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == "f84ac4f793c3d5f98eaa1b9f331c3a5f5b4717d0d972bfb9d63bb700bc3845a5"


def _read_trace(path):
    """(states, accept flags) of each chain in a trace CSV, in order."""
    chains = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["step"] == "0":
                chains.append(([], []))
            chains[-1][0].append(float(row["x"]))
            chains[-1][1].append(row["accepted"] == "1")
    return chains


def _manual_chain(k, cfg, chain):
    """The chain by its scalar definition: one proposal draw and one
    ``_accept`` per step."""
    rng_u = _stream(cfg.seed, chain, 0)
    rng_a = _stream(cfg.seed, chain, 1)
    x = cfg.x0
    states, flags = [], []
    for _ in range(cfg.steps):
        u = sample_proposal(k.proposal, rng_u)
        x, a = sampler._accept(k, x, u, float(rng_a.uniform()))
        states.append(x)
        flags.append(a)
    return states, flags


ASYMMETRIC_SHAPE = "max(0,1-abs(u))*(1-u)"


def test_run_matches_manual_loop(tmp_path, laplace_tri):
    # every state and accept flag of the blocked loop in run() against the
    # scalar definition, on both sides of each block boundary
    block = sampler._BLOCK_STEPS
    asym = ProposalModel.from_expression(ASYMMETRIC_SHAPE, 1.0)
    expr_target = DensityModel.from_expression("exp(-abs(x))")
    cases = [
        (laplace_tri, ChainConfig(steps=200, seed=77)),
        (MhKernel(expr_target, ProposalModel.triangular()), ChainConfig(steps=block - 1, burn_in=10, x0=2.5, seed=3)),
        (MhKernel(DensityModel.gauss(), asym), ChainConfig(steps=block, burn_in=block - 1, x0=-1.5, seed=4)),
        (MhKernel(expr_target, asym), ChainConfig(steps=block + 1, burn_in=block - 50, x0=0.75, seed=5, chains=2)),
    ]
    assert not asym.symmetric
    trace = tmp_path / "trace.csv"
    for k, cfg in cases:
        summary = run(k, cfg, trace=str(trace))
        traced = _read_trace(trace)
        assert len(traced) == cfg.chains
        for chain in range(cfg.chains):
            states, flags = _manual_chain(k, cfg, chain)
            assert traced[chain] == (states, flags), (k, cfg, chain)
            kept = states[cfg.burn_in :]
            assert summary.chains[chain].accepted == sum(flags[cfg.burn_in :])
            assert summary.chains[chain].mean == float(np.mean(kept))
            assert summary.chains[chain].variance == float(np.var(kept))


def _digest(d):
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "target,shape,digest",
    [
        ("laplace", None, "ba03875621af172f990cb86ca5c216535b8451052367e908167a80bd86bee668"),
        ("gauss", None, "7e527b2e87eb7efac9229b5791bff9f5a5bde96f52d957467893e86783eff2c8"),
        ("laplace", ASYMMETRIC_SHAPE, "9af07ca8a9b8222708b2370b436607cf949e736735c11724f932f25143bc54ab"),
    ],
)
def test_builtin_target_run_pinned(target, shape, digest):
    # the summaries of these runs as computed by the per-step numpy loop the
    # blocked loop replaced
    proposal = ProposalModel.triangular() if shape is None else ProposalModel.from_expression(shape, 1.0)
    k = MhKernel(DensityModel(target), proposal)
    d = dataclasses.asdict(run(k, ChainConfig(steps=5000, burn_in=500, seed=7, chains=2)))
    assert _digest(d) == digest


def test_trace_csv_pinned(tmp_path, laplace_tri):
    # trace bytes of a two-chain run whose chains cross a block boundary,
    # as written row by row before the loop was blocked
    path = tmp_path / "trace.csv"
    run(laplace_tri, ChainConfig(steps=5000, burn_in=500, x0=0.5, seed=11, chains=2), trace=str(path))
    data = path.read_bytes()
    assert len(data) == 264261
    assert data.startswith(b"step,x,accepted\n0,0.7501617637350988,1\n")
    assert hashlib.sha256(data).hexdigest() == "de0396ac8d5f01cf61e08f6db150b8e2aaae3602120b77a594224f3640ac38a1"


def test_run_takes_one_cdf_per_chain(tmp_path, monkeypatch, gauss_tri):
    calls = []
    cdf = DensityModel.cdf

    def counting_cdf(self, x):
        calls.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(DensityModel, "cdf", counting_cdf)
    trace = tmp_path / "trace.csv"
    cfg = ChainConfig(steps=1500, burn_in=100, seed=9, chains=3)
    summary = run(gauss_tri, cfg, trace=str(trace))
    assert calls == [1400, 1400, 1400]
    pool = [x for states, _ in _read_trace(trace) for x in states[cfg.burn_in :]]
    assert summary.ks_distance == pytest.approx(_ks_by_hand("gauss", pool), rel=0, abs=1e-15)


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
