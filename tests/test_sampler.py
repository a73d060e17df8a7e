import csv
import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhbound import sampler
from mhbound.kernel import BLOCK_ELEMENTS, MhKernel
from mhbound.models import DensityModel, ModelError, ProposalModel
from mhbound.sampler import (
    ChainConfig,
    empirical_rejection,
    proposal_batch,
    run,
    sample_proposal,
    step,
    _stream,
)

from oracles import proposal_batch_one_shot


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
    p = ProposalModel("triangular")
    us = proposal_batch(p, 10**5, _stream(1, 0, 0))
    assert np.all(np.abs(us) <= 1.0)
    # Var(u) = 1/6 for the unit triangle
    se = math.sqrt(1.0 / 6.0 / us.size)
    assert abs(us.mean()) <= 4.0 * se


def test_uniform_proposal_ks():
    p = ProposalModel("uniform")
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
    p = ProposalModel("triangular")
    batch = proposal_batch(p, 50, _stream(9, 0, 0))
    rng = _stream(9, 0, 0)
    scalars = [sample_proposal(p, rng) for _ in range(50)]
    np.testing.assert_allclose(batch, scalars, rtol=0, atol=0)


#: a shape whose box acceptance is 0.1, so each buffer of pairs yields about 819 increments
PEAKED_SHAPE = "5*max(0,1-abs(u))^9"


@pytest.mark.parametrize(
    "p",
    [ProposalModel(family, s) for family in ("triangular", "uniform", "epanechnikov") for s in (1e-3, 1, 7)]
    + [ProposalModel("expr", 1.0, PEAKED_SHAPE)],
    ids=lambda p: f"{p.family}-{p.s:g}",
)
@pytest.mark.parametrize("count", [0, 1, 8191, 8192, 3 * 8192 + 1, 40000])
def test_pair_buffer_draws_what_one_block_draws(p, count):
    # the buffer's refills and the dropped surplus leave the increments of
    # the one-shot draw, bit for bit
    expected = proposal_batch_one_shot(p, count, _stream(3, 1, 0))
    got = proposal_batch(p, count, _stream(3, 1, 0))
    assert got.tobytes() == expected.tobytes()


def test_proposal_batch_fills_and_returns_out():
    p = ProposalModel("triangular")
    out = np.full(5000, np.nan)
    assert proposal_batch(p, 5000, _stream(8, 0, 0), out) is out
    assert out.tobytes() == proposal_batch(p, 5000, _stream(8, 0, 0)).tobytes()


def test_proposal_batch_stops_where_the_declared_sup_is_suspect():
    # acceptance 1 / (2 s sup) = 5e-301: a draw that no buffer could finish
    p = ProposalModel("expr", 1.0, "max(0,1-abs(u))", sup_shape=1e300)
    with pytest.raises(RuntimeError, match="exceeded the iteration cap; the declared sup of the shape is suspect"):
        proposal_batch(p, 10, _stream(1, 0, 0))


def test_step_flat_target_always_accepts():
    k = MhKernel(DensityModel("expr", source="1"), ProposalModel("triangular"))
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


@pytest.mark.parametrize("unif", [0.6069010136690235, 0.7300859144743024])
def test_accept_takes_the_log_of_the_uniform_as_run_does(unif):
    # uniforms whose math.log is above and below the numpy log that run's
    # loop compares with: _accept decides as the loop does when the log
    # ratio is that log or the float just below it
    log_unif = float(np.log(np.array([unif]))[0])
    identity = SimpleNamespace(target=SimpleNamespace(log_pdf=float), proposal=SimpleNamespace(symmetric=True))
    for log_ratio in (log_unif, math.nextafter(log_unif, -math.inf)):
        assert sampler._accept(identity, 0.0, log_ratio, unif)[1] == (log_unif <= log_ratio)


def test_fixed_seed_reproducible(laplace_tri):
    cfg = ChainConfig(steps=500, burn_in=50, seed=123, chains=2)
    a = run(laplace_tri, cfg)
    b = run(laplace_tri, cfg)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_expression_target_run_pinned():
    # the summary of this run as computed by the tree-walking evaluator that
    # compiled expressions replaced: a change that moves any accept/reject
    # decision, the proposal stream or the summary shows here
    k = MhKernel(DensityModel("expr", source="exp(-abs(x))"), ProposalModel("triangular"))
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


def test_expression_laplace_chains_match_builtin(laplace_tri):
    # exp(-abs(x)) runs as its log form -abs(x); the built-in laplace's log
    # ratio differs from it only by the rounding of its normalizing
    # constant, and on these chains no decision falls between the two
    expr = MhKernel(DensityModel("expr", source="exp(-abs(x))"), ProposalModel("triangular"))
    cfg = ChainConfig(steps=20000, burn_in=1000, seed=1, chains=4)
    keys = ("accepted", "mean", "variance", "autocorrelations")
    for a, b in zip(run(laplace_tri, cfg).chains, run(expr, cfg).chains):
        assert [getattr(a, key) for key in keys] == [getattr(b, key) for key in keys]


def _read_trace(path):
    """(state texts, accept flags) of each chain in a trace CSV, in order."""
    chains = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["step"] == "0":
                chains.append(([], []))
            chains[-1][0].append(row["x"])
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
#: a positive target that uses every operator and function of the language
EVERY_OPERATOR = "sqrt(1 + min(x^2, 4)) * exp(-abs(x) / 1.5) + max(0, 1 - abs(x - 0.5)) ^ 1.5 / log(3)"


def test_run_matches_manual_loop(tmp_path, laplace_tri):
    # every state (bit for bit, as text) and accept flag of the blocked loop
    # in run() against the scalar definition, on both sides of each block
    # boundary
    block = sampler._BLOCK_STEPS
    asym = ProposalModel("expr", 1.0, ASYMMETRIC_SHAPE)
    expr_target = DensityModel("expr", source="exp(-abs(x))")
    cases = [
        (laplace_tri, ChainConfig(steps=200, seed=77)),
        (MhKernel(expr_target, ProposalModel("triangular")), ChainConfig(steps=block - 1, burn_in=10, x0=2.5, seed=3)),
        (MhKernel(DensityModel("gauss"), asym), ChainConfig(steps=block, burn_in=block - 1, x0=-1.5, seed=4)),
        (MhKernel(expr_target, asym), ChainConfig(steps=block + 1, burn_in=block - 50, x0=0.75, seed=5, chains=2)),
    ]
    # the log-density text of each family and of every operator, inlined in
    # the step loop
    every_operator = DensityModel("expr", source=EVERY_OPERATOR)
    cases += [
        (MhKernel(DensityModel("laplace", 2.5), ProposalModel("triangular")), ChainConfig(steps=block + 1, x0=-4.0, seed=6)),
        (MhKernel(DensityModel("gauss", 2.5), ProposalModel("triangular")), ChainConfig(steps=block + 1, x0=4.0, seed=7)),
        (MhKernel(every_operator, ProposalModel("triangular")), ChainConfig(steps=block + 1, x0=0.5, seed=8)),
        (MhKernel(every_operator, asym), ChainConfig(steps=block + 1, x0=-0.5, seed=9)),
    ]
    # states rebuilt from the increments and the rejected steps: seed 1
    # rejects the first two steps from -0.0, and the longer chains cross two
    # block boundaries
    cases += [
        (laplace_tri, ChainConfig(steps=50, x0=-0.0, seed=1)),
        (MhKernel(DensityModel("laplace"), asym), ChainConfig(steps=2 * block + 3, burn_in=7, x0=-0.0, seed=13)),
        (MhKernel(DensityModel("gauss"), ProposalModel("triangular")), ChainConfig(steps=3 * block - 1, burn_in=block, seed=14, chains=2)),
    ]
    assert not asym.symmetric
    trace = tmp_path / "trace.csv"
    for k, cfg in cases:
        summary = run(k, cfg, trace=str(trace))
        traced = _read_trace(trace)
        assert len(traced) == cfg.chains
        for chain in range(cfg.chains):
            states, flags = _manual_chain(k, cfg, chain)
            assert traced[chain] == ([repr(x) for x in states], flags), (k, cfg, chain)
            kept = states[cfg.burn_in :]
            assert summary.chains[chain].accepted == sum(flags[cfg.burn_in :])
            assert summary.chains[chain].mean == float(np.mean(kept))
            assert summary.chains[chain].variance == float(np.var(kept))
    run(laplace_tri, ChainConfig(steps=50, x0=-0.0, seed=1), trace=str(trace))
    assert _read_trace(trace)[0][0][:2] == ["-0.0", "-0.0"]


def test_run_raises_where_the_chain_leaves_the_support():
    # the density is zero for |x| >= 3: run stops with the error, and at the
    # state, of the scalar chain
    k = MhKernel(DensityModel("expr", source="max(0, 1 - abs(x)/3)"), ProposalModel("triangular"))
    cfg = ChainConfig(steps=2 * sampler._BLOCK_STEPS, x0=2.5, seed=12)
    with pytest.raises(ModelError) as scalar:
        _manual_chain(k, cfg, 0)
    with pytest.raises(ModelError) as compiled:
        run(k, cfg)
    assert str(compiled.value) == str(scalar.value)
    assert abs(float(str(scalar.value).rpartition("=")[2])) >= 3.0


def test_run_raising_mid_block_leaves_the_blocks_before(tmp_path):
    # chain 1 leaves the support at step 4,521, inside its second block: the
    # error and the trace (chain 0, then chain 1's first block) are those of
    # the loop that appended every state, pinned here
    k = MhKernel(DensityModel("expr", source="exp(-abs(x)) * max(0, 1 - abs(x)/5)"), ProposalModel("triangular"))
    cfg = ChainConfig(steps=3 * sampler._BLOCK_STEPS, seed=6, chains=2)
    path = tmp_path / "trace.csv"
    with pytest.raises(ModelError) as compiled:
        run(k, cfg, trace=str(path))
    with pytest.raises(ModelError) as scalar:
        _manual_chain(k, cfg, 1)
    assert str(compiled.value) == str(scalar.value) == "target density is not positive at x=-5.2222940412886825"
    traced = _read_trace(path)
    assert [len(states) for states, _ in traced] == [cfg.steps, sampler._BLOCK_STEPS]
    data = path.read_bytes()
    assert len(data) == 438087
    assert hashlib.sha256(data).hexdigest() == "6ba09936e02aa50c3ab511cc3c514b1168baabe2011e78b41bc1da99d65575f0"


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _cpus(monkeypatch, n):
    """Make ``run`` see n CPUs, so that it walks its chains on n processes
    where it has that many chains."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError, instead of hanging, after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("chains, cpus", [(3, 2), (5, 2), (5, 3), (3, 4), (8, 8)])
def test_run_on_several_processes_matches_manual_loop(tmp_path, monkeypatch, deadline, chains, cpus):
    # shares of uneven length, and burn-in ending inside the first block:
    # every state and flag is the scalar definition's, and the summary is
    # that of the run in one process
    k = MhKernel(DensityModel("expr", source="exp(-abs(x))"), ProposalModel("expr", 1.0, ASYMMETRIC_SHAPE))
    cfg = ChainConfig(steps=sampler._BLOCK_STEPS + 10, burn_in=sampler._BLOCK_STEPS - 5, x0=0.5, seed=21, chains=chains)
    trace = tmp_path / "trace.csv"
    _cpus(monkeypatch, cpus)
    summary = run(k, cfg, trace=str(trace))
    _assert_no_child_left()
    traced = _read_trace(trace)
    for chain in range(chains):
        states, flags = _manual_chain(k, cfg, chain)
        assert traced[chain] == ([repr(x) for x in states], flags), chain
    _cpus(monkeypatch, 1)
    assert dataclasses.asdict(summary) == dataclasses.asdict(run(k, cfg))


@needs_fork
@pytest.mark.parametrize("seed, chains, first, traced", [(6, 4, 1, [3, 1]), (8, 3, 0, [])])
def test_run_raises_the_error_of_the_first_failing_chain(tmp_path, monkeypatch, deadline, seed, chains, first, traced):
    # several chains leave the support; on any number of processes run raises
    # the error of the lowest-numbered one and writes the same trace: the
    # chains before it, then its completed blocks (``traced`` counts blocks)
    k = MhKernel(DensityModel("expr", source="exp(-abs(x)) * max(0, 1 - abs(x)/5)"), ProposalModel("triangular"))
    cfg = ChainConfig(steps=3 * sampler._BLOCK_STEPS, seed=seed, chains=chains)
    with pytest.raises(ModelError) as scalar:
        _manual_chain(k, cfg, first)
    traces = []
    for cpus in range(1, chains + 1):
        _cpus(monkeypatch, cpus)
        path = tmp_path / f"trace{cpus}.csv"
        with pytest.raises(ModelError) as compiled:
            run(k, cfg, trace=str(path))
        _assert_no_child_left()
        assert str(compiled.value) == str(scalar.value)
        traces.append(path.read_bytes())
    assert [len(states) for states, _ in _read_trace(tmp_path / "trace1.csv")] == [n * sampler._BLOCK_STEPS for n in traced]
    assert traces == traces[:1] * chains


@needs_fork
def test_run_raises_when_a_worker_dies(monkeypatch, deadline, laplace_tri):
    # a worker killed by a signal: run names its chains and the signal, and
    # leaves no child behind
    parent = os.getpid()
    batch = sampler.proposal_batch

    def killed_in_a_worker(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return batch(*args)

    monkeypatch.setattr(sampler, "proposal_batch", killed_in_a_worker)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"the worker of chains \[1, 3\] died from signal 9"):
        run(laplace_tri, ChainConfig(steps=100, seed=1, chains=4))
    _assert_no_child_left()


@needs_fork
def test_run_interrupted_kills_and_reaps_its_workers(monkeypatch, deadline, laplace_tri):
    # an interrupt in the calling process, while a worker is still walking
    parent = os.getpid()

    def interrupted_or_slow(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(sampler, "proposal_batch", interrupted_or_slow)
    _cpus(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(laplace_tri, ChainConfig(steps=100, seed=1, chains=2))
    assert time.monotonic() - started < 30
    _assert_no_child_left()


@needs_fork
def test_workers_summarize_their_chains_as_one_process_does(monkeypatch, deadline, laplace_tri):
    # more than 10,000 kept states per chain, where OpenBLAS may split the
    # autocorrelations' dot products over its threads, and a threaded matrix
    # product in this process before the workers fork
    square = np.ones((512, 512))
    square @ square
    cfg = ChainConfig(steps=12000, burn_in=1000, seed=3, chains=4)
    summaries = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        summaries.append([_digest(dataclasses.asdict(c)) for c in run(laplace_tri, cfg).chains])
        _assert_no_child_left()
    assert summaries[0] == summaries[1]


def test_run_raises_where_no_increment_moves_x0(laplace_tri):
    # at 2^53 the spacing below is 1 and above 2, so x0 - 1 moves the chain;
    # at 2^54 both x0 - 1 and x0 + 1 round to x0
    assert run(laplace_tri, ChainConfig(steps=100, x0=2.0**53)).chains[0].variance > 0.0
    with pytest.raises(ModelError, match=r"no increment moves the chain from x0=1\.8014398509481984e\+16"):
        run(laplace_tri, ChainConfig(steps=100, x0=2.0**54))


@pytest.mark.parametrize("chains, beside_a_thread", [(1, False), (4, True)])
def test_run_forks_nothing_for_one_chain_or_beside_a_thread(monkeypatch, laplace_tri, chains, beside_a_thread):
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("run forked"))
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if beside_a_thread:
        thread.start()
    try:
        assert len(run(laplace_tri, ChainConfig(steps=100, seed=1, chains=chains)).chains) == chains
    finally:
        done.set()
    if beside_a_thread:
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_sample_pinned_to_one_cpu_writes_the_same_files(tmp_path):
    # the CLI on one CPU (one process) and on every CPU this process may use
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    outputs = []
    for pin in (None, lambda: os.sched_setaffinity(0, {cpu})):
        out = tmp_path / ("pinned" if pin else "free")
        argv = ["sample", "--out", str(out), "--trace", f"{out}.csv", "--set", "sample.steps=3000"]
        argv += ["--set", "sample.burn_in=100", "--set", "sample.chains=3", "--set", "sample.seed=4"]
        subprocess.run([sys.executable, "-m", "mhbound.cli", *argv], env=env, preexec_fn=pin, check=True, timeout=120)
        report = json.loads((out / "sample.json").read_text())
        del report["duration_seconds"]
        outputs.append((report, (out / "sample.csv").read_bytes(), Path(f"{out}.csv").read_bytes()))
    assert outputs[0] == outputs[1]


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
    proposal = ProposalModel("triangular") if shape is None else ProposalModel("expr", 1.0, shape)
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


def test_run_takes_the_cdf_at_few_kept_samples(monkeypatch, gauss_tri):
    # the benchmark's gauss op: the KS search takes the cdf at a few percent
    # of the kept samples, and each distance equals the full statistic; on
    # one process, so that every cdf call is counted here
    _cpus(monkeypatch, 1)
    points = []
    cdf = DensityModel.cdf

    def counting_cdf(self, x):
        points.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(DensityModel, "cdf", counting_cdf)
    distances = []
    ks_distance = sampler._ks_distance

    def recording_ks_distance(f, srt):
        distances.append((ks_distance(f, srt), sampler._ks_statistic(cdf(gauss_tri.target, srt))))
        return distances[-1][0]

    monkeypatch.setattr(sampler, "_ks_distance", recording_ks_distance)
    cfg = ChainConfig(steps=40000, burn_in=1000, seed=9, chains=16)
    summary = run(gauss_tri, cfg)
    assert sum(points) <= 0.1 * cfg.chains * (cfg.steps - cfg.burn_in)
    assert [fast for fast, _ in distances] == [c.ks_distance for c in summary.chains] + [summary.ks_distance]
    assert [fast for fast, _ in distances] == [full for _, full in distances]


#: sorted samples per run of the KS search's first cut
KS_RUN = sampler._KS_WIDTHS[0]


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["laplace", "gauss"]),
    # a few fixed values give ties, within a run and across run ends
    xs=st.lists(st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-1.5, 0.0, 0.25, 2.0])), min_size=1, max_size=5 * KS_RUN + 7),
)
def test_ks_distance_equals_the_full_statistic(family, xs):
    cdf = DensityModel(family).cdf
    srt = np.sort(np.array(xs))
    assert sampler._ks_distance(cdf, srt) == sampler._ks_statistic(cdf(srt))


def _uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6 * KS_RUN + 9), where=st.floats(0.0, 1.0), plus=st.booleans())
@example(n=KS_RUN - 1, where=0.5, plus=True)  # one run, shorter than the first width
@example(n=3 * KS_RUN, where=0.0, plus=True)  # at the first sample
@example(n=3 * KS_RUN, where=0.0, plus=False)
@example(n=3 * KS_RUN + 5, where=1.0, plus=True)  # at the last sample
@example(n=3 * KS_RUN + 5, where=1.0, plus=False)
@example(n=4 * KS_RUN + 1, where=0.4, plus=True)  # inside a run
@example(n=4 * KS_RUN + 1, where=0.6, plus=False)
def test_ks_distance_finds_a_lone_maximum(n, where, plus):
    # samples at the midpoints (i + 1/2)/n of a uniform target, where every
    # term is 1/(2n), with one sample moved onto its neighbour (or to 0 or
    # 1 at the ends) so that one term alone is the largest
    j = round(where * (n - 1))
    srt = (np.arange(n) + 0.5) / n
    if plus:
        srt[j] = srt[j - 1] if j > 0 else 0.0
    else:
        srt[j] = srt[j + 1] if j < n - 1 else 1.0
    assert sampler._ks_distance(_uniform_cdf, srt) == sampler._ks_statistic(_uniform_cdf(srt))


def test_ks_distance_keeps_a_run_whose_bound_is_attained():
    # n = 512 makes every term exact.  Samples 128..152 share the value of
    # sample 152, so the term F_128 - 128/n = 24.5/n of the first sample of
    # the run 128..135 equals that run's bound.  Samples 359..383 share the
    # value 360/n, so the last sample of a first-cut run (383) has the term
    # 24/n, found before that run is cut.
    n = 512
    srt = (np.arange(n) + 0.5) / n
    srt[128:153] = srt[152]
    srt[359:384] = 360 / n
    assert sampler._ks_statistic(_uniform_cdf(srt)) == 24.5 / n
    assert sampler._ks_distance(_uniform_cdf, srt) == 24.5 / n


@pytest.mark.parametrize("target", ["laplace", "exp(-abs(x))"])
def test_run_takes_one_log_pdf_per_chain(monkeypatch, target):
    # the step loop inlines the log-density: log_pdf runs once, at the x0
    # that every chain starts from
    calls = []
    log_pdf = DensityModel.log_pdf

    def counting_log_pdf(self, x):
        calls.append(x)
        return log_pdf(self, x)

    monkeypatch.setattr(DensityModel, "log_pdf", counting_log_pdf)
    model = DensityModel(target) if target == "laplace" else DensityModel("expr", source=target)
    run(MhKernel(model, ProposalModel("triangular")), ChainConfig(steps=1500, x0=0.25, seed=9, chains=3))
    assert calls == [0.25]


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
    k = MhKernel(DensityModel("expr", source="exp(-abs(x))/2"), ProposalModel("triangular"))
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
    flat = MhKernel(DensityModel("expr", source="1"), ProposalModel("triangular"))
    assert empirical_rejection(flat, 10.0, 1000, seed=1) == 0.0
    assert empirical_rejection(laplace_tri, 0.0, 1, seed=1) in (0.0, 1.0)
