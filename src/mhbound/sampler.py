"""Seedable random-walk Metropolis-Hastings simulation.

Used to cross-validate the quadrature rejection probability r(x) and
the stationarity of the target: at equilibrium the long-run acceptance
rate equals 1 - E_pi[r(X)].

RNG layout (documented so reruns are bit-identical): every stream is a
numpy PCG64 generator keyed by ``SeedSequence(seed, spawn_key=(chain,
stream))``.  Each chain owns two independent streams: stream 0 feeds
the proposal rejection sampler (pairs of uniforms: candidate in
[-s, s], box height in [0, sup shape]), stream 1 feeds the acceptance
uniforms, one per step.  Because the streams are separate, drawing
proposals in batches consumes stream 0 in exactly the same order as a
scalar loop would, so the vectorized path reproduces the sequential
definition bit for bit.

The step loop itself is sequential.  It walks each chain in blocks of
``_BLOCK_STEPS`` steps on Python floats (the block's increments and log
acceptance uniforms converted with ``tolist``), and stores a block's
states and accept flags into the chain's arrays with one slice
assignment each.  For an asymmetric proposal the block's Hastings terms
log q(-u) - log q(u) are computed as one array as well.  The block bounds
the size of those lists; it does not change a single operation of the
chain.

The KS diagnostic evaluates the target cdf once per kept sample: each
chain's statistic comes from the cdf of its sorted samples, and the
pooled one from those cdf values merged and sorted, which are the cdf of
the sorted pool because the cdf is monotone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .kernel import BLOCK_ELEMENTS, MhKernel
from .models import ProposalModel

__all__ = [
    "ChainConfig",
    "ChainSummary",
    "RunSummary",
    "sample_proposal",
    "proposal_batch",
    "step",
    "run",
    "empirical_rejection",
]

_MAX_REJECTION_ITERS = 10**6
#: steps per block of the step loop in ``run``
_BLOCK_STEPS = 4096


def _stream(seed: int, chain: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chain, stream))))


@dataclass(frozen=True)
class ChainConfig:
    steps: int
    burn_in: int = 0
    x0: float = 0.0
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.burn_in < 0 or self.burn_in >= self.steps:
            raise ValueError("need 0 <= burn_in < steps")
        if self.chains <= 0:
            raise ValueError("chains must be positive")


@dataclass
class ChainSummary:
    chain: int
    seed: int
    steps: int
    burn_in: int
    accepted: int
    acceptance_rate: float
    mean: float
    variance: float
    ks_distance: Optional[float]
    autocorrelations: List[float] = field(default_factory=list)


@dataclass
class RunSummary:
    config: ChainConfig
    chains: List[ChainSummary]
    acceptance_rate: float
    mean: float
    variance: float
    ks_distance: Optional[float]


def sample_proposal(p: ProposalModel, rng: np.random.Generator) -> float:
    """One increment by exact rejection sampling under the box
    [-s, s] x [0, sup shape]."""
    s, sup = p.s, p.sup_shape
    for _ in range(_MAX_REJECTION_ITERS):
        c = rng.uniform(-s, s)
        v = rng.uniform(0.0, sup)
        if v <= p.shape(c):
            return c
    raise RuntimeError(
        "proposal rejection sampling exceeded the iteration cap; "
        "the declared sup of the shape is suspect"
    )


def proposal_batch(p: ProposalModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` increments, consuming the stream in the same (candidate,
    height) pair order as repeated ``sample_proposal`` calls."""
    s, sup = p.s, p.sup_shape
    out = np.empty(count)
    have = 0
    # expected acceptance fraction is 1 / (2 s sup); over-draw a little
    block = max(256, int(count * 2.0 * s * sup * 1.1) + 64)
    while have < count:
        pairs = rng.uniform(size=(block, 2))
        c = -s + 2.0 * s * pairs[:, 0]
        v = sup * pairs[:, 1]
        good = c[v <= p.shape(c)]
        take = min(good.size, count - have)
        out[have : have + take] = good[:take]
        have += take
    return out


def step(k: MhKernel, x: float, rng: np.random.Generator) -> Tuple[float, bool]:
    """One MH transition; the acceptance test runs in the log domain."""
    u = sample_proposal(k.proposal, rng)
    return _accept(k, x, u, rng.uniform())


def _accept(k: MhKernel, x: float, u: float, unif: float) -> Tuple[float, bool]:
    y = x + u
    log_ratio = k.target.log_pdf(y) - k.target.log_pdf(x)
    if not k.proposal.symmetric:
        log_ratio += k.proposal.log_shape(-u) - k.proposal.log_shape(u)
    if log_ratio >= 0.0 or unif == 0.0 or math.log(unif) <= log_ratio:
        return y, True
    return x, False


def run(k: MhKernel, cfg: ChainConfig, trace: Optional[str] = None) -> RunSummary:
    """Run the configured chains and summarize each plus the pool.

    The summary covers the post-burn-in states x_{burn_in+1..steps}.
    ``trace`` streams every step of every chain (chains consecutive, the
    step column restarting per chain) as CSV ``step,x,accepted``, one
    block of steps at a time.  Each step is the transition of ``_accept``
    (its acceptance test compares against the log of the uniform), and
    the pooled KS distance comes from the per-chain cdf values.
    """
    writer = None
    fh = None
    if trace is not None:
        fh = open(trace, "w", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "x", "accepted"])

    log_pdf = k.target.log_pdf
    log_shape = k.proposal.log_shape
    symmetric = k.proposal.symmetric
    summaries = []
    # kept states of every chain, one row each, and their cdf values: the
    # chains fill them in place, so pooling copies nothing
    pooled = np.empty((cfg.chains, cfg.steps - cfg.burn_in))
    pooled_cdf = np.empty_like(pooled) if k.target.is_builtin else None
    pooled_accepted = 0
    try:
        for chain in range(cfg.chains):
            us = proposal_batch(k.proposal, cfg.steps, _stream(cfg.seed, chain, 0))
            unifs = _stream(cfg.seed, chain, 1).uniform(size=cfg.steps)
            with np.errstate(divide="ignore"):
                log_unifs = np.log(unifs)
            xs = np.empty(cfg.steps)
            acc = np.empty(cfg.steps, dtype=bool)
            x = cfg.x0
            lx = log_pdf(x)
            for start in range(0, cfg.steps, _BLOCK_STEPS):
                stop = min(start + _BLOCK_STEPS, cfg.steps)
                block_xs = []
                block_acc = []
                block_us = us[start:stop]
                if not symmetric:
                    gaps = iter((log_shape(-block_us) - log_shape(block_us)).tolist())
                for u, log_unif in zip(block_us.tolist(), log_unifs[start:stop].tolist()):
                    y = x + u
                    ly = log_pdf(y)
                    log_ratio = ly - lx
                    if not symmetric:
                        log_ratio += next(gaps)
                    a = log_unif <= log_ratio
                    if a:
                        x, lx = y, ly
                    block_xs.append(x)
                    block_acc.append(a)
                xs[start:stop] = block_xs
                acc[start:stop] = block_acc
                if writer is not None:
                    writer.writerows(zip(range(start, stop), map(repr, block_xs), map(int, block_acc)))
            pooled[chain] = xs[cfg.burn_in :]
            cdf = None
            if pooled_cdf is not None:
                cdf = pooled_cdf[chain]
                cdf[:] = k.target.cdf(np.sort(pooled[chain]))
            accepted = int(acc[cfg.burn_in :].sum())
            summaries.append(_summarize(chain, cfg, pooled[chain], accepted, cdf))
            pooled_accepted += accepted
    finally:
        if fh is not None:
            fh.close()

    allx = pooled.ravel()
    ks_distance = None
    if pooled_cdf is not None:
        pooled_cdf = pooled_cdf.ravel()
        pooled_cdf.sort()
        ks_distance = _ks_statistic(pooled_cdf)
    denom = cfg.chains * (cfg.steps - cfg.burn_in)
    return RunSummary(
        config=cfg,
        chains=summaries,
        acceptance_rate=pooled_accepted / denom,
        mean=float(allx.mean()),
        variance=float(allx.var()),
        ks_distance=ks_distance,
    )


def _summarize(
    chain: int, cfg: ChainConfig, kept: np.ndarray, accepted: int, cdf: Optional[np.ndarray]
) -> ChainSummary:
    n = kept.size
    return ChainSummary(
        chain=chain,
        seed=cfg.seed,
        steps=cfg.steps,
        burn_in=cfg.burn_in,
        accepted=accepted,
        acceptance_rate=accepted / n,
        mean=float(kept.mean()),
        variance=float(kept.var()),
        ks_distance=None if cdf is None else _ks_statistic(cdf),
        autocorrelations=_autocorr(kept, min(100, n - 1)),
    )


def _ks_statistic(cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample from the target, given the
    target cdf at the sorted sample.  Taken over BLOCK_ELEMENTS values at
    a time, so a pooled sample adds no n-sized temporaries."""
    n = cdf.size
    dist = -math.inf
    for start in range(0, n, BLOCK_ELEMENTS):
        block = cdf[start : start + BLOCK_ELEMENTS]
        grid = np.arange(start + 1, start + 1 + block.size) / n
        dist = max(dist, np.max(grid - block), np.max(block - (grid - 1.0 / n)))
    return float(dist)


def _autocorr(xs: np.ndarray, max_lag: int) -> List[float]:
    d = xs - xs.mean()
    var = float(d @ d)
    if var == 0.0:
        return [0.0] * max_lag
    return [float(d[:-lag] @ d[lag:]) / var for lag in range(1, max_lag + 1)]


def empirical_rejection(k: MhKernel, x: float, trials: int, seed: int = 0) -> float:
    """Monte Carlo estimate of r(x): the fraction of proposals from x
    that get rejected."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    us = proposal_batch(k.proposal, trials, _stream(seed, 0, 0))
    unifs = _stream(seed, 0, 1).uniform(size=trials)
    log_ratio = k.target.log_pdf(x + us) - k.target.log_pdf(x)
    if not k.proposal.symmetric:
        log_ratio = log_ratio + k.proposal.log_shape(-us) - k.proposal.log_shape(us)
    with np.errstate(divide="ignore"):
        rejected = np.log(unifs) > np.minimum(0.0, log_ratio)
    return float(rejected.mean())
