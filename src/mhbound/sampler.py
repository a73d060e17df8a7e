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
definition bit for bit.  ``proposal_batch`` draws the pairs into one
fixed buffer of ``_PAIRS`` pairs, refilled until it has its increments,
and drops the pairs after the last one it keeps.  A chain's numbers
depend on its own streams alone, so the process that walks it changes
none of them.

``run`` spreads the chains over one process per CPU it may use
(``_spread``).  Each process walks its share with the same block loop,
into one shared buffer, through one array of increments and one of log
uniforms that every chain it walks reuses (a fresh pair per chain would
take its page faults again in each forked worker).  It summarizes each
chain once it is walked: the moments, the KS distance and the
autocorrelations, whose dot products are OpenBLAS calls.  A forked child
keeps the calling process's BLAS thread count, so it splits each dot
product as that process would.  The calling process orders the
summaries by chain, takes the pooled statistics and writes the trace
once every worker is reaped.

Each chain's step loop is sequential.  ``run`` compiles it once, with
the target's ``DensityModel.log_pdf_source`` written into the body: the
scalar statements of ``exprlang``'s generator for the target's tree (a
built-in family's formula, or an expression's log form, so
``exp(-abs(x))`` runs as ``-abs(x)``, with no exp or log, or else its
value and ``math.log``) and ``log_pdf``'s check that log pi is above
-inf.  So a step calls no ``log_pdf``; a symmetric proposal's loop has
no Hastings term.  It walks each chain in blocks of ``_BLOCK_STEPS``
steps on Python floats (the block's increments, log acceptance uniforms
and, for an asymmetric proposal, Hastings terms log q(-u) - log q(u)
computed as arrays and converted with ``tolist``) and records only the
numbers of the rejected steps.  The block's states are then one
``np.cumsum`` of its increments, with each rejected increment set to
-0.0 and the previous state added to the first: x + (-0.0) is x for
every float, and cumsum adds left to right, so each state is the loop's
own sum x + u.  The accept flags are True except at the rejected steps.
Neither the blocks, nor the compiled body, nor the rebuilt states change
a single operation of the chain, which ``_accept`` defines step by step.

The KS diagnostic ``_ks_distance`` is exact, bit for bit, and takes the
target cdf at a few percent of the sorted samples: the cdf is monotone,
so the cdf values at the ends of a run of samples bound the run's terms,
and a run whose bound does not exceed the largest term found is skipped.
The pooled statistic sorts the pooled states in place, after their mean
and variance are taken.
"""

from __future__ import annotations

import csv
import itertools
import math
import mmap
import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .kernel import MhKernel
from .models import ModelError, ProposalModel

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

#: the cap on (candidate, height) pairs drawn for one increment, and the box
#: area (the mean pairs per increment) that ``run`` refuses: an increment hits
#: the cap with chance about e^{-cap / area}, a run draws at most 10^8 of them
#: (cli.MAX_POINTS), so area < cap / 50 keeps a run's chance at or below 10^8 e^{-50}, about 2e-14
_MAX_REJECTION_ITERS = 10**6
_MAX_BOX_AREA = _MAX_REJECTION_ITERS // 50
_OVER_CAP = "proposal rejection sampling exceeded the iteration cap; the declared sup of the shape is suspect"
#: the signal that stops a worker of ``run``: SIGKILL, 9 wherever os.fork
#: exists (the signal module costs 0.2 MB and 0.4 ms to import)
_SIGKILL = 9
#: steps per block of the step loop in ``run``
_BLOCK_STEPS = 4096
#: (candidate, height) pairs that ``proposal_batch`` draws at a time
_PAIRS = 8192
#: widths of the runs of sorted samples that ``_ks_distance`` bounds, coarse to fine
_KS_WIDTHS = (64, 8, 1)


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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
    raise RuntimeError(_OVER_CAP)


def proposal_batch(
    p: ProposalModel, count: int, rng: np.random.Generator, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``count`` increments, consuming the stream in the same (candidate,
    height) pair order as repeated ``sample_proposal`` calls, into ``out``
    (``count`` floats) or a new array, which is returned.

    The pairs are drawn ``_PAIRS`` at a time into one buffer of uniforms on
    [0, 1) (each one ``next_double``, as ``uniform`` draws it) and scaled
    in place; the pairs after the count-th accepted candidate are dropped.
    Where whole buffers of more than ``_MAX_REJECTION_ITERS`` pairs in all
    pass without an accepted candidate, it raises as ``sample_proposal``
    does."""
    s, sup = p.s, p.sup_shape
    if out is None:
        out = np.empty(count)
    pairs = np.empty((_PAIRS, 2))
    c, v = pairs[:, 0], pairs[:, 1]
    have = misses = 0
    while have < count:
        rng.random(out=pairs)
        # -s + 2 s d, as uniform(-s, s) computes it
        c *= 2.0 * s
        c -= s
        v *= sup
        good = c[v <= p.shape(c)]
        misses = 0 if good.size else misses + _PAIRS
        if misses > _MAX_REJECTION_ITERS:
            raise RuntimeError(_OVER_CAP)
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
    if log_ratio >= 0.0 or unif == 0.0 or np.log(unif) <= log_ratio:
        return y, True
    return x, False


def _compile_steps(k: MhKernel) -> Callable:
    """The step loop of ``run`` for the kernel ``k``: Python source with the
    target's ``log_pdf_source`` written into its body, compiled once.

    ``steps(x, lx, rejected, start, us, log_unifs)`` walks a block from the
    state x with log pi(x) = lx, one step per increment and log uniform,
    calls ``rejected(i)`` for each rejected step, numbering the block's
    steps from ``start``, and returns the last state and its log pi.  For an
    asymmetric proposal it takes the block's Hastings terms log q(-u) -
    log q(u) as one more list, ``gaps``, and adds each to its step's log
    ratio.  Each step performs the operations of ``_accept`` in the same
    order, with the log of the uniform taken beforehand."""
    lines, names = k.target.log_pdf_source("y", "ly")
    if k.proposal.symmetric:
        columns, row, log_ratio = "us, log_unifs", "u, log_unif", "ly - lx"
    else:
        columns, row, log_ratio = "us, log_unifs, gaps", "u, log_unif, gap", "ly - lx + gap"
    source = (
        f"def steps(x, lx, rejected, start, {columns}):\n"
        f"    for i, {row} in zip(count(start), {columns}):\n"
        "        y = x + u\n"
        + "".join(f"        {line}\n" for line in lines)
        + f"        if log_unif <= {log_ratio}:\n"
        "            x = y\n"
        "            lx = ly\n"
        "        else:\n"
        "            rejected(i)\n"
        "    return x, lx\n"
    )
    namespace = {"__builtins__": {}, "zip": zip, "count": itertools.count, **names}
    exec(compile(source, "<sampler>", "exec"), namespace)
    return namespace["steps"]


def _walk(k: MhKernel, cfg: ChainConfig, steps: Callable, lx0: float, chains, kept, burn, acc):
    """Walk ``chains`` from x0, whose log pi is ``lx0``, into their rows of the
    states ``burn`` and ``kept`` and the accept flags ``acc``, and summarize
    each one once it is walked.  Return the summaries, and None or (chain,
    steps completed, error) for the first chain that raises."""
    p = k.proposal
    cdf = k.target.cdf if k.target.is_builtin else None
    summaries = []
    # the increments, which each block turns into its states in place, and the
    # log uniforms: one pair of arrays for every chain of this worker
    xs, log_unifs = np.empty(cfg.steps), np.empty(cfg.steps)
    for chain in chains:
        start = 0
        try:
            proposal_batch(p, cfg.steps, _stream(cfg.seed, chain, 0), xs)
            _stream(cfg.seed, chain, 1).random(out=log_unifs)
            with np.errstate(divide="ignore"):
                np.log(log_unifs, out=log_unifs)
            acc[chain] = True
            x, lx = cfg.x0, lx0
            for start in range(0, cfg.steps, _BLOCK_STEPS):
                stop = min(start + _BLOCK_STEPS, cfg.steps)
                block = xs[start:stop]
                gaps = () if p.symmetric else ((p.log_shape(-block) - p.log_shape(block)).tolist(),)
                rejected = []
                previous = x
                # the call holds the only references to the block's inputs as
                # lists, so they are freed before the next block makes its own
                x, lx = steps(x, lx, rejected.append, start, block.tolist(), log_unifs[start:stop].tolist(), *gaps)
                # a rejected step adds -0.0, which leaves every float as it is,
                # and cumsum adds left to right: each state is the loop's own
                # sum x + u, bit for bit
                rejected = np.array(rejected, dtype=np.intp)
                xs[rejected] = -0.0
                acc[chain, rejected] = False
                block[0] += previous
                np.cumsum(block, out=block)
                cut = min(max(start, cfg.burn_in), stop)  # where the block's burn-in ends
                burn[chain, start:cut] = block[: cut - start]
                kept[chain, cut - cfg.burn_in : stop - cfg.burn_in] = block[cut - start :]
        except Exception as exc:
            return summaries, (chain, start, exc)
        ks_distance = None if cdf is None else _ks_distance(cdf, np.sort(kept[chain]))
        summaries.append(_summarize(chain, cfg, kept[chain], int(acc[chain, cfg.burn_in :].sum()), ks_distance))
    return summaries, None


def _spread(k: MhKernel, cfg: ChainConfig, steps: Callable, lx0: float, kept, burn, acc):
    """``_walk`` on w = min(chains, usable CPUs) processes, chain c on worker
    c mod w; on one without ``os.fork`` or ``os.sched_getaffinity``, or
    where another thread runs (a lock it holds would stay held in a child).
    Worker 0 is this process; each other is a child that pickles what
    ``_walk`` returns up a pipe and leaves through ``os._exit``.  Every child
    is reaped, killed first on an error here.  Return the summaries of the
    chains walked, in worker order, and the lowest-numbered failure."""
    parallel = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    w = min(cfg.chains, len(os.sched_getaffinity(0))) if parallel else 1
    children = {}
    try:
        for worker in range(1, w):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(_walk(k, cfg, steps, lx0, range(worker, cfg.chains, w), kept, burn, acc), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = os.fdopen(read, "rb"), range(worker, cfg.chains, w)
        summaries, failure = _walk(k, cfg, steps, lx0, range(0, cfg.chains, w), kept, burn, acc)
        failures = [failure]
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                why = f"died from signal {-code}" if code < 0 else f"exited with status {code}"
                failures.append((share[0], 0, RuntimeError(f"the worker of chains {list(share)} {why}")))
            else:
                theirs, failure = pickle.loads(data)
                summaries += theirs
                failures.append(failure)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    return summaries, min(filter(None, failures), key=lambda failure: failure[0], default=None)


def run(k: MhKernel, cfg: ChainConfig, trace: Optional[str] = None) -> RunSummary:
    """Run the configured chains and summarize each plus the pool.

    The summary covers the post-burn-in states x_{burn_in+1..steps}.
    ``trace`` receives every step of every chain (chains consecutive, the
    step column restarting per chain) as CSV ``step,x,accepted``.  Each
    step is the transition of ``_accept`` (its acceptance test compares
    against the log of the uniform), and the KS distances come from
    ``_ks_distance``.  Where chains raise, the first one's error is raised
    and the trace ends with its completed blocks.

    A ModelError is raised before any worker starts where log pi(x0) is
    -inf, where x0 - s and x0 + s round to x0, or where the rejection box's
    area 2 s sup_shape is at least ``_MAX_BOX_AREA``.  One is also
    raised, after the trace, where a mean, variance or autocorrelation is
    not finite.
    """
    # one shared buffer, which the workers fill: the kept states, one row per
    # chain (so pooling copies nothing), the burn-in states and the accept flags
    buf = mmap.mmap(-1, 9 * cfg.chains * cfg.steps)
    kept = np.ndarray((cfg.chains, cfg.steps - cfg.burn_in), buffer=buf)
    burn = np.ndarray((cfg.chains, cfg.burn_in), buffer=buf, offset=kept.nbytes)
    acc = np.ndarray((cfg.chains, cfg.steps), bool, buf, kept.nbytes + burn.nbytes)
    fh = None
    if trace is not None:
        fh = open(trace, "w", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "x", "accepted"])
    try:
        lx0 = k.target.log_pdf(cfg.x0)
        if cfg.x0 - k.proposal.s == cfg.x0 == cfg.x0 + k.proposal.s:
            raise ModelError(f"no increment moves the chain from x0={cfg.x0!r}: x0 - s and x0 + s round to x0")
        area = 2.0 * k.proposal.s * k.proposal.sup_shape
        if area >= _MAX_BOX_AREA:
            raise ModelError(
                f"proposal.sup_shape={k.proposal.sup_shape!r} is too large: the rejection box's area 2 s sup_shape "
                f"is {area:.3g}, at least the limit of {_MAX_BOX_AREA}, a fiftieth of the cap on draws per increment"
            )
        summaries, failure = _spread(k, cfg, _compile_steps(k), lx0, kept, burn, acc)
        if fh is not None:
            counts = [cfg.steps] * cfg.chains if failure is None else [cfg.steps] * failure[0] + [failure[1]]
            for chain, n in enumerate(counts):
                states = np.concatenate((burn[chain], kept[chain]))
                for start in range(0, n, _BLOCK_STEPS):
                    block = slice(start, min(start + _BLOCK_STEPS, n))
                    xs, flags = states[block].tolist(), acc[chain, block].tolist()
                    writer.writerows(zip(range(n)[block], map(repr, xs), map(int, flags)))
        if failure is not None:
            raise failure[2]
    finally:
        if fh is not None:
            fh.close()

    summaries.sort(key=lambda c: c.chain)
    allx = kept.ravel()
    mean, variance = float(allx.mean()), float(allx.var())
    moments = [mean, variance, *(v for c in summaries for v in (c.mean, c.variance, *c.autocorrelations))]
    if not all(map(math.isfinite, moments)):
        raise ModelError("the states spread too far for floats: a mean, variance or autocorrelation overflows")
    ks_distance = None
    if k.target.is_builtin:
        # the moments are taken first: sorting reorders their sums
        allx.sort()
        ks_distance = _ks_distance(k.target.cdf, allx)
    denom = cfg.chains * (cfg.steps - cfg.burn_in)
    return RunSummary(
        config=cfg,
        chains=summaries,
        acceptance_rate=sum(c.accepted for c in summaries) / denom,
        mean=mean,
        variance=variance,
        ks_distance=ks_distance,
    )


def _summarize(
    chain: int, cfg: ChainConfig, kept: np.ndarray, accepted: int, ks_distance: Optional[float]
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
        ks_distance=ks_distance,
        autocorrelations=_autocorr(kept, min(100, n - 1)),
    )


def _ks_terms(cdf: np.ndarray, ranks: np.ndarray, n: int):
    """The largest Kolmogorov-Smirnov term i/n - F_i or F_i - (i - 1)/n over
    the 1-based ``ranks`` i in a sorted sample of size n, whose target cdf
    values F_i are ``cdf``."""
    grid = ranks / n
    return max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))


def _ks_statistic(cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample from the target, given the
    target cdf at the sorted sample: ``_ks_distance`` without the search."""
    return float(_ks_terms(cdf, np.arange(1, cdf.size + 1), cdf.size))


def _ks_distance(cdf: Callable, srt: np.ndarray) -> float:
    """``_ks_statistic(cdf(srt))`` of the sorted sample ``srt``, bit for bit,
    from the cdf at a small fraction of the samples.

    The cdf is monotone, and so is every rounded operation of the terms, so
    the terms of the run of ranks p..q are at most q/n - F_{p-1} and F_q -
    (p - 1)/n, reading F_0 as F_1.  The sample is cut into runs of
    ``_KS_WIDTHS[0]`` samples, with the cdf taken at each run's last sample
    and the sample before it; each run whose bound exceeds the largest term
    found so far is cut into runs of the next width, down to single
    samples, whose terms are exact."""
    n = srt.size
    dist = -math.inf
    firsts, width = np.zeros(1, dtype=np.intp), n  # the runs still in question
    for sub in _KS_WIDTHS:
        first = (firsts[:, None] + np.arange(0, width, sub)).ravel()
        first = first[first < n]
        last = np.minimum(first + sub, n)  # 1-based rank of each run's last sample
        before = np.maximum(first - 1, 0)
        # the union of two sorted index arrays: one merge, duplicates dropped
        at = np.sort(np.concatenate((last - 1, before)), kind="stable")
        at = at[np.diff(at, prepend=-1) > 0]
        f = cdf(srt[at])
        dist = max(dist, _ks_terms(f, at + 1, n))
        bound = np.maximum(
            last / n - f[np.searchsorted(at, before)],
            f[np.searchsorted(at, last - 1)] - ((first + 1) / n - 1.0 / n),
        )
        firsts, width = first[bound > dist], sub
        if not firsts.size:
            break
    return float(dist)


def _autocorr(xs: np.ndarray, max_lag: int) -> List[float]:
    d = xs - xs.mean()
    var = float(d @ d)
    if not math.isfinite(var):
        # a spread that overflows, which the caller refuses: the lag
        # products would sum inf and -inf
        return [math.nan] * max_lag
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
