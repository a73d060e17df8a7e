"""Spans and counters around mhbound's functions, kept in memory.

``Tracer.patch()`` replaces each function in ``TRACED`` with a wrapper, in
the module that defines it and in every mhbound module that imported it
by name (``bounds.sup_scan``, ``cli.run_chains``); methods are replaced
on their class.  ``Tracer.unpatch()`` puts the originals back.

Each wrapped call is a span: name, start, end and the index of its parent
span.  Self time is a span's duration minus the time covered by its
child spans.  A call made directly inside a span of the same name, such
as ``exprlang.evaluate`` recursing into its operands, opens no new span,
so ``calls`` counts outermost calls.  Totals per name cover every span;
the span list leaves out the per-point functions in ``UNLISTED``, which
run hundreds of thousands of times per op.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np


def _size_of_arg(i: int):
    return lambda args: int(np.size(args[i]))


def _chain_steps(args) -> int:
    cfg = args[1]
    return cfg.steps * cfg.chains


#: (module, attribute path, span name, work measure of one call or None).
#: Only these are wrapped: any other function's time stays in its
#: caller's self time (``spectra.jacobi_eigh`` in ``spectral_report``).
TRACED = [
    ("quad", "sup_scan", "quad.sup_scan", None),
    ("quad", "adaptive_simpson", "quad.adaptive_simpson", None),
    ("kernel", "MhKernel.rejection_grid", "kernel.rejection_grid", _size_of_arg(1)),
    ("kernel", "MhKernel.sqrt_tt", "kernel.sqrt_tt", None),
    ("kernel", "MhKernel.rejection_prob", "kernel.rejection_prob", None),
    ("kernel", "MhKernel.t_eval", "kernel.t_eval", None),
    ("models", "DensityModel.log_pdf", "models.log_pdf", _size_of_arg(1)),
    ("models", "ProposalModel.shape", "models.shape", None),
    ("models", "DensityModel.cdf", "models.cdf", None),
    ("exprlang", "evaluate", "exprlang.evaluate", None),
    ("exprlang", "evaluate_array", "exprlang.evaluate_array", _size_of_arg(1)),
    ("bounds", "r_sup_compact", "bounds.r_sup_compact", None),
    ("bounds", "r_sup_tail", "bounds.r_sup_tail", None),
    ("bounds", "beta", "bounds.beta", None),
    ("asymptotics", "alpha_inf", "asymptotics.alpha_inf", None),
    ("asymptotics", "tail_ratio_for", "asymptotics.tail_ratio_for", None),
    ("spectra", "discretize", "spectra.discretize", None),
    ("spectra", "build_p_matrix", "spectra.build_p_matrix", None),
    ("spectra", "symmetrize", "spectra.symmetrize", None),
    ("spectra", "spectral_report", "spectra.spectral_report", None),
    ("spectra", "norm_T_ac", "spectra.norm_T_ac", None),
    ("spectra", "hs_norm_T_a", "spectra.hs_norm_T_a", None),
    ("sampler", "run", "sampler.run", _chain_steps),
    ("sampler", "proposal_batch", "sampler.proposal_batch", None),
    ("cli", "main", "cli.main", None),
]

UNLISTED = {
    "kernel.sqrt_tt",
    "kernel.t_eval",
    "models.log_pdf",
    "models.shape",
    "models.cdf",
    "exprlang.evaluate",
    "exprlang.evaluate_array",
}

@dataclass
class Stat:
    calls: int = 0
    #: summed span durations
    total_s: float = 0.0
    self_s: float = 0.0
    #: summed work measure (array elements, chain steps)
    points: int = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []  # [name, start, end, parent index]; -1 = none
        self._stack = []  # frames: [name, start, child time, span index]
        self._undo = []

    def wrap(self, name: str, fn, measure=None):
        """``fn`` with every outermost call recorded as a span of ``name``;
        ``measure(args)`` gives the call's work for ``points``."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        listed = name not in UNLISTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            if measure is not None:
                stat.points += measure(args)
            index = -1
            if listed:
                index = len(spans)
                spans.append(None)
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if listed:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    spans[index] = [name, frame[1], end, parent]

        return traced

    # -- patching ----------------------------------------------------
    def patch(self):
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("mhbound.")]
        for module_name, path, name, measure in TRACED:
            owner = importlib.import_module(f"mhbound.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, measure)
            self._set(owner, attr, wrapped)
            if not cls_path:
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, alias, wrapped)

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "stats": {name: asdict(stat) for name, stat in sorted(self.stats.items())},
            "spans": self.spans,
        }
