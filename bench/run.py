"""Benchmark for mhbound: time to certificate, discretized spectrum and
MCMC sampling, each op run through the public CLI entry point
``mhbound.cli.main`` in-process, with every op's output checked against
references computed apart from mhbound (bench/reference.py).

    python3 bench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` times whole rounds of ops (one op per target, closed loop)
for up to ``--seconds`` (at least one round) and reports the end-to-end
metrics, with op and set-up times scaled to a reference host speed by
the probe in bench/probe.py; ``--trace 1`` runs one untraced and one
traced round and reports the per-layer metrics of the traced one.
Progress goes to standard error; per-op times, and in a traced run the
spans and totals, go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import os

#: numpy's BLAS runs on this many threads in every process the benchmark
#: starts.  With two OpenBLAS threads rejection_grid's matvec doubles the
#: CPU time of ``bound`` for no wall-time gain, and the second thread
#: competes with everything else on the machine, which spreads the timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import csv
import ctypes
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from probe import PROBE_REF_S, probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: ``--set`` overrides that select each target; the proposal is always the
#: default unit triangular one.
TARGETS = {
    "laplace": ["target.family=laplace"],
    "gauss": ["target.family=gauss"],
    "expr_laplace": ["target.family=expr", "target.expr=exp(-abs(x))"],
    "expr_gauss": ["target.family=expr", "target.expr=exp(-x^2/2)"],
}
#: the closed-form target each expression target equals
FAMILY = {"laplace": "laplace", "expr_laplace": "laplace", "gauss": "gauss", "expr_gauss": "gauss"}
#: targets with an end-to-end op-time metric in every workload
REPORTED = ("laplace", "gauss", "expr_laplace")
#: ``bound.a_list`` of the certify ops: the largest window of the default
#: list [1, 2, 4, 8, 16] for s = 1, the one that certifies Gauss.  The
#: default x_max follows it, so the tail and beta work of an op is that of
#: the default list, at a third of its time.
A_LIST = [16.0]
PROFILE_POINTS = 1001  # default profile grid: -5 to 5 in steps of 0.01
SPECTRUM_N = 101
SAMPLE_CHAINS = 16
SAMPLE_STEPS = 40000
#: fresh interpreters whose set-up time is measured; setup_s is the median
SETUP_REPEATS = 7
#: allowed distance of the pooled acceptance rate and mean from their
#: references, in between-chain standard errors (batch means with one
#: batch per chain; a false alarm is below 1e-6 per check)
SAMPLE_Z = 8.0
#: allowed relative error of the pooled variance.  Per-chain variances of
#: the Laplace target are skewed (a chain that misses the tails has a low
#: variance and a small spread), so their standard error understates the
#: error; over 80 chain sets the largest relative error was 4.5%.
SAMPLE_VAR_TOL = 0.15

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", **{f"op_time_s.{t}": "s" for t in REPORTED}}
#: per-layer metric -> (span name, Stat field)
PER_LAYER = {
    "quad.sup_scan.calls": ("quad.sup_scan", "calls"),
    "quad.sup_scan.self_s": ("quad.sup_scan", "self_s"),
    "quad.adaptive_simpson.calls": ("quad.adaptive_simpson", "calls"),
    "quad.adaptive_simpson.self_s": ("quad.adaptive_simpson", "self_s"),
    "kernel.rejection_grid.calls": ("kernel.rejection_grid", "calls"),
    "kernel.rejection_grid.points": ("kernel.rejection_grid", "points"),
    "kernel.rejection_grid.self_s": ("kernel.rejection_grid", "self_s"),
    "kernel.sqrt_tt.calls": ("kernel.sqrt_tt", "calls"),
    "kernel.sqrt_tt.self_s": ("kernel.sqrt_tt", "self_s"),
    "kernel.rejection_prob.calls": ("kernel.rejection_prob", "calls"),
    "kernel.t_eval.self_s": ("kernel.t_eval", "self_s"),
    "models.log_pdf.calls": ("models.log_pdf", "calls"),
    "models.log_pdf.points": ("models.log_pdf", "points"),
    "models.log_pdf.self_s": ("models.log_pdf", "self_s"),
    "models.shape.calls": ("models.shape", "calls"),
    "models.cdf.calls": ("models.cdf", "calls"),
    "models.cdf.self_s": ("models.cdf", "self_s"),
    "exprlang.evaluate.calls": ("exprlang.evaluate", "calls"),
    "exprlang.evaluate.self_s": ("exprlang.evaluate", "self_s"),
    "exprlang.evaluate_array.calls": ("exprlang.evaluate_array", "calls"),
    "exprlang.evaluate_array.points": ("exprlang.evaluate_array", "points"),
    "exprlang.evaluate_array.self_s": ("exprlang.evaluate_array", "self_s"),
    "bounds.r_sup_compact.s": ("bounds.r_sup_compact", "total_s"),
    "bounds.r_sup_tail.s": ("bounds.r_sup_tail", "total_s"),
    "bounds.beta.s": ("bounds.beta", "total_s"),
    "asymptotics.alpha_inf.s": ("asymptotics.alpha_inf", "total_s"),
    "asymptotics.tail_ratio_for.calls": ("asymptotics.tail_ratio_for", "calls"),
    "spectra.discretize.s": ("spectra.discretize", "total_s"),
    "spectra.build_p_matrix.s": ("spectra.build_p_matrix", "total_s"),
    "spectra.symmetrize.s": ("spectra.symmetrize", "total_s"),
    "spectra.spectral_report.self_s": ("spectra.spectral_report", "self_s"),
    "spectra.norm_T_ac.s": ("spectra.norm_T_ac", "total_s"),
    "spectra.hs_norm_T_a.s": ("spectra.hs_norm_T_a", "total_s"),
    "sampler.steps": ("sampler.run", "points"),
    "sampler.proposal_batch.s": ("sampler.proposal_batch", "total_s"),
    "sampler.run.self_s": ("sampler.run", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}



def per_layer_unit(metric: str) -> str:
    return "count" if PER_LAYER[metric][1] in ("calls", "points") else "s"


class CheckError(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol:g}")


@dataclass
class Workload:
    targets: tuple
    commands: tuple
    #: ``--set`` overrides of the timed ops, after the target's own
    sets: list
    #: overrides of the warm-up op: same code paths, at most the work of a timed op
    warmup_sets: list
    #: outputs of earlier ops, for checks that compare ops with each other
    seen: dict = field(default_factory=dict)


def make_workload(name: str, seed: int) -> Workload:
    if name == "certify":
        # a cut-down x_max makes expr_gauss's failing bound twice as slow,
        # so the certify warm-up is one round of the timed ops
        sets = ["bound.a_list=" + json.dumps(A_LIST)]
        return Workload(
            ("laplace", "gauss", "expr_laplace", "expr_gauss"), ("bound", "asymptotic", "profile"), sets, sets
        )
    if name == "spectrum":
        return Workload(REPORTED, ("spectrum",), [f"spectrum.n={SPECTRUM_N}"], ["spectrum.n=81"])
    chain = [f"sample.chains={SAMPLE_CHAINS}", "sample.burn_in=1000", f"sample.seed={seed}"]
    return Workload(REPORTED, ("sample",), chain + [f"sample.steps={SAMPLE_STEPS}"], chain + ["sample.steps=2000"])


def argv_for(command: str, target: str, sets: list, out: Path) -> list:
    argv = [command, "--out", str(out)]
    for item in TARGETS[target] + sets:
        argv += ["--set", item]
    return argv


# -- references ----------------------------------------------------------


def profile_indices(seed: int) -> list:
    """Grid points of the profile checked against quadrature: both ends,
    the centre, and five chosen by the seed."""
    chosen = random.Random(seed).sample(range(PROFILE_POINTS), 5)
    return sorted({0, PROFILE_POINTS // 2, PROFILE_POINTS - 1, *chosen})


def profile_x(i: int) -> float:
    return -5.0 + 0.01 * i  # the CLI's lo + step * arange(count)


def fetch_references(workload: str, w: Workload, seed: int) -> dict:
    families = [FAMILY[t] for t in w.targets]
    request = {}
    if workload == "certify":
        points = [profile_x(i) for i in profile_indices(seed)]
        request["certify"] = {"families": families, "profile_points": points, "a_list": A_LIST}
    elif workload == "sample":
        request["sample"] = {"families": families}
    if not request:
        return {}
    done = subprocess.run(
        [sys.executable, str(BENCH / "reference.py"), "--request", json.dumps(request)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


#: log pi up to a constant, for the spectrum check's similarity transform
LOG_PI = {"laplace": lambda x: -np.abs(x), "gauss": lambda x: -0.5 * x * x}


def spectrum_references(w: Workload, cli) -> dict:
    """LAPACK eigenvalues of the transition matrix the CLI discretizes, for
    comparison with the CLI's own Jacobi solver.

    The matrix is symmetrized here with masses pi(x_i) w_i from the
    closed-form density, not with spectra.symmetrize, and its asymmetry
    is kept for the check (detailed balance).  eigvals of the
    unsymmetrized matrix is kept only where it comes back real: for the
    Gauss target the masses span e^-200, and eigvals returns complex pairs
    with imaginary parts near 0.1."""
    from mhbound import spectra

    refs = {}
    for target in w.targets:
        cfg = cli.resolve_config(cli.apply_overrides({}, TARGETS[target] + w.sets))
        half_width, n = float(cfg["spectrum"]["A"]), int(cfg["spectrum"]["n"])
        k = cli.build_kernel(cfg)
        p = spectra.build_p_matrix(k, spectra.discretize(k.target, half_width, n)).p_matrix

        x = np.linspace(-half_width, half_width, n)
        log_m = LOG_PI[FAMILY[target]](x)
        log_m[[0, -1]] += math.log(0.5)  # trapezoid end weights
        root = np.exp(0.5 * (log_m - log_m.max()))
        sym = root[:, None] * p / root[None, :]
        asymmetry = float(np.max(np.abs(sym - sym.T)) / np.max(np.abs(sym)))
        general = np.linalg.eigvals(p)
        refs[target] = {
            "eigvalsh": np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))[::-1],
            "asymmetry": asymmetry,
            "eigvals": np.sort(general.real)[::-1] if np.all(np.abs(general.imag) <= 1e-10) else None,
        }
    return refs


# -- checks ----------------------------------------------------------------


def load(path: Path) -> dict:
    return json.loads(path.read_text())["result"]


def check_certify(target: str, out: Path, refs: dict, w: Workload) -> None:
    family = FAMILY[target]
    ref = refs["certify"][family]
    asym = load(out / "asymptotic.json")
    for key in ("alpha_inf", "gamma_inf", "r_inf"):
        close(asym[key], ref[key], 1e-9, f"asymptotic {key}")
    expect(asym["certified"] is True, "asymptotic: not certified")

    if family == "laplace":
        want = [{"a": a, "r_a": ref["r_inf"], "alpha_a": ref["alpha_inf"]} for a in A_LIST]
    else:
        want = refs["gauss_bound"]
    reports = load(out / "bound.json")["reports"]
    expect([r["a"] for r in reports] == A_LIST, "bound: window list")
    for got, exp in zip(reports, want):
        a = got["a"]
        close(got["alpha_a"], exp["alpha_a"], 1e-6, f"bound alpha_a at a={a}")
        close(got["r_a"], exp["r_a"], 1e-6, f"bound r_a at a={a}")
        expect(got["certified"] == (exp["alpha_a"] < 1.0), f"bound: certified flag at a={a}")

    with open(out / "profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expect(len(rows) == PROFILE_POINTS, "profile: grid size")
    for x, r in ref["profile"]:
        row = rows[round((x + 5.0) / 0.01)]
        expect(float(row[0]) == x, f"profile: grid point {x}")
        close(float(row[1]), r, 1e-6, f"profile r({x})")


def check_spectrum(target: str, out: Path, refs: dict, w: Workload) -> None:
    res = load(out / "spectrum.json")
    eigs = np.array(res["eigenvalues"])
    ref = refs["spectrum"][target]
    close(res["top_eigenvalue"], 1.0, 1e-6, "top eigenvalue")
    expect(int(np.sum(np.abs(eigs - 1.0) <= 5e-4)) == 1, "exactly one eigenvalue near 1")
    expect(bool(np.all(np.abs(eigs) <= 1.0 + 1e-12)), "eigenvalues inside [-1, 1] up to rounding")
    expect(ref["asymmetry"] <= 1e-9, f"transition matrix breaks detailed balance by {ref['asymmetry']:.2e}")
    for name in ("eigvalsh", "eigvals"):
        if ref[name] is not None:
            expect(eigs.shape == ref[name].shape, "eigenvalue count")
            close(float(np.max(np.abs(eigs - ref[name]))), 0.0, 1e-9, f"eigenvalues against LAPACK {name}")


def check_sample(target: str, out: Path, refs: dict, w: Workload) -> None:
    res = load(out / "sample.json")
    ref = refs["sample"][FAMILY[target]]
    chains = res["chains"]
    expect(len(chains) == SAMPLE_CHAINS, "chain count")
    for key, want in (("acceptance_rate", ref["acceptance"]), ("mean", ref["mean"])):
        per_chain = [c[key] for c in chains]
        err = statistics.stdev(per_chain) / math.sqrt(len(per_chain))
        close(res[key], want, SAMPLE_Z * err, f"pooled {key}")
    close(res["variance"], ref["variance"], SAMPLE_VAR_TOL * ref["variance"], "pooled variance")
    first = w.seen.setdefault(target, res)
    expect(res == first, "same seed, different chain")


CHECKS = {"certify": check_certify, "spectrum": check_spectrum, "sample": check_sample}


# -- running -------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: target -> wall time of each op
    times: dict = field(default_factory=dict)
    #: target -> mean of the probe times right before and right after each op
    probes: dict = field(default_factory=dict)


def reference_time(wall_s: float, probe_s: float) -> float:
    """``wall_s`` scaled to the reference host speed (bench/probe.py)."""
    return wall_s * PROBE_REF_S / probe_s


def run_round(workload: str, w: Workload, refs: dict, cli, tally: Tally, tracer=None) -> None:
    """One op per target, each starting when the previous one ends."""
    for target in w.targets:
        out = OUT / workload / target
        argvs = [argv_for(c, target, w.sets, out) for c in w.commands]

        def op():
            return [cli.main(argv) for argv in argvs]

        if tracer is not None:
            op = tracer.wrap(f"op.{target}", op)
        before = probe()
        start = time.perf_counter()
        codes = op()
        elapsed = time.perf_counter() - start
        after = probe()
        tally.attempted += 1
        tally.times.setdefault(target, []).append(elapsed)
        tally.probes.setdefault(target, []).append(0.5 * (before + after))
        if any(codes):
            tally.failed += 1
            print(f"  {target}: failed, exit codes {codes}", file=sys.stderr)
            continue
        try:
            CHECKS[workload](target, out, refs, w)
        except (CheckError, OSError, KeyError, ValueError, IndexError) as exc:
            tally.failed += 1
            tally.wrong += 1
            print(f"  {target}: wrong output: {exc}", file=sys.stderr)


def warm_up(workload: str, w: Workload, cli) -> None:
    for target in w.targets:
        for command in w.commands:
            cli.main(argv_for(command, target, w.warmup_sets, OUT / workload / "warmup"))


SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from probe import probe
before = probe()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from mhbound import cli
for sets in json.loads(sys.argv[3]):
    cli.build_kernel(cli.resolve_config(cli.apply_overrides({}, sets)))
elapsed = time.perf_counter() - start
print(json.dumps([elapsed, 0.5 * (before + probe())]))
"""


def measure_setup(w: Workload) -> list:
    """Imports plus every config and kernel the workload uses, each time in
    a fresh interpreter that also times the probe before and after: a list
    of [wall time, probe time] pairs."""
    sets = json.dumps([TARGETS[t] + w.sets for t in w.targets])
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), sets],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(json.loads(done.stdout))
    return samples


def blas_threads_in_use():
    """Threads numpy's bundled OpenBLAS reports, or None if not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "spectrum", "sample"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    return args


def timed_run(workload: str, w: Workload, refs: dict, cli, seconds: int, setup: list, tally: Tally, record: dict):
    """Whole rounds, a new one only while it should end within ``seconds``."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(workload, w, refs, cli, tally)
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    record["op_s"] = tally.times
    record["probe_s"] = tally.probes
    values = {
        "setup_s": statistics.median(reference_time(*sample) for sample in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for target in REPORTED:
        scaled = map(reference_time, tally.times[target], tally.probes[target])
        values[f"op_time_s.{target}"] = statistics.median(scaled)
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_run(workload: str, w: Workload, refs: dict, cli, tally: Tally, record: dict):
    """One untraced round, then one traced round; the per-layer metrics
    come from the traced one, and their difference is the overhead."""
    import tracing

    run_round(workload, w, refs, cli, tally)
    untraced = {t: v[0] for t, v in tally.times.items()}
    tally.times = {}
    tracer = tracing.Tracer()
    tracer.patch()
    try:
        run_round(workload, w, refs, cli, tally, tracer)
    finally:
        tracer.unpatch()
    traced = {t: v[0] for t, v in tally.times.items()}
    record.update(
        untraced_op_s=untraced,
        traced_op_s=traced,
        overhead_s={t: traced[t] - untraced[t] for t in traced},
        **tracer.to_dict(),
    )
    empty = tracing.Stat()
    return {
        name: (getattr(tracer.stats.get(span, empty), attr), per_layer_unit(name))
        for name, (span, attr) in PER_LAYER.items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mhbound" / "cli.py").is_file():
        print(f"error: mhbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mhbound import cli

    w = make_workload(args.workload, args.seed)
    phases = {}
    start = time.perf_counter()
    refs = fetch_references(args.workload, w, args.seed)
    phases["references"] = time.perf_counter() - start
    setup = [] if args.trace else measure_setup(w)
    phases["setup"] = time.perf_counter() - start - phases["references"]
    warm_up(args.workload, w, cli)
    if args.workload == "spectrum":
        refs["spectrum"] = spectrum_references(w, cli)
    phases["warm_up"] = time.perf_counter() - start - phases["references"] - phases["setup"]
    blas = {"setting": BLAS_THREADS, "in_use": blas_threads_in_use()}
    print(f"{args.workload} seed={args.seed} blas_threads={blas} phases_s={phases}", file=sys.stderr)

    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "blas_threads": blas, "phases_s": phases, "setup_s": setup}
    if args.trace:
        metrics = traced_run(args.workload, w, refs, cli, tally, record)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    else:
        metrics = timed_run(args.workload, w, refs, cli, args.seconds, setup, tally, record)
        path = OUT / f"run-{args.workload}-seed{args.seed}.json"
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record) + "\n")
    print(f"wrote {path}", file=sys.stderr)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
