"""Command-line front end.

Subcommands: ``bound`` (windowed bounds over a list of truncation
radii), ``asymptotic`` (limit bound via the tail ratio), ``profile``
(rejection probability on a grid), ``spectrum`` (discretized operator
spectrum), ``sample`` (chain simulation).

Configuration is a JSON document; flags only pick the config file, the
output directory/format, and scalar overrides (``--set bound.x_max=80``).
Every JSON report embeds the fully resolved config (defaults included),
the tool version, and the wall-clock duration; its ``result`` is the
command's report dataclass, field by field.

Exit codes: 0 success, 1 configuration/usage error, 2 ran fine but the
result is not certified (unconverged scan or degenerate tail ratio),
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, asymptotics, bounds, exprlang
from .kernel import MhKernel
from .models import DensityModel, ModelError, ProposalModel
from .sampler import ChainConfig, run as run_chains
from .spectra import spectral_report

__all__ = ["main", "ConfigError", "load_config", "resolve_config", "build_kernel"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CERTIFIED = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    pass


# section -> key -> allowed python types
_SCHEMA = {
    "target": {"family": (str,), "scale": (int, float), "expr": (str,)},
    "proposal": {"family": (str,), "s": (int, float), "expr": (str,), "sup_shape": (int, float)},
    "bound": {"a_list": (list,), "x_max": (int, float)},
    "spectrum": {"A": (int, float), "n": (int,), "a": (int, float)},
    "sample": {
        "steps": (int,),
        "burn_in": (int,),
        "seed": (int,),
        "chains": (int,),
        "x0": (int, float),
    },
    "profile": {"lo": (int, float), "hi": (int, float), "step": (int, float)},
}


def validate_config(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for section, body in doc.items():
        if section not in _SCHEMA:
            # name the first key of an unknown section, as for a known one
            keys = list(body)[:1] if isinstance(body, dict) else []
            raise ConfigError(f"unknown config key: {'.'.join([section, *keys])}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in body.items():
            allowed = _SCHEMA[section].get(key)
            if allowed is None:
                raise ConfigError(f"unknown config key: {section}.{key}")
            if isinstance(value, bool) or not isinstance(value, allowed):
                names = "/".join(t.__name__ for t in allowed)
                raise ConfigError(f"config key {section}.{key} must be {names}")


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    validate_config(doc)
    return doc


def apply_overrides(doc: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        parts = key.split(".")
        if len(parts) != 2:
            raise ConfigError(f"--set key must be section.key, got {key!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        doc.setdefault(parts[0], {})[parts[1]] = value
    validate_config(doc)
    return doc


def resolve_config(doc: dict) -> dict:
    """Fill in every default so the echoed config is self-contained."""
    out = {section: dict(doc.get(section, {})) for section in _SCHEMA}
    out["target"].setdefault("family", "laplace")
    if out["target"]["family"] != "expr":
        out["target"].setdefault("scale", 1.0)
    out["proposal"].setdefault("family", "triangular")
    out["proposal"].setdefault("s", 1.0)
    s = float(out["proposal"]["s"])
    out["bound"].setdefault("a_list", bounds.default_a_list(s))
    out["bound"].setdefault("x_max", bounds.default_x_max(max(out["bound"]["a_list"]), s))
    out["spectrum"].setdefault("a", 5.0 * s)
    out["spectrum"].setdefault("A", out["spectrum"]["a"] + 15.0 * s)
    out["spectrum"].setdefault("n", 801)
    out["sample"].setdefault("steps", 100000)
    out["sample"].setdefault("burn_in", 1000)
    out["sample"].setdefault("seed", 0)
    out["sample"].setdefault("chains", 1)
    out["sample"].setdefault("x0", 0.0)
    out["profile"].setdefault("lo", -5.0 * s)
    out["profile"].setdefault("hi", 5.0 * s)
    out["profile"].setdefault("step", 0.01 * s)
    return out


def build_kernel(cfg: dict) -> MhKernel:
    t = cfg["target"]
    try:
        if t["family"] == "expr":
            target = DensityModel.from_expression(t.get("expr") or "")
        else:
            target = DensityModel(t["family"], float(t.get("scale", 1.0)))
        p = cfg["proposal"]
        if p["family"] == "expr":
            proposal = ProposalModel.from_expression(
                p.get("expr") or "", float(p["s"]), p.get("sup_shape")
            )
        else:
            proposal = ProposalModel(p["family"], float(p["s"]))
    except (ModelError, ValueError) as exc:
        raise ConfigError(str(exc))
    return MhKernel(target, proposal)


def _symmetric_kernel(cfg: dict) -> MhKernel:
    """build_kernel for bound, asymptotic, profile and spectrum, which use
    t(x, y) = q(y - x) min(1, pi(y)/pi(x)): the Metropolis form, valid only
    for a symmetric proposal shape."""
    k = build_kernel(cfg)
    if not k.proposal.symmetric:
        raise ConfigError(
            "proposal shape is not symmetric (shape(-u) != shape(u)); bound, asymptotic, "
            "profile and spectrum assume a symmetric proposal, only sample handles an "
            "asymmetric one"
        )
    return k


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_value(obj):
    """json.dumps hook: a report dataclass is its fields in declaration
    order (the values themselves, not copies), and a numpy array or scalar
    its ``tolist()``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, name: str, payload: dict, csv_spec) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("json", "both"):
        (out / f"{name}.json").write_text(json.dumps(payload, indent=2, default=_json_value) + "\n")
    if args.format in ("csv", "both") and csv_spec is not None:
        header, rows = csv_spec
        _write_csv(out / f"{name}.csv", header, rows)


def _report(command: str, cfg: dict, started: float, result) -> dict:
    return {
        "command": command,
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
        "config": cfg,
        "result": result,
    }


def _fmt(x: float) -> str:
    return repr(float(x))


# -- commands ----------------------------------------------------------


def cmd_bound(args, cfg: dict) -> int:
    started = time.monotonic()
    k = _symmetric_kernel(cfg)
    a_list = [float(a) for a in cfg["bound"]["a_list"]]
    profile = bounds.bound_profile(k, a_list, float(cfg["bound"]["x_max"]))
    rows = [
        [_fmt(r.a), _fmt(r.r_a), _fmt(r.r_prime_a), _fmt(r.beta_a), _fmt(r.alpha_a), int(r.converged)]
        for r in profile.reports
    ]
    payload = _report(
        "bound",
        cfg,
        started,
        {"reports": profile.reports, "best_index": profile.best_index, "best": profile.best},
    )
    _emit(args, "bound", payload, (["a", "r_a", "r_prime_a", "beta_a", "alpha_a", "converged"], rows))
    ok = all(r.converged for r in profile.reports) and any(r.certified for r in profile.reports)
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def cmd_asymptotic(args, cfg: dict) -> int:
    started = time.monotonic()
    k = _symmetric_kernel(cfg)
    try:
        report = asymptotics.alpha_inf(k)
    except asymptotics.TauNotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    payload = _report("asymptotic", cfg, started, report)
    rows = [[_fmt(row["u"]), _fmt(row["tau"])] for row in report.tau_table]
    _emit(args, "asymptotic", payload, (["u", "tau"], rows))
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


def cmd_profile(args, cfg: dict) -> int:
    started = time.monotonic()
    k = _symmetric_kernel(cfg)
    lo, hi, step = (float(cfg["profile"][key]) for key in ("lo", "hi", "step"))
    if hi <= lo or step <= 0:
        raise ConfigError("profile needs lo < hi and step > 0")
    count = int(round((hi - lo) / step)) + 1
    xs = lo + step * np.arange(count)
    rs = k.rejection_grid(xs)
    payload = _report(
        "profile",
        cfg,
        started,
        {"points": count, "argmax": float(xs[int(np.argmax(rs))]), "max": float(np.max(rs))},
    )
    rows = [[_fmt(x), _fmt(r)] for x, r in zip(xs, rs)]
    _emit(args, "profile", payload, (["x", "r_x"], rows))
    return EXIT_OK


def cmd_spectrum(args, cfg: dict) -> int:
    started = time.monotonic()
    k = _symmetric_kernel(cfg)
    sc = cfg["spectrum"]
    report = spectral_report(k, float(sc["A"]), int(sc["n"]), float(sc["a"]))
    payload = _report("spectrum", cfg, started, report)
    rows = [[i, _fmt(ev)] for i, ev in enumerate(report.eigenvalues)]
    _emit(args, "spectrum", payload, (["index", "eigenvalue"], rows))
    return EXIT_OK


def cmd_sample(args, cfg: dict) -> int:
    started = time.monotonic()
    k = build_kernel(cfg)
    sc = cfg["sample"]
    try:
        chain_cfg = ChainConfig(
            steps=int(sc["steps"]),
            burn_in=int(sc["burn_in"]),
            x0=float(sc["x0"]),
            seed=int(sc["seed"]),
            chains=int(sc["chains"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    summary = run_chains(k, chain_cfg, trace=args.trace)
    payload = _report("sample", cfg, started, summary)
    rows = [
        [c.chain, c.seed, c.accepted, _fmt(c.acceptance_rate), _fmt(c.mean), _fmt(c.variance)]
        for c in summary.chains
    ]
    _emit(
        args,
        "sample",
        payload,
        (["chain", "seed", "accepted", "acceptance_rate", "mean", "variance"], rows),
    )
    return EXIT_OK


# -- entry point -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mhbound", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"mhbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "bound": cmd_bound,
        "asymptotic": cmd_asymptotic,
        "profile": cmd_profile,
        "spectrum": cmd_spectrum,
        "sample": cmd_sample,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VAL")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        if name == "sample":
            p.add_argument("--trace", help="stream the trajectory to this CSV file")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = apply_overrides(load_config(args.config), args.overrides)
        cfg = resolve_config(doc)
        return args.fn(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except exprlang.DomainError as exc:
        print(
            f"config error: expression evaluated outside its domain: {exc.function}({exc.argument!r})",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
