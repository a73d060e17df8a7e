import csv
import dataclasses
import errno
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mhbound import __version__, bounds, cli, quad, sampler, spectra
from mhbound.cli import (
    ConfigError,
    apply_overrides,
    load_config,
    main,
    resolve_config,
    validate_config,
)
from mhbound.kernel import R_QUAD_TOL, MhKernel, quad_error_reason
from mhbound.models import ProposalModel

GAMMA_LAPLACE = 8.0 * math.exp(-0.5) - math.exp(-1.0) - 3.5


def run_cli(*argv):
    return main(list(argv))


def test_unknown_command_exits_1(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "target": {,}\n}\n')
    assert run_cli("bound", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_key_path_rejected():
    with pytest.raises(ConfigError, match=r"bound\.bogus"):
        validate_config({"bound": {"bogus": 1}})
    with pytest.raises(ConfigError, match="mystery"):
        validate_config({"mystery": {}})


def test_type_checked():
    with pytest.raises(ConfigError, match="sample.steps"):
        validate_config({"sample": {"steps": "many"}})


def test_set_overrides():
    doc = apply_overrides({}, ["bound.x_max=80", "target.family=gauss"])
    assert doc["bound"]["x_max"] == 80
    assert doc["target"]["family"] == "gauss"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["oops"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["a.b.c=1"])


def test_resolved_config_echoes_defaults():
    cfg = resolve_config({})
    assert cfg["target"]["family"] == "laplace"
    assert cfg["proposal"]["s"] == 1.0
    assert cfg["bound"]["a_list"] == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert cfg["spectrum"]["n"] == 801
    assert "quadrature" not in cfg


def test_quadrature_tol_is_unknown_key(tmp_path, capsys):
    assert run_cli("bound", "--out", str(tmp_path), "--set", "quadrature.tol=1e-8") == 1
    assert "unknown config key: quadrature.tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_step_is_unknown_key(tmp_path, capsys):
    assert run_cli("bound", "--out", str(tmp_path), "--set", "bound.scan_step=0.05") == 1
    assert "unknown config key: bound.scan_step" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_quadrature_section_is_unknown(tmp_path, capsys):
    assert run_cli("bound", "--out", str(tmp_path), "--set", "quadrature.panels=96") == 1
    assert "unknown config key: quadrature" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


def test_bound_command_csv_and_json(tmp_path):
    code = run_cli(
        "bound", "--out", str(tmp_path), "--set", "bound.a_list=[2, 4]"
    )
    assert code == 0
    with open(tmp_path / "bound.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "r_a", "r_prime_a", "beta_a", "alpha_a", "converged"]
    assert len(rows) == 3
    assert float(rows[1][4]) == pytest.approx(GAMMA_LAPLACE, abs=1e-5)
    report = json.loads((tmp_path / "bound.json").read_text())
    assert report["version"] == __version__
    assert report["config"]["target"]["family"] == "laplace"
    assert "quadrature" not in report["config"]
    assert report["result"]["best"]["certified"]


@pytest.mark.parametrize(
    "sets,best_index",
    [
        # the five alpha_a differ by rounding only: the tie goes to the smallest a
        (["target.family=expr", "target.expr=exp(-abs(x))"], 0),
        (["target.family=gauss"], 4),
    ],
)
def test_bound_best_index_breaks_rounding_ties(tmp_path, sets, best_index):
    argv = [arg for item in sets for arg in ("--set", item)]
    assert run_cli("bound", "--out", str(tmp_path), "--format", "json", *argv) == 0
    result = json.loads((tmp_path / "bound.json").read_text())["result"]
    assert result["best_index"] == best_index
    assert result["best"] == result["reports"][best_index]


def test_asymptotic_command_laplace(tmp_path):
    assert run_cli("asymptotic", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "asymptotic.json").read_text())
    assert report["result"]["gamma_inf"] == pytest.approx(GAMMA_LAPLACE, abs=1e-6)
    with open(tmp_path / "asymptotic.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "tau_plus", "tau_minus"]


def test_asymptotic_command_gauss(tmp_path):
    assert run_cli("asymptotic", "--out", str(tmp_path), "--set", "target.family=gauss") == 0
    report = json.loads((tmp_path / "asymptotic.json").read_text())
    assert report["result"]["gamma_inf"] == pytest.approx(0.5, abs=1e-9)
    assert report["result"]["alpha_inf"] == pytest.approx(0.5, abs=1e-9)


def test_asymptotic_degenerate_tau_exits_2(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="mhbound"):
        code = run_cli(
            "asymptotic",
            "--out",
            str(tmp_path),
            "--set",
            "target.family=expr",
            "--set",
            "target.expr=1/(1+x^2)",
        )
    assert code == 2
    assert any(r.levelno == logging.WARNING for r in caplog.records)
    report = json.loads((tmp_path / "asymptotic.json").read_text())
    assert report["result"]["degenerate"]


def test_profile_command(tmp_path):
    code = run_cli("profile", "--out", str(tmp_path), "--format", "csv")
    assert code == 0
    assert not (tmp_path / "profile.json").exists()
    with open(tmp_path / "profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "r_x"]
    assert len(rows) == 1002  # 1001 grid points on [-5, 5] at step 0.01
    best = max(rows[1:], key=lambda r: float(r[1]))
    assert abs(float(best[0])) <= 0.005


def test_unconverged_profile_warns_and_exits_2(tmp_path, caplog):
    # near x = 0.5, d(x, .) has two roots in one coarse cell of integrate_u,
    # and the largest r(x) error estimate is about 5e-7
    target = "target.expr=exp(-abs(x) + 0.3*exp(-((x-0.7)/0.005)^2))"
    with caplog.at_level(logging.WARNING, logger="mhbound.cli"):
        code = run_cli("profile", "--out", str(tmp_path), "--set", "target.family=expr", "--set", target)
    assert code == 2
    result = json.loads((tmp_path / "profile.json").read_text())["result"]
    assert not result["converged"] and result["r_quad_error"] > R_QUAD_TOL
    (record,) = [r for r in caplog.records if r.name == "mhbound.cli"]
    assert record.levelno == logging.WARNING
    assert quad_error_reason(result["r_quad_error"]) in record.getMessage()


def test_profile_in_blocks_writes_the_bytes_of_one_call(tmp_path, monkeypatch):
    # 1001 points in blocks of 64: the CSV and the result are those of one
    # rejection_grid call on every point, as profile made them before
    monkeypatch.setattr(cli, "_PROFILE_BLOCK", 64)
    assert run_cli("profile", "--out", str(tmp_path), "--set", "target.family=gauss") == 0
    xs = -5.0 + 0.01 * np.arange(1001)
    rs, errors = cli.build_kernel(resolve_config({"target": {"family": "gauss"}})).rejection_grid(xs)
    rows = "".join(f"{x!r},{r!r}\n" for x, r in zip(xs.tolist(), rs.tolist()))
    assert (tmp_path / "profile.csv").read_text() == "x,r_x\n" + rows
    result = json.loads((tmp_path / "profile.json").read_text())["result"]
    want = {"points": 1001, "argmax": float(xs[np.argmax(rs)]), "max": float(rs.max()), "r_quad_error": float(errors.max())}
    assert result == {**want, "converged": True}


def test_profile_whose_later_block_fails_writes_nothing(tmp_path, monkeypatch, capsys):
    # log pi of gauss at scale 1e-154 overflows to -inf beyond |x| = 1.34:
    # the first block of 16 points, x <= 0.15, runs on its own, and a
    # later one stops the command
    monkeypatch.setattr(cli, "_PROFILE_BLOCK", 16)
    sets = ["target.family=gauss", "target.scale=1e-154", "profile.lo=0"]
    argv = ["profile", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]]
    assert run_cli(*argv, "--set", "profile.hi=0.15", "--format", "json") == 0
    (tmp_path / "profile.json").unlink()
    assert run_cli(*argv, "--set", "profile.hi=5") == 1
    assert capsys.readouterr().err.startswith("config error: target density is not positive")
    assert list(tmp_path.iterdir()) == []


def test_profile_memory_is_8_bytes_a_point(tmp_path, peak_mb):
    # 10^5 points: r in one array and the rest block by block, about 3 MB;
    # one rejection_grid call on every point and a row list took 29 MB
    sets = ["profile.lo=0", "profile.hi=1", "profile.step=1e-5"]
    codes = []
    argv = ["profile", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]]
    assert peak_mb(lambda: codes.append(run_cli(*argv))) < 6.0
    assert codes == [0]
    assert json.loads((tmp_path / "profile.json").read_text())["result"]["points"] == 100001


def test_spectrum_command(tmp_path):
    code = run_cli(
        "spectrum",
        "--out",
        str(tmp_path),
        "--set",
        "spectrum.n=201",
        "--set",
        "spectrum.A=15",
    )
    assert code == 0
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    assert float(rows[1][1]) == pytest.approx(1.0, abs=5e-4)
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert "heuristic" in report["result"]["caveat"]


def test_spectrum_command_default_config(tmp_path):
    assert run_cli("spectrum", "--out", str(tmp_path), "--format", "json") == 0
    eigs = json.loads((tmp_path / "spectrum.json").read_text())["result"]["eigenvalues"]
    assert len(eigs) == 801
    assert eigs == sorted(eigs, reverse=True)
    assert sum(abs(e - 1.0) <= 5e-4 for e in eigs) == 1


def test_spectrum_on_a_domain_where_the_gauss_masses_underflow(tmp_path):
    # pi(x) w at |x| = 40 is below the smallest double; S takes log pi
    # differences only
    code = run_cli(
        "spectrum", "--set", "target.family=gauss", "--set", "spectrum.A=40", "--set", "spectrum.n=401",
        "--out", str(tmp_path), "--format", "json",
    )
    assert code == 0
    eigs = json.loads((tmp_path / "spectrum.json").read_text())["result"]["eigenvalues"]
    assert sum(abs(e - 1.0) <= 5e-4 for e in eigs) == 1


def test_sample_command_with_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    code = run_cli(
        "sample",
        "--out",
        str(tmp_path),
        "--set",
        "sample.steps=2000",
        "--set",
        "sample.burn_in=100",
        "--trace",
        str(trace),
    )
    assert code == 0
    report = json.loads((tmp_path / "sample.json").read_text())
    assert 0.0 <= report["result"]["acceptance_rate"] <= 1.0
    with open(trace, newline="") as fh:
        header = fh.readline().strip()
    assert header == "step,x,accepted"


def test_sample_config_error(tmp_path, capsys):
    assert run_cli("sample", "--out", str(tmp_path), "--set", "sample.steps=0") == 1
    # numpy's SeedSequence rejects a negative seed; the config check does first
    assert run_cli("sample", "--out", str(tmp_path), "--set", "sample.seed=-1") == 1
    assert capsys.readouterr().err.endswith("config error: seed must be non-negative, got -1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["proposal.s", "bound.x_max", "target.scale"])
def test_integers_too_large_for_a_float_exit_1(tmp_path, capsys, key):
    # json.loads reads 1 followed by 400 zeros as an int, which float() rejects
    assert run_cli("bound", "--out", str(tmp_path), "--set", f"{key}=1{'0' * 400}") == 1
    assert capsys.readouterr().err == f"config error: config key {key} holds an integer too large for a float\n"
    with pytest.raises(ConfigError, match="a_list holds an integer too large"):
        validate_config({"bound": {"a_list": [1, 10**400]}})
    validate_config({"spectrum": {"n": 10**400}})  # an int key; the size limit rejects it


@pytest.mark.parametrize(
    "command, sets",
    [
        (command, ["target.family=gauss", "target.scale=1e-300"]) for command in ("bound", "asymptotic", "profile")
    ]
    + [(command, ["target.family=gauss", "proposal.s=1e300"]) for command in ("bound", "profile")],
)
def test_log_pi_of_minus_inf_exits_1(tmp_path, capsys, command, sets):
    # gauss's log pi overflows to -inf away from 0; a difference of two -infs
    # would be NaN, which reached reports or stopped the best-window search
    code = run_cli(command, "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: target density is not positive at x=")
    assert list(tmp_path.iterdir()) == []


def test_overflow_in_log_pi_prints_only_the_config_error(tmp_path):
    # numpy's "overflow encountered in multiply" from the generated code
    # reached stderr, under an anonymous source line, before this line
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["asymptotic", "--out", str(tmp_path), "--set", "target.family=gauss", "--set", "target.scale=1e-300"]
    done = subprocess.run([sys.executable, "-m", "mhbound.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == "config error: target density is not positive at x=-50.0\n"
    assert done.stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sets, message",
    [
        pytest.param(
            ["proposal.s=1e-300"],
            "the proposal shape's square q(u)^2 is inf at proposal.s=1e-300: "
            "this config's scales are beyond what floats resolve",
            id="q squared overflows",
        ),
        pytest.param(
            ["spectrum.A=1.7976931348623157e+308"],
            "spectrum.A=1.7976931348623157e+308 is too large: the width 2A of the domain [-A, A] overflows",
            id="2A overflows",
        ),
    ],
)
def test_spectrum_overflow_prints_only_the_config_error(tmp_path, sets, message):
    # numpy's "invalid value encountered in subtract" (q(u)^2 = inf in the
    # Hilbert-Schmidt integrand) or "in multiply" (linspace over a width of
    # inf) reached stderr before an exit-1 line that named neither key
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["spectrum", "--out", str(tmp_path), *(arg for item in ["spectrum.n=101", *sets] for arg in ("--set", item))]
    done = subprocess.run([sys.executable, "-m", "mhbound.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == f"config error: {message}\n"
    assert done.stdout == "" and list(tmp_path.iterdir()) == []


def test_spectrum_with_a_declared_sup_whose_square_overflows_runs(tmp_path):
    # the declared sup only bounds q from above: q(u)^2 <= 1 here
    sets = [
        "spectrum.n=51", "spectrum.A=12", "proposal.family=expr", "proposal.expr=max(0,1-abs(u))", "proposal.sup_shape=1e200"
    ]
    assert run_cli("spectrum", "--out", str(tmp_path), *(arg for item in sets for arg in ("--set", item))) == 0


@pytest.mark.parametrize(
    "family, message",
    [
        ("laplace", "no increment moves the chain from x0=1e+300: x0 - s and x0 + s round to x0"),
        pytest.param("gauss", "target density is not positive at x=1e+300", id="gauss-x0=1e+300 is outside the support"),
    ],
)
def test_sample_from_an_x0_the_chain_cannot_leave_exits_1(tmp_path, capsys, family, message):
    # the chain stayed at x0 and exited 0 with an infinite variance and NaN
    # autocorrelations: every step was accepted (laplace) or rejected (gauss)
    code = run_cli("sample", "--out", str(tmp_path), "--set", f"target.family={family}", "--set", "sample.x0=1e300")
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sup, area", [(1e300, "2e+300"), (5e5, "1e+06"), (499999.0, "1e+06"), (1e4, "2e+04")])
def test_sample_whose_rejection_box_reaches_the_cap_exits_1(tmp_path, capsys, sup, area):
    # a box of area 2 s sup needs that many draws per increment on average:
    # 2e300 ran into the iteration cap and exited 3, and so did 999,998,
    # where each increment reached the cap with chance about e^-1
    sets = ["proposal.family=expr", "proposal.expr=max(0,1-abs(u))", f"proposal.sup_shape={sup!r}"]
    sets += ["sample.steps=10", "sample.burn_in=1"]
    code = run_cli("sample", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: proposal.sup_shape={sup!r} is too large: the rejection box's area 2 s sup_shape "
        f"is {area}, at least the limit of 20000, a fiftieth of the cap on draws per increment\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_sample_whose_rejection_box_is_just_under_the_limit_runs(tmp_path):
    # area 19,998: about 2e4 pairs per increment, and the cap of 10^6 is
    # out of reach
    sets = ["proposal.family=expr", "proposal.expr=max(0,1-abs(u))", "proposal.sup_shape=9999"]
    sets += ["sample.steps=10", "sample.burn_in=1"]
    assert run_cli("sample", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]) == 0
    assert json.loads((tmp_path / "sample.json").read_text())["result"]["config"]["steps"] == 10


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_sample_whose_moments_overflow_exits_1(tmp_path, capsys):
    # states near 1e300 that move: their variance is not a float
    sets = ["sample.x0=1e300", "target.scale=1e300", "proposal.s=1e300", "sample.steps=2000", "sample.burn_in=100"]
    code = run_cli("sample", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: the states spread too far for floats: a mean, variance or autocorrelation overflows\n"
    )


def test_integer_of_more_digits_than_python_converts_exits_1(tmp_path, capsys):
    # json.loads refuses an int literal of more than 4,300 digits; the text
    # is then taken as a string, which the type check rejects
    assert run_cli("sample", "--out", str(tmp_path), "--set", f"sample.steps=1{'0' * 5000}") == 1
    assert capsys.readouterr().err == "config error: config key sample.steps must be int\n"


def _outputs(runs, out, fresh):
    """Exit codes and output files of the ``runs`` of cli.main, in order,
    with a new parser per run when ``fresh``; the JSON without its
    duration."""
    codes, files = [], {}
    for i, argv in enumerate(runs):
        if fresh:
            cli._build_parser.cache_clear()
        codes.append(run_cli(*argv, "--out", str(out / str(i))))
        for path in sorted((out / str(i)).glob("*")):
            text = path.read_text()
            if path.suffix == ".json":
                doc = json.loads(text)
                del doc["duration_seconds"]
                text = json.dumps(doc)
            files[f"{i}/{path.name}"] = text
    return codes, files


def test_cached_parser_gives_what_fresh_parsers_give(tmp_path):
    runs = [
        ("profile", "--set", "profile.step=0.1"),
        ("sample", "--set", "sample.steps=2000", "--set", "sample.burn_in=100", "--format", "csv"),
        ("spectrum", "--format", "xml"),
        ("asymptotic", "--format", "json"),
        ("bound", "--frobnicate"),
        ("profile", "--set", "profile.step=0.2", "--set", "target.family=gauss"),
    ]
    cached = _outputs(runs, tmp_path / "cached", fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert cached == _outputs(runs, tmp_path / "fresh", fresh=True)
    assert cached[0] == [0, 0, 1, 0, 1, 0] and len(cached[1]) == 6


def test_bad_model_config_exits_1(tmp_path, capsys):
    code = run_cli(
        "bound",
        "--out",
        str(tmp_path),
        "--set",
        "proposal.family=expr",
        "--set",
        "proposal.expr=0.25",
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, sets",
    [
        ("bound", ["bound.x_max=10"]),
        ("bound", ["bound.a_list=[]"]),
        ("bound", ["bound.a_list=[2,1]"]),
        ("bound", ["bound.a_list=[0]"]),
        ("bound", ["bound.a_list=[-1,2]"]),
        ("bound", ['bound.a_list=["x"]']),
        ("spectrum", ["spectrum.A=10", "spectrum.a=12"]),
        ("spectrum", ["spectrum.A=0.5"]),
        ("spectrum", ["spectrum.a=0"]),
        ("spectrum", ["spectrum.n=4"]),
        ("spectrum", ["spectrum.n=1"]),
        # every Gauss-Legendre node of the mass on [-A, A] falls where pi
        # underflows
        ("spectrum", ["target.family=gauss", "spectrum.A=1e6", "spectrum.n=101"]),
        # (hi - lo) / step overflows to inf
        ("profile", ["profile.lo=-1e308", "profile.hi=1e308"]),
        # the node spacing is 4e299, and the product of two weights overflows
        ("spectrum", ["target.scale=1e300", "proposal.s=1e300", "spectrum.n=101"]),
    ],
)
def test_bad_window_or_grid_settings_exit_1(tmp_path, capsys, command, sets):
    # settings of the right type that the library's argument checks reject
    code = run_cli(command, "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and "internal error" not in err


@pytest.mark.parametrize(
    "command, sets",
    [
        ("sample", ["proposal.s=Infinity", "sample.steps=2000"]),
        ("sample", ["sample.x0=NaN"]),
        ("sample", ["target.scale=NaN"]),
        ("bound", ["bound.x_max=NaN"]),
        ("bound", ["bound.a_list=[1, -Infinity]"]),
    ],
)
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, sets):
    # json.loads reads NaN and Infinity; the config check rejects them
    code = run_cli(command, "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)])
    assert code == 1
    key = sets[0].partition("=")[0]
    assert capsys.readouterr().err.startswith(f"config error: config key {key} must be finite, got ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, sets, message",
    [
        ("sample", ["sample.chains=1000000000000"], "sample.chains x sample.steps is 1e+17"),
        ("profile", ["profile.lo=-1e300", "profile.hi=1e300"], "profile points is 2e+302"),
        ("profile", ["profile.step=1e-300"], "profile points is 1e+301"),
        ("spectrum", ["spectrum.n=100001"], "spectrum.n x spectrum.n is 1e+10"),
        # an int beyond the float range
        ("spectrum", [f"spectrum.n=1{'0' * 400}"], "spectrum.n x spectrum.n is about 1e+800"),
        # the Hilbert-Schmidt rule's x-nodes, 16 max(4, ceil(16a)), which the
        # rule allocated before the limit covered it
        (
            "spectrum",
            ["target.family=gauss", "target.scale=1.7e16", "spectrum.a=1.7e16", "proposal.s=0.5"],
            "the Hilbert-Schmidt rule's node count on [-spectrum.a, spectrum.a] is 4.35e+18",
        ),
        (
            "spectrum",
            ["target.scale=1.87e16", "proposal.s=1.87e16"],
            "the Hilbert-Schmidt rule's node count on [-spectrum.a, spectrum.a] is 2.39e+19",
        ),
    ],
)
def test_sizes_above_the_limit_exit_1(tmp_path, capsys, peak_mb, command, sets, message):
    # the size is checked before the states or the grid are allocated
    codes = []
    argv = [command, "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]]
    assert peak_mb(lambda: codes.append(run_cli(*argv))) < 5.0
    assert codes == [1]
    assert capsys.readouterr().err == f"config error: {message}, above the limit of 1e+08\n"


@pytest.mark.parametrize("command", ["bound", "asymptotic", "spectrum"])
def test_proposal_range_whose_defaults_overflow_exits_1(tmp_path, capsys, command):
    # each default that is a multiple of s is inf; the commands named other
    # causes: a_list not increasing, a tail rejection above 1/2, A = inf
    code = run_cli(command, "--out", str(tmp_path), "--set", "proposal.s=1.7976931348623155e+308")
    assert code == 1
    assert capsys.readouterr().err.endswith(
        "config error: proposal.s=1.7976931348623155e+308 is too large: the defaults bound.a_list, bound.x_max, "
        "spectrum.a, spectrum.A, profile.lo, profile.hi, multiples of it, overflow\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_spectrum_whose_matrix_is_not_finite_exits_1(tmp_path, capsys):
    # a subnormal s: q(0) = 1/s overflows, so S held inf on its diagonal
    # and eigvalsh stopped with "Eigenvalues did not converge", exit 3; the
    # proposal's sup is inf, and the proposal is refused when it is built
    sets = ["spectrum.n=101", "target.family=gauss", "proposal.s=2.2250738585e-313", "spectrum.A=0.5"]
    assert run_cli("spectrum", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]) == 1
    assert capsys.readouterr().err.endswith(
        "config error: the proposal shape's sup is inf at proposal.s=2.2250738585e-313: "
        "this config's scales are beyond what floats resolve\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_spectrum_matrix_with_an_inf_exits_1(tmp_path, capsys, monkeypatch):
    # no config of a finite sup is known to overflow S; one made here exits
    # 1 naming the entry, where eigvalsh would stop with exit 3
    real = spectra.symmetrize

    def infinite_entry(*args):
        s_mat = real(*args)
        s_mat[2, 3] = math.inf
        return s_mat

    monkeypatch.setattr(spectra, "symmetrize", infinite_entry)
    assert run_cli("spectrum", "--out", str(tmp_path), "--set", "spectrum.n=101") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the discretized operator S is inf at x=")
    assert err.endswith("q(y - x) or pi(y)/pi(x) overflows at this config's scales\n")
    assert list(tmp_path.iterdir()) == []


def test_shape_tree_sees_only_u_in_its_range(tmp_path):
    # normalized on [-1, 1], and sqrt raises a DomainError for |u| > 2:
    # shape clamps u to [-s, s] before the tree runs, and spectrum's
    # log_shape over the (n, n + 2m) grid of differences goes far beyond 2
    expr = "max(0,1-abs(u))*sqrt(2-abs(u))*15/(8+8*sqrt(2))"
    p = ProposalModel("expr", 1.0, expr)
    assert p.shape(np.array([3.0, -3.0, 1e6, -1e6])).tolist() == [0.0] * 4
    sets = ["spectrum.n=101", "proposal.family=expr", f"proposal.expr={expr}", "proposal.s=1"]
    assert run_cli("spectrum", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]) == 0


def test_profile_that_is_not_finite_exits_1(tmp_path, capsys):
    # a subnormal s: q = (1 - |u|/s)/s is inf, so r(x) = 1 - inf; the
    # report held -inf and NaN with exit 2.  The proposal's sup is inf, and
    # the proposal is refused when it is built
    sets = ["target.family=gauss", "proposal.s=2.225073858507203e-309"]
    assert run_cli("profile", "--out", str(tmp_path), *[arg for item in sets for arg in ("--set", item)]) == 1
    assert capsys.readouterr().err.endswith(
        "config error: the proposal shape's sup is inf at proposal.s=2.225073858507203e-309: "
        "this config's scales are beyond what floats resolve\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_profile_r_that_is_not_finite_exits_1(tmp_path, capsys, monkeypatch):
    # the profile above, made here: r(x) of -inf exits 1 and writes nothing
    real = MhKernel.rejection_grid

    def infinite_r(self, xs):
        r, error = real(self, xs)
        r[0] = -math.inf
        return r, error

    monkeypatch.setattr(MhKernel, "rejection_grid", infinite_r)
    assert run_cli("profile", "--out", str(tmp_path), "--set", "profile.step=0.5") == 1
    assert capsys.readouterr().err == "config error: r_x is -inf: this config's scales are beyond what floats resolve\n"
    assert list(tmp_path.iterdir()) == []


def test_bound_report_that_is_not_finite_exits_1(tmp_path, capsys, monkeypatch):
    # the subnormal s above gives bound r_a = -inf as well, with exit 2, but
    # its r(x) scan takes about 17 s; the same report, made here, exits 1
    real = bounds.bound_profile

    def infinite_r_a(*args):
        profile = real(*args)
        profile.reports[0] = dataclasses.replace(profile.reports[0], r_a=-math.inf)
        return profile

    monkeypatch.setattr(bounds, "bound_profile", infinite_r_a)
    assert run_cli("bound", "--out", str(tmp_path), "--set", "bound.a_list=[16.0]") == 1
    assert capsys.readouterr().err == "config error: r_a is -inf: this config's scales are beyond what floats resolve\n"
    assert list(tmp_path.iterdir()) == []


def test_unusable_trace_path_exits_1(tmp_path, capsys):
    trace = tmp_path / "missing" / "t.csv"
    assert run_cli("sample", "--out", str(tmp_path), "--trace", str(trace), "--set", "sample.steps=2000") == 1
    assert capsys.readouterr().err == f"config error: cannot open the trace file {trace}: {os.strerror(errno.ENOENT)}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_allocation_beside_a_trace_stays_an_internal_error(tmp_path, capsys, monkeypatch):
    # an OSError that is not the trace's own open is not a usage error
    def no_memory(*args):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(sampler.mmap, "mmap", no_memory)
    trace = tmp_path / "t.csv"
    assert run_cli("sample", "--out", str(tmp_path), "--trace", str(trace), "--set", "sample.steps=2000") == 3
    assert capsys.readouterr().err == f"internal error: OSError: [Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}\n"


def test_unusable_out_directory_exits_1(tmp_path, capsys):
    # a directory below a regular file cannot be made
    (tmp_path / "file").touch()
    out = tmp_path / "file" / "x"
    assert run_cli("profile", "--out", str(out)) == 1
    reason = os.strerror(errno.ENOTDIR)
    assert capsys.readouterr().err == f"config error: cannot write the output directory {out}: {reason}\n"


def test_size_limit_admits_its_own_value(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 1000)
    burn_in = ("--set", "sample.burn_in=100")
    assert run_cli("sample", "--out", str(tmp_path), "--set", "sample.chains=2", "--set", "sample.steps=500", *burn_in) == 0
    assert run_cli("sample", "--out", str(tmp_path), "--set", "sample.chains=2", "--set", "sample.steps=501", *burn_in) == 1
    assert run_cli("profile", "--out", str(tmp_path), "--set", "profile.step=0.01", "--set", "profile.hi=4.99") == 0
    assert run_cli("profile", "--out", str(tmp_path), "--set", "profile.step=0.01") == 1
    monkeypatch.setattr(cli, "MAX_POINTS", 31 * 31)
    # a = 2: the Hilbert-Schmidt rule's 512 nodes stay below this limit
    small_a = ("--set", "spectrum.a=2")
    assert run_cli("spectrum", "--out", str(tmp_path), "--set", "spectrum.n=31", *small_a) == 0
    assert run_cli("spectrum", "--out", str(tmp_path), "--set", "spectrum.n=33", *small_a) == 1
    # 16 max(4, ceil(16a)) nodes: 1024 at a = 4, 1040 at a = 4.01
    monkeypatch.setattr(cli, "MAX_POINTS", 16 * 64)
    assert run_cli("spectrum", "--out", str(tmp_path), "--set", "spectrum.n=31", "--set", "spectrum.a=4") == 0
    assert run_cli("spectrum", "--out", str(tmp_path), "--set", "spectrum.n=31", "--set", "spectrum.a=4.01") == 1


# kinks at u = 0 and u = +-0.5
KINKED = (
    "--set",
    "proposal.family=expr",
    "--set",
    "proposal.expr=0.5*max(0, min(1, 1.5-abs(u)))",
    "--set",
    "proposal.s=1.5",
)


def test_kinked_shape_certifies(tmp_path):
    assert run_cli("bound", "--out", str(tmp_path), "--format", "json", *KINKED) == 0
    best = json.loads((tmp_path / "bound.json").read_text())["result"]["best"]
    assert best["certified"] and best["beta_error"] <= 1e-15


def test_two_roots_in_one_coarse_cell_do_not_certify(tmp_path):
    # d(x, .) has two roots in one coarse cell of integrate_u near x = 0.5
    # (see test_kernel.py): r_quad_error exceeds 1e-8, so the window is
    # neither converged nor certified, and its verdict says why
    code = run_cli(
        "bound", "--out", str(tmp_path), "--format", "json", "--set", "bound.a_list=[1.0]",
        "--set", "target.family=expr", "--set", "target.expr=exp(-abs(x) + 0.3*exp(-((x-0.7)/0.005)^2))",
    )
    assert code == 2
    report = json.loads((tmp_path / "bound.json").read_text())["result"]["best"]
    assert report["r_quad_error"] > 1e-8 and report["beta_error"] <= 1e-8
    assert not report["converged"] and not report["certified"]
    assert report["verdict"].endswith(f"r(x) quadrature error {report['r_quad_error']:.2g} above 1e-08")


def test_commands_integrate_without_adaptive_simpson(tmp_path, monkeypatch):
    # adaptive Simpson is only the tests' reference: with it raising in
    # every module, every model builds and every certificate command runs
    def forbidden(*args, **kwargs):
        raise AssertionError("adaptive_simpson must not be called")

    original = quad.adaptive_simpson
    for module in [m for n, m in sys.modules.items() if n.startswith("mhbound")]:
        for alias, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, alias, forbidden)
    for family in ("triangular", "uniform", "epanechnikov"):
        ProposalModel(family, 1.5)
    ProposalModel("expr", 1.5, "0.5*max(0, min(1, 1.5-abs(u)))")
    runs = [
        ("bound", "--set", "bound.a_list=[2, 4]"),
        ("asymptotic",),
        ("profile",),
        ("spectrum", "--set", "spectrum.n=101"),
        ("asymptotic", *KINKED),
        ("spectrum", "--set", "spectrum.n=101", "--set", "target.family=expr", "--set", "target.expr=exp(-abs(x-1))"),
    ]
    codes = [run_cli(*argv, "--out", str(tmp_path), "--format", "json") for argv in runs]
    assert codes == [0] * len(runs)


# normalized but asymmetric: shape(u) != shape(-u)
ASYMMETRIC = (
    "--set",
    "target.family=gauss",
    "--set",
    "proposal.family=expr",
    "--set",
    "proposal.expr=max(0,1-abs(u))*(1-u)",
)


@pytest.mark.parametrize("command", ["bound", "asymptotic", "profile", "spectrum"])
def test_asymmetric_proposal_rejected_by_certificate_commands(tmp_path, capsys, command):
    assert run_cli(command, "--out", str(tmp_path), *ASYMMETRIC) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "symmetric proposal" in err
    assert list(tmp_path.iterdir()) == []


def test_sample_accepts_asymmetric_proposal(tmp_path):
    code = run_cli(
        "sample", "--out", str(tmp_path), *ASYMMETRIC, "--set", "sample.steps=2000", "--set", "sample.burn_in=100"
    )
    assert code == 0
    result = json.loads((tmp_path / "sample.json").read_text())["result"]
    assert 0.0 < result["acceptance_rate"] < 1.0


@pytest.mark.parametrize("command", ["bound", "profile"])
def test_out_of_domain_target_exits_1(tmp_path, capsys, command):
    # log(x) is undefined on the negative half of every window
    code = run_cli(command, "--out", str(tmp_path), "--set", "target.family=expr", "--set", "target.expr=log(x)")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "log(-" in err
    assert "internal error" not in err
    assert list(tmp_path.iterdir()) == []


def test_target_that_vanishes_exits_1(tmp_path, capsys):
    # the density is zero for |x| >= 3, which the default chain reaches
    code = run_cli(
        "sample", "--out", str(tmp_path), "--set", "target.family=expr", "--set", "target.expr=max(0,1-abs(x)/3)"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: target density is not positive at x=")
    assert abs(float(err.strip().rpartition("=")[2])) >= 3.0
    assert "internal error" not in err
    assert list(tmp_path.iterdir()) == []


def test_report_schemas(tmp_path):
    # each command's JSON result, key for key in order: a schema change
    # has to edit this test
    def result(command, *sets):
        argv = [arg for item in sets for arg in ("--set", item)]
        assert run_cli(command, "--out", str(tmp_path), "--format", "json", *argv) == 0
        return json.loads((tmp_path / f"{command}.json").read_text())["result"]

    bound = result("bound", "bound.a_list=[1, 2]")
    assert list(bound) == ["reports", "best_index", "best"]
    bound_keys = [
        "a", "r_a", "r_prime_a", "beta_a", "alpha_a", "x_max", "converged",
        "tail_resolved", "beta_error", "r_quad_error", "certified", "verdict",
    ]
    assert [list(r) for r in bound["reports"]] == [bound_keys, bound_keys]
    assert list(bound["best"]) == bound_keys

    asym = result("asymptotic")
    assert list(asym) == [
        "tau_table", "tau_mode", "r_inf", "r_prime_inf", "beta_inf", "gamma_inf", "alpha_inf",
        "degenerate", "identity_gap", "r_quad_error", "certified", "verdict",
    ]
    assert {tuple(row) for row in asym["tau_table"]} == {("u", "tau_plus", "tau_minus")}

    assert list(result("profile")) == ["points", "argmax", "max", "r_quad_error", "converged"]

    spectrum = result("spectrum", "spectrum.n=51", "spectrum.A=12")
    assert list(spectrum) == [
        "half_width", "n", "a", "eigenvalues", "top_eigenvalue", "second_modulus", "norm_t_ac",
        "beta_a", "hs_norm_t_a", "grid_defect", "quad_defect", "row_sum_defect",
        "unit_eigenvalue_count", "caveat",
    ]

    sample = result("sample", "sample.steps=300", "sample.burn_in=10", "sample.chains=2")
    assert list(sample) == ["config", "chains", "acceptance_rate", "mean", "variance", "ks_distance"]
    assert list(sample["config"]) == ["steps", "burn_in", "x0", "seed", "chains"]
    chain_keys = [
        "chain", "seed", "steps", "burn_in", "accepted", "acceptance_rate", "mean", "variance",
        "ks_distance", "autocorrelations",
    ]
    assert [list(c) for c in sample["chains"]] == [chain_keys, chain_keys]


#: each command's CSV header
CSV_HEADERS = {
    "bound": ["a", "r_a", "r_prime_a", "beta_a", "alpha_a", "converged"],
    "asymptotic": ["u", "tau_plus", "tau_minus"],
    "profile": ["x", "r_x"],
    "spectrum": ["index", "eigenvalue"],
    "sample": ["chain", "seed", "accepted", "acceptance_rate", "mean", "variance"],
}
#: each command's verdict, read from its JSON result: exit 0 where it holds, 2 where not
VERDICTS = {
    "bound": lambda r: all(w["converged"] for w in r["reports"]) and any(w["certified"] for w in r["reports"]),
    "asymptotic": lambda r: r["certified"],
    "profile": lambda r: r["converged"],
    "spectrum": lambda r: True,
    "sample": lambda r: True,
}
TWO_ROOTS = "target.expr=exp(-abs(x) + 0.3*exp(-((x-0.7)/0.005)^2))"


@pytest.mark.parametrize(
    "command, sets, code",
    [
        ("bound", ["bound.a_list=[2, 4]"], 0),
        ("bound", ["bound.a_list=[1.0]", "target.family=expr", "target.expr=exp(-abs(x)-x/2)"], 2),
        ("asymptotic", ["target.family=gauss"], 0),
        ("asymptotic", ["target.family=expr", "target.expr=1/(1+x^2)"], 2),
        ("profile", ["profile.step=0.05"], 0),
        ("profile", ["target.family=expr", TWO_ROOTS, "profile.lo=0.4", "profile.hi=0.6"], 2),
        ("spectrum", ["spectrum.n=51", "spectrum.A=12"], 0),
        ("sample", ["sample.steps=300", "sample.burn_in=10", "sample.chains=2"], 0),
    ],
)
def test_every_command_writes_one_frame(tmp_path, command, sets, code):
    # main frames every command: the report envelope, key for key in order,
    # the command's own CSV header, and the exit code of its verdict
    assert run_cli(command, "--out", str(tmp_path), *(arg for item in sets for arg in ("--set", item))) == code
    report = json.loads((tmp_path / f"{command}.json").read_text())
    assert list(report) == ["command", "version", "duration_seconds", "config", "result"]
    assert report["command"] == command and report["version"] == __version__
    assert report["duration_seconds"] >= 0.0
    assert report["config"] == resolve_config(apply_overrides({}, sets))
    with open(tmp_path / f"{command}.csv", newline="") as fh:
        assert next(csv.reader(fh)) == CSV_HEADERS[command]
    assert code == (0 if VERDICTS[command](report["result"]) else 2)
