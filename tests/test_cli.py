import csv
import json
import logging
import math
import sys

import pytest

from mhbound import __version__, quad
from mhbound.cli import (
    ConfigError,
    apply_overrides,
    load_config,
    main,
    resolve_config,
    validate_config,
)
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
    assert rows[0] == ["u", "tau"]


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


def test_sample_config_error(tmp_path):
    assert run_cli("sample", "--out", str(tmp_path), "--set", "sample.steps=0") == 1


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
    # neither converged nor certified
    code = run_cli(
        "bound", "--out", str(tmp_path), "--format", "json", "--set", "bound.a_list=[1.0]",
        "--set", "target.family=expr", "--set", "target.expr=exp(-abs(x) + 0.3*exp(-((x-0.7)/0.005)^2))",
    )
    assert code == 2
    report = json.loads((tmp_path / "bound.json").read_text())["result"]["best"]
    assert report["r_quad_error"] > 1e-8 and report["beta_error"] <= 1e-8
    assert not report["converged"] and not report["certified"]


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
    ProposalModel.from_expression("0.5*max(0, min(1, 1.5-abs(u)))", 1.5)
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
        "degenerate", "even_verified", "identity_gap", "r_quad_error", "certified", "verdict",
    ]
    assert {tuple(row) for row in asym["tau_table"]} == {("u", "tau")}

    assert list(result("profile")) == ["points", "argmax", "max"]

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
