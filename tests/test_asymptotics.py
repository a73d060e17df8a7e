import logging
import math

import numpy as np
import pytest

from mhbound import asymptotics
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ModelError, ProposalModel, TailRatio

GAMMA_LAPLACE = 8.0 * math.exp(-0.5) - math.exp(-1.0) - 3.5
BETA_LAPLACE = 8.0 * math.exp(-0.5) - 4.0
RP_LAPLACE = 0.5 - 1.0 / math.e


def test_tau_numeric_laplace():
    value, converged = asymptotics.tau_numeric(DensityModel.laplace(), 0.5)
    assert converged
    assert value == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_tau_numeric_gauss():
    value, converged = asymptotics.tau_numeric(DensityModel.gauss(), 0.5)
    assert converged
    assert value == pytest.approx(0.0, abs=1e-6)


def test_tau_numeric_at_zero():
    assert asymptotics.tau_numeric(DensityModel.gauss(), 0.0) == (1.0, True)


def test_tau_numeric_validation():
    with pytest.raises(ValueError):
        asymptotics.tau_numeric(DensityModel.gauss(), -0.1)
    with pytest.raises(ValueError):
        asymptotics.tau_numeric(DensityModel.gauss(), 0.5, growth=1.0)


@pytest.mark.parametrize("family", ["laplace", "gauss"])
def test_tau_numeric_agrees_with_closed_form(family):
    target = DensityModel(family)
    closed = target.tail_ratio(1.0)
    for u in np.linspace(0.0, 1.0, 33):
        value, converged = asymptotics.tau_numeric(target, float(u))
        assert converged
        assert value == pytest.approx(closed(float(u)), abs=1e-5)


def test_tail_ratio_for_numeric_fallback():
    # expression target with a Laplace-type tail
    target = DensityModel.from_expression("exp(-abs(x))/2")
    tau = asymptotics.tail_ratio_for(target, 1.0)
    assert tau.mode == "numeric-limit"
    assert tau(0.5) == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_closed_forms_laplace():
    p = ProposalModel.triangular()
    tau = DensityModel.laplace().tail_ratio(1.0)
    assert asymptotics.gamma_inf(p, tau) == pytest.approx(GAMMA_LAPLACE, abs=1e-10)
    assert asymptotics.r_prime_inf(p, tau) == pytest.approx(RP_LAPLACE, abs=1e-10)
    assert asymptotics.beta_inf(p, tau) == pytest.approx(BETA_LAPLACE, abs=1e-10)


def test_closed_forms_gauss():
    p = ProposalModel.triangular()
    tau = DensityModel.gauss().tail_ratio(1.0)
    assert asymptotics.gamma_inf(p, tau) == pytest.approx(0.5, abs=1e-9)
    assert asymptotics.r_prime_inf(p, tau) == pytest.approx(0.5, abs=1e-9)
    assert asymptotics.beta_inf(p, tau) == pytest.approx(0.0, abs=1e-9)


def _warnings(caplog, text):
    return [r for r in caplog.records if r.levelno == logging.WARNING and text in r.getMessage()]


def test_degenerate_tau(caplog):
    p = ProposalModel.triangular()
    flat = TailRatio("closed-form", 1.0, lambda u: 1.0)
    with caplog.at_level(logging.WARNING, logger="mhbound.asymptotics"):
        g = asymptotics.gamma_inf(p, flat)
    assert _warnings(caplog, "degenerate")
    assert g == pytest.approx(1.0, abs=1e-12)
    assert asymptotics.r_prime_inf(p, flat) == pytest.approx(0.0, abs=1e-12)
    assert asymptotics.beta_inf(p, flat) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_tau_logs_every_call(caplog):
    # a diagnostic is logged each time it applies, not once per process
    p = ProposalModel.triangular()
    flat = TailRatio("closed-form", 1.0, lambda u: 1.0)
    with caplog.at_level(logging.WARNING, logger="mhbound.asymptotics"):
        asymptotics.gamma_inf(p, flat)
        asymptotics.gamma_inf(p, flat)
    assert len(_warnings(caplog, "degenerate")) == 2


def test_identity_builtins():
    p = ProposalModel.triangular()
    for target in (DensityModel.laplace(), DensityModel.gauss()):
        tau = target.tail_ratio(1.0)
        gap = abs(
            asymptotics.r_prime_inf(p, tau)
            + asymptotics.beta_inf(p, tau)
            - asymptotics.gamma_inf(p, tau)
        )
        assert gap <= 2e-9


def test_identity_synthetic_tau():
    # piecewise-linear random tau on [0, s]
    rng = np.random.default_rng(42)
    p = ProposalModel.triangular()
    for _ in range(50):
        knots = np.linspace(0.0, 1.0, 9)
        vals = rng.uniform(0.0, 1.0, knots.size)
        tau = TailRatio(
            "closed-form", 1.0, lambda u, k=knots, v=vals: float(np.interp(u, k, v))
        )
        bps = tuple(knots[1:-1])
        gap = abs(
            asymptotics.r_prime_inf(p, tau, bps)
            + asymptotics.beta_inf(p, tau, bps)
            - asymptotics.gamma_inf(p, tau, bps)
        )
        assert gap <= 2e-9


def test_identity_synthetic_tau_to_rounding():
    # the three integrals share one node set, so the identity holds at
    # every node and the gap is rounding only, with the kinks of tau
    # declared or not
    rng = np.random.default_rng(43)
    knots = np.linspace(0.0, 1.0, 9)
    for p in (ProposalModel.triangular(), ProposalModel.epanechnikov()):
        for _ in range(25):
            vals = rng.uniform(0.0, 1.0, knots.size)
            tau = TailRatio("closed-form", 1.0, lambda u, v=vals: float(np.interp(u, knots, v)))
            for bps in ((), tuple(knots[1:-1])):
                gap = (
                    asymptotics.r_prime_inf(p, tau, bps)
                    + asymptotics.beta_inf(p, tau, bps)
                    - asymptotics.gamma_inf(p, tau, bps)
                )
                assert abs(gap) <= 1e-14


@pytest.mark.parametrize("family", ["triangular", "uniform", "epanechnikov"])
def test_gauss_limits_exact(family):
    # tau is 1 only at u = 0, which is no node of the rule
    p = ProposalModel(family, 1.0)
    tau = DensityModel.gauss().tail_ratio(1.0)
    assert abs(asymptotics.r_prime_inf(p, tau) - 0.5) <= 1e-15
    assert abs(asymptotics.beta_inf(p, tau)) <= 1e-15
    assert abs(asymptotics.gamma_inf(p, tau) - 0.5) <= 1e-15


def test_reflection_identity_closed_forms():
    tau = DensityModel.laplace().tail_ratio(1.0)
    for u in (0.1, 0.5, 0.9):
        assert tau.reflected(-u) * tau(u) == pytest.approx(1.0, rel=1e-12)


def test_alpha_inf_laplace(laplace_tri):
    rep = asymptotics.alpha_inf(laplace_tri)
    assert rep.gamma_inf == pytest.approx(GAMMA_LAPLACE, abs=1e-6)
    assert rep.alpha_inf == rep.gamma_inf
    assert rep.r_inf == pytest.approx(1.0 - 2.0 / math.e, abs=1e-6)
    assert rep.identity_gap <= 2e-9
    assert not rep.degenerate
    assert rep.even_verified
    assert rep.certified
    assert rep.tau_mode == "closed-form"


def test_alpha_inf_gauss(gauss_tri):
    rep = asymptotics.alpha_inf(gauss_tri)
    assert rep.gamma_inf == pytest.approx(0.5, abs=1e-9)
    assert rep.alpha_inf == pytest.approx(0.5, abs=1e-9)
    assert rep.certified


def test_alpha_inf_non_even_target():
    k = MhKernel(
        DensityModel.from_expression("exp(-abs(x) - x/2)"), ProposalModel.triangular()
    )
    rep = asymptotics.alpha_inf(k)
    assert not rep.even_verified
    assert "unverified" in rep.verdict


def test_gamma_bounded_by_one():
    rng = np.random.default_rng(8)
    p = ProposalModel.triangular()
    for _ in range(20):
        c = float(rng.uniform(0.0, 1.0))
        tau = TailRatio("closed-form", 1.0, lambda u, c=c: c)
        assert asymptotics.gamma_inf(p, tau) <= 1.0 + 1e-12


def test_r_prime_inf_rejects_asymmetric_shape():
    # int_0^1 of this normalized shape is 1/3, so r'_inf = 2/3 for Gauss; the
    # check is an exception, not an assert that python -O would drop
    proposal = ProposalModel.from_expression("max(0,1-abs(u))*(1-u)", 1.0)
    with pytest.raises(ModelError, match="exceeds 1/2"):
        asymptotics.r_prime_inf(proposal, DensityModel.gauss().tail_ratio(1.0))
