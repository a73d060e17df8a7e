import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhbound import asymptotics
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ModelError, ProposalModel

GAMMA_LAPLACE = 8.0 * math.exp(-0.5) - math.exp(-1.0) - 3.5
BETA_LAPLACE = 8.0 * math.exp(-0.5) - 4.0
RP_LAPLACE = 0.5 - 1.0 / math.e

SKEWED = "exp(-abs(x) - x/2)"
MIRROR = "exp(-abs(x) + x/2)"
#: gamma(-1/2) for the triangular shape: the left tail of SKEWED binds
ALPHA_SKEWED = 0.9955024194
#: slopes in [-50, 0] and -inf
SLOPES = st.one_of(st.floats(-50.0, 0.0), st.just(-math.inf))


def _estimated(family: str, monkeypatch, scale: float = 1.0) -> DensityModel:
    """A built-in target whose tail slopes come from the secant estimator."""
    target = DensityModel(family, scale)
    monkeypatch.setattr(target, "tail_slopes", lambda: None)
    return target


def test_tau_numeric_laplace(monkeypatch):
    # log pi is linear beyond 0: the first two secants agree to rounding
    slopes = asymptotics.tail_ratio_for(_estimated("laplace", monkeypatch, 2.0), ProposalModel("triangular"))
    assert slopes == pytest.approx((-0.5, -0.5), abs=1e-12)


def test_tau_numeric_gauss(monkeypatch):
    # the secants -x - 1/2 fall until e^{c u_min} underflows, near x = 5.7e5
    xs = []
    target = _estimated("gauss", monkeypatch)
    log_pdf = target.log_pdf
    monkeypatch.setattr(target, "log_pdf", lambda x: xs.append(x) or log_pdf(x))
    assert asymptotics.tail_ratio_for(target, ProposalModel("triangular")) == (-math.inf, -math.inf)
    assert 5e5 < max(xs) < 6e5 and min(xs) == -max(xs)


def test_secant_estimate_on_gauss_gives_one_half(monkeypatch):
    # a limit per node of u that stops once three successive ratios agree
    # within 1e-6 reads tau(u) ~ 1 for u <= 1e-8 here, and alpha_inf =
    # 0.5000000307
    rep = asymptotics.alpha_inf(MhKernel(_estimated("gauss", monkeypatch), ProposalModel("triangular")))
    assert rep.tau_mode == "numeric-limit"
    assert abs(rep.alpha_inf - 0.5) <= 1e-12 and abs(rep.gamma_inf - 0.5) <= 1e-12


def test_tau_numeric_at_zero(gauss_tri):
    # tau(0) = 1 on both sides, also at c = -inf, where c * 0 is NaN
    table = asymptotics.alpha_inf(gauss_tri).tau_table
    assert table[0] == {"u": 0.0, "tau_plus": 1.0, "tau_minus": 1.0}
    assert all(row["tau_plus"] == row["tau_minus"] == 0.0 for row in table[1:])


def test_tau_numeric_validation(monkeypatch):
    # pi(x+u)/pi(x) = e^{-u + sin(x+u) - sin(x)} has no limit: the secants
    # never settle
    target = _estimated("laplace", monkeypatch)
    monkeypatch.setattr(target, "log_pdf", lambda x: math.sin(x) - abs(x))
    with pytest.raises(asymptotics.TauNotConvergedError, match="right tail"):
        asymptotics.tail_ratio_for(target, ProposalModel("triangular"))
    # a ModelError from log pi, of a density that vanishes in its tails, is
    # not a slope that failed to settle
    with pytest.raises(ModelError, match="not positive"):
        asymptotics.tail_ratio_for(DensityModel("expr", source="max(0, 1-abs(x)/3)"), ProposalModel("triangular"))


@pytest.mark.parametrize("family", ["laplace", "gauss"])
def test_tau_numeric_agrees_with_closed_form(family, monkeypatch):
    p = ProposalModel("triangular")
    closed = DensityModel(family).tail_slopes()
    assert asymptotics.tail_ratio_for(_estimated(family, monkeypatch), p) == pytest.approx(closed, abs=1e-12)


def test_tail_ratio_for_numeric_fallback():
    # expression target with a Laplace-type tail
    target = DensityModel("expr", source="exp(-abs(x))/2")
    assert target.tail_slopes() is None
    slopes = asymptotics.tail_ratio_for(target, ProposalModel("triangular"))
    assert slopes == pytest.approx((-1.0, -1.0), abs=1e-12)


def test_closed_forms_laplace():
    p = ProposalModel("triangular")
    c = -1.0
    assert asymptotics.gamma_inf(p, c) == pytest.approx(GAMMA_LAPLACE, abs=1e-10)
    assert asymptotics.r_prime_inf(p, c) == pytest.approx(RP_LAPLACE, abs=1e-10)
    assert asymptotics.beta_inf(p, c) == pytest.approx(BETA_LAPLACE, abs=1e-10)


def test_closed_forms_gauss():
    p = ProposalModel("triangular")
    c = -math.inf
    assert asymptotics.gamma_inf(p, c) == pytest.approx(0.5, abs=1e-9)
    assert asymptotics.r_prime_inf(p, c) == pytest.approx(0.5, abs=1e-9)
    assert asymptotics.beta_inf(p, c) == pytest.approx(0.0, abs=1e-9)


def _warnings(caplog, text):
    return [r for r in caplog.records if r.levelno == logging.WARNING and text in r.getMessage()]


def test_degenerate_tau(caplog):
    # c = 0: tau = 1, a flat tail
    p = ProposalModel("triangular")
    with caplog.at_level(logging.WARNING, logger="mhbound.asymptotics"):
        g = asymptotics.gamma_inf(p, 0.0)
    assert _warnings(caplog, "degenerate")
    assert g == 1.0
    assert asymptotics.r_prime_inf(p, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert asymptotics.beta_inf(p, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_tau_logs_every_call(caplog):
    # a diagnostic is logged each time it applies, not once per process
    p = ProposalModel("triangular")
    with caplog.at_level(logging.WARNING, logger="mhbound.asymptotics"):
        asymptotics.gamma_inf(p, 0.0)
        asymptotics.gamma_inf(p, 0.0)
    assert len(_warnings(caplog, "degenerate")) == 2


def test_identity_builtins():
    p = ProposalModel("triangular")
    for target in (DensityModel("laplace"), DensityModel("gauss")):
        c = np.array(target.tail_slopes())
        gap = asymptotics.r_prime_inf(p, c) + asymptotics.beta_inf(p, c) - asymptotics.gamma_inf(p, c)
        assert np.abs(gap).max() <= 2e-9


@given(c=SLOPES, family=st.sampled_from(["triangular", "uniform", "epanechnikov"]))
def test_identity_synthetic_tau(c, family):
    # the three integrals share one node set, so the identity holds at
    # every node and the gap is rounding only
    p = ProposalModel(family, 1.0)
    gap = asymptotics.r_prime_inf(p, c) + asymptotics.beta_inf(p, c) - asymptotics.gamma_inf(p, c)
    assert abs(gap) <= 1e-14


def test_identity_synthetic_tau_to_rounding():
    # an array of slopes is one row per slope, each with the bits it gets alone
    c = np.append(np.linspace(-50.0, 0.0, 101), -math.inf)
    for p in (ProposalModel("triangular"), ProposalModel("epanechnikov")):
        rows = [asymptotics.r_prime_inf(p, c), asymptotics.beta_inf(p, c), asymptotics.gamma_inf(p, c)]
        assert np.abs(rows[0] + rows[1] - rows[2]).max() <= 1e-14
        for fn, row in zip((asymptotics.r_prime_inf, asymptotics.beta_inf, asymptotics.gamma_inf), rows):
            assert row.tolist() == [fn(p, x) for x in c.tolist()]


@given(c=SLOPES, d=SLOPES)
def test_gamma_nondecreasing_in_slope(c, d):
    p = ProposalModel("triangular")
    lo, hi = sorted((c, d))
    assert asymptotics.gamma_inf(p, lo) <= asymptotics.gamma_inf(p, hi)


@pytest.mark.parametrize("family", ["triangular", "uniform", "epanechnikov"])
def test_gauss_limits_exact(family):
    # e^{cu} is exactly 0 at c = -inf: u = 0 is no node of the rule
    p = ProposalModel(family, 1.0)
    assert abs(asymptotics.r_prime_inf(p, -math.inf) - 0.5) <= 1e-15
    assert abs(asymptotics.beta_inf(p, -math.inf)) <= 1e-15
    assert abs(asymptotics.gamma_inf(p, -math.inf) - 0.5) <= 1e-15


def test_reflection_identity_closed_forms():
    # x -> -x swaps the two tails: the slopes are exact, and the limit
    # report is the same with its tau columns swapped
    p = ProposalModel("triangular")
    assert asymptotics.tail_ratio_for(DensityModel("expr", source=SKEWED), p) == pytest.approx((-1.5, -0.5), abs=1e-12)
    assert asymptotics.tail_ratio_for(DensityModel("expr", source=MIRROR), p) == pytest.approx((-0.5, -1.5), abs=1e-12)
    skewed, mirror = (asymptotics.alpha_inf(MhKernel(DensityModel("expr", source=e), p)) for e in (SKEWED, MIRROR))
    for name in ("r_prime_inf", "beta_inf", "gamma_inf", "alpha_inf"):
        assert getattr(skewed, name) == pytest.approx(getattr(mirror, name), abs=1e-12)
    for row, flipped in zip(skewed.tau_table, mirror.tau_table):
        assert row["tau_plus"] == pytest.approx(math.exp(-1.5 * row["u"]), rel=1e-12)
        assert (row["tau_plus"], row["tau_minus"]) == pytest.approx((flipped["tau_minus"], flipped["tau_plus"]), rel=1e-12)


def test_alpha_inf_laplace(laplace_tri):
    rep = asymptotics.alpha_inf(laplace_tri)
    assert rep.gamma_inf == pytest.approx(GAMMA_LAPLACE, abs=1e-6)
    assert rep.alpha_inf == rep.gamma_inf
    assert rep.r_inf == pytest.approx(1.0 - 2.0 / math.e, abs=1e-6)
    assert rep.identity_gap <= 2e-9
    assert not rep.degenerate
    assert rep.certified
    assert rep.tau_mode == "closed-form"


def test_alpha_inf_gauss(gauss_tri):
    rep = asymptotics.alpha_inf(gauss_tri)
    assert rep.gamma_inf == pytest.approx(0.5, abs=1e-9)
    assert rep.alpha_inf == pytest.approx(0.5, abs=1e-9)
    assert rep.certified


def test_alpha_inf_expr_gauss():
    # log pi of exp(-x^2/2) is -x^2/2, which does not underflow: both tails'
    # secant slopes fall to -inf, and alpha_inf is the Gauss limit
    rep = asymptotics.alpha_inf(MhKernel(DensityModel("expr", source="exp(-x^2/2)"), ProposalModel("triangular")))
    assert abs(rep.alpha_inf - 0.5) <= 1e-12
    assert rep.certified


def test_alpha_inf_non_even_target():
    # alpha_inf = max(r_inf, gamma_+, gamma_-): the left tail of SKEWED
    # (c = -1/2) binds, not its right tail (c = -3/2, gamma = 0.9692454497)
    for expr in (SKEWED, MIRROR):
        rep = asymptotics.alpha_inf(MhKernel(DensityModel("expr", source=expr), ProposalModel("triangular")))
        assert abs(rep.alpha_inf - ALPHA_SKEWED) <= 1e-8
        assert rep.gamma_inf == rep.alpha_inf and rep.identity_gap <= 1e-14
        assert rep.certified and rep.verdict == "quasi-compact certified at level 0.995502"


@given(c=SLOPES)
def test_gamma_bounded_by_one(c):
    gamma = asymptotics.gamma_inf(ProposalModel("triangular"), c)
    assert 0.5 <= gamma <= 1.0


def test_r_prime_inf_rejects_asymmetric_shape():
    # int_0^1 of this normalized shape is 1/3, so r'_inf = 2/3 for Gauss; the
    # check is an exception, not an assert that python -O would drop
    proposal = ProposalModel("expr", 1.0, "max(0,1-abs(u))*(1-u)")
    with pytest.raises(ModelError, match="exceeds 1/2"):
        asymptotics.r_prime_inf(proposal, -math.inf)
