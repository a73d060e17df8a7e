import logging
import math

import numpy as np
import pytest

from mhbound.models import DensityModel, ModelError, ProposalModel, TailRatio
from mhbound.quad import adaptive_simpson


def test_builtin_densities_match_expressions():
    xs = np.linspace(-10.0, 10.0, 100)
    lap = DensityModel.laplace()
    np.testing.assert_allclose(lap.pdf(xs), np.exp(-np.abs(xs)) / 2.0, rtol=1e-15)
    gau = DensityModel.gauss()
    np.testing.assert_allclose(
        gau.pdf(xs), np.exp(-(xs**2) / 2.0) / math.sqrt(2.0 * math.pi), rtol=4e-15
    )


def test_log_pdf_matches_log_of_pdf():
    m = DensityModel.laplace(scale=2.0)
    for x in (-7.0, -0.5, 0.0, 3.3):
        assert m.log_pdf(x) == pytest.approx(math.log(m.pdf(x)), rel=1e-12)


def test_scale_applied_as_rescaled_density():
    m = DensityModel.laplace(scale=2.0)
    assert m.log_pdf(2.0) == pytest.approx(-1.0 - math.log(4.0), abs=1e-14)


def test_gauss_log_pdf_far_tail_no_underflow():
    m = DensityModel.gauss()
    assert m.log_pdf(60.0) == pytest.approx(-1800.0 - 0.5 * math.log(2 * math.pi), rel=1e-12)


def test_tail_ratio_closed_forms():
    lap = DensityModel.laplace().tail_ratio(1.0)
    assert lap.mode == "closed-form"
    assert lap(0.5) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert lap(0.0) == 1.0
    gau = DensityModel.gauss().tail_ratio(1.0)
    assert gau(0.5) == 0.0
    assert gau(0.0) == 1.0
    assert DensityModel.from_expression("exp(-x^2)").tail_ratio(1.0) is None


def test_tail_ratio_reflection():
    lap = DensityModel.laplace().tail_ratio(1.0)
    assert lap.reflected(-0.5) == pytest.approx(1.0 / lap(0.5), rel=1e-12)
    gau = DensityModel.gauss().tail_ratio(1.0)
    assert gau.reflected(-0.5) == math.inf
    with pytest.raises(ValueError):
        lap(-0.1)


def test_tail_ratio_clamped():
    t = TailRatio("closed-form", 1.0, lambda u: 1.5)
    assert t(0.3) == 1.0


def test_expr_target_positivity():
    m = DensityModel.from_expression("x")
    with pytest.raises(ModelError):
        m.log_pdf(-1.0)
    with pytest.raises(ModelError):
        m.log_pdf(np.array([1.0, -1.0]))


def test_expr_target_scalar_inputs():
    # floats take the compiled scalar path; other scalars are evaluated as arrays
    m = DensityModel.from_expression("exp(-abs(x))/2")
    assert type(m.log_pdf(0.75)) is float
    assert m.log_pdf(np.float64(0.75)) == m.log_pdf(0.75) == m.log_pdf(np.array([0.75]))[0]
    assert m.log_pdf(1) == pytest.approx(-1.0 - math.log(2.0), abs=1e-15)
    with pytest.raises(ModelError, match="x=0"):
        DensityModel.from_expression("x").log_pdf(0)


def test_target_constructor_validation():
    with pytest.raises(ModelError):
        DensityModel("cauchy")
    with pytest.raises(ModelError):
        DensityModel.laplace(scale=0.0)
    with pytest.raises(ModelError):
        DensityModel("expr")


def test_cdf_builtins():
    lap = DensityModel.laplace()
    assert lap.cdf(0.0) == 0.5
    assert lap.cdf(1.0) + lap.cdf(-1.0) == pytest.approx(1.0, abs=1e-14)
    gau = DensityModel.gauss()
    assert gau.cdf(0.0) == 0.5
    with pytest.raises(ModelError):
        DensityModel.from_expression("exp(-x^2)").cdf(0.0)


def test_cdf_array_matches_closed_forms():
    zs = np.array([-40.0, -3.5, -1.0, -1e-9, 0.0, 0.25, 2.0, 7.5, 40.0])
    lap = DensityModel.laplace(scale=2.0)
    expect = [0.5 * math.exp(z / 2.0) if z < 0 else 1.0 - 0.5 * math.exp(-z / 2.0) for z in zs]
    np.testing.assert_allclose(lap.cdf(zs), expect, rtol=1e-15, atol=0.0)
    gau = DensityModel.gauss(scale=0.5)
    expect = [0.5 * (1.0 + math.erf(z / 0.5 / math.sqrt(2.0))) for z in zs]
    np.testing.assert_allclose(gau.cdf(zs), expect, rtol=1e-15, atol=0.0)
    assert lap.cdf(zs.reshape(3, 3)).shape == (3, 3)


def test_proposal_shapes_normalized():
    for family in ("triangular", "uniform", "epanechnikov"):
        for s in (1.0, 2.5):
            p = ProposalModel(family, s)
            res = adaptive_simpson(p.shape, -s, s, breakpoints=(0.0,))
            assert res.value == pytest.approx(1.0, abs=1e-10)
            assert p.shape(s * 1.01) == 0.0
            assert p.symmetric


def test_triangular_values():
    p = ProposalModel.triangular()
    assert p.shape(0.0) == 1.0
    assert p.shape(0.5) == 0.5
    assert p.shape(-0.5) == 0.5
    assert p.shape(2.0) == 0.0
    assert p.log_shape(2.0) == -math.inf
    assert p.sup_shape == pytest.approx(1.0, abs=1e-9)


def test_custom_proposal_range_verified():
    # supported on all of R: the declared range is a lie
    with pytest.raises(ModelError, match="range"):
        ProposalModel.from_expression("0.25", s=1.0)


def test_custom_proposal_normalization_verified():
    with pytest.raises(ModelError, match="integrates"):
        ProposalModel.from_expression("0.4 * max(0, 1 - abs(u))", s=1.0)


def test_custom_proposal_negative_rejected():
    with pytest.raises(ModelError):
        ProposalModel.from_expression("1 - 2 * max(0, 1 - abs(u))", s=1.0)


def test_custom_proposal_sup_declaration():
    good = ProposalModel.from_expression("max(0, 1 - abs(u))", s=1.0, sup_shape=1.0)
    assert good.sup_shape == 1.0
    with pytest.raises(ModelError, match="sup"):
        ProposalModel.from_expression("max(0, 1 - abs(u))", s=1.0, sup_shape=0.5)


def test_vanishing_inside_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="mhbound.models"):
        ProposalModel.from_expression("2 * max(0, 1 - 2 * abs(u))", s=1.0)
    assert any("vanishes inside" in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)


def test_proposal_constructor_validation():
    with pytest.raises(ModelError):
        ProposalModel("gaussian")
    with pytest.raises(ModelError):
        ProposalModel.triangular(s=-1.0)
    with pytest.raises(ModelError):
        ProposalModel("expr", s=1.0)


def test_array_and_scalar_shape_agree():
    p = ProposalModel.epanechnikov(s=2.0)
    us = np.linspace(-2.5, 2.5, 21)
    arr = p.shape(us)
    for u, v in zip(us, arr):
        assert p.shape(float(u)) == pytest.approx(v, abs=1e-15)
