import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from mhbound import asymptotics
from mhbound.models import DensityModel, ModelError, ProposalModel
from mhbound.quad import adaptive_simpson, sup_scan


def test_builtin_densities_match_expressions():
    xs = np.linspace(-10.0, 10.0, 100)
    lap = DensityModel("laplace")
    np.testing.assert_allclose(lap.pdf(xs), np.exp(-np.abs(xs)) / 2.0, rtol=1e-15)
    gau = DensityModel("gauss")
    np.testing.assert_allclose(
        gau.pdf(xs), np.exp(-(xs**2) / 2.0) / math.sqrt(2.0 * math.pi), rtol=4e-15
    )


def test_log_pdf_matches_log_of_pdf():
    m = DensityModel("laplace", scale=2.0)
    for x in (-7.0, -0.5, 0.0, 3.3):
        assert m.log_pdf(x) == pytest.approx(math.log(m.pdf(x)), rel=1e-12)


def test_scale_applied_as_rescaled_density():
    m = DensityModel("laplace", scale=2.0)
    assert m.log_pdf(2.0) == pytest.approx(-1.0 - math.log(4.0), abs=1e-14)


def test_gauss_log_pdf_far_tail_no_underflow():
    m = DensityModel("gauss")
    assert m.log_pdf(60.0) == pytest.approx(-1800.0 - 0.5 * math.log(2 * math.pi), rel=1e-12)


@pytest.mark.parametrize("family", ["laplace", "gauss"])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_log_pdf_floats_match_arrays(family, scale):
    # floats and arrays run one formula with the same operations, so the
    # bits agree (a square by C pow on floats and by numpy on arrays did
    # not); an array call holds no array but its result, and a call into a
    # caller's array, or over x itself, holds none and returns that array
    m = DensityModel(family, scale)
    xs = np.random.default_rng(8).normal(scale=3.0 * scale, size=10**5)
    floats = np.array([m.log_pdf(x) for x in xs.tolist()])
    buf, in_place = np.empty_like(xs), xs.copy()
    tracemalloc.start()
    try:
        arrays = m.log_pdf(xs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert m.log_pdf(xs, out=buf) is buf
        assert m.log_pdf(in_place, out=in_place) is in_place
        peak_into = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for values in (arrays, buf, in_place):
        assert np.array_equal(floats.view(np.uint64), values.view(np.uint64))
    assert peak < 1.5 * xs.nbytes
    assert peak_into < 0.01 * xs.nbytes


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("family", ["laplace", "gauss"])
@pytest.mark.parametrize("scale", [1.0, 2.5, 1e-3])
def test_log_pdf_matches_the_closed_forms(family, scale):
    # the exprlang tree of a built-in family gives its formula's bits on
    # floats and arrays, and a ModelError that names x where the formula
    # gives -inf (gauss's square overflows at 1e160)
    m = DensityModel(family, scale)
    formula = getattr(oracles, f"{family}_log_pdf")
    edges = [0.0, -0.0, 1e-310, -1e-310, 1e150, -1e150, 1e160, -1e160]
    xs = np.array(edges + np.random.default_rng(10).normal(scale=3.0 * scale, size=1000).tolist())
    want = np.array([formula(x, scale) for x in xs.tolist()])
    finite = want > -math.inf
    floats = np.array([m.log_pdf(x) for x in xs[finite].tolist()])
    for got in (floats, m.log_pdf(xs[finite]), formula(xs[finite], scale)):
        assert np.array_equal(got.view(np.uint64), want[finite].view(np.uint64))
    for x in xs[~finite].tolist():
        with pytest.raises(ModelError, match=f"not positive at x={re.escape(repr(x))}$"):
            m.log_pdf(x)
        with pytest.raises(ModelError, match=f"not positive at x={re.escape(repr(x))}$"):
            m.log_pdf(np.array([1.0, x, -x]))
    assert finite.all() == (family == "laplace")


@pytest.mark.parametrize(
    "source, reads_once",
    [("exp(-abs(x))", True), ("exp(-x^2/2)", True), ("exp(-abs(x-3))+exp(-abs(x+3))", False), ("1/(1+x^2)", False)],
)
def test_expr_log_pdf_into_buffer(source, reads_once):
    # a log form that reads x once is evaluated in the caller's array, and
    # its check makes no other array; any other tree makes its own array
    # and copies or logs it into that one
    m = DensityModel("expr", source=source)
    xs = np.random.default_rng(9).normal(scale=5.0, size=10**5)
    fresh = m.log_pdf(xs)
    buf, in_place = np.empty_like(xs), xs.copy()
    tracemalloc.start()
    try:
        assert m.log_pdf(xs, out=buf) is buf
        assert m.log_pdf(in_place, out=in_place) is in_place
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for values in (buf, in_place):
        assert np.array_equal(fresh.view(np.uint64), values.view(np.uint64))
    assert (peak < 0.5 * xs.nbytes) == reads_once


def test_expr_log_pdf_error_over_its_input():
    # evaluated over x, a log form that leaves its domain cannot name the
    # point, and says so
    m = DensityModel("expr", source="exp(-exp(x))")
    xs = np.array([0.0, 800.0])
    with pytest.raises(ModelError, match=r"not positive at x=800\.0"):
        m.log_pdf(xs, out=np.empty(2))
    with pytest.raises(ModelError, match=r"log pi is -inf at a point whose x"):
        m.log_pdf(xs, out=xs)


def test_tail_ratio_closed_forms():
    # tau_+-(u) = e^{c_+- u}: one slope per tail
    assert DensityModel("laplace").tail_slopes() == (-1.0, -1.0)
    assert DensityModel("laplace", 2.0).tail_slopes() == (-0.5, -0.5)
    assert DensityModel("gauss").tail_slopes() == (-math.inf, -math.inf)
    assert DensityModel("expr", source="exp(-x^2)").tail_slopes() is None


def test_tail_ratio_reflection():
    # x -> -x swaps the tails' slopes
    p = ProposalModel("triangular")
    for expr, slopes in (("exp(-abs(x)-x/2)", (-1.5, -0.5)), ("exp(-abs(x)+x/2)", (-0.5, -1.5))):
        assert asymptotics.tail_ratio_for(DensityModel("expr", source=expr), p) == pytest.approx(slopes, abs=1e-12)


def test_tail_ratio_clamped():
    # a tail that rises outward has no ratio in [0, 1]: its secants are
    # clamped to 0, which gives the degenerate gamma = 1
    p = ProposalModel("triangular")
    assert asymptotics.tail_ratio_for(DensityModel("expr", source="exp(x)"), p) == pytest.approx((0.0, -1.0), abs=1e-12)


def test_expr_target_positivity():
    m = DensityModel("expr", source="x")
    with pytest.raises(ModelError):
        m.log_pdf(-1.0)
    with pytest.raises(ModelError):
        m.log_pdf(np.array([1.0, -1.0]))


def test_expr_target_scalar_inputs():
    # floats take the compiled scalar path; other scalars are evaluated as arrays
    m = DensityModel("expr", source="exp(-abs(x))/2")
    assert type(m.log_pdf(0.75)) is float
    assert m.log_pdf(np.float64(0.75)) == m.log_pdf(0.75) == m.log_pdf(np.array([0.75]))[0]
    assert m.log_pdf(1) == pytest.approx(-1.0 - math.log(2.0), abs=1e-15)
    with pytest.raises(ModelError, match="x=0"):
        DensityModel("expr", source="x").log_pdf(0)


def test_expr_target_log_domain():
    # an expression with a log form runs as that form: exp(-abs(x)) is
    # -abs(x), with no exp_ call and no log of a value, and a light tail
    # whose value underflows keeps its log pi
    lines, _ = DensityModel("expr", source="exp(-abs(x))").log_pdf_source("x", "lx")
    assert not any("exp_" in line or "log(" in line for line in lines)
    gauss = DensityModel("expr", source="exp(-x^2/2)")
    assert gauss.log_pdf(60.0) == gauss.log_pdf(np.array([60.0]))[0] == -1800.0
    cubic = DensityModel("expr", source="exp(-abs(x)^3/3)")
    assert cubic.log_pdf(-66.0) == -(66.0**3) / 3.0


def test_expr_target_nan_raises():
    # exp(x) - exp(x) is inf - inf = NaN at x = 800, in the log form of the
    # first target and in the value of the second, which has none: log pi is
    # NaN there, not a density, on floats and on arrays
    for source in ("exp(exp(x)-exp(x))", "1 + exp(x) - exp(x)"):
        m = DensityModel("expr", source=source)
        with pytest.raises(ModelError, match=r"not positive at x=800\.0"):
            m.log_pdf(800.0)
        with np.errstate(invalid="ignore"), pytest.raises(ModelError, match=r"not positive at x=800\.0"):
            m.log_pdf(np.array([0.0, 800.0]))


def test_target_constructor_validation():
    with pytest.raises(ModelError):
        DensityModel("cauchy")
    with pytest.raises(ModelError):
        DensityModel("laplace", scale=0.0)
    with pytest.raises(ModelError):
        DensityModel("expr")


def test_cdf_builtins():
    lap = DensityModel("laplace")
    assert lap.cdf(0.0) == 0.5
    assert lap.cdf(1.0) + lap.cdf(-1.0) == pytest.approx(1.0, abs=1e-14)
    gau = DensityModel("gauss")
    assert gau.cdf(0.0) == 0.5
    with pytest.raises(ModelError):
        DensityModel("expr", source="exp(-x^2)").cdf(0.0)


def test_cdf_array_matches_closed_forms():
    zs = np.array([-40.0, -3.5, -1.0, -1e-9, 0.0, 0.25, 2.0, 7.5, 40.0])
    lap = DensityModel("laplace", scale=2.0)
    expect = [0.5 * math.exp(z / 2.0) if z < 0 else 1.0 - 0.5 * math.exp(-z / 2.0) for z in zs]
    np.testing.assert_allclose(lap.cdf(zs), expect, rtol=1e-15, atol=0.0)
    gau = DensityModel("gauss", scale=0.5)
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
    p = ProposalModel("triangular")
    assert p.shape(0.0) == 1.0
    assert p.shape(0.5) == 0.5
    assert p.shape(-0.5) == 0.5
    assert p.shape(2.0) == 0.0
    assert p.log_shape(2.0) == -math.inf
    assert p.sup_shape == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family", ["triangular", "uniform", "epanechnikov"])
@pytest.mark.parametrize("s", [1e-3, 0.3, 1.0, 2.5, 7.0])
def test_builtin_sup_shape_is_the_scanned_sup(family, s):
    # shape(0) in closed form, the bits of the sup_scan it replaced
    p = ProposalModel(family, s)
    scan = sup_scan(lambda u: (p.shape(u), 0.0), -s, s, coarse_steps=1024, tol_x=1e-10)
    assert type(p.sup_shape) is float and p.sup_shape == scan.value


def test_custom_proposal_range_verified():
    # supported on all of R: the declared range is a lie
    with pytest.raises(ModelError, match="range"):
        ProposalModel("expr", 1.0, "0.25")


def test_custom_proposal_normalization_verified():
    with pytest.raises(ModelError, match="integrates"):
        ProposalModel("expr", 1.0, "0.4 * max(0, 1 - abs(u))")


def test_custom_proposal_negative_rejected():
    with pytest.raises(ModelError):
        ProposalModel("expr", 1.0, "1 - 2 * max(0, 1 - abs(u))")


def test_custom_proposal_sup_declaration():
    good = ProposalModel("expr", 1.0, "max(0, 1 - abs(u))", sup_shape=1.0)
    assert good.sup_shape == 1.0
    with pytest.raises(ModelError, match="sup"):
        ProposalModel("expr", 1.0, "max(0, 1 - abs(u))", sup_shape=0.5)
    # a declared sup that is not finite is refused under its own name
    for bad in (math.inf, math.nan):
        with pytest.raises(ModelError, match="declared sup_shape must be finite"):
            ProposalModel("expr", 1.0, "max(0, 1 - abs(u))", sup_shape=bad)


def test_vanishing_inside_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="mhbound.models"):
        ProposalModel("expr", 1.0, "2 * max(0, 1 - 2 * abs(u))")
    assert any("vanishes inside" in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)


def test_proposal_constructor_validation():
    with pytest.raises(ModelError):
        ProposalModel("gaussian")
    with pytest.raises(ModelError):
        ProposalModel("triangular", s=-1.0)
    with pytest.raises(ModelError):
        ProposalModel("expr", s=1.0)
    # a subnormal s: the sup 1/s is inf, refused before the shape is evaluated
    with pytest.raises(ModelError, match=r"sup is inf at proposal\.s=2\.225073858507203e-309"):
        ProposalModel("triangular", s=2.225073858507203e-309)


@pytest.mark.parametrize("s", [1.0, 0.3, 2.5, 1e-3, 1e6, 1e-300])
def test_builtin_shapes_match_where_form(s):
    # one array per call, with the operations of the np.where forms: the
    # same bits on every input, at +-s, at +-0.0, +-inf and NaN too
    u = np.concatenate([np.random.default_rng(4).uniform(-2.0 * s, 2.0 * s, 10**4), [s, -s, 0.0, -0.0, np.inf, -np.inf, np.nan]])
    inside = np.abs(u) <= s
    where = {
        "triangular": np.where(inside, (1.0 - np.abs(u) / s) / s, 0.0),
        "uniform": np.where(inside, 1.0 / (2.0 * s), 0.0),
        "epanechnikov": np.where(inside, 0.75 * (1.0 - (u / s) ** 2) / s, 0.0),
    }
    for family, expected in where.items():
        p = ProposalModel(family, s)
        tracemalloc.start()
        try:
            values = p.shape(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64)), family
        # the result and a mask of bools: 2.1 times u's bytes with np.where
        assert peak < 1.3 * u.nbytes, family
        assert p.shape(u[0]).view(np.uint64) == expected[0].view(np.uint64)
        assert p.shape(u[:6].reshape(2, 3)).shape == (2, 3)
    # each shape's tree: the triangle's affine abs argument has its zero
    # solved exactly, and the closed-form sups have the bits of D(0)/s
    sups = {"triangular": 1.0 / s, "uniform": 1.0 / (2.0 * s), "epanechnikov": 0.75 / s}
    for family, sup in sups.items():
        p = ProposalModel(family, s)
        assert p.kinks == ((0.0,) if family == "triangular" else ()), family
        assert p.symmetric is True, family
        assert np.float64(p.sup_shape).view(np.uint64) == np.float64(sup).view(np.uint64), family


def test_array_and_scalar_shape_agree():
    p = ProposalModel("epanechnikov", s=2.0)
    us = np.linspace(-2.5, 2.5, 21)
    arr = p.shape(us)
    for u, v in zip(us, arr):
        assert p.shape(float(u)) == pytest.approx(v, abs=1e-15)
