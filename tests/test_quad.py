import logging
import math
import random

import numpy as np
import pytest

from mhbound.quad import (
    GL_POINTS,
    AdaptiveSimpsonRule,
    SupScanConfig,
    adaptive_simpson,
    composite_gauss_legendre,
    gauss_legendre_grid,
    gauss_legendre_nodes,
    sup_scan,
)


def test_triangle_integral():
    for res in (
        composite_gauss_legendre(lambda u: 1.0 - u, 0.0, 1.0),
        adaptive_simpson(lambda u: 1.0 - u, 0.0, 1.0, AdaptiveSimpsonRule()),
    ):
        assert res.value == pytest.approx(0.5, abs=1e-12)


def test_exponential_weighted_triangle():
    res = adaptive_simpson(lambda u: (1.0 - u) * math.exp(-u), 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / math.e, abs=1e-10)


def test_kinked_triangle_with_breakpoint():
    res = adaptive_simpson(lambda u: 1.0 - abs(u), -1.0, 1.0, breakpoints=(0.0,))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    res_gl = composite_gauss_legendre(
        lambda u: 1.0 - np.abs(u), -1.0, 1.0, breakpoints=(0.0,)
    )
    assert res_gl.value == pytest.approx(1.0, abs=1e-12)


def test_gauss_legendre_exact_for_high_degree_polynomial():
    # one 16-node panel integrates degree 31 exactly
    exact = 2.0 / 32.0  # int_{-1}^{1} x^31 dx = 0; use x^30 instead
    res = composite_gauss_legendre(lambda x: x**30, -1.0, 1.0, panels=1)
    exact = 2.0 / 31.0
    assert abs(res.value - exact) / exact < 1e-13


def test_linearity_on_random_smooth_functions():
    rng = random.Random(5)
    for _ in range(20):
        a1, b1 = rng.uniform(-2, 2), rng.uniform(-2, 2)

        def f(x):
            return math.sin(a1 * x) + b1 * x * x

        def g(x):
            return math.exp(-(x * x)) * math.cos(b1 * x)

        al, be = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = adaptive_simpson(lambda x: al * f(x) + be * g(x), -1.0, 2.0).value
        rhs = al * adaptive_simpson(f, -1.0, 2.0).value + be * adaptive_simpson(g, -1.0, 2.0).value
        assert abs(lhs - rhs) <= 1e-10 * (abs(al) + abs(be) + 1.0)


def test_doubling_panels_within_reported_error():
    for f, lo, hi in (
        (lambda x: np.exp(-x * x), -2.0, 2.0),
        (lambda x: np.sin(3 * x) + x, 0.0, 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -5.0, 5.0),
    ):
        coarse = composite_gauss_legendre(f, lo, hi, 8)
        fine = composite_gauss_legendre(f, lo, hi, 16)
        assert abs(fine.value - coarse.value) <= coarse.error + 1e-14


def test_max_depth_flags_unconverged():
    rule = AdaptiveSimpsonRule(abs_tol=1e-14, rel_tol=1e-14, max_depth=2)
    res = adaptive_simpson(lambda x: abs(x - 1 / 3.0) ** 0.2, 0.0, 1.0, rule)
    assert not res.converged
    assert res.error > 0.0


def test_empty_interval():
    assert adaptive_simpson(math.sin, 1.0, 1.0).value == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.sin, 1.0, 0.0)


def test_sup_scan_parabola():
    res = sup_scan(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
    assert res.converged
    assert res.argmax == pytest.approx(0.3, abs=1e-6)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_sup_scan_sine():
    res = sup_scan(np.sin, 0.0, 3.2)
    assert res.argmax == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_sup_scan_zooms_on_arrays():
    calls = []

    def f(x):
        calls.append(x)
        return np.sin(x)

    res = sup_scan(f, 0.0, 3.2)
    assert all(isinstance(x, np.ndarray) for x in calls)
    assert len(calls) <= 8
    assert res.converged
    assert res.argmax == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_sup_scan_maximum_at_interval_end():
    res = sup_scan(lambda x: x, 0.0, 1.0)
    assert res.argmax == 1.0
    assert res.value == 1.0
    assert res.converged


def test_sup_scan_dominates_coarse_grid():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=6)

    def f(x):
        return sum(c * np.sin((i + 1) * x) for i, c in enumerate(coeffs))

    cfg = SupScanConfig(coarse_steps=512)
    res = sup_scan(f, -2.0, 4.0, cfg)
    xs = np.linspace(-2.0, 4.0, cfg.coarse_steps + 1)
    assert res.value >= float(np.max(f(xs))) - 1e-15


def test_sup_scan_takes_arrays_only(caplog):
    # math.sin raises TypeError on the coarse grid; no point-by-point retry
    calls = []

    def f(x):
        calls.append(x)
        return math.sin(x)

    with caplog.at_level(logging.DEBUG, logger="mhbound"):
        with pytest.raises(TypeError):
            sup_scan(f, 0.0, 3.2)
    assert len(calls) == 1
    assert not caplog.records


def test_sup_scan_rows_equal_single_scans(gauss_tri, laplace_tri):
    cases = [
        (np.sin, [0.0, -3.0, 1.0, 2.5], [3.2, 0.5, 7.0, 2.6]),
        # r(x) on both tail windows, as r_sup_tail scans them; gauss's r
        # rises towards 1/2 with |x|, and laplace's is flat there, so its
        # argmax holds only if r does not depend on its batch
        (gauss_tri.rejection_grid, [1.0, -66.0, 2.0], [66.0, -1.0, 5.0]),
        (laplace_tri.rejection_grid, [1.0, -66.0, 2.0], [66.0, -1.0, 5.0]),
    ]
    for f, lo, hi in cases:
        calls = []

        def counted(x):
            calls.append(x.shape)
            return f(x)

        rows = sup_scan(counted, np.array(lo), np.array(hi))
        assert calls[0] == (len(lo), 2049)
        assert all(len(shape) == 2 and shape[0] <= len(lo) for shape in calls)
        for i in range(len(lo)):
            one = sup_scan(f, lo[i], hi[i])
            assert (type(one.argmax), type(one.value), type(one.converged)) == (float, float, bool)
            assert rows.argmax[i] == one.argmax
            assert rows.value[i] == one.value
            assert rows.converged[i] == one.converged


def test_sup_scan_propagates_value_error_without_scalar_retry():
    calls = []

    def f(x):
        calls.append(x)
        raise ValueError("density not positive")

    with pytest.raises(ValueError, match="not positive"):
        sup_scan(f, 0.0, 1.0)
    assert len(calls) == 1


def test_sup_scan_invalid_interval():
    with pytest.raises(ValueError):
        sup_scan(np.sin, 1.0, 1.0)


def test_panel_builders_share_one_rule():
    def reference_panels(lo, hi, panels):
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()

    # every piece between breakpoints gets the given number of panels;
    # breakpoints repeated or outside (lo, hi) are ignored
    us, ws = gauss_legendre_grid(-1.0, 2.0, 96, (0.0, 0.5, 0.0, 2.0, -3.0))
    pieces = [reference_panels(lo, hi, 96) for lo, hi in ((-1.0, 0.0), (0.0, 0.5), (0.5, 2.0))]
    assert np.array_equal(us, np.concatenate([u for u, _ in pieces]))
    assert np.array_equal(ws, np.concatenate([w for _, w in pieces]))
    whole = gauss_legendre_grid(-20.0, 20.0, 320)
    for got, want in zip(whole, reference_panels(-20.0, 20.0, 320)):
        assert np.array_equal(got, want)
    # composite_gauss_legendre integrates on those nodes, then on doubled panels
    calls = []
    composite_gauss_legendre(lambda x: calls.append(x) or np.ones_like(x), -1.0, 2.0, 4, (0.5,))
    assert np.array_equal(calls[0], gauss_legendre_grid(-1.0, 2.0, 4, (0.5,))[0])
    assert np.array_equal(calls[1], gauss_legendre_grid(-1.0, 2.0, 8, (0.5,))[0])


def test_gauss_legendre_nodes_cached_and_correct():
    x, w = gauss_legendre_nodes()
    assert gauss_legendre_nodes() is gauss_legendre_nodes()
    assert x.size == w.size == GL_POINTS == 16
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(x, -x[::-1])
