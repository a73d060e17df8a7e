"""Acceptance gate: one test (or parametrized case) per acceptance
criterion, each printing a PASS/FAIL line (run with ``pytest -s`` to see
them).  Tolerances are pinned; a failing line here means the library
does not meet the stated behavior, and the assertion message says which
quantity missed.
"""

import math
import time

import numpy as np
import pytest

from mhbound import asymptotics, bounds, sampler, spectra
from mhbound.models import DensityModel, ProposalModel
from mhbound.quad import adaptive_simpson, composite_gauss_legendre
from oracles import decomposition_residual, detailed_balance_residual

GAMMA_LAPLACE = 8.0 * math.exp(-0.5) - math.exp(-1.0) - 3.5  # 0.984365836...
R0_LAPLACE = 1.0 - 2.0 / math.e


def _line(criterion: str, ok: bool, detail: str) -> str:
    msg = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(msg)
    return msg


def check(criterion: str, ok: bool, detail: str):
    assert ok, _line(criterion, ok, detail)
    _line(criterion, ok, detail)


def test_criterion_1_laplace_asymptotic(laplace_tri):
    start = time.monotonic()
    rep = asymptotics.alpha_inf(laplace_tri)
    elapsed = time.monotonic() - start
    check(
        "1 (Laplace gamma)",
        abs(rep.gamma_inf - 0.984366) <= 1e-6 or abs(rep.gamma_inf - GAMMA_LAPLACE) <= 1e-6,
        f"gamma_inf = {rep.gamma_inf:.9f}, closed form {GAMMA_LAPLACE:.9f}",
    )
    check(
        "1 (Laplace alpha = gamma)",
        rep.alpha_inf == rep.gamma_inf and abs(rep.r_inf - R0_LAPLACE) <= 1e-4,
        f"alpha_inf = {rep.alpha_inf:.9f}, r_inf = {rep.r_inf:.6f}",
    )
    hand_bound = 1.0 - 1.0 / math.e
    check(
        "1 (hand bound dominates)",
        rep.r_inf <= hand_bound,
        f"computed r_inf = {rep.r_inf:.6f} vs hand bound {hand_bound:.6f}",
    )
    check("1 (runtime)", elapsed < 5.0, f"{elapsed:.2f}s < 5s")


@pytest.fixture(scope="module")
def gauss_asymptotic(gauss_tri):
    start = time.monotonic()
    rep = asymptotics.alpha_inf(gauss_tri)
    return rep, time.monotonic() - start


def test_criterion_2_gauss_gamma(gauss_asymptotic):
    rep, elapsed = gauss_asymptotic
    check("2 (Gauss gamma)", abs(rep.gamma_inf - 0.5) <= 1e-9, f"gamma_inf = {rep.gamma_inf!r}")
    check("2 (runtime)", elapsed < 5.0, f"{elapsed:.2f}s < 5s")


def test_criterion_2_hand_bound_expression():
    # the quoted tail-rejection bound for the Gauss/triangular pairing:
    # 1 - e^{-1/2} - e^{1/8} int_0^1 (1-u) e^{-(u+1)^2/2} du <= 0.156
    integral = adaptive_simpson(
        lambda u: (1.0 - u) * math.exp(-((u + 1.0) ** 2) / 2.0), 0.0, 1.0
    )
    value = 1.0 - math.exp(-0.5) - math.exp(0.125) * integral.value
    check(
        "2 (hand-bound expression by quadrature)",
        integral.converged and integral.error < 1e-4 and value <= 0.156,
        f"expression evaluates to {value:.6f} <= 0.156",
    )


def test_criterion_2_computed_r_inf_below_hand_bound(gauss_asymptotic):
    # The quoted hand bound only covers the rejection probability of a
    # one-sided (half-line) comparison; the actual r(x) for the Gauss
    # target increases to the tail limit 1/2, so the computed global
    # supremum exceeds 0.156.  This check is kept at its stated tolerance
    # and fails; see the repository notes on known deviations.
    rep, _ = gauss_asymptotic
    check(
        "2 (computed r_inf <= 0.156)",
        rep.r_inf <= 0.156,
        f"computed r_inf = {rep.r_inf:.6f} (tail limit r'_inf = {rep.r_prime_inf:.3f})",
    )


def test_criterion_2_gauss_alpha(gauss_asymptotic):
    rep, _ = gauss_asymptotic
    check("2 (Gauss alpha)", abs(rep.alpha_inf - 0.5) <= 1e-9, f"alpha_inf = {rep.alpha_inf!r}")


@pytest.mark.parametrize("pairing", ["laplace", "gauss"])
def test_criterion_3_windowed_converges_to_limit(pairing, laplace_tri, gauss_tri):
    # For the Gauss pairing beta_a decays only like 1/a, so alpha_16 is
    # still far from alpha_inf; this case fails at the stated tolerance.
    k = laplace_tri if pairing == "laplace" else gauss_tri
    start = time.monotonic()
    limit = asymptotics.alpha_inf(k).alpha_inf
    reports = [bounds.alpha(k, a) for a in (4.0, 8.0, 16.0)]
    elapsed = time.monotonic() - start
    gaps = [abs(r.alpha_a - limit) for r in reports]
    check(
        f"3 ({pairing} windowed -> limit)",
        gaps[-1] <= 1e-3,
        f"alpha_a gaps to alpha_inf={limit:.6f} at a=4,8,16: "
        + ", ".join(f"{g:.2e}" for g in gaps),
    )
    check(f"3 ({pairing} runtime)", elapsed < 60.0, f"{elapsed:.1f}s < 60s")


def test_criterion_4_identity_builtins_and_synthetic():
    # the built-ins' slopes, then 50 random slopes c in [-50, 0] (a tail
    # ratio is e^{cu}) and c = -inf
    p = ProposalModel("triangular")
    rng = np.random.default_rng(20240820)
    slopes = [c for target in (DensityModel("laplace"), DensityModel("gauss")) for c in target.tail_slopes()]
    c = np.array([*slopes, *rng.uniform(-50.0, 0.0, 50), -math.inf])
    gap = asymptotics.r_prime_inf(p, c) + asymptotics.beta_inf(p, c) - asymptotics.gamma_inf(p, c)
    worst = float(np.abs(gap).max())
    check("4 (identity r'+beta = gamma)", worst <= 2e-9, f"worst gap {worst:.2e} <= 2e-9")


def test_criterion_5_detailed_balance(laplace_tri, gauss_tri):
    rng = np.random.default_rng(17)
    worst = 0.0
    for k in (laplace_tri, gauss_tri):
        xs = rng.uniform(-25.0, 25.0, 5000)
        ys = xs + rng.uniform(-1.0, 1.0, 5000)
        worst = max(worst, detailed_balance_residual(k, xs, ys).max())
    check("5 (detailed balance)", worst <= 1e-10, f"worst residual {worst:.2e} over 1e4 pairs")


def test_criterion_6_tail_norm_bounded_by_beta(laplace_tri, gauss_tri):
    start = time.monotonic()
    worst_slack = -math.inf
    details = []
    for name, k in (("laplace", laplace_tri), ("gauss", gauss_tri)):
        d = spectra.discretize(k.target, 20.0, 801)
        op = spectra.build_p_matrix(k, d)
        s_mat = spectra.symmetrize(k, op)
        for a in (2.0, 5.0, 10.0):
            norm = spectra.norm_T_ac(s_mat, op, a)
            b = bounds.beta(k, [a])[0].value
            worst_slack = max(worst_slack, norm - b)
            details.append(f"{name} a={a:g}: {norm:.4f} <= {b:.4f}+0.01")
    elapsed = time.monotonic() - start
    check("6 (||T_ac|| <= beta + 0.01)", worst_slack <= 0.01, "; ".join(details))
    check("6 (runtime)", elapsed < 120.0, f"{elapsed:.1f}s < 120s")


def test_criterion_7_decomposition_inequality(laplace_tri, gauss_tri):
    worst = -math.inf
    for name, k in (("laplace", laplace_tri), ("gauss", gauss_tri)):
        d = spectra.discretize(k.target, 20.0, 401)
        rep = bounds.alpha(k, 5.0)
        res = decomposition_residual(k, d, 5.0, 4, rep)
        worst = max(worst, res)
    check(
        "7 (||P^n - K_n|| <= 2 alpha^n + 5e-3)",
        worst <= 5e-3,
        f"worst residual {worst:.2e} over n <= 4 at 401 nodes",
    )


def test_criterion_8_spectral_sanity(laplace_tri):
    d = spectra.discretize(laplace_tri.target, 20.0, 401)
    op = spectra.build_p_matrix(laplace_tri, d)
    s_mat = spectra.symmetrize(laplace_tri, op)
    eigs, vecs = np.linalg.eigh(s_mat)
    eigs, vecs = eigs[::-1], vecs[:, ::-1]
    unit = int(np.sum(np.abs(eigs - 1.0) <= 5e-4))
    check("8 (simple unit eigenvalue)", unit == 1, f"{unit} eigenvalue(s) within 5e-4 of 1")
    vec = vecs[:, 0]
    vec = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
    prof = np.sqrt(laplace_tri.target.pdf(d.nodes) * d.weights)
    prof = prof / np.linalg.norm(prof)
    core = np.abs(d.nodes) <= d.half_width / 2.0
    rel = float(np.max(np.abs(vec - prof)[core] / prof[core]))
    check(
        "8 (sqrt-mass eigenvector profile)",
        rel <= 1e-3,
        f"max relative deviation {rel:.2e} on |x| <= {d.half_width / 2:g} "
        "(truncation-boundary rows excluded)",
    )


def test_criterion_9_sampler_validation(laplace_tri):
    trials = 10**6
    est = sampler.empirical_rejection(laplace_tri, 0.0, trials, seed=101)
    r0 = R0_LAPLACE
    se = math.sqrt(r0 * (1.0 - r0) / trials)
    check(
        "9 (empirical r(0))",
        abs(est - r0) <= 4.0 * se,
        f"estimate {est:.6f} vs 1 - 2/e = {r0:.6f} (4 sigma = {4 * se:.2e})",
    )

    cfg = sampler.ChainConfig(steps=10**6, burn_in=1000, seed=3)
    summary = sampler.run(laplace_tri, cfg)
    # stationary acceptance rate by quadrature of r against the target
    def integrand(xs):
        return laplace_tri.rejection_grid(xs)[0] * laplace_tri.target.pdf(xs)

    expect = 1.0 - composite_gauss_legendre(integrand, -40.0, 40.0, 128, (0.0,)).value
    n_eff = cfg.steps - cfg.burn_in
    se = math.sqrt(expect * (1.0 - expect) / n_eff)
    check(
        "9 (pooled acceptance rate)",
        abs(summary.acceptance_rate - expect) <= 3.0 * se,
        f"rate {summary.acceptance_rate:.6f} vs 1 - E[r] = {expect:.6f} "
        f"(3 sigma = {3 * se:.2e})",
    )


def test_criterion_10_note():
    _line(
        "10 (note)",
        True,
        "true r_ess and the spectral gap are not computable at desk scale; "
        "criteria 6-8 exercise the operator inequalities instead",
    )
