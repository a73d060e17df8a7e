"""Reference values for the benchmark's output checks, computed apart
from mhbound: closed forms and scipy.integrate.quad on hand-written
densities and the unit triangular proposal q(u) = 1 - |u| on [-1, 1].

Run as a script, it reads a JSON request and prints one JSON object:

    python3 bench/reference.py --request '{"sample": {"families": ["gauss"]}}'

run.py starts it in a child process, so scipy stays out of the memory of
the process whose peak resident set is measured.
"""

from __future__ import annotations

import argparse
import json
import math

from scipy.integrate import quad

#: log pi up to a constant; only ratios of pi enter r(x) and beta_a.
LOG_PI = {
    "laplace": lambda x: -abs(x),
    "gauss": lambda x: -0.5 * x * x,
}
#: normalized densities, for expectations under pi
PDF = {
    "laplace": lambda x: 0.5 * math.exp(-abs(x)),
    "gauss": lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
}
VARIANCE = {"laplace": 2.0, "gauss": 1.0}

#: Laplace target, triangular proposal: gamma_inf = alpha_inf (and
#: alpha_a for every a >= s, because beta_a = beta_inf there).
LAPLACE_ALPHA = 8.0 * math.exp(-0.5) - math.exp(-1.0) - 3.5
#: Laplace: r is largest at x = 0, where r(0) = 1 - 2/e.
LAPLACE_R_INF = 1.0 - 2.0 / math.e

_TOL = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def q(u: float) -> float:
    return max(0.0, 1.0 - abs(u))


def rejection(family: str, x: float) -> float:
    """r(x) = 1 - int q(u) min(1, pi(x+u)/pi(x)) du, split at the kinks
    u = 0 (shape), u = -x (|x+u|) and u = -2x (pi(x+u) = pi(x))."""
    lp = LOG_PI[family]
    lx = lp(x)
    kinks = sorted({k for k in (0.0, -x, -2.0 * x) if -1.0 < k < 1.0})
    accept, _ = quad(lambda u: q(u) * math.exp(min(0.0, lp(x + u) - lx)), -1.0, 1.0, points=kinks, **_TOL)
    return 1.0 - accept


def gauss_alpha(a: float) -> dict:
    """Gauss target: r'_a = 1/2 and the tail supremum of
    sqrt(t(x, x+u) t(x+u, x)) is q(u) exp(-u(2a - u)/4), so
    alpha_a = max(r(a), 1/2 + 2 int_0^1 q(u) exp(-u(2a - u)/4) du)."""
    beta_a, _ = quad(lambda u: q(u) * math.exp(-u * (2.0 * a - u) / 4.0), 0.0, 1.0, **_TOL)
    r_a = rejection("gauss", a)
    return {"a": a, "r_a": r_a, "alpha_a": max(r_a, 0.5 + 2.0 * beta_a)}


def mean_rejection(family: str) -> float:
    """E_pi[r(X)] by double quadrature; the outer integral is split where
    the inner kinks cross the ends of the proposal range."""
    pdf = PDF[family]
    cuts = [-40.0, -1.0, -0.5, 0.0, 0.5, 1.0, 40.0]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part, _ = quad(lambda x: pdf(x) * rejection(family, x), lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200)
        total += part
    return total


def certify_refs(families, profile_points) -> dict:
    out = {}
    for family in sorted(set(families)):
        entry = {"profile": [[x, rejection(family, x)] for x in profile_points]}
        if family == "laplace":
            entry.update(alpha_inf=LAPLACE_ALPHA, gamma_inf=LAPLACE_ALPHA, r_inf=LAPLACE_R_INF)
        else:
            entry.update(alpha_inf=0.5, gamma_inf=0.5, r_inf=0.5)
        out[family] = entry
    return out


def sample_refs(families) -> dict:
    return {
        f: {"acceptance": 1.0 - mean_rejection(f), "mean": 0.0, "variance": VARIANCE[f]}
        for f in sorted(set(families))
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--request", required=True, help="JSON request written by run.py")
    req = json.loads(ap.parse_args().request)
    out = {}
    if "certify" in req:
        c = req["certify"]
        out["certify"] = certify_refs(c["families"], c["profile_points"])
        out["gauss_bound"] = [gauss_alpha(float(a)) for a in c["a_list"]]
    if "sample" in req:
        out["sample"] = sample_refs(req["sample"]["families"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
