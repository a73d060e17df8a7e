"""Target and proposal density models.

Targets may be unnormalized: everything downstream (the accept/reject
kernel, the truncation constants, the tail ratio, the symmetrized
discretization, the sampler) touches the target only through density
ratios, so the normalization constant is never required.

Built-in targets carry closed-form tail ratios; custom expression
targets fall back to the numeric limit (see asymptotics.tau_numeric).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exprlang
from .quad import SupScanConfig, composite_gauss_legendre, sup_scan

__all__ = [
    "ModelError",
    "TailRatio",
    "DensityModel",
    "ProposalModel",
]

log = logging.getLogger(__name__)

_LOG_2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class TailRatio:
    """Limiting right-tail density ratio u -> lim_x pi(x+u)/pi(x), u in [0, s]."""

    mode: str  # "closed-form" | "numeric-limit"
    s: float
    fn: Callable[[float], float]

    def __call__(self, u: float) -> float:
        if u < 0:
            raise ValueError("tail ratio is defined on [0, s]; use reflected() below zero")
        return float(min(1.0, max(0.0, self.fn(u))))

    def reflected(self, u: float) -> float:
        """Extension to negative u via tau(-u) = 1/tau(u), with 1/0 = +inf."""
        if u >= 0:
            return self(u)
        v = self(-u)
        return math.inf if v == 0.0 else 1.0 / v


class DensityModel:
    """Positive continuous (possibly unnormalized) target density on R."""

    def __init__(self, family: str, scale: float = 1.0, source: Optional[str] = None):
        if family not in ("laplace", "gauss", "expr"):
            raise ModelError(f"unknown target family {family!r}")
        if scale <= 0:
            raise ModelError("scale must be positive")
        if family == "expr":
            if not source:
                raise ModelError("expr target requires an expression")
            self._ast = exprlang.parse(source, "x")
            self._fn = exprlang.compile_scalar(self._ast)
            self._array_fn = exprlang.compile_array(self._ast)
        else:
            self._ast = self._fn = self._array_fn = None
        self.family = family
        self.scale = float(scale)
        self.source = source
        #: log of the built-in families' normalizing constant
        self._log_norm = (_LOG_SQRT_2PI if family == "gauss" else _LOG_2) + math.log(self.scale)

    # -- constructors -------------------------------------------------
    @classmethod
    def laplace(cls, scale: float = 1.0) -> "DensityModel":
        return cls("laplace", scale)

    @classmethod
    def gauss(cls, scale: float = 1.0) -> "DensityModel":
        return cls("gauss", scale)

    @classmethod
    def from_expression(cls, source: str) -> "DensityModel":
        return cls("expr", 1.0, source)

    # -- evaluation ---------------------------------------------------
    def log_pdf(self, x):
        """log pi(x); stable in the far tails for the built-in families.
        Accepts scalars or ndarrays.  An expression target evaluates a
        float (the sampler's one call per step) with its compiled scalar
        function, and anything else with its compiled array function."""
        fn = self._fn
        if fn is not None and isinstance(x, float):
            v = fn(float(x))
            if v <= 0.0:
                raise ModelError(f"target density is not positive at x={x}")
            return math.log(v)
        if self.family == "laplace":
            return -abs(x / self.scale) - self._log_norm
        if self.family == "gauss":
            return -0.5 * (x / self.scale) ** 2 - self._log_norm
        vals = self._array_fn(x)
        if np.any(vals <= 0.0):
            bad = float(np.asarray(x, dtype=float)[vals <= 0.0].flat[0])
            raise ModelError(f"target density is not positive at x={bad}")
        return np.log(vals, out=vals)[()]

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def kinks(self, lo: float, hi: float) -> tuple:
        """Points in (lo, hi) where the density may have a kink: 0 for
        laplace, none for gauss, ``exprlang.kinks`` for an expression."""
        if self.family == "expr":
            return exprlang.kinks(self._ast, lo, hi)
        return (0.0,) if self.family == "laplace" and lo < 0.0 < hi else ()

    @property
    def is_builtin(self) -> bool:
        return self.family in ("laplace", "gauss")

    def cdf(self, x) -> np.ndarray:
        """Distribution function, elementwise over an array; built-in
        families only (used by the sampler's KS diagnostic)."""
        z = np.asarray(x, dtype=float) / self.scale
        if self.family == "laplace":
            half_tail = 0.5 * np.exp(-np.abs(z))
            return np.where(z < 0, half_tail, 1.0 - half_tail)
        if self.family == "gauss":
            w = (z / math.sqrt(2.0)).ravel()
            return 0.5 * (1.0 + np.fromiter(map(math.erf, w), float, w.size).reshape(z.shape))
        raise ModelError("cdf is only available for built-in families")

    def tail_ratio(self, s: float) -> Optional[TailRatio]:
        """Closed-form tau when the family admits one, else None."""
        if self.family == "laplace":
            scale = self.scale
            return TailRatio("closed-form", s, lambda u: math.exp(-u / scale))
        if self.family == "gauss":
            return TailRatio("closed-form", s, lambda u: 1.0 if u == 0.0 else 0.0)
        return None

    def __repr__(self):
        if self.family == "expr":
            return f"DensityModel(expr={self.source!r})"
        return f"DensityModel({self.family}, scale={self.scale})"


class ProposalModel:
    """Finite-range random-walk proposal Q(x, dy) = shape(y - x) dy.

    ``shape`` vanishes outside [-s, s] and integrates to one.  Custom
    shapes must declare s explicitly; the constructor verifies the
    declared range, the normalization, and that the declared sup of the
    shape actually dominates it (the sampler's rejection box depends on
    that).
    """

    _VERIFY_POINTS = 50

    def __init__(
        self,
        family: str,
        s: float = 1.0,
        source: Optional[str] = None,
        sup_shape: Optional[float] = None,
    ):
        if family not in ("triangular", "uniform", "epanechnikov", "expr"):
            raise ModelError(f"unknown proposal family {family!r}")
        if s <= 0:
            raise ModelError("proposal range s must be positive")
        self.family = family
        self.s = float(s)
        self.source = source
        if family == "expr":
            if not source:
                raise ModelError("expr proposal requires an expression")
            self._ast = exprlang.parse(source, "u")
            self._array_fn = exprlang.compile_array(self._ast)
        else:
            self._ast = self._array_fn = None

        self._validate_range()
        #: points of (-s, s) where the shape may have a kink
        self.kinks = (0.0,) if family == "triangular" else ()
        if family == "expr":
            # the built-in shapes are normalized in closed form
            self.kinks = exprlang.kinks(self._ast, -self.s, self.s)
            self._validate_normalization()
        self.symmetric = self._check_symmetry()
        self.sup_shape = self._resolve_sup(sup_shape)
        self._warn_if_vanishing_inside()

    # -- constructors -------------------------------------------------
    @classmethod
    def triangular(cls, s: float = 1.0) -> "ProposalModel":
        return cls("triangular", s)

    @classmethod
    def uniform(cls, s: float = 1.0) -> "ProposalModel":
        return cls("uniform", s)

    @classmethod
    def epanechnikov(cls, s: float = 1.0) -> "ProposalModel":
        return cls("epanechnikov", s)

    @classmethod
    def from_expression(cls, source: str, s: float, sup_shape: Optional[float] = None) -> "ProposalModel":
        return cls("expr", s, source, sup_shape)

    # -- evaluation ---------------------------------------------------
    def shape(self, u):
        """Proposal increment density; zero outside [-s, s].  Elementwise
        over an array; a scalar gives a numpy scalar."""
        s = self.s
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) <= s
        if self.family == "triangular":
            out = np.where(inside, (1.0 - np.abs(u) / s) / s, 0.0)
        elif self.family == "uniform":
            out = np.where(inside, 1.0 / (2.0 * s), 0.0)
        elif self.family == "epanechnikov":
            out = np.where(inside, 0.75 * (1.0 - (u / s) ** 2) / s, 0.0)
        else:
            out = np.zeros_like(u)
            if np.any(inside):
                out[inside] = self._array_fn(u[inside])
        return out[()]

    def log_shape(self, u):
        """log shape(u); -inf outside the range or where the shape vanishes."""
        with np.errstate(divide="ignore"):
            return np.log(self.shape(u))

    # -- construction-time verification -------------------------------
    def _validate_range(self):
        if self.family != "expr":
            return
        us = np.linspace(self.s * 1.0001, 2.0 * self.s, self._VERIFY_POINTS)
        for sign in (1.0, -1.0):
            vals = self._array_fn(sign * us)
            if np.any(np.abs(vals) > 0.0):
                bad = float((sign * us)[np.abs(vals) > 0.0][0])
                raise ModelError(
                    f"declared range s={self.s} is wrong: shape({bad}) != 0; "
                    "custom shapes must vanish outside [-s, s]"
                )
        inside = np.linspace(-self.s, self.s, 401)
        if np.any(self.shape(inside) < 0.0):
            raise ModelError("proposal shape must be nonnegative on [-s, s]")

    def _validate_normalization(self):
        res = composite_gauss_legendre(self.shape, -self.s, self.s, breakpoints=(0.0, *self.kinks))
        if abs(res.value - 1.0) > 1e-6:
            raise ModelError(
                f"proposal shape integrates to {res.value:.8f}, not 1; "
                "supply a normalized shape"
            )

    def _check_symmetry(self) -> bool:
        if self.family != "expr":
            return True
        us = np.linspace(0.0, self.s, 101)
        return bool(np.max(np.abs(self.shape(us) - self.shape(-us))) <= 1e-12)

    def _resolve_sup(self, declared: Optional[float]) -> float:
        scan = sup_scan(self.shape, -self.s, self.s, SupScanConfig(coarse_steps=1024, tol_x=1e-10))
        if declared is None:
            return scan.value
        if declared < scan.value * (1.0 - 1e-12):
            raise ModelError(
                f"declared sup {declared} is below the observed shape maximum "
                f"{scan.value}; the rejection-sampling box must dominate"
            )
        return float(declared)

    def _warn_if_vanishing_inside(self):
        us = np.linspace(-self.s * 0.98, self.s * 0.98, 101)
        if np.any(self.shape(us) == 0.0):
            log.warning(
                "proposal shape vanishes inside (-s, s); the asymptotic "
                "(limit) bound assumes a positive shape there"
            )

    def __repr__(self):
        if self.family == "expr":
            return f"ProposalModel(expr={self.source!r}, s={self.s})"
        return f"ProposalModel({self.family}, s={self.s})"
