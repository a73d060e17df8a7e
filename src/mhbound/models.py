"""Target and proposal density models.

Targets may be unnormalized: everything downstream (the accept/reject
kernel, the truncation constants, the tail ratio, the spectrum's
symmetric matrix, the sampler) touches the target only through density
ratios, so the normalization constant is never required.

Every target's log pi is an ``exprlang`` tree, which ``exprlang``'s one
generator compiles: a built-in family's formula, with ``Num`` nodes that
hold its scale and normalizing constant, or an expression's log form.
Built-in targets also carry their closed-form tail slopes and cdf; for an
expression target asymptotics.tail_ratio_for estimates the slopes from
secants of log pi.

Every proposal shape is an ``exprlang`` tree too, from the same generator:
a built-in shape's D(u/s)/s, with ``Num`` nodes that hold s, or an
expression in u.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Optional

import numpy as np

from . import exprlang
from .exprlang import BinOp, Call, Neg, Num, Var
from .quad import composite_gauss_legendre, sup_scan

__all__ = [
    "ModelError",
    "DensityModel",
    "ProposalModel",
]

log = logging.getLogger(__name__)


class ModelError(ValueError):
    pass


#: each built-in family's log pi at scale 1 as a function of a tree for its
#: variable, and the log of its normalizing constant
_FAMILIES = {
    "laplace": (lambda z: Neg(Call("abs", (z,))), math.log(2.0)),
    "gauss": (lambda z: BinOp("*", BinOp("^", z, Num(2.0)), Num(-0.5)), 0.5 * math.log(2.0 * math.pi)),
}
#: each built-in proposal shape's density D on [-1, 1] as a function of a
#: tree for its variable, and its peak D(0); the shape of range s is D(u/s)/s
_SHAPES = {
    "triangular": (lambda v: BinOp("-", Num(1.0), Call("abs", (v,))), 1.0),
    "uniform": (lambda v: Num(0.5), 0.5),
    "epanechnikov": (lambda v: BinOp("*", Num(0.75), BinOp("-", Num(1.0), BinOp("^", v, Num(2.0)))), 0.75),
}


class DensityModel:
    """Positive continuous (possibly unnormalized) target density on R."""

    def __init__(self, family: str, scale: float = 1.0, source: Optional[str] = None):
        if family not in ("expr", *_FAMILIES):
            raise ModelError(f"unknown target family {family!r}")
        if scale <= 0:
            raise ModelError("scale must be positive")
        self.family = family
        self.scale = float(scale)
        self.source = source
        if family == "expr":
            if not source:
                raise ModelError("expr target requires an expression")
            self._ast = exprlang.parse(source, "x")
            log_tree = exprlang.log_form(self._ast)
        else:
            log_kernel, log_norm = _FAMILIES[family]
            # x / 1.0 is x, so scale 1 needs no division
            z = Var("x") if self.scale == 1.0 else BinOp("/", Var("x"), Num(self.scale))
            self._ast = log_tree = BinOp("-", log_kernel(z), Num(log_norm + math.log(self.scale)))
        #: whether the compiled code evaluates log pi, or pi for an expression
        #: with no log form
        self._logged = log_tree is not None
        self._tree = log_tree if self._logged else self._ast
        #: log pi must be above it, or pi above 0.0
        self._floor = -math.inf if self._logged else 0.0
        self._array_fn = exprlang.compile_array(self._tree)
        #: the m for which the compiled tree is a strictly monotone function
        #: of |x - m|, or None (``exprlang.centre``): d(x, .) then changes
        #: sign at u = 2(m - x) and u = 0 alone
        self.centre = exprlang.centre(self._tree)

    @functools.cached_property
    def _log_pdf(self):
        """``log_pdf_source`` as a function of a float, compiled at the
        first float call: the commands that pass arrays alone never make it."""
        lines, names = self.log_pdf_source("x", "lx")
        code = "def log_pdf(x):\n" + "".join(f"    {line}\n" for line in lines) + "    return lx\n"
        namespace = {"__builtins__": {}, **names}
        exec(compile(code, "<log_pdf>", "exec"), namespace)
        return namespace["log_pdf"]

    # -- evaluation ---------------------------------------------------
    def log_pdf(self, x, out=None):
        """log pi(x); stable in the far tails for the built-in families and
        for an expression with a log form.  Accepts scalars or ndarrays.  A
        float runs the statements of ``log_pdf_source``, and anything else
        the compiled array function of the same tree; both raise the same
        ModelError where log pi(x) is not above -inf (which includes NaN),
        so no caller meets a -inf or a NaN.

        ``out``, an array of x's shape, receives the result of an array x
        and is returned; it may be x itself.  A built-in family and an
        expression whose log form reads x once then make no array of their
        own (``exprlang.compile_array``); other expressions make one."""
        if isinstance(x, float):
            return self._log_pdf(x)
        vals = self._array_fn(x, out if self._logged else None)
        # one pass that allocates nothing; NaN propagates through the minimum
        if not np.minimum.reduce(vals, axis=None, initial=math.inf) > self._floor:
            good = vals > self._floor
            if vals is out and np.may_share_memory(x, out):
                # the log form was evaluated over x, so the point is gone
                raise ModelError(
                    f"target density is not positive: log pi is {vals[~good].flat[0]} at a point whose x "
                    "the evaluation overwrote"
                )
            bad = float(np.asarray(x, dtype=float)[~good].flat[0])
            raise ModelError(f"target density is not positive at x={bad}")
        if out is None:
            out = vals
        if not self._logged:
            np.log(vals, out=out)
        elif vals is not out:  # a log form that reads x more than once
            out[...] = vals
        return out if out.ndim else out[()]

    def log_pdf_source(self, x: str, result: str) -> tuple:
        """log pi as Python statements that set the name ``result`` from the
        float named ``x``, and the namespace they read: ``(statements,
        namespace)``.

        They are the scalar statements of ``exprlang.scalar_lines`` for the
        target's tree: a built-in family's formula, or an expression's log
        form (``exprlang.log_form``), so ``exp(-abs(x))`` runs as
        ``-abs(x)``, followed by a check that raises ModelError where the
        value is not above -inf.  An expression with no log form gets the
        statements of its value, a check that raises ModelError where the
        value is not positive, and ``math.log``.  Either check catches NaN.
        ``log_pdf`` compiles the statements at its first float call, and
        ``sampler.run`` inlines them in its step loop."""
        lines, names = exprlang.scalar_lines(self._tree, x, result)
        lines += [
            f"if not {result} > floor:",
            f"    raise ModelError(f'target density is not positive at x={{{x}}}')",
        ]
        if not self._logged:
            lines.append(f"{result} = log({result})")
        return lines, {**names, "ModelError": ModelError, "log": math.log, "floor": self._floor}

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def kinks(self, lo: float, hi: float) -> tuple:
        """Points in (lo, hi) where the density may have a kink
        (``exprlang.kinks``): 0 for laplace, none for gauss."""
        return exprlang.kinks(self._ast, lo, hi)

    @property
    def is_builtin(self) -> bool:
        return self.family in _FAMILIES

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

    def tail_slopes(self) -> Optional[tuple]:
        """(c_+, c_-), the tails' ratios tau_+-(u) = lim pi(x +- u)/pi(x) =
        e^{c_+- u} as x -> +-inf, in closed form; None for an expression."""
        if self.family == "laplace":
            return (-1.0 / self.scale, -1.0 / self.scale)
        if self.family == "gauss":
            return (-math.inf, -math.inf)
        return None

    def __repr__(self):
        if self.family == "expr":
            return f"DensityModel(expr={self.source!r})"
        return f"DensityModel({self.family}, scale={self.scale})"


class ProposalModel:
    """Finite-range random-walk proposal Q(x, dy) = shape(y - x) dy.

    ``shape`` vanishes outside [-s, s] and integrates to one.  It is a tree
    in u: a built-in shape's D(u/s)/s (``_SHAPES``), or an expression, which
    must declare s and whose range and normalization the constructor
    verifies.  ``sup_shape``, which must be finite, is D(0)/s, a declared
    sup verified to dominate the shape (the sampler's rejection box depends
    on that), or an expression's ``sup_scan``.
    """

    _VERIFY_POINTS = 50

    def __init__(
        self,
        family: str,
        s: float = 1.0,
        source: Optional[str] = None,
        sup_shape: Optional[float] = None,
    ):
        if family not in ("expr", *_SHAPES):
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
        else:
            density = _SHAPES[family][0]
            self._ast = BinOp("/", density(BinOp("/", Var("u"), Num(self.s))), Num(self.s))
        self._array_fn = exprlang.compile_array(self._ast)

        self._validate_range()
        self.sup_shape = self._resolve_sup(sup_shape)
        if not math.isfinite(self.sup_shape):
            raise ModelError(
                f"the proposal shape's sup is {self.sup_shape} at proposal.s={self.s!r}: "
                "this config's scales are beyond what floats resolve"
            )
        #: points of (-s, s) where the shape may have a kink
        self.kinks = exprlang.kinks(self._ast, -self.s, self.s)
        self._validate_normalization()
        self.symmetric = self._check_symmetry()
        self._warn_if_vanishing_inside()

    # -- evaluation ---------------------------------------------------
    def shape(self, u):
        """Proposal increment density; zero outside [-s, s].  Elementwise
        over an array; a scalar gives a numpy scalar.  u is clamped to
        [-s, s] in the result's array, so no tree sees a u outside the
        range, and the points the clamp moved, NaN too, are set to 0.0; a
        tree that reads u once, as the built-in ones do, runs in place."""
        u = np.asarray(u, dtype=float)
        out = np.clip(u, -self.s, self.s, out=np.empty(u.shape))
        moved = out != u
        out = self._array_fn(out, out)
        np.putmask(out, moved, 0.0)
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
        if self.family != "expr":
            return  # the built-in shapes are normalized in closed form
        res = composite_gauss_legendre(self.shape, -self.s, self.s, breakpoints=(0.0, *self.kinks))
        if abs(res.value - 1.0) > 1e-6:
            raise ModelError(
                f"proposal shape integrates to {res.value:.8f}, not 1; "
                "supply a normalized shape"
            )

    def _check_symmetry(self) -> bool:
        us = np.linspace(0.0, self.s, 101)
        return bool(np.max(np.abs(self.shape(us) - self.shape(-us))) <= 1e-12)

    def _resolve_sup(self, declared: Optional[float]) -> float:
        if declared is None and self.family != "expr":
            return _SHAPES[self.family][1] / self.s
        if declared is not None and not math.isfinite(declared):
            raise ModelError(f"declared sup_shape must be finite, got {declared}")
        scan = sup_scan(lambda u: (self.shape(u), 0.0), -self.s, self.s, coarse_steps=1024, tol_x=1e-10)
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
