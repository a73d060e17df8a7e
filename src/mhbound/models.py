"""Target and proposal density models.

Targets may be unnormalized: everything downstream (the accept/reject
kernel, the truncation constants, the tail ratio, the spectrum's
symmetric matrix, the sampler) touches the target only through density
ratios, so the normalization constant is never required.

Built-in targets carry their closed-form tail slopes; for an expression
target asymptotics.tail_ratio_for estimates them from secants of log pi.
"""

from __future__ import annotations

import ast
import logging
import math
from functools import cache
from typing import Optional

import numpy as np

from . import exprlang
from .quad import composite_gauss_legendre, sup_scan

__all__ = [
    "ModelError",
    "DensityModel",
    "ProposalModel",
    "check_log_pdf",
]

log = logging.getLogger(__name__)

_LOG_2 = math.log(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: log pi of the built-in families, as Python statements that set
#: ``{result}`` from ``{x}`` and read ``scale`` and ``log_norm``.  They run
#: the same operations on floats and arrays, so both give the same bits (the
#: square is a product, not a float pow).  ``_Into`` rewrites them to write
#: an array's result into a caller's array.
_LOG_PDF_SOURCE = {
    "laplace": ["{result} = -abs({x} / scale) - log_norm"],
    "gauss": ["{result} = {x} / scale", "{result} *= {result}", "{result} *= -0.5", "{result} -= log_norm"],
}
#: numpy's ufunc for each operation that _LOG_PDF_SOURCE assigns
_UFUNCS = {ast.USub: np.negative, ast.Sub: np.subtract, ast.Div: np.divide, "abs": np.absolute}


class _Into(ast.NodeTransformer):
    """Runs the statements of _LOG_PDF_SOURCE on an array in the array
    ``out``, with the same operations in the same order: each operation of
    a plain assignment becomes its ufunc with ``out=out``, and augmented
    assignments already work in place.  Each operation reads at most one
    array, ``{x}`` or the operation before it, so all can write into out."""

    def _ufunc(self, key, *args):
        out = ast.keyword("out", ast.Name("out", ast.Load()))
        return ast.Call(ast.Name(_UFUNCS[key].__name__, ast.Load()), list(args), [out])

    def visit_AugAssign(self, node):
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        return self._ufunc(type(node.op), node.left, node.right)

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return self._ufunc(type(node.op), node.operand)

    def visit_Call(self, node):
        self.generic_visit(node)
        return self._ufunc(node.func.id, *node.args)


@cache
def _into_source(family: str) -> str:
    """The source of ``log_pdf_into(x, out)``: a built-in family's
    _LOG_PDF_SOURCE run on an array x in the array out (see _Into)."""
    body = "".join(f"    {line.format(x='x', result='lx')}\n" for line in _LOG_PDF_SOURCE[family])
    tree = _Into().visit(ast.parse(f"def log_pdf_into(x, out):\n{body}    return lx\n"))
    return ast.unparse(tree) + "\n"


class ModelError(ValueError):
    pass


def check_log_pdf(x: np.ndarray, lx: np.ndarray) -> None:
    """Raise a ModelError that names the first x where log pi, ``lx``, is
    -inf.  A built-in family's log pi overflows to -inf far enough out (a
    gauss scale of 1e-300, or a window 1e300 wide), and a difference of two
    -infs is NaN.  The callers check the x arrays they hold anyway, so
    ``log_pdf`` makes no pass of its own."""
    bad = lx == -math.inf
    if bad.any():
        raise ModelError(f"log pi of the target is -inf at x={float(x[bad].flat[0])!r}: the density underflows")


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
            log_tree = exprlang.log_form(self._ast)
            #: whether the compiled code evaluates the expression's log form
            #: (log pi) or, where it has none, its value (pi)
            self._logged = log_tree is not None
            self._tree = log_tree if self._logged else self._ast
            self._array_fn = exprlang.compile_array(self._tree)
        else:
            self._ast = self._array_fn = None
        self.family = family
        self.scale = float(scale)
        self.source = source
        #: log of the built-in families' normalizing constant
        self._log_norm = (_LOG_SQRT_2PI if family == "gauss" else _LOG_2) + math.log(self.scale)
        lines, names = self.log_pdf_source("x", "lx")
        code = "def log_pdf(x):\n" + "".join(f"    {line}\n" for line in lines) + "    return lx\n"
        if family != "expr":
            code += _into_source(family)
            names.update((f.__name__, f) for f in _UFUNCS.values())
        namespace = {"__builtins__": {}, **names}
        exec(compile(code, "<log_pdf>", "exec"), namespace)
        #: ``log_pdf_source`` as a function: of a float for an expression,
        #: of a float or an array for a built-in family
        self._log_pdf = namespace["log_pdf"]
        #: a built-in family's ``log_pdf_source`` on an array, into ``out``
        self._log_pdf_into = namespace.get("log_pdf_into")

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
    def log_pdf(self, x, out=None):
        """log pi(x); stable in the far tails for the built-in families and
        for an expression with a log form.  Accepts scalars or ndarrays.  A
        built-in family, and an expression at a float, run the statements
        of ``log_pdf_source``; an expression evaluates anything else with
        its compiled array function, and raises the same ModelError where
        log pi(x) is not above -inf (which includes NaN).

        ``out``, an array of x's shape, receives the result of an array x
        and is returned; it may be x itself.  A built-in family and an
        expression whose log form reads x once then make no array of their
        own (``exprlang.compile_array``); other expressions make one."""
        if self._ast is None:
            return self._log_pdf(x) if out is None else self._log_pdf_into(x, out)
        if isinstance(x, float):
            return self._log_pdf(float(x))
        vals = self._array_fn(x, out if self._logged else None)
        good = vals > (-math.inf if self._logged else 0.0)
        if not good.all():
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

        A built-in family's statements are its formula.  An expression's
        are the scalar statements of ``exprlang.scalar_lines`` for its log
        form (``exprlang.log_form``), so ``exp(-abs(x))`` runs as
        ``-abs(x)``, with a check that raises ModelError where the value is
        not above -inf.  An expression with no log form gets the statements
        of its value, a check that raises ModelError where the value is not
        positive, and ``math.log``.  Either check catches NaN.
        ``log_pdf`` compiles the statements once per model, and
        ``sampler.run`` inlines them in its step loop."""
        if self._ast is None:
            lines = [line.format(x=x, result=result) for line in _LOG_PDF_SOURCE[self.family]]
            return lines, {"abs": abs, "scale": self.scale, "log_norm": self._log_norm}
        lines, value, names = exprlang.scalar_lines(self._tree, x)
        lines += [
            f"if not {value} > {'-inf' if self._logged else '0.0'}:",
            f"    raise ModelError(f'target density is not positive at x={{{x}}}')",
            f"{result} = {value if self._logged else f'log({value})'}",
        ]
        return lines, {**names, "ModelError": ModelError, "log": math.log, "inf": math.inf}

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

    ``shape`` vanishes outside [-s, s] and integrates to one.  Custom
    shapes must declare s explicitly; the constructor verifies the
    declared range, the normalization, and that the declared sup of the
    shape actually dominates it (the sampler's rejection box depends on
    that).  ``sup_shape`` is that declared sup, or else a built-in shape's
    closed form, shape(0), or an expression's ``sup_scan``.
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
        if self.family == "expr":
            out = np.zeros_like(u)
            inside = np.abs(u) <= s
            if np.any(inside):
                out[inside] = self._array_fn(u[inside])
            return out[()]
        # a built-in shape's operations run in place in one array, and its
        # mask is the one other array
        out = np.abs(u, out=np.empty(u.shape))
        outside = ~(out <= s)
        if self.family == "triangular":
            out /= s
            np.subtract(1.0, out, out=out)
            out /= s
        elif self.family == "uniform":
            out.fill(1.0 / (2.0 * s))
        else:
            np.divide(u, s, out=out)
            out **= 2
            np.subtract(1.0, out, out=out)
            np.multiply(0.75, out, out=out)
            out /= s
        out[outside] = 0.0
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
        if declared is None and self.family != "expr":
            return float(self.shape(0.0))  # every built-in shape peaks at u = 0
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
