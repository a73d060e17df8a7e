"""Arithmetic expression language for user-supplied densities and proposal shapes.

Grammar (EBNF):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | VAR | FUNC "(" expr {"," expr} ")" | "(" expr ")"

Conventions fixed here: "^" is right-associative, "-x^2" parses as
"-(x^2)", numbers are IEEE doubles, and there is no implicit
multiplication.  A single variable name is bound at parse time (usually
"x" for targets, "u" for proposal shapes).  Functions: exp, log, abs,
sqrt (unary), min, max (binary).

Parsed trees are immutable (frozen dataclasses) and safe to evaluate
concurrently.

There is one evaluator: a generator that turns a tree into straight-line
Python source once, with two backends for the names in it.
``compile_scalar`` binds them to functions of floats and ``compile_array``
to numpy functions of arrays, with the same domain rules; ``evaluate`` and
``evaluate_array`` compile and call in one step.  ``scalar_lines`` hands
out the scalar statements themselves, for code that inlines them.

``log_form`` rewrites a positive tree into a tree for its logarithm, so
that a density compiled from it is never formed as a value that can
underflow.  ``kinks`` locates the points where a tree may fail to be
smooth, so that quadrature can split there; an affine argument's zero is
solved from the tree.  ``centre`` reads from the tree alone whether it is
a strictly monotone function of |x - m|, and gives m: a target's log
density of that kind is symmetric about m, so a density ratio
pi(x + u)/pi(x) crosses 1 at u = 2(m - x), and nowhere else but u = 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .quad import bisect, zoom

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "DomainError",
    "parse",
    "to_source",
    "scalar_lines",
    "compile_scalar",
    "compile_array",
    "evaluate",
    "evaluate_array",
    "log_form",
    "centre",
    "kinks",
]


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        self.message = message
        super().__init__(f"syntax error at offset {offset}: {message}")


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class DomainError(ArithmeticError):
    """Out-of-domain evaluation (log of a non-positive number, etc.)."""

    def __init__(self, function: str, argument: float):
        self.function = function
        self.argument = argument
        super().__init__(f"domain error: {function}({argument!r})")

    def __reduce__(self):
        # pickled by its fields, as a worker of ``sampler.run`` sends it
        return type(self), (self.function, self.argument)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Neg, BinOp, Call]

FUNCTIONS = {"exp": 1, "log": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(pos, f"unexpected character {source[pos]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, var_name: str):
        self.source = source
        self.var_name = var_name
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(pos, f"expected {op!r}, found {text or 'end of input'!r}")
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(pos, f"unexpected trailing input {text!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, t, p = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        pos, f"{text} takes {arity} argument(s), got {len(args)}"
                    )
                return Call(text, tuple(args))
            if text == self.var_name:
                return Var(text)
            raise UnknownIdentifierError(text, pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            pos, f"expected a number, {self.var_name!r}, function call or '(', found {text or 'end of input'!r}"
        )


def parse(source: str, var_name: str = "x") -> Expr:
    """Parse ``source`` into an expression tree binding the single variable
    ``var_name``.  Raises ExprSyntaxError / UnknownIdentifierError with the
    byte offset of the offending token."""
    if not source or not source.strip():
        raise ExprSyntaxError(0, "empty expression")
    return _Parser(source, var_name).parse()


# precedence levels used by the printer; parenthesization is chosen so that
# parse(to_source(e)) reproduces e structurally.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _PREC_ADD
        if e.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_source(e: Expr) -> str:
    """Pretty-print an expression; round-trips through parse()."""

    def wrap(child: Expr, minimum: int) -> str:
        text = to_source(child)
        if _prec(child) < minimum:
            return f"({text})"
        return text

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        # operand may be a power ("-x^2" reads back as -(x^2)) but not a
        # lower-precedence binary, which would capture the minus sign
        return "-" + wrap(e.operand, _PREC_NEG)
    if isinstance(e, Call):
        return e.func + "(" + ", ".join(to_source(a) for a in e.args) + ")"
    if isinstance(e, BinOp):
        if e.op in "+-":
            return wrap(e.left, _PREC_ADD) + f" {e.op} " + wrap(e.right, _PREC_ADD + 1)
        if e.op in "*/":
            return wrap(e.left, _PREC_MUL) + f" {e.op} " + wrap(e.right, _PREC_MUL + 1)
        # '^' right-associative: left operand must bind tighter than '^',
        # right operand may be a unary chain or another power
        return wrap(e.left, _PREC_ATOM) + "^" + wrap(e.right, _PREC_NEG)
    raise TypeError(f"not an expression node: {e!r}")


def _is_integer(x: float) -> bool:
    return math.isfinite(x) and x == math.floor(x)


# -- compilation ----------------------------------------------------------
#
# One generator writes the source of a tree from its node types alone.  A
# backend gives it a source template per operator and the names that the
# templates call.  Both backends keep the language's domain rules: an
# operation that leaves its domain raises DomainError, and exp and ^
# overflow to inf.
#
# The scalar backend works on floats.  "+", "-", "*" and negation are
# Python operators, abs, min and max the builtins, and the rest these
# functions.


def exp_(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def log_(a: float) -> float:
    if a <= 0.0:
        raise DomainError("log", a)
    return math.log(a)


def sqrt_(a: float) -> float:
    if a < 0.0:
        raise DomainError("sqrt", a)
    return math.sqrt(a)


def div_(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("/", b)
    return a / b


def pow_(a: float, b: float) -> float:
    if a < 0.0 and not _is_integer(b):
        raise DomainError("^", a)
    if a == 0.0 and b < 0.0:
        raise DomainError("^", b)
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf


_BACKEND = {f.__name__: f for f in (exp_, log_, sqrt_, div_, pow_, abs, min, max)}
#: source templates of the operators, filled with operand names: "/c" is a
#: division by a nonzero number and "sq" a square, which need no domain check
#: (a * a has the same bits on floats and arrays, and overflows to inf)
_TEMPLATES = {"neg": "-{}", "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/c": "{} / {}", "sq": "{0} * {0}",
              "/": "div_({}, {})", "^": "pow_({}, {})", "exp": "exp_({})", "log": "log_({})",
              "sqrt": "sqrt_({})", "abs": "abs({})", "min": "min({}, {})", "max": "max({}, {})"}


# The array backend works on numpy arrays, and on floats where an operand is
# a constant.  Every template calls a numpy ufunc or one of these functions
# with an ``out`` argument: the array of an operand that the generated
# code no longer needs, which the result overwrites, or None.  A
# DomainError names the first offending element.


def _first(a, bad) -> float:
    """The first element of ``a`` where ``bad`` holds; ``a`` may be a float
    that stands for an array of the shape of ``bad``."""
    return float(np.broadcast_to(a, np.shape(bad))[bad].flat[0])


def _exp_array(a, out):
    with np.errstate(over="ignore"):
        return np.exp(a, out=out)


def _log_array(a, out):
    bad = a <= 0.0
    if np.any(bad):
        raise DomainError("log", _first(a, bad))
    return np.log(a, out=out)


def _sqrt_array(a, out):
    bad = a < 0.0
    if np.any(bad):
        raise DomainError("sqrt", _first(a, bad))
    return np.sqrt(a, out=out)


def _div_array(a, b, out):
    if np.any(b == 0.0):
        raise DomainError("/", 0.0)
    return np.divide(a, b, out=out)


def _pow_array(a, b, out):
    if np.ndim(b) == 0:
        # a constant exponent: its conditions are scalar tests, and only
        # the base is compared elementwise
        if math.isfinite(b) and b != math.floor(b) and np.any(a < 0.0):
            raise DomainError("^", _first(a, a < 0.0))
        if b < 0.0 and np.any(a == 0.0):
            raise DomainError("^", float(b))
    else:
        bad = (a < 0.0) & np.isfinite(b) & (b != np.floor(b))
        if np.any(bad):
            raise DomainError("^", _first(a, bad))
        bad = (a == 0.0) & (b < 0.0)
        if np.any(bad):
            raise DomainError("^", _first(b, bad))
    with np.errstate(over="ignore"):
        return np.power(a, b, out=out)


_ARRAY_BACKEND = {"negative": np.negative, "add": np.add, "subtract": np.subtract, "multiply": np.multiply,
                  "divide": np.divide, "div_": _div_array, "pow_": _pow_array, "exp_": _exp_array, "log_": _log_array,
                  "sqrt_": _sqrt_array, "abs": np.abs, "min": np.minimum, "max": np.maximum}
#: the operators as calls with ``out``: ufuncs for the Python operators,
#: and the scalar templates' functions otherwise
_ARRAY_TEMPLATES = {"neg": "negative({}, out={out})", "+": "add({}, {}, out={out})",
                    "-": "subtract({}, {}, out={out})", "*": "multiply({}, {}, out={out})",
                    "/c": "divide({}, {}, out={out})", "sq": "multiply({0}, {0}, out={out})",
                    **{key: t.replace(")", ", out={out})") for key, t in _TEMPLATES.items() if "(" in t}}


def _operator(node: Expr):
    """Template key and operand subtrees of an operator node; a square has
    one operand, multiplied by itself."""
    if isinstance(node, Neg):
        return "neg", (node.operand,)
    if isinstance(node, BinOp) and node.op == "^" and node.right == Num(2.0):
        return "sq", (node.left,)
    if isinstance(node, BinOp) and node.op == "/" and isinstance(node.right, Num) and node.right.value != 0.0:
        return "/c", (node.left, node.right)
    if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/", "^"):
        return node.op, (node.left, node.right)
    if isinstance(node, Call):
        if FUNCTIONS.get(node.func) != len(node.args):
            raise ExprError(f"unknown function {node.func!r} or wrong number of arguments")
        return node.func, node.args
    raise TypeError(f"not an expression node: {node!r}")


def _lines(e: Expr, templates: dict, var: str, into: Optional[str] = None):
    """The straight-line statements that compute a tree at the value named
    ``var``, with the operator ``templates`` of a backend: ``(statements,
    name of the result, constants)``.

    There is one assignment per operator node, in the walk order of the
    tree (left operand first), so every operation and every DomainError
    happens exactly as a node-by-node evaluation would perform it, and no
    nesting depth reaches the compiler's limits.  The statements are built
    from the node types alone: temporaries are ``t0, t1, ...``, numbers are
    constants ``c0, c1, ...`` that the caller binds in the namespace (so
    inf needs no spelling), and the only other names are the backend's.
    ``var`` must be none of these names.

    A temporary's name is taken again once its value has been consumed.
    An operand that depends on ``var`` and sits in a temporary is the
    template's ``out``, and the result takes its name: on arrays, the
    operation then writes into an array that only this code holds, and a
    chain of operations allocates one array.  When the tree reads ``var``
    once, the operation that reads it takes the name ``into``, if given, as
    its ``out``: then every operation that depends on ``var`` writes into
    that array, and none allocates one."""
    if into is not None and _fold(e, lambda node, reads: sum(reads, isinstance(node, Var))) != 1:
        into = None
    constants = {}
    lines = []
    operands = []  # (name, whether it depends on var) of finished subtrees
    free = []  # temporaries whose values have been consumed
    stack = [e]  # subtrees to visit, and (template key, operand count) to emit
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            key, count = item
            args = operands[-count:]
            del operands[-count:]
            out = next((name for name, varies in args if varies and name.startswith("t")), None)
            free.extend(name for name, _ in args if name.startswith("t") and name != out)
            if out is None and not free:
                free.append(f"t{len(lines)}")
            target = out or free.pop()
            if out is None and (var, True) in args:
                out = into
            source = templates[key].format(*(name for name, _ in args), out=out)
            lines.append(f"{target} = {source}")
            operands.append((target, any(varies for _, varies in args)))
        elif isinstance(item, Num):
            operands.append((f"c{len(constants)}", False))
            constants[operands[-1][0]] = item.value
        elif isinstance(item, Var):
            operands.append((var, True))
        else:
            key, children = _operator(item)
            stack.append((key, len(children)))
            stack.extend(reversed(children))
    return lines, operands.pop()[0], constants


def scalar_lines(e: Expr, var: str, result: str):
    """``e`` on the scalar backend as statements to inline where a float
    named ``var`` is in scope, the last of which assigns the name
    ``result``: ``(statements, namespace)``.  The namespace binds the
    backend's functions and the tree's constants; ``compile_scalar`` wraps
    the same statements in a function."""
    lines, value, constants = _lines(e, _TEMPLATES, var)
    # the root's operation comes last and assigns value; a leaf has none
    lines = [*lines[:-1], result + lines[-1][len(value) :]] if lines else [f"{result} = {value}"]
    return lines, {**_BACKEND, **constants}


def _generate(e: Expr, names: dict, templates: dict, into: Optional[str] = None) -> Callable:
    """Compile a tree into a Python function of ``v``, and of ``into`` when
    that is given, with the operator ``templates`` of a backend whose
    functions are ``names``: the statements of ``_lines`` and a return.
    The namespace has an empty ``__builtins__``."""
    lines, result, constants = _lines(e, templates, "v", into)
    params = "v" if into is None else f"v, {into}"
    source = f"def compiled({params}):\n" + "".join(f"    {line}\n" for line in lines) + f"    return {result}\n"
    namespace = {"__builtins__": {}, **names, **constants}
    exec(compile(source, "<exprlang>", "exec"), namespace)
    return namespace["compiled"]


def compile_scalar(e: Expr) -> Callable[[float], float]:
    """Compile a tree into a Python function of one float, on the scalar
    backend (``math`` calls and the language's DomainError checks)."""
    return _generate(e, _BACKEND, _TEMPLATES)


def compile_array(e: Expr) -> Callable[..., np.ndarray]:
    """Compile a tree into an elementwise function of a numpy array and an
    optional ``out``, from the same generator as ``compile_scalar`` on the
    numpy backend.

    Numbers stay floats, so a constant exponent of ``^`` is tested as a
    scalar.  The result has the input's shape (a constant tree's value is
    filled in), and the caller may overwrite it.  It is ``out``, an array
    of the input's shape that may be the input itself, when that is given
    and the tree reads its variable at most once; otherwise it is a new
    array.  A float64 array of one or more dimensions goes straight to the
    generated code where the tree operates on its variable."""
    fn = _generate(e, _ARRAY_BACKEND, _ARRAY_TEMPLATES, "out")
    varies = not isinstance(e, Var) and _fold(e, lambda node, reads: any(reads) or isinstance(node, Var))

    def compiled(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if varies and type(values) is np.ndarray and values.ndim and values.dtype == np.float64:
            return fn(values, out)
        values = np.asarray(values, dtype=float)
        # a 0-d input would make numpy scalars, which cannot be ``out``
        vector = np.atleast_1d(values)
        result = fn(vector, None if out is None else np.atleast_1d(out))
        if result is vector or np.ndim(result) == 0:  # the bare variable, or a constant tree
            if out is None:
                out = np.empty(values.shape)
            out[...] = result
            return out
        return result.reshape(values.shape) if values.ndim == 0 else result

    return compiled


def evaluate(e: Expr, value: float) -> float:
    """IEEE double-precision evaluation at a scalar point.  Domain
    violations raise DomainError instead of producing NaN.

    Compiles ``e`` on every call; to evaluate one tree at many points,
    call ``compile_scalar(e)`` once and call its result."""
    return compile_scalar(e)(float(value))


def evaluate_array(e: Expr, values: np.ndarray) -> np.ndarray:
    """Elementwise evaluation over a numpy array, with the domain rules of
    evaluate(): ``compile_array(e)(values)``.  Compiles ``e`` on every
    call; to evaluate one tree on many arrays, call ``compile_array(e)``
    once and call its result."""
    return compile_array(e)(values)


# -- rewrites ---------------------------------------------------------------


def _fold(e: Expr, visit: Callable):
    """``visit(node, results)`` on every node of ``e``, each after its
    operands, where ``results`` are the operands' own results; the root's
    result.  The walk keeps its own stack, as ``_lines`` does, so no
    nesting depth reaches the interpreter's recursion limit."""
    results = []
    stack = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            node, count = item
            args = results[len(results) - count :]
            del results[len(results) - count :]
            results.append(visit(node, args))
        else:
            children = () if isinstance(item, (Num, Var)) else _operator(item)[1]
            stack.append((item, len(children)))
            stack.extend(reversed(children))
    return results.pop()


def _log_node(node: Expr, args: list) -> Optional[Expr]:
    if isinstance(node, Num):
        return Num(math.log(node.value)) if node.value > 0.0 else None
    if isinstance(node, Call) and node.func == "exp":
        return node.args[0]
    if isinstance(node, Call) and node.func == "sqrt" and args[0] is not None:
        return BinOp("*", Num(0.5), args[0])
    if isinstance(node, BinOp) and node.op in "*/" and None not in args:
        return BinOp("+" if node.op == "*" else "-", *args)
    if isinstance(node, BinOp) and node.op == "^" and args[0] is not None:
        return BinOp("*", node.right, args[0])
    return None


def log_form(e: Expr) -> Optional[Expr]:
    """A tree for log e built from the structure of ``e``, or None where
    there is none:

        log(exp a) = a
        log(a * b) = log a + log b,  log(a / b) = log a - log b
        log(a ^ b) = b * log a,      log(sqrt a) = 0.5 * log a
        log c      = the number log c, for a number c > 0

    where a product or quotient needs a log form of both operands, and a
    power or a square root one of its base.  So a tree with a log form is
    positive wherever it is defined.  The log form evaluates only subtrees
    of ``e``, so it raises DomainError only where ``e`` raises one, and it
    has no ``exp``, ``^`` or ``sqrt`` of its own to underflow or overflow.
    Anything else, a sum, a difference, a negation, the variable, or a
    call of abs, log, min or max, has no log form."""
    return _fold(e, _log_node)


def _affine_node(node: Expr, args: list) -> Optional[tuple]:
    if isinstance(node, Num):
        return 0.0, node.value
    if isinstance(node, Var):
        return 1.0, 0.0
    if None in args or isinstance(node, Call) or isinstance(node, BinOp) and node.op == "^":
        return None
    if isinstance(node, Neg):
        return -args[0][0], -args[0][1]
    (a, b), (c, d) = args
    if node.op in "+-":
        sign = 1.0 if node.op == "+" else -1.0
        return a + sign * c, b + sign * d
    if node.op == "*" and (a == 0.0 or c == 0.0):
        return a * d + b * c, b * d
    if node.op == "/" and c == 0.0 and d != 0.0:
        return a / d, b / d
    return None


def _affine(e: Expr) -> Optional[tuple]:
    """(a, b) with e = a x + b, from the structure of ``e``: numbers, the
    variable, negation, sums and differences, products with a constant
    factor and quotients by a nonzero number; None for anything else."""
    return _fold(e, _affine_node)


@dataclass(frozen=True)
class _Radial:
    """A term that is a strictly monotone function of |x - centre|: rising
    in it for sign 1.0 and falling for -1.0, and never negative if
    ``nonneg``."""

    centre: float
    sign: float
    nonneg: bool


def _radial_node(node: Expr, args: list):
    if isinstance(node, BinOp) and len(args) == 1:  # a square, whose operand is its base alone
        args = [*args, (0.0, 2.0)]
    if not any(isinstance(arg, _Radial) for arg in args):
        line = _affine_node(node, args)
        if line is not None or None in args:
            return line
        # an abs, or a positive even integer power, of an affine argument
        power = isinstance(node, BinOp) and node.op == "^" and args[1][0] == 0.0 and args[1][1] > 0.0
        if not (isinstance(node, Call) and node.func == "abs" or power and _is_integer(args[1][1] / 2.0)):
            return None
        a, b = args[0]
        if not (a != 0.0 and math.isfinite(a) and math.isfinite(b)):
            return None
        return _Radial(-b / a + 0.0, 1.0, True)  # + 0.0 makes -0.0 positive
    if isinstance(node, Neg):
        return _Radial(args[0].centre, -args[0].sign, False)
    if isinstance(node, Call):
        if node.func not in ("exp", "log", "sqrt"):
            return None
        return _Radial(args[0].centre, args[0].sign, node.func != "log")
    if None in args:
        return None
    left, right = args
    if isinstance(left, _Radial) and isinstance(right, _Radial):
        # a sum, or a difference, of terms that rise and fall together
        flip = {"+": 1.0, "-": -1.0}.get(node.op)
        if flip is None or left.centre != right.centre or left.sign != flip * right.sign:
            return None
        return _Radial(left.centre, left.sign, left.nonneg and right.nonneg and flip > 0.0)
    # one term and one line, which must be a finite number c
    term, (a, c) = (left, right) if isinstance(left, _Radial) else (right, left)
    if a != 0.0 or not math.isfinite(c):
        return None
    m, sign, nonneg = term.centre, term.sign, term.nonneg
    if node.op == "+":
        return _Radial(m, sign, nonneg and c >= 0.0)
    if node.op == "-":
        return _Radial(m, sign, nonneg and c <= 0.0) if term is left else _Radial(m, -sign, False)
    if (node.op == "*" or node.op == "/" and term is left) and c != 0.0:
        return _Radial(m, sign if c > 0.0 else -sign, nonneg and c > 0.0)
    # t^c rises strictly in t >= 0, where an exponent that is not an
    # integer confines it, and an odd one in every t
    if node.op == "^" and term is left and c > 0.0 and (nonneg or not _is_integer(c / 2.0)):
        return _Radial(m, sign, nonneg or not _is_integer(c))
    return None


def centre(e: Expr) -> Optional[float]:
    """The m for which ``e`` is a strictly monotone function of |x - m|,
    read from the structure of ``e`` (no evaluation), or None.  Such a
    function is

        an abs, or a positive even integer power, of an affine argument
        (see ``_affine``) with finite coefficients and a nonzero slope,
        whose zero is m;
        exp, log, sqrt, a negation, or a positive power of one;
        a sum or difference of one and a finite number, or of two with the
        same m that rise and fall together;
        a product of one and a finite nonzero number, or its quotient by
        one,

    where a power with an even integer exponent needs a base that is never
    negative: an abs or even power of an affine argument, or exp, sqrt or a
    power with an exponent that is not an integer, of one, and their sums
    and positive multiples.  Anything else gives None: a bimodal sum, an
    odd power of an affine argument, min or max, an affine term plus such
    a function, or a product with zero."""
    radial = _fold(e, _radial_node)
    return radial.centre if isinstance(radial, _Radial) else None


#: points of the scan in ``kinks``, quad.bisect's steps per root, and the
#: width, as a fraction of hi - lo, at which the zoom on a touch stops
_KINK_SCAN_POINTS = 4097
_KINK_BISECTIONS = 60
_KINK_TOUCH_TOL_X = 1e-16
#: a refined minimum of |g| at most this fraction of max |g| on the scan is
#: rounding error: g touches zero there
_KINK_TOUCH = 1e-12
#: a touch this fraction of (hi - lo) from a kink already found is that kink
_KINK_MERGE = 1e-12


def kinks(e: Expr, lo: float, hi: float) -> tuple:
    """Sorted points of (lo, hi) where ``e`` may have a kink: zeros of an
    abs or sqrt argument, of the base of a ``^`` whose exponent is not an
    integer constant, and of the difference of the arguments of min or max.

    Such a function g that is affine with finite coefficients (see
    ``_affine``) has its zero solved from the tree, so it is the same for
    every [lo, hi].  Any other g is scanned on _KINK_SCAN_POINTS points.  A
    zero there counts where a neighbour is not zero (the ends of a run of
    zeros); sign changes are refined by ``quad.bisect``.  A zero that g
    only touches between two points leaves an interior strict local minimum
    of |g| with no sign change next to it, refined by ``quad.zoom`` on -|g|
    over its two cells; it counts where the refined |g| is at most
    _KINK_TOUCH times max |g| on the scan, unless it lies within
    _KINK_MERGE (hi - lo) of a kink already found.  A DomainError here is
    one that ``e`` itself raises on [lo, hi]."""
    xs = None  # the scan's points, made for the first argument that is not affine
    found = set()
    touches = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Num, Var)):
            continue
        children = _operator(node)[1]
        stack.extend(children)
        if isinstance(node, Call) and node.func in ("abs", "sqrt"):
            g = children[0]
        elif isinstance(node, Call) and node.func in ("min", "max"):
            g = BinOp("-", *children)
        elif isinstance(node, BinOp) and node.op == "^" and not (
            isinstance(node.right, Num) and _is_integer(node.right.value)
        ):
            g = node.left
        else:
            continue
        line = _affine(g)
        if line is not None and math.isfinite(line[0]) and math.isfinite(line[1]):
            if line[0] != 0.0:  # a nonzero constant has no zero, and a zero one no kink
                found.add(-line[1] / line[0] + 0.0)  # + 0.0 makes -0.0 positive
            continue
        if xs is None:
            xs = np.linspace(lo, hi, _KINK_SCAN_POINTS)
        fn = compile_array(g)
        v = fn(xs)
        zero = v == 0.0
        ends = zero & (np.r_[False, ~zero[:-1]] | np.r_[~zero[1:], False])
        found.update(xs[ends].tolist())
        sign = np.sign(v)
        i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
        a, b = bisect(lambda m: np.sign(fn(m)) == sign[i], xs[i], xs[i + 1], _KINK_BISECTIONS)
        found.update((0.5 * (a + b)).tolist())
        size = np.abs(v)
        mid = size[1:-1]
        j = 1 + np.flatnonzero(
            (mid < size[:-2]) & (mid < size[2:]) & (sign[:-2] == sign[1:-1]) & (sign[1:-1] == sign[2:])
        )
        seeds = xs[j], -size[j], xs[j - 1], xs[j + 1], np.zeros(j.size)
        touch = zoom(lambda z, rows: (-np.abs(fn(z)), 0.0), *seeds, _KINK_TOUCH_TOL_X * (hi - lo))
        scale = np.max(size, initial=0.0, where=np.isfinite(size))
        touches.extend(touch.argmax[-touch.value <= _KINK_TOUCH * scale].tolist())
    kept = sorted(x for x in found if lo < x < hi)
    for x in touches:
        if lo < x < hi and all(abs(x - k) > _KINK_MERGE * (hi - lo) for k in kept):
            kept.append(x)
    return tuple(sorted(kept))
