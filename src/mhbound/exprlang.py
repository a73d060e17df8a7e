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

``compile_scalar`` turns a tree into a Python function of one float once,
for repeated scalar evaluation; ``evaluate`` compiles and calls in one
step.  ``evaluate_array`` walks a tree over a numpy array, with the same
domain rules; a constant exponent of ``^`` stays a float there.
``kinks`` locates the points where a tree may fail to be smooth, so that
quadrature can split there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

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
    "compile_scalar",
    "evaluate",
    "evaluate_array",
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


# -- scalar compilation ---------------------------------------------------
#
# The backend: every operation of the language that can leave its domain or
# overflow, as a plain function on floats.  "+", "-", "*" and negation are
# emitted as Python operators, abs/min/max are the builtins themselves.


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
#: source templates of the operator nodes, filled with operand names
_BINOPS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "div_({}, {})", "^": "pow_({}, {})"}
_CALLS = {"exp": "exp_({})", "log": "log_({})", "sqrt": "sqrt_({})", "abs": "abs({})",
          "min": "min({}, {})", "max": "max({}, {})"}


def _operator(node: Expr):
    """Source template and operand subtrees of an operator node."""
    if isinstance(node, Neg):
        return "-{}", (node.operand,)
    if isinstance(node, BinOp) and node.op in _BINOPS:
        return _BINOPS[node.op], (node.left, node.right)
    if isinstance(node, Call):
        if FUNCTIONS.get(node.func) != len(node.args):
            raise ExprError(f"unknown function {node.func!r} or wrong number of arguments")
        return _CALLS[node.func], node.args
    raise TypeError(f"not an expression node: {node!r}")


def compile_scalar(e: Expr) -> Callable[[float], float]:
    """Compile a tree into a Python function of one float.

    The generated source holds one assignment per operator node, in the
    walk order of the tree (left operand first), so every operation and
    every DomainError happens exactly as a node-by-node evaluation would
    perform it, and no nesting depth reaches the compiler's limits.  It is
    built from the node types alone: the argument is ``v``, temporaries
    are ``t0, t1, ...``, numbers are bound as constants ``c0, c1, ...`` in
    the function's namespace (so inf needs no spelling), and the only
    other names are the backend functions.  The namespace has an empty
    ``__builtins__``.
    """
    constants = {}
    lines = []
    operands = []  # names holding the values of finished subtrees
    stack = [e]  # subtrees to visit, and (template, operand count) to emit
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            template, count = item
            args = operands[-count:]
            del operands[-count:]
            operands.append(f"t{len(lines)}")
            lines.append(f"    {operands[-1]} = {template.format(*args)}\n")
        elif isinstance(item, Num):
            operands.append(f"c{len(constants)}")
            constants[operands[-1]] = item.value
        elif isinstance(item, Var):
            operands.append("v")
        else:
            template, children = _operator(item)
            stack.append((template, len(children)))
            stack.extend(reversed(children))
    source = "def compiled(v):\n" + "".join(lines) + f"    return {operands.pop()}\n"
    namespace = {"__builtins__": {}, **_BACKEND, **constants}
    exec(compile(source, "<exprlang>", "exec"), namespace)
    return namespace["compiled"]


def evaluate(e: Expr, value: float) -> float:
    """IEEE double-precision evaluation at a scalar point.  Domain
    violations raise DomainError instead of producing NaN.

    Compiles ``e`` on every call; to evaluate one tree at many points,
    call ``compile_scalar(e)`` once and call its result."""
    return compile_scalar(e)(float(value))


def evaluate_array(e: Expr, values: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a numpy array; same domain rules as
    evaluate()."""
    values = np.asarray(values, dtype=float)

    def ev(node) -> np.ndarray:
        if isinstance(node, Num):
            return np.full(values.shape, node.value)
        if isinstance(node, Var):
            return values
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Call):
            args = [ev(a) for a in node.args]
            a = args[0]
            if node.func == "exp":
                with np.errstate(over="ignore"):
                    return np.exp(a)
            if node.func == "log":
                if np.any(a <= 0.0):
                    raise DomainError("log", float(a[a <= 0.0].flat[0]))
                return np.log(a)
            if node.func == "abs":
                return np.abs(a)
            if node.func == "sqrt":
                if np.any(a < 0.0):
                    raise DomainError("sqrt", float(a[a < 0.0].flat[0]))
                return np.sqrt(a)
            if node.func == "min":
                return np.minimum(a, args[1])
            if node.func == "max":
                return np.maximum(a, args[1])
            raise ExprError(f"unknown function {node.func!r}")
        if isinstance(node, BinOp) and node.op == "^" and isinstance(node.right, Num):
            # a constant exponent stays a float: the domain checks are
            # scalar tests, and np.power takes no exponent array
            a = ev(node.left)
            b = node.right.value
            if math.isfinite(b) and b != math.floor(b) and np.any(a < 0.0):
                raise DomainError("^", float(a[a < 0.0].flat[0]))
            if b < 0.0 and np.any(a == 0.0):
                raise DomainError("^", b)
            with np.errstate(over="ignore"):
                return np.power(a, b)
        if isinstance(node, BinOp):
            a = ev(node.left)
            b = ev(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if np.any(b == 0.0):
                    raise DomainError("/", 0.0)
                return a / b
            if node.op == "^":
                frac = np.isfinite(b) & (b != np.floor(b))
                if np.any((a < 0.0) & frac):
                    raise DomainError("^", float(a[(a < 0.0) & frac].flat[0]))
                if np.any((a == 0.0) & (b < 0.0)):
                    raise DomainError("^", float(b[(a == 0.0) & (b < 0.0)].flat[0]))
                with np.errstate(over="ignore"):
                    return np.power(a, b)
        raise TypeError(f"not an expression node: {node!r}")

    return ev(e)


#: points of the sign-change scan in ``kinks``, and bisection steps per root
_KINK_SCAN_POINTS = 4097
_KINK_BISECTIONS = 60


def kinks(e: Expr, lo: float, hi: float) -> tuple:
    """Sorted points of (lo, hi) where ``e`` may have a kink: zeros of an
    abs or sqrt argument, of the base of a ``^`` whose exponent is not an
    integer constant, and of the difference of the arguments of min or max.

    Each such function is scanned on _KINK_SCAN_POINTS points.  A zero
    there counts where a neighbour is not zero (the ends of a run of
    zeros); sign changes are refined by bisection, all at once.  A zero
    only touched between two points is missed.  A DomainError here is one
    that ``e`` itself raises on [lo, hi]."""
    xs = np.linspace(lo, hi, _KINK_SCAN_POINTS)
    found = set()
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
        v = evaluate_array(g, xs)
        zero = v == 0.0
        ends = zero & (np.r_[False, ~zero[:-1]] | np.r_[~zero[1:], False])
        found.update(xs[ends].tolist())
        i = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)
        a, b, sign_a = xs[i], xs[i + 1], np.sign(v[i])
        for _ in range(_KINK_BISECTIONS if i.size else 0):
            m = 0.5 * (a + b)
            left = np.sign(evaluate_array(g, m)) == sign_a
            a, b = np.where(left, m, a), np.where(left, b, m)
        found.update((0.5 * (a + b)).tolist())
    return tuple(sorted(x for x in found if lo < x < hi))
