import gc
import math
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhbound import exprlang
from mhbound.exprlang import (
    BinOp,
    Call,
    DomainError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    compile_array,
    compile_scalar,
    evaluate,
    evaluate_array,
    parse,
    to_source,
)
from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel
from oracles import rejection_by_quad


def test_parse_laplace_density_structure():
    tree = parse("exp(-abs(x))/2", "x")
    assert isinstance(tree, BinOp) and tree.op == "/"
    assert tree.right == Num(2.0)
    call = tree.left
    assert isinstance(call, Call) and call.func == "exp"
    neg = call.args[0]
    assert isinstance(neg, Neg)
    assert neg.operand == Call("abs", (Var("x"),))


def test_power_right_associative():
    assert evaluate(parse("x ^ 2 ^ 3", "x"), 2.0) == 256.0


def test_unary_minus_binds_below_power():
    tree = parse("-x^2", "x")
    assert isinstance(tree, Neg)
    assert isinstance(tree.operand, BinOp) and tree.operand.op == "^"
    assert evaluate(tree, 3.0) == -9.0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("min(1, u)", "x")
    assert exc.value.name == "u"


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x", "x")


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse("   ", "x")


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + $", "x")
    assert exc.value.offset == 4


def test_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse("min(1)", "x")
    with pytest.raises(ExprSyntaxError):
        parse("exp(1, 2)", "x")


def test_eval_examples():
    assert evaluate(parse("exp(-abs(x))/2", "x"), 0.0) == 0.5
    assert evaluate(parse("(1-abs(x))*max(0,1-abs(x))^0", "x"), 0.5) == 0.5


def test_domain_errors():
    # on both backends; a division by the number 0 keeps its check, and so
    # does a power whose exponent is not 2
    for source, x, function in [
        ("log(x)", -1.0, "log"),
        ("sqrt(x)", -4.0, "sqrt"),
        ("1/x", 0.0, "/"),
        ("x/0", 2.0, "/"),
        ("x^0.5", -2.0, "^"),
        ("(-x)^2.5", 1.0, "^"),
        ("x^-1", 0.0, "^"),
    ]:
        with pytest.raises(DomainError) as exc:
            compile_scalar(parse(source, "x"))(x)
        assert exc.value.function == function, source
        with pytest.raises(DomainError) as exc:
            compile_array(parse(source, "x"))(np.array([1.5, x]))
        assert exc.value.function == function, source


def test_compiled_deep_nesting_and_infinite_literal():
    # one assignment per node: a nested expression of 900 unary minuses
    # would pass CPython's 200-level parenthesis limit
    deep = "-" * 900 + "x"
    assert evaluate(parse(deep, "x"), 2.5) == 2.5
    assert DensityModel("expr", source=deep).log_pdf(2.5) == math.log(2.5)
    # the literal parses to inf, which has no Python spelling
    assert evaluate(parse("1e999 - x", "x"), 3.0) == math.inf
    assert DensityModel("expr", source="1e999 - x").log_pdf(3.0) == math.inf


def test_compiled_namespace_has_no_builtins():
    fn = compile_scalar(parse("min(x, 2) ^ 1.5 + 3", "x"))
    assert fn.__globals__["__builtins__"] == {}
    assert set(fn.__globals__) == set(exprlang._BACKEND) | {"__builtins__", "compiled", "c0", "c1", "c2"}
    # names in a tree never reach the generated source
    assert compile_scalar(Var("__import__('os')"))(4.0) == 4.0
    with pytest.raises(exprlang.ExprError):
        compile_scalar(Call("__import__", (Num(1.0),)))
    with pytest.raises(exprlang.ExprError):
        compile_scalar(Call("exp", ()))


def test_scientific_notation():
    assert evaluate(parse("1.5e2 + .5", "x"), 0.0) == 150.5


# hand-computed table: (source, x, expected)
HAND_TABLE = [
    ("1 + 2 * 3", 0.0, 7.0),
    ("(1 + 2) * 3", 0.0, 9.0),
    ("2 ^ 3 ^ 2", 0.0, 512.0),
    ("-2 ^ 2", 0.0, -4.0),
    ("x - x", 3.25, 0.0),
    ("abs(-x)", -4.0, 4.0),
    ("sqrt(x ^ 2)", -3.0, 3.0),
    ("exp(0)", 1.0, 1.0),
    ("log(exp(x))", 2.5, 2.5),
    ("min(x, 2)", 5.0, 2.0),
    ("max(x, 2)", 5.0, 5.0),
    ("min(max(x, 0), 1)", -3.0, 0.0),
    ("1 / 4", 0.0, 0.25),
    ("10 - 2 - 3", 0.0, 5.0),
    ("12 / 3 / 2", 0.0, 2.0),
    ("2 * x ^ 2", 3.0, 18.0),
    ("(1 - abs(x)) * exp(-x)", 0.0, 1.0),
    ("1e-2 * x", 100.0, 1.0),
    ("-(-x)", 7.0, 7.0),
    ("x ^ -1", 4.0, 0.25),
    ("1e200 ^ 2", 0.0, math.inf),
    ("x / 2", 5.0, 2.5),
]


@pytest.mark.parametrize("source,x,expected", HAND_TABLE)
def test_hand_table(source, x, expected):
    assert evaluate(parse(source, "x"), x) == pytest.approx(expected, abs=1e-14)


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var("x")
        return Num(round(rng.uniform(0.0, 10.0), 3))
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(_random_expr(rng, depth - 1))
    if kind == 1:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    func = rng.choice(list(exprlang.FUNCTIONS))
    args = tuple(_random_expr(rng, depth - 1) for _ in range(exprlang.FUNCTIONS[func]))
    return Call(func, args)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "square, product",
    [("x^2", "x*x"), ("(x-1/3)^2", "(x-1/3)*(x-1/3)"), ("sqrt(abs(x))^2", "sqrt(abs(x))*sqrt(abs(x))")],
)
def test_square_is_the_product_on_both_backends(square, product):
    # a^2 is emitted as a * a: the product's bits on floats and arrays, no
    # pow_ call, and inf where it overflows, with no error
    xs = np.array([1e200, -1e200, 800.0, *np.random.default_rng(12).normal(scale=10.0, size=1000).tolist()])
    want = evaluate_array(parse(product), xs)
    scalars = np.array([evaluate(parse(square), x) for x in xs.tolist()])
    for got in (scalars, evaluate_array(parse(square), xs)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), square
    lines, _ = exprlang.scalar_lines(parse(square), "x", "y")
    assert not any("pow_" in line for line in lines)


@pytest.mark.parametrize(
    "source, checked", [("x/2", False), ("x/1e-300", False), ("x/0", True), ("x/x", True), ("x/-2", True)]
)
def test_division_by_a_nonzero_number_has_no_check(source, checked):
    # a Num divisor other than 0 cannot leave the domain; -2 is a negation
    lines, _ = exprlang.scalar_lines(parse(source), "x", "y")
    assert any("div_" in line for line in lines) == checked
    assert lines[-1].startswith("y = ")


def test_round_trip_1000_random_expressions():
    rng = random.Random(20240817)
    for _ in range(1000):
        tree = _random_expr(rng, 4)
        text = to_source(tree)
        assert parse(text, "x") == tree, text


def test_array_matches_scalar_on_random_expressions():
    rng = random.Random(99)
    xs = np.linspace(-3.0, 3.0, 11)
    for depth in (3, 4):
        checked = 0
        while checked < 200:
            tree = _random_expr(rng, depth)
            scalars = []
            try:
                for x in xs:
                    scalars.append(evaluate(tree, float(x)))
            except DomainError:
                continue
            if not all(math.isfinite(v) for v in scalars):
                continue
            arr = evaluate_array(tree, xs)
            np.testing.assert_allclose(arr, scalars, rtol=1e-13, atol=1e-13)
            # results are written into temporaries only, never the input
            np.testing.assert_array_equal(xs, np.linspace(-3.0, 3.0, 11))
            checked += 1


def test_array_result_is_a_new_array_of_the_input_shape():
    xs = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    for source in ("x", "2", "exp(-1)", "-x", "x - x"):
        got = evaluate_array(parse(source, "x"), xs)
        assert got.shape == xs.shape and not np.shares_memory(got, xs), source
        got[...] = 0.0
    np.testing.assert_array_equal(xs, np.linspace(-1.0, 1.0, 6).reshape(2, 3))
    assert evaluate_array(parse("x^2 + 1", "x"), np.asarray(3.0)) == 10.0
    assert evaluate_array(parse("x^2 + 1", "x"), np.asarray(3.0)).shape == ()


def test_evaluate_array_drops_its_input():
    # with the cyclic collector off, the input dies with the caller's last
    # reference: evaluation holds none once it returns
    gc.disable()
    try:
        xs = np.linspace(-1.0, 1.0, 5)
        ref = weakref.ref(xs)
        evaluate_array(parse("exp(-abs(x)) + min(x, 0.5)^2", "x"), xs)
        del xs
        assert ref() is None
    finally:
        gc.enable()


def test_array_domain_error():
    with pytest.raises(DomainError):
        evaluate_array(parse("log(x)", "x"), np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "tree",
    [
        parse("x^2", "x"),
        parse("x^3", "x"),
        parse("x^1.5", "x"),
        parse("abs(x)^0.5", "x"),
        parse("(-x)^7", "x"),
        parse("x^0", "x"),
        BinOp("^", Var("x"), Num(-2.0)),
        BinOp("^", Var("x"), Num(-0.5)),
    ],
)
def test_array_constant_exponent_matches_compiled(tree):
    # a Num exponent stays a float in the array backend; with an exact
    # base, each value is within one ulp of math.pow's
    assert isinstance(tree, BinOp) and isinstance(tree.right, Num)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-5.0, 5.0, 4001)
    if tree.right.value != math.floor(tree.right.value):
        xs = np.abs(xs)
    fn = compile_scalar(tree)
    want = np.array([fn(float(x)) for x in xs])
    got = evaluate_array(tree, xs)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), to_source(tree)


def test_array_constant_exponent_domain_errors():
    zeros = np.zeros(3)
    with pytest.raises(DomainError) as exc:
        evaluate_array(parse("(-2)^0.5", "x"), zeros)
    assert (exc.value.function, exc.value.argument) == ("^", -2.0)
    with pytest.raises(DomainError) as exc:
        evaluate_array(parse("x^0.5", "x"), np.array([1.0, -3.0, -2.0]))
    assert exc.value.argument == -3.0
    # 0^(-1) reports the exponent, with the exponent a Num or a negation
    for tree in (BinOp("^", Num(0.0), Num(-1.0)), parse("0^(-1)", "x")):
        with pytest.raises(DomainError) as exc:
            evaluate_array(tree, zeros)
        assert exc.value.argument == -1.0 and "-1.0" in str(exc.value)
    np.testing.assert_array_equal(evaluate_array(parse("(-2)^3", "x"), zeros), [-8.0, -8.0, -8.0])
    np.testing.assert_array_equal(evaluate_array(parse("x^2", "x"), np.array([-3.0, 0.0])), [9.0, 0.0])


def test_array_variable_exponent():
    # an exponent that is not a Num is evaluated as an array, elementwise
    np.testing.assert_array_equal(evaluate_array(parse("(-2)^x", "x"), np.array([2.0, 3.0])), [4.0, -8.0])
    with pytest.raises(DomainError) as exc:
        evaluate_array(parse("(-2)^x", "x"), np.array([2.0, 0.5]))
    assert exc.value.argument == -2.0
    with pytest.raises(DomainError) as exc:
        evaluate_array(parse("(x-1)^x", "x"), np.array([2.0, 1.0, -1.0, 0.5]))
    assert exc.value.argument == -0.5
    with pytest.raises(DomainError) as exc:
        evaluate_array(parse("0^x", "x"), np.array([1.0, -1.5]))
    assert exc.value.argument == -1.5


def test_trees_are_immutable():
    tree = parse("x + 1", "x")
    with pytest.raises(Exception):
        tree.op = "-"


def test_compiled_matches_sympy_on_random_expressions():
    # independent oracle: sympy's own parse of the printed tree, lambdified
    # onto the math module, wherever neither side raises; the array backend
    # is checked on the points where the scalar one raised no DomainError
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x", real=True)
    names = {"x": x, "abs": sympy.Abs, "min": sympy.Min, "max": sympy.Max}
    rng = random.Random(20240817)
    points = [-3.0, -1.5, -0.25, 0.0, 0.7, 2.0, 5.5]
    compared = compared_array = 0
    for _ in range(1000):
        tree = _random_expr(rng, 4)
        text = to_source(tree).replace("^", "**")
        try:
            ref = sympy.lambdify(x, sympy.parse_expr(text, local_dict=names, evaluate=False), "math")
        except (ValueError, TypeError):
            continue  # e.g. min of a non-real constant, which sympy cannot order
        fn = compile_scalar(tree)
        scalars = {}
        for p in points:
            try:
                scalars[p] = fn(p)
            except DomainError:
                continue
        if not scalars:
            continue
        arrays = dict(zip(scalars, compile_array(tree)(np.array(list(scalars))).tolist()))
        for p, got in scalars.items():
            try:
                want = ref(p)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            if not (isinstance(want, float) and math.isfinite(want)):
                continue
            if math.isfinite(got):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (text, p)
                compared += 1
            if math.isfinite(arrays[p]):
                assert arrays[p] == pytest.approx(want, rel=1e-12, abs=1e-300), (text, p, "array")
                compared_array += 1
    assert compared > 5000 and compared_array > 5000


def _random_log_expr(rng: random.Random, depth: int):
    """A random tree with a log form: a positive number, exp of any tree,
    a product or quotient of two such trees, or such a tree to any power or
    under a square root."""
    if depth == 0 or rng.random() < 0.2:
        return Num(round(rng.uniform(0.001, 10.0), 3))
    kind = rng.randrange(4)
    if kind == 0:
        return Call("exp", (_random_expr(rng, depth - 1),))
    if kind == 1:
        return BinOp(rng.choice("*/"), _random_log_expr(rng, depth - 1), _random_log_expr(rng, depth - 1))
    if kind == 2:
        return Call("sqrt", (_random_log_expr(rng, depth - 1),))
    return BinOp("^", _random_log_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_log_form_matches_sympy_on_random_expressions():
    # independent oracle: the log of sympy's value of the printed tree,
    # lambdified onto the math module, where that value is a positive normal
    # float; on trees built to have a log form and on random trees that
    # happen to.  Where the log form raises DomainError, the tree does too
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x", real=True)
    names = {"x": x, "abs": sympy.Abs, "min": sympy.Min, "max": sympy.Max}
    rng = random.Random(271828)
    points = [-3.0, -1.5, -0.25, 0.0, 0.7, 2.0, 5.5]
    compared = 0
    for i in range(2000):
        tree = _random_log_expr(rng, 4) if i % 2 else _random_expr(rng, 4)
        form = exprlang.log_form(tree)
        if i % 2:
            assert form is not None, to_source(tree)
        if form is None:
            continue
        text = to_source(tree).replace("^", "**")
        try:
            ref = sympy.lambdify(x, sympy.parse_expr(text, local_dict=names, evaluate=False), "math")
        except (ValueError, TypeError):
            continue
        fn, value = compile_scalar(form), compile_scalar(tree)
        for p in points:
            try:
                got = fn(p)
            except DomainError:
                with pytest.raises(DomainError):
                    value(p)
                continue
            try:
                want = ref(p)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            if not (isinstance(want, float) and sys.float_info.min <= want < math.inf):
                continue
            assert got == pytest.approx(math.log(want), rel=1e-12, abs=1e-10), (text, p)
            compared += 1
    assert compared > 5000


def test_log_form_fallbacks():
    # a sum, a negation, the variable and the other functions have no log
    # form, and neither has a product or quotient with such a factor, nor a
    # square root of one
    for source in ("exp(-x) + 1", "1/(1+x^2)", "exp(-abs(x)) * max(0, 1 - abs(x)/5)", "-exp(x)", "x", "abs(x)",
                   "log(x)", "sqrt(1 + x^2)", "min(1, exp(x))", "0", "-2"):
        assert exprlang.log_form(parse(source)) is None, source
    cases = [
        ("exp(-abs(x))", "-abs(x)"),
        ("exp(-x^2/2)/2", "-x^2.0 / 2.0 - " + repr(math.log(2.0))),
        ("exp(x)^3 / exp(x)^0.5", "3.0 * x - 0.5 * x"),
        ("4 * 2", repr(math.log(4.0)) + " + " + repr(math.log(2.0))),
        ("sqrt(exp(x))", "0.5 * x"),
        ("exp(-x^2/2)/sqrt(6.2832)", "-x^2.0 / 2.0 - 0.5 * " + repr(math.log(6.2832))),
    ]
    for source, log_source in cases:
        assert to_source(exprlang.log_form(parse(source))) == log_source, source
    # the walk keeps its own stack: 5000 factors are no recursion
    assert exprlang.log_form(parse("*".join(["exp(x)"] * 5000))) is not None


def test_kinks_of_affine_arguments_are_solved(monkeypatch):
    # an affine abs argument or min/max difference has its zero solved from
    # the tree: exactly, the same on every interval, and with no scan (which
    # would compile the argument)
    monkeypatch.setattr(exprlang, "compile_array", None)
    for lo, hi in ((-67.3, 66.1), (-1.0, 5.0), (-1e-3, 1e-9)):
        got = exprlang.kinks(parse("exp(-abs(x))"), lo, hi)
        assert got == (0.0,) and math.copysign(1.0, got[0]) == 1.0
    assert exprlang.kinks(parse("exp(-abs(x-3))+exp(-abs(x+3))"), -20.0, 7.5) == (-3.0, 3.0)
    assert exprlang.kinks(parse("max(2*x - 1, -x/4) + min(x, x) + abs(2)"), -5.0, 5.0) == (1.0 / 2.25,)
    assert exprlang.kinks(parse("abs(x/4 + 3)"), -5.0, 5.0) == ()
    # nor is the scan's grid made
    tracemalloc.start()
    try:
        exprlang.kinks(parse("-abs(x/2.5) - 0.5"), -3.0, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * exprlang._KINK_SCAN_POINTS / 4


def test_kinks_examples():
    cases = [
        ("0.5*max(0, min(1, 1.5-abs(u)))", "u", -1.5, 1.5, [-0.5, 0.0, 0.5]),
        ("exp(-abs(x-3))+exp(-abs(x+3))", "x", -20.0, 20.0, [-3.0, 3.0]),
        ("sqrt(abs(x-1/3)) + x^0.5", "x", 0.0, 2.0, [1.0 / 3.0]),
        # a run of zeros counts at its ends; a zero at an end of the
        # interval, a constant and an identically zero difference do not
        ("max(0, min(0, x)) + abs(x+1)^1.5 + abs(2) + min(x, x)", "x", -1.0, 1.0, [0.0]),
        ("x^2 + exp(x)", "x", -1.0, 1.0, []),
    ]
    for source, var, lo, hi, expected in cases:
        got = exprlang.kinks(parse(source, var), lo, hi)
        assert list(got) == sorted(got)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=2e-16, err_msg=source)


def test_kinks_find_a_zero_touched_between_scan_points():
    # sqrt(x^2 - 2x + 1) is |x - 1|: its argument touches 0 at x = 1 without
    # changing sign, between scan points on [-3, 3] and on one at [-3, 5];
    # so does the difference (x - 1)^2 of the arguments of max(x^2, 2x - 1)
    for source in ("sqrt(x^2 - 2*x + 1)", "max(x^2, 2*x - 1)"):
        tree = parse(source, "x")
        for lo, hi in ((-3.0, 3.0), (-3.0, 5.0)):
            got = exprlang.kinks(tree, lo, hi)
            assert len(got) == 1 and abs(got[0] - 1.0) <= 1e-7, (source, lo, hi, got)
    # a positive minimum is no kink, and a touch next to a found kink is
    # that kink
    assert exprlang.kinks(parse("sqrt(x^2 + 1e-3)", "x"), -3.0, 3.0) == ()
    got = exprlang.kinks(parse("sqrt(abs(x - 1/3)) + abs(x - 1/3)", "x"), -3.0, 3.0)
    np.testing.assert_allclose(got, [1.0 / 3.0], rtol=0.0, atol=1e-15)


def test_kinks_cover_dense_second_difference_scan():
    # every kink that a dense scan sees, a second difference far above
    # both of its neighbours three steps away, lies within two steps of a
    # point that kinks() returns
    rng = random.Random(5)
    lo, hi = -3.0, 3.0
    xs = np.linspace(lo, hi, 60001)
    h = xs[1] - xs[0]
    checked = seen = 0
    while checked < 300:
        tree = _random_expr(rng, 4)
        try:
            with np.errstate(all="ignore"):
                f = evaluate_array(tree, xs)
        except DomainError:
            continue
        if not np.all(np.isfinite(f)) or np.max(np.abs(f)) > 1e3:
            continue
        checked += 1
        found = np.array(exprlang.kinks(tree, lo, hi))
        assert np.all((lo < found) & (found < hi))
        d2 = np.abs(f[:-2] - 2.0 * f[1:-1] + f[2:])
        left, right = np.r_[np.full(3, np.inf), d2[:-3]], np.r_[d2[3:], np.full(3, np.inf)]
        around = np.where(np.isinf(np.maximum(left, right)), np.minimum(left, right), np.maximum(left, right))
        for x in xs[1:-1][(d2 > 1e-9) & (d2 > 100.0 * around)]:
            seen += 1
            assert found.size and np.min(np.abs(found - x)) <= 2.0 * h, (to_source(tree), x, found)
    assert seen > 20


#: slopes and numbers of the trees drawn below; a slope is never 0
SLOPES = st.floats(0.2, 3.0).flatmap(lambda a: st.sampled_from([a, -a]))
NUMBERS = st.floats(-4.0, 4.0)
FACTORS = st.floats(0.1, 3.0)


@st.composite
def rising_terms(draw):
    """(source, m): a term that rises strictly in |x - m|, with m the zero
    of its affine argument a*x + b: abs(a*x+b)^p, (a*x+b)^2 or a positive
    sum of both."""
    a, b = draw(SLOPES), draw(NUMBERS)
    line = f"({a!r}*x + {b!r})"
    powered = f"abs{line}^{draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))!r}"
    source = draw(st.sampled_from([f"abs{line}", powered, f"{line}^2", f"{line}^4"]))
    if draw(st.booleans()):
        source = f"{draw(FACTORS)!r}*{source} + {draw(FACTORS)!r}*{line}^2"
    return source, -b / a + 0.0


@st.composite
def centred_trees(draw):
    """(source, m) of a tree whose centre is m: a rising term under a
    random chain of exp, log, sqrt, negation, a number added or taken off,
    a nonzero factor and a division by one."""
    source, m = draw(rising_terms())
    wraps = ["exp({})", "log({})", "sqrt({})", "-({})", "({}) + {c!r}", "{c!r} - ({})", "{c!r}*({})", "({})/{c!r}"]
    for wrap in draw(st.lists(st.sampled_from(wraps), max_size=3)):
        c = draw(NUMBERS.filter(lambda c: c != 0.0))
        source = wrap.format(source, c=c)
    return source, m


@st.composite
def uncentred_trees(draw):
    """A tree with no centre: a bimodal sum, an odd power of an affine
    argument, min or max, an affine term plus a rising one, or a zero
    factor or slope."""
    term, m = draw(rising_terms())
    a, b, c = draw(SLOPES), draw(NUMBERS), draw(FACTORS)
    other = draw(NUMBERS.filter(lambda n: n != m))
    return draw(st.sampled_from([
        f"exp(-({term})) + exp(-abs(x - {other!r}))",
        f"-({term}) - abs(x - {other!r})",
        f"({a!r}*x + {b!r})^3",
        "x^3",
        f"max({term}, {c!r})",
        f"-min({term}, x^2)",
        f"-({term}) + {c!r}*x",
        f"exp(-({term}) - x/{c!r})",
        f"0*({term})",
        f"exp(-abs(0*x + {b!r}))",
        f"({term} - {c!r})^2",
    ]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    tree=centred_trees(),
    bad=uncentred_trees(),
    family=st.sampled_from(["laplace", "gauss"]),
    scale=st.floats(1e-3, 1e3),
)
def test_centre_of_random_trees(tree, bad, family, scale):
    # the fold reads the tree: a built-in family at any scale, and every
    # tree of a rising term with m and monotone steps, has its m; the
    # others have none, and neither does a term whose power may have a
    # negative base
    source, m = tree
    assert exprlang.centre(parse(source)) == m, source
    assert exprlang.centre(parse(bad)) is None, bad
    assert DensityModel(family, scale).centre == 0.0
    assert DensityModel("expr", source=f"exp(-({source}))").centre == m


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    term=rising_terms(),
    family=st.sampled_from(["laplace", "gauss"]),
    scale=st.floats(0.05, 20.0),
    offsets=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=4),
)
def test_rejection_grid_of_trees_with_a_centre_matches_quad(term, family, scale, offsets):
    # the cut at u = 2(m - x) gives r(x) to 1e-12 of adaptive quadrature
    # split at that kink and at the target's own, u = m - x
    source, m = term
    for target, m in ((DensityModel("expr", source=f"exp(-({source}))"), m), (DensityModel(family, scale), 0.0)):
        k = MhKernel(target, ProposalModel("triangular"))
        assert target.centre == m
        xs = m + np.array(offsets)
        rs, _ = k.rejection_grid(xs)
        for x, r in zip(xs.tolist(), rs.tolist()):
            assert abs(r - rejection_by_quad(k, x, [2.0 * (m - x), m - x])) <= 1e-12, (target, x)
