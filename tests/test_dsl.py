import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from gaslab import dsl


# --- parse / evaluate golden suite ------------------------------------------

GOOD = [
    ("1 + 2*x", {"x": 0.5}, 2.0),
    ("sin(2*3.141592653589793*xi)", {"xi": 0.25}, 1.0),
    ("exp(0)", {}, 1.0),
    ("step(xi - 0.5)", {"xi": 0.6}, 1.0),
    ("step(xi - 0.5)", {"xi": 0.5}, 1.0),     # right-continuous at the switch
    ("step(xi - 0.5)", {"xi": 0.49}, 0.0),
    ("frac(3.4)", {}, pytest.approx(0.4)),
    ("frac(0 - 0.25)", {}, 0.75),
    ("2^3^2", {}, 512.0),                     # right-associative power
    ("-2^2", {}, -4.0),                       # power binds tighter than minus
    ("min(3, t)", {"t": 7.0}, 3.0),
    ("max(3, t)", {"t": 7.0}, 7.0),
    ("abs(0 - 2.5)", {}, 2.5),
    ("(1 + chi)*(1 - chi)", {"chi": 0.5}, 0.75),
    ("cos(0)*ln(exp(2))", {}, pytest.approx(2.0)),
    ("2*-3^2", {}, -18.0),                    # a factor may carry a unary minus
    ("2^-1", {}, 0.5),                        # so may an exponent
    ("-x^2*3", {"x": 2.0}, -12.0),
    ("-x + 1", {"x": 2.0}, -1.0),             # minus binds tighter than +
    ("5.", {}, 5.0),
    (".5e-3", {}, 0.0005),
]

# (source, error, position, message after the position)
BAD = [
    ("x + * 2", dsl.ExprSyntaxError, "1:5", "expected a factor, found '*'"),
    ("sin(x", dsl.ExprSyntaxError, "1:6", "expected ')', found 'end of input'"),
    ("2 *", dsl.ExprSyntaxError, "1:4", "expected a factor, found 'end of input'"),
    ("(x + 2", dsl.ExprSyntaxError, "1:7", "expected ')', found 'end of input'"),
    ("foo(3)", dsl.UnknownIdentifier, "1:1", "unknown identifier 'foo'"),
    ("1e", dsl.ExprSyntaxError, "1:2", "unexpected 'e' after expression"),
    ("1.2.3", dsl.ExprSyntaxError, "1:4", "unexpected '.3' after expression"),
    ("x\n+ *", dsl.ExprSyntaxError, "2:3", "expected a factor, found '*'"),
    ("x\t+ *", dsl.ExprSyntaxError, "1:5", "expected a factor, found '*'"),
    ("x\r\n + *", dsl.ExprSyntaxError, "2:4", "expected a factor, found '*'"),
    ("sin(1, 2)", dsl.ExprSyntaxError, "1:1", "'sin' takes 1 argument(s), got 2"),
    ("min(1)", dsl.ExprSyntaxError, "1:1", "'min' takes 2 argument(s), got 1"),
    ("2 \u00b2", dsl.ExprSyntaxError, "1:3", "bad numeric literal '\u00b2'"),
    ("x @ 2", dsl.ExprSyntaxError, "1:3", "illegal character '@'"),
    ("x )", dsl.ExprSyntaxError, "1:3", "unexpected ')' after expression"),
    ("e5", dsl.UnknownIdentifier, "1:1", "unknown identifier 'e5'"),
]


@pytest.mark.parametrize("source,bindings,expected", GOOD)
def test_golden_evaluate(source, bindings, expected):
    e = dsl.parse(source)
    assert dsl.evaluate(e, **bindings) == expected


@pytest.mark.parametrize("source,exc,pos,message", BAD)
def test_golden_diagnostics(source, exc, pos, message):
    with pytest.raises(exc) as info:
        dsl.parse(source)
    assert str(info.value).startswith(pos)
    assert str(info.value) == f"{pos}: {message}"
    assert f"{info.value.line}:{info.value.col}" == pos


# the characters of numbers, operators, line breaks, the variable and function
# names, and characters str.isdigit or str.isalnum take but no token reads
SOUP = "0123456789.eE+-*/^(), \t\n\rxitchsnoplabmf_\u00b2\u00bd\u00e9\u0663"


@given(source=st.text(alphabet=SOUP, max_size=40))
@example(source="2 \u00b2 \u00bd x\u00e9 \u0663")
@settings(max_examples=500, deadline=None)
def test_parse_returns_an_ast_or_raises_expr_error(source):
    # config.read_table names the key only for ExprError, TypeError and ValueError
    try:
        e = dsl.parse(source)
    except dsl.ExprError:
        return
    assert isinstance(e, (dsl.Num, dsl.Var, dsl.Neg, dsl.Bin, dsl.Call))


def test_syntax_error_carries_position_and_expectations():
    with pytest.raises(dsl.ExprSyntaxError) as info:
        dsl.parse("x + * 2")
    err = info.value
    assert (err.line, err.col) == (1, 5)


def test_unknown_identifier_rejected_at_parse_time():
    with pytest.raises(dsl.UnknownIdentifier):
        dsl.parse("x + y")


def test_unbound_variable_at_evaluation():
    e = dsl.parse("x + t")
    with pytest.raises(dsl.UnboundVariable):
        dsl.evaluate(e, x=1.0)


def test_nonfinite_results_are_errors():
    with pytest.raises(dsl.NonfiniteResult):
        dsl.evaluate(dsl.parse("ln(0 - 1)"))
    with pytest.raises(dsl.NonfiniteResult):
        dsl.evaluate(dsl.parse("1/x"), x=0.0)
    with pytest.raises(dsl.NonfiniteResult):
        dsl.evaluate(dsl.parse("ln(x)"), x=np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=["scalar", "1-D", "2-D"])
def test_nonfinite_sample_in_any_result_shape_is_an_error(shape, bad):
    # one bad sample, the last, in an array result, or a bad scalar result
    e = dsl.parse("2*x + 1")
    if shape:
        x = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
        x.flat[-1] = bad
    else:
        x = float(bad)
    with pytest.raises(dsl.NonfiniteResult, match=r"non-finite value: 2\.0 \* x \+ 1\.0$"):
        dsl.evaluate(e, x=x)


def test_integer_array_result_comes_back_as_float64():
    for shape in [(5,), (1, 5)]:
        x = np.arange(5).reshape(shape)
        for source in ("x", "max(x, x)"):
            out = dsl.evaluate(dsl.parse(source), x=x)
            assert type(out) is np.ndarray and out.dtype == np.float64, source
            assert out.shape == shape and out.ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert dsl.ExprFn("x", ("x",))(np.arange(3)).dtype == np.float64


def test_zero_dimensional_result_comes_back_as_a_python_float():
    for source in ("x", "x + 1", "sin(x)"):
        out = dsl.evaluate(dsl.parse(source), x=np.array(2.0))
        assert type(out) is float, source
    assert dsl.evaluate(dsl.parse("x + 1"), x=np.array(2.0)) == 3.0
    assert type(dsl.ExprFn("x*t", ("x", "t"))(np.array(2.0), 3)) is float


def test_vectorized_evaluation_matches_scalar():
    e = dsl.parse("sin(x)*t + step(x - 0.5)")
    x = np.linspace(0, 1, 11)
    vec = dsl.evaluate(e, x=x, t=2.0)
    for xv, rv in zip(x, vec):
        assert rv == dsl.evaluate(e, x=float(xv), t=2.0)


def test_evaluation_purity_bit_identical():
    e = dsl.parse("sin(2*x) ^ 2 + exp(x/3) - frac(7*x)")
    x = np.linspace(0, 1, 257)
    a = dsl.evaluate(e, x=x)
    b = dsl.evaluate(e, x=x)
    assert a.tobytes() == b.tobytes()


def test_free_variables():
    e = dsl.parse("sin(x) + t*chi")
    assert dsl._compile(e)[1] == {"x", "t", "chi"}


# --- printer round trip -----------------------------------------------------

def exprs(max_depth=4):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False).map(dsl.Num),
        st.sampled_from([dsl.Var(v) for v in dsl.VARIABLES]),
    )

    def extend(children):
        unary = st.builds(dsl.Neg, children)
        binop = st.builds(dsl.Bin, st.sampled_from("+-*/^"), children, children)
        call1 = st.builds(lambda f, a: dsl.Call(f, (a,)),
                          st.sampled_from(dsl.FUNCTIONS_1), children)
        call2 = st.builds(lambda f, a, b: dsl.Call(f, (a, b)),
                          st.sampled_from(dsl.FUNCTIONS_2), children, children)
        return st.one_of(unary, binop, call1, call2)

    return st.recursive(leaves, extend, max_leaves=25)


@given(e=exprs(), rng=st.randoms())
@example(e=dsl.Bin("^", dsl.Var("x"), dsl.Bin("^", dsl.Var("t"), dsl.Num(2.0))),
         rng=random.Random(0))                # ^ is right-associative
@settings(max_examples=200, deadline=None)
def test_pretty_parse_round_trip(e, rng):
    assert dsl.parse(dsl.pretty(e)) == e
    # any whitespace, line breaks included, may stand where pretty puts a space
    first, *rest = dsl.pretty(e).split(" ")
    spaced = first + "".join(rng.choice([" ", "\t", "\n", "\r\n"]) + part for part in rest)
    assert dsl.parse(spaced) == e


def test_expr_fn_rejects_undeclared_variables():
    with pytest.raises(dsl.UnboundVariable):
        dsl.ExprFn("x + t", variables=("x",))
    fn = dsl.ExprFn("x^2 + t", variables=("x", "t"))
    assert fn(3.0, 1.0) == 10.0
    # worker processes receive expressions by pickling
    back = pickle.loads(pickle.dumps(fn))
    assert (back.source, back.variables) == (fn.source, fn.variables)
    x = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(back(x, 0.5), fn(x, 0.5))


# --- compiled evaluation against the tree walker -----------------------------

def walk(e, env):
    """Reference evaluator: a recursive walk over the AST."""
    if isinstance(e, dsl.Num):
        return e.value
    if isinstance(e, dsl.Var):
        if e.name not in env:
            raise dsl.UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, dsl.Neg):
        return -walk(e.arg, env)
    if isinstance(e, dsl.Bin):
        a = walk(e.lhs, env)
        b = walk(e.rhs, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return np.divide(a, b)
        return np.power(a, b)
    args = [walk(a, env) for a in e.args]
    fn = e.fn
    if fn == "sin":
        return np.sin(args[0])
    if fn == "cos":
        return np.cos(args[0])
    if fn == "exp":
        return np.exp(args[0])
    if fn == "ln":
        return np.log(args[0])
    if fn == "abs":
        return np.abs(args[0])
    if fn == "step":
        return np.where(np.asarray(args[0]) >= 0.0, 1.0, 0.0)
    if fn == "frac":
        return args[0] - np.floor(args[0])
    if fn == "min":
        return np.minimum(args[0], args[1])
    return np.maximum(args[0], args[1])


def oracle(e, **bindings):
    """dsl.evaluate with the tree walker in place of the compiled chain."""
    with np.errstate(all="ignore"):
        out = walk(e, bindings)
    if np.isscalar(out) or np.ndim(out) == 0:
        out = float(out)
        if not math.isfinite(out):
            raise dsl.NonfiniteResult(dsl.pretty(e))
        return out
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise dsl.NonfiniteResult(dsl.pretty(e))
    return out


def outcome(evaluate, e, bindings):
    try:
        out = evaluate(e, **bindings)
    except (dsl.NonfiniteResult, dsl.UnboundVariable) as exc:
        return type(exc), str(exc)
    return type(out), np.shape(out), np.asarray(out).tobytes()


scalar = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def bindings(draw):
    """A subset of the variables, each a scalar or an array of 9 samples."""
    out = {}
    for name in dsl.VARIABLES:
        kind = draw(st.sampled_from(["absent", "scalar", "array"]))
        if kind == "scalar":
            out[name] = draw(scalar)
        elif kind == "array":
            out[name] = np.array(draw(st.lists(scalar, min_size=9, max_size=9)))
    return out


@given(e=exprs(), env=bindings())
@example(e=dsl.parse("x ^ t"), env={"x": -8.0, "t": 1.0 / 3.0})   # Python ** gives complex
@example(e=dsl.parse("x ^ t"), env={"x": 10.0, "t": 400.0})       # Python ** overflows
@settings(max_examples=300, deadline=None)
def test_compiled_evaluation_matches_tree_walk_bitwise(e, env):
    want = outcome(oracle, e, env)
    assert outcome(dsl.evaluate, e, env) == want
    assert outcome(dsl.evaluate, dsl.ExprFn(dsl.pretty(e), dsl.VARIABLES), env) == want


# --- nesting depth -------------------------------------------------------------

def test_nesting_past_the_parser_is_a_syntax_error():
    for source in ("(" * 600 + "x" + ")" * 600, "-" * 1200 + "x"):
        with pytest.raises(dsl.ExprSyntaxError, match="nested too deeply"):
            dsl.parse(source)
        with pytest.raises(dsl.ExprSyntaxError, match="nested too deeply"):
            dsl.ExprFn(source, ("x",))


def test_a_tree_deeper_than_max_depth_is_an_expression_error():
    # a 1,000-term sum parses, left-associated into a tree 999 levels deep
    for terms in (1000, dsl.MAX_DEPTH + 1):
        source = "+".join(["x"] * terms)
        dsl.parse(source)
        with pytest.raises(dsl.ExprError, match="nested too deeply"):
            dsl.ExprFn(source, ("x",))


def test_nesting_within_max_depth_evaluates():
    assert dsl.ExprFn("(" * 450 + "x" + ")" * 450, ("x",))(2.0) == 2.0
    assert dsl.ExprFn("+".join(["x"] * 400), ("x",))(2.0) == 800.0
    # MAX_DEPTH - 1 minuses over x: a tree MAX_DEPTH levels deep
    minuses = dsl.MAX_DEPTH - 1
    assert dsl.ExprFn("-" * minuses + "x", ("x",))(2.0) == (-1.0) ** minuses * 2.0
