"""Small arithmetic expression language for field definitions in config files.

Expressions are closed over the variables xi, x, t, chi, the binary operators
+ - * / ^, unary minus, and the functions sin, cos, exp, ln, abs, min, max,
step, frac.  step(e) is 1.0 for e >= 0 and 0.0 otherwise (right-continuous at
the switch), frac(e) is e - floor(e).  Evaluation is pure and vectorizes over
numpy array bindings.  An ExprFn compiles its expression once, when it is
built, to a chain of closures and the set of variables it reads, in one walk;
evaluate() runs that chain.
"""

from dataclasses import dataclass
import math
import operator

import numpy as np

VARIABLES = ("xi", "x", "t", "chi")
FUNCTIONS_1 = ("sin", "cos", "exp", "ln", "abs", "step", "frac")
FUNCTIONS_2 = ("min", "max")


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    """Malformed source; carries its 1-based line and column."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class UnknownIdentifier(ExprError):
    def __init__(self, name, line, col):
        self.name = name
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: unknown identifier '{name}'")


class UnboundVariable(ExprError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"variable '{name}' is not bound")


class NonfiniteResult(ExprError):
    def __init__(self, source=""):
        super().__init__(f"expression produced a non-finite value: {source}")


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


# ---------------------------------------------------------------------------
# Tokenizer

_SINGLE = "+-*/^(),"


def _tokenize(source):
    """Yield (kind, text, line, col) tuples; kind in {num, name, op, end}."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        j = i + 1
        if c.isdigit() or (c == "." and source[j:j + 1].isdigit()):
            dot = c == "."
            while j < n and (source[j].isdigit() or (source[j] == "." and not dot)):
                dot = dot or source[j] == "."
                j += 1
            k = j + 1 + (source[j + 1:j + 2] in ("+", "-"))
            if source[j:j + 1] in ("e", "E") and source[k:k + 1].isdigit():
                j = k + 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{text}'", line, col)
            tokens.append(("num", text, line, col))
        elif c.isalpha() or c == "_":
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], line, col))
        elif c in _SINGLE:
            tokens.append(("op", c, line, col))
        elif c == "\n":
            line, col = line + 1, 0
        elif not c.isspace():
            raise ExprSyntaxError(f"illegal character '{c}'", line, col)
        col += j - i
        i = j
    tokens.append(("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser: precedence climbing over _PREC, the binding strength of each
# operator, which the printer shares; ^ is right-associative.

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def expect(self, text):
        kind, tok, line, col = self.tokens[self.pos]
        if kind != "op" or tok != text:
            shown = tok if kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected '{text}', found '{shown}'", line, col)
        self.pos += 1

    def parse(self):
        e = self.expr(1)
        kind, tok, line, col = self.tokens[self.pos]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected '{tok}' after expression", line, col)
        return e

    def expr(self, least):
        """The expression at the cursor whose binary operators all bind at
        least as tight as `least`; expr(1) reads a whole expression."""
        kind, tok, _, _ = self.tokens[self.pos]
        if kind == "op" and tok == "-":
            self.pos += 1
            # its operand runs up to the next operator below ^
            e = Neg(self.expr(_PREC["neg"]))
        else:
            e = self.factor()
        while True:
            kind, tok, _, _ = self.tokens[self.pos]
            prec = _PREC.get(tok, 0) if kind == "op" else 0
            if prec < least:
                return e
            self.pos += 1
            # ^ is right-associative and its exponent may carry a unary
            # minus; + - * / are left-associative
            e = Bin(tok, e, self.expr(prec if tok == "^" else prec + 1))

    def factor(self):
        kind, tok, line, col = self.tokens[self.pos]
        if kind == "num":
            self.pos += 1
            return Num(float(tok))
        if kind == "name":
            self.pos += 1
            if tok in VARIABLES:
                return Var(tok)
            if tok in FUNCTIONS_1 or tok in FUNCTIONS_2:
                self.expect("(")
                args = [self.expr(1)]
                while self.tokens[self.pos][:2] == ("op", ","):
                    self.pos += 1
                    args.append(self.expr(1))
                self.expect(")")
                arity = 1 if tok in FUNCTIONS_1 else 2
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"'{tok}' takes {arity} argument(s), got {len(args)}",
                        line, col)
                return Call(tok, tuple(args))
            raise UnknownIdentifier(tok, line, col)
        if kind == "op" and tok == "(":
            self.pos += 1
            e = self.expr(1)
            self.expect(")")
            return e
        shown = tok if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a factor, found '{shown}'", line, col)


def parse(source):
    """Parse source text into an AST; raises ExprSyntaxError / UnknownIdentifier,
    the former also for nesting deeper than the parser's recursion reaches."""
    parser = _Parser(_tokenize(source))
    try:
        return parser.parse()
    except RecursionError:
        _, _, line, col = parser.tokens[parser.pos]
        raise ExprSyntaxError("expression nested too deeply", line, col) from None


# ---------------------------------------------------------------------------
# Evaluation

def _step(a):
    return np.where(np.asarray(a) >= 0.0, 1.0, 0.0)


def _frac(a):
    return a - np.floor(a)


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": np.divide, "^": np.power}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "abs": np.abs,
              "step": _step, "frac": _frac, "min": np.minimum, "max": np.maximum}


# the deepest expression tree an ExprFn takes: evaluation nests one closure
# call per level, so this keeps it well inside Python's recursion limit
MAX_DEPTH = 500


def _compile(e):
    """(closure chain env -> value of `e`, frozenset of the variables `e`
    reads, depth of the tree), built in one walk.  Operands are evaluated
    left to right, with the same Python operators and numpy functions a tree
    walk uses, so results are bitwise those of walking the tree."""
    if isinstance(e, Num):
        value = e.value
        return (lambda env: value), frozenset(), 1
    if isinstance(e, Var):
        name = e.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None
        return var, frozenset((name,)), 1
    if isinstance(e, Neg):
        fn, args = operator.neg, (e.arg,)
    elif isinstance(e, Bin):
        fn, args = _OPERATORS[e.op], (e.lhs, e.rhs)
    elif isinstance(e, Call):
        fn, args = _FUNCTIONS[e.fn], e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if len(args) == 1:
        a, names, depth = _compile(args[0])
        return (lambda env: fn(a(env))), names, depth + 1
    (a, lhs, depth_a), (b, rhs, depth_b) = map(_compile, args)
    return (lambda env: fn(a(env), b(env))), lhs | rhs, max(depth_a, depth_b) + 1


def evaluate(e, **bindings):
    """Evaluate an ExprFn, or an AST compiled here, with the given variable
    bindings (scalars or arrays).

    Raises UnboundVariable for missing variables and NonfiniteResult if any
    sample of the result is NaN or infinite.
    """
    expr, run = (e.expr, e.run) if isinstance(e, ExprFn) else (e, _compile(e)[0])
    with np.errstate(all="ignore"):
        out = run(bindings)
    if type(out) is np.ndarray and out.ndim:
        # the common result, checked first: converted only when not float64
        if out.dtype != np.float64:
            out = out.astype(np.float64)
    elif np.isscalar(out) or np.ndim(out) == 0:
        out = float(out)
        if not math.isfinite(out):
            raise NonfiniteResult(pretty(expr))
        return out
    else:
        out = np.asarray(out, dtype=float)
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise NonfiniteResult(pretty(expr))
    return out


# ---------------------------------------------------------------------------
# Pretty-printer (inverse of parse up to whitespace)

def _wrap(text, needed):
    return f"({text})" if needed else text


def pretty(e, parent_prec=0):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.arg, _PREC["neg"])
        return _wrap(f"-{inner}", parent_prec > _PREC["neg"])
    if isinstance(e, Bin):
        p = _PREC[e.op]
        # left operand at own precedence, right one notch tighter for the
        # non-associative/left-associative ops; ^ is right-associative
        if e.op == "^":
            lhs = pretty(e.lhs, p + 1)
            rhs = pretty(e.rhs, p)
        else:
            lhs = pretty(e.lhs, p)
            rhs = pretty(e.rhs, p + 1)
        return _wrap(f"{lhs} {e.op} {rhs}", parent_prec > p)
    if isinstance(e, Call):
        args = ", ".join(pretty(a) for a in e.args)
        return f"{e.fn}({args})"
    raise TypeError(f"not an expression node: {e!r}")


class ExprFn:
    """Picklable callable over the declared variable tuple: the one compiled
    form of an expression, parsed and compiled once, here; positional
    arguments bind to `variables` in order.

    Rejects expressions that read a variable outside `variables`, and trees
    deeper than MAX_DEPTH.
    """

    def __init__(self, source, variables):
        self.source = source
        self.variables = tuple(variables)
        self.expr = parse(source)
        try:
            self.run, names, depth = _compile(self.expr)
        except RecursionError:
            depth = math.inf
        if depth > MAX_DEPTH:
            raise ExprError(f"expression nested too deeply (more than {MAX_DEPTH} levels)")
        extra = names - set(self.variables)
        if extra:
            raise UnboundVariable(sorted(extra)[0])

    def __reduce__(self):
        # the closure chain does not pickle; rebuild it from the source
        return ExprFn, (self.source, self.variables)

    def __call__(self, *args):
        return evaluate(self, **dict(zip(self.variables, args)))
