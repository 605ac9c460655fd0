"""A minimal expression DSL with symbolic differentiation.

Grammar (infix, standard precedence):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Function names: tanh, sin, cos, exp. Exponents are integer literals only.
ASTs are immutable and differentiation is pure. Simplification is limited
to constant folding and 0/1 identities. compile_field is the one evaluator:
it turns a list of ASTs into a numpy kernel over states, and guarded
makes such a kernel report a zero divisor as EvalError. interval encloses
an AST's values over a box of states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = {
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("num", float(m.group(0)), pos))
            pos = m.end()
            continue
        m = re.match(r"[A-Za-z_][A-Za-z_0-9]*", text[pos:])
        if m:
            tokens.append(("ident", m.group(0), pos))
            pos += m.end()
            continue
        if text[pos] in "+-*/^()":
            tokens.append((text[pos], text[pos], pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {text[pos]!r}", pos,
                         {"number", "identifier", "operator"})
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], {kind})
        return self.advance()

    def parse(self):
        ast = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], {"end of input"})
        return ast

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            sign = 1
            if tok[0] == "-":
                self.advance()
                sign = -1
                tok = self.peek()
            if tok[0] != "num" or tok[1] != int(tok[1]):
                raise ParseError("exponent must be an integer literal", tok[2],
                                 {"integer"})
            self.advance()
            return Pow(node, sign * int(tok[1]))
        return node

    def base(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return Neg(self.base())
        if tok[0] == "num":
            self.advance()
            return Const(tok[1])
        if tok[0] == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if tok[1] not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok[1]!r}", tok[2],
                                     set(FUNCTIONS))
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(tok[1], arg)
            return Var(tok[1])
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2],
                         {"number", "identifier", "(", "-"})


def parse_expr(text):
    """Parse DSL source to an AST. Raises ParseError with position info."""
    return _Parser(text).parse()


def free_vars(ast):
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Const):
        return set()
    if isinstance(ast, BinOp):
        return free_vars(ast.left) | free_vars(ast.right)
    if isinstance(ast, (Neg, Call)):
        return free_vars(ast.arg)
    if isinstance(ast, Pow):
        return free_vars(ast.base)
    raise TypeError(f"not an AST node: {ast!r}")


def _is_const(ast, value=None):
    return isinstance(ast, Const) and (value is None or ast.value == value)


def simplify(ast):
    """Constant folding plus 0/1 identities; no algebraic rewriting."""
    if isinstance(ast, (Const, Var)):
        return ast
    if isinstance(ast, Neg):
        a = simplify(ast.arg)
        if _is_const(a):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(ast, Call):
        a = simplify(ast.arg)
        if _is_const(a):
            return Const(float(FUNCTIONS[ast.fn](a.value)))
        return Call(ast.fn, a)
    if isinstance(ast, Pow):
        base = simplify(ast.base)
        if ast.exponent == 0:
            return Const(1.0)
        if ast.exponent == 1:
            return base
        if _is_const(base):
            return Const(base.value ** ast.exponent)
        return Pow(base, ast.exponent)
    a = simplify(ast.left)
    b = simplify(ast.right)
    op = ast.op
    if _is_const(a) and _is_const(b):
        if op == "/" and b.value == 0:
            return BinOp(op, a, b)  # leave the error for evaluation time
        return Const({"+": a.value + b.value, "-": a.value - b.value,
                      "*": a.value * b.value,
                      "/": a.value / b.value if b.value != 0 else 0.0}[op])
    if op == "+":
        if _is_const(a, 0):
            return b
        if _is_const(b, 0):
            return a
    elif op == "-":
        if _is_const(b, 0):
            return a
        if _is_const(a, 0):
            return simplify(Neg(b))
    elif op == "*":
        if _is_const(a, 0) or _is_const(b, 0):
            return Const(0.0)
        if _is_const(a, 1):
            return b
        if _is_const(b, 1):
            return a
    elif op == "/":
        if _is_const(a, 0):
            return Const(0.0)
        if _is_const(b, 1):
            return a
    return BinOp(op, a, b)


def diff_expr(ast, var):
    """Symbolic partial derivative with respect to the named variable."""
    return simplify(_diff(ast, var))


def _diff(ast, var):
    if isinstance(ast, Const):
        return Const(0.0)
    if isinstance(ast, Var):
        return Const(1.0 if ast.name == var else 0.0)
    if isinstance(ast, Neg):
        return Neg(_diff(ast.arg, var))
    if isinstance(ast, Pow):
        # d(u^n) = n * u^(n-1) * u'
        du = _diff(ast.base, var)
        return BinOp("*", BinOp("*", Const(float(ast.exponent)),
                                Pow(ast.base, ast.exponent - 1)), du)
    if isinstance(ast, Call):
        du = _diff(ast.arg, var)
        u = ast.arg
        if ast.fn == "tanh":
            outer = BinOp("-", Const(1.0), Pow(Call("tanh", u), 2))
        elif ast.fn == "sin":
            outer = Call("cos", u)
        elif ast.fn == "cos":
            outer = Neg(Call("sin", u))
        else:  # exp
            outer = Call("exp", u)
        return BinOp("*", outer, du)
    if isinstance(ast, BinOp):
        da = _diff(ast.left, var)
        db = _diff(ast.right, var)
        if ast.op in ("+", "-"):
            return BinOp(ast.op, da, db)
        if ast.op == "*":
            return BinOp("+", BinOp("*", da, ast.right), BinOp("*", ast.left, db))
        # quotient rule
        num = BinOp("-", BinOp("*", da, ast.right), BinOp("*", ast.left, db))
        return BinOp("/", num, Pow(ast.right, 2))
    raise TypeError(f"not an AST node: {ast!r}")


def compile_field(asts, var_names):
    """Compile ASTs into one numpy kernel field(s) -> out, the one evaluator
    of ASTs at states: the names bind to s.T[i], and component k is written
    to out.T[k] (a constant component broadcasts), so out has shape
    s.shape[:-1] + (len(asts),). s.T[i] is the column s[..., i] of a batch
    (..., dim), or a numpy scalar, cheaper than a 0-d array, for one state
    (dim,); powers are ufunc calls, so a state and its batch row agree bitwise."""
    lines = ["def field(s):", "    sT = s.T"]
    lines += [f"    {name} = sT[{i}]" for i, name in enumerate(var_names)]
    lines.append(f"    out = np.empty(s.shape[:-1] + ({len(asts)},))")
    lines.append("    o = out.T")
    lines += [f"    o[{i}] = {_numpy_source(a)}" for i, a in enumerate(asts)]
    lines.append("    return out")
    namespace = {"np": np, "__builtins__": {}}
    exec("\n".join(lines), namespace)  # source generated from our own AST
    return namespace["field"]


def guarded(kernel):
    """kernel for evaluation at configured points: a zero divisor raises
    EvalError("division by zero"), whether Python floats divide (a literal
    1/0) or numpy does (x/0, 0/0 or 0^-1); any other invalid operation
    raises EvalError with numpy's message for a batch, also for one state."""
    def run(s):
        try:
            with np.errstate(divide="raise", invalid="raise"):
                return kernel(s)
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
        except FloatingPointError as e:
            msg = str(e).replace("scalar ", "")
            divide = msg.startswith("divide by zero") or msg.endswith("divide")
            raise EvalError("division by zero" if divide else msg) from None
    return run


@np.errstate(over="ignore")  # an overflowing end raises EvalError below
def interval(ast, box):
    """Natural interval extension of ast over box {name: (lo, hi)}: a pair
    (lo, hi) holding its value at every point of the box (Moore, Kearfott &
    Cloud, Introduction to Interval Analysis, SIAM 2009, ch. 5-6), each node's
    ends rounded outward by one ulp. EvalError when a divisor's enclosure holds
    0 ("division by zero", as guarded says) or when the enclosure overflows."""
    if isinstance(ast, Const):  # leaves are exact, so not widened
        return ast.value, ast.value
    if isinstance(ast, Var):
        return tuple(box[ast.name])
    if isinstance(ast, Neg):
        ends = [-v for v in interval(ast.arg, box)]
    elif isinstance(ast, Call):
        a, b = interval(ast.arg, box)
        fn = FUNCTIONS[ast.fn]
        ends = [fn(a), fn(b)]  # tanh and exp increase
        if ast.fn in ("sin", "cos"):  # extrema at c + k pi; two in a row give both
            c = np.pi / 2 if ast.fn == "sin" else 0.0
            k = np.ceil((a - c) / np.pi)
            ends += [fn(c + j * np.pi) for j in (k, k + 1) if c + j * np.pi <= b]
    elif isinstance(ast, Pow):
        a, b = interval(ast.base, box)
        if ast.exponent < 0 and a <= 0 <= b:
            raise EvalError("division by zero")
        ends = list(np.power([a, b], ast.exponent))
        if ast.exponent % 2 == 0 and a < 0 < b:  # the even power's minimum
            ends.append(0.0)
    elif isinstance(ast, BinOp):
        (a, b), (c, d) = interval(ast.left, box), interval(ast.right, box)
        if ast.op == "/" and c <= 0 <= d:
            raise EvalError("division by zero")
        op = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[ast.op]
        ends = [op(u, v) for u in (a, b) for v in (c, d)]
    else:
        raise TypeError(f"not an AST node: {ast!r}")
    lo, hi = np.nextafter(min(ends), -np.inf), np.nextafter(max(ends), np.inf)
    if not -np.inf < lo <= hi < np.inf:
        raise EvalError("enclosure overflows")
    return float(lo), float(hi)


def _numpy_source(ast):
    if isinstance(ast, Const):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{_numpy_source(ast.arg)})"
    if isinstance(ast, Call):
        return f"np.{ast.fn}({_numpy_source(ast.arg)})"
    if isinstance(ast, Pow):  # the ufuncs an array's ** calls; a scalar's ** rounds apart
        base, k = _numpy_source(ast.base), ast.exponent
        return {2: f"np.square({base})", -1: f"np.reciprocal({base})"}.get(
            k, f"np.power({base}, {k})")
    if isinstance(ast, BinOp):
        return f"({_numpy_source(ast.left)} {ast.op} {_numpy_source(ast.right)})"
    raise TypeError(f"not an AST node: {ast!r}")
