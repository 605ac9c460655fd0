import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdominance.errors import EvalError, ParseError
from spdominance.expressions import (FUNCTIONS, MAX_NESTING, BinOp, Call, Const, Pow, Var,
                                     compile_field, diff_expr, free_vars, guarded, interval,
                                     parse_expr, simplify)


def value(ast, point):
    """The AST at one point {name: value}, through the compiled kernel."""
    return compile_field([ast], list(point))(np.array(list(point.values())))[0]


def interpret(ast, env):
    """Reference oracle for compile_field: walk the AST with bindings from
    env (floats or numpy arrays), without generating any source."""
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        return env[ast.name]
    if isinstance(ast, Call):
        return FUNCTIONS[ast.fn](interpret(ast.arg, env))
    if isinstance(ast, Pow):
        return interpret(ast.base, env) ** ast.exponent
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
    return ops[ast.op](interpret(ast.left, env), interpret(ast.right, env))


def negate(ast):
    """-ast as the parser stores it: the product (-1)*ast."""
    return BinOp("*", Const(-1.0), ast)


def fd_oracle(ast, var, point, step=1e-6):
    hi = value(ast, {**point, var: point[var] + step})
    lo = value(ast, {**point, var: point[var] - step})
    return (hi - lo) / (2 * step)


def test_parse_spring_nonlinearity():
    ast = parse_expr("7*tanh(x1) - 5*x1")
    assert value(ast, {"x1": 0.0}) == pytest.approx(0.0)


def test_parse_variable():
    assert parse_expr("x2") == Var("x2")


def test_unary_minus_is_a_product_by_minus_one():
    assert parse_expr("-x1") == BinOp("*", Const(-1.0), Var("x1"))
    assert parse_expr("--x1") == negate(negate(Var("x1")))
    # a double negation cancels, also where simplify's 0 - b or cos' derivative negates
    assert simplify(parse_expr("-(-x1)")) == Var("x1")
    assert diff_expr(parse_expr("z1 - cos(x1)"), "x1") == Call("sin", Var("x1"))
    assert diff_expr(parse_expr("-(z1 - x1*x2)"), "x1") == Var("x2")


def test_product_by_minus_one_is_exact_negation():
    # the kernel of -x1 has np.negative's bits and raises no flag, for one state and a batch
    xs = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.7e308, -1.7e308])
    field = compile_field([parse_expr("-x1")], ["x1"])
    with np.errstate(all="raise"):
        assert field(xs[:, None])[:, 0].tobytes() == np.negative(xs).tobytes()
        for x in xs:
            assert field(np.array([x])).tobytes() == np.negative(np.array([x])).tobytes()


def test_interval_of_a_negation_negates_and_widens_once():
    box = {"x1": (-0.5, 2.0), "x2": (0.25, 1.0)}
    lo, hi = interval(parse_expr("x1 + x2"), box)
    assert interval(parse_expr("-(x1 + x2)"), box) == (np.nextafter(-hi, -np.inf),
                                                      np.nextafter(-lo, np.inf))


def test_parse_power_and_division():
    ast = parse_expr("x1 ^ 2 / (1 + exp(-x1))")
    assert value(ast, {"x1": 0.0}) == pytest.approx(0.0)
    assert value(ast, {"x1": 2.0}) == pytest.approx(4.0 / (1 + np.exp(-2.0)))


def test_parse_error_double_caret():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 ^^ 2")
    assert err.value.position == 4


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + ")
    assert err.value.position == 4


def test_unary_minus_binds_looser_than_a_power():
    # -x^2 is -(x^2), as in Python and in mathematics; (-x)^2 squares -x
    assert parse_expr("-x1^2") == parse_expr("-(x1^2)") == negate(Pow(Var("x1"), 2))
    assert parse_expr("(-x1)^2") == Pow(negate(Var("x1")), 2)
    assert value(parse_expr("-x1^2"), {"x1": 3.0}) == -9.0
    assert value(parse_expr("exp(-x1^2)"), {"x1": 1.0}) == pytest.approx(np.exp(-1.0))
    assert simplify(parse_expr("-2^2")) == Const(-4.0)


@pytest.mark.parametrize("text", [
    "x1**2", "x1 // 2", "x1 if x2 else z1", "not x1", "x1 and x2", "x1.real",
    "tanh(x1)(x2)", "tanh(x1, x2)", "1_0", "0x1F", "1j", "True", "x1 # c", "x\u2081",
    "\x00", "+x1", "tanh()", "x1^x2", "x1^1.5", "x1^--2", "x1^1e400"])
def test_parse_refuses_what_only_python_reads(text):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert 0 <= err.value.position <= len(text)


# DSL and Python tokens, glued together or spaced
TOKENS = st.sampled_from(["x1", "x2", "z1", "2", "0", "01", "1.5", ".5", "1e3", "1e400",
                          "tanh", "exp", "sinh", "(", ")", "+", "-", "*", "/", "^", "**",
                          " ", "\t", "if", "else", "not", "and", "lambda", ".", "_", "j",
                          "e", "1_0", "0x1F", ",", "[", "#", "True", "None", "..."])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tokens=st.lists(TOKENS, max_size=12))
@example(tokens=["x1", "^", "1e400"])
@example(tokens=["2", "if", "x1", "else", "0"])
def test_parse_returns_a_dsl_ast_or_a_parse_error(tokens):
    text = "".join(tokens)

    def nodes(ast):
        yield ast
        for v in vars(ast).values():
            if not isinstance(v, (str, int, float)):
                yield from nodes(v)

    try:
        ast = parse_expr(text)
    except ParseError as e:
        assert 0 <= e.position <= len(text)
        return
    assert all(type(n) in (Const, Var, BinOp, Pow, Call) for n in nodes(ast))


def test_parse_error_unknown_function():
    with pytest.raises(ParseError):
        parse_expr("sinh(x1)")


def test_parse_refuses_nesting_beyond_max_nesting():
    # a sum of n terms nests n - 1 levels: MAX_NESTING levels parse, one more
    # is refused, as are unary minuses past it; parentheses alone add no level,
    # and past the 200 Python's parser takes they are a ParseError, as are the
    # parentheses of 201 nested calls
    assert MAX_NESTING == 200
    parse_expr(" + ".join(["x1"] * (MAX_NESTING + 1)))
    for text in [" + ".join(["x1"] * (MAX_NESTING + 2)), " + ".join(["x1"] * 1200),
                 "-" * (MAX_NESTING + 1) + "x1", "-" * 600 + "x1"]:
        with pytest.raises(ParseError, match=f"nested deeper than MAX_NESTING = {MAX_NESTING}"):
            parse_expr(text)
    assert parse_expr("(" * 150 + "x1" + ")" * 150) == Var("x1")
    for text in ["(" * 600 + "x1" + ")" * 600,
                 "exp(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1)]:
        with pytest.raises(ParseError, match="nested too deeply to parse"):
            parse_expr(text)


def test_compile_field_refuses_what_python_cannot_nest():
    # compile_field's source nests a parenthesis per level: 200 compile, 201 are
    # past CPython's parser and 1200 past the stack; both are EvalError
    def chain(n):  # n unary minuses over x1, each a product by -1
        ast = Var("x1")
        for _ in range(n):
            ast = negate(ast)
        return ast

    assert compile_field([chain(200)], ["x1"])(np.array([2.0]))[0] == 2.0
    for n in (201, 1200):
        with pytest.raises(EvalError, match="nested too deeply to compile"):
            compile_field([chain(n)], ["x1"])


def test_diff_spring_nonlinearity():
    d = diff_expr(parse_expr("7*tanh(x1) - 5*x1"), "x1")
    assert value(d, {"x1": 0.0}) == pytest.approx(2.0)
    # slope range endpoints: 2 at the origin, -5 in the tails
    assert value(d, {"x1": 50.0}) == pytest.approx(-5.0)


def test_diff_unrelated_variable_is_zero():
    assert diff_expr(parse_expr("x2"), "x1") == Const(0.0)


def test_diff_power_vs_finite_difference():
    d = diff_expr(parse_expr("x1^3"), "x1")
    assert d == parse_expr("3 * x1^2")
    assert value(d, {"x1": 2.0}) == pytest.approx(fd_oracle(parse_expr("x1^3"), "x1",
                                                            {"x1": 2.0}), abs=1e-6)


@pytest.mark.parametrize("src", [
    "tanh(x1 * x2)",
    "sin(x1) * cos(x2)",
    "exp(-x1^2) + x2 / (1 + x1^2)",
    "x1^-2 + 1",
    "(x1 - x2)^3 / (2 + sin(x2))",
])
def test_diff_matches_finite_difference(src):
    ast = parse_expr(src)
    rng = np.random.default_rng(31)
    for _ in range(10):
        pt = {"x1": rng.uniform(0.5, 2.0), "x2": rng.uniform(-1.5, 1.5)}
        for var in ("x1", "x2"):
            sym = value(diff_expr(ast, var), pt)
            num = fd_oracle(ast, var, pt)
            assert sym == pytest.approx(num, rel=1e-5, abs=1e-5)


def test_simplify_identities():
    x = Var("x1")
    assert simplify(BinOp("+", x, Const(0.0))) == x
    assert simplify(BinOp("*", x, Const(0.0))) == Const(0.0)
    assert simplify(BinOp("*", Const(1.0), x)) == x
    assert simplify(BinOp("-", Const(2.0), Const(5.0))) == Const(-3.0)
    assert simplify(Call("tanh", Const(0.0))) == Const(0.0)


def test_simplify_leaves_a_constant_power_python_cannot_compute():
    # 0.0 ** -1 and 1e300 ** 2 raise in Python: the Pow is left for evaluation
    # to report, as a constant division by zero is, and 0 times it is not 0
    d = diff_expr(parse_expr("(0*x1)^-1"), "x1")
    with pytest.raises(EvalError, match="^division by zero$"):
        guarded(compile_field([d], ["x1"]))(np.zeros(1))
    assert simplify(parse_expr("x2 + 0*(1/0)")) != Var("x2")
    # u^0 is 1, so its derivative is 0 without u^-1
    assert diff_expr(parse_expr("(0*x1)^0"), "x1") == Const(0.0)
    assert diff_expr(parse_expr("1e300^2*x1"), "x1") == Pow(Const(1e300), 2)
    ast = simplify(parse_expr("(0*x1)^-1"))
    assert ast == Pow(Const(0.0), -1)
    with pytest.raises(EvalError, match="^division by zero$"):
        guarded(compile_field([ast], ["x1"]))(np.zeros(1))
    with pytest.raises(EvalError, match="^division by zero$"):
        interval(ast, {"x1": (-1.0, 1.0)})


def test_constants_beyond_the_double_range_compile():
    # repr writes such a constant as inf or nan, which the kernel binds
    asts = [parse_expr("1e400*x1"), simplify(parse_expr("1e300*1e300 - 1e400"))]
    assert isinstance(asts[1], Const) and np.isnan(asts[1].value)
    out = compile_field(asts, ["x1"])(np.array([2.0]))
    assert out[0] == np.inf and np.isnan(out[1])


def test_division_by_zero_raises():
    field = guarded(compile_field([parse_expr("1 / x1")], ["x1"]))
    with pytest.raises(EvalError, match="^division by zero$"):
        field(np.zeros(1))
    # any other invalid operation keeps numpy's message
    field = guarded(compile_field([parse_expr("x1 - x1")], ["x1"]))
    with pytest.raises(EvalError, match="^invalid value encountered in subtract$"):
        field(np.array([np.inf]))


def test_free_vars():
    assert free_vars(parse_expr("x1 * tanh(z1) + 3")) == {"x1", "z1"}


def test_compiled_field_matches_numpy():
    asts = [parse_expr("x2"), parse_expr("7*tanh(x1) - 5*x1 - 5*z1"), Const(2.5),
            parse_expr("x2 - z1")]
    field = compile_field(asts, ["x1", "x2", "z1"])  # 4 components, 3 variables

    def by_hand(s):
        x1, x2, z1 = s[..., 0], s[..., 1], s[..., 2]
        return np.stack([x2, 7 * np.tanh(x1) - 5 * x1 - 5 * z1,
                         np.full(x1.shape, 2.5), x2 - z1], axis=-1)

    states = np.random.default_rng(43).uniform(-2, 2, (4, 5, 3))
    assert field(states).shape == (4, 5, 4)
    assert np.array_equal(field(states), by_hand(states))
    assert np.array_equal(field(states[1, 2]), by_hand(states[1, 2]))
    fewer = compile_field(asts[1:3], ["x1", "x2", "z1"])  # 2 components
    assert np.array_equal(fewer(states), by_hand(states)[..., 1:3])


def test_compiled_matches_interpreter():
    names = ["x1", "x2", "z1"]
    rng = np.random.default_rng(41)
    for src in ["7*tanh(x1) - 5*x1 - 5*z1", "-(x1 - x2)^3 / (2 + sin(x2))",
                "exp(-x1^2) * cos(z1) + x2^-2"]:
        ast = parse_expr(src)
        field = compile_field([ast], names)
        for _ in range(20):
            x1, x2, z1 = rng.uniform(-2, 2, 3)
            assert field(np.array([x1, x2, z1]))[0] == pytest.approx(
                interpret(ast, {"x1": x1, "x2": x2, "z1": z1}), rel=1e-14)
        xs = rng.uniform(-2, 2, (5, 3))
        assert field(xs).shape == (5, 1)


def test_compiled_field_matches_interpreter():
    asts = [parse_expr("x2"), parse_expr("7*tanh(x1) - 5*x1 - 5*z1"), Const(2.5)]
    field = compile_field(asts, ["x1", "x2", "z1"])
    states = np.random.default_rng(43).uniform(-2, 2, (4, 5, 3))
    out = field(states)
    assert out.shape == states.shape
    env = {"x1": states[..., 0], "x2": states[..., 1], "z1": states[..., 2]}
    for i, ast in enumerate(asts):
        assert np.array_equal(out[..., i], np.broadcast_to(interpret(ast, env), (4, 5)))
    assert np.array_equal(field(states[1, 2]), out[1, 2])
    # one component per AST, whatever the state dimension
    assert compile_field(asts[:2], ["x1", "x2", "z1"])(states).shape == (4, 5, 2)


# one expression per construct, each mapped to the variable whose box must
# not hold 0 (its divisor), or None
CONSTRUCTS = {"2.5": None, "x1": None, "-x2": None, "x1 + x2": None, "x1 - x2": None,
              "x1 * x2": None, "x1 / x2": "x2", "x1^3": None, "x1^2": None,
              "x1^-2": "x1", "x2^-3": "x2", "tanh(x1)": None, "exp(x2)": None,
              "sin(x1)": None, "cos(x2)": None}
# a sub-box of [-3, 3] on a 0.01 grid, so no divisor gets closer to 0 than 0.01
SIDE = st.lists(st.integers(-300, 300), min_size=2, max_size=2, unique=True).map(
    lambda ends: tuple(sorted(v / 100 for v in ends)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(src=st.sampled_from(sorted(CONSTRUCTS)), box=st.tuples(SIDE, SIDE),
       where=st.tuples(st.floats(0, 1), st.floats(0, 1)))
# boxes holding an extremum, at the extremum: pi/2 for sin, pi for cos, 0 for x1^2
@example(src="sin(x1)", box=((1.5, 1.6), (0.0, 1.0)), where=((np.pi / 2 - 1.5) / 0.1, 0.0))
@example(src="cos(x2)", box=((0.0, 1.0), (3.0, 3.2)), where=(0.0, (np.pi - 3.0) / 0.2))
@example(src="x1^2", box=((-1.0, 2.0), (0.0, 1.0)), where=(1 / 3, 0.0))
@example(src="x1^-2", box=((-1.0, 2.0), (0.5, 1.0)), where=(0.5, 0.0))
def test_interval_encloses_compiled_value(src, box, where):
    ast, divisor = parse_expr(src), CONSTRUCTS[src]
    box = dict(zip(["x1", "x2"], box))
    if divisor is not None and box[divisor][0] <= 0 <= box[divisor][1]:
        with pytest.raises(EvalError, match="^division by zero$"):
            interval(ast, box)
        return
    point = np.array([min(hi, lo + u * (hi - lo)) for (lo, hi), u in zip(box.values(), where)])
    lo, hi = interval(ast, box)
    assert lo <= compile_field([ast], list(box))(point)[0] <= hi


def test_interval_overflow_raises():
    with np.errstate(over="ignore"), pytest.raises(EvalError, match="^enclosure overflows$"):
        interval(parse_expr("3 * x1^2"), {"x1": (-1e200, 1e200)})


# random ASTs over every node kind, exponents -3..4, constants including 0
LEAVES = st.one_of(st.sampled_from([Var("x1"), Var("x2"), Var("x3")]),
                   st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-3]).map(Const))
ASTS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
    st.builds(Pow, sub, st.integers(-3, 4)),
    sub.map(negate),
    st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub)), max_leaves=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(asts=st.lists(ASTS, min_size=1, max_size=3), dim=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_state_matches_its_batch_row_bit_for_bit(asts, dim, seed):
    # one state evaluates on numpy scalars, a batch on columns: the same bits,
    # on 16 states whose entries are drawn from [-3, 3], a quarter of them +-0.0
    names = ["x1", "x2", "x3"][:dim]
    asts = [a for a in asts if free_vars(a) <= set(names)] or [Const(1.0)]
    rng = np.random.default_rng(seed)
    states = rng.uniform(-3, 3, (16, dim))
    zeros = rng.random(states.shape) < 0.25
    states[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    field = compile_field(asts, names)
    with np.errstate(all="ignore"):
        try:
            batch = field(states)
        except ZeroDivisionError:  # a constant over a constant 0: Python floats either way
            for state in states:
                with pytest.raises(ZeroDivisionError):
                    field(state)
            return
        for state, row in zip(states, batch):
            assert field(state).tobytes() == row.tobytes()


def _shared_components(pool):
    """Components built over a pool of subtrees, so that they share some."""
    part = st.one_of(st.sampled_from(pool), ASTS)
    return st.lists(st.recursive(part, lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        sub.map(negate),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub)), max_leaves=4),
        min_size=2, max_size=4)


X1 = Var("x1")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(asts=st.lists(ASTS, min_size=1, max_size=3).flatmap(_shared_components),
       seed=st.integers(0, 2**32 - 1))
# equal as ASTs, since Const(0.0) == Const(-0.0), but not bit for bit
@example(asts=[BinOp("*", X1, Const(0.0)), BinOp("*", X1, Const(-0.0))], seed=0)
@example(asts=[Call("tanh", X1), BinOp("*", Const(7.0), Call("tanh", X1))], seed=0)
def test_shared_subtrees_keep_every_component_bit_for_bit(asts, seed):
    # each component of one kernel, where a repeated subtree is computed once,
    # has the bits of a kernel of that component alone, for a state and a batch
    names = ["x1", "x2", "x3"]
    rng = np.random.default_rng(seed)
    states = rng.uniform(-3, 3, (8, 3))
    zeros = rng.random(states.shape) < 0.25
    states[zeros] = rng.choice([0.0, -0.0], zeros.sum())

    def run(kernel, s):
        try:
            return kernel(s)
        except ZeroDivisionError:  # a constant over a constant 0
            return None

    field, alone = compile_field(asts, names), [compile_field([a], names) for a in asts]
    with np.errstate(all="ignore"):
        for s in (states, *states):
            whole, parts = run(field, s), [run(k, s) for k in alone]
            if any(part is None for part in parts):
                assert whole is None
                continue
            for k, part in enumerate(parts):
                assert whole[..., k].tobytes() == part[..., 0].tobytes()


@pytest.mark.parametrize("srcs, point, message", [
    (["x3 / x2 + 1", "2 * (x3 / x2)"], (0.0, 0.0, 1.0), "division by zero"),
    (["x1 - x2", "tanh(x1 - x2)"], (np.inf, np.inf, 1.0), "invalid value encountered in subtract"),
    # the first failing operation is reported, whichever subtree is shared
    (["x3 / x2 + (x1 - x1)", "(x1 - x1) * 2"], (np.inf, 0.0, 1.0), "division by zero"),
    (["(x1 - x1) + x3 / x2", "(x3 / x2) * 2"], (np.inf, 0.0, 1.0),
     "invalid value encountered in subtract"),
])
def test_guarded_message_of_a_shared_subtree(srcs, point, message):
    field = guarded(compile_field([parse_expr(src) for src in srcs], ["x1", "x2", "x3"]))
    for s in (np.array(point), np.array([(0.5, 1.0, 1.0), point])):
        with pytest.raises(EvalError, match=f"^{message}$"):
            field(s)


@pytest.mark.parametrize("src, point, message", [
    ("x1 / 0", (1.0, 0.0), "division by zero"),
    ("x1 / x2", (0.0, 0.0), "division by zero"),
    ("x1^-1", (0.0, 0.0), "division by zero"),
    ("x1^-3 + x2", (0.0, 1.0), "division by zero"),
    ("x1 - x2", (np.inf, np.inf), "invalid value encountered in subtract"),
])
def test_guarded_message_is_the_same_for_a_state_and_a_batch(src, point, message):
    field = guarded(compile_field([parse_expr(src)], ["x1", "x2"]))
    for s in (np.array(point), np.array([(0.5, 1.0), point])):
        with pytest.raises(EvalError, match=f"^{message}$"):
            field(s)
