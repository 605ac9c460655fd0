import numpy as np
import pytest

from spdominance.errors import EvalError, ParseError
from spdominance.expressions import (BinOp, Call, Const, Var, compile_expr,
                                     compile_field, diff_expr, evaluate, free_vars,
                                     parse_expr, simplify)


def fd_oracle(ast, var, point, step=1e-6):
    hi = evaluate(ast, {**point, var: point[var] + step})
    lo = evaluate(ast, {**point, var: point[var] - step})
    return (hi - lo) / (2 * step)


def test_parse_spring_nonlinearity():
    ast = parse_expr("7*tanh(x1) - 5*x1")
    assert evaluate(ast, {"x1": 0.0}) == pytest.approx(0.0)


def test_parse_variable():
    assert parse_expr("x2") == Var("x2")


def test_parse_power_and_division():
    ast = parse_expr("x1 ^ 2 / (1 + exp(-x1))")
    assert evaluate(ast, {"x1": 0.0}) == pytest.approx(0.0)
    assert evaluate(ast, {"x1": 2.0}) == pytest.approx(4.0 / (1 + np.exp(-2.0)))


def test_parse_error_double_caret():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 ^^ 2")
    assert err.value.position == 4


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + ")
    assert err.value.position == 4
    assert err.value.expected


def test_parse_error_unknown_function():
    with pytest.raises(ParseError):
        parse_expr("sinh(x1)")


def test_diff_spring_nonlinearity():
    d = diff_expr(parse_expr("7*tanh(x1) - 5*x1"), "x1")
    assert evaluate(d, {"x1": 0.0}) == pytest.approx(2.0)
    # slope range endpoints: 2 at the origin, -5 in the tails
    assert evaluate(d, {"x1": 50.0}) == pytest.approx(-5.0)


def test_diff_unrelated_variable_is_zero():
    assert diff_expr(parse_expr("x2"), "x1") == Const(0.0)


def test_diff_power_vs_finite_difference():
    d = diff_expr(parse_expr("x1^3"), "x1")
    assert d == parse_expr("3 * x1^2")
    assert evaluate(d, {"x1": 2.0}) == pytest.approx(fd_oracle(parse_expr("x1^3"), "x1",
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
            sym = evaluate(diff_expr(ast, var), pt)
            num = fd_oracle(ast, var, pt)
            assert sym == pytest.approx(num, rel=1e-5, abs=1e-5)




def test_simplify_identities():
    x = Var("x1")
    assert simplify(BinOp("+", x, Const(0.0))) == x
    assert simplify(BinOp("*", x, Const(0.0))) == Const(0.0)
    assert simplify(BinOp("*", Const(1.0), x)) == x
    assert simplify(BinOp("-", Const(2.0), Const(5.0))) == Const(-3.0)
    assert simplify(Call("tanh", Const(0.0))) == Const(0.0)


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        evaluate(parse_expr("1 / x1"), {"x1": 0.0})


def test_free_vars():
    assert free_vars(parse_expr("x1 * tanh(z1) + 3")) == {"x1", "z1"}


def test_compiled_matches_interpreter():
    ast = parse_expr("7*tanh(x1) - 5*x1 - 5*z1")
    fn = compile_expr(ast, ["x1", "x2", "z1"])
    rng = np.random.default_rng(41)
    for _ in range(20):
        x1, x2, z1 = rng.uniform(-2, 2, 3)
        assert fn(x1, x2, z1) == pytest.approx(
            evaluate(ast, {"x1": x1, "z1": z1}), rel=1e-14)
    xs = rng.uniform(-2, 2, (3, 5))
    assert fn(xs[0], xs[1], xs[2]).shape == (5,)


def test_compiled_field_matches_interpreter():
    asts = [parse_expr("x2"), parse_expr("7*tanh(x1) - 5*x1 - 5*z1"), Const(2.5)]
    field = compile_field(asts, ["x1", "x2", "z1"])
    states = np.random.default_rng(43).uniform(-2, 2, (4, 5, 3))
    out = field(states)
    assert out.shape == states.shape
    env = {"x1": states[..., 0], "x2": states[..., 1], "z1": states[..., 2]}
    for i, ast in enumerate(asts):
        assert np.array_equal(out[..., i], np.broadcast_to(evaluate(ast, env), (4, 5)))
    assert np.array_equal(field(states[1, 2]), out[1, 2])
    with pytest.raises(ValueError):
        compile_field(asts[:2], ["x1", "x2", "z1"])
