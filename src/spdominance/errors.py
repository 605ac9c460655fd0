"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    pass


class SingularP(ValueError):
    """Cone matrix has an eigenvalue at (numerical) zero."""


class DegenerateCone(ValueError):
    """Cone matrix is negative definite; the cone would be the whole space."""


class SingularD(ValueError):
    """Fast-block matrix numerically singular (reciprocal condition < 1e-12)."""


class NonpositiveEps(ValueError):
    """eps not positive and finite, or an eps_max below the search's floor."""


def check_eps(eps):
    if not 0 < eps < float("inf"):  # NaN fails too
        raise NonpositiveEps(f"eps must be positive and finite, got {eps}")


class NoConvergence(RuntimeError):
    """No slow/fast splitting at this perturbation parameter, or a coupling
    equation missed its residual limit."""


class InfeasibleAtFloor(RuntimeError):
    """Block conditions infeasible even at the smallest tested perturbation."""


class ParseError(ValueError):
    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""))
        self.position = position
        self.expected = frozenset(expected)


class EvalError(ArithmeticError):
    """Division by zero (or similar) while evaluating an expression."""


class NotScalarParameterized(ValueError):
    """Jacobian varies in B, C or D, or in over MAX_HULL_ENTRIES entries of A."""


class NonFinite(FloatingPointError):
    """State escaped to non-finite values during integration."""


class ConfigError(ValueError):
    pass


class SamplingExhausted(RuntimeError):
    """Rejection sampling failed to hit the cone within the attempt budget."""
