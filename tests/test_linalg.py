import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdominance.linalg import eigvalsh_stack, inertia, sym_eigvals, symmetric

P_R = [[-5.1987, 3.6260], [3.6260, 6.1987]]


def quad_eig_oracle(S):
    """Independent eigenvalue oracle for 2x2 symmetric matrices: roots of
    lambda^2 - tr*lambda + det via the quadratic formula."""
    S = np.asarray(S, dtype=float)
    tr = S[0, 0] + S[1, 1]
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    disc = np.sqrt(tr * tr - 4 * det)
    return sorted([(tr - disc) / 2, (tr + disc) / 2])


def test_eigvals_identity():
    assert np.allclose(sym_eigvals(symmetric(np.eye(3))), [1, 1, 1])


def test_eigvals_diagonal():
    vals = sym_eigvals(symmetric(np.diag([-2.0, 0.0, 5.0])))
    assert np.allclose(vals, [-2, 0, 5])


def test_eigvals_indefinite_2x2_vs_oracle():
    vals = sym_eigvals(symmetric(P_R))
    expect = quad_eig_oracle(P_R)
    assert vals[0] < 0 < vals[1]
    assert np.allclose(vals, expect, rtol=1e-12, atol=1e-12)


def test_inertia_identity():
    assert inertia(symmetric(np.eye(2))) == (0, 0, 2)


def test_inertia_indefinite():
    assert inertia(symmetric(P_R)) == (1, 0, 1)


def test_inertia_with_zero_eigenvalue():
    assert inertia(symmetric(np.diag([-1.0, 0.0, 3.0]))) == (1, 1, 1)


def test_inertia_sum_rule():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 9):
        M = rng.standard_normal((n, n))
        assert sum(inertia(symmetric(M + M.T))) == n


def test_sylvester_law_of_inertia():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(2, 6)
        S = rng.standard_normal((n, n))
        S = S + S.T
        while True:
            M = rng.standard_normal((n, n))
            if np.linalg.cond(M) < 50:
                break
        assert inertia(symmetric(M.T @ S @ M)) == inertia(symmetric(S))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_inertia_invariant_under_congruence(seed, n):
    # Sylvester's law: T^T S T has the inertia of S for a nonsingular T. With
    # |eigenvalues of S| in [0.1, 10] or exactly 0, and the singular values of
    # T in [0.5, 2], each nonzero eigenvalue stays within a factor 4 of its
    # size (Ostrowski), far outside the zero tolerance
    rng = np.random.default_rng(seed)
    d = rng.choice([-1.0, 0.0, 1.0], n) * 10.0 ** rng.uniform(-1, 1, n)
    Q = random_orthogonal(rng, n)
    S = Q @ np.diag(d) @ Q.T
    T = random_orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ random_orthogonal(rng, n)
    assert inertia(symmetric(T.T @ S @ T)) == inertia(symmetric(S))
    assert inertia(symmetric(S)) == (np.sum(d < 0), np.sum(d == 0), np.sum(d > 0))


def test_eigvals_sorted_and_trace():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(1, 10)
        S = rng.standard_normal((n, n))
        S = symmetric(S + S.T)
        vals = sym_eigvals(S)
        assert np.all(np.diff(vals) >= 0)
        assert np.isclose(vals.sum(), np.trace(S), rtol=1e-10, atol=1e-10)


def test_eigvalsh_stack_largest_examples():
    assert eigvalsh_stack(-np.eye(2))[-1] == pytest.approx(-1.0)
    assert eigvalsh_stack(np.zeros((2, 2)))[-1] == pytest.approx(0.0, abs=1e-14)


def test_eigvalsh_stack_lmi_residual_vs_oracle():
    P = np.array(P_R)
    M = np.array([[0.0, 1.0], [-5.0, -5.0]])
    S = P @ M + M.T @ P + 4.0 * P + 0.01 * np.eye(2)
    margin = eigvalsh_stack(symmetric(S))[-1]
    assert margin <= 0.0
    assert margin == pytest.approx(quad_eig_oracle(S)[-1], rel=1e-12, abs=1e-12)


def test_eigvalsh_stack_matches_each_slice():
    rng = np.random.default_rng(19)
    S = rng.standard_normal((3, 4, 4))
    S = S + S.mT
    assert np.array_equal(eigvalsh_stack(S), [sym_eigvals(symmetric(s)) for s in S])


@pytest.mark.parametrize("d", [1.0, -1.0])
def test_eigvalsh_stack_of_nan_matrix_is_nan(d):
    # LAPACK alone returns [0, -0] here, which would read as semidefinite;
    # the finite matrix stacked beside it keeps its eigenvalues
    vals = eigvalsh_stack(np.array([[[np.nan, 0.0], [0.0, d]], [[d, 0.0], [0.0, 2.0]]]))
    assert np.isnan(vals[0]).all() and np.array_equal(vals[1], sorted([d, 2.0]))


def test_symmetrization_warning():
    M = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.warns(UserWarning, match="asymmetry"):
        S = symmetric(M)
    assert S[0, 1] == pytest.approx(2.05)


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetric(np.zeros((2, 3)))
