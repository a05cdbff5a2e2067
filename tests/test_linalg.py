"""Exact linear algebra: kernels, solves, simplex."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfkit.errors import DimensionMismatch
from nfkit.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    RatMatrix,
    lp_max,
    mat_kernel,
    mat_rank,
    mat_solve,
)

from oracles import vertex_lp_max


def test_kernel_zero_matrix():
    space = mat_kernel(RatMatrix([[0, 0], [0, 0]]))
    assert space.dimension == 2
    # columns without keys: a 0 x 3 system whose kernel is the identity basis
    empty = RatMatrix.from_columns([{}, {}, {}], 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert mat_kernel(empty).basis == tuple(RatMatrix.identity(3))


def test_kernel_identity():
    space = mat_kernel(RatMatrix.identity(3))
    assert space.dimension == 0


def test_kernel_eg3_matrix():
    # coefficient matrix of the worked 3-dimensional example, all weights 1
    M = RatMatrix(
        [
            [-1, 2, 0, 0, 0, 0, 0],
            [-1, 1, 2, -2, 0, 0, 2],
            [-1, 0, 4, 0, -1, 0, 1],
            [0, -1, 2, 0, 0, 0, 0],
        ]
    )
    space = mat_kernel(M)
    assert space.dimension == 3
    for v in space.basis:
        assert all(x == 0 for x in M.mul_vec(v))


def test_kernel_reduced_echelon_shape():
    M = RatMatrix([[1, 2, 0, 3], [0, 0, 1, 4]])
    space = mat_kernel(M)
    free = [1, 3]
    assert space.dimension == 2
    for k, v in enumerate(space.basis):
        for pos, fcol in enumerate(free):
            assert v[fcol] == (1 if pos == k else 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_kernel_rank_nullity_and_exactness(rows, rng):
    M = RatMatrix(rows)
    space = mat_kernel(M)
    assert mat_rank(M) + space.dimension == M.cols
    for v in space.basis:
        assert all(x == 0 for x in M.mul_vec(v))
    # the same system as sparse columns whose keys appear in shuffled order
    order = list(range(len(rows)))
    rng.shuffle(order)
    columns = [{i: rows[i][t] for i in order} for t in range(M.cols)]
    assert mat_kernel(RatMatrix.from_columns(columns, M.cols)).basis == space.basis


# Zero entries are drawn often, so rank-deficient matrices are common.
RATIONALS = st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=4))
RATIONAL_MATRICES = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=1, max_size=5)
)


@pytest.fixture(scope="module")
def sympy():
    """sympy's exact rref is an oracle that shares no code with nfkit.linalg."""
    return pytest.importorskip("sympy")


def _to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _from_sympy(vec):
    return tuple(F(int(x.p), int(x.q)) for x in vec)


@settings(max_examples=150, deadline=None)
@given(RATIONAL_MATRICES)
def test_kernel_and_rank_match_sympy(sympy, rows):
    M = RatMatrix(rows)
    S = _to_sympy(sympy, rows)
    assert mat_kernel(M).basis == tuple(_from_sympy(v) for v in S.nullspace())
    assert mat_rank(M) == S.rank()


def _with_rhs(rows):
    return st.tuples(st.just(rows), st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))


@settings(max_examples=150, deadline=None)
@given(RATIONAL_MATRICES.flatmap(_with_rhs))
def test_solve_matches_sympy(sympy, system):
    rows, b = system
    M = RatMatrix(rows)
    S = _to_sympy(sympy, rows)
    sol = mat_solve(M, b)
    consistent = S.rank() == S.row_join(_to_sympy(sympy, [[x] for x in b])).rank()
    assert (sol is not None) == consistent
    if sol is not None:
        assert S * sympy.Matrix(sol.particular) == _to_sympy(sympy, [[x] for x in b])
        assert sol.basis == tuple(_from_sympy(v) for v in S.nullspace())


def test_solve_identity():
    sol = mat_solve(RatMatrix.identity(3), [5, F(1, 2), -2])
    assert sol.particular == (5, F(1, 2), -2)
    assert sol.basis == ()


def test_solve_underdetermined():
    sol = mat_solve(RatMatrix([[1, 1]]), [1])
    assert sol.particular == (1, 0)
    assert len(sol.basis) == 1


def test_solve_inconsistent():
    assert mat_solve(RatMatrix([[0]]), [1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_solve(RatMatrix([[1, 0]]), [1, 2])


def test_lp_simplex_example():
    res = lp_max([1, 1, 1], RatMatrix([[12, 6, 3]]), [12])
    assert res.status == OPTIMAL
    assert res.value == 4
    assert res.point == (0, 0, 4)


def test_lp_infeasible():
    assert lp_max([1], RatMatrix([[1]]), [-1]).status == INFEASIBLE


def test_lp_unbounded():
    assert lp_max([1], RatMatrix([[0]]), [0]).status == UNBOUNDED


def test_lp_matches_vertex_enumeration():
    import random

    rng = random.Random(11)
    checked = 0
    while checked < 25:
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = RatMatrix([[rng.randint(0, 5) for _ in range(n)] for _ in range(m)])
        b = [rng.randint(0, 8) for _ in range(m)]
        c = [rng.randint(-3, 5) for _ in range(n)]
        # nonnegative rows with positive column sums keep the region bounded
        if any(all(A.entry(i, j) == 0 for i in range(m)) for j in range(n)):
            continue
        feas, best, _ = vertex_lp_max(c, A, b)
        res = lp_max(c, A, b)
        if not feas:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == best
        checked += 1


def test_lp_rational_data():
    res = lp_max([F(1, 3), 1], RatMatrix([[F(1, 2), 1]]), [F(5, 2)])
    assert res.status == OPTIMAL
    # vertices: (5, 0) value 5/3; (0, 5/2) value 5/2
    assert res.value == F(5, 2)
