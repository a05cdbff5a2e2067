"""Exact linear algebra: kernels, solves, simplex."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfkit import linalg
from nfkit.errors import DimensionMismatch
from nfkit.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    RatMatrix,
    SolutionSpace,
    lp_max,
    mat_kernel,
    mat_rank,
    mat_solve,
)

from oracles import (
    columns_of,
    dense_bareiss_echelon,
    dense_bareiss_kernel,
    dense_primitive_rows,
    vertex_lp_max,
)

IDENTITY_3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def annihilates(rows, v):
    return all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_kernel_zero_matrix():
    space = mat_kernel(RatMatrix(columns_of([[0, 0], [0, 0]])))
    assert space.dimension == 2
    # columns without keys: a 0 x 3 system whose kernel is the identity basis
    empty = RatMatrix([{}, {}, {}])
    assert (empty.rows, empty.cols) == (0, 3)
    assert mat_kernel(empty).basis == tuple(IDENTITY_3)


def test_kernel_identity():
    space = mat_kernel(RatMatrix(columns_of(IDENTITY_3)))
    assert space.dimension == 0


def test_kernel_eg3_matrix():
    # coefficient matrix of the worked 3-dimensional example, all weights 1
    rows = [
        [-1, 2, 0, 0, 0, 0, 0],
        [-1, 1, 2, -2, 0, 0, 2],
        [-1, 0, 4, 0, -1, 0, 1],
        [0, -1, 2, 0, 0, 0, 0],
    ]
    space = mat_kernel(RatMatrix(columns_of(rows)))
    assert space.dimension == 3
    for v in space.basis:
        assert annihilates(rows, v)


def test_kernel_reduced_echelon_shape():
    M = RatMatrix(columns_of([[1, 2, 0, 3], [0, 0, 1, 4]]))
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
    M = RatMatrix(columns_of(rows))
    space = mat_kernel(M)
    assert mat_rank(M) + space.dimension == M.cols
    for v in space.basis:
        assert annihilates(rows, v)
    # the same system as sparse columns whose keys appear in shuffled order
    order = list(range(len(rows)))
    rng.shuffle(order)
    columns = [{i: rows[i][t] for i in order} for t in range(M.cols)]
    assert mat_kernel(RatMatrix(columns)).basis == space.basis


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


def _dense_rows(columns):
    """The rows of ``RatMatrix(columns)`` built entry by entry, zeros included."""
    keys = list(dict.fromkeys(key for col in columns for key in col))
    return [[F(col.get(key, 0)) for col in columns] for key in keys]


def _sparse_system(columns):
    """(rational rows, matrix) of a system given by its sparse columns."""
    return _dense_rows(columns), RatMatrix(columns)


# (rational rows, matrix) pairs: dense rows, and wide sparse systems as the
# solvers build them: up to 12 columns over at most 6 row keys, so most
# columns are free, many of them left of later pivots, and empty columns
# are common
RATIONAL_SYSTEMS = RATIONAL_MATRICES.map(lambda rows: (rows, RatMatrix(columns_of(rows))))
WIDE_SPARSE_SYSTEMS = st.lists(
    st.dictionaries(st.integers(0, 5), RATIONALS, max_size=3), min_size=1, max_size=12
).map(_sparse_system)


@settings(max_examples=300, deadline=None)
@given(system=st.one_of(RATIONAL_SYSTEMS, WIDE_SPARSE_SYSTEMS))
@example(
    # pivots 1, 4 and 7; empty columns 0 and 3; columns 2, 5 and 6 are free left of pivot 7
    system=_sparse_system(
        [{}, {0: F(1)}, {0: F(2)}, {}, {0: F(1), 1: F(3)}, {1: F(-1)}, {0: F(1, 2)},
         {2: F(5)}, {1: F(4), 2: F(-1)}]
    )
)
@example(
    # column 1 holds only explicit zeros, between pivots 0 and 2; column 3 is free
    system=_sparse_system([{0: F(1)}, {0: F(0), 1: F(0)}, {1: F(2)}, {0: F(3), 1: F(-1)}])
)
def test_kernel_and_rank_match_sympy(sympy, system):
    rows, M = system
    S = sympy.Matrix(
        M.rows, M.cols, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    )
    assert mat_kernel(M).basis == tuple(_from_sympy(v) for v in S.nullspace())
    assert mat_rank(M) == S.rank()


# sparse columns keyed by row labels, the shape every solver hands to RatMatrix
SPARSE_COLUMNS = st.lists(st.dictionaries(st.integers(0, 5), RATIONALS, max_size=4), max_size=7)


@settings(max_examples=150, deadline=None)
@given(SPARSE_COLUMNS)
def test_kernel_vectors_annihilate_their_columns(columns):
    basis = mat_kernel(RatMatrix(columns)).basis
    keys = {key for col in columns for key in col}
    for v in basis:
        assert len(v) == len(columns)
        for key in keys:
            assert sum(col.get(key, 0) * x for col, x in zip(columns, v)) == 0


class _CountingFraction(F):
    """A `Fraction` that logs each sum or product it is the left operand of.
    Results are plain `Fraction`s, so only fresh unknowns and sum starts are logged."""

    log = []

    def __add__(self, other):
        self.log.append("+")
        return F.__add__(self, other)

    def __mul__(self, other):
        self.log.append("*")
        return F.__mul__(self, other)


def test_empty_free_columns_are_not_back_substituted(monkeypatch):
    """A free column that no row touches, explicit zeros or none, gets its unit vector
    without a single back-substitution step, also where pivots lie to its left."""
    monkeypatch.setattr(linalg, "Fraction", _CountingFraction)
    log = _CountingFraction.log
    log.clear()
    # pivots 0, 2 and 4; column 1 has no entry, column 3 only explicit zeros
    columns = [{0: 1}, {}, {0: 1, 1: 1}, {0: F(0), 2: F(0)}, {0: 1, 1: 2, 2: 3}]
    space = mat_kernel(RatMatrix(columns))
    assert space.basis == ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0))
    assert space.supports == ((1,), (3,))
    assert log == []
    # b = 0 is an empty last column of [A | -b]: the particular solution is 0 at no cost
    rows = [[1, 0, 1], [0, 0, 1]]
    assert mat_solve(rows, [0, 0]) == ((0, 0, 0), mat_kernel(RatMatrix(columns_of(rows))))
    assert log == []
    # once column 3 is touched, its vector is back-substituted through pivots 2 and 0
    columns[3] = {0: F(1, 2)}
    space = mat_kernel(RatMatrix(columns))
    assert space.basis == ((0, 1, 0, 0, 0), (F(-1, 2), 0, 0, 1, 0))
    assert space.supports == ((1,), (0, 3))
    assert log


def test_solve_homogeneous():
    # b = 0: the particular solution is the origin, the basis that of the kernel
    rows = [[1, 2, 0, -1], [2, 4, 0, F(1, 3)]]
    particular, space = mat_solve(rows, [0, 0])
    kernel = mat_kernel(RatMatrix(columns_of(rows)))
    assert particular == (0, 0, 0, 0)
    assert (space.basis, space.supports) == (kernel.basis, kernel.supports)
    assert space.basis == ((-2, 1, 0, 0), (0, 0, 1, 0))
    # without rows there is no unknown: the solution set is the empty point
    assert mat_solve([], []) == ((), SolutionSpace((), ()))


def _with_rhs(rows):
    return st.tuples(st.just(rows), st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))


def _nonzero_positions(v):
    return tuple(t for t, x in enumerate(v) if x != 0)


@settings(max_examples=300, deadline=None)
@given(
    system=st.one_of(RATIONAL_SYSTEMS, WIDE_SPARSE_SYSTEMS),
    solved=RATIONAL_MATRICES.flatmap(_with_rhs),
)
def test_supports_are_the_nonzero_positions(system, solved):
    """``supports[k]`` lists exactly the nonzero positions of ``basis[k]``, ascending,
    for kernels and for the kernel part of a solve."""
    space = mat_kernel(system[1])
    assert space.supports == tuple(map(_nonzero_positions, space.basis))
    sol = mat_solve(*solved)
    if sol is not None:
        _, kernel = sol
        assert kernel.supports == tuple(map(_nonzero_positions, kernel.basis))


def _primitive(row):
    """A rational row times the lcm of its denominators, over the gcd of the result."""
    mult = lcm(*(x.denominator for x in row))
    nums = [x.numerator * (mult // x.denominator) for x in row]
    g = gcd(*nums)
    return [v // g for v in nums] if g else nums


EDGE_COLUMNS = {
    # the pair rows of `reduced_multiplier_obstruction`: nu[i][j] - nu[j][j] may be 0
    "explicit-zeros": [{(0, 1): F(0), (0, 2): F(2)}, {(0, 1): F(0), (1, 2): F(-1)},
                       {(0, 2): F(0), (1, 2): F(0)}],
    # rows (a) and (b) hold only zeros: their gcd is 0 and nothing is divided
    "zero-rows": [{"a": 0, "c": F(3, 2)}, {"a": F(0), "b": F(0)}, {"c": F(-9, 4)}],
    "mixed-denominators": [{0: F(1, 6), 1: F(-2, 3)}, {0: F(-5, 4), 2: F(7, 10)},
                           {1: F(3, 14), 2: F(-1, 15)}, {0: 2, 1: F(-9, 7), 2: F(4, 9)}],
    "negative-entries": [{0: -4, 1: -6}, {0: F(-2, 3), 1: -1}, {1: F(-8, 5)}],
    "no-rows": [{}, {}, {}],
}


@pytest.mark.parametrize("columns", EDGE_COLUMNS.values(), ids=EDGE_COLUMNS.keys())
def test_integer_rows_from_sparse_columns(sympy, columns):
    """`RatMatrix` builds each primitive integer row from the row's own entries, and
    holds it over the touched columns only."""
    system = RatMatrix(columns)
    rows = _dense_rows(columns)
    # a column is touched when it holds a nonzero entry; explicit zeros do not count
    touched = tuple(t for t, col in enumerate(columns) if any(c != 0 for c in col.values()))
    assert system._touched == touched
    # each narrow row is the primitive row restricted to the touched columns, which
    # loses nothing: the primitive row is zero at every other column
    primitive = [_primitive(row) for row in rows]
    assert system._ints == [[row[t] for t in touched] for row in primitive]
    assert all(row[t] == 0 for row in primitive for t in range(len(columns)) if t not in touched)
    assert (system.rows, system.cols) == (len(rows), len(columns))
    basis = mat_kernel(system).basis
    S = sympy.Matrix(
        len(rows), len(columns), [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    )
    assert basis == tuple(_from_sympy(v) for v in S.nullspace())
    if rows:
        assert basis == mat_kernel(RatMatrix(columns_of(rows))).basis
        assert mat_rank(system) == mat_rank(RatMatrix(columns_of(rows))) == S.rank()
    else:
        assert basis == tuple(IDENTITY_3)


# entries with denominators up to 9, zero often and as an int or a Fraction
MIXED = st.one_of(st.just(0), st.just(F(0)), st.integers(-5, 5), st.fractions(-5, 5, max_denominator=9))


@st.composite
def narrowed_systems(draw):
    """Sparse columns with every shape the narrow rows must survive: columns with
    no entry or only explicit zeros, rows of explicit zeros, rows repeated (scaled)
    under another key, and entries over mixed denominators."""
    ncols = draw(st.integers(1, 10))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), MIXED, max_size=4), max_size=6))
    for i in draw(st.lists(st.sampled_from(range(len(rows))), max_size=2)) if rows else []:
        scale = draw(st.sampled_from([1, -1, 2, F(-1, 3)]))
        rows.append({t: scale * c for t, c in rows[i].items()})
    for support in draw(st.lists(st.sets(st.integers(0, ncols - 1), min_size=1), max_size=2)):
        rows.append(dict.fromkeys(support, F(0)))
    zeroed = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    order = draw(st.permutations(range(len(rows))))
    columns = [{} for _ in range(ncols)]
    for key in order:
        for t, c in rows[key].items():
            columns[t][key] = 0 if t in zeroed else c
    return columns


@settings(max_examples=300, deadline=None)
@given(narrowed_systems())
@example(
    # column 0 untouched, column 2 explicit zeros only, rows b and c duplicates of a,
    # row d explicit zeros, and a pivot at 3 right of the free column 1
    [{"d": F(0)}, {"a": F(1, 6), "b": F(1, 3), "c": F(-1, 6)}, {"a": 0, "d": 0},
     {"a": F(-5, 4), "b": F(-5, 2), "c": F(5, 4), "e": 7}, {}, {"e": F(2, 9)}]
)
def test_kernel_and_rank_match_the_dense_bareiss_oracle(columns):
    """Over the touched columns, the elimination gives the dense echelon rows (the same
    integers, untouched columns left out) and pivots, `mat_kernel` the dense basis and
    supports, in the same order, and `mat_rank` the dense rank."""
    basis, supports, rank = dense_bareiss_kernel(columns)
    M = RatMatrix(columns)
    echelon, pivots = linalg._bareiss_echelon(M._ints)
    dense_echelon, dense_pivots = dense_bareiss_echelon(dense_primitive_rows(columns))
    assert [M._touched[c] for c in pivots] == dense_pivots
    assert echelon == [[row[t] for t in M._touched] for row in dense_echelon]
    space = mat_kernel(M)
    assert space.basis == basis
    assert space.supports == supports
    assert mat_rank(M) == rank


@st.composite
def block_diagonal_systems(draw):
    """Sparse blocks on disjoint row keys, their columns interleaved in one system.

    Returns (columns of the whole system, per block the list of its column
    positions in it, per block its own columns).
    """
    nblocks = draw(st.integers(2, 3))
    blocks = [
        draw(st.lists(st.dictionaries(st.integers(0, 3), RATIONALS, max_size=3),
                      min_size=1, max_size=5))
        for _ in range(nblocks)
    ]
    owner = draw(st.permutations([b for b, cols in enumerate(blocks) for _ in cols]))
    positions = [[t for t, b in enumerate(owner) if b == k] for k in range(nblocks)]
    columns = [None] * len(owner)
    for k, cols in enumerate(blocks):
        for t, col in zip(positions[k], cols):
            columns[t] = {(k, key): c for key, c in col.items()}
    return columns, positions, blocks


@settings(max_examples=150, deadline=None)
@given(block_diagonal_systems())
def test_kernel_of_a_block_diagonal_system_is_the_union_of_block_kernels(system):
    """The basis is fixed by the column order alone (the reduced echelon form is unique):
    each block's kernel vectors, placed at its columns, ordered by free column."""
    columns, positions, blocks = system
    n = len(columns)
    embedded = []
    for cols, at in zip(blocks, positions):
        for v in mat_kernel(RatMatrix(cols)).basis:
            x = [F(0)] * n
            for t, c in zip(at, v):
                x[t] = c
            # the free column of a basis vector is its last nonzero entry
            embedded.append((max(t for t, c in enumerate(x) if c), tuple(x)))
    expected = tuple(x for _, x in sorted(embedded))
    assert mat_kernel(RatMatrix(columns)).basis == expected


@settings(max_examples=150, deadline=None)
@given(RATIONAL_MATRICES.flatmap(_with_rhs))
def test_solve_matches_sympy(sympy, system):
    rows, b = system
    S = _to_sympy(sympy, rows)
    sol = mat_solve(rows, b)
    consistent = S.rank() == S.row_join(_to_sympy(sympy, [[x] for x in b])).rank()
    assert (sol is not None) == consistent
    if sol is not None:
        particular, kernel = sol
        assert S * sympy.Matrix(particular) == _to_sympy(sympy, [[x] for x in b])
        assert kernel.basis == tuple(_from_sympy(v) for v in S.nullspace())


def test_solve_identity():
    particular, kernel = mat_solve(IDENTITY_3, [5, F(1, 2), -2])
    assert particular == (5, F(1, 2), -2)
    assert kernel.basis == ()


def test_solve_underdetermined():
    particular, kernel = mat_solve([[1, 1]], [1])
    assert particular == (1, 0)
    assert len(kernel.basis) == 1


def test_solve_inconsistent():
    assert mat_solve([[0]], [1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="rhs length"):
        mat_solve([[1, 0]], [1, 2])
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        mat_solve([[1, 0], [1]], [1, 2])
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        mat_solve([[1], [1, 0]], [1, 2])


def test_lp_simplex_example():
    res = lp_max([1, 1, 1], [[12, 6, 3]], [12])
    assert res.status == OPTIMAL
    assert res.value == 4
    assert res.point == (0, 0, 4)


def test_lp_infeasible():
    assert lp_max([1], [[1]], [-1]).status == INFEASIBLE


def test_lp_unbounded():
    assert lp_max([1], [[0]], [0]).status == UNBOUNDED


def test_lp_matches_vertex_enumeration():
    import random

    rng = random.Random(11)
    checked = 0
    while checked < 25:
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 8) for _ in range(m)]
        c = [rng.randint(-3, 5) for _ in range(n)]
        # nonnegative rows with positive column sums keep the region bounded
        if any(all(A[i][j] == 0 for i in range(m)) for j in range(n)):
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
    res = lp_max([F(1, 3), 1], [[F(1, 2), 1]], [F(5, 2)])
    assert res.status == OPTIMAL
    # vertices: (5, 0) value 5/3; (0, 5/2) value 5/2
    assert res.value == F(5, 2)
