"""Exact rational linear algebra: kernels, solves, and a reference simplex LP.

All coefficients are `fractions.Fraction`; there is no floating point
anywhere.  One way in: every system comes as sparse columns, one per
unknown, keyed by equation (mostly a monomial), and `RatMatrix(columns)`
builds each primitive integer row from the row's nonzero entries, with no
dense rational matrix in between.  The rows are narrow: they span only the
touched columns, those where some row holds a nonzero entry, and the
matrix keeps the map from a row's entry k to its column.  No other column
can hold a pivot, so no full-width row is ever built.  A system without
rows is a 0 x n matrix whose kernel is the identity basis.

One way out: `mat_kernel` runs fraction-free (Bareiss) elimination on the
narrow integer rows, which keeps intermediate entries to single
determinant-sized integers.  The step is pivot-forward: a row below the
pivot at column c is zero left of c and loses its entry at c, so only its
entries from c + 1 on are updated.  A row with no entry at c is only
scaled, and those scalings telescope, so each row is scaled up once, when
it next takes part; the echelon rows are the integers of the plain
step-by-step elimination.  The integer echelon entries are back-substituted
in narrow coordinates straight into `Fraction` unknowns, and each vector
comes out as its nonzero (column, value) pairs at its full columns,
ascending, with its free column last at value 1: no full-width vector is
built, and every reader takes the pairs.  A kernel has no particular point.
A free column that no equation touches gets ((f, 1),) without
back-substitution.  Each basis vector is fixed by the column order alone
(the reduced row echelon form is unique), so callers need not sort their
row keys.  `mat_rank` counts the pivots of the same elimination, and
`mat_solve` reads Ax = b off the kernel of [A | -b]: it is consistent
exactly when column n is free, whose vector is then (x, 1).

Every exact solve reads `mat_kernel`.  The resonance degree bound and the
rewrite over the invariant generators take the kernel of [A | -I]: when
A's columns are independent, the free unit columns are coordinates on
which A is invertible, and their vectors hold that inverse, which
`integer_transpose` reads off as integers over one denominator.  The only
other way into the elimination is `pivot_columns`, for ranks.

The simplex `lp_max` uses Bland's rule, so it terminates on every input.
No request runs `mat_solve` or `lp_max`; `lp_max` is the reference that the
integer basic points of `resonance.lp_degree_bound` are tested against.
`nfkit` exports none of these names.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateFailure, DimensionMismatch, InputError

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """An int (not a bool) or a Fraction as a Fraction; anything else is refused."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise InputError(f"coefficient {x!r} must be an int or a Fraction")


class RatMatrix:
    """Immutable matrix over the rationals, held as primitive integer rows: each
    rational row times the lcm of its denominators, over the gcd of the result.
    Scaling a row changes neither the kernel nor the rank, which is all they serve."""

    __slots__ = ("rows", "cols", "_ints", "_touched")

    def __init__(self, columns):
        """Matrix whose column t holds the sparse column ``columns[t]``.

        Each column maps row keys to coefficients (ints or Fractions); rows
        are indexed by the union of the keys in order of first appearance.
        The matrix has ``len(columns)`` columns, also when no column has a
        key (a 0 x n matrix).  A column is touched when some row holds a
        nonzero entry there; ``_touched`` lists those columns in ascending
        order, and each row's primitive integer row is held over them only,
        its entry k at column ``_touched[k]``: it is built from the row's
        nonzero entries alone, with one lcm of their denominators and one
        gcd.  No other column can hold a pivot.
        """
        index = {}
        entries = []
        touched = []
        for t, col in enumerate(columns):
            k = len(touched)  # the entry index of column t, if it is touched
            for key, c in col.items():
                i = index.get(key)
                if i is None:
                    i = index[key] = len(entries)
                    entries.append([])
                if c:
                    entries[i].append((k, c))
                    if len(touched) == k:
                        touched.append(t)
        ints = []
        for row in entries:
            mult = lcm(*[c.denominator for _, c in row])
            nums = [c.numerator * (mult // c.denominator) for _, c in row]
            g = gcd(*nums)
            if g > 1:
                nums = [v // g for v in nums]
            narrow = [0] * len(touched)
            for (k, _), v in zip(row, nums):
                narrow[k] = v
            ints.append(narrow)
        self.rows = len(ints)
        self.cols = len(columns)
        self._ints = ints
        self._touched = tuple(touched)


Pairs = tuple[tuple[int, Fraction], ...]


def dense_vector(pairs: Pairs, cols: int) -> Vec:
    """The vector over ``cols`` columns with the value of each (column, value) pair, 0 elsewhere."""
    v = [Fraction(0)] * cols
    for t, x in pairs:
        v[t] = x
    return tuple(v)


@dataclass(frozen=True)
class SolutionSpace:
    """Kernel basis over ``cols`` unknowns: each vector is the tuple of its nonzero
    (column, value) pairs by ascending column, its free column last with value 1.

    ``basis`` writes the vectors out densely on access, for the benchmark's
    kernel sizer and for tests, until nfkit counts its own sizes (ROADMAP item 9).
    """

    vectors: tuple[Pairs, ...]
    cols: int

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> tuple[Vec, ...]:
        return tuple(dense_vector(pairs, self.cols) for pairs in self.vectors)


def _bareiss_echelon(mat):
    """Fraction-free elimination.  Returns (echelon rows, pivot columns).

    Pivot columns are scanned left to right; the produced matrix is upper
    trapezoidal with integer entries.  A row below pivot (r, c) is zero left
    of c, and the update (piv a - factor b) // prev clears its column c, so
    only its entries from c + 1 on are computed.  A row whose factor is 0 is
    only scaled by piv / prev, and across pivots r0..r - 1 these scalings
    telescope to dets[r] / dets[r0], with dets[k] the pivot of echelon row
    k - 1 (dets[0] = 1).  So each row records how many pivots it is current
    through, and is scaled up only when it next has a nonzero factor or
    becomes the pivot row.  A scaling keeps every zero, so the pivot search
    reads stale rows; the echelon rows are the same integers as those of
    the step-by-step elimination, and each division is exact.
    """
    rows = [list(row) for row in mat]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    current = [0] * m
    dets = [1]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        current[r], current[pivot_row] = current[pivot_row], current[r]
        prev = dets[r]
        # the pivot row and every row it updates are first scaled up to date
        for i in range(r, m):
            if rows[i][c] and current[i] < r:
                old = dets[current[i]]
                rows[i] = [prev * a // old for a in rows[i]]
        piv = rows[r][c]
        tail = rows[r][c + 1:]
        for i in range(r + 1, m):
            row = rows[i]
            factor = row[c]
            if factor:
                row[c + 1:] = [(piv * a - factor * b) // prev for a, b in zip(row[c + 1:], tail)]
                row[c] = 0
                current[i] = r + 1
        dets.append(piv)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def mat_rank(M: RatMatrix) -> int:
    return len(pivot_columns(M._ints))


def pivot_columns(rows) -> list[int]:
    """Pivot columns of integer rows, left to right: a maximal independent set of columns."""
    return _bareiss_echelon(rows)[1]


def _kernel_basis(ech, pivots, width):
    """(free column, vector, support) for each free column of an integer echelon
    form over ``width`` columns, in ascending order of the free column.

    The vector of free column f is back-substituted only inside its
    triangle, the pivots c < f and the columns c < j <= f.  This is exact:
    x_f = 1 and every other free entry is 0, so, from the last pivot down,
    each pivot c > f sums only zeros and gets x_c = 0; every skipped
    product has a zero factor.  Each product is a `Fraction` unknown times an
    integer echelon entry: `Fraction.__mul__` takes the int directly, with the
    value of the rational product, so no entry is first made into a `Fraction`.
    Its support is f and each pivot c < f whose sum has a nonzero numerator (row[c] != 0).
    """
    pivot_set = set(pivots)
    for f in range(width):
        if f in pivot_set:
            continue
        x = [Fraction(0)] * (f + 1)
        x[f] = Fraction(1)
        support = [f]
        for k in range(bisect_left(pivots, f) - 1, -1, -1):
            c = pivots[k]
            row = ech[k]
            acc = sum((x[j] * row[j] for j in range(c + 1, f + 1)), Fraction(0))
            x[c] = -acc / row[c]
            if acc.numerator:
                support.append(c)
        yield f, x, support[::-1]


def mat_kernel(M: RatMatrix) -> SolutionSpace:
    """Exact basis of {x : Mx = 0}, in reduced-echelon pivot order.

    Each basis vector carries value 1 at its own free column and 0 at every
    other free column, ordered by free column index.  The elimination runs
    over the touched columns only: each of their vectors is back-substituted
    in those coordinates and its nonzero entries are moved to their full
    columns.  A column that no row touches stays zero in every echelon row,
    so inside its triangle every sum would be zero: its vector is the unit
    vector ((f, 1),), and is not back-substituted at all.
    """
    ech, pivots = _bareiss_echelon(M._ints)
    touched = M._touched
    solved = {
        touched[f]: tuple((touched[j], x[j]) for j in support)
        for f, x, support in _kernel_basis(ech, pivots, len(touched))
    }
    pivoted = {touched[c] for c in pivots}
    one = Fraction(1)
    vectors = tuple(solved.get(f) or ((f, one),) for f in range(M.cols) if f not in pivoted)
    return SolutionSpace(vectors, M.cols)


def integer_transpose(space: SolutionSpace, width: int):
    """(den, rows): rows[i][k] is den times entry i < ``width`` of vector k, and den
    the lcm of those entries' denominators.  Without vectors there are no rows."""
    columns = [dense_vector([p for p in pairs if p[0] < width], width) for pairs in space.vectors]
    den = lcm(*(x.denominator for col in columns for x in col))
    return den, [[x.numerator * (den // x.denominator) for x in a] for a in zip(*columns)]


def mat_solve(rows, b) -> tuple[Vec, SolutionSpace] | None:
    """(particular solution, kernel) of Ax = b, A given by its rows; None if inconsistent.

    The kernel of [A | -b] holds both: its pivots left of the last column
    are those of A, so the vectors of A's free columns are A's kernel
    basis.  Ax = b is consistent exactly when the last column is free, and
    its vector is then (x, 1) for the particular solution x, which is 0 at
    A's free columns.  Without rows there is no unknown, and the solution
    set is the empty point.
    """
    if len(b) != len(rows):
        raise DimensionMismatch("rhs length != rows")
    if not rows:
        return (), SolutionSpace((), 0)
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("ragged rows")
    columns = [{i: row[t] for i, row in enumerate(rows)} for t in range(n)]
    columns.append({i: -x for i, x in enumerate(b)})
    vectors = mat_kernel(RatMatrix(columns)).vectors
    if not vectors or vectors[-1][-1][0] != n:
        return None
    return dense_vector(vectors[-1][:-1], n), SolutionSpace(vectors[:-1], n)


OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None = None
    point: Vec | None = None


def _reduced_costs(T, basis, cost):
    m = len(T)
    ncols = len(T[0]) - 1
    out = []
    for j in range(ncols):
        z = sum((cost[basis[i]] * T[i][j] for i in range(m)), Fraction(0))
        out.append(cost[j] - z)
    return out


def _pivot(T, r, c):
    """Scale row r of the tableau to a unit pivot at column c; clear column c elsewhere."""
    piv = T[r][c]
    T[r] = [x / piv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]


def _simplex_phase(T, basis, cost, allowed):
    """Maximize cost over the tableau in place; Bland's rule throughout."""
    m = len(T)
    rhs = len(T[0]) - 1
    while True:
        red = _reduced_costs(T, basis, cost)
        enter = None
        for j in range(allowed):
            if j not in basis and red[j] > 0:
                enter = j
                break
        if enter is None:
            value = sum((cost[basis[i]] * T[i][rhs] for i in range(m)), Fraction(0))
            return OPTIMAL, value
        ratio = None
        leave = None
        for i in range(m):
            if T[i][enter] > 0:
                r = T[i][rhs] / T[i][enter]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave is None:
            return UNBOUNDED, None
        _pivot(T, leave, enter)
        basis[leave] = enter


def lp_max(c, rows, b) -> LpResult:
    """Exact maximum of c.x over {x >= 0 : Ax = b}, A given by its rows, by two-phase simplex."""
    c = [frac(x) for x in c]
    b = [frac(x) for x in b]
    m, n = len(rows), len(c)
    if len(b) != m or any(len(row) != n for row in rows):
        raise DimensionMismatch("lp dimensions")
    T = []
    for i, (row, rhs) in enumerate(zip(rows, b)):
        sign = -1 if rhs < 0 else 1
        unit = [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        T.append([sign * frac(x) for x in row] + unit + [sign * rhs])
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    status, value = _simplex_phase(T, basis, cost1, n + m)
    if status != OPTIMAL:
        raise CertificateFailure("phase 1 of the simplex is bounded by 0 but came out unbounded")
    if value != 0:
        return LpResult(INFEASIBLE)
    # Pivot leftover artificials out of the basis, dropping redundant rows.
    keep = []
    for i in range(len(T)):
        if basis[i] >= n:
            j = next((j for j in range(n) if T[i][j] != 0), None)
            if j is None:
                continue  # 0 = 0 row
            _pivot(T, i, j)
            basis[i] = j
        keep.append(i)
    T = [T[i] for i in keep]
    basis = [basis[i] for i in keep]
    if not T:
        # every constraint was redundant: the region is the full orthant
        if any(x > 0 for x in c):
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, Fraction(0), tuple(Fraction(0) for _ in range(n)))
    cost2 = c + [Fraction(0)] * m
    status, value = _simplex_phase(T, basis, cost2, n)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    rhs = len(T[0]) - 1
    point = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            point[bv] = T[i][rhs]
    return LpResult(OPTIMAL, value, tuple(point))
