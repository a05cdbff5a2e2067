"""Exact rational linear algebra: kernels, solves, and a reference simplex LP.

All coefficients are `fractions.Fraction`; there is no floating point
anywhere.  Kernels are computed by fraction-free (Bareiss) elimination on
a primitive integer copy of the matrix (`integer_rows`), which keeps
intermediate entries to single determinant-sized integers.  The simplex
uses Bland's rule, so it terminates on every input.  No request runs it:
the resonance degree bound takes the basic points of its LP in integers
(`resonance.lp_degree_bound`), and `lp_max` stays public as the
reference those points are tested against.

Every structural system in nfkit comes as sparse columns, one per unknown,
keyed by equation (mostly a monomial).  `RatMatrix.from_columns` is the one
path from those columns to a matrix; a system without rows is an ordinary
0 x n matrix whose kernel is the identity basis.  Kernel bases do not
depend on row order: in `mat_kernel`'s normalization each basis vector is
fixed by the column order alone, so callers need not sort their row keys.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateFailure, DimensionMismatch

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RatMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        data = tuple(tuple(frac(x) for x in row) for row in data)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0
        self.rows = len(data)
        self.cols = width
        self._data = data

    @classmethod
    def from_columns(cls, columns):
        """Matrix whose column t holds the sparse column ``columns[t]``.

        Each column maps row keys to coefficients; rows are indexed by the
        union of the keys in order of first appearance.  The matrix has
        ``len(columns)`` columns, also when no column has a key (a 0 x n
        matrix).
        """
        ncols = len(columns)
        index = {}
        data = []
        for t, col in enumerate(columns):
            for key, c in col.items():
                i = index.get(key)
                if i is None:
                    i = index[key] = len(data)
                    data.append([Fraction(0)] * ncols)
                data[i][t] = c
        matrix = cls(data)
        matrix.cols = ncols  # a matrix without rows still has ncols columns
        return matrix

    def row(self, i) -> Vec:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)


@dataclass(frozen=True)
class SolutionSpace:
    """Affine solution set: particular point (kernel: the origin) + basis."""

    particular: Vec | None
    basis: tuple[Vec, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _bareiss_echelon(mat):
    """Fraction-free elimination.  Returns (echelon rows, pivot columns).

    Pivot columns are scanned left to right; the produced matrix is upper
    trapezoidal with integer entries.
    """
    rows = [row[:] for row in mat]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
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
        piv = rows[r][c]
        for i in range(r + 1, m):
            if all(x == 0 for x in rows[i]):
                continue
            factor = rows[i][c]
            for j in range(n):
                rows[i][j] = (piv * rows[i][j] - factor * rows[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def mat_rank(M: RatMatrix) -> int:
    _, pivots = _bareiss_echelon(integer_rows(M))
    return len(pivots)


def _kernel_basis(ech, pivots, n):
    """Kernel basis of the first n columns of an echelon form, as in `mat_kernel`.

    The vector of free column f is back-substituted only inside its
    triangle, the pivots c < f and the columns c < j <= f.  This is exact:
    x_f = 1 and every other free entry is 0, so, from the last pivot down,
    each pivot c > f sums only zeros and gets x_c = 0; every skipped
    product has a zero factor.
    """
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for k in range(bisect_left(pivots, f) - 1, -1, -1):
            c = pivots[k]
            row = ech[k]
            acc = sum((frac(row[j]) * x[j] for j in range(c + 1, f + 1)), Fraction(0))
            x[c] = -acc / row[c]
        basis.append(tuple(x))
    return tuple(basis)


def mat_kernel(M: RatMatrix) -> SolutionSpace:
    """Exact basis of {x : Mx = 0}, in reduced-echelon pivot order.

    Each basis vector carries value 1 at its own free column and 0 at every
    other free column, ordered by free column index.
    """
    n = M.cols
    ech, pivots = _bareiss_echelon(integer_rows(M))
    return SolutionSpace(
        particular=tuple(Fraction(0) for _ in range(n)), basis=_kernel_basis(ech, pivots, n)
    )


def mat_solve(M: RatMatrix, b) -> SolutionSpace | None:
    """Particular solution of Mx = b plus kernel basis; None if inconsistent.

    One elimination of [M | b] gives both: its pivots left of the last
    column are those of M, so the kernel reads off the same echelon form.
    When b is consistent the last column is free, and the last kernel
    vector of [M | b] is (-x, 1) for the particular solution x.
    """
    b = tuple(frac(x) for x in b)
    if len(b) != M.rows:
        raise DimensionMismatch("rhs length != rows")
    n = M.cols
    aug = [list(M.row(i)) + [b[i]] for i in range(M.rows)]
    ech, pivots = _bareiss_echelon(integer_rows(aug))
    if n in pivots:
        return None
    *kernel, last = _kernel_basis(ech, pivots, n + 1)
    return SolutionSpace(
        particular=tuple(-x for x in last[:n]), basis=tuple(v[:n] for v in kernel)
    )


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


def lp_max(c, A: RatMatrix, b) -> LpResult:
    """Exact maximum of c.x over {x >= 0 : Ax = b} via two-phase simplex."""
    m, n = A.rows, A.cols
    c = [frac(x) for x in c]
    b = [frac(x) for x in b]
    if len(c) != n or len(b) != m:
        raise DimensionMismatch("lp dimensions")
    T = []
    for i in range(m):
        row = list(A.row(i))
        rhs = b[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        T.append(row + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [rhs])
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


def integer_rows(rows):
    """Scale rows of ints or Fractions to primitive integer rows (zero rows preserved)."""
    out = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (mult // x.denominator) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out
