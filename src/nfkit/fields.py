"""Sparse exact polynomial scalar series and vector fields.

Terms are dictionaries keyed by exponent rows (series) or (component,
exponent row) pairs (fields), with Fraction coefficients and no stored
zeros.  Every object carries a truncation budget; binary operations take
the minimum of the budgets and drop anything beyond it, so no result ever
claims exactness past its horizon.  ``math.inf`` marks genuine polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, InfiniteResonanceWithoutCap, LinearPartMismatch
from .linalg import frac
from .resonance import resonance_degree_bound, resonant_multiindices
from .spectrum import EigenSpectrum, is_finite_linear_centralizer

INF = math.inf

Monomial = tuple[int, ...]


class PolySeries:
    """Scalar polynomial / truncated series with exact coefficients."""

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n, terms=None, trunc=INF):
        self.n = n
        self.trunc = trunc
        data = {}
        for m, c in (terms or {}).items():
            c = frac(c)
            if c == 0:
                continue
            m = tuple(int(x) for x in m)
            if len(m) != n or any(x < 0 for x in m):
                raise DimensionMismatch(f"bad exponent row {m} for n = {n}")
            if sum(m) > trunc:
                continue
            data[m] = c
        self.terms = data

    @classmethod
    def zero(cls, n, trunc=INF):
        return cls(n, {}, trunc)

    @classmethod
    def constant(cls, n, c, trunc=INF):
        return cls(n, {tuple(0 for _ in range(n)): frac(c)}, trunc)

    @classmethod
    def monomial(cls, n, m, c=1, trunc=INF):
        return cls(n, {tuple(m): frac(c)}, trunc)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def coefficient(self, m) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    def min_degree(self):
        return min((sum(m) for m in self.terms), default=None)

    def graded_part(self, d):
        return PolySeries(
            self.n, {m: c for m, c in self.terms.items() if sum(m) == d}, self.trunc
        )

    def truncated(self, trunc):
        return PolySeries(self.n, self.terms, min(self.trunc, trunc))

    def __add__(self, other):
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        data = dict(self.terms)
        for m, c in other.terms.items():
            data[m] = data.get(m, Fraction(0)) + c
        return PolySeries(self.n, data, trunc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = frac(c)
        return PolySeries(self.n, {m: c * v for m, v in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        data = {}
        for m1, c1 in self.terms.items():
            d1 = sum(m1)
            for m2, c2 in other.terms.items():
                if d1 + sum(m2) > trunc:
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                data[m] = data.get(m, Fraction(0)) + c1 * c2
        return PolySeries(self.n, data, trunc)

    def is_zero_mod(self, degree):
        """True when every stored term has degree > ``degree``."""
        return all(sum(m) > degree for m in self.terms)

    def eval_at(self, point):
        point = [frac(x) for x in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= point[i] ** e
            total += v
        return total

    def _check(self, other):
        if not isinstance(other, PolySeries) or other.n != self.n:
            raise DimensionMismatch("series dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, PolySeries)
            and other.n == self.n
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(self.sorted_terms())))

    def __repr__(self):
        parts = [f"{c}*x^{m}" for m, c in self.sorted_terms()]
        return f"PolySeries({' + '.join(parts) or '0'}; trunc={self.trunc})"


class PolyVectorField:
    """Vector field with terms keyed by (component, exponent row), 0-based."""

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n, terms=None, trunc=INF):
        self.n = n
        self.trunc = trunc
        data = {}
        for (j, m), c in (terms or {}).items():
            c = frac(c)
            if c == 0:
                continue
            m = tuple(int(x) for x in m)
            if not (0 <= j < n) or len(m) != n or any(x < 0 for x in m):
                raise DimensionMismatch(f"bad term ({j}, {m}) for n = {n}")
            if sum(m) > trunc:
                continue
            data[(j, m)] = c
        self.terms = data

    @classmethod
    def zero(cls, n, trunc=INF):
        return cls(n, {}, trunc)

    @classmethod
    def monomial(cls, n, j, m, c=1, trunc=INF):
        return cls(n, {(j, tuple(m)): frac(c)}, trunc)

    @classmethod
    def from_matrix(cls, mat, trunc=INF):
        """Linear field M x from a square matrix (rows of rationals)."""
        n = len(mat)
        terms = {}
        for i in range(n):
            for k in range(n):
                c = frac(mat[i][k])
                if c != 0:
                    m = tuple(1 if t == k else 0 for t in range(n))
                    terms[(i, m)] = c
        return cls(n, terms, trunc)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (t[0][0], sum(t[0][1]), t[0][1]))

    def coefficient(self, j, m) -> Fraction:
        return self.terms.get((j, tuple(m)), Fraction(0))

    def component(self, j) -> PolySeries:
        return PolySeries(
            self.n,
            {m: c for (i, m), c in self.terms.items() if i == j},
            self.trunc,
        )

    def min_degree(self):
        return min((sum(m) for _, m in self.terms), default=None)

    def max_degree(self):
        return max((sum(m) for _, m in self.terms), default=None)

    def graded_part(self, d):
        return PolyVectorField(
            self.n,
            {(j, m): c for (j, m), c in self.terms.items() if sum(m) == d},
            self.trunc,
        )

    def truncated(self, trunc):
        return PolyVectorField(self.n, self.terms, min(self.trunc, trunc))

    def __add__(self, other):
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        data = dict(self.terms)
        for k, c in other.terms.items():
            data[k] = data.get(k, Fraction(0)) + c
        return PolyVectorField(self.n, data, trunc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = frac(c)
        return PolyVectorField(self.n, {k: c * v for k, v in self.terms.items()}, self.trunc)

    def is_zero_mod(self, degree):
        return all(sum(m) > degree for _, m in self.terms)

    def linear_matrix(self):
        """The |m| = 1 terms as an n x n matrix of Fractions."""
        n = self.n
        mat = [[Fraction(0)] * n for _ in range(n)]
        for (j, m), c in self.terms.items():
            if sum(m) == 1:
                k = m.index(1)
                mat[j][k] = c
        return mat

    def nonlinear_part(self):
        return PolyVectorField(
            self.n,
            {(j, m): c for (j, m), c in self.terms.items() if sum(m) >= 2},
            self.trunc,
        )

    def _check(self, other):
        if not isinstance(other, PolyVectorField) or other.n != self.n:
            raise DimensionMismatch("field dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, PolyVectorField)
            and other.n == self.n
            and other.terms == self.terms
        )

    def __repr__(self):
        parts = [f"{c}*x^{m}e{j}" for (j, m), c in self.sorted_terms()]
        return f"PolyVectorField({' + '.join(parts) or '0'}; trunc={self.trunc})"


def series_times_field(psi: PolySeries, h: PolyVectorField) -> PolyVectorField:
    if psi.n != h.n:
        raise DimensionMismatch("dimension mismatch")
    trunc = min(psi.trunc, h.trunc)
    data = {}
    for m1, c1 in psi.terms.items():
        d1 = sum(m1)
        for (j, m2), c2 in h.terms.items():
            if d1 + sum(m2) > trunc:
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            key = (j, m)
            data[key] = data.get(key, Fraction(0)) + c1 * c2
    return PolyVectorField(h.n, data, trunc)


def lie_bracket(g: PolyVectorField, h: PolyVectorField) -> PolyVectorField:
    """[g, h] = Dh.g - Dg.h, truncated at the smaller budget."""
    if g.n != h.n:
        raise DimensionMismatch("bracket dimension mismatch")
    n = g.n
    trunc = min(g.trunc, h.trunc)
    data = {}

    def accumulate(a: PolyVectorField, b: PolyVectorField, sign):
        # sign * Db.a
        for (j, m), cb in b.terms.items():
            for i in range(n):
                if m[i] == 0:
                    continue
                dm = tuple(x - (1 if t == i else 0) for t, x in enumerate(m))
                base = sum(dm)
                for (icomp, l), ca in a.terms.items():
                    if icomp != i:
                        continue
                    if base + sum(l) > trunc:
                        continue
                    key = (j, tuple(x + y for x, y in zip(dm, l)))
                    data[key] = data.get(key, Fraction(0)) + sign * m[i] * cb * ca

    accumulate(g, h, 1)
    accumulate(h, g, -1)
    return PolyVectorField(n, data, trunc)


def lie_derivative(g: PolyVectorField, phi: PolySeries) -> PolySeries:
    """X_g(phi) = Dphi.g."""
    if g.n != phi.n:
        raise DimensionMismatch("lie derivative dimension mismatch")
    n = g.n
    trunc = min(g.trunc, phi.trunc)
    data = {}
    for m, c in phi.terms.items():
        for i in range(n):
            if m[i] == 0:
                continue
            dm = tuple(x - (1 if t == i else 0) for t, x in enumerate(m))
            base = sum(dm)
            for (icomp, l), cg in g.terms.items():
                if icomp != i:
                    continue
                if base + sum(l) > trunc:
                    continue
                key = tuple(x + y for x, y in zip(dm, l))
                data[key] = data.get(key, Fraction(0)) + m[i] * c * cg
    return PolySeries(n, data, trunc)


def divergence(f: PolyVectorField) -> PolySeries:
    """Exact trace of the Jacobian; budget drops by one degree."""
    n = f.n
    trunc = f.trunc if f.trunc == INF else max(f.trunc - 1, 0)
    data = {}
    for (j, m), c in f.terms.items():
        if m[j] == 0:
            continue
        dm = tuple(x - (1 if t == j else 0) for t, x in enumerate(m))
        data[dm] = data.get(dm, Fraction(0)) + m[j] * c
    return PolySeries(n, data, trunc)


def _det_series(rows):
    size = len(rows)
    if size == 1:
        return rows[0][0]
    n = rows[0][0].n
    acc = PolySeries.zero(n, trunc=min(e.trunc for row in rows for e in row))
    for i in range(size):
        minor = [row[1:] for k, row in enumerate(rows) if k != i]
        term = rows[i][0] * _det_series(minor)
        acc = acc + (term if i % 2 == 0 else term.scale(-1))
    return acc


def determinant_multiplier(f: PolyVectorField, gs) -> PolySeries:
    """det(f, g_1, ..., g_{n-1}) by cofactor expansion over the series ring."""
    cols = [f] + list(gs)
    n = f.n
    if len(cols) != n:
        raise DimensionMismatch(f"need {n - 1} companion fields for n = {n}")
    for g in cols:
        if g.n != n:
            raise DimensionMismatch("determinant dimension mismatch")
    rows = [[col.component(i) for col in cols] for i in range(n)]
    return _det_series(rows)


def deviation_part(s: EigenSpectrum, f: PolyVectorField):
    """Strip the semisimple linear part, validating the blanket shape.

    Returns (ftilde, explicit) where ftilde = A_n x + nonlinear terms.  The
    diagonal |m| = 1 terms must either all vanish (the field stands for
    A_s x + ftilde with A_s implied by the spectrum) or, when q = 1, equal
    the coordinate column verbatim (rational eigenvalues stored in the
    field itself); ``explicit`` reports which form was supplied.  The
    off-diagonal linear terms must reproduce the nilpotent part exactly.
    """
    if f.n != s.n:
        raise DimensionMismatch("field dimension != spectrum dimension")
    diag = {}
    off = {}
    for (j, m), c in f.terms.items():
        if sum(m) != 1:
            continue
        k = m.index(1)
        if k == j:
            diag[j] = c
        else:
            off[(j, k)] = c
    nil = {(i, j): c for i, j, c in s.nilpotent}
    if off != nil:
        raise LinearPartMismatch("off-diagonal linear part differs from the nilpotent part")
    explicit = bool(diag)
    if explicit:
        if s.q != 1:
            raise LinearPartMismatch(
                "explicit diagonal linear part requires a one-dimensional eigenvalue span"
            )
        expected = {i: s.lam[i][0] for i in range(s.n) if s.lam[i][0] != 0}
        if diag != expected:
            raise LinearPartMismatch("diagonal linear part differs from the eigenvalues")
    terms = {
        (j, m): c
        for (j, m), c in f.terms.items()
        if sum(m) != 1 or m.index(1) != j
    }
    return PolyVectorField(s.n, terms, f.trunc), explicit


def is_pdnf(s: EigenSpectrum, f: PolyVectorField) -> bool:
    """True iff every nonlinear term of f is resonant for the spectrum."""
    ftilde, _ = deviation_part(s, f)
    for (j, m), _c in ftilde.terms.items():
        if sum(m) >= 2 and not s.is_resonant(m, j):
            return False
    return True


def pdnf_basis(s: EigenSpectrum, max_degree: int | None = None):
    """Unit vector monomials x^m e_j for every resonance with 2 <= |m| <= max_degree."""
    if max_degree is None:
        if not is_finite_linear_centralizer(s):
            raise InfiniteResonanceWithoutCap(
                "resonance set is infinite; pass max_degree explicitly"
            )
        # a derived bound below 2 means no resonances: the basis is empty
        max_degree = resonance_degree_bound(s)
    elif max_degree < 2:
        raise DimensionMismatch("max_degree must be at least 2")
    keys = []
    for j in range(s.n):
        for d in range(2, max_degree + 1):
            for m in resonant_multiindices(s, j, d):
                keys.append((j, d, m))
    keys.sort()
    return [PolyVectorField.monomial(s.n, j, m) for j, _d, m in keys]
