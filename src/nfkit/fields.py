"""Sparse exact polynomial scalar series and vector fields.

Terms are dictionaries keyed by exponent rows (series) or (component,
exponent row) pairs (fields), with Fraction coefficients and no stored
zeros.  Every object carries a truncation budget; binary operations take
the minimum of the budgets and drop anything beyond it, so no result ever
claims exactness past its horizon.  ``math.inf`` marks genuine polynomials.

The solvers do not assemble their linear systems from these objects:
`CommutatorColumns` gives each unknown monomial's column straight from its
key, in integers.  It shares the one product rule, `_add_derivative`, with
`lie_bracket` and `lie_derivative`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import DimensionMismatch, InfiniteResonanceWithoutCap, LinearPartMismatch, NotPDNF
from .linalg import frac
from .resonance import lp_degree_bound, resonances_by_component
from .spectrum import EigenSpectrum, is_finite_linear_centralizer

INF = math.inf


class _SparseTerms:
    """Sparse exact terms over n variables with a truncation budget.

    Subclasses fix the key shape: ``_checked_key`` validates and normalizes
    one key, ``_row`` returns its exponent row and ``_show`` its monomial.
    """

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n, terms=None, trunc=INF):
        if trunc != INF and (type(trunc) is not int or trunc < 0):
            raise DimensionMismatch(f"truncation budget must be inf or an integer >= 0, got {trunc!r}")
        self.n = n
        self.trunc = trunc
        data = {}
        for key, c in (terms or {}).items():
            c = frac(c)
            if c == 0:
                continue
            key = self._checked_key(key)
            if sum(self._row(key)) > trunc:
                continue
            data[key] = c
        self.terms = data

    @classmethod
    def zero(cls, n, trunc=INF):
        return cls(n, {}, trunc)

    @classmethod
    def linear_combination(cls, n, pairs, trunc=INF):
        """Sum of c * e over the pairs (c, e) with c != 0; budget min(trunc, each e.trunc)."""
        data = {}
        for c, e in pairs:
            if c == 0:
                continue
            cls._check(n, e)
            trunc = min(trunc, e.trunc)
            c = frac(c)
            for key, v in e.terms.items():
                data[key] = data.get(key, Fraction(0)) + c * v
        return cls(n, data, trunc)

    @classmethod
    def _check(cls, n, other):
        if not isinstance(other, cls) or other.n != n:
            raise DimensionMismatch(f"{cls._kind} dimension mismatch")

    def is_zero(self):
        return not self.terms

    def min_degree(self):
        return min((sum(self._row(key)) for key in self.terms), default=None)

    def graded_part(self, d):
        return type(self)(
            self.n,
            {key: c for key, c in self.terms.items() if sum(self._row(key)) == d},
            self.trunc,
        )

    def truncated(self, trunc):
        return type(self)(self.n, self.terms, min(self.trunc, trunc))

    def __add__(self, other):
        self._check(self.n, other)
        trunc = min(self.trunc, other.trunc)
        data = dict(self.terms)
        for key, c in other.terms.items():
            data[key] = data.get(key, Fraction(0)) + c
        return type(self)(self.n, data, trunc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = frac(c)
        return type(self)(self.n, {key: c * v for key, v in self.terms.items()}, self.trunc)

    def is_zero_mod(self, degree):
        """True when every stored term has degree > ``degree``."""
        return all(sum(self._row(key)) > degree for key in self.terms)

    def __eq__(self, other):
        return isinstance(other, type(self)) and other.n == self.n and other.terms == self.terms

    def __repr__(self):
        parts = [f"{c}*{self._show(key)}" for key, c in self.sorted_terms()]
        return f"{type(self).__name__}({' + '.join(parts) or '0'}; trunc={self.trunc})"


class PolySeries(_SparseTerms):
    """Scalar polynomial / truncated series with exact coefficients."""

    __slots__ = ()
    _kind = "series"

    def _checked_key(self, m):
        m = tuple(m)
        if len(m) != self.n or any(type(x) is not int or x < 0 for x in m):
            raise DimensionMismatch(f"bad exponent row {m} for n = {self.n}")
        return m

    @staticmethod
    def _row(m):
        return m

    @staticmethod
    def _show(m):
        return f"x^{m}"

    @classmethod
    def monomial(cls, n, m, c=1, trunc=INF):
        return cls(n, {tuple(m): frac(c)}, trunc)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def coefficient(self, m) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    def __mul__(self, other):
        self._check(self.n, other)
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


class PolyVectorField(_SparseTerms):
    """Vector field with terms keyed by (component, exponent row), 0-based."""

    __slots__ = ()
    _kind = "field"

    def _checked_key(self, key):
        j, m = key
        m = tuple(m)
        if (
            type(j) is not int or not 0 <= j < self.n
            or len(m) != self.n or any(type(x) is not int or x < 0 for x in m)
        ):
            raise DimensionMismatch(f"bad term ({j}, {m}) for n = {self.n}")
        return (j, m)

    @staticmethod
    def _row(key):
        return key[1]

    @staticmethod
    def _show(key):
        return f"x^{key[1]}e{key[0]}"

    @classmethod
    def monomial(cls, n, j, m, c=1, trunc=INF):
        return cls(n, {(j, tuple(m)): frac(c)}, trunc)

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


def series_times_field(psi: PolySeries, h: PolyVectorField) -> PolyVectorField:
    """psi * h: one series product per component of h, at the smaller budget."""
    if psi.n != h.n:
        raise DimensionMismatch("dimension mismatch")
    data = {}
    for j in range(h.n):
        data.update(((j, m), c) for m, c in (psi * h.component(j)).terms.items())
    return PolyVectorField(h.n, data, min(psi.trunc, h.trunc))


def _by_component(n, terms):
    """The terms (row, degree, coefficient) of a field's ``terms`` per component, in term order."""
    groups = [[] for _ in range(n)]
    for (i, l), c in terms.items():
        groups[i].append((l, sum(l), c))
    return groups


def _constant_groups(n, j):
    """`_by_component` of the constant field e_j, whose Lie derivative is d/dx_j."""
    return [[((0,) * n, 0, 1)] if i == j else [] for i in range(n)]


def _add_derivative(data, groups, m, c, trunc, j=None):
    """Add c * X_g(x^m) up to degree ``trunc`` into ``data``, keyed by row or by (j, row).

    ``groups`` is `_by_component` of g's terms.  Integer coefficients stay integers.
    """
    for i, terms in enumerate(groups):
        if m[i] == 0 or not terms:
            continue
        dm = tuple(x - (1 if t == i else 0) for t, x in enumerate(m))
        base = sum(dm)
        for l, degree, cg in terms:
            if base + degree > trunc:
                continue
            row = tuple(x + y for x, y in zip(dm, l))
            key = row if j is None else (j, row)
            data[key] = data.get(key, 0) + m[i] * c * cg


def lie_bracket(g: PolyVectorField, h: PolyVectorField) -> PolyVectorField:
    """[g, h] = Dh.g - Dg.h, truncated at the smaller budget."""
    if g.n != h.n:
        raise DimensionMismatch("bracket dimension mismatch")
    trunc = min(g.trunc, h.trunc)
    data = {}
    g_groups, h_groups = _by_component(g.n, g.terms), _by_component(h.n, h.terms)
    for (j, m), c in h.terms.items():
        _add_derivative(data, g_groups, m, c, trunc, j)
    for (j, m), c in g.terms.items():
        _add_derivative(data, h_groups, m, -c, trunc, j)
    return PolyVectorField(g.n, data, trunc)


def lie_derivative(g: PolyVectorField, phi: PolySeries) -> PolySeries:
    """X_g(phi) = Dphi.g."""
    if g.n != phi.n:
        raise DimensionMismatch("lie derivative dimension mismatch")
    trunc = min(g.trunc, phi.trunc)
    data = {}
    groups = _by_component(g.n, g.terms)
    for m, c in phi.terms.items():
        _add_derivative(data, groups, m, c, trunc)
    return PolySeries(g.n, data, trunc)


class CommutatorColumns:
    """Sparse integer columns of the linear systems around one field h.

    The solvers look for g = sum a_t x^m e_j, lambda = sum b_t x^k and
    phi = sum c_t x^m, one unknown per monomial.  Each unknown's column is
    built straight from its key, as L times the `Fraction` terms it stands
    for, with L the lcm of h's denominators:

    - ``bracket(j, m)``: L [x^m e_j, h], for [g, h] = 0 and [g, h] = lambda h;
    - ``scalar(k)``: -L x^k h, for lambda in [g, h] = lambda h;
    - ``multiplier(m)``: L (X_h(x^m) - div h x^m), for X_h(phi) = div h phi.

    One builder serves every column of a system, so all share one L: the
    kernel is that of the `Fraction` system, and `RatMatrix` builds the same
    primitive rows.  Terms above ``min(trunc, h.trunc)`` are dropped, and so
    are entries that cancel.  A bracket is x^m d_j h - X_h(x^m) e_j.  The
    partial derivative d_j h = X_{e_j}(h) is taken once per j, and X_h(x^m)
    once per column, both by `_add_derivative`, the product rule of
    `lie_bracket` and `lie_derivative`; div h sums the d_j h_j.
    """

    __slots__ = ("trunc", "_terms", "_groups", "_partials", "_div")

    def __init__(self, h: PolyVectorField, trunc=INF):
        n = h.n
        self.trunc = min(h.trunc, trunc)
        L = math.lcm(*(c.denominator for c in h.terms.values()))
        terms = {key: c.numerator * (L // c.denominator) for key, c in h.terms.items()}
        self._terms = [(i, l, sum(l), c) for (i, l), c in terms.items()]
        self._groups = _by_component(n, terms)
        self._partials = []
        div = {}
        for j in range(n):
            data = {}
            e_j = _constant_groups(n, j)
            for (i, l), c in terms.items():
                _add_derivative(data, e_j, l, c, INF, i)
            self._partials.append([(i, row, sum(row), c) for (i, row), c in data.items()])
            for (i, row), c in data.items():
                if i == j:
                    div[row] = div.get(row, 0) + c
        self._div = [(row, sum(row), c) for row, c in div.items() if c]

    def bracket(self, j, m):
        trunc, base, data = self.trunc, sum(m), {}
        for i, row, degree, c in self._partials[j]:
            if base + degree <= trunc:
                data[(i, tuple(map(add, m, row)))] = c
        _add_derivative(data, self._groups, m, -1, trunc, j)
        return {key: c for key, c in data.items() if c}

    def scalar(self, k):
        trunc, base = self.trunc, sum(k)
        return {
            (i, tuple(map(add, k, l))): -c for i, l, degree, c in self._terms if base + degree <= trunc
        }

    def multiplier(self, m):
        trunc, base, data = self.trunc, sum(m), {}
        _add_derivative(data, self._groups, m, 1, trunc)
        for row, degree, c in self._div:
            if base + degree <= trunc:
                key = tuple(map(add, m, row))
                data[key] = data.get(key, 0) - c
        return {key: c for key, c in data.items() if c}


def divergence(f: PolyVectorField) -> PolySeries:
    """Exact trace of the Jacobian; budget drops by one degree."""
    n = f.n
    trunc = f.trunc if f.trunc == INF else max(f.trunc - 1, 0)
    data = {}
    for (j, m), c in f.terms.items():
        _add_derivative(data, _constant_groups(n, j), m, c, INF)
    return PolySeries(n, data, trunc)


def _det_series(rows):
    size = len(rows)
    if size == 1:
        return rows[0][0]
    cofactors = []
    for i in range(size):
        minor = [row[1:] for k, row in enumerate(rows) if k != i]
        cofactors.append(((-1) ** i, rows[i][0] * _det_series(minor)))
    trunc = min(e.trunc for row in rows for e in row)
    return PolySeries.linear_combination(rows[0][0].n, cofactors, trunc)


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
    terms = {}
    for (j, m), c in f.terms.items():
        k = m.index(1) if sum(m) == 1 else None
        if k == j:
            diag[j] = c
            continue
        terms[(j, m)] = c
        if k is not None:
            off[(j, k)] = c
    nil = {(i, j): c for i, j, c in s.nilpotent}
    if off != nil:
        raise LinearPartMismatch("off-diagonal linear part differs from the nilpotent part")
    explicit = bool(diag)
    if explicit:
        eigenvalues = s.rational_eigenvalues()
        if eigenvalues is None:
            raise LinearPartMismatch(
                "explicit diagonal linear part requires a one-dimensional eigenvalue span"
            )
        if diag != {i: v for i, v in enumerate(eigenvalues) if v != 0}:
            raise LinearPartMismatch("diagonal linear part differs from the eigenvalues")
    return PolyVectorField(s.n, terms, f.trunc), explicit


def _all_resonant(s: EigenSpectrum, ftilde: PolyVectorField) -> bool:
    """No constant term, and every term of degree >= 2 resonant (degree 1 is the nilpotent part)."""
    return all(s.is_resonant(m, j) if sum(m) > 1 else sum(m) == 1 for j, m in ftilde.terms)


def normal_form_deviation(s: EigenSpectrum, f: PolyVectorField):
    """`deviation_part` of a field in normal form; raises NotPDNF for any other field."""
    ftilde, explicit = deviation_part(s, f)
    if not _all_resonant(s, ftilde):
        raise NotPDNF("field is not in normal form for this spectrum")
    return ftilde, explicit


def is_pdnf(s: EigenSpectrum, f: PolyVectorField) -> bool:
    """True iff every nonlinear term of f is resonant for the spectrum."""
    ftilde, _ = deviation_part(s, f)
    return _all_resonant(s, ftilde)


def pdnf_basis(s: EigenSpectrum, max_degree: int | None = None):
    """Unit vector monomials x^m e_j for every resonance with 2 <= |m| <= max_degree."""
    if max_degree is None:
        if not is_finite_linear_centralizer(s):
            raise InfiniteResonanceWithoutCap(
                "resonance set is infinite; pass max_degree explicitly"
            )
        # a derived bound below 2 means no resonances: the basis is empty
        max_degree = lp_degree_bound(s)
    elif max_degree < 2:
        raise DimensionMismatch("max_degree must be at least 2")
    return [
        PolyVectorField.monomial(s.n, j, m)
        for j, rj in enumerate(resonances_by_component(s, 2, max_degree))
        for m in rj
    ]
