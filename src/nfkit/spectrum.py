"""Exact encoding of the linear part and the arithmetic of its eigenvalues.

Eigenvalues are never materialized as numbers.  Each eigenvalue is a row of
rational coordinates over an implicit Q-basis of the span of all
eigenvalues, so every resonance question becomes componentwise rational
arithmetic.  On top of that sit the Hilbert basis of the zero-resonance
monoid (computed by Contejean-Devie completion), the finiteness and
positivity tests, the U/W index splitting, the integer diagonal matrices
C_1..C_q, and the dimension-3 classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    GcdNotOne,
    NilpotentViolatesCommutation,
    RankMismatch,
    SearchCapReached,
)
from .linalg import RatMatrix, frac, integer_rows, mat_rank

DEFAULT_COMPLETION_CAP = 64


@dataclass(frozen=True)
class EigenSpectrum:
    """Semisimple part as Q-coordinate rows plus a strictly upper nilpotent part.

    ``lam[i]`` holds the q coordinates of the i-th eigenvalue; ``nilpotent``
    maps index pairs (i, j) with i < j to rational entries and is nonzero
    only between indices with equal eigenvalue rows.
    """

    n: int
    q: int
    lam: tuple[tuple[Fraction, ...], ...]
    nilpotent: tuple[tuple[int, int, Fraction], ...] = field(default=())

    def eigen_coords(self, m) -> tuple[Fraction, ...]:
        """<m, lambda> as a q-coordinate row."""
        return tuple(
            sum((m[i] * self.lam[i][k] for i in range(self.n)), Fraction(0))
            for k in range(self.q)
        )

    def is_resonant(self, m, j) -> bool:
        """<m, lambda> = lambda_j, checked in all q coordinates."""
        return self.eigen_coords(m) == self.lam[j]

    def is_integral_monomial(self, m) -> bool:
        """<m, lambda> = 0, i.e. x^m is a first integral of the linear flow."""
        zero = tuple(Fraction(0) for _ in range(self.q))
        return self.eigen_coords(m) == zero

    def nilpotent_matrix(self) -> RatMatrix:
        data = [[Fraction(0)] * self.n for _ in range(self.n)]
        for i, j, c in self.nilpotent:
            data[i][j] = c
        return RatMatrix(data)

    def has_nilpotent(self) -> bool:
        return bool(self.nilpotent)

    def divergence_coords(self) -> tuple[Fraction, ...]:
        """Sum of all eigenvalues as a q-coordinate row (div of the semisimple part)."""
        return tuple(
            sum((self.lam[i][k] for i in range(self.n)), Fraction(0))
            for k in range(self.q)
        )


def build_spectrum(n, q, lambda_rows, nilpotent_entries=()) -> EigenSpectrum:
    """Validated constructor; indices in ``nilpotent_entries`` are 0-based."""
    rows = tuple(tuple(frac(x) for x in row) for row in lambda_rows)
    if len(rows) != n or any(len(r) != q for r in rows):
        raise DimensionMismatch(f"lambda must be {n}x{q}")
    if mat_rank(RatMatrix(rows)) != q:
        raise RankMismatch(f"rank of lambda rows != q = {q}")
    nil = []
    for i, j, c in nilpotent_entries:
        c = frac(c)
        if c == 0:
            continue
        if not (0 <= i < j < n):
            raise NilpotentViolatesCommutation(
                f"nilpotent entry ({i}, {j}) is not strictly upper triangular"
            )
        if rows[i] != rows[j]:
            raise NilpotentViolatesCommutation(
                f"nilpotent entry ({i}, {j}) links unequal eigenvalues"
            )
        nil.append((i, j, c))
    nil.sort(key=lambda t: (t[0], t[1]))
    return EigenSpectrum(n=n, q=q, lam=rows, nilpotent=tuple(nil))


def minimal_nonneg_solutions(eqs, nvars, cap=DEFAULT_COMPLETION_CAP):
    """Minimal nonzero solutions of eqs.x = 0 over Z_+^nvars.

    Contejean-Devie completion: grow candidates from the unit vectors, one
    unit at a time, only in directions that shrink the defect (negative
    scalar product of images), pruning anything dominated by a solution
    already found.  Terminates for every homogeneous system; ``cap`` bounds
    the explored degree as a guard and raises if ever reached.
    """
    eqs = [list(map(int, row)) for row in eqs]
    rows = [r for r in eqs if any(r)]

    def image(v):
        return tuple(sum(r[i] * v[i] for i in range(nvars)) for r in rows)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    unit_images = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 1
        unit_images.append(image(e))

    minimal: list[tuple[int, ...]] = []
    frontier = {}
    for i in range(nvars):
        t = tuple(1 if k == i else 0 for k in range(nvars))
        frontier[t] = unit_images[i]
    level = 1
    zero = tuple(0 for _ in rows)
    while frontier:
        if level > cap:
            raise SearchCapReached(
                f"completion cap {cap} reached with {len(frontier)} open candidates",
                partial=sorted(minimal),
            )
        for t in sorted(frontier):
            if frontier[t] == zero:
                minimal.append(t)
        nxt = {}
        for t in sorted(frontier):
            img = frontier[t]
            if img == zero:
                continue
            for i in range(nvars):
                if dot(img, unit_images[i]) >= 0:
                    continue
                cand = list(t)
                cand[i] += 1
                cand = tuple(cand)
                if cand in nxt:
                    continue
                if any(all(cand[k] >= m[k] for k in range(nvars)) for m in minimal):
                    continue
                nxt[cand] = tuple(a + b for a, b in zip(img, unit_images[i]))
        frontier = nxt
        level += 1
    # The completion already prunes dominated candidates; the final filter
    # guards the minimality invariant regardless.
    out = []
    for t in sorted(minimal):
        if not any(
            m != t and all(m[k] <= t[k] for k in range(nvars)) for m in minimal
        ):
            out.append(t)
    return out


def inhomogeneous_minimal_solutions(eqs, rhs, nvars, cap=DEFAULT_COMPLETION_CAP):
    """Minimal solutions of eqs.x = rhs over Z_+^nvars, via homogenization.

    Appends a slack variable t with column -rhs; generators of the extended
    monoid with t = 1 are exactly the minimal inhomogeneous solutions, so
    emptiness is decided, not just searched.
    """
    ext = [list(row) + [-r] for row, r in zip(eqs, rhs)]
    gens = minimal_nonneg_solutions(ext, nvars + 1, cap)
    return [g[:-1] for g in gens if g[-1] == 1]


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generators of {d in Z_+^n : <d, lambda> = 0}, in lex order."""

    generators: tuple[tuple[int, ...], ...]

    def __bool__(self):
        return bool(self.generators)

    def support_union(self) -> set[int]:
        out: set[int] = set()
        for g in self.generators:
            out.update(i for i, x in enumerate(g) if x > 0)
        return out


def hilbert_basis(s: EigenSpectrum, cap=DEFAULT_COMPLETION_CAP) -> HilbertBasis:
    gens = minimal_nonneg_solutions(c_matrix_basis(s, normalize=True), s.n, cap)
    return HilbertBasis(generators=tuple(gens))


def is_finite_linear_centralizer(s: EigenSpectrum, cap=DEFAULT_COMPLETION_CAP) -> bool:
    return not hilbert_basis(s, cap)


def has_positive_relation(s: EigenSpectrum, cap=DEFAULT_COMPLETION_CAP) -> bool:
    """A strictly positive d with <d, lambda> = 0 exists iff generator supports cover 1..n."""
    return hilbert_basis(s, cap).support_union() == set(range(s.n))


def uw_decomposition(s: EigenSpectrum, cap=DEFAULT_COMPLETION_CAP):
    """Index split (U, W): U carries the monomial first integrals, W none."""
    u = sorted(hilbert_basis(s, cap).support_union())
    w = [i for i in range(s.n) if i not in u]
    return tuple(u), tuple(w)


def c_matrix_basis(s: EigenSpectrum, normalize=False):
    """Integer diagonals C_1..C_q with A_s = nu_1 C_1 + ... + nu_q C_q.

    Column j of the coordinate matrix, cleared of denominators; gcd
    normalization (`integer_rows`) only on request so that round-trips
    preserve the input.
    """
    cols = [[s.lam[i][k] for i in range(s.n)] for k in range(s.q)]
    if normalize:
        return tuple(tuple(row) for row in integer_rows(cols))
    out = []
    for col in cols:
        mult = lcm(*(x.denominator for x in col))
        out.append(tuple(int(x * mult) for x in col))
    return tuple(out)


@dataclass(frozen=True)
class Dim3Verdict:
    holds: bool
    l1: int | None = None
    l2: int | None = None


def classify_dim3(d1: int, d2: int, d3: int) -> Dim3Verdict:
    """Distinguished-setting test for diag(d1, d2, -d3).

    Searches coprime factorizations d3 = l1*l2 with both factors > 1,
    l2 | d1 and l1 | d2; a witness pair certifies that the commuting module
    is generated by the coordinate fields and the invariant algebra has an
    algebraically independent generator pair.
    """
    if min(d1, d2, d3) < 1:
        raise GcdNotOne("d1, d2, d3 must be positive integers")
    if gcd(gcd(d1, d2), d3) != 1:
        raise GcdNotOne(f"gcd({d1}, {d2}, {d3}) != 1")
    for l1 in range(2, d3 + 1):
        if d3 % l1 != 0:
            continue
        l2 = d3 // l1
        if l2 <= 1:
            continue
        if gcd(l1, l2) != 1:
            continue
        if d1 % l2 == 0 and d2 % l1 == 0:
            return Dim3Verdict(holds=True, l1=l1, l2=l2)
    return Dim3Verdict(holds=False)


def zero_spectrum(n: int) -> EigenSpectrum:
    """Spectrum with zero linear part (q = 0); used for reduced vector fields."""
    return EigenSpectrum(n=n, q=0, lam=tuple(() for _ in range(n)))
