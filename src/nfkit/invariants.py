"""Monomial first-integral algebra, reduction by invariants, triviality certificates.

The invariant algebra of the semisimple part is generated by the Hilbert
basis monomials; when their exponent rows are linearly independent over Q
the reduction map is well posed and a normal form with the free-module
shape can be pushed down to r variables exactly.  The free-module and
one-divisor checks are always decided: each asks the spectrum for the
least witness off one coordinate hyperplane (`least_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    NotFreeModuleShape,
    RewriteFailure,
    ZeroEigenvalue,
)
from .fields import (
    INF,
    CommutatorColumns,
    PolySeries,
    PolyVectorField,
    lie_derivative,
    normal_form_deviation,
)
from .linalg import RatMatrix, integer_transpose, mat_kernel, pivot_columns
from .resonance import commuting_degree_ladder, semiinvariant_degree_ladder
from .spectrum import (
    EigenSpectrum,
    compositions,
    hilbert_basis,
    least_witness,
    unit_row,
)


@dataclass(frozen=True)
class InvariantAlgebra:
    """Hilbert-basis generators of the monomial first integrals.

    ``generators`` stores one exponent row per generator (r x n); the
    generator monomials are algebraically independent exactly when this
    matrix has full row rank over Q.
    """

    generators: tuple[tuple[int, ...], ...]
    independent: bool

    @property
    def r(self) -> int:
        return len(self.generators)


def invariant_generators(s: EigenSpectrum) -> InvariantAlgebra:
    """Hilbert basis and its independence; more than n - q generators are dependent,
    since all lie in the (n - q)-dimensional kernel of the q weight rows."""
    gens = hilbert_basis(s).generators
    independent = len(gens) <= s.n - s.q and len(pivot_columns(gens)) == len(gens)
    return InvariantAlgebra(generators=gens, independent=independent)


@dataclass(frozen=True)
class FreeModuleVerdict:
    free: bool
    witness: tuple[int, tuple[int, ...]] | None = None  # (component, exponent row)


def check_free_module(s: EigenSpectrum) -> FreeModuleVerdict:
    """Does every resonant vector monomial for component j carry x_j?

    A witness is an m with m_j = 0 and <m, lambda> = lambda_j; none existing
    for any j makes the polynomial commutant a free module of rank n over
    the invariant algebra.  The first j with a witness is reported, with
    its (degree, lex)-least m.
    """
    for i in range(s.n):
        if s.is_integral_monomial(unit_row(s.n, i)):
            raise ZeroEigenvalue(f"eigenvalue {i} is zero")
    for j in range(s.n):
        witness = least_witness(s, unit_row(s.n, j), drop=j)
        if witness is not None:
            return FreeModuleVerdict(free=False, witness=(j, witness))
    return FreeModuleVerdict(free=True)


@dataclass(frozen=True)
class OneDivVerdict:
    holds: bool
    witness: tuple[int, ...] | None = None
    div_nonzero: bool = True


def check_onediv(s: EigenSpectrum) -> OneDivVerdict:
    """Is the divergence-cofactor module generated by x_1 ... x_n alone?

    Fails immediately when div A_s = 0 (the module then contains 1);
    otherwise asks, hyperplane m_j = 0 by hyperplane, for the (degree,
    lex)-least monomial with <m, lambda> equal to the divergence.
    """
    target = (1,) * s.n
    if s.is_integral_monomial(target):
        return OneDivVerdict(holds=False, witness=tuple(0 for _ in range(s.n)), div_nonzero=False)
    for j in range(s.n):
        witness = least_witness(s, target, drop=j)
        if witness is not None:
            return OneDivVerdict(holds=False, witness=witness)
    return OneDivVerdict(holds=True)


def _rewrite_in_generators(inv: InvariantAlgebra, rows):
    """Solve M^T k = v over Z_+ for every exponent row v, in one elimination.

    Like every exact solve it reads `mat_kernel`, here of [M^T | -I]: a free
    generator column means dependent generators, with no unique k; else
    the free unit columns are r coordinates on which M^T is invertible, and
    the vectors hold that inverse.  Rows are checked in order, so the first
    failing row raises: k must meet v on every coordinate, then be integral
    and >= 0.  A row that k misses is no combination of the generators only
    if it raises the rank of M; else the kernel is at fault.
    """
    gens = inv.generators
    units = [{i: -1} for i in range(max(map(len, rows), default=0))]
    kernel = mat_kernel(RatMatrix([{i: x for i, x in enumerate(g) if x} for g in gens] + units))
    coords = [pairs[-1][0] - inv.r for pairs in kernel.vectors]
    independent = min(coords, default=0) >= 0
    # the rows of den times the inverse of M^T on `coords`, as integers
    den, inverse = integer_transpose(kernel, inv.r)
    out = []
    for v in rows:
        k = [sum(map(mul, row, [v[i] for i in coords])) for row in inverse]
        if not independent or any(
            sum(g[i] * ka for g, ka in zip(gens, k)) != vi * den for i, vi in enumerate(v)
        ):
            if len(pivot_columns([*gens, v])) > len(pivot_columns(gens)):
                raise RewriteFailure(f"exponent row {v} is not a combination of the generators", v)
            raise CertificateFailure(
                f"generator combination {k}/{den} misses exponent row {v}, a combination of the"
                " generators" if independent else "generator exponents must be independent here"
            )
        if any(ka % den or ka < 0 for ka in k):
            raise RewriteFailure(
                f"exponent row {v} needs a non-integer or negative generator combination", v
            )
        out.append(tuple(ka // den for ka in k))
    return out


def _eta_budget(inv: InvariantAlgebra, trunc):
    """Budget of eta_hat: y^k is complete while every ambient degree <deg psi, k> + 1 <= trunc."""
    if trunc == INF or not inv.generators:
        return INF
    return (trunc - 1) // max(sum(g) for g in inv.generators)


def decompose_eta(s: EigenSpectrum, inv: InvariantAlgebra, f: PolyVectorField):
    """Write f = A + sum eta_j(x) x_j e_j with eta_j a series in the generators.

    Returns the reduced-coordinate series eta_hat_1..eta_hat_n; every
    nonlinear term of component j must carry x_j (free-module shape) and
    its cofactor monomial must rewrite over the generators.  With generators,
    a field truncated at 0 is refused: eta_hat's budget needs truncation 1.
    """
    if inv.generators and f.trunc < 1:
        raise DimensionMismatch(
            f"field truncation {f.trunc} is below 1, which eta_hat over the generators needs"
        )
    ftilde, _ = normal_form_deviation(s, f)
    if not inv.independent:
        raise NotFreeModuleShape("generator exponents are not independent")
    if s.nilpotent:
        raise NotFreeModuleShape("free-module shape requires a vanishing nilpotent part")
    terms = ftilde.sorted_terms()
    # the first term without x_j, if any, fails after every rewrite before it
    bare = next((t for t, ((j, m), _) in enumerate(terms) if m[j] == 0), len(terms))
    rows = [tuple(x - (t == j) for t, x in enumerate(m)) for (j, m), _ in terms[:bare]]
    ks = _rewrite_in_generators(inv, rows)
    if bare < len(terms):
        (j, m), _ = terms[bare]
        raise NotFreeModuleShape(f"term ({j}, {m}) lacks the coordinate factor x_{j}")
    data = [{} for _ in range(s.n)]
    for ((j, _), c), k in zip(terms, ks):
        data[j][k] = c  # independent generators: distinct rows give distinct k
    budget = _eta_budget(inv, f.trunc)
    return tuple(PolySeries(inv.r, d, trunc=budget) for d in data)


@dataclass(frozen=True)
class ReducedField:
    r: int
    field: PolyVectorField
    nu: tuple[tuple[Fraction, ...], ...]


def _substituted(terms, generators, n, trunc=INF):
    """The terms {k: c} of a reduced-coordinate series at the generator monomials:
    y^k becomes x^(sum_a k_a psi_a), and terms above degree ``trunc`` are dropped."""
    data = {}
    for k, c in terms.items():
        m = [0] * n
        for a, e in enumerate(k):
            if e:
                for i, x in enumerate(generators[a]):
                    m[i] += e * x
        if sum(m) <= trunc:
            key = tuple(m)
            data[key] = data.get(key, 0) + c
    return {m: c for m, c in data.items() if c}


def substitute_generators(series: PolySeries, inv: InvariantAlgebra, n: int) -> PolySeries:
    """Evaluate a reduced-coordinate series on the generator monomials."""
    return PolySeries(n, _substituted(series.terms, inv.generators, n), trunc=INF)


def reduce_vectorfield(s: EigenSpectrum, inv: InvariantAlgebra, f: PolyVectorField) -> ReducedField:
    """Push the field through the generator map: f_hat_i = y_i sum_j M[i][j] eta_hat_j.

    ``nu[i][j]`` is read off f_hat as its coefficient of y_i y_j in
    component i, so f_hat must be complete at degree 2: a field truncated
    below 1 + the largest generator degree is refused up front.  The
    defining identity D(Psi) f = f_hat(Psi) is re-verified before
    returning: per generator, the terms of X_f(psi_i) must equal those of
    f_hat_i at the generator monomials, cut at the field's budget.  That
    f_hat_i is taken before its cut in y, which can drop terms of ambient
    degree <= the budget when the generator degrees differ.
    """
    M = inv.generators
    need = 1 + max(map(sum, M), default=0)
    if M and f.trunc < need:
        raise DimensionMismatch(
            f"field truncation {f.trunc} is below {need}, one more than the largest"
            " generator degree, which nu at degree 2 of the reduced field needs"
        )
    # eta_hat of f's terms read as a polynomial, so uncut; f_hat is cut below
    etas = decompose_eta(s, inv, PolyVectorField(s.n, f.terms))
    r = inv.r
    terms = {}
    for i in range(r):
        for j in range(s.n):
            if M[i][j] == 0:
                continue
            for k, c in etas[j].terms.items():
                key = (i, tuple(x + (1 if t == i else 0) for t, x in enumerate(k)))
                terms[key] = terms.get(key, Fraction(0)) + M[i][j] * c
    fhat = PolyVectorField(r, terms, trunc=1 + _eta_budget(inv, f.trunc))
    nu = tuple(
        tuple(fhat.coefficient(i, [(t == i) + (t == j) for t in range(r)]) for j in range(r))
        for i in range(r)
    )
    # X_{A_s} kills every generator monomial, so X_f and X_ftilde agree on them
    components = [{} for _ in range(r)]
    for (i, k), c in terms.items():
        components[i][k] = c
    for i in range(r):
        lhs = lie_derivative(f, PolySeries.monomial(s.n, M[i], trunc=f.trunc))
        if lhs.terms != _substituted(components[i], M, s.n, lhs.trunc):
            raise CertificateFailure(f"reduction identity failed for generator {i + 1}")
    return ReducedField(r=r, field=fhat, nu=nu)


@dataclass(frozen=True)
class TrivialityCertificate:
    certified: bool
    reasons: tuple[str, ...]
    eigenvalues: tuple[Fraction, ...] | None = None
    commuting_degrees: tuple[int, ...] | None = None
    ladder_complete: bool = False
    kernel_dimension: int | None = None
    first_integral_solutions: int | None = None
    first_integral_complete: bool = False


def quadratic_from_nu(nu) -> PolyVectorField:
    """The field with component i equal to y_i * sum_j nu[i][j] y_j."""
    r = len(nu)
    terms = {}
    for i in range(r):
        for j in range(r):
            if nu[i][j] == 0:
                continue
            m = tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(r))
            key = (i, m)
            terms[key] = terms.get(key, Fraction(0)) + nu[i][j]
    return PolyVectorField(r, terms)


def triviality_certificate(red: ReducedField) -> TrivialityCertificate:
    """Certify that the reduced quadratic part has trivial centralizer.

    Certification needs (i) the commuting degree ladder at the fixed point
    on the first axis to be provably complete and contain only degree 2,
    and (ii) the homogeneous degree-2 commutator kernel to be the line
    through the quadratic part itself.
    """
    reasons = []
    r = red.r
    nu = red.nu
    if nu[0][0] == 0:
        return TrivialityCertificate(
            certified=False, reasons=("nu[1][1] = 0: no fixed point on the first axis",)
        )
    mu = tuple([Fraction(2)] + [nu[j][0] / nu[0][0] for j in range(1, r)])
    ladder = commuting_degree_ladder(mu)
    if not ladder.complete:
        reasons.append("commuting degree ladder only complete up to the cap")
    if set(ladder.degrees) - {2}:
        reasons.append(f"commuting ladder admits degrees {sorted(set(ladder.degrees) - {2})}")
    f2 = quadratic_from_nu(nu)
    unknowns = [(i, m) for i in range(r) for m in compositions(2, r)]
    system = CommutatorColumns(f2)
    kdim = mat_kernel(RatMatrix([system.bracket(i, m) for i, m in unknowns])).dimension
    if kdim != 1:
        reasons.append(f"degree-2 commutator kernel has dimension {kdim}")
    fi_ladder = semiinvariant_degree_ladder(mu, 0)
    certified = not reasons
    return TrivialityCertificate(
        certified=certified,
        reasons=tuple(reasons),
        eigenvalues=mu,
        commuting_degrees=tuple(ladder.degrees),
        ladder_complete=ladder.complete,
        kernel_dimension=kdim,
        first_integral_solutions=len(fi_ladder.solutions),
        first_integral_complete=fi_ladder.complete,
    )
