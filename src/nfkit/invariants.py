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

from .errors import (
    CertificateFailure,
    NotFreeModuleShape,
    RewriteFailure,
    ZeroEigenvalue,
)
from .fields import (
    INF,
    PolySeries,
    PolyVectorField,
    lie_bracket,
    lie_derivative,
    normal_form_deviation,
)
from .linalg import RatMatrix, mat_kernel, mat_rank, pivot_columns, solve_square
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
    independent = len(gens) <= s.n - s.q and mat_rank(RatMatrix(gens)) == len(gens)
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

    The pivot columns of the generator rows M are independent coordinates,
    r of them exactly when the generators are independent; the square
    system on those coordinates, with one right-hand side per row, gives
    det * k in integers.  Each row is then checked in order, on all n
    coordinates, for integrality and for k >= 0, so the first failing row
    raises.  A consistent row over dependent generators has no unique k.
    """
    gens = inv.generators
    coords = pivot_columns(gens)
    used = range(inv.r)
    if len(coords) < inv.r:  # independent generator columns on those coordinates
        used = pivot_columns([[g[i] for g in gens] for i in coords])
    system = [[gens[a][i] for a in used] + [v[i] for v in rows] for i in coords]
    solved = solve_square(system) if coords else (1, [()] * len(rows))
    det, points = solved if solved is not None else (0, [])
    if det <= 0 or len(points) != len(rows):
        raise CertificateFailure(
            f"generator system on coordinates {coords} gave det {det} and"
            f" {len(points)} points for {len(rows)} exponent rows"
        )
    out = []
    for v, x in zip(rows, points):
        if any(
            sum(gens[a][i] * xa for a, xa in zip(used, x)) != vi * det for i, vi in enumerate(v)
        ):
            raise RewriteFailure(f"exponent row {v} is not a combination of the generators", v)
        if len(used) < inv.r:
            raise CertificateFailure("generator exponents must be independent here")
        if any(xa % det or xa < 0 for xa in x):
            raise RewriteFailure(
                f"exponent row {v} needs a non-integer or negative generator combination", v
            )
        out.append(tuple(xa // det for xa in x))
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
    its cofactor monomial must rewrite over the generators.
    """
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


def substitute_generators(series: PolySeries, inv: InvariantAlgebra, n: int) -> PolySeries:
    """Evaluate a reduced-coordinate series on the generator monomials."""
    data = {}
    for k, c in series.terms.items():
        m = [0] * n
        for a, e in enumerate(k):
            if e:
                for i in range(n):
                    m[i] += e * inv.generators[a][i]
        key = tuple(m)
        data[key] = data.get(key, Fraction(0)) + c
    return PolySeries(n, data, trunc=INF)


def reduce_vectorfield(s: EigenSpectrum, inv: InvariantAlgebra, f: PolyVectorField) -> ReducedField:
    """Push the field through the generator map: f_hat_i = y_i sum_j M[i][j] eta_hat_j.

    ``nu[i][j]`` is read off f_hat as its coefficient of y_i y_j in
    component i.  The defining identity D(Psi) f = f_hat(Psi) is
    re-verified monomial by monomial up to the truncation budget before
    returning.
    """
    etas = decompose_eta(s, inv, f)
    r = inv.r
    M = inv.generators
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
    for i in range(r):
        lhs = lie_derivative(f, PolySeries.monomial(s.n, inv.generators[i], trunc=f.trunc))
        rhs = substitute_generators(fhat.component(i), inv, s.n)
        diff = lhs - rhs.truncated(lhs.trunc)
        if not diff.is_zero():
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
    columns = [lie_bracket(PolyVectorField.monomial(r, i, m), f2).terms for i, m in unknowns]
    kdim = mat_kernel(RatMatrix.from_columns(columns)).dimension
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
