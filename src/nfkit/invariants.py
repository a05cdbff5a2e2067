"""Monomial first-integral algebra, reduction by invariants, triviality certificates.

The invariant algebra of the semisimple part is generated by the Hilbert
basis monomials; when their exponent rows are linearly independent over Q
the reduction map is well posed and a normal form with the free-module
shape can be pushed down to r variables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotFreeModuleShape,
    NotPDNF,
    RewriteFailure,
    SearchCapReached,
    ZeroEigenvalue,
)
from .fields import (
    INF,
    PolySeries,
    PolyVectorField,
    deviation_part,
    is_pdnf,
    lie_bracket,
    lie_derivative,
)
from .linalg import RatMatrix, integer_rows, mat_kernel, mat_rank, mat_solve
from .resonance import commuting_degree_ladder, compositions, semiinvariant_degree_ladder
from .spectrum import (
    DEFAULT_COMPLETION_CAP,
    EigenSpectrum,
    hilbert_basis,
    inhomogeneous_minimal_solutions,
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


def invariant_generators(s: EigenSpectrum, cap=DEFAULT_COMPLETION_CAP) -> InvariantAlgebra:
    gens = hilbert_basis(s, cap).generators
    independent = mat_rank(RatMatrix(gens)) == len(gens)
    return InvariantAlgebra(generators=gens, independent=independent)


@dataclass(frozen=True)
class FreeModuleVerdict:
    free: bool | None  # None = unknown (completion cap reached)
    witness: tuple[int, tuple[int, ...]] | None = None  # (component, exponent row)


def _component_witness(s: EigenSpectrum, j, target, cap):
    """Smallest m with m_j = 0 and <m, lambda> = target, or None.

    Solved by completing the homogenized system over the remaining
    variables, so absence is decided, not merely searched.
    """
    idx = [i for i in range(s.n) if i != j]
    eqs = []
    for k in range(s.q):
        eqs.append([s.lam[i][k] for i in idx] + [target[k]])
    scaled = integer_rows(eqs)
    rows = [r[:-1] for r in scaled]
    rhs = [r[-1] for r in scaled]
    sols = inhomogeneous_minimal_solutions(rows, rhs, len(idx), cap)
    best = None
    for sol in sols:
        m = [0] * s.n
        for pos, i in enumerate(idx):
            m[i] = sol[pos]
        m = tuple(m)
        if sum(m) == 0:
            continue
        if best is None or (sum(m), m) < (sum(best), best):
            best = m
    return best


def check_free_module(s: EigenSpectrum, search_bound=DEFAULT_COMPLETION_CAP) -> FreeModuleVerdict:
    """Does every resonant vector monomial for component j carry x_j?

    A witness is an m with m_j = 0 and <m, lambda> = lambda_j; none existing
    for any j makes the polynomial commutant a free module of rank n over
    the invariant algebra.
    """
    for i in range(s.n):
        if all(c == 0 for c in s.lam[i]):
            raise ZeroEigenvalue(f"eigenvalue {i} is zero")
    for j in range(s.n):
        try:
            witness = _component_witness(s, j, s.lam[j], search_bound)
        except SearchCapReached:
            return FreeModuleVerdict(free=None)
        if witness is not None:
            return FreeModuleVerdict(free=False, witness=(j, witness))
    return FreeModuleVerdict(free=True)


@dataclass(frozen=True)
class OneDivVerdict:
    holds: bool | None  # None = unknown
    witness: tuple[int, ...] | None = None
    div_nonzero: bool = True


def check_onediv(s: EigenSpectrum, search_bound=DEFAULT_COMPLETION_CAP) -> OneDivVerdict:
    """Is the divergence-cofactor module generated by x_1 ... x_n alone?

    Fails immediately when div A_s = 0 (the module then contains 1);
    otherwise searches each hyperplane m_j = 0 for a monomial with
    <m, lambda> equal to the divergence.
    """
    target = s.divergence_coords()
    if all(c == 0 for c in target):
        return OneDivVerdict(holds=False, witness=tuple(0 for _ in range(s.n)), div_nonzero=False)
    for j in range(s.n):
        try:
            witness = _component_witness(s, j, target, search_bound)
        except SearchCapReached:
            return OneDivVerdict(holds=None)
        if witness is not None:
            return OneDivVerdict(holds=False, witness=witness)
        # the zero row also violates when the target is hit by m = 0;
        # excluded above since target != 0
    return OneDivVerdict(holds=True)


def _rewrite_in_generators(inv: InvariantAlgebra, v):
    """Solve M^T k = v over Z_+; unique under independence."""
    r = inv.r
    n = len(v)
    cols = [[inv.generators[a][i] for a in range(r)] for i in range(n)]
    sol = mat_solve(RatMatrix(cols), list(v))
    if sol is None:
        raise RewriteFailure(f"exponent row {v} is not a combination of the generators")
    assert not sol.basis, "generator exponents must be independent here"
    k = []
    for x in sol.particular:
        if x.denominator != 1 or x < 0:
            raise RewriteFailure(
                f"exponent row {v} needs a non-integer or negative generator combination"
            )
        k.append(int(x))
    return tuple(k)


def decompose_eta(s: EigenSpectrum, inv: InvariantAlgebra, f: PolyVectorField):
    """Write f = A + sum eta_j(x) x_j e_j with eta_j a series in the generators.

    Returns the reduced-coordinate series eta_hat_1..eta_hat_n; every
    nonlinear term of component j must carry x_j (free-module shape) and
    its cofactor monomial must rewrite over the generators.
    """
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    if not inv.independent:
        raise NotFreeModuleShape("generator exponents are not independent")
    ftilde, _ = deviation_part(s, f)
    if s.nilpotent:
        raise NotFreeModuleShape("free-module shape requires a vanishing nilpotent part")
    r = inv.r
    etas = [PolySeries.zero(r, trunc=INF) for _ in range(s.n)]
    for (j, m), c in sorted(ftilde.terms.items(), key=lambda t: (t[0][0], sum(t[0][1]), t[0][1])):
        if m[j] == 0:
            raise NotFreeModuleShape(f"term ({j}, {m}) lacks the coordinate factor x_{j}")
        v = tuple(x - (1 if t == j else 0) for t, x in enumerate(m))
        k = _rewrite_in_generators(inv, v)
        etas[j] = etas[j] + PolySeries.monomial(r, k, c)
    if f.trunc != INF and inv.generators:
        # a reduced term y^k is complete only while every contributing
        # ambient degree <deg psi, k> + 1 stays within the field budget
        lmax = max(sum(g) for g in inv.generators)
        etas = [e.truncated((f.trunc - 1) // lmax) for e in etas]
    return tuple(etas)


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

    The defining identity D(Psi) f = f_hat(Psi) is re-verified monomial by
    monomial up to the truncation budget before returning.
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
    if f.trunc == INF:
        red_trunc = INF
    else:
        lmax = max(sum(g) for g in inv.generators)
        red_trunc = 1 + (f.trunc - 1) // lmax
    fhat = PolyVectorField(r, terms, trunc=red_trunc)
    nu = tuple(
        tuple(
            sum(
                (Fraction(M[i][kk]) * etas[kk].coefficient(tuple(1 if a == j else 0 for a in range(r)))
                 for kk in range(s.n)),
                Fraction(0),
            )
            for j in range(r)
        )
        for i in range(r)
    )
    ftilde, _ = deviation_part(s, f)
    for i in range(r):
        lhs = lie_derivative(ftilde, PolySeries.monomial(s.n, inv.generators[i], trunc=f.trunc))
        rhs = substitute_generators(fhat.component(i), inv, s.n)
        diff = lhs - rhs.truncated(lhs.trunc)
        assert diff.is_zero(), "reduction identity failed"
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


def triviality_certificate(red: ReducedField, cap=12) -> TrivialityCertificate:
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
    ladder = commuting_degree_ladder(mu, cap)
    if not ladder.complete:
        reasons.append("commuting degree ladder only complete up to the cap")
    if set(ladder.degrees) - {2}:
        reasons.append(f"commuting ladder admits degrees {sorted(set(ladder.degrees) - {2})}")
    f2 = quadratic_from_nu(nu)
    unknowns = [(i, m) for i in range(r) for m in compositions(2, r)]
    columns = [lie_bracket(PolyVectorField.monomial(r, i, m), f2).terms for i, m in unknowns]
    kdim = mat_kernel(RatMatrix.from_columns(columns, len(columns))).dimension
    if kdim != 1:
        reasons.append(f"degree-2 commutator kernel has dimension {kdim}")
    fi_ladder = semiinvariant_degree_ladder(mu, 0, cap)
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
