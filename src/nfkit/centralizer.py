"""Linear commutants, exact and truncated centralizers, truncated normalizers.

The exact centralizer follows the finite-resonance construction: unknowns
are the coordinates of the linear part over a commutant basis plus one
coefficient per resonant vector monomial, and commuting with the field is a
homogeneous linear system whose rows are indexed by resonant monomials.
All brackets against the semisimple part vanish structurally (commutant
matrices and resonant monomials commute with it by construction), so only
the rational data, nilpotent part and nonlinear terms, enters the system.

Not provided: rescaling a normalizer element into an honest commuting field
for a time-reparametrized system; that construction needs the semisimple
part of an arbitrary commuting linear map and is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    InfiniteResonance,
    LinearPartMismatch,
    NotNormalizerPair,
    ScopeError,
    ZeroSemisimplePart,
)
from .fields import (
    PolySeries,
    PolyVectorField,
    lie_bracket,
    lie_derivative,
    normal_form_deviation,
    series_times_field,
)
from .linalg import RatMatrix, mat_kernel
from .resonance import NORMALIZER_UNKNOWN_LIMIT, finite_resonance_set, resonances_by_component
from .spectrum import EigenSpectrum, compositions, is_finite_linear_centralizer, unit_row


# dense entries of the commutant basis matrices or of a truncated kernel: both grow as
# n^4 for one eigenvalue block; n = 40 took 3 s and 64-85 MB (2-core Xeon, Python 3.11)
CENTRALIZER_ENTRY_LIMIT = 10**6


@dataclass(frozen=True)
class CommutantBasis:
    dimension: int
    basis: tuple[tuple[tuple[Fraction, ...], ...], ...]


def _block_kernels(s: EigenSpectrum, blocks):
    """Per eigenvalue block b, the kernel basis of its [B, A_n] = 0 system on B_{b_a b_c}."""
    for block in blocks:
        size = len(block)
        local = {i: a for a, i in enumerate(block)}
        columns = [{} for _ in range(size * size)]
        # N_ik = c enters (NB - BN)_ij as +c B_kj and (NB - BN)_jk as -c B_ji
        for i, k, c in s.nilpotent:
            if i not in local:
                continue
            a, b = local[i], local[k]
            for t in range(size):
                col, key = columns[b * size + t], (a, t)
                col[key] = col.get(key, 0) + c
                col, key = columns[t * size + a], (t, b)
                col[key] = col.get(key, 0) - c
        yield block, mat_kernel(RatMatrix.from_columns(columns)).basis


def linear_commutant(s: EigenSpectrum) -> CommutantBasis:
    """Kernel of B -> ([B, A_s], [B, A_n]), solved once per eigenvalue block.

    Entry (i, k) of [B, A_s] is B_ik (lambda_k - lambda_i), so B vanishes
    across blocks, and [B, A_n] = 0 splits into one |b|^2-column system per
    block b on its own entries B_{b_a b_c} (column a |b| + c), with rows from
    that block's nilpotent entries; a block without them has no rows and
    its kernel is the identity.  Each kernel vector is placed in an n x n
    matrix, and the union is ordered by free column, the vector's last
    nonzero entry: that is exactly `mat_kernel`'s basis of the whole n^2
    system, whose cross-block columns are all pivots.  Refuses up front more
    than `CENTRALIZER_ENTRY_LIMIT` basis-matrix entries, sum |b|^2 n^2.
    """
    n = s.n
    blocks = s.blocks()
    entries = sum(len(b) ** 2 for b in blocks) * n * n
    if entries > CENTRALIZER_ENTRY_LIMIT:
        raise ScopeError(
            f"linear commutant has up to {entries} basis-matrix entries,"
            f" above the limit {CENTRALIZER_ENTRY_LIMIT}"
        )
    placed = []
    for block, kernel in _block_kernels(s, blocks):
        size = len(block)
        for vec in kernel:
            mat = [[Fraction(0)] * n for _ in range(n)]
            last = 0
            for t, x in enumerate(vec):
                if x:
                    i, k = block[t // size], block[t % size]
                    mat[i][k] = x
                    last = i * n + k
            placed.append((last, tuple(tuple(row) for row in mat)))
    basis = tuple(mat for _, mat in sorted(placed, key=lambda p: p[0]))
    return CommutantBasis(dimension=len(basis), basis=basis)


@dataclass(frozen=True)
class CentralizerResult:
    dimension: int
    basis: tuple[PolyVectorField, ...]
    exact: bool
    d: int
    r: int
    truncation: int | None = None
    graded: tuple[tuple[int, int], ...] | None = None
    block_bounds: tuple[int, int] | None = None
    note: str | None = None


def _block_data(s: EigenSpectrum, rset):
    """Multiplicity and per-block resonance counts for the A_n = 0 bounds."""
    blocks = s.blocks()
    lo = sum(len(b) * len(b) for b in blocks)
    hi = sum(len(b) * (len(b) + len(rset.by_component[b[0]])) for b in blocks)
    return lo, hi


def centralizer_exact(s: EigenSpectrum, f: PolyVectorField) -> CentralizerResult:
    """Exact formal centralizer for finite resonance sets.

    Unknowns: d commutant coordinates + one coefficient per resonance;
    equations: vanishing of every resonant coefficient of the bracket with
    the nilpotent-plus-nonlinear part of f.
    """
    if not is_finite_linear_centralizer(s):
        raise InfiniteResonance("exact centralizer requires a finite resonance set")
    ftilde, _ = normal_form_deviation(s, f)
    rset = finite_resonance_set(s)
    comm = linear_commutant(s)
    d = comm.dimension
    res_keys = sorted(rset.pairs(), key=lambda k: (sum(k[1]), k[0], k[1]))
    generators = [PolyVectorField.from_matrix(mat) for mat in comm.basis] + [
        PolyVectorField.monomial(s.n, j, m) for j, m in res_keys
    ]
    brackets = [lie_bracket(g, ftilde) for g in generators]
    if any(sum(m) < 2 or not rset.contains(j, m) for br in brackets for j, m in br.terms):
        raise CertificateFailure(
            "bracket left the resonant span; the finite system would be incomplete"
        )
    kernel = mat_kernel(RatMatrix.from_columns([br.terms for br in brackets])).basis

    basis = [PolyVectorField.linear_combination(s.n, zip(vec, generators)) for vec in kernel]
    dim = len(basis)
    r = rset.total
    if not d <= dim <= d + r:
        raise CertificateFailure(f"dimension {dim} violates d = {d} <= dim <= d + r = {d + r}")
    if dim < s.n:
        raise CertificateFailure(f"dimension {dim} is below the space dimension {s.n}")
    block_bounds = None
    if not s.has_nilpotent():
        lo, hi = _block_data(s, rset)
        block_bounds = (lo, hi)
        if not lo <= dim <= hi:
            raise CertificateFailure(f"dimension {dim} violates the block bounds [{lo}, {hi}]")
    return CentralizerResult(
        dimension=dim,
        basis=tuple(basis),
        exact=True,
        d=d,
        r=r,
        block_bounds=block_bounds,
    )


TRUNCATION_NOTE = (
    "truncated kernel: an element need not extend to the formal centralizer, "
    "so this dimension is only an upper indication at the chosen degree"
)


def _check_truncation(f: PolyVectorField, D: int):
    if D < 1:
        raise DimensionMismatch(f"truncation degree D = {D} is below 1")
    if f.trunc < D:
        raise DimensionMismatch(f"field truncation {f.trunc} is below D = {D}")


def centralizer_truncated(s: EigenSpectrum, f: PolyVectorField, D: int) -> CentralizerResult:
    """Solve [g, f] = 0 mod degree > D with g on resonant monomials of degree <= D.

    Refuses up front a kernel of up to unknowns^2 > `CENTRALIZER_ENTRY_LIMIT` entries.
    """
    ftilde, _ = normal_form_deviation(s, f)
    _check_truncation(f, D)
    ftilde = ftilde.truncated(D)
    unknown_keys = sorted(
        (sum(m), j, m) for j, rj in enumerate(resonances_by_component(s, 1, D)) for m in rj
    )
    entries = len(unknown_keys) ** 2
    if entries > CENTRALIZER_ENTRY_LIMIT:
        raise ScopeError(
            f"truncated centralizer has {len(unknown_keys)} unknowns, a kernel of up to"
            f" {entries} entries, above the limit {CENTRALIZER_ENTRY_LIMIT}"
        )
    generators = [PolyVectorField.monomial(s.n, j, m) for _deg, j, m in unknown_keys]
    brackets = [lie_bracket(g, ftilde).truncated(D) for g in generators]
    kernel = mat_kernel(RatMatrix.from_columns([br.terms for br in brackets])).basis
    basis = [PolyVectorField.linear_combination(s.n, zip(vec, generators), D) for vec in kernel]
    graded_count: dict[int, int] = {}
    for vec in kernel:
        lead = next(unknown_keys[t][0] for t, c in enumerate(vec) if c != 0)
        graded_count[lead] = graded_count.get(lead, 0) + 1
    # the commutant dimension, without building its n x n basis matrices
    dcomm = sum(len(kernel) for _, kernel in _block_kernels(s, s.blocks()))
    return CentralizerResult(
        dimension=len(basis),
        basis=tuple(basis),
        exact=False,
        d=dcomm,
        r=sum(1 for k in unknown_keys if k[0] >= 2),
        truncation=D,
        graded=tuple(sorted(graded_count.items())),
        note=TRUNCATION_NOTE,
    )


@dataclass(frozen=True)
class NormalizerResult:
    dimension: int
    basis: tuple[tuple[PolyVectorField, PolySeries], ...]
    truncation: int


def _require_explicit(s, f):
    _, explicit = normal_form_deviation(s, f)
    if not explicit and s.q != 0:
        raise LinearPartMismatch(
            "this operation needs the linear part stored in the field "
            "(rational eigenvalues written out as |m| = 1 terms)"
        )


def normalizer_truncated(s: EigenSpectrum, f: PolyVectorField, D: int) -> NormalizerResult:
    """Joint solve of [g, f] = lambda f mod degree > D.

    g ranges over all vector monomials of degree 1..D, lambda over scalar
    monomials of degree 0..D-1.  The linear part of f must be stored
    explicitly: unlike the centralizer case the unknowns are not confined
    to resonant monomials, so the semisimple part enters the equations as
    actual rational numbers.  Refuses up front, with a scope error, more than
    `NORMALIZER_UNKNOWN_LIMIT` unknowns: n (C(D + n, n) - 1) vector and
    C(D - 1 + n, n) scalar monomials.
    """
    _require_explicit(s, f)
    _check_truncation(f, D)
    unknowns = s.n * (comb(D + s.n, s.n) - 1) + comb(D - 1 + s.n, s.n)
    if unknowns > NORMALIZER_UNKNOWN_LIMIT:
        raise ScopeError(
            f"normalizer truncated at degree {D} has {unknowns} unknowns,"
            f" above the limit {NORMALIZER_UNKNOWN_LIMIT}"
        )
    fD = f.truncated(D)
    g_monos = [
        PolyVectorField.monomial(s.n, j, m)
        for deg in range(1, D + 1)
        for j in range(s.n)
        for m in compositions(deg, s.n)
    ]
    lam_monos = [PolySeries.monomial(s.n, m) for deg in range(D) for m in compositions(deg, s.n)]
    columns = [lie_bracket(g, fD).truncated(D) for g in g_monos]
    columns += [series_times_field(lam, fD).scale(-1).truncated(D) for lam in lam_monos]
    kernel = mat_kernel(RatMatrix.from_columns([c.terms for c in columns])).basis
    ng = len(g_monos)
    basis = [
        (
            PolyVectorField.linear_combination(s.n, zip(vec[:ng], g_monos), D),
            PolySeries.linear_combination(s.n, zip(vec[ng:], lam_monos), D - 1),
        )
        for vec in kernel
    ]
    return NormalizerResult(dimension=len(basis), basis=tuple(basis), truncation=D)


def normalizer_reduce(
    s: EigenSpectrum,
    f: PolyVectorField,
    g: PolyVectorField,
    lam: PolySeries,
    D: int,
):
    """Split a normalizer pair: find beta with [g - beta f, f] = alpha f and
    X_{A_s}(alpha) = 0 at every degree <= D - 1.

    Works degree by degree: the non-kernel eigencomponents of the running
    multiplier are removed by solving X_A(beta_k) = -u on each eigenvalue-c
    component, where X_A = c*I + X_{A_n} is inverted by a finite Neumann
    sum.  Also checks that g - beta f commutes with the semisimple part.
    """
    if s.q == 0:
        raise ZeroSemisimplePart("the semisimple part vanishes")
    _require_explicit(s, f)
    if f.trunc < D or g.trunc < D or lam.trunc < D - 1:
        raise DimensionMismatch("truncation budgets below the requested degree")
    residual = lie_bracket(g, f) - series_times_field(lam, f)
    if not residual.is_zero_mod(D):
        raise NotNormalizerPair("[g, f] - lambda*f does not vanish mod degree > D")

    nilfield = PolyVectorField(s.n, {(i, unit_row(s.n, j)): c for i, j, c in s.nilpotent})
    # rational because the linear part is explicit (q = 1, basis value 1)
    eigenvalues = s.rational_eigenvalues()

    def eigenvalue(m) -> Fraction:
        return sum((m[i] * eigenvalues[i] for i in range(s.n)), Fraction(0))

    beta = PolySeries.zero(s.n, trunc=D - 1)
    alpha = lam.truncated(D - 1)
    for k in range(1, D):
        part = alpha.graded_part(k)
        groups: dict[Fraction, dict] = {}
        for m, c in part.terms.items():
            groups.setdefault(eigenvalue(m), {})[m] = c
        bk = PolySeries.zero(s.n, trunc=D - 1)
        for ev, terms in groups.items():
            if ev == 0:
                continue
            u = PolySeries(s.n, terms, trunc=D - 1)
            comp = PolySeries.zero(s.n, trunc=D - 1)
            coeff = Fraction(-1) / ev
            power = u
            while not power.is_zero():
                comp = comp + power.scale(coeff)
                power = lie_derivative(nilfield, power)
                coeff = -coeff / ev
            bk = bk + comp
        if bk.is_zero():
            continue
        beta = beta + bk
        alpha = (lam + lie_derivative(f, beta)).truncated(D - 1)
    if any(eigenvalue(m) != 0 for m in alpha.terms):
        raise CertificateFailure("alpha must lie in the kernel of X_{A_s}")
    if alpha.coefficient(tuple(0 for _ in range(s.n))) != 0:
        raise CertificateFailure("alpha(0) must vanish")
    h = (g - series_times_field(beta, f)).truncated(D)
    if not all(s.is_resonant(m, j) for j, m in h.terms):
        raise CertificateFailure("g - beta f must commute with the semisimple part")
    return beta, alpha
