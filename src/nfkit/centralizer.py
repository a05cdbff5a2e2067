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

from .errors import (
    DimensionMismatch,
    InfiniteResonance,
    LinearPartMismatch,
    NotNormalizerPair,
    NotPDNF,
    ZeroSemisimplePart,
)
from .fields import (
    PolySeries,
    PolyVectorField,
    deviation_part,
    is_pdnf,
    lie_bracket,
    lie_derivative,
    series_times_field,
)
from .linalg import RatMatrix, mat_kernel
from .resonance import compositions, resonance_set, resonant_multiindices
from .spectrum import EigenSpectrum, is_finite_linear_centralizer


@dataclass(frozen=True)
class CommutantBasis:
    dimension: int
    basis: tuple[tuple[tuple[Fraction, ...], ...], ...]


def linear_commutant(s: EigenSpectrum) -> CommutantBasis:
    """Kernel of B -> ([B, A_s], [B, A_n]) on the n^2 matrix entries.

    [B, A_s] = 0 is entry (i, k) times (lambda_k - lambda_i), expanded over
    the q coordinates; [B, A_n] rows are assembled from the nilpotent part.
    """
    n = s.n
    nvars = n * n

    def var(i, k):
        return i * n + k

    columns = [{} for _ in range(nvars)]
    for i in range(n):
        for k in range(n):
            for t in range(s.q):
                diff = s.lam[k][t] - s.lam[i][t]
                if diff != 0:
                    columns[var(i, k)][("semisimple", i, k, t)] = diff
    if s.has_nilpotent():
        N = s.nilpotent_matrix()
        # (NB - BN) entry (i, j)
        for i in range(n):
            for j in range(n):
                key = ("nilpotent", i, j)
                for k in range(n):
                    if N.entry(i, k) != 0:
                        col = columns[var(k, j)]
                        col[key] = col.get(key, 0) + N.entry(i, k)
                    if N.entry(k, j) != 0:
                        col = columns[var(i, k)]
                        col[key] = col.get(key, 0) - N.entry(k, j)
    vecs = mat_kernel(RatMatrix.from_columns(columns, nvars)).basis
    mats = []
    for v in vecs:
        mats.append(tuple(tuple(v[var(i, k)] for k in range(n)) for i in range(n)))
    return CommutantBasis(dimension=len(mats), basis=tuple(mats))


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
    seen = []
    blocks = []
    for i in range(s.n):
        row = s.lam[i]
        if row in seen:
            blocks[seen.index(row)][1] += 1
        else:
            seen.append(row)
            blocks.append([i, 1])
    lo = sum(size * size for _, size in blocks)
    hi = sum(size * (size + len(rset.by_component[rep])) for rep, size in blocks)
    return lo, hi


def centralizer_exact(s: EigenSpectrum, f: PolyVectorField) -> CentralizerResult:
    """Exact formal centralizer for finite resonance sets.

    Unknowns: d commutant coordinates + one coefficient per resonance;
    equations: vanishing of every resonant coefficient of the bracket with
    the nilpotent-plus-nonlinear part of f.
    """
    if not is_finite_linear_centralizer(s):
        raise InfiniteResonance("exact centralizer requires a finite resonance set")
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    ftilde, _ = deviation_part(s, f)
    rset = resonance_set(s)
    comm = linear_commutant(s)
    d = comm.dimension
    res_keys = sorted(rset.pairs(), key=lambda k: (sum(k[1]), k[0], k[1]))
    generators = [PolyVectorField.from_matrix(mat) for mat in comm.basis] + [
        PolyVectorField.monomial(s.n, j, m) for j, m in res_keys
    ]
    brackets = [lie_bracket(g, ftilde) for g in generators]
    for br in brackets:
        for j, m in br.terms:
            assert sum(m) >= 2 and rset.contains(j, m), (
                "bracket left the resonant span; the finite system would be incomplete"
            )
    kernel = mat_kernel(RatMatrix.from_columns([br.terms for br in brackets], len(brackets))).basis

    basis = []
    for vec in kernel:
        g = PolyVectorField.zero(s.n)
        for t, c in enumerate(vec):
            if c != 0:
                g = g + generators[t].scale(c)
        basis.append(g)
    dim = len(basis)
    r = rset.total
    assert d <= dim <= d + r, "dimension bound violated"
    assert dim >= s.n, "dimension must be at least the space dimension"
    block_bounds = None
    if not s.has_nilpotent():
        lo, hi = _block_data(s, rset)
        block_bounds = (lo, hi)
        assert lo <= dim <= hi, "block dimension bound violated"
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


def centralizer_truncated(s: EigenSpectrum, f: PolyVectorField, D: int) -> CentralizerResult:
    """Solve [g, f] = 0 mod degree > D with g on resonant monomials of degree <= D."""
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    if f.trunc < D:
        raise DimensionMismatch(f"field truncation {f.trunc} is below D = {D}")
    ftilde, _ = deviation_part(s, f)
    ftilde = ftilde.truncated(D)
    unknown_keys = []
    for deg in range(1, D + 1):
        for j in range(s.n):
            for m in resonant_multiindices(s, j, deg):
                unknown_keys.append((deg, j, m))
    unknown_keys.sort()
    generators = [PolyVectorField.monomial(s.n, j, m) for _deg, j, m in unknown_keys]
    brackets = [lie_bracket(g, ftilde).truncated(D) for g in generators]
    kernel = mat_kernel(RatMatrix.from_columns([br.terms for br in brackets], len(brackets))).basis
    basis = []
    graded_count: dict[int, int] = {}
    for vec in kernel:
        g = PolyVectorField.zero(s.n, trunc=D)
        lead = None
        for t, c in enumerate(vec):
            if c != 0:
                if lead is None:
                    lead = unknown_keys[t][0]
                g = g + generators[t].scale(c).truncated(D)
        basis.append(g)
        graded_count[lead] = graded_count.get(lead, 0) + 1
    dcomm = linear_commutant(s).dimension
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


def _all_monomials(n, dmin, dmax):
    out = []
    for d in range(dmin, dmax + 1):
        out.extend(compositions(d, n))
    return out


def _require_explicit(s, f):
    ftilde, explicit = deviation_part(s, f)
    if not explicit and any(any(c != 0 for c in row) for row in s.lam):
        raise LinearPartMismatch(
            "this operation needs the linear part stored in the field "
            "(rational eigenvalues written out as |m| = 1 terms)"
        )
    return ftilde


def normalizer_truncated(s: EigenSpectrum, f: PolyVectorField, D: int) -> NormalizerResult:
    """Joint solve of [g, f] = lambda f mod degree > D.

    g ranges over all vector monomials of degree 1..D, lambda over scalar
    monomials of degree 0..D-1.  The linear part of f must be stored
    explicitly: unlike the centralizer case the unknowns are not confined
    to resonant monomials, so the semisimple part enters the equations as
    actual rational numbers.
    """
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    _require_explicit(s, f)
    if f.trunc < D:
        raise DimensionMismatch(f"field truncation {f.trunc} is below D = {D}")
    fD = f.truncated(D)
    g_keys = []
    for deg in range(1, D + 1):
        for j in range(s.n):
            for m in compositions(deg, s.n):
                g_keys.append((deg, j, m))
    g_keys.sort()
    lam_keys = sorted(_all_monomials(s.n, 0, D - 1), key=lambda m: (sum(m), m))
    columns = []
    for _deg, j, m in g_keys:
        columns.append(lie_bracket(PolyVectorField.monomial(s.n, j, m), fD).truncated(D))
    for m in lam_keys:
        columns.append(series_times_field(PolySeries.monomial(s.n, m), fD).scale(-1).truncated(D))
    kernel = mat_kernel(RatMatrix.from_columns([c.terms for c in columns], len(columns))).basis
    ng = len(g_keys)
    basis = []
    for vec in kernel:
        g = PolyVectorField.zero(s.n, trunc=D)
        lam = PolySeries.zero(s.n, trunc=D - 1)
        for t, c in enumerate(vec):
            if c == 0:
                continue
            if t < ng:
                _deg, j, m = g_keys[t]
                g = g + PolyVectorField.monomial(s.n, j, m, c, trunc=D)
            else:
                lam = lam + PolySeries.monomial(s.n, lam_keys[t - ng], c, trunc=D - 1)
        basis.append((g, lam))
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
    if all(all(c == 0 for c in row) for row in s.lam):
        raise ZeroSemisimplePart("the semisimple part vanishes")
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    _require_explicit(s, f)
    if f.trunc < D or g.trunc < D or lam.trunc < D - 1:
        raise DimensionMismatch("truncation budgets below the requested degree")
    residual = lie_bracket(g, f) - series_times_field(lam, f)
    if not residual.is_zero_mod(D):
        raise NotNormalizerPair("[g, f] - lambda*f does not vanish mod degree > D")

    nilfield = PolyVectorField.from_matrix([list(r) for r in s.nilpotent_matrix()])

    def eigenvalue(m) -> Fraction:
        # rational because the linear part is explicit (q = 1, basis value 1)
        return sum((m[i] * s.lam[i][0] for i in range(s.n)), Fraction(0))

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
    for m, _c in alpha.terms.items():
        assert eigenvalue(m) == 0, "alpha must lie in the kernel of X_{A_s}"
    assert alpha.coefficient(tuple(0 for _ in range(s.n))) == 0, "alpha(0) must vanish"
    h = (g - series_times_field(beta, f)).truncated(D)
    for (j, m), _c in h.terms.items():
        assert s.is_resonant(m, j), "g - beta f must commute with the semisimple part"
    return beta, alpha
