"""Linear commutants, exact and truncated centralizers, truncated normalizers.

The exact centralizer follows the finite-resonance construction: every
resonant monomial has degree at most the proven bound, and brackets of
resonant fields stay resonant, so it is the truncated centralizer's system
at that bound.  Unknowns are the within-block linear monomials x_k e_i and
the resonant vector monomials, and commuting with the field is a
homogeneous linear system whose rows are indexed by resonant monomials.
All brackets against the semisimple part vanish structurally (every unknown
commutes with it), so only the rational data, nilpotent part and nonlinear
terms, enters the system; its degree-1 part is the linear commutant's.

Every system, each commutant block's included, is assembled in integers,
one column per unknown monomial, by `fields.CommutatorColumns`; no
generator field is built and no bracket is taken in `Fraction`.  A kernel
vector on unit-monomial unknowns is read straight off its (column, value)
pairs as the coefficients of its element.  Each solver re-checks its basis
against solutions known in closed form (`_check_known_solutions`), and the
truncated normalizer its dimension class by class (`_check_class_dimensions`).

Not provided: rescaling a normalizer element into an honest commuting field
for a time-reparametrized system; that construction needs the semisimple
part of an arbitrary commuting linear map and is out of scope here.
"""

from __future__ import annotations

from collections import Counter
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
    CommutatorColumns,
    PolySeries,
    PolyVectorField,
    lie_bracket,
    lie_derivative,
    normal_form_deviation,
    series_times_field,
)
from .linalg import RatMatrix, mat_kernel
from .resonance import finite_resonance_set, resonances_by_component
from .spectrum import (
    EigenSpectrum,
    c_matrix_basis,
    compositions,
    is_finite_linear_centralizer,
    unit_row,
)


# (column, value) pairs of a kernel over u unknowns, up to u^2: they grow as n^4
# for one eigenvalue block.  Lifted, diag(1^40) takes 0.03 s and 18 MB, but one
# Jordan block of 30 (accepted) 23 s (exact centralizer, 2-core Xeon, Python 3.11)
CENTRALIZER_ENTRY_LIMIT = 10**6
# unknowns of the dense truncated normalizer: 305 (n = 3, D = 6) take 5-9 s on
# a 2-core Xeon under Python 3.11 (200 unknowns, D = 5: 2.4-2.7 s), most of it
# back-substitution; the time grows about cubically
NORMALIZER_UNKNOWN_LIMIT = 320


def _check_kernel_size(what: str, unknowns: int):
    """Refuse a kernel over ``unknowns`` unknowns, up to unknowns^2 entries, above the limit."""
    entries = unknowns * unknowns
    if entries > CENTRALIZER_ENTRY_LIMIT:
        raise ScopeError(
            f"{what} has {unknowns} unknowns, a kernel of up to {entries} entries,"
            f" above the limit {CENTRALIZER_ENTRY_LIMIT}"
        )


@dataclass(frozen=True)
class CommutantBasis:
    """The linear fields Bx of a commutant basis."""

    dimension: int
    basis: tuple[PolyVectorField, ...]


def _block_kernels(s: EigenSpectrum, blocks):
    """Per eigenvalue block b, the kernel of its [x_k e_i, A_n x] = 0 system on the
    |b|^2 fields x_k e_i with i, k in b (column a |b| + c for i = b_a, k = b_c), each
    block first sized by `_check_kernel_size`."""
    n = s.n
    for block in blocks:
        size = len(block)
        _check_kernel_size(f"commutant block of size {size}", size * size)
        nilpotent = {(i, unit_row(n, k)): c for i, k, c in s.nilpotent if i in block}
        system = CommutatorColumns(PolyVectorField(n, nilpotent))
        columns = [system.bracket(i, unit_row(n, k)) for i in block for k in block]
        yield block, mat_kernel(RatMatrix(columns))


def linear_commutant(s: EigenSpectrum) -> CommutantBasis:
    """Kernel of B -> ([B, A_s], [B, A_n]), solved once per eigenvalue block.

    Entry (i, k) of [B, A_s] is B_ik (lambda_k - lambda_i), so B vanishes
    across blocks, and [B, A_n] = 0 splits into one |b|^2-column system per
    block b on its own entries B_{b_a b_c}, with rows from that block's
    nilpotent entries; a block without them has no rows and its kernel is
    the identity.  Each kernel vector B becomes the linear field Bx, and the
    union is ordered by the vector's last nonzero entry B_ik at i n + k:
    that is exactly `mat_kernel`'s basis of the whole n^2 system, whose
    cross-block columns are all pivots.
    """
    n = s.n
    placed = []
    for block, kernel in _block_kernels(s, s.blocks()):
        size = len(block)
        for pairs in kernel.vectors:
            entries = [(block[t // size], block[t % size], x) for t, x in pairs]
            field = PolyVectorField(n, {(i, unit_row(n, k)): x for i, k, x in entries})
            placed.append((entries[-1][0] * n + entries[-1][1], field))
    placed.sort(key=lambda p: p[0])
    return CommutantBasis(dimension=len(placed), basis=tuple(field for _, field in placed))


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


def centralizer_exact(s: EigenSpectrum, f: PolyVectorField) -> CentralizerResult:
    """Exact formal centralizer for finite resonance sets.

    Every resonant monomial has degree at most the proven bound, and brackets
    of resonant fields stay resonant, so this is the truncated centralizer's
    system at that bound.  Unknowns: the sum |b|^2 linear fields x_k e_i with
    lambda_i = lambda_k, in (i, k) order, then one coefficient per resonance,
    by degree, component and exponent; equations: vanishing of every
    resonant coefficient of the bracket with the nilpotent-plus-nonlinear
    part of f.  Refuses up front, once the resonances are listed, a kernel
    over those unknowns that `_check_kernel_size` rejects.  Checks that every
    bracket stays resonant, that the dimension lies in [d, d + r], and that
    the basis spans ftilde and each C_k x (`_check_known_solutions`).
    """
    if not is_finite_linear_centralizer(s):
        raise InfiniteResonance("exact centralizer requires a finite resonance set")
    ftilde, _ = normal_form_deviation(s, f)
    rset = finite_resonance_set(s)
    r = rset.total
    blocks = s.blocks()
    _check_kernel_size("exact centralizer", sum(len(b) ** 2 for b in blocks) + r)
    block_of = {i: b for b in blocks for i in b}
    keys = [(i, unit_row(s.n, k)) for i in range(s.n) for k in block_of[i]]
    keys += sorted(rset.pairs(), key=lambda k: (sum(k[1]), k[0], k[1]))
    system = CommutatorColumns(ftilde)
    columns = [system.bracket(j, m) for j, m in keys]
    if any(not s.is_resonant(m, j) for col in columns for j, m in col):
        raise CertificateFailure(
            "bracket left the resonant span; the finite system would be incomplete"
        )
    kernel = mat_kernel(RatMatrix(columns))
    dim = kernel.dimension
    d = sum(space.dimension for _, space in _block_kernels(s, blocks))
    if not d <= dim <= d + r:
        raise CertificateFailure(f"dimension {dim} violates d = {d} <= dim <= d + r = {d + r}")
    if dim < s.n:
        raise CertificateFailure(f"dimension {dim} is below the space dimension {s.n}")
    index = {key: t for t, key in enumerate(keys)}
    known = {"the deviation f~": ftilde.terms, **_linear_solutions(s)}
    _check_known_solutions(known, index, kernel, "exact centralizer")
    basis = [PolyVectorField(s.n, {keys[t]: x for t, x in pairs}) for pairs in kernel.vectors]
    # with A_n = 0 the commutant holds all |b|^2 entries of each block b, so
    # sum |b|^2 = d; the components of b share one listing of r_b resonances, so
    # sum |b| r_b = r by construction
    block_bounds = None if s.has_nilpotent() else (d, d + r)
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


def _linear_solutions(s: EigenSpectrum):
    """The terms of each C_k x, labelled.  C_k x commutes with the nilpotent part and
    with every resonant monomial, so with every field in normal form."""
    return {
        f"C_{k} x": {(i, unit_row(s.n, i)): c for i, c in enumerate(C) if c}
        for k, C in enumerate(c_matrix_basis(s), 1)
    }


def _check_known_solutions(known, index, kernel, what):
    """Certificate: each known solution is the sum of the basis vectors, each
    weighted by its coefficient at the vector's free column.

    ``known`` maps a label to a solution's terms, keyed like ``index``, which
    numbers the unknowns; every other unknown of a known solution is 0.  A
    basis vector is 1 at its free column (its last pair) and 0 at
    every other free column, so the weights are read off there and only the
    vectors of the solution's free columns are summed.  A miss names the
    solution and ``what`` the basis spans.
    """
    wanted = {}
    for label, terms in known.items():
        if not terms.keys() <= index.keys():
            raise CertificateFailure(f"{label} has a term outside the unknowns of the {what}")
        wanted[label] = {index[key]: c for key, c in terms.items() if c}
    vector_of = {pairs[-1][0]: pairs for pairs in kernel.vectors}
    for label, want in wanted.items():
        got = {}
        for f, w in want.items():
            for t, x in vector_of.get(f, ()):
                x = w * x
                got[t] = got[t] + x if t in got else x
        if {t: c for t, c in got.items() if c} != want:
            raise CertificateFailure(f"{label} is not in the span of the {what} basis")


def centralizer_truncated(s: EigenSpectrum, f: PolyVectorField, D: int) -> CentralizerResult:
    """Solve [g, f] = 0 mod degree > D with g on resonant monomials of degree <= D.

    Refuses up front a kernel over as many unknowns as `_check_kernel_size` rejects,
    and checks that the basis spans ftilde and each C_k x (`_check_known_solutions`).
    """
    ftilde, _ = normal_form_deviation(s, f)
    _check_truncation(f, D)
    ftilde = ftilde.truncated(D)
    unknown_keys = sorted(
        (sum(m), j, m) for j, rj in enumerate(resonances_by_component(s, 1, D)) for m in rj
    )
    _check_kernel_size("truncated centralizer", len(unknown_keys))
    system = CommutatorColumns(ftilde)
    kernel = mat_kernel(RatMatrix([system.bracket(j, m) for _deg, j, m in unknown_keys]))
    index = {(j, m): t for t, (_deg, j, m) in enumerate(unknown_keys)}
    known = {"the deviation f~ truncated at D": ftilde.terms, **_linear_solutions(s)}
    _check_known_solutions(known, index, kernel, "truncated centralizer")
    basis = [
        PolyVectorField(s.n, {unknown_keys[t][1:]: x for t, x in pairs}, D)
        for pairs in kernel.vectors
    ]
    # a vector's first nonzero entry fixes its degree
    graded_count = Counter(unknown_keys[pairs[0][0]][0] for pairs in kernel.vectors)
    # the commutant dimension, without building its basis fields
    dcomm = sum(kernel.dimension for _, kernel in _block_kernels(s, s.blocks()))
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


def _normalizer_solutions(s: EigenSpectrum, fD: PolyVectorField, D: int):
    """Known solutions (g, lambda) of [g, f] = lambda f mod degree > D, labelled, with
    g's terms keyed (j, m) and lambda's by its exponent rows.

    For each scalar monomial beta with |beta| <= D - 1, [beta f, f] = -X_f(beta) f,
    so (beta f truncated at D, -X_f beta truncated at D - 1) solves the system:
    f has no constant term, so the dropped terms only reach degrees above D.
    beta = 1 gives (f truncated at D, 0).  Each (C_k x, 0) solves it too.
    """
    known = {"(f truncated at D, 0)": fD.terms, **_linear_solutions(s)}
    for deg in range(1, D):
        for beta in compositions(deg, s.n):
            terms = {(j, tuple(a + b for a, b in zip(beta, m))): c
                     for (j, m), c in fD.terms.items() if deg + sum(m) <= D}
            lam = lie_derivative(fD, PolySeries.monomial(s.n, beta, trunc=D - 1))
            terms.update((m, -c) for m, c in lam.terms.items())
            known[f"(x^{beta} f, -X_f x^{beta})"] = terms
    return known


def _check_class_dimensions(s: EigenSpectrum, g_keys, lam_keys, kernel):
    """Certificate: the truncated normalizer kernel splits by semisimple class, and
    each class c != 0 holds as many basis vectors as scalar unknowns.

    f commutes with A_s, so [g, f] = lambda f is block diagonal by class: x^m e_j
    has class <m, lambda> - lambda_j, x^k has class <k, lambda>, both read in the
    spectrum's integer weights (`EigenSpectrum.weight_class`).  An element of
    class c != 0 has alpha = 0 and g - beta f commuting with A_s
    (`normalizer_reduce`), so it is (beta f, -X_f beta): the class-c vectors,
    counted at their free column, are as many as the scalar unknowns of class c.
    Class 0 is left unchecked.
    """
    classes = [s.weight_class(m, j) for j, m in g_keys] + [s.weight_class(k) for k in lam_keys]
    ng = len(g_keys)

    def name(c):
        # the class in the spectrum's rational coordinates, read off its first unknown
        t = classes.index(c)
        if t < ng:
            j, m = g_keys[t]
            coords = [a - b for a, b in zip(s.eigen_coords(m), s.eigen_coords(unit_row(s.n, j)))]
        else:
            coords = s.eigen_coords(lam_keys[t - ng])
        return f"class ({', '.join(map(str, coords))})"

    want = Counter(c for c in classes[ng:] if any(c))
    got = Counter()
    for pairs in kernel.vectors:
        c = classes[pairs[-1][0]]
        crossed = next((classes[t] for t, _ in pairs if classes[t] != c), None)
        if crossed is not None:
            raise CertificateFailure(
                f"a truncated normalizer basis vector crosses {name(c)} and {name(crossed)}"
            )
        if any(c):
            got[c] += 1
    for c in sorted(want.keys() | got.keys()):
        if got[c] != want[c]:
            raise CertificateFailure(
                f"the truncated normalizer basis has dimension {got[c]} in {name(c)},"
                f" not {want[c]}, the number of scalar unknowns of the class"
            )


def normalizer_truncated(s: EigenSpectrum, f: PolyVectorField, D: int) -> NormalizerResult:
    """Joint solve of [g, f] = lambda f mod degree > D.

    g ranges over all vector monomials of degree 1..D, lambda over scalar
    monomials of degree 0..D-1.  The linear part of f must be stored
    explicitly: unlike the centralizer case the unknowns are not confined
    to resonant monomials, so the semisimple part enters the equations as
    actual rational numbers.  Refuses up front, with a scope error, more than
    `NORMALIZER_UNKNOWN_LIMIT` unknowns: n (C(D + n, n) - 1) vector and
    C(D - 1 + n, n) scalar monomials.  Checks that the basis spans every
    solution of `_normalizer_solutions` (`_check_known_solutions`), and that each
    class c != 0 holds as many basis vectors as scalar unknowns
    (`_check_class_dimensions`).
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
    g_keys = [(j, m) for deg in range(1, D + 1) for j in range(s.n) for m in compositions(deg, s.n)]
    lam_keys = [m for deg in range(D) for m in compositions(deg, s.n)]
    system = CommutatorColumns(fD)
    columns = [system.bracket(j, m) for j, m in g_keys]
    columns += [system.scalar(m) for m in lam_keys]
    kernel = mat_kernel(RatMatrix(columns))
    ng = len(g_keys)
    # a vector key (j, m) never equals a scalar key, a row of n integers
    index = {key: t for t, key in enumerate(g_keys + lam_keys)}
    _check_known_solutions(_normalizer_solutions(s, fD, D), index, kernel, "truncated normalizer")
    _check_class_dimensions(s, g_keys, lam_keys, kernel)
    basis = [
        (
            PolyVectorField(s.n, {g_keys[t]: x for t, x in pairs if t < ng}, D),
            PolySeries(s.n, {lam_keys[t - ng]: x for t, x in pairs if t >= ng}, D - 1),
        )
        for pairs in kernel.vectors
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
    beta = PolySeries.zero(s.n, trunc=D - 1)
    alpha = lam.truncated(D - 1)
    for k in range(1, D):
        part = alpha.graded_part(k)
        groups: dict[Fraction, dict] = {}
        for m, c in part.terms.items():
            # q = 1 because the linear part is explicit: <m, lambda> is one rational
            groups.setdefault(s.eigen_coords(m)[0], {})[m] = c
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
    if not all(s.is_integral_monomial(m) for m in alpha.terms):
        raise CertificateFailure("alpha must lie in the kernel of X_{A_s}")
    if alpha.coefficient(tuple(0 for _ in range(s.n))) != 0:
        raise CertificateFailure("alpha(0) must vanish")
    h = (g - series_times_field(beta, f)).truncated(D)
    if not all(s.is_resonant(m, j) for j, m in h.terms):
        raise CertificateFailure("g - beta f must commute with the semisimple part")
    return beta, alpha
