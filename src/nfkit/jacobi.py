"""Formal inverse Jacobi multipliers: support, degree-by-degree solver, transfer.

A multiplier phi satisfies X_f(phi) = div f * phi.  For a normal form the
support of phi is pinned to the monomials whose eigenvalue row equals the
divergence of the semisimple part, on which the semisimple contribution to
the defining equation cancels identically; what remains is an exact linear
system in the coefficients, graded by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CertificateFailure, DimensionMismatch, RewriteFailure, ScopeError, WrongShape
from .fields import (
    INF,
    CommutatorColumns,
    PolySeries,
    PolyVectorField,
    divergence,
    lie_derivative,
    normal_form_deviation,
)
from .invariants import (
    InvariantAlgebra,
    ReducedField,
    _rewrite_in_generators,
    substitute_generators,
)
from .linalg import RatMatrix, dense_vector, mat_kernel, mat_rank
from .resonance import RESONANCE_SCAN_LIMIT, SemiInvariantLadder, semiinvariant_degree_ladder
from .spectrum import EigenSpectrum, count_eigen_monomials, eigen_monomials, unit_row

# unknowns of the largest multiplier sweep: 287 ((1, -1, 0), D = 32, r = 2) take 5-7.5 s on
# a 2-core Xeon under Python 3.11 (119, D = 20: 0.3 s); the time grows about cubically
MULTIPLIER_UNKNOWN_LIMIT = 300


def multiplier_support(s: EigenSpectrum, d: int):
    """All m with |m| = d and <m, lambda> = sum of eigenvalues, lex order."""
    return eigen_monomials(s, (1,) * s.n, d)


def divergence_integral_check(s: EigenSpectrum, f: PolyVectorField) -> bool:
    """X_{A_s}(div f) = 0: every monomial of div f has eigenvalue row zero."""
    ftilde, _ = normal_form_deviation(s, f)
    div = divergence(ftilde)
    return all(s.is_integral_monomial(v) for v in div.terms)


SOLVED = "solved"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LadderEntry:
    r: int
    status: str
    multiplier: PolySeries | None = None
    failed_degree: int | None = None
    solution_dimension: int = 0
    lowest_order_dimension: int = 0


@dataclass(frozen=True)
class MultiplierLadder:
    D: int
    entries: tuple[LadderEntry, ...]
    support_note: str
    semiinvariant_ladder: SemiInvariantLadder | None = None
    ladder_note: str | None = None

    def entry(self, r) -> LadderEntry:
        for e in self.entries:
            if e.r == r:
                return e
        raise KeyError(r)


def _axis_fixed_point(f2: PolyVectorField):
    """A point c = e_i / theta with f_2(c) = c, from the quadratic part; None if no axis works."""
    n = f2.n
    for i in range(n):
        m2 = tuple(2 if t == i else 0 for t in range(n))
        theta = f2.coefficient(i, m2)
        if theta != 0 and all(f2.coefficient(j, m2) == 0 for j in range(n) if j != i):
            return i, theta
    return None


def _jacobian_eigenvalues(f2: PolyVectorField, axis: int, theta: Fraction):
    """Eigenvalues of Df_2(c) at c = e_axis / theta when that matrix is triangular."""
    n = f2.n
    mat = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m = tuple((1 if t == b else 0) + (1 if t == axis else 0) for t in range(n))
            c = f2.coefficient(a, m)
            if c != 0:
                mult = 2 if b == axis else 1
                mat[a][b] = mult * c / theta
    upper = all(mat[i][j] == 0 for i in range(n) for j in range(i))
    lower = all(mat[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    if not (upper or lower):
        return None
    return tuple(mat[i][i] for i in range(n))


def solve_multiplier(
    s: EigenSpectrum, f: PolyVectorField, r_min: int, r_max: int, D: int
) -> MultiplierLadder:
    """Search for multipliers with lowest order r in [r_min, r_max], truncated at D.

    For each candidate r the unknowns are the support coefficients of
    phi_r..phi_D, ordered by degree, and the equations the graded
    components of X_f(phi) - div f * phi; the degree sweep reports the
    first degree at which the lowest-order block is forced to zero.  Since
    the unknowns are ordered by degree, the unknowns of a sweep are a
    prefix and the lowest-order block is its first len(support[r]) columns.

    Refuses up front, with a scope error, a support scan over more than
    `RESONANCE_SCAN_LIMIT` monomials: the sum over d = 1..D of
    C(d + n - 1, n - 1), which telescopes to C(D + n, n) - 1; likewise, before any
    listing, a largest sweep (r = r_min) of more than `MULTIPLIER_UNKNOWN_LIMIT` unknowns.
    """
    dev, _ = normal_form_deviation(s, f)
    if not (1 <= r_min <= r_max <= D):
        raise DimensionMismatch("need 1 <= r_min <= r_max <= D")
    if f.trunc < D:
        raise DimensionMismatch(f"field truncation {f.trunc} is below D = {D}")
    count = comb(D + s.n, s.n) - 1
    if count > RESONANCE_SCAN_LIMIT:
        raise ScopeError(
            f"multiplier support scan up to degree {D} tests {count} monomials,"
            f" above the limit {RESONANCE_SCAN_LIMIT}"
        )
    if comb(D + s.n, s.n) - comb(r_min - 1 + s.n, s.n) > MULTIPLIER_UNKNOWN_LIMIT:
        unknowns = count_eigen_monomials(s, (1,) * s.n, r_min, D)
        if unknowns > MULTIPLIER_UNKNOWN_LIMIT:
            raise ScopeError(
                f"multiplier sweep from order {r_min} up to degree {D} has {unknowns}"
                f" unknowns, above the limit {MULTIPLIER_UNKNOWN_LIMIT}"
            )
    div_dev = divergence(dev)
    support = {d: multiplier_support(s, d) for d in range(1, D + 1)}
    mindeg = dev.min_degree() or 2
    # L (X_dev(x^m) - div dev * x^m) does not depend on r: one column per (d, m)
    system = CommutatorColumns(dev, div_dev.trunc)
    column_of = {(d, m): system.multiplier(m) for d in range(r_min, D + 1) for m in support[d]}

    entries = []
    for r in range(r_min, r_max + 1):
        low = len(support[r])
        if not low:
            entries.append(LadderEntry(r=r, status=INCONSISTENT, failed_degree=r))
            continue
        unknowns = [(m, column_of[(d, m)]) for d in range(r, D + 1) for m in support[d]]
        active = 0
        for sweep in range(r, D + 1):
            active += len(support[sweep])
            maxrow = sweep + mindeg - 1
            if f.trunc != INF:
                # rows past the field budget would miss unknown field terms
                maxrow = min(maxrow, int(f.trunc) + r - 1)
            kernel = mat_kernel(RatMatrix(
                [{v: c for v, c in col.items() if sum(v) <= maxrow}
                 for _m, col in unknowns[:active]]
            ))
            # the first vector with a nonzero entry in the lowest-order block
            first = next((pairs for pairs in kernel.vectors if pairs[0][0] < low), None)
            if first is None:
                entries.append(LadderEntry(r=r, status=INCONSISTENT, failed_degree=sweep))
                break
        else:
            lead = first[0][1]
            phi = {unknowns[t][0]: x / lead for t, x in first}
            # the kernel vectors cut to the lowest-order block, as the columns of their transpose
            lowest = [{t: x for t, x in pairs if t < low} for pairs in kernel.vectors]
            entries.append(LadderEntry(
                r=r,
                status=SOLVED,
                multiplier=PolySeries(s.n, phi, trunc=D),
                solution_dimension=kernel.dimension,
                lowest_order_dimension=mat_rank(RatMatrix(lowest)),
            ))

    semiinv = None
    f2 = dev.graded_part(2)
    axis = _axis_fixed_point(f2)
    if axis is None:
        note = "no axis fixed point of the quadratic part; degree ladder not attached"
    else:
        i, theta = axis
        mu = _jacobian_eigenvalues(f2, i, theta)
        if mu is None:
            note = "quadratic Jacobian at the fixed point is not triangular; ladder not attached"
        else:
            # div f_2 is linear and equals the degree-1 part of div dev, so its
            # value at e_i / theta is the x_i coefficient of div dev over theta
            cofactor = div_dev.coefficient(unit_row(s.n, i)) / theta
            semiinv = semiinvariant_degree_ladder(mu, cofactor)
            if semiinv.complete and semiinv.bound <= r_max:
                note = f"ladder complete: no lowest order beyond {semiinv.bound} is possible"
            elif semiinv.complete:
                note = (
                    f"ladder complete with bound {semiinv.bound}: "
                    f"orders in ({r_max}, {semiinv.bound}] remain unexamined"
                )
            else:
                note = f"ladder only complete up to cap {semiinv.bound}"
    target = s.eigen_coords((1,) * s.n)
    support_note = (
        "support: monomials with eigenvalue row equal to div A_s = "
        + "(" + ", ".join(str(t) for t in target) + ")"
    )
    return MultiplierLadder(
        D=D,
        entries=tuple(entries),
        support_note=support_note,
        semiinvariant_ladder=semiinv,
        ladder_note=note,
    )


AMBIENT_TO_REDUCED = "ambient-to-reduced"
REDUCED_TO_AMBIENT = "reduced-to-ambient"


def _divide_by_all_coordinates(series: PolySeries) -> PolySeries:
    data = {}
    for m, c in series.terms.items():
        if any(x < 1 for x in m):
            raise WrongShape(f"monomial {m} is not divisible by x_1*...*x_n")
        data[tuple(x - 1 for x in m)] = c
    t = series.trunc if series.trunc == INF else max(series.trunc - series.n, 0)
    return PolySeries(series.n, data, t)


def _rewrite_series(inv: InvariantAlgebra, series: PolySeries) -> PolySeries:
    try:
        ks = _rewrite_in_generators(inv, list(series.terms))
    except RewriteFailure as exc:
        raise WrongShape(f"factor monomial {exc.row} is not invariant: {exc}") from exc
    data = {}
    for k, c in zip(ks, series.terms.values()):
        data[k] = data.get(k, Fraction(0)) + c
    return PolySeries(inv.r, data, trunc=INF)


def _verify_multiplier(field: PolyVectorField, phi: PolySeries):
    # phi carries x_1...x_n, so div f, complete through the budget T - 1, times phi is
    # complete through T
    div = PolySeries(field.n, divergence(field).terms, field.trunc)
    residual = lie_derivative(field, phi) - div * phi
    # with budget inf, is_zero_mod asks for an exact zero
    if not residual.is_zero_mod(field.trunc):
        raise CertificateFailure(f"multiplier property failed up to degree {field.trunc}")


def transfer_reduced(
    inv: InvariantAlgebra,
    direction: str,
    candidate: PolySeries,
    ambient_field: PolyVectorField | None = None,
    reduced_field: PolyVectorField | None = None,
) -> PolySeries:
    """Carry sigma * rho(invariants) across the reduction, in either direction.

    Ambient candidates must be divisible by x_1*...*x_n with an invariant
    cofactor; reduced candidates by y_1*...*y_r.  Both directions divide by
    the coordinate product, map the cofactor across and multiply by the
    coordinate product on the other side.  When the field of the target
    side is supplied the multiplier property of the image is re-verified.
    """
    if direction not in (AMBIENT_TO_REDUCED, REDUCED_TO_AMBIENT):
        raise WrongShape(f"unknown direction {direction!r}")
    rho = _divide_by_all_coordinates(candidate)
    if direction == AMBIENT_TO_REDUCED:
        size, rho, field = inv.r, _rewrite_series(inv, rho), reduced_field
    else:
        size = len(inv.generators[0]) if inv.generators else 0
        rho, field = substitute_generators(rho, inv, size), ambient_field
    out = PolySeries.monomial(size, (1,) * size) * rho
    if field is not None:
        _verify_multiplier(field, out)
    return out


NO_MULTIPLIER = "no-multiplier"
UNIQUE_CANDIDATE = "unique-candidate"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class ObstructionResult:
    status: str
    alpha: tuple[Fraction, ...] | None
    system: tuple[tuple[Fraction, ...], ...]


def reduced_multiplier_obstruction(red: ReducedField) -> ObstructionResult:
    """The r(r-1)/2 linear conditions mu_ij a_i + mu_ji a_j = 0 on a linear cofactor.

    mu_ij = nu_ij - nu_jj.  Trivial kernel with r >= 3 rules out a
    multiplier for the quadratic part; a line with r = 2 pins the unique
    candidate sigma * (a_1 y_1 + a_2 y_2).
    """
    r = red.r
    nu = red.nu
    columns = [{} for _ in range(r)]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    for i, j in pairs:
        columns[i][(i, j)] = nu[i][j] - nu[j][j]
        columns[j][(i, j)] = nu[j][i] - nu[i][i]
    kernel = mat_kernel(RatMatrix(columns)).vectors
    rows = tuple(tuple(Fraction(col.get(key, 0)) for col in columns) for key in pairs)
    if r >= 3 and not kernel:
        return ObstructionResult(NO_MULTIPLIER, None, rows)
    if r == 2 and len(kernel) == 1:
        return ObstructionResult(UNIQUE_CANDIDATE, dense_vector(kernel[0], r), rows)
    return ObstructionResult(UNDECIDED, None, rows)
