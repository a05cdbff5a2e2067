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

from .errors import DimensionMismatch, NotPDNF, RewriteFailure, WrongShape
from .fields import (
    INF,
    PolySeries,
    PolyVectorField,
    deviation_part,
    divergence,
    is_pdnf,
    lie_derivative,
)
from .invariants import (
    InvariantAlgebra,
    ReducedField,
    _rewrite_in_generators,
    substitute_generators,
)
from .linalg import RatMatrix, mat_kernel
from .resonance import SemiInvariantLadder, compositions, semiinvariant_degree_ladder
from .spectrum import EigenSpectrum


def multiplier_support(s: EigenSpectrum, d: int):
    """All m with |m| = d and <m, lambda> = sum of eigenvalues, lex order."""
    target = s.divergence_coords()
    return [m for m in compositions(d, s.n) if s.eigen_coords(m) == target]


def divergence_integral_check(s: EigenSpectrum, f: PolyVectorField) -> bool:
    """X_{A_s}(div f) = 0: every monomial of div f has eigenvalue row zero."""
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    ftilde, _ = deviation_part(s, f)
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


def _axis_fixed_point(dev: PolyVectorField):
    """A point c = e_i / theta with f_2(c) = c, from the quadratic part; None if no axis works."""
    n = dev.n
    f2 = dev.graded_part(2)
    for i in range(n):
        m2 = tuple(2 if t == i else 0 for t in range(n))
        theta = f2.coefficient(i, m2)
        if theta == 0:
            continue
        clean = all(
            f2.coefficient(j, m2) == 0 for j in range(n) if j != i
        )
        if clean:
            return i, theta
    return None


def _jacobian_eigenvalues(dev: PolyVectorField, axis: int, theta: Fraction):
    """Eigenvalues of Df_2(c) at c = e_axis / theta when that matrix is triangular."""
    n = dev.n
    f2 = dev.graded_part(2)
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
    s: EigenSpectrum,
    f: PolyVectorField,
    r_min: int,
    r_max: int,
    D: int,
    ladder_cap: int = 12,
) -> MultiplierLadder:
    """Search for multipliers with lowest order r in [r_min, r_max], truncated at D.

    For each candidate r the unknowns are the support coefficients of
    phi_r..phi_D and the equations the graded components of
    X_f(phi) - div f * phi; the degree sweep reports the first degree at
    which the lowest-order block is forced to zero.
    """
    if not is_pdnf(s, f):
        raise NotPDNF("field is not in normal form for this spectrum")
    if not (1 <= r_min <= r_max <= D):
        raise DimensionMismatch("need 1 <= r_min <= r_max <= D")
    if f.trunc < D:
        raise DimensionMismatch(f"field truncation {f.trunc} is below D = {D}")
    dev, _ = deviation_part(s, f)
    div_dev = divergence(dev)
    support = {d: multiplier_support(s, d) for d in range(1, D + 1)}
    mindeg = dev.min_degree() or 2

    entries = []
    for r in range(r_min, r_max + 1):
        unknowns = []
        for d in range(r, D + 1):
            for m in support[d]:
                unknowns.append((d, m))
        columns = []
        for d, m in unknowns:
            mono = PolySeries.monomial(s.n, m)
            expr = lie_derivative(dev, mono) - div_dev * mono
            columns.append(expr)
        status = SOLVED
        failed = None
        multiplier = None
        soldim = 0
        lowdim = 0
        if not support.get(r):
            entries.append(LadderEntry(r=r, status=INCONSISTENT, failed_degree=r))
            continue
        for sweep in range(r, D + 1):
            active = [t for t, (d, _m) in enumerate(unknowns) if d <= sweep]
            maxrow = sweep + mindeg - 1
            if f.trunc != INF:
                # rows past the field budget would miss unknown field terms
                maxrow = min(maxrow, int(f.trunc) + r - 1)
            system = RatMatrix.from_columns(
                [{v: c for v, c in columns[t].terms.items() if sum(v) <= maxrow} for t in active],
                len(active),
            )
            kernel = mat_kernel(system).basis
            low_cols = [i for i, t in enumerate(active) if unknowns[t][0] == r]
            low_rank_vecs = [vec for vec in kernel if any(vec[i] != 0 for i in low_cols)]
            if not low_rank_vecs:
                status = INCONSISTENT
                failed = sweep
                break
            if sweep == D:
                soldim = len(kernel)
                proj = RatMatrix([[vec[i] for i in low_cols] for vec in kernel])
                lowdim = proj.cols - mat_kernel(proj).dimension
                vec = low_rank_vecs[0]
                lead = next(vec[i] for i in low_cols if vec[i] != 0)
                multiplier = PolySeries(
                    s.n,
                    {
                        unknowns[active[i]][1]: vec[i] / lead
                        for i in range(len(active))
                        if vec[i] != 0
                    },
                    trunc=D,
                )
        if status == SOLVED:
            entries.append(
                LadderEntry(
                    r=r,
                    status=SOLVED,
                    multiplier=multiplier,
                    solution_dimension=soldim,
                    lowest_order_dimension=lowdim,
                )
            )
        else:
            entries.append(LadderEntry(r=r, status=INCONSISTENT, failed_degree=failed))

    semiinv = None
    note = None
    axis = _axis_fixed_point(dev)
    if axis is None:
        note = "no axis fixed point of the quadratic part; degree ladder not attached"
    else:
        i, theta = axis
        mu = _jacobian_eigenvalues(dev, i, theta)
        if mu is None:
            note = "quadratic Jacobian at the fixed point is not triangular; ladder not attached"
        else:
            point = [Fraction(0)] * s.n
            point[i] = 1 / theta
            cofactor = divergence(dev.graded_part(2)).eval_at(point)
            semiinv = semiinvariant_degree_ladder(mu, cofactor, ladder_cap)
            if semiinv.complete and semiinv.bound <= r_max:
                note = f"ladder complete: no lowest order beyond {semiinv.bound} is possible"
            elif semiinv.complete:
                note = (
                    f"ladder complete with bound {semiinv.bound}: "
                    f"orders in ({r_max}, {semiinv.bound}] remain unexamined"
                )
            else:
                note = f"ladder only complete up to cap {semiinv.bound}"
    target = s.divergence_coords()
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
    data = {}
    for m, c in series.terms.items():
        try:
            k = _rewrite_in_generators(inv, m)
        except RewriteFailure as exc:
            raise WrongShape(f"factor monomial {m} is not invariant: {exc}") from exc
        data[k] = data.get(k, Fraction(0)) + c
    return PolySeries(inv.r, data, trunc=INF)


def _verify_multiplier(field: PolyVectorField, phi: PolySeries, budget):
    residual = lie_derivative(field, phi) - divergence(field) * phi
    if budget == INF:
        assert residual.is_zero(), "multiplier property failed exactly"
    else:
        assert residual.is_zero_mod(budget), "multiplier property failed within budget"


def transfer_reduced(
    inv: InvariantAlgebra,
    direction: str,
    candidate: PolySeries,
    ambient_field: PolyVectorField | None = None,
    reduced_field: PolyVectorField | None = None,
    check_budget=None,
) -> PolySeries:
    """Carry sigma * rho(invariants) across the reduction, in either direction.

    Ambient candidates must be divisible by x_1*...*x_n with an invariant
    cofactor; reduced candidates by y_1*...*y_r.  When the corresponding
    field is supplied the multiplier property of the image is re-verified.
    """
    n = len(inv.generators[0]) if inv.generators else 0
    if direction == AMBIENT_TO_REDUCED:
        rho = _rewrite_series(inv, _divide_by_all_coordinates(candidate))
        sigma_red = PolySeries.monomial(inv.r, tuple(1 for _ in range(inv.r)))
        out = sigma_red * rho
        if reduced_field is not None:
            _verify_multiplier(
                reduced_field, out, check_budget if check_budget is not None else reduced_field.trunc
            )
        return out
    if direction == REDUCED_TO_AMBIENT:
        rho_hat = _divide_by_all_coordinates(candidate)
        rho = substitute_generators(rho_hat, inv, n)
        sigma = PolySeries.monomial(n, tuple(1 for _ in range(n)))
        out = sigma * rho
        if ambient_field is not None:
            _verify_multiplier(
                ambient_field, out, check_budget if check_budget is not None else ambient_field.trunc
            )
        return out
    raise WrongShape(f"unknown direction {direction!r}")


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
    for i in range(r):
        for j in range(i + 1, r):
            columns[i][(i, j)] = nu[i][j] - nu[j][j]
            columns[j][(i, j)] = nu[j][i] - nu[i][i]
    system = RatMatrix.from_columns(columns, r)
    kernel = mat_kernel(system).basis
    rows = tuple(system)
    if r >= 3 and not kernel:
        return ObstructionResult(NO_MULTIPLIER, None, rows)
    if r == 2 and len(kernel) == 1:
        return ObstructionResult(UNIQUE_CANDIDATE, kernel[0], rows)
    return ObstructionResult(UNDECIDED, None, rows)
