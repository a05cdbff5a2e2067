"""Resonant multi-indices, exact degree bounds, and the degree ladders."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import mul

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    InfiniteResonance,
    InfiniteResonanceWithoutCap,
    ScopeError,
)
from .linalg import RatMatrix, frac, mat_kernel
from .spectrum import (
    EigenSpectrum,
    compositions,
    count_eigen_monomials,
    eigen_monomials,
    eigen_system,
    is_finite_linear_centralizer,
    unit_row,
)

RESONANCE_SCAN_LIMIT = 200_000
# column systems of the degree bound: 1.2 to 1.7 us each for q <= 2, more
# for larger q, on a 2-core Xeon under Python 3.11, so a refused bound
# would run over 1 s
DEGREE_BOUND_SYSTEM_LIMIT = 1_000_000
# degree up to which a ladder without a proven finite bound is scanned
LADDER_DEPTH = 12


def resonant_multiindices(s: EigenSpectrum, j: int, d: int):
    """All m with |m| = d and <m, lambda> = lambda_j, lex order (0-based j).

    The listing is the same for every j of one eigenvalue block; within
    nfkit only `resonances_by_component` calls this, once per block and d.
    """
    return eigen_monomials(s, unit_row(s.n, j), d)


def resonance_degree_bound(s: EigenSpectrum) -> int:
    """Largest possible |m| over all resonances; refuses an infinite resonance set."""
    if not is_finite_linear_centralizer(s):
        raise InfiniteResonance("resonance set is infinite; a degree bound does not exist")
    return lp_degree_bound(s)


def lp_degree_bound(s: EigenSpectrum) -> int:
    """`resonance_degree_bound` for a spectrum already known to be finite.

    Maximizes |m| over {m >= 0 : A m = t}, with [A | t] the integer rows of
    `eigen_system` for lambda_j, and returns max(1, floor of the maximum).
    A has rank q, and with a trivial zero-resonance monoid the region is
    bounded, so the maximum sits at a basic point: m = A_B^-1 t on a set B
    of q columns with A_B invertible, zero elsewhere.  Each column set reads
    A_B^-1 off `mat_kernel`, like every exact solve: in the kernel of
    [A_B | -I], A_B is singular exactly when the first free column lies in
    B, and otherwise vector k starts with column k of A_B^-1.  [A_B | -I] has
    rank q, so a nonsingular A_B must give exactly q vectors, at the free
    columns q..2q-1; any other kernel raises `CertificateFailure`.  A is the same
    for every eigenvalue block, so its integer numerators give each block's
    point from the block's target t (its first component).

    Refuses up front, with a scope error, more than `DEGREE_BOUND_SYSTEM_LIMIT`
    column systems: C(n, q) column sets times the eigenvalue blocks.
    """
    blocks = s.blocks()
    sets = comb(s.n, s.q)
    if sets * len(blocks) > DEGREE_BOUND_SYSTEM_LIMIT:
        raise ScopeError(
            f"degree bound solves C({s.n}, {s.q}) = {sets} column sets for {len(blocks)}"
            f" eigenvalue blocks, {sets * len(blocks)} systems, above the limit"
            f" {DEGREE_BOUND_SYSTEM_LIMIT}"
        )
    systems = [eigen_system(s, unit_row(s.n, block[0])) for block in blocks]
    coefficients = [row[:-1] for row in systems[0]]
    targets = [[row[-1] for row in rows] for rows in systems]
    columns = [dict(enumerate(col)) for col in zip(*coefficients)]
    units = [{k: -1} for k in range(s.q)]
    best = None  # (sum of numerators, denominator, columns, numerators, target)
    for cols in combinations(range(s.n), s.q):
        kernel = mat_kernel(RatMatrix([columns[c] for c in cols] + units))
        free = [sup[-1] for sup in kernel.supports]
        if free and free[0] < s.q:
            continue
        if free != list(range(s.q, 2 * s.q)):
            raise CertificateFailure(
                f"kernel of [A_B | -I] on columns {list(cols)} has free columns {free},"
                f" not {list(range(s.q, 2 * s.q))}"
            )
        inverse = [v[:s.q] for v in kernel.basis]
        den = lcm(*(x.denominator for v in inverse for x in v))
        # the rows of den A_B^-1 as integers, and their sum, whose product with t is den |x|
        rows = [[x.numerator * (den // x.denominator) for x in a] for a in zip(*inverse)]
        ones = [sum(col) for col in zip(*rows)]
        for t in targets:
            total = sum(map(mul, ones, t))
            if best is None or total * best[1] > best[0] * den:
                x = [sum(map(mul, row, t)) for row in rows]
                if min(x) >= 0:
                    best = (total, den, cols, x, t)
    if best is None:
        raise CertificateFailure("degree bound found no basic point, although m = e_j is feasible")
    total, den, cols, x, t = best
    if [sum(map(mul, (row[c] for c in cols), x)) for row in coefficients] != [tk * den for tk in t]:
        raise CertificateFailure(f"degree bound point {x}/{den} on columns {list(cols)}"
                                 f" misses the target {list(t)}")
    return max(1, total // den)


def resonances_by_component(s: EigenSpectrum, dmin: int, dmax: int):
    """Per component j, every resonant m with dmin <= |m| <= dmax, by degree, then lex.

    <m, lambda> = lambda_j depends on j only through lambda_j, so each
    eigenvalue block of `s.blocks()` is scanned once per degree, for its
    first component, and all its components share that tuple.  Refuses up
    front, with a scope error, a scan over more than `RESONANCE_SCAN_LIMIT`
    monomials in all: per block, the sum over d of C(d + n - 1, n - 1),
    which telescopes to C(dmax + n, n) - C(dmin - 1 + n, n).  Refuses too,
    before any listing, more than `RESONANCE_SCAN_LIMIT` pairs (j, m) in all,
    since every caller builds something for each pair; they number at most
    n per_block, so only above that are the blocks counted.
    """
    blocks = s.blocks()
    per_block = comb(dmax + s.n, s.n) - comb(dmin - 1 + s.n, s.n)
    if len(blocks) * per_block > RESONANCE_SCAN_LIMIT:
        raise ScopeError(
            f"resonance scan up to degree {dmax} tests {per_block} monomials for each of"
            f" {len(blocks)} eigenvalue blocks, {len(blocks) * per_block} in all,"
            f" above the limit {RESONANCE_SCAN_LIMIT}"
        )
    if s.n * per_block > RESONANCE_SCAN_LIMIT:
        pairs = sum(
            len(b) * count_eigen_monomials(s, unit_row(s.n, b[0]), dmin, dmax) for b in blocks
        )
        if pairs > RESONANCE_SCAN_LIMIT:
            raise ScopeError(
                f"resonance listing up to degree {dmax} has {pairs} resonant pairs (j, m)"
                f" over {s.n} components, above the limit {RESONANCE_SCAN_LIMIT}"
            )
    by_component = [()] * s.n
    for block in blocks:
        listing = tuple(
            m for d in range(dmin, dmax + 1) for m in resonant_multiindices(s, block[0], d)
        )
        for j in block:
            by_component[j] = listing
    return tuple(by_component)


@dataclass(frozen=True)
class ResonanceSet:
    """Per-component resonant exponents with |m| >= 2, plus enumeration limits."""

    n: int
    by_component: tuple[tuple[tuple[int, ...], ...], ...]
    finite: bool
    degree_bound: int | None
    cap: int | None

    @property
    def total(self) -> int:
        return sum(len(r) for r in self.by_component)

    def pairs(self):
        for j, rj in enumerate(self.by_component):
            for m in rj:
                yield (j, m)


def resonance_set(s: EigenSpectrum, cap: int | None = None) -> ResonanceSet:
    """Full listing up to the exact bound (finite case) or up to ``cap``."""
    if cap is not None and cap < 2:
        raise DimensionMismatch("max_degree must be at least 2")
    if is_finite_linear_centralizer(s):
        return finite_resonance_set(s)
    if cap is None:
        raise InfiniteResonanceWithoutCap("resonance set is infinite; pass an explicit degree cap")
    by_component = resonances_by_component(s, 2, cap)
    return ResonanceSet(n=s.n, by_component=by_component, finite=False, degree_bound=None, cap=cap)


def finite_resonance_set(s: EigenSpectrum) -> ResonanceSet:
    """`resonance_set` for a spectrum already known to be finite."""
    bound = lp_degree_bound(s)
    by_component = resonances_by_component(s, 2, bound)
    return ResonanceSet(n=s.n, by_component=by_component, finite=True, degree_bound=bound, cap=None)


@dataclass(frozen=True)
class LadderSolution:
    s: int
    k: int
    kvec: tuple[int, ...]


@dataclass(frozen=True)
class SemiInvariantLadder:
    """Feasible (s, k, k_1..k_r) with sum(k_i) = s - k and k + sum(k_i mu_i) = value."""

    solutions: tuple[LadderSolution, ...]
    complete: bool
    bound: int


def semiinvariant_degree_ladder(mu, cofactor_value) -> SemiInvariantLadder:
    """Degree ladder for homogeneous semi-invariants of a quadratic field.

    ``mu`` are the exact eigenvalues of the linearization at a fixed point c
    with p(c) = c, ``cofactor_value`` the cofactor evaluated at c.

    Refuses up front, with a scope error, a scan over more than
    `RESONANCE_SCAN_LIMIT` compositions: for each s the (k, k_1..k_r) are
    the C(s + r, r) compositions of s into r + 1 parts, and the sum over
    s = 2..bound telescopes to C(bound + r + 1, r + 1) - r - 2.
    """
    mu = tuple(frac(x) for x in mu)
    value = frac(cofactor_value)
    # all mu_i > 0 makes the ladder finite: s * min(1, min mu) <= value
    complete = all(m > 0 for m in mu)
    if not complete:
        bound = LADDER_DEPTH
    elif value <= 0:
        bound = 1  # no s >= 2 feasible at all
    else:
        bound = int((value / min([Fraction(1), *mu])).__floor__())
    sols = []
    r = len(mu)
    count = comb(bound + r + 1, r + 1) - r - 2
    if count > RESONANCE_SCAN_LIMIT:
        raise ScopeError(
            f"degree ladder up to degree {bound} tests {count} compositions,"
            f" above the limit {RESONANCE_SCAN_LIMIT}"
        )
    for s in range(2, bound + 1):
        for k in range(0, s + 1):
            for kvec in compositions(s - k, r):
                if k + sum((kvec[i] * mu[i] for i in range(r)), Fraction(0)) == value:
                    sols.append(LadderSolution(s=s, k=k, kvec=kvec))
    return SemiInvariantLadder(solutions=tuple(sols), complete=complete, bound=bound)


@dataclass(frozen=True)
class CommutingLadder:
    """Degrees s > 1 admitting sum(l_i) + l = s, sum(l_i mu_i) + l = mu_k."""

    degrees: tuple[int, ...]
    complete: bool
    bound: int


def commuting_degree_ladder(mu) -> CommutingLadder:
    """Union over k of the semi-invariant ladders at value mu_k."""
    mu = tuple(frac(x) for x in mu)
    ladders = [semiinvariant_degree_ladder(mu, value) for value in mu]
    return CommutingLadder(
        degrees=tuple(sorted({sol.s for ladder in ladders for sol in ladder.solutions})),
        complete=all(ladder.complete for ladder in ladders),
        bound=max(ladder.bound for ladder in ladders),
    )
