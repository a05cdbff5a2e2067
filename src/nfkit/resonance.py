"""Resonant multi-indices, exact degree bounds, and the degree ladders."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfiniteResonance, InfiniteResonanceWithoutCap
from .linalg import OPTIMAL, INFEASIBLE, RatMatrix, frac, lp_max
from .spectrum import EigenSpectrum, is_finite_linear_centralizer


def compositions(total: int, parts: int):
    """All rows of ``parts`` nonnegative integers with the given sum, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def resonant_multiindices(s: EigenSpectrum, j: int, d: int):
    """All m with |m| = d and <m, lambda> = lambda_j, lex order (0-based j)."""
    target = s.lam[j]
    out = []
    for m in compositions(d, s.n):
        if s.eigen_coords(m) == target:
            out.append(m)
    return out


def resonance_degree_bound(s: EigenSpectrum) -> int:
    """Largest possible |m| over all resonances, from q exact LPs per component.

    Only meaningful when the zero-resonance monoid is trivial; the feasible
    sets {m >= 0 : Lambda^T m = lambda_j} then have trivial recession cone,
    so each LP is bounded.
    """
    if not is_finite_linear_centralizer(s):
        raise InfiniteResonance("resonance set is infinite; a degree bound does not exist")
    rows = [[s.lam[i][k] for i in range(s.n)] for k in range(s.q)]
    A = RatMatrix(rows)
    ones = [Fraction(1)] * s.n
    best = 1
    for j in range(s.n):
        res = lp_max(ones, A, [s.lam[j][k] for k in range(s.q)])
        if res.status == INFEASIBLE:
            continue
        assert res.status == OPTIMAL, "finite monoid forces a bounded LP"
        best = max(best, int(res.value.__floor__()))
    return best


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

    def contains(self, j, m) -> bool:
        return m in self.by_component[j]

    def pairs(self):
        for j, rj in enumerate(self.by_component):
            for m in rj:
                yield (j, m)


def resonance_set(s: EigenSpectrum, cap: int | None = None) -> ResonanceSet:
    """Full listing up to the exact bound (finite case) or up to ``cap``."""
    finite = is_finite_linear_centralizer(s)
    if finite:
        bound = resonance_degree_bound(s)
        limit = bound
    else:
        if cap is None:
            raise InfiniteResonanceWithoutCap(
                "resonance set is infinite; pass an explicit degree cap"
            )
        bound = None
        limit = cap
    by_component = []
    for j in range(s.n):
        rj = []
        for d in range(2, limit + 1):
            rj.extend(resonant_multiindices(s, j, d))
        by_component.append(tuple(rj))
    return ResonanceSet(
        n=s.n,
        by_component=tuple(by_component),
        finite=finite,
        degree_bound=bound,
        cap=None if finite else cap,
    )


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


def _positive_bound(mu, value, cap):
    """When all mu_i > 0 the ladder is finite: s*min(1, min mu) <= value."""
    if all(m > 0 for m in mu):
        a = min([Fraction(1)] + list(mu))
        if value <= 0:
            return 1, True  # no s >= 2 feasible at all
        return int((value / a).__floor__()), True
    return cap, False


def semiinvariant_degree_ladder(mu, cofactor_value, cap=8) -> SemiInvariantLadder:
    """Degree ladder for homogeneous semi-invariants of a quadratic field.

    ``mu`` are the exact eigenvalues of the linearization at a fixed point c
    with p(c) = c, ``cofactor_value`` the cofactor evaluated at c.
    """
    mu = tuple(frac(x) for x in mu)
    value = frac(cofactor_value)
    bound, complete = _positive_bound(mu, value, cap)
    bound = min(bound, cap) if not complete else bound
    sols = []
    r = len(mu)
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


def commuting_degree_ladder(mu, cap=8) -> CommutingLadder:
    mu = tuple(frac(x) for x in mu)
    r = len(mu)
    if all(m > 0 for m in mu):
        # s*min(1, min mu) <= sum(l_i mu_i) + l = mu_k <= max mu
        a = min([Fraction(1)] + list(mu))
        bound = int((max(mu) / a).__floor__())
        complete = True
    else:
        bound = cap
        complete = False
    bound = min(bound, cap) if not complete else bound
    found = set()
    for s in range(2, bound + 1):
        hit = False
        for k in range(r):
            for l in range(0, s + 1):
                for lvec in compositions(s - l, r):
                    if l + sum((lvec[i] * mu[i] for i in range(r)), Fraction(0)) == mu[k]:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                break
        if hit:
            found.add(s)
    return CommutingLadder(degrees=tuple(sorted(found)), complete=complete, bound=bound)
