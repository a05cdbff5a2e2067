"""Exact encoding of the linear part and the arithmetic of its eigenvalues.

Eigenvalues are never materialized as numbers.  Each eigenvalue is a row of
rational coordinates over an implicit Q-basis of the span of all
eigenvalues, so every resonance question becomes componentwise rational
arithmetic.  On top of that sit the Hilbert basis of the zero-resonance
monoid (computed by Contejean-Devie completion), the finiteness and
positivity tests, the U/W index splitting, the integer diagonal matrices
C_1..C_q, the least-witness search behind the module checks (a shortest
path over a proven finite window of partial sums), and the dimension-3
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    GcdNotOne,
    NilpotentViolatesCommutation,
    RankMismatch,
    ScopeError,
    SearchCapReached,
)
from .linalg import frac, pivot_columns

# completion work (units of `minimal_nonneg_solutions`): 12 to 15 M units per
# second on large searches on a 2-core Xeon under Python 3.11 (about 5 M on
# small ones, where set-up dominates), so a refused search runs 0.26-0.37 s
COMPLETION_WORK_LIMIT = 4_000_000
WITNESS_WINDOW_LIMIT = 1_000_000


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


def unit_row(n: int, j: int) -> tuple[int, ...]:
    """Exponent row of x_j, the monomial that names lambda_j."""
    return tuple(1 if t == j else 0 for t in range(n))


@dataclass(frozen=True)
class EigenSpectrum:
    """Semisimple part as Q-coordinate rows plus a strictly upper nilpotent part.

    ``lam[i]`` holds the q coordinates of the i-th eigenvalue; ``nilpotent``
    holds the entries (i, j, c), i < j, only between equal eigenvalue rows.
    Other modules name an eigenvalue by a monomial (x_j for lambda_j,
    x_1...x_n for the divergence, 1 for zero) and ask the spectrum.

    ``weights[k]`` is column k of ``lam`` scaled by the lcm of its
    denominators: <m, lambda> has coordinate k zero exactly when
    sum_i m_i weights[k][i] is, so integer questions never build a Fraction.
    """

    n: int
    q: int
    lam: tuple[tuple[Fraction, ...], ...]
    nilpotent: tuple[tuple[int, int, Fraction], ...] = field(default=())
    weights: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = []
        for k in range(self.q):
            column = [row[k] for row in self.lam]
            mult = lcm(*(x.denominator for x in column))
            weights.append(tuple(x.numerator * (mult // x.denominator) for x in column))
        object.__setattr__(self, "weights", tuple(weights))

    def eigen_coords(self, m) -> tuple[Fraction, ...]:
        """<m, lambda> as a q-coordinate row."""
        return tuple(
            sum((m[i] * self.lam[i][k] for i in range(self.n)), Fraction(0))
            for k in range(self.q)
        )

    def is_resonant(self, m, j) -> bool:
        """<m, lambda> = lambda_j, checked in all q coordinates."""
        return all(sum(map(mul, m, w)) == w[j] for w in self.weights)

    def weight_class(self, m, j=None) -> tuple[int, ...]:
        """The semisimple class <m, lambda> - lambda_j of x^m e_j, or <m, lambda> of
        x^m when j is None, as integer weight sums: equal classes give equal rows."""
        if j is None:
            return tuple(sum(map(mul, m, w)) for w in self.weights)
        return tuple(sum(map(mul, m, w)) - w[j] for w in self.weights)

    def is_integral_monomial(self, m) -> bool:
        """<m, lambda> = 0, i.e. x^m is a first integral of the linear flow."""
        return not any(sum(map(mul, m, w)) for w in self.weights)

    def has_nilpotent(self) -> bool:
        return bool(self.nilpotent)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Index groups with equal eigenvalues, in order of first appearance."""
        groups: dict[tuple[Fraction, ...], list[int]] = {}
        for i, row in enumerate(self.lam):
            groups.setdefault(row, []).append(i)
        return tuple(tuple(g) for g in groups.values())

    def rational_eigenvalues(self) -> tuple[Fraction, ...] | None:
        """The eigenvalues as rationals when q = 1 (basis value 1), else None."""
        return tuple(row[0] for row in self.lam) if self.q == 1 else None


def build_spectrum(n, q, lambda_rows, nilpotent_entries=(), index_base=0) -> EigenSpectrum:
    """Validated constructor; indices in ``nilpotent_entries`` count from ``index_base``
    (0 in the Python API, 1 in files), and errors name the entries as given."""
    if type(n) is not int or type(q) is not int:
        raise DimensionMismatch(f"n and q must be integers, got n = {n!r}, q = {q!r}")
    if n < 1:
        raise DimensionMismatch(f"a spectrum needs n >= 1, got n = {n}")
    rows = tuple(tuple(frac(x) for x in row) for row in lambda_rows)
    if len(rows) != n or any(len(r) != q for r in rows):
        raise DimensionMismatch(f"lambda must be {n}x{q}")
    s = EigenSpectrum(n=n, q=q, lam=rows)
    # scaling the columns of lambda by their lcms keeps its rank
    if len(pivot_columns(s.weights)) != q:
        raise RankMismatch(f"rank of lambda rows != q = {q}")
    nil = []
    for i, j, c in nilpotent_entries:
        c = frac(c)
        if type(i) is not int or type(j) is not int:
            raise DimensionMismatch(f"nilpotent entry ({i!r}, {j!r}) needs integer indices")
        entry = f"nilpotent entry ({i}, {j})"
        i, j = i - index_base, j - index_base
        if not (0 <= i < j < n):
            raise NilpotentViolatesCommutation(f"{entry} is not strictly upper triangular")
        if rows[i] != rows[j]:
            raise NilpotentViolatesCommutation(f"{entry} links unequal eigenvalues")
        # a zero entry is dropped only once its indices are known to be valid
        if c != 0:
            nil.append((i, j, c))
    nil.sort(key=lambda t: (t[0], t[1]))
    return EigenSpectrum(n=n, q=q, lam=rows, nilpotent=tuple(nil)) if nil else s


def minimal_nonneg_solutions(eqs, nvars):
    """Minimal nonzero solutions of eqs.x = 0 over Z_+^nvars, in lex order.

    Contejean-Devie completion with frozen components: candidates t grow
    from the unit vectors one unit at a time, along the unfrozen directions
    i that shrink the defect (<At, Ae_i> < 0), and are pruned above any
    solution found.  e_i starts with e_0..e_{i-1} frozen, and the child
    along i also freezes every shrinking direction before i, pruned or not.
    No candidate is reached twice, so the search is a tree: two paths to it
    part at the start (e_i, e_j) or at a candidate (along i and j), i < j,
    and the one along j never grows i again.  Complete: take s minimal and
    a candidate t <= s with t_f = s_f on its frozen f (the first unit vector
    under s is one).  If t != s, As = 0 gives sum_i (s_i - t_i) <At, Ae_i>
    = -|At|^2 < 0, so a shrinking i, not frozen, has t_i < s_i.  For the
    smallest, every earlier shrinking direction has t = s: t + e_i <= s
    keeps the invariant, and lies above no solution found so far, which
    would lie below s with a smaller degree.

    Past `COMPLETION_WORK_LIMIT` work units it raises `SearchCapReached`
    with every solution up to the degree reached.  A candidate created
    costs nvars units, each stored solution compared against it one more, a
    frozen direction none; a candidate of level L is built after L - 2
    creations within the limit, so no entry passes limit // nvars + 2.  A
    candidate is one int, a field of that bound's bit length per variable
    under a guard bit, variable 0 highest (integer order is lex order):
    t + e_i is one addition, m <= t is ((t | G) - m) & G == G for the guard
    bits G.  The image At (an int for one equation, else a q-tuple) picks
    the shrinking directions by its sign, or by one product per unfrozen
    direction.  Solutions are indexed by (variable, value): t + e_i lies
    above a solution m only if m_i = t_i + 1, as t lay above none and no
    other solution of degree |t| lies below t.  An empty bucket skips the
    domination test; otherwise a plain loop compares the bucket's solutions
    and stops at the first one below t + e_i.
    """
    rows = [r for r in (list(map(int, row)) for row in eqs) if any(r)]
    q, limit = len(rows), COMPLETION_WORK_LIMIT
    width = (limit // max(nvars, 1) + 2).bit_length() + 1
    mask = (1 << width) - 1
    shifts = [width * (nvars - 1 - i) for i in range(nvars)]
    columns = list(zip(*rows)) if q > 1 else rows[0] if rows else [0] * nvars
    # per direction: frozen bit, unit, field mask, solutions by value there, image
    dirs = [(1 << i, 1 << s, mask << s, {}, c) for i, (s, c) in enumerate(zip(shifts, columns))]
    guard = sum(d[1] for d in dirs) << width - 1
    zero = (0,) * q if q > 1 else 0
    if q <= 1:  # the sign of the image picks the shrinking directions
        signs = {True: [d for d in dirs if d[4] < 0], False: [d for d in dirs if d[4] > 0]}
    frontier = [(d[1], d[4], d[0] - 1) for d in dirs]
    minimal, level, work = [], 1, 0
    while frontier:
        for t, image, _ in frontier:
            if image == zero:
                minimal.append(tuple(t >> s & mask for s in shifts))
                for d in dirs:
                    d[3].setdefault(t & d[2], []).append(t)
        nxt = []
        for t, image, frozen in frontier:
            if q > 1:
                shrink = [d for d in dirs if not frozen & d[0] and sum(map(mul, image, d[4])) < 0]
            else:
                shrink = signs[image > 0] if image else ()
            for bit, unit, field, by_value, col in shrink:
                if frozen & bit:
                    continue
                cand, child, frozen = t + unit, frozen, frozen | bit
                above = by_value.get(cand & field)
                work += nvars + len(above) if above else nvars
                if work > limit:
                    raise SearchCapReached(
                        f"completion work {work} passed the limit {limit}"
                        f" at degree {level} with {len(frontier)} open candidates",
                        partial=sorted(minimal),
                    )
                if above:
                    high = cand | guard
                    for m in above:
                        if (high - m) & guard == guard:
                            break
                    else:
                        above = None  # no solution lies below cand
                if not above:
                    nxt.append((cand, tuple(map(add, image, col)) if q > 1 else image + col, child))
        frontier = nxt
        level += 1
    minimal.sort()
    _require_minimal(minimal)
    return minimal


def _require_minimal(solutions):
    """Raise CertificateFailure when a solution lies on or above another one.

    Bit j of ``at_most[k][v]`` is set when solution j has a k-th entry of
    at most v, so the solutions below g are the intersection over k of
    ``at_most[k][g_k]``: one AND per coordinate instead of a pairwise scan.
    """
    at_most = []
    for k in range(len(solutions[0]) if solutions else 0):
        bits = [0] * (max(g[k] for g in solutions) + 1)
        for j, g in enumerate(solutions):
            bits[g[k]] |= 1 << j
        for v in range(1, len(bits)):
            bits[v] |= bits[v - 1]
        at_most.append(bits)
    for j, g in enumerate(solutions):
        below = ~(1 << j)
        for k, x in enumerate(g):
            below &= at_most[k][x]
        if below:
            m = solutions[(below & -below).bit_length() - 1]
            raise CertificateFailure(f"completion kept {list(g)}, which lies on or above {list(m)}")


def inhomogeneous_minimal_solutions(system, nvars):
    """Minimal solutions over Z_+^nvars of the rows [coefficients | rhs], via homogenization.

    Turns the rhs column into a slack variable t with column -rhs; generators
    of the extended monoid with t = 1 are exactly the minimal inhomogeneous
    solutions, so emptiness is decided, not just searched.  The module
    checks do not use it: `least_witness` answers their question directly.
    """
    ext = [list(row[:-1]) + [-row[-1]] for row in system]
    gens = minimal_nonneg_solutions(ext, nvars + 1)
    return [g[:-1] for g in gens if g[-1] == 1]


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generators of {d in Z_+^n : <d, lambda> = 0}, in lex order."""

    generators: tuple[tuple[int, ...], ...]

    def __bool__(self):
        return bool(self.generators)

    def support_union(self) -> set[int]:
        out: set[int] = set()
        for g in self.generators:
            out.update(i for i, x in enumerate(g) if x > 0)
        return out


def hilbert_basis(s: EigenSpectrum) -> HilbertBasis:
    gens = minimal_nonneg_solutions([r[:-1] for r in eigen_system(s, (0,) * s.n)], s.n)
    return HilbertBasis(generators=tuple(gens))


def is_finite_linear_centralizer(s: EigenSpectrum) -> bool:
    return not hilbert_basis(s)


def has_positive_relation(s: EigenSpectrum) -> bool:
    """A strictly positive d with <d, lambda> = 0 exists iff generator supports cover 1..n."""
    return hilbert_basis(s).support_union() == set(range(s.n))


def uw_decomposition(s: EigenSpectrum):
    """Index split (U, W): U carries the monomial first integrals, W none."""
    u = sorted(hilbert_basis(s).support_union())
    w = [i for i in range(s.n) if i not in u]
    return tuple(u), tuple(w)


def c_matrix_basis(s: EigenSpectrum):
    """Integer diagonals C_1..C_q with A_s = nu_1 C_1 + ... + nu_q C_q.

    The spectrum's weights: column k of the coordinate matrix, cleared of
    denominators only, so that round-trips preserve the input.
    """
    return s.weights


def eigen_system(s: EigenSpectrum, target, drop=None):
    """Primitive integer rows [coefficients | rhs] of <m, lambda> = <target, lambda>.

    One row per coordinate; m runs over the indices other than ``drop``.
    Each row is a positive multiple of the spectrum's weights, so dividing
    by its gcd gives the unique primitive integer multiple of the rational
    row.
    """
    rows = []
    for w in s.weights:
        row = [x for i, x in enumerate(w) if i != drop]
        row.append(sum(map(mul, target, w)))
        g = gcd(*row)
        rows.append([x // g for x in row] if g > 1 else row)
    return rows


def eigen_monomials(s: EigenSpectrum, target, d: int):
    """All m with |m| = d and <m, lambda> = <target, lambda>, lex order."""
    want = s.eigen_coords(target)
    return [m for m in compositions(d, s.n) if s.eigen_coords(m) == want]


def count_eigen_monomials(s: EigenSpectrum, target, dmin: int, dmax: int) -> int:
    """How many m `eigen_monomials` lists for dmin <= |m| <= dmax, counted in integers:
    index by index, m_i lowers the remaining degree and, per weight row w, the remaining
    target by m_i w_i; prefixes left with equal remainders are merged, with their counts."""
    states = {(dmax, tuple(sum(map(mul, target, w)) for w in s.weights)): 1}
    for i in range(s.n):
        merged = {}
        for (rem, left), count in states.items():
            for e in range(rem + 1):
                key = (rem - e, tuple(t - e * w[i] for t, w in zip(left, s.weights)))
                merged[key] = merged.get(key, 0) + count
        states = merged
    return sum(c for (rem, left), c in states.items() if rem <= dmax - dmin and not any(left))


def least_witness(s: EigenSpectrum, target, drop):
    """The (degree, lex)-least m >= 0 with m_drop = 0 and <m, lambda> = <target, lambda>.

    The target eigenvalue must be nonzero (both module checks rule zero
    out); returns None when no witness exists.  Graph of partial sums
    (Clausen and Fortenbacher): with the integer rows [w_i | t] of
    `eigen_system`, a witness of degree d is a walk of d steps w_i from 0
    to t, so the least degree is a shortest-path length.  Some order of
    the steps keeps the walk inside the box around the segment [0, t]
    that is [min(0, t_k) - R_k, max(0, t_k) + R_k] in coordinate k, with
    W_k = max_i |w_ik|:

    - q = 1, R = W.  Order the steps greedily: a positive one while the
      partial sum is <= t, otherwise a negative one (zero steps anywhere).
      One of the needed kind always remains, since the rest sums to t minus
      the partial sum.  A positive step from a sum <= t ends <= t + W and a
      negative step from a sum > t ends > t - W, so every partial sum stays
      in [min(0, t) - W, max(0, t) + W].
    - q > 1, R_k = q (W_k + |t_k|).  The vectors u_i = w_i - t/d sum to 0,
      and |u_ik| <= W_k + |t_k|, so each has norm <= 1 in the norm
      max_k |x_k| / (W_k + |t_k|) (a coordinate with W_k = t_k = 0 stays
      0).  By the Steinitz lemma with the Grinberg-Sevast'yanov constant q,
      valid for every norm, some order keeps every partial sum of the u_i
      within norm q, i.e. within q (W_k + |t_k|) in coordinate k.  The j-th
      partial sum of the w_i is that of the u_i plus (j/d) t, a point of
      the segment [0, t].

    A breadth-first search over the box therefore finds the least degree,
    or proves that there is no witness.  The lex-least witness of that
    degree is built greedily: each index, in order, takes the smallest
    exponent for which the remaining indices can still reach the remaining
    sum with the remaining degree.  The least-degree witness is a minimal
    inhomogeneous solution, since any solution below it has smaller degree.
    """
    *steps, t = zip(*eigen_system(s, target, drop))
    width = [max((abs(w[k]) for w in steps), default=0) for k in range(s.q)]
    radius = width if s.q == 1 else [s.q * (width[k] + abs(t[k])) for k in range(s.q)]
    lo = tuple(min(0, x) - r for x, r in zip(t, radius))
    hi = tuple(max(0, x) + r for x, r in zip(t, radius))
    size = prod(b - a + 1 for a, b in zip(lo, hi))
    if size > WITNESS_WINDOW_LIMIT:
        raise ScopeError(
            f"witness search window has {size} points, above the limit {WITNESS_WINDOW_LIMIT}"
        )
    degree = _partial_sum_distance(steps, t, lo, hi)
    if degree is None:
        return None
    m = _lex_least(steps, t, degree)
    if m is not None:
        m = m[:drop] + (0,) + m[drop:]
    if m is None or m[drop] or sum(m) != degree or any(
        sum(map(mul, m, w)) != sum(map(mul, target, w)) for w in s.weights
    ):
        raise CertificateFailure(
            f"search found no witness of degree {degree} for target {target} off index {drop}"
        )
    return m


def _partial_sum_distance(steps, t, lo, hi):
    """Fewest steps from 0 to t with every partial sum inside the box [lo, hi], or None.

    Points live in a flat grid over the box widened in each coordinate by
    the largest step there.  The widening is marked as visited, so a step
    from a box point lands in the grid, never wraps into another row, and
    is expanded only when it stays in the box.
    """
    q = len(t)
    pad = [max((abs(w[k]) for w in steps), default=0) for k in range(q)]
    dims = [b - a + 1 + 2 * p for a, b, p in zip(lo, hi, pad)]
    strides = [prod(dims[k + 1:]) for k in range(q)]
    grid = bytearray(prod(dims))

    def widen(offset, k):
        size = pad[k] * strides[k]
        end = offset + dims[k] * strides[k]
        grid[offset:offset + size] = bytes([1]) * size
        grid[end - size:end] = bytes([1]) * size
        if k + 1 < q:
            for x in range(pad[k], dims[k] - pad[k]):
                widen(offset + x * strides[k], k + 1)

    def index(p):
        return sum((x - a + d) * st for x, a, d, st in zip(p, lo, pad, strides))

    widen(0, 0)
    moves = sorted({sum(x * st for x, st in zip(w, strides)) for w in steps if any(w)})
    start, goal = index((0,) * q), index(t)
    grid[start] = 1
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for p in frontier:
            for d in moves:
                r = p + d
                if grid[r]:
                    continue
                if r == goal:
                    return level
                grid[r] = 1
                nxt.append(r)
        frontier = nxt
    return None


def _lex_least(steps, t, degree):
    """Lex-least m >= 0 with sum m_i = degree and sum m_i w_i = t, or None.

    Depth-first over the indices in order, smallest exponent first, so the
    first complete m found is the lex-least.  A state (i, r, rest) asks for
    r more steps from index i on that sum to ``rest``; it is pruned unless
    rest lies within r times the per-coordinate range of those steps, and
    its answer is kept in one dict.  Raising m_i by one subtracts w_i from
    rest once.  The last index has no choice: its range is w itself, so a
    state that passes the pruning there is solved by m_i = r.
    """
    last = len(steps) - 1
    # a suffix of r steps from index i sums, per coordinate, within r * [low, high]
    low = list(accumulate(reversed(steps), lambda a, w: tuple(map(min, a, w))))[::-1]
    high = list(accumulate(reversed(steps), lambda a, w: tuple(map(max, a, w))))[::-1]
    memo = {}

    def least(i, r, rest):
        key = (i, r, rest)
        if key in memo:
            return memo[key]
        found = None
        if all(r * a <= x <= r * b for x, a, b in zip(rest, low[i], high[i])):
            if i == last:
                found = (r,)
            else:
                w = steps[i]
                for e in range(r + 1):
                    tail = least(i + 1, r - e, rest)
                    if tail is not None:
                        found = (e,) + tail
                        break
                    rest = tuple(map(sub, rest, w))
        memo[key] = found
        return found

    if not steps:
        return None if degree or any(t) else ()
    return least(0, degree, t)


@dataclass(frozen=True)
class Dim3Verdict:
    holds: bool
    l1: int | None = None
    l2: int | None = None


def classify_dim3(d1: int, d2: int, d3: int) -> Dim3Verdict:
    """Distinguished-setting test for diag(d1, d2, -d3).

    Looks for a coprime factorization d3 = l1*l2 with both factors > 1,
    l2 | d1 and l1 | d2; a witness pair certifies that the commuting module
    is generated by the coordinate fields and the invariant algebra has an
    algebraically independent generator pair.

    The only candidate is l1 = gcd(d2, d3), l2 = gcd(d1, d3).  Any witness
    pair divides it factor by factor.  The two gcds are coprime, since a
    common divisor divides gcd(d1, d2, d3) = 1, so their product divides
    d3 = l1*l2, which divides that product: the pair is the candidate.
    """
    if min(d1, d2, d3) < 1:
        raise GcdNotOne("d1, d2, d3 must be positive integers")
    if gcd(gcd(d1, d2), d3) != 1:
        raise GcdNotOne(f"gcd({d1}, {d2}, {d3}) != 1")
    l1, l2 = gcd(d2, d3), gcd(d1, d3)
    if l1 > 1 and l2 > 1 and l1 * l2 == d3:
        return Dim3Verdict(holds=True, l1=l1, l2=l2)
    return Dim3Verdict(holds=False)


def zero_spectrum(n: int) -> EigenSpectrum:
    """Spectrum with zero linear part (q = 0); used for reduced vector fields."""
    return EigenSpectrum(n=n, q=0, lam=tuple(() for _ in range(n)))
