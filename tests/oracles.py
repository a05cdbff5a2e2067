"""Independent brute-force oracles and random-instance generators.

Everything here recomputes expected values by enumeration or direct
definition chasing, never through the code paths under test.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from nfkit.fields import PolySeries, PolyVectorField, lie_bracket
from nfkit.linalg import RatMatrix, mat_kernel, mat_solve
from nfkit.errors import CertificateFailure, RankMismatch, RewriteFailure, SearchCapReached
from nfkit.spectrum import (
    EigenSpectrum,
    build_spectrum,
    minimal_nonneg_solutions,
    unit_row,
)


def columns_of(rows):
    """The sparse columns of a matrix given by its dense rows, keyed by row index.

    Zeros are kept as explicit entries, so the matrix `RatMatrix` builds
    from them has one row per given row, in the given order.
    """
    width = len(rows[0]) if rows else 0
    assert all(len(row) == width for row in rows), "ragged rows"
    return [{i: row[t] for i, row in enumerate(rows)} for t in range(width)]


def exponent_rows(total: int, parts: int):
    """All rows of ``parts`` nonnegative integers summing to ``total``, lex order.

    Stars and bars: the parts - 1 bar positions among total + parts - 1
    slots, so the enumeration shares nothing with nfkit's recursion.
    """
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        cuts = (-1,) + bars + (slots,)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def pairing(s: EigenSpectrum, m):
    """<m, lambda> as a q-coordinate row, straight from ``s.lam``."""
    return tuple(sum(m[i] * s.lam[i][k] for i in range(s.n)) for k in range(s.q))


def reference_eigen_system(s: EigenSpectrum, target, drop=None):
    """Primitive integer rows [coefficients | rhs] of <m, lambda> = <target, lambda>.

    Built from ``s.lam`` the way `eigen_system` did before the spectrum
    held integer weights: the rational row of each coordinate, off the
    index ``drop``, with <target, lambda> appended, scaled by the lcm of
    its denominators and divided by the gcd of the result.
    """
    rhs = pairing(s, target)
    out = []
    for k in range(s.q):
        row = [Fraction(s.lam[i][k]) for i in range(s.n) if i != drop] + [Fraction(rhs[k])]
        mult = math.lcm(*(x.denominator for x in row))
        ints = [int(x * mult) for x in row]
        g = math.gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def fraction_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fraction rows, pivoting column by column."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_bareiss_echelon(mat):
    """Fraction-free elimination over full-width rows, every entry of every row
    below a pivot updated.  Returns (echelon rows, pivot columns)."""
    rows = [list(row) for row in mat]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            if not any(rows[i]):
                continue
            factor = rows[i][c]
            for j in range(n):
                rows[i][j] = (piv * rows[i][j] - factor * rows[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _dense_kernel_basis(ech, pivots, touched):
    """(basis, supports) of the kernel of a full-width integer echelon form, one
    vector per free column f, back-substituted inside its triangle (pivots c < f,
    columns c < j <= f); a column with no nonzero entry gets e_f at once."""
    n = len(touched)
    pivot_set = set(pivots)
    basis = []
    supports = []
    for f in (j for j in range(n) if j not in pivot_set):
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        if not touched[f]:
            basis.append(tuple(x))
            supports.append((f,))
            continue
        support = [f]
        for k in range(sum(1 for c in pivots if c < f) - 1, -1, -1):
            c = pivots[k]
            row = ech[k]
            acc = sum((x[j] * row[j] for j in range(c + 1, f + 1)), Fraction(0))
            x[c] = -acc / row[c]
            if acc.numerator:
                support.append(c)
        basis.append(tuple(x))
        supports.append(tuple(reversed(support)))
    return tuple(basis), tuple(supports)


def dense_primitive_rows(columns):
    """One primitive integer row per row key of the sparse columns, in order of first
    appearance, at full width with every zero written out."""
    keys = list(dict.fromkeys(key for col in columns for key in col))
    rows = []
    for key in keys:
        row = [Fraction(col.get(key, 0)) for col in columns]
        mult = math.lcm(*(x.denominator for x in row))
        ints = [int(x * mult) for x in row]
        g = math.gcd(*ints)
        rows.append([x // g for x in ints] if g > 1 else ints)
    return rows


def dense_bareiss_kernel(columns):
    """(basis, supports, rank) of a system given by its sparse columns, by dense Bareiss.

    The reference for `nfkit.linalg`'s elimination over the touched columns:
    the `dense_primitive_rows`, eliminated with every entry of every row
    updated at each pivot, and back-substituted over all columns.
    """
    rows = dense_primitive_rows(columns)
    touched = [any(row[t] for row in rows) for t in range(len(columns))]
    ech, pivots = dense_bareiss_echelon(rows)
    return (*_dense_kernel_basis(ech, pivots, touched), len(pivots))


def fraction_rewrite(generators, v):
    """The k >= 0 in Z^r with sum_a k_a g_a = v, for one exponent row v.

    Gauss-Jordan over Fraction on the n x (r + 1) rows [G^T | v], pivoting
    column by column.  Raises the errors of the rewrite over the generators,
    with their messages, in their order: v off the span, then dependent
    generators, then a non-integral or negative k.
    """
    r, n = len(generators), len(v)
    rows = [[Fraction(g[i]) for g in generators] + [Fraction(v[i])] for i in range(n)]
    pivots = []
    for c in range(r + 1):
        top = len(pivots)
        p = next((i for i in range(top, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i in range(n):
            if i != top and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(c)
    if r in pivots:
        raise RewriteFailure(f"exponent row {v} is not a combination of the generators", v)
    if len(pivots) < r:
        raise CertificateFailure("generator exponents must be independent here")
    k = [rows[t][r] for t in range(r)]
    if any(x.denominator != 1 or x < 0 for x in k):
        raise RewriteFailure(
            f"exponent row {v} needs a non-integer or negative generator combination", v
        )
    return tuple(int(x) for x in k)


def brute_resonances(s: EigenSpectrum, j: int, dmax: int):
    """All resonant m with 2 <= |m| <= dmax for component j, by raw scan."""
    out = []
    for d in range(2, dmax + 1):
        for m in exponent_rows(d, s.n):
            if pairing(s, m) == s.lam[j]:
                out.append(m)
    return out


def brute_monoid(s: EigenSpectrum, dmax: int):
    """All nonzero d with |d| <= dmax and <d, lambda> = 0."""
    zero = tuple(Fraction(0) for _ in range(s.q))
    out = []
    for total in range(1, dmax + 1):
        for m in exponent_rows(total, s.n):
            if pairing(s, m) == zero:
                out.append(m)
    return out


def decomposes_over(generators, target, _memo=None):
    """Is target a Z_+-combination of the generator rows?"""
    if _memo is None:
        _memo = {}
    if all(x == 0 for x in target):
        return True
    if target in _memo:
        return _memo[target]
    ok = False
    for g in generators:
        if all(a >= b for a, b in zip(target, g)) and any(b for b in g):
            rest = tuple(a - b for a, b in zip(target, g))
            if decomposes_over(generators, rest, _memo):
                ok = True
                break
    _memo[target] = ok
    return ok


def is_monoid_minimal(s: EigenSpectrum, g, dmax):
    """No splitting g = e + (g - e) into nonzero monoid elements."""
    zero = tuple(Fraction(0) for _ in range(s.q))
    for e in itertools.product(*(range(x + 1) for x in g)):
        if sum(e) == 0 or e == tuple(g):
            continue
        rest = tuple(a - b for a, b in zip(g, e))
        if pairing(s, e) == zero and pairing(s, rest) == zero:
            return False
    return True


# The scan-based completion: every candidate is compared with every solution
# found so far, each direction costs one dot product, and a pairwise filter
# ends it.  An independent oracle for the generators, their order and, under
# a degree cap, ``partial``.

def reference_completion(eqs, nvars, cap=None):
    """Minimal nonzero solutions of eqs.x = 0 over Z_+^nvars.

    Contejean-Devie completion: grow candidates from the unit vectors, one
    unit at a time, only in directions that shrink the defect (negative
    scalar product of images), pruning anything dominated by a solution
    already found.  Terminates for every homogeneous system; a ``cap``
    bounds the explored degree and raises when reached.
    """
    eqs = [list(map(int, row)) for row in eqs]
    rows = [r for r in eqs if any(r)]

    def image(v):
        return tuple(sum(r[i] * v[i] for i in range(nvars)) for r in rows)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    units = [unit_row(nvars, i) for i in range(nvars)]
    unit_images = [image(e) for e in units]

    minimal: list[tuple[int, ...]] = []
    frontier = dict(zip(units, unit_images))
    level = 1
    zero = tuple(0 for _ in rows)
    while frontier:
        if cap is not None and level > cap:
            raise SearchCapReached(
                f"completion cap {cap} reached with {len(frontier)} open candidates",
                partial=sorted(minimal),
            )
        for t in sorted(frontier):
            if frontier[t] == zero:
                minimal.append(t)
        nxt = {}
        for t in sorted(frontier):
            img = frontier[t]
            if img == zero:
                continue
            for i in range(nvars):
                if dot(img, unit_images[i]) >= 0:
                    continue
                cand = list(t)
                cand[i] += 1
                cand = tuple(cand)
                if cand in nxt:
                    continue
                if any(all(cand[k] >= m[k] for k in range(nvars)) for m in minimal):
                    continue
                nxt[cand] = tuple(a + b for a, b in zip(img, unit_images[i]))
        frontier = nxt
        level += 1
    # The completion already prunes dominated candidates; the final filter
    # guards the minimality invariant regardless.
    out = []
    for t in sorted(minimal):
        if not any(
            m != t and all(m[k] <= t[k] for k in range(nvars)) for m in minimal
        ):
            out.append(t)
    return out


def lambert_box_solutions(row):
    """Minimal nonzero solutions of one equation row.x = 0 over Z_+^n, lex order.

    Write the row as a.x = b.y with a, b > 0 (zero coefficients give the
    unit vectors and nothing else).  Lambert's bound: a minimal solution has
    |x|_1 <= max b and |y|_1 <= max a, so a box search over that range,
    followed by a pairwise minimality filter, finds all of them.
    """
    n = len(row)
    pos = [i for i in range(n) if row[i] > 0]
    neg = [i for i in range(n) if row[i] < 0]
    out = [tuple(int(i == k) for k in range(n)) for i in range(n) if row[i] == 0]
    if not pos or not neg:
        return sorted(out)
    max_a = max(row[i] for i in pos)
    max_b = max(-row[i] for i in neg)
    by_value = {}
    for total in range(1, max_b + 1):
        for xs in exponent_rows(total, len(pos)):
            by_value.setdefault(sum(row[i] * x for i, x in zip(pos, xs)), []).append(xs)
    sols = []
    for total in range(1, max_a + 1):
        for ys in exponent_rows(total, len(neg)):
            for xs in by_value.get(sum(-row[i] * y for i, y in zip(neg, ys)), ()):
                m = [0] * n
                for i, x in zip(pos + neg, xs + ys):
                    m[i] = x
                sols.append(tuple(m))
    out += [
        m for m in sols
        if not any(e != m and all(a <= b for a, b in zip(e, m)) for e in sols)
    ]
    return sorted(out)


def brute_positive_relation(s: EigenSpectrum, dmax: int) -> bool:
    zero = tuple(Fraction(0) for _ in range(s.q))
    for total in range(s.n, dmax + 1):
        for m in exponent_rows(total, s.n):
            if all(x > 0 for x in m) and pairing(s, m) == zero:
                return True
    return False


def vertex_lp_max(c, A, b):
    """Basic-feasible-point enumeration for small bounded LPs, A given by its rational rows.

    Returns (feasible, best value, best point); only meaningful when the
    feasible region is bounded, which the callers arrange.
    """
    n = len(c)
    c = [Fraction(x) for x in c]
    best = None
    point = None
    feasible = False
    for size in range(0, n + 1):
        for cols in itertools.combinations(range(n), size):
            sol = mat_solve([[row[j] for j in cols] for row in A], b)
            if sol is None:
                continue
            particular, kernel = sol
            if kernel.basis:
                continue
            x = [Fraction(0)] * n
            for pos, j in enumerate(cols):
                x[j] = particular[pos]
            if any(v < 0 for v in x):
                continue
            feasible = True
            val = sum((c[j] * x[j] for j in range(n)), Fraction(0))
            if best is None or val > best:
                best, point = val, tuple(x)
    return feasible, best, point


def per_coordinate_degree_bound(s: EigenSpectrum):
    """max(1, floor max |m|) over {m >= 0 : <m, lambda> = lambda_j}, one LP per j.

    Each LP is solved by vertex enumeration on rows read straight from
    ``s.lam``; the callers pass finite spectra, whose LPs are bounded.
    """
    best = 1
    for j in range(s.n):
        A = [[s.lam[i][k] for i in range(s.n)] for k in range(s.q)]
        feasible, value, _ = vertex_lp_max([1] * s.n, A, s.lam[j])
        if feasible:
            best = max(best, math.floor(value))
    return best


def whole_matrix_commutant(s: EigenSpectrum):
    """Kernel of B -> ([B, A_s], [B, A_n]) as one system on all n^2 entries.

    Column i * n + k holds B_ik; [B, A_s] = 0 is one unit row B_ik = 0 per
    pair (i, k) with lambda_i != lambda_k, and the [B, A_n] rows come from
    the nilpotent entries.  Returns the basis as n x n row tuples.
    """
    n = s.n
    columns = [{} for _ in range(n * n)]
    for i in range(n):
        for k in range(n):
            if s.lam[i] != s.lam[k]:
                columns[i * n + k][("semisimple", i, k)] = 1
    # N_ik = c enters (NB - BN)_ij as +c B_kj and (NB - BN)_jk as -c B_ji
    for i, k, c in s.nilpotent:
        for j in range(n):
            col, key = columns[k * n + j], ("nilpotent", i, j)
            col[key] = col.get(key, 0) + c
            col, key = columns[j * n + i], ("nilpotent", j, k)
            col[key] = col.get(key, 0) - c
    vecs = mat_kernel(RatMatrix(columns)).basis
    return tuple(tuple(v[i * n:(i + 1) * n] for i in range(n)) for v in vecs)


def commutant_coordinate_centralizer(s: EigenSpectrum, f: PolyVectorField, bound: int):
    """The exact centralizer solved over commutant coordinates.

    Unknowns: the coordinates of the linear part over the commutant basis of
    `whole_matrix_commutant`, ordered by the last nonzero entry of each matrix,
    then one coefficient per resonance of `brute_resonances` up to ``bound``,
    by degree, component and exponent.  An unknown's column is the `Fraction`
    bracket of its field with f; every such field commutes with A_s, so the
    semisimple part drops out whether f writes it out or not.  A kernel
    vector sums its commutant fields and resonant monomials into one element.

    Returns (dimension, d, r, block_bounds, basis terms), the block bounds
    [d, d + r] only without a nilpotent part.
    """
    n = s.n
    unknowns = [
        PolyVectorField(n, {(i, unit_row(n, k)): x for i, row in enumerate(B) for k, x in enumerate(row)})
        for B in whole_matrix_commutant(s)
    ]
    d = len(unknowns)
    resonances = sorted((sum(m), j, m) for j in range(n) for m in brute_resonances(s, j, bound))
    unknowns += [PolyVectorField.monomial(n, j, m) for _, j, m in resonances]
    kernel = mat_kernel(RatMatrix([lie_bracket(g, f).terms for g in unknowns]))
    basis = []
    for v in kernel.basis:
        terms = {}
        for g, x in zip(unknowns, v):
            for key, c in g.terms.items():
                terms[key] = terms.get(key, 0) + x * c
        basis.append({key: c for key, c in terms.items() if c})
    r = len(resonances)
    return kernel.dimension, d, r, None if s.nilpotent else (d, d + r), basis


def random_block_spectrum(rng: random.Random, n: int, q: int):
    """Eigenvalue rows drawn from a few values, so that blocks repeat, plus
    nilpotent entries with random nonzero rational coefficients inside them.

    Draws again until the rows have rank q <= n, as `build_spectrum` requires.
    """
    while True:
        pool = [tuple(rand_frac(rng, sign=True) for _ in range(q)) for _ in range(rng.randint(q, 3))]
        rows = [rng.choice(pool) for _ in range(n)]
        nil = [
            (i, k, rand_frac(rng, sign=True))
            for i in range(n)
            for k in range(i + 1, n)
            if rows[i] == rows[k] and rng.random() < 0.5
        ]
        try:
            return build_spectrum(n, q, rows, nil)
        except RankMismatch:
            continue


def brute_semiinvariant_ladder(mu, value, smax):
    mu = [Fraction(x) for x in mu]
    value = Fraction(value)
    out = set()
    for s in range(2, smax + 1):
        for k in range(0, s + 1):
            for kvec in exponent_rows(s - k, len(mu)):
                if k + sum((kvec[i] * mu[i] for i in range(len(mu))), Fraction(0)) == value:
                    out.add((s, k, kvec))
    return out


def brute_commuting_degrees(mu, smax):
    mu = [Fraction(x) for x in mu]
    out = set()
    for s in range(2, smax + 1):
        for k in range(len(mu)):
            for l in range(0, s + 1):
                for lvec in exponent_rows(s - l, len(mu)):
                    if l + sum((lvec[i] * mu[i] for i in range(len(mu))), Fraction(0)) == mu[k]:
                        out.add(s)
    return out


def brute_free_module_witness(s: EigenSpectrum, bound):
    """First m with m_j = 0, |m| >= 1, <m, lambda> = lambda_j within |m| <= bound."""
    for j in range(s.n):
        for total in range(1, bound + 1):
            for m in exponent_rows(total, s.n):
                if m[j] == 0 and pairing(s, m) == s.lam[j]:
                    return j, m
    return None


def brute_onediv_witness(s: EigenSpectrum, bound):
    """First m with some m_j = 0 and <m, lambda> = <(1, ..., 1), lambda>, by (j, degree, lex).

    Searches 1 <= |m| <= bound for each j in turn, as `check_onediv` reports.
    """
    div = pairing(s, (1,) * s.n)
    for j in range(s.n):
        for total in range(1, bound + 1):
            for m in exponent_rows(total, s.n):
                if m[j] == 0 and pairing(s, m) == div:
                    return m
    return None


def completion_witness(s: EigenSpectrum, target, j):
    """(degree, lex)-least m with m_j = 0 and <m, lambda> = <target, lambda>, or None.

    Homogenizes the system with a slack variable and completes it; the
    generators with slack 1 are the minimal inhomogeneous solutions.
    """
    idx = [i for i in range(s.n) if i != j]
    rhs = pairing(s, target)
    rows = []
    for k in range(s.q):
        row = [s.lam[i][k] for i in idx] + [-rhs[k]]
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    best = None
    for g in minimal_nonneg_solutions(rows, len(idx) + 1):
        if g[-1] != 1 or not any(g[:-1]):
            continue
        m = g[:j] + (0,) + g[j:-1]
        if best is None or (sum(m), m) < (sum(best), best):
            best = m
    return best


def dim3_condition_a(d1, d2, d3, box=70):
    """Bounded check of the module-generator + independent-generators property
    for diag(d1, d2, -d3) directly from the definitions."""
    # module generators: no resonance with the distinguished coordinate absent.
    # j = 1: d2*m2 - d3*m3 = d1 has a nonneg solution iff one exists with m3 < d2.
    for m3 in range(d2):
        if (d1 + d3 * m3) % d2 == 0:
            return False
    for m3 in range(d1):
        if (d2 + d3 * m3) % d1 == 0:
            return False
    # invariant monoid: solutions of d1*n1 + d2*n2 = d3*n3
    sols = []
    for n1 in range(box + 1):
        for n2 in range(box + 1):
            tot = d1 * n1 + d2 * n2
            if tot == 0 or tot % d3:
                continue
            sols.append((n1, n2, tot // d3))
    minimal = []
    for v in sorted(sols, key=sum):
        if not any(all(a >= b for a, b in zip(v, m)) for m in minimal):
            minimal.append(v)
    if len(minimal) != 2:
        return False
    m1, m2 = minimal
    if m1[0] * m2[1] - m1[1] * m2[0] == 0:
        return False
    return all(decomposes_over((m1, m2), v) for v in sols)


# random instance helpers -------------------------------------------------

def rand_frac(rng: random.Random, lo=1, hi=6, den=4, sign=False):
    num = rng.randint(lo, hi)
    if sign and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, den))


def random_series(rng, n, max_degree=3, terms=3, trunc=None):
    data = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        m = tuple(rng.choice(list(exponent_rows(d, n))))
        data[m] = rand_frac(rng, sign=True)
    return PolySeries(n, data, trunc if trunc is not None else float("inf"))


def random_field(rng, n, max_degree=3, terms=4, trunc=None):
    data = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        m = tuple(rng.choice(list(exponent_rows(d, n))))
        data[(rng.randrange(n), m)] = rand_frac(rng, sign=True)
    return PolyVectorField(n, data, trunc if trunc is not None else float("inf"))


def linear_terms_of(s: EigenSpectrum):
    """Explicit |m| = 1 terms of the full linear part (q = 1 spectra only)."""
    terms = {}
    for i in range(s.n):
        if s.lam[i][0] != 0:
            terms[(i, tuple(1 if t == i else 0 for t in range(s.n)))] = s.lam[i][0]
    for i, j, c in s.nilpotent:
        terms[(i, tuple(1 if t == j else 0 for t in range(s.n)))] = c
    return terms


def random_pdnf(s: EigenSpectrum, rng, dmax, density=0.6, explicit=True, force_nonlinear=False):
    """Random normal-form field over the spectrum, resonant support only.

    With ``explicit`` (q = 1 only) the rational linear part is written out;
    otherwise only the nilpotent entries appear and the semisimple part is
    implied by the spectrum.
    """
    from nfkit.resonance import resonant_multiindices

    terms = {}
    if explicit:
        terms.update(linear_terms_of(s))
    else:
        for i, j, c in s.nilpotent:
            terms[(i, tuple(1 if t == j else 0 for t in range(s.n)))] = c
    picked = False
    keys = []
    for j in range(s.n):
        for d in range(2, dmax + 1):
            for m in resonant_multiindices(s, j, d):
                keys.append((j, m))
    for j, m in keys:
        if rng.random() < density:
            terms[(j, m)] = rand_frac(rng, sign=True)
            picked = True
    if force_nonlinear and not picked and keys:
        j, m = keys[rng.randrange(len(keys))]
        terms[(j, m)] = rand_frac(rng, sign=True)
    return PolyVectorField(s.n, terms)


def spectrum_pool_finite(rng, n):
    """Random positive integer eigenvalues (finite resonance guaranteed)."""
    values = [2, 3, 4, 6, 8, 12]
    lam = sorted((rng.choice(values) for _ in range(n)), reverse=True)
    nil = []
    if rng.random() < 0.5:
        for i in range(n - 1):
            if lam[i] == lam[i + 1] and rng.random() < 0.7:
                nil.append((i, i + 1, 1))
    return build_spectrum(n, 1, [[v] for v in lam], nil)
