"""Seeded request streams for the three benchmark workloads.

Nothing here imports nfkit.  Resonances, commutant dimensions and
invariant generators of the generated inputs come from this file's own
integer searches, so set-up costs the same whatever nfkit does and the
expected values the verifier checks do not come from the code under test.

A workload is an endless stream of ``Request`` objects.  The request
kinds follow a fixed weighted schedule (smooth weighted round robin), so
every prefix of the stream holds close to the intended mix.  Within a
kind the seed draws the concrete inputs.  Where the cost of an input
varies widely (eigenvalue multisets, invariant spectra, multiplier
coefficients) the draw goes through a low-discrepancy sequence over a
list ordered by a cost estimate, so that every run sees cheap and
expensive inputs in nearly the same proportions.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass
class Request:
    """One CLI call: subcommand, input documents, extra flags, expectations."""

    kind: str
    spectrum: dict
    field: dict | None
    flags: tuple[str, ...]
    expect: dict


# -- small helpers ---------------------------------------------------------


def fmt(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def rand_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(1, 6) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 4))


def unit(n, i):
    return tuple(1 if t == i else 0 for t in range(n))


def compositions(total, parts):
    """All rows of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def spectrum_doc(lam, nilpotent=()):
    return {
        "n": len(lam),
        "q": 1,
        "lambda": [[str(v)] for v in lam],
        "nilpotent": [[i + 1, j + 1, "1"] for i, j in nilpotent],
    }


def field_doc(n, terms):
    """Field file from {(j, m): Fraction} with 0-based j."""
    items = sorted(terms.items(), key=lambda t: (t[0][0], sum(t[0][1]), t[0][1]))
    return {
        "n": n,
        "trunc": "inf",
        "terms": [{"j": j + 1, "m": list(m), "c": fmt(c)} for (j, m), c in items],
    }


def linear_terms(lam, nilpotent=()):
    n = len(lam)
    terms = {(i, unit(n, i)): Fraction(v) for i, v in enumerate(lam) if v}
    for i, j in nilpotent:
        terms[(i, unit(n, j))] = Fraction(1)
    return terms


def weighted_cycle(weights, rng):
    """Smooth weighted round robin: every prefix is close to the weights.

    The seed only picks the tie-break order and the starting phase.
    """
    keys = list(weights)
    rng.shuffle(keys)
    total = sum(weights.values())
    current = dict.fromkeys(keys, 0)

    def step():
        for k in keys:
            current[k] += weights[k]
        best = max(keys, key=current.__getitem__)
        current[best] -= total
        return best

    for _ in range(rng.randrange(total)):
        step()
    while True:
        yield step()


class Spread:
    """Additive golden-ratio sequence in [0, 1) with a seeded offset."""

    def __init__(self, rng):
        self.offset = rng.random()
        self.t = 0

    def next(self) -> float:
        u = (self.offset + self.t * GOLDEN) % 1.0
        self.t += 1
        return u


def resonances_by_search(lam, dmax):
    """Per component, every m with 2 <= |m| <= dmax and <m, lam> = lam_j.

    Plain scan over compositions; lists come in (|m|, lex) order.
    """
    n = len(lam)
    out = [[] for _ in range(n)]
    for d in range(2, dmax + 1):
        for m in compositions(d, n):
            value = sum(a * b for a, b in zip(m, lam))
            for j in range(n):
                if value == lam[j]:
                    out[j].append(m)
    return out


# -- centralizer-exact -----------------------------------------------------

EXACT_VALUES = (2, 3, 4, 6, 8, 12)
# spectra with more resonances are left out (see the README on left-out
# inputs): diag(12, 8, 2, 2, 2, 2) has 129 and takes seconds on its own
EXACT_MAX_RESONANCES = 60
EXACT_MIX = {"centralizer": 7, "resonances": 1, "pdnf-basis": 1, "check": 1}


def positive_resonances(lam):
    """Resonances of a positive integer spectrum by bounded depth-first search.

    Every m with <m, lam> = lam_j has |m| <= lam_j / min(lam), so the search
    over remaining targets is finite.
    """
    n = len(lam)
    out = []
    for j in range(n):
        found = []
        m = [0] * n

        def rec(i, rest):
            if i == n:
                if rest == 0 and sum(m) >= 2:
                    found.append(tuple(m))
                return
            for k in range(rest // lam[i] + 1):
                m[i] = k
                rec(i + 1, rest - k * lam[i])
            m[i] = 0

        rec(0, lam[j])
        found.sort(key=lambda v: (sum(v), v))
        out.append(found)
    return out


def jordan_sizes(lam, nilpotent):
    """Jordan block sizes per eigenvalue, from chains (i, i+1) of equal values."""
    linked = set(nilpotent)
    sizes: dict[int, list[int]] = {}
    i = 0
    while i < len(lam):
        k = i
        while (k, k + 1) in linked:
            k += 1
        sizes.setdefault(lam[i], []).append(k - i + 1)
        i = k + 1
    return sizes


def commutant_dimension(lam, nilpotent):
    """dim of {B : B A = A B}: sum over eigenvalues of sum_ab min(p_a, p_b)."""
    return sum(
        min(a, b) for parts in jordan_sizes(lam, nilpotent).values() for a in parts for b in parts
    )


def _count_representations(lam, top):
    ways = [1] + [0] * top
    for v in lam:
        for t in range(v, top + 1):
            ways[t] += ways[t - v]
    return ways


def exact_cost_proxy(lam):
    """Work estimate used only to order multisets for stratified sampling.

    nfkit scans every composition up to the degree bound for each
    component, then eliminates a system over d + r unknowns.
    """
    n = len(lam)
    ways = _count_representations(lam, max(lam))
    r = sum(ways[v] - lam.count(v) for v in lam)
    bound = max(1, max(lam) // min(lam))
    scan = sum(math.comb(d + n - 1, n - 1) for d in range(2, bound + 1))
    d = sum(lam.count(v) ** 2 for v in set(lam))
    return n * scan + 3 * (r + d) ** 2, r


def no_resonance_spectrum(seed):
    """A two-dimensional positive spectrum without resonances, picked by the seed."""
    pairs = [
        list(c)
        for c in itertools.combinations(sorted(EXACT_VALUES, reverse=True), 2)
        if not any(positive_resonances(list(c)))
    ]
    return random.Random(f"defect:{seed}").choice(pairs)


class CostOrdered:
    """Weighted items sorted by a cost estimate, drawn by inverse CDF.

    Feeding it a ``Spread`` sequence gives every run nearly the same share
    of cheap and expensive items while the seed still moves each draw.
    """

    def __init__(self, rows):
        rows = sorted(rows, key=lambda row: (row[0], row[1]))
        self.items = [item for _cost, item, _w in rows]
        total = sum(w for _cost, _item, w in rows)
        acc = 0
        self.cdf = []
        for _cost, _item, w in rows:
            acc += w
            self.cdf.append(acc / total)

    def pick(self, u):
        return self.items[min(bisect.bisect_right(self.cdf, u), len(self.items) - 1)]


def exact_multisets(n, need_resonance=False):
    """Descending multisets of ``EXACT_VALUES``, weighted as independent uniform draws."""
    rows = []
    for combo in itertools.combinations_with_replacement(sorted(EXACT_VALUES, reverse=True), n):
        cost, r = exact_cost_proxy(combo)
        if r > EXACT_MAX_RESONANCES or (need_resonance and r == 0):
            continue
        weight = math.factorial(n)
        for v in set(combo):
            weight //= math.factorial(combo.count(v))
        rows.append((cost, combo, weight))
    return CostOrdered(rows)


def centralizer_exact(seed, tag="main"):
    rng = random.Random(f"centralizer-exact:{seed}:{tag}")
    kinds = weighted_cycle(EXACT_MIX, rng)
    sizes = {k: weighted_cycle({n: 1 for n in range(2, 7)}, rng) for k in EXACT_MIX}
    samplers = {}
    spreads = {}
    counters = {}
    while True:
        kind = next(kinds)
        n = next(sizes[kind])
        key = (kind, n)
        if key not in spreads:
            spreads[key] = Spread(rng)
            counters[key] = rng.randrange(10)
        # pdnf-basis only gets spectra with a resonance; see the README on
        # the known pdnf-basis defect
        skey = (n, kind == "pdnf-basis")
        if skey not in samplers:
            samplers[skey] = exact_multisets(*skey)
        t = counters[key]
        counters[key] += 1
        lam = list(samplers[skey].pick(spreads[key].next()))
        # every other spectrum: one Jordan block per repeated eigenvalue
        nilpotent = [(i, i + 1) for i in range(n - 1) if t % 2 and lam[i] == lam[i + 1]]
        res = positive_resonances(lam)
        expect = {"lam": lam, "nilpotent": nilpotent, "resonances": res}
        doc = None
        if kind in ("centralizer", "check"):
            terms = linear_terms(lam, nilpotent)
            # half of the resonant monomials, none in every tenth centralizer
            keys = [(j, m) for j, rj in enumerate(res) for m in rj]
            count = 0 if (kind == "centralizer" and t % 10 == 9) else (len(keys) + 1) // 2
            for key in rng.sample(keys, count):
                terms[key] = rand_coeff(rng)
            doc = field_doc(n, terms)
            expect["field"] = terms
        yield Request(kind, spectrum_doc(lam, nilpotent), doc, (), expect)


# -- normalizer-truncated --------------------------------------------------

TRUNCATED_SPECTRA = ((1, -1), (1, 1, -1), (1, -1, 0), (3, 2, -6))


def _truncated_mix():
    """Weights: the median lands among the cheap centralizers, p90 among n = 3 normalizers."""
    mix = {}
    for s in range(len(TRUNCATED_SPECTRA)):
        for D in (3, 4, 5):
            mix[("centralizer", s, D)] = 2
    for D in (3, 4, 5):
        mix[("normalizer", 0, D)] = 1
    for s in (1, 2, 3):
        mix[("normalizer", s, 3)] = 2
    return mix


TRUNCATED_MIX = _truncated_mix()


def normalizer_truncated(seed, tag="main"):
    rng = random.Random(f"normalizer-truncated:{seed}:{tag}")
    kinds = weighted_cycle(TRUNCATED_MIX, rng)
    table = {}
    while True:
        kind, s, D = next(kinds)
        lam = list(TRUNCATED_SPECTRA[s])
        n = len(lam)
        if (s, D) not in table:
            table[(s, D)] = resonances_by_search(lam, D)
        res = table[(s, D)]
        terms = linear_terms(lam)
        keys = [(j, m) for j, rj in enumerate(res) for m in rj]
        for key in keys:
            if rng.random() < 0.5:
                terms[key] = rand_coeff(rng)
        if keys and len(terms) == len(linear_terms(lam)):
            terms[keys[rng.randrange(len(keys))]] = rand_coeff(rng)
        expect = {"lam": lam, "field": terms, "D": D}
        yield Request(kind, spectrum_doc(lam), field_doc(n, terms), ("--truncate", str(D)), expect)


# -- invariants-multiplier -------------------------------------------------

MULTIPLIER_MIX = {"invariants": 3, "jacobi": 2, "reduce": 1}
# |lambda| bound per n, and a bound on |div A_s|, the target of the onediv
# search: past them single requests run for seconds in the completion (see
# the README on left-out inputs)
INVARIANT_RANGE = {4: 12, 5: 12, 6: 6}
DIVERGENCE_LIMIT = 12
INVARIANT_POOL = 400


def pair_degree(lam):
    """Total degree of the two-variable first integrals x_i^|q| x_j^p / gcd.

    The completion has to reach these degrees, and its cost grows with
    them; used only to order spectra for stratified sampling.
    """
    return sum(
        (p - q) // math.gcd(p, -q) for p in lam if p > 0 for q in lam if q < 0
    )


def invariant_pool(n, rng):
    """Seeded mixed-sign spectra of size n, ordered by ``pair_degree``."""
    top = INVARIANT_RANGE[n]
    rows = []
    while len(rows) < INVARIANT_POOL:
        lam = tuple(rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(n))
        if min(lam) < 0 < max(lam) and abs(sum(lam)) <= DIVERGENCE_LIMIT:
            rows.append((pair_degree(lam), lam, 1))
    return CostOrdered(rows)


def distinguished_generators(l1, l2, d1, d2):
    """Hilbert basis of {m >= 0 : <m, (l2 d1, l1 d2, -l1 l2)> = 0} by brute force.

    Every solution with m_1 <= 2 l1 and m_2 <= 2 l2 is listed and the
    minimal ones are kept; the family is admissible when exactly the two
    expected rows remain.
    """
    lam = (l2 * d1, l1 * d2, -l1 * l2)
    sols = []
    for a in range(2 * l1 + 1):
        for b in range(2 * l2 + 1):
            num = lam[0] * a + lam[1] * b
            if num and num % (l1 * l2) == 0:
                sols.append((a, b, num // (l1 * l2)))
    minimal = [s for s in sols if not any(t != s and all(x <= y for x, y in zip(t, s)) for t in sols)]
    return sorted(minimal)


def _distinguished_families():
    out = []
    for l1, l2 in itertools.permutations((2, 3, 5, 7), 2):
        for d1 in range(1, 6):
            for d2 in range(1, 6):
                want = sorted([(l1, 0, d1), (0, l2, d2)])
                if distinguished_generators(l1, l2, d1, d2) == want:
                    out.append((l1, l2, d1, d2))
    return out


ALPHA_VALUES = [Fraction(a, b) for a in range(1, 6) for b in range(1, 7)]
LADDER_LIMIT = 20


def ifac_alpha_pairs():
    """(a1, a2) of the (1, -1, 0) quadratic family away from the special values.

    At the axis fixed point the quadratic part has eigenvalues (a1, a2, 2)
    and cofactor a1 + a2 + 2, so the semi-invariant degree ladder - and
    with it the request's cost - runs up to (a1 + a2 + 2) / min(1, a1, a2).
    Pairs are ordered by that bound; those above ``LADDER_LIMIT`` are left
    out (see the README on left-out inputs).
    """
    rows = {}
    for a1 in ALPHA_VALUES:
        for a2 in ALPHA_VALUES:
            bound = (a1 + a2 + 2) / min(1, a1, a2)
            if a1 != a2 and a1 + a2 not in (0, 1, 2, 3) and bound <= LADDER_LIMIT:
                row = rows.setdefault((a1, a2), [bound, (a1, a2), 0])
                row[2] += 1
    return CostOrdered(rows.values())


def invariants_multiplier(seed, tag="main"):
    rng = random.Random(f"invariants-multiplier:{seed}:{tag}")
    kinds = weighted_cycle(MULTIPLIER_MIX, rng)
    sizes = weighted_cycle(dict.fromkeys(INVARIANT_RANGE, 1), rng)
    degrees = weighted_cycle({D: 1 for D in range(6, 11)}, rng)
    families = _distinguished_families()
    pools = {}
    alphas = ifac_alpha_pairs()
    alpha_spreads = {}
    cubic_phase = rng.randrange(3)
    jacobi_count = 0
    while True:
        kind = next(kinds)
        if kind == "invariants":
            n = next(sizes)
            if n not in pools:
                pools[n] = (invariant_pool(n, rng), Spread(rng))
            pool, spread = pools[n]
            lam = list(pool.pick(spread.next()))
            yield Request(kind, spectrum_doc(lam), None, (), {"lam": lam})
        elif kind == "reduce":
            l1, l2, d1, d2 = families[rng.randrange(len(families))]
            lam = [l2 * d1, l1 * d2, -l1 * l2]
            gens = sorted([(l1, 0, d1), (0, l2, d2)])
            cofactors = [(gens[0], 0.8), (gens[1], 0.8), (tuple(a + b for a, b in zip(*gens)), 0.4)]
            terms = linear_terms(lam)
            for k in range(3):
                for g, p in cofactors:
                    if rng.random() < p:
                        terms[(k, tuple(g[t] + (t == k) for t in range(3)))] = rand_coeff(rng)
            expect = {"lam": lam, "field": terms, "generators": gens}
            yield Request(kind, spectrum_doc(lam), field_doc(3, terms), (), expect)
        else:
            D = next(degrees)
            cubic = jacobi_count % 3 == cubic_phase
            jacobi_count += 1
            # one sequence per (D, cubic): the ladder cost multiplies with both
            if (D, cubic) not in alpha_spreads:
                alpha_spreads[(D, cubic)] = Spread(rng)
            a1, a2 = alphas.pick(alpha_spreads[(D, cubic)].next())
            a4 = rng.choice(ALPHA_VALUES)
            terms = {
                (0, (1, 0, 0)): Fraction(1), (1, (0, 1, 0)): Fraction(-1),
                (0, (1, 0, 1)): a1, (1, (0, 1, 1)): a2,
                (2, (0, 0, 2)): Fraction(1), (2, (1, 1, 0)): a4,
            }
            if cubic:
                terms[(2, (0, 0, 3))] = Fraction(1)
            flags = ("--r-min", "2", "--r-max", "5", "--truncate", str(D))
            expect = {"lam": [1, -1, 0], "field": terms, "D": D, "r": (2, 5)}
            yield Request(kind, spectrum_doc([1, -1, 0]), field_doc(3, terms), flags, expect)


WORKLOADS = {
    "centralizer-exact": centralizer_exact,
    "normalizer-truncated": normalizer_truncated,
    "invariants-multiplier": invariants_multiplier,
}
