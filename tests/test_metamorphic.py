"""Metamorphic properties: relabeling or rescaling a spectrum must not change the answers.

These reach sizes (n up to 5) where the brute-force oracles are too slow,
by comparing nfkit with itself on two presentations of the same problem:
permuted coordinates of a diagonal spectrum, or of a spectrum with Jordan
blocks when the order inside each block is kept, or a q = 1 spectrum
scaled by a nonzero rational.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfkit.centralizer import centralizer_exact
from nfkit.errors import RankMismatch
from nfkit.fields import PolyVectorField
from nfkit.invariants import check_free_module, check_onediv, invariant_generators
from nfkit.jacobi import solve_multiplier
from nfkit.resonance import resonance_set
from nfkit.spectrum import build_spectrum

from oracles import random_pdnf

# degree cap of the resonance listing when the set is infinite
CAP = 3


def permuted(m, perm):
    """Exponent row with entry i moved to position perm[i]."""
    out = [0] * len(m)
    for i, x in enumerate(m):
        out[perm[i]] = x
    return tuple(out)


def permute_spectrum(s, perm):
    rows = [None] * s.n
    for i, row in enumerate(s.lam):
        rows[perm[i]] = row
    return build_spectrum(s.n, s.q, rows, [(perm[i], perm[j], c) for i, j, c in s.nilpotent])


def permute_field(f, perm):
    terms = {(perm[j], permuted(m, perm)): c for (j, m), c in f.terms.items()}
    return PolyVectorField(f.n, terms, f.trunc)


@st.composite
def diagonal_spectra(draw, values, max_n=5, qs=(1,)):
    """A diagonal spectrum with n = 2..max_n and nonzero eigenvalue rows from ``values``."""
    n = draw(st.integers(2, max_n))
    q = draw(st.sampled_from(qs))
    row = st.tuples(*[st.sampled_from(values)] * q).filter(any)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    try:
        return build_spectrum(n, q, rows)
    except RankMismatch:
        assume(False)


def with_permutation(spectra):
    return spectra.flatmap(lambda s: st.tuples(st.just(s), st.permutations(range(s.n))))


MIXED_SIGN = diagonal_spectra(range(-3, 4), qs=(1, 2))
# positive eigenvalues: every resonance set is finite
FINITE = diagonal_spectra((2, 3, 4, 6, 8, 12))


@st.composite
def jordan_spectra(draw, values, max_n=5, qs=(1,)):
    """A spectrum with n = 2..max_n and at least one Jordan block: a run of equal
    eigenvalue rows from ``values``, chained by nilpotent entries (i, i + 1)."""
    n = draw(st.integers(2, max_n))
    q = draw(st.sampled_from(qs))
    row = st.tuples(*[st.sampled_from(values)] * q).filter(any)
    links = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1).filter(any))
    rows = [draw(row)]
    for linked in links:
        rows.append(rows[-1] if linked else draw(row))
    try:
        return build_spectrum(n, q, rows, [(i, i + 1, 1) for i, linked in enumerate(links) if linked])
    except RankMismatch:
        assume(False)


def jordan_blocks(s):
    """The coordinates linked by nilpotent entries, each block in increasing order."""
    label = list(range(s.n))
    for i, j, _c in s.nilpotent:
        label = [label[i] if x == label[j] else x for x in label]
    blocks = {}
    for i, x in enumerate(label):
        blocks.setdefault(x, []).append(i)
    return list(blocks.values())


def with_block_order_permutation(spectra):
    """(s, perm) with perm[i] < perm[j] whenever i < j lie in one Jordan block of s,
    so every permuted nilpotent entry stays strictly upper triangular."""
    def keep_block_order(s, perm):
        out = list(perm)
        for block in jordan_blocks(s):
            for i, target in zip(block, sorted(perm[i] for i in block)):
                out[i] = target
        return s, out

    return spectra.flatmap(
        lambda s: st.permutations(range(s.n)).map(lambda perm: keep_block_order(s, perm))
    )


JORDAN_MIXED_SIGN = jordan_spectra(range(-3, 4), qs=(1, 2))
JORDAN_FINITE = jordan_spectra((2, 3, 4, 6, 8, 12))


def resonance_pairs(s):
    return set(resonance_set(s, CAP).pairs())


def verdicts(s):
    onediv = check_onediv(s)
    return check_free_module(s).free, onediv.holds, onediv.div_nonzero


def check_resonances_and_generators(s, perm):
    t = permute_spectrum(s, perm)
    assert resonance_pairs(t) == {(perm[j], permuted(m, perm)) for j, m in resonance_pairs(s)}
    inv_s, inv_t = invariant_generators(s), invariant_generators(t)
    assert set(inv_t.generators) == {permuted(g, perm) for g in inv_s.generators}
    assert inv_t.independent == inv_s.independent
    assert verdicts(t) == verdicts(s)


@settings(max_examples=40, deadline=None)
@given(with_permutation(MIXED_SIGN))
def test_permuting_coordinates_permutes_resonances_and_generators(case):
    check_resonances_and_generators(*case)


@settings(max_examples=40, deadline=None)
@given(with_block_order_permutation(JORDAN_MIXED_SIGN))
def test_permuting_jordan_coordinates_permutes_resonances_and_generators(case):
    check_resonances_and_generators(*case)


def check_exact_centralizer(s, perm, seed):
    rs = resonance_set(s)
    f = random_pdnf(s, random.Random(seed), rs.degree_bound or 2, density=0.5)
    t = permute_spectrum(s, perm)
    res_s, res_t = centralizer_exact(s, f), centralizer_exact(t, permute_field(f, perm))
    assert (res_t.dimension, res_t.d, res_t.r) == (res_s.dimension, res_s.d, res_s.r)
    assert verdicts(t) == verdicts(s)


@settings(max_examples=25, deadline=None)
@given(with_permutation(FINITE), st.integers(0, 2**32 - 1))
def test_permuting_coordinates_keeps_the_exact_centralizer(case, seed):
    check_exact_centralizer(*case, seed)


@settings(max_examples=25, deadline=None)
@given(with_block_order_permutation(JORDAN_FINITE), st.integers(0, 2**32 - 1))
def test_permuting_jordan_coordinates_keeps_the_exact_centralizer(case, seed):
    check_exact_centralizer(*case, seed)


def ladder_outcome(ladder):
    return [
        (e.r, e.status, e.failed_degree, e.solution_dimension, e.lowest_order_dimension)
        for e in ladder.entries
    ]


def check_multiplier_ladder(s, perm, seed):
    f = random_pdnf(s, random.Random(seed), 3, density=0.5, force_nonlinear=True)
    t = permute_spectrum(s, perm)
    D = 5
    ladder_s = solve_multiplier(s, f, 1, 4, D)
    ladder_t = solve_multiplier(t, permute_field(f, perm), 1, 4, D)
    assert ladder_outcome(ladder_t) == ladder_outcome(ladder_s)


# q = 1 spectra whose multiplier supports are not empty
MULTIPLIER_SPECTRA = st.sampled_from([(1, -1, 0), (1, 1, -1), (2, -1, -1), (1, -1, 1, -1)]).map(
    lambda values: build_spectrum(len(values), 1, [[v] for v in values])
)
# the same eigenvalues with Jordan blocks, one of them on coordinates that are not adjacent
JORDAN_MULTIPLIER_SPECTRA = st.sampled_from([
    ((1, 1, -1), [(0, 1, 1)]),
    ((2, -1, -1), [(1, 2, 1)]),
    ((1, -1, 1, -1), [(0, 2, 1)]),
    ((1, -1, 1, -1), [(0, 2, 1), (1, 3, 1)]),
]).map(lambda case: build_spectrum(len(case[0]), 1, [[v] for v in case[0]], case[1]))


@settings(max_examples=40, deadline=None)
@given(with_permutation(MULTIPLIER_SPECTRA), st.integers(0, 2**32 - 1))
def test_permuting_coordinates_keeps_the_multiplier_ladder(case, seed):
    check_multiplier_ladder(*case, seed)


@settings(max_examples=40, deadline=None)
@given(with_block_order_permutation(JORDAN_MULTIPLIER_SPECTRA), st.integers(0, 2**32 - 1))
def test_permuting_jordan_coordinates_keeps_the_multiplier_ladder(case, seed):
    check_multiplier_ladder(*case, seed)


NONZERO_RATIONALS = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)
)


@settings(max_examples=40, deadline=None)
@given(diagonal_spectra(range(-3, 4)), NONZERO_RATIONALS)
def test_scaling_a_rational_spectrum_keeps_resonances_generators_and_verdicts(s, c):
    t = build_spectrum(s.n, 1, [[c * row[0]] for row in s.lam])
    assert resonance_set(t, CAP).by_component == resonance_set(s, CAP).by_component
    assert invariant_generators(t) == invariant_generators(s)
    assert (check_free_module(t), check_onediv(t)) == (check_free_module(s), check_onediv(s))
