"""Metamorphic properties: relabeling or rescaling a spectrum must not change the answers.

These reach sizes (n up to 5) where the brute-force oracles are too slow,
by comparing nfkit with itself on two presentations of the same problem:
permuted coordinates of a diagonal spectrum, or a q = 1 spectrum scaled
by a nonzero rational.
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
    return build_spectrum(s.n, s.q, rows)


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


def resonance_pairs(s):
    return set(resonance_set(s, CAP).pairs())


def verdicts(s):
    onediv = check_onediv(s)
    return check_free_module(s).free, onediv.holds, onediv.div_nonzero


@settings(max_examples=40, deadline=None)
@given(with_permutation(MIXED_SIGN))
def test_permuting_coordinates_permutes_resonances_and_generators(case):
    s, perm = case
    t = permute_spectrum(s, perm)
    assert resonance_pairs(t) == {(perm[j], permuted(m, perm)) for j, m in resonance_pairs(s)}
    inv_s, inv_t = invariant_generators(s), invariant_generators(t)
    assert set(inv_t.generators) == {permuted(g, perm) for g in inv_s.generators}
    assert inv_t.independent == inv_s.independent
    assert verdicts(t) == verdicts(s)


@settings(max_examples=25, deadline=None)
@given(with_permutation(FINITE), st.integers(0, 2**32 - 1))
def test_permuting_coordinates_keeps_the_exact_centralizer(case, seed):
    s, perm = case
    rs = resonance_set(s)
    f = random_pdnf(s, random.Random(seed), rs.degree_bound or 2, density=0.5)
    t = permute_spectrum(s, perm)
    res_s, res_t = centralizer_exact(s, f), centralizer_exact(t, permute_field(f, perm))
    assert (res_t.dimension, res_t.d, res_t.r) == (res_s.dimension, res_s.d, res_s.r)
    assert verdicts(t) == verdicts(s)


def ladder_outcome(ladder):
    return [
        (e.r, e.status, e.failed_degree, e.solution_dimension, e.lowest_order_dimension)
        for e in ladder.entries
    ]


# q = 1 spectra whose multiplier supports are not empty
MULTIPLIER_SPECTRA = st.sampled_from([(1, -1, 0), (1, 1, -1), (2, -1, -1), (1, -1, 1, -1)]).map(
    lambda values: build_spectrum(len(values), 1, [[v] for v in values])
)


@settings(max_examples=40, deadline=None)
@given(with_permutation(MULTIPLIER_SPECTRA), st.integers(0, 2**32 - 1))
def test_permuting_coordinates_keeps_the_multiplier_ladder(case, seed):
    s, perm = case
    f = random_pdnf(s, random.Random(seed), 3, density=0.5, force_nonlinear=True)
    t = permute_spectrum(s, perm)
    D = 5
    ladder_s = solve_multiplier(s, f, 1, 4, D)
    ladder_t = solve_multiplier(t, permute_field(f, perm), 1, 4, D)
    assert ladder_outcome(ladder_t) == ladder_outcome(ladder_s)


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
