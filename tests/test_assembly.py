"""Integer system assembly: `CommutatorColumns` against the `Fraction` field algebra."""

from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from nfkit.fields import (
    INF,
    CommutatorColumns,
    PolySeries,
    PolyVectorField,
    divergence,
    lie_bracket,
    lie_derivative,
    series_times_field,
)
from nfkit.linalg import RatMatrix, mat_kernel, mat_rank

BUDGETS = st.sampled_from([INF, 0, 1, 2, 3, 4, 5])


def _row(n, max_degree=3):
    return st.lists(st.integers(0, max_degree), min_size=n, max_size=n).map(tuple).filter(
        lambda m: sum(m) <= max_degree
    )


@st.composite
def systems(draw):
    """A field h with a budget, a system budget, and unknown keys: vector (j, m) and scalar m."""
    n = draw(st.integers(1, 3))
    keys = st.tuples(st.integers(0, n - 1), _row(n))
    coefficients = st.fractions(-5, 5, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(keys, coefficients, max_size=5))
    h = PolyVectorField(n, terms, draw(BUDGETS))
    vector = draw(st.lists(keys, max_size=6, unique=True))
    scalar = draw(st.lists(_row(n), max_size=5, unique=True))
    return h, draw(BUDGETS), vector, scalar


def _scaled(h, terms):
    """L times ``terms``, L the lcm of h's denominators."""
    L = lcm(*(c.denominator for c in h.terms.values()))
    return {key: L * c for key, c in terms.items()}


def _is_integer_column(column):
    return all(type(c) is int and c for c in column.values())


@settings(max_examples=300, deadline=None)
@given(systems())
def test_columns_are_L_times_the_fraction_results(case):
    """Entry by entry, at finite and infinite budgets: L [x^m e_j, h] is `lie_bracket`,
    -L x^k h is `series_times_field`, and L (X_h(x^m) - div h x^m) is `lie_derivative`
    minus the product with `divergence`, each cut at the builder's budget."""
    h, trunc, vector, scalar = case
    n = h.n
    system = CommutatorColumns(h, trunc)
    assert system.trunc == min(h.trunc, trunc)
    for j, m in vector:
        want = lie_bracket(PolyVectorField.monomial(n, j, m), h).truncated(trunc)
        column = system.bracket(j, m)
        assert _is_integer_column(column)
        assert column == _scaled(h, want.terms)
    for k in scalar:
        want = series_times_field(PolySeries.monomial(n, k), h).truncated(trunc).scale(-1)
        column = system.scalar(k)
        assert _is_integer_column(column)
        assert column == _scaled(h, want.terms)
    div = divergence(h)
    multipliers = CommutatorColumns(h, min(trunc, div.trunc))
    for m in scalar:
        mono = PolySeries.monomial(n, m)
        want = (lie_derivative(h, mono) - div * mono).truncated(trunc)
        column = multipliers.multiplier(m)
        assert _is_integer_column(column)
        assert column == _scaled(h, want.terms)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_kernels_match_the_fraction_assembled_systems(case):
    """A normalizer-shaped system ([g, h] = lambda h) and a multiplier-shaped system have
    the kernel, supports and rank of the same systems assembled in `Fraction`."""
    h, trunc, vector, scalar = case
    n = h.n
    system = CommutatorColumns(h, trunc)
    integer = [system.bracket(j, m) for j, m in vector] + [system.scalar(k) for k in scalar]
    rational = [
        lie_bracket(PolyVectorField.monomial(n, j, m), h).truncated(trunc).terms for j, m in vector
    ]
    rational += [
        series_times_field(PolySeries.monomial(n, k), h).truncated(trunc).scale(-1).terms
        for k in scalar
    ]
    div = divergence(h)
    multipliers = CommutatorColumns(h, min(trunc, div.trunc))
    integer_phi = [multipliers.multiplier(m) for m in scalar]
    rational_phi = []
    for m in scalar:
        mono = PolySeries.monomial(n, m)
        rational_phi.append((lie_derivative(h, mono) - div * mono).truncated(trunc).terms)
    for ints, fracs in [(integer, rational), (integer_phi, rational_phi)]:
        got, want = RatMatrix(ints), RatMatrix(fracs)
        assert mat_kernel(got) == mat_kernel(want)
        assert mat_rank(got) == mat_rank(want)
        assert sorted(got._ints) == sorted(want._ints)
