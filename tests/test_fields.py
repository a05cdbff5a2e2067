"""Polynomial vector field algebra: brackets, derivatives, divergence, determinants."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfkit.centralizer import (
    centralizer_exact,
    centralizer_truncated,
    normalizer_reduce,
    normalizer_truncated,
)
from nfkit.errors import DimensionMismatch, InputError, LinearPartMismatch, NotPDNF
from nfkit.fields import (
    INF,
    PolySeries,
    PolyVectorField,
    determinant_multiplier,
    deviation_part,
    divergence,
    is_pdnf,
    lie_bracket,
    lie_derivative,
    pdnf_basis,
    series_times_field,
)
from nfkit.invariants import decompose_eta, invariant_generators
from nfkit.jacobi import divergence_integral_check, solve_multiplier
from nfkit.resonance import resonance_set, semiinvariant_degree_ladder
from nfkit.spectrum import build_spectrum

from oracles import random_field, random_series


def diag_field(*values):
    n = len(values)
    return PolyVectorField(
        n, {(i, tuple(1 if t == i else 0 for t in range(n))): values[i] for i in range(n) if values[i]}
    )


def test_bracket_eigenvector_property():
    # [A x, x^m e_j] = (<m, lam> - lam_j) x^m e_j for diagonal A
    A = diag_field(12, 6, 3)
    mono = PolyVectorField.monomial(3, 0, (0, 2, 0))
    assert lie_bracket(A, mono).is_zero()  # resonant
    mono2 = PolyVectorField.monomial(3, 0, (2, 0, 0))
    br = lie_bracket(A, mono2)
    assert br.terms == {(0, (2, 0, 0)): 24 - 12}


def test_bracket_eg3_displayed_entry():
    # [B, p] first entry carries (2 b22 - b11) a1 x2^2 + ...
    b11, b22, b33 = F(5), F(7), F(11)
    a = [F(2), F(3), F(4), F(6)]
    B = diag_field(b11, b22, b33)
    p = PolyVectorField(
        3,
        {
            (0, (0, 2, 0)): a[0],
            (0, (0, 1, 2)): a[1],
            (0, (0, 0, 4)): a[2],
            (1, (0, 0, 2)): a[3],
        },
    )
    br = lie_bracket(B, p)
    assert br.coefficient(0, (0, 2, 0)) == (2 * b22 - b11) * a[0]
    assert br.coefficient(0, (0, 1, 2)) == (b22 + 2 * b33 - b11) * a[1]
    assert br.coefficient(0, (0, 0, 4)) == (4 * b33 - b11) * a[2]
    assert br.coefficient(1, (0, 0, 2)) == (2 * b33 - b22) * a[3]


def test_bracket_self_is_zero():
    rng = random.Random(5)
    for _ in range(20):
        f = random_field(rng, 3)
        assert lie_bracket(f, f).is_zero()


def test_algebraic_identities_randomized():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 4)
        g = random_field(rng, n)
        h = random_field(rng, n)
        k = random_field(rng, n)
        phi = random_series(rng, n)
        psi = random_series(rng, n)
        # antisymmetry
        assert (lie_bracket(g, h) + lie_bracket(h, g)).is_zero()
        # Jacobi identity
        jac = (
            lie_bracket(g, lie_bracket(h, k))
            + lie_bracket(h, lie_bracket(k, g))
            + lie_bracket(k, lie_bracket(g, h))
        )
        assert jac.is_zero()
        # X_g X_h - X_h X_g = X_[g,h] applied to a random series
        lhs = lie_derivative(g, lie_derivative(h, phi)) - lie_derivative(
            h, lie_derivative(g, phi)
        )
        assert lhs == lie_derivative(lie_bracket(g, h), phi)
        # [g, psi h] = X_g(psi) h + psi [g, h]
        lhs2 = lie_bracket(g, series_times_field(psi, h))
        rhs2 = series_times_field(lie_derivative(g, psi), h) + series_times_field(
            psi, lie_bracket(g, h)
        )
        assert (lhs2 - rhs2).is_zero()


def sparse_fields(n, max_degree=3, max_terms=4):
    """Vector fields in n variables with a few terms of degree <= max_degree."""
    rows = st.lists(st.integers(0, max_degree), min_size=n, max_size=n).map(tuple)
    keys = st.tuples(st.integers(0, n - 1), rows.filter(lambda m: sum(m) <= max_degree))
    coefficients = st.fractions(-5, 5, max_denominator=4).filter(bool)
    terms = st.dictionaries(keys, coefficients, max_size=max_terms)
    return terms.map(lambda data: PolyVectorField(n, data))


FIELD_TRIPLES = st.integers(1, 3).flatmap(lambda n: st.tuples(*[sparse_fields(n)] * 3))


@settings(max_examples=80, deadline=None)
@given(FIELD_TRIPLES)
def test_antisymmetry_property(fields3):
    g, h, _ = fields3
    assert (lie_bracket(g, h) + lie_bracket(h, g)).is_zero()
    assert lie_bracket(g, g).is_zero()


@settings(max_examples=80, deadline=None)
@given(FIELD_TRIPLES)
def test_jacobi_identity_property(fields3):
    g, h, k = fields3
    jac = (
        lie_bracket(g, lie_bracket(h, k))
        + lie_bracket(h, lie_bracket(k, g))
        + lie_bracket(k, lie_bracket(g, h))
    )
    assert jac.is_zero()


def test_lie_derivative_examples():
    A = diag_field(12, 6, 3)
    phi = PolySeries.monomial(3, (1, 1, 1))
    assert lie_derivative(A, phi).terms == {(1, 1, 1): 21}
    Q2 = PolyVectorField.monomial(3, 1, (0, 1, 0))
    assert lie_derivative(Q2, PolySeries.monomial(3, (2, 3, 1))).terms == {(2, 3, 1): 3}


def test_divergence_examples():
    A = diag_field(12, 6, 3)
    assert divergence(A).terms == {(0, 0, 0): 21}
    # quadratic part of the 3d multiplier example
    f2 = PolyVectorField(
        3,
        {(0, (1, 0, 1)): F(1, 2), (1, (0, 1, 1)): F(1, 3), (2, (0, 0, 2)): 1, (2, (1, 1, 0)): F(1, 5)},
    )
    assert divergence(f2).terms == {(0, 0, 1): F(1, 2) + F(1, 3) + 2}
    # the worked diag(12,6,3) field has divergence-free nonlinearity
    p = PolyVectorField(3, {(0, (0, 2, 0)): 1, (0, (0, 1, 2)): 1, (0, (0, 0, 4)): 1, (1, (0, 0, 2)): 1})
    assert divergence(A + p).terms == {(0, 0, 0): 21}


def test_is_pdnf():
    s = build_spectrum(3, 1, [[12], [6], [3]])
    f = diag_field(12, 6, 3) + PolyVectorField(3, {(0, (0, 2, 0)): 1, (1, (0, 0, 2)): 1})
    assert is_pdnf(s, f)
    bad = f + PolyVectorField.monomial(3, 0, (2, 0, 0))
    assert not is_pdnf(s, bad)
    assert is_pdnf(s, diag_field(12, 6, 3))


# Every solver that needs the normal form, called on a field that is not in it.
NORMAL_FORM_ENTRY_POINTS = {
    "centralizer_exact": centralizer_exact,
    "centralizer_truncated": lambda s, f: centralizer_truncated(s, f, 3),
    "normalizer_truncated": lambda s, f: normalizer_truncated(s, f, 3),
    "normalizer_reduce": lambda s, f: normalizer_reduce(
        s, f, PolyVectorField.zero(3), PolySeries.zero(3), 3
    ),
    "solve_multiplier": lambda s, f: solve_multiplier(s, f, 1, 2, 3),
    "divergence_integral_check": divergence_integral_check,
    "decompose_eta": lambda s, f: decompose_eta(s, invariant_generators(s), f),
}


@pytest.mark.parametrize("entry", sorted(NORMAL_FORM_ENTRY_POINTS))
def test_solvers_refuse_a_field_not_in_normal_form(entry):
    s = build_spectrum(3, 1, [[12], [6], [3]])
    # x1^2 e1 is not resonant: 2 * 12 != 12; a constant 5 e1 moves the stationary point
    for extra in (PolyVectorField.monomial(3, 0, (2, 0, 0)), PolyVectorField(3, {(0, (0, 0, 0)): 5})):
        f = diag_field(12, 6, 3) + extra
        assert not is_pdnf(s, f)
        with pytest.raises(NotPDNF, match="^field is not in normal form for this spectrum$"):
            NORMAL_FORM_ENTRY_POINTS[entry](s, f)


def test_is_pdnf_linear_mismatch():
    s = build_spectrum(3, 1, [[12], [6], [3]])
    with pytest.raises(LinearPartMismatch):
        is_pdnf(s, diag_field(12, 6, 4))


def test_deviation_accepts_both_forms():
    s = build_spectrum(2, 1, [[1], [-1]])
    p = PolyVectorField.monomial(2, 0, (2, 1))
    dev1, explicit1 = deviation_part(s, diag_field(1, -1) + p)
    dev2, explicit2 = deviation_part(s, p)
    assert explicit1 and not explicit2
    assert dev1 == dev2 == p


def test_deviation_checks_nilpotent():
    s = build_spectrum(2, 1, [[3], [3]], [(0, 1, 1)])
    f = PolyVectorField(2, {(0, (1, 0)): 3, (1, (0, 1)): 3, (0, (0, 1)): 1})
    dev, explicit = deviation_part(s, f)
    assert explicit and dev.terms == {(0, (0, 1)): 1}
    with pytest.raises(LinearPartMismatch):
        deviation_part(s, diag_field(3, 3))  # nilpotent entry missing


def test_pdnf_basis_eg3():
    s = build_spectrum(3, 1, [[12], [6], [3]])
    basis = pdnf_basis(s, 4)
    keys = [next(iter(b.terms)) for b in basis]
    assert keys == [(0, (0, 2, 0)), (0, (0, 1, 2)), (0, (0, 0, 4)), (1, (0, 0, 2))]
    assert len(basis) == resonance_set(s).total


def test_pdnf_basis_eg4_counts():
    s = build_spectrum(6, 1, [[12], [12], [6], [6], [6], [3]])
    assert len(pdnf_basis(s, 4)) == 23
    sj = build_spectrum(6, 1, [[3], [3], [3], [2], [2], [1]], [(0, 1, 1), (1, 2, 1), (3, 4, 1)])
    assert len(pdnf_basis(sj, 3)) == 11


def test_pdnf_basis_infinite_without_cap():
    from nfkit.errors import InfiniteResonanceWithoutCap

    s = build_spectrum(2, 1, [[1], [-1]])
    with pytest.raises(InfiniteResonanceWithoutCap):
        pdnf_basis(s)
    assert len(pdnf_basis(s, 3)) == 2


def test_determinant_example():
    f = PolyVectorField(2, {(0, (1, 0)): 1, (0, (2, 1)): 1, (1, (0, 1)): -1})
    g1 = PolyVectorField(2, {(0, (1, 0)): 1, (1, (0, 1)): -1})
    det = determinant_multiplier(f, [g1])
    assert det.terms == {(2, 2): -1}
    resid = lie_derivative(f, det) - divergence(f) * det
    assert resid.is_zero()
    assert determinant_multiplier(f, [f]).is_zero()


def test_determinant_dimension_check():
    f = PolyVectorField.monomial(3, 0, (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        determinant_multiplier(f, [f])


def test_truncation_propagates():
    g = random_field(random.Random(1), 2, trunc=4)
    h = random_field(random.Random(2), 2, trunc=6)
    assert lie_bracket(g, h).trunc == 4
    phi = random_series(random.Random(3), 2, trunc=5)
    assert lie_derivative(h, phi).trunc == 5
    assert (phi * phi).trunc == 5
    assert divergence(g).trunc == 3
    assert divergence(PolyVectorField.zero(2)).trunc == INF


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolySeries(2, {(2.7, 0): 1}),
        lambda: PolySeries(2, {(2.0, 0): 1}),
        lambda: PolySeries(2, {(True, 0): 1}),
        lambda: PolyVectorField(2, {(0.0, (1, 1)): 1}),
        lambda: PolyVectorField(2, {(True, (1, 1)): 1}),
        lambda: PolyVectorField(2, {(0, (1.0, 1)): 1}),
        lambda: PolyVectorField(2, {(0, (False, 1)): 1}),
        lambda: PolySeries(2, {}, trunc=2.5),
        lambda: PolySeries(2, {}, trunc=True),
        lambda: PolyVectorField(2, {}, trunc=2.5),
        lambda: PolyVectorField(2, {}, trunc=True),
        lambda: PolyVectorField(2, {}, trunc=-1),
        lambda: build_spectrum(True, 1, [[1]]),
        lambda: build_spectrum(1.0, 1, [[1]]),
        lambda: build_spectrum(1, True, [[1]]),
        lambda: build_spectrum(2, 1, [[1], [1]], [(0.0, 1, 1)]),
        lambda: build_spectrum(2, 1, [[1], [1]], [(0, True, 1)]),
    ],
    ids=[
        "series-exponent-2.7", "series-exponent-2.0", "series-exponent-True",
        "field-component-0.0", "field-component-True", "field-exponent-1.0",
        "field-exponent-False", "series-trunc-2.5", "series-trunc-True", "field-trunc-2.5",
        "field-trunc-True", "field-trunc--1", "spectrum-n-True", "spectrum-n-1.0",
        "spectrum-q-True", "nilpotent-i-0.0", "nilpotent-j-True",
    ],
)
def test_constructors_refuse_floats_and_booleans(build):
    """Exponents, component indices, budgets, n, q and nilpotent indices are ints,
    never coerced from a float or a bool."""
    with pytest.raises(DimensionMismatch):
        build()


@pytest.mark.parametrize("bad", [0.5, True, "1/3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: build_spectrum(2, 1, [[1], [x]]),
        lambda x: build_spectrum(2, 1, [[1], [1]], [(0, 1, x)]),
        lambda x: PolySeries(2, {(1, 0): x}),
        lambda x: PolyVectorField(2, {(0, (1, 1)): x}),
        lambda x: PolySeries.monomial(2, (1, 0), x),
        lambda x: PolyVectorField.monomial(2, 0, (1, 1), x),
        lambda x: PolySeries.monomial(2, (1, 0)).scale(x),
        lambda x: PolyVectorField.linear_combination(2, [(x, PolyVectorField.monomial(2, 0, (1, 1)))]),
        lambda x: semiinvariant_degree_ladder([x, 1], 2),
        lambda x: semiinvariant_degree_ladder([1, 2], x),
    ],
    ids=[
        "spectrum-row", "spectrum-nilpotent", "series", "field", "series-monomial",
        "field-monomial", "scale", "linear-combination", "ladder-mu", "ladder-value",
    ],
)
def test_coefficients_refuse_floats_bools_and_strings(build, bad):
    """Exact coefficients are ints or Fractions, never coerced from anything else."""
    with pytest.raises(InputError, match="must be an int or a Fraction"):
        build(bad)


def test_linear_combination():
    rng = random.Random(23)
    g = random_field(rng, 2, trunc=4)
    h = random_field(rng, 2, trunc=6)
    pairs = [(2, g), (0, PolyVectorField.zero(2, trunc=1)), (F(-1, 3), h)]
    combo = PolyVectorField.linear_combination(2, pairs, 5)
    assert combo == g.scale(2) + h.scale(F(-1, 3))
    assert combo.trunc == 4  # zero coefficients contribute no budget
    with pytest.raises(DimensionMismatch):
        PolyVectorField.linear_combination(2, [(1, g), (1, PolySeries.monomial(2, (1, 0)))])
    with pytest.raises(DimensionMismatch):
        PolySeries.linear_combination(3, [(1, PolySeries.monomial(2, (1, 0)))])


def _sympy_poly(sp, xs, terms):
    return sp.Add(*(
        sp.Rational(c.numerator, c.denominator) * sp.Mul(*(x**e for x, e in zip(xs, m)))
        for m, c in terms.items()
    ))


def _sympy_terms(sp, xs, expr, trunc):
    """Exponent row -> coefficient of a sympy polynomial, degrees above ``trunc`` dropped."""
    poly = sp.Poly(sp.expand(expr), *xs)
    return {m: F(int(c.p), int(c.q)) for m, c in poly.terms() if c != 0 and sum(m) <= trunc}


def test_bracket_and_lie_derivative_match_sympy():
    """[g, h]_j = sum_i g_i d(h_j)/dx_i - h_i d(g_j)/dx_i and X_g(phi) = sum_i g_i d(phi)/dx_i."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        xs = sp.symbols(f"x0:{n}")
        g_trunc, h_trunc = rng.choice([(INF, INF), (4, INF), (5, 3)])
        g = random_field(rng, n, terms=5, trunc=g_trunc)
        h = random_field(rng, n, terms=5, trunc=h_trunc)
        phi = random_series(rng, n, terms=4, trunc=h_trunc)
        gs = [_sympy_poly(sp, xs, g.component(i).terms) for i in range(n)]
        hs = [_sympy_poly(sp, xs, h.component(i).terms) for i in range(n)]
        trunc = min(g_trunc, h_trunc)
        bracket = lie_bracket(g, h)
        for j in range(n):
            want = sum(gs[i] * sp.diff(hs[j], xs[i]) - hs[i] * sp.diff(gs[j], xs[i]) for i in range(n))
            assert bracket.component(j).terms == _sympy_terms(sp, xs, want, trunc)
        p = _sympy_poly(sp, xs, phi.terms)
        want = sum(gs[i] * sp.diff(p, xs[i]) for i in range(n))
        assert lie_derivative(g, phi).terms == _sympy_terms(sp, xs, want, trunc)
