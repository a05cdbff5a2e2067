"""Invariant algebra, module checks, reduction by invariants, certificates."""

import random
from fractions import Fraction as F

import pytest

from nfkit.errors import NotFreeModuleShape, ZeroEigenvalue
from nfkit.fields import (
    PolySeries,
    PolyVectorField,
    lie_derivative,
    series_times_field,
)
from nfkit.invariants import (
    check_free_module,
    check_onediv,
    decompose_eta,
    invariant_generators,
    quadratic_from_nu,
    reduce_vectorfield,
    substitute_generators,
    triviality_certificate,
)
from nfkit.spectrum import build_spectrum

from oracles import brute_free_module_witness, pairing


def diag_field(*values):
    n = len(values)
    return PolyVectorField(
        n, {(i, tuple(1 if t == i else 0 for t in range(n))): values[i] for i in range(n) if values[i]}
    )


def qfield(n, i):
    return PolyVectorField.monomial(n, i, tuple(1 if t == i else 0 for t in range(n)))


def test_invariant_generators_examples():
    s = build_spectrum(4, 2, [[1, 0], [-2, 0], [0, 3], [0, -1]])
    inv = invariant_generators(s)
    assert set(inv.generators) == {(2, 1, 0, 0), (0, 0, 1, 3)}
    assert inv.independent

    s2 = build_spectrum(4, 2, [[1, 0], [0, 1], [1, 2], [-2, -3]])
    inv2 = invariant_generators(s2)
    assert set(inv2.generators) == {(1, 1, 1, 1), (1, 0, 3, 2), (2, 3, 0, 1)}
    assert not inv2.independent

    s3 = build_spectrum(3, 1, [[15], [10], [-6]])
    inv3 = invariant_generators(s3)
    assert set(inv3.generators) == {(2, 0, 5), (0, 3, 5)}
    assert inv3.independent


def test_check_free_module_examples():
    assert check_free_module(build_spectrum(3, 1, [[3], [2], [-6]])).free is True
    verdict = check_free_module(build_spectrum(3, 1, [[1], [1], [-1]]))
    assert verdict.free is False
    j, m = verdict.witness
    s = build_spectrum(3, 1, [[1], [1], [-1]])
    assert m[j] == 0 and pairing(s, m) == s.lam[j]
    osc = build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert check_free_module(osc).free is True


def test_check_free_module_brute_agreement():
    specs = [
        build_spectrum(3, 1, [[3], [2], [-6]]),
        build_spectrum(3, 1, [[1], [1], [-1]]),
        build_spectrum(3, 1, [[1], [2], [-2]]),
        build_spectrum(2, 1, [[1], [-1]]),
        build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
    ]
    for s in specs:
        got = check_free_module(s).free
        brute = brute_free_module_witness(s, 12)
        if brute is not None:
            assert got is False
        else:
            assert got is not False  # brute bound can only certify violations


def test_check_free_module_zero_eigenvalue():
    with pytest.raises(ZeroEigenvalue):
        check_free_module(build_spectrum(2, 1, [[1], [0]]))


def test_check_onediv_examples():
    assert check_onediv(build_spectrum(3, 1, [[3], [2], [-6]])).holds is True
    degenerate = check_onediv(build_spectrum(2, 1, [[1], [-1]]))
    assert degenerate.holds is False and not degenerate.div_nonzero
    v = check_onediv(build_spectrum(3, 1, [[1], [2], [-2]]))
    assert v.holds is False
    s = build_spectrum(3, 1, [[1], [2], [-2]])
    assert pairing(s, v.witness) == pairing(s, (1, 1, 1))
    assert any(x == 0 for x in v.witness)


def test_decompose_eta_saddle():
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    a = F(5, 3)
    f = diag_field(1, -1) + PolyVectorField(2, {(0, (2, 1)): 1, (1, (1, 2)): a})
    etas = decompose_eta(s, inv, f)
    assert etas[0].terms == {(1,): 1}
    assert etas[1].terms == {(1,): a}


def test_decompose_eta_trivial_and_errors():
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    etas = decompose_eta(s, inv, diag_field(1, -1))
    assert all(e.is_zero() for e in etas)
    bad = diag_field(1, -1) + PolyVectorField.monomial(2, 0, (0, 1))  # x2 e1, m_1 = 0
    # x2 e1 is not resonant here, so the normal-form check fires first;
    # build a resonant counterexample over diag(1,1,-1) instead
    s3 = build_spectrum(3, 1, [[1], [1], [-1]])
    inv3 = invariant_generators(s3)
    f3 = diag_field(1, 1, -1) + PolyVectorField.monomial(3, 0, (0, 2, 1))
    with pytest.raises(NotFreeModuleShape):
        decompose_eta(s3, inv3, f3)


def test_decompose_eta_rewrite_roundtrip():
    s = build_spectrum(3, 1, [[3], [2], [-6]])
    inv = invariant_generators(s)
    rng = random.Random(4)
    f = diag_field(3, 2, -6)
    coeffs = {}
    for j in range(3):
        for a, g in enumerate(inv.generators):
            c = F(rng.randint(1, 5), rng.randint(1, 4))
            m = tuple(g[t] + (1 if t == j else 0) for t in range(3))
            f = f + PolyVectorField.monomial(3, j, m, c)
            coeffs[(j, a)] = c
    etas = decompose_eta(s, inv, f)
    for (j, a), c in coeffs.items():
        key = tuple(1 if t == a else 0 for t in range(inv.r))
        assert etas[j].coefficient(key) == c
    # expanding the generator monomials reproduces the original exponents
    for j in range(3):
        expanded = substitute_generators(etas[j], inv, 3)
        for m, c in expanded.terms.items():
            full = tuple(m[t] + (1 if t == j else 0) for t in range(3))
            assert f.coefficient(j, full) == c


def test_reduce_saddle_to_one_variable():
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    a = F(7, 2)
    f = diag_field(1, -1) + PolyVectorField(2, {(0, (2, 1)): 1, (1, (1, 2)): a})
    red = reduce_vectorfield(s, inv, f)
    assert red.r == 1
    assert red.field.terms == {(0, (2,)): 1 + a}
    assert red.nu == ((1 + a,),)


def test_reduce_trivial_field():
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    red = reduce_vectorfield(s, inv, diag_field(1, -1))
    assert red.field.is_zero()


def test_reduce_singleprop_power():
    # f = A + psi^k U x reduces to theta * y^(k+1) with X_U(psi) = theta psi
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    k = 2
    U = diag_field(1, 0)  # X_U(psi) = psi
    psi_k = PolySeries.monomial(2, (k, k))
    f = diag_field(1, -1) + series_times_field(psi_k, U)
    red = reduce_vectorfield(s, inv, f)
    assert red.field.terms == {(0, (k + 1,)): 1}


def test_reduce_identity_against_lie_derivative():
    s = build_spectrum(3, 1, [[3], [2], [-6]])
    inv = invariant_generators(s)
    rng = random.Random(9)
    f = diag_field(3, 2, -6)
    for j in range(3):
        g = inv.generators[rng.randrange(inv.r)]
        m = tuple(g[t] + (1 if t == j else 0) for t in range(3))
        f = f + PolyVectorField.monomial(3, j, m, F(rng.randint(1, 4), 3))
    red = reduce_vectorfield(s, inv, f)
    for i in range(inv.r):
        psi = PolySeries.monomial(3, inv.generators[i])
        lhs = lie_derivative(f - diag_field(3, 2, -6), psi)
        rhs = substitute_generators(red.field.component(i), inv, 3)
        assert lhs == rhs


def test_triviality_certificate_r1():
    from nfkit.invariants import ReducedField

    red = ReducedField(r=1, field=PolyVectorField.monomial(1, 0, (2,)), nu=((F(1),),))
    cert = triviality_certificate(red)
    assert cert.certified
    assert cert.commuting_degrees == (2,)
    assert cert.kernel_dimension == 1
    assert cert.first_integral_solutions == 0 and cert.first_integral_complete


def test_triviality_certificate_r2():
    from nfkit.invariants import ReducedField

    nu = ((F(1), F(0)), (F(5, 2), F(1)))
    red = ReducedField(r=2, field=quadratic_from_nu(nu), nu=nu)
    cert = triviality_certificate(red)
    assert cert.eigenvalues == (2, F(5, 2))
    assert cert.ladder_complete
    assert cert.commuting_degrees == (2,)
    assert cert.kernel_dimension == 1
    assert cert.certified


def test_triviality_certificate_nu11_zero():
    from nfkit.invariants import ReducedField

    nu = ((F(0), F(1)), (F(1), F(0)))
    red = ReducedField(r=2, field=quadratic_from_nu(nu), nu=nu)
    cert = triviality_certificate(red)
    assert not cert.certified
    assert cert.reasons


def test_triviality_certificate_resonant_ratio_uncertified():
    from nfkit.invariants import ReducedField

    # eigenvalue ratio 7 admits higher commuting degrees
    nu = ((F(1, 3), F(6)), (F(7, 3), F(0)))
    red = ReducedField(r=2, field=quadratic_from_nu(nu), nu=nu)
    cert = triviality_certificate(red)
    assert not cert.certified
