"""Inverse Jacobi multipliers: support, ladder solver, transfer, obstructions."""

import random
from fractions import Fraction as F

import pytest

from nfkit.errors import CertificateFailure, NotPDNF, WrongShape
from nfkit.fields import (
    PolySeries,
    PolyVectorField,
    determinant_multiplier,
    divergence,
    lie_derivative,
    series_times_field,
)
from nfkit.invariants import invariant_generators, reduce_vectorfield
from nfkit.jacobi import (
    AMBIENT_TO_REDUCED,
    INCONSISTENT,
    REDUCED_TO_AMBIENT,
    SOLVED,
    UNDECIDED,
    UNIQUE_CANDIDATE,
    NO_MULTIPLIER,
    divergence_integral_check,
    multiplier_support,
    reduced_multiplier_obstruction,
    solve_multiplier,
    transfer_reduced,
)
from nfkit.spectrum import build_spectrum, zero_spectrum

from oracles import linear_terms_of, pairing


def diag_field(*values):
    n = len(values)
    return PolyVectorField(
        n, {(i, tuple(1 if t == i else 0 for t in range(n))): values[i] for i in range(n) if values[i]}
    )


def ifac_spectrum():
    return build_spectrum(3, 1, [[1], [-1], [0]])


def ifac_field(a1, a2, a4, cubic=False):
    terms = {
        (0, (1, 0, 0)): 1,
        (1, (0, 1, 0)): -1,
        (0, (1, 0, 1)): a1,
        (1, (0, 1, 1)): a2,
        (2, (0, 0, 2)): 1,
        (2, (1, 1, 0)): a4,
    }
    if cubic:
        terms[(2, (0, 0, 3))] = 1
    return PolyVectorField(3, terms)


def test_multiplier_support_examples():
    s = ifac_spectrum()
    assert multiplier_support(s, 4) == [(0, 0, 4), (1, 1, 2), (2, 2, 0)]
    s2 = build_spectrum(3, 1, [[12], [6], [3]])
    assert multiplier_support(s2, 3) == [(1, 1, 1)]
    assert multiplier_support(s2, 2) == []


def test_divergence_integral_check():
    s = ifac_spectrum()
    assert divergence_integral_check(s, ifac_field(F(1, 2), F(1, 3), F(1, 5)))
    s2 = build_spectrum(3, 1, [[12], [6], [3]])
    f = diag_field(12, 6, 3) + PolyVectorField(3, {(0, (0, 2, 0)): 1, (1, (0, 0, 2)): 1})
    assert divergence_integral_check(s2, f)
    with pytest.raises(NotPDNF):
        divergence_integral_check(s2, f + PolyVectorField.monomial(3, 0, (2, 0, 0)))


def test_ifac_quadratic_ladder():
    s = ifac_spectrum()
    a1, a2, a4 = F(1, 2), F(1, 3), F(1, 5)
    ladder = solve_multiplier(s, ifac_field(a1, a2, a4), 2, 6, 6)
    assert ladder.entry(3).status == INCONSISTENT
    e4 = ladder.entry(4)
    assert e4.status == SOLVED
    assert e4.lowest_order_dimension == 1
    beta_star = 2 * a4 / (2 - a1 - a2)
    assert e4.multiplier.coefficient((1, 1, 2)) == 1
    assert e4.multiplier.coefficient((2, 2, 0)) == beta_star
    assert e4.multiplier.coefficient((0, 0, 4)) == 0
    # paper's two admissible ladder cases are visible in the attachment
    found = {(sol.s, sol.k) for sol in ladder.semiinvariant_ladder.solutions}
    assert (3, 0) in found and (4, 2) in found
    assert ladder.semiinvariant_ladder.complete


def test_ifac_solved_multiplier_satisfies_equation():
    s = ifac_spectrum()
    f = ifac_field(F(1, 2), F(1, 3), F(1, 5))
    ladder = solve_multiplier(s, f, 4, 4, 6)
    phi = ladder.entry(4).multiplier
    resid = lie_derivative(f, phi) - divergence(f) * phi
    assert resid.is_zero_mod(6)
    # exact here: the quadratic system has a polynomial multiplier
    assert resid.is_zero()


def test_ifac_cubic_inconsistency():
    s = ifac_spectrum()
    f = ifac_field(F(1, 2), F(1, 3), F(1, 5), cubic=True)
    ladder = solve_multiplier(s, f, 2, 6, 7)
    assert ladder.entry(4).status == INCONSISTENT
    assert ladder.entry(4).failed_degree == 5
    for r in range(2, 7):
        assert ladder.entry(r).status == INCONSISTENT


def test_multiplier_support_property_of_solutions():
    s = ifac_spectrum()
    f = ifac_field(F(1, 2), F(1, 3), F(1, 5))
    ladder = solve_multiplier(s, f, 2, 6, 6)
    target = pairing(s, (1,) * s.n)
    for entry in ladder.entries:
        if entry.status == SOLVED:
            for m in entry.multiplier.terms:
                assert pairing(s, m) == target


def test_multiplier_with_nilpotent_part():
    # A = [[3,1],[0,3]]: the quadratic multiplier is pinned to x2^2 by the
    # nilpotent rows
    s = build_spectrum(2, 1, [[3], [3]], [(0, 1, 1)])
    f = PolyVectorField(2, {(0, (1, 0)): 3, (1, (0, 1)): 3, (0, (0, 1)): 1})
    ladder = solve_multiplier(s, f, 2, 2, 3)
    entry = ladder.entry(2)
    assert entry.status == SOLVED
    assert entry.multiplier.terms == {(0, 2): F(1)}
    resid = lie_derivative(f, entry.multiplier) - divergence(f) * entry.multiplier
    assert resid.is_zero()


def test_empty_support_is_inconsistent_at_r():
    s = build_spectrum(3, 1, [[12], [6], [3]])
    f = diag_field(12, 6, 3)
    ladder = solve_multiplier(s, f, 2, 3, 4)
    assert ladder.entry(2).status == INCONSISTENT
    assert ladder.entry(2).failed_degree == 2
    # degree 3 carries x1 x2 x3, which is a multiplier of the linear field
    e3 = ladder.entry(3)
    assert e3.status == SOLVED
    assert e3.multiplier.coefficient((1, 1, 1)) == 1


def test_quotient_of_multipliers_is_first_integral():
    # f = (1 + phi) A with A = diag(1,-1): div f = 0, so phi and phi^2 are
    # multipliers; their ratio phi is a first integral of f
    A = diag_field(1, -1)
    phi = PolySeries.monomial(2, (1, 1))
    f = A + series_times_field(phi, A)
    for cand in (phi, phi * phi):
        resid = lie_derivative(f, cand) - divergence(f) * cand
        assert resid.is_zero()
    assert lie_derivative(f, phi).is_zero()


def test_determinant_output_accepted_by_solver_verification():
    # single-generator setting: det(f, C1 x) is a multiplier of f
    s = build_spectrum(2, 1, [[1], [-1]])
    psi = PolySeries.monomial(2, (1, 1))
    U = diag_field(1, 0)
    f = diag_field(1, -1) + series_times_field(psi, U)
    det = determinant_multiplier(f, [diag_field(1, -1)])
    assert det.terms == {(2, 2): -1}
    resid = lie_derivative(f, det) - divergence(f) * det
    assert resid.is_zero()
    ladder = solve_multiplier(s, f, 4, 4, 6)
    assert ladder.entry(4).status == SOLVED
    assert ladder.entry(4).multiplier.coefficient((2, 2)) == 1


def dist_spectrum(l1=2, l2=3, d1s=1, d2s=1):
    return build_spectrum(3, 1, [[l2 * d1s], [l1 * d2s], [-l1 * l2]])


def dist_field(s, rho, rng=None):
    """f = A + sum_{k,j} rho[k][j] psi_j Q_k over a distinguished spectrum."""
    inv = invariant_generators(s)
    f = PolyVectorField(3, linear_terms_of(s))
    for k in range(3):
        for j, g in enumerate(inv.generators):
            c = rho[k][j]
            if c:
                m = tuple(g[t] + (1 if t == k else 0) for t in range(3))
                f = f + PolyVectorField.monomial(3, k, m, c)
    return inv, f


def test_transfer_round_trip_and_verdict_agreement():
    rng = random.Random(31)
    s = dist_spectrum()
    inv, f = dist_field(
        s, [[F(1), F(0)], [F(0), F(2)], [F(1, 3), F(0)]]
    )
    red = reduce_vectorfield(s, inv, f)
    obs = reduced_multiplier_obstruction(red)
    assert obs.status == UNIQUE_CANDIDATE
    a = obs.alpha
    reduced_candidate = PolySeries.monomial(2, (2, 1), a[0]) + PolySeries.monomial(2, (1, 2), a[1])
    # reduced -> ambient with the exactness check against the ambient field
    ambient = transfer_reduced(
        inv, REDUCED_TO_AMBIENT, reduced_candidate, ambient_field=f
    )
    # ambient -> reduced comes back identically
    back = transfer_reduced(inv, AMBIENT_TO_REDUCED, ambient, reduced_field=red.field)
    assert back == reduced_candidate
    # the reduced solver finds a matching candidate at lowest order 3
    ladder = solve_multiplier(zero_spectrum(2), red.field, 3, 3, 5)
    entry = ladder.entry(3)
    assert entry.status == SOLVED
    got = entry.multiplier
    lead = next(c for _m, c in sorted(got.terms.items()) if c != 0)
    want = reduced_candidate
    lead_w = next(c for _m, c in sorted(want.terms.items()) if c != 0)
    assert {m: c / lead for m, c in got.graded_part(3).terms.items()} == {
        m: c / lead_w for m, c in want.terms.items()
    }


def test_transfer_ambient_first_round_trip():
    s = dist_spectrum()
    inv = invariant_generators(s)
    sigma = PolySeries.monomial(3, (1, 1, 1))
    rho = PolySeries.monomial(3, inv.generators[0], F(2)) + PolySeries.monomial(
        3, inv.generators[1], F(5, 3)
    )
    cand = sigma * rho
    reduced = transfer_reduced(inv, AMBIENT_TO_REDUCED, cand)
    assert transfer_reduced(inv, REDUCED_TO_AMBIENT, reduced) == cand


def test_transfer_checks_the_multiplier_at_the_field_budget():
    """diag(1, -1) with x1^2 x2 e_1, truncated at 4: X_f(x1 x2) = x1^2 x2^2 but div f x1 x2
    = 2 x1^2 x2^2, a residual at degree 4 that div f, complete through degree 3, reaches
    times x1 x2."""
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    A = PolyVectorField(2, {(0, (1, 0)): 1, (1, (0, 1)): -1})
    y = PolySeries.monomial(1, (1,))
    f = (A + PolyVectorField.monomial(2, 0, (2, 1))).truncated(4)
    with pytest.raises(CertificateFailure, match="^multiplier property failed up to degree 4$"):
        transfer_reduced(inv, REDUCED_TO_AMBIENT, y, ambient_field=f)
    # below the cubic term the field is linear, and x1 x2 is a multiplier of it
    assert transfer_reduced(inv, REDUCED_TO_AMBIENT, y, ambient_field=f.truncated(2)).terms == {(1, 1): 1}


def test_transfer_wrong_shapes():
    s = dist_spectrum()
    inv = invariant_generators(s)
    with pytest.raises(WrongShape):
        transfer_reduced(inv, AMBIENT_TO_REDUCED, PolySeries.monomial(3, (2, 1, 0)))
    # divisible by sigma but the cofactor is not invariant
    bad = PolySeries.monomial(3, (2, 1, 1))
    with pytest.raises(WrongShape):
        transfer_reduced(inv, AMBIENT_TO_REDUCED, bad)
    with pytest.raises(WrongShape):
        transfer_reduced(inv, "sideways", PolySeries.monomial(3, (1, 1, 1)))


def test_obstruction_no_multiplier_r3():
    from nfkit.invariants import ReducedField, quadratic_from_nu

    nu = (
        (F(1), F(2), F(3)),
        (F(5), F(1), F(4)),
        (F(7), F(2), F(1)),
    )
    red = ReducedField(r=3, field=quadratic_from_nu(nu), nu=nu)
    obs = reduced_multiplier_obstruction(red)
    assert obs.status == NO_MULTIPLIER


def test_obstruction_undecided_when_all_mu_vanish():
    from nfkit.invariants import ReducedField, quadratic_from_nu

    # nu_ij = nu_jj makes every mu_ij vanish
    nu = ((F(1), F(1)), (F(1), F(1)))
    red = ReducedField(r=2, field=quadratic_from_nu(nu), nu=nu)
    obs = reduced_multiplier_obstruction(red)
    assert obs.status == UNDECIDED


def test_reduced_candidate_is_exact_multiplier():
    s = dist_spectrum()
    inv, f = dist_field(s, [[F(2), F(0)], [F(0), F(1)], [F(1, 2), F(1, 4)]])
    red = reduce_vectorfield(s, inv, f)
    obs = reduced_multiplier_obstruction(red)
    assert obs.status == UNIQUE_CANDIDATE
    a = obs.alpha
    cand = PolySeries.monomial(2, (2, 1), a[0]) + PolySeries.monomial(2, (1, 2), a[1])
    resid = lie_derivative(red.field, cand) - divergence(red.field) * cand
    assert resid.is_zero()
