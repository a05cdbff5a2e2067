"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with -s or -rA);
every tolerance is zero -- all comparisons are exact rational equalities.
"""

import random
from fractions import Fraction as F
from math import gcd

from nfkit.centralizer import (
    centralizer_exact,
    centralizer_truncated,
    linear_commutant,
    normalizer_reduce,
    normalizer_truncated,
)
from nfkit.fields import (
    PolySeries,
    PolyVectorField,
    divergence,
    lie_bracket,
    lie_derivative,
    series_times_field,
)
from nfkit.invariants import invariant_generators, reduce_vectorfield
from nfkit.jacobi import (
    AMBIENT_TO_REDUCED,
    INCONSISTENT,
    NO_MULTIPLIER,
    REDUCED_TO_AMBIENT,
    SOLVED,
    UNIQUE_CANDIDATE,
    divergence_integral_check,
    reduced_multiplier_obstruction,
    solve_multiplier,
    transfer_reduced,
)
from nfkit.linalg import RatMatrix, mat_rank
from nfkit.resonance import resonance_set
from nfkit.spectrum import build_spectrum, c_matrix_basis, classify_dim3, zero_spectrum

from oracles import (
    brute_monoid,
    columns_of,
    decomposes_over,
    dim3_condition_a,
    is_monoid_minimal,
    linear_terms_of,
    pairing,
    rand_frac,
    random_field,
    random_pdnf,
    random_series,
    spectrum_pool_finite,
)


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def diag_field(*values):
    n = len(values)
    return PolyVectorField(
        n, {(i, tuple(1 if t == i else 0 for t in range(n))): values[i] for i in range(n) if values[i]}
    )


# -- 1 ---------------------------------------------------------------------

def test_criterion_01_eg3_case_table():
    s = build_spectrum(3, 1, [[12], [6], [3]])

    def field(a1, a2, a3, a4):
        terms = dict(linear_terms_of(s))
        for key, val in [
            ((0, (0, 2, 0)), a1),
            ((0, (0, 1, 2)), a2),
            ((0, (0, 0, 4)), a3),
            ((1, (0, 0, 2)), a4),
        ]:
            if val:
                terms[key] = val
        return PolyVectorField(3, terms)

    # the seven configurations; the degenerate subcase instantiates the
    # vanishing of the displayed-system minor (4 a1 a3 = a2^2)
    cases = [
        ((F(2), F(3), F(5), F(7)), 3),
        ((F(0), F(2), F(3), F(1)), 4),
        ((F(1), F(1), F(1), F(0)), 4),
        ((F(1), F(2), F(1), F(0)), 5),
        ((F(0), F(1), F(5), F(0)), 5),
        ((F(0), F(0), F(1), F(0)), 6),
        ((F(0), F(0), F(0), F(0)), 7),
    ]
    for alphas, want in cases:
        got = centralizer_exact(s, field(*alphas)).dimension
        assert got == want, (alphas, got, want)
    _report(1, "worked 3d example reproduces dimensions 3/4/4/5/5/6/7")


# -- 2 ---------------------------------------------------------------------

def jordan_spectrum():
    return build_spectrum(6, 1, [[3], [3], [3], [2], [2], [1]], [(0, 1, 1), (1, 2, 1), (3, 4, 1)])


JORDAN_MONOMIALS = [
    (0, (0, 0, 0, 1, 0, 1)), (0, (0, 0, 0, 0, 1, 1)), (0, (0, 0, 0, 0, 0, 3)),
    (1, (0, 0, 0, 1, 0, 1)), (1, (0, 0, 0, 0, 1, 1)), (1, (0, 0, 0, 0, 0, 3)),
    (2, (0, 0, 0, 1, 0, 1)), (2, (0, 0, 0, 0, 1, 1)), (2, (0, 0, 0, 0, 0, 3)),
    (3, (0, 0, 0, 0, 0, 2)), (4, (0, 0, 0, 0, 0, 2)),
]


def test_criterion_02_jordan_example():
    s = jordan_spectrum()
    rng = random.Random(7)
    for _ in range(3):
        terms = dict(linear_terms_of(s))
        for key in JORDAN_MONOMIALS:
            terms[key] = rand_frac(rng)
        assert centralizer_exact(s, PolyVectorField(6, terms)).dimension == 6
    zero = PolyVectorField(6, linear_terms_of(s))
    assert centralizer_exact(s, zero).dimension == 10
    _report(2, "Jordan-block example: generic dimension 6, trivial nonlinearity 10")


# -- 3 ---------------------------------------------------------------------

def test_criterion_03_six_dim_diagonal_example():
    s = build_spectrum(6, 1, [[12], [12], [6], [6], [6], [3]])
    rs = resonance_set(s)
    assert rs.total == 23
    assert linear_commutant(s).dimension == 14
    rng = random.Random(101)
    for _ in range(20):
        f = random_pdnf(s, rng, rs.degree_bound, density=0.5)
        res = centralizer_exact(s, f)
        assert 14 <= res.dimension <= 37
    _report(3, "diag(12,12,6,6,6,3): r = 23, d = 14, dimensions within [14, 37]")


# -- 4 ---------------------------------------------------------------------

def test_criterion_04_eg2_family():
    rng = random.Random(5)
    for qq in (1, 2, 3):
        s = build_spectrum(3, 1, [[12 * qq], [3], [2]])
        rs = resonance_set(s)
        want = {(0, 4 * qq - 2 * k, 3 * k) for k in range(2 * qq + 1)}
        assert set(rs.by_component[0]) == want
        assert rs.by_component[1] == () and rs.by_component[2] == ()
        for _ in range(3):
            terms = dict(linear_terms_of(s))
            for m in want:
                if rng.random() < 0.7:
                    terms[(0, m)] = rand_frac(rng, sign=True)
            res = centralizer_exact(s, PolyVectorField(3, terms))
            assert res.dimension >= 2 * qq + 2
    _report(4, "three-dimensional family: resonance rows and dimension >= 2q+2")


# -- 5 ---------------------------------------------------------------------

def test_criterion_05_dimension_bounds_property():
    rng = random.Random(42)
    seen = set()
    for trial in range(100):
        n = rng.randint(2, 6)
        s = spectrum_pool_finite(rng, n)
        rs = resonance_set(s)
        make_zero = trial % 10 == 0
        f = random_pdnf(s, rng, rs.degree_bound or 2, density=0 if make_zero else 0.5)
        res = centralizer_exact(s, f)
        d, r = res.d, res.r
        assert d <= res.dimension <= d + r
        assert res.dimension >= n
        p_zero = all(sum(m) < 2 for _, m in f.terms)
        if res.dimension == d + r:
            assert p_zero, "upper bound attained with nontrivial nonlinearity"
        seen.add(s.has_nilpotent())
        if s.has_nilpotent():
            assert res.block_bounds is None
        else:
            # sum |b|^2 and sum |b| (|b| + r_b), r_b read off the block's first component
            blocks = s.blocks()
            lo = sum(len(b) ** 2 for b in blocks)
            hi = sum(len(b) * (len(b) + len(rs.by_component[b[0]])) for b in blocks)
            assert res.block_bounds == (lo, hi) == (d, d + r)
            assert lo <= res.dimension <= hi
            if p_zero:
                assert res.dimension == d + r
    assert seen == {False, True}
    _report(5, "100 random normal forms: d <= dim <= d + r, dim >= n, block bounds are (d, d + r)")


# -- 6 ---------------------------------------------------------------------

FULLFIRES_SPECTRA = [
    lambda: build_spectrum(2, 1, [[1], [-1]]),
    lambda: build_spectrum(3, 1, [[3], [2], [-6]]),
    lambda: build_spectrum(3, 1, [[1], [2], [-2]]),
    lambda: build_spectrum(3, 1, [[1], [1], [-1]]),
    lambda: build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
    lambda: build_spectrum(4, 2, [[1, 0], [-2, 0], [0, 3], [0, -1]]),
]


def test_criterion_06_linear_symmetries_lower_bound():
    rng = random.Random(77)
    for trial in range(50):
        s = FULLFIRES_SPECTRA[trial % len(FULLFIRES_SPECTRA)]()
        f = random_pdnf(s, rng, 3, explicit=False, density=0.4, force_nonlinear=True)
        res = centralizer_truncated(s, f, 3)
        assert res.dimension >= s.q + 1
        keys = sorted({k for b in res.basis for k in b.terms})
        rows = [[b.terms.get(k, F(0)) for k in keys] for b in res.basis]
        rank0 = mat_rank(RatMatrix(columns_of(rows)))
        for C in c_matrix_basis(s):
            Cf = diag_field(*C)
            assert lie_bracket(Cf, f).is_zero()
            crow = [Cf.terms.get(k, F(0)) for k in keys]
            assert mat_rank(RatMatrix(columns_of(rows + [crow]))) == rank0
    _report(6, "50 random normal forms: every diagonal symmetry row lies in the kernel, dim >= q+1")


# -- 7 ---------------------------------------------------------------------

def ifac_spectrum():
    return build_spectrum(3, 1, [[1], [-1], [0]])


def ifac_field(a1, a2, a4, cubic=False):
    terms = {
        (0, (1, 0, 0)): 1, (1, (0, 1, 0)): -1,
        (0, (1, 0, 1)): a1, (1, (0, 1, 1)): a2,
        (2, (0, 0, 2)): 1, (2, (1, 1, 0)): a4,
    }
    if cubic:
        terms[(2, (0, 0, 3))] = 1
    return PolyVectorField(3, terms)


def _ifac_alphas(rng):
    while True:
        a1 = rand_frac(rng, 1, 5, 6)
        a2 = rand_frac(rng, 1, 5, 6)
        a4 = rand_frac(rng, 1, 5, 6)
        ssum = a1 + a2
        if ssum in (F(0), F(1), F(2), F(3)):
            continue
        if a1 == a2 or a4 == 0:
            continue
        return a1, a2, a4


def test_criterion_07_multiplier_ladder():
    s = ifac_spectrum()
    rng = random.Random(13)
    for _ in range(10):
        a1, a2, a4 = _ifac_alphas(rng)
        ladder = solve_multiplier(s, ifac_field(a1, a2, a4), 3, 4, 6)
        assert ladder.entry(3).status == INCONSISTENT
        e4 = ladder.entry(4)
        assert e4.status == SOLVED
        assert e4.lowest_order_dimension == 1
        beta_star = 2 * a4 / (2 - a1 - a2)
        phi = e4.multiplier
        assert phi.coefficient((1, 1, 2)) == 1
        assert phi.coefficient((2, 2, 0)) == beta_star
        assert phi.coefficient((0, 0, 4)) == 0
    for _ in range(10):
        a1, a2, a4 = _ifac_alphas(rng)
        ladder = solve_multiplier(s, ifac_field(a1, a2, a4, cubic=True), 2, 6, 7)
        assert ladder.entry(4).status == INCONSISTENT
        assert ladder.entry(4).failed_degree == 5
        for r in range(2, 7):
            assert ladder.entry(r).status == INCONSISTENT
    _report(7, "quadratic case solved at order 4 with the exact cofactor ratio; cubic case obstructed")


# -- 8 ---------------------------------------------------------------------

def test_criterion_08_divergence_is_first_integral():
    rng = random.Random(99)
    for trial in range(100):
        n = rng.randint(2, 5)
        s = spectrum_pool_finite(rng, n)
        rs = resonance_set(s)
        f = random_pdnf(s, rng, rs.degree_bound or 2, density=0.5)
        assert divergence_integral_check(s, f)
    # solver-returned multipliers stay on the divergence eigenspace
    s = ifac_spectrum()
    f = ifac_field(F(1, 2), F(1, 3), F(1, 5))
    ladder = solve_multiplier(s, f, 2, 6, 6)
    target = pairing(s, (1,) * s.n)
    seen = False
    for entry in ladder.entries:
        if entry.status == SOLVED:
            seen = True
            for m in entry.multiplier.terms:
                assert pairing(s, m) == target
    assert seen
    _report(8, "100 random normal forms: divergence commutes with the linear flow; supports exact")


# -- 9 ---------------------------------------------------------------------

def test_criterion_09_dim3_classifier_against_brute_force():
    rng = random.Random(2024)
    count = 0
    while count < 200:
        d1, d2, d3 = (rng.randint(1, 30) for _ in range(3))
        if gcd(gcd(d1, d2), d3) != 1:
            continue
        count += 1
        assert classify_dim3(d1, d2, d3).holds == dim3_condition_a(d1, d2, d3), (d1, d2, d3)
    _report(9, "200 coprime triples: classifier agrees with bounded definition chasing")


# -- 10 --------------------------------------------------------------------

SMALL_SPECTRA = [
    lambda: build_spectrum(2, 1, [[1], [-1]]),
    lambda: build_spectrum(3, 1, [[3], [2], [-6]]),
    lambda: build_spectrum(3, 1, [[1], [2], [-2]]),
    lambda: build_spectrum(3, 1, [[1], [1], [-1]]),
    lambda: build_spectrum(3, 1, [[12], [6], [3]]),
    lambda: build_spectrum(3, 2, [[1, 0], [-1, 0], [0, 1]]),
    lambda: build_spectrum(4, 2, [[1, 0], [-2, 0], [0, 3], [0, -1]]),
    lambda: build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
    lambda: build_spectrum(4, 2, [[1, 0], [0, 1], [1, 2], [-2, -3]]),
]


def test_criterion_10_hilbert_basis_oracle():
    from nfkit.spectrum import hilbert_basis

    for make in SMALL_SPECTRA:
        s = make()
        gens = hilbert_basis(s).generators
        for d in brute_monoid(s, 8):
            assert decomposes_over(gens, d), (s.lam, d)
        for g in gens:
            assert is_monoid_minimal(s, g, 8), (s.lam, g)
    _report(10, "all small spectra: monoid elements decompose, generators minimal")


# -- 11 --------------------------------------------------------------------

def test_criterion_11_algebraic_identities():
    rng = random.Random(314)
    for _ in range(200):
        n = rng.randint(2, 4)
        g = random_field(rng, n)
        h = random_field(rng, n)
        assert (lie_bracket(g, h) + lie_bracket(h, g)).is_zero()
    rng = random.Random(315)
    for _ in range(200):
        n = rng.randint(2, 3)
        g = random_field(rng, n, terms=3)
        h = random_field(rng, n, terms=3)
        k = random_field(rng, n, terms=3)
        jac = (
            lie_bracket(g, lie_bracket(h, k))
            + lie_bracket(h, lie_bracket(k, g))
            + lie_bracket(k, lie_bracket(g, h))
        )
        assert jac.is_zero()
    rng = random.Random(316)
    for _ in range(200):
        n = rng.randint(2, 3)
        g = random_field(rng, n, terms=3)
        h = random_field(rng, n, terms=3)
        phi = random_series(rng, n, terms=3)
        lhs = lie_derivative(g, lie_derivative(h, phi)) - lie_derivative(h, lie_derivative(g, phi))
        assert lhs == lie_derivative(lie_bracket(g, h), phi)
    rng = random.Random(317)
    for _ in range(200):
        n = rng.randint(2, 3)
        g = random_field(rng, n, terms=3)
        h = random_field(rng, n, terms=3)
        psi = random_series(rng, n, terms=3)
        lhs = lie_bracket(g, series_times_field(psi, h))
        rhs = series_times_field(lie_derivative(g, psi), h) + series_times_field(psi, lie_bracket(g, h))
        assert (lhs - rhs).is_zero()
    _report(11, "antisymmetry, Jacobi, derivation, and product identities: 200 exact instances each")


# -- 12 --------------------------------------------------------------------

def _distinguished_instance(rng):
    choices = [(2, 3, 1, 1), (2, 5, 1, 1), (3, 5, 1, 1), (2, 7, 1, 1), (2, 3, 3, 1), (2, 3, 1, 5)]
    l1, l2, d1s, d2s = choices[rng.randrange(len(choices))]
    s = build_spectrum(3, 1, [[l2 * d1s], [l1 * d2s], [-l1 * l2]])
    inv = invariant_generators(s)
    f = PolyVectorField(3, linear_terms_of(s))
    for k in range(3):
        for j, g in enumerate(inv.generators):
            if rng.random() < 0.8:
                c = rand_frac(rng, sign=True)
                m = tuple(g[t] + (1 if t == k else 0) for t in range(3))
                f = f + PolyVectorField.monomial(3, k, m, c)
    return s, inv, f


def test_criterion_12_reduction_transfer():
    rng = random.Random(55)
    agreed = 0
    trials = 0
    while agreed < 10:
        trials += 1
        assert trials < 200
        s, inv, f = _distinguished_instance(rng)
        red = reduce_vectorfield(s, inv, f)
        obs = reduced_multiplier_obstruction(red)
        if obs.status != UNIQUE_CANDIDATE:
            continue
        a = obs.alpha
        cand = PolySeries.monomial(2, (2, 1), a[0]) + PolySeries.monomial(2, (1, 2), a[1])
        # reduced verdict: the candidate is an exact multiplier of the reduction
        resid = lie_derivative(red.field, cand) - divergence(red.field) * cand
        assert resid.is_zero()
        # ambient verdict agrees through the transfer, with verification on
        ambient = transfer_reduced(inv, REDUCED_TO_AMBIENT, cand, ambient_field=f)
        back = transfer_reduced(inv, AMBIENT_TO_REDUCED, ambient, reduced_field=red.field)
        assert back == cand
        r0 = min(sum(m) for m in ambient.terms)
        ladder = solve_multiplier(s, f, r0, r0, r0 + 2)
        assert ladder.entry(r0).status == SOLVED
        # reduced solver candidate matches the obstruction candidate
        rl = solve_multiplier(zero_spectrum(2), red.field, 3, 3, 5)
        assert rl.entry(3).status == SOLVED
        got = rl.entry(3).multiplier.graded_part(3).terms
        lead = next(c for _m, c in sorted(got.items()))
        want = {m: c for m, c in cand.terms.items()}
        lead_w = next(c for _m, c in sorted(want.items()))
        assert {m: c / lead for m, c in got.items()} == {m: c / lead_w for m, c in want.items()}
        agreed += 1
    # incompatible nu with r = 3 is rejected outright
    from nfkit.invariants import ReducedField, quadratic_from_nu

    nu = ((F(1), F(2), F(3)), (F(5), F(1), F(4)), (F(7), F(2), F(1)))
    red3 = ReducedField(r=3, field=quadratic_from_nu(nu), nu=nu)
    assert reduced_multiplier_obstruction(red3).status == NO_MULTIPLIER
    _report(12, "10 distinguished instances: ambient/reduced verdicts agree, transfers round-trip")


# -- 13 --------------------------------------------------------------------

def test_criterion_13_normalizer_splitting():
    # the counterexample pair: alpha stays nonzero while beta vanishes
    D = 8
    s = build_spectrum(2, 1, [[1], [-1]])
    A = diag_field(1, -1)
    phi = PolySeries.monomial(2, (1, 1))
    f = A + series_times_field(phi, A)
    g = diag_field(1, 1)
    lam = PolySeries.zero(2, trunc=D - 1)
    sign = F(2)
    p = phi
    k = 1
    while 2 * k <= D - 1:
        lam = lam + p.scale(sign)
        p = p * phi
        sign = -sign
        k += 1
    beta, alpha = normalizer_reduce(s, f, g, lam, D)
    assert beta.is_zero() and not alpha.is_zero()
    assert alpha.coefficient((0, 0)) == 0
    for m in alpha.terms:
        assert pairing(s, m) == (0,)

    # every pair in a computed truncated normalizer splits with exact
    # kernel multiplier and vanishing constant term
    s3 = build_spectrum(3, 1, [[12], [6], [3]])
    terms = dict(linear_terms_of(s3))
    terms[(0, (0, 2, 0))] = F(1)
    terms[(1, (0, 0, 2))] = F(2, 3)
    f3 = PolyVectorField(3, terms)
    res = normalizer_truncated(s3, f3, 3)
    checked = 0
    for gg, ll in res.basis:
        if gg.is_zero():
            continue
        beta, alpha = normalizer_reduce(s3, f3, gg, ll, 3)
        assert alpha.coefficient((0, 0, 0)) == 0
        for m in alpha.terms:
            assert pairing(s3, m) == (0,)
        checked += 1
    assert checked >= 3
    _report(13, "normalizer splitting: alpha in the kernel with zero constant term, "
               "nonzero on the counterexample")
