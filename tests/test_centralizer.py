"""Commutants, exact/truncated centralizers, normalizers, and the splitting."""

import random
from fractions import Fraction as F

import pytest

from nfkit import centralizer
from nfkit.centralizer import (
    centralizer_exact,
    centralizer_truncated,
    linear_commutant,
    normalizer_reduce,
    normalizer_truncated,
)
from nfkit.errors import (
    InfiniteResonance,
    LinearPartMismatch,
    NotNormalizerPair,
    NotPDNF,
    ZeroSemisimplePart,
)
from nfkit.fields import (
    PolySeries,
    PolyVectorField,
    lie_bracket,
    lie_derivative,
    series_times_field,
)
from nfkit.linalg import RatMatrix, mat_rank
from nfkit.spectrum import build_spectrum, c_matrix_basis

from oracles import (
    linear_terms_of,
    pairing,
    random_block_spectrum,
    random_pdnf,
    whole_matrix_commutant,
)


def diag_field(*values):
    n = len(values)
    return PolyVectorField(
        n, {(i, tuple(1 if t == i else 0 for t in range(n))): values[i] for i in range(n) if values[i]}
    )


def spec_1263():
    return build_spectrum(3, 1, [[12], [6], [3]])


def eg3_field(a1, a2, a3, a4):
    terms = dict(diag_field(12, 6, 3).terms)
    for key, val in [
        ((0, (0, 2, 0)), a1),
        ((0, (0, 1, 2)), a2),
        ((0, (0, 0, 4)), a3),
        ((1, (0, 0, 2)), a4),
    ]:
        if val:
            terms[key] = val
    return PolyVectorField(3, terms)


def jordan_spectrum():
    return build_spectrum(6, 1, [[3], [3], [3], [2], [2], [1]], [(0, 1, 1), (1, 2, 1), (3, 4, 1)])


def jordan_field(avals):
    terms = dict(linear_terms_of(jordan_spectrum()))
    mono = [
        (0, (0, 0, 0, 1, 0, 1)), (0, (0, 0, 0, 0, 1, 1)), (0, (0, 0, 0, 0, 0, 3)),
        (1, (0, 0, 0, 1, 0, 1)), (1, (0, 0, 0, 0, 1, 1)), (1, (0, 0, 0, 0, 0, 3)),
        (2, (0, 0, 0, 1, 0, 1)), (2, (0, 0, 0, 0, 1, 1)), (2, (0, 0, 0, 0, 0, 3)),
        (3, (0, 0, 0, 0, 0, 2)), (4, (0, 0, 0, 0, 0, 2)),
    ]
    for key, a in zip(mono, avals):
        if a:
            terms[key] = a
    return PolyVectorField(6, terms)


def test_linear_commutant_dimensions():
    assert linear_commutant(spec_1263()).dimension == 3
    assert linear_commutant(build_spectrum(6, 1, [[12], [12], [6], [6], [6], [3]])).dimension == 14
    assert linear_commutant(jordan_spectrum()).dimension == 6


def test_linear_commutant_matrices_commute():
    s = jordan_spectrum()
    N = [[F(0)] * 6 for _ in range(6)]
    for i, j, c in s.nilpotent:
        N[i][j] = c
    for B in linear_commutant(s).basis:
        # [B, A_n] = 0 entrywise
        for i in range(6):
            for j in range(6):
                acc = sum(N[i][k] * B[k][j] - B[i][k] * N[k][j] for k in range(6))
                assert acc == 0
        for i in range(6):
            for j in range(6):
                if B[i][j] != 0:
                    assert s.lam[i] == s.lam[j]


def test_linear_commutant_matches_sympy():
    """The basis is sympy's nullspace of the entrywise system [B, A] = 0.

    A = diag(lambda) + N with random repeated rational eigenvalues (q = 1)
    and a random nilpotent part inside the blocks of equal eigenvalues; the
    unknowns are B_ik in row-major order.
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 4)
        lam = [rng.choice([F(1), F(-2), F(1, 3)]) for _ in range(n)]
        nil = [
            (i, j, F(rng.randint(-3, 3), rng.randint(1, 2)))
            for i in range(n)
            for j in range(i + 1, n)
            if lam[i] == lam[j] and rng.random() < 0.6
        ]
        s = build_spectrum(n, 1, [[x] for x in lam], nil)
        A = sympy.zeros(n, n)
        for i in range(n):
            A[i, i] = sympy.Rational(lam[i].numerator, lam[i].denominator)
        for i, j, c in nil:
            A[i, j] = sympy.Rational(c.numerator, c.denominator)
        system = sympy.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # (BA - AB)_ij = sum_k B_ik A_kj - A_ik B_kj
                    system[i * n + j, i * n + k] += A[k, j]
                    system[i * n + j, k * n + j] -= A[i, k]
        expected = [
            tuple(F(int(x.p), int(x.q)) for x in v) for v in system.nullspace()
        ]
        got = [tuple(x for row in B for x in row) for B in linear_commutant(s).basis]
        assert got == expected, (lam, nil)


COMMUTANT_CASES = [
    # a 4-block Jordan chain with non-unit coefficients, a 2-block, a singleton
    build_spectrum(
        7, 1, [[2], [2], [2], [2], [-1], [-1], [5]],
        [(0, 1, F(3, 2)), (1, 2, -2), (2, 3, F(1, 3)), (4, 5, 5)],
    ),
    # q = 2 with interleaved blocks, so block entries are not contiguous
    build_spectrum(
        6, 2, [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [F(1, 2), 3]],
        [(0, 2, F(2, 3)), (1, 3, -4), (2, 4, 7)],
    ),
    # a 5-block whose nilpotent part is not a single chain
    build_spectrum(
        5, 1, [[F(-1, 3)]] * 5, [(0, 2, F(5, 4)), (1, 3, -1), (1, 4, F(2, 7)), (3, 4, 6)]
    ),
]


def test_linear_commutant_matches_whole_matrix_oracle():
    """Per-block kernels give the whole n^2 system's basis, vector for vector."""
    rng = random.Random(88)
    spectra = list(COMMUTANT_CASES)
    for _ in range(80):
        n = rng.randint(1, 7)
        spectra.append(random_block_spectrum(rng, n, rng.choice([1, 1, 2]) if n > 1 else 1))
    assert any(s.q == 2 and s.nilpotent for s in spectra)
    assert any(len(b) >= 4 and s.nilpotent for s in spectra for b in s.blocks())
    for s in spectra:
        comm = linear_commutant(s)
        assert comm.basis == whole_matrix_commutant(s), (s.lam, s.nilpotent)
        assert comm.dimension == len(comm.basis)


def test_truncated_d_is_the_commutant_dimension(monkeypatch):
    """d of a truncated centralizer sums the per-block kernel dimensions,
    without building the commutant's basis matrices."""
    rng = random.Random(61)
    spectra = list(COMMUTANT_CASES) + [
        jordan_spectrum(),
        build_spectrum(6, 1, [[12], [12], [6], [6], [6], [3]]),
        build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
    ]
    spectra += [random_block_spectrum(rng, rng.randint(2, 5), 1) for _ in range(20)]
    assert any(len(s.blocks()) > 1 and s.nilpotent for s in spectra)
    expected = [linear_commutant(s).dimension for s in spectra]

    def no_commutant(s):
        raise AssertionError("the truncated centralizer built the commutant basis")

    monkeypatch.setattr(centralizer, "linear_commutant", no_commutant)
    for s, d in zip(spectra, expected, strict=True):
        f = random_pdnf(s, rng, 2, explicit=False)
        assert centralizer_truncated(s, f, 2).d == d, (s.lam, s.nilpotent)


def test_eg3_case_table():
    s = spec_1263()
    # the degenerate third subcase is 4 a1 a3 = a2^2, read off the
    # displayed coefficient matrix of the worked example
    cases = [
        ((1, 1, 1, 1), 3),
        ((0, 2, 3, 1), 4),
        ((1, 1, 1, 0), 4),
        ((1, 2, 1, 0), 5),
        ((0, 1, 5, 0), 5),
        ((0, 0, 1, 0), 6),
        ((0, 0, 0, 0), 7),
    ]
    for alphas, want in cases:
        assert centralizer_exact(s, eg3_field(*alphas)).dimension == want, alphas


def test_exact_basis_commutes_exactly():
    s = spec_1263()
    f = eg3_field(1, F(2, 3), F(5, 7), 1)
    res = centralizer_exact(s, f)
    for b in res.basis:
        assert lie_bracket(b, f).is_zero()
    # basis linearly independent
    keys = sorted({k for b in res.basis for k in b.terms})
    rows = [[b.terms.get(k, F(0)) for k in keys] for b in res.basis]
    assert mat_rank(RatMatrix(rows)) == res.dimension


def test_jordan_example():
    s = jordan_spectrum()
    rng = random.Random(7)
    a = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(11)]
    assert centralizer_exact(s, jordan_field(a)).dimension == 6
    assert centralizer_exact(s, jordan_field([0] * 11)).dimension == 10


def test_pure_linear_attains_upper_bound():
    s = spec_1263()
    res = centralizer_exact(s, diag_field(12, 6, 3))
    assert res.dimension == res.d + res.r == 7


def test_exact_accepts_deviation_form():
    # stripping the explicit linear part changes nothing: the semisimple
    # brackets vanish structurally either way
    s = spec_1263()
    full = eg3_field(1, 1, 1, 1)
    dev = PolyVectorField(3, {k: c for k, c in full.terms.items() if sum(k[1]) >= 2})
    res_full = centralizer_exact(s, full)
    res_dev = centralizer_exact(s, dev)
    assert res_full.dimension == res_dev.dimension == 3
    for b in res_dev.basis:
        assert lie_bracket(b, dev).is_zero()
        for (j, m), _c in b.terms.items():
            assert pairing(s, m) == s.lam[j]


def test_exact_requires_finite():
    s = build_spectrum(2, 1, [[1], [-1]])
    with pytest.raises(InfiniteResonance):
        centralizer_exact(s, diag_field(1, -1))


def test_exact_requires_pdnf():
    s = spec_1263()
    bad = eg3_field(1, 0, 0, 0) + PolyVectorField.monomial(3, 0, (2, 0, 0))
    with pytest.raises(NotPDNF):
        centralizer_exact(s, bad)


def test_truncated_diag_saddle():
    s = build_spectrum(2, 1, [[1], [-1]])
    A = diag_field(1, -1)
    res = centralizer_truncated(s, A, 3)
    # resonant monomials of degree <= 3: x1e1, x2e2, x1^2x2 e1, x1x2^2 e2
    assert res.dimension == 4
    assert res.graded == ((1, 2), (3, 2))
    for b in res.basis:
        assert lie_bracket(b, A).is_zero_mod(3)


def test_truncated_singleprop_instance():
    s = build_spectrum(2, 1, [[1], [-1]])
    A = diag_field(1, -1)
    phi = PolySeries.monomial(2, (1, 1))
    f = (A + series_times_field(phi, A)).truncated(5)
    res = centralizer_truncated(s, f, 5)
    # span of Cx, phi Cx, phi^2 Cx plus the horizon element phi^2 Ix whose
    # bracket only shows beyond degree 5
    assert res.dimension == 4
    for b in res.basis:
        assert lie_bracket(b, f).is_zero_mod(5)
    Ix = diag_field(1, 1)
    assert not lie_bracket(Ix, f).is_zero_mod(5)


def test_truncated_lowerest_cj_membership():
    # every diagonal symmetry C_j lies in the truncated centralizer
    s = build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]])
    rng = random.Random(23)
    f = random_pdnf(s, rng, 3, explicit=False, force_nonlinear=True)
    res = centralizer_truncated(s, f, 3)
    assert res.dimension >= s.q + 1
    keys = sorted({k for b in res.basis for k in b.terms})
    rows = [[b.terms.get(k, F(0)) for k in keys] for b in res.basis]
    base_rank = mat_rank(RatMatrix(rows))
    for C in c_matrix_basis(s):
        Cf = diag_field(*C)
        assert lie_bracket(Cf, f).is_zero()
        crow = [Cf.terms.get(k, F(0)) for k in keys]
        assert mat_rank(RatMatrix(rows + [crow])) == base_rank


def test_normalizer_nonresonant_diagonal():
    s = build_spectrum(2, 1, [[2], [3]])
    res = normalizer_truncated(s, diag_field(2, 3), 2)
    assert res.dimension == 4
    f = diag_field(2, 3)
    for g, lam in res.basis:
        resid = lie_bracket(g, f) - series_times_field(lam, f)
        assert resid.is_zero_mod(2)


def test_normalizer_contains_f_with_zero_lambda():
    s = spec_1263()
    f = eg3_field(1, 1, 1, 1)
    res = normalizer_truncated(s, f, 4)
    keys_g = sorted({k for g, _ in res.basis for k in g.terms})
    keys_l = sorted({k for _, lam in res.basis for k in lam.terms})
    rows = [
        [g.terms.get(k, F(0)) for k in keys_g] + [lam.terms.get(k, F(0)) for k in keys_l]
        for g, lam in res.basis
    ]
    frow = [f.terms.get(k, F(0)) for k in keys_g] + [F(0)] * len(keys_l)
    assert mat_rank(RatMatrix(rows + [frow])) == mat_rank(RatMatrix(rows))


def test_normalizer_requires_explicit_linear_part():
    s = build_spectrum(2, 1, [[1], [-1]])
    dev = PolyVectorField.monomial(2, 0, (2, 1))
    with pytest.raises(LinearPartMismatch):
        normalizer_truncated(s, dev, 3)


def test_normalizer_contains_counterexample_pair():
    # the identity field normalizes (1 + x1 x2) diag(1,-1) x with multiplier
    # 2 x1 x2 - ...; the pair must lie in the computed solution space
    s = build_spectrum(2, 1, [[1], [-1]])
    A = diag_field(1, -1)
    phi = PolySeries.monomial(2, (1, 1))
    f = A + series_times_field(phi, A)
    D = 4
    res = normalizer_truncated(s, f, D)
    g0 = diag_field(1, 1).truncated(D)
    lam0 = phi.scale(2).truncated(D - 1)
    resid = lie_bracket(g0, f) - series_times_field(lam0, f)
    assert resid.is_zero_mod(D)
    keys_g = sorted({k for g, _ in res.basis for k in g.terms} | set(g0.terms))
    keys_l = sorted({k for _, lam in res.basis for k in lam.terms} | set(lam0.terms))
    rows = [
        [g.terms.get(k, F(0)) for k in keys_g] + [lam.terms.get(k, F(0)) for k in keys_l]
        for g, lam in res.basis
    ]
    target = [g0.terms.get(k, F(0)) for k in keys_g] + [lam0.terms.get(k, F(0)) for k in keys_l]
    assert mat_rank(RatMatrix(rows + [target])) == mat_rank(RatMatrix(rows))


def normalizerex_data(D=8):
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
    return s, f, g, lam


def test_normalizer_reduce_normalizerex():
    D = 8
    s, f, g, lam = normalizerex_data(D)
    beta, alpha = normalizer_reduce(s, f, g, lam, D)
    assert beta.is_zero()
    assert not alpha.is_zero()
    assert alpha.coefficient((0, 0)) == 0
    for m in alpha.terms:
        assert m[0] == m[1]  # kernel of X_{A_s}: powers of x1 x2
    assert alpha.coefficient((1, 1)) == 2
    assert alpha.coefficient((2, 2)) == -2


def test_normalizer_reduce_centralizer_element():
    D = 6
    s, f, _g, _lam = normalizerex_data(D)
    beta, alpha = normalizer_reduce(s, f, f, PolySeries.zero(2, trunc=D - 1), D)
    assert beta.is_zero() and alpha.is_zero()


def test_normalizer_reduce_recovers_beta():
    s = build_spectrum(2, 1, [[1], [-1]])
    A = diag_field(1, -1)
    D = 8
    beta_in = PolySeries(2, {(1, 0): F(3), (0, 2): F(1, 2)}, trunc=D)
    g = series_times_field(beta_in, A)
    lam = lie_derivative(A, beta_in).scale(-1).truncated(D - 1)
    beta, alpha = normalizer_reduce(s, A, g, lam, D)
    assert alpha.is_zero()
    assert beta.terms == {(1, 0): F(3), (0, 2): F(1, 2)}


def test_normalizer_reduce_with_nilpotent_inversion():
    # nilpotent block forces the finite Neumann sum
    s = build_spectrum(2, 1, [[3], [3]], [(0, 1, 1)])
    f = PolyVectorField(2, {(0, (1, 0)): 3, (1, (0, 1)): 3, (0, (0, 1)): 1})
    D = 5
    beta_in = PolySeries(2, {(1, 1): F(1, 2), (2, 0): F(2)}, trunc=D)
    g = series_times_field(beta_in, f)
    lam = lie_derivative(f, beta_in).scale(-1).truncated(D - 1)
    beta, alpha = normalizer_reduce(s, f, g, lam, D)
    assert alpha.is_zero()
    resid = lie_bracket(g - series_times_field(beta, f), f) - series_times_field(alpha, f)
    assert resid.is_zero_mod(D)


def test_normalizer_reduce_error_paths():
    s, f, g, lam = normalizerex_data(8)
    with pytest.raises(NotNormalizerPair):
        normalizer_reduce(s, f, g, lam + PolySeries.monomial(2, (1, 0), trunc=7), 8)
    szero = build_spectrum(2, 0, [[], []])
    fz = PolyVectorField.monomial(2, 0, (2, 0))
    with pytest.raises(ZeroSemisimplePart):
        normalizer_reduce(szero, fz, fz, PolySeries.zero(2, trunc=7), 8)
