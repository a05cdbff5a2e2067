"""Invariant algebra, module checks, reduction by invariants, certificates."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nfkit
from nfkit import invariants
from nfkit.cli import main
from nfkit.errors import (
    CertificateFailure,
    DimensionMismatch,
    NFKitError,
    NotFreeModuleShape,
    RewriteFailure,
    ScopeError,
    SearchCapReached,
    ZeroEigenvalue,
)
from nfkit.fields import (
    PolySeries,
    PolyVectorField,
    lie_derivative,
    series_times_field,
)
from nfkit.invariants import (
    FreeModuleVerdict,
    InvariantAlgebra,
    OneDivVerdict,
    check_free_module,
    check_onediv,
    decompose_eta,
    invariant_generators,
    quadratic_from_nu,
    reduce_vectorfield,
    substitute_generators,
    triviality_certificate,
)
from nfkit.linalg import SolutionSpace
from nfkit.spectrum import build_spectrum, least_witness, unit_row

from oracles import (
    brute_free_module_witness,
    brute_onediv_witness,
    completion_witness,
    fraction_rank,
    fraction_rewrite,
    pairing,
)


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


def test_independence_matches_the_rank_test(monkeypatch):
    """Independent exactly when the generator rows have full rank, also when r > n - q."""
    rng = random.Random(37)
    cases = [[3, 5, -3, 6, -4, 5], [1, -1, 2, -2], [15, 10, -6], [1, 1, -1, -1, 2]]
    for _ in range(40):
        cases.append([rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(rng.randint(2, 5))])
    seen = set()
    for values in cases:
        s = build_spectrum(len(values), 1, [[v] for v in values])
        inv = invariant_generators(s)
        full_rank = fraction_rank(inv.generators) == inv.r
        assert inv.independent == full_rank, values
        seen.add((inv.r > s.n, inv.independent))
    assert {(False, True), (False, False), (True, False)} <= seen
    # 28 generators in Z^6: dependent without a rank computation
    def no_rank(rows):
        raise AssertionError("rank computed for more than n - q generators")

    monkeypatch.setattr(invariants, "pivot_columns", no_rank)
    s = build_spectrum(6, 1, [[v] for v in [3, 5, -3, 6, -4, 5]])
    inv = invariant_generators(s)
    assert inv.r == 28 and not inv.independent
    # n = 4 generators in the 3-dimensional kernel of one weight row
    s = build_spectrum(4, 1, [[v] for v in [1, -1, 2, -2]])
    inv = invariant_generators(s)
    assert inv.r == 4 and not inv.independent


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


def _assert_matches_brute(s, bound):
    """Both checks equal the brute-force oracles searched up to a proven degree bound."""
    if not all(any(pairing(s, unit_row(s.n, i))) for i in range(s.n)):
        with pytest.raises(ZeroEigenvalue):
            check_free_module(s)
    else:
        want = brute_free_module_witness(s, bound)
        got = check_free_module(s)
        assert got.free is (want is None)
        assert got.witness == want
    got = check_onediv(s)
    if not any(pairing(s, (1,) * s.n)):
        assert got.holds is False and not got.div_nonzero
        return
    want = brute_onediv_witness(s, bound)
    assert got.holds is (want is None)
    assert got.witness == want


def _window_bound(values):
    """Degree bound for q = 1: a shortest walk visits each point of its window once.

    Every target is some lambda_j or the divergence; the window of partial
    sums has |t| + 2W + 1 points.
    """
    W = max(abs(x) for x in values)
    return max(abs(x) for x in list(values) + [sum(values)]) + 2 * W


def test_witness_search_matches_brute_force_q1():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        values = [rng.randint(-4, 4) for _ in range(n)]
        if not any(values):
            continue
        s = build_spectrum(n, 1, [[x] for x in values])
        _assert_matches_brute(s, _window_bound(values))


def test_witness_search_matches_brute_force_q2():
    rng = random.Random(12)
    # block spectra: the search splits into one q = 1 search per coordinate
    blocks = [([1, -1], [1, -1]), ([2, -3], [1, -2]), ([3], [2, -1, -1]), ([1, -2, 3], [-2, 1])]
    for _ in range(8):
        blocks.append(tuple([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 2))]
                            for _ in range(2)))
    for first, second in blocks:
        rows = [[x, 0] for x in first] + [[0, y] for y in second]
        s = build_spectrum(len(rows), 2, rows)
        _assert_matches_brute(s, _window_bound(first) + _window_bound(second))
    # positive first coordinates: |m| min(a_i) <= t_1 for every solution
    for _ in range(12):
        n = rng.randint(2, 4)
        rows = [[rng.randint(1, 3), rng.randint(-3, 3)] for _ in range(n)]
        try:
            s = build_spectrum(n, 2, rows)
        except NFKitError:
            continue
        low = min(a for a, _ in rows)
        _assert_matches_brute(s, sum(a for a, _ in rows) // low)


def test_witness_search_matches_completion():
    """The least witness equals the least minimal inhomogeneous solution, q = 1..3."""
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        q = rng.randint(1, 3)
        n = rng.randint(q + 1, 4)
        try:
            s = build_spectrum(n, q, [[rng.randint(-3, 3) for _ in range(q)] for _ in range(n)])
        except NFKitError:
            continue
        for j in range(n):
            for target in (unit_row(n, j), (1,) * n):
                if not any(pairing(s, target)):
                    continue
                try:
                    want = completion_witness(s, target, j)
                except SearchCapReached:
                    continue
                assert least_witness(s, target, j) == want
                checked += 1


@pytest.mark.parametrize(
    "values, free_witness, onediv_witness",
    [
        ([-8, -3, -3, -10, -10, 2, -6], (0, (0, 0, 0, 0, 1, 1, 0)), (0, 0, 0, 0, 2, 0, 3)),
        ([10, -11, 5, -9, -11, -11], (0, (0, 0, 2, 0, 0, 0)), (0, 0, 0, 3, 0, 0)),
        ([6, -2, 12, -7, 5, -7], (0, (0, 2, 0, 0, 2, 0)), (0, 4, 0, 0, 3, 0)),
        ([-11, 12, -11, 1, 12, 1], (0, (0, 0, 1, 0, 0, 0)), (0, 0, 0, 0, 0, 4)),
    ],
)
def test_module_checks_on_large_spectra(values, free_witness, onediv_witness):
    # witnesses found by the earlier completion-based search (seconds each)
    s = build_spectrum(len(values), 1, [[x] for x in values])
    assert check_free_module(s) == FreeModuleVerdict(free=False, witness=free_witness)
    assert check_onediv(s) == OneDivVerdict(holds=False, witness=onediv_witness)


def test_witness_window_limit_is_a_scope_error():
    s = build_spectrum(4, 3, [[30, 1, 2], [1, 30, 3], [2, 3, -30], [-29, 5, 7]])
    with pytest.raises(ScopeError, match=r"witness search window has \d+ points, above the limit"):
        check_onediv(s)


WITNESS_CERTIFICATE_SCRIPT = """
import sys
from nfkit import spectrum
from nfkit.cli import main
from nfkit.errors import CertificateFailure
from nfkit.invariants import check_onediv

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_lex_least = spectrum._lex_least
# same degree, exponents in reverse order: the pairing no longer hits the target
spectrum._lex_least = lambda steps, t, degree: real_lex_least(steps, t, degree)[::-1]
try:
    check_onediv(spectrum.build_spectrum(3, 1, [[1], [2], [-2]]))
except CertificateFailure as exc:
    print("api", exc.code, exc)
print("cli", main(["invariants", "--spectrum", sys.argv[1]]))
"""


def test_witness_certificate_fires_under_optimize(tmp_path):
    path = tmp_path / "spectrum.json"
    path.write_text('{"n": 3, "q": 1, "lambda": [["1"], ["2"], ["-2"]]}')
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_CERTIFICATE_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "api certificate-failure search found no witness of degree 1 for target (1, 1, 1) off index 1"
    )
    assert lines[1] == "cli 4"
    assert json.loads(proc.stderr)["error"] == "certificate-failure"


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


@st.composite
def generators_and_rows(draw):
    """Independent generator rows (r <= n <= 5, r = 0 included) and exponent rows:
    combinations, arbitrary rows, and combinations with negative or fractional k."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    gens = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=r, max_size=r).filter(
            lambda g: fraction_rank(g) == len(g)
        )
    )

    def combination(k, d=1):
        w = tuple(sum(ka * g[i] for ka, g in zip(k, gens)) for i in range(n))
        return tuple(x // d for x in w) if all(x % d == 0 for x in w) else w

    ks = st.tuples(*[st.integers(0, 3)] * r)
    row = st.one_of(
        ks.map(combination),
        st.tuples(*[st.integers(0, 4)] * n),
        st.builds(combination, st.tuples(*[st.integers(-2, 3)] * r), st.integers(1, 3)),
    )
    return tuple(gens), draw(st.lists(row, max_size=6))


@settings(max_examples=300, deadline=None)
@given(generators_and_rows())
@example(((), [(0, 0), (0, 0)]))  # r = 0: the zero row rewrites to k = (), once per row
@example(((), [(0, 0), (1, 0)]))  # r = 0: any other row is off the span
@example((((2, 0, 2), (0, 1, 1)), [(2, 1, 3), (1, 0, 1), (0, 0, 0)]))  # k = (1/2, 0) second
@example((((1, 1),), [(2, 2), (-1, -1), (1, 2)]))  # k = -1 before a row off the span
def test_batched_rewrite_matches_one_fraction_solve_per_row(case):
    gens, rows = case
    inv = InvariantAlgebra(generators=gens, independent=True)
    expected = []
    for v in rows:
        try:
            expected.append(fraction_rewrite(gens, v))
        except RewriteFailure as exc:
            with pytest.raises(RewriteFailure) as info:
                invariants._rewrite_in_generators(inv, rows)
            assert (str(info.value), info.value.row) == (str(exc), exc.row)
            return
    got = invariants._rewrite_in_generators(inv, rows)
    assert len(got) == len(rows)  # one point per row, r = 0 included
    assert got == expected


def test_rewrite_over_dependent_generators_fails_row_by_row():
    inv = InvariantAlgebra(generators=((1, 1, 0), (0, 1, 1), (1, 2, 1)), independent=False)
    with pytest.raises(RewriteFailure, match=r"^exponent row \(1, 0, 0\) is not a combination"):
        invariants._rewrite_in_generators(inv, [(1, 0, 0), (1, 1, 0)])
    with pytest.raises(CertificateFailure, match="must be independent"):
        invariants._rewrite_in_generators(inv, [(1, 1, 0), (1, 0, 0)])


def test_rewrite_needs_one_point_per_row(monkeypatch):
    """A kernel that lost a vector is a defect, not an input error: the point it
    gives misses the row, yet appending the row to the generators keeps their rank."""
    real_kernel = invariants.mat_kernel

    def dropped(M):
        kernel = real_kernel(M)
        return SolutionSpace(kernel.basis[:-1], kernel.supports[:-1])

    monkeypatch.setattr(invariants, "mat_kernel", dropped)
    inv = InvariantAlgebra(generators=((1, 1),), independent=True)
    with pytest.raises(CertificateFailure, match=r"^generator combination \[\]/1 misses exponent row"
                                                 r" \(1, 1\), a combination of the generators$"):
        invariants._rewrite_in_generators(inv, [(1, 1), (2, 2)])


def test_decompose_eta_error_precedence():
    """The first failing term in sorted order wins, rewrite or missing x_j."""
    s = build_spectrum(3, 1, [[1], [1], [-1]])
    # x1 x3 = (x1^2 x3^2)^(1/2) does not rewrite over these generators
    inv = InvariantAlgebra(generators=((2, 0, 2), (0, 1, 1)), independent=True)
    A = diag_field(1, 1, -1)
    rewrite_first = A + PolyVectorField(3, {(0, (2, 0, 1)): 1, (1, (2, 0, 1)): 1})
    with pytest.raises(RewriteFailure) as info:
        decompose_eta(s, inv, rewrite_first)
    assert str(info.value) == (
        "exponent row (1, 0, 1) needs a non-integer or negative generator combination"
    )
    bare_first = A + PolyVectorField(3, {(0, (0, 2, 1)): 1, (1, (1, 1, 1)): 1})
    with pytest.raises(NotFreeModuleShape) as info:
        decompose_eta(s, inv, bare_first)
    assert str(info.value) == "term (0, (0, 2, 1)) lacks the coordinate factor x_0"


REWRITE_CERTIFICATE_SCRIPT = """
import sys
from nfkit import invariants
from nfkit.cli import main
from nfkit.linalg import SolutionSpace

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_kernel = invariants.mat_kernel


def doubled(M):
    # every vector twice as long: no row's combination meets the row
    kernel = real_kernel(M)
    return SolutionSpace(tuple(tuple(2 * x for x in v) for v in kernel.basis), kernel.supports)


def dropped(M):
    kernel = real_kernel(M)
    return SolutionSpace(kernel.basis[:-1], kernel.supports[:-1])


for kernel in (doubled, dropped):
    invariants.mat_kernel = kernel
    print(kernel.__name__, main(["reduce", "--spectrum", sys.argv[1], "--field", sys.argv[2]]))
"""


def test_rewrite_checks_fire_under_optimize(tmp_path):
    spectrum = tmp_path / "saddle.json"
    spectrum.write_text('{"n": 2, "q": 1, "lambda": [["1"], ["-1"]]}')
    field = tmp_path / "field.json"
    # diag(1, -1) with x1^2 x2 e_1 and 2 x1 x2^2 e_2: both cofactors are x1 x2
    field.write_text(json.dumps({"n": 2, "trunc": "inf", "terms": [
        {"j": 1, "m": [1, 0], "c": "1"}, {"j": 2, "m": [0, 1], "c": "-1"},
        {"j": 1, "m": [2, 1], "c": "1"}, {"j": 2, "m": [1, 2], "c": "2"},
    ]}))
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REWRITE_CERTIFICATE_SCRIPT, str(spectrum), str(field)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["doubled 4", "dropped 4"]
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [
        {"error": "certificate-failure", "message": f"generator combination {k}/1 misses"
                                                   " exponent row (1, 1), a combination of the generators"}
        for k in ("[2]", "[]")
    ]


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


TRUNCATION_MESSAGE = (
    "field truncation {} is below 3, one more than the largest generator degree,"
    " which nu at degree 2 of the reduced field needs"
)


@pytest.mark.parametrize("trunc", [0, 2])
def test_reduce_refuses_a_field_truncated_below_nu(trunc):
    """diag(1, -1) has the one generator x1 x2: f_hat is complete at degree 2 only
    from trunc = 3 on, where x1^2 x2 e_1 can already change nu."""
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    f = PolyVectorField(2, {}, trunc=trunc)
    with pytest.raises(DimensionMismatch) as info:
        reduce_vectorfield(s, inv, f)
    assert str(info.value) == TRUNCATION_MESSAGE.format(trunc)
    f = PolyVectorField(2, {(0, (2, 1)): 4}, trunc=3)
    assert reduce_vectorfield(s, inv, f).nu == ((4,),)


def test_reduce_without_generators_takes_any_truncation():
    s = build_spectrum(2, 1, [[1], [2]])
    inv = invariant_generators(s)
    red = reduce_vectorfield(s, inv, PolyVectorField(2, {}, trunc=0))
    assert red.r == 0 and red.nu == () and red.field.is_zero()


@pytest.mark.parametrize("trunc", [0, 2])
def test_cli_reduce_refuses_a_field_truncated_below_nu(tmp_path, capsys, trunc):
    spectrum = tmp_path / "saddle.json"
    spectrum.write_text('{"n": 2, "q": 1, "lambda": [["1"], ["-1"]]}')
    field = tmp_path / "field.json"
    terms = [{"j": 1, "m": [1, 0], "c": "1"}, {"j": 2, "m": [0, 1], "c": "-1"}] if trunc else []
    field.write_text(json.dumps({"n": 2, "trunc": trunc, "terms": terms}))
    code = main(["reduce", "--spectrum", str(spectrum), "--field", str(field)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "dimension-mismatch", "message": TRUNCATION_MESSAGE.format(trunc)}


def _perturbed_eta(change):
    """`decompose_eta` with ``change`` applied to the terms of eta_hat_1."""
    real = invariants.decompose_eta

    def decompose(s, inv, f):
        first, *rest = real(s, inv, f)
        return (PolySeries(first.n, change(dict(first.terms)), first.trunc), *rest)

    return decompose


PERTURBATIONS = {
    "coefficient": lambda terms: {k: c + 1 for k, c in terms.items()},
    "extra-term": lambda terms: {**terms, (2,): F(1, 3)},
}


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
def test_reduction_identity_catches_a_perturbed_eta(monkeypatch, perturbation):
    """diag(1, -1) with x1^2 x2 e_1: eta_hat_1 = y.  Either change makes f_hat miss X_f(x1 x2)."""
    s = build_spectrum(2, 1, [[1], [-1]])
    inv = invariant_generators(s)
    f = diag_field(1, -1) + PolyVectorField(2, {(0, (2, 1)): 1})
    monkeypatch.setattr(invariants, "decompose_eta", _perturbed_eta(PERTURBATIONS[perturbation]))
    with pytest.raises(CertificateFailure) as info:
        reduce_vectorfield(s, inv, f)
    assert str(info.value) == "reduction identity failed for generator 1"


REDUCTION_CERTIFICATE_SCRIPT = """
import sys
from nfkit import invariants
from nfkit.cli import main
from nfkit.fields import PolySeries

if not sys.flags.optimize:
    sys.exit("not running under -O")
real = invariants.decompose_eta


def perturbed(s, inv, f):
    # eta_hat_1 doubled: f_hat no longer carries X_f(x1 x2)
    first, *rest = real(s, inv, f)
    return (PolySeries(first.n, {k: 2 * c for k, c in first.terms.items()}, first.trunc), *rest)


invariants.decompose_eta = perturbed
print("cli", main(["reduce", "--spectrum", sys.argv[1], "--field", sys.argv[2]]))
"""


def test_reduction_identity_fires_under_optimize(tmp_path):
    spectrum = tmp_path / "saddle.json"
    spectrum.write_text('{"n": 2, "q": 1, "lambda": [["1"], ["-1"]]}')
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"n": 2, "trunc": "inf", "terms": [
        {"j": 1, "m": [1, 0], "c": "1"}, {"j": 2, "m": [0, 1], "c": "-1"},
        {"j": 1, "m": [2, 1], "c": "1"},
    ]}))
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REDUCTION_CERTIFICATE_SCRIPT, str(spectrum), str(field)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure", "message": "reduction identity failed for generator 1"
    }


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
