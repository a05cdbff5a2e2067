"""Spectrum encoding, Hilbert bases, finiteness tests, dimension-3 classifier."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import nfkit
from nfkit import spectrum
from nfkit.errors import GcdNotOne, NilpotentViolatesCommutation, RankMismatch, SearchCapReached
from nfkit.spectrum import (
    build_spectrum,
    c_matrix_basis,
    classify_dim3,
    eigen_system,
    has_positive_relation,
    hilbert_basis,
    is_finite_linear_centralizer,
    minimal_nonneg_solutions,
    uw_decomposition,
    zero_spectrum,
)

from oracles import (
    brute_monoid,
    brute_positive_relation,
    decomposes_over,
    dim3_condition_a,
    exponent_rows,
    fraction_rank,
    is_monoid_minimal,
    lambert_box_solutions,
    pairing,
    random_block_spectrum,
    reference_completion,
    reference_eigen_system,
)


def spec_1263():
    return build_spectrum(3, 1, [[12], [6], [3]])


def spec_saddle():
    return build_spectrum(2, 1, [[1], [-1]])


def spec_omega4():
    # diag(w, -2w, 3, -1) over the basis (w, 1)
    return build_spectrum(4, 2, [[1, 0], [-2, 0], [0, 3], [0, -1]])


def spec_oscillator():
    # diag(i w1, -i w1, i w2, -i w2) over the basis (i w1, i w2)
    return build_spectrum(4, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]])


TEST_SPECTRA = [
    spec_1263,
    spec_saddle,
    spec_omega4,
    spec_oscillator,
    lambda: build_spectrum(3, 1, [[3], [2], [-6]]),
    lambda: build_spectrum(3, 1, [[1], [2], [-2]]),
    lambda: build_spectrum(3, 1, [[1], [1], [-1]]),
    lambda: build_spectrum(3, 2, [[1, 0], [-1, 0], [0, 1]]),
]


def test_build_valid():
    s = spec_1263()
    assert s.n == 3 and s.q == 1


def test_build_omega4_valid():
    s = spec_omega4()
    assert s.q == 2


def test_build_rank_mismatch():
    with pytest.raises(RankMismatch):
        build_spectrum(2, 2, [[1, 0], [2, 0]])


def test_build_rank_check_reads_the_integer_weights():
    """Scaling the columns by their lcms keeps the rank: a rational row set has
    rank q exactly when `build_spectrum` accepts it, by the Fraction oracle."""
    with pytest.raises(RankMismatch):
        build_spectrum(2, 2, [[F(1, 2), F(1, 3)], [F(3, 2), 1]])
    assert build_spectrum(2, 2, [[F(1, 2), F(1, 3)], [F(3, 2), F(1, 2)]]).q == 2
    rng = random.Random(41)
    accepted = 0
    for _ in range(200):
        q = rng.randint(1, 3)
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(q)] for _ in range(n)]
        try:
            build_spectrum(n, q, rows)
        except RankMismatch:
            assert fraction_rank(rows) < q, rows
        else:
            assert fraction_rank(rows) == q, rows
            accepted += 1
    assert 50 < accepted < 200


def test_build_nilpotent_rejects_unequal_rows():
    with pytest.raises(NilpotentViolatesCommutation):
        build_spectrum(2, 1, [[1], [2]], [(0, 1, 1)])


def test_build_nilpotent_rejects_lower_triangle():
    with pytest.raises(NilpotentViolatesCommutation):
        build_spectrum(2, 1, [[1], [1]], [(1, 0, 1)])


def test_hilbert_saddle():
    assert hilbert_basis(spec_saddle()).generators == ((1, 1),)


def test_hilbert_omega4():
    gens = set(hilbert_basis(spec_omega4()).generators)
    assert gens == {(2, 1, 0, 0), (0, 0, 1, 3)}


def test_hilbert_positive_empty():
    assert hilbert_basis(spec_1263()).generators == ()


def test_hilbert_dependent_triple():
    s = build_spectrum(4, 2, [[1, 0], [0, 1], [1, 2], [-2, -3]])
    gens = set(hilbert_basis(s).generators)
    assert gens == {(1, 1, 1, 1), (1, 0, 3, 2), (2, 3, 0, 1)}


def test_hilbert_oracle_decomposition_and_minimality():
    # every monoid element of total degree <= 8 decomposes over the
    # generators, and each generator is monoid-minimal
    for make in TEST_SPECTRA:
        s = make()
        gens = hilbert_basis(s).generators
        for d in brute_monoid(s, 8):
            assert decomposes_over(gens, d), (s.lam, d)
        for g in gens:
            assert is_monoid_minimal(s, g, 8), (s.lam, g)


def test_finiteness():
    assert is_finite_linear_centralizer(spec_1263())
    assert not is_finite_linear_centralizer(spec_saddle())
    assert not is_finite_linear_centralizer(spec_oscillator())


def test_positive_relation_examples():
    assert has_positive_relation(spec_saddle())
    assert not has_positive_relation(build_spectrum(3, 2, [[1, 0], [-1, 0], [0, 1]]))
    assert has_positive_relation(build_spectrum(3, 1, [[3], [2], [-6]]))


def test_positive_relation_brute_agreement():
    for make in TEST_SPECTRA:
        s = make()
        if s.n > 4:
            continue
        assert has_positive_relation(s) == brute_positive_relation(s, 12), s.lam


def test_uw_decomposition():
    assert uw_decomposition(spec_1263()) == ((), (0, 1, 2))
    assert uw_decomposition(build_spectrum(3, 2, [[1, 0], [-1, 0], [0, 1]])) == ((0, 1), (2,))
    assert uw_decomposition(spec_saddle()) == ((0, 1), ())


def test_c_matrix_basis():
    assert c_matrix_basis(spec_1263()) == ((12, 6, 3),)
    assert c_matrix_basis(spec_omega4()) == ((1, -2, 0, 0), (0, 0, 3, -1))
    assert c_matrix_basis(spec_saddle()) == ((1, -1),)


def test_eigen_system_rows_are_primitive():
    # <m, lambda> = 0 on diag(12, 6, 3): the gcd 3 is divided out
    assert eigen_system(spec_1263(), (0, 0, 0)) == [[4, 2, 1, 0]]
    assert eigen_system(spec_1263(), (1, 0, 0)) == [[4, 2, 1, 4]]
    assert eigen_system(spec_1263(), (1, 0, 0), drop=0) == [[2, 1, 4]]
    assert eigen_system(spec_omega4(), (1, 1, 1, 1)) == [[1, -2, 0, 0, -1], [0, 0, 3, -1, 2]]
    s = build_spectrum(2, 1, [[F(1, 2)], [F(1, 3)]])
    assert eigen_system(s, (0, 1), drop=1) == [[3, 2]]
    # row for row against the rows scaled from the rational coordinates
    rng = random.Random(29)
    for q in (1, 2, 3):
        for _ in range(40):
            s = random_block_spectrum(rng, rng.randint(q, 6), q)
            for _ in range(3):
                target = tuple(rng.randint(0, 3) for _ in range(s.n))
                for drop in (None, *range(s.n)):
                    assert eigen_system(s, target, drop) == reference_eigen_system(s, target, drop)


def test_integral_monomials_agree_with_eigen_coordinates():
    rng = random.Random(31)
    spectra = [zero_spectrum(3), spec_omega4()]
    for q in (1, 2, 3):
        for _ in range(15):
            n = rng.randint(q, 5)
            spectra.append(random_block_spectrum(rng, n, q))
            # small integer rows, so that many monomials are first integrals
            rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(q)] for _ in range(n)]
            try:
                spectra.append(build_spectrum(n, q, rows))
            except RankMismatch:
                pass
    integral = 0
    for s in spectra:
        for d in range(5):
            for m in exponent_rows(d, s.n):
                expected = not any(s.eigen_coords(m))
                assert s.is_integral_monomial(m) == expected, (s.lam, m)
                integral += expected and d > 0
    assert integral > 50


def test_c_matrix_clears_denominators():
    s = build_spectrum(2, 1, [[F(1, 2)], [F(1, 3)]])
    assert c_matrix_basis(s) == ((3, 2),)


def test_classify_dim3_examples():
    v = classify_dim3(3, 2, 6)
    assert v.holds and v.l1 == 2 and v.l2 == 3
    assert not classify_dim3(1, 1, 1).holds
    assert not classify_dim3(2, 3, 1).holds


def test_classify_dim3_large_entries():
    # a closed form: a search over the divisors of d3 would not finish
    l1, l2 = 10**9 + 7, 10**9 + 9
    v = classify_dim3(l2, l1, l1 * l2)
    assert v.holds and (v.l1, v.l2) == (l1, l2) and len(str(l1 * l2)) == 19
    assert not classify_dim3(3, 2, 2000000011).holds
    assert not classify_dim3(l2, 2 * l1, 4 * l1 * l2).holds


def test_classify_dim3_gcd_error():
    with pytest.raises(GcdNotOne):
        classify_dim3(2, 4, 2)


def test_classify_dim3_brute_agreement():
    rng = random.Random(2024)
    count = 0
    while count < 200:
        d1, d2, d3 = (rng.randint(1, 30) for _ in range(3))
        if gcd(gcd(d1, d2), d3) != 1:
            continue
        count += 1
        want = dim3_condition_a(d1, d2, d3)
        got = classify_dim3(d1, d2, d3).holds
        assert got == want, (d1, d2, d3)
        if got:
            v = classify_dim3(d1, d2, d3)
            assert v.l1 > 1 and v.l2 > 1 and v.l1 * v.l2 == d3
            assert d1 % v.l2 == 0 and d2 % v.l1 == 0 and gcd(v.l1, v.l2) == 1


def test_generator_equations_exact():
    for make in TEST_SPECTRA:
        s = make()
        zero = tuple(F(0) for _ in range(s.q))
        for g in hilbert_basis(s).generators:
            assert pairing(s, g) == zero


def test_completion_cap_diagnostic(monkeypatch):
    # (0, 1) extends to (1, 1): one candidate of nvars = 2 units, no stored solution
    monkeypatch.setattr(spectrum, "COMPLETION_WORK_LIMIT", 0)
    message = "^completion work 2 passed the limit 0 at degree 1 with 2 open candidates$"
    with pytest.raises(SearchCapReached, match=message) as info:
        hilbert_basis(spec_saddle())
    assert info.value.partial == []


def test_completion_work_limit_refuses_the_costly_search():
    """The work count decides where the refusal falls, so it is pinned exactly."""
    s = build_spectrum(6, 1, [[v] for v in [-11, 12, -11, 1, 12, 1]])
    assert len(hilbert_basis(s).generators) == 2730
    s = build_spectrum(6, 1, [[v] for v in [-17, 18, -17, 1, 18, 1]])
    with pytest.raises(SearchCapReached) as info:
        hilbert_basis(s)
    assert str(info.value) == (
        "completion work 4000318 passed the limit 4000000 at degree 26 with 4244 open candidates"
    )
    assert len(info.value.partial) == 3960


def _reference_up_to(eqs, nvars, cap):
    """Every minimal solution of degree <= cap, read off the reference at that cap."""
    try:
        return reference_completion(eqs, nvars, cap)
    except SearchCapReached as exc:
        return exc.partial


def _random_systems(seed, count):
    """q = 1..3 rows over n <= 7 variables with entries in -12..12, some with a
    zero column or two equal columns."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        q = rng.randint(1, 3)
        eqs = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(q)]
        if n > 1 and rng.random() < 0.3:
            k = rng.randrange(n)
            for row in eqs:
                row[k] = 0
        if n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            for row in eqs:
                row[a] = row[b]
        yield eqs, n


def test_completion_matches_the_reference_and_the_lambert_box(monkeypatch):
    """Same generators in the same order as the scan-based completion, which
    freezes no direction, and, for one equation, as a box search under
    Lambert's bound.  Searches past 100 000 work units are left to the cap
    test below."""
    monkeypatch.setattr(spectrum, "COMPLETION_WORK_LIMIT", 100_000)
    finished = 0
    for eqs, n in _random_systems(7, 320):
        try:
            got = minimal_nonneg_solutions(eqs, n)
        except SearchCapReached:
            continue
        assert got == reference_completion(eqs, n), eqs
        if len(eqs) == 1:
            assert got == lambert_box_solutions(eqs[0]), eqs
        finished += 1
    assert finished >= 275


def test_completion_caps_match_the_reference(monkeypatch):
    """Under a low work limit the completion finishes with the reference's list,
    or stops at degree L with the reference's solutions of degree <= L."""
    stops = set()
    for eqs, n in _random_systems(11, 120):
        for limit in (0, 6, 25, 100, 400):
            monkeypatch.setattr(spectrum, "COMPLETION_WORK_LIMIT", limit)
            try:
                got = minimal_nonneg_solutions(eqs, n)
            except SearchCapReached as exc:
                degree = int(re.search(r" at degree (\d+) ", str(exc)).group(1))
                assert exc.partial == _reference_up_to(eqs, n, degree), (eqs, limit)
                stops.add((degree, bool(exc.partial)))
            else:
                assert got == reference_completion(eqs, n), (eqs, limit)
    assert len(stops) >= 6


MINIMALITY_SCRIPT = """
import sys
from nfkit import spectrum
from nfkit.errors import CertificateFailure

if not sys.flags.optimize:
    sys.exit("not running under -O")
spectrum._require_minimal([(0, 1, 1), (1, 1, 0), (2, 0, 1)])
try:
    spectrum._require_minimal([(0, 1, 1), (1, 1, 0), (1, 2, 1)])
except CertificateFailure as exc:
    print("api", exc.code, exc)
"""


def test_minimality_recheck_fires_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MINIMALITY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "api certificate-failure completion kept [1, 2, 1], which lies on or above [0, 1, 1]"
    ]
