"""Resonance enumeration, degree bounds, degree ladders."""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from nfkit import resonance
from nfkit.centralizer import centralizer_exact, centralizer_truncated
from nfkit.errors import InfiniteResonance, InfiniteResonanceWithoutCap, ScopeError
from nfkit.fields import pdnf_basis
from nfkit.resonance import (
    commuting_degree_ladder,
    resonance_degree_bound,
    resonance_set,
    resonances_by_component,
    resonant_multiindices,
    semiinvariant_degree_ladder,
)
from nfkit.linalg import OPTIMAL, RatMatrix, lp_max, mat_rank
from nfkit.spectrum import (
    build_spectrum,
    count_eigen_monomials,
    eigen_monomials,
    eigen_system,
    is_finite_linear_centralizer,
    unit_row,
)

from oracles import (
    brute_commuting_degrees,
    brute_resonances,
    brute_semiinvariant_ladder,
    columns_of,
    pairing,
    per_coordinate_degree_bound,
    random_block_spectrum,
    random_pdnf,
    spectrum_pool_finite,
)


def spec_1263():
    return build_spectrum(3, 1, [[12], [6], [3]])


def test_resonant_multiindices_examples():
    s = spec_1263()
    assert resonant_multiindices(s, 0, 2) == [(0, 2, 0)]
    assert resonant_multiindices(s, 0, 4) == [(0, 0, 4)]
    for d in range(2, 7):
        assert resonant_multiindices(s, 2, d) == []


def test_resonant_exactness_per_coordinate():
    s = build_spectrum(4, 2, [[1, 0], [-2, 0], [0, 3], [0, -1]])
    for j in range(4):
        for d in range(2, 6):
            for m in resonant_multiindices(s, j, d):
                assert pairing(s, m) == s.lam[j]


def test_degree_bound_examples():
    assert resonance_degree_bound(build_spectrum(3, 1, [[12], [3], [2]])) == 6
    assert resonance_degree_bound(spec_1263()) == 4
    assert resonance_degree_bound(build_spectrum(2, 1, [[1], [2]])) == 2


def simplex_degree_bound(s):
    """max(1, floor) of the exact simplex LP of each eigenvalue block."""
    best = 1
    for block in s.blocks():
        rows = eigen_system(s, unit_row(s.n, block[0]))
        res = lp_max([1] * s.n, [row[:-1] for row in rows], [row[-1] for row in rows])
        assert res.status == OPTIMAL
        best = max(best, math.floor(res.value))
    return best


def test_degree_bound_is_one_lp_per_eigenvalue():
    """The integer bound is the maximum of the per-block simplex LPs and of
    the per-coordinate vertex-enumeration oracle, for q = 1, 2, 3."""
    rng = random.Random(31)
    spectra = [spectrum_pool_finite(rng, rng.randint(1, 6)) for _ in range(40)]
    # positive first coordinates: the zero-resonance monoid is trivial
    pools = {
        2: [(F(1), F(2)), (F(3), F(1)), (F(2), F(2)), (F(1, 2), F(5)), (F(6), F(-1)),
            (F(8), F(7))],
        3: [(F(1), F(0), F(0)), (F(2), F(1), F(-1)), (F(1, 2), F(1), F(3)),
            (F(5), F(-1), F(-4)), (F(7), F(2), F(3)), (F(9), F(1), F(1)),
            (F(12), F(-3), F(2))],
    }
    for q, pool in pools.items():
        for _ in range(20):
            n = rng.randint(q, 6)
            while True:
                rows = rng.sample(pool, q) + [rng.choice(pool) for _ in range(n - q)]
                if mat_rank(RatMatrix(columns_of(rows))) == q:
                    break
            spectra.append(build_spectrum(n, q, rng.sample(rows, n)))
    above_one = set()
    for s in spectra:
        assert is_finite_linear_centralizer(s), s.lam
        bound = resonance_degree_bound(s)
        assert bound == simplex_degree_bound(s) == per_coordinate_degree_bound(s), s.lam
        if bound > 1:
            above_one.add(s.q)
    assert above_one == {1, 2, 3}


DEGREE_CERTIFICATE_SCRIPT = """
import sys
from nfkit import resonance
from nfkit.cli import main
from nfkit.errors import CertificateFailure
from nfkit.linalg import SolutionSpace
from nfkit.spectrum import build_spectrum

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_kernel = resonance.mat_kernel


def doubled(M):
    # every vector twice as long: no point satisfies its rows
    kernel = real_kernel(M)
    return SolutionSpace(
        tuple(tuple((t, 2 * x) for t, x in pairs) for pairs in kernel.vectors), kernel.cols
    )


resonance.mat_kernel = doubled
try:
    resonance.resonance_degree_bound(build_spectrum(3, 1, [[12], [6], [3]]))
except CertificateFailure as exc:
    print("api", exc.code, exc)
print("cli", main(["resonances", "--spectrum", sys.argv[1]]))
"""


def test_degree_bound_certificate_fires_under_optimize(tmp_path):
    path = tmp_path / "spectrum.json"
    path.write_text('{"n": 3, "q": 1, "lambda": [["12"], ["6"], ["3"]]}')
    env = dict(os.environ, PYTHONPATH=str(Path(resonance.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DEGREE_CERTIFICATE_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "api certificate-failure degree bound point [8]/1 on columns [2] misses the target [4]"
    )
    assert lines[1] == "cli 4"
    assert json.loads(proc.stderr)["error"] == "certificate-failure"


DROPPED_KERNEL_VECTOR_SCRIPT = """
import sys
from nfkit import resonance
from nfkit.cli import main
from nfkit.linalg import SolutionSpace

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_kernel = resonance.mat_kernel


def without_last_vector(M):
    kernel = real_kernel(M)
    return SolutionSpace(kernel.vectors[:-1], kernel.cols)


resonance.mat_kernel = without_last_vector
print("cli", main(["resonances", "--spectrum", sys.argv[1]]))
"""


def test_degree_bound_kernel_check_fires_under_optimize(tmp_path):
    """A nonsingular A_B gives exactly q kernel vectors, at the free columns q..2q-1:
    with one dropped, diag(12, 6, 3) (q = 1) is a certificate failure, not an IndexError."""
    path = tmp_path / "spectrum.json"
    path.write_text('{"n": 3, "q": 1, "lambda": [["12"], ["6"], ["3"]]}')
    env = dict(os.environ, PYTHONPATH=str(Path(resonance.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_KERNEL_VECTOR_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli 4"]
    assert json.loads(proc.stderr) == {
        "error": "certificate-failure",
        "message": "kernel of [A_B | -I] on columns [0] has free columns [], not [1]",
    }


def test_degree_bound_requires_finite():
    with pytest.raises(InfiniteResonance):
        resonance_degree_bound(build_spectrum(2, 1, [[1], [-1]]))


def test_degree_bound_complete():
    # nothing beyond the bound up to bound + 3, by brute enumeration
    for spec in [spec_1263(), build_spectrum(3, 1, [[12], [3], [2]]),
                 build_spectrum(4, 1, [[8], [4], [2], [2]])]:
        bound = resonance_degree_bound(spec)
        for j in range(spec.n):
            for m in brute_resonances(spec, j, bound + 3):
                assert sum(m) <= bound


def test_resonance_set_eg3():
    rs = resonance_set(spec_1263())
    assert rs.finite and rs.degree_bound == 4
    assert rs.total == 4
    assert rs.by_component[0] == ((0, 2, 0), (0, 1, 2), (0, 0, 4))
    assert rs.by_component[1] == ((0, 0, 2),)
    assert rs.by_component[2] == ()


def test_resonance_set_eg4_first():
    rs = resonance_set(build_spectrum(6, 1, [[12], [12], [6], [6], [6], [3]]))
    assert rs.total == 23


def test_resonance_set_eg2_family():
    for qq in (1, 2, 3):
        s = build_spectrum(3, 1, [[12 * qq], [3], [2]])
        rs = resonance_set(s)
        want = tuple((0, 4 * qq - 2 * k, 3 * k) for k in range(2 * qq + 1))
        assert sorted(rs.by_component[0]) == sorted(want)
        assert rs.by_component[1] == () and rs.by_component[2] == ()


@pytest.mark.parametrize(
    "nilpotent", [(), ((0, 2, 1), (2, 5, 1), (1, 4, -2))], ids=["diagonal", "jordan"]
)
def test_each_eigenvalue_block_is_scanned_once_per_degree(monkeypatch, nilpotent):
    """Blocks {0, 2, 5} (6), {1, 4} (3) and {3} (2) are each listed once per degree,
    for their first component, by every caller; each component gets the oracle's list."""
    s = build_spectrum(6, 1, [[6], [3], [6], [2], [3], [6]], nilpotent)
    f = random_pdnf(s, random.Random(5), 3)
    bound = resonance_degree_bound(s)
    assert bound == 3
    scanned = []
    scan = resonance.resonant_multiindices

    def counted(s, j, d):
        scanned.append((j, d))
        return scan(s, j, d)

    monkeypatch.setattr(resonance, "resonant_multiindices", counted)
    brute = [tuple(brute_resonances(s, j, bound)) for j in range(s.n)]
    runs = [
        (lambda: resonance_set(s).by_component, 2, bound),
        (lambda: pdnf_basis(s), 2, bound),
        (lambda: centralizer_exact(s, f), 2, bound),
        (lambda: centralizer_truncated(s, f, 3), 1, 3),
    ]
    results = []
    for run, dmin, dmax in runs:
        scanned.clear()
        results.append(run())
        assert scanned == [(j, d) for j in (0, 1, 3) for d in range(dmin, dmax + 1)]
    by_component, basis = results[0], results[1]
    assert by_component == tuple(brute)
    assert [(j, m) for g in basis for (j, m) in g.terms] == [
        (j, m) for j in range(s.n) for m in brute[j]
    ]


@pytest.mark.parametrize("q", [1, 2])
def test_shared_block_listings_match_brute_force(q):
    rng = random.Random(70 + q)
    spectra = [random_block_spectrum(rng, rng.randint(q, 5), q) for _ in range(30)]
    assert any(len(b) > 1 for s in spectra for b in s.blocks())
    for s in spectra:
        assert resonances_by_component(s, 2, 4) == tuple(
            tuple(brute_resonances(s, j, 4)) for j in range(s.n)
        ), (s.lam, s.nilpotent)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_resonance_counts_equal_the_listings(q):
    """`count_eigen_monomials` counts what `eigen_monomials` lists over a degree range,
    for every component's target and for the divergence target."""
    rng = random.Random(90 + q)
    for _ in range(30):
        if q:
            s = random_block_spectrum(rng, rng.randint(q, 5), q)
        else:
            n = rng.randint(1, 4)
            s = build_spectrum(n, 0, [[]] * n)
        dmin = rng.randint(1, 3)
        dmax = rng.randint(dmin, 4)
        for target in [unit_row(s.n, j) for j in range(s.n)] + [(1,) * s.n]:
            listed = sum(len(eigen_monomials(s, target, d)) for d in range(dmin, dmax + 1))
            assert count_eigen_monomials(s, target, dmin, dmax) == listed, (s.lam, target)


def test_oversized_listing_is_refused_before_any_block_is_listed(monkeypatch):
    """diag(1, 0^74) to degree 2 scans 2 * 2850 monomials, within the limit, but
    its components share 74 * C(75, 2) + 74 = 205424 resonances: counted, not
    listed, and refused in under 50 ms."""
    s = build_spectrum(75, 1, [[1]] + [[0]] * 74)

    def no_listing(*args):
        raise AssertionError("a block was listed")

    monkeypatch.setattr(resonance, "eigen_monomials", no_listing)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ScopeError, match="has 205424 resonant pairs"):
            resonances_by_component(s, 2, 2)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05, times


def test_resonance_set_infinite_needs_cap():
    s = build_spectrum(2, 1, [[1], [-1]])
    with pytest.raises(InfiniteResonanceWithoutCap):
        resonance_set(s)
    rs = resonance_set(s, cap=5)
    assert not rs.finite and rs.cap == 5
    assert (2, 1) in rs.by_component[0]


def test_semiinvariant_ladder_rational_instance():
    mu = (F(1, 2), F(1, 3), 2)
    value = F(1, 2) + F(1, 3) + 2
    ladder = semiinvariant_degree_ladder(mu, value)
    assert ladder.complete
    found = {(sol.s, sol.k, sol.kvec) for sol in ladder.solutions}
    assert (3, 0, (1, 1, 1)) in found
    assert (4, 2, (1, 1, 0)) in found
    assert found == brute_semiinvariant_ladder(mu, value, ladder.bound)


def test_semiinvariant_ladder_single():
    ladder = semiinvariant_degree_ladder([2], 2)
    assert {(sol.s, sol.k, sol.kvec) for sol in ladder.solutions} == {(2, 2, (0,))}
    assert ladder.complete


def test_semiinvariant_ladder_zero_cofactor_positive_mu():
    ladder = semiinvariant_degree_ladder([2, 3], 0)
    assert ladder.solutions == () and ladder.complete


def test_commuting_ladder_examples():
    lad = commuting_degree_ladder([2])
    assert lad.degrees == (2,) and lad.complete
    lad = commuting_degree_ladder([2, F(5, 2)])
    assert set(lad.degrees) <= {2} and lad.complete
    lad = commuting_degree_ladder([2, 1, 1])
    assert 2 in lad.degrees


def test_ladders_match_brute_force():
    cases = [((2, 3), 5), ((F(1, 2), 2), F(5, 2)), ((2, -1), 1)]
    for mu, value in cases:
        ladder = semiinvariant_degree_ladder(mu, value)
        bound = min(ladder.bound, resonance.LADDER_DEPTH)
        got = {(s.s, s.k, s.kvec) for s in ladder.solutions if s.s <= bound}
        assert got == brute_semiinvariant_ladder(mu, value, bound)
    for mu in [(2,), (2, F(5, 2)), (2, 1, 1), (2, -2)]:
        lad = commuting_degree_ladder(mu)
        bound = min(lad.bound, resonance.LADDER_DEPTH)
        assert set(d for d in lad.degrees if d <= bound) == {
            d for d in brute_commuting_degrees(mu, bound)
        }
