"""Resonance enumeration, degree bounds, degree ladders."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from nfkit import resonance
from nfkit.errors import InfiniteResonance, InfiniteResonanceWithoutCap
from nfkit.resonance import (
    commuting_degree_ladder,
    resonance_degree_bound,
    resonance_set,
    resonant_multiindices,
    semiinvariant_degree_ladder,
)
from nfkit.linalg import OPTIMAL, RatMatrix, lp_max, mat_rank
from nfkit.spectrum import build_spectrum, eigen_system, is_finite_linear_centralizer, unit_row

from oracles import (
    brute_commuting_degrees,
    brute_resonances,
    brute_semiinvariant_ladder,
    pairing,
    per_coordinate_degree_bound,
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
        res = lp_max([1] * s.n, RatMatrix([row[:-1] for row in rows]), [row[-1] for row in rows])
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
                if mat_rank(RatMatrix(rows)) == q:
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
from nfkit.spectrum import build_spectrum

if not sys.flags.optimize:
    sys.exit("not running under -O")
real_solve = resonance.solve_square


def doubled(rows):
    # same determinant, every point twice as far: none satisfies its rows
    det, points = real_solve(rows)
    return det, [tuple(2 * v for v in x) for x in points]


resonance.solve_square = doubled
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
