"""Resonance enumeration, degree bounds, degree ladders."""

import random
from fractions import Fraction as F

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
from nfkit.spectrum import build_spectrum

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


def test_degree_bound_is_one_lp_per_eigenvalue(monkeypatch):
    """The bound is the maximum of the per-coordinate LPs, solved once per block."""
    calls = []
    real_lp_max = resonance.lp_max

    def counting_lp_max(*args):
        calls.append(args)
        return real_lp_max(*args)

    monkeypatch.setattr(resonance, "lp_max", counting_lp_max)
    rng = random.Random(31)
    spectra = [spectrum_pool_finite(rng, rng.randint(1, 6)) for _ in range(40)]
    # q = 2 with positive coordinates: the zero-resonance monoid is trivial
    pool = [(F(1), F(2)), (F(3), F(1)), (F(2), F(2)), (F(1, 2), F(5))]
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [pool[0], pool[1]] + [rng.choice(pool) for _ in range(n - 2)]
        spectra.append(build_spectrum(n, 2, rng.sample(rows, n)))
    for s in spectra:
        calls.clear()
        assert resonance_degree_bound(s) == per_coordinate_degree_bound(s), s.lam
        assert len(calls) == len(set(s.lam)) == len(s.blocks())


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
