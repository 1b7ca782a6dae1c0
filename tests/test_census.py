"""The three scans that read congruence._census agree prime by prime.

strong_approx_scan, one_for_all_scan and density.lubotzky_scan take their
records from one census of the primes outside S.  Random 2x2 generator sets
over Z[1/2] and Z[1/6], some of determinant other than 1, must give the
same records, the same exceptional primes and the same truncated primes in
all three, and one_for_all_scan must stop at its first truncated prime.
The census draws its primes from primes.iter_primes as it goes, so a scan
that stops early draws no prime past the one it stopped at.
"""

import random
from fractions import Fraction

import pytest

from arithgroups import congruence
from arithgroups.catalog import SIntegerGroup, builtin_group
from arithgroups.congruence import one_for_all_scan, strong_approx_scan
from arithgroups.density import lubotzky_scan
from arithgroups.errors import Truncated

PMAX = 23
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
SMALL_CAP = 200
# the denominators of the entries and the units of Z_S, by the primes of S
DENOMINATORS = {(2,): (1, 2, 4), (2, 3): (1, 2, 3, 4, 6)}
UNITS = {(2,): (-1, 2, Fraction(1, 2)), (2, 3): (-1, 2, Fraction(1, 2), 3, Fraction(1, 3))}


def mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def random_factor(rng, s_primes):
    """A transvection with an entry in Z[1/s], or diag(u, 1/u) for a unit u of Z_S."""
    x = Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS[s_primes]))
    u = Fraction(rng.choice(UNITS[s_primes]))
    return rng.choice([[[1, x], [0, 1]], [[1, 0], [x, 1]], [[u, 0], [0, 1 / u]]])


def random_group(rng, s_primes, det_one):
    """Two or three words of length 3 in random_factor's matrices, over Z[1/s].

    Unless det_one, the first word is scaled by diag(u, 1) for a unit u != 1,
    so its determinant is u.  A draw is kept when the denominators reach
    every prime of s_primes, so S is all of them.
    """
    while True:
        gens = []
        for _ in range(rng.randint(2, 3)):
            g = [[1, 0], [0, 1]]
            for _ in range(3):
                g = mul(g, random_factor(rng, s_primes))
            gens.append(g)
        if not det_one:
            gens[0] = mul([[rng.choice(UNITS[s_primes]), 0], [0, 1]], gens[0])
        G = SIntegerGroup(gens, label="random")
        if G.S == frozenset(s_primes):
            return G


def draw(seed, count):
    rng = random.Random(seed)
    return [random_group(rng, s_primes, det_one)
            for _ in range(count // 4) for s_primes in DENOMINATORS for det_one in (True, False)]


GROUPS = draw(20261021, 16)


def test_the_draws_cover_both_rings_both_verdicts_and_truncation():
    assert {G.S for G in GROUPS} == {frozenset({2}), frozenset({2, 3})}
    assert {any(g.det() != 1 for g in G.gens) for G in GROUPS} == {True, False}
    records = [r for G in GROUPS for r in strong_approx_scan(G, PMAX).records]
    assert {r.surjective for r in records} == {True, False}
    assert any(r.truncated for G in GROUPS
               for r in strong_approx_scan(G, PMAX, cap=SMALL_CAP).records)


@pytest.mark.parametrize("G", GROUPS)
def test_lubotzky_and_strong_approx_scans_give_the_same_records(G):
    census = strong_approx_scan(G, PMAX)
    dichotomy = lubotzky_scan(G, PMAX)
    assert [r.m for r in census.records] == [p for p in PRIMES if p not in G.S]
    assert len(dichotomy.records) == len(census.records)
    for lub, rec in zip(dichotomy.records, census.records):
        assert lub.p == rec.m
        assert (lub.image_order, lub.target_order, lub.surjective, lub.truncated) == (
            rec.image_order, rec.target_order, rec.surjective, rec.truncated)
    assert dichotomy.exceptional_primes == census.exceptional_primes
    assert dichotomy.pmax == PMAX


@pytest.mark.parametrize("G", GROUPS)
def test_one_for_all_scan_splits_the_primes_as_the_census_does(G):
    census = strong_approx_scan(G, PMAX)
    (row,) = one_for_all_scan([("random", G)], PMAX)
    assert row.generating_primes == tuple(r.m for r in census.records if r.surjective)
    assert row.nongenerating_primes == tuple(r.m for r in census.records if not r.surjective)
    assert row.nongenerating_primes == census.exceptional_primes


@pytest.mark.parametrize("G", GROUPS)
def test_a_small_cap_truncates_the_same_primes_and_one_for_all_stops_at_the_first(
        monkeypatch, G):
    census = strong_approx_scan(G, PMAX, cap=SMALL_CAP)
    truncated = [r.m for r in census.records if r.truncated]
    dichotomy = lubotzky_scan(G, PMAX, cap=SMALL_CAP)
    assert [r.p for r in dichotomy.records if r.truncated] == truncated
    assert all(r.surjective is None for r in census.records if r.truncated)

    closed = []
    image_record = congruence.image_record

    def recording(G, m, cap):
        closed.append(m)
        return image_record(G, m, cap)

    monkeypatch.setattr(congruence, "image_record", recording)
    if not truncated:
        (row,) = one_for_all_scan([("random", G)], PMAX, cap=SMALL_CAP)
        assert sorted(row.generating_primes + row.nongenerating_primes) == closed
        return
    first = truncated[0]
    with pytest.raises(Truncated, match=f"closure mod {first} exceeded the cap {SMALL_CAP};"):
        one_for_all_scan([("random", G)], PMAX, cap=SMALL_CAP)
    # no later prime's closure ran
    assert closed == [p for p in PRIMES if p <= first and p not in G.S]


@pytest.fixture
def drawn(monkeypatch):
    """The primes the census draws from iter_primes, in the order drawn."""
    primes = []
    iter_primes = congruence.iter_primes

    def counting(n):
        for p in iter_primes(n):
            primes.append(p)
            yield p

    monkeypatch.setattr(congruence, "iter_primes", counting)
    return primes


def test_one_for_all_draws_no_prime_past_its_first_truncated_prime(drawn):
    # SL_2(Z) mod 11 has 1,320 elements; the primes below 10^6 number 78,498
    with pytest.raises(Truncated, match="closure mod 11 exceeded the cap 1000;"):
        one_for_all_scan([("sl2z", builtin_group("sl2z"))], 10 ** 6, cap=1000)
    assert drawn == [2, 3, 5, 7, 11]


@pytest.mark.parametrize("scan, modulus", [(strong_approx_scan, "m"), (lubotzky_scan, "p")])
def test_a_scan_draws_each_prime_up_to_its_bound_once(drawn, scan, modulus):
    report = scan(builtin_group("sl2z"), 50)
    assert drawn == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert [getattr(r, modulus) for r in report.records] == drawn
