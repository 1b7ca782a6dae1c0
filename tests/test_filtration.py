"""Image orders mod non-squarefree m through the congruence filtration.

``filtration_closure`` counts only G mod rad(m), by a stabiliser chain, and
sifts the kernel above it level by level.  The breadth-first closure mod m
stays the oracle: random generator sets and the named groups must give the
order it gives.  Where the oracle is out of reach, the named groups and the
Borel group have known orders.
"""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from arithgroups.catalog import SIntegerGroup, builtin_group
from arithgroups.closure import run_closure
from arithgroups.congruence import (
    _KernelSifter,
    exact_image_record,
    filtration_closure,
    image_record,
    order_sl,
    radical,
    reduce_generators,
    strong_approx_scan,
)
from arithgroups.errors import Truncated
from arithgroups.matrix import Mat
from arithgroups.primes import factorint
from arithgroups.rings import IntegersMod

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ORACLE_CAP = 50_000
MODULI = {2: [4, 8, 9, 12, 18, 20, 25, 27, 36, 45, 49], 3: [4, 8, 9]}
NAMED_MODULI = [8, 16, 32, 9, 27, 25, 125, 49, 343, 121, 36]


@st.composite
def generator_sets(draw):
    """1-3 matrices mod m with unit determinant, some of them near the identity."""
    n = draw(st.sampled_from(sorted(MODULI)))
    m = draw(st.sampled_from(MODULI[n]))
    ring = IntegersMod(m)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        # a step d > 1 dividing m puts the generator in the kernel mod d
        step = draw(st.sampled_from([1, 1] + [d for d in range(2, m) if m % d == 0]))
        entries = draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n))
        rows = [[(i == j) + step * entries[i * n + j] for j in range(n)] for i in range(n)]
        gens.append(Mat(ring, rows))
    hypothesis.assume(all(gcd(g.det(), m) == 1 for g in gens))
    return gens


def test_filtration_matches_closure_on_random_generators():
    compared = []

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(generator_sets())
    def check(gens):
        n, m = gens[0].n, gens[0].ring.m
        order, truncated, _ = run_closure([g.flat() for g in gens], n, m, ORACLE_CAP, False)
        if truncated:
            return
        got = filtration_closure(gens, cap=ORACLE_CAP)
        assert (got.order, got.truncated) == (order, False)
        compared.append((n, m))

    check()
    assert len(compared) >= 20
    assert {n for n, _ in compared} == {2, 3}


def known_order(name, m):
    """|G mod m| for the named groups, from their structure."""
    if name in ("transvection", "triangular"):
        return m                          # <T> is cyclic of order m
    if name == "sl2z":
        return order_sl(2, m)             # SL_2(Z) -> SL_2(Z/m) is onto
    # sanov = {g in Gamma(2) : a = d = 1 mod 4} contains Gamma(4): onto mod
    # the odd part of m, and of index 2 in Gamma(2)/Gamma(2^k) for k >= 2
    v = (m & -m).bit_length() - 1          # m = 2^v * odd
    return (2 ** (3 * v - 4) if v >= 2 else 1) * order_sl(2, m >> v)


@pytest.mark.parametrize("name", ["sanov", "sl2z", "triangular", "transvection"])
@pytest.mark.parametrize("m", NAMED_MODULI)
def test_named_groups(name, m):
    gens = reduce_generators(builtin_group(name), m)
    got = filtration_closure(gens)
    assert (got.order, got.truncated) == (known_order(name, m), False)
    if known_order(name, m) <= ORACLE_CAP:
        assert got.order == run_closure([g.flat() for g in gens], 2, m, ORACLE_CAP, False)[0]


def test_cap_bounds_the_closure_mod_the_radical():
    gens = reduce_generators(builtin_group("sl2z"), 121)
    assert filtration_closure(gens, cap=1320).order == 1756920     # |SL_2(F_11)| = 1320
    capped = filtration_closure(gens, cap=1319)
    assert capped.truncated and capped.elements is None
    assert radical(121) == 11 and radical(36) == 6 and radical(7) == 7


def test_records_route_through_the_filtration():
    G = builtin_group("sl2z")
    rec, closure = image_record(G, 49, cap=1000)     # the closure mod 49 has 115248 elements
    assert rec.image_order == rec.target_order == 115248 and rec.surjective
    assert closure.elements is None

    rep = strong_approx_scan(G, 13, exponent=2, cap=1000)
    exact = [r.m for r in rep.records if not r.truncated]
    assert exact == [4, 9, 25, 49]                   # |SL_2(F_p)| <= 1000
    assert all(r.surjective for r in rep.records if not r.truncated)
    for r in rep.records:
        if r.truncated:
            (p, _), = factorint(r.m)
            assert order_sl(2, p) > 1000 and r.surjective is None


def test_truncated_names_the_enumerated_modulus():
    with pytest.raises(Truncated, match="closure mod 11 exceeded the cap 100"):
        exact_image_record(builtin_group("sl2z"), 121, cap=100)


@pytest.mark.parametrize("p, k", [(p, k) for p in (3, 5, 7, 11, 13) for k in (2, 3)] + [(499, 2)])
def test_borel_group_is_counted_without_listing_it(p, k):
    # <diag(2, 1/2), [[1,1],[0,1]]> mod p^k is the upper triangular group of
    # order ord(2) * p^k: the diagonal powers of 2 over the unipotent p^k
    q = p ** k
    G = SIntegerGroup([[[2, 0], [0, Fraction(1, 2)]], [[1, 1], [0, 1]]], label="borel")
    gens = reduce_generators(G, q)
    tracemalloc.start()
    try:
        got = filtration_closure(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ord2 = next(e for e in range(1, q) if pow(2, e, q) == 1)
    assert (got.order, got.truncated, got.elements) == (ord2 * q, False, None)
    assert peak < 2 * 2 ** 20


def test_kernel_sifter_skips_the_residues_it_has_taken(monkeypatch):
    # <ut6>, a Borel group over Z[1/6], mod 1573 = 11^2 * 13: its kernel mod 11
    # stays below the sifter's bound, so the chain runs to the end and hands the
    # sifter every Schreier generator that is I mod 1573's radical
    G = SIntegerGroup([[[Fraction(1, 2), -3], [0, Fraction(-1, 3)]],
                       [[Fraction(-1, 3), -2], [0, 3]], [[1, -3], [0, -2]]], label="ut6")
    added, sifted = [], []
    real_add, real_sift = _KernelSifter.add, _KernelSifter._sift

    def add(self, g):
        added.append(g)
        real_add(self, g)

    def sift(self, h):
        sifted.append(h)
        return real_sift(self, h)

    monkeypatch.setattr(_KernelSifter, "add", add)
    monkeypatch.setattr(_KernelSifter, "_sift", sift)
    got = filtration_closure(reduce_generators(G, 1573), cap=10 ** 12)
    assert (got.order, got.truncated) == (1370397600, False)
    assert len(sifted) == len(set(sifted))          # no residue is sifted twice
    assert len(added) > 10 * len(sifted)            # most of what the chain hands over repeats
