"""Image orders mod non-squarefree m through the congruence filtration.

``filtration_closure`` enumerates only G mod rad(m) and sifts the kernel
above it level by level.  The breadth-first closure mod m stays the oracle:
random generator sets and the named groups must give the order it gives.
Where the oracle is out of reach, the named groups have known orders.
"""

from math import gcd

import pytest

from arithgroups.catalog import builtin_group
from arithgroups.closure import run_closure
from arithgroups.congruence import (
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
    kept, closure = image_record(G, 9, cap=1000, keep_elements=True)
    assert kept.image_order == 648 and len(closure.elements) == 648

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
