"""The stabiliser chain that counts order-only congruence images.

``congruence._chain_order`` must give exactly the (order, truncated) pair the
breadth-first closure gives: on random generator sets over Z/m, squarefree
or not, at caps that do and do not truncate, and on the named cases where
the base order, the cap or a trivial group matters.
"""

from math import gcd

import pytest

from arithgroups.catalog import builtin_group
from arithgroups.closure import run_closure
from arithgroups.congruence import (
    DEFAULT_CAP,
    _chain_order,
    flat_identity,
    order_sl,
    radical,
    reduce_generators,
)
from arithgroups.matrix import Mat
from arithgroups.rings import IntegersMod

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# kept to groups the pure-Python oracle closes in well under a second
MODULI = {1: [1, 2, 6, 30, 4, 9, 12, 25, 65537], 2: [1, 2, 6, 30, 4, 9, 12, 25], 3: [1, 2, 3, 4]}
CAPS = [10, 100, 10 ** 6]


def unit_determinant(g, n, m):
    rows = [g[i:i + n] for i in range(0, n * n, n)]
    return m == 1 or gcd(Mat(IntegersMod(m), rows).det(), m) == 1


@st.composite
def generator_sets(draw):
    """(n, m, gens): 1-3 flat matrices mod m with unit determinant, some near the identity."""
    n = draw(st.sampled_from(sorted(MODULI)))
    m = draw(st.sampled_from(MODULI[n]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        # a step d > 1 dividing m puts the generator in the kernel mod d
        step = draw(st.sampled_from([1, 1] + [d for d in range(2, m) if m % d == 0]))
        entries = draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n))
        g = tuple(((i == j) + step * entries[i * n + j]) % m for i in range(n) for j in range(n))
        gens.append(g)
    hypothesis.assume(all(unit_determinant(g, n, m) for g in gens))
    return n, m, gens


def test_chain_matches_closure_on_random_generators():
    compared = []

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(generator_sets(), st.sampled_from(CAPS))
    def check(case, cap):
        n, m, gens = case
        want = run_closure(gens, n, m, cap, False)[:2]
        assert _chain_order(gens, n, m, cap) == want
        compared.append((n, m, want[1]))
        order, truncated = want
        if not truncated and order > 1:
            # truncated exactly when |G| > cap, and then the order reads cap + 1
            assert _chain_order(gens, n, m, order) == (order, False)
            assert _chain_order(gens, n, m, order - 1) == (order, True)

    check()
    assert len(compared) >= 100
    assert {n for n, _, _ in compared} == {1, 2, 3}
    assert {radical(m) == m for _, m, _ in compared} == {True, False}
    assert {truncated for _, _, truncated in compared} == {True, False}


@pytest.mark.parametrize("g", [(1, 1, 0, 1), (1, 0, 1, 1)], ids=["upper", "lower"])
def test_transvection_mod_65537(g):
    # the orbit of 65537 points lies at the last level in either base order
    want = run_closure([g], 2, 65537, DEFAULT_CAP, False)[:2]
    assert _chain_order([g], 2, 65537, DEFAULT_CAP) == want == (65537, False)


def test_sl2z_mod_1009_truncates_at_the_default_cap():
    # the closure stops after listing DEFAULT_CAP + 1 of the order_sl(2, 1009) elements;
    # running it here would take seconds and hundreds of MB, so its result is written out
    gens = [g.flat() for g in reduce_generators(builtin_group("sl2z"), 1009)]
    assert order_sl(2, 1009) > DEFAULT_CAP
    assert _chain_order(gens, 2, 1009, DEFAULT_CAP) == (DEFAULT_CAP + 1, True)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 7), (2, 7), (3, 4)])
def test_trivial_group(n, m):
    ident = flat_identity(n, m)
    want = run_closure([ident], n, m, 10, False)[:2]
    assert _chain_order([ident], n, m, 10) == want == (1, False)
    assert _chain_order([ident], n, m, 1) == (1, False)
