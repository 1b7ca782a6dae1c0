"""The stabiliser chain that counts order-only congruence images.

``chain._chain_order`` must give exactly the (order, truncated) pair the
breadth-first closure gives: on random generator sets over Z/m, squarefree
or not, at caps that do and do not truncate, and on the named cases where
the base order, the cap or a trivial group matters.  The chain stops once
its orbits reach |SL_n(Z/r)| * |<det g_i>|; the named cases cover groups that
reach that bound, groups that never do, and the edge cases of the bound.
"""

import tracemalloc
from math import gcd

import pytest

from arithgroups.catalog import builtin_group
from arithgroups.closure import run_closure
from arithgroups.chain import _AffineLevel, _BasicOrbit, _chain_order
from arithgroups.congruence import (
    DEFAULT_CAP,
    filtration_closure,
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


def flat_gens(alias, m):
    return [g.flat() for g in reduce_generators(builtin_group(alias), m)]


def closure_order(gens, n, m, cap=DEFAULT_CAP):
    return run_closure(gens, n, m, cap, False)[:2]


@pytest.fixture
def schreier_calls(monkeypatch):
    """A list that gains one entry per _BasicOrbit.next_schreier call."""
    calls = []
    real = _BasicOrbit.next_schreier

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(_BasicOrbit, "next_schreier", counted)
    return calls


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sl2z_meets_the_bound_at_the_first_grow(p, schreier_calls):
    gens = flat_gens("sl2z", p)
    assert _chain_order(gens, 2, p, DEFAULT_CAP) == closure_order(gens, 2, p) == (order_sl(2, p), False)
    assert schreier_calls == []


def test_sl2z_mod_47_forms_no_schreier_generator(schreier_calls):
    gens = flat_gens("sl2z", 47)
    assert _chain_order(gens, 2, 47, 10 ** 12) == (order_sl(2, 47), False) == (103776, False)
    assert schreier_calls == []


@pytest.mark.parametrize("gens, p, want", [
    ([(1, 1, 0, 1), (0, 6, 1, 0), (3, 0, 0, 1)], 7, 2016),
    # the orbits multiply to |SL_2(F_3)| = 24 at a check, before G is counted in full
    ([(1, 0, 1, 1), (0, 2, 2, 2)], 3, 48),
], ids=["mod7", "mod3"])
def test_determinants_widen_the_bound(gens, p, want):
    # the determinants generate (Z/p)^*, so the bound is |GL_2(F_p)|, not |SL_2(F_p)|
    assert _chain_order(gens, 2, p, DEFAULT_CAP) == closure_order(gens, 2, p) == (want, False)


@pytest.mark.parametrize("gens, n, m, want", [
    ([(3,)], 1, 7, 6),                          # SL_1 is trivial: G = <det g_i> = (Z/7)^*
    ([(0, 0, 0, 0)], 2, 1, 1),
    ("sl2z", 2, 30, order_sl(2, 30)),           # composite squarefree
    ("sl2z", 2, 9, order_sl(2, 9)),             # a chain over Z/9, with no filtration
    # I + E_01 in GL_5 and an element of order 4 mod 1000003: past order_sl's range, no OutOfRange
    ([tuple(int(i == j or (i, j) == (0, 1)) for i in range(5) for j in range(5))], 5, 3, 3),
    ([(0, 1000002, 1, 0)], 2, 1000003, 4),
], ids=["n1", "r1", "r30", "m9", "n5", "r1000003"])
def test_bound_edge_cases(gens, n, m, want):
    if isinstance(gens, str):
        gens = flat_gens(gens, m)
    assert _chain_order(gens, n, m, DEFAULT_CAP) == closure_order(gens, n, m) == (want, False)


@pytest.mark.parametrize("alias, p", [("sanov", 2), ("transvection", 13)])
def test_groups_below_the_bound(alias, p, schreier_calls):
    gens = flat_gens(alias, p)
    order, truncated = _chain_order(gens, 2, p, DEFAULT_CAP)
    assert (order, truncated) == closure_order(gens, 2, p)
    assert not truncated and order < order_sl(2, p)
    if alias == "transvection":         # the chain still forms and sifts Schreier generators
        assert schreier_calls


# squarefree and prime-power moduli for the generator sets that fix e_n
AFFINE_MODULI = {2: [6, 10, 30, 35, 143, 4, 8, 9, 25, 27, 49, 121], 3: [2, 3, 5, 6, 4]}


@st.composite
def affine_generator_sets(draw):
    """(n, m, gens): 1-3 upper triangular or mirabolic matrices mod m, all with last row e_n."""
    n = draw(st.sampled_from(sorted(AFFINE_MODULI)))
    m = draw(st.sampled_from(AFFINE_MODULI[n]))
    upper = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        entries = draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n))
        gens.append(tuple(int(i == j) if i == n - 1 else 0 if upper and j < i else entries[i * n + j]
                          for i in range(n) for j in range(n)))
    hypothesis.assume(all(unit_determinant(g, n, m) for g in gens))
    return n, m, gens


def test_chain_matches_closure_on_groups_that_fix_e_n():
    # G fixes e_n, so the chain's last level is a group of affine maps of
    # its base vector's row: its units and its translations both count
    compared = []

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(affine_generator_sets(), st.sampled_from(CAPS))
    def check(case, cap):
        n, m, gens = case
        want = run_closure(gens, n, m, cap, False)[:2]
        assert _chain_order(gens, n, m, cap) == want
        compared.append((n, m, want[1]))
        order, truncated = want
        if not truncated and order > 1:
            assert _chain_order(gens, n, m, order) == (order, False)
            assert _chain_order(gens, n, m, order - 1) == (order, True)

    check()
    assert {n for n, _, _ in compared} == {2, 3}
    assert {radical(m) == m for _, m, _ in compared} == {True, False}
    assert {truncated for _, _, truncated in compared} == {True, False}


@pytest.mark.parametrize("gens, m, cap, want", [
    # the translations of the units a != 1 span T: 211 * 105
    ([(122, 192, 0, 1), (161, 56, 0, 1)], 211, DEFAULT_CAP, (22155, False)),
    ([(7, 10, 0, 1)], 30, DEFAULT_CAP, (12, False)),
    ([(370, 964, 0, 1), (816, 658, 0, 1)], 1009, 10 ** 5, (10 ** 5 + 1, True)),
], ids=["mod211", "mod30", "mod1009"])
def test_affine_last_level(gens, m, cap, want):
    assert _chain_order(gens, 2, m, cap) == closure_order(gens, 2, m, cap) == want


def test_transvection_mod_65537_stores_no_orbit():
    tracemalloc.start()
    try:
        got = _chain_order([(1, 1, 0, 1)], 2, 65537, DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (65537, False)
    assert peak < 2 ** 19       # a walk of the last level's 65,537 points took 4.96 MB


@pytest.mark.parametrize("m, affine", [(11, 1), (30, 1), (121, 0), (12, 0)])
def test_only_a_chain_without_sifters_has_an_affine_level(m, affine, monkeypatch):
    # with sifters the last level's Schreier generators generate the kernel, so it keeps its tree
    made = []
    real = _AffineLevel.__init__

    def counted(self, *args):
        made.append(self)
        real(self, *args)

    monkeypatch.setattr(_AffineLevel, "__init__", counted)
    got = filtration_closure(reduce_generators(builtin_group("sl2z"), m))
    assert (got.order, got.truncated) == (order_sl(2, m), False)
    assert len(made) == affine
