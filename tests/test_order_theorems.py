"""Image orders checked against theorems, with no listing of G.

``filtration_closure`` and ``chain._chain_order`` are checked against the
breadth-first closure only where it can list G.  Each check here follows from
a theorem instead, so it holds at any modulus:

- lifting (Serre, *Abelian l-adic representations*, IV-23, Lemma 3, for
  n = 2; Vasiu, *Manuscripta Math.* 112, 2003, for n >= 3): for p >= 5, a
  group onto SL_n(F_p) is onto SL_n(Z/p^k);
- Lagrange across the filtration: |G mod p| divides |G mod p^k|, which
  divides |G mod p| * p^((k-1) n^2);
- Lagrange across the CRT: for coprime r and s, lcm(|G mod r|, |G mod s|)
  divides |G mod rs|, which divides |G mod r| * |G mod s|;
- the determinant bound: |G mod r| divides |SL_n(Z/r)| * |<det g_i>|.

The groups are random words in SL_2(Z), upper triangular groups over
Z[1/6], and words in the elementary transvections of SL_3(Z).
"""

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

import pytest

from arithgroups.catalog import SIntegerGroup, builtin_group
from arithgroups.congruence import exact_image_record, order_sl, reduce_generators
from arithgroups.errors import NotInvertible
from arithgroups.matrix import Mat
from arithgroups.rings import QQ

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CAP = 10 ** 14
PRIMES = {2: [2, 3, 5, 7, 11, 13], 3: [2, 3, 5]}
UNITS = [Fraction(x) for x in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3))]


def transvection(n, i, j, c):
    return Mat(QQ, [[int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)])


SL2_LETTERS = [Mat(QQ, [[0, -1], [1, 0]]), Mat(QQ, [[0, 1], [-1, 0]]),
               transvection(2, 0, 1, 1), transvection(2, 0, 1, -1)]
SL3_LETTERS = [transvection(3, i, j, c) for i in range(3) for j in range(3) if i != j for c in (1, -1)]


@st.composite
def groups(draw):
    """A random group: SL_2(Z) words, an upper triangular group, or SL_3(Z) words."""
    kind = draw(st.sampled_from(["sl2z", "borel", "sl3"]))
    count = draw(st.integers(1, 3))
    if kind == "borel":
        gens = []
        for _ in range(count):
            a, d = draw(st.sampled_from(UNITS)), draw(st.sampled_from(UNITS))
            gens.append([[a, draw(st.integers(-3, 3))], [0, d]])
        try:
            return SIntegerGroup(gens, label="borel")
        except NotInvertible:       # a determinant is not a unit in Z[1/S], S the denominators' primes
            hypothesis.assume(False)
    letters = SL2_LETTERS if kind == "sl2z" else SL3_LETTERS
    return SIntegerGroup([reduce(mul, draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8)))
                          for _ in range(count)], label=kind)


def image_order(G, m):
    return exact_image_record(G, m, cap=CAP).image_order


def determinant_bound(G, m):
    """|SL_n(Z/m)| * |<det g_i>| in (Z/m)^*."""
    dets = [g.det() for g in reduce_generators(G, m)]
    seen = {1 % m}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {x * d % m for x in frontier for d in dets} if y not in seen]
        seen.update(frontier)
    return order_sl(G.n, m) * len(seen)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(groups(), st.data())
def test_orders_obey_lifting_lagrange_and_the_determinant_bound(G, data):
    n = G.n
    primes = [p for p in PRIMES[n] if p not in G.S]
    p, q = data.draw(st.lists(st.sampled_from(primes), min_size=2, max_size=2, unique=True))
    k = data.draw(st.integers(2, 3 if p ** n <= 125 else 2))
    r = p ** data.draw(st.integers(1, 2))
    s = q ** data.draw(st.integers(1, 2 if q ** n <= 125 else 1))
    order = {m: image_order(G, m) for m in {p, p ** k, r, s, r * s}}

    if p >= 5 and order[p] == order_sl(n, p):
        assert order[p ** k] == order_sl(n, p ** k)
    assert order[p ** k] % order[p] == 0
    assert (order[p] * p ** ((k - 1) * n * n)) % order[p ** k] == 0
    assert order[r * s] % lcm(order[r], order[s]) == 0
    assert (order[r] * order[s]) % order[r * s] == 0
    for m in (r, s, r * s):
        assert determinant_bound(G, m) % order[m] == 0


@pytest.mark.parametrize("name, primes", [("sl2z", [127, 251, 499]), ("sanov", [3, 5, 7, 127, 251])])
def test_known_images_are_onto_past_the_closure(name, primes):
    # sl2z is SL_2(Z); sanov, generated by [[1,2],[0,1]] and [[1,0],[2,1]], has
    # finite index in SL_2(Z) and contains Gamma(4), so it is onto mod every odd p
    G = builtin_group(name)
    for p in primes:
        rec = exact_image_record(G, p, cap=CAP)
        assert rec.surjective and rec.image_order == order_sl(2, p) == p * (p * p - 1)
