import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import enumerate_sl_n_mod_m, random_sl2z_word

from arithgroups.catalog import builtin_group
from arithgroups.congruence import (
    QuasisimpleReport,
    SIntegerGroup,
    bfs_closure,
    bfs_closure_flat,
    canonical_bytes,
    elementary_generators_sl,
    flat_identity,
    flat_mul,
    is_surjective_image,
    one_for_all_scan,
    order_sl,
    principal_congruence_index,
    quasisimple_check,
    reduce_generators,
    strong_approx_scan,
)
from arithgroups.errors import NonInvertibleDenominator, NotInvertible, Truncated
from arithgroups.matrix import Mat
from arithgroups.rings import QQ, IntegersMod

HALF = Fraction(1, 2)


def test_s_integer_group_computes_denominator_set():
    G = SIntegerGroup([Mat(QQ, [[1, HALF], [0, 1]]), Mat(QQ, [[1, 0], [1, 1]])],
                      label="halfshift")
    assert sorted(G.S) == [2]


def test_s_integer_group_rejects_non_unit_determinant():
    with pytest.raises(NotInvertible):
        SIntegerGroup([Mat(QQ, [[2, 0], [0, 1]])])
    with pytest.raises(NotInvertible):
        SIntegerGroup([Mat(QQ, [[1, 1], [1, 1]])])


def test_reduce_generators_examples():
    G = SIntegerGroup([Mat(QQ, [[1, HALF], [0, 1]])], label="g")
    reduced = reduce_generators(G, 5)
    assert reduced[0].rows == ((1, 3), (0, 1))       # 2^{-1} = 3 mod 5
    H = SIntegerGroup([Mat(QQ, [[1, 7], [3, 22]])], label="h")
    assert reduce_generators(H, 6)[0].rows == ((1, 1), (3, 4))
    with pytest.raises(NonInvertibleDenominator) as err:
        reduce_generators(G, 4)
    assert err.value.prime == 2


def test_bfs_closure_identity_only():
    ring = IntegersMod(7)
    c = bfs_closure([Mat.identity(ring, 2)], keep_elements=True)
    assert c.order == 1 and not c.truncated


@pytest.mark.parametrize("m,expected", [(3, 24), (5, 120)])
def test_bfs_closure_sl2_small_oracle(m, expected):
    brute = enumerate_sl_n_mod_m(2, m)       # oracle: enumerate all det-1 matrices
    assert len(brute) == expected
    c = bfs_closure(elementary_generators_sl(2, m), keep_elements=True)
    assert c.order == expected
    assert set(c.elements) == set(brute)


def test_closure_closed_under_product_and_inverse():
    rng = random.Random(43)
    c = bfs_closure(elementary_generators_sl(2, 5), keep_elements=True)
    elems = list(c.elements)
    eset = set(elems)
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert flat_mul(a, b, 2, 5) in eset
    for a in elems[:50]:
        inv = Mat(IntegersMod(5), [a[:2], a[2:]]).inverse().flat()
        assert inv in eset


def test_order_divides_ambient_group_order():
    # |GL_2(Z/5)| = (25-1)(25-5)
    c = bfs_closure(elementary_generators_sl(2, 5))
    gl_order = (25 - 1) * (25 - 5)
    assert gl_order % c.order == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
def test_order_sl_matches_enumeration(m):
    assert order_sl(2, m) == len(enumerate_sl_n_mod_m(2, m))


def test_order_sl_examples():
    assert order_sl(2, 3) == 24
    assert order_sl(2, 4) == 48
    assert order_sl(2, 1) == 1


def test_order_sl_prime_formula_matches_bfs():
    for p in (2, 3, 5, 7, 11, 13):
        assert order_sl(2, p) == p * (p - 1) * (p + 1)
        c = bfs_closure(elementary_generators_sl(2, p))
        assert c.order == order_sl(2, p)
    for p in (2, 3, 5):
        assert order_sl(2, p * p) == p ** 3 * order_sl(2, p)
        c = bfs_closure(elementary_generators_sl(2, p * p))
        assert c.order == order_sl(2, p * p)


def test_elementary_generators_shape():
    gens = elementary_generators_sl(2, 7)
    assert [g.rows for g in gens] == [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    gens3 = elementary_generators_sl(3, 2)
    assert len(gens3) == 6
    c = bfs_closure(gens3, keep_elements=True)
    brute = enumerate_sl_n_mod_m(3, 2)       # oracle: 512 candidate matrices
    assert c.order == len(brute) == 168


def test_closure_crt_multiplicativity():
    done = []
    for m1 in range(2, 30):
        for m2 in range(2, 30):
            if m1 < m2 and gcd(m1, m2) == 1 and m1 * m2 <= 60:
                done.append((m1, m2))
    assert done
    for m1, m2 in done:
        o1 = bfs_closure(elementary_generators_sl(2, m1)).order
        o2 = bfs_closure(elementary_generators_sl(2, m2)).order
        o12 = bfs_closure(elementary_generators_sl(2, m1 * m2)).order
        assert o12 == o1 * o2


def test_elementary_mod_6_equals_product_of_orders():
    c = bfs_closure(elementary_generators_sl(2, 6))
    assert c.order == order_sl(2, 2) * order_sl(2, 3) == 6 * 24


def test_is_surjective_image_full_sl2z():
    G = builtin_group("sl2z")
    rec = is_surjective_image(G, 7)
    assert rec.surjective and rec.image_order == 336 == rec.target_order


def test_is_surjective_image_sanov():
    sanov = builtin_group("sanov")
    rec2 = is_surjective_image(sanov, 2)
    assert not rec2.surjective and rec2.image_order == 1
    rec5 = is_surjective_image(sanov, 5)
    assert rec5.surjective and rec5.image_order == 120


def test_is_surjective_rejects_primes_in_s():
    G = SIntegerGroup([Mat(QQ, [[1, HALF], [0, 1]]), Mat(QQ, [[1, 0], [1, 1]])])
    with pytest.raises(ValueError):
        is_surjective_image(G, 2)


def test_truncation_is_reported_not_guessed():
    G = builtin_group("sl2z")
    with pytest.raises(Truncated):
        is_surjective_image(G, 31, cap=100)
    rep = strong_approx_scan(G, 31, cap=100)
    big = [r for r in rep.records if r.target_order > 100]
    assert big and all(r.truncated and r.surjective is None and r.image_order is None
                       for r in big)
    small = [r for r in rep.records if r.target_order <= 100]
    assert small and all(r.surjective for r in small)
    assert rep.exceptional_primes == ()   # truncated is not evidence of failure


def test_strong_approx_scan_sanov():
    rep = strong_approx_scan(builtin_group("sanov"), 31)
    assert rep.exceptional_primes == (2,)
    odd = [r for r in rep.records if r.m != 2]
    assert all(r.surjective for r in odd)
    assert [r.m for r in rep.records] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_strong_approx_scan_transvection_never_surjective():
    rep = strong_approx_scan(builtin_group("transvection"), 13)
    assert all(not r.surjective for r in rep.records)
    for r in rep.records:
        assert r.image_order == r.m     # closure of one transvection has order p


def test_strong_approx_scan_exponent_two():
    rep = strong_approx_scan(builtin_group("sl2z"), 7, exponent=2)
    assert all(r.surjective for r in rep.records)
    assert [r.m for r in rep.records] == [4, 9, 25, 49]
    # p^3 * |SL_2(F_p)|, validated against enumeration for m <= 9 above
    assert [r.target_order for r in rep.records] == [48, 648, 15000, 115248]


def test_principal_congruence_index_examples():
    assert principal_congruence_index(2, 2) == 6 == len(enumerate_sl_n_mod_m(2, 2))
    assert principal_congruence_index(2, 1) == 1
    assert principal_congruence_index(2, 5) == 120


def test_one_for_all_scan():
    sanov = builtin_group("sanov")
    ident = SIntegerGroup([Mat.identity(QQ, 2)], label="identity")
    single = builtin_group("transvection")
    rows = one_for_all_scan(
        2,
        [("sanov", sanov), ("identity", ident), ("transvection", single)],
        31,
        bad_set={2},
    )
    by_label = {r.label: r for r in rows}
    assert by_label["sanov"].witnesses_implication
    assert by_label["sanov"].nongenerating_primes == (2,)
    assert not by_label["identity"].generates_outside_bad_set
    assert not by_label["identity"].witnesses_implication
    assert not by_label["transvection"].witnesses_implication
    assert by_label["transvection"].generating_primes == ()


def test_reduction_functorial_on_random_words():
    rng = random.Random(47)
    G = SIntegerGroup(
        [Mat(QQ, [[1, HALF], [0, 1]]), Mat(QQ, [[1, 0], [1, 1]])], label="half"
    )
    gens = list(G.gens)
    moduli = [m for m in range(2, 51) if m % 2 == 1]
    pairs = 0
    while pairs < 100:
        a = Mat.identity(QQ, 2)
        b = Mat.identity(QQ, 2)
        for _ in range(rng.randint(1, 5)):
            a = a * rng.choice(gens)
        for _ in range(rng.randint(1, 5)):
            b = b * rng.choice(gens)
        m = rng.choice(moduli)
        ring = IntegersMod(m)

        def red(x):
            return Mat(ring, [[ring.from_rational(Fraction(v)) for v in row] for row in x.rows])

        assert red(a * b) == red(a) * red(b)
        assert red(a.inverse()) == red(a).inverse()
        pairs += 1


@pytest.mark.parametrize("p", [3, 5])
def test_image_mod_p_is_truncation_of_image_mod_p2(p):
    sanov = builtin_group("sanov")
    c1 = bfs_closure(reduce_generators(sanov, p), keep_elements=True)
    c2 = bfs_closure(reduce_generators(sanov, p * p), keep_elements=True)
    reduced = {tuple(x % p for x in flat) for flat in c2.elements}
    assert reduced == set(c1.elements)


def test_quasisimple_examples():
    for p, psl in ((5, 60), (7, 168)):
        c = bfs_closure(elementary_generators_sl(2, p), keep_elements=True)
        rep = quasisimple_check(c)
        assert rep.quasisimple and rep.simple_quotient_order == psl
    c2 = bfs_closure(elementary_generators_sl(2, 2), keep_elements=True)
    rep2 = quasisimple_check(c2)
    assert not rep2.quasisimple and rep2.order == 6


def brute_quasisimple(closure):
    """The QuasisimpleReport straight from the definitions, on a full Cayley table.

    [G,G] is generated by all commutators, Z is the set of elements commuting
    with every element, and G/Z is simple when it is nontrivial and the
    normal closure of every element outside Z, together with Z, is all of G.
    """
    n, m = closure.n, closure.modulus
    elems = closure.elements
    N = len(elems)
    idx = {x: i for i, x in enumerate(elems)}
    mul = [[idx[flat_mul(a, b, n, m)] for b in elems] for a in elems]
    e = idx[flat_identity(n, m)]
    inv = [row.index(e) for row in mul]

    def generated(gens):
        seen = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = mul[x][s]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    derived = generated({mul[mul[x][y]][mul[inv[x]][inv[y]]]
                         for x in range(N) for y in range(N)})
    center = {z for z in range(N) if all(mul[z][x] == mul[x][z] for x in range(N))}
    closures = {}
    for x in range(N):
        if x not in center:
            gens = frozenset(mul[mul[inv[g]][x]][g] for g in range(N)) | center
            if gens not in closures:
                closures[gens] = len(generated(gens))
    return QuasisimpleReport(
        p=m,
        order=N,
        perfect=len(derived) == N,
        center_order=len(center),
        simple_quotient_order=N // len(center),
        quotient_is_simple=N > len(center) and all(c == N for c in closures.values()),
    )


def oracle_closures():
    out = [pytest.param(elementary_generators_sl(2, p), id=f"SL2(F_{p})") for p in (2, 3, 5, 7)]
    for name in ("sanov", "sl2z", "triangular"):
        for p in (3, 5, 7):
            out.append(pytest.param(reduce_generators(builtin_group(name), p),
                                    id=f"{name} mod {p}"))
    out.append(pytest.param(elementary_generators_sl(2, 4), id="SL2(Z/4)"))
    out.append(pytest.param(elementary_generators_sl(3, 2), id="SL3(F_2)"))
    ring = IntegersMod(7)
    out.append(pytest.param([Mat(ring, [[1, 1], [0, 1]]), Mat(ring, [[3, 0], [0, 5]])],
                            id="Borel mod 7"))
    # SL_2(F_5) times the scalars of order 4: G/Z = PSL_2(F_5) is simple, G is not perfect
    ring = IntegersMod(5)
    out.append(pytest.param(elementary_generators_sl(2, 5) + [Mat(ring, [[2, 0], [0, 2]])],
                            id="SL2(F_5) with scalars"))
    return out


@pytest.mark.parametrize("gens", oracle_closures())
def test_quasisimple_check_matches_brute_force(gens):
    c = bfs_closure(gens, keep_elements=True)
    assert c.order <= 336
    assert quasisimple_check(c) == brute_quasisimple(c)


def test_quasisimple_cap():
    c = bfs_closure(elementary_generators_sl(2, 13), keep_elements=True)
    with pytest.raises(Truncated):
        quasisimple_check(c, cap=100)


def test_canonical_bytes_is_injective_and_stable():
    flats = [(0, 1, 2, 3), (3, 2, 1, 0), (0, 1, 2, 4)]
    enc = [canonical_bytes(f, 5) for f in flats]
    assert len(set(enc)) == 3
    assert enc[0] == bytes([0, 1, 2, 3])
    assert canonical_bytes((255, 256), 257) == bytes([0, 255, 1, 0])


def test_closure_order_only_mode_drops_elements():
    c = bfs_closure_flat([(1, 1, 0, 1), (1, 0, 1, 1)], 2, 5,
                         keep_elements=True, element_cap=10)
    assert c.order == 120 and c.elements is None
