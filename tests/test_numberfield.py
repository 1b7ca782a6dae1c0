import math
import random
import time
from fractions import Fraction

import pytest

from arithgroups import numberfield
from arithgroups.catalog import builtin_field, field_aliases
from arithgroups.errors import DivisionByZero, ReducibleMinPoly, Unverified
from arithgroups.matrix import Mat
from arithgroups.ideals import (
    ExtField,
    _hensel_lift_pair,
    crt_check,
    factor_prime,
    nf_inverse,
    nf_mul,
    regular_representation,
    residue_field,
)
from arithgroups.numberfield import NumberField, _split_by_character, chebotarev_scan, is_split
from arithgroups.poly import Poly, discriminant, factor_poly_mod_p, is_irreducible_mod_p, poly_xgcd
from arithgroups.primes import WINDOW, primes_upto
from arithgroups.rings import QQ, IntegersMod


@pytest.fixture(scope="module")
def catalog():
    return {name: builtin_field(name) for name in field_aliases()}


def test_defining_relation_qi(catalog):
    qi = catalog["qi"]
    i = qi.element([0, 1])
    assert nf_mul(i, i).coords == (-1, 0)


def test_nf_mul_identity(catalog):
    qi = catalog["qi"]
    a = qi.element([Fraction(3, 7), -2])
    assert nf_mul(a, qi.one()) == a


def test_nf_inverse_one_plus_i_against_linear_system(catalog):
    # oracle: solve (1+i)(u+vi) = 1, i.e. u - v = 1 and u + v = 0
    from arithgroups.matrix import solve_in_span

    (coeffs,) = solve_in_span([(1, 1), (-1, 1)], [(1, 0)])
    assert coeffs == (Fraction(1, 2), Fraction(-1, 2))
    qi = catalog["qi"]
    inv = nf_inverse(qi.element([1, 1]))
    assert inv.coords == (Fraction(1, 2), Fraction(-1, 2))
    assert nf_mul(qi.element([1, 1]), inv) == qi.one()


def test_nf_inverse_zero_raises(catalog):
    with pytest.raises(DivisionByZero):
        nf_inverse(catalog["qi"].element([0, 0]))


def test_regular_representation_sqrt2(catalog):
    K = catalog["qsqrt2"]
    h = K.element([3, 5])  # 3 + 5*sqrt(2)
    assert regular_representation(h) == Mat(QQ, [[3, 10], [5, 3]])
    assert regular_representation(K.one()) == Mat.identity(QQ, 2)


def test_regular_representation_is_ring_hom(catalog):
    rng = random.Random(5)
    K = catalog["zeta5"]
    for _ in range(20):
        a = K.element([rng.randint(-4, 4) for _ in range(4)])
        b = K.element([rng.randint(-4, 4) for _ in range(4)])
        assert regular_representation(a) * regular_representation(b) == regular_representation(nf_mul(a, b))
        assert regular_representation(a) + regular_representation(b) == regular_representation(a + b)


def test_factor_prime_qi_examples(catalog):
    qi = catalog["qi"]
    f5 = factor_prime(qi, 5)
    assert [(f.e, f.f) for f in f5.factors] == [(1, 1), (1, 1)]
    assert [list(f.factor_poly.coeffs) for f in f5.factors] == [[2, 1], [3, 1]]
    f3 = factor_prime(qi, 3)
    assert [(f.e, f.f) for f in f3.factors] == [(1, 2)]
    f2 = factor_prime(qi, 2)
    assert [(f.e, f.f) for f in f2.factors] == [(2, 1)]
    assert f2.verified  # Z[i] is asserted maximal in the catalog


def test_factor_prime_unverified_flag():
    # Z[x]/(x^2 - 5): 2 divides disc(m) = 20 but the true ring is Z[(1+sqrt5)/2]
    K = NumberField((-5, 0, 1), name="qsqrt5")
    fac = factor_prime(K, 2)
    assert not fac.verified
    with pytest.raises(Unverified):
        crt_check(K, 2, 1)


def test_is_split_examples(catalog):
    assert is_split(catalog["qi"], 5)
    assert not is_split(catalog["qi"], 3)
    assert is_split(catalog["qsqrt2"], 7)


def test_is_split_matches_factor_data(catalog):
    for K in catalog.values():
        for p in primes_upto(2000):
            fac = factor_prime(K, p)
            split = len(fac.factors) == K.degree and all(
                f.e == 1 and f.f == 1 for f in fac.factors
            )
            assert is_split(K, p) == split


def brute_split_count_qi(bound):
    """Oracle: roots of x^2 + 1 mod p by testing every residue."""
    split = total = 0
    for p in primes_upto(bound):
        if p == 2:
            continue
        total += 1
        roots = sum(1 for a in range(p) if (a * a + 1) % p == 0)
        if roots == 2:
            split += 1
    return split, total


def test_chebotarev_qi_100(catalog):
    split, total = brute_split_count_qi(100)
    assert (split, total) == (11, 24)
    rep = chebotarev_scan(catalog["qi"], 100)
    assert (rep.split, rep.total) == (11, 24)
    assert Fraction(rep.ratio) == Fraction(11, 24)
    assert not rep.sample_only


def test_chebotarev_non_galois_flagged(catalog):
    rep = chebotarev_scan(catalog["qcbrt2"], 50)
    assert rep.sample_only


def test_sum_formula_all_catalog_fields(catalog):
    for K in catalog.values():
        for p in primes_upto(200):
            fac = factor_prime(K, p)
            assert sum(f.e * f.f for f in fac.factors) == K.degree


def test_galois_uniformity(catalog):
    for K in catalog.values():
        if not K.galois:
            continue
        for p in primes_upto(500):
            if K.disc % p == 0:
                continue
            fac = factor_prime(K, p)
            assert len({f.e for f in fac.factors}) == 1
            assert len({f.f for f in fac.factors}) == 1


def test_ramification_only_at_disc_primes(catalog):
    for K in catalog.values():
        for p in primes_upto(500):
            fac = factor_prime(K, p)
            if any(f.e > 1 for f in fac.factors):
                assert K.disc % p == 0


def test_det_of_regular_rep_is_multiplicative(catalog):
    rng = random.Random(17)
    K = catalog["qcbrt2"]
    done = 0
    while done < 100:
        a = K.element([rng.randint(-5, 5) for _ in range(3)])
        b = K.element([rng.randint(-5, 5) for _ in range(3)])
        ra, rb = regular_representation(a), regular_representation(b)
        assert regular_representation(nf_mul(a, b)).det() == ra.det() * rb.det()
        done += 1


def test_residue_field_examples(catalog):
    qi = catalog["qi"]
    f3 = factor_prime(qi, 3).factors[0]
    F9 = residue_field(f3)
    assert isinstance(F9, ExtField) and F9.size() == 9
    assert list(F9.modulus) == [1, 0, 1]
    f5 = factor_prime(qi, 5).factors[0]
    F5 = residue_field(f5)
    assert isinstance(F5, IntegersMod) and F5.m == 5


def test_residue_field_arithmetic(catalog):
    qi = catalog["qi"]
    F9 = residue_field(factor_prime(qi, 3).factors[0])
    x = F9.canon((0, 1))
    assert F9.mul(x, x) == F9.canon((-1, 0))  # x^2 = -1 in F_9
    # F_{p^f} for p in {2, 3, 5, 7} and f in {2, 3}, each from the first
    # irreducible monic modulus in lexicographic order
    fields = [F9] + [ExtField(p, modulus) for p, modulus in [
        (2, (1, 1, 1)), (2, (1, 0, 1, 1)),
        (3, (1, 0, 2, 1)),
        (5, (1, 1, 1)), (5, (1, 0, 1, 1)),
        (7, (1, 0, 1)), (7, (1, 0, 1, 1)),
    ]]
    for F in fields:
        assert is_irreducible_mod_p(Poly(IntegersMod(F.p), F.modulus))
        units = [a for a in F.elements() if F.is_unit(a)]
        assert len(units) == F.size() - 1
        for a in units:
            assert F.mul(a, F.inv(a)) == F.one


def test_crt_qi_5_split(catalog):
    rep = crt_check(catalog["qi"], 5, 1)
    assert rep.bijective and rep.component_sizes == (5, 5) and rep.total_size == 25


def test_crt_qi_3_inert(catalog):
    rep = crt_check(catalog["qi"], 3, 1)
    assert rep.bijective and rep.component_sizes == (9,)


def test_crt_trivial_precision(catalog):
    rep = crt_check(catalog["qi"], 7, 0)
    assert rep.bijective and rep.total_size == 1


def test_crt_higher_precision(catalog):
    rep = crt_check(catalog["qi"], 5, 2)
    assert rep.bijective and rep.component_sizes == (25, 25) and rep.total_size == 625
    rep2 = crt_check(catalog["qsqrt2"], 7, 1)
    assert rep2.bijective and rep2.component_sizes == (7, 7)


def test_signatures(catalog):
    assert catalog["qi"].signature == (0, 1)
    assert catalog["qsqrt2"].signature == (2, 0)
    assert catalog["qcbrt2"].signature == (1, 1)
    assert catalog["zeta5"].signature == (0, 2)


def test_reducible_min_poly_rejected():
    with pytest.raises(ReducibleMinPoly):
        NumberField((-1, 0, 1))          # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ReducibleMinPoly):
        NumberField((0, 0, 1))           # x^2, repeated root
    with pytest.raises(ValueError):
        NumberField((1, 0, 2))           # not monic
    with pytest.raises(ValueError):
        NumberField((Fraction(1, 2), 0, 1))  # non-integer coefficient


def test_min_poly_irreducibility_accepts_catalog(catalog):
    # all four catalog fields construct; x^4+1 is the known hard case the
    # cheap certificate cannot prove (reducible mod every prime), so the
    # Hensel-lifted factor search settles it
    assert NumberField((1, 0, 0, 0, 1)).signature == (0, 2)


@pytest.mark.parametrize("coeffs, modulus, residues", [
    ((1, 0, 0, 0, 1), 8, {1}),                   # x^4 + 1: Q(zeta8)
    ((1, 0, -10, 0, 1), 24, {1, 23}),            # x^4 - 10x^2 + 1: Q(sqrt2, sqrt3)
], ids=["x4+1", "x4-10x2+1"])
def test_fields_reducible_mod_every_prime_build_and_scan(coeffs, modulus, residues):
    # both are irreducible but split into two quadratics or four lines mod
    # every prime; their discriminants are squares, so every class of the
    # character table is open and every unramified odd prime takes the
    # Frobenius test
    K = NumberField(coeffs)
    assert math.isqrt(K.disc) ** 2 == K.disc
    unramified = [p for p in primes_upto(10 ** 4) if K.disc % p]
    rep = chebotarev_scan(K, 10 ** 4)
    assert rep.total == len(unramified)
    assert rep.split == sum(p % modulus in residues for p in unramified)


def test_reducible_mod_every_prime_names_its_factor():
    # no rational root: only the factor search finds (x^2 + 1)(x^2 + 2)
    with pytest.raises(ReducibleMinPoly, match=r"^factor x\^2 \+ [12]$"):
        NumberField((2, 0, 3, 0, 1))
    with pytest.raises(ReducibleMinPoly, match=r"^factor x\^2 \+ -?2x \+ 2$"):
        NumberField((4, 0, 0, 0, 1))             # x^4 + 4, Sophie Germain
    sextic = Poly(QQ, [1, 1, 0, 1]) * Poly(QQ, [-1, 1, 0, 1])   # (x^3 + x + 1)(x^3 + x - 1)
    with pytest.raises(ReducibleMinPoly, match=r"^factor x\^3 \+ x \+ -?1$"):
        NumberField(sextic.coeffs)


def test_large_constant_term_builds_through_the_certificate():
    # an irreducible reduction mod a small prime settles these before any
    # search for an integer root
    assert NumberField((10 ** 14 + 1, 0, 1)).signature == (0, 1)
    assert NumberField((10 ** 12 + 1, 0, 1)).signature == (0, 1)
    assert NumberField((2 * 10 ** 14 + 1, 0, 0, 1)).signature == (1, 1)
    with pytest.raises(ReducibleMinPoly, match="rational root -1000$"):
        NumberField((-10 ** 6, 0, 1))    # x^2 - 10^6 = (x - 1000)(x + 1000)


def test_large_integer_root_is_found_fast():
    # (x - 10^30)(x^2 + 1) is reducible mod every prime, so no certificate
    # applies; trial division of c0 would run for about 10^15 steps
    m = Poly(QQ, [-10 ** 30, 1]) * Poly(QQ, [1, 0, 1])
    start = time.perf_counter()
    with pytest.raises(ReducibleMinPoly, match=f"rational root {10 ** 30}$"):
        NumberField(m.coeffs)
    assert time.perf_counter() - start < 1.0
    m = Poly(QQ, [3, 1]) * Poly(QQ, [-7, 0, 1]) * Poly(QQ, [2, 0, 0, 1])
    with pytest.raises(ReducibleMinPoly, match="rational root -3$"):
        NumberField(m.coeffs)    # degree 6: a rational root still decides


def linear_hensel_lift_pair(m_coeffs, a_coeffs, b_coeffs, p, target):
    """The lift one power of p a step, with the Bezout pair fixed mod p."""
    ring = IntegersMod(p)
    ga, sa, ta = poly_xgcd(Poly(ring, a_coeffs), Poly(ring, b_coeffs))
    assert ga.degree == 0
    A, B = list(a_coeffs), list(b_coeffs)
    mod = p
    while mod < target:
        mod *= p
        ringk = IntegersMod(mod)
        PA, PB = Poly(ringk, A), Poly(ringk, B)
        delta = Poly(ringk, m_coeffs) - PA * PB
        dA = (Poly(ringk, ta.coeffs) * delta) % PA
        dB = (Poly(ringk, sa.coeffs) * delta) % PB
        A = [int(c) for c in (PA + dA).coeffs] + [0] * (len(A) - PA.degree - 1)
        B = [int(c) for c in (PB + dB).coeffs] + [0] * (len(B) - PB.degree - 1)
    return A, B


def test_quadratic_hensel_lift_matches_the_linear_lift():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def lifts(draw):
        """(m, a, b, p, target): monic a, b coprime mod p, m = a*b mod p, target p^1..p^64."""
        p = draw(st.sampled_from((2, 3, 5, 7, 13)))
        ring = IntegersMod(p)

        def monic(degree):
            return Poly(ring, draw(st.lists(st.integers(0, p - 1), min_size=degree,
                                            max_size=degree)) + [1])

        a = monic(draw(st.integers(1, 4)))
        b = monic(draw(st.integers(1, 4)))
        hypothesis.assume(poly_xgcd(a, b)[0].degree == 0)
        # m is a*b plus p times an integer polynomial of lower degree
        d = a.degree + b.degree
        noise = draw(st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=d, max_size=d))
        m = [int(c) + p * e for c, e in zip((a * b).coeffs, noise + [0])]
        target = p ** draw(st.integers(1, 64))
        return m, [int(c) for c in a.coeffs], [int(c) for c in b.coeffs], p, target

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(lifts())
    @hypothesis.example(([-10 ** 30, 1, -10 ** 30, 1], [2, 1], [1, 0, 1], 3, 3 ** 64))
    def check(case):
        m, a, b, p, target = case
        A, B = _hensel_lift_pair(m, a, b, p, target)
        assert (A, B) == linear_hensel_lift_pair(m, a, b, p, target)
        ring = IntegersMod(target)
        assert Poly(ring, m) == Poly(ring, A) * Poly(ring, B)
        assert [c % p for c in A] == a and [c % p for c in B] == b

    check()


def test_reducible_min_poly_names_the_least_integer_root():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def root_products(draw):
        """(m, least root): 1-3 distinct nonzero lines times 0-2 x^2 + a, a > 0."""
        roots = draw(st.lists(st.integers(-60, 60).filter(bool), min_size=1, max_size=3,
                              unique=True))
        squares = draw(st.lists(st.integers(1, 40), max_size=2, unique=True))
        hypothesis.assume(len(roots) + 2 * len(squares) >= 2)
        m = Poly(QQ, [1])
        for r in roots:
            m = m * Poly(QQ, [-r, 1])
        for a in squares:
            m = m * Poly(QQ, [a, 0, 1])
        return m, min(roots)

    def has_rational_root(b, c):
        disc = b * b - 4 * c
        return disc >= 0 and math.isqrt(disc) ** 2 == disc

    @st.composite
    def quadratic_products(draw):
        """(x^2 + bx + c)(x^2 + b'x + c'): two distinct quadratics with no rational root."""
        pairs = st.tuples(st.integers(-12, 12), st.integers(-30, 30)).filter(
            lambda bc: not has_rational_root(*bc))
        (b, c), (b2, c2) = draw(st.lists(pairs, min_size=2, max_size=2, unique=True))
        return Poly(QQ, [c, b, 1]) * Poly(QQ, [c2, b2, 1])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(root_products())
    def check_root(case):
        m, least = case
        with pytest.raises(ReducibleMinPoly, match=f"^rational root {least}$"):
            NumberField(m.coeffs)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(quadratic_products())
    def check_factor(m):
        with pytest.raises(ReducibleMinPoly, match="^factor "):
            NumberField(m.coeffs)

    check_root()
    check_factor()


def test_stickelberger_parity():
    # (disc(m)/p) = (-1)^(d - r) for odd p not dividing disc(m), r the number
    # of irreducible factors of m mod p: checked here apart from is_split
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    odd_primes = primes_upto(1000)[1:]

    @st.composite
    def monic_and_odd_prime(draw):
        d = draw(st.integers(1, 6))
        m = tuple(draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))) + (1,)
        return m, draw(st.sampled_from(odd_primes))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(monic_and_odd_prime())
    def check(case):
        m, p = case
        d = len(m) - 1
        disc = discriminant(Poly(QQ, m))
        hypothesis.assume(disc % p != 0)
        r = len(factor_poly_mod_p(Poly(IntegersMod(p), m)))
        assert pow(disc % p, (p - 1) // 2, p) == (1 if (d - r) % 2 == 0 else p - 1)

    check()


def random_fields(seed, count):
    rng = random.Random(seed)
    fields = []
    while len(fields) < count:
        d = len(fields) % 6 + 1
        coeffs = tuple(rng.randint(-9, 9) for _ in range(d)) + (1,)
        try:
            fields.append(NumberField(coeffs))
        except ReducibleMinPoly:
            pass
    return fields


def test_is_split_matches_dedekind_on_random_fields():
    # every p <= 2000: p = 2, the ramified primes, the primes the quadratic
    # character decides and those it leaves to the Frobenius test; the scan,
    # which tests the open primes in batches, must count the same primes
    for K in random_fields(12, 12):
        split_unramified = 0
        for p in primes_upto(2000):
            fac = factor_prime(K, p)
            split = len(fac.factors) == K.degree and all(
                f.e == 1 and f.f == 1 for f in fac.factors
            )
            assert is_split(K, p) == split, (K, p)
            split_unramified += split and K.disc % p != 0
        assert chebotarev_scan(K, 2000).split == split_unramified, K


def test_frobenius_test_runs_only_where_the_character_is_silent(catalog, monkeypatch):
    calls = []   # every prime passed to the batched Frobenius powering, in order
    residues = numberfield._frobenius_residues
    monkeypatch.setattr(numberfield, "_frobenius_residues",
                        lambda m, primes: calls.extend(primes) or residues(m, primes))
    primes = primes_upto(10 ** 4)
    fields = {**catalog, "zeta5": NumberField((1, 1, 1, 1, 1)), "certified zeta5": catalog["zeta5"]}
    assert fields["zeta5"].automorphisms is None and catalog["zeta5"].automorphisms
    first_in_class = {}   # the first prime of each class mod 125
    for p in primes:
        first_in_class.setdefault(p % 125, p)
    expected = {
        "qi": [],
        "qsqrt2": [],
        # disc = -108: (-108/p) = (-3/p) = 1 exactly for p = 1 mod 3; 2 and 3 ramify
        "qcbrt2": [p for p in primes if p % 3 == 1],
        # disc = 125: (125/p) = (p/5) = 1 exactly for p = +-1 mod 5; and p = 2;
        # without a certificate every one of them takes the test
        "zeta5": [2] + [p for p in primes if p % 5 in (1, 4)],
        # with one, splitting is constant on classes mod 125: one test per class
        "certified zeta5": [2] + sorted(p for c, p in first_in_class.items() if c % 5 in (1, 4)),
    }
    assert len(expected["certified zeta5"]) == 51
    for name, want in expected.items():
        calls.clear()
        chebotarev_scan(fields[name], 10 ** 4)
        assert calls == want, name


def test_chebotarev_counts_at_1e5(catalog):
    pinned = {"qi": (4783, 9591), "qsqrt2": (4783, 9591),
              "qcbrt2": (1559, 9590), "zeta5": (2387, 9591)}
    for name, counts in pinned.items():
        rep = chebotarev_scan(catalog[name], 10 ** 5)
        assert (rep.split, rep.total) == counts, name


def class_table_fields(seed, count):
    """x^3 - 999 and random fields of degree 2 to 4, many past the table's bound."""
    rng = random.Random(seed)
    fields = [NumberField((-999, 0, 0, 1))]   # |disc| = 27 * 999^2 = 26,946,027
    while len(fields) < count:
        width = rng.choice((9, 300))
        coeffs = tuple(rng.randint(-width, width) for _ in range(rng.randint(2, 4))) + (1,)
        try:
            fields.append(NumberField(coeffs))
        except ReducibleMinPoly:
            pass
    return fields


def test_class_table_scan_matches_dedekind(monkeypatch):
    # the scan reads the character per class mod |disc| up to WINDOW and per
    # prime past it; either way it must count the split primes Dedekind
    # finds, and hand the Frobenius test exactly the primes the per-prime
    # character leaves open, in order
    fields = class_table_fields(15, 12)
    discs = [K.disc for K in fields]
    assert any(abs(D) <= WINDOW for D in discs) and any(abs(D) > WINDOW for D in discs)
    assert any(D < 0 for D in discs) and any(D > 0 for D in discs)
    assert {D % 4 for D in discs} == {0, 1}
    opened = []
    residues = numberfield._frobenius_residues
    monkeypatch.setattr(numberfield, "_frobenius_residues",
                        lambda m, primes: opened.extend(primes) or residues(m, primes))
    for K in fields:
        unramified = [p for p in primes_upto(2000) if K.disc % p]
        split = [p for p in unramified if len(factor_prime(K, p).factors) == K.degree]
        for bound in (100, 1000, 2000):
            opened.clear()
            rep = chebotarev_scan(K, bound)
            assert rep.split == sum(p <= bound for p in split), (K, bound)
            assert opened == [p for p in unramified
                              if p <= bound and _split_by_character(K, p) is None], (K, bound)


def test_scan_past_the_window_asks_the_character_per_prime():
    # |disc| = 280,004 > WINDOW, so the scan keeps no class table; primes
    # past WINDOW must not be read from the class of a smaller one
    K = NumberField((-70001, 0, 1))
    assert abs(K.disc) > WINDOW
    bound = 4 * WINDOW
    unramified = [p for p in primes_upto(bound) if K.disc % p]
    rep = chebotarev_scan(K, bound)
    assert rep.total == len(unramified)
    assert rep.split == sum(is_split(K, p) for p in unramified)


# abelian certificates: r_1 = x, ..., r_d, each as coefficients, constant first
CERTIFIED = {
    "zeta5": ((1, 1, 1, 1, 1), ((0, 1), (0, 0, 1), (0, 0, 0, 1), (-1, -1, -1, -1))),
    # x^3 + x^2 - 2x - 1, the real cyclic cubic of conductor 7: x, x^2 - 2, 1 - x - x^2
    "cyclic7": ((-1, -2, 1, 1), ((0, 1), (-2, 0, 1), (1, -1, -1))),
    # x^4 + 1, Q(zeta8): x, x^3, -x, -x^3
    "zeta8": ((1, 0, 0, 0, 1), ((0, 1), (0, 0, 0, 1), (0, -1), (0, 0, 0, -1))),
    # x^4 - 10x^2 + 1, Q(sqrt2, sqrt3): x, -x, 10x - x^3, x^3 - 10x
    "biquadratic": ((1, 0, -10, 0, 1), ((0, 1), (0, -1), (0, 10, 0, -1), (0, -10, 0, 1))),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_scan_matches_dedekind(name, monkeypatch):
    # for an abelian field the conductor divides disc(m), so splitting is
    # constant on the classes mod |disc(m)| and the scan tests one prime per
    # open class; its counts must still be Dedekind's at every p <= 2000
    coeffs, automorphisms = CERTIFIED[name]
    K = NumberField(coeffs, automorphisms=automorphisms)
    assert abs(K.disc) <= WINDOW
    opened = []
    residues = numberfield._frobenius_residues
    monkeypatch.setattr(numberfield, "_frobenius_residues",
                        lambda m, primes: opened.extend(primes) or residues(m, primes))
    unramified = [p for p in primes_upto(2000) if K.disc % p]
    split = [p for p in unramified if len(factor_prime(K, p).factors) == K.degree]
    for bound in (100, 1000, 2000):
        opened.clear()
        rep = chebotarev_scan(K, bound)
        assert (rep.split, rep.total) == (sum(p <= bound for p in split),
                                          sum(p <= bound for p in unramified)), bound
        # at most one Frobenius test per class
        assert len({p % abs(K.disc) for p in opened}) == len(opened), bound


def test_forged_certificates_are_rejected():
    rng = random.Random(16)
    pieces = (0, 1, -1, 2, -2, Fraction(1, 2))
    x = (0, 1)
    for _ in range(40):
        # x^3 - 2 has one root in Q(cbrt2), so no three distinct polynomials pass
        others = {tuple(rng.choice(pieces) for _ in range(3)) for _ in range(2)}
        candidates = [x, *others]
        rng.shuffle(candidates)
        with pytest.raises(ValueError, match="^automorphisms: "):
            NumberField((-2, 0, 0, 1), automorphisms=candidates)
    zeta5, (r1, r2, r3, r4) = CERTIFIED["zeta5"]
    for certificate, message in [
        ((r1, r2, r2, r3), "not pairwise distinct"),
        ((r1, r2, r3, (0, 0, 0, 0, 1)), "degree 4 >= 4"),      # x^4, not reduced mod m
        ((r2, r1, r3, r4), "r_1 must be x"),
        ((r1, r2, r3), "expected 4 polynomials, got 3"),
        ((r1, r2, r3, (1, 1, 1, 1)), "r_4 is not a root"),
    ]:
        with pytest.raises(ValueError, match=message):
            NumberField(zeta5, automorphisms=certificate)
    # x^6 + 108 defines the S_3 field Q(sqrt-3, cbrt2): the six roots
    # zeta6^k x lie in it, so only the commutation check can refuse them
    h, t = Fraction(1, 2), Fraction(1, 12)       # zeta6 = 1/2 + x^3/12
    roots = (x, (0, h, 0, 0, t), (0, -h, 0, 0, t), (0, -1), (0, -h, 0, 0, -t), (0, h, 0, 0, -t))
    with pytest.raises(ValueError, match="do not commute"):
        NumberField((108, 0, 0, 0, 0, 0, 1), automorphisms=roots)


def test_quadratic_character_is_constant_on_classes_mod_disc():
    # for D = 0 or 1 mod 4, (D/.) is a Dirichlet character mod |D| (Cohen,
    # GTM 138, 1.4): all odd primes p not dividing D in one class mod |D|
    # share one Euler-criterion value, which the scan's class table relies on
    rng = random.Random(20)
    odd_primes = primes_upto(10 ** 4)[1:]
    discs = [4 * rng.randint(-500, 500) + rng.randint(0, 1) for _ in range(30)]
    discs = [D for D in discs if D]
    for _ in range(30):
        m = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))) + (1,)
        D = int(discriminant(Poly(QQ, m)))
        if D:
            assert D % 4 in (0, 1), m        # Stickelberger
            discs.append(D)
    shared = 0   # primes whose class already held a prime
    for D in discs:
        value = {}
        for p in odd_primes:
            if D % p:
                legendre = pow(D % p, (p - 1) // 2, p) == 1
                shared += (p % abs(D)) in value
                assert value.setdefault(p % abs(D), legendre) == legendre, (D, p)
    assert shared > 10 ** 4
    # D = 3 is no discriminant: 7 and 13 share a class mod 3, not a value
    assert pow(3, 3, 7) != pow(3, 6, 13)


def reference_counts(K, bound):
    """(split, total) over the unramified primes <= bound, one is_split call each."""
    unramified = [p for p in primes_upto(bound) if K.disc % p]
    return sum(is_split(K, p) for p in unramified), len(unramified)


# x^4 - 16x^2 + 4, Q(sqrt3, sqrt5), a certified field with |disc(m)| = 3,686,400 > WINDOW
WIDE_CERTIFIED = ((4, 0, -16, 0, 1),
                  ((0, 1), (0, -1), (0, -8, 0, Fraction(1, 2)), (0, 8, 0, Fraction(-1, 2))))


def frobenius_primes(scan, K, bound):
    """scan(K, bound), and the primes it passed to _frobenius_residues, in order."""
    opened = []
    residues = numberfield._frobenius_residues
    numberfield._frobenius_residues = lambda m, primes: opened.extend(primes) or residues(m, primes)
    try:
        return scan(K, bound), opened
    finally:
        numberfield._frobenius_residues = residues


def test_both_regimes_match_is_split():
    # the count per class (for an abelian field) and the loop per prime (for
    # any field) must count what is_split finds prime by prime; the count
    # tests the least prime of each class the character leaves open, the
    # loop every prime it leaves open, and chebotarev_scan does what the
    # regime _counts_by_class picks does
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def fields(draw):
        if draw(st.booleans()):
            coeffs, automorphisms = draw(st.sampled_from([*CERTIFIED.values(), WIDE_CERTIFIED]))
            return NumberField(coeffs, automorphisms=automorphisms)
        d = draw(st.integers(2, 4))
        coeffs = tuple(draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))) + (1,)
        try:
            return NumberField(coeffs)
        except ReducibleMinPoly:
            hypothesis.assume(False)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(fields(), st.integers(0, 3000))
    @hypothesis.example(NumberField((1, 0, 1)), 3000)     # disc -4: 2 ramifies
    @hypothesis.example(NumberField((1, 1, 1)), 3000)     # disc -3 = 5 mod 8: 2 is inert
    @hypothesis.example(NumberField((2, 1, 1)), 3000)     # disc -7 = 1 mod 8: 2 splits
    @hypothesis.example(NumberField((-1, 1, 1)), 2)       # disc 5: the scan of 2 alone
    @hypothesis.example(NumberField((-79, 0, 1)), 3000)   # disc 316: the last count at 3000
    @hypothesis.example(NumberField((-80, 0, 1)), 3000)   # disc 320: the first loop at 3000
    @hypothesis.example(NumberField((1, 1, 1, 1, 1), automorphisms=CERTIFIED["zeta5"][1]), 3000)
    @hypothesis.example(NumberField(WIDE_CERTIFIED[0], automorphisms=WIDE_CERTIFIED[1]), 3000)
    def check(K, bound):
        split, total = reference_counts(K, bound)
        modulus = abs(K.disc)
        unramified = [p for p in primes_upto(bound) if K.disc % p]
        least = {}
        for p in unramified:
            least.setdefault(p % modulus, p)
        silent = [p for p in unramified if numberfield._split_by_character(K, p) is None]
        regimes = {numberfield._split_per_prime: silent}
        if K.degree <= 2 or K.automorphisms:
            regimes[numberfield._split_by_class] = [p for p in silent if least[p % modulus] == p]
        for scan, want in regimes.items():
            assert frobenius_primes(scan, K, bound) == ((split, total), want), (K, bound, scan)
        rep, opened = frobenius_primes(chebotarev_scan, K, bound)
        chosen = numberfield._split_by_class if numberfield._counts_by_class(K, bound) else numberfield._split_per_prime
        assert opened == regimes[chosen], (K, bound)
        assert (rep.split, rep.total) == (split, total), (K, bound)
        assert rep.ratio == (f"{split // math.gcd(split, total)}/{total // math.gcd(split, total)}"
                             if total else "0/1")
        assert rep.expected == f"1/{K.degree}"

    check()


@pytest.mark.parametrize("coeffs, bound, by_class", [
    ((1, 0, 1), 3000, True),              # qi, disc -4
    ((-3, 1), 3000, True),                # Q itself, disc 1: every prime in one class
    ((2, 1, 1), 3000, True),              # disc -7, odd: 2 decides its class by Frobenius
    ((-79, 0, 1), 3000, True),            # disc 316: 316 * 11 * 12 <= 14 * 3000
    ((-80, 0, 1), 3000, False),           # disc 320: 320 * 11 * 12 > 14 * 3000
    ((-512, 0, 1), 3000, False),          # disc 2048: more slices than primes at 3000
    ((-512, 0, 1), 10 ** 5, True),        # but fewer at 10^5
    ((-70001, 0, 1), 3000, False),        # disc 280,004 > WINDOW, no class table
    ((-2, 0, 0, 1), 3000, False),         # qcbrt2: not known to be abelian
], ids=["qi", "Q", "disc-7", "at-the-bound", "past-the-bound", "2048-at-3000",
        "2048-at-1e5", "past-the-window", "qcbrt2"])
def test_scan_regime_is_chosen_from_the_discriminant_and_the_bound(coeffs, bound, by_class, monkeypatch):
    K = NumberField(coeffs)
    assert numberfield._counts_by_class(K, bound) == by_class
    want = reference_counts(K, bound)

    def refuse(*args):
        raise AssertionError("the scan took the other regime")

    monkeypatch.setattr(numberfield, "iter_primes" if by_class else "count_primes_by_class", refuse)
    rep = chebotarev_scan(K, bound)
    assert (rep.split, rep.total) == want


@pytest.mark.parametrize("k, bound, by_class", [
    (7608, 10 ** 6, True),                # disc 30,432 over 4 windows
    (7609, 10 ** 6, False),               # disc 30,436
    (8946, 10 ** 7, True),                # disc 35,784 over 39 windows
    (8947, 10 ** 7, False),               # disc 35,788
])
def test_scan_regime_weighs_the_slices_of_every_window(k, bound, by_class):
    # min(|disc|, bound) * (4 w + 7) * bound.bit_length() <= 14 * bound,
    # w = 4 windows at 10^6 and 39 at 10^7; too slow to scan in a test
    assert numberfield._counts_by_class(NumberField((-k, 0, 1)), bound) == by_class


@pytest.mark.parametrize("certificate, bound, by_class", [
    (CERTIFIED["zeta5"], 3000, True),           # disc 125
    (CERTIFIED["zeta5"], 124, False),           # no class holds two primes
    (CERTIFIED["zeta5"], 125, True),
    (CERTIFIED["cyclic7"], 48, False),          # disc 49
    (CERTIFIED["cyclic7"], 49, True),
    (CERTIFIED["biquadratic"], 3000, False),    # disc 147,456
    (WIDE_CERTIFIED, 3000, False),              # disc 3,686,400 > WINDOW
], ids=["zeta5", "zeta5-past-the-bound", "zeta5-at-the-bound", "cyclic7-past-the-bound",
        "cyclic7-at-the-bound", "biquadratic", "past-the-window"])
def test_certified_scan_regime_is_chosen_from_the_discriminant_and_the_bound(
        certificate, bound, by_class, monkeypatch):
    coeffs, automorphisms = certificate
    K = NumberField(coeffs, automorphisms=automorphisms)
    assert numberfield._counts_by_class(K, bound) == by_class
    # the per-prime loop is checked against is_split in test_both_regimes_match_is_split
    want = reference_counts(K, bound)

    def refuse(*args):
        raise AssertionError("the scan took the other regime")

    monkeypatch.setattr(numberfield, "iter_primes" if by_class else "count_primes_by_class", refuse)
    rep = chebotarev_scan(K, bound)
    assert (rep.split, rep.total) == want


def test_certified_regime_follows_the_bound_only_within_the_window():
    # a count whose lists would outgrow a window is never chosen, however
    # large the bound; below WINDOW, a bound of |disc(m)| is enough
    coeffs, automorphisms = CERTIFIED["biquadratic"]
    K = NumberField(coeffs, automorphisms=automorphisms)
    assert [numberfield._counts_by_class(K, b) for b in (147455, 147456, numberfield.MAX_BOUND)] == [
        False, True, True]
    K = NumberField(WIDE_CERTIFIED[0], automorphisms=WIDE_CERTIFIED[1])
    assert not numberfield._counts_by_class(K, numberfield.MAX_BOUND)


def test_report_fractions_are_exact_strings_in_lowest_terms(catalog):
    # the strings the report printed when ratio and expected were Fractions
    assert chebotarev_scan(catalog["qcbrt2"], 10 ** 5)[4:6] == ("1559/9590", "1/3")
    assert chebotarev_scan(catalog["qi"], 10 ** 4)[4:6] == ("609/1228", "1/2")
    assert chebotarev_scan(catalog["qi"], 17)[2:5] == (3, 6, "1/2")       # 5, 13, 17 of 3 .. 17
    assert chebotarev_scan(catalog["qi"], 1).ratio == "0/1"
    assert chebotarev_scan(catalog["qi"], 2).ratio == "0/1"     # 2 ramifies: no prime counted
