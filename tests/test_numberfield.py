import random
from fractions import Fraction

import pytest

from arithgroups.catalog import builtin_field, field_aliases
from arithgroups.errors import DivisionByZero, ReducibleMinPoly, Unverified
from arithgroups.matrix import Mat
from arithgroups.numberfield import (
    NumberField,
    chebotarev_scan,
    crt_check,
    factor_prime,
    is_split,
    nf_inverse,
    nf_mul,
    regular_representation,
    residue_field,
)
from arithgroups.poly import Poly, is_irreducible_mod_p
from arithgroups.primes import primes_upto
from arithgroups.rings import QQ, ExtField, IntegersMod


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

    coeffs = solve_in_span(QQ, [(1, 1), (-1, 1)], (1, 0))
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
    assert rep.ratio == Fraction(11, 24)
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
    # cheap certificate cannot prove (reducible mod every prime)
    with pytest.raises(ReducibleMinPoly):
        NumberField((1, 0, 0, 0, 1))


def test_large_constant_term_builds_through_the_certificate():
    # an irreducible reduction mod a small prime settles these without trial
    # division of c0, which would take time in sqrt(|c0|)
    assert NumberField((10 ** 14 + 1, 0, 1)).signature == (0, 1)
    assert NumberField((10 ** 12 + 1, 0, 1)).signature == (0, 1)
    assert NumberField((2 * 10 ** 14 + 1, 0, 0, 1)).signature == (1, 1)
    with pytest.raises(ReducibleMinPoly, match="rational root -?1000$"):
        NumberField((-10 ** 6, 0, 1))    # x^2 - 10^6 = (x - 1000)(x + 1000)
