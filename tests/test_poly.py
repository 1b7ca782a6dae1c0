import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from arithgroups.errors import NonSquarefree
from arithgroups.matrix import Mat
from arithgroups.poly import (
    Poly,
    discriminant,
    factor_poly_mod_p,
    poly_gcd,
    resultant,
    sturm_real_root_count,
)
from arithgroups.rings import QQ, GF, IntegersMod


def all_polys_mod_p(p, max_deg):
    ring = IntegersMod(p)
    for deg in range(max_deg + 1):
        for coeffs in product(range(p), repeat=deg + 1):
            if coeffs[-1] != 0:
                yield Poly(ring, coeffs)


def divides(d, f):
    return (f % d).is_zero()


def test_gcd_shared_root():
    f = Poly(QQ, [-1, 0, 1])       # x^2 - 1
    g = Poly(QQ, [-1, 1])          # x - 1
    assert poly_gcd(f, g) == g


def test_gcd_with_zero_is_monic_other():
    f = Poly(QQ, [2, 4])
    z = Poly(QQ, [])
    assert poly_gcd(f, z) == Poly(QQ, [Fraction(1, 2), 1])
    assert poly_gcd(z, f) == Poly(QQ, [Fraction(1, 2), 1])


def test_gcd_over_f2_against_divisor_enumeration():
    # oracle: brute-force search of common divisors over F_2 up to degree 2
    ring = GF(2)
    f = Poly(ring, [1, 0, 1])      # x^2 + 1
    g = Poly(ring, [0, 1, 1])      # x^2 + x
    common = [
        d for d in all_polys_mod_p(2, 2)
        if d.degree >= 1 and divides(d, f) and divides(d, g)
    ]
    best = max(common, key=lambda d: d.degree)
    assert best == Poly(ring, [1, 1])          # oracle says x + 1
    assert poly_gcd(f, g) == Poly(ring, [1, 1])


def root_factorization_oracle(f, p):
    """Split off linear factors by testing every residue (oracle)."""
    ring = IntegersMod(p)
    roots = {}
    rest = f.monic()
    for a in range(p):
        while rest.eval(a) == 0 and rest.degree > 0:
            rest = (rest // Poly(ring, [-a, 1])).monic()
            roots[a] = roots.get(a, 0) + 1
    return roots, rest


def test_factor_x2_plus_1_mod_5():
    ring = GF(5)
    f = Poly(ring, [1, 0, 1])
    roots, rest = root_factorization_oracle(f, 5)
    assert roots == {2: 1, 3: 1} and rest.degree == 0
    assert factor_poly_mod_p(f) == [
        (Poly(ring, [2, 1]), 1),
        (Poly(ring, [3, 1]), 1),
    ]


def test_factor_x2_plus_1_mod_3_irreducible():
    ring = GF(3)
    f = Poly(ring, [1, 0, 1])
    roots, rest = root_factorization_oracle(f, 3)
    assert not roots and rest.degree == 2  # no root and degree 2: irreducible
    assert factor_poly_mod_p(f) == [(f, 1)]


def test_factor_x2_plus_1_mod_2_square():
    ring = GF(2)
    f = Poly(ring, [1, 0, 1])
    sq = Poly(ring, [1, 1]) * Poly(ring, [1, 1])
    assert sq == f                     # oracle: (x+1)^2 expands to x^2+1 over F_2
    assert factor_poly_mod_p(f) == [(Poly(ring, [1, 1]), 2)]


def test_factor_canonical_order():
    ring = GF(5)
    f = Poly(ring, [2, 0, 0, 1]) * Poly(ring, [1, 1]) * Poly(ring, [1, 1])
    fac = factor_poly_mod_p(f)
    keys = [(g.degree, g.coeffs) for g, _ in fac]
    assert keys == sorted(keys)


def test_factor_over_f2_products_of_equal_degree():
    # these reach the trace map over F_{2^d} that splits equal-degree factors
    ring = GF(2)
    cubics = [Poly(ring, [1, 0, 1, 1]), Poly(ring, [1, 1, 0, 1])]      # x^3+x^2+1, x^3+x+1
    quartics = [Poly(ring, [1, 0, 0, 1, 1]), Poly(ring, [1, 1, 0, 0, 1]),
                Poly(ring, [1, 1, 1, 1, 1])]                          # the irreducible quartics
    for f in cubics + quartics:
        assert factor_poly_mod_p(f) == [(f, 1)]
    for f, g in [tuple(cubics)] + list(combinations(quartics, 2)):
        assert factor_poly_mod_p(f * g) == [(f, 1), (g, 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_factor_reconstruction_random(p):
    rng = random.Random(1000 + p)
    ring = IntegersMod(p)
    for _ in range(30):
        f = Poly(ring, [rng.randrange(p) for _ in range(rng.randint(2, 7))])
        g = Poly(ring, [rng.randrange(p) for _ in range(rng.randint(2, 7))])
        if f.is_zero() or g.is_zero():
            continue
        h = f * g
        fac = factor_poly_mod_p(h)
        prod = Poly(ring, [h.lead()])
        for irr, mult in fac:
            for _ in range(mult):
                prod = prod * irr
        assert prod == h


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gcd_contains_every_bruteforce_common_divisor(p):
    rng = random.Random(2000 + p)
    ring = IntegersMod(p)
    for _ in range(8):
        f = Poly(ring, [rng.randrange(p) for _ in range(5)])
        g = Poly(ring, [rng.randrange(p) for _ in range(5)])
        if f.is_zero() or g.is_zero():
            continue
        gcd = poly_gcd(f, g)
        assert divides(gcd, f) and divides(gcd, g)
        for d in all_polys_mod_p(p, 4):
            if d.degree >= 1 and divides(d, f) and divides(d, g):
                assert divides(d, gcd)


def grid_sign_scan(f, step=Fraction(1, 128)):
    """Oracle: sign changes of f on a rational grid out to the Cauchy bound."""
    lead = Fraction(f.lead())
    bound = 1 + max(abs(Fraction(c) / lead) for c in f.coeffs[:-1])
    count = 0
    x = -bound
    prev = f.eval(x)
    while x < bound:
        x += step
        cur = f.eval(x)
        if cur == 0:
            count += 1
            while cur == 0 and x < bound:
                x += step
                cur = f.eval(x)
            prev = cur
            continue
        if prev != 0 and (prev < 0) != (cur < 0):
            count += 1
        prev = cur
    return count


def test_sturm_examples():
    assert sturm_real_root_count(Poly(QQ, [-2, 0, 1])) == 2   # x^2 - 2
    assert sturm_real_root_count(Poly(QQ, [1, 0, 1])) == 0    # x^2 + 1
    f = Poly(QQ, [-2, 0, 0, 1])                               # x^3 - 2
    assert grid_sign_scan(f) == 1
    assert sturm_real_root_count(f) == 1


def test_sturm_rejects_repeated_roots():
    with pytest.raises(NonSquarefree):
        sturm_real_root_count(Poly(QQ, [1, 2, 1]))            # (x+1)^2


def test_sturm_matches_grid_scan_random():
    rng = random.Random(42)
    checked = 0
    while checked < 50:
        deg = rng.choice([3, 4])
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1]) * rng.randint(1, 9)]
        f = Poly(QQ, coeffs)
        if f.degree != deg:
            continue
        if poly_gcd(f, f.derivative()).degree > 0:
            continue
        assert sturm_real_root_count(f) == grid_sign_scan(f)
        checked += 1


def test_sturm_counts_the_real_roots_of_a_product():
    # distinct rational roots times quadratics with no real root, often sparse
    # (x^2 + b), so the chain skips degrees where a leading sign is negative
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))

    @st.composite
    def products(draw):
        roots = draw(st.lists(rationals, max_size=4, unique=True))
        quadratics = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 12)), max_size=2))
        hypothesis.assume(roots or quadratics)
        f = Poly(QQ, [draw(st.sampled_from([-3, -1, Fraction(-1, 2), 1, 2]))])
        for r in roots:
            f = f * Poly(QQ, [-r, 1])
        for a, b in quadratics:
            hypothesis.assume(a * a < 4 * b)
            f = f * Poly(QQ, [b, a, 1])
        return f, len(roots), len(set(quadratics)) < len(quadratics)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(products())
    @hypothesis.example((Poly(QQ, [-1, 0, 0, 0, -1]) * Poly(QQ, [-2, 1]), 1, False))
    def check(case):
        f, real_roots, repeated = case
        if repeated:
            with pytest.raises(NonSquarefree):
                sturm_real_root_count(f)
        else:
            assert sturm_real_root_count(f) == real_roots

    check()


def field_sturm_count(f):
    """Sturm's count with the chain f, f', -rem(f, f'), ... divided out over Q."""
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(-rem)
    signs = [(1 if g.lead() > 0 else -1, g.degree) for g in chain]
    pos = [s for s, _ in signs]
    neg = [s * (-1) ** d for s, d in signs]
    return sum(x != y for x, y in zip(neg, neg[1:])) - sum(x != y for x, y in zip(pos, pos[1:]))


def test_sturm_matches_the_chain_over_q_on_sparse_polynomials():
    # sparse coefficients make the chain skip degrees, where a negative
    # leading coefficient to an odd power flips a pseudo-remainder's sign
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.lists(coefficient, min_size=2, max_size=7),
                      st.sampled_from([-3, -1, Fraction(-1, 2), 1, 2]))
    @hypothesis.example([0, 5, 0, 0], 1)                 # x^4 + 5x: 2 real roots
    @hypothesis.example([8, 0, 0, 0, -3], -3)            # -3x^5 - 3x^4 + 8
    def check(coeffs, lead):
        f = Poly(QQ, coeffs + [lead])
        if poly_gcd(f, f.derivative()).degree > 0:
            with pytest.raises(NonSquarefree):
                sturm_real_root_count(f)
        else:
            assert sturm_real_root_count(f) == field_sturm_count(f)

    check()


def test_resultant_and_discriminant():
    # disc(x^2 + bx + c) = b^2 - 4c, via two instances
    assert discriminant(Poly(QQ, [1, 0, 1])) == -4
    assert discriminant(Poly(QQ, [-2, 0, 1])) == 8
    # resultant of coprime polynomials is nonzero; of sharing a factor, zero
    assert resultant(Poly(QQ, [-1, 1]), Poly(QQ, [-1, 0, 1])) == 0
    assert resultant(Poly(QQ, [1, 1]), Poly(QQ, [1, 0, 1])) == 2


def sylvester_resultant(f, g):
    """det of the Sylvester matrix of f (degree n) and g (degree m), n, m >= 0."""
    n, m = f.degree, g.degree
    if n + m == 0:
        return 1
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gc + [0] * (n - 1 - i) for i in range(n)]
    return Mat(QQ, rows).det()


def test_resultant_matches_the_sylvester_determinant():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ratios = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))

    @st.composite
    def rational_polys(draw):
        """A rational Poly of degree -1 (zero) to 5; constants included."""
        degree = draw(st.integers(-1, 5))
        if degree < 0:
            return Poly(QQ, [])
        lead = draw(ratios.filter(bool))
        return Poly(QQ, draw(st.lists(ratios, min_size=degree, max_size=degree)) + [lead])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(rational_polys(), rational_polys())
    def check(f, g):
        res = resultant(f, g)
        if f.is_zero() or g.is_zero():
            assert res == 0
            return
        assert res == sylvester_resultant(f, g)
        assert res == (-1) ** (f.degree * g.degree % 2) * resultant(g, f)

    @st.composite
    def integer_polys(draw):
        """An integer Poly of degree 0 to 6, with coefficients large enough to share factors."""
        degree = draw(st.integers(0, 6))
        coeffs = st.integers(-60, 60)
        lead = draw(coeffs.filter(bool))
        return Poly(QQ, draw(st.lists(coeffs, min_size=degree, max_size=degree)) + [lead])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(integer_polys(), integer_polys())
    @hypothesis.example(Poly(QQ, [-2, 0, 1]), Poly(QQ, [0, 2]))             # qsqrt2's m, m'
    @hypothesis.example(Poly(QQ, [-2, 0, 0, 1]), Poly(QQ, [0, 0, 3]))       # qcbrt2's m, m'
    @hypothesis.example(Poly(QQ, [6, -5, 1]), Poly(QQ, [-6, 1, 1]))         # a common root 2
    def check_integral(f, g):
        # the sub-resultant sequence divides only exactly: an integer pair gives an int
        res = resultant(f, g)
        assert type(res) is int
        assert res == sylvester_resultant(f, g)

    check()
    check_integral()
