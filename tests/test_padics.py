import math
import random
from fractions import Fraction

import pytest

from arithgroups.errors import NotARoot, NotUnit, PrecisionMismatch, SingularRoot
from arithgroups.padics import (
    INFINITY,
    PadicInt,
    PadicNumber,
    hensel_lift,
    padic_add,
    padic_inv,
    padic_mul,
    padic_sub,
    tower_consistency,
    vp,
)


def test_vp_examples():
    assert vp(50, 5) == 2
    assert vp(Fraction(3, 8), 2) == -3
    assert vp(1, 7) == 0
    assert vp(0, 3) == INFINITY


def test_vp_multiplicative_and_ultrametric():
    rng = random.Random(23)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        b = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        if a and b:
            assert vp(a * b, p) == vp(a, p) + vp(b, p)
        if a + b != 0:
            assert vp(a + b, p) >= min(vp(a, p), vp(b, p))


def test_embed_7_base_5():
    x = PadicInt.from_int(7, 5, 3)
    assert x.digits == (2, 1, 0)   # 7 = 2 + 1*5


def test_embed_minus_one():
    x = PadicInt.from_int(-1, 5, 3)
    assert x.digits == (4, 4, 4)   # -1 = 124 mod 125


def test_unit_inverse():
    x = PadicInt.from_int(7, 5, 3)
    assert padic_mul(x, padic_inv(x)) == PadicInt.from_int(1, 5, 3)


def test_inverse_requires_unit():
    with pytest.raises(NotUnit):
        padic_inv(PadicInt.from_int(10, 5, 3))


def test_precision_mismatch():
    with pytest.raises(PrecisionMismatch):
        padic_add(PadicInt.from_int(1, 5, 3), PadicInt.from_int(1, 5, 4))
    with pytest.raises(PrecisionMismatch):
        padic_mul(PadicInt.from_int(1, 5, 3), PadicInt.from_int(1, 7, 3))


def test_ring_axioms_random():
    rng = random.Random(31)
    p, N = 7, 5
    mod = p ** N
    for _ in range(300):
        x = PadicInt.from_int(rng.randrange(mod), p, N)
        y = PadicInt.from_int(rng.randrange(mod), p, N)
        z = PadicInt.from_int(rng.randrange(mod), p, N)
        assert padic_add(padic_add(x, y), z) == padic_add(x, padic_add(y, z))
        assert padic_mul(padic_mul(x, y), z) == padic_mul(x, padic_mul(y, z))
        assert padic_mul(x, padic_add(y, z)) == padic_add(padic_mul(x, y), padic_mul(x, z))
        assert padic_add(x, y) == padic_add(y, x)


def test_embedding_is_ring_hom():
    rng = random.Random(37)
    p, N = 5, 8
    for _ in range(100):
        a = rng.randint(-10 ** 6, 10 ** 6)
        b = rng.randint(-10 ** 6, 10 ** 6)
        ea, eb = PadicInt.from_int(a, p, N), PadicInt.from_int(b, p, N)
        assert padic_add(ea, eb) == PadicInt.from_int(a + b, p, N)
        assert padic_mul(ea, eb) == PadicInt.from_int(a * b, p, N)
        assert padic_sub(ea, eb) == PadicInt.from_int(a - b, p, N)


def hensel_oracle(coeffs, p, k, residue_class):
    """Oracle: exhaust all residues mod p^k that reduce to the class mod p."""
    mod = p ** k
    hits = []
    for r in range(residue_class % p, mod, p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % mod
        if acc == 0:
            hits.append(r)
    return hits


def test_hensel_x2_plus_1_mod_25():
    assert hensel_oracle([1, 0, 1], 5, 2, 2) == [7]
    assert hensel_lift([1, 0, 1], 2, 5, 2) == 7


def test_hensel_base_case():
    assert hensel_lift([1, 0, 1], 2, 5, 1) == 2


def test_hensel_x2_minus_2_mod_343():
    assert hensel_oracle([-2, 0, 1], 7, 3, 3) == [108]
    assert hensel_lift([-2, 0, 1], 3, 7, 3) == 108


def test_hensel_tower_compatibility():
    r = hensel_lift([1, 0, 1], 2, 5, 20)
    assert (r * r + 1) % 5 ** 20 == 0
    for k in range(1, 21):
        rk = hensel_lift([1, 0, 1], 2, 5, k)
        assert rk == r % 5 ** k


def test_hensel_singular_root():
    with pytest.raises(SingularRoot):
        hensel_lift([0, 0, 1], 0, 5, 3)   # x^2 at the double root 0


def test_hensel_non_root():
    with pytest.raises(NotARoot) as info:
        hensel_lift([1, 0, 1], 1, 5, 5)   # 1 + 1 = 2 != 0 mod 5
    assert isinstance(info.value, ValueError)   # library callers may still catch ValueError


def test_truncation_examples():
    x = PadicInt.from_int(7, 5, 3)
    assert x.truncate(1).digits == (2,)
    zero = PadicInt.from_int(0, 5, 6)
    for n in range(1, 7):
        assert zero.truncate(n).is_zero()


def test_tower_consistency_random_products():
    rng = random.Random(41)
    p = 5
    for _ in range(50):
        x = PadicInt.from_int(rng.randrange(125), p, 3)
        y = PadicInt.from_int(rng.randrange(125), p, 3)
        assert tower_consistency(x, 2, [("mul", y)])
        assert tower_consistency(x, 1, [("add", y), ("mul", y)])
    # the explicit display: (x*y mod 5^3) truncated equals the mod-5^2 product
    x = PadicInt.from_int(86, 5, 3)
    y = PadicInt.from_int(109, 5, 3)
    lhs = padic_mul(x, y).truncate(2)
    rhs = padic_mul(x.truncate(2), y.truncate(2))
    assert lhs == rhs


def test_padic_number_valuation_split():
    z = PadicNumber.from_rational(Fraction(50, 3), 5, 4)
    assert z.valuation == 2 and z.unit.unit_digit() != 0
    zero = PadicNumber.from_rational(0, 5, 4)
    assert zero.is_zero() and zero.valuation == INFINITY
    neg = PadicNumber.from_rational(Fraction(3, 8), 2, 4)
    assert neg.valuation == -3


def test_render_display():
    x = PadicInt.from_int(7, 5, 3)
    assert x.render() == "2 + 1*5 + 0*5^2 + ..."
