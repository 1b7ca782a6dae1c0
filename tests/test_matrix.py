import random
from fractions import Fraction

import pytest

from conftest import random_invertible, random_rational

from arithgroups.errors import NotInvertible
from arithgroups.matrix import Mat, kernel_basis, rref, solve_in_span
from arithgroups.rings import QQ, GF, IntegersMod


def test_det_identity():
    assert Mat.identity(QQ, 3).det() == 1


def test_unipotent_inverse_over_z():
    a = Mat(QQ, [[1, 1], [0, 1]])
    assert a.inverse() == Mat(QQ, [[1, -1], [0, 1]])


def test_inverse_mod_5():
    ring = GF(5)
    a = Mat(ring, [[2, 0], [0, 1]])
    assert a.inverse() == Mat(ring, [[3, 0], [0, 1]])  # 2 * 3 = 1 mod 5


def test_not_invertible_over_composite():
    ring = IntegersMod(6)
    a = Mat(ring, [[2, 0], [0, 1]])  # det 2, gcd(2, 6) != 1
    with pytest.raises(NotInvertible):
        a.inverse()


def test_composite_inverse_without_unit_entry():
    # invertible mod 6 although no single entry is a unit
    ring = IntegersMod(6)
    a = Mat(ring, [[2, 3], [3, 2]])
    assert a.det() == 1
    assert a.inverse() * a == Mat.identity(ring, 2)


def test_inverse_times_matrix_is_identity_random():
    rng = random.Random(7)
    cases = 0
    pools = [
        (QQ, [random_rational(rng) for _ in range(40)]),
        (GF(7), list(range(7))),
        (IntegersMod(12), list(range(12))),
        (IntegersMod(9), list(range(9))),
    ]
    while cases < 200:
        ring, pool = pools[cases % len(pools)]
        n = rng.choice([2, 3])
        a = random_invertible(rng, ring, n, pool)
        assert a.inverse() * a == Mat.identity(ring, n)
        assert a * a.inverse() == Mat.identity(ring, n)
        cases += 1


def test_det_multiplicative_random():
    rng = random.Random(11)
    ring = IntegersMod(10)
    for _ in range(50):
        a = Mat(ring, [[rng.randrange(10) for _ in range(3)] for _ in range(3)])
        b = Mat(ring, [[rng.randrange(10) for _ in range(3)] for _ in range(3)])
        assert (a * b).det() == ring.mul(a.det(), b.det())


def test_matrices_immutable_and_hashable():
    a = Mat(QQ, [[1, 2], [3, 4]])
    b = Mat(QQ, [[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert {a, b} == {a}
    assert isinstance(a.rows, tuple) and isinstance(a.rows[0], tuple)
    c = a * b
    assert a.rows == ((1, 2), (3, 4)) and c is not a  # operations return fresh values


def test_rref_and_kernel():
    rows = [(1, 0, 0, 1)]  # trace functional on 2x2
    basis = kernel_basis(QQ, rows)
    assert len(basis) == 3
    for vec in basis:
        assert vec[0] + vec[3] == 0
    red, piv = rref(QQ, [(2, 4), (1, 2)])
    assert red == [(1, 2)] and piv == [0]


def test_solve_in_span():
    basis = [(1, 0, 1), (0, 1, 1)]
    assert solve_in_span(QQ, basis, (2, 3, 5)) == (2, 3)
    assert solve_in_span(QQ, basis, (0, 0, 1)) is None


def test_pow_negative_exponent():
    a = Mat(QQ, [[1, 1], [0, 1]])
    assert a ** -3 == Mat(QQ, [[1, -3], [0, 1]])


def test_fraction_entries_roundtrip():
    a = Mat(QQ, [[Fraction(1, 2), 0], [0, 2]])
    assert a * a.inverse() == Mat.identity(QQ, 2)
