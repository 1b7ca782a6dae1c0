import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from conftest import random_invertible, random_rational

from arithgroups.errors import NotInvertible
from arithgroups.matrix import Mat, SpanTracker, _kernel, kernel_basis, rref, solve_in_span
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
    basis = kernel_basis(rows)
    assert len(basis) == 3
    for vec in basis:
        assert vec[0] + vec[3] == 0
    red, piv = rref([(2, 4), (1, 2)])
    assert red == [(1, 2)] and piv == [0]


def test_solve_in_span():
    basis = [(1, 0, 1), (0, 1, 1)]
    (coords,) = solve_in_span(basis, [(2, 3, 5)])
    assert coords == (2, 3)
    (coords,) = solve_in_span(basis, [(0, 0, 1)])
    assert coords is None


def test_pow_negative_exponent():
    a = Mat(QQ, [[1, 1], [0, 1]])
    assert a ** -3 == Mat(QQ, [[1, -3], [0, 1]])


def test_fraction_entries_roundtrip():
    a = Mat(QQ, [[Fraction(1, 2), 0], [0, 2]])
    assert a * a.inverse() == Mat.identity(QQ, 2)


def leibniz_det(rows):
    """The determinant as the signed sum over permutations (exponential in n)."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = -1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 else 1
        for row, j in zip(rows, perm):
            term *= row[j]
        total += term
    return total


def square_rows(data, st, entries):
    """An n x n list of rows drawn from entries, n = 0..4."""
    n = data.draw(st.integers(0, 4))
    return data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def test_det_and_inverse_over_q_match_leibniz():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(
        st.integers(-2, 2),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(-10 ** 12, 10 ** 12),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        a = Mat(QQ, square_rows(data, st, entries))
        expected = QQ.canon(leibniz_det(a.rows))
        d = a.det()
        assert d == expected and type(d) is type(expected)
        if d == 0:
            with pytest.raises(NotInvertible):
                a.inverse()
        else:
            ident = Mat.identity(QQ, a.nrows)
            assert a * a.inverse() == ident == a.inverse() * a

    check()


def test_det_and_inverse_mod_m_match_the_rational_det():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    moduli = [2, 3, 5, 65537, 4, 8, 9, 121, 994009, 6, 12, 35, 1573]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m = data.draw(st.sampled_from(moduli))
        rows = square_rows(data, st, st.one_of(st.integers(0, 3), st.integers(-m, 2 * m)))
        ring = IntegersMod(m)
        a = Mat(ring, rows)
        d = Mat(QQ, rows).det()
        assert a.det() == d % m
        if gcd(d, m) == 1:
            ident = Mat.identity(ring, a.nrows)
            assert a * a.inverse() == ident == a.inverse() * a
        else:
            with pytest.raises(NotInvertible):
                a.inverse()

    check()


def _canon(q):
    return q.numerator if q.denominator == 1 else q


def field_rref(rows):
    """Gauss-Jordan over Q in Fractions, each pivot row scaled to a leading 1."""
    rows = [[Fraction(x) for x in row] for row in rows]
    width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != k and f:
                rows[i] = [a - f * b for a, b in zip(row, rows[k])]
        pivots.append(col)
    return [tuple(_canon(x) for x in row) for row in rows[:len(pivots)]], pivots


def field_kernel(rows):
    width = len(rows[0])
    red, pivots = field_rref(rows)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = _canon(-Fraction(row[fc]))
        basis.append(tuple(vec))
    return basis


def field_solve(vecs, target):
    k = len(vecs)
    red, pivots = field_rref([[v[i] for v in vecs] + [target[i]] for i in range(len(target))])
    if k in pivots:
        return None
    coords = [0] * k
    for row, pc in zip(red, pivots):
        coords[pc] = row[k]
    return tuple(coords)


def random_rational_rows(rng):
    """Rows over Q of rank at most r: combinations of r random rows, with zero
    rows, repeated rows, zero columns and non-unit integral pivots."""
    nr, width, r = rng.randint(0, 6), rng.randint(1, 6), rng.randint(0, 4)
    basis = [[random_rational(rng, den_pool=(1, 1, 1, 2, 3, 4)) * rng.choice((1, 2, 3, 6))
              for _ in range(width)] for _ in range(r)]
    rows = [[sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(width)]
            for coeffs in ([rng.randint(-2, 2) for _ in basis] for _ in range(nr))]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    if rng.random() < 0.3:
        col = rng.randrange(width)
        for row in rows:
            row[col] = 0
    if rng.random() < 0.5:      # canonical entries, as Mat rows hold them
        rows = [[_canon(Fraction(x)) for x in row] for row in rows]
    return rows


def types(rows):
    return [[type(x) for x in row] for row in rows]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rational_elimination_matches_field_gauss_jordan(seed):
    # rref over QQ is fraction-free; the reduced form is unique, so values and
    # their types (int exactly when integral) match the field elimination
    rng = random.Random(seed)
    for _ in range(500):
        rows = random_rational_rows(rng)
        red, pivots = rref(rows)
        want, want_pivots = field_rref(rows)
        assert (red, pivots) == (want, want_pivots)
        assert types(red) == types(want)
        if not rows:
            continue
        kernel, want = kernel_basis(rows), field_kernel(rows)
        assert kernel == want and types(kernel) == types(want)
        d, vectors = _kernel(rows)
        assert d != 0 and all(type(x) is int for vec in vectors for x in vec)
        assert [tuple(vec) for vec in vectors] == [tuple(d * x for x in vec) for vec in want]
        # combinations of the rows and random vectors, mostly outside their span,
        # solved in one call
        targets = [[sum(c * v[i] for c, v in zip(coeffs, rows)) for i in range(len(rows[0]))]
                   if rng.random() < 0.5 else [random_rational(rng) for _ in rows[0]]
                   for coeffs in ([rng.randint(-3, 3) for _ in rows] for _ in range(rng.randint(0, 4)))]
        solved = solve_in_span(rows, targets)
        assert len(solved) == len(targets)
        for coords, target in zip(solved, targets):
            want = field_solve(rows, target)
            assert coords == want
            assert coords is None or types([coords]) == types([want])
        tracker = SpanTracker()
        for i, row in enumerate(rows):
            before = tracker.dim
            grew = tracker.add(row)
            assert tracker.dim == len(field_rref(rows[:i + 1])[1])
            assert grew == (tracker.dim > before)
