"""Exact rationals stay ints until a non-integral value appears.

A generator file's integer literals are read as ints and every other token as
Fraction reads it, with the same errors; Mat.det, Mat.inverse and QQ.inv over
Q give what Fraction arithmetic gives, as an int exactly when it is integral.
So integral work never needs fractions, and keys built from ints are the keys
built from integral Fractions.  A primitive integer vector, a polynomial's
encoded coefficients and its denominator lcm, read straight off canonical
rationals, are what the Fraction formulas they replaced gave.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from arithgroups import cli
from arithgroups.catalog import read_generator_file, read_group
from arithgroups.errors import UsageError
from arithgroups.groups import _primitive
from arithgroups.matrix import Mat
from arithgroups.mpoly import MPoly
from arithgroups.report import ScanCache
from arithgroups.rings import QQ

SRC = Path(__file__).resolve().parent.parent / "src"
INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+")
# signs, leading zeros, each form Fraction reads, and tokens that Fraction
# rejects on some Python versions ('1_000' before 3.11) or on all of them
TOKENS = ["0", "-0", "+7", "007", "-0012", "12345678901234567890", "1/2", "-2/4", "+6/3",
          "2.5", "-.5", "1e3", "1E-2", "1_000", "1_0/2", "٣", "-١٢", "+-1",
          "--1", "1/0", "0/0", "1/-2", "+", "-", "/", "1/", "0x10", "1.2.3", "inf", "nan"]


def fraction_or_none(tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None


def check_token(path, tok):
    path.write_text(f"{tok}\n", encoding="utf-8")
    want = fraction_or_none(tok)
    if want is None:
        with pytest.raises(UsageError, match=re.escape(f"{path}:1: not a row of rationals a/b: {tok!r}")):
            read_generator_file(str(path))
        return
    [[[got]]] = read_generator_file(str(path))
    assert got == want
    assert type(got) is (int if INTEGER_LITERAL.fullmatch(tok) else Fraction)


@pytest.mark.parametrize("tok", TOKENS)
def test_generator_file_reads_a_token_as_fraction_does(tmp_path, tok):
    check_token(tmp_path / "one.gens", tok)


def test_generator_file_reads_drawn_tokens_as_fraction_does(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    tokens = st.one_of(
        st.text(alphabet="0123456789+-/._eE٣", min_size=1, max_size=8),
        st.integers().map(str),
        st.fractions().map(str),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(tokens)
    def check(tok):
        check_token(tmp_path / "one.gens", tok)

    check()


def test_an_integer_generator_file_keeps_its_cache_key(tmp_path):
    # the key formed when every entry was read as a Fraction: ints must not orphan it
    path = tmp_path / "sanov.gens"
    path.write_text("1 +2\n-0 1\n\n1 0\n0002 1\n", encoding="utf-8")
    label, rows = read_group(str(path))
    assert all(type(x) is int for g in rows for row in g for x in row)
    canonical = f"{cli._group_canonical(label, rows)}|P=31|k=1|cap=2000000"
    assert canonical == "sanov|n=2|1,2,0,1;1,0,2,1|P=31|k=1|cap=2000000"
    assert (ScanCache(str(tmp_path), "0.1+abc").key("cong-scan:json", canonical)
            == "5b61ce2fb9ebaf15898172d8d54ffeec79b2540061132bc0189943cad8252d19")


def gauss_jordan(rows):
    """(det, inverse rows or None) by Gauss-Jordan elimination in Fraction arithmetic."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
            det = -det
        p = aug[c][c]
        det *= p
        aug[c] = [x / p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return det, [row[n:] for row in aug]


def assert_exact(got, want):
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_det_inverse_and_inv_over_q_are_fraction_arithmetic_as_int_when_integral():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(-10 ** 12, 10 ** 12),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
        else:   # a product of integer transvections, so its inverse is integral too
            a = Mat.identity(QQ, n)
            for _ in range(data.draw(st.integers(0, 6)) if n > 1 else 0):
                i, j = data.draw(st.permutations(range(n)))[:2]
                e = [[int(r == c) for c in range(n)] for r in range(n)]
                e[i][j] = data.draw(st.integers(-5, 5))
                a = a * Mat(QQ, e)
            rows = a.rows
        det, inverse = gauss_jordan(rows)
        a = Mat(QQ, rows)
        assert_exact(a.det(), det)
        if inverse is not None:
            for got, want in zip(a.inverse().rows, inverse):
                for x, y in zip(got, want):
                    assert_exact(x, y)
        x = data.draw(entries)
        if x:
            assert_exact(QQ.inv(x), 1 / Fraction(x))

    check()


def fraction_primitive(vec):
    """vec scaled to coprime integers with positive lead, through Fraction."""
    fr = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * denom) for f in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def fraction_text(c):
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def test_primitive_vectors_and_encoded_coefficients_are_the_fraction_formulas():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(-10 ** 12, 10 ** 12),
        st.fractions(max_denominator=10 ** 9),
    ).map(QQ.canon)
    monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(rationals, max_size=6), st.dictionaries(monomials, rationals, max_size=6))
    def check(vec, terms):
        got = _primitive(vec)
        assert got == fraction_primitive(vec)
        assert all(type(x) is int for x in got)
        P = MPoly(2, terms)
        items = sorted(P.terms.items())
        want = " ".join(",".join(str(x) for x in e) + ":" + fraction_text(c) for e, c in items)
        assert P.encode() == (want or "0")
        assert MPoly.decode(2, P.encode()) == P
        assert P.denominator_lcm() == lcm(*(Fraction(c).denominator for c in P.terms.values()))

    check()


# The det and inverse of integer matrices with det 1 and -1, then whether
# fractions or decimal was loaded.
UNIMODULAR_MAIN = """
import sys
from arithgroups.matrix import Mat
from arithgroups.rings import QQ
for rows in ([[2, 3], [1, 2]], [[2, 1, 0], [1, 1, 0], [3, 4, -1]]):
    a = Mat(QQ, rows)
    inv = a.inverse()
    assert a * inv == Mat.identity(QQ, a.n)
    print(a.det(), inv.rows)
print(sorted({"fractions", "decimal"} & set(sys.modules)))
"""


def test_det_and_inverse_of_a_unimodular_integer_matrix_load_no_fractions():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", UNIMODULAR_MAIN],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1 ((2, -3), (-1, 2))",
        "-1 ((1, -1, 0), (-1, 2, 0), (-1, 5, -1))",
        "[]",
    ]
