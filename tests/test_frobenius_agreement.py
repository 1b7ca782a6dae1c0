"""The plain-int Frobenius residue against the generic Poly routine.

``is_split`` decides an unramified prime by comparing x^p mod (m, p) with
x mod m, but only at p = 2 and at the odd primes that the quadratic character
of disc(m) leaves open: those where disc(m) is a square mod p and the degree
is at least 3.  The helper that computes x^p on int lists must return the same d
coefficients as ``Poly.pow_mod`` over GF(p) for any monic integer m, reducible
or not, and any prime p, including p = 2, 3 and p below the degree of m.
"""

import pytest

from arithgroups.numberfield import _frobenius_residue
from arithgroups.poly import Poly
from arithgroups.primes import primes_upto
from arithgroups.rings import IntegersMod

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PRIMES = primes_upto(2000)


def reference_residue(m, p):
    ring = IntegersMod(p)
    mbar = Poly(ring, m)
    r = Poly(ring, [0, 1]).pow_mod(p, mbar)
    return [int(c) for c in r.coeffs] + [0] * (len(m) - 1 - len(r.coeffs))


@st.composite
def monic_and_prime(draw):
    d = draw(st.integers(1, 6))
    m = tuple(draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))) + (1,)
    p = draw(st.one_of(st.sampled_from([2, 3, 5]), st.sampled_from(PRIMES)))
    return m, p


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(monic_and_prime())
@hypothesis.example(((1, 0, 0, 0, 0, 0, 1), 2))
@hypothesis.example(((-1, 1, 0, 0, 0, 1), 3))
@hypothesis.example(((3, 1), 2))
@hypothesis.example(((1, -2, 1), 5))
def test_frobenius_residue_matches_pow_mod(case):
    m, p = case
    assert _frobenius_residue(m, p) == reference_residue(m, p)
