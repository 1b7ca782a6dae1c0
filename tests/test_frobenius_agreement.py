"""The batched plain-int Frobenius residues against the generic Poly routine.

``is_split`` and ``chebotarev_scan`` decide an unramified prime by comparing
x^p mod (m, p) with x mod m, but only at p = 2 and at the odd primes that the
quadratic character of disc(m) leaves open: those where disc(m) is a square
mod p and the degree is at least 3.  The scan computes x^p for a batch of
distinct primes at once, by one powering mod their product.  For any monic
integer m, reducible or not, and any batch of primes, including 2, 3, 5 and
primes below the degree of m, every residue must be the d coefficients that
``Poly.pow_mod`` gives over GF(p), and the one the prime gets in a batch of
its own.
"""

import pytest

from arithgroups.numberfield import _frobenius_residues
from arithgroups.poly import Poly
from arithgroups.primes import iter_primes
from arithgroups.rings import IntegersMod

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PRIMES = list(iter_primes(2000))


def reference_residue(m, p):
    ring = IntegersMod(p)
    mbar = Poly(ring, m)
    r = Poly(ring, [0, 1]).pow_mod(p, mbar)
    return [int(c) for c in r.coeffs] + [0] * (len(m) - 1 - len(r.coeffs))


@st.composite
def monic_and_primes(draw):
    d = draw(st.integers(1, 6))
    m = tuple(draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))) + (1,)
    prime = st.one_of(st.sampled_from([2, 3, 5]), st.sampled_from(PRIMES))
    primes = draw(st.lists(prime, min_size=1, max_size=40, unique=True))
    return m, primes


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(monic_and_primes())
@hypothesis.example(((1, 0, 0, 0, 0, 0, 1), [2]))
@hypothesis.example(((-1, 1, 0, 0, 0, 1), [3, 2, 5]))
@hypothesis.example(((3, 1), [2, 1999]))
@hypothesis.example(((1, -2, 1), [5, 7, 3]))
def test_frobenius_residue_matches_pow_mod(case):
    m, primes = case
    batch = _frobenius_residues(m, primes)
    assert len(batch) == len(primes)
    for p, residue in zip(primes, batch):
        assert residue == reference_residue(m, p), p
        assert residue == _frobenius_residues(m, [p])[0], p
