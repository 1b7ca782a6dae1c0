"""The closure engine against known group orders, truncation and a wide modulus."""

import pytest

from arithgroups.closure import run_closure

CASES = [
    # (gens flat, n, m)
    ([(1, 1, 0, 1), (1, 0, 1, 1)], 2, 3),
    ([(1, 1, 0, 1), (1, 0, 1, 1)], 2, 5),
    ([(1, 1, 0, 1), (1, 0, 1, 1)], 2, 12),
    ([(1, 2, 0, 1), (1, 0, 2, 1)], 2, 8),
    ([(1, 2, 0, 1), (1, 0, 2, 1)], 2, 17),
    ([(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1)], 3, 3),
]

KNOWN_ORDERS = {
    # (n, m): order of the closure of the CASES entry
    (2, 3): 24,          # |SL_2(Z/3)|
    (2, 5): 120,         # |SL_2(Z/5)|
    (2, 12): 1152,       # |SL_2(Z/4)| * |SL_2(Z/3)|
    (2, 8): 32,          # index 2 in the kernel of SL_2(Z/8) -> SL_2(Z/2), of order 384/6
    (2, 17): 4896,       # |SL_2(Z/17)|
    (3, 3): 27,          # upper unitriangular 3x3 over F_3 (Heisenberg group)
}

TRUNCATION_CASE = ([(1, 1, 0, 1), (1, 0, 1, 1)], 2, 101, 500)   # gens, n, m, cap


@pytest.mark.parametrize("gens,n,m", CASES)
def test_backends_agree(gens, n, m):
    known = KNOWN_ORDERS[n, m]
    order, truncated, elements = run_closure(list(gens), n, m, 10 ** 6, True)
    assert (order, truncated) == (known, False)
    assert len(set(elements)) == known


def test_backends_agree_on_truncation():
    gens, n, m, cap = TRUNCATION_CASE
    order, truncated, elements = run_closure(list(gens), n, m, cap, True)
    assert truncated and elements is None
    assert order == cap + 1


def test_wide_modulus_closure_is_exact():
    # n^2 * bits(m - 1) = 68: the packed matrix is wider than a 64-bit word
    gens = [(1, 1 << 16, 0, 1), (1, 0, 1 << 16, 1)]   # commuting involutions mod 2^17
    m = 1 << 17
    order, truncated, elements = run_closure(gens, 2, m, 10 ** 4, True)
    assert order == 4 and not truncated
    assert set(elements) == {(1, 0, 0, 1), (1, 1 << 16, 0, 1), (1, 0, 1 << 16, 1),
                             (1, 1 << 16, 1 << 16, 1)}
