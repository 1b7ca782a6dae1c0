"""Each closure engine must match the known orders, and the two engines each other.

The pure-Python engine is always checked against known group orders.  The
compiled kernel joins those checks when it is built; the direct
native-against-Python comparisons skip, visibly, when it is not.
"""

import pytest

from arithgroups import closure
from arithgroups.closure_py import bfs_closure_py

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

needs_native = pytest.mark.skipif(closure._native is None, reason="native kernel not built")


def backends():
    out = [("python", bfs_closure_py)]
    if closure._native is not None:
        out.append(("native", closure._native))
    return out


@pytest.mark.parametrize("gens,n,m", CASES)
def test_backends_agree(gens, n, m):
    known = KNOWN_ORDERS[n, m]
    for name, fn in backends():
        order, truncated, elements = fn(list(gens), n, m, 10 ** 6, True)
        assert (order, truncated) == (known, False), name
        assert len(set(elements)) == known, name


def test_backends_agree_on_truncation():
    gens, n, m, cap = TRUNCATION_CASE
    for name, fn in backends():
        order, truncated, elements = fn(list(gens), n, m, cap, True)
        assert truncated and elements is None, name
        assert order == cap + 1, name    # cap + 1 wherever the cap fires


@needs_native
@pytest.mark.parametrize("gens,n,m", CASES)
def test_native_matches_python(gens, n, m):
    if not closure.fits_native(n, m):
        pytest.skip("shape too wide for the 64-bit kernel")
    results = []
    for fn in (bfs_closure_py, closure._native):
        order, truncated, elements = fn(list(gens), n, m, 10 ** 6, True)
        results.append((order, truncated, sorted(map(tuple, elements))))
    assert results[0] == results[1]


@needs_native
def test_native_matches_python_on_truncation():
    gens, n, m, cap = TRUNCATION_CASE
    results = [fn(list(gens), n, m, cap, True) for fn in (bfs_closure_py, closure._native)]
    assert results[0] == results[1]


def test_dispatcher_fallback_for_wide_shapes():
    # n^2 * bits(m) > 63 must route to the pure engine and still be exact
    gens = [(1, 1 << 16, 0, 1), (1, 0, 1 << 16, 1)]   # commuting involutions mod 2^17
    m = 1 << 17
    assert not closure.fits_native(2, m)
    order, truncated, elements = closure.run_closure(gens, 2, m, 10 ** 4, True)
    assert order == 4 and not truncated
    assert set(elements) == {(1, 0, 0, 1), (1, 1 << 16, 0, 1), (1, 0, 1 << 16, 1),
                             (1, 1 << 16, 1 << 16, 1)}
