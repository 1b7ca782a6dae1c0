"""Both closure engines against a per-product reference loop.

``reference_closure`` is the straightforward engine: unpack each element,
multiply it by each generator entry by entry, pack the product again.  The
row-table engine and, where it is built, the compiled kernel must return the
same (order, truncated, elements), with elements in the same breadth-first
order, on random generator sets.  The kernel runs only on the shapes it
accepts (``fits_native``); its tests skip visibly when it is not built.
"""

from collections import deque

import pytest

from arithgroups import closure
from arithgroups.closure_py import bfs_closure_py

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

WIDE_MODULUS = 65537          # above 2^16: a small cap fills the row tables
WIDEST_NATIVE = {1: (1 << 63) - 25, 2: 1 << 15, 3: 1 << 7}   # n*n*bits(m-1) == 63
MINUS_ONE_WIDE = ([(-1,)], 1, WIDEST_NATIVE[1], 60, True)    # (m-1)^2 passes 2^64

needs_native = pytest.mark.skipif(closure._native is None, reason="native kernel not built")


def reference_closure(gens, n, m, cap, keep_elements):
    bits = max(1, (m - 1).bit_length())
    mask = (1 << bits) - 1
    nn = n * n
    gen_rows = [tuple(x % m for x in g) for g in gens]

    def encode(flat):
        code = 0
        for i in range(nn - 1, -1, -1):
            code = (code << bits) | flat[i]
        return code

    def decode(code):
        return tuple((code >> (bits * i)) & mask for i in range(nn))

    ident = tuple(1 % m if i == j else 0 for i in range(n) for j in range(n))
    start = encode(ident)
    seen = {start}
    queue = deque([start])
    order_list = [start] if keep_elements else None
    truncated = False
    rng = range(n)
    while queue:
        code = queue.popleft()
        cur = decode(code)
        for g in gen_rows:
            prod = []
            for i in rng:
                base = i * n
                for j in rng:
                    acc = 0
                    for k in rng:
                        acc += cur[base + k] * g[k * n + j]
                    prod.append(acc % m)
            pcode = encode(prod)
            if pcode not in seen:
                seen.add(pcode)
                if len(seen) > cap:
                    truncated = True
                    break
                queue.append(pcode)
                if order_list is not None:
                    order_list.append(pcode)
        if truncated:
            break
    elements = None
    if keep_elements and not truncated:
        elements = [decode(c) for c in order_list]
    return len(seen), truncated, elements


@st.composite
def closure_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([2, 3, 5, 7, 31,          # primes
                              4, 8, 9, 25, 27,         # prime powers
                              6, 10, 12, 15,           # composites
                              WIDE_MODULUS, WIDEST_NATIVE[n]]))
    cap = draw(st.sampled_from([60, 400]) if m >= WIDE_MODULUS
               else st.sampled_from([60, 400, 3000]))
    entry = st.integers(min_value=-m, max_value=2 * m)   # unreduced entries too
    gens = draw(st.lists(st.tuples(*[entry] * (n * n)), min_size=1, max_size=3))
    return gens, n, m, cap, draw(st.booleans())


def assert_matches_reference(engine, gens, n, m, cap, keep):
    assert engine(list(gens), n, m, cap, keep) == reference_closure(list(gens), n, m, cap, keep)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(closure_cases())
@hypothesis.example(MINUS_ONE_WIDE)
def test_row_tables_match_reference(case):
    assert_matches_reference(bfs_closure_py, *case)


@needs_native
@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(closure_cases().filter(lambda case: closure.fits_native(case[1], case[2])))
@hypothesis.example(MINUS_ONE_WIDE)
def test_native_matches_reference(case):
    assert_matches_reference(closure._native, *case)


@pytest.mark.parametrize("cap", [0, 1, 2, 7])
def test_tiny_caps_match_reference(cap):
    for gens in ([(1, 1, 0, 1), (0, WIDE_MODULUS - 1, 1, 0)], [(1, 0, 0, 1)]):
        for keep in (False, True):
            assert_matches_reference(bfs_closure_py, gens, 2, WIDE_MODULUS, cap, keep)


@needs_native
@pytest.mark.parametrize("cap", [0, 1, 2, 7])
def test_native_tiny_caps_match_reference(cap):
    m = WIDEST_NATIVE[2]
    for gens in ([(1, 1, 0, 1), (0, m - 1, 1, 0)], [(1, 0, 0, 1)]):
        for keep in (False, True):
            assert_matches_reference(closure._native, gens, 2, m, cap, keep)
