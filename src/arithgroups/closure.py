"""Breadth-first closure of a matrix group over Z/m.

A closure lists every element of a matrix group over Z/m.  It serves the
callers that need the element set (gamma_plus, unipotent_closure_subgroup)
and is the oracle for congruence._chain_order, which counts an image without
listing it.  Matrices are encoded as arbitrary-precision ints, so there is no
size limit on n or m.

A matrix packs row-major into one int, ``bits`` bits per entry, so row i is
the ``n * bits``-bit field at bit ``i * n * bits``.  Row i of ``cur · g``
depends only on row i of ``cur``, so each generator g has a row table: a dict
from a packed row to the packed row of ``row · g``, filled on first use.  A
product is then n shifts and masks, n table lookups and n ORs, with no
unpacking and no matrix multiply.  A table stops storing rows after
``cap // (n * len(gens))`` entries (later rows are still computed), so wide
moduli cannot grow the tables past the memory the cap already allows.

The queue is worked in batches of up to CHUNK elements, each step mapped over
the whole batch.  Everything a batch finds lies behind it in the queue, so new
elements are found in exactly the order of a loop that pops one element and
appends its products generator by generator.
"""

from collections import deque
from itertools import chain, filterfalse, repeat
from operator import and_, lshift, mul, or_, rshift

CHUNK = 1024  # queued elements multiplied per step; bounds the temporaries

# perfbench's provenance reads these two names; there is one engine
_native = None


def backend_name(n=2, m=2):
    return "python"


class _RowTable(dict):
    """Packed row -> packed ``row · g`` for one generator g, filled on first use."""

    __slots__ = ("columns", "m", "spread", "mask", "limit")

    def __init__(self, g, n, m, bits, limit):
        super().__init__()
        self.columns = [(g[j::n], bits * j) for j in range(n)]
        self.m = m
        self.spread = [bits * k for k in range(n)]
        self.mask = repeat((1 << bits) - 1)
        self.limit = limit

    def __missing__(self, row):
        entries = list(map(and_, map(rshift, repeat(row), self.spread), self.mask))
        m = self.m
        out = 0
        for col, shift in self.columns:
            out |= (sum(map(mul, entries, col)) % m) << shift
        if len(self) < self.limit:
            self[row] = out
        return out


def run_closure(gens, n, m, cap, keep_elements):
    """Close the identity under right multiplication by the generators.

    gens: list of flat tuples (length n*n) of entries mod m.
    Returns (order, truncated, elements or None), elements as flat tuples in
    breadth-first order.  A closure that passes the cap returns truncated
    True and no elements.
    """
    bits = max(1, (m - 1).bit_length())
    mask = (1 << bits) - 1
    row_bits = n * bits
    # repeat(x) never runs out, so one object serves every map below
    row_mask = repeat((1 << row_bits) - 1)
    later = [repeat(row_bits * i) for i in range(1, n)]   # shifts of rows 1..n-1
    lookups = [_RowTable([x % m for x in g], n, m, bits, cap // (n * len(gens))).__getitem__
               for g in gens]
    start = sum((1 % m) << (bits * (n + 1) * i) for i in range(n))
    seen = {start}
    is_seen = seen.__contains__
    order_list = [start] if keep_elements else None
    queue = deque([start])   # found but not yet multiplied
    popleft = deque.popleft
    while queue:
        batch = list(map(popleft, repeat(queue, min(CHUNK, len(queue)))))
        first = list(map(and_, batch, row_mask))
        rest = [list(map(and_, map(rshift, batch, s), row_mask)) for s in later]
        products = []
        for get in lookups:
            prod = map(get, first)
            for s, rows in zip(later, rest):
                prod = map(or_, prod, map(lshift, map(get, rows), s))
            products.append(prod)
        # each batch element's products, generator by generator; first sightings only
        new = list(dict.fromkeys(filterfalse(is_seen, chain.from_iterable(zip(*products)))))
        if new and len(seen) + len(new) > cap:
            # the size at which adding one element at a time passes the cap
            return max(cap, len(seen)) + 1, True, None
        seen.update(new)
        if order_list is not None:
            order_list += new
        queue.extend(new)
    elements = None
    if keep_elements:
        # one column of entries per map, zipped back into flat tuples
        entries = [map(and_, map(rshift, order_list, repeat(bits * i)), repeat(mask))
                   for i in range(n * n)]
        elements = list(zip(*entries))
    return len(seen), False, elements
