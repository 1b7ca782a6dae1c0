"""Breadth-first closure of a matrix group over Z/m.

It lists every element, for the callers that need the element set
(gamma_plus and unipotent_closure_subgroup, mostly at n = 2), and is the
oracle for congruence._chain_order, which counts an image without listing it.
No CLI command runs a closure, so this is the plain orbit loop (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005, §4.1) over flat tuples:
packed rows, row tables and batches paid only for the order-only closures of
millions of elements that the stabiliser chain replaced.
"""

# perfbench's provenance reads these two names; there is one engine
_native = None


def backend_name(n=2, m=2):
    return "python"


def run_closure(gens, n, m, cap, keep_elements):
    """Close the identity under right multiplication by the generators.

    gens: list of flat tuples (length n*n) of integers; products are reduced mod m.
    Returns (order, truncated, elements or None), elements as flat tuples in
    breadth-first order.  A closure that passes the cap returns truncated
    True, the order max(cap, 1) + 1 and no elements.
    """
    # imported here, so that importing this module loads nothing
    from .congruence import flat_identity, flat_mul

    found = [flat_identity(n, m)]
    seen = set(found)
    for cur in found:   # found grows while it is walked
        for g in gens:
            prod = flat_mul(cur, g, n, m)
            if prod not in seen:
                if len(seen) >= cap:   # this product would pass the cap
                    return len(seen) + 1, True, None
                seen.add(prod)
                found.append(prod)
    return len(found), False, found if keep_elements else None
