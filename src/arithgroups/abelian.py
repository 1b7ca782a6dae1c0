"""Abelian certificates: d commuting automorphisms of Q[x]/(m), checked exactly.

A certificate for a monic irreducible m of degree d is d polynomials
r_1 = x, ..., r_d of degree < d with exact rational coefficients, constant
first.  When they are pairwise distinct, m(r_j) == 0 mod m and
r_i(r_j) == r_j(r_i) mod m, the maps a -> r_j(a) are d distinct
automorphisms of K = Q(a) that commute, so K/Q is Galois with an abelian
group.  Then the conductor of K divides disc(K) (conductor-discriminant
formula), which divides disc(m), and whether an unramified prime splits
depends only on its class mod |disc(m)|; chebotarev_scan relies on that.

The check lives apart from numberfield so that a field without a
certificate compiles none of it.
"""

from itertools import combinations

from .poly import Poly
from .rings import QQ


def _compose(f, g, m):
    """f(g) mod m, for Polys over QQ."""
    acc = Poly(QQ, [])
    for c in reversed(f.coeffs):
        acc = (acc * g + Poly(QQ, [c])) % m
    return acc


def checked_automorphisms(m, automorphisms):
    """The certificate of the Poly m as d coefficient tuples, or ValueError.

    Each check is exact in Q[x]/(m): r_1 is x, every r_j has degree < d, the
    r_j are pairwise distinct, m(r_j) == 0 and r_i(r_j) == r_j(r_i) mod m.
    """
    d = m.degree
    rs = [Poly(QQ, r) for r in automorphisms]
    if len(rs) != d:
        raise ValueError(f"automorphisms: expected {d} polynomials, got {len(rs)}")
    if rs[0] != Poly(QQ, [0, 1]) % m:
        raise ValueError("automorphisms: r_1 must be x")
    for j, r in enumerate(rs, 1):
        if r.degree >= d:
            raise ValueError(f"automorphisms: r_{j} has degree {r.degree} >= {d}")
    if len(set(rs)) != d:
        raise ValueError("automorphisms: the polynomials are not pairwise distinct")
    for j, r in enumerate(rs, 1):
        if not _compose(m, r, m).is_zero():
            raise ValueError(f"automorphisms: r_{j} is not a root of the minimal polynomial")
    for i, j in combinations(range(d), 2):
        if _compose(rs[i], rs[j], m) != _compose(rs[j], rs[i], m):
            raise ValueError(f"automorphisms: r_{i + 1} and r_{j + 1} do not commute")
    return tuple(r.coeffs for r in rs)
