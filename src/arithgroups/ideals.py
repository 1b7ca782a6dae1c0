"""Prime ideals of Z[alpha], and arithmetic in the number field.

factor_prime reads the splitting of a rational prime p off the factors of m
mod p (Dedekind).  At primes whose square divides disc(m) the result can
differ from the true splitting in the maximal order, so factorizations carry
a `verified` flag: true when p does not divide disc(m) or when the caller
asserted that the power basis is maximal.  residue_field presents a prime's
residue field, as an ExtField F_p[x]/(g) when its degree is above 1.

The factors of m mod p lift to a coprime factorization mod p^n (Hensel).
crt_check checks exhaustively that Z[alpha]/(p^n) is the product of the
rings they cut out, and _integer_factor finds an integer factor of a
reducible m among products of the lifts, for NumberField's irreducibility
check.  NFElement is an element of the field in the power basis, with its
product, inverse and regular representation.

numberfield imports this module only inside the functions that use it, so a
Chebotarev scan does not compile it.
"""

from collections import namedtuple
from itertools import combinations, count, product
from math import comb, isqrt, prod

from .errors import DivisionByZero, NotInvertible, Unverified
from .poly import Poly, factor_poly_mod_p, poly_xgcd
from .primes import is_prime
from .rings import QQ, IntegersMod

# crt_check enumerates at most this many residue vectors
CRT_ENUMERATION_CAP = 2 * 10 ** 6


class PrimeIdealFactor(namedtuple("PrimeIdealFactor", ["p", "e", "f", "factor_poly", "verified"])):
    """A prime above p with ramification e, residue degree f and its factor Poly of m mod p."""

    __slots__ = ()


class IdealFactorization(namedtuple("IdealFactorization", ["p", "factors"])):
    __slots__ = ()

    @property
    def verified(self):
        return all(f.verified for f in self.factors)


def factor_prime(K, p):
    """Dedekind splitting data of (p) read off from m mod p."""
    ring = IntegersMod(p)
    if not ring.is_field:
        raise ValueError(f"{p} is not prime")
    verified = (K.disc % p != 0) or K.power_basis_maximal
    mbar = Poly(ring, K.min_poly.coeffs)
    factors = tuple(
        PrimeIdealFactor(p=p, e=mult, f=g.degree, factor_poly=g, verified=verified)
        for g, mult in factor_poly_mod_p(mbar)
    )
    assert sum(f.e * f.f for f in factors) == K.degree
    return IdealFactorization(p=p, factors=factors)


def residue_field(factor):
    """O/p as an explicit finite field F_{p^f} = F_p[x]/(factor_poly)."""
    if factor.f == 1:
        return IntegersMod(factor.p)
    return ExtField(factor.p, factor.factor_poly.coeffs)


class ExtField:
    """F_{p^f} presented as F_p[x]/(g) with g monic irreducible of degree f.

    Elements are coefficient tuples of length f (constant term first).
    Irreducibility of g is the caller's responsibility; residue fields built
    from a prime-ideal factor satisfy it by construction.
    """

    is_field = True

    def __init__(self, p, modulus):
        self.p = p
        mod = tuple(c % p for c in modulus)
        while mod and mod[-1] == 0:
            mod = mod[:-1]
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = mod
        self.f = len(mod) - 1
        self.zero = (0,) * self.f
        self.one = tuple([1 % p] + [0] * (self.f - 1))

    def size(self):
        return self.p ** self.f

    def canon(self, x):
        if isinstance(x, int):
            return tuple([x % self.p] + [0] * (self.f - 1))
        x = tuple(c % self.p for c in x)
        if len(x) < self.f:
            x = x + (0,) * (self.f - len(x))
        elif len(x) > self.f:
            x = self._reduce(x)
        return x

    def _reduce(self, coeffs):
        cs = list(coeffs)
        p, mod, f = self.p, self.modulus, self.f
        for i in range(len(cs) - 1, f - 1, -1):
            c = cs[i] % p
            if c:
                for j in range(f + 1):
                    cs[i - f + j] = (cs[i - f + j] - c * mod[j]) % p
        return tuple(c % p for c in cs[:f])

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        out = [0] * (2 * self.f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % self.p
        return self._reduce(tuple(out))

    def inv(self, a):
        if all(c == 0 for c in a):
            raise NotInvertible("0 has no inverse")
        ring = IntegersMod(self.p)
        _, s, _ = poly_xgcd(Poly(ring, a), Poly(ring, self.modulus))
        return self.canon(s.coeffs)

    def is_unit(self, a):
        return any(c % self.p for c in a)

    def elements(self):
        """All p^f elements, lexicographic by coefficient tuple."""
        return [tuple(t) for t in product(range(self.p), repeat=self.f)]

    def __repr__(self):
        return f"GF({self.p}^{self.f})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))


def _hensel_lift_pair(m_coeffs, a_coeffs, b_coeffs, p, target):
    """Lift m = a*b (mod p), gcd(a,b)=1, to a factorization mod target, a power of p.

    All polynomials monic, coefficients plain ints; returns (A, B) coefficient
    lists with m = A*B mod target, A = a mod p, B = b mod p.  The Bezout pair
    s*A + t*B = 1 is lifted with the factors, so each step squares the
    modulus (quadratic Hensel lifting).  Monic lifts are unique, so A and B
    do not depend on how the modulus grows.
    """
    ring = IntegersMod(p)
    ga, sa, ta = poly_xgcd(Poly(ring, a_coeffs), Poly(ring, b_coeffs))
    assert ga.degree == 0
    s = [int(c) for c in sa.coeffs]
    t = [int(c) for c in ta.coeffs]
    A, B = list(a_coeffs), list(b_coeffs)
    mod = p
    while mod < target:
        mod = min(mod * mod, target)
        ringk = IntegersMod(mod)
        Pm = Poly(ringk, m_coeffs)
        PA, PB = Poly(ringk, A), Poly(ringk, B)
        Ps, Pt = Poly(ringk, s), Poly(ringk, t)
        delta = Pm - PA * PB
        # correction: A += t*delta mod A ; B += s*delta mod B, exact to mod
        # while s*A + t*B = 1 holds to its square root
        PA = PA + (Pt * delta) % PA
        PB = PB + (Ps * delta) % PB
        A = _pad([int(c) for c in PA.coeffs], len(A))
        B = _pad([int(c) for c in PB.coeffs], len(B))
        if mod < target:
            # Newton step: s*A + t*B = 1 + e becomes 1 - e^2 with s, t scaled by 1 - e
            e = Ps * PA + Pt * PB - Poly(ringk, [1])
            s = [int(c) for c in ((Ps - Ps * e) % PB).coeffs]
            t = [int(c) for c in ((Pt - Pt * e) % PA).coeffs]
    return A, B


def _lift_factor_system(K, p, n):
    """Coprime factor lifts H_i of m mod p^n with H_i = g_i^{e_i} mod p."""
    fac = factor_prime(K, p)
    target = p ** n
    pieces = []
    for f in fac.factors:
        ge = Poly(IntegersMod(p), [1])
        for _ in range(f.e):
            ge = ge * f.factor_poly
        pieces.append([int(c) for c in ge.coeffs])
    m_coeffs = [int(c) for c in K.min_poly.coeffs]
    lifted = []
    rest = m_coeffs
    for i, piece in enumerate(pieces):
        if i == len(pieces) - 1:
            lifted.append([c % target for c in rest])
            break
        others = Poly(IntegersMod(p), [1])
        for q in pieces[i + 1 :]:
            others = others * Poly(IntegersMod(p), q)
        A, B = _hensel_lift_pair(rest, piece, [int(c) for c in others.coeffs], p, target)
        lifted.append(A)
        rest = B
    return fac, lifted


def _integer_factor(K):
    """A monic integer factor of m = K.min_poly of degree 1 .. d/2, or None.

    Take the least prime p not dividing disc(m), so m mod p is squarefree.
    A monic integer factor g of m reduces mod p to the product of some of
    m's irreducible factors mod p, so g is congruent mod p^n to the product
    of their Hensel lifts.  By Mignotte's bound each coefficient of g has
    |g_j| <= C(k, j) * ||m||_2 for k = deg g <= d/2; once p^n is past twice
    that, g is the symmetric residue of one product.  So trying the products
    of degree at most d/2 finds a factor exactly when m is reducible.

    The lines come first: an integer root r divides m(0), so |r| <= ||m||_2
    and x - r is the symmetric residue of one linear lifted factor.  When m
    has integer roots, x - r for the least root r is returned.
    """
    m = K.min_poly
    half = K.degree // 2
    p = next(q for q in count(2) if K.disc % q and is_prime(q))
    bound = comb(half, half // 2) * (isqrt(sum(c * c for c in m.coeffs)) + 1)
    n = 1
    while p ** n <= 2 * bound:
        n += 1
    mod = p ** n
    ring = IntegersMod(mod)
    _, lifted = _lift_factor_system(K, p, n)
    lifted = [Poly(ring, h) for h in lifted]

    def symmetric(g):
        return Poly(QQ, [c - mod if c > mod // 2 else c for c in map(int, g.coeffs)])

    roots = [r for r in (-symmetric(h).coeffs[0] for h in lifted if h.degree == 1)
             if m.eval(r) == 0]
    if roots:
        return Poly(QQ, [-min(roots), 1])
    for size in range(1, len(lifted)):
        for subset in combinations(lifted, size):
            if sum(h.degree for h in subset) > half:
                continue
            g = symmetric(prod(subset[1:], start=subset[0]))
            if (m % g).is_zero():
                return g
    return None


class CrtReport(namedtuple("CrtReport", ["p", "n", "total_size", "component_sizes", "bijective"])):
    __slots__ = ()


def crt_check(K, p, n):
    """Exhaustively verify Z[alpha]/(p^n) = product of its component rings.

    Enumerates all p^(n*d) residue vectors, maps each to its tuple of images
    mod (p^n, H_i) for the lifted coprime factors H_i, and checks the map is
    a bijection onto the product.  Requires a verified factorization.
    """
    if n == 0:
        return CrtReport(p=p, n=0, total_size=1, component_sizes=(), bijective=True)
    fac = factor_prime(K, p)
    if not fac.verified:
        raise Unverified(
            f"factorization of {p} is not verified for {K.name}; "
            "assert power_basis_maximal to proceed"
        )
    d = K.degree
    size = p ** (n * d)
    if n * d > 16 or size > CRT_ENUMERATION_CAP:
        raise ValueError(f"enumeration of {size} residues is out of desk range")
    _, lifted = _lift_factor_system(K, p, n)
    mod = p ** n
    ring = IntegersMod(mod)
    comps = [Poly(ring, h) for h in lifted]
    comp_sizes = tuple(mod ** h.degree for h in comps)
    assert all(
        h.degree == f.e * f.f for h, f in zip(comps, fac.factors)
    )

    seen = set()
    count = 0
    for vec in product(range(mod), repeat=d):
        fpoly = Poly(ring, vec)
        image = tuple(tuple(_pad([int(c) for c in (fpoly % h).coeffs], h.degree)) for h in comps)
        seen.add(image)
        count += 1
    bijective = (count == size) and (len(seen) == size) and (prod(comp_sizes) == size)
    return CrtReport(
        p=p,
        n=n,
        total_size=size,
        component_sizes=comp_sizes,
        bijective=bijective,
    )


class NFElement:
    """Coordinate vector in the power basis 1, a, ..., a^(d-1)."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = [QQ.canon(c) for c in coords]
        if len(coords) != field.degree:
            raise ValueError(f"expected {field.degree} coordinates")
        self.field = field
        self.coords = tuple(coords)

    def poly(self):
        return Poly(QQ, self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, NFElement)
            and other.field == self.field
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"NFElement({self.coords})"

    def __add__(self, other):
        return NFElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return NFElement(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return NFElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, NFElement):
            return nf_mul(self, other)
        return NFElement(self.field, [other * c for c in self.coords])

    __rmul__ = __mul__


def _pad(coeffs, d):
    return list(coeffs) + [0] * (d - len(coeffs))


def nf_mul(a, b):
    """Product in the field: polynomial product reduced mod the minimal poly."""
    K = a.field
    prod = (a.poly() * b.poly()) % K.min_poly
    return NFElement(K, _pad(prod.coeffs, K.degree))


def nf_inverse(a):
    """Multiplicative inverse via the extended Euclidean algorithm."""
    if a.is_zero():
        raise DivisionByZero("inverse of zero in a number field")
    K = a.field
    g, s, _ = poly_xgcd(a.poly(), K.min_poly)
    if g.degree != 0:
        # cannot happen for an irreducible minimal polynomial
        raise DivisionByZero("element shares a factor with the minimal polynomial")
    u = (s % K.min_poly).scale(QQ.inv(g.coeffs[0]))
    return NFElement(K, _pad(u.coeffs, K.degree))


def regular_representation(h):
    """Matrix of multiplication by h in the power basis (columns are h*a^j)."""
    from .matrix import Mat

    K = h.field
    d = K.degree
    cols = []
    cur = h
    alpha = K.gen()
    for _ in range(d):
        cols.append(cur.coords)
        cur = nf_mul(cur, alpha)
    return Mat(QQ, [[cols[j][i] for j in range(d)] for i in range(d)])
