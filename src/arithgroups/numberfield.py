"""Number fields Q[x]/(m), splitting of rational primes, and density scans.

Prime factorization works through the order Z[alpha].  At primes whose square
divides disc(m) the result can differ from the true splitting in the maximal
order, so factorizations carry a `verified` flag: true when p does not divide
disc(m) or when the caller asserted that the power basis is maximal.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import prod

from .errors import DivisionByZero, OutOfRange, ReducibleMinPoly, Unverified
from .matrix import Mat
from .poly import (
    Poly,
    discriminant,
    factor_poly_mod_p,
    is_irreducible_mod_p,
    poly_gcd,
    poly_xgcd,
    sturm_real_root_count,
)
from .primes import is_prime, iter_primes
from .rings import QQ, ExtField, IntegersMod

_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
# the largest chebotarev_scan bound
MAX_BOUND = 10 ** 8
# primes per batched Frobenius powering: enough to spread the interpreter's
# per-operation cost; scan time was flat from 16 to 48
FROBENIUS_BATCH = 32


class NumberField:
    """Q[x]/(m) for a monic irreducible integer polynomial m."""

    def __init__(self, coeffs, name=None, galois=False, power_basis_maximal=False):
        m = Poly(QQ, coeffs)
        if m.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if any(not isinstance(c, int) for c in m.coeffs):
            raise ValueError("minimal polynomial must have integer coefficients")
        if m.lead() != 1:
            raise ValueError("minimal polynomial must be monic")
        self.min_poly = m
        self.degree = m.degree
        self.disc = int(discriminant(m))
        if self.disc == 0:
            raise ReducibleMinPoly("zero discriminant: repeated root")
        self.name = name or "Q[x]/(" + _poly_str(m) + ")"
        self.galois = galois
        self.power_basis_maximal = power_basis_maximal
        self._check_irreducible()
        s = sturm_real_root_count(m)
        self.signature = (s, (self.degree - s) // 2)

    def _check_irreducible(self):
        m = self.min_poly
        if m.degree == 1:
            return
        # an irreducible reduction of monic m mod any good prime certifies
        # irreducibility; tried first, as it is cheaper than the root search
        for p in _CERT_PRIMES:
            if self.disc % p == 0:
                continue
            ring = IntegersMod(p)
            if is_irreducible_mod_p(Poly(ring, m.coeffs)):
                return
        # rational root test (monic: every rational root is an integer)
        if m.coeffs[0] == 0:
            raise ReducibleMinPoly("x divides the minimal polynomial")
        roots = _integer_roots(m, self.disc)
        if roots:
            raise ReducibleMinPoly(f"rational root {roots[0]}")
        if m.degree <= 3:
            return  # no rational root proves irreducibility up to degree 3
        raise ReducibleMinPoly(
            "no irreducibility certificate found mod "
            + ",".join(str(p) for p in _CERT_PRIMES)
        )

    def element(self, coords):
        return NFElement(self, coords)

    def one(self):
        return NFElement(self, [1] + [0] * (self.degree - 1))

    def gen(self):
        """The class of x (a root of the minimal polynomial)."""
        if self.degree == 1:
            return NFElement(self, [QQ.canon(-self.min_poly.coeffs[0])])
        return NFElement(self, [0, 1] + [0] * (self.degree - 2))

    def __repr__(self):
        return f"NumberField({self.name}, deg {self.degree})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.min_poly == self.min_poly

    def __hash__(self):
        return hash(self.min_poly)


def _integer_roots(m, disc):
    """The integer roots, ascending, of a monic integer Poly m with disc(m) != 0.

    Modulo the least prime p not dividing disc every root is simple, so each
    lifts uniquely by Newton's method to p^k > 2 * (1 + max |c_i|), which is
    past twice Cauchy's bound on |root|.  Every integer root is then the
    symmetric residue of one lift, so the time is polynomial in the size of
    the coefficients.
    """
    from .padics import hensel_lift

    p = next(q for q in count(2) if disc % q and is_prime(q))
    bound = 1 + max(abs(c) for c in m.coeffs[:-1])
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    mod = p ** k
    roots = []
    for a in range(p):
        if m.eval(a) % p == 0:
            r = hensel_lift(m.coeffs, a, p, k)
            r = r - mod if r > mod // 2 else r
            if m.eval(r) == 0:
                roots.append(r)
    return sorted(roots)


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
    K = h.field
    d = K.degree
    cols = []
    cur = h
    alpha = K.gen()
    for _ in range(d):
        cols.append(cur.coords)
        cur = nf_mul(cur, alpha)
    return Mat(QQ, [[cols[j][i] for j in range(d)] for i in range(d)])


@dataclass(frozen=True)
class PrimeIdealFactor:
    p: int
    e: int
    f: int
    factor_poly: Poly
    verified: bool


@dataclass(frozen=True)
class IdealFactorization:
    p: int
    factors: tuple

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


def _frobenius_residues(m, primes):
    """For each of the distinct primes p, x^p mod (m, p) as d ints in [0, p).

    m is the integer coefficient tuple (constant first) of a monic polynomial
    of degree d >= 1.  One left-to-right square and multiply runs on plain
    ints mod N = prod(primes), and by CRT each residue read back mod p is the
    one-prime result.  Step j squares r, folding x^d .. x^(2d-2) back through
    a table of those powers mod (m, N), then multiplies r by
    (1 - E_j) + E_j x, where E_j sums the CRT idempotents of the primes whose
    bit j is set.  Mod p that factor is x when bit j of p is set and 1
    otherwise, so primes of any bit length share one walk from r = 1.
    """
    d = len(m) - 1
    N = prod(primes)
    neg = [-c % N for c in m[:d]]  # x^d == neg (mod m, N)
    high = [neg]  # high[k] = x^(d+k) mod (m, N)
    for _ in range(d - 2):
        top = high[-1][-1]
        high.append([top * neg[0] % N] + [(c + top * n) % N for c, n in zip(high[-1], neg[1:])])
    steps = [0] * max(primes).bit_length()  # steps[j] = E_j
    for p in primes:
        q = N // p
        idempotent = q * pow(q, -1, p)  # 1 mod p, 0 mod the other primes
        for j in range(p.bit_length()):
            if p >> j & 1:
                steps[j] += idempotent
    r = [1] + [0] * (d - 1)
    for e in reversed(steps):
        sq = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r):
                    sq[i + j] += a * b
        r = sq[:d]
        for c, row in zip(sq[d:], high):
            if c:
                r = [u + c * v for u, v in zip(r, row)]
        r = [c % N for c in r]
        e %= N
        if e:
            top = r[-1]
            xr = [top * neg[0]] + [c + top * n for c, n in zip(r, neg[1:])]
            r = [(u + e * (v - u)) % N for u, v in zip(r, xr)]
    return [[c % p for c in r] for p in primes]


def _split_by_character(K, p):
    """Whether an unramified p splits completely, or None when left open.

    For odd p not dividing disc(m), Stickelberger's theorem gives
    (disc(m)/p) = (-1)^(d - r), with r the number of irreducible factors of
    m mod p.  Complete splitting needs r = d, so a non-square disc(m) mod p
    proves p not split, and at d <= 2 a square proves it split.  The primes
    this leaves open, and p = 2, need the Frobenius test.
    """
    if p == 2:
        return None
    # K.disc is an int, so the three-argument pow applies
    if pow(K.disc % p, (p - 1) // 2, p) != 1:
        return False
    return True if K.degree <= 2 else None


def _split_by_frobenius(K, primes):
    """For each unramified prime p, whether x^p == x (mod m, p).

    That holds exactly when m divides x^p - x mod p, i.e. when p splits
    completely.  All the primes share one batched powering.
    """
    m = K.min_poly.coeffs
    x = [0, 1] + [0] * (K.degree - 2)
    return [r == ([-m[0] % p] if K.degree == 1 else x)
            for p, r in zip(primes, _frobenius_residues(m, primes))]


def is_split(K, p):
    """True when (p) splits completely: d distinct factors with e = f = 1.

    An unramified p is decided by the quadratic character of disc(m) where
    it can be, and by the Frobenius test otherwise; a p dividing disc(m)
    reads the Dedekind factorization.
    """
    if K.disc % p != 0:
        split = _split_by_character(K, p)
        return _split_by_frobenius(K, [p])[0] if split is None else split
    fac = factor_prime(K, p)
    return len(fac.factors) == K.degree and all(
        f.e == 1 and f.f == 1 for f in fac.factors
    )


@dataclass(frozen=True)
class ChebotarevReport:
    field: str
    bound: int
    split: int
    total: int
    ratio: Fraction
    expected: Fraction
    sample_only: bool


def chebotarev_scan(K, bound):
    """Count completely split primes p <= bound with p not dividing disc(m).

    The limiting ratio 1/d is a theorem only for Galois fields; scans over
    fields not flagged Galois are marked sample_only.  The primes are
    streamed from the sieve, and those the quadratic character leaves open
    share one Frobenius powering per batch.  A bound above MAX_BOUND raises
    OutOfRange before any sieving.
    """
    if bound > MAX_BOUND:
        raise OutOfRange(f"bound must be <= 10^8, got {bound}")
    split = 0
    total = 0
    pending = []  # primes the character leaves open, tested FROBENIUS_BATCH at a time
    for p in iter_primes(bound):
        if K.disc % p == 0:
            continue
        total += 1
        verdict = _split_by_character(K, p)
        if verdict is not None:
            split += verdict
            continue
        pending.append(p)
        if len(pending) == FROBENIUS_BATCH:
            split += sum(_split_by_frobenius(K, pending))
            pending = []
    if pending:
        split += sum(_split_by_frobenius(K, pending))
    ratio = Fraction(split, total) if total else Fraction(0)
    return ChebotarevReport(
        field=K.name,
        bound=bound,
        split=split,
        total=total,
        ratio=ratio,
        expected=Fraction(1, K.degree),
        sample_only=not K.galois,
    )


def residue_field(factor):
    """O/p as an explicit finite field F_{p^f} = F_p[x]/(factor_poly)."""
    if factor.f == 1:
        return IntegersMod(factor.p)
    return ExtField(factor.p, factor.factor_poly.coeffs)


def _hensel_lift_pair(m_coeffs, a_coeffs, b_coeffs, p, target):
    """Lift m = a*b (mod p), gcd(a,b)=1, to a factorization mod p^target.

    All polynomials monic, coefficients plain ints; returns (A, B) coefficient
    lists with m = A*B mod p^target, A = a mod p, B = b mod p.
    """
    ring = IntegersMod(p)
    ga, sa, ta = poly_xgcd(Poly(ring, a_coeffs), Poly(ring, b_coeffs))
    assert ga.degree == 0
    s = [int(c) for c in sa.coeffs]
    t = [int(c) for c in ta.coeffs]
    A, B = list(a_coeffs), list(b_coeffs)
    mod = p
    while mod < target:
        mod *= p
        ringk = IntegersMod(mod)
        Pm = Poly(ringk, m_coeffs)
        PA, PB = Poly(ringk, A), Poly(ringk, B)
        Ps, Pt = Poly(ringk, s), Poly(ringk, t)
        delta = Pm - PA * PB
        # correction: A += t*delta mod A ; B += s*delta mod B (classic step)
        dA = (Pt * delta) % PA
        dB = (Ps * delta) % PB
        A = _pad([int(c) for c in (PA + dA).coeffs], len(A))
        B = _pad([int(c) for c in (PB + dB).coeffs], len(B))
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


@dataclass(frozen=True)
class CrtReport:
    p: int
    n: int
    total_size: int
    component_sizes: tuple
    bijective: bool


def crt_check(K, p, n, enumeration_cap=2 * 10 ** 6):
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
    if n * d > 16 or size > enumeration_cap:
        raise ValueError(f"enumeration of {size} residues is out of desk range")
    _, lifted = _lift_factor_system(K, p, n)
    mod = p ** n
    ring = IntegersMod(mod)
    comps = [Poly(ring, h) for h in lifted]
    comp_sizes = tuple(mod ** h.degree for h in comps)
    assert all(
        h.degree == f.e * f.f for h, f in zip(comps, fac.factors)
    )

    from itertools import product as iproduct

    seen = set()
    count = 0
    for vec in iproduct(range(mod), repeat=d):
        fpoly = Poly(ring, vec)
        image = tuple(tuple(_pad([int(c) for c in (fpoly % h).coeffs], h.degree)) for h in comps)
        seen.add(image)
        count += 1
    product_size = 1
    for s in comp_sizes:
        product_size *= s
    bijective = (count == size) and (len(seen) == size) and (product_size == size)
    return CrtReport(
        p=p,
        n=n,
        total_size=size,
        component_sizes=comp_sizes,
        bijective=bijective,
    )


def _poly_str(f):
    terms = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}x" if c != 1 else "x")
        else:
            terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(reversed(terms)) if terms else "0"
