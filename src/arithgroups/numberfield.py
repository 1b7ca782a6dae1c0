"""Number fields Q[x]/(m), splitting of rational primes, and density scans.

Prime factorization works through the order Z[alpha].  At primes whose square
divides disc(m) the result can differ from the true splitting in the maximal
order, so factorizations carry a `verified` flag: true when p does not divide
disc(m) or when the caller asserted that the power basis is maximal.

chebotarev_scan counts the split primes up to its bound.  Where splitting
depends only on p mod |disc(m)| and that modulus is small beside the bound,
it reads the sieve's prime counts per class and decides each class once;
otherwise it goes prime by prime.  Building a field of integer coefficients
and scanning it make no Fraction, so the nf commands do not import
fractions: the report's ratio and expected are exact "a/b" strings.
"""

from collections import namedtuple
from itertools import combinations, count, product
from math import comb, gcd, isqrt, prod

from .errors import DivisionByZero, OutOfRange, ReducibleMinPoly, Unverified
from .poly import (
    Poly,
    discriminant,
    factor_poly_mod_p,
    is_irreducible_mod_p,
    poly_str,
    poly_xgcd,
    sturm_real_root_count,
)
from .primes import WINDOW, count_primes_by_class, is_prime, iter_primes
from .rings import QQ, ExtField, IntegersMod

_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
# the largest chebotarev_scan bound
MAX_BOUND = 10 ** 8
# primes per batched Frobenius powering: enough to spread the interpreter's
# per-operation cost; scan time was flat from 16 to 48
FROBENIUS_BATCH = 32
# crt_check enumerates at most this many residue vectors
CRT_ENUMERATION_CAP = 2 * 10 ** 6


class NumberField:
    """Q[x]/(m) for a monic irreducible integer polynomial m.

    galois is a user claim, and sets only a scan's sample_only flag.
    automorphisms, when given, is an abelian certificate: d polynomials
    r_1 = x, ..., r_d of degree < d, as exact rational coefficients, constant
    first, that give d commuting automorphisms x -> r_j(x) (see abelian.py).
    It is checked exactly in Q[x]/(m) here, and one that fails raises
    ValueError.  chebotarev_scan decides splitting once per residue class
    mod |disc(m)| for a certified field.
    """

    def __init__(self, coeffs, name=None, galois=False, power_basis_maximal=False,
                 automorphisms=None):
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
        self.name = name or "Q[x]/(" + poly_str(m) + ")"
        self.galois = galois
        self.power_basis_maximal = power_basis_maximal
        self._check_irreducible()
        self.automorphisms = automorphisms
        if automorphisms is not None:
            from .abelian import checked_automorphisms

            self.automorphisms = checked_automorphisms(m, automorphisms)
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
        if m.coeffs[0] == 0:
            raise ReducibleMinPoly("x divides the minimal polynomial")
        # one Hensel lift finds the rational roots (monic: integers) and every
        # other factor; up to degree 3 a reducible m has a root
        factor = _integer_factor(self)
        if factor is None:
            return
        if factor.degree == 1:
            raise ReducibleMinPoly(f"rational root {-factor.coeffs[0]}")
        raise ReducibleMinPoly(f"factor {poly_str(factor)}")

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

    disc(m) is 0 or 1 mod 4, so (disc(m)/.) is a Dirichlet character mod
    |disc(m)|: the answer for odd p depends only on p mod |disc(m)|, and
    chebotarev_scan asks once per class.
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
    completely.  The primes share one batched powering per FROBENIUS_BATCH
    of them.
    """
    m = K.min_poly.coeffs
    x = [0, 1] + [0] * (K.degree - 2)
    residues = [r for i in range(0, len(primes), FROBENIUS_BATCH)
                for r in _frobenius_residues(m, primes[i : i + FROBENIUS_BATCH])]
    return [r == ([-m[0] % p] if K.degree == 1 else x) for p, r in zip(primes, residues)]


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


# the entries of _split_per_prime's class table; 0 is a class not yet asked
_CLASS_OF_VERDICT = {False: 1, True: 2, None: 3}
_VERDICT_OF_CLASS = (None, False, True, None)


class ChebotarevReport(namedtuple(
        "ChebotarevReport", "field bound split total ratio expected sample_only")):
    """ratio and expected are exact fractions "a/b" in lowest terms; "0/1" is the ratio of an empty scan."""

    __slots__ = ()


def chebotarev_scan(K, bound):
    """Count completely split primes p <= bound with p not dividing disc(m).

    The limiting ratio 1/d is a theorem only for Galois fields; scans over
    fields not flagged Galois are marked sample_only.  A bound above
    MAX_BOUND raises OutOfRange before any sieving.

    A field of degree <= 2 is abelian, and so is one with an abelian
    certificate (see NumberField).  An abelian K has its conductor f
    dividing disc(K) (conductor-discriminant formula), and disc(K) divides
    disc(m), so whether an unramified p splits depends only on p mod
    |disc(m)|.  Such a field is scanned class by class (see _split_by_class)
    when that costs less than the per-prime loop (see _split_per_prime),
    which scans every other field.  The count hands _frobenius_residues the
    least prime of each open class, the loop every open prime, ascending.
    """
    if bound > MAX_BOUND:
        raise OutOfRange(f"bound must be <= 10^8, got {bound}")
    split, total = (_split_by_class if _counts_by_class(K, bound) else _split_per_prime)(K, bound)
    g = gcd(split, total)
    return ChebotarevReport(
        field=K.name,
        bound=bound,
        split=split,
        total=total,
        ratio=f"{split // g}/{total // g}" if total else "0/1",
        expected=f"1/{K.degree}",
        sample_only=not K.galois,
    )


def _counts_by_class(K, bound):
    """Whether chebotarev_scan takes K's primes <= bound class by class.

    A certified field's open classes take the Frobenius test once each
    where the loop tests every open prime.  So such a field is counted by
    class once the bound reaches |disc(m)| (below it no class holds two
    primes, both regimes test the same primes, and the loop costs less),
    and while |disc(m)| <= WINDOW keeps the count's lists at most one
    window long.  A field of degree <= 2 opens no class but 2's, so there
    the regimes differ only in reading the sieve.  Over w windows and
    M = min(|disc(m)|, bound) classes, the count costs about 0.4 loop steps
    per strided slice, w * M of them, and 0.7 per class for its
    bookkeeping; the loop costs one step per prime, about bound / ln(bound)
    of them, and bound.bit_length() / 1.44 is about ln(bound).  These two
    weights were fitted to timings on quadratic fields, also in README.
    """
    modulus = abs(K.disc)
    if K.degree > 2:
        return K.automorphisms is not None and modulus <= min(bound, WINDOW)
    return min(modulus, bound) * (4 * -(-bound // WINDOW) + 7) * bound.bit_length() <= 14 * bound


def _split_by_class(K, bound):
    """chebotarev_scan's (split, total) from the prime counts per class mod |disc(m)|.

    For an abelian K.  Only the least prime of each class is made an int.
    A class holding a prime that divides disc(m) holds only that prime, and
    is skipped.  The verdict at the least prime of a class, 2 included, is
    the class's: the character's where it speaks, and otherwise the
    Frobenius test's, which the least primes of the open classes take
    together, ascending.
    """
    split = total = 0
    opened = []  # (least prime, primes in its class) where the character is silent
    for p, n in count_primes_by_class(bound, abs(K.disc)):
        if K.disc % p:
            total += n
            verdict = _split_by_character(K, p)
            if verdict is None:
                opened.append((p, n))
            else:
                split += verdict * n
    verdicts = _split_by_frobenius(K, [p for p, _ in opened])
    return split + sum(n for (_, n), s in zip(opened, verdicts) if s), total


def _split_per_prime(K, bound):
    """chebotarev_scan's (split, total), streaming the primes from the sieve.

    When |disc(m)| <= WINDOW, the sieve's width, a table of one byte per
    class mod |disc(m)| holds the quadratic character's verdict, asked once
    per class; otherwise the character is asked once per prime.  So memory
    stays at one window, one table of at most WINDOW bytes and one batch.
    Every prime the character leaves open takes the Frobenius test.
    """
    disc = K.disc
    modulus = abs(disc)
    classes = bytearray(modulus) if modulus <= WINDOW else None
    split = 0
    total = 0
    pending = []  # primes the character leaves open, tested FROBENIUS_BATCH at a time
    for p in iter_primes(bound):
        if disc % p == 0:
            continue
        total += 1
        # the character does not speak for 2, though its class mod |disc| may
        # hold odd primes it speaks for
        if classes is None or p == 2:
            verdict = _split_by_character(K, p)
        else:
            c = p % modulus
            if not classes[c]:
                classes[c] = _CLASS_OF_VERDICT[_split_by_character(K, p)]
            verdict = _VERDICT_OF_CLASS[classes[c]]
        if verdict is not None:
            split += verdict
            continue
        pending.append(p)
        if len(pending) == FROBENIUS_BATCH:
            split += sum(_split_by_frobenius(K, pending))
            pending = []
    if pending:
        split += sum(_split_by_frobenius(K, pending))
    return split, total


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
