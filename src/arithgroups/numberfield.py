"""Number fields Q[x]/(m), splitting of rational primes, and density scans.

NumberField checks its minimal polynomial and an abelian certificate, and
is_split decides whether a rational prime splits completely: by the quadratic
character of disc(m) or the Frobenius test when p is unramified, and by the
Dedekind factorization (ideals.factor_prime) when p divides disc(m).

chebotarev_scan counts the split primes up to its bound.  Where splitting
depends only on p mod |disc(m)| and that modulus is small beside the bound,
it reads the sieve's prime counts per class and decides each class once;
otherwise it goes prime by prime.  Building a field of integer coefficients
and scanning it make no Fraction, so the nf commands do not import
fractions: the report's ratio and expected are exact "a/b" strings.

The factorization of primes in Z[alpha], its Hensel lifts and CRT check, and
element arithmetic live in ideals.py.  This module imports them only inside
the functions that use them (the irreducibility check of a polynomial no
small prime certifies, is_split at a ramified prime, and the element
constructors), so a scan does not compile that layer.
"""

from collections import namedtuple
from math import gcd, prod

from .errors import OutOfRange, ReducibleMinPoly
from .poly import Poly, discriminant, is_irreducible_mod_p, poly_str, sturm_real_root_count
from .primes import WINDOW, count_primes_by_class, iter_primes
from .rings import QQ, IntegersMod

_CERT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
# the largest chebotarev_scan bound
MAX_BOUND = 10 ** 8
# primes per batched Frobenius powering: enough to spread the interpreter's
# per-operation cost; scan time was flat from 16 to 48
FROBENIUS_BATCH = 32


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
        from .ideals import _integer_factor

        factor = _integer_factor(self)
        if factor is None:
            return
        if factor.degree == 1:
            raise ReducibleMinPoly(f"rational root {-factor.coeffs[0]}")
        raise ReducibleMinPoly(f"factor {poly_str(factor)}")

    def element(self, coords):
        from .ideals import NFElement

        return NFElement(self, coords)

    def one(self):
        from .ideals import NFElement

        return NFElement(self, [1] + [0] * (self.degree - 1))

    def gen(self):
        """The class of x (a root of the minimal polynomial)."""
        from .ideals import NFElement

        if self.degree == 1:
            return NFElement(self, [QQ.canon(-self.min_poly.coeffs[0])])
        return NFElement(self, [0, 1] + [0] * (self.degree - 2))

    def __repr__(self):
        return f"NumberField({self.name}, deg {self.degree})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.min_poly == self.min_poly

    def __hash__(self):
        return hash(self.min_poly)


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
    from .ideals import factor_prime

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
