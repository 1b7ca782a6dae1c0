"""Dense univariate polynomials over Q, Z/m, or an extension field.

Coefficients are stored constant term first with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  Factorization over F_p uses
distinct-degree plus equal-degree splitting with a deterministic candidate
sequence, so identical inputs always factor identically.  The resultant and
the Sturm chain of rational polynomials are computed over Z by
pseudo-remainders, so integer polynomials make no Fraction there.
"""

from math import gcd

from .errors import NonSquarefree
from .rings import QQ, IntegersMod, integral, rational


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = [ring.canon(c) for c in coeffs]
        while cs and cs[-1] == ring.zero:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"Poly({self.ring}, {list(self.coeffs)})"

    def __add__(self, other):
        r = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [r.zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [r.zero] * (n - len(other.coeffs))
        return Poly(r, [r.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other):
        r = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [r.zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [r.zero] * (n - len(other.coeffs))
        return Poly(r, [r.sub(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.ring, [self.ring.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        r = self.ring
        if self.is_zero() or other.is_zero():
            return Poly(r, [])
        out = [r.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x == r.zero:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = r.add(out[i + j], r.mul(x, y))
        return Poly(r, out)

    def scale(self, c):
        r = self.ring
        return Poly(r, [r.mul(c, x) for x in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ring.inv(self.lead()))

    def divmod(self, other):
        """Quotient and remainder; the divisor's lead must be a unit."""
        r = self.ring
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dlead_inv = r.inv(other.lead())
        rem = list(self.coeffs)
        dd = other.degree
        q = [r.zero] * max(1, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            while rem and rem[-1] == r.zero:
                rem.pop()
            if len(rem) - 1 < dd or not rem:
                break
            shift = len(rem) - 1 - dd
            c = r.mul(rem[-1], dlead_inv)
            q[shift] = c
            for i, d in enumerate(other.coeffs):
                rem[shift + i] = r.sub(rem[shift + i], r.mul(c, d))
        return Poly(r, q), Poly(r, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def pow_mod(self, e, modulus):
        """self**e mod modulus by square and multiply."""
        r = self.ring
        result = Poly(r, [r.one])
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def eval(self, x):
        r = self.ring
        acc = r.zero
        for c in reversed(self.coeffs):
            acc = r.add(r.mul(acc, x), c)
        return acc

    def derivative(self):
        r = self.ring
        return Poly(r, [r.mul(r.canon(i), c) for i, c in enumerate(self.coeffs)][1:])

    def compose_xp(self, p):
        """For f = sum a_i x^(p*i) return sum a_i x^i (p-th root over F_p)."""
        return Poly(self.ring, list(self.coeffs[::p]))


def poly_gcd(a, b):
    """Monic gcd over a field; gcd with zero is the other argument made monic."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic, over a field."""
    r = a.ring
    one, zero = Poly(r, [r.one]), Poly(r, [])
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = r.inv(r0.lead())
    return r0.monic(), s0.scale(c), t0.scale(c)


def _sqf_decomposition(f, p):
    """Squarefree decomposition over F_p; list of (squarefree monic, mult)."""
    r = f.ring
    out = []
    if f.degree < 1:
        return out
    fprime = f.derivative()
    if fprime.is_zero():
        # f = g(x^p) = (root g)^p
        for piece, mult in _sqf_decomposition(f.compose_xp(p), p):
            out.append((piece, mult * p))
        return out
    c = poly_gcd(f, fprime)
    w = (f // c).monic()
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = (w // y).monic()
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        # leftover factors all have multiplicity divisible by p, so c is a
        # p-th power: c(x) = v(x)^p = v~(x^p) with the same coefficients
        for piece, mult in _sqf_decomposition(c.monic().compose_xp(p), p):
            out.append((piece, mult * p))
    return out


def _ddf(f, p):
    """Distinct-degree split of squarefree monic f; list of (product, degree)."""
    r = f.ring
    out = []
    x = Poly(r, [r.zero, r.one])
    h = x
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if rest.degree < 2 * d:
            out.append((rest, rest.degree))
            break
        h = h.pow_mod(p, rest)
        g = poly_gcd(h - x, rest)
        if g.degree > 0:
            out.append((g, d))
            rest = (rest // g).monic()
            h = h % rest
    return out


def _candidate_polys(ring, max_deg):
    """Deterministic enumeration of monic polynomials of degree 1..max_deg.

    A tail is the base-p digits of k, most significant first, which is
    itertools.product's order without its tuple of all p residues.
    """
    p = ring.m
    for deg in range(1, max_deg + 1):
        for k in range(p ** deg):
            yield Poly(ring, [k // p ** i % p for i in range(deg - 1, -1, -1)] + [1])


def _edf(f, d, p):
    """Split squarefree monic f (all factors of degree d) into irreducibles."""
    if f.degree == d:
        return [f]
    r = f.ring
    one = Poly(r, [r.one])
    for h in _candidate_polys(r, f.degree - 1):
        g = poly_gcd(h, f)
        if 0 < g.degree < f.degree:
            return _edf(g, d, p) + _edf((f // g).monic(), d, p)
        if p == 2:
            # trace map over F_{2^d}
            w = h % f
            acc = w
            for _ in range(d - 1):
                w = (w * w) % f
                acc = acc + w
            g = poly_gcd(acc, f)
        else:
            w = h.pow_mod((p ** d - 1) // 2, f)
            g = poly_gcd(w - one, f)
        if 0 < g.degree < f.degree:
            return _edf(g, d, p) + _edf((f // g).monic(), d, p)
    raise AssertionError("equal-degree splitting exhausted its candidates")


def factor_poly_mod_p(f):
    """Factor a nonzero polynomial over F_p into irreducibles.

    Returns [(irreducible monic Poly, multiplicity)] sorted by degree then by
    coefficient tuple; the product of factors to their multiplicities equals
    f up to the leading unit.
    """
    r = f.ring
    if not isinstance(r, IntegersMod) or not r.is_field:
        raise ValueError("factorization requires a prime-field polynomial")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p = r.m
    f = f.monic()
    if f.degree == 0:
        return []          # units have an empty factorization
    factors = []
    for piece, mult in _sqf_decomposition(f, p):
        for prod, d in _ddf(piece, p):
            for irr in _edf(prod, d, p):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return factors


def is_irreducible_mod_p(f):
    """True when f is irreducible over its prime field."""
    fac = factor_poly_mod_p(f)
    return len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree == f.degree


def sturm_real_root_count(f):
    """Number of distinct real roots of a squarefree rational polynomial.

    The count reads only the degrees and leading signs of Sturm's chain f,
    f', -rem(f, f'), ...  Scaling a member by a positive number keeps both,
    so the chain is built over Z: f times its least common denominator,
    then signed pseudo-remainders, each divided by its content.  It ends at
    gcd(f, f'), so f is squarefree exactly when it ends at a constant.
    """
    if f.ring != QQ:
        raise ValueError("Sturm count expects a rational polynomial")
    if f.degree <= 0:
        return 0
    (a,), _ = integral([f.coeffs])
    chain = [a, [i * c for i, c in enumerate(a)][1:]]
    while len(chain[-1]) > 1:
        b = chain[-1]
        rem = _prem(chain[-2], b)
        if not rem:
            break
        # rem is lc(b)^(deg a - deg b + 1) rem(a, b): keep that factor positive
        if b[-1] < 0 and (len(chain[-2]) - len(b)) % 2 == 0:
            rem = [-c for c in rem]
        content = gcd(*rem)
        chain.append([-c // content for c in rem])
    if len(chain[-1]) > 1:
        raise NonSquarefree("input has a repeated root; divide by gcd(f, f') first")
    pos = [1 if c[-1] > 0 else -1 for c in chain]
    neg = [s if len(c) % 2 else -s for s, c in zip(pos, chain)]
    return sum(x != y for x, y in zip(neg, neg[1:])) - sum(x != y for x, y in zip(pos, pos[1:]))


def _prem(a, b):
    """lc(b)^(deg a - deg b + 1) a mod b for int coefficient lists, constant first.

    The pseudo-remainder, with no trailing zeros: it divides by nothing.
    """
    r = list(a)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        for i, y in enumerate(b[:-1], k):
            r[i] -= c * y
    while r and not r[-1]:
        r.pop()
    return r


def _subresultant(a, b):
    """Res(a, b) for int coefficient lists of degree >= 1 (Cohen, GTM 138, Alg. 3.3.7).

    Each division in the sub-resultant remainder sequence is exact in Z.
    """
    ca, cb = gcd(*a), gcd(*b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    s = 1
    if len(a) < len(b):
        a, b = b, a
        s = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        a, b = b, [x // (g * h ** delta) for x in r]
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    d = len(a) - 1
    return s * t * (b[0] ** d // h ** (d - 1))


def resultant(f, g):
    """Resultant of two rational polynomials by the sub-resultant sequence over Z.

    With n = deg f, m = deg g and f = a/u, g = b/v for integer polynomials
    a, b and least common denominators u, v, Res(f, g) = Res(a, b) / (u^m v^n),
    and Res(a, b) is computed in Z.  So the result is an int when it is
    integral, and integer polynomials make no Fraction.  Res(f, g) is f^m
    when f is a constant, g^n when g is, and 0 when either is zero.
    """
    if f.is_zero() or g.is_zero():
        return 0
    n, m = f.degree, g.degree
    if n == 0 or m == 0:
        return QQ.canon(f.coeffs[0] ** m if n == 0 else g.coeffs[0] ** n)
    (a,), u = integral([f.coeffs])
    (b,), v = integral([g.coeffs])
    return rational(_subresultant(a, b), u ** m * v ** n)


def discriminant(f):
    """disc(f) for monic rational f."""
    n = f.degree
    res = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def poly_str(f):
    """f as text, highest term first: "x^2 + 3x + -2", "0" for the zero polynomial."""
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
