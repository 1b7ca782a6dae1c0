"""Coefficient rings.

A ring object is a stateless tag with arithmetic methods; elements are plain
Python values so they hash and compare cheaply:

    Rationals  -> int or Fraction (ints kept as ints when the value is integral)
    IntegersMod(m) -> canonical residue in [0, m)
    ExtField(p, modulus) -> coefficient tuple of length deg(modulus)

All values are immutable and safe to share between tasks.
"""

from fractions import Fraction

from .errors import NotInvertible, OutOfRange
from .primes import is_prime


def _ratcanon(x):
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


class Rationals:
    """The field Q; elements are int or Fraction in lowest terms."""

    is_field = True

    def canon(self, x):
        return _ratcanon(x)

    def add(self, a, b):
        return _ratcanon(a + b)

    def sub(self, a, b):
        return _ratcanon(a - b)

    def mul(self, a, b):
        return _ratcanon(a * b)

    def neg(self, a):
        return _ratcanon(-a)

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse in Q")
        return _ratcanon(Fraction(1, 1) / a)

    def is_unit(self, a):
        return a != 0

    zero = 0
    one = 1

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


QQ = Rationals()


class IntegersMod:
    """Z/m with canonical residues; a field exactly when m is prime."""

    def __init__(self, m):
        if m < 2:
            raise OutOfRange(f"modulus must be >= 2, got {m}")
        self.m = m
        self.is_field = is_prime(m)

    def canon(self, x):
        if isinstance(x, Fraction):
            return self.from_rational(x)
        return x % self.m

    def from_rational(self, q):
        """Reduce a rational with denominator coprime to m."""
        q = Fraction(q)
        return q.numerator * self.inv(q.denominator % self.m) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            raise NotInvertible(f"{a} is not a unit mod {self.m}") from None

    def is_unit(self, a):
        from math import gcd

        return gcd(a % self.m, self.m) == 1

    zero = 0
    one = 1

    def __repr__(self):
        return f"GF({self.m})" if self.is_field else f"Z/{self.m}"

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.m == self.m

    def __hash__(self):
        return hash(("Zmod", self.m))


def GF(p):
    """Prime field F_p."""
    ring = IntegersMod(p)
    if not ring.is_field:
        raise ValueError(f"{p} is not prime")
    return ring


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
        from .poly import Poly, poly_xgcd

        if all(c == 0 for c in a):
            raise NotInvertible("0 has no inverse")
        ring = IntegersMod(self.p)
        _, s, _ = poly_xgcd(Poly(ring, a), Poly(ring, self.modulus))
        return self.canon(s.coeffs)

    def is_unit(self, a):
        return any(c % self.p for c in a)

    def elements(self):
        """All p^f elements, lexicographic by coefficient tuple."""
        from itertools import product

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


class QuadraticExt:
    """Q[x]/(q) for a monic rational quadratic q, used for eigenvalue fields.

    Elements are pairs (a, b) meaning a + b*w where w^2 = s*w + t comes from
    q(x) = x^2 - s*x - t.  Only needs to be a field when q is irreducible;
    eigenvector searches only build it in that case.
    """

    is_field = True

    def __init__(self, s, t):
        self.s = _ratcanon(s)
        self.t = _ratcanon(t)
        self.zero = (0, 0)
        self.one = (1, 0)

    def canon(self, x):
        if isinstance(x, tuple):
            return (_ratcanon(x[0]), _ratcanon(x[1]))
        return (_ratcanon(x), 0)

    def add(self, a, b):
        return (_ratcanon(a[0] + b[0]), _ratcanon(a[1] + b[1]))

    def sub(self, a, b):
        return (_ratcanon(a[0] - b[0]), _ratcanon(a[1] - b[1]))

    def neg(self, a):
        return (_ratcanon(-a[0]), _ratcanon(-a[1]))

    def mul(self, a, b):
        # (a0 + a1 w)(b0 + b1 w) with w^2 = s w + t
        w2 = a[1] * b[1]
        return (
            _ratcanon(a[0] * b[0] + w2 * self.t),
            _ratcanon(a[0] * b[1] + a[1] * b[0] + w2 * self.s),
        )

    def inv(self, a):
        # conjugate of a0 + a1 w is (a0 + a1 s) - a1 w; norm is rational
        conj = (_ratcanon(a[0] + a[1] * self.s), _ratcanon(-a[1]))
        norm = self.mul(a, conj)
        assert norm[1] == 0
        if norm[0] == 0:
            raise NotInvertible("zero divisor in quadratic extension")
        ninv = Fraction(1, 1) / norm[0]
        return (_ratcanon(conj[0] * ninv), _ratcanon(conj[1] * ninv))

    def is_unit(self, a):
        conj = (_ratcanon(a[0] + a[1] * self.s), _ratcanon(-a[1]))
        return self.mul(a, conj)[0] != 0

    def __repr__(self):
        return f"Q[w; w^2={self.s}w+{self.t}]"

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticExt)
            and other.s == self.s
            and other.t == self.t
        )

    def __hash__(self):
        return hash(("QuadExt", self.s, self.t))
