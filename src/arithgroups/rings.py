"""Coefficient rings.

A ring object is a stateless tag with arithmetic methods; elements are plain
Python values so they hash and compare cheaply:

    Rationals  -> int or Fraction (ints kept as ints when the value is integral)
    IntegersMod(m) -> canonical residue in [0, m)
    ideals.ExtField(p, g) -> coefficient tuple of length deg(g), for F_p[x]/(g)

All values are immutable and safe to share between tasks.  fractions is
imported only where a non-integral rational first appears, by rational and
_ratcanon, so arithmetic on integral values never loads it; a rational is
told from an int by its denominator, which ints also have.  integral is the
one lift of rational rows to integer rows, shared by the matrix, polynomial
and group layers.
"""

from math import gcd, lcm

from .errors import NotInvertible, OutOfRange
from .primes import is_prime


def rational(a, b):
    """The exact a/b of ints a and b != 0: an int when b divides a, else a Fraction."""
    if a % b == 0:
        return a // b
    from fractions import Fraction

    return Fraction(a, b)


def integral(rows):
    """(B, D) with B = D * rows an integer matrix, D the lcm of the rationals' denominators."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _ratcanon(x):
    # Fraction arithmetic already gives lowest terms: only a value without a
    # denominator (a float, a string) goes through Fraction
    if isinstance(x, int):
        return x
    if not hasattr(x, "denominator"):
        from fractions import Fraction

        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


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
        return rational(a.denominator, a.numerator)

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
        if isinstance(x, int) or not hasattr(x, "denominator"):
            return x % self.m
        return self.from_rational(x)

    def from_rational(self, q):
        """Reduce a rational (an int or a Fraction) with denominator coprime to m."""
        if isinstance(q, int):
            return q % self.m
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
