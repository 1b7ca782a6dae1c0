"""Truncated p-adic integers, valuations, and Hensel lifting.

A PadicInt is a fixed-precision value: exactly N digits a_0..a_{N-1} in
[0, p), representing sum a_i p^i mod p^N.  Operations demand matching p and N
and return canonical digit tuples, so values are immutable and comparable.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARoot, NotUnit, PrecisionMismatch, SingularRoot

INFINITY = math.inf


def vp(x, p):
    """p-adic valuation of a rational; vp(0) is the +infinity sentinel."""
    x = Fraction(x)
    if x == 0:
        return INFINITY
    t = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        t += 1
    while den % p == 0:
        den //= p
        t -= 1
    return t


@dataclass(frozen=True)
class PadicInt:
    p: int
    precision: int
    digits: tuple

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if len(self.digits) != self.precision:
            raise ValueError("digit count must equal the precision")
        if any(not (0 <= d < self.p) for d in self.digits):
            raise ValueError("digits must lie in [0, p)")

    @staticmethod
    def from_int(value, p, precision):
        return PadicInt(p, precision, _digits(value, p, precision))

    @staticmethod
    def from_rational(value, p, precision):
        """Embed a rational with denominator prime to p."""
        q = Fraction(value)
        if q.denominator % p == 0:
            raise NotUnit(f"denominator divisible by {p}; not a p-adic integer")
        mod = p ** precision
        residue = q.numerator * pow(q.denominator, -1, mod) % mod
        return PadicInt(p, precision, _digits(residue, p, precision))

    def value(self):
        """Canonical integer representative in [0, p^N)."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.p + d
        return acc

    def is_zero(self):
        return all(d == 0 for d in self.digits)

    def unit_digit(self):
        return self.digits[0]

    def truncate(self, n):
        """Image under Z/p^N -> Z/p^n for n <= N."""
        if not 1 <= n <= self.precision:
            raise PrecisionMismatch(f"cannot truncate precision {self.precision} to {n}")
        return PadicInt(self.p, n, self.digits[:n])

    def render(self):
        """Digit expansion like '2 + 1*5 + 0*5^2 + ...'."""
        parts = []
        for i, d in enumerate(self.digits):
            if i == 0:
                parts.append(str(d))
            elif i == 1:
                parts.append(f"{d}*{self.p}")
            else:
                parts.append(f"{d}*{self.p}^{i}")
        return " + ".join(parts) + " + ..."


def _digits(value, p, precision):
    value %= p ** precision
    out = []
    for _ in range(precision):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def _check_compatible(x, y):
    if x.p != y.p or x.precision != y.precision:
        raise PrecisionMismatch(
            f"operands disagree: ({x.p}, N={x.precision}) vs ({y.p}, N={y.precision})"
        )


def padic_add(x, y):
    _check_compatible(x, y)
    return PadicInt.from_int(x.value() + y.value(), x.p, x.precision)


def padic_sub(x, y):
    _check_compatible(x, y)
    return PadicInt.from_int(x.value() - y.value(), x.p, x.precision)


def padic_mul(x, y):
    _check_compatible(x, y)
    return PadicInt.from_int(x.value() * y.value(), x.p, x.precision)


def padic_inv(x):
    """Inverse of a unit (nonzero constant digit) mod p^N."""
    if x.unit_digit() == 0:
        raise NotUnit("leading digit 0: not a unit in Z_p")
    mod = x.p ** x.precision
    return PadicInt.from_int(pow(x.value(), -1, mod), x.p, x.precision)


@dataclass(frozen=True)
class PadicNumber:
    """p^t * u with u a unit PadicInt, or the distinguished zero."""

    valuation: object  # int, or INFINITY for zero
    unit: object       # PadicInt or None for zero

    @staticmethod
    def from_rational(value, p, precision):
        q = Fraction(value)
        if q == 0:
            return PadicNumber(INFINITY, None)
        t = vp(q, p)
        u = q / Fraction(p) ** t
        return PadicNumber(t, PadicInt.from_rational(u, p, precision))

    def is_zero(self):
        return self.unit is None


def hensel_lift(coeffs, r0, p, precision):
    """Lift a simple root of an integer polynomial from mod p to mod p^N.

    coeffs: integer coefficients, constant first.  Requires f(r0) = 0 mod p
    and f'(r0) a unit mod p; returns the residue r mod p^N with f(r) = 0
    and r = r0 mod p (Newton iteration, doubling precision each step).
    """
    def f(x, mod):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        return acc

    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

    def fprime(x, mod):
        acc = 0
        for c in reversed(dcoeffs):
            acc = (acc * x + c) % mod
        return acc

    r0 %= p
    if f(r0, p) != 0:
        raise NotARoot(f"{r0} is not a root mod {p}")
    if fprime(r0, p) % p == 0:
        raise SingularRoot(f"f'({r0}) = 0 mod {p}: Newton step undefined")
    k = 1
    r = r0
    while k < precision:
        k = min(2 * k, precision)
        mod = p ** k
        deriv_inv = pow(fprime(r, mod), -1, mod)
        r = (r - f(r, mod) * deriv_inv) % mod
    assert f(r, p ** precision) == 0
    assert (r - r0) % p == 0
    return r


def tower_consistency(x, n, ops=()):
    """Check truncation commutes with arithmetic performed at both precisions.

    ops is a log of ("add"|"mul", operand) pairs applied left to right.
    """
    apply = {"add": padic_add, "mul": padic_mul}
    full = x
    for name, operand in ops:
        full = apply[name](full, operand)
    low = x.truncate(n)
    for name, operand in ops:
        low = apply[name](low, operand.truncate(n))
    return full.truncate(n) == low
