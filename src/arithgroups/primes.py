"""Small prime utilities: sieve, deterministic primality, trial factorization."""

from functools import lru_cache
from itertools import compress
from math import isqrt


# integers sieved at a time: wide enough that the per-window loop over the
# sieving primes costs little at 10^7, small beside a scan's other memory
WINDOW = 1 << 18


def iter_primes(n):
    """The primes <= n, ascending, sieved one WINDOW of integers at a time.

    Memory stays at one window of bytes and the primes up to sqrt(n), so a
    caller that only iterates never holds all the primes up to n.
    """
    if n < 2:
        return
    base = list(iter_primes(isqrt(n)))
    for lo in range(2, n + 1, WINDOW):
        hi = min(lo + WINDOW, n + 1)
        sieve = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)  # the first multiple to strike
            if start < hi:
                sieve[start - lo :: p] = bytes((hi - 1 - start) // p + 1)
        yield from compress(range(lo, hi), sieve)


def primes_upto(n):
    """All primes <= n, ascending, as a list."""
    return list(iter_primes(n))


def is_prime(n):
    """Deterministic Miller-Rabin (valid far beyond desk scale)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=4096)
def factorint(n):
    """Trial-division factorization; returns tuple of (prime, exponent)."""
    if n < 0:
        n = -n
    if n <= 1:
        return ()
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_support(n):
    """Set of primes dividing n."""
    return {p for p, _ in factorint(n)}
