"""Small prime utilities: sieve, per-class prime counts, deterministic primality, trial factorization.

One windowed sieve serves both iter_primes, which makes an int of every
prime, and count_primes_by_class, which reads each window's bytes with one
strided slice per residue class and makes an int only for the least prime
of a class.
"""

from functools import lru_cache
from itertools import compress
from math import isqrt


# integers sieved at a time: wide enough that the per-window loop over the
# sieving primes costs little at 10^7, small beside a scan's other memory
WINDOW = 1 << 18


def _windows(n):
    """(lo, window) for each WINDOW of the integers 2 .. n, ascending.

    window[i] is 1 when lo + i is prime and 0 otherwise.  Memory stays at one
    window of bytes and the primes up to sqrt(n).
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
        yield lo, sieve


def iter_primes(n):
    """The primes <= n, ascending, sieved one WINDOW of integers at a time.

    A caller that only iterates never holds all the primes up to n.
    """
    for lo, window in _windows(n):
        yield from compress(range(lo, lo + len(window)), window)


def count_primes_by_class(n, modulus):
    """(p, k) for each class mod modulus that holds primes <= n, ascending in p.

    p is the least prime of the class and k the number of primes <= n in it.
    Each window costs one strided slice per class it reaches, min(modulus,
    window length) of them, and an int is made only for the least prime of
    a class, so this beats iter_primes while modulus is small beside the
    number of primes in a window.  Memory is one window and two lists of
    min(modulus, n + 1) entries, since a prime p <= n is in class p when
    modulus > n.
    """
    size = min(modulus, n + 1)
    counts = [0] * size
    firsts = [0] * size
    for lo, window in _windows(n):
        for off in range(min(modulus, len(window))):
            row = window[off::modulus]
            k = row.count(1)
            if k:
                c = (lo + off) % modulus
                if not counts[c]:
                    firsts[c] = lo + off + row.index(1) * modulus
                counts[c] += k
    return sorted((p, k) for p, k in zip(firsts, counts) if k)


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
