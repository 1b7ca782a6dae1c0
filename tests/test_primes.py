from bisect import bisect_right

from arithgroups.primes import is_prime, primes_upto


def test_primes_upto_matches_is_prime():
    primes = [k for k in range(3001) if is_prime(k)]
    for n in range(-1, 3001):
        assert primes_upto(n) == primes[: bisect_right(primes, n)]
