from bisect import bisect_right

from arithgroups.primes import is_prime, iter_primes, primes_upto


def test_primes_upto_matches_is_prime():
    primes = [k for k in range(3001) if is_prime(k)]
    for n in range(-1, 3001):
        assert primes_upto(n) == primes[: bisect_right(primes, n)]


def test_iter_primes_agrees_across_window_edges(monkeypatch):
    from arithgroups import primes as module

    primes = [k for k in range(3001) if is_prime(k)]
    for window in (1, 2, 3, 10, 64, 1000):
        monkeypatch.setattr(module, "WINDOW", window)
        for n in (-1, 0, 1, 2, 3, 4, 63, 64, 65, 999, 1000, 1001, 3000):
            assert list(iter_primes(n)) == primes[: bisect_right(primes, n)]
