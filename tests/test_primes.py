from bisect import bisect_right

from arithgroups.primes import WINDOW, count_primes_by_class, is_prime, iter_primes


def test_iter_primes_matches_is_prime():
    primes = [k for k in range(3001) if is_prime(k)]
    for n in range(-1, 3001):
        assert list(iter_primes(n)) == primes[: bisect_right(primes, n)]


def test_iter_primes_agrees_across_window_edges(monkeypatch):
    from arithgroups import primes as module

    primes = [k for k in range(3001) if is_prime(k)]
    for window in (1, 2, 3, 10, 64, 1000):
        monkeypatch.setattr(module, "WINDOW", window)
        for n in (-1, 0, 1, 2, 3, 4, 63, 64, 65, 999, 1000, 1001, 3000):
            assert list(iter_primes(n)) == primes[: bisect_right(primes, n)]


def classes_of(primes, modulus):
    """(least prime, count) of each class mod modulus that holds one of primes, ascending."""
    by_class = {}
    for p in primes:
        by_class.setdefault(p % modulus, []).append(p)
    return sorted((ps[0], len(ps)) for ps in by_class.values())


def test_count_primes_by_class_matches_iter_primes_across_window_edges(monkeypatch):
    from arithgroups import primes as module

    monkeypatch.setattr(module, "WINDOW", 64)
    # the windows start at 2: n = 65 ends the first window, 66 opens a second
    for n in (-1, 0, 1, 2, 63, 64, 65, 66, 5 * 64 + 3):
        primes = list(iter_primes(n))
        for modulus in range(1, max(n, 1) + 3):
            assert count_primes_by_class(n, modulus) == classes_of(primes, modulus), (n, modulus)


def test_count_primes_by_class_at_the_window_width():
    for n in (WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + 2, 3 * WINDOW + 5):
        primes = list(iter_primes(n))
        for modulus in (1, 2, 3, 4, 8, 125, 1000, 4096, n - 1, n + 1):
            assert count_primes_by_class(n, modulus) == classes_of(primes, modulus), (n, modulus)


def test_count_primes_by_class_past_the_bound_needs_no_list_per_class():
    # a prime p <= n is in class p when modulus > n, so 10^12 classes cost nothing
    assert count_primes_by_class(30, 10 ** 12) == [(p, 1) for p in iter_primes(30)]
