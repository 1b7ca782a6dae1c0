"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and runtime budget is pinned here; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import enumerate_sl_n_mod_m, random_gaussian_sl2_word, random_sl2z_word, nf_matrix_mul

from arithgroups.catalog import builtin_field, builtin_group
from arithgroups.congruence import (
    SIntegerGroup,
    bfs_closure,
    elementary_generators_sl,
    order_sl,
    quasisimple_check,
    reduce_generators,
    strong_approx_scan,
)
from arithgroups.density import (
    DENSE_EVIDENCE,
    NOT_DENSE,
    OneParamSubgroup,
    ad_span,
    adjoint_matrix,
    gamma_plus,
    lubotzky_scan,
    one_param_point,
    unipotent_closure_subgroup,
)
from arithgroups.groups import (
    form_group,
    mult_group,
    restriction_of_scalars,
    ros_point,
    sl_group,
    tangent_space_at_identity,
    verify_jacobi,
)
from arithgroups.matrix import Mat
from arithgroups.mpoly import MPoly
from arithgroups.ideals import factor_prime
from arithgroups.numberfield import chebotarev_scan
from arithgroups.padics import PadicInt, hensel_lift, padic_add, padic_mul, tower_consistency
from arithgroups.poly import Poly, factor_poly_mod_p, poly_gcd
from arithgroups.primes import iter_primes
from arithgroups.rings import QQ, GF, IntegersMod


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_chebotarev_density():
    details = []
    for name in ("qi", "qsqrt2"):
        K = builtin_field(name)
        t0 = time.time()
        big = chebotarev_scan(K, 10 ** 5)
        elapsed = time.time() - t0
        assert elapsed < 10, f"{name} scan took {elapsed:.1f}s"
        assert abs(Fraction(big.ratio) - Fraction(1, 2)) <= Fraction(3, 100)
        small = chebotarev_scan(K, 10 ** 4)
        assert abs(Fraction(small.ratio) - Fraction(1, 2)) <= Fraction(5, 100)
        details.append(f"{name}: {float(Fraction(big.ratio)):.4f} in {elapsed:.1f}s")
    report("1 (Chebotarev density 1/2)", True, "; ".join(details))


def test_criterion_2_sum_formula():
    checked = 0
    for name in ("qi", "qsqrt2", "qcbrt2", "zeta5"):
        K = builtin_field(name)
        for p in iter_primes(200):
            fac = factor_prime(K, p)
            assert sum(f.e * f.f for f in fac.factors) == K.degree
            checked += 1
    report("2 (sum formula e_i*f_i)", True, f"{checked} factorizations, zero tolerance")


def test_criterion_3_sl_n_lie_algebras():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        L = tangent_space_at_identity(sl_group(n))
        assert L.dim == n * n - 1
        assert all(b.trace() == 0 for b in L.basis)
        verify_jacobi(L)          # raises on any defect; closure checked at build
    elapsed = time.time() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"
    report("3 (L(SL_n) = sl_n)", True, f"n=2..5 in {elapsed:.1f}s")


def test_criterion_4_restriction_of_scalars():
    rng = random.Random(101)
    K = builtin_field("qsqrt2")
    pres = restriction_of_scalars(mult_group(), K).presentation
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a * a == 2 * b * b:
            a += 1
        assert pres.satisfied_by(Mat(QQ, [[a, 2 * b], [b, a]]))
    off = 0
    while off < 100:
        m = Mat(QQ, [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
        if m.rows[1][1] == m.rows[0][0] and m.rows[0][1] == 2 * m.rows[1][0]:
            continue
        assert not pres.satisfied_by(m)
        off += 1
    qi = builtin_field("qi")
    for _ in range(100):
        x = random_gaussian_sl2_word(rng, length=4)
        y = random_gaussian_sl2_word(rng, length=4)
        assert ros_point(qi, nf_matrix_mul(x, y)) == ros_point(qi, x) * ros_point(qi, y)
    report("4 (restriction of scalars)", True,
           "100 on-locus, 100 off-locus, 100 multiplicative pairs, exact")


def test_criterion_5_strong_approximation_all_moduli():
    t0 = time.time()
    for m in (2, 3, 4, 5, 8, 9):
        assert order_sl(2, m) == len(enumerate_sl_n_mod_m(2, m))
    for m in range(2, 51):
        c = bfs_closure(elementary_generators_sl(2, m), cap=10 ** 6, element_cap=0)
        assert not c.truncated
        assert c.order == order_sl(2, m), f"m={m}"
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report("5 (SL_2(Z) -> SL_2(Z/m) onto, m <= 50)", True, f"{elapsed:.1f}s")


def test_criterion_6_nori_weisfeiler_sanov():
    t0 = time.time()
    rep = strong_approx_scan(builtin_group("sanov"), 31)
    assert rep.exceptional_primes == (2,)
    for r in rep.records:
        assert not r.truncated
        if r.m == 2:
            assert not r.surjective
        else:
            assert r.surjective and r.image_order == r.target_order
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report("6 (Sanov surjects at all odd p <= 31)", True,
           f"exceptional set exactly {{2}}, {elapsed:.1f}s")


def test_criterion_7_lubotzky_dichotomy():
    rep = lubotzky_scan(builtin_group("sanov"), 7)
    assert rep.verdict.verdict == DENSE_EVIDENCE
    assert rep.verdict.ad_span_dim == 9
    by_p = {r.p: r for r in rep.records}
    assert by_p[5].psl_quotient_order == 60 and by_p[5].quasisimple is True
    assert by_p[7].psl_quotient_order == 168 and by_p[7].quasisimple is True
    tri = lubotzky_scan(builtin_group("triangular"), 7)
    assert tri.verdict.verdict == NOT_DENSE
    report("7 (dichotomy: Sanov dense, triangular not)", True,
           "PSL_2 quotients 60 and 168 verified quasisimple exhaustively")


def _all_unipotents_sl2(p):
    c = bfs_closure(elementary_generators_sl(2, p))
    ring = GF(p)
    out = []
    for flat in c.elements:
        g = Mat(ring, [flat[:2], flat[2:]])
        u = g - Mat.identity(ring, 2)
        if (u * u).rows == ((0, 0), (0, 0)):
            out.append(g)
    return out


def test_criterion_8_one_parameter_law():
    t0 = time.time()
    for p in (5, 7, 11):
        unipotents = _all_unipotents_sl2(p)
        assert len(unipotents) == p * p     # I plus p^2 - 1 nontrivial ones
        for g in unipotents:
            X = OneParamSubgroup.from_matrix(g)
            points = [one_param_point(X, t) for t in range(p)]
            assert points[1] == g and points[0] == Mat.identity(GF(p), 2)
            for s in range(p):
                for t in range(p):
                    assert points[s] * points[t] == points[(s + t) % p]
    from test_density import random_unipotent_sl3

    rng = random.Random(103)
    for p in (5, 7, 11):
        for _ in range(50):
            g = random_unipotent_sl3(rng, p)
            X = OneParamSubgroup.from_matrix(g)
            points = [one_param_point(X, t) for t in range(p)]
            for s in range(p):
                for t in range(p):
                    assert points[s] * points[t] == points[(s + t) % p]
    for p in (5, 7, 11, 13):
        c = bfs_closure(elementary_generators_sl(2, p))
        assert gamma_plus(c).order == c.order == order_sl(2, p)
    for p in (5, 7, 11):
        pair = [Mat(GF(p), [[1, 1], [0, 1]]), Mat(GF(p), [[1, 0], [1, 1]])]
        u = unipotent_closure_subgroup(pair, max_word_len=2)
        gp = gamma_plus(bfs_closure(pair))
        assert u.order == gp.order and set(u.element_set()) == set(gp.element_set())
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report("8 (one-parameter subgroup law and Gamma+)", True, f"{elapsed:.1f}s")


def test_criterion_9_padic_suite():
    r = hensel_lift([1, 0, 1], 2, 5, 20)
    assert (r * r + 1) % 5 ** 20 == 0
    rng = random.Random(107)
    p, N = 7, 6
    mod = p ** N
    for _ in range(300):
        x = PadicInt.from_int(rng.randrange(mod), p, N)
        y = PadicInt.from_int(rng.randrange(mod), p, N)
        z = PadicInt.from_int(rng.randrange(mod), p, N)
        assert padic_mul(padic_mul(x, y), z) == padic_mul(x, padic_mul(y, z))
        assert padic_mul(x, padic_add(y, z)) == padic_add(padic_mul(x, y), padic_mul(x, z))
        n = rng.randint(1, N - 1)
        assert tower_consistency(x, n, [("add", y), ("mul", z)])
    report("9 (p-adic suite)", True, "Hensel to 5^20 plus 300 random cases, exact")


def test_criterion_10_property_suites():
    rng = random.Random(109)
    # gcd / factor reconstruction
    for p in (2, 3, 5, 7, 11, 13):
        ring = IntegersMod(p)
        for _ in range(10):
            f = Poly(ring, [rng.randrange(p) for _ in range(rng.randint(2, 7))])
            g = Poly(ring, [rng.randrange(p) for _ in range(rng.randint(2, 7))])
            if f.is_zero() or g.is_zero():
                continue
            h = f * g
            prod = Poly(ring, [h.lead()])
            for irr, mult in factor_poly_mod_p(h):
                for _ in range(mult):
                    prod = prod * irr
            assert prod == h
            d = poly_gcd(f, g)
            assert (f % d).is_zero() and (g % d).is_zero()
    # Ad multiplicativity
    sl2 = tangent_space_at_identity(sl_group(2)).basis
    for _ in range(100):
        a = random_sl2z_word(rng, length=4)
        b = random_sl2z_word(rng, length=4)
        assert adjoint_matrix(a * b, sl2) == adjoint_matrix(a, sl2) * adjoint_matrix(b, sl2)
    # CRT multiplicativity of closure orders
    for m1, m2 in ((2, 3), (2, 5), (3, 5), (4, 9), (2, 25), (4, 5)):
        o1 = bfs_closure(elementary_generators_sl(2, m1), element_cap=0).order
        o2 = bfs_closure(elementary_generators_sl(2, m2), element_cap=0).order
        assert bfs_closure(elementary_generators_sl(2, m1 * m2), element_cap=0).order == o1 * o2
    # reduction functoriality
    G = builtin_group("sl2z")
    for _ in range(100):
        a = random_sl2z_word(rng, length=4)
        b = random_sl2z_word(rng, length=4)
        m = rng.choice([5, 7, 9, 11, 25, 49])
        ring = IntegersMod(m)

        def red(x):
            return Mat(ring, [[int(v) % m for v in row] for row in x.rows])

        assert red(a * b) == red(a) * red(b)
        assert red(a.inverse()) == red(a).inverse()
    # ad_span conjugation covariance
    pair = [Mat(QQ, [[1, 1], [0, 1]]), Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])]
    base, _ = ad_span(sl2, pair)
    h = random_sl2z_word(rng, length=5)
    conj_dim, _ = ad_span(sl2, [h * g * h.inverse() for g in pair])
    assert base == conj_dim == 6
    report("10 (module property suites)", True,
           "factor/gcd, Ad, CRT, reduction, ad_span covariance")
