import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_sl2z_word

from arithgroups import congruence
from arithgroups.catalog import builtin_group
from arithgroups.closure import run_closure
from arithgroups.congruence import (
    SIntegerGroup,
    bfs_closure,
    elementary_generators_sl,
    order_sl,
    reduce_generators,
)
from arithgroups.density import (
    DENSE_EVIDENCE,
    INCONCLUSIVE,
    NOT_DENSE,
    OneParamSubgroup,
    ad_span,
    density_verdict,
    gamma_plus,
    is_unipotent,
    lubotzky_scan,
    one_param_point,
    unipotent_closure_subgroup,
)
from arithgroups.groups import sl_group, tangent_space_at_identity
from arithgroups.matrix import Mat, rref
from arithgroups.rings import QQ, GF


@pytest.fixture(scope="module")
def sl2():
    return tangent_space_at_identity(sl_group(2))


def test_is_unipotent_examples():
    flag, nu = is_unipotent(Mat(QQ, [[1, 1], [0, 1]]))
    assert flag and nu == 2
    flag, _ = is_unipotent(Mat(GF(7), [[2, 0], [0, 3]]))
    assert not flag
    g = Mat(QQ, [[1, 1, 1], [0, 1, 0], [0, 0, 1]])   # I + E12 + E13
    flag, nu = is_unipotent(g)
    assert flag and nu <= 3


def test_one_param_transvection_formula():
    for p in (5, 7, 11):
        X = OneParamSubgroup.from_matrix(Mat(GF(p), [[1, 1], [0, 1]]))
        for t in range(p):
            assert one_param_point(X, t) == Mat(GF(p), [[1, t], [0, 1]])


def test_one_param_endpoints():
    X = OneParamSubgroup.from_matrix(Mat(GF(7), [[1, 3], [0, 1]]))
    assert one_param_point(X, 0) == Mat.identity(GF(7), 2)
    assert one_param_point(X, 1) == X.base


def random_unipotent_sl3(rng, p):
    """Conjugate of an upper unitriangular matrix (unipotent by construction)."""
    ring = GF(p)
    u = Mat(ring, [[1, rng.randrange(p), rng.randrange(p)],
                   [0, 1, rng.randrange(p)], [0, 0, 1]])
    while True:
        g = Mat(ring, [[rng.randrange(p) for _ in range(3)] for _ in range(3)])
        if ring.is_unit(g.det()):
            break
    return g * u * g.inverse()


def test_one_param_homomorphism_sl3_random():
    rng = random.Random(53)
    p = 7
    for _ in range(10):
        g = random_unipotent_sl3(rng, p)
        X = OneParamSubgroup.from_matrix(g)
        assert one_param_point(X, 3) * one_param_point(X, 4) == Mat.identity(GF(p), 3)
        s, t = rng.randrange(p), rng.randrange(p)
        assert one_param_point(X, s) * one_param_point(X, t) == one_param_point(X, (s + t) % p)


def test_one_param_requires_p_greater_than_n():
    with pytest.raises(ValueError):
        OneParamSubgroup.from_matrix(Mat(GF(2), [[1, 1], [0, 1]]))


@pytest.mark.parametrize("p,order", [(5, 120), (7, 336)])
def test_gamma_plus_full_sl2(p, order):
    c = bfs_closure(elementary_generators_sl(2, p), keep_elements=True)
    assert c.order == order
    gp = gamma_plus(c)
    assert gp.order == order


def test_gamma_plus_of_diagonal_group_is_trivial():
    ring = GF(7)
    diag = Mat(ring, [[3, 0], [0, 5]])   # 3*5 = 1 mod 7
    c = bfs_closure([diag], keep_elements=True)
    assert c.order == 6                   # cyclic of order p-1
    gp = gamma_plus(c)
    assert gp.order == 1


def test_unipotent_closure_examples():
    pair = [Mat(GF(7), [[1, 1], [0, 1]]), Mat(GF(7), [[1, 0], [1, 1]])]
    u = unipotent_closure_subgroup(pair, max_word_len=2)
    full = bfs_closure(pair, keep_elements=True)
    gp = gamma_plus(full)
    assert u.order == 336 == gp.order
    assert set(u.element_set()) == set(gp.element_set())

    single = unipotent_closure_subgroup([Mat(GF(7), [[1, 1], [0, 1]])], max_word_len=2)
    assert single.order == 7
    assert all(f[2] == 0 for f in single.element_set())   # all upper triangular

    diag = unipotent_closure_subgroup([Mat(GF(7), [[3, 0], [0, 5]])], max_word_len=3)
    assert diag.order == 1


@pytest.mark.parametrize("p", [5, 7, 11])
def test_nori_equality_sl2(p):
    pair = [Mat(GF(p), [[1, 1], [0, 1]]), Mat(GF(p), [[1, 0], [1, 1]])]
    u = unipotent_closure_subgroup(pair, max_word_len=2)
    gp = gamma_plus(bfs_closure(pair, keep_elements=True))
    assert u.order == gp.order == order_sl(2, p)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_nori_equality_sl3_subgroups(p):
    ring = GF(p)

    def transvection(i, j):
        rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        rows[i][j] = 1
        return Mat(ring, rows)

    cases = [
        [transvection(0, 1)],
        [transvection(0, 1), transvection(0, 2)],   # commuting pair
        [transvection(0, 1), transvection(1, 2)],   # Heisenberg pair
    ]
    for gens in cases:
        u = unipotent_closure_subgroup(gens, max_word_len=3)
        gp = gamma_plus(bfs_closure(gens, keep_elements=True))
        assert u.order == gp.order
        assert set(u.element_set()) == set(gp.element_set())


def test_nori_equality_full_sl3_at_5():
    gens = elementary_generators_sl(3, 5)
    u = unipotent_closure_subgroup(gens, max_word_len=1, cap=500000)
    assert u.order == order_sl(3, 5) == 372000


def test_ad_span_sanov_full(sl2):
    sanov = builtin_group("sanov")
    dim, stab = ad_span(sl2, sanov.gens)
    assert dim == 9


def test_ad_span_identity_only(sl2):
    dim, _ = ad_span(sl2, [Mat.identity(QQ, 2)])
    assert dim == 1


def conjugation_span_oracle(gens, words_depth=4):
    """Independent oracle: enumerate explicit conjugations g X g^{-1} of the
    standard sl2 basis, express them in that basis by direct linear algebra,
    and rank the resulting endomorphism vectors."""
    e = Mat(QQ, [[0, 1], [0, 0]])
    f = Mat(QQ, [[0, 0], [1, 0]])
    h = Mat(QQ, [[1, 0], [0, -1]])
    basis = (e, f, h)

    def coords(x):
        # x = a e + b f + c h reads off the entries directly
        return (x.rows[0][1], x.rows[1][0], x.rows[0][0])

    sym = list(gens) + [g.inverse() for g in gens]
    mats = {Mat.identity(QQ, 2)}
    frontier = list(mats)
    for _ in range(words_depth):
        nxt = []
        for w in frontier:
            for g in sym:
                c = w * g
                if c not in mats:
                    mats.add(c)
                    nxt.append(c)
        frontier = nxt
    vectors = []
    for w in mats:
        winv = w.inverse()
        vec = []
        for b in basis:
            vec.extend(coords(w * b * winv))
        vectors.append(tuple(vec))
    reduced, _ = rref(QQ, vectors)
    return len(reduced)


def test_ad_span_upper_triangular_pair_is_6(sl2):
    # independent conjugation+rank oracle (the flag-preserving span has
    # dimension 6: matrices upper triangular in the basis order e, h, f)
    pair = [Mat(QQ, [[1, 1], [0, 1]]), Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])]
    assert conjugation_span_oracle(pair) == 6
    dim, _ = ad_span(sl2, pair)
    assert dim == 6 < 9


def test_ad_span_monotone_in_word_length(sl2):
    sanov = builtin_group("sanov")
    dims = []
    for max_len in (1, 2, 3, 4):
        dim, _ = ad_span(sl2, sanov.gens, max_len=max_len)
        dims.append(dim)
    assert dims == sorted(dims)


def test_ad_span_conjugation_covariance(sl2):
    rng = random.Random(59)
    pair = [Mat(QQ, [[1, 1], [0, 1]]), Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])]
    base_dim, _ = ad_span(sl2, pair)
    for _ in range(3):
        hconj = random_sl2z_word(rng, length=4)
        conj = [hconj * g * hconj.inverse() for g in pair]
        dim, _ = ad_span(sl2, conj)
        assert dim == base_dim


def test_density_verdict_sanov():
    v = density_verdict(builtin_group("sanov"))
    assert v.verdict == DENSE_EVIDENCE
    assert v.ad_span_dim == 9 and v.full_span
    assert v.infinite_order_witness is not None


def test_density_verdict_triangular_pair():
    v = density_verdict(builtin_group("triangular"))
    assert v.verdict == NOT_DENSE
    assert v.not_dense_witness is not None
    desc, vec = v.not_dense_witness
    assert tuple(vec) == (1, 0)          # both generators fix e1


def test_density_verdict_minus_identity():
    G = SIntegerGroup([Mat(QQ, [[-1, 0], [0, -1]])], label="minus")
    v = density_verdict(G)
    assert v.verdict == NOT_DENSE        # scalar generators fix every line


def test_density_verdict_rotation_quadratic_extension():
    # (0 -1; 1 0) has eigenvalues +-i: the common line lives in Q[w]/(w^2+1)
    G = SIntegerGroup([Mat(QQ, [[0, -1], [1, 0]])], label="rot")
    v = density_verdict(G)
    assert v.verdict == NOT_DENSE
    assert "w^2" in v.not_dense_witness[0]


def test_density_verdict_requires_sl2():
    G = SIntegerGroup([Mat.identity(QQ, 3)], label="big")
    with pytest.raises(ValueError):
        density_verdict(G)


def test_lubotzky_scan_sanov():
    rep = lubotzky_scan(builtin_group("sanov"), 31)
    assert rep.verdict.verdict == DENSE_EVIDENCE
    assert rep.exceptional_primes == (2,)
    by_p = {r.p: r for r in rep.records}
    assert by_p[5].psl_quotient_order == 60 and by_p[5].quasisimple
    assert by_p[7].psl_quotient_order == 168 and by_p[7].quasisimple
    assert by_p[11].psl_quotient_order == 660 and by_p[11].quasisimple
    assert by_p[13].psl_quotient_order == 1092 and by_p[13].quasisimple
    assert by_p[17].quasisimple is None          # above the exhaustive-check bound
    assert by_p[3].surjective and by_p[3].quasisimple is False
    for r in rep.records:
        if r.surjective:
            assert r.image_order % r.p == 0   # order divisible by p


def test_lubotzky_scan_closes_each_prime_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return run_closure(*args)

    monkeypatch.setattr(congruence, "run_closure", counting)
    rep = lubotzky_scan(builtin_group("sanov"), 31)
    assert calls == [r.p for r in rep.records] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_lubotzky_scan_triangular():
    rep = lubotzky_scan(builtin_group("triangular"), 13)
    assert rep.verdict.verdict == NOT_DENSE
    assert all(not r.surjective for r in rep.records)


def test_lubotzky_scan_full_sl2z():
    rep = lubotzky_scan(builtin_group("sl2z"), 31)
    assert rep.verdict.verdict == DENSE_EVIDENCE
    assert all(r.surjective for r in rep.records)
    assert rep.exceptional_primes == ()
