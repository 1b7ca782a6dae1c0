import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from conftest import random_sl2z_word

from arithgroups import chain, closure, density
from arithgroups.catalog import builtin_group
from arithgroups.closure import run_closure
from arithgroups.congruence import (
    SIntegerGroup,
    bfs_closure,
    bfs_closure_flat,
    elementary_generators_sl,
    order_sl,
    reduce_generators,
)
from arithgroups.density import (
    DENSE_EVIDENCE,
    INCONCLUSIVE,
    NOT_DENSE,
    SL2_BASIS,
    OneParamSubgroup,
    _common_eigenvector,
    _generated_subgroup,
    ad_span,
    density_verdict,
    gamma_plus,
    is_unipotent,
    lubotzky_scan,
    one_param_point,
    unipotent_closure_subgroup,
)
from arithgroups.groups import sl_group, tangent_space_at_identity
from arithgroups.matrix import Mat, kernel_basis, rref
from arithgroups.rings import QQ, GF


@pytest.fixture(scope="module")
def sl2():
    return tangent_space_at_identity(sl_group(2)).basis


def test_sl2_basis_is_the_derived_tangent_space(sl2):
    # the verdict's constant basis is the one derived symbolically from det = 1
    assert SL2_BASIS == sl2


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
    c = bfs_closure(elementary_generators_sl(2, p))
    assert c.order == order
    gp = gamma_plus(c)
    assert gp.order == order


def test_gamma_plus_of_diagonal_group_is_trivial():
    ring = GF(7)
    diag = Mat(ring, [[3, 0], [0, 5]])   # 3*5 = 1 mod 7
    c = bfs_closure([diag])
    assert c.order == 6                   # cyclic of order p-1
    gp = gamma_plus(c)
    assert gp.order == 1


@pytest.mark.parametrize("n,p", [(2, 5), (2, 7), (3, 2)])
def test_generated_subgroup_matches_closing_over_every_candidate(n, p):
    rng = random.Random(n * 100 + p)
    pool = bfs_closure(elementary_generators_sl(n, p)).elements
    for _ in range(20):
        candidates = rng.sample(pool, rng.randint(1, 6))
        for cap in (len(pool), 10):
            want = bfs_closure_flat(candidates, n, p, cap=cap, element_cap=cap)
            got = _generated_subgroup(candidates, n, p, cap)
            assert (got.order, got.truncated, got.elements) == (
                want.order, want.truncated, want.elements)


def test_unipotent_closure_examples():
    pair = [Mat(GF(7), [[1, 1], [0, 1]]), Mat(GF(7), [[1, 0], [1, 1]])]
    u = unipotent_closure_subgroup(pair, max_word_len=2)
    full = bfs_closure(pair)
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
    gp = gamma_plus(bfs_closure(pair))
    assert u.order == gp.order == order_sl(2, p)


def transvection(ring, i, j):
    """I + E_ij in SL_3 over ring."""
    rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    rows[i][j] = 1
    return Mat(ring, rows)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_nori_equality_sl3_subgroups(p):
    ring = GF(p)
    cases = [
        [transvection(ring, 0, 1)],
        [transvection(ring, 0, 1), transvection(ring, 0, 2)],   # commuting pair
        [transvection(ring, 0, 1), transvection(ring, 1, 2)],   # Heisenberg pair
    ]
    for gens in cases:
        u = unipotent_closure_subgroup(gens, max_word_len=3)
        gp = gamma_plus(bfs_closure(gens))
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
    reduced, _ = rref(vectors)
    return len(reduced)


def test_ad_span_upper_triangular_pair_is_6(sl2):
    # independent conjugation+rank oracle (the flag-preserving span has
    # dimension 6: matrices upper triangular in the basis order e, h, f)
    pair = [Mat(QQ, [[1, 1], [0, 1]]), Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])]
    assert conjugation_span_oracle(pair) == 6
    dim, _ = ad_span(sl2, pair)
    assert dim == 6 < 9


def test_ad_span_matches_the_word_oracle_at_its_length(sl2):
    # ad_span's length is the least word length whose span is full, or, for a
    # span that closes short, the last length at which it grew plus 2
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=2))
    matrices = st.lists(entries, min_size=4, max_size=4).map(
        lambda e: Mat(QQ, [e[:2], e[2:]])).filter(lambda g: g.det() != 0)
    outcomes = Counter()

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(matrices, min_size=1, max_size=2))
    def check(gens):
        dim, length = ad_span(sl2, gens)
        full = dim == 9
        depth = length if full else length - 2
        assert conjugation_span_oracle(gens, words_depth=depth) == dim
        if depth > 0:
            assert conjugation_span_oracle(gens, words_depth=depth - 1) < dim
        outcomes[full] += 1

    check()
    assert set(outcomes) == {True, False}


def test_ad_span_conjugation_covariance(sl2):
    rng = random.Random(59)
    pair = [Mat(QQ, [[1, 1], [0, 1]]), Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])]
    base_dim, _ = ad_span(sl2, pair)
    for _ in range(3):
        hconj = random_sl2z_word(rng, length=4)
        conj = [hconj * g * hconj.inverse() for g in pair]
        dim, _ = ad_span(sl2, conj)
        assert dim == base_dim


@pytest.fixture(scope="module")
def sl3():
    return tangent_space_at_identity(sl_group(3)).basis


def test_ad_span_sl3_transvections_full(sl3):
    # E12, E23, E31 generate SL_3(Z), which is Zariski-dense, so Ad spans
    # End(sl_3) by Burnside
    gens = [transvection(QQ, 0, 1), transvection(QQ, 1, 2), transvection(QQ, 2, 0)]
    assert ad_span(sl3, gens) == (64, 4)


def test_ad_span_sl3_rational_rotations(sl3):
    # sl_3 = so_3 + sym_0 as an SO_3-module, with irreducible summands of
    # dimension 3 and 5, so two rotations generating a dense subgroup of SO_3
    # span End(so_3) + End(sym_0), of dimension 3^2 + 5^2
    c, s = Fraction(3, 5), Fraction(4, 5)
    rz = Mat(QQ, [[c, -s, 0], [s, c, 0], [0, 0, 1]])
    rx = Mat(QQ, [[1, 0, 0], [0, c, -s], [0, s, c]])
    assert ad_span(sl3, [rz, rx]) == (34, 5)


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


def _moves(h, v, s, t):
    """True when the rational matrix h maps v off its line over Q(w), w^2 = s w + t.

    The entries of v are pairs (x, y) meaning x + y w.
    """
    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[1] * t, x[0] * y[1] + x[1] * y[0] + x[1] * y[1] * s)

    hv = [tuple(row[0] * x + row[1] * y for x, y in zip(*v)) for row in h.rows]
    return mul(hv[0], v[1]) != mul(hv[1], v[0])


def _rational_roots(tr, det):
    """The rational roots of x^2 - tr x + det."""
    disc = Fraction(tr) ** 2 - 4 * Fraction(det)
    if disc < 0:
        return []
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    return [(tr + Fraction(num, den)) / 2, (tr - Fraction(num, den)) / 2]


def _check_common_eigenvector(gens):
    """Check _common_eigenvector(gens) with Q(w) arithmetic; returns the kind of answer."""
    found = _common_eigenvector(gens)
    nonscalar = [h for h in gens if h.rows[0][1] or h.rows[1][0] or h.rows[0][0] != h.rows[1][1]]
    if nonscalar:
        g = nonscalar[0]
        (a, b), (c, d) = g.rows
        tr, det = g.trace(), g.det()
        roots = _rational_roots(tr, det)
    if found is None:
        # every eigenline of the first non-scalar generator is moved
        if roots:
            lines = [((b, 0), (lam - a, 0)) if (b, lam) != (0, a) else ((lam - d, 0), (c, 0))
                     for lam in roots]
            assert all(any(_moves(h, v, 0, 0) for h in gens) for v in lines)
        else:
            assert any(_moves(h, ((b, 0), (-a, 1)), tr, -det) for h in gens)
        return "none"
    if found[0].startswith("Q[w]"):
        assert not roots and found[0] == f"Q[w]/(w^2 - ({tr})w + ({det}))"
        assert not any(_moves(h, found[1], tr, -det) for h in gens)
        return "quadratic"
    v = tuple((x, 0) for x in found[1])
    assert v != ((0, 0), (0, 0))
    assert not any(_moves(h, v, 0, 0) for h in gens)
    return "rational"


def test_common_eigenvector_is_fixed_by_every_generator():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    matrices = st.lists(rationals, min_size=4, max_size=4).map(
        lambda e: Mat(QQ, [e[:2], e[2:]]))

    @st.composite
    def generator_sets(draw):
        # a commuting family alpha I + beta g, sometimes with other matrices
        g = draw(matrices)
        coeffs = draw(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=3))
        gens = [Mat(QQ, [[a, 0], [0, a]]) + b * g for a, b in coeffs]
        gens += draw(st.lists(matrices, max_size=2))
        return draw(st.permutations(gens))

    outcomes = Counter()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(generator_sets())
    def check(gens):
        outcomes[_check_common_eigenvector(gens)] += 1

    check()
    assert set(outcomes) == {"none", "quadratic", "rational"}


def _line_by_field_elimination(g, lam):
    """The eigenline of g for lam as a normalised Fraction kernel vector."""
    (a, b), (c, d) = ([Fraction(x) for x in row] for row in g.rows)
    rows = [[a - lam, b], [c, d - lam]]
    row = next(r for r in rows if r[0]) if any(r[0] for r in rows) else None
    v = (1, 0) if row is None else (-row[1] / row[0], 1)
    return tuple(x.numerator if x.denominator == 1 else x for x in map(Fraction, v))


def _random_line_sets(rng):
    """Generator sets with a common rational line, some with a second generator
    that moves it, integral and rational, and det-1 words in S and T."""
    h = random_sl2z_word(rng, rng.randint(0, 4)) * Mat(QQ, [[rng.choice((1, 2, 3)), 0], [0, 1]])
    tri = []
    for _ in range(rng.randint(1, 3)):
        x, z = rng.choice((1, 2, -1, Fraction(1, 2))), rng.choice((1, -1, 3, Fraction(2, 3)))
        tri.append(h * Mat(QQ, [[x, rng.randint(-3, 3)], [0, z]]) * h.inverse())
    if rng.random() < 0.4:
        tri.append(random_sl2z_word(rng, rng.randint(1, 5)))
    return tri if rng.random() < 0.8 else [random_sl2z_word(rng) for _ in range(2)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_common_rational_line_matches_field_elimination(seed):
    # each candidate line is tested on a direction (-y, x) of g - lam; the line
    # returned is the one kernel_basis gives, and the one the Fraction
    # elimination of g - lam gives, types included
    rng = random.Random(seed)
    rational_lines = 0
    for _ in range(400):
        gens = _random_line_sets(rng)
        found = _common_eigenvector(gens)
        nonscalar = [g for g in gens if g.rows[0][1] or g.rows[1][0] or g.rows[0][0] != g.rows[1][1]]
        if not nonscalar:
            continue
        g = nonscalar[0]
        roots = {QQ.canon(x) for x in _rational_roots(g.trace(), g.det())}
        (a, b), (c, d) = g.rows
        fixed = [(lam, _line_by_field_elimination(g, lam)) for lam in roots]
        fixed = [(lam, v) for lam, v in fixed if not any(_moves(h, [(x, 0) for x in v], 0, 0)
                                                         for h in gens)]
        if not roots or not fixed:
            assert found is None or found[0].startswith("Q[w]")
            continue
        lam, v = fixed[0]
        assert found == (f"Q (eigenvalue {lam})", v)
        assert [type(x) for x in found[1]] == [type(x) for x in v]
        assert found[1] == kernel_basis([[QQ.sub(a, lam), b], [c, QQ.sub(d, lam)]])[0]
        rational_lines += 1
    assert rational_lines > 100


def test_witness_trace_is_an_int_for_an_integral_group():
    # the CLI still prints it as "2/1"
    trace = density_verdict(builtin_group("sanov")).infinite_order_witness["trace"]
    assert trace == Fraction(2, 1) and type(trace) is int
    half = Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])
    g = SIntegerGroup([Mat(QQ, [[1, 1], [0, 1]]) * half, Mat(QQ, [[1, 0], [1, 1]])], label="g")
    trace = density_verdict(g).infinite_order_witness["trace"]
    assert trace == Fraction(5, 2)


@pytest.mark.parametrize("gens, verdict, dim, reason", [
    # the dihedral group of order 8 is finite: no word of infinite order
    ([[[0, -1], [1, 0]], [[1, 0], [0, -1]]], INCONCLUSIVE, 3, None),
    # the normaliser of a split torus is infinite but not Zariski-dense
    ([[[2, 1], [1, 1]], [[0, -1], [1, 0]]], INCONCLUSIVE, 5, "trace outside [-2, 2]"),
    ([[[-1, 1], [0, -1]], [[-1, 0], [1, -1]]], DENSE_EVIDENCE, 9,
     "negative of a nontrivial unipotent"),
], ids=["dihedral", "torus-normaliser", "negative-unipotents"])
def test_density_verdict_without_common_line(gens, verdict, dim, reason):
    v = density_verdict(SIntegerGroup([Mat(QQ, g) for g in gens], label="g"))
    assert (v.verdict, v.ad_span_dim, v.not_dense_witness) == (verdict, dim, None)
    witness = v.infinite_order_witness
    assert (None if witness is None else witness["reason"]) == reason


def test_witness_search_inverts_the_generators_once(monkeypatch):
    calls = []
    symmetrized = density._symmetrized
    monkeypatch.setattr(density, "_symmetrized", lambda gens: calls.append(gens) or symmetrized(gens))
    dihedral = [Mat(QQ, [[0, -1], [1, 0]]), Mat(QQ, [[1, 0], [0, -1]])]
    # the group is finite, so the search visits every one of its 8 elements
    assert density._witness_search(density._symmetrized(dihedral)) is None
    assert len(calls) == 1
    calls.clear()
    # one call serves both the Ad-span and the witness search
    assert density_verdict(SIntegerGroup(dihedral, label="g")).infinite_order_witness is None
    assert len(calls) == 1


def test_density_verdict_inverts_each_generator_once_per_symmetrization(monkeypatch):
    inverted = []
    inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda self: inverted.append(self) or inverse(self))
    sanov = builtin_group("sanov")
    assert density_verdict(sanov).verdict == DENSE_EVIDENCE
    # the Ad-span takes Ad(g^-1) from the inverse _symmetrized made, not from a second
    # inversion, and the witness search words in the same inverses
    assert inverted == list(sanov.gens)


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
    closed = []
    counted = []
    chain_order = chain._chain_order

    def closing(*args):
        closed.append(args[2])
        return run_closure(*args)

    def counting(*args):
        counted.append(args[2])
        return chain_order(*args)

    monkeypatch.setattr(closure, "run_closure", closing)
    monkeypatch.setattr(chain, "_chain_order", counting)
    rep = lubotzky_scan(builtin_group("sanov"), 31)
    # every prime is only counted; the quasisimple check lists G itself from the count
    assert closed == []
    assert counted == [r.p for r in rep.records] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_lubotzky_scan_triangular():
    rep = lubotzky_scan(builtin_group("triangular"), 13)
    assert rep.verdict.verdict == NOT_DENSE
    assert all(not r.surjective for r in rep.records)


def test_lubotzky_scan_full_sl2z():
    rep = lubotzky_scan(builtin_group("sl2z"), 31)
    assert rep.verdict.verdict == DENSE_EVIDENCE
    assert all(r.surjective for r in rep.records)
    assert rep.exceptional_primes == ()
