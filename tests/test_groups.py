import random
from fractions import Fraction

import pytest

from conftest import (
    nf_matrix_mul,
    random_elementary_product,
    random_gaussian_sl2_word,
    random_invertible,
    random_sl2z_word,
)

from arithgroups.catalog import builtin_field
from arithgroups.density import adjoint_matrix
from arithgroups.errors import BracketNotClosed, NotStabilizing, SingularForm
from arithgroups.groups import (
    GroupPresentation,
    det_poly,
    form_group,
    is_solvable_lie,
    lie_bracket,
    mult_group,
    read_presentation,
    reduce_mod_p,
    restriction_of_scalars,
    ros_point,
    sl_group,
    tangent_space_at_identity,
    unitriangular_group,
    verify_jacobi,
    write_presentation,
)
from arithgroups.matrix import Mat
from arithgroups.mpoly import MPoly
from arithgroups.rings import QQ, IntegersMod

E = lambda rows: Mat(QQ, rows)


def test_sl2_polynomial_is_2x2_determinant():
    pres = sl_group(2)
    expect = (
        MPoly.var(4, 0) * MPoly.var(4, 3)
        - MPoly.var(4, 1) * MPoly.var(4, 2)
        - MPoly.const(4, 1)
    )
    assert pres.polys == (expect,)
    assert pres.satisfied_by(Mat.identity(QQ, 2))


def test_sl3_spot_check_on_random_elementary_products():
    rng = random.Random(3)
    pres = sl_group(3)
    for _ in range(20):
        g = random_elementary_product(rng, 3)
        assert g.det() == 1          # oracle: elementary products have det 1
        assert pres.satisfied_by(g)


def test_sl_group_refuses_large_n():
    with pytest.raises(ValueError):
        sl_group(6)


def test_det_poly_matches_matrix_det():
    rng = random.Random(5)
    for n in (2, 3, 4):
        poly = det_poly(n)
        for _ in range(10):
            g = Mat(QQ, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            assert poly.eval(g.flat()) == g.det()


def test_form_group_symplectic_is_sl2():
    rng = random.Random(7)
    sp = form_group(E([[0, 1], [-1, 0]]))
    for _ in range(20):
        g = random_sl2z_word(rng)
        assert sp.satisfied_by(g)
    assert sp.satisfied_by(Mat.identity(QQ, 2))


def test_form_group_so2_point():
    so2 = form_group(E([[1, 0], [0, 1]]))
    g = E([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    assert so2.satisfied_by(g)          # a^2 + b^2 = 1 with a=3/5, b=4/5
    assert not so2.satisfied_by(E([[2, 0], [0, 1]]))


def test_form_group_rejects_singular_form():
    with pytest.raises(SingularForm):
        form_group(E([[1, 1], [1, 1]]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_tangent_space_dimension_and_traces(n):
    L = tangent_space_at_identity(sl_group(n))
    assert L.dim == n * n - 1
    assert all(b.trace() == 0 for b in L.basis)


def test_unitriangular_tangent_space():
    L = tangent_space_at_identity(unitriangular_group(2))
    assert L.dim == 1
    assert L.basis[0] == E([[0, 1], [0, 0]])


def test_symplectic_tangent_space_equals_sl2_by_hand():
    # oracle: linearizing X^T P X = P at I gives X^T P + P X = 0; for
    # P = (0 1; -1 0) the four equations collapse to x11 + x22 = 0
    by_hand = [(1, 0, 0, 1)]
    from arithgroups.matrix import kernel_basis

    expected = kernel_basis(by_hand)
    L = tangent_space_at_identity(form_group(E([[0, 1], [-1, 0]])))
    assert L.dim == 3
    from test_matrix import field_rref

    got, _ = field_rref([b.flat() for b in L.basis])
    want, _ = field_rref(expected)
    assert got == want


def test_lie_bracket_sl2_triple():
    e = E([[0, 1], [0, 0]])
    f = E([[0, 0], [1, 0]])
    h = E([[1, 0], [0, -1]])
    assert lie_bracket(e, f) == h
    assert lie_bracket(e, e) == E([[0, 0], [0, 0]])
    assert lie_bracket(h, e) == 2 * e


def test_jacobi_identity_on_computed_algebras():
    for pres in (sl_group(2), sl_group(3), form_group(E([[0, 1], [-1, 0]]))):
        L = tangent_space_at_identity(pres)
        assert verify_jacobi(L) >= 0


def test_bracket_closure_rejected_for_non_group_input():
    # x11 = 1 and x22 = 1: the identity satisfies both, but the kernel
    # span{E12, E21} is not closed under the bracket
    nv = 4
    polys = (MPoly.var(nv, 0) - 1, MPoly.var(nv, 3) - 1)
    pres = GroupPresentation(n=2, polys=polys, label="not-a-group")
    with pytest.raises(BracketNotClosed):
        tangent_space_at_identity(pres)


def test_bracket_not_closed_names_the_first_pair_in_row_major_order():
    # I and E11 commute with everything here; [E11, E12 + E21] = E12 - E21 is
    # the first bracket outside the span, and [b2, b1] its negative the next
    from arithgroups.groups import _closure_structure

    basis = (E([[1, 0], [0, 1]]), E([[1, 0], [0, 0]]), E([[0, 1], [1, 0]]))
    with pytest.raises(BracketNotClosed, match=r"^\[b1, b2\] lies outside the span"):
        _closure_structure(basis)


def test_solvability_examples():
    sl2 = tangent_space_at_identity(sl_group(2))
    rep = is_solvable_lie(sl2)
    assert not rep.solvable and rep.series_dims == (3,)

    ut = tangent_space_at_identity(unitriangular_group(3))
    rep = is_solvable_lie(ut)
    assert rep.solvable

    # upper-triangular trace-zero 2x2 algebra: solvable in 2 steps
    from arithgroups.groups import LieAlgebraData, _closure_structure

    basis = (E([[1, 0], [0, -1]]), E([[0, 1], [0, 0]]))
    L = LieAlgebraData(n=2, basis=basis, structure=_closure_structure(basis))
    rep = is_solvable_lie(L)
    assert rep.solvable and rep.series_dims == (2, 1, 0)


def test_small_dimension_always_solvable():
    # every bracket-closed algebra of dim <= 2 must come out solvable
    from arithgroups.groups import LieAlgebraData, _closure_structure

    for basis in (
        (E([[0, 1], [0, 0]]),),
        (E([[1, 0], [0, -1]]), E([[0, 1], [0, 0]])),
        (E([[1, 0], [0, 0]]), E([[0, 0], [0, 1]])),
    ):
        L = LieAlgebraData(n=2, basis=basis, structure=_closure_structure(basis))
        assert is_solvable_lie(L).solvable


def borel_group(n):
    """b_n: the invertible upper-triangular matrices, x_ij = 0 for i > j."""
    polys = tuple(MPoly.var(n * n, i * n + j) for i in range(n) for j in range(i))
    return GroupPresentation(n=n, polys=polys, label=f"b{n}")


def random_form_groups(seed, draws=4):
    """form_group(P) for random rational P, and for P + P^T and P - P^T when invertible."""
    rng = random.Random(seed)
    pool = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2)]
    for n in (2, 3):
        for _ in range(draws):
            P = random_invertible(rng, QQ, n, pool)
            Pt = Mat(QQ, list(zip(*P.rows)))
            for form in (P, P + Pt, P - Pt):
                if form.det() != 0:
                    yield form_group(form)


def structure_presentations():
    from arithgroups import groups
    from arithgroups.cli import _PRESETS

    yield from (_PRESETS[name](groups) for name in sorted(_PRESETS))
    yield from (borel_group(n) for n in (2, 3, 4))
    yield from random_form_groups(seed=5)


@pytest.mark.parametrize("pres", list(structure_presentations()), ids=lambda p: p.label[:24])
def test_structure_constants_give_every_bracket(pres):
    # sum_k c_ij^k b_k = [b_i, b_j] for every i and j, i >= j included
    L = tangent_space_at_identity(pres)
    flats = [b.flat() for b in L.basis]
    for i, bi in enumerate(L.basis):
        for j, bj in enumerate(L.basis):
            got = [sum(c * v[t] for c, v in zip(L.structure[i][j], flats)) for t in range(pres.n ** 2)]
            assert tuple(got) == lie_bracket(bi, bj).flat(), (i, j)


@pytest.mark.parametrize("n, series", [(2, (3, 1, 0)), (3, (6, 3, 1, 0)), (4, (10, 6, 3, 0))])
def test_borel_derived_series(n, series):
    # b_n' is the strictly upper-triangular n_n, whose lower central series
    # drops a superdiagonal at each step while the derived series halves it
    rep = is_solvable_lie(tangent_space_at_identity(borel_group(n)))
    assert rep.solvable and rep.series_dims == series


def test_adjoint_identity_and_diagonal():
    sl2 = tangent_space_at_identity(sl_group(2)).basis
    assert adjoint_matrix(Mat.identity(QQ, 2), sl2) == Mat.identity(QQ, 3)
    g = E([[2, 0], [0, Fraction(1, 2)]])
    ad = adjoint_matrix(g, sl2)
    # basis is (E12, E21, E22 - E11): eigenvalues 4, 1/4, 1
    assert ad == E([[4, 0, 0], [0, Fraction(1, 4), 0], [0, 0, 1]])


def test_adjoint_inverse_pairs():
    rng = random.Random(11)
    sl2 = tangent_space_at_identity(sl_group(2)).basis
    for _ in range(20):
        g = random_sl2z_word(rng)
        assert adjoint_matrix(g, sl2) * adjoint_matrix(g.inverse(), sl2) == Mat.identity(QQ, 3)


def test_adjoint_is_multiplicative():
    rng = random.Random(13)
    sl2 = tangent_space_at_identity(sl_group(2)).basis
    for _ in range(100):
        g = random_sl2z_word(rng, length=4)
        h = random_sl2z_word(rng, length=4)
        assert adjoint_matrix(g * h, sl2) == adjoint_matrix(g, sl2) * adjoint_matrix(h, sl2)


def test_adjoint_not_stabilizing():
    basis = (E([[0, 1], [0, 0]]),)   # span{E12} is not GL_2-stable
    with pytest.raises(NotStabilizing):
        adjoint_matrix(E([[0, -1], [1, 0]]), basis)


def test_ros_mult_group_over_qsqrt2():
    K = builtin_field("qsqrt2")
    ros = restriction_of_scalars(mult_group(), K)
    pres = ros.presentation
    assert pres.n == 2
    assert len(ros.family_matrix) == 0 and len(ros.family_linear) == 2
    rng = random.Random(17)
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        point = E([[a, 2 * b], [b, a]])
        assert pres.satisfied_by(point)
    violations = 0
    trials = 0
    while violations < 100:
        trials += 1
        assert trials < 10000
        m = E([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
        a, c = m.rows[0][0], m.rows[1][0]
        on_locus = m.rows[1][1] == a and m.rows[0][1] == 2 * c
        if on_locus:
            continue
        assert not pres.satisfied_by(m)
        violations += 1


def test_ros_point_identity():
    K = builtin_field("qsqrt2")
    ident = [[K.one(), K.element([0, 0])], [K.element([0, 0]), K.one()]]
    assert ros_point(K, ident) == Mat.identity(QQ, 4)


def test_ros_sl2_over_qi():
    qi = builtin_field("qi")
    ros = restriction_of_scalars(sl_group(2), qi)
    pres = ros.presentation
    assert pres.n == 4 and pres.n ** 2 == 16
    assert len(ros.family_matrix) == 4 and len(ros.family_linear) == 8
    rng = random.Random(19)
    for _ in range(20):
        g = random_gaussian_sl2_word(rng)
        assert pres.satisfied_by(ros_point(qi, g))


def test_ros_point_functorial():
    qi = builtin_field("qi")
    rng = random.Random(23)
    for _ in range(100):
        x = random_gaussian_sl2_word(rng, length=4)
        y = random_gaussian_sl2_word(rng, length=4)
        assert ros_point(qi, nf_matrix_mul(x, y)) == ros_point(qi, x) * ros_point(qi, y)
    x = random_gaussian_sl2_word(rng, length=5)
    px = ros_point(qi, x)
    assert px * px.inverse() == Mat.identity(QQ, 4)


def test_ros_linear_functional_count_matches_rank_formula():
    for name in ("qi", "qsqrt2", "qcbrt2", "zeta5"):
        K = builtin_field(name)
        ros = restriction_of_scalars(mult_group(), K)
        d = K.degree
        assert len(ros.family_linear) == d * d - d


def test_reduce_mod_p_examples():
    pres = sl_group(2)
    red = reduce_mod_p(pres, 7)
    assert red.good_reduction
    assert red.polys[0].eval((1, 0, 0, 1), IntegersMod(7)) == 0

    third = MPoly(4, {(1, 0, 0, 0): Fraction(1, 3), (0, 0, 0, 0): Fraction(-1, 3)})
    pres_bad = GroupPresentation(n=2, polys=(third,), label="third")
    red3 = reduce_mod_p(pres_bad, 3)
    assert not red3.good_reduction and red3.polys == ()
    red5 = reduce_mod_p(pres_bad, 5)
    assert red5.good_reduction


def test_reduce_form_group_mod_5():
    rng = random.Random(29)
    sp = form_group(E([[0, 1], [-1, 0]]))
    red = reduce_mod_p(sp, 5)
    assert red.good_reduction
    ring = IntegersMod(5)
    for _ in range(20):
        g = random_sl2z_word(rng)
        gg = Mat(ring, [[ring.from_rational(Fraction(x)) for x in row] for row in g.rows])
        assert red.satisfied_by(gg)


def test_membership_spot_checks():
    rng = random.Random(31)
    sl3 = sl_group(3)
    ut3 = unitriangular_group(3)
    for _ in range(50):
        g = random_elementary_product(rng, 3, length=5)
        h = random_elementary_product(rng, 3, length=5)
        assert sl3.satisfied_by(g * h)
        assert sl3.satisfied_by(g.inverse())
        u = Mat(QQ, [[1, rng.randint(-3, 3), rng.randint(-3, 3)],
                     [0, 1, rng.randint(-3, 3)], [0, 0, 1]])
        v = Mat(QQ, [[1, rng.randint(-3, 3), rng.randint(-3, 3)],
                     [0, 1, rng.randint(-3, 3)], [0, 0, 1]])
        assert ut3.satisfied_by(u * v)
        assert ut3.satisfied_by(u.inverse())


def test_presentation_file_roundtrip(tmp_path):
    pres = sl_group(3)
    path = tmp_path / "sl3.pres"
    write_presentation(pres, path)
    back = read_presentation(path)
    assert back.n == pres.n and back.label == pres.label
    assert back.polys == pres.polys
