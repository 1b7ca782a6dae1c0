"""Linear algebraic groups as polynomial systems in matrix coordinates.

A presentation is a matrix size n plus polynomials in the n^2 coordinates
x_ij (flattened row-major) whose common zeros inside GL_n form the group.
From it we compute the tangent space at the identity with its bracket
structure, restriction of scalars along a number field, and reductions
mod p.  ideals is imported only by the two functions that restrict
scalars.  The density checks do not load this module: density holds the
adjoint action and sl_2's basis as a constant.
"""

from collections import namedtuple
from itertools import combinations, permutations
from math import gcd

from .errors import (
    BadReduction,
    BracketNotClosed,
    SingularForm,
    UsageError,
    read_user_file,
    write_user_file,
)
from .matrix import Mat, _kernel, kernel_basis, rref, solve_in_span
from .mpoly import MPoly, eval_matrix
from .rings import QQ, IntegersMod, integral


def var_index(i, j, n):
    """Flat index of the coordinate x_ij (0-based, row-major)."""
    return i * n + j


class GroupPresentation(namedtuple("GroupPresentation", ["n", "polys", "label"])):
    __slots__ = ()

    def __new__(cls, n, polys, label):
        ident = Mat.identity(QQ, n).flat()
        for P in polys:
            if P.eval(ident) != 0:
                raise ValueError(f"identity violates a defining polynomial of {label}")
        return super().__new__(cls, n, polys, label)

    def satisfied_by(self, mat):
        """True when every defining polynomial vanishes on the rational matrix."""
        flat = mat.flat() if isinstance(mat, Mat) else tuple(mat)
        return all(P.eval(flat) == 0 for P in self.polys)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_poly(n):
    """The determinant of (x_ij) as a sparse polynomial in n^2 variables."""
    nv = n * n
    terms = {}
    for perm in permutations(range(n)):
        e = [0] * nv
        for i in range(n):
            e[var_index(i, perm[i], n)] += 1
        terms[tuple(e)] = _perm_sign(perm)
    return MPoly(nv, terms)


def sl_group(n):
    """SL_n cut out by det(x_ij) - 1, expanded exactly (n <= 5)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 5:
        raise ValueError("determinant expansion beyond n = 5 is out of desk range")
    return GroupPresentation(n=n, polys=(det_poly(n) - 1,), label=f"sl{n}")


def unitriangular_group(n):
    """Upper unitriangular matrices: x_ii = 1, x_ij = 0 below the diagonal."""
    nv = n * n
    polys = []
    for i in range(n):
        polys.append(MPoly.var(nv, var_index(i, i, n)) - 1)
        for j in range(i):
            polys.append(MPoly.var(nv, var_index(i, j, n)))
    return GroupPresentation(n=n, polys=tuple(polys), label=f"unitriangular{n}")


def mult_group():
    """GL_1 with no equations; membership is invertibility in the ambient GL."""
    return GroupPresentation(n=1, polys=(), label="mult")


def form_group(P):
    """Matrices preserving the bilinear form with Gram matrix P: X^T P X = P."""
    n = P.n
    if P.det() == 0:
        raise SingularForm("the form matrix must be invertible")
    nv = n * n
    xs = [[MPoly.var(nv, var_index(i, j, n)) for j in range(n)] for i in range(n)]
    polys = []
    for a in range(n):
        for b in range(n):
            acc = MPoly.const(nv, -P.rows[a][b])
            for i in range(n):
                for j in range(n):
                    c = P.rows[i][j]
                    if c != 0:
                        acc = acc + c * xs[i][a] * xs[j][b]
            polys.append(acc)
    label = "form[" + ";".join(",".join(str(x) for x in row) for row in P.rows) + "]"
    return GroupPresentation(n=n, polys=tuple(polys), label=label)


def lie_bracket(A, B):
    """[A, B] = AB - BA."""
    return A * B - B * A


class LieAlgebraData(namedtuple("LieAlgebraData", ["n", "basis", "structure"])):
    """A Lie algebra of n x n matrices.

    basis is a tuple of Mat over Q; structure[i][j] holds the coordinates of
    [b_i, b_j] in the basis.
    """

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)


def _closure_structure(basis):
    """Structure constants, or raise when the span is not bracket-closed."""
    dim = len(basis)
    brackets = [lie_bracket(bi, bj).flat() for bi in basis for bj in basis]
    coords = solve_in_span([b.flat() for b in basis], brackets)
    for t, c in enumerate(coords):
        if c is None:
            raise BracketNotClosed(
                f"[b{t // dim}, b{t % dim}] lies outside the span: the input is not a group presentation"
            )
    return tuple(tuple(coords[i * dim:(i + 1) * dim]) for i in range(dim))


def tangent_space_at_identity(pres):
    """Kernel of the Jacobian of the defining polynomials at the identity.

    Rows of the Jacobian are the differentials dP at x = identity; the kernel
    is returned with a canonical (rref) basis and full structure constants.
    """
    n = pres.n
    nv = n * n
    ident = Mat.identity(QQ, n).flat()
    rows = []
    for P in pres.polys:
        rows.append(tuple(P.deriv(k).eval(ident) for k in range(nv)))
    if rows:
        basis_vecs = kernel_basis(rows)
    else:
        basis_vecs = [tuple(QQ.one if k == t else QQ.zero for k in range(nv)) for t in range(nv)]
    basis = tuple(
        Mat(QQ, [vec[i * n : (i + 1) * n] for i in range(n)]) for vec in basis_vecs
    )
    return LieAlgebraData(n=n, basis=basis, structure=_closure_structure(basis))


def verify_jacobi(L):
    """Exact Jacobi identity on every basis triple; returns the triple count."""
    b = L.basis
    bracket = {(i, j): lie_bracket(b[i], b[j]) for i, j in combinations(range(len(b)), 2)}
    count = 0
    for i, j, k in combinations(range(len(b)), 3):
        # [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
        s = (
            lie_bracket(bracket[i, j], b[k])
            + lie_bracket(bracket[j, k], b[i])
            - lie_bracket(bracket[i, k], b[j])
        )
        if any(x != 0 for x in s.flat()):
            raise AssertionError(f"Jacobi fails on basis triple ({i},{j},{k})")
        count += 1
    return count


class SolvabilityReport(namedtuple("SolvabilityReport", ["solvable", "series_dims"])):
    """series_dims are the dimensions of the derived series, starting at dim L."""

    __slots__ = ()


def is_solvable_lie(L):
    """Derived series by exact span computations; solvable iff it reaches 0."""
    current = [b.flat() for b in L.basis]
    dims = [len(current)]
    mats = list(L.basis)
    while True:
        if not current:
            return SolvabilityReport(solvable=True, series_dims=tuple(dims))
        brackets = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                brackets.append(lie_bracket(mats[i], mats[j]))
        vecs = [b.flat() for b in brackets]
        reduced, _ = rref(vecs)
        if len(reduced) == dims[-1]:
            return SolvabilityReport(solvable=False, series_dims=tuple(dims))
        dims.append(len(reduced))
        n = L.n
        mats = [Mat(QQ, [v[i * n : (i + 1) * n] for i in range(n)]) for v in reduced]
        current = reduced


class RosPresentation(namedtuple("RosPresentation", [
        "presentation", "field", "base", "family_matrix", "family_linear"])):
    """A restriction of scalars of the GroupPresentation base along field.

    family_matrix holds d^2 equations per base polynomial; family_linear the
    linear span equations, one per (block, functional).
    """

    __slots__ = ()


def restriction_of_scalars(G, K):
    """Weil restriction of a rational presentation along the field K.

    Produces a presentation in (n*d)^2 variables: the base polynomials with a
    d x d block of fresh variables substituted for each coordinate, plus the
    linear functionals cutting the image of the regular representation on
    every block.
    """
    from .ideals import regular_representation

    n, d = G.n, K.degree
    N = n * d
    NV = N * N

    def block(s, t):
        return [
            [MPoly.var(NV, (s * d + a) * N + (t * d + b)) for b in range(d)]
            for a in range(d)
        ]

    blocks = [block(v // n, v % n) for v in range(n * n)]

    fam1 = []
    for P in G.polys:
        mat = eval_matrix(P, blocks, d, NV)
        for a in range(d):
            for b in range(d):
                if not mat[a][b].is_zero():
                    fam1.append(mat[a][b])

    # linear functionals vanishing exactly on the image of the regular
    # representation, computed by rank rather than the d^2 - d count
    alpha = K.gen()
    alpha_pows = [K.one()]
    for _ in range(d - 1):
        alpha_pows.append(alpha_pows[-1] * alpha)
    rho_vecs = [regular_representation(h).flat() for h in alpha_pows]
    functionals = [_primitive(vec) for vec in _kernel(rho_vecs)[1]]

    fam2 = []
    for s in range(n):
        for t in range(n):
            for F in functionals:
                acc = MPoly(NV)
                for a in range(d):
                    for b in range(d):
                        c = F[a * d + b]
                        if c != 0:
                            acc = acc + c * MPoly.var(NV, (s * d + a) * N + (t * d + b))
                fam2.append(acc)

    pres = GroupPresentation(
        n=N,
        polys=tuple(fam1) + tuple(fam2),
        label=f"ros({G.label};{K.name})",
    )
    return RosPresentation(
        presentation=pres,
        field=K,
        base=G,
        family_matrix=tuple(fam1),
        family_linear=tuple(fam2),
    )


def _primitive(vec):
    """Scale a rational vector to coprime integers with positive lead."""
    (ints,), _ = integral([vec])
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def ros_point(K, entries):
    """Blockwise embedding M_n(k) -> M_{nd}(Q) by the regular representation."""
    from .ideals import regular_representation

    n = len(entries)
    d = K.degree
    N = n * d
    out = [[0] * N for _ in range(N)]
    for s in range(n):
        for t in range(n):
            rho = regular_representation(entries[s][t])
            for a in range(d):
                for b in range(d):
                    out[s * d + a][t * d + b] = rho.rows[a][b]
    return Mat(QQ, out)


class ReducedPresentation(namedtuple("ReducedPresentation", ["n", "p", "polys", "good_reduction"])):
    __slots__ = ()

    def satisfied_by(self, mat):
        ring = IntegersMod(self.p)
        flat = mat.flat() if isinstance(mat, Mat) else tuple(mat)
        return all(P.eval(flat, ring) == 0 for P in self.polys)


def reduce_mod_p(G, p):
    """Reduce the defining polynomials mod p.

    Polynomials with a coefficient denominator divisible by p cannot be
    reduced; they are dropped and the good-reduction flag comes back False.
    """
    kept = []
    good = True
    for P in G.polys:
        if P.denominator_lcm() % p == 0:
            good = False
            continue
        kept.append(P.reduce_mod(p))
    red = ReducedPresentation(n=G.n, p=p, polys=tuple(kept), good_reduction=good)
    ring = IntegersMod(p)
    ident = Mat.identity(ring, G.n)
    if not red.satisfied_by(ident):
        raise BadReduction(f"identity violates the reduction of {G.label} mod {p}")
    return red


def write_presentation(pres, path):
    """Line-oriented interchange format: header then one polynomial per line."""
    lines = [
        "# arithgroups presentation v1: vars x_ij row-major",
        f"n={pres.n}",
        f"label={pres.label}",
    ]
    for P in pres.polys:
        lines.append("poly=" + P.encode())
    write_user_file(path, ("\n".join(lines) + "\n").encode("utf-8"), "presentation file")


def read_presentation(path):
    """Parse the interchange format; a malformed file raises UsageError naming it."""
    lines = read_user_file(path, "presentation file")
    n = None
    label = "unnamed"
    polys = []
    try:
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            if key == "n":
                n = int(val)
                if n < 1:
                    raise ValueError(f"matrix size must be >= 1, got n={n}")
            elif key == "label":
                label = val
            elif key == "poly":
                if n is None:
                    raise ValueError("polynomial before the matrix size header")
                polys.append(MPoly.decode(n * n, val))
        if n is None:
            raise ValueError("missing matrix size header")
        return GroupPresentation(n=n, polys=tuple(polys), label=label)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{path}: {exc}") from None
