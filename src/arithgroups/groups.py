"""Linear algebraic groups as polynomial systems in matrix coordinates.

A presentation is a matrix size n plus polynomials in the n^2 coordinates
x_ij (flattened row-major) whose common zeros inside GL_n form the group.
From it we compute the tangent space at the identity with its bracket
structure, adjoint matrices, restriction of scalars along a number field,
and reductions mod p.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import (
    BadReduction,
    BracketNotClosed,
    NotStabilizing,
    SingularForm,
    UsageError,
    read_user_file,
)
from .matrix import Mat, kernel_basis, rref, solve_in_span
from .mpoly import MPoly, eval_matrix
from .numberfield import regular_representation
from .rings import QQ, IntegersMod


def var_index(i, j, n):
    """Flat index of the coordinate x_ij (0-based, row-major)."""
    return i * n + j


@dataclass(frozen=True)
class GroupPresentation:
    n: int
    polys: tuple
    label: str

    def __post_init__(self):
        ident = Mat.identity(QQ, self.n).flat()
        for P in self.polys:
            if P.eval(ident) != 0:
                raise ValueError(f"identity violates a defining polynomial of {self.label}")

    def satisfied_by(self, mat, ring=QQ):
        """True when every defining polynomial vanishes on the matrix."""
        flat = mat.flat() if isinstance(mat, Mat) else tuple(mat)
        return all(P.eval(flat, ring) == ring.zero for P in self.polys)


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
            acc = MPoly.const(nv, -Fraction(P.rows[a][b]))
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


@dataclass(frozen=True)
class LieAlgebraData:
    n: int
    basis: tuple            # Mat over Q
    structure: tuple        # structure[i][j] = coords of [b_i, b_j] in the basis

    @property
    def dim(self):
        return len(self.basis)


def _closure_structure(basis):
    """Structure constants, or raise when the span is not bracket-closed."""
    vecs = [b.flat() for b in basis]
    structure = []
    for i, bi in enumerate(basis):
        row = []
        for j, bj in enumerate(basis):
            target = lie_bracket(bi, bj).flat()
            coords = solve_in_span(QQ, vecs, target)
            if coords is None:
                raise BracketNotClosed(
                    f"[b{i}, b{j}] lies outside the span: the input is not a group presentation"
                )
            row.append(coords)
        structure.append(tuple(row))
    return tuple(structure)


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
        basis_vecs = kernel_basis(QQ, rows)
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


@dataclass(frozen=True)
class SolvabilityReport:
    solvable: bool
    series_dims: tuple      # dimensions of the derived series, starting at dim L


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
        reduced, _ = rref(QQ, vecs)
        if len(reduced) == dims[-1]:
            return SolvabilityReport(solvable=False, series_dims=tuple(dims))
        dims.append(len(reduced))
        n = L.n
        mats = [Mat(QQ, [v[i * n : (i + 1) * n] for i in range(n)]) for v in reduced]
        current = reduced


def adjoint_matrix(g, L):
    """Matrix of the conjugation action X -> g X g^{-1} in the basis of L.

    Columns hold the coordinates of the conjugated basis elements, so
    Ad(gh) = Ad(g) Ad(h) as matrices acting on coordinate columns.
    """
    ginv = g.inverse()
    vecs = [b.flat() for b in L.basis]
    cols = []
    for b in L.basis:
        conj = g * b * ginv
        coords = solve_in_span(QQ, vecs, conj.flat())
        if coords is None:
            raise NotStabilizing("conjugation does not preserve the span of the Lie algebra")
        cols.append(coords)
    dim = len(L.basis)
    return Mat(QQ, [[cols[j][i] for j in range(dim)] for i in range(dim)])


@dataclass(frozen=True)
class RosPresentation:
    presentation: GroupPresentation
    field: object
    base: GroupPresentation
    family_matrix: tuple      # d^2 equations per base polynomial
    family_linear: tuple      # linear span equations, one per (block, functional)


def restriction_of_scalars(G, K):
    """Weil restriction of a rational presentation along the field K.

    Produces a presentation in (n*d)^2 variables: the base polynomials with a
    d x d block of fresh variables substituted for each coordinate, plus the
    linear functionals cutting the image of the regular representation on
    every block.
    """
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
    functionals = kernel_basis(QQ, rho_vecs)
    functionals = [_primitive(vec) for vec in functionals]

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
    from math import gcd, lcm

    fr = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * denom) for f in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def ros_point(K, entries):
    """Blockwise embedding M_n(k) -> M_{nd}(Q) by the regular representation."""
    n = len(entries)
    d = K.degree
    N = n * d
    out = [[Fraction(0)] * N for _ in range(N)]
    for s in range(n):
        for t in range(n):
            rho = regular_representation(entries[s][t])
            for a in range(d):
                for b in range(d):
                    out[s * d + a][t * d + b] = rho.rows[a][b]
    return Mat(QQ, out)


@dataclass(frozen=True)
class ReducedPresentation:
    n: int
    p: int
    polys: tuple
    good_reduction: bool

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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
