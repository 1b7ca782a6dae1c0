"""Exact dense matrices over Q or Z/m, and linear algebra over Q.

Matrices are immutable; every operation returns a fresh value, so instances
can be shared freely between concurrent scans.  The determinant and the
inverse, over Q and Z/m (prime or composite), kernels and solutions over Q
each come from one fraction-free elimination on an integer lift of the
matrix.  solve_in_span eliminates its basis once for any number of targets,
carried as extra columns, and a kernel is read off the eliminated integer
rows.  Over Q each result is divided out once, at the end, through
rings.rational, so no Fraction is made unless a result is not an integer.
"""

from math import gcd

from .errors import NotInvertible
from .rings import IntegersMod, integral, rational


class Mat:
    """An immutable matrix over QQ or IntegersMod(m), rows of canonical elements."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(ring.canon(x) for x in row) for row in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @staticmethod
    def identity(ring, n):
        return Mat(ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        return self.nrows

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.ring == self.ring
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return f"Mat({self.ring}, {[list(r) for r in self.rows]})"

    def __add__(self, other):
        r = self.ring
        return Mat(r, [
            [r.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        r = self.ring
        return Mat(r, [
            [r.sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        r = self.ring
        return Mat(r, [[r.neg(a) for a in row] for row in self.rows])

    def __mul__(self, other):
        r = self.ring
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            bt = list(zip(*other.rows))
            out = []
            for row in self.rows:
                new = []
                for col in bt:
                    acc = r.zero
                    for a, b in zip(row, col):
                        acc = r.add(acc, r.mul(a, b))
                    new.append(acc)
                out.append(new)
            return Mat(r, out)
        c = r.canon(other)
        return Mat(r, [[r.mul(c, a) for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __pow__(self, e):
        n = self.n
        if e < 0:
            return self.inverse() ** (-e)
        acc = Mat.identity(self.ring, n)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def trace(self):
        r = self.ring
        acc = r.zero
        for i in range(self.n):
            acc = r.add(acc, self.rows[i][i])
        return acc

    def flat(self):
        return tuple(x for row in self.rows for x in row)

    def det(self):
        """The determinant, over Q or Z/m."""
        n = self.n
        rows, scale = self._lift()
        d, pivots = _fraction_free(rows, n)
        if len(pivots) < n:
            return 0
        if isinstance(self.ring, IntegersMod):
            return d % self.ring.m
        return rational(d, scale ** n)

    def inverse(self):
        """The inverse, over Q or Z/m; NotInvertible when the det is not a unit."""
        n = self.n
        rows, scale = self._lift()
        rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        d, pivots = _fraction_free(rows, n)
        if len(pivots) < n:
            d = 0
        r = self.ring
        if isinstance(r, IntegersMod):
            if not r.is_unit(d):
                raise NotInvertible(f"det {d % r.m} is not a unit mod {r.m}")
            dinv = r.inv(d % r.m)
            return Mat(r, [[x * dinv for x in row[n:]] for row in rows])
        if d == 0:
            raise NotInvertible("matrix is singular")
        return Mat(r, [[rational(scale * x, d) for x in row[n:]] for row in rows])

    def _lift(self):
        """(B, D) with B = D * self an integer matrix.

        Over Z/m B holds the residues and D = 1; over Q, D is the lcm of the
        entry denominators.
        """
        if isinstance(self.ring, IntegersMod):
            return [list(row) for row in self.rows], 1
        return integral(self.rows)


def _fraction_free(rows, width):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on integer rows, in place.

    Pivots are taken column by column in the first width columns, each from
    the first row, at or below the rows pivoted so far, that is nonzero there.
    Returns (d, pivots), pivots the list of pivot columns.  Then rows[i]
    holds the pivot of pivots[i], which is d, and 0 in every other pivot
    column; the rows past len(pivots) are 0 in the first width columns.  So
    dividing the pivot rows by d gives the reduced row echelon form.  When A,
    the leading n x n block of n rows, is nonsingular its pivots are its n
    columns and d = det A, and the columns past n read d * A^-1 C for
    [A | C]: on [A | I] they hold the adjugate of A.  Every entry is a minor
    of the input, so every division is exact (Sylvester's identity); a row
    swap negates the row it moves down, so d keeps its sign.
    """
    d = 1
    pivots = []
    for col in range(width):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], [-x for x in rows[k]]
        pivot_row = rows[k]
        p = pivot_row[col]
        for i, row in enumerate(rows):
            if i != k:
                c = row[col]
                rows[i] = [(p * a - c * b) // d for a, b in zip(row, pivot_row)]
        pivots.append(col)
        d = p
        if k + 1 == len(rows):
            break
    return d, pivots


def _kernel(rows):
    """(d, vectors): d * the kernel_basis of rows, integer vectors, d != 0."""
    if not rows:
        return 1, []
    nc = len(rows[0])
    rows, _ = integral(rows)
    d, pivots = _fraction_free(rows, nc)
    vectors = []
    for fc in range(nc):
        if fc not in pivots:
            vec = [0] * nc
            vec[fc] = d
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[fc]
            vectors.append(vec)
    return d, vectors


def kernel_basis(rows):
    """Basis of the right kernel of a rational matrix, in rref order."""
    d, vectors = _kernel(rows)
    return [tuple(rational(x, d) for x in vec) for vec in vectors]


class SpanTracker:
    """Incremental row-space tracker over Q (dimension queries only).

    pivots maps each pivot column to a row of the span that is 0 in the pivot
    columns before it.  The rows are primitive integer vectors, reduced by
    cross-multiplication, so a vector of ints makes no Fraction.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def dim(self):
        return len(self.pivots)

    def add(self, vec):
        """Reduce vec against the span; returns True when the span grew."""
        (v,), _ = integral([vec])
        for col in sorted(self.pivots):
            if v[col]:
                pivrow = self.pivots[col]
                g = gcd(v[col], pivrow[col])
                p, c = pivrow[col] // g, v[col] // g
                v = [p * a - c * b for a, b in zip(v, pivrow)]
        content = gcd(*v)
        if not content:
            return False
        lead = next(i for i, x in enumerate(v) if x)
        self.pivots[lead] = tuple(x // content for x in v)
        return True


def solve_in_span(basis_vecs, targets):
    """Coordinates of each rational target in the span of basis_vecs, or None.

    Solves B^T c = t for every target t in one elimination of [B^T | t_1 t_2
    ...], pivoting in B^T's columns only; basis_vecs need not be echelonized.
    Returns one entry per target: None when it lies outside the span, else
    its coordinates.
    """
    k = len(basis_vecs)
    width = len(targets[0]) if targets else 0
    aug, _ = integral(
        [[v[i] for v in basis_vecs] + [t[i] for t in targets] for i in range(width)]
    )
    d, pivots = _fraction_free(aug, k)
    rank = len(pivots)
    out = []
    for c in range(k, k + len(targets)):
        if any(row[c] for row in aug[rank:]):
            out.append(None)
            continue
        coords = [0] * k
        for row, pc in zip(aug, pivots):
            coords[pc] = rational(row[c], d)
        out.append(tuple(coords))
    return out
