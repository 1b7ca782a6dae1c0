"""Exact dense matrices over Q, Z/m, or an extension field.

Matrices are immutable; every operation returns a fresh value, so instances
can be shared freely between concurrent scans.  The determinant and the
inverse, over Q and Z/m (prime or composite), come from one fraction-free
elimination on an integer lift of the matrix.  rref, and the kernels, spans
and solutions built on it, use exact Gaussian elimination over any field.
"""

from fractions import Fraction
from math import lcm

from .errors import NotInvertible
from .rings import QQ, IntegersMod


class Mat:
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
        d = _fraction_free(rows)[0]
        if isinstance(self.ring, IntegersMod):
            return d % self.ring.m
        return QQ.canon(Fraction(d, scale ** n))

    def inverse(self):
        """The inverse, over Q or Z/m; NotInvertible when the det is not a unit."""
        n = self.n
        rows, scale = self._lift()
        d, rows = _fraction_free([row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
        r = self.ring
        if isinstance(r, IntegersMod):
            if not r.is_unit(d):
                raise NotInvertible(f"det {d % r.m} is not a unit mod {r.m}")
            dinv = r.inv(d % r.m)
            return Mat(r, [[x * dinv for x in row[n:]] for row in rows])
        if d == 0:
            raise NotInvertible("matrix is singular")
        return Mat(r, [[Fraction(scale * x, d) for x in row[n:]] for row in rows])

    def _lift(self):
        """(B, D) with B = D * self an integer matrix.

        Over Z/m B holds the residues and D = 1; over Q, D is the lcm of the
        entry denominators.
        """
        if isinstance(self.ring, IntegersMod):
            return [list(row) for row in self.rows], 1
        scale = lcm(*(x.denominator for row in self.rows for x in row))
        return [[x.numerator * (scale // x.denominator) for x in row] for row in self.rows], scale


def _fraction_free(rows):
    """Fraction-free (Bareiss) elimination on the integer rows of [A | C], in place.

    A is the leading n x n block, n = len(rows).  Returns (d, rows) with
    d = det A; when d != 0 the columns of C then read d * A^-1 C, so on
    [A | I] they hold the adjugate of A.  Every division is exact
    (Sylvester's identity), and a row swap negates the row it moves down, so
    d keeps its sign.  The rows above the pivot are cleared too (Gauss-Jordan)
    only when there is a C; without one, forward elimination is all d needs.
    """
    n = len(rows)
    d = 1
    for k in range(n):
        piv = k
        while not rows[piv][k]:
            piv += 1
            if piv == n:
                return 0, rows
        if piv != k:
            rows[k], rows[piv] = rows[piv], [-x for x in rows[k]]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i in range(n) if len(pivot_row) > n else range(k + 1, n):
            if i != k:
                c = rows[i][k]
                rows[i] = [(p * a - c * b) // d for a, b in zip(rows[i], pivot_row)]
        d = p
    return d, rows


def rref(ring, rows):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if rows[i][col] != ring.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ring.inv(rows[rank][col])
        rows[rank] = [ring.mul(inv, x) for x in rows[rank]]
        for i in range(nr):
            if i != rank and rows[i][col] != ring.zero:
                f = rows[i][col]
                rows[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nr:
            break
    return [tuple(r) for r in rows[:rank]], pivots


def kernel_basis(ring, rows):
    """Basis of the right kernel of a matrix over a field, in rref order."""
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref(ring, rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ring.zero] * nc
        vec[fc] = ring.one
        for r, pc in zip(red, pivots):
            vec[pc] = ring.neg(r[fc])
        basis.append(tuple(vec))
    return basis


class SpanTracker:
    """Incremental row-space tracker over a field (dimension queries only)."""

    def __init__(self, ring):
        self.ring = ring
        self.pivots = {}

    @property
    def dim(self):
        return len(self.pivots)

    def add(self, vec):
        """Reduce vec against the span; returns True when the span grew."""
        r = self.ring
        v = list(vec)
        for col in sorted(self.pivots):
            if v[col] != r.zero:
                c = v[col]
                pivrow = self.pivots[col]
                v = [r.sub(a, r.mul(c, b)) for a, b in zip(v, pivrow)]
        lead = next((i for i, x in enumerate(v) if x != r.zero), None)
        if lead is None:
            return False
        inv = r.inv(v[lead])
        self.pivots[lead] = tuple(r.mul(inv, x) for x in v)
        return True


def solve_in_span(ring, basis_vecs, target):
    """Coordinates of target in the span of basis_vecs, or None.

    Solves B^T c = target by elimination; basis_vecs need not be echelonized.
    """
    if not basis_vecs:
        return None if any(x != ring.zero for x in target) else ()
    k = len(basis_vecs)
    width = len(basis_vecs[0])
    aug = [[basis_vecs[j][i] for j in range(k)] + [target[i]] for i in range(width)]
    red, pivots = rref(ring, aug)
    coords = [ring.zero] * k
    for row, pc in zip(red, pivots):
        if pc == k:
            return None  # inconsistent
        coords[pc] = row[k]
    # rows past the pivot structure are zero by rref construction
    return tuple(coords)
