"""Exact dense matrices over Q, Z/m, or an extension field.

Matrices are immutable; every operation returns a fresh value, so instances
can be shared freely between concurrent scans.  Linear algebra over fields
uses exact Gaussian elimination; determinants over composite Z/m lift to Z
and use fraction-free (Bareiss) elimination.
"""

from .errors import NotInvertible
from .rings import IntegersMod


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
        n = self.n
        r = self.ring
        if isinstance(r, IntegersMod) and not r.is_field:
            return _bareiss_det([[x for x in row] for row in self.rows]) % r.m
        rows = [list(row) for row in self.rows]
        det = r.one
        for col in range(n):
            piv = next((i for i in range(col, n) if rows[i][col] != r.zero), None)
            if piv is None:
                return r.zero
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = r.neg(det)
            pivval = rows[col][col]
            det = r.mul(det, pivval)
            inv = r.inv(pivval)
            for i in range(col + 1, n):
                if rows[i][col] != r.zero:
                    factor = r.mul(rows[i][col], inv)
                    for j in range(col, n):
                        rows[i][j] = r.sub(rows[i][j], r.mul(factor, rows[col][j]))
        return det

    def inverse(self):
        n = self.n
        r = self.ring
        if isinstance(r, IntegersMod) and not r.is_field:
            return self._inverse_adjugate()
        rows = [list(row) + [r.one if i == j else r.zero for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if rows[i][col] != r.zero), None)
            if piv is None:
                raise NotInvertible("matrix is singular")
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
            inv = r.inv(rows[col][col])
            rows[col] = [r.mul(inv, x) for x in rows[col]]
            for i in range(n):
                if i != col and rows[i][col] != r.zero:
                    factor = rows[i][col]
                    rows[i] = [r.sub(a, r.mul(factor, b)) for a, b in zip(rows[i], rows[col])]
        return Mat(r, [row[n:] for row in rows])

    def _inverse_adjugate(self):
        # over composite Z/m a unit pivot may not exist even for invertible
        # matrices, so use the adjugate with integer cofactors
        n = self.n
        r = self.ring
        d = self.det()
        if not r.is_unit(d):
            raise NotInvertible(f"det {d} is not a unit mod {r.m}")
        dinv = r.inv(d)
        lifted = [list(row) for row in self.rows]
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [lifted[a][b] for b in range(n) if b != j]
                    for a in range(n) if a != i
                ]
                c = _bareiss_det(minor) if minor else 1
                if (i + j) % 2:
                    c = -c
                adj[j][i] = c % r.m
        return Mat(r, [[dinv * adj[i][j] % r.m for j in range(n)] for i in range(n)])


def _bareiss_det(rows):
    """Exact integer determinant by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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

    def __init__(self, ring, width):
        self.ring = ring
        self.width = width
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
