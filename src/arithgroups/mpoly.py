"""Sparse multivariate polynomials in matrix coordinates.

Terms map exponent tuples (one slot per variable) to rational coefficients.
Group presentations flatten the n x n coordinates x_ij row-major, so variable
k corresponds to x_{k//n, k%n}.
"""

from .rings import QQ, IntegersMod


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = QQ.canon(c)
            if c != 0:
                if len(exps) != nvars:
                    raise ValueError("exponent vector length mismatch")
                clean[tuple(exps)] = c
        self.terms = clean

    @staticmethod
    def const(nvars, c):
        c = QQ.canon(c)
        if c == 0:
            return MPoly(nvars)
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars, i):
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.terms})"

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MPoly(self.nvars, out)

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def deriv(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[i]
        return MPoly(self.nvars, out)

    def eval(self, values, ring=QQ):
        """Evaluate at a point with coordinates in the given ring."""
        acc = ring.zero
        for e, c in self.terms.items():
            term = ring.from_rational(c) if isinstance(ring, IntegersMod) else c
            for v, k in zip(values, e):
                for _ in range(k):
                    term = ring.mul(term, v)
            acc = ring.add(acc, term)
        return acc

    def denominator_lcm(self):
        from math import lcm

        return lcm(*(c.denominator for c in self.terms.values()))

    def reduce_mod(self, p):
        """Coefficients reduced mod p; denominators must be prime to p."""
        ring = IntegersMod(p)
        out = {}
        for e, c in self.terms.items():
            r = ring.from_rational(c)
            if r:
                out[e] = r
        return MPoly(self.nvars, out)

    def encode(self):
        """Sparse text form: terms 'e1,...,ek:c' joined by spaces; '0' if zero."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        return " ".join(
            ",".join(str(x) for x in e) + ":" + str(c) for e, c in items
        )

    @staticmethod
    def decode(nvars, text):
        from fractions import Fraction

        text = text.strip()
        if text == "0":
            return MPoly(nvars)
        terms = {}
        for chunk in text.split():
            epart, _, cpart = chunk.partition(":")
            exps = tuple(int(x) for x in epart.split(","))
            terms[exps] = Fraction(cpart)
        return MPoly(nvars, terms)


def eval_matrix(poly, blocks, d, out_nvars):
    """Evaluate with a d x d matrix of MPoly substituted for each variable.

    blocks[i] is the matrix for variable i (rows of MPoly over out_nvars
    variables).  Monomials multiply their blocks in ascending variable order;
    the constant term contributes c * identity.  Returns a d x d list of
    MPoly over the out variables.
    """
    zero = MPoly(out_nvars)
    acc = [[zero for _ in range(d)] for _ in range(d)]
    for e, c in poly.terms.items():
        term = None
        for var, k in enumerate(e):
            for _ in range(k):
                term = blocks[var] if term is None else _mat_mul_poly(term, blocks[var], d, out_nvars)
        if term is None:
            term = [
                [MPoly.const(out_nvars, c) if i == j else zero for j in range(d)]
                for i in range(d)
            ]
        else:
            term = [[c * term[i][j] for j in range(d)] for i in range(d)]
        acc = [[acc[i][j] + term[i][j] for j in range(d)] for i in range(d)]
    return acc


def _mat_mul_poly(a, b, d, nvars):
    zero = MPoly(nvars)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            s = zero
            for k in range(d):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out
