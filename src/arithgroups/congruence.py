"""Congruence images of finitely generated matrix groups.

Generators live in GL_n(Q) with denominators supported on a finite prime set
S; reduction mod m (coprime to S) gives finite matrix groups whose exact
orders are compared against the full SL_n(Z/m) order.  An order alone comes
from filtration_closure: one Schreier-Sims stabiliser chain counts the image
mod rad(m) from orbits of vectors, without listing it (for squarefree m its
last level is counted as an affine group, without its orbit), and when m has a
square factor its Schreier generators, taken mod m, give the kernel above
rad(m) level by level in the congruence filtration.  Closures that keep
their elements (gamma_plus) stay breadth-first; the quasisimple check lists
G once from a counted order.  Surjectivity is decided only by exact order
equality.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import chain, islice
from math import gcd, prod
from operator import mul

from .catalog import DEFAULT_CAP, SIntegerGroup
from .errors import NonInvertibleDenominator, OutOfRange, Truncated, Unverified
from .matrix import Mat
from .primes import factorint, prime_support, primes_upto
from .rings import IntegersMod

ELEMENT_RETENTION_CAP = 10 ** 5
# quasisimple_check lists G only when p * |G| is at most this
QUASISIMPLE_CAP = 4 * 10 ** 5


def reduce_generators(G, m):
    """Reduce the generators entrywise mod m, inverting denominators."""
    ring = IntegersMod(m)
    out = []
    for g in G.gens:
        rows = []
        for row in g.rows:
            new = []
            for x in row:
                q = Fraction(x)
                shared = gcd(q.denominator, m)
                if shared != 1:
                    p = min(prime_support(shared))
                    raise NonInvertibleDenominator(p)
                new.append(q.numerator * pow(q.denominator, -1, m) % m)
            rows.append(new)
        out.append(Mat(ring, rows))
    return out


class FiniteClosure(namedtuple("FiniteClosure", [
        "modulus", "n", "order", "truncated", "gen_images", "elements"], defaults=(None,))):
    """A closure mod modulus.

    gen_images are the generators as flat tuples mod modulus; elements are the
    sorted flat tuples, or None in order-only mode.
    """

    __slots__ = ()

    def element_set(self):
        if self.elements is None:
            raise Truncated("closure kept no element set (order-only mode)")
        return self.elements


def bfs_closure(gens, cap=DEFAULT_CAP, element_cap=ELEMENT_RETENTION_CAP):
    """Breadth-first closure of matrices over Z/m under right multiplication.

    gens: Mat values over IntegersMod(m), or flat tuples plus a modulus via
    bfs_closure_flat.  Elements are retained sorted (canonical order) when
    the order stays within element_cap; element_cap=0 keeps none, for a
    caller that reads only the order.
    """
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    m = first.ring.m
    n = first.n
    flat = [g.flat() for g in gens]
    return bfs_closure_flat(flat, n, m, cap, element_cap)


def bfs_closure_flat(gens_flat, n, m, cap=DEFAULT_CAP, element_cap=ELEMENT_RETENTION_CAP):
    # imported here: cong and lubotzky commands count orders by the chain and run no closure
    from .closure import run_closure

    order, truncated, elements = run_closure(list(gens_flat), n, m, cap, element_cap > 0)
    if elements is not None and order > element_cap:
        elements = None
    return FiniteClosure(
        modulus=m,
        n=n,
        order=order,
        truncated=truncated,
        gen_images=tuple(tuple(x % m for x in g) for g in gens_flat),
        elements=tuple(sorted(elements)) if elements is not None else None,
    )


def flat_mul(a, b, n, m):
    # unrolled for n = 2: congruence_scan and dichotomy take 8% longer without it (BENCH_8.json)
    if n == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return ((a0 * b0 + a1 * b2) % m, (a0 * b1 + a1 * b3) % m,
                (a2 * b0 + a3 * b2) % m, (a2 * b1 + a3 * b3) % m)
    # unrolled for n = 3: 0.72 µs per product against 4.0 µs in the loop (BENCH_22.json)
    if n == 3:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return ((a0 * b0 + a1 * b3 + a2 * b6) % m, (a0 * b1 + a1 * b4 + a2 * b7) % m,
                (a0 * b2 + a1 * b5 + a2 * b8) % m, (a3 * b0 + a4 * b3 + a5 * b6) % m,
                (a3 * b1 + a4 * b4 + a5 * b7) % m, (a3 * b2 + a4 * b5 + a5 * b8) % m,
                (a6 * b0 + a7 * b3 + a8 * b6) % m, (a6 * b1 + a7 * b4 + a8 * b7) % m,
                (a6 * b2 + a7 * b5 + a8 * b8) % m)
    out = []
    for i in range(n):
        base = i * n
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += a[base + k] * b[k * n + j]
            out.append(acc % m)
    return tuple(out)


def flat_identity(n, m):
    return tuple(1 % m if i == j else 0 for i in range(n) for j in range(n))


def canonical_bytes(flat, m):
    """Fixed-width big-endian byte encoding of a reduced flat matrix."""
    width = max(1, ((m - 1).bit_length() + 7) // 8)
    return b"".join(int(x).to_bytes(width, "big") for x in flat)


def radical(m):
    """rad(m), the product of the distinct primes dividing m."""
    return prod(p for p, _ in factorint(m))


def filtration_closure(gens, cap=DEFAULT_CAP):
    """The exact order of <gens> mod m, counting only its image mod rad(m).

    gens: Mat values over IntegersMod(m).  Let r = rad(m) and K the kernel of
    G mod m -> G mod r, so |G mod m| = |G mod r| * |K|.  _chain_order counts
    G mod r, so cap bounds that count and truncated means it passed the cap.
    For squarefree m, K is trivial.  Otherwise the chain runs on the
    generators mod m while it acts on vectors mod r, and hands every element
    of K it meets to one _KernelSifter per p^k || m with k >= 2.  K lies in
    the product of the kernels Gamma(p)/Gamma(p^k), whose orders are coprime,
    so K is the product of its projections K_p, and each sifter gives |K_p|.
    G mod rad(m) is walked once, by the chain, and no element set is kept.
    """
    m, n = gens[0].ring.m, gens[0].n
    flat = [g.flat() for g in gens]
    sifters = [_KernelSifter(n, p, k, flat) for p, k in factorint(m) if k > 1]
    order, truncated = _chain_order(flat, n, radical(m), cap, m, sifters)
    if not truncated:
        order *= prod(x.p ** len(x.basis) for x in sifters)
    return FiniteClosure(modulus=m, n=n, order=order, truncated=truncated,
                         gen_images=tuple(flat))


def _chain_order(gens, n, r, cap, m=None, sifters=()):
    """(|G|, False) for G = <gens> in GL_n(Z/r), or (cap + 1, True) once |G| > cap.

    gens: flat tuples with unit determinant mod r (mod m when m is given, see
    below).  A deterministic Schreier-Sims stabiliser chain (Sims 1970; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, section
    4.4) for G acting on row vectors mod r.  The base is the standard vectors,
    those fixed by the most generators first (ties by index).  Only I fixes
    them all, so |G| is the product of the basic orbit lengths, and it is
    found from orbits of at most r^n vectors instead of a listing of G.

    A Schreier generator u_x s u_(xs)^-1 of level i is sifted through levels
    i+1.. and a residue that does not sift joins the generators of every
    level from i+1 to the one where it stopped.  Each level's group contains
    the next one's, which fixes the level's base point, so the product of
    the current orbit lengths is a lower bound on |G| at every step: the
    count stops once it passes cap, so truncated holds exactly when |G| >
    cap, as for run_closure.

    G lies in {g : det g in D} for D the subgroup of (Z/r)^* its generators'
    determinants generate, and det maps GL_n(Z/r) onto (Z/r)^* with kernel
    SL_n(Z/r), so |G| <= |SL_n(Z/r)| * |D|.  Once the lower bound meets that
    upper bound after a grow, |G| is known and no more Schreier generators are
    formed: at a prime where SL_2(Z) is onto, none is formed at all.

    With no sifters the last level's group acts regularly on its orbit, so
    sifting there is a membership test and its Schreier generators, all I,
    are never formed.  That level is an _AffineLevel: its group is counted
    from its diagonal units and its translations, and no orbit point is
    walked or stored.  With sifters, gens are mod m, a multiple of r, and the
    chain multiplies mod m while it acts mod r.  The pointwise stabiliser of
    the base is then the kernel K of G mod m -> G mod r, generated by the
    last level's Schreier generators (Holt, Eick and O'Brien, sections
    4.1-4.4).  So the last level keeps a tree too, and a residue that sifts
    through all n levels (it is I mod r), or a generator that is I mod r,
    goes to every sifter.  The sifters close it under conjugation by G, so
    they hold a normal subgroup H of G mod m inside K; the chain is one for
    G/H, whose last level is K/H, so at the end H = K.  The count stops from
    above only once every sifter is full as well.
    """
    m = m or r
    ident = flat_identity(n, r)
    moving = {}                 # generator mod m -> its image mod r
    for g in gens:
        g_r = tuple(x % r for x in g)
        if g_r != ident:
            moving.setdefault(g, g_r)
        else:
            for sifter in sifters:
                sifter.add(g)
    gens = list(moving)
    ring = IntegersMod(m) if gens else None      # r >= 2 whenever a generator is not I
    dets = {Mat(ring, [g[i:i + n] for i in range(0, n * n, n)]).det() % r for g in gens}
    bound = _sl_order(n, r) * _unit_subgroup_order(dets, r)
    fixers = [sum(g[i * n:(i + 1) * n] == ident[i * n:(i + 1) * n] for g in moving.values())
              for i in range(n)]
    base = sorted(range(n), key=lambda i: (-fixers[i], i))
    levels = [_BasicOrbit(b, n, r, m) for b in base[:-1]]
    levels.append(_BasicOrbit(base[-1], n, r, m) if sifters else _AffineLevel(base[-1], n, r))
    deepest = n - 1 if sifters else n - 2       # the deepest level that forms Schreier generators

    def join(h, first, last):
        """Give levels first..last the generator h."""
        h_inv = Mat(ring, [h[i:i + n] for i in range(0, n * n, n)]).inverse().flat()
        for level in levels[first:last + 1]:
            level.add_generator(h, h_inv)

    def grow(first, last):
        # deepest first, so the bound that stops a level counts the levels below it
        for i in range(last, first - 1, -1):
            others = prod(x.size for j, x in enumerate(levels) if j != i)
            if not levels[i].grow(cap // others):
                return False
        return True

    def orbits():
        return prod(x.size for x in levels)

    def unfinished():
        return orbits() < bound or any(x.missing for x in sifters)

    for g, g_r in moving.items():   # each joins every level up to the first whose base point it moves
        join(g, 0, next(i for i, b in enumerate(base) if g_r[b * n:(b + 1) * n] != ident[b * n:(b + 1) * n]))
    if not grow(0, n - 1):
        return cap + 1, True
    i = deepest if unfinished() else -1
    while i >= 0:
        h = levels[i].next_schreier()
        if h is None:
            i -= 1
            continue
        j = i + 1
        while j < n:
            left = levels[j].sift(h)
            if left is None:
                break
            h = left
            j += 1
        if j == n:      # h fixes every base point, so it is I mod r
            for sifter in sifters:
                sifter.add(h)
            if sifters and not unfinished():
                i = -1
            continue
        join(h, i + 1, j)
        if not grow(i + 1, j):
            return cap + 1, True
        i = min(j, deepest) if unfinished() else -1
    return orbits(), False


def _unit_subgroup_order(units, r):
    """|<units>| in (Z/r)^*: the units closed under multiplication mod r."""
    seen = [1 % r]
    index = set(seen)
    for x in seen:              # grows while it is walked
        for u in units:
            y = x * u % r
            if y not in index:
                index.add(y)
                seen.append(y)
    return len(seen)


def _row_action(g, n, r):
    """x -> x·g on row vectors packed base r (entry j is the digit of r^j)."""
    # unrolled for n = 2: congruence_scan takes 22% longer without it (BENCH_8.json)
    if n == 2:
        a, b, c, d = g

        def act(x):
            x0, x1 = x % r, x // r
            return (x0 * a + x1 * c) % r + (x0 * b + x1 * d) % r * r
        return act
    cols = [g[j::n] for j in range(n)]
    powers = [r ** j for j in range(n)]

    def act(x):
        v = [x // q % r for q in powers]
        return sum(sum(map(mul, v, col)) % r * q for col, q in zip(cols, powers))
    return act


class _BasicOrbit:
    """One level of a stabiliser chain: the orbit of the base point e_b, with its Schreier tree.

    Matrices are flat tuples mod m, a multiple of r.  Points are row vectors
    mod r packed base r; the point of a matrix u is row b of u mod r.  Each
    point records the point and the generator it was first reached from, and
    the transversal element u_x (with e_b u_x = x mod r) and its inverse are
    built along the tree when first asked for, then cached.
    """

    def __init__(self, b, n, r, m):
        self.n, self.r, self.m = n, r, m
        self.slice = slice(b * n, (b + 1) * n)
        self.powers = [r ** j for j in range(n)]
        start = 1 % r * r ** b       # e_b
        ident = flat_identity(n, m)
        self.points = [start]
        self.index = {start: 0}
        self.parent = [0]
        self.label = [-1]
        self.reps = {0: ident}
        self.inverses = {0: ident}
        self.gens = []                  # (g, g^-1, x -> x·g)
        self.applied = []               # applied[a]: how many points gens[a] has moved
        self.formed = [0]               # formed[k]: Schreier generators formed at point k
        self.cursor = 0                 # no point before it has any left to form

    @property
    def size(self):
        return len(self.points)

    def sift(self, h):
        """h u_x^-1 for x the point of h, or None when x lies outside the orbit."""
        row = h[self.slice] if self.m == self.r else [x % self.r for x in h[self.slice]]
        k = self.index.get(sum(map(mul, row, self.powers)))
        return None if k is None else flat_mul(h, self.inverse_rep(k), self.n, self.m)

    def add_generator(self, g, g_inv):
        self.gens.append((g, g_inv, _row_action(g, self.n, self.r)))
        self.applied.append(0)
        self.cursor = 0

    def grow(self, limit):
        """Close the orbit under every generator; False once it has more than limit points."""
        points, index = self.points, self.index
        pending = True
        while pending:
            pending = False
            for a, (_, _, act) in enumerate(self.gens):
                start = self.applied[a]
                if start == len(points):
                    continue
                pending = True
                for k, x in enumerate(islice(points, start, None), start):
                    y = act(x)
                    if y not in index:
                        index[y] = len(points)
                        points.append(y)
                        self.parent.append(k)
                        self.label.append(a)
                        self.formed.append(0)
                        if len(points) > limit:
                            return False
                self.applied[a] = len(points)
        return True

    def next_schreier(self):
        """The next Schreier generator u_x s u_(xs)^-1 not yet formed and not I, or None."""
        n, m = self.n, self.m
        points, formed, gens, index = self.points, self.formed, self.gens, self.index
        parent, label, reps = self.parent, self.label, self.reps
        while self.cursor < len(points):
            k = self.cursor
            x = points[k]
            for a in range(formed[k], len(gens)):
                g, _, act = gens[a]
                j = index[act(x)]
                if parent[j] == k and label[j] == a:
                    continue            # a tree edge: u_x s is u_(xs)
                w = flat_mul(reps.get(k) or self.rep(k), g, n, m)
                if w != (reps.get(j) or self.rep(j)):
                    formed[k] = a + 1
                    return flat_mul(w, self.inverse_rep(j), n, m)
            formed[k] = len(gens)
            self.cursor += 1
        return None

    def rep(self, k):
        """u_x for the k-th point x."""
        n, m = self.n, self.m
        return self._along_tree(k, self.reps, lambda u, g, g_inv: flat_mul(u, g, n, m))

    def inverse_rep(self, k):
        """u_x^-1 for the k-th point x."""
        n, m = self.n, self.m
        return self._along_tree(k, self.inverses, lambda v, g, g_inv: flat_mul(g_inv, v, n, m))

    def _along_tree(self, k, cache, step):
        path = []
        while k not in cache:
            path.append(k)
            k = self.parent[k]
        value = cache[k]
        for c in reversed(path):
            g, g_inv, _ = self.gens[self.label[c]]
            value = cache[c] = step(value, g, g_inv)
        return value


class _AffineLevel:
    """The last level of a chain with no sifters, counted as an affine group.

    Its group H fixes e_j for every other base point j, so h in H is I except
    in row b, and is the pair (a, t) of the unit a = h[b][b] and the rest t
    of row b, with (a, t)(a', t') = (aa', at' + t).  H acts regularly on the
    orbit of e_b, so the orbit length is |H| = |A| * |T|, for A the group of
    the diagonal units a and T the translations t with (1, t) in H.  The
    level walks A only and keeps the point of one u_a = (a, tau_a) per unit.
    T is the span of the Schreier translations tau_a + a t_s - tau_(a a_s)
    of the generators s = (a_s, t_s) (Schreier's lemma; Holt, Eick and
    O'Brien, section 4.1), so no point of the orbit is listed or stored.

    Matrices and points are as for _BasicOrbit, with m = r.
    """

    def __init__(self, b, n, r):
        self.n, self.r = n, r
        self.slice = slice(b * n, (b + 1) * n)
        self.diagonal = b * n + b
        self.powers = [r ** j for j in range(n)]
        self.place = r ** b             # a is the digit of this place in a point
        self.others = self.powers[:b] + self.powers[b + 1:]
        self.points = [1 % r * r ** b]  # the point of u_a for each a in A, in walk order; u_1 = I
        self.reps = {1 % r: self.points[0]}     # a -> the point of u_a
        self.acts = []                  # x -> x·s for each generator s
        self.applied = []               # applied[s]: how many points acts[s] has moved
        self.span = _Span(n - 1, r)
        self.ident = flat_identity(n, r)

    @property
    def size(self):
        return len(self.points) * self.span.size

    def translation(self, x, y):
        """t - t' for the points x and y of (a, t) and (a, t'), the translation of (a, t)(a, t')^-1."""
        return [(x // q - y // q) % self.r for q in self.others]

    def sift(self, h):
        """I when h (which fixes the other base points) lies in H, or None."""
        x = sum(map(mul, h[self.slice], self.powers))
        y = self.reps.get(h[self.diagonal])
        span = self.span
        if y is not None and (y == x or span.full or span.size > 1 and self.translation(x, y) in span):
            return self.ident
        return None

    def add_generator(self, g, g_inv):
        self.acts.append(_row_action(g, self.n, self.r))
        self.applied.append(0)

    def grow(self, limit):
        """Walk A under every generator and span T; False once |A| * |T| > limit."""
        points, reps, span, r, place = self.points, self.reps, self.span, self.r, self.place
        pending = True
        while pending:
            pending = False
            for s, act in enumerate(self.acts):
                start = self.applied[s]
                if start == len(points):
                    continue
                pending = True
                for x in islice(points, start, None):
                    y = act(x)
                    a = y // place % r
                    z = reps.get(a)
                    if z is None:
                        reps[a] = y
                        points.append(y)
                    elif z != y and not span.full:
                        span.add(self.translation(y, z))
                    else:
                        continue
                    if len(points) * span.size > limit:
                        return False
                self.applied[s] = len(points)
        return True


class _Span:
    """|T| for an additive subgroup T of (Z/r)^d, grown one vector at a time.

    rows is the Hermite normal form of the lattice L of the integer vectors
    that lie in T mod r (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, section 2.4): row k is 0 before column k, its pivot in
    column k divides r, and its other entries are reduced mod r.  L contains
    r Z^d, so the rows start as the r e_k, |T| = [L : r Z^d] = r^d / (the
    product of the pivots), and v lies in T when the rows reduce it to 0.
    """

    def __init__(self, d, r):
        self.r = r
        self.rows = [[r * (j == k) for j in range(d)] for k in range(d)]
        self.size = 1
        self.order = r ** d             # |T| once T is all of (Z/r)^d

    @property
    def full(self):
        return self.size == self.order

    def add(self, v):
        r, rows = self.r, self.rows
        for k, w in enumerate(rows):
            while v[k]:                 # Euclid on column k: (w, v) -> (v, w - qv) keeps the span
                q = w[k] // v[k]
                w, v = v, [(x - q * y) % r for x, y in zip(w, v)]
            rows[k] = w
        self.size = self.order // prod(w[k] for k, w in enumerate(rows))

    def __contains__(self, v):
        r = self.r
        for k, w in enumerate(self.rows):
            c, left = divmod(v[k], w[k])
            if left:
                return False
            v = [(x - c * y) % r for x, y in zip(v, w)]
        return True


class _KernelSifter:
    """|H| for H in Gamma(p)/Gamma(p^k) in GL_n(Z/p^k), grown one generator at a time.

    H_i = H n Gamma(p^i) gives the congruence filtration, and each quotient
    H_i/H_(i+1) embeds in M_n(F_p) by I + p^i A -> A mod p.  levels[i] holds
    elements of level i (congruent to I mod p^i, not mod p^(i+1)) whose images
    are linearly independent, in semi-echelon form.  Sifting an element
    divides it by powers of the basis elements of its level until its image
    is 0, then moves down a level; what is left is new, or is the identity.
    Each new basis element b also sends b^p (one level lower), its
    commutators with the basis and its conjugates g^-1 b g by the generators
    through the sieve.  When everything sifts, the basis is an induced
    polycyclic sequence (Holt, Eick and O'Brien, chapter 8): the basis
    elements of level >= i generate a subgroup whose quotient by those of
    level >= i + 1 is elementary abelian with the level-i images as a basis,
    so |H| = p^len(basis).  The conjugates make H normal in G, which
    _chain_order needs to count the kernel from its Schreier generators.

    missing counts down to an upper bound on len(basis); at 0 the bound is
    reached and sifting stops.  A level holds at most n^2 images, and at most
    n^2 - 1 where det(H) is 1 mod p^(i+1), since det(I + p^i A) = 1 + p^i tr A
    mod p^(i+1).  det(H) lies in the determinants' p-part, generated by the
    d^(p-1) for the generator determinants d of the whole group, so it is 1
    mod p^j for j the least valuation of d^(p-1) - 1 (at most k).

    A residue sifted once lies in H for good, as H only grows, so taken
    holds every residue sifted and a repeat is skipped: most of the Schreier
    generators the chain hands over repeat one another.
    """

    def __init__(self, n, p, k, gens):
        """gens: the group generators as flat tuples mod a multiple of p^k."""
        self.n, self.p, self.k = n, p, k
        self.q = q = p ** k
        self.ring = IntegersMod(q)
        self.ident = flat_identity(n, q)
        self.level_of = {p ** i: i for i in range(k + 1)}
        self.levels = [[] for _ in range(k)]   # (pivot, 1/pivot entry, image, [b^-1, b^-2, ..])
        self.basis = []                         # (b, b^-1)
        self.taken = set()                      # residues mod q sifted so far
        mats = [Mat(self.ring, [g[i:i + n] for i in range(0, n * n, n)]) for g in gens]
        self.conjugators = [(g.flat(), g.inverse().flat()) for g in mats]
        j = min(self.level_of[gcd(q, pow(g.det(), p - 1, q) - 1)] for g in mats)
        self.missing = (k - 1) * n * n - (j - 1)

    def add(self, g):
        """Sift g (mod a multiple of p^k) and close the basis again."""
        n, p, q = self.n, self.p, self.q
        work = [tuple(x % q for x in g)]
        while work and self.missing:
            h = work.pop()
            if h in self.taken:
                continue
            self.taken.add(h)
            found = self._sift(h)
            if found is None:
                continue
            i, image, b = found
            B = Mat(self.ring, [b[r:r + n] for r in range(0, n * n, n)])
            b_inv = B.inverse().flat()
            pivot = next(j for j, a in enumerate(image) if a)
            self.levels[i].append((pivot, pow(image[pivot], -1, p), image, [b_inv]))
            work.append((B ** p).flat())
            for c, c_inv in self.basis:
                work.append(flat_mul(flat_mul(b_inv, c_inv, n, q), flat_mul(b, c, n, q), n, q))
            for g, g_inv in self.conjugators:
                work.append(flat_mul(flat_mul(g_inv, b, n, q), g, n, q))
            self.basis.append((b, b_inv))
            self.missing -= 1

    def _sift(self, h):
        """(level, image, h) for what is left of h, or None when h sifts to I."""
        n, p, q = self.n, self.p, self.q
        while True:
            diffs = [(x - e) % q for x, e in zip(h, self.ident)]
            i = self.level_of[gcd(q, *diffs)]
            if i == self.k:
                return None
            step = p ** i
            image = [d // step % p for d in diffs]
            for pivot, scale, vec, inv_powers in self.levels[i]:
                c = image[pivot] * scale % p
                if c:
                    image = [(a - c * v) % p for a, v in zip(image, vec)]
                    while len(inv_powers) < c:
                        inv_powers.append(flat_mul(inv_powers[-1], inv_powers[0], n, q))
                    h = flat_mul(h, inv_powers[c - 1], n, q)
            if any(image):
                return i, image, h


def order_sl(n, m):
    """|SL_n(Z/m)| for 2 <= n <= 4 and 1 <= m <= 10^6; OutOfRange outside them."""
    if not 2 <= n <= 4:
        raise OutOfRange(f"order formula kept to 2 <= n <= 4 at desk scale, got n={n}")
    if not 1 <= m <= 10 ** 6:
        raise OutOfRange(f"modulus must lie in 1..10^6, got {m}")
    return _sl_order(n, m)


def _sl_order(n, m):
    """|SL_n(Z/m)| for any n >= 1 and m >= 1, multiplicative over the prime powers of m.

    For a prime power p^k the order is p^((k-1)(n^2-1)) * |SL_n(F_p)| with
    |SL_n(F_p)| = p^(n(n-1)/2) * prod_{i=2..n} (p^i - 1).
    """
    total = 1
    for p, k in factorint(m):
        base = p ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            base *= p ** i - 1
        total *= p ** ((k - 1) * (n * n - 1)) * base
    return total


def elementary_generators_sl(n, m):
    """The 2*C(n,2) transvections I + E_ij (i != j) over Z/m."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = IntegersMod(m)
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
            rows[i][j] = ring.one
            gens.append(Mat(ring, rows))
    return gens


class ImageRecord(namedtuple("ImageRecord", [
        "m", "image_order", "target_order", "surjective", "truncated"])):
    """The image mod m against |SL_n(Z/m)|; image_order and surjective are None when truncated."""

    __slots__ = ()


def image_record(G, m, cap=DEFAULT_CAP):
    """The ImageRecord mod m and the closure it was read from.

    The range of (n, m) is checked before any closure.  The closure is
    filtration_closure, where cap bounds the order of G mod rad(m).  A
    truncated closure gives a record with no order and no verdict; the caller
    decides whether that is an error.
    """
    target = order_sl(G.n, m)
    closure = filtration_closure(reduce_generators(G, m), cap=cap)
    if closure.truncated:
        rec = ImageRecord(m=m, image_order=None, target_order=target,
                          surjective=None, truncated=True)
    else:
        rec = ImageRecord(m=m, image_order=closure.order, target_order=target,
                          surjective=closure.order == target, truncated=False)
    return rec, closure


def exact_image_record(G, m, cap=DEFAULT_CAP):
    """The ImageRecord mod m; Truncated names the modulus that was enumerated."""
    rec, _ = image_record(G, m, cap)
    if rec.truncated:
        raise Truncated(
            f"closure mod {radical(m)} exceeded the cap {cap}; raise --cap for an exact answer"
        )
    return rec


def is_surjective_image(G, p, k=1, cap=DEFAULT_CAP):
    """Compare the image order mod p^k with |SL_n(Z/p^k)| exactly."""
    if p in G.S:
        raise ValueError(f"{p} lies in the denominator set S of {G.label}")
    return exact_image_record(G, p ** k, cap)


class CongruenceReport(namedtuple("CongruenceReport", [
        "group", "S", "records", "exceptional_primes", "prime_bound", "exponent"])):
    __slots__ = ()


def strong_approx_scan(G, prime_bound, exponent=1, cap=DEFAULT_CAP):
    """Surjectivity census over all primes p <= bound outside S.

    Per-prime tasks are independent and merged in ascending prime order, so
    the report is deterministic.
    """
    records = []
    exceptional = []
    for p in primes_upto(prime_bound):
        if p in G.S:
            continue
        rec, _ = image_record(G, p ** exponent, cap)
        records.append(rec)
        if rec.surjective is False:
            exceptional.append(p)
    return CongruenceReport(
        group=G.label,
        S=tuple(sorted(G.S)),
        records=tuple(records),
        exceptional_primes=tuple(exceptional),
        prime_bound=prime_bound,
        exponent=exponent,
    )


def principal_congruence_index(n, m):
    """[SL_n(Z) : Gamma(m)]; the reduction map is onto, so this is order_sl."""
    return order_sl(n, m)


class OneForAllRow(namedtuple("OneForAllRow", [
        "label", "generating_primes", "nongenerating_primes", "generates_outside_bad_set",
        "witnesses_implication"])):
    __slots__ = ()


def one_for_all_scan(sample_sets, prime_bound, bad_set=frozenset(), cap=DEFAULT_CAP):
    """For each sample set, the primes p <= bound where its image generates.

    A set witnesses the one-for-all implication when it generates at some
    prime outside the configured bad set and every non-generating prime in
    range lies inside the bad set.
    """
    rows = []
    bad = frozenset(bad_set)
    for label, gens in sample_sets:
        G = gens if isinstance(gens, SIntegerGroup) else SIntegerGroup(gens, label=label)
        generating = []
        failing = []
        for p in primes_upto(prime_bound):
            if p in G.S:
                continue
            rec = is_surjective_image(G, p, 1, cap=cap)
            (generating if rec.surjective else failing).append(p)
        outside = [p for p in generating if p not in bad]
        rows.append(OneForAllRow(
            label=label,
            generating_primes=tuple(generating),
            nongenerating_primes=tuple(failing),
            generates_outside_bad_set=bool(outside),
            witnesses_implication=bool(outside) and all(p in bad for p in failing),
        ))
    return tuple(rows)


class QuasisimpleReport(namedtuple("QuasisimpleReport", [
        "p", "order", "perfect", "center_order", "simple_quotient_order",
        "quotient_is_simple"])):
    __slots__ = ()

    @property
    def quasisimple(self):
        return self.perfect and self.quotient_is_simple


def quasisimple_check(closure):
    """Exhaustive quasisimplicity test for a full SL_2(F_p) closure.

    G is listed once, breadth-first from I: level by level, and within a
    level one generator g_a at a time, so the elements are numbered 0..N-1
    and right[a][i] is the index of x_i g_a.  The new children of one level
    under one generator form a block, kept with their parents' indices.  The
    listing must count closure.order, or Unverified is raised.

    After the listing no matrix is multiplied.  Since h(xg) = (hx)g, the
    index list of x -> hx is built block by block from [h], one lookup per
    element however long h's word is, and conjugation by g_a is right[a]
    after left multiplication by g_a^-1.  The centre Z is the set of indices
    every conjugation fixes, and the conjugacy classes are orbits under the
    conjugations.  G is perfect when the normal closure of the generator
    commutators is G; G/Z is simple when, for each class outside Z, the
    normal closure of one representative together with Z is G.

    A normal closure (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005) takes a conjugate of a subgroup generator by a group
    generator as a new subgroup generator only when it lies outside the
    subgroup, at most log2 N times by Lagrange.  Each new generator h extends
    H by Dimino's coset enumeration (Butler, Fundamental Algorithms for
    Permutation Groups, 1991): <H, h> is a union of left cosets rH, and
    g(rH) = (gr)H element by element, so a new coset is the image of a known
    one and only coset representatives are tested against the generators.
    A subgroup with more than N/2 elements is G.
    """
    p, n, N = closure.modulus, closure.n, closure.order
    if closure.truncated:
        raise Truncated("quasisimple check needs the exact order")
    if p * N > QUASISIMPLE_CAP:
        raise Truncated(f"{p} * {N} exceeds the exhaustive-check cap {QUASISIMPLE_CAP}")
    ident = flat_identity(n, p)
    index = {ident: 0}
    setdefault = index.setdefault
    right = [[] for _ in closure.gen_images]
    blocks = []                  # (right[a], parents): children x_i g_a, numbered in order
    level, lo = [ident], 0
    while level and len(index) <= N:
        for r, g in zip(right, closure.gen_images):
            start = len(index)
            found = [setdefault(flat_mul(x, g, n, p), len(index)) for x in level]
            r += found
            blocks.append((r, [i for i, j in enumerate(found, lo) if j >= start]))
        lo += len(level)
        level = list(islice(index, lo, None))
    if len(index) != N:
        raise Unverified(f"listing G mod {p} does not give the closure's order {N}")

    def left_by(h):
        """The index list of x -> x_h x."""
        perm = [h]
        for r, parents in blocks:
            perm += [r[perm[x]] for x in parents]
        return perm

    def generates(seeds):
        """Whether the normal closure of the seeds is G."""
        elems, member, perms, todo = [0], {0}, [], list(seeds)
        for h in todo:                      # grows while it is walked
            if h in member:
                continue
            perms.append(zperms.get(h) or left_by(h))
            cosets = [elems]
            for c in cosets:                # grows while it is walked
                for q in perms:
                    if q[c[0]] not in member:
                        cosets.append([q[e] for e in c])
                        member.update(cosets[-1])
                        if 2 * len(member) > N:
                            return True
            elems = list(chain.from_iterable(cosets))
            todo += [c[h] for c in conj]
        return len(member) == N

    invs = [r.index(0) for r in right]
    # conj[a][i] = index of g_a^-1 x_i g_a
    conj = [[r[j] for j in left_by(i)] for r, i in zip(right, invs)]
    center = [i for i, j in enumerate(conj[0]) if i == j]
    for c in conj[1:]:
        center = [z for z in center if c[z] == z]
    quotient_order = N // len(center)
    zperms = {z: left_by(z) for z in center}

    # perfect: [G,G] is the normal closure of the commutators g_a^-1 g_b^-1 g_a g_b
    perfect = generates([r[c[i]] for c in conj for r, i in zip(right, invs)])

    # one representative per conjugacy class of G/Z: after testing a class,
    # mark its whole preimage xZ as done
    done = set(center)
    simple = True
    for rep in range(N):
        if rep in done:
            continue
        cls = new = {rep}
        while new:
            new = {c[x] for c in conj for x in new} - cls
            cls |= new
        done |= {z[x] for z in zperms.values() for x in cls}
        if not generates(center[1:] + [rep]):
            simple = False
            break

    return QuasisimpleReport(
        p=p,
        order=N,
        perfect=perfect,
        center_order=len(center),
        simple_quotient_order=quotient_order,
        quotient_is_simple=simple and quotient_order > 1,
    )
