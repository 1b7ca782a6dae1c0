"""The Schreier-Sims stabiliser chain that counts an image of a matrix group.

congruence.filtration_closure is its one caller.  _chain_order counts
G = <gens> in GL_n(Z/r), r = rad(m), from orbits of standard vectors,
without listing G (Sims 1970; Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, section 4.4).  For squarefree m its last
level is an _AffineLevel, counted from its units and a _Span of its
translations; otherwise the chain hands the kernel of G mod m -> G mod r to
one _KernelSifter per p^k || m with k >= 2.
"""

from itertools import islice
from math import gcd, prod
from operator import mul

from .congruence import _sl_order, flat_identity, flat_mul
from .matrix import Mat
from .rings import IntegersMod


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
