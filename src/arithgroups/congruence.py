"""Congruence images of finitely generated matrix groups.

Generators live in GL_n(Q) with denominators supported on a finite prime set
S; reduction mod m (coprime to S) gives finite matrix groups whose exact
orders are compared against the full SL_n(Z/m) order.  For squarefree m the
order comes from a breadth-first closure; when m has a square factor it comes
from the closure mod rad(m) and the congruence filtration above it
(filtration_closure).  Surjectivity is decided only by exact order equality.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, prod

from .closure import run_closure
from .errors import NonInvertibleDenominator, NotInvertible, OutOfRange, Truncated
from .matrix import Mat
from .primes import factorint, prime_support, primes_upto
from .rings import QQ, IntegersMod

DEFAULT_CAP = 2 * 10 ** 6
ELEMENT_RETENTION_CAP = 10 ** 5


class SIntegerGroup:
    """A finitely generated subgroup of GL_n(Z_S) given by its generators."""

    def __init__(self, gens, label="group"):
        mats = []
        for g in gens:
            mats.append(g if isinstance(g, Mat) else Mat(QQ, g))
        if not mats:
            raise ValueError("need at least one generator")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise ValueError("generators must share one size")
        support = set()
        for g in mats:
            for row in g.rows:
                for x in row:
                    support |= prime_support(Fraction(x).denominator)
        for g in mats:
            d = Fraction(g.det())
            if d == 0:
                raise NotInvertible(f"generator of {label} is singular")
            if not (prime_support(d.numerator) | prime_support(d.denominator)) <= support:
                raise NotInvertible(
                    f"generator determinant {d} is not a unit in Z_S with S={sorted(support)}"
                )
        self.label = label
        self.n = n
        self.gens = tuple(mats)
        self.S = frozenset(support)

    def __repr__(self):
        return f"SIntegerGroup({self.label}, n={self.n}, S={sorted(self.S)})"


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


@dataclass(frozen=True)
class FiniteClosure:
    modulus: int
    n: int
    order: int
    truncated: bool
    gen_images: tuple          # flat tuples mod modulus
    elements: tuple = None     # sorted flat tuples, or None in order-only mode

    def element_set(self):
        if self.elements is None:
            raise Truncated("closure kept no element set (order-only mode)")
        return self.elements


def bfs_closure(gens, cap=DEFAULT_CAP, keep_elements=False,
                element_cap=ELEMENT_RETENTION_CAP):
    """Breadth-first closure of matrices over Z/m under right multiplication.

    gens: Mat values over IntegersMod(m), or flat tuples plus a modulus via
    bfs_closure_flat.  Elements are retained sorted (canonical order) when
    requested and the order stays within element_cap.
    """
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    m = first.ring.m
    n = first.n
    flat = [g.flat() for g in gens]
    return bfs_closure_flat(flat, n, m, cap, keep_elements, element_cap)


def bfs_closure_flat(gens_flat, n, m, cap=DEFAULT_CAP, keep_elements=False,
                     element_cap=ELEMENT_RETENTION_CAP):
    want = keep_elements
    order, truncated, elements = run_closure(list(gens_flat), n, m, cap, want)
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
    """The exact order of <gens> mod m, enumerating only its image mod rad(m).

    gens: Mat values over IntegersMod(m).  Let r = rad(m) and K the kernel of
    G mod m -> G mod r, so |G mod m| = |G mod r| * |K|.  The closure engine
    counts G mod r, so cap bounds that closure and truncated means it passed
    the cap.  K is generated by the Schreier generators t_x g t_{xg}^-1
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
    section 4.1), t_x a lift of x in G mod r to G mod m.  K lies in the
    product over p^k || m of the kernels Gamma(p)/Gamma(p^k), whose orders
    are coprime, so K is the product of its projections K_p; _KernelSifter
    gives each |K_p|.  No element set is kept.
    """
    m = gens[0].ring.m
    n = gens[0].n
    r = radical(m)
    flat = [g.flat() for g in gens]
    order, truncated, _ = run_closure([tuple(x % r for x in g) for g in flat], n, r, cap, False)
    if not truncated:
        dets = [g.det() for g in gens]
        sifters = [_KernelSifter(n, p, k, dets) for p, k in factorint(m) if k > 1]
        active = sifters
        for s in _schreier_generators(flat, [g.inverse().flat() for g in gens], n, m, r):
            for sifter in active:
                sifter.add(s)
            active = [x for x in active if x.missing]
            if not active:
                break
        order *= prod(x.p ** len(x.basis) for x in sifters)
    return FiniteClosure(modulus=m, n=n, order=order, truncated=truncated,
                         gen_images=tuple(flat))


def _schreier_generators(gens, gen_invs, n, m, r):
    """Yield the Schreier generators t_x g t_{xg}^-1 mod m that are not the identity.

    A breadth-first walk of G mod r, keyed by images mod r, lifts each x to
    t_x mod m along its spanning tree and keeps t_x^-1 beside it.  On a tree
    edge t_{xg} = t_x g, so only the other edges give generators.
    """
    ident = flat_identity(n, m)
    index = {flat_identity(n, r): 0}
    lifts = [ident]
    lift_invs = [ident]
    for t, t_inv in zip(lifts, lift_invs):      # both grow while they are walked
        for g, g_inv in zip(gens, gen_invs):
            y = flat_mul(t, g, n, m)
            key = tuple(v % r for v in y)
            j = index.get(key)
            if j is None:
                index[key] = len(lifts)
                lifts.append(y)
                lift_invs.append(flat_mul(g_inv, t_inv, n, m))
            else:
                s = flat_mul(y, lift_invs[j], n, m)
                if s != ident:
                    yield s


class _KernelSifter:
    """|H| for H in Gamma(p)/Gamma(p^k) in GL_n(Z/p^k), grown one generator at a time.

    H_i = H n Gamma(p^i) gives the congruence filtration, and each quotient
    H_i/H_(i+1) embeds in M_n(F_p) by I + p^i A -> A mod p.  levels[i] holds
    elements of level i (congruent to I mod p^i, not mod p^(i+1)) whose images
    are linearly independent, in semi-echelon form.  Sifting an element
    divides it by powers of the basis elements of its level until its image
    is 0, then moves down a level; what is left is new, or is the identity.
    Each new basis element b also sends b^p (one level lower) and its
    commutators with the basis through the sieve.  When everything sifts,
    the basis is an induced polycyclic sequence (Holt, Eick and O'Brien,
    chapter 8): the basis elements of level >= i generate a subgroup whose
    quotient by those of level >= i + 1 is elementary abelian with the
    level-i images as a basis, so |H| = p^len(basis).

    missing counts down to an upper bound on len(basis); at 0 the bound is
    reached and sifting stops.  A level holds at most n^2 images, and at most
    n^2 - 1 where det(H) is 1 mod p^(i+1), since det(I + p^i A) = 1 + p^i tr A
    mod p^(i+1).  det(H) lies in the determinants' p-part, generated by the
    d^(p-1) for the generator determinants d of the whole group, so it is 1
    mod p^j for j the least valuation of d^(p-1) - 1 (at most k).
    """

    def __init__(self, n, p, k, dets):
        self.n = n
        self.p = p
        self.k = k
        self.q = q = p ** k
        self.ring = IntegersMod(q)
        self.ident = flat_identity(n, q)
        self.level_of = {p ** i: i for i in range(k + 1)}
        self.levels = [[] for _ in range(k)]   # (pivot, 1/pivot entry, image, [b^-1, b^-2, ..])
        self.basis = []                         # (b, b^-1)
        j = min(self.level_of[gcd(q, pow(d, p - 1, q) - 1)] for d in dets)
        self.missing = (k - 1) * n * n - (j - 1)

    def add(self, g):
        """Sift g (mod a multiple of p^k) and close the basis again."""
        n, p, q = self.n, self.p, self.q
        work = [tuple(x % q for x in g)]
        while work and self.missing:
            found = self._sift(work.pop())
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
    """|SL_n(Z/m)|, multiplicative over the prime powers of m.

    For a prime power p^k the order is p^((k-1)(n^2-1)) * |SL_n(F_p)| with
    |SL_n(F_p)| = p^(n(n-1)/2) * prod_{i=2..n} (p^i - 1).
    """
    if not 2 <= n <= 4:
        raise OutOfRange(f"order formula kept to 2 <= n <= 4 at desk scale, got n={n}")
    if not 1 <= m <= 10 ** 6:
        raise OutOfRange(f"modulus must lie in 1..10^6, got {m}")
    if m == 1:
        return 1
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


@dataclass(frozen=True)
class ImageRecord:
    m: int
    image_order: object      # int, or None when truncated
    target_order: int
    surjective: object       # bool, or None when truncated
    truncated: bool


def image_record(G, m, cap=DEFAULT_CAP, keep_elements=False):
    """The ImageRecord mod m and the closure it was read from.

    The range of (n, m) is checked before any closure.  A squarefree m, or a
    call that keeps the elements, closes G mod m; any other m goes through
    filtration_closure, where cap bounds the closure mod rad(m).  A truncated
    closure gives a record with no order and no verdict; the caller decides
    whether that is an error.
    """
    target = order_sl(G.n, m)
    gens = reduce_generators(G, m)
    if keep_elements or radical(m) == m:
        closure = bfs_closure(gens, cap=cap, keep_elements=keep_elements)
    else:
        closure = filtration_closure(gens, cap=cap)
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


@dataclass(frozen=True)
class CongruenceReport:
    group: str
    S: tuple
    records: tuple
    exceptional_primes: tuple
    prime_bound: int
    exponent: int


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


@dataclass(frozen=True)
class OneForAllRow:
    label: str
    generating_primes: tuple
    nongenerating_primes: tuple
    generates_outside_bad_set: bool
    witnesses_implication: bool


def one_for_all_scan(n, sample_sets, prime_bound, bad_set=frozenset(), cap=DEFAULT_CAP):
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


@dataclass(frozen=True)
class QuasisimpleReport:
    p: int
    order: int
    perfect: bool
    center_order: int
    simple_quotient_order: int
    quotient_is_simple: bool

    @property
    def quasisimple(self):
        return self.perfect and self.quotient_is_simple


def quasisimple_check(closure, cap=4 * 10 ** 5):
    """Exhaustive quasisimplicity test for a full SL_2(F_p) closure.

    Works on integer indices: the sorted elements are numbered 0..N-1, and
    right multiplication by each generator g and left multiplication by g^-1
    become int lists, so conjugation by g is one list lookup per element.
    The centre Z is the set of indices every conjugation fixes, and the
    conjugacy classes are orbits under the conjugations.  G is perfect when
    the normal closure of the generator commutators has order N; G/Z is
    simple when, for each class outside Z, the normal closure of one
    representative together with Z has order N.

    Normal closures are built Schreier-style (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005): a conjugate of a subgroup
    generator by a group generator becomes a new subgroup generator only when
    it lies outside the subgroup, which is then re-closed.  By Lagrange each
    addition at least doubles the subgroup, so there are at most log2 N
    additions.  Right multiplication by a subgroup generator is composed from
    that element's word in a breadth-first spanning tree of the generators'
    Cayley graph, so no product of two matrices is formed after the setup.
    """
    p = closure.modulus
    n = closure.n
    if closure.elements is None:
        raise Truncated("quasisimple check needs the full element set")
    if p * closure.order > cap:
        raise Truncated(f"{p} * {closure.order} exceeds the exhaustive-check cap {cap}")
    elements = closure.elements
    N = len(elements)
    index = {x: i for i, x in enumerate(elements)}
    ident = index[flat_identity(n, p)]
    gens = closure.gen_images

    # right[a][i] = index of elements[i] * g_a; g_a^-1 is the x with x * g_a = 1
    right = [[index[flat_mul(x, g, n, p)] for x in elements] for g in gens]
    gen_invs = [elements[r.index(ident)] for r in right]
    # conj[a][i] = index of g_a^-1 * elements[i] * g_a
    conj = []
    for r, gi in zip(right, gen_invs):
        left_inv = [index[flat_mul(gi, x, n, p)] for x in elements]
        conj.append([r[j] for j in left_inv])

    # spanning tree: elements[i] = elements[parent[i]] * g_label[i]
    parent = [ident] * N
    label = [0] * N
    reached = bytearray(N)
    reached[ident] = 1
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for a, r in enumerate(right):
                y = r[x]
                if not reached[y]:
                    reached[y] = 1
                    parent[y] = x
                    label[y] = a
                    nxt.append(y)
        frontier = nxt

    def right_by(h):
        """The index list of x -> x * elements[h]."""
        word = []
        while h != ident:
            word.append(label[h])
            h = parent[h]
        perm = range(N)
        for a in reversed(word):
            r = right[a]
            perm = [r[i] for i in perm]
        return perm

    def normal_closure_order(seeds):
        member = bytearray(N)
        member[ident] = 1
        elems = [ident]
        hgens = []
        perms = []

        def add_generator(h):
            perm = right_by(h)
            hgens.append(h)
            perms.append(perm)
            frontier = []
            for x in elems:
                y = perm[x]
                if not member[y]:
                    member[y] = 1
                    frontier.append(y)
            while frontier:
                elems.extend(frontier)
                nxt = []
                for x in frontier:
                    for q in perms:
                        y = q[x]
                        if not member[y]:
                            member[y] = 1
                            nxt.append(y)
                frontier = nxt

        for s in seeds:
            if not member[s]:
                add_generator(s)
        for h in hgens:                      # grows while it is walked
            if len(elems) == N:
                break
            for c in conj:
                if not member[c[h]]:
                    add_generator(c[h])
        return len(elems)

    # perfect: [G,G] is the normal closure of the generator commutators
    comms = [
        index[flat_mul(flat_mul(a, b, n, p), flat_mul(ai, bi, n, p), n, p)]
        for a, ai in zip(gens, gen_invs)
        for b, bi in zip(gens, gen_invs)
    ]
    perfect = normal_closure_order(comms) == N

    # centre: elements fixed by every conjugation
    center = [i for i in range(N) if all(c[i] == i for c in conj)]
    quotient_order = N // len(center)

    # one representative per conjugacy class of G/Z: after testing a class,
    # mark its whole preimage x * Z as done
    center_perms = [right_by(z) for z in center]
    seeds_z = [z for z in center if z != ident]
    done = bytearray(N)
    for z in center:
        done[z] = 1
    simple = True
    for rep in range(N):
        if done[rep]:
            continue
        done[rep] = 1
        orbit = [rep]
        for x in orbit:                      # grows while it is walked
            for c in conj:
                y = c[x]
                if not done[y]:
                    done[y] = 1
                    orbit.append(y)
        for x in orbit:
            for zp in center_perms:
                done[zp[x]] = 1
        if normal_closure_order([rep] + seeds_z) != N:
            simple = False
            break

    return QuasisimpleReport(
        p=p,
        order=closure.order,
        perfect=perfect,
        center_order=len(center),
        simple_quotient_order=quotient_order,
        quotient_is_simple=simple and quotient_order > 1,
    )
