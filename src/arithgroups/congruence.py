"""Congruence images of finitely generated matrix groups.

Generators live in GL_n(Q) with denominators supported on a finite prime set
S; reduction mod m (coprime to S) gives finite matrix groups whose exact
orders are compared against the full SL_n(Z/m) order.  An order alone comes
from filtration_closure: the Schreier-Sims stabiliser chain of the chain
module counts the image mod rad(m) from orbits of vectors, without listing it
(for squarefree m its last level is counted as an affine group, without its
orbit), and when m has a square factor its Schreier generators, taken mod m,
give the kernel above rad(m) level by level in the congruence filtration.
This module keeps the records, the census of the primes outside S that
every scan reads (_census, streamed from primes.iter_primes), the scans,
the flat Z/m multiply the chain uses, the order formulas and the
quasisimple check; only filtration_closure imports the chain.  Closures
that keep their elements (gamma_plus) stay breadth-first; the quasisimple
check lists G once from a counted order.  Surjectivity is decided only by
exact order equality.
"""

from collections import namedtuple
from itertools import chain, islice
from math import gcd, prod

from .catalog import DEFAULT_CAP, SIntegerGroup
from .errors import NonInvertibleDenominator, OutOfRange, Truncated, Unverified
from .matrix import Mat
from .primes import factorint, iter_primes, prime_support
from .rings import IntegersMod

_MAX_MODULUS = 10 ** 6
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
                shared = gcd(x.denominator, m)
                if shared != 1:
                    p = min(prime_support(shared))
                    raise NonInvertibleDenominator(p)
                new.append(x.numerator * pow(x.denominator, -1, m) % m)
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
    # imported here: chain imports this module at its top, and only a counted image needs it
    from .chain import _KernelSifter, _chain_order

    m, n = gens[0].ring.m, gens[0].n
    flat = [g.flat() for g in gens]
    sifters = [_KernelSifter(n, p, k, flat) for p, k in factorint(m) if k > 1]
    order, truncated = _chain_order(flat, n, radical(m), cap, m, sifters)
    if not truncated:
        order *= prod(x.p ** len(x.basis) for x in sifters)
    return FiniteClosure(modulus=m, n=n, order=order, truncated=truncated,
                         gen_images=tuple(flat))


def order_sl(n, m):
    """|SL_n(Z/m)| for 2 <= n <= 4 and 1 <= m <= 10^6; OutOfRange outside them."""
    if not 2 <= n <= 4:
        raise OutOfRange(f"order formula kept to 2 <= n <= 4 at desk scale, got n={n}")
    if not 1 <= m <= _MAX_MODULUS:
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


def _exact(rec, cap):
    """rec, or Truncated naming the modulus that was enumerated."""
    if rec.truncated:
        raise Truncated(
            f"closure mod {radical(rec.m)} exceeded the cap {cap}; raise --cap for an exact answer"
        )
    return rec


def exact_image_record(G, m, cap=DEFAULT_CAP):
    """The ImageRecord mod m; Truncated names the modulus that was enumerated."""
    return _exact(image_record(G, m, cap)[0], cap)


def is_surjective_image(G, p, k=1, cap=DEFAULT_CAP):
    """Compare the image order mod p^k with |SL_n(Z/p^k)| exactly."""
    if p in G.S:
        raise ValueError(f"{p} lies in the denominator set S of {G.label}")
    return exact_image_record(G, p ** k, cap)


def _census(G, prime_bound, exponent, cap):
    """(p, ImageRecord mod p^exponent, closure) for each prime p <= prime_bound outside S.

    The one walk of the primes behind strong_approx_scan, one_for_all_scan
    and density.lubotzky_scan.  Primes come in ascending order from
    primes.iter_primes, so their reports are deterministic, and one closure
    at a time, so a caller may stop at any prime having sieved only the
    window that holds it.  When some prime's p^exponent is past order_sl's
    range, the first such prime raises its OutOfRange before any closure.
    """
    if exponent > 1 or prime_bound > _MAX_MODULUS:   # not prime_bound ** exponent: a huge power
        for p in iter_primes(prime_bound):
            if p not in G.S and p ** exponent > _MAX_MODULUS:
                order_sl(G.n, p ** exponent)             # raises
    for p in iter_primes(prime_bound):
        if p not in G.S:
            rec, closure = image_record(G, p ** exponent, cap)
            yield p, rec, closure


class CongruenceReport(namedtuple("CongruenceReport", [
        "group", "S", "records", "exceptional_primes"])):
    __slots__ = ()


def strong_approx_scan(G, prime_bound, exponent=1, cap=DEFAULT_CAP):
    """Surjectivity census over all primes p <= bound outside S.

    A truncated record has no verdict, so its prime is not exceptional.
    """
    census = [(p, rec) for p, rec, _ in _census(G, prime_bound, exponent, cap)]
    return CongruenceReport(
        group=G.label,
        S=tuple(sorted(G.S)),
        records=tuple(rec for _, rec in census),
        exceptional_primes=tuple(p for p, rec in census if rec.surjective is False),
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
    range lies inside the bad set.  Each set's primes come from _census, and
    the first truncated image raises Truncated, before any later prime's
    closure runs.
    """
    rows = []
    bad = frozenset(bad_set)
    for label, gens in sample_sets:
        G = gens if isinstance(gens, SIntegerGroup) else SIntegerGroup(gens, label=label)
        generating = []
        failing = []
        for p, rec, _ in _census(G, prime_bound, 1, cap):
            (generating if _exact(rec, cap).surjective else failing).append(p)
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
