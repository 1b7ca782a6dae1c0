"""Zariski-density evidence and the soluble/congruence-rich dichotomy.

The positive certificate is deliberately conservative: full Ad-span (which
certifies an absolutely irreducible adjoint action by Burnside's theorem)
plus an explicit infinite-order element.  Together these force the Zariski
closure inside SL_2 to be SL_2 itself, so the verdict DENSE_EVIDENCE is a
documented sufficient criterion, never a guess; anything unresolved comes
back INCONCLUSIVE.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb

from .catalog import DEFAULT_CAP
from .errors import Truncated, UnsupportedDimension
from .groups import adjoint_matrix, sl_group, tangent_space_at_identity
from .matrix import Mat, SpanTracker, kernel_basis
from .primes import primes_upto
from .rings import QQ, IntegersMod, QuadraticExt

DENSE_EVIDENCE = "DENSE_EVIDENCE"
NOT_DENSE = "NOT_DENSE"
INCONCLUSIVE = "INCONCLUSIVE"

CRITERION_NOTE = (
    "DENSE_EVIDENCE means: the Ad-span of the generated group is all of "
    "End(sl2) (full span certifies an absolutely irreducible adjoint action "
    "by Burnside), and an explicit word of infinite order was found, so the "
    "Zariski closure is a positive-dimensional subgroup of SL2 acting "
    "irreducibly on sl2, which forces SL2 itself.  NOT_DENSE exhibits a "
    "common eigenvector (a soluble-type witness).  Anything else is "
    "INCONCLUSIVE."
)


def is_unipotent(g):
    """(flag, nu) where nu is the least power with (g - I)^nu = 0.

    Over F_p with p >= n the result is cross-checked against g^p = I, the
    order-p characterisation of unipotents.
    """
    n = g.n
    ident = Mat.identity(g.ring, n)
    u = g - ident
    power = ident
    nu = None
    for k in range(1, n + 1):
        power = power * u
        if all(x == g.ring.zero for row in power.rows for x in row):
            nu = k
            break
    flag = nu is not None
    ring = g.ring
    if isinstance(ring, IntegersMod) and ring.is_field and ring.m >= n:
        assert flag == ((g ** ring.m) == ident), "unipotence disagrees with g^p = I"
    return flag, nu


class OneParamSubgroup(namedtuple("OneParamSubgroup", ["p", "base", "nu"])):
    """t -> base^t for a unipotent Mat base over F_p with nilpotency index nu."""

    __slots__ = ()

    @staticmethod
    def from_matrix(g):
        ring = g.ring
        if not (isinstance(ring, IntegersMod) and ring.is_field):
            raise ValueError("one-parameter subgroups live over a prime field")
        if ring.m <= g.n:
            raise ValueError("need p > n so the binomial truncation is exact")
        flag, nu = is_unipotent(g)
        if not flag:
            raise ValueError("base element is not unipotent")
        return OneParamSubgroup(p=ring.m, base=g, nu=nu)


def one_param_point(X, t):
    """g^t = sum_i C(t, i) (g - I)^i, truncated at the nilpotency index.

    The binomial is evaluated from the canonical integer representative of
    t; since i < nu <= n < p no denominator is divisible by p.
    """
    g = X.base
    ring = g.ring
    n = g.n
    t = int(t) % X.p
    ident = Mat.identity(ring, n)
    u = g - ident
    acc = Mat(ring, [[0] * n for _ in range(n)])
    power = ident
    for i in range(X.nu):
        acc = acc + comb(t, i) * power
        power = power * u
    return acc


def _unipotent_flats(elements, n, p):
    """Flat tuples in the element list that are unipotent mod p."""
    from .congruence import flat_identity, flat_mul

    ident = flat_identity(n, p)
    out = []
    for flat in elements:
        u = tuple((x - e) % p for x, e in zip(flat, ident))
        power = ident
        ok = False
        for _ in range(n):
            power = flat_mul(power, u, n, p)
            if all(x == 0 for x in power):
                ok = True
                break
        if ok:
            out.append(flat)
    return out


def _generated_subgroup(candidates, n, p, cap):
    """Closure of the candidate flats mod p, keeping its elements up to cap.

    A candidate becomes a generator only when it lies outside the subgroup
    closed so far, which is then re-closed, as in a normal closure (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005).  By
    Lagrange each addition at least doubles the subgroup, so at most log2 |H|
    candidates are closed over, not all of them.
    """
    from .congruence import bfs_closure_flat, flat_identity

    ident = flat_identity(n, p)
    gens = []
    members = {ident}
    closure = None
    for flat in candidates:
        if flat not in members:
            gens.append(flat)
            closure = bfs_closure_flat(gens, n, p, cap=cap, element_cap=cap)
            if closure.truncated:
                break
            members = set(closure.elements)
    return closure or bfs_closure_flat([ident], n, p, cap=cap, element_cap=cap)


def gamma_plus(closure):
    """Subgroup generated by all unipotent elements of a finite closure."""
    p = closure.modulus
    ring = IntegersMod(p)
    if not ring.is_field:
        raise ValueError("unipotent structure needs a prime modulus")
    if closure.elements is None:
        raise Truncated("gamma_plus needs the full element set")
    unip = _unipotent_flats(closure.elements, closure.n, p)
    return _generated_subgroup(unip, closure.n, p, closure.order + 1)


def unipotent_closure_subgroup(gens, max_word_len=4, cap=DEFAULT_CAP):
    """Subgroup generated by the one-parameter points of unipotent words.

    Enumerates words in the generators up to the configured length, collects
    the unipotent ones, and closes the set {g^t : t in F_p} over all of them.
    Equality with gamma_plus of the full closure is the Nori check at the
    level of F_p-points.
    """
    from .congruence import flat_identity, flat_mul

    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    p = ring.m
    n = gens[0].n
    if p <= n:
        raise ValueError("need p > n")
    flats = [g.flat() for g in gens]
    seen = {flat_identity(n, p)}
    frontier = list(seen)
    for _ in range(max_word_len):
        nxt = []
        for x in frontier:
            for g in flats:
                y = flat_mul(x, g, n, p)
                if y not in seen:
                    if len(seen) > cap:
                        raise Truncated("word enumeration exceeded the cap")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    unip_words = _unipotent_flats(sorted(seen), n, p)
    points = set()
    for flat in unip_words:
        g = Mat(ring, [flat[i * n : (i + 1) * n] for i in range(n)])
        X = OneParamSubgroup.from_matrix(g)
        for t in range(p):
            points.add(one_param_point(X, t).flat())
    return _generated_subgroup(sorted(points), n, p, cap)


def _symmetrized(gens):
    out = []
    for i, g in enumerate(gens, start=1):
        out.append((f"g{i}", g))
        out.append((f"g{i}^-1", g.inverse()))
    return out


def ad_span(L, gens, max_len=12, frontier_cap=20000):
    """Dimension of span{Ad(w) : w a word in the generators} in End(L).

    Word length increases until the dimension is stable for two consecutive
    lengths (or the span is full).  Returns (dimension, stabilization length).
    """
    dim = L.dim
    width = dim * dim
    tracker = SpanTracker(QQ, width)
    ident = Mat.identity(QQ, dim)
    tracker.add(ident.flat())
    sym = [adjoint_matrix(g, L) for _, g in _symmetrized(gens)]
    frontier = {ident}
    dims = [tracker.dim]
    length = 0
    for length in range(1, max_len + 1):
        nxt = set()
        for w in frontier:
            for ad in sym:
                prod = w * ad
                if prod not in nxt:
                    nxt.add(prod)
        for prod in nxt:
            tracker.add(prod.flat())
        dims.append(tracker.dim)
        if tracker.dim == width:
            return tracker.dim, length
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return tracker.dim, length
        if len(nxt) > frontier_cap:
            break
        frontier = nxt
    return tracker.dim, length


def _square_root_fraction(q):
    q = Fraction(q)
    if q < 0:
        return None
    from math import isqrt

    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _common_eigenvector(gens):
    """A line fixed by every generator, over Q or a quadratic extension.

    Returns (field_description, vector) or None.  Scalar generators fix
    every line, so only non-scalar ones constrain the search.
    """
    nonscalar = []
    for g in gens:
        a, b = g.rows[0]
        c, d = g.rows[1]
        if b == 0 and c == 0 and a == d:
            continue
        nonscalar.append(g)
    if not nonscalar:
        return ("Q (all generators scalar)", (1, 0))
    g = nonscalar[0]
    tr = QQ.canon(g.trace())
    det = QQ.canon(g.det())
    disc = Fraction(tr) ** 2 - 4 * Fraction(det)
    candidates = []
    root = _square_root_fraction(disc)
    if root is not None:
        for lam in {QQ.canon((Fraction(tr) + root) / 2), QQ.canon((Fraction(tr) - root) / 2)}:
            shifted = [
                [QQ.sub(g.rows[0][0], lam), g.rows[0][1]],
                [g.rows[1][0], QQ.sub(g.rows[1][1], lam)],
            ]
            for vec in kernel_basis(QQ, shifted):
                candidates.append((QQ, f"Q (eigenvalue {lam})", vec))
    else:
        ext = QuadraticExt(tr, QQ.canon(-Fraction(det)))
        w = (0, 1)
        a, b = g.rows[0]
        desc = f"Q[w]/(w^2 - ({tr})w + ({det}))"
        if b != 0:
            v = (ext.canon(b), ext.sub(w, ext.canon(a)))
            candidates.append((ext, desc, v))
            wbar = ext.sub(ext.canon(tr), w)
            vbar = (ext.canon(b), ext.sub(wbar, ext.canon(a)))
            candidates.append((ext, desc, vbar))
        else:
            c, d = g.rows[1]
            v = (ext.sub(w, ext.canon(d)), ext.canon(c))
            candidates.append((ext, desc, v))
            wbar = ext.sub(ext.canon(tr), w)
            vbar = (ext.sub(wbar, ext.canon(d)), ext.canon(c))
            candidates.append((ext, desc, vbar))
    for ring, desc, v in candidates:
        ok = True
        for h in gens:
            hv = (
                ring.add(ring.mul(ring.canon(h.rows[0][0]), v[0]),
                         ring.mul(ring.canon(h.rows[0][1]), v[1])),
                ring.add(ring.mul(ring.canon(h.rows[1][0]), v[0]),
                         ring.mul(ring.canon(h.rows[1][1]), v[1])),
            )
            cross = ring.sub(ring.mul(hv[0], v[1]), ring.mul(hv[1], v[0]))
            if cross != ring.zero:
                ok = False
                break
        if ok:
            return (desc, v)
    return None


def _witness_search(gens, max_len=8, visited_cap=10000):
    """A word of infinite order: |trace| > 2, or +/- a nontrivial unipotent."""
    ident = Mat.identity(QQ, 2)
    neg_ident = -ident
    frontier = [("e", ident)]
    seen = {ident}
    for _ in range(max_len):
        nxt = []
        for word, w in frontier:
            for name, g in _symmetrized(gens):
                prod = w * g
                if prod in seen:
                    continue
                seen.add(prod)
                label = name if word == "e" else f"{word}*{name}"
                tr = Fraction(prod.trace())
                if abs(tr) > 2:
                    return {"word": label, "trace": tr, "reason": "trace outside [-2, 2]"}
                if tr == 2 and prod != ident:
                    return {"word": label, "trace": tr, "reason": "nontrivial unipotent"}
                if tr == -2 and prod != neg_ident:
                    return {"word": label, "trace": tr,
                            "reason": "negative of a nontrivial unipotent"}
                nxt.append((label, prod))
                if len(seen) > visited_cap:
                    return None
        frontier = nxt
    return None


class DensityVerdict(namedtuple("DensityVerdict", [
        "verdict", "ad_span_dim", "full_span", "stabilization_length",
        "infinite_order_witness", "not_dense_witness"])):
    """A density verdict and its evidence.

    infinite_order_witness is a dict or None; not_dense_witness is a
    (field description, vector) pair or None.
    """

    __slots__ = ()

    def __new__(cls, verdict, ad_span_dim, full_span, stabilization_length,
                infinite_order_witness, not_dense_witness):
        if full_span:
            assert ad_span_dim == 9
        if verdict == DENSE_EVIDENCE:
            assert full_span and infinite_order_witness is not None
        return super().__new__(cls, verdict, ad_span_dim, full_span, stabilization_length,
                               infinite_order_witness, not_dense_witness)


def density_verdict(G, max_word_len=8):
    """Classify a finitely generated subgroup of SL_2(Q) (evidence only)."""
    if G.n != 2:
        raise UnsupportedDimension(f"the verdict logic is specific to SL_2, got n={G.n}")
    eig = _common_eigenvector(G.gens)
    if eig is not None:
        return DensityVerdict(
            verdict=NOT_DENSE,
            ad_span_dim=0,
            full_span=False,
            stabilization_length=0,
            infinite_order_witness=None,
            not_dense_witness=eig,
        )
    sl2 = tangent_space_at_identity(sl_group(2))
    dim, stab = ad_span(sl2, G.gens)
    witness = _witness_search(G.gens, max_len=max_word_len)
    full = dim == 9
    if full and witness is not None:
        verdict = DENSE_EVIDENCE
    else:
        verdict = INCONCLUSIVE
    return DensityVerdict(
        verdict=verdict,
        ad_span_dim=dim,
        full_span=full,
        stabilization_length=stab,
        infinite_order_witness=witness,
        not_dense_witness=None,
    )


class LubotzkyRecord(namedtuple("LubotzkyRecord", [
        "p", "image_order", "target_order", "surjective", "truncated", "psl_quotient_order",
        "quasisimple"])):
    """The image mod p, with the PSL_2(p) quotient order and the quasisimple check.

    image_order and surjective are None when truncated; psl_quotient_order
    and quasisimple are None when not computed.
    """

    __slots__ = ()


class LubotzkyReport(namedtuple("LubotzkyReport", [
        "group", "verdict", "prime_bound", "records", "exceptional_primes"])):
    """A dichotomy report; verdict is the group's DensityVerdict."""

    __slots__ = ()


def lubotzky_scan(G, prime_bound, cap=DEFAULT_CAP, quasisimple_pmax=13):
    """Dichotomy report: density verdict plus a per-prime congruence census.

    For surjective primes the PSL_2(p) quotient order is attached (order/2
    for odd p); small surjective primes also get the exhaustive quasisimple
    verification of the image.  Each prime's image is counted once, by the
    stabiliser chain, so the records match strong_approx_scan; no elements
    are kept, and the check lists G itself from that count.
    """
    from .congruence import image_record, quasisimple_check

    verdict = density_verdict(G)
    records = []
    exceptional = []
    for p in primes_upto(prime_bound):
        if p in G.S:
            continue
        rec, closure = image_record(G, p, cap)
        psl = None
        quasi = None
        if rec.surjective:
            psl = rec.target_order // 2 if p % 2 else rec.target_order
            if p <= quasisimple_pmax:
                quasi = quasisimple_check(closure).quasisimple
        elif rec.surjective is False:
            exceptional.append(p)
        records.append(LubotzkyRecord(
            p=p,
            image_order=rec.image_order,
            target_order=rec.target_order,
            surjective=rec.surjective,
            truncated=rec.truncated,
            psl_quotient_order=psl,
            quasisimple=quasi,
        ))
    return LubotzkyReport(
        group=G.label,
        verdict=verdict,
        prime_bound=prime_bound,
        records=tuple(records),
        exceptional_primes=tuple(exceptional),
    )
