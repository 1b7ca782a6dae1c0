"""Zariski-density evidence and the soluble/congruence-rich dichotomy.

The positive certificate is deliberately conservative: full Ad-span (which
certifies an absolutely irreducible adjoint action by Burnside's theorem)
plus an explicit infinite-order element.  Together these force the Zariski
closure inside SL_2 to be SL_2 itself, so the verdict DENSE_EVIDENCE is a
documented sufficient criterion, never a guess; anything unresolved comes
back INCONCLUSIVE.

The adjoint action is computed on a constant basis of sl_2, the one that
groups.tangent_space_at_identity(sl_group(2)) derives from det = 1, so the
verdict needs no polynomial layer: this module does not import groups or
mpoly.  Traces, eigenvalues and eigenlines are QQ values, ints when
integral, and the elimination over Q is fraction-free, so a verdict on an
integral group makes a Fraction only to print a witness line with a
non-integral entry.
"""

from collections import namedtuple
from math import comb, isqrt

from .catalog import DEFAULT_CAP
from .errors import NotStabilizing, Truncated, UnsupportedDimension
from .matrix import Mat, SpanTracker, kernel_basis, solve_in_span
from .rings import QQ, IntegersMod, rational

DENSE_EVIDENCE = "DENSE_EVIDENCE"
NOT_DENSE = "NOT_DENSE"
INCONCLUSIVE = "INCONCLUSIVE"

# the witness search gives up after visiting this many distinct words
WITNESS_VISITED_CAP = 10000
# surjective primes up to this bound get the exhaustive quasisimple check
QUASISIMPLE_PMAX = 13

# the rref kernel basis (E12, E21, E22 - E11) of the differential of det at I
SL2_BASIS = (
    Mat(QQ, [[0, 1], [0, 0]]),
    Mat(QQ, [[0, 0], [1, 0]]),
    Mat(QQ, [[-1, 0], [0, 1]]),
)

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

    Enumerates words in the generators up to the configured length and
    closes the unipotent ones.  For p > n the one-parameter point
    one_param_point(g, t) of a unipotent g is g^t (binomial theorem), so the
    points {g^t : t in F_p} generate what the words do.  Equality with
    gamma_plus of the full closure is the Nori check at the level of
    F_p-points.
    """
    from .congruence import flat_identity, flat_mul

    if not gens:
        raise ValueError("need at least one generator")
    p = gens[0].ring.m
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
                    if len(seen) >= cap:   # this word would pass the cap
                        raise Truncated("word enumeration exceeded the cap")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return _generated_subgroup(_unipotent_flats(sorted(seen), n, p), n, p, cap)


def _symmetrized(gens):
    out = []
    for i, g in enumerate(gens, start=1):
        out.append((f"g{i}", g))
        out.append((f"g{i}^-1", g.inverse()))
    return out


def adjoint_matrix(g, basis):
    """Matrix of the conjugation action X -> g X g^{-1} in a Lie algebra basis.

    Columns hold the coordinates of the conjugated basis elements, so
    Ad(gh) = Ad(g) Ad(h) as matrices acting on coordinate columns.
    """
    return _adjoint_matrix(g, g.inverse(), basis)


def _adjoint_matrix(g, ginv, basis):
    """adjoint_matrix(g, basis), given ginv = g^-1."""
    cols = solve_in_span([b.flat() for b in basis], [(g * b * ginv).flat() for b in basis])
    if None in cols:
        raise NotStabilizing("conjugation does not preserve the span of the Lie algebra")
    dim = len(basis)
    return Mat(QQ, [[cols[j][i] for j in range(dim)] for i in range(dim)])


def ad_span(basis, gens):
    """Dimension of span{Ad(w) : w a word in the generators} in End(L).

    L is the Lie algebra spanned by basis.  The span is closed as an algebra
    from Ad(I): each round multiplies only the products that grew the span in
    the round before by each Ad(g^+-1), so after round k it is the span of
    the words of length <= k.  Returns (dimension, k) for the first round k
    that makes the span full; when a round k adds nothing, no later round
    can, and the span closes short at (dimension, k + 1): the last length at
    which it grew, plus 2.
    """
    return _ad_span(basis, _symmetrized(gens))


def _ad_span(basis, pairs):
    """ad_span(basis, gens), given pairs = _symmetrized(gens)."""
    dim = len(basis)
    width = dim * dim
    tracker = SpanTracker()
    ident = Mat.identity(QQ, dim)
    tracker.add(ident.flat())
    sym = []
    for (_, g), (_, g_inv) in zip(pairs[::2], pairs[1::2]):    # each g is followed by g^-1
        sym += [_adjoint_matrix(g, g_inv, basis), _adjoint_matrix(g_inv, g, basis)]
    grew = [ident]
    length = 0
    while grew:
        length += 1
        previous, grew = grew, []
        for prod in (w * ad for w in previous for ad in sym):
            if tracker.add(prod.flat()):
                if tracker.dim == width:
                    return tracker.dim, length
                grew.append(prod)
    return tracker.dim, length + 1


def _square_root_fraction(q):
    """The rational square root of the rational q, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return rational(rn, rd)
    return None


def _common_eigenvector(gens):
    """A line fixed by every generator, over Q or a quadratic extension.

    Returns (field_description, vector) or None.  Only the eigenlines of the
    first non-scalar generator g = [[a, b], [c, d]] can qualify.  When g has
    no rational eigenvalue, its eigenvector (b, w - a) is written as pairs
    x + y*w with w^2 = tr(g) w - det(g), and a rational h fixes its line
    exactly when h commutes with g: h then fixes the Galois-conjugate line
    too, so it is diagonal in g's eigenbasis.  A rational line is tested on
    the direction (-y, x) of a nonzero row (x, y) of g - lam, integral when g
    is; only the line returned is written as kernel_basis normalises it.
    """
    for g in gens:
        (a, b), (c, d) = g.rows
        if b != 0 or c != 0 or a != d:
            break
    else:
        return ("Q (all generators scalar)", (1, 0))
    tr = g.trace()
    det = g.det()
    root = _square_root_fraction(QQ.sub(QQ.mul(tr, tr), QQ.mul(4, det)))
    if root is None:
        if all(h * g == g * h for h in gens):
            return (f"Q[w]/(w^2 - ({tr})w + ({det}))", ((b, 0), (QQ.neg(a), 1)))
        return None
    for lam in {_half(QQ.add(tr, root)), _half(QQ.sub(tr, root))}:
        shifted = [[QQ.sub(a, lam), b], [c, QQ.sub(d, lam)]]
        x, y = shifted[0] if any(shifted[0]) else shifted[1]
        if all((h00 * y - h01 * x) * x == (h11 * x - h10 * y) * y
               for (h00, h01), (h10, h11) in (h.rows for h in gens)):
            return (f"Q (eigenvalue {lam})", kernel_basis(shifted)[0])
    return None


def _half(q):
    return rational(q.numerator, 2 * q.denominator)


def _witness_search(sym, max_len=8):
    """A word of infinite order: |trace| > 2, or +/- a nontrivial unipotent.

    The words are in the generators and their inverses, sym = _symmetrized(gens).
    """
    ident = Mat.identity(QQ, 2)
    neg_ident = -ident
    frontier = [("e", ident)]
    seen = {ident}
    for _ in range(max_len):
        nxt = []
        for word, w in frontier:
            for name, g in sym:
                prod = w * g
                if prod in seen:
                    continue
                seen.add(prod)
                label = name if word == "e" else f"{word}*{name}"
                tr = prod.trace()
                if abs(tr) > 2:
                    return {"word": label, "trace": tr, "reason": "trace outside [-2, 2]"}
                if tr == 2 and prod != ident:
                    return {"word": label, "trace": tr, "reason": "nontrivial unipotent"}
                if tr == -2 and prod != neg_ident:
                    return {"word": label, "trace": tr,
                            "reason": "negative of a nontrivial unipotent"}
                nxt.append((label, prod))
                if len(seen) > WITNESS_VISITED_CAP:
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
    # one inversion of each generator serves the span and the search
    sym = _symmetrized(G.gens)
    dim, stab = _ad_span(SL2_BASIS, sym)
    witness = _witness_search(sym, max_len=max_word_len)
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
        "group", "verdict", "pmax", "records", "exceptional_primes"])):
    """A dichotomy report; verdict is the group's DensityVerdict."""

    __slots__ = ()


def lubotzky_scan(G, prime_bound, cap=DEFAULT_CAP):
    """Dichotomy report: density verdict plus a per-prime congruence census.

    For surjective primes the PSL_2(p) quotient order is attached (order/2
    for odd p); small surjective primes also get the exhaustive quasisimple
    verification of the image.  The records come from congruence._census,
    the one census strong_approx_scan also reads, so each prime's image is
    counted once, by the stabiliser chain; no elements are kept, and the
    check lists G itself from that count.
    """
    from .congruence import _census, quasisimple_check

    verdict = density_verdict(G)
    records = []
    for p, rec, closure in _census(G, prime_bound, 1, cap):
        psl = None
        quasi = None
        if rec.surjective:
            psl = rec.target_order // 2 if p % 2 else rec.target_order
            if p <= QUASISIMPLE_PMAX:
                quasi = quasisimple_check(closure).quasisimple
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
        pmax=prime_bound,
        records=tuple(records),
        exceptional_primes=tuple(r.p for r in records if r.surjective is False),
    )
