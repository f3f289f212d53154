"""Groebner bases over F_p and the decision procedures built on them.

Buchberger's algorithm with the normal selection strategy applied to
pairs and input alike (Giovini, Mora, Niesi, Robbiano and Traverso
1991; Becker-Weispfenning ch. 5): generators wait in the pair queue by
the degree of their leading monomial, ahead of the pairs of that
degree, and join as remainders against the elements built so far, so
linear forms reduce the relations before those join.  The
Gebauer-Moeller pair update runs once per element that joins: it
prunes the queued pairs (criterion B_k), keeps one new pair per
minimal lcm and queues none with coprime leading monomials (criteria M
and F and the product criterion), and retires the elements whose
leading monomials it divides.  Every element joins as a full
remainder, so what stays active is the minimal basis.  Output is the
reduced basis (monic, no term of any element divisible by another
leading monomial), which is unique per ideal and order, so results are
canonical.

The hot path is division.  Every basis element carries a divisor
record, built once when the element is made: its leading monomial, the
inverse of its leading coefficient, a support mask with one bit per
variable, and its other terms.  ``normal_form`` keeps the working
polynomial in a heap on the order's descending key, so it computes one
key per new monomial and pops the largest term first; the remainder
comes out in descending order, which gives a fresh basis element its
leading monomial for free.  Before comparing exponents, a divisor whose
mask has a bit outside the monomial's mask is skipped (divisibility
implies containment of supports, as in Singular's short exponent
vectors); the pair update tests divisibility with the same prefilter,
and each queued pair keeps its lcm.

Everything downstream is a consequence of normal forms: elimination
through a block order, kernels of algebra maps via T_i - f_i, and the
Hilbert numerator of the leading monomials, which gives the Krull
dimension and top degree.  Elimination and kernels return the reduced
basis they computed, so callers never run Buchberger on it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress
from operator import add, itemgetter, le, sub
from typing import NamedTuple

from .polyring import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    elimination_order,
    reindex,
)


@dataclass(frozen=True)
class IdealSpec:
    """An ideal given by generators in a fixed ambient ring."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        kept = []
        for g in self.generators:
            if not isinstance(g, Polynomial):
                raise ValueError("generators must be polynomials")
            if g.ring != self.ring:
                raise RingMismatchError("generator outside the ambient ring")
            if not g.is_zero:
                kept.append(g)
        object.__setattr__(self, "generators", tuple(kept))


class _Divisor(NamedTuple):
    """Leading data of one basis element, computed once."""

    lm: Monomial
    inv: int  # inverse of the leading coefficient
    mask: int  # _support_mask(lm)
    tail: tuple  # the other (monomial, coefficient) terms
    poly: Polynomial


def _bits(ring: PolyRing) -> tuple[int, ...]:
    return tuple(1 << i for i in range(ring.nvars))


def _support_mask(m: Monomial, bits: tuple[int, ...]) -> int:
    """Bit i set iff variable i occurs in m.  A divisor's mask lies
    inside the mask of every monomial it divides."""
    return sum(compress(bits, m))


def _divisor(g: Polynomial, lm: Monomial, bits: tuple[int, ...]) -> _Divisor:
    terms = g.terms
    tail = tuple((m, c) for m, c in terms.items() if m != lm)
    return _Divisor(lm, g.ring.field.inv(terms[lm]), _support_mask(lm, bits), tail, g)


def _monic(g: Polynomial, lm: Monomial) -> Polynomial:
    """g scaled to leading coefficient 1, its terms kept in their order."""
    c = g.terms[lm]
    if c == 1:
        return g
    fp = g.ring.field
    inv = fp.inv(c)
    return Polynomial._raw(g.ring, {m: a * inv % fp.p for m, a in g.terms.items()})


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its ring and order.

    It is made from ``divisors``, one divisor record per element in
    basis order, handed over by the computation that built them;
    ``basis`` holds their polynomials and ``bits`` the ring's bit table
    for support masks.  Every ``normal_form`` against this basis reads
    those records.
    """

    ring: PolyRing
    order: MonomialOrder
    divisors: tuple[_Divisor, ...] = field(repr=False, compare=False)
    basis: tuple[Polynomial, ...] = field(init=False)
    bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(d.poly for d in self.divisors))
        object.__setattr__(self, "bits", _bits(self.ring))

    def leading_monomials(self) -> tuple:
        return tuple(d.lm for d in self.divisors)


def _spair(a: _Divisor, b: _Divisor, lcm: Monomial) -> Polynomial:
    """S-polynomial of two records with the given lcm of their leading
    monomials: the leading terms cancel, so only the tails are scaled."""
    ring = a.poly.ring
    p = ring.field.p
    out: dict = {}
    shift = tuple(map(sub, lcm, a.lm))
    for m, c in a.tail:
        out[tuple(map(add, m, shift))] = c * a.inv % p
    shift = tuple(map(sub, lcm, b.lm))
    for m, c in b.tail:
        m = tuple(map(add, m, shift))
        s = (out.get(m, 0) - c * b.inv) % p
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return Polynomial._raw(ring, out)


def normal_form(
    f: Polynomial, basis, order: MonomialOrder = GREVLEX, *, bits: tuple[int, ...] | None = None
) -> Polynomial:
    """Remainder of f under full division by ``basis``.

    ``basis`` is a GroebnerBasis (whose order is used) or a sequence of
    polynomials; Buchberger passes its own divisor records, with the
    ring's bit table as ``bits``.  No term of the result is divisible by
    any basis leading monomial, which makes the map idempotent and, for
    a Groebner basis, a canonical representative of f modulo the ideal.  The
    result lists its terms in descending order.  Raises
    RingMismatchError when f and the basis live in different rings.
    """
    ring = f.ring
    if isinstance(basis, GroebnerBasis):
        if basis.ring is not ring and basis.ring != ring:
            raise RingMismatchError("normal form against a basis of another ring")
        order = basis.order
        divisors, bits = basis.divisors, basis.bits
    elif bits is not None:
        divisors = basis  # Buchberger's own records
    else:
        bits = _bits(ring)
        divisors = []
        for g in basis:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("normal form against a divisor of another ring")
            if not g.is_zero:
                divisors.append(_divisor(g, g.leading_monomial(order), bits))
    p = ring.field.p
    key = order.desc_key
    # Every monomial enters ``work`` and the heap once; a coefficient
    # that cancels stays as 0 until its monomial is popped.  Reduction
    # only adds monomials below the one popped, so none comes back.
    work = dict(f.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    remainder: dict = {}
    while heap:
        mon = heappop(heap)[1]
        coeff = work.pop(mon)
        if not coeff:
            continue
        outside = ~_support_mask(mon, bits)
        for lm, cinv, mask, tail, _ in divisors:
            if not mask & outside and all(map(le, lm, mon)):
                break
        else:
            remainder[mon] = coeff
            continue
        shift = tuple(map(sub, mon, lm))
        scale = coeff * cinv % p
        for m2, c2 in tail:
            m = tuple(map(add, m2, shift))
            c = work.get(m)
            if c is None:
                work[m] = -scale * c2 % p
                heappush(heap, (key(m), m))
            else:
                work[m] = (c - scale * c2) % p
    return Polynomial._raw(ring, remainder)


def _interreduce(
    minimal: list[_Divisor], order: MonomialOrder, bits: tuple[int, ...]
) -> tuple[_Divisor, ...]:
    # Tail-reduce each element of a minimal basis against the others.
    # Reduction keeps every leading monomial (none divides another), and
    # "no term divisible by another leading monomial" depends on those
    # alone, so one pass is final.
    for i, d in enumerate(minimal):
        r = normal_form(d.poly, minimal[:i] + minimal[i + 1 :], order, bits=bits)
        minimal[i] = _divisor(r, d.lm, bits)
    minimal.sort(key=lambda d: order.desc_key(d.lm))
    return tuple(minimal)


def _update(
    divisors: list[_Divisor], active: list[int], live: dict, heap: list, new: int
) -> list[int]:
    """Gebauer-Moeller update for ``divisors[new]`` joining the basis
    (Gebauer and Moeller 1988; Becker-Weispfenning 5.5, UPDATE).

    ``live`` maps each queued pair to its lcm and the lcm's support mask;
    ``heap`` holds the same pairs and the generators still waiting, and
    may hold dropped pairs, which the caller skips.  Returns the new active set: the indices whose leading
    monomials later elements pair with.
    """
    h = divisors[new]
    lm, mask = h.lm, h.mask
    # Criterion B_k: a queued pair whose lcm LM(h) divides is redundant
    # unless h reproduces one of the two companion lcms.
    dead = [
        (i, j)
        for (i, j), (lcm, lcm_mask) in live.items()
        if not mask & ~lcm_mask
        and all(map(le, lm, lcm))
        and tuple(map(max, divisors[i].lm, lm)) != lcm
        and tuple(map(max, divisors[j].lm, lm)) != lcm
    ]
    for pair in dead:
        del live[pair]
    # Criteria M and F: a new pair is redundant when another new pair's
    # lcm divides its lcm; among equal lcms a coprime one is kept, and
    # then not queued (product criterion).  Sorting by degree puts every
    # proper divisor first, so only kept lcms need checking.
    candidates = []
    for k in active:
        g = divisors[k]
        lcm = tuple(map(max, g.lm, lm))
        candidates.append((sum(lcm), bool(g.mask & mask), lcm, g.mask | mask, k))
    candidates.sort()
    kept: list[tuple[Monomial, int]] = []
    for degree, shared, lcm, lcm_mask, k in candidates:
        outside = ~lcm_mask
        for o, m in kept:
            if not m & outside and all(map(le, o, lcm)):
                break
        else:
            kept.append((lcm, lcm_mask))
            if shared:
                live[k, new] = lcm, lcm_mask
                heappush(heap, (degree, (k, new)))
    # An element whose leading monomial LM(h) divides leaves the active
    # set; its queued pairs stay.
    active = [
        k for k in active if mask & ~divisors[k].mask or not all(map(le, lm, divisors[k].lm))
    ]
    active.append(new)
    return active


def buchberger(ideal: IdealSpec, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` under ``order``.

    Generators and pairs wait in one queue by degree: a generator by
    the degree of its leading monomial, a pair by the degree of its
    lcm, smallest first.  Within a degree the generators come first,
    largest leading monomial first, then the pairs.  A popped generator
    or S-polynomial is fully reduced by the elements built so far, and
    a nonzero remainder joins through the Gebauer-Moeller update, which
    prunes the queued pairs.  A joining leading monomial is therefore
    never a multiple of an earlier one; the update retires the active
    ones it divides.  The final active set is the minimal basis, and
    one tail reduction of it is the reduced basis.
    """
    bits = _bits(ideal.ring)
    key = order.desc_key
    # The deduplicated monic generators, largest leading monomial first.
    queued: dict = {}
    for g in ideal.generators:
        k, lm = min((key(m), m) for m in g.terms)
        g = _monic(g, lm)
        queued.setdefault(frozenset(g.terms.items()), (k, sum(lm), g))
    generators = sorted(queued.values(), key=itemgetter(0))
    # Generator j waits as the pair (-1, j), ahead of its degree's pairs.
    heap = [(degree, (-1, j)) for j, (_, degree, _) in enumerate(generators)]
    heapify(heap)

    divisors: list[_Divisor] = []
    active: list[int] = []
    live: dict[tuple[int, int], tuple[Monomial, int]] = {}
    while heap:
        i, j = pair = heappop(heap)[1]
        if i < 0:
            f = generators[j][2]
        elif pair in live:
            f = _spair(divisors[i], divisors[j], live.pop(pair)[0])
        else:
            continue  # dropped by a later update
        r = normal_form(f, divisors, order, bits=bits)
        if r.is_zero:
            continue
        lm = next(iter(r.terms))  # normal_form lists the largest term first
        divisors.append(_divisor(_monic(r, lm), lm, bits))
        active = _update(divisors, active, live, heap, len(divisors) - 1)

    minimal = [divisors[k] for k in active]
    return GroebnerBasis(ideal.ring, order, _interreduce(minimal, order, bits))


def _as_gb(ideal, order: MonomialOrder) -> GroebnerBasis:
    if isinstance(ideal, GroebnerBasis):
        return ideal
    return buchberger(ideal, order)


def elimination_ideal(ideal: IdealSpec, keep) -> GroebnerBasis:
    """Reduced grevlex basis of (ideal) intersected with F_p[keep].

    The result lives in the subring on the kept variables, in their
    original ring order.  The elimination order breaks ties by grevlex
    on the kept block, so the kept-variable part of its reduced basis
    already is the reduced grevlex basis of the intersection.  It ranks
    every monomial with an eliminated variable above every one without,
    so an element lies in the subring iff its leading monomial does,
    and its divisor record is moved over, not rebuilt.
    """
    ring = ideal.ring
    keep_set = set(keep)
    unknown = keep_set - set(ring.names)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    kept = [n for n in ring.names if n in keep_set]
    dropped = [n for n in ring.names if n not in keep_set]
    if not kept:
        raise ValueError("must keep at least one variable")
    if not dropped:
        return buchberger(ideal)
    # Reorder so the eliminated block comes first, then run a block order.
    shuffled = PolyRing(ring.field, tuple(dropped + kept))
    to_shuffled = [ring.index(n) for n in shuffled.names]
    moved = tuple(reindex(g, shuffled, to_shuffled) for g in ideal.generators)
    gb = buchberger(IdealSpec(shuffled, moved), elimination_order(len(dropped)))
    small = PolyRing(ring.field, tuple(kept))
    nd = len(dropped)
    return GroebnerBasis(
        small, GREVLEX, tuple(_drop_block(d, small, nd) for d in gb.divisors if not any(d.lm[:nd]))
    )


def _drop_block(d: _Divisor, small: PolyRing, nd: int) -> _Divisor:
    """d's record moved into ``small``, the variables after the first nd.

    The element must not involve those nd variables; its leading
    monomial, coefficients and remaining support bits carry over.
    """
    return _Divisor(
        d.lm[nd:],
        d.inv,
        d.mask >> nd,
        tuple((m[nd:], c) for m, c in d.tail),
        reindex(d.poly, small, range(nd, nd + small.nvars)),
    )


def kernel_of_map(targets, relations: IdealSpec | None = None, names=None) -> GroebnerBasis:
    """Presentation ideal of the subalgebra generated by ``targets``.

    Given f_1..f_s in R = F_p[x]/relations, returns the reduced grevlex
    basis of the kernel of F_p[T_1..T_s] -> R, T_i -> f_i, computed by
    eliminating the x variables from relations + (T_i - f_i).  ``names``
    overrides the default T1..Ts variable names.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("kernel of a map needs at least one target")
    src = targets[0].ring
    for f in targets:
        if f.ring != src:
            raise RingMismatchError("targets span several rings")
    if relations is not None and relations.ring != src:
        raise RingMismatchError("relations outside the source ring")
    if names is None:
        names = [f"T{i + 1}" for i in range(len(targets))]
    names = list(names)
    if len(names) != len(targets):
        raise ValueError("need one name per target")
    clash = set(names) & set(src.names)
    if clash:
        raise ValueError(f"target names collide with source variables: {sorted(clash)}")
    big = PolyRing(src.field, src.names + tuple(names))
    to_big = list(range(src.nvars)) + [None] * len(names)
    gens: list[Polynomial] = []
    if relations is not None:
        gens.extend(reindex(g, big, to_big) for g in relations.generators)
    for i, f in enumerate(targets):
        t = big.var(names[i])
        gens.append(t - reindex(f, big, to_big))
    # The source variables come first in ``big``, so elimination runs its
    # block order on these generators as they stand.
    return elimination_ideal(IdealSpec(big, tuple(gens)), names)


def _plus_shifted(a: list[int], b: list[int], shift: int) -> list[int]:
    """Coefficients of a(t) + t^shift * b(t), lowest first."""
    out = a + [0] * (shift + len(b) - len(a))
    for i, c in enumerate(b, shift):
        out[i] += c
    return out


def _numerator(gens: list[Monomial]) -> list[int]:
    """N(t) for the monomial ideal M minimally generated by ``gens``
    (Bigatti 1997).  A generator sharing no variable with another splits
    off as a factor 1 - t^deg.  The rest pivot on p = x^e, x their most
    frequent variable and e the lower median of its exponents:
    N(M) = N(M + p) + t^e N(M : p).  The lower median keeps p outside M
    (the upper one returns {xy, x^2} unchanged), so both sides shrink.
    """
    counts = [sum(map(bool, column)) for column in zip(*gens)]
    tangled = [g for g in gens if any(counts[v] > 1 for v, e in enumerate(g) if e)]
    numerator = [1]
    if tangled:
        v = counts.index(max(counts))
        exponents = sorted(g[v] for g in tangled if g[v])
        e = exponents[(len(exponents) - 1) // 2]
        p = tuple(e if k == v else 0 for k in range(len(counts)))
        quotients = {tuple(max(a - b, 0) for a, b in zip(g, p)) for g in tangled}
        colon: list[Monomial] = []  # minimal generators of M : p
        for q in sorted(quotients, key=sum):
            if not any(all(map(le, k, q)) for k in colon):
                colon.append(q)
        plus = [g for g in tangled if g[v] < e] + [p]
        numerator = _plus_shifted(_numerator(plus), _numerator(colon), e)
    for g in set(gens).difference(tangled):
        numerator = _plus_shifted(numerator, [-c for c in numerator], sum(g))
    return numerator


def hilbert_numerator(ideal, order: MonomialOrder = GREVLEX) -> list[int]:
    """Coefficients of N(t), lowest first, where N(t)/(1 - t)^n is the
    Hilbert series of ring/ideal, every variable in degree 1: that of its
    leading monomials (Macaulay).  The unit ideal gives N = 0, i.e. []."""
    numerator = _numerator(list(_as_gb(ideal, order).leading_monomials()))
    while numerator and not numerator[-1]:
        numerator.pop()
    return numerator


def krull_dimension(ideal, order: MonomialOrder = GREVLEX) -> int:
    """Krull dimension of ring/ideal: the variable count minus the number
    of times 1 - t divides the Hilbert numerator; -1 for the unit ideal."""
    gb = _as_gb(ideal, order)
    numerator = hilbert_numerator(gb)
    if not numerator:
        return -1
    dimension = gb.ring.nvars
    while not sum(numerator):  # N(1) = 0
        numerator = list(accumulate(numerator))[:-1]  # N / (1 - t)
        dimension -= 1
    return dimension


def top_degree(ideal, order: MonomialOrder = GREVLEX) -> int | None:
    """Largest degree of a standard monomial of a zero-dimensional
    ring/ideal; None when it is not zero-dimensional, -1 for the unit ideal.

    The Hilbert series N(t)/(1 - t)^n is then a polynomial of that degree."""
    gb = _as_gb(ideal, order)
    if not is_zero_dimensional(gb):
        return None
    numerator = hilbert_numerator(gb)
    return len(numerator) - 1 - gb.ring.nvars if numerator else -1


def is_zero_dimensional(ideal, order: MonomialOrder = GREVLEX) -> bool:
    """Is ring/ideal finite-dimensional over F_p?

    A proper ideal has dimension 0 iff every variable occurs as a pure
    power among the leading terms; the unit ideal (dimension -1) returns
    True, since the zero ring is vacuously finite-dimensional.
    """
    gb = _as_gb(ideal, order)
    # A pure power's support mask has one bit set; the constant 1 has none.
    masks = {d.mask for d in gb.divisors if not d.mask & (d.mask - 1)}
    return 0 in masks or len(masks) == gb.ring.nvars
