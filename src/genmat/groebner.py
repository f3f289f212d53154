"""Groebner bases over F_p and the decision procedures built on them.

An ideal enters as an ``IdealSpec`` of polynomials or as an
``Extension``: a basis already computed, whose reduced records enter as
they are, plus generators, a linear one given as its coordinate row
over the variables.  A verdict on a presentation hands over the
latter, its relations the presentation's memoized basis, so neither the
relations nor its linear forms are built or packed as polynomials.

The linear generators settle before any pair, each as its coordinate
row (a linear polynomial's is read off its packed terms):
``linalg.row_echelon`` brings the rows to reduced echelon form once,
each pivot the leading variable of its row, and these elements are
final.  Every other generator is then reduced by them, which replaces
each pivot variable by its image, and only what is left enters
Buchberger's loop.  Nothing in the loop involves a pivot, so the
settled elements never pair or divide there.  The loop is Buchberger's
algorithm with the normal selection strategy applied to pairs and input
alike (Giovini, Mora, Niesi, Robbiano and Traverso 1991;
Becker-Weispfenning ch. 5): generators wait in the pair queue by the
weighted degree of their leading monomial, ahead of the pairs of that
degree, and join as remainders against the elements built so far.
Weights default to 1; ``kernel_of_map`` gives T_i the degree of f_i.
The Gebauer-Moeller pair update runs once per element that joins: it
prunes the queued pairs (criterion B_k), keeps one new pair per
minimal lcm and queues none with coprime leading monomials (criteria M
and F and the product criterion), and retires the elements whose
leading monomials it divides.  Every element joins as a full
remainder, so what stays active, with the settled elements, is the
minimal basis; when 1 joins, it alone is.  Output is the reduced basis
(monic, no term of any element divisible by another leading monomial),
which is unique per ideal and order, so results are canonical.

The engine does only the work its caller reads.  The loop is one
generator that yields the settled elements and then each element as it
joins: ``buchberger`` reads it to the end, and ``is_zero_dimensional``
stops reading once the leading monomials yielded so far hold 1 or a
pure power of every variable, which already decides the question.  A
``GroebnerBasis`` holds the minimal basis and tail-reduces it the first
time its elements are read; the Hilbert numerator, dimension and top
degree read leading monomials only, which the minimal basis already
has.

Inside the engine a monomial is one int (Monagan and Pearce 2007,
packed exponent vectors) and its order key is linear in it (see
``_Packing``).  Every basis element carries a divisor record, built
once when the element is made: its leading key and exponents and its
other terms, monic.  ``normal_form`` keeps the working polynomial in a
heap of keys and pops the largest term first; the remainder comes out
in descending order, which gives a fresh basis element its leading
monomial for free.  ``Polynomial`` keeps tuple monomials, converted
where polynomials enter and leave the engine; a basis's records and a
coordinate row need no conversion.

Everything downstream is a consequence of normal forms: kernels of
algebra maps, and the Hilbert numerator of the leading monomials, which
gives the Krull dimension and top degree.  ``kernel_of_map``, the one
elimination, keeps the minimal elements free of the source variables,
a minimal grevlex basis of the kernel (Elimination Theorem), and
tail-reduces only those, so callers never run Buchberger on them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, count, repeat
from operator import itemgetter, le, mul
from struct import Struct
from typing import NamedTuple

from .linalg import row_echelon
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

_WIDTH = 16  # bits per exponent field
_LIMIT = 1 << _WIDTH - 1  # the guard bit: exponents stay below it


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
            if g.ring is not self.ring and g.ring != self.ring:
                raise RingMismatchError("generator outside the ambient ring")
            if not g.is_zero:
                kept.append(g)
        object.__setattr__(self, "generators", tuple(kept))


@dataclass(frozen=True, eq=False)
class Extension:
    """The ideal of the GroebnerBasis ``basis`` plus ``generators``.

    A generator is a polynomial of the basis's ring, or a linear form
    given as its coordinate row over the ring's variables, in order.
    The engine reads the basis's reduced records and the rows as they
    are and packs only the polynomials (see ``_entries``), so it runs in
    the basis's order: ``buchberger`` under another order, or
    ``is_zero_dimensional`` (grevlex) on a basis of another, raises
    ValueError.  A row of another length raises ValueError and a
    polynomial of another ring RingMismatchError, both here.
    """

    basis: GroebnerBasis
    generators: tuple

    ring = property(lambda self: self.basis.ring)

    def __post_init__(self) -> None:
        if not isinstance(self.basis, GroebnerBasis):
            raise TypeError(f"an Extension extends a GroebnerBasis, not {type(self.basis).__name__}")
        ring, gens = self.ring, tuple(self.generators)
        for g in gens:
            if isinstance(g, Polynomial):
                if g.ring is not ring and g.ring != ring:
                    raise RingMismatchError("generator outside the basis's ring")
            elif len(g) != ring.nvars:
                raise ValueError(f"a row of {len(g)} coordinates for {ring.nvars} variables")
        object.__setattr__(self, "generators", gens)


class _Terms(dict):
    """A polynomial inside the engine, key -> coefficient."""

    is_zero = property(lambda self: not self)


class _Divisor(NamedTuple):
    """Leading data of one monic basis element, computed once."""

    lead: int  # key of the leading monomial
    lm: int  # its exponent fields
    tail: tuple  # the other (key, coefficient) terms, largest first


def _lcm(a: int, b: int, guard: int) -> int:
    """Fieldwise max: the guard bits of (a | guard) - b mark a >= b."""
    s = ((a | guard) - b) & guard
    s -= s >> _WIDTH - 1
    return a & s | b & ~s


class _Packing:
    """Monomials of one ring, under one order, as ints.

    Variable i owns the 16-bit field at bit 16i, whose top bit is a
    guard that stays clear: a product is +, a divides m iff no field of
    (m | guard) - a borrows, and ``_lcm`` selects by the guard bits.
    The key of m is K(m) << 16n | m, where K packs the digits of
    ``order.desc_key`` in base 2^(16 + bitlen n), more than twice any
    block degree, so keys compare as desc_keys do and add like
    monomials.  The fields break ties from the last variable down, so
    trailing digits that say the same are left out of K (grevlex keeps
    -deg).  The weighted ``degree`` is exact while the degree times the
    largest weight stays below 2^16 - 1; past that only the selection
    order changes.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder, weights=None) -> None:
        n = ring.nvars
        self.ring, self.p = ring, ring.field.p
        self.full, self.guard, self.fields, self.size, self.top = _layout(n)
        self.coeffs, self.is_variable = _unit_keys(n, order)
        weights = (1,) * n if weights is None else tuple(weights)
        if len(weights) != n or min(weights) < 1:
            raise ValueError("need one positive weight per variable")
        self.weights = sum(w << self.top - _WIDTH * i for i, w in enumerate(weights))

    def key(self, m: int) -> int:
        return sum(map(mul, self.coeffs, self.fields(m.to_bytes(self.size, "little"))))

    def degree(self, m: int) -> int:
        return m * self.weights >> self.top & 0xFFFF

    def pack(self, f: Polynomial) -> dict:
        top = max(map(max, f.terms), default=0)
        if top >= _LIMIT:
            raise ValueError(f"exponent {top} exceeds the limit {_LIMIT - 1}")
        coeffs = self.coeffs
        return {sum(map(mul, coeffs, m)): c for m, c in f.terms.items()}

    def monomial(self, key: int) -> Monomial:
        return self.fields((key & self.full).to_bytes(self.size, "little"))

    def polynomial(self, terms: dict) -> Polynomial:
        fields, full, size = self.fields, self.full, self.size
        out = {fields((k & full).to_bytes(size, "little")): c for k, c in terms.items()}
        return Polynomial._raw(self.ring, out)


@lru_cache(maxsize=None)
def _layout(n: int):
    """(full, guard, fields, size, top) of an n-variable packing: the
    mask of all fields and of their guard bits, a reader of the fields,
    their byte count, and the shift of the last variable's field."""
    full = (1 << _WIDTH * n) - 1
    guard = sum(_LIMIT << _WIDTH * i for i in range(n))
    return full, guard, Struct(f"<{n}H").unpack, 2 * n, _WIDTH * (n - 1)


@lru_cache(maxsize=None)
def _unit_keys(n: int, order: MonomialOrder):
    """The key of each variable of an n-variable ring (see _Packing) and
    a test for them, derived once per ring size and order."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    digits = list(zip(*map(order.desc_key, units)))  # digit d on each unit vector
    ties = units[::-1]  # the fields compare from the last variable down
    cut = next(j for j in range(len(digits) + 1) if digits[j:] == ties[: len(digits) - j])
    base, keys = _WIDTH + n.bit_length(), [0] * n
    for digit in digits[:cut]:
        keys = [(k << base) + e for k, e in zip(keys, digit)]
    keys = tuple((k << _WIDTH * n) + (1 << _WIDTH * i) for i, k in enumerate(keys))
    return keys, frozenset(keys).__contains__


def _monic(terms: dict, p: int) -> dict:
    """``terms``, largest first, scaled to leading coefficient 1."""
    c = next(iter(terms.values()))
    if c == 1:
        return terms
    inv = pow(c, -1, p)
    return {k: a * inv % p for k, a in terms.items()}


def _divisor(terms: dict, pk: _Packing) -> _Divisor:
    """Record of the monic multiple of ``terms``, which run largest first."""
    items = iter(_monic(terms, pk.p).items())
    lead, _ = next(items)
    return _Divisor(lead, lead & pk.full, tuple(items))


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """A reduced Groebner basis together with its ring and order.

    It is made from ``minimal``, the records of a minimal basis, largest
    leading monomial first, handed over by the computation that built
    them, and the ``packing`` they are written in.  Tail reduction keeps
    every leading monomial, so ``leading_monomials`` reads the minimal
    records as they are; ``divisors``, the reduced basis's records, are
    tail-reduced from them on first use, and ``basis`` converts those.
    """

    ring: PolyRing
    order: MonomialOrder
    minimal: tuple[_Divisor, ...] = field(repr=False)
    packing: _Packing = field(repr=False)

    @cached_property
    def divisors(self) -> tuple[_Divisor, ...]:
        return _interreduce(self.minimal, self.packing)

    @cached_property
    def basis(self) -> tuple[Polynomial, ...]:
        return tuple(self.packing.polynomial(dict(((d.lead, 1),) + d.tail)) for d in self.divisors)

    def leading_monomials(self) -> tuple:
        return tuple(self.packing.monomial(d.lead) for d in self.minimal)


def _spair(a: _Divisor, b: _Divisor, lcm: int, pk: _Packing) -> dict:
    """S-polynomial of two records with the given lcm of their leading
    monomials: the leading terms cancel, so only the tails move."""
    p = pk.p
    top = pk.key(lcm)
    shift = top - a.lead
    out = {k + shift: c for k, c in a.tail}
    shift = top - b.lead
    for k, c in b.tail:
        k += shift
        s = (out.get(k, 0) - c) % p
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def normal_form(f, basis, *, packing: _Packing | None = None) -> Polynomial:
    """Remainder of f under full division by the GroebnerBasis ``basis``.

    No term of the result is divisible by a leading monomial of the
    basis, so it is the canonical representative of f modulo the
    ideal, with its terms in descending order.  Buchberger and the
    tail reduction pass their own records and ``packing`` instead; f is
    then a key -> coefficient dict, which the division consumes, and
    the result is packed too.  Raises TypeError when ``basis`` is not a
    GroebnerBasis, RingMismatchError when it lives in another ring.
    """
    work, divisors = f, basis
    if packing is None:
        if not isinstance(basis, GroebnerBasis):
            raise TypeError(f"normal_form divides by a GroebnerBasis, not {type(basis).__name__}")
        if basis.ring is not f.ring and basis.ring != f.ring:
            raise RingMismatchError("normal form against a basis of another ring")
        packing, divisors = basis.packing, basis.divisors
        work = packing.pack(f)
    p, guard, full = packing.p, packing.guard, packing.full
    # Every key enters ``work`` and the heap once; a coefficient that
    # cancels stays as 0 until its key is popped.  Reduction only adds
    # keys above the one popped, so none comes back.
    heap = list(work)
    heapify(heap)
    remainder = _Terms()
    while heap:
        key = heappop(heap)
        coeff = work.pop(key)
        if not coeff:
            continue
        if key & guard:  # a product overflowed an exponent field
            raise ValueError(f"an exponent exceeds the limit {_LIMIT - 1}")
        mon = key & full | guard
        for lead, lm, tail in divisors:
            if (mon - lm) & guard == guard:
                break
        else:
            remainder[key] = coeff
            continue
        shift = key - lead
        coeff = p - coeff
        for k, c in tail:
            k += shift
            old = work.get(k)
            if old is None:
                work[k] = coeff * c % p
                heappush(heap, k)
            else:
                work[k] = (old + coeff * c) % p
    return remainder if work is f else packing.polynomial(remainder)


def _interreduce(minimal: tuple[_Divisor, ...], pk: _Packing) -> tuple[_Divisor, ...]:
    # Tail-reduce each element of a minimal basis against the others.
    # Reduction keeps every leading monomial (none divides another), and
    # "no term divisible by another leading monomial" depends on those
    # alone, so one pass is final, and the order stays.
    work = list(minimal)
    for i, d in enumerate(work):
        f = dict(((d.lead, 1),) + d.tail)
        work[i] = _divisor(normal_form(f, work[:i] + work[i + 1 :], packing=pk), pk)
    return tuple(work)


def _update(
    divisors: list[_Divisor], active: list[int], live: dict, heap: list, new: int, pk: _Packing
) -> list[int]:
    """Gebauer-Moeller update for ``divisors[new]`` joining the basis
    (Gebauer and Moeller 1988; Becker-Weispfenning 5.5, UPDATE).

    ``live`` maps each queued pair to its lcm; ``heap`` holds the same
    pairs and the generators still waiting, and may hold dropped pairs,
    which the caller skips.  Returns the new active set: the indices
    whose leading monomials later elements pair with.
    """
    guard, weighted = pk.guard, pk.degree
    lm = divisors[new].lm
    # Criterion B_k: a queued pair whose lcm LM(h) divides is redundant
    # unless h reproduces one of the two companion lcms.
    dead = [
        (i, j)
        for (i, j), lcm in live.items()
        if ((lcm | guard) - lm) & guard == guard
        and _lcm(divisors[i].lm, lm, guard) != lcm
        and _lcm(divisors[j].lm, lm, guard) != lcm
    ]
    for pair in dead:
        del live[pair]
    # Criteria M and F: a new pair is redundant when another new pair's
    # lcm divides its lcm; among equal lcms a coprime one is kept, and
    # then not queued (product criterion).  Sorting by weighted degree
    # puts every proper divisor first, so only kept lcms need checking.
    candidates = []
    for k in active:
        g = divisors[k].lm
        lcm = _lcm(g, lm, guard)
        candidates.append((weighted(lcm), lcm != g + lm, lcm, k))
    candidates.sort()
    kept: list[int] = []
    for degree, shared, lcm, k in candidates:
        above = lcm | guard
        for o in kept:
            if (above - o) & guard == guard:
                break
        else:
            kept.append(lcm)
            if shared:
                live[k, new] = lcm
                heappush(heap, (degree, (k, new)))
    # An element whose leading monomial LM(h) divides leaves the active
    # set; its queued pairs stay.
    active = [k for k in active if ((divisors[k].lm | guard) - lm) & guard != guard]
    active.append(new)
    return active


def _settle(rows: list, pk: _Packing) -> list[_Divisor]:
    """Records of the reduced echelon form of the span of the linear
    forms whose coordinate rows over the ring's variables are ``rows``,
    largest leading monomial first.  Every order ranks the ring's
    variables in their order, the first largest, so with one column per
    variable in that order each row's pivot is its leading variable."""
    keys = pk.coeffs
    rows, _ = row_echelon(rows, pk.p)
    records = []
    for row in rows:
        lead, *tail = compress(zip(keys, row), row)
        records.append(_Divisor(lead[0], lead[0] & pk.full, tuple(tail)))
    return records


def _completion(rows: list, others: list[dict], pk: _Packing):
    """Buchberger's loop on the ideal of the linear forms with coordinate
    rows ``rows`` and the packed generators ``others``, as ``_entries``
    hands them over: yields each element's record, the settled ones first
    and then each one as it joins, and returns the minimal basis, largest
    leading monomial first, when the queue runs dry.

    The rows settle first: their reduced echelon form, pivots on leading
    variables, is yielded at once and stays out of the loop, and every
    other generator enters it with the pivot variables substituted out.
    What enters is then free of the pivots, and so is everything the
    loop builds, so every pair with a settled element is coprime, and
    the settled elements and the loop's minimal basis together are a
    minimal basis, unless the loop reaches 1.  Generators and pairs wait
    in one queue by the weighted degree of a generator's leading
    monomial or a pair's lcm; within a degree the generators come first,
    largest leading monomial first.  Each popped one is reduced by the
    elements built so far, and a nonzero remainder joins through the
    Gebauer-Moeller update.  ``others`` is consumed.
    """
    settled = _settle(rows, pk) if rows else []
    yield from settled
    # The deduplicated monic generators, pivots substituted out, largest
    # leading monomial first.
    queued: dict = {}
    for g in others:
        terms = normal_form(g, settled, packing=pk) if settled else dict(sorted(g.items()))
        if terms:
            terms = _monic(terms, pk.p)
            queued.setdefault(frozenset(terms.items()), (next(iter(terms)), terms))
    generators = sorted(queued.values(), key=itemgetter(0))
    # Generator j waits as the pair (-1, j), ahead of its degree's pairs.
    heap = [(pk.degree(lead & pk.full), (-1, j)) for j, (lead, _) in enumerate(generators)]
    heapify(heap)

    divisors: list[_Divisor] = []
    active: list[int] = []
    live: dict[tuple[int, int], int] = {}
    while heap:
        i, j = pair = heappop(heap)[1]
        if i < 0:
            f = generators[j][1]
        elif pair in live:
            f = _spair(divisors[i], divisors[j], live.pop(pair), pk)
        else:
            continue  # dropped by a later update
        r = normal_form(f, divisors, packing=pk)
        if r.is_zero:
            continue
        divisors.append(_divisor(r, pk))
        active = _update(divisors, active, live, heap, len(divisors) - 1, pk)
        yield divisors[-1]
    minimal = [divisors[k] for k in active]
    if all(d.lm for d in minimal):  # else it is [1], and the rest is redundant
        minimal += settled
    return tuple(sorted(minimal))  # ascending leading keys


def _entries(ideal, pk: _Packing) -> tuple[list, list[dict]]:
    """The generators of ``ideal``, an IdealSpec or an Extension, as
    ``_completion`` reads them: (the linear ones as coordinate rows, the
    others packed), an Extension's relations first.  Those are the
    reduced records of its basis, which ValueError refuses unless they
    are written in ``pk``'s order.  A linear polynomial becomes a row
    here, its coefficient on each variable."""
    packed, rows, others = [], [], []
    if isinstance(ideal, Extension):
        basis = ideal.basis
        if basis.packing.coeffs != pk.coeffs:
            raise ValueError("the basis is in another monomial order")
        packed = [dict(((d.lead, 1),) + d.tail) for d in basis.divisors]
    for g in ideal.generators:
        if isinstance(g, Polynomial):
            packed.append(pk.pack(g))
        else:
            rows.append(g)
    for g in packed:
        if all(map(pk.is_variable, g)):
            rows.append(tuple(map(g.get, pk.coeffs, repeat(0))))
        else:
            others.append(g)
    return rows, others


def buchberger(ideal, order: MonomialOrder = GREVLEX, weights=None) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal``, an IdealSpec or an Extension,
    under ``order``.

    Runs ``_completion`` on its ``_entries`` to the end, with selection
    degrees under the variables' ``weights`` (default 1); the basis
    holds the minimal basis it returns and tail-reduces it when first
    read.  Weights change the work, never the result.  An exponent of
    2^15 or more raises ValueError, in the input before any pair, or when
    a product reaches it.
    """
    pk = _Packing(ideal.ring, order, weights)
    run = _completion(*_entries(ideal, pk), pk)
    while True:
        try:
            next(run)
        except StopIteration as done:
            return GroebnerBasis(ideal.ring, order, done.value, pk)


def _as_gb(ideal) -> GroebnerBasis:
    return ideal if isinstance(ideal, GroebnerBasis) else buchberger(ideal)


def _fresh_names(taken, n: int, prefix: str) -> list[str]:
    """prefix1..prefix<n>, the prefix repeated the fewest times (T1..,
    then TT1..) that keeps every name out of ``taken``."""
    taken = set(taken)
    for k in count(1):
        names = [f"{prefix * k}{i + 1}" for i in range(n)]
        if taken.isdisjoint(names):
            return names


def _drop_block(d: _Divisor, shift: int) -> _Divisor:
    """d's record moved to the fields above bit ``shift``, the only ones
    it involves, where its elimination key is -deg above them: grevlex's."""
    return _Divisor(d.lead >> shift, d.lm >> shift, tuple((k >> shift, c) for k, c in d.tail))


def kernel_of_map(targets, relations: IdealSpec | None = None, prefix: str = "T") -> GroebnerBasis:
    """Presentation ideal of the subalgebra generated by ``targets``.

    Given f_1..f_s in R = F_p[x]/relations, returns the reduced grevlex
    basis of the kernel of F_p[T_1..T_s] -> R, T_i -> f_i, the T_i named
    by ``_fresh_names`` from ``prefix``: relations + (T_i - f_i) in
    F_p[x, T], intersected with F_p[T].  The elimination order on the x
    ranks every monomial with an x above every one without and breaks
    ties by grevlex on the T, so the minimal elements with x-free leading
    monomials are a minimal grevlex basis of the kernel (Elimination
    Theorem).  Only they are moved over and tail-reduced, in F_p[T],
    when first read.
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
    names = _fresh_names(src.names, len(targets), prefix)
    big = PolyRing(src.field, src.names + tuple(names))
    to_big = list(range(src.nvars)) + [None] * len(names)
    gens = [reindex(g, big, to_big) for g in relations.generators] if relations is not None else []
    gens += [t - reindex(f, big, to_big) for t, f in zip(big.gens()[src.nvars :], targets)]
    # T_i weighs deg f_i, so every generator T_i - f_i is homogeneous.
    weights = [1] * src.nvars + [max(f.degree(), 1) for f in targets]
    gb = buchberger(IdealSpec(big, tuple(gens)), elimination_order(src.nvars), weights)
    small = PolyRing(src.field, tuple(names))
    shift = _WIDTH * src.nvars  # below it, the source variables' fields
    records = tuple(_drop_block(d, shift) for d in gb.minimal if not d.lm & (1 << shift) - 1)
    return GroebnerBasis(small, GREVLEX, records, _Packing(small, GREVLEX))


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


def hilbert_numerator(ideal) -> list[int]:
    """Coefficients of N(t), lowest first, where N(t)/(1 - t)^n is the
    Hilbert series of ring/ideal, every variable in degree 1: that of its
    leading monomials (Macaulay).  The unit ideal gives N = 0, i.e. []."""
    numerator = _numerator(list(_as_gb(ideal).leading_monomials()))
    while numerator and not numerator[-1]:
        numerator.pop()
    return numerator


def krull_dimension(ideal) -> int:
    """Krull dimension of ring/ideal: the variable count minus the number
    of times 1 - t divides the Hilbert numerator; -1 for the unit ideal."""
    gb = _as_gb(ideal)
    numerator = hilbert_numerator(gb)
    if not numerator:
        return -1
    dimension = gb.ring.nvars
    while not sum(numerator):  # N(1) = 0
        numerator = list(accumulate(numerator))[:-1]  # N / (1 - t)
        dimension -= 1
    return dimension


def top_degree(ideal) -> int | None:
    """Largest degree of a standard monomial of a zero-dimensional
    ring/ideal; None when it is not zero-dimensional, -1 for the unit ideal.

    The Hilbert series N(t)/(1 - t)^n is then a polynomial of that degree."""
    gb = _as_gb(ideal)
    if not is_zero_dimensional(gb):
        return None
    numerator = hilbert_numerator(gb)
    return len(numerator) - 1 - gb.ring.nvars if numerator else -1


def is_zero_dimensional(ideal) -> bool:
    """Is ring/ideal finite-dimensional over F_p?

    A proper ideal has dimension 0 iff every variable occurs as a pure
    power among the leading terms; the unit ideal (dimension -1) returns
    True, since the zero ring is vacuously finite-dimensional.  An
    IdealSpec or an Extension is decided while its grevlex basis is
    built from its ``_entries``, an Extension's relations read from its
    basis and its rows settled as they are: every element yielded so far
    lies in the ideal, so the answer is yes as soon as their leading
    monomials hold 1 or a pure power of every variable (the Finiteness
    Theorem, Cox, Little and O'Shea 5.3), and the loop stops there.  The
    settled linear elements come first, pure powers of their pivots.
    Otherwise it runs to its end, and every leading monomial of the
    basis has been yielded.
    """
    if isinstance(ideal, GroebnerBasis):
        records = ideal.minimal
    else:
        pk = _Packing(ideal.ring, GREVLEX)
        records = _completion(*_entries(ideal, pk), pk)
    powers = set()
    for d in records:
        if not d.lm:  # the constant 1
            return True
        v = (d.lm.bit_length() - 1) // _WIDTH  # the last variable of the support
        if not d.lm & (1 << _WIDTH * v) - 1:  # ... and the only one
            powers.add(v)
            if len(powers) == ideal.ring.nvars:
                return True
    return False
