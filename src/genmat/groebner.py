"""Groebner bases over F_p and the decision procedures built on them.

Buchberger's algorithm with the normal pair-selection strategy
(smallest lcm degree first) and both classical pair criteria: coprime
leading monomials are skipped outright, and a pair is dropped when a
third leading monomial divides its lcm and both companion pairs have
already left the queue.  Output is the reduced basis (monic, no term
of any element divisible by another leading monomial), which is unique
per ideal and order, so results are canonical.

Everything downstream is a consequence of normal forms: membership,
ideal equality, elimination through a block order, kernels of algebra
maps via T_i - f_i, and Krull dimension read off the leading-term
staircase.  Elimination and kernels return the reduced basis they
computed, so callers never run Buchberger on it again.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .polyring import (
    GREVLEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    elimination_order,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
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


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its ring and order."""

    ring: PolyRing
    order: MonomialOrder
    basis: tuple[Polynomial, ...]

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial(self.order) for g in self.basis)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """S-polynomial: cancel the leading terms against their lcm."""
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = mon_lcm(mf, mg)
    field = f.ring.field
    return f.scale_monomial(mon_div(lcm, mf), field.inv(cf)) - g.scale_monomial(
        mon_div(lcm, mg), field.inv(cg)
    )


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f under full division by ``basis``.

    No term of the result is divisible by any basis leading monomial,
    which makes the map idempotent and, for a Groebner basis, a
    canonical representative of f modulo the ideal.  Raises
    RingMismatchError when f and the basis live in different rings.
    """
    ring = f.ring
    listed = not isinstance(basis, GroebnerBasis)
    if not listed:
        if basis.ring is not ring and basis.ring != ring:
            raise RingMismatchError("normal form against a basis of another ring")
        order = basis.order
        basis = basis.basis
    inv = ring.field.inv
    divisors = []
    for g in basis:
        if listed and g.ring is not ring and g.ring != ring:
            raise RingMismatchError("normal form against a divisor of another ring")
        if not g.is_zero:
            lm, c = g.leading_term(order)
            divisors.append((lm, inv(c), g))
    p = ring.field.p
    work = dict(f.terms)
    remainder: dict = {}
    key = order.key
    while work:
        mon = max(work, key=key)
        coeff = work.pop(mon)
        hit = None
        for lm, cinv, g in divisors:
            if mon_divides(lm, mon):
                hit = (lm, cinv, g)
                break
        if hit is None:
            remainder[mon] = coeff
            continue
        lm, cinv, g = hit
        shift = mon_div(mon, lm)
        scale = coeff * cinv % p
        for m2, c2 in g.terms.items():
            if m2 == lm:
                continue
            m = mon_mul(m2, shift)
            s = (work.get(m, 0) - scale * c2) % p
            if s:
                work[m] = s
            elif m in work:
                del work[m]
    return Polynomial._raw(ring, remainder)


def _interreduce(polys: list[Polynomial], order: MonomialOrder) -> tuple[Polynomial, ...]:
    # Minimal set first: drop anything whose LM another LM divides.
    polys = [g.monic(order) for g in polys if not g.is_zero]
    lms = [g.leading_monomial(order) for g in polys]
    keep: list[int] = []
    for i, lm in enumerate(lms):
        redundant = False
        for j, other in enumerate(lms):
            if i == j:
                continue
            if mon_divides(other, lm) and (other != lm or j < i):
                redundant = True
                break
        if redundant:
            continue
        keep.append(i)
    minimal = [polys[i] for i in keep]
    # Tail-reduce each element against the others.  Reduction keeps every
    # leading monomial (none divides another), and "no term divisible by
    # another leading monomial" depends on those alone, so one pass is final.
    for i in range(len(minimal)):
        minimal[i] = normal_form(minimal[i], minimal[:i] + minimal[i + 1 :], order)
    minimal.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return tuple(minimal)


def buchberger(ideal: IdealSpec, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` under ``order``."""
    basis: list[Polynomial] = []
    lms: list = []
    seen = set()
    for g in ideal.generators:
        g = g.monic(order)
        k = frozenset(g.terms.items())
        if k not in seen:
            seen.add(k)
            basis.append(g)
            lms.append(g.leading_monomial(order))
    if not basis:
        return GroebnerBasis(ideal.ring, order, ())

    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push(i: int, j: int) -> None:
        pair = (i, j) if i < j else (j, i)
        pending.add(pair)
        lcm = mon_lcm(lms[pair[0]], lms[pair[1]])
        heapq.heappush(heap, (sum(lcm), pair))

    for i, j in itertools.combinations(range(len(basis)), 2):
        push(i, j)

    while heap:
        _, pair = heapq.heappop(heap)
        if pair not in pending:
            continue
        pending.discard(pair)
        i, j = pair
        lcm = mon_lcm(lms[i], lms[j])
        if lcm == mon_mul(lms[i], lms[j]):
            continue  # coprime leading monomials: S-polynomial reduces to 0
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mon_divides(lms[k], lcm):
                pik = (i, k) if i < k else (k, i)
                pjk = (j, k) if j < k else (k, j)
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(spolynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero:
            continue
        r = r.monic(order)
        basis.append(r)
        lms.append(r.leading_monomial(order))
        new = len(basis) - 1
        for k in range(new):
            push(k, new)

    return GroebnerBasis(ideal.ring, order, _interreduce(basis, order))


def verify_groebner(gb: GroebnerBasis) -> bool:
    """Exhaustive check: every S-polynomial reduces to zero."""
    for f, g in itertools.combinations(gb.basis, 2):
        if not normal_form(spolynomial(f, g, gb.order), gb).is_zero:
            return False
    return True


def _as_gb(ideal, order: MonomialOrder) -> GroebnerBasis:
    if isinstance(ideal, GroebnerBasis):
        return ideal
    return buchberger(ideal, order)


def ideal_membership(f: Polynomial, ideal, order: MonomialOrder = GREVLEX) -> bool:
    """Is f in the ideal?  Accepts an IdealSpec or a precomputed basis."""
    return normal_form(f, _as_gb(ideal, order)).is_zero


def ideal_equal(a, b, order: MonomialOrder = GREVLEX) -> bool:
    """Mutual containment of two ideals in one ambient ring."""
    ga = _as_gb(a, order)
    gb = _as_gb(b, order)
    if ga.ring != gb.ring:
        raise RingMismatchError("ideal comparison across rings")
    return all(normal_form(g, gb).is_zero for g in ga.basis) and all(
        normal_form(g, ga).is_zero for g in gb.basis
    )


def elimination_ideal(ideal: IdealSpec, keep) -> GroebnerBasis:
    """Reduced grevlex basis of (ideal) intersected with F_p[keep].

    The result lives in the subring on the kept variables, in their
    original ring order.  The elimination order breaks ties by grevlex
    on the kept block, so the kept-variable part of its reduced basis
    already is the reduced grevlex basis of the intersection.
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
    to_small = range(nd, shuffled.nvars)
    out = tuple(
        reindex(g, small, to_small)
        for g in gb.basis
        if all(not any(mon[:nd]) for mon in g.terms)
    )
    return GroebnerBasis(small, GREVLEX, out)


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


def _min_cover(supports: list[frozenset[int]]) -> int:
    """Fewest variables meeting every support.  Any such set holds a
    variable of a smallest support, so branch on which one."""
    if not supports:
        return 0
    smallest = min(supports, key=len)
    return 1 + min(_min_cover([s for s in supports if v not in s]) for v in smallest)


def krull_dimension(ideal, order: MonomialOrder = GREVLEX) -> int:
    """Krull dimension of ring/ideal.

    The variable count minus the fewest variables meeting every
    leading-term support; the rest form a largest variable set that
    contains no support.  Returns -1 for the unit ideal (the zero ring).
    """
    gb = _as_gb(ideal, order)
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gb.leading_monomials()]
    if any(not s for s in supports):
        return -1
    return gb.ring.nvars - _min_cover(supports)


def is_zero_dimensional(ideal, order: MonomialOrder = GREVLEX) -> bool:
    """Is ring/ideal finite-dimensional over F_p?

    A proper ideal has dimension 0 iff every variable occurs as a pure
    power among the leading terms; the unit ideal (dimension -1) returns
    True, since the zero ring is vacuously finite-dimensional.
    """
    return krull_dimension(ideal, order) <= 0
