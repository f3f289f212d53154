"""Independent oracles the test suite checks library output against.

Everything here recomputes results along a different route than the
library takes: schoolbook multiplication, monic scaling, S-polynomials
and substitution on plain polynomial arithmetic, textbook division
(``divide``: leading terms cancelled one at a time on tuple monomials,
sharing no code with the Groebner engine), criteria-free pair
completion, combinatorial membership for monomial ideals, brute-force
staircase dimension, ideal membership and equality by that division
against a criteria-free basis, Buchberger's S-pair criterion, the
least reduction power by a power loop over that membership,
coordinates in a graded piece by one division read against the
standard monomials, fiber images by their own elimination over F_p,
and monomial comparison, hence leading terms, by the textbook
definitions.  Expected values frozen into the tests were produced by
these.
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key, partial, reduce

from genmat.algebra import fiber_algebra
from genmat.groebner import GroebnerBasis
from genmat.polyring import GREVLEX, Polynomial, RingMismatchError, mon_divides


def naive_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Schoolbook product, written independently of Polynomial.__mul__."""
    p = a.ring.field.p
    acc: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mon = tuple(x + y for x, y in zip(m1, m2))
            acc[mon] = (acc.get(mon, 0) + c1 * c2) % p
    return Polynomial(a.ring, acc)


def spolynomial(f: Polynomial, g: Polynomial, order=GREVLEX) -> Polynomial:
    """S-polynomial on plain Polynomial arithmetic: both polynomials
    scaled to leading term lcm(LM(f), LM(g)) and subtracted.  Shares no
    code with the S-pairs of the Buchberger engine."""
    if g.ring != f.ring:
        raise RingMismatchError("S-polynomial across rings")
    ring, p = f.ring, f.ring.field.p
    (mf, cf), (mg, cg) = leading_term(f, order), leading_term(g, order)
    lcm = [max(a, b) for a, b in zip(mf, mg)]
    a = ring.monomial([x - y for x, y in zip(lcm, mf)], pow(cf, p - 2, p))
    b = ring.monomial([x - y for x, y in zip(lcm, mg)], pow(cg, p - 2, p))
    return a * f - b * g


def substitute(f: Polynomial, images, target) -> Polynomial:
    """Evaluate f at variable -> polynomial images inside ``target``.

    ``images`` is one target-ring polynomial per variable of f's ring,
    in variable order.
    """
    images = list(images)
    if len(images) != f.ring.nvars:
        raise ValueError("need one image per variable")
    for g in images:
        if g.ring != target:
            raise RingMismatchError("image outside the target ring")
    out = target.zero()
    powers: list[dict[int, Polynomial]] = [{0: target.one()} for _ in images]

    def power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * images[i]
        return cache[e]

    for mon, c in f.terms.items():
        term = target.const(c)
        for i, e in enumerate(mon):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def monic(f: Polynomial, order=GREVLEX) -> Polynomial:
    """f divided by its leading coefficient; the zero polynomial as is."""
    if f.is_zero:
        return f
    inv = f.ring.field.inv(leading_term(f, order)[1])
    return Polynomial(f.ring, {m: a * inv for m, a in f.terms.items()})


def divide(f: Polynomial, divisors, order=GREVLEX) -> Polynomial:
    """Remainder of f under full division by ``divisors`` in ``order``.

    The textbook loop (Cox, Little and O'Shea, section 2.3) on tuple
    monomials: the leading term of what is left is cancelled by the
    first divisor whose leading monomial divides it, or else moves to
    the remainder.  Against a Groebner basis the remainder does not
    depend on the order of the divisors.
    """
    if any(g.ring != f.ring for g in divisors):
        raise RingMismatchError("division by a polynomial of another ring")
    ring, p = f.ring, f.ring.field.p
    leads = [(leading_term(g, order), g) for g in divisors if not g.is_zero]
    remainder: dict = {}
    while not f.is_zero:
        mon, c = leading_term(f, order)
        for (lm, lc), g in leads:
            if mon_divides(lm, mon):
                q = [a - b for a, b in zip(mon, lm)]
                f = f - naive_mul(ring.monomial(q, c * pow(lc, p - 2, p)), g)
                break
        else:
            remainder[mon] = c
            f = f - ring.monomial(mon, c)
    return Polynomial(ring, remainder)


def naive_buchberger(ring, gens, order, max_degree=None):
    """Criteria-free pair completion with its own reduction bookkeeping.

    Processes every pair in FIFO order with no skipping, then
    minimalizes and tail-reduces with explicit loops.  Returns the
    reduced basis as a set of polynomials.  With ``max_degree`` and
    homogeneous input, pairs whose lcm lies above that total degree are
    dropped: the result is a Groebner basis in degrees up to it.
    """
    basis = [monic(g, order) for g in gens if not g.is_zero]
    queue = list(itertools.combinations(range(len(basis)), 2))
    while queue:
        i, j = queue.pop(0)
        if max_degree is not None:
            lcm = map(max, leading_term(basis[i], order)[0], leading_term(basis[j], order)[0])
            if sum(lcm) > max_degree:
                continue
        r = divide(spolynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero:
            continue
        r = monic(r, order)
        new = len(basis)
        basis.append(r)
        queue.extend((k, new) for k in range(new))
    # Minimalize: drop any element whose leading monomial another divides.
    keep: list[int] = []
    lms = [leading_term(g, order)[0] for g in basis]
    for i in range(len(basis)):
        drop = False
        for j in range(len(basis)):
            if i == j:
                continue
            if mon_divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i):
                drop = True
                break
        if not drop:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    stable = False
    while not stable:
        stable = True
        for i in range(len(minimal)):
            rest = minimal[:i] + minimal[i + 1 :]
            r = monic(divide(minimal[i], rest, order), order)
            if r.terms != minimal[i].terms:
                minimal[i] = r
                stable = False
    return set(minimal)


def naive_membership(ring, relations, gens, degree):
    """Membership of degree-``degree`` forms in the homogeneous ideal
    relations + gens of ``ring``.

    Divides by naive_buchberger's grevlex basis truncated at that
    degree, so it shares no code with the library's span membership in
    graded pieces.
    """
    ideal = tuple(relations) + tuple(gens)
    basis = list(naive_buchberger(ring, ideal, GREVLEX, max_degree=degree))
    return lambda f: divide(f, basis).is_zero


def _generators(ideal):
    return ideal.basis if isinstance(ideal, GroebnerBasis) else ideal.generators


def ideal_membership(f: Polynomial, ideal) -> bool:
    """Is f in the ideal (an IdealSpec or a GroebnerBasis's span)?"""
    basis = list(naive_buchberger(ideal.ring, _generators(ideal), GREVLEX))
    return divide(f, basis).is_zero


def ideal_equal(a, b) -> bool:
    """Equal ideals have equal reduced grevlex bases."""
    assert a.ring == b.ring, "ideal comparison across rings"
    return naive_buchberger(a.ring, _generators(a), GREVLEX) == naive_buchberger(
        b.ring, _generators(b), GREVLEX
    )


def verify_groebner(gb: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    return all(
        divide(spolynomial(f, g, gb.order), gb.basis, gb.order).is_zero
        for f, g in itertools.combinations(gb.basis, 2)
    )


def products(gens, n: int) -> list:
    """Products of n generators with repetition, in the order
    ``ideal_power`` lists them."""
    picks = itertools.combinations_with_replacement(gens, n)
    return [reduce(naive_mul, pick) for pick in picks]


def power_failure(ring, relations, J_gens, I_gens, n: int) -> str | None:
    """The first generator of I^(n+1) outside J * I^n, as a string, or
    None when the power criterion holds at n."""
    delta = sum(next(iter(I_gens[0].terms)))
    member = naive_membership(
        ring,
        relations,
        [naive_mul(j, g) for j in J_gens for g in products(I_gens, n)],
        (n + 1) * delta,
    )
    return next((str(g) for g in products(I_gens, n + 1) if not member(g)), None)


def least_power(ring, relations, J_gens, I_gens, n_max: int) -> int | None:
    """The least n <= n_max with I^(n+1) inside J * I^n, or None.

    A plain power loop over ``power_failure``: no span membership in
    graded pieces and no fiber ring.
    """
    for n in range(1, n_max + 1):
        if power_failure(ring, relations, J_gens, I_gens, n) is None:
            return n
    return None


def fiber_image(I, f: Polynomial) -> Polynomial:
    """Image of f in I's fiber ring: the linear form in the T-variables
    whose coefficients write f over I's generators.  That is exact when
    no relation lies in I's degree.

    Its own elimination on the polynomials: each generator, carrying a
    record of the combination it is, is reduced by the pivots kept so
    far and kept with a pivot monomial when something is left; f is
    then reduced the same way, and the records of what it took add up
    to its coordinates."""
    pres, p = fiber_algebra(I), f.ring.field.p
    pivots = []  # (pivot monomial, row with coefficient 1 there, its record)
    T = pres.ring.gens()
    for g, t in zip(I.generators, T):
        for mon, row, record in pivots:
            c = g.terms.get(mon, 0)
            g, t = g - row * c, t - record * c
        if not g.is_zero:
            mon = min(g.terms)
            inv = pow(g.terms[mon], p - 2, p)
            pivots.append((mon, g * inv, t * inv))
    out = pres.ring.zero()
    for mon, row, record in pivots:
        c = f.terms.get(mon, 0)
        f, out = f - row * c, out + record * c
    assert f.is_zero, "not a combination of the generators"
    return out


def reference_coordinates(pres, f: Polynomial, target) -> tuple[int, ...]:
    """f's coordinate vector in the ``target`` piece along the direct
    route: one division of the whole of f by the presentation's basis,
    each remainder monomial then looked up among the piece's standard
    monomials; ValueError when one is not there."""
    index = {next(iter(m.terms)): i for i, m in enumerate(pres.standard_monomials(target))}
    coords = [0] * len(index)
    gb = pres.groebner()
    for mon, c in divide(f, gb.basis, gb.order).terms.items():
        if mon not in index:
            raise ValueError(f"{f} does not lie in the degree-{tuple(target)} piece")
        coords[index[mon]] = c
    return tuple(coords)


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples in nvars variables of the given total degree."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def monomial_ideal_members(generator_monomials, nvars: int, degree: int) -> set:
    """Degree-d monomials inside the monomial ideal the generators span."""
    gens = [tuple(g) for g in generator_monomials]
    out = set()
    for mon in monomials_of_degree(nvars, degree):
        if any(all(a <= b for a, b in zip(g, mon)) for g in gens):
            out.add(mon)
    return out


def product_monomials(gens_a, gens_b) -> set:
    """Pairwise sums of exponent tuples: generators of a monomial ideal product."""
    return {tuple(x + y for x, y in zip(a, b)) for a in gens_a for b in gens_b}


def brute_dimension(leading_monomials, nvars: int) -> int:
    """Largest variable subset meeting no leading-term support."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leading_monomials]
    if any(not s for s in supports):
        return -1
    best = 0
    for size in range(nvars, 0, -1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size
    return best


def random_poly(ring, rng, max_degree=3, terms=4):
    """Seeded random polynomial with small support."""
    out: dict = {}
    p = ring.field.p
    n = ring.nvars
    for _ in range(rng.randrange(1, terms + 1)):
        mon = [0] * n
        for _ in range(rng.randrange(0, max_degree + 1)):
            mon[rng.randrange(n)] += 1
        out[tuple(mon)] = (out.get(tuple(mon), 0) + rng.randrange(p)) % p
    return Polynomial(ring, out)


def random_homogeneous(ring, rng, degree: int, terms=4):
    """Seeded random homogeneous polynomial of the given total degree."""
    out: dict = {}
    p = ring.field.p
    n = ring.nvars
    for _ in range(terms):
        mon = [0] * n
        for _ in range(degree):
            mon[rng.randrange(n)] += 1
        out[tuple(mon)] = (out.get(tuple(mon), 0) + rng.randrange(1, p)) % p
    poly = Polynomial(ring, out)
    if poly.is_zero:
        # Retry; vanishing is a measure-zero accident of the draw.
        return random_homogeneous(ring, rng, degree, terms)
    return poly


def _grevlex_compare(a, b) -> int:
    # Higher total degree wins; on a tie, the last nonzero entry of a - b
    # is negative exactly when a is the larger monomial.
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def order_key(order, m) -> tuple[int, ...]:
    """Ascending sort key of monomial m in ``order``: larger monomial,
    larger key.  The library's ``desc_key`` negated."""
    return tuple(-d for d in order.desc_key(m))


def textbook_compare(order, a, b) -> int:
    """-1, 0 or 1 as monomial a is below, equal to or above b in ``order``.

    Lex: the first nonzero entry of a - b is positive.  Grevlex: see
    ``_grevlex_compare``.  Elimination with split s: grevlex on the first
    s variables, ties broken by grevlex on the rest.
    """
    if order.kind == "lex":
        for x, y in zip(a, b):
            if x != y:
                return 1 if x > y else -1
        return 0
    if order.kind == "grevlex":
        return _grevlex_compare(a, b)
    s = order.split
    return _grevlex_compare(a[:s], b[:s]) or _grevlex_compare(a[s:], b[s:])


def leading_term(f: Polynomial, order=GREVLEX) -> tuple:
    """f's largest monomial under ``textbook_compare``, with its
    coefficient; ValueError for the zero polynomial."""
    if f.is_zero:
        raise ValueError("zero polynomial has no leading term")
    mon = max(f.terms, key=cmp_to_key(partial(textbook_compare, order)))
    return mon, f.terms[mon]
