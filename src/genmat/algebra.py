"""Graded algebra presentations and the verification oracles.

An algebra is presented as F_p[x_1..x_m] / relations with an
N^n-multidegree attached to every variable; the relations must be
multihomogeneous and no variable may sit in degree zero.  All oracles
reduce to Groebner computations in the ambient ring:

* homogeneous systems of parameters, via graded Nakayama: S is
  module-finite over F_p[y] iff S/(y) is finite-dimensional, i.e. the
  ideal relations + (y) is zero-dimensional;
* reductions J of I through the fiber ring F = F_p[I_delta]: J is one
  iff F/JF is Artinian, with least power N = max(1, top degree of F/JF);
  an N above the bound N_max is inconclusive, and a named N is certified
  by I^(N+1) = J * I^N, both sides in the one graded piece (N+1)*delta,
  so containment is linear algebra on normal forms there, with J * I^N
  read as rows of generator pairs, never built as products;
* analytic spread, as the dimension of the subalgebra generated by the
  ideal's degree-delta piece;
* complete reductions of N^n-graded algebras through the diagonal
  subalgebra S^D = F_p[S_(1,..,1)], and of ideal tuples through
  columnwise products, with a correspondence check tying the two.

Ideals here are equigenerated and homogeneous: every generator shares
one total degree delta.  That restriction makes the degree-delta piece
the F_p-span of the generators, so minimal generation is plain linear
independence and fiber rings are subalgebras presented by
kernel_of_map.  A subalgebra is the one presentation built on a
computed basis; every other takes its relations as polynomials.

Presentations memoize only data fixed by themselves and their fixed
ideals, never per-candidate data: the relations and the Groebner basis
(a subalgebra's is its kernel's, as computed, and its relations are
read off it when asked), the dimension, and per graded piece the
standard monomials with a row table, monomial -> ``linalg``-packed
coordinate row of its normal form, which every coordinate vector is
summed from and which holds at most the monomials of that degree; the
diagonal presentation; and, keyed by generator tuples, ideal powers,
fiber presentations and degree-delta solvers.  A form's multidegree
lives on the form, remembered with the degree table it was read under
(``polyring.common_degree``), not in this cache.  The cache is
append-only derived data, so sharing across threads is safe.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import reduce

from . import linalg
from .groebner import (
    Extension,
    GroebnerBasis,
    IdealSpec,
    buchberger,
    is_zero_dimensional,
    kernel_of_map,
    krull_dimension,
    normal_form,
    top_degree,
)
from .polyring import (
    GREVLEX,
    MultiDegree,
    PolyRing,
    Polynomial,
    RingMismatchError,
    adjoin,
    common_degree,
    linear_combination,
    mon_divides,
)

DEFAULT_POWER_BOUND = 10


class InconclusiveError(RuntimeError):
    """A verdict that must be decisive came back inconclusive."""

    def __init__(self, verdict: "ReductionVerdict"):
        super().__init__(
            f"reduction test inconclusive after power bound {verdict.n_max}"
        )
        self.verdict = verdict


class OutsideIdealError(ValueError):
    """A candidate's generator or matrix entry lies outside its ideal."""


def _unit(n: int, i: int) -> MultiDegree:
    return tuple(1 if j == i else 0 for j in range(n))


class GradedAlgebraPresentation:
    """F_p[x]/relations with an N^n-multidegree per variable.

    ``relations`` are multihomogeneous polynomials of ``ring``, zeros
    dropped; a subalgebra reads them off its kernel's basis instead.
    ``blocks`` holds the variable indices of each grading component, or
    None unless every variable sits in a unit degree (a standard grading).
    """

    def __init__(self, ring: PolyRing, degrees, relations=()):
        degrees = tuple(tuple(int(x) for x in d) for d in degrees)
        if len(degrees) != ring.nvars:
            raise ValueError("need one multidegree per variable")
        n = len(degrees[0])
        if n < 1 or any(len(d) != n for d in degrees):
            raise ValueError("multidegrees must share one positive length")
        for name, d in zip(ring.names, degrees):
            if any(x < 0 for x in d):
                raise ValueError(f"variable {name} has a negative degree entry")
            if all(x == 0 for x in d):
                raise ValueError(f"variable {name} sits in degree zero")
        self.blocks = None
        if all(sum(d) == 1 for d in degrees):
            self.blocks = tuple(tuple(v for v, d in enumerate(degrees) if d[i]) for i in range(n))
        self.ring = ring
        self.degrees = degrees
        spec = IdealSpec(ring, tuple(relations))
        for g in spec.generators:
            if self.element_degree(g) is None:
                raise ValueError(f"relation {g} is not multihomogeneous")
        self._cache: dict = {("relations",): spec}

    @property
    def relations(self) -> IdealSpec:
        return self._memo(("relations",), lambda: IdealSpec(self.ring, self.groebner().basis))

    @property
    def components(self) -> int:
        return len(self.degrees[0])

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def groebner(self) -> GroebnerBasis:
        return self._memo(("gb",), lambda: buchberger(self.relations, GREVLEX))

    def quotient_groebner(self, extra=()) -> GroebnerBasis:
        """Reduced basis of relations + extra, recomputed on every call.

        An element of ``extra`` is a polynomial, or a linear form given
        as its coordinate row over the ring's variables; a row of
        another length raises ValueError before any work.  The relations
        enter as the records of the memoized basis ``groebner()``, the
        rows as they are: the linear forms settle in one echelon before
        Buchberger's pair loop, and each relation enters it reduced by
        them (``groebner.Extension``).  The basis is tail-reduced only
        when its elements are read: a caller that wants its Hilbert
        series or top degree reads leading monomials alone.
        """
        return buchberger(Extension(self.groebner(), tuple(extra)), GREVLEX)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.groebner())

    def element_degree(self, f: Polynomial) -> MultiDegree | None:
        """The one form check: f's multidegree, or None for zero or a mixed
        element; anything but a polynomial of the ring raises
        RingMismatchError."""
        if not isinstance(f, Polynomial) or f.ring is not self.ring and f.ring != self.ring:
            raise RingMismatchError(f"{f} lies outside the ambient ring")
        return common_degree(f, self.degrees)

    def standard_monomials(self, target: MultiDegree) -> tuple[Polynomial, ...]:
        """Monomial basis of the quotient's ``target`` graded piece.

        Requires a standard multigrading; enumerates the monomials of
        multidegree ``target`` and keeps those outside the leading-term
        staircase of the relations.
        """
        return self._standard_piece(target)[0]

    def _standard_piece(self, target: MultiDegree) -> tuple[tuple[Polynomial, ...], dict]:
        """The ``target`` piece's monomial basis and its row table: a
        monomial of degree ``target`` -> the packed coordinate row of its
        normal form in the piece.  The table starts with the basis's unit
        rows, and ``_fill_row`` adds every other monomial of the piece
        the first time it meets one, so it never outgrows the monomials
        of that degree.
        """
        target = tuple(map(int, target))
        return self._memo(("std", target), lambda: self._standard_monomials(target))

    def _standard_monomials(self, target: MultiDegree) -> tuple[tuple[Polynomial, ...], dict]:
        if self.blocks is None:
            raise ValueError("monomial bases need a standard multigrading")
        if len(target) != self.components:
            raise ValueError("degree vector length mismatch")
        choices_per_component = [
            list(itertools.combinations_with_replacement(block, t))
            for block, t in zip(self.blocks, target)
        ]
        lms = self.groebner().leading_monomials()
        nv = self.ring.nvars
        out = []
        for combo in itertools.product(*choices_per_component):
            e = [0] * nv
            for picks in combo:
                for v in picks:
                    e[v] += 1
            mon = tuple(e)
            if any(mon_divides(lm, mon) for lm in lms):
                continue
            out.append(mon)
        table = dict(zip(out, linalg.unit_rows(self.ring.field.p, len(out))))
        return tuple(self.ring.monomial(m) for m in out), table

    def coordinates(self, f: Polynomial, target: MultiDegree) -> tuple[int, ...]:
        """Coordinate vector of f's normal form in the ``target`` piece."""
        return self.product_row((f,), target)

    def product_row(self, factors, target: MultiDegree) -> tuple[int, ...]:
        """Coordinate vector in the ``target`` piece of the normal form
        of the product of ``factors``: its ``_packed_row`` unpacked."""
        target = tuple(map(int, target))
        piece = self._standard_piece(target)
        row = self._packed_row(factors, target, piece)
        return tuple(linalg.unpack(row, len(piece[0]), self.ring.field.p))

    def _packed_row(self, factors, target: MultiDegree, piece) -> int:
        """The ``product_row`` of the product of ``factors`` in ``piece``,
        packed as ``linalg.row_echelon`` reads it.

        The normal form is linear, so the row is the sum of c * row(m)
        over the terms c*m of the product, each row(m) read packed from
        the piece's row table and summed by ``linalg.row_sum``; the
        product itself is never built.  With several factors, those but
        the last are multiplied out, and each of their terms c*m meets
        each term d*n of the last as c*d * row(m + n), so a two-factor
        product lists no terms at all.  Terms off the piece must sum to an
        element of normal form zero (ValueError otherwise).
        """
        ring, p = self.ring, self.ring.field.p
        for f in factors:
            if not isinstance(f, Polynomial) or f.ring is not ring and f.ring != ring:
                raise RingMismatchError("element outside the ambient ring")
        basis, table = piece
        rows: list[int] = []
        off: dict = {}
        if len(factors) == 1:
            for mon, c in factors[0].terms.items():
                row = table.get(mon)
                if row is None and (row := self._fill_row(piece, mon, target)) is None:
                    off[mon] = off.get(mon, 0) + c
                else:
                    rows.append(c * row)
        else:
            *head, last = factors
            outer = head[0].terms.items()
            for g in head[1:]:
                outer = [
                    (tuple(map(operator.add, m, n)), c * d % p)
                    for m, c in outer
                    for n, d in g.terms.items()
                ]
            last = last.terms.items()
            for m, c in outer:
                for n, d in last:
                    mon = tuple(map(operator.add, m, n))
                    row = table.get(mon)
                    if row is None and (row := self._fill_row(piece, mon, target)) is None:
                        off[mon] = off.get(mon, 0) + c * d
                    else:
                        rows.append(c * d % p * row)
        if off and not self.normal_form(Polynomial(ring, off)).is_zero:
            product = reduce(operator.mul, factors)
            raise ValueError(f"{product} does not lie in the degree-{target} piece")
        return linalg.row_sum(rows, p, len(basis))

    def _fill_row(self, piece, mon, target: MultiDegree):
        """Add monomial ``mon``'s row to the ``target`` piece's table and
        return it; None, and no entry, when ``mon`` lies off the piece."""
        f = self.ring.monomial(mon)
        if self.element_degree(f) != target:
            return None
        # The remainder's monomials are standard, with unit rows.
        basis, table = piece
        rows = [c * table[m] for m, c in self.normal_form(f).terms.items()]
        row = table[mon] = linalg.row_sum(rows, self.ring.field.p, len(basis))
        return row

    def dimension(self) -> int:
        return self._memo(("dim",), lambda: krull_dimension(self.groebner()))


def graded_algebra(ring: PolyRing, degrees, relations=()) -> GradedAlgebraPresentation:
    return GradedAlgebraPresentation(ring, degrees, relations)


def standard_graded_algebra(ring: PolyRing, relations=()) -> GradedAlgebraPresentation:
    """Standard N-graded presentation: every variable in degree 1."""
    return GradedAlgebraPresentation(ring, ((1,),) * ring.nvars, relations)


def is_hsop(algebra: GradedAlgebraPresentation, elements) -> bool:
    """Is ``elements`` a homogeneous system of parameters?

    The count must equal the algebra's dimension and every element must
    be multihomogeneous of positive degree; then S is module-finite
    over F_p[elements] iff the quotient by them is zero-dimensional.
    """
    elements = tuple(elements)
    for f in elements:
        d = algebra.element_degree(f)
        if d is None or sum(d) <= 0:
            raise ValueError(f"{f} is not homogeneous of positive degree")
    want = algebra.dimension()
    if len(elements) != want:
        raise ValueError(
            f"system of parameters for this algebra needs {want} elements, "
            f"got {len(elements)}"
        )
    return _module_finite(algebra, elements)


def is_noether_normalization(algebra: GradedAlgebraPresentation, elements) -> bool:
    """Degree-one homogeneous system of parameters of a standard graded
    algebra: a one-row matrix of forms in S_1."""
    if len(algebra.blocks or ()) != 1:
        raise ValueError("Noether normalizations live in standard N-graded algebras")
    (row,) = _forms_matrix(algebra, (elements,), ((1,),), "grading component")
    return is_hsop(algebra, row)


@dataclass(frozen=True, eq=False)
class EquigeneratedIdeal:
    """Homogeneous ideal whose generators share one total degree,
    ``degree``, set when the generators are validated.  Ideals compare
    by identity."""

    algebra: GradedAlgebraPresentation
    generators: tuple[Polynomial, ...]
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.algebra.blocks or ()) != 1:
            raise ValueError("equigenerated ideals live in standard N-graded algebras")
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        degs = set()
        for g in gens:
            d = self.algebra.element_degree(g)
            if d is None:
                raise ValueError(
                    "a generator is zero" if g.is_zero else f"generator {g} is not homogeneous"
                )
            degs.add(d[0])
        if len(degs) != 1:
            raise ValueError(f"generators mix degrees {sorted(degs)}")
        if min(degs) < 1:
            raise ValueError("generators must have positive degree")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "degree", degs.pop())

    def contains(self, f: Polynomial) -> bool:
        """Span membership in the piece of f's degree; f is zero or homogeneous."""
        d = self.algebra.element_degree(f)
        if d is None and not f.is_zero:
            raise ValueError(f"{f} is not homogeneous")
        return f.is_zero or _first_outside_ideal(self, (f,), d[0]) is None


def equigenerated_ideal(algebra, generators) -> EquigeneratedIdeal:
    return EquigeneratedIdeal(algebra, tuple(generators))


def _ideal_tuple(ideals) -> tuple[EquigeneratedIdeal, ...]:
    """``ideals`` as a nonempty tuple of EquigeneratedIdeals over one
    algebra, equal presentations counting as one; ValueError otherwise."""
    if isinstance(ideals, EquigeneratedIdeal):
        raise ValueError("expected a tuple of ideals, got one EquigeneratedIdeal")
    ideals = tuple(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    for I in ideals:
        if not isinstance(I, EquigeneratedIdeal):
            raise ValueError(f"expected an EquigeneratedIdeal, got {type(I).__name__}")
    a = ideals[0].algebra
    for b in (I.algebra for I in ideals[1:]):
        if b is not a and (
            b.ring != a.ring
            or b.degrees != a.degrees
            or b.relations.generators != a.relations.generators
        ):
            raise ValueError("ideals live in different algebras")
    return ideals


def _of_products(
    algebra: GradedAlgebraPresentation, products, degree: int
) -> EquigeneratedIdeal:
    """The ideal generated by products of validated generators, repeats
    dropped.  They are nonzero (R is a domain) and homogeneous of the
    summed ``degree`` by construction, so they are not validated again.
    No products give the zero ideal, the J of a zero-column matrix,
    which the validating constructor refuses."""
    out = object.__new__(EquigeneratedIdeal)
    object.__setattr__(out, "algebra", algebra)
    object.__setattr__(out, "generators", tuple(dict.fromkeys(products)))
    object.__setattr__(out, "degree", degree)
    return out


def ideal_product(a: EquigeneratedIdeal, b: EquigeneratedIdeal) -> EquigeneratedIdeal:
    a, b = _ideal_tuple((a, b))
    products = (f * g for f in a.generators for g in b.generators)
    return _of_products(a.algebra, products, a.degree + b.degree)


def ideal_power(a: EquigeneratedIdeal, n: int) -> EquigeneratedIdeal:
    if n < 1:
        raise ValueError("ideal powers start at 1")
    key = ("pow", a.generators, n)
    def compute():
        picks = itertools.combinations_with_replacement(a.generators, n)
        products = (reduce(operator.mul, pick) for pick in picks)
        return _of_products(a.algebra, products, n * a.degree)
    return a.algebra._memo(key, compute)


@dataclass(frozen=True)
class ReductionVerdict:
    """Outcome of a reduction test: yes (with the least power), no, or
    inconclusive up to the power bound.  ``witness`` is a transcript of
    the checks that produced the verdict."""

    status: str
    power: int | None = None
    n_max: int | None = None
    witness: tuple = ()

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    @property
    def is_no(self) -> bool:
        return self.status == "no"

    @property
    def is_inconclusive(self) -> bool:
        return self.status == "inconclusive"

    def describe(self) -> str:
        if self.is_yes:
            return f"yes (power {self.power})"
        if self.is_no:
            return "no"
        return f"inconclusive (power bound {self.n_max})"

    def decided(self) -> bool:
        """``is_yes`` of a verdict that must be decisive: an inconclusive
        one raises InconclusiveError rather than passing for "no"."""
        if self.is_inconclusive:
            raise InconclusiveError(self)
        return self.is_yes


def _first_outside(
    S: GradedAlgebraPresentation, left, right, forms, target: MultiDegree
) -> Polynomial | None:
    """The first of ``forms``, all in the caller's piece S_target, outside
    the span of the products a*b for a in ``left``, b in ``right``, or
    None.  ``linalg.row_echelon`` pulls the products' packed rows,
    a-major, as it reads them, and stops once they span the piece; then
    no form's row is built.  Else each form's packed row is built and
    reduced by the echelon form in turn.  No product is built either
    way."""
    piece = S._standard_piece(target)
    p, width = S.ring.field.p, len(piece[0])
    rows = (S._packed_row((a, b), target, piece) for a in left for b in right)
    echelon, pivots = linalg.row_echelon(rows, p, width)
    if len(pivots) == width:
        return None
    for f in forms:
        if any(linalg.residue(echelon, pivots, S._packed_row((f,), target, piece), p, width)):
            return f
    return None


def _first_outside_ideal(K: EquigeneratedIdeal, forms, d: int) -> Polynomial | None:
    """The first of ``forms``, all of the caller's degree d, outside K, or
    None; K's solver reads K_delta, and S_(d - delta) * K's gens span K_d."""
    S = K.algebra
    shift = d - K.degree
    if shift == 0:
        solve = _piece_solver(K)
        return next((f for f in forms if solve(S.coordinates(f, (K.degree,))) is None), None)
    left = S.standard_monomials((shift,)) if shift > 0 else ()
    return _first_outside(S, left, K.generators, forms, (d,))


def _piece_solver(I: EquigeneratedIdeal):
    """``linalg.span_solver`` of I's generators in I's degree-delta piece,
    built once per generator tuple."""
    S = I.algebra
    rows = (S.coordinates(g, (I.degree,)) for g in I.generators)
    return S._memo(("span", I.generators), lambda: linalg.span_solver(rows, S.ring.field.p))


def _subalgebra(targets, relations: IdealSpec, prefix: str, degrees=None):
    """Presentation of F_p[targets] modulo ``relations``: variable i,
    named from ``prefix``, maps to target i in degree degrees[i] (1 by
    default), and kernel_of_map's reduced grevlex basis is the
    presentation's basis, kept as computed.  A linear form in the
    targets enters the engine as its coordinate row over the variables,
    beside the relations read from that basis."""
    ker = kernel_of_map(targets, relations=relations, prefix=prefix)
    pres = GradedAlgebraPresentation(ker.ring, degrees or ((1,),) * len(targets))
    # Nothing to vet: each T_i's degree is read off its target's, so the
    # kernel and its reduced basis are multihomogeneous.
    pres._cache = {("gb",): ker}
    return pres


def fiber_algebra(I: EquigeneratedIdeal) -> GradedAlgebraPresentation:
    """Presentation of the subalgebra generated by I's degree-delta piece,
    variable i mapping to the i-th generator.  For an equigenerated ideal
    this subalgebra is the fiber ring of I, so its dimension is the
    analytic spread.
    """
    gens = I.generators
    return I.algebra._memo(("fiber", gens), lambda: _subalgebra(gens, I.algebra.relations, "T"))


def _generator_coords(I: EquigeneratedIdeal, forms) -> list[tuple[int, ...]]:
    """Coefficients of degree-delta forms over I's generators; the first
    form outside their span, I's degree-delta piece, raises OutsideIdealError."""
    solve = _piece_solver(I)
    out = []
    for idx, f in enumerate(forms):
        coords = solve(I.algebra.coordinates(f, (I.degree,)))
        if coords is None:
            raise _outside(idx, f)
        out.append(coords)
    return out


def _outside(idx: int, f: Polynomial) -> OutsideIdealError:
    return OutsideIdealError(
        f"generator {idx} of the candidate ({f}) does not lie in the ideal"
    )


def _module_finite(pres: GradedAlgebraPresentation, forms) -> bool:
    """Graded Nakayama: is ``pres`` module-finite over F_p[forms]?

    A form is a polynomial or a linear form's coordinate row over the
    ring's variables.  Asked of the ideal itself, the relations read
    from the memoized basis ``pres.groebner()`` and the rows settled as
    they are, so Buchberger stops at the answer."""
    return is_zero_dimensional(Extension(pres.groebner(), tuple(forms)))


def analytic_spread(I: EquigeneratedIdeal) -> int:
    """Dimension of the fiber ring of I."""
    return fiber_algebra(I).dimension()


def fiber_reduction_test(J: EquigeneratedIdeal, I: EquigeneratedIdeal) -> int | None:
    """The least n >= 1 with I^(n+1) = J * I^n, or None if there is none.

    J must lie in I (OutsideIdealError otherwise).  J is a reduction iff
    the fiber ring F = F_p[I_delta] is module-finite over J's image, i.e.
    F/JF is Artinian, and then n = max(1, top degree of F/JF) (graded
    Nakayama; Northcott-Rees).  For J in degree delta one solve decides
    containment and gives J's images in F_1, whose coordinate rows over
    F's variables enter ``quotient_groebner`` as they are, beside the
    relations of F's memoized basis; a J of higher degree adds nothing
    to F_1, so it is a reduction iff I is nilpotent.
    """
    if J.degree == I.degree:
        coords = _generator_coords(I, J.generators)
    else:
        outside = _first_outside_ideal(I, J.generators, J.degree)
        if outside is not None:
            raise _outside(J.generators.index(outside), outside)
        coords = []
    t = top_degree(fiber_algebra(I).quotient_groebner(coords))
    return None if t is None else max(1, t)


def is_reduction(
    J: EquigeneratedIdeal,
    I: EquigeneratedIdeal,
    n_max: int = DEFAULT_POWER_BOUND,
) -> ReductionVerdict:
    """Reduction test with a bounded exponent.

    The fiber ring decides (``fiber_reduction_test``): "no" when F/JF
    is not Artinian, "inconclusive" when the least power it names
    exceeds n_max, and otherwise "yes" once the power criterion
    I^(n+1) = J * I^n holds at that power n, checked by span
    membership in degree (n+1)*delta.  The reverse inclusion is
    automatic once J ⊆ I.  A failing certificate is a library bug and
    raises RuntimeError; it never reads as "no".
    """
    J, I = _ideal_tuple((J, I))
    if n_max < 1:
        raise ValueError("power bound must be at least 1")
    n = fiber_reduction_test(J, I)
    if n is None:
        return ReductionVerdict("no", n_max=n_max, witness=(("fiber", False),))
    if n > n_max:
        return ReductionVerdict("inconclusive", n_max=n_max, witness=(("fiber", True),))
    # A J above degree delta puts J * I^n above (n+1)*delta: no rows there.
    left = J.generators if J.degree == I.degree else ()
    power = ideal_power(I, n + 1)
    failing = _first_outside(
        I.algebra, left, ideal_power(I, n).generators, power.generators, (power.degree,)
    )
    if failing is not None:
        raise RuntimeError(
            f"the fiber ring names power {n}, but {failing} lies outside J * I^{n}"
        )
    witness = (("fiber", True), ("power", n, True, None))
    return ReductionVerdict("yes", power=n, n_max=n_max, witness=witness)


def is_minimal_reduction(
    J: EquigeneratedIdeal,
    I: EquigeneratedIdeal,
    n_max: int = DEFAULT_POWER_BOUND,
) -> bool:
    """Is J a reduction of I on analytic-spread-many generators?

    Such a J is minimally generated, so minimality needs no check of
    its own: for a reduction, the fiber ring F is finite over the
    subalgebra generated by J's images in F_1 = I_delta, so dim F is at
    most the dimension of their span.  Linearly dependent generators
    therefore get the reduction verdict "no".  With the right count, a
    generator outside I raises OutsideIdealError, dependent or not, and
    an inconclusive reduction verdict raises InconclusiveError rather
    than passing for false.
    """
    J, I = _ideal_tuple((J, I))
    if len(J.generators) != analytic_spread(I):
        return False
    return is_reduction(J, I, n_max=n_max).decided()


def diagonal_subring(algebra: GradedAlgebraPresentation) -> GradedAlgebraPresentation:
    """Presentation of the diagonal subalgebra F_p[S_(1,..,1)] of a
    standard multigraded algebra, variable i mapping to the i-th
    standard monomial of the (1,..,1) piece."""
    def compute():
        mons = algebra.standard_monomials((1,) * algebra.components)
        if not mons:
            raise ValueError("the (1,..,1) graded piece is zero")
        return _subalgebra(mons, algebra.relations, "u")

    return algebra._memo(("diag",), compute)


def _forms_matrix(S: GradedAlgebraPresentation, rows, pieces, per: str):
    """``rows`` as a tuple of equal-length tuples, one row per entry of
    ``pieces``, every entry of row i a form of S in piece pieces[i]."""
    mat = tuple(tuple(row) for row in rows)
    if not mat:
        raise ValueError("empty matrix")
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    if len(mat) != len(pieces):
        raise ValueError(f"matrix needs {len(pieces)} rows, one per {per}")
    for i, (row, d) in enumerate(zip(mat, pieces)):
        for j, f in enumerate(row):
            if S.element_degree(f) != d:
                raise ValueError(f"entry ({i},{j}) is not a form of degree {d}")
    return mat


def _refuse_columns(mat, want: int, of: str) -> None:
    """ValueError unless the matrix ``mat`` has ``want`` columns."""
    if len(mat[0]) != want:
        raise ValueError(f"complete reduction of this {of} needs {want} columns, got {len(mat[0])}")


def _column_products(mat) -> list[Polynomial]:
    return [reduce(operator.mul, column) for column in zip(*mat)]


def is_complete_reduction_ring(algebra: GradedAlgebraPresentation, rows) -> bool:
    """Complete reduction test for a standard N^n-graded algebra.

    ``rows`` is an n x r matrix whose row i holds multidegree-e_i
    elements, with r equal to the diagonal dimension.  The columnwise
    products X_j land in the (1,..,1) piece, and the verdict is whether
    the diagonal subalgebra is module-finite over F_p[X_1..X_r].
    """
    n = algebra.components
    mat = _forms_matrix(algebra, rows, [_unit(n, i) for i in range(n)], "grading component")
    diag = diagonal_subring(algebra)
    _refuse_columns(mat, diag.dimension(), "algebra")
    # Variable i of the diagonal maps to standard monomial i of the
    # (1,..,1) piece, so a product's coordinates are its row there.
    ones = (1,) * n
    return _module_finite(diag, [algebra.product_row(col, ones) for col in zip(*mat)])


def is_complete_reduction_ideals(
    ideals,
    rows,
    n_max: int = DEFAULT_POWER_BOUND,
) -> ReductionVerdict:
    """Complete reduction test for a tuple of equigenerated ideals.

    Row i of the matrix holds degree-delta_i elements of I_i (an entry
    outside I_i raises OutsideIdealError); the columnwise products b_j
    must then be a reduction of the product ideal I_1 * .. * I_n,
    tested with is_reduction.  The column count must equal the
    product's analytic spread.
    """
    ideals = _ideal_tuple(ideals)
    algebra = ideals[0].algebra
    mat = _forms_matrix(algebra, rows, [(I.degree,) for I in ideals], "ideal")
    for i, (row, I) in enumerate(zip(mat, ideals)):
        outside = _first_outside_ideal(I, row, I.degree)
        if outside is not None:
            raise OutsideIdealError(
                f"entry ({i},{row.index(outside)}) does not lie in ideal {i}"
            )
    product = reduce(ideal_product, ideals)
    _refuse_columns(mat, analytic_spread(product), "ideal tuple")
    J = _of_products(algebra, _column_products(mat), product.degree)
    return is_reduction(J, product, n_max=n_max)


def multigraded_fiber_algebra(ideals) -> GradedAlgebraPresentation:
    """Fiber presentation of an ideal tuple, graded by source ideal.

    Presents the subalgebra of R[t_1..t_n] generated by g * t_i for each
    generator g of I_i, in that order; the t-markers keep the
    N^n-grading faithful, so the presentation ideal is multihomogeneous
    with the variables of I_i's block in degree e_i.
    """
    ideals = _ideal_tuple(ideals)
    algebra = ideals[0].algebra

    def compute():
        n, ring = len(ideals), algebra.ring
        big, lift = adjoin(ring, n, "t")
        markers = big.gens()[ring.nvars :]
        targets = [lift(g) * t for I, t in zip(ideals, markers) for g in I.generators]
        degrees = [_unit(n, i) for i, I in enumerate(ideals) for _ in I.generators]
        relations = IdealSpec(big, tuple(map(lift, algebra.relations.generators)))
        return _subalgebra(targets, relations, "T", degrees)

    return algebra._memo(("mfiber", tuple(I.generators for I in ideals)), compute)


def lemma_correspondence_check(
    ideals,
    rows,
    n_max: int = DEFAULT_POWER_BOUND,
) -> bool | None:
    """Do the ideal-level and ring-level verdicts agree?

    The matrix is judged once as a candidate complete reduction of the
    ideal tuple and once, after mapping entries into the multigraded
    fiber algebra, as a candidate complete reduction of that algebra.
    Returns True/False for agreement, or None when the ideal side is
    inconclusive and nothing can be compared.
    """
    ideals, rows = _ideal_tuple(ideals), tuple(map(tuple, rows))
    ideal_verdict = is_complete_reduction_ideals(ideals, rows, n_max=n_max)
    if ideal_verdict.is_inconclusive:
        return None
    pres = multigraded_fiber_algebra(ideals)
    T = pres.ring.gens()
    lifted_rows = tuple(
        tuple(linear_combination(c, gens) for c in _generator_coords(I, row))
        for row, I, gens in zip(rows, ideals, ([T[v] for v in b] for b in pres.blocks))
    )
    ring_verdict = is_complete_reduction_ring(pres, lifted_rows)
    return ring_verdict == ideal_verdict.is_yes
