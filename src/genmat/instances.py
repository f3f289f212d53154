"""Concrete generic-matroid instances wired to the algebra oracles.

Five constructors, all yielding GenericMatroidInstance:

  finite_matroid              explicit basis family over labelled points
  vector_matroid              columns over F_p, bases = maximal independent sets
  nn_instance                 degree-one parameter systems of a graded algebra
  minred_instance             minimal reductions of an equigenerated ideal
  complete_reduction_instance multigraded algebra or ideal tuple, matrix or
                              vector sampling

The four algebraic kinds come from one builder over blocks of forms,
one graded piece per block: a column kind's element has one entry per
block, and the element kinds (nn, minred) are the one-block case, whose
elements are bare polynomials.  A handle spans its blocks, solved once
when it is built, and samples uniform coefficient combinations.
Basis oracles check every candidate explicitly (the count equals the
rank; each entry is a nonzero form of the ambient ring in its block's
piece) and read a failure, or an entry the containment tests put
outside its ideal, as "not a basis".  Anything else the algebra raises
propagates: an inconclusive reduction verdict, and any library fault.
Handles default only when None: an empty mapping is refused.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Iterable, Mapping, Sequence

from . import linalg
from .algebra import (
    DEFAULT_POWER_BOUND,
    EquigeneratedIdeal,
    GradedAlgebraPresentation,
    OutsideIdealError,
    _ideal_tuple,
    _unit,
    analytic_spread,
    diagonal_subring,
    equigenerated_ideal,
    ideal_product,
    is_complete_reduction_ideals,
    is_complete_reduction_ring,
    is_minimal_reduction,
    is_noether_normalization,
)
from .matroid import GenericMatroidInstance, MatroidHandle
from .polyring import Polynomial, PrimeField, linear_combination, random_linear_combination

_SAMPLE_RETRIES = 64


def _nonzero_combo(forms: Sequence[Polynomial], rng: random.Random) -> Polynomial:
    for _ in range(_SAMPLE_RETRIES):
        f, _ = random_linear_combination(forms, rng)
        if not f.is_zero:
            return f
    raise RuntimeError("sampler kept drawing zero combinations")


# ---------------------------------------------------------------- finite


def _finite_handle(name: str, subset: Iterable, ground: set, carrier_of) -> MatroidHandle:
    """Handle over the bases of a finite instance that lie in ``subset``.

    ``carrier_of`` maps the subset, checked against the ground set, to
    the union of those bases in sampling order.
    """
    subset = tuple(dict.fromkeys(subset))
    if not ground.issuperset(subset):
        raise ValueError(f"handle {name!r} leaves the ground set")
    elements = tuple(carrier_of(subset))
    if not elements:
        raise ValueError(f"handle {name!r} contains no basis")
    carrier = frozenset(elements)

    def sample(rng: random.Random):
        return elements[rng.randrange(len(elements))]

    return MatroidHandle(name, carrier.__contains__, sample, elements=elements)


def finite_matroid(
    ground: Iterable,
    bases: Iterable,
    handles: Mapping[str, Iterable] | None = None,
) -> GenericMatroidInstance:
    """Explicit basis family over hashable labels.

    Bases must share one size; handles are subsets of the ground set,
    each carrying the union of the bases it contains.
    """
    ground = tuple(ground)
    if len(set(ground)) != len(ground):
        raise ValueError("duplicate ground elements")
    ground_set = set(ground)
    family = {frozenset(b) for b in bases}
    if not family:
        raise ValueError("empty basis family")
    sizes = {len(b) for b in family}
    if len(sizes) != 1:
        raise ValueError("bases must share one size")
    for b in family:
        if not b <= ground_set:
            raise ValueError(f"basis {sorted(map(str, b))} leaves the ground set")

    def oracle(tup: tuple) -> bool:
        return frozenset(tup) in family

    def carrier_of(subset) -> list:
        inside = set(subset)
        return sorted(set().union(*(b for b in family if b <= inside)), key=str)

    specs = {"ground": ground} if handles is None else dict(handles)
    built = {
        hname: _finite_handle(hname, subset, ground_set, carrier_of)
        for hname, subset in specs.items()
    }
    return GenericMatroidInstance(
        "finite-matroid",
        sizes.pop(),
        oracle,
        built,
        oracle_name="finite-family-membership",
    )


# ---------------------------------------------------------------- vectors


def vector_matroid(
    p: int,
    vectors: Iterable[Sequence[int]],
    handles: Mapping[str, Iterable] | None = None,
) -> GenericMatroidInstance:
    """Finite list of F_p columns; bases are maximal independent subsets.

    Ground and handle vectors are read mod p; a candidate must be a
    ground vector.
    """
    PrimeField(p)
    vecs = tuple(tuple(x % p for x in v) for v in vectors)
    if not vecs:
        raise ValueError("need at least one vector")
    if len({len(v) for v in vecs}) != 1:
        raise ValueError("vectors must share one length")
    if len(set(vecs)) != len(vecs):
        raise ValueError("duplicate ground vectors")
    ground = set(vecs)
    r = linalg.rank(list(vecs), p)

    def oracle(tup: tuple) -> bool:
        return len(tup) == r and ground.issuperset(tup) and linalg.independent(list(tup), p)

    def carrier_of(subset) -> list:
        # Every nonzero vector of a full-rank subset extends to a basis in it.
        if linalg.rank(list(subset), p) < r:
            return []
        return sorted(v for v in subset if any(v))

    specs = {"ground": vecs} if handles is None else dict(handles)
    built = {
        hname: _finite_handle(hname, (tuple(x % p for x in v) for v in subset), ground, carrier_of)
        for hname, subset in specs.items()
    }
    return GenericMatroidInstance(
        "vector-matroid",
        r,
        oracle,
        built,
        oracle_name="linear-independence",
    )


# ---------------------------------------------------------------- graded


def _is_form(pres: GradedAlgebraPresentation, f, target) -> bool:
    """Is f a nonzero form of the ambient ring in the ``target`` piece?
    Never raises, unlike ``element_degree``: an element of another ring is not one."""
    return isinstance(f, Polynomial) and f.ring == pres.ring and pres.element_degree(f) == target


def _transpose(cols, n: int) -> tuple:
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def _graded_handle(pres, name, blocks, targets, variant, column) -> MatroidHandle:
    """Handle over blocks of forms; ``column`` vets a candidate first.

    Each span gets its ``linalg.span_solver`` once, here, and a query
    solves for the candidate's coordinates.  Matrix variant, and the element
    kinds (``variant`` None, one block, bare forms): entries are drawn
    independently within their blocks and membership is blockwise.
    Vector variant: one coefficient vector shared by all blocks (which
    must then have equal sizes), and membership in the span of the
    stacked block vectors.
    """
    p = pres.ring.field.p
    rows = [[pres.coordinates(f, t) for f in block] for block, t in zip(blocks, targets)]
    if variant == "vector":
        if len({len(b) for b in blocks}) != 1:
            raise ValueError(f"handle {name!r}: vector variant needs equal block sizes")
        rows = [[sum(stack, ()) for stack in zip(*rows)]]
    solvers = [linalg.span_solver(r, p) for r in rows]

    def contains(element) -> bool:
        col = column(element)
        if col is None:
            return False
        coords = [pres.coordinates(f, t) for f, t in zip(col, targets)]
        if variant == "vector":
            coords = [sum(coords, ())]
        return all(solve(c) is not None for solve, c in zip(solvers, coords))

    def sample(rng: random.Random):
        if variant != "vector":
            col = tuple(_nonzero_combo(block, rng) for block in blocks)
            return col if variant else col[0]
        for _ in range(_SAMPLE_RETRIES):
            coeffs = [pres.ring.field.sample(rng) for _ in blocks[0]]
            col = tuple(linear_combination(coeffs, block) for block in blocks)
            if not any(f.is_zero for f in col):
                return col
        raise RuntimeError(f"handle {name!r} kept drawing degenerate columns")

    return MatroidHandle(name, contains, sample)


def _graded_instance(
    pres: GradedAlgebraPresentation,
    targets: tuple,
    rank: int,
    verdict,
    specs: Mapping,
    variant: str | None,
    traps,
    kind: str,
    ideals: tuple = (),
) -> GenericMatroidInstance:
    """The one builder behind nn, minred and complete-reduction instances.

    Elements are columns with one form per entry of ``targets`` (a
    multidegree per block); with ``variant`` None they are the bare
    forms of one block.  A handle spec is a sequence of blocks (one
    sequence of forms for bare elements), each form in its block's
    piece and, when ``ideals`` are given, in the block's ideal.  The
    oracle checks the candidate count and every entry, then passes the
    n x rank matrix of entries to ``verdict``; only the containment
    tests' OutsideIdealError reads as a rejection.  ``kind`` names both
    the instance and its oracle.
    """
    bare = variant is None
    n = len(targets)

    def column(element):
        col = (element,) if bare else element
        if not isinstance(col, tuple) or len(col) != n:
            return None
        if all(_is_form(pres, f, t) for f, t in zip(col, targets)):
            return col
        return None

    def oracle(cands: tuple) -> bool:
        cols = [column(c) for c in cands]
        if len(cols) != rank or any(c is None for c in cols):
            return False
        try:
            return verdict(_transpose(cols, n))
        except OutsideIdealError:
            return False

    wrong_degree = "is not linear" if targets == ((1,),) else "has the wrong degree"
    built = {}
    for hname, raw in specs.items():
        blocks = (tuple(raw),) if bare else tuple(tuple(b) for b in raw)
        if len(blocks) != n:
            raise ValueError(f"handle {hname!r} needs {n} blocks")
        for i, (block, target) in enumerate(zip(blocks, targets)):
            where = f"handle {hname!r}" if bare else f"handle {hname!r}: block {i}"
            if not block:
                raise ValueError(f"{where} needs at least one form")
            for f in block:
                what = f"handle {hname!r}: {f}" if bare else f"{where} entry {f}"
                if not _is_form(pres, f, target):
                    raise ValueError(f"{what} {wrong_degree}")
                if ideals and not ideals[i].contains(f):
                    outside = "the ideal" if bare else f"ideal {i}"
                    raise ValueError(f"{what} lies outside {outside}")
        built[hname] = _graded_handle(pres, hname, blocks, targets, variant, column)
    return GenericMatroidInstance(kind, rank, oracle, built, traps, oracle_name=kind)


def nn_instance(
    algebra: GradedAlgebraPresentation,
    handles: Mapping[str, Sequence[Polynomial]] | None = None,
    traps: Mapping[str, Polynomial] | None = None,
) -> GenericMatroidInstance:
    """Degree-one parameter systems of a standard graded algebra.

    Handles are spans of explicit linear forms; the default handle
    spans every variable.  Rank 0 (a finite-dimensional algebra) gives
    the trivial instance whose single basis is empty.
    """
    if len(algebra.blocks or ()) != 1:
        raise ValueError("needs a standard graded algebra with one component")
    return _graded_instance(
        algebra,
        ((1,),),
        algebra.dimension(),
        lambda rows: is_noether_normalization(algebra, rows[0]),
        {"ambient": algebra.ring.gens()} if handles is None else handles,
        None,
        traps,
        "noether-normalization",
    )


def minred_instance(
    ideal: EquigeneratedIdeal,
    n_max: int = DEFAULT_POWER_BOUND,
    handles: Mapping[str, Sequence[Polynomial]] | None = None,
    traps: Mapping[str, Polynomial] | None = None,
) -> GenericMatroidInstance:
    """Minimal reductions of an equigenerated ideal.

    Ground elements are degree-matching members of the ideal; the rank
    is the analytic spread.  An inconclusive reduction verdict
    raises InconclusiveError out of the oracle rather than reading as a
    rejection.
    """
    S = ideal.algebra
    return _graded_instance(
        S,
        ((ideal.degree,),),
        analytic_spread(ideal),
        lambda rows: is_minimal_reduction(
            equigenerated_ideal(S, rows[0]), ideal, n_max=n_max
        ),
        {"generators": ideal.generators} if handles is None else handles,
        None,
        traps,
        "minimal-reduction",
        ideals=(ideal,),
    )


# ------------------------------------------------------- complete reduction


def complete_reduction_instance(
    source,
    variant: str = "vector",
    handles: Mapping[str, Sequence] | None = None,
    traps: Mapping[str, tuple] | None = None,
) -> GenericMatroidInstance:
    """Complete reductions of a multigraded algebra or an ideal tuple.

    ``source`` is either a GradedAlgebraPresentation (the ring form:
    bases are d-column matrices of multidegree-one entries) or a
    sequence of EquigeneratedIdeal over one algebra (the ideal form:
    column entries come from the respective ideals).  ``variant``
    selects the sampler: independent entries per block ("matrix") or a
    shared coefficient vector ("vector", the default).
    """
    if variant not in ("matrix", "vector"):
        raise ValueError("variant must be 'matrix' or 'vector'")
    if isinstance(source, GradedAlgebraPresentation):
        n = source.components
        units = tuple(_unit(n, i) for i in range(n))
        d = diagonal_subring(source).dimension()
        if handles is None:
            # Every block is nonempty: an empty one would make the diagonal's piece zero.
            gens = source.ring.gens()
            handles = {"ambient": tuple(tuple(gens[v] for v in b) for b in source.blocks)}
        return _graded_instance(
            source,
            units,
            d,
            lambda rows: is_complete_reduction_ring(source, rows),
            handles,
            variant,
            traps,
            "complete-reduction-ring",
        )
    ideals = _ideal_tuple(source)
    return _graded_instance(
        ideals[0].algebra,
        tuple((I.degree,) for I in ideals),
        analytic_spread(reduce(ideal_product, ideals)),
        lambda rows: is_complete_reduction_ideals(ideals, rows).decided(),
        {"generators": tuple(I.generators for I in ideals)} if handles is None else handles,
        variant,
        traps,
        "complete-reduction-ideals",
        ideals=ideals,
    )
