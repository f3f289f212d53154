"""Concrete generic-matroid instances wired to the algebra oracles.

Five constructors, all yielding GenericMatroidInstance:

  finite_matroid              explicit basis family over labelled points
  vector_matroid              columns over F_p, bases = maximal independent sets
  nn_instance                 degree-one parameter systems of a graded algebra
  minred_instance             minimal reductions of an equigenerated ideal
  complete_reduction_instance multigraded algebra or ideal tuple, matrix or
                              vector sampling

The algebraic instances share one shape: ground elements are
polynomials (or columns of polynomials), handles carry spans described
by explicit forms, and samplers draw uniform coefficient combinations.
Basis oracles forgive malformed candidates — wrong degree, wrong ring,
wrong count all read as "not a basis" — but an inconclusive reduction
verdict raises instead of passing for a rejection.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Iterable, Mapping, Sequence

from . import linalg
from .algebra import (
    EquigeneratedIdeal,
    GradedAlgebraPresentation,
    InconclusiveError,
    algebra_dimension,
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
from .polyring import (
    Polynomial,
    PrimeField,
    RingMismatchError,
    random_linear_combination,
)

_SAMPLE_RETRIES = 64

_LENIENT = (ValueError, RingMismatchError, TypeError, AttributeError, IndexError)


def _nonzero_combo(forms: Sequence[Polynomial], rng: random.Random) -> Polynomial:
    for _ in range(_SAMPLE_RETRIES):
        f, _ = random_linear_combination(forms, rng)
        if not f.is_zero:
            return f
    raise RuntimeError("sampler kept drawing zero combinations")


def _span_handle(
    pres: GradedAlgebraPresentation,
    name: str,
    forms: Sequence[Polynomial],
    target,
) -> MatroidHandle:
    """Handle whose carrier is the k-span of homogeneous forms."""
    forms = tuple(forms)
    if not forms:
        raise ValueError(f"handle {name!r} needs at least one form")
    rows = [pres.coordinates(f, target) for f in forms]
    p = pres.ring.field.p

    def contains(f) -> bool:
        try:
            coords = pres.coordinates(f, target)
        except _LENIENT:
            return False
        return linalg.in_span(rows, coords, p)

    def sample(rng: random.Random) -> Polynomial:
        return _nonzero_combo(forms, rng)

    return MatroidHandle(name, contains, sample)


# ---------------------------------------------------------------- finite


def _finite_handle(name: str, subset: Iterable, family: set) -> MatroidHandle:
    subset_set = set(subset)
    carrier: set = set()
    for b in family:
        if b <= subset_set:
            carrier |= b
    if not carrier:
        raise ValueError(f"handle {name!r} contains no basis")
    elements = tuple(sorted(carrier, key=str))

    def contains(e) -> bool:
        return e in carrier

    def sample(rng: random.Random):
        return elements[rng.randrange(len(elements))]

    return MatroidHandle(name, contains, sample, elements=elements)


def finite_matroid(
    ground: Iterable,
    bases: Iterable,
    handles: Mapping[str, Iterable] | None = None,
    name: str = "finite-matroid",
) -> GenericMatroidInstance:
    """Explicit basis family over hashable labels.

    Bases must share one size; handles are subsets of the ground set,
    each carrying the union of the bases it contains.  Exchange over a
    finite handle can run exhaustively.
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

    specs = dict(handles) if handles else {"ground": ground}
    built = {hname: _finite_handle(hname, subset, family) for hname, subset in specs.items()}
    return GenericMatroidInstance(
        name,
        sizes.pop(),
        oracle,
        built,
        oracle_name="finite-family-membership",
    )


# ---------------------------------------------------------------- vectors


def _vector_handle(name: str, subset, p: int, rank_needed: int) -> MatroidHandle:
    subset = tuple(dict.fromkeys(subset))
    if linalg.rank(list(subset), p) < rank_needed:
        raise ValueError(f"handle {name!r} contains no basis")
    carrier = tuple(sorted(v for v in subset if any(x % p for x in v)))
    carrier_set = set(carrier)

    def contains(v) -> bool:
        return v in carrier_set

    def sample(rng: random.Random):
        return carrier[rng.randrange(len(carrier))]

    return MatroidHandle(name, contains, sample, elements=carrier)


def vector_matroid(
    p: int,
    vectors: Iterable[Sequence[int]],
    handles: Mapping[str, Iterable] | None = None,
    name: str = "vector-matroid",
) -> GenericMatroidInstance:
    """Finite list of F_p columns; bases are maximal independent subsets."""
    PrimeField(p)
    vecs = tuple(tuple(x % p for x in v) for v in vectors)
    if not vecs:
        raise ValueError("need at least one vector")
    if len({len(v) for v in vecs}) != 1:
        raise ValueError("vectors must share one length")
    if len(set(vecs)) != len(vecs):
        raise ValueError("duplicate ground vectors")
    r = linalg.rank(list(vecs), p)
    width = len(vecs[0])

    def oracle(tup: tuple) -> bool:
        try:
            rows = [tuple(int(x) % p for x in v) for v in tup]
        except _LENIENT:
            return False
        if len(rows) != r or any(len(v) != width for v in rows):
            return False
        return linalg.independent(rows, p)

    specs = dict(handles) if handles else {"ground": vecs}
    built = {hname: _vector_handle(hname, subset, p, r) for hname, subset in specs.items()}
    return GenericMatroidInstance(
        name,
        r,
        oracle,
        built,
        oracle_name="linear-independence",
    )


# ---------------------------------------------------------------- graded


def nn_instance(
    algebra: GradedAlgebraPresentation,
    handles: Mapping[str, Sequence[Polynomial]] | None = None,
    traps: Mapping[str, Polynomial] | None = None,
    name: str = "noether-normalization",
) -> GenericMatroidInstance:
    """Degree-one parameter systems of a standard graded algebra.

    Handles are spans of explicit linear forms; the default handle
    spans every variable.  Rank 0 (a finite-dimensional algebra) gives
    the trivial instance whose single basis is empty.
    """
    if algebra.components != 1 or not algebra.is_standard:
        raise ValueError("needs a standard graded algebra with one component")
    d = algebra_dimension(algebra)

    def oracle(tup: tuple) -> bool:
        try:
            return is_noether_normalization(algebra, tup)
        except _LENIENT:
            return False

    specs = dict(handles) if handles else {"ambient": algebra.ring.gens()}
    built = {}
    for hname, forms in specs.items():
        forms = tuple(forms)
        for f in forms:
            if algebra.element_degree(f) != (1,):
                raise ValueError(f"handle {hname!r}: {f} is not linear")
        built[hname] = _span_handle(algebra, hname, forms, (1,))
    return GenericMatroidInstance(
        name,
        d,
        oracle,
        built,
        traps,
        oracle_name="noether-normalization",
    )


def minred_instance(
    ideal: EquigeneratedIdeal,
    n_max: int = 10,
    handles: Mapping[str, Sequence[Polynomial]] | None = None,
    traps: Mapping[str, Polynomial] | None = None,
    name: str = "minimal-reduction",
) -> GenericMatroidInstance:
    """Minimal reductions of an equigenerated ideal.

    Ground elements are degree-matching members of the ideal; the rank
    is the analytic spread.  An inconclusive power-criterion verdict
    raises InconclusiveError out of the oracle rather than reading as a
    rejection.
    """
    S = ideal.algebra
    delta = (ideal.degree,)
    d = analytic_spread(ideal)

    def oracle(tup: tuple) -> bool:
        try:
            J = equigenerated_ideal(S, tup)
            return is_minimal_reduction(J, ideal, n_max=n_max)
        except InconclusiveError:
            raise
        except _LENIENT:
            return False

    specs = dict(handles) if handles else {"generators": ideal.generators}
    built = {}
    for hname, forms in specs.items():
        forms = tuple(forms)
        for f in forms:
            if S.element_degree(f) != delta:
                raise ValueError(f"handle {hname!r}: {f} has the wrong degree")
            if not ideal.contains(f):
                raise ValueError(f"handle {hname!r}: {f} lies outside the ideal")
        built[hname] = _span_handle(S, hname, forms, delta)
    return GenericMatroidInstance(
        name,
        d,
        oracle,
        built,
        traps,
        oracle_name="minimal-reduction",
    )


# ------------------------------------------------------- complete reduction


def _column_handle(
    pres: GradedAlgebraPresentation,
    name: str,
    blocks: Sequence[Sequence[Polynomial]],
    targets,
    variant: str,
) -> MatroidHandle:
    """Columns with one entry per block, sampled per the chosen variant.

    Matrix variant: entries drawn independently within their blocks;
    carrier membership is componentwise span membership.  Vector
    variant: one shared coefficient vector across all blocks (which
    must then have equal sizes); carrier membership is membership in
    the span of the stacked block vectors.
    """
    n = len(blocks)
    p = pres.ring.field.p
    block_rows = [
        [pres.coordinates(f, targets[i]) for f in blocks[i]] for i in range(n)
    ]
    if variant == "vector":
        if len({len(b) for b in blocks}) != 1:
            raise ValueError(f"handle {name!r}: vector variant needs equal block sizes")
        width = len(blocks[0])
        stacked = [
            tuple(x for i in range(n) for x in block_rows[i][j]) for j in range(width)
        ]

    def contains(col) -> bool:
        try:
            if len(col) != n:
                return False
            coords = [pres.coordinates(col[i], targets[i]) for i in range(n)]
        except _LENIENT:
            return False
        if variant == "matrix":
            return all(linalg.in_span(block_rows[i], coords[i], p) for i in range(n))
        flat = tuple(x for c in coords for x in c)
        return linalg.in_span(stacked, flat, p)

    def sample(rng: random.Random):
        if variant == "matrix":
            return tuple(_nonzero_combo(blocks[i], rng) for i in range(n))
        for _ in range(_SAMPLE_RETRIES):
            weights = [pres.ring.field.sample(rng) for _ in range(width)]
            entries = []
            for i in range(n):
                f = pres.ring.zero()
                for c, g in zip(weights, blocks[i]):
                    f = f + g * c
                if f.is_zero:
                    break
                entries.append(f)
            if len(entries) == n:
                return tuple(entries)
        raise RuntimeError(f"handle {name!r} kept drawing degenerate columns")

    return MatroidHandle(name, contains, sample)


def _transpose(cols: tuple, n: int) -> tuple:
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def _ring_form(algebra, variant, handles, traps, name):
    n = algebra.components
    d = diagonal_subring(algebra).dimension()
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def oracle(cols: tuple) -> bool:
        try:
            return is_complete_reduction_ring(algebra, _transpose(cols, n))
        except _LENIENT:
            return False

    if handles is None:
        blocks = tuple(
            tuple(v for v, deg in zip(algebra.ring.gens(), algebra.degrees) if deg == units[i])
            for i in range(n)
        )
        if any(not b for b in blocks):
            raise ValueError(
                "a grading component has no degree-one variable; pass handles explicitly"
            )
        specs: Mapping = {"ambient": blocks}
    else:
        specs = handles
    built = {}
    for hname, raw in specs.items():
        blocks = tuple(tuple(b) for b in raw)
        if len(blocks) != n:
            raise ValueError(f"handle {hname!r} needs {n} blocks")
        for i, block in enumerate(blocks):
            for f in block:
                if algebra.element_degree(f) != units[i]:
                    raise ValueError(
                        f"handle {hname!r}: block {i} entry {f} has the wrong degree"
                    )
        built[hname] = _column_handle(algebra, hname, blocks, units, variant)
    return GenericMatroidInstance(
        name,
        d,
        oracle,
        built,
        traps,
        oracle_name="complete-reduction-ring",
    )


def _ideal_form(ideals, variant, handles, traps, name):
    S = ideals[0].algebra
    n = len(ideals)
    d = analytic_spread(reduce(ideal_product, ideals))
    targets = [(I.degree,) for I in ideals]

    def oracle(cols: tuple) -> bool:
        try:
            verdict = is_complete_reduction_ideals(ideals, _transpose(cols, n))
        except _LENIENT:
            return False
        if verdict.is_inconclusive:
            raise InconclusiveError(verdict)
        return verdict.is_yes

    if handles is None:
        specs: Mapping = {"generators": tuple(I.generators for I in ideals)}
    else:
        specs = handles
    built = {}
    for hname, raw in specs.items():
        blocks = tuple(tuple(b) for b in raw)
        if len(blocks) != n:
            raise ValueError(f"handle {hname!r} needs {n} blocks")
        for i, block in enumerate(blocks):
            for f in block:
                if S.element_degree(f) != targets[i]:
                    raise ValueError(
                        f"handle {hname!r}: block {i} entry {f} has the wrong degree"
                    )
                if not ideals[i].contains(f):
                    raise ValueError(
                        f"handle {hname!r}: block {i} entry {f} lies outside ideal {i}"
                    )
        built[hname] = _column_handle(S, hname, blocks, targets, variant)
    return GenericMatroidInstance(
        name,
        d,
        oracle,
        built,
        traps,
        oracle_name="complete-reduction-ideals",
    )


def complete_reduction_instance(
    source,
    variant: str = "vector",
    handles: Mapping[str, Sequence] | None = None,
    traps: Mapping[str, tuple] | None = None,
    name: str | None = None,
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
        return _ring_form(source, variant, handles, traps, name or "complete-reduction-ring")
    ideals = tuple(source)
    if not ideals:
        raise ValueError("need at least one ideal")
    for I in ideals:
        if not isinstance(I, EquigeneratedIdeal):
            raise ValueError("ideal form needs EquigeneratedIdeal entries")
    return _ideal_form(ideals, variant, handles, traps, name or "complete-reduction-ideals")
