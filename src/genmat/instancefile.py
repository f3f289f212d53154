"""Instance documents: JSON descriptions of rings, ideals, and tasks.

A document is one JSON object:

    {"field": {"prime": 32003},
     "ring": {"vars": [{"name": "x", "multidegree": [1]}, ...],
              "relations": ["x*y - z*w"]},
     "ideals": [{"name": "m", "generators": ["x", "y", "z", "w"]}],
     "check": {...},
     "exchange": {...}}

"field" may be omitted; the prime then comes from the GENMAT_PRIME
environment variable or the library default.  "multidegree" defaults
to [1].  Polynomials are strings in the parser grammar.  Errors carry
a dotted location path into the document, e.g. "ring.relations[0]".

The "check" section supplies the inputs of one verification task:
"candidate" (list of polynomials) for nn/hsop, "ideal" plus
"candidate" for the reduction tasks, "matrix" (rows of polynomials)
for complete-reduction-ring, "ideals" plus "matrix" for
complete-reduction-ideals.  An ideal reference is either the name of
an entry under "ideals" or an inline generator list.

The "exchange" section names a kind (nn, minred,
complete-reduction-ring, complete-reduction-ideals), a "start" basis,
"handles" (spans of forms, or per-component blocks for the column
kinds), optional "traps", and an optional "n_max" power bound for
minred.  For the column kinds a basis element is a column: a list with
one entry per grading component or ideal.
"""

from __future__ import annotations

import json
import os
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Mapping

from .algebra import (
    DEFAULT_POWER_BOUND,
    EquigeneratedIdeal,
    GradedAlgebraPresentation,
    InconclusiveError,
    equigenerated_ideal,
    graded_algebra,
    is_complete_reduction_ideals,
    is_complete_reduction_ring,
    is_hsop,
    is_minimal_reduction,
    is_noether_normalization,
    is_reduction,
)
from .instances import complete_reduction_instance, minred_instance, nn_instance
from .matroid import GenericMatroidInstance
from .polyring import (
    DEFAULT_PRIME,
    PolyRing,
    Polynomial,
    PrimeField,
    polynomial_ring,
)

ENV_PRIME = "GENMAT_PRIME"

CHECK_TASKS = (
    "nn",
    "hsop",
    "reduction",
    "minimal-reduction",
    "complete-reduction-ring",
    "complete-reduction-ideals",
)

COLUMN_KINDS = ("complete-reduction-ring", "complete-reduction-ideals")
EXCHANGE_KINDS = ("nn", "minred", *COLUMN_KINDS)


class InstanceFileError(ValueError):
    """Document problem, tagged with a dotted location path."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class _at(AbstractContextManager):
    """``with _at(location):`` reports a library ValueError raised inside
    as a document error at ``location``; a document error raised inside
    keeps its own location."""

    def __init__(self, location: str):
        self.location = location

    def __exit__(self, kind, bad, traceback):
        if isinstance(bad, ValueError) and not isinstance(bad, InstanceFileError):
            raise InstanceFileError(self.location, str(bad)) from bad


def load_document(text: str) -> dict:
    # Deep nesting raises RecursionError; an oversized integer, ValueError.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as bad:
        raise InstanceFileError("$", f"not valid JSON ({bad})") from bad
    if not isinstance(doc, dict):
        raise InstanceFileError("$", "document must be a JSON object")
    return doc


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def resolve_prime(doc: dict, env: Mapping[str, str] | None = None) -> int:
    """field.prime if present, else GENMAT_PRIME, else the default."""
    section = doc.get("field", {})
    if not isinstance(section, dict):
        raise InstanceFileError("field", "must be an object")
    if "prime" in section:
        p = section["prime"]
        location = "field.prime"
        if not _is_int(p):
            raise InstanceFileError(location, "must be an integer")
    else:
        env = os.environ if env is None else env
        raw = env.get(ENV_PRIME)
        if raw is None:
            return DEFAULT_PRIME
        location = f"field.prime: {ENV_PRIME}={raw!r}"
        try:
            p = int(raw)
        except ValueError:
            raise InstanceFileError(location, "not an integer") from None
    with _at(location):
        return PrimeField(p).p


def _parse_poly(ring: PolyRing, text, location: str) -> Polynomial:
    if not isinstance(text, str):
        raise InstanceFileError(location, "polynomial must be a string")
    with _at(location):
        return ring.parse(text)


def _name(spec, location: str, *fields) -> str:
    """The string name of a named object, which must hold ``fields`` too."""
    required = ("name", *fields)
    if not isinstance(spec, dict) or any(f not in spec for f in required):
        raise InstanceFileError(location, "must be an object with " + " and ".join(required))
    if not isinstance(spec["name"], str):
        raise InstanceFileError(f"{location}.name", "must be a string")
    return spec["name"]


def _poly_list(ring: PolyRing, items, location: str, parse=_parse_poly) -> tuple:
    """A list of polynomial strings, or of whatever ``parse`` reads."""
    if not isinstance(items, list):
        raise InstanceFileError(location, "must be a list of polynomial strings")
    return tuple(parse(ring, item, f"{location}[{i}]") for i, item in enumerate(items))


@dataclass(frozen=True)
class InstanceContext:
    """Parsed document: field, ambient presentation, named ideals."""

    document: dict
    prime: int
    algebra: GradedAlgebraPresentation
    ideals: dict = field(default_factory=dict)

    @property
    def ring(self) -> PolyRing:
        return self.algebra.ring


def build_context(doc: dict, env: Mapping[str, str] | None = None) -> InstanceContext:
    prime = resolve_prime(doc, env)
    # Bake the resolved prime into the stored document so a report's
    # echo replays identically even when the prime came from the
    # environment.
    doc = {**doc, "field": {**doc.get("field", {}), "prime": prime}}
    ring_section = doc.get("ring")
    if not isinstance(ring_section, dict):
        raise InstanceFileError("ring", "missing or not an object")
    var_specs = ring_section.get("vars")
    if not isinstance(var_specs, list) or not var_specs:
        raise InstanceFileError("ring.vars", "must be a nonempty list")
    names, degrees = [], []
    for i, spec in enumerate(var_specs):
        loc = f"ring.vars[{i}]"
        names.append(_name(spec, loc))
        deg = spec.get("multidegree", [1])
        if not isinstance(deg, list) or not all(_is_int(x) for x in deg):
            raise InstanceFileError(f"{loc}.multidegree", "must be a list of integers")
        degrees.append(tuple(deg))
    with _at("ring.vars"):
        ring = polynomial_ring(prime, names)
    with _at("ring"):
        grading = graded_algebra(ring, degrees)
    relations = _poly_list(ring, ring_section.get("relations", []), "ring.relations")
    for i, rel in enumerate(relations):
        if grading.element_degree(rel) is None and not rel.is_zero:
            raise InstanceFileError(
                f"ring.relations[{i}]", "not homogeneous in the declared grading"
            )
    algebra = graded_algebra(ring, degrees, relations)

    ideals: dict[str, EquigeneratedIdeal] = {}
    ideal_specs = doc.get("ideals", [])
    if not isinstance(ideal_specs, list):
        raise InstanceFileError("ideals", "must be a list")
    for i, spec in enumerate(ideal_specs):
        loc = f"ideals[{i}]"
        name = _name(spec, loc, "generators")
        if name in ideals:
            raise InstanceFileError(f"{loc}.name", f"duplicate ideal {name!r}")
        gens = _poly_list(ring, spec["generators"], f"{loc}.generators")
        with _at(f"{loc}.generators"):
            ideals[name] = equigenerated_ideal(algebra, gens)
    return InstanceContext(doc, prime, algebra, ideals)


def resolve_ideal(ctx: InstanceContext, ref, location: str) -> EquigeneratedIdeal:
    if isinstance(ref, str):
        try:
            return ctx.ideals[ref]
        except KeyError:
            raise InstanceFileError(
                location, f"unknown ideal {ref!r}; defined: {sorted(ctx.ideals)}"
            ) from None
    if isinstance(ref, list):
        gens = _poly_list(ctx.ring, ref, location)
        with _at(location):
            return equigenerated_ideal(ctx.algebra, gens)
    raise InstanceFileError(location, "ideal reference must be a name or a list")


def _ideal_list(ctx: InstanceContext, refs, location: str) -> tuple[EquigeneratedIdeal, ...]:
    if not isinstance(refs, list) or not refs:
        raise InstanceFileError(location, "must be a nonempty list")
    return tuple(
        resolve_ideal(ctx, ref, f"{location}[{i}]") for i, ref in enumerate(refs)
    )


def _power_bound(section: dict, n_max: int | None, location: str) -> int:
    """The reduction power bound: the --n-max flag if given, else the section's n_max."""
    if n_max is not None:
        bound, location = n_max, "--n-max"
    else:
        bound = section.get("n_max", DEFAULT_POWER_BOUND)
    if not _is_int(bound) or bound < 1:
        raise InstanceFileError(location, "must be a positive integer")
    return bound


def _matrix(ring: PolyRing, rows, location: str) -> tuple:
    """A nonempty list of rows of polynomial strings: a check matrix, or
    the per-component blocks of a column-kind handle."""
    if not isinstance(rows, list) or not rows:
        raise InstanceFileError(location, "must be a nonempty list of rows")
    return tuple(_poly_list(ring, row, f"{location}[{i}]") for i, row in enumerate(rows))


@dataclass(frozen=True)
class CheckOutcome:
    """Oracle verdict plus its detail: the parsed inputs and, for the
    reduction verdicts, the witness."""

    status: str  # "true" | "false" | "inconclusive"
    detail: dict


def _bool_outcome(value: bool, detail: dict) -> CheckOutcome:
    return CheckOutcome("true" if value else "false", detail)


def _verdict_outcome(verdict, detail: dict) -> CheckOutcome:
    detail["verdict"] = verdict.describe()
    detail["witness"] = verdict.witness
    if verdict.is_yes:
        detail["power"] = verdict.power
        return CheckOutcome("true", detail)
    if verdict.is_no:
        return CheckOutcome("false", detail)
    detail["n_max"] = verdict.n_max
    return CheckOutcome("inconclusive", detail)


def run_check(ctx: InstanceContext, task: str, n_max: int | None = None) -> CheckOutcome:
    """Dispatch one verification task from the document's check section.

    Raises InstanceFileError for anything malformed, including a
    candidate the library refuses to judge (a ValueError such as a
    wrong degree for nn, a wrong count, or a generator outside the
    ideal).  A wrong count is not refused by minimal-reduction: the
    count is part of that question, so it answers "false".
    """
    if task not in CHECK_TASKS:
        raise InstanceFileError("check", f"unknown task {task!r}; have {CHECK_TASKS}")
    section = ctx.document.get("check")
    if not isinstance(section, dict):
        raise InstanceFileError("check", "missing or not an object")
    bound = _power_bound(section, n_max, "check.n_max")

    def candidate():
        if "candidate" not in section:
            raise InstanceFileError("check.candidate", "missing")
        return _poly_list(ctx.ring, section["candidate"], "check.candidate")

    with _at("check"):
        if task in ("nn", "hsop"):
            cand = candidate()
            test = is_noether_normalization if task == "nn" else is_hsop
            return _bool_outcome(test(ctx.algebra, cand), {"candidate": cand})
        if task in ("reduction", "minimal-reduction"):
            if "ideal" not in section:
                raise InstanceFileError("check.ideal", "missing")
            I = resolve_ideal(ctx, section["ideal"], "check.ideal")
            cand = candidate()
            J = equigenerated_ideal(ctx.algebra, cand)
            detail = {"candidate": cand}
            if task == "reduction":
                return _verdict_outcome(is_reduction(J, I, n_max=bound), detail)
            try:
                return _bool_outcome(is_minimal_reduction(J, I, n_max=bound), detail)
            except InconclusiveError as open_verdict:
                detail["verdict"] = str(open_verdict)
                return CheckOutcome("inconclusive", detail)
        if task == "complete-reduction-ring":
            rows = _matrix(ctx.ring, section.get("matrix"), "check.matrix")
            return _bool_outcome(is_complete_reduction_ring(ctx.algebra, rows), {"matrix": rows})
        ideals = _ideal_list(ctx, section.get("ideals"), "check.ideals")
        rows = _matrix(ctx.ring, section.get("matrix"), "check.matrix")
        return _verdict_outcome(
            is_complete_reduction_ideals(ideals, rows, n_max=bound), {"matrix": rows}
        )


@dataclass(frozen=True)
class ExchangeSetup:
    """Instance plus the kind and the start basis from the document."""

    instance: GenericMatroidInstance
    kind: str
    start: tuple

    def default_handle(self, flag: str | None = None) -> str:
        """The handle to sample from: the --from flag, else the one
        handle, else the one named "target"."""
        names = tuple(self.instance.handles)
        if flag is not None:
            if flag not in names:
                raise InstanceFileError(
                    "--from", f"unknown handle {flag!r}; defined: {sorted(names)}"
                )
            return flag
        if len(names) == 1:
            return names[0]
        if "target" in names:
            return "target"
        raise InstanceFileError("exchange.handles", f"several handles {names}; pass --from")


def build_exchange(
    ctx: InstanceContext, variant: str = "vector", n_max: int | None = None
) -> ExchangeSetup:
    section = ctx.document.get("exchange")
    if not isinstance(section, dict):
        raise InstanceFileError("exchange", "missing or not an object")
    kind = section.get("kind")
    if kind not in EXCHANGE_KINDS:
        raise InstanceFileError(
            "exchange.kind", f"must be one of {EXCHANGE_KINDS}, got {kind!r}"
        )
    handle_specs = section.get("handles")
    if not isinstance(handle_specs, list) or not handle_specs:
        raise InstanceFileError("exchange.handles", "must be a nonempty list")
    start_raw = section.get("start")
    if not isinstance(start_raw, list) or not start_raw:
        raise InstanceFileError("exchange.start", "must be a nonempty list")
    traps_raw = section.get("traps", {})
    if not isinstance(traps_raw, dict):
        raise InstanceFileError("exchange.traps", "must be an object")
    bound = _power_bound(section, n_max, "exchange.n_max")

    # A basis element of a column kind is a list of forms, else one form;
    # a handle is a list of blocks of forms, else the forms themselves.
    columnar = kind in COLUMN_KINDS
    element = _poly_list if columnar else _parse_poly
    whole = _matrix if columnar else _poly_list
    part = "blocks" if columnar else "forms"
    handles = {}
    for i, spec in enumerate(handle_specs):
        loc = f"exchange.handles[{i}]"
        hname = _name(spec, loc)
        if hname in handles:
            raise InstanceFileError(f"{loc}.name", f"duplicate handle {hname!r}")
        handles[hname] = whole(ctx.ring, spec.get(part), f"{loc}.{part}")
    start = _poly_list(ctx.ring, start_raw, "exchange.start", element)
    traps = {
        tname: element(ctx.ring, raw, f"exchange.traps.{tname}")
        for tname, raw in traps_raw.items()
    }

    with _at("exchange"):
        if kind == "nn":
            inst = nn_instance(ctx.algebra, handles=handles, traps=traps)
        elif kind == "minred":
            if "ideal" not in section:
                raise InstanceFileError("exchange.ideal", "missing")
            I = resolve_ideal(ctx, section["ideal"], "exchange.ideal")
            inst = minred_instance(I, n_max=bound, handles=handles, traps=traps)
        elif kind == "complete-reduction-ring":
            inst = complete_reduction_instance(
                ctx.algebra, variant=variant, handles=handles, traps=traps
            )
        else:
            ideals = _ideal_list(ctx, section.get("ideals"), "exchange.ideals")
            inst = complete_reduction_instance(
                ideals, variant=variant, handles=handles, traps=traps
            )

    if not inst.is_basis(start):
        raise InstanceFileError("exchange.start", "start set fails the basis oracle")
    return ExchangeSetup(inst, kind, start)


def resolve_removed(setup: ExchangeSetup, ctx: InstanceContext, flag: str):
    """Map the --remove flag to a start-basis element.

    Column kinds take a zero-based column index; the element kinds take
    polynomial text compared up to parsing.
    """
    if setup.kind in COLUMN_KINDS:
        try:
            index = int(flag)
        except ValueError:
            raise InstanceFileError(
                "--remove", "column kinds take a column index"
            ) from None
        if not 0 <= index < len(setup.start):
            raise InstanceFileError(
                "--remove", f"index {index} outside 0..{len(setup.start) - 1}"
            )
        return setup.start[index]
    target = _parse_poly(ctx.ring, flag, "--remove")
    if target in setup.start:
        return target
    raise InstanceFileError("--remove", f"{flag!r} is not in the start basis")
