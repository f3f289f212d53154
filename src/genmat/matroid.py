"""Generic matroids: basis oracles, handles, and randomized exchange.

An instance packages a rank, a deterministic basis oracle, and a
family of named handles.  Each handle plays the role of a
target matroid: it knows which ground elements its carrier holds and
how to sample random candidates from it.  The exchange axiom is
realized by rejection sampling: draw a candidate from the handle,
splice it into the basis in place of the removed element, and let the
basis oracle decide.  Over a large prime field the bad candidates form
a proper closed subset, so acceptance takes O(1) expected attempts and
the bad set itself is never computed.

Failure stays loud.  Exhausting the retry budget raises
ExchangeExhausted carrying every rejected sample, and an inconclusive
underlying verdict propagates as an exception instead of posing as a
rejection.

Ground elements may be anything hashable with a readable str(); the
concrete instances use polynomials, coefficient tuples, and plain
labels.  A basis is an ordered tuple whose order is bookkeeping only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

Element = Hashable

DEFAULT_MAX_TRIES = 64
MAX_AXIOM_GROUND = 20
MEMO_SIZE = 256  # basis verdicts an instance keeps, most recently used
_SEED_BITS = 32


def _draw_seed() -> int:
    return random.SystemRandom().getrandbits(_SEED_BITS)


@dataclass(frozen=True)
class MatroidHandle:
    """Named target matroid: a membership test plus a candidate sampler.

    ``contains`` answers whether a ground element lies in the handle's
    carrier; ``sample`` draws one candidate using only the supplied
    RNG, so equal seeds give equal draws.  ``elements`` enumerates the
    carrier when it is finite; forced into ``exchange_step`` with a
    budget of their number, they search the whole carrier.
    """

    name: str
    contains: Callable[[Element], bool]
    sample: Callable[[random.Random], Element]
    elements: tuple[Element, ...] | None = None


class GenericMatroidInstance:
    """Immutable bundle of rank, basis oracle, and handles.

    The oracle must be deterministic; the verdicts of the ``MEMO_SIZE``
    element sets asked about most recently are cached, so a start basis
    checked before every step stays a hit while a long run keeps bounded
    memory.  Candidate tuples with repeats never reach the oracle: a basis
    has no duplicate elements.  ``traps`` holds named known-bad
    candidates that regression tests force-inject to confirm rejection.
    """

    def __init__(
        self,
        name: str,
        rank: int,
        oracle: Callable[[tuple], bool],
        handles: Mapping[str, MatroidHandle],
        traps: Mapping[str, Element] | None = None,
        oracle_name: str = "basis-oracle",
    ):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if not handles:
            raise ValueError("instance needs at least one handle")
        self.name = name
        self.rank = int(rank)
        self.handles = dict(handles)
        self.traps = dict(traps or {})
        self.oracle_name = oracle_name
        self._oracle = oracle
        self._cache: dict[frozenset, bool] = {}  # least recently used first

    def is_basis(self, elements: Sequence[Element]) -> bool:
        tup = tuple(elements)
        if len(set(tup)) != len(tup):
            return False
        key = frozenset(tup)
        hit = self._cache.pop(key, None)
        if hit is None:
            hit = bool(self._oracle(tup))
            if len(self._cache) >= MEMO_SIZE:
                del self._cache[next(iter(self._cache))]
        self._cache[key] = hit
        return hit

    def verify(self, elements: Sequence[Element]) -> bool:
        """Uncached oracle call, for independent re-verification."""
        tup = tuple(elements)
        return len(set(tup)) == len(tup) and bool(self._oracle(tup))

    def handle(self, ref) -> MatroidHandle:
        if isinstance(ref, MatroidHandle):
            return ref
        try:
            return self.handles[ref]
        except KeyError:
            raise ValueError(
                f"unknown handle {ref!r}; available: {sorted(self.handles)}"
            ) from None

    def __repr__(self):
        return (
            f"GenericMatroidInstance({self.name!r}, rank={self.rank}, "
            f"handles={sorted(self.handles)})"
        )


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of the exhaustive axiom check.

    On failure ``violation`` is (B, B', b): the pair of bases and the
    removed element that admits no replacement; b is None when the
    failure is structural (empty family, containment between bases).
    """

    ok: bool
    reason: str = "ok"
    violation: tuple | None = None


def check_matroid_axioms(ground: Iterable, bases: Iterable) -> AxiomCheck:
    """Exhaustively test a finite family: nonempty, antichain, exchange.

    Classical matroid axioms, checked by brute force in the caller's
    order, so the first violation reported is deterministic in the
    input.  Ground sets above 20 elements are refused.
    """
    ground_set = set(ground)
    if len(ground_set) > MAX_AXIOM_GROUND:
        raise ValueError(
            f"exhaustive check limited to {MAX_AXIOM_GROUND} ground elements"
        )
    family: list[tuple] = []
    members: set[frozenset] = set()
    for b in bases:
        tup = tuple(b)
        fs = frozenset(tup)
        if len(fs) != len(tup):
            raise ValueError(f"duplicate elements inside basis {tuple(map(str, tup))}")
        if not fs <= ground_set:
            raise ValueError(f"basis {tuple(map(str, tup))} leaves the ground set")
        if fs not in members:
            members.add(fs)
            family.append(tup)
    if not family:
        return AxiomCheck(False, "empty basis family")
    for B in family:
        for Bp in family:
            if frozenset(B) < frozenset(Bp):
                return AxiomCheck(False, "containment between bases", (B, Bp, None))
    for B in family:
        rest = frozenset(B)
        for Bp in family:
            for b in B:
                if not any((rest - {b}) | {c} in members for c in Bp):
                    return AxiomCheck(False, "exchange fails", (B, Bp, b))
    return AxiomCheck(True)


@dataclass(frozen=True)
class ExchangeCertificate:
    """Record of one successful replacement.

    The resulting basis has been re-verified by an uncached oracle
    call; ``transcript`` names the verifying oracle, ``rejected`` lists
    the candidates turned down on the way.
    """

    instance: str
    handle: str
    removed: Element
    inserted: Element
    attempts: int
    seed: int
    transcript: str
    basis_before: tuple
    basis_after: tuple
    rejected: tuple = ()


class ExchangeExhausted(RuntimeError):
    """Retry budget spent without an accepted replacement.

    Carries every rejected sample, the seed, and — when raised from a
    path — the certificates of the steps that did succeed.
    """

    def __init__(self, message, *, rejected, attempts, seed, partial_path=()):
        super().__init__(message)
        self.rejected = tuple(rejected)
        self.attempts = int(attempts)
        self.seed = seed
        self.partial_path = tuple(partial_path)


_PATH = object()  # ``removed`` of a path's start: no single element leaves


def _start(inst, basis, removed, handle, seed, budget, budget_name="max_tries"):
    """The one start check of every exchange entry point.

    Resolves the handle, then refuses a ``removed`` element outside the
    basis, a budget below one, and a start the basis oracle rejects, in
    that order, before any candidate is drawn.  Returns the handle, the
    basis as a tuple, and the seed, drawn fresh when none is passed.
    """
    handle = inst.handle(handle)
    basis = tuple(basis)
    if removed is not _PATH and removed not in basis:
        raise ValueError("element to remove is not in the basis")
    if budget < 1:
        raise ValueError(f"{budget_name} must be at least 1")
    if not inst.is_basis(basis):
        raise ValueError("starting set fails the basis oracle")
    return handle, basis, _draw_seed() if seed is None else seed


def _splices(basis, removed, handle, seed, forced=()):
    """The candidate stream: (candidate, basis with it in place of
    ``removed``), the ``forced`` list first, then handle samples drawn
    from an RNG seeded with ``seed``."""
    rng = random.Random(seed)
    position = basis.index(removed)
    draws = (handle.sample(rng) for _ in itertools.count())
    for cand in itertools.chain(forced, draws):
        yield cand, basis[:position] + (cand,) + basis[position + 1 :]


def exchange_step(
    inst: GenericMatroidInstance,
    basis: Sequence[Element],
    removed: Element,
    handle,
    seed: int | None = None,
    max_tries: int = DEFAULT_MAX_TRIES,
    forced: Sequence[Element] = (),
) -> ExchangeCertificate:
    """Replace one basis element by a candidate from the handle.

    Candidates are tried in order: the ``forced`` list first, then
    random samples, each try counting against ``max_tries``.  Forcing a
    finite handle's ``elements`` with ``max_tries`` equal to their
    number searches the whole carrier.  A candidate outside the
    handle's carrier or rejected by the basis oracle is recorded and
    the next one drawn.  Deterministic given the seed; a fresh seed is
    generated (and recorded in the certificate) when none is passed.
    """
    handle, basis, seed = _start(inst, basis, removed, handle, seed, max_tries)
    rejected = []
    for attempts, (cand, new) in enumerate(_splices(basis, removed, handle, seed, forced), 1):
        if handle.contains(cand) and inst.is_basis(new):
            if not inst.verify(new):
                raise RuntimeError("oracle accepted a set and then rejected it")
            return ExchangeCertificate(
                instance=inst.name,
                handle=handle.name,
                removed=removed,
                inserted=cand,
                attempts=attempts,
                seed=seed,
                transcript=inst.oracle_name,
                basis_before=basis,
                basis_after=new,
                rejected=tuple(rejected),
            )
        rejected.append(cand)
        if attempts >= max_tries:
            break
    raise ExchangeExhausted(
        f"no replacement for {removed} from handle {handle.name!r} "
        f"in {attempts} tries",
        rejected=rejected,
        attempts=attempts,
        seed=seed,
    )


@dataclass(frozen=True)
class ExchangePath:
    """Chain of exchange steps carrying a basis into a handle."""

    instance: str
    handle: str
    start: tuple
    final: tuple
    seed: int
    steps: tuple[ExchangeCertificate, ...]


def exchange_path(
    inst: GenericMatroidInstance,
    basis: Sequence[Element],
    handle,
    seed: int | None = None,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> ExchangePath:
    """Exchange elements one at a time until the basis sits in the handle.

    Elements already inside the carrier are kept, so the path has at
    most one step per basis element.  Each step gets its own seed drawn
    from the path RNG.  A failed step raises ExchangeExhausted with the
    partial path attached.
    """
    handle, basis, seed = _start(inst, basis, _PATH, handle, seed, max_tries)
    master = random.Random(seed)
    steps: list[ExchangeCertificate] = []
    current = basis
    while True:
        stale = next((e for e in current if not handle.contains(e)), None)
        if stale is None:
            break
        if len(steps) >= len(basis):
            raise RuntimeError("exchange path exceeded the basis size")
        step_seed = master.getrandbits(_SEED_BITS)
        try:
            cert = exchange_step(
                inst, current, stale, handle, seed=step_seed, max_tries=max_tries
            )
        except ExchangeExhausted as stuck:
            raise ExchangeExhausted(
                f"path stalled after {len(steps)} steps: {stuck}",
                rejected=stuck.rejected,
                attempts=stuck.attempts,
                seed=seed,
                partial_path=steps,
            ) from stuck
        steps.append(cert)
        current = cert.basis_after
    if not inst.verify(current):
        raise RuntimeError("path ended on a set the oracle rejects")
    return ExchangePath(
        instance=inst.name,
        handle=handle.name,
        start=basis,
        final=current,
        seed=seed,
        steps=tuple(steps),
    )


def check_generic_exchange_statistical(
    inst: GenericMatroidInstance,
    basis: Sequence[Element],
    removed: Element,
    handle,
    trials: int,
    seed: int | None = None,
) -> float:
    """Fraction of handle samples that complete the punctured basis.

    One draw per trial, no retries; the rate estimates how much of the
    carrier the bad set eats.  Deterministic given the seed.  Starts
    as ``exchange_step`` does and reads its candidate stream.
    """
    handle, basis, seed = _start(inst, basis, removed, handle, seed, trials, "trials")
    splices = itertools.islice(_splices(basis, removed, handle, seed), trials)
    return sum(inst.is_basis(new) for _, new in splices) / trials
