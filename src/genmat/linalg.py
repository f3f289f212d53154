"""Exact linear algebra over F_p.

Vectors are tuples of ints (read modulo p); matrices are lists of row
tuples.  Inside, a row of ``width`` entries is one Python int, and only
this module knows its layout: entry j sits in slot j, bits [j*b,
(j+1)*b) with b = ``slot_bits(p, width)``, wide enough that no slot
carries into the next.  A slot holds a nonnegative value below 2^b
only congruent to its entry, so a row operation is one big-int
multiply-add and a slot is reduced modulo p when something reads it.
Other modules build and read rows only through ``unpack``,
``unit_rows`` and ``row_sum``, which keeps a sum of scaled rows under
the bound.

There is one elimination loop, ``row_echelon``: it inserts rows one at
a time into a reduced echelon form, and stops pulling rows as soon as
they span the whole space, so a caller that feeds it a lazy stream of
rows pays only for the rows it reads.  ``residue`` reduces a packed row
by its packed result.  ``span_solver``, the one coordinate solver,
streams a basis through it packed and each target through the same
reduction; ``rank``, ``independent``, ``solve_coords`` and ``in_span``
are built on these.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from struct import Struct


def slot_bits(p: int, width: int) -> int:
    """Slot width b of a packed row of ``width`` entries over F_p.

    ``row_echelon`` keeps rows that start in [0, p) and take at most
    width - 1 back-substitutions, each adding a multiple in [1, p) of a
    row in [0, p), so their slots stay below p + (width-1)(p-1)^2 <=
    width * p^2.  A residue sums at most width kept rows, each times at
    most p - 1: below width^2 * p^3 (p^3 for width 0), which 2^b
    exceeds.  b is rounded up to 8, 16, 32 or a multiple of 64, so that
    a row of slots up to 64 bits converts in one struct call.  As
    ``polyring`` refuses p from 2^82 on, b < 2 * log2(width) + 311.
    """
    need = (max(width, 1) ** 2 * p**3).bit_length()
    return next((b for b in (8, 16, 32) if need <= b), -(-need // 64) * 64)


def pack(row, p: int) -> int:
    """``row``'s entries, reduced modulo p, packed."""
    return _codec(p, len(row))[2]([x % p for x in row])


def unpack(packed: int, width: int, p: int) -> list[int]:
    """The ``width`` entries of a packed row, reduced to [0, p)."""
    return [x % p for x in _codec(p, width)[1](packed)]


def unit_rows(p: int, width: int) -> list[int]:
    """The ``width`` packed unit rows, row j with entry 1 in column j."""
    bits = _codec(p, width)[0]
    return [1 << j * bits for j in range(width)]


def row_sum(rows: list[int], p: int, width: int) -> int:
    """The sum of the packed ``rows``, each of slots below p^2 (a row in
    [0, p) times a scalar in [0, p)).  A reduced row plus w^2 * p of them
    stays below the w^2 * p^3 that ``slot_bits`` bounds (w = width, or 1
    for 0), so past that many the sum is reduced before each run."""
    run = (width * width or 1) * p
    if len(rows) <= run:
        return sum(rows)
    acc = 0
    for i in range(0, len(rows), run):
        acc = pack(unpack(acc, width, p), p) + sum(rows[i : i + run])
    return acc


@lru_cache(maxsize=256)
def _codec(p: int, width: int):
    """(bits, slots, join) of a packed row of ``width`` entries over
    F_p: its slot width, the raw slot values of a packed row
    (OverflowError past the last), and slot values packed.  Slots of 8,
    16, 32 or 64 bits convert a row in one struct call."""
    bits = slot_bits(p, width)
    size = bits // 8
    nbytes = width * size
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size)
    if code is None:

        def slots(packed: int):
            data = packed.to_bytes(nbytes, "little")
            return [int.from_bytes(data[i : i + size], "little") for i in range(0, nbytes, size)]

        def join(values) -> int:
            return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in values), "little")

    else:
        row = Struct(f"<{width}{code}")

        def slots(packed: int):
            return row.unpack(packed.to_bytes(nbytes, "little"))

        def join(values) -> int:
            return int.from_bytes(row.pack(*values), "little")

    return bits, slots, join


def _residue(entries, rows, kept: dict, p: int, slots) -> list[int]:
    """``entries`` (ints, read modulo p) less their multiples of the
    packed ``rows``, reduced to [0, p); ``kept`` maps each row's pivot
    column to its index, and ``slots`` reads a packed row.

    Kept rows have pivot 1 and are congruent to zero in every other
    pivot column, so no subtraction changes the entry in another pivot
    column: each multiple is read from ``entries``, and only the pivot
    columns where it is nonzero are visited.  Subtracting c times a row
    is adding (p - c) times it, so the multiples sum, packed, to one
    nonnegative row that is unpacked once.
    """
    acc = 0
    for col, i in compress(kept.items(), map(entries.__getitem__, kept)):
        if c := entries[col] % p:
            acc += (p - c) * rows[i]
    if not acc:
        return [x % p for x in entries]
    return [(x + y) % p for x, y in zip(entries, slots(acc))]


def row_echelon(rows, p: int, width: int | None = None):
    """Reduced echelon form of the span of ``rows``: (rows, pivot columns).

    ``rows`` is any iterable and is read lazily.  Each row is reduced
    by the rows kept so far; a nonzero residue is scaled to pivot 1 at
    its first nonzero column, packed, and cleared from the kept rows,
    one multiply-add each.  Reading stops once the rank equals the row
    width, since no further row can add to it; the form is then the
    identity, and the last row is not cleared from the others.  The
    result is the unique reduced echelon form, rows in pivot order.

    Rows are tuples, and come back as tuples with entries in [0, p);
    rows of different lengths raise ValueError: all of a list or tuple
    up front, a lazy stream's as they are read.  With ``width`` given,
    rows are packed, and come back packed, their slots unreduced.
    """
    packed = width is not None
    if not packed and isinstance(rows, (list, tuple)) and len({len(r) for r in rows}) > 1:
        raise ValueError("vector lengths disagree")
    echelon: list[int] = []
    kept: dict[int, int] = {}
    if packed:
        bits, slots, join = _codec(p, width)
    for row in rows:
        if packed:
            row = slots(row)
        elif width is None:
            width = len(row)
            bits, slots, join = _codec(p, width)
        elif len(row) != width:
            raise ValueError("vector lengths disagree")
        r = _residue(row, echelon, kept, p, slots)
        col = next(compress(range(width), r), None)
        if col is not None and len(kept) == width - 1:
            # Full rank: the reduced echelon form is the identity.
            echelon, kept = unit_rows(p, width), {j: j for j in range(width)}
        elif col is not None:
            inv = pow(r[col], -1, p)
            new = join([x * inv % p for x in r])
            shift, mask = col * bits, (1 << bits) - 1
            echelon = [e + c * new if (c := -(e >> shift & mask) % p) else e for e in echelon]
            kept[col] = len(echelon)
            echelon.append(new)
        if len(kept) == width:
            break
    pivots = sorted(kept)
    rows = [echelon[kept[j]] for j in pivots]
    if packed:
        return rows, pivots
    return [tuple([x % p for x in slots(e)]) for e in rows], pivots


def residue(echelon, pivots, row: int, p: int, width: int) -> list[int]:
    """The packed ``row`` reduced by the packed rows and pivots
    ``row_echelon`` returned for ``width``: entries in [0, p), all zero
    exactly when ``row`` lies in their span."""
    slots = _codec(p, width)[1]
    return _residue(slots(row), echelon, {j: i for i, j in enumerate(pivots)}, p, slots)


def rank(rows, p: int) -> int:
    return len(row_echelon(rows, p)[1])


def independent(rows, p: int) -> bool:
    """Are the given vectors linearly independent over F_p?"""
    rows = list(rows)
    return rank(rows, p) == len(rows)


def span_solver(rows, p: int):
    """``solve(target)``: the c in [0, p) with sum(c_i * rows_i) = target
    and free unknowns 0, or None off the span (ValueError for a target of
    another length).  Row i is echelonized once with unit column m-1-i of
    m, so a dependent row pivots on its own unit column and the residue of
    (target, 0..0) is (0, -c reversed) exactly when target is in the span.
    The rows stream into ``row_echelon`` packed, and its echelon stays so.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return lambda target: None if any(x % p for x in target) else ()
    m, n = len(rows), len(rows[0])
    if len({len(r) for r in rows}) > 1:
        raise ValueError("vector lengths disagree")
    # Streamed: bench/tracing.py reads a listed first argument as tuple rows.
    rows = (pack(r + (0,) * (m - 1 - i) + (1,) + (0,) * i, p) for i, r in enumerate(rows))
    echelon, pivots = row_echelon(rows, p, n + m)
    kept = {j: i for i, j in enumerate(pivots)}
    slots, zeros = _codec(p, n + m)[1], (0,) * m

    def solve(target):
        if len(target) != n:
            raise ValueError("vector lengths disagree")
        r = _residue(tuple(target) + zeros, echelon, kept, p, slots)
        return None if any(r[:n]) else tuple(-x % p for x in reversed(r[n:]))

    return solve


def solve_coords(basis_rows, target, p: int):
    """``span_solver``'s answer for one target."""
    return span_solver(basis_rows, p)(target)


def in_span(basis_rows, target, p: int) -> bool:
    return solve_coords(basis_rows, target, p) is not None
