"""Exact linear algebra over F_p.

Vectors are tuples of ints (read modulo p); matrices are lists of row
tuples.  There is one elimination loop, ``row_echelon``: it inserts
rows one at a time into a reduced echelon form, and stops pulling rows
as soon as they span the whole space, so a caller that feeds it a lazy
stream of rows (as containment in a graded piece does) pays only for
the rows it reads.  ``span_solver``, the one coordinate solver, takes
a basis through it once and each target through ``residue``; ``rank``,
``independent``, ``solve_coords`` and ``in_span`` are built on these.
"""

from __future__ import annotations


def row_echelon(rows, p: int):
    """Reduced echelon form of the span of ``rows``: (rows, pivot columns).

    ``rows`` is any iterable and is read lazily.  Each row is reduced
    by ``residue`` against the rows kept so far; a nonzero residue is
    scaled to pivot 1 at its first nonzero column and cleared from the
    kept rows.  Reading stops once the rank equals the row width, since
    no further row can add to it.  The result is the unique reduced
    echelon form (entries in [0, p), rows in pivot order).  Rows of
    different lengths raise ValueError: all of a list or tuple up front,
    a lazy stream's as they are read.
    """
    if isinstance(rows, (list, tuple)) and len({len(r) for r in rows}) > 1:
        raise ValueError("vector lengths disagree")
    echelon: list[list[int]] = []
    pivots: list[int] = []
    width = None
    for row in rows:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("vector lengths disagree")
        r = residue(echelon, pivots, row, p)
        support = [j for j, x in enumerate(r) if x]
        if support:
            col = support[0]
            inv = pow(r[col], p - 2, p)
            r = [x * inv % p for x in r]
            # r is zero off its support, so clearing col from a kept row
            # changes only those entries.
            for e in echelon:
                c = e[col]
                if c:
                    for j in support:
                        e[j] = (e[j] - c * r[j]) % p
            echelon.append(r)
            pivots.append(col)
        if len(pivots) == width:
            break
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [tuple(echelon[i]) for i in order], [pivots[i] for i in order]


def residue(echelon, pivots, row, p: int) -> list[int]:
    """``row`` reduced by the rows and pivots ``row_echelon`` returned.

    Those rows are fully reduced (pivot 1, zero in every other pivot
    column), so subtracting row[col] times the row of each pivot col
    leaves a row, with entries in [0, p), that is zero exactly when
    ``row`` lies in their span.  No subtraction changes another pivot
    column, so entries are reduced modulo p once, at the end.
    """
    out = list(row)
    for e, col in zip(echelon, pivots):
        c = row[col] % p
        if c:
            out = [x - c * y for x, y in zip(out, e)]
    return [x % p for x in out]


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
    """
    rows = [tuple(r) for r in rows]
    m = len(rows)
    units = [(0,) * (m - 1 - i) + (1,) + (0,) * i for i in range(m)]
    echelon, pivots = row_echelon([r + u for r, u in zip(rows, units)], p)
    width = len(rows[0]) if rows else None

    def solve(target):
        n = len(target)
        if width not in (None, n):
            raise ValueError("vector lengths disagree")
        r = residue(echelon, pivots, tuple(target) + (0,) * m, p)
        return None if any(r[:n]) else tuple(-x % p for x in reversed(r[n:]))

    return solve


def solve_coords(basis_rows, target, p: int):
    """``span_solver``'s answer for one target."""
    return span_solver(basis_rows, p)(target)


def in_span(basis_rows, target, p: int) -> bool:
    return solve_coords(basis_rows, target, p) is not None
