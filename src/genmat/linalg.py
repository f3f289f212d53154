"""Dense exact linear algebra over F_p.

Vectors are tuples of ints in [0, p); matrices are lists of row
tuples.  Sizes here are tiny (coordinate vectors of graded pieces), so
plain Gaussian elimination is all that is needed.
"""

from __future__ import annotations


def row_echelon(rows, p: int):
    """Return (echelon rows, pivot column list); input is not mutated."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] % p:
                c = work[i][col]
                work[i] = [(x - c * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def residue(echelon, pivots, row, p: int) -> list[int]:
    """``row`` reduced by the rows and pivots ``row_echelon`` returned.

    Those rows are fully reduced (pivot 1, zero in every other pivot
    column), so one pass in pivot order leaves a row that is zero
    exactly when ``row`` lies in their span.
    """
    out = list(row)
    for e, col in zip(echelon, pivots):
        c = out[col] % p
        if c:
            out = [(x - c * y) % p for x, y in zip(out, e)]
    return out


def rank(rows, p: int) -> int:
    if not rows:
        return 0
    return len(row_echelon(rows, p)[0])


def independent(rows, p: int) -> bool:
    """Are the given vectors linearly independent over F_p?"""
    rows = list(rows)
    return rank(rows, p) == len(rows)


def solve_coords(basis_rows, target, p: int):
    """Coefficients c with sum(c_i * basis_i) = target, or None.

    The basis rows need not be independent; any one solution is
    returned, as a tuple of ints in [0, p).
    """
    basis_rows = [tuple(r) for r in basis_rows]
    target = tuple(target)
    ncols = len(target)
    if any(len(r) != ncols for r in basis_rows):
        raise ValueError("vector lengths disagree")
    # Augmented system: columns are the basis vectors, then the target.
    # Its reduced echelon form has a pivot in the target column exactly
    # when the system is inconsistent.
    m = len(basis_rows)
    aug = [[row[i] for row in basis_rows] + [target[i]] for i in range(ncols)]
    echelon, pivots = row_echelon(aug, p)
    if m in pivots:
        return None
    coeffs = [0] * m
    for row, col in zip(echelon, pivots):
        coeffs[col] = row[m]
    return tuple(coeffs)


def in_span(basis_rows, target, p: int) -> bool:
    return solve_coords(basis_rows, target, p) is not None
