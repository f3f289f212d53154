"""Exact mod-p linear algebra helpers."""

import hashlib
import itertools
import random

import pytest

from genmat import linalg


def test_rank_and_independence():
    p = 101
    assert linalg.rank([(1, 0), (0, 1)], p) == 2
    assert linalg.rank([(1, 2), (2, 4)], p) == 1
    assert linalg.rank([(0, 0)], p) == 0
    assert linalg.rank([], p) == 0
    assert linalg.independent([(1, 0, 0), (1, 1, 0), (1, 1, 1)], p)
    assert not linalg.independent([(1, 1), (2, 2)], p)
    # Dependence can appear only modulo p.
    assert not linalg.independent([(1, 0), (p, 0)], p)


def test_solve_round_trip_random():
    p = 32003
    rng = random.Random(314)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        basis = [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)]
        coeffs = [rng.randrange(p) for _ in range(rows)]
        target = tuple(
            sum(c * row[j] for c, row in zip(coeffs, basis)) % p for j in range(cols)
        )
        found = linalg.solve_coords(basis, target, p)
        assert found is not None
        rebuilt = tuple(
            sum(c * row[j] for c, row in zip(found, basis)) % p for j in range(cols)
        )
        assert rebuilt == target


def test_solve_detects_out_of_span():
    p = 101
    assert linalg.solve_coords([(1, 0, 0), (0, 1, 0)], (0, 0, 1), p) is None
    assert not linalg.in_span([(1, 1)], (1, 2), p)
    assert linalg.in_span([(1, 1)], (2, 2), p)
    assert linalg.solve_coords([], (0, 0), p) == ()
    assert linalg.solve_coords([], (1, 0), p) is None


def _combine(coeffs, basis, ncols, p):
    return tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % p for j in range(ncols))


def test_solve_coords_against_enumeration():
    """Every coefficient vector is tried at p = 5: None exactly when none works."""
    p = 5
    rng = random.Random(2718)
    seen_inconsistent = seen_consistent = 0
    for _ in range(400):
        rows = rng.randrange(0, 4)
        cols = rng.randrange(1, 4)
        # Entries outside [0, p) check that everything is read modulo p.
        basis = [tuple(rng.randrange(-p, 2 * p) for _ in range(cols)) for _ in range(rows)]
        if rng.random() < 0.5:
            target = tuple(rng.randrange(-p, 2 * p) for _ in range(cols))
        else:
            target = _combine([rng.randrange(p) for _ in range(rows)], basis, cols, p)
        want = tuple(x % p for x in target)
        reachable = any(
            _combine(c, basis, cols, p) == want
            for c in itertools.product(range(p), repeat=rows)
        )
        found = linalg.solve_coords(basis, target, p)
        assert linalg.in_span(basis, target, p) == reachable
        if not reachable:
            assert found is None
            seen_inconsistent += 1
            continue
        seen_consistent += 1
        assert found is not None and len(found) == rows
        assert all(0 <= c < p for c in found)
        assert _combine(found, basis, cols, p) == want
    assert seen_inconsistent > 50 and seen_consistent > 50


def test_solve_coords_rejects_ragged_lengths():
    p = 5
    with pytest.raises(ValueError, match="lengths"):
        linalg.solve_coords([(1, 0), (1,)], (1, 0), p)
    with pytest.raises(ValueError, match="lengths"):
        linalg.solve_coords([(1, 0)], (1, 0, 0), p)
    with pytest.raises(ValueError, match="lengths"):
        linalg.in_span([(1, 0, 0)], (1, 0), p)
    # A solver built once checks each target's width itself: a shorter
    # or longer target must not be cut to the rows' width.
    solve = linalg.span_solver([(1, 0, 2), (0, 1, 1)], p)
    assert solve((1, 1, 3)) == (1, 1) and solve((0, 0, 1)) is None
    for target in ((1, 1), (1, 1, 3, 0)):
        with pytest.raises(ValueError, match="lengths"):
            solve(target)


def test_ragged_rows_rejected_in_either_order():
    p = 5
    for rows in ([(1,), (1, 2)], [(1, 2), (1,)]):
        with pytest.raises(ValueError, match="lengths"):
            linalg.row_echelon(rows, p)
        with pytest.raises(ValueError, match="lengths"):
            linalg.rank(rows, p)
        with pytest.raises(ValueError, match="lengths"):
            linalg.independent(rows, p)
    # A lazy stream is checked row by row as it is read.
    with pytest.raises(ValueError, match="lengths"):
        linalg.row_echelon(iter([(1, 2), (1,)]), p)


def _small_system(rng, p):
    """Seeded rows with zero rows, dependent rows and entries outside [0, p)."""
    nrows, ncols = rng.randrange(0, 5), rng.randrange(1, 4)
    rows = [[rng.randrange(-p, 2 * p) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows[i] = [0] * ncols
        elif kind < 0.35 and i:
            a, b = rng.randrange(p), rng.randrange(-p, 2 * p)
            j = rng.randrange(i)
            rows[i] = [a * x + b * p for x in rows[j]]
    return [tuple(r) for r in rows], ncols


@pytest.mark.parametrize("p", [5, 7])
def test_rank_and_residue_match_span_enumeration(p):
    rng = random.Random(1000 + p)
    for _ in range(150):
        rows, ncols = _small_system(rng, p)
        span = {
            tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(ncols))
            for coeffs in itertools.product(range(p), repeat=len(rows))
        }
        echelon, pivots = linalg.row_echelon(rows, p)
        assert p ** linalg.rank(rows, p) == len(span)
        assert linalg.independent(rows, p) == (p ** len(rows) == len(span))
        assert len(echelon) == len(pivots) == linalg.rank(rows, p)
        packed = [linalg.pack(e, p) for e in echelon]
        for v in itertools.product(range(p), repeat=ncols):
            shifted = linalg.pack([x + p * rng.randrange(-1, 2) for x in v], p)
            assert (not any(linalg.residue(packed, pivots, shifted, p, ncols))) == (v in span)


@pytest.mark.parametrize("p", [5, 7])
def test_row_echelon_reads_rows_only_until_full_rank(p):
    rng = random.Random(2000 + p)
    saw_early_stop = False
    for _ in range(200):
        rows, ncols = _small_system(rng, p)
        rows += [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(3)]
        pulls = []

        def stream():
            for r in rows:
                pulls.append(r)
                yield r

        echelon, pivots = linalg.row_echelon(stream(), p)
        assert (echelon, pivots) == linalg.row_echelon(rows, p)
        # Reading stops at the row that brings the rank to the width.
        full = linalg.rank(rows, p) == ncols
        if full:
            assert linalg.rank(rows[: len(pulls)], p) == ncols
            assert linalg.rank(rows[: len(pulls) - 1], p) < ncols
            saw_early_stop |= len(pulls) < len(rows)
        else:
            assert len(pulls) == len(rows)
    assert saw_early_stop


def seeded_systems():
    """10,000 seeded systems over p in {5, 7, 101, 32003}: zero entries,
    a dependent last row, targets inside and outside the span, entries
    outside [0, p)."""
    rng = random.Random(90210)
    for trial in range(10000):
        p = (5, 7, 101, 32003)[trial % 4]
        rows, cols = rng.randrange(0, 6), rng.randrange(1, 6)
        basis = [
            [rng.choice((0, 0, rng.randrange(-p, 2 * p))) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows >= 2 and rng.random() < 0.4:
            a, b = rng.randrange(p), rng.randrange(p)
            basis[-1] = [a * x + b * y for x, y in zip(basis[0], basis[1])]
        if rng.random() < 0.5:
            coeffs = [rng.randrange(p) for _ in range(rows)]
            target = [sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(cols)]
        else:
            target = [rng.randrange(-p, 2 * p) for _ in range(cols)]
        yield [tuple(r) for r in basis], tuple(target), p


# sha256 of solve_coords over seeded_systems(), computed with the
# column-by-column Gauss-Jordan elimination that the row-insertion loop
# replaced.  The returned solution sets every free unknown to 0, and the
# pivot columns of a row space do not depend on how it is echelonized,
# so any change to which solution comes back fails here.
SOLVE_COORDS_SHA256 = "5d5751b3d522deb57e7080124aa09a222af419ae8acfc0dbe4e0e0c32b890361"


def test_solve_coords_match_golden_digest():
    digest = hashlib.sha256()
    unsolvable = 0
    for basis, target, p in seeded_systems():
        out = linalg.solve_coords(basis, target, p)
        unsolvable += out is None
        digest.update(f"{out}\n".encode())
    assert 2000 < unsolvable < 8000
    assert digest.hexdigest() == SOLVE_COORDS_SHA256


# ------------------------------------------------ packed rows, exactness
#
# The reference below is plain Gauss-Jordan on lists reduced modulo p
# after every operation; it shares no code with genmat.linalg.  The
# packed loop must agree with it term for term, including at the
# largest primes the field accepts, where a slot is 256 bits.

PACKED_PRIMES = (2, 3, 5, 101, 32003, 2**31 - 1, 2**61 - 1, 2**64 + 13)
PACKED_WIDTHS = tuple(range(10)) + (16, 17, 32, 33, 60)


def _reference_echelon(rows, p):
    """Reduced row echelon form of the span of ``rows``: (rows, pivots)."""
    work = [[x % p for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    out, pivots = [], []
    for col in range(ncols):
        at = next((i for i, r in enumerate(work) if r[col]), None)
        if at is None:
            continue
        row = work.pop(at)
        inv = pow(row[col], p - 2, p)
        row = [x * inv % p for x in row]
        out = [[(x - r[col] * y) % p for x, y in zip(r, row)] for r in out]
        work = [[(x - r[col] * y) % p for x, y in zip(r, row)] for r in work]
        out.append(row)
        pivots.append(col)
    return [tuple(r) for r in out], pivots


def _reference_residue(echelon, pivots, row, p):
    out = [x % p for x in row]
    for e, col in zip(echelon, pivots):
        c = out[col]
        out = [(x - c * y) % p for x, y in zip(out, e)]
    return out


def _reference_solve(rows, target, p):
    """Coefficients over the rows independent of the rows before them,
    the others 0, or None off the span."""
    basis, picked = [], []
    for i, r in enumerate(rows):
        if len(_reference_echelon(basis + [r], p)[1]) > len(basis):
            basis.append(r)
            picked.append(i)
    n, k = len(target), len(basis)
    # Solve sum_j c_j basis_j = target: the columns of the system are the
    # basis rows, with the target appended.
    system = [[basis[j][col] for j in range(k)] + [target[col]] for col in range(n)]
    echelon, pivots = _reference_echelon(system, p)
    if k in pivots:
        return None
    coeffs = [0] * len(rows)
    for e, col in zip(echelon, pivots):
        coeffs[picked[col]] = e[k]
    return tuple(coeffs)


def _systems(p, width, rng):
    """Named row lists of one width: random entries in [-p^2, p^2], a
    rank-deficient list, and full-rank lists of entries p - 1."""
    size = width + 3
    big = [[rng.randint(-p * p, p * p) for _ in range(width)] for _ in range(size)]
    sparse = [[rng.choice((0, 0, 0, rng.randint(-p * p, p * p))) for _ in range(width)]
              for _ in range(size)]
    base = big[: width // 2 + 1]
    combos = [[rng.randrange(p) for _ in base] for _ in range(size - len(base))]
    deficient = base + [
        [sum(c * r[j] for c, r in zip(cs, base)) for j in range(width)] for cs in combos
    ]
    top = [[p - 1 if j >= i else 0 for j in range(width)] for i in range(width)]
    # -J + (d + 1) I, all entries p - 1 off the diagonal: full rank when
    # d + 1 and d + 1 - width are units.
    d = next((d for d in range(p) if (d + 1) % p and (d + 1 - width) % p), None)
    full = [[d if i == j else p - 1 for j in range(width)] for i in range(width)]
    systems = {"big": big, "sparse": sparse, "deficient": deficient, "upper-(p-1)": top}
    if d is not None:
        systems["all-(p-1)"] = full
    return {name: [tuple(r) for r in rows] for name, rows in systems.items()}


def _padded(row, p, bits, rng):
    """``row`` packed with every slot raised by a multiple of p to near
    2^bits, the most a packed input slot may hold."""
    top = ((1 << bits) - p) // p
    return sum((x % p + p * rng.randint(top // 2, top)) << j * bits for j, x in enumerate(row))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_loop_matches_the_reference_term_for_term(p):
    rng = random.Random(p % 1_000_003)
    for width in PACKED_WIDTHS:
        bits = linalg.slot_bits(p, width)
        for name, rows in _systems(p, width, rng).items():
            want, want_pivots = _reference_echelon(rows, p)
            got = linalg.row_echelon(rows, p)
            assert got == (want, want_pivots), (p, width, name)
            assert linalg.rank(rows, p) == len(want_pivots)
            # The same rows packed, slots padded, through a lazy stream.
            pulled = []

            def stream():
                for r in rows:
                    pulled.append(r)
                    yield _padded(r, p, bits, rng)

            echelon, pivots = linalg.row_echelon(stream(), p, width)
            assert pivots == want_pivots, (p, width, name)
            assert [tuple(linalg.unpack(e, width, p)) for e in echelon] == want
            # Reading stops at the row that brings the rank to the width
            # (for width 0, at the first row); the pivots above show it
            # was reached.
            if width == 0:
                assert len(pulled) == min(1, len(rows))
            elif len(want_pivots) == width:
                assert len(_reference_echelon(pulled[:-1], p)[1]) < width
            else:
                assert len(pulled) == len(rows)
            for target in rows[:3] + [tuple(rng.randint(-p * p, p * p) for _ in range(width))]:
                expect = _reference_residue(want, want_pivots, target, p)
                rows_in = [linalg.pack(e, p) for e in want]
                reduced = linalg.residue(rows_in, want_pivots, linalg.pack(target, p), p, width)
                assert reduced == expect
                packed = _padded(target, p, bits, rng)
                assert linalg.residue(echelon, pivots, packed, p, width) == expect
            if rows and width <= 17:
                basis = rows[: width // 2 + 1]
                solve = linalg.span_solver(basis, p)
                for target in rows[-2:] + [tuple(x * 3 - y for x, y in zip(basis[0], rows[-1]))]:
                    assert solve(target) == _reference_solve(basis, target, p), (p, width, name)


def test_packed_rows_round_trip_at_the_slot_limit():
    for p in PACKED_PRIMES:
        for width in (0, 1, 7, 60):
            bits = linalg.slot_bits(p, width)
            row = [p - 1] * width
            assert linalg.unpack(linalg.pack(row, p), width, p) == row
            top = sum(((1 << bits) - 1) << j * bits for j in range(width))
            assert linalg.unpack(top, width, p) == [((1 << bits) - 1) % p] * width


def test_row_sums_stay_exact_past_the_slot_bound():
    # However many rows of slots below p^2 are summed, the sum reduces
    # between runs, so no slot carries into the next; unit rows read
    # back as the identity.
    rng = random.Random(31)
    for p in (2, 3, 5, 101):
        for width in (0, 1, 2, 7):
            w2p = max(width, 1) ** 2 * p
            # Rows of slots (p-1)^2 that would fill a slot unreduced.
            full = (1 << linalg.slot_bits(p, width)) // (p - 1) ** 2 + 1
            for count in (1, w2p, w2p + 1, 3 * w2p + 1) + ((full,) if full < 20000 else ()):
                top = [[p - 1] * width] * count, [p - 1] * count
                drawn = [[rng.randrange(p) for _ in range(width)] for _ in range(count)]
                for rows, cs in (top, (drawn, [rng.randrange(p) for _ in drawn])):
                    scaled = [c * linalg.pack(r, p) for c, r in zip(cs, rows)]
                    got = linalg.row_sum(scaled, p, width)
                    want = [sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(width)]
                    assert linalg.unpack(got, width, p) == want, (p, width, count)
            units = [linalg.unpack(u, width, p) for u in linalg.unit_rows(p, width)]
            assert units == [[int(i == j) for j in range(width)] for i in range(width)]


def test_slot_width_holds_the_growth_of_one_elimination():
    # A kept row's slot stays below p + (w-1)(p-1)^2 <= w p^2, and a
    # residue adds at most w kept rows, each times at most p - 1, so every
    # slot stays below w^2 p^3 (p^3 for w = 0); the width is a whole
    # array item or a multiple of 64 bits.  Some of these (p, w) sit on
    # a rounding step, so a rule one bit short fails here.
    for p in PACKED_PRIMES:
        for w in range(61):
            bits = linalg.slot_bits(p, w)
            assert 1 << bits > max(w, 1) ** 2 * p**3, (p, w)
            assert bits in (8, 16, 32) or bits % 64 == 0, (p, w)
