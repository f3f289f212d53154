"""Exact mod-p linear algebra helpers."""

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
