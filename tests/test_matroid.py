"""Axiom checker and the randomized exchange machinery."""

from collections import Counter
from itertools import combinations

import pytest

from genmat.algebra import standard_graded_algebra, equigenerated_ideal
from genmat.matroid import (
    MEMO_SIZE,
    AxiomCheck,
    ExchangeExhausted,
    GenericMatroidInstance,
    MatroidHandle,
    check_generic_exchange_statistical,
    check_matroid_axioms,
    exchange_path,
    exchange_step,
)
from genmat.instances import finite_matroid, minred_instance, nn_instance, vector_matroid
from genmat.polyring import polynomial_ring


def quadric_instance():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    m = equigenerated_ideal(S, (x, y, z, w))
    inst = minred_instance(
        m,
        handles={
            "generators": (x, y, z, w),
            "target": (x, y, z + w),
            "hopeless": (z, w),
        },
        traps={"x": x, "y": y, "z+w": z + w},
    )
    return inst, (x, y, z, w)


def test_axioms_uniform():
    bases = list(combinations("abcd", 2))
    assert check_matroid_axioms("abcd", bases) == AxiomCheck(True)


def test_axioms_small_families():
    assert check_matroid_axioms("ab", [("a", "b")]).ok
    empty = check_matroid_axioms("ab", [])
    assert not empty.ok and empty.reason == "empty basis family"
    nested = check_matroid_axioms("abc", [("a",), ("a", "b")])
    assert not nested.ok and nested.reason == "containment between bases"
    assert nested.violation == (("a",), ("a", "b"), None)


def test_axioms_exchange_violation():
    # Two disjoint pairs cannot exchange one element at a time.
    chk = check_matroid_axioms("abcd", [("a", "b"), ("c", "d")])
    assert not chk.ok and chk.reason == "exchange fails"
    B, Bp, b = chk.violation
    assert (B, b) == (("a", "b"), "a") and Bp == ("c", "d")


def test_axioms_quadric_two_basis_family():
    # The two verified minimal reductions of the quadric's maximal
    # ideal do not exchange elementwise: removing x+y leaves no
    # single replacement from the other basis.
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    B1 = (x + y, z, w)
    B2 = (x, y, z + w)
    ground = [x, y, z, w, x + y, z + w]
    chk = check_matroid_axioms(ground, [B1, B2])
    assert not chk.ok and chk.reason == "exchange fails"
    assert chk.violation == (B1, B2, x + y)
    family = {frozenset(B1), frozenset(B2)}
    for c in B2:
        assert frozenset((c, z, w)) not in family


def test_axioms_input_validation():
    with pytest.raises(ValueError, match="limited to 20"):
        check_matroid_axioms(range(21), [(0, 1)])
    with pytest.raises(ValueError, match="leaves the ground"):
        check_matroid_axioms("ab", [("a", "q")])
    with pytest.raises(ValueError, match="duplicate elements"):
        check_matroid_axioms("ab", [("a", "a")])


def test_instance_duplicate_rejection_and_cache():
    inst, (x, y, z, w) = quadric_instance()
    assert not inst.is_basis((x, x, y))
    assert inst.is_basis((x + y, z, w))
    assert inst.is_basis((z, w, x + y))  # order is bookkeeping only
    assert inst.verify((x + y, z, w))


def counting_instance():
    """Rank 2 over the integers: a pair is a basis when its sum is odd.
    The handle draws from a billion integers, so draws rarely repeat;
    ``asked`` counts the oracle's calls per element set."""
    asked = Counter()

    def oracle(elements):
        asked[frozenset(elements)] += 1
        return sum(elements) % 2 == 1

    handle = MatroidHandle("ints", lambda e: isinstance(e, int), lambda rng: rng.randrange(10**9))
    return GenericMatroidInstance("parity", 2, oracle, {"ints": handle}), asked


def test_instance_repr_names_rank_and_handles():
    inst, _ = counting_instance()
    assert repr(inst) == "GenericMatroidInstance('parity', rank=2, handles=['ints'])"


def test_instance_rank_is_nonnegative():
    handle = MatroidHandle("ints", lambda e: isinstance(e, int), lambda rng: rng.randrange(9))
    with pytest.raises(ValueError, match="^rank must be nonnegative$"):
        GenericMatroidInstance("negative", -1, lambda elements: True, {"ints": handle})


def test_verdict_memo_stays_bounded():
    inst, asked = counting_instance()
    rate = check_generic_exchange_statistical(inst, (0, 1), 1, "ints", trials=5000, seed=3)
    assert 0.45 < rate < 0.55 and len(asked) > MEMO_SIZE
    assert len(inst._cache) <= MEMO_SIZE


def test_start_basis_stays_a_memo_hit():
    # Every step re-checks its start, and far more than MEMO_SIZE fresh
    # candidates pass through the memo, yet the start costs one call.
    inst, asked = counting_instance()
    for seed in range(2 * MEMO_SIZE):
        exchange_step(inst, (0, 1), 1, "ints", seed=seed)
    assert asked[frozenset((0, 1))] == 1 and len(inst._cache) <= MEMO_SIZE


def test_an_oracle_that_changes_its_mind_is_a_run_failure():
    # Each set reads as a basis the first time it is asked and never
    # after, so the uncached re-verification refuses the accepted set.
    asked = set()

    def oracle(elements):
        key = frozenset(elements)
        fresh = key not in asked
        asked.add(key)
        return fresh

    handle = MatroidHandle("ints", lambda e: isinstance(e, int), lambda rng: rng.randrange(10**9))
    inst = GenericMatroidInstance("fickle", 2, oracle, {"ints": handle})
    with pytest.raises(RuntimeError, match="oracle accepted a set and then rejected it"):
        exchange_step(inst, (0, 1), 1, "ints", seed=1)


def test_unknown_handle():
    inst, (x, y, z, w) = quadric_instance()
    with pytest.raises(ValueError, match="unknown handle"):
        exchange_step(inst, (x + y, z, w), x + y, "nope", seed=1)


def test_exchange_step_validation():
    inst, (x, y, z, w) = quadric_instance()
    with pytest.raises(ValueError, match="not in the basis"):
        exchange_step(inst, (x + y, z, w), x, "target", seed=1)
    with pytest.raises(ValueError, match="fails the basis oracle"):
        exchange_step(inst, (x, z, w), x, "target", seed=1)
    with pytest.raises(ValueError, match="max_tries"):
        exchange_step(inst, (x + y, z, w), x + y, "target", seed=1, max_tries=0)


def test_exchange_step_certificate():
    inst, (x, y, z, w) = quadric_instance()
    B = (x + y, z, w)
    cert = exchange_step(inst, B, x + y, "target", seed=42)
    assert cert.instance == inst.name
    assert cert.handle == "target"
    assert cert.transcript == "minimal-reduction"
    assert cert.removed == x + y and cert.seed == 42
    assert cert.basis_before == B
    assert cert.basis_after[1:] == (z, w)
    assert cert.attempts == 1 + len(cert.rejected)
    assert inst.verify(cert.basis_after)
    assert inst.handles["target"].contains(cert.inserted)


def test_exchange_step_determinism():
    inst, (x, y, z, w) = quadric_instance()
    B = (x + y, z, w)
    a = exchange_step(inst, B, x + y, "target", seed=99)
    b = exchange_step(inst, B, x + y, "target", seed=99)
    assert a == b
    c = exchange_step(inst, B, x + y, "target", seed=100)
    assert c.inserted != a.inserted


def test_exchange_step_generates_seed():
    inst, (x, y, z, w) = quadric_instance()
    cert = exchange_step(inst, (x + y, z, w), x + y, "target")
    assert isinstance(cert.seed, int) and 0 <= cert.seed < 2**32


def test_forced_traps_rejected():
    inst, (x, y, z, w) = quadric_instance()
    forced = [inst.traps["x"], inst.traps["y"], inst.traps["z+w"]]
    cert = exchange_step(inst, (x + y, z, w), x + y, "target", seed=42, forced=forced)
    assert cert.rejected[:3] == tuple(forced)
    assert cert.attempts >= 4


def test_exchange_exhausted():
    # No combination of z and w completes {z, w} to a minimal
    # reduction, so the budget is spent and every sample is returned.
    inst, (x, y, z, w) = quadric_instance()
    with pytest.raises(ExchangeExhausted) as info:
        exchange_step(inst, (x + y, z, w), x + y, "hopeless", seed=5, max_tries=8)
    spent = info.value
    assert spent.attempts == 8 and len(spent.rejected) == 8
    assert spent.seed == 5 and spent.partial_path == ()
    span = inst.handles["hopeless"]
    assert all(span.contains(r) for r in spent.rejected)


def test_exchange_path_quadric():
    # x+y already lies in the span of {x, y, z+w}; only z and w move.
    inst, (x, y, z, w) = quadric_instance()
    B = (x + y, z, w)
    path = exchange_path(inst, B, "target", seed=7)
    assert path.start == B and len(path.steps) == 2
    assert path.final[0] == x + y
    target = inst.handles["target"]
    assert all(target.contains(e) for e in path.final)
    assert inst.verify(path.final)
    again = exchange_path(inst, B, "target", seed=7)
    assert again == path


def test_exchange_path_already_inside():
    inst, (x, y, z, w) = quadric_instance()
    B = (x, y, z + w)
    path = exchange_path(inst, B, "target", seed=1)
    assert path.steps == () and path.final == B


def test_exchange_path_propagates_failure():
    inst, (x, y, z, w) = quadric_instance()
    with pytest.raises(ExchangeExhausted) as info:
        exchange_path(inst, (x + y, z, w), "hopeless", seed=3, max_tries=4)
    assert info.value.partial_path == ()
    assert len(info.value.rejected) == 4


def test_exchange_path_vector_matroid_exhaustive_verification():
    # Small enough to confirm every intermediate step by brute force.
    vm = vector_matroid(
        5,
        [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        handles={"ground": [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
                 "target": [(1, 1), (2, 1), (3, 1)]},
    )
    assert vm.rank == 2
    for seed in range(10):
        path = exchange_path(vm, ((1, 0), (0, 1)), "target", seed=seed)
        assert len(path.steps) <= 2
        seen = [path.start] + [c.basis_after for c in path.steps]
        for basis in seen:
            a, b = basis
            det = (a[0] * b[1] - a[1] * b[0]) % 5
            assert det != 0
        assert all(v in {(1, 1), (2, 1), (3, 1)} for v in path.final)


def test_finite_exhaustive_matches_brute_force():
    # Replacement exists when the whole carrier is tried exactly when
    # some carrier element completes the punctured set in the family.
    ground = "abcd"
    bases = [("a", "b"), ("c", "d"), ("a", "c")]
    fm = finite_matroid(ground, bases)
    family = {frozenset(b) for b in bases}
    carrier = fm.handles["ground"].elements
    for B in bases:
        for b in B:
            possible = any(
                frozenset(set(B) - {b} | {c}) in family for c in carrier
            )
            try:
                cert = exchange_step(
                    fm, B, b, "ground", seed=0, forced=carrier, max_tries=len(carrier)
                )
                assert possible and frozenset(cert.basis_after) in family
            except ExchangeExhausted:
                assert not possible


def test_statistical_rate_all_good():
    fm = finite_matroid("abc", [("a",), ("b",), ("c",)])
    rate = check_generic_exchange_statistical(fm, ("a",), "a", "ground", trials=40, seed=1)
    assert rate == 1.0


def test_statistical_rate_zero():
    inst, (x, y, z, w) = quadric_instance()
    rate = check_generic_exchange_statistical(
        inst, (x + y, z, w), x + y, "hopeless", trials=30, seed=2
    )
    assert rate == 0.0


def test_statistical_rate_quadric_high():
    inst, (x, y, z, w) = quadric_instance()
    rate = check_generic_exchange_statistical(
        inst, (x + y, z, w), x + y, "target", trials=60, seed=3
    )
    assert rate >= 0.95


def test_statistical_validation():
    inst, (x, y, z, w) = quadric_instance()
    with pytest.raises(ValueError, match="trials"):
        check_generic_exchange_statistical(inst, (x + y, z, w), x + y, "target", trials=0)
    with pytest.raises(ValueError, match="not in the basis"):
        check_generic_exchange_statistical(inst, (x + y, z, w), x, "target", trials=1)
    # (x, z, w) fails the oracle; statistical mode refuses it as exchange does.
    with pytest.raises(ValueError, match="starting set fails the basis oracle"):
        check_generic_exchange_statistical(inst, (x, z, w), x, "target", trials=20, seed=1)


def test_nn_instance_paths_stay_short():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    inst = nn_instance(S, handles={"target": (x, y, z + w)})
    sizes = set()
    for seed in range(8):
        path = exchange_path(inst, (x + y, z, w), "target", seed=seed)
        assert len(path.steps) <= 3
        sizes.add(len(path.final))
        assert inst.verify(path.final)
    assert sizes == {3}
