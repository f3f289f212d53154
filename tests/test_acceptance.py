"""Acceptance gate: seven headline checks, one pass line apiece.

Each criterion is a single test, so ``pytest tests/test_acceptance.py -v``
prints one pass/fail line per criterion; add ``-s`` to see the summary
lines with timings and rates.
"""

import random
import time
from functools import reduce
from itertools import combinations

from genmat.algebra import (
    analytic_spread,
    diagonal_subring,
    equigenerated_ideal,
    fiber_reduction_test,
    graded_algebra,
    ideal_product,
    is_complete_reduction_ideals,
    is_minimal_reduction,
    is_reduction,
    lemma_correspondence_check,
    standard_graded_algebra,
)
from genmat.groebner import IdealSpec, kernel_of_map, krull_dimension
from genmat.instances import (
    complete_reduction_instance,
    finite_matroid,
    minred_instance,
    nn_instance,
    vector_matroid,
)
from genmat.matroid import (
    AxiomCheck,
    check_generic_exchange_statistical,
    check_matroid_axioms,
    exchange_path,
    exchange_step,
)
from genmat.polyring import polynomial_ring

from oracles import ideal_equal, least_power, substitute, verify_groebner


def quadric(p=32003):
    R = polynomial_ring(p, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    return S, (x, y, z, w)


def segre():
    R = polynomial_ring(32003, "x1 x2 y1 y2")
    S = graded_algebra(R, ((1, 0), (1, 0), (0, 1), (0, 1)))
    return S, R.gens()


def _ok(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_quadric_reduction_verdicts():
    started = time.perf_counter()
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    cases = [
        ((x + y, z, w), True),
        ((x, y, z + w), True),
        ((x, z, w), False),
        ((y, z, w), False),
        ((z + w, z, w), False),
    ]
    for gens, expected in cases:
        J = equigenerated_ideal(S, gens)
        assert is_minimal_reduction(J, m) is expected
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _ok(1, f"five quadric minimal-reduction verdicts exact ({elapsed:.2f}s)")


def test_criterion_2_statistical_rates_and_traps():
    started = time.perf_counter()
    rates = {}
    for p, floor in ((32003, 0.95), (101, 0.80)):
        S, (x, y, z, w) = quadric(p)
        m = equigenerated_ideal(S, (x, y, z, w))
        inst = minred_instance(
            m,
            handles={"target": (x, y, z + w)},
            traps={"x": x, "y": y, "z+w": z + w},
        )
        basis = (x + y, z, w)
        assert inst.is_basis(basis)
        handle = inst.handle("target")
        rate = check_generic_exchange_statistical(
            inst, basis, x + y, handle, trials=200, seed=2024
        )
        assert rate >= floor
        rates[p] = rate
        forced = tuple(inst.traps.values())
        cert = exchange_step(inst, basis, x + y, handle, seed=7, forced=forced)
        assert cert.rejected[: len(forced)] == forced
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(
        2,
        "200-trial success rates "
        f"{rates[32003]:.3f} (p=32003), {rates[101]:.3f} (p=101), "
        f"3 traps rejected ({elapsed:.2f}s)",
    )


def test_criterion_3_seeded_paths_across_instance_types():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    Sg, (x1, x2, y1, y2) = segre()

    fm = finite_matroid(
        "abcd",
        [tuple(c) for c in combinations("abcd", 2)],
        handles={"goal": "cd"},
    )
    vm = vector_matroid(
        5,
        [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1)],
        handles={"target": [(1, 1), (2, 1), (3, 1)]},
    )
    nn = nn_instance(S, handles={"target": (x, y, z + w)})
    mr = minred_instance(m, handles={"target": (x, y, z + w)})
    cr = complete_reduction_instance(
        Sg,
        variant="vector",
        handles={"crossed": ((x1, x2), (y2, y1))},
    )

    runs = [
        (fm, ("a", "b"), "goal"),
        (vm, ((1, 0), (0, 1)), "target"),
        (nn, (x + y, z, w), "target"),
        (mr, (x + y, z, w), "target"),
        (cr, ((x1, y1), (x2, y2), (x1 + x2, y1 + y2)), "crossed"),
    ]
    total = 0
    for inst, start, handle_name in runs:
        handle = inst.handle(handle_name)
        for seed in range(20):
            path = exchange_path(inst, start, handle, seed=seed)
            assert len(path.steps) <= inst.rank
            assert len(path.final) == inst.rank
            assert inst.verify(path.final)
            assert all(handle.contains(e) for e in path.final)
            total += 1
    assert total == 100
    _ok(3, "100 seeded exchange paths over 5 instance types, zero violations")


def test_criterion_4_power_fiber_agreement_and_correspondence():
    rng = random.Random(40404)
    R = polynomial_ring(32003, "a b c")
    S = standard_graded_algebra(R)

    def combo(forms, allow_zero_coeffs=True):
        out = S.ring.zero()
        while out.is_zero:
            for f in forms:
                c = rng.randrange(32003) if allow_zero_coeffs else rng.randrange(1, 32003)
                if c:
                    out = out + S.ring.const(c) * f
        return out

    instances = 0
    conclusive = 0
    attempts = 0
    while instances < 20 and attempts < 400:
        attempts += 1
        e = rng.choice((1, 2))
        mons = S.standard_monomials((e,))
        k = rng.randint(2, min(4, len(mons)))
        try:
            picks = rng.sample(mons, k)
            I = equigenerated_ideal(S, tuple(combo(picks) for _ in range(k)))
            ell = analytic_spread(I)
            J = equigenerated_ideal(S, tuple(combo(I.generators) for _ in range(ell)))
        except ValueError:
            continue
        # The fiber ring's least power, the verdict's, and a plain power
        # loop over Groebner membership agree up to the bound.
        fib = fiber_reduction_test(J, I)
        power = least_power(R, (), J.generators, I.generators, 3)
        assert power == (fib if fib is not None and fib <= 3 else None)
        assert is_reduction(J, I, n_max=3).power == power
        conclusive += fib is None or power is not None
        instances += 1
    assert instances >= 20
    assert conclusive >= 5

    R2 = polynomial_ring(32003, "a b")
    S2 = standard_graded_algebra(R2)
    a, b = R2.gens()
    pool = [
        equigenerated_ideal(S2, (a, b)),
        equigenerated_ideal(S2, (a * a, a * b, b * b)),
        equigenerated_ideal(S2, (a * a, b * b)),
    ]
    checked = 0
    tries = 0
    while checked < 10 and tries < 300:
        tries += 1
        ideals = tuple(rng.choice(pool) for _ in range(rng.choice((1, 2))))
        d = analytic_spread(reduce(ideal_product, ideals))
        rows = []
        for I in ideals:
            gens = I.generators
            rows.append(tuple(
                sum((S2.ring.const(rng.randrange(32003)) * g for g in gens), S2.ring.zero())
                for _ in range(d)
            ))
        try:
            agree = lemma_correspondence_check(ideals, tuple(rows), n_max=3)
        except ValueError:
            continue
        if agree is None:
            continue
        assert agree is True
        checked += 1
    assert checked >= 10
    _ok(
        4,
        f"{instances} random reduction instances ({conclusive} conclusive): fiber "
        f"power, verdict and power loop agree; {checked} ideal/ring correspondence "
        "checks agree",
    )


def test_criterion_5_complete_reduction_headliners():
    R = polynomial_ring(32003, "x y")
    S = standard_graded_algebra(R)
    x, y = R.gens()
    I = equigenerated_ideal(S, (x, y))
    verdict = is_complete_reduction_ideals((I, I), ((x, y), (x, y)))
    assert verdict.is_yes and verdict.power == 1

    Sg, (x1, x2, y1, y2) = segre()
    assert diagonal_subring(Sg).dimension() == 3

    start = ((x1, y1), (x2, y2), (x1 + x2, y1 + y2))
    for variant in ("matrix", "vector"):
        inst = complete_reduction_instance(Sg, variant=variant)
        handle = inst.handle("ambient")
        for seed in range(10):
            cert = exchange_step(inst, start, start[0], handle, seed=seed)
            assert cert.attempts <= 64
            assert inst.verify(cert.basis_after)
    _ok(5, "2x2 ideal pair yes(1), Segre diagonal dim 3, 20 one-step exchanges")


def test_criterion_6_dimensions_and_presentation_kernels():
    for n in range(1, 7):
        names = " ".join(f"t{i}" for i in range(1, n + 1))
        S = standard_graded_algebra(polynomial_ring(32003, names))
        assert S.dimension() == n
    Sq, _ = quadric()
    assert Sq.dimension() == 3

    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    veronese = [x * x, x * y, y * y]
    ker = kernel_of_map(veronese)
    T1, T2, T3 = ker.ring.gens()
    assert ideal_equal(ker, IdealSpec(ker.ring, (T1 * T3 - T2 * T2,)))
    for g in ker.basis:
        assert substitute(g, veronese, R).is_zero
    assert verify_groebner(ker)
    assert krull_dimension(ker) == 2

    R4 = polynomial_ring(32003, "x1 x2 y1 y2")
    x1, x2, y1, y2 = R4.gens()
    prods = [x1 * y1, x1 * y2, x2 * y1, x2 * y2]
    ker2 = kernel_of_map(prods)
    U1, U2, U3, U4 = ker2.ring.gens()
    assert ideal_equal(ker2, IdealSpec(ker2.ring, (U1 * U4 - U2 * U3,)))
    for g in ker2.basis:
        assert substitute(g, prods, R4).is_zero
    assert verify_groebner(ker2)
    assert krull_dimension(ker2) == 3
    _ok(6, "polynomial-ring/quadric dimensions and Veronese/Segre kernels verified")


def test_criterion_7_axiom_checker_verdicts():
    u24 = [tuple(c) for c in combinations("abcd", 2)]
    assert check_matroid_axioms("abcd", u24) == AxiomCheck(True)

    S, (x, y, z, w) = quadric()
    family = [(x + y, z, w), (x, y, z + w)]
    ground = (x, y, z, w, x + y, z + w)
    bad = check_matroid_axioms(ground, family)
    assert not bad.ok
    assert bad.reason == "exchange fails"
    B, Bp, witness = bad.violation
    assert witness == x + y
    assert B == (x + y, z, w) and Bp == (x, y, z + w)
    _ok(7, "U(2,4) passes the axiom check; quadric pair fails at witness x + y")
