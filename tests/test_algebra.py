"""Graded presentations and the verification oracles."""

import random
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from genmat import algebra, groebner, linalg, polyring
from genmat.algebra import (
    DEFAULT_POWER_BOUND,
    EquigeneratedIdeal,
    GradedAlgebraPresentation,
    InconclusiveError,
    OutsideIdealError,
    analytic_spread,
    diagonal_subring,
    equigenerated_ideal,
    fiber_algebra,
    fiber_reduction_test,
    graded_algebra,
    ideal_power,
    ideal_product,
    is_complete_reduction_ideals,
    is_complete_reduction_ring,
    is_hsop,
    is_minimal_reduction,
    is_noether_normalization,
    is_reduction,
    lemma_correspondence_check,
    multigraded_fiber_algebra,
    standard_graded_algebra,
)
from genmat.groebner import IdealSpec, buchberger, hilbert_numerator
from genmat.instancefile import build_context, load_document
from genmat.instances import complete_reduction_instance
from genmat.polyring import (
    RingMismatchError,
    linear_combination,
    polynomial_ring,
    random_linear_combination,
)

from oracles import (
    brute_dimension,
    fiber_image,
    ideal_equal,
    ideal_membership,
    least_power,
    monomial_ideal_members,
    naive_mul,
    power_failure,
    product_monomials,
    random_homogeneous,
    reference_coordinates,
    substitute,
)


def quadric():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    return S, (x, y, z, w)


def plane():
    R = polynomial_ring(32003, "x y")
    return standard_graded_algebra(R), R.gens()


def segre():
    R = polynomial_ring(32003, "x1 x2 y1 y2")
    S = graded_algebra(R, ((1, 0), (1, 0), (0, 1), (0, 1)))
    return S, R.gens()


def test_presentation_validation():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    with pytest.raises(ValueError):
        GradedAlgebraPresentation(R, ((1,),))
    with pytest.raises(ValueError):
        GradedAlgebraPresentation(R, ((1,), (0,)))
    with pytest.raises(ValueError):
        GradedAlgebraPresentation(R, ((1,), (1, 0)))
    with pytest.raises(ValueError):
        GradedAlgebraPresentation(R, ((1,), (1,)), (x + x * y,))
    other = polynomial_ring(101, "a b").var("a")
    with pytest.raises(RingMismatchError):
        GradedAlgebraPresentation(R, ((1,), (1,)), (other,))
    with pytest.raises(ValueError, match="need one multidegree per variable"):
        GradedAlgebraPresentation(R, ())


def _segre_matrix(pick):
    S, variables = segre()
    return is_complete_reduction_ring(S, pick(variables))


def _quadric_ideals():
    S, (x, y, z, w) = quadric()
    return equigenerated_ideal(S, (x + y, z, w)), equigenerated_ideal(S, (x, y, z, w))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: graded_algebra(polynomial_ring(101, "x y"), [(1,), (-1,)]),
            ValueError,
            "variable y has a negative degree entry",
        ),
        (
            lambda: graded_algebra(plane()[0].ring, [(1,), (1,)], quadric()[0].groebner()),
            RingMismatchError,
            "relations outside the ambient ring",
        ),
        (
            lambda: graded_algebra(plane()[0].ring, [(1,), (2,)]).standard_monomials((2,)),
            ValueError,
            "monomial bases need a standard multigrading",
        ),
        (
            lambda: quadric()[0].standard_monomials((1, 1)),
            ValueError,
            "degree vector length mismatch",
        ),
        (lambda: ideal_power(_quadric_ideals()[1], 0), ValueError, "ideal powers start at 1"),
        (
            lambda: is_reduction(*_quadric_ideals(), n_max=0),
            ValueError,
            "power bound must be at least 1",
        ),
        (lambda: _segre_matrix(lambda v: []), ValueError, "empty matrix"),
        (lambda: _segre_matrix(lambda v: (v[:2], v[2:3])), ValueError, "ragged matrix"),
    ],
    ids=[
        "negative-degree",
        "basis-of-another-ring",
        "weighted-monomial-basis",
        "degree-length",
        "power-zero",
        "power-bound-zero",
        "empty-matrix",
        "ragged-matrix",
    ],
)
def test_algebra_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_standard_flag():
    S, _ = segre()
    assert S.blocks is not None and S.components == 2
    R = polynomial_ring(101, "x y")
    weighted = GradedAlgebraPresentation(R, ((1,), (2,)))
    assert weighted.blocks is None


def test_blocks_list_each_components_variables():
    assert quadric()[0].blocks == ((0, 1, 2, 3),)
    assert segre()[0].blocks == ((0, 1), (2, 3))
    R = polynomial_ring(101, "x y z")
    assert GradedAlgebraPresentation(R, ((1, 0), (1, 1), (0, 1))).blocks is None
    assert GradedAlgebraPresentation(R, ((1,), (2,), (1,))).blocks is None


def _refusals():
    """Each entry point that vets forms, as a call on one bad form."""
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    return {
        "relations": lambda f: GradedAlgebraPresentation(S.ring, S.degrees, (x * y - z * w, f)),
        "is_hsop": lambda f: is_hsop(S, (f, z, w)),
        "is_noether_normalization": lambda f: is_noether_normalization(S, (f, z, w)),
        "equigenerated_ideal": lambda f: equigenerated_ideal(S, (x, f)),
        "contains": m.contains,
        "is_complete_reduction_ring": lambda f: is_complete_reduction_ring(S, ((f, z, w),)),
        "is_complete_reduction_ideals": lambda f: is_complete_reduction_ideals(
            (m,), ((f, z, w),)
        ),
    }


@pytest.mark.parametrize("entry", sorted(_refusals()))
def test_one_refusal_per_bad_form(entry):
    # A form of another ring is a ring mismatch wherever it enters; a
    # mixed element of the right ring is a plain ValueError.
    refuse = _refusals()[entry]
    _, (x, y, z, w) = quadric()
    a = polynomial_ring(101, "x y z w").var("x")
    with pytest.raises(RingMismatchError):
        refuse(a)
    with pytest.raises(ValueError) as mixed:
        refuse(x + y * z)
    assert type(mixed.value) is ValueError


def test_dimension():
    S, _ = quadric()
    assert S.dimension() == 3
    P, _ = plane()
    assert P.dimension() == 2


def test_standard_monomials():
    S, _ = segre()
    ones = [str(m) for m in S.standard_monomials((1, 1))]
    assert ones == ["x1*y1", "x1*y2", "x2*y1", "x2*y2"]
    P, _ = plane()
    assert [str(m) for m in P.standard_monomials((2,))] == ["x^2", "x*y", "y^2"]
    Q, (x, y, z, w) = quadric()
    # x*y is the staircase corner of the quadric relation.
    quad = [str(m) for m in Q.standard_monomials((2,))]
    assert "x*y" not in quad and len(quad) == 9


def test_coordinates():
    P, (x, y) = plane()
    assert P.coordinates(3 * x + 5 * y, (1,)) == (3, 5)
    with pytest.raises(ValueError):
        P.coordinates(x * y, (1,))


def cubic5():
    R = polynomial_ring(32003, "a b c d e")
    relation = random_homogeneous(R, random.Random(5), 3, 8)
    return standard_graded_algebra(R, (relation,)), R.gens()


def p2p2():
    R = polynomial_ring(32003, "x1 x2 x3 y1 y2 y3")
    x1, x2, x3, y1, y2, y3 = R.gens()
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3, (x1 * y1 + x2 * y2 + x3 * y3,))
    return S, R.gens()


def _random_form(S, rng, target, terms=5):
    """Random form of multidegree ``target`` under S's standard grading."""
    out = S.ring.zero()
    for _ in range(terms):
        e = [0] * S.ring.nvars
        for block, k in zip(S.blocks, target):
            for _ in range(k):
                e[rng.choice(block)] += 1
        out = out + S.ring.monomial(e, rng.randrange(1, S.ring.field.p))
    return out


@pytest.mark.parametrize(
    "make, degrees",
    [
        (quadric, [((1,), (1,)), ((1,), (2,)), ((2,), (2,))]),
        (cubic5, [((1,), (2,)), ((2,), (2,)), ((1,), (3,))]),
        (p2p2, [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))]),
    ],
)
def test_coordinates_match_the_normal_form_reference(make, degrees):
    # Rows read from the piece's table against one normal form of the
    # whole element, for single forms and for two-factor products.
    S, _ = make()
    rng = random.Random(1414)
    for _ in range(4):
        for da, db in degrees:
            a, b = _random_form(S, rng, da), _random_form(S, rng, db)
            target = tuple(i + j for i, j in zip(da, db))
            assert S.coordinates(a, da) == reference_coordinates(S, a, da)
            want = reference_coordinates(S, naive_mul(a, b), target)
            assert S.product_row((a, b), target) == want
            assert S.coordinates(a * b, target) == want


def test_product_rows_sum_more_terms_than_a_slot_holds():
    # In F_2[x, y]/(x + y) every piece has width 1 and 8-bit slots; the
    # square of the sum of the monomials of degree k has (k + 1)^2 terms,
    # each with row (1,), so from k = 15 on their sum overflows a slot.
    R = polynomial_ring(2, "x y")
    x, y = R.gens()
    S = standard_graded_algebra(R, [x + y])
    for k in (7, 8, 15, 20):
        a = sum((x**i * y ** (k - i) for i in range(k + 1)), R.zero())
        assert linalg.slot_bits(2, len(S.standard_monomials((2 * k,)))) == 8
        want = reference_coordinates(S, naive_mul(a, a), (2 * k,))
        assert want == ((k + 1) ** 2 % 2,)
        assert S.product_row((a, a), (2 * k,)) == want


def test_coordinates_test_the_off_piece_part_as_a_whole():
    # x*y - z*w lies off S_1 with normal form 0, though neither of its
    # monomials does; x*y alone does not reduce to 0.
    S, (x, y, z, w) = quadric()
    assert reference_coordinates(S, x * y - z * w + x, (1,)) == (1, 0, 0, 0)
    assert S.coordinates(x * y - z * w + x, (1,)) == (1, 0, 0, 0)
    with pytest.raises(ValueError, match="does not lie in the degree-"):
        S.coordinates(x * y + x, (1,))
    with pytest.raises(ValueError, match="does not lie in the degree-"):
        reference_coordinates(S, x * y + x, (1,))


def test_rows_refuse_forms_of_another_ring():
    # A form over F_101 has the same exponent tuples as one over F_32003;
    # the ring is checked before any table lookup.
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    a, b, _, _ = polynomial_ring(101, "x y z w").gens()
    assert S.coordinates(5 * x + y, (1,)) == (5, 1, 0, 0)
    with pytest.raises(RingMismatchError):
        S.coordinates(5 * a + b, (1,))
    with pytest.raises(RingMismatchError):
        S.product_row((x, a), (2,))
    with pytest.raises(RingMismatchError):
        m.contains(a + b)


def test_hsop_quadric_verdicts():
    S, (x, y, z, w) = quadric()
    assert is_hsop(S, (x + y, z, w))
    assert is_hsop(S, (x, y, z + w))
    assert not is_hsop(S, (x, z, w))
    assert not is_hsop(S, (y, z, w))
    assert not is_hsop(S, (z + w, z, w))


def test_hsop_validation():
    S, (x, y, z, w) = quadric()
    with pytest.raises(ValueError, match="needs 3"):
        is_hsop(S, (x, y))
    with pytest.raises(ValueError):
        is_hsop(S, (x + y * z, z, w))
    with pytest.raises(ValueError):
        is_hsop(S, (S.ring.zero(), z, w))


def test_hsop_zero_dimensional_algebra():
    R = polynomial_ring(101, "x")
    x = R.var("x")
    S = standard_graded_algebra(R, (x**2,))
    assert S.dimension() == 0
    assert is_hsop(S, ())


def test_hsop_mixed_degrees():
    # A degree-2 element can complete a system of parameters.
    P, (x, y) = plane()
    assert is_hsop(P, (x, y**2))
    assert not is_hsop(P, (x, x**2))


def test_noether_normalization():
    S, (x, y, z, w) = quadric()
    assert is_noether_normalization(S, (x + y, z, w))
    assert not is_noether_normalization(S, (x, z, w))
    with pytest.raises(ValueError):
        is_noether_normalization(S, (x**2, z, w))
    seg, _ = segre()
    with pytest.raises(ValueError):
        is_noether_normalization(seg, ())


def test_equigenerated_validation():
    S, (x, y, z, w) = quadric()
    with pytest.raises(ValueError):
        equigenerated_ideal(S, (x, x * y))
    with pytest.raises(ValueError):
        equigenerated_ideal(S, (x + x * y,))
    with pytest.raises(ValueError):
        equigenerated_ideal(S, ())
    with pytest.raises(ValueError):
        equigenerated_ideal(S, (S.ring.one(),))
    seg, (x1, _, y1, _) = segre()
    with pytest.raises(ValueError):
        equigenerated_ideal(seg, (x1 * y1,))


def test_ideal_power_and_product_match_enumeration():
    P, (x, y) = plane()
    m = equigenerated_ideal(P, (x, y))
    sq = ideal_power(m, 2)
    assert {str(g) for g in sq.generators} == {"x^2", "x*y", "y^2"}
    assert sq.degree == 2
    two = equigenerated_ideal(P, (x**2, y**2))
    prod = ideal_product(two, sq)
    expected = product_monomials([(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)])
    assert {next(iter(g.terms)) for g in prod.generators} == expected


def test_products_and_powers_are_homogeneous_of_the_summed_degree():
    # ideal_product and ideal_power skip validating what they build; the
    # invariant they rely on is checked here on every generator.
    S, _ = quadric()
    rng = random.Random(17)
    for _ in range(12):
        a = equigenerated_ideal(S, [random_homogeneous(S.ring, rng, rng.randrange(1, 3))])
        d = rng.randrange(1, 3)
        b = equigenerated_ideal(S, [random_homogeneous(S.ring, rng, d) for _ in range(3)])
        n = rng.randrange(1, 4)
        for ideal, degree in (
            (ideal_product(a, b), a.degree + b.degree),
            (ideal_power(b, n), n * b.degree),
            (ideal_product(ideal_power(b, n), a), n * b.degree + a.degree),
        ):
            assert ideal.degree == degree
            assert ideal.generators
            for g in ideal.generators:
                assert not g.is_zero and S.element_degree(g) == (degree,)
            # Rebuilding with validation agrees.
            assert equigenerated_ideal(S, ideal.generators).degree == degree


def test_reduction_power_criterion_yes():
    # (x^2, y^2) reduces (x, y)^2 at power one: frozen by degree-4
    # monomial enumeration.
    P, (x, y) = plane()
    I = ideal_power(equigenerated_ideal(P, (x, y)), 2)
    J = equigenerated_ideal(P, (x**2, y**2))
    left = monomial_ideal_members(
        product_monomials([(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)]), 2, 4
    )
    right = monomial_ideal_members([(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)], 2, 4)
    assert left == right
    verdict = is_reduction(J, I)
    assert verdict.is_yes and verdict.power == 1
    assert least_power(P.ring, (), J.generators, I.generators, 3) == 1


def test_reduction_negative():
    P, (x, y) = plane()
    I = ideal_power(equigenerated_ideal(P, (x, y)), 2)
    J = equigenerated_ideal(P, (x**2,))
    verdict = is_reduction(J, I)
    assert verdict.is_no
    assert fiber_reduction_test(J, I) is None


def test_reduction_containment_enforced():
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x,))
    J = equigenerated_ideal(P, (y,))
    with pytest.raises(ValueError, match="does not lie in the ideal"):
        is_reduction(J, I)


def test_reduction_verdicts_on_degree_mismatch():
    # A candidate above I's degree adds nothing to the fiber ring's
    # degree-one piece, so it is a reduction iff I is nilpotent.
    # (x^2, y^2) inside (x, y): J * I^n starts one degree above I^(n+1).
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x, y))
    J = equigenerated_ideal(P, (x**2, y**2))
    verdict = is_reduction(J, I, n_max=2)
    assert verdict.is_no and verdict.witness == (("fiber", False),)
    assert fiber_reduction_test(J, I) is None
    assert not is_minimal_reduction(J, I, n_max=2)
    # (s*t) inside (s) on the double line: I^2 = (s^2) is already zero.
    R = polynomial_ring(32003, "s t")
    s, t = R.gens()
    D = standard_graded_algebra(R, (s**2,))
    J = equigenerated_ideal(D, (s * t,))
    I = equigenerated_ideal(D, (s,))
    assert is_reduction(J, I).describe() == "yes (power 1)"
    assert least_power(R, (s**2,), J.generators, I.generators, 3) == 1
    with pytest.raises(ValueError, match="does not lie in the ideal"):
        is_reduction(I, equigenerated_ideal(D, (s * t,)))


def test_reduction_transcript():
    P, (x, y) = plane()
    I = ideal_power(equigenerated_ideal(P, (x, y)), 2)
    J = equigenerated_ideal(P, (x**2, y**2))
    verdict = is_reduction(J, I)
    assert verdict.witness == (("fiber", True), ("power", 1, True, None))
    assert verdict.describe() == "yes (power 1)"
    # (x^4, y^4) reduces (x^4, x^3*y, x*y^3, y^4) only at power 2.
    I = equigenerated_ideal(P, (x**4, x**3 * y, x * y**3, y**4))
    J = equigenerated_ideal(P, (x**4, y**4))
    verdict = is_reduction(J, I, n_max=1)
    assert verdict.is_inconclusive and verdict.witness == (("fiber", True),)
    assert verdict.power is None
    with pytest.raises(InconclusiveError):
        is_minimal_reduction(J, I, n_max=1)
    assert is_reduction(J, I).power == fiber_reduction_test(J, I) == 2
    assert least_power(P.ring, (), J.generators, I.generators, 2) == 2


def test_failed_power_certificate_raises(monkeypatch):
    # A power the span check refutes is a library fault, never a "no".
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x**4, x**3 * y, x * y**3, y**4))
    J = equigenerated_ideal(P, (x**4, y**4))
    monkeypatch.setattr("genmat.algebra.fiber_reduction_test", lambda J, I: 1)
    with pytest.raises(RuntimeError, match="names power 1") as raised:
        is_reduction(J, I)
    assert not isinstance(raised.value, InconclusiveError)


def test_analytic_spread():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    assert analytic_spread(m) == 3
    P, (px, py) = plane()
    assert analytic_spread(equigenerated_ideal(P, (px,))) == 1
    assert analytic_spread(ideal_power(equigenerated_ideal(P, (px, py)), 2)) == 2
    assert analytic_spread(equigenerated_ideal(P, (px**2, px * py))) == 2


def test_analytic_spread_beyond_ten_generators():
    # A monomial ideal's spread is the rank of its exponent matrix, here 5.
    R = polynomial_ring(32003, "a b c d e")
    a, b, c, d, e = R.gens()
    gens = (a * a, a * b, a * c, b * b, b * d, c * c, c * e, d * d, d * e, e * e, a * e)
    I = equigenerated_ideal(standard_graded_algebra(R), gens)
    assert analytic_spread(I) == 5
    pres = fiber_algebra(I)
    assert brute_dimension(pres.groebner().leading_monomials(), 11) == 5


def _count_polynomial_entry(monkeypatch) -> Counter:
    """Count ``groebner._Packing.pack`` calls and ``linear_combination``
    calls under every name a genmat module binds it to."""
    calls = Counter()
    pack, combine = groebner._Packing.pack, polyring.linear_combination

    def counted_pack(self, f):
        calls["pack"] += 1
        return pack(self, f)

    def counted_combination(coeffs, basis):
        calls["linear_combination"] += 1
        return combine(coeffs, basis)

    monkeypatch.setattr(groebner._Packing, "pack", counted_pack)
    for name, module in list(sys.modules.items()):
        if name == "genmat" or name.startswith("genmat."):
            for key, value in list(vars(module).items()):
                if value is combine:
                    monkeypatch.setattr(module, key, counted_combination)
    return calls


# Once the presentation memos are warm, a verdict hands the engine its
# relations as the memoized basis's records and its linear forms as
# coordinate rows: nothing is built as a polynomial or packed.


def test_segre_verdict_builds_and_packs_no_polynomial(monkeypatch):
    R = polynomial_ring(32003, "x1 x2 x3 y1 y2 y3")
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3)
    rng = random.Random(29)
    xs, ys = R.gens()[:3], R.gens()[3:]
    warm, rows = (
        tuple(tuple(random_linear_combination(b, rng)[0] for _ in range(5)) for b in (xs, ys))
        for _ in range(2)
    )
    assert is_complete_reduction_ring(S, warm)
    calls = _count_polynomial_entry(monkeypatch)
    assert is_complete_reduction_ring(S, rows)
    assert calls == Counter()


def test_quadric_reduction_builds_and_packs_no_polynomial(monkeypatch):
    ctx = build_context(load_document(Path("instances/quadric.json").read_text()), env={})
    m = ctx.ideals["m"]
    rng = random.Random(29)
    warm, J = (
        equigenerated_ideal(
            ctx.algebra, [random_linear_combination(m.generators, rng)[0] for _ in range(3)]
        )
        for _ in range(2)
    )
    assert is_reduction(warm, m).is_yes
    calls = _count_polynomial_entry(monkeypatch)
    assert is_reduction(J, m).is_yes
    assert calls == Counter()


def test_fiber_test_reads_generator_rows_once(monkeypatch):
    calls = []
    coordinates = GradedAlgebraPresentation.coordinates

    def counted(self, f, target):
        calls.append(f)
        return coordinates(self, f, target)

    monkeypatch.setattr(GradedAlgebraPresentation, "coordinates", counted)
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    assert fiber_reduction_test(equigenerated_ideal(S, (x + y, z, w)), m) == 1
    # Four generator rows of m, then one row per candidate form.
    assert len(calls) == 7


def _coords_cases(p):
    """Ideals over F_p with their rows, forms inside, one form outside and
    the index of a generator lying in the span of the earlier ones:
    dependent generators, a generator of normal form zero, and seeded
    quadrics with a dependent last generator."""
    rng = random.Random(4400 + p)
    R = polynomial_ring(p, "a b c d")
    a, b, c, d = R.gens()
    S = standard_graded_algebra(R)
    Q = standard_graded_algebra(R, (a * b,))
    monomials = [f * g for f in (a, b, c) for g in (a, b, c, d)]
    quads = [random_linear_combination(monomials, rng)[0] for _ in range(3)]
    quads.append(2 * quads[0] - quads[2])
    for pres, gens, outside, dependent in (
        (S, (a, b, a + b, c), d, 2),
        (Q, (a * a, a * b, b * b), c * c, 1),
        (S, tuple(quads), d * d, 3),
    ):
        I = equigenerated_ideal(pres, gens)
        forms = [random_linear_combination(gens, rng)[0] for _ in range(5)]
        rows = [pres.coordinates(g, (I.degree,)) for g in gens]
        yield I, rows, forms, outside, dependent, rng


@pytest.mark.parametrize("p", [5, 101, 32003])
def test_generator_coords_solve_each_form(p):
    for I, rows, forms, outside, dependent, rng in _coords_cases(p):
        got = algebra._generator_coords(I, forms)
        assert got == [linalg.solve_coords(rows, I.algebra.coordinates(f, (I.degree,)), p) for f in forms]
        # Checked apart from linalg: each answer combines the generators to
        # its form modulo the relations, and the generator that depends on
        # earlier ones gets 0, which with the others independent pins it.
        for c, f in zip(got, forms):
            assert ideal_membership(linear_combination(c, I.generators) - f, I.algebra.relations)
            assert c[dependent] == 0
        k = rng.randrange(len(forms) + 1)
        with pytest.raises(OutsideIdealError, match=f"generator {k} of"):
            algebra._generator_coords(I, forms[:k] + [outside] + forms[k:])


def test_degree_delta_piece_is_echelonized_once_per_ideal(monkeypatch):
    calls = []
    row_echelon = linalg.row_echelon

    def counted(rows, p, width=None):
        calls.append(p)
        return row_echelon(rows, p, width)

    monkeypatch.setattr(linalg, "row_echelon", counted)
    S, (x, y, z, w) = quadric()
    I = equigenerated_ideal(S, (x + y, z, w))
    for _ in range(4):
        assert algebra._generator_coords(I, (x + y - z, w)) == [(1, 32002, 0), (0, 0, 1)]
        assert I.contains(z + 3 * w) and not I.contains(x)
    # An ideal rebuilt on the same generators reads the same solver.
    assert equigenerated_ideal(S, I.generators).contains(y + x)
    assert len(calls) == 1


def _counted_rows(monkeypatch):
    # The certificate reads packed rows; product_row is their tuple face.
    # Each product is counted as its row is pulled.
    calls = []
    packed_rows = GradedAlgebraPresentation.packed_rows

    def counted(self, products, target):
        def pulled():
            for factors in products:
                calls.append(tuple(factors))
                yield factors

        return packed_rows(self, pulled(), target)

    monkeypatch.setattr(GradedAlgebraPresentation, "packed_rows", counted)
    return calls


def test_certificate_stops_once_the_span_fills_the_piece(monkeypatch):
    # J * m spans all of S_2 on the quadric, so every generator of m^2
    # lies in it and none of their rows is built.
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    J = equigenerated_ideal(S, (x + y, z, w))
    pairs = [(a, b) for a in J.generators for b in m.generators]
    forms = ideal_power(m, 2).generators
    calls = _counted_rows(monkeypatch)
    assert algebra._first_outside(S, J.generators, m.generators, forms, (2,)) is None
    assert len(calls) < len(pairs) + len(forms)
    # The rows read are a prefix of the products, in order, none built.
    assert len(S.standard_monomials((2,))) <= len(calls) <= len(pairs)
    assert all(c[0] is a and c[1] is b for c, (a, b) in zip(calls, pairs))


def test_certificate_failure_matches_power_oracle():
    # Rank-deficient spans: the first failing form is the oracle's.
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x**4, x**3 * y, x * y**3, y**4))
    J = equigenerated_ideal(P, (x**4, y**4))
    failing = algebra._first_outside(
        P, J.generators, I.generators, ideal_power(I, 2).generators, (8,)
    )
    assert failing is not None
    assert str(failing) == power_failure(P.ring, (), J.generators, I.generators, 1)
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    rng = random.Random(4242)
    for _ in range(3):
        J = equigenerated_ideal(
            S, [random_linear_combination((x, y, z, w), rng)[0] for _ in range(2)]
        )
        for n in (1, 2):
            failing = algebra._first_outside(
                S,
                J.generators,
                ideal_power(m, n).generators,
                ideal_power(m, n + 1).generators,
                (n + 1,),
            )
            want = power_failure(S.ring, S.relations.generators, J.generators, m.generators, n)
            assert want is not None and str(failing) == want


def test_certificate_checks_forms_when_the_span_fills_the_piece():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    J = equigenerated_ideal(S, (x + y, z, w))
    # A form whose normal form lies in S_2 is in J * m there.
    forms = (x * y, x * y - z * w + z**2)
    assert algebra._first_outside(S, J.generators, m.generators, forms, (2,)) is None


def test_fiber_algebra_of_maximal_ideal():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    pres = fiber_algebra(m)
    T = pres.ring
    T1, T2, T3, T4 = T.gens()
    assert ideal_equal(pres.relations, IdealSpec(T, (T1 * T2 - T3 * T4,)))
    img = fiber_image(m, x + 5 * z)
    assert img == T1 + 5 * T3


def test_minimal_reduction_quadric_family():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    assert is_minimal_reduction(equigenerated_ideal(S, (x + y, z, w)), m)
    assert is_minimal_reduction(equigenerated_ideal(S, (x, y, z + w)), m)
    assert not is_minimal_reduction(equigenerated_ideal(S, (x, z, w)), m)
    assert not is_minimal_reduction(equigenerated_ideal(S, (y, z, w)), m)
    assert not is_minimal_reduction(equigenerated_ideal(S, (z + w, z, w)), m)


def test_minimal_reduction_counts_and_independence():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    # Four independent generators: right ideal, wrong count.
    assert not is_minimal_reduction(m, m)
    # Dependent triple with the right count.
    assert not is_minimal_reduction(
        equigenerated_ideal(S, (x + y, z, x + y + z)), m
    )
    P, (px, py) = plane()
    sq = ideal_power(equigenerated_ideal(P, (px, py)), 2)
    assert is_minimal_reduction(equigenerated_ideal(P, (px**2, py**2)), sq)
    assert is_minimal_reduction(equigenerated_ideal(P, (px**2 + py**2, px * py)), sq)
    assert not is_minimal_reduction(equigenerated_ideal(P, (px**2, 3 * px**2)), sq)


def _minimal_with_rank_check(J, I):
    """The definition that also asked J's coordinate rows to be linearly
    independent before the reduction verdict."""
    if len(J.generators) != analytic_spread(I):
        return False
    rows = [J.algebra.coordinates(g, (J.degree,)) for g in J.generators]
    return linalg.independent(rows, J.algebra.ring.field.p) and is_reduction(J, I).is_yes


@pytest.mark.parametrize("p", (5, 7, 101))
def test_minimality_needs_no_rank_check(p):
    # A reduction on analytic-spread-many generators is minimally
    # generated, so dropping the rank check changes no verdict on
    # candidates inside I.  A third of them are dependent, and a third
    # are drawn from the span of only the first generators, which is
    # often too small to reduce I.
    rng = random.Random(f"minimal/{p}")
    R = polynomial_ring(p, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    P = standard_graded_algebra(polynomial_ring(p, "a b c"))
    ideals = (
        equigenerated_ideal(S, (x, y, z, w)),
        equigenerated_ideal(S, (x * z, y * w, x * x)),
        ideal_power(equigenerated_ideal(P, P.ring.gens()), 2),
    )
    seen = set()
    for I in ideals:
        gens, spread = I.generators, analytic_spread(I)
        for trial in range(30):
            pool = gens[:spread] if trial % 3 == 1 else gens
            combos = []
            while len(combos) < spread:
                if trial % 3 == 0 and len(combos) == spread - 1 and spread > 1:
                    f = linear_combination([rng.randrange(p) for _ in combos], combos)
                else:
                    f = random_linear_combination(pool, rng)[0]
                if not f.is_zero:
                    combos.append(f)
            J = equigenerated_ideal(I.algebra, combos)
            rows = [J.algebra.coordinates(g, (J.degree,)) for g in combos]
            independent = linalg.independent(rows, p)
            verdict = is_minimal_reduction(J, I)
            assert verdict == _minimal_with_rank_check(J, I)
            seen.add((independent, verdict))
    assert seen == {(True, True), (True, False), (False, False)}


def test_minimal_reduction_agrees_with_fiber_hsop():
    # Minimal reductions of m correspond to parameter systems of the
    # fiber algebra through the generator images.
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    pres = fiber_algebra(m)
    for gens in [(x + y, z, w), (x, y, z + w), (x, z, w), (y, z, w), (z + w, z, w)]:
        J = equigenerated_ideal(S, gens)
        images = [fiber_image(m, g) for g in J.generators]
        assert is_minimal_reduction(J, m) == is_hsop(pres, images)


def test_diagonal_subring_segre():
    S, _ = segre()
    D = diagonal_subring(S)
    # Variable i maps to the i-th standard monomial of the (1, 1) piece.
    mons = S.standard_monomials((1, 1))
    assert [str(g) for g in mons] == ["x1*y1", "x1*y2", "x2*y1", "x2*y2"]
    u1, u2, u3, u4 = D.ring.gens()
    assert ideal_equal(D.relations, IdealSpec(D.ring, (u1 * u4 - u2 * u3,)))
    assert D.dimension() == 3
    # Same object on repeated calls: the presentation is memoized.
    assert diagonal_subring(S) is D


def test_diagonal_subring_trivial_grading():
    P, (x, y) = plane()
    D = diagonal_subring(P)
    assert [str(g) for g in P.standard_monomials((1,))] == ["x", "y"]
    assert D.relations.generators == ()
    assert D.dimension() == 2


def test_diagonal_subring_beyond_ten_generators():
    # P^2 x P^3: the Segre ring of 12 monomials has dimension 2 + 3 + 1.
    R = polynomial_ring(32003, "x0 x1 x2 y0 y1 y2 y3")
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 4)
    pres = diagonal_subring(S)
    assert pres.ring.nvars == 12
    assert pres.dimension() == 6
    assert brute_dimension(pres.groebner().leading_monomials(), 12) == 6


def _dimension_and_multiplicity(numerator, nvars):
    """Read off N(t) through its derivatives at t = 1: the codimension c
    is the order of the root, and e = (-1)^c N^(c)(1) / c!."""

    def derivative(c):  # N^(c)(1) / c!
        return sum(comb(k, c) * a for k, a in enumerate(numerator))

    c = 0
    while not derivative(c):
        c += 1
    return nvars - c, (-1) ** c * derivative(c)


def test_multiplicity_matches_closed_forms():
    # Segre diagonal of P^a x P^b x ...: dimension a + b + ... + 1 and
    # multiplicity the multinomial (a + b + ...)! / (a! b! ...).
    blocks_dim_e = (((3, 3), 7, 20), ((1, 1, 1, 1), 5, 24), ((4, 4), 9, 70), ((2, 2, 2), 7, 90))
    for blocks, dim, e in blocks_dim_e:
        names, degrees = [], []
        for b, size in enumerate(blocks):
            names += [f"x{b}_{i}" for i in range(size + 1)]
            degrees += [tuple(int(j == b) for j in range(len(blocks)))] * (size + 1)
        S = graded_algebra(polynomial_ring(32003, names), degrees)
        pres = diagonal_subring(S)
        numerator = hilbert_numerator(pres.groebner())
        assert _dimension_and_multiplicity(numerator, pres.ring.nvars) == (dim, e)
        assert pres.dimension() == dim
    # The fiber ring of m^k on the quadric is its k-th Veronese: 2k^2.
    S, gens = quadric()
    m = equigenerated_ideal(S, gens)
    for k in (1, 2, 3, 4):
        pres = fiber_algebra(ideal_power(m, k))
        numerator = hilbert_numerator(pres.groebner())
        assert _dimension_and_multiplicity(numerator, pres.ring.nvars) == (3, 2 * k * k)
        assert pres.dimension() == 3


def test_complete_reduction_ring_segre():
    S, (x1, x2, y1, y2) = segre()
    good = ((x1, x2, x1 + x2), (y1, y2, y1 + y2))
    assert is_complete_reduction_ring(S, good)
    crossed = ((x1, x2, x1 + x2), (y2, y1, y1 + y2))
    assert is_complete_reduction_ring(S, crossed)
    repeated = ((x1, x2, x1), (y1, y2, y1))
    assert not is_complete_reduction_ring(S, repeated)


def test_complete_reduction_ring_validation():
    S, (x1, x2, y1, y2) = segre()
    with pytest.raises(ValueError, match="rows"):
        is_complete_reduction_ring(S, ((x1, x2, x1 + x2),))
    with pytest.raises(ValueError, match="columns"):
        is_complete_reduction_ring(S, ((x1, x2), (y1, y2)))
    with pytest.raises(ValueError, match=r"\(1,0\)"):
        is_complete_reduction_ring(S, ((x1, x2, x1), (x1, y2, y1)))


def test_column_products_enter_as_factor_rows(monkeypatch):
    # A column's row in the (1,..,1) piece, read from its factors, is the
    # row of the built product; the ring verdict builds no product.
    R = polynomial_ring(32003, "x1 x2 x3 y1 y2 y3 z1 z2")
    S = graded_algebra(R, [(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 2)
    rng, units = random.Random(300), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(20):
        col = tuple(_random_form(S, rng, u, terms=3) for u in units)
        assert S.product_row(col, (1, 1, 1)) == S.coordinates(col[0] * col[1] * col[2], (1, 1, 1))
    seg, (x1, x2, y1, y2) = segre()
    calls = []
    coordinates = GradedAlgebraPresentation.coordinates
    monkeypatch.setattr(
        GradedAlgebraPresentation,
        "coordinates",
        lambda self, f, target: calls.append(f) or coordinates(self, f, target),
    )
    assert is_complete_reduction_ring(seg, ((x1, x2, x1 + x2), (y1, y2, y1 + y2)))
    assert calls == []


def test_complete_reduction_ring_collapses_to_hsop():
    # One grading component: columns are single elements and the test
    # is exactly the parameter-system test.
    S, (x, y, z, w) = quadric()
    assert is_complete_reduction_ring(S, ((x + y, z, w),))
    assert is_complete_reduction_ring(S, ((x, y, z + w),))
    assert not is_complete_reduction_ring(S, ((x, z, w),))


def test_complete_reduction_ideals_two_by_two():
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x, y))
    verdict = is_complete_reduction_ideals((I, I), ((x, y), (x, y)))
    assert verdict.is_yes and verdict.power == 1
    bad = is_complete_reduction_ideals((I, I), ((x, y), (x, x)))
    assert not bad.is_yes


def test_complete_reduction_ideals_validation():
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x, y))
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        is_complete_reduction_ideals((I, I), ((x, y), (y, x**2)))
    J = equigenerated_ideal(P, (x,))
    with pytest.raises(ValueError, match=r"\(1,0\) does not lie in ideal 1"):
        is_complete_reduction_ideals((I, J), ((x, y), (y, x)))
    with pytest.raises(ValueError, match="columns"):
        is_complete_reduction_ideals((I, I), ((x,), (y,)))


def test_zero_width_matrices_are_counted_not_indexed():
    # No column is a wrong count for an ideal of positive spread, and
    # the complete reduction of a nilpotent ideal, whose spread is 0.
    P, (x, y) = plane()
    with pytest.raises(ValueError, match="needs 2 columns, got 0"):
        is_complete_reduction_ideals([equigenerated_ideal(P, (x, y))], [[]])
    N = standard_graded_algebra(P.ring, (x * x, x * y, y * y))
    I = equigenerated_ideal(N, (x, y))
    assert analytic_spread(I) == 0
    assert is_complete_reduction_ideals([I], [[]]).power == 1
    assert lemma_correspondence_check([I], [[]]) is True


def test_correspondence_two_by_two():
    P, (x, y) = plane()
    I = equigenerated_ideal(P, (x, y))
    assert lemma_correspondence_check((I, I), ((x, y), (x, y))) is True
    assert lemma_correspondence_check((I, I), ((x, y), (x, x))) is True


def test_correspondence_single_ideal_family():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    for gens in [(x + y, z, w), (x, y, z + w), (x, z, w), (y, z, w), (z + w, z, w)]:
        assert lemma_correspondence_check((m,), (gens,)) is True


def test_correspondence_is_none_when_the_ideal_side_is_open():
    # (x^3, y^3) reduces (x^3, y^3, x*y^2) only at power 2, so with a
    # bound of 1 there is no ideal verdict to compare the ring's with.
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    m = equigenerated_ideal(standard_graded_algebra(R), (x**3, y**3, x * y**2))
    assert lemma_correspondence_check((m,), [[x**3, y**3]], n_max=1) is None
    assert lemma_correspondence_check((m,), [[x**3, y**3]], n_max=2) is True


def test_multigraded_fiber_names_avoid_ring_variables():
    R = polynomial_ring(32003, "T1_1 T1_2")
    a, b = R.gens()
    I = equigenerated_ideal(standard_graded_algebra(R), (a, b))
    assert lemma_correspondence_check((I, I), ((a, b), (a, b))) is True
    pres = multigraded_fiber_algebra((I, I))
    assert not set(pres.ring.names) & set(R.names)
    assert pres.degrees == ((1, 0), (1, 0), (0, 1), (0, 1))


def test_correspondence_reads_the_matrix_once():
    # Both sides judge one matrix, so rows given as one-pass iterators
    # answer as the list form does.
    R = polynomial_ring(32003, "a b")
    a, b = R.gens()
    I = equigenerated_ideal(standard_graded_algebra(R), (a, b))
    rows = [[a + b, a - b], [a, b]]
    assert lemma_correspondence_check((I, I), rows) is True
    assert lemma_correspondence_check((I, I), (row for row in rows)) is True
    assert lemma_correspondence_check((I, I), [iter(row) for row in rows]) is True


def test_multigraded_fiber_refuses_empty_and_mixed_tuples():
    R = polynomial_ring(32003, "a b")
    a, b = R.gens()
    I = equigenerated_ideal(standard_graded_algebra(R), (a, b))
    Q = equigenerated_ideal(standard_graded_algebra(R, (a * a,)), (a, b))
    with pytest.raises(ValueError, match="at least one ideal"):
        multigraded_fiber_algebra(())
    # Presenting the pair over R alone would drop the relation a^2.
    with pytest.raises(ValueError, match="different algebras"):
        multigraded_fiber_algebra((I, Q))
    # An equal presentation built twice is one algebra.
    twin = equigenerated_ideal(standard_graded_algebra(R), (a, b))
    assert multigraded_fiber_algebra((I, twin)).dimension() == 3


def _bad_ideal_tuples():
    R = polynomial_ring(32003, "a b")
    a, b = R.gens()
    I = equigenerated_ideal(standard_graded_algebra(R), (a, b))
    Q = equigenerated_ideal(standard_graded_algebra(R, (a * a,)), (a, b))
    return {
        "empty": (),
        "polynomial-first": (a, I),
        "polynomial-second": (I, a),
        "two-algebras": (I, Q),
        "bare-ideal": I,
    }


# Each entry point reads its ideals as one tuple; the pair functions
# take exactly two, so they have no empty or bare-ideal case.  The
# matrix entry points get a zero-width matrix, which only the ideal
# check refuses, and the refusal must be the ideal check's own.
TUPLE_ENTRY_POINTS = {
    "ideal_product": lambda t: ideal_product(*t),
    "is_reduction": lambda t: is_reduction(*t),
    "is_minimal_reduction": lambda t: is_minimal_reduction(*t),
    "is_complete_reduction_ideals": lambda t: is_complete_reduction_ideals(t, [[], []]),
    "multigraded_fiber_algebra": multigraded_fiber_algebra,
    "lemma_correspondence_check": lambda t: lemma_correspondence_check(t, [[], []]),
    "complete_reduction_instance": complete_reduction_instance,
}
IDEAL_TUPLE_REFUSALS = "tuple of ideals|at least one ideal|expected an EquigeneratedIdeal|different algebras"
PAIR_ENTRY_POINTS = {"ideal_product", "is_reduction", "is_minimal_reduction"}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in TUPLE_ENTRY_POINTS
        for bad in _bad_ideal_tuples()
        if not (bad in ("empty", "bare-ideal") and entry in PAIR_ENTRY_POINTS)
    ],
)
def test_every_ideal_tuple_entry_point_refuses_bad_tuples(entry, bad):
    with pytest.raises(ValueError, match=IDEAL_TUPLE_REFUSALS):
        TUPLE_ENTRY_POINTS[entry](_bad_ideal_tuples()[bad])


def _maps_back(pres, targets, relations, pairs):
    """Variable i of ``pres`` maps to targets[i]: every (form, image)
    pair and every relation of ``pres`` survive the substitution,
    compared modulo ``relations`` by the oracles' own division."""
    R = targets[0].ring
    for g in pres.relations.generators:
        assert ideal_membership(substitute(g, targets, R), relations)
    for f, image in pairs:
        assert ideal_membership(substitute(image, targets, R) - f, relations)


def test_embeddings_map_back_to_their_forms():
    rng = random.Random(1717)
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    # Fiber rings: f in I_delta enters as its generator coordinates.
    for I in (m, ideal_power(m, 2)):
        pres = fiber_algebra(I)
        forms = [random_linear_combination(I.generators, rng)[0] for _ in range(4)]
        images = [
            linear_combination(c, pres.ring.gens())
            for c in algebra._generator_coords(I, forms)
        ]
        _maps_back(pres, I.generators, S.relations, zip(forms, images))
    # The diagonal of the incidence variety in P^2 x P^2: f in S_(1,1)
    # is a product whose normal form the relation rewrites.
    R = polynomial_ring(32003, "x0 x1 x2 y0 y1 y2")
    xs, ys = R.gens()[:3], R.gens()[3:]
    inc = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3, (sum(a * b for a, b in zip(xs, ys)),))
    D = diagonal_subring(inc)
    forms = [
        random_linear_combination(xs, rng)[0] * random_linear_combination(ys, rng)[0]
        for _ in range(4)
    ]
    images = [linear_combination(inc.coordinates(f, (1, 1)), D.ring.gens()) for f in forms]
    _maps_back(D, inc.standard_monomials((1, 1)), inc.relations, zip(forms, images))
    # The multigraded fiber ring of (m, (x, z)): a row entry of I_i enters
    # as a form in I_i's block, the variables of degree e_i; with the
    # markers t_i set to 1, block i maps to I_i's generators.
    ideals = (m, equigenerated_ideal(S, (x, z)))
    pres = multigraded_fiber_algebra(ideals)
    T = pres.ring.gens()
    pairs = []
    for i, I in enumerate(ideals):
        block = [v for v, d in zip(T, pres.degrees) if d[i]]
        forms = [random_linear_combination(I.generators, rng)[0] for _ in range(3)]
        for f, c in zip(forms, algebra._generator_coords(I, forms)):
            pairs.append((f, linear_combination(c, block)))
    targets = [g for I in ideals for g in I.generators]
    _maps_back(pres, targets, S.relations, pairs)


# Frozen subalgebra presentations: names, grading and reduced relations,
# in order.  Any change in what kernel_of_map is handed (names, target
# order, relations) shows here before it shows in a benchmark.
GOLDEN_PRESENTATIONS = {
    "fiber m": ("T", ((1,),) * 4, "T1*T2 - T3*T4"),
    "fiber m^2": (
        "T",
        ((1,),) * 10,
        "T3^2 - T1*T8, T3*T4 - T1*T9, T4^2 - T1*T10, T1*T5 - T8*T10, "
        "T3*T5 - T6*T9, T4*T5 - T6*T10, T1*T6 - T3*T9, T3*T6 - T8*T9, "
        "T4*T6 - T8*T10, T6^2 - T5*T8, T1*T7 - T3*T10, T3*T7 - T8*T10, "
        "T4*T7 - T9*T10, T6*T7 - T5*T9, T7^2 - T5*T10, T4*T8 - T3*T9, "
        "T7*T8 - T6*T9, T4*T9 - T3*T10, T7*T9 - T6*T10, T9^2 - T8*T10, T2 - T9",
    ),
    "diagonal P2xP2": (
        "u",
        ((1,),) * 9,
        "u2*u4 - u1*u5, u3*u4 - u1*u6, u3*u5 - u2*u6, u2*u7 - u1*u8, "
        "u3*u7 - u1*u9, u5*u7 - u4*u8, u6*u7 - u4*u9, u3*u8 - u2*u9, u6*u8 - u5*u9",
    ),
    "diagonal P2xP3": (
        "u",
        ((1,),) * 12,
        "u2*u5 - u1*u6, u3*u5 - u1*u7, u4*u5 - u1*u8, u3*u6 - u2*u7, "
        "u4*u6 - u2*u8, u4*u7 - u3*u8, u2*u9 - u1*u10, u3*u9 - u1*u11, "
        "u4*u9 - u1*u12, u6*u9 - u5*u10, u7*u9 - u5*u11, u8*u9 - u5*u12, "
        "u3*u10 - u2*u11, u4*u10 - u2*u12, u7*u10 - u6*u11, u8*u10 - u6*u12, "
        "u4*u11 - u3*u12, u8*u11 - u7*u12",
    ),
    "multigraded fiber (m, m) on P1": (
        "T",
        ((1, 0), (1, 0), (0, 1), (0, 1)),
        "T2*T3 - T1*T4",
    ),
}


def test_subalgebra_presentations_are_golden():
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))

    def product_space(sizes):
        names = [f"{'xy'[b]}{i}" for b, size in enumerate(sizes) for i in range(size)]
        degrees = [(1, 0)] * sizes[0] + [(0, 1)] * sizes[1]
        return graded_algebra(polynomial_ring(32003, names), degrees)

    P, (u, v) = plane()
    line = equigenerated_ideal(P, (u, v))
    built = {
        "fiber m": fiber_algebra(m),
        "fiber m^2": fiber_algebra(ideal_power(m, 2)),
        "diagonal P2xP2": diagonal_subring(product_space((3, 3))),
        "diagonal P2xP3": diagonal_subring(product_space((3, 4))),
        "multigraded fiber (m, m) on P1": multigraded_fiber_algebra((line, line)),
    }
    for label, (prefix, degrees, relations) in GOLDEN_PRESENTATIONS.items():
        pres = built[label]
        names = tuple(f"{prefix}{i + 1}" for i in range(len(degrees)))
        assert (pres.ring.names, pres.degrees) == (names, degrees), label
        assert ", ".join(map(str, pres.relations.generators)) == relations, label


def test_presentations_reuse_their_kernel_basis(monkeypatch):
    S, (x, y, z, w) = quadric()
    P, (u, v) = plane()
    I = equigenerated_ideal(P, (u, v))
    R = polynomial_ring(32003, "x0 x1 x2 y0 y1 y2")
    P2P2 = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3)
    presentations = [
        fiber_algebra(equigenerated_ideal(S, (x, y, z, w))),
        fiber_algebra(ideal_power(I, 2)),
        diagonal_subring(P2P2),
        multigraded_fiber_algebra((I, I)),
    ]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr("genmat.algebra.buchberger", counting)
    assert [pres.dimension() for pres in presentations] == [3, 2, 5, 3]
    assert calls == []
    # The kernel's basis is already the reduced grevlex basis.
    for pres in presentations:
        gb = pres.groebner()
        assert gb.basis == buchberger(IdealSpec(pres.ring, gb.basis)).basis
    assert calls == []


def test_verdicts_stable_under_generator_permutation_and_scaling():
    S, (x, y, z, w) = quadric()
    rng = random.Random(606)
    m = equigenerated_ideal(S, (x, y, z, w))
    base = [x + y, z, w]
    for _ in range(5):
        shuffled = list(base)
        rng.shuffle(shuffled)
        scaled = [g * rng.randrange(1, 32003) for g in shuffled]
        J = equigenerated_ideal(S, tuple(scaled))
        assert is_minimal_reduction(J, m)
        assert is_hsop(S, tuple(scaled))


def test_random_equigenerated_reduction_consistency():
    # The fiber ring's least power agrees with a plain power loop over
    # Groebner membership on random same-degree candidates.
    rng = random.Random(909)
    P, (x, y) = plane()
    I = ideal_power(equigenerated_ideal(P, (x, y)), 2)
    conclusive = 0
    for _ in range(12):
        g1 = random_homogeneous(P.ring, rng, 2)
        g2 = random_homogeneous(P.ring, rng, 2)
        try:
            J = equigenerated_ideal(P, (g1, g2))
        except ValueError:
            continue
        power = least_power(P.ring, (), J.generators, I.generators, 3)
        fib = fiber_reduction_test(J, I)
        assert power == (fib if fib is not None and fib <= 3 else None)
        assert is_reduction(J, I, n_max=3).power == power
        if power is not None:
            conclusive += 1
    assert conclusive >= 5


def test_fresh_names_outlast_clashing_prefixes():
    R = polynomial_ring(32003, "T1 TT1 Tv1")
    I = equigenerated_ideal(standard_graded_algebra(R), R.gens())
    assert analytic_spread(I) == 3
    R = polynomial_ring(32003, "u1 uu1 uv1")
    S = graded_algebra(R, ((1, 0), (1, 0), (0, 1)))
    assert diagonal_subring(S).dimension() == 2


def test_presentation_memo_stays_bounded_over_fresh_candidates():
    # The memo holds only data fixed by the presentation and its ideals;
    # a warm-up reaches the one power the candidates can (1 here), after
    # which fresh candidates add nothing.
    S, (x, y, z, w) = quadric()
    m = equigenerated_ideal(S, (x, y, z, w))
    rng = random.Random(77)

    def fresh():
        return tuple(random_linear_combination((x, y, z, w), rng)[0] for _ in range(3))

    def minred(gens):
        return is_minimal_reduction(equigenerated_ideal(S, gens), m, n_max=2)

    warm = (x + y, z, w)
    assert is_reduction(equigenerated_ideal(S, warm), m, n_max=2).power == 1
    assert least_power(S.ring, S.relations.generators, warm, m.generators, 2) == 1
    minred(fresh())
    is_hsop(S, fresh())
    size = len(S._cache)

    def row_tables():
        # Each piece's row table holds at most the monomials of its degree,
        # each row packed in the piece's slots.
        out = {}
        for key, value in S._cache.items():
            if key[0] == "std":
                d = key[1][0]
                basis, table = value
                bits = linalg.slot_bits(S.ring.field.p, len(basis))
                assert len(table) <= comb(d + S.ring.nvars - 1, d)
                assert all(0 <= row < 1 << bits * len(basis) for row in table.values())
                out[d] = len(table)
        return out

    tables = row_tables()
    verdicts = [minred(fresh()) for _ in range(50)] + [is_hsop(S, fresh()) for _ in range(50)]
    assert len(S._cache) == size
    assert row_tables() == tables
    assert sum(verdicts) >= 50
