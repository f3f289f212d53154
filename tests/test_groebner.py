"""Groebner engine and the decision procedures on top of it."""

import hashlib
import random
from collections import Counter
from functools import partial
from math import comb

import pytest

from genmat import algebra, groebner
from genmat.algebra import (
    analytic_spread,
    diagonal_subring,
    equigenerated_ideal,
    fiber_algebra,
    graded_algebra,
    is_complete_reduction_ring,
    standard_graded_algebra,
)
from genmat.groebner import (
    GroebnerBasis,
    IdealSpec,
    buchberger,
    hilbert_numerator,
    is_zero_dimensional,
    kernel_of_map,
    krull_dimension,
    normal_form,
    top_degree,
)
from genmat.polyring import (
    GREVLEX,
    LEX,
    Polynomial,
    PolyRing,
    PrimeField,
    RingMismatchError,
    elimination_order,
    linear_combination,
    polynomial_ring,
)

from oracles import (
    brute_dimension,
    divide,
    ideal_equal,
    ideal_membership,
    leading_term,
    monomial_ideal_members,
    monomials_of_degree,
    naive_buchberger,
    order_key,
    product_monomials,
    random_homogeneous,
    random_poly,
    spolynomial,
    substitute,
    verify_groebner,
)


def quadric_ring():
    return polynomial_ring(32003, "x y z w")


def test_ideal_spec_drops_zero_generators():
    R = quadric_ring()
    x = R.var("x")
    I = IdealSpec(R, (x, R.zero(), x))
    assert all(not g.is_zero for g in I.generators)


def test_known_reduced_basis():
    # Frozen via the criteria-free completion oracle below.
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    gb = buchberger(IdealSpec(R, (x**2, x * y + y**2)))
    assert set(gb.basis) == {x**2, x * y + y**2, y**3}
    assert verify_groebner(gb)


def test_empty_and_unit_ideals():
    R = quadric_ring()
    assert buchberger(IdealSpec(R, ())).basis == ()
    gb = buchberger(IdealSpec(R, (R.const(5),)))
    assert gb.basis == (R.one(),)


def test_matches_naive_completion_on_random_ideals():
    rng = random.Random(4242)
    for trial in range(12):
        nvars = rng.randrange(2, 4)
        R = polynomial_ring(101, [f"x{i}" for i in range(nvars)])
        gens = tuple(
            random_poly(R, rng, max_degree=2, terms=3) for _ in range(rng.randrange(2, 4))
        )
        order = (GREVLEX, LEX, elimination_order(1))[trial % 3]
        gb = buchberger(IdealSpec(R, gens), order)
        assert set(gb.basis) == naive_buchberger(R, gens, order)
        assert verify_groebner(gb)


def _random_monomial(rng, nvars, degree):
    mon = [0] * nvars
    for _ in range(degree):
        mon[rng.randrange(nvars)] += 1
    return tuple(mon)


def _with_lead(R, rng, order, lead):
    """The monomial ``lead`` plus random terms of its degree below it."""
    top = order_key(order, lead)
    tail = [_random_monomial(rng, R.nvars, sum(lead)) for _ in range(3)]
    below = {m: rng.randrange(1, R.field.p) for m in tail if order_key(order, m) < top}
    return R.monomial(lead) + Polynomial(R, below)


def _pair_update_inputs(R, rng, order, kind):
    n, p = R.nvars, R.field.p
    if kind == "monomial-binomial":  # many equal lcms and coprime ties
        pool = [_random_monomial(rng, n, rng.randrange(1, 4)) for _ in range(4)]
        gens = [R.monomial(rng.choice(pool)) for _ in range(4)]
        return [g - R.monomial(rng.choice(pool), rng.randrange(p)) for g in gens]
    lead = _random_monomial(rng, n, rng.randrange(2, 4))
    if kind == "dividing-leads":  # one leading monomial divides others
        multiples = [tuple(e + rng.randrange(0, 2) for e in lead) for _ in range(2)]
        return [_with_lead(R, rng, order, m) for m in [*multiples, lead]]
    if kind == "shared-lead":  # same leading monomial, different tails
        return [_with_lead(R, rng, order, lead) for _ in range(3)]
    gens = [random_homogeneous(R, rng, rng.randrange(1, 4), terms=3) for _ in range(3)]
    return gens + [gens[0], gens[1], gens[1] * R.const(rng.randrange(2, p))]


@pytest.mark.parametrize("p", (5, 101, 32003))
@pytest.mark.parametrize(
    "kind", ("monomial-binomial", "dividing-leads", "shared-lead", "duplicates")
)
def test_pair_update_edge_cases_match_naive_completion(p, kind):
    # Equal lcms, coprime ties, dividing and shared leading monomials and
    # duplicate generators are where the Gebauer-Moeller criteria and the
    # active set decide what to drop; the oracle drops nothing.
    rng = random.Random(f"{kind}/{p}")
    for trial in range(12):
        nvars = rng.randrange(2, 4)
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        order = (GREVLEX, LEX, elimination_order(1))[trial % 3]
        gens = tuple(_pair_update_inputs(R, rng, order, kind))
        gb = buchberger(IdealSpec(R, gens), order)
        assert set(gb.basis) == naive_buchberger(R, gens, order)
        assert verify_groebner(gb)


def _count_runs(monkeypatch):
    """Record every run of the engine loop, whoever starts it: the
    records it yielded, then None if it ran to its end."""
    runs = []
    completion = groebner._completion

    def counted(*args):
        joined = []
        runs.append(joined)
        loop = completion(*args)
        while True:
            try:
                record = next(loop)
            except StopIteration as done:
                joined.append(None)
                return done.value
            joined.append(record)
            yield record

    monkeypatch.setattr(groebner, "_completion", counted)
    return runs


def _segre_columns(R, rows_x=None):
    """Five seeded columns (w.x, w.y) on P^2 x P^2; ``rows_x`` replaces
    the x-row."""
    rng = random.Random(2)
    weights = [[rng.randrange(1, 32003) for _ in range(3)] for _ in range(5)]
    xs, ys = R.gens()[:3], R.gens()[3:]
    rows = tuple(
        tuple(sum((c * v for c, v in zip(w, block)), R.zero()) for w in weights)
        for block in (xs, ys)
    )
    return rows if rows_x is None else (tuple(rows_x), rows[1])


def _diagonal_images(S, rows):
    """The column products as linear forms of S's diagonal presentation."""
    u = diagonal_subring(S).ring.gens()
    products = algebra._column_products(rows)
    return [linear_combination(S.coordinates(x, (1, 1)), u) for x in products]


def test_pair_update_prunes_the_complete_reduction_ideal(monkeypatch):
    # The ideal of one complete-reduction verdict on the P^2 x P^2
    # diagonal: the 9 relations of the diagonal ring and 5 column
    # products, 14 generators in 9 variables.  Without the
    # Gebauer-Moeller update (coprime pairs and the chain criterion
    # checked at pop) Buchberger reduced 68 S-polynomials for its full
    # basis, and 40 while every generator joined unreduced before the
    # first pair; with the linear column products settled and
    # substituted out of the relations first, 20 remain.  The verdict
    # itself stops at the last pure power, after 1.  Each element is
    # yielded before its pair update, so the full basis updates once per
    # element that joins the loop (the 5 settled rows never do), and the
    # verdict skips the update of the element it stops on.
    R = polynomial_ring(32003, "x1 x2 x3 y1 y2 y3")
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3)
    diag = diagonal_subring(S)  # memoized: its kernel is not counted
    rows = _segre_columns(R)
    forms = _diagonal_images(S, rows)
    runs, spairs, updated = _count_runs(monkeypatch), [], []
    spair, update = groebner._spair, groebner._update
    monkeypatch.setattr(groebner, "_spair", lambda *a: spairs.append(a) or spair(*a))

    def counted_update(divisors, active, live, heap, new, pk):
        updated.append(divisors[new])
        return update(divisors, active, live, heap, new, pk)

    monkeypatch.setattr(groebner, "_update", counted_update)
    gb = diag.quotient_groebner(forms)
    assert len(runs) == 1 and runs[0][-1] is None
    assert len(diag.relations.generators) + len(forms) == 14
    assert len(spairs) == 20
    assert is_zero_dimensional(gb)
    records = runs[0][:-1]
    assert len(records) == 15 and len(updated) == 10
    assert all(a is b for a, b in zip(updated, records[5:]))
    runs.clear()
    spairs.clear()
    updated.clear()
    assert is_complete_reduction_ring(S, rows)
    assert len(runs) == 1 and runs[0][-1] is not None
    assert len(spairs) == 1
    records = runs[0]
    assert len(records) == 15 and len(updated) == 9
    assert all(a is b for a, b in zip(updated, records[5:-1]))


def test_module_finiteness_reads_a_no_to_the_end(monkeypatch):
    # Every x-entry x1: the column products all vanish on x1 = 0, so
    # the diagonal is not module-finite over them, and no pure power
    # stops the loop; it reads every pair a full basis reads.
    R = polynomial_ring(32003, "x1 x2 x3 y1 y2 y3")
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3)
    diag = diagonal_subring(S)
    rows = _segre_columns(R, rows_x=[R.var("x1")] * 5)
    forms = _diagonal_images(S, rows)
    runs, spairs = _count_runs(monkeypatch), []
    spair = groebner._spair
    monkeypatch.setattr(groebner, "_spair", lambda *a: spairs.append(a) or spair(*a))
    assert not is_complete_reduction_ring(S, rows)
    assert len(runs) == 1 and runs[0][-1] is None
    verdict_spairs = len(spairs)
    spairs.clear()
    gb = diag.quotient_groebner(forms)
    assert len(spairs) == verdict_spairs
    assert len(runs[0]) - 1 == len(runs[1]) - 1 >= len(gb.leading_monomials())
    assert not is_zero_dimensional(gb)


def _polynomial_route(pres, extra):
    """relations + extra as one IdealSpec of polynomials: the given
    relations, and each row of ``extra`` built as a linear form."""
    u = pres.ring.gens()
    forms = tuple(f if isinstance(f, Polynomial) else linear_combination(f, u) for f in extra)
    return IdealSpec(pres.ring, pres.relations.generators + forms)


def _same_as_polynomial_route(pres, extra):
    """The Extension's reduced basis, term for term, and verdict against
    the polynomial route's; returns the verdict."""
    ideal = _polynomial_route(pres, extra)
    reference = buchberger(ideal)
    terms = [tuple(g.terms.items()) for g in pres.quotient_groebner(extra).basis]
    assert terms == [tuple(g.terms.items()) for g in reference.basis]
    verdict = algebra._module_finite(pres, extra)
    assert verdict == is_zero_dimensional(ideal) == is_zero_dimensional(reference)
    return verdict


@pytest.mark.parametrize("p", [5, 101, 32003])
def test_diagonal_rows_give_the_polynomial_route_verdicts(p):
    # Five columns on P^2 x P^2, their products entering as rows.  Every
    # third matrix has x-entries that are multiples of x1, and every
    # third the first three in span(x1, x2): all columns vanish at one
    # point, so both are "no".  At p = 5 most random matrices are "no"
    # as well; columns (w.x, w.y) with five weights w in general
    # position are "yes" at every p (no split leaves both sides of rank
    # below 3).
    R = polynomial_ring(p, "x1 x2 x3 y1 y2 y3")
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3)
    diag = diagonal_subring(S)
    xs, ys = R.gens()[:3], R.gens()[3:]
    rng = random.Random(f"diagonal/{p}")

    def form(block, span):
        return linear_combination([rng.randrange(1, p) for _ in range(span)], block[:span])

    weights = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)]
    general = tuple(tuple(linear_combination(w, b) for w in weights) for b in (xs, ys))
    verdicts = []
    for trial in range(40):
        spans = ((3,) * 5, (1,) * 5, (2, 2, 2, 3, 3))[trial % 3]
        mat = (tuple(form(xs, k) for k in spans), tuple(form(ys, 3) for _ in range(5)))
        mat = general if trial == 39 else mat
        rows = [S.product_row(col, (1, 1)) for col in zip(*mat)]
        verdict = _same_as_polynomial_route(diag, rows)
        assert verdict == is_complete_reduction_ring(S, mat)
        assert trial % 3 == 0 or not verdict
        verdicts.append(verdict)
    assert verdicts[-1] and (p == 5 or verdicts.count(True) >= 10)


@pytest.mark.parametrize("p", [5, 101, 32003])
def test_fiber_rows_give_the_polynomial_route_powers(p):
    # Reductions of m on the quadric (power 1) and on a seeded dense
    # cubic in 5 variables (power 2); every fourth candidate repeats a
    # form up to a scalar, a "no".
    rng = random.Random(f"fiber/{p}")
    R = polynomial_ring(p, "x y z w")
    x, y, z, w = R.gens()
    R5 = polynomial_ring(p, "a b c d e")
    cubic = Polynomial(R5, {m: rng.randrange(1, p) for m in monomials_of_degree(5, 3)})
    powers = []
    for S in (standard_graded_algebra(R, (x * y - z * w,)), standard_graded_algebra(R5, (cubic,))):
        gens = S.ring.gens()
        m = equigenerated_ideal(S, gens)
        pres = fiber_algebra(m)
        for trial in range(20):
            forms = [
                linear_combination([rng.randrange(1, p) for _ in gens], gens)
                for _ in range(S.dimension())
            ]
            if trial % 4 == 3:
                forms[-1] = 2 * forms[0]
            J = equigenerated_ideal(S, forms)
            coords = algebra._generator_coords(m, J.generators)
            _same_as_polynomial_route(pres, coords)
            t = top_degree(buchberger(_polynomial_route(pres, coords)))
            power = algebra.fiber_reduction_test(J, m)
            assert power == (None if t is None else max(1, t))
            powers.append(power)
    assert {None, 1, 2} <= set(powers)


@pytest.mark.parametrize("p", [5, 101, 32003])
def test_relations_enter_as_their_reduced_basis(p):
    # (xy - zw, xz - yw) is not a Groebner basis: its reduced basis has
    # a third element.  (x + y, xz - yw) has a linear relation, which
    # settles with the rows.  Rows (against is_hsop on their forms),
    # linear polynomials, and a row beside a quadric.
    R = polynomial_ring(p, "x y z w")
    x, y, z, w = R.gens()
    rng = random.Random(f"relations/{p}")
    tangled = standard_graded_algebra(R, (x * y - z * w, x * z - y * w))
    assert len(tangled.groebner().basis) > len(tangled.relations.generators)
    linear = standard_graded_algebra(R, (x + y, x * z - y * w))
    verdicts = []
    for S in (tangled, linear):
        for trial in range(30):
            rows = [tuple(rng.randrange(1, p) for _ in range(4)) for _ in range(S.dimension())]
            polys = [linear_combination(r, R.gens()) for r in rows]
            extra = (rows, polys, rows[:1] + [random_homogeneous(R, rng, 2)])[trial % 3]
            verdict = _same_as_polynomial_route(S, extra)
            if trial % 3 == 0:
                assert verdict == algebra.is_hsop(S, polys)
            verdicts.append(verdict)
        assert not _same_as_polynomial_route(S, [(0, 0, 0, 1)])
    assert True in verdicts


def test_extension_refusals_come_before_any_work(monkeypatch):
    # A row of another length would be cut short by the settle's zip
    # into a wrong verdict, so it is refused before the engine starts.
    R = polynomial_ring(32003, "x1 x2 x3 y1 y2 y3")
    S = graded_algebra(R, [(1, 0)] * 3 + [(0, 1)] * 3)
    diag = diagonal_subring(S)
    gb, lex = diag.groebner(), buchberger(diag.relations, LEX)
    runs = _count_runs(monkeypatch)
    full = (1,) * 9
    for row in [(1,) * 8, (1,) * 10, ()]:
        with pytest.raises(ValueError, match=f"a row of {len(row)} coordinates for 9 variables"):
            diag.quotient_groebner([full, row])
        with pytest.raises(ValueError, match=f"a row of {len(row)} coordinates for 9 variables"):
            algebra._module_finite(diag, [row, full])
    with pytest.raises(RingMismatchError):
        groebner.Extension(gb, (R.var("x1"),))
    with pytest.raises(TypeError, match="not IdealSpec"):
        groebner.Extension(diag.relations, ())
    with pytest.raises(ValueError, match="another monomial order"):
        is_zero_dimensional(groebner.Extension(lex, (full,)))
    with pytest.raises(ValueError, match="another monomial order"):
        buchberger(groebner.Extension(gb, ()), LEX)
    assert runs == []


def test_linear_forms_reduce_a_cubic_before_it_joins(monkeypatch):
    # A dense cubic in 5 variables and 4 independent linear forms, as in
    # a reduction verdict.  The forms settle with distinct leading
    # variables and stay out of the pair loop, the cubic joins it alone
    # as a cubic in the fifth variable, and no S-polynomial is reduced.
    R = polynomial_ring(32003, "x1 x2 x3 x4 x5")
    rng = random.Random(5)
    cubic = Polynomial(R, {m: rng.randrange(1, 32003) for m in monomials_of_degree(5, 3)})
    linear = [random_homogeneous(R, rng, 1, terms=5) for _ in range(4)]
    spairs, joined = [], []
    spair, update = groebner._spair, groebner._update
    monkeypatch.setattr(groebner, "_spair", lambda *a: spairs.append(a) or spair(*a))
    monkeypatch.setattr(groebner, "_update", lambda *a: joined.append(a) or update(*a))
    gb = buchberger(IdealSpec(R, (cubic, *linear)))
    assert len(spairs) == 0
    assert len(joined) == 1
    assert sorted(sum(lm) for lm in gb.leading_monomials()) == [1, 1, 1, 1, 3]
    assert set(gb.basis) == naive_buchberger(R, (cubic, *linear), GREVLEX)


def test_matches_sympy_groebner():
    # An oracle that shares no code with genmat: sympy's reduced bases
    # over GF(p), compared exactly as sets of monic polynomials.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31337)
    nontrivial = 0
    for trial in range(80):
        nvars = rng.randrange(2, 5)
        p = (101, 32003)[trial % 2]
        order, name = ((GREVLEX, "grevlex"), (LEX, "lex"))[trial // 2 % 2]
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        count = rng.randrange(2, 4)
        if trial % 3 == 0:
            gens = [random_homogeneous(R, rng, rng.randrange(1, 4), terms=3) for _ in range(count)]
        else:
            gens = [random_poly(R, rng, max_degree=3, terms=3) for _ in range(count)]
        gens = tuple(g for g in gens if not g.is_zero)
        syms = sympy.symbols(R.names)
        exprs = [sympy.Poly.from_dict(dict(g.terms), *syms, modulus=p).as_expr() for g in gens]
        theirs = sympy.groebner(exprs, *syms, modulus=p, order=name)
        expected = {frozenset((m, int(c) % p) for m, c in P.terms()) for P in theirs.polys}
        gb = buchberger(IdealSpec(R, gens), order)
        assert {frozenset(g.terms.items()) for g in gb.basis} == expected
        nontrivial += gb.basis != (R.one(),)
    assert nontrivial >= 50


def golden_ideals():
    """360 seeded ideals: p in {5, 101, 32003}, grevlex, lex and
    elimination orders, homogeneous generators and not, 2-4 variables."""
    rng = random.Random(60606)
    for trial in range(360):
        p = (5, 101, 32003)[trial % 3]
        nvars = rng.randrange(2, 5)
        order = (GREVLEX, LEX, elimination_order(rng.randrange(1, nvars)))[trial // 3 % 3]
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        count = rng.randrange(2, 5)
        if trial // 9 % 2:
            gens = [random_homogeneous(R, rng, rng.randrange(1, 4), terms=4) for _ in range(count)]
        else:
            gens = [random_poly(R, rng, max_degree=3, terms=4) for _ in range(count)]
        yield R, tuple(gens), order


# sha256 of golden_ideals()' reduced bases, computed before the heap
# division, divisor records and mask prefilter replaced the max-scan
# normal form.  Reduced bases are unique per ideal and order, so a change
# to pair order, tie-breaks or division that alters any basis fails here.
GOLDEN_BASES_SHA256 = "ec05a6bc23dc6fc4d2b5e55bb9b1c6d64a4863145f2ebc2b9d8f8fc2212af1fa"


def test_reduced_bases_match_golden_digest():
    digest = hashlib.sha256()
    nontrivial = 0
    for R, gens, order in golden_ideals():
        basis = buchberger(IdealSpec(R, gens), order).basis
        digest.update(("; ".join(map(str, basis)) + "\n").encode())
        nontrivial += basis != (R.one(),)
    assert nontrivial >= 200
    assert digest.hexdigest() == GOLDEN_BASES_SHA256


def _linear_forms(R, rng, count, affine):
    p = R.field.p
    forms = [random_homogeneous(R, rng, 1, terms=3) for _ in range(count)]
    return [f + R.const(rng.randrange(p)) if affine else f for f in forms]


def mixed_degree_ideals():
    """2,400 seeded ideals whose generators mix degrees, 2-4 variables,
    p in {5, 101, 32003}, grevlex, lex and elimination orders.  Four
    shapes: homogeneous linear forms with quadrics and cubics;
    non-homogeneous generators of degree 1 to 3; and a reduced grevlex
    relation basis plus linear forms, homogeneous (as in a quotient by
    a Noether normalization) or not (affine forms)."""
    rng = random.Random(51413)
    for trial in range(2400):
        p = (5, 101, 32003)[trial % 3]
        nvars = rng.randrange(2, 5)
        order = (GREVLEX, LEX, elimination_order(rng.randrange(1, nvars)))[trial // 3 % 3]
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        shape = trial // 9 % 4
        linear = _linear_forms(R, rng, rng.randrange(1, nvars), affine=shape in (1, 3))
        degrees = [rng.randrange(2, 4) for _ in range(rng.randrange(1, 3))]
        if shape == 0:
            gens = [random_homogeneous(R, rng, d, terms=3) for d in degrees] + linear
        elif shape == 1:
            gens = [random_poly(R, rng, max_degree=d, terms=3) for d in degrees] + linear
        else:
            if shape == 2:
                rels = [random_homogeneous(R, rng, d, terms=3) for d in degrees]
            else:
                rels = [random_poly(R, rng, max_degree=d, terms=3) for d in degrees]
            gens = list(buchberger(IdealSpec(R, tuple(rels))).basis) + linear
        rng.shuffle(gens)
        yield R, tuple(gens), order


# sha256 of mixed_degree_ideals()' reduced bases, computed at commit
# c77d0c3, where every generator joined the basis unreduced before any
# pair was processed.  Generators now wait in the pair queue by degree
# and join as remainders; the reduced bases cannot change.
MIXED_DEGREE_BASES_SHA256 = "79d85cc4273f8b84165b42fd128ba15cd946359b0011b5620aec27e3f64f4d1f"


def test_mixed_degree_bases_match_golden_digest():
    digest = hashlib.sha256()
    nontrivial = 0
    for R, gens, order in mixed_degree_ideals():
        basis = buchberger(IdealSpec(R, gens), order).basis
        digest.update(("; ".join(map(str, basis)) + "\n").encode())
        nontrivial += basis != (R.one(),)
    assert nontrivial >= 1800
    assert digest.hexdigest() == MIXED_DEGREE_BASES_SHA256


def test_reduced_basis_is_canonical():
    # Permuting or rescaling generators cannot change the reduced basis.
    R = quadric_ring()
    x, y, z, w = R.gens()
    gens = (x * y - z * w, x**2 - y * z, z**2 - x * w)
    base = buchberger(IdealSpec(R, gens)).basis
    rng = random.Random(8)
    for _ in range(5):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = tuple(g * rng.randrange(1, 32003) for g in shuffled)
        assert buchberger(IdealSpec(R, scaled)).basis == base


def test_exponent_limit_fails_loudly(monkeypatch):
    # Exponents live in 16-bit fields whose top bit stays clear.  An
    # input exponent of 2^15 fails before any pair is reduced, and a
    # product that reaches 2^15 fails instead of wrapping into the
    # next variable's field.
    R = polynomial_ring(101, "x y z")
    x, y, z = R.gens()
    spairs = []
    spair = groebner._spair
    monkeypatch.setattr(groebner, "_spair", lambda *a: spairs.append(a) or spair(*a))
    with pytest.raises(ValueError, match="limit 32767"):
        buchberger(IdealSpec(R, (x * y - z, x * z - y, x ** (2**15) - y)))
    assert not spairs
    gb = buchberger(IdealSpec(R, (x**32767 - y, y * z - x)))
    assert set(gb.leading_monomials()) >= {(0, 1, 1)}
    # x^2 (z^32767 - x^32766) - z^32766 (x^2 z - y) has the term x^32768.
    with pytest.raises(ValueError, match="limit 32767"):
        buchberger(IdealSpec(R, (z**32767 - x**32766, x**2 * z - y)))
    # Dividing x^32767 y by y - x reaches x^32768 too.
    with pytest.raises(ValueError, match="limit 32767"):
        normal_form(x**32767 * y, buchberger(IdealSpec(R, (y - x,))))
    # So does substituting y for x, the settled x - y's pivot, in x^32767 y.
    with pytest.raises(ValueError, match="limit 32767"):
        buchberger(IdealSpec(R, (x**32767 * y - z, x - y)))


def test_normal_form_rejects_another_ring():
    # Exponent vectors of different lengths used to be zipped short, so
    # x in F_101[x, y] reduced to zero against (a) in F_101[a, b, c].
    R = polynomial_ring(101, "x y")
    S = polynomial_ring(101, "a b c")
    x = R.var("x")
    a = S.var("a")
    with pytest.raises(RingMismatchError):
        normal_form(x, buchberger(IdealSpec(S, (a,))))
    # A ring built apart but equal is the same ring.
    T = polynomial_ring(101, "x y")
    assert normal_form(x, buchberger(IdealSpec(T, (T.var("x"),)))).is_zero


def test_normal_form_divides_only_by_a_groebner_basis():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    for divisors in ([x], (x, y), IdealSpec(R, (x,))):
        with pytest.raises(TypeError, match="GroebnerBasis"):
            normal_form(y, divisors)


@pytest.mark.parametrize("p", (5, 101, 32003))
def test_normal_form_matches_textbook_division(p):
    # The engine's packed heap division against the oracle's loop on
    # tuple monomials, which shares none of its code: modulo a Groebner
    # basis the remainder is unique, so the two agree term for term.
    # 60 bases and 180 (f, basis) pairs per prime, a third per order.
    # Generators without a constant term keep the ideal proper.
    rng = random.Random(f"division/{p}")
    nonzero = 0
    for trial in range(60):
        nvars = rng.randrange(2, 4)
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        order = (GREVLEX, LEX, elimination_order(rng.randrange(1, nvars)))[trial % 3]
        gens = tuple(
            random_homogeneous(R, rng, rng.randrange(2, 4), terms=2)
            + random_homogeneous(R, rng, 1, terms=1)
            for _ in range(rng.randrange(2, 4))
        )
        gb = buchberger(IdealSpec(R, gens), order)
        for _ in range(3):
            f = random_poly(R, rng, max_degree=5, terms=6)
            remainder = normal_form(f, gb)
            assert remainder == divide(f, gb.basis, order)
            nonzero += not remainder.is_zero
    assert nonzero > 120


def test_normal_form_properties():
    R = quadric_ring()
    x, y, z, w = R.gens()
    gb = buchberger(IdealSpec(R, (x * y - z * w, x**2 - y * w)))
    rng = random.Random(21)
    for _ in range(50):
        f = random_poly(R, rng)
        g = random_poly(R, rng)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + g, gb) == nf + normal_form(g, gb)
        # No term of a normal form is divisible by a leading monomial.
        for mon in nf.terms:
            assert not any(
                all(a <= b for a, b in zip(lm, mon)) for lm in gb.leading_monomials()
            )


def test_membership():
    R = quadric_ring()
    x, y, z, w = R.gens()
    I = IdealSpec(R, (x * y - z * w, x**2 - y * w))
    rng = random.Random(33)
    for _ in range(30):
        combo = random_poly(R, rng) * I.generators[0] + random_poly(R, rng) * I.generators[1]
        assert ideal_membership(combo, I)
    assert not ideal_membership(x, I)
    assert not ideal_membership(z * w, I)


def test_ideal_equality_product_vs_power():
    # (x^2, y^2) * (x, y)^2 equals (x, y)^4: frozen via degree-4
    # monomial enumeration.
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    left_mons = product_monomials([(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)])
    right_mons = monomial_ideal_members([(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)], 2, 4)
    assert monomial_ideal_members(left_mons, 2, 4) == right_mons
    left = IdealSpec(R, tuple(R.monomial(m) for m in left_mons))
    right = IdealSpec(R, (x**4, x**3 * y, x**2 * y**2, x * y**3, y**4))
    assert ideal_equal(left, right)
    assert not ideal_equal(left, IdealSpec(R, (x**4, y**4)))


def test_elimination_parabola():
    T = polynomial_ring(32003, "t")
    t = T.var("t")
    out = kernel_of_map([t, t**2])
    assert out.ring.names == ("T1", "T2")
    x, y = out.ring.gens()
    assert ideal_equal(out, IdealSpec(out.ring, (y - x**2,)))
    # Substitution oracle: every generator vanishes on the parametrization.
    for g in out.basis:
        assert substitute(g, [t, t**2], T).is_zero


def test_elimination_cuspidal_cubic():
    T = polynomial_ring(32003, "t")
    t = T.var("t")
    out = kernel_of_map([t**2, t**3])
    x, y = out.ring.gens()
    assert ideal_equal(out, IdealSpec(out.ring, (y**2 - x**3,)))
    for g in out.basis:
        assert substitute(g, [t**2, t**3], T).is_zero


def _count_records(monkeypatch):
    """Record every polynomial given a divisor record and every nonzero
    normal form, through the module names buchberger calls."""
    built, made = [], []
    divisor, nf = groebner._divisor, groebner.normal_form

    def counted_divisor(g, *args):
        built.append(g)
        return divisor(g, *args)

    def counted_nf(*args, **kwargs):
        r = nf(*args, **kwargs)
        if not r.is_zero:
            made.append(r)
        return r

    monkeypatch.setattr(groebner, "_divisor", counted_divisor)
    monkeypatch.setattr(groebner, "normal_form", counted_nf)
    return built, made


def test_each_divisor_record_built_once(monkeypatch):
    """A record is built only for a fresh nonzero normal form: the
    remainder of a generator or an S-polynomial while Buchberger runs,
    and one tail-reduced element per basis element the first time the
    basis is read.  A kernel moves the minimal records free of the
    source variables over and tail-reduces only those."""
    R = polynomial_ring(101, "x y z w")
    x, y, z, w = R.gens()
    gens = (x * y - z * w, x**2 - y * z + w**2, x * z - 2 * y * w)
    built, made = _count_records(monkeypatch)
    gb = buchberger(IdealSpec(R, gens), GREVLEX)
    joined = len(made)
    assert len(built) == joined > len(gens)
    assert len(gb.leading_monomials()) > len(gens) and len(made) == joined
    basis = gb.basis
    assert len(built) == len(made) == joined + len(basis)

    t = polynomial_ring(32003, "t").var("t")
    built.clear()
    made.clear()
    out = kernel_of_map([t**2, t**3])
    joined = len(made)
    assert len(built) == joined
    records = out.divisors
    assert len(built) == len(made) == joined + len(records) < 2 * joined
    pack = out.packing.pack
    fresh = tuple(
        groebner._divisor(dict(sorted(pack(g).items())), out.packing)
        for g in out.basis
    )
    assert records == fresh


def test_kernel_veronese():
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    ker = kernel_of_map([x**2, x * y, y**2])
    kr = ker.ring
    T1, T2, T3 = kr.gens()
    assert len(ker.basis) == 1
    assert ideal_equal(ker, IdealSpec(kr, (T1 * T3 - T2**2,)))
    # Substitution oracle: kernel generators vanish on the targets.
    for g in ker.basis:
        assert substitute(g, [x**2, x * y, y**2], R).is_zero
    assert krull_dimension(ker) == 2


def test_kernel_segre():
    R = polynomial_ring(32003, "x1 x2 y1 y2")
    x1, x2, y1, y2 = R.gens()
    targets = [x1 * y1, x1 * y2, x2 * y1, x2 * y2]
    ker = kernel_of_map(targets)
    kr = ker.ring
    T1, T2, T3, T4 = kr.gens()
    assert len(ker.basis) == 1
    assert ideal_equal(ker, IdealSpec(kr, (T1 * T4 - T2 * T3,)))
    for g in ker.basis:
        assert substitute(g, targets, R).is_zero
    assert krull_dimension(ker) == 3


def test_kernel_generators_always_vanish():
    rng = random.Random(55)
    R = polynomial_ring(101, "x y")
    for _ in range(8):
        targets = [random_poly(R, rng, max_degree=2, terms=2) for _ in range(3)]
        targets = [t for t in targets if not t.is_zero]
        if len(targets) < 2:
            continue
        ker = kernel_of_map(targets)
        for g in ker.basis:
            assert substitute(g, targets, R).is_zero


def test_kernel_respects_relations():
    # x and y coincide on the quadric modulo (x - y), so T1 - T2 dies.
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    ker = kernel_of_map([x, y], relations=IdealSpec(R, (x - y,)))
    kr = ker.ring
    T1, T2 = kr.gens()
    assert ideal_membership(T1 - T2, ker)


def test_kernel_name_validation():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    assert kernel_of_map([x, y]).ring.names == ("T1", "T2")
    assert kernel_of_map([x, y], prefix="u").ring.names == ("u1", "u2")
    with pytest.raises(ValueError):
        kernel_of_map([])
    with pytest.raises(RingMismatchError):
        kernel_of_map([x, polynomial_ring(101, "z").var("z")])


def _xy():
    return polynomial_ring(101, "x y")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IdealSpec(_xy(), (1,)), ValueError, "generators must be polynomials"),
        (
            lambda: IdealSpec(_xy(), (polynomial_ring(101, "z").var("z"),)),
            RingMismatchError,
            "generator outside the ambient ring",
        ),
        (
            lambda: buchberger(IdealSpec(_xy(), _xy().gens()), weights=(0, 1)),
            ValueError,
            "need one positive weight per variable",
        ),
        (
            lambda: kernel_of_map(_xy().gens(), relations=IdealSpec(polynomial_ring(101, "z"), ())),
            RingMismatchError,
            "relations outside the source ring",
        ),
    ],
    ids=["non-polynomial-generator", "generator-of-another-ring", "zero-weight", "relations-ring"],
)
def test_groebner_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_kernel_names_clear_the_source_variables():
    # The prefix repeats until no kernel variable is a source variable.
    R = polynomial_ring(32003, "T1 T2")
    T1, T2 = R.gens()
    assert kernel_of_map([T1, T2]).ring.names == ("TT1", "TT2")
    I = equigenerated_ideal(standard_graded_algebra(R), (T1, T2))
    assert analytic_spread(I) == 2
    assert fiber_algebra(I).ring.names == ("TT1", "TT2")


def test_dimension_of_free_rings():
    for n in range(1, 7):
        R = polynomial_ring(101, [f"x{i}" for i in range(n)])
        assert krull_dimension(IdealSpec(R, ())) == n


def test_dimension_quadric():
    R = quadric_ring()
    x, y, z, w = R.gens()
    I = IdealSpec(R, (x * y - z * w,))
    gb = buchberger(I)
    assert brute_dimension(gb.leading_monomials(), 4) == 3
    assert krull_dimension(I) == 3


def test_dimension_edge_cases():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    assert krull_dimension(IdealSpec(R, (R.one(),))) == -1
    assert krull_dimension(IdealSpec(R, (x**2, y**3))) == 0
    assert krull_dimension(IdealSpec(R, (x,))) == 1


def test_dimension_order_invariance():
    rng = random.Random(808)
    for _ in range(20):
        nvars = rng.randrange(2, 4)
        R = polynomial_ring(101, [f"x{i}" for i in range(nvars)])
        gens = tuple(random_poly(R, rng, max_degree=2, terms=2) for _ in range(2))
        I = IdealSpec(R, gens)
        d_grevlex = krull_dimension(I)
        d_lex = krull_dimension(buchberger(I, LEX))
        assert d_grevlex == d_lex
        gb = buchberger(I, GREVLEX)
        assert d_grevlex == brute_dimension(gb.leading_monomials(), nvars)


def test_dimension_matches_subset_search_on_staircases():
    # Exponents up to 3.  An empty generator list gives the zero ideal,
    # and now and then the constant 1 gives the unit ideal.
    rng = random.Random(2718)
    for _ in range(1000):
        nvars = rng.randrange(1, 11)
        R = polynomial_ring(101, [f"x{i}" for i in range(nvars)])
        mons = []
        for _ in range(rng.randrange(0, 9)):
            mon = [0] * nvars
            for i in rng.sample(range(nvars), rng.randrange(1, min(nvars, 3) + 1)):
                mon[i] = rng.randrange(1, 4)
            mons.append(tuple(mon))
        if rng.random() < 0.02:
            mons.append((0,) * nvars)
        I = IdealSpec(R, tuple(R.monomial(m) for m in mons))
        assert krull_dimension(I) == brute_dimension(mons, nvars)
        assert is_zero_dimensional(I) == (brute_dimension(mons, nvars) <= 0)
    # Past the ten variables an exhaustive search could afford.
    R = polynomial_ring(101, [f"x{i}" for i in range(12)])
    assert krull_dimension(IdealSpec(R, ())) == 12 == brute_dimension((), 12)
    assert krull_dimension(IdealSpec(R, (R.one(),))) == -1 == brute_dimension([(0,) * 12], 12)
    assert not is_zero_dimensional(IdealSpec(R, ()))
    assert is_zero_dimensional(IdealSpec(R, (R.one(),)))


def _hilbert_function(numerator, nvars, d):
    """Coefficient of t^d in N(t)/(1 - t)^n, expanded as a power series."""
    return sum(a * comb(d - k + nvars - 1, nvars - 1) for k, a in enumerate(numerator[: d + 1]))


def test_top_degree_matches_staircase_enumeration():
    # Monomial ideals with a pure power of every variable but, now and
    # then, one; exponent-1 powers make variables leading monomials.
    # The Hilbert function read off N(t) matches the staircase count in
    # every degree up to 6, zero-dimensional or not.
    rng = random.Random(3141)
    for _ in range(1000):
        nvars = rng.randrange(1, 5)
        R = polynomial_ring(101, [f"x{i}" for i in range(nvars)])
        powers = [rng.randrange(1, 5) for _ in range(nvars)]
        mons = [tuple(e if j == i else 0 for j in range(nvars)) for i, e in enumerate(powers)]
        for _ in range(rng.randrange(0, 4)):
            mon = tuple(rng.randrange(0, e + 1) for e in powers)
            if any(mon):
                mons.append(mon)
        infinite = nvars > 1 and rng.random() < 0.2
        if infinite:
            mons = [m for m in mons if sum(1 for e in m if e) != 1 or m[0] == 0]
        I = IdealSpec(R, tuple(R.monomial(m) for m in mons))
        counts = [
            len(list(monomials_of_degree(nvars, d))) - len(monomial_ideal_members(mons, nvars, d))
            for d in range(max(sum(powers), 6) + 1)
        ]
        numerator = hilbert_numerator(I)
        assert [_hilbert_function(numerator, nvars, d) for d in range(7)] == counts[:7]
        if infinite:
            assert top_degree(I) is None
            continue
        assert top_degree(I) == max(d for d, c in enumerate(counts) if c)
    R = polynomial_ring(101, "x y")
    assert top_degree(IdealSpec(R, (R.one(),))) == -1
    assert hilbert_numerator(IdealSpec(R, (R.one(),))) == []
    assert top_degree(IdealSpec(R, ())) is None
    assert hilbert_numerator(IdealSpec(R, ())) == [1]


def test_zero_dimensionality():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    assert is_zero_dimensional(IdealSpec(R, (x**2, y**3)))
    assert not is_zero_dimensional(IdealSpec(R, (x,)))
    assert not is_zero_dimensional(IdealSpec(R, ()))
    assert is_zero_dimensional(IdealSpec(R, (R.one(),)))
    Q = quadric_ring()
    qx, qy, qz, qw = Q.gens()
    rel = qx * qy - qz * qw
    assert is_zero_dimensional(IdealSpec(Q, (rel, qx + qy, qz, qw)))
    assert not is_zero_dimensional(IdealSpec(Q, (rel, qx, qz, qw)))
    assert is_zero_dimensional(IdealSpec(Q, (rel, qx, qy, qz + qw)))


def _zero_dimensional_inputs(R, rng):
    """Generators for the stop test: homogeneous, non-homogeneous, or
    pure powers of some variables hidden behind lower terms."""
    n, shape = R.nvars, rng.randrange(3)
    if shape == 0:
        degrees = [rng.randrange(1, 4) for _ in range(rng.randrange(1, n + 2))]
        return [random_homogeneous(R, rng, d, terms=3) for d in degrees]
    if shape == 1:
        count = rng.randrange(1, n + 2)
        return [random_poly(R, rng, max_degree=3, terms=3) for _ in range(count)]
    chosen = rng.sample(range(n), rng.randrange(1, n + 1))
    powers = [R.gens()[v] ** rng.randrange(1, 4) for v in chosen]
    extra = [random_poly(R, rng, max_degree=2, terms=2) for _ in range(rng.randrange(2))]
    return [x + random_poly(R, rng, max_degree=1, terms=2) for x in powers] + extra


@pytest.mark.parametrize("p", (5, 101, 32003))
def test_zero_dimensionality_stops_at_the_answer(p, monkeypatch):
    # An IdealSpec is decided while Buchberger runs, and the run stops
    # once the leading monomials joined so far hold 1 or a pure power of
    # every variable.  On 350 seeded ideals per prime, plus the zero and
    # unit ideals, that verdict must equal the one read from the full
    # basis and the one of the criteria-free oracle's staircase.
    rng = random.Random(f"zero-dimensional/{p}")
    runs = _count_runs(monkeypatch)
    ideals = [IdealSpec(polynomial_ring(p, "x y"), ())]
    ideals.append(IdealSpec(ideals[0].ring, (ideals[0].ring.const(3),)))
    for _ in range(350):
        R = polynomial_ring(p, [f"x{i}" for i in range(rng.randrange(1, 4))])
        ideals.append(IdealSpec(R, tuple(_zero_dimensional_inputs(R, rng))))
    outcomes = Counter()
    for I in ideals:
        runs.clear()
        verdict = is_zero_dimensional(I)
        assert verdict == is_zero_dimensional(buchberger(I))
        lms = [leading_term(g, GREVLEX)[0] for g in naive_buchberger(I.ring, I.generators, GREVLEX)]
        assert verdict == (brute_dimension(lms, I.ring.nvars) <= 0)
        (stop, full) = runs
        assert full[-1] is None and (stop[-1] is None) == (not verdict)
        assert stop == full[: len(stop)]  # the same loop, up to the stop
        outcomes[verdict, len(stop) < len(full) - 1] += 1
    # Yes verdicts that joined fewer elements than the full basis did,
    # and ones that needed every element; no verdicts read everything.
    assert outcomes[True, True] >= 30 and outcomes[True, False] >= 30
    assert outcomes[False, False] >= 50 and not outcomes[False, True]


def _lazy_inputs(p, count):
    """Seeded (kind, compute, expected) triples: grevlex and lex bases
    and kernels of maps, each with the criteria-free oracle's reduced
    basis in the result's ring, largest leading monomial first."""
    rng = random.Random(f"lazy/{p}")
    for trial in range(count):
        kind = ("grevlex", "lex", "kernel")[trial % 3]
        nvars = 2 if kind == "kernel" else rng.randrange(2, 4)
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        if kind == "kernel":
            targets = [random_homogeneous(R, rng, rng.randrange(1, 3), terms=2) for _ in range(4)]
            names = ["T1", "T2", "T3", "T4"]
            big = polynomial_ring(p, list(R.names) + names)
            lift = [big.parse(str(f)) for f in targets]
            gens = tuple(t - f for t, f in zip(big.gens()[nvars:], lift))
            order, small, drop = elimination_order(nvars), polynomial_ring(p, names), nvars
            compute = partial(kernel_of_map, targets)
        else:
            count = rng.randrange(2, 4)
            if trial % 8 < 4:
                degrees = [rng.randrange(1, 4) for _ in range(count)]
                gens = [random_homogeneous(R, rng, d, terms=3) for d in degrees]
            else:
                gens = [random_poly(R, rng, max_degree=3, terms=3) for _ in range(count)]
            I, big, small, drop = IdealSpec(R, tuple(gens)), R, R, 0
            order = {"grevlex": GREVLEX, "lex": LEX}[kind]
            compute = partial(buchberger, I, order)
            gens = I.generators
        kept = [
            Polynomial(small, {m[drop:]: c for m, c in g.terms.items()})
            for g in naive_buchberger(big, gens, order)
            if not any(leading_term(g, order)[0][:drop])
        ]
        small_order = order if small is big else GREVLEX
        kept.sort(key=lambda g: small_order.desc_key(leading_term(g, small_order)[0]))
        yield kind, compute, kept


@pytest.mark.parametrize("p", (5, 101, 32003))
def test_lazy_bases_equal_reduced_ones_term_for_term(p):
    # A basis is tail-reduced the first time its elements are read.  Its
    # leading monomials, Hilbert numerator, dimension and top degree come
    # from the minimal basis before that, and must not force it; then the
    # elements must equal the oracle's reduced basis term for term, in
    # the order of their leading monomials, and a second basis of the
    # same ideal, read at once, must have the same elements.
    kinds = Counter()
    for kind, compute, expected in _lazy_inputs(p, 160):
        gb = compute()
        lms = gb.leading_monomials()
        verdicts = (hilbert_numerator(gb), krull_dimension(gb), top_degree(gb))
        assert "divisors" not in vars(gb) and is_zero_dimensional(gb) == (verdicts[2] is not None)
        assert [g.terms for g in gb.basis] == [g.terms for g in expected]
        assert lms == tuple(leading_term(g, gb.order)[0] for g in gb.basis)
        eager = compute()
        assert eager.basis == gb.basis
        kinds[kind] += len(expected) > 1
    assert min(kinds.values()) >= 15
    # Different minimal records of one ideal reduce to one basis.
    R = polynomial_ring(p, "x y")
    x, y = R.gens()
    a = buchberger(IdealSpec(R, (x**2 + y**2, y**2)))
    b = buchberger(IdealSpec(R, (x**2, y**2)))
    assert a.minimal != b.minimal and a.basis == b.basis
    assert a.basis != buchberger(IdealSpec(R, (x - y, y**2))).basis


def _settling_inputs(R, rng, kind):
    """Generators with linear forms among them, in random order: 1 to n
    forms and relations of the given ``kind``."""
    n, p = R.nvars, R.field.p
    forms = [random_homogeneous(R, rng, 1, terms=n) for _ in range(rng.randrange(1, n + 1))]
    if kind == "dependent":  # a combination of the other forms
        c, d = rng.randrange(1, p), rng.randrange(1, p)
        forms.append(forms[0] * R.const(c) + forms[-1] * R.const(d))
    if kind in ("homogeneous", "dependent"):
        degrees = [rng.randrange(2, 4) for _ in range(rng.randrange(1, 3))]
        relations = [random_homogeneous(R, rng, d, terms=3) for d in degrees]
    else:
        relations = [random_poly(R, rng, max_degree=3, terms=3) for _ in range(rng.randrange(2))]
    if kind in ("to-zero", "to-constant"):  # in the forms' ideal, plus a constant
        multiple = forms[0] * random_homogeneous(R, rng, rng.randrange(1, 3), terms=2)
        if len(forms) > 1:
            multiple = multiple + forms[-1] * random_homogeneous(R, rng, 1, terms=2)
        relations.append(multiple + R.const(rng.randrange(1, p) if kind == "to-constant" else 0))
    gens = forms + relations
    rng.shuffle(gens)
    return tuple(gens)


_SETTLING_KINDS = ("homogeneous", "inhomogeneous", "dependent", "to-zero", "to-constant")


@pytest.mark.parametrize("p", (5, 101, 32003))
def test_settled_linear_generators_match_naive_completion(p):
    # The engine echelonizes the linear generators apart and substitutes
    # their pivots out of the rest before the pair loop.  On 700 seeded
    # ideals with linear generators per prime, under grevlex, lex and an
    # elimination order, the reduced basis must equal the criteria-free
    # oracle's term for term; a relation in the ideal of the forms
    # vanishes, and one that differs from such by a constant makes the
    # unit ideal.  The verdict of a zero-dimensionality run that stops
    # early must equal the full basis's and the oracle's staircase's.
    rng = random.Random(f"settling/{p}")
    orders = (GREVLEX, LEX, elimination_order(1))
    outcomes = Counter()
    for trial in range(700):
        kind = _SETTLING_KINDS[trial % len(_SETTLING_KINDS)]
        R = polynomial_ring(p, [f"x{i}" for i in range(rng.randrange(2, 5))])
        order = orders[trial // len(_SETTLING_KINDS) % len(orders)]
        I = IdealSpec(R, _settling_inputs(R, rng, kind))
        expected = naive_buchberger(R, I.generators, order)
        expected = sorted(expected, key=lambda g: order.desc_key(leading_term(g, order)[0]))
        gb = buchberger(I, order)
        assert [g.terms for g in gb.basis] == [g.terms for g in expected]
        if kind == "to-constant":
            assert gb.basis == (R.one(),)
        lms = [leading_term(g, order)[0] for g in expected]
        verdict = is_zero_dimensional(I)
        assert verdict == is_zero_dimensional(gb) == (brute_dimension(lms, R.nvars) <= 0)
        outcomes[kind, verdict] += 1
    assert all(outcomes[kind, False] + outcomes[kind, True] == 140 for kind in _SETTLING_KINDS)
    assert outcomes["homogeneous", True] >= 20 and outcomes["homogeneous", False] >= 20


@pytest.mark.parametrize("p", (5, 101, 32003))
def test_kernels_of_linear_maps_match_naive_completion(p):
    # kernel_of_map of linear targets, alone, with one quadric target, or
    # modulo relations: every generator T_i - f_i settles.  The kernel
    # must equal the x-free part of the oracle's elimination basis.
    rng = random.Random(f"linear-kernels/{p}")
    nontrivial = 0
    for trial in range(60):
        nvars = rng.randrange(2, 4)
        R = polynomial_ring(p, [f"x{i}" for i in range(nvars)])
        targets = [random_homogeneous(R, rng, 1, terms=2) for _ in range(rng.randrange(2, 5))]
        relations = None
        if trial % 3 == 1:
            targets.append(random_homogeneous(R, rng, 2, terms=2))
        elif trial % 3 == 2:
            relations = IdealSpec(R, (random_homogeneous(R, rng, 2, terms=3),))
        names = [f"T{i + 1}" for i in range(len(targets))]
        big = polynomial_ring(p, list(R.names) + names)
        lift = [big.parse(str(f)) for f in targets]
        gens = [t - f for t, f in zip(big.gens()[nvars:], lift)]
        if relations is not None:
            gens += [big.parse(str(g)) for g in relations.generators]
        order = elimination_order(nvars)
        small = polynomial_ring(p, names)
        expected = [
            Polynomial(small, {m[nvars:]: c for m, c in g.terms.items()})
            for g in naive_buchberger(big, gens, order)
            if not any(leading_term(g, order)[0][:nvars])
        ]
        expected.sort(key=lambda g: GREVLEX.desc_key(leading_term(g, GREVLEX)[0]))
        ker = kernel_of_map(targets, relations=relations)
        assert [g.terms for g in ker.basis] == [g.terms for g in expected]
        nontrivial += bool(expected)
    assert nontrivial >= 40


def test_spolynomial_cancels_leads():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    f = x**2 + y
    g = x * y + 1
    s = spolynomial(f, g, GREVLEX)
    assert s == y**2 - x
