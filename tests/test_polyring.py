"""Polynomial core: field, arithmetic, orders, grammar, sampling."""

import random

import pytest

from genmat.polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatchError,
    elimination_order,
    parse_polynomial,
    linear_combination,
    poly_to_str,
    polynomial_ring,
    random_linear_combination,
)

from genmat.algebra import graded_algebra

from oracles import leading_term, naive_mul, order_key, random_poly, substitute


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 100, 32001):
        with pytest.raises(ValueError):
            PrimeField(bad)


# 399165290221 * 798330580441: a strong pseudoprime to every prime base
# up to 37, so only witness 41 exposes it.
PSEUDOPRIME_37 = 318665857834031151167461


def test_prime_field_refuses_pseudoprimes_and_the_witness_bound():
    from genmat.instances import vector_matroid
    from genmat.polyring import PRIME_BOUND

    assert PSEUDOPRIME_37 == 399165290221 * 798330580441
    for bad in (PSEUDOPRIME_37, PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
        with pytest.raises(ValueError):
            PrimeField(bad)
        with pytest.raises(ValueError):
            polynomial_ring(bad, "x y")
        with pytest.raises(ValueError):
            vector_matroid(bad, [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match=f"below {PRIME_BOUND}"):
        PrimeField(2**89 - 1)  # a Mersenne prime, but past the bound
    for good in (2**61 - 1, 2**64 + 13):
        assert PrimeField(good).p == good
        assert vector_matroid(good, [(1, 0), (0, 1)]).rank == 2


def test_prime_field_ops():
    F = PrimeField(32003)
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(32003)
        if a:
            assert a * F.inv(a) % 32003 == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_ring_rejects_bad_names():
    with pytest.raises(ValueError):
        polynomial_ring(101, "x x")
    with pytest.raises(ValueError):
        polynomial_ring(101, ["x", "2y"])
    with pytest.raises(ValueError):
        polynomial_ring(101, [])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: polynomial_ring(101, "x y").var("q"), ValueError, r"no variable 'q'"),
        (
            lambda: polynomial_ring(101, "x y").monomial((1,)),
            ValueError,
            r"bad exponent vector \(1,\)",
        ),
        (
            lambda: Polynomial(polynomial_ring(101, "x y"), {(1,): 1}),
            ValueError,
            r"bad exponent vector \(1,\)",
        ),
        (lambda: polynomial_ring(101, "x y").var("x") + "a", TypeError, "unsupported operand"),
    ],
    ids=["unknown-variable", "short-monomial", "short-term", "string-operand"],
)
def test_ring_element_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_ring_axioms_sampled():
    # Commutative ring laws over 1000 random triples.
    R = polynomial_ring(101, "x y z")
    rng = random.Random(2024)
    zero, one = R.zero(), R.one()
    for _ in range(1000):
        a = random_poly(R, rng, max_degree=3, terms=3)
        b = random_poly(R, rng, max_degree=3, terms=3)
        c = random_poly(R, rng, max_degree=3, terms=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero


def test_multiplication_matches_schoolbook_oracle():
    R = polynomial_ring(32003, "x y z w")
    rng = random.Random(7)
    for _ in range(100):
        a = random_poly(R, rng)
        b = random_poly(R, rng)
        assert a * b == naive_mul(a, b)


def test_expansion_term_count():
    # (x+y)*(z+w) distributes into exactly four monomials.
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    prod = (x + y) * (z + w)
    assert len(prod.terms) == 4
    assert prod == x * z + x * w + y * z + y * w


def test_char_two_square():
    R = polynomial_ring(2, "x y")
    x, y = R.gens()
    assert (x + y) ** 2 == x**2 + y**2


def test_powers():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    assert (x + y) ** 0 == R.one()
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    with pytest.raises(ValueError):
        (x + y) ** -1


def test_int_minus_polynomial():
    # __rsub__: the int coerces to a constant on the left.
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    assert 1 - x == -x + 1
    assert 3 - (x + y) == R.const(3) - x - y


def test_ring_mismatch():
    a = polynomial_ring(101, "x y").var("x")
    b = polynomial_ring(101, "x z").var("x")
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b


def test_parse_known_forms():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    assert R.parse("2*x^2*y - z*w + 5") == 2 * x**2 * y - z * w + 5
    assert R.parse("x") == x
    assert R.parse("-x") == -x
    assert R.parse("0") == R.zero()
    assert R.parse("7") == R.const(7)
    assert R.parse("x*x*x") == x**3
    assert R.parse("3*2*x") == 6 * x
    assert R.parse("x - x") == R.zero()


def test_print_known_forms():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    assert str(2 * x**2 * y - z * w + 5) == "2*x^2*y - z*w + 5"
    assert str(R.zero()) == "0"
    assert str(-x + 5) == "-x + 5"
    assert str(x - y) == "x - y"
    assert str(R.const(32002)) == "-1"


def test_parse_print_round_trip_random():
    R = polynomial_ring(32003, "x y z")
    rng = random.Random(99)
    for _ in range(300):
        f = random_poly(R, rng)
        assert R.parse(poly_to_str(f)) == f
        assert R.parse(poly_to_str(f, LEX)) == f


_AT = "polynomial syntax error at column "
PARSE_ERRORS = {
    "x + ": _AT + "5: unexpected end of input",
    "q": _AT + "1: unknown variable 'q'",
    "x + q": _AT + "5: unknown variable 'q'",
    "foo": _AT + "1: unknown variable 'foo'",
    "x^": _AT + "3: expected an exponent after '^'",
    "x ^ y": _AT + "5: expected an exponent after '^'",
    "2 +* x": _AT + "4: unexpected character '*'",
    "(x+y)": _AT + "1: unexpected character '('",
    "x..y": _AT + "2: expected '+' or '-', found '.'",
    "": "empty polynomial text",
    "   ": "empty polynomial text",
    "x y": _AT + "3: expected '+' or '-', found 'y'",
    "+": _AT + "2: unexpected end of input",
    "x*": _AT + "3: unexpected end of input",
    "*x": _AT + "1: unexpected character '*'",
    "x^-1": _AT + "3: expected an exponent after '^'",
    "2x": _AT + "2: expected '+' or '-', found 'x'",
    "x2": _AT + "1: unknown variable 'x2'",
    "x^2^3": _AT + "4: expected '+' or '-', found '^'",
    "x +- y": _AT + "4: unexpected character '-'",
    "x^²": _AT + "3: expected an exponent after '^'",
    "é": _AT + "1: unexpected character 'é'",
    "x^٣": _AT + "3: expected an exponent after '^'",
    5: "polynomial text must be a string, got int",
}


def test_parse_errors_carry_positions():
    # The exact message of every malformed text; a column names the
    # first character of the offending token, or the end of the text.
    R = polynomial_ring(101, "x y")
    wrong = {}
    for bad, message in PARSE_ERRORS.items():
        try:
            got = f"parsed as {parse_polynomial(R, bad)}"
        except ValueError as err:
            got = str(err)
        if got != message:
            wrong[bad] = got
    assert not wrong, wrong


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("degrevlex")
    with pytest.raises(ValueError):
        MonomialOrder("elim")
    with pytest.raises(ValueError):
        MonomialOrder("lex", split=2)


def test_orders_are_multiplicative_well_orderings():
    # key comparisons survive common multiplication; 1 is minimal.
    rng = random.Random(5)
    orders = [GREVLEX, LEX, elimination_order(2)]
    for _ in range(500):
        a = tuple(rng.randrange(4) for _ in range(4))
        b = tuple(rng.randrange(4) for _ in range(4))
        c = tuple(rng.randrange(4) for _ in range(4))
        for order in orders:
            ka, kb = order_key(order, a), order_key(order, b)
            kac = order_key(order, tuple(x + y for x, y in zip(a, c)))
            kbc = order_key(order, tuple(x + y for x, y in zip(b, c)))
            assert (ka < kb) == (kac < kbc)
            assert (ka == kb) == (a == b)
            if a != (0, 0, 0, 0):
                assert order_key(order, (0, 0, 0, 0)) < ka


def test_grevlex_tie_break():
    # Same total degree: the smaller trailing exponent wins.
    assert order_key(GREVLEX, (2, 0)) > order_key(GREVLEX, (1, 1)) > order_key(GREVLEX, (0, 2))


def test_elimination_order_blocks():
    order = elimination_order(2)
    rng = random.Random(17)
    for _ in range(300):
        with_block = tuple(rng.randrange(3) for _ in range(4))
        if not any(with_block[:2]):
            continue
        without = (0, 0) + tuple(rng.randrange(5) for _ in range(2))
        assert order_key(order, with_block) > order_key(order, without)


def test_leading_term():
    # The oracles' leading term, taken by the textbook comparison.
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    f = x * y + y**2 + x
    assert leading_term(f, GREVLEX) == ((1, 1), 1)
    assert leading_term(f, LEX) == ((1, 1), 1)
    g = x + 3 * y**2
    assert leading_term(g, GREVLEX) == ((0, 2), 3)
    assert leading_term(g, LEX) == ((1, 0), 1)
    with pytest.raises(ValueError):
        leading_term(R.zero(), GREVLEX)


def test_multidegree():
    R = polynomial_ring(101, "x1 x2 y1 y2")
    x1, x2, y1, y2 = R.gens()
    segre = graded_algebra(R, [(1, 0), (1, 0), (0, 1), (0, 1)]).element_degree
    assert segre(x1 * y2) == (1, 1)
    assert segre(x1 * x2) == (2, 0)
    assert segre(x1 + y1) is None
    assert segre(R.zero()) is None
    assert segre(R.const(1)) == (0, 0)
    std = graded_algebra(R, [(1,)] * 4).element_degree
    assert std(x1 * y1 + x2 * y2) == (2,)
    with pytest.raises(ValueError):
        graded_algebra(R, [(1, 0), (1, 0)])


def test_multidegree_multiplicative_sampled():
    R = polynomial_ring(101, "a b c")
    degree = graded_algebra(R, [(1, 0), (0, 1), (1, 1)]).element_degree
    rng = random.Random(31)
    for _ in range(200):
        e1 = tuple(rng.randrange(3) for _ in range(3))
        e2 = tuple(rng.randrange(3) for _ in range(3))
        m1 = R.monomial(e1, rng.randrange(1, 101))
        m2 = R.monomial(e2, rng.randrange(1, 101))
        d1, d2 = degree(m1), degree(m2)
        assert degree(m1 * m2) == tuple(a + b for a, b in zip(d1, d2))


def test_random_linear_combination_deterministic():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    basis = [x + y, z, w]
    f1, c1 = random_linear_combination(basis, random.Random(42))
    f2, c2 = random_linear_combination(basis, random.Random(42))
    f3, _ = random_linear_combination(basis, random.Random(43))
    assert f1 == f2 and c1 == c2
    assert f1 != f3
    assert len(c1) == 3
    assert f1 == sum((b * c for c, b in zip(c1, basis)), R.zero())
    # Combination of degree-one elements stays degree one.
    assert graded_algebra(R, [(1,)] * 4).element_degree(f1) == (1,)


def test_linear_combination_matches_repeated_sums():
    R = polynomial_ring(101, "x y z")
    x, y, z = R.gens()
    # Terms that cancel leave no zero coefficient behind.
    assert linear_combination((1, -1, 0), (x + y, x, z)).terms == y.terms
    assert linear_combination((3, 98), (x, x)).is_zero
    rng = random.Random(31)
    for _ in range(50):
        basis = [random_poly(R, rng) for _ in range(rng.randrange(1, 5))]
        coeffs = [rng.randrange(-101, 202) for _ in basis]
        expected = sum((b * c for c, b in zip(coeffs, basis)), R.zero())
        assert linear_combination(coeffs, basis) == expected
    with pytest.raises(ValueError, match="empty basis"):
        linear_combination((), ())
    with pytest.raises(RingMismatchError, match="several rings"):
        linear_combination((1, 1), (x, polynomial_ring(101, "x y").var("x")))
    # Nothing is dropped: every coefficient meets one basis element.
    for coeffs in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="coefficients for a basis of 2"):
            linear_combination(coeffs, (x, y))


def test_random_linear_combination_validation():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    with pytest.raises(ValueError):
        random_linear_combination([], random.Random(0))
    other = polynomial_ring(101, "x y z").var("z")
    with pytest.raises(RingMismatchError, match="several rings"):
        random_linear_combination([x, other], random.Random(0))


def test_substitute_is_a_ring_map():
    R = polynomial_ring(101, "x y")
    T = polynomial_ring(101, "s t")
    s, t = T.gens()
    images = [s + t, s * t]
    rng = random.Random(13)
    for _ in range(100):
        f = random_poly(R, rng, max_degree=2, terms=3)
        g = random_poly(R, rng, max_degree=2, terms=3)
        fs = substitute(f, images, T)
        gs = substitute(g, images, T)
        assert substitute(f + g, images, T) == fs + gs
        assert substitute(f * g, images, T) == fs * gs


def test_polynomial_hash_consistency():
    R = polynomial_ring(101, "x y")
    x, y = R.gens()
    a = x + y
    b = y + x
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != x
    assert (x * 0) == 0
