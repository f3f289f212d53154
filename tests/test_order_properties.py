"""Monomial-order axioms and the packed monomials, as properties.

Every ``MonomialOrder`` key (``oracles.order_key``, the negated
``desc_key``) must be a strict total order on exponent vectors that
multiplication preserves, with 1 at the bottom, and must agree with the
textbook definitions in ``oracles.textbook_compare``; ``desc_key`` must
list the same order largest first.  The Groebner engine's packed
monomials must convert back exactly, and their divisibility, lcm,
coprimality, integer keys and degrees must agree with the tuple
definitions.
"""

import pytest

from genmat.groebner import IdealSpec, _lcm, _Packing, buchberger, normal_form
from genmat.polyring import GREVLEX, LEX, elimination_order, mon_divides, polynomial_ring

from oracles import order_key, textbook_compare

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def order_and_monomials(draw, count, exponents=st.integers(0, 4)):
    nvars = draw(st.integers(1, 6))
    order = draw(
        st.sampled_from([GREVLEX, LEX] + [elimination_order(s) for s in range(1, nvars + 1)])
    )
    mono = st.tuples(*[exponents] * nvars)
    return (order,) + tuple(draw(mono) for _ in range(count))


def _sign(x, y) -> int:
    return (x > y) - (x < y)


def _times(a, b):
    return tuple(x + y for x, y in zip(a, b))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
@hypothesis.given(order_and_monomials(3))
def test_order_keys_are_textbook_multiplicative_total_orders(drawn):
    order, a, b, c = drawn
    desc = order.desc_key

    def key(m):
        return order_key(order, m)

    # Agreement with the textbook order; equal keys only for equal monomials.
    assert _sign(key(a), key(b)) == textbook_compare(order, a, b)
    assert (key(a) == key(b)) == (a == b)
    # desc_key is the same order reversed.
    assert _sign(desc(a), desc(b)) == -textbook_compare(order, a, b)
    # Transitivity on the drawn triple.
    if key(a) < key(b) and key(b) < key(c):
        assert key(a) < key(c)
    # Multiplying both sides by c keeps the comparison.
    assert _sign(key(_times(a, c)), key(_times(b, c))) == _sign(key(a), key(b))
    # 1 is the minimum.
    one = (0,) * len(a)
    assert key(one) <= key(a)
    assert (key(one) == key(a)) == (a == one)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
@hypothesis.given(order_and_monomials(3, st.integers(0, 4) | st.integers(0, (1 << 14) - 1)))
def test_packed_monomials_agree_with_tuples(drawn):
    order, a, b, c = drawn
    n = len(a)
    R = polynomial_ring(101, [f"x{i}" for i in range(n)])
    weights = [1 + i % 3 for i in range(n)]
    pk = _Packing(R, order, weights)

    def key(m):
        (k,) = pk.pack(R.monomial(m))
        return k

    def fields(m):
        return key(m) & pk.full

    guard = pk.guard
    # Every order ranks the variables x0 > x1 > ..., as the echelon of
    # the engine's linear generators assumes.
    assert list(pk.coeffs) == sorted(pk.coeffs)
    ka, kb, kc = key(a), key(b), key(c)
    # Round trips: key to tuple, and exponent fields back to the key.
    assert pk.monomial(ka) == a and pk.key(fields(a)) == ka
    # The key orders as desc_key does, and adds like a product.
    assert _sign(ka, kb) == _sign(order.desc_key(a), order.desc_key(b))
    assert key(_times(a, c)) == ka + kc
    # Division's guard-bit test, the lcm and coprimality against the
    # tuple definitions: a monomial reduces to 0 by another iff divisible.
    for m in (_times(a, c), b, c):
        remainder = normal_form(R.monomial(m), buchberger(IdealSpec(R, (R.monomial(a),)), order))
        assert remainder.is_zero == mon_divides(a, m)
    lcm = _lcm(fields(a), fields(b), guard)
    assert lcm == fields(tuple(map(max, a, b)))
    assert (lcm == fields(a) + fields(b)) == (not any(x and y for x, y in zip(a, b)))
    # The selection degree is exact below its documented bound.
    if sum(a) * max(weights) < (1 << 16) - 1:
        assert pk.degree(fields(a)) == sum(map(lambda e, w: e * w, a, weights))
