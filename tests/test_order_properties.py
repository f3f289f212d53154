"""Monomial-order axioms and the divisibility prefilter, as properties.

Every ``MonomialOrder`` key must be a strict total order on exponent
vectors that multiplication preserves, with 1 at the bottom, and must
agree with the textbook definitions in ``oracles.textbook_compare``;
``desc_key`` must list the same order largest first.  Division skips a
divisor whose support mask has a bit outside the monomial's mask, which
must never skip a true divisor.
"""

import pytest

from genmat.groebner import _bits, _support_mask
from genmat.polyring import GREVLEX, LEX, elimination_order, mon_divides, polynomial_ring

from oracles import textbook_compare

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def order_and_monomials(draw, count):
    nvars = draw(st.integers(1, 6))
    order = draw(
        st.sampled_from([GREVLEX, LEX] + [elimination_order(s) for s in range(1, nvars + 1)])
    )
    mono = st.tuples(*[st.integers(0, 4)] * nvars)
    return (order,) + tuple(draw(mono) for _ in range(count))


def _sign(x, y) -> int:
    return (x > y) - (x < y)


def _times(a, b):
    return tuple(x + y for x, y in zip(a, b))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
@hypothesis.given(order_and_monomials(3))
def test_order_keys_are_textbook_multiplicative_total_orders(drawn):
    order, a, b, c = drawn
    key, desc = order.key, order.desc_key
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
@hypothesis.given(order_and_monomials(2))
def test_support_mask_prefilter_never_rejects_a_divisor(drawn):
    _, a, c = drawn
    bits = _bits(polynomial_ring(101, [f"x{i}" for i in range(len(a))]))
    mask = _support_mask(a, bits)
    assert mask == sum(1 << i for i, e in enumerate(a) if e)
    for b in (_times(a, c), c):
        if mon_divides(a, b):
            assert not mask & ~_support_mask(b, bits)
