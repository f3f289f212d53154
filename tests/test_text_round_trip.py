"""Polynomial text and instance documents round-trip, as properties.

``parse_polynomial`` must invert ``poly_to_str`` exactly for every
prime, including the zero polynomial, constants and coefficients that
print as negatives.  A document's echo (``InstanceContext.document``,
what a report writes under ``inputs``) must rebuild the same ring,
relations and ideals after a trip through JSON.
"""

import json

import pytest

from genmat.instancefile import build_context, load_document
from genmat.polyring import (
    GREVLEX,
    LEX,
    Polynomial,
    elimination_order,
    parse_polynomial,
    poly_to_str,
    polynomial_ring,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRIMES = (5, 101, 32003)
NAMES = ("x", "y1", "z_2", "Tw")


@st.composite
def rings(draw):
    p = draw(st.sampled_from(PRIMES))
    nvars = draw(st.integers(1, len(NAMES)))
    return polynomial_ring(p, NAMES[:nvars])


def _coefficient(p):
    # Any integer, so reduction mod p, 0 and the "negative" half
    # (printed as -c) are all drawn.
    return st.one_of(st.integers(-p, p), st.sampled_from((0, 1, -1, p // 2, p // 2 + 1)))


@st.composite
def polynomials(draw, ring):
    """A polynomial of ``ring`` with up to 5 terms; zero and constants
    included."""
    mono = st.tuples(*[st.integers(0, 4)] * ring.nvars)
    return Polynomial(ring, draw(st.dictionaries(mono, _coefficient(ring.field.p), max_size=5)))


@st.composite
def forms(draw, ring, degree):
    """A nonzero homogeneous polynomial of ``ring`` of ``degree``."""
    n, p = ring.nvars, ring.field.p
    mono = st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    terms = draw(st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=4))
    return Polynomial(ring, terms)


@st.composite
def ring_and_polynomial(draw):
    ring = draw(rings())
    return ring, draw(polynomials(ring))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(ring_and_polynomial())
def test_parse_inverts_print(drawn):
    R, f = drawn
    text = poly_to_str(f)
    assert parse_polynomial(R, text) == f
    # Printing in another order lists the same terms.
    for order in (LEX, elimination_order(1)):
        assert parse_polynomial(R, poly_to_str(f, order)) == f
    # The text is canonical: printing what was parsed gives it back.
    assert poly_to_str(parse_polynomial(R, text), GREVLEX) == text
    # Coefficients print as the symmetric representative in (-p/2, p/2].
    p = R.field.p
    for piece in text.replace(" - ", " + ").lstrip("-").split(" + "):
        head = piece.split("*")[0]
        if head.isdigit():
            assert int(head) <= p // 2


def test_round_trip_edge_cases():
    for p in PRIMES:
        R = polynomial_ring(p, "x y")
        x, y = R.gens()
        for f in (R.zero(), R.one(), R.const(-1), R.const(p // 2 + 1), -x, x - y * R.const(2)):
            assert parse_polynomial(R, poly_to_str(f)) == f
        assert poly_to_str(R.zero()) == "0"
        assert poly_to_str(R.const(-1)) == "-1"


@st.composite
def documents(draw):
    """An instance document with homogeneous relations and equigenerated
    ideals written by ``poly_to_str``, and the polynomials it names."""
    R = draw(rings())
    degrees = draw(st.lists(st.integers(1, 3), max_size=2))
    relations = [draw(forms(R, d)) for d in degrees]
    ideals = []
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(1, 3))
        ideals.append(draw(st.lists(forms(R, degree), min_size=1, max_size=3)))
    doc = {
        "field": {"prime": R.field.p},
        "ring": {
            "vars": [{"name": n} for n in R.names],
            "relations": [poly_to_str(f) for f in relations],
        },
        "ideals": [
            {"name": f"I{k}", "generators": [poly_to_str(g) for g in gens]}
            for k, gens in enumerate(ideals)
        ],
    }
    return doc, relations, ideals


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
@hypothesis.given(documents())
def test_document_echo_rebuilds_the_same_instance(drawn):
    doc, relations, ideals = drawn
    ctx = build_context(load_document(json.dumps(doc)), env={})
    echo = json.loads(json.dumps(ctx.document))
    again = build_context(echo, env={})
    assert again.document == echo
    assert again.ring == ctx.ring
    assert again.algebra.relations.generators == ctx.algebra.relations.generators
    assert list(ctx.algebra.relations.generators) == relations
    assert list(again.ideals) == [f"I{k}" for k in range(len(ideals))]
    for k, gens in enumerate(ideals):
        assert again.ideals[f"I{k}"].generators == ctx.ideals[f"I{k}"].generators
        assert list(again.ideals[f"I{k}"].generators) == gens
