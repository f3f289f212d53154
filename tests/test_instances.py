"""The five instance constructors and their handle semantics."""

import pytest

from genmat import groebner
from genmat.algebra import (
    InconclusiveError,
    equigenerated_ideal,
    graded_algebra,
    standard_graded_algebra,
)
from genmat.instances import (
    complete_reduction_instance,
    finite_matroid,
    minred_instance,
    nn_instance,
    vector_matroid,
)
from genmat.matroid import exchange_path, exchange_step
from genmat.polyring import polynomial_ring


def segre():
    R = polynomial_ring(32003, "x1 x2 y1 y2")
    S = graded_algebra(R, ((1, 0), (1, 0), (0, 1), (0, 1)))
    return S, R.gens()


def _empty_handles(constructor: str):
    R = polynomial_ring(101, "a b c")
    a, b, c = R.gens()
    S = standard_graded_algebra(R)
    I = equigenerated_ideal(S, (a, b, c))
    return {
        "finite_matroid": lambda: finite_matroid("ab", [("a", "b")], handles={}),
        "vector_matroid": lambda: vector_matroid(5, [(1, 0), (0, 1)], handles={}),
        "nn_instance": lambda: nn_instance(S, handles={}),
        "minred_instance": lambda: minred_instance(I, handles={}),
        "complete_reduction_instance": lambda: complete_reduction_instance((I,), handles={}),
    }[constructor]


@pytest.mark.parametrize(
    "constructor",
    ["finite_matroid", "vector_matroid", "nn_instance", "minred_instance", "complete_reduction_instance"],
)
def test_empty_handles_are_refused_by_every_constructor(constructor):
    # None gives the default handles; a given mapping is used as given.
    with pytest.raises(ValueError, match="at least one handle"):
        _empty_handles(constructor)()


def test_finite_matroid_validation():
    with pytest.raises(ValueError, match="duplicate ground"):
        finite_matroid("aab", [("a", "b")])
    with pytest.raises(ValueError, match="empty basis family"):
        finite_matroid("ab", [])
    with pytest.raises(ValueError, match="share one size"):
        finite_matroid("abc", [("a",), ("b", "c")])
    with pytest.raises(ValueError, match="leaves the ground"):
        finite_matroid("ab", [("a", "q")])
    with pytest.raises(ValueError, match="contains no basis"):
        finite_matroid("abcd", [("a", "b")], handles={"bad": ("c", "d")})


def test_finite_matroid_handle_carrier():
    # The carrier keeps only elements usable inside the handle.
    fm = finite_matroid("abcd", [("a", "b"), ("c", "d")], handles={"left": "abc"})
    assert fm.handles["left"].elements == ("a", "b")
    assert fm.handles["left"].contains("a") and not fm.handles["left"].contains("c")


def test_vector_matroid_basics():
    vm = vector_matroid(5, [(1, 0), (0, 1), (1, 1), (2, 2), (0, 0)])
    assert vm.rank == 2
    assert vm.is_basis(((1, 0), (0, 1)))
    assert not vm.is_basis(((1, 1), (2, 2)))  # parallel mod 5
    assert not vm.is_basis(((1, 0),))
    assert not vm.is_basis(((1, 0), (0, 1), (1, 1)))
    assert not vm.is_basis(((1, 0), (0, 1, 0)))
    assert not vm.is_basis(("ab", (0, 1)))
    ground = vm.handles["ground"]
    assert (0, 0) not in ground.elements  # loops never exchange in
    assert not ground.contains((0, 0))


def test_vector_matroid_validation():
    with pytest.raises(ValueError):
        vector_matroid(6, [(1, 0)])
    with pytest.raises(ValueError, match="share one length"):
        vector_matroid(5, [(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        vector_matroid(5, [(1, 0), (6, 5)])  # equal after reduction
    with pytest.raises(ValueError, match="contains no basis"):
        vector_matroid(5, [(1, 0), (0, 1), (2, 0)], handles={"thin": [(1, 0), (2, 0)]})


def test_classical_handles_stay_in_the_ground_set():
    # (2, 3) is no ground vector: the handle is refused, and the oracle
    # rejects it as a candidate.  Handle vectors are read mod p, as the
    # ground's are, so (6, 0) is the ground vector (1, 0).
    ground = [(1, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError, match="handle 'h' leaves the ground set"):
        vector_matroid(5, ground, handles={"h": [(6, 0), (0, 1), (2, 3)]})
    vm = vector_matroid(5, ground, handles={"h": [(6, 0), (0, 1)]})
    assert vm.handles["h"].elements == ((0, 1), (1, 0))
    assert vm.is_basis(((1, 1), (0, 1)))
    assert not vm.is_basis(((2, 3), (0, 1)))
    with pytest.raises(ValueError, match="handle 'h' leaves the ground set"):
        finite_matroid("ab", [("a", "b")], handles={"h": "abq"})


def test_nn_instance_quadric():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    inst = nn_instance(S)
    assert inst.rank == 3
    assert inst.is_basis((x + y, z, w))
    assert inst.is_basis((x, y, z + w))
    assert not inst.is_basis((x, z, w))
    # Malformed candidates answer False instead of raising.
    assert not inst.is_basis((x, y))
    assert not inst.is_basis((x * y, z, w))
    assert not inst.is_basis((x, y, 7))
    other = polynomial_ring(101, "x y z w").var("x")
    assert not inst.is_basis((other, z, w))
    amb = inst.handles["ambient"]
    assert amb.contains(x + 5 * y) and not amb.contains(x * y)
    # A handle vets its elements first: a form of another ring is none.
    assert not amb.contains(other)


def test_nn_instance_handle_validation():
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    S = standard_graded_algebra(R)
    with pytest.raises(ValueError, match="not linear"):
        nn_instance(S, handles={"bad": (x, y**2)})
    with pytest.raises(ValueError, match="at least one form"):
        nn_instance(S, handles={"empty": ()})
    R2 = polynomial_ring(32003, "x1 x2 y1 y2")
    seg = graded_algebra(R2, ((1, 0), (1, 0), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="standard graded"):
        nn_instance(seg)


def test_nn_instance_trivial_rank_zero():
    R = polynomial_ring(32003, "x")
    x = R.var("x")
    S = standard_graded_algebra(R, (x**2,))
    inst = nn_instance(S)
    assert inst.rank == 0
    assert inst.is_basis(())
    assert not inst.is_basis((x,))
    path = exchange_path(inst, (), "ambient", seed=1)
    assert path.steps == () and path.final == ()


def test_minred_instance_quadric_family():
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    m = equigenerated_ideal(S, (x, y, z, w))
    inst = minred_instance(m)
    assert inst.rank == 3
    assert inst.is_basis((x + y, z, w))
    assert inst.is_basis((x, y, z + w))
    assert not inst.is_basis((x, z, w))
    assert not inst.is_basis((y, z, w))
    assert not inst.is_basis((z + w, z, w))
    assert not inst.is_basis((x + y, z, w, x))
    assert not inst.is_basis((x * y, z * w, w * w))


def test_minred_instance_rejects_wrong_degree_candidates():
    # Degree-2 forms inside m are no reduction of it, but the oracle's
    # degree check rejects them before any verdict is asked.
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    inst = minred_instance(equigenerated_ideal(S, (x, y, z, w)), n_max=2)
    assert not inst.is_basis((x**2, y**2, z**2))
    assert not inst.handles["generators"].contains(x**2)


@pytest.mark.parametrize("error", [AttributeError, ValueError])
def test_library_failures_propagate_from_oracles(monkeypatch, error):
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    seg, (x1, x2, y1, y2) = segre()

    def broken(*args, **kwargs):
        raise error("library fault")

    cases = [
        ("is_noether_normalization", lambda: nn_instance(S), (x + y, z, w)),
        (
            "is_minimal_reduction",
            lambda: minred_instance(equigenerated_ideal(S, (x, y, z, w))),
            (x + y, z, w),
        ),
        (
            "is_complete_reduction_ring",
            lambda: complete_reduction_instance(seg),
            ((x1, y1), (x2, y2), (x1 + x2, y1 + y2)),
        ),
    ]
    for verdict, build, basis in cases:
        inst = build()
        with monkeypatch.context() as patched:
            patched.setattr(f"genmat.instances.{verdict}", broken)
            with pytest.raises(error, match="library fault"):
                inst.is_basis(basis)


def test_minred_instance_handle_validation():
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    S = standard_graded_algebra(R)
    I = equigenerated_ideal(S, (x**2, x * y))
    with pytest.raises(ValueError, match="wrong degree"):
        minred_instance(I, handles={"bad": (x,)})
    with pytest.raises(ValueError, match="outside the ideal"):
        minred_instance(I, handles={"bad": (y**2,)})


def test_minred_instance_inconclusive_is_loud():
    # (x^4, y^4) reduces this ideal only at power two, so a power
    # bound of one leaves the oracle undecided and it must say so.
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    S = standard_graded_algebra(R)
    I = equigenerated_ideal(S, (x**4, x**3 * y, x * y**3, y**4))
    inst = minred_instance(I, n_max=1)
    with pytest.raises(InconclusiveError):
        inst.is_basis((x**4, y**4))
    settled = minred_instance(I, n_max=3)
    assert settled.is_basis((x**4, y**4))


def test_an_entry_outside_its_ideal_is_a_rejection():
    # The containment tests raise OutsideIdealError; the oracle reads it
    # as "not a basis", for bare forms and for columns alike.
    R = polynomial_ring(32003, "x y z")
    x, y, z = R.gens()
    I = equigenerated_ideal(standard_graded_algebra(R), (x**2, x * y, y**2))
    assert minred_instance(I).is_basis((x**2, y**2))
    assert not minred_instance(I).is_basis((x**2, z**2))
    inst = complete_reduction_instance((I, I))
    assert inst.is_basis(((x**2, x**2), (y**2, y**2)))
    assert not inst.is_basis(((x**2, z**2), (y**2, y**2)))


def test_complete_reduction_ring_instance():
    S, (x1, x2, y1, y2) = segre()
    for variant in ("matrix", "vector"):
        inst = complete_reduction_instance(S, variant=variant)
        assert inst.rank == 3
        good = ((x1, y1), (x2, y2), (x1 + x2, y1 + y2))
        assert inst.is_basis(good)
        assert not inst.is_basis(((x1, y1), (x2, y2), (x1, y1 + y2)))
        assert not inst.is_basis(good[:2])
        assert not inst.is_basis(((x1, y1), (x2, y2), x1))
        cert = exchange_step(inst, good, good[0], "ambient", seed=4)
        assert inst.verify(cert.basis_after)


def test_complete_reduction_ring_trivial_rank_zero():
    # (xy)^2 = 0 leaves a nonzero (1,1) piece whose diagonal ring is
    # finite-dimensional, so the one basis is the empty column set.
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    S = graded_algebra(R, ((1, 0), (0, 1)), (x**2 * y**2,))
    inst = complete_reduction_instance(S)
    assert inst.rank == 0
    assert inst.is_basis(())
    assert not inst.is_basis(((x, y),))


def test_complete_reduction_contains_variant_semantics():
    # Crossed blocks span the same components, so the matrix carrier
    # keeps the straight column; the shared-coefficient carrier does
    # not.
    S, (x1, x2, y1, y2) = segre()
    crossed = {"crossed": ((x1, x2), (y2, y1))}
    mat = complete_reduction_instance(S, variant="matrix", handles=crossed)
    vec = complete_reduction_instance(S, variant="vector", handles=crossed)
    straight = (x1, y1)
    assert mat.handles["crossed"].contains(straight)
    assert not vec.handles["crossed"].contains(straight)
    assert vec.handles["crossed"].contains((x1, y2))
    assert vec.handles["crossed"].contains((x1 + x2, y1 + y2))


def test_complete_reduction_vector_sampler_shares_coefficients():
    S, (x1, x2, y1, y2) = segre()
    inst = complete_reduction_instance(S, variant="vector")
    import random

    col = inst.handles["ambient"].sample(random.Random(11))
    cx = S.coordinates(col[0], (1, 0))
    cy = S.coordinates(col[1], (0, 1))
    assert cx == cy
    again = inst.handles["ambient"].sample(random.Random(11))
    assert again == col


def test_complete_reduction_instance_validation():
    S, (x1, x2, y1, y2) = segre()
    with pytest.raises(ValueError, match="variant"):
        complete_reduction_instance(S, variant="diagonal")
    with pytest.raises(ValueError, match="needs 2 blocks"):
        complete_reduction_instance(S, handles={"bad": ((x1, x2),)})
    with pytest.raises(ValueError, match="wrong degree"):
        complete_reduction_instance(S, handles={"bad": ((x1, y1), (y1, y2))})
    with pytest.raises(ValueError, match="equal block sizes"):
        complete_reduction_instance(
            S, variant="vector", handles={"bad": ((x1,), (y1, y2))}
        )
    complete_reduction_instance(S, variant="matrix", handles={"ok": ((x1,), (y1, y2))})
    # A component without variables leaves no diagonal, so no default handle either.
    empty = graded_algebra(polynomial_ring(101, "x y"), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match=r"the \(1,..,1\) graded piece is zero"):
        complete_reduction_instance(empty)


def test_complete_reduction_ideal_form():
    R = polynomial_ring(32003, "a b")
    a, b = R.gens()
    S = standard_graded_algebra(R)
    I = equigenerated_ideal(S, (a, b))
    inst = complete_reduction_instance((I, I), variant="matrix")
    assert inst.rank == 2
    assert inst.is_basis(((a, a), (b, b)))
    assert inst.is_basis(((a, a), (a + b, b)))
    # Swapped columns multiply to the same product a*b twice, which
    # generates too little.
    assert not inst.is_basis(((a, b), (b, a)))
    assert not inst.is_basis(((a, a), (a, b)))
    assert not inst.is_basis(((a, a),))
    cert = exchange_step(inst, ((a, a), (b, b)), (a, a), "generators", seed=6)
    assert inst.verify(cert.basis_after)


def test_complete_reduction_ideal_form_validation():
    R = polynomial_ring(32003, "a b")
    a, b = R.gens()
    S = standard_graded_algebra(R)
    I = equigenerated_ideal(S, (a, b))
    J = equigenerated_ideal(S, (a**2, a * b))
    with pytest.raises(ValueError, match="at least one ideal"):
        complete_reduction_instance(())
    with pytest.raises(ValueError, match="EquigeneratedIdeal"):
        complete_reduction_instance((I, "x"))
    with pytest.raises(ValueError, match="outside ideal 1"):
        complete_reduction_instance((I, J), handles={"bad": ((a, b), (b**2, a * b))})
    mixed = complete_reduction_instance((I, J))
    assert mixed.rank == 2
    assert mixed.is_basis(((a, a**2), (b, a * b)))


def test_instances_share_basis_across_handles():
    # Handle choice affects sampling, never the basis oracle.
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    S = standard_graded_algebra(R, (x * y - z * w,))
    inst = nn_instance(S, handles={"ambient": (x, y, z, w), "target": (x, y, z + w)})
    B = (x + y, z, w)
    assert inst.is_basis(B)
    for hname in ("ambient", "target"):
        path = exchange_path(inst, B, hname, seed=2)
        assert inst.verify(path.final)


def test_verify_recomputes_after_a_cached_verdict(monkeypatch):
    R = polynomial_ring(32003, "x y z w")
    x, y, z, w = R.gens()
    inst = nn_instance(standard_graded_algebra(R, (x * y - z * w,)))
    basis = (x + y, z, w)
    assert inst.is_basis(basis)
    runs = []
    completion = groebner._completion

    def counting(*args):
        runs.append(args)
        return completion(*args)

    monkeypatch.setattr(groebner, "_completion", counting)
    assert inst.verify(basis)
    assert runs
