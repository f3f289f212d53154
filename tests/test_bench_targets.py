"""The benchmark's tracer must find every genmat name it wraps and read
the verdicts it notes."""

import importlib.util
from pathlib import Path

from genmat.algebra import equigenerated_ideal, is_reduction, standard_graded_algebra
from genmat.polyring import polynomial_ring

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = []
    for module, attr, name, _ in tracing.TARGETS:
        if "." in attr:
            # A dotted attribute is a method, wrapped on its class.
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{module.__name__}.{attr} ({name})")
    assert not missing, f"traced names missing from genmat: {missing}"


def test_verdict_note_reads_the_reduction_witness():
    # The tracer counts fiber-decided negatives and averages powers from
    # the verdict's witness; a changed witness shape must fail here
    # rather than read as zero.
    tracing = _load_tracing()
    R = polynomial_ring(32003, "x y")
    x, y = R.gens()
    P = standard_graded_algebra(R)
    m = equigenerated_ideal(P, (x, y))
    I = equigenerated_ideal(P, (x**4, x**3 * y, x * y**3, y**4))
    verdicts = [
        is_reduction(equigenerated_ideal(P, (x + y, x - y)), m),
        is_reduction(equigenerated_ideal(P, (x,)), m),
        is_reduction(equigenerated_ideal(P, (x**4, y**4)), I, n_max=1),
    ]
    assert [v.status for v in verdicts] == ["yes", "no", "inconclusive"]
    notes = [tracing._verdict_note((), {}, v) for v in verdicts]
    assert notes == [(1, False), (0, True), (0, False)]
