"""The benchmark's tracer must find every genmat name it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
