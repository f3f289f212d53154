"""Outside-in span recorder for genmat's public functions.

``Tracer.install`` wraps the functions and methods listed in ``TARGETS``
and rebinds every alias of them in genmat's modules (``algebra``
imports ``buchberger`` and friends by name, ``instances`` and
``instancefile`` import ``algebra`` functions by name), so that every
call is recorded, whoever makes it.  Handle closures live in frozen
``MatroidHandle`` objects; ``wrap_handles`` swaps each for a
``dataclasses.replace`` copy with wrapped ``contains`` and ``sample``.
Nothing under ``src/`` changes.

A span is (name, start, end, parent span, op id) plus a small note
taken from the call's arguments or result.  Spans stay in memory in
flat arrays until ``write`` saves them; ``layer_metrics`` derives self
time (duration minus the child spans) and the per-layer metrics.

The monomial-order ``key`` is called hundreds of thousands of times
inside ``normal_form`` and stays unwrapped: its cost is part of
``normal_form`` self time.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

from genmat import algebra, groebner, instancefile, linalg, matroid, polyring

SETUP_OP = -1
WARMUP_OP = -2


def _cells(args, kwargs, result):
    rows = args[0] if args else kwargs.get("rows", kwargs.get("basis_rows"))
    if not isinstance(rows, (list, tuple)) or not rows:
        return 0
    return len(rows) * len(rows[0])


def _buchberger_note(args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    return (len(ideal.generators), len(result.basis))


def _verdict_note(args, kwargs, result):
    fiber_no = ("fiber", False) in result.witness
    return (result.power or 0, fiber_no)


# (module, attribute, span name, note); a dotted attribute is a method.
TARGETS = (
    (polyring, "random_linear_combination", "polyring.random_linear_combination", None),
    (linalg, "row_echelon", "linalg.row_echelon", _cells),
    (linalg, "rank", "linalg.rank", _cells),
    (linalg, "independent", "linalg.independent", _cells),
    (linalg, "solve_coords", "linalg.solve_coords", _cells),
    (linalg, "in_span", "linalg.in_span", _cells),
    (groebner, "normal_form", "groebner.normal_form", lambda a, k, r: r.is_zero),
    (groebner, "buchberger", "groebner.buchberger", _buchberger_note),
    (groebner, "kernel_of_map", "groebner.kernel_of_map", None),
    (groebner, "krull_dimension", "groebner.krull_dimension", None),
    (groebner, "is_zero_dimensional", "groebner.is_zero_dimensional", None),
    (algebra, "is_reduction", "algebra.is_reduction", _verdict_note),
    (algebra, "fiber_reduction_test", "algebra.fiber_reduction_test", None),
    (algebra, "analytic_spread", "algebra.analytic_spread", None),
    (algebra, "diagonal_subring", "algebra.diagonal_subring", None),
    (algebra, "fiber_algebra", "algebra.fiber_algebra", None),
    (algebra, "is_complete_reduction_ring", "algebra.is_complete_reduction_ring", None),
    (algebra, "is_minimal_reduction", "algebra.is_minimal_reduction", None),
    (algebra, "GradedAlgebraPresentation.quotient_groebner", "algebra.quotient_groebner", None),
    (algebra, "GradedAlgebraPresentation.coordinates", "algebra.coordinates", None),
    (matroid, "exchange_step", "matroid.exchange_step", lambda a, k, r: r.attempts),
    (matroid, "GenericMatroidInstance.is_basis", "matroid.is_basis", None),
    (matroid, "GenericMatroidInstance.verify", "matroid.verify", None),
    (instancefile, "build_context", "instancefile.build_context", None),
    (instancefile, "build_exchange", "instancefile.build_exchange", None),
)


class Tracer:
    """Records nested spans of one thread into flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.current_op = SETUP_OP
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, name: str, fn, note=None):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        stack, clock = self._stack, time.perf_counter
        span_name, parent, op = self.span_name, self.parent, self.op
        start, end, notes = self.start, self.end, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind all of its aliases in genmat."""
        modules = [m for k, m in sys.modules.items() if k == "genmat" or k.startswith("genmat.")]
        for module, attr, name, note in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, note))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def wrap_handles(self, instance) -> None:
        for hname, h in list(instance.handles.items()):
            instance.handles[hname] = dataclasses.replace(
                h,
                contains=self._wrap("instances.contains", h.contains),
                sample=self._wrap("instances.sample", h.sample),
            )

    def write(self, path) -> None:
        """Save every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def layer_metrics(self, metrics, ops: int, op_seconds: float) -> dict:
        """Values of the named per-layer metrics over the ``ops`` measured ops.

        ``metrics`` is the ``per_layer`` list of BENCHMARK.json as (name,
        unit) pairs; ``bench.*`` names are left to the caller.  Unit
        ``s`` means a total over the one set-up recorded (a ``.setup``
        part before the stat is dropped from the span name); every other
        value is per measured op or a ratio over calls.  ``op_seconds``
        is the summed wall time of the measured ops.
        """
        n = len(self.span_name)
        names = [self.names[k] for k in self.span_name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        has_child = [False] * n
        miss = [False] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
                has_child[par] = True
                if names[i] == "groebner.buchberger" and names[par] == "algebra.quotient_groebner":
                    miss[par] = True

        acc: dict = defaultdict(float)
        setup: dict = defaultdict(float)
        for i in range(n):
            if self.op[i] == SETUP_OP:
                setup[names[i]] += dur[i]
            if self.op[i] < 0:  # set-up and warm-up spans
                continue
            name = names[i]
            self_s = dur[i] - child[i]
            acc["layer_self", ""] += self_s
            par = self.parent[i]
            if name == "groebner.normal_form":
                caller = "spair" if par >= 0 and names[par] == "groebner.buchberger" else "reduce"
                name = f"{name}.{caller}"
                acc[name, "zeros"] += self.notes[i]
            if name.startswith("linalg."):
                acc["linalg", "self_s"] += self_s
                if par < 0 or not names[par].startswith("linalg."):
                    acc["linalg", "calls"] += 1
                    acc["linalg", "cells"] += self.notes[i]
                continue
            acc[name, "calls"] += 1
            acc[name, "self_s"] += self_s
            acc[name, "total_s"] += dur[i]
            if name == "groebner.buchberger":
                gens, size = self.notes[i]
                acc[name, "input_gens"] += gens
                acc[name, "basis_size"] += size
            elif name == "algebra.is_reduction":
                power, fiber_no = self.notes[i]
                acc[name, "power_sum"] += power
                acc[name, "yes"] += power > 0
                acc[name, "fiber_no"] += fiber_no
            elif name == "algebra.quotient_groebner":
                acc[name, "misses"] += miss[i]
            elif name == "matroid.is_basis":
                acc[name, "hits"] += not has_child[i]
            elif name == "matroid.exchange_step":
                acc[name, "attempts"] += self.notes[i]

        def ratio(num, den):
            return acc[num] / acc[den] if acc[den] else 0.0

        # stat -> (numerator, denominator) for ratios over calls
        ratios = {
            "zero_ratio": ("zeros", "calls"),
            "input_gens": ("input_gens", "calls"),
            "basis_size": ("basis_size", "calls"),
            "power_mean": ("power_sum", "yes"),
            "miss_ratio": ("misses", "calls"),
            "hit_ratio": ("hits", "calls"),
        }
        per_op = {"calls", "self_s", "total_s", "cells", "fiber_no"}
        out = {}
        for metric, unit in metrics:
            if metric.startswith("bench."):
                continue
            *parts, stat = metric.split(".")
            if unit == "s":
                name = ".".join(parts[:-1] if parts[-1] == "setup" else parts)
                value = setup[name]
            elif metric == "matroid.accept_ratio":
                step = "matroid.exchange_step"
                value = ratio((step, "calls"), (step, "attempts"))
            elif stat in ratios:
                num, den = ratios[stat]
                value = ratio((".".join(parts), num), (".".join(parts), den))
            elif stat in per_op:
                value = acc[".".join(parts), stat] / ops if ops else 0.0
            else:
                raise ValueError(f"no rule for per-layer metric {metric}")
            out[metric] = (value, unit)
        out["bench.layer_self_frac"] = (
            acc["layer_self", ""] / op_seconds if op_seconds else 0.0, "ratio"
        )
        return out
