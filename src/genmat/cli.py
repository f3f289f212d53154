"""Command-line front end.

Three subcommands:

    genmat check TASK [FILE]      run one verification oracle
    genmat exchange [FILE]        single exchange step, path, or
                                  statistical rate
    genmat demo                   the quadric hypersurface walkthrough

Verdict exit codes: 0 verified-true, 1 verified-false,
2 inconclusive, 3 input error, 4 exchange exhausted, 5 run failure
(a sampler or an exchange path gave up, reported on one ``error:``
line on stderr instead of a traceback).  Exchange and
demo runs are deterministic per seed; a missing --seed is generated
and printed.  With --json the report (schema genmat-report/1) goes to
stdout as pure JSON and, when FILE is absent, the document is read
from stdin.  The report's inputs echo holds the whole document, so a
saved report can be re-run byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import fields, is_dataclass
from typing import NamedTuple, Sequence

from .algebra import InconclusiveError, equigenerated_ideal, is_minimal_reduction
from .instancefile import (
    CHECK_TASKS,
    InstanceFileError,
    build_context,
    build_exchange,
    load_document,
    resolve_prime,
    resolve_removed,
    run_check,
)
from .matroid import (
    DEFAULT_MAX_TRIES,
    ExchangeExhausted,
    check_generic_exchange_statistical,
    exchange_path,
    exchange_step,
)
from .polyring import DEFAULT_PRIME

REPORT_SCHEMA = "genmat-report/1"

# The exit code of each verdict status and of each way a run can fail.
_EXIT = {
    "true": 0,
    "false": 1,
    "inconclusive": 2,
    "input error": 3,
    "exhausted": 4,
    "run failure": 5,
}


class _Run(NamedTuple):
    """What a subcommand found: the parts of its report, the lines of
    its text form, and its exit status."""

    task: str
    document: dict
    flags: dict
    verdicts: dict
    certificates: list
    seed: int | None
    lines: list
    status: str


def _json(value):
    """Report form of verdict details, certificates, paths and elements:
    a dataclass by its fields, a mapping by its values, a sequence as a
    list, a name, count, flag or None as it is, and anything else (a
    polynomial) by its text."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value if value is None or isinstance(value, (int, str)) else str(value)


def _step_text(cert) -> str:
    return f"{_json(cert.removed)} -> {_json(cert.inserted)} in {cert.attempts} attempt(s)"


def _read_document(path: str | None, as_json: bool) -> dict:
    if path is None:
        if not as_json:
            raise InstanceFileError("$", "pass a file, or --json to read stdin")
        return load_document(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_document(fh.read())
    except OSError as bad:
        raise InstanceFileError("$", f"cannot read {path}: {bad}") from bad


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    return random.SystemRandom().getrandbits(32)


def cmd_check(args) -> _Run:
    ctx = build_context(_read_document(args.file, args.json))
    outcome = run_check(ctx, args.task, n_max=args.n_max)
    detail = _json(outcome.detail)
    verdicts = {"task": args.task, "status": outcome.status, "detail": detail}
    lines = [
        f"task: {args.task} over F_{ctx.prime}",
        f"verdict: {outcome.status}"
        + (f" ({detail['verdict']})" if "verdict" in detail else ""),
    ]
    task = f"check:{args.task}"
    flags = {"n_max": args.n_max}
    return _Run(task, ctx.document, flags, verdicts, [], None, lines, outcome.status)


def cmd_exchange(args) -> _Run:
    ctx = build_context(_read_document(args.file, args.json))
    setup = build_exchange(ctx, variant=args.variant, n_max=args.n_max)
    handle = setup.default_handle(args.from_handle)
    seed = _seed_of(args)
    flags = {
        "remove": args.remove,
        "from": handle,
        "seed": seed,
        "trials": args.trials,
        "variant": args.variant,
        "max_tries": args.max_tries,
        "n_max": args.n_max,
    }
    inst = setup.instance
    lines = [f"instance: {inst.name} (rank {inst.rank}) over F_{ctx.prime}", f"seed: {seed}"]
    if args.trials is not None and args.remove is None:
        raise InstanceFileError("--remove", "statistical mode needs --remove")
    removed = None if args.remove is None else resolve_removed(setup, ctx, args.remove)
    certs = []
    status = "true"
    try:
        if args.trials is not None:
            rate = check_generic_exchange_statistical(
                inst, setup.start, removed, handle, trials=args.trials, seed=seed
            )
            verdicts = {"mode": "statistical", "trials": args.trials, "rate": rate}
            lines.append(f"rate: {rate:.3f} over {args.trials} trials")
        elif removed is not None:
            cert = exchange_step(
                inst, setup.start, removed, handle, seed=seed, max_tries=args.max_tries
            )
            verdicts = {"mode": "step", "attempts": cert.attempts}
            certs = [_json(cert)]
            lines.append(f"exchanged {_step_text(cert)}")
        else:
            path = exchange_path(
                inst, setup.start, handle, seed=seed, max_tries=args.max_tries
            )
            verdicts = {"mode": "path", "steps": len(path.steps)}
            certs = [_json(path)]
            lines.append(f"path of {len(path.steps)} step(s) into handle {handle!r}")
            lines.append(f"final basis: {_json(path.final)}")
    except ExchangeExhausted as spent:
        verdicts = {
            "mode": "exhausted",
            "attempts": spent.attempts,
            "rejected": _json(spent.rejected),
            "partial_steps": _json(spent.partial_path),
        }
        status = "exhausted"
        lines.append(f"exhausted after {spent.attempts} tries; rejected samples follow")
        lines.extend(f"  rejected: {_json(e)}" for e in spent.rejected)
    return _Run("exchange", ctx.document, flags, verdicts, certs, seed, lines, status)


def demo_document(prime: int) -> dict:
    """The quadric hypersurface instance, in the file schema."""
    return {
        "field": {"prime": prime},
        "ring": {
            "vars": [{"name": n, "multidegree": [1]} for n in ("x", "y", "z", "w")],
            "relations": ["x*y - z*w"],
        },
        "ideals": [{"name": "m", "generators": ["x", "y", "z", "w"]}],
        "check": {"ideal": "m", "candidate": ["x + y", "z", "w"]},
        "exchange": {
            "kind": "minred",
            "ideal": "m",
            "start": ["x + y", "z", "w"],
            "handles": [{"name": "target", "forms": ["x", "y", "z + w"]}],
            "traps": {"x": "x", "y": "y", "z+w": "z + w"},
        },
    }


DEMO_CANDIDATES = (
    (["x + y", "z", "w"], True),
    (["x", "y", "z + w"], True),
    (["x", "z", "w"], False),
    (["y", "z", "w"], False),
    (["z + w", "z", "w"], False),
)


def cmd_demo(args) -> _Run:
    prime = args.prime if args.prime is not None else resolve_prime({})
    ctx = build_context(demo_document(prime))
    seed = _seed_of(args)
    master = random.Random(seed)
    lines = [
        f"seed: {seed}",
        f"The quadric hypersurface algebra F_{prime}[x,y,z,w]/(x*y - z*w) has",
        "dimension 3, so a minimal reduction of its maximal ideal needs three",
        "degree-one forms.  Candidate verdicts:",
    ]
    m = ctx.ideals["m"]
    verdict_rows = []
    all_ok = True
    for texts, expected in DEMO_CANDIDATES:
        gens = tuple(ctx.ring.parse(t) for t in texts)
        got = is_minimal_reduction(equigenerated_ideal(ctx.algebra, gens), m)
        ok = got is expected
        all_ok = all_ok and ok
        verdict_rows.append(
            {"candidate": texts, "minimal_reduction": got, "expected": expected}
        )
        lines.append(
            f"  ({', '.join(texts)}): {'yes' if got else 'no'}"
            + ("" if ok else "  [UNEXPECTED]")
        )

    setup = build_exchange(ctx)
    inst = setup.instance
    lines.append("")
    lines.append("No single generator among x, y, z+w can replace x + y, but a")
    lines.append("random combination of them can.  Forced trap candidates:")
    trap_names = list(inst.traps)
    forced = [inst.traps[t] for t in trap_names]
    trap_cert = exchange_step(
        inst,
        setup.start,
        setup.start[0],
        "target",
        seed=master.getrandbits(32),
        forced=forced,
    )
    traps_rejected = _json(trap_cert.rejected[: len(forced)])
    all_ok = all_ok and len(traps_rejected) == len(forced)
    lines.extend(f"  {t}: rejected" for t in trap_names[: len(traps_rejected)])
    rate = check_generic_exchange_statistical(
        inst,
        setup.start,
        setup.start[0],
        "target",
        trials=args.trials,
        seed=master.getrandbits(32),
    )
    cert = exchange_step(
        inst, setup.start, setup.start[0], "target", seed=master.getrandbits(32)
    )
    lines.append("")
    lines.append(
        f"Random replacements succeed at rate {rate:.3f} over {args.trials} trials."
    )
    lines.append(f"One certificate: {_step_text(cert)}.")
    verdicts = {
        "candidates": verdict_rows,
        "traps_rejected": traps_rejected,
        "rate": rate,
        "trials": args.trials,
        "all_expected": all_ok,
    }
    flags = {"prime": prime, "trials": args.trials}
    certs = _json([trap_cert, cert])
    status = "true" if all_ok else "false"
    return _Run("demo", ctx.document, flags, verdicts, certs, seed, lines, status)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genmat",
        description="Verification oracles and generic exchange for graded algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one verification oracle")
    check.add_argument("task", choices=CHECK_TASKS)
    check.add_argument("file", nargs="?", help="instance JSON (stdin with --json)")
    check.add_argument("--n-max", type=int, default=None, help="reduction power bound")
    check.add_argument("--json", action="store_true", help="JSON report on stdout")
    check.set_defaults(func=cmd_check)

    exch = sub.add_parser("exchange", help="exchange step, path, or statistics")
    exch.add_argument("file", nargs="?", help="instance JSON (stdin with --json)")
    exch.add_argument("--remove", help="element to replace (polynomial, or column index)")
    exch.add_argument("--from", dest="from_handle", help="handle to sample from")
    exch.add_argument("--seed", type=int, default=None)
    exch.add_argument("--trials", type=int, default=None, help="statistical mode")
    exch.add_argument("--variant", choices=("matrix", "vector"), default="vector")
    exch.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES)
    exch.add_argument("--n-max", type=int, default=None)
    exch.add_argument("--json", action="store_true")
    exch.set_defaults(func=cmd_exchange)

    demo = sub.add_parser("demo", help="quadric hypersurface walkthrough")
    demo.add_argument("--prime", type=int, default=None, help=f"default {DEFAULT_PRIME}")
    demo.add_argument("--seed", type=int, default=None)
    demo.add_argument("--trials", type=int, default=200)
    demo.add_argument("--json", action="store_true")
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        run = args.func(args)
    except ValueError as bad:
        # InstanceFileError and the library's own input validation both
        # surface as ValueError; either way the question was malformed.
        print(f"error: {bad}", file=sys.stderr)
        return _EXIT["input error"]
    except InconclusiveError as open_verdict:
        print(f"inconclusive: {open_verdict}", file=sys.stderr)
        return _EXIT["inconclusive"]
    except RuntimeError as failed:
        # A sampler that kept drawing degenerate elements, or an exchange
        # path the oracle would not certify: the run, not the question, failed.
        print(f"error: {failed}", file=sys.stderr)
        return _EXIT["run failure"]
    report = {
        "schema": REPORT_SCHEMA,
        "task": run.task,
        "inputs": {"document": run.document, "flags": run.flags},
        "verdicts": run.verdicts,
        "certificates": run.certificates,
        "seed": run.seed,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    print(json.dumps(report, indent=2) if args.json else "\n".join(run.lines))
    return _EXIT[run.status]


if __name__ == "__main__":
    sys.exit(main())
