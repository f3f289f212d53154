"""genmat benchmark: seeded oracle workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --smoke

One workload runs per process, as a closed loop with one client: each op
starts when the previous one has returned and been judged.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with their sample counts.

``--trace 0`` reports the end-to-end metrics.  Its times are the
thread CPU time of each set-up or op, in reference seconds: scaled by
how fast the host ran a fixed pure-Python loop just before and just
after it (see ``host_pace``), because a shared host can slow this
process by half for minutes at a time.  genmat's ops do no I/O and wait
on nothing, so CPU time is their wall time less the time the host gave
the CPU to someone else.  ``--trace 1`` runs the
ops untraced for half of ``--seconds`` and traced for the other half,
each from op 0 on a fresh instance, compares the two digest streams,
and reports the per-layer metrics of the traced half.

``--all`` runs every workload in a fresh process, untraced and then
traced, and prints one table.  ``--smoke`` runs every workload with two
ops per phase: known-answer checks and the traced/untraced digest
comparison, without timing anything worth reading.

Per-op digests are kept in ``.bench_state/digests`` under the checkout,
keyed by workload, seed and a hash of ``src/genmat/*.py`` and
``bench/workloads.py``, so a repeated run of the same code and seed is
checked against the earlier ones; only a run without failures writes
them.  The spans of the last traced run of a workload go to
``.bench_state/spans-<workload>.tsv.gz``.

The metric names and units come from ``BENCHMARK.json`` beside
``bench/``: ``end_to_end`` for ``--trace 0``, ``per_layer`` for
``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_state"

SETUP_MIN = 5
SETUP_MAX = 200
SETUP_SECONDS = 1.0
PACE_REF_S = 0.00036  # host_pace() of the Baseline machine in bench/README.md at its fastest
SMOKE_OPS = 2
MIN_SELF_FRAC = 0.95


def _metric_lists():
    """(name, unit) pairs of the end-to-end and per-layer metrics."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        sys.exit(f"bench: {spec.name} not found beside bench/")
    doc = json.loads(spec.read_text())
    return tuple(
        tuple((m["name"], m["unit"]) for m in doc[key]) for key in ("end_to_end", "per_layer")
    )


def _import_genmat():
    """Import genmat from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "genmat" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package.relative_to(ROOT)} not found; run from a genmat checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import genmat

    if Path(genmat.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported genmat from {genmat.__file__}, not from this checkout")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _code_hash() -> str:
    """Hash of the genmat sources under test and of the input generators."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "genmat").glob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _tail(latencies):
    """Latency at the highest percentile with at least ten samples above it;
    under 22 samples that percentile is not above the median, so p90."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 22 else max(0, -(-9 * n // 10) - 1)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def _pace_loop() -> dict:
    acc: dict = {}
    for i in range(1200):
        k = (i % 13, i % 5, i % 7)
        acc[k] = (acc.get(k, 1) * 31 + i) % 32003
    return {k: v for k, v in acc.items() if v & 1}


def host_pace() -> float:
    """Least thread CPU time of three runs of a fixed loop of tuple keys,
    dict updates and modular integers, the kind of work genmat's
    polynomials do, with the cycle collector off so that the size of
    genmat's heap does not enter: how fast the host runs this process now."""
    clock = time.thread_time
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t0 = clock()
            _pace_loop()
            best = min(best, clock() - t0)
    finally:
        gc.enable()
    return best


def reference_seconds(cpu: list[float], paces: list[float]) -> list[float]:
    """Scale interval k by PACE_REF_S over the mean of the paces measured
    just before it (``paces[k]``) and just after it (``paces[k + 1]``)."""
    return [t * 2 * PACE_REF_S / (a + b) for t, a, b in zip(cpu, paces, paces[1:])]


class Phase:
    """Ops run on one instance: wall and CPU latencies, digests, failed ops.

    The measured ops are whole passes over the workload's input pool
    (``period`` ops), so that every program is timed on the same mix of
    inputs however many ops it completes; only a smoke run, cut at
    ``max_ops``, can end inside a pass.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.paces: list[float] = []
        self.digests: list[str] = []
        self.failures: dict[int, str] = {}
        self.rss_kb = None

    def fail(self, i: int, problem: str) -> None:
        self.failures.setdefault(i, problem)

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.op_seconds if self.latencies else 0.0


def run_ops(w, ready, seconds: float, max_ops: int | None, tracer=None, pace=False) -> Phase:
    """Op 0 warms caches and is judged but not timed; ops 1.. are measured
    in whole passes over the input pool, at least one, while another pass
    as long as the last would still end within ``seconds`` of wall time
    (judging included), or until op ``max_ops``.  With ``pace``,
    ``host_pace`` runs before every measured op and after the last."""
    from tracing import WARMUP_OP

    phase = Phase()
    clock = time.perf_counter
    deadline = clock() + seconds
    pass_start = clock()
    i = 0
    while True:
        if tracer is not None:
            tracer.current_op = WARMUP_OP if i == 0 else i
        if pace and i > 0:
            phase.paces.append(host_pace())
        c0 = time.thread_time()
        t0 = clock()
        try:
            out, error = w.op(ready, i), None
        except Exception as exc:  # a raising or refusing op is a failed op
            out, error = None, exc
        t1 = clock()
        c1 = time.thread_time()
        if error is None:
            try:
                digest, problem = w.judge(ready, i, out)
            except Exception as exc:  # an output the judge cannot read is wrong
                digest, problem = f"unreadable:{exc!r}", f"judge raised {exc!r}"
        else:
            digest, problem = f"error:{type(error).__name__}", f"op raised {error!r}"
        phase.digests.append(_digest(digest))
        if problem is not None:
            phase.fail(i, problem)
        if i > 0:
            phase.latencies.append(t1 - t0)
            phase.cpu.append(c1 - c0)
            if len(phase.latencies) == w.rss_ops:
                phase.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        i += 1
        if max_ops is not None and i > max_ops:
            break
        if i > 1 and len(phase.latencies) % w.period == 0:
            now = clock()
            if now + (now - pass_start) > deadline:
                break
            pass_start = now
    if phase.rss_kb is None:
        phase.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pace:
        phase.paces.append(host_pace())
    return phase


def _compare_digests(phase: Phase, reference: list[str], what: str) -> None:
    for i, (a, b) in enumerate(zip(reference, phase.digests)):
        if a != b:
            phase.fail(i, f"digest differs from {what}")


def _check_history(name: str, seed: int, phase: Phase, clean: bool) -> None:
    """Compare per-op digests with earlier runs of the same code and seed;
    a ``clean`` run (no failed op, no failed check) that also matches here
    keeps its stream if it is the longest seen."""
    folder = STATE / "digests"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{name}-{seed}-{_code_hash()}.txt"
    earlier = path.read_text().split() if path.exists() else []
    _compare_digests(phase, earlier, f"an earlier run of seed {seed}")
    if clean and not phase.failures and len(phase.digests) > len(earlier):
        path.write_text("\n".join(phase.digests) + "\n")


def _set_up(w):
    """Repeated fresh set-ups; returns the last instance, the wall and CPU
    time of each, and the host paces around them."""
    wall: list[float] = []
    cpu: list[float] = []
    paces = [host_pace()]
    while len(wall) < SETUP_MIN or (sum(wall) < SETUP_SECONDS and len(wall) < SETUP_MAX):
        c0 = time.thread_time()
        t0 = time.perf_counter()
        ready = w.setup()
        wall.append(time.perf_counter() - t0)
        cpu.append(time.thread_time() - c0)
        paces.append(host_pace())
    return ready, wall, cpu, paces


def _end_to_end(w, phase: Phase, setup_times, end_to_end):
    setup_wall, setup_cpu, setup_paces = setup_times
    lat = reference_seconds(phase.cpu, phase.paces)
    setup = reference_seconds(setup_cpu, setup_paces)
    tail, pct, beyond = _tail(lat)
    attempted = len(phase.digests)
    failed = len(phase.failures)
    pace = statistics.median(phase.paces) / PACE_REF_S
    measured = (
        f"measured wall {statistics.median(phase.latencies):.6g} s, "
        f"CPU {statistics.median(phase.cpu):.6g} s, host pace {pace:.3f}x ref"
    )
    values = {
        "ops_per_s": (
            len(lat) / sum(lat),
            f"{len(lat)} ops in {sum(lat):.2f} ref s; {phase.op_seconds:.2f} s wall",
        ),
        "op_p50_s": (statistics.median(lat), f"n={len(lat)}; {measured}"),
        "op_tail_s": (tail, f"p{pct:.1f}, {beyond} samples beyond, n={len(lat)}"),
        "setup_s": (
            statistics.median(setup),
            f"median of {len(setup)} fresh set-ups; wall {statistics.median(setup_wall):.6g} s",
        ),
        "peak_rss_mb": (phase.rss_kb / 1024, f"after set-up and {min(len(lat), w.rss_ops)} ops"),
        "ok_frac": (
            1 - failed / attempted,
            f"failed_frac={failed / attempted:g}, {failed} of {attempted} ops",
        ),
    }
    metrics = {k: (values[k][0], u) for k, u in end_to_end}
    lines = [f"  {k:<12} {values[k][0]:<12.6g} {u:<6} ({values[k][1]})" for k, u in end_to_end]
    return metrics, lines


def _traced(w, ready, seconds: float, max_ops: int | None, per_layer):
    """Untraced ops, then the same ops traced on a fresh instance."""
    from tracing import Tracer

    untraced = run_ops(w, ready, seconds / 2, max_ops)
    del ready
    tracer = Tracer()
    tracer.install()
    try:
        ready = w.setup()
        if hasattr(ready, "instance"):
            tracer.wrap_handles(ready.instance)
        traced = run_ops(w, ready, seconds / 2, max_ops, tracer)
    finally:
        tracer.uninstall()
    _compare_digests(traced, untraced.digests, "the untraced run")
    STATE.mkdir(exist_ok=True)
    tracer.write(STATE / f"spans-{w.name}.tsv.gz")
    values = tracer.layer_metrics(per_layer, len(traced.latencies), traced.op_seconds)
    values["bench.untraced_ops_per_s"] = (untraced.ops_per_s(), "1/s")
    values["bench.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
    values["bench.trace_overhead"] = (
        untraced.ops_per_s() / traced.ops_per_s() if traced.latencies else 0.0,
        "ratio",
    )
    metrics = {k: values[k] for k, _ in per_layer}
    problems = []
    self_frac = values["bench.layer_self_frac"][0]
    if self_frac < MIN_SELF_FRAC:
        problems.append(
            f"layer self times cover {self_frac:.3f} of the traced op time, under {MIN_SELF_FRAC}"
        )
    lines = [f"  {k:<46} {v:<12.6g} {u}" for k, (v, u) in metrics.items()]
    return [untraced, traced], metrics, lines, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from workloads import WORKLOADS

    end_to_end, per_layer = _metric_lists()
    w = WORKLOADS[name](ROOT, seed)
    max_ops = SMOKE_OPS if smoke else None
    try:
        problems = [f"check: {p}" for p in w.check(w.setup())]
    except Exception as exc:  # a known-answer check that raises has failed
        problems = [f"check raised {exc!r}"]
    if trace:
        phases, metrics, lines, trace_problems = _traced(w, w.setup(), seconds, max_ops, per_layer)
        problems += trace_problems
    else:
        ready, *setup_times = _set_up(w)
        phases = [run_ops(w, ready, seconds, max_ops, pace=True)]
        metrics, lines = _end_to_end(w, phases[0], setup_times, end_to_end)
    longest = max(phases, key=lambda ph: len(ph.digests))
    clean = not problems and not any(ph.failures for ph in phases)
    _check_history(name, seed, longest, clean)
    for ph in phases:
        problems += [f"op {i}: {p}" for i, p in sorted(ph.failures.items())]
    failed = sum(len(ph.failures) for ph in phases)
    print(
        f"{name} seed={seed} trace={int(trace)}: "
        f"{sum(len(ph.latencies) for ph in phases)} measured ops, {failed} failed"
    )
    print("\n".join(lines))
    for p in problems[:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(ph.digests) for ph in phases),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(done.stdout.splitlines()[-1])


def run_all(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload in a fresh process; smoke runs only the traced mode."""
    from workloads import WORKLOADS

    results = []
    for name in WORKLOADS:
        for trace in ((1,) if smoke else (0, 1)):
            results.append((name, trace, _child(name, seed, seconds, trace, smoke)))
    print("\nsummary")
    for name, trace, res in results:
        m = res["metrics"]
        if trace:
            shown = ["bench.trace_overhead", "bench.layer_self_frac"]
        else:
            shown = [k for k, _ in _metric_lists()[0]]
        cells = " ".join(f"{k}={m[k]['value']:.4g}" for k in shown if k in m)
        print(f"  {name:<17} trace={trace} correct={res['correct']} {cells}")
    return {
        "correct": all(r["correct"] for _, _, r in results),
        "attempted": sum(r["attempted"] for _, _, r in results),
        "failed": sum(r["failed"] for _, _, r in results),
        "metrics": {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--smoke", action="store_true", help="two ops per phase, checks only")
    args = parser.parse_args(argv)
    _import_genmat()
    from workloads import WORKLOADS

    if args.workload is None:
        if not (args.all or args.smoke):
            parser.error("give --workload, --all or --smoke")
        result = run_all(args.seed, args.seconds, args.smoke)
    elif args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    else:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace or args.smoke), args.smoke
        )
        print(json.dumps(result))
        return 0  # a wrong output is reported in the result, not the exit code
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
