"""The four benchmark workloads: seeded inputs, one op each, known answers.

Every workload turns the workload seed into inputs, builds a ready
instance from them through genmat's public API (``setup``), runs one op
(``op``, the only timed call), and judges each op's output (``judge``)
against an answer computed here without genmat.  The input of op ``i``
depends only on (workload, seed, i), so any prefix of ops repeats
exactly, traced or not.  Inputs repeat with ``period`` ops; timing
metrics count whole periods only.

genmat functions are always reached through their module
(``algebra.is_reduction``, never a from-import), so that the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from genmat import algebra, instancefile, matroid, polyring

PRIME = 32003


def _op_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{i}")


def reduced_rows(rows, p: int | None = None):
    """Row echelon form over Q (``p`` None, exact Fractions) or over F_p.

    Independent of genmat.linalg on purpose: the known answers must not
    share code with what they check.  Returns (rows, pivot columns).
    """
    if p is None:
        work = [[Fraction(x) for x in row] for row in rows]
    else:
        work = [[x % p for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        inv = 1 / lead if p is None else pow(lead, p - 2, p)
        work[r] = [x * inv if p is None else x * inv % p for x in work[r]]
        for i in range(len(work)):
            c = work[i][col]
            if i != r and c:
                work[i] = [
                    x - c * y if p is None else (x - c * y) % p
                    for x, y in zip(work[i], work[r])
                ]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def _linear_coeffs(f, nvars: int) -> list[int]:
    """Coefficient vector of a linear form; ValueError for anything else."""
    coeffs = [0] * nvars
    for mon, c in f.terms.items():
        if sum(mon) != 1:
            raise ValueError(f"{f} is not a linear form")
        coeffs[mon.index(1)] = c
    return coeffs


class QuadricExchange:
    """exchange_step on the shipped quadric: remove x + y, handle target.

    Known answer: on F_p[x,y,z,w]/(xy - zw) with z, w kept, a candidate
    a*x + b*y + c*(z + w) completes a minimal reduction of m iff
    a*b != 0, since F_p[x,y]/(xy, ax + by) is finite exactly then.
    """

    name = "quadric-exchange"
    rss_ops = 500
    period = 1

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.text = (root / "instances" / "quadric.json").read_text()

    def setup(self):
        ctx = instancefile.build_context(instancefile.load_document(self.text))
        ex = instancefile.build_exchange(ctx)
        removed = instancefile.resolve_removed(ex, ctx, "x + y")
        return SimpleNamespace(
            ctx=ctx, instance=ex.instance, start=ex.start, removed=removed
        )

    def check(self, ready) -> list[str]:
        problems = []
        inst = ready.instance
        if not inst.verify(ready.start):
            problems.append("start basis rejected")
        traps = tuple(inst.traps.values())
        try:
            matroid.exchange_step(
                inst, ready.start, ready.removed, "target",
                seed=0, forced=traps, max_tries=len(traps),
            )
            problems.append("a forced trap was accepted")
        except matroid.ExchangeExhausted as stuck:
            if stuck.rejected != traps:
                problems.append(f"traps rejected: {list(map(str, stuck.rejected))}")
        return problems

    def op(self, ready, i):
        step_seed = _op_rng(self.name, self.seed, i).getrandbits(32)
        return matroid.exchange_step(
            ready.instance, ready.start, ready.removed, "target", seed=step_seed
        )

    def judge(self, ready, i, cert):
        ring = ready.ctx.ring
        p = ring.field.p
        ix, iy, iz, iw = (ring.index(v) for v in "xyzw")

        def good(f) -> bool:
            c = _linear_coeffs(f, ring.nvars)
            if c[iz] != c[iw]:
                raise ValueError(f"{f} lies outside the target span")
            return c[ix] * c[iy] % p != 0

        digest = f"{cert.inserted}|{cert.attempts}"
        if not good(cert.inserted):
            return digest, f"accepted {cert.inserted}, which has a*b = 0"
        bad = [str(f) for f in cert.rejected if good(f)]
        if bad:
            return digest, f"rejected good candidates {bad}"
        return digest, None


def _cubic_terms(rng: random.Random, nvars: int, p: int) -> dict:
    exps = []
    for combo in itertools.combinations_with_replacement(range(nvars), 3):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        exps.append(tuple(e))
    return {e: rng.randrange(1, p) for e in exps}


def _monomial_value(e, point) -> int:
    out = 1
    for x, k in zip(point, e):
        out = out * pow(x, k, PRIME) % PRIME
    return out


def _term_text(e, names) -> str:
    return "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k)


class CubicPower:
    """is_reduction(J, m) on a seeded cubic hypersurface in 5 variables.

    Known answer: four linear forms cut out one point P of P^4.  If F(P)
    != 0 they form a system of parameters of the Cohen-Macaulay ring
    S = F_p[x]/(F), whose h-vector (1, 1, 1) makes the reduction number
    exactly 2, so the verdict is "yes at power 2"; otherwise it is "no".
    """

    name = "cubic-power"
    rss_ops = 10
    period = 1
    nvars = 5

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.names = [f"x{k + 1}" for k in range(self.nvars)]
        self.cubic = _cubic_terms(random.Random(f"{self.name}/{seed}"), self.nvars, PRIME)
        relation = " + ".join(
            f"{c}*{_term_text(e, self.names)}" for e, c in self.cubic.items()
        )
        self.text = json.dumps({
            "field": {"prime": PRIME},
            "ring": {"vars": [{"name": n} for n in self.names], "relations": [relation]},
            "ideals": [{"name": "m", "generators": self.names}],
        })

    def setup(self):
        ctx = instancefile.build_context(instancefile.load_document(self.text))
        S = ctx.algebra
        m = ctx.ideals["m"]
        S.groebner()
        spread = algebra.analytic_spread(m)
        return SimpleNamespace(ctx=ctx, S=S, m=m, spread=spread)

    def check(self, ready) -> list[str]:
        problems = []
        if ready.spread != self.nvars - 1:
            problems.append(f"analytic spread {ready.spread}, expected {self.nvars - 1}")
        rng = random.Random(f"{self.name}/{self.seed}/dependent")
        gens = ready.S.ring.gens()
        f1, f2, f3 = (polyring.random_linear_combination(gens, rng)[0] for _ in range(3))
        J = algebra.equigenerated_ideal(ready.S, (f1, f2, f3, f1 + f2))
        if algebra.is_minimal_reduction(J, ready.m):
            problems.append("dependent candidate accepted as a minimal reduction")
        return problems

    def op(self, ready, i):
        rng = _op_rng(self.name, self.seed, i)
        gens = ready.S.ring.gens()
        forms = tuple(
            polyring.random_linear_combination(gens, rng)[0] for _ in range(self.nvars - 1)
        )
        J = algebra.equigenerated_ideal(ready.S, forms)
        return forms, algebra.is_reduction(J, ready.m)

    def judge(self, ready, i, out):
        forms, verdict = out
        digest = f"{[str(f) for f in forms]}|{verdict.describe()}"
        rows = [_linear_coeffs(f, self.nvars) for f in forms]
        echelon, pivots = reduced_rows(rows, PRIME)
        expected = "no"
        if len(pivots) == self.nvars - 1:
            free = next(c for c in range(self.nvars) if c not in pivots)
            point = [0] * self.nvars
            point[free] = 1
            for row, col in zip(echelon, pivots):
                point[col] = -row[free] % PRIME
            value = sum(
                c * _monomial_value(e, point) for e, c in self.cubic.items()
            ) % PRIME
            if value:
                expected = "yes (power 2)"
        if verdict.describe() != expected:
            return digest, f"verdict {verdict.describe()}, expected {expected}"
        return digest, None


def _completes_segre(weights, p: int) -> bool:
    """Do the columns (w.x, w.y) give a complete reduction of P^2 x P^2?

    The products (w_j.a)(w_j.b) all vanish at a point (a, b) iff every j
    has w_j.a = 0 or w_j.b = 0.  A nonzero a with w_j.a = 0 for all j in
    a set A exists iff those weights have rank < 3, so the columns fail
    iff some split of the indices into A and its complement has rank < 3
    on both sides.
    """
    def low(group) -> bool:
        return len(reduced_rows(group, p)[1]) < 3

    idx = range(len(weights))
    for size in range(len(weights) + 1):
        for part in itertools.combinations(idx, size):
            rest = [weights[j] for j in idx if j not in part]
            if low([weights[j] for j in part]) and low(rest):
                return False
    return True


class SegreExchange:
    """exchange_step (column 0) on the diagonal of P^2 x P^2, vector variant."""

    name = "segre-exchange"
    rss_ops = 50
    period = 1
    columns = 5

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            weights = [[rng.randrange(1, PRIME) for _ in range(3)] for _ in range(self.columns)]
            if _completes_segre(weights, PRIME):
                break
        self.start_weights = weights
        xs, ys = ["x1", "x2", "x3"], ["y1", "y2", "y3"]

        def form(w, names) -> str:
            return " + ".join(f"{c}*{n}" for c, n in zip(w, names))

        self.text = json.dumps({
            "field": {"prime": PRIME},
            "ring": {
                "vars": [{"name": n, "multidegree": [1, 0]} for n in xs]
                + [{"name": n, "multidegree": [0, 1]} for n in ys],
                "relations": [],
            },
            "exchange": {
                "kind": "complete-reduction-ring",
                "start": [[form(w, xs), form(w, ys)] for w in weights],
                "handles": [{"name": "ambient", "blocks": [xs, ys]}],
            },
        })

    def setup(self):
        ctx = instancefile.build_context(instancefile.load_document(self.text))
        ex = instancefile.build_exchange(ctx, variant="vector")
        removed = instancefile.resolve_removed(ex, ctx, "0")
        return SimpleNamespace(
            ctx=ctx, instance=ex.instance, start=ex.start, removed=removed
        )

    def check(self, ready) -> list[str]:
        x1 = ready.ctx.ring.var("x1")
        degenerate = tuple((x1, col[1]) for col in ready.start)
        if ready.instance.verify(degenerate):
            return ["degenerate start (every x-entry x1) accepted"]
        return []

    def op(self, ready, i):
        step_seed = _op_rng(self.name, self.seed, i).getrandbits(32)
        return matroid.exchange_step(
            ready.instance, ready.start, ready.removed, "ambient", seed=step_seed
        )

    def _weights(self, col, ring) -> list[int]:
        fx, fy = (_linear_coeffs(f, ring.nvars) for f in col)
        if any(fx[3:]) or any(fy[:3]) or fx[:3] != fy[3:]:
            raise ValueError(f"column {tuple(map(str, col))} is not vector-sampled")
        return fx[:3]

    def judge(self, ready, i, cert):
        ring = ready.ctx.ring
        digest = f"{tuple(map(str, cert.inserted))}|{cert.attempts}"

        def completes(col) -> bool:
            return _completes_segre(
                [self._weights(col, ring)] + self.start_weights[1:], PRIME
            )

        if not completes(cert.inserted):
            return digest, "accepted a column that is no complete reduction"
        if any(completes(col) for col in cert.rejected):
            return digest, "rejected a column that completes the basis"
        return digest, None


def _monomial_classes(nvars: int, count: int) -> list[list[tuple[int, int]]]:
    """One set of ``count`` distinct degree-2 monomials (as variable pairs)
    from each class of such sets under permutations of the variables."""
    pairs = list(itertools.combinations_with_replacement(range(nvars), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    moves = [
        [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        for perm in itertools.permutations(range(nvars))
    ]
    seen: set = set()
    classes = []
    for subset in itertools.combinations(range(len(pairs)), count):
        if subset not in seen:
            seen.update(tuple(sorted(move[k] for k in subset)) for move in moves)
            classes.append([pairs[k] for k in subset])
    return classes


class FiberSpread:
    """analytic_spread(I) for 9 seeded degree-2 monomials in 5 variables.

    The generated input is one instance document naming ``pool`` such
    ideals, one from each of the 76 classes of 9 degree-2 monomials
    under permutations of the 5 variables, each under its own seeded
    permutation and in seeded order.  Set-up parses it, and op i takes
    ideal i mod ``pool`` onto a fresh presentation, so no memo is shared
    between ops.  Op costs differ by an order of magnitude between
    ideals, so the timing metrics count whole passes over the pool
    (``period``); a pool drawn freely would give each seed its own mix of
    cheap and dear ideals, and one ideal per class gives every seed the
    same mix.

    Known answer: the fiber ring of a monomial ideal generated in one
    degree is the toric ring of its exponent vectors, whose dimension
    is the rank of the exponent matrix, computed here over Q.
    """

    name = "fiber-spread"
    rss_ops = 32
    nvars = 5
    count = 9

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        names = [f"x{k + 1}" for k in range(self.nvars)]
        classes = _monomial_classes(self.nvars, self.count)
        _op_rng(self.name, seed, -1).shuffle(classes)
        self.pool = self.period = len(classes)
        self.exponents = []
        for k, pairs in enumerate(classes):
            rng = _op_rng(self.name, seed, k)
            perm = rng.sample(range(self.nvars), self.nvars)
            picks = rng.sample(pairs, self.count)
            self.exponents.append([
                tuple(int(v == perm[a]) + int(v == perm[b]) for v in range(self.nvars))
                for a, b in picks
            ])
        self.text = json.dumps({
            "field": {"prime": PRIME},
            "ring": {"vars": [{"name": n} for n in names], "relations": []},
            "ideals": [
                {"name": f"I{k}", "generators": [_term_text(e, names) for e in exps]}
                for k, exps in enumerate(self.exponents)
            ],
        })

    def setup(self):
        ctx = instancefile.build_context(instancefile.load_document(self.text))
        return SimpleNamespace(ctx=ctx)

    def check(self, ready) -> list[str]:
        return []

    def op(self, ready, i):
        gens = ready.ctx.ideals[f"I{i % self.pool}"].generators
        S = algebra.standard_graded_algebra(ready.ctx.ring)
        return algebra.analytic_spread(algebra.equigenerated_ideal(S, gens))

    def judge(self, ready, i, spread):
        exps = self.exponents[i % self.pool]
        digest = f"{exps}|{spread}"
        rank = len(reduced_rows(exps)[1])
        if spread != rank:
            return digest, f"spread {spread}, exponent rank {rank}"
        return digest, None


WORKLOADS = {w.name: w for w in (QuadricExchange, CubicPower, SegreExchange, FiberSpread)}
