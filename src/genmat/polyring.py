"""Multivariate polynomial arithmetic over a prime field.

A polynomial is stored sparsely as a map from exponent vectors to
nonzero coefficients.  Exponent vectors are plain tuples of ints, one
slot per ring variable; coefficients are ints reduced to [0, p).  The
field F_p with p large (default 32003) stands in for an infinite
field: every genericity statement downstream becomes "fails for at
most O(1/p) of the samples".  Each rule is stated once: sums,
differences and negatives are ``linear_combination`` calls, and
constants and variables are ``PolyRing.monomial`` calls.

Monomial orders are value objects exposing a sort key: ``lex``,
``grevlex``, and the block elimination order (grevlex on the first
``split`` variables, ties broken by grevlex on the rest).  The block
order ranks any monomial touching the first block above every monomial
free of it, which is the property elimination needs.  The key is
descending, a flat int tuple, linear in the exponents, whose ascending
order lists monomials largest first: the Groebner engine derives its
integer monomial keys from it.

Text form, used by the CLI and the tests: ``2*x^2*y - z*w + 5``.
ASCII only, ``^`` for powers, ``*`` for products, integer
coefficients, no parentheses.  Parsing and printing round-trip.  The
parser is one pass over the tokens of one pattern, and an error's
column is the first character of the offending token.

Everything here is immutable after construction, and all randomness
flows through an explicit ``random.Random`` handle, so values can be
shared freely across threads.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import count
from operator import le, neg

DEFAULT_PRIME = 32003

# Exponent vector of a monomial: one entry per ring variable.
Monomial = tuple[int, ...]

# Degree vector of a multigrading with n components.
MultiDegree = tuple[int, ...]


class RingMismatchError(ValueError):
    """Operands live in different ambient rings."""


# Miller-Rabin with the primes up to 41 as witnesses is exact below this
# bound (Sorenson and Webster 2015); 2^81 < bound < 2^82.
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PRIME_BOUND,
    where the witnesses no longer decide."""
    if n >= PRIME_BOUND:
        raise ValueError(f"field modulus must be below {PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in witnesses:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p.  Elements are ints reduced to [0, p)."""

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def sample(self, rng: random.Random) -> int:
        """Uniform element of F_p drawn from an explicit RNG state."""
        return rng.randrange(self.p)


def mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _grevlex_desc(m: Monomial):
    # Higher degree first; within a degree the smaller exponent of the
    # last variable wins, then of the one before it, and so on.
    return (-sum(m),) + m[::-1]


_ORDER_KINDS = ("lex", "grevlex", "elim")


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-ordering on monomials, as a sort key.

    ``desc_key(m)`` is comparable and strictly antitone: larger
    monomial, smaller key, and key comparisons are preserved by
    multiplying both sides by a common monomial.  1 is the maximum key
    for every kind.  It is a flat tuple of ints, each linear in the
    exponents: ascending ``desc_key`` lists monomials largest first,
    which is what a min-heap pops.
    """

    kind: str = "grevlex"
    split: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ORDER_KINDS:
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "elim":
            if self.split is None or self.split < 1:
                raise ValueError("elimination order needs a positive split")
        elif self.split is not None:
            raise ValueError(f"{self.kind} order takes no split")

    def desc_key(self, m: Monomial) -> tuple[int, ...]:
        if self.kind == "grevlex":
            return _grevlex_desc(m)
        if self.kind == "lex":
            return tuple(map(neg, m))
        s = self.split
        return _grevlex_desc(m[:s]) + _grevlex_desc(m[s:])


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(split: int) -> MonomialOrder:
    """Block order eliminating the first ``split`` ring variables."""
    return MonomialOrder("elim", split)


def _valid_name(name: str) -> bool:
    return name.isidentifier() and name.isascii()


@dataclass(frozen=True)
class PolyRing:
    """Ambient polynomial ring F_p[names]."""

    field: PrimeField
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for n in self.names:
            if not _valid_name(n):
                raise ValueError(f"invalid variable name {n!r}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"no variable {name!r} in {self.names}") from None

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        return self.monomial((0,) * self.nvars, c)

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        return self.monomial((0,) * i + (1,) + (0,) * (self.nvars - i - 1))

    def gens(self) -> tuple["Polynomial", ...]:
        # Built once per ring; the dataclass fields alone define equality.
        if "_gens" not in self.__dict__:
            object.__setattr__(self, "_gens", tuple(self.var(n) for n in self.names))
        return self._gens

    def monomial(self, exponents, coeff: int = 1) -> "Polynomial":
        e = tuple(map(int, exponents))
        if len(e) != self.nvars or min(e) < 0:
            raise ValueError(f"bad exponent vector {exponents!r}")
        c = coeff % self.field.p
        return Polynomial._raw(self, {e: c} if c else {})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)


def polynomial_ring(p: int, names) -> PolyRing:
    """Convenience constructor: ``polynomial_ring(32003, "x y z")``."""
    if isinstance(names, str):
        names = names.split()
    return PolyRing(PrimeField(p), tuple(names))


class Polynomial:
    """Immutable sparse polynomial over a PolyRing.

    ``terms`` maps exponent tuples to coefficients in [1, p); treat it
    as read-only.  Arithmetic between polynomials of different rings
    raises RingMismatchError; ints coerce to constants.  Two derived
    values are kept once computed: ``_hash``, and in ``_degree`` the
    last ``common_degree`` answer with the degree table it was read
    under, as (table, answer).
    """

    __slots__ = ("ring", "terms", "_hash", "_degree")

    def __init__(self, ring: PolyRing, terms: dict):
        clean: dict = {}
        p, n = ring.field.p, ring.nvars
        for mon, c in terms.items():
            mon = tuple(int(e) for e in mon)
            if len(mon) != n or any(e < 0 for e in mon):
                raise ValueError(f"bad exponent vector {mon!r}")
            c = int(c) % p
            if c:
                clean[mon] = c
        self.ring = ring
        self.terms = clean
        self._hash = None
        self._degree = None

    @classmethod
    def _raw(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        # Internal fast path: terms already canonical (nonzero, reduced).
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._degree = None
        return self

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"mixed rings {self.ring.names} and {other.ring.names}"
                )
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return linear_combination((1, 1), (self, other))

    __radd__ = __add__

    def __neg__(self):
        return linear_combination((-1,), (self,))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return linear_combination((1, -1), (self, other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return linear_combination((1, -1), (other, self))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.field.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a nonnegative int")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == self.ring.const(other).terms
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)!r})"


def common_degree(f: Polynomial, degs) -> MultiDegree | None:
    """The multidegree shared by f's terms, or None when they disagree or
    f is zero.  ``degs`` holds one int tuple per variable of f's ring,
    all of one length; the caller has checked that.

    f remembers the answer, None included, with the table it was read
    under, and hands it back while ``degs`` is that same table object;
    under another table the answer is computed and remembered afresh,
    so each grading gets its own.
    """
    memo = f._degree
    if memo is not None and memo[0] is degs:
        return memo[1]
    common = _shared_degree(f, degs)
    f._degree = (degs, common)
    return common


def _shared_degree(f: Polynomial, degs) -> MultiDegree | None:
    ncomp = len(degs[0]) if degs else 0
    common: tuple | None = None
    for mon in f.terms:
        total = [0] * ncomp
        for e, d in zip(mon, degs):
            if e:
                for i in range(ncomp):
                    total[i] += e * d[i]
        total = tuple(total)
        if common is None:
            common = total
        elif common != total:
            return None
    return common


def linear_combination(coeffs, basis) -> Polynomial:
    """The sum of c * b over paired ``coeffs`` and ``basis``, built in
    one pass; ``basis`` is a nonempty sequence over one ring, and
    ``coeffs`` a sequence of ints of the same length."""
    if not basis:
        raise ValueError("empty basis")
    if len(coeffs) != len(basis):
        raise ValueError(f"{len(coeffs)} coefficients for a basis of {len(basis)}")
    ring = basis[0].ring
    p, out = ring.field.p, {}
    for c, b in zip(coeffs, basis):
        if b.ring is not ring and b.ring != ring:
            raise RingMismatchError("basis spans several rings")
        for m, a in b.terms.items():
            s = (out.get(m, 0) + a * c) % p
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return Polynomial._raw(ring, out)


def random_linear_combination(basis, rng: random.Random):
    """Uniform F_p-combination of ``basis``; returns (poly, coefficients).

    Coefficients are i.i.d. uniform in F_p, drawn from the supplied RNG
    only, so equal seeds give equal output.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    coeffs = tuple(basis[0].ring.field.sample(rng) for _ in basis)
    return linear_combination(coeffs, basis), coeffs


def adjoin(ring: PolyRing, n: int, prefix: str):
    """(big, lift): ``ring`` with n variables adjoined after its own,
    named prefix1..prefix<n> with the prefix repeated the fewest times
    (T1.., then TT1..) that keeps every name new, and the map that
    copies a polynomial of ``ring`` into ``big``."""
    taken = set(ring.names)
    for k in count(1):
        names = tuple(f"{prefix * k}{i + 1}" for i in range(n))
        if taken.isdisjoint(names):
            break
    big, pad = PolyRing(ring.field, ring.names + names), (0,) * n
    return big, lambda f: Polynomial._raw(big, {m + pad: c for m, c in f.terms.items()})


# --- text form -------------------------------------------------------------

def poly_to_str(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text form, terms descending in ``order``.

    Coefficients print as the symmetric representative in
    (-p/2, p/2], so small negatives stay readable; parse() inverts
    this exactly.
    """
    if f.is_zero:
        return "0"
    p = f.ring.field.p
    names = f.ring.names
    pieces: list[str] = []
    for mon in sorted(f.terms, key=order.desc_key):
        c = f.terms[mon]
        if c > p // 2:
            sign, mag = "-", p - c
        else:
            sign, mag = "+", c
        factors = []
        for name, e in zip(names, mon):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{'+' if sign == '+' else '-'} {body}")
    return " ".join(pieces)


# Blanks, then one token; at the end of the text no group matches.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<char>.)|\Z)", re.S
)


def _syntax_error(token: re.Match, msg: str) -> ValueError:
    # The column of the token's first character, or one past the text.
    kind = token.lastgroup
    column = token.start(kind) + 1 if kind else token.end() + 1
    return ValueError(f"polynomial syntax error at column {column}: {msg}")


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse the ``2*x^2*y - z*w + 5`` grammar into ``ring``.

    poly   := [sign] term { sign term }
    term   := factor { "*" factor }
    factor := INT | NAME [ "^" INT ]

    INT is ASCII digits, NAME an ASCII identifier, and blanks may stand
    between tokens.  Unknown variable names and stray characters raise
    ValueError with the column of the offending token's first character.
    """
    if not isinstance(text, str):
        raise ValueError(f"polynomial text must be a string, got {type(text).__name__}")
    p, n = ring.field.p, ring.nvars
    index = {name: i for i, name in enumerate(ring.names)}
    acc: dict = {}
    coeff, expo, var, state = 1, [0] * n, None, "start"
    for token in _TOKEN.finditer(text):
        kind = token.lastgroup
        tok = token[kind] if kind else ""
        if state == "factor done" and tok == "*":
            state = "factor"
        elif state == "factor done" and tok == "^" and var is not None:
            state = "exponent"
        elif state == "factor done":  # the term ends
            mon = tuple(expo)
            s = (acc.get(mon, 0) + coeff) % p
            if s:
                acc[mon] = s
            elif mon in acc:
                del acc[mon]
            if kind is None:
                return Polynomial._raw(ring, acc)
            if tok != "+" and tok != "-":
                raise _syntax_error(token, f"expected '+' or '-', found {tok[0]!r}")
            coeff, expo, state = (1 if tok == "+" else -1), [0] * n, "factor"
        elif state == "exponent":
            if kind != "int":
                raise _syntax_error(token, "expected an exponent after '^'")
            expo[var] += int(tok) - 1
            var, state = None, "factor done"
        elif state == "start" and (tok == "+" or tok == "-"):
            coeff, state = (1 if tok == "+" else -1), "factor"
        elif kind == "int":
            coeff = coeff * int(tok) % p
            var, state = None, "factor done"
        elif kind == "name":
            var = index.get(tok)
            if var is None:
                raise _syntax_error(token, f"unknown variable {tok!r}")
            expo[var] += 1
            state = "factor done"
        elif kind is None and state == "start":
            raise ValueError("empty polynomial text")
        elif kind is None:
            raise _syntax_error(token, "unexpected end of input")
        else:
            raise _syntax_error(token, f"unexpected character {tok!r}")
