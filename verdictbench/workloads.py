"""Seeded session generator for the time-to-verdict benchmark.

Every command a generated session contains comes with the answer that a
theorem fixes for it, computed here with ``fractions.Fraction`` and never
by polcheck:

* ``f = c*trace(product(phi1, ..., phin))`` with homomorphisms ``phi_i``
  satisfies ``f(x^k) = lam*f(x)^k`` exactly when ``lam = c^(1-k)``;
  otherwise the check is REFUTED and its first witness is ``x = 1``
  (``f(1) = c``, so the difference there is ``c - lam*c^k``);
* ``trace(mapprod(d + id, 2))`` with a nonzero derivation ``d`` fails
  ``f(x^2) = f(x)^2``: the difference is ``-4 x^2 d(x)^2``;
* ``degree`` of the trace of a nonzero n-ary product is n;
* ``rank ... mult`` of ``c*phi1*phi2`` is 1, since every row of the
  translate matrix is ``f(g)/c`` times the same row;
* ``verify multiplicative`` passes for homomorphisms and is REFUTED for
  a nonzero derivation (the pair ``(t, 1)`` gives ``d(t) != 0``);
  ``verify leibniz`` passes for derivations;
* ``classify quadratic product(phi1, phi2)`` returns ``{phi1, phi2}``,
  and a scaled norm ``c*x*conj(x)`` with ``c`` not in ``{0, 1}`` is
  REFUTED;
* ``polarize`` at a tuple of constants equals the form's value there,
  ``c/n! * sum over permutations s of prod_i phi_i(y_s(i))``.

The inputs depend only on the workload, the seed and the pass index, so
the same seed gives the same sessions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

HOLDS_ON_SPAN = "HOLDS_ON_SPAN"
HOLDS_ON_SAMPLE = "HOLDS_ON_SAMPLE"
REFUTED = "REFUTED"
PASS = "pass"

#: Seeded samples per pointwise check (the default probes come on top).
SAMPLES = 4


# -- exact arithmetic on Q(sqrt d), apart from polcheck ------------------


@dataclass(frozen=True)
class Quad:
    """``a + b*sqrt(d)``; ``d`` is None on Q (and on Q(t) constants)."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int | None = None

    def __add__(self, other: "Quad") -> "Quad":
        return Quad(self.a + other.a, self.b + other.b, self.d or other.d)

    def __neg__(self) -> "Quad":
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other: "Quad") -> "Quad":
        return self + (-other)

    def __mul__(self, other: "Quad") -> "Quad":
        d = self.d or other.d
        root = (self.b * other.b * d) if d else Fraction(0)
        return Quad(self.a * other.a + root,
                    self.a * other.b + self.b * other.a, d)

    def inverse(self) -> "Quad":
        norm = self.a * self.a - (self.b * self.b * self.d if self.d else 0)
        return Quad(self.a / norm, -self.b / norm, self.d)

    def conj(self) -> "Quad":
        return Quad(self.a, -self.b, self.d)

    def same(self, other: "Quad") -> bool:
        return self.a == other.a and self.b == other.b


def rat(q) -> Quad:
    return Quad(Fraction(q))


class ValueSyntaxError(ValueError):
    pass


def parse_constant(text: str, d: int | None) -> Quad:
    """Evaluate a printed constant such as ``-4/3+2/3*sqrt(2)``.

    Accepts integers, ``sqrt(d)``, ``+ - * /``, integer powers and
    parentheses; anything else (an indeterminate, say) is an error.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif text.startswith("sqrt", i):
            tokens.append(("sqrt", None))
            i += 4
        elif ch in "+-*/^()":
            tokens.append((ch, None))
            i += 1
        else:
            raise ValueSyntaxError(f"unexpected {ch!r} in {text!r}")
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else "end"

    def take(kind):
        nonlocal pos
        if peek() != kind:
            raise ValueSyntaxError(f"expected {kind} in {text!r}")
        pos += 1
        return tokens[pos - 1][1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            op = peek()
            take(op)
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = unary()
        while peek() in ("*", "/"):
            op = peek()
            take(op)
            rhs = unary()
            value = value * rhs if op == "*" else value * rhs.inverse()
        return value

    def unary():
        if peek() == "-":
            take("-")
            return -unary()
        return power()

    def power():
        base = atom()
        if peek() == "^":
            take("^")
            k = take("int")
            out = Quad(Fraction(1), Fraction(0), d)
            for _ in range(k):
                out = out * base
            return out
        return base

    def atom():
        kind = peek()
        if kind == "int":
            return Quad(Fraction(take("int")), Fraction(0), d)
        if kind == "(":
            take("(")
            value = expr()
            take(")")
            return value
        if kind == "sqrt":
            take("sqrt")
            take("(")
            sign = -1 if peek() == "-" else 1
            if sign < 0:
                take("-")
            radicand = sign * take("int")
            take(")")
            if radicand != d:
                raise ValueSyntaxError(f"sqrt({radicand}) outside Q(sqrt {d})")
            return Quad(Fraction(0), Fraction(1), d)
        raise ValueSyntaxError(f"unexpected {kind} in {text!r}")

    value = expr()
    if peek() != "end":
        raise ValueSyntaxError(f"trailing input in {text!r}")
    return value


# -- generated sessions and their answers ----------------------------------


@dataclass(frozen=True)
class MapDef:
    """A homomorphism as a session names it; on constants it is the
    identity or, for ``conj``, the conjugation."""

    name: str
    describe: str  # how polcheck's reports spell the map
    conj: bool = False

    def on_constant(self, y: Quad) -> Quad:
        return y.conj() if self.conj else y


ID = MapDef("id", "id")
CONJ = MapDef("c", "conj", conj=True)


@dataclass(frozen=True)
class Expect:
    """The answer fixed by construction for one command.

    ``value`` is the degree or rank (int), the factor descriptors
    (sorted tuple) of a classification, or the polarized value (Quad).
    ``witness_one`` holds ``(where, lhs, rhs, diff)`` for a refutation
    whose first witness is the point 1 or the all-ones tuple.
    """

    verdict: str
    value: object = None
    witness_one: tuple | None = None


@dataclass
class Case:
    """One session text, the answers to its commands, and how to run it."""

    text: str
    expects: list[Expect]
    engine_seed: int
    radicand: int | None
    oracle_check: bool = False


@dataclass
class _SessionDraft:
    radicand: int | None
    lines: list[str] = field(default_factory=list)
    expects: list[Expect] = field(default_factory=list)

    def decl(self, line: str) -> None:
        self.lines.append(line)

    def command(self, line: str, expect: Expect) -> None:
        self.lines.append(line)
        self.expects.append(expect)

    def case(self, rng: random.Random, oracle_check: bool = False) -> Case:
        return Case("\n".join(self.lines) + "\n", list(self.expects),
                    rng.randrange(1 << 16), self.radicand, oracle_check)


def frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def quad_text(y: Quad) -> str:
    if not y.b:
        return f"({frac_text(y.a)})"
    return f"({frac_text(y.a)})+({frac_text(y.b)})*sqrt({y.d})"


def small_rational(rng: random.Random, exclude=()) -> Fraction:
    while True:
        q = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
        if q not in exclude:
            return q


def small_quad(rng: random.Random, d: int) -> Quad:
    return Quad(small_rational(rng), small_rational(rng), d)


def linear_image(rng: random.Random) -> str:
    """A non-identity image ``a*t+b`` for an endomorphism of Q(t)."""
    while True:
        a = rng.choice((Fraction(-3), Fraction(-2), Fraction(-1), Fraction(1, 2),
                        Fraction(1), Fraction(2), Fraction(3)))
        b = Fraction(rng.randint(-2, 2))
        if (a, b) != (1, 0):
            return f"({frac_text(a)})*t+({frac_text(b)})"


def quadratic_image(rng: random.Random, coeff) -> str:
    """A degree-2 polynomial for the value of a derivation on t."""
    return f"({coeff(rng)})*t^2+({coeff(rng)})*t+({coeff(rng)})"


def rational_coeff(rng: random.Random) -> str:
    return frac_text(small_rational(rng))


def nonzero_poly(rng: random.Random) -> str:
    """A nonzero polynomial in t, so a multiplicative translate is nonzero."""
    return f"({rng.randint(1, 3)})*t^{rng.randint(1, 2)}+({rng.randint(-3, 3)})"


def power_lambda(rng: random.Random, c: Fraction, k: int) -> tuple[Fraction, bool]:
    """``(lam, holds)``: half the time ``lam = c^(1-k)``, else a wrong one."""
    right = c ** (1 - k)
    if rng.random() < 0.5:
        return right, True
    return right * rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3))), False


def power_check(b: _SessionDraft, fname: str, c: Fraction, k: int, lam: Fraction, holds: bool,
                on: str, passing: str, ones: int | None) -> None:
    """``check f(x^k) == lam*f(x)^k``; ``ones`` is the witness tuple
    length for a span check, None for a pointwise one."""
    if holds:
        expect = Expect(passing)
    else:
        where = "1" if ones is None else "(" + ", ".join(["1"] * ones) + ")"
        rhs = lam * c ** k
        expect = Expect(REFUTED, witness_one=(where, rat(c), rat(rhs), rat(c - rhs)))
    b.command(f"check {fname}(x^{k}) == ({frac_text(lam)})*{fname}(x)^{k} on {on};", expect)


def form_value(c: Fraction, maps: list[MapDef], ys: list[Quad]) -> Quad:
    """``c/n! * sum_s prod_i m_i(y_s(i))`` for constants ``ys``."""
    d = next((y.d for y in ys if y.d), None)
    total = Quad(Fraction(0), Fraction(0), d)
    for sigma in permutations(range(len(ys))):
        term = Quad(Fraction(1), Fraction(0), d)
        for m, j in zip(maps, sigma):
            term = term * m.on_constant(ys[j])
        total = total + term
    return total * rat(c / math.factorial(len(ys)))


def polarize_command(b: _SessionDraft, fname: str, c: Fraction, maps: list[MapDef],
                     ys: list[Quad]) -> None:
    args = ", ".join(quad_text(y) for y in ys)
    b.command(f"polarize {fname} at ({args});", Expect(PASS, value=form_value(c, maps, ys)))


def quadratic_field_session(rng: random.Random, audit: bool) -> Case:
    """``c*trace(product(phi1, phi2))`` on Q(sqrt d): span checks and the
    quadratic classifier.  The audit mix has one arity-4 span check plus
    ``polarize`` and ``verify`` and runs with the oracle; otherwise two
    arity-4 checks (3 generators) and one arity-6 check (2 generators)."""
    d = rng.choice((2, 3, 5, 6, 7, 10, 11))
    b = _SessionDraft(d)
    b.decl(f"field F = Q(sqrt {d});")
    b.decl("hom c = conj;")
    phis = [rng.choice((ID, CONJ)), rng.choice((ID, CONJ))]
    c = small_rational(rng)
    b.decl(f"form A = lincomb(({frac_text(c)})*product({phis[0].name}, {phis[1].name}));")
    b.decl("genpoly f = trace(A);")
    for k, count in [(2, 3)] if audit else [(2, 3), (2, 3), (3, 2)]:
        gens = [Quad(Fraction(1), Fraction(0), d)] + [small_quad(rng, d) for _ in range(count - 1)]
        lam, holds = power_lambda(rng, c, k)
        on = "span(" + ", ".join(quad_text(g) for g in gens) + ")"
        power_check(b, "f", c, k, lam, holds, on, HOLDS_ON_SPAN, ones=2 * k)
    factors = tuple(sorted(p.describe for p in phis))
    b.command(f"classify quadratic product({phis[0].name}, {phis[1].name}) "
              f"with dictionary(id, c);", Expect(HOLDS_ON_SAMPLE, value=factors))
    scale = small_rational(rng, exclude=(Fraction(1),))
    b.decl(f"form N = lincomb(({frac_text(scale)})*product(id, c));")
    b.command("classify quadratic N with dictionary(id, c);", Expect(REFUTED))
    if audit:
        polarize_command(b, "f", c, phis, [small_quad(rng, d), small_quad(rng, d)])
        b.command("verify multiplicative c;", Expect(PASS))
    return b.case(rng, oracle_check=audit)


def rational_function_session(rng: random.Random, audit: bool) -> Case:
    """Q(t) with three endomorphisms, a derivation ``d`` and ``d + id``.
    The audit mix adds one span check, runs with the oracle and leaves
    out the cubic product, ``mapprod`` and ``degree``."""
    b = _SessionDraft(None)
    b.decl("field F = Q(t);")
    homs = [MapDef(f"h{i}", "") for i in (1, 2, 3)]
    for h in homs:
        b.decl(f"hom {h.name} : t -> {linear_image(rng)};")
    b.decl(f"der d : t -> {quadratic_image(rng, rational_coeff)};")
    b.decl("map a = d + id;")
    c = small_rational(rng)
    b.decl(f"form A = lincomb(({frac_text(c)})*product(h1, h2));")
    b.decl("genpoly f = trace(A);")

    def on_samples() -> str:
        return f"samples({SAMPLES}, seed={rng.randrange(1000)})"

    lam, holds = power_lambda(rng, c, 2)
    power_check(b, "f", c, 2, lam, holds, on_samples(), HOLDS_ON_SAMPLE, None)
    if audit:
        lam, holds = power_lambda(rng, c, 2)
        power_check(b, "f", c, 2, lam, holds, "span(1, t)", HOLDS_ON_SPAN, ones=4)
    else:
        c3 = small_rational(rng)
        b.decl(f"form G = lincomb(({frac_text(c3)})*product(h1, h2, h3));")
        b.decl("genpoly g = trace(G);")
        lam, holds = power_lambda(rng, c, 3)
        power_check(b, "f", c, 3, lam, holds, on_samples(), HOLDS_ON_SAMPLE, None)
        lam, holds = power_lambda(rng, c3, 2)
        power_check(b, "g", c3, 2, lam, holds, on_samples(), HOLDS_ON_SAMPLE, None)
        b.decl("genpoly z = trace(mapprod(a, 2));")
        b.command(f"check z(x^2) == z(x)^2 on {on_samples()};", Expect(REFUTED))
        b.command("degree f;", Expect(PASS, value=2))
        b.command("degree z;", Expect(PASS, value=2))
    translates = ", ".join(["1"] + [nonzero_poly(rng) for _ in range(2)])
    points = ", ".join(nonzero_poly(rng) for _ in range(4))
    b.command(f"rank f mult translates({translates}) points({points});", Expect(PASS, value=1))
    b.command("verify multiplicative h1;", Expect(PASS))
    b.command("verify multiplicative d;", Expect(REFUTED))
    b.command("verify leibniz d;", Expect(PASS))
    polarize_command(b, "f", c, homs[:2], [rat(small_rational(rng)) for _ in range(2)])
    if not audit:
        polarize_command(b, "g", c3, homs, [rat(small_rational(rng)) for _ in range(3)])
    return b.case(rng, oracle_check=audit)


def quadratic_ratfunc_session(rng: random.Random) -> Case:
    """Q(sqrt 2)(t): conjugation times an endomorphism, and a derivation
    with irrational coefficients."""
    d = 2
    b = _SessionDraft(d)
    b.decl("field F = Q(sqrt 2)(t);")
    b.decl("hom c = conj;")
    h = MapDef("h", "")
    b.decl(f"hom h : t -> {linear_image(rng)};")

    def quad_coeff(r: random.Random) -> str:
        q = small_quad(r, d)
        return f"{frac_text(q.a)}+({frac_text(q.b)})*sqrt(2)"

    b.decl(f"der d : t -> {quadratic_image(rng, quad_coeff)};")
    c = small_rational(rng)
    b.decl(f"form A = lincomb(({frac_text(c)})*product(c, h));")
    b.decl("genpoly f = trace(A);")
    lam, holds = power_lambda(rng, c, 2)
    power_check(b, "f", c, 2, lam, holds,
                f"samples({SAMPLES}, seed={rng.randrange(1000)})", HOLDS_ON_SAMPLE, None)
    b.command("verify multiplicative c;", Expect(PASS))
    b.command("verify leibniz d;", Expect(PASS))
    polarize_command(b, "f", c, [CONJ, h], [small_quad(rng, d), small_quad(rng, d)])
    return b.case(rng)


def span_quadratic(rng: random.Random) -> list[Case]:
    return [quadratic_field_session(rng, audit=False)]


def pointwise_ratfunc(rng: random.Random) -> list[Case]:
    return [rational_function_session(rng, audit=False), quadratic_ratfunc_session(rng)]


def oracle_audit(rng: random.Random) -> list[Case]:
    return [quadratic_field_session(rng, audit=True), rational_function_session(rng, audit=True)]


WORKLOADS = {
    "span-quadratic": span_quadratic,
    "pointwise-ratfunc": pointwise_ratfunc,
    "oracle-audit": oracle_audit,
}


def build(workload: str, seed: int, pass_index: int) -> list[Case]:
    """The sessions of one pass; each pass of a run gets fresh inputs,
    so no value computed in one pass can be reused by the next."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{pass_index}"))


# -- checking reports against the answers ------------------------------------


def _witness_error(witness: str, expected: tuple, d: int | None) -> str | None:
    where, lhs, rhs, diff = expected
    prefix = f"x = {where}, lhs = "
    if not witness.startswith(prefix):
        return f"first witness {witness!r} is not at x = {where}"
    try:
        lhs_text, rest = witness[len(prefix):].split(", rhs = ")
        rhs_text, diff_text = rest.split(", diff = ")
        got = [parse_constant(t, d) for t in (lhs_text, rhs_text, diff_text)]
    except ValueError:
        return f"unreadable witness {witness!r}"
    if not all(g.same(e) for g, e in zip(got, (lhs, rhs, diff))):
        return f"witness {witness!r} has the wrong values"
    return None


def entry_error(expect: Expect, entry: dict, d: int | None) -> str | None:
    """Why ``entry`` disagrees with ``expect``, or None when it agrees."""
    if entry.get("verdict") != expect.verdict:
        return f"verdict {entry.get('verdict')} != {expect.verdict}"
    if expect.witness_one is not None:
        witnesses = entry.get("witnesses") or [""]
        return _witness_error(witnesses[0], expect.witness_one, d)
    value = expect.value
    if value is None:
        return None
    if isinstance(value, Quad):
        try:
            got = parse_constant(entry.get("value", ""), d)
        except ValueError:
            return f"unreadable value {entry.get('value')!r}"
        return None if got.same(value) else f"value {entry.get('value')} is wrong"
    if isinstance(value, tuple):
        factors = tuple(sorted(entry.get("classification", {}).get("factors", ())))
        return None if factors == value else f"factors {factors} != {value}"
    got = entry.get("degree", entry.get("rank"))
    return None if got == value else f"value {got} != {value}"
