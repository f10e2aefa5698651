"""Exact arithmetic for the three supported field kinds.

Supported fields: the rationals Q, real quadratic extensions
Q(sqrt d) for squarefree d, and a single level of rational-function
fields Q(t1, ..., tm) or Q(sqrt d)(t1, ..., tm).  Every element is
kept in a canonical form so that mathematical equality coincides with
structural equality:

* rationals: reduced ``Fraction`` (positive denominator);
* quadratic elements: an integer triple (p, q, c) for
  (p + q*sqrt(d))/c with c > 0 and gcd(p, q, c) = 1;
* rational functions: a pair (N, D) of coprime multivariate
  polynomials with integral coefficients (Python ints over Q, QuadRats
  with c = 1 over Q(sqrt d)), whose integers (every int, p and q) have
  gcd 1 and whose graded-lex leading coefficient of D is a positive
  rational integer.  This is the pair with a monic denominator scaled
  by the lcm of its coefficient denominators, so it is unique (Gauss's
  lemma; Knuth, TAOCP vol. 2, 4.6.1), and its arithmetic multiplies
  integers instead of Fractions.

The seeded sampler (``SampleConfig``, ``random_element``,
``sample_elements``) draws the elements of sampled checks.

No floating point appears anywhere.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import getitem, mul
from typing import Union

from .errors import DenominatorVanishes, DivisionByZero, ParseError, SpecMismatch, ValueTooLarge
from .lexer import TokenStream, tokenize
from .polys import Poly, _poly_dropping_zeros, exponents, gcd_cofactors

RATIONALS = "rationals"
QUADRATIC = "quadratic"
RATFUNC = "ratfunc"

#: Names that may not be used as indeterminates of a function field.
RESERVED_WORDS = frozenset({
    "field", "hom", "der", "map", "form", "genpoly", "check", "classify",
    "quadratic", "with", "dictionary", "degree", "rank", "mult", "add",
    "translates", "points", "verify", "polarize", "at", "on", "samples",
    "span", "seed", "Q", "sqrt", "conj", "id", "zero", "x", "trace",
    "product", "mapprod", "lift", "lincomb", "additive", "multiplicative",
    "leibniz",
})


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


class QuadRat:
    """Exact element (p + q*sqrt(d))/c of a quadratic extension of Q.

    The integers are kept with c > 0 and gcd(p, q, c) = 1, so equal
    elements have equal triples.  Each operation forms its integer
    numerators and reduces once (Knuth, TAOCP vol. 2, 4.5.1).
    """

    __slots__ = ("p", "q", "c", "d")

    def __init__(self, a, b, d: int):
        # ints and Fractions both carry numerator and denominator
        a = a if isinstance(a, (int, Fraction)) else Fraction(a)
        b = b if isinstance(b, (int, Fraction)) else Fraction(b)
        da, db = a.denominator, b.denominator
        c = lcm(da, db)
        # both fractions are reduced, so the triple over lcm(da, db) is too
        self.p = a.numerator * (c // da)
        self.q = b.numerator * (c // db)
        self.c = c
        self.d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.c)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.c)

    def __add__(self, other):
        if type(other) is not QuadRat or other.d != self.d:
            other = self._coerce(other)
        c1, c2 = self.c, other.c
        if c1 == c2:
            return _reduced(self.p + other.p, self.q + other.q, c1, self.d)
        return _reduced(self.p * c2 + other.p * c1, self.q * c2 + other.q * c1, c1 * c2, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QuadRat or other.d != self.d:
            other = self._coerce(other)
        c1, c2 = self.c, other.c
        if c1 == c2:
            return _reduced(self.p - other.p, self.q - other.q, c1, self.d)
        return _reduced(self.p * c2 - other.p * c1, self.q * c2 - other.q * c1, c1 * c2, self.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is not QuadRat or other.d != self.d:
            other = self._coerce(other)
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return _reduced(p1 * p2 + self.d * q1 * q2, p1 * q2 + q1 * p2, self.c * other.c, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # for y = (P + Q sqrt d)/C: x / y = x * (P - Q sqrt d) * C / (P^2 - d Q^2)
        if type(other) is not QuadRat or other.d != self.d:
            other = self._coerce(other)
        p2, q2 = other.p, other.q
        nrm = p2 * p2 - self.d * q2 * q2
        if not nrm:
            raise DivisionByZero("division by zero quadratic element")
        p1, q1, c2 = self.p, self.q, other.c
        return _reduced((p1 * p2 - self.d * q1 * q2) * c2, (q1 * p2 - p1 * q2) * c2,
                        self.c * nrm, self.d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return _canonical(-self.p, -self.q, self.c, self.d)

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if isinstance(other, QuadRat):
            return (self.p == other.p and self.q == other.q and self.c == other.c
                    and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return not self.q and self.p == other.numerator and self.c == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self.q:
            # equal to the rational p/c, so it must hash like it
            return hash(self.p) if self.c == 1 else hash(Fraction(self.p, self.c))
        return hash((self.p, self.q, self.c))

    def conjugate(self) -> "QuadRat":
        return _canonical(self.p, -self.q, self.c, self.d)

    def _coerce(self, other) -> "QuadRat":
        if type(other) is QuadRat:
            if other.d != self.d:
                raise SpecMismatch("mixing distinct quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _canonical(other.numerator, 0, other.denominator, self.d)
        raise TypeError(f"cannot coerce {other!r} into Q(sqrt {self.d})")

    def __repr__(self):
        return f"QuadRat({self.a}, {self.b}, d={self.d})"


_new_object = object.__new__


def _canonical(p: int, q: int, c: int, d: int) -> QuadRat:
    """The QuadRat (p + q*sqrt(d))/c of a triple that is already canonical."""
    x = _new_object(QuadRat)
    x.p = p
    x.q = q
    x.c = c
    x.d = d
    return x


def _reduced(p: int, q: int, c: int, d: int) -> QuadRat:
    """The QuadRat (p + q*sqrt(d))/c for any c != 0."""
    if c != 1:
        g = gcd(p, q, c)
        if c < 0:
            g = -g
        if g != 1:
            p //= g
            q //= g
            c //= g
    return _canonical(p, q, c, d)


class FieldSpec:
    """Description of one of the supported computable fields.

    Immutable by convention (nothing assigns to a spec after
    construction); specs compare and hash by value."""

    __slots__ = ("kind", "d", "base", "variables")

    def __init__(self, kind: str, d: int | None = None, base: "FieldSpec | None" = None,
                 variables: tuple[str, ...] = ()):
        self.kind = kind
        self.d = d
        self.base = base
        self.variables = variables
        if self.kind == RATIONALS:
            if self.d is not None or self.base is not None or self.variables:
                raise SpecMismatch("rationals take no parameters")
        elif self.kind == QUADRATIC:
            if self.d in (0, 1) or self.d is None or not is_squarefree(self.d):
                raise SpecMismatch(f"quadratic radicand must be squarefree and not 0 or 1, got {self.d}")
        elif self.kind == RATFUNC:
            if self.base is None or self.base.kind == RATFUNC:
                raise SpecMismatch("function-field base must be Q or Q(sqrt d)")
            if not self.variables:
                raise SpecMismatch("function field needs at least one indeterminate")
            if len(set(self.variables)) != len(self.variables):
                raise SpecMismatch("indeterminate names must be distinct")
            for name in self.variables:
                if not name or name in RESERVED_WORDS:
                    raise SpecMismatch(f"indeterminate name {name!r} is reserved or empty")
        else:
            raise SpecMismatch(f"unknown field kind {self.kind!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not FieldSpec:
            return NotImplemented
        return (self.kind == other.kind and self.d == other.d and self.base == other.base
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.kind, self.d, self.base, self.variables))

    # -- constructors ------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(RATIONALS)

    @staticmethod
    def quadratic(d: int) -> "FieldSpec":
        return FieldSpec(QUADRATIC, d=d)

    @staticmethod
    def ratfunc(base: "FieldSpec", variables) -> "FieldSpec":
        return FieldSpec(RATFUNC, base=base, variables=tuple(variables))

    # -- basic elements ----------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def radicand(self) -> int | None:
        if self.kind == QUADRATIC:
            return self.d
        if self.kind == RATFUNC and self.base.kind == QUADRATIC:
            return self.base.d
        return None

    def scalar_one(self):
        """The one of the integral polynomial coefficients: the int 1 over
        Q, the QuadRat 1 over Q(sqrt d); a function field takes its base's."""
        if self.kind == RATFUNC:
            return self.base.scalar_one()
        if self.kind == QUADRATIC:
            return _canonical(1, 0, 1, self.d)
        return 1

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n) -> "FieldElement":
        return self.from_fraction(n)

    def from_fraction(self, q: Fraction | int) -> "FieldElement":
        if self.kind == RATIONALS:
            return FieldElement(self, q if type(q) is Fraction else Fraction(q))
        if self.kind == QUADRATIC:
            # q is an int or a reduced Fraction, so its two parts are canonical
            return FieldElement(self, _canonical(q.numerator, 0, q.denominator, self.d))
        # q is reduced, so its numerator and denominator are a canonical pair
        one = self.scalar_one()
        num = Poly.const(self.nvars, one * q.numerator)
        den = Poly.const(self.nvars, one * q.denominator)
        return FieldElement(self, (num, den))

    def sqrt_element(self) -> "FieldElement":
        """The element sqrt(d) of this field (or of its base)."""
        d = self.radicand
        if d is None:
            raise SpecMismatch("field has no quadratic generator")
        root = _canonical(0, 1, 1, d)
        if self.kind == QUADRATIC:
            return FieldElement(self, root)
        num = Poly.const(self.nvars, root)
        den = Poly.const(self.nvars, self.scalar_one())
        return FieldElement(self, (num, den))

    def var(self, name: str) -> "FieldElement":
        if self.kind != RATFUNC or name not in self.variables:
            raise SpecMismatch(f"{name!r} is not an indeterminate of {self.describe()}")
        i = self.variables.index(name)
        one = self.scalar_one()
        num = Poly.variable(self.nvars, i, one)
        den = Poly.const(self.nvars, one)
        return FieldElement(self, (num, den))

    def element(self, text: str) -> "FieldElement":
        return parse_element(text, self)

    def describe(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == QUADRATIC:
            return f"Q(sqrt {self.d})"
        return f"{self.base.describe()}({', '.join(self.variables)})"


Payload = Union[Fraction, QuadRat, tuple]


class FieldElement:
    """Canonical exact element of one of the supported fields; immutable
    by convention."""

    __slots__ = ("spec", "payload")

    def __init__(self, spec: FieldSpec, payload: Payload):
        self.spec = spec
        self.payload = payload

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        return field_arith("add", self, other)

    def __radd__(self, other):
        return field_arith("add", self, other)

    def __sub__(self, other):
        return field_arith("sub", self, other)

    def __rsub__(self, other):
        return field_arith("sub", _coerce(self.spec, other), self)

    def __mul__(self, other):
        return field_arith("mul", self, other)

    def __rmul__(self, other):
        return field_arith("mul", self, other)

    def __truediv__(self, other):
        return field_arith("div", self, other)

    def __rtruediv__(self, other):
        return field_arith("div", _coerce(self.spec, other), self)

    def __pow__(self, k: int):
        return field_arith("pow", self, k)

    def __neg__(self):
        return field_arith("mul", self, -1)

    def is_zero(self) -> bool:
        if self.spec.kind == RATFUNC:
            return self.payload[0].is_zero()
        return not self.payload

    def is_one(self) -> bool:
        return self == self.spec.one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.from_fraction(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        spec = self.spec
        return (other.spec is spec or other.spec == spec) and self.payload == other.payload

    def __hash__(self):
        # equal elements share a spec, so the payload alone is a valid hash
        return hash(self.payload)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.spec.describe()}>"


def _coerce(spec: FieldSpec, value) -> FieldElement:
    if isinstance(value, FieldElement):
        if value.spec is not spec and value.spec != spec:
            raise SpecMismatch(
                f"operands live in different fields: {value.spec.describe()} vs {spec.describe()}")
        return value
    if isinstance(value, (int, Fraction)):
        return spec.from_fraction(value)
    raise SpecMismatch(f"cannot interpret {value!r} as an element of {spec.describe()}")


def normalize_fraction(spec: FieldSpec, num: Poly, den: Poly) -> FieldElement:
    """Canonical rational function num/den, for polynomials with any
    coefficients of the base field."""
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    if num.is_zero():
        return spec.zero()
    _, num, den = gcd_cofactors(num, den)
    return _canonical_pair(spec, num, den)


def normalize(e) -> FieldElement:
    """Canonicalize a raw (spec, num, den) triple or re-normalize an element.

    Idempotent by construction; raises DivisionByZero on a vanishing
    denominator.
    """
    if isinstance(e, FieldElement):
        if e.spec.kind == RATFUNC:
            return normalize_fraction(e.spec, *e.payload)
        return e
    spec, num, den = e
    if spec.kind == RATFUNC:
        return normalize_fraction(spec, num, den)
    if spec.kind == QUADRATIC:
        if not den:
            raise DivisionByZero("zero denominator")
        return FieldElement(spec, num / den)
    if den == 0:
        raise DivisionByZero("zero denominator")
    return FieldElement(spec, Fraction(num, den))


def _canonical_pair(spec: FieldSpec, num: Poly, den: Poly) -> FieldElement:
    """The canonical form of num/den for coprime num and den.

    Clears coefficient denominators, makes the leading coefficient of
    den rational by multiplying by its conjugate, and divides by the
    integer content, signed so that this coefficient is positive.  Over
    Q(sqrt d) an int or Fraction coefficient becomes the QuadRat it equals.
    """
    d = spec.radicand
    coeffs = (*num.terms.values(), *den.terms.values())
    if d is not None and any(type(c) is not QuadRat for c in coeffs):
        num, den = (p.map_coeffs(lambda c: c if type(c) is QuadRat else
                                 _canonical(c.numerator, 0, c.denominator, d)) for p in (num, den))
        coeffs = (*num.terms.values(), *den.terms.values())
    if d is None:
        if any(type(c) is not int for c in coeffs):
            scale = lcm(*(c.denominator for c in coeffs))
            num, den = (p.map_coeffs(lambda c: c.numerator * (scale // c.denominator))
                        for p in (num, den))
        ints = [*num.terms.values(), *den.terms.values()]
    else:
        scale = lcm(*(c.c for c in coeffs))
        if scale != 1:
            num, den = (p.map_coeffs(lambda c: _canonical(c.p * (scale // c.c), c.q * (scale // c.c), 1, d))
                        for p in (num, den))
        lc = den.lead()[1]
        if lc.q:
            num, den = num.scale(lc.conjugate()), den.scale(lc.conjugate())
        ints = [x for p in (num, den) for c in p.terms.values() for x in (c.p, c.q)]
    g = gcd(*ints)
    lc = den.lead()[1]
    if (lc if d is None else lc.p) < 0:
        g = -g
    if g != 1:
        num, den = (p.map_coeffs((lambda c: c // g) if d is None else
                                 (lambda c: _canonical(c.p // g, c.q // g, 1, d))) for p in (num, den))
    return FieldElement(spec, (num, den))


def _is_one(p: Poly) -> bool:
    return len(p.terms) == 1 and p.terms.get(0) == 1


def _add_reduced(spec: FieldSpec, n1: Poly, d1: Poly, n2: Poly, d2: Poly,
                 subtract: bool) -> FieldElement:
    one1, one2 = _is_one(d1), _is_one(d2)
    if one1 and one2:
        # the content of the denominator 1 is 1: the sum is canonical
        return FieldElement(spec, (n1 - n2 if subtract else n1 + n2, d1))
    # Henrici: with both operands reduced, only gcd(d1, d2) and a final
    # gcd against it can cancel.
    g, d1g, d2g = gcd_cofactors(d1, d2)
    if g.is_const():
        # a denominator 1 is not multiplied by
        a = n1 if one2 else n1 * d2
        b = n2 if one1 else n2 * d1
        num = a - b if subtract else a + b
        if num.is_zero():
            return spec.zero()
        return _canonical_pair(spec, num, d2 if one1 else d1 if one2 else d1 * d2)
    num = n1 * d2g - n2 * d1g if subtract else n1 * d2g + n2 * d1g
    if num.is_zero():
        return spec.zero()
    h, num_h, g_h = gcd_cofactors(num, g)
    if h.is_const():
        return _canonical_pair(spec, num, d1 * d2g)
    return _canonical_pair(spec, num_h, g_h * d1g * d2g)


def _mul_reduced(spec: FieldSpec, n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> FieldElement:
    # cross-cancel: the factors of each reduced operand are coprime, so
    # gcd(n1 n2, d1 d2) = gcd(n1, d2) * gcd(n2, d1).  n2 is nonzero:
    # field_arith settles a zero factor, and a division passes the
    # divisor's numerator as d2 and its denominator as n2.
    if n1.is_zero():
        return spec.zero()
    if d1.is_const() and d2.is_const():
        # nothing cancels; d2 need not be 1
        num = n1 * n2
        den = d2 if _is_one(d1) else d1 if _is_one(d2) else d1 * d2
        return FieldElement(spec, (num, den)) if _is_one(den) else _canonical_pair(spec, num, den)
    _, n1, d2 = gcd_cofactors(n1, d2)
    _, n2, d1 = gcd_cofactors(n2, d1)
    return _canonical_pair(spec, n1 * n2, d1 * d2)


def field_arith(op: str, lhs: FieldElement, rhs) -> FieldElement:
    """Exact field operation; ``pow`` takes an integer exponent."""
    spec = lhs.spec
    if op == "pow":
        if not isinstance(rhs, int):
            raise SpecMismatch("pow exponent must be an integer")
        return _power(lhs, rhs)
    if spec.kind != RATFUNC:
        a = lhs.payload
        if type(rhs) is int:  # a Fraction or QuadRat takes an int as it is
            b = rhs
        else:
            if type(rhs) is not FieldElement or rhs.spec is not spec:
                rhs = _coerce(spec, rhs)
            b = rhs.payload
        if op == "add":
            return FieldElement(spec, a + b)
        if op == "sub":
            return FieldElement(spec, a - b)
        if op == "mul":
            return FieldElement(spec, a * b)
        if op == "div":
            if not b:
                raise DivisionByZero("division by zero element")
            return FieldElement(spec, a / b)
        raise ValueError(f"unknown operation {op!r}")
    if type(rhs) is not FieldElement or rhs.spec is not spec:
        rhs = _coerce(spec, rhs)
    n1, d1 = lhs.payload
    n2, d2 = rhs.payload
    # a zero operand decides the sum or product (0 - x still negates),
    # and a factor or divisor one leaves the other operand
    if op == "add":
        if not n2.terms:
            return lhs
        if not n1.terms:
            return rhs
        return _add_reduced(spec, n1, d1, n2, d2, subtract=False)
    if op == "sub":
        if not n2.terms:
            return lhs
        return _add_reduced(spec, n1, d1, n2, d2, subtract=True)
    if op == "mul":
        if not n1.terms or _is_one(n2) and _is_one(d2):
            return lhs
        if not n2.terms or _is_one(n1) and _is_one(d1):
            return rhs
        return _mul_reduced(spec, n1, d1, n2, d2)
    if op == "div":
        if n2.is_zero():
            raise DivisionByZero("division by zero element")
        if _is_one(n2) and _is_one(d2):
            return lhs
        return _mul_reduced(spec, n1, d1, d2, n2)
    raise ValueError(f"unknown operation {op!r}")


def _power(base: FieldElement, k: int) -> FieldElement:
    spec = base.spec
    if k < 0:
        if base.is_zero():
            raise DivisionByZero("0 raised to a negative power")
        return _power(spec.one() / base, -k)
    if not k:
        return spec.one()
    if spec.kind == RATFUNC:
        # a reduced fraction stays reduced under powers: no gcd needed
        num, den = base.payload
        num = num ** k
        if not _is_one(den):
            den = den ** k
        if spec.radicand is None:
            # Gauss's lemma: powers of integer polynomials keep content 1
            return FieldElement(spec, (num, den))
        # Z[sqrt d] need not factor uniquely: a power can gain content
        return _canonical_pair(spec, num, den)
    result = None  # square and multiply, never by one: as Poly.__pow__ does
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def weighted_sum(weights: list[int], elements: list[FieldElement]) -> FieldElement:
    """sum w_i * e_i for int weights over a nonempty list of elements of
    one field, reduced once over the lcm of the denominators when every
    denominator is an integer (always on Q and Q(sqrt d)); otherwise by
    pairwise additions, one product per distinct nonzero weight."""
    spec = elements[0].spec
    xs = [e.payload for e in elements]
    if spec.kind == RATIONALS:
        c = lcm(*(x.denominator for x in xs))
        return FieldElement(spec, Fraction(sum(w * (c // x.denominator) * x.numerator
                                               for w, x in zip(weights, xs)), c))
    if spec.kind == QUADRATIC:
        c, p, q = lcm(*(x.c for x in xs)), 0, 0
        for w, x in zip(weights, xs):
            s = w * (c // x.c)
            p += s * x.p
            q += s * x.q
        return FieldElement(spec, _reduced(p, q, c, spec.d))
    if all(den.is_const() for _, den in xs):
        # constant canonical denominators are positive integers (p/1 over Q(sqrt d)),
        # so the sum is one numerator of integers (of p and q over Q(sqrt d)) over c
        d = spec.radicand
        ks = [k if d is None else k.p for k in (den.terms[0] for _, den in xs)]
        c, ps, qs = lcm(*ks), {}, {}
        for w, (num, _), k in zip(weights, xs, ks):
            s = w * (c // k)
            for key, a in num.terms.items() if s else ():
                if d is None:
                    ps[key] = ps.get(key, 0) + a * s
                else:
                    ps[key] = ps.get(key, 0) + a.p * s
                    qs[key] = qs.get(key, 0) + a.q * s
        num = _poly_dropping_zeros(spec.nvars, ps if d is None else
                                   {key: _canonical(p, qs[key], 1, d) for key, p in ps.items()})
        if c == 1:  # over the denominator 1 the content is 1: canonical
            return FieldElement(spec, (num, xs[0][1]))
        return _canonical_pair(spec, num, Poly.const(spec.nvars, spec.scalar_one() * c))
    by_weight: dict[int, list[FieldElement]] = {}
    for w, e in zip(weights, elements):
        by_weight.setdefault(w, []).append(e)
    return sum((sum(es[1:], es[0]) * w for w, es in by_weight.items() if w), spec.zero())


def conjugate_element(e: FieldElement) -> FieldElement:
    """Apply quadratic conjugation sqrt(d) -> -sqrt(d) to an element."""
    spec = e.spec
    if spec.kind == QUADRATIC:
        return FieldElement(spec, e.payload.conjugate())
    if spec.kind == RATFUNC and spec.base.kind == QUADRATIC:
        # an automorphism keeps the gcd, the content and the rational
        # leading coefficient of the denominator: the pair stays canonical
        num, den = e.payload
        return FieldElement(spec, (num.map_coeffs(QuadRat.conjugate),
                                   den.map_coeffs(QuadRat.conjugate)))
    if spec.kind in (RATIONALS,) or (spec.kind == RATFUNC and spec.base.kind == RATIONALS):
        return e
    raise SpecMismatch("conjugation is not defined on this field")


def _power_of(table: dict, k: int) -> Poly:
    """p^k from p's table {j: p^j} (holding 0 and 1), built once from the nearest lower power."""
    if k not in table:
        j = max(j for j in table if j < k)
        table[k] = table[j] * table[1] ** (k - j)
    return table[k]


def _cleared(terms: dict, rows: list[dict], nvars: int) -> Poly:
    """sum c * prod rows[i][ei] over terms {(e1, ..., em): c}, {e: c} in one variable."""
    total = {}
    get = total.get
    for exps, coeff in terms.items():
        product = rows[0][exps] if nvars == 1 else reduce(mul, map(getitem, rows, exps))
        for e, c in product.terms.items():
            s = get(e)
            total[e] = coeff * c if s is None else s + coeff * c
    return _poly_dropping_zeros(nvars, total)


def substitute(e: FieldElement, images: dict[str, FieldElement],
               powers: dict | None = None) -> FieldElement:
    """Substitute elements for the indeterminates of a rational function.

    With images ai/bi and Di the top exponent of ti in e's numerator and
    denominator, each of the two becomes sum c * prod ai^ei * bi^(Di-ei):
    the common factor prod bi^Di cancels, so plain polynomial arithmetic
    and one final reduction give the canonical value.  The powers of ai
    and bi come from tables in ``powers``, a dict that lives as long as
    the images (``maps.Endo`` keeps one for the life of the map), and
    only the powers that occur are built, each from the nearest lower one.

    In one variable the two sides stay coprime, so no gcd is needed.
    With e = n/d and image a/b both reduced, a Bezout identity
    u*n + v*d = 1 in K[t] becomes U*N' + V*D' = b^M, so a common prime
    factor of N' and D' divides b.  But the side whose degree is the top
    exponent D is congruent to c*a^D modulo b, with c != 0 its leading
    coefficient and gcd(a, b) = 1.  In several variables this fails:
    t, u -> t*u, u sends t/u to t*u/u.

    Substitution took 20% of a ``pointwise-ratfunc`` pass of
    ``verdictbench`` and 8% of an ``oracle-audit`` one with the powers
    rebuilt at every call, and 10% and 4% with the tables (seed 5, 40
    passes in one process, 2-core x86-64, Python 3.11).

    Raises DenominatorVanishes when the substituted denominator is the
    zero element, which signals that the images do not define a valid
    embedding for this particular element.
    """
    spec, n = e.spec, e.spec.nvars
    if spec.kind != RATFUNC:
        raise SpecMismatch("substitution applies to rational-function elements")
    powers = {} if powers is None else powers
    for name in spec.variables:
        if name not in powers:
            if name not in images:
                raise SpecMismatch(f"no image supplied for indeterminate {name!r}")
            image = _coerce(spec, images[name])
            (a, b), one = image.payload, Poly.const(n, spec.scalar_one())
            # powers of ai, of bi (None for bi = 1), and whether ai/bi is ti
            powers[name] = {0: one, 1: a}, None if _is_one(b) else {0: one, 1: b}, image == spec.var(name)
    tables = [powers[name] for name in spec.variables]
    if all(same for _, _, same in tables):
        return e
    # in one variable a key is its exponent; in several, as_dict decodes it
    num, den = (p.terms if n == 1 else p.as_dict() for p in e.payload)
    rows = []  # rows[i][k] = ai^k * bi^(Di-k), shared by every term with ti^k
    for (a_pows, b_pows, _), ks in zip(tables, [(*num, *den)] if n == 1 else zip(*num, *den)):
        top = max(ks)
        rows.append({k: _power_of(a_pows, k) if b_pows is None else
                     _power_of(a_pows, k) * _power_of(b_pows, top - k) for k in ks})
    den_val = _cleared(den, rows, n)
    if den_val.is_zero():
        raise DenominatorVanishes(f"denominator of {format_element(e)} vanishes under substitution")
    if not num:
        return spec.zero()
    num_val = _cleared(num, rows, n)
    if n > 1:
        return normalize_fraction(spec, num_val, den_val)
    if _is_one(den_val):  # over the denominator 1 the content is 1
        return FieldElement(spec, (num_val, den_val))
    return _canonical_pair(spec, num_val, den_val)


# -- seeded samples ---------------------------------------------------

#: Default bounds of seeded samples: numerator and denominator height,
#: and the degree of each indeterminate.
SAMPLE_HEIGHT = 5
SAMPLE_DEGREE = 2


class SampleConfig:
    """Deterministic sampling parameters (bounds are inclusive)."""

    __slots__ = ("seed", "count", "max_height", "max_degree")

    def __init__(self, seed: int = 0, count: int = 20, max_height: int = SAMPLE_HEIGHT,
                 max_degree: int = SAMPLE_DEGREE):
        self.seed = seed
        self.count = count
        self.max_height = max_height
        self.max_degree = max_degree
        if self.count < 1 or self.max_height < 1 or self.max_degree < 0:
            raise SpecMismatch("sample bounds must be positive (degree may be 0)")


def _rng(spec: FieldSpec, seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}::{spec.describe()}")


def random_element(spec: FieldSpec, cfg: SampleConfig, index: int = 0) -> FieldElement:
    """Deterministic element for (spec, cfg, index); denominators are
    resampled until nonzero."""
    return _draw(spec, cfg.seed, cfg.max_height, cfg.max_degree, index)


@lru_cache(maxsize=256)
def _draw(spec: FieldSpec, seed: int, h: int, max_degree: int, index: int) -> FieldElement:
    """random_element, memoized: a session's commands draw the same samples."""
    rng = _rng(spec, seed, index)
    if spec.kind == RATIONALS:
        p = rng.randint(-h, h)
        q = 0
        while q == 0:
            q = rng.randint(-h, h)
        return spec.from_fraction(Fraction(p, q))
    if spec.kind == QUADRATIC:
        def frac():
            p = rng.randint(-h, h)
            q = 0
            while q == 0:
                q = rng.randint(-h, h)
            return Fraction(p, q)

        return FieldElement(spec, QuadRat(frac(), frac(), spec.d))

    def coeff():
        if spec.base.kind == QUADRATIC:
            return QuadRat(rng.randint(-h, h), rng.randint(-h, h), spec.base.d)
        return Fraction(rng.randint(-h, h))

    def poly(avoid_zero: bool) -> Poly:
        while True:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, max_degree) for _ in spec.variables)
                c = coeff()
                if c:
                    # the default's coeff() draws too; the streams rely on it
                    terms[exps] = terms.get(exps, coeff() * 0) + c
            p = Poly(spec.nvars, terms)
            if not (avoid_zero and p.is_zero()):
                return p

    num = poly(avoid_zero=False)
    den = poly(avoid_zero=True)
    return normalize_fraction(spec, num, den)


def sample_elements(spec: FieldSpec, cfg: SampleConfig, avoid_zero: bool = False):
    """The first cfg.count elements of the deterministic sample stream."""
    out = []
    index = 0
    while len(out) < cfg.count:
        e = random_element(spec, cfg, index)
        index += 1
        if avoid_zero and e.is_zero():
            continue
        out.append(e)
    return out


# -- parsing ----------------------------------------------------------


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse the element grammar: integers, sqrt(d), indeterminates,
    ``+ - * / ^`` and parentheses; the result is canonical."""
    stream = TokenStream(tokenize(text))
    value = parse_element_tokens(stream, spec)
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos,
                         expected={"end of input"}, line=tok.line, column=tok.column)
    return value


#: Highest degree in the indeterminates that a power in the input may
#: give: an element's, or that of P or Q in a check.  The degree of an
#: element is the larger total degree of its numerator and denominator.
MAX_CHECK_DEGREE = 10_000


#: Most binary digits that the integers of one power ``e^k`` may need,
#: in an element or in a check: estimated before any product as |k|
#: times the bit length of e's largest integer (a numerator, a
#: denominator or one of a coefficient's).
MAX_POWER_BITS = 100_000


#: Most coefficient products that expanding one power ``e^k`` may take,
#: in an element or in a check.  Their count is bounded from e's size
#: before any product.
MAX_POWER_PRODUCTS = 10_000


def power_products(terms: int, degree: int, k: int, nvars: int = 1) -> int:
    """Upper bound on the coefficient products ``Poly.__pow__`` makes for
    ``e ** k``, where e has ``terms`` terms and total degree ``degree``
    in ``nvars`` variables: ``e ** j`` has at most one term per monomial
    of degree at most ``j*degree``, and at most one per multiset of j
    terms of e, so a single term stays one."""
    def size(j: int) -> int:
        if j == 1 or terms <= 1:
            return terms
        return min(comb(j * degree + nvars, nvars), comb(terms + j - 1, j))

    products, done, j = 0, 0, 1  # the result so far is e**done, the square e**j
    while k:
        if k & 1:
            if done:
                products += size(done) * size(j)
            done += j
        k >>= 1
        if k:
            products += size(j) ** 2
            j *= 2
    return products


def _integers(value) -> list[int]:
    """The integers that make up a rational, a quadratic element or a
    rational function: numerators, denominators and the coefficients'."""
    if isinstance(value, FieldElement):
        value = value.payload
    if isinstance(value, tuple):  # the pair (N, D) of a rational function
        return [n for p in value for c in p.terms.values() for n in _integers(c)]
    if isinstance(value, QuadRat):
        return [value.p, value.q, value.c]
    return [value.numerator, value.denominator]


def power_refusal(base, k: int) -> str | None:
    """Why ``base^k`` (base an element or a rational) is refused before it
    is computed, or None: its degree would pass MAX_CHECK_DEGREE, which
    could exhaust memory, expanding it would take more than
    MAX_POWER_PRODUCTS coefficient products, or its integers would need
    more than MAX_POWER_BITS binary digits."""
    if isinstance(base, FieldElement) and base.spec.kind == RATFUNC:
        if abs(k) * max(p.total_degree() for p in base.payload) > MAX_CHECK_DEGREE:
            return f"element of degree above {MAX_CHECK_DEGREE}"
        if sum(power_products(len(p.terms), p.total_degree(), abs(k), p.nvars)
               for p in base.payload) > MAX_POWER_PRODUCTS:
            return f"power needs more than {MAX_POWER_PRODUCTS} coefficient products to expand"
    if abs(k) * max(n.bit_length() for n in _integers(base)) > MAX_POWER_BITS:
        return f"power needs more than {MAX_POWER_BITS} binary digits"
    return None


def parse_element_tokens(stream: TokenStream, spec: FieldSpec) -> FieldElement:
    """Element sub-parser operating on an existing token stream.  A
    division by zero or an operand of another field inside the element is
    reported at its first token, as is a product of too high a degree in
    several variables, and a power of too high a degree where it ends."""
    first = stream.peek()

    def power(base: FieldElement, k: int) -> FieldElement:
        if refusal := power_refusal(base, k):
            raise stream.error(refusal)
        return base ** k

    try:
        return parse_expression(stream, lambda s: parse_element_atom(s, spec), power)
    except DivisionByZero as exc:
        raise ParseError(str(exc), first.pos, line=first.line, column=first.column) from None
    except (SpecMismatch, ValueTooLarge) as exc:
        raise type(exc)(f"{exc} at line {first.line}, column {first.column}") from None


def parse_expression(stream: TokenStream, atom, power=pow):
    """Recursive descent over ``+ - * /``, unary signs, ``^`` with an
    integer exponent, and parentheses.  ``atom(stream)`` reads every
    other operand, and the operands supply the arithmetic;
    ``power(base, k)`` computes each ``base^k``, so a caller can refuse
    a power before it is expanded."""
    return _parse_sum(stream, atom, power)


def _parse_sum(stream: TokenStream, atom, power):
    value = _parse_product(stream, atom, power)
    while stream.at("+", "-"):
        op = stream.next().kind
        rhs = _parse_product(stream, atom, power)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_product(stream: TokenStream, atom, power):
    value = _parse_unary(stream, atom, power)
    while stream.at("*", "/"):
        op = stream.next().kind
        rhs = _parse_unary(stream, atom, power)
        value = value * rhs if op == "*" else value / rhs
    return value


def _parse_unary(stream: TokenStream, atom, power):
    negate = False
    while stream.at("-", "+"):
        negate ^= stream.next().kind == "-"
    value = _parse_power(stream, atom, power)
    return -value if negate else value


def _parse_power(stream: TokenStream, atom, power):
    if stream.accept("("):
        base = _parse_sum(stream, atom, power)
        stream.expect(")")
    else:
        base = atom(stream)
    if stream.accept("^"):
        return power(base, _parse_exponent(stream))
    return base


def _parse_exponent(stream: TokenStream) -> int:
    grouped = stream.accept("(")
    sign = -1 if stream.accept("-") else 1
    k = sign * int(stream.expect("int", "integer exponent").text)
    if grouped:
        stream.expect(")")
    return k


def parse_element_atom(stream: TokenStream, spec: FieldSpec) -> FieldElement:
    """One element operand: an integer, sqrt(d) or an indeterminate."""
    tok = stream.peek()
    if tok.kind == "int":
        stream.next()
        return spec.from_int(int(tok.text))
    if tok.kind == "name":
        if tok.text == "sqrt":
            stream.next()
            stream.expect("(")
            neg = bool(stream.accept("-"))
            arg = stream.expect("int", "integer radicand")
            stream.expect(")")
            d = -int(arg.text) if neg else int(arg.text)
            if spec.radicand is None:
                raise SpecMismatch(f"sqrt({d}) is not an element of {spec.describe()}")
            if d != spec.radicand:
                raise SpecMismatch(
                    f"sqrt({d}) does not belong to {spec.describe()} (expected sqrt({spec.radicand}))")
            return spec.sqrt_element()
        if spec.kind == RATFUNC and tok.text in spec.variables:
            stream.next()
            return spec.var(tok.text)
        raise SpecMismatch(f"{tok.text!r} is not valid in {spec.describe()}")
    raise ParseError(
        f"unexpected {tok.kind if tok.kind != 'end' else 'end of input'}",
        tok.pos,
        expected={"integer", "name", "'('"},
        line=tok.line,
        column=tok.column,
    )


# -- formatting -------------------------------------------------------


def _format_fraction(q: Fraction) -> str:
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise ValueTooLarge(
            f"value has more than {sys.get_int_max_str_digits()} decimal digits") from None


def _format_quad(c: QuadRat) -> str:
    a, b = c.a, c.b
    if not b:
        return _format_fraction(a)
    if b == 1:
        root = f"sqrt({c.d})"
    elif b == -1:
        root = f"-sqrt({c.d})"
    else:
        root = f"{_format_fraction(b)}*sqrt({c.d})"
    if not a:
        return root
    return _format_fraction(a) + (root if root.startswith("-") else "+" + root)


def _coeff_pieces(c) -> tuple[str, bool]:
    """Render a scalar coefficient; the flag says it must be parenthesized
    when multiplied against a monomial."""
    if isinstance(c, QuadRat):
        return _format_quad(c), bool(c.p) and bool(c.q)
    return _format_fraction(c), False


def _format_poly(p: Poly, names: tuple[str, ...]) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for key in sorted(p.terms, reverse=True):
        coeff = p.terms[key]
        varpart = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(names, exponents(key, p.nvars)) if k
        )
        if not varpart:
            pieces.append(_coeff_pieces(coeff)[0])
            continue
        text, need_parens = _coeff_pieces(coeff)
        if text == "1":
            pieces.append(varpart)
        elif text == "-1":
            pieces.append("-" + varpart)
        elif need_parens:
            pieces.append(f"({text})*{varpart}")
        else:
            pieces.append(f"{text}*{varpart}")
    out = pieces[0]
    for piece in pieces[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


def _has_toplevel_sum(text: str) -> bool:
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


def format_element(e: FieldElement) -> str:
    """Canonical text: graded-lex term order, sqrt(d) spelled out, and
    just enough parentheses to round-trip through parse_element."""
    spec = e.spec
    if spec.kind == RATIONALS:
        return _format_fraction(e.payload)
    if spec.kind == QUADRATIC:
        return _format_quad(e.payload)
    num, den = e.payload
    lc = den.lead()[1]
    if lc != 1:
        # printed with a monic denominator
        num, den = num.divscale(lc), den.divscale(lc)
    num_text = _format_poly(num, spec.variables)
    if den.is_const():
        return num_text
    den_text = _format_poly(den, spec.variables)
    if _has_toplevel_sum(num_text):
        num_text = f"({num_text})"
    if _has_toplevel_sum(den_text) or sum(1 for k in exponents(den.lead()[0], den.nvars) if k) > 1:
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"
