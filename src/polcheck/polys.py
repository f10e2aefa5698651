"""Sparse multivariate polynomials over an exact coefficient field.

Coefficients may be any exact field scalar supporting ``+ - * /``,
equality and truthiness (``fractions.Fraction`` or the quadratic
scalars from :mod:`polcheck.fields`).  Monomials are exponent tuples in
a fixed variable order; the leading term is taken under the
graded-lexicographic order, which is also the order used when
formatting and when normalizing denominators.
"""

from __future__ import annotations

from fractions import Fraction


def grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Immutable sparse polynomial: ``{exponent tuple: coefficient}``."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                if coeff:
                    data[tuple(exps)] = coeff
        self.nvars = nvars
        self.terms = data
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, coeff) -> "Poly":
        return cls(nvars, {(0,) * nvars: coeff})

    @classmethod
    def variable(cls, nvars: int, index: int, one) -> "Poly":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: one})

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        # exponent tuples are distinct, so only a lone term can be constant
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant(self):
        """Coefficient of the constant term (or None for the zero poly)."""
        if self.is_zero():
            return None
        return self.terms.get((0,) * self.nvars)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def vars_used(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def lead(self) -> tuple[tuple[int, ...], object]:
        """Leading (exponents, coefficient) under graded-lex order."""
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e)
            s = c if s is None else s + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return Poly(self.nvars, data)

    def __sub__(self, other: "Poly") -> "Poly":
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e)
            s = -c if s is None else s - c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return Poly(self.nvars, data)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        data = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = data.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        return Poly(self.nvars, data)

    def scale(self, coeff) -> "Poly":
        if not coeff:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def divscale(self, coeff) -> "Poly":
        return Poly(self.nvars, {e: c / coeff for e, c in self.terms.items()})

    def __truediv__(self, other: "Poly") -> "Poly":
        """Quotient by a nonzero constant; see exact_div for polynomial divisors."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not other.is_const():
            raise ArithmeticError("division by a non-constant polynomial")
        return self.divscale(other.constant())

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            # only a nonzero constant has an inverse
            return (Poly.const(self.nvars, _one_like(self)) / self) ** -k
        result = Poly.const(self.nvars, _one_like(self))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self, v: int) -> "Poly":
        data = {}
        for e, c in self.terms.items():
            if e[v]:
                ne = e[:v] + (e[v] - 1,) + e[v + 1:]
                data[ne] = data.get(ne, 0) + c * e[v]
        return Poly(self.nvars, {e: c for e, c in data.items() if c})

    def map_coeffs(self, fn) -> "Poly":
        return Poly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    # -- comparisons -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = [f"{c!r}*x^{e}" for e, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)]
        return "Poly(" + " + ".join(parts) + ")"


def _one_like(p: Poly):
    for c in p.terms.values():
        return c / c
    return Fraction(1)


def monic(p: Poly) -> Poly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    _, lc = p.lead()
    return p.divscale(lc)


def exact_div(f: Poly, g: Poly) -> Poly:
    """Exact polynomial quotient f / g; raises if the division is inexact."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quotient = Poly(f.nvars)
    rem = f
    ge, gc = g.lead()
    while not rem.is_zero():
        re, rc = rem.lead()
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        term = Poly(f.nvars, {diff: rc / gc})
        quotient = quotient + term
        rem = rem - term * g
    return quotient


# -- greatest common divisor ----------------------------------------
#
# Univariate parts use the monic Euclidean algorithm (coefficients lie
# in a field).  Genuinely multivariate inputs go through the primitive
# pseudo-remainder sequence on the lowest occurring variable, with
# contents handled recursively.


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic-normalized gcd of two polynomials over a coefficient field."""
    if f.is_zero():
        return monic(g)
    if g.is_zero():
        return monic(f)
    for p in (g, f):
        if p.is_const():
            # a nonzero constant is a unit; reuse it when it is already 1
            (c,) = p.terms.values()
            return p if c == 1 else Poly.const(p.nvars, c / c)
    used = f.vars_used() | g.vars_used()
    v = min(used)
    if used <= {v}:
        return _gcd_univar(f, g, v)
    return monic(_gcd_prs(f, g, v))


def _gcd_univar(f: Poly, g: Poly, v: int) -> Poly:
    a = {e[v]: c for e, c in f.terms.items()}
    b = {e[v]: c for e, c in g.terms.items()}

    def rem(num: dict, den: dict) -> dict:
        dd = max(den)
        lc = den[dd]
        num = dict(num)
        while num and max(num) >= dd:
            dn = max(num)
            q = num[dn] / lc
            for k, c in den.items():
                kk = dn - dd + k
                s = num.get(kk, None)
                s = -q * c if s is None else s - q * c
                if s:
                    num[kk] = s
                else:
                    num.pop(kk, None)
        return num

    while b:
        a, b = b, rem(a, b)
    nvars = f.nvars
    lead = a[max(a)]
    terms = {tuple(k if i == v else 0 for i in range(nvars)): c / lead for k, c in a.items()}
    return Poly(nvars, terms)


def _as_univ(f: Poly, v: int) -> dict[int, Poly]:
    split: dict[int, dict] = {}
    for e, c in f.terms.items():
        stripped = e[:v] + (0,) + e[v + 1:]
        split.setdefault(e[v], {})[stripped] = c
    return {k: Poly(f.nvars, terms) for k, terms in split.items()}


def _from_univ(d: dict[int, Poly], v: int, nvars: int) -> Poly:
    terms = {}
    for k, p in d.items():
        for e, c in p.terms.items():
            terms[e[:v] + (k,) + e[v + 1:]] = c
    return Poly(nvars, terms)


def _usub(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    out = dict(a)
    for k, p in b.items():
        q = out.get(k)
        q = -p if q is None else q - p
        if q.is_zero():
            out.pop(k, None)
        else:
            out[k] = q
    return out

def _umul(a: dict[int, Poly], p: Poly, shift: int = 0) -> dict[int, Poly]:
    out = {}
    for k, q in a.items():
        r = q * p
        if not r.is_zero():
            out[k + shift] = r
    return out


def _uprem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b in the distinguished variable."""
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        r = _usub(_umul(r, lb), _umul(b, lr, dr - db))
    return r


def _ucontent(a: dict[int, Poly]) -> Poly:
    content = None
    for p in a.values():
        content = p if content is None else poly_gcd(content, p)
        if content.is_const():
            break
    return monic(content)


def _upp(a: dict[int, Poly], content: Poly) -> dict[int, Poly]:
    if content.is_const():
        c = content.constant()
        return {k: p.divscale(c) for k, p in a.items()}
    return {k: exact_div(p, content) for k, p in a.items()}


def _gcd_prs(f: Poly, g: Poly, v: int) -> Poly:
    a = _as_univ(f, v)
    b = _as_univ(g, v)
    cont_a = _ucontent(a)
    cont_b = _ucontent(b)
    cont = poly_gcd(cont_a, cont_b)
    a = _upp(a, cont_a)
    b = _upp(b, cont_b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _uprem(a, b)
        if r:
            r = _upp(r, _ucontent(r))
        a, b = b, r
    return cont * _from_univ(a, v, f.nvars)
