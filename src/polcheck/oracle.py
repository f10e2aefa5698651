"""Independent brute-force evaluator: the audit behind ``--oracle-check``.

Everything here is deliberately naive and kept separate from the main
evaluation paths so that engine bugs and oracle bugs stay statistically
independent.  Values are unreduced fractions of integer-coefficient
polynomials (the quadratic generator sqrt(d) is just one more symbol,
reduced by s^2 -> d during multiplication); equality is decided by
cross-multiplication, so no gcd, no canonical form and no code above
Python's integers is shared with the engine.  Symmetrized forms are
evaluated by the full permutation sums that define them.  From the
engine it imports only the field-kind constants and ``FieldSpec``,
``FieldElement`` and ``QuadRat`` (to read payloads), the width
``EXP_BITS`` of packed monomial keys (decoded here) and, inside the
methods that dispatch on them, the map and form node classes.

Arithmetic skips only work that cannot change a dict: a product with a
one-term constant scales the other factor, a sum with a zero numerator
returns the other operand, and ``from_element`` reads a polynomial's
integers straight into one numerator over the product of its
coefficients' denominators instead of adding its terms one by one.  The
sums, the cross-multiplication and the import boundary are unchanged.

The oracle may be orders of magnitude slower than the engine; that is
the point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import DenominatorVanishes, DivisionByZero
from .fields import (
    QUADRATIC,
    RATFUNC,
    RATIONALS,
    FieldElement,
    FieldSpec,
    QuadRat,
)
from .polys import EXP_BITS


# -- naive values -----------------------------------------------------


class OVal:
    """Unreduced fraction of integer-coefficient polynomial dicts."""

    __slots__ = ("num", "den", "nsyms", "d")

    def __init__(self, num: dict, den: dict, nsyms: int, d: int | None):
        self.num = num
        self.den = den
        self.nsyms = nsyms
        self.d = d

    def __repr__(self):
        return f"OVal({self.num}, {self.den})"


def _pd_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pd_neg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def _pd_mul(p: dict, q: dict, rad: int | None, d: int | None) -> dict:
    # A one-term constant only scales the other factor: adding its zero
    # exponents changes no key, so no s^2 -> d reduction can fire, and the
    # keys keep the other factor's order, as the loop below would build them.
    if len(p) == 1:
        [(e, c)] = p.items()
        if not any(e):
            return {e2: c * c2 for e2, c2 in q.items()}
    if len(q) == 1:
        [(e, c)] = q.items()
        if not any(e):
            return {e1: c1 * c for e1, c1 in p.items()}
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            if rad is not None and e[rad] >= 2:
                c *= d ** (e[rad] // 2)
                e = e[:rad] + (e[rad] % 2,) + e[rad + 1:]
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _context(spec: FieldSpec) -> tuple[int, int | None, int | None]:
    """(symbol count, radical index, radicand) for a field spec."""
    d = spec.radicand
    nvars = spec.nvars if spec.kind == RATFUNC else 0
    if d is None:
        return nvars, None, None
    return nvars + 1, nvars, d


def o_is_zero(v: OVal) -> bool:
    return not v.num


def _rad_index(v: OVal) -> int | None:
    return v.nsyms - 1 if v.d is not None else None


def o_add(u: OVal, v: OVal) -> OVal:
    if not u.num:
        return v
    if not v.num:
        return u
    if u.den == v.den:
        return OVal(_pd_add(u.num, v.num), u.den, u.nsyms, u.d)
    rad = _rad_index(u)
    num = _pd_add(_pd_mul(u.num, v.den, rad, u.d), _pd_mul(v.num, u.den, rad, u.d))
    return OVal(num, _pd_mul(u.den, v.den, rad, u.d), u.nsyms, u.d)


def o_neg(u: OVal) -> OVal:
    return OVal(_pd_neg(u.num), u.den, u.nsyms, u.d)


def o_sub(u: OVal, v: OVal) -> OVal:
    return o_add(u, o_neg(v))


def o_mul(u: OVal, v: OVal) -> OVal:
    rad = _rad_index(u)
    return OVal(_pd_mul(u.num, v.num, rad, u.d), _pd_mul(u.den, v.den, rad, u.d), u.nsyms, u.d)


def o_div(u: OVal, v: OVal) -> OVal:
    if o_is_zero(v):
        raise DivisionByZero("oracle division by zero")
    rad = _rad_index(u)
    return OVal(_pd_mul(u.num, v.den, rad, u.d), _pd_mul(u.den, v.num, rad, u.d), u.nsyms, u.d)


def o_divint(u: OVal, n: int) -> OVal:
    rad = _rad_index(u)
    return OVal(u.num, _pd_mul(u.den, {(0,) * u.nsyms: n}, rad, u.d), u.nsyms, u.d)


def o_mulint(u: OVal, n: int) -> OVal:
    if n == 0:
        return OVal({}, u.den, u.nsyms, u.d)
    return OVal({e: c * n for e, c in u.num.items()}, u.den, u.nsyms, u.d)


def o_pow(u: OVal, k: int) -> OVal:
    if k < 0:
        if o_is_zero(u):
            raise DivisionByZero("oracle: 0 to a negative power")
        return o_pow(OVal(u.den, u.num, u.nsyms, u.d), -k)
    rad = _rad_index(u)
    num = {(0,) * u.nsyms: 1}
    den = {(0,) * u.nsyms: 1}
    for _ in range(k):
        num = _pd_mul(num, u.num, rad, u.d)
        den = _pd_mul(den, u.den, rad, u.d)
    return OVal(num, den, u.nsyms, u.d)


def o_eq(u: OVal, v: OVal) -> bool:
    rad = _rad_index(u)
    lhs = _pd_mul(u.num, v.den, rad, u.d)
    rhs = _pd_mul(v.num, u.den, rad, u.d)
    return lhs == rhs


def from_element(e: FieldElement) -> OVal:
    """Convert an engine element into the oracle representation."""
    spec = e.spec
    nsyms, rad, d = _context(spec)

    def from_scalar(c) -> OVal:
        if isinstance(c, QuadRat):
            # the element (c.p + c.q*sqrt(d))/c.c, read as integers
            num = {}
            base = (0,) * nsyms
            if c.p:
                num[base] = c.p
            if c.q:
                exps = base[:rad] + (1,) + base[rad + 1:]
                num[exps] = c.q
            return OVal(num, {base: c.c}, nsyms, d)
        c = Fraction(c)
        num = {(0,) * nsyms: c.numerator} if c.numerator else {}
        return OVal(num, {(0,) * nsyms: c.denominator}, nsyms, d)

    if spec.kind in (RATIONALS, QUADRATIC):
        return from_scalar(e.payload)

    def from_poly(p) -> OVal:
        # every term over one common denominator: the product of the
        # coefficients' own denominators, with no gcd
        den = 1
        for c in p.terms.values():
            den *= c.c if isinstance(c, QuadRat) else c.denominator
        num = {}
        rational = (0,) if rad is not None else ()
        for key, c in p.terms.items():
            # the exponent, or EXP_BITS-bit fields under the total degree
            exps = (key,) if p.nvars == 1 else tuple(
                key >> EXP_BITS * i & (1 << EXP_BITS) - 1 for i in reversed(range(p.nvars)))
            if isinstance(c, QuadRat):
                scale = den // c.c
                if c.p:
                    num[exps + (0,)] = c.p * scale
                if c.q:
                    num[exps + (1,)] = c.q * scale
            else:
                num[exps + rational] = c.numerator * (den // c.denominator)
        return OVal(num, {(0,) * nsyms: den}, nsyms, d)

    num, den = e.payload
    return o_div(from_poly(num), from_poly(den))


def matches(engine_value: FieldElement, oracle_value: OVal) -> bool:
    """Exact agreement between an engine element and an oracle value."""
    return o_eq(from_element(engine_value), oracle_value)


# -- naive map and form evaluation -------------------------------------


def arrangements(indices: list[int]):
    """The distinct orderings of the multiset ``indices``, in increasing
    lexicographic order, each with its weight: the number of the n!
    permutations of its positions that give it, the product of the
    factorials of the multiplicities."""
    current = sorted(indices)
    weight = math.prod(math.factorial(current.count(j)) for j in set(current))
    while True:
        yield tuple(current), weight
        i = len(current) - 2  # the next ordering: the standard successor step
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(current) - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1:] = reversed(current[i + 1:])


class Oracle:
    """Naive recursive evaluator mirroring the engine's semantics.

    Applications of maps are memoized (pure functions; caching changes
    cost, not values).
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.nsyms, self.rad, self.d = _context(spec)
        self._map_cache: dict = {}
        self._form_cache: dict = {}
        self._converted: dict = {}

    def zero(self) -> OVal:
        return OVal({}, {(0,) * self.nsyms: 1}, self.nsyms, self.d)

    def integer(self, n: int) -> OVal:
        if n == 0:
            return self.zero()
        base = (0,) * self.nsyms
        return OVal({base: n}, {base: 1}, self.nsyms, self.d)

    # map application ------------------------------------------------

    def _key(self, v: OVal):
        return (frozenset(v.num.items()), frozenset(v.den.items()))

    def apply_map(self, m, v: OVal) -> OVal:
        from .maps import Compose, Derivation, Endo, Identity, MapSum, Scale, Zero

        key = (id(m), self._key(v))
        cached = self._map_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(m, Identity):
            result = v
        elif isinstance(m, Zero):
            result = self.zero()
        elif isinstance(m, Endo):
            result = self._apply_endo(m, v)
        elif isinstance(m, Derivation):
            result = self._apply_derivation(m, v)
        elif isinstance(m, Scale):
            result = o_mul(from_element(m.factor), self.apply_map(m.inner, v))
        elif isinstance(m, MapSum):
            result = self.zero()
            for term in m.terms:
                result = o_add(result, self.apply_map(term, v))
        elif isinstance(m, Compose):
            node, result = m, v
            while isinstance(node, Compose):  # a parsed chain nests to the left: walk it
                result = self.apply_map(node.inner, result)
                node = node.outer
            result = self.apply_map(node, result)
        else:
            raise TypeError(f"oracle cannot apply {m!r}")
        self._map_cache[key] = result
        return result

    def _conj(self, p: dict) -> dict:
        rad = self.rad
        return {e: (-c if e[rad] % 2 else c) for e, c in p.items()}

    def _apply_endo(self, m, v: OVal) -> OVal:
        if self.spec.kind == QUADRATIC:
            if m.conjugate_base:
                return OVal(self._conj(v.num), self._conj(v.den), v.nsyms, v.d)
            return v
        if self.spec.kind == RATIONALS:
            return v
        num, den = v.num, v.den
        if m.conjugate_base:
            num, den = self._conj(num), self._conj(den)
        images = self._images(m)
        new_num = self._subst(num, images)
        new_den = self._subst(den, images)
        if o_is_zero(new_den):
            raise DenominatorVanishes("oracle: denominator vanished under substitution")
        return o_div(new_num, new_den)

    def _once(self, node, convert):
        """``convert(node)``: the engine elements of a map or form node as
        oracle values, converted once per node."""
        value = self._converted.get(id(node))
        if value is None:
            value = self._converted[id(node)] = convert(node)
        return value

    def _images(self, m) -> list[OVal]:
        """The generator images of an endomorphism or derivation."""
        return self._once(m, lambda m: [from_element(img) for _, img in m.images])

    def _subst(self, p: dict, images: list[OVal]) -> OVal:
        total = self.zero()
        sqrt_val = None
        if self.rad is not None:
            mono = (0,) * (self.nsyms - 1) + (1,)
            sqrt_val = OVal({mono: 1}, {(0,) * self.nsyms: 1}, self.nsyms, self.d)
        for exps, coeff in p.items():
            term = self.integer(coeff)
            for i, img in enumerate(images):
                if exps[i]:
                    term = o_mul(term, o_pow(img, exps[i]))
            if self.rad is not None and exps[self.rad]:
                term = o_mul(term, sqrt_val)
            total = o_add(total, term)
        return total

    def _pd_derivative(self, p: dict, i: int) -> dict:
        out = {}
        for e, c in p.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                s = out.get(ne, 0) + c * e[i]
                if s:
                    out[ne] = s
        return out

    def _apply_derivation(self, m, v: OVal) -> OVal:
        total = self.zero()
        q_sq = _pd_mul(v.den, v.den, self.rad, self.d)
        for i, image in enumerate(self._images(m)):
            dnum = self._pd_derivative(v.num, i)
            dden = self._pd_derivative(v.den, i)
            numerator = _pd_add(
                _pd_mul(dnum, v.den, self.rad, self.d),
                _pd_neg(_pd_mul(v.num, dden, self.rad, self.d)),
            )
            part = OVal(numerator, q_sq, v.nsyms, v.d)
            total = o_add(total, o_mul(part, image))
        return total

    # form evaluation --------------------------------------------------

    def eval_form(self, form, args: list[OVal]) -> OVal:
        """Full-permutation evaluation of the defining symmetrization.

        The sum over all n! permutations is computed literally but with
        equal terms grouped: each distinct arrangement of the arguments
        once, times the number of permutations that give it (repeated
        argument values make many permutations coincide); grouping
        changes the cost, not the sum.
        """
        from .forms import ConstForm, LinComb, Lift, MapOfProduct, ProductSym

        if isinstance(form, ConstForm):
            return self._once(form, lambda f: from_element(f.value))
        if isinstance(form, MapOfProduct):
            product = self.integer(1)
            for a in args:
                product = o_mul(product, a)
            return self.apply_map(form.map, product)
        if isinstance(form, LinComb):
            coeffs = self._once(form, lambda f: [from_element(c) for c, _ in f.terms])
            total = self.zero()
            for coeff, (_, inner) in zip(coeffs, form.terms):
                total = o_add(total, o_mul(coeff, self.eval_form(inner, args)))
            return total
        if isinstance(form, (ProductSym, Lift)):
            cache_key = (id(form), tuple(self._key(a) for a in args))
            cached = self._form_cache.get(cache_key)
            if cached is not None:
                return cached
            result = self._eval_symmetrized(form, args)
            self._form_cache[cache_key] = result
            return result
        raise TypeError(f"oracle cannot evaluate {form!r}")

    def _eval_symmetrized(self, form, args: list[OVal]) -> OVal:
        from .forms import ProductSym

        n = form.arity
        table: list[OVal] = []
        index_of: dict = {}
        indices = []
        for a in args:
            key = self._key(a)
            if key not in index_of:
                index_of[key] = len(table)
                table.append(a)
            indices.append(index_of[key])
        total = self.zero()
        for assignment, mult in arrangements(indices):
            if isinstance(form, ProductSym):
                term = self.integer(1)
                for i, j in enumerate(assignment):
                    term = o_mul(term, self.apply_map(form.maps[i], table[j]))
            else:
                k = form.k
                blocks = []
                for b in range(n // k):
                    product = self.integer(1)
                    for j in assignment[b * k:(b + 1) * k]:
                        product = o_mul(product, table[j])
                    blocks.append(product)
                term = self.eval_form(form.inner, blocks)
            total = o_add(total, o_mulint(term, mult))
        return o_divint(total, math.factorial(n))

    def eval_monomial(self, monomial, x: OVal) -> OVal:
        if monomial.degree == 0:
            return from_element(monomial.form.value)
        return self.eval_form(monomial.form, [x] * monomial.degree)

    def eval_genpoly(self, p, x: OVal) -> OVal:
        total = self.zero()
        for component in p.components:
            total = o_add(total, self.eval_monomial(component, x))
        return total

    def polyspec(self, p):
        """x -> P(x) on oracle values, for a polynomial P in one unknown
        (its ``terms`` map each exponent ``k`` to a nonzero coefficient).
        The coefficients are converted once, here, and dense Horner's
        rule adds only those."""
        terms = {k: from_element(c) for k, c in p.terms.items()}
        coeffs = [terms.get(k) for k in range(max(terms, default=0), -1, -1)]

        def evaluate(x: OVal) -> OVal:
            total = self.zero()
            for c in coeffs:
                total = o_mul(total, x)
                if c is not None:
                    total = o_add(total, c)
            return total

        return evaluate

    def delta_many(self, f, ys: list[OVal], x0: OVal) -> OVal:
        m = len(ys)
        sums = [x0]
        for y in ys:
            sums.extend(o_add(s, y) for s in list(sums))
        total = self.zero()
        for mask in range(1 << m):
            value = f(sums[mask])
            if (m - bin(mask).count("1")) & 1:
                value = o_neg(value)
            total = o_add(total, value)
        return total

    def rank(self, matrix: list[list[OVal]]) -> int:
        """Fraction-free row reduction on oracle values."""
        rows = [list(r) for r in matrix]
        if not rows:
            return 0
        ncols = len(rows[0])
        r = 0
        for col in range(ncols):
            pivot_row = None
            for i in range(r, len(rows)):
                if not o_is_zero(rows[i][col]):
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            pivot = rows[r][col]
            for i in range(r + 1, len(rows)):
                if o_is_zero(rows[i][col]):
                    continue
                factor = rows[i][col]
                rows[i] = [o_sub(o_mul(a, pivot), o_mul(b, factor))
                           for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break
        return r
