"""Symmetric n-additive forms, their traces, the difference operator
and the polarization formula as executable procedures.

Constructors mirror the four explicit ways the underlying theory
builds such forms:

* ``ProductSym``: the symmetrized product of n additive maps,
  ``(1/n!) * sum over permutations of m1(x_s(1)) ... mn(x_s(n))``;
* ``MapOfProduct``: ``a(x1 ... xn)`` for a single additive map a;
* ``Lift``: blockwise composition raising an arity-r form to arity
  r*k via products of k arguments per slot, symmetrized over all ways
  of grouping the arguments into blocks (the blockwise formula itself
  is not symmetric; averaging restores symmetry without changing the
  trace);
* ``LinComb``: linear combinations with coefficients in the forms' field.

Every form node acts on one field, its ``spec``: it takes its arguments
and its values there.

The engine evaluates a form in one way only.  On the diagonal every
term of a symmetrization is the same, so each node has a one-term
trace rule; the value at a tuple is the polarization of that trace,
``F(y1..yn) = Delta_{y1..yn} F*(0) / n!``, which costs at most 2^n
trace values.  The oracle keeps the defining permutation sums.

Every iterated difference, a value of ``delta_many`` or a row of the
span, degree or quartic scan over ``multisets`` of probes, is read off
a ``difference_table``, which evaluates f once per distinct point and
sums each row once (``fields.weighted_sum``).  For sides homogeneous of
degree D at base 0, f(m*x) = m^D * f(x) for every integer m, so the
table evaluates f only at points built at primitive coordinates.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, product

from .errors import ArityTooLarge, SpecMismatch
from .fields import FieldElement, weighted_sum
from .maps import AdditiveMap, Node, apply_map

#: Largest form arity, and largest number of increments the iterated
#: difference operator expands (at most 2^8 = 256 lattice points per
#: form value).
DEFAULT_ARITY_CAP = 8

#: Most rows one span check may compare: its multisets of generators,
#: C(m+D, D) of every order 0..D, or C(m+D-1, D) of order D alone, for
#: m generators and degree D.
MAX_SPAN_ROWS = 1000


class SymmetricForm(Node):
    """Base class for symmetric multi-additive form nodes."""

    __slots__ = ()

    arity: int

    def __call__(self, *args: FieldElement) -> FieldElement:
        return eval_form(self, list(args))


class ConstForm(SymmetricForm):
    """Arity-0 form: a plain constant (any constant is 0-additive)."""

    __slots__ = ("value",)
    arity = 0

    def __init__(self, value: FieldElement):
        self.value = value

    @property
    def spec(self):
        return self.value.spec


class ProductSym(SymmetricForm):
    __slots__ = ("maps",)

    def __init__(self, maps: tuple[AdditiveMap, ...]):
        self.maps = maps
        if not self.maps:
            raise SpecMismatch("product form needs at least one map")
        if len(self.maps) > DEFAULT_ARITY_CAP:
            raise ArityTooLarge(f"arity {len(self.maps)} exceeds cap {DEFAULT_ARITY_CAP}")
        first = self.maps[0]
        for m in self.maps[1:]:
            if m.spec != first.spec:
                raise SpecMismatch("all factor maps must act on the same field")

    @property
    def arity(self):
        return len(self.maps)

    @property
    def spec(self):
        return self.maps[0].spec


class MapOfProduct(SymmetricForm):
    __slots__ = ("map", "n")

    def __init__(self, map: AdditiveMap, n: int):
        self.map = map
        self.n = n
        if self.n < 1:
            raise SpecMismatch("arity must be positive")
        if self.n > DEFAULT_ARITY_CAP:
            raise ArityTooLarge(f"arity {self.n} exceeds cap {DEFAULT_ARITY_CAP}")

    @property
    def arity(self):
        return self.n

    @property
    def spec(self):
        return self.map.spec


class Lift(SymmetricForm):
    __slots__ = ("inner", "k")

    def __init__(self, inner: SymmetricForm, k: int):
        self.inner = inner
        self.k = k
        if self.k < 1:
            raise SpecMismatch("lift exponent must be a positive integer")
        if self.inner.arity < 1:
            raise SpecMismatch("cannot lift a constant form")
        if self.inner.arity * self.k > DEFAULT_ARITY_CAP:
            raise ArityTooLarge(
                f"lift arity {self.inner.arity * self.k} exceeds cap {DEFAULT_ARITY_CAP}")

    @property
    def arity(self):
        return self.inner.arity * self.k

    @property
    def spec(self):
        return self.inner.spec


class LinComb(SymmetricForm):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[FieldElement, SymmetricForm], ...]):
        self.terms = terms
        if not self.terms:
            raise SpecMismatch("linear combination needs at least one term")
        first = self.terms[0][1]
        for coeff, form in self.terms:
            if form.arity != first.arity:
                raise SpecMismatch("linear combination mixes arities")
            if form.spec != first.spec:
                raise SpecMismatch("linear combination mixes fields")
            if coeff.spec != first.spec:
                raise SpecMismatch("coefficient lives outside the field of the form")

    @property
    def arity(self):
        return self.terms[0][1].arity

    @property
    def spec(self):
        return self.terms[0][1].spec


def eval_form(form: SymmetricForm, args: list[FieldElement]) -> FieldElement:
    """Exact value of the form at ``args`` (length must equal arity), by
    polarization of its trace."""
    if len(args) != form.arity:
        raise SpecMismatch(f"form of arity {form.arity} applied to {len(args)} arguments")
    for a in args:
        if a.spec != form.spec:
            raise SpecMismatch("form argument outside the field of the form")
    return polarize(trace(form), list(args))


class GenMonomial:
    """Generalized monomial: the trace of a symmetric form.

    Degree 0 is a plain constant; for degree n >= 1 the evaluator is
    x -> form(x, ..., x).
    """

    __slots__ = ("degree", "form")

    def __init__(self, degree: int, form: SymmetricForm):
        self.degree = degree
        self.form = form
        if self.degree != self.form.arity:
            raise SpecMismatch("monomial degree must equal the form arity")

    @property
    def spec(self):
        return self.form.spec

    def __call__(self, x: FieldElement) -> FieldElement:
        if self.degree == 0:
            return self.form.value
        if x.spec != self.form.spec:
            raise SpecMismatch("form argument outside the field of the form")
        return _trace(self.form, x)


def _trace(form: SymmetricForm, x: FieldElement) -> FieldElement:
    """Value of the form on the diagonal (x, ..., x), by the one-term
    trace rule of each node kind."""
    if isinstance(form, ConstForm):
        return form.value
    if isinstance(form, ProductSym):
        return reduce(operator.mul, (apply_map(m, x) for m in form.maps))
    if isinstance(form, MapOfProduct):
        return apply_map(form.map, x ** form.n)
    if isinstance(form, Lift):
        return _trace(form.inner, x ** form.k)
    if isinstance(form, LinComb):
        return reduce(operator.add, (coeff * _trace(inner, x) for coeff, inner in form.terms))
    raise TypeError(f"unknown form node {form!r}")


def trace(form: SymmetricForm) -> GenMonomial:
    """Diagonalization x -> F(x, ..., x) of a symmetric form."""
    return GenMonomial(form.arity, form)


@lru_cache(maxsize=4096)
def _box(a: tuple[int, ...]) -> tuple:
    """Each coordinate j <= a in lexicographic order, with its weight
    ``prod (-1)^(a_i - j_i) * C(a_i, j_i)``, its last nonzero axis k and
    j - e_k, which comes before it (None at j = 0)."""
    rows = [[(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)] for n in a]
    box = []
    for j, ws in zip(product(*(range(n + 1) for n in a)), product(*rows)):
        k = max((i for i, c in enumerate(j) if c), default=None)
        prev = None if k is None else j[:k] + (j[k] - 1,) + j[k + 1:]
        box.append((j, math.prod(ws), k, prev))
    return tuple(box)


def multisets(items: list, n: int):
    """Each multiset of n of ``items`` in ``combinations_with_replacement``
    order, as its tuple of items and its count vector."""
    for indices in combinations_with_replacement(range(len(items)), n):
        yield tuple(items[i] for i in indices), tuple(map(indices.count, range(len(items))))


def difference_table(sides, base: FieldElement, increments: list[FieldElement],
                     degree: int | None = None):
    """One table of the differences ``Delta^a f(base)`` of each f of
    ``sides``: the returned function maps a count vector a (increment y_i
    taken a_i times) to their tuple, each the sum over 0 <= j <= a of the
    integer weight of j (``_box``) times ``f(base + sum j_i*y_i)``.  Points
    are built once, grouped by value and shared by all vectors of any
    order, so each f runs once per distinct point with a nonzero weight;
    a vector whose weights cancel gives ``f(base) * 0``.  Each row is one
    ``weighted_sum``, reduced once.

    Sides all homogeneous of one ``degree`` D pass it, with base 0: then
    f(m*x) = m^D * f(x) for every integer m (an additive map is
    Q-linear), so a point first built at coordinates j with m = gcd(j) > 1
    reads the value at j/m, weighted by m^D.  f still runs at the point
    read by every point of nonzero weight, even where the folded weights
    cancel, so folding hides no exception."""
    points, groups, index = [base], {base: 0}, {(0,) * len(increments): 0}
    roots = [(0, 1)]  # per point: the point whose value it reads, and the factor
    memos = [{} for _ in sides]

    def differences(a: tuple[int, ...]) -> tuple:
        weights: dict[int, int] = {}  # point group -> weight
        for j, w, k, prev in _box(a):
            g = index.get(j)
            if g is None:
                x = points[index[prev]] + increments[k]
                g = index[j] = groups.setdefault(x, len(points))
                if g == len(points):
                    points.append(x)
                    m = math.gcd(*j) if degree else 1  # j/m comes before j in _box order
                    r, s = roots[index[tuple(c // m for c in j)]] if m > 1 else (g, 1)
                    roots.append((r, s * m ** degree if m > 1 else 1))
            weights[g] = weights.get(g, 0) + w
        folded: dict[int, int] = {}  # point evaluated -> weight, kept where it cancels
        for g, w in weights.items():
            if w:
                r, s = roots[g]
                folded[r] = folded.get(r, 0) + w * s
        if not folded:  # all cancel: f(base) * 0
            folded = {0: 0}
        for f, memo in zip(sides, memos):
            for r in folded:
                if r not in memo:
                    memo[r] = f(points[r])
        ws = list(folded.values())
        return tuple(weighted_sum(ws, [memo[r] for r in folded]) for memo in memos)

    return differences


def delta_many(f, ys: list[FieldElement], x0: FieldElement) -> FieldElement:
    """Iterated difference of f at x0 with increments ys, grouped by
    value into one vector of a ``difference_table``: f runs once per
    distinct point with a nonzero signed count, and a zero increment
    gives ``f(x0) * 0``."""
    if len(ys) > DEFAULT_ARITY_CAP:
        raise ArityTooLarge(f"{len(ys)} increments exceed the cap {DEFAULT_ARITY_CAP}")
    counts: dict[FieldElement, int] = {}
    for y in ys:
        counts[y] = counts.get(y, 0) + 1
    return difference_table((f,), x0, list(counts))(tuple(counts.values()))[0]


def polarize(p: GenMonomial, ys: list[FieldElement]) -> FieldElement:
    """Recover the underlying form's value at ``ys`` from the trace:
    Delta_{y1..yn} p(0) / n!.  The base point 0 is immaterial for a
    degree-n monomial; independence is itself a tested property."""
    if len(ys) != p.degree:
        raise SpecMismatch("polarization needs exactly degree-many increments")
    if p.degree == 0:
        return p.form.value
    zero = p.spec.zero()
    return delta_many(p, ys, zero) / math.factorial(p.degree)
