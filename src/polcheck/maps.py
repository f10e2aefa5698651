"""Additive maps built from field endomorphisms, derivations, rational
scalar combinations and compositions.

Every map acts on one field F, its ``spec``: it sends F to itself, and
maps are summed or composed only with maps on the same F.

Every constructible map here is additive by structural induction:
endomorphisms and derivations are additive wherever defined, and
scaling, summing and composing preserve additivity.  Multiplicativity
and the Leibniz rule are never assumed for composites; they are only
ever checked by :func:`verify_map_laws`.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import InvalidImage, SpecMismatch, UnsupportedSpec
from .fields import (
    RATFUNC,
    RATIONALS,
    QUADRATIC,
    FieldElement,
    FieldSpec,
    conjugate_element,
    format_element,
    normalize_fraction,
)


class Node:
    """Base class of map and form nodes.  Nodes are immutable by
    convention (nothing assigns to a node after construction); two nodes
    are equal when they have the same type and equal fields."""

    __slots__ = ()

    spec: FieldSpec

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))


class AdditiveMap(Node):
    """Base class of map nodes; evaluation is pure."""

    __slots__ = ()

    def __call__(self, x: FieldElement) -> FieldElement:
        return apply_map(self, x)

    def __add__(self, other: "AdditiveMap") -> "AdditiveMap":
        return sum_maps(self, other)

    def __sub__(self, other: "AdditiveMap") -> "AdditiveMap":
        return sum_maps(self, scale_map(-1, other))

    def __neg__(self) -> "AdditiveMap":
        return scale_map(-1, self)

    def __rmul__(self, factor) -> "AdditiveMap":
        return scale_map(factor, self)

    def __matmul__(self, inner: "AdditiveMap") -> "AdditiveMap":
        return compose_maps(self, inner)

    def describe(self) -> str:
        raise NotImplementedError


class Identity(AdditiveMap):
    __slots__ = ("spec",)

    def __init__(self, spec: FieldSpec):
        self.spec = spec

    def describe(self):
        return "id"


class Zero(AdditiveMap):
    __slots__ = ("spec",)

    def __init__(self, spec: FieldSpec):
        self.spec = spec

    def describe(self):
        return "zero"


class Endo(AdditiveMap):
    """Field endomorphism given by generator images, with optional conjugation
    of the (quadratic) base field; ``powers`` holds substitute's power tables."""

    __slots__ = ("spec", "images", "conjugate_base", "powers")

    def __init__(self, spec: FieldSpec, images: tuple[tuple[str, FieldElement], ...],
                 conjugate_base: bool = False):
        self.spec = spec
        self.images = images
        self.conjugate_base = conjugate_base
        self.powers = {}

    def _fields(self) -> tuple:
        return self.spec, self.images, self.conjugate_base

    def describe(self):
        if self.spec.kind == QUADRATIC:
            return "conj" if self.conjugate_base else "id"
        parts = [f"{name} -> {format_element(img)}" for name, img in self.images]
        if self.conjugate_base:
            parts.append("conj")
        return "hom(" + ", ".join(parts) + ")"


class Derivation(AdditiveMap):
    """Derivation of a purely transcendental extension, defined by its
    values on the generators and extended by the quotient rule."""

    __slots__ = ("spec", "images")

    def __init__(self, spec: FieldSpec, images: tuple[tuple[str, FieldElement], ...]):
        self.spec = spec
        self.images = images

    def describe(self):
        parts = [f"{name} -> {format_element(img)}" for name, img in self.images]
        return "der(" + ", ".join(parts) + ")"


class Scale(AdditiveMap):
    __slots__ = ("factor", "inner")

    def __init__(self, factor: FieldElement, inner: AdditiveMap):
        self.factor = factor
        self.inner = inner

    @property
    def spec(self):
        return self.inner.spec

    def describe(self):
        return f"{format_element(self.factor)}*{_wrap(self.inner)}"


class MapSum(AdditiveMap):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[AdditiveMap, ...]):
        self.terms = terms

    @property
    def spec(self):
        return self.terms[0].spec

    def describe(self):
        return " + ".join(_wrap(t) for t in self.terms)


class Compose(AdditiveMap):
    __slots__ = ("outer", "inner")

    def __init__(self, outer: AdditiveMap, inner: AdditiveMap):
        self.outer = outer
        self.inner = inner

    @property
    def spec(self):
        return self.inner.spec

    def describe(self):
        return f"{_wrap(self.outer)} @ {_wrap(self.inner)}"


def _wrap(m: AdditiveMap) -> str:
    return f"({m.describe()})" if isinstance(m, MapSum) else m.describe()


def identity_map(spec: FieldSpec) -> Identity:
    return Identity(spec)


def zero_map(spec: FieldSpec) -> Zero:
    return Zero(spec)


def scale_map(factor, inner: AdditiveMap) -> AdditiveMap:
    if isinstance(factor, (int, Fraction)):
        factor = inner.spec.from_fraction(Fraction(factor))
    if factor.spec != inner.spec:
        raise SpecMismatch("scalar lives outside the field of the map")
    return Scale(factor, inner)


def sum_maps(*terms: AdditiveMap) -> AdditiveMap:
    flat: list[AdditiveMap] = []
    for term in terms:
        flat.extend(term.terms if isinstance(term, MapSum) else (term,))
    first = flat[0]
    for term in flat[1:]:
        if term.spec != first.spec:
            raise SpecMismatch("cannot add maps on different fields")
    return MapSum(tuple(flat))


def compose_maps(outer: AdditiveMap, inner: AdditiveMap) -> AdditiveMap:
    if outer.spec != inner.spec:
        raise SpecMismatch("cannot compose maps on different fields")
    return Compose(outer, inner)


def degree_multiplier(m: AdditiveMap) -> int:
    """How many times m may multiply the degree of an element in the
    indeterminates: the product, along each composition chain, of every
    endomorphism's largest image degree."""
    factor = 1
    while isinstance(m, Compose):  # a parsed chain nests to the left: walk it, do not recurse
        factor *= degree_multiplier(m.inner)
        m = m.outer
    if isinstance(m, Scale):
        return factor * degree_multiplier(m.inner)
    if isinstance(m, MapSum):
        return factor * max(degree_multiplier(term) for term in m.terms)
    if isinstance(m, Endo):
        return factor * max((p.total_degree() for _, img in m.images for p in img.payload),
                            default=1)
    return factor


#: Most nodes a map or form may expand to, a node shared by several
#: parents counted at each occurrence.  Naming lets each statement
#: double the expanded tree, and evaluation walks all of it.
MAX_NODES = 4096

#: Deepest nesting of map and form nodes.  Naming lets each statement
#: add a level, and the evaluators recurse up to twice per level, so a
#: tree at this depth stays well inside Python's recursion limit.
MAX_DEPTH = 200


def tree_size(root: Node) -> tuple[int, int]:
    """Nodes in the tree that ``root`` expands to, and its depth: the
    levels that evaluating it recurses through.  Each distinct node is
    sized once (memoized by id), on a stack rather than by recursion, so
    neither sharing nor a long chain makes the walk itself costly."""
    sizes: dict[int, tuple[int, int]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        children = _children(node)
        pending = [c for c in children if id(c) not in sizes]
        if pending:  # size the children first, then this node again
            stack += [node, *pending]
        elif id(node) not in sizes:
            count, depth = 1, 1
            for c in children:
                c_count, c_depth = sizes[id(c)]
                count += c_count
                depth = max(depth, c_depth + 1)
            if isinstance(node, Compose):  # the outer chain is walked in a loop, not recursed
                depth = max(sizes[id(node.outer)][1], sizes[id(node.inner)][1] + 1)
            sizes[id(node)] = (count, depth)
    return sizes[id(root)]


def _children(node: Node) -> list[Node]:
    """The map and form nodes that ``node`` holds: as a field, in a tuple
    field, or as the form of a (coefficient, form) pair."""
    children = []
    for value in node._fields():
        for item in value if type(value) is tuple else (value,):
            item = item[-1] if type(item) is tuple else item
            if isinstance(item, Node):
                children.append(item)
    return children


def build_endomorphism(spec: FieldSpec, images: dict[str, FieldElement] | None = None,
                       conjugate_base: bool = False) -> AdditiveMap:
    """Field endomorphism on ``spec``.

    For Q(sqrt d) the only choices are identity and conjugation, so
    ``images`` must be empty.  For function fields the listed generator
    images must be non-constant (a constant image is not injective, so
    it does not extend to the fraction field); unlisted generators map
    to themselves.
    """
    images = images or {}
    if spec.kind == RATIONALS:
        if images or conjugate_base:
            raise SpecMismatch("the rationals admit only the identity endomorphism")
        return Identity(spec)
    if spec.kind == QUADRATIC:
        if images:
            raise SpecMismatch("quadratic endomorphisms take no generator images")
        if not conjugate_base:
            return Identity(spec)
        return Endo(spec, (), True)
    if conjugate_base and spec.base.kind != QUADRATIC:
        raise UnsupportedSpec("base field has no conjugation")
    resolved = _resolve_images(spec, images, spec.var)
    for name, img in resolved:
        num, den = img.payload
        if num.is_const() and den.is_const():
            raise InvalidImage(
                f"image of {name!r} is the constant {format_element(img)}; not a field embedding")
    return Endo(spec, resolved, conjugate_base)


def build_derivation(spec: FieldSpec, images: dict[str, FieldElement]) -> AdditiveMap:
    """Derivation determined by its values on the transcendental
    generators.  Only function fields carry nonzero derivations here:
    on Q and Q(sqrt d) every derivation vanishes (d(2)=0 forces
    2*sqrt(d)*d(sqrt d)=0), so callers must use the zero map there.
    """
    if spec.kind != RATFUNC:
        raise UnsupportedSpec(
            f"{spec.describe()} carries only the zero derivation; use the zero map")
    return Derivation(spec, _resolve_images(spec, images, lambda name: spec.zero()))


def _resolve_images(spec: FieldSpec, images: dict[str, FieldElement],
                    default) -> tuple[tuple[str, FieldElement], ...]:
    """(name, image) for every indeterminate of ``spec`` in order: the
    listed image, or ``default(name)`` for an unlisted one.  An image in
    another field, or one for an unknown name, is refused."""
    images = dict(images)
    resolved = []
    for name in spec.variables:
        img = images.pop(name, None)
        if img is None:
            img = default(name)
        elif img.spec != spec:
            raise SpecMismatch(f"image of {name!r} lives in a different field")
        resolved.append((name, img))
    if images:
        raise SpecMismatch(f"unknown indeterminates in images: {sorted(images)}")
    return tuple(resolved)


def apply_map(m: AdditiveMap, x: FieldElement) -> FieldElement:
    """Evaluate a map tree at an element, exactly."""
    if x.spec != m.spec:
        raise SpecMismatch("argument does not belong to the map's field")
    if isinstance(m, Identity):
        return x
    if isinstance(m, Zero):
        return m.spec.zero()
    if isinstance(m, Endo):
        return _apply_endo(m, x)
    if isinstance(m, Derivation):
        return _apply_derivation(m, x)
    if isinstance(m, Scale):
        return m.factor * apply_map(m.inner, x)
    if isinstance(m, MapSum):
        total = m.spec.zero()
        for term in m.terms:
            total = total + apply_map(term, x)
        return total
    if isinstance(m, Compose):
        while isinstance(m, Compose):  # a parsed chain nests to the left: walk it, inner first
            x = apply_map(m.inner, x)
            m = m.outer
        return apply_map(m, x)
    raise TypeError(f"unknown map node {m!r}")


def _apply_endo(m: Endo, x: FieldElement) -> FieldElement:
    spec = m.spec
    if spec.kind == RATIONALS:
        return x
    if spec.kind == QUADRATIC:
        return conjugate_element(x) if m.conjugate_base else x
    if m.conjugate_base:
        x = conjugate_element(x)
    from .fields import substitute

    return substitute(x, dict(m.images), m.powers)


def _apply_derivation(m: Derivation, x: FieldElement) -> FieldElement:
    spec = m.spec
    num, den = x.payload
    den_sq = den * den
    total = spec.zero()
    for i, (name, image) in enumerate(m.images):
        if image.is_zero():
            continue
        dnum = num.derivative(i)
        dden = den.derivative(i)
        partial = normalize_fraction(spec, dnum * den - num * dden, den_sq)
        total = total + partial * image
    return total


ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
LEIBNIZ = "leibniz"

_LAWS = (ADDITIVE, MULTIPLICATIVE, LEIBNIZ)


class LawReport:
    """Outcome of checking one algebraic law on sample pairs; ``rows``
    holds the ((x, y), lhs, rhs) triple of every pair compared."""

    __slots__ = ("law", "passed", "checked", "witness", "rows")

    def __init__(self, law: str, passed: bool, checked: int,
                 witness: tuple[FieldElement, ...] | None = None, rows: tuple[tuple, ...] = ()):
        self.law = law
        self.passed = passed
        self.checked = checked
        self.witness = witness
        self.rows = rows

    def describe(self) -> str:
        if self.passed:
            return f"{self.law}: pass ({self.checked} pairs)"
        x, y, lhs, rhs = self.witness
        return (f"{self.law}: violated at x = {format_element(x)}, y = {format_element(y)}: "
                f"lhs = {format_element(lhs)}, rhs = {format_element(rhs)}, "
                f"diff = {format_element(lhs - rhs)}")


def verify_map_laws(m: AdditiveMap, law: str,
                    samples: list[tuple[FieldElement, FieldElement]]) -> LawReport:
    """Check one law exactly on every sample pair; violations are
    reported (first offending pair with both sides), never raised."""
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}; expected one of {_LAWS}")
    if not samples:
        raise ValueError("samples must be nonempty")
    # sample pairs share their entries: map each argument once
    image = functools.cache(lambda v: apply_map(m, v))
    rows = []
    for x, y in samples:
        if law == ADDITIVE:
            lhs = image(x + y)
            rhs = image(x) + image(y)
        elif law == MULTIPLICATIVE:
            lhs = image(x * y)
            rhs = image(x) * image(y)
        else:
            lhs = image(x * y)
            rhs = image(x) * y + x * image(y)
        rows.append(((x, y), lhs, rhs))
        if lhs != rhs:
            return LawReport(law, False, len(samples), (x, y, lhs, rhs), tuple(rows))
    return LawReport(law, True, len(samples), rows=tuple(rows))
