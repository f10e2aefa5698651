"""Generalized polynomials: sums of monomial components, whose
homogeneous parts are the ``components`` of a ``GenPoly``; empirical
degree detection by iterated differencing, and sample-based variety
rank.

Degree and rank results are certificates on the sampled set, never
theorems; reports and docs carry that qualifier.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement

from .errors import SpecMismatch
from .fields import FieldElement, FieldSpec
from .forms import DEFAULT_ARITY_CAP, GenMonomial, delta_many
from .linalg import rank as matrix_rank

#: Sentinel for a failed degree search.
NO_BOUND_FOUND = None


class GenPoly:
    """Finite sum of generalized monomials of pairwise distinct degrees."""

    __slots__ = ("components", "spec")

    def __init__(self, components: tuple[GenMonomial, ...], spec: FieldSpec):
        self.components = components
        self.spec = spec
        degrees = [c.degree for c in self.components]
        if len(set(degrees)) != len(degrees):
            raise SpecMismatch("component degrees must be pairwise distinct")
        for c in self.components:
            if c.spec != self.spec:
                raise SpecMismatch("component field disagrees with the polynomial's field")

    @property
    def degree(self) -> int:
        return max((c.degree for c in self.components), default=0)

    def __call__(self, x: FieldElement) -> FieldElement:
        return eval_genpoly(self, x)


def genpoly_from(components, spec=None) -> GenPoly:
    components = tuple(components)
    return GenPoly(components, spec or (components[0].spec if components else None))


def eval_genpoly(p: GenPoly, x: FieldElement) -> FieldElement:
    total = p.spec.zero()
    for component in p.components:
        total = total + component(x)
    return total


def degree_estimate(f, probes: list[FieldElement], cap: int, spec: FieldSpec):
    """Smallest n <= cap with Delta_{y1..y(n+1)} f(0) = 0 for every
    sampled probe tuple; NO_BOUND_FOUND when the scan is exhausted.  The
    difference operator is symmetric in its increments, so unordered
    tuples cover all ordered choices.

    A sample-based upper-degree certificate, not a proof.
    """
    if cap >= DEFAULT_ARITY_CAP:
        raise SpecMismatch(f"cap {cap} needs {cap + 1} increments; the arity cap is "
                           f"{DEFAULT_ARITY_CAP}")
    if not probes:
        raise SpecMismatch("probes must be nonempty")
    for y in probes:
        if y.is_zero():
            raise SpecMismatch("probes must be nonzero")
    zero = spec.zero()
    # probe tuples share their subset sums: evaluate f once per point
    f = functools.cache(f)
    for n in range(cap + 1):
        if all(delta_many(f, list(tup), zero).is_zero()
               for tup in combinations_with_replacement(probes, n + 1)):
            return n
    return NO_BOUND_FOUND


ADDITIVE_TRANSLATES = "add"
MULTIPLICATIVE_TRANSLATES = "mult"


def variety_rank(f, translates: list[FieldElement], points: list[FieldElement],
                 operation: str = ADDITIVE_TRANSLATES) -> int:
    """Exact rank of the translate-value matrix [f(h_j op g_i)].

    The rank of the sampled matrix is a lower bound for the dimension
    of the variety of f (the linear space spanned by its translates)
    over the field of f.
    """
    if operation not in (ADDITIVE_TRANSLATES, MULTIPLICATIVE_TRANSLATES):
        raise SpecMismatch(f"unknown translate operation {operation!r}")
    if not translates:
        raise SpecMismatch("need at least one translate")
    if len(points) < len(translates):
        raise SpecMismatch("need at least as many points as translates")
    if operation == MULTIPLICATIVE_TRANSLATES:
        for g in translates:
            if g.is_zero():
                raise SpecMismatch("multiplicative translates must be nonzero")
    matrix = []
    for g in translates:
        if operation == ADDITIVE_TRANSLATES:
            row = [f(h + g) for h in points]
        else:
            row = [f(h * g) for h in points]
        matrix.append(row)
    return matrix_rank(matrix)
