"""Generalized polynomials: sums of monomial components, whose
homogeneous parts are the ``components`` of a ``GenPoly``; empirical
degree detection by iterated differencing (Frechet's equation on probe
tuples, all orders off one difference table), and sample-based variety
rank.

Degree and rank results are certificates on the sampled set, never
theorems; reports and docs carry that qualifier.
"""

from __future__ import annotations

from .errors import SpecMismatch
from .fields import FieldElement, FieldSpec
from .forms import GenMonomial, difference_table, multisets
from .linalg import rank as matrix_rank

#: Sentinel for a failed degree search.
NO_BOUND_FOUND = None

#: Highest degree the degree scan tries: its differences of order
#: DEGREE_CAP + 1 stay within the arity cap of ``forms``.
DEGREE_CAP = 6


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
    """The sum of the components at x, from the first one (zero when
    there is none)."""
    if not p.components:
        return p.spec.zero()
    first, *rest = p.components
    total = first(x)
    for component in rest:
        total = total + component(x)
    return total


def degree_estimate(f, probes: list[FieldElement]):
    """Smallest n <= DEGREE_CAP with Delta_{y1..y(n+1)} f(0) = 0 for
    every sampled probe tuple; NO_BOUND_FOUND when the scan is exhausted.
    The difference operator is symmetric in its increments, so unordered
    tuples cover all ordered choices.  All orders share one
    ``difference_table``; each stops at its first nonzero row.

    A sample-based upper-degree certificate, not a proof.
    """
    if not probes:
        raise SpecMismatch("probes must be nonempty")
    if any(y.is_zero() for y in probes):
        raise SpecMismatch("probes must be nonzero")
    # a single component is homogeneous: the table reads f(m*x) off f(x)
    degree = f.components[0].degree if isinstance(f, GenPoly) and len(f.components) == 1 else None
    differences = difference_table((f,), probes[0].spec.zero(), probes, degree)
    for n in range(DEGREE_CAP + 1):
        if all(differences(counts)[0].is_zero() for _, counts in multisets(probes, n + 1)):
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
