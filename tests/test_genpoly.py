"""Generalized polynomials: degree detection, variety rank."""

import functools
from itertools import combinations_with_replacement

import pytest

from polcheck.errors import SpecMismatch
from polcheck.fields import FieldSpec
from polcheck.forms import MapOfProduct, ProductSym, delta_many, trace
from polcheck.genpoly import (
    DEGREE_CAP,
    NO_BOUND_FOUND,
    GenPoly,
    degree_estimate,
    eval_genpoly,
    genpoly_from,
    variety_rank,
)
from polcheck.maps import build_derivation, build_endomorphism, identity_map
from polcheck.oracle import Oracle, from_element
from polcheck.session import default_probes

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])

CONJ = build_endomorphism(Q2, conjugate_base=True)
NORM = trace(ProductSym((identity_map(Q2), CONJ)))
DDT = build_derivation(QT, {"t": QT.one()})
A_MAP = DDT + identity_map(QT)
F28 = trace(MapOfProduct(A_MAP, 2))  # x -> a(x^2) with a = d + id
E = Q2.element("1+sqrt(2)")


# -- evaluation ---------------------------------------------------------

def test_eval_sum_of_components():
    p = genpoly_from([NORM, trace(ProductSym((identity_map(Q2),)))])
    assert eval_genpoly(p, E) == Q2.element("sqrt(2)")


def test_empty_genpoly_is_zero():
    p = GenPoly((), Q2)
    assert eval_genpoly(p, E).is_zero()
    assert p.degree == 0


def test_example_quadratic_value():
    # a(x^2) = 2x d(x) + x^2 at x = t
    assert F28(QT.element("t")) == QT.element("t^2+2*t")


def test_distinct_degrees_enforced():
    with pytest.raises(SpecMismatch):
        genpoly_from([NORM, NORM])
    with pytest.raises(SpecMismatch):
        GenPoly((NORM,), QT)  # components over Q(sqrt 2)


# -- degree estimation -----------------------------------------------------

def test_degree_of_norm_is_two():
    assert degree_estimate(NORM, default_probes(Q2)) == 2


def test_degree_of_additive_map_is_one():
    f = trace(ProductSym((identity_map(QT),)))
    assert degree_estimate(f, default_probes(QT)) == 1


def test_degree_of_example_quadratic_is_two():
    assert degree_estimate(F28, default_probes(QT)) == 2


def test_degree_of_zero_is_zero():
    assert degree_estimate(lambda x: Q.zero(), default_probes(Q)) == 0


def test_degree_no_bound_found():
    # 1/(x+7) is not a generalized polynomial of degree <= DEGREE_CAP on these probes
    f = lambda x: Q.one() / (x + Q.from_int(7))
    assert degree_estimate(f, default_probes(Q)) is NO_BOUND_FOUND


def test_degree_evaluates_f_once_per_distinct_point():
    calls = []

    def counting(x):
        calls.append(x)
        return NORM(x)

    assert degree_estimate(counting, default_probes(Q2)) == 2
    assert len(calls) == len(set(calls))


def reference_degree(f, probes):
    """The degree scan as one delta_many per probe tuple, f memoized per
    point."""
    zero = probes[0].spec.zero()
    f = functools.cache(f)
    for n in range(DEGREE_CAP + 1):
        if all(delta_many(f, list(tup), zero).is_zero()
               for tup in combinations_with_replacement(probes, n + 1)):
            return n
    return NO_BOUND_FOUND


_CUBIC = trace(ProductSym((identity_map(Q2), CONJ, CONJ)))


@pytest.mark.parametrize("f,probes", [
    (NORM, default_probes(Q2)),
    (genpoly_from([_CUBIC, NORM, trace(ProductSym((CONJ,)))]), default_probes(Q2)),
    (_CUBIC, [E, E, Q2.one()]),
    (F28, default_probes(QT)),
    (trace(ProductSym((identity_map(QT), DDT, A_MAP))), default_probes(QT)[:3]),
    (lambda x: x ** 6 - x, default_probes(Q)),
    (lambda x: x ** 7, default_probes(Q)),
    (lambda x: Q.one() / (x + Q.from_int(7)), [Q.from_int(2), Q.element("1/2")]),
], ids=["norm", "sum", "repeated-probe", "example-2.8", "cubic-Q(t)", "sextic", "septic",
        "no-bound"])
def test_degree_matches_the_per_tuple_scan(f, probes):
    assert degree_estimate(f, probes) == reference_degree(f, probes)


def test_degree_rejects_zero_probes():
    with pytest.raises(SpecMismatch):
        degree_estimate(NORM, [Q2.zero()])


# -- variety rank ---------------------------------------------------------------

def test_rank_of_square_is_three():
    f = lambda x: x * x
    translates = [Q.from_int(i) for i in range(4)]
    points = [Q.from_int(i) for i in range(1, 7)]
    assert variety_rank(f, translates, points, "add") == 3


def test_rank_of_zero_function():
    assert variety_rank(lambda x: Q.zero(), [Q.one()], [Q.one(), Q.from_int(2)], "add") == 0


EX28_TRANSLATES = ["1", "t", "t+1", "t^2", "t-1"]
EX28_POINTS = ["t+2", "2*t", "t^2+1", "t^3-1", "t+5", "t^2-t"]


def _ex28_sets():
    return ([QT.element(s) for s in EX28_TRANSLATES],
            [QT.element(s) for s in EX28_POINTS])


def test_example28_multiplicative_rank_frozen():
    # Every multiplicative translate of a(x^2) lies in the span of
    # x -> x^2 and x -> 2x d(x); the exact rank is 2 (oracle-confirmed).
    translates, points = _ex28_sets()
    assert variety_rank(F28, translates, points, "mult") == 2


def test_example28_additive_rank_exceeds_classical_three():
    # Additive translates span {f, x, d(x), 1}: rank 4 > 3, while a
    # classical quadratic x -> c x^2 spans only {x^2, x, 1}.
    translates, points = _ex28_sets()
    assert variety_rank(F28, translates, points, "add") == 4


def test_example28_ranks_match_oracle():
    oracle = Oracle(QT)
    translates, points = _ex28_sets()
    p = genpoly_from([F28])
    for operation, expected in (("mult", 2), ("add", 4)):
        matrix = []
        for g in translates:
            row = []
            for h in points:
                arg = h * g if operation == "mult" else h + g
                row.append(oracle.eval_genpoly(p, from_element(arg)))
            matrix.append(row)
        assert oracle.rank(matrix) == expected


def test_rank_monotone_in_translates_and_points():
    translates, points = _ex28_sets()
    r_small = variety_rank(F28, translates[:2], points[:3], "add")
    r_mid = variety_rank(F28, translates[:3], points[:4], "add")
    r_full = variety_rank(F28, translates, points, "add")
    assert r_small <= r_mid <= r_full


def test_rank_validations():
    with pytest.raises(SpecMismatch):
        variety_rank(F28, [], [QT.one()], "add")
    with pytest.raises(SpecMismatch):
        variety_rank(F28, [QT.zero()], [QT.one()], "mult")
    with pytest.raises(SpecMismatch):
        variety_rank(F28, [QT.one(), QT.element("t")], [QT.one()], "add")
