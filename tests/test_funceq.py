"""Equation checking and the constructive classifiers."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck import fields as fields_module
from polcheck import forms as forms_module
from polcheck import funceq as funceq_module
from polcheck.errors import (
    ArityTooLarge,
    DenominatorVanishes,
    DictionaryInsufficient,
    SpecMismatch,
)
from polcheck.fields import (
    FieldSpec,
    SampleConfig,
    format_element,
    random_element,
    sample_elements,
)
from polcheck.forms import LinComb, MapOfProduct, ProductSym, delta_many, eval_form, trace
from polcheck.funceq import (
    HOLDS_ON_SAMPLE,
    HOLDS_ON_SPAN,
    REFUTED,
    check_pointwise,
    check_symmetrized,
    check_values,
    classify_quadratic_square,
    degree_precheck,
    evaluate,
    quartic_solve,
)
from polcheck.genpoly import genpoly_from
from polcheck.linalg import q_basis, rank
from polcheck.maps import (
    apply_map,
    build_derivation,
    build_endomorphism,
    identity_map,
    scale_map,
    sum_maps,
)
from polcheck.oracle import Oracle, from_element, matches
from polcheck.polys import Poly
from polcheck.session import default_probes

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])

CONJ = build_endomorphism(Q2, conjugate_base=True)
NORM_FORM = ProductSym((identity_map(Q2), CONJ))
NORM = trace(NORM_FORM)
NORM_POLY = genpoly_from([NORM])
DDT = build_derivation(QT, {"t": QT.one()})
A_MAP = sum_maps(DDT, identity_map(QT))
F28_FORM = MapOfProduct(A_MAP, 2)
F28 = trace(F28_FORM)
E = Q2.element("1+sqrt(2)")


def xk(spec, k, coeff=None):
    """The polynomial coeff*x^k (x^k by default) over ``spec``."""
    return Poly(1, {(k,): spec.one() if coeff is None else coeff})


def poly(coefficients):
    """The one-variable polynomial with these coefficients, low degree first."""
    return Poly(1, {(k,): c for k, c in enumerate(coefficients)})


def record_traces(monkeypatch) -> list:
    """Patch the trace rule to log each (form, x) it is called with,
    nested nodes included."""
    calls = []
    original = forms_module._trace

    def logged(form, x):
        calls.append((form, x))
        return original(form, x)

    monkeypatch.setattr(forms_module, "_trace", logged)
    return calls


def subset_sums(tuples, zero) -> set:
    """The distinct points at which polarizing every tuple evaluates a
    trace."""
    sums = set()
    for tup in tuples:
        delta_many(lambda s: sums.add(s) or zero, list(tup), zero)
    return sums


def each_once(args, expected) -> bool:
    return len(args) == len(set(args)) and set(args) == expected


# -- degree precheck ----------------------------------------------------------

def test_precheck_pass_and_fail():
    assert degree_precheck(2, xk(Q, 2), xk(Q, 2)) is None
    assert degree_precheck(2, xk(Q, 2), xk(Q, 3)) == (
        "degree precheck failed: both sides would be generalized polynomials of "
        "degrees 2*2 and 2*3")
    assert degree_precheck(1, xk(Q, 1), xk(Q, 1)) is None


# -- pointwise checks -----------------------------------------------------------

def test_norm_square_holds_pointwise():
    report = check_pointwise(NORM, xk(Q2, 2), xk(Q2, 2), [E])
    assert report.verdict == HOLDS_ON_SAMPLE


def test_example28_refuted_with_witness():
    report = check_pointwise(F28, xk(QT, 2), xk(QT, 2), [QT.element("t")])
    assert report.verdict == REFUTED
    w = report.witnesses[0]
    assert w.difference == QT.element("-4*t^2")


def test_zero_function_holds_for_zero_fixing_q():
    zero_poly = genpoly_from([], Q)
    q = poly([Q.zero(), Q.from_int(5), Q.one()])
    report = check_pointwise(zero_poly, xk(Q, 2), q, [Q.one(), Q.from_int(2)])
    assert report.verdict == HOLDS_ON_SAMPLE


def test_denominator_vanishes_is_skipped_and_noted():
    # dependent images are only caught lazily, at application time
    qtu = FieldSpec.ratfunc(Q, ["t", "u"])
    s = build_endomorphism(qtu, {"t": qtu.element("t"), "u": qtu.element("t")})
    f = trace(ProductSym((s,)))
    samples = [qtu.element("1/(t-u)"), qtu.element("t*u")]
    report = check_pointwise(f, xk(qtu, 1), xk(qtu, 1), samples)
    assert report.verdict == HOLDS_ON_SAMPLE
    assert "skipped" in report.sample_description
    assert any(w.note for w in report.witnesses)


def test_refutation_soundness_against_oracle():
    report = check_pointwise(F28, xk(QT, 2), xk(QT, 2),
                             [QT.element("t"), QT.element("t+1")])
    oracle = Oracle(QT)
    p = genpoly_from([F28])
    for w in report.witnesses:
        ox = from_element(w.input)
        lhs = oracle.eval_genpoly(p, oracle.polyspec(xk(QT, 2))(ox))
        rhs = oracle.polyspec(xk(QT, 2))(oracle.eval_genpoly(p, ox))
        assert matches(w.lhs, lhs) and matches(w.rhs, rhs)
        assert not matches(w.difference - w.difference, from_element(w.difference))


# -- symmetrized span checks ------------------------------------------------------

def test_norm_span_certificate():
    report = check_symmetrized(NORM_POLY, xk(Q2, 2), xk(Q2, 2),
                               default_probes(Q2)[:3])
    assert report.verdict == HOLDS_ON_SPAN


def test_example28_span_refuted_with_tuple_witness():
    report = check_symmetrized(genpoly_from([F28]), xk(QT, 2), xk(QT, 2),
                               [QT.one(), QT.element("t")])
    assert report.verdict == REFUTED
    assert isinstance(report.witnesses[0].input, tuple)


def test_zero_monomial_span_holds():
    from polcheck.maps import zero_map

    z = trace(MapOfProduct(zero_map(Q2), 2))
    report = check_symmetrized(genpoly_from([z]), xk(Q2, 2), xk(Q2, 2), [Q2.one(), E])
    assert report.verdict == HOLDS_ON_SPAN


def test_span_certifies_sides_of_any_shape():
    p = poly([Q2.one(), Q2.one()])  # 1 + x: N(1 + x) = N(x) fails at the point 0
    report = check_symmetrized(NORM_POLY, p, xk(Q2, 1), [Q2.one()])
    assert report.verdict == REFUTED
    w = report.witnesses[0]
    assert (w.input, w.lhs, w.rhs) == ((), Q2.one(), Q2.zero())
    # N(x^2) = N(x)^3 differs in degree: every order 0..2*3 on one generator
    report = check_symmetrized(NORM_POLY, xk(Q2, 2), xk(Q2, 3), [Q2.one()])
    assert report.verdict == REFUTED and len(report.rows) == 7
    assert report.sample_description.endswith("7 tuple(s) of order 0..6")
    # a scaled P is certified too: N(2*x^2) = 4*N(x)^2
    two_x2 = xk(Q2, 2, Q2.from_int(2))
    report = check_symmetrized(NORM_POLY, two_x2, xk(Q2, 2), [Q2.one()])
    assert report.verdict == REFUTED
    w = report.witnesses[0]
    assert (w.input, w.lhs, w.rhs) == ((Q2.one(),) * 4, Q2.from_int(4), Q2.one())
    report = check_symmetrized(NORM_POLY, two_x2, xk(Q2, 2, Q2.from_int(4)),
                               default_probes(Q2)[:3])
    assert report.verdict == HOLDS_ON_SPAN


def test_span_check_caps_the_arity():
    cubic = trace(ProductSym((identity_map(Q2), identity_map(Q2), CONJ)))
    with pytest.raises(ArityTooLarge, match="arity 9, cap is 8"):
        check_symmetrized(genpoly_from([cubic]), xk(Q2, 3), xk(Q2, 3), [Q2.one()])
    # the cap itself is allowed: the norm at x^4 has arity 8
    report = check_symmetrized(NORM_POLY, xk(Q2, 4), xk(Q2, 4), [Q2.one()])
    assert report.verdict == HOLDS_ON_SPAN


def test_span_check_caps_the_degree_of_any_difference():
    linear = trace(ProductSym((identity_map(Q2),)))
    # N + id at x^9 has degree 2*9, over the cap although f is not a monomial
    with pytest.raises(ArityTooLarge, match="arity 18, cap is 8"):
        check_symmetrized(genpoly_from([NORM, linear]), xk(Q2, 9), xk(Q2, 9), [Q2.one()])
    # the empty f is 0 on both sides: one row, of order 0, at the point 0
    report = check_symmetrized(genpoly_from([], Q2), xk(Q2, 9), xk(Q2, 9), [Q2.one()])
    assert report.verdict == HOLDS_ON_SPAN
    assert report.rows == (((), Q2.zero(), Q2.zero()),)


def test_span_check_refuses_rows_over_the_budget(monkeypatch, time_limit):
    gens = [QT.element(f"t^{i}") for i in range(10)]  # Q-independent
    with time_limit(0.1, "refusing an over-budget span check"):
        with pytest.raises(ArityTooLarge, match="24310 rows on 10 generators, budget is 1000"):
            check_symmetrized(genpoly_from([F28]), xk(QT, 4), xk(QT, 4), gens)
    # the budget counts C(r+D-1, D) rows of order D for a homogeneous
    # difference, C(r+D, D) of every order otherwise, on a Q-basis of r
    gens = default_probes(Q2)[:3]  # 1, sqrt(2), 1+sqrt(2): a basis of 2
    monkeypatch.setattr(funceq_module, "MAX_SPAN_ROWS", 10)
    report = check_symmetrized(NORM_POLY, xk(Q2, 4), xk(Q2, 4), gens)
    assert len(report.rows) - len(report.dropped) == 9
    with pytest.raises(ArityTooLarge, match="45 rows on 2 generators, budget is 10"):
        check_symmetrized(NORM_POLY, poly([Q2.zero(), Q2.one(), Q2.zero(), Q2.zero(), Q2.one()]),
                          xk(Q2, 4), gens)


def test_span_consistency_implies_pointwise_on_span_elements():
    gens = default_probes(Q2)[:3]
    span_report = check_symmetrized(NORM_POLY, xk(Q2, 2), xk(Q2, 2), gens)
    assert span_report.verdict == HOLDS_ON_SPAN
    # rational combinations of the generators
    combos = [gens[0] + gens[1], Q2.from_fraction(Fraction(2, 3)) * gens[2],
              gens[0] - gens[2] + gens[1]]
    pointwise = check_pointwise(NORM, xk(Q2, 2), xk(Q2, 2), combos)
    assert pointwise.verdict == HOLDS_ON_SAMPLE


@pytest.mark.parametrize("k", [2, 3])
def test_span_check_evaluates_each_trace_once_per_subset_sum(monkeypatch, k):
    gens = _QT_INDEPENDENT
    form = ProductSym((identity_map(QT), _QT_SHIFT))  # x*s(x), multiplicative
    p, q = xk(QT, k), xk(QT, k)
    sums = subset_sums(combinations_with_replacement(gens, 2 * k), QT.zero())
    assert len(sums) == math.comb(len(gens) + 2 * k, len(gens))
    # both sides are homogeneous of degree 2k, so a sum m*s, m > 1, reads
    # the value at s: the trace runs at the primitive sums only (the
    # generators are Q-independent), once at P(s) (left side) and once at
    # s (right side)
    multiples = {s * m for s in sums for m in range(2, 2 * k + 1)} & sums - {QT.zero()}
    primitive = sums - multiples
    assert len(primitive) == {2: 23, 3: 56}[k]
    expected = Counter([evaluate(p, s) for s in primitive] + list(primitive))
    calls = record_traces(monkeypatch)
    for _ in range(2):  # the second call counts afresh: no memo outlives a call
        calls.clear()
        assert check_symmetrized(genpoly_from([trace(form)]), p, q, gens).verdict == HOLDS_ON_SPAN
        assert all(called == form for called, _ in calls)
        assert Counter(x for _, x in calls) == expected
        assert not multiples & {x for _, x in calls}


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _q2(pair):
    a, b = pair
    return Q2.from_fraction(a) + Q2.from_fraction(b) * Q2.sqrt_element()


_NONZERO_Q2 = st.tuples(_SMALL, _SMALL).filter(any).map(_q2)


@settings(max_examples=30, deadline=None)
@given(a=_NONZERO_Q2, lam=_NONZERO_Q2, c=_SMALL, k=st.integers(1, 3),
       phis=st.tuples(st.booleans(), st.booleans()),
       combos=st.lists(st.tuples(_SMALL, _SMALL, _SMALL), min_size=1, max_size=3),
       matched=st.booleans())
def test_span_verdict_agrees_with_theorem_and_pointwise(a, lam, c, k, phis, combos, matched):
    phi1, phi2 = (CONJ if conj else identity_map(Q2) for conj in phis)
    c = Q2.from_fraction(c)
    if matched and not c.is_zero():  # the one lambda that solves the equation
        lam = c * apply_map(phi1, a) * apply_map(phi2, a) / c ** k
    f = trace(LinComb(((c, ProductSym((phi1, phi2))),)))
    p, q = xk(Q2, k, a), xk(Q2, k, lam)
    gens = default_probes(Q2)[:3]
    span = check_symmetrized(genpoly_from([f]), p, q, gens)
    holds = c * apply_map(phi1, a) * apply_map(phi2, a) == lam * c ** k
    assert span.verdict == (HOLDS_ON_SPAN if holds else REFUTED)
    points = [Q2.one()] + [sum((Q2.from_fraction(r) * g for r, g in zip(rs, gens)), Q2.zero())
                           for rs in combos]
    pointwise = check_pointwise(f, p, q, points)
    assert pointwise.verdict == (HOLDS_ON_SAMPLE if holds else REFUTED)


def subset_sum_weights(ys, x0) -> dict:
    """The signed count of each distinct subset sum x0 + sum(S) of ``ys``,
    zero counts dropped: one dict per tuple, keyed by field elements."""
    weights = {x0: 1}
    for y in ys:
        step = {}
        for s, w in weights.items():
            step[s] = step.get(s, 0) - w
            step[s + y] = step.get(s + y, 0) + w
        weights = {s: w for s, w in step.items() if w}
    return weights


def reference_rows(f, p, q, gens) -> list:
    """Span-check rows as each tuple's own dict of subset sums gives them,
    each side memoized per point across the tuples."""
    zero = gens[0].spec.zero()
    lhs_side = functools.cache(lambda x: f(evaluate(p, x)))
    rhs_side = functools.cache(lambda x: evaluate(q, f(x)))
    rows = []
    for tup in combinations_with_replacement(gens, f.degree * p.total_degree()):
        weights = subset_sum_weights(tup, zero)
        scale = math.factorial(len(tup))
        rows.append((tup, *(sum((side(s) * w for s, w in weights.items()), side(zero) * 0) / scale
                            for side in (lhs_side, rhs_side))))
    return rows


_QT_SHIFT = build_endomorphism(QT, {"t": QT.element("t+1")})
_QT_INDEPENDENT = [QT.one(), QT.element("t"), QT.element("t^2")]
_LATTICE = {  # maps, a generator pool of which any [F:Q] or 3 are Q-independent
    "Q(sqrt 2)": (Q2, [identity_map(Q2), CONJ], ["1", "sqrt(2)", "1+sqrt(2)", "2-3*sqrt(2)"], 2),
    "Q(t)": (QT, [identity_map(QT), DDT, _QT_SHIFT], ["1", "t", "t^2", "1/(t-1)", "t^3-t"], 3),
}


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(sorted(_LATTICE)), data=st.data())
def test_span_rows_match_per_tuple_subset_sums(field, data):
    spec, maps, pool, most = _LATTICE[field]
    n = data.draw(st.integers(1, 3), label="degree")
    k = data.draw(st.integers(1, 6 // n), label="k")
    f = genpoly_from([trace(ProductSym(tuple(data.draw(st.sampled_from(maps)) for _ in range(n))))])
    texts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=most, unique=True))
    gens = [spec.element(text) for text in texts]
    a, lam = (spec.element(data.draw(st.sampled_from(pool))) for _ in range(2))
    p, q = xk(spec, k, a), xk(spec, k, lam)
    report = check_symmetrized(f, p, q, gens)
    rows = reference_rows(f, p, q, gens)
    assert list(report.rows) == rows
    assert report.verdict == (REFUTED if any(lhs != rhs for _, lhs, rhs in rows) else HOLDS_ON_SPAN)


def test_span_check_calls_each_side_once_per_lattice_point(monkeypatch):
    gens = _QT_INDEPENDENT
    sides = funceq_module._sides
    logs = ([], [])

    def logged_sides(f, p, q):
        return tuple((lambda x, side=side, log=log: log.append(x) or side(x))
                     for side, log in zip(sides(f, p, q), logs))

    monkeypatch.setattr(funceq_module, "_sides", logged_sides)
    arity = 8  # N(x^4) == N(x)^4 for N(x) = x*s(x) is an arity-8 check
    f = genpoly_from([trace(ProductSym((identity_map(QT), _QT_SHIFT)))])
    report = check_symmetrized(f, xk(QT, 4), xk(QT, 4), gens)
    assert report.verdict == HOLDS_ON_SPAN and len(report.rows) == math.comb(3 + arity - 1, arity)
    lattice = {sum((QT.from_int(c) * g for c, g in zip(j, gens)), QT.zero())
               for j in itertools.product(range(arity + 1), repeat=3) if sum(j) <= arity}
    per_tuple = sum(len(subset_sum_weights(tup, QT.zero()))
                    for tup in combinations_with_replacement(gens, arity))
    for log in logs:
        assert len(log) == len(set(log)) and set(log) <= lattice
        assert len(log) <= len(lattice) < per_tuple


def test_span_check_rejects_a_generator_outside_the_domain():
    with pytest.raises(SpecMismatch, match="span generator outside the field of f"):
        check_symmetrized(NORM_POLY, xk(Q2, 2), xk(Q2, 2), [Q2.one(), QT.one()])


def test_span_check_reduces_dependent_generators_to_a_q_basis():
    texts = ["1", "2", "sqrt(2)", "1+sqrt(2)", "3", "2*sqrt(2)", "1/2", "1-sqrt(2)", "5", "-sqrt(2)"]
    gens = [Q2.element(text) for text in texts]
    # C(10+7, 8) = 24310 rows on all ten; C(2+7, 8) = 9 on the basis (1, sqrt(2))
    report = check_symmetrized(NORM_POLY, xk(Q2, 4), xk(Q2, 4), gens)
    assert report.verdict == HOLDS_ON_SPAN
    assert report.basis == (Q2.one(), Q2.sqrt_element())
    assert [g for g, _ in report.dropped] == gens[1:2] + gens[3:]
    assert len(report.rows) == len(report.dropped) + 9
    assert report.sample_description == (
        f"span generators ({', '.join(texts)}); Q-basis (1, sqrt(2)); 9 tuple(s) of arity 8")
    # independent generators keep the text without a basis
    report = check_symmetrized(NORM_POLY, xk(Q2, 2), xk(Q2, 2), gens[:1] + gens[2:3])
    assert report.sample_description == "span generators (1, sqrt(2)); 5 tuple(s) of arity 4"
    assert report.dropped == () and len(report.rows) == 5


def test_span_check_drops_zero_generators():
    zero = Q2.zero()
    report = check_symmetrized(NORM_POLY, xk(Q2, 2), xk(Q2, 2), [zero, E, zero])
    assert report.verdict == HOLDS_ON_SPAN and report.basis == (E,)
    assert report.dropped == ((zero, ()), (zero, (0,)))
    assert report.rows[:2] == (("generator 0 on the Q-basis", zero),) * 2
    assert [tup for tup, _, _ in report.rows[2:]] == [(E,) * 4]


@pytest.mark.parametrize("p, q, verdict", [
    (xk(Q2, 2), xk(Q2, 2), HOLDS_ON_SPAN),  # homogeneous: no row of order 4 on no generator
    (poly([Q2.one(), Q2.zero(), Q2.one()]), poly([Q2.one(), Q2.zero(), Q2.one()]), HOLDS_ON_SPAN),
    (poly([Q2.one(), Q2.one()]), poly([Q2.from_int(2), Q2.one()]), REFUTED),
])
def test_span_of_zero_generators_decides_at_the_point_zero(p, q, verdict):
    report = check_symmetrized(NORM_POLY, p, q, [Q2.zero(), Q2.zero()])
    assert report.verdict == verdict and report.basis == ()
    assert "; Q-basis (); " in report.sample_description
    if verdict == REFUTED:  # N(0 + 1) = 1, but N(0) + 2 = 2
        (w,) = report.witnesses
        assert (w.input, w.lhs, w.rhs) == ((), Q2.one(), Q2.from_int(2))


Q2T = FieldSpec.ratfunc(Q2, ["t"])
_ATOMS = {  # Q-independent elements of each field
    "Q": (Q, ["1"]),
    "Q(sqrt 2)": (Q2, ["1", "sqrt(2)"]),
    "Q(t)": (QT, ["1", "t", "t^2", "1/(t-1)"]),
    "Q(sqrt 2)(t)": (Q2T, ["1", "sqrt(2)", "t", "sqrt(2)*t", "1/(t-1)", "sqrt(2)/(t+1)",
                           "(t+sqrt(2))/(t^2+1)"]),
}


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(sorted(_ATOMS)), data=st.data())
def test_q_basis_is_the_greedy_basis_and_rebuilds_what_it_drops(field, data):
    """Generators are rational combinations of independent atoms, or
    integer combinations of earlier generators; their atom vectors tell
    which ones the greedy basis keeps."""
    spec, texts = _ATOMS[field]
    atoms = [spec.element(text) for text in texts]
    vectors = []
    for _ in range(data.draw(st.integers(1, 6), label="generators")):
        if vectors and data.draw(st.booleans(), label="combination"):
            ks = data.draw(st.lists(st.integers(-2, 2), min_size=len(vectors), max_size=len(vectors)))
            vectors.append([sum(k * v[i] for k, v in zip(ks, vectors)) for i in range(len(atoms))])
        else:
            vectors.append(data.draw(st.lists(_SMALL, min_size=len(atoms), max_size=len(atoms))))
    combine = lambda cs, xs: sum((spec.from_fraction(Fraction(c)) * x  # noqa: E731
                                  for c, x in zip(cs, xs)), spec.zero())
    gens = [combine(v, atoms) for v in vectors]
    span_rank = lambda vs: rank([[Q.from_fraction(Fraction(c)) for c in v] for v in vs])  # noqa: E731
    kept = [j for j in range(len(gens)) if span_rank(vectors[:j + 1]) > span_rank(vectors[:j])]
    basis, dropped = q_basis(gens)
    assert basis == [gens[j] for j in kept]  # an ordered sublist of the generators
    assert span_rank([vectors[j] for j in kept]) == len(basis)  # independent over Q
    assert [g for g, _ in dropped] == [g for j, g in enumerate(gens) if j not in kept]
    for g, coefficients in dropped:
        assert len(coefficients) <= len(basis)
        assert all(type(c) is Fraction for c in coefficients)
        assert combine(coefficients, basis) == g


_GENERAL = {  # the conjugation-like endomorphism s and a generator pool
    "Q(sqrt 2)": (Q2, CONJ, ["1", "sqrt(2)", "1+sqrt(2)", "2-3*sqrt(2)", "1/2"]),
    "Q(t)": (QT, _QT_SHIFT, ["1", "t", "t+1", "t^2", "1/(t-1)"]),
}


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(sorted(_GENERAL)), shape=st.sampled_from(["any", "invariant"]),
       data=st.data())
def test_general_span_verdict_agrees_with_points_of_the_span(field, shape, data):
    """f = a*N + b*x^2 + e*tr with N(x) = x*s(x) and tr = id + s, affine
    or quadratic P and Q.  A certificate holds at rational span points;
    a refutation differs at some lattice point sum j_i*g_i, |j| <= D."""
    spec, s, pool = _GENERAL[field]
    number = lambda: spec.from_fraction(data.draw(_SMALL))  # noqa: E731
    ident = identity_map(spec)
    if shape == "invariant":  # a*(N + tr/2) is invariant under x -> -x-1
        a = number()
        b, e = spec.zero(), a / 2
        p, q = poly([-spec.one(), -spec.one()]), xk(spec, 1)
    else:
        a, b, e = number(), number(), number()
        p, q = (poly([number() for _ in range(data.draw(st.integers(2, 3)))]) for _ in "pq")
    f = genpoly_from([trace(LinComb(((a, ProductSym((ident, s))), (b, ProductSym((ident, ident)))))),
                      trace(LinComb(((e, ProductSym((sum_maps(ident, s),))),)))])
    gens = [spec.element(text) for text in data.draw(st.lists(st.sampled_from(pool),
                                                              min_size=1, max_size=3))]
    report = check_symmetrized(f, p, q, gens)
    lhs, rhs = funceq_module._sides(f, p, q)
    if report.verdict == HOLDS_ON_SPAN:
        combos = data.draw(st.lists(st.lists(_SMALL, min_size=len(gens), max_size=len(gens)),
                                    min_size=1, max_size=3))
        for cs in combos:
            x = sum((spec.from_fraction(c) * g for c, g in zip(cs, gens)), spec.zero())
            assert lhs(x) == rhs(x)
    else:
        assert report.verdict == REFUTED
        d = f.degree * max(p.total_degree(), q.total_degree())
        lattice = (sum((spec.from_int(c) * g for c, g in zip(j, gens)), spec.zero())
                   for j in itertools.product(range(d + 1), repeat=len(gens)) if sum(j) <= d)
        assert any(lhs(x) != rhs(x) for x in lattice)
    if shape == "invariant":
        assert report.verdict == HOLDS_ON_SPAN


# -- evaluating P --------------------------------------------------------------------

def _coefficients(spec):
    gen = {Q: Q.one(), Q2: Q2.sqrt_element(), QT: QT.var("t")}[spec]
    return st.tuples(_SMALL, _SMALL).map(
        lambda ab: spec.from_fraction(ab[0]) + spec.from_fraction(ab[1]) * gen)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from([Q, Q2, QT]), seed=st.integers(0, 10 ** 6),
       degrees=st.lists(st.integers(0, 12), unique=True, max_size=5), data=st.data())
def test_evaluate_matches_dense_horner(spec, seed, degrees, data):
    coefficients = {k: data.draw(_coefficients(spec)) for k in degrees}
    x = random_element(spec, SampleConfig(seed=seed, count=1))
    expected = spec.zero()
    for k in range(max(degrees, default=0), -1, -1):
        expected = expected * x + coefficients.get(k, spec.zero())
    assert evaluate(Poly(1, {(k,): c for k, c in coefficients.items()}), x) == expected


# -- Lemma families ------------------------------------------------------------------

def _qt_endos():
    return (build_endomorphism(QT, {"t": QT.element("t^2")}),
            build_endomorphism(QT, {"t": QT.element("t+1")}))


@pytest.mark.parametrize("k", [2, 3])
def test_products_of_homomorphisms_satisfy_power_identity(k):
    s, u = _qt_endos()
    cases = [
        (trace(ProductSym((identity_map(Q2), CONJ))), Q2),
        (trace(ProductSym((s, u))), QT),
    ]
    for monomial, spec in cases:
        gens = default_probes(spec)[:3]
        report = check_symmetrized(genpoly_from([monomial]), xk(spec, k), xk(spec, k), gens)
        assert report.verdict == HOLDS_ON_SPAN, (k, spec.describe(), report.detail)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_homomorphism_pairs_hold_pointwise_up_to_fourth_power(k):
    s, u = _qt_endos()
    cases = [(Q2, [(identity_map(Q2), CONJ), (CONJ, CONJ)]),
             (QT, [(s, u), (s, s), (u, identity_map(QT))])]
    for spec, pairs in cases:
        from polcheck.session import default_probes

        for phi1, phi2 in pairs:
            f = trace(ProductSym((phi1, phi2)))
            report = check_pointwise(f, xk(spec, k), xk(spec, k),
                                     default_probes(spec))
            assert report.verdict == HOLDS_ON_SAMPLE, (spec.describe(), k)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivation_power_family(n, k):
    # f(x) = d(x^n) satisfies f(x^k) = k x^((k-1) n) f(x), checked
    # pointwise with the right side supplied as an expression.
    f = trace(MapOfProduct(DDT, n))
    samples = [x for x in sample_elements(QT, SampleConfig(seed=21, count=20,
                                                           max_height=3, max_degree=2))
               if not x.is_zero()]
    lhs = lambda x: f(x ** k)
    rhs = lambda x: QT.from_int(k) * x ** ((k - 1) * n) * f(x)
    report = check_values(lhs, rhs, samples)
    assert report.verdict == HOLDS_ON_SAMPLE, report.witnesses


def test_a_sample_that_holds_costs_no_subtraction(monkeypatch):
    ops = []
    counted = fields_module.field_arith

    def logged(op, lhs, rhs):
        ops.append(op)
        return counted(op, lhs, rhs)

    samples = [QT.element("t"), QT.element("(t+1)/(t-2)"), QT.element("3")]
    monkeypatch.setattr(fields_module, "field_arith", logged)
    report = check_values(lambda x: x * x, lambda x: x * x, samples)
    assert report.verdict == HOLDS_ON_SAMPLE and "sub" not in ops
    # a refuted sample still reports its difference
    report = check_values(lambda x: x * x, lambda x: x * x + 1, samples)
    assert report.verdict == REFUTED and ops.count("sub") == len(samples)
    assert [w.difference for w in report.witnesses] == [QT.from_int(-1)] * len(samples)


# -- quadratic classification -----------------------------------------------------------

def test_classify_norm_two_homomorphisms():
    report = classify_quadratic_square(NORM_FORM, [identity_map(Q2), CONJ],
                                       default_probes(Q2))
    assert report.verdict == HOLDS_ON_SAMPLE
    c = report.classification
    assert c.case_tag == "two independent homomorphisms"
    assert c.f_at_1 == Q2.one()
    assert set(c.factor_descriptors()) == {"id", "conj"}
    phi1, phi2 = c.factors
    for p in default_probes(Q2):
        assert eval_form(NORM_FORM, [p, p]) == apply_map(phi1, p) * apply_map(phi2, p)


def test_classify_squared_homomorphism():
    form = ProductSym((identity_map(Q), identity_map(Q)))
    report = classify_quadratic_square(form, [identity_map(Q)], default_probes(Q))
    assert report.verdict == HOLDS_ON_SAMPLE
    assert report.classification.case_tag == "single homomorphism squared"


def test_classify_example28_refuted_with_quartic_witness():
    report = classify_quadratic_square(F28_FORM, [identity_map(QT)], default_probes(QT))
    assert report.verdict == REFUTED
    w = report.witnesses[0]
    assert isinstance(w.input, tuple) and len(w.input) == 4
    # the oracle confirms the quartic form is nonzero at the witness
    oracle = Oracle(QT)
    x1, x2, x3, x4 = [from_element(a) for a in w.input]
    from polcheck.oracle import o_add, o_mul, o_neg, o_is_zero

    f2 = lambda u, v: oracle.eval_form(F28_FORM, [u, v])
    naive = o_add(o_add(f2(o_mul(x1, x2), o_mul(x3, x4)),
                        f2(o_mul(x1, x3), o_mul(x2, x4))),
                  f2(o_mul(x1, x4), o_mul(x2, x3)))
    naive = o_add(naive, o_neg(o_add(o_add(o_mul(f2(x1, x2), f2(x3, x4)),
                                            o_mul(f2(x1, x3), f2(x2, x4))),
                                      o_mul(f2(x1, x4), f2(x2, x3)))))
    assert not o_is_zero(naive)
    assert matches(w.lhs, naive)


def test_classify_zero_form():
    from polcheck.maps import zero_map

    form = MapOfProduct(zero_map(Q), 2)
    report = classify_quadratic_square(form, [identity_map(Q)], default_probes(Q))
    assert report.verdict == HOLDS_ON_SAMPLE
    assert report.classification.case_tag == "zero function"
    assert report.classification.f_at_1.is_zero()


def test_classifier_evaluates_the_quartic_trace_once_per_subset_sum(monkeypatch):
    probes = default_probes(Q2)
    sums = subset_sums(combinations_with_replacement(probes, 4), Q2.zero())
    # the quartic trace is homogeneous of degree 4, so a sum first built at
    # coordinates m*j, m > 1, reads the value at j: 10 of the 25 sums never
    # run.  3+3*sqrt(2) runs: it is first built at (1, 1, 2), as
    # 1 + sqrt(2) + 2*(1+sqrt(2)), before (0, 0, 3).
    folded = {Q2.element(text) for text in ("2", "3", "4", "2*sqrt(2)", "3*sqrt(2)", "4*sqrt(2)",
                                            "2+2*sqrt(2)", "4+4*sqrt(2)", "2+4*sqrt(2)", "4+2*sqrt(2)")}
    assert len(sums) == 25 and folded < sums
    runs = sums - folded
    calls = record_traces(monkeypatch)
    for _ in range(2):  # the second call counts afresh: no memo outlives a call
        calls.clear()
        classify_quadratic_square(NORM_FORM, [identity_map(Q2), CONJ], probes)
        # the quartic step comes first: f(s^2) and f(s) per sum s it runs at,
        # then f(1)
        quartic = [x for _, x in calls[:2 * len(runs)]]
        assert each_once(quartic[1::2], runs)
        assert quartic[0::2] == [s * s for s in quartic[1::2]]
        assert calls[2 * len(runs)] == (NORM_FORM, Q2.one())
        assert all(any(x == s * m for s in quartic[1::2] for m in (2, 3, 4)) for x in folded)


def test_classifier_evaluates_a_once_per_distinct_argument(monkeypatch):
    probes = default_probes(Q2)
    one = Q2.one()
    arguments = []

    def logged(form, args):
        assert form == NORM_FORM and args[1] == one
        arguments.append(args[0])
        return eval_form(form, args)

    monkeypatch.setattr(funceq_module, "eval_form", logged)
    counts = []
    for _ in range(2):  # the second call counts afresh: no memo outlives a call
        arguments.clear()
        classify_quadratic_square(NORM_FORM, [identity_map(Q2), CONJ], probes)
        assert len(arguments) == len(set(arguments))
        counts.append(len(arguments))
    # a(p), a(p^2), a(p^4) and the convolution arguments x*y*z, x*z, y*z
    assert counts[0] == counts[1] > len(probes)


def reference_quartic_rows(f2, probes) -> list:
    """The classifier's quartic step as one delta_many per probe 4-tuple,
    the quartic trace memoized per point: its rows up to the first
    nonzero one."""
    one, zero = f2.spec.one(), f2.spec.zero()
    probes = list(probes) if one in probes else [one] + list(probes)
    quartic = functools.cache(funceq_module._quartic_trace(f2))
    rows = []
    for tup in combinations_with_replacement(probes, 4):
        value = delta_many(quartic, list(tup), zero) / math.factorial(4)
        rows.append((tup, value, zero))
        if not value.is_zero():
            break
    return rows


def _classifier_cases():
    s, u = _qt_endos()
    square = ProductSym((identity_map(Q2), identity_map(Q2)))
    return {
        "norm": (NORM_FORM, [identity_map(Q2), CONJ], default_probes(Q2)),
        "repeated-probe": (NORM_FORM, [identity_map(Q2), CONJ], [E, Q2.one(), E, Q2.from_int(2)]),
        "square": (square, [identity_map(Q2)], [E, Q2.element("3-sqrt(2)")]),
        "twice-norm": (LinComb(((Q2.from_int(2), NORM_FORM),)), [identity_map(Q2)],
                       default_probes(Q2)),
        "example-2.8": (F28_FORM, [identity_map(QT)], default_probes(QT)),
        "two-endomorphisms": (ProductSym((s, u)), [s, u, identity_map(QT)], default_probes(QT)),
    }


@pytest.mark.parametrize("case", sorted(_classifier_cases()))
def test_classifier_matches_the_per_tuple_quartic_scan(case):
    f2, dictionary, probes = _classifier_cases()[case]
    report = classify_quadratic_square(f2, dictionary, probes)
    rows = reference_quartic_rows(f2, probes)
    assert list(report.rows[:len(rows)]) == rows
    tup, value, zero = rows[-1]
    if value.is_zero():
        assert report.verdict == HOLDS_ON_SAMPLE
        assert all(not isinstance(x, tuple) for x, _, _ in report.rows[len(rows):])
    else:
        assert report.verdict == REFUTED and len(report.rows) == len(rows)
        (w,) = report.witnesses
        assert (w.input, w.lhs, w.rhs, w.difference) == (tup, value, zero, value)


def test_classify_dictionary_insufficient():
    with pytest.raises(DictionaryInsufficient):
        classify_quadratic_square(NORM_FORM, [identity_map(Q2)], default_probes(Q2))


def test_classify_round_trip_certificate():
    s, u = _qt_endos()
    form = ProductSym((s, u))
    report = classify_quadratic_square(form, [s, u, identity_map(QT)], default_probes(QT))
    assert report.verdict == HOLDS_ON_SAMPLE
    phi1, phi2 = report.classification.factors
    f = trace(form)
    for p in default_probes(QT):
        assert f(p) == report.classification.f_at_1 * apply_map(phi1, p) * apply_map(phi2, p)


# -- quartic equation f(x^2) = a(x)^4 ------------------------------------------------------

@pytest.mark.parametrize("c,scalar", [(1, 1), (2, 16), (-3, 81)])
def test_quartic_solve_scalar_identity(c, scalar):
    a = scale_map(c, identity_map(Q))
    report = quartic_solve(a, default_probes(Q))
    assert report.verdict == HOLDS_ON_SAMPLE
    assert report.classification.f_at_1 == Q.from_int(scalar)
    assert report.classification.factors[0].describe() == "id"


def test_quartic_solve_rejects_example28_map():
    report = quartic_solve(A_MAP, default_probes(QT))
    assert report.verdict == REFUTED
    assert report.witnesses[0].input == QT.element("t")


def test_quartic_solve_dictionary_insufficient():
    s = build_endomorphism(QT, {"t": QT.element("t^2")})
    with pytest.raises(DictionaryInsufficient):
        quartic_solve(s, default_probes(QT), dictionary=[identity_map(QT)])


def test_quartic_candidate_matches_oracle():
    a = scale_map(2, identity_map(Q))
    oracle = Oracle(Q)
    one = from_element(Q.one())
    for p in default_probes(Q):
        engine = apply_map(a, p) ** 4
        naive = oracle.apply_map(a, from_element(p))
        from polcheck.oracle import o_mul

        naive4 = o_mul(o_mul(naive, naive), o_mul(naive, naive))
        assert matches(engine, naive4)
