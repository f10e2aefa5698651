"""Symmetric forms, traces, the difference operator and polarization."""

import math
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck.errors import ArityTooLarge, SpecMismatch
from polcheck.fields import FieldSpec, SampleConfig, sample_elements
from polcheck.forms import (
    ConstForm,
    LinComb,
    Lift,
    MapOfProduct,
    ProductSym,
    delta_many,
    difference_table,
    eval_form,
    multisets,
    polarize,
    trace,
)
from polcheck.funceq import _quartic_trace
from polcheck.genpoly import genpoly_from
from polcheck.maps import (
    build_derivation,
    build_endomorphism,
    compose_maps,
    identity_map,
    scale_map,
    sum_maps,
    zero_map,
)
from polcheck.oracle import Oracle, from_element, matches, o_mulint

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])

CONJ = build_endomorphism(Q2, conjugate_base=True)
NORM_FORM = ProductSym((identity_map(Q2), CONJ))
NORM = trace(NORM_FORM)
DDT = build_derivation(QT, {"t": QT.one()})
E = Q2.element("1+sqrt(2)")


# -- evaluation examples ------------------------------------------------------

def test_product_sym_diagonal_is_norm():
    assert eval_form(NORM_FORM, [E, E]) == Q2.from_int(-1)


def test_map_of_product_derivative():
    f2 = MapOfProduct(DDT, 2)
    assert eval_form(f2, [QT.element("t"), QT.element("t")]) == QT.element("2*t")


def test_product_sym_two_permutation_average():
    # (1/2)[1*conj(1+sqrt2) + (1+sqrt2)*conj(1)] = 1
    assert eval_form(NORM_FORM, [Q2.one(), E]) == Q2.one()


def test_wrong_argument_count():
    with pytest.raises(SpecMismatch):
        eval_form(NORM_FORM, [E])


# -- trace ---------------------------------------------------------------------

def test_trace_of_norm():
    assert NORM(E) == Q2.from_int(-1)


def test_trace_of_map_of_product_is_power_composition():
    a = DDT + identity_map(QT)
    for k in (1, 2, 3):
        form = MapOfProduct(a, k)
        tr = trace(form)
        for x in sample_elements(QT, SampleConfig(seed=5, count=4, max_height=2, max_degree=1)):
            assert tr(x) == a(x ** k)


def test_degree_zero_trace_is_constant():
    c = ConstForm(Q.element("7/2"))
    tr = trace(c)
    assert tr.degree == 0
    assert tr(Q.from_int(100)) == Q.element("7/2")


# -- difference operator ---------------------------------------------------------

def test_delta_single():
    x = Q2.element("3")
    assert delta_many(NORM, [E], x) == NORM(x + E) - NORM(x)


def test_delta_composes_into_iterated_differences():
    y1, y2 = E, Q2.element("3-sqrt(2)")
    first = lambda x: NORM(x + y1) - NORM(x)  # noqa: E731
    composed = lambda x: first(x + y2) - first(x)  # noqa: E731
    for x in (Q2.zero(), Q2.element("5"), E):
        assert composed(x) == delta_many(NORM, [y1, y2], x)


def test_second_difference_of_norm_is_twice_norm():
    for x in (Q2.zero(), Q2.element("7"), E):
        assert delta_many(NORM, [E, E], x) == Q2.from_int(2) * NORM(E)


def test_third_difference_of_norm_vanishes():
    assert delta_many(NORM, [E, E, E], Q2.element("5")).is_zero()


def test_delta_of_constant_is_zero():
    tr = trace(ConstForm(Q.element("3")))
    assert delta_many(tr, [Q.one()], Q.zero()).is_zero()


def test_delta_cap():
    with pytest.raises(ArityTooLarge):
        delta_many(NORM, [E] * 13, Q2.zero())


def test_delta_many_calls_f_once_per_distinct_sum():
    calls = []

    def counting(x):
        calls.append(x)
        return NORM(x)

    assert delta_many(counting, [E] * 4, Q2.one()).is_zero()
    assert len(calls) == 5 and len(set(calls)) == 5


def test_delta_many_zero_increment_gives_codomain_zero():
    for spec, f, y in ((Q2, NORM, E), (QT, trace(MapOfProduct(DDT, 2)), QT.element("t"))):
        value = delta_many(f, [y, spec.zero(), y], y)
        assert value.spec == spec and value.is_zero()


@pytest.mark.parametrize("spec,form,texts", [
    (QT, MapOfProduct(DDT + identity_map(QT), 3), ["t", "t", "t+1", "t"]),
    (Q2, Lift(NORM_FORM, 2), ["1+sqrt(2)", "1+sqrt(2)", "2+2*sqrt(2)", "sqrt(2)"]),
], ids=["Q(t)", "Q(sqrt2)"])
def test_delta_many_repeated_increments_match_oracle(spec, form, texts):
    # equal increments and equal sums of different increments are grouped
    tr = trace(form)
    oracle = Oracle(spec)
    ys = [spec.element(t) for t in texts]
    for x in (spec.zero(), ys[0], spec.from_int(-2)):
        naive = oracle.delta_many(lambda v: oracle.eval_monomial(tr, v),
                                  [from_element(y) for y in ys], from_element(x))
        assert matches(delta_many(tr, ys, x), naive)


def test_multisets_follow_combinations_with_replacement():
    items = ["a", "b", "a"]
    for n in range(5):
        got = list(multisets(items, n))
        assert [tup for tup, _ in got] == list(combinations_with_replacement(items, n))
        for tup, counts in got:
            assert sum(counts) == n
            assert tup == tuple(item for item, c in zip(items, counts) for _ in range(c))


_TABLES = {  # traces of degree 2-4, increment pool, special increment lists
    "Q(sqrt 2)": (Q2, [NORM, trace(Lift(NORM_FORM, 2)), trace(ProductSym((CONJ, CONJ, CONJ)))],
                  ["1", "sqrt(2)", "1+sqrt(2)", "2-3*sqrt(2)", "1/2"],
                  [["1+sqrt(2)", "1+sqrt(2)"], ["1", "sqrt(2)", "1+sqrt(2)"],
                   ["sqrt(2)", "0", "1", "sqrt(2)"], ["1+sqrt(2)", "-1-sqrt(2)", "sqrt(2)"]]),
    "Q(t)": (QT, [trace(MapOfProduct(DDT + identity_map(QT), 3)),
                  trace(ProductSym((identity_map(QT), DDT)))],
             ["1", "t", "t+1", "t^2", "1/(t-1)"],
             [["t", "t"], ["1", "t", "t+1"], ["t", "0", "1", "t"], ["t", "-t", "1"]]),
}


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(sorted(_TABLES)), data=st.data())
def test_one_table_matches_per_tuple_differences(field, data):
    # one table answers every order, in any order, as a fresh delta_many per tuple does
    spec, traces, pool, special = _TABLES[field]
    f = data.draw(st.sampled_from(traces), label="f")
    texts = data.draw(st.one_of(st.sampled_from(special),
                                st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    ys = [spec.element(text) for text in texts]
    base = spec.element(data.draw(st.sampled_from(["0"] + pool), label="base"))
    differences = difference_table((f,), base, ys)
    for n in data.draw(st.permutations(range(1, 6)), label="orders"):
        for tup, counts in multisets(ys, n):
            assert differences(counts) == (delta_many(f, list(tup), base),)


_HOMOGENEOUS = {  # sides homogeneous of one degree: single-component GenPolys and quartic sides
    "Q(sqrt 2)": [(genpoly_from([NORM]), 2), (genpoly_from([trace(Lift(NORM_FORM, 2))]), 4),
                  (genpoly_from([trace(ProductSym((CONJ, CONJ, CONJ)))]), 3),
                  (_quartic_trace(NORM_FORM), 4)],
    "Q(t)": [(genpoly_from([trace(MapOfProduct(DDT + identity_map(QT), 3))]), 3),
             (genpoly_from([trace(ProductSym((identity_map(QT), DDT)))]), 2),
             (_quartic_trace(ProductSym((identity_map(QT), DDT))), 4)],
}


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(sorted(_TABLES)), data=st.data())
def test_a_table_given_the_degree_matches_the_plain_table(field, data):
    # repeated, dependent and zero-summing increments; every order up to degree + 1
    spec, _, pool, special = _TABLES[field]
    f, degree = data.draw(st.sampled_from(_HOMOGENEOUS[field]), label="side")
    texts = data.draw(st.one_of(st.sampled_from(special),
                                st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
    ys = [spec.element(text) for text in texts]
    runs = {True: [], False: []}
    folded, plain = (difference_table((lambda x, log=runs[fold]: log.append(x) or f(x),),
                                      spec.zero(), ys, degree if fold else None)
                     for fold in (True, False))
    for n in range(degree + 2):
        for _, counts in multisets(ys, n):
            assert folded(counts) == plain(counts)
    assert len(set(runs[True])) == len(runs[True]) <= len(runs[False])


def test_a_table_given_the_degree_runs_f_at_primitive_points_only():
    calls = []
    y = Q2.element("1+sqrt(2)")
    differences = difference_table((lambda x: calls.append(x) or NORM(x),), Q2.zero(), [y], 2)
    # Delta^4 of a quadratic: the weights folded onto y cancel (4! * S(2, 4) = 0),
    # and f still runs at y, so an error there would not be hidden
    assert differences((4,)) == (Q2.zero(),) and calls == [Q2.zero(), y]
    assert differences((2,)) == (NORM(y) * 2,) and calls == [Q2.zero(), y]


# -- polarization ------------------------------------------------------------------

def test_polarize_recovers_form_values():
    assert polarize(NORM, [Q2.one(), E]) == Q2.one()


def test_polarize_leibniz_example():
    tr = trace(MapOfProduct(DDT, 2))
    assert polarize(tr, [QT.element("t"), QT.element("t+1")]) == QT.element("2*t+1")


def test_polarize_degree_one_is_identity():
    a = trace(ProductSym((identity_map(Q),)))
    assert polarize(a, [Q.element("5/3")]) == Q.element("5/3")


def _oracle_form_value(form, ys):
    return Oracle(form.spec).eval_form(form, [from_element(y) for y in ys])


def test_polarization_check_equal_orders():
    # n increments on an arity-n form: the difference is n! times the form value
    ys = [E, Q2.from_int(3)]
    value = delta_many(NORM, ys, E)
    assert value == Q2.from_int(6)
    assert matches(value, o_mulint(_oracle_form_value(NORM_FORM, ys), math.factorial(2)))


def test_polarization_check_higher_order_vanishes():
    assert delta_many(NORM, [E, E, Q2.one()], Q2.one()).is_zero()


def test_polarization_check_zero_form():
    z = MapOfProduct(zero_map(QT), 3)
    ys = [QT.one()] * 3
    assert delta_many(trace(z), ys, QT.element("t")).is_zero()
    assert matches(QT.zero(), _oracle_form_value(z, ys))


def test_polarization_base_point_independence():
    ys = [E, Q2.element("sqrt(2)")]
    values = {delta_many(NORM, ys, x) for x in (Q2.zero(), Q2.one(), Q2.element("-5"))}
    assert len(values) == 1


# -- vanishing trace forces vanishing form --------------------------------------------

def test_zero_trace_check_on_cancelling_combination():
    idt = identity_map(QT)
    form = LinComb(((QT.one(), ProductSym((idt, idt))),
                    (-QT.one(), MapOfProduct(idt, 2))))
    tr = trace(form)
    for x in (QT.element("t"), QT.element("t^2+3"), QT.element("1/(t-1)")):
        assert tr(x).is_zero()
    for ys in ([QT.element("t"), QT.element("t+1")], [QT.element("t^2"), QT.from_int(2)]):
        assert polarize(tr, ys).is_zero()
        assert matches(QT.zero(), _oracle_form_value(form, ys))


def test_zero_trace_check_zero_form():
    form = MapOfProduct(zero_map(QT), 2)
    ys = [QT.one(), QT.element("t")]
    assert polarize(trace(form), ys).is_zero()
    assert matches(QT.zero(), _oracle_form_value(form, ys))


def test_zero_trace_check_not_applicable_for_norm():
    # the norm's trace does not vanish, and neither do its form values
    assert not NORM(E).is_zero()
    value = polarize(NORM, [Q2.one(), E])
    assert not value.is_zero() and matches(value, _oracle_form_value(NORM_FORM, [Q2.one(), E]))


# -- structural properties --------------------------------------------------------------

def _q2_args(n, seed):
    return sample_elements(Q2, SampleConfig(seed=seed, count=n, max_height=3, max_degree=1))


def _forms_under_test():
    idt = identity_map(QT)
    a = DDT + idt
    return [
        ("norm", NORM_FORM, Q2),
        ("mapprod-a2", MapOfProduct(a, 2), QT),
        ("mapprod-d3", MapOfProduct(DDT, 3), QT),
        ("lift-norm-2", Lift(NORM_FORM, 2), Q2),
        ("lincomb", LinComb(((QT.one(), ProductSym((idt, idt))),
                             (QT.from_int(-2), MapOfProduct(idt, 2)))), QT),
    ]


@pytest.mark.parametrize("name,form,spec", _forms_under_test(), ids=lambda v: v if isinstance(v, str) else "")
def test_symmetry_on_samples(name, form, spec):
    args = sample_elements(spec, SampleConfig(seed=11, count=form.arity,
                                              max_height=2, max_degree=1))
    base = eval_form(form, args)
    for perm in permutations(range(form.arity)):
        assert eval_form(form, [args[i] for i in perm]) == base


@pytest.mark.parametrize("name,form,spec", _forms_under_test(), ids=lambda v: v if isinstance(v, str) else "")
def test_multiadditivity_on_samples(name, form, spec):
    args = sample_elements(spec, SampleConfig(seed=12, count=form.arity,
                                              max_height=2, max_degree=1))
    extra = sample_elements(spec, SampleConfig(seed=13, count=1, max_height=2, max_degree=1))[0]
    for slot in range(form.arity):
        bumped = list(args)
        bumped[slot] = args[slot] + extra
        split = list(args)
        split[slot] = extra
        assert eval_form(form, bumped) == eval_form(form, args) + eval_form(form, split)


@pytest.mark.parametrize("name,form,spec", _forms_under_test(), ids=lambda v: v if isinstance(v, str) else "")
def test_trace_rational_homogeneity(name, form, spec):
    from fractions import Fraction

    tr = trace(form)
    q = Fraction(-3, 2)
    x = sample_elements(spec, SampleConfig(seed=14, count=1, max_height=2, max_degree=1))[0]
    assert tr(q * x) == spec.from_fraction(q ** form.arity) * tr(x)


@pytest.mark.parametrize("name,form,spec", _forms_under_test(), ids=lambda v: v if isinstance(v, str) else "")
def test_polarize_of_trace_equals_form(name, form, spec):
    ys = sample_elements(spec, SampleConfig(seed=15, count=form.arity,
                                            max_height=2, max_degree=1))
    naive = Oracle(spec).eval_form(form, [from_element(y) for y in ys])
    assert matches(polarize(trace(form), ys), naive)


def test_lift_trace_is_power_composition():
    lifted = Lift(NORM_FORM, 2)
    for x in (Q2.one(), E, Q2.element("2-sqrt(2)")):
        assert trace(lifted)(x) == NORM(x * x)
    lifted3 = Lift(ProductSym((identity_map(QT),)), 3)
    for x in (QT.element("t"), QT.element("t+1")):
        assert trace(lifted3)(x) == x ** 3


Q2T = FieldSpec.ratfunc(Q2, ["t"])


def _diagonal_cases(spec):
    """One form per node kind; the trace runs the diagonal rules while
    the oracle runs the permutation sums."""
    quad = spec.base.kind == "quadratic"
    endo = build_endomorphism(spec, {"t": spec.element("t^2+1")}, conjugate_base=quad)
    der = build_derivation(spec, {"t": spec.element("sqrt(2)*t" if quad else "1")})
    idt = identity_map(spec)
    coeff = spec.element("(1+sqrt(2))/t" if quad else "2/(t-3)")
    return [
        ("const", ConstForm(coeff)),
        ("productsym", ProductSym((endo, der, idt))),
        ("mapofproduct", MapOfProduct(der + endo, 3)),
        ("lift", Lift(ProductSym((endo, der)), 2)),
        ("lincomb", LinComb(((coeff, ProductSym((endo, idt))),
                             (spec.from_int(-3), MapOfProduct(der, 2))))),
    ]


@pytest.mark.parametrize("spec", [QT, Q2T], ids=["Q(t)", "Q(sqrt2)(t)"])
@pytest.mark.parametrize("kind", ["const", "productsym", "mapofproduct", "lift",
                                  "lincomb"])
def test_trace_matches_eval_form_on_diagonal(spec, kind):
    form = dict(_diagonal_cases(spec))[kind]
    points = ["t", "t/(t+1)", "2*t^2-1"]
    if spec.base.kind == "quadratic":
        points.append("1/(sqrt(2)*t-1)")
    oracle = Oracle(spec)
    for text in points:
        x = spec.element(text)
        assert matches(trace(form)(x), oracle.eval_form(form, [from_element(x)] * form.arity))


def test_trace_rejects_argument_outside_domain():
    with pytest.raises(SpecMismatch):
        NORM(QT.element("t"))


def test_product_forms_compare_by_value():
    rebuilt = ProductSym((identity_map(Q2), build_endomorphism(Q2, conjugate_base=True)))
    assert rebuilt is not NORM_FORM and rebuilt == NORM_FORM
    assert hash(rebuilt) == hash(NORM_FORM)
    assert rebuilt != ProductSym((identity_map(Q2), identity_map(Q2)))
    assert rebuilt != NORM  # a form is not its trace


S = build_endomorphism(QT, {"t": QT.element("t^2")})

_NODES = {
    "Identity": lambda: identity_map(QT),
    "Zero": lambda: zero_map(QT),
    "Endo": lambda: S,
    "Derivation": lambda: DDT,
    "Scale": lambda: scale_map(QT.element("t"), S),
    "MapSum": lambda: sum_maps(S, DDT),
    "Compose": lambda: compose_maps(DDT, S),
    "ConstForm": lambda: ConstForm(QT.element("t")),
    "ProductSym": lambda: ProductSym((S, DDT)),
    "MapOfProduct": lambda: MapOfProduct(DDT, 2),
    "Lift": lambda: Lift(ProductSym((S,)), 2),
    "LinComb": lambda: LinComb(((QT.element("t"), ProductSym((S, DDT))),)),
    "GenMonomial": lambda: trace(ProductSym((S, DDT))),
    "GenPoly": lambda: genpoly_from([trace(MapOfProduct(DDT, 2))]),
}


@pytest.mark.parametrize("kind", sorted(_NODES))
def test_every_node_carries_its_field(kind):
    node = _NODES[kind]()
    assert type(node).__name__ == kind
    assert node.spec is QT


def test_bad_product_form_is_refused_at_construction():
    with pytest.raises(SpecMismatch):
        ProductSym(())
    with pytest.raises(SpecMismatch):
        ProductSym((identity_map(Q), identity_map(Q2)))
    with pytest.raises(SpecMismatch, match="coefficient lives outside the field of the form"):
        LinComb(((Q.one(), NORM_FORM),))
    with pytest.raises(SpecMismatch, match="linear combination mixes fields"):
        LinComb(((Q2.one(), NORM_FORM), (Q.one(), ProductSym((identity_map(Q), identity_map(Q))))))


def test_arity_caps():
    with pytest.raises(ArityTooLarge):
        ProductSym(tuple(identity_map(Q) for _ in range(9)))
    with pytest.raises(ArityTooLarge):
        Lift(NORM_FORM, 5)
    with pytest.raises(SpecMismatch):
        Lift(NORM_FORM, 0)
    with pytest.raises(ArityTooLarge):
        MapOfProduct(identity_map(Q), 9)


def test_engine_matches_oracle_on_sampled_tuples():
    oracle = Oracle(Q2)
    for seed in range(4):
        args = _q2_args(2, 20 + seed)
        engine = eval_form(NORM_FORM, args)
        naive = oracle.eval_form(NORM_FORM, [from_element(a) for a in args])
        assert matches(engine, naive)
