"""Additive maps: construction, evaluation and law verification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck.errors import InvalidImage, SpecMismatch, UnsupportedSpec
from polcheck.fields import FieldSpec, SampleConfig, format_element, sample_elements
from polcheck.maps import (
    ADDITIVE,
    LEIBNIZ,
    MULTIPLICATIVE,
    apply_map,
    build_derivation,
    build_endomorphism,
    compose_maps,
    identity_map,
    scale_map,
    sum_maps,
    verify_map_laws,
    zero_map,
)

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])

CFG = SampleConfig(seed=3, count=8, max_height=3, max_degree=1)


def conj():
    return build_endomorphism(Q2, conjugate_base=True)


def ddt():
    return build_derivation(QT, {"t": QT.one()})


# -- constructors -----------------------------------------------------------

def test_conjugation():
    assert apply_map(conj(), Q2.element("1+sqrt(2)")) == Q2.element("1-sqrt(2)")


def test_endo_substitution():
    s = build_endomorphism(QT, {"t": QT.element("t^2")})
    assert apply_map(s, QT.element("t+1")) == QT.element("t^2+1")


def test_constant_image_rejected():
    with pytest.raises(InvalidImage):
        build_endomorphism(QT, {"t": QT.from_int(5)})


def test_quadratic_endo_takes_no_images():
    with pytest.raises(SpecMismatch):
        build_endomorphism(Q2, {"t": Q2.one()})


def test_derivation_formal_derivative():
    assert apply_map(ddt(), QT.element("t^2+1")) == QT.element("2*t")


def test_derivation_quotient_rule():
    # d(1/(t-1)) = -1/(t-1)^2, via the quotient-rule oracle expansion
    value = apply_map(ddt(), QT.element("1/(t-1)"))
    assert value == QT.element("-1/(t^2-2*t+1)")
    assert value == QT.from_int(-1) / (QT.element("t-1") ** 2)


def test_no_derivations_on_algebraic_extensions():
    with pytest.raises(UnsupportedSpec):
        build_derivation(Q2, {})
    with pytest.raises(UnsupportedSpec):
        build_derivation(Q, {})


# -- evaluation -------------------------------------------------------------

def test_sum_derivation_identity_on_square():
    a = sum_maps(ddt(), identity_map(QT))
    assert apply_map(a, QT.element("t^2")) == QT.element("t^2+2*t")


def test_identity_and_scale():
    assert apply_map(identity_map(Q), Q.element("7/3")) == Q.element("7/3")
    assert apply_map(scale_map(3, identity_map(Q)), Q.element("1/2")) == Q.element("3/2")


def test_maps_compare_by_type_and_fields():
    assert identity_map(Q) == identity_map(Q)
    assert hash(identity_map(Q)) == hash(identity_map(Q))
    assert identity_map(Q) != zero_map(Q)
    assert identity_map(Q) != identity_map(Q2)
    shift = build_endomorphism(QT, {"t": QT.element("t+1")})
    assert shift == build_endomorphism(QT, {"t": QT.element("t+1")})
    assert shift != build_endomorphism(QT, {"t": QT.element("t+2")})


def test_compose_requires_matching_fields():
    with pytest.raises(SpecMismatch):
        compose_maps(identity_map(Q), identity_map(QT))
    with pytest.raises(SpecMismatch, match="cannot add maps on different fields"):
        sum_maps(identity_map(QT), ddt(), identity_map(Q))
    with pytest.raises(SpecMismatch, match="scalar lives outside the field of the map"):
        scale_map(Q2.element("sqrt(2)"), identity_map(Q))


def test_compose_application():
    s = build_endomorphism(QT, {"t": QT.element("t+1")})
    m = compose_maps(ddt(), s)
    # d((t+1)^2) after substituting t -> t+1 into t^2
    assert apply_map(m, QT.element("t^2")) == QT.element("2*t+2")


def test_domain_mismatch_raises():
    with pytest.raises(SpecMismatch):
        apply_map(identity_map(Q), QT.element("t"))


# -- law verification ---------------------------------------------------------

def test_leibniz_passes_for_derivation():
    pairs = [(QT.element("t"), QT.element("t+1")), (QT.element("t^2"), QT.element("1/t"))]
    assert verify_map_laws(ddt(), LEIBNIZ, pairs).passed


def test_multiplicative_passes_for_endo():
    s = build_endomorphism(QT, {"t": QT.element("t^2")})
    assert verify_map_laws(s, MULTIPLICATIVE, [(QT.element("t"), QT.element("t+1"))]).passed


def test_multiplicative_violation_witness():
    a = sum_maps(ddt(), identity_map(QT))
    report = verify_map_laws(a, MULTIPLICATIVE, [(QT.element("t"), QT.element("t"))])
    assert not report.passed
    x, y, lhs, rhs = report.witness
    assert lhs - rhs == QT.from_int(-1)
    assert "diff" in report.describe()


def test_verify_maps_each_distinct_argument_once(monkeypatch):
    import polcheck.maps as maps_module

    calls = []

    def counting(m, x):
        calls.append(x)
        return apply_map(m, x)

    monkeypatch.setattr(maps_module, "apply_map", counting)
    s = build_endomorphism(QT, {"t": QT.element("t^2")})
    t, t1 = QT.element("t"), QT.element("t+1")
    report = verify_map_laws(s, MULTIPLICATIVE, [(t, t1), (t, t), (t1, t)])
    assert report.passed and len(report.rows) == 3
    # t, t+1, t^2+t and t^2, each mapped once
    assert len(calls) == len(set(calls)) == 4


def test_verify_needs_samples():
    with pytest.raises(ValueError):
        verify_map_laws(identity_map(Q), ADDITIVE, [])
    with pytest.raises(ValueError):
        verify_map_laws(identity_map(Q), "weird", [(Q.one(), Q.one())])


# -- structural properties on sampled elements ---------------------------------

def _maps_under_test():
    d = ddt()
    s = build_endomorphism(QT, {"t": QT.element("t^2")})
    u = build_endomorphism(QT, {"t": QT.element("t+1")})
    return [
        identity_map(QT),
        zero_map(QT),
        d,
        s,
        u,
        scale_map(Fraction(3, 2), d),
        sum_maps(d, identity_map(QT)),
        compose_maps(s, u),
        compose_maps(d, s),
    ]


@pytest.mark.parametrize("m", _maps_under_test(), ids=lambda m: m.describe())
def test_additivity_everywhere(m):
    xs = sample_elements(QT, CFG)
    ys = sample_elements(QT, SampleConfig(seed=4, count=8, max_height=3, max_degree=1))
    report = verify_map_laws(m, ADDITIVE, list(zip(xs, ys)))
    assert report.passed, report.describe()


@pytest.mark.parametrize("m", _maps_under_test(), ids=lambda m: m.describe())
def test_rational_homogeneity(m):
    for i, x in enumerate(sample_elements(QT, CFG)):
        q = Fraction(3, 5) if i % 2 else Fraction(-7, 2)
        assert apply_map(m, q * x) == q * apply_map(m, x)


def test_endo_fixes_one_and_is_multiplicative_on_samples():
    s = build_endomorphism(QT, {"t": QT.element("t^2+t")})
    assert apply_map(s, QT.one()) == QT.one()
    xs = sample_elements(QT, CFG)
    ys = sample_elements(QT, SampleConfig(seed=9, count=8, max_height=3, max_degree=1))
    assert verify_map_laws(s, MULTIPLICATIVE, list(zip(xs, ys))).passed


def test_derivation_kills_constants_and_satisfies_leibniz():
    d = ddt()
    for c in (Q.zero(), Q.one(), Q.element("7/3")):
        assert apply_map(d, QT.from_fraction(Fraction(c.payload))).is_zero()
    xs = sample_elements(QT, CFG)
    ys = sample_elements(QT, SampleConfig(seed=10, count=8, max_height=3, max_degree=1))
    assert verify_map_laws(d, LEIBNIZ, list(zip(xs, ys))).passed


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=30, deadline=None)
def test_conjugation_is_field_automorphism(a, b):
    c = conj()
    x = Q2.from_int(a) + Q2.from_int(b) * Q2.sqrt_element()
    y = Q2.element("1+sqrt(2)")
    assert apply_map(c, x + y) == apply_map(c, x) + apply_map(c, y)
    assert apply_map(c, x * y) == apply_map(c, x) * apply_map(c, y)
