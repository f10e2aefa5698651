"""Exact field arithmetic, canonical forms, parsing and formatting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck import fields as fields_module
from polcheck.errors import (
    DenominatorVanishes,
    DivisionByZero,
    ParseError,
    SpecMismatch,
    ValueTooLarge,
)
from polcheck.fields import (
    FieldElement,
    FieldSpec,
    QuadRat,
    conjugate_element,
    field_arith,
    format_element,
    normalize,
    normalize_fraction,
    parse_element,
    substitute,
    weighted_sum,
)
from polcheck.lexer import MAX_DIGITS, MAX_NESTING
from polcheck.maps import Endo, apply_map, build_derivation, build_endomorphism
from polcheck.oracle import Oracle, from_element, matches, o_add, o_div, o_mul, o_pow, o_sub
from polcheck.polys import Poly, exact_div, monic, poly_gcd
from polcheck.session import RunOptions, parse_session, run_session

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
Q5 = FieldSpec.quadratic(5)
QT = FieldSpec.ratfunc(Q, ["t"])
QTU = FieldSpec.ratfunc(Q2, ["t", "u"])
Q2T = FieldSpec.ratfunc(Q2, ["t"])
QTU_RAT = FieldSpec.ratfunc(Q, ["t", "u"])


# -- spec construction ---------------------------------------------------

def test_quadratic_radicand_must_be_squarefree():
    for bad in (0, 1, 4, 12, -8):
        with pytest.raises(SpecMismatch):
            FieldSpec.quadratic(bad)
    FieldSpec.quadratic(-1)
    FieldSpec.quadratic(-6)


def test_ratfunc_rules():
    with pytest.raises(SpecMismatch):
        FieldSpec.ratfunc(QT, ["u"])  # no towers
    with pytest.raises(SpecMismatch):
        FieldSpec.ratfunc(Q, ["t", "t"])
    with pytest.raises(SpecMismatch):
        FieldSpec.ratfunc(Q, ["sqrt"])  # reserved
    with pytest.raises(SpecMismatch):
        FieldSpec.ratfunc(Q, [])


def test_specs_compare_and_hash_by_value():
    rebuilt = (FieldSpec.rationals(), FieldSpec.quadratic(2),
               FieldSpec.ratfunc(FieldSpec.quadratic(2), ("t", "u")))
    for spec, same in zip(rebuilt, (Q, Q2, QTU)):
        assert spec is not same and spec == same and hash(spec) == hash(same)
    # kind, radicand, base and indeterminates each tell specs apart
    distinct = [Q, Q2, Q5, QT, Q2T, FieldSpec.ratfunc(Q, ["u"]), QTU_RAT]
    for i, spec in enumerate(distinct):
        for other in distinct[i + 1:]:
            assert spec != other
    assert Q != "Q" and Q2 != 2


# -- arithmetic examples -------------------------------------------------

def test_add_rationals():
    assert Q.element("1/2") + Q.element("1/3") == Fraction(5, 6)


def test_mul_quadratic_norm_pair():
    # (1+sqrt2)(1-sqrt2) = -1; cross-checked against the naive oracle
    lhs = Q2.element("1+sqrt(2)")
    rhs = Q2.element("1-sqrt(2)")
    product = lhs * rhs
    assert product == Q2.from_int(-1)
    assert matches(product, o_mul(from_element(lhs), from_element(rhs)))


def test_pow_ratfunc():
    result = QT.element("t^2+1") ** 2
    assert format_element(result) == "t^4+2*t^2+1"
    assert result == QT.element("(t^2+1)*(t^2+1)")


@pytest.mark.parametrize("spec, left, right", [
    (Q, "4/2", "2"),
    (Q2, "(1+sqrt(2))^2", "3+2*sqrt(2)"),
    (QT, "(t^2-1)/(t-1)", "t+1"),
    (Q2T, "t/sqrt(2)", "sqrt(2)*t/2"),
])
def test_equal_elements_hash_equal(spec, left, right):
    a, b = parse_element(left, spec), parse_element(right, spec)
    assert a == b and hash(a) == hash(b)
    # the hash reads the payload alone, not the spec
    assert hash(a) == hash(a.payload)
    assert len({a, b, a + spec.one()}) == 2


def test_field_arith_entry_point():
    assert field_arith("add", Q.element("1/2"), Q.element("1/3")) == Fraction(5, 6)
    assert field_arith("pow", QT.element("t"), -1) == QT.element("1/t")
    with pytest.raises(DivisionByZero):
        field_arith("div", Q.one(), Q.zero())
    with pytest.raises(DivisionByZero):
        field_arith("pow", Q.zero(), -2)
    with pytest.raises(SpecMismatch):
        field_arith("add", Q.one(), Q2.one())


@pytest.mark.parametrize("spec,text", [(Q, "-2/3"), (Q2, "(1+3*sqrt(2))/5"), (QT, "(t+1)/(t-2)")])
def test_int_operand_gives_the_element_of_the_int(monkeypatch, spec, text):
    x = parse_element(text, spec)
    expected = {(op, n): field_arith(op, x, spec.from_int(n))
                for op in ("add", "sub", "mul", "div") for n in (-3, 1, 2, 24)}
    coerced = []
    coerce = fields_module._coerce
    monkeypatch.setattr(fields_module, "_coerce", lambda s, v: coerced.append(v) or coerce(s, v))
    for (op, n), value in expected.items():
        got = field_arith(op, x, n)
        assert got == value and type(got.payload) is type(value.payload)
    # Q and Q(sqrt d) combine the payload with the int itself
    assert len(coerced) == (len(expected) if spec.kind == "ratfunc" else 0)
    with pytest.raises(DivisionByZero):
        field_arith("div", x, 0)


@pytest.mark.parametrize("spec,text", [
    (Q, "-2/3"), (Q2, "1+sqrt(2)"), (QT, "(t+1)/(t-2)"), (Q2T, "sqrt(2)*t-1"),
])
def test_power_equals_repeated_products(spec, text):
    x = parse_element(text, spec)
    for k in range(-4, 13):
        product = spec.one()
        for _ in range(abs(k)):
            product = product * x
        assert x ** k == (product if k >= 0 else spec.one() / product), k
    assert spec.zero() ** 0 == spec.one()
    with pytest.raises(DivisionByZero):
        spec.zero() ** -1


def test_power_multiplies_only_what_it_needs(monkeypatch):
    ops = []
    counted = fields_module.field_arith

    def logged(op, lhs, rhs):
        ops.append(op)
        return counted(op, lhs, rhs)

    monkeypatch.setattr(fields_module, "field_arith", logged)
    x = Q2.element("1+sqrt(2)")
    # square and multiply, never by one
    for k, products in ((2, 1), (3, 2), (4, 2), (8, 3)):
        ops.clear()
        x ** k
        assert ops == ["pow"] + ["mul"] * products, k


# -- polynomial operands ----------------------------------------------------

_ORACLE_OPS = {"add": o_add, "sub": o_sub, "mul": o_mul, "div": o_div}


def _check_against_oracle(op, lhs, rhs):
    value = field_arith(op, lhs, rhs)
    assert matches(value, _ORACLE_OPS[op](from_element(lhs), from_element(rhs)))
    # canonical: reduced, with a grlex-monic denominator
    assert normalize(value).payload == value.payload
    return value


@pytest.mark.parametrize("spec,texts", [
    (QT, ["t^2+1", "2*t-3", "1/2*t^3-t", "7"]),
    (QTU_RAT, ["t*u+1", "u-2*t", "3*t^2*u-1/3", "-5"]),
    (Q2T, ["sqrt(2)*t+1", "t^2-sqrt(2)", "(1+sqrt(2))*t", "3*sqrt(2)"]),
], ids=["Q(t)", "Q(t, u)", "Q(sqrt 2)(t)"])
@pytest.mark.parametrize("op", list(_ORACLE_OPS))
def test_polynomial_operands_match_oracle(spec, texts, op):
    elements = [spec.element(text) for text in texts]
    for lhs in elements:
        for rhs in elements:
            _check_against_oracle(op, lhs, rhs)


def test_division_by_a_constant_other_than_one():
    value = _check_against_oracle("div", QT.element("t^2+1"), QT.from_int(24))
    assert format_element(value) == "1/24*t^2+1/24"
    assert value * QT.from_int(24) == QT.element("t^2+1")
    value = _check_against_oracle("div", Q2T.element("t"), Q2T.element("1+sqrt(2)"))
    assert format_element(value) == "(-1+sqrt(2))*t"


@pytest.mark.parametrize("spec,poly_text,ratfunc_text", [
    (QT, "t^2-1", "1/(t-1)"),
    (QTU_RAT, "t*u-u", "(t+u)/(t-1)"),
    (Q2T, "t^2-2", "1/(t-sqrt(2))"),
], ids=["Q(t)", "Q(t, u)", "Q(sqrt 2)(t)"])
@pytest.mark.parametrize("op", list(_ORACLE_OPS))
def test_polynomial_mixed_with_rational_function(spec, poly_text, ratfunc_text, op):
    p, r = spec.element(poly_text), spec.element(ratfunc_text)
    _check_against_oracle(op, p, r)
    _check_against_oracle(op, r, p)


def test_polynomial_times_rational_function_cancels():
    assert format_element(QT.element("t^2-1") * QT.element("1/(t-1)")) == "t+1"
    assert format_element(Q2T.element("t^2-2") / Q2T.element("t+sqrt(2)")) == "t-sqrt(2)"


@pytest.mark.parametrize("spec,x,y,total", [
    (QT, "1/(t^3+t^2)", "1/(t^3-t^2)", "2/(t^3-t)"),
    (QTU_RAT, "1/(u^2*t+u^2)", "1/(u^2*t-u^2)", "2*t/(u^2*t^2-u^2)"),
    (Q2T, "1/(t^3+sqrt(2)*t^2)", "1/(t^3-sqrt(2)*t^2)", "2/(t^3-2*t)"),
], ids=["Q(t)", "Q(t, u)", "Q(sqrt 2)(t)"])
def test_sum_cancels_part_of_the_common_denominator(spec, x, y, total):
    # the numerator shares t with gcd(d1, d2) = t^2, which keeps a factor t
    assert spec.element(x) + spec.element(y) == spec.element(total)


def test_poly_division_and_negative_powers_need_a_nonzero_constant():
    x = Poly.variable(1, 0, Fraction(1))
    half = Poly.const(1, Fraction(1, 2))
    assert x / Poly.const(1, Fraction(2)) == x * half
    assert half ** -2 == Poly.const(1, Fraction(4))
    for fails in (lambda: x / Poly.zero(1), lambda: Poly.zero(1) ** -1):
        with pytest.raises(ZeroDivisionError):
            fails()
    for fails in (lambda: x / x, lambda: x ** -1):
        with pytest.raises(ArithmeticError):
            fails()


def test_poly_gcd_with_a_constant_is_monic_one():
    one = Fraction(1)
    t2 = QT.element("t^2+1").payload[0]
    for args in ((t2, Poly.const(1, Fraction(3))), (Poly.const(1, Fraction(-2, 3)), t2)):
        g = poly_gcd(*args)
        assert g == Poly.const(1, one) and type(g.constant()) is Fraction
    p = Q2T.element("sqrt(2)*t+1").payload[0]
    for c in (QuadRat(1, 1, 2), QuadRat(1, 0, 2)):
        for args in ((p, Poly.const(1, c)), (Poly.const(1, c), p)):
            g = poly_gcd(*args)
            assert g == Poly.const(1, QuadRat(1, 0, 2)) and type(g.constant()) is QuadRat
    # a zero argument still gives the other one made monic
    assert poly_gcd(Poly.zero(1), Poly.const(1, Fraction(3))) == Poly.const(1, one)
    assert poly_gcd(Poly.zero(1), QT.element("2*t^2+2").payload[0]) == t2
    assert poly_gcd(Poly.const(1, QuadRat(0, 2, 2)), Poly.zero(1)) == Poly.const(1, QuadRat(1, 0, 2))


# -- normalization --------------------------------------------------------

def test_normalize_reduces_and_makes_denominator_monic():
    e = QT.element("(2*t^2 + 2*t)/(2*t)")
    assert format_element(e) == "t+1"


def test_normalize_plain_fraction():
    assert normalize((Q, 4, 8)) == Fraction(1, 2)
    assert normalize((Q, 0, 7)) == Q.zero()
    with pytest.raises(DivisionByZero):
        normalize((Q, 1, 0))


def test_normalize_idempotent_on_elements():
    e = QT.element("(t^2-1)/(t^2+2*t+1)")
    assert normalize(e) == e
    assert format_element(e) == "(t-1)/(t+1)"


def test_zero_normalizes_to_canonical_zero():
    e = QT.element("0/(t-1)")
    assert e == QT.zero()
    num, den = e.payload
    assert num.is_zero() and den == Poly.const(1, Fraction(1))


# -- substitution ----------------------------------------------------------

def test_substitute_polynomial_composition():
    assert substitute(QT.element("t^2+1"), {"t": QT.element("t^2")}) == QT.element("t^4+1")


def test_substitute_shift():
    assert substitute(QT.element("1/(t-1)"), {"t": QT.element("t+1")}) == QT.element("1/t")


def test_substitute_denominator_vanishes():
    with pytest.raises(DenominatorVanishes):
        substitute(QT.element("1/(t^2-t)"), {"t": QT.one()})


def test_substitute_requires_all_images():
    with pytest.raises(SpecMismatch):
        substitute(QTU.element("t+u"), {"t": QTU.element("t")})


def test_substitute_two_rational_images():
    # t*u/(t+1) at t = 1/u, u = t/(u+1): (t/(u*(u+1))) / ((u+1)/u)
    e = QTU_RAT.element("t*u/(t+1)")
    images = {"t": QTU_RAT.element("1/u"), "u": QTU_RAT.element("t/(u+1)")}
    assert substitute(e, images) == QTU_RAT.element("t/(u^2+2*u+1)")


def test_substitute_uneven_degrees_in_two_variables():
    # t^2/u at t = u/t, u = t+u: (u^2/t^2) / (t+u)
    e = QTU_RAT.element("t^2/u")
    images = {"t": QTU_RAT.element("u/t"), "u": QTU_RAT.element("t+u")}
    assert substitute(e, images) == QTU_RAT.element("u^2/(t^3+t^2*u)")


def test_substitute_rational_image_over_quadratic_base():
    # (t^2+sqrt2)/(t-1) at t = sqrt2/t: ((2+sqrt2*t^2)/t^2) / ((sqrt2-t)/t)
    e = Q2T.element("(t^2+sqrt(2))/(t-1)")
    value = substitute(e, {"t": Q2T.element("sqrt(2)/t")})
    assert value == Q2T.element("(sqrt(2)*t^2+2)/(sqrt(2)*t-t^2)")
    assert format_element(value) == "(-sqrt(2)*t^2-2)/(t^2-sqrt(2)*t)"


@pytest.mark.parametrize("spec", [QT, Q2T], ids=["Q(t)", "Q(sqrt 2)(t)"])
def test_substitute_in_one_variable_takes_no_gcd(spec, monkeypatch):
    e = spec.element("(t^3-t+1)/(t^2-2)")
    elements = (e, 1 / e, spec.zero())
    images = {"t": spec.element("(t^2+1)/(t-3)")}
    expected = [_by_field_arithmetic(x, images) for x in elements]

    def unreachable(*args):
        raise AssertionError("a one-variable substitution took a gcd")

    monkeypatch.setattr(fields_module, "gcd_cofactors", unreachable)
    assert [substitute(x, images) for x in elements] == expected


def test_sparse_substitution_builds_only_the_powers_that_occur(time_limit):
    # a table of every power of an image up to the 10^8th would not fit in
    # memory; polynomial values keep every gcd trivial
    cases = ((QT, lambda t: t ** 10 ** 8 + t ** 3 + 1, ("t^2",)),
             (QTU_RAT, lambda t, u: t ** 10 ** 8 * u + u ** 10 ** 8 + 1, ("t^2", "t*u")))
    for spec, formula, texts in cases:
        images = dict(zip(spec.variables, map(spec.element, texts)))
        e = formula(*map(spec.var, spec.variables))
        with time_limit(5, "substitute"):
            assert substitute(e, images) == formula(*images.values())


def test_substitute_denominator_vanishes_in_two_variables():
    u = QTU_RAT.element("u")
    with pytest.raises(DenominatorVanishes):
        substitute(QTU_RAT.element("1/(t-u)"), {"t": u, "u": u})


def _base_scalar(spec, c) -> FieldElement:
    """A coefficient of an integral numerator or denominator as an element."""
    if type(c) is int:
        return spec.from_int(c)
    return spec.from_fraction(c.a) + spec.from_fraction(c.b) * spec.sqrt_element()


def _by_field_arithmetic(e: FieldElement, images: dict) -> FieldElement:
    """e at the images: sum c * prod ai^ei over its numerator and its
    denominator, in plain field arithmetic."""
    spec = e.spec
    values = [images[name] for name in spec.variables]

    def value(p: Poly) -> FieldElement:
        total = spec.zero()
        for exps, c in p.as_dict().items():
            term = _base_scalar(spec, c)
            for v, k in zip(values, exps):
                term = term * v ** k
            total = total + term
        return total

    num, den = e.payload
    return value(num) / value(den)


def ratfuncs(spec, polynomial=False):
    """Small elements of spec; polynomial=True keeps the denominator 1.

    Over Q(sqrt d) in two variables each exponent stays at most 1: larger
    inputs can reach a two-variable gcd with a common factor, which still
    goes through the pseudo-remainder sequence and may take minutes to
    finish.  Over Q such a gcd is GCDHEU's, so exponents go up to 2."""
    d = spec.radicand
    coeff = st.integers(-2, 2).filter(bool)
    if d is not None:
        coeff = st.builds(QuadRat, coeff, st.integers(-2, 2), st.just(d))
    exps = st.integers(0, 2 if spec.nvars == 1 or d is None else 1)
    terms = st.dictionaries(st.tuples(*[exps] * spec.nvars), coeff, min_size=1, max_size=3)
    one = spec.scalar_one()

    def build(pair):
        num, den = (Poly(spec.nvars, t) for t in pair)
        if polynomial:
            den = Poly.const(spec.nvars, one)
        return normalize_fraction(spec, num, den)

    return st.tuples(terms, terms).map(build)


@pytest.mark.parametrize("spec", [QT, Q2T, QTU_RAT, QTU],
                         ids=["Q(t)", "Q(sqrt 2)(t)", "Q(t,u)", "Q(sqrt 2)(t,u)"])
def test_substitute_matches_field_arithmetic(spec):
    def images():
        # each image is a polynomial (denominator 1) or a rational function
        either = st.one_of(ratfuncs(spec, polynomial=True), ratfuncs(spec))
        return st.tuples(*[either] * spec.nvars).map(lambda v: dict(zip(spec.variables, v)))

    @settings(max_examples=40, deadline=None)
    @given(ratfuncs(spec), images())
    def agrees(e, images):
        try:
            expected = _by_field_arithmetic(e, images)
        except DivisionByZero:
            with pytest.raises(DenominatorVanishes):
                substitute(e, images)
            return
        assert substitute(e, images) == expected

    agrees()


# One map's power tables, kept between calls: a second round over the same
# elements builds no power and gives the same values as the first.
_TABLE_ELEMENTS = ("1+2*t+3*t^2", "(t^3-t+1)/(t^2-2)", "t^5", "1/(t^4+t)", "7", "0", "(t+1)/t^3")


def _sizes(powers: dict) -> dict:
    return {name: [len(table or ()) for table in tables[:2]] for name, tables in powers.items()}


@pytest.mark.parametrize("spec", [QT, Q2T], ids=["Q(t)", "Q(sqrt 2)(t)"])
@pytest.mark.parametrize("image", ["2*t+1", "(t^2+1)/(t-3)", "t^2/(2*t+1)", "3", "0", "t"],
                         ids=["polynomial", "rational", "rational-monomial", "constant", "zero",
                              "identity"])
def test_substitute_through_kept_tables_matches_field_arithmetic(spec, image):
    images, powers = {"t": spec.element(image)}, {}
    elements = [spec.element(text) for text in _TABLE_ELEMENTS]
    for round_ in range(2):
        before = _sizes(powers)
        for x in elements:
            try:
                expected = _by_field_arithmetic(x, images)
            except DivisionByZero:
                with pytest.raises(DenominatorVanishes):
                    substitute(x, images, powers)
                continue
            value = substitute(x, images, powers)
            _assert_canonical(value)
            assert value == expected
        if round_:
            assert _sizes(powers) == before  # every power came from the tables


@pytest.mark.parametrize("spec", [QT, Q2T, QTU_RAT, QTU],
                         ids=["Q(t)", "Q(sqrt 2)(t)", "Q(t,u)", "Q(sqrt 2)(t,u)"])
def test_substitute_through_one_map_matches_field_arithmetic(spec):
    def images():
        either = st.one_of(ratfuncs(spec, polynomial=True), ratfuncs(spec))
        return st.tuples(*[either] * spec.nvars).map(lambda v: dict(zip(spec.variables, v)))

    @settings(max_examples=25, deadline=None)
    @given(images(), st.lists(ratfuncs(spec), min_size=1, max_size=4))
    def agrees(images, elements):
        powers = {}
        for x in elements * 2:
            try:
                expected = _by_field_arithmetic(x, images)
            except DivisionByZero:
                with pytest.raises(DenominatorVanishes):
                    substitute(x, images, powers)
                continue
            assert substitute(x, images, powers) == expected

    agrees()


@pytest.mark.parametrize("image", ["t", "t+1", "(sqrt(2)*t+1)/(t-sqrt(2))"])
def test_conjugating_endomorphism_reuses_its_tables(image):
    hom = build_endomorphism(Q2T, {"t": Q2T.element(image)}, conjugate_base=True)
    images = {"t": Q2T.element(image)}
    elements = [Q2T.element(text) for text in
                ("sqrt(2)*t^2+1", "(t-sqrt(2))/(t^2+3)", "(1+sqrt(2))/t", "sqrt(2)")]
    for _ in range(2):
        for x in elements:
            value = apply_map(hom, x)
            _assert_canonical(value)
            assert value == _by_field_arithmetic(conjugate_element(x), images)
    assert hom == build_endomorphism(Q2T, {"t": Q2T.element(image)}, conjugate_base=True)
    assert hash(hom) == hash(build_endomorphism(Q2T, {"t": Q2T.element(image)}, conjugate_base=True))


def test_one_session_keeps_apart_the_tables_of_equal_looking_images():
    # t -> t+1 on Q(sqrt 2)(t) and on Q(t): the images' polynomials are
    # equal and hash alike (QuadRat(1) == 1), but each map keeps its own
    # tables, so a Q(t) call never reads powers with QuadRat coefficients
    session = parse_session("field G = Q(sqrt 2)(t);\nhom r : t -> t+1;\nverify multiplicative r;\n"
                            "field F = Q(t);\nhom s : t -> t+1;\nverify multiplicative s;\n")
    r, s = session.env["r"], session.env["s"]
    assert r.images[0][1].payload == s.images[0][1].payload
    for _ in range(2):
        for hom, spec in ((r, Q2T), (s, QT), (s, QT), (r, Q2T)):
            for text in ("(t^2+1)/(t-2)", "3*t^3-t", "1/(t^2+t+1)"):
                x = spec.element(text)
                value = apply_map(hom, x)
                assert value.spec is spec
                _assert_canonical(value)
                assert value == _by_field_arithmetic(x, {"t": spec.element("t+1")})
    doc = run_session(session, RunOptions(seed=0))
    assert [entry["verdict"] for entry in doc.entries] == ["pass", "pass"]


# -- parsing ----------------------------------------------------------------

def test_parse_fraction_of_polynomials():
    e = parse_element("(t^2+1)/(t-1)", QT)
    num, den = e.payload
    assert format_element(e) == "(t^2+1)/(t-1)"
    assert den.as_dict()[(1,)] == Fraction(1)


def test_parse_quadratic_pair():
    e = parse_element("1+sqrt(2)", Q2)
    assert e.payload == QuadRat(1, 1, 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_element("t/", QT)
    assert err.value.position == 2


def test_parse_nesting_limit():
    assert parse_element("(" * MAX_NESTING + "2" + ")" * MAX_NESTING, Q) == Q.from_int(2)
    with pytest.raises(ParseError) as err:
        parse_element("(" * 400 + "2" + ")" * 400, Q)
    assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)


def test_parse_digit_limit():
    assert parse_element("9" * MAX_DIGITS, Q) == Q.from_int(10 ** MAX_DIGITS - 1)
    with pytest.raises(ParseError) as err:
        parse_element("1+" + "1" * 5000, Q)
    assert (err.value.line, err.value.column) == (1, 3)


def test_parse_long_sign_chain():
    assert parse_element("-" * 1001 + "1", Q) == Q.from_int(-1)
    assert parse_element("+-" * 1000 + "2^2", Q) == Q.from_int(4)


def test_format_too_many_digits():
    with pytest.raises(ValueTooLarge):
        format_element(Q.from_int(9 ** 5000))
    with pytest.raises(ValueTooLarge):
        format_element(QT.element("t") / QT.from_int(9 ** 5000))


def test_parse_spec_mismatch():
    with pytest.raises(SpecMismatch):
        parse_element("t", Q)
    with pytest.raises(SpecMismatch):
        parse_element("sqrt(3)", Q2)
    with pytest.raises(SpecMismatch):
        parse_element("u", QT)


def test_parse_negative_exponent_forms():
    assert parse_element("t^-1", QT) == QT.element("1/t")
    assert parse_element("t^(-2)", QT) == QT.element("1/t^2")
    with pytest.raises(ParseError):
        parse_element("2^3^2", Q)  # a power of a power needs parentheses
    assert parse_element("(2^3)^2", Q) == Q.from_int(64)


# -- formatting round trips ---------------------------------------------------

ROUND_TRIP_TEXTS = [
    ("5/6", Q), ("-3", Q), ("0", Q),
    ("1+sqrt(2)", Q2), ("sqrt(2)", Q2), ("-1/2*sqrt(2)", Q2), ("1-2*sqrt(2)", Q2),
    ("t^4+2*t^2+1", QT), ("(t^2+1)/(t-1)", QT), ("1/t", QT), ("t+1", QT),
    ("2*t/(t+1)", QT), ("1/2*t^2", QT),
    ("t*u", QTU), ("1/(t*u)", QTU), ("(1+sqrt(2))*t", QTU),
    ("sqrt(2)*t^2-1/2", QTU), ("t^2*u/(u^2-2)", QTU), ("(1+sqrt(2))/u", QTU),
]


@pytest.mark.parametrize("text,spec", ROUND_TRIP_TEXTS)
def test_format_parse_round_trip(text, spec):
    e = parse_element(text, spec)
    assert parse_element(format_element(e), spec) == e
    assert format_element(e) == text


# -- hypothesis: field axioms --------------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def rationals_elements():
    return small_fractions.map(Q.from_fraction)


def quadratic_elements():
    return st.tuples(small_fractions, small_fractions).map(
        lambda ab: FieldElement(Q2, QuadRat(ab[0], ab[1], 2)))


def ratfunc_elements():
    coeff = st.integers(min_value=-3, max_value=3)
    poly = st.lists(st.tuples(st.integers(min_value=0, max_value=2), coeff),
                    min_size=1, max_size=3)

    def build(pair):
        num_terms, den_terms = pair
        num = Poly(1, {(e,): Fraction(c) for e, c in num_terms})
        den = Poly(1, {(e,): Fraction(c) for e, c in den_terms})
        if den.is_zero():
            den = Poly.const(1, Fraction(1))
        return normalize_fraction(QT, num, den)

    return st.tuples(poly, poly).map(build)


@pytest.mark.parametrize("elements", [rationals_elements, quadratic_elements, ratfunc_elements])
def test_field_axioms_on_samples(elements):
    @settings(max_examples=40, deadline=None)
    @given(elements(), elements(), elements())
    def axioms(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * (a.spec.one() / a) == a.spec.one()

    axioms()


@given(quadratic_elements(), quadratic_elements())
@settings(max_examples=40, deadline=None)
def test_quadratic_mul_matches_poly_mod_x2_minus_d(a, b):
    # multiply (a0 + a1 X)(b0 + b1 X) and reduce X^2 -> 2
    a0, a1 = a.payload.a, a.payload.b
    b0, b1 = b.payload.a, b.payload.b
    c0 = a0 * b0 + 2 * a1 * b1
    c1 = a0 * b1 + a1 * b0
    assert (a * b).payload == QuadRat(c0, c1, 2)


@given(ratfunc_elements())
@settings(max_examples=40, deadline=None)
def test_normalize_idempotent_property(e):
    assert normalize(e) == e


@given(ratfunc_elements())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(e):
    assert parse_element(format_element(e), QT) == e


@given(quadratic_elements())
@settings(max_examples=40, deadline=None)
def test_round_trip_quadratic_property(e):
    assert parse_element(format_element(e), Q2) == e


# -- QuadRat: integer triples against a two-Fraction reference -------------------

RADICANDS = (2, 3, 5, -1, -2, 7, -3)
triple_parts = st.fractions(min_value=-40, max_value=40, max_denominator=24)


def reference_triple(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(p, q, c) with c > 0 and gcd(p, q, c) = 1 for a + b*sqrt(d)."""
    c = math.lcm(a.denominator, b.denominator)
    return int(a * c), int(b * c), c


def assert_equals_reference(x: QuadRat, a: Fraction, b: Fraction, d: int) -> None:
    assert x.c > 0 and math.gcd(x.p, x.q, x.c) == 1
    assert (x.p, x.q, x.c, x.d) == (*reference_triple(a, b), d)
    assert (x.a, x.b) == (a, b)


@given(st.sampled_from(RADICANDS), triple_parts, triple_parts, triple_parts, triple_parts)
@settings(max_examples=200, deadline=None)
def test_quadrat_matches_two_fraction_reference(d, a1, b1, a2, b2):
    x, y = QuadRat(a1, b1, d), QuadRat(a2, b2, d)
    assert_equals_reference(x, a1, b1, d)
    assert_equals_reference(x + y, a1 + a2, b1 + b2, d)
    assert_equals_reference(x - y, a1 - a2, b1 - b2, d)
    assert_equals_reference(x * y, a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, d)
    assert_equals_reference(-x, -a1, -b1, d)
    assert_equals_reference(x.conjugate(), a1, -b1, d)
    # a rational operand on either side
    assert_equals_reference(x + a2, a1 + a2, b1, d)
    assert_equals_reference(a2 - x, a2 - a1, -b1, d)
    assert_equals_reference(x * a2, a1 * a2, b1 * a2, d)
    norm = a2 * a2 - d * b2 * b2
    if norm:
        assert_equals_reference(x / y, (a1 * a2 - d * b1 * b2) / norm,
                                (b1 * a2 - a1 * b2) / norm, d)
    else:
        with pytest.raises(DivisionByZero):
            x / y
    if a1 or b1:
        n1 = a1 * a1 - d * b1 * b1
        assert_equals_reference(a2 / x, a2 * a1 / n1, -a2 * b1 / n1, d)
    assert (x == y) == ((a1, b1) == (a2, b2))
    assert bool(x) == bool(a1 or b1)


@pytest.mark.parametrize("d", RADICANDS)
def test_rational_quadrat_equals_and_hashes_like_the_rational(d):
    half = QuadRat(Fraction(1, 2), 0, d)
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert hash(half) == hash(Fraction(1, 2))
    three = QuadRat(3, 0, d)
    assert three == 3 and 3 == three and three == Fraction(3)
    assert hash(three) == hash(3)
    assert QuadRat(Fraction(6, 4), 0, d) == Fraction(3, 2)
    assert half != 1 and QuadRat(1, 1, d) != 1
    assert len({half, Fraction(1, 2), three, 3}) == 2


# -- integral rational-function pairs ------------------------------------------
#
# A rational function is stored as coprime integral polynomials (ints over
# Q, QuadRats with c = 1 over Q(sqrt d)) whose integers have gcd 1 and whose
# denominator has a positive rational-integer leading coefficient.  Z[sqrt -5]
# is not a UFD, so products over Q(sqrt -5)(t) can gain integer content.

INTEGRAL_SPECS = [QT, QTU_RAT, Q2T, FieldSpec.ratfunc(FieldSpec.quadratic(-5), ["t"])]


def _assert_canonical(e):
    num, den = e.payload
    coeffs = [*num.terms.values(), *den.terms.values()]
    lc = den.lead()[1]
    d = e.spec.radicand
    if d is None:
        assert all(type(c) is int for c in coeffs)
        ints = coeffs
    else:
        assert all(type(c) is QuadRat and c.c == 1 and c.d == d for c in coeffs)
        ints = [x for c in coeffs for x in (c.p, c.q)]
        assert not lc.q
        lc = lc.p
    assert math.gcd(*ints) == 1 and lc > 0
    assert poly_gcd(num, den).is_const()
    again = normalize(e).payload
    assert [sorted((k, type(c), c) for k, c in p.terms.items()) for p in again] \
        == [sorted((k, type(c), c) for k, c in p.terms.items()) for p in (num, den)]


def _pair_elements(spec):
    """num*h/(den*h) with rational base coefficients, normalized: the
    common factor h and the denominators make the gcd and the clearing work."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coeff = small if spec.radicand is None else st.builds(
        lambda a, b: QuadRat(a, b, spec.radicand), small, small)
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * spec.nvars)
    poly = st.dictionaries(exps, coeff, max_size=3).map(lambda t: Poly(spec.nvars, t))

    def build(num, den, h):
        one = Poly.const(spec.nvars, spec.scalar_one())
        den = one if den.is_zero() else den
        h = one if h.is_zero() else h
        return normalize_fraction(spec, num * h, den * h)

    return st.builds(build, poly, poly, poly)


@pytest.mark.parametrize("spec", INTEGRAL_SPECS, ids=["Q(t)", "Q(t, u)", "Q(sqrt 2)(t)", "Q(sqrt -5)(t)"])
def test_rational_function_results_are_canonical_and_match_oracle(spec):
    @settings(max_examples=30, deadline=None)
    @given(_pair_elements(spec), _pair_elements(spec), st.integers(min_value=-2, max_value=3))
    def check(a, b, k):
        _assert_canonical(a)
        oracle = Oracle(spec)
        oa, ob = from_element(a), from_element(b)
        results = [(a + b, o_add(oa, ob)), (a - b, o_sub(oa, ob)), (a * b, o_mul(oa, ob))]
        if not b.is_zero():
            results.append((a / b, o_div(oa, ob)))
        if k >= 0 or not a.is_zero():
            results.append((a ** k, o_pow(oa, k)))
        der = build_derivation(spec, {spec.variables[0]: b})
        results.append((apply_map(der, a), oracle.apply_map(der, oa)))
        images = [(name, b + i) for i, name in enumerate(spec.variables)]
        hom = Endo(spec, tuple(images), spec.radicand is not None)
        try:
            results.append((apply_map(hom, a), oracle.apply_map(hom, oa)))
        except DenominatorVanishes:
            pass
        if spec.radicand is not None:
            conj = Endo(spec, tuple((name, spec.var(name)) for name in spec.variables), True)
            results.append((conjugate_element(a), oracle.apply_map(conj, oa)))
        for value, expected in results:
            _assert_canonical(value)
            assert matches(value, expected)

    check()


def test_integer_content_from_a_non_ufd_base_is_removed():
    # (1+sqrt(-5))(1-sqrt(-5)) = 6 and (1+sqrt(-5))^2 = 2*(-2+sqrt(-5))
    spec = INTEGRAL_SPECS[3]
    a = spec.element("(1+sqrt(-5))*t/2")
    square = a ** 2
    assert square.payload == (Poly(1, {(2,): QuadRat(-2, 1, -5)}), Poly.const(1, QuadRat(2, 0, -5)))
    assert (a * spec.element("(1-sqrt(-5))/3")).payload == spec.element("t").payload
    inverse = 1 / spec.element("(1+sqrt(-5))*t+1")
    for value in (square, a * a, inverse):
        _assert_canonical(value)
    assert format_element(inverse) == "(1/6-1/6*sqrt(-5))/(t+1/6-1/6*sqrt(-5))"


@settings(max_examples=60, deadline=None)
@given(*[st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                         st.integers(min_value=-6, max_value=6), min_size=1, max_size=3)] * 3)
def test_int_coefficient_gcd_monic_and_division_give_no_float(f, g, h):
    f, g, h = (Poly(2, t) for t in (f, g, h))
    if f.is_zero() or h.is_zero():
        return
    gcd = poly_gcd(f * h, g * h)
    results = [gcd, poly_gcd(f, Poly.const(2, 6)), monic(f), exact_div(f * h, h),
               exact_div(gcd, h), Poly.const(2, 4) ** -1, f / Poly.const(2, 3)]
    assert all(type(c) is not float for p in results for c in p.terms.values())
    assert exact_div(f * h, h) == f and exact_div(gcd, h) * h == gcd


def _shortcut_operands(spec):
    """Zero, one, polynomials, polynomials over a constant denominator, and
    reduced fractions with a common factor cancelled."""
    one = spec.scalar_one()
    small = st.integers(min_value=-3, max_value=3)
    coeff = small.map(lambda c: one * c) if spec.radicand is None else st.builds(
        lambda a, b: QuadRat(a, b, spec.radicand), small, small)
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * spec.nvars)
    poly = st.dictionaries(exps, coeff, max_size=3).map(lambda t: Poly(spec.nvars, t))
    const_den = st.builds(
        lambda p, c: normalize_fraction(spec, p, Poly.const(spec.nvars, c)), poly, coeff.filter(bool))
    return st.one_of(st.just(spec.zero()), st.just(spec.one()), const_den, _pair_elements(spec))


def _textbook(op, a, b):
    """normalize_fraction of the schoolbook formula for a op b."""
    spec = a.spec
    if op == "pow":
        n, d = a.payload
        return spec.one() if b == 0 else normalize_fraction(spec, n ** b, d ** b)
    (n1, d1), (n2, d2) = a.payload, b.payload
    if op == "add":
        return normalize_fraction(spec, n1 * d2 + n2 * d1, d1 * d2)
    if op == "sub":
        return normalize_fraction(spec, n1 * d2 - n2 * d1, d1 * d2)
    if op == "mul":
        return normalize_fraction(spec, n1 * n2, d1 * d2)
    return normalize_fraction(spec, n1 * d2, d1 * n2)


def _terms(e):
    return [sorted((k, type(c), c) for k, c in p.terms.items()) for p in e.payload]


@pytest.mark.parametrize("spec,text", [(QT, "(t^2+1)/(t-2)"), (Q2T, "(t^2+sqrt(2))/(t-2)"),
                                       (QTU_RAT, "(t*u+1)/(t-u)")], ids=["Q(t)", "Q(sqrt 2)(t)", "Q(t,u)"])
def test_a_factor_or_divisor_one_returns_the_other_operand(spec, text, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a product by one was recomputed")

    x, one = spec.element(text), spec.one()
    monkeypatch.setattr(fields_module, "gcd_cofactors", unreachable)
    monkeypatch.setattr(fields_module, "_canonical_pair", unreachable)
    assert x * one is x and one * x is x and x / one is x
    assert one * one is one and one / one is one


def test_rational_coefficients_normalize_over_a_quadratic_base():
    half = normalize((Q2T, Poly.const(1, Fraction(1, 2)), Poly.const(1, QuadRat(1, 0, 2))))
    assert half == Q2T.element("1/2")
    zero, den = Poly.zero(1), Q2T.element("t+sqrt(2)").payload[0]
    assert normalize_fraction(Q2T, zero ** 0, den ** 0) == Q2T.one()
    num = Poly(1, {(1,): Fraction(1, 2), (0,): 3})
    mixed = normalize_fraction(Q2T, num, Poly(1, {(1,): QuadRat(1, 1, 2)}))
    assert mixed == Q2T.element("(t/2+3)/((1+sqrt(2))*t)")
    for value in (half, mixed, normalize_fraction(Q2T, num, den)):
        _assert_canonical(value)


@pytest.mark.parametrize("spec", [QT, Q2T], ids=["Q(t)", "Q(sqrt 2)(t)"])
def test_zero_one_and_constant_denominators_follow_the_textbook(spec):
    @settings(max_examples=80, deadline=None)
    @given(_shortcut_operands(spec), _shortcut_operands(spec), st.integers(min_value=0, max_value=3))
    def check(a, b, k):
        cases = [("add", a, b), ("sub", a, b), ("mul", a, b), ("pow", a, k)]
        if not b.is_zero():
            cases.append(("div", a, b))
        for op, lhs, rhs in cases:
            value = field_arith(op, lhs, rhs)
            assert _terms(value) == _terms(_textbook(op, lhs, rhs))
            _assert_canonical(value)
        if b.is_zero() and not a.is_zero():  # a zero operand decides, and nothing is recomputed
            assert a + b is a and a - b is a and b + a is a
            assert a * b is b and b * a is b

    check()


_SUMMANDS = {
    "Q": small_fractions.map(Q.from_fraction),
    "Q(sqrt 2)": quadratic_elements(),
    "Q(t)": _shortcut_operands(QT),
    "Q(sqrt 2)(t)": _shortcut_operands(Q2T),
}


@pytest.mark.parametrize("field", sorted(_SUMMANDS))
def test_weighted_sum_matches_the_pairwise_sum(field):
    # zero and negative weights; constant, equal and mixed denominators; and,
    # with every term repeated at the opposite weight, full cancellation
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), _SUMMANDS[field]), min_size=1, max_size=5),
           st.booleans())
    def check(terms, cancel):
        if cancel:
            terms += [(-w, e) for w, e in terms]
        expected = terms[0][1].spec.zero()
        for w, e in terms:
            expected = expected + e * w
        total = weighted_sum([w for w, _ in terms], [e for _, e in terms])
        assert total == expected and total.is_zero() >= cancel
        if total.spec.kind == "ratfunc":
            assert _terms(total) == _terms(expected)
            _assert_canonical(total)

    check()
