"""Session language: parsing, binding, execution, reports."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck import fields as fields_module
from polcheck import oracle as oracle_module
from polcheck import session as session_module
from polcheck.errors import (
    NameResolutionError,
    ParseError,
    PolcheckError,
    SpecMismatch,
    TypeMismatch,
)
from polcheck.fields import FieldSpec, format_element, parse_element, power_products
from polcheck.polys import Poly
from polcheck.session import (
    MAX_SAMPLES,
    RunOptions,
    emit_report,
    parse_session,
    run_session,
)

NORM_SRC = """
field F = Q(sqrt 2);
hom c = conj;
form N2 = product(id, c);
genpoly f = trace(N2);
check f(x^2) == f(x)^2 on span(1, sqrt(2), 1+sqrt(2));
"""


def run_src(source, **kwargs):
    return run_session(parse_session(source), RunOptions(**kwargs))


# -- parsing shapes -------------------------------------------------------

def test_parse_shape_of_norm_session():
    session = parse_session(NORM_SRC)
    assert len(session.commands) == 1
    assert session.commands[0].kind == "check"
    assert set(session.env) == {"c", "N2", "f"}


def test_parse_check_with_samples_clause():
    src = """
    field F = Q(t);
    hom s : t -> t^2;
    genpoly f = trace(product(s, s));
    check f(x^2) == f(x)^3 on samples(10, seed=7);
    """
    session = parse_session(src)
    command = session.commands[0]
    assert command.payload["mode"] == "samples"
    assert command.payload["count"] == 10 and command.payload["seed"] == 7
    # later rejected by the degree precheck, not at parse time
    doc = run_session(session)
    assert doc.entries[0]["verdict"] == "NOT_APPLICABLE"


def test_lift_with_zero_exponent_is_type_error():
    src = """
    field F = Q(sqrt 2);
    hom c = conj;
    form N2 = product(id, c);
    form B = lift(N2, 0);
    """
    with pytest.raises(TypeMismatch):
        parse_session(src)


def test_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_session("field F = Q(sqrt 2)")  # missing semicolon
    assert err.value.line == 1


def test_unknown_name_rejected():
    with pytest.raises(NameResolutionError):
        parse_session("field F = Q;\ngenpoly f = trace(product(murky));\n")


def test_redeclaration_rejected():
    with pytest.raises(NameResolutionError):
        parse_session("field F = Q;\nhom a = id;\nhom a = id;\n")


def test_declaration_before_field_rejected():
    with pytest.raises(ParseError):
        parse_session("hom a = id;\n")


def test_reserved_metavariable_x():
    with pytest.raises(NameResolutionError):
        parse_session("field F = Q;\nhom x = id;\n")


def test_bare_x_on_rhs_rejected():
    src = """
    field F = Q(t);
    der dd : t -> 1;
    genpoly f = trace(mapprod(dd, 2));
    check f(x^2) == 2*x*f(x);
    """
    with pytest.raises(TypeMismatch):
        parse_session(src)


def test_map_expression_forms():
    src = """
    field F = Q(t);
    der dd : t -> 1;
    hom s : t -> t^2;
    map a = dd + id;
    map b = 2*a - dd;
    map c = s @ dd;
    map e = (1/2)*(a + b);
    map g = (s + id) @ s;
    map h = 2*(s + id);
    """
    session = parse_session(src)
    assert set(session.env) == {"dd", "s", "a", "b", "c", "e", "g", "h"}


# -- check expressions -------------------------------------------------------

Q2 = FieldSpec.quadratic(2)

CHECK_HEAD = """
field F = Q(sqrt 2);
hom c = conj;
genpoly f = trace(product(id, c));
"""


def dense(poly):
    """The coefficients of a one-variable polynomial as text, low degree
    first, up to its top nonzero one."""
    terms = poly.as_dict()
    if not terms:
        return []
    return [format_element(terms[(k,)]) if (k,) in terms else "0"
            for k in range(poly.total_degree() + 1)]


def check_sides(line):
    (command,) = parse_session(CHECK_HEAD + line).commands
    return tuple(dense(command.payload[side]) for side in ("p", "q"))


@pytest.mark.parametrize("line,p,q", [
    ("check f(x) == --f(x)^2;", ["0", "1"], ["0", "0", "1"]),
    ("check f(x) == -f(x)^2;", ["0", "1"], ["0", "0", "-1"]),
    ("check f(-x) == +f(x);", ["0", "-1"], ["0", "1"]),
    ("check f((x+1)^3) == (f(x)+1)^2 - f(x)^2;", ["1", "3", "3", "1"], ["1", "2"]),
    ("check f(sqrt(2)^2*x) == f(x)/sqrt(2)/2;", ["0", "2"], ["0", "1/4*sqrt(2)"]),
    ("check f(x^0) == f(x)^0;", ["1"], ["1"]),
    ("check f(x) == 0*f(x);", ["0", "1"], []),
    ("check f(x) == (1-1)^0 + 0^0*f(x);", ["0", "1"], ["1", "1"]),
    ("check f(2^-1*x) == f(x)/4;", ["0", "1/2"], ["0", "1/4"]),
    # accepted since both sides use the element grammar
    ("check f((1+1)^-1*x) == f(x)^(2);", ["0", "1/2"], ["0", "0", "1"]),
])
def test_check_expression_coefficients(line, p, q):
    assert check_sides(line) == (p, q)


@pytest.mark.parametrize("line,error,message", [
    ("check f(x) == f(x)/f(x);", TypeMismatch,
     "cannot divide by an expression containing the unknown"),
    ("check f(x/0) == f(x);", TypeMismatch, "division by zero in a check expression"),
    ("check f(x) == f(x)/(1-1);", TypeMismatch, "division by zero in a check expression"),
    ("check f(x) == x;", TypeMismatch, "bare x is not allowed"),
    ("check f(x) == f(y);", TypeMismatch, "f may only be applied to x"),
    ("check f(x) == f(2);", ParseError, "expected x"),
    ("check f(x) == g(x);", SpecMismatch, "'g' is not valid"),
    ("check f(x^-1) == f(x);", TypeMismatch,
     "cannot divide by an expression containing the unknown"),
    ("check f(x) == f(x)^-2;", TypeMismatch,
     "cannot divide by an expression containing the unknown"),
    ("check f(x) == f(x)^(-1);", TypeMismatch,
     "cannot divide by an expression containing the unknown"),
    ("check f((1-1)^-1*x) == f(x);", TypeMismatch, "division by zero in a check expression"),
    # a power of a power needs parentheses, as everywhere in the element grammar
    ("check f(2^3^2*x) == f(x);", ParseError, r"unexpected \^"),
])
def test_check_expression_errors(line, error, message):
    with pytest.raises(error, match=message):
        parse_session(CHECK_HEAD + line)


def test_large_exponents_parse_quickly(time_limit):
    with time_limit(5, "parsing"):
        (command,) = parse_session(CHECK_HEAD + "check f(x^2000) == f(x)^2000;").commands
        # a power is refused from its base degree, before it is expanded
        for line in ("check f(x) == f(x)^10001;", "check f(x^" + "9" * 999 + ") == f(x);",
                     "check f((x+1)^20000) == f(x);"):
            with pytest.raises(ParseError, match="degree above 10000"):
                parse_session(CHECK_HEAD + line)
    assert command.payload["p"].as_dict() == {(2000,): Q2.one()}
    assert command.payload["q"].as_dict() == {(2000,): Q2.one()}


def test_power_expansion_work_is_bounded(time_limit):
    with time_limit(5, "parsing"):
        # a dense power within the degree cap is refused from its size
        # alone; expanding (x+1)^400 took seconds
        for line in ("check f((x+1)^400) == f(x);", "check f(x) == (f(x)+1)^400;"):
            with pytest.raises(ParseError, match="more than 10000 coefficient products"):
                parse_session(CHECK_HEAD + line)
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_session(CHECK_HEAD + "check f((x+1)^400) == f(x);")
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.01
        # under the budget: single terms of any allowed degree, and small dense powers
        (command,) = parse_session(CHECK_HEAD + "check f((x+1)^3) == (f(x)-1)^2;").commands
    assert dense(command.payload["p"]) == ["1", "3", "3", "1"]
    assert dense(command.payload["q"]) == ["1", "-2", "1"]


@pytest.mark.parametrize("scalar,check", [
    ("1", "g(x^10000) == g(x)^10000"),            # the probe t+1 to the 10000th, left side
    ("t+1", "g(x^10000) == g(x)^10000"),          # g(1) = t+1 to the 10000th, right side
    ("(t+1)^60", "g(x^3) == g(x)^3 on samples(2, seed=1)"),  # the cube of 61 terms or more
])
def test_powers_of_samples_are_refused_by_the_parser_rule(time_limit, scalar, check):
    session = parse_session(f"field F = Q(t);\nmap m = ({scalar})*id;\n"
                            f"genpoly g = trace(product(m));\ncheck {check};\n")
    with time_limit(1, "refusing a power at run time"):
        doc = run_session(session, RunOptions(seed=0))
    (entry,) = doc.entries
    assert entry["verdict"] == "ERROR" and doc.exit_code == 1
    assert entry["detail"] == "ValueTooLarge: power needs more than 10000 coefficient products to expand"


def test_powers_of_samples_under_the_budget_run():
    # a cube at small values, and the square of a value of 120 terms and
    # more, one product like every other step of the evaluation
    source = ("field F = Q(t);\ngenpoly f = trace(product(id));\ncheck f(x^3) == f(x)^3;\n"
              "map m = ((t+1)^60*(t+2)^60)*id;\ngenpoly g = trace(product(m));\n"
              "check g(x^2) == g(x)^2 on samples(2, seed=1);\n")
    doc = run_src(source, seed=0)
    assert [entry["verdict"] for entry in doc.entries] == ["HOLDS_ON_SAMPLE", "REFUTED"]


@pytest.mark.parametrize("terms,degree,k,products", [
    (1, 7, 2000, 15),    # a single term stays one: 10 squarings, 5 products
    (2, 1, 2, 4),        # (x+1)^2 = (x+1)*(x+1)
    (2, 1, 3, 10),       # squared (4), then times the base (3 * 2)
    (0, 0, 5, 0),
    (2, 1, 400, 61821),
])
def test_power_products_bound(terms, degree, k, products):
    assert power_products(terms, degree, k) == products


@settings(max_examples=60, deadline=None)
@given(nvars=st.integers(1, 3), k=st.integers(1, 9), data=st.data())
def test_power_products_bounds_the_products_in_several_variables(nvars, k, data):
    exponents = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1,
                                   max_size=5, unique=True))
    e = Poly(nvars, {exp: i + 1 for i, exp in enumerate(exponents)})
    made, result, base, j = 0, None, e, k  # the products Poly.__pow__ makes for e**k
    while True:
        if j & 1:
            if result is not None:
                made += len(result.terms) * len(base.terms)
            result = base if result is None else result * base
        j >>= 1
        if not j:
            break
        made += len(base.terms) ** 2
        base = base * base
    assert result == e ** k
    assert made <= power_products(len(e.terms), e.total_degree(), k, nvars)


_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "(2)", "(-1)"])
_LEAVES = st.sampled_from(["0", "1", "2", "3", "12", "sqrt(2)"])


def _constant_expressions():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map("".join),
            inner.map(lambda e: "-" + e),
            inner.map(lambda e: f"({e})"),
            st.tuples(_LEAVES, _EXPONENTS).map("^".join),
            st.tuples(inner, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        )
    return st.recursive(_LEAVES, extend, max_leaves=8)


@settings(max_examples=150, deadline=2000)
@given(_constant_expressions())
def test_both_check_sides_share_the_element_grammar(text):
    def terms(parse):
        try:
            return parse()
        except PolcheckError:
            return None

    expected = terms(lambda: {(1,): c for c in [parse_element(text, Q2)] if c})
    for line, side in ((f"check f(({text})*x) == f(x);", "p"),
                       (f"check f(x) == ({text})*f(x);", "q")):
        actual = terms(lambda: parse_session(CHECK_HEAD + line).commands[0].payload[side].as_dict())
        assert actual == expected, line


# -- execution and reports ---------------------------------------------------

def test_norm_session_passes_with_exit_zero():
    doc = run_src(NORM_SRC, seed=5)
    assert doc.exit_code == 0
    assert doc.entries[0]["verdict"] == "HOLDS_ON_SPAN"


def test_refutation_gives_exit_one_and_witness():
    src = """
    field F = Q(t);
    der dd : t -> 1;
    map a = dd + id;
    genpoly f = trace(mapprod(a, 2));
    check f(x^2) == f(x)^2 on samples(5, seed=7);
    """
    doc = run_src(src, seed=7)
    assert doc.exit_code == 1
    entry = doc.entries[0]
    assert entry["verdict"] == "REFUTED"
    assert any("diff = -4*t^2" in w for w in entry["witnesses"])


TWO_VARIABLE_HEAD = """
field F = Q(t, u);
hom s : t -> t^2, u -> u+1;
hom r : t -> u, u -> t;
genpoly f = trace(product(s, r));
"""


def test_two_variable_function_field_reaches_a_verdict():
    doc = run_src(TWO_VARIABLE_HEAD + "check f(x^2) == f(x)^2 on samples(3, seed=3);")
    assert doc.exit_code == 0
    assert doc.entries[0]["verdict"] == "HOLDS_ON_SAMPLE"


def test_two_variable_refutation_reaches_a_verdict(time_limit):
    # 2*q reduces a 27-term numerator against a 48-term denominator, which
    # the pseudo-remainder sequence alone took minutes to prove coprime
    with time_limit(5, "the check"):
        doc = run_src(TWO_VARIABLE_HEAD + "check f(x^2) == 2*f(x)^2 on samples(3, seed=3);")
    assert doc.exit_code == 1
    assert doc.entries[0]["verdict"] == "REFUTED"


def test_empty_session_empty_report():
    doc = run_src("field F = Q;\n")
    assert doc.exit_code == 0 and doc.entries == []


def test_failure_of_one_command_does_not_abort_later_ones():
    src = """
    field F = Q(sqrt 2);
    hom c = conj;
    genpoly f = trace(product(id, c));
    check f(x^2) == f(x)^3 on samples(3, seed=1);
    degree f;
    """
    doc = run_src(src)
    assert [e["verdict"] for e in doc.entries] == ["NOT_APPLICABLE", "pass"]
    assert doc.exit_code == 1


def test_span_checks_skip_the_degree_precheck_and_keep_a_row_budget():
    src = """
    field F = Q(sqrt 2);
    hom c = conj;
    genpoly f = trace(product(id, c));
    check f(x^2) == f(x)^3 on span(1, sqrt(2));
    check f(x^2) == f(x)^3 on samples(3, seed=1);
    """
    doc = run_src(src, oracle_check=True)
    assert [e["verdict"] for e in doc.entries] == ["REFUTED", "NOT_APPLICABLE"]
    assert doc.entries[0]["oracle_checked"] and doc.consistent
    assert doc.entries[0]["samples"].endswith("28 tuple(s) of order 0..6")
    powers = ", ".join(f"t^{i}" for i in range(10))  # Q-independent
    src = f"""
    field F = Q(t);
    genpoly f = trace(product(id, id));
    check f(x^4) == f(x)^4 on span({powers});
    """
    (entry,) = run_src(src).entries
    assert entry["verdict"] == "ERROR" and entry["detail"] == (
        "arity too large: span check needs 24310 rows on 10 generators, budget is 1000")


def test_span_checks_keep_the_error_of_a_vanishing_denominator():
    # the sides are homogeneous, so the table reads f(m*x) off f(x): the first
    # point whose substitution fails is still the one that raises
    src = """
    field F = Q(t, u);
    hom s : t -> u, u -> u;
    genpoly f = trace(product(s, s));
    check f(x^2) == f(x)^2 on span(1, 1/(t-u));
    check f(x^3) == f(x)^3 on span(t, 1/(t-u), u);
    """
    doc = run_src(src)
    assert [(e["verdict"], e["detail"]) for e in doc.entries] == [
        ("ERROR", f"DenominatorVanishes: denominator of 1/({den}) vanishes under substitution")
        for den in ("t^2-2*t*u+u^2", "t^3-3*t^2*u+3*t*u^2-u^3")]


def test_json_schema_and_determinism():
    doc_a = run_src(NORM_SRC, seed=9)
    doc_b = run_src(NORM_SRC, seed=9)
    blob_a = emit_report(doc_a, "json")
    blob_b = emit_report(doc_b, "json")
    assert blob_a == blob_b
    parsed = json.loads(blob_a)
    assert parsed["schema"] == "1"
    assert parsed["seed"] == 9
    assert parsed["entries"][0]["verdict"] == "HOLDS_ON_SPAN"


def test_refuted_json_has_witnesses():
    src = """
    field F = Q(t);
    der dd : t -> 1;
    map a = dd + id;
    genpoly f = trace(mapprod(a, 2));
    check f(x^2) == f(x)^2 on span(1, t);
    """
    parsed = json.loads(emit_report(run_src(src), "json"))
    entry = parsed["entries"][0]
    assert entry["verdict"] == "REFUTED" and entry["witnesses"]


def test_text_report_mentions_span_generators():
    text = emit_report(run_src(NORM_SRC), "text").decode()
    assert "span generators (1, sqrt(2), 1+sqrt(2)); Q-basis (1, sqrt(2)); 5 tuple(s)" in text
    assert "verdict: HOLDS_ON_SPAN" in text
    independent = NORM_SRC.replace("span(1, sqrt(2), 1+sqrt(2))", "span(1, sqrt(2))")
    text = emit_report(run_src(independent), "text").decode()
    assert "span generators (1, sqrt(2)); 5 tuple(s) of arity 4" in text


def test_span_audit_rebuilds_each_dropped_generator(monkeypatch):
    src = NORM_SRC.replace("span(1, sqrt(2), 1+sqrt(2))", "span(1, 0, sqrt(2), 2-3*sqrt(2))")
    doc = run_src(src, oracle_check=True)
    assert doc.consistent and doc.entries[0]["oracle_checked"]
    assert "Q-basis (1, sqrt(2)); 5 tuple(s)" in doc.entries[0]["samples"]
    # a wrong coefficient on the basis is an oracle mismatch, with no other row at fault
    original = session_module.check_symmetrized

    def misrecorded(*args):
        report = original(*args)
        report.dropped = report.dropped[:-1] + ((report.dropped[-1][0], (2, -2)),)
        return report

    monkeypatch.setattr(session_module, "check_symmetrized", misrecorded)
    doc = run_src(src, oracle_check=True)
    assert doc.entries[0]["oracle_mismatches"] == [
        "generator 2-3*sqrt(2) on the Q-basis: engine 2-3*sqrt(2)"]
    assert doc.exit_code == 3


def test_classify_command_in_session():
    src = """
    field F = Q;
    form S = product(id, id);
    classify quadratic S with dictionary(id);
    """
    doc = run_src(src)
    entry = doc.entries[0]
    assert entry["verdict"] == "HOLDS_ON_SAMPLE"
    assert entry["classification"]["case"] == "single homomorphism squared"


def test_classify_dictionary_insufficient_is_inconclusive():
    src = """
    field F = Q(sqrt 2);
    hom c = conj;
    form N2 = product(id, c);
    classify quadratic N2 with dictionary(id);
    """
    doc = run_src(src)
    assert doc.entries[0]["verdict"] == "INCONCLUSIVE"
    assert "DictionaryInsufficient" in doc.entries[0]["detail"]
    assert doc.exit_code == 1


def test_classify_refutes_f_at_1_outside_zero_and_one_at_the_all_ones_tuple():
    """f(1) = 2: the quartic form at (1, 1, 1, 1) is 3 f(1)(1 - f(1)) = -6,
    so the quartic test refutes before f(1) is read."""
    src = """
    field F = Q;
    classify quadratic lincomb(2*product(id, id)) with dictionary(id);
    """
    doc = run_src(src, oracle_check=True)
    entry = doc.entries[0]
    assert entry["verdict"] == "REFUTED"
    assert entry["witnesses"][0] == "x = (1, 1, 1, 1), lhs = -6, rhs = 0, diff = -6"
    assert doc.consistent and entry["oracle_checked"] is True


def test_degree_rank_verify_polarize_commands():
    src = """
    field F = Q(t);
    der dd : t -> 1;
    map a = dd + id;
    genpoly f = trace(mapprod(a, 2));
    degree f;
    rank f mult translates(1, t, t+1, t^2, t-1) points(t+2, 2*t, t^2+1, t^3-1, t+5, t^2-t);
    rank f add translates(1, t, t+1, t^2, t-1) points(t+2, 2*t, t^2+1, t^3-1, t+5, t^2-t);
    verify additive a;
    verify leibniz dd;
    polarize f at (t, t+1);
    polarize f at (0, 1);
    """
    doc = run_src(src, seed=2)
    e = doc.entries
    assert e[0]["degree"] == 2
    assert e[1]["rank"] == 2
    assert e[2]["rank"] == 4
    assert e[3]["verdict"] == "pass" and e[4]["verdict"] == "pass"
    assert e[5]["value"] == "t^2+3*t+1"
    assert e[6]["verdict"] == "pass" and e[6]["value"] == "0"
    assert doc.exit_code == 0


@pytest.mark.parametrize("statement,verdict", [
    ("verify leibniz id;", "REFUTED"),  # x*y is not 2*x*y: the identity is no derivation
    ("verify multiplicative id;", "pass"),
    ("verify multiplicative conj;", "pass"),
    ("verify additive (2*id + conj);", "pass"),
])
def test_verify_takes_builtin_and_parenthesized_maps(statement, verdict):
    doc = run_src(f"field F = Q(sqrt 2);\n{statement}\n", oracle_check=True)
    (entry,) = doc.entries
    assert entry["verdict"] == verdict and doc.consistent


def test_verify_of_an_unknown_map_is_a_name_error():
    with pytest.raises(NameResolutionError, match="unknown name 'nope'"):
        parse_session("field F = Q;\nverify additive nope;\n")


def test_verify_violation_is_refuted():
    src = """
    field F = Q(t);
    der dd : t -> 1;
    map a = dd + id;
    verify multiplicative a;
    """
    doc = run_src(src)
    assert doc.entries[0]["verdict"] == "REFUTED"
    assert doc.exit_code == 1


def test_arity_cap_becomes_command_error():
    src = """
    field F = Q(sqrt 2);
    hom c = conj;
    genpoly f = trace(product(id, c));
    check f(x^5) == f(x)^5 on span(1, sqrt(2));
    """
    doc = run_session(parse_session(src))
    assert doc.entries[0]["verdict"] == "ERROR"
    assert "arity" in doc.entries[0]["detail"]
    assert doc.exit_code == 1


@pytest.mark.parametrize("field,value", [
    ("samples", 0), ("samples", -1), ("samples", 2.5), ("samples", MAX_SAMPLES + 1),
])
def test_run_options_refuse_counts_the_cli_refuses(field, value):
    with pytest.raises(ValueError, match=field):
        RunOptions(**{field: value})


def test_run_options_accept_the_smallest_counts():
    assert RunOptions(samples=1).samples == 1


def test_run_options_have_no_arity_knob():
    # the arity cap is the constant forms.DEFAULT_ARITY_CAP, like every budget
    with pytest.raises(TypeError):
        RunOptions(max_arity=6)


def test_oracle_check_marks_entries_and_consistency():
    doc = run_src(NORM_SRC, seed=5, oracle_check=True)
    assert doc.consistent and doc.exit_code == 0
    assert doc.entries[0].get("oracle_checked") is True


def test_audit_formats_no_label_for_matching_rows(monkeypatch):
    labels = []
    input_text = session_module._input_text
    monkeypatch.setattr(session_module, "_input_text", lambda x: labels.append(x) or input_text(x))
    doc = run_src(NORM_SRC + "check f(x^2) == f(x)^2 on samples(4);\n", oracle_check=True)
    assert doc.consistent and all(e.get("oracle_checked") for e in doc.entries)
    assert labels == []


def test_check_audit_converts_p_and_q_coefficients_once(monkeypatch):
    """An extra sample costs the oracle only the conversions of the two
    engine values it compares, whatever the degrees of P and Q."""
    calls = []
    convert = oracle_module.from_element
    monkeypatch.setattr(oracle_module, "from_element", lambda e: calls.append(e) or convert(e))
    counts = []
    for count in (3, 6):
        calls.clear()
        doc = run_src("field F = Q; form S = product(id, id); genpoly f = trace(S);"
                      f"check f(x^3+2) == f(x)^3+5 on samples({count});", oracle_check=True)
        assert doc.consistent and doc.entries[0]["verdict"] == "REFUTED"
        counts.append(len(calls))
    assert counts[1] - counts[0] == 2 * 3


def test_inconsistent_document_exit_code():
    doc = run_src(NORM_SRC, seed=5)
    doc.consistent = False
    assert doc.exit_code == 3


def test_ratfunc_over_quadratic_field_declaration():
    src = """
    field F = Q(sqrt 2)(t);
    hom s : t -> t^2;
    genpoly f = trace(product(s, s));
    check f(x^2) == f(x)^2 on span(1, t, sqrt(2));
    """
    doc = run_src(src)
    assert doc.entries[0]["verdict"] == "HOLDS_ON_SPAN"


def test_each_seeded_sample_is_drawn_once_per_session(monkeypatch):
    # every verify command asks for the same ten seeded samples of Q(t)
    source = ("field F = Q(t);\nhom s : t -> t^2;\nder d : t -> 1;\n"
              "verify additive s;\nverify multiplicative s;\nverify leibniz d;\n")
    calls = []
    rng = fields_module._rng
    monkeypatch.setattr(fields_module, "_rng", lambda *args: calls.append(args) or rng(*args))
    fields_module._draw.cache_clear()
    memoized = emit_report(run_src(source, seed=3), "json")
    assert len(calls) == 10 and len(set(calls)) == 10
    # __wrapped__ draws every time, and the report keeps its bytes
    monkeypatch.setattr(fields_module, "_draw", fields_module._draw.__wrapped__)
    assert emit_report(run_src(source, seed=3), "json") == memoized
    assert len(calls) == 10 + 30
