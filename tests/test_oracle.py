"""The seeded sampler (determinism, bounds) and the naive oracle (its
imports, its values, and its agreement with the engine)."""

import ast
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck import oracle as oracle_module
from polcheck.errors import SpecMismatch
from polcheck.fields import (
    FieldElement,
    FieldSpec,
    QuadRat,
    SampleConfig,
    format_element,
    normalize_fraction,
    random_element,
    sample_elements,
)
from polcheck.forms import Lift, MapOfProduct, ProductSym, eval_form, trace
from polcheck.maps import apply_map, build_derivation, build_endomorphism, identity_map, sum_maps
from polcheck.oracle import (
    OVal,
    Oracle,
    arrangements,
    from_element,
    matches,
    o_add,
    o_div,
    o_eq,
    o_is_zero,
    o_mul,
    o_pow,
    o_sub,
)
from polcheck.polys import Poly

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])
Q2T = FieldSpec.ratfunc(Q2, ["t"])
Q2TU = FieldSpec.ratfunc(Q2, ["t", "u"])

CFG = SampleConfig(seed=17, count=10, max_height=5, max_degree=2)


# -- sampling ------------------------------------------------------------

def test_same_seed_same_element():
    assert random_element(QT, CFG, 3) == random_element(QT, CFG, 3)
    assert sample_elements(Q2, CFG) == sample_elements(Q2, CFG)


def test_different_indices_vary():
    draws = {random_element(Q, CFG, i) for i in range(10)}
    assert len(draws) > 3


def test_rational_height_bound():
    for i in range(30):
        e = random_element(Q, SampleConfig(seed=1, count=1, max_height=5, max_degree=0), i)
        assert abs(e.payload.numerator) <= 5 and e.payload.denominator <= 5


def test_ratfunc_shape_bound():
    for i in range(10):
        e = random_element(QT, SampleConfig(seed=2, count=1, max_height=3, max_degree=2), i)
        num, den = e.payload
        assert num.total_degree() <= 2 and den.total_degree() <= 2
        assert not den.is_zero()


def test_config_validation():
    with pytest.raises(SpecMismatch):
        SampleConfig(seed=1, count=0)
    with pytest.raises(SpecMismatch):
        SampleConfig(max_height=0)
    with pytest.raises(SpecMismatch):
        SampleConfig(max_degree=-1)
    assert SampleConfig(max_degree=0).count == 20


#: The first five elements of each stream under CFG.  Every seeded check
#: samples from these streams, so a change here changes golden reports.
PINNED_STREAMS = {
    Q: ["0", "1", "0", "0", "1/2"],
    Q2: ["-2", "-2+2*sqrt(2)", "-5/3+3*sqrt(2)", "-5/2-sqrt(2)", "1+1/4*sqrt(2)"],
    QT: ["1/(t^2+1/2*t)", "(1/3*t+4/3)/t^2", "(t-3/4)/t^2", "(-t^2-1)/(t-4/5)", "0"],
    Q2TU: [
        "(28/17+18/17*sqrt(2))*t^2/(t^2*u^2+(-23/17-16/17*sqrt(2))*t-23/17-16/17*sqrt(2))",
        "(18/23-22/23*sqrt(2))/t",
        "(5/7-3/7*sqrt(2))*t^2/u^2",
        "(-11/2-4*sqrt(2))*u/(t^2+(-9/2-5/2*sqrt(2))*u)",
        "((13/23+2/23*sqrt(2))*t*u+(-1/23+14/23*sqrt(2))*u^2)/t^2",
    ],
}


@pytest.mark.parametrize("spec", list(PINNED_STREAMS), ids=lambda spec: spec.describe())
def test_sample_streams_are_pinned(spec):
    assert [format_element(random_element(spec, CFG, i)) for i in range(5)] == PINNED_STREAMS[spec]


# -- what the oracle imports -------------------------------------------------

#: The only engine names the oracle may import from ``fields``: the field
#: kinds, and the classes whose payloads it reads.
ORACLE_FIELD_NAMES = {"QUADRATIC", "RATFUNC", "RATIONALS", "FieldElement", "FieldSpec", "QuadRat"}
ENGINE_ONLY = {"lexer", "polys", "linalg", "funceq", "genpoly", "session"}

#: The one name from an engine-only module that the oracle may import:
#: the width of a packed monomial key, a constant that it decodes with
#: its own shifts.
ORACLE_ENGINE_CONSTANTS = {("polys", "EXP_BITS")}


def _package_imports(tree):
    """(module, name) for every import of a polcheck module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("polcheck"):
                continue
            module = (node.module or "").removeprefix("polcheck").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("polcheck."):
                    yield alias.name.removeprefix("polcheck."), None


def test_oracle_imports_no_engine_computation():
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    imports = list(_package_imports(tree))
    assert ("errors", "DivisionByZero") in imports  # the walk sees the module's imports
    assert not [i for i in imports if i[0] in ENGINE_ONLY and i not in ORACLE_ENGINE_CONSTANTS]
    assert {name for module, name in imports if module == "fields"} <= ORACLE_FIELD_NAMES


# -- symmetrization sums --------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(indices=st.lists(st.integers(0, 3), max_size=6))
def test_arrangement_weights_equal_the_permutation_count(indices):
    literal = Counter(tuple(indices[i] for i in sigma)
                      for sigma in permutations(range(len(indices))))
    assert list(arrangements(indices)) == sorted(literal.items())


# -- naive arithmetic -----------------------------------------------------

def test_cross_multiplication_equality():
    half = from_element(Q.element("1/2"))
    other = o_div(from_element(Q.from_int(2)), from_element(Q.from_int(4)))
    assert o_eq(half, other)
    assert not o_eq(half, from_element(Q.element("1/3")))


def test_radical_reduction():
    s = from_element(Q2.sqrt_element())
    assert o_eq(o_mul(s, s), from_element(Q2.from_int(2)))
    assert o_eq(o_pow(s, 4), from_element(Q2.from_int(4)))


def test_zero_detection():
    e = from_element(QT.element("(t-1)/(t+1)"))
    diff = o_add(e, from_element(-QT.element("(t-1)/(t+1)")))
    assert o_is_zero(o_mul(diff, from_element(QT.element("t^5"))))


def reference_pd_mul(p: dict, q: dict, rad, d) -> dict:
    """The plain double loop over every pair of terms: exponents added,
    s^2 -> d reduced at the radical's index, zero sums dropped."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            if rad is not None and e[rad] >= 2:
                c *= d ** (e[rad] // 2)
                e = e[:rad] + (e[rad] % 2,) + e[rad + 1:]
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


@st.composite
def pd_mul_operands(draw):
    """Two oracle dicts over 0-3 symbols, the last one optionally a
    radical (exponent 0 or 1, radicand 2, 3 or -1), each a general dict,
    {}, a one-term constant or a one-term non-constant."""
    nsyms = draw(st.integers(0, 3))
    d = draw(st.sampled_from([None, 2, 3, -1])) if nsyms else None
    rad = nsyms - 1 if d is not None else None
    tops = [1 if i == rad else 3 for i in range(nsyms)]
    exps = st.tuples(*(st.integers(0, top) for top in tops))
    coeffs = st.integers(-9, 9).filter(bool)
    zero = (0,) * nsyms
    shaped = st.one_of(
        st.dictionaries(exps, coeffs, max_size=4),
        st.just({}),
        coeffs.map(lambda c: {zero: c}),
        st.tuples(exps.filter(any), coeffs).map(lambda t: {t[0]: t[1]}) if nsyms else st.just({}),
    )
    return draw(shaped), draw(shaped), rad, d


@settings(max_examples=200, deadline=None)
@given(pd_mul_operands())
def test_pd_mul_equals_the_double_loop(operands):
    p, q, rad, d = operands
    product = oracle_module._pd_mul(p, q, rad, d)
    assert list(product.items()) == list(reference_pd_mul(p, q, rad, d).items())


def term_by_term(e: FieldElement) -> OVal:
    """``from_element`` term by term, the reference for its one-pass
    reading: a scalar read as integers, and a rational function folded
    from zero with one ``o_mul`` (scalar times monomial) and one
    ``o_add`` per term, then divided with ``o_div``."""
    spec = e.spec
    nsyms, rad, d = oracle_module._context(spec)
    base = (0,) * nsyms

    def scalar(c) -> OVal:
        if isinstance(c, QuadRat):
            num = {}
            if c.p:
                num[base] = c.p
            if c.q:
                num[base[:rad] + (1,) + base[rad + 1:]] = c.q
            return OVal(num, {base: c.c}, nsyms, d)
        c = Fraction(c)
        return OVal({base: c.numerator} if c.numerator else {}, {base: c.denominator}, nsyms, d)

    if spec.kind != "ratfunc":
        return scalar(e.payload)

    def poly(p) -> OVal:
        total = Oracle(spec).zero()
        for exps, coeff in p.as_dict().items():
            mono = {tuple(exps) + ((0,) if rad is not None else ()): 1}
            total = o_add(total, o_mul(scalar(coeff), OVal(mono, {base: 1}, nsyms, d)))
        return total

    num, den = e.payload
    return o_div(poly(num), poly(den))


def _integral(c) -> bool:
    return (c.c if isinstance(c, QuadRat) else c.denominator) == 1


@st.composite
def elements_to_convert(draw):
    """Elements of Q, Q(sqrt 2), Q(t) and Q(sqrt 2)(t, u), with integral
    or fractional coefficients.  A rational function is a raw pair of
    random polynomials, normalized by the engine half of the time."""
    spec = draw(st.sampled_from([Q, Q2, QT, Q2TU]))
    rational = st.fractions(-20, 20, max_denominator=draw(st.sampled_from([1, 6])))
    if Q2 in (spec, spec.base):
        scalar = st.tuples(rational, rational).map(lambda ab: QuadRat(ab[0], ab[1], 2))
    else:
        scalar = rational.map(lambda c: c.numerator if c.denominator == 1 else c)
    if spec.kind != "ratfunc":
        return FieldElement(spec, draw(scalar))
    exps = st.tuples(*(st.integers(0, 3) for _ in range(spec.nvars)))
    terms = st.dictionaries(exps, scalar.filter(bool), max_size=4)
    num, den = Poly(spec.nvars, draw(terms)), Poly(spec.nvars, draw(terms.filter(bool)))
    if draw(st.booleans()):
        return normalize_fraction(spec, num, den)
    return FieldElement(spec, (num, den))


@settings(max_examples=150, deadline=None)
@given(elements_to_convert())
def test_from_element_equals_the_term_by_term_construction(e):
    value, reference = from_element(e), term_by_term(e)
    assert o_eq(value, reference)
    if e.spec.kind == "ratfunc":
        coeffs = [c for p in e.payload for c in p.terms.values()]
    else:
        coeffs = [e.payload]
    if all(map(_integral, coeffs)):
        assert list(value.num.items()) == list(reference.num.items())
        assert list(value.den.items()) == list(reference.den.items())


def test_from_element_multiplies_only_in_its_final_division(monkeypatch):
    calls = []
    pd_mul = oracle_module._pd_mul

    def counting(p, q, rad, d):
        calls.append((p, q))
        return pd_mul(p, q, rad, d)

    monkeypatch.setattr(oracle_module, "_pd_mul", counting)
    for e in (QT.element("(t^3+2*t+1)/(t^2+5)"),
              Q2T.element("((1+sqrt(2))*t^3 - 3*t + sqrt(2))/(2*t^2 + sqrt(2)*t - 7)")):
        calls.clear()
        value = from_element(e)
        # o_div(u, v) takes u.num * v.den and u.den * v.num, where each
        # den is the one-term common denominator of a polynomial
        assert len(calls) == 2
        assert [len(calls[0][1]), len(calls[1][0])] == [1, 1]
        assert o_eq(value, term_by_term(e))


# -- oracle values ------------------------------------------------------------

def test_norm_of_square_is_one():
    conj = build_endomorphism(Q2, conjugate_base=True)
    norm = trace(ProductSym((identity_map(Q2), conj)))
    x = o_pow(from_element(Q2.element("1+sqrt(2)")), 2)
    assert matches(Q2.one(), Oracle(Q2).eval_monomial(norm, x))


def test_naive_derivative():
    d = build_derivation(QT, {"t": QT.one()})
    value = Oracle(QT).apply_map(d, from_element(QT.element("t^2+1")))
    assert matches(QT.element("2*t"), value)


def test_golden_difference_value():
    # f(x) = a(x^2) with a = d + id; f(t^2) - f(t)^2 = -4 t^2
    d = build_derivation(QT, {"t": QT.one()})
    f = trace(MapOfProduct(sum_maps(d, identity_map(QT)), 2))
    oracle = Oracle(QT)
    t = from_element(QT.element("t"))
    value = o_sub(oracle.eval_monomial(f, o_pow(t, 2)), o_pow(oracle.eval_monomial(f, t), 2))
    assert matches(QT.element("-4*t^2"), value)


# -- engine agreement on random samples ----------------------------------------

def test_map_application_agreement():
    d = build_derivation(QT, {"t": QT.element("t")})
    s = build_endomorphism(QT, {"t": QT.element("t^2+1")})
    oracle = Oracle(QT)
    for m in (d, s, sum_maps(d, identity_map(QT))):
        for i, x in enumerate(sample_elements(QT, CFG)):
            assert matches(apply_map(m, x), oracle.apply_map(m, from_element(x)))


def test_form_evaluation_agreement_including_lift():
    conj = build_endomorphism(Q2, conjugate_base=True)
    base = ProductSym((identity_map(Q2), conj))
    lifted = Lift(base, 2)
    oracle = Oracle(Q2)
    args = sample_elements(Q2, SampleConfig(seed=23, count=4, max_height=2, max_degree=0))
    assert matches(eval_form(lifted, args),
                   oracle.eval_form(lifted, [from_element(a) for a in args]))


def test_genpoly_and_delta_agreement():
    from polcheck.forms import delta_many
    from polcheck.genpoly import genpoly_from

    conj = build_endomorphism(Q2, conjugate_base=True)
    norm = trace(ProductSym((identity_map(Q2), conj)))
    p = genpoly_from([norm])
    oracle = Oracle(Q2)
    ys = sample_elements(Q2, SampleConfig(seed=29, count=3, max_height=2, max_degree=0))
    engine = delta_many(p, ys, Q2.zero())
    naive = oracle.delta_many(lambda v: oracle.eval_genpoly(p, v),
                              [from_element(y) for y in ys],
                              from_element(Q2.zero()))
    assert matches(engine, naive)


def test_generator_images_are_converted_once_per_oracle(monkeypatch):
    from polcheck.session import RunOptions, parse_session, run_session

    session = parse_session(
        "field F = Q(t); hom s : t -> t^2; hom r : t -> t+1; hom u : t -> 1/t;"
        " der D : t -> t^2; genpoly f = trace(product(s, r));"
        " genpoly g = trace(product(u, D));"
        " check f(x^2) == f(x)^2 on samples(20, seed=3);"
        " check g(x) == g(x) on samples(10, seed=4);")
    images = [img for name in ("s", "r", "u", "D") for _, img in session.env[name].images]
    converted = []
    convert = oracle_module.from_element

    def counting(e):
        converted.append(e)
        return convert(e)

    monkeypatch.setattr(oracle_module, "from_element", counting)
    doc = run_session(session, RunOptions(seed=5, oracle_check=True))
    assert doc.consistent
    # each check builds one Oracle, which converts each image it uses once
    assert [sum(1 for e in converted if e is img) for img in images] == [1, 1, 1, 1]


def test_form_constants_are_converted_once_per_oracle(monkeypatch):
    from polcheck.forms import ConstForm
    from polcheck.session import RunOptions, parse_session, run_session

    session = parse_session(
        "field F = Q(sqrt 2); hom c = conj;"
        " form M = lincomb(2*product(id, id), (1+sqrt(2))*product(id, c));"
        " genpoly f = trace(M);"
        " check f(x^2) == f(x)^2 on samples(12, seed=3);"
        " check f(x) == f(x) on samples(8, seed=4);")
    coeffs = [coeff for coeff, _ in session.env["M"].terms]
    const = ConstForm(Q2.element("3-sqrt(2)"))
    converted = []
    convert = oracle_module.from_element

    def counting(e):
        converted.append(e)
        return convert(e)

    monkeypatch.setattr(oracle_module, "from_element", counting)
    doc = run_session(session, RunOptions(seed=5, oracle_check=True))
    assert doc.consistent
    # each check builds one Oracle, which converts each coefficient once
    assert [sum(1 for e in converted if e is c) for c in coeffs] == [2, 2]
    oracle = Oracle(Q2)
    values = [oracle.eval_form(const, []) for _ in range(3)]
    assert all(o_eq(v, convert(const.value)) for v in values)
    assert sum(1 for e in converted if e is const.value) == 1
