"""The seeded sampler (determinism, bounds) and the naive oracle (its
imports, its values, and its agreement with the engine)."""

import ast
from pathlib import Path

import pytest

from polcheck import oracle as oracle_module
from polcheck.errors import SpecMismatch
from polcheck.fields import FieldSpec, SampleConfig, format_element, random_element, sample_elements
from polcheck.forms import Lift, MapOfProduct, ProductSym, eval_form, trace
from polcheck.maps import apply_map, build_derivation, build_endomorphism, identity_map, sum_maps
from polcheck.oracle import (
    Oracle,
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

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])
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
    assert not [i for i in imports if i[0] in ENGINE_ONLY]
    assert {name for module, name in imports if module == "fields"} <= ORACLE_FIELD_NAMES


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
