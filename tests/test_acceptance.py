"""Acceptance criteria, one test per criterion, zero-tolerance exact
arithmetic throughout.  Each test prints a single pass line so the
suite doubles as a checklist (run with ``pytest -s``)."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from polcheck import forms as forms_module
from polcheck import funceq as funceq_module
from polcheck import genpoly as genpoly_module
from polcheck import maps as maps_module
from polcheck.fields import FieldSpec, SampleConfig, sample_elements
from polcheck.forms import (
    LinComb,
    MapOfProduct,
    ProductSym,
    delta_many,
    trace,
)
from polcheck.funceq import (
    HOLDS_ON_SAMPLE,
    HOLDS_ON_SPAN,
    REFUTED,
    check_pointwise,
    check_symmetrized,
    check_values,
    classify_quadratic_square,
    quartic_solve,
)
from polcheck.genpoly import degree_estimate, genpoly_from, variety_rank
from polcheck.maps import (
    apply_map,
    build_derivation,
    build_endomorphism,
    identity_map,
    scale_map,
    sum_maps,
    zero_map,
)
from polcheck.oracle import Oracle, from_element, matches, o_is_zero, o_mulint
from polcheck.polys import Poly
from polcheck.session import (
    RunOptions,
    default_probes,
    emit_report,
    parse_session,
    run_session,
)

Q = FieldSpec.rationals()
Q2 = FieldSpec.quadratic(2)
QT = FieldSpec.ratfunc(Q, ["t"])

CONJ = build_endomorphism(Q2, conjugate_base=True)
NORM_FORM = ProductSym((identity_map(Q2), CONJ))
NORM = trace(NORM_FORM)
DDT = build_derivation(QT, {"t": QT.one()})
A28 = sum_maps(DDT, identity_map(QT))
F28 = trace(MapOfProduct(A28, 2))

SESSIONS = sorted((Path(__file__).parent / "sessions").glob("*.pol"))


def announce(number: int, message: str):
    print(f"ACCEPTANCE {number}: {message} ... PASS")


def xk(spec, k, coeff=None):
    """The polynomial coeff*x^k (x^k by default) over ``spec``."""
    return Poly(1, {(k,): spec.one() if coeff is None else coeff})


def _polarization_cases():
    endo_sq = build_endomorphism(QT, {"t": QT.element("t^2")})
    endo_sh = build_endomorphism(QT, {"t": QT.element("t+1")})
    cases = []
    for spec, maps, additive in (
        (Q, [identity_map(Q), scale_map(3, identity_map(Q)),
             scale_map(-2, identity_map(Q)), scale_map(Fraction(1, 2), identity_map(Q))],
         scale_map(3, identity_map(Q))),
        (Q2, [identity_map(Q2), CONJ, scale_map(2, identity_map(Q2)), CONJ],
         sum_maps(identity_map(Q2), CONJ)),
        (QT, [identity_map(QT), endo_sh, endo_sq, DDT], A28),
    ):
        for n in (1, 2, 3, 4):
            cases.append((spec, ProductSym(tuple(maps[:n]))))
            cases.append((spec, MapOfProduct(additive, n)))
    return cases


def _light_samples(spec, cfg):
    """Samples with unit denominators over Q(t) so high-arity products
    stay polynomial-sized; full elements elsewhere."""
    if spec.kind != "ratfunc":
        return sample_elements(spec, cfg)
    from polcheck.fields import FieldElement
    from polcheck.polys import Poly

    one = Poly.const(spec.nvars, spec.base.scalar_one())
    out = []
    for e in sample_elements(spec, cfg):
        num, _ = e.payload
        out.append(FieldElement(spec, (num, one)))
    return out


def test_criterion_1_polarization_suite():
    checked = 0
    for case_index, (spec, form) in enumerate(_polarization_cases()):
        n = form.arity
        tr = trace(form)
        fact = math.factorial(n)
        oracle = Oracle(spec)
        for tuple_index in range(20):
            cfg = SampleConfig(seed=1000 + 13 * case_index + tuple_index,
                               count=n + 2, max_height=2, max_degree=1)
            draws = _light_samples(spec, cfg)
            x, ys = draws[0], draws[1:n + 1]
            extra = draws[n + 1]
            equal = delta_many(tr, ys, x)
            naive = oracle.eval_form(form, [from_element(y) for y in ys])
            assert matches(equal, o_mulint(naive, fact))
            vanish = delta_many(tr, ys + [extra], x)
            assert vanish.is_zero()
            checked += 1
    announce(1, f"polarization identities exact on {checked} seeded tuples "
                f"(arity 1-4, three fields, both form constructors)")


def test_criterion_2_products_of_homomorphisms():
    endo_sq = build_endomorphism(QT, {"t": QT.element("t^2")})
    endo_sh = build_endomorphism(QT, {"t": QT.element("t+1")})
    cases = [(Q2, trace(ProductSym((identity_map(Q2), CONJ)))),
             (QT, trace(ProductSym((endo_sq, endo_sh))))]
    for spec, monomial in cases:
        for k in (2, 3):
            report = check_symmetrized(genpoly_from([monomial]), xk(spec, k), xk(spec, k),
                                       default_probes(spec)[:3])
            assert report.verdict == HOLDS_ON_SPAN, (spec.describe(), k, report.detail)
    announce(2, "f = phi1*phi2 satisfies f(x^k) = f(x)^k on the default "
                "generator spans for k in {2, 3} over Q(sqrt 2) and Q(t)")


def test_criterion_3_derivation_power_identities():
    checked = 0
    for n in (1, 2, 3):
        f = trace(MapOfProduct(DDT, n))
        for k in (1, 2, 3):
            samples = sample_elements(
                QT, SampleConfig(seed=31 * n + k, count=20, max_height=3, max_degree=2),
                avoid_zero=True)
            assert len(samples) == 20
            lhs = lambda x: f(x ** k)
            rhs = lambda x: QT.from_int(k) * x ** ((k - 1) * n) * f(x)
            report = check_values(lhs, rhs, samples)
            assert report.verdict == HOLDS_ON_SAMPLE, (n, k, report.witnesses)
            checked += len(samples)
    announce(3, f"f(x) = d(x^n) satisfies f(x^k) = k x^((k-1)n) f(x) exactly "
                f"on {checked} seeded samples (n, k in 1..3)")


def test_criterion_4_quadratic_classifier():
    report = classify_quadratic_square(NORM_FORM, [identity_map(Q2), CONJ],
                                       default_probes(Q2))
    assert report.verdict == HOLDS_ON_SAMPLE
    assert report.classification.f_at_1 == Q2.one()
    assert set(report.classification.factor_descriptors()) == {"id", "conj"}
    phi1, phi2 = report.classification.factors
    for p in default_probes(Q2):
        assert trace(NORM_FORM)(p) == apply_map(phi1, p) * apply_map(phi2, p)

    square_form = ProductSym((identity_map(Q), identity_map(Q)))
    report_sq = classify_quadratic_square(square_form, [identity_map(Q)], default_probes(Q))
    assert report_sq.verdict == HOLDS_ON_SAMPLE
    assert report_sq.classification.case_tag == "single homomorphism squared"

    bad_form = MapOfProduct(A28, 2)
    report_bad = classify_quadratic_square(bad_form, [identity_map(QT)], default_probes(QT))
    assert report_bad.verdict == REFUTED
    witness = report_bad.witnesses[0]
    assert isinstance(witness.input, tuple) and len(witness.input) == 4
    oracle = Oracle(QT)
    engine_value = witness.lhs  # the engine's quartic value at the tuple
    assert not engine_value.is_zero()
    naive = _oracle_quartic(oracle, bad_form, witness.input)
    assert not o_is_zero(naive) and matches(engine_value, naive)
    announce(4, "classifier returns {id, conj} with f(1)=1, the squared case "
                "on Q, and a 4-tuple refutation (oracle-confirmed nonzero)")


def _oracle_quartic(oracle, form, tup):
    from polcheck.oracle import o_add, o_mul, o_neg

    x1, x2, x3, x4 = [from_element(a) for a in tup]
    f2 = lambda u, v: oracle.eval_form(form, [u, v])
    value = o_add(o_add(f2(o_mul(x1, x2), o_mul(x3, x4)),
                        f2(o_mul(x1, x3), o_mul(x2, x4))),
                  f2(o_mul(x1, x4), o_mul(x2, x3)))
    return o_add(value, o_neg(o_add(o_add(o_mul(f2(x1, x2), f2(x3, x4)),
                                          o_mul(f2(x1, x3), f2(x2, x4))),
                                    o_mul(f2(x1, x4), f2(x2, x3)))))


def test_criterion_5_power_identity_gate():
    neg_norm = trace(LinComb(((Q2.from_int(-1), NORM_FORM),)))
    gens = default_probes(Q2)[:3]
    passing = check_symmetrized(genpoly_from([neg_norm]), xk(Q2, 3), xk(Q2, 3), gens)
    assert passing.verdict == HOLDS_ON_SPAN
    # the f(1) gate f(1)^n = f(1) is the span check's all-ones row
    rejected = check_symmetrized(genpoly_from([neg_norm]), xk(Q2, 2), xk(Q2, 2), gens)
    assert rejected.verdict == REFUTED
    first = rejected.witnesses[0]
    assert first.input == (Q2.one(),) * 4
    assert first.lhs == Q2.from_int(-1) and first.rhs == Q2.one()
    announce(5, "f = -norm passes n=3 and is rejected at the f(1) "
                "root-of-unity gate for n=2")


def test_criterion_6_quartic_special_case():
    for c in (1, 2, -3):
        a = scale_map(c, identity_map(Q))
        report = quartic_solve(a, default_probes(Q))
        assert report.verdict == HOLDS_ON_SAMPLE
        assert report.classification.f_at_1 == Q.from_int(c) ** 4
        assert report.classification.factors[0].describe() == "id"
        oracle = Oracle(Q)
        for p in default_probes(Q):
            engine = apply_map(a, p) ** 4
            naive = oracle.apply_map(a, from_element(p))
            from polcheck.oracle import o_mul

            assert matches(engine, o_mul(o_mul(naive, naive), o_mul(naive, naive)))
    refuted = quartic_solve(A28, default_probes(QT))
    assert refuted.verdict == REFUTED
    announce(6, "f(x^2) = a(x)^4 solved with scalar a(1)^4 and factor id for "
                "a = c*id, c in {1, 2, -3}; refuted for a = d + id")


def test_criterion_7_affine_conditions():
    f = trace(ProductSym((identity_map(Q), identity_map(Q))))
    samples = default_probes(Q) + sample_elements(Q, SampleConfig(seed=7, count=10))

    def affine(a, b, big_a, big_b):
        p = Poly(1, {(0,): Q.from_int(b), (1,): Q.from_int(a)})
        q = Poly(1, {(0,): Q.from_int(big_b), (1,): Q.from_int(big_a)})
        return p, q

    p, q = affine(3, 0, 9, 0)
    assert check_pointwise(f, p, q, samples).verdict == HOLDS_ON_SAMPLE
    span = check_symmetrized(genpoly_from([f]), p, q, default_probes(Q)[:3])
    assert span.verdict == HOLDS_ON_SPAN
    bad = check_pointwise(f, *affine(3, 1, 9, 1), samples)
    assert bad.verdict == REFUTED
    assert bad.witnesses[0].input == Q.one() and bad.witnesses[0].difference == Q.from_int(6)
    zero_form = trace(MapOfProduct(zero_map(Q), 2))
    assert check_pointwise(zero_form, *affine(3, 1, 9, 0), samples).verdict == HOLDS_ON_SAMPLE
    announce(7, "affine necessary conditions all hold for (a,b,A,B)=(3,0,9,0) "
                "and the B != 0 contradiction is reported for b=1, B=1")


def test_criterion_8_degree_and_rank():
    assert degree_estimate(NORM, default_probes(Q2)) == 2
    assert degree_estimate(F28, default_probes(QT)) == 2

    square = lambda x: x * x
    translates = [Q.from_int(i) for i in range(4)]
    points = [Q.from_int(i) for i in range(1, 7)]
    assert variety_rank(square, translates, points, "add") == 3

    # Example 2.8 function on the documented translate set.  Frozen after
    # oracle confirmation: every multiplicative translate of f lies in the
    # 2-dimensional span of x -> x^2 and x -> 2x d(x), so the mult rank is
    # exactly 2; additive translates span {f, x, d(x), 1}, rank 4, which
    # exceeds the 3-dimensional variety of any classical quadratic c*x^2.
    ex_translates = [QT.element(s) for s in ("1", "t", "t+1", "t^2", "t-1")]
    ex_points = [QT.element(s) for s in ("t+2", "2*t", "t^2+1", "t^3-1", "t+5", "t^2-t")]
    mult_rank = variety_rank(F28, ex_translates, ex_points, "mult")
    add_rank = variety_rank(F28, ex_translates, ex_points, "add")
    assert mult_rank == 2
    assert add_rank == 4
    assert add_rank > 3

    oracle = Oracle(QT)
    p28 = genpoly_from([F28])
    for operation, expected in (("mult", 2), ("add", 4)):
        matrix = []
        for g in ex_translates:
            row = []
            for h in ex_points:
                arg = h * g if operation == "mult" else h + g
                row.append(oracle.eval_genpoly(p28, from_element(arg)))
            matrix.append(row)
        assert oracle.rank(matrix) == expected
    announce(8, "degree estimates are 2 for the norm and a(x^2); rank of x^2 "
                "is 3; Example-2.8 ranks frozen at mult=2, add=4 (>3), "
                "oracle-confirmed")


def test_criterion_9_oracle_cross_check():
    options = RunOptions(seed=5, oracle_check=True)
    checked_entries = 0
    for path in SESSIONS:
        session = parse_session(path.read_text())
        doc = run_session(session, options)
        assert doc.consistent, f"oracle mismatch in {path.name}"
        assert doc.exit_code in (0, 1), path.name
        golden = path.with_suffix(".oracle.json")
        assert emit_report(doc, "json") == golden.read_bytes(), f"report differs from {golden.name}"
        checked_entries += sum(1 for e in doc.entries if e.get("oracle_checked"))
    assert checked_entries >= 15
    announce(9, f"--oracle-check reproduces every engine value in the golden "
                f"corpus ({checked_entries} oracle-verified command entries, "
                f"exit 3 reserved for mismatches)")


def test_criterion_9b_mismatch_exits_three():
    session = parse_session(SESSIONS[0].read_text())
    doc = run_session(session, RunOptions(seed=5))
    doc.consistent = False
    assert doc.exit_code == 3


_AUDIT_SESSION = """
field F = Q(sqrt 2);
hom c = conj;
form N2 = product(id, c);
genpoly f = trace(N2);
"""


def _add_one(original):
    def faulty(*args):
        value = original(*args)
        return value + value.spec.one()
    return faulty


def _add_cube(original):
    def faulty(self, x):
        return original(self, x) + x * x * x
    return faulty


def _add_quartic(original):
    # a constant offset would cancel under the fourth difference, x^4 does not
    def faulty(f2):
        quartic = original(f2)
        return lambda x: quartic(x) + x ** 4
    return faulty


def _plus_one(original):
    return lambda *args: original(*args) + 1


def _times_two(original):
    # a constant offset would cancel under the difference operator, a
    # factor does not
    return lambda *args: original(*args) * 2


def _drop_independent(original):
    # the last basis element goes, claimed to be the first one
    def faulty(generators):
        basis, dropped = original(generators)
        return basis[:-1], dropped + [(basis[-1], (1,))]
    return faulty


# command -> (owner of an engine-only function, its name, fault); the
# oracle is never patched, so the audit must see the engine's new values.
_FAULTS = {
    "check f(x^2) == f(x)^2 on samples(3, seed=1)":
        (forms_module.GenMonomial, "__call__", _add_cube),
    "check f(x^2) == f(x)^2 on span(1, sqrt(2))": (forms_module, "_trace", _times_two),
    "check f(x^2) == f(x)^2 on span(1, sqrt(2), 1+sqrt(2))":
        (funceq_module, "q_basis", _drop_independent),
    "classify quadratic N2 with dictionary(id, c)":
        (funceq_module, "_quartic_trace", _add_quartic),
    "degree f": (forms_module.GenMonomial, "__call__", _add_cube),
    "rank f add translates(1, sqrt(2)) points(1, 2, 3)":
        (genpoly_module, "matrix_rank", _plus_one),
    "verify multiplicative c": (maps_module, "apply_map", _add_one),
    "polarize f at (1, sqrt(2))": (forms_module, "delta_many", _add_one),
}


@pytest.mark.parametrize("command", list(_FAULTS))
def test_criterion_9c_audit_catches_a_faulty_engine(monkeypatch, command):
    owner, name, fault = _FAULTS[command]
    session = parse_session(_AUDIT_SESSION + command + ";\n")
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    doc = run_session(session, RunOptions(seed=5, oracle_check=True))
    (entry,) = doc.entries
    assert entry.get("oracle_mismatches"), entry
    assert not doc.consistent and doc.exit_code == 3


def _other_variable(original):
    # the exponent field of the other variable of Q(t, u) read in place of v's
    return lambda self, v: original(self, 1 - v)


def _fields_swapped(original):
    return lambda self: {exps[::-1]: c for exps, c in original(self).items()}


@pytest.mark.parametrize("command,name,fault", [
    ("verify leibniz d", "derivative", _other_variable),
    ("verify multiplicative s", "as_dict", _fields_swapped),   # as substitute reads the keys
])
def test_criterion_9c_audit_catches_faulty_key_arithmetic(monkeypatch, command, name, fault):
    # the oracle decodes packed monomial keys with its own shifts, so a
    # fault in the engine's key arithmetic shows as a mismatch
    session = parse_session("field F = Q(t, u);\nhom s : t -> t+u, u -> 2*u;\n"
                            f"der d : t -> 1, u -> 0;\n{command};\n")
    monkeypatch.setattr(Poly, name, fault(getattr(Poly, name)))
    doc = run_session(session, RunOptions(seed=5, oracle_check=True))
    (entry,) = doc.entries
    assert entry["verdict"] == "pass" and entry.get("oracle_mismatches"), entry
    assert not doc.consistent and doc.exit_code == 3


def test_criterion_10_deterministic_reports():
    for path in SESSIONS:
        source = path.read_text()
        blobs = []
        for _ in range(2):
            doc = run_session(parse_session(source), RunOptions(seed=12))
            blobs.append(emit_report(doc, "json"))
        assert blobs[0] == blobs[1], f"nondeterministic report for {path.name}"
        golden = path.with_suffix(".json")
        assert blobs[0] == golden.read_bytes(), f"report differs from {golden.name}"
        parsed = json.loads(blobs[0])
        assert parsed["schema"] == "1"
    announce(10, f"byte-identical JSON reports across repeated runs of all "
                 f"{len(SESSIONS)} golden sessions with a fixed seed, equal to the "
                 f"committed reports")
