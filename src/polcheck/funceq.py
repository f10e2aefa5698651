"""Checking and classifying solutions of f(P(x)) = Q(f(x)).

Pointwise checks evaluate both sides exactly on samples.  Span checks
evaluate the same two side functions at each point c of the principal
lattice |c| <= D of a Q-basis of the generators, D the degree of their
difference, which is unisolvent for polynomials of degree D in c: this
certifies the identity on the whole rational span (the face |c| = D, if
the difference is homogeneous).  A refutation is the first lattice point
where the sides differ.  The classifiers execute the constructive
steps of the degree-two theory: the six-term quartic form, its trace
test, the auxiliary additive map a(x) = F2(x, 1), the quartic
constraint on a, the convolution identity, and the final factorization
into homomorphisms solved against a user-supplied dictionary.

The power identity f(x^n) = f(x)^n and the affine equation
f(a*x + b) = A*f(x) + B are instances of the general equation, so they
are asked as ordinary checks.  One special case with no such form stays
here: ``quartic_solve`` for f(x^2) = a(x)^4.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ArityTooLarge, DenominatorVanishes, DictionaryInsufficient, SpecMismatch, ValueTooLarge
from .fields import FieldElement, format_element, power_refusal
from .forms import (
    DEFAULT_ARITY_CAP,
    MAX_SPAN_ROWS,
    SymmetricForm,
    eval_form,
    lattice,
    trace,
)
from .genpoly import GenPoly
from .linalg import q_basis, solve
from .maps import AdditiveMap, Identity, apply_map
from .polys import Poly

HOLDS_ON_SAMPLE = "HOLDS_ON_SAMPLE"
HOLDS_ON_SPAN = "HOLDS_ON_SPAN"
REFUTED = "REFUTED"
NOT_APPLICABLE = "NOT_APPLICABLE"
INCONCLUSIVE = "INCONCLUSIVE"


class Witness:
    """One violating (or skipped) input with both side values."""

    __slots__ = ("input", "lhs", "rhs", "difference", "note")

    def __init__(self, input: object, lhs: FieldElement | None, rhs: FieldElement | None,
                 difference: FieldElement | None, note: str = ""):
        self.input = input  # FieldElement or tuple of FieldElements
        self.lhs = lhs
        self.rhs = rhs
        self.difference = difference
        self.note = note

    def describe(self) -> str:
        if isinstance(self.input, tuple):
            where = "(" + ", ".join(format_element(a) for a in self.input) + ")"
        else:
            where = format_element(self.input)
        if self.note and self.lhs is None:
            return f"x = {where}: {self.note}"
        return (f"x = {where}, lhs = {format_element(self.lhs)}, "
                f"rhs = {format_element(self.rhs)}, diff = {format_element(self.difference)}")


class Classification:
    """Structure recovered by a successful classification."""

    __slots__ = ("f_at_1", "factors", "case_tag", "extras")

    def __init__(self, f_at_1: FieldElement | None = None, factors: tuple[AdditiveMap, ...] = (),
                 case_tag: str = "", extras: tuple[tuple[str, str], ...] = ()):
        self.f_at_1 = f_at_1
        self.factors = factors
        self.case_tag = case_tag
        self.extras = extras

    def factor_descriptors(self) -> tuple[str, ...]:
        return tuple(m.describe() for m in self.factors)


class EquationReport:
    """A verdict with its evidence.  ``rows`` holds every (input, lhs,
    rhs) triple the check compared, an input of a lattice point being its
    coordinates on the Q-``basis``, so the values can be audited without
    evaluating the engine again.  A span check also keeps the generators
    it ``dropped``, each with its rational coefficients on the basis."""

    __slots__ = ("verdict", "witnesses", "classification", "sample_description", "detail",
                 "rows", "basis", "dropped")

    def __init__(self, verdict: str, witnesses: tuple[Witness, ...] = (),
                 classification: Classification | None = None, sample_description: str = "",
                 detail: str = "", rows: tuple[tuple, ...] = (), basis: tuple = (),
                 dropped: tuple = ()):
        self.verdict = verdict
        self.witnesses = witnesses
        self.classification = classification
        self.sample_description = sample_description
        self.detail = detail
        self.rows = rows
        self.basis = basis
        self.dropped = dropped
        if self.verdict == REFUTED:
            real = [w for w in self.witnesses if w.difference is not None and not w.difference.is_zero()]
            if not real:
                raise SpecMismatch("a refutation must carry a nonzero witness")


def degree_precheck(f_deg: int, p: Poly, q: Poly) -> str | None:
    """The equation forces deg(P) = deg(Q): both sides are generalized
    polynomials of degrees f_deg*deg(P) and f_deg*deg(Q).  Returns why
    the check fails, or None when the degrees agree."""
    if f_deg < 1:
        raise SpecMismatch("degree precheck needs f of degree at least 1")
    dp, dq = p.total_degree(), q.total_degree()
    if dp == dq:
        return None
    return (f"degree precheck failed: both sides would be generalized polynomials of "
            f"degrees {f_deg}*{dp} and {f_deg}*{dq}")


def evaluate(p: Poly, x: FieldElement) -> FieldElement:
    """P(x) for a polynomial P in one unknown, by Horner's rule over its
    nonzero terms, highest degree first: a gap of g degrees is one
    ``x ** g``."""
    terms = sorted(p.terms.items(), reverse=True)
    if not terms:
        return x.spec.zero()
    (k, total), *rest = terms  # in one unknown a key is its exponent
    for j, c in rest:
        total = total * _power(x, k - j) + c
        k = j
    return total * _power(x, k) if k else total


def _power(x: FieldElement, k: int) -> FieldElement:
    """x ** k, refused with ValueTooLarge by the parser's rule for powers
    when it repeats products: a square is one product of two values, as
    is every other step of the evaluation."""
    if k > 2 and (refusal := power_refusal(x, k)):
        raise ValueTooLarge(refusal)
    return x ** k


def check_values(lhs_fn, rhs_fn, samples: list[FieldElement],
                 sample_description: str = "") -> EquationReport:
    """Shared pointwise core: evaluate both sides exactly at each sample."""
    witnesses = []
    skipped = []
    rows = []
    for x in samples:
        try:
            lhs = lhs_fn(x)
            rhs = rhs_fn(x)
        except DenominatorVanishes as exc:
            skipped.append(Witness(x, None, None, None, note=f"skipped: {exc}"))
            continue
        rows.append((x, lhs, rhs))
        if lhs != rhs:  # canonical forms: equal values are equal structures
            witnesses.append(Witness(x, lhs, rhs, lhs - rhs))
    note = f"; {len(skipped)} sample(s) skipped (denominator vanished)" if skipped else ""
    description = sample_description + note
    if witnesses:
        return EquationReport(REFUTED, tuple(witnesses) + tuple(skipped),
                              sample_description=description, rows=tuple(rows))
    if not rows:
        return EquationReport(INCONCLUSIVE, tuple(skipped), sample_description=description,
                              detail="every sample was skipped")
    return EquationReport(HOLDS_ON_SAMPLE, tuple(skipped), sample_description=description,
                          rows=tuple(rows))


def _sides(f, p: Poly, q: Poly):
    """The two sides of the equation as functions: x -> f(P(x)) and
    x -> Q(f(x))."""
    return (lambda x: f(evaluate(p, x))), (lambda x: evaluate(q, f(x)))


def check_pointwise(f, p: Poly, q: Poly, samples: list[FieldElement],
                    sample_description: str = "") -> EquationReport:
    """Evaluate f(P(x)) - Q(f(x)) exactly at each sample."""
    if not samples:
        raise SpecMismatch("samples must be nonempty")
    return check_values(*_sides(f, p, q), samples, sample_description)


def _lattice_rows(sides, zero: FieldElement, basis: list[FieldElement], degree: int,
                  homogeneous: bool):
    """The rows (c, lhs, rhs) of the two sides at the ``lattice`` points,
    up to the first where they differ, and the ``Witness`` there (else
    None).  On a homogeneous difference of degree D a side's value at x
    is its D-additive form at (x, ..., x), the witness's input."""
    rows = []
    for c, x in lattice(zero, basis, degree, homogeneous):
        lhs, rhs = (side(x) for side in sides)
        rows.append((c, lhs, rhs))
        if lhs != rhs:  # canonical forms: equal values are equal structures
            return rows, Witness((x,) * degree if homogeneous else x, lhs, rhs, lhs - rhs)
    return rows, None


def check_symmetrized(f: GenPoly, p: Poly, q: Poly,
                      generators: list[FieldElement]) -> EquationReport:
    """Span certificate for f(P(x)) = Q(f(x)) on the rational span of the
    generators.

    The span is that of its greedy Q-basis b_1..b_r (``q_basis``): the
    generators in order, less each one that is a rational combination of
    those kept before it.  On x = sum c_i*b_i every additive map is
    Q-linear, so the difference g(c) = f(P(x)) - Q(f(x)) is a polynomial
    in c of total degree at most D = deg f * max(deg P, deg Q).  The
    principal lattice {c >= 0, |c| <= D} is unisolvent for such
    polynomials (Nicolaides, 1972; Chung and Yao, 1977), so g vanishes on
    the span exactly when the sides agree at its C(r+D, D) points, each
    side run once per point.  When f has one component and P = a*x^k,
    Q = lambda*x^k with k >= 1, g is homogeneous of degree D and the
    C(r+D-1, D) points of the face |c| = D are enough; D is the arity.
    The rows are (c, lhs, rhs), in ``lattice`` order up to the first
    point x where the sides differ; a refutation's one witness is x, or
    (x, ..., x) on the face of a homogeneous difference, where each
    side's value is its D-additive form's.  The rows start with one
    (name, generator) pair per generator left out, whose coefficients on
    the basis ``dropped`` records for the audit.

    Raises ArityTooLarge when D passes DEFAULT_ARITY_CAP or the points
    pass MAX_SPAN_ROWS, before any evaluation.
    """
    dp, dq = p.total_degree(), q.total_degree()
    arity = f.degree * max(dp, dq)
    if arity > DEFAULT_ARITY_CAP:
        raise ArityTooLarge(f"span check needs arity {arity}, cap is {DEFAULT_ARITY_CAP}")
    if not generators:
        raise SpecMismatch("generators must be nonempty")
    if any(g.spec != f.spec for g in generators):
        raise SpecMismatch("span generator outside the field of f")
    basis, dropped = q_basis(generators)
    homogeneous = len(f.components) == len(p.terms) == len(q.terms) == 1 and dp == dq >= 1
    r = len(basis)
    # the points of the face |c| = D alone, or of every |c| <= D
    count = math.comb(r + arity - 1, arity) if homogeneous and arity else math.comb(r + arity, arity)
    if count > MAX_SPAN_ROWS:
        raise ArityTooLarge(f"span check needs {count} rows on {r} generators, "
                            f"budget is {MAX_SPAN_ROWS}")
    rows, witness = _lattice_rows(_sides(f, p, q), f.spec.zero(), basis, arity, homogeneous)
    shape = f"arity {arity}" if homogeneous else f"order 0..{arity}"
    description = f"span generators ({', '.join(map(format_element, generators))}); "
    if dropped:
        description += f"Q-basis ({', '.join(map(format_element, basis))}); "
    description += f"{count} tuple(s) of {shape}"
    claims = [(f"generator {format_element(g)} on the Q-basis", g) for g, _ in dropped]
    verdict, witnesses = (REFUTED, (witness,)) if witness else (HOLDS_ON_SPAN, ())
    return EquationReport(verdict, witnesses, sample_description=description,
                          rows=tuple(claims + rows), basis=tuple(basis), dropped=tuple(dropped))


def _quartic_trace(f2: SymmetricForm):
    """x -> 3*(f(x^2) - f(x)^2) for the trace f of F2: the trace of the
    six-term quartic form."""
    f = trace(f2)
    return lambda x: 3 * (f(x * x) - f(x) ** 2)


def _solve_against_dictionary(values, dictionary, probes):
    """Exact coefficients c_i with sum c_i phi_i(p) = values[p] on probes."""
    matrix = [[apply_map(phi, p) for phi in dictionary] for p in probes]
    rhs = [values[p] for p in probes]
    return solve(matrix, rhs)


def classify_quadratic_square(f2: SymmetricForm, dictionary: list[AdditiveMap],
                              probes: list[FieldElement]) -> EquationReport:
    """Run the constructive classification of quadratic solutions of
    f(x^2) = f(x)^2, where f is the trace of ``f2``.

    Steps: (1) build the six-term quartic form; (2) test its trace on
    the face |c| = 4 of the probes' Q-basis (``lattice``); the first
    point x where it is nonzero gives the witness (x, x, x, x);
    (3) read f(1) = F2(1, 1) and branch on 0 vs 1; (4) the zero branch
    verifies f vanishes on the probes; (5) the unit branch forms
    a(x) = F2(x, 1), verifies the quartic constraint on a and the
    convolution identity A(xy) = a(x)A(y) + a(y)A(x) for every probe
    choice of z*, then solves a against the dictionary; (6) emits the
    factor pair with a product certificate re-verified on the probes.
    """
    if f2.arity != 2:
        raise SpecMismatch("classification applies to bi-additive forms")
    spec = f2.spec
    one = spec.one()
    probes = list(probes)
    if one not in probes:
        probes = [one] + probes
    description = f"probes ({', '.join(format_element(p) for p in probes)})"

    basis, _ = q_basis(probes)

    def report(verdict, witnesses=(), **extra) -> EquationReport:
        return EquationReport(verdict, witnesses, sample_description=description,
                              rows=tuple(rows), basis=tuple(basis), **extra)

    # the quartic trace's values, each compared with 0, and then the certificate
    zero, quartic = spec.zero(), _quartic_trace(f2)
    rows, witness = _lattice_rows((quartic, lambda x: zero), zero, basis, 4, True)
    if witness:
        return report(REFUTED, (witness,),
                      detail="six-term quartic form is nonzero at (x, x, x, x) for x in the "
                             "probes' span")

    f = trace(f2)
    f_at_1 = f(one)
    if f_at_1.is_zero():
        for p in probes:
            value = f(p)
            if not value.is_zero():
                return report(REFUTED, (Witness(p, value, value.spec.zero(), value),),
                              detail="f(1) = 0 but f is not identically zero on probes")
        classification = Classification(f_at_1=f_at_1, factors=(), case_tag="zero function")
        return report(HOLDS_ON_SAMPLE, classification=classification)
    # f(1) = 1 from here: step 2 tested F4(1,1,1,1) = 3 f(1)(1 - f(1)) = 0

    @functools.cache
    def a_of(x: FieldElement) -> FieldElement:
        return eval_form(f2, [x, one])

    a_values = {p: a_of(p) for p in probes}

    # quartic constraint on a: -a(x^4) + a(x^2)^2 + 4 a(x)^2 a(x^2) - 4 a(x)^4 = 0
    for p in probes:
        ax, ax2, ax4 = a_of(p), a_of(p * p), a_of(p ** 4)
        value = -ax4 + ax2 * ax2 + 4 * (ax * ax) * ax2 - 4 * ax ** 4
        if not value.is_zero():
            return report(REFUTED, (Witness(p, value, value.spec.zero(), value),),
                          detail="quartic constraint on a(x) = F2(x, 1) fails")

    # convolution identity for every choice of z*
    for z_star in probes:
        az = a_of(z_star)

        def conv(x):
            return a_of(x * z_star) - az * a_of(x)

        for x in probes:
            for y in probes:
                lhs = conv(x * y)
                rhs = a_of(x) * conv(y) + a_of(y) * conv(x)
                if lhs != rhs:
                    return report(REFUTED, (Witness((x, y, z_star), lhs, rhs, lhs - rhs),),
                                  detail="convolution identity fails")

    coeffs = _solve_against_dictionary(a_values, dictionary, probes)
    residual = None
    if coeffs is not None:
        for p in probes:
            total = p.spec.zero()
            for c, phi in zip(coeffs, dictionary):
                total = total + c * apply_map(phi, p)
            if total != a_values[p]:
                residual = a_values[p] - total
                coeffs = None
                break
    if coeffs is None:
        raise DictionaryInsufficient(
            "a(x) = F2(x, 1) is not a combination of the supplied homomorphisms on the probes",
            residual=residual)

    nonzero = [(c, phi) for c, phi in zip(coeffs, dictionary) if not c.is_zero()]
    half = one.spec.from_fraction
    if len(nonzero) == 1 and nonzero[0][0].is_one():
        phi = nonzero[0][1]
        factors = (phi, phi)
        case_tag = "single homomorphism squared"
    elif (len(nonzero) == 2
          and nonzero[0][0] == half(Fraction(1, 2))
          and nonzero[1][0] == half(Fraction(1, 2))):
        factors = (nonzero[0][1], nonzero[1][1])
        case_tag = "two independent homomorphisms"
    else:
        combo = " + ".join(f"{format_element(c)}*{phi.describe()}" for c, phi in nonzero)
        return report(INCONCLUSIVE,
                      detail=f"a decomposed as {combo}, which is not a half-sum or a single "
                             f"homomorphism; the probe set may be too small")

    phi1, phi2 = factors
    certificate = []
    for p in probes:
        lhs = f(p)
        rhs = f_at_1 * apply_map(phi1, p) * apply_map(phi2, p)
        if lhs != rhs:
            return report(REFUTED, (Witness(p, lhs, rhs, lhs - rhs),),
                          detail="factor certificate failed to reproduce f on a probe")
        certificate.append((p, lhs, rhs))
    rows += certificate
    classification = Classification(
        f_at_1=f_at_1, factors=factors, case_tag=case_tag,
        extras=(("certificate", "f(x) = f(1)*phi1(x)*phi2(x) re-verified on probes"),))
    return report(HOLDS_ON_SAMPLE, classification=classification)


def quartic_solve(a: AdditiveMap, probes: list[FieldElement],
                  dictionary: list[AdditiveMap] | None = None) -> EquationReport:
    """Solve f(x^2) = a(x)^4 for quadratic f given the additive map a.

    Builds the forced candidate
    f(x) = 3/2 a(1)^2 a(x)^2 - 1/2 a(1)^3 a(x^2), verifies the
    necessary identity a(x)^4 = 3/2 a(1)^2 a(x^2)^2 - 1/2 a(1)^3 a(x^4)
    and f(x^2) = a(x)^4 on the probes, and classifies
    f = a(1)^4 * phi^2 when a is proportional to a dictionary
    homomorphism (default dictionary: the identity)."""
    spec = a.spec
    one = spec.one()
    a1 = apply_map(a, one)
    c32 = spec.from_fraction(Fraction(3, 2))
    c12 = spec.from_fraction(Fraction(1, 2))
    description = f"probes ({', '.join(format_element(p) for p in probes)})"

    def candidate(x: FieldElement) -> FieldElement:
        ax = apply_map(a, x)
        ax2 = apply_map(a, x * x)
        return c32 * a1 * a1 * ax * ax - c12 * a1 ** 3 * ax2

    for x in probes:
        ax = apply_map(a, x)
        ax2 = apply_map(a, x * x)
        ax4 = apply_map(a, x ** 4)
        lhs = ax ** 4
        rhs = c32 * a1 * a1 * ax2 * ax2 - c12 * a1 ** 3 * ax4
        if lhs != rhs:
            return EquationReport(
                REFUTED, (Witness(x, lhs, rhs, lhs - rhs),),
                sample_description=description,
                detail="necessary identity on a fails")
        f_lhs = candidate(x * x)
        if f_lhs != lhs:
            return EquationReport(
                REFUTED, (Witness(x, f_lhs, lhs, f_lhs - lhs),),
                sample_description=description,
                detail="candidate f does not satisfy f(x^2) = a(x)^4")

    dictionary = list(dictionary) if dictionary else [Identity(spec)]
    for phi in dictionary:
        phi1 = apply_map(phi, one)
        if phi1.is_zero():
            continue
        scale = a1 / phi1
        if all(apply_map(a, p) == scale * apply_map(phi, p) for p in probes):
            classification = Classification(
                f_at_1=a1 ** 4, factors=(phi, phi),
                case_tag="quartic: f = a(1)^4 * phi^2",
                extras=(("scalar a(1)^4", format_element(a1 ** 4)),))
            return EquationReport(HOLDS_ON_SAMPLE, classification=classification,
                                  sample_description=description)
    raise DictionaryInsufficient(
        "a is not proportional to any supplied homomorphism on the probes")
