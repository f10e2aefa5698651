"""Polynomial gcds: GCDHEU over Q, the coprimality certificate modulo a
prime, and Euclid and the PRS behind them."""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polcheck import polys
from polcheck.errors import ValueTooLarge
from polcheck.fields import FieldSpec, QuadRat, is_squarefree, parse_element, substitute
from polcheck.polys import (
    CERT_PRIMES,
    EXP_BITS,
    Poly,
    coprime_mod,
    evaluation_points,
    exact_div,
    exponents,
    gcd_cofactors,
    monic,
    pack,
    poly_gcd,
    sqrt_mod,
)

P0, P1 = CERT_PRIMES[:2]
QTU = FieldSpec.ratfunc(FieldSpec.rationals(), ["t", "u"])


def upoly(*coeffs) -> Poly:
    """Polynomial in one variable, low degree first."""
    return Poly(1, {(k,): c if isinstance(c, QuadRat) else Fraction(c)
                    for k, c in enumerate(coeffs)})


def quad(a, b, d) -> QuadRat:
    return QuadRat(Fraction(a), Fraction(b), d)


def euclid_gcd(f: Poly, g: Poly) -> Poly:
    """poly_gcd with GCDHEU and the certificate switched off: Euclid and
    the PRS only."""
    with mock.patch.object(polys, "_heuristic", lambda f, g: None), \
            mock.patch.object(polys, "_certified_one", lambda f, g: None):
        return poly_gcd(f, g)


def _unreachable(*args):
    raise AssertionError("this gcd reached Euclid or the PRS")


@contextmanager
def certificate_only():
    """Switch GCDHEU off, and fail if poly_gcd reaches Euclid or the PRS,
    at any depth."""
    with mock.patch.object(polys, "_heuristic", lambda f, g: None), \
            mock.patch.object(polys, "_gcd_univar", _unreachable), \
            mock.patch.object(polys, "_gcd_prs", _unreachable):
        yield


# -- choosing a prime --------------------------------------------------------

def test_prime_dividing_a_leading_numerator_is_skipped():
    # modulo P0 both images lose their factor P0*t + 1 and look coprime
    factor = upoly(1, P0)
    f, g = factor * upoly(1, 1), factor * upoly(2, 1)
    assert coprime_mod(f, g, {0}, P0, None) is None
    assert coprime_mod(f, g, {0}, P1, None) is False
    assert poly_gcd(f, g) == monic(factor) == upoly(Fraction(1, P0), 1)
    f, g = upoly(1, P0), upoly(2, 1)
    assert coprime_mod(f, g, {0}, P0, None) is None
    with certificate_only():
        assert poly_gcd(f, g) == upoly(1)


@pytest.mark.parametrize("f,d", [
    (upoly(Fraction(1, P0), 1), None),
    (upoly(Fraction(P0 + 1, 3 * P0), Fraction(1, 2)), None),
    (upoly(quad(1, Fraction(1, P0), 2), quad(1, 0, 2)), 2),
])
def test_prime_dividing_a_denominator_is_skipped(f, d):
    g = upoly(2, 1) if d is None else upoly(quad(2, 0, d), quad(1, 0, d))
    verdicts = [coprime_mod(f, g, {0}, p, d) for p in CERT_PRIMES]
    assert verdicts[0] is None
    assert next(v for v in verdicts if v is not None) is True
    with certificate_only():
        assert poly_gcd(f, g) == upoly(1 if d is None else quad(1, 0, d))


def test_quadratic_coefficient_reduces_through_one_inverse():
    root = sqrt_mod(2, P0)
    c = quad(Fraction(1, 6), Fraction(3, 4), 2)   # (2 + 9*sqrt(2))/12
    assert (c.p, c.q, c.c) == (2, 9, 12)
    image = polys._reduce_mod(upoly(c, quad(-1, 0, 2)), P0, root, 2)
    # in one variable a packed key is the exponent itself
    assert image == {0: (2 + 9 * root) * pow(12, -1, P0) % P0, 1: P0 - 1}
    # sqrt(2) goes to a root of t^2 - 2, so the reduction respects products
    assert root * root % P0 == 2
    assert polys._reduce_mod(upoly(c * c), P0, root, 2)[0] == image[0] ** 2 % P0


def test_non_residue_radicand_moves_on_to_the_next_prime():
    assert sqrt_mod(7, P0) is None and sqrt_mod(7, P1) is not None
    f = upoly(quad(0, 1, 7), quad(1, 0, 7))   # t + sqrt(7)
    g = upoly(quad(1, 0, 7), quad(1, 0, 7))   # t + 1
    assert coprime_mod(f, g, {0}, P0, 7) is None
    assert coprime_mod(f, g, {0}, P1, 7) is True
    with certificate_only():
        assert poly_gcd(f, g) == upoly(quad(1, 0, 7))


def test_every_prime_rejected_falls_back_to_euclid(monkeypatch):
    monkeypatch.setattr(polys, "_heuristic", lambda f, g: None)
    monkeypatch.setattr(polys, "CERT_PRIMES", (P0,))
    calls = []
    euclid = polys._gcd_univar
    monkeypatch.setattr(polys, "_gcd_univar", lambda *args: calls.append(args) or euclid(*args))
    sqrt7 = upoly(quad(0, 1, 7), quad(1, 0, 7))
    factor = upoly(Fraction(1, P0), 1)
    cases = [
        (upoly(Fraction(1, P0), 1), upoly(2, 1), upoly(1)),   # P0 divides a denominator
        (factor * upoly(1, 1), factor * upoly(3, 1), factor),
        (upoly(1, P0), upoly(2, 1), upoly(1)),               # P0 divides the leading numerator
        (sqrt7, upoly(quad(1, 0, 7), quad(1, 0, 7)), upoly(quad(1, 0, 7))),  # 7 is no square mod P0
        (sqrt7 * upoly(quad(1, 0, 7), quad(1, 0, 7)), sqrt7 * sqrt7, sqrt7),
    ]
    for f, g, expected in cases:
        assert poly_gcd(f, g) == expected
    assert len(calls) == len(cases)


def test_every_small_radicand_has_a_usable_prime():
    for p in CERT_PRIMES:
        assert p < 2 ** 30 and p % 2 and all(p % q for q in range(3, 32769, 2))
    assert any(p % 4 == 1 for p in CERT_PRIMES)
    radicands = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree(d)]
    assert -1 in radicands and len(radicands) == 37
    for d in radicands:
        roots = [(p, sqrt_mod(d, p)) for p in CERT_PRIMES]
        usable = [(p, r) for p, r in roots if r is not None]
        assert usable, d
        assert all(r * r % p == d % p for p, r in usable)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 257])
def test_sqrt_mod_finds_exactly_the_squares(p):
    squares = {x * x % p for x in range(1, p)}
    for n in range(-p, 2 * p):
        r = sqrt_mod(n, p)
        if n % p in squares:
            assert r is not None and r * r % p == n % p
        else:
            assert r is None


# -- soundness: a common factor is never certified away -----------------------

def two_variable(text: str) -> Poly:
    return QTU.element(text).payload[0]


def test_nontrivial_gcd_is_never_reported_as_one():
    # the leading coefficient in t of the common factor vanishes at the
    # point where u is set modulo P0, so the images there look coprime
    point_u = evaluation_points(2, P0)[1]
    factor = two_variable(f"(u-{point_u})*t+1")
    cases = [
        (upoly(1, 1, 1), upoly(2, 1), upoly(-3, 0, 1)),
        (upoly(1, P0), upoly(1, 1), upoly(2, 1)),
        (upoly(quad(0, 1, 2), 1), upoly(quad(1, 0, 2), 1), upoly(quad(3, 0, 2), 1)),
        (upoly(quad(0, 1, -1), quad(1, 0, -1)), upoly(quad(1, 0, -1), quad(1, 0, -1)),
         upoly(quad(-1, 0, -1), quad(1, 0, -1))),
        (factor, two_variable("t+u"), two_variable("t+2*u+1")),
        (two_variable("t*u+1"), two_variable("t^2-u"), two_variable("u^2+t+3")),
    ]
    for h, a, b in cases:
        f, g = a * h, b * h
        shared = f.vars_used() & g.vars_used()
        d = getattr(next(iter(f.terms.values())), "d", None)
        assert all(coprime_mod(f, g, shared, p, d) is not True for p in CERT_PRIMES)
        gcd = poly_gcd(f, g)
        assert not gcd.is_const() and gcd == monic(h)
    f, g = factor * two_variable("t+u"), factor * two_variable("t+2*u+1")
    assert coprime_mod(f, g, {0, 1}, P0, None) is None


def test_two_variable_coprime_pair_is_certified_quickly(time_limit):
    # the numerator and denominator of a sample value on Q(t, u); the
    # pseudo-remainder sequence alone ran for minutes on this pair
    f = two_variable("-t^4*(5*t^4-3)^2*(u+1)^4*(5*u^2-3)^2/81")
    g = two_variable("((3*t*u^2+3*t*u-1)*(3*t^4*u+3*t^4+3*t^2*u+3*t^2-1))^2/81")
    assert (len(f.terms), len(g.terms)) == (27, 48)
    with time_limit(5, "poly_gcd"):
        assert poly_gcd(f, g) == Poly.const(2, Fraction(1))


def test_variables_that_are_not_shared_need_no_prime():
    with certificate_only():
        assert poly_gcd(two_variable("t^2+1"), two_variable("u^3-u+1")) == Poly.const(2, Fraction(1))


def test_coefficients_of_other_kinds_take_the_euclid_path():
    spec = FieldSpec.ratfunc(FieldSpec.rationals(), ["t"])
    t = spec.var("t")
    f = Poly(1, {(1,): spec.one(), (0,): t})       # X + t over Q(t)
    g = Poly(1, {(1,): spec.one(), (0,): t + 1})
    assert polys._certified_one(f, g) is None
    assert poly_gcd(f, g) == Poly.const(1, spec.one())


# -- agreement with Euclid and the PRS ---------------------------------------

_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _poly(nvars: int, coeffs, max_terms: int):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return (st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms)
            .map(lambda terms: Poly(nvars, terms)).filter(lambda p: not p.is_zero()))


@pytest.mark.parametrize("nvars,d", [(1, None), (2, None), (1, 2), (1, -1)],
                         ids=["Q(t)", "Q(t,u)", "Q(sqrt 2)(t)", "Q(sqrt -1)(t)"])
def test_gcd_agrees_with_euclid_on_planted_factors(nvars, d):
    coeffs = _RATIONALS if d is None else st.builds(QuadRat, _RATIONALS, _RATIONALS, st.just(d))
    max_terms = 3 if nvars == 2 else 4

    @settings(max_examples=60, deadline=2000)
    @given(_poly(nvars, coeffs, max_terms), _poly(nvars, coeffs, max_terms),
           _poly(nvars, coeffs, max_terms))
    def agrees(a, b, h):
        f, g = a * h, b * h
        gcd = poly_gcd(f, g)
        assert gcd == euclid_gcd(f, g)
        exact_div(gcd, h)  # the planted factor divides the gcd

    agrees()


# -- GCDHEU: a proved gcd with its cofactors --------------------------------

def test_planted_two_variable_pair_is_quick(time_limit):
    # the coprime pair above times a planted factor; the PRS found no
    # result for it in minutes
    f = two_variable("-t^4*(5*t^4-3)^2*(u+1)^4*(5*u^2-3)^2/81")
    g = two_variable("((3*t*u^2+3*t*u-1)*(3*t^4*u+3*t^4+3*t^2*u+3*t^2-1))^2/81")
    h = two_variable("t*u+2*t+1")
    with time_limit(1, "poly_gcd"), \
            mock.patch.object(polys, "_gcd_univar", _unreachable), \
            mock.patch.object(polys, "_gcd_prs", _unreachable):
        assert poly_gcd(f * h, g * h) == monic(h)
        gcd, cf, cg = gcd_cofactors(f * h, g * h)
    assert gcd * cf == f * h and gcd * cg == g * h


def test_integer_polynomials_get_integer_cofactors():
    f, g = two_variable("6*t^2*u-6*u"), two_variable("4*t^2+8*t+4")   # 6u(t-1)(t+1), 4(t+1)^2
    gcd, cf, cg = gcd_cofactors(f, g)
    assert gcd == two_variable("2*t+2")   # the gcd over Z, content included
    assert all(type(c) is int for p in (gcd, cf, cg) for c in p.terms.values())
    assert gcd * cf == f and gcd * cg == g


def test_every_xi_meets_the_theorem_bound(monkeypatch):
    # SymPy's first xi, 99*sqrt(B) for B = 2*min(|f|, |g|) + 29, would be
    # below the bound for these heights
    images = []
    evaluate = polys._evaluate
    monkeypatch.setattr(polys, "_evaluate", lambda p, v, xi: images.append((p, xi)) or evaluate(p, v, xi))
    h = two_variable("1000003*t*u-999999*u+7")
    f = h * two_variable("123457*t^2-u+98765")
    g = h * two_variable("-200003*u^2+t+1")
    assert poly_gcd(f, g) == monic(h)
    assert images and len(images) % 2 == 0
    for (a, xi), (b, xi_b) in zip(images[::2], images[1::2]):
        norms = (max(abs(c) for c in p.terms.values()) for p in (a, b))
        assert xi == xi_b and xi >= 2 * min(norms) + 2


def test_without_a_successful_xi_the_gcd_falls_back(monkeypatch):
    monkeypatch.setattr(polys, "HEU_TRIES", 0)
    h = two_variable("t*u+2*t+1")
    f, g = h * two_variable("t-u"), h * two_variable("2*t^2/3+u")
    gcd, cf, cg = gcd_cofactors(f, g)
    assert gcd == monic(h) and gcd * cf == f and gcd * cg == g


@pytest.mark.parametrize("kind", ["int", "Fraction"])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_cofactors_are_exact_and_the_gcd_is_euclids(nvars, kind):
    operand = _poly(nvars, st.integers(-4, 4) if kind == "int" else _RATIONALS, 3)

    @settings(max_examples=40, deadline=None)
    @given(operand, operand, operand)
    def agrees(a, b, h):
        f, g = a * h, b * h
        gcd, cf, cg = gcd_cofactors(f, g)
        assert gcd * cf == f and gcd * cg == g
        assert monic(gcd) == euclid_gcd(f, g)
        exact_div(gcd, h)  # the planted factor divides the gcd

    agrees()


# -- packed monomial keys ---------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 2 ** 20)] * n), min_size=2, max_size=2)))
def test_packed_keys_decode_order_and_add_like_their_exponents(pair):
    a, b = pair
    nvars = len(a)
    ka, kb = pack(a), pack(b)
    assert exponents(ka, nvars) == a and exponents(kb, nvars) == b
    # integer order is graded-lex order
    assert (ka < kb) == ((sum(a), a) < (sum(b), b))
    # a product of monomials adds their keys
    total = tuple(x + y for x, y in zip(a, b))
    assert pack(total) == ka + kb
    product = Poly(nvars, {a: 2}) * Poly(nvars, {b: 3})
    assert product.terms == {pack(total): 6} and product.as_dict() == {total: 6}


def test_degree_past_the_key_width_raises_in_several_variables():
    top = 2 ** EXP_BITS
    t = Poly.variable(2, 0, 1)
    big = Poly(2, {(top - 1, 0): 1})   # the largest exponent that fits
    assert big.as_dict() == {(top - 1, 0): 1} and big.total_degree() == top - 1
    assert (big * Poly.const(2, 3)).as_dict() == {(top - 1, 0): 3}
    for overflow in (lambda: big * t, lambda: t ** top, lambda: Poly(2, {(top // 2, top // 2): 1}),
                     lambda: (big + t).derivative(0) * t ** 2):
        with pytest.raises(ValueTooLarge, match=f"reaches 2\\^{EXP_BITS}"):
            overflow()
    # t^(10^8)*u^10000 at t -> t^(10^7) would have degree 10^15
    e, image = QTU.element("t^10000*u") ** 10000, QTU.element("t^10000") ** 1000
    with pytest.raises(ValueTooLarge, match=f"reaches 2\\^{EXP_BITS}"):
        substitute(e, {"t": image, "u": QTU.element("u")})
    # one variable has no fields to overflow
    one_var = Poly.variable(1, 0, 1) ** top
    assert one_var.as_dict() == {(top,): 1} and (one_var * one_var).total_degree() == 2 * top


def test_degree_past_the_key_width_is_located_in_an_element(monkeypatch):
    # with 8-bit fields the product t^200*t^100 passes the width
    monkeypatch.setattr(polys, "EXP_BITS", 8)
    monkeypatch.setattr(polys, "_MASK", 255)
    assert parse_element("t^200*u^55", QTU).payload[0].as_dict() == {(200, 55): 1}
    with pytest.raises(ValueTooLarge, match=r"total degree 300 .* 2\^8 at line 1, column 1"):
        parse_element("t^200*t^100", QTU)


# -- the Poly invariant: arithmetic builds its results unchecked -------------

_COEFFS = {
    "int": st.integers(-3, 3),
    "Fraction": _RATIONALS,
    "QuadRat": st.builds(QuadRat, st.integers(-2, 2), st.integers(-2, 2), st.just(2)),
}


def _holds_invariant(p: Poly, nvars: int) -> None:
    assert all(type(e) is int and e >= 0 for e in p.terms)
    assert all(p.terms.values())
    decoded = p.as_dict()
    assert all(type(e) is tuple and len(e) == nvars for e in decoded)
    checked = Poly(nvars, decoded)
    assert p == checked and hash(p) == hash(checked)
    assert list(checked.terms) == list(p.terms) and list(checked.as_dict()) == list(decoded)


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_arithmetic_results_hold_the_invariant(nvars, kind):
    coeffs = _COEFFS[kind]
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), coeffs, max_size=4)
    operands = terms.map(lambda t: Poly(nvars, t))
    t = Poly.variable(nvars, 0, 1)
    one = Poly.const(nvars, 1)

    @settings(max_examples=40, deadline=None)
    @given(operands, operands, coeffs.filter(bool), st.integers(0, 3), st.integers(0, nvars - 1))
    def holds(a, b, c, k, v):
        results = [
            a + b, a - b, a * b, -a, a - a, a + -a, (a + b) * (a - b),
            (t + one) * (t - one), a.scale(c), a.scale(c - c), a.divscale(c), a ** k,
            Poly.const(nvars, c), Poly.const(nvars, c - c), a.derivative(v),
            a.map_coeffs(lambda x: x * c), a.map_coeffs(lambda x: x - c),
        ]
        for p in results:
            _holds_invariant(p, nvars)

    holds()


def test_arithmetic_never_revalidates_its_results(monkeypatch):
    a = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)})
    b = Poly(2, {(1, 0): Fraction(-1), (0, 0): Fraction(3)})
    e = QTU.element("(t*u+2*t)/(u+3)")
    images = {"t": QTU.element("t+1"), "u": QTU.element("2*u")}
    image = QTU.element("(2*t*u+2*u+2*t+2)/(2*u+3)")
    calls = []
    check = Poly.__init__

    def counting(self, *args):
        calls.append(args)
        check(self, *args)

    monkeypatch.setattr(Poly, "__init__", counting)
    assert a * b == Poly(2, {(2, 0): Fraction(-1), (1, 0): Fraction(3),
                             (1, 1): Fraction(-2), (0, 1): Fraction(6)})
    calls.clear()
    a * b, a + b, a - b, -a, a.scale(Fraction(3)), exact_div(a * b, b)
    # a coefficient mapped to zero is dropped
    assert a.map_coeffs(lambda c: c - 1).as_dict() == {(0, 1): Fraction(1)}
    assert substitute(e, images) == image
    assert calls == []


def double_loop_product(a: Poly, b: Poly) -> dict:
    """The product as the general loop builds it: outer a, inner b, equal
    keys summed, zero coefficients dropped at the end."""
    data = {}
    for e1, c1 in a.as_dict().items():
        for e2, c2 in b.as_dict().items():
            e = tuple(x + y for x, y in zip(e1, e2))
            data[e] = c1 * c2 if e not in data else data[e] + c1 * c2
    return {e: c for e, c in data.items() if c}


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_one_term_products_equal_the_double_loop(nvars, kind):
    coeffs = _COEFFS[kind]
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    operands = st.dictionaries(exps, coeffs, max_size=4).map(lambda t: Poly(nvars, t))
    one_term = st.one_of(coeffs.filter(bool).map(lambda c: Poly.const(nvars, c)),
                         st.builds(lambda e, c: Poly(nvars, {e: c}), exps, coeffs.filter(bool)))

    @settings(max_examples=60, deadline=None)
    @given(one_term, operands)
    def agrees(m, p):
        for a, b in ((m, p), (p, m), (m, m)):
            product = a * b
            expected = double_loop_product(a, b)
            assert [(e, type(c), c) for e, c in product.as_dict().items()] \
                == [(e, type(c), c) for e, c in expected.items()]
            _holds_invariant(product, nvars)

    agrees()


@pytest.mark.parametrize("kind", sorted(_COEFFS))
@pytest.mark.parametrize("nvars", [1, 2])
def test_gcd_of_equal_arguments_is_monic_without_a_certificate(nvars, kind, monkeypatch):
    def unreachable(*args):
        raise AssertionError("an equal-argument gcd ran the certificate or Euclid")

    for name in ("_certified_one", "_gcd_univar", "_gcd_prs"):
        monkeypatch.setattr(polys, name, unreachable)
    operands = _poly(nvars, _COEFFS[kind], 4).filter(lambda f: not f.is_const())

    @settings(max_examples=40, deadline=None)
    @given(operands)
    def agrees(f):
        assert poly_gcd(f, f) == monic(f)
        assert poly_gcd(f, Poly(nvars, f.as_dict())) == monic(f)

    agrees()


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.sampled_from((3, 5, 7, 13, 17, 41, 97, 257) + CERT_PRIMES))
def test_memoized_sqrt_mod_returns_the_unmemoized_root(n, p):
    # __wrapped__ is Tonelli-Shanks without the memo
    expected = sqrt_mod.__wrapped__(n, p)
    assert sqrt_mod(n, p) == expected and sqrt_mod(n, p) == expected
    if expected is not None:
        assert expected * expected % p == n % p


@pytest.mark.parametrize("p", CERT_PRIMES)
def test_memoized_evaluation_points_are_the_seeded_ones(p):
    for nvars in (1, 2, 3):
        assert evaluation_points(nvars, p) == evaluation_points.__wrapped__(nvars, p)
        assert evaluation_points(nvars, p) is evaluation_points(nvars, p)
