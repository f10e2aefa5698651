"""Sparse multivariate polynomials over an exact coefficient field.

Coefficients may be any exact field scalar supporting ``+ - * /``,
equality and truthiness (``fractions.Fraction`` or the quadratic
scalars from :mod:`polcheck.fields`), or Python ``int``s, which is how
the function fields store their integral numerators and denominators.
Every division here turns an ``int`` divisor into a ``Fraction``, so no
coefficient ever becomes a float.

Each monomial is one ``int`` key (Monagan & Pearce, CASC 2007): the
exponent in one variable, and in ``k >= 2`` the total degree and then
``e1..ek``, each in an ``EXP_BITS``-bit field.  A product of monomials
is the sum of their keys, and integer order is graded-lex order, the
order of leading terms, of formatting and of denominators.  In several
variables a total degree of ``2**EXP_BITS`` raises ``ValueTooLarge``.
``Poly(nvars, terms)`` takes exponent tuples; ``as_dict`` gives them back.

Invariant: ``terms`` has int keys packed for ``nvars`` variables and no
zero coefficient.  ``Poly(nvars, terms)`` establishes it for any input;
arithmetic builds dicts that hold it and wraps them with ``_poly``,
which checks nothing, or with ``_poly_dropping_zeros`` when a sum may
have cancelled.  A product with a one-term factor needs neither sums
nor that pass: adding one key to distinct keys gives distinct keys, and
every coefficient (an ``int``, a ``Fraction``, a quadratic scalar, or an
element of one of the supported fields) lies in an integral domain,
where a product of nonzero numbers is nonzero.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from .errors import ValueTooLarge

#: Bits of each exponent field of a key in two or more variables.
EXP_BITS = 32
_MASK = (1 << EXP_BITS) - 1


def pack(exps: tuple[int, ...]) -> int:
    """The key of an exponent tuple."""
    if len(exps) == 1:
        return exps[0]
    return reduce(lambda key, k: key << EXP_BITS | k, exps, _fits(sum(exps), "monomial"))


def exponents(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a key."""
    return (key,) if nvars == 1 else tuple(key >> EXP_BITS * i & _MASK for i in reversed(range(nvars)))


def _unit(nvars: int, v: int) -> tuple[int, int, int]:
    """(key of variable v, shift, mask): its exponent is key >> shift & mask."""
    if nvars == 1:
        return 1, 0, -1
    shift = EXP_BITS * (nvars - 1 - v)
    return 1 << EXP_BITS * nvars | 1 << shift, shift, _MASK


def _fits(degree: int, what: str) -> int:
    """degree, if each exponent of that total degree fits its field."""
    if degree >> EXP_BITS:
        raise ValueTooLarge(f"{what} of total degree {degree} in several variables "
                            f"reaches 2^{EXP_BITS}")
    return degree


class Poly:
    """Immutable sparse polynomial: ``{packed monomial key: coefficient}``."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        data = {}
        for exps, coeff in dict(terms or ()).items():
            if coeff:
                data[pack(tuple(exps))] = coeff
        self.nvars = nvars
        self.terms = data
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _poly(nvars, {})

    @classmethod
    def const(cls, nvars: int, coeff) -> "Poly":
        return _poly(nvars, {0: coeff} if coeff else {})

    @classmethod
    def variable(cls, nvars: int, index: int, one) -> "Poly":
        return _poly(nvars, {_unit(nvars, index)[0]: one})

    def as_dict(self) -> dict[tuple[int, ...], object]:
        """``{exponent tuple: coefficient}``, decoded from the keys."""
        return {exponents(e, self.nvars): c for e, c in self.terms.items()}

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        terms = self.terms
        return not terms or len(terms) == 1 and 0 in terms

    def constant(self):
        """Coefficient of the constant term, or None if there is none."""
        return self.terms.get(0)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms) >> EXP_BITS * self.nvars if self.nvars > 1 else max(self.terms)

    def vars_used(self) -> set[int]:
        keys = reduce(operator.or_, self.terms, 0)
        return {i for i, k in enumerate(exponents(keys, self.nvars)) if k}

    def lead(self) -> tuple[int, object]:
        """Leading (key, coefficient) under graded-lex order."""
        key = max(self.terms)
        return key, self.terms[key]

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e)
            s = c if s is None else s + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return _poly(self.nvars, data)

    def __sub__(self, other: "Poly") -> "Poly":
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e)
            s = -c if s is None else s - c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return _poly(self.nvars, data)

    def __neg__(self) -> "Poly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        nvars, a, b = self.nvars, self.terms, other.terms
        if nvars > 1:
            _fits(self.total_degree() + other.total_degree(), "product")
        if len(a) == 1:
            # keys and order as the loop below builds them, with no sums
            [(e1, c1)] = a.items()
            if not e1:
                return _poly(nvars, {e2: c1 * c2 for e2, c2 in b.items()})
            return _poly(nvars, {e1 + e2: c1 * c2 for e2, c2 in b.items()})
        if len(b) == 1:
            [(e2, c2)] = b.items()
            if not e2:
                return _poly(nvars, {e1: c1 * c2 for e1, c1 in a.items()})
            return _poly(nvars, {e1 + e2: c1 * c2 for e1, c1 in a.items()})
        data = {}
        get = data.get
        others = b.items()
        for e1, c1 in a.items():
            for e2, c2 in others:
                e = e1 + e2
                s = get(e)
                data[e] = c1 * c2 if s is None else s + c1 * c2
        return _poly_dropping_zeros(nvars, data)

    def scale(self, coeff) -> "Poly":
        return _poly(self.nvars, {e: c * coeff for e, c in self.terms.items()} if coeff else {})

    def divscale(self, coeff) -> "Poly":
        if type(coeff) is int:
            coeff = Fraction(coeff)
        return _poly(self.nvars, {e: c / coeff for e, c in self.terms.items()})

    def __truediv__(self, other: "Poly") -> "Poly":
        """Quotient by a nonzero constant; see exact_div for polynomial divisors."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not other.is_const():
            raise ArithmeticError("division by a non-constant polynomial")
        return self.divscale(other.constant())

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            # only a nonzero constant has an inverse
            return (Poly.const(self.nvars, _one_like(self)) / self) ** -k
        if not k:
            return Poly.const(self.nvars, _one_like(self))
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def derivative(self, v: int) -> "Poly":
        # distinct terms with e[v] > 0 stay distinct when e[v] drops by one
        unit, shift, mask = _unit(self.nvars, v)
        return _poly(self.nvars, {e - unit: c * k for e, c in self.terms.items() if (k := e >> shift & mask)})

    def map_coeffs(self, fn) -> "Poly":
        return _poly_dropping_zeros(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    # -- comparisons -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(sorted(self.terms.items()))))
        return self._hash

    def __repr__(self):
        return f"Poly({self.nvars}, {self.as_dict()!r})"


def _poly(nvars: int, data: dict) -> Poly:
    """The Poly of a dict that already holds the invariant: int keys
    packed for nvars variables and no zero coefficient.  Checks nothing."""
    p = object.__new__(Poly)
    p.nvars = nvars
    p.terms = data
    p._hash = None
    return p


def _poly_dropping_zeros(nvars: int, data: dict) -> Poly:
    """``_poly`` of a dict whose keys hold the invariant, once its zero
    coefficients are deleted in place."""
    if not all(data.values()):
        for e in [e for e, c in data.items() if not c]:
            del data[e]
    return _poly(nvars, data)


def _one_like(p: Poly):
    for c in p.terms.values():
        return 1 if type(c) is int else c / c
    return Fraction(1)


def monic(p: Poly) -> Poly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    _, lc = p.lead()
    return p if lc == 1 else p.divscale(lc)


def exact_div(f: Poly, g: Poly, over_z: bool = False) -> Poly:
    """Exact polynomial quotient f / g; raises if the division is inexact,
    or with over_z (int coefficients) if the quotient is not over Z."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    # each step cancels rem's leading term, so no quotient key repeats
    quotient = {}
    rem = f
    ge, gc = g.lead()
    low = exponents(ge, f.nvars)
    if type(gc) is int and not over_z:
        gc = Fraction(gc)
    while rem.terms:
        re, rc = rem.lead()
        if any(map(operator.lt, exponents(re, f.nvars), low)) or over_z and rc % gc:
            raise ArithmeticError("inexact polynomial division")
        quotient[re - ge] = c = rc // gc if over_z else rc / gc
        rem = rem - _poly(f.nvars, {re - ge: c}) * g
    return _poly(f.nvars, quotient)


# -- greatest common divisor ----------------------------------------
#
# gcd_cofactors is the one gcd route; poly_gcd makes its gcd monic.  Over
# Q it runs GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989) on the
# primitive integer parts: set the last variable used to an integer xi,
# take the gcd of the images over Z recursively, and read a candidate
# back from its balanced base-xi digits.  With xi >= 2*min(|f|, |g|) + 2
# (max norms), a candidate that divides f and g over Z is their gcd
# (their Theorem 2): a proof, not a guess, whose quotients are the
# cofactors.  Over Q(sqrt d), or when HEU_TRIES values of xi fail, the
# gcd is proved 1 modulo a prime if it can be: reduce to F_p (sqrt d
# sent to a root of d mod p), set all variables but one to fixed
# points, and run Euclid in F_p[v].  A reduction that keeps the degree
# in v maps a common factor of positive degree in v to one of the images
# (Gauss's lemma over the local ring at p; Brown, J. ACM 1971), so
# coprime images in every shared variable prove gcd 1.  Otherwise one
# variable takes the monic Euclidean algorithm and several the primitive
# pseudo-remainder sequence on the lowest variable, with contents
# handled recursively, and the cofactors come from exact_div.


def gcd_cofactors(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) for a gcd h of f and g, unique up to a constant."""
    h, cf, cg = _gcd(f, g)
    if cf is None:
        return h, exact_div(f, h), exact_div(g, h)
    return h, cf, cg


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic-normalized gcd of two polynomials over a coefficient field."""
    return monic(_gcd(f, g)[0])


def _gcd(f: Poly, g: Poly) -> tuple:
    """gcd_cofactors, with None for cofactors that Euclid or the PRS
    left to exact_div."""
    if f.is_zero():
        return g, f, Poly.const(g.nvars, _one_like(g))
    if g.is_zero():
        return f, Poly.const(f.nvars, _one_like(f)), g
    for p in (g, f):
        if p.is_const():
            # a nonzero constant is a unit; reuse it when it is already 1
            (c,) = p.terms.values()
            return (p if c == 1 else Poly.const(p.nvars, _one_like(p))), f, g
    if f == g:  # the certificate must fail on equal inputs, and Euclid ends at once
        one = Poly.const(f.nvars, _one_like(f))
        return f, one, one
    found = _heuristic(f, g)
    if found is not None:
        return found
    h = _certified_one(f, g)
    if h is None:
        ff, gg = _over_field(f), _over_field(g)
        used = ff.vars_used() | gg.vars_used()
        v = min(used)
        h = _gcd_univar(ff, gg, v) if used <= {v} else monic(_gcd_prs(ff, gg, v))
    return (h, f, g) if h.is_const() else (h, None, None)


#: Values of xi that GCDHEU tries, in each variable, before the gcd
#: falls back to the certificate and Euclid or the PRS.
HEU_TRIES = 6


def _heuristic(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly] | None:
    """gcd_cofactors of nonzero f and g by GCDHEU, or None for a
    coefficient not in Q or when every xi fails.  With int coefficients,
    h is the gcd over Z, content included, and the cofactors are over Z."""
    split_f = _integral(f)
    split_g = None if split_f is None else _integral(g)
    if split_g is None:
        return None
    (cf, f), (cg, g) = split_f, split_g
    found = _heu_primitive(f, g)
    if found is None:
        return None
    h, qf, qg = found
    if type(cf) is int and type(cg) is int:
        c = gcd(cf, cg)
        if c != 1:
            h, cf, cg = h.scale(c), cf // c, cg // c
    return h, (qf if cf == 1 else qf.scale(cf)), (qg if cg == 1 else qg.scale(cg))


def _integral(p: Poly) -> tuple[int | Fraction, Poly] | None:
    """(c, q) with p = c*q, q primitive over Z and c an int if it can be;
    None unless every coefficient is an int or a Fraction."""
    values = p.terms.values()
    if all(type(c) is int for c in values):
        c = gcd(*values)
        return c, (p if c == 1 else _poly(p.nvars, {e: v // c for e, v in p.terms.items()}))
    if not all(type(c) is Fraction or type(c) is int for c in values):
        return None
    den = lcm(*(c.denominator for c in values))
    ints = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    num = gcd(*ints.values())
    c = Fraction(num, den)
    return (c.numerator if c.denominator == 1 else c), _poly(p.nvars, {e: v // num for e, v in ints.items()})


def _heu_primitive(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly] | None:
    """(h, f/h, g/h) with h the gcd over Z of primitive f and g, or None."""
    one = Poly.const(f.nvars, 1)
    if f.is_const() or g.is_const():  # a primitive constant is 1 or -1
        return one, f, g
    used = f.vars_used() | g.vars_used()
    v = max(used)
    xi = 2 * min(max(map(abs, p.terms.values())) for p in (f, g)) + 2
    for _ in range(HEU_TRIES):
        fv, gv = _evaluate(f, v, xi), _evaluate(g, v, xi)
        if fv.terms and gv.terms:
            if len(used) == 1:  # the images are integers
                gamma = Poly.const(f.nvars, gcd(*fv.terms.values(), *gv.terms.values()))
            else:
                found = _heuristic(fv, gv)
                if found is None:
                    return None
                gamma = found[0]
            _, h = _integral(_from_digits(gamma, v, xi))
            if h.is_const():
                return one, f, g
            try:
                return h, exact_div(f, h, over_z=True), exact_div(g, h, over_z=True)
            except ArithmeticError:  # not the gcd: try the next xi
                pass
        xi = xi * 73794 // 27011  # the update of Char, Geddes & Gonnet: about 1 + sqrt(3) times
    return None


def _evaluate(p: Poly, v: int, xi: int) -> Poly:
    """p with variable v set to the integer xi."""
    powers = [1]
    out = {}
    get = out.get
    unit, shift, mask = _unit(p.nvars, v)
    for e, c in p.terms.items():
        k = e >> shift & mask
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * xi)
            e -= k * unit
            c *= powers[k]
        s = get(e)
        out[e] = c if s is None else s + c
    return _poly_dropping_zeros(p.nvars, out)


def _from_digits(p: Poly, v: int, xi: int) -> Poly:
    """The polynomial in v with coefficients in (-xi/2, xi/2] whose value
    at xi is p (free of v): each coefficient in balanced base xi."""
    half = xi // 2
    out = {}
    unit = _unit(p.nvars, v)[0]
    for e, c in p.terms.items():
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[e] = digit
            c = (c - digit) // xi
            e += unit
    return _poly(p.nvars, out)


#: Primes below 2**30 for the certificate, tried in order.  The first is
#: 1 mod 8, so that 2, -1 and -2 are squares modulo it; together they
#: have a square root of every squarefree d with |d| <= 30.
CERT_PRIMES = (1073741689, 1073741789, 1073741783, 1073741741, 1073741723,
               1073741719, 1073741717)


def _certified_one(f: Poly, g: Poly) -> Poly | None:
    """The monic constant 1 when gcd(f, g) = 1 is proved modulo one of
    CERT_PRIMES, else None.

    f and g are non-constant.  None proves nothing: the images had a
    common factor, no prime was usable, or the coefficients are not
    ints, Fractions or QuadRats.
    """
    c = next(iter(f.terms.values()))
    if type(c) is int or type(c) is Fraction:
        d, one = None, _one_like(f)
    else:
        from .fields import QuadRat  # fields imports this module
        if type(c) is not QuadRat:
            return None
        d, one = c.d, QuadRat(1, 0, c.d)
    # a common factor has degree 0 in each variable that f or g lacks
    shared = f.vars_used() & g.vars_used()
    if shared:
        verdict = None
        for p in CERT_PRIMES:
            verdict = coprime_mod(f, g, shared, p, d)
            if verdict is not None:
                break
        if not verdict:
            return None
    return Poly.const(f.nvars, one)


def coprime_mod(f: Poly, g: Poly, shared: set[int], p: int, d: int | None) -> bool | None:
    """Whether the images of f and g modulo p are coprime in each shared
    variable, with sqrt d sent to a root mod p; None if p is unusable.

    p is unusable when it divides a denominator, when d is not a nonzero
    square mod p, or when an image loses degree in a shared variable.
    """
    root = None
    if d is not None:
        root = sqrt_mod(d, p)
        if root is None:
            return None
    fp = _reduce_mod(f, p, root, d)
    gp = None if fp is None else _reduce_mod(g, p, root, d)
    if gp is None:
        return None
    points = evaluation_points(f.nvars, p) if f.nvars > 1 else ()
    for v in sorted(shared):
        a = _image_in(fp, v, points, p)
        b = _image_in(gp, v, points, p)
        if a is None or b is None:
            return None
        if not _coprime_dense(a, b, p):
            return False
    return True


@lru_cache(maxsize=256)
def evaluation_points(nvars: int, p: int) -> tuple[int, ...]:
    """Fixed points mod p at which coprime_mod sets the other variables.

    They come from a generator seeded by p, not from one formula, so no
    polynomial relation among them holds for every prime: a leading
    coefficient that vanishes at the points of one prime is unlikely to
    vanish at those of the next.  Memoized: a pure function of its
    arguments, asked for again by every certificate."""
    rng = random.Random(p)
    return tuple(rng.randrange(1, p) for _ in range(nvars))


def _reduce_mod(f: Poly, p: int, root: int | None, d: int | None) -> dict | None:
    """{key: coefficient mod p}, or None if p divides a denominator
    or a coefficient is not a scalar of Q or Q(sqrt d)."""
    out = {}
    for e, c in f.terms.items():
        if type(c) is int:
            value = c % p
        elif type(c) is Fraction:
            value = _ratio_mod(c.numerator, c.denominator, p)
        elif root is not None and getattr(c, "d", None) == d:  # a QuadRat (p + q*sqrt d)/c
            value = _ratio_mod(c.p + c.q * root, c.c, p)
        else:
            return None
        if value is None:
            return None
        out[e] = value
    return out


def _ratio_mod(num: int, den: int, p: int) -> int | None:
    """num/den mod p, or None if p divides den."""
    if den == 1:
        return num % p
    if not den % p:
        return None
    return num * pow(den, -1, p) % p


def _image_in(fp: dict, v: int, points: tuple[int, ...], p: int) -> list[int] | None:
    """Dense coefficients in variable v, low degree first, of a reduced
    polynomial with the other variables set to points; None if the top
    coefficient vanishes."""
    exps = [exponents(e, len(points) or 1) for e in fp]
    top = max(e[v] for e in exps)
    out = [0] * (top + 1)
    for e, c in zip(exps, fp.values()):
        for i, k in enumerate(e):
            if k and i != v:
                c = c * pow(points[i], k, p) % p
        out[e[v]] += c
    out = [c % p for c in out]
    return out if out[top] else None


def _coprime_dense(a: list[int], b: list[int], p: int) -> bool:
    """Euclid in F_p[t] on dense coefficient lists with nonzero tops:
    whether the gcd is constant."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        db = len(b) - 1
        while len(a) > db:
            q = a.pop()
            if q:
                off = len(a) - db
                a[off:] = [(x - q * y) % p for x, y in zip(a[off:], b)]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


@lru_cache(maxsize=256)
def sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p (Tonelli-Shanks), or
    None when n is 0 or not a square mod p.  Memoized: a pure function
    of its arguments, and every certificate over Q(sqrt d) asks for the
    root of d modulo the same few primes."""
    n %= p
    if not n or pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _over_field(p: Poly) -> Poly:
    """p with its int coefficients as Fractions, for the exact algorithms,
    which divide coefficients."""
    if any(type(c) is int for c in p.terms.values()):
        return p.map_coeffs(lambda c: Fraction(c) if type(c) is int else c)
    return p


def _gcd_univar(f: Poly, g: Poly, v: int) -> Poly:
    unit, shift, mask = _unit(f.nvars, v)
    a, b = ({e >> shift & mask: c for e, c in p.terms.items()} for p in (f, g))

    def rem(num: dict, den: dict) -> dict:
        dd = max(den)
        lc = den[dd]
        num = dict(num)
        while num and max(num) >= dd:
            dn = max(num)
            q = num[dn] / lc
            for k, c in den.items():
                kk = dn - dd + k
                s = num.get(kk, None)
                s = -q * c if s is None else s - q * c
                if s:
                    num[kk] = s
                else:
                    num.pop(kk, None)
        return num

    def monic(r: dict) -> dict:
        if not r:
            return r
        lead = r[max(r)]
        return {k: c / lead for k, c in r.items()}

    while b:  # monic remainders keep the coefficients from growing
        a, b = b, monic(rem(a, b))
    return _poly(f.nvars, {k * unit: c for k, c in monic(a).items()})


def _as_univ(f: Poly, v: int) -> dict[int, Poly]:
    split: dict[int, dict] = {}
    unit, shift, mask = _unit(f.nvars, v)
    for e, c in f.terms.items():
        k = e >> shift & mask
        split.setdefault(k, {})[e - k * unit] = c
    return {k: _poly(f.nvars, terms) for k, terms in split.items()}


def _from_univ(d: dict[int, Poly], v: int, nvars: int) -> Poly:
    terms = {}
    unit = _unit(nvars, v)[0]
    for k, p in d.items():
        for e, c in p.terms.items():
            terms[e + k * unit] = c
    return _poly(nvars, terms)


def _usub(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    out = dict(a)
    for k, p in b.items():
        q = out.get(k)
        q = -p if q is None else q - p
        if q.is_zero():
            out.pop(k, None)
        else:
            out[k] = q
    return out

def _umul(a: dict[int, Poly], p: Poly, shift: int = 0) -> dict[int, Poly]:
    out = {}
    for k, q in a.items():
        r = q * p
        if not r.is_zero():
            out[k + shift] = r
    return out


def _uprem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b in the distinguished variable."""
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        r = _usub(_umul(r, lb), _umul(b, lr, dr - db))
    return r


def _ucontent(a: dict[int, Poly]) -> Poly:
    content = None
    for p in a.values():
        content = p if content is None else poly_gcd(content, p)
        if content.is_const():
            break
    return monic(content)


def _upp(a: dict[int, Poly], content: Poly) -> dict[int, Poly]:
    if content.is_const():
        c = content.constant()
        return {k: p.divscale(c) for k, p in a.items()}
    return {k: exact_div(p, content) for k, p in a.items()}


def _gcd_prs(f: Poly, g: Poly, v: int) -> Poly:
    a = _as_univ(f, v)
    b = _as_univ(g, v)
    cont_a = _ucontent(a)
    cont_b = _ucontent(b)
    cont = poly_gcd(cont_a, cont_b)
    a = _upp(a, cont_a)
    b = _upp(b, cont_b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _uprem(a, b)
        if r:
            r = _upp(r, _ucontent(r))
        a, b = b, r
    return cont * _from_univ(a, v, f.nvars)
