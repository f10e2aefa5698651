"""Session language: parser, executor and report emission.

The language is line-oriented with mandatory semicolons and ``#``
comments.  Declarations bind objects over the most recently declared
field; commands reference declared names.  Example::

    field F = Q(sqrt 2);
    hom c = conj;
    form N2 = product(id, c);
    genpoly f = trace(N2);
    check f(x^2) == f(x)^2 on span(1, sqrt(2), 1+sqrt(2));

Every statement kind is one entry of ``_KINDS``: how it parses, how it
runs, and how the independent oracle audits the values it computed.

Reports are byte-stable for a fixed session, seed and tool version:
the JSON form carries no wall-clock data (timing appears only in the
text rendering).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from itertools import combinations_with_replacement

from . import __version__
from .errors import (
    ArityTooLarge,
    DictionaryInsufficient,
    NameResolutionError,
    ParseError,
    PolcheckError,
    TypeMismatch,
)
from .fields import (
    MAX_CHECK_DEGREE,
    MAX_POWER_PRODUCTS,
    FieldElement,
    FieldSpec,
    SampleConfig,
    format_element,
    parse_element_atom,
    parse_element_tokens,
    parse_expression,
    power_products,
    power_refusal,
    random_element,
)
from .forms import (
    GenMonomial,
    LinComb,
    Lift,
    MapOfProduct,
    ProductSym,
    SymmetricForm,
    polarize,
    trace,
)
from .funceq import (
    HOLDS_ON_SAMPLE,
    HOLDS_ON_SPAN,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    REFUTED,
    EquationReport,
    check_pointwise,
    check_symmetrized,
    classify_quadratic_square,
    degree_precheck,
)
from .genpoly import DEGREE_CAP, GenPoly, degree_estimate, genpoly_from, variety_rank
from .lexer import Token, TokenStream, tokenize
from .maps import (
    MAX_DEPTH,
    MAX_NODES,
    AdditiveMap,
    build_derivation,
    build_endomorphism,
    compose_maps,
    degree_multiplier,
    identity_map,
    scale_map,
    sum_maps,
    tree_size,
    verify_map_laws,
    zero_map,
)
from .oracle import (
    Oracle,
    from_element,
    matches,
    o_add,
    o_divint,
    o_is_zero,
    o_mul,
    o_neg,
)
from .polys import Poly

PASS = "pass"
ERROR = "ERROR"
_PASSING = {HOLDS_ON_SAMPLE, HOLDS_ON_SPAN, PASS}

#: Most seeded samples one pointwise check may draw, from ``samples(N)``
#: or ``RunOptions.samples`` (the CLI's ``--samples``).
MAX_SAMPLES = 10_000


class RunOptions:
    __slots__ = ("seed", "samples", "oracle_check")

    def __init__(self, seed: int = 0, samples: int = 20, oracle_check: bool = False):
        if type(samples) is not int or samples < 1:
            raise ValueError(f"RunOptions samples must be a positive integer, got {samples!r}")
        if samples > MAX_SAMPLES:
            raise ValueError(f"RunOptions samples must be at most {MAX_SAMPLES}, got {samples}")
        self.seed = seed
        self.samples = samples
        self.oracle_check = oracle_check

    def sample_config(self, count: int, seed: int | None = None) -> SampleConfig:
        return SampleConfig(seed=self.seed if seed is None else seed, count=count)


def default_probes(spec: FieldSpec) -> list[FieldElement]:
    """Documented probe defaults: nonzero elements whose rational span
    exercises the field at desk scale."""
    if spec.kind == "rationals":
        return [spec.from_int(1), spec.from_int(2), spec.from_int(3)]
    if spec.kind == "quadratic":
        s = spec.sqrt_element()
        return [spec.one(), s, spec.one() + s]
    probes = [spec.one()]
    for name in spec.variables:
        v = spec.var(name)
        probes.extend([v, v + spec.one(), v * v, v - spec.one()])
    return probes


# -- statement objects -------------------------------------------------


class Command:
    __slots__ = ("kind", "text", "payload")

    def __init__(self, kind: str, text: str, payload: dict):
        self.kind = kind
        self.text = text
        self.payload = payload


class Session:
    __slots__ = ("env", "fields", "commands", "digest", "source")

    def __init__(self, env: dict, fields: dict, commands: list[Command], digest: str,
                 source: str):
        self.env = env
        self.fields = fields
        self.commands = commands
        self.digest = digest
        self.source = source


# -- parser ------------------------------------------------------------


_BUILTIN_MAPS = ("id", "conj", "zero")


@contextmanager
def _as_type_mismatch():
    """Report an engine error raised while building a declared object as
    a type mismatch; parse, name and type errors pass through."""
    try:
        yield
    except (ParseError, NameResolutionError, TypeMismatch):
        raise
    except PolcheckError as exc:
        raise TypeMismatch(str(exc)) from exc


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.stream = TokenStream(tokenize(source))
        self.env: dict = {}
        self.fields: dict = {}
        self.current_field: FieldSpec | None = None
        self.commands: list[Command] = []

    # helpers ----------------------------------------------------------

    def _require_field(self) -> FieldSpec:
        if self.current_field is None:
            raise self.stream.error("no field declared yet", expected={"field declaration"})
        return self.current_field

    def _declare(self, name: str, obj) -> None:
        if name in self.env or name in self.fields:
            raise NameResolutionError(f"{name!r} is already declared")
        if name in _BUILTIN_MAPS or name == "x":
            raise NameResolutionError(f"{name!r} is reserved")
        self.env[name] = obj

    def _lookup(self, token: Token):
        if token.text in self.env:
            return self.env[token.text]
        raise NameResolutionError(
            f"unknown name {token.text!r} at line {token.line}, column {token.column}")

    def _keyword(self, message: str, *words: str) -> Token:
        """A name token that must be one of ``words``."""
        tok = self.stream.expect("name", " or ".join(words))
        if tok.text not in words:
            raise self.stream.error(message, expected=set(words), at=tok)
        return tok

    def _paren_list(self, parse_item) -> list:
        """'(' item (',' item)* ')'"""
        self.stream.expect("(")
        items = [parse_item()]
        while self.stream.accept(","):
            items.append(parse_item())
        self.stream.expect(")")
        return items

    def _element_list(self, spec: FieldSpec) -> list[FieldElement]:
        return self._paren_list(lambda: parse_element_tokens(self.stream, spec))

    def _parse_genpoly(self) -> tuple[str, GenPoly]:
        tok = self.stream.expect("name", "genpoly name")
        f = self._lookup(tok)
        if not isinstance(f, GenPoly):
            raise TypeMismatch(f"{tok.text!r} is not a generalized polynomial")
        return tok.text, f

    # entry point --------------------------------------------------------

    def parse(self) -> Session:
        while not self.stream.at("end"):
            start = self.stream.peek()
            if start.kind != "name":
                raise self.stream.error("expected a statement keyword", expected=set(_KINDS))
            kind = _KINDS.get(start.text)
            if kind is None:
                raise self.stream.error(f"unknown statement {start.text!r}")
            self.stream.next()
            parsed = kind.parse(self)
            semi = self.stream.expect(";")
            if kind.run is None:
                parsed()
            else:
                text = " ".join(self.source[start.pos:semi.pos].split())
                self.commands.append(Command(start.text, text, parsed))
        normalized = " ".join(self.source.split())
        digest = hashlib.sha256(normalized.encode()).hexdigest()
        return Session(self.env, self.fields, self.commands, digest, self.source)

    # declarations: each returns the binding to make once its ';' is read

    def _stmt_field(self):
        name = self.stream.expect("name", "field name").text
        if name in self.fields or name in self.env:
            raise NameResolutionError(f"{name!r} is already declared")
        self.stream.expect("=")
        self._keyword("field must start from Q", "Q")
        spec = FieldSpec.rationals()
        with _as_type_mismatch():
            if self.stream.accept("("):
                if self.stream.at("name") and self.stream.peek().text == "sqrt":
                    self.stream.next()
                    neg = bool(self.stream.accept("-"))
                    d_tok = self.stream.expect("int", "integer radicand")
                    spec = FieldSpec.quadratic(-int(d_tok.text) if neg else int(d_tok.text))
                    self.stream.expect(")")
                    if self.stream.accept("("):
                        spec = self._finish_ratfunc(spec)
                else:
                    spec = self._finish_ratfunc(spec)

        def bind():
            self.fields[name] = spec
            self.current_field = spec
        return bind

    def _finish_ratfunc(self, base: FieldSpec) -> FieldSpec:
        names = [self.stream.expect("name", "indeterminate").text]
        while self.stream.accept(","):
            names.append(self.stream.expect("name", "indeterminate").text)
        self.stream.expect(")")
        return FieldSpec.ratfunc(base, names)

    def _parse_images(self, spec: FieldSpec) -> dict[str, FieldElement]:
        images = {}
        while True:
            gen = self.stream.expect("name", "indeterminate").text
            self.stream.expect("->")
            images[gen] = parse_element_tokens(self.stream, spec)
            if not self.stream.accept(","):
                break
        return images

    def _stmt_hom(self):
        name = self.stream.expect("name", "map name").text
        spec = self._require_field()
        with _as_type_mismatch():
            if self.stream.accept("="):
                kind = self.stream.expect("name", "id or conj").text
                if kind == "conj":
                    obj = build_endomorphism(spec, conjugate_base=True)
                elif kind == "id":
                    obj = identity_map(spec)
                else:
                    raise TypeMismatch(f"hom shorthand must be id or conj, not {kind!r}")
            else:
                self.stream.expect(":")
                obj = build_endomorphism(spec, self._parse_images(spec))
        return lambda: self._declare(name, obj)

    def _stmt_der(self):
        name = self.stream.expect("name", "map name").text
        spec = self._require_field()
        self.stream.expect(":")
        with _as_type_mismatch():
            obj = build_derivation(spec, self._parse_images(spec))
        return lambda: self._declare(name, obj)

    def _stmt_map(self):
        name = self.stream.expect("name", "map name").text
        self.stream.expect("=")
        obj = self._parse_map_expr()
        return lambda: self._declare(name, obj)

    # map expressions ---------------------------------------------------

    def _within_budget(self, node, start: Token):
        """``node``, unless the tree it expands to passes MAX_NODES or
        MAX_DEPTH: then a parse error at ``start``, before anything
        evaluates it."""
        nodes, depth = tree_size(node)
        if nodes > MAX_NODES:
            raise self.stream.error(
                f"expression expands to more than {MAX_NODES} map and form nodes", at=start)
        if depth > MAX_DEPTH:
            raise self.stream.error(
                f"expression nests map and form nodes deeper than {MAX_DEPTH}", at=start)
        return node

    def _parse_map_expr(self) -> AdditiveMap:
        start = self.stream.peek()
        term = self._parse_map_term()
        while self.stream.at("+", "-"):
            op = self.stream.next().kind
            rhs = self._parse_map_term()
            if op == "-":
                rhs = scale_map(-1, rhs)
            term = sum_maps(term, rhs)
        return self._within_budget(term, start)

    def _parse_scalar(self, spec: FieldSpec) -> FieldElement | None:
        """A scalar prefix: ['-'] (INT | '(' element ')') followed by '*'.
        Without a '*' after the int or the group, nothing is consumed and
        the result is None; with one, an error in the element is raised."""
        mark = self.stream.save()
        sign = -1 if self.stream.accept("-") else 1
        tok = self.stream.peek()
        if tok.kind == "int" and self.stream.peek(1).kind == "*":
            self.stream.next()
            value = spec.from_int(int(tok.text))
        elif tok.kind == "(" and self._after_group().kind == "*":
            self.stream.next()
            value = parse_element_tokens(self.stream, spec)
            self.stream.expect(")")
        else:
            self.stream.restore(mark)
            return None
        self.stream.expect("*")
        return value if sign == 1 else -value

    def _after_group(self) -> Token:
        """The token after the parenthesised group that starts here."""
        depth = 0
        ahead = 0
        while True:
            tok = self.stream.peek(ahead)
            if tok.kind == "end":
                return tok
            ahead += 1
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
                if depth == 0:
                    return self.stream.peek(ahead)

    def _parse_map_term(self) -> AdditiveMap:
        spec = self._require_field()
        scalar = self._parse_scalar(spec)
        m = self._parse_map_factor()
        multiplier = degree_multiplier(m)
        while self.stream.at("@"):
            at = self.stream.next()
            inner = self._parse_map_factor()
            # refused before any application: image degrees multiply along the chain
            multiplier *= degree_multiplier(inner)
            if multiplier > MAX_CHECK_DEGREE:
                raise self.stream.error(
                    f"composition multiplies degrees by more than {MAX_CHECK_DEGREE}", at=at)
            m = compose_maps(m, inner)
        if scalar is not None:
            m = scale_map(scalar, m)
        return m

    def _parse_map_factor(self) -> AdditiveMap:
        spec = self._require_field()
        if self.stream.accept("("):
            m = self._parse_map_expr()
            self.stream.expect(")")
            return m
        tok = self.stream.expect("name", "map name")
        if tok.text == "id":
            return identity_map(spec)
        if tok.text == "zero":
            return zero_map(spec)
        if tok.text == "conj":
            with _as_type_mismatch():
                return build_endomorphism(spec, conjugate_base=True)
        obj = self._lookup(tok)
        if not isinstance(obj, AdditiveMap):
            raise TypeMismatch(f"{tok.text!r} is not a map")
        return obj

    # form expressions ---------------------------------------------------

    def _stmt_form(self):
        name = self.stream.expect("name", "form name").text
        self.stream.expect("=")
        obj = self._parse_form_expr()
        return lambda: self._declare(name, obj)

    def _parse_form_expr(self) -> SymmetricForm:
        tok = self.stream.expect("name", "form constructor or name")
        with _as_type_mismatch():
            if tok.text == "product":
                form = ProductSym(tuple(self._paren_list(self._parse_map_expr)))
            elif tok.text == "mapprod":
                self.stream.expect("(")
                m = self._parse_map_expr()
                self.stream.expect(",")
                n = int(self.stream.expect("int", "arity").text)
                self.stream.expect(")")
                form = MapOfProduct(m, n)
            elif tok.text == "lift":
                self.stream.expect("(")
                inner = self._parse_form_expr()
                self.stream.expect(",")
                k = int(self.stream.expect("int", "lift exponent").text)
                self.stream.expect(")")
                form = Lift(inner, k)
            elif tok.text == "lincomb":
                form = LinComb(tuple(self._paren_list(self._parse_lincomb_term)))
            else:
                form = self._lookup(tok)
        if not isinstance(form, SymmetricForm):
            raise TypeMismatch(f"{tok.text!r} is not a form")
        return self._within_budget(form, tok)

    def _parse_lincomb_term(self):
        spec = self._require_field()
        scalar = self._parse_scalar(spec)
        form = self._parse_form_expr()
        if scalar is None:
            scalar = form.spec.one()
        return (scalar, form)

    def _stmt_genpoly(self):
        name = self.stream.expect("name", "polynomial name").text
        self.stream.expect("=")
        components = [self._parse_trace_term()]
        while self.stream.accept("+"):
            components.append(self._parse_trace_term())

        def bind():
            with _as_type_mismatch():
                obj = genpoly_from(components)
            self._declare(name, obj)
        return bind

    def _parse_trace_term(self) -> GenMonomial:
        self._keyword("generalized polynomials are sums of traces", "trace")
        self.stream.expect("(")
        form = self._parse_form_expr()
        self.stream.expect(")")
        return trace(form)

    # polynomial-in-one-symbol parsing for check commands ----------------

    def _parse_coeffpoly(self, spec: FieldSpec, fname: str | None) -> Poly:
        """Parse an element-grammar expression in one unknown into a
        one-variable polynomial with coefficients in ``spec``.

        With ``fname`` None the unknown is the metavariable x (the P
        side); otherwise it is the application ``fname(x)`` and bare x is
        rejected (the Q side).
        """
        unknown = Poly.variable(1, 0, spec.one())

        def atom(stream: TokenStream) -> Poly:
            tok = stream.peek()
            if tok.kind == "name" and tok.text == "x":
                if fname is not None:
                    raise TypeMismatch("the right side must be a polynomial in "
                                       f"{fname}(x); bare x is not allowed")
                stream.next()
                return unknown
            if tok.kind == "name" and tok.text == fname:
                stream.next()
                stream.expect("(")
                if stream.expect("name", "x").text != "x":
                    raise TypeMismatch(f"{fname} may only be applied to x in a check")
                stream.expect(")")
                return unknown
            return Poly.const(1, parse_element_atom(stream, spec))

        def power(base: Poly, k: int) -> Poly:
            # refused from the degrees alone: expanding a dense base could take hours
            degree = base.total_degree()
            if degree * k > MAX_CHECK_DEGREE:
                raise self.stream.error(f"check polynomial of degree above {MAX_CHECK_DEGREE}")
            for c in base.terms.values():  # the power of each coefficient: degree, work, digits
                if refusal := power_refusal(c, k):
                    raise self.stream.error(refusal)
            if k > 0 and power_products(len(base.terms), degree, k) > MAX_POWER_PRODUCTS:
                raise self.stream.error(
                    f"power needs more than {MAX_POWER_PRODUCTS} coefficient products to expand")
            return base ** k

        first = self.stream.peek()
        where = f"at line {first.line}, column {first.column}"
        try:
            poly = parse_expression(self.stream, atom, power)
        except ZeroDivisionError:
            raise TypeMismatch(f"division by zero in a check expression {where}") from None
        except ArithmeticError:
            raise TypeMismatch(
                f"cannot divide by an expression containing the unknown {where}") from None
        if poly.total_degree() > MAX_CHECK_DEGREE:
            raise self.stream.error(f"check polynomial of degree above {MAX_CHECK_DEGREE}")
        zero = spec.zero()  # adding it also turns the Fraction one of 0^0 into an element
        return poly.map_coeffs(lambda c: zero + c)

    # commands: each returns its payload ---------------------------------

    def _stmt_check(self) -> dict:
        name, f = self._parse_genpoly()
        spec = f.spec
        self.stream.expect("(")
        p = self._parse_coeffpoly(spec, None)
        self.stream.expect(")")
        self.stream.expect("==")
        q = self._parse_coeffpoly(spec, name)
        mode = {"mode": "default"}
        if self.stream.at("name") and self.stream.peek().text == "on":
            self.stream.next()
            which = self._keyword("expected samples(...) or span(...)", "samples", "span").text
            if which == "span":
                mode = {"mode": "span", "generators": self._element_list(spec)}
            else:
                self.stream.expect("(")
                tok = self.stream.expect("int", "sample count")
                count = int(tok.text)
                if not 1 <= count <= MAX_SAMPLES:
                    raise self.stream.error(
                        f"sample count must be between 1 and {MAX_SAMPLES}", at=tok)
                seed = None
                if self.stream.accept(","):
                    self._keyword("expected seed=<int>", "seed")
                    self.stream.expect("=")
                    seed = int(self.stream.expect("int", "seed value").text)
                self.stream.expect(")")
                mode = {"mode": "samples", "count": count, "seed": seed}
        return {"f": f, "p": p, "q": q, **mode}

    def _stmt_classify(self) -> dict:
        self._keyword("only quadratic classification is supported", "quadratic")
        form = self._parse_form_expr()
        if form.arity != 2:
            raise TypeMismatch("classify quadratic needs an arity-2 form")
        self._keyword("expected with dictionary(...)", "with")
        self._keyword("expected dictionary(...)", "dictionary")
        return {"form": form, "dictionary": self._paren_list(self._parse_map_expr)}

    def _stmt_degree(self) -> dict:
        return {"f": self._parse_genpoly()[1]}

    def _stmt_rank(self) -> dict:
        f = self._parse_genpoly()[1]
        operation = "add"
        if self.stream.at("name") and self.stream.peek().text in ("mult", "add"):
            operation = self.stream.next().text
        tok = self._keyword("expected translates(...)", "translates")
        translates = self._element_list(f.spec)
        if operation == "mult" and any(g.is_zero() for g in translates):
            raise self.stream.error("multiplicative translates must be nonzero", at=tok)
        tok = self._keyword("expected points(...)", "points")
        points = self._element_list(f.spec)
        if len(points) < len(translates):
            raise self.stream.error("need at least as many points as translates", at=tok)
        return {"f": f, "operation": operation, "translates": translates, "points": points}

    def _stmt_verify(self) -> dict:
        law = self.stream.expect("name", "law").text
        if law not in ("additive", "multiplicative", "leibniz"):
            raise TypeMismatch(f"unknown law {law!r}")
        return {"law": law, "map": self._parse_map_factor()}

    def _stmt_polarize(self) -> dict:
        tok = self.stream.expect("name", "monomial name")
        obj = self._lookup(tok)
        if isinstance(obj, GenPoly):
            if len(obj.components) != 1:
                raise TypeMismatch("polarize needs a single generalized monomial")
            monomial = obj.components[0]
        elif isinstance(obj, SymmetricForm):
            monomial = trace(obj)
        else:
            raise TypeMismatch(f"{tok.text!r} is not a monomial or form")
        self._keyword("expected at (y1, ..., yn)", "at")
        ys = self._element_list(monomial.spec)
        if len(ys) != monomial.degree:
            raise TypeMismatch(
                f"polarize needs exactly {monomial.degree} increments, got {len(ys)}")
        return {"monomial": monomial, "ys": ys}


def parse_session(source: str) -> Session:
    """Parse and bind a session; errors carry line/column positions."""
    return _Parser(source).parse()


# -- execution ---------------------------------------------------------


class ReportDocument:
    __slots__ = ("session_digest", "seed", "oracle_check", "entries", "consistent", "elapsed")

    def __init__(self, session_digest: str, seed: int, oracle_check: bool, entries: list,
                 consistent: bool = True, elapsed: float = 0.0):
        self.session_digest = session_digest
        self.seed = seed
        self.oracle_check = oracle_check
        self.entries = entries
        self.consistent = consistent
        self.elapsed = elapsed

    @property
    def exit_code(self) -> int:
        if not self.consistent:
            return 3
        for entry in self.entries:
            if entry["verdict"] not in _PASSING:
                return 1
        return 0

    def to_json_bytes(self) -> bytes:
        doc = {
            "schema": "1",
            "tool": "polcheck",
            "version": __version__,
            "session": self.session_digest,
            "seed": self.seed,
            "oracle_check": self.oracle_check,
            "consistent": self.consistent,
            "entries": self.entries,
        }
        return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode()

    def to_text(self) -> bytes:
        lines = [
            f"polcheck {__version__}  session {self.session_digest[:16]}  seed {self.seed}",
            f"oracle check: {'on' if self.oracle_check else 'off'}"
            + ("" if self.consistent else "  ** ENGINE/ORACLE MISMATCH **"),
            f"elapsed: {self.elapsed:.3f}s",
            "",
        ]
        for entry in self.entries:
            lines.append(f"[{entry['index']}] {entry['command']}")
            lines.append(f"    verdict: {entry['verdict']}")
            for key in ("degree", "rank", "value"):
                if key in entry:
                    lines.append(f"    {key}: {entry[key]}")
            if entry.get("detail"):
                lines.append(f"    {entry['detail']}")
            if entry.get("samples"):
                lines.append(f"    samples: {entry['samples']}")
            for w in entry.get("witnesses", []):
                lines.append(f"    witness: {w}")
            if "classification" in entry:
                c = entry["classification"]
                lines.append(f"    classification: {json.dumps(c, sort_keys=False)}")
            for note in entry.get("oracle_mismatches", []):
                lines.append(f"    ORACLE MISMATCH: {note}")
            lines.append("")
        lines.append(f"exit code: {self.exit_code}")
        return ("\n".join(lines) + "\n").encode()


def _classification_dict(c) -> dict:
    out = {}
    if c.f_at_1 is not None:
        out["f_at_1"] = format_element(c.f_at_1)
    if c.factors:
        out["factors"] = list(c.factor_descriptors())
    if c.case_tag:
        out["case"] = c.case_tag
    for key, value in c.extras:
        out[key] = value
    return out


def _copy_report(entry: dict, report: EquationReport) -> None:
    entry["verdict"] = report.verdict
    if report.sample_description:
        entry["samples"] = report.sample_description
    if report.detail:
        entry["detail"] = report.detail
    if report.witnesses:
        entry["witnesses"] = [w.describe() for w in report.witnesses]
    if report.classification is not None:
        entry["classification"] = _classification_dict(report.classification)


class _Value:
    """A single engine result (a degree, a rank, a polarized value),
    audited as the one row (name, value); ``inputs`` are the generated
    inputs it was computed from, if the payload does not hold them."""

    __slots__ = ("name", "value", "inputs")

    def __init__(self, name: str, value: object, inputs: tuple = ()):
        self.name = name
        self.value = value
        self.inputs = inputs

    @property
    def rows(self) -> tuple:
        return ((self.name, self.value),)


# Each ``_run_*`` fills the report entry of one command and returns the
# engine result whose rows the oracle audits, or None when the command
# has nothing to audit.  Each ``_audit_*`` re-derives those rows with the
# oracle alone, row by row; ``_audit_notes`` compares them.


def _samples_for(options: RunOptions, spec: FieldSpec, count: int, seed: int | None):
    cfg = options.sample_config(count, seed)
    samples = default_probes(spec) + [random_element(spec, cfg, i) for i in range(count)]
    description = (f"default probes + {count} seeded samples "
                   f"(seed={cfg.seed}, height={cfg.max_height}, degree={cfg.max_degree})")
    return samples, description


def _run_check(options: RunOptions, payload: dict, entry: dict):
    f: GenPoly = payload["f"]
    p: Poly = payload["p"]
    q: Poly = payload["q"]
    mode = payload["mode"]
    if mode == "span":
        report = check_symmetrized(f, p, q, payload["generators"])
        _copy_report(entry, report)
        return report
    if f.degree >= 1:
        failure = degree_precheck(f.degree, p, q)
        if failure:
            entry["verdict"] = NOT_APPLICABLE
            entry["detail"] = failure
            return None
    if mode == "samples":
        count, seed = payload["count"], payload["seed"]
    else:
        count, seed = options.samples, None
    samples, description = _samples_for(options, f.spec, count, seed)
    report = check_pointwise(f, p, q, samples, description)
    _copy_report(entry, report)
    return report


def _audit_check(payload: dict, report: EquationReport):
    f, p, q = payload["f"], payload["p"], payload["q"]
    spec = f.spec
    oracle = Oracle(spec)
    p_of, q_of = oracle.polyspec(p), oracle.polyspec(q)
    lhs = oracle.memoized(lambda v: oracle.eval_genpoly(f, p_of(v)))
    rhs = oracle.memoized(lambda v: q_of(oracle.eval_genpoly(f, v)))
    if payload["mode"] == "span":
        zero = oracle.zero()
        basis = [from_element(b) for b in report.basis]
        for _, coefficients in report.dropped:  # the generator as its combination
            total = zero
            for c, b in zip(coefficients, basis):
                total = o_add(total, o_mul(o_divint(oracle.integer(c.numerator), c.denominator), b))
            yield (total,)
        for tup, _, _ in report.rows[len(report.dropped):]:  # each side polarized at the tuple
            args = [from_element(a) for a in tup]
            scale = math.factorial(len(args))
            yield (o_divint(oracle.delta_many(lhs, args, zero), scale),
                   o_divint(oracle.delta_many(rhs, args, zero), scale))
        return
    for x, _, _ in report.rows:
        ox = from_element(x)
        yield lhs(ox), rhs(ox)


def _run_classify(options: RunOptions, payload: dict, entry: dict):
    form = payload["form"]
    try:
        report = classify_quadratic_square(form, payload["dictionary"],
                                           default_probes(form.spec))
    except DictionaryInsufficient as exc:
        entry["verdict"] = INCONCLUSIVE
        entry["detail"] = f"DictionaryInsufficient: {exc}"
        return None
    _copy_report(entry, report)
    return report


def _audit_classify(payload: dict, report: EquationReport):
    form = payload["form"]
    spec = form.spec
    oracle = Oracle(spec)

    def f2(u, v):
        return oracle.eval_form(form, [u, v])

    for x, _, _ in report.rows:
        if isinstance(x, tuple):  # the six-term quartic form, compared with 0
            x1, x2, x3, x4 = [from_element(a) for a in x]
            value = o_add(
                o_add(f2(o_mul(x1, x2), o_mul(x3, x4)), f2(o_mul(x1, x3), o_mul(x2, x4))),
                f2(o_mul(x1, x4), o_mul(x2, x3)))
            value = o_add(value, o_neg(o_add(
                o_add(o_mul(f2(x1, x2), f2(x3, x4)), o_mul(f2(x1, x3), f2(x2, x4))),
                o_mul(f2(x1, x4), f2(x2, x3)))))
            yield value, oracle.zero()
        else:  # the certificate f(x) = f(1)*phi1(x)*phi2(x)
            phi1, phi2 = report.classification.factors
            ox, one = from_element(x), oracle.integer(1)
            yield f2(ox, ox), o_mul(o_mul(f2(one, one), oracle.apply_map(phi1, ox)),
                                    oracle.apply_map(phi2, ox))


def _run_degree(options: RunOptions, payload: dict, entry: dict):
    f: GenPoly = payload["f"]
    probes = default_probes(f.spec)
    estimate = degree_estimate(f, probes)
    if estimate is None:
        entry["verdict"] = INCONCLUSIVE
        entry["degree"] = "NO_BOUND_FOUND"
        entry["detail"] = f"no vanishing difference order found up to cap {DEGREE_CAP}"
    else:
        entry["verdict"] = PASS
        entry["degree"] = estimate
        entry["detail"] = (f"on-sample certificate: differences of order {estimate + 1} "
                           f"vanish on the default probes")
    return _Value("degree estimate", estimate, tuple(probes))


def _audit_degree(payload: dict, result: _Value):
    f: GenPoly = payload["f"]
    spec = f.spec
    oracle = Oracle(spec)
    probes = [from_element(p) for p in result.inputs]
    zero = oracle.zero()

    def evaluate(v):
        return oracle.eval_genpoly(f, v)

    for n in range(DEGREE_CAP + 1):
        if all(o_is_zero(oracle.delta_many(evaluate, list(tup), zero))
               for tup in combinations_with_replacement(probes, n + 1)):
            return [(n,)]
    return [(None,)]


def _run_rank(options: RunOptions, payload: dict, entry: dict):
    operation = payload["operation"]
    value = variety_rank(payload["f"], payload["translates"], payload["points"], operation)
    entry["verdict"] = PASS
    entry["rank"] = value
    entry["detail"] = (f"on-sample lower bound for the variety dimension "
                       f"({operation} translates)")
    return _Value("rank", value)


def _audit_rank(payload: dict, result: _Value):
    f: GenPoly = payload["f"]
    oracle = Oracle(f.spec)
    combine = o_add if payload["operation"] == "add" else o_mul
    matrix = [[oracle.eval_genpoly(f, combine(from_element(g), from_element(h)))
               for h in payload["points"]]
              for g in payload["translates"]]
    return [(oracle.rank(matrix),)]


def _run_verify(options: RunOptions, payload: dict, entry: dict):
    m = payload["map"]
    spec = m.spec
    probes = default_probes(spec)
    pairs = [(x, y) for x in probes for y in probes]
    cfg = options.sample_config(5)
    pairs += [(random_element(spec, cfg, 2 * i), random_element(spec, cfg, 2 * i + 1))
              for i in range(5)]
    report = verify_map_laws(m, payload["law"], pairs)
    entry["verdict"] = PASS if report.passed else REFUTED
    entry["detail"] = report.describe()
    return report


def _audit_verify(payload: dict, report):
    m, law = payload["map"], payload["law"]
    oracle = Oracle(m.spec)

    def image(v):
        return oracle.apply_map(m, v)

    for (x, y), _, _ in report.rows:
        ox, oy = from_element(x), from_element(y)
        if law == "additive":
            yield image(o_add(ox, oy)), o_add(image(ox), image(oy))
        elif law == "multiplicative":
            yield image(o_mul(ox, oy)), o_mul(image(ox), image(oy))
        else:
            yield image(o_mul(ox, oy)), o_add(o_mul(image(ox), oy), o_mul(ox, image(oy)))


def _run_polarize(options: RunOptions, payload: dict, entry: dict):
    monomial, ys = payload["monomial"], payload["ys"]
    value = polarize(monomial, ys)
    entry["verdict"] = PASS
    entry["value"] = format_element(value)
    return _Value("polarized value", value)


def _audit_polarize(payload: dict, result: _Value):
    monomial = payload["monomial"]
    spec = monomial.spec
    oracle = Oracle(spec)
    value = oracle.delta_many(lambda v: oracle.eval_monomial(monomial, v),
                              [from_element(y) for y in payload["ys"]], oracle.zero())
    return [(o_divint(value, math.factorial(monomial.degree)),)]


def _input_text(x) -> str:
    if isinstance(x, tuple):
        return "(" + ", ".join(format_element(a) for a in x) + ")"
    return f"x = {format_element(x)}"


def _audit_notes(rows, derived) -> list[str]:
    """Compare each engine row with the oracle's re-derivation of it: one
    note per value the oracle does not reproduce.  A row is (input, lhs,
    rhs) or (name, value)."""
    notes = []
    for (where, *values), o_values in zip(rows, derived):
        sides = ("lhs", "rhs") if len(values) == 2 else (None,)
        for side, value, o_value in zip(sides, values, o_values):
            if isinstance(value, FieldElement):
                shown = None if matches(value, o_value) else f"engine {format_element(value)}"
            else:
                shown = None if value == o_value else f"engine {value}, oracle {o_value}"
            if shown:  # the label is formatted only for a mismatch
                label = f"{side} at {_input_text(where)}" if side else where
                notes.append(f"{label}: {shown}")
    return notes


class _Kind:
    """One statement kind.  ``parse`` reads what follows the keyword: a
    declaration returns the binding to make once its ';' is read, a
    command returns its payload.  Commands also ``run`` and ``audit``."""

    __slots__ = ("parse", "run", "audit")

    def __init__(self, parse: Callable, run: Callable | None = None,
                 audit: Callable | None = None):
        self.parse = parse
        self.run = run
        self.audit = audit


_KINDS = {
    "field": _Kind(_Parser._stmt_field),
    "hom": _Kind(_Parser._stmt_hom),
    "der": _Kind(_Parser._stmt_der),
    "map": _Kind(_Parser._stmt_map),
    "form": _Kind(_Parser._stmt_form),
    "genpoly": _Kind(_Parser._stmt_genpoly),
    "check": _Kind(_Parser._stmt_check, _run_check, _audit_check),
    "classify": _Kind(_Parser._stmt_classify, _run_classify, _audit_classify),
    "degree": _Kind(_Parser._stmt_degree, _run_degree, _audit_degree),
    "rank": _Kind(_Parser._stmt_rank, _run_rank, _audit_rank),
    "verify": _Kind(_Parser._stmt_verify, _run_verify, _audit_verify),
    "polarize": _Kind(_Parser._stmt_polarize, _run_polarize, _audit_polarize),
}


def run_session(session: Session, options: RunOptions | None = None) -> ReportDocument:
    """Execute all commands in order; one command failing does not stop
    the rest.  Exit code 0 iff every verdict passes, 1 on refutations or
    inapplicable checks, 3 on engine/oracle disagreement."""
    options = options or RunOptions()
    started = time.monotonic()
    entries = []
    consistent = True
    for index, command in enumerate(session.commands):
        kind = _KINDS[command.kind]
        entry = {"index": index, "command": command.text, "kind": command.kind}
        try:
            result = kind.run(options, command.payload, entry)
            if result is not None and options.oracle_check:
                notes = _audit_notes(result.rows, kind.audit(command.payload, result))
                if notes:
                    entry["oracle_mismatches"] = notes
                    consistent = False
                else:
                    entry["oracle_checked"] = True
        except ArityTooLarge as exc:
            entry["verdict"] = ERROR
            entry["detail"] = f"arity too large: {exc}"
        except PolcheckError as exc:
            entry["verdict"] = ERROR
            entry["detail"] = f"{type(exc).__name__}: {exc}"
        entries.append(entry)
    return ReportDocument(session.digest, options.seed, options.oracle_check, entries,
                          consistent, time.monotonic() - started)


def emit_report(doc: ReportDocument, fmt: str = "text") -> bytes:
    if fmt == "json":
        return doc.to_json_bytes()
    if fmt == "text":
        return doc.to_text()
    raise ValueError(f"unknown format {fmt!r}")
