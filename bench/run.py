"""Wall times of polcheck's golden sessions and of its tier-1 test suite.

    python3 bench/run.py BENCH_9.json

Run from anywhere; the command imports polcheck from ``src/`` of its own
checkout and writes one JSON file:

* ``sessions``: for each golden session ``tests/sessions/<name>.pol``,
  the median time of ``parse_session`` plus ``run_session`` (seed 0,
  default options) over ``REPEATS`` timed runs after one untimed run,
  plain and with ``oracle_check=True``;
* ``micro``: the time of one call, the median over ``REPEATS`` timed
  stretches of ``MICRO_CALLS`` calls after one untimed call, of field
  ``+ * /`` on ``Q``, ``Q(sqrt 2)``, ``Q(t)`` and ``Q(sqrt 2)(t)``
  (on two general elements, and with a zero or one operand), and of
  ``poly_gcd`` on coprime, shared-factor and equal polynomials in
  ``t`` over ``Q`` and ``Q(sqrt 2)``, and in ``t, u`` over ``Q``;
  of ``Poly`` products and ``gcd_cofactors`` on the integral numerators
  of ``Q(t)`` (``poly``: ``mul_qt`` multiplies a three-term and a
  two-term polynomial, ``gcd_qt`` finds the shared linear factor of
  a quadratic and a quartic, the sizes of the non-constant operands
  that dominate rational-function arithmetic in pointwise checks);
  of ``apply_map`` per map kind on ``Q(t)`` (``id``, ``zero``, the
  endomorphism ``s : t -> t^2``, the derivation ``d/dt``, ``2*s``,
  ``s + d`` and ``s@d``) at x, and of the endomorphism ``t -> 2*t+1``,
  the image shape of ``verdictbench``'s function-field maps, at the
  polynomial ``1+2*t+3*t^2`` and at x (its power tables kept, as a
  map keeps them between calls); and, in stretches of ``SPAN_CALLS``
  calls, of one span check ``check_symmetrized`` per arity 2/4/6/8:
  ``f(x^k) == f(x)^k`` for ``k = 1..4`` and the norm
  ``f = trace(product(id, conj))`` of ``Q(sqrt 2)`` on
  ``span(1, sqrt(2), 1+sqrt(2))``, whose Q-basis is ``(1, sqrt(2))``;
  the same power identity for ``f = trace(product(id, s))``,
  ``s : t -> t+1``, of ``Q(t)`` on the three Q-independent generators
  ``span(1, t, t^2)``, the full lattice of three generators; and, per
  degree ``D = 2*k``, one check whose difference is not homogeneous,
  ``f(x^k+x) == f(x)^k+f(x)`` for ``f = N + tr/2`` (the norm plus half
  the trace) on ``span(1, sqrt(2), 1+sqrt(2))``, which reads rows of
  every order ``0..D``; of the two probe scans on one
  difference table, ``degree_estimate`` of ``trace(product(id, s))``
  on the default probes of ``Q(t)`` and ``classify_quadratic_square``
  of ``product(id, conj)`` on ``Q(sqrt 2)``; of ``eval_form`` per node
  kind (``product``, ``mapprod``, ``lift``, ``lincomb``) at arity
  2/4/6/8 on ``Q(sqrt 2)``, at distinct arguments; and of the oracle's
  ``eval_form`` of the arity-8 ``product`` on the diagonal, as the span
  and polarize audits call it;
* ``tier1``: one run of the tier-1 suite (``python -m pytest -q
  --continue-on-collection-errors`` in a child process), with its
  passed and failed counts.

Every time but the suite's is given raw (``wall_s``) and rescaled
(``rescaled_s``) to the speed of ``verdictbench``'s builtins-only
reference loop, through its ``Clock``: a shared host runs the same work
from one to two times its fastest time, so only rescaled times compare
from one run to the next.  The suite gives ``wall_s`` alone: one child
process of half a minute outlasts the phases of the host's speed, so
the reference loops timed just before and after it do not measure the
speed it ran at (two runs of one suite at 31.4 and 31.2 s wall read
46.4 and 34.8 s rescaled).
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
SESSIONS = ROOT / "tests" / "sessions"

#: Timed runs per golden session and mode, and timed stretches per micro case.
REPEATS = 5

#: Calls in one timed stretch of a micro case.
MICRO_CALLS = 500

#: Calls in one timed stretch of a span, scan or form micro case, which
#: takes milliseconds where a field operation takes microseconds.
SPAN_CALLS = 20

#: The span micro cases, one session per arity 2*k.
SPAN_SESSION = ("field F = Q(sqrt 2);\nhom c = conj;\ngenpoly f = trace(product(id, c));\n"
                "check f(x^{k}) == f(x)^{k} on span(1, sqrt(2), 1+sqrt(2));\n")

#: The span micro cases on three Q-independent generators of Q(t), one
#: session per arity 2*k.
RATFUNC_SPAN_SESSION = ("field F = Q(t);\nhom s : t -> t+1;\ngenpoly f = trace(product(id, s));\n"
                        "check f(x^{k}) == f(x)^{k} on span(1, t, t^2);\n")

#: The general span micro cases, one session per degree D = 2*k.
GENERAL_SPAN_SESSION = ("field F = Q(sqrt 2);\nhom c = conj;\nmap h = (1/2)*id + (1/2)*c;\n"
                        "genpoly f = trace(product(id, c)) + trace(product(h));\n"
                        "check f(x^{k}+x) == f(x)^{k}+f(x) on span(1, sqrt(2), 1+sqrt(2));\n")

#: The scan micro cases: a degree scan and a quadratic classification.
SCAN_SESSIONS = {
    "degree": "field F = Q(t);\nhom s : t -> t^2;\ngenpoly f = trace(product(id, s));\ndegree f;\n",
    "classify": ("field F = Q(sqrt 2);\nhom c = conj;\nform N2 = product(id, c);\n"
                 "classify quadratic N2 with dictionary(id, c);\n"),
}

#: The poly micro cases: two integral numerators of Q(t) for each.
MICRO_POLYS = {
    "mul_qt": ("3*t^2+t-2", "2*t+5"),
    "gcd_qt": ("3*t^2+t-2", "t^4+t^3-2*t^2+3*t+5"),   # both divisible by t+1
}

#: The maps of the apply_map micro cases, on Q(t): each map kind once.
MAP_SESSION = ("field F = Q(t);\nhom s : t -> t^2;\nder d : t -> 1;\nmap m_identity = id;\n"
               "map m_zero = zero;\nmap m_endo = s;\nmap m_derivation = d;\nmap m_scale = 2*s;\n"
               "map m_sum = s + d;\nmap m_compose = s@d;\nhom a : t -> 2*t+1;\n")

#: The polynomial argument of the affine apply_map micro case.
MAP_POLYNOMIAL = "1+2*t+3*t^2"

#: The forms of the eval_form micro cases, on Q(sqrt 2), one per node
#: kind at arity n; c is conj.
FORM_NODES = {
    "product": "product({maps})",
    "mapprod": "mapprod(c, {n})",
    "lift": "lift(product(id, c), {half})",
    "lincomb": "lincomb(2*product({maps}), (1/2)*mapprod(c, {n}))",
}

#: The distinct arguments of the eval_form micro cases.
FORM_ARGUMENTS = ("1", "sqrt(2)", "1+sqrt(2)", "2-sqrt(2)", "1/2", "3*sqrt(2)", "-1", "5+sqrt(2)")

#: The two general elements x and y of each field's micro cases.
MICRO_ELEMENTS = {
    "Q": ("3/7", "-5/11"),
    "Q(sqrt 2)": ("(1+3*sqrt(2))/5", "(2-sqrt(2))/3"),
    "Q(t)": ("(t^2+1)/(t-2)", "(3*t+1)/(t^2+t+1)"),
    "Q(sqrt 2)(t)": ("(t^2+sqrt(2))/(t-2)", "(sqrt(2)*t+1)/(t^2+t+1)"),
}

#: The micro cases of field arithmetic, on x, y and the field's zero and one.
MICRO_OPS = {
    "add": lambda x, y, zero, one: x + y,
    "mul": lambda x, y, zero, one: x * y,
    "div": lambda x, y, zero, one: x / y,
    "add_zero": lambda x, y, zero, one: x + zero,
    "mul_zero": lambda x, y, zero, one: x * zero,
    "mul_one": lambda x, y, zero, one: x * one,
    "div_one": lambda x, y, zero, one: x / one,
}

#: poly_gcd micro cases: f, g and a common factor h of each field's variables.
MICRO_GCDS = {
    "Q(t)": ("t^4+3*t^2+t+1", "t^3-2*t+5", "t^2+t+1"),
    "Q(sqrt 2)(t)": ("t^4+sqrt(2)*t^2+1", "t^3-2*t+sqrt(2)", "t^2+sqrt(2)*t+1"),
    "Q(t, u)": ("t^2*u+3*t*u^2-u+2", "t*u^2-2*t^2+u+1", "t*u+2*t+1"),
}


def load_verdictbench():
    """``verdictbench/run.py`` as a module, for its reference loop and
    ``Clock``.  It imports its sibling modules by bare name; no bytecode
    is written beside them."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "verdictbench"))
    spec = importlib.util.spec_from_file_location("verdictbench_run", ROOT / "verdictbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def median_times(samples: list[tuple[float, float]]) -> dict:
    return {"wall_s": statistics.median(w for w, _ in samples),
            "rescaled_s": statistics.median(r for _, r in samples)}


def time_sessions(polcheck, clock) -> dict:
    out = {}
    for path in sorted(SESSIONS.glob("*.pol")):
        text = path.read_text(encoding="utf-8")
        modes = {}
        for mode, oracle_check in (("plain", False), ("oracle", True)):
            options = polcheck.RunOptions(seed=0, oracle_check=oracle_check)
            polcheck.run_session(polcheck.parse_session(text), options)
            samples = []
            for _ in range(REPEATS):
                clock.start()
                polcheck.run_session(polcheck.parse_session(text), options)
                samples.append(clock.stop())
            modes[mode] = median_times(samples)
        out[path.stem] = modes
    return out


def time_calls(clock, call, calls: int = MICRO_CALLS) -> dict:
    """The time of one call: the median over REPEATS stretches of
    ``calls`` calls, after one untimed call."""
    call()
    samples = []
    for _ in range(REPEATS):
        clock.start()
        for _ in range(calls):
            call()
        wall, rescaled = clock.stop()
        samples.append((wall / calls, rescaled / calls))
    return median_times(samples)


def time_micro(polcheck, clock) -> dict:
    from polcheck.forms import eval_form
    from polcheck.funceq import check_symmetrized, classify_quadratic_square
    from polcheck.genpoly import degree_estimate
    from polcheck.maps import apply_map
    from polcheck.oracle import Oracle, from_element
    from polcheck.polys import gcd_cofactors, poly_gcd
    from polcheck.session import default_probes

    rationals, quadratic = polcheck.FieldSpec.rationals(), polcheck.FieldSpec.quadratic(2)
    specs = {"Q": rationals, "Q(sqrt 2)": quadratic,
             "Q(t)": polcheck.FieldSpec.ratfunc(rationals, ["t"]),
             "Q(sqrt 2)(t)": polcheck.FieldSpec.ratfunc(quadratic, ["t"]),
             "Q(t, u)": polcheck.FieldSpec.ratfunc(rationals, ["t", "u"])}
    field = {}
    for name, (x_text, y_text) in MICRO_ELEMENTS.items():
        spec = specs[name]
        x, y, zero, one = spec.element(x_text), spec.element(y_text), spec.zero(), spec.one()
        field[name] = {op: time_calls(clock, lambda fn=fn: fn(x, y, zero, one))
                       for op, fn in MICRO_OPS.items()}
    gcd = {}
    for name, poly_texts in MICRO_GCDS.items():
        f, g, h = (specs[name].element(p).payload[0] for p in poly_texts)
        pairs = {"coprime": (f, g), "shared_factor": (f * h, g * h), "equal": (f * h, f * h)}
        gcd[name] = {case: time_calls(clock, lambda a=a, b=b: poly_gcd(a, b))
                     for case, (a, b) in pairs.items()}
    (f, g), (a, b) = ([specs["Q(t)"].element(p).payload[0] for p in pair] for pair in MICRO_POLYS.values())
    poly = {"mul_qt": time_calls(clock, lambda: f * g),
            "gcd_qt": time_calls(clock, lambda: gcd_cofactors(a, b))}
    maps = polcheck.parse_session(MAP_SESSION).env
    x = specs["Q(t)"].element(MICRO_ELEMENTS["Q(t)"][0])
    apply = {kind: time_calls(clock, lambda m=maps["m_" + kind]: apply_map(m, x))
             for kind in ("identity", "zero", "endo", "derivation", "scale", "sum", "compose")}
    for case, y in (("polynomial", specs["Q(t)"].element(MAP_POLYNOMIAL)), ("fraction", x)):
        apply[f"affine_{case}"] = time_calls(clock, lambda y=y: apply_map(maps["a"], y))
    span = {}
    for k in range(1, 5):
        for name, session in (("arity", SPAN_SESSION), ("ratfunc", RATFUNC_SPAN_SESSION),
                              ("general", GENERAL_SPAN_SESSION)):
            payload = polcheck.parse_session(session.format(k=k)).commands[0].payload
            args = [payload[key] for key in ("f", "p", "q", "generators")]
            span[f"{name}_{2 * k}"] = time_calls(
                clock, lambda args=args: check_symmetrized(*args), SPAN_CALLS)
    degree = polcheck.parse_session(SCAN_SESSIONS["degree"]).commands[0].payload["f"]
    probes = default_probes(degree.spec)
    classify = polcheck.parse_session(SCAN_SESSIONS["classify"]).commands[0].payload
    scan = {"degree": time_calls(clock, lambda: degree_estimate(degree, probes), SPAN_CALLS),
            "classify": time_calls(clock, lambda: classify_quadratic_square(
                classify["form"], classify["dictionary"], default_probes(quadratic)), SPAN_CALLS)}
    arguments = [quadratic.element(text) for text in FORM_ARGUMENTS]
    forms, built = {}, {}
    for n in (2, 4, 6, 8):
        maps = ", ".join(("id", "c")[i % 2] for i in range(n))
        for kind, node in FORM_NODES.items():
            text = node.format(maps=maps, n=n, half=n // 2)
            form = built[kind, n] = polcheck.parse_session(
                f"field F = Q(sqrt 2);\nhom c = conj;\nform A = {text};\n").env["A"]
            forms.setdefault(kind, {})[f"arity_{n}"] = time_calls(
                clock, lambda form=form, n=n: eval_form(form, arguments[:n]), SPAN_CALLS)
    oracle, diagonal = Oracle(quadratic), [from_element(arguments[2])] * 8
    forms["audited_product"] = {"arity_8": time_calls(
        clock, lambda: oracle.eval_form(built["product", 8], diagonal), SPAN_CALLS)}
    return {"calls": MICRO_CALLS, "field": field, "poly_gcd": gcd, "poly": poly, "apply_map": apply,
            "span_calls": SPAN_CALLS, "span": span, "scan": scan, "eval_form": forms}


def time_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"]
    start = time.perf_counter()
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "exit_code": result.returncode}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 bench/run.py OUT.json", file=sys.stderr)
        return 2
    verdictbench = load_verdictbench()
    sys.path.insert(0, str(SOURCES))
    import polcheck

    verdictbench.reference_work()  # warm up the reference loop
    clock = verdictbench.Clock()
    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "reference_s": verdictbench.REFERENCE_S,
        "repeats": REPEATS,
        "sessions": time_sessions(polcheck, clock),
        "micro": time_micro(polcheck, clock),
        "tier1": time_tier1(),
        "reference_work_s": statistics.median(clock.reference),
    }
    Path(args[0]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
