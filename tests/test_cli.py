"""Command line behaviour: exit codes, formats, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polcheck.cli import main
from polcheck.fields import MAX_POWER_BITS
from polcheck.maps import MAX_DEPTH, MAX_NODES, degree_multiplier, tree_size
from polcheck.session import MAX_SAMPLES, parse_session

SESSIONS = Path(__file__).parent / "sessions"
SOURCES = Path(__file__).parent.parent / "src"


def child_env(env=None):
    """env (default: this process's environment) with src/ put first on
    PYTHONPATH, so that a child process imports polcheck from there."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env=None):
    """Run the CLI in a child process that imports polcheck from src/,
    with env (default: this process's environment) as its environment."""
    cmd = [sys.executable, "-m", "polcheck.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(env))


def test_passing_session_exit_zero(tmp_path):
    result = run_cli("run", str(SESSIONS / "norm_square.pol"), "--seed", "5")
    assert result.returncode == 0
    assert "HOLDS_ON_SPAN" in result.stdout


def test_refuted_session_exit_one():
    result = run_cli("run", str(SESSIONS / "counterexample.pol"), "--seed", "5")
    assert result.returncode == 1
    assert "REFUTED" in result.stdout


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.pol"
    bad.write_text("field F = Q(sqrt 2)\n")
    result = run_cli("run", str(bad))
    assert result.returncode == 2
    assert "polcheck:" in result.stderr


def test_missing_file_exit_two():
    result = run_cli("run", "/nonexistent/session.pol")
    assert result.returncode == 2


def test_non_utf8_session_exit_two(tmp_path):
    bad = tmp_path / "bad.pol"
    bad.write_bytes(b"field F = Q;\xff\xfe")
    result = run_cli("run", str(bad))
    assert result.returncode == 2
    assert "polcheck: cannot read session:" in result.stderr
    assert "Traceback" not in result.stderr


def test_deep_nesting_exit_two(tmp_path):
    deep = tmp_path / "deep.pol"
    deep.write_text("field F = Q;\nform S = product(id, id);\ngenpoly f = trace(S);\n"
                    "check f(x) == " + "(" * 400 + "f(x)" + ")" * 400 + ";\n")
    result = run_cli("run", str(deep))
    assert result.returncode == 2
    assert "nested deeper than" in result.stderr and "line 4" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("literal,message", [
    ("1" * 5000, "integer literal longer than"),
    ("\u00b2", "unexpected character"),
], ids=["5000 digits", "superscript digit"])
def test_bad_integer_literal_exit_two(tmp_path, literal, message):
    bad = tmp_path / "literal.pol"
    bad.write_text("field F = Q;\nform S = product(id, id);\ngenpoly f = trace(S);\n"
                   "check f(x) == " + literal + "*f(x);\n", encoding="utf-8")
    result = run_cli("run", str(bad))
    assert result.returncode == 2
    assert message in result.stderr and "line 4" in result.stderr
    assert "Traceback" not in result.stderr


def test_long_sign_chain_reaches_a_verdict(tmp_path):
    signs = tmp_path / "signs.pol"
    signs.write_text("field F = Q;\nform S = product(id, id);\ngenpoly f = trace(S);\n"
                     "check f(x) == " + "-" * 1000 + "f(x);\n")
    result = run_cli("run", str(signs))
    assert result.returncode == 0
    assert "HOLDS_ON_SAMPLE" in result.stdout
    assert "Traceback" not in result.stderr


def test_value_too_large_to_print_is_an_error_verdict(tmp_path, capsys):
    big = tmp_path / "big.pol"
    big.write_text("field F = Q;\nform S = product(id, id);\ngenpoly f = trace(S);\n"
                   "polarize f at (9^5000, 1);\n")
    assert main(["run", str(big)]) == 1
    out, err = capsys.readouterr()
    assert "verdict: ERROR" in out and "ValueTooLarge" in out
    assert "Traceback" not in err
    assert main(["run", str(big), "--format", "json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert entry["verdict"] == "ERROR"
    assert entry["detail"].startswith("ValueTooLarge: value has more than")


def test_degree_past_the_key_width_is_an_error_verdict(tmp_path, capsys):
    # on Q(t, u) the image t^60000 sends x^10000 at the probe x = t to
    # degree 6*10^8, and the product of eight such values passes 2^32: an
    # ERROR entry, not a carry from one exponent field into the next
    wide = tmp_path / "wide.pol"
    wide.write_text("field F = Q(t, u);\nhom s : t -> " + "*".join(["t^10000"] * 6) + ", u -> u;\n"
                    "genpoly f = trace(product(s, s, s, s, s, s, s, s));\n"
                    "check f(x^10000) == f(x)^10000;\n")
    for extra in ([], ["--oracle-check"]):
        assert main(["run", str(wide), "--format", "json", *extra]) == 1
        out, err = capsys.readouterr()
        (entry,) = json.loads(out)["entries"]
        assert entry["verdict"] == "ERROR" and err == ""
        assert entry["detail"] == ("ValueTooLarge: product of total degree 4800000000 "
                                   "in several variables reaches 2^32")


@pytest.mark.parametrize("rhs", ["f(x)^-2", "f(x)/f(x)", "f(x)/(1-1)", "x", "(f(x)+1)^20000"])
def test_bad_check_expression_exit_two(tmp_path, capsys, rhs):
    bad = tmp_path / "bad.pol"
    bad.write_text("field F = Q;\nform S = product(id, id);\ngenpoly f = trace(S);\n"
                   f"check f(x) == {rhs};\n")
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("polcheck: ") and "Traceback" not in err


DECLARE_F = "form S = product(id, id); genpoly f = trace(S);"


@pytest.mark.parametrize("field,statement,message", [
    ("Q", "map m = (1/0)*id;", "division by zero"),
    ("Q(sqrt 2)", "map m = (sqrt(3))*id;", "sqrt(3) does not belong to Q(sqrt 2)"),
    ("Q", "form A = lincomb((1/0)*product(id, id));", "division by zero"),
    ("Q", f"{DECLARE_F} check f(x) == f(x) on span(1, 1/0);",
     "division by zero element at line 2, column 79"),
    ("Q", f"{DECLARE_F} polarize f at (2, 0^-1);",
     "0 raised to a negative power at line 2, column 67"),
    ("Q(t)", "hom s : t -> 1/(t-t);", "division by zero element at line 2, column 14"),
    ("Q", f"{DECLARE_F} check f(x) == f(x)/(1-1);",
     "division by zero in a check expression at line 2, column 63"),
    ("Q", f"{DECLARE_F} check f(x/0) == f(x);",
     "division by zero in a check expression at line 2, column 57"),
    ("Q(sqrt 2)", "map m = 2*id + (1+sqrt(3))*id;",
     "sqrt(3) does not belong to Q(sqrt 2) (expected sqrt(2)) at line 2, column 17"),
    # a power is refused from its degree in t, before it is computed
    ("Q(t)", "map m = (t^1099511627776)*id; genpoly f = trace(product(m)); check f(x) == f(x);",
     "element of degree above 10000 at line 2, column 25"),
    ("Q(t)", "hom s : t -> (t^2+1)^5001/t;", "element of degree above 10000 at line 2, column 26"),
    ("Q(t)", "genpoly f = trace(product(id)); polarize f at (t^-20000);",
     "element of degree above 10000 at line 2, column 56"),
    ("Q(t)", "genpoly f = trace(product(id)); check f((t^20000)*x) == f(x);",
     "element of degree above 10000 at line 2, column 49"),
    ("Q(t)", "genpoly f = trace(product(id)); check f(x) == (1/t)^(-10001)*f(x);",
     "element of degree above 10000 at line 2, column 61"),
    # so is a composition, from the degrees of the images, at its first `@` too many
    ("Q(t)", "hom s : t -> t^100; map m = s@s@s; verify additive m;",
     "composition multiplies degrees by more than 10000 at line 2, column 32"),
    ("Q(t)", "hom s : t -> t^100; map m = s@s; map n = 2*m@(s + id);",
     "composition multiplies degrees by more than 10000 at line 2, column 45"),
    ("Q(t, u)", "hom s : t -> t^50*u^51; map m = s@s;",
     "composition multiplies degrees by more than 10000 at line 2, column 34"),
])
def test_bad_scalar_reports_its_own_error(tmp_path, capsys, field, statement, message):
    bad = tmp_path / "bad.pol"
    bad.write_text(f"field F = {field};\n{statement}\n")
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"polcheck: {message}")
    assert " at line 2, column " in err


@pytest.mark.parametrize("statement,message,keyword", [
    ("rank f mult translates(0, 1) points(1, 2);",
     "multiplicative translates must be nonzero", "translates"),
    ("rank f add translates(1, 2, 3) points(1);",
     "need at least as many points as translates", "points"),
])
def test_rank_usage_errors_are_parse_errors(tmp_path, capsys, statement, message, keyword):
    statement = f"{DECLARE_F} {statement}"
    bad = tmp_path / "bad.pol"
    bad.write_text(f"field F = Q;\n{statement}\n")
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    column = statement.index(keyword) + 1
    assert out == "" and err == f"polcheck: {message} at line 2, column {column}\n"


@pytest.mark.parametrize("count", ["0", "00", "10001", "99999999999"])
def test_sample_count_outside_the_budget_is_a_parse_error(tmp_path, capsys, count):
    statement = f"{DECLARE_F} check f(x) == f(x) on samples({count}, seed=1);"
    bad = tmp_path / "bad.pol"
    bad.write_text(f"field F = Q;\n{statement}\n")
    assert main(["run", str(bad)]) == 2
    out, err = capsys.readouterr()
    column = statement.index(f"({count}") + 2
    assert out == "" and err == (f"polcheck: sample count must be between 1 and {MAX_SAMPLES}"
                                 f" at line 2, column {column}\n")


def test_dense_power_is_refused_before_expansion(tmp_path, capsys, time_limit):
    dense = tmp_path / "dense.pol"
    dense.write_text("field F = Q(sqrt 2);\nhom c = conj;\ngenpoly f = trace(product(id, c));\n"
                     "check f((x+1)^400) == f(x);\n")
    with time_limit(5, "polcheck run"):
        assert main(["run", str(dense)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("polcheck: power needs more than 10000 coefficient products")


@pytest.mark.parametrize("element", ["(t^2+1)^5000/t", "(t^2+u+1)^200", "(t+u)^5000"])
def test_dense_element_power_is_refused_before_expansion(tmp_path, capsys, time_limit, element):
    dense = tmp_path / "dense.pol"
    dense.write_text(f"field F = Q(t, u);\nhom s : t -> {element};\nverify additive s;\n")
    with time_limit(1, "polcheck run"):
        assert main(["run", str(dense)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("polcheck: power needs more than 10000 coefficient products")
    assert "at line 2, " in err


def test_sparse_and_small_element_powers_are_accepted():
    session = parse_session("field F = Q(t, u);\nhom s : t -> (t^2+1)^50/t;\nhom r : t -> t^10000;\n"
                            "hom q : u -> (t+u)^40;\nverify additive s;\nverify additive r;\n")
    assert len(session.commands) == 2


# (field, statement) pairs: the first power is exactly at the digit budget
# (|k| times the bit length of the base's largest integer), the second just past it
_DIGIT_BUDGET = {
    "element": ("Q", DECLARE_F + " polarize f at (2^50000, 1);",
                DECLARE_F + " polarize f at (2^50001, 1);"),
    "map scalar": ("Q(sqrt 2)", "map m = ((1+sqrt(2))^100000)*id;",
                   "map m = ((1+sqrt(2))^100001)*id;"),
    "check constant": ("Q", DECLARE_F + " check f(x) == (9^25000)*f(x) on samples(1);",
                       DECLARE_F + " check f(x) == (9^25001)*f(x) on samples(1);"),
    "check coefficient": ("Q", DECLARE_F + " check f(((2^999)*x)^100) == f(x) on samples(1);",
                          DECLARE_F + " check f(((2^999)*x)^101) == f(x) on samples(1);"),
}


@pytest.mark.parametrize("where", sorted(_DIGIT_BUDGET))
def test_power_digits_are_bounded_before_the_power(tmp_path, capsys, time_limit, where):
    field, accepted, refused = _DIGIT_BUDGET[where]
    assert MAX_POWER_BITS == 100_000
    parse_session(f"field F = {field};\n{accepted}\n")
    big = tmp_path / "big.pol"
    big.write_text(f"field F = {field};\n{refused}\n")
    with time_limit(1, "polcheck run"):
        assert main(["run", str(big)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"polcheck: power needs more than {MAX_POWER_BITS} binary digits "
                          f"at line 2, ")


@pytest.mark.parametrize("field,statement", [
    ("Q", DECLARE_F + " polarize f at (9^2000000, 1);"),
    ("Q(sqrt 2)", "map m = ((1+sqrt(2))^2000000)*id;"),
    ("Q", DECLARE_F + " check f(x) == (9^2000000)*f(x) on samples(1);"),
    ("Q(t)", "hom s : t -> (9^1000*t)^10000;"),
    ("Q", DECLARE_F + " check f((9^1000*x)^10000) == f(x) on samples(1);"),
])
def test_huge_constant_powers_are_refused_quickly(tmp_path, capsys, time_limit, field, statement):
    # each took seconds before it failed or passed: 9^2000000 alone has 1.9 million digits
    big = tmp_path / "big.pol"
    big.write_text(f"field F = {field};\n{statement}\n")
    with time_limit(1, "polcheck run"):
        assert main(["run", str(big)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "binary digits at line 2, " in err


def _chain(head: str, step: str, levels: int, tail: str) -> str:
    return head + "".join(step.format(i=i, j=i - 1) for i in range(1, levels + 1)) + tail


# m_i is a Scale chain of depth i + 1; A_i lifts product(id, id), of depth 2, i times
_NESTED = {
    "scale": ("field F = Q(t);\nmap m0 = id;\n", "map m{i} = 2*m{j};\n", MAX_DEPTH - 1,
              "verify additive m{n};\n"),
    "lift": ("field F = Q(t);\nform A0 = product(id, id);\n", "form A{i} = lift(A{j}, 1);\n",
             MAX_DEPTH - 2, "genpoly f = trace(A{n});\ncheck f(x) == f(x) on samples(1);\n"),
}


@pytest.mark.parametrize("extra", [[], ["--oracle-check"]])
@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_nesting_at_the_depth_budget_reaches_a_verdict(tmp_path, capsys, kind, extra):
    head, step, levels, tail = _NESTED[kind]
    deep = tmp_path / "deep.pol"
    deep.write_text(_chain(head, step, levels, tail.format(n=levels)))
    assert main(["run", str(deep), *extra]) == 0
    _, err = capsys.readouterr()
    assert err == ""


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_nesting_past_the_depth_budget_is_refused(tmp_path, capsys, kind):
    head, step, levels, tail = _NESTED[kind]
    deep = tmp_path / "deep.pol"
    deep.write_text(_chain(head, step, levels + 1, tail.format(n=levels + 1)))
    assert main(["run", str(deep), "--oracle-check"]) == 2
    out, err = capsys.readouterr()
    line = head.count("\n") + levels + 1  # the statement one level past the budget
    assert out == "" and err.startswith(
        f"polcheck: expression nests map and form nodes deeper than {MAX_DEPTH} at line {line}, ")


def test_element_power_of_degree_10000_is_accepted():
    session = parse_session("field F = Q(t);\nhom s : t -> t^10000;\nmap m = ((t^-5000)^2)*s;\n"
                            "genpoly f = trace(product(m));\n"
                            "check f((t^10000)*x) == (1/t)^(-10000)*f(x);\n")
    assert len(session.commands) == 1


def test_composition_of_degree_10000_is_accepted():
    session = parse_session("field F = Q(t);\nhom s : t -> t^100;\nmap m = s@s;\n"
                            "map n = id@m@(2*id - zero);\nverify additive n;\n")
    assert degree_multiplier(session.env["n"]) == 10_000
    assert len(session.commands) == 1
    # a chain longer than the recursion limit is measured without recursing along it
    chain = "@".join(["id"] * 1500)
    session = parse_session(f"field F = Q(t);\nmap m = {chain};\nmap n = m@id;\n")
    assert degree_multiplier(session.env["n"]) == 1
    assert tree_size(session.env["n"])[0] == 3001 <= MAX_NODES


@pytest.mark.parametrize("extra", [[], ["--oracle-check"]])
def test_long_composition_chain_reaches_a_verdict(tmp_path, capsys, extra):
    # both evaluators walk a chain longer than the recursion limit in a loop
    chain = tmp_path / "chain.pol"
    chain.write_text("field F = Q(t);\nmap m = " + "@".join(["id"] * 1500) + ";\n"
                     "verify additive m;\n")
    assert main(["run", str(chain), *extra]) == 0
    out, err = capsys.readouterr()
    assert "additive: pass" in out and err == ""


def _doubling(head: str, step: str, levels: int, tail: str) -> str:
    return head + "".join(step.format(i=i, j=i - 1) for i in range(1, levels + 1)) + tail


@pytest.mark.parametrize("source,line", [
    # m_i expands to 2^i + 1 nodes: m12, on line 14, is the first over the budget
    (_doubling("field F = Q(t);\nmap m0 = id;\n", "map m{i} = m{j} + m{j};\n", 16,
               "verify additive m16;\n"), 14),
    # m_i expands to 2^(i+1) - 1 nodes: m12 again
    (_doubling("field F = Q(t);\nmap m0 = id;\n", "map m{i} = m{j}@m{j};\n", 16,
               "verify additive m16;\n"), 14),
    # A_i expands to 2^(i+2) - 1 nodes: A11, on line 13
    (_doubling("field F = Q(t);\nform A0 = product(id, id);\n",
               "form A{i} = lincomb(A{j}, A{j});\n", 14,
               "genpoly f = trace(A14);\ncheck f(x) == f(x) on samples(1);\n"), 13),
], ids=["sum", "compose", "lincomb"])
def test_doubling_named_maps_and_forms_are_refused(tmp_path, capsys, time_limit, source, line):
    session = tmp_path / "doubling.pol"
    session.write_text(source)
    with time_limit(1, "refusing the session"):
        assert main(["run", str(session)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith(f"polcheck: expression expands to more than {MAX_NODES} map and "
                          f"form nodes at line {line}, ")


def test_unexpected_exception_is_one_line_with_exit_four(monkeypatch, capsys):
    def broken(session, options):
        raise RuntimeError("engine fault")

    monkeypatch.setattr("polcheck.cli.run_session", broken)
    assert main(["run", str(SESSIONS / "norm_square.pol")]) == 4
    out, err = capsys.readouterr()
    assert err == "polcheck: internal error: RuntimeError: engine fault\n"
    assert out == "" and "Traceback" not in err


def test_usage_error_exit_two():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_json_output_to_file(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("run", str(SESSIONS / "squared_hom.pol"),
                     "--format", "json", "--out", str(out), "--seed", "3")
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "1" and doc["seed"] == 3


def test_env_seed_default(tmp_path):
    out = tmp_path / "report.json"
    import os

    env = dict(os.environ, POLCHECK_SEED="99")
    run_cli("run", str(SESSIONS / "empty.pol"), "--format", "json",
            "--out", str(out), env=env)
    assert json.loads(out.read_text())["seed"] == 99


def test_seed_flag_overrides_env(tmp_path):
    out = tmp_path / "report.json"
    import os

    env = dict(os.environ, POLCHECK_SEED="99")
    run_cli("run", str(SESSIONS / "empty.pol"), "--seed", "4",
            "--format", "json", "--out", str(out), env=env)
    assert json.loads(out.read_text())["seed"] == 4


def test_non_integer_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("POLCHECK_SEED", "abc")
    assert main(["run", str(SESSIONS / "empty.pol")]) == 2
    err = capsys.readouterr().err
    assert "polcheck: POLCHECK_SEED must be an integer" in err
    assert "Traceback" not in err
    # an explicit --seed means the variable is never read
    assert main(["run", str(SESSIONS / "empty.pol"), "--seed", "4"]) == 0


@pytest.mark.parametrize("flag,value", [
    ("--samples", "0"), ("--samples", "-3"), ("--samples", "x"),
])
def test_non_positive_count_is_a_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(SESSIONS / "empty.pol"), flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected a positive integer, got '{value}'" in capsys.readouterr().err


def test_max_arity_is_an_unrecognized_argument(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(SESSIONS / "empty.pol"), "--max-arity", "6"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --max-arity 6" in capsys.readouterr().err


def test_samples_above_the_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(SESSIONS / "empty.pol"), "--samples", str(MAX_SAMPLES + 1)])
    assert exit_info.value.code == 2
    assert (f"argument --samples: expected at most {MAX_SAMPLES} samples, got '{MAX_SAMPLES + 1}'"
            in capsys.readouterr().err)
    assert main(["run", str(SESSIONS / "empty.pol"), "--samples", str(MAX_SAMPLES)]) == 0


def test_import_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, polcheck; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
