"""Command line interface.

``polcheck run <session-file>`` executes a session and prints a report.
Exit codes: 0 all commands pass, 1 any refutation or inapplicable
check, 2 usage or parse error, 3 internal inconsistency (the engine
disagreed with the independent oracle under --oracle-check), 4 internal
error (an unexpected exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ParseError, PolcheckError
from .session import MAX_SAMPLES, RunOptions, emit_report, parse_session, run_session


def _sample_count(text: str) -> int:
    """argparse type of ``--samples``: a positive integer within the
    sample budget."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_SAMPLES} samples, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polcheck",
        description="Verify and classify functional equations f(P(x)) = Q(f(x)) "
                    "for generalized polynomials, with exact arithmetic.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="execute a session file")
    run.add_argument("session", help="path to the session file")
    run.add_argument("--format", choices=("json", "text"), default="text")
    run.add_argument("--seed", type=int, default=None,
                     help="sampling seed (default: POLCHECK_SEED or 0)")
    run.add_argument("--samples", type=_sample_count, default=20,
                     help=f"default number of seeded samples per check (at most {MAX_SAMPLES})")
    run.add_argument("--oracle-check", action="store_true",
                     help="re-derive every engine value with the naive oracle")
    run.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv=None) -> int:
    try:
        return _run(argv)
    except Exception as exc:  # so that 1 only ever means a verdict
        print(f"polcheck: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None:
        seed = args.seed
    else:
        try:
            seed = int(os.environ.get("POLCHECK_SEED", "0"))
        except ValueError:
            print("polcheck: POLCHECK_SEED must be an integer", file=sys.stderr)
            return 2
    try:
        with open(args.session, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"polcheck: cannot read session: {exc}", file=sys.stderr)
        return 2
    try:
        session = parse_session(source)
    except (ParseError, PolcheckError) as exc:
        print(f"polcheck: {exc}", file=sys.stderr)
        return 2
    options = RunOptions(seed=seed, samples=args.samples, oracle_check=args.oracle_check)
    doc = run_session(session, options)
    payload = emit_report(doc, args.format)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return doc.exit_code


if __name__ == "__main__":
    sys.exit(main())
