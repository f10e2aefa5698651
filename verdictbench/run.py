"""Time-to-verdict benchmark for polcheck.

    python3 verdictbench/run.py --workload span-quadratic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the command imports polcheck from
``src/`` of that checkout.  It builds the workload's sessions from the
seed, checks every answer against the one fixed by construction, and
prints one JSON object as its last line of output:

* ``--trace 0``: ``setup_s`` (median time to import polcheck and parse
  every session of one pass), ``run_s`` (median time of one pass
  running every session to its verdicts), both rescaled to the speed of
  a reference loop (see ``Clock``), and ``peak_rss_mib``;
* ``--trace 1``: the per-layer metrics of ``tracer.REPORTED`` (medians
  over traced passes), ``trace.pass_s`` and ``trace.overhead_s``.

Exit codes: 0 a result was printed, 2 a usage error or no polcheck
sources next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import typing
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

#: Fewest passes a run measures, however long they take.
MIN_PASSES = 3

#: Errors printed on standard error before the rest are only counted.
MAX_REPORTED_ERRORS = 5

#: Terms summed by one ``reference_work()`` call.
REFERENCE_TERMS = 1300

#: Nominal seconds of one ``reference_work()`` call: about its median time
#: on the shared 2-core 2.0 GHz x86-64 virtual machine (Python 3.11.7) of
#: the README's figures, so that there rescaled and wall times agree.
REFERENCE_S = 0.0145


def reference_work() -> int:
    """A fixed stretch of interpreter work: an exact sum of small
    fractions with a Euclid gcd, and a dict.  Builtins only, so no change
    to polcheck and no module it patches can alter it."""
    num, den, seen = 0, 1, {}
    for i in range(1, REFERENCE_TERMS):
        p, q = i % 7 + 1, 3 * (i % 97 + 1)
        num, den = num * q + p * den, den * q
        a, b = num, den
        while b:
            a, b = b, a % b
        num, den = num // a, den // a
        seen[num % 101, i % 13] = den
    return num


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Clock:
    """Times stretches of work, and rescales each to the machine's speed.

    On a shared host the same work can take from one to two times its
    fastest time, in phases that last from seconds to minutes, so the
    median wall time of a 30-second run moves by a quarter from run to
    run.  The clock times ``reference_work()`` just before and just after
    each stretch and multiplies the stretch by ``REFERENCE_S`` over the
    mean of the two: the stretch's time on a machine running at the
    reference's nominal speed.  With ``rescale`` off it is a plain
    stopwatch."""

    def __init__(self, rescale: bool = True):
        self.rescale = rescale
        self.reference: list[float] = []

    def start(self) -> None:
        if self.rescale:
            self.before = reference_time()
        self.began = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """The wall time since ``start`` and its rescaled value."""
        wall = time.perf_counter() - self.began
        if not self.rescale:
            return wall, wall
        after = reference_time()
        self.reference += [self.before, after]
        return wall, wall * 2 * REFERENCE_S / (self.before + after)


def drop_polcheck() -> None:
    """Forget every polcheck module and collect the old copies, so that
    neither their memory nor their collection lands in the next pass."""
    for name in [n for n in sys.modules if n == "polcheck" or n.startswith("polcheck.")]:
        del sys.modules[name]
    # typing memoizes subscripted types such as Union[Fraction, QuadRat, tuple];
    # each entry would keep a whole old copy of polcheck alive.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


class Tally:
    """Operations attempted and failed, and answers that were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            print(f"wrong answer: {message}", file=sys.stderr)
        self.errors.append(message)

    def check(self, case, doc) -> None:
        """Compare one session's report with its answers; each command
        is one operation, and a command the engine could not run fails."""
        if len(doc.entries) != len(case.expects):
            self.attempted += len(case.expects)
            self.error(f"{len(doc.entries)} entries for {len(case.expects)} commands")
            return
        if case.oracle_check and not doc.consistent:
            self.error("engine and oracle disagree (exit code 3)")
        for entry, expect in zip(doc.entries, case.expects):
            self.attempted += 1
            if entry.get("verdict") == "ERROR":
                self.failed += 1
                continue
            problem = workloads.entry_error(expect, entry, case.radicand)
            if case.oracle_check and problem is None and not entry.get("oracle_checked"):
                problem = "the oracle did not audit this command"
            if problem:
                self.error(f"[{entry.get('command')}] {problem}")

    def crashed(self, case) -> None:
        """Count a session that raised; call from its ``except`` block."""
        if not self.failed:
            traceback.print_exc(file=sys.stderr)
        self.attempted += len(case.expects)
        self.failed += len(case.expects)


def run_pass(polcheck, cases, sessions, tally: Tally, clock: Clock) -> tuple[float, float]:
    """Run every session to its verdicts; returns the seconds spent in
    ``run_session`` alone, as wall time and rescaled by ``clock``."""
    wall = scaled = 0.0
    for case, session in zip(cases, sessions):
        options = polcheck.RunOptions(seed=case.engine_seed, oracle_check=case.oracle_check)
        clock.start()
        try:
            doc = polcheck.run_session(session, options)
        except Exception:  # a crash fails the session's operations, not the run
            doc = None
        spent = clock.stop()
        wall, scaled = wall + spent[0], scaled + spent[1]
        if doc is None:
            tally.crashed(case)
        else:
            tally.check(case, doc)
    return wall, scaled


def parse_and_run(polcheck, cases, tally: Tally) -> float:
    """One pass including parsing, as the traced run measures it."""
    start = time.perf_counter()
    sessions = [polcheck.parse_session(case.text) for case in cases]
    run_pass(polcheck, cases, sessions, tally, Clock(rescale=False))
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics, with tracing off.  Each pass imports polcheck
    afresh and parses its sessions (set-up), then runs them (run), as a
    fresh ``polcheck run`` would; the set-up samples are spread over the
    whole run like the run samples, so both see the same machine."""
    importlib.import_module("polcheck")  # compile bytecode, load the standard library
    reference_work()  # warm up the reference loop too
    clock = Clock()
    setup_times: list[tuple[float, float]] = []
    run_times: list[tuple[float, float]] = []
    start = time.perf_counter()
    while len(run_times) < MIN_PASSES or time.perf_counter() - start < seconds:
        cases = workloads.build(workload, seed, len(run_times))
        drop_polcheck()
        clock.start()
        polcheck = importlib.import_module("polcheck")
        sessions = [polcheck.parse_session(case.text) for case in cases]
        setup_times.append(clock.stop())
        run_times.append(run_pass(polcheck, cases, sessions, tally, clock))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def quartiles(samples, which):
        return ", ".join(f"{q:.4g}" for q in statistics.quantiles([s[which] for s in samples], n=4))

    print(f"{len(run_times)} passes; quartiles of wall setup {quartiles(setup_times, 0)} s, "
          f"rescaled {quartiles(setup_times, 1)} s; of wall run {quartiles(run_times, 0)} s, "
          f"rescaled {quartiles(run_times, 1)} s; reference_work() took "
          f"{statistics.median(clock.reference) / REFERENCE_S:.3g} times its nominal "
          f"{REFERENCE_S} s (median)", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(s for _, s in setup_times), "unit": "s"},
        "run_s": {"value": statistics.median(s for _, s in run_times), "unit": "s"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def measure_traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics: each pass runs once untraced and once traced."""
    polcheck = importlib.import_module("polcheck")
    samples: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(samples) < MIN_PASSES or time.perf_counter() - start < seconds:
        cases = workloads.build(workload, seed, len(samples))
        plain = parse_and_run(polcheck, cases, tally)
        with tracer.Tracer() as trace:
            traced = parse_and_run(polcheck, cases, tally)
        sample = trace.metrics()
        sample["trace.pass_s"] = traced
        sample["trace.overhead_s"] = traced - plain
        samples.append(sample)
    absent = trace.absent()
    if absent:
        print(f"absent layers (function not found): {', '.join(absent)}", file=sys.stderr)
    return {name: {"value": statistics.median(s[name] for s in samples),
                   "unit": tracer.unit(name)}
            for name in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "polcheck" / "__init__.py").is_file():
        print(f"no polcheck sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    tally = Tally()
    measure_fn = measure_traced if args.trace else measure
    metrics = measure_fn(args.workload, args.seed, args.seconds, tally)
    for name, metric in metrics.items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"{len(tally.errors)} wrong")
    print(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
