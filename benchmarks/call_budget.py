"""Host-independent call budget for the gate's ``bulk-1m`` shape.

Serves the ``bulk-1m`` point of ``gate.py`` (one continuous engine,
batch 64, bucket 2048, a saturating Poisson trace whose admissions,
completions and records come in whole cohorts) cut to
:data:`REQUESTS` requests, twice in one process: the first run warms
the step-cost store, and the second runs under cProfile.  Its total
function-call count is compared with the budget in
``BENCH_calls.json``.

Wall time on a shared host cannot tell a few per cent of per-request
creep from noise, but a call count repeats exactly on one interpreter
(it moves with the interpreter version, which the budget records).  A
change that adds a call per request or per step shows here at once.

Usage::

    python benchmarks/call_budget.py --check    # CI (default)
    python benchmarks/call_budget.py --record   # rewrite the budget

``--check`` fails when the count exceeds the budget, and exits with an
error on an interpreter other than the recorded one.  Re-record in the
change that moves the count, and give both numbers in its notes.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import pstats
import sys
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
from repro.serve.sweep import _resolve_design, _serve  # noqa: E402

BUDGET_PATH = ROOT / "BENCH_calls.json"
POINT = "bulk-1m"
#: Requests the point is cut to: enough for thousands of completion
#: cohorts, small enough for a CI step (a few seconds).
REQUESTS = 50_000


def interpreter() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def count_calls() -> int:
    """cProfile calls of one warm serve of the cut point."""
    point = gate._scenarios()[POINT]
    point = replace(point, trace=replace(point.trace, n_requests=REQUESTS))
    design = _resolve_design(point)
    trace = point.trace.realize()
    _serve(point, design, trace)
    profiler = cProfile.Profile()
    profiler.enable()
    _serve(point, design, trace)
    profiler.disable()
    return pstats.Stats(profiler).total_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed budget "
                           "(default)")
    mode.add_argument("--record", action="store_true",
                      help=f"rewrite {BUDGET_PATH.name} with this "
                           f"interpreter's count")
    args = parser.parse_args(argv)

    if not args.record:
        budget = json.loads(BUDGET_PATH.read_text())
        if budget["python"] != interpreter():
            parser.error(f"the budget was recorded on Python "
                         f"{budget['python']}; this is Python "
                         f"{interpreter()}, whose call counts differ")
    calls = count_calls()
    print(f"{POINT} cut to {REQUESTS} requests: {calls} calls "
          f"(Python {interpreter()})")
    if args.record:
        BUDGET_PATH.write_text(json.dumps(
            {"point": POINT, "requests": REQUESTS, "python": interpreter(),
             "calls": calls}, indent=2) + "\n")
        print(f"budget written to {BUDGET_PATH}")
        return 0
    if calls > budget["calls"]:
        print(f"FAIL: {calls - budget['calls']} calls over the budget of "
              f"{budget['calls']}; a deliberate change re-records it with "
              f"--record")
        return 1
    print(f"call budget passed: {calls} <= {budget['calls']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
