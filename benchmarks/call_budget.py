"""Host-independent call budgets for three of the gate's serving shapes.

Each shape is a gate point, two of them cut to a few thousand requests,
served twice in one process: the first run warms the step-cost store,
and the second runs under cProfile.  Its total function-call count is
compared with the shape's budget in ``BENCH_calls.json``.

* ``bulk-1m`` (one continuous engine, batch 64, bucket 2048, a
  saturating Poisson trace whose admissions, completions and records
  come in whole cohorts) cut to 50,000 requests: per-request creep.
  Its decode windows never cross a cost bucket.
* ``bulk-100k`` (one continuous engine, batch 16, bucket 256) cut to
  10,000 requests: decode windows cross cost buckets, so every leap
  runs the engine's segment loop.
* ``elastic`` (a paged fair-share fleet under a reactive autoscaler,
  with scaler ticks, on a one-hour diurnal two-tenant slice), whole:
  its trace is sized by its duration, 1,360 requests.  Paged plans,
  chunked prefill, replica boots and retirements.

Wall time on a shared host cannot tell a few per cent of per-request
creep from noise, but a call count repeats exactly on one interpreter
(it moves with the interpreter version, which the budget records).  A
change that adds a call per request or per step shows here at once.

Usage::

    python benchmarks/call_budget.py --check    # CI (default)
    python benchmarks/call_budget.py --record   # rewrite the budgets

``--check`` fails when any shape's count exceeds its budget, and exits
with an error on an interpreter other than the recorded one.
Re-record in the change that moves a count, and give both numbers in
its notes.
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
#: Gate point -> the requests it is cut to: enough for thousands of
#: completion cohorts (or leap segments), small enough for a CI step.
#: None serves the whole point (a trace sized by its duration).
SHAPES = {"bulk-1m": 50_000, "bulk-100k": 10_000, "elastic": None}


def interpreter() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def count_calls(name: str, requests: int | None) -> tuple[int, int]:
    """``(requests served, cProfile calls)`` of one warm serve of gate
    point ``name``, cut to ``requests`` requests unless None."""
    point = gate._scenarios()[name]
    if requests is not None:
        point = replace(point, trace=replace(point.trace,
                                             n_requests=requests))
    design = _resolve_design(point)
    trace = point.trace.realize()
    _serve(point, design, trace)
    profiler = cProfile.Profile()
    profiler.enable()
    _serve(point, design, trace)
    profiler.disable()
    return len(trace), pstats.Stats(profiler).total_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed budgets "
                           "(default)")
    mode.add_argument("--record", action="store_true",
                      help=f"rewrite {BUDGET_PATH.name} with this "
                           f"interpreter's counts")
    args = parser.parse_args(argv)

    if not args.record:
        budget = json.loads(BUDGET_PATH.read_text())
        if budget["python"] != interpreter():
            parser.error(f"the budgets were recorded on Python "
                         f"{budget['python']}; this is Python "
                         f"{interpreter()}, whose call counts differ")
        missing = [name for name in SHAPES
                   if name not in budget["shapes"]]
        if missing:
            parser.error(f"{BUDGET_PATH.name} has no budget for "
                         f"{', '.join(missing)}; re-record with --record")
    counts, served = {}, {}
    for name, requests in SHAPES.items():
        served[name], counts[name] = count_calls(name, requests)
        print(f"{name} serving {served[name]} requests: {counts[name]} "
              f"calls (Python {interpreter()})")
    if args.record:
        BUDGET_PATH.write_text(json.dumps(
            {"python": interpreter(),
             "shapes": {name: {"requests": served[name],
                               "calls": counts[name]}
                        for name in SHAPES}},
            indent=2) + "\n")
        print(f"budgets written to {BUDGET_PATH}")
        return 0
    stale = [name for name in SHAPES
             if budget["shapes"][name]["requests"] != served[name]]
    if stale:
        parser.error(f"{BUDGET_PATH.name} budgets {', '.join(stale)} at "
                     f"another trace size; re-record with --record")
    failed = False
    for name, calls in counts.items():
        shape = budget["shapes"][name]
        if calls > shape["calls"]:
            print(f"FAIL: {name} is {calls - shape['calls']} calls over "
                  f"its budget of {shape['calls']}; a deliberate change "
                  f"re-records it with --record")
            failed = True
        else:
            print(f"{name} call budget passed: {calls} <= {shape['calls']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
