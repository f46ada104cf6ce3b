"""Repo benchmark: run one workload repeatedly, print one JSON result.

    python3 perfbench/run.py --workload serve-bulk --seed 23 \\
        --seconds 20 --trace 0

Each repetition is a fresh ``perfbench/rep.py`` process, so every one
pays the cold start a one-shot user pays.  Repetitions continue until
``--seconds`` is used up (at least three untraced ones); the end-to-end
metrics are their medians.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics instead.  The
outputs of every repetition are checked: per-request invariants on any
seed, and, on a workload's default seed, the exact digest recorded in
``perfbench/expected.json`` (``--record`` rewrites it).

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
#: Scratch output (spans, temp files) inside the checkout.
OUT = ROOT / ".perfbench"
#: No single repetition may take longer than this.
REP_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from checks import digest_mismatches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def run_rep(workload: str, seed: int, traced: bool) -> dict:
    """One repetition in its own process group; the group is killed
    and reaped if it overruns."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}.json")]
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {REP_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"no result (exit code {proc.returncode})"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"exit code {proc.returncode}"
    result["traced"] = traced
    return result


def repetitions(workload: str, seed: int, seconds: float,
                trace: bool) -> list[dict]:
    """Run repetitions until ``seconds`` is spent: at least three
    untraced ones, or at least one untraced/traced pair."""
    reps, start = [], time.monotonic()
    minimum = 2 if trace else 3
    while True:
        reps.append(run_rep(workload, seed, trace and len(reps) % 2 == 1))
        if "error" in reps[-1]:
            break
        elapsed = time.monotonic() - start
        if trace and len(reps) % 2:
            continue
        step = 2 if trace else 1
        per_rep = elapsed / len(reps)
        if len(reps) >= minimum and elapsed + step * per_rep > seconds:
            break
    return reps


def verdict(workload, seed: int, reps: list[dict]) -> tuple:
    """(correct, attempted, failed, problems) over all repetitions."""
    problems = [r["error"] for r in reps if "error" in r]
    good = [r for r in reps if "error" not in r]
    ops = max((r["ops"] for r in good), default=1)
    attempted = ops * len(reps)
    failed = ops * (len(reps) - len(good))
    expected = None
    if seed == workload.default_seed and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text()).get(workload.name)
    reference = expected if expected is not None else \
        (good[0]["digest"] if good else None)
    for index, rep in enumerate(good):
        diff = digest_mismatches(reference, rep["digest"])
        if diff:
            source = "expected.json" if expected is not None \
                else "repetition 0"
            problems.append(f"repetition {index} digest differs from "
                            f"{source} at {', '.join(diff[:5])}")
            failed += rep["ops"]
        else:
            failed += rep["failed"]
            if rep["failed"]:
                problems.append(f"repetition {index}: {rep['failed']} of "
                                f"{rep['ops']} operations failed a check")
    return not problems, attempted, failed, problems


def median(reps: list[dict], metric) -> float:
    return statistics.median(metric(r) for r in reps)


def end_to_end(reps: list[dict]) -> dict:
    return {"wall_probes": median(reps,
                                  lambda r: r["wall_s"] / r["probe_s"]),
            "setup_s": median(reps, lambda r: r["setup_s"]),
            "peak_rss_mb": median(reps, lambda r: r["peak_rss_mb"])}


def per_layer(workload, plain: list[dict], traced: list[dict],
              metric_names: list[str], failed: int,
              attempted: int) -> dict:
    """Layer numbers from the traced repetitions; sim values and host
    throughputs from the untraced ones."""
    values = dict.fromkeys(metric_names, 0.0)
    for metric in traced[0]["layers"]:
        values[metric] = median(traced, lambda r: r["layers"][metric])
    values.update(plain[0]["sim"])
    values["wall_s"] = median(plain, lambda r: r["wall_s"])

    def per_host_s(key: str) -> float:
        return median(plain, lambda r: r[key] / r["wall_s"])

    if plain[0]["requests"]:
        values["sim_requests_per_host_s"] = per_host_s("requests")
    if plain[0]["steps"]:
        values["sim_steps_per_host_s"] = per_host_s("steps")
    if workload.ops_metric:
        values[workload.ops_metric] = per_host_s("ops")
    values["ops_failed_ratio"] = failed / attempted
    values["trace_overhead_pct"] = 100.0 * (
        median(traced, lambda r: r["wall_s"])
        / median(plain, lambda r: r["wall_s"]) - 1.0)
    unknown = set(values) - set(metric_names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run the default seed once and store its "
                             "digest in perfbench/expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    if args.record:
        rep = run_rep(workload.name, workload.default_seed, False)
        if "error" in rep or rep["failed"]:
            print(f"error: cannot record a failing run: {rep}",
                  file=sys.stderr)
            return 1
        expected = json.loads(EXPECTED.read_text()) \
            if EXPECTED.exists() else {}
        expected[workload.name] = rep["digest"]
        EXPECTED.write_text(json.dumps(expected, indent=1,
                                       sort_keys=True) + "\n")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reps = repetitions(workload.name, seed, args.seconds, bool(args.trace))
    correct, attempted, failed, problems = verdict(workload, seed, reps)
    plain = [r for r in reps if "error" not in r and not r["traced"]]
    traced = [r for r in reps if "error" not in r and r["traced"]]
    if args.trace and correct:
        mismatch = digest_mismatches(plain[0]["digest"],
                                     traced[0]["digest"])
        if mismatch:
            correct = False
            problems.append(f"traced digest differs at {mismatch[:5]}")
    if not plain or (args.trace and not traced):
        for line in problems:
            print(f"problem: {line}", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(workload, plain, traced,
                           [m["name"] for m in spec["per_layer"]],
                           failed, attempted)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(plain)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{workload.name} seed={seed}: {len(plain)} untraced + "
          f"{len(traced)} traced repetitions, correct={correct}",
          file=sys.stderr)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print("  wall_s per repetition: " + " ".join(
        f"{r['wall_s']:.3f}" for r in plain), file=sys.stderr)
    print("  probe_s per repetition: " + " ".join(
        f"{r['probe_s']:.4f}" for r in plain), file=sys.stderr)
    print("  setup_wall_s per repetition: " + " ".join(
        f"{r['setup_wall_s']:.3f}" for r in plain), file=sys.stderr)
    references = getattr(workload, "references", {})
    for name, value in values.items():
        note = ""
        if name in references:
            note = (f"  (paper {references[name]}, "
                    f"{value / references[name] - 1:+.1%})")
        print(f"  {name:38s} {value:14.6g} {units[name]}{note}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
