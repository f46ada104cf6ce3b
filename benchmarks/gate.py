"""CI benchmark-regression gate for the serving stack.

Runs one small fixed-seed serving trace per scheduler generation —
``legacy`` (peak-reservation continuous batching), ``paged``
(block-granular KV + prefix caching), ``cluster`` (4 prefix-affinity
replicas) — plus three scale scenarios: ``bulk-100k`` (a
100 000-request trace through the event-compressed decode-leaping
engine), ``cluster-bulk-100k`` (the same bulk regime through a
4-replica cluster, gating the heap-scheduled fleet clock and batched
cohort routing), and ``bulk-1m`` (a million-request saturating trace
at batch 64, the regime where admissions, completions, and records
arrive in whole cohorts), and ``elastic`` (a reactive autoscaling
fleet on a one-hour diurnal multi-tenant trace under SFQ fair share,
gating the SLO-good count and the carbon cost per good request as
well).  Three numbers per scenario: simulated goodput, simulated TTFT
p99, and host wall-clock.
The gate fails when, versus the checked-in ``BENCH_serving.json``
baseline,

* goodput drops by more than 5 % (simulated metrics are deterministic
  under the pinned CI dependencies, so any drop is a real behavior
  change), or
* wall-clock grows by more than 15 % *after machine-speed
  normalization*: both baseline and current runs time a fixed
  calibration workload, and the gate compares
  ``wall_s / calibration_s`` ratios, so a slower CI runner does not
  masquerade as a hot-path regression.

Scenarios run through the sweep executor (:mod:`repro.serve.sweep`):
each timing run is one :class:`repro.serve.SweepPoint`, wall clocks
time the *simulator only* (trace synthesis is billed separately by the
executor), and ``--jobs N`` fans the runs over N worker processes —
simulated metrics are identical for any ``--jobs``, so a multi-core
machine can check goodput regressions in a fraction of the serial
wall time.  Timing comparisons, though, assume uncontended runs:
``--update-baseline`` therefore refuses ``--jobs > 1``, and a CI
``--check`` on a busy/oversubscribed runner should stay at the serial
default.

Within one process, a scenario's design is resolved once and reused
across its timing runs: the step-cost store (:mod:`repro.serve.costs`)
is keyed by design identity, so the min-over-runs wall-clock measures
the warm steady state a parameter sweep sees, while the first run
still prices every signature cold.

Usage::

    python benchmarks/gate.py --check             # CI job (default)
    python benchmarks/gate.py --check --jobs 4    # parallel fan-out
    python benchmarks/gate.py --update-baseline   # make bench-baseline
    python benchmarks/gate.py --profile           # wall-clock split

``--check`` writes the fresh measurements to
``benchmarks/BENCH_serving.current.json`` for debugging; only
``--update-baseline`` touches the checked-in ``BENCH_serving.json``.
``--profile`` runs each scenario once under cProfile and prints where
the wall-clock goes — operator/cost-surface construction, step-cost
simulation, scheduler logic, engine/event loop, metrics aggregation —
plus the executor's trace-generation vs simulation vs teardown phase
clocks, so future perf PRs have a breakdown to aim at.  Thresholds can be
widened per run via the ``BENCH_GATE_GOODPUT_DROP`` and
``BENCH_GATE_WALL_GROWTH`` environment variables (fractions).
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import os
import pathlib
import pstats
import sys
import time
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis.experiments import (  # noqa: E402
    autoscaling_serving,
    cluster_serving,
)
from repro.errors import ConfigError  # noqa: E402
from repro.serve import (  # noqa: E402
    LengthSpec,
    SweepExecutor,
    SweepPoint,
    TraceSpec,
)

BASELINE_PATH = ROOT / "BENCH_serving.json"
CURRENT_PATH = ROOT / "benchmarks" / "BENCH_serving.current.json"

#: Default gate thresholds (fractions).
MAX_GOODPUT_DROP = 0.05
MAX_WALL_GROWTH = 0.15

#: Per-scenario wall-growth overrides.  The heap-scheduled cluster
#: clock bought the fleet scenarios extra headroom over their
#: baselines, so a tighter bound pins it: sliding back to the
#: O(replicas)-per-event scan loop must fail the gate even where the
#: default 15 % would still absorb it.  The ``BENCH_GATE_WALL_GROWTH``
#: environment override, when set, applies to every scenario.
SCENARIO_WALL_GROWTH = {
    "cluster": 0.10,
    "cluster-bulk-100k": 0.10,
}

#: Absolute floor on the allowed normalized-wall growth.  The fast
#: engine shrank some scenarios to tens of milliseconds, where 15 % is
#: single-digit milliseconds — below scheduler/GC noise on shared CI
#: runners.  A regression must exceed *both* the relative bound and
#: this many calibration units (~15 ms at a 0.15 s calibration) to
#: fail; any real hot-path regression clears the floor instantly.
MIN_NORM_SLACK = 0.10

#: One shared fixed-seed trace spec: the cluster experiment's
#: shared-prefix workload, sized so each scenario's wall time is large
#: enough that the normalized timing gate measures the simulator, not
#: interpreter noise.
N_REQUESTS = 600
RATE_RPS = 8.0
SEED = 17

#: The first scale scenario: 100k requests with chat-style long
#: decodes, the regime the decode-leaping fast path compresses.
#: Saturating load (far above service capacity) keeps the batch full so
#: the engine spends the trace in pure-decode leap windows.
BULK_REQUESTS = 100_000
BULK_RATE_RPS = 50.0
BULK_SEED = 23
BULK_PROMPT = LengthSpec("lognormal", value=256, low=16, high=1024)
BULK_OUTPUT = LengthSpec("lognormal", value=256, low=32, high=1024)

#: The fleet-scale scenario: the 100k-request bulk trace through a
#: 4-replica cluster, gating the heap-scheduled cluster clock, batched
#: cohort routing, and cross-replica quiescence leaping at scale.
#: Fixed-length outputs keep completions cohort-shaped (the regime the
#: compressed drive loop leaps across) and the saturating rate keeps
#: every replica busy so the lazy heap, not idle time, carries the run.
CLUSTER_BULK_RATE_RPS = 200.0

#: The second scale scenario: a million requests at hard saturation.
#: Fixed-length outputs make completions arrive in large cohorts and a
#: cost bucket wider than any context removes bucket crossings, so the
#: run is dominated by batch-64 cohort transitions — admission,
#: whole-cohort completion/release — and saturation-aware arrival
#: leaping.  Budget: <= 10 s of simulator wall on one core (trace
#: synthesis excluded — the executor times it separately).
BULK_1M_REQUESTS = 1_000_000
BULK_1M_RATE_RPS = 400.0
BULK_1M_SEED = 29
BULK_1M_OUTPUT = LengthSpec("fixed", value=256)

#: The autoscaling scenario compresses the experiment's diurnal day to
#: one simulated hour: still a full cosine wave (trough + peak + scale
#: events) but gate-sized wall time.
ELASTIC_DURATION_S = 3600.0

#: Wall-clock is the min over this many runs per scenario (the standard
#: trick against one-off scheduling hiccups on shared CI runners).
#: Shared-runner hosts show ~15-20 % run-to-run spread on the
#: multi-second bulk scenarios — the same order as the tightened 15 %
#: bound — so they need three samples for a stable min just as much as
#: the sub-100ms scenarios do.
TIMING_RUNS = 3
BULK_TIMING_RUNS = 3


@functools.cache
def _scenarios() -> dict:
    """Scenario name -> the :class:`SweepPoint` one timing run executes.

    Built lazily so importing this module for its profile helpers stays
    side-effect free."""
    model = cluster_serving.SERVE_MODEL
    capacity = cluster_serving.DEFAULT_CAPACITY_PEAKS \
        * cluster_serving.peak_footprint_bytes(model)
    shared_trace = cluster_serving.cluster_trace_spec(N_REQUESTS,
                                                      RATE_RPS, seed=SEED)
    return {
        "legacy": SweepPoint(
            label="legacy", design=("mugi", 256), model=model,
            trace=shared_trace, policy="continuous", max_batch=24,
            kv_capacity_bytes=capacity, seq_len_bucket=32),
        "paged": SweepPoint(
            label="paged", design=("mugi", 256), model=model,
            trace=shared_trace, policy="paged", max_batch=24,
            kv_capacity_bytes=capacity, seq_len_bucket=32,
            block_size=16, chunk_tokens=768),
        "cluster": SweepPoint(
            label="cluster", design=("mugi", 256), model=model,
            trace=shared_trace, policy="paged", max_batch=24,
            kv_capacity_bytes=capacity, seq_len_bucket=32,
            block_size=16, chunk_tokens=768, router="prefix-affinity",
            n_replicas=4),
        # Bucket 256: at 100k-trace scale a coarse cost bucket both
        # widens leap windows (a decoder crosses a bucket every 256
        # steps instead of every 32) and densifies the signature space
        # for the shared step-cost cache; KV accounting stays exact
        # either way.
        "bulk-100k": SweepPoint(
            label="bulk-100k", design=("mugi", 256), model=model,
            trace=TraceSpec("poisson", n_requests=BULK_REQUESTS,
                            rate_rps=BULK_RATE_RPS, prompt=BULK_PROMPT,
                            output=BULK_OUTPUT, seed=BULK_SEED),
            policy="continuous", max_batch=16, seq_len_bucket=256),
        "cluster-bulk-100k": SweepPoint(
            label="cluster-bulk-100k", design=("mugi", 256), model=model,
            trace=TraceSpec("poisson", n_requests=BULK_REQUESTS,
                            rate_rps=CLUSTER_BULK_RATE_RPS,
                            prompt=BULK_PROMPT, output=BULK_1M_OUTPUT,
                            seed=BULK_SEED),
            policy="continuous", max_batch=64, seq_len_bucket=2048,
            router="least-outstanding", n_replicas=4),
        "bulk-1m": SweepPoint(
            label="bulk-1m", design=("mugi", 256), model=model,
            trace=TraceSpec("poisson", n_requests=BULK_1M_REQUESTS,
                            rate_rps=BULK_1M_RATE_RPS,
                            prompt=BULK_PROMPT, output=BULK_1M_OUTPUT,
                            seed=BULK_1M_SEED),
            policy="continuous", max_batch=64, seq_len_bucket=2048),
        # The elastic fleet on a one-hour slice of the diurnal
        # multi-tenant day: reactive scaling, SFQ fair share, and the
        # carbon bill all sit on this scenario's goodput/cost numbers.
        "elastic": autoscaling_serving.fleet_point(
            "elastic", "reactive",
            autoscaling_serving.diurnal_trace_spec(
                seed=SEED, duration_s=ELASTIC_DURATION_S,
                day_s=ELASTIC_DURATION_S)),
    }


def _timing_runs(name: str) -> int:
    return BULK_TIMING_RUNS if "bulk" in name else TIMING_RUNS


def _calibration_s() -> float:
    """Host-speed probe: fixed pure-Python + numpy mix.

    The serving simulator's hot path is Python dict/loop work over
    memoized numpy-costed ops, so the probe mixes both; its runtime is
    the unit the wall-clock gate measures scenarios in.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    x = np.random.default_rng(0).standard_normal((256, 256))
    for _ in range(20):
        x = x @ x
        x /= np.abs(x).max()
    if not np.isfinite(x).all() or acc < 0:  # Defeat dead-code elision.
        raise RuntimeError("calibration workload corrupted")
    return time.perf_counter() - start


def _metrics(name: str, report) -> dict:
    metrics = {"goodput_rps": report.goodput_rps(),
               "ttft_p99_s": report.ttft_percentile(99)}
    if "bulk" in name:
        metrics["leap_steps"] = report.leap_steps
        metrics["steps"] = report.steps
    if name == "elastic":
        slos = autoscaling_serving.SLOS
        metrics["slo_good"] = report.good_completions(slos=slos)
        metrics["cost_per_good_kg"] = \
            report.cost_per_good_request_kg(slos=slos)
        metrics["mean_replicas"] = report.mean_replicas
    return metrics


def measure(jobs: int = 1) -> dict:
    """Run every scenario ``_timing_runs`` times through one
    :class:`repro.serve.SweepExecutor` session; per-scenario wall is
    the min over its runs.

    Memoization stays **off** — the whole point of repeating a
    scenario is to really re-run it — but the session still amortizes
    the pool spawn across scenarios and lets repeat runs (and the
    legacy/paged/cluster trio, which share one trace spec) rebuild
    their traces from the worker-side column cache instead of the RNG.
    """
    results = {"calibration_s": _calibration_s(), "scenarios": {}}
    scenarios = _scenarios()
    points = [replace(point, label=f"{name}#{i}")
              for name, point in scenarios.items()
              for i in range(_timing_runs(name))]
    with SweepExecutor(jobs=jobs, memoize=False) as executor:
        sweep = executor.run(points)
    for name in scenarios:
        outcomes = [sweep[f"{name}#{i}"]
                    for i in range(_timing_runs(name))]
        metrics = _metrics(name, outcomes[0].report)
        metrics["wall_s"] = min(o.wall_s for o in outcomes)
        results["scenarios"][name] = metrics
        print(f"  {name:9s} goodput={metrics['goodput_rps']:.4f} req/s  "
              f"ttft_p99={metrics['ttft_p99_s']:.2f} s  "
              f"wall={metrics['wall_s']:.2f} s")
    print(f"  calibration: {results['calibration_s']:.3f} s  "
          f"trace-cache: {sweep.trace_cache_hits}/{len(sweep)} hits "
          f"({sweep.trace_s:.2f} s total trace synthesis)")
    return results


#: ``--profile`` buckets: where each source file's self-time is
#: attributed in the wall-clock split.  Needles are anchored under the
#: ``repro`` package so third-party paths (e.g. ``numpy/_core/``) fall
#: through to "other" instead of polluting a bucket.
PROFILE_BUCKETS = (
    ("op build + cost surface", ("repro/llm/workload.py",
                                 "repro/arch/designs/", "repro/core/",
                                 "repro/arch/fifo.py",
                                 "repro/arch/sram.py",
                                 "repro/arch/technology.py")),
    ("simulate_workload", ("repro/arch/simulator.py",)),
    ("scheduler logic", ("repro/serve/scheduler.py",
                         "repro/serve/policy.py",
                         "repro/serve/kv_cache.py")),
    ("engine + event loop", ("repro/serve/engine.py",
                             "repro/serve/cluster.py",
                             "repro/serve/autoscale.py",
                             "repro/serve/router.py",
                             "repro/serve/costs.py")),
    ("metrics aggregation", ("repro/serve/metrics.py",)),
    ("trace generation", ("repro/serve/trace.py",)),
)


def _profile_stats(runner) -> pstats.Stats:
    profiler = cProfile.Profile()
    profiler.enable()
    runner()
    profiler.disable()
    return pstats.Stats(profiler)


def _bucket_split(stats: pstats.Stats) -> tuple[float, dict]:
    buckets = {label: 0.0 for label, _ in PROFILE_BUCKETS}
    buckets["other"] = 0.0
    total = 0.0
    for (filename, _, _), entry in stats.stats.items():
        self_time = entry[2]
        total += self_time
        path = filename.replace(os.sep, "/")
        for label, needles in PROFILE_BUCKETS:
            if any(needle in path for needle in needles):
                buckets[label] += self_time
                break
        else:
            buckets["other"] += self_time
    return total, buckets


def profile_split(runner) -> tuple[float, dict]:
    """(total seconds, per-bucket seconds) of one profiled run.

    Shared with ``bench_serving_load --profile``: attributes each
    source file's cProfile self-time to a :data:`PROFILE_BUCKETS`
    subsystem.
    """
    return _bucket_split(_profile_stats(runner))


def _phase_split(stats: pstats.Stats) -> dict:
    """Event-loop phase seconds: route / step / drain / tick.

    Cumulative (not self) time of the drive loops' phase entry points —
    router dispatch, engine stepping, record draining, autoscaler
    ticks.  None of these nest inside one another, so the numbers
    partition the event loop's wall honestly; routing counts a nested
    ``select`` (a batched router's fallback probe) only once, through
    its outermost routing call.
    """
    phases = dict.fromkeys(("route", "step", "drain", "tick"), 0.0)
    route_keys = {
        key for key in stats.stats
        if key[0].replace(os.sep, "/").endswith("repro/serve/router.py")
        and key[2] in ("select", "select_batch")}
    for key, (_cc, _nc, _tt, ct, callers) in stats.stats.items():
        path = key[0].replace(os.sep, "/")
        func = key[2]
        if key in route_keys:
            nested = sum(sub[3] for caller, sub in callers.items()
                         if caller in route_keys)
            phases["route"] += ct - nested
        elif path.endswith("repro/serve/engine.py") and func == "step":
            phases["step"] += ct
        elif path.endswith("repro/serve/cluster.py") and \
                func == "_drain":
            phases["drain"] += ct
        elif path.endswith("repro/serve/autoscale.py") and \
                func == "_decide":
            phases["tick"] += ct
    return phases


def print_split(name: str, total: float, buckets: dict) -> None:
    print(f"{name}: {total:.3f} s total")
    for label, seconds in sorted(buckets.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total else 0.0
        print(f"  {label:24s} {seconds:7.3f} s  {share:6.1%}")


def profile() -> None:
    """Print each scenario's wall-clock split by subsystem, the
    executor's trace/simulate/teardown phase clocks, the event-loop
    phase split, and (for fleet scenarios) the per-replica leap /
    step-cost-cache diagnostics.

    Scenarios share one serial executor session, so the trace-column
    cache is live: legacy/paged/cluster share a trace spec, and their
    second and third runs show the rebuild-from-cache cost (and a
    ``trace cache hit`` tag) instead of RNG synthesis.
    """
    with SweepExecutor(jobs=1, memoize=False) as executor:
        for name, point in _scenarios().items():
            box = {}

            def runner(point=point, box=box):
                box["outcome"] = executor.run([point]).outcomes[0]

            stats = _profile_stats(runner)
            total, buckets = _bucket_split(stats)
            print_split(name, total, buckets)
            outcome = box["outcome"]
            cached = " (trace cache hit)" if outcome.trace_cache_hit \
                else ""
            print(f"  executor phases: trace={outcome.trace_s:.3f}s"
                  f"{cached} simulate={outcome.wall_s:.3f}s "
                  f"teardown={outcome.teardown_s:.3f}s")
            phases = _phase_split(stats)
            if any(phases.values()):
                loop = " ".join(f"{label}={seconds:.3f}s"
                                for label, seconds in phases.items()
                                if seconds)
                print(f"  event-loop phases: {loop}")
            report = outcome.report
            if hasattr(report, "leap_steps_per_replica"):
                print(f"  per-replica leap_steps="
                      f"{report.leap_steps_per_replica} "
                      f"cache_hits={report.step_cache_hits_per_replica} "
                      f"cache_misses="
                      f"{report.step_cache_misses_per_replica}")


def check(current: dict, baseline: dict) -> list[str]:
    """Every gate violation as a human-readable line (empty = pass)."""
    goodput_drop = float(os.environ.get("BENCH_GATE_GOODPUT_DROP",
                                        MAX_GOODPUT_DROP))
    wall_env = os.environ.get("BENCH_GATE_WALL_GROWTH")
    wall_growth = float(wall_env) if wall_env else MAX_WALL_GROWTH
    failures = []
    missing = set(baseline["scenarios"]) - set(current["scenarios"])
    if missing:
        failures.append(f"scenarios vanished vs baseline: "
                        f"{sorted(missing)}")
    for name, base in baseline["scenarios"].items():
        now = current["scenarios"].get(name)
        if now is None:
            continue
        floor = base["goodput_rps"] * (1.0 - goodput_drop)
        if now["goodput_rps"] < floor:
            failures.append(
                f"{name}: goodput {now['goodput_rps']:.4f} req/s fell "
                f">{goodput_drop:.0%} below baseline "
                f"{base['goodput_rps']:.4f}")
        if "cost_per_good_kg" in base and "cost_per_good_kg" in now:
            # Deterministic like goodput: any growth beyond the shared
            # tolerance is a real cost-model or fleet-behavior change.
            ceiling = base["cost_per_good_kg"] * (1.0 + goodput_drop)
            if now["cost_per_good_kg"] > ceiling:
                failures.append(
                    f"{name}: cost per SLO-good request "
                    f"{now['cost_per_good_kg']:.3e} kg grew "
                    f">{goodput_drop:.0%} over baseline "
                    f"{base['cost_per_good_kg']:.3e}")
        growth = wall_growth if wall_env \
            else SCENARIO_WALL_GROWTH.get(name, wall_growth)
        base_norm = base["wall_s"] / baseline["calibration_s"]
        now_norm = now["wall_s"] / current["calibration_s"]
        limit = max(base_norm * (1.0 + growth),
                    base_norm + MIN_NORM_SLACK)
        if now_norm > limit:
            failures.append(
                f"{name}: normalized wall-clock {now_norm:.2f} "
                f"(={now['wall_s']:.2f}s / cal "
                f"{current['calibration_s']:.2f}s) grew "
                f">{growth:.0%} over baseline {base_norm:.2f}")
    return failures


def ensure_serial_baseline(jobs: int) -> None:
    """Refuse to *record* a baseline from a fanned-out run.

    Simulated metrics are identical for any ``jobs``, but the baseline
    also stores wall clocks, and ``jobs > 1`` runs scenarios
    concurrently — every timing contends with its siblings for cores
    and caches, so a baseline recorded that way under-states serial
    performance and every later serial ``--check`` looks like a
    regression (or masks a real one).  Checks may fan out freely; the
    asymmetry is deliberate, documented here, and tested
    (``tests/test_search.py``).

    Raises :class:`repro.errors.ConfigError` so callers driving this
    module programmatically get the same contract as the CLI.
    """
    if jobs != 1:
        raise ConfigError(
            f"--update-baseline requires --jobs 1, got jobs={jobs}: "
            f"baseline wall clocks must come from uncontended serial "
            f"runs (fanned-out scenarios contend for cores, so their "
            f"timings are not comparable to later serial checks); "
            f"--check may use any --jobs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the checked-in baseline "
                           "(default)")
    mode.add_argument("--update-baseline", action="store_true",
                      help=f"regenerate {BASELINE_PATH.name} "
                           f"(intentional perf changes only)")
    mode.add_argument("--profile", action="store_true",
                      help="print each scenario's wall-clock split by "
                           "subsystem instead of gating")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the scenario sweep "
                           "(1 = inline; >1 speeds up --check but "
                           "contends timing runs, so baselines must "
                           "stay serial)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be positive")

    if args.profile:
        profile()
        return 0

    if args.update_baseline:
        try:
            ensure_serial_baseline(args.jobs)
        except ConfigError as err:
            parser.error(str(err))

    print(f"benchmark gate: measuring fixed-seed serving scenarios "
          f"(jobs={args.jobs})")
    current = measure(jobs=args.jobs)

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(current, indent=2,
                                            sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    CURRENT_PATH.write_text(json.dumps(current, indent=2,
                                       sort_keys=True) + "\n")
    if not BASELINE_PATH.exists():
        print(f"FAIL: no baseline at {BASELINE_PATH}; run "
              f"`make bench-baseline` and commit it")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = check(current, baseline)
    if failures:
        print("benchmark gate FAILED:")
        for line in failures:
            print(f"  - {line}")
        print("(intentional? regenerate with `make bench-baseline` "
              "and commit BENCH_serving.json)")
        return 1
    print(f"benchmark gate passed: goodput within "
          f"{MAX_GOODPUT_DROP:.0%}, normalized wall-clock within "
          f"{MAX_WALL_GROWTH:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
