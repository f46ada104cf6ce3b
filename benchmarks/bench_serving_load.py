"""Serving — latency–throughput curves under continuous batching.

Runs the serving-load sweep (Poisson arrivals, ragged lengths, service
batch 8) for Mugi vs the iso-area systolic/SIMD baselines and the tensor
core, and times a 10k-request trace to pin down the cost-memoization
speedup (the acceptance bar: < 30 s).  Both ride the sweep executor
(:mod:`repro.serve.sweep`); run directly with ``--jobs N`` to fan the
load grid over N worker processes, or with ``--profile`` to print the
10k-trace wall-clock split by subsystem (op/cost-surface build,
scheduler logic, engine loop, metrics aggregation)::

    PYTHONPATH=src python benchmarks/bench_serving_load.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_serving_load.py --profile
"""

from conftest import once

from repro.analysis.experiments import serving_load_sweep
from repro.analysis.tables import render_table
from repro.serve import SweepPoint, TraceSpec, run_point, run_sweep


def test_serving_load_sweep(benchmark, save_result):
    points = once(benchmark, serving_load_sweep.run_load_sweep)

    rows = []
    for p in sorted(points, key=lambda p: (p.design, p.offered_rps)):
        rows.append([p.design, f"{p.area_mm2:.2f}", f"{p.offered_rps:.2f}",
                     f"{p.goodput_rps:.4f}", f"{p.throughput_tokens_s:.2f}",
                     f"{p.p50_latency_s:.1f}", f"{p.p99_latency_s:.1f}",
                     f"{p.mean_ttft_s:.2f}", f"{p.mean_tpot_s:.3f}"])
    table = render_table(
        ["Design", "mm^2", "Offered req/s", "Goodput req/s", "Tokens/s",
         "p50 lat (s)", "p99 lat (s)", "Mean TTFT (s)", "Mean TPOT (s)"],
        rows, title="Serving load sweep: continuous batching, "
                    "Llama2-70B-GQA (4-layer slice), service batch 8")
    save_result("serving_load_sweep", table)

    # Iso-area headline: Mugi (2.48 mm^2) sustains clearly higher goodput
    # than the systolic array (2.67 mm^2) under the small-batch trace.
    mugi = serving_load_sweep.saturation_goodput(points, "Mugi (256)")
    sa = serving_load_sweep.saturation_goodput(points, "SA (16)")
    assert mugi > 1.2 * sa

    # Under light load every design delivers the offered load; the curves
    # only separate past the systolic array's saturation knee.
    for design in ("Mugi (256)", "SA (16)"):
        lightest = serving_load_sweep.curve(points, design)[0]
        assert lightest.goodput_rps > 0.8 * lightest.offered_rps

    # The tensor core buys its goodput with ~6x the area.
    tensor = serving_load_sweep.curve(points, "Tensor (8)")[0]
    mugi_pt = serving_load_sweep.curve(points, "Mugi (256)")[0]
    assert tensor.area_mm2 > 6 * mugi_pt.area_mm2


def _10k_point() -> SweepPoint:
    """The timed 10k-trace scenario as one sweep grid cell."""
    model = serving_load_sweep.SERVE_MODEL
    return SweepPoint(
        label="serving-10k", design=("mugi", 256), model=model,
        trace=TraceSpec("poisson", n_requests=10_000, rate_rps=2.0,
                        prompt=serving_load_sweep.PROMPT_SPEC,
                        output=serving_load_sweep.OUTPUT_SPEC, seed=7),
        policy="continuous", max_batch=8,
        kv_capacity_bytes=model.kv_cache_bytes(seq_len=model.max_seq_len,
                                               batch=8),
        seq_len_bucket=32)


def test_serving_10k_trace_under_30s(save_result):
    """Cost memoization lets a 10k-request trace simulate in seconds."""
    outcome = run_sweep([_10k_point()]).outcomes[0]
    report, elapsed = outcome.report, outcome.wall_s

    assert report.completed == 10_000
    assert elapsed < 30.0
    save_result("serving_10k_trace", "\n".join([
        "10k-request Poisson trace on Mugi (256), continuous batching:",
        f"  engine steps    {report.steps} ({report.leap_steps} leapt)",
        f"  goodput         {report.goodput_rps():.3f} req/s",
        f"  tokens/s        {report.throughput_tokens_s:.2f}",
        f"  p50 / p99 lat   {report.p50_latency_s:.1f} / "
        f"{report.p99_latency_s:.1f} s",
    ]))
    # The host wall time varies run to run: stdout, not the artefact.
    print(f"10k trace wall time {elapsed:.1f} s")


def _run_10k():
    """The timed 10k-trace scenario, shared with ``--profile``."""
    return run_point(_10k_point())


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", action="store_true",
                        help="profile the 10k-request trace and print "
                             "the wall-clock split by subsystem")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the load sweep "
                             "(1 = inline)")
    args = parser.parse_args(argv)
    if args.profile:
        import gate

        outcome = run_sweep([_10k_point()]).outcomes[0]
        report = outcome.report
        print(f"10k trace: {outcome.wall_s:.2f} s wall, {report.steps} "
              f"steps ({report.leap_steps} leapt), cache "
              f"{report.step_cache_hits}/{report.step_cache_misses} "
              f"hit/miss")
        total, buckets = gate.profile_split(_run_10k)
        gate.print_split("serving_10k_trace", total, buckets)
        return 0
    points = serving_load_sweep.run_load_sweep(jobs=args.jobs)
    for p in points:
        print(f"  {p.design:12s} @ {p.offered_rps:.2f} req/s: goodput "
              f"{p.goodput_rps:.4f} req/s, p99 {p.p99_latency_s:.1f} s")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
