"""One benchmark repetition, in a fresh process.

    python3 perfbench/rep.py --workload serve-bulk --seed 23 [--trace]

Every repetition starts cold: empty step-cost, trace-column and memo
caches, which is what a one-shot user pays.  The repetition is pinned
to as many CPUs as the workload runs busy processes, and ``speed.py``
samples those CPUs' speed throughout.  ``setup_wall_s`` runs from
``import repro`` to the end of the workload's setup; ``setup_s`` is
that time scaled to a host whose micro-probe takes
``NOMINAL_PROBE_S``.  ``wall_s`` runs from the first call into the
program to the checked result, and ``probe_s`` is the micro-probe time
the CPUs' mean speed over it implies.  The last stdout line is one
JSON object.

The module is safe to import under the ``spawn`` start method: sweep
workers re-import it as ``__mp_main__``, and everything past the
stdlib imports sits behind the ``__main__`` guard.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics read straight off the span summary:
#: metric -> (span name, summary field).
SPAN_METRICS = {
    "serve.engine.step_calls": ("serve.engine.step", "calls"),
    "serve.engine.step_self_s": ("serve.engine.step", "self_s"),
    "serve.scheduler.plan_step_calls": ("serve.scheduler.plan_step",
                                        "calls"),
    "serve.scheduler.plan_step_s": ("serve.scheduler.plan_step", "s"),
    "llm.price_step_calls": ("llm.price_step", "calls"),
    "llm.price_step_s": ("llm.price_step", "s"),
    "serve.trace.realize_s": ("serve.trace.realize", "s"),
    "serve.metrics.report_s": ("serve.metrics.report", "s"),
    "serve.router.select_calls": ("serve.router.select", "calls"),
    "serve.router.select_s": ("serve.router.select", "s"),
    "serve.cluster.loop_self_s": ("serve.cluster.run", "self_s"),
    "search.pareto_s": ("search.pareto", "s"),
    "core.vlp_approx_s": ("core.vlp_approx", "s"),
    "core.vlp_softmax_s": ("core.vlp_softmax", "s"),
    "core.mugi_gemm_s": ("core.mugi_gemm", "s"),
    "arch.simulate_workload_calls": ("arch.simulate_workload", "calls"),
    "arch.simulate_workload_s": ("arch.simulate_workload", "s"),
}


def layer_metrics(tracer, window, outcome) -> dict:
    """Every per-layer number one traced repetition measures."""
    summary = tracer.summary(window)
    layers = {metric: summary.get(name, {}).get(field, 0.0)
              for metric, (name, field) in SPAN_METRICS.items()}
    # Surface construction happens during setup, outside the window.
    everything = tracer.summary((0, 2 ** 62))
    layers["llm.surface_build_s"] = everything.get(
        "llm.surface_build", {}).get("s", 0.0)
    counters = tracer.counters
    layers["serve.scheduler.batch_mean"] = \
        counters.get("batch_steps", 0) / max(counters.get("steps", 0), 1)
    for name in ("serve.trace.requests", "core.vlp_elements",
                 "core.mugi_gemm_macs"):
        layers[name] = counters.get(name, 0)
    layers["unattributed_share"] = summary["unattributed_share"]
    layers.update(outcome.layers)
    return layers


def probe_in(samples: list, start_ns: int, end_ns: int) -> float:
    """The micro-probe time that the sampled CPUs' mean speed between
    ``start_ns`` and ``end_ns`` implies (all samples if none fell in)."""
    times = [cpu_s for at_ns, cpu_s in samples
             if start_ns <= at_ns <= end_ns] \
        or [cpu_s for _, cpu_s in samples]
    return len(times) / sum(1.0 / cpu_s for cpu_s in times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="wrap every layer's entry points in spans")
    parser.add_argument("--spans", type=Path,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    from checks import request_rows
    from speed import NOMINAL_PROBE_S
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    cpus = sorted(os.sched_getaffinity(0))[:workload.cpus]
    os.sched_setaffinity(0, cpus)
    sampler = subprocess.Popen([sys.executable, str(HERE / "speed.py"),
                                *map(str, cpus)],
                               stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
    try:
        if sampler.stdout.readline().strip() != "ready":
            raise RuntimeError("host-speed sampler did not start")
        setup_ns = time.perf_counter_ns()
        sys.path.insert(0, str(ROOT / "src"))
        import repro  # noqa: F401

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        workload.setup(args.seed)
        setup_end_ns = time.perf_counter_ns()
        workload.prepare()

        start_ns = time.perf_counter_ns()
        raw = workload.run()
        if tracer is None:
            outcome = workload.check(raw)
        else:
            with tracer.span("bench.check"):
                outcome = workload.check(raw)
        end_ns = time.perf_counter_ns()
        # Read before the sampler is reaped, so it is not counted.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        samples = json.loads(sampler.communicate()[0])
    except Exception:  # Reported as a failed repetition, not a crash.
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=1)}))
        return 1
    finally:
        if sampler.poll() is None:
            sampler.kill()
        sampler.wait()

    setup_wall_s = (setup_end_ns - setup_ns) * 1e-9
    setup_probe = probe_in(samples, setup_ns, setup_end_ns)
    result = {"setup_s": setup_wall_s * NOMINAL_PROBE_S / setup_probe,
              "setup_wall_s": setup_wall_s, "setup_probe_s": setup_probe,
              "wall_s": (end_ns - start_ns) * 1e-9,
              "probe_s": probe_in(samples, start_ns, end_ns),
              "ops": outcome.ops, "failed": outcome.failed,
              "digest": outcome.digest,
              "sim": outcome.sim, "requests": outcome.requests,
              "steps": outcome.steps, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, (start_ns, end_ns),
                                         outcome)
        if args.spans is not None:
            tracer.dump(args.spans, request_rows(outcome.report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
