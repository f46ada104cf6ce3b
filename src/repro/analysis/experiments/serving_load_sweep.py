"""Serving-load sweep — latency–throughput curves under live traffic.

Extends the per-step Table 3 / Fig. 14 metrics to *serving* conditions:
Poisson request arrivals with ragged prompt/output lengths run through
the continuous-batching engine on each design.  At equal area
(Mugi 256 ≈ 2.5 mm² vs SA 2.7 mm²), Mugi's small-batch utilization
(§2.3.1, Fig. 14) shows up as higher sustained goodput once offered load
exceeds the systolic array's capacity, while the tensor core buys its
throughput with ~6x the area and worse power efficiency.

The served model is a 4-layer slice of Llama2-70B-GQA: the GQA group of
8 fills Mugi's columns (the paper's operating point), and the shallow
depth keeps sweep wall time tractable without changing any per-step
design ranking (steps are a per-layer sum).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...arch import make_design
from ...llm.config import LLAMA2_70B_GQA, ModelConfig
from ...serve import LengthSpec, SweepPoint, TraceSpec, run_sweep
from . import registry

#: The sweep's design list: (kind, size).  Mugi vs systolic at equal
#: area, plus the scaled-up tensor core for the area-vs-goodput contrast.
SERVE_DESIGNS = (("mugi", 256), ("sa", 16), ("sd", 16), ("tensor", None))

#: 4-layer Llama2-70B-GQA slice (GQA group 8 — the small-batch regime).
SERVE_MODEL = replace(LLAMA2_70B_GQA, name="Llama2-70B-GQA-4L", n_layers=4)

#: Default offered loads (requests/s) spanning under- to over-load for
#: the single-node designs above.
DEFAULT_LOADS = (0.02, 0.04, 0.08, 0.16, 0.32, 0.64)

#: Ragged length distributions of the default traffic mix — a chat-style
#: decode-heavy mix (outputs ≈ prompts), where the small-batch decode
#: utilization gap between the designs is exposed.
PROMPT_SPEC = LengthSpec("lognormal", value=64, low=8, high=256)
OUTPUT_SPEC = LengthSpec("lognormal", value=64, low=8, high=256)


@dataclass(frozen=True)
class LoadPoint:
    """One (design, offered load) cell of the latency–throughput curve."""

    design: str
    area_mm2: float
    offered_rps: float
    goodput_rps: float
    throughput_tokens_s: float
    p50_latency_s: float
    p99_latency_s: float
    mean_ttft_s: float
    mean_tpot_s: float
    energy_per_token_j: float


def run_load_sweep(loads=DEFAULT_LOADS, designs=SERVE_DESIGNS,
                   model: ModelConfig = SERVE_MODEL,
                   n_requests: int = 150,
                   max_batch: int = 8, policy: str = "continuous",
                   seq_len_bucket: int = 32, seed: int = 0,
                   jobs: int = 1) -> list[LoadPoint]:
    """Sweep offered load per design; one trace per load (shared across
    designs so curves differ only by hardware).

    ``max_batch`` defaults to the paper's service batch of 8 — the
    small-batch regime where decode tokens fill Mugi's 8 columns but
    leave a 16-wide systolic array half idle.

    The grid runs through :func:`repro.serve.run_sweep`: ``jobs=1``
    executes inline exactly as the old sequential loop did, ``jobs>1``
    fans the (design x load) points over worker processes.  Points are
    pure functions of their spec, so the returned curve is identical
    for any ``jobs``.
    """
    kv_capacity = model.kv_cache_bytes(seq_len=model.max_seq_len,
                                       batch=max_batch)
    points = []
    for kind, size in designs:
        name = kind if size is None else f"{kind}-{size}"
        for rate in loads:
            points.append(SweepPoint(
                label=f"{name}@{rate:g}rps", design=(kind, size),
                model=model,
                trace=TraceSpec("poisson", n_requests=n_requests,
                                rate_rps=rate, prompt=PROMPT_SPEC,
                                output=OUTPUT_SPEC, seed=seed),
                policy=policy, max_batch=max_batch,
                kv_capacity_bytes=kv_capacity,
                seq_len_bucket=seq_len_bucket))
    sweep = run_sweep(points, jobs=jobs)
    # Labels/areas come from a throwaway instance per design kind; the
    # sweep resolves its own (memoized) instances for the runs.
    cards = {spec: make_design(*spec) for spec in
             {p.design for p in points}}
    results = []
    for point, outcome in zip(points, sweep):
        design = cards[point.design]
        report = outcome.report
        rate = point.trace.rate_rps
        results.append(LoadPoint(
            design=design.label(), area_mm2=design.area_mm2,
            offered_rps=rate, goodput_rps=report.goodput_rps(),
            throughput_tokens_s=report.throughput_tokens_s,
            p50_latency_s=report.p50_latency_s,
            p99_latency_s=report.p99_latency_s,
            mean_ttft_s=report.mean_ttft_s,
            mean_tpot_s=report.mean_tpot_s,
            energy_per_token_j=report.energy_per_token_j))
    return results


def curve(points: list[LoadPoint], design: str) -> list[LoadPoint]:
    """One design's curve, ordered by offered load."""
    return sorted((p for p in points if p.design == design),
                  key=lambda p: p.offered_rps)


def saturation_goodput(points: list[LoadPoint], design: str) -> float:
    """The design's best sustained goodput across the sweep."""
    series = [p.goodput_rps for p in points if p.design == design]
    return max(series)


@registry.register(
    "serving_load_sweep",
    description="latency-throughput curves per design under Poisson "
                "load (continuous batching)",
    defaults={"loads": DEFAULT_LOADS, "designs": SERVE_DESIGNS,
              "n_requests": 150, "max_batch": 8,
              "policy": "continuous", "seq_len_bucket": 32, "seed": 0,
              "jobs": 1},
    smoke={"loads": (0.08, 0.32), "designs": (("mugi", 256), ("sa", 16)),
           "n_requests": 60})
def run(config: dict) -> registry.Report:
    """Uniform registry entry; the original keyword API lives on as
    :func:`run_load_sweep`."""
    points = registry.call_with_config(run_load_sweep, config)
    metrics = {f"saturation_goodput_rps[{design}]":
               saturation_goodput(points, design)
               for design in sorted({p.design for p in points})}
    return registry.Report(experiment="serving_load_sweep",
                           config=config, data=points, metrics=metrics)
