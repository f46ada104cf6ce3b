"""Paged-KV serving — goodput vs block size, prefix share, and policy.

The paged engine's whole point is *effective batch width at fixed KV
capacity*: block-granular admission holds sequences at their current
footprint instead of their peak, prefix caching dedupes shared system
prompts, and chunked prefill keeps decodes flowing under long prompts.
This driver quantifies each knob on a shared-prefix trace served at a
deliberately tight KV budget (a few peak footprints), for single-chip
Mugi vs the iso-area systolic array and for a TP-sharded Mugi pod whose
block pool is split across KV-head shards
(:attr:`repro.parallel.ShardedSystem.kv_shard_factor`).

``run_headline`` is the acceptance experiment: a large Poisson trace
with >= 30 % shared-prefix requests, paged vs the PR 1 peak-reservation
continuous scheduler at *equal* KV capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...arch import make_design
from ...errors import ConfigError
from ...llm.config import LLAMA2_70B_GQA, ModelConfig
from ...parallel import ParallelConfig, ShardedSystem
from ...serve import (
    SCHEDULERS,
    BlockManager,
    LengthSpec,
    PagedScheduler,
    PrefixSpec,
    poisson_trace,
    simulate_trace,
)
from . import registry

#: 4-layer Llama2-70B-GQA slice (GQA group 8, the paper's operating
#: point) — same slice the serving-load sweep uses.
SERVE_MODEL = replace(LLAMA2_70B_GQA, name="Llama2-70B-GQA-4L", n_layers=4)

#: Chat-style ragged lengths with a heavier prompt tail than outputs.
PROMPT_SPEC = LengthSpec("lognormal", value=96, low=16, high=512)
OUTPUT_SPEC = LengthSpec("lognormal", value=64, low=8, high=256)

#: Shared system prompts: ~200-token prefixes over a handful of groups.
DEFAULT_PREFIX = PrefixSpec(share=0.35, n_groups=6,
                            length=LengthSpec("fixed", value=192),
                            dup_share=0.25)

#: KV budget in *peak request footprints* — tight enough that
#: peak-reservation admission is the bottleneck.
DEFAULT_CAPACITY_PEAKS = 6.0


def peak_footprint_bytes(model: ModelConfig, kvq_bits: int = 4) -> float:
    """KV bytes of one worst-case request (prompt + output at the spec
    highs, prefix included)."""
    peak_tokens = (DEFAULT_PREFIX.length.value + PROMPT_SPEC.high
                   + OUTPUT_SPEC.high)
    return model.kv_cache_bytes(seq_len=peak_tokens, batch=1,
                                bits=kvq_bits)


#: Priority mix of the policy comparison: 25 % premium traffic.
PRIORITY_MIX = (0, 0, 0, 1)


def make_trace(n_requests: int, rate_rps: float,
               prefix: PrefixSpec | None = DEFAULT_PREFIX,
               priorities=None, seed: int = 0) -> list:
    return poisson_trace(n_requests=n_requests, rate_rps=rate_rps,
                         prompt=PROMPT_SPEC, output=OUTPUT_SPEC,
                         prefix=prefix, priorities=priorities, seed=seed)


def _designs(model: ModelConfig) -> dict:
    """Single-chip Mugi vs iso-area systolic, plus a TP2 Mugi pod."""
    return {
        "Mugi (256)": make_design("mugi", 256),
        "SA (16)": make_design("sa", 16),
        "TP2 Mugi (256)": ShardedSystem(make_design("mugi", 256), model,
                                        ParallelConfig(tp=2)),
    }


@dataclass(frozen=True)
class PagedPoint:
    """One cell of a paged-serving sweep."""

    design: str
    policy: str
    block_size: int
    prefix_share: float
    goodput_rps: float
    mean_ttft_s: float
    p99_queue_delay_s: float
    prefix_hit_rate: float
    preemptions: int
    mean_kv_utilization: float
    #: Mean TTFT of priority > 0 requests (None without premium traffic).
    premium_ttft_s: float | None = None


def _run_point(design, model: ModelConfig, trace, policy: str,
               capacity_bytes: float, block_size: int, prefix_share: float,
               max_batch: int, chunk_tokens: int, seq_len_bucket: int,
               label: str | None = None) -> PagedPoint:
    paged = issubclass(SCHEDULERS[policy], PagedScheduler)
    scheduler_kwargs = None
    if paged:
        # Sharded pods split each sequence's KV across KV-head/pipeline
        # shards; for_design sizes the pool from the per-chip budget.
        # Here capacity_bytes is the *aggregate* budget for every
        # design, so the pool is built directly (factor 1) — what makes
        # the single-chip and pod columns comparable.
        manager = BlockManager(model, capacity_bytes,
                               block_size=block_size)
        scheduler_kwargs = {"block_manager": manager,
                            "chunk_tokens": chunk_tokens}
    report = simulate_trace(
        design, model, trace, policy=policy, max_batch=max_batch,
        kv_capacity_bytes=None if paged else capacity_bytes,
        seq_len_bucket=seq_len_bucket, scheduler_kwargs=scheduler_kwargs)
    premium = [r.ttft_s for r in report.records
               if r.request.priority > 0]
    return PagedPoint(
        design=label or report.design, policy=policy,
        block_size=block_size,
        prefix_share=prefix_share, goodput_rps=report.goodput_rps(),
        mean_ttft_s=report.mean_ttft_s,
        p99_queue_delay_s=report.p99_queue_delay_s,
        prefix_hit_rate=report.prefix_hit_rate,
        preemptions=report.preemptions,
        mean_kv_utilization=report.mean_kv_utilization,
        premium_ttft_s=sum(premium) / len(premium) if premium else None)


def run_block_size_sweep(block_sizes=(8, 16, 32, 64, 128),
                         model: ModelConfig = SERVE_MODEL,
                         n_requests: int = 200, rate_rps: float = 0.4,
                         max_batch: int = 16, chunk_tokens: int = 256,
                         capacity_peaks: float = DEFAULT_CAPACITY_PEAKS,
                         seq_len_bucket: int = 32,
                         seed: int = 0) -> list[PagedPoint]:
    """Goodput vs block size at fixed capacity.

    Small blocks track footprints tightly but fragment prefix sharing
    to full-block granularity; huge blocks approach peak reservation.
    """
    trace = make_trace(n_requests, rate_rps, seed=seed)
    capacity = capacity_peaks * peak_footprint_bytes(model)
    points = []
    for name, design in _designs(model).items():
        for block_size in block_sizes:
            points.append(_run_point(
                design, model, trace, "paged", capacity, block_size,
                DEFAULT_PREFIX.share, max_batch, chunk_tokens,
                seq_len_bucket, label=name))
    return points


def run_prefix_share_sweep(shares=(0.0, 0.2, 0.4, 0.6, 0.8),
                           model: ModelConfig = SERVE_MODEL,
                           n_requests: int = 200, rate_rps: float = 0.4,
                           max_batch: int = 16, block_size: int = 16,
                           chunk_tokens: int = 256,
                           capacity_peaks: float = DEFAULT_CAPACITY_PEAKS,
                           seq_len_bucket: int = 32,
                           seed: int = 0) -> list[PagedPoint]:
    """Goodput and hit rate vs the trace's shared-prefix share."""
    capacity = capacity_peaks * peak_footprint_bytes(model)
    points = []
    designs = _designs(model)
    for share in shares:
        prefix = None if share == 0 else replace(DEFAULT_PREFIX,
                                                 share=share)
        trace = make_trace(n_requests, rate_rps, prefix=prefix, seed=seed)
        for name, design in designs.items():
            points.append(_run_point(
                design, model, trace, "paged", capacity, block_size,
                share, max_batch, chunk_tokens, seq_len_bucket,
                label=name))
    return points


def run_policy_comparison(model: ModelConfig = SERVE_MODEL,
                          n_requests: int = 200, rate_rps: float = 0.4,
                          max_batch: int = 16, block_size: int = 16,
                          chunk_tokens: int = 256,
                          capacity_peaks: float = DEFAULT_CAPACITY_PEAKS,
                          seq_len_bucket: int = 32,
                          seed: int = 0) -> list[PagedPoint]:
    """Peak-reservation policies vs the paged scheduler stack on one
    design (Mugi 256), same trace and capacity.

    The trace carries a 25 % premium-priority mix (:data:`PRIORITY_MIX`)
    so the priority and preemptive policies actually reorder work —
    on an all-equal-priority trace they degenerate to FCFS.
    """
    trace = make_trace(n_requests, rate_rps, priorities=PRIORITY_MIX,
                       seed=seed)
    capacity = capacity_peaks * peak_footprint_bytes(model)
    design = make_design("mugi", 256)
    policies = [p for p in sorted(SCHEDULERS) if p != "static"]
    return [_run_point(design, model, trace, policy, capacity, block_size,
                       DEFAULT_PREFIX.share, max_batch, chunk_tokens,
                       seq_len_bucket)
            for policy in policies]


def run_headline(model: ModelConfig = SERVE_MODEL,
                 n_requests: int = 10_000, rate_rps: float = 2.0,
                 max_batch: int = 32, block_size: int = 16,
                 chunk_tokens: int = 768,
                 capacity_peaks: float = DEFAULT_CAPACITY_PEAKS,
                 seq_len_bucket: int = 32, seed: int = 7) -> dict:
    """Acceptance headline: paged vs peak-reservation at equal capacity.

    A 10k-request trace with >= 30 % shared-prefix requests on Mugi 256;
    returns both reports plus the goodput ratio.

    The default chunk budget (768) exceeds the trace's largest prompt
    (prefix 192 + private 512) on purpose: a non-cached prefill is then
    one ``(0, S)`` chunk, priced *identically* to the baseline's
    one-shot prefill op, so the measured ratio is pure scheduling +
    prefix caching — not the block-causal attention discount that
    multi-chunk prefill would otherwise enjoy over the baseline's
    square-attention lowering.
    """
    trace = make_trace(n_requests, rate_rps, seed=seed)
    shared = sum(r.prefix_group is not None for r in trace)
    capacity = capacity_peaks * peak_footprint_bytes(model)
    design = make_design("mugi", 256)
    peak = simulate_trace(design, model, trace, policy="continuous",
                          max_batch=max_batch,
                          kv_capacity_bytes=capacity,
                          seq_len_bucket=seq_len_bucket)
    paged = simulate_trace(
        design, model, trace, policy="paged", max_batch=max_batch,
        seq_len_bucket=seq_len_bucket,
        scheduler_kwargs={
            "block_manager": BlockManager(model, capacity,
                                          block_size=block_size),
            "chunk_tokens": chunk_tokens})
    return {
        "n_requests": n_requests,
        "shared_prefix_share": shared / len(trace),
        "kv_capacity_bytes": capacity,
        "peak": peak,
        "paged": paged,
        "goodput_ratio": paged.goodput_rps() / peak.goodput_rps(),
    }


#: Variant name → underlying ``run_*`` driver.
VARIANTS = {
    "headline": run_headline,
    "block_sizes": run_block_size_sweep,
    "prefix_shares": run_prefix_share_sweep,
    "policies": run_policy_comparison,
}


@registry.register(
    "paged_serving",
    description="paged-KV goodput vs block size, prefix share, and "
                "scheduler policy at a tight KV budget",
    defaults={"variant": "headline", "n_requests": None, "seed": None},
    smoke={"variant": "policies", "n_requests": 120})
def run(config: dict) -> registry.Report:
    """Uniform registry entry over the ``run_*`` drivers."""
    variant = config.get("variant", "headline")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown paged_serving variant {variant!r}; "
                          f"expected one of {sorted(VARIANTS)}")
    kwargs = {k: v for k, v in config.items() if v is not None}
    data = registry.call_with_config(VARIANTS[variant], kwargs,
                                     drop=("variant",))
    if variant == "headline":
        metrics = {"goodput_ratio": data["goodput_ratio"],
                   "shared_prefix_share": data["shared_prefix_share"]}
    else:
        metrics = {}
        for p in data:
            key = {"block_sizes": f"goodput_rps[{p.design}/b{p.block_size}]",
                   "prefix_shares":
                   f"goodput_rps[{p.design}/s{p.prefix_share:g}]",
                   "policies": f"goodput_rps[{p.policy}]"}[variant]
            metrics[key] = p.goodput_rps
    return registry.Report(experiment="paged_serving", config=config,
                           data=data, metrics=metrics)
