"""Cluster serving — router policies, replica scaling, disaggregation.

PRs 1–3 built a single serving engine; this driver quantifies the
cluster layer (:class:`repro.serve.ServingCluster`) that spreads one
arrival stream over N engine replicas:

* **router comparison** — round-robin vs least-outstanding vs
  power-of-two-choices vs prefix-affinity at equal replica count.  The
  trace is dominated by shared system prompts served from each
  replica's paged prefix cache, so *where* a request lands decides
  whether its prefix is hot: hash-affinity keeps each group's blocks on
  one replica (``G/N`` groups per cache) while state-blind routers make
  every replica cache every group and LRU-thrash at a tight KV budget;
* **replica scaling** — goodput vs N at fixed per-replica silicon;
* **disaggregation** — unified replicas vs DistServe-style dedicated
  prefill/decode pools at equal total replicas, with the KV migration
  priced over the cluster interconnect.

``run_headline`` is the acceptance experiment: prefix-affinity vs
round-robin on a saturating shared-prefix trace, goodput ratio
>= 1.15x at equal replica count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigError
from ...llm.config import ModelConfig
from ...serve import (
    ClusterReport,
    LengthSpec,
    PrefixSpec,
    SweepPoint,
    TraceSpec,
    run_sweep,
)
from . import registry
from .paged_serving import SERVE_MODEL

#: RAG/agentic-re-ask lengths: prompts carry a heavy shared-prefix
#: head, outputs stay short, so prefill — the work routing can save —
#: dominates each request.
PROMPT_SPEC = LengthSpec("lognormal", value=96, low=16, high=384)
OUTPUT_SPEC = LengthSpec("lognormal", value=12, low=4, high=48)

#: Many long shared system prompts: 24 groups of 320 tokens each.  One
#: replica can keep its *affinity share* (24/N) of groups hot, but
#: nowhere near all 24 at the tight DEFAULT_CAPACITY_PEAKS budget —
#: which is exactly the routing headroom this experiment measures.
DEFAULT_PREFIX = PrefixSpec(share=0.8, n_groups=24,
                            length=LengthSpec("fixed", value=320),
                            dup_share=0.5)

#: Per-replica KV budget in peak request footprints (prefix + prompt +
#: output at the spec highs).  Deliberately tight: the pool holds a
#: replica's live decode set plus a *few* groups' prefix blocks, so a
#: state-blind router that spreads all 24 groups over every replica
#: LRU-thrashes the caches while affinity routing keeps its share hot.
DEFAULT_CAPACITY_PEAKS = 4.0

#: Arrival rate per replica that keeps the cluster saturated (the
#: regime where routing-induced prefill work moves the makespan).
DEFAULT_RATE_PER_REPLICA = 2.0

ROUTER_POLICIES = ("round-robin", "least-outstanding", "power-of-two",
                   "prefix-affinity")

#: Chat-style outputs for the disaggregation comparison — long enough
#: that decode interference (the thing disaggregation removes) matters.
DISAGG_OUTPUT_SPEC = LengthSpec("lognormal", value=48, low=16, high=128)

#: Interactivity SLO for the disaggregation comparison: a unified
#: replica's decodes stall behind every interleaved prefill chunk,
#: a dedicated decode replica's never do.
TPOT_SLO_S = 0.5


def peak_footprint_bytes(model: ModelConfig, kvq_bits: int = 4) -> float:
    """KV bytes of one worst-case request at the spec highs."""
    peak_tokens = (DEFAULT_PREFIX.length.value + PROMPT_SPEC.high
                   + OUTPUT_SPEC.high)
    return model.kv_cache_bytes(seq_len=peak_tokens, batch=1,
                                bits=kvq_bits)


def cluster_trace_spec(n_requests: int, rate_rps: float,
                       prefix: PrefixSpec | None = DEFAULT_PREFIX,
                       seed: int = 0,
                       output: LengthSpec = OUTPUT_SPEC) -> TraceSpec:
    """The experiment's shared-prefix Poisson workload as a declarative
    :class:`repro.serve.TraceSpec` (``.realize()`` builds the requests;
    the empty spawn key reproduces the seeded generator exactly)."""
    return TraceSpec("poisson", n_requests=n_requests, rate_rps=rate_rps,
                     prompt=PROMPT_SPEC, output=output, prefix=prefix,
                     seed=seed)


@dataclass(frozen=True)
class ClusterPoint:
    """One cell of a cluster-serving sweep."""

    router: str
    mode: str
    n_replicas: int
    goodput_rps: float
    throughput_tokens_s: float
    mean_ttft_s: float
    p99_ttft_s: float
    mean_tpot_s: float
    prefix_hit_rate: float
    token_balance: float
    preemptions: int
    migrations: int
    kv_transfer_seconds: float
    #: Goodput under :data:`TPOT_SLO_S` (the disaggregation sweep).
    slo_goodput_rps: float | None = None

    @classmethod
    def of(cls, report: ClusterReport,
           tpot_slo_s: float | None = None) -> "ClusterPoint":
        return cls(
            router=report.router, mode=report.mode,
            n_replicas=report.n_replicas,
            goodput_rps=report.goodput_rps(),
            throughput_tokens_s=report.throughput_tokens_s,
            mean_ttft_s=report.mean_ttft_s,
            p99_ttft_s=report.ttft_percentile(99),
            mean_tpot_s=report.mean_tpot_s,
            prefix_hit_rate=report.prefix_hit_rate,
            token_balance=report.token_balance,
            preemptions=report.preemptions,
            migrations=report.migrations,
            kv_transfer_seconds=report.kv_transfer_seconds,
            slo_goodput_rps=None if tpot_slo_s is None
            else report.goodput_rps(tpot_slo_s=tpot_slo_s))


def _cluster_point(label: str, model: ModelConfig, n_replicas: int,
                   router: str, trace: TraceSpec,
                   mode: str = "unified") -> SweepPoint:
    """One Mugi-per-replica cluster at the experiment's operating point,
    as a declarative sweep grid cell.

    The per-replica chunk budget (768) exceeds the largest possible
    prompt (256 + 384), so every non-cached prefill is a single chunk —
    router comparisons measure caching and balance, not chunking.
    """
    return SweepPoint(
        label=label, design=("mugi", 256), model=model, trace=trace,
        policy="paged", router=router, mode=mode, n_replicas=n_replicas,
        max_batch=24,
        kv_capacity_bytes=DEFAULT_CAPACITY_PEAKS
        * peak_footprint_bytes(model),
        block_size=16, chunk_tokens=768,
        seq_len_bucket=32)


def run_router_comparison(model: ModelConfig = SERVE_MODEL,
                          n_replicas: int = 4, n_requests: int = 400,
                          rate_per_replica: float =
                          DEFAULT_RATE_PER_REPLICA,
                          routers=ROUTER_POLICIES,
                          seed: int = 0, jobs: int = 1) -> list[ClusterPoint]:
    """Every router on the same saturating shared-prefix trace.

    Runs through :func:`repro.serve.run_sweep`; ``jobs>1`` fans the
    routers over worker processes with identical results.
    """
    trace = cluster_trace_spec(n_requests,
                               rate_per_replica * n_replicas, seed=seed)
    points = [_cluster_point(router, model, n_replicas, router, trace)
              for router in routers]
    sweep = run_sweep(points, jobs=jobs)
    return [ClusterPoint.of(outcome.report) for outcome in sweep]


def run_replica_scaling(model: ModelConfig = SERVE_MODEL,
                        replica_counts=(1, 2, 4, 8),
                        n_requests: int = 320,
                        rate_per_replica: float = DEFAULT_RATE_PER_REPLICA,
                        router: str = "prefix-affinity",
                        seed: int = 0, jobs: int = 1) -> list[ClusterPoint]:
    """Goodput vs replica count at a fixed per-replica offered load."""
    points = [_cluster_point(f"x{n}", model, n, router,
                             cluster_trace_spec(n_requests,
                                                rate_per_replica * n,
                                                seed=seed))
              for n in replica_counts]
    sweep = run_sweep(points, jobs=jobs)
    return [ClusterPoint.of(outcome.report) for outcome in sweep]


def run_disaggregation(model: ModelConfig = SERVE_MODEL,
                       n_replicas: int = 4, n_requests: int = 300,
                       rate_per_replica: float = 0.5,
                       seed: int = 0, jobs: int = 1) -> list[ClusterPoint]:
    """Unified vs disaggregated pools at equal total replicas.

    A chat trace (long decodes, :data:`DISAGG_OUTPUT_SPEC`): the
    unified baseline interleaves prefill chunks with decode steps, so
    every decode in a mixed step pays the prefill's step time;
    dedicated decode replicas only ever run small decode steps
    (DistServe's TPOT argument), at the price of one KV migration per
    request over the cluster interconnect.  Raw completion goodput
    favors unified pools — every replica contributes to the prefill
    bottleneck — but under the :data:`TPOT_SLO_S` interactivity SLO the
    ranking flips, which is exactly the DistServe tradeoff.
    """
    trace = cluster_trace_spec(n_requests, rate_per_replica * n_replicas,
                               seed=seed, output=DISAGG_OUTPUT_SPEC)
    points = [_cluster_point("unified", model, n_replicas,
                             "least-outstanding", trace),
              _cluster_point("disaggregated", model, n_replicas,
                             "least-outstanding", trace,
                             mode="disaggregated")]
    sweep = run_sweep(points, jobs=jobs)
    return [ClusterPoint.of(outcome.report, tpot_slo_s=TPOT_SLO_S)
            for outcome in sweep]


def run_headline(model: ModelConfig = SERVE_MODEL, n_replicas: int = 4,
                 n_requests: int = 600,
                 rate_per_replica: float = DEFAULT_RATE_PER_REPLICA,
                 seed: int = 7, jobs: int = 1) -> dict:
    """Acceptance headline: prefix-affinity vs round-robin goodput.

    Equal silicon (same replicas, same per-replica KV budget), same
    saturating shared-prefix trace; the only difference is where each
    request lands.  Affinity keeps every group's prefix blocks hot on
    one replica, so the cluster-wide hit rate — and with it the prefill
    work and the work-limited makespan — improves >= 1.15x in goodput.
    """
    spec = cluster_trace_spec(n_requests, rate_per_replica * n_replicas,
                              seed=seed)
    shared = sum(r.prefix_group is not None for r in spec.realize())
    points = [_cluster_point(router, model, n_replicas, router, spec)
              for router in ("round-robin", "prefix-affinity")]
    sweep = run_sweep(points, jobs=jobs)
    reports = {outcome.label: outcome.report for outcome in sweep}
    return {
        "n_requests": n_requests,
        "n_replicas": n_replicas,
        "shared_prefix_share": shared / n_requests,
        "round_robin": reports["round-robin"],
        "prefix_affinity": reports["prefix-affinity"],
        "goodput_ratio": reports["prefix-affinity"].goodput_rps()
        / reports["round-robin"].goodput_rps(),
    }


#: Variant name → underlying ``run_*`` driver.
VARIANTS = {
    "headline": run_headline,
    "routers": run_router_comparison,
    "replicas": run_replica_scaling,
    "disaggregation": run_disaggregation,
}


@registry.register(
    "cluster_serving",
    description="multi-replica routing, replica scaling, and "
                "disaggregated prefill/decode pools",
    defaults={"variant": "headline", "n_replicas": 4,
              "n_requests": None, "seed": None, "jobs": 1},
    smoke={"n_requests": 160, "jobs": 2})
def run(config: dict) -> registry.Report:
    """Uniform registry entry over the ``run_*`` drivers.

    ``variant`` picks the sweep; ``n_requests`` / ``seed`` default to
    each variant's own operating point when left ``None``.
    """
    variant = config.get("variant", "headline")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown cluster_serving variant "
                          f"{variant!r}; expected one of "
                          f"{sorted(VARIANTS)}")
    kwargs = {k: v for k, v in config.items() if v is not None}
    data = registry.call_with_config(VARIANTS[variant], kwargs,
                                     drop=("variant",))
    if variant == "headline":
        metrics = {"goodput_ratio": data["goodput_ratio"],
                   "shared_prefix_share": data["shared_prefix_share"]}
    else:
        metrics = {f"goodput_rps[{p.router}/{p.mode}/x{p.n_replicas}]":
                   p.goodput_rps for p in data}
    return registry.Report(experiment="cluster_serving", config=config,
                           data=data, metrics=metrics)
