"""Continuous-batching serving simulator with paged KV management.

A discrete-event layer above the architecture simulator: request traces
(:mod:`.trace`) flow through a batching policy — a subclass of the one
:class:`Scheduler` base, either peak reservation (:mod:`.scheduler`:
``continuous``, ``static``) or the paged block-granular stack
(:mod:`.policy` over :mod:`.kv_cache`: prefix caching, chunked prefill,
recompute/swap preemption; each paged class holds its own ordering
rules), all registered in :data:`SCHEDULERS` — and
a step loop (:mod:`.engine`) that lowers each step's ragged active set
to operator graphs and prices them on any Table 2 design or NoC system;
:mod:`.metrics` aggregates TTFT/TPOT/latency/queue-delay percentiles,
goodput, KV utilization, and prefix-hit rate.

Above the single engine sits the cluster layer (:mod:`.cluster` /
:mod:`.router`): N independent replicas behind a pluggable router
(round-robin, least-outstanding, power-of-two-choices, prefix-affinity)
with an optional DistServe-style disaggregated mode that dedicates
replicas to prefill vs decode and charges the KV migration over an
:class:`repro.parallel.InterconnectConfig` link.

Quick start::

    from repro.arch import make_design
    from repro.llm import LLAMA2_70B_GQA
    from repro.serve import make_cluster, poisson_trace, simulate_trace

    trace = poisson_trace(n_requests=500, rate_rps=1.0, seed=0)
    report = simulate_trace(make_design("mugi", 256), LLAMA2_70B_GQA,
                            trace, policy="continuous", max_batch=16)
    print(report.summary())

    cluster = make_cluster(make_design("mugi", 256), LLAMA2_70B_GQA,
                           n_replicas=4, router="prefix-affinity")
    print(cluster.run(trace).summary())
"""

from .autoscale import (
    AUTOSCALERS,
    Autoscaler,
    AutoscalingCluster,
    ColdStartConfig,
    DEFAULT_COLD_START,
    FleetSnapshot,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    StaticAutoscaler,
    make_autoscaler,
)
from .cluster import Replica, ServingCluster, make_cluster, simulate_trace
from .costs import StepCost, StepCostCache, step_cost_store
from .engine import ServingEngine
from .kv_cache import BlockManager, BlockPoolStats
from .metrics import (
    ClusterReport,
    FleetReport,
    RequestRecord,
    ServingReport,
    percentile,
)
from .router import (
    ROUTERS,
    LeastOutstandingRouter,
    PowerOfTwoRouter,
    PrefixAffinityRouter,
    Router,
    RoundRobinRouter,
    make_router,
)
from .policy import (
    ChunkTask,
    PagedFairShareScheduler,
    PagedPreemptiveScheduler,
    PagedPriorityScheduler,
    PagedScheduler,
    PagedSequenceState,
    PagedTenantPriorityScheduler,
    TenantSLO,
    tenant_slo_map,
)
from .scheduler import (
    SCHEDULERS,
    ContinuousBatchScheduler,
    Scheduler,
    SequenceState,
    StaticBatchScheduler,
    StepPlan,
    make_scheduler,
)
from .sweep import (
    SweepExecutor,
    SweepOutcome,
    SweepPoint,
    SweepReport,
    TraceSpec,
    run_point,
    run_sweep,
    trace_cache_stats,
)
from .trace import (
    LengthSpec,
    PrefixSpec,
    Request,
    TenantSpec,
    bursty_trace,
    multi_tenant_trace,
    offered_load_rps,
    poisson_trace,
    spawn_rng,
    steady_trace,
)

__all__ = [
    "AUTOSCALERS",
    "DEFAULT_COLD_START",
    "ROUTERS",
    "SCHEDULERS",
    "Autoscaler",
    "AutoscalingCluster",
    "BlockManager",
    "BlockPoolStats",
    "ChunkTask",
    "ClusterReport",
    "ColdStartConfig",
    "ContinuousBatchScheduler",
    "FleetReport",
    "FleetSnapshot",
    "LeastOutstandingRouter",
    "LengthSpec",
    "PagedFairShareScheduler",
    "PagedPreemptiveScheduler",
    "PagedPriorityScheduler",
    "PagedScheduler",
    "PagedSequenceState",
    "PagedTenantPriorityScheduler",
    "PowerOfTwoRouter",
    "PredictiveAutoscaler",
    "PrefixAffinityRouter",
    "PrefixSpec",
    "ReactiveAutoscaler",
    "Replica",
    "Request",
    "RequestRecord",
    "Router",
    "RoundRobinRouter",
    "Scheduler",
    "SequenceState",
    "ServingCluster",
    "ServingEngine",
    "ServingReport",
    "StaticAutoscaler",
    "StaticBatchScheduler",
    "StepCost",
    "StepCostCache",
    "StepPlan",
    "SweepExecutor",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "TenantSLO",
    "TenantSpec",
    "TraceSpec",
    "bursty_trace",
    "make_autoscaler",
    "make_cluster",
    "make_router",
    "make_scheduler",
    "multi_tenant_trace",
    "offered_load_rps",
    "percentile",
    "poisson_trace",
    "run_point",
    "run_sweep",
    "simulate_trace",
    "spawn_rng",
    "steady_trace",
    "step_cost_store",
    "tenant_slo_map",
    "trace_cache_stats",
]
