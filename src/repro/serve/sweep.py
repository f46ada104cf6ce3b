"""Multiprocess sweep executor — fan a serving grid over processes.

Every experiment driver in :mod:`repro.analysis.experiments` and every
benchmark scenario in ``benchmarks/`` is at heart the same loop: build
a trace, build a design, run :func:`repro.serve.simulate_trace` (or a
:func:`repro.serve.make_cluster` cluster), collect the report.  Grid
points are embarrassingly parallel — nothing flows between them except
shared pricing caches — so this module turns the loop inside out:

* a :class:`SweepPoint` is one fully *declarative* grid point — design
  spec (kind/size, not an instance), model config, :class:`TraceSpec`,
  scheduler policy, optional router/replica topology.  Everything is a
  frozen dataclass of primitives, so a point pickles cheaply to a
  ``spawn`` worker;
* traces are **regenerated in the worker** from ``(seed, spawn_key)``
  via :func:`repro.serve.trace.spawn_rng` rather than shipped — a 1M
  request trace is hundreds of MB as pickled objects but 12 bytes as a
  seed, and SeedSequence spawning makes the result independent of which
  worker runs the point, in what order, or how many workers exist;
* :func:`run_sweep` executes points with ``jobs`` processes and returns
  a :class:`SweepReport` whose outcomes are in *input order* regardless
  of completion order, with per-point wall clocks and each report's
  step-cost cache hit/miss counters.

``jobs=1`` runs inline in the calling process — no pool, no pickling —
which keeps the parent's warm design/cost caches in play and is the
bit-identical drop-in for the old sequential loops.  Reports are pure
functions of their point (costs are deterministic, traces are seeded),
so ``jobs=N`` returns the same reports as ``jobs=1``; only wall clocks
and cache-locality counters differ.

For *sessions* of sweeps — a successive-halving search running rung
after rung, a gate checking many scenarios, an experiment comparing
strategies — :class:`SweepExecutor` amortizes the fixed costs one-shot
:func:`run_sweep` re-pays per call:

* **pool reuse** — one long-lived ``spawn`` pool for the executor's
  lifetime, so worker interpreters (and everything they have cached:
  designs, priced cost surfaces, trace columns) survive across calls
  instead of being torn down per rung;
* a **worker-side trace-column cache** — an LRU keyed by the
  :class:`TraceSpec` itself (prefix-shrunk rung specs key separately),
  holding the generated numpy columns so co-workload points pay RNG
  generation once per process and only re-materialize ``Request``
  objects per run (columns cost ~56 bytes a request, objects several
  hundred);
* **cross-run outcome memoization** — canonically-keyed (label
  stripped) ``(SweepPoint, TraceSpec)`` → :class:`SweepOutcome`, so a
  grid-vs-halving comparison or a re-scored candidate returns the
  cached report instead of re-simulating.  Hit/miss/eviction counters
  ride on every :class:`SweepReport`.

:func:`run_sweep` is now a thin wrapper over a throwaway executor with
memoization off, so existing callers keep their exact semantics
(repeated identical points — e.g. gate timing runs — still re-run).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache

from ..arch import make_design
from ..errors import ConfigError
from ..llm.config import ModelConfig
from .autoscale import AutoscalingCluster
from .cluster import make_cluster, simulate_trace
from .policy import PagedScheduler
from .scheduler import scheduler_class
from .trace import (
    LengthSpec,
    PrefixSpec,
    Request,
    bursty_trace,
    multi_tenant_trace,
    poisson_trace,
    requests_from_columns,
    spawn_rng,
    steady_trace,
    trace_columns,
)

__all__ = [
    "SweepExecutor",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "TraceSpec",
    "run_point",
    "run_sweep",
    "trace_cache_stats",
]

#: Trace builders a :class:`TraceSpec` can name.
TRACE_KINDS = ("poisson", "steady", "bursty", "multi-tenant")


@dataclass(frozen=True)
class TraceSpec:
    """A trace as a recipe instead of a request list.

    ``realize()`` rebuilds the identical trace anywhere — the parent,
    a sweep worker, a different machine — as a pure function of the
    spec.  ``spawn_key`` selects an independent SeedSequence child
    stream per grid point; the empty key reproduces
    ``numpy.random.default_rng(seed)`` exactly, so a spec wrapping an
    existing single-trace workload stays bit-identical to it.
    """

    kind: str = "poisson"
    n_requests: int = 100
    rate_rps: float = 1.0
    prompt: LengthSpec = LengthSpec("lognormal", value=256,
                                    low=16, high=2048)
    output: LengthSpec = LengthSpec("lognormal", value=64,
                                    low=4, high=512)
    prefix: PrefixSpec | None = None
    priorities: tuple | None = None
    #: Bursty-only shape knobs (ignored by poisson/steady).
    burst_size: int = 8
    burst_period_s: float = 1.0
    jitter_s: float = 0.0
    #: Multi-tenant-only shape: TenantSpec tuple plus the simulated
    #: span and diurnal period (requests come from the tenants' rates,
    #: not ``n_requests``).
    tenants: tuple = ()
    duration_s: float = 0.0
    day_s: float = 86400.0
    seed: int = 0
    spawn_key: tuple = ()

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ConfigError(f"unknown trace kind {self.kind!r}; "
                              f"expected one of {TRACE_KINDS}")
        if self.priorities is not None:
            object.__setattr__(self, "priorities",
                               tuple(int(p) for p in self.priorities))
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "spawn_key", tuple(self.spawn_key))
        if self.kind == "multi-tenant":
            if not self.tenants:
                raise ConfigError(
                    "multi-tenant trace needs a TenantSpec tuple")
            # Written so NaN fails too (see multi_tenant_trace).
            if not (0 < self.duration_s < math.inf
                    and 0 < self.day_s < math.inf):
                raise ConfigError(
                    "multi-tenant trace needs a finite, positive "
                    "duration_s and day_s")
        elif self.tenants:
            raise ConfigError(
                f"tenants only apply to kind='multi-tenant', "
                f"not {self.kind!r}")

    def realize(self) -> list[Request]:
        """Materialize the request list this spec describes."""
        rng = spawn_rng(self.seed, self.spawn_key)
        if self.kind == "multi-tenant":
            return multi_tenant_trace(self.tenants, self.duration_s,
                                      day_s=self.day_s, rng=rng)
        common = {"n_requests": self.n_requests, "prompt": self.prompt,
                  "output": self.output, "prefix": self.prefix,
                  "priorities": self.priorities, "rng": rng}
        if self.kind == "poisson":
            return poisson_trace(rate_rps=self.rate_rps, **common)
        if self.kind == "steady":
            return steady_trace(rate_rps=self.rate_rps, **common)
        return bursty_trace(burst_size=self.burst_size,
                            burst_period_s=self.burst_period_s,
                            jitter_s=self.jitter_s, **common)


@dataclass(frozen=True)
class SweepPoint:
    """One declarative grid point of a serving sweep.

    ``design`` is a ``(kind, size)`` spec resolved per process through
    a memo (:func:`_design_of`), so points sharing a design inside one
    worker also share its op-cost memos and step-cost store — the same
    warm-cache behaviour the sequential experiment loops had.
    ``tp`` / ``pp`` > 1 wrap the chip in a
    :class:`repro.parallel.ShardedSystem` pod (memoized the same way),
    so a sweep can range over the parallelism grid declaratively.

    ``router=None`` runs a single engine through
    :func:`repro.serve.simulate_trace` (a one-replica cluster that
    routes nothing); naming a router builds an ``n_replicas``-wide
    :func:`repro.serve.make_cluster` cluster
    (``mode="disaggregated"`` for split prefill/decode pools, with
    ``prefill_replicas`` naming the split — ``None`` keeps the
    factory's even default).

    The per-experiment knobs that used to hide inside
    ``scheduler_kwargs`` are first-class fields: ``block_size`` /
    ``chunk_tokens`` (paged policies only) join ``router``,
    ``autoscaler``, and ``tick_s`` so every axis the cluster and
    autoscaling paths support is a declared, validated field.
    ``scheduler_kwargs`` stays for the long tail (preemption mode,
    admit headroom, ...); naming a promoted knob there is rejected, so
    ``point.block_size`` is the one spelling.

    ``scheduler_kwargs`` / ``autoscaler_kwargs`` are tuples of
    ``(name, value)`` pairs so the point stays hashable/frozen; dicts
    are accepted and normalized.

    Naming an ``autoscaler`` runs an elastic
    :class:`repro.serve.AutoscalingCluster` fleet instead of a fixed
    cluster: ``n_replicas`` becomes the fleet ceiling, ``slos``
    carries the per-tenant terms into the scheduler policy, and the
    point yields a :class:`repro.serve.FleetReport`.  A fleet needs a
    router; leaving ``router=None`` normalizes to the fleet's
    ``"least-outstanding"`` default at construction (visible on the
    point) rather than silently inside the executor.
    """

    label: str
    design: tuple
    model: ModelConfig
    trace: TraceSpec
    policy: str = "continuous"
    max_batch: int = 16
    kv_capacity_bytes: float | None = None
    kvq_bits: int = 4
    seq_len_bucket: int = 1
    scheduler_kwargs: tuple = ()
    #: Sharded-pod degrees; (1, 1) serves the bare chip.
    tp: int = 1
    pp: int = 1
    #: Paged-scheduler geometry (None = the scheduler's own default).
    block_size: int | None = None
    chunk_tokens: int | None = None
    router: str | None = None
    n_replicas: int = 1
    mode: str = "unified"
    #: Disaggregated-mode prefill-pool size (None = factory default of
    #: ``n_replicas // 2``); the rest of the replicas decode.
    prefill_replicas: int | None = None
    autoscaler: str | None = None
    autoscaler_kwargs: tuple = ()
    tick_s: float = 60.0
    slos: tuple = ()

    def __post_init__(self):
        kind, size = self.design
        object.__setattr__(self, "design",
                           (str(kind), None if size is None else int(size)))
        for name in ("scheduler_kwargs", "autoscaler_kwargs"):
            value = getattr(self, name)
            if isinstance(value, dict):
                object.__setattr__(self, name,
                                   tuple(sorted(value.items())))
            else:
                object.__setattr__(self, name, tuple(value))
        object.__setattr__(self, "slos", tuple(self.slos))
        if self.autoscaler is None:
            if self.autoscaler_kwargs:
                raise ConfigError(
                    "autoscaler_kwargs without an autoscaler")
            if self.slos:
                raise ConfigError(
                    "tenant slos currently ride the autoscaling fleet; "
                    "name an autoscaler (static reproduces a fixed "
                    "cluster)")
            if self.router is None and self.n_replicas != 1:
                raise ConfigError("n_replicas > 1 needs a router; pass "
                                  "router='round-robin' for the default")
        else:
            if self.mode != "unified":
                raise ConfigError(
                    "autoscaling fleets are unified-mode only")
            if self.router is None:
                # The fleet factory's default, made visible on the
                # point instead of applied ad hoc at execution time.
                object.__setattr__(self, "router", "least-outstanding")
        if self.n_replicas < 1:
            raise ConfigError("n_replicas must be positive")
        for name in ("tp", "pp"):
            value = int(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.pp > self.model.n_layers:
            raise ConfigError(
                f"pp={self.pp} exceeds {self.model.name}'s "
                f"{self.model.n_layers} layers")
        if self.mode not in ("unified", "disaggregated"):
            raise ConfigError(f"unknown cluster mode {self.mode!r}; "
                              f"expected 'unified' or 'disaggregated'")
        if self.mode == "disaggregated" and self.router is None:
            raise ConfigError(
                "disaggregated mode runs a cluster; name a router")
        if self.prefill_replicas is not None:
            if self.mode != "disaggregated":
                raise ConfigError(
                    "prefill_replicas only applies to "
                    "mode='disaggregated'")
            value = int(self.prefill_replicas)
            object.__setattr__(self, "prefill_replicas", value)
            if not 1 <= value < self.n_replicas:
                raise ConfigError(
                    f"prefill_replicas must leave at least one decode "
                    f"replica: need 1 <= prefill_replicas < "
                    f"{self.n_replicas}, got {value}")
        paged = issubclass(scheduler_class(self.policy), PagedScheduler)
        scheduler_kwargs = dict(self.scheduler_kwargs)
        object.__setattr__(self, "scheduler_kwargs",
                           tuple(sorted(scheduler_kwargs.items())))
        for name in ("block_size", "chunk_tokens"):
            if name in scheduler_kwargs:
                raise ConfigError(
                    f"{name} is a SweepPoint field; pass {name}=..., "
                    f"not scheduler_kwargs={{{name!r}: ...}}")
            value = getattr(self, name)
            if value is None:
                continue
            value = int(value)
            object.__setattr__(self, name, value)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            if not paged:
                raise ConfigError(
                    f"{name} applies to the paged scheduler stack, not "
                    f"policy={self.policy!r}")


@lru_cache(maxsize=None)
def _design_of(kind: str, size: int | None):
    """Per-process design memo.

    Identity matters, not just equality: the step-cost registry
    (:mod:`repro.serve.costs`) keys on the design *instance*, so
    returning the same object for repeated specs lets every point that
    names ``("mugi", 256)`` share one priced surface and one LRU.
    """
    return make_design(kind, size)


@lru_cache(maxsize=None)
def _sharded_of(kind: str, size: int | None, tp: int, pp: int,
                model: ModelConfig):
    """Per-process sharded-pod memo over :func:`_design_of` chips.

    The pod wraps the memoized chip, so TP/PP variants of one design
    share the chip's op-cost memos while each (tp, pp, model) grid
    point keeps its own pod identity (and so its own step-cost store).
    """
    from ..parallel import ParallelConfig, ShardedSystem

    return ShardedSystem(_design_of(kind, size), model,
                         ParallelConfig(tp=tp, pp=pp))


def _resolve_design(point: SweepPoint):
    """The (memoized) design instance a point serves on."""
    if point.tp == 1 and point.pp == 1:
        return _design_of(*point.design)
    return _sharded_of(*point.design, point.tp, point.pp, point.model)


#: Trace-column cache budget: entries and total cached rows (requests).
#: Columns cost ~56 bytes/request, so the default row budget bounds the
#: cache near 112 MB — enough to hold every gate scenario's trace at
#: once — while the entry cap keeps lookups O(1) on tiny sweeps.
DEFAULT_TRACE_CACHE_ENTRIES = 32
DEFAULT_TRACE_CACHE_ROWS = 2_000_000


class _TraceColumnCache:
    """Per-process LRU of :class:`TraceSpec` → generated trace columns.

    The executor's worker-side cache: a rung of N co-workload points
    pays RNG generation once per process, and every later realization
    rebuilds ``Request`` objects from the cached columns
    (:func:`repro.serve.trace.requests_from_columns`), which take a
    fraction of the objects' memory.  Prefix-shrunk rung specs differ
    from the full workload's spec, so they key (and cache) separately.

    Evicts least-recently-used entries when either budget — entry count
    or total cached rows — is exceeded; a single trace larger than the
    row budget is simply never cached.
    """

    def __init__(self, max_entries: int = DEFAULT_TRACE_CACHE_ENTRIES,
                 max_rows: int = DEFAULT_TRACE_CACHE_ROWS):
        self.max_entries = max_entries
        self.max_rows = max_rows
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rows = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def realize(self, spec: TraceSpec) -> tuple:
        """``(requests, cache_hit)`` for one spec.

        A hit rebuilds fresh instances from the cached columns; a miss
        generates the trace, snapshots its columns for next time, and
        returns the generated objects directly.
        """
        columns = self._data.get(spec)
        if columns is not None:
            self._data.move_to_end(spec)
            self.hits += 1
            return requests_from_columns(columns), True
        self.misses += 1
        requests = spec.realize()
        if len(requests) <= self.max_rows:
            self._data[spec] = trace_columns(requests)
            self.rows += len(requests)
            while len(self._data) > self.max_entries \
                    or self.rows > self.max_rows:
                _, evicted = self._data.popitem(last=False)
                self.rows -= evicted[0].size
                self.evictions += 1
        return requests, False

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._data),
                "rows": self.rows}


#: The process-wide trace-column cache.  Module-level (not per
#: executor) on purpose: pool workers have no executor object, and the
#: parent's inline runs benefit from the same locality.
_TRACE_CACHE = _TraceColumnCache()


def trace_cache_stats() -> dict:
    """Hit/miss/eviction/occupancy counters of **this process's**
    trace-column cache.  Worker processes keep their own; their
    per-point hits ship home as :attr:`SweepOutcome.trace_cache_hit`.
    """
    return _TRACE_CACHE.stats()


def run_point(point: SweepPoint):
    """Execute one grid point in this process.

    Returns a :class:`repro.serve.ServingReport` (single engine),
    :class:`repro.serve.ClusterReport` (router set), or
    :class:`repro.serve.FleetReport` (autoscaler set).  Pure in the
    point: same spec, same report, regardless of process or ordering.
    """
    return _serve(point, _resolve_design(point), point.trace.realize())


def _serve(point: SweepPoint, design, trace):
    """The engine/cluster run of :func:`run_point`, with trace
    synthesis already done — the part a sweep's wall clocks time.

    Every knob is read off the (already validated and normalized)
    point; this function adds no defaults of its own.
    """
    scheduler_kwargs = dict(point.scheduler_kwargs)
    if point.block_size is not None:
        scheduler_kwargs["block_size"] = point.block_size
    if point.chunk_tokens is not None:
        scheduler_kwargs["chunk_tokens"] = point.chunk_tokens
    common = dict(policy=point.policy, max_batch=point.max_batch,
                  kv_capacity_bytes=point.kv_capacity_bytes,
                  kvq_bits=point.kvq_bits,
                  seq_len_bucket=point.seq_len_bucket,
                  scheduler_kwargs=scheduler_kwargs or None)
    if point.autoscaler is not None:
        return AutoscalingCluster(
            design, point.model, n_replicas=point.n_replicas,
            autoscaler=point.autoscaler,
            autoscaler_kwargs=dict(point.autoscaler_kwargs),
            router=point.router, slos=point.slos, tick_s=point.tick_s,
            **common).run(trace)
    if point.router is None:
        return simulate_trace(design, point.model, trace, **common)
    return make_cluster(design, point.model, point.n_replicas,
                        router=point.router, mode=point.mode,
                        prefill_replicas=point.prefill_replicas,
                        **common).run(trace)


@dataclass(frozen=True)
class SweepOutcome:
    """One executed point: its report plus execution metadata.

    ``wall_s`` times the engine/cluster run only; synthesizing (or
    cache-rebuilding) the input trace is billed to ``trace_s`` and
    everything around the simulate call — design resolution, outcome
    packaging — to ``teardown_s``, so benchmark harnesses built on the
    executor measure the *simulator* and can see trace-cache wins
    separately.

    ``cache_hits`` / ``cache_misses`` are the report's own
    ``step_cache_hits`` / ``step_cache_misses``: the step-cost cache
    probes of this point's engines in the process that ran it (a cold
    worker misses where a warm parent may hit).  ``trace_cache_hit``
    says whether the trace came out of that process's column cache
    instead of RNG generation; ``memo_hit`` marks an outcome the
    executor answered from its cross-run memo without simulating at
    all (its clocks are the original run's — the cost the memo saved).
    """

    label: str
    report: object
    wall_s: float
    trace_s: float
    cache_hits: int
    cache_misses: int
    teardown_s: float = 0.0
    trace_cache_hit: bool = False
    memo_hit: bool = False


def _execute(point: SweepPoint) -> SweepOutcome:
    """Run one point, timing its phases."""
    total_start = time.perf_counter()
    design = _resolve_design(point)
    start = time.perf_counter()
    trace, trace_hit = _TRACE_CACHE.realize(point.trace)
    trace_s = time.perf_counter() - start
    start = time.perf_counter()
    report = _serve(point, design, trace)
    wall = time.perf_counter() - start
    teardown = time.perf_counter() - total_start - trace_s - wall
    return SweepOutcome(label=point.label, report=report, wall_s=wall,
                        trace_s=trace_s,
                        cache_hits=report.step_cache_hits,
                        cache_misses=report.step_cache_misses,
                        teardown_s=teardown, trace_cache_hit=trace_hit)


@dataclass
class SweepReport:
    """Outcomes of one sweep run, in input-point order."""

    outcomes: list = field(default_factory=list)
    jobs: int = 1
    #: End-to-end wall time of the whole sweep (pool setup included),
    #: as opposed to the per-point ``SweepOutcome.wall_s`` clocks.
    wall_s: float = 0.0
    #: Executor-memo traffic of this run: how many of this run's points
    #: were answered from the cross-run memo / actually simulated / and
    #: how many cached outcomes the memo LRU evicted while storing the
    #: fresh ones.  All zero under plain :func:`run_sweep`, whose
    #: throwaway executor keeps memoization off.
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, label: str) -> SweepOutcome:
        for outcome in self.outcomes:
            if outcome.label == label:
                return outcome
        raise KeyError(label)

    def reports(self) -> list:
        return [o.report for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(o.cache_hits for o in self.outcomes)

    @property
    def cache_misses(self) -> int:
        return sum(o.cache_misses for o in self.outcomes)

    @property
    def trace_cache_hits(self) -> int:
        """Points whose trace came from a worker's column cache."""
        return sum(o.trace_cache_hit for o in self.outcomes)

    @property
    def trace_s(self) -> float:
        """Total trace synthesis/rebuild seconds across points."""
        return sum(o.trace_s for o in self.outcomes)

    def summary(self) -> str:
        lines = [f"sweep: {len(self.outcomes)} points, "
                 f"jobs={self.jobs}, wall {self.wall_s:.2f}s, "
                 f"step-cost cache {self.cache_hits} hits / "
                 f"{self.cache_misses} misses, trace cache "
                 f"{self.trace_cache_hits}/{len(self.outcomes)} hits, "
                 f"memo {self.memo_hits} hits / {self.memo_misses} "
                 f"misses"]
        for o in self.outcomes:
            note = " (memo)" if o.memo_hit else ""
            lines.append(f"  {o.label}: {o.wall_s:.2f}s{note}")
        return "\n".join(lines)


#: Default cross-run memo capacity.  Entries hold full reports, which
#: can be large for bulk traces; search/gate sessions touch at most a
#: few hundred distinct (point, trace) pairs.
DEFAULT_MEMO_ENTRIES = 256


def _memo_key(point: SweepPoint) -> SweepPoint:
    """The canonical memo key: the point with its label stripped.

    Every other field — including the embedded :class:`TraceSpec` —
    determines the report, so two points differing only in label (a
    rung-relabeled candidate, a re-scored survivor, a grid-vs-halving
    twin) share one memo entry.
    """
    return replace(point, label="")


class SweepExecutor:
    """A persistent sweep-execution session.

    Owns the fixed costs one-shot :func:`run_sweep` re-pays per call:

    * ``jobs > 1`` keeps **one long-lived spawn pool** across every
      :meth:`run` — worker interpreters, their memoized designs,
      priced :class:`~repro.llm.workload.StepCostSurface` tables, and
      trace-column caches all survive between calls.  Each worker
      starts cold and prices what its own points need;
    * with ``memoize`` (the default), outcomes are **memoized across
      runs** under the canonical ``(SweepPoint sans label)`` key in a
      size-capped LRU: a later run (or a duplicate within one run)
      asking for an already-simulated configuration gets the cached
      :class:`SweepOutcome` back — same report object, new label,
      ``memo_hit=True`` — instead of re-simulating.  Reports are
      treated as read-only everywhere, so sharing is safe.

    Memoized replies are bit-identical to fresh runs by construction:
    the memo stores exactly what a fresh run returned, and outcomes
    are pure functions of their point.  Pass ``memoize=False`` (or
    ``run(..., memoize=False)``) when repeated identical points must
    really re-run — e.g. benchmark timing runs.

    Use as a context manager (or call :meth:`close`) to tear the pool
    down deterministically; a closed executor refuses further runs.
    """

    def __init__(self, jobs: int = 1, memoize: bool = True,
                 memo_entries: int = DEFAULT_MEMO_ENTRIES):
        if jobs < 1:
            raise ConfigError("jobs must be positive")
        if memo_entries < 1:
            raise ConfigError("memo_entries must be positive")
        self.jobs = jobs
        self.memoize = memoize
        self.memo_entries = memo_entries
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        self._memo: OrderedDict = OrderedDict()
        self._pool = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear down the worker pool and refuse further runs."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._closed = True

    def _ensure_pool(self, points):
        """The persistent pool, created on first parallel use.  Sized
        at ``min(jobs, first batch)`` — rungs only ever shrink, and a
        later wider run still fans out over every worker that
        exists."""
        if self._pool is None:
            context = mp.get_context("spawn")
            self._pool = context.Pool(
                processes=min(self.jobs, max(len(points), 1)))
        return self._pool

    # -- execution ----------------------------------------------------

    def _run_points(self, points) -> list:
        """Simulate points for real (memo already consulted)."""
        if self.jobs == 1 or (self._pool is None and len(points) <= 1):
            return [_execute(p) for p in points]
        pool = self._ensure_pool(points)
        return pool.map(_execute, points, chunksize=1)

    def run(self, points, memoize: bool | None = None) -> SweepReport:
        """Execute every point; outcomes come back in input order.

        ``memoize=None`` follows the executor's default; ``False``
        bypasses the memo for this run only (nothing is looked up *or*
        stored — the bypass cannot overwrite an entry either).
        """
        if self._closed:
            raise ConfigError("SweepExecutor is closed")
        points = list(points)
        labels = [p.label for p in points]
        if len(set(labels)) != len(labels):
            raise ConfigError("sweep point labels must be distinct")
        memoize = self.memoize if memoize is None else memoize
        start = time.perf_counter()
        hits0, misses0, evictions0 = (self.memo_hits, self.memo_misses,
                                      self.memo_evictions)
        outcomes: list = [None] * len(points)
        pending, pending_slots = [], []
        if memoize:
            #: memo key -> slots awaiting the same pending simulation
            #: (intra-run duplicates collapse onto one execution).
            claimed: dict = {}
            for i, point in enumerate(points):
                key = _memo_key(point)
                cached = self._memo.get(key)
                if cached is not None:
                    self._memo.move_to_end(key)
                    self.memo_hits += 1
                    outcomes[i] = replace(cached, label=point.label,
                                          memo_hit=True)
                elif key in claimed:
                    self.memo_hits += 1
                    claimed[key].append(i)
                else:
                    self.memo_misses += 1
                    claimed[key] = []
                    pending.append(point)
                    pending_slots.append(i)
        else:
            pending = points
            pending_slots = list(range(len(points)))
        if pending:
            for slot, point, outcome in zip(pending_slots, pending,
                                            self._run_points(pending)):
                outcomes[slot] = outcome
                if memoize:
                    key = _memo_key(point)
                    self._memo[key] = outcome
                    for twin in claimed.pop(key, ()):
                        outcomes[twin] = replace(
                            outcome, label=points[twin].label,
                            memo_hit=True)
                    if len(self._memo) > self.memo_entries:
                        self._memo.popitem(last=False)
                        self.memo_evictions += 1
        return SweepReport(outcomes=outcomes, jobs=self.jobs,
                           wall_s=time.perf_counter() - start,
                           memo_hits=self.memo_hits - hits0,
                           memo_misses=self.memo_misses - misses0,
                           memo_evictions=self.memo_evictions
                           - evictions0)

    def stats(self) -> dict:
        """Lifetime executor counters (the per-run deltas ride on each
        :class:`SweepReport`)."""
        return {"memo_hits": self.memo_hits,
                "memo_misses": self.memo_misses,
                "memo_evictions": self.memo_evictions,
                "memo_entries": len(self._memo),
                "pool_alive": self._pool is not None,
                "jobs": self.jobs}


def run_sweep(points, jobs: int = 1) -> SweepReport:
    """Execute every point once; return outcomes in input order.

    A thin wrapper over a throwaway :class:`SweepExecutor` with
    memoization off, preserving the historical one-shot semantics:
    ``jobs=1`` runs inline in the calling process with no pool and no
    pickling (the sequential loops this replaced, including their
    warm-cache behaviour), ``jobs>1`` fans points over a
    ``spawn``-context pool, one point per task — ``spawn`` (rather
    than ``fork``) keeps worker state a pure function of the pickled
    point, and behaves identically on platforms where ``fork`` is
    unavailable or unsafe with threads.  Repeated identical points
    (e.g. benchmark timing runs) always really re-run.

    Reports are identical across ``jobs`` values; wall clocks and
    cache-locality counters are the only things that may differ (a
    cold worker re-prices signatures the warm parent had cached).
    Callers running *sessions* of sweeps — searches, gates, strategy
    comparisons — should hold a :class:`SweepExecutor` instead and
    amortize the pool spawn and the memo across calls.
    """
    if jobs < 1:
        raise ConfigError("jobs must be positive")
    with SweepExecutor(jobs=jobs, memoize=False) as executor:
        return executor.run(points)


def _demo_points(n_requests: int, rates, designs) -> list[SweepPoint]:
    """The smoke-test grid: small load sweep over a couple of designs."""
    from ..llm.config import LLAMA2_70B_GQA

    model = replace(LLAMA2_70B_GQA, name="Llama2-70B-GQA-4L", n_layers=4)
    kv_capacity = model.kv_cache_bytes(seq_len=model.max_seq_len, batch=8)
    spec = LengthSpec("lognormal", value=64, low=8, high=256)
    points = []
    for kind, size in designs:
        name = kind if size is None else f"{kind}-{size}"
        for rate in rates:
            points.append(SweepPoint(
                label=f"{name}@{rate:g}rps",
                design=(kind, size), model=model,
                trace=TraceSpec("poisson", n_requests=n_requests,
                                rate_rps=rate, prompt=spec, output=spec,
                                seed=0),
                policy="continuous", max_batch=8,
                kv_capacity_bytes=kv_capacity, seq_len_bucket=32))
    return points


def main(argv=None) -> int:
    """CLI smoke test: ``python -m repro.serve.sweep --jobs 2``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = run inline)")
    parser.add_argument("--requests", type=int, default=150,
                        help="requests per trace")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.08, 0.32],
                        help="offered loads (requests/s)")
    args = parser.parse_args(argv)
    points = _demo_points(args.requests, args.rates,
                          (("mugi", 256), ("sa", 16)))
    report = run_sweep(points, jobs=args.jobs)
    print(report.summary())
    for outcome in report:
        rep = outcome.report
        print(f"  {outcome.label}: goodput {rep.goodput_rps():.3f} rps, "
              f"p99 latency {rep.p99_latency_s:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
