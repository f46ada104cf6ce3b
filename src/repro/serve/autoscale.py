"""Elastic replica fleets: autoscaling serving on one global clock.

:class:`AutoscalingCluster` generalizes the fixed replica set of
:class:`repro.serve.ServingCluster` into a fleet that grows and shrinks
while it serves.  A pluggable :class:`Autoscaler` is consulted on a
fixed decision cadence (``tick_s`` of simulated time) with a
:class:`FleetSnapshot` of the fleet's state; its desired size is acted
on immediately:

* **scale-up** provisions fresh replicas, each paying a *cold start*
  priced over interconnect-style parameters
  (:class:`ColdStartConfig`: control-plane provisioning time plus
  streaming the quantized weights over a link) before it can take
  traffic;
* **scale-down** first cancels still-booting replicas, then marks the
  least-loaded active replicas **draining**: the router stops
  selecting them, their in-flight requests run to completion, and the
  replica retires the moment its engine goes idle.

Three shipped scalers cover the comparison the autoscaling experiment
runs: ``static`` (provision for peak and hold — the baseline),
``reactive`` (outstanding-work thresholds with scale-down hysteresis),
and ``predictive`` (Holt-style EWMA level+trend forecast of the
arrival rate, sized in replica-capacity units and led by the cold-start
horizon so capacity lands *before* the diurnal ramp needs it).

Cost accounting is the point of scaling: the fleet tracks
replica-seconds (provisioning included — silicon is paid for while it
boots), and :class:`repro.serve.metrics.FleetReport` prices dynamic
energy + leakage over that on-time plus lifetime-amortized embodied
carbon through :mod:`repro.carbon`, yielding the cost-per-goodput
headline metric.

Everything stays deterministic: decisions happen at fixed simulated
ticks, tie-breaks are by replica index, and replicas are spun up with
fresh engines on the shared step-cost store — a fleet run is a pure
function of ``(trace, autoscaler, construction parameters)`` and is
bit-identical under ``run_sweep`` with any ``jobs`` value.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .cluster import ServingCluster, _offered_rps
from .engine import ServingEngine
from .metrics import FleetReport
from .router import Router, make_router
from .scheduler import make_scheduler
from .trace import Request, arrival_times, offered_load_rps

__all__ = [
    "AUTOSCALERS",
    "Autoscaler",
    "AutoscalingCluster",
    "ColdStartConfig",
    "DEFAULT_COLD_START",
    "FleetReplica",
    "FleetSnapshot",
    "PredictiveAutoscaler",
    "ReactiveAutoscaler",
    "StaticAutoscaler",
    "make_autoscaler",
    "make_autoscaling_cluster",
]


@dataclass(frozen=True)
class ColdStartConfig:
    """Cost of bringing one replica online mid-run.

    A cold start is control-plane provisioning (allocate, boot, attach)
    plus streaming the model's quantized weights to the accelerator
    over a link — the same bandwidth/latency parameterization as
    :class:`repro.parallel.InterconnectConfig`, pointed at the
    weight-distribution path instead of collectives.
    """

    #: Allocate/boot/attach time before weights start flowing.
    provision_s: float = 30.0
    #: Weight-streaming link (defaults match DEFAULT_INTERCONNECT).
    link_bandwidth_bytes: float = 16e9
    link_latency_s: float = 1e-6
    #: Weight-only quantization width of the streamed checkpoint.
    woq_bits: int = 4

    def __post_init__(self):
        if self.provision_s < 0:
            raise ConfigError("provision_s must be non-negative")
        if self.link_bandwidth_bytes <= 0:
            raise ConfigError("link_bandwidth_bytes must be positive")
        if self.link_latency_s < 0:
            raise ConfigError("link_latency_s must be non-negative")
        if self.woq_bits < 1:
            raise ConfigError("woq_bits must be positive")

    def delay_s(self, config: ModelConfig) -> float:
        """Provisioning-to-ready delay for one replica of ``config``."""
        weight_bytes = config.param_count() * self.woq_bits / 8
        return self.provision_s + self.link_latency_s \
            + weight_bytes / self.link_bandwidth_bytes


#: Default cold start: ~30 s provisioning + 70B weights over a 16 GB/s
#: link.
DEFAULT_COLD_START = ColdStartConfig()


@dataclass(frozen=True)
class FleetSnapshot:
    """What an autoscaler sees at one decision tick."""

    now_s: float
    #: Decision cadence (forecast horizons are expressed in ticks).
    tick_s: float
    #: Routable replicas (draining ones are already excluded).
    active: int
    #: Replicas mid cold start.
    provisioning: int
    #: KV-footprint-weighted backlog across routable replicas.
    outstanding_tokens: int
    #: Routed-but-unfinished requests fleet-wide.
    inflight_requests: int
    #: Arrivals over the last tick window, as a rate.
    arrival_rate_rps: float


class Autoscaler:
    """Desired-fleet-size policy, consulted once per decision tick.

    ``desired`` returns the wanted number of routable-or-booting
    replicas given a :class:`FleetSnapshot`; implementations clamp to
    ``[min_replicas, max_replicas]`` via :meth:`_clamp` (the cluster
    clamps again defensively).  Scalers may keep mutable forecast
    state — one instance drives one run; ``reset`` is called at run
    start.
    """

    name = "autoscaler"

    def __init__(self, min_replicas: int = 1, max_replicas: int = 4):
        if min_replicas < 1:
            raise ConfigError("min_replicas must be positive")
        if max_replicas < min_replicas:
            raise ConfigError("max_replicas must be >= min_replicas")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas

    def reset(self) -> None:
        """Forget per-run forecast state (called once per run)."""

    def _clamp(self, n: float) -> int:
        return max(self.min_replicas, min(self.max_replicas, int(n)))

    def desired(self, snapshot: FleetSnapshot) -> int:
        raise NotImplementedError


class StaticAutoscaler(Autoscaler):
    """Provision for peak and hold — the fixed-fleet baseline.

    ``StaticAutoscaler(max_replicas=N)`` is exactly the PR 4 cluster
    with N replicas, expressed as a (non-)scaling policy so the cost
    comparison runs through one code path.
    """

    name = "static"

    def desired(self, snapshot: FleetSnapshot) -> int:
        return self.max_replicas


class ReactiveAutoscaler(Autoscaler):
    """Outstanding-work thresholds with scale-down hysteresis.

    Sizes the fleet at ``ceil(outstanding_tokens /
    target_tokens_per_replica)``.  Scale-up is immediate; scale-down
    happens one replica per tick and only once the load would fit the
    smaller fleet with ``scale_down_fraction`` headroom to spare, so a
    noisy queue doesn't flap the fleet around the threshold.
    """

    name = "reactive"

    def __init__(self, target_tokens_per_replica: float = 100_000.0,
                 scale_down_fraction: float = 0.5,
                 min_replicas: int = 1, max_replicas: int = 4):
        super().__init__(min_replicas, max_replicas)
        if target_tokens_per_replica <= 0:
            raise ConfigError(
                "target_tokens_per_replica must be positive")
        if not 0.0 < scale_down_fraction <= 1.0:
            raise ConfigError("scale_down_fraction must be in (0, 1]")
        self.target_tokens_per_replica = target_tokens_per_replica
        self.scale_down_fraction = scale_down_fraction

    def desired(self, snapshot: FleetSnapshot) -> int:
        current = max(snapshot.active + snapshot.provisioning, 1)
        load = snapshot.outstanding_tokens \
            / self.target_tokens_per_replica
        if load > current:
            return self._clamp(math.ceil(load))
        if load < (current - 1) * self.scale_down_fraction:
            return self._clamp(current - 1)
        return self._clamp(current)


class PredictiveAutoscaler(Autoscaler):
    """Holt-style EWMA (level + trend) forecast of the arrival rate.

    Each tick folds the observed arrival rate into an exponentially
    weighted level and trend, projects the rate ``horizon_s`` ahead —
    set the horizon to the cold-start delay so capacity ordered now is
    ready when the forecast load arrives — and sizes the fleet at
    ``ceil(headroom · forecast / replica_rps)``.  A backlog floor
    (``ceil(outstanding / backlog_tokens_per_replica)``) keeps a bad
    forecast from stranding queued work.
    """

    name = "predictive"

    def __init__(self, replica_rps: float = 1.0, alpha: float = 0.35,
                 beta: float = 0.15, horizon_s: float = 0.0,
                 headroom: float = 1.2,
                 backlog_tokens_per_replica: float = 200_000.0,
                 min_replicas: int = 1, max_replicas: int = 4):
        super().__init__(min_replicas, max_replicas)
        if replica_rps <= 0:
            raise ConfigError("replica_rps must be positive")
        if not 0.0 < alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ConfigError("alpha must be in (0, 1], beta in [0, 1]")
        if horizon_s < 0:
            raise ConfigError("horizon_s must be non-negative")
        if headroom <= 0:
            raise ConfigError("headroom must be positive")
        if backlog_tokens_per_replica <= 0:
            raise ConfigError(
                "backlog_tokens_per_replica must be positive")
        self.replica_rps = replica_rps
        self.alpha = alpha
        self.beta = beta
        self.horizon_s = horizon_s
        self.headroom = headroom
        self.backlog_tokens_per_replica = backlog_tokens_per_replica
        self._level: float | None = None
        self._trend = 0.0

    def reset(self) -> None:
        self._level = None
        self._trend = 0.0

    def desired(self, snapshot: FleetSnapshot) -> int:
        rate = snapshot.arrival_rate_rps
        if self._level is None:
            self._level, self._trend = rate, 0.0
        else:
            previous = self._level
            self._level = self.alpha * rate \
                + (1.0 - self.alpha) * (self._level + self._trend)
            self._trend = self.beta * (self._level - previous) \
                + (1.0 - self.beta) * self._trend
        ticks_ahead = self.horizon_s / max(snapshot.tick_s, 1e-9)
        forecast = max(self._level + self._trend * ticks_ahead, 0.0)
        want = math.ceil(self.headroom * forecast / self.replica_rps)
        backlog = math.ceil(snapshot.outstanding_tokens
                            / self.backlog_tokens_per_replica)
        return self._clamp(max(want, backlog))


#: Autoscaler registry for string-based construction.
AUTOSCALERS = {cls.name: cls for cls in (
    StaticAutoscaler, ReactiveAutoscaler, PredictiveAutoscaler)}


def make_autoscaler(autoscaler, **kwargs) -> Autoscaler:
    """Build an autoscaler from a registry name (or pass one through).

    ``make_autoscaler("reactive", max_replicas=6)``
    """
    if isinstance(autoscaler, Autoscaler):
        if kwargs:
            raise ConfigError(
                "pass construction kwargs to the Autoscaler instance, "
                "not alongside it")
        return autoscaler
    try:
        return AUTOSCALERS[autoscaler](**kwargs)
    except KeyError:
        raise ConfigError(
            f"unknown autoscaler {autoscaler!r}; choose from "
            f"{sorted(AUTOSCALERS)}") from None


@dataclass
class FleetReplica:
    """One elastic slot of the fleet plus its lifecycle bookkeeping.

    ``state`` walks ``provisioning → active → draining → retired``
    (warm initial replicas skip provisioning; scale-down may retire a
    booting replica directly).  The router only ever sees ``active``
    replicas; a draining replica finishes its in-flight work and
    retires the moment its engine goes idle.
    """

    index: int
    engine: ServingEngine
    state: str = "provisioning"
    #: When the scaler ordered this replica (on-time billing starts).
    spun_up_s: float = 0.0
    #: When it became routable (== spun_up_s for warm starts).
    ready_s: float = 0.0
    routed: int = 0
    arrivals: list = field(default_factory=list)
    #: Completion records already folded into the cluster view.
    seen_records: int = 0

    @property
    def outstanding_tokens(self) -> int:
        """Router-visible load (see Replica.outstanding_tokens)."""
        return self.engine.scheduler.outstanding_tokens


class AutoscalingCluster:
    """An elastic unified cluster: replicas spin up/down while serving.

    Construction mirrors :func:`repro.serve.make_cluster` (identical
    replicas of one design), with the replica *count* replaced by an
    :class:`Autoscaler` and its ``[min_replicas, max_replicas]`` band.
    The initial fleet is the scaler's decision on an empty snapshot and
    starts **warm** at t=0 — the fleet predates the trace, so a static
    baseline pays no artificial cold starts; every later scale-up pays
    :class:`ColdStartConfig` provisioning before taking traffic.

    Parameters beyond ``make_cluster``'s:

    autoscaler / autoscaler_kwargs:
        Registry name (or instance) and its construction kwargs;
        ``max_replicas`` defaults to ``n_replicas``.
    n_replicas:
        Fleet ceiling handed to the autoscaler factory (the band's
        upper edge, not a fixed size).
    tick_s:
        Decision cadence in simulated seconds.
    cold_start:
        :class:`ColdStartConfig` pricing scale-up delay.
    slos:
        :class:`repro.serve.TenantSLO` specs forwarded to the
        scheduler policy (fair-share / tenant-priority; needs a paged
        ``policy``).
    """

    def __init__(self, design, config: ModelConfig, n_replicas: int = 4,
                 autoscaler="static", router: Router | str =
                 "least-outstanding", policy: str = "continuous",
                 max_batch: int = 16,
                 kv_capacity_bytes: float | None = None,
                 kvq_bits: int = 4, scheduler_kwargs: dict | None = None,
                 seq_len_bucket: int = 1, slos: tuple = (),
                 tick_s: float = 60.0,
                 cold_start: ColdStartConfig = DEFAULT_COLD_START,
                 autoscaler_kwargs: dict | None = None,
                 name: str | None = None, **engine_kwargs):
        if n_replicas < 1:
            raise ConfigError("n_replicas must be positive")
        if tick_s <= 0:
            raise ConfigError("tick_s must be positive")
        scheduler_kwargs = dict(scheduler_kwargs or {})
        if "block_manager" in scheduler_kwargs:
            raise ConfigError(
                "pass kv_capacity_bytes, not a block_manager: a shared "
                "pool instance would alias KV state across replicas")
        if slos and policy in ("continuous", "static"):
            raise ConfigError(
                "tenant SLO scheduling needs a paged policy; the "
                "peak-reservation schedulers take no slos")
        if slos:
            scheduler_kwargs.setdefault("slos", tuple(slos))
        self.design = design
        self.config = config
        self.router = make_router(router)
        kwargs = dict(autoscaler_kwargs or {})
        if not isinstance(autoscaler, Autoscaler):
            kwargs.setdefault("max_replicas", n_replicas)
        self.autoscaler = make_autoscaler(autoscaler, **kwargs)
        self.tick_s = tick_s
        self.cold_start = cold_start
        self._cold_delay = cold_start.delay_s(config)
        self._policy = policy
        self._max_batch = max_batch
        self._kv_capacity_bytes = kv_capacity_bytes
        self._kvq_bits = kvq_bits
        self._scheduler_kwargs = scheduler_kwargs
        self._seq_len_bucket = seq_len_bucket
        self._engine_kwargs = engine_kwargs
        design_name = getattr(design, "name", type(design).__name__)
        self.name = name if name is not None else \
            f"elastic {design_name} x<= {self.autoscaler.max_replicas}"
        # Per-replica silicon parameters for the cost model: one probe
        # step on the shared surface (any signature carries the
        # design's area and leakage).
        probe_engine = self._new_engine()
        probe = probe_engine._surface.price_step((), (1,), ())
        self.leakage_w = probe.leakage_w
        self.area_mm2 = probe.area_mm2
        self.fleet: list[FleetReplica] = []

    # -- replica lifecycle ----------------------------------------------
    def _new_engine(self) -> ServingEngine:
        scheduler = make_scheduler(
            self._policy, self.config, max_batch=self._max_batch,
            kv_capacity_bytes=self._kv_capacity_bytes,
            kvq_bits=self._kvq_bits, **self._scheduler_kwargs)
        return ServingEngine(self.design, self.config, scheduler,
                             kvq_bits=self._kvq_bits,
                             seq_len_bucket=self._seq_len_bucket,
                             **self._engine_kwargs)

    def _routable(self) -> list:
        return [rep for rep in self.fleet if rep.state == "active"]

    def _note_scale(self, t: float) -> None:
        n = len(self._routable())
        if not self._scale_events or self._scale_events[-1][1] != n:
            self._scale_events.append((t, n))

    def _boot_changed(self) -> None:
        self._ready_t = min((rep.ready_s for rep in self._booting),
                            default=math.inf)

    def _spin_up(self, t: float, warm: bool = False) -> FleetReplica:
        rep = FleetReplica(index=len(self.fleet),
                           engine=self._new_engine(), spun_up_s=t,
                           ready_s=t if warm else t + self._cold_delay)
        self.fleet.append(rep)
        if warm:
            self._activate(rep, t)
        else:
            self._cold_starts += 1
            self._booting.append(rep)
            self._boot_changed()
        return rep

    def _activate(self, rep: FleetReplica, t: float) -> None:
        if rep.spun_up_s < rep.ready_s:
            self._cold_start_seconds += rep.ready_s - rep.spun_up_s
        if rep in self._booting:
            self._booting.remove(rep)
            self._boot_changed()
        rep.engine.start()
        rep.engine.advance_to(t)
        rep.state = "active"
        self._active_outstanding += rep.outstanding_tokens
        self._note_scale(t)

    def _retire(self, rep: FleetReplica, t: float) -> None:
        """Close an active/draining replica's session at time ``t``."""
        rep.engine.report.offered_rps = _offered_rps(rep.arrivals)
        self._reports.append(rep.engine.finish())
        self._routed_counts.append(rep.routed)
        rep.state = "retired"
        self._replica_deltas.append(t - rep.spun_up_s)
        self._makespan = max(self._makespan, t)
        self._note_scale(t)

    def _cancel(self, rep: FleetReplica, t: float) -> None:
        """Abort a still-booting replica (its engine never started)."""
        rep.state = "retired"
        if rep in self._booting:
            self._booting.remove(rep)
            self._boot_changed()
        self._replica_deltas.append(t - rep.spun_up_s)
        self._cold_start_seconds += t - rep.spun_up_s

    # -- scaling decisions ----------------------------------------------
    def _decide(self, t: float,
                outstanding_tokens: int | None = None) -> None:
        """One autoscaler consultation at tick ``t``.

        ``outstanding_tokens`` is the fleet-maintained incremental
        counter when the compressed loop drives the run; the legacy
        loop leaves it ``None`` and the sum is rescanned (the identity
        tests check the two agree by way of identical decisions).
        """
        active = self._routable()
        booting = [rep for rep in self.fleet
                   if rep.state == "provisioning"]
        if outstanding_tokens is None:
            outstanding_tokens = sum(rep.outstanding_tokens
                                     for rep in active)
        snapshot = FleetSnapshot(
            now_s=t, tick_s=self.tick_s, active=len(active),
            provisioning=len(booting),
            outstanding_tokens=outstanding_tokens,
            inflight_requests=self._routed_total - self._completed_total,
            arrival_rate_rps=self._window_arrivals / self.tick_s)
        self._window_arrivals = 0
        scaler = self.autoscaler
        want = max(scaler.min_replicas,
                   min(scaler.max_replicas,
                       int(scaler.desired(snapshot))))
        current = len(active) + len(booting)
        if want > current:
            for _ in range(want - current):
                self._spin_up(t)
        elif want < current:
            excess = current - want
            # Cancel the newest boots first — least sunk cost, and it
            # can never strand routed work (booting replicas hold none).
            for rep in sorted(booting,
                              key=lambda r: (-r.ready_s, -r.index)):
                if excess == 0:
                    break
                self._cancel(rep, t)
                excess -= 1
            # Then drain the least-loaded active replicas; ``want >=
            # min_replicas >= 1`` keeps at least one routable replica.
            victims = sorted(
                (rep for rep in active),
                key=lambda r: (r.outstanding_tokens, r.index))[:excess]
            for rep in victims:
                rep.state = "draining"
                self._active_outstanding -= rep.outstanding_tokens
                self._note_scale(t)
                if not rep.engine.has_work():
                    self._retire(rep, t)

    # -- the fleet event loop --------------------------------------------
    def _drive_legacy(self, pending: list) -> None:
        """The pre-heap reference loop: per-iteration fleet rescans.

        Kept verbatim as the ground truth the compressed loop's
        identity tests diff against."""
        inf = math.inf
        idx = 0
        n_pending = len(pending)
        next_tick = self.tick_s
        while True:
            live = [rep for rep in self.fleet
                    if rep.state in ("active", "draining")]
            booting = [rep for rep in self.fleet
                       if rep.state == "provisioning"]
            any_work = any(rep.engine.has_work() for rep in live)
            arrival_t = pending[idx].arrival_s if idx < n_pending \
                else inf
            ready_t = min((rep.ready_s for rep in booting), default=inf)
            # Ticks stop once nothing can ever arrive or run again —
            # the loop must not scale an empty fleet forever.
            tick_t = next_tick if (idx < n_pending or any_work
                                   or booting) else inf
            next_event = min(arrival_t, ready_t, tick_t)
            worker = None
            worker_now = inf
            for rep in live:
                if rep.engine.has_work() and rep.engine.now < worker_now:
                    worker = rep
                    worker_now = rep.engine.now
            if worker is not None and worker_now < next_event:
                # All future submissions to this engine happen at
                # events >= next_event, so leaping up to it is causal.
                if worker.engine.step(horizon=next_event):
                    records = worker.engine.report.records
                    fresh = records[worker.seen_records:]
                    worker.seen_records = len(records)
                    self._completed_total += len(fresh)
                    if worker.state == "draining" and \
                            not worker.engine.has_work():
                        self._retire(worker, worker.engine.now)
                elif next_event == inf:
                    raise ConfigError(
                        f"replica {worker.index} "
                        f"({worker.engine.scheduler.name}) stalled with "
                        f"work queued but nothing planned")
                else:
                    worker.engine.advance_to(next_event)
                continue
            if next_event == inf:
                break
            if ready_t <= arrival_t and ready_t <= tick_t:
                for rep in booting:
                    if rep.ready_s <= ready_t:
                        self._activate(rep, ready_t)
                continue
            if arrival_t <= tick_t:
                request = pending[idx]
                idx += 1
                if request.kv_ready:
                    raise ConfigError(
                        f"request {request.req_id} sets kv_ready; that "
                        f"flag is cluster-internal")
                # Re-instantiated per replica, like ServingCluster.
                sub = replace(request)
                rep = self.router.select(sub, self._routable())
                rep.engine.advance_to(request.arrival_s)
                rep.engine.submit(sub)
                rep.routed += 1
                rep.arrivals.append(request.arrival_s)
                self._routed_total += 1
                self._window_arrivals += 1
                continue
            self._decide(tick_t)
            next_tick = tick_t + self.tick_s

    def _drive_fleet(self, pending: list, times: list) -> None:
        """Compressed fleet loop: heap clock + cohorts + O(1) counters.

        Replaces the legacy loop's four per-iteration fleet scans
        (live list, booting list, any-work probe, earliest-busy
        worker) with a lazily-invalidated ``(clock, index)`` min-heap
        and incrementally maintained ``_busy_count`` / ``_ready_t`` /
        ``_active_outstanding`` counters, and routes each arrival
        cohort (every arrival below the earliest busy clock, next
        boot, and next tick) through one batched
        :meth:`Router.select_batch` dispatch.  Event order — and so
        every report field — is identical to the legacy loop.
        """
        inf = math.inf
        heap: list = []   # (engine clock, fleet index), lazily stale.
        idx = 0
        n_pending = len(pending)
        next_tick = self.tick_s
        while True:
            arrival_t = times[idx] if idx < n_pending else inf
            ready_t = self._ready_t
            # Ticks stop once nothing can ever arrive or run again —
            # the loop must not scale an empty fleet forever.
            tick_t = next_tick if (idx < n_pending or self._busy_count
                                   or self._booting) else inf
            next_event = min(arrival_t, ready_t, tick_t)
            worker = None
            worker_now = inf
            while heap:
                clock, i = heap[0]
                rep = self.fleet[i]
                if rep.engine.now != clock or \
                        not rep.engine.has_work():
                    heapq.heappop(heap)  # Stale entry.
                    continue
                worker = rep
                worker_now = clock
                break
            if worker is not None and worker_now < next_event:
                # All future submissions to this engine happen at
                # events >= next_event, so leaping up to it is causal.
                heapq.heappop(heap)
                engine = worker.engine
                active = worker.state == "active"
                before = worker.outstanding_tokens if active else 0
                if engine.step(horizon=next_event):
                    if active:
                        self._active_outstanding += \
                            worker.outstanding_tokens - before
                    n_records = len(engine.report.records)
                    self._completed_total += \
                        n_records - worker.seen_records
                    worker.seen_records = n_records
                    if engine.has_work():
                        heapq.heappush(heap, (engine.now, worker.index))
                    else:
                        self._busy_count -= 1
                        if worker.state == "draining":
                            self._retire(worker, engine.now)
                elif next_event == inf:
                    raise ConfigError(
                        f"replica {worker.index} "
                        f"({engine.scheduler.name}) stalled with "
                        f"work queued but nothing planned")
                else:
                    engine.advance_to(next_event)
                    heapq.heappush(heap, (engine.now, worker.index))
                continue
            if next_event == inf:
                break
            if ready_t <= arrival_t and ready_t <= tick_t:
                for rep in list(self._booting):
                    if rep.ready_s <= ready_t:
                        self._activate(rep, ready_t)
                continue
            if arrival_t <= tick_t:
                # Arrival cohort: every arrival strictly before the
                # next boot and no later than the earliest busy clock
                # and the next tick routes back-to-back — nothing else
                # can happen between them.  Routing can wake an idle
                # replica whose clock then bounds the cohort (the
                # commit callback shrinks it).
                targets = self._routable()
                bound = worker_now if worker_now < tick_t else tick_t
                upto = min(bisect_right(times, bound, idx),
                           bisect_left(times, ready_t, idx))

                def commit(request: Request, rep: FleetReplica) -> bool:
                    nonlocal idx, bound
                    if request.kv_ready:
                        raise ConfigError(
                            f"request {request.req_id} sets kv_ready; "
                            f"that flag is cluster-internal")
                    # Re-instantiated per replica, like ServingCluster.
                    sub = replace(request)
                    engine = rep.engine
                    had_work = engine.has_work()
                    before = rep.outstanding_tokens
                    arrival = times[idx]
                    engine.advance_to(arrival)
                    engine.submit(sub)
                    self._active_outstanding += \
                        rep.outstanding_tokens - before
                    rep.routed += 1
                    rep.arrivals.append(arrival)
                    self._routed_total += 1
                    self._window_arrivals += 1
                    if not had_work:
                        self._busy_count += 1
                        heapq.heappush(heap, (engine.now, rep.index))
                    idx += 1
                    now = engine.now
                    if now < bound:
                        bound = now
                    return idx < upto and times[idx] <= bound

                self.router.select_batch(pending[idx:upto], targets,
                                         commit)
                continue
            self._decide(tick_t, self._active_outstanding)
            next_tick = tick_t + self.tick_s

    def run(self, trace: list[Request],
            legacy: bool = False) -> FleetReport:
        """Serve a trace on the elastic fleet; merge into one report.

        ``legacy=True`` drives the pre-heap reference event loop; the
        report is field-for-field identical either way (the identity
        test suite enforces it), only wall-clock differs.
        """
        if not trace:
            raise ConfigError("empty trace")
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        times = arrival_times(pending)
        ids = {r.req_id for r in pending}
        if len(ids) != len(pending):
            raise ConfigError("trace has duplicate req_ids; cluster "
                              "completion merging needs unique ids")
        self.router.reset()
        self.autoscaler.reset()
        self.fleet = []
        self._reports: list = []
        self._routed_counts: list = []
        self._scale_events: list = []
        self._cold_starts = 0
        self._cold_start_seconds = 0.0
        #: Per-retirement on-time spans, folded at teardown.
        self._replica_deltas: list = []
        self._makespan = 0.0
        self._window_arrivals = 0
        self._routed_total = 0
        self._completed_total = 0
        self._booting: list = []
        self._ready_t = math.inf
        self._busy_count = 0
        self._active_outstanding = 0

        # Initial ramp: the scaler's decision on an empty fleet, warm
        # at t=0 (the fleet predates the trace; only mid-run growth
        # pays cold starts).
        initial = FleetSnapshot(now_s=0.0, tick_s=self.tick_s, active=0,
                                provisioning=0, outstanding_tokens=0,
                                inflight_requests=0,
                                arrival_rate_rps=0.0)
        n0 = max(self.autoscaler.min_replicas,
                 min(self.autoscaler.max_replicas,
                     int(self.autoscaler.desired(initial))))
        for _ in range(n0):
            self._spin_up(0.0, warm=True)
        error = self.fleet[0].engine.scheduler.trace_error(pending)
        if error:
            raise ConfigError(f"unservable trace: {error}")

        if legacy:
            self._drive_legacy(pending)
        else:
            self._drive_fleet(pending, times)

        if self._completed_total != len(pending):
            raise ConfigError(
                f"fleet completed {self._completed_total} of "
                f"{len(pending)} requests; completion merging lost "
                f"records")
        end_t = self._makespan
        for rep in self.fleet:
            if rep.state in ("active", "draining"):
                end_t = max(end_t, rep.engine.now)
        for rep in self.fleet:
            if rep.state in ("active", "draining"):
                self._retire(rep, end_t)
            elif rep.state == "provisioning":
                self._cancel(rep, end_t)
        # Replica on-time: a left fold in retirement order, bit-equal
        # to the retired-order += chain (every fleet retires at least
        # its initial replica, so the series is never empty).
        replica_seconds = reduce(add, self._replica_deltas)
        # Each retired replica's records are already in finish order;
        # the fleet-wide (finish_s, req_id) order is a k-way merge of
        # the per-replica streams (sorted first so simultaneous
        # finishers of one step fall into req_id order; Timsort on the
        # nearly-sorted stream is cheap).  req_ids are unique, so this
        # equals the old global ``merged.sort(...)``.
        key = ServingCluster._record_key
        merged = list(heapq.merge(
            *(sorted(report.records, key=key)
              for report in self._reports), key=key))
        return FleetReport(
            design=self.name, router=self.router.name, mode="elastic",
            replicas=self._reports, records=merged,
            makespan_s=self._makespan,
            offered_rps=offered_load_rps(trace),
            routed=self._routed_counts,
            autoscaler=self.autoscaler.name,
            scale_events=self._scale_events,
            cold_starts=self._cold_starts,
            cold_start_seconds=self._cold_start_seconds,
            replica_seconds=replica_seconds,
            leakage_w=self.leakage_w, area_mm2=self.area_mm2)


def make_autoscaling_cluster(design, config: ModelConfig,
                             n_replicas: int = 4, **kwargs
                             ) -> AutoscalingCluster:
    """Elastic fleet of up to ``n_replicas`` replicas of ``design``.

    ``make_autoscaling_cluster(make_design("mugi", 256), SERVE_MODEL,
    6, autoscaler="reactive", tick_s=30.0)``
    """
    return AutoscalingCluster(design, config, n_replicas=n_replicas,
                              **kwargs)
