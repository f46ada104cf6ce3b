"""Cluster-scale serving: replicated engines behind a router, one clock.

:class:`ServingCluster` runs N engine replicas — each its own
:class:`repro.serve.ServingEngine` over its own scheduler and (for the
paged policies) its own :class:`repro.serve.BlockManager` pool —
against one arrival stream.  A :class:`repro.serve.router.Router`
assigns every request to a replica at its arrival instant; the cluster
interleaves the replicas' steps in global time order through the
engine's external-clock API (:meth:`~repro.serve.ServingEngine.start` /
``submit`` / ``step`` / ``advance_to`` / ``finish``).

Two deployment modes, set by the replicas' roles:

* **unified** — every replica serves requests end to end (prefill and
  decode), the iso-silicon baseline for router comparisons;
* **disaggregated** — DistServe-style: the first ``prefill_replicas``
  replicas run prefill only (any scheduler policy, so paged prefix
  caches live here), the rest decode only.  When a prefill finishes,
  the sequence's KV migrates to a decode replica over the cluster
  ``interconnect``: the transfer of the context's KV bytes is charged
  as arrival delay on the decode side (one
  :class:`~repro.parallel.InterconnectConfig` link hop), and the decode
  replica admits the request with :attr:`Request.kv_ready` — full
  footprint reserved, no prefill compute.

:class:`repro.serve.AutoscalingCluster` is the same cluster with a
replica set that grows and shrinks; a fixed cluster is the fleet that
never boots a replica or ticks its scaler, and a single engine is the
one-replica cluster (:func:`simulate_trace`).  One heap-clock loop
(:meth:`ServingCluster._drive`) serves them all: between arrival
cohorts, KV migrations, replica boots and scaler ticks it steps the
earliest busy replica, passing the next event as the leap horizon.

Event-loop causality: a replica's step is committed once every event up
to the step's start has happened, so router decisions at time ``t`` see
each replica at its last step boundary — a lead/lag of less than one
step, the same bounded staleness a real async router works under.  All
tie-breaks are by replica index and any router randomness is seeded,
so cluster runs are deterministic functions of ``(trace, routers,
replica construction)``.

A replica takes the trace's own :class:`Request` objects: requests are
frozen, and per-request serving state lives in each scheduler's own
sequence states.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from operator import attrgetter

import numpy as np

from ..errors import ConfigError
from ..parallel.collective import DEFAULT_INTERCONNECT, InterconnectConfig
from .engine import ServingEngine
from .metrics import ClusterReport, RequestRecord, ServingReport
from .router import Router, make_router
from .scheduler import make_scheduler
from .trace import Request, arrival_times, offered_load_rps

__all__ = ["Replica", "ServingCluster", "make_cluster", "simulate_trace"]


@dataclass(eq=False)
class Replica:
    """One engine of a cluster or fleet plus its routing-time view.

    ``role`` is ``unified``, ``prefill`` or ``decode`` (disaggregated
    mode).  ``state`` walks ``provisioning → active → draining →
    retired``: a fixed cluster's replicas are active from t=0 until
    teardown, an elastic fleet's later replicas boot first, and
    scale-down drains them (or retires a still-booting one directly).
    Routers only ever see ``active`` replicas; a draining replica
    finishes its in-flight work and retires the moment its engine goes
    idle.
    """

    index: int
    engine: ServingEngine
    role: str = "unified"
    state: str = "provisioning"
    #: When the replica was ordered (on-time billing starts).
    spun_up_s: float = 0.0
    #: When it became routable (== spun_up_s for warm starts).
    ready_s: float = 0.0
    routed: int = 0
    #: First and last routed arrival times.  Arrivals reach a replica in
    #: non-decreasing time (trace order, or migration-heap order), so
    #: these bound its routed sub-stream.
    first_arrival_s: float = field(default=0.0, init=False)
    last_arrival_s: float = field(default=0.0, init=False)
    #: Completion records already folded into the cluster view.
    seen: int = 0

    @property
    def outstanding_tokens(self) -> int:
        """KV-footprint-weighted work this replica still owes.

        The load signal the state-aware routers compare: every queued
        request counts its full footprint (``total_tokens``), every
        admitted sequence its footprint minus the tokens already
        generated — so a long-prompt decode still weighs its held
        context, not just its remaining outputs.  Works across both
        scheduler families (peak-reservation ``queue`` of requests vs
        the paged ``waiting``/``running``/``swapped`` state lists).

        Routers read this once or more per arrival, so both scheduler
        families maintain it incrementally (enqueue / generation /
        release) instead of walking their queues here; the conservation
        test suite pins the counter to the walked sum.
        """
        return self.engine.scheduler.outstanding_tokens


#: Minimum arrival span a per-replica rate is computed over.  A
#: sub-stream whose arrivals all share one timestamp (a single burst
#: routed to one replica) has no usable span; flooring it keeps the
#: stat finite instead of the inf that used to poison ClusterReport
#: balance rollups.
_MIN_SPAN_S = 1e-9


def _offered_rps(routed: int, first_s: float, last_s: float) -> float:
    """Offered rate of a replica's ``routed`` arrivals, the first at
    ``first_s`` and the last at ``last_s`` (0 if fewer than 2).

    Degenerate same-instant streams report ``routed`` over the
    :data:`_MIN_SPAN_S` floor — enormous, as an instantaneous burst
    deserves, but finite.  Streams with a real span are unchanged.
    """
    if routed < 2:
        return 0.0
    span = last_s - first_s
    if span < _MIN_SPAN_S:
        return routed / _MIN_SPAN_S
    return (routed - 1) / span


def build_engine(design, config, policy: str, max_batch: int,
                 kv_capacity_bytes: float | None, kvq_bits: int,
                 scheduler_kwargs: dict, seq_len_bucket: int,
                 **engine_kwargs) -> ServingEngine:
    """One fresh replica engine over its own scheduler and KV pool.

    The one replica factory of :func:`make_cluster` and
    :class:`repro.serve.AutoscalingCluster`.
    """
    if "block_manager" in scheduler_kwargs:
        raise ConfigError(
            "pass kv_capacity_bytes, not a block_manager: a shared pool "
            "instance would alias KV state across replicas")
    scheduler = make_scheduler(policy, config, max_batch=max_batch,
                               kv_capacity_bytes=kv_capacity_bytes,
                               kvq_bits=kvq_bits, **scheduler_kwargs)
    return ServingEngine(design, config, scheduler,
                         seq_len_bucket=seq_len_bucket, **engine_kwargs)


class ServingCluster:
    """N engine replicas behind a router, on one global clock.

    Parameters
    ----------
    engines:
        One :class:`ServingEngine` per replica, all serving the same
        model (designs may differ — e.g. mixed single-chip and
        :class:`repro.parallel.ShardedSystem` replicas).
    router:
        :class:`~repro.serve.router.Router` name or instance assigning
        arrivals (to prefill replicas in disaggregated mode).
    mode:
        ``"unified"`` or ``"disaggregated"``.
    prefill_replicas:
        Disaggregated mode: how many leading replicas are dedicated to
        prefill (default half, at least one of each role).
    decode_router:
        Router for KV migrations onto decode replicas (disaggregated
        mode only; prefix affinity is meaningless there, so the default
        is least-outstanding).
    interconnect:
        Link the migrated KV crosses; one hop of the context's KV bytes
        is charged per migration.
    """

    #: Scaler decision cadence in simulated seconds: a fixed cluster
    #: never ticks, so it never calls :meth:`_decide`.
    tick_s = math.inf

    def __init__(self, engines: list, router: Router | str = "round-robin",
                 mode: str = "unified", prefill_replicas: int | None = None,
                 decode_router: Router | str = "least-outstanding",
                 interconnect: InterconnectConfig = DEFAULT_INTERCONNECT,
                 name: str | None = None):
        if not engines:
            raise ConfigError("a cluster needs at least one engine")
        if mode not in ("unified", "disaggregated"):
            raise ConfigError(f"unknown cluster mode {mode!r}; choose "
                              f"'unified' or 'disaggregated'")
        self.config = engines[0].config
        for engine in engines:
            if engine.config != self.config:
                raise ConfigError(
                    f"replica serves {engine.config.name}, cluster serves "
                    f"{self.config.name}; all replicas must share a model")
        self.mode = mode
        self.interconnect = interconnect
        self.router = make_router(router)
        self.decode_router = make_router(decode_router)
        n = len(engines)
        if mode == "unified":
            if prefill_replicas is not None:
                raise ConfigError("prefill_replicas only applies to "
                                  "disaggregated clusters")
            roles = ["unified"] * n
        else:
            if n < 2:
                raise ConfigError("disaggregation needs >= 2 replicas")
            if prefill_replicas is None:
                prefill_replicas = max(1, n // 2)
            if not 1 <= prefill_replicas <= n - 1:
                raise ConfigError(
                    f"need 1 <= prefill_replicas <= {n - 1}, got "
                    f"{prefill_replicas}")
            roles = ["prefill"] * prefill_replicas + \
                ["decode"] * (n - prefill_replicas)
            for engine, role in zip(engines, roles):
                if role == "decode" and \
                        not engine.scheduler.supports_kv_ready:
                    raise ConfigError(
                        f"decode replicas admit migrated KV directly, "
                        f"which the {engine.scheduler.name} scheduler "
                        f"cannot represent; use a peak-reservation "
                        f"policy for decode replicas")
        self.replicas = [Replica(index=i, engine=engine, role=role)
                         for i, (engine, role) in
                         enumerate(zip(engines, roles))]
        designs = {getattr(e.design, "name", type(e.design).__name__)
                   for e in engines}
        self.name = name if name is not None else \
            f"{n}x {designs.pop() if len(designs) == 1 else 'mixed'}"

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    # -- run: validate and open, drive, tear down -------------------------
    def run(self, trace: list[Request]) -> ClusterReport:
        """Serve a trace across the replicas; merge into one report."""
        pending, times = self._begin(trace)
        self._drive(pending, times)
        return self._finish(trace, pending)

    def _begin(self, trace: list[Request]) -> tuple:
        """Reset the run state, open the replicas, validate the whole
        trace before any step; return the sorted trace and its arrival
        times."""
        if not trace:
            raise ConfigError("empty trace")
        pending = sorted(trace, key=attrgetter("req_id"))
        pending.sort(key=attrgetter("arrival_s"))  # Stable: ties by req_id.
        times = arrival_times(pending)
        if len({r.req_id for r in pending}) != len(pending):
            raise ConfigError("trace has duplicate req_ids; cluster "
                              "completion merging needs unique ids")
        flagged = next((r for r in pending if r.kv_ready), None)
        if flagged is not None:
            raise ConfigError(
                f"request {flagged.req_id} sets kv_ready; that flag is "
                f"cluster-internal (set on KV migration)")
        self.router.reset()
        if self.mode == "disaggregated":
            self.decode_router.reset()
        #: (engine clock, index) of every busy replica, a min-heap.
        self._clock: list = []
        #: Migration heap of (arrival_s, req_id, Request).
        self._migrations: list = []
        self._origins: dict[int, Request] = {}
        #: req_id -> (origin, prefill-half record), decode in flight.
        self._prefill_half: dict[int, tuple] = {}
        self._finals: list = []
        self._n_migrations = 0
        self._transfer_bytes = 0.0
        self._transfer_seconds = 0.0
        #: Booting replicas in ready order (one cold-start delay, boots
        #: ordered at ascending ticks).
        self._booting: list = []
        self._reports: list = []
        self._routed_counts: list = []
        self._scale_events: list = []
        self._cold_starts = 0
        self._cold_start_seconds = 0.0
        #: Per-retirement on-time spans, folded at teardown.
        self._replica_deltas: list = []
        self._makespan = 0.0
        self._start()
        self._validate(pending)
        return pending, times

    def _start(self) -> None:
        """Open every replica's session, active at t=0."""
        for rep in self.replicas:
            rep.routed, rep.seen = 0, 0
            self._activate(rep, 0.0)

    @staticmethod
    def _distinct_schedulers(replicas: list) -> list:
        """One scheduler per admission-equivalent class.

        ``admission_error`` is a pure function of the scheduler's
        construction parameters (model, capacity, quantization, block
        geometry), so identical replicas — the common case — need only
        one probe instead of N.
        """
        probes: dict = {}
        for rep in replicas:
            scheduler = rep.engine.scheduler
            manager = getattr(scheduler, "block_manager", None)
            key = (type(scheduler), scheduler.config,
                   scheduler.kv_capacity_bytes, scheduler.kvq_bits,
                   None if manager is None
                   else (manager.num_blocks, manager.block_size))
            probes.setdefault(key, scheduler)
        return list(probes.values())

    def _validate(self, pending: list) -> None:
        """Whole-trace admission check: every distinct scheduler of the
        routable replicas checks the half of each request it serves —
        by token total (a prefill half holds ``prompt_len + 1``, a
        decode half its origin's), building a half only to word an
        error.

        Routing then queues through the family's validated enqueue, with
        no per-request re-check: a replica an elastic fleet boots later
        is built by the same factory as the ones checked here, so it
        admits exactly what they admit.  (:meth:`ServingEngine.submit`
        and :meth:`Scheduler.enqueue` keep validating for external
        callers.)"""
        n = len(pending)
        totals = np.fromiter((r.prompt_len + r.output_len for r in pending),
                             np.int64, n)
        halves = [(self._targets, pending, totals, lambda r: r)]
        if self.mode == "disaggregated":
            prompts = np.fromiter((r.prompt_len for r in pending), np.int64, n)
            decoding = totals > prompts + 1
            halves = [(self._targets, pending, prompts + 1,
                       lambda r: replace(r, output_len=1)),
                      (self._decode_targets, list(compress(pending, decoding)),
                       totals[decoding],
                       lambda r: self._decode_request(r, arrival_s=0.0))]
        for replicas, requests, totals, half in halves:
            for scheduler in self._distinct_schedulers(replicas):
                bad = scheduler.first_unservable(requests, totals)
                if bad is not None:
                    raise ConfigError(
                        f"unservable trace: "
                        f"{scheduler.admission_error(half(requests[bad]))}")

    def _finish(self, trace: list, pending: list) -> ClusterReport:
        """Retire every replica at the last clock and merge the
        per-replica records into one report."""
        self._retire_all()
        streams = [self._finals] if self.mode == "disaggregated" else \
            [report.records for report in self._reports]
        # By finish time, then request id (unique, so the order is total):
        # two stable one-key sorts cost half of one tuple-key sort.
        records = sorted(chain.from_iterable(streams),
                         key=attrgetter("request.req_id"))
        records.sort(key=attrgetter("finish_s"))
        if len(records) != len(pending):
            raise ConfigError(
                f"cluster completed {len(records)} of {len(pending)} "
                f"requests; completion merging lost records")
        return self._report(
            design=self.name, router=self.router.name, mode=self.mode,
            replicas=self._reports, records=records,
            makespan_s=self._makespan,
            offered_rps=offered_load_rps(trace),
            routed=self._routed_counts, migrations=self._n_migrations,
            kv_transfer_bytes=self._transfer_bytes,
            kv_transfer_seconds=self._transfer_seconds)

    def _retire_all(self) -> None:
        """Retire every replica still live, at the last clock."""
        if self._prefill_half:
            raise ConfigError(f"{len(self._prefill_half)} migrated "
                              f"requests never completed decode; "
                              f"cluster bookkeeping is broken")
        end_t = max([self._makespan] + [
            rep.engine.now for rep in self.replicas
            if rep.state in ("active", "draining")])
        for rep in self.replicas:
            if rep.state != "retired":
                self._retire(rep, end_t)

    def _report(self, **fields) -> ClusterReport:
        return ClusterReport(**fields)

    # -- replica lifecycle ----------------------------------------------
    def _roster_changed(self, t: float) -> None:
        """Rebuild the routable sets after a lifecycle change at ``t``
        and log the routable count when it moved."""
        active = [rep for rep in self.replicas if rep.state == "active"]
        self._targets = [rep for rep in active if rep.role != "decode"]
        self._decode_targets = [rep for rep in active
                                if rep.role == "decode"]
        if not self._scale_events or self._scale_events[-1][1] != \
                len(active):
            self._scale_events.append((t, len(active)))

    def _activate(self, rep: Replica, t: float) -> None:
        if rep.spun_up_s < rep.ready_s:
            self._cold_start_seconds += rep.ready_s - rep.spun_up_s
        rep.engine.start()
        rep.engine.advance_to(t)
        rep.state = "active"
        self._roster_changed(t)

    def _boot(self, t: float) -> None:
        """Activate every booting replica whose cold start ends by t."""
        while self._booting and self._booting[0].ready_s <= t:
            self._activate(self._booting.pop(0), t)

    def _retire(self, rep: Replica, t: float) -> None:
        """Close a replica at ``t``: finish its session, or cancel its
        boot if it is still provisioning (its engine never started)."""
        if rep.state == "provisioning":
            self._booting.remove(rep)
            self._cold_start_seconds += t - rep.spun_up_s
        else:
            rep.engine.report.offered_rps = _offered_rps(
                rep.routed, rep.first_arrival_s, rep.last_arrival_s)
            self._reports.append(rep.engine.finish())
            self._routed_counts.append(rep.routed)
            self._makespan = max(self._makespan, t)
        rep.state = "retired"
        self._replica_deltas.append(t - rep.spun_up_s)
        self._roster_changed(t)

    # -- event handlers --------------------------------------------------
    def _admit(self, request: Request) -> Request:
        """The request a replica takes for one trace arrival: the
        request itself, or in disaggregated mode its one-token prefill
        half (the origin is kept for the decode half)."""
        if self.mode != "disaggregated":
            return request
        self._origins[request.req_id] = request
        return replace(request, output_len=1)

    def _route(self, rep: Replica, request: Request, now: float) -> None:
        """Commit one routing decision (the router already chose); a
        replica this wakes joins the clock heap."""
        engine = rep.engine
        idle = not engine.has_work()
        engine.advance_to(now)
        engine.scheduler._enqueue_validated(request)  # See _validate.
        if not rep.routed:
            rep.first_arrival_s = now
        rep.last_arrival_s = now
        rep.routed += 1
        if idle:
            heapq.heappush(self._clock, (engine.now, rep.index))

    def _advance(self, rep: Replica, next_event: float) -> None:
        """Commit the earliest busy replica's next step — a leap may run
        up to ``next_event`` — or idle it there if it plans nothing (the
        caller re-queues a replica still busy).

        Every event up to the step's start has happened, so the step is
        causally committed, and every leapt step starts strictly before
        the horizon, so the same holds inside the leap.

        A decode replica also receives KV migrations that do not exist
        yet: a prefill completion at time ``f`` enqueues a migration
        arriving strictly after ``f``, and ``f`` can be no earlier than
        that replica's current clock — so the earliest busy prefill
        clock bounds its leap too.
        """
        engine = rep.engine
        horizon = next_event
        if rep.role == "decode":
            horizon = min([next_event] + [
                other.engine.now for other in self.replicas
                if other.role == "prefill" and other.engine.has_work()])
        if engine.step(horizon=horizon):
            if rep.role != "unified":
                self._drain(rep)
            if rep.state == "draining" and not engine.has_work():
                self._retire(rep, engine.now)
        else:
            self._idle(rep, next_event)

    def _idle(self, rep: Replica, next_event: float) -> None:
        """A busy replica planned nothing: it waits for the next event."""
        if next_event == math.inf:
            raise ConfigError(
                f"replica {rep.index} ({rep.engine.scheduler.name}) "
                f"stalled with work queued but nothing planned")
        rep.engine.advance_to(next_event)

    def _drain(self, rep: Replica) -> None:
        """Fold a disaggregated replica's new completions into the
        cluster view: a prefill completion spawns its KV migration, a
        decode completion joins its prefill half into the final record.
        (Unified records are collected wholesale at teardown.)"""
        records = rep.engine.report.records
        fresh = records[rep.seen:]
        rep.seen = len(records)
        for record in fresh:
            # Entries live from routing until the prefill half drains —
            # popping here (rather than never) is what keeps a
            # million-request disaggregated run's memory flat.
            if rep.role == "decode":
                origin, first = self._prefill_half.pop(
                    record.request.req_id)
            else:
                origin = self._origins.pop(record.request.req_id)
                first = record
            if rep.role == "prefill" and origin.output_len > 1:
                # One link hop of the context's KV bytes.
                moved = self.config.kv_cache_bytes(
                    seq_len=origin.prompt_len + 1, batch=1,
                    bits=rep.engine.scheduler.kvq_bits)
                seconds = moved / self.interconnect.link_bandwidth_bytes \
                    + self.interconnect.link_latency_s
                self._n_migrations += 1
                self._transfer_bytes += moved
                self._transfer_seconds += seconds
                sub = self._decode_request(
                    origin, arrival_s=record.finish_s + seconds)
                # Tie-break by req_id, not push order: leaping can
                # reorder which replica drains first, and the heap order
                # must not depend on that.
                heapq.heappush(self._migrations,
                               (sub.arrival_s, sub.req_id, sub))
                self._prefill_half[origin.req_id] = (origin, record)
                continue
            # Decode done, or nothing left to decode after the prefill.
            self._finals.append(RequestRecord(
                request=origin, admitted_s=first.admitted_s,
                first_token_s=first.first_token_s,
                finish_s=record.finish_s))

    def _decode_request(self, origin: Request,
                        arrival_s: float) -> Request:
        """The decode-side half of a migrated request.

        The prefill replica produced the first token, so the decode
        replica sees a context of ``prompt_len + 1`` tokens already
        materialized (``kv_ready``) and ``output_len - 1`` tokens left
        to generate; the total KV footprint is unchanged.  The prefix
        group is dropped — migrated KV arrives whole, nothing is left
        for a prefix cache to serve.
        """
        return replace(origin, arrival_s=arrival_s,
                       prompt_len=origin.prompt_len + 1,
                       output_len=origin.output_len - 1,
                       prefix_group=None, prefix_len=0, kv_ready=True)

    # -- the drive loop --------------------------------------------------
    def _drive(self, pending: list, times: list) -> None:
        """The event loop shared by every deployment.

        Four event kinds: arrival cohorts, KV migrations (a prefill
        completion's decode half, routed by ``decode_router`` once its
        transfer lands), replica boots and scaler ticks (elastic fleets
        only).  A ``(clock, index)`` min-heap holds exactly one entry
        per busy replica — :meth:`_route` pushes it when the replica
        gets work, this loop after the replica's steps, and nothing else
        moves a busy replica's clock — so its top is the earliest busy
        replica, ties to the lowest index.  That replica steps when its
        clock is strictly before the next event; otherwise the event
        fires.  At equal times a boot comes first, then an arrival, a
        migration, and a tick.

        A unified replica keeps stepping off the heap while it is still
        the earliest busy replica before the next event.  As the only
        routable replica, its leap horizon skips a next-event arrival
        while :meth:`Scheduler.arrivals_inert` holds (re-checked every
        step): a saturated batch plans the same steps either way.

        An arrival cohort — every arrival no later than the earliest
        busy clock, the next migration and the next tick, and strictly
        before the next boot — routes back-to-back through one
        :meth:`Router.select_batch` call: nothing else can happen
        between them.  Routing can wake an idle replica whose clock
        then bounds the cohort (the commit callback shrinks it).  A
        fixed one-replica unified cluster routes nothing: each cohort
        goes to its replica in one validated ``_enqueue_cohort`` (the
        whole trace was checked up front, :meth:`_validate`).
        """
        replicas = self.replicas
        heap = self._clock
        migrations = self._migrations
        booting = self._booting
        inf = math.inf
        idx = 0
        n_pending = len(pending)
        next_tick = self.tick_s
        lone = replicas[0] if len(replicas) == 1 and next_tick == inf \
            and self.mode == "unified" else None
        while True:
            worker_now = heap[0][0] if heap else inf
            arrival_t = times[idx] if idx < n_pending else inf
            migration_t = migrations[0][0] if migrations else inf
            ready_t = booting[0].ready_s if booting else inf
            # Ticks stop once nothing can ever arrive or run again —
            # the loop must not scale an empty fleet forever.
            tick_t = next_tick if (idx < n_pending or heap or booting) \
                else inf
            next_event = min(arrival_t, migration_t, ready_t, tick_t)
            if worker_now < next_event:
                index = heapq.heappop(heap)[1]
                rep = replicas[index]
                engine, scheduler = rep.engine, rep.engine.scheduler
                if rep.role != "unified":
                    self._advance(rep, next_event)
                else:
                    rival = heap[0] if heap else (inf, index)
                    inert = arrival_t == next_event < inf and \
                        self._targets == [rep]
                    after = min(migration_t, ready_t, tick_t)
                    # Two calls a step (step, has_work); the clock is read raw.
                    while True:
                        if not engine.step(after if inert and
                                           scheduler.arrivals_inert()
                                           else next_event):
                            self._idle(rep, next_event)
                            break
                        now = engine._now
                        if not scheduler.has_work() or \
                                now >= next_event or (now, index) > rival:
                            break
                    if rep.state == "draining" and not scheduler.has_work():
                        self._retire(rep, engine.now)
                if scheduler.has_work():
                    heapq.heappush(heap, (engine.now, index))
                continue
            if next_event == inf:
                break
            if ready_t == next_event:
                self._boot(ready_t)
            elif arrival_t == next_event and lone is not None:
                engine = lone.engine
                idle = not engine.has_work()
                engine.advance_to(arrival_t)
                upto = bisect_right(times, engine.now, idx)
                engine.scheduler._enqueue_cohort(pending[idx:upto])
                if not lone.routed:
                    lone.first_arrival_s = times[idx]
                lone.last_arrival_s = times[upto - 1]
                lone.routed += upto - idx
                idx = upto
                if idle:
                    heapq.heappush(heap, (engine.now, 0))
            elif arrival_t == next_event:
                bound = min(worker_now, migration_t, tick_t)
                upto = min(bisect_right(times, bound, idx),
                           bisect_left(times, ready_t, idx))

                def commit(request: Request, rep: Replica) -> bool:
                    nonlocal idx, bound
                    self._route(rep, self._admit(request), times[idx])
                    idx += 1
                    if rep.engine.now < bound:
                        bound = rep.engine.now
                    return idx < upto and times[idx] <= bound

                self.router.select_batch(pending[idx:upto], self._targets,
                                         commit)
            elif migration_t == next_event:
                when, _, sub = heapq.heappop(migrations)
                self._route(self.decode_router.select(
                    sub, self._decode_targets), sub, when)
            else:
                self._decide(tick_t)
                next_tick = tick_t + self.tick_s


def make_cluster(design, config, n_replicas: int,
                 policy: str = "paged", router: Router | str = "round-robin",
                 mode: str = "unified", prefill_replicas: int | None = None,
                 decode_router: Router | str = "least-outstanding",
                 max_batch: int = 16,
                 kv_capacity_bytes: float | None = None, kvq_bits: int = 4,
                 scheduler_kwargs: dict | None = None,
                 interconnect: InterconnectConfig = DEFAULT_INTERCONNECT,
                 seq_len_bucket: int = 1, **engine_kwargs) -> ServingCluster:
    """N identical replicas of ``design`` behind a router.

    ``kv_capacity_bytes`` is the *per-replica* KV budget; every replica
    builds its own scheduler (and, for paged policies, its own block
    pool) from it.  In disaggregated mode the prefill replicas run
    ``policy`` while decode replicas run the peak-reservation
    ``continuous`` policy, which admits migrated (``kv_ready``) KV.

    ``make_cluster(make_design("mugi", 256), SERVE_MODEL, 4,
    router="prefix-affinity")``
    """
    if n_replicas < 1:
        raise ConfigError("n_replicas must be positive")
    scheduler_kwargs = dict(scheduler_kwargs or {})
    if mode == "disaggregated" and prefill_replicas is None:
        prefill_replicas = max(1, n_replicas // 2)
    engines = []
    for index in range(n_replicas):
        replica_policy = "continuous" if mode == "disaggregated" and \
            index >= prefill_replicas else policy
        engines.append(build_engine(
            design, config, replica_policy, max_batch, kv_capacity_bytes,
            kvq_bits, scheduler_kwargs if replica_policy == policy else {},
            seq_len_bucket, **engine_kwargs))
    return ServingCluster(engines, router=router, mode=mode,
                          prefill_replicas=prefill_replicas,
                          decode_router=decode_router,
                          interconnect=interconnect)


class _EngineRun(ServingCluster):
    """The one-replica cluster :func:`simulate_trace` serves its engine
    through.  Its :meth:`run` returns the replica's own report, stamped
    with the whole trace's offered rate, so no merged record list (two
    whole-run sorts) is built only to be dropped."""

    def _finish(self, trace: list, pending: list) -> ServingReport:
        self._retire_all()
        report = self._reports[0]
        if len(report.records) != len(pending):
            raise ConfigError(
                f"engine completed {len(report.records)} of "
                f"{len(pending)} requests; its bookkeeping lost records")
        report.offered_rps = offered_load_rps(trace)
        return report


def simulate_trace(design, config, trace: list[Request],
                   policy: str = "continuous", max_batch: int = 16,
                   kv_capacity_bytes: float | None = None,
                   kvq_bits: int = 4, seq_len_bucket: int = 1,
                   scheduler_kwargs: dict | None = None,
                   **engine_kwargs) -> ServingReport:
    """One engine serving a trace, as a one-replica cluster; returns
    its report, with the trace's :func:`offered_load_rps`.

    ``simulate_trace(make_design("mugi", 256), LLAMA2_70B_GQA, trace)``

    ``scheduler_kwargs`` reach the scheduler constructor (one engine
    may own a ``block_manager`` instance) — e.g. ``policy="paged",
    scheduler_kwargs={"block_size": 32, "preemption": "swap"}``.
    """
    scheduler = make_scheduler(policy, config, max_batch=max_batch,
                               kv_capacity_bytes=kv_capacity_bytes,
                               kvq_bits=kvq_bits,
                               **(scheduler_kwargs or {}))
    engine = ServingEngine(design, config, scheduler,
                           seq_len_bucket=seq_len_bucket, **engine_kwargs)
    return _EngineRun([engine]).run(trace)
