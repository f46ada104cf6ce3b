"""Cluster-scale serving: replicated engines behind a request router.

:class:`ServingCluster` runs N independent engine replicas — each its
own :class:`repro.serve.ServingEngine` over its own scheduler and (for
the paged policies) its own :class:`repro.serve.BlockManager` pool —
against one arrival stream.  A :class:`repro.serve.router.Router`
assigns every request to a replica at its arrival instant; the cluster
then interleaves the replicas' steps in global time order through the
engine's external-clock API (:meth:`~repro.serve.ServingEngine.start` /
``submit`` / ``step`` / ``advance_to`` / ``finish``).

Two deployment modes:

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

Event-loop causality: a replica's step is committed once every arrival
up to the step's start has been routed, so router decisions at time
``t`` see each replica at its last step boundary — a lead/lag of less
than one step, the same bounded staleness a real async router works
under.  All tie-breaks are by replica index and any router randomness
is seeded, so cluster runs are deterministic functions of
``(trace, routers, replica construction)``.

Requests are re-instantiated per replica (`dataclasses.replace`), so
replicas fed from the same trace can never alias per-request state.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from ..errors import ConfigError
from ..parallel.collective import DEFAULT_INTERCONNECT, InterconnectConfig
from .engine import ServingEngine
from .metrics import ClusterReport, RequestRecord
from .router import Router, make_router
from .scheduler import make_scheduler
from .trace import Request, arrival_times, offered_load_rps

__all__ = ["Replica", "ServingCluster", "make_cluster"]


@dataclass
class Replica:
    """One engine of the cluster plus its routing-time view."""

    index: int
    engine: ServingEngine
    role: str = "unified"  # "unified" | "prefill" | "decode"
    routed: int = 0
    arrivals: list = field(default_factory=list)

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


def _offered_rps(arrivals: list) -> float:
    """Offered rate of one replica's routed sub-stream (0 if < 2).

    Degenerate same-instant streams report ``len(arrivals)`` over the
    :data:`_MIN_SPAN_S` floor — enormous, as an instantaneous burst
    deserves, but finite.  Streams with a real span are unchanged.
    """
    if len(arrivals) < 2:
        return 0.0
    span = max(arrivals) - min(arrivals)
    if span < _MIN_SPAN_S:
        return len(arrivals) / _MIN_SPAN_S
    return (len(arrivals) - 1) / span


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

    # -- views -----------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def _arrival_targets(self) -> list:
        if self.mode == "unified":
            return self.replicas
        return [r for r in self.replicas if r.role == "prefill"]

    def _decode_targets(self) -> list:
        return [r for r in self.replicas if r.role == "decode"]

    # -- validation ------------------------------------------------------
    @staticmethod
    def _distinct_schedulers(replicas: list) -> list:
        """One scheduler per admission-equivalent class.

        ``admission_error`` is a pure function of the scheduler's
        construction parameters (model, capacity, quantization, block
        geometry), so identical replicas — the common case — need only
        one probe per request instead of N.
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
        """Whole-trace admission check before simulating anything."""
        ids = {r.req_id for r in pending}
        if len(ids) != len(pending):
            raise ConfigError("trace has duplicate req_ids; cluster "
                              "completion merging needs unique ids")
        arrival_probes = self._distinct_schedulers(
            self._arrival_targets())
        decode_probes = self._distinct_schedulers(self._decode_targets())
        for request in pending:
            if request.kv_ready:
                raise ConfigError(
                    f"request {request.req_id} sets kv_ready; that flag "
                    f"is cluster-internal (set on KV migration)")
            probe = request if self.mode == "unified" \
                else replace(request, output_len=1)
            for scheduler in arrival_probes:
                error = scheduler.admission_error(probe)
                if error:
                    raise ConfigError(f"unservable trace: {error}")
            if self.mode == "disaggregated" and request.output_len > 1:
                probe = self._decode_request(request, arrival_s=0.0)
                for scheduler in decode_probes:
                    error = scheduler.admission_error(probe)
                    if error:
                        raise ConfigError(f"unservable trace: {error}")

    # -- disaggregation --------------------------------------------------
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

    def _transfer(self, origin: Request, kvq_bits: int) -> tuple:
        """(bytes, seconds) of one KV migration over the interconnect."""
        moved = self.config.kv_cache_bytes(
            seq_len=origin.prompt_len + 1, batch=1, bits=kvq_bits)
        seconds = moved / self.interconnect.link_bandwidth_bytes \
            + self.interconnect.link_latency_s
        return moved, seconds

    def _leap_horizon(self, rep: Replica, next_event: float) -> float:
        """How far ``rep``'s step may safely leap.

        Unified and prefill replicas only ever receive trace arrivals,
        all of which are known, so the next pending event bounds them.
        A decode replica additionally receives KV migrations that do
        not exist yet: a prefill completion at time ``f`` enqueues a
        migration arriving strictly after ``f``, and ``f`` can be no
        earlier than that replica's current clock — so the earliest
        busy prefill clock also bounds the horizon.

        The prefill-clock minimum is cached per drain epoch
        (``_prefill_min``, invalidated whenever a prefill replica
        steps, advances, or takes a route) instead of rescanning the
        fleet for every decode step.
        """
        if rep.role != "decode":
            return next_event
        bound = self._prefill_min
        if bound is None:
            bound = math.inf
            for other in self.replicas:
                if other.role == "prefill" and other.engine.has_work() \
                        and other.engine.now < bound:
                    bound = other.engine.now
            self._prefill_min = bound
        return bound if bound < next_event else next_event

    # -- the cluster event loop ------------------------------------------
    @staticmethod
    def _record_key(record: RequestRecord) -> tuple:
        return (record.finish_s, record.request.req_id)

    def _route_to(self, rep: Replica, request: Request,
                  now: float) -> None:
        """Commit one routing decision (the router already chose)."""
        rep.engine.advance_to(now)
        rep.engine.submit(request)
        rep.routed += 1
        rep.arrivals.append(now)
        if rep.role == "prefill":
            self._prefill_min = None

    def _drain(self, rep: Replica) -> None:
        """Fold a replica's new completions into the cluster view.

        Unified replicas need no per-step drain at all (their records
        are collected wholesale at teardown); this runs for the
        disaggregated modes, where a prefill completion must spawn its
        KV migration before the event loop continues.
        """
        records = rep.engine.report.records
        fresh = records[self._seen[rep.index]:]
        self._seen[rep.index] = len(records)
        finals = self._finals[rep.index]
        for record in fresh:
            # Entries live from routing until the prefill half drains —
            # popping here (rather than never) is what keeps a
            # million-request disaggregated run's memory flat.
            if rep.role == "decode":
                origin, first = self._prefill_half.pop(
                    record.request.req_id)
                finals.append(RequestRecord(
                    request=origin, admitted_s=first.admitted_s,
                    first_token_s=first.first_token_s,
                    finish_s=record.finish_s))
                continue
            origin = self._origins.pop(record.request.req_id)
            if origin.output_len == 1:
                # Nothing left to decode: done at the prefill side.
                finals.append(RequestRecord(
                    request=origin, admitted_s=record.admitted_s,
                    first_token_s=record.first_token_s,
                    finish_s=record.finish_s))
            else:
                moved, seconds = self._transfer(origin,
                                                rep.engine.kvq_bits)
                self._n_migrations += 1
                self._transfer_bytes += moved
                self._transfer_seconds += seconds
                sub = self._decode_request(
                    origin, arrival_s=record.finish_s + seconds)
                # Tie-break by req_id, not push order: leaping can
                # reorder which replica drains first, and the heap
                # order must not depend on that.
                heapq.heappush(self._migrations,
                               (sub.arrival_s, sub.req_id, sub))
                self._prefill_half[origin.req_id] = (origin, record)

    def _drive_legacy(self, pending: list) -> None:
        """The pre-heap reference loop: one O(replicas) scan and one
        ``step`` per iteration, one routed arrival per dispatch.

        Kept verbatim as the ground truth the identity tests diff the
        compressed loops against."""
        inf = math.inf
        idx = 0
        n_pending = len(pending)
        unified = self.mode == "unified"
        while True:
            arrival_t = pending[idx].arrival_s if idx < n_pending \
                else inf
            migration_t = self._migrations[0][0] if self._migrations \
                else inf
            next_event = arrival_t if arrival_t <= migration_t \
                else migration_t
            worker = None
            worker_now = inf
            for rep in self.replicas:
                if rep.engine.has_work() and rep.engine.now < worker_now:
                    worker = rep
                    worker_now = rep.engine.now
            if worker is not None and worker_now < next_event:
                # Every arrival up to this step's start is routed, so
                # the step is causally committed — and every leapt step
                # starts strictly before the horizon, so the same holds
                # for each step inside the leap.
                if worker.role == "prefill":
                    self._prefill_min = None
                if worker.engine.step(
                        horizon=self._leap_horizon(worker, next_event)):
                    if not unified:
                        self._drain(worker)
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
            if arrival_t <= migration_t:
                request = pending[idx]
                idx += 1
                if unified:
                    # Re-instantiated per replica: engines fed from one
                    # trace must never share request objects.
                    sub = replace(request)
                else:
                    self._origins[request.req_id] = request
                    sub = replace(request, output_len=1)
                targets = self._arrival_targets()
                self._route_to(self.router.select(sub, targets), sub,
                               request.arrival_s)
            else:
                when, _, sub = heapq.heappop(self._migrations)
                targets = self._decode_targets()
                self._route_to(self.decode_router.select(sub, targets),
                               sub, when)

    def _drive_unified(self, pending: list, times: list) -> None:
        """Unified-mode compressed loop: span advance + cohort routing.

        Between two external events, unified replicas are completely
        independent — the only cross-replica coupling is the router
        reading ``outstanding_tokens`` at dispatch instants, and the
        set of steps committed by then (every step starting strictly
        before the event) is the same whether replicas interleave step
        by step or advance one after the other.  So each busy replica
        is driven straight to the next arrival in one inner loop: the
        global quiescence leap falls out for free, because a replica
        whose plan is pure decode crosses the whole span in one
        (possibly resumed) leap, and no per-step earliest-replica
        selection exists at all.
        """
        replicas = self.replicas
        inf = math.inf
        idx = 0
        n_pending = len(pending)
        targets = self._arrival_targets()
        while True:
            arrival_t = times[idx] if idx < n_pending else inf
            busy_min = inf
            for rep in replicas:
                engine = rep.engine
                while engine.has_work() and engine.now < arrival_t:
                    if not engine.step(horizon=arrival_t):
                        if arrival_t == inf:
                            raise ConfigError(
                                f"replica {rep.index} "
                                f"({engine.scheduler.name}) stalled "
                                f"with work queued but nothing planned")
                        engine.advance_to(arrival_t)
                        break
                if engine.has_work() and engine.now < busy_min:
                    busy_min = engine.now
            if idx >= n_pending:
                break
            # Cohort dispatch: every arrival that precedes the earliest
            # busy clock routes back-to-back — no replica has a step to
            # commit between them.  Routing can wake an idle replica
            # whose clock lands below a later arrival; the commit
            # callback shrinks the bound, ending the cohort exactly
            # where the stepwise loop would have stepped first.
            upto = bisect_right(times, busy_min, idx)

            def commit(request: Request, rep: Replica) -> bool:
                nonlocal idx, busy_min
                self._route_to(rep, replace(request), times[idx])
                idx += 1
                now = rep.engine.now
                if now < busy_min:
                    busy_min = now
                return idx < n_pending and times[idx] <= busy_min

            self.router.select_batch(pending[idx:upto], targets, commit)

    def _drive_disaggregated(self, pending: list, times: list) -> None:
        """Disaggregated compressed loop: lazy min-heap replica clock.

        Migration interleaving couples the replicas (a prefill
        completion spawns a decode-side arrival, and decode horizons
        read prefill clocks), so the legacy loop's exact step order is
        reproduced: a ``(clock, index)`` heap with lazy invalidation
        picks each earliest busy replica in O(log replicas), matching
        the linear scan's strict-``<`` lowest-index tie-break.
        """
        replicas = self.replicas
        inf = math.inf
        heap: list = []
        idx = 0
        n_pending = len(pending)
        targets = self._arrival_targets()
        decode_targets = self._decode_targets()
        while True:
            arrival_t = times[idx] if idx < n_pending else inf
            migration_t = self._migrations[0][0] if self._migrations \
                else inf
            next_event = arrival_t if arrival_t <= migration_t \
                else migration_t
            worker = None
            worker_now = inf
            while heap:
                clock, i = heap[0]
                rep = replicas[i]
                if rep.engine.now != clock or not rep.engine.has_work():
                    heapq.heappop(heap)  # Stale entry.
                    continue
                worker = rep
                worker_now = clock
                break
            if worker is not None and worker_now < next_event:
                heapq.heappop(heap)
                engine = worker.engine
                if worker.role == "prefill":
                    self._prefill_min = None
                if engine.step(
                        horizon=self._leap_horizon(worker, next_event)):
                    self._drain(worker)
                    if engine.has_work():
                        heapq.heappush(heap, (engine.now, worker.index))
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
            if arrival_t <= migration_t:
                # Arrival cohort to the prefill pool, bounded by the
                # earliest busy clock and the next migration (which
                # only steps can spawn — none happen inside a cohort).
                bound = worker_now if worker_now < migration_t \
                    else migration_t
                upto = bisect_right(times, bound, idx)

                def commit(request: Request, rep: Replica) -> bool:
                    nonlocal idx, bound
                    self._origins[request.req_id] = request
                    sub = replace(request, output_len=1)
                    self._route_to(rep, sub, times[idx])
                    heapq.heappush(heap, (rep.engine.now, rep.index))
                    idx += 1
                    now = rep.engine.now
                    if now < bound:
                        bound = now
                    return idx < n_pending and times[idx] <= bound

                self.router.select_batch(pending[idx:upto], targets,
                                         commit)
            else:
                when, _, sub = heapq.heappop(self._migrations)
                rep = self.decode_router.select(sub, decode_targets)
                self._route_to(rep, sub, when)
                heapq.heappush(heap, (rep.engine.now, rep.index))

    def run(self, trace: list[Request],
            legacy: bool = False) -> ClusterReport:
        """Serve a trace across the replicas; merge into one report.

        ``legacy=True`` drives the pre-heap reference event loop; the
        report is field-for-field identical either way (the identity
        test suite enforces it), only wall-clock differs.
        """
        if not trace:
            raise ConfigError("empty trace")
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        times = arrival_times(pending)
        self._validate(pending)
        self.router.reset()
        self.decode_router.reset()
        for rep in self.replicas:
            rep.engine.start()
            rep.routed = 0
            rep.arrivals = []
        #: Migration heap of (arrival_s, req_id, Request).
        self._migrations: list = []
        self._origins: dict[int, Request] = {}
        #: req_id -> (origin, prefill-half record), decode in flight.
        self._prefill_half: dict[int, tuple] = {}
        self._finals: list[list] = [[] for _ in self.replicas]
        self._seen = [0] * self.n_replicas
        self._n_migrations = 0
        self._transfer_bytes = 0.0
        self._transfer_seconds = 0.0
        self._prefill_min: float | None = None

        if legacy:
            self._drive_legacy(pending)
        else:
            if self.mode == "unified":
                self._drive_unified(pending, times)
            else:
                self._drive_disaggregated(pending, times)

        if self._prefill_half:
            raise ConfigError(f"{len(self._prefill_half)} migrated "
                              f"requests never completed decode; "
                              f"cluster bookkeeping is broken")
        makespan = max(rep.engine.now for rep in self.replicas)
        reports = []
        for rep in self.replicas:
            rep.engine.report.offered_rps = _offered_rps(rep.arrivals)
            reports.append(rep.engine.finish())
        # Each replica drains completions in its own clock order, so
        # the cluster-wide (finish_s, req_id) order is a k-way merge of
        # per-replica streams (sorted first: simultaneous finishers of
        # one step land in running order, and Timsort on the
        # nearly-sorted stream is cheap), not a full global sort.
        # req_ids are unique, so the merged total order is exactly what
        # ``merged.sort(...)`` produced.
        if self.mode == "unified":
            streams = [sorted(report.records, key=self._record_key)
                       for report in reports]
        else:
            streams = [sorted(final, key=self._record_key)
                       for final in self._finals]
        merged = list(heapq.merge(*streams, key=self._record_key))
        if len(merged) != len(pending):
            raise ConfigError(
                f"cluster completed {len(merged)} of {len(pending)} "
                f"requests; completion merging lost records")
        return ClusterReport(
            design=self.name, router=self.router.name, mode=self.mode,
            replicas=reports, records=merged, makespan_s=makespan,
            offered_rps=offered_load_rps(trace),
            routed=[rep.routed for rep in self.replicas],
            migrations=self._n_migrations,
            kv_transfer_bytes=self._transfer_bytes,
            kv_transfer_seconds=self._transfer_seconds)


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
    if "block_manager" in scheduler_kwargs:
        raise ConfigError(
            "pass kv_capacity_bytes, not a block_manager: a shared pool "
            "instance would alias KV state across replicas")
    if mode == "disaggregated" and prefill_replicas is None:
        prefill_replicas = max(1, n_replicas // 2)
    engines = []
    for index in range(n_replicas):
        decode_side = mode == "disaggregated" and \
            prefill_replicas is not None and index >= prefill_replicas
        replica_policy = "continuous" if decode_side else policy
        kwargs = {} if replica_policy != policy else scheduler_kwargs
        scheduler = make_scheduler(replica_policy, config,
                                   max_batch=max_batch,
                                   kv_capacity_bytes=kv_capacity_bytes,
                                   kvq_bits=kvq_bits, **kwargs)
        engines.append(ServingEngine(design, config, scheduler,
                                     kvq_bits=kvq_bits,
                                     seq_len_bucket=seq_len_bucket,
                                     **engine_kwargs))
    return ServingCluster(engines, router=router, mode=mode,
                          prefill_replicas=prefill_replicas,
                          decode_router=decode_router,
                          interconnect=interconnect)
