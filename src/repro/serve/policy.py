"""Paged schedulers over the KV-cache block manager, one class per policy.

The PR 1 schedulers (:mod:`.scheduler`) reserve a request's *peak* KV
footprint at admission and never preempt — safe, but badly
under-utilized on long-context traffic.  This module replaces that with
vLLM/Orca-style block-granular scheduling:

* admission reserves only the blocks the *first prefill chunk* needs;
  decode steps allocate one token at a time as contexts actually grow;
* long prompts prefill in budgeted **chunks** interleaved with decode
  steps (``chunk_tokens`` per step), so a 2k-token prompt no longer
  stalls every running decode behind one monster step;
* when a decode-time block allocation fails, the scheduler **preempts**
  a victim — recompute-style (drop its blocks, re-prefill later; the
  prefix cache usually makes the re-prefill cheap) or swap-style (move
  its KV over the host link and restore it when space frees);
* five schedulers share this admission interface and differ only in
  ordering: strict **FCFS** (the base :class:`PagedScheduler`),
  **priority** ordering, **preemptive priority** (a high-priority
  arrival may evict a low-priority running sequence immediately),
  weighted **fair share** and **tenant priority**.

Every paged scheduler subclasses :class:`repro.serve.Scheduler`, the
engine protocol; chunk work rides in :attr:`repro.serve.StepPlan.chunks`.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .kv_cache import BlockManager
from .scheduler import Scheduler, SequenceState, StepPlan
from .trace import Request

#: C-level sort key over the cached per-state queue tuples.
_QUEUE_KEY = attrgetter("queue_sort_key")


class PagedSequenceState(SequenceState):
    """Serving state of one request under the paged schedulers.

    ``prefilled`` counts prompt tokens whose KV is materialized
    (prefix-cache hits included); ``prefill_target`` is where prefill
    ends — ``prompt_len`` normally, ``prompt_len + generated`` while
    rebuilding after a recompute preemption.  The block manager, not
    the state, tracks how many KV tokens are device-resident.
    """

    __slots__ = ("prefilled", "prefill_target", "cached_tokens",
                 "preemptions", "swapped_tokens", "queue_sort_key")

    def __init__(self, request: Request, admitted_s: float | None,
                 context_len: int = 0, generated: int = 0,
                 first_token_s: float | None = None, prefilled: int = 0,
                 prefill_target: int = 0, cached_tokens: int = 0,
                 preemptions: int = 0, swapped_tokens: int = 0,
                 queue_sort_key: tuple = ()):
        super().__init__(request, admitted_s, context_len, generated,
                         first_token_s)
        self.prefilled = prefilled
        self.prefill_target = prefill_target
        self.cached_tokens = cached_tokens
        self.preemptions = preemptions
        self.swapped_tokens = swapped_tokens
        #: The scheduler's queue key, computed once at enqueue (keys are
        #: stable while a sequence lives, and the waiting-queue inserts
        #: and running-set sorts are hot enough that re-deriving tuples
        #: dominated planning).
        self.queue_sort_key = queue_sort_key


@dataclass(frozen=True)
class ChunkTask:
    """One prefill chunk of one step: ``new`` prompt tokens computed on
    top of ``past`` already-cached KV tokens.  ``finishes`` chunks
    complete their prompt and sample a token this step."""

    state: PagedSequenceState
    past: int
    new: int
    finishes: bool


@dataclass(frozen=True)
class TenantSLO:
    """Per-tenant service terms: latency SLOs plus scheduling share.

    ``ttft_slo_s`` / ``tpot_slo_s`` feed the metrics layer
    (:meth:`repro.serve.metrics.RecordStats.good_completions` judges a
    tenant's completions against its own spec, boundary-inclusive);
    ``weight`` is the fair-share admission weight
    (:class:`PagedFairShareScheduler`); ``priority`` the tenant rank
    (:class:`PagedTenantPriorityScheduler`).  ``None`` SLO fields mean
    unconstrained.
    """

    tenant: int
    ttft_slo_s: float | None = None
    tpot_slo_s: float | None = None
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self):
        if self.tenant < 0:
            raise ConfigError("tenant id must be non-negative")
        # Written so NaN fails too: a NaN SLO judges every completion
        # bad, and a NaN weight makes queue keys unordered.
        if self.ttft_slo_s is not None and not self.ttft_slo_s > 0:
            raise ConfigError("ttft_slo_s must be positive")
        if self.tpot_slo_s is not None and not self.tpot_slo_s > 0:
            raise ConfigError("tpot_slo_s must be positive")
        if not 0 < self.weight < math.inf:
            raise ConfigError("fair-share weight must be finite and "
                              "positive")


def tenant_slo_map(slos) -> dict:
    """Tenant id → :class:`TenantSLO`, rejecting duplicate tenants."""
    mapping: dict = {}
    for slo in slos:
        if slo.tenant in mapping:
            raise ConfigError(
                f"duplicate TenantSLO for tenant {slo.tenant}")
        mapping[slo.tenant] = slo
    return mapping


def _first_crossings(manager: BlockManager, decode: list) -> list:
    """Sorted first leapt steps at which each decoder opens a block: one
    holding ``t`` KV tokens opens a block at step ``(-t) % size + 1``
    (within the first block period) and every ``size`` steps after."""
    tokens_of, size = manager.tokens_of, manager.block_size
    return sorted([(-tokens_of(s.request.req_id)) % size + 1
                   for s in decode])


class PagedScheduler(Scheduler):
    """Block-granular continuous batching with chunked prefill.

    Drives a :class:`repro.serve.kv_cache.BlockManager`: admission
    reserves only the first chunk's blocks, decode allocates per token,
    and allocation failure preempts a victim.

    Ordering rules are methods (strict FCFS here; each registered
    subclass overrides its own): :meth:`queue_key` sorts waiting and
    running sequences, lowest first; :meth:`victim_key` picks the
    preemption victim, the maximum; :meth:`outranks` gates preemptive
    admission when :attr:`preemptive_admission` is set.  A queue key is
    computed once at enqueue, so it must stay stable while the sequence
    lives.

    Parameters
    ----------
    config:
        The served model.
    max_batch:
        Most sequences active together.
    kv_capacity_bytes:
        Device KV budget carved into blocks; ``None`` defaults to
        ``max_batch`` full-context sequences (a roomy pool).
    kvq_bits / block_size:
        KV quantization width and tokens per block.
    chunk_tokens:
        Prefill-token budget per engine step.
    preemption:
        ``"recompute"`` (drop KV, re-prefill later) or ``"swap"``
        (move KV over the host link and restore it).
    admit_headroom:
        Pool fraction the admission gate keeps free (a vLLM-style
        watermark).  Running decodes grow into this headroom between
        completions instead of triggering preemption storms; 0 admits
        to the last block.
    host_link_bytes_s:
        Host link bandwidth charged for swap traffic.
    slos:
        :class:`TenantSLO` specs the tenant-aware orderings read (the
        others ignore them).
    block_manager:
        Pre-built pool (e.g. :meth:`BlockManager.for_design` for a
        sharded deployment); overrides ``kv_capacity_bytes``.
    """

    name = "paged"
    #: Whether a blocked queue head may evict a sequence it outranks.
    preemptive_admission = False
    #: Block tables only materialize through local chunk compute, so a
    #: migrated-in KV cache (:attr:`Request.kv_ready`) cannot be
    #: represented; the cluster's disaggregated decode replicas must use
    #: the peak-reservation schedulers instead.
    supports_kv_ready = False

    def __init__(self, config: ModelConfig, max_batch: int = 16,
                 kv_capacity_bytes: float | None = None, kvq_bits: int = 4,
                 block_size: int = 16, chunk_tokens: int = 256,
                 preemption: str = "recompute",
                 host_link_bytes_s: float = 64e9,
                 admit_headroom: float = 0.1,
                 slos: tuple = (),
                 block_manager: BlockManager | None = None):
        super().__init__(config, max_batch, kvq_bits)
        if chunk_tokens < 1:
            raise ConfigError("chunk_tokens must be positive")
        if not 0.0 <= admit_headroom < 1.0:
            raise ConfigError("admit_headroom must be in [0, 1)")
        if preemption not in ("recompute", "swap"):
            raise ConfigError(f"unknown preemption mode {preemption!r}; "
                              f"choose 'recompute' or 'swap'")
        # Written so NaN fails too: swap time is bytes over this rate.
        if not 0 < host_link_bytes_s < math.inf:
            raise ConfigError("host_link_bytes_s must be finite and "
                              "positive")
        self.chunk_tokens = chunk_tokens
        self.preemption = preemption
        self.host_link_bytes_s = host_link_bytes_s
        self.admit_headroom = admit_headroom
        #: Tenant id → :class:`TenantSLO` (empty when single-tenant).
        self.slos = tenant_slo_map(slos)
        if block_manager is not None:
            self.block_manager = block_manager
        else:
            if kv_capacity_bytes is None:
                kv_capacity_bytes = max_batch * config.kv_cache_bytes(
                    seq_len=config.max_seq_len, batch=1, bits=kvq_bits)
            self.block_manager = BlockManager(
                config, kv_capacity_bytes, block_size=block_size,
                kvq_bits=kvq_bits)
        #: Policy-ordered on insert: queue keys are computed once and
        #: stable while a sequence waits, so no step re-sorts it.
        self.waiting: list[PagedSequenceState] = []
        self.swapped: list[PagedSequenceState] = []
        self.preemption_count = 0
        #: Whether the most recent plan_step preempted anything.  A
        #: recompute preemption can hide inside a pure-decode plan (the
        #: victim vanishes from the active set, blocks free, and the
        #: same-step readmission guard expires next step), so the leap
        #: must not extrapolate past such a plan.
        self._preempted_in_last_plan = False

    # -- ordering rules --------------------------------------------------
    def queue_key(self, state: PagedSequenceState) -> tuple:
        return (state.request.arrival_s, state.request.req_id)

    def victim_key(self, state: PagedSequenceState) -> tuple:
        # Latest-admitted first (LIFO), the vLLM recompute default: the
        # youngest sequence has the least KV to rebuild.
        return (state.admitted_s or 0.0, state.request.req_id)

    def outranks(self, state: PagedSequenceState,
                 victim: PagedSequenceState) -> bool:
        return False

    # -- engine protocol: capacity views ---------------------------------
    @property
    def kv_capacity_bytes(self) -> float:
        return self.block_manager.capacity_bytes

    @property
    def reserved_bytes(self) -> float:
        return self.block_manager.used_bytes

    def kv_utilization(self) -> float:
        return self.block_manager.utilization

    def runtime_stats(self) -> dict:
        stats = self.block_manager.stats
        return {
            "preemptions": self.preemption_count,
            "prefix_hit_tokens": stats.prefix_hit_tokens,
            "prefix_query_tokens": stats.prefix_query_tokens,
            "swap_bytes": stats.swap_out_bytes + stats.swap_in_bytes,
        }

    # -- engine protocol: admission --------------------------------------
    def _capacity_error(self, request: Request) -> str | None:
        if request.kv_ready:
            return (f"request {request.req_id} arrives with kv_ready set, "
                    f"but the {self.name} scheduler always rebuilds KV "
                    f"through local prefill chunks")
        manager = self.block_manager
        need = manager.blocks_needed(request.total_tokens)
        if need > manager.num_blocks:
            return (f"request {request.req_id} needs {need} KV blocks at "
                    f"peak, over the pool's {manager.num_blocks} "
                    f"({manager.capacity_bytes:.3g} bytes)")
        return None

    def _capacity_mask(self, requests: list[Request],
                       totals: np.ndarray) -> np.ndarray:
        """``blocks_needed(t) > num_blocks`` iff ``t > num_blocks *
        block_size``, and ``kv_ready`` is a flag scan."""
        manager = self.block_manager
        return (totals > manager.num_blocks * manager.block_size) \
            | np.fromiter((r.kv_ready for r in requests), dtype=bool,
                          count=len(requests))

    def _enqueue_validated(self, request: Request) -> None:
        state = PagedSequenceState(
            request=request, admitted_s=None,
            prefill_target=request.prompt_len)
        state.queue_sort_key = self.queue_key(state)
        insort(self.waiting, state, key=_QUEUE_KEY)
        self.outstanding_tokens += request.prompt_len + request.output_len
        self.mutations += 1

    def has_work(self) -> bool:
        return bool(self.waiting or self.running or self.swapped)

    def _free_cohort(self, states: list) -> None:
        """Free their blocks in cohort order (prefix blocks stay cached
        for later hits)."""
        free_sequence = self.block_manager.free_sequence
        for state in states:
            free_sequence(state.request.req_id)

    # -- decode leaping ---------------------------------------------------
    def leap_window(self, plan: StepPlan, max_steps: int) -> int:
        """Shrink the engine's leap window to what the pool can supply.

        Beyond the engine's completion bound and the arrival horizon,
        two paged concerns cap a leap:

        * **block supply** — every leapt step extends every decoder by
          one token, and an allocation failure mid-window would trigger
          a preemption the leap cannot represent, so the window shrinks
          until the whole leap's block demand fits the pool;
        * **blocked-head retries** — a waiting (or swapped-out) head is
          retried every stepwise step.  Those retries change nothing,
          *except* that an admission probe touches the prefix-cache
          LRU order; interleaved cached-block evictions
          could then pick different victims than the bulk schedule.
          With waiting or swapped sequences present the window is
          therefore bounded by the **free** list alone (no evictions
          can occur), while the heads themselves stay blocked because
          available blocks only shrink across a pure-decode window.

        Demand has a closed form: with the first crossings sorted
        (:func:`_first_crossings`), the set's ``m``-th block crossing
        (0-based) lands at step ``firsts[m % n] + (m // n) * size``, so
        the window ends one step before crossing number ``bound``.
        """
        if self._preempted_in_last_plan:
            # The committed plan evicted someone: blocks freed and the
            # victim re-queued, so the next stepwise plan may admit or
            # re-chunk — state the leap cannot extrapolate.
            return 0
        manager = self.block_manager
        bound = manager.free_blocks if (self.waiting or self.swapped) \
            else manager.available_blocks
        firsts = _first_crossings(manager, plan.decode)
        n = len(firsts)  # A pure-decode plan: at least one decoder.
        over = firsts[bound % n] + bound // n * manager.block_size
        return min(max_steps, over - 1)

    def commit_leap(self, plan: StepPlan, steps: int) -> list:
        """Apply ``steps`` decode steps of KV growth in one bulk call.

        Reconstructs the per-step utilization series exactly: live
        blocks rise by one at each block crossing (:meth:`leap_window`'s
        closed form) and hold between crossings, so the series is runs
        of ``(live0 + g) / num_blocks`` — the integers and ``int / int``
        divisions of the stepwise schedule's per-token extends.
        """
        manager = self.block_manager
        firsts = _first_crossings(manager, plan.decode)
        live0 = manager.live_blocks
        if not manager.extend_bulk(
                [(s.request.req_id, steps) for s in plan.decode]):
            raise ConfigError("decode leap overran the block pool; "
                              "leap_window under-counted demand")
        num_blocks = manager.num_blocks
        series: list = []
        live, emitted = live0, 0
        # A crossing past ``steps`` ends the last period range visits.
        for period in range(0, steps, manager.block_size):
            for first in firsts:
                at = first + period  # The step whose extend opens a block.
                if at > steps:
                    break
                series += [live / num_blocks] * (at - 1 - emitted)
                emitted = at - 1
                live += 1
        series += [live / num_blocks] * (steps - emitted)
        if manager.live_blocks != live:
            raise ConfigError("leap block accounting diverged from the "
                              "pool (copy-on-write inside a leap?)")
        return series

    def successor_plan(self, plan: StepPlan,
                       released: list) -> StepPlan | None:
        """The running decoders in policy order, while nothing waits,
        is swapped out or is still prefilling.

        Then the next :meth:`plan_step` swaps nothing in, chunks and
        admits nothing, and extends every decoder by one token.  Its
        own preemptions stay out: the engine leaps from this plan only
        through :meth:`leap_window`, which grants no step whose block
        demand the pool cannot cover (and none after a preempting
        plan).
        """
        if self.waiting or self.swapped:
            return None
        decoders, prefilling = self._partition_running()
        if prefilling or not decoders:
            return None
        return StepPlan(decode=decoders)

    # -- preemption ------------------------------------------------------
    def _pick_victim(self, exclude_ids: set) -> PagedSequenceState | None:
        candidates = [s for s in self.running if id(s) not in exclude_ids]
        if not candidates:
            return None
        return max(candidates, key=self.victim_key)

    def _preempt(self, state: PagedSequenceState, plan: StepPlan,
                 requeue: list) -> None:
        """Take ``state`` off the running set: swap its KV out, or drop
        it and append ``state`` to ``requeue`` for the waiting queue."""
        self.running.remove(state)
        self.preemption_count += 1
        state.preemptions += 1
        seq_id = state.request.req_id
        manager = self.block_manager
        if self.preemption == "swap":
            state.swapped_tokens = manager.tokens_of(seq_id)
            moved = manager.swap_out(seq_id)
            plan.swap_seconds += moved / self.host_link_bytes_s
            self.swapped.append(state)
        else:
            # Recompute: drop the KV; the sequence re-prefills its
            # prompt *plus* everything it already generated (prefix
            # cache hits usually cover the shared head of that rebuild).
            manager.free_sequence(seq_id)
            state.prefilled = 0
            state.prefill_target = state.request.prompt_len + state.generated
            state.context_len = 0
            requeue.append(state)

    def _requeue(self, states: list) -> None:
        """Move recompute victims into the waiting queue, in order."""
        for state in states:
            insort(self.waiting, state, key=_QUEUE_KEY)
        states.clear()

    def _partition_running(self) -> tuple[list, list]:
        """(decoders, prefilling) of the running set, policy-sorted."""
        decoders, prefilling = [], []
        for state in self.running:
            if state.prefilled < state.prefill_target:
                prefilling.append(state)
            elif state.generated < state.request.output_len:
                decoders.append(state)
        decoders.sort(key=_QUEUE_KEY)
        prefilling.sort(key=_QUEUE_KEY)
        return decoders, prefilling

    # -- the step planner ------------------------------------------------
    def plan_step(self, now: float) -> StepPlan:
        """Plan one engine step: swap-ins, decodes, prefill chunks,
        admissions — preempting per policy when blocks run out."""
        plan = StepPlan()
        manager = self.block_manager
        preempted_now: set[int] = set()
        committed: set[int] = set()  # ids of states planned this step
        requeue: list[PagedSequenceState] = []  # recompute victims
        headroom_blocks = int(self.admit_headroom * manager.num_blocks)
        self._preempted_in_last_plan = False

        def preempt(state):
            preempted_now.add(id(state))
            self._preempted_in_last_plan = True
            self._preempt(state, plan, requeue)

        # 1. Swapped-out sequences come back as soon as space allows —
        #    they were running once, so they outrank the waiting queue.
        #    The watermark applies here too, and a swapped-in sequence
        #    counts as committed: paying the host link both ways in one
        #    step (swap in, evicted straight back out) helps nobody.
        for state in sorted(self.swapped, key=_QUEUE_KEY):
            if len(self.running) >= self.max_batch:
                break
            need = manager.blocks_needed(max(state.swapped_tokens, 1))
            if self.running and \
                    manager.available_blocks - need < headroom_blocks:
                break
            moved = manager.swap_in(state.request.req_id,
                                    state.swapped_tokens)
            if moved is None:
                break
            plan.swap_seconds += moved / self.host_link_bytes_s
            self.swapped.remove(state)
            self.running.append(state)
            committed.add(id(state))

        # 2. Decode: every running sequence past prefill appends one
        #    token; allocation failure preempts a victim (possibly the
        #    sequence itself when it is the lowest-ranked survivor).
        #    Prefilling sequences preempted before part 3 reaches them
        #    are skipped there via ``preempted_now``, exactly as
        #    stepwise victims always were.
        decoders, prefilling = self._partition_running()
        if manager.extend_bulk([(s.request.req_id, 1) for s in decoders]):
            # The pool covered every decoder at once, so no extend
            # failed and no victim is ever picked: the allocations
            # landed in the guarded loop's order.
            plan.decode = decoders
            committed.update(map(id, decoders))
        else:
            for state in decoders:
                if id(state) in preempted_now:
                    continue  # Taken as a victim earlier in this loop.
                while True:
                    if manager.extend(state.request.req_id, 1):
                        plan.decode.append(state)
                        committed.add(id(state))
                        break
                    victim = self._pick_victim(committed | {id(state)})
                    if victim is None:
                        if id(state) in committed:
                            # Swapped in earlier this step: hold the
                            # blocks and retry next step rather than
                            # paying the host link both ways for zero
                            # progress.
                            break
                        preempt(state)
                        break
                    preempt(victim)

        # 3. Chunked prefill: continue partial prefills under the step's
        #    token budget, oldest/highest-priority first.
        budget = self.chunk_tokens
        for state in prefilling:
            if budget <= 0:
                break
            if id(state) in preempted_now:
                continue
            seq_id = state.request.req_id
            while True:
                take = min(budget, state.prefill_target - state.prefilled,
                           manager.max_extend(seq_id))
                if take > 0:
                    manager.extend(seq_id, take)
                    plan.chunks.append(ChunkTask(
                        state=state, past=state.prefilled, new=take,
                        finishes=state.prefilled + take
                        == state.prefill_target))
                    state.prefilled += take
                    committed.add(id(state))
                    budget -= take
                    break
                victim = self._pick_victim(committed | {id(state)})
                if victim is None:
                    break  # Alone and blocked cannot happen (admission
                    # bounds peak need); with company, company yields.
                preempt(victim)

        # 4. Admission: reserve only the first chunk's blocks.  The
        #    head of the (policy-ordered) queue blocks the rest — FCFS
        #    stays starvation-free — unless the policy preempts for it.
        #    The head is probed read-only and opened only once it fits.
        #    Victims of parts 2 and 3 join the queue in policy order
        #    first; victims taken for the head join only after the loop,
        #    so for the rest of this step they stand behind every waiter
        #    instead of blocking the ones the loop reaches next.
        self._requeue(requeue)
        while budget > 0 and self.waiting and \
                len(self.running) < self.max_batch:
            state = self.waiting[0]
            if id(state) in preempted_now:
                break  # No same-step readmission thrash.
            request = state.request
            cached, available, room = manager.probe_admission(request)
            take = min(budget, state.prefill_target - cached, room)
            need = manager.blocks_needed(cached + take) \
                - manager.blocks_needed(cached)
            if take > 0 and self.running and \
                    available - need < headroom_blocks:
                # Watermark: leave headroom for running decodes to grow
                # into, or admission churns straight into preemption.
                take = 0
            if take <= 0:
                victim = None
                if self.preemptive_admission:
                    candidate = self._pick_victim(committed)
                    if candidate is not None and \
                            self.outranks(state, candidate):
                        victim = candidate
                if victim is None:
                    break
                preempt(victim)
                continue
            self.waiting.pop(0)
            seq_id = request.req_id
            manager.begin_sequence(seq_id, request)
            manager.extend(seq_id, take)
            state.cached_tokens += cached
            state.prefilled = cached + take
            if state.admitted_s is None:
                state.admitted_s = now
            self.running.append(state)
            plan.chunks.append(ChunkTask(
                state=state, past=cached, new=take,
                finishes=state.prefilled == state.prefill_target))
            committed.add(id(state))
            budget -= take
        self._requeue(requeue)
        return plan


class PagedPriorityScheduler(PagedScheduler):
    """Paged scheduling by request priority (higher first), then arrival."""

    name = "paged-priority"

    def queue_key(self, state: PagedSequenceState) -> tuple:
        request = state.request
        return (-request.priority, request.arrival_s, request.req_id)

    def victim_key(self, state: PagedSequenceState) -> tuple:
        return (-state.request.priority, state.admitted_s or 0.0,
                state.request.req_id)

    def outranks(self, state: PagedSequenceState,
                 victim: PagedSequenceState) -> bool:
        return state.request.priority > victim.request.priority


class PagedPreemptiveScheduler(PagedPriorityScheduler):
    """Priority scheduling that evicts lower-priority running sequences
    when a blocked higher-priority request waits."""

    name = "paged-preemptive"
    preemptive_admission = True


class PagedFairShareScheduler(PagedScheduler):
    """Weighted fair queuing across tenants (start-time fair queuing).

    Each tenant owns a virtual-time tag advancing by ``total_tokens /
    weight`` per enqueued request, its :class:`TenantSLO` weight (1.0
    for a tenant without one); a request's queue key is its tenant's
    tag at enqueue, floored at the fleet-wide minimum tag so a tenant
    idle for a while re-enters at the current service level instead of
    cashing unbounded saved credit in one burst.  A heavy tenant's
    requests sort progressively later while light tenants keep short
    queues — token-weighted max-min shares in expectation, the classic
    SFQ approximation.
    """

    name = "paged-fair-share"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tags: dict[int, float] = {}

    def _weight(self, request: Request) -> float:
        slo = self.slos.get(request.tenant)
        return 1.0 if slo is None else slo.weight

    def queue_key(self, state: PagedSequenceState) -> tuple:
        request = state.request
        floor = min(self._tags.values(), default=0.0)
        start = max(self._tags.get(request.tenant, 0.0), floor)
        self._tags[request.tenant] = \
            start + request.total_tokens / self._weight(request)
        return (start, request.arrival_s, request.req_id)

    def victim_key(self, state: PagedSequenceState) -> tuple:
        # Evict the lightest-share tenant's youngest sequence first.
        return (-self._weight(state.request), state.admitted_s or 0.0,
                state.request.req_id)


class PagedTenantPriorityScheduler(PagedPriorityScheduler):
    """Tenant rank first (:attr:`TenantSLO.priority`, higher served
    first), then the request-level priority ordering within a rank."""

    name = "paged-tenant-priority"

    def _rank(self, request: Request) -> int:
        slo = self.slos.get(request.tenant)
        return 0 if slo is None else slo.priority

    def queue_key(self, state: PagedSequenceState) -> tuple:
        request = state.request
        return (-self._rank(request), -request.priority,
                request.arrival_s, request.req_id)

    def victim_key(self, state: PagedSequenceState) -> tuple:
        request = state.request
        return (-self._rank(request), -request.priority,
                state.admitted_s or 0.0, request.req_id)

    def outranks(self, state: PagedSequenceState,
                 victim: PagedSequenceState) -> bool:
        mine, theirs = self._rank(state.request), \
            self._rank(victim.request)
        if mine != theirs:
            return mine > theirs
        return state.request.priority > victim.request.priority
