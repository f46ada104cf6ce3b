"""Pluggable scheduling policies over the paged KV-cache block manager.

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
* three policies share this admission interface: strict **FCFS**,
  **priority** ordering, and **preemptive priority** (a high-priority
  arrival may evict a low-priority running sequence immediately).

The scheduler plugs into the unchanged :class:`repro.serve.ServingEngine`
loop through the same ``plan_step`` protocol, with chunk work carried in
:attr:`repro.serve.scheduler.StepPlan.chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .kv_cache import BlockManager
from .scheduler import (
    SCHEDULERS,
    SequenceState,
    StepPlan,
    context_window_error,
)
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
        #: The policy's queue key, computed once at enqueue (keys are
        #: pure functions of immutable Request fields, and the per-step
        #: sorts are hot enough that re-deriving tuples dominated
        #: planning).
        self.queue_sort_key = queue_sort_key

    @property
    def prefill_done(self) -> bool:
        return self.prefilled >= self.prefill_target


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
    (:class:`FairSharePolicy`); ``priority`` the tenant rank
    (:class:`TenantPriorityPolicy`).  ``None`` SLO fields mean
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
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ConfigError("ttft_slo_s must be positive")
        if self.tpot_slo_s is not None and self.tpot_slo_s <= 0:
            raise ConfigError("tpot_slo_s must be positive")
        if self.weight <= 0:
            raise ConfigError("fair-share weight must be positive")


def tenant_slo_map(slos) -> dict:
    """Tenant id → :class:`TenantSLO`, rejecting duplicate tenants."""
    mapping: dict = {}
    for slo in slos:
        if slo.tenant in mapping:
            raise ConfigError(
                f"duplicate TenantSLO for tenant {slo.tenant}")
        mapping[slo.tenant] = slo
    return mapping


class SchedulingPolicy:
    """Ordering rules shared by every paged scheduler.

    ``queue_key`` sorts waiting (and running) sequences — lowest first
    is served first; ``victim_key`` picks preemption victims — the
    *maximum* is evicted; ``outranks`` gates preemptive admission.

    ``queue_key`` is computed once at enqueue and sorted by the cached
    tuple from then on, so it must be stable for the sequence's
    lifetime — either a pure function of immutable request fields (the
    classic policies) or policy-internal state advanced only at
    enqueue (the fair-share virtual clocks).  Stateful policies must
    not be shared between schedulers: every replica owns its instance.

    ``slos`` hands every policy the tenant terms
    (:func:`tenant_slo_map` applied); the tenant-agnostic policies
    simply ignore them.
    """

    name = "fcfs"
    preemptive_admission = False

    def __init__(self, slos=()):
        #: Tenant id → :class:`TenantSLO` (empty when single-tenant).
        self.slos = tenant_slo_map(slos)

    def queue_key(self, state: PagedSequenceState) -> tuple:
        return (state.request.arrival_s, state.request.req_id)

    def victim_key(self, state: PagedSequenceState) -> tuple:
        # Latest-admitted first (LIFO), the vLLM recompute default: the
        # youngest sequence has the least KV to rebuild.
        return (state.admitted_s or 0.0, state.request.req_id)

    def outranks(self, state: PagedSequenceState,
                 victim: PagedSequenceState) -> bool:
        return False


class PriorityPolicy(SchedulingPolicy):
    """Order by :attr:`Request.priority` (higher first), then arrival."""

    name = "priority"

    def queue_key(self, state: PagedSequenceState) -> tuple:
        request = state.request
        return (-request.priority, request.arrival_s, request.req_id)

    def victim_key(self, state: PagedSequenceState) -> tuple:
        return (-state.request.priority, state.admitted_s or 0.0,
                state.request.req_id)

    def outranks(self, state: PagedSequenceState,
                 victim: PagedSequenceState) -> bool:
        return state.request.priority > victim.request.priority


class PreemptivePriorityPolicy(PriorityPolicy):
    """Priority ordering where a blocked high-priority arrival may evict
    a lower-priority running sequence instead of queueing behind it."""

    name = "preemptive"
    preemptive_admission = True


class FairSharePolicy(SchedulingPolicy):
    """Weighted fair queuing across tenants (start-time fair queuing).

    Each tenant owns a virtual-time tag advancing by ``total_tokens /
    weight`` per enqueued request; a request's queue key is its
    tenant's tag at enqueue, floored at the fleet-wide minimum tag so a
    tenant idle for a while re-enters at the current service level
    instead of cashing unbounded saved credit in one burst.  A heavy
    tenant's requests sort progressively later while light tenants keep
    short queues — token-weighted max-min shares in expectation, the
    classic SFQ approximation.

    Tags are per-instance mutable state (advanced exactly once per
    request, at enqueue), so replicas must not share an instance —
    :class:`PagedScheduler` builds one per scheduler from the
    ``policy``/``slos`` names.
    """

    name = "fair-share"

    def __init__(self, slos=(), default_weight: float = 1.0):
        super().__init__(slos)
        if default_weight <= 0:
            raise ConfigError("default_weight must be positive")
        self.default_weight = default_weight
        self._tags: dict[int, float] = {}

    def _weight(self, request: Request) -> float:
        slo = self.slos.get(request.tenant)
        return self.default_weight if slo is None else slo.weight

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


class TenantPriorityPolicy(PriorityPolicy):
    """Tenant rank first (:attr:`TenantSLO.priority`, higher served
    first), then the request-level priority ordering within a rank."""

    name = "tenant-priority"

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


#: The base policy *is* FCFS; the alias names that explicitly.
FCFSPolicy = SchedulingPolicy

#: Policy registry for string-based construction.
POLICIES = {cls.name: cls for cls in (
    SchedulingPolicy, PriorityPolicy, PreemptivePriorityPolicy,
    FairSharePolicy, TenantPriorityPolicy)}


class PagedScheduler:
    """Block-granular continuous batching with chunked prefill.

    Drives a :class:`repro.serve.kv_cache.BlockManager`: admission
    reserves only the first chunk's blocks, decode allocates per token,
    and allocation failure preempts per the policy.  Implements the
    same protocol the :class:`repro.serve.ServingEngine` event loop
    speaks (``enqueue`` / ``plan_step`` / ``release`` / ...).

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
    policy:
        A :class:`SchedulingPolicy` name or instance; ``None`` uses the
        class default (:attr:`policy_cls`).
    slos:
        :class:`TenantSLO` specs handed to the policy constructor (so
        ``policy="fair-share", slos=(...)`` builds a per-replica
        stateful policy without sharing instances).  Only valid with a
        policy *name* — an instance already carries its own.
    block_manager:
        Pre-built pool (e.g. :meth:`BlockManager.for_design` for a
        sharded deployment); overrides ``kv_capacity_bytes``.
    """

    name = "paged"
    policy_cls = SchedulingPolicy
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
                 policy: SchedulingPolicy | str | None = None,
                 slos: tuple = (),
                 block_manager: BlockManager | None = None):
        if max_batch < 1:
            raise ConfigError("max_batch must be positive")
        if chunk_tokens < 1:
            raise ConfigError("chunk_tokens must be positive")
        if not 0.0 <= admit_headroom < 1.0:
            raise ConfigError("admit_headroom must be in [0, 1)")
        if preemption not in ("recompute", "swap"):
            raise ConfigError(f"unknown preemption mode {preemption!r}; "
                              f"choose 'recompute' or 'swap'")
        if host_link_bytes_s <= 0:
            raise ConfigError("host_link_bytes_s must be positive")
        self.config = config
        self.max_batch = max_batch
        self.kvq_bits = kvq_bits
        self.chunk_tokens = chunk_tokens
        self.preemption = preemption
        self.host_link_bytes_s = host_link_bytes_s
        self.admit_headroom = admit_headroom
        if isinstance(policy, str):
            try:
                policy = POLICIES[policy](slos=tuple(slos))
            except KeyError:
                raise ConfigError(
                    f"unknown scheduling policy {policy!r}; "
                    f"choose from {sorted(POLICIES)}") from None
        elif policy is not None and slos:
            raise ConfigError(
                "pass slos to the policy instance, not alongside it")
        self.policy = policy if policy is not None \
            else self.policy_cls(slos=tuple(slos))
        if block_manager is not None:
            self.block_manager = block_manager
        else:
            if kv_capacity_bytes is None:
                kv_capacity_bytes = max_batch * config.kv_cache_bytes(
                    seq_len=config.max_seq_len, batch=1, bits=kvq_bits)
            self.block_manager = BlockManager(
                config, kv_capacity_bytes, block_size=block_size,
                kvq_bits=kvq_bits)
        self.waiting: list[PagedSequenceState] = []
        self.running: list[PagedSequenceState] = []
        self.swapped: list[PagedSequenceState] = []
        self.preemption_count = 0
        #: The waiting queue is kept policy-sorted and only re-sorted
        #: after an append (queue keys are stable while a sequence
        #: waits — they derive from immutable Request fields — so
        #: skipping the per-step re-sort cannot change the order).
        self._waiting_sorted = True
        #: Incremental work counter (see Scheduler.outstanding_tokens):
        #: waiting/running/swapped sequences all count total - generated
        #: (preemption moves sequences between those sets, changing
        #: nothing).
        self.outstanding_tokens = 0
        #: Ingest epoch (see :attr:`repro.serve.Scheduler.mutations`):
        #: the engine's leap-resume check compares it across steps.
        self.mutations = 0
        #: Whether the most recent plan_step preempted anything.  A
        #: recompute preemption can hide inside a pure-decode plan (the
        #: victim vanishes from the active set, blocks free, and the
        #: same-step readmission guard expires next step), so the leap
        #: must not extrapolate past such a plan.
        self._preempted_in_last_plan = False

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
    def admission_error(self, request: Request) -> str | None:
        """Why this request can never be served, or None if it can be."""
        error = context_window_error(self.config, request)
        if error:
            return error
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

    def trace_error(self, requests: list[Request]) -> str | None:
        """First reason any of ``requests`` can never be served, or None.

        Vectorized equivalent of per-request :meth:`admission_error`:
        the context-window and peak-block checks are both plain
        threshold compares on total tokens
        (``blocks_needed(t) > num_blocks`` iff
        ``t > num_blocks * block_size``), and ``kv_ready`` is a flag
        scan.  The first offender is re-diagnosed object-wise so the
        message (and check precedence) match exactly.
        """
        if not requests:
            return None
        n = len(requests)
        totals = np.fromiter((r.prompt_len + r.output_len
                              for r in requests), dtype=np.int64, count=n)
        manager = self.block_manager
        bad = (totals > self.config.max_seq_len) \
            | (totals > manager.num_blocks * manager.block_size)
        if not bad.all():
            bad |= np.fromiter((r.kv_ready for r in requests),
                               dtype=bool, count=n)
        if bad.any():
            return self.admission_error(requests[int(bad.argmax())])
        return None

    def _enqueue_validated(self, request: Request) -> None:
        state = PagedSequenceState(
            request=request, admitted_s=None,
            prefill_target=request.prompt_len)
        state.queue_sort_key = self.policy.queue_key(state)
        self.waiting.append(state)
        self._waiting_sorted = False
        self.outstanding_tokens += request.total_tokens
        self.mutations += 1

    def enqueue(self, request: Request) -> None:
        error = self.admission_error(request)
        if error:
            raise ConfigError(error)
        self._enqueue_validated(request)

    def enqueue_many(self, requests: list[Request]) -> None:
        """Bulk :meth:`enqueue`: one vectorized validation pass, then
        the usual per-request waiting-queue inserts."""
        error = self.trace_error(requests)
        if error:
            raise ConfigError(error)
        for request in requests:
            self._enqueue_validated(request)

    def has_work(self) -> bool:
        return bool(self.waiting or self.running or self.swapped)

    def arrivals_inert(self) -> bool:
        """True when a newly arrived request cannot change the plan.

        Admission (plan part 4) runs only while
        ``len(running) < max_batch`` — a full batch never examines the
        waiting head at all, so there is no admission attempt and *no
        prefix-cache LRU touch* a leap would have to replay (see
        :meth:`repro.serve.Scheduler.arrivals_inert`).  Swap-ins come
        from ``swapped``, chunk scheduling from ``running``; neither
        looks at arrivals either.
        """
        return len(self.running) >= self.max_batch

    def release(self, state: PagedSequenceState) -> None:
        """Free a finished sequence's blocks (prefix blocks stay cached)."""
        self.running.remove(state)
        self.block_manager.free_sequence(state.request.req_id)
        self.outstanding_tokens -= \
            state.request.total_tokens - state.generated

    def release_many(self, states: list[PagedSequenceState]) -> None:
        """Free a completion cohort (block frees must stay per-sequence
        and in order — the free-list sequence feeds prefix caching)."""
        for state in states:
            self.release(state)

    def note_generated(self, tokens: int) -> None:
        """Engine hook: ``tokens`` generated this step (see
        :meth:`repro.serve.Scheduler.note_generated`)."""
        self.outstanding_tokens -= tokens

    # -- decode leaping ---------------------------------------------------
    def leap_window(self, plan: StepPlan, max_steps: int) -> int:
        """Shrink the engine's leap window to what the pool can supply.

        Beyond the engine's completion/bucket/arrival bounds, two paged
        concerns cap a leap:

        * **block supply** — every leapt step extends every decoder by
          one token, and an allocation failure mid-window would trigger
          a preemption the leap cannot represent, so the window shrinks
          until the whole leap's block demand fits the pool;
        * **blocked-head retries** — a waiting (or swapped-out) head is
          retried every stepwise step.  Those retries are pure
          round-trips, *except* that an admission attempt touches the
          prefix-cache LRU order; interleaved cached-block evictions
          could then pick different victims than the bulk schedule.
          With waiting or swapped sequences present the window is
          therefore bounded by the **free** list alone (no evictions
          can occur), while the heads themselves stay blocked because
          available blocks only shrink across a pure-decode window.
        """
        if self._preempted_in_last_plan:
            # The committed plan evicted someone: blocks freed and the
            # victim re-queued, so the next stepwise plan may admit or
            # re-chunk — state the leap cannot extrapolate.
            return 0
        manager = self.block_manager
        bound = manager.free_blocks if (self.waiting or self.swapped) \
            else manager.available_blocks
        size = manager.block_size
        tokens = np.fromiter(
            (manager.tokens_of(s.request.req_id) for s in plan.decode),
            dtype=np.int64, count=len(plan.decode))
        anchors = (tokens + size - 1) // size

        def blocks_demanded(steps: int) -> int:
            return int(((tokens + (steps + size - 1)) // size
                        - anchors).sum())

        if blocks_demanded(max_steps) <= bound:
            return max_steps
        lo, hi = 0, max_steps  # demand(lo) <= bound < demand(hi).
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if blocks_demanded(mid) <= bound:
                lo = mid
            else:
                hi = mid
        return lo

    def commit_leap(self, plan: StepPlan, steps: int) -> list:
        """Apply ``steps`` decode steps of KV growth in one bulk call.

        Reconstructs the per-step utilization series exactly: each
        leapt step's live-block count is the anchor count plus every
        block boundary the active set has crossed by that step — the
        same integers the stepwise schedule's per-token extends would
        have produced, divided by the same pool size.
        """
        manager = self.block_manager
        seq_ids = [s.request.req_id for s in plan.decode]
        tokens = np.asarray([manager.tokens_of(i) for i in seq_ids])
        live0 = manager.live_blocks
        size = manager.block_size
        js = np.arange(1, steps + 1)
        grown = ((tokens[:, None] + js[None, :] + size - 1) // size
                 - (tokens[:, None] + size - 1) // size).sum(axis=0)
        if not manager.extend_bulk([(i, steps) for i in seq_ids]):
            raise ConfigError("decode leap overran the block pool; "
                              "leap_window under-counted demand")
        if manager.live_blocks != live0 + int(grown[-1]):
            raise ConfigError("leap block accounting diverged from the "
                              "pool (copy-on-write inside a leap?)")
        # live0 + grown is exact int64 arithmetic; the float64 divide
        # rounds each ratio exactly as the stepwise ``int / int`` would.
        return ((live0 + grown) / manager.num_blocks).tolist()

    # -- chunked-prefill leaping ------------------------------------------
    def chunk_leap_window(self, task: ChunkTask) -> int:
        """How many further identical prefill chunks the engine may leap.

        The engine only asks when the anchor plan held exactly one
        non-finishing chunk and nothing else — every step of the window
        repeats that plan with ``past`` advanced by one chunk, because
        the step's whole token budget went to this sequence, so the
        part-4 admission loop (gated on ``budget > 0``) never ran and
        the prefix-cache LRU is untouched for the entire window.  The
        window shrinks to 0 when the extrapolation could diverge from
        the stepwise schedule:

        * something was preempted in the anchor plan, or swapped-out
          sequences exist (their swap-in probes run before the budget
          gate and can move blocks);
        * the anchor chunk was short of ``chunk_tokens`` (the repeat
          would not be identical);
        * the sequence's block table has slack beyond ``tokens_of`` or
          its next write needs a copy-on-write — either breaks the pure
          ``blocks_needed`` growth the bulk commit reconstructs;

        and is otherwise bounded by the remaining *full* chunks before
        the finishing one and by the pool's block supply.
        """
        if self._preempted_in_last_plan or self.swapped:
            return 0
        if task.new != self.chunk_tokens:
            return 0
        state = task.state
        window = (state.prefill_target - state.prefilled - 1) \
            // self.chunk_tokens
        if window <= 0:
            return 0
        manager = self.block_manager
        seq_id = state.request.req_id
        tokens = manager.tokens_of(seq_id)
        if manager.blocks_of(seq_id) != manager.blocks_needed(tokens):
            return 0
        if manager.write_needs_cow(seq_id):
            return 0
        # blocks_needed(tokens + j*chunk) <= available + blocks_needed(
        # tokens) iff tokens + j*chunk <= that bound times block_size:
        # the whole window's growth must fit free + evictable blocks.
        supply_tokens = (manager.available_blocks
                         + manager.blocks_needed(tokens)) \
            * manager.block_size - tokens
        return min(window, supply_tokens // self.chunk_tokens)

    def commit_chunk_leap(self, task: ChunkTask, steps: int) -> list:
        """Apply ``steps`` leapt prefill chunks of KV growth in one call.

        The exact analogue of :meth:`commit_leap` for a lone chunked
        prefill: reconstructs the per-step utilization series from
        block-boundary crossings, grows the block table through one
        bulk extend, and verifies the pool agrees with the
        reconstruction.
        """
        manager = self.block_manager
        state = task.state
        seq_id = state.request.req_id
        chunk = task.new
        tokens = manager.tokens_of(seq_id)
        live0 = manager.live_blocks
        size = manager.block_size
        js = np.arange(1, steps + 1, dtype=np.int64)
        grown = ((tokens + js * chunk + size - 1) // size
                 - (tokens + size - 1) // size)
        if not manager.extend_bulk([(seq_id, steps * chunk)]):
            raise ConfigError("chunk leap overran the block pool; "
                              "chunk_leap_window under-counted demand")
        if manager.live_blocks != live0 + int(grown[-1]):
            raise ConfigError("chunk-leap block accounting diverged from "
                              "the pool")
        state.prefilled += steps * chunk
        num_blocks = manager.num_blocks
        return [(live0 + int(g)) / num_blocks for g in grown]

    # -- preemption ------------------------------------------------------
    def _pick_victim(self, exclude_ids: set) -> PagedSequenceState | None:
        candidates = [s for s in self.running if id(s) not in exclude_ids]
        if not candidates:
            return None
        return max(candidates, key=self.policy.victim_key)

    def _preempt(self, state: PagedSequenceState, plan: StepPlan) -> None:
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
            self.waiting.append(state)
            self._waiting_sorted = False

    def _rollback_admission(self, state: PagedSequenceState,
                            cached: int) -> None:
        """Undo a begin_sequence whose first chunk could not be placed."""
        stats = self.block_manager.stats
        stats.prefix_query_tokens -= state.request.prompt_len
        stats.prefix_hit_tokens -= cached
        self.block_manager.free_sequence(state.request.req_id)

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
        headroom_blocks = int(self.admit_headroom * manager.num_blocks)
        self._preempted_in_last_plan = False

        def preempt(state):
            preempted_now.add(id(state))
            self._preempted_in_last_plan = True
            self._preempt(state, plan)

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
        if decoders and manager.available_blocks >= 2 * len(decoders):
            # A single-token extend needs at most one fresh block plus
            # one copy-on-write block, so the pool covers every decoder
            # below: no extend can fail, no victim is ever picked, and
            # the allocations land in the same order the guarded loop
            # would produce.
            extend = manager.extend
            for state in decoders:
                extend(state.request.req_id, 1)
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
        if not self._waiting_sorted:
            self.waiting.sort(key=_QUEUE_KEY)
            self._waiting_sorted = True
        while budget > 0 and self.waiting and \
                len(self.running) < self.max_batch:
            state = self.waiting[0]
            if id(state) in preempted_now:
                break  # No same-step readmission thrash.
            seq_id = state.request.req_id
            cached = manager.begin_sequence(seq_id, state.request)
            take = min(budget, state.prefill_target - cached,
                       manager.max_extend(seq_id))
            need = manager.blocks_needed(cached + take) \
                - manager.blocks_needed(cached)
            if take > 0 and self.running and \
                    manager.available_blocks - need < headroom_blocks:
                # Watermark: leave headroom for running decodes to grow
                # into, or admission churns straight into preemption.
                take = 0
            if take <= 0:
                self._rollback_admission(state, cached)
                victim = None
                if self.policy.preemptive_admission:
                    candidate = self._pick_victim(committed)
                    if candidate is not None and \
                            self.policy.outranks(state, candidate):
                        victim = candidate
                if victim is None:
                    break
                preempt(victim)
                continue
            self.waiting.pop(0)
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
        return plan


class PagedPriorityScheduler(PagedScheduler):
    """Paged scheduling ordered by request priority."""

    name = "paged-priority"
    policy_cls = PriorityPolicy


class PagedPreemptiveScheduler(PagedScheduler):
    """Priority scheduling that evicts lower-priority running sequences
    when a blocked higher-priority request waits."""

    name = "paged-preemptive"
    policy_cls = PreemptivePriorityPolicy


class PagedFairShareScheduler(PagedScheduler):
    """Paged scheduling under SFQ weighted fair sharing across tenants
    (pass per-tenant weights via ``slos``)."""

    name = "paged-fair-share"
    policy_cls = FairSharePolicy


class PagedTenantPriorityScheduler(PagedScheduler):
    """Paged scheduling ranked by per-tenant SLO priority, request
    priority breaking ties within a tenant class."""

    name = "paged-tenant-priority"
    policy_cls = TenantPriorityPolicy


SCHEDULERS.update({cls.name: cls for cls in (
    PagedScheduler, PagedPriorityScheduler, PagedPreemptiveScheduler,
    PagedFairShareScheduler, PagedTenantPriorityScheduler)})
