"""Batching policies for the serving engine.

:class:`Scheduler` is the base of every scheduler.  It owns what both
families do the same way — validation, the running set, the work
counters, enqueue and release bookkeeping, the :data:`SCHEDULERS`
registry — and a family supplies its admission model and leap window:
block paging in :mod:`.policy`, peak reservation here.

Two peak-reservation schedulers share a strictly-FCFS admission queue
with KV-capacity admission control (a request reserves its *peak* KV
footprint — prompt + output tokens — at admission, so capacity can
never be exceeded mid-decode and no running sequence is ever
preempted):

* :class:`StaticBatchScheduler` — admit up to ``max_batch`` requests,
  run the batch to completion, only then admit the next batch (the
  pre-Orca serving model; late joiners wait for the whole drain).
* :class:`ContinuousBatchScheduler` — admit at *every* step boundary
  while batch slots and KV capacity allow; newly admitted requests
  prefill in the same step the existing set decodes (prefill–decode
  interleaving, the Orca/vLLM-style iteration-level policy).

Admission is head-of-line: a queued request that does not fit blocks the
requests behind it, which is what makes FCFS starvation-free.

Each admitted request is one :class:`SequenceState` object with plain
attributes, and a :class:`StepPlan` lists the step's decoders as those
objects in running order.  At the small batches this simulator serves
(8–64 sequences a step) attribute access on a ``__slots__`` object is
cheaper than gathering and scattering numpy columns, so the engine
commits a step with one short Python loop per phase.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .trace import Request


class SequenceState:
    """Mutable serving state of one admitted request.

    ``context_len`` is the KV depth used to lower the next decode step;
    ``generated`` counts emitted tokens (the prefill step emits the
    first).

    Equality is identity (no ``__eq__``): the schedulers find a state in
    their lists with ``list.remove`` / ``list.index``, and two requests
    with equal fields must never stand in for each other there.
    """

    __slots__ = ("request", "admitted_s", "context_len", "generated",
                 "first_token_s")

    def __init__(self, request: Request, admitted_s: float | None,
                 context_len: int = 0, generated: int = 0,
                 first_token_s: float | None = None):
        self.request = request
        self.admitted_s = admitted_s
        self.context_len = context_len
        self.generated = generated
        self.first_token_s = first_token_s

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(req_id={self.request.req_id}, "
                f"context_len={self.context_len}, "
                f"generated={self.generated})")

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len


@dataclass
class StepPlan:
    """The active set of one engine step.

    ``prefill`` holds whole-prompt prefills (the PR 1 schedulers);
    ``decode`` the sequences that emit one token this step, in the
    scheduler's running order (policy order for the paged schedulers);
    ``chunks`` holds :class:`repro.serve.policy.ChunkTask` chunked
    prefill work (the paged schedulers); ``swap_seconds`` is host-link
    time this step spent moving preempted KV, added to the step clock.
    """

    prefill: list = field(default_factory=list)
    decode: list = field(default_factory=list)
    chunks: list = field(default_factory=list)
    swap_seconds: float = 0.0

    @property
    def batch(self) -> int:
        return len(self.prefill) + len(self.decode) + len(self.chunks)


#: Scheduler registry for string-based construction.
SCHEDULERS: dict[str, type] = {}


class Scheduler:
    """The engine protocol, shared by every scheduler family.

    A family supplies its admission model as ``_capacity_error`` (per
    request, after the context check) and ``_capacity_mask`` (the same
    check over a trace's total-token array, exact per request); queues
    a validated request in ``_enqueue_validated``, which also counts it
    in :attr:`outstanding_tokens` and :attr:`mutations` (and may queue a
    validated cohort at once in ``_enqueue_cohort``); gives a released
    cohort's KV back in ``_free_cohort``, in cohort order; defines
    ``has_work``, ``plan_step`` and ``kv_utilization``; and overrides
    the four leap hooks (:meth:`arrivals_inert`, :meth:`leap_window`,
    :meth:`successor_plan`, :meth:`commit_leap`) where its own state
    bounds a leap.

    Parameters
    ----------
    config:
        The served model (its GQA geometry sets per-token KV bytes).
    max_batch:
        Most sequences active together (array occupancy bound).
    kvq_bits:
        KV-cache quantization width (4 under KVQ).
    """

    #: Registry key; a subclass that sets it joins :data:`SCHEDULERS`.
    name: str | None = None
    #: Whether the policy can admit :attr:`Request.kv_ready` sequences
    #: (KV migrated in from a prefill replica) straight into decode.
    #: The paged schedulers cannot — their block tables only materialize
    #: through local chunk compute — and override this to False.
    supports_kv_ready = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "name" in vars(cls):
            SCHEDULERS[cls.name] = cls

    def __init__(self, config: ModelConfig, max_batch: int = 16,
                 kvq_bits: int = 4):
        if max_batch < 1:
            raise ConfigError("max_batch must be positive")
        # A zero or negative width makes every KV footprint zero or
        # negative, so capacity would never bind.
        if not isinstance(kvq_bits, int) or kvq_bits < 1:
            raise ConfigError("kvq_bits must be a positive integer")
        self.config = config
        self.max_batch = max_batch
        self.kvq_bits = kvq_bits
        self.running: list[SequenceState] = []
        #: Work still owed: every queued or admitted sequence counts its
        #: ``total_tokens`` minus the tokens already generated.
        #: Maintained incrementally (enqueue / per-step generation /
        #: release; preemption only moves sequences between sets) so
        #: cluster routers read it in O(1) instead of walking the queue
        #: per arrival.
        self.outstanding_tokens = 0
        #: Ingest epoch: bumped by every enqueue so the engine can tell
        #: whether anything arrived between two of its steps.  A
        #: pure-decode leap cut short by a *foreign* event (another
        #: replica's clock, a fleet tick) leaves the plan valid; the
        #: engine resumes it on the next step iff this counter is
        #: unchanged (:meth:`repro.serve.ServingEngine.step`).
        self.mutations = 0

    # -- admission ------------------------------------------------------
    def admission_error(self, request: Request) -> str | None:
        """Why this request can never be served, or None if it can be.

        The context window first (prompt + output must fit
        ``max_seq_len``), then the family's KV model.  The engine
        pre-validates whole traces (:meth:`trace_error`) before
        simulating so an unservable request fails fast, not mid-run.
        """
        if request.total_tokens > self.config.max_seq_len:
            return (f"request {request.req_id} needs "
                    f"{request.total_tokens} context tokens, over "
                    f"{self.config.name}'s max_seq_len "
                    f"{self.config.max_seq_len}")
        return self._capacity_error(request)

    def trace_error(self, requests: list[Request]) -> str | None:
        """First reason any of ``requests`` can never be served, or None.

        Vectorized equivalent of calling :meth:`admission_error` on each
        request in order: the context threshold OR'd with the family's
        capacity mask flags exactly the requests either check rejects,
        and the first of them is re-diagnosed object-wise so the message
        (and check precedence) match exactly.
        """
        if not requests:
            return None
        totals = np.fromiter((r.prompt_len + r.output_len
                              for r in requests),
                             dtype=np.int64, count=len(requests))
        bad = self.first_unservable(requests, totals)
        return None if bad is None else self.admission_error(requests[bad])

    def first_unservable(self, requests: list[Request],
                         totals: np.ndarray) -> int | None:
        """Index of the first request unservable at its entry of
        ``totals`` (not necessarily its own total: a disaggregated
        cluster checks each half's), or None."""
        bad = (totals > self.config.max_seq_len) \
            | self._capacity_mask(requests, totals)
        return int(bad.argmax()) if bad.any() else None

    def enqueue(self, request: Request) -> None:
        """Queue one request (rejects requests that can never fit)."""
        error = self.admission_error(request)
        if error:
            raise ConfigError(f"unservable request: {error}")
        self._enqueue_validated(request)

    def enqueue_many(self, requests: list[Request]) -> None:
        """Bulk :meth:`enqueue`: one vectorized validation pass, then
        the family's ``_enqueue_cohort``.

        The counters end where per-request :meth:`enqueue` calls would
        leave them.  The peak-reservation family extends its queue and
        bumps :attr:`outstanding_tokens` and :attr:`mutations` once; the
        paged family still inserts request by request, since each insert
        finds its own place in the policy-ordered queue (and fair share
        advances a tenant's tag per request).
        """
        error = self.trace_error(requests)
        if error:
            raise ConfigError(error)
        self._enqueue_cohort(requests)

    def _enqueue_cohort(self, requests: list[Request]) -> None:
        for request in requests:
            self._enqueue_validated(request)

    # -- release --------------------------------------------------------
    def release(self, state: SequenceState) -> None:
        """Free a finished sequence's batch slot and KV: a cohort of
        one."""
        self.release_many([state])

    def release_many(self, states: list[SequenceState]) -> None:
        """Free a completion cohort in one pass.

        The cohort leaves :attr:`running` in one filter that keeps the
        survivors in order, and the family's ``_free_cohort`` gives its
        KV back in cohort order: the paged free list, and so prefix
        caching, sees that order, and ``reserved_bytes`` subtracts the
        footprints in it.  Raises ValueError, changing nothing, when a
        state is not running or is listed twice.
        """
        running = self.running
        cohort = set(states)
        survivors = [s for s in running if s not in cohort]
        if len(survivors) + len(states) != len(running):
            raise ValueError("release_many: every state must be running, "
                             "and listed once")
        running[:] = survivors
        self._free_cohort(states)
        self.outstanding_tokens -= sum([
            s.request.prompt_len + s.request.output_len - s.generated
            for s in states])

    def note_generated(self, tokens: int) -> None:
        """Engine hook: ``tokens`` were generated this step, shrinking
        the outstanding work by that much."""
        self.outstanding_tokens -= tokens

    # -- policy ---------------------------------------------------------
    def plan_step(self, now: float) -> StepPlan:
        """The active set for the step starting at ``now``."""
        raise NotImplementedError

    # -- engine hooks ----------------------------------------------------
    def arrivals_inert(self) -> bool:
        """True when a newly arrived request cannot change the plan.

        The cluster drive loop (:class:`repro.serve.ServingCluster`)
        uses this to pick the leap horizon of the only routable
        replica: when the batch is saturated an arrival can only
        join the queue — every admission path first checks
        ``len(running) < max_batch``, and a full batch never even
        examines the queue head (so no prefix-cache LRU touch either,
        see :meth:`repro.serve.policy.PagedScheduler.plan_step`) — so a
        decode leap may sail straight through arrivals.  The stepwise
        loop would have ingested each arrival at its step boundary and
        then planned the *identical* step.  Only a completion or
        preemption can reopen admission: a preemption breaks a leap,
        and a completing step ends one — the leap commits it and its
        release, and the next call replans once the leapt-past arrivals
        are queued (they drop any successor plan, see
        :meth:`successor_plan`), so the queue refills in bulk, in the
        same arrival order, before the admission that could take them.
        """
        return len(self.running) >= self.max_batch

    def leap_window(self, plan: StepPlan, max_steps: int) -> int:
        """How many further pure-decode steps the engine may leap.

        Called by :meth:`repro.serve.ServingEngine.step` with a
        pure-decode plan (no prefills, no chunks, no swap time) whose
        next ``max_steps`` steps it would repeat: the last of them is
        the earliest step at which a sequence completes (or the step
        before it, when it would leave no work), and the engine commits
        that step, its records and its release inside the leap when the
        window keeps it.  A ``seq_len_bucket`` crossing changes only the
        step's cost, never its plan, so it does not bound the window
        (the engine prices each crossing inside it), and the arrival
        horizon cuts the window only as it is leapt.  The scheduler
        shrinks the window to the steps before the first one at which
        its *own* state could change the plan.

        The default keeps the engine bound, which is exact for peak
        reservation: admission depends only on ``reserved_bytes``, the
        running-slot count, and the static queue head — none of which a
        pure-decode step changes, and a release lands only after the
        completing step — so a queue head blocked at the anchor step
        stays blocked for the whole window.
        """
        return max_steps

    def successor_plan(self, plan: StepPlan,
                       released: list) -> StepPlan | None:
        """The plan the next :meth:`plan_step` would build, when no
        admission can happen before it; otherwise None.

        The engine asks after a committed step it did not leap from:
        one that admitted, finished a chunked prefill or swapped
        (``released`` empty; not while a prompt is mid-prefill, since
        its next chunk rules out a pure-decode plan), or one whose
        completion cohort ``released`` it just released, in a step of
        its own or at the end of a leap.  ``plan`` is the step it
        committed.  It keeps the plan and leaps from it on its next call
        only while nothing is submitted and its clock stays put, so a
        plan returned here may assume the queue changes only by
        admission.  Its first step is priced and counted as the planned
        step it replaces, and :meth:`leap_window` still bounds the leap
        (a refused window falls back to :meth:`plan_step`).  None, the
        default, always replans.
        """
        return None

    def commit_leap(self, plan: StepPlan, steps: int) -> list:
        """Advance KV accounting past ``steps`` leapt decode steps.

        Returns the per-step KV-utilization series the stepwise path
        would have recorded — constant by default, because peak
        reservations only move at admission and release, neither of
        which happens inside a leap.
        """
        return [self.kv_utilization()] * steps

    def runtime_stats(self) -> dict:
        """Post-run counters folded into the :class:`ServingReport`."""
        return {}


def split_kv_ready(admitted: list) -> tuple[list, list]:
    """(prefill, decode) split of freshly admitted sequences.

    ``kv_ready`` admissions (a cluster KV migration delivered the
    context over the interconnect) skip prefill compute entirely: their
    ``context_len`` is already the full prompt depth, so they join the
    decode set in the same step they are admitted.
    """
    prefill = [s for s in admitted if not s.request.kv_ready]
    ready = [s for s in admitted if s.request.kv_ready]
    return prefill, ready


class ContinuousBatchScheduler(Scheduler):
    """Iteration-level batching with prefill–decode interleaving.

    ``kv_capacity_bytes`` is the on-device KV budget that admissions
    reserve their peak footprints from; ``None`` disables the check.
    """

    name = "continuous"

    def __init__(self, config: ModelConfig, max_batch: int = 16,
                 kv_capacity_bytes: float | None = None, kvq_bits: int = 4):
        super().__init__(config, max_batch, kvq_bits)
        # Written so NaN fails too: a NaN budget never blocks admission
        # and reports NaN utilization; None is the unbounded spelling.
        if kv_capacity_bytes is not None and \
                not 0 < kv_capacity_bytes < math.inf:
            raise ConfigError("kv_capacity_bytes must be finite and "
                              "positive")
        self.kv_capacity_bytes = kv_capacity_bytes
        self.queue: deque[Request] = deque()
        self.reserved_bytes = 0.0
        #: KV footprints are a pure function of total tokens; traces
        #: draw lengths from a handful of distributions, so memoizing by
        #: token count turns the per-request ``kv_cache_bytes`` call
        #: into a dict hit.
        self._footprints: dict[int, float] = {}

    # -- KV accounting --------------------------------------------------
    def _footprint_of(self, tokens: int) -> float:
        """KV footprint of one sequence at ``tokens`` context."""
        footprint = self._footprints.get(tokens)
        if footprint is None:
            footprint = self._footprints[tokens] = \
                self.config.kv_cache_bytes(seq_len=tokens, batch=1,
                                           bits=self.kvq_bits)
        return footprint

    def _capacity_error(self, request: Request) -> str | None:
        footprint = self._footprint_of(request.total_tokens)
        if self.kv_capacity_bytes is not None and \
                footprint > self.kv_capacity_bytes:
            return (f"request {request.req_id} needs {footprint:.3g} KV "
                    f"bytes, over the {self.kv_capacity_bytes:.3g}-byte "
                    f"capacity")
        return None

    def _capacity_mask(self, requests: list[Request], totals: np.ndarray):
        """Footprints are monotone in total tokens, so one probe per
        *distinct* total decides the whole batch."""
        if self.kv_capacity_bytes is None:
            return False
        over = [t for t in np.unique(totals).tolist()
                if self._footprint_of(t) > self.kv_capacity_bytes]
        return np.isin(totals, over) if over else False

    def _enqueue_validated(self, request: Request) -> None:
        self.queue.append(request)
        self.outstanding_tokens += request.prompt_len + request.output_len
        self.mutations += 1

    def _enqueue_cohort(self, requests: list[Request]) -> None:
        self.queue.extend(requests)
        self.outstanding_tokens += sum([r.prompt_len + r.output_len
                                        for r in requests])
        self.mutations += len(requests)

    def _admit_all(self, now: float) -> list[SequenceState]:
        """Admit queue heads until slots or KV capacity run out.

        ``reserved_bytes`` advances by one float addition per admission,
        in queue order.
        """
        queue = self.queue
        room = self.max_batch - len(self.running)
        if not queue or room <= 0:
            return []
        capacity = self.kv_capacity_bytes
        footprints = self._footprints
        reserved = self.reserved_bytes
        admitted = []
        while queue and len(admitted) < room:
            request = queue[0]
            total = request.prompt_len + request.output_len
            footprint = footprints.get(total)
            if footprint is None:
                footprint = self._footprint_of(total)
            if capacity is not None and reserved + footprint > capacity:
                break
            queue.popleft()
            reserved += footprint
            admitted.append(SequenceState(request, now, request.prompt_len))
        self.reserved_bytes = reserved
        self.running.extend(admitted)
        return admitted

    def _free_cohort(self, states: list[SequenceState]) -> None:
        """One footprint subtraction per state, in cohort order."""
        footprints = self._footprints
        reserved = self.reserved_bytes
        for state in states:
            total = state.request.prompt_len + state.request.output_len
            footprint = footprints.get(total)
            if footprint is None:
                footprint = self._footprint_of(total)
            reserved -= footprint
        # An emptied batch clears accumulated float dust.
        self.reserved_bytes = reserved if self.running else 0.0

    def kv_utilization(self) -> float:
        """Share of the KV budget held right now (0 when unbounded)."""
        if self.kv_capacity_bytes is None:
            return 0.0
        return self.reserved_bytes / self.kv_capacity_bytes

    # -- policy ---------------------------------------------------------
    def has_work(self) -> bool:
        return bool(self.queue or self.running)

    def plan_step(self, now: float) -> StepPlan:
        # Decoders are the pre-admission running set (admissions only
        # append); kv_ready admissions decode in their admission step.
        decode = [s for s in self.running
                  if s.generated < s.request.output_len]
        prefill, ready = split_kv_ready(self._admit_all(now))
        decode.extend(ready)
        return StepPlan(prefill=prefill, decode=decode)

    def successor_plan(self, plan: StepPlan,
                       released: list) -> StepPlan | None:
        """Decode of the whole running set, unless a release may have
        let the queue head in.

        Admission stops on an empty queue, a full batch or a head over
        the KV budget, and only an arrival or a release reopens it: so
        after a step that released nothing it stays shut, and after a
        release it stays shut while nothing is queued.  Every running
        sequence then decodes, in running order (finishers leave
        ``running`` as they finish).  A static batch, which admits
        nothing while it drains, plans the same.
        """
        if released and self.queue or not self.running:
            return None
        return StepPlan(decode=list(self.running))


class StaticBatchScheduler(ContinuousBatchScheduler):
    """Admit a fresh batch only after the previous batch fully drains."""

    name = "static"

    def plan_step(self, now: float) -> StepPlan:
        if self.running:
            return StepPlan(decode=[s for s in self.running
                                    if s.generated < s.request.output_len])
        prefill, ready = split_kv_ready(self._admit_all(now))
        return StepPlan(prefill=prefill, decode=ready)

    def arrivals_inert(self) -> bool:
        """A draining static batch admits nothing until it empties, so
        any non-empty running set makes arrivals inert — not just a
        full one."""
        return bool(self.running)


def scheduler_class(policy: str) -> type:
    """The scheduler class registered as ``policy`` (its family)."""
    try:
        return SCHEDULERS[policy]
    except KeyError:
        raise ConfigError(f"unknown scheduler policy {policy!r}; "
                          f"choose from {sorted(SCHEDULERS)}") from None


def make_scheduler(policy: str, config: ModelConfig, **kwargs) -> Scheduler:
    """``make_scheduler("continuous", LLAMA2_70B_GQA, max_batch=16)``."""
    return scheduler_class(policy)(config, **kwargs)
