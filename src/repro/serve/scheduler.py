"""Batching policies for the serving engine.

Two schedulers share a strictly-FCFS admission queue with KV-capacity
admission control (a request reserves its *peak* KV footprint —
prompt + output tokens — at admission, so capacity can never be exceeded
mid-decode and no running sequence is ever preempted):

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

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .trace import Request


def context_window_error(config: ModelConfig, request: Request
                         ) -> str | None:
    """Why ``request`` cannot fit ``config``'s context window, or None.

    Shared by every scheduler family's ``admission_error`` — the check
    is capacity-independent: prompt + output must fit ``max_seq_len``.
    """
    if request.total_tokens > config.max_seq_len:
        return (f"request {request.req_id} needs "
                f"{request.total_tokens} context tokens, over "
                f"{config.name}'s max_seq_len {config.max_seq_len}")
    return None


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


class Scheduler:
    """FCFS queue + KV-capacity admission shared by both policies.

    Parameters
    ----------
    config:
        The served model (its GQA geometry sets per-token KV bytes).
    max_batch:
        Most sequences decoded together (array occupancy bound).
    kv_capacity_bytes:
        On-device KV budget; ``None`` disables the capacity check.
    kvq_bits:
        KV-cache quantization width (4 under KVQ).
    """

    name = "fcfs"
    #: Whether the policy can admit :attr:`Request.kv_ready` sequences
    #: (KV migrated in from a prefill replica) straight into decode.
    #: The paged schedulers cannot — their block tables only materialize
    #: through local chunk compute — and override this to False.
    supports_kv_ready = True

    def __init__(self, config: ModelConfig, max_batch: int = 16,
                 kv_capacity_bytes: float | None = None, kvq_bits: int = 4):
        if max_batch < 1:
            raise ConfigError("max_batch must be positive")
        if kv_capacity_bytes is not None and kv_capacity_bytes <= 0:
            raise ConfigError("kv_capacity_bytes must be positive")
        self.config = config
        self.max_batch = max_batch
        self.kv_capacity_bytes = kv_capacity_bytes
        self.kvq_bits = kvq_bits
        self.queue: deque[Request] = deque()
        self.running: list[SequenceState] = []
        self.reserved_bytes = 0.0
        #: KV footprints are a pure function of total tokens; traces
        #: draw lengths from a handful of distributions, so memoizing by
        #: token count turns the per-request ``kv_cache_bytes`` call
        #: into a dict hit.
        self._footprints: dict[int, float] = {}
        #: KV-footprint-weighted work still owed: every queued request
        #: counts its full ``total_tokens``, every admitted sequence its
        #: total minus the tokens already generated.  Maintained
        #: incrementally (enqueue / per-step generation / release) so
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

    # -- KV accounting --------------------------------------------------
    def kv_bytes(self, tokens: int) -> float:
        """KV footprint of one sequence at ``tokens`` context."""
        return self.config.kv_cache_bytes(seq_len=tokens, batch=1,
                                          bits=self.kvq_bits)

    def _footprint_of(self, tokens: int) -> float:
        footprint = self._footprints.get(tokens)
        if footprint is None:
            footprint = self._footprints[tokens] = self.kv_bytes(tokens)
        return footprint

    def _footprint(self, request: Request) -> float:
        return self._footprint_of(request.total_tokens)

    def admission_error(self, request: Request) -> str | None:
        """Why this request can never be served, or None if it can be.

        The engine pre-validates whole traces with this before simulating
        so an unservable request fails fast, not mid-run.
        """
        error = context_window_error(self.config, request)
        if error:
            return error
        if self.kv_capacity_bytes is not None and \
                self._footprint(request) > self.kv_capacity_bytes:
            return (f"request {request.req_id} needs "
                    f"{self._footprint(request):.3g} KV bytes, over the "
                    f"{self.kv_capacity_bytes:.3g}-byte capacity")
        return None

    def trace_error(self, requests: list[Request]) -> str | None:
        """First reason any of ``requests`` can never be served, or None.

        Vectorized equivalent of calling :meth:`admission_error` on each
        request in order: both length checks are monotone in total
        tokens, so the whole batch reduces to array compares plus one
        footprint probe per *distinct* total.  The offending request is
        re-diagnosed object-wise so the message matches exactly.
        """
        if not requests:
            return None
        totals = np.fromiter((r.prompt_len + r.output_len
                              for r in requests),
                             dtype=np.int64, count=len(requests))
        return self._totals_error(requests, totals)

    def _totals_error(self, requests: list[Request],
                      totals: np.ndarray) -> str | None:
        bad = totals > self.config.max_seq_len
        if not bad.any() and self.kv_capacity_bytes is not None:
            over = [t for t in np.unique(totals).tolist()
                    if self._footprint_of(t) > self.kv_capacity_bytes]
            if over:
                bad = np.isin(totals, over)
        if bad.any():
            return self.admission_error(requests[int(bad.argmax())])
        return None

    def enqueue(self, request: Request) -> None:
        """Append to the FCFS queue (rejects requests that can never fit)."""
        error = self.admission_error(request)
        if error:
            raise ConfigError(error)
        self.queue.append(request)
        self.outstanding_tokens += request.total_tokens
        self.mutations += 1

    def enqueue_many(self, requests: list[Request]) -> None:
        """Bulk :meth:`enqueue` — one vectorized validation pass, one
        queue extend.  Equivalent to enqueueing one at a time."""
        if not requests:
            return
        totals = np.fromiter((r.prompt_len + r.output_len
                              for r in requests),
                             dtype=np.int64, count=len(requests))
        error = self._totals_error(requests, totals)
        if error:
            raise ConfigError(error)
        self.queue.extend(requests)
        self.outstanding_tokens += int(totals.sum())
        self.mutations += 1

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

    def release(self, state: SequenceState) -> None:
        """Free a finished sequence's batch slot and KV reservation."""
        self.running.remove(state)
        self.reserved_bytes -= self._footprint(state.request)
        self.outstanding_tokens -= \
            state.request.total_tokens - state.generated
        if not self.running:
            self.reserved_bytes = 0.0  # Clear accumulated float dust.

    def release_many(self, states: list[SequenceState]) -> None:
        """Free a completion cohort in one pass over the running list.

        Equivalent to calling :meth:`release` per state in order — the
        ``reserved_bytes`` float subtractions and the surviving running
        order are identical — but the list surgery is one rebuild
        instead of ``len(states)`` O(batch) scans.  (``reserved_bytes``
        can only dust-clear once the *last* cohort member leaves, so the
        end-of-loop check matches the per-release one.)
        """
        if len(states) == 1:
            self.release(states[0])
            return
        gone = {id(s) for s in states}
        self.running = [s for s in self.running if id(s) not in gone]
        footprints = self._footprints
        reserved = self.reserved_bytes
        owed = 0
        for state in states:
            request = state.request
            total = request.prompt_len + request.output_len
            footprint = footprints.get(total)
            if footprint is None:
                footprint = self._footprint_of(total)
            reserved -= footprint
            owed += total - state.generated
        self.reserved_bytes = reserved
        self.outstanding_tokens -= owed
        if not self.running:
            self.reserved_bytes = 0.0  # Clear accumulated float dust.

    def note_generated(self, tokens: int) -> None:
        """Engine hook: ``tokens`` were generated this step, shrinking
        the outstanding work by that much."""
        self.outstanding_tokens -= tokens

    # -- policy ---------------------------------------------------------
    def has_work(self) -> bool:
        return bool(self.queue or self.running)

    def plan_step(self, now: float) -> StepPlan:
        """The active set for the step starting at ``now``."""
        raise NotImplementedError

    # -- engine hooks ----------------------------------------------------
    def arrivals_inert(self) -> bool:
        """True when a newly arrived request cannot change the plan.

        :meth:`repro.serve.ServingEngine.run` uses this to pick the
        leap horizon: when the batch is saturated an arrival can only
        join the queue — every admission path first checks
        ``len(running) < max_batch``, and a full batch never even
        examines the queue head (so no prefix-cache LRU touch either,
        see :meth:`repro.serve.policy.PagedScheduler.plan_step`) — so a
        decode leap may sail straight through arrivals.  The stepwise
        loop would have ingested each arrival at its step boundary and
        then planned the *identical* step; the queue refills in bulk,
        in the same arrival order, when the leap-breaking event
        (always a planned step) replans.  Only a completion or
        preemption can reopen admission, and both break a leap.
        """
        return len(self.running) >= self.max_batch

    def leap_window(self, plan: StepPlan, max_steps: int) -> int:
        """How many further pure-decode steps the engine may leap.

        Called by :meth:`repro.serve.ServingEngine.step` after it has
        committed a pure-decode step (no prefills, no chunks, no swap
        time, no completions) and bounded the window by the next
        completion, ``seq_len_bucket`` crossing, and arrival horizon.
        The scheduler shrinks the window to the next step at which its
        *own* state could change the plan.

        Peak-reservation admission depends only on ``reserved_bytes``,
        the running-slot count, and the static queue head — none of
        which a pure-decode step changes — so a queue head blocked at
        the anchor step stays blocked for the whole window: the engine
        bound stands.
        """
        return max_steps

    def commit_leap(self, plan: StepPlan, steps: int) -> list:
        """Advance KV accounting past ``steps`` leapt decode steps.

        Returns the per-step KV-utilization series the stepwise path
        would have recorded — constant here, because peak reservations
        only move at admission and release, neither of which happens
        inside a leap.
        """
        return [self.kv_utilization()] * steps

    def kv_utilization(self) -> float:
        """Share of the KV budget held right now (0 when unbounded)."""
        if self.kv_capacity_bytes is None:
            return 0.0
        return self.reserved_bytes / self.kv_capacity_bytes

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
    """Iteration-level batching with prefill–decode interleaving."""

    name = "continuous"

    def plan_step(self, now: float) -> StepPlan:
        # Decoders are the pre-admission running set (admissions only
        # append); kv_ready admissions decode in their admission step.
        decode = [s for s in self.running
                  if s.generated < s.request.output_len]
        prefill, ready = split_kv_ready(self._admit_all(now))
        decode.extend(ready)
        return StepPlan(prefill=prefill, decode=decode)


class StaticBatchScheduler(Scheduler):
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


#: Scheduler registry for string-based construction.
SCHEDULERS = {cls.name: cls
              for cls in (ContinuousBatchScheduler, StaticBatchScheduler)}


def make_scheduler(policy: str, config: ModelConfig, **kwargs) -> Scheduler:
    """``make_scheduler("continuous", LLAMA2_70B_GQA, max_batch=16)``."""
    try:
        cls = SCHEDULERS[policy]
    except KeyError:
        raise ConfigError(f"unknown scheduler policy {policy!r}; "
                          f"choose from {sorted(SCHEDULERS)}") from None
    return cls(config, **kwargs)
