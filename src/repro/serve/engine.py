"""Discrete-event continuous-batching serving engine.

The engine advances a clock step by step.  Each step it

1. ingests every request that has arrived by the clock;
2. asks the scheduler for the step's active set (new admissions to
   prefill + running sequences to decode; the paged schedulers of
   :mod:`repro.serve.policy` hand back budgeted prefill *chunks* and
   may charge host-link swap time for preempted KV);
3. prices that *ragged* active set as one fused step — the graph
   :func:`repro.llm.workload.build_serving_step_ops` describes:
   projections and FFN GEMMs shared by every active token so model
   weights stream once per step, attention per context length — on any
   Table 2 design, NoC system, or tensor/pipeline-sharded deployment
   (:class:`repro.parallel.ShardedSystem`), through the per-design cost
   surface (equivalent to :func:`repro.arch.simulate_workload` over the
   op list, without rebuilding it);
4. advances the clock by the step's roofline time — for sharded
   deployments that roofline overlaps compute with the step's exposed
   collective-communication time — and credits one token to every
   active sequence (the prefill step emits the first token).

Steps over near-identical active sets dominate a trace, so the engine
prices steps through a shared, LRU-bounded cache keyed by the active
set's length signature (:mod:`repro.serve.costs` — cluster replicas of
one design share it), with misses priced by the precomputed per-design
cost surface (:class:`repro.llm.workload.StepCostSurface`) instead of
re-walking a full operator list.

On top of that sits **decode leaping**: when a step's active set is
quiescent — pure decode, no completion, no ``seq_len_bucket`` crossing,
and no arrival before the caller-provided horizon — :meth:`step` leaps
the following K steps analytically: the committed step's cost is
re-applied per leapt step with the exact same sequential float
arithmetic the stepwise loop would use, KV/block growth lands in bulk
(:meth:`repro.serve.Scheduler.commit_leap` /
:meth:`repro.serve.BlockManager.extend_bulk`), and the per-step
KV-utilization series is reconstructed exactly, so a leaping run's
:class:`~repro.serve.ServingReport` is bit-identical to step-by-step
execution.  Leaping needs ``seq_len_bucket > 1`` (exact mode changes
every step's signature) and falls back to stepwise execution whenever a
chunked prefill, swap, admission, or completion is in flight.

The engine no longer has to own the event loop: :meth:`ServingEngine.run`
drives the classic single-engine trace-to-completion loop, but the
primitives it is built from — :meth:`~ServingEngine.start` /
:meth:`~ServingEngine.submit` / :meth:`~ServingEngine.step` /
:meth:`~ServingEngine.advance_to` / :meth:`~ServingEngine.finish` — are
public, so an external clock (the multi-replica
:class:`repro.serve.ServingCluster`) can interleave many engines'
steps against one global arrival stream, passing each step the arrival
horizon up to which leaping is safe.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import attrgetter

import numpy as np

from ..arch.simulator import SimulationResult
from ..arch.technology import TECH_45NM
from ..errors import ConfigError
from ..llm.config import ModelConfig
from .costs import step_cost_store
from .metrics import RequestRecord, ServingReport
from .scheduler import Scheduler, StepPlan, make_scheduler
from .trace import Request, offered_load_rps


class ServingEngine:
    """Serve request traces on one design with one batching policy.

    Parameters
    ----------
    design:
        Anything :func:`repro.arch.simulate_workload` accepts (single
        node or :class:`repro.arch.NocSystem`).
    config:
        The served Table 1 model.
    scheduler:
        A :class:`repro.serve.scheduler.Scheduler` bound to ``config``.
    woq_bits / kvq_bits:
        Weight-only and KV-cache quantization widths.
    include_lm_head:
        Price the vocabulary projection each step.
    seq_len_bucket:
        Round context/prompt lengths up to this multiple *for costing
        only* (KV accounting stays exact).  1 keeps costs exact; larger
        buckets collapse near-identical steps onto cached costs and
        enable decode leaping.
    leap:
        Enable the decode-leaping fast path (exact; see the module
        docstring).  Disable to force stepwise execution — the
        regression tests diff the two.
    """

    def __init__(self, design, config: ModelConfig, scheduler: Scheduler,
                 woq_bits: int = 4, kvq_bits: int = 4,
                 include_lm_head: bool = True, seq_len_bucket: int = 1,
                 leap: bool = True):
        if seq_len_bucket < 1:
            raise ConfigError("seq_len_bucket must be >= 1")
        if scheduler.config != config:
            raise ConfigError("scheduler is bound to a different model")
        design_config = getattr(design, "config", None)
        if isinstance(design_config, ModelConfig) and \
                design_config != config:
            # A sharded deployment classifies ops against its own model
            # geometry; serving a different model would silently misprice
            # every collective.
            raise ConfigError(
                f"design {getattr(design, 'name', design)} is sharded for "
                f"{design_config.name}, not {config.name}")
        self.design = design
        self.config = config
        self.scheduler = scheduler
        self.woq_bits = woq_bits
        self.kvq_bits = kvq_bits
        self.include_lm_head = include_lm_head
        self.seq_len_bucket = seq_len_bucket
        self.leap = leap
        self.tech = getattr(design, "tech", TECH_45NM)
        store = step_cost_store(design, config, woq_bits, kvq_bits,
                                include_lm_head, tech=self.tech)
        #: Shared across every engine on this (design, config, bits)
        #: combination — cluster replicas price each signature once.
        self._step_cache = store.cache
        self._surface = store.surface
        self._cache_hits = 0
        self._cache_misses = 0
        self._report: ServingReport | None = None
        self._now = 0.0
        #: Pending leap remainder: ``(plan, cost, window, epoch, clock)``
        #: left over when a pure-decode leap was cut by the horizon
        #: rather than by the plan's own validity bound (see
        #: :meth:`step`).
        self._resume = None

    # -- step lowering --------------------------------------------------
    def _signature(self, plan: StepPlan) -> tuple:
        """Cost-equivalence key of a step's active set.

        The decode part is the *sorted multiset* of bucketed context
        lengths (equivalent to a histogram, cheaper to build — this
        runs every planned step); the cost surface groups it on cache
        misses only.  The ceil-to-bucket rounding ``-(-x // b) * b`` is
        inlined here and mirrored by :meth:`_leap_window`'s crossing
        check — change them together.
        """
        b = self.seq_len_bucket
        prefill = () if not plan.prefill else tuple(
            sorted([-(-s.request.prompt_len // b) * b
                    for s in plan.prefill]))
        decode = tuple(sorted([-(-s.context_len // b) * b
                               for s in plan.decode]))
        # Chunked prefill: past KV is bucketed like decode context; the
        # chunk itself is budget-sized and stays exact.  Whether a chunk
        # finishes matters because only finishing chunks cross the LM
        # head.
        chunks = () if not plan.chunks else tuple(sorted(Counter(
            (-(-t.past // b) * b if t.past else 0, t.new, t.finishes)
            for t in plan.chunks).items()))
        return prefill, decode, chunks

    def _step_cost(self, plan: StepPlan) -> SimulationResult:
        key = self._signature(plan)
        result = self._step_cache.get(key)
        if result is not None:
            self._cache_hits += 1
            return result
        self._cache_misses += 1
        result = self._surface.price_step(*key)
        if self.seq_len_bucket > 1:
            # In exact mode nearly every step's signature is unique
            # (contexts grow each step), so storing would only churn
            # the LRU; the surface's component tables still carry the
            # speedup.
            self._step_cache.put(key, result)
        return result

    # -- externally clocked session --------------------------------------
    @property
    def now(self) -> float:
        """The engine's clock: end time of the last committed step."""
        return self._now

    @property
    def report(self) -> ServingReport | None:
        """The in-progress report of the active session (None outside)."""
        return self._report

    def _active_report(self) -> ServingReport:
        if self._report is None:
            raise ConfigError("no active serving session; call start()")
        return self._report

    def start(self, offered_rps: float = 0.0) -> ServingReport:
        """Open a serving session at clock 0 and return its live report.

        ``run`` calls this internally; an external driver (the cluster's
        event loop) calls it once, then interleaves :meth:`submit` /
        :meth:`step` / :meth:`advance_to` and closes with
        :meth:`finish`.
        """
        self._report = ServingReport(
            design=getattr(self.design, "name", type(self.design).__name__),
            scheduler=self.scheduler.name,
            kv_capacity_bytes=self.scheduler.kv_capacity_bytes,
            offered_rps=offered_rps)
        self._now = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._resume = None
        return self._report

    def submit(self, request: Request) -> None:
        """Hand one request to the scheduler (external-clock ingest)."""
        error = self.scheduler.admission_error(request)
        if error:
            raise ConfigError(f"unservable request: {error}")
        self.scheduler.enqueue(request)

    def has_work(self) -> bool:
        return self.scheduler.has_work()

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t`` (idle time; never backward)."""
        if t > self._now:
            self._now = t

    def step(self, horizon: float | None = None) -> bool:
        """Plan, price, and commit one step at the current clock.

        Returns False (and leaves every clock and state untouched) when
        the scheduler plans an empty step; the caller decides whether
        that means idle-until-next-arrival or a stall.

        ``horizon`` is the caller's promise that no request will be
        submitted before that absolute time.  With a horizon, a
        committed pure-decode step may *leap*: the engine repeats the
        step's cost analytically for every following step that starts
        before the horizon and cannot change the plan — no completion,
        no ``seq_len_bucket`` crossing, and no scheduler-state event
        (:meth:`Scheduler.leap_window`) — committing clock, energy,
        KV growth, and the utilization series exactly as the stepwise
        loop would.  Without a horizon (the default) every call commits
        exactly one step.

        A leap the previous call cut at its horizon leaves the plan
        provably valid for the window's remaining steps (no completion,
        bucket crossing, or scheduler event occurs inside it, and
        admission stays blocked — nothing arrived, or the resume is
        dropped).  When nothing was submitted in between
        (:attr:`Scheduler.mutations` unchanged) and the clock did not
        move, this call *resumes* that leap instead of replanning: the
        planned-step count collapses from one per foreign cluster event
        to one per plan-changing event on this replica.  All physics
        fields stay bit-identical to replanning (the elided plan would
        have been identical and the accumulators advance with the same
        sequential additions); only the diagnostic ``leap_steps`` /
        step-cache counters attribute steps differently.
        """
        resume = self._resume
        if resume is not None:
            self._resume = None
            if horizon is not None and self._now < horizon and \
                    resume[3] == self.scheduler.mutations and \
                    resume[4] == self._now:
                self._resume_leap(resume, horizon)
                return True
        report = self._active_report()
        plan = self.scheduler.plan_step(self._now)
        if plan.batch == 0:
            return False
        prefill, decode, chunks = plan.prefill, plan.decode, plan.chunks
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   self.scheduler.reserved_bytes)
        report.kv_utilization.append(self.scheduler.kv_utilization())
        cost = self._step_cost(plan)
        duration = cost.step_seconds + plan.swap_seconds
        self._now += duration
        now = self._now
        report.energy_j += cost.dynamic_energy_j
        report.comm_seconds += cost.comm_seconds
        report.swap_seconds += plan.swap_seconds
        report.busy_seconds += duration
        report.steps += 1

        for state in prefill:
            state.first_token_s = now
            state.generated = 1
            state.context_len = state.request.prompt_len + 1
        finished_chunks = []
        for task in chunks:
            if not task.finishes:
                continue
            # The last chunk of a prefill (or of a post-preemption
            # KV rebuild) emits one token, like the one-shot
            # prefill step does.
            state = task.state
            if state.first_token_s is None:
                state.first_token_s = now
            state.generated += 1
            state.context_len = state.prefill_target + 1
            finished_chunks.append(state)
        for state in decode:
            if state.first_token_s is None:
                # KV-ready admissions (cluster disaggregation: the KV
                # arrived over the interconnect) emit their first local
                # token from a decode step, never a prefill.
                state.first_token_s = now
            state.generated += 1
            state.context_len += 1
        self.scheduler.note_generated(
            len(prefill) + len(decode) + len(finished_chunks))
        # Completion scan, in the stepwise order (prefills, decoders in
        # running order, finished chunks).  A prefill finisher emitted
        # its whole output in the prefill step: generated is exactly 1
        # after the commit above.
        finishers = [s for s in prefill if s.request.output_len <= 1]
        finishers += [s for s in decode
                      if s.generated >= s.request.output_len]
        finishers += [s for s in finished_chunks
                      if s.generated >= s.request.output_len]
        if finishers:
            # Records first (they only read state), then one cohort
            # release — the record order and every release side effect
            # match the interleaved per-state sequence.
            report.records.extend([
                RequestRecord(request=s.request, admitted_s=s.admitted_s,
                              first_token_s=s.first_token_s, finish_s=now)
                for s in finishers])
            self.scheduler.release_many(finishers)
        elif horizon is not None:
            if chunks:
                self._chunk_leap(plan, horizon)
            else:
                self._leap(plan, cost, horizon)
        return True

    def _leap_window(self, decode: list) -> int:
        """Steps after a committed pure-decode step with the same plan.

        Bounded by the earliest completion (the completing step must
        replan so releases and records land through the one stepwise
        code path) and the earliest ``seq_len_bucket`` crossing (the
        next bucket's signature needs a fresh cost); the scheduler then
        shrinks the window to its own next state event.
        """
        bucket = self.seq_len_bucket
        if bucket == 1:
            return 0  # Exact mode: every step's signature is new.
        window = None
        for state in decode:
            remaining = state.request.output_len - state.generated
            # context_len was just incremented; the committed step
            # planned at context_len - 1, and leapt step j plans at
            # context_len + j - 1, which must share its cost bucket.
            crossing = -(state.context_len - 1) % bucket
            bound = remaining - 1 if remaining - 1 < crossing else crossing
            if window is None or bound < window:
                window = bound
                if window <= 0:
                    return 0
        return window

    def _leap(self, plan: StepPlan, cost: SimulationResult,
              horizon: float) -> None:
        """Re-apply a committed pure-decode step analytically.

        Every accumulator advances with the same sequential float
        additions the stepwise loop performs (float addition does not
        associate, and the reports must match bit for bit), but the
        planning, pricing, and per-token KV allocation work is skipped —
        the leap is what makes 100k-request traces tractable.
        """
        if not self.leap or plan.prefill or plan.chunks or \
                plan.swap_seconds or not plan.decode:
            return
        window = self._leap_window(plan.decode)
        if window > 0:
            window = self.scheduler.leap_window(plan, window)
        if window <= 0:
            return
        leapt = self._advance(cost.step_seconds,  # No swap inside a leap.
                              cost.dynamic_energy_j, cost.comm_seconds,
                              window, horizon)
        if leapt < window:
            # Cut by the horizon, not by the plan's validity: the
            # remaining steps stay leapable once the caller's next
            # horizon opens, provided nothing is submitted meanwhile.
            self._resume = (plan, cost, window - leapt,
                            self.scheduler.mutations, self._now)
        if leapt:
            self._commit_leap(plan, leapt)

    def _commit_leap(self, plan: StepPlan, leapt: int) -> None:
        """Commit ``leapt`` repeats of a pure-decode plan whose clock and
        energy :meth:`_advance` already applied: KV growth and the
        utilization series, step counters, and every decoder's tokens."""
        report = self._report
        report.kv_utilization.extend(
            self.scheduler.commit_leap(plan, leapt))
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   self.scheduler.reserved_bytes)
        report.steps += leapt
        report.leap_steps += leapt
        for state in plan.decode:
            state.generated += leapt
            state.context_len += leapt
        self.scheduler.note_generated(leapt * len(plan.decode))

    def _resume_leap(self, resume: tuple, horizon: float) -> None:
        """Continue a horizon-cut leap without replanning.

        Safety chain (each point pins the elided replan to the resumed
        plan): the window bound guarantees no sequence completes or
        crosses a cost bucket inside it; in a pure-decode window
        admission stays monotonically blocked for every scheduler
        (reservations and ``running`` are unchanged, a paged pool's
        available blocks only shrink, and blocked swap-ins stay
        blocked); the anchor plan's admission probe already moved the
        blocked head's cached prefix blocks to MRU, so eliding the
        repeat probes leaves the LRU order identical (no eviction can
        occur inside the window); and the paged window was sized so the
        whole leap's block demand fits the free list, so the remainder
        cannot preempt.  The committed arithmetic is the same
        sequential accumulation :meth:`_leap` performs — splitting one
        window across calls lands on identical floats.
        """
        plan, cost, window, epoch, _ = resume
        leapt = self._advance(cost.step_seconds, cost.dynamic_energy_j,
                              cost.comm_seconds, window, horizon)
        if leapt < window:
            self._resume = (plan, cost, window - leapt, epoch, self._now)
        self._commit_leap(plan, leapt)

    def _advance(self, duration: float, energy: float, comm: float,
                 window: int, horizon: float) -> int:
        """Commit up to ``window`` repeats of one step's cost; return how
        many started strictly before ``horizon``.

        The four running sums (clock, energy, communication, busy time)
        must advance with the *same sequential float additions* the
        stepwise loop performs — float addition does not associate, and
        the reports must match bit for bit.  ``np.cumsum`` accumulates
        left to right with exactly those semantics, so for long windows
        the whole chain is built as a ``(4, window+1)`` prefix-sum array
        — column 0 the current accumulators, the rest the per-step
        deltas — and ``searchsorted`` finds how many steps fit under the
        horizon (the clock column is non-decreasing; ``side="left"``
        mirrors the loop's strict ``now < horizon`` test).
        """
        if window < 8:  # The array setup only pays off past a few steps.
            report = self._report
            leapt = 0
            while leapt < window and self._now < horizon:
                self._now += duration
                report.energy_j += energy
                report.comm_seconds += comm
                report.busy_seconds += duration
                leapt += 1
            return leapt
        report = self._report
        series = np.empty((4, window + 1))
        series[:, 0] = (self._now, report.energy_j, report.comm_seconds,
                        report.busy_seconds)
        series[0, 1:] = duration
        series[1, 1:] = energy
        series[2, 1:] = comm
        series[3, 1:] = duration
        acc = np.cumsum(series, axis=1)
        leapt = int(np.searchsorted(acc[0, :window], horizon, side="left"))
        if leapt:
            self._now = float(acc[0, leapt])
            report.energy_j = float(acc[1, leapt])
            report.comm_seconds = float(acc[2, leapt])
            report.busy_seconds = float(acc[3, leapt])
        return leapt

    def _chunk_leap(self, plan: StepPlan, horizon: float) -> None:
        """Leap a lone mid-prompt prefill chunk's successor chunks.

        A long prompt prefilling alone produces a run of steps that are
        the same plan with ``past`` advanced by ``chunk_tokens`` — no
        admission, eviction, or decode event between them (the chunk
        consumes the whole step budget, so the scheduler's admission
        loop never runs; :meth:`PagedScheduler.chunk_leap_window` checks
        the rest).  Unlike a decode leap the cost *changes* every step
        (``past`` grows), so each leapt step is priced individually
        through the shared step cache — identical get/put traffic to
        the stepwise path — while planning and per-chunk block
        allocation collapse into one bulk commit mirroring
        :meth:`PagedScheduler.commit_leap`'s exact utilization-series
        reconstruction.
        """
        if not self.leap or self.seq_len_bucket == 1:
            return
        if plan.prefill or plan.decode or plan.swap_seconds or \
                len(plan.chunks) != 1:
            return
        task = plan.chunks[0]
        if task.finishes:
            return
        windower = getattr(self.scheduler, "chunk_leap_window", None)
        if windower is None:
            return
        window = windower(task)
        if window <= 0:
            return
        report = self._report
        state = task.state
        past0 = state.prefilled  # Already advanced past the anchor chunk.
        chunk = task.new
        b = self.seq_len_bucket
        leapt = 0
        while leapt < window and self._now < horizon:
            past = past0 + leapt * chunk
            key = ((), (), (((-(-past // b) * b, chunk, False), 1),))
            cost = self._step_cache.get(key)
            if cost is not None:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
                cost = self._surface.price_step(*key)
                self._step_cache.put(key, cost)
            duration = cost.step_seconds
            self._now += duration
            report.energy_j += cost.dynamic_energy_j
            report.comm_seconds += cost.comm_seconds
            report.busy_seconds += duration
            leapt += 1
        if leapt == 0:
            return
        report.kv_utilization.extend(
            self.scheduler.commit_chunk_leap(task, leapt))
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   self.scheduler.reserved_bytes)
        report.steps += leapt
        report.leap_steps += leapt

    def finish(self) -> ServingReport:
        """Close the session: stamp the makespan, fold scheduler stats."""
        report = self._active_report()
        report.makespan_s = self._now
        report.step_cache_hits = self._cache_hits
        report.step_cache_misses = self._cache_misses
        for key, value in self.scheduler.runtime_stats().items():
            if not hasattr(report, key):
                # A typo'd stats key must fail loudly, not create a
                # ghost attribute while the real metric stays 0.
                raise ConfigError(
                    f"scheduler {self.scheduler.name} reported unknown "
                    f"stat {key!r}; ServingReport has no such field")
            setattr(report, key, value)
        self._report = None
        self._resume = None
        return report

    # -- event loop -----------------------------------------------------
    def run(self, trace: list[Request]) -> ServingReport:
        """Serve a trace to completion and return the aggregate report."""
        if not trace:
            raise ConfigError("empty trace")
        pending = sorted(trace, key=attrgetter("arrival_s", "req_id"))
        # Fail before simulating anything, not mid-run at enqueue.
        if len({r.req_id for r in pending}) != len(pending):
            raise ConfigError("trace has duplicate req_ids; records and "
                              "KV block tables are keyed by req_id")
        error = self.scheduler.trace_error(pending)
        if error:
            raise ConfigError(f"unservable trace: {error}")
        self.start(offered_rps=offered_load_rps(trace))
        arrivals = np.fromiter((r.arrival_s for r in pending),
                               dtype=np.float64, count=len(pending))
        idx, n = 0, len(pending)
        while idx < n or self.scheduler.has_work():
            if idx < n and arrivals[idx] <= self._now:
                # Ingest every request that has arrived by the clock in
                # one slice (arrivals is sorted).
                upto = int(np.searchsorted(arrivals, self._now,
                                           side="right"))
                self.scheduler.enqueue_many(pending[idx:upto])
                idx = upto
            # The next un-ingested arrival bounds how far a committed
            # pure-decode step may leap (a leapt step must start
            # strictly before it, exactly as this loop would step) —
            # unless the scheduler is saturated, in which case the
            # arrival could only queue up and the leap sails through it
            # (:meth:`Scheduler.arrivals_inert`); the queue refills in
            # bulk at the next planned step.  Overloaded traces spend
            # most of their life saturated, so this collapses the
            # planned-step count from one-per-arrival to
            # one-per-completion-or-bucket-crossing.
            if idx < n and not self.scheduler.arrivals_inert():
                horizon = float(arrivals[idx])
            else:
                horizon = math.inf
            if self.step(horizon=horizon):
                continue
            if idx >= n:
                # Nothing runnable and nothing left to arrive: a
                # scheduler bug, not a state the loop can leave.
                raise ConfigError(
                    f"scheduler {self.scheduler.name} stalled with "
                    f"work queued but nothing planned")
            # Idle: jump to the next arrival.
            self.advance_to(float(arrivals[idx]))
        return self.finish()


def simulate_trace(design, config: ModelConfig, trace: list[Request],
                   policy: str = "continuous", max_batch: int = 16,
                   kv_capacity_bytes: float | None = None,
                   kvq_bits: int = 4, seq_len_bucket: int = 1,
                   scheduler_kwargs: dict | None = None,
                   **engine_kwargs) -> ServingReport:
    """One-call serving run: build scheduler + engine, serve the trace.

    ``simulate_trace(make_design("mugi", 256), LLAMA2_70B_GQA, trace)``

    ``scheduler_kwargs`` reach the scheduler constructor — e.g.
    ``policy="paged", scheduler_kwargs={"block_size": 32,
    "preemption": "swap"}``.
    """
    scheduler = make_scheduler(policy, config, max_batch=max_batch,
                               kv_capacity_bytes=kv_capacity_bytes,
                               kvq_bits=kvq_bits,
                               **(scheduler_kwargs or {}))
    engine = ServingEngine(design, config, scheduler, kvq_bits=kvq_bits,
                           seq_len_bucket=seq_len_bucket, **engine_kwargs)
    return engine.run(trace)
