"""Discrete-event continuous-batching serving engine.

The engine advances a clock step by step.  Each step it

1. asks the scheduler for the step's active set (new admissions to
   prefill + running sequences to decode; the paged schedulers of
   :mod:`repro.serve.policy` hand back budgeted prefill *chunks* and
   may charge host-link swap time for preempted KV);
2. prices that *ragged* active set as one fused step — the graph
   :func:`repro.llm.workload.build_serving_step_ops` describes:
   projections and FFN GEMMs shared by every active token so model
   weights stream once per step, attention per context length — on any
   Table 2 design, NoC system, or tensor/pipeline-sharded deployment
   (:class:`repro.parallel.ShardedSystem`), through the per-design cost
   surface (equivalent to :func:`repro.arch.simulate_workload` over the
   op list, without rebuilding it);
3. advances the clock by the step's roofline time — for sharded
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
quiescent — pure decode, and no arrival before the caller-provided
horizon — :meth:`step` leaps the following K steps analytically:
every leapt step repeats the committed plan, and its cost is re-applied
with the exact same sequential float arithmetic the stepwise loop would
use.  The plan changes only when a request is admitted or completes.  A
``seq_len_bucket`` crossing inside the window changes only the step's
cost: the step at which a decoder enters a new bucket opens a
*segment*, priced through the shared cache exactly like the replanned
step it replaces.  The window runs up to and including the earliest
completion: the completing step is priced the same way, and its
records and release land inside the leap (a step that would leave the
engine without work stays planned, in its cluster's clock order).
After a release, or after a step that admitted, the scheduler may hand
over the plan its next ``plan_step`` would build
(:meth:`repro.serve.Scheduler.successor_plan`), and the next call
leaps from it without replanning.  KV/block growth lands in bulk
(:meth:`repro.serve.Scheduler.commit_leap` /
:meth:`repro.serve.BlockManager.extend_bulk`), and the per-step
KV-utilization series is reconstructed exactly, so a leaping run's
:class:`~repro.serve.ServingReport` is bit-identical to step-by-step
execution.  The scheduler's four leap hooks are these two,
:meth:`~repro.serve.Scheduler.leap_window` and
:meth:`~repro.serve.Scheduler.arrivals_inert`.  Leaping needs
``seq_len_bucket > 1`` (exact mode changes every step's signature) and
falls back to stepwise execution whenever a chunked prefill (even a
lone one), swap or admission is in flight.

The engine owns no event loop: :class:`repro.serve.ServingCluster`
drives its :meth:`~ServingEngine.start` / ``submit`` / ``step`` /
``advance_to`` / ``finish`` primitives, interleaving replicas against
one arrival stream, and a single engine is a one-replica cluster
(:func:`repro.serve.simulate_trace`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, groupby, repeat
from operator import add, sub
from typing import NamedTuple

from ..arch.technology import TECH_45NM
from ..errors import ConfigError
from ..llm.config import ModelConfig
from .costs import StepCost, step_cost_store
from .metrics import RequestRecord, ServingReport
from .scheduler import Scheduler, StepPlan
from .trace import Request


class Resume(NamedTuple):
    """A leap the next :meth:`ServingEngine.step` call may pick up.

    Either the rest of a window the horizon cut (``window`` steps left,
    the first ``run`` of them at ``cost``, the current segment's
    :class:`~repro.serve.costs.StepCost`; ``run`` 0 means the next step
    opens a segment; ``ends`` when the window's last step completes a
    sequence), or a scheduler's successor plan (``window`` 0: not yet
    bounded; ``cost`` None, as its first step opens a segment).  Either
    is valid only while nothing is submitted (``epoch``, the
    scheduler's :attr:`~repro.serve.Scheduler.mutations`) and the clock
    stays at ``clock``.
    """

    plan: StepPlan
    cost: StepCost | None
    window: int
    run: int
    ends: bool
    epoch: int
    clock: float


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
        Steps price its KV at the scheduler's own ``kvq_bits``, the
        width its admission reserves, with INT4 weight-only quantized
        weights and the vocabulary projection included.
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
                 seq_len_bucket: int = 1, leap: bool = True):
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
        self.seq_len_bucket = seq_len_bucket
        self.leap = leap
        self.tech = getattr(design, "tech", TECH_45NM)
        store = step_cost_store(design, config, woq_bits=4,
                                kvq_bits=scheduler.kvq_bits,
                                include_lm_head=True, tech=self.tech)
        #: Shared across every engine on this (design, config, bits)
        #: combination — cluster replicas price each signature once.
        self._step_cache = store.cache
        self._surface = store.surface
        self._cache_hits = 0
        self._cache_misses = 0
        self._report: ServingReport | None = None
        self._now = 0.0
        #: Pending :class:`Resume`: the rest of a pure-decode leap the
        #: horizon cut, or the scheduler's successor plan after a
        #: release or an admission (see :meth:`step` and :meth:`_leap`).
        self._resume: Resume | None = None

    # -- step lowering --------------------------------------------------
    def _signature(self, plan: StepPlan) -> tuple:
        """Cost-equivalence key of a step's active set.

        The decode part is the *sorted multiset* of bucketed context
        lengths (equivalent to a histogram, cheaper to build — this
        runs every planned step); the cost surface groups it on cache
        misses only.  The ceil-to-bucket rounding ``-(-x // b) * b`` is
        inlined here and mirrored by :meth:`_leap`'s crossing checks and
        segment signatures — change them together.
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
        # head.  The histogram counts runs of the sorted keys.
        if not plan.chunks:
            return prefill, decode, ()
        keys = sorted([(-(-t.past // b) * b if t.past else 0, t.new,
                        t.finishes) for t in plan.chunks])
        return prefill, decode, tuple([(key, len(list(run)))
                                       for key, run in groupby(keys)])

    def _price(self, key: tuple) -> StepCost:
        """The cost of a step with signature ``key`` (see
        :meth:`_signature`), through the shared step cache: a planned
        step and a decode leap's segment start or completing step probe
        it the same way.

        A miss prices through
        :meth:`repro.llm.StepCostSurface.price_step` and keeps the
        three floats the engine reads of its result as a
        :class:`~repro.serve.costs.StepCost`, so the cache holds no
        :class:`~repro.arch.SimulationResult`.
        """
        cost = self._step_cache.get(key)
        if cost is not None:
            self._cache_hits += 1
            return cost
        self._cache_misses += 1
        result = self._surface.price_step(*key)
        cost = StepCost(result.step_seconds, result.dynamic_energy_j,
                        result.comm_seconds)
        if self.seq_len_bucket > 1:
            # In exact mode nearly every step's signature is unique
            # (contexts grow each step), so storing would only churn
            # the LRU; the surface's component tables still carry the
            # speedup.
            self._step_cache.put(key, cost)
        return cost

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

    def start(self) -> ServingReport:
        """Open a serving session at clock 0 and return its live report.

        The driver (the cluster's event loop) calls this once, then
        interleaves :meth:`submit` / :meth:`step` / :meth:`advance_to`
        and closes with :meth:`finish`.
        """
        self._report = ServingReport(
            design=getattr(self.design, "name", type(self.design).__name__),
            scheduler=self.scheduler.name,
            kv_capacity_bytes=self.scheduler.kv_capacity_bytes)
        self._now = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._resume = None
        return self._report

    def submit(self, request: Request) -> None:
        """Hand one request to the scheduler (external-clock ingest)."""
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
        committed pure-decode step may *leap* (:meth:`_leap`): the
        engine repeats the plan analytically for every following step
        that starts before the horizon, up to and including the first
        step at which a sequence completes (unless that step would
        leave no work, or the scheduler's own state bounds the window
        first, :meth:`Scheduler.leap_window`) — committing clock,
        energy, KV growth, the utilization series, records and the
        completion cohort's release exactly as the stepwise loop
        would.  A ``seq_len_bucket`` crossing and the completing step
        are priced as the replanned steps would be and count as planned
        steps.  Without a horizon (the default) every call commits
        exactly one step.

        Two kinds of :class:`Resume` let a call skip ``plan_step``:

        * a leap the previous call cut at its horizon leaves the plan
          provably valid for the window's remaining steps (no
          completion or scheduler event occurs before its last step,
          and admission stays blocked — nothing arrived, or the resume
          is dropped);
        * after a release, or after a step that admitted, the
          scheduler's :meth:`Scheduler.successor_plan` is the plan the
          next ``plan_step`` would build while nothing is submitted.

        When nothing was submitted in between
        (:attr:`Scheduler.mutations` unchanged) and the clock did not
        move, this call leaps from the resume, under its own horizon,
        instead of replanning: a saturated engine plans about one step
        per admission.  Every report field stays bit-identical to
        replanning, the diagnostic ``steps`` / ``leap_steps`` /
        step-cache counters included (in a cluster, the cache totals;
        see :meth:`_leap`): the elided plan would have been identical,
        its first step is priced like the planned one, and the
        accumulators advance with the same sequential additions.
        """
        resume = self._resume
        if resume is not None:
            self._resume = None
            if horizon is not None and self._now < horizon and \
                    resume.epoch == self.scheduler.mutations and \
                    resume.clock == self._now and \
                    self._leap(resume.plan, resume.cost, horizon,
                               resume.window, resume.run, resume.ends):
                return True
        report = self._active_report()
        plan = self.scheduler.plan_step(self._now)
        if plan.batch == 0:
            return False
        prefill, decode, chunks = plan.prefill, plan.decode, plan.chunks
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   self.scheduler.reserved_bytes)
        report.kv_utilization.append(self.scheduler.kv_utilization())
        cost = self._price(self._signature(plan))
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
            self._release(plan, finishers)
        elif prefill or chunks or plan.swap_seconds:
            # A prompt still prefilling takes another chunk next step,
            # so no pure-decode successor plan exists.
            if not chunks or len(finished_chunks) == len(chunks):
                self._succeed(plan, [])
        elif horizon is not None:
            self._leap(plan, cost, horizon)
        return True

    def _release(self, plan: StepPlan, finishers: list) -> None:
        """Record and release a completion cohort, then keep the
        scheduler's successor plan.

        Records first (they only read state), then one cohort release —
        the record order and every release side effect match the
        interleaved per-state sequence.
        """
        now = self._now
        self._report.records.extend([
            RequestRecord(request=s.request, admitted_s=s.admitted_s,
                          first_token_s=s.first_token_s, finish_s=now)
            for s in finishers])
        self.scheduler.release_many(finishers)
        self._succeed(plan, finishers)

    def _succeed(self, plan: StepPlan, released: list) -> None:
        """Keep the plan the scheduler's next ``plan_step`` would build
        after ``plan`` (:meth:`Scheduler.successor_plan`), if it offers
        one, as a pending :class:`Resume` for the next call."""
        if not self.leap or self.seq_len_bucket == 1:
            return
        successor = self.scheduler.successor_plan(plan, released)
        if successor is not None:
            self._resume = Resume(successor, None, 0, 0, False,
                                  self.scheduler.mutations, self._now)

    def _leap(self, plan: StepPlan, cost: StepCost | None,
              horizon: float, window: int = 0, run: int = 0,
              ends: bool = False) -> bool:
        """Leap the pure-decode steps that follow the clock; return
        whether the call leapt (a successor plan may be refused).

        Every leapt step repeats the plan.  The window runs to the
        earliest completion, that step included unless it would leave
        the scheduler without work, and the scheduler shrinks it to its
        own next state event (:meth:`Scheduler.leap_window`).  A
        ``seq_len_bucket`` crossing changes only the cost: each step at
        which a decoder enters a new bucket opens a *segment*, priced
        through :meth:`_price` with the get, put and hit or miss the
        replanned step would make, and counted as a planned step; the
        other steps of a segment repeat its cost.  A segment is at least
        that one step long.  When the window keeps its completing step
        (``ends``), that step probes the cache as the replanned step
        would (its cost is its segment's, since its signature is), and
        once the window's KV growth is committed the stepwise completion
        scan, records and one :meth:`Scheduler.release_many` land
        through :meth:`_release`.
        (Cluster replicas share the cache, and a step priced inside a
        leap probes it when the leap is taken, possibly before another
        replica probes the same signature at an earlier simulated time:
        that replica then hits where it would have missed, and this one
        misses where it would have hit.  The cluster's totals are
        unchanged while the LRU cache evicts nothing.)

        Every accumulator advances with the same sequential float
        additions the stepwise loop performs (:meth:`_advance`, one call
        per segment), but the planning and per-token KV allocation work
        is skipped: KV growth and the utilization series land once per
        call, through the scheduler's closed forms.

        Without a ``window`` the window is bounded here: after a
        committed anchor step (``cost`` is its cost, and the first
        segment runs at it until the first crossing) or from a
        successor plan (``cost`` None: its first step opens a segment,
        priced like the anchor it replaces).  With a ``window``, this
        resumes a leap the previous call cut at its horizon: ``window``
        steps remain, the first ``run`` of them at ``cost`` (none: the
        next step opens a segment).  Safety chain (each point pins the
        elided replan to the leapt plan): the window bound guarantees no
        sequence completes before its last step; in a pure-decode window
        admission stays monotonically blocked for every scheduler
        (reservations and ``running`` are unchanged, a paged pool's
        available blocks only shrink, and blocked swap-ins stay
        blocked); the anchor plan's admission probe already moved the
        blocked head's cached prefix blocks to MRU, so eliding the
        repeat probes leaves the LRU order identical (no eviction can
        occur inside the window); and the paged window was sized so the
        whole leap's block demand fits the free list, so the remainder
        cannot preempt.  Splitting one window across calls lands on
        identical floats.
        """
        decode = plan.decode
        b = self.seq_len_bucket
        if not window:
            if not self.leap or b == 1:
                return False  # Exact mode (b == 1): every signature is new.
            # One pass: the steps up to the earliest completion, and,
            # after an anchor, before the earliest bucket crossing (the
            # first segment).  context_len was just incremented: the
            # anchor planned at context_len - 1, and leapt step j plans
            # at context_len + j - 1.
            window = math.inf
            run = b if cost is not None else 0
            prompts = 0
            for state in decode:
                request = state.request
                prompts += request.prompt_len
                left = request.output_len - state.generated
                if left < window:
                    window = left
                if run:
                    crossing = -(state.context_len - 1) % b
                    if crossing < run:
                        run = crossing
            # Each decoder owes its prompt and its ``left`` tokens, at
            # least ``window`` of them, and anything else queued or
            # running owes more: equality means every decoder completes
            # at the window's last step and nothing else remains.  That
            # step stays planned, so a step that leaves the scheduler
            # without work lands in the cluster's clock order — an
            # elastic fleet retires a draining replica right after it.
            ends = self.scheduler.outstanding_tokens != \
                window * len(decode) + prompts
            if not ends:
                window -= 1
            granted = self.scheduler.leap_window(plan, window)
            if granted <= 0:
                return False
            if granted < window:
                ends = False
            window = granted
        done = priced = 0  # Steps leapt, and priced steps among them.
        key, start = None, -1  # The last segment's signature and start.
        contexts = None  # The decoders' contexts when this call began.
        while True:
            take = run if run < window - done else window - done
            if take:
                leapt = self._advance(cost.step_seconds,  # No swap here.
                                      cost.dynamic_energy_j,
                                      cost.comm_seconds, take, horizon)
                done += leapt
                run -= leapt
                if leapt < take:
                    break  # Cut by the horizon inside a segment.
            if done == window or self._now >= horizon:
                break  # The window's end, or a cut at a segment start.
            # Step done + 1 opens a segment (a crossing, or a successor's
            # first step): it plans at context_len + done, and its
            # segment lasts until a decoder crosses again.
            if contexts is None:
                contexts = [s.context_len for s in decode]
            buckets = [-(-(c + done) // b) * b for c in contexts]
            key = ((), tuple(sorted(buckets)), ())
            cost = self._price(key)
            run = 1 + min(map(sub, buckets, contexts)) - done
            start = done
            priced += 1
        if ends and done == window and start != done - 1:
            # The completing step ran inside a segment, at its cost; it
            # still probes the cache as the replanned step did.
            if key is None:  # Resumed inside that segment.
                key = ((), tuple(sorted([-(-(s.context_len + done - 1)
                                           // b) * b for s in decode])), ())
            self._price(key)
            priced += 1
        if done < window:
            # Cut by the horizon, not by the plan's validity: the
            # remaining steps stay leapable once the caller's next
            # horizon opens, provided nothing is submitted meanwhile.
            self._resume = Resume(plan, cost, window - done, run, ends,
                                  self.scheduler.mutations, self._now)
        if not done:
            return False
        report = self._report
        scheduler = self.scheduler
        report.kv_utilization.extend(scheduler.commit_leap(plan, done))
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   scheduler.reserved_bytes)
        report.steps += done
        report.leap_steps += done - priced
        for state in decode:
            state.generated += done
            state.context_len += done
        scheduler.note_generated(done * len(decode))
        if done == window and ends:
            self._release(plan, [s for s in decode
                                 if s.generated >= s.request.output_len])
        return True

    def _advance(self, duration: float, energy: float, comm: float,
                 window: int, horizon: float) -> int:
        """Commit up to ``window`` repeats of one step's cost; return how
        many started strictly before ``horizon``.

        The four running sums (clock, energy, communication, busy time)
        must advance with the *same sequential float additions* the
        stepwise loop performs — float addition does not associate, and
        the reports must match bit for bit.  ``accumulate`` builds the
        clock chain left to right (entry ``k`` is the start of leapt
        step ``k``), ``bisect_left`` counts the steps that start
        strictly before the horizon (the chain never decreases, and
        ``left`` mirrors the loop's strict ``now < horizon`` test), and
        ``reduce(add, ...)`` folds the other three sums over exactly
        those steps, each one addition at a time.
        """
        clocks = list(accumulate(repeat(duration, window),
                                 initial=self._now))
        leapt = bisect_left(clocks, horizon, 0, window)
        if leapt:
            report = self._report
            self._now = clocks[leapt]
            report.energy_j = reduce(add, repeat(energy, leapt),
                                     report.energy_j)
            report.comm_seconds = reduce(add, repeat(comm, leapt),
                                         report.comm_seconds)
            report.busy_seconds = reduce(add, repeat(duration, leapt),
                                         report.busy_seconds)
        return leapt

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
