"""Decode-leaping fast path: bit-identical to stepwise execution.

The engine's leap (:meth:`repro.serve.ServingEngine.step` with a
horizon) commits K pure-decode steps analytically; the contract is that
a leaping run's :class:`repro.serve.ServingReport` — every record,
every per-step series, every accumulator — is *bit-identical* to
stepwise execution (``leap=False``), across scheduler families,
designs, and cluster modes.  These tests diff whole reports, field by
field, with exact float equality.

Also covered here: the shared, LRU-bounded step-cost cache
(:mod:`repro.serve.costs`), the cost surface vs the op-list lowering,
``BlockManager.extend_bulk``, and the schedulers' incremental
``outstanding_tokens`` counters.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design, simulate_workload
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.llm.workload import (
    StepCostSurface,
    build_paged_step_ops,
    build_serving_step_ops,
)
from repro.parallel import ParallelConfig, ShardedSystem
from repro.serve import (
    BlockManager,
    LengthSpec,
    PrefixSpec,
    Request,
    ServingCluster,
    ServingEngine,
    TenantSLO,
    make_cluster,
    make_scheduler,
    poisson_trace,
    simulate_trace,
)
from repro.serve.costs import StepCostCache, step_cost_store

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)

#: Counters that legitimately differ between the fast and slow paths:
#: a leap performs one cache lookup per *planned* step, and only the
#: fast path leaps at all.  Everything else must match bitwise.
DIAGNOSTIC_FIELDS = {"step_cache_hits", "step_cache_misses",
                     "leap_steps"}

RECORD_FIELDS = ("request", "admitted_s", "first_token_s", "finish_s")


def assert_reports_identical(fast, slow):
    """Field-by-field bitwise diff of two ServingReports."""
    for f in fields(slow):
        if f.name in DIAGNOSTIC_FIELDS:
            continue
        a, b = getattr(fast, f.name), getattr(slow, f.name)
        if f.name == "records":
            assert len(a) == len(b), "record counts differ"
            for ra, rb in zip(a, b):
                for name in RECORD_FIELDS:
                    assert getattr(ra, name) == getattr(rb, name), \
                        (name, ra, rb)
        else:
            assert a == b, (f.name, a, b)
    assert fast.leap_steps > 0 or slow.steps == fast.steps


def shared_prefix_trace(n_requests, seed, rate_rps=20.0):
    return poisson_trace(
        n_requests=n_requests, rate_rps=rate_rps,
        prompt=LengthSpec("uniform", low=4, high=80),
        output=LengthSpec("uniform", low=2, high=120),
        prefix=PrefixSpec(share=0.5, n_groups=3,
                          length=LengthSpec("fixed", value=48),
                          dup_share=0.3),
        priorities=(0, 0, 1), seed=seed)


PAGED_CAPACITY = TINY_GQA.kv_cache_bytes(seq_len=200, batch=1, bits=4) * 3
PAGED_KWARGS = {"block_size": 16, "chunk_tokens": 32}
#: Policies that read tenant terms: they run on a two-tenant trace.
TENANT_POLICIES = ("paged-fair-share", "paged-tenant-priority")
TENANT_SLOS = (TenantSLO(tenant=0, ttft_slo_s=2.0, weight=3.0, priority=1),
               TenantSLO(tenant=1, tpot_slo_s=0.05, weight=1.0))


def policy_trace(policy, n_requests, seed):
    """The shared-prefix trace, split across two tenants for the
    tenant-aware policies."""
    trace = shared_prefix_trace(n_requests, seed)
    if policy in TENANT_POLICIES:
        trace = [replace(r, tenant=r.req_id % 2) for r in trace]
    return trace


def run_trace(policy, leap, trace, design=None, bucket=16, **kwargs):
    paged = policy.startswith("paged")
    if paged:
        kwargs.setdefault("kv_capacity_bytes", PAGED_CAPACITY)
        scheduler_kwargs = dict(PAGED_KWARGS)
        if policy in TENANT_POLICIES:
            scheduler_kwargs["slos"] = TENANT_SLOS
        kwargs.setdefault("scheduler_kwargs", scheduler_kwargs)
    return simulate_trace(
        design if design is not None else make_design("mugi", 64),
        TINY_GQA, trace, policy=policy, max_batch=6,
        seq_len_bucket=bucket, leap=leap, **kwargs)


class TestLeapBitIdentity:
    @pytest.mark.parametrize("policy", ["continuous", "static", "paged",
                                        "paged-priority",
                                        "paged-preemptive",
                                        "paged-fair-share",
                                        "paged-tenant-priority"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_single_engine(self, policy, seed):
        trace = policy_trace(policy, 40, seed)
        fast = run_trace(policy, True, trace)
        slow = run_trace(policy, False, trace)
        assert fast.leap_steps > 0  # The fast path actually engaged.
        assert_reports_identical(fast, slow)

    @pytest.mark.parametrize("design_key", ["sa8", "tensor", "tp2"])
    def test_golden_designs(self, design_key):
        designs = {
            "sa8": lambda: make_design("sa", 8),
            "tensor": lambda: make_design("tensor", None),
            "tp2": lambda: ShardedSystem(make_design("mugi", 64),
                                         TINY_GQA, ParallelConfig(tp=2)),
        }
        trace = shared_prefix_trace(30, 5)
        fast = run_trace("continuous", True, trace,
                         design=designs[design_key]())
        slow = run_trace("continuous", False, trace,
                         design=designs[design_key]())
        assert fast.leap_steps > 0
        assert_reports_identical(fast, slow)

    def test_swap_preemption(self):
        trace = shared_prefix_trace(40, 11)
        kwargs = {"kv_capacity_bytes": PAGED_CAPACITY,
                  "scheduler_kwargs": dict(PAGED_KWARGS,
                                           preemption="swap")}
        fast = run_trace("paged", True, trace, **kwargs)
        slow = run_trace("paged", False, trace, **kwargs)
        assert_reports_identical(fast, slow)

    def test_exact_mode_never_leaps(self):
        trace = shared_prefix_trace(12, 2)
        report = run_trace("continuous", True, trace, bucket=1)
        assert report.leap_steps == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           policy=st.sampled_from(["continuous", "static", "paged",
                                   "paged-preemptive", "paged-fair-share",
                                   "paged-tenant-priority"]),
           bucket=st.sampled_from([4, 16, 64]),
           n_requests=st.integers(5, 25))
    def test_property_random_traces(self, seed, policy, bucket,
                                    n_requests):
        trace = policy_trace(policy, n_requests, seed)
        fast = run_trace(policy, True, trace, bucket=bucket)
        slow = run_trace(policy, False, trace, bucket=bucket)
        assert_reports_identical(fast, slow)

    def test_paged_invariants_after_leaping(self):
        trace = shared_prefix_trace(40, 7)
        scheduler = make_scheduler("paged", TINY_GQA, max_batch=6,
                                   kv_capacity_bytes=PAGED_CAPACITY,
                                   **PAGED_KWARGS)
        engine = ServingEngine(make_design("mugi", 64), TINY_GQA,
                               scheduler, seq_len_bucket=16)
        report = ServingCluster([engine]).run(trace).replicas[0]
        assert report.leap_steps > 0
        scheduler.block_manager.check_invariants()


class TestClusterLeapBitIdentity:
    def _cluster_reports(self, mode, router="least-outstanding",
                         policy="paged", n_replicas=3, seed=4):
        trace = shared_prefix_trace(45, seed, rate_rps=30.0)
        reports = []
        for leap in (True, False):
            cluster = make_cluster(
                make_design("mugi", 64), TINY_GQA, n_replicas,
                policy=policy, router=router, mode=mode, max_batch=4,
                kv_capacity_bytes=PAGED_CAPACITY,
                scheduler_kwargs=PAGED_KWARGS, seq_len_bucket=16,
                leap=leap)
            reports.append(cluster.run(trace))
        return reports

    @pytest.mark.parametrize("router", ["round-robin",
                                        "least-outstanding",
                                        "prefix-affinity"])
    def test_unified(self, router):
        fast, slow = self._cluster_reports("unified", router=router)
        assert fast.leap_steps > 0
        assert fast.records == slow.records
        assert fast.makespan_s == slow.makespan_s
        assert fast.routed == slow.routed
        for fr, sr in zip(fast.replicas, slow.replicas):
            assert_reports_identical(fr, sr)

    def test_disaggregated(self):
        fast, slow = self._cluster_reports("disaggregated")
        assert fast.records == slow.records
        assert fast.makespan_s == slow.makespan_s
        assert fast.migrations == slow.migrations
        assert fast.kv_transfer_seconds == slow.kv_transfer_seconds
        for fr, sr in zip(fast.replicas, slow.replicas):
            assert_reports_identical(fr, sr)


def count_plans(scheduler) -> list:
    """Count ``scheduler``'s ``plan_step`` calls in a one-item list."""
    calls = [0]
    plan_step = scheduler.plan_step

    def counted(now):
        calls[0] += 1
        return plan_step(now)

    scheduler.plan_step = counted
    return calls


def diagnostics(report) -> tuple:
    return (report.steps, report.leap_steps, report.step_cache_hits,
            report.step_cache_misses)


class ReplanningEngine(ServingEngine):
    """Reference engine that replans where the engine did before it
    committed completing steps inside leaps and kept successor plans:
    its decode leaps stop one step before the earliest completion, and
    it keeps no successor plan, so the completing step, the anchor after
    an admission and the step after a release are each planned afresh.

    Bucket crossings open segments, as they did then.  Replanning them
    too would not be that engine: a crossing replan asks
    :meth:`Scheduler.leap_window` again, after the arrivals a saturated
    lone replica leapt past have been queued, and a paged pool then
    bounds the window by its free list alone, where the window granted
    at the anchor also counted evictable cached blocks (the step it
    leapt is then planned, one more probe)."""

    def _leap(self, plan, cost, horizon, window=0, run=0, ends=False):
        if not window:
            b = self.seq_len_bucket
            if not self.leap or b == 1:
                return False
            bound = min(s.request.output_len - s.generated - 1
                        for s in plan.decode)
            if bound <= 0:
                return False
            window = self.scheduler.leap_window(plan, bound)
            if window <= 0:
                return False
            run = min(-(s.context_len - 1) % b for s in plan.decode)
        return super()._leap(plan, cost, horizon, window, run, False)

    def _succeed(self, plan, released):
        """Keep no successor: replan after every admission and release."""


#: The seven registered schedulers (a helper class that sets ``name``
#: would join ``SCHEDULERS``, so the list is spelled out).
POLICIES = ("continuous", "static", "paged", "paged-priority",
            "paged-preemptive", "paged-fair-share", "paged-tenant-priority")


def scheduler_kwargs(policy) -> dict:
    kwargs = dict(PAGED_KWARGS, kv_capacity_bytes=PAGED_CAPACITY) \
        if policy.startswith("paged") else {}
    if policy in TENANT_POLICIES:
        kwargs["slos"] = TENANT_SLOS
    return kwargs


class TestLeapSegments:
    """A decode leap replans only where the plan can change.  A step at
    which a decoder enters a new cost bucket opens a segment, the step
    at which a sequence completes is committed inside the leap, and
    after an admission or a release the scheduler's successor plan
    stands in for the next ``plan_step``; each such step is priced like
    the replanned step it replaces.  The leap ≡ stepwise diffs above
    skip the diagnostic counters, so these runs pin them: ``steps``,
    ``leap_steps`` and the step-cache hits and misses at the values of
    an engine that plans the completing steps, the anchors after
    admissions and the steps after releases
    (:class:`ReplanningEngine`), and the ``plan_step`` calls at the
    lower count left without them."""

    @staticmethod
    def _long_decodes(leap=True, engine_class=ServingEngine):
        """An engine holding two long decoders that cross buckets at
        different steps (contexts 31 and 46 after prefill, bucket 32)."""
        scheduler = make_scheduler("continuous", TINY_GQA, max_batch=4)
        engine = engine_class(make_design("mugi", 64), TINY_GQA,
                              scheduler, seq_len_bucket=32, leap=leap)
        engine.start()
        engine.submit(Request(req_id=0, arrival_s=0.0, prompt_len=30,
                              output_len=200))
        engine.submit(Request(req_id=1, arrival_s=0.0, prompt_len=45,
                              output_len=150))
        return engine, count_plans(scheduler)

    @staticmethod
    def _drain(engine, horizon=None):
        while engine.has_work():
            assert engine.step(horizon)
        return engine.finish()

    def _step_ends(self) -> list:
        """End clocks of the stepwise run's steps: step 1 prefills, step
        2 is the first decode step, and decoder 0 enters bucket 64 at
        step 4, whose segment lasts to step 20."""
        engine, _ = self._long_decodes(leap=False)
        ends = []
        while engine.has_work():
            engine.step()
            ends.append(engine.now)
        return ends

    @pytest.mark.parametrize("cut, run", [(2, 0), (4, 15)],
                             ids=["segment-start", "mid-segment"])
    def test_a_cut_window_resumes_like_an_uncut_one(self, cut, run):
        """A horizon cut at a segment start leaves the resume to price
        it; one inside a segment resumes at that segment's cost.  Either
        way the split window replans nothing and counts every step,
        probe and hit as the uncut window does.  The window is the
        admission's successor plan, leapt from step 2 up to step 150,
        where decoder 1 completes."""
        ends = self._step_ends()
        whole, whole_plans = self._long_decodes()
        uncut = self._drain(whole, math.inf)
        engine, plans = self._long_decodes()
        engine.step()
        assert engine._resume.window == 0  # A successor, not yet leapt.
        engine.step(horizon=ends[cut])  # Step cut + 2 starts at it.
        assert engine.now == ends[cut]
        resume = engine._resume
        assert (resume.window, resume.run, resume.ends) == \
            (149 - cut, run, True)
        report = self._drain(engine, math.inf)
        # The admission, and the completion that empties the engine.
        assert plans[0] == whole_plans[0] == 2  # The reference: 5.
        assert_reports_identical(report, uncut)
        assert diagnostics(report) == diagnostics(uncut) == \
            (200, 183, 2, 15)
        slow, _ = self._long_decodes(leap=False)
        assert_reports_identical(report, self._drain(slow))

    def test_a_submission_after_a_cut_drops_the_resume(self):
        ends = self._step_ends()
        engine, plans = self._long_decodes()
        engine.step()
        engine.step(horizon=ends[2])
        assert engine._resume.window
        late = Request(req_id=2, arrival_s=ends[2], prompt_len=20,
                       output_len=10)
        engine.submit(late)
        planned = plans[0]
        assert engine.step(math.inf)
        assert plans[0] == planned + 1  # Replanned: the late one prefills.
        assert engine.scheduler.running[-1].request is late
        report = self._drain(engine, math.inf)
        assert diagnostics(report) == (200, 180, 3, 17)
        assert plans[0] == 3  # The reference: 9.
        slow, _ = self._long_decodes(leap=False)
        for _ in range(3):
            slow.step()
        slow.submit(late)
        assert_reports_identical(report, self._drain(slow))

    @pytest.mark.parametrize("move", ["submit", "advance_to"])
    def test_a_submission_or_a_clock_move_drops_a_successor(self, move):
        """The admission's successor plan stands only while nothing is
        submitted and the clock stays put: either event makes the next
        step replan, and the run still matches stepwise execution."""
        engine, plans = self._long_decodes()
        slow, _ = self._long_decodes(leap=False)
        for run in (engine, slow):
            run.step()
        assert engine._resume.window == 0 and plans[0] == 1
        late = Request(req_id=2, arrival_s=engine.now, prompt_len=20,
                       output_len=10)
        idle_to = engine.now + 0.5
        for run in (engine, slow):
            if move == "submit":
                run.submit(late)
            else:
                run.advance_to(idle_to)
        assert engine.step(math.inf)
        assert plans[0] == 2  # Replanned, not leapt from the successor.
        if move == "submit":
            assert engine.scheduler.running[-1].request is late
        report = self._drain(engine, math.inf)
        assert_reports_identical(report, self._drain(slow))
        reference, _ = self._long_decodes(engine_class=ReplanningEngine)
        reference.step()
        if move == "submit":
            reference.submit(late)
        else:
            reference.advance_to(idle_to)
        assert diagnostics(report) == \
            diagnostics(self._drain(reference, math.inf))

    def test_a_saturated_engine_plans_once_per_completion_cohort(self):
        """With the batch full and requests queued, a completion cohort
        is committed inside the leap that reaches it, its release leaves
        the queue non-empty, and only the admitting step that follows is
        planned; the admission's successor plan leaps to the next cohort.
        Once the queue is empty a release plans nothing either, except
        the last completion: a step that leaves no work stays planned."""
        trace = poisson_trace(n_requests=60, rate_rps=1e6,
                              prompt=LengthSpec("uniform", low=4, high=80),
                              output=LengthSpec("uniform", low=20,
                                                high=200), seed=8)

        def serve(engine_class, leap=True):
            scheduler = make_scheduler("continuous", TINY_GQA, max_batch=6)
            engine = engine_class(make_design("mugi", 64), TINY_GQA,
                                  scheduler, seq_len_bucket=32, leap=leap)
            plans = count_plans(scheduler)
            queued = []  # Queue depth after each release.
            release_many = scheduler.release_many

            def release(states):
                release_many(states)
                queued.append(len(scheduler.queue))

            scheduler.release_many = release
            engine.start()
            for request in trace:
                engine.submit(request)
            return self._drain(engine, math.inf), plans[0], queued

        report, plans, queued = serve(ServingEngine)
        cohorts = sum(1 for depth in queued if depth)
        assert cohorts > 20 and len(queued) > cohorts
        assert plans == 1 + cohorts + 1
        slow, _, _ = serve(ServingEngine, leap=False)
        assert_reports_identical(report, slow)
        reference, reference_plans, _ = serve(ReplanningEngine)
        assert diagnostics(report) == diagnostics(reference)
        assert reference_plans > 3 * cohorts

    def test_a_completing_step_after_inert_arrivals(self):
        """A lone saturated replica leaps through arrivals while its full
        batch keeps them inert, and commits a completing step that starts
        after some of them: queued only after the leap, they drop the
        successor plan, so the next step replans and admits them like
        stepwise execution does."""
        trace = poisson_trace(n_requests=80, rate_rps=3.0,
                              prompt=LengthSpec("uniform", low=4, high=80),
                              output=LengthSpec("uniform", low=100,
                                                high=300), seed=2)
        times = sorted(r.arrival_s for r in trace)
        scheduler = make_scheduler("continuous", TINY_GQA, max_batch=4)
        engine = ServingEngine(make_design("mugi", 64), TINY_GQA,
                               scheduler, seq_len_bucket=32)
        last = [0.0, 0.0]  # Start and end of the latest leapt run.
        late = []  # Completing steps that started after unqueued arrivals.
        advance, release = engine._advance, engine._release

        def spied_advance(*args):
            start = engine._now
            leapt = advance(*args)
            last[:] = [start, engine._now]
            return leapt

        def spied_release(plan, finishers):
            if last[1] == engine._now:  # Committed inside a leap.
                waiting = sum(1 for t in times if t <= last[0])
                if scheduler.mutations < waiting:
                    late.append(engine._now)
            release(plan, finishers)

        engine._advance, engine._release = spied_advance, spied_release
        report = ServingCluster([engine]).run(trace).replicas[0]
        assert late
        slow = simulate_trace(make_design("mugi", 64), TINY_GQA, trace,
                              policy="continuous", max_batch=4,
                              seq_len_bucket=32, leap=False)
        assert_reports_identical(report, slow)
        reference = ReplanningEngine(
            make_design("mugi", 64), TINY_GQA,
            make_scheduler("continuous", TINY_GQA, max_batch=4),
            seq_len_bucket=32)
        assert diagnostics(report) == diagnostics(
            ServingCluster([reference]).run(trace).replicas[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           policy=st.sampled_from(POLICIES),
           bucket=st.sampled_from([4, 16, 32]),
           replicas=st.sampled_from([1, 2]),
           n_requests=st.integers(5, 30))
    def test_property_matches_replanning(
            self, seed, policy, bucket, replicas, n_requests):
        """Against an engine that plans every completing step,
        post-admission anchor and post-release step: a single engine
        keeps every report field, counters included.  Replicas share one
        step cache, and a step priced inside a leap is priced when its
        leap is taken, which can precede another replica's probe of the
        same signature at an earlier simulated time: so in a cluster
        each replica keeps every other field, and the cluster keeps its
        hit and miss totals, but a hit may be credited to the other
        replica."""
        trace = policy_trace(policy, n_requests, seed)
        kwargs = scheduler_kwargs(policy)

        def run(engine_class):
            design = make_design("mugi", 64)
            engines = [engine_class(
                design, TINY_GQA,
                make_scheduler(policy, TINY_GQA, max_batch=6, **kwargs),
                seq_len_bucket=bucket) for _ in range(replicas)]
            plans = [count_plans(e.scheduler) for e in engines]
            report = ServingCluster(engines,
                                    router="least-outstanding").run(trace)
            return report, sum(calls[0] for calls in plans)

        (fast, fast_plans), (ref, ref_plans) = \
            run(ServingEngine), run(ReplanningEngine)
        assert fast.records == ref.records
        assert fast.makespan_s == ref.makespan_s
        for fr, rr in zip(fast.replicas, ref.replicas, strict=True):
            assert_reports_identical(fr, rr)
            assert (fr.steps, fr.leap_steps) == (rr.steps, rr.leap_steps)
        if replicas == 1:
            assert diagnostics(fast.replicas[0]) == \
                diagnostics(ref.replicas[0])
        assert (fast.step_cache_hits, fast.step_cache_misses) == \
            (ref.step_cache_hits, ref.step_cache_misses)
        assert fast_plans <= ref_plans

    def test_engine_counters_pinned(self):
        trace = poisson_trace(n_requests=40, rate_rps=8.0,
                              prompt=LengthSpec("uniform", low=4, high=80),
                              output=LengthSpec("uniform", low=100,
                                                high=400), seed=5)
        scheduler = make_scheduler("continuous", TINY_GQA, max_batch=6)
        engine = ServingEngine(make_design("mugi", 64), TINY_GQA,
                               scheduler, seq_len_bucket=32)
        plans = count_plans(scheduler)
        report = ServingCluster([engine]).run(trace).replicas[0]
        assert diagnostics(report) == (2485, 2076, 38, 371)
        assert plans[0] == 42
        reference = ReplanningEngine(
            make_design("mugi", 64), TINY_GQA,
            make_scheduler("continuous", TINY_GQA, max_batch=6),
            seq_len_bucket=32)
        reference_plans = count_plans(reference.scheduler)
        assert diagnostics(ServingCluster([reference]).run(trace)
                           .replicas[0]) == diagnostics(report)
        assert reference_plans[0] == 141
        assert_reports_identical(report, simulate_trace(
            make_design("mugi", 64), TINY_GQA, trace, policy="continuous",
            max_batch=6, seq_len_bucket=32, leap=False))

    def test_lone_long_prompt_counters_pinned(self):
        """A long prompt prefilling alone is planned chunk by chunk, like
        every other prefill step.  The paged serving model (4 layers),
        Mugi(256), chunk 256, block 16 and bucket 32 serve one
        2,048-token prompt with 8 outputs: eight chunks, the last of
        which emits the first token, then seven decode steps from its
        successor plan, whose first step opens a segment and whose last
        leaves no work, so it stays planned.  The eight chunks miss the
        step cache, as does the decode segment, and the completing step
        hits it."""
        from repro.analysis.experiments.paged_serving import SERVE_MODEL
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=2048,
                         output_len=8)]

        def serve(leap):
            scheduler = make_scheduler("paged", SERVE_MODEL, max_batch=8,
                                       block_size=16, chunk_tokens=256)
            engine = ServingEngine(make_design("mugi", 256), SERVE_MODEL,
                                   scheduler, seq_len_bucket=32, leap=leap)
            plans = count_plans(scheduler)
            return ServingCluster([engine]).run(trace).replicas[0], plans

        report, plans = serve(True)
        assert diagnostics(report) == (15, 5, 1, 9)
        assert plans[0] == 9
        slow, slow_plans = serve(False)
        assert_reports_identical(report, slow)
        assert slow.step_cache_misses == 9 and slow_plans[0] == 15

    def test_fair_share_cluster_counters_pinned(self):
        """Two paged fair-share replicas: each replica's leaps are cut by
        the other's arrivals, at segment starts and inside segments."""
        trace = poisson_trace(
            n_requests=50, rate_rps=6.0,
            prompt=LengthSpec("uniform", low=4, high=80),
            output=LengthSpec("uniform", low=60, high=300),
            prefix=PrefixSpec(share=0.5, n_groups=3,
                              length=LengthSpec("fixed", value=48),
                              dup_share=0.3), seed=9)
        trace = [replace(r, tenant=r.req_id % 2) for r in trace]

        def build(leap):
            return make_cluster(
                make_design("mugi", 64), TINY_GQA, 2,
                policy="paged-fair-share", router="least-outstanding",
                max_batch=8, seq_len_bucket=32, leap=leap,
                kv_capacity_bytes=TINY_GQA.kv_cache_bytes(
                    seq_len=1600, batch=1, bits=4),
                scheduler_kwargs={"block_size": 16, "chunk_tokens": 64,
                                  "slos": TENANT_SLOS})

        cluster = build(True)
        plans, cuts = [], []
        for rep in cluster.replicas:
            plans.append(count_plans(rep.engine.scheduler))
            engine, leap = rep.engine, rep.engine._leap

            def spied(*args, engine=engine, leap=leap):
                leapt = leap(*args)
                if engine._resume is not None and engine._resume.window:
                    cuts.append(engine._resume.run)  # A horizon cut.
                return leapt

            engine._leap = spied
        report = cluster.run(trace)
        assert 0 in cuts and any(run > 0 for run in cuts)
        assert [diagnostics(r) for r in report.replicas] == [
            (4050, 3807, 184, 59), (3401, 3183, 152, 66)]
        # The reference: 93 and 87.
        assert [calls[0] for calls in plans] == [41, 41]
        for fast, slow in zip(report.replicas,
                              build(False).run(trace).replicas):
            assert_reports_identical(fast, slow)


class TestStepCostSurface:
    """The surface prices signatures like the op-list lowering."""

    @pytest.mark.parametrize("signature", [
        ((), (64, 64, 64, 96), ()),
        ((32, 48), (64, 64, 64, 64), ()),
        ((), (128,), (((0, 16, True), 2), ((64, 16, False), 1))),
        ((8,), (), (((32, 7, True), 1),)),
    ])
    def test_matches_simulate_workload(self, signature):
        design = make_design("mugi", 64)
        surface = StepCostSurface(design, TINY_GQA)
        prefill, decode, chunks = signature
        fast = surface.price_step(prefill, decode, chunks)
        if chunks:
            pairs = [(p, n) for (p, n, _), c in chunks for _ in range(c)]
            fin = sum(c for (_, _, f), c in chunks if f)
            ops = build_paged_step_ops(
                TINY_GQA, decode_lens=list(decode),
                chunks=pairs + [(0, s) for s in prefill],
                n_finishing=fin + len(prefill))
        else:
            ops = build_serving_step_ops(TINY_GQA,
                                         decode_lens=list(decode),
                                         prefill_lens=list(prefill))
        slow = simulate_workload(design, ops,
                                 tokens_per_step=fast.tokens_per_step)
        assert fast.total_macs == slow.total_macs  # Exact integers.
        for name in ("compute_seconds", "memory_seconds", "step_seconds",
                     "dynamic_energy_j", "hbm_bytes", "comm_seconds"):
            assert getattr(fast, name) == \
                pytest.approx(getattr(slow, name), rel=1e-12), name
        assert fast.area_mm2 == slow.area_mm2
        assert fast.leakage_w == slow.leakage_w

    def test_rejects_empty_step(self):
        surface = StepCostSurface(make_design("mugi", 64), TINY_GQA)
        with pytest.raises(ConfigError):
            surface.price_step((), (), ())


class TestSharedStepCache:
    def test_store_shared_across_engines(self):
        design = make_design("mugi", 64)
        store_a = step_cost_store(design, TINY_GQA, 4, 4, True)
        store_b = step_cost_store(design, TINY_GQA, 4, 4, True)
        assert store_a is store_b
        # Different bits -> different store; different design too.
        assert step_cost_store(design, TINY_GQA, 8, 4, True) is not store_a
        other = make_design("mugi", 64)
        assert step_cost_store(other, TINY_GQA, 4, 4, True) is not store_a

    def test_cluster_replicas_share_one_cache(self):
        design = make_design("mugi", 64)
        trace = shared_prefix_trace(30, 9)
        cluster = make_cluster(design, TINY_GQA, 4, policy="continuous",
                               router="round-robin", max_batch=4,
                               seq_len_bucket=16)
        caches = {id(rep.engine._step_cache) for rep in cluster.replicas}
        assert len(caches) == 1
        report = cluster.run(trace)
        # Later replicas hit signatures the first replica priced.
        assert report.step_cache_hits > 0

    def test_divergent_tech_rejected(self):
        from dataclasses import replace

        design = make_design("mugi", 64)
        store = step_cost_store(design, TINY_GQA, 4, 4, True)
        assert step_cost_store(design, TINY_GQA, 4, 4, True,
                               tech=design.tech) is store
        other = replace(design.tech,
                        frequency_hz=design.tech.frequency_hz * 2)
        with pytest.raises(ConfigError):
            step_cost_store(design, TINY_GQA, 4, 4, True, tech=other)

    def test_report_counters(self):
        trace = shared_prefix_trace(20, 1)
        report = run_trace("continuous", True, trace)
        assert report.step_cache_misses > 0
        assert report.step_cache_hits + report.step_cache_misses <= \
            report.steps

    def test_lru_bound(self):
        cache = StepCostCache(max_entries=3)
        for key in range(4):
            cache.put(key, key)
        assert len(cache) == 3
        assert cache.get(0) is None  # Oldest evicted.
        assert cache.get(1) == 1
        cache.put(4, 4)  # Evicts 2: key 1 was refreshed by the get.
        assert cache.get(2) is None
        assert cache.get(1) == 1
        with pytest.raises(ConfigError):
            StepCostCache(max_entries=0)


class TestExtendBulk:
    def make_pool(self, blocks, block_size=16):
        capacity = blocks * TINY_GQA.kv_cache_bytes(
            seq_len=block_size, batch=1, bits=4)
        return BlockManager(TINY_GQA, capacity, block_size=block_size)

    def request(self, req_id, prompt=16, output=64):
        return Request(req_id=req_id, arrival_s=0.0, prompt_len=prompt,
                       output_len=output)

    def test_matches_stepwise_extends(self):
        bulk, stepwise = self.make_pool(32), self.make_pool(32)
        for pool in (bulk, stepwise):
            for seq in range(3):
                pool.begin_sequence(seq, self.request(seq))
                assert pool.extend(seq, 16 + seq)
        assert bulk.extend_bulk([(0, 20), (1, 5), (2, 40)])
        for seq, tokens in ((0, 20), (1, 5), (2, 40)):
            for _ in range(tokens):
                assert stepwise.extend(seq, 1)
        for seq in range(3):
            assert bulk.tokens_of(seq) == stepwise.tokens_of(seq)
        assert bulk.live_blocks == stepwise.live_blocks
        assert bulk.free_blocks == stepwise.free_blocks
        bulk.check_invariants()

    def test_all_or_nothing(self):
        pool = self.make_pool(4)
        pool.begin_sequence(0, self.request(0))
        pool.begin_sequence(1, self.request(1))
        assert pool.extend(0, 16) and pool.extend(1, 16)
        # 2 free blocks; the bulk grant needs 3 -> refused untouched.
        assert not pool.extend_bulk([(0, 17), (1, 32)])
        assert pool.tokens_of(0) == 16 and pool.tokens_of(1) == 16
        assert pool.free_blocks == 2
        pool.check_invariants()
        with pytest.raises(ConfigError):
            pool.extend_bulk([(0, 0)])

    @settings(max_examples=30, deadline=None)
    @given(grants=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           blocks=st.integers(4, 24))
    def test_property_bulk_equals_stepwise(self, grants, blocks):
        bulk, stepwise = self.make_pool(blocks), self.make_pool(blocks)
        for pool in (bulk, stepwise):
            for seq in range(len(grants)):
                pool.begin_sequence(seq, self.request(seq))
                pool.extend(seq, 8)
        ok = bulk.extend_bulk(list(enumerate(grants)))
        total_need = sum(
            stepwise.blocks_needed(8 + n) - stepwise.blocks_needed(8)
            for n in grants)
        assert ok == (total_need <= stepwise.available_blocks)
        if ok:
            for seq, tokens in enumerate(grants):
                for _ in range(tokens):
                    assert stepwise.extend(seq, 1)
            assert bulk.live_blocks == stepwise.live_blocks
            assert [bulk.tokens_of(s) for s in range(len(grants))] == \
                [stepwise.tokens_of(s) for s in range(len(grants))]
        bulk.check_invariants()


class TestOutstandingTokens:
    """The incremental counter always equals the walked sum."""

    def walked(self, scheduler):
        queue = getattr(scheduler, "queue", None)
        if queue is not None:
            states = list(scheduler.running)
            pending = sum(r.total_tokens for r in queue)
        else:
            states = (scheduler.waiting + scheduler.running
                      + scheduler.swapped)
            pending = 0
        return pending + sum(s.request.total_tokens - s.generated
                             for s in states)

    @pytest.mark.parametrize("policy", ["continuous", "static", "paged",
                                        "paged-preemptive"])
    def test_counter_matches_walk(self, policy):
        trace = shared_prefix_trace(30, 13)
        paged = policy.startswith("paged")
        scheduler = make_scheduler(
            policy, TINY_GQA, max_batch=4,
            kv_capacity_bytes=PAGED_CAPACITY if paged else None,
            **(PAGED_KWARGS if paged else {}))
        engine = ServingEngine(make_design("mugi", 64), TINY_GQA,
                               scheduler, seq_len_bucket=16)
        engine.start()
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        idx = 0
        while idx < len(pending) or scheduler.has_work():
            while idx < len(pending) and \
                    pending[idx].arrival_s <= engine.now:
                engine.submit(pending[idx])
                idx += 1
                assert scheduler.outstanding_tokens == \
                    self.walked(scheduler)
            if not engine.step(horizon=pending[idx].arrival_s
                               if idx < len(pending) else None):
                engine.advance_to(pending[idx].arrival_s)
                continue
            assert scheduler.outstanding_tokens == self.walked(scheduler)
        assert scheduler.outstanding_tokens == 0
        engine.finish()
