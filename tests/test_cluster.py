"""Cluster-serving tests: routers, event loop, disaggregation.

ISSUE satellites pinned here:

* determinism regression — same trace + seed + router gives identical
  per-replica assignment and metrics on two independently built
  clusters;
* conservation — per-replica completed tokens sum to exactly the
  single-engine totals for the same trace;
* request identity — ``Request`` is frozen, so replicas take the
  trace's own objects, and rerunning one trace is safe.
"""

import math

import pytest

from repro.arch import make_design
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.serve import (
    LengthSpec,
    PrefixSpec,
    Replica,
    Request,
    Router,
    ServingCluster,
    ServingEngine,
    bursty_trace,
    make_cluster,
    make_router,
    make_scheduler,
    offered_load_rps,
    poisson_trace,
    simulate_trace,
)
from repro.serve.router import (
    LeastOutstandingRouter,
    PowerOfTwoRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
)

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)
PREFIX = PrefixSpec(share=0.5, n_groups=4,
                    length=LengthSpec("fixed", value=32), dup_share=0.3)

ROUTERS = ("round-robin", "least-outstanding", "power-of-two",
           "prefix-affinity")


def tiny_design():
    return make_design("mugi", 64)


def tiny_trace(n=40, rate=4.0, seed=3, prefix=PREFIX):
    return poisson_trace(n_requests=n, rate_rps=rate, prompt=SHORT,
                         output=SHORT, prefix=prefix, seed=seed)


def tiny_cluster(n_replicas=3, router="round-robin", policy="paged",
                 **kwargs):
    return make_cluster(tiny_design(), TINY_GQA, n_replicas,
                        policy=policy, router=router, **kwargs)


class _StubReplica:
    """Just enough replica surface for router unit tests."""

    def __init__(self, index, outstanding):
        self.index = index
        self.outstanding_tokens = outstanding


def _request(req_id=0, group=None, prefix_len=0):
    return Request(req_id=req_id, arrival_s=0.0, prompt_len=16,
                   output_len=4, prefix_group=group,
                   prefix_len=prefix_len)


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        reps = [_StubReplica(i, 0) for i in range(3)]
        picks = [router.select(_request(i), reps).index for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        router.reset()
        assert router.select(_request(), reps).index == 0

    def test_least_outstanding_picks_min_then_index(self):
        router = LeastOutstandingRouter()
        reps = [_StubReplica(0, 50), _StubReplica(1, 10),
                _StubReplica(2, 10)]
        assert router.select(_request(), reps).index == 1

    def test_power_of_two_deterministic_per_seed(self):
        reps = [_StubReplica(i, i * 10) for i in range(4)]
        first = PowerOfTwoRouter(seed=5)
        picks_a = [first.select(_request(i), reps).index
                   for i in range(8)]
        router = PowerOfTwoRouter(seed=5)
        picks_b = [router.select(_request(i), reps).index
                   for i in range(8)]
        assert picks_a == picks_b
        router.reset()
        assert router.select(_request(), reps).index == picks_a[0]

    def test_power_of_two_prefers_less_loaded_of_pair(self):
        reps = [_StubReplica(0, 0), _StubReplica(1, 100)]
        router = PowerOfTwoRouter()
        for i in range(6):
            assert router.select(_request(i), reps).index == 0

    def test_prefix_affinity_sticks_per_group(self):
        router = PrefixAffinityRouter(overload_factor=None)
        reps = [_StubReplica(i, 0) for i in range(4)]
        for group in range(8):
            picks = {router.select(_request(i, group=group, prefix_len=8),
                                   reps).index for i in range(5)}
            assert len(picks) == 1

    def test_prefix_affinity_ungrouped_uses_fallback(self):
        router = PrefixAffinityRouter()
        reps = [_StubReplica(0, 50), _StubReplica(1, 5)]
        assert router.select(_request(), reps).index == 1

    def test_prefix_affinity_overload_spills(self):
        reps = [_StubReplica(0, 0), _StubReplica(1, 0)]
        router = PrefixAffinityRouter(overload_factor=1.5)
        group = next(g for g in range(16)
                     if router.select(_request(group=g, prefix_len=8),
                                      reps).index == 0)
        request = _request(group=group, prefix_len=8)
        reps[0].outstanding_tokens = 1000  # Far over 1.5x the mean.
        assert router.select(request, reps).index == 1
        reps[0].outstanding_tokens = 0
        assert router.select(request, reps).index == 0

    def test_make_router_validation(self):
        with pytest.raises(ConfigError, match="unknown router"):
            make_router("sticky")
        with pytest.raises(ConfigError, match="ignored"):
            make_router(RoundRobinRouter(), seed=3)
        for factor in (0.5, math.nan, -math.inf):
            with pytest.raises(ConfigError, match="overload_factor"):
                PrefixAffinityRouter(overload_factor=factor)
        assert make_router("power-of-two", seed=9).name == "power-of-two"


class TestClusterDeterminism:
    """ISSUE satellite: clusters are pure functions of (trace, router,
    construction) — no hidden global state, no unseeded randomness."""

    @pytest.mark.parametrize("router", ROUTERS)
    def test_same_trace_same_assignment_and_metrics(self, router):
        trace = tiny_trace()
        runs = []
        for _ in range(2):
            report = tiny_cluster(router=router).run(trace)
            runs.append((
                report.routed,
                [[r.request.req_id for r in rep.records]
                 for rep in report.replicas],
                [rep.summary() for rep in report.replicas],
                report.summary(),
            ))
        assert runs[0] == runs[1]

    def test_disaggregated_determinism(self):
        trace = tiny_trace()
        summaries = [tiny_cluster(4, mode="disaggregated").run(trace)
                     .summary() for _ in range(2)]
        assert summaries[0] == summaries[1]


class TestConservation:
    """ISSUE satellite: replica-sharded serving loses no tokens."""

    @pytest.mark.parametrize("policy", ("continuous", "paged"))
    def test_per_replica_tokens_sum_to_single_engine(self, policy):
        trace = tiny_trace(n=30)
        single = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy=policy)
        cluster = tiny_cluster(3, policy=policy).run(trace)
        assert sum(r.generated_tokens for r in cluster.replicas) == \
            single.generated_tokens
        assert sum(r.completed for r in cluster.replicas) == \
            single.completed == len(trace)
        assert cluster.generated_tokens == single.generated_tokens

    def test_one_replica_cluster_never_calls_its_router(self):
        """A fixed one-replica cluster has no routing decision to make:
        each arrival cohort goes straight to its replica."""

        class Unroutable(Router):
            def select(self, request, replicas):
                raise AssertionError("select called")

            def select_batch(self, requests, replicas, commit):
                raise AssertionError("select_batch called")

        trace = tiny_trace(n=25)
        report = tiny_cluster(1, router=Unroutable()).run(trace)
        assert report.routed == [25]
        assert report.completed == 25

    def test_simulate_trace_merges_no_records(self, monkeypatch):
        """A lone engine's run returns the engine's own report, so no
        merged cluster report is built."""
        def refuse(self, **fields):
            raise AssertionError("a one-engine run built a ClusterReport")

        monkeypatch.setattr(ServingCluster, "_report", refuse)
        trace = tiny_trace(n=20)
        report = simulate_trace(tiny_design(), TINY_GQA, trace)
        assert report.completed == 20
        assert report.offered_rps == offered_load_rps(trace)

    def test_disaggregated_conserves_output_tokens(self):
        trace = tiny_trace(n=30)
        report = tiny_cluster(4, mode="disaggregated").run(trace)
        assert report.completed == len(trace)
        assert report.generated_tokens == sum(r.output_len for r in trace)
        # Halves: prefill replicas emit 1 token/request, decode the rest.
        per_role = {"prefill": 0, "decode": 0}
        for rep, role in zip(report.replicas,
                             ("prefill", "prefill", "decode", "decode")):
            per_role[role] += rep.generated_tokens
        multi = sum(1 for r in trace if r.output_len > 1)
        assert per_role["prefill"] == len(trace)
        assert per_role["decode"] == report.generated_tokens - len(trace)
        assert report.migrations == multi


class TestRequestReinstantiation:
    """Requests are frozen, so replicas serve the trace's own objects;
    per-request serving state lives in each scheduler's states."""

    def test_replica_records_hold_the_trace_requests(self):
        trace = tiny_trace(n=20)
        by_id = {r.req_id: r for r in trace}
        report = tiny_cluster(2).run(trace)
        held = [record.request for rep in report.replicas
                for record in rep.records]
        assert len(held) == len(trace)
        assert all(request is by_id[request.req_id] for request in held)
        assert all(record.request is by_id[record.request.req_id]
                   for record in report.records)

    def test_rerunning_same_trace_objects_is_safe(self):
        trace = tiny_trace(n=15)
        before = [Request(**{f: getattr(r, f) for f in (
            "req_id", "arrival_s", "prompt_len", "output_len", "priority",
            "prefix_group", "prefix_len", "kv_ready")}) for r in trace]
        a = tiny_cluster(2).run(trace).summary()
        b = tiny_cluster(2).run(trace).summary()
        assert a == b
        assert trace == before  # The cluster never mutates the trace.


class TestKvReadyAdmission:
    def test_continuous_admits_kv_ready_straight_to_decode(self):
        scheduler = make_scheduler("continuous", TINY_GQA)
        request = Request(req_id=0, arrival_s=0.0, prompt_len=32,
                          output_len=4, kv_ready=True)
        scheduler.enqueue(request)
        plan = scheduler.plan_step(0.0)
        assert plan.prefill == []
        assert len(plan.decode) == 1
        assert plan.decode[0].context_len == 32

    def test_static_admits_kv_ready_straight_to_decode(self):
        scheduler = make_scheduler("static", TINY_GQA)
        request = Request(req_id=0, arrival_s=0.0, prompt_len=32,
                          output_len=4, kv_ready=True)
        scheduler.enqueue(request)
        plan = scheduler.plan_step(0.0)
        assert plan.prefill == [] and len(plan.decode) == 1

    def test_paged_rejects_kv_ready(self):
        scheduler = make_scheduler("paged", TINY_GQA)
        request = Request(req_id=0, arrival_s=0.0, prompt_len=32,
                          output_len=4, kv_ready=True)
        assert "kv_ready" in scheduler.admission_error(request)
        with pytest.raises(ConfigError, match="kv_ready"):
            scheduler.enqueue(request)

    def test_engine_serves_kv_ready_without_prefill_cost(self):
        """A kv_ready request decodes output_len tokens, one per step."""
        engine = ServingEngine(tiny_design(), TINY_GQA,
                               make_scheduler("continuous", TINY_GQA))
        engine.start()
        engine.submit(Request(req_id=0, arrival_s=0.0, prompt_len=64,
                              output_len=5, kv_ready=True))
        while engine.has_work():
            assert engine.step()
        report = engine.finish()
        assert report.steps == 5
        record = report.records[0]
        assert record.first_token_s > 0  # Set by the first decode step.


class TestExternalClockApi:
    def test_manual_loop_matches_run(self):
        trace = bursty_trace(n_requests=12, burst_size=4,
                             burst_period_s=30.0, prompt=SHORT,
                             output=SHORT, seed=2)
        auto = ServingEngine(tiny_design(), TINY_GQA,
                             make_scheduler("continuous", TINY_GQA))
        reference = ServingCluster([auto]).run(trace).replicas[0]

        manual = ServingEngine(tiny_design(), TINY_GQA,
                               make_scheduler("continuous", TINY_GQA))
        manual.start().offered_rps = reference.offered_rps
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        idx = 0
        while idx < len(pending) or manual.has_work():
            while idx < len(pending) and \
                    pending[idx].arrival_s <= manual.now:
                manual.submit(pending[idx])
                idx += 1
            if not manual.step():
                manual.advance_to(pending[idx].arrival_s)
        report = manual.finish()
        assert report.summary() == reference.summary()
        assert report.busy_seconds == pytest.approx(
            reference.busy_seconds)

    def test_step_requires_started_session(self):
        engine = ServingEngine(tiny_design(), TINY_GQA,
                               make_scheduler("continuous", TINY_GQA))
        with pytest.raises(ConfigError, match="start"):
            engine.step()
        with pytest.raises(ConfigError, match="start"):
            engine.finish()

    def test_submit_rejects_unservable(self):
        engine = ServingEngine(tiny_design(), TINY_GQA,
                               make_scheduler("continuous", TINY_GQA))
        engine.start()
        with pytest.raises(ConfigError, match="unservable"):
            engine.submit(Request(req_id=0, arrival_s=0.0,
                                  prompt_len=1500, output_len=1500))

    def test_busy_seconds_bounded_by_makespan(self):
        trace = tiny_trace(n=20)
        report = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy="continuous")
        assert 0 < report.busy_seconds <= report.makespan_s + 1e-9
        assert 0 < report.busy_fraction <= 1.0 + 1e-9


class TestClusterValidation:
    def test_empty_trace(self):
        with pytest.raises(ConfigError, match="empty"):
            tiny_cluster().run([])

    def test_duplicate_req_ids(self):
        request = _request(req_id=7)
        with pytest.raises(ConfigError, match="duplicate"):
            tiny_cluster().run([request, _request(req_id=7)])

    def test_trace_must_not_preset_kv_ready(self):
        bad = Request(req_id=0, arrival_s=0.0, prompt_len=16,
                      output_len=4, kv_ready=True)
        with pytest.raises(ConfigError, match="cluster-internal"):
            tiny_cluster(policy="continuous").run([bad])

    def test_unservable_trace_fails_fast(self):
        """The up-front check words the error, on every run path."""
        from repro.serve import AutoscalingCluster

        bad = Request(req_id=10, arrival_s=0.5, prompt_len=1500,
                      output_len=1500)
        trace = tiny_trace(n=10) + [bad]
        expected = ("unservable trace: request 10 needs 3000 context "
                    "tokens, over Tiny-GQA's max_seq_len 2048")
        for run in (lambda: tiny_cluster(3).run(trace),
                    lambda: simulate_trace(tiny_design(), TINY_GQA, trace),
                    lambda: AutoscalingCluster(
                        tiny_design(), TINY_GQA, 2,
                        autoscaler="reactive").run(trace)):
            with pytest.raises(ConfigError) as error:
                run()
            assert str(error.value) == expected

    def test_routing_does_not_revalidate(self, monkeypatch):
        """Every path checks the whole trace once, up front: routed
        arrivals, lone-replica cohorts, KV migrations and the arrivals a
        later-booted replica takes are never checked again."""
        from repro.serve import AutoscalingCluster, ColdStartConfig, \
            Scheduler

        checks = []
        for name in ("admission_error", "trace_error"):
            method = getattr(Scheduler, name)

            def counted(self, arg, name=name, method=method):
                checks.append(name)
                return method(self, arg)

            monkeypatch.setattr(Scheduler, name, counted)
        trace = tiny_trace(n=30)
        fleet = AutoscalingCluster(
            tiny_design(), TINY_GQA, 3,
            autoscaler=_ScriptedScaler([1, 3, 3, 3, 1, 1]).scaler,
            router="least-outstanding", policy="paged", tick_s=0.1,
            cold_start=ColdStartConfig(provision_s=0.1))
        reports = [
            tiny_cluster(3).run(trace),
            tiny_cluster(1).run(trace),
            simulate_trace(tiny_design(), TINY_GQA, trace),
            tiny_cluster(2, mode="disaggregated").run(trace),
            fleet.run(_lifecycle_trace(trickle_start=0.05,
                                       trickle_step=0.05, n_trickle=20)),
        ]
        assert reports[3].migrations > 0
        assert fleet.n_replicas == 3 and reports[4].cold_starts > 0
        assert checks == []
        # External ingest still validates.
        engine = ServingEngine(tiny_design(), TINY_GQA,
                               make_scheduler("continuous", TINY_GQA))
        engine.start()
        engine.submit(_request())
        engine.scheduler.enqueue_many([_request(req_id=1)])
        assert checks == ["admission_error", "trace_error"]

    def test_disaggregated_halves_word_their_own_errors(self):
        """Each half is checked at its own token total: a long prompt
        fails as the one-token prefill half, a long output as the decode
        half, which holds the whole footprint."""
        capacity = TINY_GQA.kv_cache_bytes(seq_len=256, batch=1, bits=4)
        cluster = tiny_cluster(2, mode="disaggregated",
                               kv_capacity_bytes=capacity,
                               scheduler_kwargs={"block_size": 16})
        long_prompt = Request(req_id=3, arrival_s=0.0, prompt_len=300,
                              output_len=4)
        with pytest.raises(ConfigError) as prefill:
            cluster.run([_request(req_id=0), long_prompt])
        assert str(prefill.value) == (
            "unservable trace: request 3 needs 19 KV blocks at peak, "
            "over the pool's 16 (3.28e+04 bytes)")
        long_output = Request(req_id=5, arrival_s=0.0, prompt_len=100,
                              output_len=200)
        with pytest.raises(ConfigError) as decode:
            cluster.run([_request(req_id=0), long_output])
        assert str(decode.value) == (
            "unservable trace: request 5 needs 3.84e+04 KV bytes, over "
            "the 3.28e+04-byte capacity")

    def test_mode_and_role_validation(self):
        with pytest.raises(ConfigError, match="at least one"):
            ServingCluster([])
        with pytest.raises(ConfigError, match="unknown cluster mode"):
            tiny_cluster(mode="sharded")
        with pytest.raises(ConfigError, match="prefill_replicas"):
            tiny_cluster(prefill_replicas=1)  # Unified mode.
        with pytest.raises(ConfigError, match=">= 2 replicas"):
            tiny_cluster(1, mode="disaggregated")
        with pytest.raises(ConfigError, match="prefill_replicas"):
            tiny_cluster(3, mode="disaggregated", prefill_replicas=3)

    def test_decode_replicas_must_support_kv_ready(self):
        engines = [ServingEngine(tiny_design(), TINY_GQA,
                                 make_scheduler("paged", TINY_GQA))
                   for _ in range(2)]
        with pytest.raises(ConfigError, match="decode replicas"):
            ServingCluster(engines, mode="disaggregated",
                           prefill_replicas=1)

    def test_replicas_must_share_model(self):
        other = ModelConfig(name="Other-GQA", family="llama2", n_layers=2,
                            n_heads=16, n_kv_heads=2, hidden_dim=512,
                            ffn_dim=1024, max_seq_len=2048,
                            vocab_size=2000)
        engines = [
            ServingEngine(tiny_design(), TINY_GQA,
                          make_scheduler("continuous", TINY_GQA)),
            ServingEngine(tiny_design(), other,
                          make_scheduler("continuous", other)),
        ]
        with pytest.raises(ConfigError, match="share a model"):
            ServingCluster(engines)

    def test_make_cluster_rejects_shared_block_manager(self):
        from repro.serve import BlockManager
        pool = BlockManager(TINY_GQA, 1e9)
        with pytest.raises(ConfigError, match="alias"):
            tiny_cluster(scheduler_kwargs={"block_manager": pool})

    def test_per_replica_pools_are_distinct(self):
        cluster = tiny_cluster(3)
        pools = {id(rep.engine.scheduler.block_manager)
                 for rep in cluster.replicas}
        assert len(pools) == 3


class TestDisaggregation:
    def test_migration_timing_and_merge(self):
        trace = tiny_trace(n=24, seed=9)
        report = tiny_cluster(4, mode="disaggregated").run(trace)
        assert report.mode == "disaggregated"
        assert report.kv_transfer_bytes > 0
        assert report.kv_transfer_seconds > 0
        by_id = {r.req_id: r for r in trace}
        for record in report.records:
            origin = by_id[record.request.req_id]
            assert record.request == origin
            assert record.first_token_s >= origin.arrival_s
            assert record.finish_s >= record.first_token_s
            if origin.output_len > 1:
                # The decode half ran after the transfer: TPOT absorbs
                # the migration latency.
                assert record.tpot_s > 0

    def test_prefill_replicas_only_prefill(self):
        trace = tiny_trace(n=24, seed=9)
        cluster = tiny_cluster(4, mode="disaggregated")
        report = cluster.run(trace)
        roles = [rep.role for rep in cluster.replicas]
        assert roles == ["prefill", "prefill", "decode", "decode"]
        for rep, serving in zip(cluster.replicas, report.replicas):
            if rep.role == "prefill":
                # Every prefill-side record emits exactly one token.
                assert all(r.request.output_len == 1
                           for r in serving.records)
            else:
                assert all(r.request.kv_ready for r in serving.records)

    def test_outstanding_tokens_view(self):
        engine = ServingEngine(tiny_design(), TINY_GQA,
                               make_scheduler("continuous", TINY_GQA,
                                              max_batch=1))
        replica = Replica(index=0, engine=engine)
        assert replica.outstanding_tokens == 0
        engine.start()
        engine.submit(_request(req_id=0))
        engine.submit(_request(req_id=1))
        assert replica.outstanding_tokens == 2 * 20  # 16 + 4 each.
        assert engine.step()
        # One admitted (1 of its 20 footprint tokens generated), one
        # still queued at its full footprint.
        assert replica.outstanding_tokens == 20 + 19


class TestOfferedRpsSpanFloor:
    """ISSUE satellite: degenerate arrival spans must stay finite."""

    def test_same_instant_burst_is_finite_not_inf(self):
        from repro.serve.cluster import _MIN_SPAN_S, _offered_rps
        rate = _offered_rps(3, 2.0, 2.0)
        assert rate == 3 / _MIN_SPAN_S
        assert rate != float("inf")

    def test_short_streams_report_zero(self):
        from repro.serve.cluster import _offered_rps
        assert _offered_rps(0, 0.0, 0.0) == 0.0
        assert _offered_rps(1, 5.0, 5.0) == 0.0

    def test_real_spans_unchanged(self):
        from repro.serve.cluster import _offered_rps
        assert _offered_rps(3, 0.0, 10.0) == pytest.approx(0.2)

    def test_cluster_balance_survives_instant_burst(self):
        # Two same-instant requests pinned to one replica used to push
        # offered_rps to inf and poison the report rollup.
        import math
        trace = [_request(req_id=0), _request(req_id=1)]
        report = tiny_cluster(2, router="round-robin").run(trace)
        assert all(math.isfinite(rep.offered_rps)
                   for rep in report.replicas)


class _ScriptedScaler:
    """Deterministic desired-size schedule, one entry per decision
    (the warm initial ramp consumes the first entry)."""

    def __init__(self, schedule, min_replicas=1, max_replicas=3):
        from repro.serve import Autoscaler

        class _Impl(Autoscaler):
            name = "scripted"

            def desired(inner, snapshot):
                i = min(self._calls, len(schedule) - 1)
                self._calls += 1
                return schedule[i]

        self._calls = 0
        self.scaler = _Impl(min_replicas=min_replicas,
                            max_replicas=max_replicas)


def _lifecycle_trace(trickle_start=0.15, trickle_step=0.05, n_trickle=8):
    """A front-loaded burst (~0.24s of queued decode work, longer than
    the 0.1s decision tick), then a trickle that keeps arriving after
    the fleet has started draining."""
    burst = [Request(req_id=i, arrival_s=0.001 * i, prompt_len=24,
                     output_len=64, prefix_group=i % 2, prefix_len=8)
             for i in range(30)]
    trickle = [Request(req_id=100 + i,
                       arrival_s=trickle_start + trickle_step * i,
                       prompt_len=24, output_len=8,
                       prefix_group=i % 2, prefix_len=8)
               for i in range(n_trickle)]
    return burst + trickle


class TestElasticRoutingIsolation:
    """ISSUE satellite: draining/retired replicas take no new work."""

    @pytest.mark.parametrize("router", ["prefix-affinity",
                                        "power-of-two"])
    def test_router_never_offered_non_active_replicas(self, router):
        from repro.serve import AutoscalingCluster, ColdStartConfig
        # Warm-start 1, boot 2 more at t=0.1 (ready ~t=0.2), drain back
        # to 1 at t=0.4: trickle arrivals run past t=1, so requests are
        # routed while the fleet holds provisioning AND drained
        # replicas.
        scripted = _ScriptedScaler([1, 3, 3, 3, 1, 1])
        fleet = AutoscalingCluster(
            tiny_design(), TINY_GQA, 3, autoscaler=scripted.scaler,
            router=router, policy="paged", tick_s=0.1,
            cold_start=ColdStartConfig(provision_s=0.1))
        trace = _lifecycle_trace(trickle_start=0.05, trickle_step=0.05,
                                 n_trickle=20)

        inner = fleet.router.select
        candidate_states = []
        fleet_states = []

        def spying_select(request, replicas):
            candidate_states.extend(rep.state for rep in replicas)
            fleet_states.append(
                frozenset(rep.state for rep in fleet.replicas))
            return inner(request, replicas)

        fleet.router.select = spying_select
        report = fleet.run(trace)

        # Every candidate ever offered to the router was routable.
        assert candidate_states and set(candidate_states) == {"active"}
        # ...and the guard was exercised: routing decisions were made
        # while the fleet actually held booting or draining replicas.
        seen = set().union(*fleet_states)
        assert "provisioning" in seen
        assert seen & {"draining", "retired"}
        assert report.completed == len(trace)

    def test_draining_replica_finishes_inflight_work(self):
        from repro.serve import AutoscalingCluster
        # Warm-start 3, drain to 1 at t=0.1 while every replica still
        # holds queued decode work (the burst batch runs to ~0.24s).
        scripted = _ScriptedScaler([3, 1, 1])
        fleet = AutoscalingCluster(
            tiny_design(), TINY_GQA, 3, autoscaler=scripted.scaler,
            router="least-outstanding", policy="paged", tick_s=0.1)
        trace = _lifecycle_trace()
        report = fleet.run(trace)

        # The fleet really shrank mid-run, not only at wind-down.
        drains = [(t, n) for t, n in report.scale_events
                  if 0.0 < t < max(r.arrival_s for r in trace)]
        assert any(n == 1 for _, n in drains)
        # The drained replicas retired *after* finishing their queues:
        # the first two reports closed are the mid-run retirees, and
        # each kept completing work past the t=0.1 drain decision.
        for retiree in report.replicas[:2]:
            assert retiree.completed > 0
            assert max(r.finish_s for r in retiree.records) > 0.1
        # Conservation through drains: every request completes exactly
        # once, across all replicas the fleet ever ran.
        assert report.completed == len(trace)
        assert sum(report.routed) == len(trace)
        assert sum(rep.completed for rep in report.replicas) \
            == len(trace)
        assert sorted(r.request.req_id for r in report.records) \
            == sorted(r.req_id for r in trace)
