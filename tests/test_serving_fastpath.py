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
