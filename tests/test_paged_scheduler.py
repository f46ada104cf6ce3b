"""Paged scheduler stack: policies, chunked prefill, preemption, and
KV-capacity edge cases (the ISSUE satellite list)."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.parallel import ParallelConfig, ShardedSystem
from repro.serve import (
    BlockManager,
    LengthSpec,
    PagedScheduler,
    SCHEDULERS,
    PrefixSpec,
    Request,
    ServingCluster,
    ServingEngine,
    bursty_trace,
    make_scheduler,
    poisson_trace,
    simulate_trace,
    steady_trace,
)

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)


def tiny_design():
    return make_design("mugi", 64)


def capacity_tokens(tokens: int) -> float:
    return TINY_GQA.kv_cache_bytes(seq_len=tokens, batch=1, bits=4)


class TestPagedServesTraces:
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 24))
    @settings(max_examples=10, deadline=None)
    def test_every_request_completes_under_tight_pool(self, seed, n):
        """Block-granular admission + preemption still completes every
        request with a pool of ~3 short-request footprints."""
        trace = poisson_trace(n_requests=n, rate_rps=1.0, prompt=SHORT,
                              output=SHORT, seed=seed)
        report = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged", max_batch=4,
            kv_capacity_bytes=capacity_tokens(3 * 2 * SHORT.high),
            scheduler_kwargs={"block_size": 8, "chunk_tokens": 32})
        assert report.completed == n
        assert report.generated_tokens == sum(r.output_len for r in trace)

    def test_reserved_never_exceeds_pool(self):
        trace = bursty_trace(n_requests=24, burst_size=12,
                             burst_period_s=10.0, prompt=SHORT,
                             output=SHORT, seed=3)
        capacity = capacity_tokens(4 * 2 * SHORT.high)
        report = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged", max_batch=8,
            kv_capacity_bytes=capacity)
        assert report.completed == 24
        assert report.peak_kv_bytes <= capacity * (1 + 1e-9)
        assert 0.0 < max(report.kv_utilization) <= 1.0

    def test_chunked_prefill_splits_long_prompts(self):
        """A prompt far over the chunk budget takes several steps to
        prefill but still completes with correct timing fields."""
        trace = steady_trace(n_requests=1, rate_rps=1.0,
                             prompt=LengthSpec("fixed", value=300),
                             output=LengthSpec("fixed", value=4))
        report = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged",
            scheduler_kwargs={"chunk_tokens": 64})
        assert report.completed == 1
        # ceil(300 / 64) = 5 prefill chunks + 3 decode steps.
        assert report.steps == 8
        record = report.records[0]
        assert record.ttft_s > 0
        assert record.finish_s >= record.first_token_s

    def test_prefix_cache_improves_ttft_and_reports_hits(self):
        prefix = PrefixSpec(share=0.9, n_groups=1,
                            length=LengthSpec("fixed", value=64),
                            dup_share=0.0)
        trace = bursty_trace(n_requests=16, burst_size=8,
                             burst_period_s=30.0, prompt=SHORT,
                             output=SHORT, seed=5, prefix=prefix)
        base = simulate_trace(tiny_design(), TINY_GQA, [
            dataclasses.replace(r, prefix_group=None, prefix_len=0)
            for r in trace], policy="paged", max_batch=8)
        shared = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy="paged", max_batch=8)
        assert shared.prefix_hit_rate > 0.3
        assert base.prefix_hit_rate == 0.0
        assert shared.mean_ttft_s < base.mean_ttft_s
        assert shared.completed == base.completed == 16

    def test_recompute_preemption_completes_everything(self):
        trace = bursty_trace(n_requests=16, burst_size=16,
                             burst_period_s=5.0,
                             prompt=LengthSpec("fixed", value=48),
                             output=LengthSpec("fixed", value=200), seed=1)
        report = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged", max_batch=12,
            kv_capacity_bytes=capacity_tokens(700),
            scheduler_kwargs={"admit_headroom": 0.0})
        assert report.completed == 16
        assert report.preemptions > 0
        assert report.swap_seconds == 0.0

    def test_swap_preemption_charges_host_link_time(self):
        trace = bursty_trace(n_requests=16, burst_size=16,
                             burst_period_s=5.0,
                             prompt=LengthSpec("fixed", value=48),
                             output=LengthSpec("fixed", value=200), seed=1)
        report = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged", max_batch=12,
            kv_capacity_bytes=capacity_tokens(700),
            scheduler_kwargs={"admit_headroom": 0.0,
                              "preemption": "swap"})
        assert report.completed == 16
        assert report.preemptions > 0
        assert report.swap_bytes > 0
        assert report.swap_seconds > 0
        assert report.makespan_s >= report.swap_seconds


class TestPolicies:
    def _contended_trace(self):
        """Low-priority early arrivals, one high-priority late one."""
        low = [Request(req_id=i, arrival_s=0.0, prompt_len=40,
                       output_len=60) for i in range(6)]
        high = [Request(req_id=6, arrival_s=0.001, prompt_len=40,
                        output_len=20, priority=5)]
        return low + high

    def test_priority_policy_admits_high_priority_first(self):
        trace = self._contended_trace()
        fcfs = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged", max_batch=2,
            kv_capacity_bytes=capacity_tokens(220))
        prio = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged-priority",
            max_batch=2, kv_capacity_bytes=capacity_tokens(220))
        t_fcfs = {r.request.req_id: r.ttft_s for r in fcfs.records}
        t_prio = {r.request.req_id: r.ttft_s for r in prio.records}
        assert t_prio[6] < t_fcfs[6]
        assert fcfs.completed == prio.completed == 7

    def test_preemptive_policy_evicts_for_high_priority(self):
        trace = self._contended_trace()
        prio = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged-priority",
            max_batch=2, kv_capacity_bytes=capacity_tokens(220))
        preemptive = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged-preemptive",
            max_batch=2, kv_capacity_bytes=capacity_tokens(220))
        assert preemptive.preemptions > 0
        t_prio = {r.request.req_id: r.ttft_s for r in prio.records}
        t_pre = {r.request.req_id: r.ttft_s for r in preemptive.records}
        assert t_pre[6] <= t_prio[6]
        assert preemptive.completed == 7

    def test_registry_exposes_paged_schedulers(self):
        # Every name but "static" is a row of the committed
        # paged_serving_policies.txt: a subclass that registers by
        # accident must fail here, not only in the results diff.
        assert sorted(SCHEDULERS) == [
            "continuous", "paged", "paged-fair-share", "paged-preemptive",
            "paged-priority", "paged-tenant-priority", "static"]
        for name in SCHEDULERS:
            assert make_scheduler(name, TINY_GQA).name == name


class TestKVEdgeCases:
    """ISSUE satellite: capacity edge cases."""

    def test_single_request_over_total_capacity_is_unservable(self):
        scheduler = PagedScheduler(TINY_GQA,
                                   kv_capacity_bytes=capacity_tokens(64))
        big = Request(req_id=0, arrival_s=0.0, prompt_len=60,
                      output_len=60)
        assert "KV blocks at peak" in scheduler.admission_error(big)
        with pytest.raises(ConfigError):
            scheduler.enqueue(big)

    def test_unservable_trace_fails_before_simulation(self):
        good = steady_trace(n_requests=3, rate_rps=1.0, prompt=SHORT,
                            output=SHORT)
        bad = Request(req_id=99, arrival_s=50.0, prompt_len=400,
                      output_len=400)
        scheduler = PagedScheduler(TINY_GQA,
                                   kv_capacity_bytes=capacity_tokens(256))
        engine = ServingEngine(tiny_design(), TINY_GQA, scheduler)
        with pytest.raises(ConfigError, match="unservable trace"):
            ServingCluster([engine]).run(good + [bad])
        assert scheduler.reserved_bytes == 0

    def test_request_over_context_window_rejected(self):
        scheduler = PagedScheduler(TINY_GQA)
        with pytest.raises(ConfigError, match="max_seq_len"):
            scheduler.enqueue(Request(req_id=0, arrival_s=0.0,
                                      prompt_len=1500, output_len=1500))

    def test_zero_output_length_requests_rejected(self):
        """output_len == 0 has no defined completion semantics; the
        trace layer rejects it up front."""
        with pytest.raises(ConfigError, match="positive"):
            Request(req_id=0, arrival_s=0.0, prompt_len=16, output_len=0)

    def test_one_token_outputs_serve_end_to_end(self):
        """The output_len boundary: prefill emits the only token."""
        trace = steady_trace(n_requests=4, rate_rps=2.0,
                             prompt=LengthSpec("fixed", value=24),
                             output=LengthSpec("fixed", value=1))
        report = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy="paged")
        assert report.completed == 4
        assert all(r.tpot_s == 0.0 for r in report.records)

    def test_pool_exactly_one_request_wide(self):
        """A pool that fits exactly one peak footprint serializes but
        completes."""
        trace = steady_trace(n_requests=3, rate_rps=100.0,
                             prompt=LengthSpec("fixed", value=40),
                             output=LengthSpec("fixed", value=24))
        report = simulate_trace(
            tiny_design(), TINY_GQA, trace, policy="paged", max_batch=4,
            kv_capacity_bytes=capacity_tokens(64),
            scheduler_kwargs={"block_size": 8})
        assert report.completed == 3

    def test_block_manager_invariants_hold_after_run(self):
        trace = poisson_trace(n_requests=20, rate_rps=2.0, prompt=SHORT,
                              output=SHORT, seed=11)
        scheduler = PagedScheduler(
            TINY_GQA, max_batch=4,
            kv_capacity_bytes=capacity_tokens(3 * 2 * SHORT.high),
            block_size=8, chunk_tokens=32)
        engine = ServingEngine(tiny_design(), TINY_GQA, scheduler)
        report = ServingCluster([engine]).run(trace).replicas[0]
        assert report.completed == 20
        scheduler.block_manager.check_invariants()
        assert scheduler.block_manager.live_blocks == 0  # All released.


class TestShardedPagedServing:
    def test_paged_on_sharded_pod(self):
        pod = ShardedSystem(tiny_design(), TINY_GQA, ParallelConfig(tp=2))
        per_chip = capacity_tokens(3 * 2 * SHORT.high)
        manager = BlockManager.for_design(pod, TINY_GQA, per_chip)
        assert manager.num_blocks == 2 * BlockManager(
            TINY_GQA, per_chip).num_blocks
        trace = poisson_trace(n_requests=12, rate_rps=2.0, prompt=SHORT,
                              output=SHORT, seed=2)
        report = simulate_trace(
            pod, TINY_GQA, trace, policy="paged", max_batch=6,
            scheduler_kwargs={"block_manager": manager})
        assert report.completed == 12
        assert report.comm_seconds > 0  # Collectives priced per step.

    def test_paged_serving_experiment_smoke(self):
        """The paged_serving driver's sweeps and headline run end to end
        (tiny sizes; the benchmark runs the real ones)."""
        from repro.analysis.experiments import paged_serving
        points = paged_serving.run_policy_comparison(n_requests=12,
                                                     rate_rps=1.0)
        assert {p.policy for p in points} >= {"continuous", "paged"}
        block = paged_serving.run_block_size_sweep(
            block_sizes=(16, 128), n_requests=10, rate_rps=1.0)
        assert len(block) == 2 * 3  # Two sizes x three designs.
        share = paged_serving.run_prefix_share_sweep(
            shares=(0.0, 0.8), n_requests=10, rate_rps=1.0)
        by_share = {(p.design, p.prefix_share): p for p in share}
        assert by_share[("Mugi (256)", 0.0)].prefix_hit_rate == 0.0
        res = paged_serving.run_headline(n_requests=30, rate_rps=2.0)
        assert res["peak"].completed == res["paged"].completed == 30
        assert res["goodput_ratio"] > 0

    def test_paged_scheduler_validates_args(self):
        with pytest.raises(ConfigError):
            PagedScheduler(TINY_GQA, chunk_tokens=0)
        with pytest.raises(ConfigError):
            PagedScheduler(TINY_GQA, preemption="drop")
        with pytest.raises(ConfigError):
            PagedScheduler(TINY_GQA, admit_headroom=1.0)
        with pytest.raises(ConfigError):
            PagedScheduler(TINY_GQA, host_link_bytes_s=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_paged_scheduler_rejects_non_finite_pool_inputs(self, value):
        # A NaN host link makes every swap, and the makespan, NaN; a
        # NaN pool holds no whole number of blocks.
        with pytest.raises(ConfigError, match="host_link_bytes_s must be "
                                              "finite and positive"):
            PagedScheduler(TINY_GQA, preemption="swap",
                           host_link_bytes_s=value)
        with pytest.raises(ConfigError, match="capacity_bytes must be "
                                              "finite and positive"):
            PagedScheduler(TINY_GQA, kv_capacity_bytes=value)
