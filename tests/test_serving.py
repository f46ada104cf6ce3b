"""Serving simulator tests: traces, schedulers, engine invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.core.gemm import schedule_vlp_gemm
from repro.errors import ConfigError
from repro.arch import GemmOp
from repro.llm import (
    LLAMA2_70B_GQA,
    ModelConfig,
    build_decode_ops,
    build_prefill_ops,
    build_ragged_decode_ops,
    build_serving_step_ops,
)
from repro.serve import (
    LengthSpec,
    Request,
    ServingEngine,
    bursty_trace,
    make_scheduler,
    offered_load_rps,
    poisson_trace,
    simulate_trace,
    steady_trace,
)

#: A GQA-group-8 model small enough for fast engine tests.
TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)

SHORT = LengthSpec("uniform", low=4, high=48)


def tiny_design():
    return make_design("mugi", 64)


class TestTraces:
    def test_poisson_trace_shape(self):
        trace = poisson_trace(n_requests=50, rate_rps=2.0, seed=3)
        assert len(trace) == 50
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert [r.req_id for r in trace] == list(range(50))

    def test_steady_trace_spacing(self):
        trace = steady_trace(n_requests=10, rate_rps=4.0)
        gaps = [b.arrival_s - a.arrival_s
                for a, b in zip(trace, trace[1:])]
        assert all(g == pytest.approx(0.25) for g in gaps)

    def test_bursty_trace_clusters(self):
        trace = bursty_trace(n_requests=30, burst_size=10,
                             burst_period_s=60.0)
        arrivals = sorted({r.arrival_s for r in trace})
        assert arrivals == [0.0, 60.0, 120.0]

    def test_length_spec_bounds(self):
        import numpy as np
        spec = LengthSpec("lognormal", value=64, low=8, high=128)
        lengths = spec.sample(np.random.default_rng(0), 500)
        assert lengths.min() >= 8 and lengths.max() <= 128

    def test_length_spec_validation(self):
        with pytest.raises(ConfigError):
            LengthSpec("zipf")
        with pytest.raises(ConfigError):
            LengthSpec("uniform", low=8, high=4)

    def test_bursty_rejects_negative_jitter(self):
        with pytest.raises(ConfigError):
            bursty_trace(n_requests=10, burst_size=5, burst_period_s=10.0,
                         jitter_s=-1.0)

    def test_offered_load(self):
        trace = steady_trace(n_requests=11, rate_rps=2.0)
        assert offered_load_rps(trace) == pytest.approx(2.0)
        single = steady_trace(n_requests=1, rate_rps=2.0)
        assert offered_load_rps(single) == 0.0
        burst = bursty_trace(n_requests=8, burst_size=8,
                             burst_period_s=60.0)
        assert offered_load_rps(burst) == float("inf")


class TestRaggedOps:
    def test_uniform_matches_build_decode_ops(self):
        """All sequences at one length reproduce the decode graph exactly."""
        for kwargs in ({}, {"include_lm_head": False},
                       {"include_aux_ops": True}):
            uniform = build_ragged_decode_ops(LLAMA2_70B_GQA, [512] * 8,
                                              **kwargs)
            reference = build_decode_ops(LLAMA2_70B_GQA, batch=8,
                                         seq_len=512, **kwargs)
            assert uniform == reference

    def test_ragged_attention_matches_per_sequence_sum(self):
        """Ragged attention MACs equal the sum of single-sequence graphs."""
        lens = [100, 100, 300, 700]
        ragged = build_ragged_decode_ops(TINY_GQA, lens,
                                         include_lm_head=False)

        def attn_macs(ops):
            return sum(op.macs * op.count for op in ops
                       if getattr(op, "kind", "").startswith("attention"))

        singles = sum(attn_macs(build_decode_ops(TINY_GQA, batch=1,
                                                 seq_len=length,
                                                 include_lm_head=False))
                      for length in lens)
        assert attn_macs(ragged) == singles

    def test_projection_batches_all_sequences(self):
        ops = build_ragged_decode_ops(TINY_GQA, [10, 20, 30])
        projections = [op for op in ops
                       if getattr(op, "kind", "") == "projection"]
        assert all(op.m == 3 for op in projections)

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_ragged_decode_ops(TINY_GQA, [])
        with pytest.raises(ConfigError):
            build_ragged_decode_ops(TINY_GQA, [16, 0])
        with pytest.raises(ConfigError):
            build_serving_step_ops(TINY_GQA, [], [])


class TestServingStepOps:
    @staticmethod
    def _streamed_weight_bytes(ops):
        return sum(op.weight_bytes * op.count for op in ops
                   if isinstance(op, GemmOp) and not op.weights_resident
                   and op.kind in ("projection", "ffn"))

    def test_weights_stream_once_per_step(self):
        """Concurrent prefills share the step's weight pass instead of
        re-streaming the full model per request."""
        few = build_serving_step_ops(TINY_GQA, [32, 32], [64])
        many = build_serving_step_ops(TINY_GQA, [32, 32], [64, 64, 64])
        assert self._streamed_weight_bytes(few) == \
            self._streamed_weight_bytes(many)

    def test_decode_only_equals_ragged_builder(self):
        assert build_serving_step_ops(TINY_GQA, [32, 48], []) == \
            build_ragged_decode_ops(TINY_GQA, [32, 48])

    def test_prefill_only_matches_prefill_builder(self):
        """One prefill, no decoders == build_prefill_ops + LM head."""
        step = build_serving_step_ops(TINY_GQA, [], [64],
                                      include_lm_head=False)
        assert step == build_prefill_ops(TINY_GQA, batch=1, seq_len=64)
        with_head = build_serving_step_ops(TINY_GQA, [], [64])
        assert len(with_head) == len(step) + 1
        assert with_head[-1].m == 1  # One first token sampled.

    def test_mixed_step_lm_head_covers_active_set(self):
        step = build_serving_step_ops(TINY_GQA, [32, 32, 48], [64, 100])
        assert step[-1].m == 5
        assert step[-1].n == TINY_GQA.vocab_size


class TestSchedulerInvariants:
    def _capacity(self, slots: int) -> float:
        """KV capacity for `slots` sequences at the max trace footprint."""
        return slots * TINY_GQA.kv_cache_bytes(seq_len=2 * SHORT.high,
                                               batch=1, bits=4)

    @given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 24),
           policy=st.sampled_from(["continuous", "static"]))
    @settings(max_examples=15, deadline=None)
    def test_no_starvation_and_kv_capacity(self, seed, n, policy):
        """Every request completes; reserved KV never exceeds capacity."""
        trace = poisson_trace(n_requests=n, rate_rps=1.0, prompt=SHORT,
                              output=SHORT, seed=seed)
        capacity = self._capacity(3)
        report = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy=policy, max_batch=4,
                                kv_capacity_bytes=capacity)
        assert report.completed == n
        assert report.peak_kv_bytes <= capacity * (1 + 1e-9)
        assert report.generated_tokens == sum(r.output_len for r in trace)

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_fcfs_admission_order(self, seed):
        """Earlier arrivals are never admitted after later ones."""
        trace = poisson_trace(n_requests=16, rate_rps=2.0, prompt=SHORT,
                              output=SHORT, seed=seed)
        report = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy="continuous", max_batch=2,
                                kv_capacity_bytes=self._capacity(2))
        admitted = {r.request.req_id: r.admitted_s for r in report.records}
        times = [admitted[i] for i in range(len(trace))]
        assert times == sorted(times)

    def test_continuous_at_least_static_goodput_on_bursty(self):
        """ISSUE headline: iteration-level batching >= run-to-drain."""
        trace = bursty_trace(n_requests=48, burst_size=12,
                             burst_period_s=30.0, prompt=SHORT,
                             output=SHORT, seed=5)
        reports = {
            policy: simulate_trace(tiny_design(), TINY_GQA, trace,
                                   policy=policy, max_batch=8,
                                   kv_capacity_bytes=self._capacity(8))
            for policy in ("continuous", "static")}
        assert reports["continuous"].goodput_rps() >= \
            reports["static"].goodput_rps()
        assert reports["continuous"].mean_ttft_s <= \
            reports["static"].mean_ttft_s

    def test_rejects_impossible_request(self):
        scheduler = make_scheduler("continuous", TINY_GQA, max_batch=4,
                                   kv_capacity_bytes=1024.0)
        trace = steady_trace(n_requests=1, rate_rps=1.0,
                             prompt=LengthSpec("fixed", value=1000),
                             output=LengthSpec("fixed", value=1000))
        with pytest.raises(ConfigError):
            scheduler.enqueue(trace[0])

    def test_rejects_request_over_context_window(self):
        """prompt + output beyond max_seq_len cannot be served at all."""
        scheduler = make_scheduler("continuous", TINY_GQA)
        trace = steady_trace(n_requests=1, rate_rps=1.0,
                             prompt=LengthSpec("fixed", value=1500),
                             output=LengthSpec("fixed", value=1500))
        with pytest.raises(ConfigError):
            scheduler.enqueue(trace[0])

    def test_unservable_trace_fails_before_simulation(self):
        """An unservable late request aborts run() up front, not mid-run
        after the earlier requests were already simulated."""
        good = steady_trace(n_requests=4, rate_rps=1.0, prompt=SHORT,
                            output=SHORT)
        bad = steady_trace(n_requests=1, rate_rps=0.001,
                           prompt=LengthSpec("fixed", value=1500),
                           output=LengthSpec("fixed", value=1500))
        trace = good + [bad[0].__class__(req_id=99, arrival_s=1000.0,
                                         prompt_len=1500,
                                         output_len=1500)]
        scheduler = make_scheduler("continuous", TINY_GQA)
        engine = ServingEngine(tiny_design(), TINY_GQA, scheduler)
        with pytest.raises(ConfigError, match="unservable trace"):
            engine.run(trace)
        assert engine.scheduler.reserved_bytes == 0  # Nothing simulated.

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_scheduler("priority", TINY_GQA)

    def test_scheduler_model_mismatch(self):
        scheduler = make_scheduler("continuous", TINY_GQA)
        with pytest.raises(ConfigError):
            ServingEngine(tiny_design(), LLAMA2_70B_GQA, scheduler)


class TestEngine:
    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            simulate_trace(tiny_design(), TINY_GQA, [])

    @pytest.mark.parametrize("policy", ["continuous", "paged"])
    def test_duplicate_req_ids_rejected(self, policy):
        """A repeated id would yield two records under one id (peak
        reservation) or crash mid-run on the block table (paged)."""
        trace = [Request(req_id=7, arrival_s=t, prompt_len=16, output_len=4)
                 for t in (0.0, 0.5)]
        with pytest.raises(ConfigError, match="duplicate req_ids"):
            simulate_trace(tiny_design(), TINY_GQA, trace, policy=policy)

    def test_single_request_timing(self):
        trace = steady_trace(n_requests=1, rate_rps=1.0,
                             prompt=LengthSpec("fixed", value=32),
                             output=LengthSpec("fixed", value=8))
        report = simulate_trace(tiny_design(), TINY_GQA, trace)
        assert report.completed == 1
        record = report.records[0]
        # Prefill emits the first token; 7 decode steps finish the rest.
        assert record.ttft_s > 0
        assert record.latency_s == pytest.approx(
            record.ttft_s + 7 * record.tpot_s)
        assert report.makespan_s == pytest.approx(record.finish_s)
        assert report.steps == 8

    def test_bucketing_preserves_completion(self):
        trace = poisson_trace(n_requests=12, rate_rps=1.0, prompt=SHORT,
                              output=SHORT, seed=9)
        exact = simulate_trace(tiny_design(), TINY_GQA, trace,
                               seq_len_bucket=1)
        bucketed = simulate_trace(tiny_design(), TINY_GQA, trace,
                                  seq_len_bucket=64)
        assert exact.completed == bucketed.completed == 12
        # Bucketing only rounds costs up, never below the exact lowering.
        assert bucketed.makespan_s >= 0.99 * exact.makespan_s

    def test_step_cache_hits(self):
        design = tiny_design()
        config = TINY_GQA
        scheduler = make_scheduler("continuous", config, max_batch=4)
        engine = ServingEngine(design, config, scheduler,
                               seq_len_bucket=64)
        trace = steady_trace(n_requests=8, rate_rps=100.0,
                             prompt=LengthSpec("fixed", value=32),
                             output=LengthSpec("fixed", value=16))
        report = engine.run(trace)
        # Identical (bucketed) active sets collapse onto cached costs.
        assert report.steps > len(engine._step_cache)


class TestCostMemoization:
    def test_schedule_cache_returns_same_object(self):
        a = schedule_vlp_gemm(8, 512, 512, array_height=128)
        b = schedule_vlp_gemm(8, 512, 512, array_height=128)
        assert a is b

    def test_design_cost_cache(self):
        from repro.arch import GemmOp, NonlinearOp
        design = make_design("mugi", 128)
        op = GemmOp(m=8, k=256, n=256)
        assert design.gemm_cost(op) is design.gemm_cost(op)
        nl = NonlinearOp(op="softmax", elements=4096, rows=32)
        assert design.nonlinear_cost(nl) is design.nonlinear_cost(nl)
        assert len(design._op_cost_cache) == 2

    def test_noc_cost_cache(self):
        from repro.arch import GemmOp, make_noc
        system = make_noc("mugi", 128, 2, 2)
        op = GemmOp(m=8, k=256, n=256)
        assert system.gemm_cost(op) is system.gemm_cost(op)

    def test_subclass_cache_keys_distinct(self):
        """Mugi-L's super() chain must not collide with its own entry."""
        from repro.arch import MugiDesign, MugiLDesign, NonlinearOp
        op = NonlinearOp(op="silu", elements=4096)
        mugi_l = MugiLDesign(height=128)
        base = MugiDesign(height=128)
        assert mugi_l.nonlinear_cost(op).energy_pj > \
            base.nonlinear_cost(op).energy_pj


class TestReportMetrics:
    def test_goodput_slo_filters(self):
        trace = poisson_trace(n_requests=10, rate_rps=0.5, prompt=SHORT,
                              output=SHORT, seed=11)
        report = simulate_trace(tiny_design(), TINY_GQA, trace)
        assert report.goodput_rps() == pytest.approx(
            report.request_rate_rps)
        assert report.goodput_rps(ttft_slo_s=0.0) == 0.0

    def test_summary_keys(self):
        trace = steady_trace(n_requests=3, rate_rps=1.0, prompt=SHORT,
                             output=SHORT)
        report = simulate_trace(tiny_design(), TINY_GQA, trace)
        summary = report.summary()
        for key in ("design", "goodput_rps", "p99_latency_s",
                    "mean_ttft_s", "mean_tpot_s"):
            assert key in summary

    def test_percentiles_ordered(self):
        trace = poisson_trace(n_requests=20, rate_rps=1.0, prompt=SHORT,
                              output=SHORT, seed=13)
        report = simulate_trace(tiny_design(), TINY_GQA, trace)
        assert report.p50_latency_s <= report.p99_latency_s
        assert report.ttft_percentile(50) <= report.ttft_percentile(99)


class TestQueueDelayAccounting:
    """ISSUE satellite: queue-wait time is recorded per request and
    surfaced as p50/p99 queue delay, not only folded into TTFT."""

    def test_queue_delay_recorded_per_request(self):
        # max_batch=1 serializes a burst: everyone but the first waits.
        trace = bursty_trace(n_requests=4, burst_size=4,
                             burst_period_s=60.0,
                             prompt=LengthSpec("fixed", value=16),
                             output=LengthSpec("fixed", value=8))
        report = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy="continuous", max_batch=1)
        delays = sorted(r.queue_delay_s for r in report.records)
        assert delays[0] == 0.0          # Head admitted immediately.
        assert delays[-1] > 0.0          # Tail provably waited.
        for record in report.records:
            assert record.queue_delay_s == pytest.approx(
                record.admitted_s - record.request.arrival_s)
            # Queue delay is the admission share of TTFT.
            assert record.queue_delay_s <= record.ttft_s + 1e-12

    def test_percentiles_and_summary_surface_queue_delay(self):
        trace = bursty_trace(n_requests=6, burst_size=6,
                             burst_period_s=60.0, prompt=SHORT,
                             output=SHORT, seed=2)
        report = simulate_trace(tiny_design(), TINY_GQA, trace,
                                policy="continuous", max_batch=2)
        assert report.p50_queue_delay_s <= report.p99_queue_delay_s
        assert report.queue_delay_percentile(100) >= \
            report.mean_queue_delay_s
        summary = report.summary()
        assert summary["p50_queue_delay_s"] == report.p50_queue_delay_s
        assert summary["p99_queue_delay_s"] == report.p99_queue_delay_s

    def test_static_batching_has_worse_tail_queue_delay(self):
        """Head-of-line accounting exposes run-to-drain's queueing."""
        trace = bursty_trace(n_requests=24, burst_size=12,
                             burst_period_s=30.0, prompt=SHORT,
                             output=SHORT, seed=5)
        reports = {policy: simulate_trace(tiny_design(), TINY_GQA, trace,
                                          policy=policy, max_batch=4)
                   for policy in ("continuous", "static")}
        assert reports["continuous"].p99_queue_delay_s <= \
            reports["static"].p99_queue_delay_s


class TestTraceDeterminism:
    """ISSUE satellite: generators are pure functions of their seed."""

    def test_same_seed_same_trace(self):
        for make in (
            lambda s: poisson_trace(n_requests=40, rate_rps=2.0, seed=s),
            lambda s: steady_trace(n_requests=40, rate_rps=2.0, seed=s),
            lambda s: bursty_trace(n_requests=40, burst_size=8,
                                   burst_period_s=30.0, jitter_s=2.0,
                                   seed=s),
        ):
            assert make(7) == make(7)  # Requests are frozen dataclasses.

    def test_different_seed_different_trace(self):
        a = poisson_trace(n_requests=40, rate_rps=2.0, seed=1)
        b = poisson_trace(n_requests=40, rate_rps=2.0, seed=2)
        assert a != b

    def test_poisson_offered_load_near_target(self):
        trace = poisson_trace(n_requests=600, rate_rps=2.0, seed=3)
        assert offered_load_rps(trace) == pytest.approx(2.0, rel=0.15)

    def test_bursty_offered_load_near_target(self):
        # 10-request bursts every 10 s offer 1 req/s on average.
        trace = bursty_trace(n_requests=400, burst_size=10,
                             burst_period_s=10.0, jitter_s=1.0, seed=4)
        assert offered_load_rps(trace) == pytest.approx(1.0, rel=0.15)

    def test_steady_offered_load_exact(self):
        trace = steady_trace(n_requests=41, rate_rps=4.0)
        assert offered_load_rps(trace) == pytest.approx(4.0)


class TestExplicitGenerators:
    """ISSUE satellite: every generator takes an explicit
    numpy.random.Generator, with no module-level seeding."""

    KWARGS = dict(n_requests=40, burst_size=8, burst_period_s=30.0,
                  jitter_s=2.0)

    def test_bursty_explicit_rng_matches_seed(self):
        """Determinism regression for bursty traces: an explicit
        generator reproduces the seed path bit-for-bit."""
        import numpy as np
        from_seed = bursty_trace(seed=7, **self.KWARGS)
        from_rng = bursty_trace(rng=np.random.default_rng(7),
                                **self.KWARGS)
        assert from_seed == from_rng

    def test_explicit_rng_everywhere(self):
        import numpy as np
        for make, kwargs in (
            (poisson_trace, dict(n_requests=20, rate_rps=2.0)),
            (steady_trace, dict(n_requests=20, rate_rps=2.0)),
            (bursty_trace, self.KWARGS),
        ):
            a = make(rng=np.random.default_rng(11), **kwargs)
            b = make(rng=np.random.default_rng(11), **kwargs)
            assert a == b

    def test_shared_rng_advances_state(self):
        """One generator across calls draws a continuous stream — the
        two traces must differ (no hidden reseeding)."""
        import numpy as np
        rng = np.random.default_rng(3)
        a = bursty_trace(rng=rng, **self.KWARGS)
        b = bursty_trace(rng=rng, **self.KWARGS)
        assert a != b

    def test_module_state_untouched(self):
        """Generators never touch numpy's global RNG."""
        import numpy as np
        np.random.seed(123)
        before = np.random.get_state()[1].copy()
        bursty_trace(seed=9, **self.KWARGS)
        poisson_trace(n_requests=10, rate_rps=1.0, seed=9)
        after = np.random.get_state()[1]
        assert (before == after).all()

    def test_rejects_non_generator(self):
        with pytest.raises(ConfigError, match="Generator"):
            poisson_trace(n_requests=5, rate_rps=1.0, rng=123)

    def test_prefix_spec_traces_deterministic_and_valid(self):
        from repro.serve import PrefixSpec
        prefix = PrefixSpec(share=0.5, n_groups=3,
                            length=LengthSpec("fixed", value=32),
                            dup_share=0.5)
        a = poisson_trace(n_requests=60, rate_rps=2.0, seed=4,
                          prefix=prefix)
        b = poisson_trace(n_requests=60, rate_rps=2.0, seed=4,
                          prefix=prefix)
        assert a == b
        shared = [r for r in a if r.prefix_group is not None]
        assert 0 < len(shared) < len(a)
        for r in shared:
            assert 1 <= r.prefix_len <= r.prompt_len
        assert any(r.prefix_len == r.prompt_len for r in shared)  # Dups.

    def test_prefix_spec_validation(self):
        from repro.serve import PrefixSpec
        with pytest.raises(ConfigError):
            PrefixSpec(share=1.5)
        with pytest.raises(ConfigError):
            PrefixSpec(n_groups=0)
        with pytest.raises(ConfigError):
            PrefixSpec(dup_share=-0.1)

    def test_request_prefix_validation(self):
        from repro.serve import Request
        with pytest.raises(ConfigError):
            Request(req_id=0, arrival_s=0.0, prompt_len=16, output_len=4,
                    prefix_len=8)  # prefix without a group
        with pytest.raises(ConfigError):
            Request(req_id=0, arrival_s=0.0, prompt_len=16, output_len=4,
                    prefix_group=1, prefix_len=20)  # prefix > prompt


class TestMetricsEdgeCases:
    """ISSUE satellite: zero-completion reports and metric validation."""

    @staticmethod
    def _empty_report():
        from repro.serve import ServingReport
        return ServingReport(design="Mugi", scheduler="continuous")

    def test_zero_completion_rates_are_zero(self):
        report = self._empty_report()
        assert report.completed == 0
        assert report.goodput_rps() == 0.0
        assert report.goodput_rps(ttft_slo_s=1.0, tpot_slo_s=0.1) == 0.0
        assert report.request_rate_rps == 0.0
        assert report.throughput_tokens_s == 0.0
        assert report.energy_per_token_j == 0.0
        assert report.comm_fraction == 0.0

    def test_zero_completion_latency_stats_raise_clearly(self):
        report = self._empty_report()
        for stat in ("p50_latency_s", "p99_latency_s", "mean_ttft_s",
                     "mean_tpot_s"):
            with pytest.raises(ConfigError, match="no completed"):
                getattr(report, stat)
        with pytest.raises(ConfigError, match="no completed"):
            report.ttft_percentile(50)

    def test_zero_completion_summary_is_defined(self):
        summary = self._empty_report().summary()
        assert summary["completed"] == 0
        assert summary["goodput_rps"] == 0.0
        for key in ("p50_latency_s", "p99_latency_s", "mean_ttft_s",
                    "mean_tpot_s"):
            assert summary[key] is None

    def test_percentile_validates_q(self):
        from repro.serve import percentile
        for q in (-1.0, 100.5, float("nan")):
            with pytest.raises(ConfigError, match=r"\[0, 100\]"):
                percentile([1.0, 2.0], q)
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0
        with pytest.raises(ConfigError, match="empty"):
            percentile([], 50)

    def test_tpot_zero_for_single_token_outputs(self):
        from repro.serve import Request, RequestRecord
        request = Request(req_id=0, arrival_s=0.0, prompt_len=16,
                          output_len=1)
        record = RequestRecord(request=request, admitted_s=0.0,
                               first_token_s=0.5, finish_s=0.5)
        assert record.tpot_s == 0.0
        assert record.latency_s == pytest.approx(0.5)

    def test_single_token_output_served_end_to_end(self):
        trace = steady_trace(n_requests=3, rate_rps=1.0,
                             prompt=LengthSpec("fixed", value=16),
                             output=LengthSpec("fixed", value=1))
        report = simulate_trace(tiny_design(), TINY_GQA, trace)
        assert report.completed == 3
        assert all(r.tpot_s == 0.0 for r in report.records)
        assert report.mean_tpot_s == 0.0


class TestServeModelSlice:
    def test_sweep_model_is_gqa8(self):
        from repro.analysis.experiments.serving_load_sweep import SERVE_MODEL
        assert SERVE_MODEL.gqa_group == 8
        assert SERVE_MODEL.n_layers == 4

    def test_tiny_model_is_gqa8(self):
        assert TINY_GQA.gqa_group == 8


class TestGoodputBoundarySemantics:
    """ISSUE satellite: the SLO boundary is inclusive, and undefined
    (NaN) latency statistics never satisfy a bounded SLO."""

    @staticmethod
    def _report(records):
        from repro.serve import ServingReport
        return ServingReport(design="Mugi", scheduler="paged",
                             records=list(records), makespan_s=10.0)

    @staticmethod
    def _record(req_id, ttft, tpot=0.1, tenant=0, output_len=5):
        from repro.serve import Request, RequestRecord
        request = Request(req_id=req_id, arrival_s=0.0, prompt_len=16,
                          output_len=output_len, tenant=tenant)
        return RequestRecord(request=request, admitted_s=0.0,
                             first_token_s=ttft,
                             finish_s=ttft + tpot * (output_len - 1))

    def test_slo_boundary_is_inclusive(self):
        # A request *exactly at* the SLO counts as good: the SLO names
        # the worst acceptable value, not the first bad one.
        report = self._report([self._record(0, ttft=2.0, tpot=0.5)])
        assert report.good_completions(ttft_slo_s=2.0) == 1
        assert report.good_completions(ttft_slo_s=1.9999) == 0
        assert report.good_completions(tpot_slo_s=0.5) == 1
        assert report.good_completions(tpot_slo_s=0.4999) == 0
        assert report.goodput_rps(ttft_slo_s=2.0, tpot_slo_s=0.5) \
            == pytest.approx(0.1)

    def test_nan_stat_never_meets_a_bounded_slo(self):
        nan = float("nan")
        report = self._report([self._record(0, ttft=nan),
                               self._record(1, ttft=1.0)])
        # Unbounded: every completion counts, NaN or not.
        assert report.good_completions() == 2
        # Bounded: the NaN-TTFT record is excluded explicitly, however
        # loose the limit — not dropped by a silent NaN comparison.
        assert report.good_completions(ttft_slo_s=1e18) == 1
        assert report.good_completions(ttft_slo_s=1.0) == 1

    def test_tenant_slo_overrides_global_args(self):
        from repro.serve import TenantSLO
        report = self._report([self._record(0, ttft=5.0, tenant=0),
                               self._record(1, ttft=5.0, tenant=1)])
        slos = (TenantSLO(tenant=0, ttft_slo_s=10.0),)
        # Tenant 0 is judged solely by its own (looser) spec; tenant 1
        # falls back to the global limit and misses it.
        assert report.good_completions(ttft_slo_s=1.0, slos=slos) == 1
        # A spec with no TTFT term lifts the bound for its tenant.
        open_slos = (TenantSLO(tenant=1, tpot_slo_s=1.0),)
        assert report.good_completions(ttft_slo_s=1.0,
                                       slos=open_slos) == 1

    def test_utilization_alias_and_empty_report_guard(self):
        from repro.serve import ServingReport
        empty = ServingReport(design="Mugi", scheduler="continuous")
        # ISSUE satellite: zero-makespan reports read 0, not a
        # ZeroDivisionError (and never inf).
        assert empty.makespan_s == 0.0
        assert empty.busy_fraction == 0.0
        assert empty.utilization == 0.0
        busy = ServingReport(design="Mugi", scheduler="continuous",
                             makespan_s=8.0, busy_seconds=2.0)
        assert busy.busy_fraction == pytest.approx(0.25)
        # ``utilization`` is the cluster layer's name for the same stat.
        assert busy.utilization == busy.busy_fraction
