"""Sharding tests: partitioner invariants, collectives, ShardedSystem."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import CollectiveOp, GemmOp, NonlinearOp, make_design
from repro.arch.simulator import simulate_workload
from repro.errors import ConfigError, MappingError, SimulationError
from repro.llm import (
    ModelConfig,
    build_serving_step_ops,
    build_sharded_step_ops,
    gemm_macs,
    nonlinear_elements,
)
from repro.parallel import (
    DEFAULT_INTERCONNECT,
    InterconnectConfig,
    ParallelConfig,
    ShardedSystem,
    classify_gemm,
    collective_seconds,
    collective_traffic_bytes,
    shard_gemm,
    shard_nonlinear,
)
from repro.serve import LengthSpec, poisson_trace, simulate_trace

#: A GQA-group-8 model small enough for fast sharding tests.
TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=4,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)

SHORT = LengthSpec("uniform", low=4, high=48)


def tiny_chip():
    return make_design("mugi", 64)


def kv_stream_bytes(ops) -> float:
    """KV-cache bytes streamed by the attention GEMMs of an op list."""
    return sum(op.weight_bytes * op.count for op in ops
               if isinstance(op, GemmOp) and not op.weights_resident
               and op.kind.startswith("attention"))


def weight_stream_bytes(ops) -> float:
    """All non-resident GEMM weight bytes of an op list."""
    return sum(op.weight_bytes * op.count for op in ops
               if isinstance(op, GemmOp) and not op.weights_resident)


class TestParallelConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ParallelConfig(tp=0)
        with pytest.raises(ConfigError):
            ParallelConfig(pp=0)
        with pytest.raises(ConfigError):
            ParallelConfig(microbatches=0)

    def test_chips_and_label(self):
        par = ParallelConfig(tp=4, pp=2)
        assert par.chips == 8
        assert not par.is_trivial
        assert par.label() == "TP4xPP2"
        assert ParallelConfig().is_trivial

    def test_pipeline_latency_factor(self):
        assert ParallelConfig(tp=8, pp=1).pipeline_latency_factor == 1.0
        # p stages, m microbatches: (p + m - 1) / (p * m).
        par = ParallelConfig(pp=4, microbatches=4)
        assert par.pipeline_latency_factor == pytest.approx(7 / 16)
        # The default 4p schedule always beats 1/p's double, never 1/p.
        auto = ParallelConfig(pp=4)
        assert 0.25 < auto.pipeline_latency_factor < 0.5


class TestCollectiveModel:
    def test_collective_op_validation(self):
        with pytest.raises(MappingError):
            CollectiveOp(kind="broadcast", bytes=8, participants=2)
        with pytest.raises(MappingError):
            CollectiveOp(kind="all_reduce", bytes=0, participants=2)
        with pytest.raises(MappingError):
            CollectiveOp(kind="all_reduce", bytes=8, participants=0)

    def test_interconnect_validation(self):
        with pytest.raises(ConfigError):
            InterconnectConfig(link_bandwidth_bytes=0)
        with pytest.raises(ConfigError):
            InterconnectConfig(link_latency_s=-1)

    @pytest.mark.parametrize("name", ["link_bandwidth_bytes",
                                      "link_latency_s",
                                      "energy_pj_per_byte", "nic_area_mm2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_interconnect_rejects_non_finite_constants(self, name, value):
        """A NaN latency used to surface only mid-run, as a sharded
        engine that "lost records" or a migrated request with a NaN
        arrival time; every constant now fails at construction."""
        with pytest.raises(ConfigError, match=name):
            InterconnectConfig(**{name: value})

    def test_interconnect_zero_is_the_floor(self):
        InterconnectConfig(link_latency_s=0.0, energy_pj_per_byte=0.0,
                           nic_area_mm2=0.0)
        with pytest.raises(ConfigError, match="link_bandwidth_bytes"):
            InterconnectConfig(link_bandwidth_bytes=0.0)

    def test_ring_all_reduce_terms(self):
        ic = InterconnectConfig(link_bandwidth_bytes=1e9,
                                link_latency_s=1e-6)
        op = CollectiveOp(kind="all_reduce", bytes=8e6, participants=4)
        # 2(N-1) steps of B/N bytes plus 2(N-1) latencies.
        expected = 6 * (2e6 / 1e9 + 1e-6)
        assert collective_seconds(op, ic) == pytest.approx(expected)
        assert collective_traffic_bytes(op) == pytest.approx(6 * 8e6)

    def test_all_gather_and_send_recv(self):
        ic = InterconnectConfig(link_bandwidth_bytes=1e9,
                                link_latency_s=0.0)
        gather = CollectiveOp(kind="all_gather", bytes=4e6, participants=4)
        assert collective_seconds(gather, ic) == pytest.approx(3e6 / 1e9)
        hop = CollectiveOp(kind="send_recv", bytes=4e6, participants=2)
        assert collective_seconds(hop, ic) == pytest.approx(4e6 / 1e9)

    def test_single_participant_is_free(self):
        op = CollectiveOp(kind="all_reduce", bytes=8, participants=1)
        assert collective_seconds(op, DEFAULT_INTERCONNECT) == 0.0
        assert collective_traffic_bytes(op) == 0.0


class TestShardRules:
    def test_classification(self):
        h = TINY_GQA.hidden_dim
        qkv = GemmOp(m=4, k=h, n=h + 2 * TINY_GQA.kv_dim)
        out = GemmOp(m=4, k=h, n=h)
        up = GemmOp(m=4, k=h, n=TINY_GQA.ffn_dim, kind="ffn")
        down = GemmOp(m=4, k=TINY_GQA.ffn_dim, n=h, kind="ffn")
        head = GemmOp(m=4, k=h, n=TINY_GQA.vocab_size)
        attn = GemmOp(m=8, k=32, n=100, kind="attention_qk", count=8)
        assert classify_gemm(qkv, TINY_GQA) == "column"
        assert classify_gemm(out, TINY_GQA) == "row"
        assert classify_gemm(up, TINY_GQA) == "column"
        assert classify_gemm(down, TINY_GQA) == "row"
        assert classify_gemm(head, TINY_GQA) == "lm_head"
        assert classify_gemm(attn, TINY_GQA) == "count"

    def test_qkv_shaped_vocab_skips_spurious_gather(self):
        """vocab_size == hidden_dim + 2*kv_dim must not make every QKV
        projection emit a per-layer logits all-gather."""
        weird = ModelConfig(name="Weird", family="llama2", n_layers=2,
                            n_heads=16, n_kv_heads=2, hidden_dim=512,
                            ffn_dim=1024, max_seq_len=1024,
                            vocab_size=512 + 2 * 64)
        qkv = GemmOp(m=4, k=512, n=512 + 2 * 64)
        assert classify_gemm(qkv, weird) == "column"
        _, collectives = shard_gemm(qkv, 4, classify_gemm(qkv, weird),
                                    weird)
        assert collectives == []

    def test_square_ffn_degrades_to_valid_row_split(self):
        """ffn_dim == hidden_dim makes up/down shapes coincide; both
        resolve to row-parallel (valid, just more communication) and the
        graph still conserves."""
        square = ModelConfig(name="Square", family="llama2", n_layers=2,
                             n_heads=8, n_kv_heads=8, hidden_dim=512,
                             ffn_dim=512, max_seq_len=1024,
                             vocab_size=1000)
        up = GemmOp(m=4, k=512, n=512, kind="ffn")
        assert classify_gemm(up, square) == "row"
        whole = build_serving_step_ops(square, [32, 48], [])
        step = build_sharded_step_ops(square, [32, 48], [],
                                      ParallelConfig(tp=4))
        assert gemm_macs(step.all_compute_ops()) == gemm_macs(whole)

    @pytest.mark.parametrize("tp", (1, 2, 3, 4, 7, 8))
    def test_column_split_conserves(self, tp):
        op = GemmOp(m=4, k=512, n=1030, kind="projection")
        shards, collectives = shard_gemm(op, tp, "column", TINY_GQA)
        assert sum(s.n for s in shards) == op.n
        assert shards[0].n == max(s.n for s in shards)  # Rank 0 critical.
        assert all(s.k == op.k and s.m == op.m for s in shards)
        assert collectives == []

    @pytest.mark.parametrize("tp", (2, 4, 8))
    def test_row_split_emits_all_reduce(self, tp):
        op = GemmOp(m=4, k=1024, n=512, kind="ffn", count=2)
        shards, collectives = shard_gemm(op, tp, "row", TINY_GQA)
        assert sum(s.k for s in shards) == op.k
        [reduce_op] = collectives
        assert reduce_op.kind == "all_reduce"
        assert reduce_op.bytes == op.m * op.n * 2
        assert reduce_op.participants == len(shards)
        assert reduce_op.count == op.count

    def test_count_split_caps_at_kv_heads(self):
        """Attention parallelism stops at n_kv_heads (2 for TINY_GQA):
        extra ranks idle instead of granting free speedup."""
        op = GemmOp(m=8, k=32, n=100, kind="attention_qk", count=6)
        shards, collectives = shard_gemm(op, 8, "count", TINY_GQA)
        assert [s.count for s in shards] == [3, 3]
        assert collectives == []

    def test_count_split_caps_at_instances(self):
        op = GemmOp(m=8, k=32, n=100, kind="attention_qk", count=1)
        shards, _ = shard_gemm(op, 8, "count", TINY_GQA)
        assert [s.count for s in shards] == [1]

    def test_lm_head_gathers_logits(self):
        op = GemmOp(m=5, k=512, n=1000, kind="projection")
        shards, collectives = shard_gemm(op, 4, "lm_head", TINY_GQA)
        assert sum(s.n for s in shards) == 1000
        [gather] = collectives
        assert gather.kind == "all_gather"
        assert gather.bytes == 5 * 1000 * 2

    @pytest.mark.parametrize("tp", (1, 2, 3, 5, 8, 16))
    def test_softmax_rows_never_zero(self, tp):
        op = NonlinearOp(op="softmax", elements=3 * 100, rows=3)
        shards = shard_nonlinear(op, tp)
        assert sum(s.elements for s in shards) == op.elements
        assert sum(s.rows for s in shards) == op.rows
        assert all(s.rows >= 1 and s.elements >= 1 for s in shards)

    def test_softmax_elements_follow_rows(self):
        """A rank owning 2 of 3 rows owns 2/3 of the elements — the
        critical rank's cost reflects whole reduction rows."""
        op = NonlinearOp(op="softmax", elements=300, rows=3)
        shards = shard_nonlinear(op, 2)
        assert [(s.rows, s.elements) for s in shards] == [(2, 200),
                                                          (1, 100)]

    def test_elementwise_split_conserves(self):
        op = NonlinearOp(op="silu", elements=1001)
        shards = shard_nonlinear(op, 4)
        assert sum(s.elements for s in shards) == 1001
        assert len(shards) == 4


@st.composite
def active_sets(draw):
    decode = draw(st.lists(st.integers(1, 300), min_size=0, max_size=6))
    min_prefill = 0 if decode else 1
    prefill = draw(st.lists(st.integers(1, 96), min_size=min_prefill,
                            max_size=3))
    return decode, prefill


class TestShardedGraphInvariants:
    """ISSUE satellite: any TP x PP partition conserves the graph."""

    @given(sets=active_sets(), tp=st.integers(1, 8), pp=st.integers(1, 4),
           aux=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, sets, tp, pp, aux):
        decode, prefill = sets
        parallel = ParallelConfig(tp=tp, pp=pp)
        whole = build_serving_step_ops(TINY_GQA, decode, prefill,
                                       include_aux_ops=aux)
        step = build_sharded_step_ops(TINY_GQA, decode, prefill, parallel,
                                      include_aux_ops=aux)
        sharded = step.all_compute_ops()
        assert gemm_macs(sharded) == gemm_macs(whole)
        assert nonlinear_elements(sharded) == nonlinear_elements(whole)
        assert kv_stream_bytes(sharded) == pytest.approx(
            kv_stream_bytes(whole))
        assert weight_stream_bytes(sharded) == pytest.approx(
            weight_stream_bytes(whole))

    @given(sets=active_sets())
    @settings(max_examples=10, deadline=None)
    def test_trivial_partition_is_the_unsharded_graph(self, sets):
        decode, prefill = sets
        step = build_sharded_step_ops(TINY_GQA, decode, prefill,
                                      ParallelConfig())
        assert step.rank_ops(0, 0) == \
            build_serving_step_ops(TINY_GQA, decode, prefill)
        assert step.collectives == []

    def test_stage_structure(self):
        step = build_sharded_step_ops(TINY_GQA, [32, 48], [64],
                                      ParallelConfig(tp=2, pp=4))
        assert len(step.shards) == 8
        hops = [c for c in step.collectives if c.kind == "send_recv"]
        assert len(hops) == 3  # pp - 1 boundaries.
        tokens = 2 + 64
        assert all(c.bytes == tokens * TINY_GQA.hidden_dim * 2
                   for c in hops)
        reduces = [c for c in step.collectives if c.kind == "all_reduce"]
        # Two row-parallel GEMMs (out-proj, FFN down) per layer.
        assert len(reduces) == 2 * TINY_GQA.n_layers

    def test_pp_beyond_layers_rejected(self):
        with pytest.raises(ConfigError):
            build_sharded_step_ops(TINY_GQA, [32], [],
                                   ParallelConfig(pp=8))
        with pytest.raises(ConfigError):
            ShardedSystem(tiny_chip(), TINY_GQA, ParallelConfig(pp=8))


class TestShardedSystem:
    def test_trivial_grid_reproduces_unsharded_cycles_exactly(self):
        """ISSUE satellite: TP=1 x PP=1 == the unsharded design."""
        chip = tiny_chip()
        pod = ShardedSystem(chip, TINY_GQA, ParallelConfig())
        ops = build_serving_step_ops(TINY_GQA, [32, 48, 100], [64])
        base = simulate_workload(chip, ops, tokens_per_step=4)
        triv = simulate_workload(pod, ops, tokens_per_step=4)
        assert triv.compute_seconds == base.compute_seconds
        assert triv.memory_seconds == base.memory_seconds
        assert triv.step_seconds == base.step_seconds
        assert triv.comm_seconds == 0.0
        assert triv.dynamic_energy_j == pytest.approx(
            base.dynamic_energy_j, rel=1e-12)
        assert triv.area_mm2 == base.area_mm2

    def test_comm_grows_with_tp_and_speedup_is_sublinear(self):
        chip = tiny_chip()
        ops = build_serving_step_ops(TINY_GQA, [32, 48, 100], [64])
        results = {}
        for tp in (1, 2, 4, 8):
            pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=tp))
            results[tp] = simulate_workload(pod, ops, tokens_per_step=4)
        comms = [results[tp].comm_seconds for tp in (1, 2, 4, 8)]
        assert comms[0] == 0.0
        assert all(a < b for a, b in zip(comms, comms[1:]))
        steps = [results[tp].step_seconds for tp in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(steps, steps[1:]))
        # No free speedup: 8 chips buy < 8x, and energy goes *up*.
        assert steps[0] / steps[-1] < 8
        assert results[8].dynamic_energy_j > results[1].dynamic_energy_j

    def test_attention_speedup_capped_at_kv_heads(self):
        """Past tp == n_kv_heads (2 here) attention stops improving."""
        chip = tiny_chip()
        ops = build_serving_step_ops(TINY_GQA, [64, 64, 100, 100], [])
        attn = {}
        for tp in (2, 8):
            pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=tp))
            r = simulate_workload(pod, ops, tokens_per_step=4)
            attn[tp] = r.cycles_by_kind["attention"]
        assert attn[8] == attn[2]

    def test_memory_roofline_capped_at_kv_heads(self):
        """Idle attention ranks grant no memory-bandwidth speedup: KV
        streaming time stops improving past tp == n_kv_heads."""
        chip = tiny_chip()
        # KV-dominated graph: long contexts, no LM head.
        ops = build_serving_step_ops(TINY_GQA, [2048] * 8, [],
                                     include_lm_head=False)
        mem = {}
        for tp in (2, 8):
            pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=tp))
            r = simulate_workload(pod, ops, tokens_per_step=8)
            mem[tp] = {
                "attention": sum(
                    pod.gemm_cost(op).hbm_bytes * op.count for op in ops
                    if isinstance(op, GemmOp)
                    and op.kind.startswith("attention")),
                "total_s": r.memory_seconds}
        # Attention (KV) effective bytes grow 4x at tp=8 to cancel the
        # 4x aggregate bandwidth the idle ranks would otherwise grant.
        assert mem[8]["attention"] == pytest.approx(
            4 * mem[2]["attention"])
        # KV-bound step: memory time improves far less than 4x.
        assert mem[8]["total_s"] > 0.5 * mem[2]["total_s"]

    def test_pipeline_memory_pays_the_bubble(self):
        """The memory path shares the compute path's pipeline
        concurrency limit instead of streaming bubble-free."""
        chip = tiny_chip()
        ops = build_serving_step_ops(TINY_GQA, [64, 64], [])
        par = ParallelConfig(pp=4)
        pod = ShardedSystem(chip, TINY_GQA, par)
        base = simulate_workload(chip, ops, tokens_per_step=2)
        piped = simulate_workload(pod, ops, tokens_per_step=2)
        # Two decode sequences allow only 2 micro-batches, so every op
        # runs at the m=2 bubble factor.
        assert piped.memory_seconds == pytest.approx(
            base.memory_seconds * par.pipeline_latency_factor_at(2))
        assert piped.compute_seconds == pytest.approx(
            base.compute_seconds * par.pipeline_latency_factor_at(2))

    def test_single_sequence_gets_no_pipeline_speedup(self):
        """A batch-1 decode step cannot micro-batch: the token crosses
        every stage serially, so pp grants no compute/memory speedup."""
        chip = tiny_chip()
        ops = build_serving_step_ops(TINY_GQA, [64], [])
        pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(pp=4))
        base = simulate_workload(chip, ops, tokens_per_step=1)
        piped = simulate_workload(pod, ops, tokens_per_step=1)
        assert piped.compute_seconds == pytest.approx(base.compute_seconds)
        assert piped.memory_seconds == pytest.approx(base.memory_seconds)
        assert piped.comm_seconds > 0  # Boundary hops remain real.
        assert piped.step_seconds > base.step_seconds

    def test_boundary_comm_is_pp_minus_one_crossings(self):
        """Total pipeline-boundary time equals pp - 1 activation hops,
        even for square-FFN geometry where extra GEMMs classify row."""
        from repro.arch import CollectiveOp as Coll
        square = ModelConfig(name="Square", family="llama2", n_layers=4,
                             n_heads=8, n_kv_heads=8, hidden_dim=512,
                             ffn_dim=512, max_seq_len=1024,
                             vocab_size=1000)
        for model in (TINY_GQA, square):
            pod = ShardedSystem(tiny_chip(), model,
                                ParallelConfig(tp=1, pp=2),
                                interconnect=DEFAULT_INTERCONNECT)
            ops = build_serving_step_ops(model, [32, 48], [],
                                         include_lm_head=False)
            r = simulate_workload(pod, ops, tokens_per_step=2)
            hop = Coll(kind="send_recv", bytes=2 * model.hidden_dim * 2,
                       participants=2)
            expected = collective_seconds(hop, DEFAULT_INTERCONNECT)
            assert r.comm_seconds == pytest.approx(expected), model.name

    def test_pipeline_bubble(self):
        chip = tiny_chip()
        ops = build_serving_step_ops(TINY_GQA, [32, 48], [])
        steps = {}
        for pp in (1, 2, 4):
            pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(pp=pp))
            steps[pp] = simulate_workload(pod, ops,
                                          tokens_per_step=2).step_seconds
        assert steps[4] < steps[2] < steps[1]
        assert steps[4] > steps[1] / 4  # The fill/drain bubble.

    def test_area_counts_nics(self):
        chip = tiny_chip()
        pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=4))
        expected = 4 * (chip.area_mm2
                        + DEFAULT_INTERCONNECT.nic_area_mm2)
        assert pod.area_mm2 == pytest.approx(expected)
        assert pod.leakage_w() > 4 * chip.leakage_w()

    def test_aggregate_hbm_bandwidth(self):
        chip = tiny_chip()
        pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=2, pp=2))
        assert pod.tech.hbm_bandwidth_bytes == \
            4 * chip.tech.hbm_bandwidth_bytes

    def test_comm_overlap_validation(self):
        with pytest.raises(ConfigError):
            ShardedSystem(tiny_chip(), TINY_GQA, ParallelConfig(),
                          comm_overlap=1.5)

    def test_step_time_never_beats_pure_comm(self):
        chip = tiny_chip()
        slow_link = InterconnectConfig(link_bandwidth_bytes=1e4)
        pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=8),
                            interconnect=slow_link, comm_overlap=1.0)
        ops = build_serving_step_ops(TINY_GQA, [32], [])
        r = simulate_workload(pod, ops, tokens_per_step=1)
        assert r.comm_seconds > max(r.compute_seconds, r.memory_seconds)
        assert r.step_seconds == pytest.approx(r.comm_seconds)

    def test_breakdown_shows_communication_share(self):
        """The 'collective' bucket carries comm as clock-equivalent
        cycles — visible in breakdowns, excluded from compute time."""
        pod = ShardedSystem(tiny_chip(), TINY_GQA, ParallelConfig(tp=4))
        ops = build_serving_step_ops(TINY_GQA, [32, 48], [])
        r = simulate_workload(pod, ops, tokens_per_step=2)
        assert r.cycles_by_kind["collective"] == pytest.approx(
            r.comm_seconds * pod.tech.frequency_hz)
        compute_buckets = sum(c for k, c in r.cycles_by_kind.items()
                              if k != "collective")
        assert r.compute_seconds == pytest.approx(
            compute_buckets * pod.tech.cycle_seconds)
        # Interconnect energy lands in the collective bucket too (not
        # under the GEMM that carried the all-reduce), and the buckets
        # still sum to the total.
        assert r.energy_by_kind["collective"] > 0
        assert sum(r.energy_by_kind.values()) * 1e-12 == pytest.approx(
            r.dynamic_energy_j)

    def test_plain_design_rejects_collectives(self):
        coll = CollectiveOp(kind="all_reduce", bytes=1024, participants=4)
        with pytest.raises(SimulationError, match="ShardedSystem"):
            simulate_workload(tiny_chip(), [coll], tokens_per_step=1)

    def test_explicit_collectives_price_on_pod(self):
        """A sharded graph's collective ops price via collective_cost."""
        pod = ShardedSystem(tiny_chip(), TINY_GQA, ParallelConfig(tp=2))
        step = build_sharded_step_ops(TINY_GQA, [32, 48], [],
                                      ParallelConfig(tp=2))
        r = simulate_workload(pod, list(step.collectives),
                              tokens_per_step=2)
        assert r.comm_seconds > 0
        assert r.compute_seconds == 0.0
        assert math.isfinite(r.step_seconds)
        assert r.energy_by_kind["collective"] > 0


class TestShardedServing:
    def test_gqa_trace_end_to_end_tp4(self):
        """ISSUE acceptance: simulate_trace on a ShardedSystem(tp=4)
        serves the PR 1 GQA serving trace end to end."""
        from repro.analysis.experiments.serving_load_sweep import (
            OUTPUT_SPEC,
            PROMPT_SPEC,
            SERVE_MODEL,
        )
        trace = poisson_trace(n_requests=30, rate_rps=0.32,
                              prompt=PROMPT_SPEC, output=OUTPUT_SPEC,
                              seed=0)
        chip = make_design("mugi", 256)
        pod = ShardedSystem(chip, SERVE_MODEL, ParallelConfig(tp=4))
        kv = SERVE_MODEL.kv_cache_bytes(seq_len=SERVE_MODEL.max_seq_len,
                                        batch=8) * pod.chips
        report = simulate_trace(pod, SERVE_MODEL, trace,
                                policy="continuous", max_batch=8,
                                kv_capacity_bytes=kv, seq_len_bucket=32)
        assert report.completed == 30
        assert report.comm_seconds > 0
        assert report.comm_fraction < 0.5
        single = simulate_trace(chip, SERVE_MODEL, trace,
                                policy="continuous", max_batch=8,
                                kv_capacity_bytes=kv, seq_len_bucket=32)
        assert report.mean_ttft_s < single.mean_ttft_s

    def test_pod_for_other_model_rejected(self):
        """A pod sharded for one model cannot silently serve another."""
        other = ModelConfig(name="Other", family="llama2", n_layers=2,
                            n_heads=8, n_kv_heads=8, hidden_dim=256,
                            ffn_dim=512, max_seq_len=1024, vocab_size=500)
        pod = ShardedSystem(tiny_chip(), other, ParallelConfig(tp=2))
        trace = poisson_trace(n_requests=2, rate_rps=1.0, prompt=SHORT,
                              output=SHORT, seed=0)
        with pytest.raises(ConfigError, match="sharded for"):
            simulate_trace(pod, TINY_GQA, trace)

    def test_sharded_pod_speeds_up_tiny_trace(self):
        trace = poisson_trace(n_requests=8, rate_rps=1.0, prompt=SHORT,
                              output=SHORT, seed=3)
        chip = tiny_chip()
        pods = {
            tp: ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=tp))
            for tp in (1, 4)}
        reports = {tp: simulate_trace(pod, TINY_GQA, trace, max_batch=4)
                   for tp, pod in pods.items()}
        assert reports[4].makespan_s < reports[1].makespan_s
        assert reports[4].comm_seconds > reports[1].comm_seconds == 0.0


class TestParallelScalingExperiment:
    def test_reduced_grid(self):
        from repro.analysis.experiments import parallel_scaling
        points = parallel_scaling.run(
            tp_degrees=(1, 2), pp_degrees=(1,),
            designs=(("mugi", 64),), model=TINY_GQA,
            rate_rps=1.0, n_requests=10, max_batch=4)
        assert len(points) == 2
        base, wide = sorted(points, key=lambda p: p.tp)
        assert wide.comm_seconds > base.comm_seconds == 0.0
        assert wide.chips == 2
        assert wide.goodput_rps >= base.goodput_rps
        assert wide.goodput_per_chip < base.goodput_per_chip
