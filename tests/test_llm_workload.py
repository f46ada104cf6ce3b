"""Tests for Table 1 configs and operator-graph construction."""

from dataclasses import replace

import pytest

from repro.arch import GemmOp, NonlinearOp
from repro.errors import ConfigError
from repro.llm import (
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA2_70B_GQA,
    LLAMA2_7B,
    MODELS,
    WHISPER_TINY,
    build_decode_ops,
    build_paged_step_ops,
    build_prefill_ops,
    gemm_macs,
    get_model,
    nonlinear_elements,
)


class TestConfigs:
    def test_param_counts_match_names(self):
        """The configs should actually be ~7B/13B/70B models."""
        assert LLAMA2_7B.param_count() == pytest.approx(6.9e9, rel=0.05)
        assert LLAMA2_13B.param_count() == pytest.approx(13.2e9, rel=0.05)
        assert LLAMA2_70B_GQA.param_count() == pytest.approx(69e9, rel=0.05)

    def test_gqa_group(self):
        assert LLAMA2_7B.gqa_group == 1
        assert LLAMA2_70B.gqa_group == 1
        assert LLAMA2_70B_GQA.gqa_group == 8  # Table 1: group size 8.

    def test_head_dim(self):
        assert LLAMA2_7B.head_dim == 128
        assert LLAMA2_70B_GQA.head_dim == 128

    def test_kv_cache_footprint(self):
        """70B GQA KV cache at 4 bits, seq 4096, batch 8."""
        bytes_ = LLAMA2_70B_GQA.kv_cache_bytes(seq_len=4096, batch=8, bits=4)
        # 2 * 80 layers * 8 heads * 128 dim * 4096 * 8 * 0.5B = 2.7 GB.
        assert bytes_ == pytest.approx(2.7e9, rel=0.05)
        # GQA shrinks the cache 8x vs MHA.
        mha = LLAMA2_70B.kv_cache_bytes(seq_len=4096, batch=8, bits=4)
        assert mha == pytest.approx(8 * bytes_, rel=0.01)

    def test_activation_per_family(self):
        assert LLAMA2_7B.activation == "silu" and LLAMA2_7B.gated_ffn
        assert WHISPER_TINY.activation == "gelu" and not WHISPER_TINY.gated_ffn
        with pytest.raises(ConfigError, match="relu"):
            replace(LLAMA2_7B, activation="relu")

    def test_registry(self):
        assert get_model("Llama2-7B") is LLAMA2_7B
        assert len(MODELS) == 9
        with pytest.raises(ConfigError):
            get_model("GPT-5")


class TestDecodeOps:
    def test_op_structure_per_layer(self):
        ops = build_decode_ops(LLAMA2_7B, batch=8, seq_len=1024,
                               include_lm_head=False)
        # 7 ops per layer: qkv, qk, softmax, pv, o, gate/up, silu, down.
        assert len(ops) == LLAMA2_7B.n_layers * 8

    def test_macs_match_weight_count(self):
        """Decode GEMM MACs ~= batch x (params - embeddings) + attention."""
        ops = build_decode_ops(LLAMA2_7B, batch=1, seq_len=1,
                               include_lm_head=False)
        macs = gemm_macs(ops)
        weight_macs = LLAMA2_7B.n_layers * (
            LLAMA2_7B.hidden_dim * (LLAMA2_7B.hidden_dim + 2 * LLAMA2_7B.kv_dim)
            + LLAMA2_7B.hidden_dim ** 2
            + 3 * LLAMA2_7B.hidden_dim * LLAMA2_7B.ffn_dim)
        assert macs == pytest.approx(weight_macs, rel=0.01)

    def test_attention_scales_with_seq_len(self):
        short = build_decode_ops(LLAMA2_7B, batch=8, seq_len=128)
        long = build_decode_ops(LLAMA2_7B, batch=8, seq_len=4096)
        short_attn = sum(op.macs * op.count for op in short
                         if isinstance(op, GemmOp)
                         and op.kind.startswith("attention"))
        long_attn = sum(op.macs * op.count for op in long
                        if isinstance(op, GemmOp)
                        and op.kind.startswith("attention"))
        assert long_attn == pytest.approx(32 * short_attn, rel=0.01)

    def test_gqa_groups_queries(self):
        ops = build_decode_ops(LLAMA2_70B_GQA, batch=8, seq_len=512)
        qk = [op for op in ops if isinstance(op, GemmOp)
              and op.kind == "attention_qk"]
        assert qk[0].m == 8            # The GQA group fills the columns.
        assert qk[0].count == 8 * 8    # One per (sequence, KV head).
        # Without GQA the same model decodes with GEMV attention.
        mha = [op for op in build_decode_ops(LLAMA2_70B, batch=8,
                                             seq_len=512)
               if isinstance(op, GemmOp) and op.kind == "attention_qk"]
        assert mha[0].m == 1 and mha[0].count == 8 * 64

    def test_softmax_rows(self):
        ops = build_decode_ops(LLAMA2_7B, batch=4, seq_len=256)
        sm = [op for op in ops if isinstance(op, NonlinearOp)
              and op.op == "softmax"][0]
        assert sm.rows == 4 * 32
        assert sm.elements == 4 * 32 * 256

    def test_gated_ffn_counts_twice(self):
        ops = build_decode_ops(LLAMA2_7B, batch=8, seq_len=128)
        gate = [op for op in ops if isinstance(op, GemmOp)
                and op.kind == "ffn" and op.n == LLAMA2_7B.ffn_dim][0]
        assert gate.count == 2  # Gate + up projections.

    def test_lm_head_optional(self):
        with_head = build_decode_ops(LLAMA2_7B, batch=8, seq_len=128)
        without = build_decode_ops(LLAMA2_7B, batch=8, seq_len=128,
                                   include_lm_head=False)
        assert len(with_head) == len(without) + 1
        assert with_head[-1].n == LLAMA2_7B.vocab_size

    def test_nonlinear_elements_helper(self):
        ops = build_decode_ops(LLAMA2_7B, batch=8, seq_len=128,
                               include_lm_head=False)
        expected = LLAMA2_7B.n_layers * (
            8 * 32 * 128 + 8 * LLAMA2_7B.ffn_dim)
        assert nonlinear_elements(ops) == expected

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            build_decode_ops(LLAMA2_7B, batch=0, seq_len=128)


class TestPrefillOps:
    def test_prefill_macs_exceed_decode(self):
        decode = gemm_macs(build_decode_ops(LLAMA2_7B, batch=1, seq_len=512))
        prefill = gemm_macs(build_prefill_ops(LLAMA2_7B, batch=1,
                                              seq_len=512))
        assert prefill > 400 * decode

    def test_prefill_attention_quadratic(self):
        p256 = build_prefill_ops(LLAMA2_7B, batch=1, seq_len=256)
        p512 = build_prefill_ops(LLAMA2_7B, batch=1, seq_len=512)

        def attn(ops):
            return sum(op.macs * op.count for op in ops
                       if isinstance(op, GemmOp)
                       and op.kind.startswith("attention"))

        assert attn(p512) == pytest.approx(4 * attn(p256), rel=0.01)

    def test_prefill_kv_resident(self):
        ops = build_prefill_ops(LLAMA2_7B, batch=1, seq_len=256)
        qk = [op for op in ops if isinstance(op, GemmOp)
              and op.kind == "attention_qk"][0]
        assert qk.weights_resident

    @pytest.mark.parametrize("config", [LLAMA2_70B_GQA, WHISPER_TINY],
                             ids=lambda config: config.name)
    @pytest.mark.parametrize("batch", [2, 5])
    def test_batched_prefill_is_whole_prompt_chunks(self, config, batch):
        """A batched prefill is the serving step of ``batch`` whole-prompt
        chunks without the LM head, for a gated SiLU FFN and a plain
        GELU one alike."""
        assert build_prefill_ops(config, batch=batch, seq_len=48) == \
            build_paged_step_ops(config, [], [(0, 48)] * batch,
                                 include_lm_head=False)
