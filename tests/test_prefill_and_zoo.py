"""Prefill-phase simulation and model-zoo caching tests."""

import pytest

from repro.analysis.model_zoo import get_lm, quick_lm
from repro.arch import make_design, simulate_workload
from repro.llm import LLAMA2_7B, build_decode_ops, build_prefill_ops


class TestPrefillSimulation:
    @pytest.fixture(scope="class")
    def results(self):
        design = make_design("mugi", 256)
        prefill_ops = build_prefill_ops(LLAMA2_7B, batch=1, seq_len=512)
        decode_ops = build_decode_ops(LLAMA2_7B, batch=1, seq_len=512)
        return {
            "prefill": simulate_workload(design, prefill_ops,
                                         tokens_per_step=512),
            "decode": simulate_workload(design, decode_ops,
                                        tokens_per_step=1),
        }

    def test_prefill_processes_tokens_in_parallel(self, results):
        """Prefill's large-m GEMMs fill all 8 columns, vs 1 of 8 during
        single-sequence decode — an ~8x per-token throughput gain (Mugi's
        token parallelism is its column count)."""
        ratio = (results["prefill"].throughput_tokens_s
                 / results["decode"].throughput_tokens_s)
        assert 5.0 < ratio < 10.0

    def test_prefill_step_longer_than_decode_step(self, results):
        assert results["prefill"].step_seconds > \
            results["decode"].step_seconds

    def test_prefill_weights_read_once(self, results):
        """Prefill reads the weights once for all 512 tokens; decode
        reads them once per token — per-token HBM is ~512x apart."""
        prefill_per_token = results["prefill"].hbm_bytes / 512
        decode_per_token = results["decode"].hbm_bytes
        assert decode_per_token > 50 * prefill_per_token

    def test_prefill_energy_per_token_lower(self, results):
        assert results["prefill"].energy_per_token_j < \
            results["decode"].energy_per_token_j

    def test_prefill_on_systolic_high_utilization(self):
        """Large-m prefill restores the systolic array's utilization, so
        the Mugi-vs-SA gap narrows vs decode (the small-batch story in
        reverse)."""
        prefill_ops = build_prefill_ops(LLAMA2_7B, batch=1, seq_len=512)
        mugi = simulate_workload(make_design("mugi", 256), prefill_ops,
                                 tokens_per_step=512)
        sa = simulate_workload(make_design("sa", 16), prefill_ops,
                               tokens_per_step=512)
        decode_ops = build_decode_ops(LLAMA2_7B, batch=8, seq_len=512)
        mugi_d = simulate_workload(make_design("mugi", 256), decode_ops,
                                   tokens_per_step=8)
        sa_d = simulate_workload(make_design("sa", 16), decode_ops,
                                 tokens_per_step=8)
        prefill_gap = mugi.throughput_tokens_s / sa.throughput_tokens_s
        decode_gap = mugi_d.throughput_tokens_s / sa_d.throughput_tokens_s
        assert prefill_gap < decode_gap


class TestModelZoo:
    def test_lm_cached_per_configuration(self):
        a = get_lm(steps=120)
        b = get_lm(steps=120)
        assert a is b  # lru_cache returns the same trained instance.

    def test_one_model_per_configuration_however_spelled(self):
        # quick_lm() spells out n_layers and seed; the cache key must not
        # depend on that, or the same 120-step model trains twice.
        assert quick_lm() is get_lm(steps=120)
        assert get_lm(120, 2, 0) is get_lm(steps=120)

    def test_different_steps_different_models(self):
        a = get_lm(steps=120)
        b = get_lm(steps=121)
        assert a is not b
