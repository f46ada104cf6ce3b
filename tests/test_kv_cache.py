"""BlockManager unit + property tests.

The conservation invariant (free + live + cached partitions the pool,
refcounts >= 1 for live blocks, refcounts equal block-table holds) is
checked after every operation of a randomized admit/extend/free/swap
interleaving — the ISSUE's refcount property test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.serve import BlockManager, Request

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)

#: One block of 16 tokens for this model.
BLOCK_BYTES = TINY_GQA.kv_cache_bytes(seq_len=16, batch=1, bits=4)


def make_pool(blocks: int, block_size: int = 16) -> BlockManager:
    capacity = blocks * TINY_GQA.kv_cache_bytes(seq_len=block_size,
                                                batch=1, bits=4)
    return BlockManager(TINY_GQA, capacity, block_size=block_size)


def req(req_id, prompt=32, output=16, group=None, prefix=0):
    return Request(req_id=req_id, arrival_s=0.0, prompt_len=prompt,
                   output_len=output, prefix_group=group,
                   prefix_len=prefix)


class TestAllocation:
    def test_pool_sizing(self):
        pool = make_pool(8)
        assert pool.num_blocks == 8
        assert pool.free_blocks == 8
        assert pool.capacity_bytes == pytest.approx(8 * BLOCK_BYTES)
        with pytest.raises(ConfigError):
            BlockManager(TINY_GQA, BLOCK_BYTES / 2)  # No whole block.

    @pytest.mark.parametrize("capacity", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(ConfigError, match="capacity_bytes must be "
                                              "finite and positive"):
            BlockManager(TINY_GQA, capacity)

    def test_extend_allocates_by_block(self):
        pool = make_pool(8)
        pool.begin_sequence(0, req(0))
        assert pool.extend(0, 20)
        assert pool.live_blocks == 2  # ceil(20 / 16)
        assert pool.extend(0, 12)
        assert pool.live_blocks == 2  # 32 tokens still fit 2 blocks.
        assert pool.extend(0, 1)
        assert pool.live_blocks == 3
        pool.check_invariants()

    def test_extend_all_or_nothing(self):
        pool = make_pool(2)
        pool.begin_sequence(0, req(0))
        assert not pool.extend(0, 33)  # Needs 3 blocks, pool has 2.
        assert pool.live_blocks == 0
        assert pool.extend(0, 32)
        pool.check_invariants()

    def test_free_returns_blocks(self):
        pool = make_pool(4)
        pool.begin_sequence(0, req(0))
        pool.extend(0, 40)
        pool.free_sequence(0)
        assert pool.free_blocks == 4
        assert pool.live_blocks == 0
        pool.check_invariants()

    def test_utilization_counts_live_only(self):
        pool = make_pool(4)
        pool.begin_sequence(0, req(0))
        pool.extend(0, 16)
        assert pool.utilization == 0.25
        assert pool.used_bytes == pytest.approx(BLOCK_BYTES)


class TestPrefixCaching:
    def test_second_request_hits_shared_blocks(self):
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=80, group=7, prefix=64))
        pool.extend(0, 80)
        assert pool.begin_sequence(1, req(1, prompt=80, group=7,
                                          prefix=64)) == 64
        # 4 shared blocks + 0-token tail for seq 1 so far.
        assert pool.live_blocks == 5 + 4 - 4  # 5 for seq0, 4 shared.
        pool.check_invariants()
        assert pool.stats.prefix_hit_rate == pytest.approx(64 / 160)

    def test_other_group_misses(self):
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=80, group=7, prefix=64))
        pool.extend(0, 80)
        assert pool.begin_sequence(1, req(1, prompt=80, group=8,
                                          prefix=64)) == 0

    def test_freed_prefix_blocks_stay_cached_and_hit(self):
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=80, group=7, prefix=64))
        pool.extend(0, 80)
        pool.free_sequence(0)
        assert pool.cached_blocks == 4  # Prefix blocks retained...
        assert pool.free_blocks == 16 - 4
        assert pool.begin_sequence(1, req(1, prompt=96, group=7,
                                          prefix=64)) == 64  # ...and hit.
        assert pool.cached_blocks == 0
        pool.check_invariants()

    def test_cached_blocks_evict_lru_under_pressure(self):
        pool = make_pool(6)
        pool.begin_sequence(0, req(0, prompt=64, group=1, prefix=64))
        pool.extend(0, 64)
        pool.free_sequence(0)
        assert pool.cached_blocks == 4
        # A private 6-block request must evict cached prefix blocks.
        pool.begin_sequence(1, req(1, prompt=96))
        assert pool.extend(1, 96)
        assert pool.stats.evictions >= 2
        pool.check_invariants()

    def test_full_prompt_hit_capped_at_prompt_minus_one(self):
        """An exact re-ask still recomputes its last token."""
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=64, group=3, prefix=64))
        pool.extend(0, 64)
        cached = pool.begin_sequence(1, req(1, prompt=64, group=3,
                                            prefix=64))
        assert cached == 63
        assert pool.extend(1, 1)  # Recompute token 63.
        assert pool.tokens_of(1) == 64
        pool.check_invariants()

    def test_copy_on_write_on_shared_tail_block(self):
        """Decoding past a fully shared prompt writes into a shared
        block -> the writer gets a private copy."""
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=40, group=3, prefix=40))
        pool.extend(0, 40)  # Blocks 0, 1 full+hashed; block 2 partial.
        cached = pool.begin_sequence(1, req(1, prompt=40, group=3,
                                            prefix=40))
        assert cached == 32  # Two full shared blocks.
        before = pool.stats.cow_copies
        assert pool.extend(1, 8)  # Tokens 32..40 land in shared block 1?
        # Writing position 32 opens a fresh block (block hit ends at a
        # boundary) — no COW here.
        assert pool.stats.cow_copies == before
        # But an exact re-ask of a 33-token prefix shares a *full* block
        # it must then write into:
        pool2 = make_pool(16)
        pool2.begin_sequence(0, req(0, prompt=32, group=5, prefix=32))
        pool2.extend(0, 32)           # Two full hashed blocks.
        cached = pool2.begin_sequence(1, req(1, prompt=32, group=5,
                                             prefix=32))
        assert cached == 31
        assert pool2.extend(1, 1)     # Recompute token 31 -> COW.
        assert pool2.stats.cow_copies == 1
        pool2.check_invariants()

    def test_sole_holder_rewrite_keeps_hash(self):
        """Recomputing the capped last prefix token writes identical
        content, so the hash entry survives for later group members."""
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=32, group=5, prefix=32))
        pool.extend(0, 32)
        pool.free_sequence(0)
        cached = pool.begin_sequence(1, req(1, prompt=32, group=5,
                                            prefix=32))
        assert cached == 31
        pool.extend(1, 1)  # Sole holder: write in place, keep the hash.
        pool.check_invariants()
        assert pool.begin_sequence(2, req(2, prompt=32, group=5,
                                          prefix=32)) == 31

    def test_partial_block_not_hashed_until_fully_written(self):
        """A chunk boundary mid-block must not publish a half-built
        block: peers miss until the block's prefix KV is complete."""
        pool = make_pool(16)
        pool.begin_sequence(0, req(0, prompt=64, group=2, prefix=32))
        pool.extend(0, 8)  # Half of block 0.
        assert pool.begin_sequence(1, req(1, prompt=64, group=2,
                                          prefix=32)) == 0
        pool.free_sequence(1)
        pool.extend(0, 8)  # Block 0 complete -> hashed.
        assert pool.begin_sequence(2, req(2, prompt=64, group=2,
                                          prefix=32)) == 16
        pool.free_sequence(2)
        pool.extend(0, 48)  # Finish the prompt; block 1 hashed too.
        assert pool.begin_sequence(3, req(3, prompt=64, group=2,
                                          prefix=32)) == 32
        # Completing a half-shared block costs the owner nothing extra.
        assert pool.stats.cow_copies == 0
        pool.check_invariants()


class TestSwap:
    def test_swap_roundtrip_conserves_pool(self):
        pool = make_pool(8)
        pool.begin_sequence(0, req(0))
        pool.extend(0, 40)
        moved_out = pool.swap_out(0)
        assert moved_out == pytest.approx(40 * pool.bytes_per_token)
        assert pool.live_blocks == 0
        moved_in = pool.swap_in(0, 40)
        assert moved_in == pytest.approx(moved_out)
        assert pool.tokens_of(0) == 40
        pool.check_invariants()

    def test_swap_in_refuses_when_full(self):
        pool = make_pool(4)
        pool.begin_sequence(0, req(0))
        pool.extend(0, 64)
        assert pool.swap_in(99, 16) is None


class TestSharded:
    def test_for_design_scales_by_kv_shard_factor(self):
        from repro.arch import make_design
        from repro.parallel import ParallelConfig, ShardedSystem

        per_chip = 8 * BLOCK_BYTES
        chip = make_design("mugi", 64)
        single = BlockManager.for_design(chip, TINY_GQA, per_chip)
        assert single.num_blocks == 8
        pod = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=2, pp=2,
                                                           microbatches=4))
        assert pod.kv_shard_factor == 4
        sharded = BlockManager.for_design(pod, TINY_GQA, per_chip)
        assert sharded.num_blocks == 32
        # TP beyond the KV-head cap replicates instead of splitting.
        wide = ShardedSystem(chip, TINY_GQA, ParallelConfig(tp=8))
        assert wide.kv_shard_factor == TINY_GQA.n_kv_heads


#: Randomized op stream: (op kind, request template index, token count).
_OPS = st.lists(
    st.tuples(st.sampled_from(["begin", "extend", "free", "swap_out",
                               "swap_in"]),
              st.integers(0, 5), st.integers(1, 40)),
    min_size=1, max_size=60)


class TestInvariantsProperty:
    @given(ops=_OPS, blocks=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_random_interleavings(self, ops, blocks):
        """ISSUE acceptance: allocated + cached + free == total and
        refcounts >= 1 for live blocks, under randomized admit/extend/
        free/swap sequences (failed allocations included)."""
        pool = make_pool(blocks)
        live: dict[int, int] = {}     # seq -> tokens
        swapped: dict[int, int] = {}
        for kind, template, tokens in ops:
            if kind == "begin" and template not in live \
                    and template not in swapped:
                group = template % 3 if template % 2 else None
                prompt = max(2, tokens)
                prefix = min(prompt, 16) if group is not None else 0
                cached = pool.begin_sequence(
                    template, req(template, prompt=prompt, group=group,
                                  prefix=prefix))
                live[template] = cached
            elif kind == "extend" and template in live:
                if pool.extend(template, tokens):
                    live[template] += tokens
            elif kind == "free" and template in live:
                pool.free_sequence(template)
                del live[template]
            elif kind == "swap_out" and template in live:
                pool.swap_out(template)
                swapped[template] = live.pop(template)
            elif kind == "swap_in" and template in swapped:
                # 0-token swap-ins (begun, never extended) must round-
                # trip faithfully: a block is held, no tokens appear.
                if pool.swap_in(template, swapped[template]) is not None:
                    live[template] = swapped.pop(template)
            pool.check_invariants()
            for seq, tokens_held in live.items():
                assert pool.tokens_of(seq) == tokens_held
