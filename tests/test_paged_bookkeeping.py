"""Paged KV bookkeeping against the logic it replaced.

The paged scheduler probes a blocked queue head read-only
(``BlockManager.probe_admission``, which shares ``begin_sequence``'s
prefix walk), and extends every decoder in one ``extend_bulk`` call,
which bumps a tail block's token count without going through
``extend``.  These tests keep the replaced code as references — the
earlier ``begin_sequence``, the open-and-roll-back admission round
trip, the per-decoder ``extend(seq, 1)`` loop and the earlier
``extend_bulk`` — and check the new paths against them on random
pools: prefix groups, blocks shared by live sequences, cached
(refcount-0) prefix blocks, partial prefills and copy-on-write tails.
Equality is exact, down to the LRU order of the cached pool, the free
list, every refcount and the statistics.

The waiting queue is kept sorted on insert instead of re-sorted every
step.  The last classes check that it stays in policy order through
preemptions and swaps, and run the earlier planner — append, re-sort
before admission, open and roll back, one extend per decoder — as a
reference scheduler against the current one on whole traces.
"""

import copy
from dataclasses import astuple, replace
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.serve import (
    BlockManager,
    LengthSpec,
    PrefixSpec,
    Request,
    ServingCluster,
    ServingEngine,
    TenantSLO,
    make_scheduler,
    poisson_trace,
)
from repro.serve.policy import ChunkTask, PagedSequenceState
from repro.serve.scheduler import SCHEDULERS, StepPlan

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
BLOCK_SIZES = (1, 4, 16)


# -- references: the replaced logic ---------------------------------------

def reference_begin_sequence(manager, seq_id, request):
    """``begin_sequence`` with its own prefix walk, as it was."""
    if seq_id in manager._table:
        raise ConfigError(f"sequence {seq_id} already has a table")
    manager._table[seq_id] = []
    manager._prefix[seq_id] = (request.prefix_group, request.prefix_len)
    manager.stats.prefix_query_tokens += request.prompt_len
    cached = 0
    group = request.prefix_group
    if group is not None:
        max_cached = request.prompt_len - 1
        idx = 0
        while (idx + 1) * manager.block_size <= request.prefix_len and \
                idx * manager.block_size < max_cached:
            block = manager._block_of.get((group, idx))
            if block is None:
                break
            if block in manager._cached:
                del manager._cached[block]
                manager._ref[block] = 1
            else:
                manager._ref[block] += 1
            manager._table[seq_id].append(block)
            idx += 1
        cached = min(idx * manager.block_size, max_cached)
        manager.stats.prefix_hit_tokens += cached
    manager._tokens[seq_id] = cached
    return cached


def reference_probe(manager, seq_id, request):
    """Open the head, read what admission reads, then undo it as the
    scheduler's ``_rollback_admission`` did: free the table and
    subtract the prefix statistics back."""
    cached = reference_begin_sequence(manager, seq_id, request)
    result = (cached, manager.available_blocks, manager.max_extend(seq_id))
    manager.stats.prefix_query_tokens -= request.prompt_len
    manager.stats.prefix_hit_tokens -= cached
    manager.free_sequence(seq_id)
    return result


def reference_decode(manager, seq_ids):
    """One ``extend(seq, 1)`` per decoder, in order."""
    for seq_id in seq_ids:
        assert manager.extend(seq_id, 1)


def reference_extend_bulk(manager, grants):
    """``extend_bulk`` as it was: a demand pre-check, then one
    ``extend`` per grant."""
    need = 0
    for seq_id, n_tokens in grants:
        if n_tokens < 1:
            raise ConfigError("n_tokens must be positive")
        table = manager._table[seq_id]
        cur = manager._tokens[seq_id]
        need += max(0, manager.blocks_needed(cur + n_tokens) - len(table))
        if manager._needs_cow(seq_id, cur):
            need += 1
    if need > manager.available_blocks:
        return False
    for seq_id, n_tokens in grants:
        if not manager.extend(seq_id, n_tokens):
            raise ConfigError(
                "extend_bulk pre-check missed a block shortfall")
    return True


def snapshot(manager):
    """Every piece of pool state, orders included."""
    return (list(manager._free), list(manager._ref.items()),
            [(seq, list(table)) for seq, table in manager._table.items()],
            list(manager._tokens.items()), list(manager._prefix.items()),
            list(manager._hash_of.items()), list(manager._block_of.items()),
            list(manager._cached.items()), astuple(manager.stats))


# -- random pools ----------------------------------------------------------

def make_pool(blocks, size):
    capacity = blocks * TINY_GQA.kv_cache_bytes(seq_len=size, batch=1,
                                                bits=4)
    return BlockManager(TINY_GQA, capacity, block_size=size)


@st.composite
def prefix_requests(draw, req_id, size):
    """Private prompts, and prompts in one of three prefix groups —
    often a whole number of blocks, often exactly the prefix (a
    re-asked prompt, whose capped last token lands in a shared block)."""
    group = draw(st.sampled_from([None, 0, 1, 2]))
    if group is None:
        prompt, prefix = draw(st.integers(1, 5 * size)), 0
    else:
        prefix = draw(st.one_of(
            st.integers(1, 4).map(lambda blocks: blocks * size),
            st.integers(1, 4 * size)))
        prompt = prefix + draw(st.sampled_from([0, 0, 1, size, 2 * size]))
    return Request(req_id=req_id, arrival_s=0.0, prompt_len=prompt,
                   output_len=8, prefix_group=group, prefix_len=prefix)


@st.composite
def pools(draw):
    """A pool after a random history of admissions with partial first
    chunks, extends, releases and swap round trips.  Returns the pool,
    its resident sequence ids and the next unused id."""
    size = draw(st.sampled_from(BLOCK_SIZES))
    manager = make_pool(draw(st.integers(1, 24)), size)
    resident, next_id = [], 0
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["open", "open", "extend", "free", "swap"]),
        st.integers(0, 1000)), max_size=30))
    for kind, pick in ops:
        if kind == "open":
            request = draw(prefix_requests(next_id, size))
            cached = manager.begin_sequence(next_id, request)
            chunk = min(draw(st.integers(0, request.prompt_len)),
                        request.prompt_len - cached,
                        manager.max_extend(next_id))
            if chunk > 0:
                assert manager.extend(next_id, chunk)
            resident.append(next_id)
            next_id += 1
        elif resident:
            seq_id = resident[pick % len(resident)]
            if kind == "extend":
                manager.extend(seq_id, draw(st.integers(1, 2 * size)))
            elif kind == "free":
                manager.free_sequence(seq_id)
                resident.remove(seq_id)
            else:
                tokens = manager.tokens_of(seq_id)
                manager.swap_out(seq_id)
                if manager.swap_in(seq_id, tokens) is None:
                    resident.remove(seq_id)
    manager.check_invariants()
    return manager, resident, next_id


@st.composite
def probe_cases(draw):
    manager, _, next_id = draw(pools())
    return manager, draw(prefix_requests(next_id, manager.block_size))


@st.composite
def decode_cases(draw):
    manager, resident, _ = draw(pools())
    order = draw(st.permutations(resident))
    return manager, order[:draw(st.integers(0, len(order)))]


@st.composite
def bulk_cases(draw):
    manager, resident, _ = draw(pools())
    order = draw(st.permutations(resident))
    chosen = order[:draw(st.integers(0, len(order)))]
    size = manager.block_size
    # Often exactly fill the tail block: a write that completes a
    # prefix block publishes it, and one that starts in a shared tail
    # copies it.
    grants = [(seq_id, draw(st.one_of(
        st.integers(1, 3 * size),
        st.sampled_from([1, -manager.tokens_of(seq_id) % size or size]))))
        for seq_id in chosen]
    return manager, grants


# -- the differential properties --------------------------------------------

class TestAdmissionProbe:
    @settings(max_examples=200, deadline=None)
    @given(probe_cases())
    def test_begin_sequence_matches_replaced_walk(self, case):
        manager, request = case
        reference = copy.deepcopy(manager)
        assert manager.begin_sequence(request.req_id, request) == \
            reference_begin_sequence(reference, request.req_id, request)
        assert snapshot(manager) == snapshot(reference)
        manager.check_invariants()

    @settings(max_examples=400, deadline=None)
    @given(probe_cases())
    def test_matches_open_and_rollback(self, case):
        manager, request = case
        reference = copy.deepcopy(manager)
        assert manager.probe_admission(request) == \
            reference_probe(reference, request.req_id, request)
        assert snapshot(manager) == snapshot(reference)
        manager.check_invariants()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_memoized_probe_matches_a_fresh_walk(self, data):
        """Two pools take the same random begin, extend, free, swap and
        evict operations, with repeated probes of one queue head between
        them (and now and then of another request, or the head's
        admission).  The reference forgets its probe memo before every
        call, so it always walks; results and every piece of pool state
        — the cached pool's LRU order and the eviction count included —
        must match after each operation."""
        size = data.draw(st.sampled_from(BLOCK_SIZES))
        n_blocks = data.draw(st.integers(1, 24))
        memo, fresh = make_pool(n_blocks, size), make_pool(n_blocks, size)
        resident, next_id = [], 0

        def both(method, *args):
            fresh._probe_memo = None
            want = getattr(fresh, method)(*args)
            assert getattr(memo, method)(*args) == want, method
            assert snapshot(memo) == snapshot(fresh), method
            return want

        def draw_request():
            nonlocal next_id
            next_id += 1
            return data.draw(prefix_requests(next_id - 1, size))

        def open_sequence(request):
            seq_id = request.req_id
            cached = both("begin_sequence", seq_id, request)
            chunk = min(data.draw(st.integers(0, request.prompt_len)),
                        request.prompt_len - cached,
                        memo.max_extend(seq_id))
            if chunk > 0:
                assert both("extend", seq_id, chunk)
            resident.append(seq_id)

        head = draw_request()
        for _ in range(data.draw(st.integers(1, 40))):
            kind = data.draw(st.sampled_from(
                ["probe", "probe", "probe", "other", "admit", "open",
                 "extend", "free", "swap", "evict"]))
            if kind == "probe":
                both("probe_admission", head)
            elif kind == "other":
                both("probe_admission", draw_request())
            elif kind == "admit":
                both("probe_admission", head)
                open_sequence(head)
                head = draw_request()
            elif kind == "open":
                open_sequence(draw_request())
            elif resident:
                seq_id = resident[data.draw(
                    st.integers(0, len(resident) - 1))]
                if kind == "extend":
                    both("extend", seq_id, data.draw(
                        st.integers(1, 2 * size)))
                elif kind == "evict":
                    # Past the free list: the pool evicts cached blocks.
                    grow = min(memo.max_extend(seq_id),
                               (memo.free_blocks + 1) * size)
                    if grow > 0:
                        assert both("extend", seq_id, grow)
                elif kind == "free":
                    both("free_sequence", seq_id)
                    resident.remove(seq_id)
                else:
                    tokens = memo.tokens_of(seq_id)
                    both("swap_out", seq_id)
                    if both("swap_in", seq_id, tokens) is None:
                        resident.remove(seq_id)
        memo.check_invariants()

    def test_evicting_the_heads_block_invalidates_its_walk(self):
        manager = make_pool(4, 4)
        # A two-block group-1 prefix, published and then cached.
        manager.begin_sequence(0, Request(req_id=0, arrival_s=0.0,
                                          prompt_len=8, output_len=4,
                                          prefix_group=1, prefix_len=8))
        assert manager.extend(0, 8)
        manager.free_sequence(0)
        head = Request(req_id=1, arrival_s=0.0, prompt_len=12,
                       output_len=4, prefix_group=1, prefix_len=8)
        assert manager.probe_admission(head) == (8, 2, 8)
        # A private prompt takes both free blocks, then evicts the LRU
        # cached block: the head's first prefix block.
        manager.begin_sequence(2, Request(req_id=2, arrival_s=0.0,
                                          prompt_len=12, output_len=4))
        assert manager.extend(2, 12)
        assert manager.stats.evictions == 1
        assert manager.probe_admission(head) == (0, 1, 4)

    def probe_after_shared_prefix(self, free_after):
        """Two live holders of a 32-token group-7 prefix (block 16) and
        ``free_after`` free blocks left; the probe is a re-asked prompt
        whose capped last token lands in the shared second block."""
        manager = make_pool(4 + free_after, 16)
        for seq_id in (0, 1):
            request = Request(req_id=seq_id, arrival_s=0.0, prompt_len=40,
                              output_len=8, prefix_group=7, prefix_len=32)
            cached = manager.begin_sequence(seq_id, request)
            assert manager.extend(seq_id, 40 - cached)
        assert manager.available_blocks == free_after
        head = Request(req_id=2, arrival_s=0.0, prompt_len=32,
                       output_len=8, prefix_group=7, prefix_len=32)
        return manager, head

    def test_live_tail_charges_the_copy(self):
        manager, head = self.probe_after_shared_prefix(free_after=2)
        before = snapshot(manager)
        # 31 cached tokens, one slack token in a block two others hold:
        # the first write copies it, so one block less to grow into.
        assert manager.probe_admission(head) == (31, 2, 1 + 1 * 16)
        assert snapshot(manager) == before

    def test_live_tail_with_no_block_for_the_copy(self):
        manager, head = self.probe_after_shared_prefix(free_after=0)
        assert manager.probe_admission(head) == (31, 0, 0)

    def test_cached_prefix_moves_to_mru_in_table_order(self):
        manager = make_pool(8, 4)
        for seq_id, group in ((0, 1), (1, 2)):
            request = Request(req_id=seq_id, arrival_s=0.0, prompt_len=8,
                              output_len=4, prefix_group=group,
                              prefix_len=8)
            manager.begin_sequence(seq_id, request)
            assert manager.extend(seq_id, 8)
            manager.free_sequence(seq_id)
        lru = list(manager._cached)
        head = Request(req_id=2, arrival_s=0.0, prompt_len=12,
                       output_len=4, prefix_group=1, prefix_len=8)
        cached, available, room = manager.probe_admission(head)
        # Group 1's two blocks were least recent; now most, in order.
        assert list(manager._cached) == lru[2:] + lru[:2]
        assert (cached, available) == (8, 8 - 2)
        assert room == available * 4
        assert manager.stats.prefix_query_tokens == 16  # Untouched.


class TestDecodeStep:
    """The decode step is ``extend_bulk`` with one-token grants."""

    @settings(max_examples=300, deadline=None)
    @given(decode_cases())
    def test_matches_per_sequence_extends(self, case):
        manager, seq_ids = case
        reference = copy.deepcopy(manager)
        before = snapshot(manager)
        extended = manager.extend_bulk([(seq_id, 1) for seq_id in seq_ids])
        if len(seq_ids) <= reference.available_blocks:
            # A one-token write needs a fresh block or a copy, never
            # both: one available block per decoder always suffices.
            assert extended
        if extended:
            reference_decode(reference, seq_ids)
            assert snapshot(manager) == snapshot(reference)
        else:
            assert snapshot(manager) == before
        manager.check_invariants()

    def test_boundary_writes_take_one_block_each(self):
        # Two decoders at a block boundary and one free block each.
        manager = make_pool(4, 4)
        for seq_id in (0, 1):
            manager.begin_sequence(seq_id, Request(
                req_id=seq_id, arrival_s=0.0, prompt_len=4, output_len=4))
            assert manager.extend(seq_id, 4)
        assert manager.available_blocks == 2
        assert manager.extend_bulk([(0, 1), (1, 1)])
        assert manager.free_blocks == 0
        # Writes inside the fresh tails need no block at all.
        assert manager.extend_bulk([(0, 1), (1, 1)])
        assert [manager.tokens_of(s) for s in (0, 1)] == [6, 6]
        assert not manager.extend_bulk([(0, 3), (1, 1)])
        assert [manager.tokens_of(s) for s in (0, 1)] == [6, 6]


class TestExtendBulk:
    @settings(max_examples=300, deadline=None)
    @given(bulk_cases())
    def test_matches_replaced_implementation(self, case):
        manager, grants = case
        reference = copy.deepcopy(manager)
        assert manager.extend_bulk(grants) == \
            reference_extend_bulk(reference, grants)
        assert snapshot(manager) == snapshot(reference)
        manager.check_invariants()


# -- the sorted waiting queue ------------------------------------------------

SLOS = (TenantSLO(tenant=0, weight=3.0, priority=1),
        TenantSLO(tenant=1, weight=1.0))


def tight_trace(seed):
    trace = poisson_trace(
        n_requests=40, rate_rps=40.0,
        prompt=LengthSpec("uniform", low=4, high=80),
        output=LengthSpec("uniform", low=2, high=120),
        prefix=PrefixSpec(share=0.5, n_groups=3,
                          length=LengthSpec("fixed", value=48)),
        priorities=(0, 0, 1), seed=seed)
    return [replace(r, tenant=r.req_id % 2) for r in trace]


class TestSortedWaitingQueue:
    @pytest.mark.parametrize("policy", ["paged", "paged-preemptive",
                                        "paged-fair-share",
                                        "paged-tenant-priority"])
    @pytest.mark.parametrize("preemption", ["recompute", "swap"])
    def test_policy_order_after_every_step(self, policy, preemption):
        scheduler = make_scheduler(
            policy, TINY_GQA, max_batch=6, block_size=16, chunk_tokens=32,
            preemption=preemption, slos=SLOS,
            kv_capacity_bytes=TINY_GQA.kv_cache_bytes(
                seq_len=512, batch=1, bits=4))
        engine = ServingEngine(make_design("mugi", 64), TINY_GQA,
                               scheduler, seq_len_bucket=16)
        engine.start()
        pending = tight_trace(seed=5)
        idx = 0
        while idx < len(pending) or scheduler.has_work():
            while idx < len(pending) and \
                    pending[idx].arrival_s <= engine.now:
                engine.submit(pending[idx])
                idx += 1
            if not engine.step():
                engine.advance_to(pending[idx].arrival_s)
            keys = [s.queue_sort_key for s in scheduler.waiting]
            assert keys == sorted(keys)
        report = engine.finish()
        assert report.completed == len(pending)
        assert scheduler.preemption_count > 0


# -- the whole planner against the one it replaced ---------------------------

_QUEUE_KEY = attrgetter("queue_sort_key")


class ParentPlanner:
    """The paged planner as it was, mixed in ahead of a paged
    scheduler class: waiters are appended and the queue re-sorted just
    before admission, a blocked head is opened with ``begin_sequence``
    and rolled back, and decoders extend one ``extend(seq, 1)`` at a
    time.  A victim preempted for the queue head is appended behind
    every waiter and stays there until the next step's sort."""

    _waiting_sorted = True

    def _enqueue_validated(self, request):
        state = PagedSequenceState(
            request=request, admitted_s=None,
            prefill_target=request.prompt_len)
        state.queue_sort_key = self.queue_key(state)
        self.waiting.append(state)
        self._waiting_sorted = False
        self.outstanding_tokens += request.total_tokens
        self.mutations += 1

    def _preempt(self, state, plan):
        self.running.remove(state)
        self.preemption_count += 1
        state.preemptions += 1
        seq_id = state.request.req_id
        manager = self.block_manager
        if self.preemption == "swap":
            state.swapped_tokens = manager.tokens_of(seq_id)
            moved = manager.swap_out(seq_id)
            plan.swap_seconds += moved / self.host_link_bytes_s
            self.swapped.append(state)
        else:
            manager.free_sequence(seq_id)
            state.prefilled = 0
            state.prefill_target = state.request.prompt_len + state.generated
            state.context_len = 0
            self.waiting.append(state)
            self._waiting_sorted = False

    def _rollback_admission(self, state, cached):
        stats = self.block_manager.stats
        stats.prefix_query_tokens -= state.request.prompt_len
        stats.prefix_hit_tokens -= cached
        self.block_manager.free_sequence(state.request.req_id)

    def plan_step(self, now):
        plan = StepPlan()
        manager = self.block_manager
        preempted_now = set()
        committed = set()
        headroom_blocks = int(self.admit_headroom * manager.num_blocks)
        self._preempted_in_last_plan = False

        def preempt(state):
            preempted_now.add(id(state))
            self._preempted_in_last_plan = True
            self._preempt(state, plan)

        for state in sorted(self.swapped, key=_QUEUE_KEY):
            if len(self.running) >= self.max_batch:
                break
            need = manager.blocks_needed(max(state.swapped_tokens, 1))
            if self.running and \
                    manager.available_blocks - need < headroom_blocks:
                break
            moved = manager.swap_in(state.request.req_id,
                                    state.swapped_tokens)
            if moved is None:
                break
            plan.swap_seconds += moved / self.host_link_bytes_s
            self.swapped.remove(state)
            self.running.append(state)
            committed.add(id(state))

        decoders, prefilling = self._partition_running()
        if decoders and manager.available_blocks >= 2 * len(decoders):
            for state in decoders:
                manager.extend(state.request.req_id, 1)
            plan.decode = decoders
            committed.update(map(id, decoders))
        else:
            for state in decoders:
                if id(state) in preempted_now:
                    continue
                while True:
                    if manager.extend(state.request.req_id, 1):
                        plan.decode.append(state)
                        committed.add(id(state))
                        break
                    victim = self._pick_victim(committed | {id(state)})
                    if victim is None:
                        if id(state) in committed:
                            break
                        preempt(state)
                        break
                    preempt(victim)

        budget = self.chunk_tokens
        for state in prefilling:
            if budget <= 0:
                break
            if id(state) in preempted_now:
                continue
            seq_id = state.request.req_id
            while True:
                take = min(budget, state.prefill_target - state.prefilled,
                           manager.max_extend(seq_id))
                if take > 0:
                    manager.extend(seq_id, take)
                    plan.chunks.append(ChunkTask(
                        state=state, past=state.prefilled, new=take,
                        finishes=state.prefilled + take
                        == state.prefill_target))
                    state.prefilled += take
                    committed.add(id(state))
                    budget -= take
                    break
                victim = self._pick_victim(committed | {id(state)})
                if victim is None:
                    break
                preempt(victim)

        if not self._waiting_sorted:
            self.waiting.sort(key=_QUEUE_KEY)
            self._waiting_sorted = True
        while budget > 0 and self.waiting and \
                len(self.running) < self.max_batch:
            state = self.waiting[0]
            if id(state) in preempted_now:
                break
            seq_id = state.request.req_id
            cached = manager.begin_sequence(seq_id, state.request)
            take = min(budget, state.prefill_target - cached,
                       manager.max_extend(seq_id))
            need = manager.blocks_needed(cached + take) \
                - manager.blocks_needed(cached)
            if take > 0 and self.running and \
                    manager.available_blocks - need < headroom_blocks:
                take = 0
            if take <= 0:
                self._rollback_admission(state, cached)
                victim = None
                if self.preemptive_admission:
                    candidate = self._pick_victim(committed)
                    if candidate is not None and \
                            self.outranks(state, candidate):
                        victim = candidate
                if victim is None:
                    break
                preempt(victim)
                continue
            self.waiting.pop(0)
            manager.extend(seq_id, take)
            state.cached_tokens += cached
            state.prefilled = cached + take
            if state.admitted_s is None:
                state.admitted_s = now
            self.running.append(state)
            plan.chunks.append(ChunkTask(
                state=state, past=cached, new=take,
                finishes=state.prefilled == state.prefill_target))
            committed.add(id(state))
            budget -= take
        return plan


PAGED_POLICIES = ("paged", "paged-priority", "paged-preemptive",
                  "paged-fair-share", "paged-tenant-priority")


def serve(policy, preemption, leap, trace, parent):
    """Serve ``trace`` on a tight pool; return the report and pool."""
    cls = SCHEDULERS[policy]
    if parent:
        cls = type("Parent" + cls.__name__, (ParentPlanner, cls), {})
    scheduler = cls(TINY_GQA, max_batch=6, block_size=16, chunk_tokens=32,
                    preemption=preemption, slos=SLOS,
                    kv_capacity_bytes=TINY_GQA.kv_cache_bytes(
                        seq_len=512, batch=1, bits=4))
    engine = ServingEngine(make_design("mugi", 64), TINY_GQA, scheduler,
                           seq_len_bucket=16, leap=leap)
    return ServingCluster([engine]).run(trace).replicas[0], scheduler


def assert_same_schedule(policy, preemption, leap, seed):
    trace = tight_trace(seed)
    report, scheduler = serve(policy, preemption, leap, trace, False)
    expected, reference = serve(policy, preemption, leap, trace, True)
    assert report == expected
    assert snapshot(scheduler.block_manager) == \
        snapshot(reference.block_manager)
    return scheduler


class TestParentPlanner:
    # Seeds 6, 30 and 40 have a high-priority head take a victim and
    # then admit, with lower-priority waiters behind it that arrived
    # after the victim: a victim inserted ahead of them at once would
    # end that step's admissions early.
    @pytest.mark.parametrize("seed", [5, 6, 30, 40])
    @pytest.mark.parametrize("preemption", ["recompute", "swap"])
    @pytest.mark.parametrize("policy", PAGED_POLICIES)
    def test_reports_match(self, policy, preemption, seed):
        scheduler = assert_same_schedule(policy, preemption, True, seed)
        assert scheduler.preemption_count > 0

    @settings(max_examples=60, deadline=None)
    @given(policy=st.sampled_from(PAGED_POLICIES),
           preemption=st.sampled_from(["recompute", "swap"]),
           leap=st.booleans(), seed=st.integers(0, 10_000))
    def test_property_random_traces(self, policy, preemption, leap, seed):
        assert_same_schedule(policy, preemption, leap, seed)
