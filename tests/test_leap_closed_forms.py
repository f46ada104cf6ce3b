"""Closed-form leap bookkeeping against the logic it replaced.

The paged leap window, the leap commits' utilization series and the
engine's cost accumulation are exact integer closed forms and
sequential folds.  These tests keep the earlier numpy implementations
(and plain brute-force scans) as references and check the closed forms
against them on random small-batch states: 1-24 decoders, block sizes
1-32, with and without blocked waiting or swapped sequences and
evictable cached blocks.  Equality is exact throughout.
"""

import functools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    AutoscalingCluster,
    LengthSpec,
    PrefixSpec,
    Request,
    ServingEngine,
    make_cluster,
    make_scheduler,
    poisson_trace,
    simulate_trace,
)
from repro.serve.policy import PagedSequenceState
from repro.serve.scheduler import StepPlan

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
BLOCK_SIZES = (1, 4, 16, 32)
#: Request id of the sequence whose freed prefix blocks stock the
#: evictable cached pool.
GHOST = 10_000


# -- references: the replaced numpy logic and brute-force scans ----------

def demand(tokens, size, steps):
    """Blocks the decoders open over ``steps`` single-token extends."""
    return sum(-(-(t + steps) // size) - -(-t // size) for t in tokens)


def brute_force_window(tokens, size, bound, max_steps):
    """Largest ``s <= max_steps`` whose block demand fits ``bound``."""
    return max(s for s in range(max_steps + 1)
               if demand(tokens, size, s) <= bound)


def numpy_window(tokens, size, bound, max_steps):
    """The binary search over a numpy demand array, as it was."""
    tokens = np.asarray(tokens, dtype=np.int64)
    anchors = (tokens + size - 1) // size

    def blocks_demanded(steps):
        return int(((tokens + (steps + size - 1)) // size - anchors).sum())

    if blocks_demanded(max_steps) <= bound:
        return max_steps
    lo, hi = 0, max_steps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if blocks_demanded(mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def numpy_series(tokens, size, steps, live0, num_blocks):
    """The ``(decoders, steps)`` growth array divided by the pool."""
    tokens = np.asarray(tokens)
    js = np.arange(1, steps + 1)
    grown = ((tokens[:, None] + js[None, :] + size - 1) // size
             - (tokens[:, None] + size - 1) // size).sum(axis=0)
    return ((live0 + grown) / num_blocks).tolist()


def loop_advance(acc, duration, energy, comm, window, horizon):
    """The stepwise loop: one ``+=`` per sum per step."""
    now, energy_j, comm_s, busy_s = acc
    leapt = 0
    while leapt < window and now < horizon:
        now += duration
        energy_j += energy
        comm_s += comm
        busy_s += duration
        leapt += 1
    return leapt, (now, energy_j, comm_s, busy_s)


def cumsum_advance(acc, duration, energy, comm, window, horizon):
    """The ``(4, window + 1)`` cumsum array and ``searchsorted``."""
    series = np.empty((4, window + 1))
    series[:, 0] = acc
    series[0, 1:] = duration
    series[1, 1:] = energy
    series[2, 1:] = comm
    series[3, 1:] = duration
    sums = np.cumsum(series, axis=1)
    leapt = int(np.searchsorted(sums[0, :window], horizon, side="left"))
    return leapt, tuple(float(x) for x in sums[:, leapt])


# -- a paged scheduler holding a chosen block state ----------------------

def _request(req_id, prompt_len, **kwargs):
    return Request(req_id=req_id, arrival_s=0.0, prompt_len=prompt_len,
                   output_len=4096, **kwargs)


def paged_state(tokens, size, free, cached=0, waiting=False,
                swapped=False):
    """A paged scheduler whose decoders hold ``tokens`` KV tokens each,
    over a pool with exactly ``free`` free and ``cached`` evictable
    cached blocks left.  Returns ``(scheduler, plan)``."""
    held = sum(-(-t // size) for t in tokens)
    block_bytes = TINY_GQA.kv_cache_bytes(seq_len=1, batch=1,
                                          bits=4) * size
    num_blocks = held + free + cached
    scheduler = make_scheduler(
        "paged", TINY_GQA, max_batch=32, block_size=size,
        kv_capacity_bytes=num_blocks * block_bytes)
    manager = scheduler.block_manager
    assert manager.num_blocks == num_blocks
    if cached:
        # Hashed prefix blocks outlive their only holder in the LRU
        # cached pool, so they count as available but not free.
        ghost = _request(GHOST, cached * size, prefix_group=0,
                         prefix_len=cached * size)
        manager.begin_sequence(GHOST, ghost)
        manager.extend(GHOST, cached * size)
        manager.free_sequence(GHOST)
    decode = []
    for req_id, t in enumerate(tokens):
        request = _request(req_id, t)
        manager.begin_sequence(req_id, request)
        manager.extend(req_id, t)
        decode.append(PagedSequenceState(request, admitted_s=0.0,
                                          context_len=t, generated=1,
                                          prefilled=t, prefill_target=t))
    assert (manager.free_blocks, manager.cached_blocks) == (free, cached)
    blocked = PagedSequenceState(_request(len(tokens), 8), admitted_s=None)
    if waiting:
        scheduler.waiting.append(blocked)
    if swapped:
        scheduler.swapped.append(blocked)
    return scheduler, StepPlan(decode=decode)


@st.composite
def leap_states(draw):
    """Token counts, block size, leap bound and pool shape."""
    size = draw(st.sampled_from(BLOCK_SIZES))
    tokens = draw(st.lists(st.integers(1, 300), min_size=1, max_size=24))
    max_steps = draw(st.integers(1, 300))
    bound = draw(st.integers(0, demand(tokens, size, max_steps) + 2))
    waiting = draw(st.booleans())
    swapped = draw(st.booleans())
    cached = draw(st.integers(0, 4))
    if waiting or swapped:
        free = bound  # Blocked heads: only the free list may be used.
    else:
        cached = min(cached, bound)
        free = bound - cached
    return tokens, size, max_steps, bound, free, cached, waiting, swapped


class TestLeapWindow:
    @settings(max_examples=300, deadline=None)
    @given(leap_states())
    def test_matches_brute_force_and_numpy(self, case):
        tokens, size, max_steps, bound, free, cached, waiting, swapped = \
            case
        scheduler, plan = paged_state(tokens, size, free, cached,
                                      waiting, swapped)
        window = scheduler.leap_window(plan, max_steps)
        assert window == brute_force_window(tokens, size, bound, max_steps)
        assert window == numpy_window(tokens, size, bound, max_steps)

    def test_bound_zero_stops_before_first_crossing(self):
        # Block size 16: a full block (48 tokens) opens the next at step
        # 1; 15 tokens open one at step 2, 30 tokens at step 3.
        scheduler, plan = paged_state([15, 48], 16, free=0)
        assert scheduler.leap_window(plan, 100) == 0
        scheduler, plan = paged_state([15, 30], 16, free=0)
        assert scheduler.leap_window(plan, 100) == 1
        scheduler, plan = paged_state([15, 30], 16, free=2)
        assert scheduler.leap_window(plan, 100) == 17

    def test_preempting_plan_never_leaps(self):
        scheduler, plan = paged_state([5, 9], 16, free=8)
        scheduler._preempted_in_last_plan = True
        assert scheduler.leap_window(plan, 50) == 0


class TestCommitLeapSeries:
    @settings(max_examples=200, deadline=None)
    @given(leap_states(), st.data())
    def test_matches_single_step_extends(self, case, data):
        tokens, size, max_steps, _, free, cached, waiting, swapped = case
        scheduler, plan = paged_state(tokens, size, free, cached,
                                      waiting, swapped)
        window = scheduler.leap_window(plan, max_steps)
        assume(window > 0)
        steps = data.draw(st.integers(1, window))
        manager = scheduler.block_manager
        live0, num_blocks = manager.live_blocks, manager.num_blocks
        twin, twin_plan = paged_state(tokens, size, free, cached,
                                      waiting, swapped)
        twin_manager = twin.block_manager
        stepwise = []
        for _ in range(steps):
            for state in twin_plan.decode:
                assert twin_manager.extend(state.request.req_id, 1)
            stepwise.append(twin_manager.live_blocks / num_blocks)

        series = scheduler.commit_leap(plan, steps)
        assert series == stepwise
        assert series == numpy_series(tokens, size, steps, live0,
                                      num_blocks)
        for state in plan.decode:
            seq_id = state.request.req_id
            assert manager.tokens_of(seq_id) == \
                twin_manager.tokens_of(seq_id)
            assert manager.blocks_of(seq_id) == \
                twin_manager.blocks_of(seq_id)
        assert (manager.free_blocks, manager.cached_blocks) == \
            (twin_manager.free_blocks, twin_manager.cached_blocks)
        manager.check_invariants()


@functools.cache
def _idle_engine():
    scheduler = make_scheduler("continuous", TINY_GQA, max_batch=4)
    return ServingEngine(make_design("mugi", 64), TINY_GQA, scheduler,
                         seq_len_bucket=16)


class TestAdvance:
    @staticmethod
    def _engine(acc):
        """The shared engine in a fresh session holding ``acc`` as its
        (clock, energy, comm, busy) accumulators."""
        engine = _idle_engine()
        report = engine.start()
        engine._now = acc[0]
        report.energy_j, report.comm_seconds, report.busy_seconds = acc[1:]
        return engine

    @settings(max_examples=300, deadline=None)
    @given(acc=st.tuples(*[st.floats(0.0, 1e4, allow_subnormal=False)] * 4),
           duration=st.floats(1e-9, 10.0),
           energy=st.floats(0.0, 1e3), comm=st.floats(0.0, 1.0),
           window=st.integers(1, 64), data=st.data(),
           where=st.sampled_from(["before", "at", "past", "never"]))
    def test_matches_sequential_loop(self, acc, duration, energy, comm,
                                     window, data, where):
        clocks = [acc[0]]
        for _ in range(window):
            clocks.append(clocks[-1] + duration)
        k = data.draw(st.integers(0, window))
        horizon = {"before": math.nextafter(clocks[k], -math.inf),
                   "at": clocks[k],
                   "past": math.nextafter(clocks[k], math.inf),
                   "never": math.inf}[where]
        expected = loop_advance(acc, duration, energy, comm, window,
                                horizon)
        assert expected == cumsum_advance(acc, duration, energy, comm,
                                          window, horizon)
        engine = self._engine(acc)
        leapt = engine._advance(duration, energy, comm, window, horizon)
        report = engine.report
        got = (leapt, (engine.now, report.energy_j, report.comm_seconds,
                       report.busy_seconds))
        assert got == expected
        if where == "at":
            # A step that would start exactly at the horizon waits.
            assert leapt <= k
        assert all(type(x) is float for x in got[1])

    def test_horizon_at_intermediate_clock_stops_before_it(self):
        engine = self._engine((0.0, 0.0, 0.0, 0.0))
        assert engine._advance(0.25, 1.0, 0.0, 10, 1.0) == 4
        assert engine.now == 1.0
        assert engine.report.energy_j == 4.0


# -- numpy-scalar arrivals -------------------------------------------------

def _trace():
    return poisson_trace(
        n_requests=60, rate_rps=15.0,
        prompt=LengthSpec("uniform", low=4, high=60),
        output=LengthSpec("uniform", low=2, high=80),
        prefix=PrefixSpec(share=0.5, n_groups=3,
                          length=LengthSpec("fixed", value=32),
                          dup_share=0.3),
        seed=19)


def _numpy_arrivals(trace):
    return [replace(r, arrival_s=np.float64(r.arrival_s)) for r in trace]


def _assert_same(a, b):
    """Field-for-field equality, recursing into per-replica reports."""
    assert type(a) is type(b)
    for f in fields(b):
        left, right = getattr(a, f.name), getattr(b, f.name)
        if f.name == "replicas":
            for ra, rb in zip(left, right, strict=True):
                _assert_same(ra, rb)
        else:
            assert left == right, f.name


def _assert_python_clocks(report):
    assert type(report.makespan_s) is float
    for record in report.records:
        for clock in (record.admitted_s, record.first_token_s,
                      record.finish_s):
            assert type(clock) is float
    for replica in getattr(report, "replicas", ()):
        _assert_python_clocks(replica)


PAGED = dict(policy="paged", max_batch=6, seq_len_bucket=16,
             scheduler_kwargs={"block_size": 16, "chunk_tokens": 32},
             kv_capacity_bytes=TINY_GQA.kv_cache_bytes(
                 seq_len=200, batch=1, bits=4) * 3)


@pytest.mark.parametrize("runner", ["engine", "cluster", "fleet"])
def test_numpy_scalar_arrivals_report_identically(runner):
    def run(trace):
        design = make_design("mugi", 64)
        if runner == "engine":
            return simulate_trace(design, TINY_GQA, trace, **PAGED)
        if runner == "cluster":
            return make_cluster(design, TINY_GQA, 3,
                                router="prefix-affinity",
                                **PAGED).run(trace)
        return AutoscalingCluster(design, TINY_GQA, 3,
                                  autoscaler="reactive", tick_s=2.0,
                                  **PAGED).run(trace)

    trace = _trace()
    plain = run(trace)
    scalar = run(_numpy_arrivals(trace))
    assert plain.leap_steps > 0
    _assert_same(scalar, plain)
    _assert_python_clocks(scalar)
    if runner == "fleet":
        assert type(scalar.replica_seconds) is float
