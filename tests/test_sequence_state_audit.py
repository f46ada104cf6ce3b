"""Property test: every sequence state is tracked exactly once.

Schedulers move per-request :class:`repro.serve.SequenceState` objects
between their ``waiting`` / ``running`` / ``swapped`` lists by identity
(``list.remove``, ``id()`` sets).  The failure modes that invites are a
state tracked twice (two lists, or twice in one), a state dropped from
every list without completing, and one request's counters drifting past
its lengths.

Hypothesis drives random traces (ragged lengths, shared prefixes,
priority mixes) through the *real* engine under every paged scheduler
flavor plus the peak-reservation families, with tight KV budgets and
batch sizes chosen to force admission churn, chunked prefill, and both
preemption modes.  After every engine step the scheduler's lists are
audited against the previous step's and the completion records.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    LengthSpec,
    PagedSequenceState,
    PrefixSpec,
    Request,
    SequenceState,
    ServingEngine,
    make_scheduler,
    poisson_trace,
)

TINY = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                   n_heads=16, n_kv_heads=2, hidden_dim=512,
                   ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=2, high=24)
PREFIX = PrefixSpec(share=0.4, n_groups=3,
                    length=LengthSpec("fixed", value=8), dup_share=0.3)


@functools.cache
def _design():
    """One design for every example: op costs memoize on the instance,
    so examples after the first only pay scheduler/engine work."""
    return make_design("mugi", 64)


def _lists(scheduler) -> tuple[str, ...]:
    if hasattr(scheduler, "waiting"):  # Paged family.
        return ("waiting", "running", "swapped")
    return ("running",)  # Peak-reservation family: queue holds Requests.


class _AuditingEngine(ServingEngine):
    """Checks the scheduler's state lists after every committed step."""

    def start(self, offered_rps=0.0):
        self.tracked = {}
        return super().start(offered_rps)

    def step(self, horizon=None) -> bool:
        stepped = super().step(horizon)
        self._audit()
        return stepped

    def _audit(self) -> None:
        scheduler = self.scheduler
        tracked = {}
        for name in _lists(scheduler):
            for state in getattr(scheduler, name):
                assert id(state) not in tracked, \
                    f"state tracked in {tracked[id(state)][0]} and {name}"
                tracked[id(state)] = (name, state)
                request = state.request
                assert 0 <= state.generated <= request.output_len
                assert state.context_len \
                    <= request.prompt_len + request.output_len
        ids = [state.request.req_id for _, state in tracked.values()]
        assert len(set(ids)) == len(ids), "one request, two states"
        finished = {r.request.req_id for r in self.report.records}
        assert finished.isdisjoint(ids), "finished request still tracked"
        for key, (_, state) in self.tracked.items():
            if key not in tracked:
                assert state.request.req_id in finished, \
                    f"request {state.request.req_id} dropped unfinished"
        self.tracked = tracked
        manager = getattr(scheduler, "block_manager", None)
        if manager is not None:
            manager.check_invariants()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_traces_track_every_state_exactly_once(data):
    policy = data.draw(st.sampled_from(
        ("continuous", "static", "paged", "paged-priority",
         "paged-preemptive")), label="policy")
    seed = data.draw(st.integers(0, 2**20), label="seed")
    n = data.draw(st.integers(1, 12), label="n_requests")
    max_batch = data.draw(st.integers(1, 4), label="max_batch")
    rate = data.draw(st.sampled_from((0.5, 4.0, 32.0)), label="rate")

    trace = poisson_trace(n_requests=n, rate_rps=rate, prompt=SHORT,
                          output=SHORT, prefix=PREFIX, seed=seed,
                          priorities=(0, 1, 2))
    kwargs = {}
    if policy.startswith("paged"):
        # A pool of a few requests' worth of blocks with tiny chunks:
        # admission churn, chunked prefill, and real preemptions.
        peak = TINY.kv_cache_bytes(seq_len=PREFIX.length.value + 48,
                                   batch=1, bits=4)
        budget = data.draw(st.sampled_from((2.0, 4.0)), label="budget")
        kwargs = {"block_size": 4, "chunk_tokens": 16,
                  "kv_capacity_bytes": budget * peak,
                  "preemption": data.draw(
                      st.sampled_from(("recompute", "swap")),
                      label="preemption")}
    scheduler = make_scheduler(policy, TINY, max_batch=max_batch,
                               **kwargs)
    engine = _AuditingEngine(_design(), TINY, scheduler,
                             seq_len_bucket=4)
    report = engine.run(trace)

    assert report.completed == n
    assert sorted(r.request.req_id for r in report.records) == \
        sorted(r.req_id for r in trace)
    for name in _lists(scheduler):
        assert getattr(scheduler, name) == [], f"{name} not drained"
    assert not getattr(scheduler, "queue", ())


def test_equal_states_release_independently():
    """States compare by identity: releasing one of two states built
    from equal fields must leave the other in place (a field-wise
    ``__eq__`` would let ``list.remove`` take the first match)."""
    assert SequenceState(Request(0, 0.0, 8, 4), 0.0) != \
        SequenceState(Request(0, 0.0, 8, 4), 0.0)
    assert PagedSequenceState(Request(0, 0.0, 8, 4), None) != \
        PagedSequenceState(Request(0, 0.0, 8, 4), None)
    scheduler = make_scheduler("continuous", TINY, max_batch=4)
    request = Request(req_id=3, arrival_s=0.0, prompt_len=8, output_len=4)
    scheduler.enqueue(request)
    scheduler.enqueue(request)
    first, second = scheduler.plan_step(0.0).prefill
    scheduler.release(second)
    assert len(scheduler.running) == 1 and scheduler.running[0] is first
    scheduler.release(first)
    assert scheduler.running == [] and scheduler.reserved_bytes == 0.0
