"""Differential property for the fleet driver.

Hypothesis draws a whole cluster run — mode (single engine, unified,
disaggregated or elastic), router, scheduler policy, replica count,
autoscaler, decision tick and a small shared-prefix trace — and checks
three things:

* the driver's report equals the naive reference loop's
  (:mod:`fleet_reference`) on every non-diagnostic field — for a single
  engine, ``simulate_trace`` (a one-replica cluster: no router call,
  inert arrivals leapt) against the reference run of that cluster,
  which cuts every leap at the next arrival and routes one request at
  a time;
* decode leaping changes nothing: the same run with the engines'
  ``leap=False`` reports identically;
* invariants: every request completes exactly once, the routed counts
  add up to the trace, TTFT <= latency, merged finish times are sorted,
  and every request with more than one output token migrates exactly
  once in disaggregated mode (none otherwise).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_reference import assert_reports_identical, reference_run
from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    SCHEDULERS,
    Autoscaler,
    AutoscalingCluster,
    ColdStartConfig,
    LengthSpec,
    PagedScheduler,
    PrefixSpec,
    Request,
    StaticAutoscaler,
    bursty_trace,
    make_autoscaler,
    make_cluster,
    poisson_trace,
    simulate_trace,
)
from repro.serve.router import ROUTERS

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
PROMPT = LengthSpec("uniform", low=1, high=40)
#: Long enough outputs that decode replicas leap across migrations.
OUTPUT = LengthSpec("uniform", low=1, high=96)
PREFIX = PrefixSpec(share=0.5, n_groups=3,
                    length=LengthSpec("fixed", value=24), dup_share=0.3)
#: Tick and burst periods: exact binary fractions, so events coincide.
GRID = (0.0625, 0.25, 1.0)
#: Room for just one of the largest drawn requests (160 tokens), so the
#: paged runs preempt and the peak-reservation runs queue.
CAPACITY = TINY_GQA.kv_cache_bytes(seq_len=176, batch=1, bits=4)

DESIGN = make_design("mugi", 64)


class ParityScaler(Autoscaler):
    """A canary scaler: the fleet size follows the parity-like residue
    of everything a tick observes, so any change in what the driver lets
    a tick see — one token, one request, one arrival — resizes the
    fleet and shows up in the report."""

    name = "parity"

    def desired(self, snapshot):
        seen = snapshot.outstanding_tokens + snapshot.inflight_requests \
            + round(snapshot.arrival_rate_rps * snapshot.tick_s)
        return self.min_replicas + seen % (self.max_replicas
                                          - self.min_replicas + 1)


def cold_start(provision_s):
    """A cold start on the tick grid: the weights stream in exactly
    1/16 s (the link moves 16x the checkpoint per second), so boots tie
    with ticks and bursts too."""
    weight_bytes = TINY_GQA.param_count() * 4 / 8
    return ColdStartConfig(provision_s=provision_s, link_latency_s=0.0,
                           link_bandwidth_bytes=16 * weight_bytes)


@st.composite
def fleet_runs(draw):
    """A cluster factory plus the trace it serves."""
    mode = draw(st.sampled_from(("single", "unified", "disaggregated",
                                 "elastic")))
    policy = draw(st.sampled_from(sorted(SCHEDULERS) if mode == "single"
                                  else ("continuous", "paged")))
    paged = issubclass(SCHEDULERS[policy], PagedScheduler)
    kwargs = dict(router=draw(st.sampled_from(sorted(ROUTERS))),
                  policy=policy,
                  scheduler_kwargs={"preemption": draw(st.sampled_from(
                      ("recompute", "swap")))} if paged else None,
                  max_batch=draw(st.integers(1, 8)),
                  kv_capacity_bytes=draw(st.sampled_from((CAPACITY,
                                                          None))),
                  seq_len_bucket=draw(st.sampled_from((2, 16))))
    n_replicas = 1 if mode == "single" else \
        draw(st.integers(1 if mode == "unified" else 2, 4))
    if mode == "elastic":
        scaler = draw(st.sampled_from(("parity", "static", "reactive",
                                       "predictive")))
        scaler_kwargs = {
            "parity": {"max_replicas": n_replicas},
            "static": {"max_replicas": n_replicas},
            "reactive": {"target_tokens_per_replica": 40.0,
                         "max_replicas": n_replicas},
            "predictive": {"replica_rps": 2.0, "horizon_s": 0.25,
                           "backlog_tokens_per_replica": 100.0,
                           "max_replicas": n_replicas},
        }[scaler]
        extra = dict(tick_s=draw(st.sampled_from(GRID)),
                     cold_start=cold_start(draw(
                         st.sampled_from((0.0,) + GRID[:2]))))

        def build(**engine):
            # A fresh scaler per run: scalers keep forecast state.
            autoscaler = ParityScaler(**scaler_kwargs) \
                if scaler == "parity" \
                else make_autoscaler(scaler, **scaler_kwargs)
            return AutoscalingCluster(DESIGN, TINY_GQA, n_replicas,
                                      autoscaler=autoscaler, **kwargs,
                                      **extra, **engine)
    else:
        def build(**engine):
            return make_cluster(DESIGN, TINY_GQA, n_replicas,
                                mode="unified" if mode == "single"
                                else mode, **kwargs, **engine)
    shape = dict(n_requests=draw(st.integers(4, 40)), prompt=PROMPT,
                 output=OUTPUT, prefix=PREFIX,
                 seed=draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        trace = poisson_trace(rate_rps=draw(st.sampled_from(
            (5.0, 20.0, 80.0, 320.0))), **shape)
    else:
        # Simultaneous bursts on the tick grid: arrivals tie with ticks
        # and with the clocks of replicas they wake.
        trace = bursty_trace(burst_size=draw(st.integers(1, 8)),
                             burst_period_s=draw(st.sampled_from(GRID)),
                             **shape)
    single_kwargs = {key: value for key, value in kwargs.items()
                     if key != "router"}
    return mode, build, trace, single_kwargs


@given(fleet_runs())
@settings(max_examples=300, deadline=None)
def test_driver_matches_reference_and_stepwise(run):
    mode, build, trace, single_kwargs = run
    report = build().run(trace)
    reference = reference_run(build(), trace)

    assert_reports_identical(report, reference)
    assert_reports_identical(report, build(leap=False).run(trace))
    if mode == "single":
        # The engine's report, stamped with the whole trace's rate.
        expected = reference.replicas[0]
        expected.offered_rps = reference.offered_rps
        assert_reports_identical(simulate_trace(
            DESIGN, TINY_GQA, trace, **single_kwargs), expected)

    ids = Counter(record.request.req_id for record in report.records)
    assert ids == Counter(request.req_id for request in trace)
    for record in report.records:
        assert record.ttft_s <= record.latency_s
    finishes = [record.finish_s for record in report.records]
    assert finishes == sorted(finishes)
    expected = sum(r.output_len > 1 for r in trace) \
        if mode == "disaggregated" else 0
    assert report.migrations == expected
    # A migration is routed a second time, to a decode replica.
    assert sum(report.routed) == len(trace) + expected


class _Recorder(StaticAutoscaler):
    """A one-replica static scaler that keeps every snapshot it sees."""

    def __init__(self):
        super().__init__(max_replicas=1)
        self.snapshots = []

    def desired(self, snapshot):
        self.snapshots.append(snapshot)
        return super().desired(snapshot)


def test_cohort_stops_at_the_next_tick():
    """An arrival after a tick routes after it, even while every busy
    clock is already past the tick: the tick's window counts only the
    arrivals up to it."""
    probe = Request(req_id=0, arrival_s=0.0, prompt_len=1000,
                    output_len=2)
    tick = simulate_trace(DESIGN, TINY_GQA, [probe]).records[0] \
        .first_token_s / 3  # The probe's prefill step spans 3 ticks.
    trace = [probe,
             Request(req_id=1, arrival_s=0.5 * tick, prompt_len=8,
                     output_len=2),
             Request(req_id=2, arrival_s=1.5 * tick, prompt_len=8,
                     output_len=2)]

    def build():
        scaler = _Recorder()
        return scaler, AutoscalingCluster(
            DESIGN, TINY_GQA, 1, autoscaler=scaler, tick_s=tick)

    scaler, fleet = build()
    report = fleet.run(trace)
    first = next(s for s in scaler.snapshots if s.now_s == tick)
    assert round(first.arrival_rate_rps * tick) == 2
    assert_reports_identical(report, reference_run(build()[1], trace))


def test_draining_replicas_retire_in_stepwise_order():
    """Two draining replicas whose last completions fall between the same
    two ticks retire in the order the stepwise loop reaches their last
    steps, which sets the order of the fleet's replica reports and of
    its replica-seconds sum.  A decode leap may commit a completing
    step, but not one that leaves the replica without work: that step
    stays planned, so a replica whose leap starts earlier but ends its
    work later still retires second."""
    trace = [Request(req_id=i, arrival_s=arrival, prompt_len=prompt,
                     output_len=output)
             for i, (arrival, prompt, output) in enumerate(
                 [(1.375, 34, 95), (1.4375, 46, 72), (1.5, 33, 93)])]

    def build(**engine):
        return AutoscalingCluster(
            DESIGN, TINY_GQA, 3, autoscaler=ParityScaler(max_replicas=3),
            router="least-outstanding", policy="continuous", max_batch=1,
            kv_capacity_bytes=CAPACITY, seq_len_bucket=2, tick_s=0.0625,
            cold_start=cold_start(0.0), **engine)

    report = build().run(trace)
    retired = [(len(r.records), r.makespan_s) for r in report.replicas]
    assert retired[:2] == [(1, 1.5256531823437502), (1, 1.55450628125)]
    assert_reports_identical(report, build(leap=False).run(trace))
    assert_reports_identical(report, reference_run(build(), trace))
