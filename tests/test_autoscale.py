"""Autoscaling-fleet tests: scalers, lifecycle, tenancy, cost.

ISSUE tentpole pinned here:

* scaler decision logic — static/reactive/predictive policies, their
  clamping band, and the cold-start pricing;
* fleet lifecycle — conservation across scale events, warm initial
  ramp equivalence with the fixed cluster, draining semantics;
* multi-tenant tenancy — the diurnal trace generator's determinism
  and tagging, SFQ fair-share ordering, tenant-priority ranking, and
  per-tenant SLO accounting on the merged report;
* sweep integration — autoscaling points through ``run_point`` /
  ``run_sweep`` with bit-identical multiprocess results.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.arch import make_design
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.serve import (
    AUTOSCALERS,
    AutoscalingCluster,
    ColdStartConfig,
    DEFAULT_COLD_START,
    FleetReport,
    FleetSnapshot,
    LengthSpec,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    Request,
    ServingEngine,
    StaticAutoscaler,
    SweepPoint,
    TenantSLO,
    TenantSpec,
    TraceSpec,
    make_autoscaler,
    make_cluster,
    make_scheduler,
    multi_tenant_trace,
    run_point,
    run_sweep,
    tenant_slo_map,
)

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)

TENANTS = (
    TenantSpec(tenant=0, rate_rps=2.0, prompt=SHORT, output=SHORT,
               diurnal_amplitude=0.6, peak_s=30.0),
    TenantSpec(tenant=1, rate_rps=0.5, prompt=SHORT, output=SHORT,
               burst_size=3, burst_jitter_s=0.5, priority=-1),
)
SLOS = (TenantSLO(tenant=0, ttft_slo_s=60.0, weight=4.0, priority=1),
        TenantSLO(tenant=1, ttft_slo_s=600.0, weight=1.0))


#: A fleet that accepted NaN timing would spin forever: a NaN tick
#: never lets an arrival route, and a NaN ready time empties every
#: arrival cohort.  Run in a child process under a timeout.
NAN_FLEET_SCRIPT = """
import math
from repro.arch import make_design
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.serve import AutoscalingCluster, ColdStartConfig, Request

config = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                     n_heads=16, n_kv_heads=2, hidden_dim=512,
                     ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
design = make_design("mugi", 64)
# Finite timing serves this in well under a second, with cold starts.
trace = [Request(req_id=i, arrival_s=0.01 * i, prompt_len=32,
                 output_len=32) for i in range(30)]
cases = {
    "tick": lambda: {"tick_s": math.nan},
    "provision": lambda: {
        "cold_start": ColdStartConfig(provision_s=math.nan)},
    "bandwidth": lambda: {
        "cold_start": ColdStartConfig(link_bandwidth_bytes=math.nan)},
}
for name, kwargs in cases.items():
    try:
        AutoscalingCluster(
            design, config, 3, autoscaler="reactive",
            autoscaler_kwargs={"target_tokens_per_replica": 100.0},
            **{"tick_s": 0.05, **kwargs()}).run(trace)
    except ConfigError:
        print(name, flush=True)
"""


def tiny_design():
    return make_design("mugi", 64)


def tiny_trace(duration_s=120.0, seed=5):
    return multi_tenant_trace(TENANTS, duration_s=duration_s,
                              day_s=duration_s, seed=seed)


def tiny_fleet(autoscaler="static", n_replicas=3, policy="paged",
               slos=(), **kwargs):
    return AutoscalingCluster(tiny_design(), TINY_GQA, n_replicas,
                              autoscaler=autoscaler, policy=policy,
                              slos=slos, tick_s=10.0, **kwargs)


def snapshot(active=2, provisioning=0, outstanding=0, rate=0.0,
             tick_s=10.0, now_s=0.0, inflight=0):
    return FleetSnapshot(now_s=now_s, tick_s=tick_s, active=active,
                         provisioning=provisioning,
                         outstanding_tokens=outstanding,
                         inflight_requests=inflight,
                         arrival_rate_rps=rate)


class TestColdStartConfig:
    def test_delay_prices_provisioning_plus_weight_stream(self):
        config = ColdStartConfig(provision_s=10.0,
                                 link_bandwidth_bytes=1e9,
                                 link_latency_s=0.5, woq_bits=8)
        expected = 10.0 + 0.5 + TINY_GQA.param_count() / 1e9
        assert config.delay_s(TINY_GQA) == pytest.approx(expected)

    def test_narrower_weights_stream_faster(self):
        wide = ColdStartConfig(woq_bits=16)
        narrow = ColdStartConfig(woq_bits=4)
        assert narrow.delay_s(TINY_GQA) < wide.delay_s(TINY_GQA)

    def test_validation(self):
        with pytest.raises(ConfigError, match="provision_s"):
            ColdStartConfig(provision_s=-1.0)
        with pytest.raises(ConfigError, match="bandwidth"):
            ColdStartConfig(link_bandwidth_bytes=0.0)
        with pytest.raises(ConfigError, match="woq_bits"):
            ColdStartConfig(woq_bits=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["provision_s", "link_bandwidth_bytes",
                                      "link_latency_s", "woq_bits"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite "):
            ColdStartConfig(**{name: value})


class TestScalerDecisions:
    def test_registry_and_factory(self):
        assert set(AUTOSCALERS) == {"static", "reactive", "predictive"}
        scaler = make_autoscaler("reactive", max_replicas=6)
        assert isinstance(scaler, ReactiveAutoscaler)
        assert scaler.max_replicas == 6
        assert make_autoscaler(scaler) is scaler

    def test_factory_validation(self):
        with pytest.raises(ConfigError, match="unknown autoscaler"):
            make_autoscaler("elastic-magic")
        with pytest.raises(ConfigError, match="instance"):
            make_autoscaler(StaticAutoscaler(), max_replicas=2)
        with pytest.raises(ConfigError, match="min_replicas"):
            StaticAutoscaler(min_replicas=0)
        with pytest.raises(ConfigError, match="max_replicas"):
            StaticAutoscaler(min_replicas=3, max_replicas=2)

    def test_static_always_wants_peak(self):
        scaler = StaticAutoscaler(max_replicas=5)
        assert scaler.desired(snapshot(active=0)) == 5
        assert scaler.desired(snapshot(active=5, outstanding=10**9)) == 5

    def test_reactive_scales_up_immediately_to_load(self):
        scaler = ReactiveAutoscaler(target_tokens_per_replica=100.0,
                                    max_replicas=8)
        assert scaler.desired(snapshot(active=2, outstanding=520)) == 6
        # ...but clamps at the band's ceiling.
        assert scaler.desired(snapshot(active=2, outstanding=5000)) == 8

    def test_reactive_scales_down_one_per_tick_with_hysteresis(self):
        scaler = ReactiveAutoscaler(target_tokens_per_replica=100.0,
                                    scale_down_fraction=0.5,
                                    max_replicas=8)
        # Load 0.9 < (4-1)*0.5: one step down, not a jump to ceil(0.9).
        assert scaler.desired(snapshot(active=4, outstanding=90)) == 3
        # Load 1.6 is above the 1.5 hysteresis floor: hold at 4.
        assert scaler.desired(snapshot(active=4, outstanding=160)) == 4

    def test_reactive_counts_provisioning_capacity(self):
        scaler = ReactiveAutoscaler(target_tokens_per_replica=100.0,
                                    max_replicas=8)
        want = scaler.desired(snapshot(active=2, provisioning=2,
                                       outstanding=390))
        assert want == 4  # Booting capacity already covers the load.

    def test_predictive_first_tick_tracks_observed_rate(self):
        scaler = PredictiveAutoscaler(replica_rps=1.0, headroom=1.0,
                                      max_replicas=8)
        assert scaler.desired(snapshot(rate=3.0)) == 3

    def test_predictive_trend_leads_the_ramp(self):
        flat = PredictiveAutoscaler(replica_rps=1.0, headroom=1.0,
                                    horizon_s=0.0, max_replicas=16)
        led = PredictiveAutoscaler(replica_rps=1.0, headroom=1.0,
                                   horizon_s=50.0, max_replicas=16)
        for rate in (1.0, 2.0, 3.0, 4.0):
            flat_want = flat.desired(snapshot(rate=rate))
            led_want = led.desired(snapshot(rate=rate))
        # On a rising rate the horizon projects the trend forward, so
        # the led scaler orders strictly more capacity at ramp's end.
        assert led_want > flat_want

    def test_predictive_backlog_floor(self):
        scaler = PredictiveAutoscaler(replica_rps=1.0,
                                      backlog_tokens_per_replica=100.0,
                                      max_replicas=8)
        assert scaler.desired(snapshot(rate=0.0, outstanding=350)) == 4

    def test_predictive_reset_forgets_forecast(self):
        scaler = PredictiveAutoscaler(replica_rps=1.0, headroom=1.0,
                                      max_replicas=8)
        for rate in (5.0, 5.0, 5.0):
            scaler.desired(snapshot(rate=rate))
        scaler.reset()
        assert scaler.desired(snapshot(rate=1.0)) == 1

    def test_band_clamps_every_scaler(self):
        for name in AUTOSCALERS:
            scaler = make_autoscaler(name, min_replicas=2,
                                     max_replicas=3)
            want = scaler.desired(snapshot(active=1, outstanding=0,
                                           rate=0.0))
            assert 2 <= want <= 3

    def test_scaler_parameter_validation(self):
        with pytest.raises(ConfigError, match="target_tokens"):
            ReactiveAutoscaler(target_tokens_per_replica=0.0)
        with pytest.raises(ConfigError, match="scale_down_fraction"):
            ReactiveAutoscaler(scale_down_fraction=1.5)
        with pytest.raises(ConfigError, match="replica_rps"):
            PredictiveAutoscaler(replica_rps=0.0)
        with pytest.raises(ConfigError, match="alpha"):
            PredictiveAutoscaler(alpha=0.0)
        with pytest.raises(ConfigError, match="horizon_s"):
            PredictiveAutoscaler(horizon_s=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_reactive_rejects_non_finite(self, value):
        # A NaN target would never resize the fleet, and an infinite one
        # could only shrink it.
        with pytest.raises(ConfigError, match="target_tokens_per_replica "
                                              "must be finite "):
            ReactiveAutoscaler(target_tokens_per_replica=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["replica_rps", "horizon_s",
                                      "headroom",
                                      "backlog_tokens_per_replica"])
    def test_predictive_rejects_non_finite(self, name, value):
        # Each would reach the first tick's ceil() and raise there.
        with pytest.raises(ConfigError, match=f"{name} must be finite "):
            PredictiveAutoscaler(**{name: value})


class TestMultiTenantTrace:
    def test_deterministic_per_seed(self):
        a, b = tiny_trace(seed=9), tiny_trace(seed=9)
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert (x.req_id, x.arrival_s, x.prompt_len, x.output_len,
                    x.tenant, x.priority) == \
                (y.req_id, y.arrival_s, y.prompt_len, y.output_len,
                 y.tenant, y.priority)
        assert tiny_trace(seed=10)[0].arrival_s != a[0].arrival_s \
            or len(tiny_trace(seed=10)) != len(a)

    def test_tags_and_ordering(self):
        trace = tiny_trace()
        assert {r.tenant for r in trace} == {0, 1}
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.req_id for r in trace] == list(range(len(trace)))
        # Tenant priority is stamped through to the requests.
        assert all(r.priority == -1 for r in trace if r.tenant == 1)
        assert all(r.priority == 0 for r in trace if r.tenant == 0)

    def test_rate_scales_request_count(self):
        light = multi_tenant_trace(
            (TenantSpec(tenant=0, rate_rps=0.5, prompt=SHORT,
                        output=SHORT),), duration_s=400.0, seed=2)
        heavy = multi_tenant_trace(
            (TenantSpec(tenant=0, rate_rps=4.0, prompt=SHORT,
                        output=SHORT),), duration_s=400.0, seed=2)
        assert len(heavy) > 4 * len(light)

    def test_bursts_cluster_arrivals(self):
        spec = TenantSpec(tenant=0, rate_rps=3.0, prompt=SHORT,
                          output=SHORT, burst_size=3,
                          burst_jitter_s=0.25)
        trace = multi_tenant_trace((spec,), duration_s=300.0, seed=4)
        # Arrival events fire at rate/burst_size but each spawns
        # burst_size requests, so the mean rate is preserved...
        assert len(trace) == pytest.approx(900, rel=0.2)
        # ...and burst members land within the jitter window.
        gaps = [b.arrival_s - a.arrival_s
                for a, b in zip(trace, trace[1:])]
        assert sum(g <= 0.25 for g in gaps) >= len(gaps) // 2

    def test_prefix_groups_offset_per_tenant(self):
        from repro.serve import PrefixSpec
        prefix = PrefixSpec(share=1.0, n_groups=2,
                            length=LengthSpec("fixed", value=16))
        specs = (TenantSpec(tenant=0, rate_rps=2.0, prompt=SHORT,
                            output=SHORT, prefix=prefix),
                 TenantSpec(tenant=1, rate_rps=2.0, prompt=SHORT,
                            output=SHORT, prefix=prefix))
        trace = multi_tenant_trace(specs, duration_s=60.0, seed=6)
        groups = {t: {r.prefix_group for r in trace if r.tenant == t}
                  for t in (0, 1)}
        assert groups[0] and groups[1]
        assert groups[0].isdisjoint(groups[1])

    def test_validation(self):
        spec = TenantSpec(tenant=0, rate_rps=1.0)
        with pytest.raises(ConfigError, match="at least one"):
            multi_tenant_trace((), duration_s=10.0)
        with pytest.raises(ConfigError, match="duplicate tenant"):
            multi_tenant_trace((spec, spec), duration_s=10.0)
        with pytest.raises(ConfigError, match="duration_s"):
            multi_tenant_trace((spec,), duration_s=0.0)
        with pytest.raises(ConfigError, match="tenant id"):
            TenantSpec(tenant=-1, rate_rps=1.0)
        with pytest.raises(ConfigError, match="rate_rps"):
            TenantSpec(tenant=0, rate_rps=0.0)
        with pytest.raises(ConfigError, match="diurnal_amplitude"):
            TenantSpec(tenant=0, rate_rps=1.0, diurnal_amplitude=1.0)
        with pytest.raises(ConfigError, match="burst_size"):
            TenantSpec(tenant=0, rate_rps=1.0, burst_size=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rate_rps", "peak_s",
                                      "burst_jitter_s"])
    def test_tenant_rejects_non_finite(self, name, value):
        # A NaN peak would thin away every arrival and a NaN jitter be
        # skipped; a non-finite rate would fail mid-generation.
        kwargs = {"tenant": 0, "rate_rps": 1.0, "burst_size": 2,
                  "diurnal_amplitude": 0.5, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be finite "):
            TenantSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["duration_s", "day_s"])
    def test_spans_reject_non_finite(self, name, value):
        spans = {"duration_s": 60.0, name: value}
        tenants = (TenantSpec(tenant=0, rate_rps=1.0,
                              diurnal_amplitude=0.5),)
        with pytest.raises(ConfigError, match="must be finite and "):
            multi_tenant_trace(tenants, **spans)
        with pytest.raises(ConfigError, match="finite, positive "):
            TraceSpec("multi-tenant", tenants=tenants, **spans)


class _StubState:
    def __init__(self, request, admitted_s=None):
        self.request = request
        self.admitted_s = admitted_s


def _state(req_id, tenant, arrival_s=0.0, prompt=8, output=8,
           priority=0):
    return _StubState(Request(req_id=req_id, arrival_s=arrival_s,
                              prompt_len=prompt, output_len=output,
                              tenant=tenant, priority=priority))


class TestTenantPolicies:
    def test_tenant_slo_map_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate TenantSLO"):
            tenant_slo_map((TenantSLO(tenant=0), TenantSLO(tenant=0)))

    def test_tenant_slo_validation(self):
        with pytest.raises(ConfigError, match="ttft_slo_s"):
            TenantSLO(tenant=0, ttft_slo_s=0.0)
        with pytest.raises(ConfigError, match="weight"):
            TenantSLO(tenant=0, weight=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_fair_share_weights_must_be_finite(self, value):
        # A NaN weight makes its tenant's queue keys NaN, and the
        # sorted waiting queue loses its total order.
        with pytest.raises(ConfigError, match="weight must be finite"):
            TenantSLO(tenant=0, weight=value)

    @pytest.mark.parametrize("name", ["ttft_slo_s", "tpot_slo_s"])
    def test_nan_slo_rejected(self, name):
        # A NaN SLO would judge every completion of its tenant bad.
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            TenantSLO(tenant=0, **{name: math.nan})

    def test_fair_share_tags_advance_inversely_to_weight(self):
        scheduler = make_scheduler("paged-fair-share", TINY_GQA, slos=SLOS)
        # Same token totals, tenant 0 at weight 4 vs tenant 1 at 1:
        # tenant 1's virtual tag races ahead 4x faster.
        keys = {}
        for i in range(4):
            keys[("a", i)] = scheduler.queue_key(_state(2 * i, tenant=0))
            keys[("b", i)] = scheduler.queue_key(_state(2 * i + 1,
                                                        tenant=1))
        assert keys[("b", 3)][0] > keys[("a", 3)][0]
        # Within one tenant the tags are monotone (FIFO per tenant).
        assert keys[("a", 3)][0] > keys[("a", 0)][0]

    def test_fair_share_idle_tenant_rejoins_at_floor(self):
        scheduler = make_scheduler("paged-fair-share", TINY_GQA)
        for i in range(10):
            scheduler.queue_key(_state(i, tenant=0, prompt=64, output=64))
        busy_tag = scheduler._tags[0]
        late = scheduler.queue_key(_state(99, tenant=1))
        # The newcomer starts at the fleet floor (the min live tag),
        # not at zero — no unbounded saved credit.
        assert late[0] == pytest.approx(min(busy_tag, scheduler._tags[1]))
        assert late[0] > 0.0

    def test_fair_share_victim_prefers_light_tenants(self):
        scheduler = make_scheduler("paged-fair-share", TINY_GQA, slos=SLOS)
        heavy = _state(0, tenant=0)
        light = _state(1, tenant=1)
        assert scheduler.victim_key(light) > scheduler.victim_key(heavy)

    def test_tenant_priority_ranks_tenants_then_requests(self):
        scheduler = make_scheduler("paged-tenant-priority", TINY_GQA,
                                   slos=SLOS)
        ranked = scheduler.queue_key(_state(0, tenant=0, arrival_s=5.0))
        unranked = scheduler.queue_key(_state(1, tenant=1, arrival_s=0.0))
        assert ranked < unranked  # Tenant rank beats arrival order.
        assert scheduler.outranks(_state(2, tenant=0),
                                  _state(3, tenant=1))
        # Equal rank falls back to request priority.
        assert scheduler.outranks(_state(4, tenant=1, priority=2),
                                  _state(5, tenant=1, priority=0))

    def test_scheduler_builds_policy_with_slos(self):
        scheduler = make_scheduler("paged-fair-share", TINY_GQA,
                                   max_batch=4, slos=SLOS)
        assert scheduler.slos[0].weight == 4.0


class TestFleetLifecycle:
    def test_conservation_across_scale_events(self):
        trace = tiny_trace(duration_s=90.0)
        fleet = tiny_fleet("reactive", n_replicas=3,
                           autoscaler_kwargs={
                               "target_tokens_per_replica": 200.0})
        report = fleet.run(trace)
        assert report.completed == len(trace)
        assert sum(report.routed) == len(trace)
        assert sum(r.completed for r in report.replicas) == len(trace)
        finishes = [r.finish_s for r in report.records]
        assert finishes == sorted(finishes)

    def test_static_fleet_matches_fixed_cluster(self):
        """The warm static fleet is the PR 4 cluster, record for
        record — elasticity adds nothing when the scaler never moves."""
        trace = tiny_trace(duration_s=60.0)
        fleet_report = tiny_fleet(
            "static", n_replicas=2, router="round-robin").run(trace)
        cluster_report = make_cluster(
            tiny_design(), TINY_GQA, 2, policy="paged",
            router="round-robin").run(trace)
        a = sorted((r.request.req_id, r.first_token_s, r.finish_s)
                   for r in fleet_report.records)
        b = sorted((r.request.req_id, r.first_token_s, r.finish_s)
                   for r in cluster_report.records)
        assert a == b

    def test_scale_events_recorded_and_cold_starts_priced(self):
        # The predictive scaler sizes on arrival rate, so the tiny
        # fleet must grow past its 1-replica warm start (~2.5 rps
        # offered at 1 rps per replica) whatever the drain speed.
        trace = tiny_trace(duration_s=120.0)
        fleet = tiny_fleet("predictive", n_replicas=3,
                           autoscaler_kwargs={"replica_rps": 1.0,
                                              "headroom": 1.0})
        report = fleet.run(trace)
        times = [t for t, _ in report.scale_events]
        assert times == sorted(times)
        counts = [n for _, n in report.scale_events]
        assert max(counts) == report.peak_replicas
        assert report.peak_replicas > 1  # It actually scaled up...
        assert report.cold_starts > 0    # ...paying cold starts,
        delay = DEFAULT_COLD_START.delay_s(TINY_GQA)
        assert 0.0 < report.cold_start_seconds \
            <= report.cold_starts * delay + 1e-9
        assert counts[-1] == 0           # ...and wound down at the end.

    def test_replica_seconds_bounded_by_fleet_envelope(self):
        trace = tiny_trace(duration_s=60.0)
        report = tiny_fleet("static", n_replicas=2).run(trace)
        # Two warm replicas alive for the whole session, no more.
        assert report.replica_seconds == pytest.approx(
            2 * report.makespan_s, rel=0.05)
        assert report.mean_replicas == pytest.approx(2.0, abs=0.1)
        assert report.peak_replicas == 2

    def test_min_replicas_floor_holds_through_trough(self):
        trace = tiny_trace(duration_s=90.0)
        report = tiny_fleet(
            "reactive", n_replicas=3,
            autoscaler_kwargs={"target_tokens_per_replica": 1e9,
                               "min_replicas": 2}).run(trace)
        # Load never justifies 2 replicas, but the floor holds until
        # the end-of-run wind-down.  Several events can share one
        # timestamp (each warm spin records a step), so judge the
        # settled count per instant.
        settled = {}
        for t, n in report.scale_events:
            settled[t] = n
        lows = [n for t, n in settled.items() if t < report.makespan_s]
        assert lows and min(lows) >= 2

    @pytest.mark.parametrize("tick_s", [math.nan, math.inf, 0.0, -1.0])
    def test_tick_must_be_positive_and_finite(self, tick_s):
        with pytest.raises(ConfigError, match="tick_s"):
            AutoscalingCluster(tiny_design(), TINY_GQA, 2, tick_s=tick_s)

    def test_non_finite_timing_raises_instead_of_hanging(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", NAN_FLEET_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["tick", "provision", "bandwidth"]

    def test_kv_ready_rejected_before_any_step(self, monkeypatch):
        """A peak-reservation fleet could serve a kv_ready request, so
        only the whole-trace check catches it — before any step, as
        the fixed cluster does, not when routing reaches it."""
        steps = []
        step = ServingEngine.step

        def counted(engine, *args, **kwargs):
            steps.append(engine)
            return step(engine, *args, **kwargs)

        monkeypatch.setattr(ServingEngine, "step", counted)
        trace = tiny_trace(duration_s=60.0)
        trace[-1] = replace(trace[-1], kv_ready=True)
        with pytest.raises(ConfigError, match="cluster-internal"):
            tiny_fleet("static", policy="continuous").run(trace)
        assert steps == []

    def test_slos_need_paged_policy(self):
        with pytest.raises(ConfigError, match="paged"):
            tiny_fleet("static", policy="continuous", slos=SLOS)

    def test_trace_validation(self):
        fleet = tiny_fleet()
        with pytest.raises(ConfigError, match="empty"):
            fleet.run([])
        request = Request(req_id=0, arrival_s=0.0, prompt_len=8,
                          output_len=4)
        with pytest.raises(ConfigError, match="duplicate"):
            fleet.run([request, replace(request)])


class TestFleetReportCost:
    @staticmethod
    def _report(**kwargs):
        defaults = dict(design="mugi", router="least-outstanding",
                        mode="elastic", makespan_s=100.0,
                        autoscaler="reactive",
                        scale_events=[(0.0, 1), (10.0, 2), (60.0, 1),
                                      (100.0, 0)],
                        replica_seconds=150.0, leakage_w=2.0,
                        area_mm2=50.0)
        defaults.update(kwargs)
        return FleetReport(**defaults)

    def test_mean_and_peak_replicas_from_events(self):
        report = self._report()
        assert report.peak_replicas == 2
        # 10s at 1 + 50s at 2 + 40s at 1 = 150 replica-seconds / 100s.
        assert report.mean_replicas == pytest.approx(1.5)

    def test_operational_energy_includes_leakage_on_time(self):
        report = self._report()
        for engine_report in report.replicas:
            engine_report.energy_j = 0.0
        assert report.operational_energy_j == pytest.approx(
            report.energy_j + 2.0 * 150.0)

    def test_cost_matches_carbon_model(self):
        from repro.carbon.intensity import DEFAULT_CARBON
        from repro.carbon.model import (embodied_carbon_kg,
                                        operational_carbon_kg)
        report = self._report()
        expected = operational_carbon_kg(
            report.operational_energy_j, constants=DEFAULT_CARBON) \
            + embodied_carbon_kg(50.0, constants=DEFAULT_CARBON) \
            * 150.0 / DEFAULT_CARBON.lifetime_seconds
        assert report.cost_kg() == pytest.approx(expected)

    def test_cost_per_good_request_inf_when_no_good(self):
        report = self._report()
        assert report.good_completions() == 0
        assert report.cost_per_good_request_kg() == math.inf

    def test_summary_carries_fleet_fields(self):
        summary = self._report().summary()
        for key in ("autoscaler", "cold_starts", "mean_replicas",
                    "peak_replicas", "replica_seconds", "cost_kg"):
            assert key in summary


class TestPerTenantAccounting:
    def test_per_tenant_summary_judges_each_tenant_by_its_slo(self):
        trace = tiny_trace(duration_s=60.0)
        report = tiny_fleet("static", n_replicas=2,
                            policy="paged-fair-share",
                            slos=SLOS).run(trace)
        summary = report.per_tenant_summary(slos=SLOS)
        assert sorted(summary) == report.tenants == [0, 1]
        total = sum(stats["completed"] for stats in summary.values())
        assert total == report.completed
        good_total = report.good_completions(slos=SLOS)
        assert sum(stats["good_completions"]
                   for stats in summary.values()) == good_total

    def test_slos_accept_map_or_sequence(self):
        trace = tiny_trace(duration_s=30.0)
        report = tiny_fleet("static", n_replicas=2).run(trace)
        assert report.good_completions(slos=SLOS) == \
            report.good_completions(slos=tenant_slo_map(SLOS))


class TestSweepIntegration:
    @staticmethod
    def _point(label="fleet", autoscaler="reactive", **kwargs):
        spec = TraceSpec("multi-tenant", tenants=TENANTS, seed=5,
                         duration_s=60.0, day_s=60.0)
        defaults = dict(
            label=label, design=("mugi", 64), model=TINY_GQA,
            trace=spec, policy="paged", max_batch=8, tick_s=10.0,
            n_replicas=2, autoscaler=autoscaler,
            autoscaler_kwargs={"target_tokens_per_replica": 200.0})
        defaults.update(kwargs)
        return SweepPoint(**defaults)

    def test_run_point_yields_fleet_report(self):
        report = run_point(self._point())
        assert isinstance(report, FleetReport)
        assert report.autoscaler == "reactive"
        assert report.mode == "elastic"

    def test_point_validation(self):
        with pytest.raises(ConfigError, match="autoscaler_kwargs"):
            SweepPoint(label="x", design=("mugi", 64), model=TINY_GQA,
                       trace=TraceSpec("steady", n_requests=4,
                                       rate_rps=1.0),
                       autoscaler_kwargs={"min_replicas": 2})
        with pytest.raises(ConfigError, match="slos"):
            SweepPoint(label="x", design=("mugi", 64), model=TINY_GQA,
                       trace=TraceSpec("steady", n_requests=4,
                                       rate_rps=1.0), slos=SLOS)
        with pytest.raises(ConfigError, match="unified"):
            self._point(mode="disaggregated")
        with pytest.raises(ConfigError, match="tenants"):
            TraceSpec("poisson", n_requests=4, rate_rps=1.0,
                      tenants=TENANTS)
        with pytest.raises(ConfigError, match="duration_s"):
            TraceSpec("multi-tenant", tenants=TENANTS)

    def test_trace_spec_realizes_deterministically(self):
        spec = TraceSpec("multi-tenant", tenants=TENANTS, seed=5,
                         duration_s=60.0, day_s=60.0)
        a, b = spec.realize(), spec.realize()
        assert [(r.req_id, r.arrival_s, r.tenant) for r in a] == \
            [(r.req_id, r.arrival_s, r.tenant) for r in b]

    def test_points_are_hashable_with_slos(self):
        point = self._point(slos=SLOS, policy="paged-fair-share")
        assert hash(point) == hash(self._point(
            slos=SLOS, policy="paged-fair-share"))

    def test_multiprocess_matches_serial(self):
        points = [self._point("reactive", "reactive"),
                  self._point("static", "static",
                              autoscaler_kwargs={})]
        serial = run_sweep(points, jobs=1)
        fanned = run_sweep(points, jobs=2)
        for label in ("reactive", "static"):
            a, b = serial[label].report, fanned[label].report
            assert a.completed == b.completed
            assert a.scale_events == b.scale_events
            assert a.cost_kg() == b.cost_kg()
            assert [(r.request.req_id, r.finish_s) for r in a.records] \
                == [(r.request.req_id, r.finish_s) for r in b.records]
