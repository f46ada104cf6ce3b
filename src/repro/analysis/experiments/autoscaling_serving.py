"""Fleet autoscaling under multi-tenant SLOs on a simulated day.

The cluster layer (PR 6) fixed the replica count up front; this driver
quantifies the elastic fleet (:class:`repro.serve.AutoscalingCluster`)
that resizes itself on the cluster clock while a multi-day diurnal
trace plays out:

* **scaler comparison** — static peak provisioning vs the reactive
  queue-depth scaler vs the predictive EWMA scaler on the same
  compressed diurnal day, all serving the same two tenants (an
  interactive tenant with a tight TTFT/TPOT SLO riding the diurnal
  wave, and a bursty batch tenant with a loose deadline) under SFQ
  fair-share admission;
* **cost-per-goodput** — each fleet's carbon bill (dynamic + leakage
  energy over replica-seconds, plus amortized embodied silicon) divided
  by its SLO-good completions.

``run_headline`` is the acceptance experiment: the SLO-aware scaler
must match static provisioning's goodput at strictly lower
cost-per-good-request — the whole point of scaling down the trough.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigError
from ...serve import (
    FleetReport,
    LengthSpec,
    SweepPoint,
    TenantSLO,
    TenantSpec,
    TraceSpec,
    run_sweep,
)
from . import registry
from .paged_serving import SERVE_MODEL

#: Chat-style lengths for both tenants: short prompts, short outputs,
#: so fleet capacity — not any one monster request — sets the SLO.
PROMPT_SPEC = LengthSpec("lognormal", value=64, low=8, high=256)
OUTPUT_SPEC = LengthSpec("lognormal", value=64, low=8, high=256)

#: One compressed "day" (2 simulated hours).  The cosine diurnal wave
#: still spans a full period, so the fleet sees one trough and one
#: peak, but the sweep stays seconds of wall clock.
DAY_S = 7200.0

#: The interactive tenant rides the diurnal wave: 0.30 rps mean with
#: amplitude 0.8 swings the offered load 0.06..0.54 rps — ~1 replica at
#: the trough, all 4 at the peak.  The batch tenant drips 4-request
#: bursts at a flat 0.05 rps mean.
TENANTS = (
    TenantSpec(tenant=0, rate_rps=0.30, prompt=PROMPT_SPEC,
               output=OUTPUT_SPEC, diurnal_amplitude=0.8,
               peak_s=0.35 * DAY_S),
    TenantSpec(tenant=1, rate_rps=0.05, prompt=PROMPT_SPEC,
               output=OUTPUT_SPEC, burst_size=4, burst_jitter_s=3.0,
               priority=-1),
)

#: Interactive tenant: tight first-token and per-token deadlines, 4x
#: the fair-share weight.  Batch tenant: a loose completion deadline.
SLOS = (TenantSLO(tenant=0, ttft_slo_s=30.0, tpot_slo_s=3.0, weight=4.0),
        TenantSLO(tenant=1, ttft_slo_s=240.0, weight=1.0))

#: Fleet ceiling == the static baseline's fixed size (peak need).
N_REPLICAS = 4

#: Scaler operating points, tuned so each SLO-aware scaler holds the
#: interactive SLO through the peak ramp: the reactive scaler tracks
#: outstanding work (~1k tokens per replica is a healthy queue at
#: max_batch 24), the predictive scaler forecasts 5 min ahead —
#: comfortably past the cold-start delay — at ~0.14 rps per replica.
#: Both keep a 2-replica floor so the trough never one-replica-queues
#: the batch tenant's bursts.
SCALERS = {
    "static": {},
    "reactive": {"target_tokens_per_replica": 1000.0, "min_replicas": 2},
    "predictive": {"replica_rps": 0.14, "horizon_s": 300.0,
                   "headroom": 1.3, "backlog_tokens_per_replica": 3000.0,
                   "min_replicas": 2},
}

TICK_S = 60.0


def diurnal_trace_spec(seed: int = 11, duration_s: float = DAY_S,
                       day_s: float = DAY_S) -> TraceSpec:
    """The two-tenant diurnal day as a declarative
    :class:`repro.serve.TraceSpec` (regenerated bit-identically inside
    each sweep worker)."""
    return TraceSpec("multi-tenant", tenants=TENANTS, seed=seed,
                     duration_s=duration_s, day_s=day_s)


@dataclass(frozen=True)
class FleetPoint:
    """One cell of an autoscaling sweep."""

    autoscaler: str
    good_completions: int
    goodput_rps: float
    cost_kg: float
    cost_per_good_request_kg: float
    mean_replicas: float
    peak_replicas: int
    cold_starts: int
    cold_start_seconds: float
    replica_seconds: float
    mean_ttft_s: float
    p99_ttft_s: float

    @classmethod
    def of(cls, report: FleetReport, slos=SLOS) -> "FleetPoint":
        return cls(
            autoscaler=report.autoscaler,
            good_completions=report.good_completions(slos=slos),
            goodput_rps=report.goodput_rps(slos=slos),
            cost_kg=report.cost_kg(),
            cost_per_good_request_kg=report.cost_per_good_request_kg(
                slos=slos),
            mean_replicas=report.mean_replicas,
            peak_replicas=report.peak_replicas,
            cold_starts=report.cold_starts,
            cold_start_seconds=report.cold_start_seconds,
            replica_seconds=report.replica_seconds,
            mean_ttft_s=report.mean_ttft_s,
            p99_ttft_s=report.ttft_percentile(99))


def fleet_point(label: str, autoscaler: str, trace: TraceSpec,
                model=SERVE_MODEL, n_replicas: int = N_REPLICAS,
                autoscaler_kwargs: dict | None = None) -> SweepPoint:
    """One elastic-fleet grid cell at the experiment's operating point
    (paged fair-share scheduling, SFQ weights from :data:`SLOS`)."""
    kwargs = SCALERS.get(autoscaler, {}) if autoscaler_kwargs is None \
        else autoscaler_kwargs
    return SweepPoint(
        label=label, design=("mugi", 256), model=model, trace=trace,
        policy="paged-fair-share", max_batch=24, seq_len_bucket=32,
        n_replicas=n_replicas, autoscaler=autoscaler,
        autoscaler_kwargs=kwargs, tick_s=TICK_S, slos=SLOS)


def run_scaler_comparison(model=SERVE_MODEL, seed: int = 11,
                          scalers=tuple(SCALERS), jobs: int = 1,
                          duration_s: float = DAY_S) -> list[FleetPoint]:
    """Every scaler on the same diurnal multi-tenant day.

    Runs through :func:`repro.serve.run_sweep`; ``jobs>1`` fans the
    scalers over worker processes with identical results.
    """
    trace = diurnal_trace_spec(seed=seed, duration_s=duration_s)
    points = [fleet_point(name, name, trace, model=model)
              for name in scalers]
    sweep = run_sweep(points, jobs=jobs)
    return [FleetPoint.of(outcome.report) for outcome in sweep]


def run_headline(model=SERVE_MODEL, seed: int = 11,
                 jobs: int = 1) -> dict:
    """Acceptance headline: SLO-aware scaling vs static provisioning.

    Equal fleet ceiling, same diurnal two-tenant day, same fair-share
    scheduler; the only difference is whether the fleet resizes.  The
    reactive scaler must keep **every** SLO-good completion static
    keeps (the peak is fully provisioned either way) while billing
    strictly fewer replica-seconds through the trough — i.e. equal or
    better goodput at strictly lower cost per good request.
    """
    trace = diurnal_trace_spec(seed=seed)
    points = [fleet_point(name, name, trace, model=model)
              for name in ("static", "reactive", "predictive")]
    sweep = run_sweep(points, jobs=jobs)
    reports = {outcome.label: outcome.report for outcome in sweep}
    points = {label: FleetPoint.of(report)
              for label, report in reports.items()}
    static, reactive = points["static"], points["reactive"]
    return {
        "n_requests": reports["static"].completed,
        "slos": SLOS,
        "points": points,
        "reports": reports,
        "goodput_ratio": reactive.goodput_rps
        / max(static.goodput_rps, 1e-12),
        "cost_ratio": reactive.cost_per_good_request_kg
        / max(static.cost_per_good_request_kg, 1e-300),
    }


#: Variant name → underlying ``run_*`` driver.
VARIANTS = {
    "headline": run_headline,
    "scalers": run_scaler_comparison,
}


@registry.register(
    "autoscaling_serving",
    description="elastic fleets vs static provisioning on a diurnal "
                "multi-tenant day (SLO goodput and carbon cost)",
    defaults={"variant": "headline", "seed": 11, "jobs": 1,
              "duration_s": DAY_S},
    smoke={"variant": "scalers", "jobs": 2, "duration_s": 1800.0})
def run(config: dict) -> registry.Report:
    """Uniform registry entry over the ``run_*`` drivers."""
    variant = config.get("variant", "headline")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown autoscaling_serving variant "
                          f"{variant!r}; expected one of "
                          f"{sorted(VARIANTS)}")
    data = registry.call_with_config(VARIANTS[variant], config,
                                     drop=("variant",))
    if variant == "headline":
        metrics = {"goodput_ratio": data["goodput_ratio"],
                   "cost_ratio": data["cost_ratio"]}
    else:
        metrics = {}
        for p in data:
            metrics[f"cost_per_good_request_kg[{p.autoscaler}]"] = \
                p.cost_per_good_request_kg
            metrics[f"goodput_rps[{p.autoscaler}]"] = p.goodput_rps
    return registry.Report(experiment="autoscaling_serving",
                           config=config, data=data, metrics=metrics)
