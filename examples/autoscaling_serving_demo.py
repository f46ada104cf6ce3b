"""Autoscaling demo: elastic fleets serving multi-tenant SLO traffic.

Plays one compressed diurnal day — an interactive tenant riding a
cosine load wave plus a bursty batch tenant — against a static
peak-provisioned fleet and the reactive/predictive autoscalers, all
under SFQ fair-share admission, then prices each fleet's carbon per
SLO-good completion.

Run:  python examples/autoscaling_serving_demo.py
"""

from repro.analysis.experiments import autoscaling_serving
from repro.analysis.tables import render_table
from repro.arch import make_design
from repro.serve import AutoscalingCluster

MODEL = autoscaling_serving.SERVE_MODEL  # Llama2-70B-GQA, 4-layer slice.

# ---------------------------------------------------------------- 1. ---
print("=== 1. Scalers on one diurnal multi-tenant day ===")
points = autoscaling_serving.run_scaler_comparison()
rows = [[p.autoscaler, f"{p.good_completions}",
         f"{p.cost_per_good_request_kg * 1e6:.3f}",
         f"{p.mean_replicas:.2f}", f"{p.peak_replicas}",
         f"{p.cold_starts}", f"{p.p99_ttft_s:.1f}"]
        for p in points]
print(render_table(
    ["Scaler", "SLO-good", "kgCO2e/good (x1e-6)", "Mean repl.",
     "Peak", "Cold starts", "p99 TTFT (s)"],
    rows, title=f"Elastic fleets (<= {autoscaling_serving.N_REPLICAS} "
                f"Mugi-256 replicas) serving {MODEL.name}, 2-tenant "
                f"diurnal day, SFQ fair share"))
by_name = {p.autoscaler: p for p in points}
saving = (by_name["static"].cost_per_good_request_kg
          / by_name["reactive"].cost_per_good_request_kg)
print(f"\nReactive scaling at equal goodput: {saving:.2f}x cheaper "
      f"per SLO-good request than static provisioning")

# ---------------------------------------------------------------- 2. ---
print("\n=== 2. Per-tenant SLO attainment (reactive fleet) ===")
trace = autoscaling_serving.diurnal_trace_spec()
sweep_point = autoscaling_serving.fleet_point("reactive", "reactive",
                                              trace)
from repro.serve import run_point  # noqa: E402
report = run_point(sweep_point)
slos = {s.tenant: s for s in autoscaling_serving.SLOS}
rows = []
for tenant, stats in sorted(report.per_tenant_summary(
        slos=autoscaling_serving.SLOS).items()):
    slo = slos[tenant]
    rows.append([f"{tenant}", f"{slo.ttft_slo_s:g}",
                 f"{stats['completed']}", f"{stats['good_completions']}",
                 f"{stats['mean_ttft_s']:.1f}",
                 f"{stats['p99_ttft_s']:.1f}"])
print(render_table(
    ["Tenant", "TTFT SLO (s)", "Completed", "SLO-good", "Mean TTFT (s)",
     "p99 TTFT (s)"],
    rows, title="Fair-share admission holds each tenant to its own "
                "deadline while the fleet breathes"))
print(f"\nScale events (t, active replicas): "
      f"{[(round(t), n) for t, n in report.scale_events]}")
print(f"Cold starts: {report.cold_starts} "
      f"({report.cold_start_seconds:.0f}s provisioning), "
      f"replica-seconds billed: {report.replica_seconds:.0f}")

# ---------------------------------------------------------------- 3. ---
print("\n=== 3. One-call elastic fleet construction ===")
cluster = AutoscalingCluster(
    make_design("mugi", 256), MODEL, n_replicas=2, autoscaler="reactive",
    policy="paged-fair-share", max_batch=24, seq_len_bucket=32,
    slos=autoscaling_serving.SLOS, tick_s=60.0,
    autoscaler_kwargs={"target_tokens_per_replica": 1000.0})
small = autoscaling_serving.diurnal_trace_spec(
    seed=3, duration_s=900.0, day_s=900.0).realize()
report = cluster.run(small)
print(f"{report.design} [{report.autoscaler}]: "
      f"completed={report.completed}, "
      f"good={report.good_completions(slos=autoscaling_serving.SLOS)}, "
      f"cost={report.cost_kg() * 1e3:.3f} gCO2e, "
      f"peak={report.peak_replicas} replicas")
