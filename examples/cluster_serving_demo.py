"""Cluster-serving demo: replicated engines, routers, disaggregation.

Serves a shared-prefix trace on four paged Mugi replicas behind each
router policy (round-robin / least-outstanding / power-of-two /
prefix-affinity), then splits the same fleet into dedicated prefill and
decode pools with the KV migration priced over the cluster
interconnect.

Run:  python examples/cluster_serving_demo.py
"""

from repro.analysis.experiments import cluster_serving
from repro.analysis.tables import render_table
from repro.arch import make_design
from repro.serve import make_cluster

MODEL = cluster_serving.SERVE_MODEL  # Llama2-70B-GQA, 4-layer slice.

# ---------------------------------------------------------------- 1. ---
print("=== 1. Router policies at equal silicon ===")
points = cluster_serving.run_router_comparison(n_requests=240)
rows = [[p.router, f"{p.goodput_rps:.4f}", f"{p.prefix_hit_rate:.2f}",
         f"{p.mean_ttft_s:.1f}", f"{p.token_balance:.2f}"]
        for p in sorted(points, key=lambda p: p.router)]
print(render_table(
    ["Router", "Goodput req/s", "Prefix hit", "Mean TTFT (s)",
     "Token balance"],
    rows, title=f"4x Mugi (256) paged replicas serving {MODEL.name}, "
                f"80% shared-prefix trace, tight per-replica KV"))
by_router = {p.router: p.goodput_rps for p in points}
print(f"\nCache-aware routing gain at equal replica count: "
      f"{by_router['prefix-affinity'] / by_router['round-robin']:.2f}x")

# ---------------------------------------------------------------- 2. ---
print("\n=== 2. Goodput vs replica count (prefix-affinity) ===")
points = cluster_serving.run_replica_scaling(replica_counts=(1, 2, 4),
                                             n_requests=160)
rows = [[f"{p.n_replicas}", f"{p.goodput_rps:.4f}",
         f"{p.prefix_hit_rate:.2f}"]
        for p in sorted(points, key=lambda p: p.n_replicas)]
print(render_table(
    ["Replicas", "Goodput req/s", "Prefix hit"],
    rows, title="Affinity keeps G/N groups hot per replica, so the hit "
                "rate rises with the fleet"))

# ---------------------------------------------------------------- 3. ---
print("\n=== 3. Prefill/decode disaggregation ===")
points = cluster_serving.run_disaggregation(n_requests=160)
rows = [[p.mode, f"{p.goodput_rps:.4f}", f"{p.slo_goodput_rps:.4f}",
         f"{p.mean_tpot_s:.3f}", f"{p.migrations}"]
        for p in points]
print(render_table(
    ["Mode", "Goodput req/s",
     f"Goodput @TPOT<={cluster_serving.TPOT_SLO_S:g}s", "Mean TPOT (s)",
     "KV migrations"],
    rows, title="Dedicated decode replicas never stall behind prefill "
                "chunks; each request pays one KV hop"))

# ---------------------------------------------------------------- 4. ---
print("\n=== 4. One-call cluster construction ===")
cluster = make_cluster(make_design("mugi", 256), MODEL, n_replicas=2,
                       policy="paged", router="prefix-affinity",
                       seq_len_bucket=32)
trace = cluster_serving.cluster_trace_spec(n_requests=60, rate_rps=2.0,
                                           seed=1).realize()
report = cluster.run(trace)
print(f"{report.design} via {report.router}: "
      f"completed={report.completed}, "
      f"goodput={report.goodput_rps():.3f} req/s, "
      f"hit={report.prefix_hit_rate:.2f}, routed={report.routed}")
