"""Auto-configuration demo: searching the serving knobs by Pareto.

Hands the ``repro.search`` driver the four serving knobs the earlier
experiments tuned by hand — autoscaler policy, replica ceiling,
service batch, control tick — and asks for the (cost-per-good-request,
goodput) Pareto frontier on a half-hour slice of the diurnal
two-tenant day, then compares the searched winner against the
hand-picked reactive fleet.

Run:  python examples/auto_config_demo.py
"""

from repro.analysis.experiments import auto_config
from repro.search import search

# ---------------------------------------------------------------- 1. ---
print("=== 1. The search space ===")
space = auto_config.config_space(axes=auto_config.SMOKE_AXES)
print(space.describe())

# ---------------------------------------------------------------- 2. ---
print("\n=== 2. Grid search on a half-hour diurnal slice ===")
wl = auto_config.workload(duration_s=1800.0)
result = search(space, wl, objectives=auto_config.OBJECTIVES,
                strategy="grid")
print(result.summary())

# ---------------------------------------------------------------- 3. ---
print("\n=== 3. Successive halving reaches the same frontier ===")
halved = search(space, wl, objectives=auto_config.OBJECTIVES,
                strategy="halving", prefix_fraction=0.5)
print(halved.summary())
assert halved.frontier.labels() == result.frontier.labels()
print(f"\nfrontiers agree; halving spent {halved.total_runs} runs "
      f"({halved.evaluated} at full fidelity, {halved.wall_s:.2f} s) "
      f"vs grid's {result.total_runs} ({result.wall_s:.2f} s)")

# ---------------------------------------------------------------- 4. ---
print("\n=== 4. Searched frontier vs the hand-picked fleet ===")
hand = auto_config.hand_picked_metrics(wl)
best = auto_config.best_at_goodput(result.frontier, hand["goodput"])
print(f"hand-picked (reactive x4, batch 24, 60 s tick): "
      f"cost={hand['cost_per_good_request'] * 1e6:.3f} "
      f"x1e-6 kgCO2e/good, goodput={hand['goodput']:.4f} req/s")
print(f"searched best at equal goodput: {best.label}: "
      f"cost={best.value('cost_per_good_request') * 1e6:.3f} "
      f"x1e-6 kgCO2e/good, goodput={best.value('goodput'):.4f} req/s")
ratio = (best.value("cost_per_good_request")
         / max(hand["cost_per_good_request"], 1e-300))
print(f"cost ratio (searched / hand): {ratio:.3f}x "
      f"({'hand-picked config is on the frontier' if ratio >= 1.0 else 'search found a cheaper config'})")
