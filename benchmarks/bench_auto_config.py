"""Auto-configuration search — Pareto frontier vs the hand-picked fleet.

The acceptance headline hands the :mod:`repro.search` driver the four
serving knobs PRs 7-8 tuned by hand (autoscaler policy, replica
ceiling, service batch, control tick) and requires the searched
frontier to contain a config matching or beating the hand-picked
reactive fleet on cost-per-good-request at equal goodput — or to
document that the hand-picked cell is itself on the frontier.

The benchmarked entry runs the CI-sized smoke space (4 axes, 8 cells,
half-hour diurnal slice) through successive halving with ``jobs=2``;
a companion check pins grid-vs-halving frontier agreement on the same
space through one shared :class:`repro.serve.SweepExecutor` session —
halving's full-fidelity stage must come back out of the cross-run memo
(the tier-1 equivalence test covers the per-point details).
"""

from conftest import once

from repro.analysis import experiments
from repro.analysis.experiments import auto_config
from repro.serve import SweepExecutor


def test_auto_config_smoke(benchmark, save_result):
    report = once(benchmark, experiments.run, "auto_config", smoke=True)

    data = report.data
    result = data["result"]
    # The hand-picked cell sits inside the smoke space, so grid-or-
    # halving search can never lose to it at equal goodput...
    assert report.metric("cost_ratio") <= 1.0 + 1e-9
    assert report.metric("goodput_ratio") >= 1.0 - 1e-9
    # ...and on this space it is exactly the frontier's best point.
    assert report.metric("hand_picked_on_frontier")
    assert data["best"].label == data["hand_picked_label"]
    # Halving ran its cheap rung before the full-fidelity pass (on a
    # space this small the rung may keep everyone — the win is that
    # the frontier still matches grid exactly).
    assert result.strategy == "halving"
    assert result.total_runs > result.evaluated
    assert len(result.stages) >= 2

    save_result("auto_config", report.summary())
    # Host wall clocks vary run to run, so they go to stdout, not into
    # the committed artefact.
    print(f"search[{result.strategy}] wall {result.wall_s:.2f}s ("
          + ", ".join(f"{stage.name} {stage.wall_s:.2f}s"
                      for stage in result.stages) + ")")


def test_grid_matches_halving_frontier():
    wl = auto_config.workload(duration_s=1800.0)
    space = auto_config.config_space(axes=auto_config.SMOKE_AXES)
    # One executor session spans both strategies: halving's
    # full-fidelity stage re-asks for points grid already simulated,
    # so the memo answers them instead of the simulator.
    with SweepExecutor(jobs=2) as executor:
        results = [
            auto_config.search(space, wl,
                               objectives=auto_config.OBJECTIVES,
                               strategy=strategy,
                               prefix_fraction=0.5, executor=executor)
            for strategy in ("grid", "halving")]
    grid, halving = (r.frontier for r in results)
    assert grid.labels() == halving.labels()
    for label in grid.labels():
        assert grid[label].values == halving[label].values
    # The shared memo really carried the second strategy's full stage.
    assert results[1].memo_hits >= results[1].evaluated
