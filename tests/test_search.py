"""Search layer tests: Pareto semantics, spaces, driver, registry.

ISSUE satellites pinned here:

* Pareto dominance — strict dominance with ties, duplicate score
  vectors, NaN-as-worst, and the single-objective degenerate case;
* search-vs-grid equivalence — successive halving reports the same
  frontier (same labels, same full-fidelity scores) as exhaustive grid
  on a small space;
* registry round-trip — every registered experiment resolves, rejects
  unknown config keys, and the uniform ``run`` produces a ``Report``;
* serial ≡ parallel — sweep points exercising the newly promoted
  fields (tp/pp, block_size, disaggregated prefill split) report
  bit-identically under ``jobs=1`` and ``jobs=2``;
* the benchmark gate refuses ``--update-baseline`` with ``--jobs > 1``.
"""

import importlib.util
import math
import pathlib

import pytest

from repro.analysis import experiments
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.search import (
    Axis,
    FrontierPoint,
    Objective,
    ParetoFrontier,
    SearchSpace,
    Workload,
    dominates,
    make_objective,
    make_objectives,
    pareto_split,
    search,
)
from repro.serve import LengthSpec, TraceSpec, run_sweep

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)


def _trace(n_requests=40, seed=3, rate=4.0) -> TraceSpec:
    return TraceSpec("poisson", n_requests=n_requests, rate_rps=rate,
                     prompt=SHORT, output=SHORT, seed=seed)


MIN_O = Objective(name="lat", direction="min", getter=lambda r: r)
MAX_O = Objective(name="tput", direction="max", getter=lambda r: r)
OBJS = (MIN_O, MAX_O)


def _fp(label, lat, tput):
    return FrontierPoint(label=label,
                         values=(("lat", lat), ("tput", tput)))


class TestParetoDominance:
    def test_strict_dominance(self):
        assert dominates(_fp("a", 1.0, 5.0), _fp("b", 2.0, 4.0), OBJS)
        assert not dominates(_fp("b", 2.0, 4.0), _fp("a", 1.0, 5.0),
                             OBJS)

    def test_tradeoff_neither_dominates(self):
        a, b = _fp("a", 1.0, 3.0), _fp("b", 2.0, 5.0)
        assert not dominates(a, b, OBJS)
        assert not dominates(b, a, OBJS)

    def test_equal_vectors_do_not_dominate(self):
        a, b = _fp("a", 1.0, 5.0), _fp("b", 1.0, 5.0)
        assert not dominates(a, b, OBJS)
        assert not dominates(b, a, OBJS)

    def test_partial_tie_dominates(self):
        """Equal on one objective, better on the other."""
        assert dominates(_fp("a", 1.0, 5.0), _fp("b", 1.0, 4.0), OBJS)

    def test_nan_is_worst(self):
        sane = _fp("sane", 9.0, 0.1)
        broken = _fp("broken", math.nan, 99.0)
        assert dominates(sane, _fp("nan2", math.nan, math.nan), OBJS)
        # ...but a NaN on one axis still leaves the other comparable.
        assert not dominates(sane, broken, OBJS)

    def test_split_keeps_duplicates_together(self):
        twin_a, twin_b = _fp("twin-a", 1.0, 5.0), _fp("twin-b", 1.0, 5.0)
        loser = _fp("loser", 2.0, 4.0)
        frontier, dominated = pareto_split([twin_a, loser, twin_b], OBJS)
        assert [c.label for c in frontier] == ["twin-a", "twin-b"]
        assert [c.label for c in dominated] == ["loser"]

    def test_split_single_objective_degenerates_to_min(self):
        cands = [_fp("a", 3.0, 0.0), _fp("b", 1.0, 0.0),
                 _fp("c", 1.0, 0.0), _fp("d", 2.0, 0.0)]
        frontier, dominated = pareto_split(cands, (MIN_O,))
        assert sorted(c.label for c in frontier) == ["b", "c"]
        assert sorted(c.label for c in dominated) == ["a", "d"]

    def test_split_all_non_dominated(self):
        cands = [_fp("a", 1.0, 1.0), _fp("b", 2.0, 2.0),
                 _fp("c", 3.0, 3.0)]
        frontier, dominated = pareto_split(cands, OBJS)
        assert len(frontier) == 3 and not dominated


class TestParetoFrontier:
    def test_sorted_best_first_with_label_tiebreak(self):
        frontier = ParetoFrontier(OBJS, [
            _fp("b", 1.0, 5.0), _fp("a", 1.0, 5.0), _fp("c", 0.5, 2.0)])
        assert frontier.labels() == ["c", "a", "b"]

    def test_best_respects_direction(self):
        frontier = ParetoFrontier(OBJS, [
            _fp("cheap", 1.0, 2.0), _fp("fast", 3.0, 9.0)])
        assert frontier.best("lat").label == "cheap"
        assert frontier.best("tput").label == "fast"
        with pytest.raises(KeyError):
            frontier.best("nope")

    def test_lookup_spans_dominated(self):
        frontier = ParetoFrontier(OBJS, [
            _fp("win", 1.0, 5.0), _fp("lose", 2.0, 4.0)])
        assert frontier["lose"].value("lat") == 2.0
        with pytest.raises(KeyError):
            frontier["ghost"]

    def test_summary_counts_and_columns(self):
        frontier = ParetoFrontier(OBJS, [
            _fp("win", 1.0, 5.0), _fp("lose", 2.0, 4.0)])
        text = frontier.summary()
        assert "1 of 2 configs non-dominated" in text
        assert "lat (min)" in text and "tput (max)" in text
        assert "win" in text and "lose" not in text

    def test_needs_objectives_and_values(self):
        with pytest.raises(ConfigError):
            ParetoFrontier((), [_fp("a", 1.0, 2.0)])
        with pytest.raises(ConfigError):
            FrontierPoint(label="empty", values=())


class TestObjectives:
    def test_registry_resolution(self):
        wl = Workload(trace=_trace(), ttft_slo_s=5.0)
        objs = make_objectives(("goodput", "ttft_p99"), wl)
        assert [o.name for o in objs] == ["goodput", "ttft_p99"]
        assert [o.direction for o in objs] == ["max", "min"]

    def test_canonical_and_better(self):
        assert MAX_O.canonical(2.0) == -2.0
        assert MIN_O.canonical(2.0) == 2.0
        assert MAX_O.better(3.0, 2.0)
        assert MIN_O.better(2.0, 3.0)

    def test_unknown_and_duplicate_rejected(self):
        wl = Workload(trace=_trace())
        with pytest.raises(ConfigError, match="unknown objective"):
            make_objective("speedyness", wl)
        with pytest.raises(ConfigError, match="distinct"):
            make_objectives(("goodput", "goodput"), wl)
        with pytest.raises(ConfigError, match="at least one"):
            make_objectives((), wl)

    def test_instances_pass_through_and_singletons_wrap(self):
        wl = Workload(trace=_trace())
        assert make_objectives(MIN_O, wl) == (MIN_O,)
        assert make_objectives("goodput", wl)[0].name == "goodput"

    def test_cost_objective_demands_fleet_report(self):
        wl = Workload(trace=_trace(), ttft_slo_s=5.0)
        obj = make_objective("cost_per_good_request", wl)

        class NotAFleet:
            pass

        with pytest.raises(ConfigError, match="autoscaler"):
            obj.value(NotAFleet())

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigError):
            Objective(name="x", direction="sideways",
                      getter=lambda r: 0.0)


class TestWorkloadPrefix:
    def test_request_trace_shrinks_deterministically(self):
        wl = Workload(trace=_trace(n_requests=100, seed=7))
        short = wl.prefix(0.5)
        assert short.trace.n_requests == 50
        # Same seed, same spawn key: the shrink changes only the span,
        # so two identically shrunk workloads realize bit-identically.
        again = Workload(trace=_trace(n_requests=100, seed=7)).prefix(0.5)
        assert short.trace.realize() == again.trace.realize()
        assert len(short.trace.realize()) == 50
        # And the shrink leaves SLO terms alone.
        assert short.slos == wl.slos

    def test_floor_returns_self(self):
        wl = Workload(trace=_trace(n_requests=40))
        short = wl.prefix(0.25)                   # 40*0.25=10 -> floor 32
        assert short is not wl and short.trace.n_requests == 32
        # A floor landing on/over the full span is a detectable no-op...
        tiny = Workload(trace=_trace(n_requests=30))
        assert tiny.prefix(0.5) is tiny           # floor 32 >= 30
        # ...and so is fraction >= 1.
        assert wl.prefix(1.0) is wl

    def test_multi_tenant_shrinks_duration(self):
        from repro.serve import TenantSpec
        trace = TraceSpec(
            "multi-tenant", seed=5, duration_s=2000.0, day_s=2000.0,
            tenants=(TenantSpec(tenant=0, rate_rps=0.5, prompt=SHORT,
                                output=SHORT),))
        wl = Workload(trace=trace)
        short = wl.prefix(0.5)
        assert short.trace.duration_s == 1000.0
        assert short.trace.day_s == 2000.0  # shape preserved
        assert wl.prefix(0.05).trace.duration_s == 240.0  # floor

    def test_bad_fraction_rejected(self):
        wl = Workload(trace=_trace())
        with pytest.raises(ConfigError):
            wl.prefix(0.0)

    def test_trace_must_be_spec(self):
        with pytest.raises(ConfigError):
            Workload(trace="not a spec")


class TestSearchSpace:
    BASE = {"model": TINY_GQA, "design": ("mugi", 64),
            "policy": "continuous", "max_batch": 4, "seq_len_bucket": 8}

    def test_unknown_axis_field_rejected(self):
        with pytest.raises(ConfigError, match="searchable"):
            Axis("warp_speed", (1, 2))
        with pytest.raises(ConfigError, match="searchable"):
            SearchSpace({"warp_speed": (1, 2)}, base=self.BASE)

    def test_axis_needs_distinct_values(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Axis("max_batch", (4, 4))
        with pytest.raises(ConfigError, match="no values"):
            Axis("max_batch", ())

    def test_base_validation(self):
        with pytest.raises(ConfigError, match="model"):
            SearchSpace({"max_batch": (2, 4)},
                        base={"design": ("mugi", 64)})
        with pytest.raises(ConfigError, match="design"):
            SearchSpace({"max_batch": (2, 4)}, base={"model": TINY_GQA})
        with pytest.raises(ConfigError, match="both an axis"):
            SearchSpace({"max_batch": (2, 4)},
                        base=dict(self.BASE, max_batch=8))
        with pytest.raises(ConfigError, match="at least one axis"):
            SearchSpace((), base=self.BASE)

    def test_size_labels_and_design_normalization(self):
        space = SearchSpace(
            {"design": ("mugi", ("sa", 16)), "max_batch": (2, 4)},
            base={"model": TINY_GQA, "policy": "continuous",
                  "seq_len_bucket": 8})
        assert space.size == 4
        labels = [space.label_of(a) for a in space.assignments()]
        assert labels == ["design=mugi,max_batch=2",
                          "design=mugi,max_batch=4",
                          "design=sa-16,max_batch=2",
                          "design=sa-16,max_batch=4"]

    def test_invalid_combos_skipped_with_reasons(self):
        """block_size on a continuous policy is skipped, not fatal."""
        space = SearchSpace(
            {"policy": ("continuous", "paged"), "block_size": (None, 16)},
            base={"model": TINY_GQA, "design": ("mugi", 64),
                  "max_batch": 4, "seq_len_bucket": 8})
        wl = Workload(trace=_trace())
        points, skipped = space.points(wl)
        assert len(points) == 3
        assert [label for label, _ in skipped] \
            == ["policy=continuous,block_size=16"]
        assert "paged" in skipped[0][1]

    def test_derive_hook_and_validation(self):
        base = {k: v for k, v in self.BASE.items() if k != "max_batch"}
        space = SearchSpace(
            {"max_batch": (2, 4)}, base=base,
            derive=lambda fields: {
                "seq_len_bucket": fields["max_batch"] * 4})
        wl = Workload(trace=_trace())
        points, skipped = space.points(wl)
        assert not skipped
        assert [p.seq_len_bucket for p in points] == [8, 16]

        bad = SearchSpace({"max_batch": (2, 4)}, base=base,
                          derive=lambda fields: {"warp_speed": 9})
        with pytest.raises(ConfigError, match="not a SweepPoint field"):
            bad.point(next(bad.assignments()), wl)

    def test_workload_slos_ride_onto_autoscaler_points(self):
        from repro.serve import TenantSLO, TenantSpec
        trace = TraceSpec(
            "multi-tenant", seed=5, duration_s=600.0, day_s=600.0,
            tenants=(TenantSpec(tenant=0, rate_rps=0.5, prompt=SHORT,
                                output=SHORT),))
        slos = (TenantSLO(tenant=0, ttft_slo_s=30.0),)
        wl = Workload(trace=trace, slos=slos)
        space = SearchSpace(
            {"autoscaler": (None, "reactive")},
            base={"model": TINY_GQA, "design": ("mugi", 64),
                  "policy": "paged-fair-share", "max_batch": 4,
                  "seq_len_bucket": 8, "n_replicas": 2,
                  "router": "round-robin"})
        points, skipped = space.points(wl)
        assert not skipped
        by_label = {p.label: p for p in points}
        assert by_label["autoscaler=reactive"].slos == slos
        assert by_label["autoscaler=none"].slos == ()

    def test_describe_mentions_every_axis(self):
        space = SearchSpace({"max_batch": (2, 4)},
                            base={k: v for k, v in self.BASE.items()
                                  if k != "max_batch"})
        text = space.describe()
        assert "2 combinations" in text and "max_batch: 2, 4" in text


class TestSearchDriver:
    def _space(self):
        return SearchSpace(
            {"max_batch": (1, 2, 4, 8)},
            base={"model": TINY_GQA, "design": ("mugi", 64),
                  "policy": "continuous", "seq_len_bucket": 8})

    def _workload(self):
        return Workload(trace=_trace(n_requests=48, seed=9),
                        ttft_slo_s=8.0, tpot_slo_s=1.0)

    def test_grid_full_coverage(self):
        result = search(self._space(), self._workload(),
                        objectives=("goodput", "ttft_p99"))
        assert result.strategy == "grid"
        assert result.evaluated == result.total_runs == 4
        assert not result.skipped
        assert [s.name for s in result.stages] == ["full"]
        # Every frontier point carries provenance for re-running.
        for c in result.frontier:
            assert c.point is not None and c.report is not None
            assert c.stage == "full"

    def test_halving_matches_grid_frontier(self):
        """The acceptance property: smart search == grid on the
        frontier (labels AND full-fidelity scores)."""
        grid = search(self._space(), self._workload(),
                      objectives=("goodput", "ttft_p99"))
        halved = search(self._space(), self._workload(),
                        objectives=("goodput", "ttft_p99"),
                        strategy="halving", prefix_fraction=0.5)
        assert halved.strategy == "halving"
        assert len(halved.stages) >= 2
        assert halved.total_runs > halved.evaluated
        assert halved.frontier.labels() == grid.frontier.labels()
        for label in grid.frontier.labels():
            assert halved.frontier[label].values \
                == grid.frontier[label].values

    def test_deterministic_across_calls(self):
        one = search(self._space(), self._workload(),
                     objectives=("goodput", "ttft_p99"))
        two = search(self._space(), self._workload(),
                     objectives=("goodput", "ttft_p99"))
        assert one.frontier.labels() == two.frontier.labels()
        for label in one.frontier.labels():
            assert one.frontier[label].values \
                == two.frontier[label].values

    def test_single_objective_best_point(self):
        result = search(self._space(), self._workload(),
                        objectives="goodput")
        assert len(result.frontier) >= 1
        best = result.best("goodput")
        assert best.value("goodput") == max(
            c.value("goodput")
            for c in list(result.frontier) + result.frontier.dominated)

    def test_parameter_validation(self):
        space, wl = self._space(), self._workload()
        with pytest.raises(ConfigError, match="strategy"):
            search(space, wl, strategy="anneal")
        with pytest.raises(ConfigError, match="eta"):
            search(space, wl, strategy="halving", eta=1)
        with pytest.raises(ConfigError, match="prefix_fraction"):
            search(space, wl, strategy="halving", prefix_fraction=1.5)

    def test_no_valid_points_is_an_error(self):
        space = SearchSpace(
            {"block_size": (16, 32)},
            base={"model": TINY_GQA, "design": ("mugi", 64),
                  "policy": "continuous", "max_batch": 4,
                  "seq_len_bucket": 8})
        with pytest.raises(ConfigError, match="no valid points"):
            search(space, self._workload())

    def test_summary_mentions_stages(self):
        result = search(self._space(), self._workload(),
                        objectives=("goodput", "ttft_p99"),
                        strategy="halving", prefix_fraction=0.5)
        text = result.summary()
        assert "search[halving]" in text
        assert "rung0" in text and "full:" in text
        assert "Pareto frontier" in text


class TestPromotedFieldsSerialParallel:
    """jobs=1 ≡ jobs=2 for points exercising the promoted fields."""

    def test_new_fields_fan_out_identically(self):
        trace = _trace(n_requests=36, seed=13)
        from repro.serve import SweepPoint
        points = [
            SweepPoint(label="sharded", design=("mugi", 64),
                       model=TINY_GQA, trace=trace, policy="continuous",
                       max_batch=4, seq_len_bucket=8, tp=2, pp=2),
            SweepPoint(label="paged-fields", design=("mugi", 64),
                       model=TINY_GQA, trace=trace, policy="paged",
                       max_batch=4, seq_len_bucket=8, block_size=8,
                       chunk_tokens=128),
            SweepPoint(label="disagg", design=("mugi", 64),
                       model=TINY_GQA, trace=trace, policy="paged",
                       max_batch=4, seq_len_bucket=8, n_replicas=3,
                       mode="disaggregated", prefill_replicas=1,
                       router="least-outstanding"),
        ]
        serial = run_sweep(points, jobs=1)
        fanned = run_sweep(points, jobs=2)
        for label in ("sharded", "paged-fields", "disagg"):
            assert fanned[label].report.records \
                == serial[label].report.records
            assert fanned[label].report.summary() \
                == serial[label].report.summary()


class TestExperimentRegistry:
    def test_round_trip_every_registered_name(self):
        names = experiments.names()
        assert {"auto_config", "autoscaling_serving", "cluster_serving",
                "paged_serving", "serving_load_sweep"} <= set(names)
        for name in names:
            exp = experiments.get(name)
            assert exp.name == name
            assert exp.description
            # Smoke overrides must all be known config keys.
            assert exp.config_for(exp.smoke) == dict(exp.defaults,
                                                     **exp.smoke)

    def test_unknown_name_and_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiments.get("does_not_exist")
        exp = experiments.get("serving_load_sweep")
        with pytest.raises(ConfigError, match="config key"):
            exp.config_for({"warp_speed": 9})

    def test_run_returns_report(self):
        report = experiments.run(
            "serving_load_sweep",
            {"loads": (0.1,), "designs": (("mugi", 64),),
             "n_requests": 24, "max_batch": 4, "seq_len_bucket": 8})
        assert report.experiment == "serving_load_sweep"
        assert report.metrics
        key = next(iter(sorted(report.metrics)))
        assert report.metric(key) == report.metrics[key]
        with pytest.raises(KeyError):
            report.metric("absent")
        text = report.summary()
        assert "serving_load_sweep" in text and key in text

    def test_double_registration_rejected(self):
        from repro.analysis.experiments import registry
        # Drivers register on import; the lookup imports them all.
        experiments.get("serving_load_sweep")
        with pytest.raises(ConfigError, match="registered twice"):
            registry.register("serving_load_sweep",
                              description="dup")(lambda config: None)

    def test_cli_lists_experiments(self):
        import os
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.experiments",
             "--list"], capture_output=True, text=True, env=env,
            cwd=root)
        assert proc.returncode == 0
        for name in ("auto_config", "serving_load_sweep"):
            assert name in proc.stdout


class TestGateGuard:
    def _gate(self):
        path = (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "gate.py")
        spec = importlib.util.spec_from_file_location("bench_gate", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_update_baseline_refuses_parallel_jobs(self):
        gate = self._gate()
        gate.ensure_serial_baseline(1)  # serial is fine
        for jobs in (2, 8):
            with pytest.raises(ConfigError, match="jobs 1"):
                gate.ensure_serial_baseline(jobs)
