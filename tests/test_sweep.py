"""Sweep executor tests: trace specs, grid points, fan-out invariance.

ISSUE satellites pinned here:

* determinism — ``run_sweep`` returns bit-identical reports for
  ``jobs=1`` vs multiprocess fan-out, and for shuffled point order
  (SeedSequence-spawned traces are a pure function of the spec);
* cache-stat merge — step-cost cache hit/miss totals from a 2-worker
  sweep equal the serial path's when every point owns a distinct
  step-cost store, and each outcome's pair is its report's own
  ``step_cache_hits`` / ``step_cache_misses``;
* pickling — every design-zoo entry, :class:`InterconnectConfig`, and
  a warm :class:`StepCostSurface` survive a pickle round-trip pricing
  bit-identically (the property the spawn-based executor rests on).
"""

import pickle

import pytest

from repro.arch import make_design
from repro.errors import ConfigError
from repro.llm import ModelConfig
from repro.llm.workload import StepCostSurface
from repro.parallel import InterconnectConfig
from repro.serve import (
    LengthSpec,
    PrefixSpec,
    SweepPoint,
    TraceSpec,
    bursty_trace,
    poisson_trace,
    run_sweep,
    simulate_trace,
    steady_trace,
)

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)
PREFIX = PrefixSpec(share=0.5, n_groups=4,
                    length=LengthSpec("fixed", value=32), dup_share=0.3)


def _point(label="p0", kind="mugi", size=64, rate=4.0, seed=3,
           n_requests=30, **overrides) -> SweepPoint:
    fields = dict(
        label=label, design=(kind, size), model=TINY_GQA,
        trace=TraceSpec("poisson", n_requests=n_requests, rate_rps=rate,
                        prompt=SHORT, output=SHORT, prefix=PREFIX,
                        seed=seed),
        policy="continuous", max_batch=4, seq_len_bucket=8)
    fields.update(overrides)
    return SweepPoint(**fields)


class TestTraceSpec:
    def test_realize_matches_direct_builders(self):
        """Empty spawn key reproduces the seeded builders exactly."""
        spec = TraceSpec("poisson", n_requests=25, rate_rps=3.0,
                         prompt=SHORT, output=SHORT, prefix=PREFIX,
                         seed=11)
        direct = poisson_trace(n_requests=25, rate_rps=3.0, prompt=SHORT,
                               output=SHORT, prefix=PREFIX, seed=11)
        assert spec.realize() == direct

        spec = TraceSpec("steady", n_requests=25, rate_rps=3.0,
                         prompt=SHORT, output=SHORT, seed=11)
        assert spec.realize() == steady_trace(
            n_requests=25, rate_rps=3.0, prompt=SHORT, output=SHORT,
            seed=11)

        spec = TraceSpec("bursty", n_requests=24, burst_size=6,
                         burst_period_s=2.0, jitter_s=0.1, prompt=SHORT,
                         output=SHORT, seed=11)
        assert spec.realize() == bursty_trace(
            n_requests=24, burst_size=6, burst_period_s=2.0,
            jitter_s=0.1, prompt=SHORT, output=SHORT, seed=11)

    def test_spawn_keys_deterministic_and_independent(self):
        base = TraceSpec("poisson", n_requests=20, rate_rps=2.0,
                         prompt=SHORT, output=SHORT, seed=5)
        keyed = TraceSpec("poisson", n_requests=20, rate_rps=2.0,
                          prompt=SHORT, output=SHORT, seed=5,
                          spawn_key=(3,))
        assert keyed.realize() == keyed.realize()
        assert keyed.realize() != base.realize()

    def test_priorities_reach_requests(self):
        spec = TraceSpec("poisson", n_requests=30, rate_rps=4.0,
                         prompt=SHORT, output=SHORT, seed=2,
                         priorities=(0, 1, 2))
        assert {r.priority for r in spec.realize()} <= {0, 1, 2}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TraceSpec("fractal", n_requests=10, rate_rps=1.0)


class TestSweepPoint:
    def test_scheduler_kwargs_dict_normalized(self):
        point = _point(policy="paged",
                       scheduler_kwargs={"preemption": "swap",
                                         "admit_headroom": 0.0})
        assert point.scheduler_kwargs == (("admit_headroom", 0.0),
                                          ("preemption", "swap"))

    def test_promoted_kwargs_normalize_into_fields(self):
        """block_size / chunk_tokens are fields only: the old
        scheduler_kwargs spelling is rejected, naming the field, even
        when it agrees with the field."""
        point = _point(policy="paged", block_size=16, chunk_tokens=768)
        assert (point.block_size, point.chunk_tokens) == (16, 768)
        assert point.scheduler_kwargs == ()
        for name in ("block_size", "chunk_tokens"):
            for extra in ({}, {name: 16}):
                with pytest.raises(ConfigError,
                                   match=f"{name} is a SweepPoint field"):
                    _point(policy="paged", scheduler_kwargs={name: 16},
                           **extra)

    def test_paged_only_fields_validated(self):
        with pytest.raises(ConfigError):
            _point(block_size=16)  # Continuous policy has no blocks.
        with pytest.raises(ConfigError):
            _point(policy="paged", block_size=0)
        with pytest.raises(ConfigError):
            _point(policy="paged", chunk_tokens=-1)

    def test_unknown_policy_fails_at_construction(self):
        """The policy names a registered class, checked when the point
        is built rather than when a worker runs it."""
        for policy, extra in (("bogus", {}),
                              ("paged-bogus", {"block_size": 16})):
            with pytest.raises(ConfigError,
                               match="unknown scheduler policy"):
                _point(policy=policy, **extra)

    def test_parallelism_fields_validated(self):
        assert _point(tp=2).tp == 2
        with pytest.raises(ConfigError):
            _point(tp=0)
        with pytest.raises(ConfigError):
            _point(pp=TINY_GQA.n_layers + 1)  # Deeper than the model.

    def test_prefill_replicas_validated(self):
        point = _point(router="round-robin", n_replicas=3,
                       mode="disaggregated", prefill_replicas=2)
        assert point.prefill_replicas == 2
        with pytest.raises(ConfigError):
            _point(prefill_replicas=1)  # Unified mode has no split.
        with pytest.raises(ConfigError):
            _point(router="round-robin", n_replicas=2,
                   mode="disaggregated", prefill_replicas=2)

    def test_autoscaler_router_default_is_visible(self):
        """The fleet's router default is applied at construction, not
        inside the executor."""
        point = _point(autoscaler="static", n_replicas=2)
        assert point.router == "least-outstanding"

    def test_replicas_require_router(self):
        with pytest.raises(ConfigError):
            _point(n_replicas=2)
        _point(n_replicas=2, router="round-robin")  # Fine.

    def test_point_pickles(self):
        point = _point(policy="paged", router="prefix-affinity",
                       n_replicas=3, block_size=16,
                       scheduler_kwargs={"preemption": "swap"})
        assert pickle.loads(pickle.dumps(point)) == point


class TestRunSweepSerial:
    def test_matches_direct_simulate_trace(self):
        """An inline sweep is the old sequential loop, field for field."""
        point = _point(seed=9)
        direct = simulate_trace(
            make_design("mugi", 64), TINY_GQA, point.trace.realize(),
            policy="continuous", max_batch=4, seq_len_bucket=8)
        report = run_sweep([point]).outcomes[0].report
        assert report.records == direct.records
        assert report.steps == direct.steps
        assert report.goodput_rps() == direct.goodput_rps()
        assert report.summary() == direct.summary()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep([_point(label="a"), _point(label="a", seed=4)])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep([_point()], jobs=0)

    def test_report_lookup_and_totals(self):
        sweep = run_sweep([_point(label="a"), _point(label="b", seed=4)])
        assert len(sweep) == 2
        assert sweep["b"].label == "b"
        with pytest.raises(KeyError):
            sweep["c"]
        assert sweep.cache_hits == sum(o.cache_hits for o in sweep)
        assert sweep.cache_misses == sum(o.cache_misses
                                         for o in sweep)
        assert "2 points" in sweep.summary()


class TestRunSweepParallel:
    """Fan-out invariance.  Worker processes re-import the package
    (spawn context), so these are the slowest tests in the file."""

    def test_reports_identical_across_jobs_and_order(self):
        points = [_point(label=f"{kind}-{seed}", kind=kind, size=size,
                         seed=seed)
                  for kind, size in (("mugi", 64), ("sa", 8))
                  for seed in (3, 4)]
        serial = run_sweep(points, jobs=1)
        fanned = run_sweep(points, jobs=2)
        assert fanned.jobs == 2
        for ours, theirs in zip(serial, fanned):
            assert ours.label == theirs.label
            assert ours.report.records == theirs.report.records
            assert ours.report.summary() == theirs.report.summary()
        # Shuffled input: outcomes follow the (new) input order, and
        # each label's report is unchanged.
        shuffled = run_sweep(list(reversed(points)), jobs=2)
        assert [o.label for o in shuffled] \
            == [p.label for p in reversed(points)]
        for point in points:
            assert shuffled[point.label].report.records \
                == serial[point.label].report.records

    def test_cluster_point_survives_fan_out(self):
        point = _point(label="cluster", policy="paged",
                       router="prefix-affinity", n_replicas=2,
                       block_size=16)
        serial = run_sweep([point]).outcomes[0]
        fanned = run_sweep([point, _point(label="other", seed=6)],
                           jobs=2)["cluster"]
        assert fanned.report.records == serial.report.records

    def test_cache_stats_merge_matches_serial(self):
        """2-worker cache totals == serial totals.

        Every point gets its own step-cost store — unique
        ``(design, kvq_bits)`` pairs no other test runs inline — so the
        serial pass prices each point cold, exactly like the fresh
        worker processes do, and the shipped-home hit/miss deltas must
        sum to the same totals.
        """
        points = [_point(label=f"{kind}{kvq}", kind=kind, size=size,
                         kvq_bits=kvq, n_requests=20)
                  for kind, size in (("mugi", 64), ("sa", 8))
                  for kvq in (8, 16)]
        serial = run_sweep(points, jobs=1)
        fanned = run_sweep(points, jobs=2)
        assert serial.cache_hits == fanned.cache_hits
        assert serial.cache_misses == fanned.cache_misses
        for ours, theirs in zip(serial, fanned):
            assert (ours.cache_hits, ours.cache_misses) \
                == (theirs.cache_hits, theirs.cache_misses)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcome_cache_counters_are_the_reports(self, jobs):
        """An engine, a prefix-affinity cluster and an autoscaling
        fleet: each outcome's step-cost cache pair is its report's."""
        points = [_point(label="engine", seed=5),
                  _point(label="cluster", policy="paged",
                         router="prefix-affinity", n_replicas=2,
                         block_size=16),
                  _point(label="fleet", policy="paged", block_size=16,
                         autoscaler="reactive", n_replicas=3,
                         tick_s=1.0)]
        for outcome in run_sweep(points, jobs=jobs):
            report = outcome.report
            assert report.step_cache_hits + report.step_cache_misses > 0
            assert (outcome.cache_hits, outcome.cache_misses) \
                == (report.step_cache_hits, report.step_cache_misses)


#: The full Table 2 zoo at default sizes; every entry must survive the
#: executor's pickle boundary.
ZOO = ("mugi", "mugi-l", "carat", "sa", "sa-f", "sd", "sd-f", "tensor")

#: A small step signature: two decode sequences at bucketed contexts.
SIGNATURE = ((), (64, 128), ())


class TestPickleRoundTrip:
    @pytest.mark.parametrize("kind", ZOO)
    def test_design_roundtrip_prices_identically(self, kind):
        design = make_design(kind)
        cold = pickle.loads(pickle.dumps(design))
        warm_result = StepCostSurface(design, TINY_GQA).price_step(
            *SIGNATURE)
        warm = pickle.loads(pickle.dumps(design))  # Memoized op costs.
        assert cold.label() == design.label()
        assert cold.area_mm2 == design.area_mm2
        for clone in (cold, warm):
            result = StepCostSurface(clone, TINY_GQA).price_step(
                *SIGNATURE)
            assert result == warm_result

    def test_surface_roundtrip_prices_identically(self):
        surface = StepCostSurface(make_design("mugi", 64), TINY_GQA)
        want = surface.price_step(*SIGNATURE)
        clone = pickle.loads(pickle.dumps(surface))
        assert clone.price_step(*SIGNATURE) == want

    def test_interconnect_roundtrip(self):
        config = InterconnectConfig(link_bandwidth_bytes=32e9,
                                    link_latency_s=2e-6)
        assert pickle.loads(pickle.dumps(config)) == config
