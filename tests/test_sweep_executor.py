"""Persistent :class:`repro.serve.SweepExecutor` session tests.

ISSUE satellites pinned here:

* executor reuse is invisible in the results — a reused executor
  (serial or with a long-lived 2-worker pool) returns reports
  bit-identical to one-shot :func:`run_sweep` and to the ``jobs=1``
  inline path, field by field;
* the worker-side trace-column cache is a pure accelerator — a
  cache-hit rebuild materializes *fresh* :class:`Request` objects equal
  to RNG generation's, including for prefix-shrunk rung workloads;
* cross-run memoization is correct under LRU pressure — hits return
  the cached report under a new label, evicted entries transparently
  re-simulate, the key ignores labels, and ``memoize=False`` really
  re-runs.
"""

from dataclasses import fields, replace

import pytest

from repro.errors import ConfigError
from repro.search import Workload
from repro.serve import (
    LengthSpec,
    PrefixSpec,
    SweepExecutor,
    TraceSpec,
    run_sweep,
    trace_cache_stats,
)
from repro.serve.trace import requests_from_columns, trace_columns

from test_sweep import TINY_GQA, _point

#: Step-cost cache counters legitimately differ between cold and warm
#: processes (a reused executor is warm by design); everything else on
#: a report must match bitwise.
DIAGNOSTIC_FIELDS = {"step_cache_hits", "step_cache_misses",
                     "leap_steps"}

RECORD_FIELDS = ("request", "admitted_s", "first_token_s", "finish_s")


def assert_reports_identical(a, b):
    """Field-by-field bitwise diff of two serving reports."""
    assert type(a) is type(b)
    for f in fields(b):
        if f.name in DIAGNOSTIC_FIELDS:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "records":
            assert len(va) == len(vb), "record counts differ"
            for ra, rb in zip(va, vb):
                for name in RECORD_FIELDS:
                    assert getattr(ra, name) == getattr(rb, name), \
                        (name, ra, rb)
        else:
            assert va == vb, (f.name, va, vb)


def _points(n=3, seed=3):
    return [_point(label=f"p{i}", size=64, seed=seed + i)
            for i in range(n)]


class TestExecutorReuseIdentity:
    def test_reused_serial_executor_matches_one_shot(self):
        points = _points()
        baseline = run_sweep(points, jobs=1)
        with SweepExecutor(jobs=1) as executor:
            first = executor.run(points)
            second = executor.run(points)
        for one_shot, fresh, memoized in zip(baseline, first, second):
            assert_reports_identical(fresh.report, one_shot.report)
            assert_reports_identical(memoized.report, one_shot.report)
            assert not fresh.memo_hit
            assert memoized.memo_hit

    def test_reused_pool_matches_inline(self):
        points = _points(n=2)
        inline = run_sweep(points, jobs=1)
        with SweepExecutor(jobs=2, memoize=False) as executor:
            first = executor.run(points)
            second = executor.run(points)
            assert executor.stats()["pool_alive"]
        for a, b, c in zip(inline, first, second):
            assert_reports_identical(b.report, a.report)
            assert_reports_identical(c.report, a.report)

    def test_run_sweep_semantics_preserved(self):
        """The thin wrapper keeps one-shot behaviour: no memo traffic,
        repeated identical specs under distinct labels really run."""
        point = _point(label="a")
        sweep = run_sweep([point, replace(point, label="b")], jobs=1)
        assert sweep.memo_hits == 0 and sweep.memo_misses == 0
        assert not any(o.memo_hit for o in sweep)
        assert_reports_identical(sweep["b"].report, sweep["a"].report)

    def test_closed_executor_refuses_runs(self):
        executor = SweepExecutor(jobs=1)
        executor.close()
        with pytest.raises(ConfigError):
            executor.run(_points(n=1))


class TestTraceColumnCache:
    def test_columns_round_trip_bit_identical(self):
        spec = TraceSpec(
            "poisson", n_requests=40, rate_rps=5.0,
            prompt=LengthSpec("uniform", low=4, high=48),
            output=LengthSpec("uniform", low=2, high=64),
            prefix=PrefixSpec(share=0.5, n_groups=4,
                              length=LengthSpec("fixed", value=32),
                              dup_share=0.3),
            priorities=(0, 1, 2), seed=13)
        direct = spec.realize()
        rebuilt = requests_from_columns(trace_columns(direct))
        assert rebuilt == direct
        # Fresh objects, not aliases: a rebuilt trace may be mutated by
        # an engine run without poisoning the cached columns.
        assert all(a is not b for a, b in zip(rebuilt, direct))

    def test_hit_path_outcome_identical(self):
        point = _point(label="cold", seed=29)
        cold = run_sweep([point], jobs=1).outcomes[0]
        with SweepExecutor(jobs=1, memoize=False) as executor:
            executor.run([replace(point, label="warm0")])
            before = trace_cache_stats()["hits"]
            warm = executor.run(
                [replace(point, label="warm1")]).outcomes[0]
        assert warm.trace_cache_hit
        assert trace_cache_stats()["hits"] > before
        assert_reports_identical(warm.report, cold.report)

    def test_prefix_shrunk_workload_hits_identically(self):
        """Rung traces (prefix-shrunk specs) cache under their own
        signature and rebuild bit-identically."""
        wl = Workload(trace=TraceSpec(
            "poisson", n_requests=80, rate_rps=6.0,
            prompt=LengthSpec("uniform", low=4, high=48),
            output=LengthSpec("uniform", low=2, high=64), seed=31))
        short = wl.prefix(0.5, min_requests=8)
        assert short.trace is not wl.trace
        point = _point(label="rung", seed=31, trace=short.trace)
        cold = run_sweep([point], jobs=1).outcomes[0]
        with SweepExecutor(jobs=1, memoize=False) as executor:
            executor.run([replace(point, label="r0")])
            warm = executor.run([replace(point, label="r1")]).outcomes[0]
        assert warm.trace_cache_hit
        assert_reports_identical(warm.report, cold.report)
        # The shrunk spec is a different cache entry than the full one.
        assert short.trace.n_requests == 40


class TestOutcomeMemo:
    def test_memo_key_ignores_label(self):
        point = _point(label="first", seed=41)
        with SweepExecutor(jobs=1) as executor:
            first = executor.run([point]).outcomes[0]
            twin = executor.run(
                [replace(point, label="second")]).outcomes[0]
        assert twin.memo_hit and not first.memo_hit
        assert twin.label == "second"
        assert twin.report is first.report

    def test_intra_run_duplicates_collapse(self):
        point = _point(label="a", seed=43)
        with SweepExecutor(jobs=1) as executor:
            sweep = executor.run([point, replace(point, label="b")])
        assert sweep.memo_hits == 1 and sweep.memo_misses == 1
        assert sweep["b"].memo_hit
        assert sweep["b"].report is sweep["a"].report

    def test_lru_eviction_resimulates_identically(self):
        points = _points(n=3, seed=47)
        with SweepExecutor(jobs=1, memo_entries=2) as executor:
            first = executor.run(points)
            # p0 was evicted when p2 landed (capacity 2): re-asking for
            # it is a miss that re-simulates to the identical report.
            again = executor.run([points[0]]).outcomes[0]
            stats = executor.stats()
        assert stats["memo_evictions"] >= 1
        assert not again.memo_hit
        assert_reports_identical(again.report, first.outcomes[0].report)

    def test_memoize_false_bypasses_lookup_and_store(self):
        point = _point(label="a", seed=53)
        with SweepExecutor(jobs=1) as executor:
            executor.run([point])
            bypass = executor.run([point], memoize=False).outcomes[0]
            hit = executor.run([point]).outcomes[0]
        assert not bypass.memo_hit
        assert hit.memo_hit  # The bypass did not clobber the entry.

    def test_duplicate_labels_rejected(self):
        point = _point(label="dup")
        with SweepExecutor(jobs=1) as executor, \
                pytest.raises(ConfigError):
            executor.run([point, point])


def test_tiny_model_pickles():
    # Guard for the pool tests above: the shared fixture model must
    # keep surviving spawn pickling.
    import pickle

    assert pickle.loads(pickle.dumps(TINY_GQA)) == TINY_GQA
