"""Heap-scheduled fleet loops are bit-identical to the legacy scans.

PR tentpole contract: the event-compressed cluster drive loops (lazy
min-heap replica clock, batched cohort routing, cross-replica decode
horizons, global quiescence leaps) must reproduce the legacy
earliest-busy-replica scan loop *bit for bit* — every record, every
accumulator, every per-replica report field — across unified,
disaggregated, and autoscaling fleets under every router.  Only the
diagnostic step-cache / leap counters may differ (the compressed loop
plans fewer steps).

Also here: a property test that batched routing
(:meth:`repro.serve.router.Router.select_batch`) makes the same
per-request decisions as sequential ``select`` + commit, and the sweep
warm-start surface snapshot (:meth:`StepCostSurface.export_tables` /
``install_tables``).
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    LengthSpec,
    PrefixSpec,
    Request,
    make_autoscaling_cluster,
    make_cluster,
    poisson_trace,
)
from repro.serve.costs import export_store_tables, step_cost_store
from repro.serve.router import ROUTERS as ROUTER_REGISTRY
from repro.serve.router import make_router

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)
PREFIX = PrefixSpec(share=0.5, n_groups=4,
                    length=LengthSpec("fixed", value=32),
                    dup_share=0.3)
ROUTERS = tuple(sorted(ROUTER_REGISTRY))

#: Fields that legitimately differ between the compressed and legacy
#: loops: the heap loop plans fewer steps (quiescence leaps, resumed
#: windows), so cache probes and leap counters attribute differently.
DIAGNOSTIC_FIELDS = {"step_cache_hits", "step_cache_misses",
                     "leap_steps"}
RECORD_FIELDS = ("request", "admitted_s", "first_token_s", "finish_s")


def tiny_design():
    return make_design("mugi", 64)


def _trace(n=80, seed=11, rate=12.0):
    return poisson_trace(n_requests=n, rate_rps=rate, prompt=SHORT,
                        output=SHORT, prefix=PREFIX, seed=seed)


def _diff_records(fast, slow):
    assert len(fast) == len(slow), "record counts differ"
    for ra, rb in zip(fast, slow):
        for name in RECORD_FIELDS:
            assert getattr(ra, name) == getattr(rb, name), (name, ra, rb)


def assert_cluster_reports_identical(fast, slow):
    """Field-by-field bitwise diff of two ClusterReports (and their
    per-replica ServingReports)."""
    assert type(fast) is type(slow)
    for f in fields(slow):
        if f.name in DIAGNOSTIC_FIELDS:
            continue
        a, b = getattr(fast, f.name), getattr(slow, f.name)
        if f.name == "records":
            _diff_records(a, b)
        elif f.name == "replicas":
            assert len(a) == len(b), "replica counts differ"
            for rep_fast, rep_slow in zip(a, b):
                for rf in fields(rep_slow):
                    if rf.name in DIAGNOSTIC_FIELDS:
                        continue
                    ra = getattr(rep_fast, rf.name)
                    rb = getattr(rep_slow, rf.name)
                    if rf.name == "records":
                        _diff_records(ra, rb)
                    else:
                        assert ra == rb, (rf.name, ra, rb)
        else:
            assert a == b, (f.name, a, b)


class TestClusterIdentity:
    @pytest.mark.parametrize("router", ROUTERS)
    def test_unified_heap_matches_legacy(self, router):
        trace = _trace()
        fast = make_cluster(tiny_design(), TINY_GQA, 3, policy="paged",
                            router=router, seq_len_bucket=16,
                            max_batch=8).run(trace)
        slow = make_cluster(tiny_design(), TINY_GQA, 3, policy="paged",
                            router=router, seq_len_bucket=16,
                            max_batch=8).run(trace, legacy=True)
        assert_cluster_reports_identical(fast, slow)

    @pytest.mark.parametrize("router", ROUTERS)
    def test_disaggregated_heap_matches_legacy(self, router):
        trace = _trace(n=60, seed=7)
        kwargs = dict(policy="paged", router=router,
                      mode="disaggregated", seq_len_bucket=16,
                      max_batch=8)
        fast = make_cluster(tiny_design(), TINY_GQA, 4,
                            **kwargs).run(trace)
        slow = make_cluster(tiny_design(), TINY_GQA, 4,
                            **kwargs).run(trace, legacy=True)
        assert_cluster_reports_identical(fast, slow)

    def test_unified_continuous_heap_matches_legacy(self):
        trace = _trace(n=60, seed=3)
        fast = make_cluster(tiny_design(), TINY_GQA, 3,
                            policy="continuous", seq_len_bucket=16,
                            max_batch=8).run(trace)
        slow = make_cluster(tiny_design(), TINY_GQA, 3,
                            policy="continuous", seq_len_bucket=16,
                            max_batch=8).run(trace, legacy=True)
        assert_cluster_reports_identical(fast, slow)


class TestFleetIdentity:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("autoscaler",
                             ("static", "reactive", "predictive"))
    def test_fleet_heap_matches_legacy(self, autoscaler, router):
        trace = _trace(n=70, seed=13, rate=6.0)
        kwargs = dict(autoscaler=autoscaler, policy="paged",
                      router=router, tick_s=5.0, seq_len_bucket=16,
                      max_batch=8)
        fast = make_autoscaling_cluster(tiny_design(), TINY_GQA, 3,
                                        **kwargs).run(trace)
        slow = make_autoscaling_cluster(tiny_design(), TINY_GQA, 3,
                                        **kwargs).run(trace, legacy=True)
        assert_cluster_reports_identical(fast, slow)

    @pytest.mark.parametrize("fleet", (False, True))
    def test_out_of_32_bit_prefix_groups_match_legacy(self, fleet):
        """Prefix groups below 0 or at/above 2**32 route through the
        batched cohorts exactly as the legacy loop's per-request
        ``select`` routes them."""
        wide = (-1, 2 ** 33, -(2 ** 40) + 3, 2 ** 32)
        trace = [request if request.prefix_group is None
                 else replace(request,
                              prefix_group=wide[request.prefix_group])
                 for request in _trace(n=60, seed=5)]
        assert {r.prefix_group for r in trace} - {None} == set(wide)
        make, extra = (make_autoscaling_cluster, {"tick_s": 5.0}) \
            if fleet else (make_cluster, {})
        fast, slow = (make(tiny_design(), TINY_GQA, 3, policy="paged",
                           router="prefix-affinity", seq_len_bucket=16,
                           max_batch=8, **extra).run(trace, legacy=legacy)
                      for legacy in (False, True))
        assert_cluster_reports_identical(fast, slow)

    def test_per_replica_diagnostics_surface(self):
        report = make_cluster(tiny_design(), TINY_GQA, 3,
                              policy="paged", seq_len_bucket=16,
                              max_batch=8).run(_trace(n=40, seed=2))
        assert len(report.leap_steps_per_replica) == 3
        assert report.leap_steps == sum(report.leap_steps_per_replica)
        assert report.step_cache_hits == \
            sum(report.step_cache_hits_per_replica)
        assert report.step_cache_misses == \
            sum(report.step_cache_misses_per_replica)


class _StubReplica:
    """Just enough replica surface for router decision tests."""

    def __init__(self, index, outstanding):
        self.index = index
        self.outstanding_tokens = outstanding


def _cohort(groups):
    return [Request(req_id=i, arrival_s=float(i), prompt_len=16,
                    output_len=4, prefix_group=g,
                    prefix_len=0 if g is None else 8)
            for i, g in enumerate(groups)]


@given(
    router_name=st.sampled_from(
        ("round-robin", "least-outstanding", "prefix-affinity")),
    # Any integer is a valid group: negative and wider-than-32-bit
    # groups hash like any other.
    groups=st.lists(st.one_of(st.none(), st.integers(0, 5),
                              st.integers(-2 ** 40, 2 ** 40)),
                    min_size=1, max_size=12),
    loads=st.lists(st.integers(0, 200), min_size=2, max_size=5),
    stop_after=st.one_of(st.none(), st.integers(1, 12)),
)
@settings(max_examples=120, deadline=None)
def test_select_batch_matches_sequential_select(router_name, groups,
                                                loads, stop_after):
    """Batched routing must replay sequential select+commit decisions,
    including the load feedback each commit applies and an early stop
    mid-cohort."""
    requests = _cohort(groups)

    def run(batched):
        router = make_router(router_name)
        router.reset()
        replicas = [_StubReplica(i, load)
                    for i, load in enumerate(loads)]
        picks = []

        def commit(request, replica):
            picks.append((request.req_id, replica.index))
            # Submitting grows the replica's queue, as the cluster does.
            replica.outstanding_tokens += (request.prompt_len
                                           + request.output_len)
            return stop_after is None or len(picks) < stop_after

        if batched:
            routed = router.select_batch(requests, replicas, commit)
        else:
            routed = 0
            for request in requests:
                go_on = commit(request, router.select(request, replicas))
                routed += 1
                if not go_on:
                    break
        return routed, picks

    assert run(batched=True) == run(batched=False)


class TestWarmStartTables:
    def test_export_install_round_trip(self):
        design = tiny_design()
        store = step_cost_store(design, TINY_GQA, 4, 4, True)
        priced = store.surface.price_step((32,), (48, 64), ())
        entries = export_store_tables(design)
        assert entries, "pricing must populate the component tables"

        cold_design = tiny_design()
        cold = step_cost_store(cold_design, TINY_GQA, 4, 4, True)
        installed = sum(
            cold.surface.install_tables(tables)
            for *_spec, tables in entries)
        assert installed > 0
        repriced = cold.surface.price_step((32,), (48, 64), ())
        assert repriced.step_seconds == priced.step_seconds
        assert repriced.dynamic_energy_j == priced.dynamic_energy_j

    def test_install_is_idempotent(self):
        design = tiny_design()
        store = step_cost_store(design, TINY_GQA, 4, 4, True)
        store.surface.price_step((16,), (32,), ())
        entries = export_store_tables(design)
        again = sum(store.surface.install_tables(tables)
                    for *_spec, tables in entries)
        assert again == 0, "re-installing resident components is a no-op"
