"""The naive reference loop the fleet driver is tested against.

:func:`reference_run` serves a trace on a
:class:`repro.serve.ServingCluster` or
:class:`repro.serve.AutoscalingCluster` through the cluster's own setup,
event handlers and teardown, but picks every event the slow, obvious
way: a linear scan for the earliest busy replica (strict ``<``, so the
lowest index wins ties), one ``router.select`` per arrival instead of
cohorts, and every fleet set (live, booting, routable) rescanned on
every iteration.  The driver's heap clock, cohort routing and cached
horizons must reproduce it on every non-diagnostic report field.

Also here: the field-by-field report diff the driver tests share.
"""

import heapq
import math
from dataclasses import fields

#: Fields that legitimately differ between the driver and the reference
#: loop: the driver plans fewer steps (resumed leap windows across
#: cohorts), and replicas sharing one step-cost cache split its hits
#: and misses by step order, so cache probes and leap counters
#: attribute differently.
DIAGNOSTIC_FIELDS = {"step_cache_hits", "step_cache_misses",
                     "leap_steps"}
RECORD_FIELDS = ("request", "admitted_s", "first_token_s", "finish_s")


def reference_run(cluster, trace):
    """Serve ``trace`` on ``cluster`` through the reference loop."""
    pending, _ = cluster._begin(trace)
    inf = math.inf
    idx = 0
    next_tick = cluster.tick_s
    while True:
        replicas = cluster.replicas
        live = [rep for rep in replicas
                if rep.state in ("active", "draining")]
        booting = [rep for rep in replicas if rep.state == "provisioning"]
        arrival_t = pending[idx].arrival_s if idx < len(pending) else inf
        migration_t = cluster._migrations[0][0] if cluster._migrations \
            else inf
        ready_t = min((rep.ready_s for rep in booting), default=inf)
        worker = None
        for rep in live:
            if rep.engine.has_work() and (
                    worker is None or rep.engine.now < worker.engine.now):
                worker = rep
        tick_t = next_tick if (idx < len(pending) or worker is not None
                               or booting) else inf
        next_event = min(arrival_t, migration_t, ready_t, tick_t)
        if worker is not None and worker.engine.now < next_event:
            cluster._advance(worker, next_event)
            continue
        if next_event == inf:
            break
        routable = [rep for rep in replicas if rep.state == "active"]
        if ready_t == next_event:
            cluster._boot(ready_t)
        elif arrival_t == next_event:
            request = pending[idx]
            idx += 1
            targets = [rep for rep in routable if rep.role != "decode"]
            cluster._route(cluster.router.select(request, targets),
                           cluster._admit(request), arrival_t)
        elif migration_t == next_event:
            when, _, sub = heapq.heappop(cluster._migrations)
            targets = [rep for rep in routable if rep.role == "decode"]
            cluster._route(cluster.decode_router.select(sub, targets),
                           sub, when)
        else:
            cluster._decide(tick_t)
            next_tick = tick_t + cluster.tick_s
    return cluster._finish(trace, pending)


def _diff_records(fast, slow):
    assert len(fast) == len(slow), "record counts differ"
    for ra, rb in zip(fast, slow):
        for name in RECORD_FIELDS:
            assert getattr(ra, name) == getattr(rb, name), (name, ra, rb)


def assert_reports_identical(fast, slow):
    """Field-by-field bitwise diff of two cluster or fleet reports (and
    their per-replica ServingReports), diagnostics excepted."""
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
