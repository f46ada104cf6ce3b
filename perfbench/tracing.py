"""Layer spans for the benchmark's traced runs.

:func:`install` wraps the public entry points of every simulator layer
in this process with a span recorder.  A span is ``[name id, start ns,
end ns, parent index]``; spans stay in memory and :meth:`Tracer.dump`
writes them out once the run has ended.  A span's self time is its
duration minus its children's.  Spawned sweep workers are not wrapped,
so work done in a pool shows up only through the executor's own clocks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

#: Report metric methods wrapped as ``serve.metrics.report`` spans.
METRIC_METHODS = ("goodput_rps", "good_completions", "ttft_percentile",
                  "tpot_percentile", "latency_percentile",
                  "queue_delay_percentile", "cost_per_good_request_kg")


class Tracer:
    """In-memory span store plus the sim-side counters a span alone
    cannot carry (batch sizes, kernel element and MAC counts)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        #: scheduler id -> batch of the last plan it returned.
        self.last_batch: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args)``
        runs inside the span.  A call nested directly in a span of the
        same name (a ``super()`` chain) is not recorded again."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == nid:
                return fn(*args, **kwargs)
            span = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        wrapper.__perfbench_original__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code."""
        span = [self.name_id(name), time.perf_counter_ns(), 0,
                self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self.stack.pop()
            span[2] = time.perf_counter_ns()

    # -- aggregation --------------------------------------------------
    def summary(self, window: tuple[int, int]) -> dict:
        """Per-name ``calls`` / inclusive ``s`` / ``self_s`` over spans
        that start inside ``window`` (ns), plus ``unattributed_share``:
        the share of the window no root span covers."""
        table = np.asarray(self.spans, dtype=np.int64).reshape(-1, 4)
        nid, start, end, parent = table.T
        inside = (start >= window[0]) & (start <= window[1])
        dur = (end - start).astype(np.float64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for index, name in enumerate(self.names):
            mask = inside & (nid == index)
            out[name] = {"calls": int(mask.sum()),
                         "s": float(dur[mask].sum()) * 1e-9,
                         "self_s": float(own[mask].sum()) * 1e-9}
        span_ns = max(window[1] - window[0], 1)
        covered = float(np.clip(np.minimum(end, window[1])
                                - np.maximum(start, window[0]), 0, None)
                        [inside & ~nested].sum())
        out["unattributed_share"] = max(0.0, 1.0 - covered / span_ns)
        return out

    def dump(self, path, requests=()) -> None:
        """Write every span, plus one sim-clock span per request
        (``req_id, arrival_s, first_token_s, finish_s``)."""
        payload = {
            "clock": "perf_counter_ns",
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
            "requests": {"clock": "simulated seconds",
                         "columns": ["req_id", "arrival_s",
                                     "first_token_s", "finish_s"],
                         "rows": list(requests)},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _patch_method(tracer, cls, attr, name, after=None):
    if attr in vars(cls):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], after))


def _patch_function(tracer, fn, name, after=None):
    """Rebind ``fn`` in every loaded ``repro`` module that imported it."""
    wrapped = tracer.wrap(name, fn, after)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points (call after importing ``repro``)."""
    import repro.analysis.experiments  # noqa: F401  (bind their imports)
    import repro.core as core
    import repro.search as search
    import repro.serve as serve
    from repro.arch import simulate_workload
    from repro.llm import StepCostSurface
    from repro.search import ParetoFrontier
    from repro.serve.metrics import RecordStats

    def realized(requests, args):
        tracer.count("serve.trace.requests", len(requests))

    _patch_method(tracer, serve.TraceSpec, "realize", "serve.trace.realize",
                  realized)
    _patch_method(tracer, serve.ServingEngine, "run", "serve.engine.run")
    _patch_engine_step(tracer, serve.ServingEngine)
    for cls in (serve.ServingCluster, serve.AutoscalingCluster):
        _patch_method(tracer, cls, "run", "serve.cluster.run")
    _patch_method(tracer, StepCostSurface, "__init__", "llm.surface_build")
    _patch_method(tracer, StepCostSurface, "price_step", "llm.price_step")
    _patch_method(tracer, serve.SweepExecutor, "run", "serve.sweep.run")
    _patch_method(tracer, ParetoFrontier, "__init__", "search.pareto")

    def planned(plan, args):
        tracer.last_batch[id(args[0])] = plan.batch

    scheduler_modules = [m for n, m in sys.modules.items()
                         if n.startswith("repro.serve.") and m is not None]
    for module in scheduler_modules:
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == \
                    module.__name__:
                _patch_method(tracer, value, "plan_step",
                              "serve.scheduler.plan_step", planned)
    for cls in _subclasses(serve.Router):
        for attr in ("select", "select_batch"):
            _patch_method(tracer, cls, attr, "serve.router.select")
    for cls in _subclasses(serve.Autoscaler):
        _patch_method(tracer, cls, "desired", "serve.autoscale.desired")
    for cls in _subclasses(RecordStats):
        for attr in METRIC_METHODS:
            _patch_method(tracer, cls, attr, "serve.metrics.report")

    def approximated(result, args):
        tracer.count("core.vlp_elements", np.size(args[1]))

    def multiplied(result, args):
        tracer.count("core.mugi_gemm_macs", result[1].macs)

    _patch_method(tracer, core.VLPApproximator, "__call__",
                  "core.vlp_approx", approximated)
    _patch_function(tracer, core.vlp_softmax, "core.vlp_softmax")
    _patch_function(tracer, core.mugi_gemm, "core.mugi_gemm", multiplied)
    _patch_function(tracer, simulate_workload, "arch.simulate_workload")
    _patch_function(tracer, search.search, "search.search")


def _patch_engine_step(tracer, engine_cls):
    """``ServingEngine.step`` spans plus the batch-weighted step count:
    each call commits ``report.steps`` delta steps (a leap commits
    many) of the batch its scheduler last planned."""
    step = tracer.wrap("serve.engine.step", vars(engine_cls)["step"])

    @functools.wraps(step)
    def counted(engine, *args, **kwargs):
        report = engine.report
        before = report.steps if report is not None else 0
        result = step(engine, *args, **kwargs)
        if report is not None:
            done = report.steps - before
            if done:
                batch = tracer.last_batch.get(id(engine.scheduler), 0)
                tracer.count("batch_steps", batch * done)
                tracer.count("steps", done)
        return result

    engine_cls.step = counted
