"""The four benchmark workloads.

Each workload has three phases, run once per fresh process:

* ``setup(seed)`` — timed as ``setup_s``: design/model resolution,
  cost-surface construction, and (``search-fleet``) pool spin-up;
* ``prepare()`` — untimed: builds the generated inputs the program
  receives (random tensors, step signatures);
* ``run()`` then ``check(raw)`` — timed together as ``wall_s``: the
  program's work, then the output checks that turn its raw outputs
  into an :class:`Outcome`.

Every import of ``repro`` happens inside these methods, so importing
this module stays cheap and spawn-safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from checks import check_report


@dataclass
class Outcome:
    """What one run of a workload produced."""

    #: Operations attempted (simulated requests, kernel evaluations or
    #: sweep points) and how many failed a check.
    ops: int
    failed: int
    #: Exact sim outputs, compared across runs and, for the default
    #: seed, against ``expected.json``.
    digest: dict
    #: Named sim metrics (simulated clock / simulated results).
    sim: dict = field(default_factory=dict)
    #: Simulated requests and steps completed (host throughputs).
    requests: int = 0
    steps: int = 0
    #: The report whose requests a traced run writes next to its spans.
    report: object = None
    #: Host-side layer numbers the workload reads off executor clocks.
    layers: dict = field(default_factory=dict)


def _serving_sim(report) -> dict:
    """Sim metrics shared by the two serving workloads."""
    replicas = getattr(report, "replicas", [report])
    util = [u for r in replicas for u in r.kv_utilization]
    return {
        "sim_goodput_rps": report.goodput_rps(),
        "sim_ttft_p99_s": report.ttft_percentile(99),
        "sim_tpot_p99_s": report.tpot_percentile(99),
        "serve.scheduler.queue_wait_p99_s": report.queue_delay_percentile(
            99),
        "serve.engine.leap_share": report.leap_steps / max(report.steps, 1),
        "serve.costs.hit_ratio": report.step_cache_hits / max(
            report.step_cache_hits + report.step_cache_misses, 1),
        "serve.kv_cache.prefix_hit_rate": report.prefix_hit_rate,
        "serve.kv_cache.preemptions": report.preemptions,
        "serve.kv_cache.util_mean": float(np.mean(util)) if util else 0.0,
    }


def _serving_outcome(report, trace, extra_digest=()) -> Outcome:
    sim = _serving_sim(report)
    digest = {"completed": report.completed, "steps": report.steps,
              "leap_steps": report.leap_steps,
              "goodput_rps": sim["sim_goodput_rps"],
              "ttft_p99_s": sim["sim_ttft_p99_s"],
              "tpot_p99_s": sim["sim_tpot_p99_s"]}
    for key in extra_digest:
        digest[key] = sim[key]
    return Outcome(ops=len(trace), failed=check_report(report, trace),
                   digest=digest, sim=sim, requests=report.completed,
                   steps=report.steps, report=report)


class ServeBulk:
    """One continuous-batching engine on a saturating Poisson trace."""

    name = "serve-bulk"
    #: Per-layer name of this workload's operations per host second
    #: (serving workloads report simulated requests instead).
    ops_metric = None
    #: CPUs the repetition is pinned to: one per busy process.
    cpus = 1
    default_seed = 23
    held_out_seed = 1023
    n_requests = 10_000
    rate_rps = 50.0

    def setup(self, seed: int) -> None:
        import repro.serve as serve
        from repro.analysis.experiments.paged_serving import SERVE_MODEL
        from repro.arch import make_design

        self.serve = serve
        self.model = SERVE_MODEL
        self.design = make_design("mugi", 256)
        serve.step_cost_store(self.design, self.model, 4, 4, True,
                              tech=self.design.tech)
        self.spec = serve.TraceSpec(
            "poisson", n_requests=self.n_requests, rate_rps=self.rate_rps,
            prompt=serve.LengthSpec("lognormal", value=256, low=16,
                                    high=1024),
            output=serve.LengthSpec("lognormal", value=256, low=32,
                                    high=1024),
            seed=seed)

    def prepare(self) -> None:
        pass

    def run(self):
        trace = self.spec.realize()
        report = self.serve.simulate_trace(
            self.design, self.model, trace, policy="continuous",
            max_batch=16, seq_len_bucket=256)
        return report, trace

    def check(self, raw) -> Outcome:
        return _serving_outcome(*raw)


class FleetPrefix:
    """A 4-replica paged cluster behind the prefix-affinity router."""

    name = "fleet-prefix"
    ops_metric = None
    cpus = 1
    default_seed = 17
    held_out_seed = 1017
    n_requests = 8_000
    replicas = 4

    def setup(self, seed: int) -> None:
        import repro.serve as serve
        from repro.analysis.experiments import cluster_serving
        from repro.arch import make_design

        self.serve = serve
        self.model = cluster_serving.SERVE_MODEL
        self.design = make_design("mugi", 256)
        serve.step_cost_store(self.design, self.model, 4, 4, True,
                              tech=self.design.tech)
        self.capacity = cluster_serving.DEFAULT_CAPACITY_PEAKS \
            * cluster_serving.peak_footprint_bytes(self.model)
        self.spec = cluster_serving.cluster_trace_spec(
            self.n_requests,
            cluster_serving.DEFAULT_RATE_PER_REPLICA * self.replicas,
            seed=seed)

    def prepare(self) -> None:
        pass

    def run(self):
        trace = self.spec.realize()
        cluster = self.serve.make_cluster(
            self.design, self.model, self.replicas, policy="paged",
            router="prefix-affinity", max_batch=24,
            kv_capacity_bytes=self.capacity, seq_len_bucket=32,
            scheduler_kwargs={"block_size": 16, "chunk_tokens": 768})
        return cluster.run(trace), trace

    def check(self, raw) -> Outcome:
        return _serving_outcome(
            *raw, extra_digest=("serve.kv_cache.prefix_hit_rate",
                                "serve.kv_cache.preemptions"))


def _hash(array) -> str:
    """Output hash at float32 resolution (robust to float64 last-ulp
    differences between numpy builds, exact otherwise)."""
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


class PaperKernels:
    """VLP kernels, Table 3, the Fig. 14 batch sweep and cold
    ``price_step`` misses — no serving."""

    name = "paper-kernels"
    ops_metric = "kernel_evals_per_s"
    #: The paper's values for the Table 3 Mugi(256)-vs-SA(16) ratios.
    references = {"table3_throughput_x": 2.07, "table3_energy_eff_x": 3.11}
    cpus = 1
    default_seed = 0
    held_out_seed = 1000
    n_signatures = 3000

    def setup(self, seed: int) -> None:
        import repro.core as core
        from repro.analysis.experiments import batch_sweep, end_to_end
        from repro.analysis.experiments.paged_serving import SERVE_MODEL
        from repro.arch import make_design
        from repro.llm import StepCostSurface

        self.seed = seed
        self.core = core
        self.end_to_end = end_to_end
        self.batch_sweep = batch_sweep
        self.approx = {op: core.make_vlp(op)
                       for op in ("exp", "silu", "gelu")}
        self.surface = StepCostSurface(make_design("mugi", 256),
                                       SERVE_MODEL)

    def prepare(self) -> None:
        from repro.numerics.quantization import quantize_groupwise

        rng = np.random.default_rng(self.seed)
        # Softmax-style (non-positive) exp inputs, FFN-style activations.
        self.inputs = {"exp": -np.abs(rng.standard_normal((64, 4096))) * 3,
                       "silu": rng.standard_normal((64, 4096)) * 2,
                       "gelu": rng.standard_normal((64, 4096)) * 2}
        self.scores = rng.standard_normal((8, 128, 512)) * 3
        self.activations = rng.standard_normal((16, 4096))
        self.weights = quantize_groupwise(
            rng.standard_normal((4096, 4096)) * 0.02, bits=4,
            group_size=128, axis=1)
        self.reference = self.activations @ self.weights.dequantize().T
        signatures = {}
        while len(signatures) < self.n_signatures:
            decode = tuple(sorted(int(v) for v in 32 * rng.integers(
                1, 64, size=int(rng.integers(1, 25)))))
            prefill = () if rng.random() < 0.7 else \
                (int(32 * rng.integers(1, 32)),)
            chunks = () if rng.random() < 0.8 else \
                (((int(32 * rng.integers(0, 16)), 768, False), 1),)
            signatures[(prefill, decode, chunks)] = None
        self.signatures = list(signatures)

    def run(self) -> dict:
        core = self.core
        return {
            "vlp": {op: self.approx[op](x) for op, x in self.inputs.items()},
            "softmax": core.vlp_softmax(self.scores,
                                        approximator=self.approx["exp"]),
            "gemm": core.mugi_gemm(self.activations, self.weights),
            "table3": self.end_to_end.run(),
            "fig14": self.batch_sweep.run(),
            "priced": [self.surface.price_step(*signature)
                       for signature in self.signatures],
        }

    def check(self, raw) -> Outcome:
        ops = failed = 0
        digest = {}
        for op, y in raw["vlp"].items():
            ops += 1
            failed += not _vlp_ok(op, self.inputs[op], y)
            digest[f"vlp_{op}"] = _hash(y)
        probs = raw["softmax"]
        ops += 1
        failed += not (np.isfinite(probs).all() and (probs >= 0).all()
                       and np.allclose(probs.sum(-1), 1.0, atol=1e-4))
        digest["vlp_softmax"] = _hash(probs)
        out, schedule = raw["gemm"]
        ops += 1
        scale = np.abs(self.reference).max()
        failed += not (out.shape == self.reference.shape
                       and np.abs(out - self.reference).max() <= 1e-2 * scale
                       and schedule.macs == out.size
                       * self.activations.shape[1])
        digest["mugi_gemm"] = _hash(out)

        rows = raw["table3"]
        ops += len(rows)
        failed += sum(not (r.throughput_tokens_s > 0
                           and r.energy_efficiency > 0) for r in rows)
        digest["table3"] = [[r.section, r.design, r.throughput_tokens_s,
                             r.area_mm2, r.energy_efficiency,
                             r.power_efficiency] for r in rows]
        points = raw["fig14"]
        models = len(self.batch_sweep.FIG14_MODELS)
        ops += len(points) * models
        failed += models * sum(not (p.throughput > 0
                                    and p.energy_per_token_j > 0)
                               for p in points)
        digest["fig14_peak_batch"] = [
            self.batch_sweep.peak_batch(points, design, 4096)
            for design in sorted({p.design for p in points})]
        digest["fig14_throughput_sum"] = sum(p.throughput for p in points)

        ops += len(raw["priced"])
        failed += sum(not (r.step_seconds > 0 and r.total_macs > 0
                           and r.dynamic_energy_j > 0)
                      for r in raw["priced"])
        digest["price_step_seconds_sum"] = sum(r.step_seconds
                                               for r in raw["priced"])
        ratios = self.end_to_end.headline_ratios(rows)
        return Outcome(ops=ops, failed=failed, digest=digest, sim={
            "table3_throughput_x": ratios["throughput"],
            "table3_energy_eff_x": ratios["energy_efficiency"]})


def _vlp_ok(op: str, x, y) -> bool:
    """Shape, finiteness, and the LUT's accuracy envelope."""
    if y.shape != x.shape or not np.isfinite(y).all():
        return False
    if op == "exp":
        reference = np.exp(x)
    elif op == "silu":
        reference = x / (1.0 + np.exp(-x))
    else:
        reference = 0.5 * x * (1.0 + np.tanh(
            np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
    error = np.abs(y - reference)
    return bool(np.median(error) < 0.05 and error.max() < 1.0)


class SearchFleet:
    """The ``auto_config`` smoke search through one 2-worker executor,
    on three trace seeds in turn, so that no single trace's halving
    outcome (6-8 survivors) sets the repetition's cost."""

    name = "search-fleet"
    ops_metric = "points_per_s"
    default_seed = 11
    held_out_seed = 1011
    jobs = 2
    #: The pool's workers inherit the pinning; the parent mostly waits.
    cpus = jobs
    duration_s = 1800.0
    searches = 3
    #: Trace seed ``i`` of a run is ``seed + i * SEED_STRIDE``.
    SEED_STRIDE = 7919

    def setup(self, seed: int) -> None:
        import time

        import repro.search as search
        import repro.serve as serve
        from repro.analysis.experiments import auto_config
        from repro.analysis.experiments.paged_serving import SERVE_MODEL

        self.search = search
        self.auto_config = auto_config
        self.workloads = [
            auto_config.workload(seed=seed + i * self.SEED_STRIDE,
                                 duration_s=self.duration_s)
            for i in range(self.searches)]
        self.space = auto_config.config_space(axes=auto_config.SMOKE_AXES)
        self.executor = serve.SweepExecutor(jobs=self.jobs)
        self.sweeps = []
        run = self.executor.run

        def recorded(points, memoize=None):
            sweep = run(points, memoize=memoize)
            self.sweeps.append((list(points), sweep))
            return sweep

        # Spin the pool up on tiny points of another design, so the
        # search still starts with cold mugi caches in every worker.
        start = time.perf_counter()
        spec = serve.TraceSpec("poisson", n_requests=4, rate_rps=1.0)
        run([serve.SweepPoint(label=f"spinup{i}", design=("sa", 16),
                              model=SERVE_MODEL, trace=spec)
             for i in range(self.jobs)], memoize=False)
        self.spinup_s = time.perf_counter() - start
        self.executor.run = recorded

    def prepare(self) -> None:
        pass

    def run(self):
        auto_config = self.auto_config
        searched = []
        for workload in self.workloads:
            result = self.search.search(
                self.space, workload, objectives=auto_config.OBJECTIVES,
                strategy="halving", prefix_fraction=0.5,
                executor=self.executor)
            hand = auto_config.hand_picked_metrics(workload,
                                                   executor=self.executor)
            searched.append((result, hand))
        self.executor.close()
        return searched

    def _headline(self, result, hand):
        """The cheapest frontier point at the hand-picked goodput, or
        the best-goodput point when the frontier never reaches it."""
        return self.auto_config.best_at_goodput(
            result.frontier, hand["goodput"]) or result.best("goodput")

    def check(self, raw) -> Outcome:
        digest = []
        for result, hand in raw:
            best = self._headline(result, hand)
            digest.append({
                "total_runs": result.total_runs,
                "evaluated": result.evaluated,
                "frontier": [[c.label, [float(v) for _, v in c.values]]
                             for c in result.frontier],
                "best": best.label,
                "hand_picked": [hand["cost_per_good_request"],
                                hand["goodput"]]})
        # Sim metrics come from the first search's headline point.
        best = self._headline(*raw[0])
        report = best.report
        lengths: dict = {}
        ops = failed = requests = ran = trace_hits = 0
        cache_hits = cache_misses = memo_hits = memo_misses = 0
        clocks = dict.fromkeys(("trace_s", "simulate_s", "teardown_s"), 0.0)
        sweep_s = 0.0
        for points, sweep in self.sweeps:
            sweep_s += sweep.wall_s
            memo_hits += sweep.memo_hits
            memo_misses += sweep.memo_misses
            for point, outcome in zip(points, sweep):
                ops += 1
                if point.trace not in lengths:
                    lengths[point.trace] = _unwrapped_realize(point.trace)
                failed += check_report(outcome.report,
                                       lengths[point.trace]) > 0
                if outcome.memo_hit:
                    continue
                ran += 1
                requests += outcome.report.completed
                trace_hits += outcome.trace_cache_hit
                cache_hits += outcome.cache_hits
                cache_misses += outcome.cache_misses
                clocks["trace_s"] += outcome.trace_s
                clocks["simulate_s"] += outcome.wall_s
                clocks["teardown_s"] += outcome.teardown_s
        sim = {"sim_goodput_rps": best.value("goodput"),
               "sim_cost_per_good_kg": best.value("cost_per_good_request"),
               "sim_ttft_p99_s": report.ttft_percentile(99),
               "sim_tpot_p99_s": report.tpot_percentile(99),
               "serve.scheduler.queue_wait_p99_s":
               report.queue_delay_percentile(99),
               "serve.engine.leap_share":
               report.leap_steps / max(report.steps, 1),
               "serve.kv_cache.prefix_hit_rate": report.prefix_hit_rate,
               "serve.kv_cache.preemptions": report.preemptions,
               "serve.autoscale.scale_events": len(report.scale_events),
               "serve.autoscale.mean_replicas": report.mean_replicas,
               "serve.costs.hit_ratio":
               cache_hits / max(cache_hits + cache_misses, 1)}
        layers = {"serve.sweep.pool_spinup_s": self.spinup_s,
                  "serve.sweep.trace_s": clocks["trace_s"],
                  "serve.sweep.simulate_s": clocks["simulate_s"],
                  "serve.sweep.teardown_s": clocks["teardown_s"],
                  "serve.sweep.trace_cache_hit_ratio":
                  trace_hits / max(ran, 1),
                  "serve.sweep.memo_hit_ratio":
                  memo_hits / max(memo_hits + memo_misses, 1),
                  "serve.sweep.worker_busy_share":
                  sum(clocks.values()) / max(self.jobs * sweep_s, 1e-12),
                  "search.total_runs": sum(r.total_runs for r, _ in raw),
                  "search.evaluated": sum(r.evaluated for r, _ in raw)}
        return Outcome(ops=ops, failed=failed, digest={"searches": digest},
                       sim=sim,
                       requests=requests, report=report,
                       layers=layers)


def _unwrapped_realize(spec) -> list:
    """The spec's requests, bypassing any tracing wrapper so that output
    checks do not show up as trace synthesis."""
    realize = type(spec).realize
    return getattr(realize, "__perfbench_original__", realize)(spec)


WORKLOADS = {w.name: w for w in (ServeBulk, FleetPrefix, PaperKernels,
                                 SearchFleet)}
