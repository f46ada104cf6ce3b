"""The search driver: expand a space, execute, return the frontier.

:func:`search` is the one entry point.  ``strategy="grid"`` evaluates
every valid point at full fidelity through
:func:`repro.serve.run_sweep` (so it inherits the executor's
determinism and ``jobs=N`` fan-out) and Pareto-filters the scores —
the exact baseline.  ``strategy="halving"`` is the smarter one:
successive halving on deterministic short prefixes of the workload.
Each rung scores the surviving candidates on a prefix
(``prefix_fraction`` of the trace, growing by ``eta`` per rung), keeps
the rung's non-dominated set plus the top ``1/eta`` slice per
objective, and only the final survivors pay for the full workload.
Because the final rung re-scores survivors at full fidelity with the
same seeds as grid, a frontier point reported by halving carries the
same report grid would have produced for it — halving can only *miss*
frontier points whose short-prefix scores were misleading, never
mis-score one.

Everything is deterministic from the workload seed: traces are
regenerated from specs, rung selection sorts on (canonical score,
label), and no driver-side randomness exists.

Execution goes through **one** :class:`repro.serve.SweepExecutor` for
the whole search — every rung and the full-fidelity stage share its
worker pool (and the cost tables each worker has priced), worker-side
trace caches, and cross-run outcome memo.  Callers comparing
strategies (grid vs halving) or re-scoring hand-picked configs should
pass their own ``executor`` so the memo spans those runs too:
halving's full-fidelity stage then returns grid's cached outcomes
instead of re-simulating.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from ..errors import ConfigError
from ..serve.sweep import SweepExecutor
from .objectives import make_objectives
from .pareto import FrontierPoint, ParetoFrontier
from .space import SearchSpace, Workload

__all__ = [
    "SearchResult",
    "StageResult",
    "search",
]

STRATEGIES = ("grid", "halving")


@dataclass(frozen=True)
class StageResult:
    """One executed rung (or the single grid stage)."""

    name: str
    fraction: float
    candidates: int
    survivors: int
    wall_s: float


@dataclass
class SearchResult:
    """A finished search: the frontier plus how it was found.

    ``memo_hits`` / ``memo_misses`` / ``memo_evictions`` are the
    executor-memo traffic *this search* generated (summed over its
    stages): candidates answered from the cross-run memo vs actually
    simulated.  ``trace_cache_hits`` counts candidates whose trace
    came from a worker's column cache instead of RNG generation.
    """

    frontier: ParetoFrontier
    strategy: str
    objectives: tuple
    evaluated: int
    total_runs: int
    skipped: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    wall_s: float = 0.0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0
    trace_cache_hits: int = 0

    def best(self, objective: str) -> FrontierPoint:
        return self.frontier.best(objective)

    def summary(self) -> str:
        """The search as text.  Host wall clocks (``wall_s`` here and
        on each stage) are left out, so the text is a pure function of
        the simulated results."""
        lines = [f"search[{self.strategy}]: {self.total_runs} runs "
                 f"({self.evaluated} full-fidelity), "
                 f"{len(self.skipped)} invalid combos skipped"]
        lines.append(
            f"  executor: {self.memo_hits} memo hits / "
            f"{self.memo_misses} misses ({self.memo_evictions} "
            f"evicted), {self.trace_cache_hits}/{self.total_runs} "
            f"trace-cache hits")
        for stage in self.stages:
            lines.append(
                f"  {stage.name}: {stage.candidates} candidates @ "
                f"{stage.fraction:.0%} workload -> "
                f"{stage.survivors} survivors")
        lines.append(self.frontier.summary())
        return "\n".join(lines)


def _score(outcome, point, objectives, stage: str) -> FrontierPoint:
    """Score one sweep outcome under every objective."""
    try:
        values = tuple((o.name, o.value(outcome.report))
                       for o in objectives)
    except ConfigError as err:
        raise ConfigError(f"scoring {point.label!r}: {err}") from err
    return FrontierPoint(label=point.label, values=values, point=point,
                         report=outcome.report, stage=stage)


def _evaluate(points, labels, objectives, executor: SweepExecutor,
              stage: str):
    """Run points through the shared executor and score them.

    ``labels`` maps back to the original candidate labels (rung points
    are relabeled to stay distinct across rungs); scores are returned
    in input order.  The sweep report rides along so the driver can
    aggregate executor statistics across stages.
    """
    sweep = executor.run(points)
    scored = []
    for outcome, point, label in zip(sweep, points, labels):
        candidate = _score(outcome, point, objectives, stage)
        scored.append(FrontierPoint(
            label=label, values=candidate.values, point=point,
            report=outcome.report, stage=stage))
    return scored, sweep


def _survivors(scored, objectives, eta: int):
    """Rung selection: non-dominated set ∪ top ``1/eta`` per objective.

    The union keeps halving honest on multi-objective searches — a
    point mediocre on the first objective but best-in-class on the
    second survives — while still shrinking the pool geometrically.
    Deterministic: every sort breaks ties on label.
    """
    keep = {c.label for c in ParetoFrontier(objectives, scored).points}
    top_k = max(1, math.ceil(len(scored) / eta))
    for objective in objectives:
        ranked = sorted(
            scored, key=lambda c: (objective.canonical(
                c.value(objective.name)), c.label))
        keep.update(c.label for c in ranked[:top_k])
    return [c for c in scored if c.label in keep]


def search(space: SearchSpace, workload: Workload,
           objectives=("goodput",), strategy: str = "grid",
           jobs: int = 1, prefix_fraction: float = 0.25, eta: int = 3,
           min_rung_requests: int = 32,
           min_rung_duration_s: float = 240.0,
           executor: SweepExecutor | None = None) -> SearchResult:
    """Search the space for the workload's Pareto-optimal configs.

    Parameters
    ----------
    space, workload:
        What to search and what to serve (see :mod:`repro.search.space`).
    objectives:
        Objective names (or :class:`Objective` instances) from
        :mod:`repro.search.objectives`; ≥ 2 gives a real frontier,
        one degenerates to a best-point search.
    strategy:
        ``"grid"`` (exhaustive, the exact baseline) or ``"halving"``
        (successive halving on workload prefixes).
    jobs:
        Worker processes, used to build the search's
        :class:`repro.serve.SweepExecutor` (ignored when ``executor``
        is passed — the session's pool width wins).
    prefix_fraction, eta, min_rung_requests, min_rung_duration_s:
        Halving shape: the first rung serves ``prefix_fraction`` of
        the workload (floored at ``min_rung_requests`` requests or
        ``min_rung_duration_s`` seconds), each rung keeps the
        non-dominated set plus the top ``ceil(n/eta)`` per objective
        and grows the prefix by ``eta``; survivors are re-scored on
        the full workload.
    executor:
        An existing :class:`repro.serve.SweepExecutor` session to run
        on (left open for the caller); ``None`` creates a private one
        for this search and closes it on return.  Sharing one executor
        across searches lets a grid-vs-halving comparison answer the
        second strategy's full-fidelity stage from the first's memo.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected "
                          f"one of {STRATEGIES}")
    if eta < 2:
        raise ConfigError(f"eta must be >= 2, got {eta}")
    if not 0.0 < prefix_fraction < 1.0:
        raise ConfigError(f"prefix_fraction must be in (0, 1), "
                          f"got {prefix_fraction}")
    objectives = make_objectives(objectives, workload)
    start = time.perf_counter()
    candidates, skipped = space.points(workload)
    if not candidates:
        reasons = "; ".join(f"{label}: {why}"
                            for label, why in skipped[:3])
        raise ConfigError(
            f"search space produced no valid points "
            f"({len(skipped)} combinations all rejected: {reasons})")
    owned = executor is None
    if owned:
        executor = SweepExecutor(jobs=jobs)
    stages = []
    sweeps = []
    total_runs = 0

    try:
        if strategy == "halving":
            fraction, rung = prefix_fraction, 0
            while fraction < 1.0 and len(candidates) > max(eta, 2):
                short = workload.prefix(
                    fraction, min_requests=min_rung_requests,
                    min_duration_s=min_rung_duration_s)
                if short is workload:
                    break  # Floors reached the full span; rungs are free.
                rung_points = [replace(p, label=f"{p.label}#r{rung}",
                                       trace=short.trace)
                               for p in candidates]
                stage_start = time.perf_counter()
                scored, sweep = _evaluate(
                    rung_points, [p.label for p in candidates],
                    objectives, executor, stage=f"rung{rung}")
                sweeps.append(sweep)
                total_runs += len(rung_points)
                kept = {c.label for c in
                        _survivors(scored, objectives, eta)}
                survivors = [p for p in candidates if p.label in kept]
                stages.append(StageResult(
                    name=f"rung{rung}", fraction=fraction,
                    candidates=len(candidates),
                    survivors=len(survivors),
                    wall_s=time.perf_counter() - stage_start))
                candidates = survivors
                fraction = min(1.0, fraction * eta)
                rung += 1

        stage_start = time.perf_counter()
        scored, sweep = _evaluate(candidates,
                                  [p.label for p in candidates],
                                  objectives, executor, stage="full")
        sweeps.append(sweep)
        total_runs += len(candidates)
        frontier = ParetoFrontier(objectives, scored)
        stages.append(StageResult(
            name="full", fraction=1.0, candidates=len(candidates),
            survivors=len(frontier),
            wall_s=time.perf_counter() - stage_start))
    finally:
        if owned:
            executor.close()
    return SearchResult(frontier=frontier, strategy=strategy,
                        objectives=objectives,
                        evaluated=len(candidates),
                        total_runs=total_runs, skipped=skipped,
                        stages=stages,
                        wall_s=time.perf_counter() - start,
                        memo_hits=sum(s.memo_hits for s in sweeps),
                        memo_misses=sum(s.memo_misses for s in sweeps),
                        memo_evictions=sum(s.memo_evictions
                                           for s in sweeps),
                        trace_cache_hits=sum(s.trace_cache_hits
                                             for s in sweeps))
