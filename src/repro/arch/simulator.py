"""End-to-end LLM simulation on any design (paper §5.4, §6.3).

The simulator composes per-op costs over an LLM decode/prefill operator
graph (from :mod:`repro.llm.workload`) into the Table 3 metrics:

* tokens/s — sequential op cycles per step, roofline-limited by HBM;
* energy per token, energy efficiency (throughput / energy-per-token);
* total power (dynamic + leakage) and power efficiency;
* per-layer-kind latency/energy breakdowns for Fig. 15/16.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from ..errors import SimulationError
from .designs.base import CollectiveOp, GemmOp, NonlinearOp
from .technology import TECH_45NM, TechnologyModel

#: Latency-breakdown buckets of Fig. 16 (+ collective communication).
BREAKDOWN_KINDS = ("projection", "attention", "ffn", "nonlinear",
                   "collective")
_PROJECTION, _ATTENTION, _FFN, _NONLINEAR, _COLLECTIVE = \
    range(len(BREAKDOWN_KINDS))
#: Bucket of each GEMM kind; any other kind is a projection.
_GEMM_BUCKETS = {"attention_qk": _ATTENTION, "attention_pv": _ATTENTION,
                 "attention": _ATTENTION, "ffn": _FFN}


def op_terms(design, op, frequency_hz: float) -> tuple:
    """The addends one op contributes to the simulator's sums.

    Returns ``(bucket, cycles, energy, bucket_energy, comm_energy,
    hbm_bytes, comm_seconds, comm_cycles, macs)``.  ``bucket`` indexes
    :data:`BREAKDOWN_KINDS`.  Every other term is already scaled by
    ``op.count``:

    * ``energy`` is dynamic plus wire energy, and ``bucket_energy`` the
      dynamic part alone;
    * ``comm_cycles`` is the communication time in clock-equivalent
      cycles at ``frequency_hz``;
    * ``macs`` is the integer MAC count, 0 for non-GEMM ops.

    This is the one per-op dispatch: :func:`simulate_workload` and
    :class:`repro.llm.StepCostSurface` both fold these terms.  Anything
    that is not a GEMM, nonlinear or collective op raises
    :class:`SimulationError`, and so does a collective on a design
    without ``collective_cost``.
    """
    # Dispatch on the type before reading op.count: a str has .count.
    if isinstance(op, GemmOp):
        cost = design.gemm_cost(op)
        bucket = _GEMM_BUCKETS.get(op.kind, _PROJECTION)
        macs = op.macs * op.count
    elif isinstance(op, NonlinearOp):
        cost = design.nonlinear_cost(op)
        bucket, macs = _NONLINEAR, 0
    elif isinstance(op, CollectiveOp):
        collective_cost = getattr(design, "collective_cost", None)
        if collective_cost is None:
            raise SimulationError(
                f"{getattr(design, 'name', type(design).__name__)} "
                f"cannot price collective ops; wrap the chip in a "
                f"repro.parallel.ShardedSystem")
        cost = collective_cost(op)
        bucket, macs = _COLLECTIVE, 0
    else:
        raise SimulationError(f"unknown op type {type(op).__name__}")
    count = op.count
    comm_seconds = cost.comm_seconds * count
    return (bucket, cost.cycles * count,
            (cost.energy_pj + cost.comm_energy_pj) * count,
            cost.energy_pj * count, cost.comm_energy_pj * count,
            cost.hbm_bytes * count, comm_seconds,
            comm_seconds * frequency_hz, macs)


@dataclass
class SimulationResult:
    """Aggregate metrics of one workload on one design.

    All energies are dynamic; leakage enters via ``total_power_w``.
    """

    design_name: str
    tokens_per_step: int
    compute_seconds: float
    memory_seconds: float
    dynamic_energy_j: float
    area_mm2: float
    leakage_w: float
    #: Per-bucket cycles for the Fig. 15/16 breakdowns.  The
    #: "collective" bucket holds communication time as clock-equivalent
    #: cycles so sharded breakdowns show the comm share; it is *not*
    #: part of ``compute_seconds`` (communication enters the step
    #: roofline through ``comm_seconds`` and the overlap model).
    cycles_by_kind: dict = field(default_factory=dict)
    energy_by_kind: dict = field(default_factory=dict)
    hbm_bytes: float = 0.0
    total_macs: float = 0.0
    #: Inter-chip collective time (0 for single-chip designs) and the
    #: fraction of it the deployment hides under compute.
    comm_seconds: float = 0.0
    comm_overlap: float = 0.0

    @property
    def step_seconds(self) -> float:
        """Wall time per decode step: compute/memory roofline plus the
        exposed (non-overlapped) share of collective communication —
        never less than the communication time itself."""
        base = max(self.compute_seconds, self.memory_seconds)
        if not self.comm_seconds:
            return base
        exposed = self.comm_seconds * (1.0 - self.comm_overlap)
        return max(base + exposed, self.comm_seconds)

    @property
    def throughput_tokens_s(self) -> float:
        """Generated tokens per second."""
        return self.tokens_per_step / self.step_seconds

    @property
    def energy_per_token_j(self) -> float:
        """Dynamic energy per generated token."""
        return self.dynamic_energy_j / self.tokens_per_step

    @property
    def energy_efficiency(self) -> float:
        """Paper Table 3 metric: throughput / energy-per-token.

        Scales linearly with node count (unlike tokens/J), matching the
        single-node → NoC ratios in Table 3.
        """
        return self.throughput_tokens_s / self.energy_per_token_j

    @property
    def dynamic_power_w(self) -> float:
        """Average dynamic power over the step."""
        return self.dynamic_energy_j / self.step_seconds

    @property
    def total_power_w(self) -> float:
        """Dynamic + leakage power."""
        return self.dynamic_power_w + self.leakage_w

    @property
    def power_efficiency(self) -> float:
        """Paper Table 3 metric: throughput / total power."""
        return self.throughput_tokens_s / self.total_power_w

    @property
    def operational_intensity(self) -> float:
        """MACs per HBM byte (the §6.3.1 DRAM-traffic claim).

        Uses the workload's MAC count, not cycles: Mugi spends
        ``spike_cycles`` per mapping, so cycles/byte would skew
        cross-design comparisons of the same workload.
        """
        if self.hbm_bytes == 0:
            return float("inf")
        return self.total_macs / self.hbm_bytes


def simulate_workload(design, ops, tokens_per_step: int,
                      tech: TechnologyModel | None = None
                      ) -> SimulationResult:
    """Run an operator list through a design's cost model.

    The decode and serving-step builders repeat one layer's op objects
    ``n_layers`` times, so a graph of hundreds of ops holds a handful of
    distinct objects (Llama-2-70B decode at batch 8: 641 ops, 9
    distinct).  Each distinct object is priced once, by
    :func:`op_terms`, into the addends the sums need.  The loop then
    replays the sums element by element, in list order, from those
    terms, so every total is the same sequence of float additions as
    pricing each element afresh: bit-identical, at one dict probe and a
    few adds per element.

    The terms are keyed by ``id(op)``, because hashing a frozen op costs
    more than the pricing it saves.  An id is unique only while its
    object lives, so every cache entry holds its op until the call
    returns.  Otherwise a generator of freshly built ops could hand a
    new op the id, and the stale terms, of a freed one.

    Parameters
    ----------
    design:
        Any object exposing ``gemm_cost`` / ``nonlinear_cost`` /
        ``area_mm2`` / ``leakage_w`` (single nodes,
        :class:`repro.arch.noc.NocSystem`, and
        :class:`repro.parallel.ShardedSystem` all qualify; the latter
        additionally prices :class:`CollectiveOp` via
        ``collective_cost``).  A sharded system shards each op
        internally, so feed it the ordinary *unsharded* builders'
        graphs — re-running an explicit
        :func:`repro.llm.build_sharded_step_ops` shard through it would
        split the ops twice.
    ops:
        Iterable of :class:`GemmOp` / :class:`NonlinearOp` /
        :class:`CollectiveOp` describing one decode step (or prefill
        pass); it must yield at least one op.
    tokens_per_step:
        Tokens produced per step (the batch size for decode), an
        integer >= 1.
    tech:
        Timing constants; defaults to the design's own ``tech`` (which a
        sharded system scales to its aggregate HBM bandwidth), falling
        back to :data:`TECH_45NM`.
    """
    try:
        tokens_per_step = operator.index(tokens_per_step)
    except TypeError:
        raise SimulationError(
            f"tokens_per_step must be an integer, got "
            f"{tokens_per_step!r}") from None
    if tokens_per_step < 1:
        raise SimulationError("tokens_per_step must be >= 1")
    if tech is None:
        tech = getattr(design, "tech", TECH_45NM)
    frequency_hz = tech.frequency_hz
    total_cycles = 0.0
    total_energy_pj = 0.0
    total_hbm = 0.0
    total_macs = 0
    total_comm_s = 0.0
    cycles_by_kind = [0.0] * len(BREAKDOWN_KINDS)
    energy_by_kind = [0.0] * len(BREAKDOWN_KINDS)
    # id(op) -> (op, *op_terms): the entry's op keeps its id reserved.
    priced: dict = {}

    for op in ops:
        try:
            entry = priced[id(op)]
        except KeyError:
            entry = priced[id(op)] = (
                op, *op_terms(design, op, frequency_hz))
        (_, bucket, cycles, energy, bucket_energy, comm_energy, hbm,
         comm_s, comm_cycles, macs) = entry
        total_cycles += cycles
        total_energy_pj += energy
        total_hbm += hbm
        total_comm_s += comm_s
        total_macs += macs
        cycles_by_kind[bucket] += cycles
        energy_by_kind[bucket] += bucket_energy
        # Communication (carried separately, wherever it rides —
        # explicit collectives or a sharded GEMM's attached all-reduce)
        # is attributed to the "collective" bucket: wire energy
        # directly, time as clock-equivalent cycles.  The time stays out
        # of compute_seconds; the step roofline combines it with
        # comm_seconds via the overlap model.
        energy_by_kind[_COLLECTIVE] += comm_energy
        cycles_by_kind[_COLLECTIVE] += comm_cycles
    if not priced:
        raise SimulationError("simulate_workload needs at least one op")

    compute_seconds = total_cycles * tech.cycle_seconds
    memory_seconds = total_hbm / tech.hbm_bandwidth_bytes
    return SimulationResult(
        design_name=getattr(design, "name", type(design).__name__),
        tokens_per_step=tokens_per_step,
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        dynamic_energy_j=total_energy_pj * 1e-12,
        area_mm2=design.area_mm2,
        leakage_w=design.leakage_w(),
        cycles_by_kind=dict(zip(BREAKDOWN_KINDS, cycles_by_kind)),
        energy_by_kind=dict(zip(BREAKDOWN_KINDS, energy_by_kind)),
        hbm_bytes=total_hbm,
        total_macs=total_macs,
        comm_seconds=total_comm_s,
        comm_overlap=getattr(design, "comm_overlap", 0.0),
    )
