"""Common interface for all accelerator designs (paper Table 2).

Every design prices two op families — GEMM and nonlinear — returning an
:class:`OpCost` (cycles, dynamic energy, off-chip traffic), and reports an
area breakdown in the Fig. 13 categories.  The end-to-end simulator
(:mod:`repro.arch.simulator`) composes these per-op costs over an LLM
operator graph.

Metric conventions (decoded from Table 3's internal ratios):

* ``throughput`` — tokens/s.
* ``energy efficiency`` — throughput / (dynamic energy per token); the
  paper's "Tokens/s/µJ" column scales linearly with node count.
* ``power efficiency`` — throughput / total power (dynamic + leakage),
  scale-invariant across node counts.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ...errors import MappingError
from ..sram import SRAM
from ..technology import TECH_45NM, TechnologyModel

#: Fig. 13 area/power breakdown categories.
BREAKDOWN_CATEGORIES = ("pe", "acc", "fifo", "tc", "nonlinear", "vector",
                        "vr", "other", "sram")


@dataclass(frozen=True)
class GemmOp:
    """One GEMM: ``out[m, n] = sum_k act[m, k] * w[n, k]``.

    ``kind`` tags the LLM layer type (projection / attention_qk /
    attention_pv / ffn) for the latency breakdowns; ``weight_bits`` is 4
    under WOQ/KVQ, ``act_bits`` 16 for BF16 activations.
    ``weights_resident`` marks weights already on chip (attention KV tiles
    just produced), suppressing HBM traffic.
    """

    m: int
    k: int
    n: int
    kind: str = "projection"
    weight_bits: int = 4
    act_bits: int = 16
    group_size: int = 128
    weights_resident: bool = False
    #: Identical instances of this GEMM (e.g. one per KV head); the
    #: simulator multiplies cycles/energy/traffic by ``count``.
    count: int = 1

    def __post_init__(self):
        if min(self.m, self.k, self.n) < 1:
            raise MappingError("GEMM dims must be positive")
        if self.count < 1:
            raise MappingError("GEMM count must be >= 1")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count."""
        return self.m * self.k * self.n

    @property
    def weight_bytes(self) -> float:
        """Weight footprint in bytes."""
        return self.k * self.n * self.weight_bits / 8

    @property
    def io_bytes(self) -> float:
        """Activation-in plus result-out bytes."""
        return self.m * self.k * self.act_bits / 8 + self.m * self.n * 2


#: Nonlinear op names the cost models understand: the attention softmax,
#: the FFN activations, and the §7.1 auxiliary LayerNorm and RoPE.
NONLINEAR_OPS = ("softmax", "silu", "gelu", "layernorm", "rope")


@dataclass(frozen=True)
class NonlinearOp:
    """One nonlinear activation pass.

    ``op`` is one of :data:`NONLINEAR_OPS`; ``rows`` is the number of
    softmax reduction rows (reciprocals), 0 for elementwise ops.
    """

    op: str
    elements: int
    rows: int = 0
    #: Identical instances (multiplied by the simulator).
    count: int = 1

    def __post_init__(self):
        if self.op not in NONLINEAR_OPS:
            raise MappingError(f"unknown nonlinear op {self.op!r}; "
                               f"choose from {NONLINEAR_OPS}")
        if self.elements < 1:
            raise MappingError("nonlinear op needs at least one element")
        if self.op == "softmax" and self.rows < 1:
            raise MappingError("softmax needs rows >= 1")
        if self.count < 1:
            raise MappingError("nonlinear count must be >= 1")


#: Collective kinds the cost model understands (ring algorithms for the
#: multi-chip variants, a single hop for ``send_recv``).
COLLECTIVE_KINDS = ("all_reduce", "all_gather", "reduce_scatter",
                    "send_recv")


@dataclass(frozen=True)
class CollectiveOp:
    """One collective-communication operation between chips.

    Emitted by the tensor/pipeline partitioner (:mod:`repro.parallel`)
    alongside the per-shard compute ops: ``all_reduce`` merges
    row-parallel partial sums, ``all_gather`` rebuilds a column-sharded
    activation (e.g. the vocab-parallel logits), and ``send_recv``
    carries activations across a pipeline-stage boundary.

    ``bytes`` is the *logical* payload (the full unsharded tensor); the
    cost model derives per-link traffic from it and ``participants``.
    """

    kind: str
    bytes: float
    participants: int
    #: Identical instances (multiplied by the simulator).
    count: int = 1

    def __post_init__(self):
        if self.kind not in COLLECTIVE_KINDS:
            raise MappingError(f"unknown collective kind {self.kind!r}; "
                               f"choose from {COLLECTIVE_KINDS}")
        if self.bytes <= 0:
            raise MappingError("collective payload must be positive")
        if self.participants < 1:
            raise MappingError("collective needs at least one participant")
        if self.count < 1:
            raise MappingError("collective count must be >= 1")


@dataclass(frozen=True)
class OpCost:
    """Cost of one op on one design.

    ``comm_seconds`` / ``comm_energy_pj`` are inter-chip communication
    time and wire energy (collectives / pipeline hops), kept separate
    from ``cycles`` / ``energy_pj`` so the simulator can overlap
    communication with compute and attribute it to its own breakdown
    bucket; both are 0 for every single-chip design.
    """

    cycles: float
    energy_pj: float
    hbm_bytes: float = 0.0
    comm_seconds: float = 0.0
    comm_energy_pj: float = 0.0

    def __add__(self, other: "OpCost") -> "OpCost":
        return OpCost(cycles=self.cycles + other.cycles,
                      energy_pj=self.energy_pj + other.energy_pj,
                      hbm_bytes=self.hbm_bytes + other.hbm_bytes,
                      comm_seconds=self.comm_seconds + other.comm_seconds,
                      comm_energy_pj=self.comm_energy_pj
                      + other.comm_energy_pj)


def memoize_op_cost(method):
    """Cache a design's per-op costs on the instance.

    Ops are frozen (hashable) dataclasses and every design's cost model is
    a pure function of the op *given construction-time configuration*:
    treat a design as immutable once it has costed anything — reassigning
    ``tech`` (or array geometry) afterwards would silently serve stale
    cached costs; build a fresh design instead.  Keys include the
    defining class's qualname so ``super()`` chains (e.g. Mugi-L → Mugi)
    keep separate entries.
    """

    @functools.wraps(method)
    def wrapper(self, op):
        cache = self.__dict__.setdefault("_op_cost_cache", {})
        key = (method.__qualname__, op)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = method(self, op)
        return hit

    wrapper.__memoized_cost__ = True
    return wrapper


@dataclass
class AreaBreakdown:
    """Per-category mm² with convenience totals (Fig. 13)."""

    categories: dict = field(default_factory=dict)

    def add(self, category: str, mm2: float) -> None:
        if category not in BREAKDOWN_CATEGORIES:
            raise MappingError(f"unknown breakdown category {category!r}")
        self.categories[category] = self.categories.get(category, 0.0) + mm2

    @property
    def total_mm2(self) -> float:
        return sum(self.categories.values())

    @property
    def array_mm2(self) -> float:
        """Everything except SRAM (the Fig. 13 'array level' bars)."""
        return self.total_mm2 - self.categories.get("sram", 0.0)

    def get(self, category: str) -> float:
        return self.categories.get(category, 0.0)


class AcceleratorDesign(ABC):
    """Base class for Table 2 design points."""

    #: Short name used in tables/figures ("Mugi", "Carat", "SA", ...).
    name: str = "design"

    def __init__(self, tech: TechnologyModel = TECH_45NM):
        self.tech = tech

    def __init_subclass__(cls, **kwargs):
        """Memoize every concrete ``gemm_cost`` / ``nonlinear_cost``."""
        super().__init_subclass__(**kwargs)
        for name in ("gemm_cost", "nonlinear_cost"):
            method = cls.__dict__.get(name)
            if method is not None and \
                    not getattr(method, "__memoized_cost__", False):
                setattr(cls, name, memoize_op_cost(method))

    # -- structure ------------------------------------------------------
    @abstractmethod
    def area_breakdown(self) -> AreaBreakdown:
        """Per-category area in mm²."""

    @property
    def area_mm2(self) -> float:
        """Total on-chip area."""
        return self.area_breakdown().total_mm2

    def leakage_w(self) -> float:
        """Static power: area × technology leakage density."""
        return self.area_mm2 * self.tech.leakage_w_per_mm2

    # -- op costing -----------------------------------------------------
    @abstractmethod
    def gemm_cost(self, op: GemmOp) -> OpCost:
        """Cycles/energy/traffic of one GEMM."""

    @abstractmethod
    def nonlinear_cost(self, op: NonlinearOp) -> OpCost:
        """Cycles/energy/traffic of one nonlinear pass."""

    # -- helpers shared by subclasses -----------------------------------
    def _standard_srams(self, kb: int = 64, i_width: int = 128,
                        w_width: int = 256, o_width: int = 256
                        ) -> dict[str, SRAM]:
        """The i/w/o SRAM trio of Table 2.

        Each memory's Table 2 capacity is split into two banks (the
        "double buffers all memory hierarchies" of §4), so total capacity
        per memory equals the Table 2 figure.
        """
        half = max(1, kb // 2) * 1024
        return {
            "iSRAM": SRAM("iSRAM", capacity_bytes=half,
                          width_bits=i_width, banks=2),
            "wSRAM": SRAM("wSRAM", capacity_bytes=half,
                          width_bits=w_width, banks=2),
            "oSRAM": SRAM("oSRAM", capacity_bytes=half,
                          width_bits=o_width, banks=2),
        }

    def _sram_area(self, srams: dict[str, SRAM]) -> float:
        return sum(s.area_mm2(self.tech) for s in srams.values())

    def _sram_traffic_pj(self, sram: SRAM, bytes_moved: float) -> float:
        return sram.traffic_energy_pj(bytes_moved, self.tech)

    def label(self) -> str:
        """Display label, e.g. ``Mugi (256)``."""
        size = getattr(self, "height", None) or getattr(self, "dim", None)
        return f"{self.name} ({size})" if size else self.name
