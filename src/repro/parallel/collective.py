"""Collective-communication cost model for sharded serving.

Multi-chip deployments connect chips over a point-to-point interconnect
(NVLink/ICI-class ring).  The model prices the three collectives the
tensor/pipeline partitioner emits with the standard ring-algorithm
latency/bandwidth decomposition (Thakur et al.; the same terms NCCL's
ring implementations realize):

* **all-reduce** of a ``B``-byte tensor over ``N`` chips — a
  reduce-scatter followed by an all-gather: ``2·(N−1)`` steps each
  moving ``B/N`` bytes per link, so
  ``t = 2·(N−1)·(B/N)/bw + 2·(N−1)·α``;
* **all-gather / reduce-scatter** — ``N−1`` steps of ``B/N`` bytes;
* **send_recv** — one pipeline-boundary hop of the full payload.

Energy is per-byte serdes+link energy on the total wire traffic.  All
constants live on :class:`InterconnectConfig`, mirroring how
:class:`repro.arch.TechnologyModel` carries the on-chip constants; the
defaults are sized for the 45 nm / 400 MHz chips of the cost model (a
PCIe/early-NVLink-class 16 GB/s link) rather than a modern 900 GB/s
switch, so communication is visible at the step times these chips run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.designs.base import CollectiveOp, OpCost
from ..errors import ConfigError

__all__ = [
    "CollectiveOp",
    "DEFAULT_INTERCONNECT",
    "InterconnectConfig",
    "collective_cost",
    "collective_seconds",
    "collective_traffic_bytes",
]


@dataclass(frozen=True)
class InterconnectConfig:
    """Chip-to-chip link parameters.

    Attributes
    ----------
    link_bandwidth_bytes:
        Per-direction bandwidth of one link (bytes/s).
    link_latency_s:
        Per-step launch/propagation latency (the ring α term).
    energy_pj_per_byte:
        Serdes + link traversal energy per byte moved off chip
        (~40 pJ/B — an order above the on-package HBM's 32 pJ/B).
    nic_area_mm2:
        Per-chip link controller / PHY area, counted once per chip in a
        sharded system's total area.
    """

    link_bandwidth_bytes: float = 16e9
    link_latency_s: float = 1e-6
    energy_pj_per_byte: float = 40.0
    nic_area_mm2: float = 0.25

    def __post_init__(self):
        # Written so NaN fails too: a NaN or infinite constant turns every
        # collective's time, energy or area into NaN or inf, which breaks
        # step ordering long after construction.
        if not 0 < self.link_bandwidth_bytes < math.inf:
            raise ConfigError("link_bandwidth_bytes must be finite and "
                              "positive")
        for name in ("link_latency_s", "energy_pj_per_byte",
                     "nic_area_mm2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and "
                                  f"non-negative")


#: Default interconnect used by :class:`repro.parallel.ShardedSystem`.
DEFAULT_INTERCONNECT = InterconnectConfig()


def _ring_steps_and_payload(op: CollectiveOp) -> tuple[int, float]:
    """(step count, bytes per link per step) of one collective instance."""
    n = op.participants
    if op.kind == "all_reduce":
        return 2 * (n - 1), op.bytes / n
    if op.kind in ("all_gather", "reduce_scatter"):
        return n - 1, op.bytes / n
    return 1, op.bytes  # send_recv: one boundary hop.


def collective_seconds(op: CollectiveOp,
                       interconnect: InterconnectConfig) -> float:
    """Wall time of one instance of a collective (0 for one participant)."""
    if op.participants < 2:
        return 0.0
    steps, payload = _ring_steps_and_payload(op)
    return steps * (payload / interconnect.link_bandwidth_bytes
                    + interconnect.link_latency_s)


def collective_traffic_bytes(op: CollectiveOp) -> float:
    """Total bytes crossing links, summed over all chips and steps."""
    if op.participants < 2:
        return 0.0
    n = op.participants
    if op.kind == "all_reduce":
        return 2 * (n - 1) * op.bytes
    if op.kind in ("all_gather", "reduce_scatter"):
        return (n - 1) * op.bytes
    return op.bytes


def collective_cost(op: CollectiveOp,
                    interconnect: InterconnectConfig) -> OpCost:
    """Price one collective instance (the simulator multiplies by count).

    Communication lands in :attr:`OpCost.comm_seconds` /
    :attr:`OpCost.comm_energy_pj` — not cycles / compute energy — so the
    step roofline can overlap it with compute and the breakdowns
    attribute it to the "collective" bucket; energy is the wire traffic
    at the link's per-byte energy.
    """
    return OpCost(
        cycles=0.0,
        energy_pj=0.0,
        hbm_bytes=0.0,
        comm_seconds=collective_seconds(op, interconnect),
        comm_energy_pj=collective_traffic_bytes(op)
        * interconnect.energy_pj_per_byte)
