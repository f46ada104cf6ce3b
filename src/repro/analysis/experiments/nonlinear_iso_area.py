"""Fig. 11 — iso-area nonlinear throughput/efficiency comparison.

Softmax and SiLU op shapes from the Llama-2 family (batch 8, sequence
lengths 128–4096), run on Mugi / Carat and the vector-array baselines
(VA-FP precise, VA-AP Taylor/PWL), normalized to VA-FP(16).  Metrics per
design: throughput (elements/s), energy efficiency (elements/J), power
efficiency (elements/s/W), and their area-normalized variants (the
iso-area view).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...arch import (
    CaratDesign,
    MugiDesign,
    NonlinearOp,
    TECH_45NM,
    VectorArrayConfig,
    VectorArrayUnit,
)
from ...llm.config import LLAMA_FAMILY
from ..stats import geomean


@dataclass
class NonlinearPoint:
    """One design's metrics for one op at one sequence length."""

    design: str
    op: str
    seq_len: int
    throughput: float          # Elements per second.
    energy_per_element_pj: float
    power_w: float
    area_mm2: float

    @property
    def power_efficiency(self) -> float:
        return self.throughput / self.power_w


def _softmax_op(model, batch: int, seq_len: int) -> NonlinearOp:
    rows = batch * model.n_heads
    return NonlinearOp(op="softmax", elements=rows * seq_len, rows=rows)


def _silu_op(model, batch: int) -> NonlinearOp:
    return NonlinearOp(op="silu", elements=batch * model.ffn_dim)


def _measure(design, area_mm2: float, leakage_w: float, op: NonlinearOp,
             name: str, seq_len: int) -> NonlinearPoint:
    cost = design.nonlinear_cost(op) if hasattr(design, "nonlinear_cost") \
        else design.cost(op)
    seconds = cost.cycles * TECH_45NM.cycle_seconds
    throughput = op.elements / seconds
    dynamic_w = cost.energy_pj * 1e-12 / seconds
    return NonlinearPoint(
        design=name, op=op.op, seq_len=seq_len,
        throughput=throughput,
        energy_per_element_pj=cost.energy_pj / op.elements,
        power_w=dynamic_w + leakage_w,
        area_mm2=area_mm2)


def build_designs() -> dict:
    """The Fig. 11 design set.

    VA areas include only the nonlinear unit (they are standalone vector
    arrays); Mugi/Carat are charged their full array (it is shared with
    GEMM — the reuse argument)."""
    designs = {}
    for h in (128, 256):
        mugi = MugiDesign(height=h)
        designs[f"Mugi ({h})"] = (mugi, mugi.area_breakdown().array_mm2,
                                  mugi.leakage_w())
        carat = CaratDesign(height=h)
        designs[f"Carat ({h})"] = (carat, carat.area_breakdown().array_mm2,
                                   carat.leakage_w())
    for mode, label in (("precise", "VA-FP"), ("taylor", "VA-AP Taylor"),
                        ("pwl", "VA-AP PWL")):
        va = VectorArrayUnit(VectorArrayConfig(lanes=16, mode=mode))
        area = va.area_mm2()
        designs[f"{label} (16)"] = (va, area,
                                    area * TECH_45NM.leakage_w_per_mm2)
    return designs


def run(batch: int = 8, seq_lens=(128, 256, 512, 1024, 2048, 4096)) -> dict:
    """All Fig. 11 series: {design: {op: {seq_len: NonlinearPoint}}},
    geometric-meaned over the Llama-2 family."""
    designs = build_designs()
    out: dict = {}
    for name, (design, area, leakage) in designs.items():
        out[name] = {"softmax": {}, "silu": {}}
        for seq_len in seq_lens:
            for op_name in ("softmax", "silu"):
                points = []
                for model in LLAMA_FAMILY[:3]:  # 7B, 13B, 70B geomean.
                    op = _softmax_op(model, batch, seq_len) \
                        if op_name == "softmax" else _silu_op(model, batch)
                    points.append(_measure(design, area, leakage, op,
                                           name, seq_len))
                merged = NonlinearPoint(
                    design=name, op=op_name, seq_len=seq_len,
                    throughput=geomean(p.throughput for p in points),
                    energy_per_element_pj=geomean(
                        p.energy_per_element_pj for p in points),
                    power_w=geomean(p.power_w for p in points),
                    area_mm2=area)
                out[name][op_name][seq_len] = merged
    return out


def normalized_summary(results: dict, baseline: str = "VA-FP (16)") -> dict:
    """Headline ratios vs the precise vector array (paper §6.1.2).

    Metric conventions follow Table 3 / Fig. 11: *energy efficiency* is
    throughput ÷ energy-per-element (so its ratio is the throughput ratio
    × the per-element energy ratio — the paper's 481×/668× numbers),
    while *power efficiency* is throughput ÷ power.
    """
    summary = {}
    for name, ops in results.items():
        summary[name] = {}
        for op_name, by_seq in ops.items():
            base = results[baseline][op_name]
            thr = geomean(by_seq[s].throughput / base[s].throughput
                          for s in by_seq)
            energy_ratio = geomean(
                base[s].energy_per_element_pj
                / by_seq[s].energy_per_element_pj for s in by_seq)
            summary[name][op_name] = {
                "throughput": thr,
                "energy_eff": thr * energy_ratio,
                "energy_per_element": energy_ratio,
                "power_eff": geomean(
                    by_seq[s].power_efficiency / base[s].power_efficiency
                    for s in by_seq),
            }
    return summary
